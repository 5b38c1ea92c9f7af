//! The QPPT planner: turns a [`QuerySpec`] plus [`PlanOptions`] into a
//! physical plan of cooperative/composed operators.
//!
//! The produced plan follows the paper's shapes:
//!
//! * Every dimension with predicates becomes either a materialized
//!   *selection* (its own intermediate indexed table keyed on the join
//!   attribute — Fig. 5's σ operators) or, for the first dimension with
//!   `select_join` enabled, a *fused* select-join stream (§4.3, Fig. 10).
//! * Fact-side residual predicates (Q1.x) are evaluated inside the first
//!   join stage when `select_join` is on; otherwise a separate fact
//!   selection materializes the filtered fact tuples first — exactly the
//!   expensive plan Fig. 8 measures.
//! * Dimension joins are packed into composed multi-way/star join stages of
//!   at most `max_join_ways` tables each (Fig. 9's 2/3/4/5-way sweep); the
//!   last stage aggregates directly into its output index (join-group).

use qppt_mem::{key_bits, KeyPackError, KeyPacker};
use qppt_storage::{
    compile_predicate, stable_key_order, ColumnType, CompiledPred, Database, IndexDef, QuerySpec,
    StorageError,
};

use crate::layout::{Layout, Src};
use crate::options::PlanOptions;
use crate::QpptError;

/// How a dimension's tuples reach join operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DimHandleKind {
    /// Use the base index on the join column directly (no predicates).
    Base,
    /// A selection materializes an intermediate table first.
    Materialized,
    /// Fused into the first join stage (select-join): the selection streams.
    Fused,
}

/// A dimension resolved against the catalog.
#[derive(Debug, Clone)]
pub struct ResolvedDim {
    /// Index into `spec.dims`.
    pub spec_idx: usize,
    pub table: String,
    pub join_col_name: String,
    pub fact_col_name: String,
    /// Predicates compiled against the dimension table.
    pub preds: Vec<CompiledPred>,
    /// Original predicate column names (first one is the selection's scan
    /// column).
    pub pred_cols: Vec<String>,
    pub carried_names: Vec<String>,
    pub handle: DimHandleKind,
    /// Largest join-key code (drives the §2.2 index-structure choice).
    pub join_key_max: u64,
    /// Set when the selection runs over the multidimensional index keyed on
    /// all of `pred_cols` (§4.1): the whole conjunction is one contiguous
    /// key range there, with no residual predicates.
    pub multidim: bool,
}

/// Main input mode of a join stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MainInput {
    /// Synchronous index scan between the fact source and `dims[main]`'s
    /// index (both keyed on the join attribute).
    SyncScan { main: usize },
    /// Fused select-join: stream `dims[main]`'s selection from its base
    /// index and point-probe the fact source (batched).
    SelectProbe { main: usize },
}

/// Where a join stage writes its output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StageOutput {
    /// An intermediate table keyed on `dims[next].fact_col`.
    Inter { next: usize },
    /// The final aggregating index (join-group).
    Agg,
}

/// One composed join stage.
#[derive(Debug, Clone)]
pub struct JoinStage {
    pub main: MainInput,
    /// Assisting dimensions (probed through the join buffer).
    pub assisting: Vec<usize>,
    pub output: StageOutput,
    /// Layout of the incoming fact-tuple stream.
    pub input_layout: Layout,
    /// Input layout + carried columns of all dims joined in this stage.
    pub work_layout: Layout,
    /// Projection from work layout onto the output layout
    /// (`Inter` outputs only).
    pub output_projection: Vec<usize>,
    /// Output layout (`Inter` outputs only).
    pub output_layout: Layout,
    /// Work-layout position of the output key (`Inter` outputs only).
    pub output_key_pos: usize,
    /// Fact residual predicates, rewritten to work-layout positions
    /// (non-empty only in the first stage with `select_join`).
    pub residuals: Vec<CompiledPred>,
    /// Number of tables this composed operator touches (for display).
    pub ways: usize,
}

/// A fully resolved aggregate expression over work-layout positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedAgg {
    Col(usize),
    Mul(usize, usize),
    Sub(usize, usize),
}

impl ResolvedAgg {
    /// Evaluates against a work row.
    #[inline]
    pub fn eval(&self, row: &[u64]) -> i64 {
        match *self {
            ResolvedAgg::Col(a) => row[a] as i64,
            ResolvedAgg::Mul(a, b) => row[a] as i64 * row[b] as i64,
            ResolvedAgg::Sub(a, b) => row[a] as i64 - row[b] as i64,
        }
    }
}

/// Group-by key construction info.
#[derive(Debug, Clone)]
pub struct GroupKey {
    /// Work-layout positions of the group columns (in `group_by` order)
    /// within the **final stage's** work layout.
    pub positions: Vec<usize>,
    /// The key format: one part per group column, most significant first.
    pub packer: KeyPacker,
    /// For decoding: (dim spec idx, carried col name) per part.
    pub sources: Vec<(usize, String)>,
}

impl GroupKey {
    /// Packs the group columns of a work row into the aggregation key.
    #[inline]
    pub fn pack(&self, row: &[u64]) -> u64 {
        self.packer
            .pack_fitting(self.positions.iter().map(|&pos| row[pos]))
    }
}

/// The physical plan.
#[derive(Debug)]
pub struct Plan {
    pub spec: QuerySpec,
    pub opts: PlanOptions,
    pub dims: Vec<ResolvedDim>,
    /// Whether a separate fact selection materializes first (Fig. 8's
    /// "without select-join" configuration for queries with fact residuals).
    pub fact_select: Option<FactSelect>,
    pub stages: Vec<JoinStage>,
    /// Fact columns the stage-1 stream needs, in layout order.
    pub fact_layout: Layout,
    /// Group key construction (empty positions = scalar aggregate).
    pub group_key: GroupKey,
    /// Aggregates resolved against the final stage's work layout.
    pub aggs: Vec<ResolvedAgg>,
}

/// The materialized fact selection of the non-fused Q1.x plan.
#[derive(Debug, Clone)]
pub struct FactSelect {
    /// Residual predicates, rebased to fact-layout positions.
    pub preds: Vec<CompiledPred>,
}

impl Plan {
    /// Human-readable plan rendering (the demonstrator's plan view).
    pub fn explain(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let dim_names: Vec<String> = self.dims.iter().map(|d| d.table.clone()).collect();
        let _ = writeln!(
            s,
            "QPPT plan for {} (select_join={}, join_buffer={}, max_ways={}, kiss={})",
            self.spec.id,
            self.opts.select_join,
            self.opts.join_buffer,
            self.opts.max_join_ways,
            self.opts.prefer_kiss
        );
        for d in &self.dims {
            let what = match d.handle {
                DimHandleKind::Base => format!("base index on {}.{}", d.table, d.join_col_name),
                DimHandleKind::Materialized => format!(
                    "σ({}){} → intermediate index on {}.{} carrying {:?}",
                    d.pred_cols.join(","),
                    if d.multidim {
                        " via multidim index"
                    } else {
                        ""
                    },
                    d.table,
                    d.join_col_name,
                    d.carried_names
                ),
                DimHandleKind::Fused => {
                    format!("σ({}) fused into join (select-join)", d.pred_cols.join(","))
                }
            };
            let _ = writeln!(s, "  dim {}: {}", d.table, what);
        }
        if let Some(fs) = &self.fact_select {
            let _ = writeln!(
                s,
                "  fact selection: materialize {} residual predicate(s) into intermediate index on {}",
                fs.preds.len(),
                self.dims[0].fact_col_name
            );
        }
        for (i, st) in self.stages.iter().enumerate() {
            let main = match st.main {
                MainInput::SyncScan { main } => {
                    format!("sync-scan ⋈ {}", self.dims[main].table)
                }
                MainInput::SelectProbe { main } => {
                    format!("select-probe({}) → fact index", self.dims[main].table)
                }
            };
            let assist: Vec<&str> = st
                .assisting
                .iter()
                .map(|&a| self.dims[a].table.as_str())
                .collect();
            let out = match &st.output {
                StageOutput::Inter { next } => format!(
                    "intermediate index on {} {}",
                    self.dims[*next].fact_col_name,
                    st.output_layout.describe(&dim_names)
                ),
                StageOutput::Agg => "aggregating index (join-group)".to_string(),
            };
            let _ = writeln!(
                s,
                "  stage {}: {}-way star join [{}; assisting: {:?}] → {}",
                i + 1,
                st.ways,
                main,
                assist,
                out
            );
        }
        s
    }
}

/// Every index definition the query needs under the given options, computed
/// once so every builder ([`prepare_indexes`], `qppt_par`'s pooled one) and
/// the serving-time validation agree on the set: the fact index on the first
/// FK carrying the stream columns, one selection index per dimension,
/// per-predicate rid-set indexes for `selection_via_set_ops`, and
/// multidimensional indexes over the predicate columns of
/// `multidim_selections` conjunctions of the right shape.
pub fn planned_indexes(
    db: &Database,
    spec: &QuerySpec,
    opts: &PlanOptions,
) -> Result<Vec<IndexDef>, QpptError> {
    let mut planned = Vec::new();
    // Fact index on the first dimension's FK, carrying everything the
    // stream needs (partially clustered, §3).
    let first = spec
        .dims
        .first()
        .ok_or_else(|| QpptError::Unsupported("star queries need at least one dimension".into()))?;
    let needed = needed_fact_columns(spec);
    let carried: Vec<&str> = needed
        .iter()
        .filter(|c| **c != first.fact_col)
        .map(String::as_str)
        .collect();
    planned.push(IndexDef::new(&spec.fact, &first.fact_col, &carried));

    for d in &spec.dims {
        let carried: Vec<String> = dim_index_carried(d);
        let carried_refs: Vec<&str> = carried.iter().map(String::as_str).collect();
        if let Some(p) = d.predicates.first() {
            planned.push(IndexDef::new(&d.table, p.column(), &carried_refs));
        } else {
            // No predicates: join through the base index on the join column.
            let c: Vec<&str> = d.carried.iter().map(String::as_str).collect();
            planned.push(IndexDef::new(&d.table, &d.join_col, &c));
        }
        if opts.selection_via_set_ops && d.predicates.len() >= 2 {
            for p in &d.predicates {
                planned.push(IndexDef::new(&d.table, p.column(), &[]));
            }
        }
        if opts.multidim_selections && d.predicates.len() >= 2 {
            let t = db.table(&d.table)?.table();
            let preds: Vec<CompiledPred> = d
                .predicates
                .iter()
                .map(|p| compile_predicate(t, p))
                .collect::<Result<_, StorageError>>()?;
            if multidim_shape(&preds) {
                let mut carried: Vec<String> = vec![d.join_col.clone()];
                carried.extend(d.carried.iter().cloned());
                planned.push(IndexDef {
                    table: d.table.clone(),
                    keys: d.predicates.iter().map(|p| p.column().into()).collect(),
                    carried,
                });
            }
        }
    }
    Ok(planned)
}

/// Creates (or widens) every base index the plan needs — "indexes are
/// created once and remain in the data pool for future queries" (§3).
pub fn prepare_indexes(
    db: &mut Database,
    spec: &QuerySpec,
    opts: &PlanOptions,
) -> Result<(), QpptError> {
    prepare_indexes_with(db, spec, opts, &stable_key_order)
}

/// [`prepare_indexes`] with the sort of each index build supplied by the
/// caller (see [`Database::create_index_with`]).
pub fn prepare_indexes_with(
    db: &mut Database,
    spec: &QuerySpec,
    opts: &PlanOptions,
    sort: &dyn Fn(&[u64]) -> Vec<u32>,
) -> Result<(), QpptError> {
    db.prefer_kiss = opts.prefer_kiss;
    for def in &planned_indexes(db, spec, opts)? {
        db.create_index_with(def, sort)?;
    }
    Ok(())
}

/// Columns of the fact table the plan reads: all FK columns, aggregate
/// inputs, and residual predicate columns.
pub fn needed_fact_columns(spec: &QuerySpec) -> Vec<String> {
    let mut cols: Vec<String> = spec.dims.iter().map(|d| d.fact_col.clone()).collect();
    cols.extend(spec.agg_input_columns());
    for p in &spec.fact_predicates {
        cols.push(p.column().to_string());
    }
    cols.sort();
    cols.dedup();
    cols
}

/// What a dimension's selection index must carry: the join column, the
/// residual predicate columns, and the downstream carried columns.
fn dim_index_carried(d: &qppt_storage::DimSpec) -> Vec<String> {
    let mut cols = vec![d.join_col.clone()];
    for p in d.predicates.iter().skip(1) {
        cols.push(p.column().to_string());
    }
    cols.extend(d.carried.iter().cloned());
    cols.sort();
    cols.dedup();
    // Keep join_col first for readability (order is irrelevant to lookups).
    cols
}

/// Builds the physical plan. Starts with
/// [`validate_spec`](crate::validate::validate_spec), so a malformed
/// user-supplied spec gets a typed [`PlanError`](crate::validate::PlanError)
/// instead of driving the layout/type resolution below into a panic.
pub fn build_plan(db: &Database, spec: &QuerySpec, opts: &PlanOptions) -> Result<Plan, QpptError> {
    opts.validate()?;
    crate::validate::validate_spec(db, spec)?;
    // Resolve dimensions.
    let mut dims = Vec::with_capacity(spec.dims.len());
    for (i, d) in spec.dims.iter().enumerate() {
        let mvt = db.table(&d.table)?;
        let t = mvt.table();
        let join_col = t.schema().col(&d.join_col)?;
        let preds: Vec<CompiledPred> = d
            .predicates
            .iter()
            .map(|p| compile_predicate(t, p))
            .collect::<Result<_, StorageError>>()?;
        let handle = if d.predicates.is_empty() {
            DimHandleKind::Base
        } else if i == 0 && opts.select_join {
            DimHandleKind::Fused
        } else {
            DimHandleKind::Materialized
        };
        let stats = t.stats(join_col);
        let multidim = opts.multidim_selections && multidim_shape(&preds);
        dims.push(ResolvedDim {
            spec_idx: i,
            table: d.table.clone(),
            join_col_name: d.join_col.clone(),
            fact_col_name: d.fact_col.clone(),
            preds,
            pred_cols: d
                .predicates
                .iter()
                .map(|p| p.column().to_string())
                .collect(),
            carried_names: d.carried.clone(),
            handle,
            join_key_max: if stats.min > stats.max { 0 } else { stats.max },
            multidim,
        });
    }

    // Stage-1 input layout: fact columns that any stage or aggregate needs.
    let mut fact_layout = Layout::new();
    for c in needed_fact_columns(spec) {
        fact_layout.add(Src::Fact, &c);
    }

    // Fact selection (Fig. 8's non-fused configuration). Its predicates are
    // rebased to fact-layout positions, since the selection reads the fact
    // base index payload, not table rows.
    let fact_t = db.table(&spec.fact)?.table();
    let fact_select = if !spec.fact_predicates.is_empty() && !opts.select_join {
        let preds = spec
            .fact_predicates
            .iter()
            .map(|p| {
                let compiled = compile_predicate(fact_t, p)?;
                Ok(rebase_pred(compiled, &fact_layout, p.column()))
            })
            .collect::<Result<_, StorageError>>()?;
        Some(FactSelect { preds })
    } else {
        None
    };

    // Stage split: stage 1 = fact + main dim + (w-2) assisting;
    // later stages = stream + main + (w-2) assisting.
    let w = opts.max_join_ways;
    let n = dims.len();
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new(); // (main, assisting)
    let mut next = 0usize;
    while next < n {
        let main = next;
        let take = (w - 1).min(n - main) - 1; // assisting count this stage
        let assisting: Vec<usize> = (main + 1..main + 1 + take).collect();
        next = main + 1 + take;
        groups.push((main, assisting));
    }

    // Build stages with layout propagation.
    let mut stages: Vec<JoinStage> = Vec::new();
    let mut input_layout = fact_layout.clone();
    for (gi, (main, assisting)) in groups.iter().enumerate() {
        let is_last = gi == groups.len() - 1;
        let mut work_layout = input_layout.clone();
        for &d in std::iter::once(main).chain(assisting.iter()) {
            for c in &dims[d].carried_names {
                work_layout.add(Src::Dim(d), c);
            }
        }
        // Residuals apply in stage 1 iff no separate fact selection ran.
        let residuals = if gi == 0 && fact_select.is_none() && !spec.fact_predicates.is_empty() {
            spec.fact_predicates
                .iter()
                .map(|p| {
                    let compiled = compile_predicate(fact_t, p)?;
                    Ok(rebase_pred(compiled, &fact_layout, p.column()))
                })
                .collect::<Result<Vec<_>, StorageError>>()?
        } else {
            Vec::new()
        };

        let main_input = if gi == 0 && dims[*main].handle == DimHandleKind::Fused {
            MainInput::SelectProbe { main: *main }
        } else {
            MainInput::SyncScan { main: *main }
        };

        let (output, output_layout, output_projection, output_key_pos) = if is_last {
            (StageOutput::Agg, Layout::new(), Vec::new(), 0)
        } else {
            let next_dim = groups[gi + 1].0;
            let key_name = dims[next_dim].fact_col_name.clone();
            let key_pos = work_layout.find(Src::Fact, &key_name).ok_or_else(|| {
                QpptError::Internal(format!(
                    "stage {gi} layout lost the next join key {key_name}"
                ))
            })?;
            // Output keeps: fact cols needed by later stages/aggregates
            // (minus the consumed keys) and all dim carried cols so far.
            let consumed: Vec<String> = std::iter::once(*main)
                .chain(assisting.iter().copied())
                .map(|d| dims[d].fact_col_name.clone())
                .chain(std::iter::once(key_name.clone()))
                .collect();
            let mut out = Layout::new();
            let mut proj = Vec::new();
            for (src, name) in work_layout.columns() {
                let keep = match src {
                    Src::Fact => !consumed.contains(name) || is_agg_input(spec, name),
                    Src::Dim(_) => true,
                };
                if keep {
                    out.add(*src, name);
                    proj.push(work_layout.expect(*src, name));
                }
            }
            (StageOutput::Inter { next: next_dim }, out, proj, key_pos)
        };

        let ways = 1 + 1 + assisting.len(); // stream/fact + main + assisting
        stages.push(JoinStage {
            main: main_input,
            assisting: assisting.clone(),
            output,
            input_layout: input_layout.clone(),
            work_layout: work_layout.clone(),
            output_projection,
            output_layout: output_layout.clone(),
            output_key_pos,
            residuals,
            ways,
        });
        input_layout = output_layout;
    }

    // Group key over the final work layout.
    let final_work = &stages.last().expect("at least one stage").work_layout;
    let mut positions = Vec::new();
    let mut widths = Vec::new();
    let mut sources = Vec::new();
    for g in &spec.group_by {
        let (di, d) = spec
            .dims
            .iter()
            .enumerate()
            .find(|(_, d)| d.table == g.table)
            .ok_or_else(|| StorageError::UnknownTable(g.table.clone()))?;
        let t = db.table(&d.table)?.table();
        let col = t.schema().col(&g.column)?;
        let max_code = match t.schema().column(col).ty {
            ColumnType::Str => t
                .dict(col)
                .map_or(0, |dd| dd.len().saturating_sub(1) as u64),
            ColumnType::Int => {
                let s = t.stats(col);
                if s.min > s.max {
                    0
                } else {
                    s.max
                }
            }
        };
        let pos = final_work.find(Src::Dim(di), &g.column).ok_or_else(|| {
            crate::validate::PlanError::GroupColumnNotCarried {
                table: g.table.clone(),
                column: g.column.clone(),
            }
        })?;
        positions.push(pos);
        widths.push(key_bits(max_code));
        sources.push((di, g.column.clone()));
    }
    let packer = KeyPacker::new(&widths).map_err(|e| match e {
        KeyPackError::TooWide { total_bits } => QpptError::GroupKeyTooWide { bits: total_bits },
        other => QpptError::Internal(other.to_string()),
    })?;
    let group_key = GroupKey {
        positions,
        packer,
        sources,
    };

    // Aggregates over the final work layout (fact columns).
    let aggs = spec
        .aggregates
        .iter()
        .map(|a| {
            let pos = |c: &str| {
                final_work.find(Src::Fact, c).ok_or_else(|| {
                    QpptError::Internal(format!("final layout lost aggregate input {c}"))
                })
            };
            Ok(match &a.expr {
                qppt_storage::Expr::Col(c) => ResolvedAgg::Col(pos(c)?),
                qppt_storage::Expr::Mul(a, b) => ResolvedAgg::Mul(pos(a)?, pos(b)?),
                qppt_storage::Expr::Sub(a, b) => ResolvedAgg::Sub(pos(a)?, pos(b)?),
            })
        })
        .collect::<Result<Vec<_>, QpptError>>()?;

    Ok(Plan {
        spec: spec.clone(),
        opts: *opts,
        dims,
        fact_select,
        stages,
        fact_layout,
        group_key,
        aggs,
    })
}

/// The predicate *shape* a multidimensional index answers as one key range
/// (the composite-prefix rule): ≥2 predicates, every one a `Range`, all but
/// the last a point (`lo == hi`). Whether the constants fit the index's key
/// parts is the index's own business at scan time.
fn multidim_shape(preds: &[CompiledPred]) -> bool {
    let Some((last, leading)) = preds.split_last() else {
        return false;
    };
    !leading.is_empty()
        && matches!(last, CompiledPred::Range { .. })
        && leading
            .iter()
            .all(|p| matches!(p, CompiledPred::Range { lo, hi, .. } if lo == hi))
}

/// `true` if `col` feeds an aggregate (such fact columns survive key
/// consumption).
fn is_agg_input(spec: &QuerySpec, col: &str) -> bool {
    spec.aggregates
        .iter()
        .any(|a| a.expr.columns().contains(&col))
}

/// Rewrites a fact-table predicate to address a layout position instead of
/// a table column.
fn rebase_pred(p: CompiledPred, layout: &Layout, col_name: &str) -> CompiledPred {
    let pos = layout.expect(Src::Fact, col_name);
    match p {
        CompiledPred::Range { lo, hi, .. } => CompiledPred::Range { col: pos, lo, hi },
        CompiledPred::InSet { codes, .. } => CompiledPred::InSet { col: pos, codes },
        CompiledPred::Never => CompiledPred::Never,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_key_packs_its_positions_in_order() {
        let gk = GroupKey {
            positions: vec![2, 0],
            packer: KeyPacker::new(&[11, 10]).unwrap(),
            sources: vec![(0, "a".into()), (1, "b".into())],
        };
        let key = gk.pack(&[513, 7, 1997]);
        assert_eq!(gk.packer.unpack(key), vec![1997, 513]);
        assert!(gk.pack(&[200, 0, 1]) < gk.pack(&[0, 0, 2]));
    }

    #[test]
    fn multidim_shape_is_points_then_one_range() {
        let r = |lo, hi| CompiledPred::Range { col: 0, lo, hi };
        assert!(multidim_shape(&[r(6, 6), r(1994, 1994)]));
        assert!(multidim_shape(&[r(6, 6), r(3, 3), r(0, u64::MAX)]));
        assert!(!multidim_shape(&[r(6, 6)]));
        assert!(!multidim_shape(&[r(1, 6), r(1994, 1994)]));
        assert!(!multidim_shape(&[r(6, 6), CompiledPred::Never]));
        let set = CompiledPred::InSet {
            col: 0,
            codes: vec![1, 2],
        };
        assert!(!multidim_shape(&[set.clone(), r(1, 2)]));
        assert!(!multidim_shape(&[r(6, 6), set]));
    }

    #[test]
    fn resolved_agg_eval() {
        let row = vec![10u64, 3u64];
        assert_eq!(ResolvedAgg::Col(0).eval(&row), 10);
        assert_eq!(ResolvedAgg::Mul(0, 1).eval(&row), 30);
        assert_eq!(ResolvedAgg::Sub(1, 0).eval(&row), -7);
    }
}
