//! The QPPT executor: interprets a [`Plan`] over a [`Database`] snapshot.
//!
//! Execution follows the indexed table-at-a-time contract: every operator
//! consumes whole indexes and produces exactly one output index, so the
//! number of inter-operator calls is "exactly one" per edge (§1). The join
//! kernels are the synchronous index scan (§4.2) and the batched
//! select-probe of the fused select-join (§4.3).
//!
//! Execution is split into three phases so the morsel-driven parallel
//! subsystem (`qppt-par`) can re-compose them:
//!
//! 1. [`materialize_dim`] — dimension selections (σ), independent of each
//!    other and of the fact stream; parallelizable one task per dimension.
//! 2. [`Pipeline`] — the fact-side pipeline (optional fact selection, then
//!    all composed join stages into the aggregating index).
//!    [`Pipeline::new`] resolves, once per participant, everything no
//!    morsel changes; [`Pipeline::run`] restricts the stage-1 fact access
//!    to a [`KeyRange`] morsel, which partitions the whole pipeline by the
//!    first join key.
//! 3. [`decode_result`] — decoding the query's finished aggregation, a
//!    [`GroupRun`] (a participant's table, or the merge of several), into
//!    the shared result format.
//!
//! [`execute`] composes the three sequentially (one morsel covering the
//! whole key domain), which is the paper's single-threaded execution model.
//!
//! # The join-group
//!
//! A composed join stage streams the candidates of its main join — the
//! cross product of a key's fact tuples and dimension tuples — into the
//! **join buffer** and, every `join_buffer` candidates, flushes it through
//! the stage's *assisting* dimensions into its sink (§2.3, §4.2).
//!
//! The assisting dimensions come in two groups, split once per stage by
//! [`Pipeline::new`]:
//! - **filters**: dimension selections σ built as §2.1's one-level tree, a
//!   [`DenseIndex`] ([`materialize_dim`] builds every σ whose join keys are
//!   unique and compact that way). Testing a key is one load, so the
//!   stage's scan tests every filter before it buffers a row (see below),
//!   and a row a filter rejects never enters the join buffer. Q4.1's
//!   supplier σ rejects 4 in 5 of the rows its customer σ lets through.
//! - **tree assists**: base indexes and sparse σs, which the flush probes.
//!
//! A buffered candidate is a reference, not a copy: the id of its source
//! row in the stage's input payload — the fact base index's for stage 1,
//! the input intermediate's for a later stage — plus a work row holding
//! only what no source row holds: the stage key in its slot and the main
//! dimension's carried values. A tree assist may still reject most
//! candidates, so copying each whole would be wasted on them.
//!
//! The flush is a selection-vector pipeline with one body for every plan
//! and every stage input: a vector of surviving row ordinals starts as the
//! whole block; each tree assist, in plan order, is probed only by the
//! survivors of the previous one — reading its probe column from the
//! source row — writes its carried values into their work rows in place
//! and compacts the vector. A tree assist's probe is batched over the
//! whole vector and branch-free: gather the keys, look them up as content
//! handles ([`TreeIndex::get_handles`]; two dependent loads per key in a
//! KISS-Tree), keep the hits, and only for those find the visible
//! version. On a cache-resident dimension that beats both the scalar and
//! the prefetching lookup. Then each filter that carries values fills them
//! into the survivors' work rows: one load for the key's σ row, and a
//! copy of it; a filter with no carried columns costs the flush nothing.
//! Only the survivors then get their input fields copied from their
//! source rows, and the sink walks them in buffer order — inserting into
//! the next stage's input index, or upserting run-length into the
//! aggregating index, one descent per run of equal group keys. Per fact
//! tuple the work is one test of the first filter plus one of each later
//! filter and tree assist *the tuple reaches*, not one per assist. A row
//! survives iff every assisting dimension holds its key, and each
//! dimension writes its own slots, so the split changes no result. The
//! buffer, the vector and every other scratch of the flush live in the
//! [`Pipeline`] and are reused across flushes, stages and morsels.
//!
//! # One scan loop
//!
//! The loops that feed the join buffer — the fact selection, the
//! synchronous scan of stage 1's fact base index or of a later stage's
//! intermediate, and the select-probe of stage 1 — each have one body that
//! takes one tuple at a time. It checks visibility, each residual and then
//! each of the stage's filters in plan order straight off the payload row,
//! through the stage's field map — one check, `StageInput::passes` —
//! and buffers the row's id; the fact selection, which has no filters,
//! inserts only the rows that pass. The batching of §2.3 is the join
//! buffer itself, the flush's handle lookups into the tree assists, and
//! the select-probe's prefetching batched lookups into the fact index —
//! which is larger than the caches, so its prefetch rounds still pay
//! there.
//!
//! # Reading payload rows
//!
//! Those loops read the payload rows their index hands out ids for. A
//! stage matches its input's lane width once ([`Lanes`]), and its scan and
//! every flush run a body instantiated for it, so no field read branches
//! on the width. The scans walk a key's ids segment by segment through
//! [`Rows::for_each_row_of`], which prefetches the row a few ids ahead
//! (§2.3's software prefetching, applied to payload rows): a base index's
//! rows appended after its build, like an intermediate's rows, are not in
//! key order, and each would otherwise be a cache miss. The flush reads
//! the same rows again by id, at most `join_buffer` candidates later, while
//! they are still in cache.

use std::sync::Arc;
use std::time::Instant;

use qppt_storage::{
    sync_scan_indexes, sync_scan_indexes_range, BaseIndex, CompiledPred, Database, DenseIndex,
    IndexedTable, Lane, Lanes, MvccTable, PayloadBuf, ProbeScratch, QueryResult, Row, Rows,
    Snapshot, StorageError, TreeIndex, Value, Values,
};

use crate::inter::{AggTable, GroupRun, InterTable};
use crate::layout::{Layout, Src};
use crate::options::PlanOptions;
use crate::plan::{
    DimHandleKind, FactSelect, JoinStage, MainInput, Plan, ResolvedDim, StageOutput,
};
use crate::stats::{ExecStats, OpStats};
use crate::{PartialAggregate, QpptError};

/// Runs `$body` with `$rows` bound to the [`Rows`] of a payload buffer at
/// its current lane width: one instantiation of the body per width.
macro_rules! with_lanes {
    ($payload:expr, $rows:ident => $body:expr) => {
        match $payload.lanes() {
            Lanes::U32($rows) => $body,
            Lanes::U64($rows) => $body,
        }
    };
}

/// Adds `$n` to the unit tests' exact-work counter `$counter` ([`work`]);
/// compiles to nothing outside the tests.
macro_rules! count {
    ($counter:ident, $n:expr) => {
        #[cfg(test)]
        work::add(&work::$counter, $n);
    };
}

/// The unit tests' exact-work counters, per thread (a pipeline runs on
/// its caller's thread).
#[cfg(test)]
mod work {
    use std::cell::Cell;
    use std::thread::LocalKey;

    thread_local! {
        /// Assist probes: a filter test in the scan, or a surviving row's
        /// lookup in a tree assist in the flush.
        pub(super) static PROBES: Cell<usize> = const { Cell::new(0) };
        /// Rows that entered the join buffer.
        pub(super) static BUFFERED: Cell<usize> = const { Cell::new(0) };
        /// Buffered rows whose input fields were copied (the survivors).
        pub(super) static MATERIALIZED: Cell<usize> = const { Cell::new(0) };
    }

    pub(super) fn add(counter: &'static LocalKey<Cell<usize>>, n: usize) {
        counter.with(|c| c.set(c.get() + n));
    }

    /// Reads and zeroes a counter.
    pub(super) fn take(counter: &'static LocalKey<Cell<usize>>) -> usize {
        counter.with(|c| c.replace(0))
    }
}

/// Inclusive key range restricting the stage-1 fact access — one *morsel*
/// of the executor. Keys are codes of the first dimension's fact column (the
/// stage-1 join attribute); restricting the fact scan to `[lo, hi]`
/// restricts every downstream stage to the tuples deriving from those fact
/// rows. Sequential execution is the one morsel [`KeyRange::full`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyRange {
    /// Inclusive lower bound.
    pub lo: u64,
    /// Inclusive upper bound.
    pub hi: u64,
}

impl KeyRange {
    /// The whole key domain (no restriction).
    pub fn full() -> Self {
        Self {
            lo: 0,
            hi: u64::MAX,
        }
    }

    /// `true` if `key` lies inside the range.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.lo <= key && key <= self.hi
    }
}

/// Materializes one dimension selection (a σ operator of Fig. 5) into an
/// intermediate indexed table keyed on the join attribute. Returns `None`
/// for dimensions that are not [`DimHandleKind::Materialized`] (base-index
/// and fused handles have no materialization step).
///
/// The selection's tuples are staged and sorted by join key first, so the
/// payload rows lie in key order and the index is chosen knowing every key
/// ([`TreeIndex::for_selection`]): unique keys of a compact range — every
/// σ of the 13 SSB queries — become a one-level dense index, which the
/// join stages test in their scans (see the module docs); any other key
/// set becomes the tree [`TreeIndex::for_domain`] picks.
///
/// Dimension selections read only base indexes and are independent of each
/// other, so the parallel executor runs one such task per dimension.
pub fn materialize_dim(
    db: &Database,
    snap: Snapshot,
    plan: &Plan,
    dim_idx: usize,
) -> Result<Option<(InterTable, OpStats)>, QpptError> {
    let dim = &plan.dims[dim_idx];
    if dim.handle != DimHandleKind::Materialized {
        return Ok(None);
    }
    let t0 = Instant::now();
    let mut layout = Layout::new();
    for c in &dim.carried_names {
        layout.add(Src::Dim(dim.spec_idx), c);
    }
    let (keys, carried) = staged_selection(db, snap, &plan.opts, dim)?;
    let stride = dim.carried_names.len();
    let mut payload = PayloadBuf::with_capacity(stride, keys.len());
    for i in 0..keys.len() {
        payload.push(carried[i * stride..(i + 1) * stride].iter().copied());
    }
    let index = TreeIndex::for_selection(&keys, dim.join_key_max, plan.opts.prefer_kiss);
    let out = InterTable {
        key_name: dim.join_col_name.clone(),
        layout,
        data: IndexedTable { index, payload },
    };
    let stats = OpStats {
        label: format!("σ({}) → idx on {}", dim.table, dim.join_col_name),
        out_keys: out.key_count(),
        out_tuples: out.tuple_count(),
        index_kind: out.data.index.kind_name().to_string(),
        memory_bytes: out.memory_bytes(),
        micros: t0.elapsed().as_micros(),
    };
    Ok(Some((out, stats)))
}

/// One materialized dimension selection σ as an independently shareable
/// artifact: the intermediate `InterTable` plus the build-time operator
/// statistics (replayed into every execution that reuses the selection, so
/// operator lists keep their shape).
///
/// This is the unit the `qppt-cache` **dimension tier** stores: keyed by
/// [`fingerprint_dim`](crate::fingerprint::fingerprint_dim) + table
/// version, one entry is shared (via `Arc`) by every query — and every
/// concurrent execution — whose plan contains the same σ. The table is
/// read-only after construction; an `Arc` clone held by an executing query
/// keeps the data alive whatever the cache decides to evict.
#[derive(Debug)]
pub struct DimSelection {
    /// The materialized selection, keyed on the join attribute.
    pub table: InterTable,
    /// Build-time statistics of the materialization.
    pub op: OpStats,
}

impl DimSelection {
    /// Resident bytes of the materialized table (cache byte accounting).
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.table.memory_bytes() + self.op.label.len()
    }
}

/// [`materialize_dim`] wrapped into the shareable [`DimSelection`] form —
/// the constructor used by every execution path and by the cache's
/// dimension tier on a miss.
pub fn materialize_dim_selection(
    db: &Database,
    snap: Snapshot,
    plan: &Plan,
    dim_idx: usize,
) -> Result<Option<Arc<DimSelection>>, QpptError> {
    Ok(materialize_dim(db, snap, plan, dim_idx)?
        .map(|(table, op)| Arc::new(DimSelection { table, op })))
}

/// A pre-materialized fused (select-join) dimension selection: the
/// `(join key, carried values)` tuples `scan_dim_selection` would yield for
/// the stage-1 `SelectProbe` dimension, **sorted by join key**.
///
/// The parallel executor builds this **once** and shares it read-only
/// across morsel workers, so the selection predicates are evaluated once
/// per query instead of once per morsel; sorting lets each worker
/// binary-search its [`KeyRange`] slice, making per-morsel work
/// proportional to the morsel's population rather than the whole
/// selection. Sequential execution does not need it (the inline scan runs
/// exactly once anyway).
#[derive(Debug)]
pub struct FusedSelection {
    /// Join keys, ascending (duplicates keep scan order).
    keys: Vec<u64>,
    /// `stride` carried values per key, parallel to `keys`.
    carried: Vec<u64>,
    stride: usize,
}

impl FusedSelection {
    /// The index range of keys within `[range.lo, range.hi]`.
    fn slice(&self, range: KeyRange) -> std::ops::Range<usize> {
        let lo = self.keys.partition_point(|&k| k < range.lo);
        let hi = self.keys.partition_point(|&k| k <= range.hi);
        lo..hi
    }
}

/// Materializes the stage-1 fused selection stream, if the plan has one
/// (i.e. stage 1 is a [`MainInput::SelectProbe`]).
pub fn materialize_fused_selection(
    db: &Database,
    snap: Snapshot,
    plan: &Plan,
) -> Result<Option<FusedSelection>, QpptError> {
    let MainInput::SelectProbe { main } = plan.stages[0].main else {
        return Ok(None);
    };
    let dim = &plan.dims[main];
    let (keys, carried) = staged_selection(db, snap, &plan.opts, dim)?;
    Ok(Some(FusedSelection {
        keys,
        carried,
        stride: dim.carried_names.len(),
    }))
}

/// The `(join key, carried values)` tuples of a dimension selection,
/// sorted by join key: the keys ascending and, parallel to them, each
/// key's carried values. The sort is stable, so duplicate join keys keep
/// their scan order — a single-morsel run probes in the same relative
/// order as sequential.
fn staged_selection(
    db: &Database,
    snap: Snapshot,
    opts: &PlanOptions,
    dim: &ResolvedDim,
) -> Result<(Vec<u64>, Vec<u64>), QpptError> {
    let stride = dim.carried_names.len();
    let (mut scanned_keys, mut scanned_carried) = (Vec::new(), Vec::new());
    scan_dim_selection(db, snap, opts, dim, |key, c| {
        scanned_keys.push(key);
        scanned_carried.extend_from_slice(c);
    })?;
    let mut order: Vec<usize> = (0..scanned_keys.len()).collect();
    order.sort_by_key(|&i| scanned_keys[i]);
    let keys = order.iter().map(|&i| scanned_keys[i]).collect();
    let carried = order
        .iter()
        .flat_map(|&i| &scanned_carried[i * stride..(i + 1) * stride])
        .copied()
        .collect();
    Ok((keys, carried))
}

/// Creates the empty aggregating output index (join-group sink) for a plan.
/// The parallel executor gives each worker its own and merges their runs
/// with [`GroupRun::merge`].
pub fn new_agg_table(plan: &Plan) -> AggTable {
    let naggs = plan.aggs.len().max(1);
    AggTable::new(
        TreeIndex::for_domain(plan.group_key.packer.max_key(), plan.opts.prefer_kiss),
        naggs,
    )
}

/// The fact-side pipeline of one participant: the optional materialized
/// fact selection (Fig. 8's non-fused plan) followed by every composed join
/// stage, aggregating into the caller's [`AggTable`].
///
/// [`new`](Self::new) resolves everything that does not depend on the
/// morsel — the stage-1 fact index and its field map, each later stage's
/// identity field map, every dimension's runtime access and fill
/// positions, the operator labels — and owns the join buffer (row ids and
/// partial work rows, see the module docs) and probe scratch;
/// [`run`](Self::run) then executes one
/// [`KeyRange`] morsel over that state. A worker builds one `Pipeline` and
/// runs every morsel it claims through it; sequential execution is the one
/// morsel [`KeyRange::full`].
///
/// A morsel costs its scan: what a run adds to the operator records is
/// bounded by the subtrees it visits, never by the key domain. An
/// intermediate stage's record folds in its output's sizes, which are
/// O(1) to read for both tree structures; the join-group's record takes
/// only the run's time and its sink's structure — its sizes are written
/// once per query, from the finished aggregation, by [`record_join_group`].
///
/// `dim_tables` holds the materialized dimension selections, one slot per
/// plan dimension (`None` for base/fused handles) — `Arc` handles shared
/// read-only across participants, executions, and (through the cache's
/// dimension tier) entire queries. `fused` optionally supplies a
/// pre-materialized stage-1 selection stream (see [`FusedSelection`]); with
/// `None`, a `SelectProbe` stage scans the selection itself.
pub struct Pipeline<'a> {
    db: &'a Database,
    snap: Snapshot,
    plan: &'a Plan,
    fused: Option<&'a FusedSelection>,
    /// The fact base index on the stage-1 join column.
    fact_base: &'a BaseIndex,
    /// How each stage-1 input field is read from a fact payload row.
    fact_field_map: Vec<FieldSrc>,
    /// The fact table, when `snap` hides some of its versions.
    fact_vis: Option<&'a MvccTable>,
    /// Key domain of the fact-selection index (stage-1 join column).
    fact_key_max: u64,
    /// One entry per `plan.stages`.
    stages: Vec<StageCtx<'a>>,
    scratch: JoinScratch,
    /// One record per operator (fact selection first if present, then one
    /// per stage), accumulated over every morsel run; the join-group's
    /// accumulates time only.
    ops: Vec<OpStats>,
}

/// What a join stage needs at run time that no morsel changes.
struct StageCtx<'a> {
    /// The tree-indexed assisting dimensions — base indexes and sparse σs —
    /// in plan order, probed by the flush.
    assists: Vec<AssistRt<'a>>,
    /// The dense σs among the assisting dimensions, in plan order, tested
    /// by the scan.
    filters: Vec<Filter<'a>>,
    main_fill_pos: Vec<usize>,
    /// The main dimension's index (`SyncScan` stages; a `SelectProbe`
    /// stage streams its dimension instead).
    main_access: Option<DimAccess<'a>>,
    /// The field map of an intermediate input: its payload rows are the
    /// stage's input layout.
    identity: Vec<FieldSrc>,
    /// Key domain of an `Inter` output (the next join's fact column).
    out_key_max: u64,
}

/// Folds one morsel's run of an operator whose output is the intermediate
/// `out`, started at `t0`, into the operator's per-participant record —
/// what [`OpStats::absorb_partition`] does to one record per morsel.
fn absorb_inter(op: &mut OpStats, out: &InterTable, t0: Instant) {
    op.out_keys += out.key_count();
    op.out_tuples += out.tuple_count();
    op.memory_bytes += out.memory_bytes();
    op.micros += t0.elapsed().as_micros();
    if op.index_kind.is_empty() {
        op.index_kind.push_str(out.data.index.kind_name());
    }
}

/// Writes the join-group record's output sizes from the query's finished
/// aggregation: `out_keys` = `out_tuples` = its group count, `memory_bytes`
/// its [`GroupRun::memory_bytes`]. Called once per query — after the only
/// morsel of a sequential run, after the merge of a parallel one — and the
/// only writer of those fields: a morsel run adds only its time (and its
/// sink's `index_kind`), since a group recurs across morsels.
///
/// The join-group is the last stage by plan construction, so its record is
/// the last one in `stats`.
pub fn record_join_group(plan: &Plan, run: &GroupRun, stats: &mut ExecStats) {
    debug_assert!(matches!(
        plan.stages.last().map(|s| &s.output),
        Some(StageOutput::Agg)
    ));
    if let Some(op) = stats.ops.last_mut() {
        op.out_keys = run.len();
        op.out_tuples = run.len();
        op.memory_bytes = run.memory_bytes();
    }
}

/// Largest code of a fact column — the key domain of an index keyed on it.
fn fact_col_max(fact_mvt: &MvccTable, col_name: &str) -> Result<u64, QpptError> {
    let t = fact_mvt.table();
    let s = t.stats(t.schema().col(col_name)?);
    Ok(if s.min > s.max { 0 } else { s.max })
}

impl<'a> Pipeline<'a> {
    /// Resolves the morsel-independent state of `plan`'s fact pipeline.
    pub fn new(
        db: &'a Database,
        snap: Snapshot,
        plan: &'a Plan,
        dim_tables: &'a [Option<Arc<DimSelection>>],
        fused: Option<&'a FusedSelection>,
    ) -> Result<Self, QpptError> {
        let fact_mvt = db.table(&plan.spec.fact)?;
        let fact_key = &plan.dims[0].fact_col_name;
        let fact_base = db.find_index(&plan.spec.fact, fact_key)?;
        let fact_field_map =
            base_field_map(fact_base, &plan.spec.fact, &plan.fact_layout, fact_key)?;
        let op = |label: String| OpStats {
            label,
            out_keys: 0,
            out_tuples: 0,
            index_kind: String::new(),
            memory_bytes: 0,
            micros: 0,
        };
        let mut ops = Vec::with_capacity(plan.stages.len() + 1);
        if plan.fact_select.is_some() {
            ops.push(op(format!("σ(fact residuals) → idx on {fact_key}")));
        }
        let mut stages = Vec::with_capacity(plan.stages.len());
        for stage in &plan.stages {
            let fill_pos = |d: usize| -> Vec<usize> {
                plan.dims[d]
                    .carried_names
                    .iter()
                    .map(|c| stage.work_layout.expect(Src::Dim(d), c))
                    .collect()
            };
            let (mut assists, mut filters) = (Vec::new(), Vec::new());
            for &a in &stage.assisting {
                let access = dim_access(db, snap, &plan.dims[a], dim_tables)?;
                let probe_pos = stage
                    .work_layout
                    .expect(Src::Fact, &plan.dims[a].fact_col_name);
                let fill_pos = fill_pos(a);
                if let DimAccess::Inter {
                    it:
                        InterTable {
                            data:
                                IndexedTable {
                                    index: TreeIndex::Dense(dense),
                                    payload,
                                },
                            ..
                        },
                } = access
                {
                    filters.push(Filter {
                        dense,
                        rows: payload,
                        probe_pos,
                        fill_pos,
                    });
                } else {
                    assists.push(AssistRt {
                        access,
                        probe_pos,
                        fill_pos,
                    });
                }
            }
            let (main, main_access) = match stage.main {
                MainInput::SyncScan { main } => (
                    main,
                    Some(dim_access(db, snap, &plan.dims[main], dim_tables)?),
                ),
                MainInput::SelectProbe { main } => (main, None),
            };
            let out_key_max = match &stage.output {
                StageOutput::Agg => {
                    ops.push(op(format!("{}-way star join-group", stage.ways)));
                    0
                }
                StageOutput::Inter { next } => {
                    let key_name = &plan.dims[*next].fact_col_name;
                    ops.push(op(format!(
                        "{}-way star join → idx on {key_name}",
                        stage.ways
                    )));
                    fact_col_max(fact_mvt, key_name)?
                }
            };
            stages.push(StageCtx {
                assists,
                filters,
                main_fill_pos: fill_pos(main),
                main_access,
                identity: (0..stage.input_layout.width())
                    .map(FieldSrc::Payload)
                    .collect(),
                out_key_max,
            });
        }
        Ok(Self {
            db,
            snap,
            plan,
            fused,
            fact_base,
            fact_field_map,
            fact_vis: (!fact_mvt.fully_visible(snap)).then_some(fact_mvt),
            fact_key_max: fact_col_max(fact_mvt, fact_key)?,
            stages,
            scratch: JoinScratch::default(),
            ops,
        })
    }

    /// Runs the pipeline over one morsel, aggregating into `agg`: the
    /// stage-1 fact access — synchronous base-index scan, fused
    /// select-probe, or fact selection — is restricted to join keys in
    /// `range`, which restricts every downstream stage to the tuples
    /// deriving from those fact rows.
    pub fn run(&mut self, range: KeyRange, agg: &mut AggTable) -> Result<(), QpptError> {
        let (plan, snap) = (self.plan, self.snap);
        let fact_base = self.fact_base;
        // The stages' records follow the fact selection's, if there is one.
        let stage_ops = self.ops.len() - plan.stages.len();

        // Optional separate fact selection (the non-fused plan of Fig. 8).
        let mut stream: Option<InterTable> = None;
        if let Some(fs) = &plan.fact_select {
            let t0 = Instant::now();
            let out = self.select_fact(fs, range);
            absorb_inter(&mut self.ops[0], &out, t0);
            stream = Some(out);
        }

        // Join stages.
        for (si, (stage, ctx)) in plan.stages.iter().zip(&self.stages).enumerate() {
            let t0 = Instant::now();
            let sink = match &stage.output {
                StageOutput::Agg => StageSink::Agg(&mut *agg),
                StageOutput::Inter { next } => StageSink::Inter(InterTable::new(
                    &plan.dims[*next].fact_col_name,
                    stage.output_layout.clone(),
                    TreeIndex::for_domain(ctx.out_key_max, plan.opts.prefer_kiss),
                )),
            };
            let input = stream.take();
            debug_assert!(
                input.is_some() || si == 0,
                "only stage 1 reads the fact base index"
            );
            debug_assert!(
                matches!(stage.main, MainInput::SyncScan { .. }) || input.is_none(),
                "a select-probe probes the fact base index"
            );
            // Stage 1 scans the fact base index inside the morsel; a later
            // stage, or stage 1 after a fact selection, the intermediate
            // the previous operator built for this morsel, whole.
            let (index, payload, fields, vis, scan) = match &input {
                None => (
                    &fact_base.data.index,
                    &fact_base.data.payload,
                    &self.fact_field_map[..],
                    self.fact_vis,
                    range,
                ),
                Some(it) => (
                    &it.data.index,
                    &it.data.payload,
                    &ctx.identity[..],
                    None,
                    KeyRange::full(),
                ),
            };
            let width = stage.work_layout.width();
            let key_slot = fields.iter().position(|f| matches!(f, FieldSrc::Key));
            let (db, fused, s) = (self.db, self.fused, &mut self.scratch);
            let sink = with_lanes!(payload, rows => {
                let input = StageInput { index, rows, fields, vis };
                let cap = plan.opts.join_buffer;
                let run = StageRun { plan, stage, ctx, snap, input, key_slot, sink, s, width, cap };
                run.run(db, scan, fused)
            })?;
            let op = &mut self.ops[stage_ops + si];
            match sink {
                // Sizes are written once per query: `record_join_group`.
                StageSink::Agg(agg) => {
                    op.micros += t0.elapsed().as_micros();
                    if op.index_kind.is_empty() {
                        op.index_kind.push_str(agg.index_kind());
                    }
                }
                StageSink::Inter(out) => {
                    absorb_inter(op, &out, t0);
                    stream = Some(out);
                }
            }
        }
        Ok(())
    }

    /// Materializes the fact selection of the non-fused plan over one
    /// morsel: the fact rows of `range` that pass `fs`, indexed on the
    /// stage-1 join column. Only the rows that pass are copied.
    fn select_fact(&self, fs: &FactSelect, range: KeyRange) -> InterTable {
        let base = self.fact_base;
        let (index, fields, vis) = (&base.data.index, &self.fact_field_map[..], self.fact_vis);
        with_lanes!(base.data.payload, rows => {
            self.select_fact_in(StageInput { index, rows, fields, vis }, fs, range)
        })
    }

    /// [`select_fact`](Self::select_fact) over the fact rows at one lane
    /// width.
    fn select_fact_in<L: Lane>(
        &self,
        fact: StageInput<'_, L>,
        fs: &FactSelect,
        range: KeyRange,
    ) -> InterTable {
        let (plan, snap) = (self.plan, self.snap);
        let index = TreeIndex::for_domain(self.fact_key_max, plan.opts.prefer_kiss);
        let mut out = InterTable::new(&plan.dims[0].fact_col_name, plan.fact_layout.clone(), index);
        fact.index
            .for_each_key_range(range.lo, range.hi, |key, pids| {
                fact.rows.for_each_row_of(pids, |_, row| {
                    if fact.passes(key, row, &fs.preds, &[], snap) {
                        out.insert(key, fact.fields.iter().map(|f| f.read(key, row)));
                    }
                });
            });
        out
    }

    /// The per-operator statistics of every morsel run so far, in operator
    /// order (fact selection first if present, then one entry per stage):
    /// output sizes, memory and time are sums over the morsels, as
    /// [`OpStats::absorb_partition`] would fold one record per morsel. The
    /// join-group record (last) carries only time until
    /// [`record_join_group`] fills in its sizes.
    pub fn into_stats(self) -> Vec<OpStats> {
        self.ops
    }
}

/// Per-part decode source for the packed group key — the dimension table
/// and column position behind each `group_key.sources` entry — resolved
/// **once per decode** instead of once per output row (the name/schema
/// lookups are pure, so hoisting them never changes bytes).
pub(crate) fn group_decode_sources<'a>(
    db: &'a Database,
    plan: &Plan,
) -> Vec<(&'a qppt_storage::Table, usize)> {
    plan.group_key
        .sources
        .iter()
        .map(|(di, col)| {
            let t = db
                .table(&plan.dims[*di].table)
                .expect("dim table resolved at plan time")
                .table();
            let c = t
                .schema()
                .col(col)
                .expect("group col resolved at plan time");
            (t, c)
        })
        .collect()
}

/// Decodes the query's finished aggregation into the shared result format:
/// the shard-side serialization, [`PartialAggregate::from_agg`], rendered
/// by [`PartialAggregate::into_result`]. The run is in key order, i.e.
/// already grouped and sorted (§3); the query's ORDER BY is a stable sort
/// on top, so the result is deterministic regardless of how many
/// partitions fed `run`.
pub fn decode_result(db: &Database, plan: &Plan, run: &GroupRun) -> QueryResult {
    PartialAggregate::from_agg(db, plan, run).into_result(&plan.spec.order_by)
}

/// Runs a plan sequentially up to (and including) the aggregation, without
/// decoding it: materialize every dimension selection, run the fact
/// pipeline over the whole key domain. The undecoded [`GroupRun`] is what a
/// shard ships to the router as a partial aggregate; `total_micros` covers
/// the work done here (decode time, when it happens, is the caller's).
pub fn execute_agg(
    db: &Database,
    snap: Snapshot,
    plan: &Plan,
) -> Result<(GroupRun, ExecStats), QpptError> {
    let started = Instant::now();
    let mut stats = ExecStats::default();

    // 1. Materialize dimension selections (σ operators of Fig. 5).
    let mut dim_tables: Vec<Option<Arc<DimSelection>>> = Vec::with_capacity(plan.dims.len());
    for di in 0..plan.dims.len() {
        match materialize_dim_selection(db, snap, plan, di)? {
            Some(sel) => {
                stats.push(sel.op.clone());
                dim_tables.push(Some(sel));
            }
            None => dim_tables.push(None),
        }
    }

    // 2–3. Fact selection + join stages into the aggregating index.
    let mut agg = new_agg_table(plan);
    let mut pipeline = Pipeline::new(db, snap, plan, &dim_tables, None)?;
    pipeline.run(KeyRange::full(), &mut agg)?;
    stats.ops.extend(pipeline.into_stats());
    let run = agg.into_run();
    record_join_group(plan, &run, &mut stats);
    stats.total_micros = started.elapsed().as_micros();
    Ok((run, stats))
}

/// Runs a plan sequentially, returning the result and per-operator
/// statistics: [`execute_agg`] plus the final decode of the aggregation
/// index into the shared result format.
pub fn execute(
    db: &Database,
    snap: Snapshot,
    plan: &Plan,
) -> Result<(QueryResult, ExecStats), QpptError> {
    let started = Instant::now();
    let (run, mut stats) = execute_agg(db, snap, plan)?;
    let result = decode_result(db, plan, &run);
    stats.total_micros = started.elapsed().as_micros();
    Ok((result, stats))
}

pub(crate) fn decode_code(t: &qppt_storage::Table, col: usize, code: u64) -> Value {
    match t.schema().column(col).ty {
        qppt_storage::ColumnType::Int => Value::Int(code as i64),
        qppt_storage::ColumnType::Str => Value::Str(
            t.dict(col)
                .expect("str column has dictionary")
                .decode(code as u32)
                .to_string(),
        ),
    }
}

/// Resolves a payload column on a base index, failing with the
/// typed [`PlanError`](crate::validate::PlanError) the validate pass uses —
/// reachable only when a caller skipped
/// [`validate_indexes`](crate::validate::validate_indexes) against an
/// index set that predates the query.
fn payload_pos(pos: Option<usize>, table: &str, key: &str, col: &str) -> Result<usize, QpptError> {
    pos.ok_or_else(|| {
        QpptError::Plan(crate::validate::PlanError::IndexMissingColumn {
            table: table.to_string(),
            key: key.to_string(),
            column: col.to_string(),
        })
    })
}

/// How a stage's input field is read from the source row under a key: a
/// field map is one per input-layout column. Stage 1's over the fact base
/// index reads its join column from the key; every other field, and every
/// field of an intermediate (whose map is the identity), from the payload.
#[derive(Debug, Clone, Copy)]
enum FieldSrc {
    /// The index key itself.
    Key,
    /// Payload position (0 = rid in a base index).
    Payload(usize),
}

impl FieldSrc {
    /// The field of the source `row` filed under `key`.
    #[inline]
    fn read<L: Lane>(self, key: u64, row: &[L]) -> u64 {
        match self {
            FieldSrc::Key => key,
            FieldSrc::Payload(p) => row[p].into(),
        }
    }
}

fn base_field_map(
    bi: &BaseIndex,
    table: &str,
    layout: &Layout,
    key_name: &str,
) -> Result<Vec<FieldSrc>, QpptError> {
    layout
        .columns()
        .iter()
        .map(|(src, name)| {
            debug_assert_eq!(*src, Src::Fact);
            if name == key_name {
                Ok(FieldSrc::Key)
            } else {
                payload_pos(bi.payload_pos_by_name(name), table, key_name, name)
                    .map(FieldSrc::Payload)
            }
        })
        .collect()
}

/// A stage's input as its readers see it, at one lane width: the index the
/// main join scans or probes, its payload rows, the field map from a
/// payload row to the stage's input layout and — for the fact base index,
/// when the snapshot hides some versions — the table whose versions the
/// rows' rids name. Stage 1 reads the fact base index; a later stage, and
/// stage 1 after a fact selection, an intermediate.
#[derive(Clone, Copy)]
struct StageInput<'i, L> {
    index: &'i TreeIndex,
    rows: Rows<'i, L>,
    fields: &'i [FieldSrc],
    vis: Option<&'i MvccTable>,
}

impl<L: Lane> StageInput<'_, L> {
    /// `true` if the source `row` under `key` is visible at `snap`, passes
    /// every predicate of `preds` (over input-layout positions) and has
    /// its key in every dense σ of `filters`, in that order — each field
    /// read straight off the row, each filter one load.
    #[inline]
    fn passes(
        &self,
        key: u64,
        row: &[L],
        preds: &[CompiledPred],
        filters: &[Filter<'_>],
        snap: Snapshot,
    ) -> bool {
        if let Some(mvt) = self.vis {
            if !mvt.visible(payload_rid(row), snap) {
                return false;
            }
        }
        preds
            .iter()
            .all(|p| p.matches(|c| self.fields[c].read(key, row)))
            && filters.iter().all(|f| {
                count!(PROBES, 1);
                f.dense.handle(self.fields[f.probe_pos].read(key, row)) != 0
            })
    }
}

/// The rid of a base-index payload row (its first field).
#[inline]
fn payload_rid<L: Lane>(row: &[L]) -> u32 {
    let rid: u64 = row[0].into();
    rid as u32
}

/// Runtime access to a dimension's tuples during a join.
enum DimAccess<'a> {
    Base {
        bi: &'a BaseIndex,
        mvt: &'a MvccTable,
        carried_pos: Vec<usize>,
        /// `false` when the snapshot sees every version (no checks needed).
        check_visibility: bool,
    },
    Inter {
        it: &'a InterTable,
    },
}

impl<'a> DimAccess<'a> {
    fn index(&self) -> &'a TreeIndex {
        match self {
            DimAccess::Base { bi, .. } => &bi.data.index,
            DimAccess::Inter { it } => &it.data.index,
        }
    }

    /// Hands the carried values of `payload_id` to `put` as `(k, value)`,
    /// `k` counting the dimension's carried columns; returns `false`
    /// (handing out nothing) if the version is invisible at `snap`. The
    /// dimension side stays cache-resident, so its rows are read one at a
    /// time, with one lane-width match per row.
    #[inline]
    fn fetch(&self, payload_id: u32, snap: Snapshot, mut put: impl FnMut(usize, u64)) -> bool {
        match self {
            DimAccess::Base {
                bi,
                mvt,
                carried_pos,
                check_visibility,
            } => {
                let row = bi.data.payload.row(payload_id);
                if *check_visibility && !mvt.visible(row.get(0) as u32, snap) {
                    return false;
                }
                match row {
                    Row::U32(r) => {
                        for (k, &p) in carried_pos.iter().enumerate() {
                            put(k, r[p].into());
                        }
                    }
                    Row::U64(r) => {
                        for (k, &p) in carried_pos.iter().enumerate() {
                            put(k, r[p]);
                        }
                    }
                }
                true
            }
            DimAccess::Inter { it } => {
                match it.data.payload.row(payload_id) {
                    Row::U32(r) => {
                        for (k, &v) in r.iter().enumerate() {
                            put(k, v.into());
                        }
                    }
                    Row::U64(r) => {
                        for (k, &v) in r.iter().enumerate() {
                            put(k, v);
                        }
                    }
                }
                true
            }
        }
    }
}

fn dim_access<'a>(
    db: &'a Database,
    snap: Snapshot,
    dim: &ResolvedDim,
    dim_tables: &'a [Option<Arc<DimSelection>>],
) -> Result<DimAccess<'a>, QpptError> {
    match dim.handle {
        DimHandleKind::Materialized => Ok(DimAccess::Inter {
            it: &dim_tables[dim.spec_idx]
                .as_ref()
                .expect("materialized dims have tables")
                .table,
        }),
        DimHandleKind::Base | DimHandleKind::Fused => {
            let bi = db.find_index(&dim.table, &dim.join_col_name)?;
            let carried_pos: Vec<usize> = dim
                .carried_names
                .iter()
                .map(|c| payload_pos(bi.payload_pos_by_name(c), &dim.table, &dim.join_col_name, c))
                .collect::<Result<_, _>>()?;
            let mvt = db.table(&dim.table)?;
            Ok(DimAccess::Base {
                bi,
                mvt,
                carried_pos,
                check_visibility: !mvt.fully_visible(snap),
            })
        }
    }
}

/// Appends the carried values of every visible dimension tuple of `dids`
/// to `out` (cleared first); returns how many there are, or `None` for
/// none.
#[inline]
fn fetch_all(
    dim_acc: &DimAccess<'_>,
    dids: Values<'_, u32>,
    snap: Snapshot,
    out: &mut Vec<u64>,
) -> Option<usize> {
    out.clear();
    let mut count = 0;
    for &did in dids {
        if dim_acc.fetch(did, snap, |_, v| out.push(v)) {
            count += 1;
        }
    }
    (count > 0).then_some(count)
}

struct AssistRt<'a> {
    access: DimAccess<'a>,
    probe_pos: usize,
    fill_pos: Vec<usize>,
}

/// An assisting dimension whose σ is a [`DenseIndex`]: the stage's scan
/// tests a row's key in it with one load and drops a row that misses, and
/// the flush copies the σ row of each survivor's key into its work row.
/// The value a dense σ holds under a key is the key's σ row.
struct Filter<'a> {
    dense: &'a DenseIndex,
    /// The σ's payload rows: its carried values.
    rows: &'a PayloadBuf,
    /// The input-layout position of the fact column the σ joins on.
    probe_pos: usize,
    /// Where the σ's carried values go in the work row.
    fill_pos: Vec<usize>,
}

impl Filter<'_> {
    /// Writes the carried values of every surviving row's key — the σ rows
    /// `sigma`, at the σ's lane width — into the row's work row.
    fn fill<L: Lane, M: Lane>(
        &self,
        sigma: Rows<'_, M>,
        input: StageInput<'_, L>,
        s: &mut JoinScratch,
        width: usize,
    ) {
        let probe = input.fields[self.probe_pos];
        for &r in &s.alive {
            let r = r as usize;
            let key = match probe {
                FieldSrc::Key => s.buffer[r * width + self.probe_pos],
                FieldSrc::Payload(p) => input.rows.row(s.ids[r])[p].into(),
            };
            let h = self.dense.handle(key);
            debug_assert_ne!(h, 0, "the scan tested the key");
            let src = sigma.row(self.dense.value(h));
            let row = &mut s.buffer[r * width..(r + 1) * width];
            for (&pos, &v) in self.fill_pos.iter().zip(src) {
                row[pos] = v.into();
            }
        }
    }
}

// One StageSink exists per join stage; the size skew vs. the Agg variant is
// irrelevant and boxing would cost an indirection on the hot insert path.
#[allow(clippy::large_enum_variant)]
enum StageSink<'g> {
    Inter(InterTable),
    Agg(&'g mut AggTable),
}

/// The reusable buffers of the join-group: the join buffer itself and the
/// scratch of its flush. One per [`Pipeline`], so nothing here is
/// allocated per flush, per stage or per morsel once it has grown; every
/// vector is sized by the rows actually buffered, never by an option.
#[derive(Default)]
struct JoinScratch {
    /// The join buffer's candidates: their source-row ids in the stage's
    /// input payload, in scan order.
    ids: Vec<u32>,
    /// One work row of `width` fields per candidate, parallel to `ids`
    /// and reused across flushes, so a field is only what was last written
    /// to it. The scan writes the stage key into its slot and the main
    /// dimension's carried values; the flush writes each assist's carried
    /// values and, for the survivors only, the input fields.
    buffer: Vec<u64>,
    /// The flush's selection vector: ordinals of the buffer rows every
    /// assisting dimension probed so far has kept, ascending.
    alive: Vec<u32>,
    /// An assist's probe keys and content handles, parallel to `alive`.
    keys: Vec<u64>,
    handles: Vec<u32>,
    deltas: Vec<i64>,
    /// Scratch of the batched fact-index probes of a select-probe stage.
    probe: ProbeScratch,
}

/// One join stage over one morsel, at its input's lane width `L`.
struct StageRun<'r, 'a, 'g, L> {
    plan: &'r Plan,
    stage: &'r JoinStage,
    ctx: &'r StageCtx<'a>,
    snap: Snapshot,
    input: StageInput<'r, L>,
    /// The input-layout slot read from the index key (stage 1 over the
    /// fact base index), if any: the scan writes the key there.
    key_slot: Option<usize>,
    sink: StageSink<'g>,
    s: &'r mut JoinScratch,
    width: usize,
    cap: usize,
}

impl<'g, L: Lane> StageRun<'_, '_, 'g, L> {
    /// Runs the stage's main join into the join buffer, flushes what is
    /// left, and hands the sink back. A synchronous scan is restricted to
    /// `range`; a select-probe streams `fused` if there is one.
    fn run(
        mut self,
        db: &Database,
        range: KeyRange,
        fused: Option<&FusedSelection>,
    ) -> Result<StageSink<'g>, QpptError> {
        let (plan, ctx) = (self.plan, self.ctx);
        match self.stage.main {
            MainInput::SyncScan { .. } => {
                let dim_acc = ctx.main_access.as_ref().expect("sync scans have an index");
                self.sync_scan(dim_acc, range);
            }
            MainInput::SelectProbe { main } => {
                self.select_probe(db, &plan.dims[main], range, fused)?;
            }
        }
        self.flush();
        Ok(self.sink)
    }

    /// Buffers the candidate of source row `id` under `key` joined with
    /// one main-dimension tuple, whose carried values are `carried` (§4.2):
    /// the row id, the key in its slot, the carried values in theirs.
    #[inline]
    fn emit(&mut self, id: u32, key: u64, carried: &[u64]) {
        let s = &mut *self.s;
        let end = (s.ids.len() + 1) * self.width;
        if s.buffer.len() < end {
            s.buffer.resize(end, 0);
        }
        let row = &mut s.buffer[end - self.width..end];
        if let Some(slot) = self.key_slot {
            row[slot] = key;
        }
        for (&pos, &v) in self.ctx.main_fill_pos.iter().zip(carried) {
            row[pos] = v;
        }
        count!(BUFFERED, 1);
        s.ids.push(id);
        if s.ids.len() >= self.cap {
            self.flush();
        }
    }

    /// Drains the join buffer through the assisting dimensions into the
    /// sink — a selection-vector pipeline (§2.3, §4.2).
    ///
    /// Every buffered row has passed the stage's filters in the scan
    /// already. `alive` starts as every buffered row. Each tree assist, in
    /// plan order, is probed **only by the rows the previous one kept**,
    /// with the probe column read from the row's source row (or, for the
    /// stage key, from its slot): a survivor whose key has a visible tuple
    /// gets that tuple's carried values written into its work row and
    /// stays; the rest drop out, so a selective dimension spares every
    /// later one its probes, and a block nothing survives touches no
    /// further index. Join keys are unique per visible snapshot, so the
    /// first visible version of a key is the tuple. Compaction keeps
    /// `alive` ascending: the sink sees the survivors in buffer (= scan)
    /// order. Each filter that carries values then writes them into the
    /// survivors' work rows: the key's handle in the dense σ — one load,
    /// never absent, since the scan tested it — names the σ row to copy.
    /// Only then are the survivors' input fields copied from their source
    /// rows, so a rejected candidate is never copied at all.
    ///
    /// A tree assist is three passes over `alive`, one body for every index
    /// structure: gather the probe keys; look them all up at once
    /// ([`TreeIndex::get_handles`]) and compact to the hits without a
    /// branch; then, for the hits only, walk the key's versions until one
    /// is visible ([`DimAccess::fetch`]) and compact again. The dimension
    /// side of a star join — a σ table or a dimension's base index — stays
    /// cache-resident, and there a KISS lookup of two loads and no branch
    /// on the data beats both the scalar lookup, which branches on every
    /// empty slot, and the prefetching batch of
    /// [`TreeIndex::batch_get_with`], whose rounds only add work (measured
    /// on the 13 SSB queries at sf 0.2; the numbers are in CHANGES.md under
    /// "branch-free assist probe").
    ///
    /// An `Inter` sink inserts the projected survivors in order. The `Agg`
    /// sink merges run-length: consecutive survivors of one group — scans
    /// emit sorted keys, so runs are the common case — sum their deltas
    /// and descend the aggregation index once. Sums are commutative, so
    /// the aggregate is byte-identical to merging row by row.
    fn flush(&mut self) {
        let n = self.s.ids.len();
        if n == 0 {
            return;
        }
        let (width, snap, input) = (self.width, self.snap, self.input);
        let s = &mut *self.s;
        debug_assert!(s.buffer.len() >= n * width);
        s.alive.clear();
        s.alive.extend(0..n as u32);
        for assist in &self.ctx.assists {
            count!(PROBES, s.alive.len());
            let index = assist.access.index();
            // Pass 1: gather the survivors' probe keys.
            let probe = input.fields[assist.probe_pos];
            s.keys.clear();
            s.keys.extend(s.alive.iter().map(|&r| match probe {
                FieldSrc::Key => s.buffer[r as usize * width + assist.probe_pos],
                FieldSrc::Payload(p) => input.rows.row(s.ids[r as usize])[p].into(),
            }));
            // Pass 2: look every key up, then keep the rows whose key the
            // tree holds, in place and without a branch.
            index.get_handles(&s.keys, &mut s.handles);
            let mut hits = 0;
            for i in 0..s.alive.len() {
                let h = s.handles[i];
                s.alive[hits] = s.alive[i];
                s.handles[hits] = h;
                hits += (h != 0) as usize;
            }
            // Pass 3: for the hits only, the first version of the key
            // visible at `snap` is the tuple; its carried values go into
            // the row, and a key with none drops the row.
            let mut kept = 0;
            for i in 0..hits {
                let r = s.alive[i] as usize;
                let row = &mut s.buffer[r * width..(r + 1) * width];
                let visible = index.handle_values(s.handles[i]).any(|&pid| {
                    assist
                        .access
                        .fetch(pid, snap, |k, v| row[assist.fill_pos[k]] = v)
                });
                s.alive[kept] = r as u32;
                kept += visible as usize;
            }
            s.alive.truncate(kept);
        }
        // The scan tested every filter: only the ones that carry values
        // are read again, one load and a row copy per survivor.
        for f in self.ctx.filters.iter().filter(|f| !f.fill_pos.is_empty()) {
            with_lanes!(f.rows, sigma => f.fill(sigma, input, s, width));
        }
        debug_assert!(s.alive.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(s.alive.last().is_none_or(|&r| (r as usize) < n));
        // Late materialization: only the survivors' input fields are
        // copied; the key slot already holds the key.
        for &r in &s.alive {
            let r = r as usize;
            let src = input.rows.row(s.ids[r]);
            let row = &mut s.buffer[r * width..(r + 1) * width];
            for (o, field) in row.iter_mut().zip(input.fields) {
                if let FieldSrc::Payload(p) = *field {
                    *o = src[p].into();
                }
            }
        }
        count!(MATERIALIZED, s.alive.len());
        let rows = s
            .alive
            .iter()
            .map(|&r| &s.buffer[r as usize * width..][..width]);
        match &mut self.sink {
            StageSink::Inter(out) => {
                let stage = self.stage;
                for row in rows {
                    let fields = stage.output_projection.iter().map(|&p| row[p]);
                    out.insert(row[stage.output_key_pos], fields);
                }
            }
            StageSink::Agg(agg) => {
                let aggs = &self.plan.aggs;
                s.deltas.clear();
                s.deltas.resize(aggs.len().max(1), 0);
                let mut run: Option<u64> = None;
                for row in rows {
                    let key = self.plan.group_key.pack(row);
                    if run != Some(key) {
                        if let Some(done) = run.replace(key) {
                            agg.merge(done, &s.deltas);
                            s.deltas.fill(0);
                        }
                    }
                    for (d, a) in s.deltas.iter_mut().zip(aggs) {
                        *d += a.eval(row);
                    }
                }
                if let Some(done) = run {
                    agg.merge(done, &s.deltas);
                }
            }
        }
        s.ids.clear();
    }

    /// Synchronous scan (§4.2): the stage's input index × the main
    /// dimension's index, restricted to one [`KeyRange`] — the morsel for
    /// stage 1 over the fact base index, the whole domain for an
    /// intermediate.
    fn sync_scan(&mut self, dim_acc: &DimAccess<'_>, range: KeyRange) {
        let (input, snap, stage) = (self.input, self.snap, self.stage);
        let (stride, filters) = (self.ctx.main_fill_pos.len(), &self.ctx.filters[..]);
        let mut dim_buf: Vec<u64> = Vec::new();
        let visit = |key, fids, dids| {
            let Some(count) = fetch_all(dim_acc, dids, snap, &mut dim_buf) else {
                return;
            };
            // Cross product of fact tuples × dim tuples (§4.2).
            input.rows.for_each_row_of(fids, |id, row| {
                if input.passes(key, row, &stage.residuals, filters, snap) {
                    for t in 0..count {
                        self.emit(id, key, &dim_buf[t * stride..(t + 1) * stride]);
                    }
                }
            });
        };
        sync_scan_indexes_range(input.index, dim_acc.index(), range.lo, range.hi, visit);
    }

    /// Fused select-join (§4.3): stream the main dimension's selection and
    /// point-probe the fact base index with batched lookups through the
    /// selection buffer. Only selection tuples whose join key falls inside
    /// the [`KeyRange`] morsel probe the fact index; a
    /// pre-materialized [`FusedSelection`] replaces the per-call selection
    /// scan so morsel workers do not re-evaluate the predicates.
    fn select_probe(
        &mut self,
        db: &Database,
        dim: &ResolvedDim,
        range: KeyRange,
        fused: Option<&FusedSelection>,
    ) -> Result<(), QpptError> {
        let (input, snap, stage, cap) = (self.input, self.snap, self.stage, self.cap);
        let (stride, filters) = (dim.carried_names.len(), &self.ctx.filters[..]);

        // The selection tuples of this morsel: a binary-searched slice of
        // the shared pre-materialized stream (work proportional to the
        // morsel's population, not the whole selection), or the
        // selection scanned here.
        let (mut scanned_keys, mut scanned_carried) = (Vec::new(), Vec::new());
        let (probe_keys, probe_carried): (&[u64], &[u64]) = match fused {
            Some(fs) => {
                debug_assert_eq!(fs.stride, stride);
                let span = fs.slice(range);
                (
                    &fs.keys[span.clone()],
                    &fs.carried[span.start * stride..span.end * stride],
                )
            }
            None => {
                let opts = self.plan.opts;
                scan_dim_selection(db, snap, &opts, dim, |key, c| {
                    if range.contains(key) {
                        scanned_keys.push(key);
                        scanned_carried.extend_from_slice(c);
                    }
                })?;
                (&scanned_keys, &scanned_carried)
            }
        };
        // The probe scratch is taken out of `self` for the probe loop: the
        // hit callbacks need `self` whole (they emit into the join buffer).
        let mut probe = std::mem::take(&mut self.s.probe);
        // The stream is drained in chunks of the join-buffer size; each
        // chunk is one batched probe into the fact index (§2.3), whose hits
        // arrive key by key, each key's rows walked with prefetching.
        for (chunk, keys) in probe_keys.chunks(cap).enumerate() {
            let start = chunk * cap;
            input.index.batch_get_with(keys, &mut probe, |job, pids| {
                let (g, key) = (start + job, keys[job]);
                let carried = &probe_carried[g * stride..(g + 1) * stride];
                input.rows.for_each_row_of(pids, |id, row| {
                    if input.passes(key, row, &stage.residuals, filters, snap) {
                        self.emit(id, key, carried);
                    }
                });
            });
        }
        self.s.probe = probe;
        Ok(())
    }
}

/// Streams a dimension selection: scans a base index, applies the
/// predicates its key does not answer from the carried payload, checks MVCC
/// visibility, and yields `(join key, carried values)` per qualifying tuple.
/// The index is the one keyed on the first predicate's column — or, for a
/// `multidim` selection, on all predicate columns, so the whole conjunction
/// is one key range and no residual predicates remain (§4.1); a dimension
/// without predicates scans the index on its join column whole. With
/// `selection_via_set_ops`, multi-predicate selections instead run one
/// rid-set selection per predicate and intersect them with the synchronous
/// scan (§4.1).
pub fn scan_dim_selection(
    db: &Database,
    snap: Snapshot,
    opts: &PlanOptions,
    dim: &ResolvedDim,
    mut f: impl FnMut(u64, &[u64]),
) -> Result<(), QpptError> {
    if opts.selection_via_set_ops && dim.preds.len() >= 2 && !dim.multidim {
        return scan_dim_selection_set_ops(db, snap, dim, f);
    }
    let mvt = db.table(&dim.table)?;
    let check_vis = !mvt.fully_visible(snap);
    // The index's key columns, and how many leading predicates they answer.
    let (key_names, keyed) = match dim.pred_cols.len() {
        0 => (std::slice::from_ref(&dim.join_col_name), 0),
        n if dim.multidim => (&dim.pred_cols[..], n),
        _ => (&dim.pred_cols[..1], 1),
    };
    let bi = db.find_index_on(&dim.table, key_names)?;
    let key_name = key_names.join("+");
    let pos = |c: &String| payload_pos(bi.payload_pos_by_name(c), &dim.table, &key_name, c);
    // Without predicates the index key *is* the join key.
    let join_pos = match keyed {
        0 => None,
        _ => Some(pos(&dim.join_col_name)?),
    };
    let residual_pos: Vec<usize> = dim.pred_cols[keyed..]
        .iter()
        .map(pos)
        .collect::<Result<_, _>>()?;
    let carried_pos: Vec<usize> = dim
        .carried_names
        .iter()
        .map(pos)
        .collect::<Result<_, _>>()?;
    let (key_preds, residuals) = dim.preds.split_at(keyed);
    let mut carried = vec![0u64; carried_pos.len()];
    let mut visit = |key: u64, pid: u32| {
        let row = bi.data.payload.row(pid);
        if check_vis && !mvt.visible(row.get(0) as u32, snap) {
            return;
        }
        for (p, &at) in residuals.iter().zip(&residual_pos) {
            if !pred_matches_value(p, row.get(at)) {
                return;
            }
        }
        for (i, &p) in carried_pos.iter().enumerate() {
            carried[i] = row.get(p);
        }
        f(join_pos.map_or(key, |p| row.get(p)), &carried);
    };
    // The index's own packer turns predicate constants into its keys: a
    // constant no key part can hold matches nothing.
    if let [CompiledPred::InSet { codes, .. }] = key_preds {
        for &code in codes {
            if let Ok(key) = bi.packer().pack([code]) {
                bi.data.index.get_each(key, |pid| visit(key, pid));
            }
        }
        return Ok(());
    }
    let bounds: Option<Vec<(u64, u64)>> = key_preds
        .iter()
        .map(|p| match p {
            CompiledPred::Range { lo, hi, .. } => Some((*lo, *hi)),
            _ => None,
        })
        .collect();
    if let Some((lo, hi)) = bounds.and_then(|b| bi.packer().pack_range(&b)) {
        bi.data.index.range_each(lo, hi, visit);
    }
    Ok(())
}

/// §4.1: per-predicate rid-set selections combined with `intersect`.
fn scan_dim_selection_set_ops(
    db: &Database,
    snap: Snapshot,
    dim: &ResolvedDim,
    mut f: impl FnMut(u64, &[u64]),
) -> Result<(), QpptError> {
    let mvt = db.table(&dim.table)?;
    let t = mvt.table();
    // One rid-keyed index per predicate.
    let mut rid_sets: Vec<TreeIndex> = Vec::with_capacity(dim.preds.len());
    for (k, pred) in dim.preds.iter().enumerate() {
        let bi = db.find_index(&dim.table, &dim.pred_cols[k])?;
        let mut set = TreeIndex::new_kiss();
        let mut add = |pid: u32| {
            let rid = bi.data.payload.row(pid).get(0);
            set.insert(rid, 0);
        };
        match pred {
            CompiledPred::Range { lo, hi, .. } => {
                bi.data.index.range_each(*lo, *hi, |_, pid| add(pid))
            }
            CompiledPred::InSet { codes, .. } => {
                for &code in codes {
                    bi.data.index.get_each(code, &mut add);
                }
            }
            CompiledPred::Never => {}
        }
        rid_sets.push(set);
    }
    // Fold with intersections (synchronous scans over rid sets).
    let mut acc = rid_sets.remove(0);
    for other in &rid_sets {
        let mut next = TreeIndex::new_kiss();
        sync_scan_indexes(&acc, other, |rid, _, _| next.insert(rid, 0));
        acc = next;
    }
    // Fetch join key and carried columns from the row store (this is the
    // secondary-index path: random accesses into the storage layer).
    let join_col = t.schema().col(&dim.join_col_name)?;
    let carried_cols: Vec<usize> = dim
        .carried_names
        .iter()
        .map(|c| t.schema().col(c))
        .collect::<Result<_, StorageError>>()?;
    let mut carried = vec![0u64; carried_cols.len()];
    acc.for_each(|rid, _| {
        let rid = rid as u32;
        if !mvt.visible(rid, snap) {
            return;
        }
        for (i, &c) in carried_cols.iter().enumerate() {
            carried[i] = t.get(rid, c);
        }
        f(t.get(rid, join_col), &carried);
    });
    Ok(())
}

/// Evaluates a compiled predicate against a single already-fetched value.
#[inline]
fn pred_matches_value(p: &CompiledPred, value: u64) -> bool {
    match p {
        CompiledPred::Range { lo, hi, .. } => *lo <= value && value <= *hi,
        CompiledPred::InSet { codes, .. } => codes.binary_search(&value).is_ok(),
        CompiledPred::Never => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{build_plan, prepare_indexes};
    use qppt_storage::{
        AggExpr, ColRef, ColumnType, DimSpec, Expr, Predicate, QuerySpec, Schema, TableBuilder,
    };

    /// `fact(fa, fb, fc, m)`: ten rows `i = 0..10` with `fa = 1 + i % 2`,
    /// `fb = 1 + i % 5`, `fc = 1 + i` and `m = 1 << i`, so a sum names
    /// its rows; dimensions `a(ka, xa)`, `b(kb, xb)`, `c(kc, xc)` with
    /// 2, 5 and 10 keys and `x = k`.
    fn db() -> Database {
        let int = |names: &[&str]| {
            let cols: Vec<(&str, ColumnType)> =
                names.iter().map(|&n| (n, ColumnType::Int)).collect();
            Schema::of(&cols)
        };
        let mut db = Database::new();
        let mut fact = TableBuilder::new("fact", int(&["fa", "fb", "fc", "m"]));
        for i in 0..10i64 {
            let row = [1 + i % 2, 1 + i % 5, 1 + i, 1 << i];
            fact.push_row(row.map(Value::Int).to_vec()).unwrap();
        }
        db.add_table(fact.finish());
        for (name, keys) in [("a", 2i64), ("b", 5), ("c", 10)] {
            let cols = [format!("k{name}"), format!("x{name}")];
            let mut dim = TableBuilder::new(name, int(&[&cols[0], &cols[1]]));
            for k in 1..=keys {
                dim.push_row(vec![Value::Int(k), Value::Int(k)]).unwrap();
            }
            db.add_table(dim.finish());
        }
        db
    }

    fn dim(t: &str, preds: Vec<Predicate>, carried: &[&str]) -> DimSpec {
        DimSpec {
            table: t.into(),
            join_col: format!("k{t}"),
            fact_col: format!("f{t}"),
            predicates: preds,
            carried: carried.iter().map(|c| c.to_string()).collect(),
        }
    }

    /// A star over `dims` grouped by `group_by` (`(table, column)`),
    /// summing `m`.
    fn star(dims: Vec<DimSpec>, group_by: &[(&str, &str)]) -> QuerySpec {
        QuerySpec {
            id: "t".into(),
            fact: "fact".into(),
            dims,
            fact_predicates: vec![],
            group_by: group_by.iter().map(|&(t, c)| ColRef::new(t, c)).collect(),
            aggregates: vec![AggExpr::sum(Expr::Col("m".into()), "s")],
            order_by: vec![],
        }
    }

    /// `fact ⋈ a ⋈ σ(b) ⋈ σ(c)` grouped by `xa`, summing `m`: `a` is the
    /// main dimension, `b` then `c` assist.
    fn spec(b: (i64, i64), c: (i64, i64)) -> QuerySpec {
        star(
            vec![
                dim("a", vec![], &["xa"]),
                dim("b", vec![Predicate::between("xb", b.0, b.1)], &[]),
                dim("c", vec![Predicate::between("xc", c.0, c.1)], &[]),
            ],
            &[("a", "xa")],
        )
    }

    /// What one pipeline run did, counted exactly.
    #[derive(Debug, PartialEq)]
    struct Work {
        /// Assist probes: filter tests in the scan plus tree-assist
        /// lookups in the flush.
        probes: usize,
        /// Rows that entered the join buffer.
        buffered: usize,
        /// Buffered rows whose input fields were copied (the survivors).
        materialized: usize,
    }

    /// Runs `spec` through one [`Pipeline`] with a 4-row join buffer (three
    /// flushes for the ten fact rows); returns the group values and sum of
    /// every group, in key order, and the work it took.
    fn run(spec: &QuerySpec) -> (Vec<(Vec<Value>, i64)>, Work) {
        let opts = PlanOptions::default().with_join_buffer(4);
        let mut db = db();
        prepare_indexes(&mut db, spec, &opts).unwrap();
        let snap = db.snapshot();
        let plan = build_plan(&db, spec, &opts).unwrap();
        let dims: Vec<_> = (0..plan.dims.len())
            .map(|di| materialize_dim_selection(&db, snap, &plan, di).unwrap())
            .collect();
        for counter in [&work::PROBES, &work::BUFFERED, &work::MATERIALIZED] {
            work::take(counter);
        }
        let mut agg = new_agg_table(&plan);
        let mut pipeline = Pipeline::new(&db, snap, &plan, &dims, None).unwrap();
        pipeline.run(KeyRange::full(), &mut agg).unwrap();
        let groups = decode_result(&db, &plan, &agg.into_run())
            .rows
            .into_iter()
            .map(|r| (r.key_values, r.agg_values[0]))
            .collect();
        let work = Work {
            probes: work::take(&work::PROBES),
            buffered: work::take(&work::BUFFERED),
            materialized: work::take(&work::MATERIALIZED),
        };
        (groups, work)
    }

    fn ints(values: &[i64]) -> Vec<Value> {
        values.iter().map(|&v| Value::Int(v)).collect()
    }

    #[test]
    fn an_assist_is_probed_only_by_the_previous_assists_survivors() {
        // b keeps fb ∈ {1, 2} = rows {0, 1, 5, 6}; of those c keeps
        // fc ≤ 6 = rows {0, 1, 5}: ten probes of b, four of c, and only
        // those three survivors enter the join buffer and are copied out
        // of their source rows. Both σs are dense, so the scan tests them
        // and the rows they reject are never buffered.
        let (groups, work) = run(&spec((1, 2), (1, 6)));
        assert_eq!(
            groups,
            vec![(ints(&[1]), 1 << 0), (ints(&[2]), (1 << 1) + (1 << 5))]
        );
        let (probes, buffered, materialized) = (10 + 4, 3, 3);
        assert_eq!(
            work,
            Work {
                probes,
                buffered,
                materialized
            }
        );
    }

    #[test]
    fn a_block_nothing_survives_probes_no_further_index() {
        // b rejects every row: c, which would keep all ten, is never
        // probed, and no row is buffered or copied.
        let (groups, work) = run(&spec((100, 200), (1, 10)));
        assert!(groups.is_empty());
        assert_eq!(work.probes, 10);
        assert_eq!((work.buffered, work.materialized), (0, 0));
    }

    #[test]
    fn a_dense_selection_filters_before_the_base_index_assist_it_follows() {
        // b joins through its base index and precedes σ(c) in plan order,
        // both carrying what the query groups by. c keeps fc ≤ 6 = rows
        // 0..6: the scan tests c on all ten rows and buffers six, and the
        // flush probes b for those six only — in either order of the two.
        let b = dim("b", vec![], &["xb"]);
        let c = dim("c", vec![Predicate::between("xc", 1, 6)], &["xc"]);
        let a = dim("a", vec![], &["xa"]);
        let group_by = [("a", "xa"), ("b", "xb"), ("c", "xc")];
        let (groups, work) = run(&star(vec![a.clone(), b.clone(), c.clone()], &group_by));
        let mut expect: Vec<([i64; 3], i64)> = (0..6)
            .map(|i| ([1 + i % 2, 1 + i % 5, 1 + i], 1 << i))
            .collect();
        expect.sort_unstable();
        let expect: Vec<(Vec<Value>, i64)> = expect.iter().map(|(g, m)| (ints(g), *m)).collect();
        assert_eq!(groups, expect);
        let (probes, buffered, materialized) = (10 + 6, 6, 6);
        assert_eq!(
            work,
            Work {
                probes,
                buffered,
                materialized
            }
        );
        assert_eq!(run(&star(vec![a, c, b], &group_by)), (groups, work));
    }

    #[test]
    fn a_fused_selection_sorts_by_key_and_keeps_scan_order_among_duplicates() {
        // `d(kd, xd)` repeats join keys; the σ on `xd` scans the index on
        // `xd`, so it yields `kd` = 3, 1, 3, 2, 1 carrying xd = 10..=14.
        let int = |names: &[&str]| {
            let cols: Vec<(&str, ColumnType)> =
                names.iter().map(|&n| (n, ColumnType::Int)).collect();
            Schema::of(&cols)
        };
        let mut db = Database::new();
        let mut fact = TableBuilder::new("fact", int(&["fd", "m"]));
        fact.push_row(vec![Value::Int(1), Value::Int(1)]).unwrap();
        db.add_table(fact.finish());
        let mut dim = TableBuilder::new("d", int(&["kd", "xd"]));
        for (k, x) in [(3, 10), (1, 11), (3, 12), (2, 13), (1, 14)] {
            dim.push_row(vec![Value::Int(k), Value::Int(x)]).unwrap();
        }
        db.add_table(dim.finish());
        let spec = QuerySpec {
            id: "fused".into(),
            fact: "fact".into(),
            dims: vec![DimSpec {
                table: "d".into(),
                join_col: "kd".into(),
                fact_col: "fd".into(),
                predicates: vec![Predicate::between("xd", 10, 14)],
                carried: vec!["xd".into()],
            }],
            fact_predicates: vec![],
            group_by: vec![ColRef::new("d", "xd")],
            aggregates: vec![AggExpr::sum(Expr::Col("m".into()), "s")],
            order_by: vec![],
        };
        let opts = PlanOptions::default().with_select_join(true);
        prepare_indexes(&mut db, &spec, &opts).unwrap();
        let snap = db.snapshot();
        let plan = build_plan(&db, &spec, &opts).unwrap();
        let fs = materialize_fused_selection(&db, snap, &plan)
            .unwrap()
            .expect("stage 1 is a select-probe");

        // The construction it replaces: one `(key, carried)` pair per
        // tuple, stably sorted by key.
        let mut entries: Vec<(u64, Vec<u64>)> = Vec::new();
        scan_dim_selection(&db, snap, &plan.opts, &plan.dims[0], |key, c| {
            entries.push((key, c.to_vec()));
        })
        .unwrap();
        entries.sort_by_key(|(key, _)| *key);
        let keys: Vec<u64> = entries.iter().map(|(k, _)| *k).collect();
        let carried: Vec<u64> = entries.iter().flat_map(|(_, c)| c.clone()).collect();

        assert_eq!((fs.keys.clone(), fs.carried.clone()), (keys, carried));
        assert_eq!(fs.keys, vec![1, 1, 2, 3, 3]);
        assert_eq!(fs.carried, vec![11, 14, 13, 10, 12]);
        assert_eq!(fs.stride, 1);
    }
}
