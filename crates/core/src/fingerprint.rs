//! Structural fingerprints of queries and plan options.
//!
//! A fingerprint is a 64-bit FNV-1a hash over every field that influences
//! planning or execution. Two [`QuerySpec`]s with the same structure (same
//! fact, same dimensions, same predicates/group-by/aggregates/order-by)
//! fingerprint identically, whatever their `id` label says; any structural
//! difference — including predicate constants — changes the hash. Combined
//! with the per-table version vector from
//! [`Database::table_version`](qppt_storage::Database::table_version), this
//! yields the *snapshot fingerprint* the `qppt-cache` tiers key on:
//! `(query structure, options, table versions)`, O(#tables) to compute.
//!
//! Hashing is hand-rolled (no `std::hash::Hasher` indirection, no derive)
//! so the byte stream — and therefore the fingerprint — is stable across
//! Rust versions and independent of `HashMap` seeding.

use qppt_storage::{AggOp, CompiledPred, Expr, OrderTerm, Predicate, QuerySpec, Value};

use crate::options::PlanOptions;
use crate::plan::ResolvedDim;

/// A 64-bit FNV-1a hasher (offset basis / prime per the reference spec).
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Folds raw bytes into the state.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds a `u64` (little-endian bytes).
    #[inline]
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Folds a length-prefixed string (prefixing prevents `("ab","c")` from
    /// colliding with `("a","bc")`).
    #[inline]
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_u64(s.len() as u64).write_bytes(s.as_bytes())
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

fn write_value(h: &mut Fnv64, v: &Value) {
    match v {
        Value::Int(i) => {
            h.write_u64(0).write_u64(*i as u64);
        }
        Value::Str(s) => {
            h.write_u64(1).write_str(s);
        }
    }
}

fn write_predicate(h: &mut Fnv64, p: &Predicate) {
    match p {
        Predicate::Eq { column, value } => {
            h.write_u64(0).write_str(column);
            write_value(h, value);
        }
        Predicate::In { column, values } => {
            h.write_u64(1)
                .write_str(column)
                .write_u64(values.len() as u64);
            for v in values {
                write_value(h, v);
            }
        }
        Predicate::Between { column, lo, hi } => {
            h.write_u64(2).write_str(column);
            write_value(h, lo);
            write_value(h, hi);
        }
        Predicate::Lt { column, value } => {
            h.write_u64(3).write_str(column);
            write_value(h, value);
        }
    }
}

fn write_expr(h: &mut Fnv64, e: &Expr) {
    match e {
        Expr::Col(a) => {
            h.write_u64(0).write_str(a);
        }
        Expr::Mul(a, b) => {
            h.write_u64(1).write_str(a).write_str(b);
        }
        Expr::Sub(a, b) => {
            h.write_u64(2).write_str(a).write_str(b);
        }
    }
}

/// Fingerprints a query's structure (everything except its `id` label).
pub fn fingerprint_spec(spec: &QuerySpec) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(&spec.fact).write_u64(spec.dims.len() as u64);
    for d in &spec.dims {
        h.write_str(&d.table)
            .write_str(&d.join_col)
            .write_str(&d.fact_col)
            .write_u64(d.predicates.len() as u64);
        for p in &d.predicates {
            write_predicate(&mut h, p);
        }
        h.write_u64(d.carried.len() as u64);
        for c in &d.carried {
            h.write_str(c);
        }
    }
    h.write_u64(spec.fact_predicates.len() as u64);
    for p in &spec.fact_predicates {
        write_predicate(&mut h, p);
    }
    h.write_u64(spec.group_by.len() as u64);
    for g in &spec.group_by {
        h.write_str(&g.table).write_str(&g.column);
    }
    h.write_u64(spec.aggregates.len() as u64);
    for a in &spec.aggregates {
        match a.op {
            AggOp::Sum => h.write_u64(0),
        };
        write_expr(&mut h, &a.expr);
        h.write_str(&a.label);
    }
    h.write_u64(spec.order_by.len() as u64);
    for o in &spec.order_by {
        let (tag, i) = match o.term {
            OrderTerm::Group(i) => (0u64, i),
            OrderTerm::Agg(i) => (1u64, i),
        };
        h.write_u64(tag)
            .write_u64(i as u64)
            .write_u64(o.desc as u64);
    }
    h.finish()
}

/// Fingerprints plan options — every knob that shapes a plan. Parallelism
/// knobs never change result *bytes* (the engines' equivalence contract),
/// but they do change plans and statistics, so cache entries are kept
/// distinct per option set. `par_index_build` changes only how index builds
/// sort (the indexes are bit-identical either way), so it is deliberately
/// **excluded**: builds of either kind share cached plans, σ
/// materializations, and results byte-for-byte.
///
/// The options are destructured exhaustively, so a field added to
/// [`PlanOptions`] fails to compile here until someone decides whether it
/// is part of the cache key.
pub fn fingerprint_opts(opts: &PlanOptions) -> u64 {
    let PlanOptions {
        select_join,
        join_buffer,
        max_join_ways,
        prefer_kiss,
        selection_via_set_ops,
        multidim_selections,
        parallelism,
        morsel_bits,
        par_index_build: _,
    } = *opts;
    let mut h = Fnv64::new();
    h.write_u64(select_join as u64)
        .write_u64(join_buffer as u64)
        .write_u64(max_join_ways as u64)
        .write_u64(prefer_kiss as u64)
        .write_u64(selection_via_set_ops as u64)
        .write_u64(multidim_selections as u64)
        .write_u64(parallelism as u64)
        .write_u64(morsel_bits as u64);
    h.finish()
}

/// One 64-bit key over `(query structure, options)` — the map key of every
/// cache tier (the version vector rides alongside, see `qppt-cache`).
pub fn fingerprint_query(spec: &QuerySpec, opts: &PlanOptions) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(fingerprint_spec(spec))
        .write_u64(fingerprint_opts(opts));
    h.finish()
}

fn write_compiled_pred(h: &mut Fnv64, p: &CompiledPred) {
    // Column *positions* are omitted on purpose: the column identity is
    // hashed as the `pred_cols` name alongside, and positions are derived
    // from it via the (version-covered) schema.
    match p {
        CompiledPred::Range { lo, hi, .. } => {
            h.write_u64(0).write_u64(*lo).write_u64(*hi);
        }
        CompiledPred::InSet { codes, .. } => {
            h.write_u64(1).write_u64(codes.len() as u64);
            for &c in codes {
                h.write_u64(c);
            }
        }
        CompiledPred::Never => {
            h.write_u64(2);
        }
    }
}

/// Fingerprints one resolved dimension selection σ: everything
/// [`materialize_dim`](crate::exec::materialize_dim) reads to build the
/// dimension `InterTable` — table, join column, compiled predicate set
/// (constants are dictionary codes, deterministic per table version),
/// carried columns in payload order, the multidimensional-scan shape, the
/// key domain that drives the §2.2 index-structure choice, and the three
/// [`PlanOptions`] knobs that change the materialization procedure
/// (`prefer_kiss`, `selection_via_set_ops`, `multidim_selections`).
///
/// Deliberately *excluded*: the query the dimension came from (group-by,
/// aggregates, other dims), the fact-side join column, the dimension's
/// position in the spec, and every parallelism knob — none of them change
/// the materialized bytes, so two different queries touching the same σ
/// fingerprint identically and can share one cached `InterTable`. Combined
/// with the dimension table's version this is the `qppt-cache` dim-tier
/// key.
pub fn fingerprint_dim(dim: &ResolvedDim, opts: &PlanOptions) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(&dim.table)
        .write_str(&dim.join_col_name)
        .write_u64(dim.join_key_max)
        .write_u64(dim.preds.len() as u64);
    for (col, p) in dim.pred_cols.iter().zip(&dim.preds) {
        h.write_str(col);
        write_compiled_pred(&mut h, p);
    }
    h.write_u64(dim.carried_names.len() as u64);
    for c in &dim.carried_names {
        h.write_str(c);
    }
    h.write_u64(dim.multidim as u64);
    h.write_u64(opts.prefer_kiss as u64)
        .write_u64(opts.selection_via_set_ops as u64)
        .write_u64(opts.multidim_selections as u64);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qppt_storage::{AggExpr, ColRef, DimSpec, OrderKey};

    fn spec() -> QuerySpec {
        QuerySpec {
            id: "T".into(),
            fact: "f".into(),
            dims: vec![DimSpec {
                table: "d".into(),
                join_col: "dk".into(),
                fact_col: "fk".into(),
                predicates: vec![Predicate::eq("x", 1i64)],
                carried: vec!["x".into()],
            }],
            fact_predicates: vec![Predicate::between("q", 1i64, 3i64)],
            group_by: vec![ColRef::new("d", "x")],
            aggregates: vec![AggExpr::sum(Expr::Col("p".into()), "s")],
            order_by: vec![OrderKey::group(0)],
        }
    }

    #[test]
    fn stable_and_structural() {
        assert_eq!(fingerprint_spec(&spec()), fingerprint_spec(&spec()));
        // The id label is *not* structural.
        let mut relabeled = spec();
        relabeled.id = "other".into();
        assert_eq!(fingerprint_spec(&spec()), fingerprint_spec(&relabeled));
    }

    #[test]
    fn sensitive_to_constants_and_shape() {
        let base = fingerprint_spec(&spec());
        let mut c = spec();
        c.dims[0].predicates = vec![Predicate::eq("x", 2i64)];
        assert_ne!(base, fingerprint_spec(&c));
        let mut c = spec();
        c.order_by = vec![OrderKey::agg_desc(0)];
        assert_ne!(base, fingerprint_spec(&c));
        let mut c = spec();
        c.dims[0].carried.clear();
        assert_ne!(base, fingerprint_spec(&c));
    }

    #[test]
    fn opts_fingerprint_covers_every_plan_shaping_knob() {
        let base = PlanOptions::default();
        let variants = [
            base.with_select_join(false),
            base.with_join_buffer(64),
            base.with_max_join_ways(2),
            base.with_prefer_kiss(false),
            base.with_set_ops(true),
            base.with_multidim(true),
            base.with_parallelism(4),
            base.with_morsel_bits(9),
        ];
        let fp0 = fingerprint_opts(&base);
        // The combined query key separates spec and opts changes.
        let q0 = fingerprint_query(&spec(), &base);
        for v in &variants {
            assert_ne!(fp0, fingerprint_opts(v), "knob not hashed: {v:?}");
            assert_ne!(q0, fingerprint_query(&spec(), v), "knob not hashed: {v:?}");
        }
    }

    #[test]
    fn knobs_that_shape_no_plan_never_touch_the_fingerprints() {
        // The index-build sort strategy shapes no plan or result, so a
        // pooled build must share cached plans, σ, and results with a
        // sequential one.
        let base = PlanOptions::default();
        let v = base.with_par_index_build(true);
        assert_eq!(
            fingerprint_opts(&base),
            fingerprint_opts(&v),
            "knob leaked into fingerprint_opts: {v:?}"
        );
        assert_eq!(
            fingerprint_query(&spec(), &base),
            fingerprint_query(&spec(), &v)
        );
    }
}
