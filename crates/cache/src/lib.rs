//! # qppt-cache — snapshot-keyed caching for the serving hot path
//!
//! QPPT's intermediates are ordered, canonical index structures: at an
//! unchanged snapshot the engine rebuilds byte-identical dimension
//! selections and answers on every run. This crate makes that reuse
//! explicit with a two-tier, byte-budgeted, sharded LRU keyed by
//! *snapshot fingerprints* — structural hashes plus the version vector of
//! exactly the tables an entry was computed from:
//!
//! 1. **Dimension tier** — `Arc<DimSelection>` keyed per *σ*
//!    `(table, predicate set, carried columns, table version)`: one
//!    materialized dimension `InterTable`, shared by **every query** whose
//!    plan contains the same selection (Q3.1/Q3.2/Q3.3 all reuse one
//!    `d_year BETWEEN 1992 AND 1997` table).
//! 2. **Result tier** — `Arc<CachedResult>`: a finished answer — the
//!    decoded rows of a full request or the undecoded aggregate of a
//!    `mode=partial` one — kept once, as the rendered response (head and
//!    operator lines) the entry's maker stored as opaque bytes, beside the
//!    statistics of the execution that made it. A hit touches neither the
//!    worker pool nor a formatter: the server writes the stored bytes. The
//!    maker keys the two modes apart (the server folds a mode tag into the
//!    fingerprint), so they never share an entry.
//!
//! ## Byte budgets, pinning, TTL
//!
//! Every tier is bounded by a **byte budget**, not an entry count: a
//! materialized selection is orders of magnitude heavier than a scalar
//! answer, so counting entries sized nothing. Entries report their
//! footprint through [`HeapSize`]: a σ through the engine's own estimator
//! (`InterTable::memory_bytes`), a result entry as the bytes it stores.
//! Each σ table is billed once, to the
//! dimension tier that owns it; no cached value holds another tier's
//! entries, so nothing is billed twice. Eviction pops from each shard's
//! intrusive recency list (O(victims), see `lru`) and prefers victims
//! that are not pinned — an entry whose `Arc` is also held by an
//! executing query frees nothing — but pins cannot break the bound: when
//! only pinned entries remain, the coldest are dropped from the map while
//! their holders keep the data alive. An optional idle TTL reclaims
//! long-untouched entries even when the budget has room; pinned entries
//! never count as idle.
//!
//! ## Coherence
//!
//! [`Database`] bumps a monotonic per-table version on every MVCC write
//! and index build. Query-level fingerprints embed the version vector of
//! the tables a query reads (fact + dimensions, O(dims) to collect);
//! dimension fingerprints embed exactly their own table's version. So:
//!
//! * a write to a dimension table kills **exactly** that table's σ
//!   entries (and the result entries of queries reading it) at their next
//!   lookup — counted as an **invalidation**, stale bytes never served;
//! * entries over untouched tables keep hitting, including the other
//!   dimension entries of the very queries that were invalidated — after
//!   a write to `date`, a re-run of Q4.2 rebuilds only the date σ and
//!   reuses the part/supplier σ from the dim tier.
//!
//! Under a shared `Arc<Database>` (the serving path), versions cannot
//! change *during* a query — writes need `&mut Database` — so
//! fingerprints computed at `RUN` time stay valid for the whole
//! execution, and a dimension table whose version is unchanged since its
//! entry was built is byte-identical to rematerializing it now.
//!
//! Counters (hits / misses / invalidations / evictions / expirations /
//! insertions, plus live entries and bytes) are kept per tier and
//! surfaced through the server's `CACHE STATS` command and per-query
//! `ExecStats` operator lines.

mod lru;

use std::sync::Arc;
use std::time::Duration;

use qppt_core::{fingerprint_dim, fingerprint_query, DimSelection, ExecStats, PlanOptions};
use qppt_storage::{Database, QuerySpec, StorageError};

pub use lru::{CacheKey, CacheValue, ShardedLru, TierSnapshot};

/// The snapshot fingerprint every tier is keyed on: one 64-bit hash over
/// `(database identity, structural hash)` plus the version vector of the
/// tables the entry reads — for the result tier the fact first, then
/// dimensions in spec order; for the dimension tier exactly the one
/// dimension table.
///
/// The [`Database::instance_id`] is folded into the key so a cache shared
/// across engine rebuilds can never serve one database's rows for a
/// *different* database, even when their version vectors coincide (two
/// freshly loaded instances both sit at version 1 everywhere). Mutating a
/// database in place keeps its identity — that is the supported
/// cache-outlives-engine pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryFingerprint {
    /// Structural hash ⊕ database identity.
    pub key: u64,
    /// Per-table versions at computation time.
    pub versions: Vec<u64>,
}

impl QueryFingerprint {
    /// Computes the query-level fingerprint — O(dims): one structural hash
    /// (cheap, no catalog access) plus one version lookup per involved
    /// table.
    pub fn compute(
        db: &Database,
        spec: &QuerySpec,
        opts: &PlanOptions,
    ) -> Result<Self, StorageError> {
        let mut versions = Vec::with_capacity(1 + spec.dims.len());
        versions.push(db.table_version(&spec.fact)?);
        for d in &spec.dims {
            versions.push(db.table_version(&d.table)?);
        }
        let mut key = qppt_core::Fnv64::new();
        key.write_u64(db.instance_id())
            .write_u64(fingerprint_query(spec, opts));
        Ok(Self {
            key: key.finish(),
            versions,
        })
    }

    /// Computes the dimension-tier fingerprint of one resolved σ: the
    /// structural hash covers everything `materialize_dim` reads (see
    /// [`fingerprint_dim`]), the version vector is exactly the dimension
    /// table's version — so the entry dies precisely when *its* table is
    /// written, and queries that merely share it never widen its key.
    pub fn compute_dim(
        db: &Database,
        dim: &qppt_core::plan::ResolvedDim,
        opts: &PlanOptions,
    ) -> Result<Self, StorageError> {
        let mut key = qppt_core::Fnv64::new();
        key.write_u64(db.instance_id())
            .write_u64(fingerprint_dim(dim, opts));
        Ok(Self {
            key: key.finish(),
            versions: vec![db.table_version(&dim.table)?],
        })
    }
}

/// A result-tier entry: the response a hit answers, rendered once when the
/// entry is made, and the statistics of the execution that produced it.
/// At an unchanged snapshot those bytes are a pure function of the
/// fingerprint, so a hit writes them as they are. They are the entry's one
/// copy of the answer: whoever wants the answer itself back reads it from
/// the head, as a client would. The two byte fields are opaque here:
/// whoever makes the entry renders them, this crate only stores and bills
/// them.
#[derive(Debug, Clone)]
pub struct CachedResult {
    pub stats: ExecStats,
    /// The rendered response head (status, columns, rows or groups).
    pub head: Box<[u8]>,
    /// The rendered operator lines a hit answers: the producing
    /// execution's operators plus the result-hit marker.
    pub hit_ops: Box<[u8]>,
}

/// Heap footprint for the cache's byte budgets: for a σ the engine's own
/// estimate of its table, for a result entry the bytes it stores. Every
/// tier value is an `Arc<T: HeapSize>`, which also supplies the pin signal
/// (an `Arc` held outside the cache).
pub trait HeapSize {
    /// Estimated heap bytes owned by this value.
    fn heap_bytes(&self) -> usize;
}

impl HeapSize for DimSelection {
    fn heap_bytes(&self) -> usize {
        self.memory_bytes()
    }
}

impl HeapSize for CachedResult {
    /// Both rendered byte strings — the answer itself — plus a bounded
    /// estimate (96 bytes) per operator record.
    fn heap_bytes(&self) -> usize {
        self.stats.ops.len() * OP_BYTES + self.head.len() + self.hit_ops.len()
    }
}

/// What a result entry bills per operator record: the record and its two
/// short strings.
const OP_BYTES: usize = 96;

impl<T: HeapSize> CacheValue for Arc<T> {
    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<T>() + T::heap_bytes(self)
    }

    /// Pinned while anyone outside the cache holds the `Arc`: an in-flight
    /// execution (whose prepared query composes the dimension entries it
    /// uses) or a request still writing a result entry's bytes. Evicting
    /// such an entry frees nothing, so the LRU treats it as a last-resort
    /// victim (see [`CacheValue::pinned`]).
    fn pinned(&self) -> bool {
        Arc::strong_count(self) > 1
    }
}

/// Shard count of every tier (no deployment has ever needed another).
const SHARDS: usize = 8;

/// Byte budgets and idle TTL of a [`QueryCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Byte budget of the dimension tier — the heavy tier: one entry is a
    /// whole materialized `InterTable`. Keep this the largest.
    pub dim_budget: usize,
    /// Byte budget of the result tier (rendered answers; SSB results are
    /// ≤ a few hundred rows).
    pub result_budget: usize,
    /// Idle time-to-live: entries untouched for longer are reclaimed even
    /// when the byte budget has room. `None` = no age limit.
    pub ttl: Option<Duration>,
    /// `false` turns every lookup into a pass-through miss and every
    /// insert into a no-op.
    pub enabled: bool,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            dim_budget: 256 << 20,   // 256 MiB
            result_budget: 32 << 20, // 32 MiB
            ttl: None,
            enabled: true,
        }
    }
}

impl CacheConfig {
    /// A configuration with caching switched off entirely.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }
}

/// Point-in-time statistics of both tiers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub dims: TierSnapshot,
    pub results: TierSnapshot,
    /// Always zero: no tier stands behind it. Kept only so the frozen
    /// benchmark's `layers.rs` builds (it reads `cache.hit_ratio.plan`
    /// from it). Delete it, with that read, as soon as the benchmark may
    /// be edited.
    pub plans: TierSnapshot,
    /// Always zero, kept for the same reason as [`plans`](Self::plans)
    /// (`cache.hit_ratio.selection`); delete it with them.
    pub selections: TierSnapshot,
}

impl CacheStats {
    /// The tiers a server reports, labeled in wire order.
    pub fn tiers(&self) -> [(&'static str, &TierSnapshot); 2] {
        [("result", &self.results), ("dim", &self.dims)]
    }
}

/// How a [`TierField`] renders as a Prometheus family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// Only grows; the family name ends in `_total`.
    Counter,
    /// Moves both ways.
    Gauge,
}

/// One word of the cache counter vocabulary: the `CACHE STATS` key suffix
/// and `METRICS` family stem, its kind, its HELP text and its getter.
#[derive(Debug, Clone, Copy)]
pub struct TierField {
    pub name: &'static str,
    pub kind: FieldKind,
    pub help: &'static str,
    pub get: fn(&TierSnapshot) -> u64,
}

/// The counter vocabulary of every cache tier, in wire order. Both
/// `CACHE STATS` lines (a server's and the router's) and both `METRICS`
/// family sets render from this one list, so they agree by construction.
pub const TIER_FIELDS: [TierField; 7] = [
    TierField {
        name: "hits",
        kind: FieldKind::Counter,
        help: "Cache lookups answered from the tier.",
        get: |t| t.hits,
    },
    TierField {
        name: "misses",
        kind: FieldKind::Counter,
        help: "Cache lookups the tier could not answer.",
        get: |t| t.misses,
    },
    TierField {
        name: "invalidations",
        kind: FieldKind::Counter,
        help: "Entries dropped because a version they were computed at moved.",
        get: |t| t.invalidations,
    },
    TierField {
        name: "evictions",
        kind: FieldKind::Counter,
        help: "Entries removed under byte pressure.",
        get: |t| t.evictions,
    },
    TierField {
        name: "expirations",
        kind: FieldKind::Counter,
        help: "Entries removed after sitting idle past the TTL.",
        get: |t| t.expirations,
    },
    TierField {
        name: "entries",
        kind: FieldKind::Gauge,
        help: "Live entries resident in the tier.",
        get: |t| t.entries as u64,
    },
    TierField {
        name: "bytes",
        kind: FieldKind::Gauge,
        help: "Heap bytes resident in the tier.",
        get: |t| t.bytes as u64,
    },
];

/// `<tier>_<field>=<value>` for each tier in order and each of its
/// [`TIER_FIELDS`], space-separated: the counters of a `CACHE STATS` line.
pub fn render_tier_stats(tiers: &[(&str, &TierSnapshot)]) -> String {
    let mut fields = Vec::with_capacity(tiers.len() * TIER_FIELDS.len());
    for (tier, t) in tiers {
        for f in &TIER_FIELDS {
            fields.push(format!("{tier}_{}={}", f.name, (f.get)(t)));
        }
    }
    fields.join(" ")
}

/// One Prometheus family per [`TIER_FIELDS`] entry, named `<prefix><field>`
/// (`_total` appended for a counter), with one `tier="<tier>"` sample per
/// tier.
pub fn render_tier_families(prefix: &str, tiers: &[(&str, &TierSnapshot)]) -> String {
    let mut out = String::new();
    for f in &TIER_FIELDS {
        let (suffix, kind) = match f.kind {
            FieldKind::Counter => ("_total", "counter"),
            FieldKind::Gauge => ("", "gauge"),
        };
        let name = format!("{prefix}{}{suffix}", f.name);
        out.push_str(&format!("# HELP {name} {}\n# TYPE {name} {kind}\n", f.help));
        for (tier, t) in tiers {
            out.push_str(&format!("{name}{{tier=\"{tier}\"}} {}\n", (f.get)(t)));
        }
    }
    out
}

/// The two-tier snapshot-keyed query cache (see module docs). Internally
/// synchronized — share it behind an `Arc` across connections.
#[derive(Debug)]
pub struct QueryCache {
    dims: ShardedLru<Arc<DimSelection>>,
    results: ShardedLru<Arc<CachedResult>>,
    enabled: bool,
}

impl Default for QueryCache {
    fn default() -> Self {
        Self::new(CacheConfig::default())
    }
}

impl QueryCache {
    /// Creates a cache with the given budgets.
    pub fn new(config: CacheConfig) -> Self {
        Self {
            dims: ShardedLru::new(config.dim_budget, SHARDS, config.ttl),
            results: ShardedLru::new(config.result_budget, SHARDS, config.ttl),
            enabled: config.enabled,
        }
    }

    /// `false` when the cache was built disabled (every get misses without
    /// counting, every put is dropped).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Result-tier lookup.
    pub fn get_result(&self, fp: &QueryFingerprint) -> Option<Arc<CachedResult>> {
        if !self.enabled {
            return None;
        }
        self.results.get(fp)
    }

    /// Result-tier insert.
    pub fn put_result(&self, fp: &QueryFingerprint, value: Arc<CachedResult>) {
        if self.enabled {
            self.results.put(fp, value);
        }
    }

    /// Dimension-tier lookup (key from
    /// [`QueryFingerprint::compute_dim`]).
    pub fn get_dim(&self, fp: &QueryFingerprint) -> Option<Arc<DimSelection>> {
        if !self.enabled {
            return None;
        }
        self.dims.get(fp)
    }

    /// Dimension-tier insert.
    pub fn put_dim(&self, fp: &QueryFingerprint, value: Arc<DimSelection>) {
        if self.enabled {
            self.dims.put(fp, value);
        }
    }

    /// Drops every entry in both tiers (lifetime counters survive).
    pub fn clear(&self) {
        self.dims.clear();
        self.results.clear();
    }

    /// Drops only the dimension tier (the `CACHE CLEAR dims` sub-verb).
    /// Executing queries keep their handles alive — subsequent assemblies
    /// simply rematerialize and refill.
    pub fn clear_dims(&self) {
        self.dims.clear();
    }

    /// Counters, entry counts, and resident bytes of both tiers.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            dims: self.dims.snapshot(),
            results: self.results.snapshot(),
            ..CacheStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qppt_core::exec::materialize_dim_selection;
    use qppt_core::plan::DimHandleKind;
    use qppt_core::{build_plan, prepare_indexes, QpptEngine};
    use qppt_ssb::{queries, SsbDb};

    fn entry(stats: ExecStats, head: &[u8], hit_ops: &[u8]) -> CachedResult {
        CachedResult {
            stats,
            head: head.into(),
            hit_ops: hit_ops.into(),
        }
    }

    /// The first materialized σ of `q`'s plan, with its dim-tier key.
    fn first_sigma(
        db: &Database,
        q: &QuerySpec,
        opts: &PlanOptions,
    ) -> (QueryFingerprint, Arc<DimSelection>) {
        let plan = build_plan(db, q, opts).unwrap();
        let di = plan
            .dims
            .iter()
            .position(|d| d.handle == DimHandleKind::Materialized)
            .expect("the query materializes a σ");
        let sigma = materialize_dim_selection(db, db.snapshot(), &plan, di)
            .unwrap()
            .expect("materialized handle");
        let dfp = QueryFingerprint::compute_dim(db, &plan.dims[di], opts).unwrap();
        (dfp, sigma)
    }

    #[test]
    fn result_entry_bills_its_rendered_bytes() {
        // The rendered response is the entry's one copy of the answer, so
        // the result budget sees every byte of it: heap_bytes is exactly
        // the head and op-line lengths plus a fixed amount per operator
        // record, whatever the answer's mode or size.
        let bare = entry(ExecStats::default(), b"", b"");
        assert_eq!(bare.heap_bytes(), 0);
        let head = b"OK 0\nCOLS - revenue\n";
        let ops = b"# op cache: result hit | micros=0 keys=0 tuples=0 index=cache mem=0\n";
        let rendered = entry(ExecStats::default(), head, ops);
        assert_eq!(rendered.heap_bytes(), head.len() + ops.len());
        let mut stats = ExecStats::default();
        for micros in 0..3 {
            stats.push(qppt_core::OpStats {
                label: "scan".into(),
                out_keys: 1,
                out_tuples: 1,
                index_kind: "KISS-Tree".into(),
                memory_bytes: 4096,
                micros,
            });
        }
        let partial_head = b"OK partial 1\nCOLS d_year revenue\nP\t7\ti:1997\t42\n";
        let partial = entry(stats, partial_head, ops);
        assert_eq!(
            partial.heap_bytes(),
            3 * OP_BYTES + partial_head.len() + ops.len()
        );

        let mut ssb = SsbDb::generate(0.005, 42);
        let opts = PlanOptions::default();
        let q = queries::q1_1();
        prepare_indexes(&mut ssb.db, &q, &opts).unwrap();
        let fp = QueryFingerprint::compute(&ssb.db, &q, &opts).unwrap();
        let cache = QueryCache::default();
        let value = Arc::new(rendered);
        let billed = CacheValue::heap_bytes(&value);
        assert_eq!(
            billed,
            std::mem::size_of::<CachedResult>() + head.len() + ops.len()
        );
        cache.put_result(&fp, value);
        assert_eq!(cache.stats().results.bytes, billed);

        // A shard budget that holds two bare entries but not two rendered
        // ones: the rendered bytes alone decide the eviction.
        let bare_billed = CacheValue::heap_bytes(&Arc::new(bare));
        let per_shard = 2 * bare_billed + head.len() + ops.len();
        let same_shard = QueryFingerprint {
            key: fp.key.wrapping_add(SHARDS as u64),
            versions: fp.versions.clone(),
        };
        for (h, o, evictions) in [(&b""[..], &b""[..], 0), (&head[..], &ops[..], 1)] {
            let cache = QueryCache::new(CacheConfig {
                result_budget: per_shard * SHARDS,
                ..CacheConfig::default()
            });
            for key in [&fp, &same_shard] {
                cache.put_result(key, Arc::new(entry(ExecStats::default(), h, o)));
            }
            let s = cache.stats().results;
            assert_eq!(s.evictions, evictions, "{s:?}");
            assert!(s.bytes <= per_shard, "{s:?}");
        }
    }

    #[test]
    fn fingerprint_tracks_only_involved_tables() {
        let mut ssb = SsbDb::generate(0.005, 42);
        let opts = PlanOptions::default();
        let q11 = queries::q1_1(); // fact + date
        let q23 = queries::q2_3(); // fact + part, supplier, date
        for q in [&q11, &q23] {
            prepare_indexes(&mut ssb.db, q, &opts).unwrap();
        }
        let f11 = QueryFingerprint::compute(&ssb.db, &q11, &opts).unwrap();
        let f23 = QueryFingerprint::compute(&ssb.db, &q23, &opts).unwrap();
        assert_ne!(f11.key, f23.key);
        assert_eq!(f11.versions.len(), 2);
        assert_eq!(f23.versions.len(), 4);

        // A write to part changes q2.3's fingerprint but not q1.1's.
        ssb.db.delete_row("part", 0).unwrap();
        let f11b = QueryFingerprint::compute(&ssb.db, &q11, &opts).unwrap();
        let f23b = QueryFingerprint::compute(&ssb.db, &q23, &opts).unwrap();
        assert_eq!(f11, f11b);
        assert_ne!(f23.versions, f23b.versions);
        assert_eq!(f23.key, f23b.key);
    }

    #[test]
    fn dim_fingerprints_shared_across_queries_and_options() {
        // Q3.1/Q3.2/Q3.3 all carry the same date σ (d_year ∈ [1992,1997],
        // carried d_year): their dim fingerprints must coincide, across
        // parallelism settings, while query fingerprints differ.
        let mut ssb = SsbDb::generate(0.005, 42);
        let opts = PlanOptions::default();
        let par4 = PlanOptions::default().with_parallelism(4);
        for q in queries::all_queries() {
            prepare_indexes(&mut ssb.db, &q, &opts).unwrap();
        }
        fn date_fp(db: &Database, spec: &QuerySpec, o: &PlanOptions) -> QueryFingerprint {
            let plan = build_plan(db, spec, o).unwrap();
            let dim = plan
                .dims
                .iter()
                .find(|d| d.table == "date")
                .expect("q3.x joins date");
            assert_eq!(dim.handle, DimHandleKind::Materialized);
            QueryFingerprint::compute_dim(db, dim, o).unwrap()
        }
        let f31 = date_fp(&ssb.db, &queries::q3_1(), &opts);
        let f32 = date_fp(&ssb.db, &queries::q3_2(), &opts);
        let f33 = date_fp(&ssb.db, &queries::q3_3(), &opts);
        let f31p = date_fp(&ssb.db, &queries::q3_1(), &par4);
        assert_eq!(f31, f32, "same σ from different queries must share");
        assert_eq!(f31, f33);
        assert_eq!(f31, f31p, "parallelism must not split the σ key");
        // A different predicate (Q3.4's date month) is a different σ.
        let f34 = date_fp(&ssb.db, &queries::q3_4(), &opts);
        assert_ne!(f31.key, f34.key);
        // A write to date bumps the version, killing exactly these keys.
        ssb.db.delete_row("date", 0).unwrap();
        let f31b = date_fp(&ssb.db, &queries::q3_1(), &opts);
        assert_eq!(f31.key, f31b.key);
        assert_ne!(f31.versions, f31b.versions);
    }

    #[test]
    fn tiers_roundtrip_and_invalidate_independently() {
        let mut ssb = SsbDb::generate(0.005, 42);
        let opts = PlanOptions::default();
        let q = queries::q2_1();
        prepare_indexes(&mut ssb.db, &q, &opts).unwrap();
        let cache = QueryCache::default();
        let fp = QueryFingerprint::compute(&ssb.db, &q, &opts).unwrap();
        assert!(cache.get_result(&fp).is_none());

        let engine = QpptEngine::new(&ssb.db);
        let (_, stats) = engine.run_with_stats(&q, &opts).unwrap();
        cache.put_result(&fp, Arc::new(entry(stats, b"OK 0\n", b"")));
        // One σ of the query in the dimension tier, keyed on its own table.
        let (dfp, sigma) = first_sigma(&ssb.db, &q, &opts);
        cache.put_dim(&dfp, sigma);
        assert!(cache.get_result(&fp).is_some());
        assert!(cache.get_dim(&dfp).is_some());
        assert!(cache.stats().results.bytes > 0);
        assert!(cache.stats().dims.bytes > 0);

        // A write to the fact table invalidates the result on next lookup;
        // the σ, over an untouched dimension table, keeps hitting.
        ssb.db.delete_row("lineorder", 0).unwrap();
        let fp2 = QueryFingerprint::compute(&ssb.db, &q, &opts).unwrap();
        assert!(cache.get_result(&fp2).is_none());
        let (dfp2, _) = first_sigma(&ssb.db, &q, &opts);
        assert_eq!(dfp, dfp2, "a fact write leaves σ keys alone");
        assert!(cache.get_dim(&dfp2).is_some());
        let s = cache.stats();
        assert_eq!(s.results.invalidations, 1);
        assert_eq!(s.results.hits, 1);
        assert_eq!((s.dims.hits, s.dims.invalidations), (2, 0));
    }

    #[test]
    fn fingerprints_never_cross_databases() {
        // Two freshly built databases have identical version vectors (all
        // 1s) — the instance id must still keep their fingerprints apart,
        // so a cache shared across engines cannot serve A's rows for B.
        let opts = PlanOptions::default();
        let q = queries::q1_1();
        let mut a = SsbDb::generate(0.005, 42);
        let mut b = SsbDb::generate(0.005, 7);
        prepare_indexes(&mut a.db, &q, &opts).unwrap();
        prepare_indexes(&mut b.db, &q, &opts).unwrap();
        let fa = QueryFingerprint::compute(&a.db, &q, &opts).unwrap();
        let fb = QueryFingerprint::compute(&b.db, &q, &opts).unwrap();
        assert_eq!(fa.versions, fb.versions, "test premise: same versions");
        assert_ne!(fa.key, fb.key, "instance id must separate databases");
        // Mutating in place keeps the identity (the supported pattern).
        a.db.delete_row("date", 0).unwrap();
        let fa2 = QueryFingerprint::compute(&a.db, &q, &opts).unwrap();
        assert_eq!(fa.key, fa2.key);
        assert_ne!(fa.versions, fa2.versions);
    }

    #[test]
    fn disabled_cache_is_a_pass_through() {
        let mut ssb = SsbDb::generate(0.005, 42);
        let q = queries::q2_1();
        let opts = PlanOptions::default();
        prepare_indexes(&mut ssb.db, &q, &opts).unwrap();
        let cache = QueryCache::new(CacheConfig::disabled());
        assert!(!cache.enabled());
        let fp = QueryFingerprint::compute(&ssb.db, &q, &opts).unwrap();
        cache.put_result(&fp, Arc::new(entry(ExecStats::default(), b"", b"")));
        assert!(cache.get_result(&fp).is_none());
        assert_eq!(cache.stats().results.insertions, 0);

        // The dimension tier passes through too: the cache=off contract
        // covers every tier.
        let (dfp, sigma) = first_sigma(&ssb.db, &q, &opts);
        cache.put_dim(&dfp, sigma);
        assert!(cache.get_dim(&dfp).is_none());
        let s = cache.stats();
        assert_eq!((s.results.hits, s.results.misses), (0, 0));
        assert_eq!((s.dims.insertions, s.dims.hits, s.dims.misses), (0, 0, 0));
    }
}
