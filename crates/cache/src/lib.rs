//! # qppt-cache — snapshot-keyed caching for the serving hot path
//!
//! QPPT's intermediates are ordered, canonical index structures: at an
//! unchanged snapshot the engine rebuilds byte-identical plans, dimension
//! selections, and results on every run. This crate makes that reuse
//! explicit with a four-tier, byte-budgeted, sharded LRU keyed by
//! *snapshot fingerprints* — structural hashes plus the version vector of
//! exactly the tables an entry was computed from:
//!
//! 1. **Plan tier** — `Arc<Plan>` keyed per `(query, options)`: a hit
//!    skips `build_plan`.
//! 2. **Dimension tier** — `Arc<DimSelection>` keyed per *σ*
//!    `(table, predicate set, carried columns, table version)`: one
//!    materialized dimension `InterTable`, shared by **every query** whose
//!    plan contains the same selection (Q3.1/Q3.2/Q3.3 all reuse one
//!    `d_year BETWEEN 1992 AND 1997` table). This is the common-subwork
//!    sharing the selection tier of PR 3 could not express: it cached a
//!    whole `PreparedQuery` per query, so two queries sharing a σ each
//!    paid the materialization.
//! 3. **Selection tier** — `Arc<PreparedQuery>` keyed per
//!    `(query, options)`: since PR 4 a cheap *composition* of shared
//!    dimension handles plus the query-private fused stream; a hit
//!    additionally skips the per-dimension cache walk and the
//!    fused-selection scan.
//! 4. **Result tier** — `Arc<CachedResult>`: the decoded rows and, beside
//!    them, the rendered response (head and operator lines) the entry's
//!    maker stored as opaque bytes. A hit touches neither the worker pool
//!    nor a formatter: the server writes the stored bytes.
//!
//! ## Byte budgets, pinning, TTL
//!
//! Every tier is bounded by a **byte budget**, not an entry count: a
//! materialized selection is orders of magnitude heavier than a plan, so
//! counting entries sized nothing. Entries report their footprint through
//! [`HeapSize`], which bottoms out in the engine's own estimators
//! (`InterTable::memory_bytes`, `QueryResult::memory_bytes`,
//! `Plan::memory_bytes`). Attribution is conservative: σ tables are
//! billed to the dimension tier that owns them *and*, in full, to every
//! cached composer that pins them — a composer is what keeps its σ alive
//! even after the dim tier drops them, so the selection budget must cover
//! that retained memory (total resident selection bytes are bounded by
//! `dim_budget + selection_budget`). Eviction pops from each shard's
//! intrusive recency list (O(victims), see `lru`) and prefers victims
//! that are not pinned — an entry whose `Arc` is also held by an
//! executing query or a composed prepared query frees nothing — but pins
//! cannot break the bound: when only pinned entries remain, the coldest
//! are dropped from the map while their holders keep the data alive. An
//! optional idle TTL reclaims long-untouched entries even when the budget
//! has room; pinned entries never count as idle.
//!
//! ## Coherence
//!
//! [`Database`] bumps a monotonic per-table version on every MVCC write
//! and index build. Query-level fingerprints embed the version vector of
//! the tables a query reads (fact + dimensions, O(dims) to collect);
//! dimension fingerprints embed exactly their own table's version. So:
//!
//! * a write to a dimension table kills **exactly** that table's σ
//!   entries (and the prepared/result entries of queries reading it) at
//!   their next lookup — counted as an **invalidation**, stale bytes
//!   never served;
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

use qppt_core::plan::DimHandleKind;
use qppt_core::{
    fingerprint_dim, fingerprint_query, DimSelection, ExecStats, Plan, PlanOptions, PreparedQuery,
    QpptError,
};
use qppt_par::PooledEngine;
use qppt_storage::{Database, QueryResult, QuerySpec, Snapshot, StorageError};

pub use lru::{CacheKey, CacheValue, ShardedLru, TierSnapshot};

/// The snapshot fingerprint every tier is keyed on: one 64-bit hash over
/// `(database identity, structural hash)` plus the version vector of the
/// tables the entry reads — for query-level tiers the fact first, then
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

/// A cached full result: decoded rows plus the statistics of the execution
/// that produced them, and beside them the response a hit answers, rendered
/// once when the entry is made. At an unchanged snapshot those bytes are a
/// pure function of the fingerprint, so a hit writes them as they are. The
/// two byte fields are opaque here: whoever makes the entry renders them,
/// this crate only stores and bills them.
#[derive(Debug, Clone)]
pub struct CachedResult {
    pub result: QueryResult,
    pub stats: ExecStats,
    /// The rendered response head (status, columns, rows).
    pub head: Box<[u8]>,
    /// The rendered operator lines a hit answers: the producing
    /// execution's operators plus the result-hit marker.
    pub hit_ops: Box<[u8]>,
}

/// Heap footprint for the cache's byte budgets. Implemented down through
/// the engine's own estimators; every tier value is an `Arc<T: HeapSize>`,
/// which also supplies the pin signal (an `Arc` held outside the cache).
pub trait HeapSize {
    /// Estimated heap bytes owned by this value.
    fn heap_bytes(&self) -> usize;
}

impl HeapSize for Plan {
    fn heap_bytes(&self) -> usize {
        self.memory_bytes()
    }
}

impl HeapSize for DimSelection {
    fn heap_bytes(&self) -> usize {
        self.memory_bytes()
    }
}

impl HeapSize for PreparedQuery {
    /// Query-private bytes **plus** the composed σ tables, in full. This
    /// deliberately over-counts shared σ (once per composer that pins
    /// them) rather than under-counting: a cached composer is what keeps
    /// its σ alive even after the dimension tier drops them under
    /// pressure, so the selection budget must bound that retained memory.
    /// Billing only `private_bytes` (KiB-scale) would let the tier retain
    /// thousands of composers, each pinning megabytes of selections the
    /// budgets no longer see.
    fn heap_bytes(&self) -> usize {
        self.private_bytes()
            + self
                .dims
                .iter()
                .flatten()
                .map(|d| d.memory_bytes())
                .sum::<usize>()
    }
}

impl HeapSize for CachedResult {
    /// Decoded rows, operator records and both rendered byte strings: the
    /// rendered response is resident beside the rows, so the result budget
    /// bounds both.
    fn heap_bytes(&self) -> usize {
        self.result.memory_bytes()
            + self.stats.ops.len() * 96
            + self.head.len()
            + self.hit_ops.len()
    }
}

impl HeapSize for qppt_core::PartialAggregate {
    /// The router's partial-aggregate tier stores raw shard payloads; they
    /// budget bytes exactly like decoded results do.
    fn heap_bytes(&self) -> usize {
        self.memory_bytes()
    }
}

impl<T: HeapSize> CacheValue for Arc<T> {
    fn heap_bytes(&self) -> usize {
        std::mem::size_of::<T>() + T::heap_bytes(self)
    }

    /// Pinned while anyone outside the cache holds the `Arc`: an in-flight
    /// execution, or — for dimension entries — a composed `PreparedQuery`
    /// (cached or executing). Evicting such an entry frees nothing, so the
    /// LRU treats it as a last-resort victim (see [`CacheValue::pinned`]).
    fn pinned(&self) -> bool {
        Arc::strong_count(self) > 1
    }
}

/// Shard count of every tier (no deployment has ever needed another).
const SHARDS: usize = 8;

/// Byte budgets and idle TTL of a [`QueryCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Byte budget of the plan tier (plans are a few KiB of resolved
    /// metadata — this fits hundreds).
    pub plan_budget: usize,
    /// Byte budget of the dimension tier — the heavy tier: one entry is a
    /// whole materialized `InterTable`. Keep this the largest.
    pub dim_budget: usize,
    /// Byte budget of the selection tier. A composer bills its private
    /// state (plan handle + fused stream) plus, conservatively, the σ
    /// tables it pins — so this budget bounds the selection memory cached
    /// composers keep alive (shared σ count once per composer).
    pub selection_budget: usize,
    /// Byte budget of the result tier (decoded rows plus their rendered
    /// response; SSB results are ≤ a few hundred rows).
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
            plan_budget: 4 << 20,       // 4 MiB
            dim_budget: 256 << 20,      // 256 MiB
            selection_budget: 64 << 20, // 64 MiB
            result_budget: 32 << 20,    // 32 MiB
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

/// Point-in-time statistics of all four tiers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub plans: TierSnapshot,
    pub dims: TierSnapshot,
    pub selections: TierSnapshot,
    pub results: TierSnapshot,
}

/// How a prepared query's dimension handles were obtained from the
/// dimension tier during assemble-from-parts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DimAssembly {
    /// σ handles served from the dimension tier (shared — possibly
    /// materialized by a *different* query).
    pub shared: usize,
    /// σ handles materialized now (and inserted for the next query).
    pub built: usize,
}

/// The four-tier snapshot-keyed query cache (see module docs). Internally
/// synchronized — share it behind an `Arc` across connections.
#[derive(Debug)]
pub struct QueryCache {
    plans: ShardedLru<Arc<Plan>>,
    dims: ShardedLru<Arc<DimSelection>>,
    selections: ShardedLru<Arc<PreparedQuery>>,
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
            plans: ShardedLru::new(config.plan_budget, SHARDS, config.ttl),
            dims: ShardedLru::new(config.dim_budget, SHARDS, config.ttl),
            selections: ShardedLru::new(config.selection_budget, SHARDS, config.ttl),
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

    /// Plan-tier lookup.
    pub fn get_plan(&self, fp: &QueryFingerprint) -> Option<Arc<Plan>> {
        if !self.enabled {
            return None;
        }
        self.plans.get(fp)
    }

    /// Plan-tier insert.
    pub fn put_plan(&self, fp: &QueryFingerprint, value: Arc<Plan>) {
        if self.enabled {
            self.plans.put(fp, value);
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

    /// Selection-tier lookup.
    pub fn get_selections(&self, fp: &QueryFingerprint) -> Option<Arc<PreparedQuery>> {
        if !self.enabled {
            return None;
        }
        self.selections.get(fp)
    }

    /// Selection-tier insert.
    pub fn put_selections(&self, fp: &QueryFingerprint, value: Arc<PreparedQuery>) {
        if self.enabled {
            self.selections.put(fp, value);
        }
    }

    /// Composes a [`PreparedQuery`] for an already-built plan in three
    /// steps: **lookup** — every `Materialized` dimension is served from
    /// the dimension tier when a version-fresh σ entry exists (whoever
    /// built it); **σ** — the misses go through the engine's shared
    /// [`materialize_missing_dims`](PooledEngine::materialize_missing_dims)
    /// step (one pool job when several remain); **put** — what was built is
    /// cached for the next query. Only the query-private fused stream is
    /// always built. This is the serving path's assemble-from-parts step on
    /// a selection-tier miss; with the cache disabled the lookups miss and
    /// the puts drop, so every σ is built and nothing is cached.
    pub fn prepare_from_parts(
        &self,
        engine: &PooledEngine,
        plan: Arc<Plan>,
        opts: &PlanOptions,
        snap: Snapshot,
        priority: i32,
    ) -> Result<(PreparedQuery, DimAssembly), QpptError> {
        let db = engine.db();
        let mut dims = vec![None; plan.dims.len()];
        let mut misses = Vec::new();
        for (di, dim) in plan.dims.iter().enumerate() {
            if dim.handle != DimHandleKind::Materialized {
                continue;
            }
            let dfp = QueryFingerprint::compute_dim(db, dim, opts).map_err(QpptError::Storage)?;
            match self.get_dim(&dfp) {
                Some(shared) => dims[di] = Some(shared),
                None => misses.push((di, dfp)),
            }
        }
        let assembly = DimAssembly {
            shared: dims.iter().flatten().count(),
            built: misses.len(),
        };
        let dims = engine.materialize_missing_dims(&plan, snap, priority, dims)?;
        for (di, dfp) in &misses {
            let built = dims[*di].clone().expect("Materialized dims materialize");
            self.put_dim(dfp, built);
        }
        Ok((PreparedQuery::from_parts(db, plan, dims, snap)?, assembly))
    }

    /// Drops every entry in every tier (lifetime counters survive).
    pub fn clear(&self) {
        self.plans.clear();
        self.dims.clear();
        self.selections.clear();
        self.results.clear();
    }

    /// Drops only the dimension tier (the `CACHE CLEAR dims` sub-verb).
    /// Composed prepared queries keep their handles alive — subsequent
    /// assemblies simply rematerialize and refill.
    pub fn clear_dims(&self) {
        self.dims.clear();
    }

    /// Counters, entry counts, and resident bytes of all tiers.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            plans: self.plans.snapshot(),
            dims: self.dims.snapshot(),
            selections: self.selections.snapshot(),
            results: self.results.snapshot(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qppt_core::{build_plan, prepare_indexes, QpptEngine};
    use qppt_par::WorkerPool;
    use qppt_ssb::{queries, SsbDb};

    fn entry(result: QueryResult, stats: ExecStats, head: &[u8], hit_ops: &[u8]) -> CachedResult {
        CachedResult {
            result,
            stats,
            head: head.into(),
            hit_ops: hit_ops.into(),
        }
    }

    fn empty_result() -> QueryResult {
        QueryResult {
            group_cols: vec![],
            agg_cols: vec![],
            rows: vec![],
        }
    }

    #[test]
    fn result_entry_bills_its_rendered_bytes() {
        // The rendered response is resident beside the rows, so the result
        // budget must see every byte of it: heap_bytes grows by exactly the
        // head and op-line lengths, and the tier's byte count follows.
        let bare = entry(empty_result(), ExecStats::default(), b"", b"");
        let head = b"OK 0\nCOLS - revenue\n";
        let ops = b"# op cache: result hit | micros=0 keys=0 tuples=0 index=cache mem=0\n";
        let rendered = entry(empty_result(), ExecStats::default(), head, ops);
        assert_eq!(
            rendered.heap_bytes(),
            bare.heap_bytes() + head.len() + ops.len()
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
            std::mem::size_of::<CachedResult>() + bare.heap_bytes() + head.len() + ops.len()
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
                cache.put_result(
                    key,
                    Arc::new(entry(empty_result(), ExecStats::default(), h, o)),
                );
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
    fn prepare_from_parts_shares_sigma_across_queries() {
        let mut ssb = SsbDb::generate(0.01, 42);
        let opts = PlanOptions::default();
        for q in queries::all_queries() {
            prepare_indexes(&mut ssb.db, &q, &opts).unwrap();
        }
        let db = Arc::new(ssb.db);
        let pool = WorkerPool::new(1, 2);
        let engine = PooledEngine::new(db.clone(), pool.clone());
        let cache = QueryCache::default();
        let snap = db.snapshot();

        // Q3.1 cold: builds supplier + date σ (customer is fused).
        let plan31 = Arc::new(build_plan(&db, &queries::q3_1(), &opts).unwrap());
        let (p31, a31) = cache
            .prepare_from_parts(&engine, plan31, &opts, snap, 0)
            .unwrap();
        assert_eq!(a31.shared, 0);
        assert!(a31.built >= 2, "q3.1 materializes supplier and date");

        // Q3.2 shares only the date σ; supplier predicate differs.
        let plan32 = Arc::new(build_plan(&db, &queries::q3_2(), &opts).unwrap());
        let (p32, a32) = cache
            .prepare_from_parts(&engine, plan32, &opts, snap, 0)
            .unwrap();
        assert_eq!(a32.shared, 1, "the date σ must come from the dim tier");
        assert_eq!(a32.built, a31.built - 1);

        // The handles are literally the same allocation.
        let date_of = |p: &PreparedQuery| {
            p.plan
                .dims
                .iter()
                .position(|d| d.table == "date")
                .map(|i| p.dims[i].clone().expect("materialized"))
                .expect("date dim")
        };
        assert!(Arc::ptr_eq(&date_of(&p31), &date_of(&p32)));

        // Both compositions execute byte-identically to fresh runs.
        let oracle = QpptEngine::new(&db);
        for (p, q) in [(&p31, queries::q3_1()), (&p32, queries::q3_2())] {
            let (got, _) = engine.run_prepared(p, 0).unwrap();
            assert_eq!(got, oracle.run(&q, &opts).unwrap(), "{}", q.id);
        }
        let s = cache.stats();
        assert_eq!(s.dims.hits, 1);
        assert_eq!(s.dims.insertions as usize, a31.built + a32.built);
        assert!(s.dims.bytes > 0);
        pool.shutdown();
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
        let (result, stats) = engine.run_with_stats(&q, &opts).unwrap();
        cache.put_result(&fp, Arc::new(entry(result, stats, b"", b"")));
        cache.put_plan(&fp, Arc::new(engine.plan(&q, &opts).unwrap()));
        assert!(cache.get_result(&fp).is_some());
        assert!(cache.get_plan(&fp).is_some());
        assert!(cache.stats().results.bytes > 0);

        // A write to the fact table invalidates on next lookup.
        ssb.db.delete_row("lineorder", 0).unwrap();
        let fp2 = QueryFingerprint::compute(&ssb.db, &q, &opts).unwrap();
        assert!(cache.get_result(&fp2).is_none());
        let s = cache.stats();
        assert_eq!(s.results.invalidations, 1);
        assert_eq!(s.results.hits, 1);
        // The plan tier was never probed with the new fingerprint.
        assert_eq!(s.plans.invalidations, 0);
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
        cache.put_result(
            &fp,
            Arc::new(entry(empty_result(), ExecStats::default(), b"", b"")),
        );
        assert!(cache.get_result(&fp).is_none());
        assert_eq!(cache.stats().results.insertions, 0);

        // Assemble-from-parts still works — it just builds every σ and
        // caches nothing (the cache=off contract covers the dim tier too).
        let db = Arc::new(ssb.db);
        let pool = WorkerPool::new(1, 2);
        let engine = PooledEngine::new(db.clone(), pool.clone());
        let plan = Arc::new(build_plan(&db, &q, &opts).unwrap());
        let (p, a) = cache
            .prepare_from_parts(&engine, plan, &opts, db.snapshot(), 0)
            .unwrap();
        assert_eq!(a.shared, 0);
        assert!(a.built > 0);
        let (got, _) = engine.run_prepared(&p, 0).unwrap();
        assert_eq!(got, QpptEngine::new(&db).run(&q, &opts).unwrap());
        let s = cache.stats();
        assert_eq!((s.dims.insertions, s.dims.hits, s.dims.misses), (0, 0, 0));
        pool.shutdown();
    }
}
