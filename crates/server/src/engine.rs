//! [`ServeEngine`]: the shared, process-wide query service state — one
//! database, one worker pool, one query cache, one table of named-query
//! *aliases* — that every connection handler (and in-process caller)
//! executes against.
//!
//! Since the ad-hoc frontend, **every query is an arbitrary
//! [`QuerySpec`]**: the 13 SSB names are mere aliases resolved by
//! [`resolve`](ServeEngine::resolve), and both `RUN <name>` and
//! `QUERY <text>` converge on the single
//! [`run_spec`](ServeEngine::run_spec) pipeline —
//! **validate → plan → cache → execute**. The validate pass
//! ([`qppt_core::validate`]) turns malformed specs (unknown
//! tables/columns, type mismatches, bad group/order references, indexes
//! the startup preparation never built) into typed
//! [`PlanError`](qppt_core::PlanError)s surfaced as one `ERR` line.
//!
//! Because both cache tiers are keyed on *structure* (not names — see
//! [`fingerprint_dim`](qppt_core::fingerprint_dim)), ad-hoc queries share
//! cached work with named ones: an ad-hoc spec whose date σ matches
//! Q3.1's predicate set hits the dimension tier Q3.1 warmed, and a
//! re-submitted ad-hoc text hits the result tier whatever its `id=` says.
//!
//! The hot path consults the two snapshot-keyed
//! [`QueryCache`](qppt_cache::QueryCache) tiers:
//!
//! 1. **result hit** — return the cached entry without touching the pool,
//!    in either mode: full and `mode=partial` answers both live in the
//!    result tier, kept apart by a mode tag folded into the fingerprint.
//!    The entry holds the answer once, as the response rendered when it
//!    was made (the `OK`/`COLS`/`ROW` or `OK partial`/`COLS`/`P` head and
//!    the `# op` lines a hit answers), so the dispatcher writes those bytes
//!    as they are and formats only `# total_micros=…`; an in-process
//!    caller gets the answer read back from the head by the protocol's own
//!    readers. A miss renders the entry at insertion and writes the same
//!    head bytes, so it still serializes once, and an in-process miss gets
//!    the answer it just finished;
//! 2. **miss** — build the plan (which validates the spec) and check its
//!    indexes, then **assemble from parts**: every `Materialized`
//!    dimension σ is looked up in the *dimension tier* (keyed per
//!    `(table, predicates, carried columns, table version)`, so a σ
//!    materialized by a *different* query hits — Q3.2 reuses the date
//!    selection Q3.1 built); only the missing σ and the query-private
//!    fused stream are materialized, then the query executes and its
//!    finished answer is inserted.
//!
//! There is exactly one pipeline — **plan → σ → exec → finish** — and it
//! is one function: full and `mode=partial` requests differ only in
//! *finish* (decode, or the undecoded aggregate) and in the mode tag of
//! their result-tier key, and `cache=off` requests run the very same code
//! against a disabled cache, so they bypass **both** tiers: every lookup
//! misses, every insert drops, execution is fully independent.
//!
//! Coherence: fingerprints embed per-table versions
//! ([`Database::table_version`]), and the database sits behind an `Arc`
//! while serving — writes need `&mut Database`, so versions cannot move
//! under a running query and stale entries die on their next lookup.

use std::collections::BTreeMap;
use std::io::Read;
use std::sync::Arc;
use std::time::Instant;

use qppt_cache::{
    render_tier_stats, CacheConfig, CacheStats, CachedResult, QueryCache, QueryFingerprint,
};
use qppt_core::plan::DimHandleKind;
use qppt_core::{
    BatchMode, ExecStats, Fnv64, OpStats, PartialAggregate, Plan, PlanOptions, PreparedQuery,
    QpptEngine, QpptError,
};
use qppt_obs::Trace;
use qppt_par::{prepare_indexes_pooled, PooledEngine, WorkerPool};
use qppt_ssb::{queries, SsbDb};
use qppt_storage::{Database, QueryResult, QuerySpec, Snapshot};

use crate::obs::{elapsed_micros, ServeObs};
use crate::protocol::{
    parse_partial_status, read_partial_body, read_run_body, read_status, write_op_lines,
    write_partial_head, write_run_head, RunControls,
};

/// Domain-separation tag folded into the result-tier key of a
/// `mode=partial` request, so a query's partial entry and its full entry
/// never share a slot.
const PARTIAL_TAG: u64 = 0x7061_7274_6961_6c21; // "partial!"

/// Static facts about the serving instance, reported by `INFO`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeInfo {
    /// SSB scale factor the database was generated at.
    pub sf: f64,
    /// Generator seed.
    pub seed: u64,
    /// Worker-pool threads.
    pub pool_threads: usize,
    /// Admission budget (max concurrently executing queries).
    pub admission: usize,
    /// Detected hardware parallelism (1 means intra-query speedups are
    /// impossible on this host).
    pub cores: usize,
    /// Fact (`lineorder`) rows this instance holds — the shard's share in
    /// a sharded deployment, the whole table otherwise.
    pub rows: usize,
    /// Shard index this instance owns (0 for an unsharded server).
    pub shard: usize,
    /// Total shard count of the deployment (1 for an unsharded server).
    pub shards: usize,
    /// Replica ordinal within the shard's replica set (0 for the primary
    /// or an unreplicated deployment). Replicas of one shard serve the
    /// identical fact partition; the ordinal only localizes errors and
    /// `INFO` output.
    pub replica: usize,
}

/// The shared query-service engine (see module docs). Wrap it in an
/// [`Arc`] and hand clones to connection handlers; everything inside is
/// already shared.
#[derive(Debug)]
pub struct ServeEngine {
    engine: PooledEngine,
    queries: BTreeMap<String, QuerySpec>,
    defaults: PlanOptions,
    info: ServeInfo,
    cache: Arc<QueryCache>,
    /// The disabled cache `cache=off` requests run the pipeline against.
    bypass: QueryCache,
    started: Instant,
    obs: Option<Arc<ServeObs>>,
}

impl ServeEngine {
    /// Generates an SSB instance at `sf`/`seed`, prepares every index the
    /// 13 queries need (on the pool when
    /// [`par_index_build`](PlanOptions::par_index_build) is set in
    /// `defaults`), and registers the queries by lowercase id
    /// (`"q1.1"` … `"q4.3"`).
    pub fn with_ssb(
        sf: f64,
        seed: u64,
        pool: Arc<WorkerPool>,
        defaults: PlanOptions,
    ) -> Result<Self, QpptError> {
        Self::with_ssb_shard(sf, seed, pool, defaults, 0, 1)
    }

    /// [`with_ssb`](Self::with_ssb) for shard `shard` of `shards`: the
    /// generator keeps only the fact rows whose `lo_orderdate` falls in
    /// [`qppt_ssb::shard_bounds`]`(shard, shards)` (dimension tables are
    /// replicated in full), and `INFO` reports the shard position.
    pub fn with_ssb_shard(
        sf: f64,
        seed: u64,
        pool: Arc<WorkerPool>,
        defaults: PlanOptions,
        shard: usize,
        shards: usize,
    ) -> Result<Self, QpptError> {
        let mut ssb = SsbDb::generate_shard(sf, seed, shard, shards);
        for q in queries::all_queries() {
            prepare_indexes_pooled(&mut ssb.db, &q, &defaults, &pool)?;
        }
        Ok(
            Self::over_db(Arc::new(ssb.db), pool, defaults, sf, seed)
                .with_shard_info(shard, shards),
        )
    }

    /// Stamps the shard position reported by `INFO` (builder-style, for
    /// callers that assemble the engine via the `over_db*` constructors).
    pub fn with_shard_info(mut self, shard: usize, shards: usize) -> Self {
        self.info.shard = shard;
        self.info.shards = shards;
        self
    }

    /// Stamps the replica ordinal reported by `INFO` (builder-style) —
    /// `--replica <j>` on the binary. Purely descriptive: replicas serve
    /// identical data.
    pub fn with_replica_info(mut self, replica: usize) -> Self {
        self.info.replica = replica;
        self
    }

    /// Serves an already prepared database (indexes for every registered
    /// query must exist) with a default-capacity query cache. `sf`/`seed`
    /// are only echoed through `INFO`.
    pub fn over_db(
        db: Arc<Database>,
        pool: Arc<WorkerPool>,
        defaults: PlanOptions,
        sf: f64,
        seed: u64,
    ) -> Self {
        Self::over_db_with_cache(
            db,
            pool,
            defaults,
            sf,
            seed,
            Arc::new(QueryCache::default()),
        )
    }

    /// [`over_db`](Self::over_db) with the cache built from an explicit
    /// [`CacheConfig`] — byte budgets per tier, idle TTL, or
    /// [`CacheConfig::disabled`] to serve uncached.
    pub fn over_db_with_config(
        db: Arc<Database>,
        pool: Arc<WorkerPool>,
        defaults: PlanOptions,
        sf: f64,
        seed: u64,
        config: CacheConfig,
    ) -> Self {
        Self::over_db_with_cache(
            db,
            pool,
            defaults,
            sf,
            seed,
            Arc::new(QueryCache::new(config)),
        )
    }

    /// [`over_db`](Self::over_db) with an externally owned cache — so the
    /// cache can outlive engine rebuilds (benches that write between
    /// phases) or be shared/sized by the caller. Pass a cache built from
    /// [`CacheConfig::disabled`](qppt_cache::CacheConfig::disabled) to
    /// serve uncached.
    pub fn over_db_with_cache(
        db: Arc<Database>,
        pool: Arc<WorkerPool>,
        defaults: PlanOptions,
        sf: f64,
        seed: u64,
        cache: Arc<QueryCache>,
    ) -> Self {
        let queries: BTreeMap<String, QuerySpec> = queries::all_queries()
            .into_iter()
            .map(|q| (q.id.to_ascii_lowercase(), q))
            .collect();
        let info = ServeInfo {
            sf,
            seed,
            pool_threads: pool.size(),
            admission: pool.max_active(),
            cores: detected_cores(),
            rows: db
                .table("lineorder")
                .map(|t| t.table().row_count())
                .unwrap_or(0),
            shard: 0,
            shards: 1,
            replica: 0,
        };
        Self {
            engine: PooledEngine::new(db, pool),
            queries,
            defaults,
            info,
            cache,
            bypass: QueryCache::new(CacheConfig::disabled()),
            started: Instant::now(),
            obs: None,
        }
    }

    /// Attaches observability state (builder-style): per-verb request
    /// metrics, the `METRICS` exposition, and the slow-query log. Without
    /// it the engine serves uninstrumented (`--no-obs`).
    pub fn with_obs(mut self, obs: Arc<ServeObs>) -> Self {
        self.obs = Some(obs);
        self
    }

    /// The attached observability state, if any.
    pub fn obs(&self) -> Option<&Arc<ServeObs>> {
        self.obs.as_ref()
    }

    /// Seconds since this engine was constructed (the `INFO`
    /// `uptime_secs=` field).
    pub fn uptime_secs(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// The crate version reported as `build=` by `INFO`.
    pub fn build() -> &'static str {
        env!("CARGO_PKG_VERSION")
    }

    /// Renders the Prometheus exposition (`METRICS` verb): registry
    /// families plus cache-tier families from the same snapshot `CACHE
    /// STATS` reads. `None` when serving without observability.
    pub fn render_metrics(&self) -> Option<String> {
        self.obs.as_ref().map(|o| o.render(&self.cache_stats()))
    }

    /// The serving descriptor.
    pub fn info(&self) -> ServeInfo {
        self.info
    }

    /// The per-table version vector in catalog order — the `versions=`
    /// field of `INFO`/`PING` that the router's cache probes read. Cheap
    /// by construction (one `Vec` read per table, no rendering of rows or
    /// plans), so probing it every `--cache-probe-interval-ms` costs the
    /// shard nothing measurable. Catalog order is deterministic across
    /// replicas of a shard: every replica loads the same tables in the
    /// same generator order.
    pub fn version_vector(&self) -> Vec<u64> {
        let db = self.engine.db();
        (0..db.table_names().count())
            .map(|i| db.table_version_at(i))
            .collect()
    }

    /// [`version_vector`](Self::version_vector) rendered as the wire form:
    /// comma-separated versions in catalog order.
    pub fn versions_field(&self) -> String {
        self.version_vector()
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",")
    }

    /// The default plan options overrides are applied on top of.
    pub fn defaults(&self) -> PlanOptions {
        self.defaults
    }

    /// The underlying pooled engine.
    pub fn pooled(&self) -> &PooledEngine {
        &self.engine
    }

    /// Registered alias names, in order.
    pub fn query_names(&self) -> Vec<&str> {
        self.queries.keys().map(String::as_str).collect()
    }

    /// The spec registered under `name` (lowercase id).
    pub fn query(&self, name: &str) -> Option<&QuerySpec> {
        self.queries.get(name)
    }

    /// Resolves a named-query alias to its spec — the *only* thing a name
    /// does; everything downstream operates on the spec.
    pub fn resolve(&self, name: &str) -> Result<&QuerySpec, ServeError> {
        self.queries
            .get(name)
            .ok_or_else(|| ServeError::UnknownQuery(name.to_string()))
    }

    /// The shared query cache.
    pub fn cache(&self) -> &Arc<QueryCache> {
        &self.cache
    }

    /// Counters of all cache tiers.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drops every cached entry (the `CACHE CLEAR` command).
    pub fn cache_clear(&self) {
        self.cache.clear();
    }

    /// Drops only the dimension tier (the `CACHE CLEAR dims` command).
    pub fn cache_clear_dims(&self) {
        self.cache.clear_dims();
    }

    /// Runs a named query (an alias, see [`resolve`](Self::resolve)) on
    /// the shared pool, through the query cache. `opts` is the fully
    /// resolved option set (defaults + overrides, see
    /// [`apply_overrides`](crate::protocol::apply_overrides)); `priority`
    /// orders this query against concurrent ones for idle workers.
    pub fn run(
        &self,
        name: &str,
        opts: &PlanOptions,
        priority: i32,
    ) -> Result<(QueryResult, ExecStats), ServeError> {
        self.run_cached(name, opts, priority, true)
    }

    /// [`run`](Self::run) with an explicit cache switch (`use_cache =
    /// false` is the per-request `cache=off` bypass: no lookups, no
    /// insertions).
    pub fn run_cached(
        &self,
        name: &str,
        opts: &PlanOptions,
        priority: i32,
        use_cache: bool,
    ) -> Result<(QueryResult, ExecStats), ServeError> {
        self.run_spec(self.resolve(name)?, opts, priority, use_cache)
    }

    /// **The** serving pipeline in full mode — named aliases and ad-hoc
    /// `QUERY` specs both land here: validate → plan → cache tiers →
    /// execute on the pool → decode. Malformed user-supplied specs (unknown
    /// tables/columns, type mismatches, bad group/order indices, predicates
    /// on columns the startup index preparation never saw) fail with one
    /// typed [`ServeError`] before any execution work happens — but
    /// validation is folded into the *miss* path, so result hits pay
    /// nothing for it: a hit's entry can only have been inserted by a
    /// previous validated execution of the same `(instance, structure,
    /// options, versions)` key, which makes re-validating it pure overhead
    /// (the frontend's warm throughput would otherwise drop measurably; see
    /// the `served_hit` workload of `BENCHMARK.json`).
    pub fn run_spec(
        &self,
        spec: &QuerySpec,
        opts: &PlanOptions,
        priority: i32,
        use_cache: bool,
    ) -> Result<(QueryResult, ExecStats), ServeError> {
        let controls = RunControls {
            priority,
            use_cache,
            ..RunControls::default()
        };
        match self.run_finished(spec, opts, &controls)? {
            (Finished::Rows(result), stats) => Ok((result, stats)),
            (Finished::Partial(_), _) => unreachable!("full mode finishes with a decoded result"),
        }
    }

    /// The serving pipeline in partial mode (`mode=partial` — what shards
    /// run for `qppt-router`): the same pipeline as
    /// [`run_spec`](Self::run_spec), but *finish* stops at the finished
    /// aggregation run, serialized as a [`PartialAggregate`] for the
    /// router to merge and order. Both tiers participate exactly as in
    /// full mode: a shard-local σ family warmed by one routed query is
    /// shared with the next, and a repeat at unchanged versions is a
    /// result-tier hit that returns the entry's aggregate (with the
    /// `cache: result hit` op appended, as [`run_spec`](Self::run_spec)
    /// does). The result-tier key carries a mode tag, so a partial entry
    /// never answers a full request, nor the reverse.
    pub fn run_spec_partial(
        &self,
        spec: &QuerySpec,
        opts: &PlanOptions,
        priority: i32,
        use_cache: bool,
    ) -> Result<(PartialAggregate, ExecStats), ServeError> {
        let controls = RunControls {
            priority,
            use_cache,
            partial: true,
            ..RunControls::default()
        };
        match self.run_finished(spec, opts, &controls)? {
            (Finished::Partial(partial), stats) => Ok((partial, stats)),
            (Finished::Rows(_), _) => unreachable!("partial mode finishes with the aggregate"),
        }
    }

    /// [`serve`](Self::serve) for in-process callers: the finished answer
    /// and its stats — on a result hit the answer read back from the
    /// entry's head and the producing execution's operators plus the
    /// result-hit record, as the wire answers them.
    fn run_finished(
        &self,
        spec: &QuerySpec,
        opts: &PlanOptions,
        controls: &RunControls,
    ) -> Result<(Finished, ExecStats), ServeError> {
        match self.serve(spec, opts, controls, None)? {
            (Answer::Hit(entry), stats) => {
                let finished = Finished::read(&entry.head);
                let mut hit = entry.stats.clone();
                hit.push(result_hit_op(finished.rows()));
                hit.total_micros = stats.total_micros;
                Ok((finished, hit))
            }
            (Answer::Cold(finished, _) | Answer::Bypass(finished), stats) => Ok((finished, stats)),
        }
    }

    /// The one pipeline behind [`run_spec`](Self::run_spec),
    /// [`run_spec_partial`](Self::run_spec_partial) and the TCP dispatcher,
    /// with one miss path: fingerprint → result tier → plan (validating the
    /// spec and its indexes) → σ from the dimension tier, the missing ones
    /// built → exec → finish → insert. `controls.partial` picks the finish
    /// step and tags the result-tier key; `controls.use_cache = false` (the
    /// per-request `cache=off`) runs the same code against a disabled
    /// cache. `trace` (made by the caller from `controls.trace`) collects
    /// the request's span tree — `plan | sigma | exec | decode`, or
    /// `result_cache` on a result-tier hit, under the root `request` span
    /// the caller finishes; answer bytes are identical with and without it
    /// — spans only ride as extra `#` lines.
    ///
    /// With the cache on the answer is the entry a hit found
    /// ([`Answer::Hit`]), or the answer a miss just finished beside the
    /// entry it rendered and inserted ([`Answer::Cold`]). On a hit the
    /// returned stats carry only `total_micros` — the entry's rendered op
    /// lines are the hit's operator list.
    pub(crate) fn serve(
        &self,
        spec: &QuerySpec,
        opts: &PlanOptions,
        controls: &RunControls,
        trace: Option<&mut Trace>,
    ) -> Result<(Answer, ExecStats), ServeError> {
        let db = self.engine.db();
        let RunControls {
            priority,
            use_cache,
            partial,
            ..
        } = *controls;
        let cache = if use_cache {
            &*self.cache
        } else {
            &self.bypass
        };
        let started = Instant::now();
        let mut fp = match QueryFingerprint::compute(db, spec, opts) {
            Ok(fp) => fp,
            // Fingerprinting fails only on catalog errors (unknown
            // tables); prefer the validate pass's typed report.
            Err(e) => {
                qppt_core::validate(db, spec, opts).map_err(ServeError::Engine)?;
                return Err(ServeError::Engine(QpptError::Storage(e)));
            }
        };
        if partial {
            fp.key = Fnv64::new()
                .write_u64(PARTIAL_TAG)
                .write_u64(fp.key)
                .finish();
        }

        // Result tier: served without touching the pool.
        if let Some(hit) = cache.get_result(&fp) {
            let stats = ExecStats {
                ops: Vec::new(),
                total_micros: started.elapsed().as_micros(),
            };
            if let Some(t) = trace {
                t.add(t.root(), "result_cache", elapsed_micros(started));
            }
            return Ok((Answer::Hit(hit), stats));
        }

        // Plan: build_plan runs the catalog validation itself (typed
        // errors first — an unknown column beats a missing index on that
        // column); the index-availability check layers on top before any
        // materialization, execution, or caching.
        let plan_started = Instant::now();
        let plan = Arc::new(qppt_core::build_plan(db, spec, opts).map_err(ServeError::Engine)?);
        qppt_core::validate_indexes(db, spec, opts).map_err(ServeError::Engine)?;
        let plan_micros = elapsed_micros(plan_started);

        // σ: shared handles out of the dimension tier, the missing ones
        // materialized (on the pool when several remain) and cached.
        let sigma_started = Instant::now();
        let (prepared, assembly) = self
            .prepare_from_parts(cache, plan, opts, db.snapshot(), priority)
            .map_err(ServeError::Engine)?;
        let sigma_micros = elapsed_micros(sigma_started);

        // Exec.
        let exec_started = Instant::now();
        let (run, mut stats) = self
            .engine
            .run_prepared_agg(&prepared, priority, BatchMode)
            .map_err(ServeError::Engine)?;
        let exec_micros = elapsed_micros(exec_started);

        // Finish — the only mode-dependent step.
        let decode_started = Instant::now();
        let finished = if partial {
            Finished::Partial(PartialAggregate::from_agg(db, &prepared.plan, &run))
        } else {
            Finished::Rows(qppt_core::exec::decode_result(db, &prepared.plan, &run))
        };
        if let Some(t) = trace {
            t.add(t.root(), "plan", plan_micros);
            t.add(t.root(), "sigma", sigma_micros);
            t.add(t.root(), "exec", exec_micros);
            t.add(t.root(), "decode", elapsed_micros(decode_started));
        }
        if !cache.enabled() {
            stats.total_micros = started.elapsed().as_micros();
            return Ok((Answer::Bypass(finished), stats));
        }
        let entry = Arc::new(cache_entry(&finished, &stats));
        cache.put_result(&fp, entry.clone());
        stats.push(cache_op(Outcome::Cold.label(), finished.rows()));
        push_assembly_op(&mut stats, assembly);
        stats.total_micros = started.elapsed().as_micros();
        Ok((Answer::Cold(finished, entry), stats))
    }

    /// Composes a [`PreparedQuery`] for an already-built plan in three
    /// steps: **lookup** — every `Materialized` dimension is served from
    /// the dimension tier when a version-fresh σ entry exists (whoever
    /// built it); **σ** — the misses go through the engine's shared
    /// [`materialize_missing_dims`](PooledEngine::materialize_missing_dims)
    /// step (one pool job when several remain); **put** — what was built is
    /// cached for the next query. Only the query-private fused stream is
    /// always built. With the cache disabled the lookups miss and the puts
    /// drop, so every σ is built and nothing is cached.
    fn prepare_from_parts(
        &self,
        cache: &QueryCache,
        plan: Arc<Plan>,
        opts: &PlanOptions,
        snap: Snapshot,
        priority: i32,
    ) -> Result<(PreparedQuery, DimAssembly), QpptError> {
        let db = self.engine.db();
        let mut dims = vec![None; plan.dims.len()];
        let mut misses = Vec::new();
        for (di, dim) in plan.dims.iter().enumerate() {
            if dim.handle != DimHandleKind::Materialized {
                continue;
            }
            let dfp = QueryFingerprint::compute_dim(db, dim, opts).map_err(QpptError::Storage)?;
            match cache.get_dim(&dfp) {
                Some(shared) => dims[di] = Some(shared),
                None => misses.push((di, dfp)),
            }
        }
        let assembly = DimAssembly {
            shared: dims.iter().flatten().count(),
            built: misses.len(),
        };
        let dims = self
            .engine
            .materialize_missing_dims(&plan, snap, priority, dims)?;
        for (di, dfp) in &misses {
            let built = dims[*di].clone().expect("Materialized dims materialize");
            cache.put_dim(dfp, built);
        }
        Ok((PreparedQuery::from_parts(db, plan, dims, snap)?, assembly))
    }

    /// Renders the physical plan of a named query under the default
    /// options.
    pub fn explain(&self, name: &str) -> Result<String, ServeError> {
        let defaults = self.defaults;
        self.explain_spec(self.resolve(name)?, &defaults)
    }

    /// Renders the physical plan of an arbitrary spec (the inline
    /// `EXPLAIN` form). Planning itself performs the catalog validation;
    /// index availability is checked on top so `EXPLAIN` agrees with
    /// `QUERY` about whether the query can actually run.
    pub fn explain_spec(&self, spec: &QuerySpec, opts: &PlanOptions) -> Result<String, ServeError> {
        let db = self.engine.db();
        let rendered = QpptEngine::new(db)
            .explain(spec, opts)
            .map_err(ServeError::Engine)?;
        qppt_core::validate_indexes(db, spec, opts).map_err(ServeError::Engine)?;
        Ok(rendered)
    }
}

/// What a query's *finish* step produced: the decoded, ordered rows of a
/// full request, or the undecoded aggregate a `mode=partial` request
/// answers for the router to merge.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Finished {
    Rows(QueryResult),
    Partial(PartialAggregate),
}

impl Finished {
    /// Rows (full) or groups (partial) answered.
    pub(crate) fn rows(&self) -> usize {
        match self {
            Finished::Rows(r) => r.rows.len(),
            Finished::Partial(p) => p.groups.len(),
        }
    }

    /// The answer a rendered response head holds, read back by the
    /// readers clients and the router run on the wire: a `RUN` head reads
    /// as rows, an `OK partial` one as the aggregate.
    fn read(head: &[u8]) -> Finished {
        const READS_BACK: &str = "a result-tier head reads back as the answer it was rendered from";
        let mut r = head.chain(&b"END\n"[..]);
        let status = read_status(&mut r).expect(READS_BACK);
        let read = match parse_partial_status(&status) {
            Some(groups) => read_partial_body(&mut r, groups).map(|(p, _)| Finished::Partial(p)),
            None => {
                let rows = status.parse().expect(READS_BACK);
                read_run_body(&mut r, rows).map(|(rows, _)| Finished::Rows(rows))
            }
        };
        read.expect(READS_BACK)
    }
}

/// A served answer.
#[derive(Debug)]
pub(crate) enum Answer {
    /// A result-tier hit: the entry, whose rendered head is the response
    /// head.
    Hit(Arc<CachedResult>),
    /// A miss with the cache on: the answer the finish step produced, and
    /// the entry rendered from it and inserted.
    Cold(Finished, Arc<CachedResult>),
    /// Under `cache=off`: what the finish step produced, rendered per
    /// request.
    Bypass(Finished),
}

impl Answer {
    /// Where the answer came from.
    pub(crate) fn outcome(&self) -> Outcome {
        match self {
            Answer::Hit(_) => Outcome::ResultHit,
            Answer::Cold(..) => Outcome::Cold,
            Answer::Bypass(_) => Outcome::Bypass,
        }
    }
}

/// Where a served answer came from: a result-tier hit, a miss that ran
/// the pipeline (`Cold`), or `Bypass` when the request ran against a
/// disabled cache. The `# op cache: …` line and the `METRICS SLOW`
/// outcome are both its [`label`](Outcome::label).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    ResultHit,
    Cold,
    Bypass,
}

impl Outcome {
    pub(crate) fn label(self) -> &'static str {
        match self {
            Outcome::ResultHit => "cache: result hit",
            Outcome::Cold => "cache: cold",
            Outcome::Bypass => "bypass",
        }
    }
}

/// How a prepared query's dimension handles were obtained from the
/// dimension tier during assemble-from-parts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct DimAssembly {
    /// σ handles served from the dimension tier (shared — possibly
    /// materialized by a *different* query).
    shared: usize,
    /// σ handles materialized now (and inserted for the next query).
    built: usize,
}

/// The `# op` record a result-tier hit of `rows` rows (or groups) appends
/// to the cached execution's operators.
fn result_hit_op(rows: usize) -> OpStats {
    cache_op(Outcome::ResultHit.label(), rows)
}

/// The result-tier entry of a finished answer: the stats of the execution
/// that produced it and the bytes a hit writes — the response head of its
/// mode, which is the entry's one copy of the answer, and the op lines
/// (those operators, then the result-hit record) — rendered here, once, by
/// the protocol's own writers.
fn cache_entry(finished: &Finished, stats: &ExecStats) -> CachedResult {
    let (mut head, mut hit_ops) = (Vec::new(), Vec::new());
    match finished {
        Finished::Rows(result) => write_run_head(&mut head, result),
        Finished::Partial(partial) => write_partial_head(&mut head, partial),
    }
    .and_then(|()| write_op_lines(&mut hit_ops, &stats.ops))
    .and_then(|()| write_op_lines(&mut hit_ops, &[result_hit_op(finished.rows())]))
    .expect("writing to a Vec cannot fail");
    debug_assert_eq!(&Finished::read(&head), finished, "the head reads back");
    CachedResult {
        stats: stats.clone(),
        head: head.into(),
        hit_ops: hit_ops.into(),
    }
}

/// Appends the dimension-assembly `# op` record, when σ work happened.
fn push_assembly_op(stats: &mut ExecStats, a: DimAssembly) {
    if a.shared + a.built > 0 {
        // keys = σ served from the dim tier, tuples = σ built now.
        let mut op = cache_op(
            &format!("cache: dims {} shared / {} built", a.shared, a.built),
            a.shared,
        );
        op.out_tuples = a.built;
        stats.push(op);
    }
}

/// A synthetic operator record surfacing a cache event through
/// [`ExecStats`] (rendered as a `# op` line in `RUN` responses).
fn cache_op(label: &str, rows: usize) -> OpStats {
    OpStats {
        label: label.to_string(),
        out_keys: rows,
        out_tuples: rows,
        index_kind: "cache".to_string(),
        memory_bytes: 0,
        micros: 0,
    }
}

/// Renders [`CacheStats`] as the one-line `key=value` body of a
/// `CACHE STATS` response: every [`TIER_FIELDS`](qppt_cache::TIER_FIELDS)
/// counter of the result tier, then of the dim tier.
pub fn render_cache_stats(s: &CacheStats) -> String {
    render_tier_stats(&s.tiers())
}

/// Detected hardware parallelism (1 when the probe fails).
pub fn detected_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Service-level errors (all reported to clients as `ERR` lines).
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    UnknownQuery(String),
    Engine(QpptError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownQuery(q) => {
                write!(f, "unknown query {q} (LIST shows the registered names)")
            }
            ServeError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use qppt_core::{build_plan, prepare_indexes};

    fn engine_over_ssb(config: CacheConfig) -> (ServeEngine, Arc<WorkerPool>) {
        let mut ssb = SsbDb::generate(0.01, 42);
        let opts = PlanOptions::default();
        for q in queries::all_queries() {
            prepare_indexes(&mut ssb.db, &q, &opts).unwrap();
        }
        let pool = WorkerPool::new(1, 2);
        let engine = ServeEngine::over_db_with_config(
            Arc::new(ssb.db),
            pool.clone(),
            opts,
            0.01,
            42,
            config,
        );
        (engine, pool)
    }

    #[test]
    fn prepare_from_parts_shares_sigma_across_queries() {
        let (engine, pool) = engine_over_ssb(CacheConfig::default());
        let (db, cache) = (engine.pooled().db(), engine.cache());
        let opts = PlanOptions::default();
        let snap = db.snapshot();

        // Q3.1 cold: builds supplier + date σ (customer is fused).
        let plan31 = Arc::new(build_plan(db, &queries::q3_1(), &opts).unwrap());
        let (p31, a31) = engine
            .prepare_from_parts(cache, plan31, &opts, snap, 0)
            .unwrap();
        assert_eq!(a31.shared, 0);
        assert!(a31.built >= 2, "q3.1 materializes supplier and date");

        // Q3.2 shares only the date σ; supplier predicate differs.
        let plan32 = Arc::new(build_plan(db, &queries::q3_2(), &opts).unwrap());
        let (p32, a32) = engine
            .prepare_from_parts(cache, plan32, &opts, snap, 0)
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
        let oracle = QpptEngine::new(db);
        for (p, q) in [(&p31, queries::q3_1()), (&p32, queries::q3_2())] {
            let (got, _) = engine.pooled().run_prepared(p, 0).unwrap();
            assert_eq!(got, oracle.run(&q, &opts).unwrap(), "{}", q.id);
        }
        let s = cache.stats();
        assert_eq!(s.dims.hits, 1);
        assert_eq!(s.dims.insertions as usize, a31.built + a32.built);
        assert!(s.dims.bytes > 0);
        pool.shutdown();
    }

    #[test]
    fn result_entries_bill_the_bytes_they_store() {
        // An entry holds its answer once, as the rendered head: it bills
        // the head and the hit's op lines plus a fixed amount per operator
        // record, however many rows the answer has, in either mode.
        use qppt_cache::HeapSize;
        let (engine, pool) = engine_over_ssb(CacheConfig::default());
        let opts = PlanOptions::default();
        for q in queries::all_queries() {
            for partial in [false, true] {
                let controls = RunControls {
                    partial,
                    ..RunControls::default()
                };
                let before = engine.cache_stats().results.bytes;
                let (answer, _) = engine.serve(&q, &opts, &controls, None).unwrap();
                let Answer::Cold(finished, entry) = answer else {
                    panic!("{}: a first run misses", q.id);
                };
                let stored = entry.head.len() + entry.hit_ops.len();
                let billed = entry.heap_bytes();
                let ops = entry.stats.ops.len();
                assert!(ops <= 16, "{} partial={partial}: {ops} operators", q.id);
                assert!(
                    (stored..=stored + 96 * ops).contains(&billed),
                    "{} partial={partial}: billed {billed} for {stored} stored",
                    q.id
                );
                assert_eq!(
                    engine.cache_stats().results.bytes - before,
                    std::mem::size_of::<CachedResult>() + billed
                );
                assert_eq!(Finished::read(&entry.head), finished, "{}", q.id);
            }
        }
        pool.shutdown();
    }

    #[test]
    fn prepare_from_parts_over_a_disabled_cache_builds_every_sigma() {
        // The cache=off contract covers the dim tier too: every σ is built
        // and nothing is cached.
        let (engine, pool) = engine_over_ssb(CacheConfig::disabled());
        let (db, cache) = (engine.pooled().db(), engine.cache());
        let opts = PlanOptions::default();
        let q = queries::q2_1();
        let plan = Arc::new(build_plan(db, &q, &opts).unwrap());
        let (p, a) = engine
            .prepare_from_parts(cache, plan, &opts, db.snapshot(), 0)
            .unwrap();
        assert_eq!(a.shared, 0);
        assert!(a.built > 0);
        let (got, _) = engine.pooled().run_prepared(&p, 0).unwrap();
        assert_eq!(got, QpptEngine::new(db).run(&q, &opts).unwrap());
        let s = cache.stats();
        assert_eq!((s.dims.insertions, s.dims.hits, s.dims.misses), (0, 0, 0));
        pool.shutdown();
    }
}
