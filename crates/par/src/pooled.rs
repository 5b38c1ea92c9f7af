//! [`PooledEngine`]: the parallel engine — same plans, same byte-identical
//! results as the sequential oracle
//! [`QpptEngine`](qppt_core::QpptEngine), executed on a persistent shared
//! [`WorkerPool`].
//!
//! N concurrent queries submit their morsel queues and their
//! dimension-selection tasks as [`PoolJob`]s; the pool's fixed workers
//! interleave them under the priority/admission policy. Total threads are
//! bounded by the pool size, not queries × parallelism — the property
//! `qppt-server` is built on.
//!
//! There is one fact-pipeline path: a morsel job whose participants drain
//! a list of [`KeyRange`] morsels. How wide it runs is decided per query,
//! at admission:
//!
//! * **The grant** — a query asks the pool for
//!   [`pipeline_participants`](PooledEngine::pipeline_participants) cores
//!   and gets the smaller of that and the cores its load leaves free
//!   ([`WorkerPool::grant`]). `parallelism` is an upper bound: a lone
//!   query runs on every core, while under concurrent load each query
//!   gets one. Splitting a query shortens its span by spending extra work
//!   (partition, merge, wakeups), which pays only on idle cores.
//! * **One core is the one-morsel case** — a query granted one core (or
//!   allowed one: `parallelism = 1`) gets the one morsel
//!   [`KeyRange::full`] and is worked on the calling (connection) thread,
//!   counted by the pool as running ([`WorkerPool::run_inline`]): no
//!   partition, no job, no wakeup.
//! * **More cores: caller participation** — the query partitions its key
//!   domain and submits the job with [`WorkerPool::run_participating`]:
//!   the calling thread starts pulling morsels immediately and pool
//!   workers join into the free cores it was granted.
//!
//! The σ step takes the same grant for its per-dimension tasks.
//!
//! There is one pipeline. [`run_at`](PooledEngine::run_at) is plan → σ
//! ([`materialize_missing_dims`](PooledEngine::materialize_missing_dims))
//! → [`run_prepared`](PooledEngine::run_prepared); the serving layer runs
//! the same steps with cache lookups in between — a σ found in the
//! `qppt-cache` dimension tier is simply not *missing*, and a cached
//! [`PreparedQuery`](qppt_core::PreparedQuery) skips straight to
//! `run_prepared`. The prepared `InterTable`s are shared read-only across
//! every morsel participant of every execution.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use qppt_core::exec::{
    decode_result, materialize_dim_selection, record_join_group, DimSelection, FusedSelection,
};
use qppt_core::inter::{AggTable, GroupRun};
use qppt_core::plan::DimHandleKind;
use qppt_core::{
    build_plan, BatchMode, ExecStats, KeyRange, Plan, PlanOptions, PreparedQuery, QpptError,
};
use qppt_storage::{Database, QueryResult, QuerySpec, Snapshot};

use crate::partition_morsels;
use crate::pool::{PoolJob, WorkerPool};
use crate::scheduler::{drain_morsels, merge_partials};

/// The shared-pool QPPT engine (see module docs). Cheap to clone; clones
/// share the database and the pool.
#[derive(Debug, Clone)]
pub struct PooledEngine {
    db: Arc<Database>,
    pool: Arc<WorkerPool>,
}

impl PooledEngine {
    /// Creates an engine over a shared database and worker pool.
    pub fn new(db: Arc<Database>, pool: Arc<WorkerPool>) -> Self {
        Self { db, pool }
    }

    /// The shared database.
    pub fn db(&self) -> &Arc<Database> {
        &self.db
    }

    /// The shared worker pool.
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Runs a query at the latest snapshot (priority 0).
    pub fn run(&self, spec: &QuerySpec, opts: &PlanOptions) -> Result<QueryResult, QpptError> {
        Ok(self.run_with_stats(spec, opts)?.0)
    }

    /// Runs a query, returning merged per-operator statistics (priority 0).
    pub fn run_with_stats(
        &self,
        spec: &QuerySpec,
        opts: &PlanOptions,
    ) -> Result<(QueryResult, ExecStats), QpptError> {
        self.run_at(spec, opts, self.db.snapshot(), 0)
    }

    /// Runs a query at an explicit snapshot with an explicit pool priority
    /// (higher preempts lower for idle workers; in-flight morsels are never
    /// preempted): plan → σ → [`run_prepared`](Self::run_prepared).
    pub fn run_at(
        &self,
        spec: &QuerySpec,
        opts: &PlanOptions,
        snap: Snapshot,
        priority: i32,
    ) -> Result<(QueryResult, ExecStats), QpptError> {
        let started = Instant::now();
        let plan = Arc::new(build_plan(&self.db, spec, opts)?);
        let none = vec![None; plan.dims.len()];
        let dims = self.materialize_missing_dims(&plan, snap, priority, none)?;
        let prepared = PreparedQuery::from_parts(&self.db, plan, dims, snap)?;
        let (result, mut stats) = self.run_prepared(&prepared, priority)?;
        stats.total_micros = started.elapsed().as_micros();
        Ok((result, stats))
    }

    /// **The σ step** of every execution path: materializes the dimension
    /// selections still missing from `dims` — one slot per plan dimension,
    /// `Some` where the caller already holds the σ (a dimension-tier hit),
    /// `None` otherwise; all `None` for an uncached run — and returns the
    /// completed slots (`Some` exactly for the `Materialized` handles).
    ///
    /// The selections are one task each. The query asks the pool for as
    /// many cores as it has tasks, up to
    /// [`pipeline_participants`](Self::pipeline_participants); granted more
    /// than one, the tasks run as one participating pool job, otherwise
    /// the same task loop runs on the calling thread. Each σ depends only
    /// on its own dimension table, so what is built never depends on what
    /// arrived pre-built, nor on who built it.
    pub fn materialize_missing_dims(
        &self,
        plan: &Arc<Plan>,
        snap: Snapshot,
        priority: i32,
        dims: Vec<Option<Arc<DimSelection>>>,
    ) -> Result<Vec<Option<Arc<DimSelection>>>, QpptError> {
        debug_assert_eq!(dims.len(), plan.dims.len());
        let tasks: Vec<usize> = (0..plan.dims.len())
            .filter(|&di| plan.dims[di].handle == DimHandleKind::Materialized && dims[di].is_none())
            .collect();
        if tasks.is_empty() {
            return Ok(dims);
        }
        let cores = self.pool.grant(
            self.pipeline_participants(plan.opts.parallelism)
                .min(tasks.len()),
        );
        let job = Arc::new(DimJob {
            db: self.db.clone(),
            snap,
            plan: plan.clone(),
            max_workers: cores,
            tasks,
            next: AtomicUsize::new(0),
            results: Mutex::new(dims),
            error: Mutex::new(None),
            aborted: AtomicBool::new(false),
        });
        self.run_job(cores, &job, priority)?;
        if let Some(e) = job.error.lock().expect("job lock").take() {
            return Err(e);
        }
        let dims = std::mem::take(&mut *job.results.lock().expect("job lock"));
        Ok(dims)
    }

    /// Executes a query from prepared, shared state (σ handles possibly
    /// served by the `qppt-cache` dimension tier): no planning, no dimension materialization, no
    /// selection-predicate evaluation — the pipeline runs straight off the
    /// prepared `InterTable`s and fused stream, which are shared (`Arc`)
    /// across concurrent executions.
    ///
    /// Coherence contract (see [`PreparedQuery`]): only call this while
    /// the versions of every table the plan reads are unchanged since the
    /// prepared state was built; execution then happens at the *prepared*
    /// snapshot, which sees the same rows as any current one.
    pub fn run_prepared(
        &self,
        prepared: &PreparedQuery,
        priority: i32,
    ) -> Result<(QueryResult, ExecStats), QpptError> {
        let started = Instant::now();
        let (run, mut stats) = self.run_prepared_agg(prepared, priority, BatchMode)?;
        let result = decode_result(&self.db, &prepared.plan, &run);
        stats.total_micros = started.elapsed().as_micros();
        Ok((result, stats))
    }

    /// Like [`run_prepared`](Self::run_prepared), but stops at the
    /// finished aggregation — the participants' runs, merged — which is the
    /// cached shard-side entry point for partial-aggregate serving.
    ///
    /// The third parameter has no behaviour: it is kept only so the frozen
    /// benchmark's `layers.rs` builds, and goes with [`BatchMode`].
    pub fn run_prepared_agg(
        &self,
        prepared: &PreparedQuery,
        priority: i32,
        _: BatchMode,
    ) -> Result<(GroupRun, ExecStats), QpptError> {
        let started = Instant::now();
        let mut stats = ExecStats {
            ops: prepared.dim_stats(),
            total_micros: 0,
        };
        let (run, pipeline_stats) = self.execute_pipeline(
            prepared.snap,
            &prepared.plan,
            &prepared.dims,
            &prepared.fused,
            priority,
        )?;
        stats.ops.extend(pipeline_stats.ops);
        record_join_group(&prepared.plan, &run, &mut stats);
        stats.total_micros = started.elapsed().as_micros();
        Ok((run, stats))
    }

    /// Participants the fact pipeline of a query at `parallelism` may ask
    /// for, caller included (pool + 1 at most) — what the serving layer
    /// reports as `workers=`. It is the query's upper bound: the pool
    /// [grants](WorkerPool::grant) at most its size, and under load one.
    pub fn pipeline_participants(&self, parallelism: usize) -> usize {
        parallelism.clamp(1, self.pool.size() + 1)
    }

    /// Runs the fact pipeline as a morsel job on the cores the pool
    /// grants. Granted more than one, the job partitions the stage-1 key
    /// domain and runs on the shared pool with the caller participating;
    /// granted one, it is the one-morsel case, worked on the calling
    /// thread — no partition, no handles, no pool wakeups.
    fn execute_pipeline(
        &self,
        snap: Snapshot,
        plan: &Arc<Plan>,
        dim_tables: &Arc<Vec<Option<Arc<DimSelection>>>>,
        fused: &Arc<Option<FusedSelection>>,
        priority: i32,
    ) -> Result<(GroupRun, ExecStats), QpptError> {
        let cores = self
            .pool
            .grant(self.pipeline_participants(plan.opts.parallelism));
        let morsels = if cores > 1 {
            partition_morsels(&self.db, plan)?
        } else {
            vec![KeyRange::full()]
        };
        let job = Arc::new(MorselJob {
            db: self.db.clone(),
            snap,
            plan: plan.clone(),
            dim_tables: dim_tables.clone(),
            fused: fused.clone(),
            max_workers: cores.min(morsels.len()),
            morsels,
            next: AtomicUsize::new(0),
            participants: AtomicUsize::new(0),
            partials: Mutex::new(Vec::new()),
            error: Mutex::new(None),
            aborted: AtomicBool::new(false),
        });
        self.run_job(cores, &job, priority)?;
        if let Some(e) = job.error.lock().expect("job lock").take() {
            return Err(e);
        }
        let partials = std::mem::take(&mut *job.partials.lock().expect("job lock"));
        merge_partials(plan, partials)
    }

    /// Runs `job` on `cores`: with the caller participating in a pool job
    /// when granted more than one, alone on the calling thread otherwise.
    fn run_job<J: PoolJob + 'static>(
        &self,
        cores: usize,
        job: &Arc<J>,
        priority: i32,
    ) -> Result<(), QpptError> {
        if cores > 1 {
            self.pool
                .run_participating(job.clone() as Arc<dyn PoolJob>, priority)
                .map_err(|_| pool_down())
        } else {
            self.pool.run_inline(job.as_ref());
            Ok(())
        }
    }
}

fn pool_down() -> QpptError {
    QpptError::Internal("worker pool shut down while the query was queued".into())
}

/// The fact-pipeline job: a per-query morsel queue on the shared pool.
struct MorselJob {
    db: Arc<Database>,
    snap: Snapshot,
    plan: Arc<Plan>,
    dim_tables: Arc<Vec<Option<Arc<DimSelection>>>>,
    fused: Arc<Option<FusedSelection>>,
    morsels: Vec<KeyRange>,
    /// Atomic morsel dispenser (work pulling).
    next: AtomicUsize,
    /// Participant ids for the deterministic merge order.
    participants: AtomicUsize,
    partials: Mutex<Vec<(usize, AggTable, ExecStats)>>,
    error: Mutex<Option<QpptError>>,
    aborted: AtomicBool,
    max_workers: usize,
}

impl PoolJob for MorselJob {
    fn max_workers(&self) -> usize {
        self.max_workers
    }

    fn has_work(&self) -> bool {
        !self.aborted.load(Ordering::Relaxed)
            && self.next.load(Ordering::Relaxed) < self.morsels.len()
    }

    fn work(&self) {
        let pid = self.participants.fetch_add(1, Ordering::Relaxed);
        match drain_morsels(
            &self.db,
            self.snap,
            &self.plan,
            &self.dim_tables,
            self.fused.as_ref().as_ref(),
            &self.morsels,
            &self.next,
        ) {
            Ok(Some((agg, stats))) => {
                self.partials
                    .lock()
                    .expect("job lock")
                    .push((pid, agg, stats));
            }
            Ok(None) => {}
            Err(e) => {
                self.aborted.store(true, Ordering::Relaxed);
                let mut err = self.error.lock().expect("job lock");
                err.get_or_insert(e);
            }
        }
    }
}

/// The dimension-selection job: one task per missing σ.
struct DimJob {
    db: Arc<Database>,
    snap: Snapshot,
    plan: Arc<Plan>,
    /// Dimension indexes to materialize.
    tasks: Vec<usize>,
    next: AtomicUsize,
    /// Slot per dimension (not per task), so output stays in dim order;
    /// pre-built slots ride along untouched.
    results: Mutex<Vec<Option<Arc<DimSelection>>>>,
    error: Mutex<Option<QpptError>>,
    aborted: AtomicBool,
    max_workers: usize,
}

impl PoolJob for DimJob {
    fn max_workers(&self) -> usize {
        self.max_workers
    }

    fn has_work(&self) -> bool {
        !self.aborted.load(Ordering::Relaxed)
            && self.next.load(Ordering::Relaxed) < self.tasks.len()
    }

    fn work(&self) {
        loop {
            let t = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(&di) = self.tasks.get(t) else {
                break;
            };
            match materialize_dim_selection(&self.db, self.snap, &self.plan, di) {
                Ok(r) => self.results.lock().expect("job lock")[di] = r,
                Err(e) => {
                    self.aborted.store(true, Ordering::Relaxed);
                    let mut err = self.error.lock().expect("job lock");
                    err.get_or_insert(e);
                    break;
                }
            }
        }
    }
}
