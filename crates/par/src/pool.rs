//! The persistent, shared worker pool: std threads created **once**,
//! helping the callers of many concurrent queries with their jobs.
//!
//! Spawning threads per query means N queries × P workers = N×P spawns per
//! batch under concurrent load, and spawn cost dominates at small scale
//! factors. [`WorkerPool`] is Leis et al.'s shared morsel-driven pool
//! instead: a fixed set of workers created at startup, which join the
//! *jobs* — bundles of pull-able tasks (morsels, dimension selections) —
//! that queries bring, every participant pulling tasks from the job's
//! atomic dispenser ([`PoolJob::work`]) until none remain.
//!
//! **There is one kind of job: its caller's.** [`WorkerPool::run`] is the
//! only entry point: the calling thread works its own job and free workers
//! may join it, so no job ever waits for a worker.
//!
//! **The pool budgets cores, not threads.** Its size is the number of
//! threads that may be inside some job's work at once, callers included.
//! Intra-query parallelism shortens a query's span by spending extra work
//! (forking, merging, waking), which pays only while cores sit idle, so
//! workers join only into free cores, and [`grant`](WorkerPool::grant)
//! sends a query under load down the one-core path. Every decision under
//! the lock is one pure function, stated and checked exhaustively in this
//! crate's `protocol` module; this module applies what it decides.
//!
//! Determinism: the pool adds no nondeterminism of its own — jobs own their
//! task dispensers and merge their partials in participant order, and all
//! QPPT partials merge commutatively (accumulator sums), so results are
//! byte-identical no matter which thread ran which task, or how many did.
//!
//! Shutdown: [`WorkerPool::shutdown`] lets every queued job run to
//! completion — each has its caller inside — and joins the worker threads;
//! a job that arrives later runs alone on its caller.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;

use qppt_obs::{Counter, Gauge, Registry};

use crate::protocol::{Event, Outcome, PoolState};

/// Handles the pool records into when observability is enabled. Stored
/// immutably inside the pool at construction, so the hot paths read an
/// `Option` and touch relaxed atomics — no extra locking.
#[derive(Clone)]
pub struct PoolMetrics {
    /// Parallel jobs currently queued.
    pub queue_depth: Arc<Gauge>,
    /// Parallel jobs queued since start (a job run alone on its caller
    /// makes no entry, so `started == completed` at idle).
    pub jobs_started: Arc<Counter>,
    /// Queued jobs retired after running all their tasks.
    pub jobs_completed: Arc<Counter>,
    /// Callers that had to block on the admission budget.
    pub admission_waits: Arc<Counter>,
    /// Threads inside some job's work right now — the core budget in use.
    pub running: Arc<Gauge>,
    /// [`grant`](WorkerPool::grant)s that asked for more than one core and
    /// got one: the load sent the job to its caller alone.
    pub granted_one: Arc<Counter>,
    /// Admissions granted more than one core.
    pub granted_many: Arc<Counter>,
}

impl PoolMetrics {
    /// Registers the pool's metric families in `registry` under their
    /// stable exported names.
    pub fn register(registry: &Registry) -> Self {
        let granted = |grant: &'static str| {
            registry.counter_with(
                "qppt_pool_admissions_total",
                "Parallel jobs admitted, by cores granted (one: run alone on the caller).",
                vec![("grant", grant.into())],
            )
        };
        Self {
            queue_depth: registry.gauge(
                "qppt_pool_queue_depth",
                "Parallel jobs currently queued on the worker pool.",
            ),
            jobs_started: registry.counter(
                "qppt_pool_jobs_started_total",
                "Parallel jobs queued on the worker pool since start.",
            ),
            jobs_completed: registry.counter(
                "qppt_pool_jobs_completed_total",
                "Jobs that ran all their tasks to completion.",
            ),
            admission_waits: registry.counter(
                "qppt_pool_admission_waits_total",
                "Callers that blocked on the admission budget.",
            ),
            running: registry.gauge(
                "qppt_pool_running_threads",
                "Threads inside a job's work, callers included (the core budget in use).",
            ),
            granted_one: granted("one"),
            granted_many: granted("many"),
        }
    }
}

/// A bundle of pull-able tasks its caller brings to the [`WorkerPool`].
///
/// Implementations hold their own atomic task dispenser and per-participant
/// result slots; the pool only decides *which threads* call [`work`] besides
/// the caller, and *when the job is finished* (every participant returned
/// from `work`).
///
/// [`work`]: PoolJob::work
pub trait PoolJob: Send + Sync {
    /// Upper bound on concurrently useful participants (e.g. the query's
    /// granted cores, clamped to its task count). The pool never lets more
    /// than this many threads work the job at once.
    fn max_workers(&self) -> usize;

    /// `true` while unclaimed tasks remain. Once this returns `false` it
    /// must stay `false` (jobs may flip it early to abort, e.g. on error).
    fn has_work(&self) -> bool;

    /// Pull tasks from the job's dispenser and run them until none remain
    /// to claim — the pool retires the job when its last participant
    /// returns. Called by up to [`max_workers`](PoolJob::max_workers)
    /// threads; must not panic (worker threads treat panics as fatal).
    fn work(&self);
}

type State = PoolState<Arc<dyn PoolJob>>;

/// Fixed-point scale of [`Inner::load_avg`].
const LOAD_SCALE: usize = 256;
/// Each grant moves the running load average by 1/`LOAD_WEIGHT` of the
/// way to the threads running at that moment.
const LOAD_WEIGHT: usize = 8;

struct Inner {
    state: Mutex<State>,
    /// The core budget: the pool's thread count.
    size: usize,
    /// Threads inside some job's work — joined workers and callers. Taken
    /// without the state lock only by a caller starting a job it runs alone
    /// (it never waits), and read without it by a grant; every release
    /// happens under the lock, so a worker that finds no free core is
    /// always woken by the release that frees one. Keeping this count and
    /// `load_avg` under the lock too lost an A/B on the frozen benchmark
    /// (two cores, sf 0.2, 10 s windows): `served_cold` `p50_ms` 0.783 →
    /// 0.818 ms, better in 4 of 16 pairs, and `p95_ms` 3.93 → 4.69 ms;
    /// `served_adhoc` `p50_ms` better in 7 of 20.
    running: AtomicUsize,
    /// Running average of `running` sampled at each
    /// [`grant`](WorkerPool::grant), in 1/[`LOAD_SCALE`]ths of a thread.
    load_avg: AtomicUsize,
    /// Workers wait here for a job to join.
    work_cv: Condvar,
    /// Callers wait here for a job to retire: for an admission place, or
    /// for the workers in their own job to leave.
    caller_cv: Condvar,
    /// Observability handles, `None` when the pool runs uninstrumented.
    metrics: Option<PoolMetrics>,
}

impl Inner {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("pool lock")
    }

    /// Decides `event` on the locked state and performs its wakeups before
    /// the lock is released, so a thread between its check and its wait
    /// cannot miss one.
    fn step(&self, st: &mut State, event: Event<Arc<dyn PoolJob>>) -> Outcome<Arc<dyn PoolJob>> {
        let queued = st.queued();
        let before = self.running.load(Ordering::SeqCst);
        let mut running = before;
        let (outcome, wake) = st.step(&mut running, event);
        if running != before {
            self.count(running as isize - before as isize);
        }
        if wake.workers {
            self.work_cv.notify_all();
        } else if wake.worker {
            self.work_cv.notify_one();
        }
        if wake.callers {
            self.caller_cv.notify_all();
        }
        if let (Some(m), true) = (&self.metrics, st.queued() != queued) {
            m.queue_depth.set(st.queued() as i64);
            if st.queued() > queued {
                m.jobs_started.inc();
            } else {
                m.jobs_completed.inc();
            }
        }
        outcome
    }

    /// Adds `cores` to the running count (a negative one wraps, which
    /// `fetch_add` turns into the subtraction).
    fn count(&self, cores: isize) {
        self.running.fetch_add(cores as usize, Ordering::SeqCst);
        if let Some(m) = &self.metrics {
            m.running.add(cores as i64);
        }
    }
}

/// The shared worker pool (see module docs).
pub struct WorkerPool {
    inner: Arc<Inner>,
    max_active: usize,
    threads: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("size", &self.inner.size)
            .field("max_active", &self.max_active)
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool of `size` worker threads (≥ 1) queueing at most
    /// `max_active` parallel jobs at once (≥ 1). All threads are spawned
    /// here — queries never spawn again. `size` is also the pool's core
    /// budget.
    pub fn new(size: usize, max_active: usize) -> Arc<Self> {
        Self::new_with_metrics(size, max_active, None)
    }

    /// [`new`](Self::new) with observability: the pool reports queue depth,
    /// running threads, grants and job/admission counters through
    /// `metrics`.
    pub fn new_with_metrics(
        size: usize,
        max_active: usize,
        metrics: Option<PoolMetrics>,
    ) -> Arc<Self> {
        let (size, max_active) = (size.max(1), max_active.max(1));
        let inner = Arc::new(Inner {
            state: Mutex::new(PoolState::new(size, max_active)),
            size,
            running: AtomicUsize::new(0),
            load_avg: AtomicUsize::new(0),
            work_cv: Condvar::new(),
            caller_cv: Condvar::new(),
            metrics,
        });
        let threads = (0..size)
            .map(|wid| {
                let inner = inner.clone();
                thread::Builder::new()
                    .name(format!("qppt-pool-{wid}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn pool worker")
            })
            .collect::<Vec<_>>();
        Arc::new(Self {
            inner,
            max_active,
            threads: Mutex::new(threads),
        })
    }

    /// Number of worker threads — and the core budget.
    pub fn size(&self) -> usize {
        self.inner.size
    }

    /// Admission budget (max parallel jobs queued at once).
    pub fn max_active(&self) -> usize {
        self.max_active
    }

    /// Total worker threads ever spawned by this pool — exactly
    /// [`size`](Self::size), however many queries ran. The
    /// `serve_equivalence` test asserts on this to pin down the
    /// "one pool, not queries × parallelism threads" contract.
    pub fn threads_created(&self) -> usize {
        self.inner.size
    }

    /// Admits a job that could use `wanted` cores, its caller's included,
    /// and returns how many it gets: `wanted` capped by the cores the
    /// pool's load leaves free, and at least one — the caller's own, which
    /// it never waits for. A grant of one means: give the job
    /// [`max_workers`](PoolJob::max_workers) 1, so that [`run`](Self::run)
    /// works it alone on the calling thread. A job that can use only one
    /// core makes no admission: it gets one, and the pool records nothing.
    ///
    /// The load is the larger of the threads running now and their running
    /// average over past grants (each grant weighs the current count by
    /// 1/8), rounded up. The average is what sees a concurrent client that
    /// is between two queries at this instant: under steady load it stays
    /// near one thread per client, so every query takes one core; a lone
    /// client's samples are zero, so its queries take them all.
    pub fn grant(&self, wanted: usize) -> usize {
        if wanted <= 1 {
            return 1;
        }
        let inner = &self.inner;
        let running = inner.running.load(Ordering::Relaxed);
        let avg = inner.load_avg.load(Ordering::Relaxed);
        // Racing grants may lose an update; it is an average.
        let avg = ((LOAD_WEIGHT - 1) * avg + running * LOAD_SCALE) / LOAD_WEIGHT;
        inner.load_avg.store(avg, Ordering::Relaxed);
        let load = running.max(avg.div_ceil(LOAD_SCALE));
        let granted = wanted.min(inner.size.saturating_sub(load)).max(1);
        if let Some(m) = &inner.metrics {
            if granted > 1 {
                m.granted_many.inc();
            } else {
                m.granted_one.inc();
            }
        }
        granted
    }

    /// Works `job` on the calling thread and returns once every task ran
    /// and every participant left. A job whose
    /// [`max_workers`](PoolJob::max_workers) is one — or any job after
    /// [`shutdown`](Self::shutdown) — runs alone, with no queue entry. Any
    /// other is queued at `priority` (higher first for idle workers, FIFO
    /// within one) with the caller pre-joined, blocking first while the
    /// admission budget is exhausted; workers join it into free cores while
    /// the caller works, and the caller then waits for them to leave.
    pub fn run(&self, job: Arc<dyn PoolJob>, priority: i32) {
        let inner = &*self.inner;
        let entry = if job.max_workers() <= 1 {
            inner.count(1);
            None
        } else {
            let mut st = inner.lock();
            let mut waited = false;
            loop {
                let enter = Event::Enter {
                    job: job.clone(),
                    priority,
                };
                match inner.step(&mut st, enter) {
                    Outcome::Alone => break None,
                    Outcome::Queued(seq) => break Some(seq),
                    _ => {
                        if let (Some(m), false) = (&inner.metrics, waited) {
                            m.admission_waits.inc();
                        }
                        waited = true;
                        st = inner.caller_cv.wait(st).expect("pool lock");
                    }
                }
            }
        };
        job.work();
        let mut st = inner.lock();
        inner.step(&mut st, Event::Leave(entry));
        if let Some(seq) = entry {
            while let Outcome::Wait = inner.step(&mut st, Event::Await(seq)) {
                st = inner.caller_cv.wait(st).expect("pool lock");
            }
        }
    }

    /// Stops the pool: queued jobs run to completion on their callers (and
    /// whichever workers are inside them), worker threads are joined.
    /// Idempotent.
    pub fn shutdown(&self) {
        self.inner.step(&mut self.inner.lock(), Event::Shutdown);
        let mut threads = self.threads.lock().expect("pool lock");
        for t in threads.drain(..) {
            t.join().expect("pool worker does not panic");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: &Inner) {
    let mut st = inner.lock();
    let mut left = None;
    loop {
        match inner.step(&mut st, Event::Idle(left.take())) {
            Outcome::Join(seq, job) => {
                drop(st);
                // Work-pull until the job's dispenser is empty. This
                // worker's handle goes before it leaves: a job owns `Arc`s
                // of what it reads (the database), and its caller may rely
                // on being their sole owner again once `run` returns.
                job.work();
                drop(job);
                st = inner.lock();
                left = Some(seq);
            }
            Outcome::Sleep => st = inner.work_cv.wait(st).expect("pool lock"),
            _ => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    /// A job whose tasks increment a counter, with optional per-task spin
    /// to force contention, held at its first task while its `gate` is set.
    struct CountJob {
        next: AtomicUsize,
        tasks: usize,
        done: AtomicUsize,
        max_workers: usize,
        spin: u32,
        participants: AtomicUsize,
        workers: AtomicUsize,
        gate: AtomicBool,
    }

    impl CountJob {
        fn new(tasks: usize, max_workers: usize, spin: u32) -> Arc<Self> {
            Arc::new(Self {
                next: AtomicUsize::new(0),
                tasks,
                done: AtomicUsize::new(0),
                max_workers,
                spin,
                participants: AtomicUsize::new(0),
                workers: AtomicUsize::new(0),
                gate: AtomicBool::new(false),
            })
        }

        fn gated(tasks: usize, max_workers: usize) -> Arc<Self> {
            let job = Self::new(tasks, max_workers, 0);
            job.gate.store(true, Ordering::SeqCst);
            job
        }

        fn open(&self) {
            self.gate.store(false, Ordering::SeqCst);
        }
    }

    impl PoolJob for CountJob {
        fn max_workers(&self) -> usize {
            self.max_workers
        }

        fn has_work(&self) -> bool {
            self.next.load(Ordering::Relaxed) < self.tasks
        }

        fn work(&self) {
            self.participants.fetch_add(1, Ordering::SeqCst);
            if thread::current()
                .name()
                .is_some_and(|n| n.starts_with("qppt-pool-"))
            {
                self.workers.fetch_add(1, Ordering::SeqCst);
            }
            loop {
                let i = self.next.fetch_add(1, Ordering::Relaxed);
                if i >= self.tasks {
                    break;
                }
                while self.gate.load(Ordering::SeqCst) {
                    thread::yield_now();
                }
                for s in 0..self.spin {
                    std::hint::black_box(s);
                }
                self.done.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Spins until `cond` holds.
    fn wait_until(cond: impl Fn() -> bool) {
        while !cond() {
            thread::yield_now();
        }
    }

    #[test]
    fn runs_every_task_exactly_once() {
        let pool = WorkerPool::new(4, 8);
        let job = CountJob::new(1000, 4, 0);
        pool.run(job.clone(), 0);
        assert_eq!(job.done.load(Ordering::Relaxed), 1000);
        pool.shutdown();
    }

    #[test]
    fn many_concurrent_jobs_share_the_fixed_pool() {
        let pool = WorkerPool::new(3, 16);
        let jobs: Vec<_> = (0..12).map(|_| CountJob::new(50, 4, 100)).collect();
        thread::scope(|s| {
            for j in &jobs {
                let pool = &pool;
                s.spawn(move || pool.run(j.clone(), 0));
            }
        });
        for j in &jobs {
            assert_eq!(j.done.load(Ordering::Relaxed), 50);
            // Never more participants than the pool's cores: the caller's
            // counts, and a worker joins only a free one.
            assert!(j.participants.load(Ordering::Relaxed) <= 3);
        }
        assert_eq!(pool.threads_created(), 3);
        pool.shutdown();
        assert_eq!(pool.threads_created(), 3);
    }

    #[test]
    fn empty_job_completes_immediately() {
        let pool = WorkerPool::new(2, 2);
        let job = CountJob::new(0, 4, 0);
        pool.run(job.clone(), 0);
        assert_eq!(job.done.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn max_workers_one_serializes_job() {
        let pool = WorkerPool::new(4, 4);
        let job = CountJob::new(200, 1, 50);
        pool.run(job.clone(), 0);
        assert_eq!(job.done.load(Ordering::Relaxed), 200);
        assert_eq!(job.participants.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn admission_budget_blocks_but_preserves_all_work() {
        // Budget of 1: parallel jobs queue one at a time, everything still
        // completes.
        let pool = WorkerPool::new(2, 1);
        let jobs: Vec<_> = (0..6).map(|_| CountJob::new(40, 2, 20)).collect();
        thread::scope(|s| {
            for j in &jobs {
                let pool = &pool;
                s.spawn(move || pool.run(j.clone(), 0));
            }
        });
        for j in &jobs {
            assert_eq!(j.done.load(Ordering::Relaxed), 40);
        }
    }

    /// After shutdown there are no workers to help: every job, parallel or
    /// not, runs to completion on its caller.
    #[test]
    fn run_after_shutdown_completes_on_the_caller() {
        let registry = Registry::new();
        let metrics = PoolMetrics::register(&registry);
        let pool = WorkerPool::new_with_metrics(2, 1, Some(metrics.clone()));
        pool.shutdown();
        for max_workers in [1, 2, 4] {
            let job = CountJob::new(100, max_workers, 0);
            pool.run(job.clone(), 0);
            assert_eq!(job.done.load(Ordering::Relaxed), 100);
            assert_eq!(job.participants.load(Ordering::Relaxed), 1);
            assert_eq!(job.workers.load(Ordering::Relaxed), 0);
        }
        assert_eq!(metrics.jobs_started.get(), 0, "no job was queued");
        assert_eq!(metrics.running.get(), 0);
    }

    #[test]
    fn participating_caller_drains_and_completes() {
        let pool = WorkerPool::new(2, 4);
        let job = CountJob::new(500, 3, 10);
        pool.run(job.clone(), 0);
        assert_eq!(job.done.load(Ordering::Relaxed), 500);
        // Caller + at most (max_workers - 1) pool workers.
        assert!(job.participants.load(Ordering::Relaxed) <= 3);
        assert!(job.participants.load(Ordering::Relaxed) >= 1);
        pool.shutdown();
    }

    /// Once a job is reported done, nothing in the pool may still hold it:
    /// jobs own `Arc`s of what they read (the database), and callers rely
    /// on being the sole owner again the moment `run` returns.
    #[test]
    fn completed_jobs_are_released_before_completion_is_signalled() {
        let pool = WorkerPool::new(2, 4);
        for max_workers in (0..2000).map(|i| 1 + i % 3) {
            let mut job = CountJob::new(8, max_workers, 50);
            pool.run(job.clone(), 0);
            assert!(
                Arc::get_mut(&mut job).is_some(),
                "a pool worker still holds a finished job"
            );
        }
        pool.shutdown();
    }

    #[test]
    fn participating_with_max_workers_one_runs_caller_only() {
        let pool = WorkerPool::new(4, 4);
        let job = CountJob::new(100, 1, 0);
        pool.run(job.clone(), 0);
        assert_eq!(job.done.load(Ordering::Relaxed), 100);
        assert_eq!(job.participants.load(Ordering::Relaxed), 1);
        assert_eq!(job.workers.load(Ordering::Relaxed), 0);
        pool.shutdown();
    }

    #[test]
    fn participating_under_contention_completes_every_job() {
        let pool = WorkerPool::new(2, 8);
        let jobs: Vec<_> = (0..8).map(|_| CountJob::new(60, 3, 50)).collect();
        thread::scope(|s| {
            for j in &jobs {
                let pool = &pool;
                s.spawn(move || pool.run(j.clone(), 0));
            }
        });
        for j in &jobs {
            assert_eq!(j.done.load(Ordering::Relaxed), 60);
            assert!(j.participants.load(Ordering::Relaxed) <= 3);
        }
        assert_eq!(pool.threads_created(), 2);
        pool.shutdown();
    }

    #[test]
    fn metrics_track_job_lifecycle() {
        let registry = Registry::new();
        let metrics = PoolMetrics::register(&registry);
        let pool = WorkerPool::new_with_metrics(2, 8, Some(metrics.clone()));
        let job = CountJob::new(100, 2, 0);
        pool.run(job.clone(), 0);
        // Empty parallel jobs are queued and retire like any other.
        pool.run(CountJob::new(0, 2, 0), 0);
        // A job of one participant runs alone: no entry.
        pool.run(CountJob::new(5, 1, 0), 0);
        assert_eq!(metrics.jobs_started.get(), 2);
        assert_eq!(metrics.jobs_completed.get(), 2);
        assert_eq!(metrics.queue_depth.get(), 0);
        assert_eq!(metrics.running.get(), 0);
        pool.shutdown();
        let text = registry.render();
        assert!(text.contains("qppt_pool_jobs_started_total 2"));
        assert!(text.contains("qppt_pool_queue_depth 0"));
    }

    #[test]
    fn metrics_count_admission_waits() {
        let registry = Registry::new();
        let metrics = PoolMetrics::register(&registry);
        // Budget of 1: while the blocker's caller holds the only admission
        // place, a second parallel job must block (and be counted as a
        // wait).
        let pool = WorkerPool::new_with_metrics(2, 1, Some(metrics.clone()));
        let blocker = CountJob::gated(1, 2);
        let second = CountJob::new(1, 2, 0);
        thread::scope(|s| {
            s.spawn(|| pool.run(blocker.clone(), 0));
            // Its caller or a worker holds the blocker's one task.
            wait_until(|| blocker.participants.load(Ordering::SeqCst) >= 1);
            assert_eq!(metrics.queue_depth.get(), 1);
            s.spawn(|| pool.run(second.clone(), 0));
            // The second caller is blocked on admission until the gate
            // opens; wait until its blocked state is observable, then
            // release.
            wait_until(|| metrics.admission_waits.get() == 1);
            assert_eq!(second.participants.load(Ordering::SeqCst), 0);
            blocker.open();
        });
        assert_eq!(second.done.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.admission_waits.get(), 1);
        assert_eq!(metrics.jobs_started.get(), 2);
        assert_eq!(metrics.jobs_completed.get(), 2);
        assert_eq!(metrics.queue_depth.get(), 0);
        pool.shutdown();
    }

    /// A grant spends only the cores the load leaves free: the threads
    /// running now, and — through the running average — those running at
    /// recent grants, until the average decays.
    #[test]
    fn grant_spends_only_free_cores() {
        struct Probe {
            pool: Arc<WorkerPool>,
            got: AtomicUsize,
        }
        impl PoolJob for Probe {
            fn max_workers(&self) -> usize {
                1
            }
            fn has_work(&self) -> bool {
                false
            }
            fn work(&self) {
                self.got.store(self.pool.grant(2), Ordering::Relaxed);
            }
        }
        let pool = WorkerPool::new(2, 4);
        assert_eq!(pool.grant(1), 1);
        assert_eq!(pool.grant(2), 2);
        assert_eq!(pool.grant(8), 2, "never more than the pool's cores");
        // A caller running alone holds one of the two cores.
        let probe = Arc::new(Probe {
            pool: pool.clone(),
            got: AtomicUsize::new(0),
        });
        pool.run(probe.clone(), 0);
        assert_eq!(probe.got.load(Ordering::Relaxed), 1);
        drop(probe);
        // The average remembers it for a while, then lets go.
        assert_eq!(pool.grant(2), 1);
        let decayed = (0..64).position(|_| pool.grant(2) == 2);
        assert!(decayed.is_some_and(|n| n > 8), "{decayed:?}");
        pool.shutdown();
    }

    /// An idle worker joins the queued job of the highest priority. Two
    /// callers run alone on two of three cores; a low- and a high-priority
    /// parallel job then enter, their callers held inside at their first
    /// task, which takes the last core. When the two run alone leave, one
    /// core frees up, and the worker it wakes must join the high one.
    #[test]
    fn priority_orders_pending_jobs() {
        let pool = WorkerPool::new(3, 8);
        let alone = [CountJob::gated(1, 1), CountJob::gated(1, 1)];
        let lo = CountJob::gated(8, 2);
        let hi = CountJob::gated(8, 2);
        thread::scope(|s| {
            for job in &alone {
                s.spawn(|| pool.run(job.clone(), 0));
            }
            wait_until(|| {
                alone
                    .iter()
                    .all(|j| j.participants.load(Ordering::SeqCst) == 1)
            });
            s.spawn(|| pool.run(lo.clone(), -1));
            wait_until(|| lo.participants.load(Ordering::SeqCst) == 1);
            s.spawn(|| pool.run(hi.clone(), 1));
            wait_until(|| hi.participants.load(Ordering::SeqCst) == 1);
            // Four threads on three cores: no worker joins either job.
            thread::sleep(std::time::Duration::from_millis(20));
            assert_eq!(lo.workers.load(Ordering::SeqCst), 0);
            assert_eq!(hi.workers.load(Ordering::SeqCst), 0);
            alone.iter().for_each(|j| j.open());
            wait_until(|| hi.workers.load(Ordering::SeqCst) == 1);
            assert_eq!(lo.workers.load(Ordering::SeqCst), 0, "a worker chose lo");
            lo.open();
            hi.open();
        });
        for job in [&lo, &hi] {
            assert_eq!(job.done.load(Ordering::Relaxed), 8);
        }
        pool.shutdown();
    }
}
