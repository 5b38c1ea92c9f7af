//! The persistent, shared worker pool: std threads created **once**,
//! serving the morsel queues of many concurrent queries.
//!
//! Spawning threads per query means N queries × P workers = N×P spawns per
//! batch under concurrent load, and spawn cost dominates at small scale
//! factors. [`WorkerPool`] is Leis et al.'s shared morsel-driven pool
//! instead: a fixed set of workers created at startup, to which queries
//! submit *jobs* — bundles of pull-able tasks (morsels, dimension
//! selections). It is the only parallel execution substrate in the tree.
//!
//! **The pool budgets cores, not threads.** Its size is the number of
//! threads that may be inside some job's work at once, and one count
//! covers all of them: pool workers that joined a job, callers that
//! participate in their own job ([`run_participating`]), and callers that
//! run a job alone ([`run_inline`]). Intra-query parallelism shortens a
//! query's span by spending extra work (forking, merging, waking), which
//! pays only while cores sit idle; with the count, a busy pool stops
//! paying it:
//!
//! * **Callers always run.** A caller never waits for a core: it works its
//!   own job at once, counted as running, whatever the count.
//! * **Workers join only into free cores.** An idle worker joins a job
//!   only while fewer threads than the pool's size are running — or when
//!   nobody works the job yet (an unstarted [`submit`]ted job), so no job
//!   is ever left with unclaimed work and nobody to do it. A joined worker
//!   works until the job's dispenser is empty: the grant keeps a parallel
//!   job from overlapping a burst of load for long, and handing its
//!   morsels back to the caller mid-query measured no gain.
//! * **One wakeup per freed core.** A submission wakes at most one worker,
//!   and only when a core is free (or its job has no caller); a caller
//!   that frees a core wakes one worker if a job could use it.
//! * **Admission picks the width.** [`grant`](WorkerPool::grant) tells a
//!   query how many cores its load leaves free, so under load a query
//!   takes the one-core path — no partition, no job, no wakeup — instead
//!   of forking into cores that other queries hold.
//!
//! Across jobs:
//!
//! * **Work pulling within a job** — a job exposes an atomic task dispenser
//!   through [`PoolJob::work`]; every participant pulls tasks until none
//!   remain, so skewed tasks self-balance.
//! * **Priority across jobs** — idle workers join the admitted job with the
//!   highest `priority` (ties: submission order, i.e. FIFO). A job never
//!   has more than [`PoolJob::max_workers`] participants at once, so one
//!   wide query cannot monopolize the pool against a concurrent narrow one
//!   any harder than its own parallelism setting allows.
//! * **Admission budget** — at most `max_active` jobs are admitted at once;
//!   [`WorkerPool::submit`] blocks until a slot frees. This bounds memory
//!   (per-query partial aggregation tables) and keeps tail latency sane
//!   under overload, which is the server's admission control.
//!
//! Determinism: the pool adds no nondeterminism of its own — jobs own their
//! task dispensers and merge their partials in participant order, and all
//! QPPT partials merge commutatively (accumulator sums), so results are
//! byte-identical no matter which thread ran which task, or how many did
//! (see `par_equivalence` and the `serve_equivalence` integration test).
//!
//! Shutdown semantics: jobs that have started (a caller participates, or
//! ≥ 1 worker joined) run to completion; jobs still queued unstarted are
//! aborted, and waiting on them returns [`JobAborted`](JobHandle::wait).
//! [`WorkerPool::shutdown`] then joins every worker thread.
//!
//! [`run_participating`]: WorkerPool::run_participating
//! [`run_inline`]: WorkerPool::run_inline
//! [`submit`]: WorkerPool::submit

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

use qppt_obs::{Counter, Gauge, Registry};

/// Handles the pool records into when observability is enabled. Stored
/// immutably inside the pool at construction, so the hot paths read an
/// `Option` and touch relaxed atomics — no extra locking.
#[derive(Clone)]
pub struct PoolMetrics {
    /// Jobs currently admitted (queued or executing).
    pub queue_depth: Arc<Gauge>,
    /// Jobs admitted into the queue (empty jobs count as started and
    /// completed immediately, so `started == completed` at idle).
    pub jobs_started: Arc<Counter>,
    /// Jobs retired after running all their tasks.
    pub jobs_completed: Arc<Counter>,
    /// Submissions that had to block on the admission budget.
    pub admission_waits: Arc<Counter>,
    /// Jobs aborted by shutdown before any worker joined.
    pub admission_rejections: Arc<Counter>,
    /// Threads inside some job's work right now — the core budget in use.
    pub running: Arc<Gauge>,
    /// Admissions ([`grant`](WorkerPool::grant)s) that asked for more
    /// than one core and got one: the load sent the job to its caller
    /// alone.
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
                "Jobs currently admitted to the worker pool (queued or executing).",
            ),
            jobs_started: registry.counter(
                "qppt_pool_jobs_started_total",
                "Jobs admitted to the worker pool since start.",
            ),
            jobs_completed: registry.counter(
                "qppt_pool_jobs_completed_total",
                "Jobs that ran all their tasks to completion.",
            ),
            admission_waits: registry.counter(
                "qppt_pool_admission_waits_total",
                "Submissions that blocked on the admission budget.",
            ),
            admission_rejections: registry.counter(
                "qppt_pool_admission_rejections_total",
                "Jobs aborted by shutdown before any worker joined.",
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

/// A bundle of pull-able tasks submitted to the [`WorkerPool`].
///
/// Implementations hold their own atomic task dispenser and per-participant
/// result slots; the pool only decides *which threads* call [`work`] and
/// *when the job is finished* (no unclaimed tasks and no participant still
/// inside `work`).
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

    /// Pull tasks from the job's dispenser and run them until none remain.
    /// Called by up to [`max_workers`](PoolJob::max_workers) threads; must
    /// not panic (worker threads treat panics as fatal).
    fn work(&self);
}

/// Completion ticket for a submitted job.
#[derive(Debug)]
pub struct JobHandle {
    slot: Arc<DoneSlot>,
}

impl JobHandle {
    /// Blocks until the job finished (all tasks executed and every
    /// participant returned). Returns `Err(JobAborted)` if the pool shut
    /// down before the job started.
    pub fn wait(self) -> Result<(), JobAborted> {
        let mut st = self.slot.state.lock().expect("pool lock");
        while *st == SlotState::Pending {
            st = self.slot.cv.wait(st).expect("pool lock");
        }
        match *st {
            SlotState::Done => Ok(()),
            SlotState::Aborted => Err(JobAborted),
            SlotState::Pending => unreachable!(),
        }
    }
}

/// The pool shut down before the job ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobAborted;

impl std::fmt::Display for JobAborted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker pool shut down before the job ran")
    }
}

impl std::error::Error for JobAborted {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Pending,
    Done,
    Aborted,
}

#[derive(Debug)]
struct DoneSlot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

impl DoneSlot {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(SlotState::Pending),
            cv: Condvar::new(),
        })
    }

    fn finish(&self, state: SlotState) {
        *self.state.lock().expect("pool lock") = state;
        self.cv.notify_all();
    }
}

struct Entry {
    seq: u64,
    priority: i32,
    /// Participants that ever joined, a participating caller included
    /// (never decremented; capped at `job.max_workers()`).
    joined: usize,
    /// Participants currently inside `job.work()`.
    active: usize,
    job: Arc<dyn PoolJob>,
    slot: Arc<DoneSlot>,
}

impl Entry {
    /// May an idle worker join now? The job has unclaimed work and room
    /// under its cap, and either a core is free or nobody works it yet.
    fn joinable(&self, core_free: bool) -> bool {
        self.joined < self.job.max_workers()
            && (core_free || self.joined == 0)
            && self.job.has_work()
    }
}

struct PoolState {
    queue: Vec<Entry>,
    next_seq: u64,
    shutdown: bool,
}

/// Fixed-point scale of [`Inner::load_avg`].
const LOAD_SCALE: usize = 256;
/// Each admission moves the running load average by 1/`LOAD_WEIGHT` of
/// the way to the threads running at that moment.
const LOAD_WEIGHT: usize = 8;

struct Inner {
    state: Mutex<PoolState>,
    /// Workers wait here for admitted work.
    work_cv: Condvar,
    /// Submitters wait here for an admission slot.
    admit_cv: Condvar,
    max_active: usize,
    /// The core budget: the pool's thread count.
    size: usize,
    /// Threads inside some job's work — joined workers, participating
    /// callers and callers running alone. Taken without the state lock
    /// only by a caller starting to run alone (it never waits); every
    /// release happens under the lock, so a worker that finds no free core
    /// is always woken by the release that frees one.
    running: AtomicUsize,
    /// Running average of `running` sampled at each
    /// [`grant`](WorkerPool::grant), in 1/[`LOAD_SCALE`]ths of a thread.
    load_avg: AtomicUsize,
    /// Observability handles, `None` when the pool runs uninstrumented.
    metrics: Option<PoolMetrics>,
}

impl Inner {
    /// Records a retired (completed) job.
    fn job_retired(&self) {
        if let Some(m) = &self.metrics {
            m.queue_depth.sub(1);
            m.jobs_completed.inc();
        }
    }

    /// Counts one more running thread; returns the new count.
    fn take_core(&self) -> usize {
        if let Some(m) = &self.metrics {
            m.running.add(1);
        }
        self.running.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Counts one running thread less. Called with the state lock held.
    fn release_core(&self) {
        if let Some(m) = &self.metrics {
            m.running.sub(1);
        }
        self.running.fetch_sub(1, Ordering::SeqCst);
    }

    fn core_free(&self) -> bool {
        self.running.load(Ordering::SeqCst) < self.size
    }

    /// Wakes one worker if a queued job could use a free core. Called with
    /// the state lock held, so a worker between its check and its wait
    /// cannot miss the notification.
    fn wake_for(&self, st: &PoolState) {
        if self.core_free() && st.queue.iter().any(|e| e.joinable(true)) {
            self.work_cv.notify_one();
        }
    }
}

/// The shared worker pool (see module docs).
pub struct WorkerPool {
    inner: Arc<Inner>,
    threads: Mutex<Vec<thread::JoinHandle<()>>>,
    threads_created: AtomicUsize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("size", &self.inner.size)
            .field("max_active", &self.inner.max_active)
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool of `size` worker threads (≥ 1) admitting at most
    /// `max_active` concurrent jobs (≥ 1). All threads are spawned here —
    /// queries never spawn again. `size` is also the pool's core budget.
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
        let size = size.max(1);
        let inner = Arc::new(Inner {
            state: Mutex::new(PoolState {
                queue: Vec::new(),
                next_seq: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            admit_cv: Condvar::new(),
            max_active: max_active.max(1),
            size,
            running: AtomicUsize::new(0),
            load_avg: AtomicUsize::new(0),
            metrics,
        });
        let pool = Arc::new(Self {
            inner: inner.clone(),
            threads: Mutex::new(Vec::with_capacity(size)),
            threads_created: AtomicUsize::new(0),
        });
        let mut threads = pool.threads.lock().expect("pool lock");
        for wid in 0..size {
            let inner = inner.clone();
            pool.threads_created.fetch_add(1, Ordering::Relaxed);
            threads.push(
                thread::Builder::new()
                    .name(format!("qppt-pool-{wid}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn pool worker"),
            );
        }
        drop(threads);
        pool
    }

    /// Number of worker threads — and the core budget.
    pub fn size(&self) -> usize {
        self.inner.size
    }

    /// Admission budget (max concurrently admitted jobs).
    pub fn max_active(&self) -> usize {
        self.inner.max_active
    }

    /// Total worker threads ever spawned by this pool — exactly
    /// [`size`](Self::size), however many queries ran. The
    /// `serve_equivalence` test asserts on this to pin down the
    /// "one pool, not queries × parallelism threads" contract.
    pub fn threads_created(&self) -> usize {
        self.threads_created.load(Ordering::Relaxed)
    }

    /// Admits a job that could use `wanted` cores, its caller's included,
    /// and returns how many it gets: `wanted` capped by the cores the
    /// pool's load leaves free, and at least one — the caller's own, which
    /// it never waits for. A grant of one means: run the job alone on the
    /// calling thread ([`run_inline`](Self::run_inline)). A job that can
    /// use only one core makes no admission: it gets one, and the pool
    /// records nothing.
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

    /// Submits a job at `priority` (higher runs first; FIFO within a
    /// priority). Blocks while the admission budget is exhausted. A worker
    /// joins the job as soon as one is idle — even when every core is
    /// taken, since nobody else works it; call [`JobHandle::wait`] for
    /// completion.
    ///
    /// A job with no work at submission completes immediately; a submission
    /// after [`shutdown`](Self::shutdown) is aborted.
    pub fn submit(&self, job: Arc<dyn PoolJob>, priority: i32) -> JobHandle {
        self.submit_inner(job, priority, false).0
    }

    /// [`submit`](Self::submit), also returning the queue sequence number
    /// when the job was actually enqueued (`None`: aborted or completed
    /// immediately). With `participating`, the entry starts with the
    /// *caller* pre-joined (`joined = active = 1`, counted as running):
    /// pool workers then fill at most the remaining `max_workers - 1`
    /// places, and only into free cores; shutdown treats the job as
    /// started (it runs to completion instead of aborting).
    fn submit_inner(
        &self,
        job: Arc<dyn PoolJob>,
        priority: i32,
        participating: bool,
    ) -> (JobHandle, Option<u64>) {
        let slot = DoneSlot::new();
        let mut enqueued = None;
        let mut st = self.inner.state.lock().expect("pool lock");
        if st.queue.len() >= self.inner.max_active && !st.shutdown {
            if let Some(m) = &self.inner.metrics {
                m.admission_waits.inc();
            }
        }
        while st.queue.len() >= self.inner.max_active && !st.shutdown {
            st = self.inner.admit_cv.wait(st).expect("pool lock");
        }
        if st.shutdown {
            if let Some(m) = &self.inner.metrics {
                m.admission_rejections.inc();
            }
            slot.finish(SlotState::Aborted);
        } else if !job.has_work() {
            if let Some(m) = &self.inner.metrics {
                m.jobs_started.inc();
                m.jobs_completed.inc();
            }
            slot.finish(SlotState::Done);
        } else {
            let seq = st.next_seq;
            st.next_seq += 1;
            let caller = participating as usize;
            let room = job.max_workers() > caller;
            st.queue.push(Entry {
                seq,
                priority,
                joined: caller,
                active: caller,
                job,
                slot: slot.clone(),
            });
            if let Some(m) = &self.inner.metrics {
                m.queue_depth.add(1);
                m.jobs_started.inc();
            }
            let running = if participating {
                self.inner.take_core()
            } else {
                self.inner.running.load(Ordering::SeqCst)
            };
            if room && (running < self.inner.size || !participating) {
                self.inner.work_cv.notify_one();
            }
            enqueued = Some(seq);
        }
        drop(st);
        (JobHandle { slot }, enqueued)
    }

    /// Convenience: submit and wait.
    pub fn run(&self, job: Arc<dyn PoolJob>, priority: i32) -> Result<(), JobAborted> {
        self.submit(job, priority).wait()
    }

    /// Submits `job` and **participates**: the calling thread runs
    /// [`PoolJob::work`] itself at once — counted as running, and as one
    /// of the job's [`max_workers`](PoolJob::max_workers) participants —
    /// while pool workers join into whatever cores are free; then waits for
    /// completion.
    ///
    /// Results stay byte-identical however many participants there were,
    /// because the job's partial merge is participant-ordered and
    /// commutative. Admission is unchanged: the call blocks while the
    /// budget of admitted jobs is exhausted; after
    /// [`shutdown`](Self::shutdown) the job is aborted without the caller
    /// working.
    pub fn run_participating(
        &self,
        job: Arc<dyn PoolJob>,
        priority: i32,
    ) -> Result<(), JobAborted> {
        let (handle, enqueued) = self.submit_inner(job.clone(), priority, true);
        if let Some(seq) = enqueued {
            job.work();
            self.leave(seq);
        }
        handle.wait()
    }

    /// Runs `job` alone on the calling thread, counted as running — a
    /// one-core grant: no queue entry, no handle, no wakeup unless the
    /// core it frees can serve a queued job.
    pub fn run_inline(&self, job: &dyn PoolJob) {
        let inner = &self.inner;
        inner.take_core();
        job.work();
        let st = inner.state.lock().expect("pool lock");
        inner.release_core();
        inner.wake_for(&st);
    }

    /// The caller's counterpart of the worker-loop retirement: releases
    /// the caller's core and place in entry `seq`, retires the job if the
    /// caller was the last participant inside `work()`, and hands the
    /// freed core to a worker if a queued job can use it.
    fn leave(&self, seq: u64) {
        let mut st = self.inner.state.lock().expect("pool lock");
        let i = st
            .queue
            .iter()
            .position(|e| e.seq == seq)
            .expect("participating jobs stay queued until their last worker leaves");
        st.queue[i].active -= 1;
        self.inner.release_core();
        if st.queue[i].active == 0 && !st.queue[i].job.has_work() {
            let e = st.queue.remove(i);
            self.inner.job_retired();
            e.slot.finish(SlotState::Done);
            self.inner.admit_cv.notify_all();
        }
        self.inner.wake_for(&st);
    }

    /// Stops the pool: started jobs run to completion, unstarted queued
    /// jobs are aborted, worker threads are joined. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut st = self.inner.state.lock().expect("pool lock");
            if st.shutdown {
                return;
            }
            st.shutdown = true;
            // Abort jobs nobody has started; in-flight jobs retire normally.
            let metrics = self.inner.metrics.as_ref();
            st.queue.retain(|e| {
                if e.joined == 0 {
                    e.slot.finish(SlotState::Aborted);
                    if let Some(m) = metrics {
                        m.queue_depth.sub(1);
                        m.admission_rejections.inc();
                    }
                    false
                } else {
                    true
                }
            });
            self.inner.work_cv.notify_all();
            self.inner.admit_cv.notify_all();
        }
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
    loop {
        // Pick the best joinable job: has unclaimed work, room under its
        // cap, a free core (or nobody working it), highest priority,
        // earliest submission.
        let (job, seq) = {
            let mut st = inner.state.lock().expect("pool lock");
            loop {
                let core_free = inner.core_free();
                let best = st
                    .queue
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.joinable(core_free))
                    .max_by_key(|(_, e)| (e.priority, std::cmp::Reverse(e.seq)))
                    .map(|(i, _)| i);
                if let Some(i) = best {
                    let e = &mut st.queue[i];
                    e.joined += 1;
                    e.active += 1;
                    let joined = (e.job.clone(), e.seq);
                    inner.take_core();
                    // Cores left over after this join go to one more worker.
                    inner.wake_for(&st);
                    break joined;
                }
                if st.shutdown {
                    // Nothing joinable remains; in-flight entries are
                    // retired by their own last active worker.
                    return;
                }
                st = inner.work_cv.wait(st).expect("pool lock");
            }
        };

        // Work-pull until the job's dispenser is empty. This worker's
        // handle goes before anyone can see it leave: a job owns `Arc`s of
        // what it reads (the database), and the submitter may rely on
        // being their sole owner again as soon as the job reports done.
        job.work();
        drop(job);

        // Give the core back, then retire the job if this was its last
        // participant — in that order, so the next query admitted after
        // the completion sees the core free.
        let mut st = inner.state.lock().expect("pool lock");
        inner.release_core();
        let i = st
            .queue
            .iter()
            .position(|e| e.seq == seq)
            .expect("in-flight jobs stay queued");
        st.queue[i].active -= 1;
        if st.queue[i].active == 0 && !st.queue[i].job.has_work() {
            let Entry { job, slot, .. } = st.queue.remove(i);
            drop(job);
            inner.job_retired();
            slot.finish(SlotState::Done);
            // A freed admission slot may unblock a submitter; new workers
            // cannot be needed (retiring adds no work).
            inner.admit_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A job whose tasks increment a counter, with optional per-task spin
    /// to force contention.
    struct CountJob {
        next: AtomicUsize,
        tasks: usize,
        done: AtomicUsize,
        max_workers: usize,
        spin: u32,
        participants: AtomicUsize,
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
            })
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
            self.participants.fetch_add(1, Ordering::Relaxed);
            loop {
                let i = self.next.fetch_add(1, Ordering::Relaxed);
                if i >= self.tasks {
                    break;
                }
                for s in 0..self.spin {
                    std::hint::black_box(s);
                }
                self.done.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn runs_every_task_exactly_once() {
        let pool = WorkerPool::new(4, 8);
        let job = CountJob::new(1000, 4, 0);
        pool.run(job.clone(), 0).unwrap();
        assert_eq!(job.done.load(Ordering::Relaxed), 1000);
        pool.shutdown();
    }

    #[test]
    fn many_concurrent_jobs_share_the_fixed_pool() {
        let pool = WorkerPool::new(3, 16);
        let jobs: Vec<_> = (0..12).map(|_| CountJob::new(50, 4, 100)).collect();
        let handles: Vec<_> = jobs
            .iter()
            .map(|j| pool.submit(j.clone() as Arc<dyn PoolJob>, 0))
            .collect();
        for h in handles {
            h.wait().unwrap();
        }
        for j in &jobs {
            assert_eq!(j.done.load(Ordering::Relaxed), 50);
            // Never more participants than the per-job cap or the pool.
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
        pool.run(job.clone(), 0).unwrap();
        assert_eq!(job.done.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn max_workers_one_serializes_job() {
        let pool = WorkerPool::new(4, 4);
        let job = CountJob::new(200, 1, 50);
        pool.run(job.clone(), 0).unwrap();
        assert_eq!(job.done.load(Ordering::Relaxed), 200);
        assert_eq!(job.participants.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn admission_budget_blocks_but_preserves_all_work() {
        // Budget of 1: submissions serialize, everything still completes.
        let pool = WorkerPool::new(2, 1);
        let jobs: Vec<_> = (0..6).map(|_| CountJob::new(40, 2, 20)).collect();
        thread::scope(|s| {
            for j in &jobs {
                let pool = &pool;
                s.spawn(move || pool.run(j.clone() as Arc<dyn PoolJob>, 0).unwrap());
            }
        });
        for j in &jobs {
            assert_eq!(j.done.load(Ordering::Relaxed), 40);
        }
    }

    #[test]
    fn submit_after_shutdown_aborts() {
        let pool = WorkerPool::new(1, 1);
        pool.shutdown();
        let job = CountJob::new(10, 1, 0);
        assert_eq!(pool.run(job.clone(), 0), Err(JobAborted));
        assert_eq!(job.done.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn participating_caller_drains_and_completes() {
        let pool = WorkerPool::new(2, 4);
        let job = CountJob::new(500, 3, 10);
        pool.run_participating(job.clone(), 0).unwrap();
        assert_eq!(job.done.load(Ordering::Relaxed), 500);
        // Caller + at most (max_workers - 1) pool workers.
        assert!(job.participants.load(Ordering::Relaxed) <= 3);
        assert!(job.participants.load(Ordering::Relaxed) >= 1);
        pool.shutdown();
    }

    /// Once a job is reported done, nothing in the pool may still hold it:
    /// jobs own `Arc`s of what they read (the database), and callers rely
    /// on being the sole owner again the moment `run*` returns.
    #[test]
    fn completed_jobs_are_released_before_completion_is_signalled() {
        let pool = WorkerPool::new(2, 4);
        for _ in 0..2000 {
            let mut job = CountJob::new(8, 3, 50);
            pool.run_participating(job.clone(), 0).unwrap();
            assert!(
                Arc::get_mut(&mut job).is_some(),
                "a pool worker still holds a finished job"
            );
            pool.run(job.clone(), 0).unwrap();
            assert!(Arc::get_mut(&mut job).is_some());
        }
        pool.shutdown();
    }

    #[test]
    fn participating_with_max_workers_one_runs_caller_only() {
        let pool = WorkerPool::new(4, 4);
        let job = CountJob::new(100, 1, 0);
        pool.run_participating(job.clone(), 0).unwrap();
        assert_eq!(job.done.load(Ordering::Relaxed), 100);
        assert_eq!(job.participants.load(Ordering::Relaxed), 1);
        pool.shutdown();
    }

    #[test]
    fn participating_after_shutdown_aborts_without_working() {
        let pool = WorkerPool::new(1, 1);
        pool.shutdown();
        let job = CountJob::new(10, 2, 0);
        assert_eq!(pool.run_participating(job.clone(), 0), Err(JobAborted));
        assert_eq!(job.done.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn participating_under_contention_completes_every_job() {
        let pool = WorkerPool::new(2, 8);
        let jobs: Vec<_> = (0..8).map(|_| CountJob::new(60, 3, 50)).collect();
        thread::scope(|s| {
            for j in &jobs {
                let pool = &pool;
                s.spawn(move || {
                    pool.run_participating(j.clone() as Arc<dyn PoolJob>, 0)
                        .unwrap()
                });
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
        pool.run(job.clone(), 0).unwrap();
        // Empty jobs complete immediately but still count.
        pool.run(CountJob::new(0, 2, 0), 0).unwrap();
        assert_eq!(metrics.jobs_started.get(), 2);
        assert_eq!(metrics.jobs_completed.get(), 2);
        assert_eq!(metrics.queue_depth.get(), 0);
        assert_eq!(metrics.admission_rejections.get(), 0);
        pool.shutdown();
        // A post-shutdown submission is a rejection.
        assert_eq!(pool.run(CountJob::new(5, 1, 0), 0), Err(JobAborted));
        assert_eq!(metrics.admission_rejections.get(), 1);
        assert_eq!(metrics.jobs_started.get(), 2);
        let text = registry.render();
        assert!(text.contains("qppt_pool_jobs_started_total 2"));
        assert!(text.contains("qppt_pool_queue_depth 0"));
    }

    #[test]
    fn metrics_count_admission_waits() {
        let registry = Registry::new();
        let metrics = PoolMetrics::register(&registry);
        // Budget of 1: while the blocker occupies the only admission slot,
        // a second submission must block (and be counted as a wait).
        struct GateJob {
            claimed: AtomicUsize,
            release: AtomicUsize,
        }
        impl PoolJob for GateJob {
            fn max_workers(&self) -> usize {
                1
            }
            fn has_work(&self) -> bool {
                self.claimed.load(Ordering::Relaxed) == 0
            }
            fn work(&self) {
                self.claimed.store(1, Ordering::Relaxed);
                while self.release.load(Ordering::Relaxed) == 0 {
                    thread::yield_now();
                }
            }
        }
        let pool = WorkerPool::new_with_metrics(2, 1, Some(metrics.clone()));
        let blocker = Arc::new(GateJob {
            claimed: AtomicUsize::new(0),
            release: AtomicUsize::new(0),
        });
        let handle = pool.submit(blocker.clone(), 0);
        while blocker.claimed.load(Ordering::Relaxed) == 0 {
            thread::yield_now();
        }
        assert_eq!(metrics.queue_depth.get(), 1);
        let second = CountJob::new(1, 1, 0);
        let waiter = {
            let pool = pool.clone();
            let second = second.clone();
            thread::spawn(move || pool.run(second as Arc<dyn PoolJob>, 0).unwrap())
        };
        // The second submission is blocked on admission until the gate
        // opens; wait until its blocked state is observable, then release.
        while metrics.admission_waits.get() == 0 {
            thread::yield_now();
        }
        blocker.release.store(1, Ordering::Relaxed);
        handle.wait().unwrap();
        waiter.join().unwrap();
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
        let probe = Probe {
            pool: pool.clone(),
            got: AtomicUsize::new(0),
        };
        pool.run_inline(&probe);
        assert_eq!(probe.got.load(Ordering::Relaxed), 1);
        // The average remembers it for a while, then lets go.
        assert_eq!(pool.grant(2), 1);
        let decayed = (0..64).position(|_| pool.grant(2) == 2);
        assert!(decayed.is_some_and(|n| n > 8), "{decayed:?}");
        pool.shutdown();
    }

    #[test]
    fn priority_orders_pending_jobs() {
        // One worker, saturated by a long job; then a low- and a
        // high-priority job are queued. The high one must run first.
        let pool = WorkerPool::new(1, 8);
        let blocker = CountJob::new(1, 1, 2_000_000);
        let lo = CountJob::new(1, 1, 0);
        let hi = CountJob::new(1, 1, 0);
        let order: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));

        struct Tagged {
            inner: Arc<CountJob>,
            tag: &'static str,
            order: Arc<Mutex<Vec<&'static str>>>,
        }
        impl PoolJob for Tagged {
            fn max_workers(&self) -> usize {
                self.inner.max_workers()
            }
            fn has_work(&self) -> bool {
                self.inner.has_work()
            }
            fn work(&self) {
                self.order.lock().unwrap().push(self.tag);
                self.inner.work();
            }
        }

        let hb = pool.submit(blocker.clone(), 0);
        // Give the worker a moment to join the blocker, then queue the rest.
        while blocker.participants.load(Ordering::Relaxed) == 0 {
            thread::yield_now();
        }
        let hl = pool.submit(
            Arc::new(Tagged {
                inner: lo,
                tag: "lo",
                order: order.clone(),
            }),
            -1,
        );
        let hh = pool.submit(
            Arc::new(Tagged {
                inner: hi,
                tag: "hi",
                order: order.clone(),
            }),
            1,
        );
        hb.wait().unwrap();
        hh.wait().unwrap();
        hl.wait().unwrap();
        assert_eq!(*order.lock().unwrap(), vec!["hi", "lo"]);
    }
}
