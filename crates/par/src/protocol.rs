//! The pool's protocol: every decision the [`WorkerPool`](crate::WorkerPool)
//! makes under its lock, as one pure transition function.
//!
//! A thread arrives at the pool with an [`Event`], and [`PoolState::step`]
//! returns the thread's [`Outcome`] and the [`Wake`]s the pool performs
//! before it releases the lock. There are no threads, condvars or clocks
//! here, so this module's tests check every interleaving of a few callers
//! and two workers on a pool of two. The function also updates the pool's
//! count of running threads, the one count kept outside the lock. The rules:
//!
//! * **A job is its caller's.** A caller entering a job queues it with
//!   itself pre-joined, counted as running, and works it at once; once the
//!   pool is shut down it runs the job alone instead, with no queue entry,
//!   as it does any job of one participant. So no job waits for a worker.
//! * **Workers join only free cores.** The pool's size is its core budget:
//!   an idle worker joins a job only while fewer threads than that are
//!   running, the job still has unclaimed tasks and is under its
//!   [`max_workers`](crate::PoolJob::max_workers); among those it takes
//!   the highest priority, then the earliest entry.
//! * **One wakeup per chance.** A transition that queues a job, or frees a
//!   core as a caller, wakes one worker if an idle worker could now join
//!   something; a worker that joins wakes one more on the same condition.
//!   A worker that leaves a job wakes nobody: it looks for work itself.
//! * **A job retires with its last participant.** A participant returns
//!   from its work only once no task is left to claim, so when the active
//!   count reaches zero nobody can join again; retiring frees an admission
//!   place and wakes every waiting caller (admission and completion share
//!   one condvar).
//! * **Admission** bounds queued jobs by `max_active`; a caller over the
//!   budget waits for a retirement.

use std::cmp::Reverse;
use std::sync::Arc;

use crate::pool::PoolJob;

/// What the protocol reads of a job.
pub(crate) trait Job: Clone {
    fn max_workers(&self) -> usize;
    fn has_work(&self) -> bool;
}

impl Job for Arc<dyn PoolJob> {
    fn max_workers(&self) -> usize {
        PoolJob::max_workers(&**self)
    }

    fn has_work(&self) -> bool {
        PoolJob::has_work(&**self)
    }
}

/// A thread's question to the pool.
pub(crate) enum Event<J> {
    /// A caller arrives with a job of more than one participant.
    Enter { job: J, priority: i32 },
    /// A caller returned from its job's work: entry `Some(seq)`, or a job
    /// it ran alone.
    Leave(Option<u64>),
    /// A caller that left entry `seq` asks whether its workers left too.
    Await(u64),
    /// A worker looks for a job, after leaving entry `Some(seq)`.
    Idle(Option<u64>),
    /// The pool stops.
    Shutdown,
}

/// The pool's answer to an [`Event`].
#[derive(Debug)]
pub(crate) enum Outcome<J> {
    /// Enter: work the job alone, counted as running.
    Alone,
    /// Enter: work the job, queued as entry `seq` and joinable by workers.
    Queued(u64),
    /// Enter, Await: wait for a job to retire, then ask again.
    Wait,
    /// Idle: work job `J` of entry `seq`.
    Join(u64, J),
    /// Idle: wait to be woken.
    Sleep,
    /// Nothing more to do — for an idle worker: exit, the pool is shut
    /// down and nothing is joinable.
    Done,
}

/// The notifications a transition asks for.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct Wake {
    /// Wake one sleeping worker.
    pub worker: bool,
    /// Wake every sleeping worker.
    pub workers: bool,
    /// Wake every waiting caller.
    pub callers: bool,
}

#[cfg_attr(test, derive(Clone, PartialEq, Eq, Hash, Debug))]
pub(crate) struct Entry<J> {
    seq: u64,
    priority: i32,
    /// Participants that ever joined, the caller included (never
    /// decremented; at most `job.max_workers()`).
    joined: usize,
    /// Participants inside the job's work now.
    active: usize,
    job: J,
}

/// Everything the pool decides on under its lock.
#[cfg_attr(test, derive(Clone, PartialEq, Eq, Hash, Debug))]
pub(crate) struct PoolState<J> {
    /// The core budget: the pool's thread count.
    size: usize,
    /// At most this many jobs queued at once.
    max_active: usize,
    queue: Vec<Entry<J>>,
    next_seq: u64,
    shutdown: bool,
}

impl<J: Job> PoolState<J> {
    pub(crate) fn new(size: usize, max_active: usize) -> Self {
        Self {
            size,
            max_active,
            queue: Vec::new(),
            next_seq: 0,
            shutdown: false,
        }
    }

    /// Jobs queued now.
    pub(crate) fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Decides `event` (see the module docs for the rules), with `running`
    /// the threads inside some job's work: joined workers and callers.
    pub(crate) fn step(&mut self, running: &mut usize, event: Event<J>) -> (Outcome<J>, Wake) {
        let mut wake = Wake::default();
        let outcome = match event {
            Event::Enter { .. } if self.shutdown => {
                *running += 1;
                Outcome::Alone
            }
            Event::Enter { .. } if self.queue.len() >= self.max_active => Outcome::Wait,
            Event::Enter { job, priority } => {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.queue.push(Entry {
                    seq,
                    priority,
                    joined: 1,
                    active: 1,
                    job,
                });
                *running += 1;
                wake.worker = self.joinable(*running).is_some();
                Outcome::Queued(seq)
            }
            Event::Leave(seq) => {
                wake.callers = self.leave(running, seq);
                wake.worker = self.joinable(*running).is_some();
                Outcome::Done
            }
            Event::Await(seq) if self.queue.iter().any(|e| e.seq == seq) => Outcome::Wait,
            Event::Await(_) => Outcome::Done,
            Event::Idle(left) => {
                wake.callers = left.is_some() && self.leave(running, left);
                match self.joinable(*running) {
                    Some(i) => {
                        let e = &mut self.queue[i];
                        e.joined += 1;
                        e.active += 1;
                        let joined = Outcome::Join(e.seq, e.job.clone());
                        *running += 1;
                        wake.worker = self.joinable(*running).is_some();
                        joined
                    }
                    None if self.shutdown => Outcome::Done,
                    None => Outcome::Sleep,
                }
            }
            Event::Shutdown => {
                self.shutdown = true;
                wake.workers = true;
                wake.callers = true;
                Outcome::Done
            }
        };
        (outcome, wake)
    }

    /// Gives a participant's core back, and its place in entry `seq` if it
    /// had one; returns whether that retired the job.
    fn leave(&mut self, running: &mut usize, seq: Option<u64>) -> bool {
        *running -= 1;
        let Some(seq) = seq else {
            return false;
        };
        let i = self
            .queue
            .iter()
            .position(|e| e.seq == seq)
            .expect("a job stays queued while a participant is inside");
        self.queue[i].active -= 1;
        let retired = self.queue[i].active == 0;
        if retired {
            self.queue.remove(i);
        }
        retired
    }

    /// The entry an idle worker would join now, if any.
    fn joinable(&self, running: usize) -> Option<usize> {
        if running >= self.size {
            return None;
        }
        self.queue
            .iter()
            .enumerate()
            .filter(|(_, e)| e.joined < e.job.max_workers() && e.job.has_work())
            .max_by_key(|(_, e)| (e.priority, Reverse(e.seq)))
            .map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    //! The exhaustive check of [`PoolState::step`]: a depth-first search over
    //! every interleaving of a few callers, two workers and a thread that
    //! shuts the pool down, on a pool of two cores admitting two parallel
    //! jobs. Each pool call is one atomic step (the real pool makes it under
    //! its lock), so is a one-core caller counting its core without the
    //! lock, each task a participant pulls is one more, and a wakeup
    //! moves a waiting thread back to its check — one sleeping worker of the
    //! model's choice for a single wakeup, every one for the others. Every
    //! reachable state must hold these invariants:
    //!
    //! * every schedule ends, and ends with every task of every job run once
    //!   and every thread done — the pool shut down and its workers gone;
    //! * no worker sleeps, unwoken, while a job it could join waits and a
    //!   core is free, unless another worker is on its way to look;
    //! * a worker joins a job only while a core is free;
    //! * no job ever has more participants than its `max_workers`, and no
    //!   more jobs are queued than the admission budget.

    use std::collections::HashSet;

    use super::*;

    /// A job of the model: its width, and its task dispenser.
    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    struct Tasks {
        id: u8,
        max_workers: u8,
        next: u8,
        tasks: u8,
    }

    impl Job for Tasks {
        fn max_workers(&self) -> usize {
            self.max_workers.into()
        }

        fn has_work(&self) -> bool {
            self.next < self.tasks
        }
    }

    /// A job a caller brings: its width, task count and priority.
    #[derive(Clone, Copy)]
    struct Spec(u8, u8, i32);

    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    enum Caller {
        /// About to enter its next job, or done when there is none.
        Enter,
        /// Waiting for an admission place.
        Admitting,
        /// Working a job alone.
        Alone(Tasks),
        /// Working its queued job.
        Working(u64),
        /// Returned from its job's work, about to leave it.
        Leaving(Option<u64>),
        /// About to ask whether its workers left.
        Await(u64),
        /// Waiting for its workers to leave.
        Awaiting(u64),
    }

    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
    enum Worker {
        /// About to look for a job, having left entry `Some(seq)`.
        Idle(Option<u64>),
        Asleep,
        Working(u64),
        Exited,
    }

    #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
    enum Main {
        /// May shut the pool down at any step.
        Running,
        /// Shut it down; joins the workers.
        Joining,
        Done,
    }

    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    struct World {
        pool: PoolState<Tasks>,
        /// Threads inside some job's work.
        running: usize,
        /// Each caller's step and how many of its jobs it finished.
        callers: Vec<(Caller, u8)>,
        /// Kept sorted: workers are interchangeable.
        workers: Vec<Worker>,
        main: Main,
        /// Tasks run, per job.
        ran: Vec<u8>,
    }

    struct Model<'a> {
        scripts: &'a [Vec<Spec>],
        /// Job ids of each caller's jobs.
        ids: Vec<Vec<u8>>,
        /// Every job's task count, by id.
        tasks: Vec<u8>,
        /// Fully explored states.
        seen: HashSet<World>,
        /// States on the current path.
        path: HashSet<World>,
        /// Distinct states in which every schedule through them ended.
        terminal: usize,
    }

    impl<'a> Model<'a> {
        fn new(scripts: &'a [Vec<Spec>]) -> Self {
            let mut ids = Vec::new();
            let mut tasks = Vec::new();
            for script in scripts {
                ids.push((0..script.len()).map(|k| (tasks.len() + k) as u8).collect());
                tasks.extend(script.iter().map(|s| s.1));
            }
            Self {
                scripts,
                ids,
                tasks,
                seen: HashSet::new(),
                path: HashSet::new(),
                terminal: 0,
            }
        }

        fn start(&self) -> World {
            World {
                pool: PoolState::new(2, 2),
                running: 0,
                callers: vec![(Caller::Enter, 0); self.scripts.len()],
                workers: vec![Worker::Idle(None); 2],
                main: Main::Running,
                ran: vec![0; self.tasks.len()],
            }
        }

        /// Searches every schedule from the start; returns the number of
        /// states explored.
        fn check(mut self) -> usize {
            let start = self.start();
            self.explore(start);
            assert!(self.terminal > 0, "no schedule ended");
            self.seen.len()
        }

        fn explore(&mut self, world: World) {
            if self.seen.contains(&world) {
                return;
            }
            assert!(
                self.path.insert(world.clone()),
                "a schedule can run forever through {world:?}"
            );
            let next = self.successors(&world);
            if next.is_empty() {
                self.assert_finished(&world);
                self.terminal += 1;
            }
            for w in next {
                self.assert_invariants(&w);
                self.explore(w);
            }
            self.path.remove(&world);
            self.seen.insert(world);
        }

        fn assert_finished(&self, w: &World) {
            let done =
                w.callers.iter().enumerate().all(|(c, &(pc, at))| {
                    pc == Caller::Enter && at as usize == self.scripts[c].len()
                });
            assert!(
                done && w.main == Main::Done && w.ran == self.tasks,
                "a schedule stops short: {w:?}"
            );
        }

        fn assert_invariants(&self, w: &World) {
            assert!(
                w.pool.queue.len() <= w.pool.max_active,
                "over the admission budget"
            );
            for e in &w.pool.queue {
                assert!(
                    e.active <= e.joined && e.joined <= e.job.max_workers(),
                    "entry {e:?} over its width"
                );
            }
            let looking = w.workers.iter().any(|w| matches!(w, Worker::Idle(_)));
            let asleep = w.workers.contains(&Worker::Asleep);
            assert!(
                looking || !asleep || w.pool.joinable(w.running).is_none(),
                "a worker sleeps while a job waits for a free core: {w:?}"
            );
        }

        /// Every state one step of one thread leads to.
        fn successors(&self, w: &World) -> Vec<World> {
            let mut out = Vec::new();
            for c in 0..w.callers.len() {
                self.caller_step(w, c, &mut out);
            }
            for i in 0..w.workers.len() {
                if i > 0 && w.workers[i] == w.workers[i - 1] {
                    continue; // the same step as the worker before it
                }
                self.worker_step(w, i, &mut out);
            }
            match w.main {
                Main::Running => {
                    let mut n = w.clone();
                    n.main = Main::Joining;
                    self.locked(n, Event::Shutdown, &mut out, |_, _| {});
                }
                Main::Joining if w.workers.iter().all(|&w| w == Worker::Exited) => {
                    let mut n = w.clone();
                    n.main = Main::Done;
                    out.push(n);
                }
                _ => {}
            }
            for n in &mut out {
                n.workers.sort();
            }
            out
        }

        fn caller_step(&self, w: &World, c: usize, out: &mut Vec<World>) {
            let (pc, at) = w.callers[c];
            let mut n = w.clone();
            let set = |n: &mut World, pc| n.callers[c].0 = pc;
            match pc {
                Caller::Enter => {
                    let Some(&Spec(max_workers, tasks, priority)) =
                        self.scripts[c].get(at as usize)
                    else {
                        return;
                    };
                    let job = Tasks {
                        id: self.ids[c][at as usize],
                        max_workers,
                        next: 0,
                        tasks,
                    };
                    if max_workers <= 1 {
                        // Counted without the lock.
                        n.running += 1;
                        set(&mut n, Caller::Alone(job));
                        out.push(n);
                        return;
                    }
                    let enter = Event::Enter { job, priority };
                    self.locked(n, enter, out, |n, outcome| match outcome {
                        Outcome::Alone => set(n, Caller::Alone(job)),
                        Outcome::Queued(seq) => set(n, Caller::Working(seq)),
                        Outcome::Wait => set(n, Caller::Admitting),
                        o => panic!("enter answered {o:?}"),
                    });
                }
                Caller::Alone(mut job) => {
                    if job.has_work() {
                        n.ran[job.id as usize] += 1;
                        job.next += 1;
                        set(&mut n, Caller::Alone(job));
                    } else {
                        set(&mut n, Caller::Leaving(None));
                    }
                    out.push(n);
                }
                Caller::Working(seq) => {
                    if !pull(&mut n, seq) {
                        set(&mut n, Caller::Leaving(Some(seq)));
                    }
                    out.push(n);
                }
                Caller::Leaving(entry) => {
                    self.locked(n, Event::Leave(entry), out, |n, _| match entry {
                        Some(seq) => set(n, Caller::Await(seq)),
                        None => n.callers[c] = (Caller::Enter, at + 1),
                    });
                }
                Caller::Await(seq) => {
                    self.locked(n, Event::Await(seq), out, |n, outcome| match outcome {
                        Outcome::Wait => set(n, Caller::Awaiting(seq)),
                        _ => n.callers[c] = (Caller::Enter, at + 1),
                    });
                }
                Caller::Admitting | Caller::Awaiting(_) => {}
            }
        }

        fn worker_step(&self, w: &World, i: usize, out: &mut Vec<World>) {
            let mut n = w.clone();
            match w.workers[i] {
                Worker::Idle(left) => {
                    // The worker gives its last job's core back first.
                    let free = w.running - usize::from(left.is_some()) < w.pool.size;
                    self.locked(n, Event::Idle(left), out, |n, outcome| {
                        n.workers[i] = match outcome {
                            Outcome::Join(seq, _) => {
                                assert!(free, "a worker joined with no core free: {w:?}");
                                Worker::Working(seq)
                            }
                            Outcome::Sleep => Worker::Asleep,
                            Outcome::Done => Worker::Exited,
                            o => panic!("idle answered {o:?}"),
                        }
                    });
                }
                Worker::Working(seq) => {
                    if !pull(&mut n, seq) {
                        n.workers[i] = Worker::Idle(Some(seq));
                    }
                    out.push(n);
                }
                Worker::Asleep | Worker::Exited => {}
            }
        }

        /// One locked pool call: decides `event`, moves the calling thread
        /// on by `then`, and performs the wakeups — one state per choice
        /// of the worker a single wakeup reaches.
        fn locked(
            &self,
            mut n: World,
            event: Event<Tasks>,
            out: &mut Vec<World>,
            then: impl FnOnce(&mut World, Outcome<Tasks>),
        ) {
            let (outcome, wake) = n.pool.step(&mut n.running, event);
            then(&mut n, outcome);
            if wake.callers {
                for (pc, _) in &mut n.callers {
                    *pc = match *pc {
                        Caller::Admitting => Caller::Enter,
                        Caller::Awaiting(seq) => Caller::Await(seq),
                        pc => pc,
                    };
                }
            }
            let asleep: Vec<usize> = (0..n.workers.len())
                .filter(|&i| n.workers[i] == Worker::Asleep)
                .collect();
            if wake.workers {
                asleep
                    .iter()
                    .for_each(|&i| n.workers[i] = Worker::Idle(None));
            } else if wake.worker && !asleep.is_empty() {
                for &i in &asleep {
                    let mut m = n.clone();
                    m.workers[i] = Worker::Idle(None);
                    out.push(m);
                }
                return;
            }
            out.push(n);
        }
    }

    /// A participant of entry `seq` pulls one task; `false` when none is
    /// left.
    fn pull(w: &mut World, seq: u64) -> bool {
        let e = w
            .pool
            .queue
            .iter_mut()
            .find(|e| e.seq == seq)
            .expect("a participant's entry stays queued");
        if !e.job.has_work() {
            return false;
        }
        e.job.next += 1;
        w.ran[e.job.id as usize] += 1;
        true
    }

    fn parallel(max_workers: u8, tasks: u8, priority: i32) -> Spec {
        Spec(max_workers, tasks, priority)
    }

    fn one_core(tasks: u8) -> Spec {
        Spec(1, tasks, 0)
    }

    #[test]
    fn every_schedule_of_three_callers_completes_and_wastes_no_core() {
        let scenarios = [
            // A job run alone beside two parallel ones of unequal priority.
            vec![
                vec![parallel(2, 2, 0)],
                vec![parallel(3, 2, 1)],
                vec![one_core(1)],
            ],
            // Three parallel jobs on an admission budget of two.
            vec![
                vec![parallel(2, 2, 0)],
                vec![parallel(2, 1, 0)],
                vec![parallel(3, 2, 1)],
            ],
            // A caller with two jobs back to back, one of them alone.
            vec![
                vec![parallel(2, 2, 0), one_core(1)],
                vec![parallel(3, 2, 0)],
            ],
        ];
        for scripts in &scenarios {
            let states = Model::new(scripts).check();
            assert!(states > 1000, "{states} states");
        }
    }

    /// The same search one caller and one job deeper, with longer jobs:
    /// ≈ 264 k states against the largest tier-1 scenario's 31 k, so it
    /// runs in its own release step of CI instead of in every test run.
    #[test]
    #[ignore]
    fn every_schedule_of_four_callers_completes_and_wastes_no_core() {
        let scripts = [
            vec![parallel(2, 3, 0)],
            vec![parallel(3, 3, 1)],
            vec![one_core(2)],
            vec![parallel(2, 2, -1)],
        ];
        let states = Model::new(&scripts).check();
        assert!(states > 10_000, "{states} states");
    }
}
