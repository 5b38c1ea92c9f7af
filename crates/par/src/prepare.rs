//! Index builds on the pool's threads.
//!
//! A base-index build ([`qppt_storage::BaseIndex::build`]) is three linear
//! passes — keys, sort, gather — each split into independent tasks that
//! write disjoint memory, and it asks one hook, [`BuildTasks`], to run
//! them. [`ThreadTasks`] is this crate's hook: it runs a pass's tasks on as
//! many threads as the pool has workers, each thread claiming the next
//! unclaimed task. The indexes that come out are bit-identical to the
//! serial hook's; only the passes ran in parallel.
//!
//! The threads are scoped, the caller's plus `threads − 1` helpers, not the
//! pool's own workers: the tasks borrow the table and the output's chunks,
//! and a [`PoolJob`](crate::PoolJob) must own what it touches, which would
//! mean copying the keys or the table into it.
//!
//! Gated by [`PlanOptions::par_index_build`] (sequential default): with the
//! switch off — or a single-thread pool — this delegates to
//! [`qppt_core::prepare_indexes`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use qppt_core::{PlanOptions, QpptError};
use qppt_storage::{BuildTasks, Database, QuerySpec};

use crate::pool::WorkerPool;

/// Creates (or widens) every index the query needs, exactly as
/// [`qppt_core::prepare_indexes`] would, but with each build's passes run
/// on as many threads as `pool` has workers when
/// [`par_index_build`](PlanOptions::par_index_build) is on.
pub fn prepare_indexes_pooled(
    db: &mut Database,
    spec: &QuerySpec,
    opts: &PlanOptions,
    pool: &Arc<WorkerPool>,
) -> Result<(), QpptError> {
    if !opts.par_index_build || pool.size() <= 1 {
        return qppt_core::prepare_indexes(db, spec, opts);
    }
    qppt_core::prepare_indexes_with(db, spec, opts, &ThreadTasks::new(pool.size()))
}

/// The parallel [`BuildTasks`] hook: a pass's tasks on `threads` scoped
/// threads (the caller's among them), claimed in ascending order.
#[derive(Debug, Clone, Copy)]
pub struct ThreadTasks {
    threads: usize,
}

impl ThreadTasks {
    /// A hook that runs each pass on up to `threads` threads (at least one).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }
}

impl BuildTasks for ThreadTasks {
    fn run(&self, tasks: usize, task: &(dyn Fn(usize) + Sync)) {
        let next = AtomicUsize::new(0);
        let drain = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= tasks {
                break;
            }
            task(i);
        };
        std::thread::scope(|s| {
            for _ in 1..self.threads.min(tasks) {
                s.spawn(drain);
            }
            drain();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qppt_storage::key_order;

    /// The indirect stable sort the pooled order must equal.
    fn indirect_order(keys: &[u64]) -> Vec<u32> {
        let mut order: Vec<u32> = (0..keys.len() as u32).collect();
        order.sort_by_key(|&rid| keys[rid as usize]);
        order
    }

    #[test]
    fn pooled_order_matches_indirect_sort() {
        let mut rng = qppt_mem::Xoshiro256StarStar::new(0x706f_6f6c);
        let max = u32::MAX as u64;
        let mut wide: Vec<u64> = (0..40_000).map(|_| rng.below(1 << 20)).collect();
        wide[1_234] = max + 1;
        let cases: Vec<Vec<u64>> = vec![
            Vec::new(),
            // Heavy duplicates.
            (0..50_000).map(|_| rng.below(7)).collect(),
            // The 32-bit domain's ends.
            (0..20_000)
                .map(|_| [0, max][rng.below(2) as usize])
                .collect(),
            (0..30_000).map(|_| rng.below(max + 1)).collect(),
            // A key past 32 bits: the build sorts `(key, rid)` pairs.
            wide,
        ];
        for keys in &cases {
            for threads in [1, 2, 4] {
                assert_eq!(
                    key_order(keys, &ThreadTasks::new(threads)),
                    indirect_order(keys),
                    "{} keys, {threads} threads",
                    keys.len()
                );
            }
        }
    }
}
