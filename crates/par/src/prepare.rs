//! Parallel index build on the shared worker pool.
//!
//! `prepare_indexes` dominates cold start: every base index sorts all row
//! versions by (packed) key before the clustered insertion. The sort
//! partitions the same way the scans do — rids are bucketed on the top
//! [`morsel_bits`](qppt_core::PlanOptions::morsel_bits) bits of the key
//! domain (prefix-aligned, so buckets are key-disjoint and ordered), each
//! bucket sorts as one task on the [`WorkerPool`], and concatenating the
//! buckets in ascending order reproduces **exactly** the stable key-sorted
//! order of the sequential build (ties keep rid order within a bucket, and
//! buckets are filled in rid order). The indexes that come out are
//! bit-identical; only the sort ran in parallel.
//!
//! Gated by [`PlanOptions::par_index_build`] (sequential default): with the
//! switch off — or a single-thread pool — this delegates to
//! [`qppt_core::prepare_indexes`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use qppt_core::{PlanOptions, QpptError};
use qppt_storage::{sort_rids_by_key, Database, QuerySpec};

use crate::morsel::Partitioner;
use crate::pool::{PoolJob, WorkerPool};

/// Creates (or widens) every index the query needs, exactly as
/// [`qppt_core::prepare_indexes`] would, but with the key sorts of new
/// index builds partitioned across `pool` when
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
    qppt_core::prepare_indexes_with(db, spec, opts, &|keys| {
        par_sorted_order(pool, keys, opts.morsel_bits)
    })
}

/// Stable key-sorted rid order (`rid → keys[rid]`), computed by prefix
/// partitioning + per-bucket parallel sorts on the pool. Equals
/// [`qppt_storage::stable_key_order`]'s output for the same keys.
fn par_sorted_order(pool: &WorkerPool, keys: &[u64], morsel_bits: u8) -> Vec<u32> {
    if keys.is_empty() {
        return Vec::new();
    }
    let (min, max) = keys
        .iter()
        .fold((u64::MAX, 0u64), |(lo, hi), &k| (lo.min(k), hi.max(k)));
    let ranges = Partitioner::new(min, max, morsel_bits).morsels().to_vec();
    // Bucket in rid order: within a bucket rids stay ascending, which a
    // stable per-bucket sort preserves for equal keys — the global stable
    // order falls out of ascending-bucket concatenation.
    let mut buckets: Vec<Vec<u32>> = (0..ranges.len()).map(|_| Vec::new()).collect();
    for (rid, &k) in keys.iter().enumerate() {
        let b = ranges.partition_point(|r| r.hi < k);
        debug_assert!(ranges[b].contains(k));
        buckets[b].push(rid as u32);
    }
    let job = Arc::new(SortJob {
        keys: keys.to_vec(),
        buckets: buckets.into_iter().map(Mutex::new).collect(),
        next: AtomicUsize::new(0),
        max_workers: pool.size(),
    });
    // An aborted job (pool shut down before it started — started jobs
    // always run to completion) leaves every bucket unsorted; sort them
    // here rather than building a corrupt index.
    let aborted = pool
        .submit(job.clone() as Arc<dyn PoolJob>, 0)
        .wait()
        .is_err();
    let mut order = Vec::with_capacity(job.keys.len());
    for b in &job.buckets {
        let mut bucket = std::mem::take(&mut *b.lock().expect("sort lock"));
        if aborted {
            sort_rids_by_key(&mut bucket, &job.keys);
        }
        order.extend_from_slice(&bucket);
    }
    order
}

/// One task per bucket: sort its rids by key (stable; packed where the
/// keys fit 32 bits, see [`sort_rids_by_key`]).
struct SortJob {
    keys: Vec<u64>,
    buckets: Vec<Mutex<Vec<u32>>>,
    next: AtomicUsize,
    max_workers: usize,
}

impl PoolJob for SortJob {
    fn max_workers(&self) -> usize {
        self.max_workers
    }

    fn has_work(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.buckets.len()
    }

    fn work(&self) {
        loop {
            let b = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(bucket) = self.buckets.get(b) else {
                break;
            };
            sort_rids_by_key(&mut bucket.lock().expect("sort lock"), &self.keys);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The indirect stable sort the pooled order must equal.
    fn indirect_order(keys: &[u64]) -> Vec<u32> {
        let mut order: Vec<u32> = (0..keys.len() as u32).collect();
        order.sort_by_key(|&rid| keys[rid as usize]);
        order
    }

    #[test]
    fn pooled_order_matches_indirect_sort() {
        let pool = WorkerPool::new(2, 2);
        let mut rng = qppt_mem::Xoshiro256StarStar::new(0x706f_6f6c);
        let max = u32::MAX as u64;
        let mut wide: Vec<u64> = (0..4_000).map(|_| rng.below(1 << 20)).collect();
        wide[1_234] = max + 1;
        let cases: Vec<Vec<u64>> = vec![
            Vec::new(),
            // Heavy duplicates.
            (0..5_000).map(|_| rng.below(7)).collect(),
            // The 32-bit domain's ends.
            (0..2_000)
                .map(|_| [0, max][rng.below(2) as usize])
                .collect(),
            (0..3_000).map(|_| rng.below(max + 1)).collect(),
            // A key past 32 bits: its bucket takes the fallback.
            wide,
        ];
        for keys in &cases {
            for morsel_bits in [1, 3, 6] {
                assert_eq!(
                    par_sorted_order(&pool, keys, morsel_bits),
                    indirect_order(keys),
                    "{} keys, {morsel_bits} morsel bits",
                    keys.len()
                );
            }
        }
        pool.shutdown();
    }
}
