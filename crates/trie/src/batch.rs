//! Batch processing on prefix trees (§2.3, Algorithm 1).
//!
//! Once a tree outgrows the CPU caches, lookups are dominated by dependent
//! memory accesses. Processing a *batch* of operations level-synchronously
//! lets each round issue a software prefetch for every job's next node, so
//! by the time the round advances to the next level the nodes are already in
//! L1. QPPT's join and insert buffers feed these entry points.

use qppt_mem::prefetch::prefetch_read;

use crate::tree::{decode, PrefixTree, Slot, Values};

/// Per-job state for the level-synchronous descent.
#[derive(Debug, Clone, Copy)]
enum JobState {
    /// Descending; currently positioned on this node.
    AtNode(u32),
    /// Reached a content entry; key comparison happens next round (the
    /// content was prefetched when it was discovered).
    AtContent(u32),
    /// Finished with the content index (or `None` if the key is absent).
    Done(Option<u32>),
}

/// Caller-owned scratch of [`PrefixTree::batch_get_with`]: the per-job
/// descent states, kept between calls so a probe loop allocates once.
#[derive(Debug, Default)]
pub struct BatchScratch {
    states: Vec<JobState>,
}

/// Outcome counters of a [`PrefixTree::batch_insert`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchInsertStats {
    /// Keys that were not present before.
    pub new_keys: usize,
    /// Values appended to already-present keys.
    pub appended: usize,
}

impl<V: Copy + Default> PrefixTree<V> {
    /// Looks up a batch of keys using the level-synchronous, prefetching
    /// descent of Algorithm 1. `out` receives `(job_index, values)` for every
    /// key that is present, in unspecified order.
    ///
    /// Equivalent to calling [`get`](Self::get) per key, but hides memory
    /// latency for batches larger than a handful of jobs.
    pub fn batch_get<'a>(&'a self, keys: &[u64], out: impl FnMut(usize, Values<'a, V>)) {
        self.batch_get_with(keys, &mut BatchScratch::default(), out);
    }

    /// [`batch_get`](Self::batch_get) over caller-owned scratch: no
    /// allocation once `scratch` has grown to the largest batch.
    pub fn batch_get_with<'a>(
        &'a self,
        keys: &[u64],
        scratch: &mut BatchScratch,
        mut out: impl FnMut(usize, Values<'a, V>),
    ) {
        for &k in keys {
            self.check_key(k);
        }
        let states = &mut scratch.states;
        states.clear();
        states.resize(keys.len(), JobState::AtNode(0));
        let mut level: u32 = 0;
        let mut open = keys.len();
        while open > 0 {
            for (i, state) in states.iter_mut().enumerate() {
                match *state {
                    JobState::Done(_) => {}
                    JobState::AtContent(c) => {
                        let found = self.key_of(c) == keys[i];
                        *state = JobState::Done(found.then_some(c));
                        open -= 1;
                    }
                    JobState::AtNode(node) => {
                        let si = self.slot_index(node, self.cfg.fragment(keys[i], level));
                        match decode(self.slots[si]) {
                            Slot::Empty => {
                                *state = JobState::Done(None);
                                open -= 1;
                            }
                            Slot::Content(c) => {
                                prefetch_read(&self.contents[c as usize] as *const _);
                                *state = JobState::AtContent(c);
                            }
                            Slot::Node(n) => {
                                prefetch_read(&self.slots[self.slot_index(n, 0)] as *const u32);
                                *state = JobState::AtNode(n);
                            }
                        }
                    }
                }
            }
            level += 1;
        }
        for (i, state) in states.iter().enumerate() {
            if let JobState::Done(Some(c)) = state {
                out(i, self.values_of(*c));
            }
        }
    }

    /// Convenience wrapper over [`batch_get`](Self::batch_get) returning the
    /// first value per key (for unique indexes).
    pub fn batch_get_first(&self, keys: &[u64]) -> Vec<Option<V>> {
        let mut out = vec![None; keys.len()];
        self.batch_get(keys, |i, mut vs| {
            out[i] = vs.next().copied();
        });
        out
    }

    /// `true`/`false` presence per key, batched.
    pub fn batch_contains(&self, keys: &[u64]) -> Vec<bool> {
        let mut out = vec![false; keys.len()];
        self.batch_get(keys, |i, _| out[i] = true);
        out
    }

    /// Inserts a batch of `(key, value)` pairs (multimap semantics, same as
    /// [`insert`](Self::insert)) using a level-synchronous prefetching
    /// descent. Jobs that reach their terminal position (an empty bucket, a
    /// matching content, or a content to expand) complete immediately; the
    /// structural updates only ever *append* nodes and contents, so the
    /// cached positions of in-flight jobs stay valid.
    pub fn batch_insert(&mut self, pairs: &[(u64, V)]) -> BatchInsertStats {
        for &(k, _) in pairs {
            self.check_key(k);
        }
        let mut stats = BatchInsertStats::default();
        let mut states: Vec<JobState> = vec![JobState::AtNode(0); pairs.len()];
        let mut level: u32 = 0;
        let mut open = pairs.len();
        while open > 0 {
            for (i, state) in states.iter_mut().enumerate() {
                let (key, value) = pairs[i];
                match *state {
                    JobState::Done(_) => {}
                    JobState::AtContent(_) => unreachable!("insert jobs finish inline"),
                    JobState::AtNode(node) => {
                        let si = self.slot_index(node, self.cfg.fragment(key, level));
                        match decode(self.slots[si]) {
                            Slot::Empty | Slot::Content(_) => {
                                // Terminal: finish this job with the scalar
                                // path starting at the current position.
                                let before = self.len();
                                self.insert_from(node, level, key, value);
                                if self.len() > before {
                                    stats.new_keys += 1;
                                } else {
                                    stats.appended += 1;
                                }
                                *state = JobState::Done(None);
                                open -= 1;
                            }
                            Slot::Node(n) => {
                                prefetch_read(&self.slots[self.slot_index(n, 0)] as *const u32);
                                *state = JobState::AtNode(n);
                            }
                        }
                    }
                }
            }
            level += 1;
        }
        stats
    }

    /// Scalar insert resuming at `node`/`level` (used by the batch path).
    fn insert_from(&mut self, node: u32, level: u32, key: u64, value: V) {
        // Delegate to the normal path; it re-descends from the root, but the
        // upper path is hot in cache at this point (it was just traversed),
        // so the extra cost is a few L1 hits. Resuming mid-path would
        // duplicate the expansion logic for no measurable gain.
        let _ = (node, level);
        self.insert(key, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qppt_mem::Xoshiro256StarStar;
    use std::collections::BTreeMap;

    #[test]
    fn batch_get_matches_scalar_get() {
        let mut t = PrefixTree::<u32>::pt4_32();
        let mut rng = Xoshiro256StarStar::new(10);
        let mut present = Vec::new();
        for i in 0..4000u32 {
            let k = rng.below(1 << 20);
            t.insert(k, i);
            present.push(k);
        }
        let mut probe: Vec<u64> = present[..1000].to_vec();
        for _ in 0..1000 {
            probe.push(rng.below(1 << 20)); // mix of hits and misses
        }
        let batched = t.batch_get_first(&probe);
        for (i, &k) in probe.iter().enumerate() {
            assert_eq!(batched[i], t.get_first(k), "key {k}");
        }
    }

    #[test]
    fn batch_get_empty_batch_and_empty_tree() {
        let t = PrefixTree::<u32>::pt4_32();
        assert!(t.batch_get_first(&[]).is_empty());
        assert_eq!(t.batch_get_first(&[1, 2, 3]), vec![None, None, None]);
    }

    #[test]
    fn batch_get_duplicates_in_batch() {
        let mut t = PrefixTree::<u32>::pt4_32();
        t.insert(5, 50);
        let got = t.batch_get_first(&[5, 5, 5, 6]);
        assert_eq!(got, vec![Some(50), Some(50), Some(50), None]);
    }

    #[test]
    fn batch_insert_equals_scalar_insert() {
        let mut rng = Xoshiro256StarStar::new(77);
        let pairs: Vec<(u64, u32)> = (0..5000u32).map(|i| (rng.below(1 << 14), i)).collect();

        let mut scalar = PrefixTree::<u32>::pt4_32();
        for &(k, v) in &pairs {
            scalar.insert(k, v);
        }
        let mut batched = PrefixTree::<u32>::pt4_32();
        let stats = batched.batch_insert(&pairs);

        assert_eq!(stats.new_keys + stats.appended, pairs.len());
        assert_eq!(batched.len(), scalar.len());
        assert_eq!(batched.total_values(), scalar.total_values());
        let a: Vec<(u64, Vec<u32>)> = scalar
            .iter()
            .map(|(k, v)| (k, v.copied().collect()))
            .collect();
        let b: Vec<(u64, Vec<u32>)> = batched
            .iter()
            .map(|(k, v)| (k, v.copied().collect()))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn batch_insert_same_key_within_batch() {
        let mut t = PrefixTree::<u32>::pt4_32();
        let stats = t.batch_insert(&[(9, 1), (9, 2), (9, 3)]);
        assert_eq!(stats.new_keys, 1);
        assert_eq!(stats.appended, 2);
        let vals: Vec<u32> = t.get(9).unwrap().copied().collect();
        assert_eq!(vals, vec![1, 2, 3]);
    }

    #[test]
    fn batch_contains_mixed() {
        let mut t = PrefixTree::<u32>::pt4_32();
        t.insert(1, 0);
        t.insert(100, 0);
        assert_eq!(
            t.batch_contains(&[1, 2, 100, 101]),
            vec![true, false, true, false]
        );
    }

    #[test]
    fn interleaved_batches_against_model() {
        let mut t = PrefixTree::<u32>::pt4_32();
        let mut model: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        let mut rng = Xoshiro256StarStar::new(3);
        for round in 0..10 {
            let pairs: Vec<(u64, u32)> = (0..500)
                .map(|i| (rng.below(4096), (round * 500 + i) as u32))
                .collect();
            t.batch_insert(&pairs);
            for &(k, v) in &pairs {
                model.entry(k).or_default().push(v);
            }
        }
        let got: Vec<(u64, Vec<u32>)> = t.iter().map(|(k, v)| (k, v.copied().collect())).collect();
        let expect: Vec<(u64, Vec<u32>)> = model.into_iter().collect();
        assert_eq!(got, expect);
    }
}
