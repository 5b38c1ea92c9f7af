//! Batched KISS-Tree operations (§2.3).
//!
//! With only two levels, a batched lookup needs just three rounds: resolve
//! and prefetch the second-level node, resolve and prefetch the content,
//! then read it. The paper highlights that batching benefits the KISS-Tree
//! most in the memory-bound regime, where its non-batched lookups otherwise
//! degrade towards hash-table performance (Fig. 3(b)).
//!
//! A cache-resident tree is the other regime: there the rounds and their
//! prefetches are pure overhead, and [`KissTree::get_handles`] — one tight
//! loop of two dependent loads per key, with no branch on the data — is the
//! faster batched lookup. Both read a node through the one `node_entry`, an
//! empty root slot through the sentinel node.

use qppt_mem::prefetch::prefetch_read;

use crate::tree::{KissTree, Values};

/// Caller-owned scratch of [`KissTree::batch_get_with`]: the per-job node
/// and content ids of the three rounds, kept between calls so a probe loop
/// allocates once.
#[derive(Debug, Default)]
pub struct BatchScratch {
    node_of: Vec<u32>,
    content_of: Vec<u32>,
}

impl<V: Copy + Default> KissTree<V> {
    /// Batched lookup: invokes `out(job_index, values)` for every present
    /// key. Equivalent to per-key [`get`](Self::get), with the memory
    /// latency of the two dependent dereferences overlapped across jobs.
    pub fn batch_get<'a>(&'a self, keys: &[u32], out: impl FnMut(usize, Values<'a, V>)) {
        self.batch_get_with(keys, &mut BatchScratch::default(), out);
    }

    /// [`batch_get`](Self::batch_get) over caller-owned scratch: no
    /// allocation once `scratch` has grown to the largest batch.
    pub fn batch_get_with<'a>(
        &'a self,
        keys: &[u32],
        scratch: &mut BatchScratch,
        mut out: impl FnMut(usize, Values<'a, V>),
    ) {
        let BatchScratch {
            node_of,
            content_of,
        } = scratch;
        // Round 1: root slots → node numbers (prefetch the nodes; an empty
        // slot names the sentinel, which every lookup keeps in cache).
        node_of.clear();
        for &key in keys {
            let n = self.root_node(key as u64);
            self.prefetch_node(n);
            node_of.push(n);
        }
        // Round 2: node entries → content ids (prefetch contents).
        content_of.clear();
        for (&n, &key) in node_of.iter().zip(keys) {
            let (_, ei) = self.config().split(key);
            let e = self.node_entry(n, ei);
            if e != 0 {
                self.prefetch_content(e - 1);
            }
            content_of.push(e);
        }
        // Round 3: deliver.
        for (i, &e) in content_of.iter().enumerate() {
            if e != 0 {
                out(i, self.values_of(e - 1));
            }
        }
    }

    /// Batched first-value lookup (unique indexes).
    pub fn batch_get_first(&self, keys: &[u32]) -> Vec<Option<V>> {
        let mut out = vec![None; keys.len()];
        self.batch_get(keys, |i, mut vs| out[i] = vs.next().copied());
        out
    }

    /// Batched membership test.
    pub fn batch_contains(&self, keys: &[u32]) -> Vec<bool> {
        let mut out = vec![false; keys.len()];
        self.batch_get(keys, |i, _| out[i] = true);
        out
    }

    /// Batched insert. The descent is batched (root slots prefetched);
    /// structural updates are applied per job, which is safe because updates
    /// only append nodes/contents and write previously-empty entries.
    pub fn batch_insert(&mut self, pairs: &[(u32, V)]) {
        // Prefetch the root page of every job first, then insert. The root
        // access is the one most likely to fault a new page in.
        for &(key, _) in pairs {
            let (ri, _) = self.config().split(key);
            self.prefetch_root(ri);
        }
        for &(key, value) in pairs {
            self.insert(key, value);
        }
    }

    #[inline]
    fn prefetch_root(&self, root_idx: usize) {
        // The root vec is private to tree.rs; prefetch via the slot getter's
        // address computed from a reference obtained through iteration —
        // simplest is to reconstruct the address from the first slot.
        let base = self.root_slot_addr(root_idx);
        prefetch_read(base);
    }

    #[inline]
    fn prefetch_node(&self, n: u32) {
        prefetch_read(self.node_addr(n));
    }

    #[inline]
    fn prefetch_content(&self, content: u32) {
        prefetch_read(self.content_addr(content));
    }
}

#[cfg(test)]
mod tests {
    use crate::{KissConfig, KissTree};
    use qppt_mem::Xoshiro256StarStar;

    #[test]
    fn batch_get_matches_scalar() {
        for compressed in [false, true] {
            let mut t = KissTree::<u32>::new(KissConfig::small(compressed));
            let mut rng = Xoshiro256StarStar::new(21);
            let mut keys = Vec::new();
            for i in 0..4000u32 {
                let k = rng.below(1 << 16) as u32;
                t.insert(k, i);
                keys.push(k);
            }
            let mut probes = keys[..1500].to_vec();
            for _ in 0..1500 {
                probes.push(rng.below(1 << 16) as u32);
            }
            let got = t.batch_get_first(&probes);
            for (i, &k) in probes.iter().enumerate() {
                assert_eq!(got[i], t.get_first(k), "key {k} compressed={compressed}");
            }
        }
    }

    #[test]
    fn batch_insert_equals_scalar_insert() {
        let mut rng = Xoshiro256StarStar::new(22);
        let pairs: Vec<(u32, u32)> = (0..3000u32)
            .map(|i| ((rng.below(1 << 13)) as u32, i))
            .collect();
        let mut scalar = KissTree::<u32>::new(KissConfig::small(false));
        for &(k, v) in &pairs {
            scalar.insert(k, v);
        }
        let mut batched = KissTree::<u32>::new(KissConfig::small(false));
        batched.batch_insert(&pairs);
        let a: Vec<(u32, Vec<u32>)> = scalar
            .iter()
            .map(|(k, v)| (k, v.copied().collect()))
            .collect();
        let b: Vec<(u32, Vec<u32>)> = batched
            .iter()
            .map(|(k, v)| (k, v.copied().collect()))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn batch_on_empty_tree() {
        let t = KissTree::<u32>::new(KissConfig::small(false));
        assert_eq!(t.batch_get_first(&[1, 2, 3]), vec![None, None, None]);
        assert!(t.batch_get_first(&[]).is_empty());
    }

    #[test]
    fn batch_contains_mixed() {
        let mut t = KissTree::<u32>::new(KissConfig::small(false));
        t.insert(10, 0);
        t.insert(20, 0);
        assert_eq!(
            t.batch_contains(&[10, 11, 20, 21]),
            vec![true, false, true, false]
        );
    }
}
