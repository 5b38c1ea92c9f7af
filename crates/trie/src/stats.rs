//! Structural statistics: memory footprint and depth profile.
//!
//! The paper's discussion of `k′` (§2.1) is a trade-off between memory
//! accesses per key (≈ depth) and memory consumption; these statistics let
//! the Ablation A3 bench and the engine's operator statistics report both.

use crate::tree::{decode, PrefixTree, Slot};

/// A snapshot of a tree's structure and memory footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrieStats {
    /// Number of inner nodes (including the root).
    pub nodes: usize,
    /// Number of content entries (= distinct keys).
    pub distinct_keys: usize,
    /// Total stored values (≥ distinct keys).
    pub total_values: usize,
    /// Bytes held by the node bucket arrays.
    pub node_bytes: usize,
    /// Bytes held by content entries.
    pub content_bytes: usize,
    /// Bytes held by duplicate segments.
    pub dup_bytes: usize,
    /// Deepest level at which a content entry sits (root = level 0); 0 for
    /// an empty tree.
    pub max_depth: u32,
}

impl TrieStats {
    /// Total tracked bytes.
    pub fn total_bytes(&self) -> usize {
        self.node_bytes + self.content_bytes + self.dup_bytes
    }
}

impl<V: Copy + Default> PrefixTree<V> {
    /// Computes structural statistics. Only the depth profile walks the
    /// tree; the byte figures are [`memory_bytes`](Self::memory_bytes)'s.
    pub fn stats(&self) -> TrieStats {
        let fanout = self.cfg.fanout();
        let nodes = self.slots.len() / fanout;
        let (node_bytes, content_bytes, dup_bytes) = self.byte_parts();
        let mut max_depth = 0u32;
        // Iterative DFS over (node, level).
        let mut stack = vec![(0u32, 0u32)];
        while let Some((node, level)) = stack.pop() {
            for b in 0..fanout {
                match decode(self.slots[self.slot_index(node, b)]) {
                    Slot::Empty => {}
                    Slot::Content(_) => max_depth = max_depth.max(level),
                    Slot::Node(n) => stack.push((n, level + 1)),
                }
            }
        }
        TrieStats {
            nodes,
            distinct_keys: self.len(),
            total_values: self.total_values(),
            node_bytes,
            content_bytes,
            dup_bytes,
            max_depth,
        }
    }

    /// Bytes of memory attributable to this tree (nodes + contents + dups)
    /// — equal to `stats().total_bytes()`, but read off the arena lengths,
    /// without the depth walk.
    pub fn memory_bytes(&self) -> usize {
        let (nodes, contents, dups) = self.byte_parts();
        nodes + contents + dups
    }

    /// Bytes of the node bucket arrays, the content entries and the
    /// duplicate segments.
    fn byte_parts(&self) -> (usize, usize, usize) {
        (
            self.slots.len() * core::mem::size_of::<u32>(),
            self.contents.len() * core::mem::size_of::<crate::tree::Content<V>>(),
            self.dups.allocated_bytes(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TrieConfig;

    #[test]
    fn empty_tree_stats() {
        let t = PrefixTree::<u32>::pt4_32();
        let s = t.stats();
        assert_eq!(s.nodes, 1); // root
        assert_eq!(s.distinct_keys, 0);
        assert_eq!(s.max_depth, 0);
        assert!(s.total_bytes() > 0);
    }

    #[test]
    fn depth_grows_with_shared_prefixes() {
        let mut t = PrefixTree::<u32>::pt4_32();
        t.insert(0x0000_0000, 1);
        assert_eq!(t.stats().max_depth, 0);
        t.insert(0x0000_0001, 2); // shares 7 fragments → depth 7
        assert_eq!(t.stats().max_depth, 7);
    }

    #[test]
    fn higher_kprime_is_shallower_but_bigger_when_sparse() {
        // §2.1: "Setting k′ to a high value ... halves the maximum number of
        // memory accesses per key, but increases the memory consumption, if
        // the key distribution is not dense." Use sparse random 32-bit keys.
        let build = |k: u8| {
            let mut rng = qppt_mem::Xoshiro256StarStar::new(123);
            let mut t = PrefixTree::<u32>::new(TrieConfig::new(32, k).unwrap());
            for i in 0..2000u32 {
                t.insert(rng.next_u32() as u64, i);
            }
            t.stats()
        };
        let s2 = build(2);
        let s8 = build(8);
        assert!(s8.max_depth < s2.max_depth);
        assert!(s8.node_bytes > s2.node_bytes);
    }

    #[test]
    fn dup_bytes_counted() {
        let mut t = PrefixTree::<u32>::pt4_32();
        for i in 0..10_000 {
            t.insert(1, i);
        }
        assert!(t.stats().dup_bytes >= 10_000 * 4);
    }
}
