//! Ordered iteration and range scans.
//!
//! Because fragments are taken most-significant-first and buckets are
//! visited in index order, a depth-first walk yields keys in ascending
//! order — "the resulting index is physically a prefix tree, it is already
//! sorted" (§3). There is one cursor, [`RangeIter`]: it prunes subtrees whose
//! key interval does not intersect the requested range, and a full iteration
//! is the range `[0, u64::MAX]`, which prunes nothing.

use crate::tree::{decode, PrefixTree, Slot, Values};

struct Frame {
    node: u32,
    bucket: usize,
    /// Key bits accumulated above this node (aligned to the low end).
    prefix: u64,
    level: u32,
}

/// Ordered iterator over `(key, values)` pairs with keys in `[lo, hi]` — the
/// tree's one cursor; a full iteration is the range over the whole domain.
pub struct RangeIter<'a, V> {
    tree: &'a PrefixTree<V>,
    stack: Vec<Frame>,
    lo: u64,
    hi: u64,
}

impl<'a, V: Copy + Default> Iterator for RangeIter<'a, V> {
    type Item = (u64, Values<'a, V>);

    fn next(&mut self) -> Option<Self::Item> {
        let cfg = self.tree.cfg;
        let fanout = cfg.fanout();
        let kprime = cfg.kprime() as u32;
        let key_bits = cfg.key_bits() as u32;
        loop {
            let frame = self.stack.last_mut()?;
            if frame.bucket == fanout {
                self.stack.pop();
                continue;
            }
            let si = self.tree.slot_index(frame.node, frame.bucket);
            let bucket = frame.bucket;
            let level = frame.level;
            let prefix = frame.prefix;
            frame.bucket += 1;
            match decode(self.tree.slots[si]) {
                Slot::Empty => continue,
                Slot::Content(c) => {
                    let key = self.tree.key_of(c);
                    if key >= self.lo && key <= self.hi {
                        return Some((key, self.tree.values_of(c)));
                    }
                }
                Slot::Node(n) => {
                    // Key interval covered by this subtree:
                    // [base, base + 2^rem - 1] where `rem` bits remain below.
                    let rem = key_bits - (level + 1) * kprime;
                    let base = ((prefix << kprime) | bucket as u64) << rem;
                    let span_max = base | if rem == 0 { 0 } else { (1u64 << rem) - 1 };
                    if span_max < self.lo || base > self.hi {
                        continue;
                    }
                    self.stack.push(Frame {
                        node: n,
                        bucket: 0,
                        prefix: (prefix << kprime) | bucket as u64,
                        level: level + 1,
                    });
                }
            }
        }
    }
}

impl<V: Copy + Default> PrefixTree<V> {
    /// Iterates all `(key, values)` pairs in ascending key order.
    pub fn iter(&self) -> RangeIter<'_, V> {
        self.range(0, u64::MAX)
    }

    /// Iterates `(key, values)` pairs with `lo <= key <= hi`, in ascending
    /// key order. Empty if `lo > hi`.
    pub fn range(&self, lo: u64, hi: u64) -> RangeIter<'_, V> {
        RangeIter {
            tree: self,
            stack: if lo <= hi {
                vec![Frame {
                    node: 0,
                    bucket: 0,
                    prefix: 0,
                    level: 0,
                }]
            } else {
                Vec::new()
            },
            lo,
            hi,
        }
    }

    /// All keys in ascending order (convenience for tests and set ops).
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Smallest key, if any.
    pub fn min_key(&self) -> Option<u64> {
        self.keys().next()
    }

    /// Largest key, if any. O(depth · fanout): walks the right spine.
    pub fn max_key(&self) -> Option<u64> {
        let mut node = 0u32;
        let mut best: Option<u64> = None;
        'outer: loop {
            let fanout = self.cfg.fanout();
            for b in (0..fanout).rev() {
                match decode(self.slots[self.slot_index(node, b)]) {
                    Slot::Empty => continue,
                    Slot::Content(c) => {
                        let k = self.key_of(c);
                        best = Some(best.map_or(k, |b: u64| b.max(k)));
                        return best;
                    }
                    Slot::Node(n) => {
                        node = n;
                        continue 'outer;
                    }
                }
            }
            return best;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qppt_mem::Xoshiro256StarStar;
    use std::collections::BTreeMap;

    fn build_pair(n: usize, seed: u64) -> (PrefixTree<u32>, BTreeMap<u64, Vec<u32>>) {
        let mut t = PrefixTree::<u32>::pt4_32();
        let mut m: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
        let mut rng = Xoshiro256StarStar::new(seed);
        for i in 0..n {
            // Small domain → plenty of duplicates.
            let k = rng.below(1 << 16);
            t.insert(k, i as u32);
            m.entry(k).or_default().push(i as u32);
        }
        (t, m)
    }

    #[test]
    fn iteration_matches_btreemap() {
        let (t, m) = build_pair(5000, 1);
        let got: Vec<(u64, Vec<u32>)> = t.iter().map(|(k, v)| (k, v.copied().collect())).collect();
        let expect: Vec<(u64, Vec<u32>)> = m.into_iter().collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn iteration_empty_tree() {
        let t = PrefixTree::<u32>::pt4_32();
        assert_eq!(t.iter().count(), 0);
        assert_eq!(t.range(0, u32::MAX as u64).count(), 0);
        assert_eq!(t.min_key(), None);
        assert_eq!(t.max_key(), None);
    }

    #[test]
    fn range_matches_btreemap() {
        let (t, m) = build_pair(3000, 2);
        for (lo, hi) in [
            (0u64, u32::MAX as u64),
            (100, 50_000),
            (1 << 15, (1 << 16) - 1),
            (7, 7),
            (60_000, 70_000),
        ] {
            let got: Vec<u64> = t.range(lo, hi).map(|(k, _)| k).collect();
            let expect: Vec<u64> = m.range(lo..=hi).map(|(&k, _)| k).collect();
            assert_eq!(got, expect, "range [{lo}, {hi}]");
        }
    }

    #[test]
    fn inverted_range_is_empty() {
        let (t, _) = build_pair(100, 3);
        assert_eq!(t.range(500, 100).count(), 0);
    }

    #[test]
    fn point_range_finds_exact_key() {
        let mut t = PrefixTree::<u32>::pt4_32();
        t.insert(1000, 1);
        t.insert(1001, 2);
        t.insert(999, 3);
        let got: Vec<u64> = t.range(1000, 1000).map(|(k, _)| k).collect();
        assert_eq!(got, vec![1000]);
    }

    #[test]
    fn min_max_keys() {
        let (t, m) = build_pair(2000, 4);
        assert_eq!(t.min_key(), m.keys().next().copied());
        assert_eq!(t.max_key(), m.keys().next_back().copied());
    }

    #[test]
    fn range_on_64bit_composite_keys() {
        let mut t = PrefixTree::<u32>::pt4_64();
        let mut keys = Vec::new();
        for hi in [1u64, 2, 3] {
            for lo in [10u64, 20, 30] {
                let k = (hi << 32) | lo;
                t.insert(k, 0);
                keys.push(k);
            }
        }
        // All keys with hi = 2.
        let got: Vec<u64> = t.range(2 << 32, (3 << 32) - 1).map(|(k, _)| k).collect();
        assert_eq!(got, vec![(2 << 32) | 10, (2 << 32) | 20, (2 << 32) | 30]);
    }
}
