//! The synchronous index scan (§4.2) and the set operators built on it.
//!
//! Two prefix trees with the same geometry are scanned *synchronously*: both
//! root nodes are walked left to right, and the scan only descends into a
//! bucket when it is populated **in both** indexes. Whole subtrees present
//! on only one side are skipped without being touched — this is what makes
//! joining two indexed tables cheap on unbalanced trees, and the paper uses
//! the very same kernel for joins and set operators.

use crate::tree::{decode, PrefixTree, Slot, Values};

/// Runs a synchronous index scan over two trees, invoking `f` for every key
/// present in **both**, in ascending key order: [`sync_scan_range`] over the
/// whole key domain.
pub fn sync_scan<'l, 'r, VL, VR>(
    left: &'l PrefixTree<VL>,
    right: &'r PrefixTree<VR>,
    f: impl FnMut(u64, Values<'l, VL>, Values<'r, VR>),
) where
    VL: Copy + Default,
    VR: Copy + Default,
{
    sync_scan_range(left, right, 0, u64::MAX, f)
}

/// The synchronous index scan kernel: invokes `f` for every key in
/// `[lo, hi]` present in **both** trees, in ascending key order.
///
/// Both trees must share the same [`TrieConfig`](crate::TrieConfig)
/// geometry; this is enforced with a panic because the planner guarantees it
/// (cooperative operators always build the output index in the geometry the
/// consumer asks for).
///
/// The range is the **cursor** of the executor: a morsel is a top-level
/// prefix range of the key domain, and each worker co-walks only the
/// subtrees whose key interval intersects its morsel; sequential execution
/// is the one morsel covering the whole domain. Subtrees entirely outside
/// `[lo, hi]` are pruned exactly like [`RangeIter`](crate::RangeIter)
/// prunes them, so the work is proportional to the range's population, not
/// the whole tree.
pub fn sync_scan_range<'l, 'r, VL, VR>(
    left: &'l PrefixTree<VL>,
    right: &'r PrefixTree<VR>,
    lo: u64,
    hi: u64,
    mut f: impl FnMut(u64, Values<'l, VL>, Values<'r, VR>),
) where
    VL: Copy + Default,
    VR: Copy + Default,
{
    assert_eq!(
        left.config(),
        right.config(),
        "synchronous scan requires identical tree geometry"
    );
    if left.is_empty() || right.is_empty() || lo > hi {
        return;
    }
    sync_rec_range(left, right, 0, 0, 0, 0, lo, hi, &mut f);
}

#[allow(clippy::too_many_arguments)]
fn sync_rec_range<'l, 'r, VL, VR>(
    left: &'l PrefixTree<VL>,
    right: &'r PrefixTree<VR>,
    lnode: u32,
    rnode: u32,
    level: u32,
    prefix: u64,
    lo: u64,
    hi: u64,
    f: &mut impl FnMut(u64, Values<'l, VL>, Values<'r, VR>),
) where
    VL: Copy + Default,
    VR: Copy + Default,
{
    let cfg = left.config();
    let fanout = cfg.fanout();
    let kprime = cfg.kprime() as u32;
    let key_bits = cfg.key_bits() as u32;
    for b in 0..fanout {
        // Key interval covered by bucket `b` of this node:
        // [base, base + 2^rem - 1] where `rem` bits remain below.
        let rem = key_bits - (level + 1) * kprime;
        let base = ((prefix << kprime) | b as u64) << rem;
        let span_max = base | if rem == 0 { 0 } else { (1u64 << rem) - 1 };
        if span_max < lo || base > hi {
            continue;
        }
        let ls = decode(left.slots[left.slot_index(lnode, b)]);
        let rs = decode(right.slots[right.slot_index(rnode, b)]);
        match (ls, rs) {
            (Slot::Empty, _) | (_, Slot::Empty) => {}
            (Slot::Node(ln), Slot::Node(rn)) => {
                sync_rec_range(
                    left,
                    right,
                    ln,
                    rn,
                    level + 1,
                    (prefix << kprime) | b as u64,
                    lo,
                    hi,
                    f,
                );
            }
            (Slot::Node(ln), Slot::Content(rc)) => {
                // The scan suspends on the right content and resumes as a
                // point descent into the left subtree.
                let key = right.key_of(rc);
                if key >= lo && key <= hi {
                    if let Some(lc) = left.find_content_from(ln, level + 1, key) {
                        f(key, left.values_of(lc), right.values_of(rc));
                    }
                }
            }
            (Slot::Content(lc), Slot::Node(rn)) => {
                let key = left.key_of(lc);
                if key >= lo && key <= hi {
                    if let Some(rc) = right.find_content_from(rn, level + 1, key) {
                        f(key, left.values_of(lc), right.values_of(rc));
                    }
                }
            }
            (Slot::Content(lc), Slot::Content(rc)) => {
                let key = left.key_of(lc);
                if key == right.key_of(rc) && key >= lo && key <= hi {
                    f(key, left.values_of(lc), right.values_of(rc));
                }
            }
        }
    }
}

/// Scans the *union* of two trees' keys in ascending order, invoking `f`
/// with the values present on each side.
///
/// A union must visit every key of both inputs, so — unlike the
/// intersecting scan — there are no subtrees to skip; the structural co-walk
/// degenerates to a merge of the two ordered iterations, which is how it is
/// implemented.
pub fn sync_union_scan<'l, 'r, VL, VR>(
    left: &'l PrefixTree<VL>,
    right: &'r PrefixTree<VR>,
    mut f: impl FnMut(u64, Option<Values<'l, VL>>, Option<Values<'r, VR>>),
) where
    VL: Copy + Default,
    VR: Copy + Default,
{
    assert_eq!(
        left.config(),
        right.config(),
        "synchronous scan requires identical tree geometry"
    );
    let mut li = left.iter().peekable();
    let mut ri = right.iter().peekable();
    loop {
        let order = match (li.peek(), ri.peek()) {
            (None, None) => break,
            (Some(_), None) => core::cmp::Ordering::Less,
            (None, Some(_)) => core::cmp::Ordering::Greater,
            (Some((lk, _)), Some((rk, _))) => lk.cmp(rk),
        };
        match order {
            core::cmp::Ordering::Less => {
                let (k, lv) = li.next().expect("peeked");
                f(k, Some(lv), None);
            }
            core::cmp::Ordering::Greater => {
                let (k, rv) = ri.next().expect("peeked");
                f(k, None, Some(rv));
            }
            core::cmp::Ordering::Equal => {
                let (k, lv) = li.next().expect("peeked");
                let (_, rv) = ri.next().expect("peeked");
                f(k, Some(lv), Some(rv));
            }
        }
    }
}

/// Set intersection (§4.1): the QPPT `intersect` operator for conjunctive
/// selections over record-identifier indexes. Keys present in both inputs
/// are inserted into a fresh tree; values are taken from the left input
/// (both sides carry the same rid payloads in the intended use).
pub fn intersect<V: Copy + Default>(left: &PrefixTree<V>, right: &PrefixTree<V>) -> PrefixTree<V> {
    let mut out = PrefixTree::new(left.config());
    sync_scan(left, right, |key, lvals, _| {
        for v in lvals {
            out.insert(key, *v);
        }
    });
    out
}

/// Distinct set union (§4.1): the QPPT `union` operator for disjunctive
/// selections. Every key of either input appears once; values come from the
/// left input when present there, otherwise from the right.
pub fn union_distinct<V: Copy + Default>(
    left: &PrefixTree<V>,
    right: &PrefixTree<V>,
) -> PrefixTree<V> {
    let mut out = PrefixTree::new(left.config());
    sync_union_scan(left, right, |key, lvals, rvals| {
        let vals = lvals.or(rvals).expect("union key exists on some side");
        for v in vals {
            out.insert(key, *v);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qppt_mem::Xoshiro256StarStar;
    use std::collections::BTreeSet;

    fn tree_of(keys: &[u64]) -> PrefixTree<u32> {
        let mut t = PrefixTree::pt4_32();
        for (i, &k) in keys.iter().enumerate() {
            t.insert(k, i as u32);
        }
        t
    }

    #[test]
    fn sync_scan_finds_exact_intersection() {
        let mut rng = Xoshiro256StarStar::new(5);
        let a: Vec<u64> = (0..3000).map(|_| rng.below(1 << 18)).collect();
        let b: Vec<u64> = (0..3000).map(|_| rng.below(1 << 18)).collect();
        let ta = tree_of(&a);
        let tb = tree_of(&b);
        let sa: BTreeSet<u64> = a.iter().copied().collect();
        let sb: BTreeSet<u64> = b.iter().copied().collect();
        let expect: Vec<u64> = sa.intersection(&sb).copied().collect();
        let mut got = Vec::new();
        sync_scan(&ta, &tb, |k, _, _| got.push(k));
        assert_eq!(got, expect);
    }

    #[test]
    fn sync_scan_range_partitions_cover_exactly_once() {
        // Disjoint top-level prefix ranges must tile the full scan: this is
        // the invariant the morsel-driven executor relies on.
        let mut rng = Xoshiro256StarStar::new(13);
        let a: Vec<u64> = (0..3000).map(|_| rng.below(1 << 16)).collect();
        let b: Vec<u64> = (0..3000).map(|_| rng.below(1 << 16)).collect();
        let ta = tree_of(&a);
        let tb = tree_of(&b);
        let sa: BTreeSet<u64> = a.iter().copied().collect();
        let sb: BTreeSet<u64> = b.iter().copied().collect();
        let full: Vec<u64> = sa.intersection(&sb).copied().collect();
        let parts = 8u64;
        let span = (1u64 << 16) / parts;
        let mut tiled = Vec::new();
        for p in 0..parts {
            sync_scan_range(&ta, &tb, p * span, (p + 1) * span - 1, |k, _, _| {
                tiled.push(k)
            });
        }
        assert_eq!(tiled, full);
    }

    #[test]
    fn sync_scan_range_inverted_and_empty() {
        let ta = tree_of(&[1, 2, 3]);
        let tb = tree_of(&[2, 3, 4]);
        let empty = PrefixTree::<u32>::pt4_32();
        let mut n = 0;
        sync_scan_range(&ta, &tb, 10, 5, |_, _, _| n += 1);
        sync_scan_range(&ta, &empty, 0, u32::MAX as u64, |_, _, _| n += 1);
        assert_eq!(n, 0);
    }

    #[test]
    fn sync_scan_range_64bit_keys() {
        let mut ta = PrefixTree::<u32>::pt4_64();
        let mut tb = PrefixTree::<u32>::pt4_64();
        for k in [1u64 << 40, (1 << 40) + 1, 1 << 50, u64::MAX] {
            ta.insert(k, 0);
            tb.insert(k, 1);
        }
        let mut got = Vec::new();
        sync_scan_range(&ta, &tb, 1 << 40, 1 << 50, |k, _, _| got.push(k));
        assert_eq!(got, vec![1 << 40, (1 << 40) + 1, 1 << 50]);
        let mut top = Vec::new();
        sync_scan_range(&ta, &tb, (1 << 50) + 1, u64::MAX, |k, _, _| top.push(k));
        assert_eq!(top, vec![u64::MAX]);
    }

    #[test]
    fn sync_scan_empty_sides() {
        let empty = PrefixTree::<u32>::pt4_32();
        let full = tree_of(&[1, 2, 3]);
        let mut n = 0;
        sync_scan(&empty, &full, |_, _, _| n += 1);
        sync_scan(&full, &empty, |_, _, _| n += 1);
        sync_scan(&empty, &empty, |_, _, _| n += 1);
        assert_eq!(n, 0);
    }

    #[test]
    fn sync_scan_identical_trees() {
        let t = tree_of(&[10, 20, 30, 40]);
        let mut got = Vec::new();
        sync_scan(&t, &t, |k, _, _| got.push(k));
        assert_eq!(got, vec![10, 20, 30, 40]);
    }

    #[test]
    fn sync_scan_content_vs_subtree_cases() {
        // Left stores a single shallow content where right has a deep
        // subtree, and vice versa.
        let ta = tree_of(&[0x1000_0000]);
        let tb = tree_of(&[0x1000_0000, 0x1000_0001, 0x1FFF_FFFF]);
        let mut got = Vec::new();
        sync_scan(&ta, &tb, |k, _, _| got.push(k));
        assert_eq!(got, vec![0x1000_0000]);
        let mut got2 = Vec::new();
        sync_scan(&tb, &ta, |k, _, _| got2.push(k));
        assert_eq!(got2, vec![0x1000_0000]);
    }

    #[test]
    fn sync_scan_shallow_content_key_missing_in_deep_subtree() {
        let ta = tree_of(&[0x1000_0002]);
        let tb = tree_of(&[0x1000_0000, 0x1000_0001]);
        let mut n = 0;
        sync_scan(&ta, &tb, |_, _, _| n += 1);
        assert_eq!(n, 0);
    }

    #[test]
    fn sync_scan_passes_all_duplicate_values() {
        let mut ta = PrefixTree::<u32>::pt4_32();
        let mut tb = PrefixTree::<u32>::pt4_32();
        for i in 0..5 {
            ta.insert(7, i);
        }
        tb.insert(7, 100);
        tb.insert(7, 200);
        let mut pairs = 0;
        sync_scan(&ta, &tb, |k, lv, rv| {
            assert_eq!(k, 7);
            assert_eq!(lv.count(), 5);
            assert_eq!(rv.count(), 2);
            pairs += 1;
        });
        assert_eq!(pairs, 1);
    }

    #[test]
    #[should_panic(expected = "identical tree geometry")]
    fn sync_scan_rejects_mismatched_geometry() {
        let a = PrefixTree::<u32>::pt4_32();
        let b = PrefixTree::<u32>::pt4_64();
        sync_scan(&a, &b, |_, _, _| {});
    }

    #[test]
    fn intersect_and_union_match_btreeset() {
        let mut rng = Xoshiro256StarStar::new(9);
        let a: Vec<u64> = (0..2000).map(|_| rng.below(1 << 12)).collect();
        let b: Vec<u64> = (0..2000).map(|_| rng.below(1 << 12)).collect();
        let ta = tree_of(&a);
        let tb = tree_of(&b);
        let sa: BTreeSet<u64> = a.iter().copied().collect();
        let sb: BTreeSet<u64> = b.iter().copied().collect();

        let inter = intersect(&ta, &tb);
        let expect_i: Vec<u64> = sa.intersection(&sb).copied().collect();
        assert_eq!(inter.keys().collect::<Vec<_>>(), expect_i);

        let uni = union_distinct(&ta, &tb);
        let expect_u: Vec<u64> = sa.union(&sb).copied().collect();
        assert_eq!(uni.keys().collect::<Vec<_>>(), expect_u);
    }

    #[test]
    fn union_prefers_left_values() {
        let mut ta = PrefixTree::<u32>::pt4_32();
        let mut tb = PrefixTree::<u32>::pt4_32();
        ta.insert(1, 10);
        tb.insert(1, 99);
        tb.insert(2, 20);
        let u = union_distinct(&ta, &tb);
        assert_eq!(u.get_first(1), Some(10));
        assert_eq!(u.get_first(2), Some(20));
    }

    #[test]
    fn union_scan_reports_sides() {
        let ta = tree_of(&[1, 3]);
        let tb = tree_of(&[2, 3]);
        let mut seen = Vec::new();
        sync_union_scan(&ta, &tb, |k, l, r| {
            seen.push((k, l.is_some(), r.is_some()));
        });
        assert_eq!(
            seen,
            vec![(1, true, false), (2, false, true), (3, true, true)]
        );
    }

    #[test]
    fn sync_scan_mixed_value_types() {
        // VL and VR may differ (e.g. rid lists vs aggregation accumulators).
        let mut ta = PrefixTree::<u32>::pt4_32();
        let mut tb = PrefixTree::<i64>::pt4_32();
        ta.insert(4, 1);
        tb.insert(4, -9);
        let mut hits = 0;
        sync_scan(&ta, &tb, |k, mut lv, mut rv| {
            assert_eq!(k, 4);
            assert_eq!(*lv.next().unwrap(), 1u32);
            assert_eq!(*rv.next().unwrap(), -9i64);
            hits += 1;
        });
        assert_eq!(hits, 1);
    }
}
