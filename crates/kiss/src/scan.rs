//! Synchronous index scan over two KISS-Trees (§4.2).
//!
//! The root-level pass is bounded by `max(l.min, r.min) ..=
//! min(l.max, r.max)` — the optimisation the paper calls out for dense keys,
//! which avoids scanning two full 256 MB root directories — and within that
//! span it reads only the 4 KB root pages both trees touched. The scan only
//! visits second-level nodes whose root slot is populated in **both** trees,
//! and within a shared node only entries populated on both sides.

use crate::tree::{next_set_page, KissTree, Values, ROOT_PAGE_SLOTS};

/// Runs a synchronous index scan, invoking `f` for every key present in both
/// trees, in ascending key order: [`kiss_sync_scan_range`] over the whole
/// 32-bit key domain.
pub fn kiss_sync_scan<'l, 'r, VL, VR>(
    left: &'l KissTree<VL>,
    right: &'r KissTree<VR>,
    f: impl FnMut(u32, Values<'l, VL>, Values<'r, VR>),
) where
    VL: Copy + Default,
    VR: Copy + Default,
{
    kiss_sync_scan_range(left, right, 0, u32::MAX, f)
}

/// The synchronous index scan kernel: invokes `f` for every key in
/// `[lo, hi]` present in both trees, in ascending key order. Both trees
/// must share the same geometry (`l1_bits`); the compression setting may
/// differ.
///
/// The range is the **cursor** of the executor: a morsel is a contiguous
/// root-directory range (a top-level prefix range of the 32-bit key
/// domain), so the root-level pass touches only the slots of this
/// partition, further bounded by both trees' min/max keys and, within
/// that, by the root pages both trees touched; sequential execution is the
/// one morsel covering the whole domain. Per-key range checks are needed
/// only in the two boundary root slots.
pub fn kiss_sync_scan_range<'l, 'r, VL, VR>(
    left: &'l KissTree<VL>,
    right: &'r KissTree<VR>,
    lo: u32,
    hi: u32,
    f: impl FnMut(u32, Values<'l, VL>, Values<'r, VR>),
) where
    VL: Copy + Default,
    VR: Copy + Default,
{
    assert_eq!(
        left.config().l1_bits,
        right.config().l1_bits,
        "synchronous scan requires identical root geometry"
    );
    let (Some(lmin), Some(lmax)) = (left.min_key(), left.max_key()) else {
        return;
    };
    let (Some(rmin), Some(rmax)) = (right.min_key(), right.max_key()) else {
        return;
    };
    let lo = lo.max(lmin.max(rmin));
    let hi = hi.min(lmax.min(rmax));
    if lo > hi {
        return;
    }
    scan_slots(left, right, lo, hi, f);
}

/// The body of [`kiss_sync_scan_range`] once both trees are non-empty and
/// `lo <= hi` lie within both trees' keys; returns the root slots it read.
/// It reads only the slots of root pages **both** trees touched: the
/// pages come from the AND of the two touched-page bitmaps, a word (64
/// pages) at a time, so a walk costs the pages the trees share, not the
/// key span between them.
fn scan_slots<'l, 'r, VL, VR>(
    left: &'l KissTree<VL>,
    right: &'r KissTree<VR>,
    lo: u32,
    hi: u32,
    mut f: impl FnMut(u32, Values<'l, VL>, Values<'r, VR>),
) -> usize
where
    VL: Copy + Default,
    VR: Copy + Default,
{
    let cfg = left.config();
    let (root_lo, _) = cfg.split(lo);
    let (root_hi, _) = cfg.split(hi);
    let entries = cfg.node_entries();
    let both = |w: usize| left.root_page_word(w) & right.root_page_word(w);
    let mut slots_read = 0;
    let mut from = root_lo / ROOT_PAGE_SLOTS;
    while let Some(page) = next_set_page(both, from, root_hi / ROOT_PAGE_SLOTS) {
        from = page + 1;
        let first = root_lo.max(page * ROOT_PAGE_SLOTS);
        let last = root_hi.min(from * ROOT_PAGE_SLOTS - 1);
        slots_read += last + 1 - first;
        for ri in first..=last {
            let ln = left.root_slot(ri);
            if ln == 0 {
                continue;
            }
            let rn = right.root_slot(ri);
            if rn == 0 {
                continue;
            }
            // Entries of interior root slots are in range by construction;
            // only the boundary slots need the per-key check.
            let boundary = ri == root_lo || ri == root_hi;
            for ei in 0..entries {
                let le = left.node_entry(ln, ei);
                if le == 0 {
                    continue;
                }
                let re = right.node_entry(rn, ei);
                if re == 0 {
                    continue;
                }
                let key = cfg.join(ri, ei);
                if boundary && (key < lo || key > hi) {
                    continue;
                }
                f(key, left.values_of(le - 1), right.values_of(re - 1));
            }
        }
    }
    slots_read
}

/// Set intersection over KISS-Trees: keys present in both, values from the
/// left input (mirror of `qppt_trie::intersect`).
pub fn kiss_intersect<V: Copy + Default>(left: &KissTree<V>, right: &KissTree<V>) -> KissTree<V> {
    let mut out = KissTree::new(left.config());
    kiss_sync_scan(left, right, |key, lvals, _| {
        for v in lvals {
            out.insert(key, *v);
        }
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KissConfig;
    use qppt_mem::Xoshiro256StarStar;
    use std::collections::BTreeSet;

    fn tree_of(keys: &[u32], compressed: bool) -> KissTree<u32> {
        let mut t = KissTree::new(KissConfig::small(compressed));
        for (i, &k) in keys.iter().enumerate() {
            t.insert(k, i as u32);
        }
        t
    }

    #[test]
    fn scan_matches_set_intersection() {
        let mut rng = Xoshiro256StarStar::new(31);
        let a: Vec<u32> = (0..2500).map(|_| (rng.below(1 << 15)) as u32).collect();
        let b: Vec<u32> = (0..2500).map(|_| (rng.below(1 << 15)) as u32).collect();
        for (ca, cb) in [(false, false), (true, true), (false, true)] {
            let ta = tree_of(&a, ca);
            let tb = tree_of(&b, cb);
            let sa: BTreeSet<u32> = a.iter().copied().collect();
            let sb: BTreeSet<u32> = b.iter().copied().collect();
            let expect: Vec<u32> = sa.intersection(&sb).copied().collect();
            let mut got = Vec::new();
            kiss_sync_scan(&ta, &tb, |k, _, _| got.push(k));
            assert_eq!(got, expect, "compressed=({ca},{cb})");
        }
    }

    #[test]
    fn range_scan_partitions_tile_full_scan() {
        let mut rng = Xoshiro256StarStar::new(41);
        let a: Vec<u32> = (0..2000).map(|_| (rng.below(1 << 14)) as u32).collect();
        let b: Vec<u32> = (0..2000).map(|_| (rng.below(1 << 14)) as u32).collect();
        let ta = tree_of(&a, false);
        let tb = tree_of(&b, false);
        let sa: BTreeSet<u32> = a.iter().copied().collect();
        let sb: BTreeSet<u32> = b.iter().copied().collect();
        let full: Vec<u32> = sa.intersection(&sb).copied().collect();
        let parts = 16u32;
        let span = (1u32 << 14) / parts;
        let mut tiled = Vec::new();
        for p in 0..parts {
            kiss_sync_scan_range(&ta, &tb, p * span, (p + 1) * span - 1, |k, _, _| {
                tiled.push(k)
            });
        }
        assert_eq!(tiled, full);
    }

    #[test]
    fn range_scan_inverted_is_empty() {
        let ta = tree_of(&[1, 2, 3], false);
        let tb = tree_of(&[2, 3], false);
        let mut n = 0;
        kiss_sync_scan_range(&ta, &tb, 9, 3, |_, _, _| n += 1);
        assert_eq!(n, 0);
    }

    #[test]
    fn scan_empty_inputs() {
        let empty = tree_of(&[], false);
        let full = tree_of(&[1, 2, 3], false);
        let mut n = 0;
        kiss_sync_scan(&empty, &full, |_, _, _| n += 1);
        kiss_sync_scan(&full, &empty, |_, _, _| n += 1);
        assert_eq!(n, 0);
    }

    #[test]
    fn scan_disjoint_ranges_is_free() {
        // min/max bounding makes the scan a no-op without visiting roots.
        let ta = tree_of(&[1, 2, 3], false);
        let tb = tree_of(&[60_000, 60_001], false);
        let mut n = 0;
        kiss_sync_scan(&ta, &tb, |_, _, _| n += 1);
        assert_eq!(n, 0);
    }

    #[test]
    fn scan_passes_duplicates() {
        let mut ta = KissTree::<u32>::new(KissConfig::small(false));
        let mut tb = KissTree::<u32>::new(KissConfig::small(false));
        for i in 0..4 {
            ta.insert(9, i);
        }
        tb.insert(9, 40);
        tb.insert(9, 41);
        tb.insert(10, 50);
        let mut hits = 0;
        kiss_sync_scan(&ta, &tb, |k, lv, rv| {
            assert_eq!(k, 9);
            assert_eq!(lv.count(), 4);
            assert_eq!(rv.count(), 2);
            hits += 1;
        });
        assert_eq!(hits, 1);
    }

    #[test]
    fn intersect_builds_tree_with_left_values() {
        let ta = tree_of(&[5, 6, 7], false);
        let tb = tree_of(&[6, 7, 8], false);
        let i = kiss_intersect(&ta, &tb);
        assert_eq!(i.keys().collect::<Vec<_>>(), vec![6, 7]);
        assert_eq!(i.get_first(6), ta.get_first(6));
    }

    #[test]
    fn scan_reads_only_pages_both_trees_touched() {
        // Paper geometry, keys 0 and u32::MAX on both sides: the two
        // shared pages' slots are read, not the 2^26 between them. A third
        // page touched by one tree only is skipped.
        let mut ta = KissTree::<u32>::new(KissConfig::paper());
        let mut tb = KissTree::<u32>::new(KissConfig::paper());
        for k in [0, u32::MAX] {
            ta.insert(k, 1);
            tb.insert(k, 2);
        }
        ta.insert(1 << 31, 3);
        let mut keys = Vec::new();
        let read = scan_slots(&ta, &tb, 0, u32::MAX, |k, _, _| keys.push(k));
        assert_eq!(keys, [0, u32::MAX]);
        assert_eq!(read, 2 * ROOT_PAGE_SLOTS);
        // Touched pages that do not overlap: nothing to read.
        let mut tc = KissTree::<u32>::new(KissConfig::paper());
        tc.insert(1 << 30, 4);
        tc.insert(u32::MAX - (1 << 20), 4);
        assert_eq!(scan_slots(&ta, &tc, 0, u32::MAX, |_, _, _| panic!()), 0);
    }

    #[test]
    #[should_panic(expected = "identical root geometry")]
    fn mismatched_geometry_rejected() {
        let a = KissTree::<u32>::new(KissConfig::small(false));
        let b = KissTree::<u32>::new(KissConfig {
            l1_bits: 12,
            compressed: false,
        });
        kiss_sync_scan(&a, &b, |_, _, _| {});
    }
}
