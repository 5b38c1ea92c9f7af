//! Seeded model tests: every [`TreeIndex`] cursor and batched probe — for
//! the KISS-Tree, PT-32 and PT-64 alike — must behave exactly like a
//! `BTreeMap<u64, Vec<u32>>`, whatever `u64` bounds or keys the caller
//! passes (the index clamps them to the structure's key domain in one
//! place). Matched structure pairs take the skip-scan kernels, mismatched
//! ones the iterate-and-probe fallback; both must yield the model's
//! intersection.

use qppt_mem::Xoshiro256StarStar;
use qppt_storage::{sync_scan_indexes, sync_scan_indexes_range, KeyWidth, TreeIndex};
use std::collections::BTreeMap;

/// Largest key a structure (`None` = KISS-Tree) can hold.
fn key_max(width: Option<KeyWidth>) -> u64 {
    if width == Some(KeyWidth::W64) {
        u64::MAX
    } else {
        u32::MAX as u64
    }
}

/// Seeded keys for one structure, drawn from 16-bit windows ending at
/// the clamp's bounds — the top of the structure's key domain and, for
/// 64-bit trees, also just past `u32::MAX` (keys a 32-bit structure can
/// share next to keys it cannot hold). Each window has a dense cluster
/// (deep expansion, shared KISS nodes) and window-wide keys; a KISS root
/// pass, bounded by min/max key, stays short.
fn model_keys(width: Option<KeyWidth>, seed: u64) -> BTreeMap<u64, Vec<u32>> {
    let mut rng = Xoshiro256StarStar::new(seed);
    let max = key_max(width);
    let tops: &[u64] = if max == u64::MAX {
        &[max, u32::MAX as u64 + 300]
    } else {
        &[max]
    };
    let mut m: BTreeMap<u64, Vec<u32>> = BTreeMap::new();
    for i in 0..600u32 {
        let offset = if i % 2 == 0 {
            rng.below(2048)
        } else {
            rng.below(1 << 16)
        };
        m.entry(*rng.choose(tops) - offset).or_default().push(i);
    }
    // The domain's last key is what an unmasked out-of-domain probe hits.
    m.entry(max).or_default().push(600);
    m
}

fn index_of(width: Option<KeyWidth>, m: &BTreeMap<u64, Vec<u32>>) -> TreeIndex {
    let mut idx = width.map_or_else(TreeIndex::new_kiss, TreeIndex::new_pt);
    for (&k, vs) in m {
        for &v in vs {
            idx.insert(k, v);
        }
    }
    idx
}

/// The ranges every cursor is checked over: full domain, interior,
/// single key (present and absent), KISS node / PT bucket boundaries,
/// inverted, and bounds beyond `u32::MAX` / the 32-bit key limit.
fn model_ranges(m: &BTreeMap<u64, Vec<u32>>) -> Vec<(u64, u64)> {
    let nth = |n: usize| *m.keys().nth(n).expect("model has the key");
    let (some, q1, q3) = (nth(m.len() / 3), nth(m.len() / 4), nth(3 * m.len() / 4));
    vec![
        (0, u64::MAX),
        (0, u32::MAX as u64),
        (q1, q3),
        (some, some),
        (some - 1, some - 1),
        (q1 | 63, (q1 | 63) + 1),
        (q1 | 0xFFF, (q1 | 0xFFF) + 1),
        (q3, q1),
        (u32::MAX as u64 - 300, u32::MAX as u64 + 300),
        (u32::MAX as u64, 1 << 32),
        (1 << 32, u64::MAX),
        (u64::MAX - 100, u64::MAX),
        (u64::MAX, u64::MAX),
    ]
}

const STRUCTURES: [Option<KeyWidth>; 3] = [None, Some(KeyWidth::W32), Some(KeyWidth::W64)];

#[test]
fn cursors_match_btreemap_model() {
    for (si, &width) in STRUCTURES.iter().enumerate() {
        let m = model_keys(width, 100 + si as u64);
        let idx = index_of(width, &m);
        for (lo, hi) in model_ranges(&m) {
            let expect: Vec<(u64, Vec<u32>)> = if lo <= hi {
                m.range(lo..=hi).map(|(&k, v)| (k, v.clone())).collect()
            } else {
                Vec::new()
            };
            let mut keyed = Vec::new();
            idx.for_each_key_range(lo, hi, |k, vs| keyed.push((k, vs.collect::<Vec<_>>())));
            assert_eq!(keyed, expect, "{} keyed [{lo},{hi}]", idx.kind_name());
            let flat: Vec<(u64, u32)> = expect
                .iter()
                .flat_map(|(k, vs)| vs.iter().map(move |&v| (*k, v)))
                .collect();
            let mut got = Vec::new();
            idx.range_each(lo, hi, |k, v| got.push((k, v)));
            assert_eq!(got, flat, "{} flat [{lo},{hi}]", idx.kind_name());
        }
        let all: Vec<(u64, u32)> = m
            .iter()
            .flat_map(|(&k, vs)| vs.iter().map(move |&v| (k, v)))
            .collect();
        let mut got = Vec::new();
        idx.for_each(|k, v| got.push((k, v)));
        assert_eq!(got, all, "{} full scan", idx.kind_name());
    }
}

#[test]
fn sync_scan_range_matches_btreemap_model_all_variants() {
    // Matched structures take the skip-scan kernels, mismatched ones the
    // iterate-and-probe fallback; all must yield the model intersection.
    for (li, &lw) in STRUCTURES.iter().enumerate() {
        for (ri, &rw) in STRUCTURES.iter().enumerate() {
            let lm = model_keys(lw, 7);
            // The right side shares every other left key it can hold,
            // so the intersection is a strict subset of both sides.
            let mut rm = model_keys(rw, 8 + (li * 3 + ri) as u64);
            let rmax = key_max(rw);
            for (&k, vs) in lm.iter().step_by(2).filter(|(&k, _)| k <= rmax) {
                rm.insert(k, vs.clone());
            }
            let (l, r) = (index_of(lw, &lm), index_of(rw, &rm));
            let label = format!("{} × {}", l.kind_name(), r.kind_name());
            for (lo, hi) in model_ranges(&lm) {
                let expect: Vec<(u64, Vec<u32>, Vec<u32>)> = if lo <= hi {
                    lm.range(lo..=hi)
                        .filter_map(|(&k, lv)| rm.get(&k).map(|rv| (k, lv.clone(), rv.clone())))
                        .collect()
                } else {
                    Vec::new()
                };
                let mut got = Vec::new();
                sync_scan_indexes_range(&l, &r, lo, hi, |k, lv, rv| {
                    got.push((k, lv.collect::<Vec<_>>(), rv.collect::<Vec<_>>()));
                });
                assert_eq!(got, expect, "{label} [{lo},{hi}]");
            }
            let full: Vec<u64> = lm.keys().copied().filter(|k| rm.contains_key(k)).collect();
            assert!(!full.is_empty(), "{label}: the model must overlap");
            let mut got = Vec::new();
            sync_scan_indexes(&l, &r, |k, _, _| got.push(k));
            assert_eq!(got, full, "{label} full domain");
        }
    }
}

#[test]
fn batched_probes_match_btreemap_model() {
    for (si, &width) in STRUCTURES.iter().enumerate() {
        let m = model_keys(width, 200 + si as u64);
        let idx = index_of(width, &m);
        let mut probes: Vec<u64> = m.keys().copied().step_by(3).collect();
        probes.extend([
            0,
            1,
            u32::MAX as u64,
            1 << 32,
            (1 << 32) + 5,
            u64::MAX - 1,
            u64::MAX,
        ]);
        let present: Vec<bool> = probes.iter().map(|k| m.contains_key(k)).collect();
        assert_eq!(idx.batch_contains(&probes), present, "{}", idx.kind_name());
        let mut got: Vec<(usize, u32)> = Vec::new();
        idx.batch_get_each(&probes, |i, v| got.push((i, v)));
        got.sort_unstable();
        let expect: Vec<(usize, u32)> = probes
            .iter()
            .enumerate()
            .flat_map(|(i, k)| m.get(k).into_iter().flatten().map(move |&v| (i, v)))
            .collect();
        assert_eq!(got, expect, "{}", idx.kind_name());
        for (&k, &p) in probes.iter().zip(&present) {
            assert_eq!(idx.contains(k), p);
            assert_eq!(idx.get_first(k), m.get(&k).map(|vs| vs[0]));
        }
    }
}
