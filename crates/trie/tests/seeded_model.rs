//! Seeded model tests: the prefix tree must behave exactly like a
//! `BTreeMap<u64, Vec<V>>` under every operation mix, for every geometry —
//! and every range kernel (the tree's only cursors) like the model's
//! `range`, whatever the bounds. Cases are drawn from `qppt_mem`'s PRNG, so
//! a failure names the case that reproduces it.

use qppt_mem::Xoshiro256StarStar;
use qppt_trie::{
    intersect, sync_scan, sync_scan_range, sync_union_scan, union_distinct, PrefixTree, TrieConfig,
    Values,
};
use std::collections::{BTreeMap, BTreeSet};

const CASES: u64 = 48;
const GEOMETRIES: [(u8, u8); 7] = [
    (32, 4),
    (32, 8),
    (32, 2),
    (64, 4),
    (64, 8),
    (16, 1),
    (32, 16),
];

type Model = BTreeMap<u64, Vec<u32>>;

fn max_key(cfg: TrieConfig) -> u64 {
    cfg.key_limit().map_or(u64::MAX, |l| l - 1)
}

/// Mixes dense-low keys (forces deep expansion) with full-domain keys and
/// the two domain ends.
fn key(rng: &mut Xoshiro256StarStar, max: u64) -> u64 {
    match rng.below(8) {
        0 => 0,
        1 => max,
        2..=4 => rng.range_inclusive(0, max.min(1024)),
        _ => rng.range_inclusive(0, max),
    }
}

fn keys(rng: &mut Xoshiro256StarStar, max: u64, up_to: u64) -> Vec<u64> {
    (0..rng.below(up_to + 1)).map(|_| key(rng, max)).collect()
}

fn build(cfg: TrieConfig, keys: &[u64]) -> (PrefixTree<u32>, Model) {
    let mut t = PrefixTree::new(cfg);
    let mut m = Model::new();
    for (i, &k) in keys.iter().enumerate() {
        t.insert(k, i as u32);
        m.entry(k).or_default().push(i as u32);
    }
    (t, m)
}

fn entries<'a>(it: impl Iterator<Item = (u64, Values<'a, u32>)>) -> Vec<(u64, Vec<u32>)> {
    it.map(|(k, v)| (k, v.copied().collect())).collect()
}

/// The ranges every cursor is checked over: full domain, interior, single
/// key (present and absent), root-bucket boundaries, inverted, and bounds
/// beyond the tree's key limit — plus random ones.
fn ranges(rng: &mut Xoshiro256StarStar, cfg: TrieConfig, m: &Model) -> Vec<(u64, u64)> {
    let max = max_key(cfg);
    let top = 1u64 << (cfg.key_bits() - cfg.kprime()); // span of one root bucket
    let some = m.keys().nth(m.len() / 2).copied().unwrap_or(7);
    let next = some.saturating_add(1);
    let mut out = vec![
        (0, u64::MAX),
        (0, max),
        (max / 4, max / 2),
        (some, some),
        (next, next),
        (top - 1, top),
        (top, 2 * top - 1),
        (max - top, max),
        (max, max),
        (500, 100),
        (max, 0),
        (max.saturating_sub(10), max.saturating_add(10)),
        (max.saturating_add(1), u64::MAX),
        (u64::MAX, u64::MAX),
    ];
    for _ in 0..6 {
        out.push((key(rng, max), key(rng, max)));
    }
    out
}

fn model_range(m: &Model, lo: u64, hi: u64) -> Vec<(u64, Vec<u32>)> {
    if lo > hi {
        return Vec::new();
    }
    m.range(lo..=hi).map(|(&k, v)| (k, v.clone())).collect()
}

#[test]
fn lookup_and_iteration_match_model() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::new(0x7121E + case);
        let (bits, k) = *rng.choose(&GEOMETRIES);
        let cfg = TrieConfig::new(bits, k).unwrap();
        let max = max_key(cfg);
        let ks = keys(&mut rng, max, 400);
        let (t, m) = build(cfg, &ks);
        assert_eq!(t.len(), m.len(), "case {case}");
        assert_eq!(t.total_values(), ks.len(), "case {case}");
        for (&key, vals) in &m {
            let got: Vec<u32> = t.get(key).unwrap().copied().collect();
            assert_eq!(&got, vals, "case {case} key {key}");
        }
        for p in keys(&mut rng, max, 100) {
            assert_eq!(t.contains_key(p), m.contains_key(&p), "case {case} {p}");
        }
        assert_eq!(
            entries(t.iter()),
            model_range(&m, 0, u64::MAX),
            "case {case}"
        );
        assert_eq!(t.min_key(), m.keys().next().copied(), "case {case}");
        assert_eq!(t.max_key(), m.keys().next_back().copied(), "case {case}");
    }
}

#[test]
fn range_cursor_matches_model() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::new(0x4A96E + case);
        let (bits, k) = *rng.choose(&GEOMETRIES);
        let cfg = TrieConfig::new(bits, k).unwrap();
        let (t, m) = build(cfg, &keys(&mut rng, max_key(cfg), 300));
        for (lo, hi) in ranges(&mut rng, cfg, &m) {
            assert_eq!(
                entries(t.range(lo, hi)),
                model_range(&m, lo, hi),
                "case {case} PT<{bits},{k}> [{lo}, {hi}]"
            );
        }
    }
}

#[test]
fn sync_scan_range_matches_model() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::new(0x5CA9 + case);
        // PT-32 and PT-64 are what the engine builds; the rest ride along.
        let (bits, k) = match case % 3 {
            0 => (32, 4),
            1 => (64, 4),
            _ => *rng.choose(&GEOMETRIES),
        };
        let cfg = TrieConfig::new(bits, k).unwrap();
        let max = max_key(cfg);
        let a = keys(&mut rng, max, 250);
        // Share a random half of `a` so the intersection is never trivial.
        let mut b = keys(&mut rng, max, 250);
        b.extend(a.iter().copied().filter(|_| rng.chance(1, 2)));
        let ((ta, ma), (tb, mb)) = (build(cfg, &a), build(cfg, &b));
        let both = |lo: u64, hi: u64| -> Vec<(u64, Vec<u32>, Vec<u32>)> {
            model_range(&ma, lo, hi)
                .into_iter()
                .filter_map(|(k, lv)| mb.get(&k).map(|rv| (k, lv, rv.clone())))
                .collect()
        };
        for (lo, hi) in ranges(&mut rng, cfg, &ma) {
            let mut got = Vec::new();
            sync_scan_range(&ta, &tb, lo, hi, |k, lv, rv| {
                got.push((k, lv.copied().collect(), rv.copied().collect()));
            });
            assert_eq!(got, both(lo, hi), "case {case} PT<{bits},{k}> [{lo}, {hi}]");
        }

        // The full-domain entry point and the set operators built on it.
        let expect: Vec<u64> = both(0, u64::MAX).into_iter().map(|(k, _, _)| k).collect();
        let mut got = Vec::new();
        sync_scan(&ta, &tb, |k, _, _| got.push(k));
        assert_eq!(got, expect, "case {case}");
        let inter = intersect(&ta, &tb);
        assert_eq!(inter.keys().collect::<Vec<_>>(), expect, "case {case}");
        let sa: BTreeSet<u64> = a.into_iter().collect();
        let sb: BTreeSet<u64> = b.into_iter().collect();
        let expect_u: Vec<u64> = sa.union(&sb).copied().collect();
        let uni = union_distinct(&ta, &tb);
        assert_eq!(uni.keys().collect::<Vec<_>>(), expect_u, "case {case}");
        let mut sides = Vec::new();
        sync_union_scan(&ta, &tb, |k, l, r| {
            sides.push((k, l.is_some(), r.is_some()))
        });
        let expect_sides: Vec<(u64, bool, bool)> = expect_u
            .iter()
            .map(|k| (*k, sa.contains(k), sb.contains(k)))
            .collect();
        assert_eq!(sides, expect_sides, "case {case}");
    }
}

#[test]
fn batched_equals_unbatched() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::new(0xBA7C4 + case);
        let cfg = if case % 2 == 0 {
            TrieConfig::pt4_32()
        } else {
            TrieConfig::pt4_64()
        };
        let max = max_key(cfg);
        let pairs: Vec<(u64, u32)> = keys(&mut rng, max, 300)
            .into_iter()
            .enumerate()
            .map(|(i, k)| (k, i as u32))
            .collect();
        let mut scalar = PrefixTree::<u32>::new(cfg);
        for &(k, v) in &pairs {
            scalar.insert(k, v);
        }
        let mut batched = PrefixTree::<u32>::new(cfg);
        batched.batch_insert(&pairs);
        assert_eq!(
            entries(scalar.iter()),
            entries(batched.iter()),
            "case {case}"
        );

        let probes = keys(&mut rng, max, 100);
        let firsts = batched.batch_get_first(&probes);
        let present = batched.batch_contains(&probes);
        for (i, &p) in probes.iter().enumerate() {
            assert_eq!(firsts[i], scalar.get_first(p), "case {case} probe {p}");
            assert_eq!(present[i], scalar.contains_key(p), "case {case} {p}");
        }
    }
}

/// `memory_bytes()` — read off the arenas, no walk — is the byte total of
/// the walking `stats()`, after every insert batch, for the two geometries
/// the engine builds (PT-32 and PT-64), with duplicates and upserts.
#[test]
fn memory_bytes_equals_walked_total() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::new(0x3E3B + case);
        let cfg = if case % 2 == 0 {
            TrieConfig::pt4_32()
        } else {
            TrieConfig::pt4_64()
        };
        let max = max_key(cfg);
        let mut multi = PrefixTree::<u32>::new(cfg);
        let mut merged = PrefixTree::<i64>::new(cfg);
        for batch in 0..4 {
            for k in keys(&mut rng, max, 200) {
                let v = rng.next_u32();
                multi.insert(k, v);
                merged.insert_merge(k, v as i64, |acc, v| *acc += v);
            }
            let at = format!("case {case} batch {batch}");
            assert_eq!(multi.memory_bytes(), multi.stats().total_bytes(), "{at}");
            assert_eq!(merged.memory_bytes(), merged.stats().total_bytes(), "{at}");
        }
    }
}

#[test]
fn insert_merge_equals_fold() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::new(0xF01D + case);
        let mut t = PrefixTree::<i64>::pt4_32();
        let mut m: BTreeMap<u64, i64> = BTreeMap::new();
        for k in keys(&mut rng, u32::MAX as u64, 300) {
            let v = rng.below(200) as i64 - 100;
            t.insert_merge(k, v, |acc, v| *acc += v);
            *m.entry(k).or_insert(0) += v;
        }
        let got: Vec<(u64, i64)> = t.iter().map(|(k, mut v)| (k, *v.next().unwrap())).collect();
        assert_eq!(got, m.into_iter().collect::<Vec<_>>(), "case {case}");
    }
}
