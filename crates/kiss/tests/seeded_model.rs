//! Seeded model tests: the KISS-Tree must behave exactly like a
//! `BTreeMap<u32, Vec<u32>>` in both compression modes — and its range
//! kernels (the tree's only cursors) like the model's `range`, whatever the
//! bounds. Cases are drawn from `qppt_mem`'s PRNG, so a failure names the
//! case that reproduces it.

use qppt_kiss::{
    kiss_intersect, kiss_sync_scan, kiss_sync_scan_range, KissConfig, KissStats, KissTree, Values,
};
use qppt_mem::dup::{DupArena, DupList};
use qppt_mem::Xoshiro256StarStar;
use std::collections::{BTreeMap, BTreeSet};

const CASES: u64 = 48;

type Model = BTreeMap<u32, Vec<u32>>;

/// The small-root geometry (16-bit keys) in either compression mode, and
/// every sixth case the paper geometry, whose domain is the full 32 bits.
fn config(rng: &mut Xoshiro256StarStar, case: u64) -> KissConfig {
    let compressed = rng.chance(1, 2);
    if case % 6 == 5 {
        KissConfig {
            l1_bits: 26,
            compressed,
        }
    } else {
        KissConfig::small(compressed)
    }
}

fn max_key(cfg: KissConfig) -> u32 {
    cfg.key_limit().map_or(u32::MAX, |l| l - 1)
}

/// Keys from the top 16-bit window of the domain — the whole domain for the
/// small geometry; for the paper geometry the window that exercises bounds
/// at `u32::MAX` while keeping the min/max-bounded root pass short. Mixes a
/// dense cluster (shared second-level nodes) with window-wide keys and the
/// two window ends.
fn key(rng: &mut Xoshiro256StarStar, max: u32) -> u32 {
    let base = max - max.min(u16::MAX as u32);
    base + match rng.below(8) {
        0 => 0,
        1 => max - base,
        2..=4 => rng.below(1025) as u32,
        _ => rng.below((max - base) as u64 + 1) as u32,
    }
}

fn keys(rng: &mut Xoshiro256StarStar, max: u32, up_to: u64) -> Vec<u32> {
    (0..rng.below(up_to + 1)).map(|_| key(rng, max)).collect()
}

fn build(cfg: KissConfig, keys: &[u32]) -> (KissTree<u32>, Model) {
    let mut t = KissTree::new(cfg);
    let mut m = Model::new();
    for (i, &k) in keys.iter().enumerate() {
        t.insert(k, i as u32);
        m.entry(k).or_default().push(i as u32);
    }
    (t, m)
}

fn entries<'a>(it: impl Iterator<Item = (u32, Values<'a, u32>)>) -> Vec<(u32, Vec<u32>)> {
    it.map(|(k, v)| (k, v.copied().collect())).collect()
}

/// The ranges every cursor is checked over: full domain, interior, single
/// key (present and absent), second-level node boundaries, inverted, and
/// bounds beyond the tree's key limit — plus random ones.
fn ranges(rng: &mut Xoshiro256StarStar, max: u32, m: &Model) -> Vec<(u32, u32)> {
    let some = m.keys().nth(m.len() / 2).copied().unwrap_or(7);
    let next = some.saturating_add(1);
    let mut out = vec![
        (0, u32::MAX),
        (0, max),
        (max / 4, max / 2),
        (some, some),
        (next, next),
        (63, 64),
        (64, 127),
        (max - 64, max),
        (max, max),
        (500, 100),
        (max, 0),
        (max.saturating_sub(10), max.saturating_add(10)),
        (max.saturating_add(1), u32::MAX),
        (u32::MAX, u32::MAX),
    ];
    for _ in 0..6 {
        out.push((key(rng, max), key(rng, max)));
    }
    out
}

fn model_range(m: &Model, lo: u32, hi: u32) -> Vec<(u32, Vec<u32>)> {
    if lo > hi {
        return Vec::new();
    }
    m.range(lo..=hi).map(|(&k, v)| (k, v.clone())).collect()
}

#[test]
fn lookup_and_iteration_match_model() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::new(0x1C155 + case);
        let cfg = config(&mut rng, case);
        let max = max_key(cfg);
        let ks = keys(&mut rng, max, 300);
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
            model_range(&m, 0, u32::MAX),
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
        let cfg = config(&mut rng, case);
        let max = max_key(cfg);
        let (t, m) = build(cfg, &keys(&mut rng, max, 200));
        for (lo, hi) in ranges(&mut rng, max, &m) {
            assert_eq!(
                entries(t.range(lo, hi)),
                model_range(&m, lo, hi),
                "case {case} {cfg:?} [{lo}, {hi}]"
            );
        }
    }
}

#[test]
fn sync_scan_range_matches_model() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::new(0x5CA9 + case);
        // Same root geometry on both sides; compression may differ.
        let ca = config(&mut rng, case);
        let cb = KissConfig {
            compressed: rng.chance(1, 2),
            ..ca
        };
        let max = max_key(ca);
        let a = keys(&mut rng, max, 200);
        // Share a random half of `a` so the intersection is never trivial.
        let mut b = keys(&mut rng, max, 200);
        b.extend(a.iter().copied().filter(|_| rng.chance(1, 2)));
        let ((ta, ma), (tb, mb)) = (build(ca, &a), build(cb, &b));
        let both = |lo: u32, hi: u32| -> Vec<(u32, Vec<u32>, Vec<u32>)> {
            model_range(&ma, lo, hi)
                .into_iter()
                .filter_map(|(k, lv)| mb.get(&k).map(|rv| (k, lv, rv.clone())))
                .collect()
        };
        for (lo, hi) in ranges(&mut rng, max, &ma) {
            let mut got = Vec::new();
            kiss_sync_scan_range(&ta, &tb, lo, hi, |k, lv, rv| {
                got.push((k, lv.copied().collect(), rv.copied().collect()));
            });
            assert_eq!(got, both(lo, hi), "case {case} {ca:?} [{lo}, {hi}]");
        }

        // The full-domain entry point and the set operator built on it.
        let expect: Vec<u32> = both(0, u32::MAX).into_iter().map(|(k, _, _)| k).collect();
        let mut got = Vec::new();
        kiss_sync_scan(&ta, &tb, |k, _, _| got.push(k));
        assert_eq!(got, expect, "case {case}");
        let inter = kiss_intersect(&ta, &tb);
        assert_eq!(inter.keys().collect::<Vec<_>>(), expect, "case {case}");
    }
}

#[test]
fn batched_equals_scalar() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::new(0xBA7C4 + case);
        let cfg = config(&mut rng, case);
        let max = max_key(cfg);
        let pairs: Vec<(u32, u32)> = keys(&mut rng, max, 200)
            .into_iter()
            .enumerate()
            .map(|(i, k)| (k, i as u32))
            .collect();
        let mut scalar = KissTree::new(cfg);
        for &(k, v) in &pairs {
            scalar.insert(k, v);
        }
        let mut batched = KissTree::new(cfg);
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

/// The batched handle lookup equals `get` on every root geometry, in both
/// compression modes: on the empty tree, then after each insert batch —
/// for stored keys (duplicate lists among them), absent ones, the first and
/// last key of root pages and their neighbours, and keys beyond the domain,
/// which `get` refuses but a handle lookup must answer absent.
#[test]
fn handles_equal_get() {
    for l1_bits in 6..=26u8 {
        for compressed in [false, true] {
            let cfg = KissConfig {
                l1_bits,
                compressed,
            };
            let mut rng =
                Xoshiro256StarStar::new(0x4A4D1E + l1_bits as u64 * 2 + compressed as u64);
            let max = max_key(cfg);
            let mut t = KissTree::new(cfg);
            let beyond = [max as u64 + 1, u32::MAX as u64, 1 << 32, 1 << 40, u64::MAX];
            let (mut handles, mut stored) = (Vec::new(), Vec::new());
            for batch in 0..3 {
                let mut probes: Vec<u32> = keys(&mut rng, max, 60);
                for edge in page_edges(&mut rng, cfg) {
                    probes.extend([
                        edge,
                        edge.saturating_sub(1),
                        edge.saturating_add(1).min(max),
                    ]);
                }
                probes.extend(stored.iter().rev().take(20));
                let mut wide: Vec<u64> = probes.iter().map(|&k| k as u64).collect();
                wide.extend(beyond);
                t.get_handles(&wide, &mut handles);
                assert_eq!(handles.len(), wide.len());
                for (&k, &h) in wide.iter().zip(&handles) {
                    assert_eq!(h, t.handle(k), "{cfg:?} batch {batch} key {k}");
                    let expect: Option<Vec<u32>> = (k <= max as u64)
                        .then(|| t.get(k as u32).map(|vs| vs.copied().collect()))
                        .flatten();
                    let got = (h != 0).then(|| t.handle_values(h).copied().collect());
                    assert_eq!(got, expect, "{cfg:?} batch {batch} key {k}");
                }
                // Insert the probes, some twice: the next batch sees
                // duplicate lists and keys on page edges.
                for &k in &probes {
                    stored.push(k);
                    t.insert(k, rng.next_u32());
                    if rng.chance(1, 4) {
                        t.insert(k, rng.next_u32());
                    }
                }
            }
        }
    }
}

/// A key's values as the tree stores them: the first inline, the rest in a
/// duplicate list of the oracle's own arena, created and grown by the same
/// operations in the same order as the tree's.
enum Stored {
    One(u32),
    Many(DupList),
}

/// `stats()` recomputed from public data: the keys the tree iterates, its
/// geometry, and an arena replaying its duplicate lists. Every root page
/// (1024 slots of 4 bytes) holding a key's root slot is touched; every
/// populated root slot is one second-level node, and the sentinel node is
/// one more.
struct StatsOracle {
    stored: BTreeMap<u32, Stored>,
    dups: DupArena<u32>,
    total_values: usize,
    /// Content bytes per distinct key, measured on a one-key tree.
    content_bytes_per_key: usize,
}

impl StatsOracle {
    fn new() -> Self {
        let mut one = KissTree::<u32>::new(KissConfig::small(false));
        one.insert(0, 0);
        Self {
            stored: BTreeMap::new(),
            dups: DupArena::new(),
            total_values: 0,
            content_bytes_per_key: one.stats().content_bytes,
        }
    }

    fn insert(&mut self, key: u32, value: u32) {
        self.total_values += 1;
        let Some(s) = self.stored.get_mut(&key) else {
            self.stored.insert(key, Stored::One(value));
            return;
        };
        match s {
            Stored::One(first) => {
                let mut list = self.dups.new_list(*first);
                self.dups.push(&mut list, value);
                *s = Stored::Many(list);
            }
            Stored::Many(list) => self.dups.push(list, value),
        }
    }

    fn expect(&self, t: &KissTree<u32>) -> KissStats {
        let cfg = t.config();
        let keys: Vec<u32> = t.keys().collect();
        assert_eq!(keys, self.stored.keys().copied().collect::<Vec<_>>());
        let slots: BTreeSet<usize> = keys.iter().map(|&k| cfg.split(k).0).collect();
        let pages: BTreeSet<usize> = slots.iter().map(|s| s / 1024).collect();
        let (nodes, distinct) = (slots.len(), keys.len());
        KissStats {
            distinct_keys: distinct,
            total_values: self.total_values,
            nodes,
            root_virtual_bytes: cfg.root_slots() * 4,
            root_touched_bytes: pages.len() * 4096,
            node_bytes: if cfg.compressed {
                (nodes + 1) * 8 + distinct * 4
            } else {
                (nodes + 1) * cfg.node_entries() * 4
            },
            content_bytes: distinct * self.content_bytes_per_key,
            dup_bytes: self.dups.allocated_bytes(),
            // A compressed node is copied for every key after its first.
            copy_updates: if cfg.compressed { distinct - nodes } else { 0 },
        }
    }
}

/// The first and last key of a random root page: the page's first and last
/// root slot, at entries 0 and 63.
fn page_edges(rng: &mut Xoshiro256StarStar, cfg: KissConfig) -> [u32; 2] {
    let page_keys = 1024u64 * 64;
    let domain = cfg.root_slots() as u64 * 64;
    let first = rng.below(domain.div_ceil(page_keys)) * page_keys;
    [first as u32, (first + page_keys).min(domain) as u32 - 1]
}

/// Memory statistics are maintained on insert, not walked — and equal what
/// a walk of the keys would count, after every insert batch, in the paper
/// and compressed geometries and small roots (down to one partial page),
/// with keys on root-page boundaries and duplicate lists.
#[test]
fn stats_equal_an_oracle_over_the_keys() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::new(0x57A75 + case);
        let compressed = rng.chance(1, 2);
        let cfg = match case % 3 {
            0 => KissConfig {
                l1_bits: 26,
                compressed,
            },
            _ => KissConfig {
                l1_bits: 6 + rng.below(9) as u8,
                compressed,
            },
        };
        let max = max_key(cfg);
        let mut t = KissTree::new(cfg);
        let mut oracle = StatsOracle::new();
        assert_eq!(t.stats(), oracle.expect(&t), "case {case} empty");
        for batch in 0..4 {
            let mut ks = keys(&mut rng, max, 120);
            ks.extend(page_edges(&mut rng, cfg));
            // Duplicates: re-insert some keys already stored.
            let again: Vec<u32> = oracle.stored.keys().copied().take(8).collect();
            ks.extend(again);
            let pairs: Vec<(u32, u32)> = ks.iter().map(|&k| (k, rng.next_u32())).collect();
            if batch % 2 == 0 {
                for &(k, v) in &pairs {
                    t.insert(k, v);
                }
            } else {
                t.batch_insert(&pairs);
            }
            for &(k, v) in &pairs {
                oracle.insert(k, v);
            }
            assert_eq!(
                t.stats(),
                oracle.expect(&t),
                "case {case} {cfg:?} batch {batch}"
            );
        }
    }
}

/// The widest span the paper geometry has: two keys, two touched root
/// pages, whatever the 2²⁶ − 2 slots between them — and a walk of it reads
/// the slots of those two pages only, not the 2²⁶ of the span.
#[test]
fn widest_key_span_touches_two_pages() {
    for cfg in [KissConfig::paper(), KissConfig::paper_compressed()] {
        let mut t = KissTree::new(cfg);
        let mut oracle = StatsOracle::new();
        for k in [0, u32::MAX] {
            t.insert(k, k);
            oracle.insert(k, k);
        }
        let s = t.stats();
        assert_eq!(s.root_touched_bytes, 2 * 4096, "{cfg:?}");
        assert_eq!(s, oracle.expect(&t), "{cfg:?}");

        // The two pages' slots, and the two keys' slots once more each,
        // where the walk resumes after yielding them.
        let mut walk = t.iter();
        assert_eq!(
            walk.by_ref().map(|(k, _)| k).collect::<Vec<_>>(),
            [0, u32::MAX]
        );
        assert_eq!(walk.slots_read(), 2 * PAGE_SLOTS as usize + 2, "{cfg:?}");
        // A range inside the untouched stretch reads nothing but the
        // bitmap.
        let mut inner = t.range(1 << 20, u32::MAX - (1 << 20));
        assert_eq!(inner.next().map(|(k, _)| k), None, "{cfg:?}");
        assert_eq!(inner.slots_read(), 0, "{cfg:?}");
    }
}

/// Root slots per 4 KB root page, and keys per page.
const PAGE_SLOTS: u32 = 1024;
const PAGE_KEYS: u32 = PAGE_SLOTS * 64;

/// A root geometry with several bitmap words' worth of root pages (13–20
/// root bits: 8–1 024 pages), every fourth case the paper geometry, either
/// compression mode.
fn paged_config(rng: &mut Xoshiro256StarStar, case: u64) -> KissConfig {
    let compressed = rng.chance(1, 2);
    let l1_bits = if case % 4 == 3 {
        26
    } else {
        13 + rng.below(8) as u8
    };
    KissConfig {
        l1_bits,
        compressed,
    }
}

/// Keys on a few of `pages` root pages: the pages' first and last keys,
/// their second-level node edges, and keys anywhere inside them.
fn paged_keys(rng: &mut Xoshiro256StarStar, pages: &[u32], max: u32) -> Vec<u32> {
    let mut out = Vec::new();
    for &p in pages {
        let first = p * PAGE_KEYS;
        let last = first.saturating_add(PAGE_KEYS - 1).min(max);
        for _ in 0..1 + rng.below(12) {
            out.push(match rng.below(6) {
                0 => first,
                1 => last,
                2 => first + 63,
                3 => last - 63,
                _ => first + rng.below((last - first) as u64 + 1) as u32,
            });
        }
    }
    out
}

/// One to eight distinct root pages of the geometry's `total`, ascending.
fn some_pages(rng: &mut Xoshiro256StarStar, total: u32) -> Vec<u32> {
    let count = 1 + rng.below(8);
    let mut out: Vec<u32> = (0..count).map(|_| rng.below(total as u64) as u32).collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Ranges whose bounds sit on root-page edges, inside untouched pages, in
/// the last root page, and anywhere.
fn paged_ranges(rng: &mut Xoshiro256StarStar, total: u32, max: u32) -> Vec<(u32, u32)> {
    let mut out = vec![
        (0, u32::MAX),
        (0, max),
        (max - (PAGE_KEYS - 1), max),
        (max, max),
    ];
    for _ in 0..10 {
        let (a, b) = (
            rng.below(total as u64) as u32,
            rng.below(total as u64) as u32,
        );
        let edge = |p: u32, r: &mut Xoshiro256StarStar| match r.below(4) {
            0 => p * PAGE_KEYS,
            1 => (p * PAGE_KEYS).saturating_add(PAGE_KEYS - 1).min(max),
            2 => (p * PAGE_KEYS).saturating_sub(1),
            _ => p * PAGE_KEYS + r.below(PAGE_KEYS as u64) as u32,
        };
        let (lo, hi) = (edge(a.min(b), rng), edge(a.max(b), rng));
        out.push((lo, hi));
        out.push((hi, lo));
    }
    out
}

/// The touched-page skip changes what the cursors read, never what they
/// yield: `range` and `kiss_sync_scan_range` equal the model over trees
/// whose keys sit on a few root pages — on page edges, with the bounds on
/// edges, inside untouched pages and in the last page, and for pairs of
/// trees whose touched pages overlap partly or not at all.
#[test]
fn cursors_skip_untouched_pages_like_the_model() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::new(0x9A6E5 + case);
        let ca = paged_config(&mut rng, case);
        let cb = KissConfig {
            compressed: rng.chance(1, 2),
            ..ca
        };
        let max = max_key(ca);
        let total = (ca.root_slots() as u32).div_ceil(PAGE_SLOTS);
        let mut pages_a = some_pages(&mut rng, total);
        if rng.chance(1, 2) {
            pages_a.push(total - 1); // the last root page
        }
        // B's pages: A's in part, or (every third case) none of A's.
        let pages_b: Vec<u32> = some_pages(&mut rng, total)
            .into_iter()
            .chain(pages_a.iter().copied().filter(|_| rng.chance(1, 2)))
            .filter(|p| case % 3 != 0 || !pages_a.contains(p))
            .collect();
        let a = paged_keys(&mut rng, &pages_a, max);
        let mut b = paged_keys(&mut rng, &pages_b, max);
        b.extend(
            a.iter().copied().filter(|k| {
                rng.chance(1, 2) && (case % 3 != 0 || pages_b.contains(&(k / PAGE_KEYS)))
            }),
        );
        let ((ta, ma), (tb, mb)) = (build(ca, &a), build(cb, &b));
        for (lo, hi) in paged_ranges(&mut rng, total, max) {
            let want = model_range(&ma, lo, hi);
            assert_eq!(
                entries(ta.range(lo, hi)),
                want,
                "case {case} {ca:?} [{lo}, {hi}]"
            );
            let both: Vec<(u32, Vec<u32>, Vec<u32>)> = want
                .into_iter()
                .filter_map(|(k, lv)| mb.get(&k).map(|rv| (k, lv, rv.clone())))
                .collect();
            let mut got = Vec::new();
            kiss_sync_scan_range(&ta, &tb, lo, hi, |k, lv, rv| {
                got.push((k, lv.copied().collect(), rv.copied().collect()));
            });
            assert_eq!(got, both, "case {case} {ca:?} [{lo}, {hi}]");
        }
    }
}

#[test]
fn insert_merge_equals_fold() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::new(0xF01D + case);
        let cfg = config(&mut rng, case);
        let mut t = KissTree::<i64>::new(cfg);
        let mut m: BTreeMap<u32, i64> = BTreeMap::new();
        for k in keys(&mut rng, max_key(cfg), 200) {
            let v = rng.below(100) as i64 - 50;
            t.insert_merge(k, v, |acc, v| *acc += v);
            *m.entry(k).or_insert(0) += v;
        }
        let got: Vec<(u32, i64)> = t.iter().map(|(k, mut v)| (k, *v.next().unwrap())).collect();
        assert_eq!(got, m.into_iter().collect::<Vec<_>>(), "case {case}");
    }
}
