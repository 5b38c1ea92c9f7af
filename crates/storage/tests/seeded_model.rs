//! Seeded model tests: every [`TreeIndex`] cursor, batched probe and handle
//! lookup — for the KISS-Tree, PT-32 and PT-64 alike — must behave exactly
//! like a `BTreeMap<u64, Vec<u32>>`, whatever `u64` bounds or keys the caller
//! passes (the index clamps them to the structure's key domain in one
//! place). Matched structure pairs take the skip-scan kernels, mismatched
//! ones the iterate-and-probe fallback; both must yield the model's
//! intersection.
//!
//! One level up, a [`BaseIndex`](qppt_storage::BaseIndex) over 1–3 key
//! columns must behave like a `BTreeMap<Vec<u64>, Vec<rid>>` keyed on the
//! column tuple: clustered build order, key-range scans for an equality
//! prefix plus a trailing range, and maintenance under inserts — including
//! rows that outgrow the part widths frozen at build time.
//!
//! The one-level dense index must equal all three trees on the unique key
//! sets of a compact range it is built for, and
//! [`TreeIndex::for_selection`] must choose it exactly by its rule.
//!
//! Under both, a [`PayloadBuf`] must read back every row it was given,
//! before and after a value wider than 32 bits moves it from 32- to 64-bit
//! lanes, and hold exactly the bytes its rows need when it was reserved
//! exactly.

use qppt_mem::Xoshiro256StarStar;
use qppt_storage::{
    sync_scan_indexes_range, ColumnType, Database, IndexDef, KeyWidth, Lanes, PayloadBuf,
    ProbeScratch, Schema, StorageError, TableBuilder, TreeIndex, Value,
};
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
            idx.for_each_key_range(lo, hi, |k, vs| keyed.push((k, vs.copied().collect())));
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
                    got.push((k, lv.copied().collect(), rv.copied().collect()));
                });
                assert_eq!(got, expect, "{label} [{lo},{hi}]");
            }
            let full: Vec<u64> = lm.keys().copied().filter(|k| rm.contains_key(k)).collect();
            assert!(!full.is_empty(), "{label}: the model must overlap");
            let mut got = Vec::new();
            sync_scan_indexes_range(&l, &r, 0, u64::MAX, |k, _, _| got.push(k));
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
            assert_eq!(idx.contains(k), p, "{} key {k}", idx.kind_name());
        }
    }
}

/// The handle lookup equals `get` and the model for every structure, on
/// the empty index and a populated one: stored keys (duplicate lists among
/// them), their absent neighbours, and keys above `u32::MAX` and above
/// PT-32's domain, which must read absent.
#[test]
fn handle_lookup_matches_get_and_model() {
    let mut handles = Vec::new();
    for (si, &width) in STRUCTURES.iter().enumerate() {
        let m = model_keys(width, 300 + si as u64);
        let mut probes: Vec<u64> = m.keys().copied().step_by(2).collect();
        probes.extend(m.keys().map(|&k| k ^ 1).step_by(5));
        probes.extend([
            0,
            u32::MAX as u64 - 1,
            u32::MAX as u64,
            1 << 32,
            (1 << 32) + 5,
            u32::MAX as u64 + 300,
            1 << 40,
            u64::MAX,
        ]);
        for idx in [index_of(width, &BTreeMap::new()), index_of(width, &m)] {
            idx.get_handles(&probes, &mut handles);
            assert_eq!(handles.len(), probes.len(), "{}", idx.kind_name());
            for (&k, &h) in probes.iter().zip(&handles) {
                let got: Option<Vec<u32>> =
                    (h != 0).then(|| idx.handle_values(h).copied().collect());
                let via_get: Option<Vec<u32>> = idx.get(k).map(|vs| vs.copied().collect());
                assert_eq!(got, via_get, "{} key {k}", idx.kind_name());
                let expect = (!idx.is_empty()).then(|| m.get(&k).cloned()).flatten();
                assert_eq!(got, expect, "{} key {k}", idx.kind_name());
            }
        }
    }
}

/// Seeded unique key sets of a compact range inside the 32-bit domain —
/// what a dimension selection holds: `n` keys over a span of at most
/// `64 × n + 1 024`, the span placed anywhere from 0 to `u32::MAX`
/// (both ends included), from one key to a few hundred.
fn compact_key_sets() -> Vec<Vec<u64>> {
    let mut rng = Xoshiro256StarStar::new(0xDE45E);
    let mut sets = vec![vec![0], vec![u32::MAX as u64], vec![0, 1, 2]];
    for case in 0..24u64 {
        let n = 1 + rng.below(400);
        let span = n + rng.below(64 * n + 1024 - n + 1);
        let min = match case % 4 {
            0 => 0,
            1 => u32::MAX as u64 + 1 - span,
            _ => rng.below(u32::MAX as u64 + 2 - span),
        };
        // Both ends of the span and n − 2 distinct keys between them.
        let mut keys: BTreeMap<u64, ()> = BTreeMap::new();
        keys.insert(min, ());
        keys.insert(min + span - 1, ());
        while (keys.len() as u64) < n {
            keys.insert(min + rng.below(span), ());
        }
        sets.push(keys.into_keys().collect());
    }
    sets
}

/// Every read of `dense` equals the same read of each tree over the same
/// keys (the `i`-th key holding `i`): point lookups and handles at every
/// key, its neighbours, the span's outside and beyond 32 bits; batched
/// lookups; ordered sub-range scans; bounds and sizes.
#[test]
fn dense_index_equals_every_tree_on_compact_unique_keys() {
    let mut handles = Vec::new();
    let mut scratch = ProbeScratch::default();
    for keys in compact_key_sets() {
        let dense = TreeIndex::for_selection(&keys, u32::MAX as u64, true);
        assert_eq!(dense.kind_name(), "Dense", "{} keys", keys.len());
        let (min, max) = (keys[0], keys[keys.len() - 1]);
        let mut probes: Vec<u64> = keys.iter().flat_map(|&k| [k, k ^ 1, k + 1]).collect();
        probes.extend([min.wrapping_sub(1), max + 1, 1 << 32, 1 << 40, u64::MAX]);
        let ranges = [
            (0, u64::MAX),
            (min, max),
            (min + 1, max.saturating_sub(1)),
            (keys[keys.len() / 3], keys[2 * keys.len() / 3]),
            (max, min),
            (max + 1, u64::MAX),
            (0, min.saturating_sub(1)),
        ];
        for width in STRUCTURES {
            let mut tree = width.map_or_else(TreeIndex::new_kiss, TreeIndex::new_pt);
            for (i, &k) in keys.iter().enumerate() {
                tree.insert(k, i as u32);
            }
            let label = format!("Dense vs {} on {} keys", tree.kind_name(), keys.len());
            let read =
                |idx: &TreeIndex, k: u64| idx.get(k).map(|vs| vs.copied().collect::<Vec<_>>());
            for &k in &probes {
                assert_eq!(read(&dense, k), read(&tree, k), "{label}: get {k}");
                let (mut d, mut t) = (Vec::new(), Vec::new());
                dense.get_each(k, |v| d.push(v));
                tree.get_each(k, |v| t.push(v));
                assert_eq!(d, t, "{label}: get_each {k}");
                assert_eq!(dense.contains(k), tree.contains(k), "{label}: contains {k}");
            }
            let by_handle = |idx: &TreeIndex, handles: &mut Vec<u32>| -> Vec<Option<Vec<u32>>> {
                idx.get_handles(&probes, handles);
                handles
                    .iter()
                    .map(|&h| (h != 0).then(|| idx.handle_values(h).copied().collect()))
                    .collect()
            };
            assert_eq!(
                by_handle(&dense, &mut handles),
                by_handle(&tree, &mut handles),
                "{label}: handles"
            );
            let mut batched = |idx: &TreeIndex| {
                let mut got = Vec::new();
                idx.batch_get_with(&probes, &mut scratch, |i, vs| {
                    got.extend(vs.map(|&v| (i, v)))
                });
                got
            };
            assert_eq!(batched(&dense), batched(&tree), "{label}: batch_get_with");
            for (lo, hi) in ranges {
                let scan = |idx: &TreeIndex| {
                    let mut got = Vec::new();
                    idx.for_each_key_range(lo, hi, |k, vs| {
                        got.push((k, vs.copied().collect::<Vec<_>>()))
                    });
                    got
                };
                assert_eq!(scan(&dense), scan(&tree), "{label}: [{lo}, {hi}]");
            }
            assert_eq!(
                (dense.min_key(), dense.max_key(), dense.len()),
                (tree.min_key(), tree.max_key(), tree.len()),
                "{label}"
            );
        }
    }
}

/// A dense σ on the right of a synchronous scan: the mixed-structure path
/// must yield exactly the key sequence the tree on the right would.
#[test]
fn sync_scan_with_a_dense_right_side_equals_the_tree_kernels() {
    for (si, keys) in compact_key_sets().into_iter().enumerate() {
        let dense = TreeIndex::for_selection(&keys, u32::MAX as u64, true);
        let (min, max) = (keys[0], keys[keys.len() - 1]);
        for (wi, &width) in STRUCTURES.iter().enumerate() {
            // The left side holds every other right key plus keys around
            // and outside the span, each twice.
            let mut rng = Xoshiro256StarStar::new((si * 3 + wi) as u64);
            let mut left = width.map_or_else(TreeIndex::new_kiss, TreeIndex::new_pt);
            let mut right = width.map_or_else(TreeIndex::new_kiss, TreeIndex::new_pt);
            for (i, &k) in keys.iter().enumerate() {
                right.insert(k, i as u32);
            }
            let mut lkeys: Vec<u64> = keys.iter().copied().step_by(2).collect();
            lkeys.extend([
                min.saturating_sub(1),
                max.saturating_add(1).min(u32::MAX as u64),
            ]);
            lkeys.extend((0..32).map(|_| min.saturating_sub(2048) + rng.below(max - min + 4096)));
            for (i, &k) in lkeys.iter().filter(|&&k| k <= u32::MAX as u64).enumerate() {
                left.insert(k, i as u32);
                left.insert(k, i as u32 + 1_000);
            }
            let label = format!("{} × Dense on {} keys", left.kind_name(), keys.len());
            for (lo, hi) in [(0, u64::MAX), (min, max), (min + 1, max), (max, min)] {
                let scan = |r: &TreeIndex| {
                    let mut got = Vec::new();
                    sync_scan_indexes_range(&left, r, lo, hi, |k, lv, rv| {
                        got.push((
                            k,
                            lv.copied().collect::<Vec<_>>(),
                            rv.copied().collect::<Vec<_>>(),
                        ))
                    });
                    got
                };
                assert_eq!(scan(&dense), scan(&right), "{label}: [{lo}, {hi}]");
            }
        }
    }
}

/// The rule at its edges: a span of exactly `64 × n + 1 024` is dense, one
/// more is a tree; a repeated key makes a tree that keeps every value; an
/// empty selection is an empty dense index; single keys at 0 and at
/// `u32::MAX` are dense.
#[test]
fn for_selection_chooses_dense_exactly_by_its_rule() {
    let kind = |keys: &[u64]| TreeIndex::for_selection(keys, u32::MAX as u64, true).kind_name();
    for n in [2u64, 16, 300] {
        // n − 1 keys from 5 up, and the last key where the span ends.
        let at = |span: u64| -> Vec<u64> {
            let mut keys: Vec<u64> = (0..n - 1).map(|i| 5 + i).collect();
            keys.push(5 + span - 1);
            keys
        };
        assert_eq!(kind(&at(64 * n + 1024)), "Dense", "n = {n}");
        assert_eq!(kind(&at(64 * n + 1025)), "KISS-Tree", "n = {n}");
    }
    let repeated = TreeIndex::for_selection(&[3, 7, 7, 9], u32::MAX as u64, true);
    assert_eq!(repeated.kind_name(), "KISS-Tree");
    let mut values = Vec::new();
    repeated.for_each(|k, v| values.push((k, v)));
    assert_eq!(values, vec![(3, 0), (7, 1), (7, 2), (9, 3)]);
    assert_eq!(
        TreeIndex::for_selection(&[3, 3], u32::MAX as u64, false).kind_name(),
        "PrefixTree<32>"
    );
    let empty = TreeIndex::for_selection(&[], u32::MAX as u64, true);
    assert_eq!(
        (empty.kind_name(), empty.len(), empty.min_key()),
        ("Dense", 0, None)
    );
    for k in [0, 1, u32::MAX as u64, 1 << 40, u64::MAX] {
        assert!(empty.get(k).is_none(), "{k}");
    }
    for key in [0, u32::MAX as u64] {
        let one = TreeIndex::for_selection(&[key], u32::MAX as u64, true);
        assert_eq!(one.kind_name(), "Dense");
        assert_eq!(one.get(key).map(|vs| vs.copied().collect()), Some(vec![0]));
        for k in [key.wrapping_sub(1), key + 1, 1 << 32, 1 << 40, u64::MAX] {
            assert!(!one.contains(k), "{key}: {k}");
        }
    }
}

const COLS: [&str; 4] = ["a", "b", "c", "d"];

/// Checks the index on `keys` against the model: one ordered scan must
/// yield the model's `(packed tuple, rid)` sequence, and seeded
/// prefix-equality + trailing-range bounds must select the model's rids.
fn check_base_index(
    db: &Database,
    keys: &[&str],
    model: &BTreeMap<Vec<u64>, Vec<u32>>,
    rng: &mut Xoshiro256StarStar,
    ctx: &str,
) {
    let idx = db.find_index_on("t", keys).unwrap();
    let pack = |t: &[u64]| idx.packer().pack(t.iter().copied()).unwrap();
    let expect: Vec<(u64, u64)> = model
        .iter()
        .flat_map(|(t, rids)| rids.iter().map(move |&r| (pack(t), r as u64)))
        .collect();
    let mut got = Vec::new();
    idx.data.for_each_row(|k, row| {
        // The carried column rides in the payload.
        let rid = row.get(0);
        assert_eq!(
            row.get(1),
            db.table("t").unwrap().table().get(rid as u32, 3)
        );
        got.push((k, rid));
    });
    assert_eq!(got, expect, "{ctx}: ordered scan");
    let tuples: Vec<&Vec<u64>> = model.keys().collect();
    for _ in 0..24 {
        let k = rng.below(keys.len() as u64) as usize;
        let anchor = *rng.choose(&tuples);
        let mut bounds: Vec<(u64, u64)> = anchor[..k].iter().map(|&v| (v, v)).collect();
        // Trailing range around the anchor, sometimes (far) wider than
        // the part, sometimes empty or entirely out of domain.
        let (below, above) = (rng.below(8), rng.below(8) << rng.below(40));
        bounds.push(match rng.below(8) {
            0 => (anchor[k] + 1, anchor[k]),
            1 => (u64::MAX - above, u64::MAX),
            _ => (
                anchor[k].saturating_sub(below),
                anchor[k].saturating_add(above),
            ),
        });
        let expect: Vec<u32> = model
            .iter()
            .filter(|(t, _)| {
                t.iter()
                    .zip(&bounds)
                    .all(|(&v, &(lo, hi))| lo <= v && v <= hi)
            })
            .flat_map(|(_, rids)| rids.iter().copied())
            .collect();
        let mut got = Vec::new();
        if let Some((lo, hi)) = idx.packer().pack_range(&bounds) {
            idx.data.index.range_each(lo, hi, |_, pid| {
                got.push(idx.data.payload.row(pid).get(0) as u32)
            });
        }
        assert_eq!(got, expect, "{ctx}: bounds {bounds:?}");
    }
}

#[test]
fn base_index_matches_btreemap_tuple_model() {
    for case in 0..24u64 {
        let mut rng = Xoshiro256StarStar::new(0xBA5E + case);
        let arity = 1 + (case % 3) as usize;
        // Key columns in a seeded order; "d" is the carried column.
        let mut order = [0usize, 1, 2];
        rng.shuffle(&mut order);
        let key_cols = &order[..arity];
        let keys: Vec<&str> = key_cols.iter().map(|&c| COLS[c]).collect();
        let domains: Vec<u64> = (0..4).map(|_| 1 << rng.range_inclusive(1, 9)).collect();

        let mut b = TableBuilder::new("t", Schema::of(&COLS.map(|c| (c, ColumnType::Int))));
        let mut model: BTreeMap<Vec<u64>, Vec<u32>> = BTreeMap::new();
        let add = |model: &mut BTreeMap<Vec<u64>, Vec<u32>>, row: &[u64], rid: u32| {
            let tuple = key_cols.iter().map(|&c| row[c]).collect();
            model.entry(tuple).or_default().push(rid);
        };
        let values = |row: &[u64]| row.iter().map(|&v| Value::Int(v as i64)).collect();
        for rid in 0..150u32 {
            let row: Vec<u64> = domains.iter().map(|&d| rng.below(d)).collect();
            add(&mut model, &row, rid);
            b.push_row(values(&row)).unwrap();
        }
        let mut db = Database::new();
        db.add_table(b.finish());
        db.prefer_kiss = case % 2 == 0;
        db.create_index(&IndexDef::on("t", &keys, &["d"])).unwrap();
        let ctx = format!("case {case} keys {keys:?}");
        // A fresh build is clustered: payload rows lie in key order.
        let mut pids = Vec::new();
        let idx = db.find_index_on("t", &keys).unwrap();
        idx.data.index.for_each(|_, pid| pids.push(pid));
        assert_eq!(pids, (0..150).collect::<Vec<u32>>(), "{ctx}: clustered");
        check_base_index(&db, &keys, &model, &mut rng, &ctx);

        // Inserts: mostly in-domain, some a few bits past a part's width,
        // a few past the 32-bit structures altogether. A row whose tuple
        // cannot pack into 64 bits at all is rejected and changes nothing.
        for _ in 0..50 {
            let mut row: Vec<u64> = domains.iter().map(|&d| rng.below(d)).collect();
            if rng.chance(1, 4) {
                let c = *rng.choose(key_cols);
                row[c] = match rng.below(4) {
                    0 => (1 << 32) + rng.below(4),
                    _ => domains[c] << rng.below(3),
                };
            }
            match db.insert_row("t", &values(&row)) {
                Ok((rid, _)) => add(&mut model, &row, rid),
                Err(e) => assert!(matches!(e, StorageError::KeyTooWide { .. }), "{e}"),
            }
        }
        check_base_index(
            &db,
            &keys,
            &model,
            &mut rng,
            &format!("{ctx} after inserts"),
        );
    }
}

/// Every row of `p` reads back as `model` through both views: the per-row
/// [`PayloadBuf::row`] and the typed rows of [`PayloadBuf::lanes`].
fn check_payload(p: &PayloadBuf, model: &[Vec<u64>], ctx: &str) {
    assert_eq!(p.len(), model.len(), "{ctx}");
    for (id, expect) in model.iter().enumerate() {
        let id = id as u32;
        assert_eq!(&p.row(id).to_vec(), expect, "{ctx}: row {id}");
        let typed: Vec<u64> = match p.lanes() {
            Lanes::U32(rows) => rows.row(id).iter().map(|&v| v.into()).collect(),
            Lanes::U64(rows) => rows.row(id).to_vec(),
        };
        assert_eq!(&typed, expect, "{ctx}: typed row {id}");
    }
}

#[test]
fn payload_rows_survive_widening() {
    for case in 0..32u64 {
        let mut rng = Xoshiro256StarStar::new(0x1A4E + case);
        let width = 1 + rng.below(5) as usize;
        let n = 1 + rng.below(400) as usize;
        // The row, and the field of it, that first needs 64 bits.
        let (wide_row, wide_field) = (
            rng.below(n as u64) as usize,
            rng.below(width as u64) as usize,
        );
        let ctx = format!("case {case}: {n} rows × {width}, wide at {wide_row}.{wide_field}");
        let mut p = PayloadBuf::with_capacity(width, n);
        let mut model: Vec<Vec<u64>> = Vec::new();
        for r in 0..n {
            // Values up to u32::MAX inclusive still fit a 32-bit lane.
            let mut row: Vec<u64> = (0..width).map(|_| rng.below(1 << 32)).collect();
            if r == wide_row {
                assert_eq!(p.lane_bytes(), 4, "{ctx}");
                check_payload(&p, &model, &format!("{ctx}, before widening"));
                row[wide_field] = u32::MAX as u64 + 1 + rng.below(1 << 40);
            }
            assert_eq!(p.push(row.iter().copied()), r as u32, "{ctx}");
            model.push(row);
        }
        assert_eq!(p.lane_bytes(), 8, "{ctx}");
        check_payload(&p, &model, &format!("{ctx}, after widening"));
        assert_eq!(p.memory_bytes(), n * width * 8, "{ctx}");

        // Without a wide value the same rows take half the bytes.
        let mut narrow = PayloadBuf::with_capacity(width, n);
        for row in &mut model {
            row[wide_field] &= u32::MAX as u64;
            narrow.push(row.iter().copied());
        }
        assert_eq!(narrow.lane_bytes(), 4, "{ctx}");
        check_payload(&narrow, &model, &format!("{ctx}, narrow"));
        assert_eq!(narrow.memory_bytes(), n * width * 4, "{ctx}");
    }
}

#[test]
fn base_index_payload_survives_widening() {
    for case in 0..8u64 {
        let mut rng = Xoshiro256StarStar::new(0xB1DE + case);
        let schema = Schema::of(&[("k", ColumnType::Int), ("c", ColumnType::Int)]);
        let mut b = TableBuilder::new("t", schema);
        // rid → (k, c), the payload's model: rid, then the carried c.
        let mut model: Vec<Vec<u64>> = Vec::new();
        let n = 1 + rng.below(300) as usize;
        for _ in 0..n {
            let (k, c) = (rng.below(64), rng.below(1 << 32));
            b.push_row(vec![Value::Int(k as i64), Value::Int(c as i64)])
                .unwrap();
            model.push(vec![k, c]);
        }
        let mut db = Database::new();
        db.add_table(b.finish());
        db.prefer_kiss = case % 2 == 0;
        db.create_index(&IndexDef::new("t", "k", &["c"])).unwrap();
        let ctx = format!("case {case}");
        let check = |db: &Database, model: &[Vec<u64>], ctx: &str| {
            let idx = db.find_index("t", "k").unwrap();
            let mut seen = 0;
            idx.data.for_each_row(|k, row| {
                let rid = row.get(0) as usize;
                assert_eq!(vec![k, row.get(1)], model[rid], "{ctx}: rid {rid}");
                seen += 1;
            });
            assert_eq!(seen, model.len(), "{ctx}");
        };
        let payload = |db: &Database| {
            let p = &db.find_index("t", "k").unwrap().data.payload;
            (p.lane_bytes(), p.memory_bytes())
        };
        // The build reserves exactly its rows, in 32-bit lanes.
        assert_eq!(payload(&db), (4, n * 2 * 4), "{ctx}");
        check(&db, &model, &ctx);

        // Appends, one of them carrying a value past 32 bits: the buffer
        // widens in place (the key is in-domain, so nothing is rebuilt).
        let appends = 1 + rng.below(40) as usize;
        // Case 0 widens on the first append, straight after the build.
        let wide_at = if case == 0 {
            0
        } else {
            rng.below(appends as u64) as usize
        };
        for a in 0..appends {
            let k = rng.below(64);
            let c = match a == wide_at {
                true => u32::MAX as u64 + 1 + rng.below(1 << 40),
                false => rng.below(1 << 32),
            };
            let (_, bytes_before) = payload(&db);
            let (rid, _) = db
                .insert_row("t", &[Value::Int(k as i64), Value::Int(c as i64)])
                .unwrap();
            assert_eq!(rid as usize, model.len(), "{ctx}");
            model.push(vec![k, c]);
            let lane = if a < wide_at { 4 } else { 8 };
            assert_eq!(payload(&db).0, lane, "{ctx}: append {a}");
            if a == wide_at {
                // Widening keeps the reserved fields, grown to end the row
                // it pushes: right after an exact build, still exact.
                let fields = (bytes_before / 4).max(model.len() * 2);
                assert_eq!(payload(&db).1, fields * 8, "{ctx}");
            }
            check(&db, &model, &format!("{ctx}: append {a}"));
        }
    }
}
