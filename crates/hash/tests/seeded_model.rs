//! Seeded model tests: both hash tables must behave exactly like
//! `std::collections::HashMap` under arbitrary insert/update/probe mixes.
//! Cases are drawn from `qppt_mem`'s PRNG, so a failure names the case that
//! reproduces it.

use qppt_hash::{ChainedHashMap, OpenHashMap};
use qppt_mem::Xoshiro256StarStar;
use std::collections::HashMap;

const CASES: u64 = 128;

/// One insert-or-push operation mix over a small key domain (so updates and
/// collisions are common), applied to a table and to the model alike.
macro_rules! matches_std {
    ($table:ty, $seed:expr) => {
        for case in 0..CASES {
            let mut rng = Xoshiro256StarStar::new($seed + case);
            let mut ours: $table = <$table>::new();
            let mut model: HashMap<u64, Vec<u64>> = HashMap::new();
            for _ in 0..rng.below(401) {
                let (k, v) = (rng.below(512), rng.next_u64());
                if rng.chance(1, 2) {
                    assert_eq!(ours.insert(k, vec![v]), model.insert(k, vec![v]));
                } else {
                    ours.get_or_insert_with(k, Vec::new).push(v);
                    model.entry(k).or_default().push(v);
                }
            }
            assert_eq!(ours.len(), model.len(), "case {case}");
            for (&k, v) in &model {
                assert_eq!(ours.get(k), Some(v), "case {case} key {k}");
            }
            for _ in 0..64 {
                let p = rng.below(1024);
                assert_eq!(ours.contains_key(p), model.contains_key(&p), "case {case}");
            }
            let mut got: Vec<(u64, Vec<u64>)> = ours.iter().map(|(k, v)| (k, v.clone())).collect();
            got.sort();
            let mut expect: Vec<(u64, Vec<u64>)> = model.into_iter().collect();
            expect.sort();
            assert_eq!(got, expect, "case {case}");
        }
    };
}

#[test]
fn chained_matches_std() {
    matches_std!(ChainedHashMap<Vec<u64>>, 0xC4A1);
}

#[test]
fn open_matches_std() {
    matches_std!(OpenHashMap<Vec<u64>>, 0x09E4);
}

#[test]
fn tables_agree_with_each_other() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::new(0xA94EE + case);
        let pairs: Vec<(u64, u64)> = (0..rng.below(301))
            .map(|_| (rng.next_u64(), rng.next_u64()))
            .collect();
        let mut chained = ChainedHashMap::new();
        let mut open = OpenHashMap::new();
        for &(k, v) in &pairs {
            chained.insert(k, v);
            open.insert(k, v);
        }
        assert_eq!(chained.len(), open.len(), "case {case}");
        for &(k, _) in &pairs {
            assert_eq!(chained.get(k), open.get(k), "case {case} key {k}");
        }
    }
}
