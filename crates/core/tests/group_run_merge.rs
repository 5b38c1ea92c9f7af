//! Seeded property test of the one ordered merge, [`GroupRun::merge`], and
//! of the router's schema-checked wrapper, [`PartialAggregate::merge`]:
//! k ascending runs with overlapping keys (0 and `u64::MAX` included) and
//! negative accumulators fold into exactly what a `BTreeMap` upsert builds,
//! with every group's payload taken from the lowest-index run holding it.

use std::collections::BTreeMap;

use qppt_core::{GroupRun, PartialAggregate, QpptError};
use qppt_mem::Xoshiro256StarStar;
use qppt_storage::Value;

/// Keys that runs share often: both domain ends and a few neighbours.
const HOT_KEYS: [u64; 8] = [0, 1, 2, 7, 1 << 32, u64::MAX - 1, u64::MAX, 42];

/// A random ascending run; each group's payload names its run and key.
fn random_run(rng: &mut Xoshiro256StarStar, run: usize, naggs: usize) -> GroupRun<(usize, u64)> {
    let mut keys: Vec<u64> = Vec::new();
    if !rng.chance(1, 4) {
        for _ in 0..rng.below(12) {
            keys.push(if rng.chance(1, 2) {
                *rng.choose(&HOT_KEYS)
            } else {
                rng.next_u64() >> rng.below(64)
            });
        }
    }
    keys.sort_unstable();
    keys.dedup();
    let mut out = GroupRun::with_capacity(naggs, keys.len());
    for key in keys {
        let accs: Vec<i64> = (0..naggs)
            .map(|_| rng.range_inclusive(0, 2000) as i64 - 1000)
            .collect();
        out.push(key, (run, key), &accs);
    }
    out
}

/// The oracle: upsert every run's groups, in run order, into a map.
fn oracle<P: Clone>(runs: &[GroupRun<P>]) -> Vec<(u64, P, Vec<i64>)> {
    let mut map: BTreeMap<u64, (P, Vec<i64>)> = BTreeMap::new();
    for run in runs {
        for (key, payload, accs) in run.iter() {
            let entry = map
                .entry(key)
                .or_insert_with(|| (payload.clone(), vec![0; accs.len()]));
            for (sum, a) in entry.1.iter_mut().zip(accs) {
                *sum += a;
            }
        }
    }
    map.into_iter().map(|(k, (p, a))| (k, p, a)).collect()
}

fn groups<P: Clone>(run: &GroupRun<P>) -> Vec<(u64, P, Vec<i64>)> {
    run.iter()
        .map(|(k, p, a)| (k, p.clone(), a.to_vec()))
        .collect()
}

#[test]
fn ordered_merge_equals_a_btreemap_upsert() {
    let mut rng = Xoshiro256StarStar::new(0x5eed_0027);
    let mut shared_keys = 0usize;
    for case in 0..600 {
        let naggs = if rng.chance(1, 2) { 1 } else { 3 };
        let k = rng.range_inclusive(1, 5) as usize;
        let runs: Vec<_> = (0..k).map(|r| random_run(&mut rng, r, naggs)).collect();
        let refs: Vec<&GroupRun<(usize, u64)>> = runs.iter().collect();
        let merged = GroupRun::merge(&refs).unwrap().expect("k ≥ 1 runs");
        let want = oracle(&runs);
        assert_eq!(groups(&merged), want, "case {case}: k={k} naggs={naggs}");
        assert_eq!(merged.agg_width(), naggs);
        // The payload rule, stated directly: the lowest run holding the key.
        for (key, &(run, payload_key), _) in merged.iter() {
            assert_eq!(payload_key, key);
            let lowest = runs.iter().position(|r| r.keys().contains(&key));
            assert_eq!(Some(run), lowest, "case {case}: payload of key {key}");
            shared_keys += runs.iter().filter(|r| r.keys().contains(&key)).count() - 1;
        }

        // The router's wrapper folds the same runs with group values as
        // payload.
        let parts: Vec<PartialAggregate> = runs
            .iter()
            .map(|run| {
                let mut groups = GroupRun::with_capacity(naggs, run.len());
                for (key, &(r, _), accs) in run.iter() {
                    groups.push(key, vec![Value::Int(r as i64)], accs);
                }
                PartialAggregate {
                    group_cols: vec!["g".into()],
                    agg_cols: (0..naggs).map(|i| format!("a{i}")).collect(),
                    groups,
                }
            })
            .collect();
        let merged = PartialAggregate::merge(&parts.iter().collect::<Vec<_>>())
            .unwrap()
            .expect("k ≥ 1 parts");
        let values: Vec<_> = want
            .iter()
            .map(|(k, (r, _), a)| (*k, vec![Value::Int(*r as i64)], a.clone()))
            .collect();
        assert_eq!(groups(&merged.groups), values, "case {case}: partials");
    }
    assert!(
        shared_keys > 500,
        "the runs must overlap often: {shared_keys}"
    );
}

#[test]
fn mismatched_runs_are_errors_and_no_runs_is_none() {
    let run = |naggs: usize| {
        let mut r = GroupRun::with_capacity(naggs, 1);
        r.push(5, (), &vec![1; naggs]);
        r
    };
    let (one, three) = (run(1), run(3));
    assert!(matches!(
        GroupRun::merge(&[&one, &three]),
        Err(QpptError::Internal(_))
    ));
    assert_eq!(GroupRun::<()>::merge(&[]), Ok(None));

    let part = |group_cols: &[&str], agg_cols: &[&str]| {
        let mut groups = GroupRun::with_capacity(agg_cols.len(), 1);
        groups.push(
            5,
            vec![Value::Int(1); group_cols.len()],
            &vec![1; agg_cols.len()],
        );
        PartialAggregate {
            group_cols: group_cols.iter().map(|c| c.to_string()).collect(),
            agg_cols: agg_cols.iter().map(|c| c.to_string()).collect(),
            groups,
        }
    };
    let base = part(&["d_year"], &["revenue"]);
    for other in [
        part(&["c_nation"], &["revenue"]),
        part(&["d_year"], &["profit"]),
        part(&["d_year"], &["revenue", "profit"]),
    ] {
        assert!(
            matches!(
                PartialAggregate::merge(&[&base, &other]),
                Err(QpptError::Internal(_))
            ),
            "{:?}/{:?} must not merge with {:?}/{:?}",
            other.group_cols,
            other.agg_cols,
            base.group_cols,
            base.agg_cols
        );
    }
    // Same schema, but a run whose accumulator count disagrees with it.
    let mut wide = base.clone();
    wide.groups = GroupRun::with_capacity(2, 0);
    assert!(matches!(
        PartialAggregate::merge(&[&base, &wide]),
        Err(QpptError::Internal(_))
    ));
    assert_eq!(PartialAggregate::merge(&[]), Ok(None));
}
