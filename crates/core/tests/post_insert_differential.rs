//! Reads after writes: the 13 SSB queries over a fact table grown by
//! appended batches must equal the reference executor, under the pooled
//! engine at every parallelism and join-buffer size checked.
//!
//! The shape is a write/refresh cycle: seeded copies of existing fact rows,
//! under fresh order keys, are appended batch by batch. Every fact index
//! files them under their keys but stores their payload rows at its tail,
//! interleaved with every other key's appends — the unclustered rows the
//! fact-side readers prefetch. Then one more row carries measures past
//! 32 bits, which moves the fact payloads from 32- to 64-bit lanes: every
//! query runs before and after it. That row copies one that Q1.1 selects,
//! so a value truncated on the way in or out changes an answer.

use std::sync::Arc;

use qppt_core::{prepare_indexes, PlanOptions};
use qppt_mem::Xoshiro256StarStar;
use qppt_par::{PooledEngine, WorkerPool};
use qppt_ssb::{queries, run_reference, SsbDb};
use qppt_storage::{Database, Value};

const BATCHES: usize = 3;
const BATCH_ROWS: usize = 1500;

/// The option grid: parallelism {1, 2} × join buffer {1, 512}, over the
/// default plans (fused select-probe and synchronous scans of the fact
/// base index) and the unfused binary-join plans (a fact selection first,
/// then later stages scanning intermediates).
fn grid() -> Vec<PlanOptions> {
    let plans = [
        PlanOptions::default(),
        PlanOptions::default()
            .with_select_join(false)
            .with_max_join_ways(2),
    ];
    let mut grid = Vec::new();
    for plan in plans {
        for parallelism in [1, 2] {
            for join_buffer in [1, 512] {
                grid.push(
                    plan.with_parallelism(parallelism)
                        .with_join_buffer(join_buffer),
                );
            }
        }
    }
    grid
}

/// Appends `row` to `lineorder`.
fn insert(db: &mut Database, row: &[Value]) {
    db.insert_row("lineorder", row)
        .expect("a copied fact row inserts");
}

/// A copy of fact row `rid` under order key `key`.
fn copy_row(db: &Database, rid: u32, key: i64) -> Vec<Value> {
    let lo = db.table("lineorder").unwrap().table();
    let mut row: Vec<Value> = (0..lo.schema().width()).map(|c| lo.value(rid, c)).collect();
    row[lo.schema().col("lo_orderkey").unwrap()] = Value::Int(key);
    row
}

/// Runs the 13 queries under every option set against the reference.
fn check_all(db: &Arc<Database>, pool: &Arc<WorkerPool>, ctx: &str) {
    let snap = db.snapshot();
    let engine = PooledEngine::new(db.clone(), pool.clone());
    for q in queries::all_queries() {
        let expect = run_reference(db, &q, snap).unwrap().canonicalized();
        for opts in grid() {
            let got = engine.run(&q, &opts).unwrap().canonicalized();
            assert_eq!(got, expect, "{ctx}: {} under {opts:?}", q.id);
        }
    }
}

/// The lane widths of the fact indexes' payloads.
fn fact_lanes(db: &Database) -> Vec<usize> {
    let fact = db.table_idx("lineorder").unwrap();
    db.indexes()
        .iter()
        .filter(|i| i.table_idx == fact)
        .map(|i| i.data.payload.lane_bytes())
        .collect()
}

#[test]
fn queries_after_appends_and_widening_match_reference() {
    let mut ssb = SsbDb::generate(0.01, 61);
    for q in queries::all_queries() {
        for opts in grid() {
            prepare_indexes(&mut ssb.db, &q, &opts).unwrap();
        }
    }
    let mut db = Arc::new(ssb.db);
    let pool = WorkerPool::new(2, 4);
    let mut rng = Xoshiro256StarStar::new(0x0A11_0C8E);
    let base_rows = db.table("lineorder").unwrap().table().row_count() as u64;
    let mut next_key = 1i64 << 40;

    // Batches of copies of random base rows: random key order.
    for _ in 0..BATCHES {
        let db = Arc::get_mut(&mut db).expect("no engine holds the database");
        for _ in 0..BATCH_ROWS {
            let row = copy_row(db, rng.below(base_rows) as u32, next_key);
            next_key += 1;
            insert(db, &row);
        }
    }
    assert!(fact_lanes(&db).iter().all(|&b| b == 4), "32-bit lanes");
    check_all(&db, &pool, "after appends");

    // One row that Q1.1 selects (1993 order date, discount 1–3, quantity
    // under 25), with its measures past 32 bits.
    let wide = {
        let lo = db.table("lineorder").unwrap().table();
        let col = |name: &str| lo.schema().col(name).unwrap();
        let (date, discount, quantity) =
            (col("lo_orderdate"), col("lo_discount"), col("lo_quantity"));
        let rid = (0..base_rows as u32)
            .find(|&r| {
                lo.get(r, date) / 10_000 == 1993
                    && (1..=3).contains(&lo.get(r, discount))
                    && lo.get(r, quantity) < 25
            })
            .expect("some fact row qualifies for Q1.1");
        let mut row = copy_row(&db, rid, next_key);
        for (measure, extra) in [
            ("lo_extendedprice", 7),
            ("lo_revenue", 11),
            ("lo_supplycost", 3),
        ] {
            row[col(measure)] = Value::Int((1i64 << 32) + extra);
        }
        row
    };
    insert(
        Arc::get_mut(&mut db).expect("no engine holds the database"),
        &wide,
    );
    assert!(
        fact_lanes(&db).contains(&8),
        "the wide row widens fact payloads"
    );
    let q1_1 = run_reference(&db, &queries::q1_1(), db.snapshot()).unwrap();
    assert!(
        q1_1.rows[0].agg_values[0] > 1 << 32,
        "Q1.1 sums the wide row"
    );
    check_all(&db, &pool, "after widening");
    pool.shutdown();
}
