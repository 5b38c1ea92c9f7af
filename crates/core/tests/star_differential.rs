//! Seeded differential test of the join-group: random 2–5-way star specs
//! over the SSB catalog, with the dimensions in **every** order, under
//! every join-buffer size × fused/non-fused plan × sequential/parallel ×
//! one-stage/multi-stage combination, against the reference hash-join
//! executor.
//!
//! What it pins about the flush (each assisting dimension is probed only by
//! the rows the previous one kept):
//!
//! * dimension order: every permutation makes every dimension the main one
//!   once and puts the assists in every order, so a selective dimension
//!   sits before and after an unselective one;
//! * flush boundaries: `join_buffer` 1 (every row its own block), 64, 512;
//! * a dimension that rejects every row of every block (`dead_supplier`);
//! * fact residuals and dense σ filters in one stage
//!   ([`residual_filters`]): the scan kernel runs its residual passes
//!   ahead of its filter passes in the fused plan's select-probe; without
//!   select-join the fact selection's kernel tests the residuals and the
//!   synchronous scan's over its output the filters;
//! * dense and sparse σs: every σ of the named queries is a dense index the
//!   scan tests, while [`sparse_date`]'s date σ spans too wide a key range
//!   and stays a tree the flush probes;
//! * `max_join_ways = 2`: one dimension per stage, so every stage but the
//!   last sinks its survivors into an intermediate table;
//! * `select_join` off: stage 1 is a synchronous scan instead of the fused
//!   select-probe — over the fact base index or, when the spec has a fact
//!   predicate, over the materialized fact selection;
//! * a fact predicate on a dimension's FK column ([`fk_range`]): in the
//!   orders where that dimension is stage 1's main one, the predicate —
//!   evaluated in the scan, or by the fact selection — reads the key of
//!   the fact base index, which no payload row holds;
//! * "first *visible* version wins": the database carries a `date` key
//!   whose first version is deleted and re-inserted, and one whose second
//!   version is deleted, and `date` joins through its base index whenever
//!   it has no predicate.

use std::sync::Arc;

use qppt_core::{prepare_indexes, PlanOptions, QpptEngine};
use qppt_mem::Xoshiro256StarStar;
use qppt_par::{PooledEngine, WorkerPool};
use qppt_ssb::{run_reference, SsbDb};
use qppt_storage::{
    AggExpr, ColRef, Database, DimSpec, Expr, OrderKey, Predicate, QuerySpec, Value,
};

type Rng = Xoshiro256StarStar;

fn dim(table: &str, join: &str, fact: &str, preds: Vec<Predicate>, carried: &[&str]) -> DimSpec {
    DimSpec {
        table: table.into(),
        join_col: join.into(),
        fact_col: fact.into(),
        predicates: preds,
        carried: carried.iter().map(|c| c.to_string()).collect(),
    }
}

/// A random selection on (and carried columns of) one of the four SSB
/// dimensions. One time in four the dimension has no predicate and joins
/// through its base index.
fn random_dim(rng: &mut Rng, table: usize) -> DimSpec {
    const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
    let region = |rng: &mut Rng| *rng.choose(&REGIONS);
    let bare = rng.chance(1, 4);
    let some = |rng: &mut Rng, cols: &[&'static str]| -> Vec<&'static str> {
        cols.iter().copied().filter(|_| rng.chance(1, 2)).collect()
    };
    match table {
        0 => {
            let preds = match rng.below(2) {
                _ if bare => vec![],
                0 => vec![Predicate::eq("c_region", region(rng))],
                _ => vec![Predicate::eq("c_mktsegment", "AUTOMOBILE")],
            };
            let carried = some(rng, &["c_nation", "c_region"]);
            dim("customer", "c_custkey", "lo_custkey", preds, &carried)
        }
        1 => {
            let preds = match rng.below(2) {
                _ if bare => vec![],
                0 => vec![Predicate::eq("s_region", region(rng))],
                _ => vec![Predicate::is_in(
                    "s_region",
                    vec![Value::str(region(rng)), Value::str(region(rng))],
                )],
            };
            let carried = some(rng, &["s_nation", "s_region"]);
            dim("supplier", "s_suppkey", "lo_suppkey", preds, &carried)
        }
        2 => {
            let mfgr = format!("MFGR#{}", 1 + rng.below(5));
            let preds = match rng.below(3) {
                _ if bare => vec![],
                0 => vec![Predicate::eq("p_mfgr", mfgr.as_str())],
                1 => vec![Predicate::between("p_size", 1i64, 1 + rng.below(50) as i64)],
                _ => vec![
                    Predicate::eq("p_mfgr", mfgr.as_str()),
                    Predicate::lt("p_size", 2 + rng.below(49) as i64),
                ],
            };
            let carried = some(rng, &["p_mfgr", "p_category"]);
            dim("part", "p_partkey", "lo_partkey", preds, &carried)
        }
        _ => {
            let year = 1992 + rng.below(7) as i64;
            let preds = match rng.below(3) {
                _ if bare => vec![],
                0 => vec![Predicate::eq("d_year", year)],
                1 => vec![Predicate::between("d_year", year, year + 2)],
                _ => vec![Predicate::between(
                    "d_weeknuminyear",
                    1i64,
                    1 + rng.below(53) as i64,
                )],
            };
            let carried = some(rng, &["d_year", "d_monthnuminyear"]);
            dim("date", "d_datekey", "lo_orderdate", preds, &carried)
        }
    }
}

/// A range on the fact's foreign key `fk` that keeps part of its keys (the
/// bounds are sized for sf 0.01). In every order where `fk`'s dimension is
/// the main one of stage 1, the predicate reads the stage key itself, not
/// a payload field.
fn fk_range(rng: &mut Rng, fk: &str) -> Predicate {
    let (lo, hi) = match fk {
        "lo_custkey" => (1, 50 + rng.below(200) as i64),
        "lo_suppkey" => (1 + rng.below(5) as i64, 10 + rng.below(10) as i64),
        "lo_partkey" => (1, 300 + rng.below(1500) as i64),
        _ => {
            let year = 1992 + rng.below(5) as i64;
            (year * 10_000 + 101, (year + 2) * 10_000 + 1231)
        }
    };
    Predicate::between(fk, lo, hi)
}

/// A random star query over `ndims` distinct dimensions, grouped by every
/// carried column.
fn random_spec(rng: &mut Rng, id: usize, ndims: usize) -> QuerySpec {
    let mut tables = [0usize, 1, 2, 3];
    rng.shuffle(&mut tables);
    let dims: Vec<DimSpec> = tables[..ndims]
        .iter()
        .map(|&t| random_dim(rng, t))
        .collect();
    let group_by: Vec<ColRef> = dims
        .iter()
        .flat_map(|d| d.carried.iter().map(|c| ColRef::new(&d.table, c)))
        .collect();
    let col = |c: &str| c.to_string();
    let mut aggregates = vec![AggExpr::sum(Expr::Col(col("lo_revenue")), "revenue")];
    if rng.chance(1, 2) {
        let profit = Expr::Sub(col("lo_revenue"), col("lo_supplycost"));
        aggregates.push(AggExpr::sum(profit, "profit"));
    }
    if rng.chance(1, 3) {
        let gross = Expr::Mul(col("lo_extendedprice"), col("lo_discount"));
        aggregates.push(AggExpr::sum(gross, "gross"));
    }
    let fact_predicates = match rng.below(4) {
        0 => vec![Predicate::between("lo_discount", 1i64, 3i64)],
        1 => vec![Predicate::lt("lo_quantity", 10 + rng.below(40) as i64)],
        2 => {
            let fk = dims[rng.below(ndims as u64) as usize].fact_col.clone();
            vec![fk_range(rng, &fk)]
        }
        _ => vec![],
    };
    QuerySpec {
        id: format!("R{id}"),
        fact: "lineorder".into(),
        order_by: (0..group_by.len()).map(OrderKey::group).collect(),
        dims,
        fact_predicates,
        group_by,
        aggregates,
    }
}

/// Q3.1's shape with a supplier selection no supplier passes: whatever
/// position it assists in, every flush block dies there.
fn dead_supplier() -> QuerySpec {
    let mut q = qppt_ssb::queries::q3_1();
    q.id = "dead-supplier".into();
    q.dims[1].predicates = vec![
        Predicate::eq("s_region", "AMERICA"),
        Predicate::eq("s_nation", "CHINA"),
    ];
    q
}

/// Q3.1 with a date selection of two years six apart, `d_year IN (1992,
/// 1998)`: 731 keys over a span of 61 131 `d_datekey`s, past the dense
/// bound of 64 × 731 + 1 024, so the σ is a tree-indexed assist.
fn sparse_date() -> QuerySpec {
    let mut q = qppt_ssb::queries::q3_1();
    q.id = "sparse-date".into();
    q.dims[2].predicates = vec![Predicate::is_in(
        "d_year",
        vec![Value::Int(1992), Value::Int(1998)],
    )];
    q
}

/// Q3.1 with two fact residuals, `lo_discount ∈ [1, 3]` and
/// `lo_quantity < 30`, in one stage with its dense customer and supplier
/// σs: in the fused plan the select-probe tests the residuals and then the
/// filters on every key's rows; without it the fact selection tests the
/// residuals and the synchronous scan over its output the filters.
fn residual_filters() -> QuerySpec {
    let mut q = qppt_ssb::queries::q3_1();
    q.id = "residual-filters".into();
    q.fact_predicates = vec![
        Predicate::between("lo_discount", 1i64, 3i64),
        Predicate::lt("lo_quantity", 30i64),
    ];
    q
}

/// Q4.1 without its supplier: `date` has no predicate, so it joins through
/// its base index — the dimension [`age_date_keys`] gives version
/// histories — and carries the `d_year` the result groups by.
fn base_date() -> QuerySpec {
    let mut q = qppt_ssb::queries::q4_1();
    q.id = "base-date".into();
    q.dims.remove(1);
    q
}

/// Every order of `spec`'s dimensions.
fn dim_orders(spec: &QuerySpec) -> Vec<QuerySpec> {
    fn permute(rest: &mut Vec<DimSpec>, taken: &mut Vec<DimSpec>, out: &mut Vec<Vec<DimSpec>>) {
        if rest.is_empty() {
            out.push(taken.clone());
        }
        for i in 0..rest.len() {
            taken.push(rest.remove(i));
            permute(rest, taken, out);
            rest.insert(i, taken.pop().expect("pushed above"));
        }
    }
    let mut orders = Vec::new();
    permute(&mut spec.dims.clone(), &mut Vec::new(), &mut orders);
    orders
        .into_iter()
        .map(|dims| QuerySpec {
            dims,
            ..spec.clone()
        })
        .collect()
}

/// Gives three `date` keys a version history: `first_dead`'s only visible
/// version is its second (the original is deleted, a copy with another
/// `d_year` re-inserted); `second_dead`'s is its first (a copy is inserted
/// and deleted again); `all_dead` has none (its one version is deleted), so
/// its fact rows must drop out although the index still holds the key.
fn age_date_keys(db: &mut Database, first_dead: i64, second_dead: i64, all_dead: i64) {
    let copy_of = |db: &Database, key: i64, year: i64| -> (u32, Vec<Value>) {
        let t = db.table("date").unwrap().table();
        let (k, y) = (
            t.schema().col("d_datekey").unwrap(),
            t.schema().col("d_year").unwrap(),
        );
        let rid = (0..t.row_count() as u32)
            .find(|&rid| t.value(rid, k) == Value::Int(key))
            .expect("date key exists");
        let mut row: Vec<Value> = (0..t.schema().width()).map(|c| t.value(rid, c)).collect();
        row[y] = Value::Int(year);
        (rid, row)
    };
    let (old, moved) = copy_of(db, first_dead, 1992);
    db.delete_row("date", old).unwrap();
    db.insert_row("date", &moved).unwrap();
    let (_, ghost) = copy_of(db, second_dead, 1998);
    let (ghost_rid, _) = db.insert_row("date", &ghost).unwrap();
    db.delete_row("date", ghost_rid).unwrap();
    let (gone, _) = copy_of(db, all_dead, 1992);
    db.delete_row("date", gone).unwrap();
}

#[test]
fn random_stars_in_every_dimension_order_match_the_reference() {
    let mut rng = Rng::new(0x5EED_0018);
    let mut shapes = vec![
        dead_supplier(),
        base_date(),
        sparse_date(),
        residual_filters(),
    ];
    for (id, ndims) in [1, 2, 3, 3, 4].into_iter().enumerate() {
        shapes.push(random_spec(&mut rng, id, ndims));
    }
    // The FK arm for sure: a random 3-way star filtered on one of its own
    // dimensions' FK column.
    let mut fk_residual = random_spec(&mut rng, 5, 3);
    let fk = fk_residual.dims[rng.below(3) as usize].fact_col.clone();
    fk_residual.fact_predicates = vec![fk_range(&mut rng, &fk)];
    shapes.push(fk_residual);

    let mut ssb = SsbDb::generate(0.01, 18);
    for q in shapes.iter().flat_map(dim_orders) {
        for select_join in [true, false] {
            let opts = PlanOptions::default().with_select_join(select_join);
            prepare_indexes(&mut ssb.db, &q, &opts).unwrap();
        }
    }
    // After the builds, so index maintenance files the new versions behind
    // the old ones.
    age_date_keys(&mut ssb.db, 19940315, 19950720, 19970610);
    let db = Arc::new(ssb.db);
    let snap = db.snapshot();
    let (_, stats) = QpptEngine::new(&db)
        .run_with_stats(&sparse_date(), &PlanOptions::default())
        .unwrap();
    let sigma_kinds: Vec<(&str, &str)> = stats
        .ops
        .iter()
        .filter(|op| op.label.starts_with("σ("))
        .map(|op| (op.label.as_str(), op.index_kind.as_str()))
        .collect();
    assert_eq!(
        sigma_kinds,
        vec![
            ("σ(supplier) → idx on s_suppkey", "Dense"),
            ("σ(date) → idx on d_datekey", "KISS-Tree")
        ],
        "the sparse date σ stays a tree"
    );
    let pool = WorkerPool::new(2, 8);
    let engine = PooledEngine::new(db.clone(), pool.clone());

    let mut runs = 0;
    for shape in &shapes {
        let expect = run_reference(&db, shape, snap).unwrap().canonicalized();
        if shape.id == "dead-supplier" {
            assert!(expect.rows.is_empty(), "no supplier passes");
        }
        for q in dim_orders(shape) {
            let order: Vec<&str> = q.dims.iter().map(|d| d.table.as_str()).collect();
            // One stage per dimension (`max_join_ways = 2`) rides on one
            // buffer size; the rest of the grid is the one-stage plan.
            for (join_buffer, max_join_ways) in [(1, 5), (64, 5), (64, 2), (512, 5)] {
                for select_join in [true, false] {
                    for parallelism in [1, 3] {
                        let opts = PlanOptions::default()
                            .with_join_buffer(join_buffer)
                            .with_max_join_ways(max_join_ways)
                            .with_select_join(select_join)
                            .with_parallelism(parallelism);
                        let got = engine.run(&q, &opts).unwrap().canonicalized();
                        assert_eq!(got, expect, "{} as {order:?} under {opts:?}", q.id);
                        runs += 1;
                    }
                }
            }
        }
    }
    // 1 + 2 + 6 + 6 + 24 + 6 orders of the random shapes, 6 + 6 + 6 + 6
    // of the others; 4 buffer/width settings × fused/non-fused × 2
    // parallelisms.
    assert_eq!(runs, (45 + 24) * 16);
    pool.shutdown();
}

/// Byte identity whatever the grant: three callers on a pool of two, all
/// at `parallelism = 2`, run the 13 SSB queries and a seeded sample of
/// random star shapes. The first caller runs alone at first (granted two
/// cores), the other two join it for one round (so the grants drop to one
/// core, and some parallel jobs overlap queries run alone), and it
/// finishes alone again. Every answer must equal the reference executor's,
/// and every σ and join-group record (up to its time) the sequential
/// run's.
#[test]
fn concurrent_callers_match_the_reference_whatever_the_grant() {
    let mut rng = Rng::new(0x5EED_0045);
    let mut shapes = qppt_ssb::queries::all_queries();
    shapes.extend([dead_supplier(), sparse_date(), residual_filters()]);
    for (id, ndims) in [2, 3, 4, 4].into_iter().enumerate() {
        shapes.push(random_spec(&mut rng, 100 + id, ndims));
    }
    let opts = PlanOptions::default().with_parallelism(2);
    let mut ssb = SsbDb::generate(0.01, 45);
    for q in &shapes {
        prepare_indexes(&mut ssb.db, q, &opts).unwrap();
    }
    let db = Arc::new(ssb.db);
    let snap = db.snapshot();
    // The σ and join-group records, up to their time.
    let records = |stats: &qppt_core::ExecStats| -> Vec<qppt_core::OpStats> {
        stats
            .ops
            .iter()
            .filter(|o| o.label.starts_with('σ') || o.label.ends_with("join-group"))
            .map(|o| qppt_core::OpStats {
                micros: 0,
                ..o.clone()
            })
            .collect()
    };
    let expected: Vec<_> = shapes
        .iter()
        .map(|q| {
            let reference = run_reference(&db, q, snap).unwrap().canonicalized();
            let (_, stats) = QpptEngine::new(&db)
                .run_with_stats(q, &PlanOptions::default())
                .unwrap();
            (reference, records(&stats))
        })
        .collect();
    let pool = WorkerPool::new(2, 8);
    let engine = PooledEngine::new(db.clone(), pool.clone());
    // The round the first caller is in; the others start with its second.
    let lead_round = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|s| {
        for caller in 0..3 {
            let (engine, shapes, expected, records) = (&engine, &shapes, &expected, &records);
            let lead_round = &lead_round;
            s.spawn(move || {
                let rounds = if caller == 0 { 0..4 } else { 1..2 };
                for round in rounds {
                    if caller == 0 {
                        lead_round.store(round, std::sync::atomic::Ordering::SeqCst);
                    }
                    while lead_round.load(std::sync::atomic::Ordering::SeqCst) < round {
                        std::thread::yield_now();
                    }
                    // Each caller walks the shapes from its own offset, so
                    // different queries overlap.
                    for k in 0..shapes.len() {
                        let i = (k + caller * 5 + round) % shapes.len();
                        let (got, stats) = engine.run_with_stats(&shapes[i], &opts).unwrap();
                        let at = format!("{} (caller {caller}, round {round})", shapes[i].id);
                        assert_eq!(got.canonicalized(), expected[i].0, "{at}");
                        assert_eq!(records(&stats), expected[i].1, "{at}");
                    }
                }
            });
        }
    });
    pool.shutdown();
}
