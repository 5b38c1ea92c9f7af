//! End-to-end correctness: the QPPT engine must produce exactly the same
//! results as the reference oracle for every SSB query, under every plan
//! option combination — composed operators are pure optimizations.

use qppt_core::{prepare_indexes, PlanOptions, QpptEngine};
use qppt_ssb::{queries, run_reference, SsbDb};
use qppt_storage::QueryResult;

fn prepared_db(sf: f64, seed: u64, opts: &PlanOptions) -> SsbDb {
    let mut ssb = SsbDb::generate(sf, seed);
    for q in queries::all_queries() {
        prepare_indexes(&mut ssb.db, &q, opts).unwrap();
    }
    ssb
}

fn assert_same(a: &QueryResult, b: &QueryResult, ctx: &str) {
    let ca = a.clone().canonicalized();
    let cb = b.clone().canonicalized();
    assert_eq!(ca.rows.len(), cb.rows.len(), "{ctx}: row counts differ");
    assert_eq!(ca, cb, "{ctx}: results differ");
}

#[test]
fn all_queries_match_reference_default_options() {
    let opts = PlanOptions::default();
    let ssb = prepared_db(0.05, 42, &opts);
    let snap = ssb.db.snapshot();
    let engine = QpptEngine::new(&ssb.db);
    // City- and nation-level Q3/Q4 drill-downs can be legitimately empty at
    // tiny scale factors (only `SF × 2000` suppliers exist); equality with
    // the oracle is asserted for all, non-emptiness where scale permits.
    let must_be_nonempty = [
        "Q1.1", "Q1.2", "Q1.3", "Q2.1", "Q2.2", "Q2.3", "Q3.1", "Q4.1", "Q4.2",
    ];
    for q in queries::all_queries() {
        let expect = run_reference(&ssb.db, &q, snap).unwrap();
        let got = engine.run(&q, &opts).unwrap();
        assert_same(&got, &expect, &q.id);
        if must_be_nonempty.contains(&q.id.as_str()) {
            assert!(!got.rows.is_empty(), "{}: query selects something", q.id);
        }
    }
}

/// Every dimension selection σ of the 13 named queries at sf 0.01 is built
/// as the one-level dense index: its unique keys span a compact range (Q3.3's
/// and Q3.4's supplier σs are empty at this scale, which is dense too). This
/// pins the choice rule: a regression in it would change no answer, only
/// cost the join stages their σ filters.
#[test]
fn every_selection_of_the_named_queries_is_dense() {
    let opts = PlanOptions::default();
    let ssb = prepared_db(0.01, 42, &opts);
    let engine = QpptEngine::new(&ssb.db);
    let mut sigmas = 0;
    for q in queries::all_queries() {
        let (_, stats) = engine.run_with_stats(&q, &opts).unwrap();
        let dims = stats
            .ops
            .iter()
            .filter(|op| op.label.starts_with("σ(") && !op.label.starts_with("σ(fact"));
        for op in dims {
            assert_eq!(op.index_kind, "Dense", "{}: {}", q.id, op.label);
            sigmas += 1;
        }
    }
    assert_eq!(sigmas, 19, "σs of the 13 queries");
}

#[test]
fn city_in_lists_match_reference_with_rows() {
    // A Q3.3 variant over all ten cities of two nations, so the InSet × InSet
    // path is exercised with a non-empty result even at small scale.
    let mut q = queries::q3_3();
    let uk_cities: Vec<qppt_storage::Value> = (0..10)
        .map(|d| qppt_storage::Value::Str(format!("UNITED KI{d}")))
        .collect();
    let us_cities: Vec<qppt_storage::Value> = (0..10)
        .map(|d| qppt_storage::Value::Str(format!("UNITED ST{d}")))
        .collect();
    q.dims[0].predicates = vec![qppt_storage::Predicate::is_in(
        "c_city",
        [uk_cities.clone(), us_cities.clone()].concat(),
    )];
    q.dims[1].predicates = vec![qppt_storage::Predicate::is_in(
        "s_city",
        [uk_cities, us_cities].concat(),
    )];
    q.id = "Q3.3-wide".into();

    let opts = PlanOptions::default();
    let mut ssb = SsbDb::generate(0.05, 42);
    prepare_indexes(&mut ssb.db, &q, &opts).unwrap();
    let snap = ssb.db.snapshot();
    let engine = QpptEngine::new(&ssb.db);
    let expect = run_reference(&ssb.db, &q, snap).unwrap();
    let got = engine.run(&q, &opts).unwrap();
    assert_same(&got, &expect, "Q3.3-wide");
    assert!(
        !got.rows.is_empty(),
        "wide city lists select rows at SF 0.05"
    );
}

#[test]
fn select_join_on_off_agree() {
    let on = PlanOptions::default().with_select_join(true);
    let off = PlanOptions::default().with_select_join(false);
    let mut ssb = SsbDb::generate(0.01, 7);
    for q in queries::all_queries() {
        prepare_indexes(&mut ssb.db, &q, &on).unwrap();
        prepare_indexes(&mut ssb.db, &q, &off).unwrap();
    }
    let engine = QpptEngine::new(&ssb.db);
    for q in queries::all_queries() {
        let a = engine.run(&q, &on).unwrap();
        let b = engine.run(&q, &off).unwrap();
        assert_same(&a, &b, &format!("{} select-join on/off", q.id));
    }
}

#[test]
fn all_join_buffer_sizes_agree() {
    let base = PlanOptions::default();
    let ssb = prepared_db(0.01, 11, &base);
    let engine = QpptEngine::new(&ssb.db);
    for q in [queries::q2_3(), queries::q4_1(), queries::q1_1()] {
        let reference = engine.run(&q, &base.with_join_buffer(1)).unwrap();
        for buf in PlanOptions::JOIN_BUFFER_CHOICES {
            let got = engine.run(&q, &base.with_join_buffer(buf)).unwrap();
            assert_same(&got, &reference, &format!("{} join_buffer={buf}", q.id));
        }
    }
}

#[test]
fn all_join_way_limits_agree() {
    let base = PlanOptions::default();
    let ssb = prepared_db(0.01, 13, &base);
    let snap = ssb.db.snapshot();
    let engine = QpptEngine::new(&ssb.db);
    for q in [
        queries::q4_1(),
        queries::q4_2(),
        queries::q3_1(),
        queries::q2_3(),
    ] {
        let expect = run_reference(&ssb.db, &q, snap).unwrap();
        for ways in 2..=5 {
            let got = engine.run(&q, &base.with_max_join_ways(ways)).unwrap();
            assert_same(&got, &expect, &format!("{} max_ways={ways}", q.id));
        }
    }
}

#[test]
fn prefix_tree_only_agrees_with_kiss() {
    let kiss = PlanOptions::default();
    let pt = PlanOptions::default().with_prefer_kiss(false);
    let mut ssb = SsbDb::generate(0.01, 17);
    for q in queries::all_queries() {
        prepare_indexes(&mut ssb.db, &q, &kiss).unwrap();
    }
    // Rebuild indexes as prefix trees in a second database.
    let mut ssb_pt = SsbDb::generate(0.01, 17);
    for q in queries::all_queries() {
        prepare_indexes(&mut ssb_pt.db, &q, &pt).unwrap();
    }
    let ek = QpptEngine::new(&ssb.db);
    let ep = QpptEngine::new(&ssb_pt.db);
    for q in queries::all_queries() {
        let a = ek.run(&q, &kiss).unwrap();
        let b = ep.run(&q, &pt).unwrap();
        assert_same(&a, &b, &format!("{} kiss vs pt", q.id));
    }
}

#[test]
fn set_op_selections_agree() {
    // Q1.3 (two date predicates) and Q3.x exercise the intersect path.
    let plain = PlanOptions::default();
    let setops = PlanOptions::default().with_set_ops(true);
    let mut ssb = SsbDb::generate(0.01, 19);
    for q in queries::all_queries() {
        prepare_indexes(&mut ssb.db, &q, &plain).unwrap();
        prepare_indexes(&mut ssb.db, &q, &setops).unwrap();
    }
    let engine = QpptEngine::new(&ssb.db);
    for q in queries::all_queries() {
        let a = engine.run(&q, &plain).unwrap();
        let b = engine.run(&q, &setops).unwrap();
        assert_same(&a, &b, &format!("{} set-ops", q.id));
    }
}

#[test]
fn multidim_selections_agree() {
    // Q1.3 (d_weeknuminyear = 6 AND d_year = 1994) collapses into a point
    // lookup on a (weeknum, year) composite index; Q3.x date predicates are
    // single-column and stay on the normal path — results must be identical
    // either way.
    let plain = PlanOptions::default();
    let multidim = PlanOptions::default().with_multidim(true);
    let mut ssb = SsbDb::generate(0.01, 29);
    for q in queries::all_queries() {
        prepare_indexes(&mut ssb.db, &q, &plain).unwrap();
        prepare_indexes(&mut ssb.db, &q, &multidim).unwrap();
    }
    let engine = QpptEngine::new(&ssb.db);
    for q in queries::all_queries() {
        let a = engine.run(&q, &plain).unwrap();
        let b = engine.run(&q, &multidim).unwrap();
        assert_same(&a, &b, &format!("{} multidim", q.id));
    }
    // The Q1.3 plan really uses the multidimensional index.
    let explain = engine.explain(&queries::q1_3(), &multidim).unwrap();
    assert!(
        explain.contains("multidim") || multidim.select_join,
        "{explain}"
    );
    let explain_plain = engine
        .explain(&queries::q1_3(), &multidim.with_select_join(false))
        .unwrap();
    assert!(
        explain_plain.contains("via multidim index"),
        "{explain_plain}"
    );
}

#[test]
fn multidim_with_trailing_range_predicate() {
    // Custom query: d_year = 1993 AND d_weeknuminyear BETWEEN 4 AND 9 —
    // leading equality, trailing range, the other eligible shape.
    let mut q = queries::q1_1();
    q.id = "Q1.1-week-range".into();
    q.dims[0].predicates = vec![
        qppt_storage::Predicate::eq("d_year", 1993i64),
        qppt_storage::Predicate::between("d_weeknuminyear", 4i64, 9i64),
    ];
    let plain = PlanOptions::default();
    let multidim = PlanOptions::default().with_multidim(true);
    let mut ssb = SsbDb::generate(0.01, 30);
    prepare_indexes(&mut ssb.db, &q, &plain).unwrap();
    prepare_indexes(&mut ssb.db, &q, &multidim).unwrap();
    let snap = ssb.db.snapshot();
    let engine = QpptEngine::new(&ssb.db);
    let oracle = run_reference(&ssb.db, &q, snap).unwrap();
    assert_same(&engine.run(&q, &plain).unwrap(), &oracle, "plain");
    assert_same(&engine.run(&q, &multidim).unwrap(), &oracle, "multidim");
    assert!(!oracle.rows.is_empty());
}

/// Appends a copy of row 0 of `table` with the given Int columns replaced.
fn insert_copy(ssb: &mut SsbDb, table: &str, set: &[(&str, i64)]) {
    let t = ssb.db.table(table).unwrap().table();
    let mut row: Vec<qppt_storage::Value> =
        (0..t.schema().width()).map(|c| t.value(0, c)).collect();
    for &(col, v) in set {
        row[t.schema().col(col).unwrap()] = qppt_storage::Value::Int(v);
    }
    ssb.db.insert_row(table, &row).unwrap();
}

#[test]
fn insert_outgrowing_a_multidim_key_part_is_found_not_aliased() {
    // d_year tops out at 1998 (11 bits); a 2050 date needs 12. Index
    // maintenance must not file the row under 2050 & 2047 = 2: a multidim
    // selection runs no residual predicates that would catch the alias.
    // Year is the trailing key part in the first shape (no spare bits →
    // the index is rebuilt) and the leading one in the second.
    let shapes = |year: i64| {
        let mut by_week = queries::q1_3();
        by_week.fact_predicates.clear();
        by_week.dims[0].predicates = vec![
            qppt_storage::Predicate::eq("d_weeknuminyear", 6i64),
            qppt_storage::Predicate::eq("d_year", year),
        ];
        let mut by_year = by_week.clone();
        by_year.dims[0].predicates = vec![
            qppt_storage::Predicate::eq("d_year", year),
            qppt_storage::Predicate::between("d_weeknuminyear", 4i64, 9i64),
        ];
        [by_week, by_year]
    };
    let plain = PlanOptions::default();
    let multidim = PlanOptions::default().with_multidim(true);
    let mut ssb = SsbDb::generate(0.01, 31);
    // The indexes exist (built for in-domain constants) before the insert.
    for q in &shapes(1994) {
        prepare_indexes(&mut ssb.db, q, &plain).unwrap();
        prepare_indexes(&mut ssb.db, q, &multidim).unwrap();
    }
    let new_date = [
        ("d_datekey", 20500207),
        ("d_year", 2050),
        ("d_weeknuminyear", 6),
    ];
    insert_copy(&mut ssb, "date", &new_date);
    insert_copy(&mut ssb, "lineorder", &[("lo_orderdate", 20500207)]);
    let snap = ssb.db.snapshot();
    let engine = QpptEngine::new(&ssb.db);
    for q in &shapes(2050) {
        let oracle = run_reference(&ssb.db, q, snap).unwrap();
        assert!(
            oracle.rows[0].agg_values[0] > 0,
            "the inserted order is selected"
        );
        for opts in [plain, multidim, multidim.with_select_join(false)] {
            assert_same(
                &engine.run(q, &opts).unwrap(),
                &oracle,
                &format!("{opts:?}"),
            );
        }
    }
}

#[test]
fn insert_beyond_32_bits_is_found_not_truncated() {
    // A KISS-Tree holds 32-bit keys: a key one bit wider must move the
    // index to a 64-bit prefix tree, not truncate (release) or abort
    // (debug; and the 32-bit prefix tree in either profile). Both the
    // dimension's selection index (d_year) and the fact index
    // (lo_orderdate) outgrow their structure here.
    let (year, datekey) = ((1i64 << 32) + 1993, (1i64 << 32) + 7);
    let mut q = queries::q1_1();
    q.fact_predicates.clear();
    q.dims[0].predicates = vec![qppt_storage::Predicate::eq("d_year", year)];
    for opts in [
        PlanOptions::default(),
        PlanOptions::default().with_prefer_kiss(false),
        PlanOptions::default().with_select_join(false),
    ] {
        let mut ssb = SsbDb::generate(0.01, 32);
        prepare_indexes(&mut ssb.db, &q, &opts).unwrap();
        let fact_index = |ssb: &SsbDb| {
            let idx = ssb.db.find_index("lineorder", "lo_orderdate").unwrap();
            idx.data.index.kind_name()
        };
        assert_ne!(fact_index(&ssb), "PrefixTree<64>");
        insert_copy(
            &mut ssb,
            "date",
            &[("d_datekey", datekey), ("d_year", year)],
        );
        insert_copy(&mut ssb, "lineorder", &[("lo_orderdate", datekey)]);
        assert_eq!(fact_index(&ssb), "PrefixTree<64>");
        let snap = ssb.db.snapshot();
        let oracle = run_reference(&ssb.db, &q, snap).unwrap();
        assert!(
            oracle.rows[0].agg_values[0] > 0,
            "the inserted order is selected"
        );
        let got = QpptEngine::new(&ssb.db).run(&q, &opts).unwrap();
        assert_same(&got, &oracle, &format!("{opts:?}"));
    }
}

#[test]
fn results_are_ordered_as_specified() {
    let opts = PlanOptions::default();
    let ssb = prepared_db(0.02, 23, &opts);
    let engine = QpptEngine::new(&ssb.db);
    // Q2.1: order by d_year, p_brand1 — group-key order.
    let r = engine.run(&queries::q2_1(), &opts).unwrap();
    assert!(!r.rows.is_empty());
    for w in r.rows.windows(2) {
        assert!(w[0].key_values <= w[1].key_values);
    }
    // Q3.1: order by d_year asc, revenue desc.
    let r = engine.run(&queries::q3_1(), &opts).unwrap();
    for w in r.rows.windows(2) {
        let (a, b) = (&w[0], &w[1]);
        let (ya, yb) = (a.key_values[2].as_int(), b.key_values[2].as_int());
        assert!(ya < yb || (ya == yb && a.agg_values[0] >= b.agg_values[0]));
    }
}

#[test]
fn mvcc_snapshot_isolation_through_the_engine() {
    let opts = PlanOptions::default();
    let mut ssb = SsbDb::generate(0.01, 31);
    let q = queries::q1_1();
    // Q3.1 tests its fact rows against the dense customer and supplier
    // σs: at a snapshot that hides appended rows, the scan runs its
    // visibility pass ahead of the filter passes.
    let filtered = queries::q3_1();
    for spec in [&q, &filtered] {
        prepare_indexes(&mut ssb.db, spec, &opts).unwrap();
    }

    let before = ssb.db.snapshot();
    let engine = QpptEngine::new(&ssb.db);
    let (r_before, _) = engine.run_at(&q, &opts, before).unwrap();
    let (f_before, _) = engine.run_at(&filtered, &opts, before).unwrap();

    // Insert a row that matches Q1.1 (1993 orderdate, discount 2, qty 10).
    let ship = {
        let lo = ssb.db.table("lineorder").unwrap().table();
        lo.value(0, lo.schema().col("lo_shipmode").unwrap())
    };
    ssb.db
        .insert_row(
            "lineorder",
            &[
                qppt_storage::Value::Int(888_888),
                qppt_storage::Value::Int(1),
                qppt_storage::Value::Int(1),
                qppt_storage::Value::Int(1),
                qppt_storage::Value::Int(1),
                qppt_storage::Value::Int(19930615),
                qppt_storage::Value::Int(10),
                qppt_storage::Value::Int(5000),
                qppt_storage::Value::Int(5000),
                qppt_storage::Value::Int(2),
                qppt_storage::Value::Int(4900),
                qppt_storage::Value::Int(300),
                qppt_storage::Value::Int(0),
                ship,
            ],
        )
        .unwrap();
    // Two rows that match Q3.1: an ASIA customer and supplier, 1993.
    let key_in_asia = |table: &str, key: &str, region: &str| {
        let t = ssb.db.table(table).unwrap().table();
        let (k, r) = (
            t.schema().col(key).unwrap(),
            t.schema().col(region).unwrap(),
        );
        let rid = (0..t.row_count() as u32)
            .find(|&rid| t.value(rid, r) == qppt_storage::Value::str("ASIA"))
            .expect("an ASIA row");
        t.value(rid, k)
    };
    let (cust, supp) = (
        key_in_asia("customer", "c_custkey", "c_region"),
        key_in_asia("supplier", "s_suppkey", "s_region"),
    );
    for (line, revenue) in [(1, 7_000), (2, 11_000)] {
        let row = {
            let lo = ssb.db.table("lineorder").unwrap().table();
            let col = |c: &str| lo.schema().col(c).unwrap();
            let mut row: Vec<_> = (0..lo.schema().width()).map(|c| lo.value(0, c)).collect();
            row[col("lo_orderkey")] = qppt_storage::Value::Int(888_889);
            row[col("lo_linenumber")] = qppt_storage::Value::Int(line);
            row[col("lo_custkey")] = cust.clone();
            row[col("lo_suppkey")] = supp.clone();
            row[col("lo_orderdate")] = qppt_storage::Value::Int(19930615);
            row[col("lo_revenue")] = qppt_storage::Value::Int(revenue);
            row
        };
        ssb.db.insert_row("lineorder", &row).unwrap();
    }
    let after = ssb.db.snapshot();

    let engine = QpptEngine::new(&ssb.db);
    let (f_old, _) = engine.run_at(&filtered, &opts, before).unwrap();
    let (f_new, _) = engine.run_at(&filtered, &opts, after).unwrap();
    assert_eq!(f_old, f_before, "old snapshot unchanged after insert");
    assert!(!f_old.rows.is_empty());
    assert_ne!(f_new, f_old, "new snapshot sees the inserted tuples");
    for (got, snap) in [(f_old, before), (f_new, after)] {
        let expect = run_reference(&ssb.db, &filtered, snap).unwrap();
        assert_eq!(got.canonicalized(), expect.canonicalized());
    }
    let (r_old, _) = engine.run_at(&q, &opts, before).unwrap();
    let (r_new, _) = engine.run_at(&q, &opts, after).unwrap();
    assert_eq!(r_old, r_before, "old snapshot unchanged after insert");
    assert_eq!(
        r_new.rows[0].agg_values[0],
        r_before.rows[0].agg_values[0] + 5000 * 2,
        "new snapshot sees the inserted tuple"
    );
    // And the reference oracle agrees at both snapshots.
    let ref_new = run_reference(&ssb.db, &q, after).unwrap();
    assert_eq!(r_new.rows[0].agg_values, ref_new.rows[0].agg_values);
}

#[test]
fn explain_renders_plan_shapes() {
    let opts = PlanOptions::default();
    let ssb = prepared_db(0.01, 3, &opts);
    let engine = QpptEngine::new(&ssb.db);
    let fused = engine.explain(&queries::q2_3(), &opts).unwrap();
    assert!(fused.contains("select-join"), "{fused}");
    assert!(fused.contains("star join"), "{fused}");
    let plain = engine
        .explain(&queries::q2_3(), &opts.with_select_join(false))
        .unwrap();
    assert!(plain.contains("σ("), "{plain}");
    let two_way = engine
        .explain(&queries::q4_1(), &opts.with_max_join_ways(2))
        .unwrap();
    assert!(two_way.matches("stage").count() >= 4, "{two_way}");
}
