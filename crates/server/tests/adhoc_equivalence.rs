//! The ad-hoc frontend's equivalence contract:
//!
//! * every named SSB query, pretty-printed into the query language and
//!   parsed back, has the same structural fingerprint and produces
//!   byte-identical results through the ad-hoc path (parallelism 1 and 4,
//!   cache on and off) — names really are just aliases;
//! * an ad-hoc query whose σ matches a named query's dimension selection
//!   hits the cache's dimension tier the named query warmed (exact
//!   counters);
//! * malformed ad-hoc specs fail with structured `ERR` lines, and the
//!   connection keeps serving.

use std::sync::Arc;

use qppt_core::{fingerprint_spec, PlanOptions, QpptEngine};
use qppt_par::WorkerPool;
use qppt_server::{serve, ClientError, QpptClient, ServeEngine};
use qppt_ssb::queries;

fn started() -> (Arc<ServeEngine>, Arc<WorkerPool>) {
    let pool = WorkerPool::new(2, 8);
    let defaults = PlanOptions::default().with_parallelism(2);
    let engine =
        Arc::new(ServeEngine::with_ssb(0.01, 42, pool.clone(), defaults).expect("SSB prepares"));
    (engine, pool)
}

#[test]
fn all_13_printed_queries_match_the_named_path() {
    let (engine, pool) = started();
    for spec in queries::all_queries() {
        let name = spec.id.to_ascii_lowercase();
        let text = qppt_query::print(&spec);
        let parsed = qppt_query::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}\n{text}"));
        assert_eq!(parsed, spec, "{name}: lossless round-trip");
        assert_eq!(
            fingerprint_spec(&parsed),
            fingerprint_spec(&spec),
            "{name}: fingerprints must coincide"
        );
        for par in [1usize, 4] {
            let opts = engine.defaults().with_parallelism(par);
            // cache=off on both sides: two genuinely independent runs.
            let (named, _) = engine.run_cached(&name, &opts, 0, false).expect(&name);
            let (adhoc, _) = engine.run_spec(&parsed, &opts, 0, false).expect(&name);
            assert_eq!(adhoc, named, "{name} diverged at parallelism {par}");
        }
    }

    // With the cache on, the converged pipeline means an ad-hoc re-submission
    // of a named query's text is a *result-tier hit* on the named entry:
    // same structure → same fingerprint, whatever the id label says.
    let opts = engine.defaults();
    engine.run("q2.3", &opts, 0).expect("named run");
    let before = engine.cache_stats().results;
    let mut resubmitted = queries::q2_3();
    resubmitted.id = "something-else".into();
    let text = qppt_query::print(&resubmitted);
    let parsed = qppt_query::parse(&text).unwrap();
    let (adhoc, _) = engine.run_spec(&parsed, &opts, 0, true).unwrap();
    let after = engine.cache_stats().results;
    assert_eq!(
        after.hits - before.hits,
        1,
        "ad-hoc text must hit the named result entry"
    );
    let oracle = QpptEngine::new(engine.pooled().db())
        .run(&queries::q2_3(), &PlanOptions::default())
        .unwrap();
    assert_eq!(adhoc, oracle);
    pool.shutdown();
}

#[test]
fn adhoc_query_over_tcp_matches_named_run() {
    let (engine, pool) = started();
    let server = serve(engine.clone(), "127.0.0.1:0").expect("bind");
    let mut client = QpptClient::connect(server.addr()).expect("connect");

    for spec in [queries::q1_2(), queries::q3_3(), queries::q4_2()] {
        let name = spec.id.to_ascii_lowercase();
        let text = qppt_query::print(&spec);
        let named = client.run(&name, &[("cache", "off")]).expect(&name);
        let adhoc = client
            .query(&text, &[("cache", "off"), ("parallelism", "2")])
            .expect(&name);
        assert_eq!(adhoc.result, named.result, "{name} over TCP");
    }

    // Inline EXPLAIN renders the same plan as the named alias.
    let named_plan = client.explain("q2.3").expect("named explain");
    let inline_plan = client
        .explain_query(&qppt_query::print(&queries::q2_3()))
        .expect("inline explain");
    assert_eq!(inline_plan, named_plan);

    server.stop();
    pool.shutdown();
}

/// An ad-hoc query in q3.1's σ family: different query (no customer dim,
/// different group/order), same date selection `d_year BETWEEN 1992 AND
/// 1997` carrying `d_year` — it must compose the σ the named query
/// materialized instead of building its own.
const ASIA_BY_NATION_YEAR: &str = "fact=lineorder \
     dim=supplier[join=s_suppkey:lo_suppkey;s_region='ASIA';carry=s_nation] \
     dim=date[join=d_datekey:lo_orderdate;d_year between 1992 and 1997;carry=d_year] \
     agg=sum(lo_revenue):revenue group=supplier.s_nation,date.d_year \
     order=group:1,agg:0:desc id=asia-by-nation-year";

#[test]
fn adhoc_query_hits_dim_tier_warmed_by_named_family() {
    let (engine, pool) = started();
    let opts = engine.defaults();

    // The named family lead materializes its σ set (customer is fused;
    // supplier and date σ land in the dimension tier).
    engine.run("q3.1", &opts, 0).expect("named lead");
    let before = engine.cache_stats().dims;

    let spec = qppt_query::parse(ASIA_BY_NATION_YEAR).expect("family member parses");
    let (result, stats) = engine.run_spec(&spec, &opts, 0, true).expect("ad-hoc run");
    let after = engine.cache_stats().dims;

    // Exactly one σ lookup (the date dim; supplier is fused here), and it
    // is a *hit* on the entry q3.1 built — nothing new is materialized.
    assert_eq!(after.hits - before.hits, 1, "date σ must be shared");
    assert_eq!(after.misses - before.misses, 0);
    assert_eq!(after.insertions - before.insertions, 0, "no σ built");
    assert!(
        stats
            .ops
            .iter()
            .any(|op| op.label.contains("dims 1 shared / 0 built")),
        "assembly stats must surface the share: {:?}",
        stats.ops.iter().map(|o| &o.label).collect::<Vec<_>>()
    );

    // And sharing never bends correctness: byte-identical to a fresh
    // sequential run of the same spec.
    let oracle = QpptEngine::new(engine.pooled().db())
        .run(&spec, &PlanOptions::default())
        .unwrap();
    assert_eq!(result, oracle);
    assert!(
        !result.rows.is_empty(),
        "the family query has rows at sf 0.01"
    );

    // The mirror direction: with the σ now hot, the *named* family members
    // keep sharing it too (q3.2 shares only the date σ with q3.1).
    let b2 = engine.cache_stats().dims;
    engine.run("q3.2", &opts, 0).expect("named follower");
    let a2 = engine.cache_stats().dims;
    assert_eq!(a2.hits - b2.hits, 1, "q3.2's date σ comes from the tier");
    pool.shutdown();
}

#[test]
fn malformed_adhoc_specs_error_structurally_over_tcp() {
    let (engine, pool) = started();
    let server = serve(engine, "127.0.0.1:0").expect("bind");
    let mut client = QpptClient::connect(server.addr()).expect("connect");

    let cases: &[(&str, &str)] = &[
        // Grammar errors (rejected by the parser).
        ("fact=lineorder agg=nope", "bad aggregate"),
        ("fact=lineorder dim=date[d_year=1993]", "join="),
        // Catalog errors (rejected by the validate pass as PlanErrors).
        (
            "fact=nosuch dim=date[join=d_datekey:lo_orderdate] agg=sum(lo_revenue):r",
            "unknown table",
        ),
        (
            "fact=lineorder dim=date[join=d_datekey:lo_orderdate;d_frob=1] \
             agg=sum(lo_revenue):r",
            "no column",
        ),
        (
            "fact=lineorder dim=date[join=d_datekey:lo_orderdate;d_year='x'] \
             agg=sum(lo_revenue):r",
            "uses it as",
        ),
        (
            "fact=lineorder dim=date[join=d_datekey:lo_orderdate] \
             agg=sum(lo_revenue):r order=group:5",
            "out of range",
        ),
        (
            "fact=lineorder dim=date[join=d_datekey:lo_orderdate;carry=d_year] \
             agg=sum(lo_revenue):r group=date.d_month",
            "carry=",
        ),
        // A predicate column the startup preparation never indexed: the
        // typed PlanError of the index check, before any σ is built — not
        // the storage error a materialization would hit later.
        (
            "fact=lineorder dim=part[join=p_partkey:lo_partkey;p_size=7] \
             agg=sum(lo_revenue):r",
            "invalid query: no base index on part.p_size",
        ),
        // No dims / no aggs are typed errors, not planner panics.
        ("fact=lineorder agg=sum(lo_revenue):r", "dim="),
        (
            "fact=lineorder dim=date[join=d_datekey:lo_orderdate]",
            "agg=",
        ),
    ];
    for (text, want) in cases {
        match client.query(text, &[]) {
            Err(ClientError::Server(msg)) => assert!(
                msg.contains(want),
                "{text:?}: ERR {msg:?} does not mention {want:?}"
            ),
            other => panic!("{text:?}: want structured ERR, got {other:?}"),
        }
    }

    // The connection survived all of it and still serves ad-hoc queries.
    let served = client
        .query(ASIA_BY_NATION_YEAR, &[])
        .expect("good query after errors");
    assert!(!served.result.rows.is_empty());

    server.stop();
    pool.shutdown();
}
