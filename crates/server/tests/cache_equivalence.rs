//! The caching contract, end to end:
//!
//! * all 13 SSB queries are **byte-identical** with the cache (dimension
//!   tier included) on vs off (cold fill, warm result hits, per-request
//!   `cache=off` bypass);
//! * the dimension tier shares materialized σ **across queries**
//!   (Q3.2/Q3.3 reuse the date selection Q3.1 built) and across plan
//!   options (parallelism never splits a σ key);
//! * an MVCC write invalidates **exactly** the affected entries — queries
//!   over written tables recompute (stale results are never served),
//!   queries over untouched tables keep hitting, and of an invalidated
//!   query's dimensions only the *written* table's σ is rebuilt;
//! * `cache=off` bypasses every tier including the dimension tier, and
//!   `CACHE CLEAR dims` drops exactly that tier;
//! * 10 concurrent TCP connections sharing one cache still match the
//!   sequential engine, with exact counters, and byte-pressure eviction
//!   churn never corrupts results;
//! * on the wire, a result-tier hit — `RUN`, `QUERY` of the same spec, or
//!   traced — answers the very bytes of the cold miss that filled it, and
//!   the bytes an in-process hit renders, up to `# total_micros=`, the
//!   tier's `# op cache: …` lines and `# span` lines;
//! * `mode=partial` answers are result-tier entries too, keyed apart from
//!   full answers: a partial hit answers its miss's bytes, a write to
//!   `date` invalidates exactly the partial entries of date readers, and
//!   `mode=partial cache=off` moves no counter;
//! * an entry keeps its answer once, as rendered bytes: an in-process hit
//!   reads it back and answers exactly what the miss answered — rows,
//!   group values, aggregates (negative sums included) and operator
//!   records — in both modes, for the 13 queries and seeded ad-hoc shapes
//!   whose group values lie scattered across the dictionaries.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use qppt_cache::{CacheConfig, QueryCache};
use qppt_core::plan::DimHandleKind;
use qppt_core::{build_plan, ExecStats, OpStats, PartialAggregate, PlanOptions, QpptEngine};
use qppt_mem::Xoshiro256StarStar;
use qppt_par::WorkerPool;
use qppt_server::protocol::{
    parse_partial_status, read_partial_body, read_status, write_partial_response,
    write_run_response,
};
use qppt_server::{serve, QpptClient, ServeEngine};
use qppt_ssb::{queries, SsbDb};
use qppt_storage::{Database, Expr, Predicate, QuerySpec, Value};

/// The `# op cache: dims …` entry of one run's stats, if any.
fn dim_assembly_op(stats: &ExecStats) -> Option<&qppt_core::OpStats> {
    stats
        .ops
        .iter()
        .find(|op| op.label.starts_with("cache: dims"))
}

/// The dim-tier lookups a wire `# op cache: dims <s> shared / <b> built`
/// line reports (`s + b`), if `line` is one.
fn dim_lookups(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("cache: dims ")?;
    let (shared, rest) = rest.split_once(" shared / ")?;
    let built = rest.split_once(" built")?.0;
    Some(shared.parse::<u64>().ok()? + built.parse::<u64>().ok()?)
}

fn ssb_db(sf: f64) -> Arc<Database> {
    let mut ssb = SsbDb::generate(sf, 42);
    for q in queries::all_queries() {
        qppt_core::prepare_indexes(&mut ssb.db, &q, &PlanOptions::default()).unwrap();
    }
    Arc::new(ssb.db)
}

#[test]
fn thirteen_queries_byte_identical_cache_on_vs_off() {
    let db = ssb_db(0.01);
    let pool = WorkerPool::new(2, 8);
    let engine = ServeEngine::over_db(db.clone(), pool.clone(), PlanOptions::default(), 0.01, 42);
    let oracle = QpptEngine::new(&db);

    for parallelism in [1usize, 2] {
        let opts = PlanOptions::default().with_parallelism(parallelism);
        for q in queries::all_queries() {
            let name = q.id.to_ascii_lowercase();
            let expected = oracle.run(&q, &PlanOptions::default()).unwrap();
            // cache=off bypass, cold fill, then a warm result hit.
            let (bypass, _) = engine.run_cached(&name, &opts, 0, false).unwrap();
            let (cold, _) = engine.run_cached(&name, &opts, 0, true).unwrap();
            let (warm, warm_stats) = engine.run_cached(&name, &opts, 0, true).unwrap();
            assert_eq!(bypass, expected, "{} cache=off @ p={parallelism}", q.id);
            assert_eq!(cold, expected, "{} cold @ p={parallelism}", q.id);
            assert_eq!(warm, expected, "{} warm @ p={parallelism}", q.id);
            assert!(
                warm_stats
                    .ops
                    .iter()
                    .any(|op| op.label == "cache: result hit"),
                "{} warm run did not report a result hit",
                q.id
            );
        }
    }
    let stats = engine.cache_stats();
    // 13 queries × 2 option sets: one cold miss + one warm hit each.
    assert_eq!(stats.results.hits, 26);
    assert_eq!(stats.results.misses, 26);
    assert_eq!(stats.results.invalidations, 0);
    // Dimension tier, exact: the 13 queries contain 19 materialized σ of
    // which 14 are distinct (q3.2/q3.3 share q3.1's date range, q3.4
    // shares q3.3's supplier cities, q4.1 shares q2.1's supplier region,
    // q4.3 shares q4.2's date set). Parallelism is excluded from σ keys,
    // so the whole second option pass shares all 19.
    assert_eq!(stats.dims.misses, 14);
    assert_eq!(stats.dims.insertions, 14);
    assert_eq!(stats.dims.hits, 5 + 19);
    assert_eq!(stats.dims.invalidations, 0);
    assert_eq!(stats.dims.entries, 14);
    assert!(stats.dims.bytes > 0, "dim tier must account its bytes");
    pool.shutdown();
}

#[test]
fn shared_sigma_family_skips_materialization() {
    // The q3 family: one date σ (d_year ∈ [1992,1997], carried d_year)
    // serves q3.1, q3.2, and q3.3 — only the first query materializes it.
    let db = ssb_db(0.01);
    let pool = WorkerPool::new(2, 8);
    let engine = ServeEngine::over_db(db.clone(), pool.clone(), PlanOptions::default(), 0.01, 42);
    let oracle = QpptEngine::new(&db);
    let opts = PlanOptions::default();

    let (r31, s31) = engine.run("q3.1", &opts, 0).unwrap();
    let a31 = dim_assembly_op(&s31).expect("q3.1 assembles dims");
    assert_eq!((a31.out_keys, a31.out_tuples), (0, 2), "cold: 2 σ built");

    let (r32, s32) = engine.run("q3.2", &opts, 0).unwrap();
    let a32 = dim_assembly_op(&s32).expect("q3.2 assembles dims");
    assert_eq!(
        (a32.out_keys, a32.out_tuples),
        (1, 1),
        "q3.2 shares the date σ and builds only its supplier σ"
    );

    let (r33, s33) = engine.run("q3.3", &opts, 0).unwrap();
    let a33 = dim_assembly_op(&s33).expect("q3.3 assembles dims");
    assert_eq!((a33.out_keys, a33.out_tuples), (1, 1));

    // Same query at a different parallelism: new query fingerprint, but
    // every σ comes from the dim tier (σ keys ignore parallelism knobs).
    let par2 = PlanOptions::default().with_parallelism(2);
    let (r31p, s31p) = engine.run("q3.1", &par2, 0).unwrap();
    let a31p = dim_assembly_op(&s31p).expect("q3.1@p2 assembles dims");
    assert_eq!((a31p.out_keys, a31p.out_tuples), (2, 0), "all σ shared");

    // Everything byte-identical to fresh sequential runs.
    for (got, q) in [
        (&r31, queries::q3_1()),
        (&r32, queries::q3_2()),
        (&r33, queries::q3_3()),
        (&r31p, queries::q3_1()),
    ] {
        assert_eq!(
            got,
            &oracle.run(&q, &PlanOptions::default()).unwrap(),
            "{}",
            q.id
        );
    }

    let s = engine.cache_stats();
    assert_eq!(s.dims.hits, 4, "date σ ×2 + both q3.1 σ at p=2");
    assert_eq!(s.dims.misses, 4, "supplier ×3 + date ×1");
    assert_eq!(s.dims.entries, 4);

    // CACHE CLEAR dims drops exactly that tier: the next assembly
    // rebuilds σ, while untouched result entries keep serving.
    engine.cache_clear_dims();
    assert_eq!(engine.cache_stats().dims.entries, 0);
    assert!(engine.cache_stats().results.entries > 0);
    let (r31w, s31w) = engine.run("q3.1", &opts, 0).unwrap();
    assert_eq!(&r31w, &r31);
    assert!(
        s31w.ops.iter().any(|op| op.label == "cache: result hit"),
        "result tier unaffected by CACHE CLEAR dims"
    );
    pool.shutdown();
}

#[test]
fn cache_off_bypasses_every_tier_including_dims() {
    let db = ssb_db(0.01);
    let pool = WorkerPool::new(2, 8);
    let engine = ServeEngine::over_db(db.clone(), pool.clone(), PlanOptions::default(), 0.01, 42);
    let opts = PlanOptions::default();
    let oracle = QpptEngine::new(&db);

    for name in ["q3.1", "q3.2", "q4.2"] {
        let (got, stats) = engine.run_cached(name, &opts, 0, false).unwrap();
        let q = queries::all_queries()
            .into_iter()
            .find(|q| q.id.eq_ignore_ascii_case(name))
            .unwrap();
        assert_eq!(got, oracle.run(&q, &opts).unwrap(), "{name} cache=off");
        assert!(
            !stats.ops.iter().any(|op| op.label.starts_with("cache:")),
            "{name}: cache=off must not report cache ops"
        );
    }
    let s = engine.cache_stats();
    for (tier, t) in [("results", s.results), ("dims", s.dims)] {
        assert_eq!(
            (t.hits, t.misses, t.insertions, t.entries),
            (0, 0, 0, 0),
            "{tier}: cache=off must not touch the {tier} tier"
        );
    }
    pool.shutdown();
}

/// Deletes every part row (visible at the current snapshot) whose
/// `p_brand1` equals `brand`, returning how many were terminated.
fn delete_brand_rows(db: &mut Database, brand: &str) -> usize {
    let rids: Vec<u32> = {
        let mvt = db.table("part").unwrap();
        let t = mvt.table();
        let col = t.schema().col("p_brand1").unwrap();
        let Some(code) = t.encode_value(col, &Value::str(brand)).unwrap() else {
            return 0;
        };
        let snap = db.snapshot();
        mvt.scan_visible(snap)
            .filter(|&rid| t.get(rid, col) == code)
            .collect()
    };
    for &rid in &rids {
        db.delete_row("part", rid).unwrap();
    }
    rids.len()
}

#[test]
fn mvcc_write_invalidates_exactly_the_affected_entries() {
    let mut ssb = SsbDb::generate(0.01, 42);
    for q in queries::all_queries() {
        qppt_core::prepare_indexes(&mut ssb.db, &q, &PlanOptions::default()).unwrap();
    }
    let mut db = Arc::new(ssb.db);
    let pool = WorkerPool::new(2, 8);
    let cache = Arc::new(QueryCache::new(CacheConfig::default()));
    let opts = PlanOptions::default();

    // q1.1 reads lineorder+date; q2.3 reads lineorder+part+supplier+date.
    let q23 = queries::q2_3();

    let engine =
        ServeEngine::over_db_with_cache(db.clone(), pool.clone(), opts, 0.01, 42, cache.clone());
    let (r11_before, _) = engine.run("q1.1", &opts, 0).unwrap();
    let (r23_before, _) = engine.run("q2.3", &opts, 0).unwrap();
    assert_eq!(r23_before, QpptEngine::new(&db).run(&q23, &opts).unwrap());
    // Warm both entries.
    assert_eq!(engine.run("q1.1", &opts, 0).unwrap().0, r11_before);
    assert_eq!(engine.run("q2.3", &opts, 0).unwrap().0, r23_before);
    let s0 = engine.cache_stats();
    assert_eq!(s0.results.hits, 2);

    // Write to `part`: delete every row of the brand q2.3 aggregates, so
    // the fresh q2.3 answer provably differs from the stale one.
    drop(engine);
    {
        let db_mut = Arc::get_mut(&mut db).expect("engine dropped, Arc unique");
        let deleted = delete_brand_rows(db_mut, "MFGR#2221");
        assert!(deleted > 0, "test needs at least one matching part row");
    }

    let engine =
        ServeEngine::over_db_with_cache(db.clone(), pool.clone(), opts, 0.01, 42, cache.clone());
    let oracle = QpptEngine::new(&db);

    // Untouched tables: q1.1 still hits and still matches.
    let (r11_after, stats11) = engine.run("q1.1", &opts, 0).unwrap();
    assert_eq!(r11_after, r11_before);
    assert!(
        stats11.ops.iter().any(|op| op.label == "cache: result hit"),
        "q1.1 should still be served from the result cache"
    );

    // Affected tables: q2.3 is invalidated, recomputed, and fresh — the
    // stale (pre-delete) result is never served.
    let (r23_after, stats23) = engine.run("q2.3", &opts, 0).unwrap();
    let fresh = oracle.run(&q23, &opts).unwrap();
    assert_eq!(
        r23_after, fresh,
        "q2.3 must be recomputed at the new snapshot"
    );
    assert_ne!(
        r23_after, r23_before,
        "the delete changes q2.3's answer; serving the old bytes would be stale"
    );
    assert!(
        !stats23.ops.iter().any(|op| op.label == "cache: result hit"),
        "q2.3 must not be served from the stale result entry"
    );

    let s1 = engine.cache_stats();
    assert_eq!(
        s1.results.invalidations, 1,
        "exactly the q2.3 result entry is invalidated"
    );
    assert_eq!(s1.results.hits, s0.results.hits + 1, "q1.1 hit again");
    // The write hit `part`, whose σ in q2.3 is fused (never cached): the
    // supplier σ — on an untouched table — must survive and be shared
    // into the recomputation instead of being rebuilt.
    assert_eq!(s1.dims.invalidations, 0);
    assert_eq!(s1.dims.hits, 1, "q2.3's supplier σ reused after the write");
    assert_eq!(s1.dims.misses, 1, "only the original cold build missed");

    // And the recomputed entry serves hits again.
    assert_eq!(engine.run("q2.3", &opts, 0).unwrap().0, fresh);
    assert_eq!(engine.cache_stats().results.hits, s1.results.hits + 1);
    pool.shutdown();
}

#[test]
fn dim_write_invalidates_exactly_that_tables_sigma() {
    // q4.2 materializes three σ (supplier, part, date). A write to `date`
    // must rebuild only the date σ — supplier and part keep hitting — and
    // an unrelated date-σ-free query (q2.1) must keep hitting everywhere.
    let mut ssb = SsbDb::generate(0.01, 42);
    for q in queries::all_queries() {
        qppt_core::prepare_indexes(&mut ssb.db, &q, &PlanOptions::default()).unwrap();
    }
    let mut db = Arc::new(ssb.db);
    let pool = WorkerPool::new(2, 8);
    let cache = Arc::new(QueryCache::new(CacheConfig::default()));
    let opts = PlanOptions::default();

    let engine =
        ServeEngine::over_db_with_cache(db.clone(), pool.clone(), opts, 0.01, 42, cache.clone());
    let (r42_before, s42) = engine.run("q4.2", &opts, 0).unwrap();
    let a42 = dim_assembly_op(&s42).expect("q4.2 assembles dims");
    assert_eq!((a42.out_keys, a42.out_tuples), (0, 3), "3 σ built cold");
    engine.run("q2.1", &opts, 0).unwrap(); // builds its supplier σ
    let s0 = engine.cache_stats();
    assert_eq!(s0.dims.insertions, 4);

    drop(engine);
    {
        let db_mut = Arc::get_mut(&mut db).expect("engine dropped, Arc unique");
        db_mut.delete_row("date", 0).unwrap();
    }
    let engine =
        ServeEngine::over_db_with_cache(db.clone(), pool.clone(), opts, 0.01, 42, cache.clone());
    let oracle = QpptEngine::new(&db);

    // q4.2 recomputes — but only the date σ is rebuilt.
    let (r42_after, s42b) = engine.run("q4.2", &opts, 0).unwrap();
    assert_eq!(r42_after, oracle.run(&queries::q4_2(), &opts).unwrap());
    let a42b = dim_assembly_op(&s42b).expect("q4.2 reassembles");
    assert_eq!(
        (a42b.out_keys, a42b.out_tuples),
        (2, 1),
        "supplier + part σ shared, only the date σ rebuilt"
    );
    let s1 = engine.cache_stats();
    assert_eq!(
        s1.dims.invalidations - s0.dims.invalidations,
        1,
        "exactly the stale date σ entry dies"
    );

    // q2.1 touches date only through a predicate-free Base handle — its
    // result entry invalidates (the version vector covers date), but its
    // supplier σ still hits.
    let (r21, s21) = engine.run("q2.1", &opts, 0).unwrap();
    assert_eq!(r21, oracle.run(&queries::q2_1(), &opts).unwrap());
    let a21 = dim_assembly_op(&s21).expect("q2.1 reassembles");
    assert_eq!((a21.out_keys, a21.out_tuples), (1, 0), "σ fully shared");

    // The stale q4.2 answer is provably different only if the deleted row
    // mattered; either way the stale bytes were never served — assert the
    // recomputation happened at the new snapshot.
    assert_eq!(
        engine.run("q4.2", &opts, 0).unwrap().0,
        r42_after,
        "recomputed entry serves consistent hits"
    );
    let _ = r42_before;
    pool.shutdown();
}

#[test]
fn ten_concurrent_connections_sharing_the_cache_match_sequential() {
    let db = ssb_db(0.01);
    let pool = WorkerPool::new(3, 8);
    let defaults = PlanOptions::default().with_parallelism(2);
    let engine = Arc::new(ServeEngine::over_db(
        db.clone(),
        pool.clone(),
        defaults,
        0.01,
        42,
    ));
    let server = serve(engine.clone(), "127.0.0.1:0").expect("bind loopback");
    let addr = server.addr();

    let oracle = QpptEngine::new(&db);
    let all = queries::all_queries();
    let expected: Vec<_> = all
        .iter()
        .map(|q| oracle.run(q, &PlanOptions::default()).unwrap())
        .collect();
    // The materialized σ of each query's plan: what one result miss looks
    // up in the dimension tier.
    let sigmas: Vec<u64> = all
        .iter()
        .map(|q| {
            let plan = build_plan(&db, q, &defaults).unwrap();
            let materialized = plan
                .dims
                .iter()
                .filter(|d| d.handle == DimHandleKind::Materialized);
            materialized.count() as u64
        })
        .collect();
    let result_misses = AtomicU64::new(0);
    let miss_sigma_lookups = AtomicU64::new(0);

    // 10 connections × 2 rounds over all 13 queries; mixed parallelism and
    // an occasional cache bypass, all racing on one shared cache.
    std::thread::scope(|s| {
        for c in 0..10usize {
            let all = &all;
            let expected = &expected;
            let (sigmas, misses, lookups) = (&sigmas, &result_misses, &miss_sigma_lookups);
            s.spawn(move || {
                let mut client = QpptClient::connect(addr).expect("connect");
                for round in 0..2 {
                    for (qi, q) in all.iter().enumerate() {
                        let par = ["1", "2", "4"][(c + qi) % 3];
                        let cache = if (c + qi + round) % 5 == 0 {
                            "off"
                        } else {
                            "on"
                        };
                        let served = client
                            .run(
                                &q.id.to_ascii_lowercase(),
                                &[("parallelism", par), ("cache", cache)],
                            )
                            .unwrap_or_else(|e| panic!("{} via client {c}: {e}", q.id));
                        assert_eq!(
                            served.result, expected[qi],
                            "{} via client {c} (parallelism {par}, cache {cache})",
                            q.id
                        );
                        // A miss reports its dim-tier lookups: one per
                        // materialized σ of its query, shared or built.
                        let ops = &served.stats.op_lines;
                        if ops.iter().any(|l| l.starts_with("cache: cold |")) {
                            let dims = ops.iter().find_map(|l| dim_lookups(l)).unwrap_or(0);
                            assert_eq!(dims, sigmas[qi], "{} miss via client {c}", q.id);
                            misses.fetch_add(1, Ordering::Relaxed);
                            lookups.fetch_add(dims, Ordering::Relaxed);
                        }
                    }
                }
                client.quit().expect("clean quit");
            });
        }
    });

    // Counter exactness under concurrency: every cache=on run does exactly
    // one result-tier lookup, every result miss exactly one dim-tier
    // lookup per materialized σ of its query, and every dim-tier miss
    // exactly one insertion — races may shift the hit/miss split, never
    // the totals.
    let on_runs: u64 = (0..10usize)
        .flat_map(|c| (0..2usize).flat_map(move |round| (0..13usize).map(move |qi| (c, round, qi))))
        .filter(|(c, round, qi)| (c + qi + round) % 5 != 0)
        .count() as u64;
    let stats = engine.cache_stats();
    assert_eq!(stats.results.hits + stats.results.misses, on_runs);
    assert_eq!(stats.results.misses, result_misses.into_inner());
    assert_eq!(
        stats.dims.hits + stats.dims.misses,
        miss_sigma_lookups.into_inner()
    );
    assert_eq!(stats.dims.misses, stats.dims.insertions);
    assert!(
        stats.results.hits > 0,
        "concurrent connections never hit the shared cache: {stats:?}"
    );
    assert_eq!(stats.results.invalidations, 0);
    assert!(stats.dims.hits > 0, "σ sharing must kick in across clients");
    assert!(stats.dims.bytes > 0 && stats.results.bytes > 0);

    // The wire-level CACHE STATS report carries the dim tier and bytes.
    let mut client = QpptClient::connect(addr).expect("connect");
    let kv = client.cache_stats().expect("CACHE STATS");
    for key in ["dim_hits", "dim_bytes", "result_bytes", "dim_expirations"] {
        assert!(
            kv.iter().any(|(k, _)| k == key),
            "CACHE STATS missing {key}: {kv:?}"
        );
    }
    let wire_dim_hits: u64 = kv
        .iter()
        .find(|(k, _)| k == "dim_hits")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap();
    assert!(wire_dim_hits >= stats.dims.hits);
    client.cache_clear_dims().expect("CACHE CLEAR dims");
    let kv = client.cache_stats().expect("CACHE STATS");
    let dim_entries: u64 = kv
        .iter()
        .find(|(k, _)| k == "dim_entries")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap();
    assert_eq!(dim_entries, 0, "CACHE CLEAR dims empties the dim tier");
    client.quit().expect("clean quit");

    server.stop();
    pool.shutdown();
}

#[test]
fn eviction_churn_under_tiny_budgets_stays_correct() {
    // Pathologically small byte budgets: both tiers are under constant
    // eviction pressure, entries pinned by in-flight executions are
    // skipped rather than ripped out, and every answer stays
    // byte-identical to the sequential oracle.
    let db = ssb_db(0.01);
    let pool = WorkerPool::new(2, 8);
    let cache = Arc::new(QueryCache::new(CacheConfig {
        dim_budget: 4 << 10,
        result_budget: 1,
        ..CacheConfig::default()
    }));
    let engine = ServeEngine::over_db_with_cache(
        db.clone(),
        pool.clone(),
        PlanOptions::default(),
        0.01,
        42,
        cache.clone(),
    );
    let oracle = QpptEngine::new(&db);
    for _ in 0..3 {
        for q in queries::all_queries() {
            let (got, _) = engine
                .run(&q.id.to_ascii_lowercase(), &PlanOptions::default(), 0)
                .unwrap();
            assert_eq!(
                got,
                oracle.run(&q, &PlanOptions::default()).unwrap(),
                "{} under eviction churn",
                q.id
            );
        }
    }
    let s = engine.cache_stats();
    let evictions = s.results.evictions + s.dims.evictions;
    assert!(evictions > 0, "tiny budgets must evict: {s:?}");
    // A 1-byte result budget keeps at most one (over-budget) entry
    // resident per shard — 8 shards, 13 distinct queries: the put-path
    // reclaim evicted everything unpinned first.
    assert!(s.results.entries <= 8, "result tier runaway: {s:?}");
    pool.shutdown();
}

/// Sends one request line over a raw connection and returns the response
/// exactly as written, up to and including `END`.
fn raw_request(reader: &mut BufReader<TcpStream>, line: &str) -> String {
    let stream = reader.get_mut();
    stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    stream.flush().unwrap();
    let mut response = String::new();
    loop {
        let mut l = String::new();
        assert!(
            reader.read_line(&mut l).unwrap() > 0,
            "{line}: connection closed"
        );
        response.push_str(&l);
        if l == "END\n" {
            return response;
        }
        assert!(!l.starts_with("ERR"), "{line}: {l}");
    }
}

/// The bytes with the per-request `# total_micros=` value masked.
fn mask_total(response: &str) -> String {
    response
        .lines()
        .map(|l| match l.strip_prefix("# total_micros=") {
            Some(rest) => format!("# total_micros=* {}", rest.split_once(' ').unwrap().1),
            None => l.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// [`mask_total`] minus what legitimately differs between the ways one
/// answer is reached: the tier's `# op cache: …` lines and `# span` lines.
fn mask_tier(response: &str) -> String {
    mask_total(response)
        .lines()
        .filter(|l| !l.starts_with("# op cache: ") && !l.starts_with("# span "))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn result_hits_answer_the_cold_miss_bytes_over_the_wire() {
    let db = ssb_db(0.01);
    let pool = WorkerPool::new(2, 8);
    let defaults = PlanOptions::default();
    let engine = Arc::new(ServeEngine::over_db(db, pool.clone(), defaults, 0.01, 42));
    let server = serve(engine.clone(), "127.0.0.1:0").expect("bind loopback");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut reader = BufReader::new(stream);
    let workers = engine.pooled().pipeline_participants(defaults.parallelism);

    for q in queries::all_queries() {
        let name = q.id.to_ascii_lowercase();
        let spec = engine.query(&name).expect("registered").clone();
        let cold = raw_request(&mut reader, &format!("RUN {name}"));
        let hit = raw_request(&mut reader, &format!("RUN {name}"));
        let query_hit = raw_request(&mut reader, &format!("QUERY {}", qppt_query::print(&spec)));
        let traced_hit = raw_request(&mut reader, &format!("RUN {name} trace=on"));

        assert!(cold.contains("\n# op cache: cold |"), "{name}: {cold}");
        for (what, response) in [
            ("RUN", &hit),
            ("QUERY", &query_hit),
            ("traced", &traced_hit),
        ] {
            assert!(
                response.contains("\n# op cache: result hit |"),
                "{name} {what} is a result hit: {response}"
            );
            assert_eq!(
                mask_tier(response),
                mask_tier(&cold),
                "{name}: {what} hit vs cold miss"
            );
        }
        assert_eq!(
            mask_total(&query_hit),
            mask_total(&hit),
            "{name}: QUERY vs RUN hit"
        );
        assert!(traced_hit.contains("\n# span "), "{name}: {traced_hit}");
        let untraced: String = traced_hit
            .lines()
            .filter(|l| !l.starts_with("# span "))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(
            mask_total(&untraced),
            mask_total(&hit),
            "{name}: traced hit"
        );

        // The in-process hit, rendered by the protocol's writer, is the
        // wire hit byte for byte.
        let (result, stats) = engine.run_spec(&spec, &defaults, 0, true).unwrap();
        assert!(stats.ops.iter().any(|op| op.label == "cache: result hit"));
        let mut rendered = Vec::new();
        write_run_response(&mut rendered, &result, &stats, workers, &[]).unwrap();
        let rendered = String::from_utf8(rendered).unwrap();
        assert_eq!(
            mask_total(&rendered),
            mask_total(&hit),
            "{name}: in-process hit"
        );
    }
    let s = engine.cache_stats();
    assert_eq!((s.results.misses, s.results.hits), (13, 13 * 4));

    drop(reader);
    server.stop();
    pool.shutdown();
}

/// Parses a raw `PARTIAL` response back into its aggregate.
fn parse_partial(response: &str) -> PartialAggregate {
    let mut r = BufReader::new(response.as_bytes());
    let status = read_status(&mut r).unwrap();
    let n = parse_partial_status(&status).unwrap_or_else(|| panic!("not partial: {status}"));
    read_partial_body(&mut r, n).unwrap().0
}

/// An ad-hoc query that reads no `date` row: the entry a write to `date`
/// must leave alone.
const NO_DATE: &str = "QUERY fact=lineorder \
     dim=supplier[join=s_suppkey:lo_suppkey;s_region='ASIA';carry=s_nation] \
     agg=sum(lo_revenue):rev group=supplier.s_nation order=group:0";

#[test]
fn partial_answers_are_result_entries_keyed_apart_from_full_ones() {
    let mut ssb = SsbDb::generate(0.01, 42);
    for q in queries::all_queries() {
        qppt_core::prepare_indexes(&mut ssb.db, &q, &PlanOptions::default()).unwrap();
    }
    let mut db = Arc::new(ssb.db);
    let pool = WorkerPool::new(2, 8);
    let cache = Arc::new(QueryCache::default());
    let defaults = PlanOptions::default();
    let start = |db: &Arc<Database>| {
        let engine = Arc::new(ServeEngine::over_db_with_cache(
            db.clone(),
            pool.clone(),
            defaults,
            0.01,
            42,
            cache.clone(),
        ));
        let server = serve(engine.clone(), "127.0.0.1:0").expect("bind loopback");
        let reader = BufReader::new(TcpStream::connect(server.addr()).expect("connect"));
        (engine, server, reader)
    };
    let cold = |response: &str| response.contains("\n# op cache: cold |");
    let hit = |response: &str| response.contains("\n# op cache: result hit |");

    let (engine, server, mut reader) = start(&db);
    let workers = engine.pooled().pipeline_participants(defaults.parallelism);
    let oracle = QpptEngine::new(&db);
    let mut partials = Vec::new();
    for q in queries::all_queries() {
        let name = q.id.to_ascii_lowercase();
        let spec = engine.query(&name).expect("registered").clone();
        let s0 = engine.cache_stats().results;

        // A partial miss, then its hit: the same bytes but for the tier.
        let miss = raw_request(&mut reader, &format!("RUN {name} mode=partial"));
        let repeat = raw_request(&mut reader, &format!("RUN {name} mode=partial"));
        assert!(cold(&miss), "{name}: {miss}");
        assert!(hit(&repeat), "{name} repeat is a result hit: {repeat}");
        assert_eq!(mask_tier(&repeat), mask_tier(&miss), "{name}: hit vs miss");
        let partial = parse_partial(&miss);
        assert_eq!(
            partial.clone().into_result(&spec.order_by),
            oracle.run(&spec, &defaults).unwrap(),
            "{name}: partial vs oracle"
        );

        // In process: the same hit, rendered to the wire hit's bytes.
        let (in_proc, stats) = engine.run_spec_partial(&spec, &defaults, 0, true).unwrap();
        assert_eq!(in_proc, partial, "{name}: in-process hit");
        assert!(stats.ops.iter().any(|op| op.label == "cache: result hit"));
        let mut rendered = Vec::new();
        write_partial_response(&mut rendered, &in_proc, &stats, workers, &[]).unwrap();
        let rendered = String::from_utf8(rendered).unwrap();
        assert_eq!(
            mask_total(&rendered),
            mask_total(&repeat),
            "{name}: in-process"
        );

        // The modes never share an entry, in either order.
        let full = raw_request(&mut reader, &format!("RUN {name}"));
        assert!(cold(&full), "{name}: full after partial is a miss: {full}");
        let full2 = raw_request(&mut reader, &format!("RUN {name} parallelism=2"));
        let partial2 = raw_request(
            &mut reader,
            &format!("RUN {name} parallelism=2 mode=partial"),
        );
        assert!(cold(&full2), "{name}: {full2}");
        assert!(
            cold(&partial2),
            "{name}: partial after full is a miss: {partial2}"
        );
        assert_eq!(parse_partial(&partial2), partial, "{name}: parallelism=2");

        // cache=off answers the same aggregate and moves no counter.
        let before = engine.cache_stats();
        let off = raw_request(&mut reader, &format!("RUN {name} mode=partial cache=off"));
        assert_eq!(engine.cache_stats(), before, "{name}: cache=off");
        assert!(!off.contains("# op cache:"), "{name}: {off}");
        assert_eq!(parse_partial(&off), partial, "{name}: cache=off");

        let s1 = engine.cache_stats().results;
        assert_eq!((s1.hits - s0.hits, s1.misses - s0.misses), (2, 4), "{name}");
        partials.push((name, spec));
    }
    let no_date = raw_request(&mut reader, &format!("{NO_DATE} mode=partial"));
    assert!(cold(&no_date), "{no_date}");

    // A write to `date`: every named query reads it, the ad-hoc one not.
    drop((reader, oracle));
    server.stop();
    drop(engine);
    let before = cache.stats().results;
    Arc::get_mut(&mut db)
        .expect("server stopped, Arc unique")
        .delete_row("date", 0)
        .unwrap();
    let (engine, server, mut reader) = start(&db);
    let oracle = QpptEngine::new(&db);
    for (name, spec) in &partials {
        let rerun = raw_request(&mut reader, &format!("RUN {name} mode=partial"));
        assert!(
            cold(&rerun),
            "{name}: stale partial served after a date write"
        );
        assert_eq!(
            parse_partial(&rerun).into_result(&spec.order_by),
            oracle.run(spec, &defaults).unwrap(),
            "{name}: re-run vs oracle at the new snapshot"
        );
    }
    let no_date_again = raw_request(&mut reader, &format!("{NO_DATE} mode=partial"));
    assert!(hit(&no_date_again), "{no_date_again}");
    assert_eq!(mask_tier(&no_date_again), mask_tier(&no_date));
    let after = cache.stats().results;
    assert_eq!(
        after.invalidations - before.invalidations,
        partials.len() as u64,
        "exactly the date readers' partial entries die"
    );
    assert_eq!(after.hits - before.hits, 1, "the date-free entry survives");

    drop((reader, oracle));
    server.stop();
    drop(engine);
    pool.shutdown();
}

/// `count` SSB cities drawn from all 25 nations: group values spread
/// across the city dictionaries rather than adjacent codes.
fn scattered_cities(rng: &mut Xoshiro256StarStar, count: usize) -> Vec<Value> {
    (0..count)
        .map(|_| {
            let (nation, _) = qppt_ssb::NATIONS[rng.below(25) as usize];
            Value::Str(qppt_ssb::gen::city_name(nation, rng.below(10)))
        })
        .collect()
}

/// Seeded ad-hoc shapes: Q3.3's drill-down over scattered cities (the
/// group key's values far apart in a wide packed key), Q3.2's over two
/// random nations, and the three Q4 queries with profit negated, so every
/// sum is negative.
fn adhoc_shapes(seed: u64) -> Vec<QuerySpec> {
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut out = Vec::new();
    for i in 0..6 {
        let mut q = queries::q3_3();
        q.id = format!("scattered{i}");
        for d in &mut q.dims {
            let column = match d.table.as_str() {
                "customer" => "c_city",
                "supplier" => "s_city",
                _ => continue,
            };
            let count = 2 + rng.below(12) as usize;
            d.predicates = vec![Predicate::is_in(column, scattered_cities(&mut rng, count))];
        }
        out.push(q);
    }
    for i in 0..3 {
        let mut q = queries::q3_2();
        q.id = format!("nations{i}");
        for d in &mut q.dims {
            let column = match d.table.as_str() {
                "customer" => "c_nation",
                "supplier" => "s_nation",
                _ => continue,
            };
            let (nation, _) = qppt_ssb::NATIONS[rng.below(25) as usize];
            d.predicates = vec![Predicate::eq(column, nation)];
        }
        out.push(q);
    }
    for mut q in [queries::q4_1(), queries::q4_2(), queries::q4_3()] {
        q.id = format!("{}-loss", q.id);
        q.aggregates[0].expr = Expr::Sub("lo_supplycost".into(), "lo_revenue".into());
        out.push(q);
    }
    out
}

/// What a result hit reports as its operators: the miss's execution
/// operators — its records without the cache's own — then the result-hit
/// record of `rows` rows.
fn hit_ops_of(miss: &ExecStats, rows: usize) -> Vec<OpStats> {
    let mut ops: Vec<OpStats> = miss
        .ops
        .iter()
        .filter(|op| !op.label.starts_with("cache: "))
        .cloned()
        .collect();
    ops.push(OpStats {
        label: "cache: result hit".into(),
        out_keys: rows,
        out_tuples: rows,
        index_kind: "cache".into(),
        memory_bytes: 0,
        micros: 0,
    });
    ops
}

#[test]
fn in_process_hits_answer_what_their_miss_answered() {
    let db = ssb_db(0.01);
    let pool = WorkerPool::new(2, 8);
    let engine = ServeEngine::over_db(db.clone(), pool.clone(), PlanOptions::default(), 0.01, 42);
    let opts = PlanOptions::default();
    let shapes = adhoc_shapes(0x4817);
    let (mut negative, mut scattered_rows) = (0, 0);
    for spec in queries::all_queries().iter().chain(&shapes) {
        let id = &spec.id;
        let (miss, miss_stats) = engine.run_spec(spec, &opts, 0, true).unwrap();
        let rows = miss.rows.len();
        let cold = miss_stats.ops.iter().find(|op| op.label == "cache: cold");
        assert_eq!(cold.map(|op| op.out_tuples), Some(rows), "{id}");
        let (hit, hit_stats) = engine.run_spec(spec, &opts, 0, true).unwrap();
        assert_eq!(hit, miss, "{id}: the hit answers the miss's rows");
        assert_eq!(hit_stats.ops, hit_ops_of(&miss_stats, rows), "{id}");
        let (bypass, _) = engine.run_spec(spec, &opts, 0, false).unwrap();
        assert_eq!(hit, bypass, "{id}: and what cache=off answers");
        negative += miss
            .rows
            .iter()
            .flat_map(|r| &r.agg_values)
            .filter(|&&a| a < 0)
            .count();
        if id.starts_with("scattered") {
            scattered_rows += rows;
        }

        let (miss, miss_stats) = engine.run_spec_partial(spec, &opts, 0, true).unwrap();
        let (hit, hit_stats) = engine.run_spec_partial(spec, &opts, 0, true).unwrap();
        assert_eq!(hit, miss, "{id}: the partial hit answers the miss's groups");
        let groups = miss.groups.len();
        assert_eq!(
            hit_stats.ops,
            hit_ops_of(&miss_stats, groups),
            "{id} partial"
        );
        let (bypass, _) = engine.run_spec_partial(spec, &opts, 0, false).unwrap();
        assert_eq!(hit, bypass, "{id}: partial and what cache=off answers");
    }
    // The sample reaches what it is for: negative sums, and scattered
    // groups that are not all empty.
    assert!(negative > 0, "the negated Q4 shapes sum below zero");
    assert!(scattered_rows > 0, "some scattered drill-down has rows");
    let s = engine.cache_stats().results;
    let answers = (queries::all_queries().len() + shapes.len()) as u64;
    assert_eq!((s.misses, s.hits), (2 * answers, 2 * answers));
    pool.shutdown();
}
