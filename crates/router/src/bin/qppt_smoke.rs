//! The CI smoke probe: connect to a running qppt-server, learn its
//! `sf`/`seed` from `INFO`, regenerate the same SSB instance locally, and
//! assert the served answers are byte-identical to the local sequential
//! engine's — named aliases *and* two ad-hoc `QUERY`s, one grouping on
//! values scattered across the dictionary (plus one deliberately malformed
//! `QUERY`, which must be a clean `ERR`). Each probe is sent twice: the
//! repeat must answer from a result tier (its op lines carry `cache:
//! result hit`) and equal the first answer and the oracle's, so the
//! server must run with its result tier on (the default; `--no-cache`
//! fails the repeats). Exits non-zero on any mismatch.
//!
//! ```text
//! cargo run --release --bin qppt-smoke -- --addr 127.0.0.1:7878 --shutdown
//! ```
//!
//! `--router` runs a self-contained sharded smoke instead: it spawns two
//! in-process `qppt-server` shards plus a `qppt-router` on loopback, then
//! drives the same named + ad-hoc + malformed probes through the router —
//! the merged answers must be byte-identical to the same sequential
//! oracle (`--addr`/`--shutdown` are ignored in this mode).
//!
//! Router mode also probes the routed result cache: a repeat of a named
//! query must answer from the merged-result tier, and `CACHE STATS` must
//! report it under the distinct `router_result_*` fields — and carry no
//! other router tier's fields, as the `METRICS` probe carries no
//! `tier="partial"` sample.
//!
//! `--chaos` (implies `--router`) upgrades the fleet to two replicas per
//! range — each shard engine served on two listeners — then kills one
//! replica of range 0 mid-run and repeats every probe twice: once with
//! `cache=off` (bypassing the router tier, so the scatter must fail over
//! to the sibling) and once plain (served warm from the router cache, to
//! which the kill is invisible). The probes must see **zero**
//! client-visible errors, and the router's own metrics must record ≥ 1
//! failover with exactly 3 replicas still live.
//!
//! Both modes first send the probe set under load: three connections at
//! once, each at `parallelism=2` with `cache=off`, so every probe executes
//! while the others do — more concurrent queries than a two-core runner
//! has cores, so the worker pool grants some of them one core and others
//! two. Every answer must equal the oracle's.
//!
//! Both modes end with a `METRICS` probe: the exposition must parse under
//! the strict Prometheus checker and count the queries this very smoke
//! just issued (in router mode: per-shard labels plus the summed
//! `shard="fleet"` samples and the router's own families). A server that
//! answers `ERR … --no-obs` skips the probe — that configuration has no
//! metrics by design.

use std::process::exit;
use std::time::Duration;

use qppt_core::{prepare_indexes, PlanOptions, QpptEngine};
use qppt_server::{ClientError, QpptClient, Served};
use qppt_ssb::{queries, SsbDb};
use qppt_storage::QueryResult;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let addr = args
        .iter()
        .position(|a| a == "--addr")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "127.0.0.1:7878".to_string());
    let shutdown = args.iter().any(|a| a == "--shutdown");
    let chaos = args.iter().any(|a| a == "--chaos");
    if chaos || args.iter().any(|a| a == "--router") {
        router_smoke(chaos);
        return;
    }

    eprintln!("smoke: connecting to {addr} (retrying up to 120s while the server warms up) …");
    let mut client = match QpptClient::connect_retry(&addr, Duration::from_secs(120)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("smoke: FAIL — cannot connect: {e}");
            exit(1);
        }
    };

    let info = client.info().expect("INFO answers");
    let get = |k: &str| {
        info.iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| panic!("INFO is missing {k}"))
    };
    let sf: f64 = get("sf").parse().expect("sf parses");
    let seed: u64 = get("seed").parse().expect("seed parses");
    eprintln!("smoke: server runs SSB sf={sf} seed={seed}; rebuilding locally for the oracle …");

    let opts = PlanOptions::default();
    let mut ssb = SsbDb::generate(sf, seed);
    for q in queries::all_queries() {
        prepare_indexes(&mut ssb.db, &q, &opts).expect("indexes build");
    }
    let engine = QpptEngine::new(&ssb.db);

    let mut failed = concurrent_probes(&addr, &engine, &opts);
    failed += run_probes(&mut client, &engine, &opts, &[]);
    failed += metrics_probe(&mut client, None);

    if shutdown {
        eprintln!("smoke: sending SHUTDOWN");
        let _ = client.shutdown();
    }
    if failed > 0 {
        eprintln!("smoke: FAIL ({failed} mismatches)");
        exit(1);
    }
    eprintln!("smoke: PASS");
}

/// The self-contained sharded smoke (`--router`): two in-process shards
/// plus a router on loopback, probed through the router against the same
/// sequential single-node oracle. With `chaos`, each shard is served on
/// two listeners (a two-replica range) and the probe set is repeated
/// after one replica is killed mid-run.
fn router_smoke(chaos: bool) {
    use qppt_par::WorkerPool;
    use qppt_router::{serve_router, Router, RouterConfig, RouterObs};
    use qppt_server::{serve, ServeEngine, ServeObs};
    use std::sync::Arc;

    let (sf, seed) = (0.01, 42);
    let replicas = if chaos { 2 } else { 1 };
    eprintln!(
        "smoke: router mode — 2 shards × {replicas} replica(s) + router on loopback \
         (sf={sf} seed={seed}) …"
    );
    let pool = WorkerPool::new(2, 8);
    let defaults = PlanOptions::default()
        .with_parallelism(2)
        .with_par_index_build(true);
    let mut shard_handles: Vec<Vec<qppt_server::ServerHandle>> = Vec::new();
    let mut fleet: Vec<Vec<String>> = Vec::new();
    for i in 0..2 {
        // Replicas of a range are the same engine served on distinct
        // listeners — byte-identical answers by construction, which is
        // exactly the contract real replicas (same --shard i/n, same
        // --sf/--seed) provide.
        let engine = Arc::new(
            ServeEngine::with_ssb_shard(sf, seed, pool.clone(), defaults, i, 2)
                .expect("shard engine builds")
                .with_obs(ServeObs::new(None)),
        );
        let mut handles = Vec::new();
        let mut addrs = Vec::new();
        for _ in 0..replicas {
            let h = serve(Arc::clone(&engine), "127.0.0.1:0").expect("shard binds");
            addrs.push(h.addr().to_string());
            handles.push(h);
        }
        fleet.push(addrs);
        shard_handles.push(handles);
    }
    let router =
        Arc::new(Router::new(RouterConfig::with_fleet(fleet)).with_obs(RouterObs::new(2, None)));
    router
        .wait_for_shards(Duration::from_secs(30))
        .expect("shards answer PING");
    let rh = serve_router(Arc::clone(&router), "127.0.0.1:0").expect("router binds");

    // The oracle is the *full* unsharded instance on the sequential engine.
    let opts = PlanOptions::default();
    let mut ssb = SsbDb::generate(sf, seed);
    for q in queries::all_queries() {
        prepare_indexes(&mut ssb.db, &q, &opts).expect("indexes build");
    }
    let engine = QpptEngine::new(&ssb.db);

    let mut client = QpptClient::connect_retry(&rh.addr().to_string(), Duration::from_secs(30))
        .expect("router reachable");
    let mut failed = 0usize;
    let info = client.info().expect("router INFO answers");
    match info
        .iter()
        .find(|(k, _)| k == "shards")
        .map(|(_, v)| v.as_str())
    {
        Some("2") => eprintln!("smoke: router INFO OK — shards=2"),
        other => {
            eprintln!("smoke: FAIL — router INFO shards={other:?}, want 2");
            failed += 1;
        }
    }
    failed += concurrent_probes(&rh.addr().to_string(), &engine, &opts);
    failed += run_probes(&mut client, &engine, &opts, &[]);
    failed += metrics_probe(&mut client, Some(2));
    failed += router_cache_probe(&mut client, &engine, &opts);

    if chaos {
        // Kill one replica of range 0 mid-run. Uncached probes first
        // (`cache=off` bypasses the router tier, so they scatter into the
        // half-dead pool and must fail over), then the plain probe set
        // (served warm from the router cache — the kill is invisible to
        // it). Every probe must see zero client-visible errors.
        eprintln!(
            "smoke: chaos — killing shard 0 replica 0, repeating every probe \
             (uncached, then cached) …"
        );
        shard_handles[0].remove(0).stop();
        failed += run_probes(&mut client, &engine, &opts, &[("cache", "off")]);
        failed += run_probes(&mut client, &engine, &opts, &[]);
        let obs = router.obs().expect("router obs attached");
        let expo = qppt_obs::parse_exposition(&obs.render()).expect("router exposition parses");
        match expo.value("qppt_router_failovers_total", &[]) {
            Some(v) if v >= 1 => eprintln!("smoke: chaos failovers OK ({v})"),
            other => {
                eprintln!("smoke: chaos FAIL — qppt_router_failovers_total is {other:?}, want ≥ 1");
                failed += 1;
            }
        }
        match expo.value("qppt_router_replicas_live", &[]) {
            Some(3) => eprintln!("smoke: chaos replicas_live OK (3)"),
            other => {
                eprintln!("smoke: chaos FAIL — qppt_router_replicas_live is {other:?}, want 3");
                failed += 1;
            }
        }
    }

    eprintln!("smoke: sending SHUTDOWN (router only; shards are stopped directly)");
    let _ = client.shutdown();
    rh.join();
    for range in shard_handles {
        for h in range {
            h.stop();
        }
    }
    pool.shutdown();
    if failed > 0 {
        eprintln!("smoke: FAIL ({failed} mismatches)");
        exit(1);
    }
    eprintln!(
        "smoke: PASS (router{})",
        if chaos { " + chaos" } else { "" }
    );
}

/// Every `router_*` field of a routed `CACHE STATS` line, in order: the
/// merged-result tier and the version-probe count.
const ROUTER_CACHE_FIELDS: [&str; 8] = [
    "router_result_hits",
    "router_result_misses",
    "router_result_invalidations",
    "router_result_evictions",
    "router_result_expirations",
    "router_result_entries",
    "router_result_bytes",
    "router_probes",
];

/// The routed-caching probe: a repeat of a named query the probe set
/// already ran must answer from the router's merged-result tier —
/// byte-identical to the oracle, with `CACHE STATS` reporting the hit
/// under the distinct `router_result_*` fields (never summed into the
/// engine tiers) and no other `router_*` field but `router_probes`.
/// Returns the number of failures.
fn router_cache_probe(client: &mut QpptClient, engine: &QpptEngine, opts: &PlanOptions) -> usize {
    let expected = engine
        .run(&queries::q2_3(), opts)
        .expect("sequential oracle runs");
    match client.run("q2.3", &[("parallelism", "2")]) {
        Ok(served) if served.result == expected => {
            eprintln!(
                "smoke: warm q2.3 OK — byte-identical repeat (router total {} µs)",
                served.stats.total_micros
            );
        }
        other => {
            eprintln!("smoke: warm q2.3 FAIL — {other:?}");
            return 1;
        }
    }
    let stats = match client.cache_stats() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("smoke: CACHE STATS FAIL — {e}");
            return 1;
        }
    };
    let field = |key: &str| -> Option<i64> {
        stats
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.parse().ok())
    };
    let mut failed = 0usize;
    let router_fields: Vec<&str> = stats
        .iter()
        .map(|(k, _)| k.as_str())
        .filter(|k| k.starts_with("router_"))
        .collect();
    if router_fields != ROUTER_CACHE_FIELDS {
        eprintln!(
            "smoke: CACHE STATS FAIL — router fields are {router_fields:?}, \
             want exactly {ROUTER_CACHE_FIELDS:?}"
        );
        failed += 1;
    }
    for (key, want_at_least) in [("router_result_hits", 1), ("router_result_misses", 1)] {
        match field(key) {
            Some(v) if v >= want_at_least => {
                eprintln!("smoke: CACHE STATS {key} OK ({v})");
            }
            other => {
                eprintln!("smoke: CACHE STATS FAIL — {key} is {other:?}, want ≥ {want_at_least}");
                failed += 1;
            }
        }
    }
    failed
}

/// The `METRICS` probe: the exposition must parse under the strict
/// Prometheus checker and count the ≥ 3 named `RUN`s `run_probes` just
/// issued. In router mode (`shards = Some(n)`) that count must appear per
/// shard and the `shard="fleet"` sample must equal the shard sum, with
/// the router's own `qppt_router_*` families alongside and no
/// `tier="partial"` sample. A server built with `--no-obs` answers a
/// structured `ERR` — reported as a skip, not a failure. Returns the
/// number of failures.
fn metrics_probe(client: &mut QpptClient, shards: Option<usize>) -> usize {
    let text = match client.metrics() {
        Ok(t) => t,
        Err(qppt_server::ClientError::Server(msg)) if msg.contains("--no-obs") => {
            eprintln!("smoke: METRICS skipped — server runs without observability ({msg})");
            return 0;
        }
        Err(e) => {
            eprintln!("smoke: METRICS FAIL — {e}");
            return 1;
        }
    };
    let expo = match qppt_obs::parse_exposition(&text) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("smoke: METRICS FAIL — exposition does not parse: {e}");
            return 1;
        }
    };
    let mut failed = 0usize;
    let mut check = |what: &str, got: Option<i64>, ok: &dyn Fn(i64) -> bool| match got {
        Some(v) if ok(v) => eprintln!("smoke: METRICS {what} OK ({v})"),
        other => {
            eprintln!("smoke: METRICS FAIL — {what} is {other:?}");
            failed += 1;
        }
    };
    match shards {
        None => {
            // `--addr` may point at a router rather than a server; a merged
            // exposition labels every shard sample, so fall back to the
            // `shard="fleet"` sums when the plain samples are absent.
            check(
                "qppt_requests_total{verb=RUN}",
                expo.value("qppt_requests_total", &[("verb", "RUN")])
                    .or_else(|| {
                        expo.value(
                            "qppt_requests_total",
                            &[("shard", "fleet"), ("verb", "RUN")],
                        )
                    }),
                &|v| v >= 3,
            );
            check(
                "qppt_uptime_seconds",
                expo.value("qppt_uptime_seconds", &[])
                    .or_else(|| expo.value("qppt_uptime_seconds", &[("shard", "fleet")])),
                &|v| v >= 0,
            );
        }
        Some(n) => {
            let per_shard: Vec<Option<i64>> = (0..n)
                .map(|i| {
                    expo.value(
                        "qppt_requests_total",
                        &[("shard", &i.to_string()), ("verb", "RUN")],
                    )
                })
                .collect();
            for (i, got) in per_shard.iter().enumerate() {
                check(
                    &format!("qppt_requests_total{{shard={i},verb=RUN}}"),
                    *got,
                    &|v| v >= 3,
                );
            }
            let sum: Option<i64> = per_shard.into_iter().sum();
            check(
                "qppt_requests_total{shard=fleet,verb=RUN}",
                expo.value(
                    "qppt_requests_total",
                    &[("shard", "fleet"), ("verb", "RUN")],
                ),
                &|v| Some(v) == sum,
            );
            check(
                "qppt_router_requests_total{verb=RUN}",
                expo.value("qppt_router_requests_total", &[("verb", "RUN")]),
                &|v| v >= 3,
            );
            check(
                "qppt_router_merge_micros_count",
                expo.value("qppt_router_merge_micros_count", &[]),
                &|v| v >= 3,
            );
            let partial_tier = expo
                .samples
                .iter()
                .filter(|s| s.label("tier") == Some("partial"))
                .count();
            check(
                "samples labeled tier=partial",
                Some(partial_tier as i64),
                &|v| v == 0,
            );
        }
    }
    failed
}

/// The shared probe set: five named aliases, two ad-hoc `QUERY`s, one
/// deliberately malformed `QUERY` — all checked against the sequential
/// oracle. `q3.2` has the widest group set, with string group values that
/// every shard reports, so routed it is the largest merge. `q4.2` is the
/// one SSB query whose three assists (supplier, part, date) each carry a
/// group column, so every assist writes into the join buffer's rows. The
/// second ad-hoc query groups on cities drawn from all over the customer
/// dictionary, so its packed group key is wide and its groups far apart.
/// Every probe but the malformed one is sent twice (see [`probe_twice`]).
/// Returns the number of failures.
fn run_probes(
    client: &mut QpptClient,
    engine: &QpptEngine,
    opts: &PlanOptions,
    extra: &[(&str, &str)],
) -> usize {
    let mut failed = 0usize;
    let mut options = vec![("parallelism", "2")];
    options.extend_from_slice(extra);
    let cached = !extra.contains(&("cache", "off"));
    for (name, spec) in [
        ("q1.1", queries::q1_1()),
        ("q2.3", queries::q2_3()),
        ("q3.2", queries::q3_2()),
        ("q4.1", queries::q4_1()),
        ("q4.2", queries::q4_2()),
    ] {
        let expected = engine.run(&spec, opts).expect("sequential oracle runs");
        failed += probe_twice(name, &expected, cached, || client.run(name, &options));
    }

    // Ad-hoc frontend probes: queries the server has no name for, written
    // in the qppt-query language, checked against the locally parsed spec.
    for (what, text) in [
        ("ad-hoc QUERY", ADHOC),
        ("scattered ad-hoc QUERY", SCATTERED_ADHOC),
    ] {
        let spec = qppt_query::parse(text).expect("smoke ad-hoc text parses");
        let expected = engine.run(&spec, opts).expect("ad-hoc oracle runs");
        failed += probe_twice(what, &expected, cached, || client.query(text, &options));
    }

    // And a deliberately malformed QUERY must come back as a structured
    // ERR on a connection that keeps serving.
    match client.query(
        "fact=lineorder dim=date[join=d_datekey:lo_orderdate;d_frob=1] agg=sum(lo_revenue):r",
        &[],
    ) {
        Err(qppt_server::ClientError::Server(msg)) => {
            eprintln!("smoke: malformed QUERY OK — ERR {msg}");
            if client.ping().is_err() {
                eprintln!("smoke: FAIL — connection died after malformed QUERY");
                failed += 1;
            }
        }
        other => {
            eprintln!("smoke: malformed QUERY FAIL — want server ERR, got {other:?}");
            failed += 1;
        }
    }

    failed
}

/// Connections [`concurrent_probes`] sends from at once.
const LOAD_CONNECTIONS: usize = 3;

/// The probe set under load: [`LOAD_CONNECTIONS`] connections each run
/// [`run_probes`] at the same time with `cache=off`, so every probe
/// executes beside the others. Returns the number of failures.
fn concurrent_probes(addr: &str, engine: &QpptEngine, opts: &PlanOptions) -> usize {
    eprintln!(
        "smoke: {LOAD_CONNECTIONS} connections send every probe at once \
         (cache=off parallelism=2) …"
    );
    std::thread::scope(|s| {
        let conns: Vec<_> = (0..LOAD_CONNECTIONS)
            .map(|_| {
                s.spawn(|| match QpptClient::connect(addr) {
                    Ok(mut client) => run_probes(&mut client, engine, opts, &[("cache", "off")]),
                    Err(e) => {
                        eprintln!("smoke: FAIL — load connection: {e}");
                        1
                    }
                })
            })
            .collect();
        conns.into_iter().map(|c| c.join().unwrap_or(1)).sum()
    })
}

/// The ad-hoc probe: supplier nations by year in Asia.
const ADHOC: &str = "fact=lineorder \
     dim=supplier[join=s_suppkey:lo_suppkey;s_region='ASIA';carry=s_nation] \
     dim=date[join=d_datekey:lo_orderdate;d_year between 1992 and 1997;carry=d_year] \
     agg=sum(lo_revenue):revenue group=supplier.s_nation,date.d_year \
     order=group:1,agg:0:desc id=smoke-adhoc";

/// The scattered ad-hoc probe: Q3.3's drill-down over customer cities of
/// eight nations across the dictionary.
const SCATTERED_ADHOC: &str = "fact=lineorder \
     dim=customer[join=c_custkey:lo_custkey;c_city in 'ALGERIA  1','BRAZIL   3',\
     'CHINA    5','FRANCE   7','JAPAN    2','PERU     4','ROMANIA  6','UNITED ST0';\
     carry=c_city] \
     dim=supplier[join=s_suppkey:lo_suppkey;s_city in 'ALGERIA  1','BRAZIL   3',\
     'CHINA    5','FRANCE   7','JAPAN    2','PERU     4','ROMANIA  6','UNITED ST0';\
     carry=s_city] \
     dim=date[join=d_datekey:lo_orderdate;d_year between 1992 and 1997;carry=d_year] \
     agg=sum(lo_revenue):revenue group=customer.c_city,supplier.s_city,date.d_year \
     order=group:2,agg:0:desc id=smoke-scattered";

/// Sends one probe twice; both answers must equal the oracle's `expected`,
/// and so each other. The first may run cold; with `cached` (no
/// `cache=off` among the options) the repeat must come from a result tier,
/// a server's or the router's: one of its op lines is the tier's
/// `cache: result hit` record. Returns the number of failures.
fn probe_twice(
    what: &str,
    expected: &QueryResult,
    cached: bool,
    mut send: impl FnMut() -> Result<Served, ClientError>,
) -> usize {
    let mut failed = 0;
    for attempt in ["first", "repeat"] {
        match send() {
            Ok(served) if served.result == *expected => {
                let hit = served
                    .stats
                    .op_lines
                    .iter()
                    .any(|l| l.contains("cache: result hit"));
                if attempt == "repeat" && cached && !hit {
                    eprintln!(
                        "smoke: {what} repeat FAIL — not a result hit: {:?}",
                        served.stats.op_lines
                    );
                    failed += 1;
                    continue;
                }
                eprintln!(
                    "smoke: {what} {attempt} OK — {} rows byte-identical{} (server total {} µs)",
                    expected.rows.len(),
                    if hit { ", result hit" } else { "" },
                    served.stats.total_micros
                );
            }
            Ok(served) => {
                eprintln!(
                    "smoke: {what} {attempt} MISMATCH — served {} rows, expected {}",
                    served.result.rows.len(),
                    expected.rows.len()
                );
                failed += 1;
            }
            Err(e) => {
                eprintln!("smoke: {what} {attempt} FAIL — {e}");
                failed += 1;
            }
        }
    }
    failed
}
