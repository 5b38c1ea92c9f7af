//! Replica failover end to end, driven by the chaos proxy: all 13 SSB
//! queries stay byte-identical to the single-node oracle while replicas
//! are killed before, during, and between requests — and the
//! `qppt_router_failovers_total` / `qppt_router_replicas_live` metrics
//! match the injected fault script exactly.
//!
//! Topology: 2 ranges × 2 replicas. Each range is one shard engine served
//! on one listener, with **two** chaos proxies in front of it — the two
//! proxy addresses are the range's replica set, so killing a "replica"
//! is killing its proxy while the data stays identical by construction
//! (which is exactly the property real replicas have: same `--shard i/n`,
//! same data).
//!
//! Script:
//! 1. baseline — fleet healthy, 13/13 byte-identical, 0 failovers, 4 live,
//!    and the round-robin read balancer spread the sweep over both
//!    replicas of every range (`qppt_router_replica_requests_total`);
//! 2. kill a range-0 replica **between requests** — the first query the
//!    rotation lands on it fails over to the sibling (1 failover, 3
//!    live), conviction drops it from the rotation so the rest of the
//!    sweep sees no further failovers;
//! 3. revive; the prober flips the replica back (4 live) without traffic;
//! 4. kill **during a response** (truncated `P` lines) — one failover,
//!    bytes still identical;
//! 5. flap the range-1 primary (kill → failover → revive → probe
//!    recovery);
//! 6. whole-range outage — one bounded structured `ERR range 0
//!    unavailable` in < 2 × (connect_timeout + read_timeout), the client
//!    connection survives, and the failover counter does **not** move.

use std::sync::Arc;
use std::time::{Duration, Instant};

use qppt_core::{prepare_indexes, PlanOptions, QpptEngine};
use qppt_obs::parse_exposition;
use qppt_par::WorkerPool;
use qppt_router::{
    serve_router, ChaosMode, ChaosProxy, Router, RouterCacheConfig, RouterConfig, RouterObs,
};
use qppt_server::{serve, ClientError, QpptClient, ServeEngine};
use qppt_ssb::{queries, SsbDb};
use qppt_storage::QueryResult;

const SF: f64 = 0.005;
const SEED: u64 = 42;
const RANGES: usize = 2;
const REPLICAS: usize = 2;

fn router_metric(router: &Router, name: &str) -> i64 {
    let obs = router.obs().expect("obs attached");
    parse_exposition(&obs.render())
        .expect("router exposition parses")
        .value(name, &[])
        .expect("metric present")
}

fn failovers(router: &Router) -> i64 {
    router_metric(router, "qppt_router_failovers_total")
}

/// Range exchanges answered by `replica` of `shard` (0 when the series
/// was never registered — that replica never answered).
fn replica_requests(router: &Router, shard: usize, replica: usize) -> i64 {
    let obs = router.obs().expect("obs attached");
    let (s, r) = (shard.to_string(), replica.to_string());
    parse_exposition(&obs.render())
        .expect("router exposition parses")
        .value(
            "qppt_router_replica_requests_total",
            &[("shard", s.as_str()), ("replica", r.as_str())],
        )
        .unwrap_or(0)
}

fn replicas_live(router: &Router) -> i64 {
    router_metric(router, "qppt_router_replicas_live")
}

/// Polls until the live gauge reaches `want` (the prober runs on its own
/// schedule).
fn wait_live(router: &Router, want: i64, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        let live = replicas_live(router);
        if live == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "replicas_live stuck at {live}, want {want}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Runs queries `ids` through the router and asserts byte-identity to the
/// oracle for each.
fn sweep(client: &mut QpptClient, oracle: &[(String, QueryResult)], ids: &[&str], phase: &str) {
    for id in ids {
        let expected = &oracle
            .iter()
            .find(|(q, _)| q == id)
            .expect("oracle has query")
            .1;
        let served = client
            .run(id, &[])
            .unwrap_or_else(|e| panic!("{phase}: {id} failed: {e:?}"));
        assert_eq!(&served.result, expected, "{phase}: {id} byte-identity");
    }
}

#[test]
fn failover_keeps_all_queries_byte_identical_with_exact_metrics() {
    let pool = WorkerPool::new(2, 8);
    let defaults = PlanOptions::default()
        .with_parallelism(2)
        .with_par_index_build(true);

    // One engine per range, each fronted by two chaos proxies = two
    // replicas serving identical data.
    let shards: Vec<_> = (0..RANGES)
        .map(|i| {
            let engine = Arc::new(
                ServeEngine::with_ssb_shard(SF, SEED, pool.clone(), defaults, i, RANGES)
                    .expect("shard engine builds"),
            );
            serve(engine, "127.0.0.1:0").expect("shard binds")
        })
        .collect();
    let proxies: Vec<Vec<Arc<ChaosProxy>>> = shards
        .iter()
        .map(|h| {
            (0..REPLICAS)
                .map(|_| ChaosProxy::start(h.addr().to_string()).expect("proxy binds"))
                .collect()
        })
        .collect();
    let fleet: Vec<Vec<String>> = proxies
        .iter()
        .map(|range| range.iter().map(|p| p.addr()).collect())
        .collect();

    let connect_timeout = Duration::from_secs(2);
    let read_timeout = Duration::from_secs(5);
    let mut config = RouterConfig::with_fleet(fleet);
    config.connect_timeout = connect_timeout;
    config.read_timeout = read_timeout;
    config.retry_budget = 4;
    config.retry_backoff = Duration::from_millis(5);
    config.retry_backoff_cap = Duration::from_millis(50);
    config.probe_interval = Duration::from_millis(50);
    config.probe_backoff_cap = Duration::from_millis(200);
    // The fault script pins *exact* failover and replica-request counts
    // across repeated sweeps of the same 13 queries — the router cache
    // would serve repeats without touching the fleet, so it stays off
    // here (router_equivalence exercises caching under chaos).
    config.cache = RouterCacheConfig::disabled();
    let router = Arc::new(Router::new(config).with_obs(RouterObs::new(RANGES, None)));
    router
        .wait_for_shards(Duration::from_secs(60))
        .expect("fleet answers PING through the proxies");
    let rh = serve_router(router.clone(), "127.0.0.1:0").expect("router binds");

    // The single-node oracle: same data, no sharding, no replication.
    let opts = PlanOptions::default();
    let mut ssb = SsbDb::generate(SF, SEED);
    for q in queries::all_queries() {
        prepare_indexes(&mut ssb.db, &q, &opts).expect("indexes build");
    }
    let engine = QpptEngine::new(&ssb.db);
    let oracle: Vec<(String, QueryResult)> = queries::all_queries()
        .into_iter()
        .map(|q| {
            let expected = engine.run(&q, &opts).expect("oracle runs");
            (q.id.to_string(), expected)
        })
        .collect();
    let all_ids: Vec<&str> = oracle.iter().map(|(id, _)| id.as_str()).collect();

    let mut client = QpptClient::connect(rh.addr()).expect("connect router");

    // 1. Baseline: healthy fleet, no failovers, everything live — and the
    // round-robin read balancer spread the sweep over *both* replicas of
    // every range (each range answers once per routed query).
    sweep(&mut client, &oracle, &all_ids, "baseline");
    assert_eq!(failovers(&router), 0, "baseline failovers");
    assert_eq!(replicas_live(&router), 4, "baseline live");
    for shard in 0..RANGES {
        let counts: Vec<i64> = (0..REPLICAS)
            .map(|r| replica_requests(&router, shard, r))
            .collect();
        assert!(
            counts.iter().all(|&c| c > 0),
            "shard {shard} read spread: {counts:?}"
        );
        assert_eq!(
            counts.iter().sum::<i64>(),
            all_ids.len() as i64,
            "shard {shard} answers one exchange per routed query"
        );
    }

    // 2. Kill one range-0 replica between requests. The first query the
    // rotation lands on it fails over to the sibling (exactly one
    // failover); conviction drops the dead replica out of the rotation,
    // so the rest of the sweep rides the live sibling directly.
    proxies[0][0].kill();
    sweep(&mut client, &oracle, &all_ids, "primary killed");
    assert_eq!(failovers(&router), 1, "kill-primary failovers");
    assert_eq!(replicas_live(&router), 3, "kill-primary live");

    // 3. Revive: the prober flips the replica back without any traffic.
    proxies[0][0].revive().expect("revive primary");
    wait_live(&router, 4, Duration::from_secs(10));
    assert!(
        router_metric(&router, "qppt_router_probe_recoveries_total") >= 1,
        "recovery came from the prober"
    );

    // 4. Kill during the response: the faulty replica truncates after 3
    // lines (status + header + one `P` row), so the router sees a
    // mid-body death and fails over — bytes still identical, exactly one
    // more failover. Two queries, because round-robin guarantees only
    // that one of two consecutive requests lands on the faulty replica
    // (the other rides its live sibling; after the first hit it is
    // convicted and drops out of the rotation). Pass is restored before
    // the rest of the sweep so the counter stays exact.
    proxies[0][0].set_mode(ChaosMode::Truncate(3));
    sweep(
        &mut client,
        &oracle,
        &all_ids[..2],
        "truncated mid-response",
    );
    assert_eq!(failovers(&router), 2, "truncate failovers");
    proxies[0][0].set_mode(ChaosMode::Pass);
    wait_live(&router, 4, Duration::from_secs(10));
    sweep(&mut client, &oracle, &all_ids[2..], "after truncate");
    assert_eq!(failovers(&router), 2, "sweep after truncate is clean");

    // 5. Flap a range-1 replica: kill (one failover within two queries,
    // as in step 4), revive (probe recovery), then a clean sweep.
    proxies[1][0].kill();
    sweep(
        &mut client,
        &oracle,
        &all_ids[..2],
        "range-1 primary killed",
    );
    assert_eq!(failovers(&router), 3, "flap failovers");
    assert_eq!(replicas_live(&router), 3, "flap live");
    proxies[1][0].revive().expect("revive range-1 primary");
    wait_live(&router, 4, Duration::from_secs(10));
    sweep(&mut client, &oracle, &all_ids, "after flap");
    assert_eq!(failovers(&router), 3, "sweep after flap is clean");

    // 6. Whole-range outage: both range-0 replicas die. The client gets
    // one bounded structured error — never a hang, never a partial-as-
    // complete — the connection survives, and no failover is recorded
    // (nothing succeeded).
    proxies[0][0].kill();
    proxies[0][1].kill();
    let t0 = Instant::now();
    match client.run(all_ids[0], &[]) {
        Err(ClientError::Server(msg)) => {
            assert!(
                msg.contains("range 0 unavailable"),
                "want structured range error, got: {msg}"
            );
        }
        other => panic!("want ERR range 0 unavailable, got {other:?}"),
    }
    assert!(
        t0.elapsed() < 2 * (connect_timeout + read_timeout),
        "whole-range outage must error within the bound, took {:?}",
        t0.elapsed()
    );
    assert_eq!(failovers(&router), 3, "an outage is not a failover");
    assert_eq!(replicas_live(&router), 2, "outage live");
    client
        .ping()
        .expect("router connection survives the outage");

    // Revive the range and finish with a full byte-identical sweep.
    proxies[0][0].revive().expect("revive replica 0");
    proxies[0][1].revive().expect("revive replica 1");
    wait_live(&router, 4, Duration::from_secs(10));
    sweep(&mut client, &oracle, &all_ids, "after outage");
    assert_eq!(failovers(&router), 3, "final failover count");

    client.quit().expect("clean quit");
    rh.stop();
    for range in &proxies {
        for p in range {
            p.kill();
        }
    }
    for h in shards {
        h.stop();
    }
    pool.shutdown();
}

/// The router cache under chaos: a topology swap invalidates every merged
/// entry via the generation and re-scatters to every range, where each
/// shard answers from its own result tier; replica death leaves warm
/// merged hits serving untouched (the data cannot have changed — only the
/// transport did), and `CACHE CLEAR` re-scatters cold, not stale.
/// Byte-identity to the single-node oracle holds throughout.
#[test]
fn cached_serving_survives_topology_swaps_and_replica_chaos() {
    let pool = WorkerPool::new(2, 8);
    let defaults = PlanOptions::default()
        .with_parallelism(2)
        .with_par_index_build(true);

    let shards: Vec<_> = (0..RANGES)
        .map(|i| {
            // Instrumented shards: the final cross-surface check scrapes
            // the fleet-merged METRICS exposition through the router.
            let engine = Arc::new(
                ServeEngine::with_ssb_shard(SF, SEED, pool.clone(), defaults, i, RANGES)
                    .expect("shard engine builds")
                    .with_obs(qppt_server::ServeObs::new(None)),
            );
            serve(engine, "127.0.0.1:0").expect("shard binds")
        })
        .collect();
    let proxies: Vec<Vec<Arc<ChaosProxy>>> = shards
        .iter()
        .map(|h| {
            (0..REPLICAS)
                .map(|_| ChaosProxy::start(h.addr().to_string()).expect("proxy binds"))
                .collect()
        })
        .collect();
    let fleet: Vec<Vec<String>> = proxies
        .iter()
        .map(|range| range.iter().map(|p| p.addr()).collect())
        .collect();

    let mut config = RouterConfig::with_fleet(fleet.clone());
    config.probe_interval = Duration::from_millis(50);
    // A staleness bound far past the test's runtime: once a range's
    // version vector is probed it stays trusted, so every post-phase
    // counter below is exact (no re-probe races).
    config.cache.probe_interval = Duration::from_secs(60);
    let router = Arc::new(Router::new(config).with_obs(RouterObs::new(RANGES, None)));
    router
        .wait_for_shards(Duration::from_secs(60))
        .expect("fleet answers PING through the proxies");
    let rh = serve_router(router.clone(), "127.0.0.1:0").expect("router binds");

    let opts = PlanOptions::default();
    let mut ssb = SsbDb::generate(SF, SEED);
    for q in queries::all_queries() {
        prepare_indexes(&mut ssb.db, &q, &opts).expect("indexes build");
    }
    let engine = QpptEngine::new(&ssb.db);
    let ids = ["q1.1", "q2.3", "q3.1"];
    let oracle: Vec<(String, QueryResult)> = queries::all_queries()
        .into_iter()
        .filter(|q| ids.contains(&q.id.to_ascii_lowercase().as_str()))
        .map(|q| {
            let expected = engine.run(&q, &opts).expect("oracle runs");
            (q.id.to_ascii_lowercase(), expected)
        })
        .collect();
    let n = ids.len() as u64;

    let mut client = QpptClient::connect(rh.addr()).expect("connect router");
    let stat = |kvs: &[(String, String)], key: &str| -> u64 {
        kvs.iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or_else(|| panic!("missing/non-numeric CACHE STATS field {key}"))
    };
    let fleet_exchanges = |router: &Router| -> i64 {
        (0..RANGES)
            .map(|s| {
                (0..REPLICAS)
                    .map(|r| replica_requests(router, s, r))
                    .sum::<i64>()
            })
            .sum()
    };

    // Phase 1 — cold fill + warm merged hits.
    sweep(&mut client, &oracle, &ids, "cache-on cold");
    sweep(&mut client, &oracle, &ids, "cache-on warm");
    let s1 = client.cache_stats().expect("stats");
    assert_eq!(
        stat(&s1, "router_result_misses"),
        n,
        "one merged miss per cold query"
    );
    assert_eq!(
        stat(&s1, "router_result_hits"),
        n,
        "one merged hit per warm query"
    );
    assert_eq!(
        stat(&s1, "router_probes"),
        RANGES as u64,
        "first cold query probes each range once"
    );
    let exchanges_cold = fleet_exchanges(&router);
    assert_eq!(
        exchanges_cold,
        (n as i64) * RANGES as i64,
        "warm hits never touch the fleet"
    );

    // Phase 2 — swap to the *same* fleet: a new topology generation. Every
    // merged entry invalidates and the sweep re-scatters to every range;
    // no shard's versions moved, so each answers from its own result tier.
    router
        .swap_fleet(fleet.clone())
        .expect("swap to same fleet");
    sweep(&mut client, &oracle, &ids, "after swap");
    let s2 = client.cache_stats().expect("stats");
    assert_eq!(
        stat(&s2, "router_result_invalidations") - stat(&s1, "router_result_invalidations"),
        n,
        "the swap invalidates every merged entry"
    );
    assert_eq!(
        stat(&s2, "router_result_misses"),
        stat(&s1, "router_result_misses")
    );
    assert_eq!(
        stat(&s2, "result_hits") - stat(&s1, "result_hits"),
        n * RANGES as u64,
        "every shard answers the re-scatter from its result tier"
    );
    assert_eq!(
        stat(&s2, "router_probes") - stat(&s1, "router_probes"),
        RANGES as u64,
        "the new generation re-probes each range once"
    );
    let exchanges_swapped = fleet_exchanges(&router);
    assert_eq!(
        exchanges_swapped - exchanges_cold,
        (n as i64) * RANGES as i64,
        "the post-swap sweep scatters to every range once per query"
    );

    // Phase 3 — kill a replica. Warm merged hits keep serving: within the
    // staleness bound the data cannot have changed, so the dead transport
    // is never consulted and no failover fires.
    proxies[0][0].kill();
    sweep(&mut client, &oracle, &ids, "replica dead, cache warm");
    // Failovers are read before CACHE STATS: the stats *broadcast* itself
    // fans out to the fleet and is allowed to fail over — the cached
    // query path above must not have.
    assert_eq!(failovers(&router), 0, "cached hits cannot fail over");
    assert_eq!(fleet_exchanges(&router), exchanges_swapped);
    let s3 = client.cache_stats().expect("stats");
    assert_eq!(
        stat(&s3, "router_result_hits") - stat(&s2, "router_result_hits"),
        n,
        "cached serving is unaffected by the dead replica"
    );
    assert_eq!(stat(&s3, "router_probes"), stat(&s2, "router_probes"));

    // Phase 4 — revive, then CACHE CLEAR: cleared is *cold*, not stale.
    // The sweep re-scatters in full (fresh misses, no invalidations) and
    // the kept version vectors mean no re-probe either.
    proxies[0][0].revive().expect("revive replica");
    wait_live(&router, (RANGES * REPLICAS) as i64, Duration::from_secs(10));
    client.cache_clear().expect("routed CACHE CLEAR");
    sweep(&mut client, &oracle, &ids, "after clear");
    let s4 = client.cache_stats().expect("stats");
    assert_eq!(
        stat(&s4, "router_result_misses") - stat(&s3, "router_result_misses"),
        n,
        "cleared entries re-fill as misses"
    );
    assert_eq!(
        stat(&s4, "router_result_invalidations"),
        stat(&s3, "router_result_invalidations")
    );
    assert_eq!(
        stat(&s4, "router_probes"),
        stat(&s3, "router_probes"),
        "CACHE CLEAR keeps the probed version vectors"
    );
    assert_eq!(
        fleet_exchanges(&router) - exchanges_swapped,
        (n as i64) * RANGES as i64,
        "the post-clear sweep scatters in full"
    );

    // The routed METRICS exposition agrees with CACHE STATS field for
    // field — both read one snapshot of the same tier — and neither
    // surface carries a partial tier.
    let expo = parse_exposition(&client.metrics().expect("routed METRICS"))
        .expect("merged exposition parses");
    for (family, field) in [
        ("qppt_router_cache_hits_total", "hits"),
        ("qppt_router_cache_misses_total", "misses"),
        ("qppt_router_cache_invalidations_total", "invalidations"),
    ] {
        assert_eq!(
            expo.value(family, &[("tier", "result")]),
            Some(stat(&s4, &format!("router_result_{field}")) as i64),
            "{family}{{tier=result}} must equal CACHE STATS router_result_{field}"
        );
    }
    let router_fields: Vec<&str> = s4
        .iter()
        .map(|(k, _)| k.as_str())
        .filter(|k| k.starts_with("router_"))
        .collect();
    assert_eq!(
        router_fields,
        [
            "router_result_hits",
            "router_result_misses",
            "router_result_invalidations",
            "router_result_evictions",
            "router_result_expirations",
            "router_result_entries",
            "router_result_bytes",
            "router_probes",
        ],
        "CACHE STATS carries the result tier and the probe count, nothing else"
    );
    assert!(
        !expo
            .samples
            .iter()
            .any(|s| s.label("tier") == Some("partial")),
        "METRICS carries no tier=\"partial\" sample"
    );
    assert_eq!(
        expo.value("qppt_router_cache_probes_total", &[]),
        Some(stat(&s4, "router_probes") as i64)
    );

    client.quit().expect("clean quit");
    rh.stop();
    for range in &proxies {
        for p in range {
            p.kill();
        }
    }
    for h in shards {
        h.stop();
    }
    pool.shutdown();
}
