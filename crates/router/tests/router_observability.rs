//! The distributed observability contract, end to end over real TCP:
//!
//! * a routed `trace=on` query returns **one stitched span tree**: the
//!   router's `request` root over `scatter` (with every shard's
//!   plan/σ/exec/decode subtree grafted as `shard<i>` on a cold request,
//!   its `result_cache` span on a repeat) and `merge`,
//!   valid under the strict checker (unique ids, parents first, child
//!   micros ≤ parent micros) — with result bytes identical to the
//!   untraced routed run;
//! * routed `METRICS` serves a well-formed merged exposition: every shard
//!   family labeled `shard="<i>"`, summed `shard="fleet"` samples, and
//!   the router's own `qppt_router_*` families;
//! * the fleet-summed cache families agree **exactly** with the routed
//!   `CACHE STATS` sums after a fixed query sequence.

use std::sync::Arc;
use std::time::Duration;

use qppt_core::{prepare_indexes, PlanOptions, QpptEngine};
use qppt_obs::{parse_exposition, validate_span_tree};
use qppt_par::WorkerPool;
use qppt_router::{serve_router, Router, RouterCacheConfig, RouterConfig, RouterObs};
use qppt_server::{serve, QpptClient, ServeEngine, ServeObs, ServerHandle};
use qppt_ssb::{queries, SsbDb};

const SF: f64 = 0.01;
const SEED: u64 = 42;
const SHARDS: usize = 2;

struct Fleet {
    pool: Arc<WorkerPool>,
    shards: Vec<ServerHandle>,
    router: ServerHandle,
}

/// Starts an instrumented 2-shard fleet: every shard and the router carry
/// observability state, so `METRICS` works end to end.
fn start_fleet() -> Fleet {
    let pool = WorkerPool::new(4, 16);
    let defaults = PlanOptions::default()
        .with_parallelism(2)
        .with_par_index_build(true);
    let mut handles = Vec::new();
    let mut addrs = Vec::new();
    for i in 0..SHARDS {
        let engine = ServeEngine::with_ssb_shard(SF, SEED, pool.clone(), defaults, i, SHARDS)
            .expect("shard engine builds")
            .with_obs(ServeObs::new(None));
        let h = serve(Arc::new(engine), "127.0.0.1:0").expect("shard binds");
        addrs.push(h.addr().to_string());
        handles.push(h);
    }
    // Router-side caching stays off: these tests pin *exact* per-shard
    // request counts and full scatter traces across repeated identical
    // queries, which the merged-result tier would intentionally absorb
    // (router_equivalence covers the cached behavior).
    let mut config = RouterConfig::new(addrs);
    config.cache = RouterCacheConfig::disabled();
    let router = Router::new(config).with_obs(RouterObs::new(SHARDS, None));
    router
        .wait_for_shards(Duration::from_secs(30))
        .expect("shards answer PING");
    let router = serve_router(Arc::new(router), "127.0.0.1:0").expect("router binds");
    Fleet {
        pool,
        shards: handles,
        router,
    }
}

impl Fleet {
    fn stop(self) {
        self.router.stop();
        for h in self.shards {
            h.stop();
        }
        self.pool.shutdown();
    }
}

#[test]
fn routed_trace_stitches_every_shard_under_the_router_tree() {
    // The oracle: the sequential engine over the full, unsharded instance.
    let opts = PlanOptions::default();
    let mut ssb = SsbDb::generate(SF, SEED);
    for q in queries::all_queries() {
        prepare_indexes(&mut ssb.db, &q, &opts).expect("indexes build");
    }
    let oracle = QpptEngine::new(&ssb.db);
    let expected = oracle.run(&queries::q3_1(), &opts).expect("oracle runs");

    let fleet = start_fleet();
    let mut client = QpptClient::connect(fleet.router.addr()).expect("connect router");

    // Cold and traced: every shard runs the pipeline, so the stitched tree
    // carries plan/σ/exec/decode under every shard.
    let traced = client
        .run("q3.1", &[("trace", "on")])
        .expect("cold traced run");
    assert_eq!(traced.result, expected, "routed result matches oracle");
    assert_stitched(&traced.stats.spans, &["plan", "sigma", "exec", "decode"]);

    let untraced = client.run("q3.1", &[]).expect("untraced routed run");
    assert_eq!(
        untraced.result, expected,
        "tracing must not change routed bytes"
    );
    assert!(untraced.stats.spans.is_empty(), "no trace ⇒ no spans");

    // A traced repeat: every shard answers its partial from the result
    // tier, so each shard subtree is one result_cache span.
    let repeat = client
        .run("q3.1", &[("trace", "on")])
        .expect("traced repeat");
    assert_eq!(
        repeat.result, expected,
        "a shard hit must not change routed bytes"
    );
    assert_stitched(&repeat.stats.spans, &["result_cache"]);

    // `cache=off` fleet-wide (the forwarded line carries it, so every
    // shard bypasses its tiers): the pipeline again, one scatter on the
    // router, the same stitched shape as the cold run.
    let bypass = client
        .run("q3.1", &[("trace", "on"), ("cache", "off")])
        .expect("traced bypass");
    assert_eq!(
        bypass.result, expected,
        "cache=off must not change routed bytes"
    );
    assert_stitched(&bypass.stats.spans, &["plan", "sigma", "exec", "decode"]);

    client.quit().expect("clean quit");
    fleet.stop();
}

/// The stitched routed trace: request root, scatter + merge under it, one
/// `shard<i>` subtree per shard under scatter, each holding the shard
/// spans `shard_spans`.
fn assert_stitched(spans: &[qppt_obs::SpanRec], shard_spans: &[&str]) {
    validate_span_tree(spans).expect("stitched span tree validates");
    let root = &spans[0];
    assert_eq!(root.name, "request");
    assert_eq!(root.parent, None);
    let span = |name: &str| {
        spans
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("span {name} missing from {spans:?}"))
    };
    let scatter = span("scatter");
    assert_eq!(scatter.parent, Some(root.id));
    assert_eq!(span("merge").parent, Some(root.id));
    for i in 0..SHARDS {
        let shard = span(&format!("shard{i}"));
        assert_eq!(shard.parent, Some(scatter.id), "shard{i} under scatter");
        assert!(
            shard.micros <= scatter.micros,
            "shard{i} total ({}) exceeds the scatter wall ({})",
            shard.micros,
            scatter.micros
        );
        // The shard's own spans survived the graft, and only they did.
        let children: Vec<&str> = spans
            .iter()
            .filter(|s| s.parent == Some(shard.id))
            .map(|s| s.name.as_str())
            .collect();
        assert_eq!(children, shard_spans, "shard{i} subtree: {spans:?}");
    }
}

#[test]
fn routed_metrics_merge_fleet_sums_and_cache_stats_agree() {
    let fleet = start_fleet();
    let mut client = QpptClient::connect(fleet.router.addr()).expect("connect router");

    // A fixed sequence: 2 routed RUNs (cold + warm per shard) + 1 PING.
    client.run("q2.3", &[]).expect("cold routed run");
    client.run("q2.3", &[]).expect("warm routed run");
    client.ping().expect("ping");

    let stats = client.cache_stats().expect("routed CACHE STATS");
    let text = client.metrics().expect("routed METRICS");
    let expo = parse_exposition(&text).expect("merged exposition parses strictly");

    // Per-shard labels and the fleet sum: each shard served exactly the 2
    // scattered RUNs, and fleet = shard0 + shard1.
    let shard_runs: Vec<i64> = (0..SHARDS)
        .map(|i| {
            expo.value(
                "qppt_requests_total",
                &[("shard", &i.to_string()), ("verb", "RUN")],
            )
            .unwrap_or_else(|| panic!("missing shard {i} RUN counter"))
        })
        .collect();
    assert_eq!(shard_runs, vec![2, 2], "each shard saw both scattered RUNs");
    assert_eq!(
        expo.value(
            "qppt_requests_total",
            &[("shard", "fleet"), ("verb", "RUN")]
        ),
        Some(shard_runs.iter().sum()),
        "fleet sample must sum the shard samples"
    );

    // The router's own families ride along, un-labeled by shard.
    assert_eq!(
        expo.value("qppt_router_requests_total", &[("verb", "RUN")]),
        Some(2)
    );
    assert_eq!(
        expo.value("qppt_router_requests_total", &[("verb", "PING")]),
        Some(1)
    );
    assert_eq!(expo.value("qppt_router_merge_micros_count", &[]), Some(2));
    for i in 0..SHARDS {
        assert_eq!(
            expo.value(
                "qppt_router_shard_rtt_micros_count",
                &[("shard", &i.to_string())]
            ),
            Some(2),
            "one RTT observation per scattered RUN on shard {i}"
        );
    }
    assert_eq!(expo.value("qppt_router_retries_total", &[]), Some(0));
    assert!(expo.value("qppt_router_uptime_seconds", &[]).is_some());

    // CACHE STATS (fleet-summed key=value) and the fleet-summed cache
    // families agree exactly — both surfaces scrape the same per-shard
    // snapshots and sum them the same way.
    let stat = |key: &str| -> i64 {
        stats
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.parse().expect("numeric CACHE STATS field"))
            .unwrap_or_else(|| panic!("missing CACHE STATS field {key}"))
    };
    for (tier, prefix) in [("result", "result"), ("dim", "dim")] {
        for (family, field) in [
            ("qppt_cache_hits_total", "hits"),
            ("qppt_cache_misses_total", "misses"),
            ("qppt_cache_invalidations_total", "invalidations"),
            ("qppt_cache_evictions_total", "evictions"),
            ("qppt_cache_expirations_total", "expirations"),
            ("qppt_cache_entries", "entries"),
            ("qppt_cache_bytes", "bytes"),
        ] {
            assert_eq!(
                expo.value(family, &[("shard", "fleet"), ("tier", tier)]),
                Some(stat(&format!("{prefix}_{field}"))),
                "fleet {family}{{tier={tier}}} must equal summed CACHE STATS \
                 {prefix}_{field}"
            );
        }
    }

    client.quit().expect("clean quit");
    fleet.stop();
}
