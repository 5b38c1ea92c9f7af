//! The distributed serving contract, end to end over real TCP:
//!
//! * all 13 SSB queries through a {1, 2, 4}-shard router, at per-request
//!   parallelism {1, 4}, every merged response **byte-identical** to the
//!   sequential single-node engine;
//! * `INFO` fan-out reports the exact fleet row total and shard map;
//! * ad-hoc `QUERY` through the router hits the shard-local dimension-σ
//!   cache tier with exact counters (σ families are shared per shard,
//!   across distinct queries);
//! * the router-side result cache never changes bytes — cold fill, warm
//!   merged-tier hit, and per-request `cache=off` bypass all match the
//!   oracle at every shard count, with exact `router_result_*` /
//!   `router_partial_*` counters;
//! * a write to **one** shard invalidates exactly that range's partial
//!   and the merged results composed from it — the untouched range's
//!   partial keeps hitting and only the written range is re-scattered;
//! * with the router cache off, a routed repeat is answered by every
//!   shard's result tier (partial entries), byte-identical to the oracle.

use std::sync::Arc;
use std::time::Duration;

use qppt_cache::QueryCache;
use qppt_core::{prepare_indexes, PlanOptions, QpptEngine};
use qppt_par::WorkerPool;
use qppt_router::{serve_router, Router, RouterCacheConfig, RouterConfig};
use qppt_server::{serve, QpptClient, ServeEngine, ServerHandle};
use qppt_ssb::{queries, SsbDb};
use qppt_storage::Database;

const SF: f64 = 0.01;
const SEED: u64 = 42;

struct Fleet {
    pool: Arc<WorkerPool>,
    shards: Vec<ServerHandle>,
    router: ServerHandle,
}

fn start_fleet(shards: usize) -> Fleet {
    start_fleet_with(shards, RouterCacheConfig::default())
}

fn start_fleet_with(shards: usize, router_cache: RouterCacheConfig) -> Fleet {
    let pool = WorkerPool::new(4, 16);
    let defaults = PlanOptions::default()
        .with_parallelism(2)
        .with_par_index_build(true);
    let mut handles = Vec::new();
    let mut addrs = Vec::new();
    for i in 0..shards {
        let engine = ServeEngine::with_ssb_shard(SF, SEED, pool.clone(), defaults, i, shards)
            .expect("shard engine builds");
        let h = serve(Arc::new(engine), "127.0.0.1:0").expect("shard binds");
        addrs.push(h.addr().to_string());
        handles.push(h);
    }
    let mut config = RouterConfig::new(addrs);
    config.cache = router_cache;
    let router = Arc::new(Router::new(config));
    router
        .wait_for_shards(Duration::from_secs(30))
        .expect("shards answer PING");
    let router = serve_router(router, "127.0.0.1:0").expect("router binds");
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

fn field<'a>(kvs: &'a [(String, String)], key: &str) -> &'a str {
    kvs.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
        .unwrap_or_else(|| panic!("missing field {key} in {kvs:?}"))
}

#[test]
fn thirteen_queries_byte_identical_at_every_shard_count() {
    // The oracle: the sequential engine over the full, unsharded instance.
    let opts = PlanOptions::default();
    let mut ssb = SsbDb::generate(SF, SEED);
    for q in queries::all_queries() {
        prepare_indexes(&mut ssb.db, &q, &opts).expect("indexes build");
    }
    let total_rows = ssb
        .db
        .table("lineorder")
        .expect("fact table")
        .table()
        .row_count();
    let oracle = QpptEngine::new(&ssb.db);
    let all = queries::all_queries();
    let expected: Vec<_> = all
        .iter()
        .map(|q| oracle.run(q, &opts).expect("oracle runs"))
        .collect();

    for shards in [1usize, 2, 4] {
        let fleet = start_fleet(shards);
        let mut client = QpptClient::connect(fleet.router.addr()).expect("connect router");

        // INFO fan-out: the shard row counts must sum to the full table.
        let info = client.info().expect("router INFO");
        assert_eq!(field(&info, "shards"), shards.to_string());
        assert_eq!(
            field(&info, "rows"),
            total_rows.to_string(),
            "fleet rows must sum to the unsharded instance at {shards} shards"
        );
        for i in 0..shards {
            assert_eq!(
                field(&info, &format!("shard{i}")),
                fleet.shards[i].addr().to_string()
            );
        }
        // The router reports its own uptime and build, plus the fleet's
        // uptime spread (shards started before the router dialed them).
        let _router_uptime: u64 = field(&info, "uptime_secs").parse().expect("uptime parses");
        let uptime_min: u64 = field(&info, "uptime_min_secs").parse().expect("min parses");
        let uptime_max: u64 = field(&info, "uptime_max_secs").parse().expect("max parses");
        assert!(uptime_min <= uptime_max, "shard uptime spread is ordered");
        assert_eq!(field(&info, "build"), env!("CARGO_PKG_VERSION"));

        for par in ["1", "4"] {
            for (qi, q) in all.iter().enumerate() {
                let served = client
                    .run(&q.id.to_ascii_lowercase(), &[("parallelism", par)])
                    .unwrap_or_else(|e| {
                        panic!(
                            "{} via {shards}-shard router (parallelism {par}): {e}",
                            q.id
                        )
                    });
                // Byte-identical: same labels, same rows in the same
                // order, same aggregate values — whatever the shard count
                // and per-shard parallelism.
                assert_eq!(
                    served.result, expected[qi],
                    "{} through {shards}-shard router at parallelism {par}",
                    q.id
                );
            }
        }
        client.quit().expect("clean quit");
        fleet.stop();
    }
}

#[test]
fn adhoc_queries_share_shard_local_sigma_families() {
    // Two distinct ad-hoc queries with identical dimension σ families
    // (same predicates, same carried columns) but a different group-key
    // order — a different plan, a different selection fingerprint. The
    // second must hit the dimension tier on *every* shard.
    let adhoc_a = "fact=lineorder \
         dim=supplier[join=s_suppkey:lo_suppkey;s_region='ASIA';carry=s_nation] \
         dim=date[join=d_datekey:lo_orderdate;d_year between 1993 and 1996;carry=d_year] \
         agg=sum(lo_revenue):rev group=supplier.s_nation,date.d_year \
         order=group:0,group:1 id=sigma-a";
    let adhoc_b = "fact=lineorder \
         dim=supplier[join=s_suppkey:lo_suppkey;s_region='ASIA';carry=s_nation] \
         dim=date[join=d_datekey:lo_orderdate;d_year between 1993 and 1996;carry=d_year] \
         agg=sum(lo_revenue):rev group=date.d_year,supplier.s_nation \
         order=group:0,group:1 id=sigma-b";
    // Dim 0 (supplier) is *fused* into the select-join under the default
    // plan options and never touches the dimension tier; only the date σ
    // is materialized and cached. So: one dim-tier event per query per
    // shard.
    const CACHED_DIMS: u64 = 1;
    const SHARDS: u64 = 2;

    let opts = PlanOptions::default();
    let mut ssb = SsbDb::generate(SF, SEED);
    for q in queries::all_queries() {
        prepare_indexes(&mut ssb.db, &q, &opts).expect("indexes build");
    }
    let spec_a = qppt_query::parse(adhoc_a).expect("ad-hoc A parses");
    let spec_b = qppt_query::parse(adhoc_b).expect("ad-hoc B parses");
    prepare_indexes(&mut ssb.db, &spec_a, &opts).expect("A indexes build");
    prepare_indexes(&mut ssb.db, &spec_b, &opts).expect("B indexes build");
    let oracle = QpptEngine::new(&ssb.db);
    let expected_a = oracle.run(&spec_a, &opts).expect("oracle runs A");
    let expected_b = oracle.run(&spec_b, &opts).expect("oracle runs B");

    let fleet = start_fleet(SHARDS as usize);
    let mut client = QpptClient::connect(fleet.router.addr()).expect("connect router");

    let stat = |kvs: &[(String, String)], key: &str| -> u64 {
        field(kvs, key)
            .parse()
            .unwrap_or_else(|_| panic!("non-numeric {key}"))
    };
    let s0 = client.cache_stats().expect("stats");
    assert_eq!(field(&s0, "shards"), SHARDS.to_string());

    let served_a = client.query(adhoc_a, &[]).expect("A through router");
    assert_eq!(served_a.result, expected_a, "ad-hoc A through router");
    let s1 = client.cache_stats().expect("stats");
    // First sighting of the σ family: every shard materializes both
    // dimension selections itself — summed across the fleet by STATS.
    assert_eq!(
        stat(&s1, "dim_misses") - stat(&s0, "dim_misses"),
        CACHED_DIMS * SHARDS,
        "ad-hoc A must build {CACHED_DIMS} σ selection(s) on each of {SHARDS} shards"
    );
    assert_eq!(stat(&s1, "dim_hits"), stat(&s0, "dim_hits"));

    let served_b = client.query(adhoc_b, &[]).expect("B through router");
    assert_eq!(served_b.result, expected_b, "ad-hoc B through router");
    let s2 = client.cache_stats().expect("stats");
    // Same σ families, different query: shard-local sharing, exactly once
    // per family per shard.
    assert_eq!(
        stat(&s2, "dim_hits") - stat(&s1, "dim_hits"),
        CACHED_DIMS * SHARDS,
        "ad-hoc B must share {CACHED_DIMS} σ selection(s) on each of {SHARDS} shards"
    );
    assert_eq!(
        stat(&s2, "dim_misses"),
        stat(&s1, "dim_misses"),
        "ad-hoc B must not rebuild any σ selection"
    );

    client.quit().expect("clean quit");
    fleet.stop();
}

#[test]
fn router_cache_is_byte_identical_on_off_and_vs_oracle() {
    // The oracle: the sequential engine over the full, unsharded instance.
    let opts = PlanOptions::default();
    let mut ssb = SsbDb::generate(SF, SEED);
    for q in queries::all_queries() {
        prepare_indexes(&mut ssb.db, &q, &opts).expect("indexes build");
    }
    let oracle = QpptEngine::new(&ssb.db);
    let all = queries::all_queries();
    let expected: Vec<_> = all
        .iter()
        .map(|q| oracle.run(q, &opts).expect("oracle runs"))
        .collect();
    let n = all.len() as u64;

    for shards in [1usize, 2, 4] {
        let fleet = start_fleet(shards);
        let mut client = QpptClient::connect(fleet.router.addr()).expect("connect router");
        let stat = |kvs: &[(String, String)], key: &str| -> u64 {
            field(kvs, key)
                .parse()
                .unwrap_or_else(|_| panic!("non-numeric {key}"))
        };

        // Cold sweep: every query fills the merged tier (one miss each)
        // and the partial tier (one miss per range each).
        let s0 = client.cache_stats().expect("stats");
        for (qi, q) in all.iter().enumerate() {
            let served = client
                .run(&q.id.to_ascii_lowercase(), &[])
                .unwrap_or_else(|e| panic!("{} cold at {shards} shards: {e}", q.id));
            assert_eq!(served.result, expected[qi], "{} cold bytes", q.id);
        }
        let s1 = client.cache_stats().expect("stats");
        assert_eq!(
            stat(&s1, "router_result_misses") - stat(&s0, "router_result_misses"),
            n,
            "one merged miss per cold query at {shards} shards"
        );
        assert_eq!(
            stat(&s1, "router_result_hits"),
            stat(&s0, "router_result_hits")
        );
        assert_eq!(
            stat(&s1, "router_partial_misses") - stat(&s0, "router_partial_misses"),
            n * shards as u64,
            "one partial miss per range per cold query"
        );

        // Warm sweep: every query is a merged-tier hit — the partial tier
        // is never consulted (the merged hit short-circuits the scatter).
        for (qi, q) in all.iter().enumerate() {
            let served = client
                .run(&q.id.to_ascii_lowercase(), &[])
                .unwrap_or_else(|e| panic!("{} warm at {shards} shards: {e}", q.id));
            assert_eq!(served.result, expected[qi], "{} warm bytes", q.id);
        }
        let s2 = client.cache_stats().expect("stats");
        assert_eq!(
            stat(&s2, "router_result_hits") - stat(&s1, "router_result_hits"),
            n,
            "one merged hit per warm query at {shards} shards"
        );
        assert_eq!(
            stat(&s2, "router_result_misses"),
            stat(&s1, "router_result_misses")
        );
        assert_eq!(
            stat(&s2, "router_partial_hits"),
            stat(&s1, "router_partial_hits")
        );
        assert_eq!(
            stat(&s2, "router_partial_misses"),
            stat(&s1, "router_partial_misses")
        );

        // Per-request bypass: `cache=off` never touches either router
        // tier and still matches the oracle byte for byte.
        for (qi, q) in all.iter().enumerate() {
            let served = client
                .run(&q.id.to_ascii_lowercase(), &[("cache", "off")])
                .unwrap_or_else(|e| panic!("{} cache=off at {shards} shards: {e}", q.id));
            assert_eq!(served.result, expected[qi], "{} cache=off bytes", q.id);
        }
        let s3 = client.cache_stats().expect("stats");
        for key in [
            "router_result_hits",
            "router_result_misses",
            "router_result_invalidations",
            "router_result_entries",
            "router_partial_hits",
            "router_partial_misses",
            "router_partial_invalidations",
            "router_partial_entries",
        ] {
            assert_eq!(
                stat(&s3, key),
                stat(&s2, key),
                "cache=off must leave {key} untouched at {shards} shards"
            );
        }
        assert_eq!(stat(&s3, "router_result_invalidations"), 0);
        assert_eq!(stat(&s3, "router_partial_invalidations"), 0);

        client.quit().expect("clean quit");
        fleet.stop();
    }
}

#[test]
fn single_shard_write_invalidates_exactly_that_range() {
    const SHARDS: usize = 2;
    let pool = WorkerPool::new(4, 16);
    let opts = PlanOptions::default();
    let defaults = PlanOptions::default().with_parallelism(2);

    // Externally owned shard databases and caches, so a write can land
    // mid-test: stop the shard's listener, mutate the then-uniquely-owned
    // database, re-serve on the *same*
    // address — the router's shard map never moves, so the only signal a
    // cached entry can go stale on is the probed version vector.
    let mut dbs: Vec<Arc<Database>> = (0..SHARDS)
        .map(|i| {
            let mut ssb = SsbDb::generate_shard(SF, SEED, i, SHARDS);
            for q in queries::all_queries() {
                prepare_indexes(&mut ssb.db, &q, &opts).expect("indexes build");
            }
            Arc::new(ssb.db)
        })
        .collect();
    let caches: Vec<Arc<QueryCache>> = (0..SHARDS)
        .map(|_| Arc::new(QueryCache::default()))
        .collect();
    let serve_shard = |i: usize, db: Arc<Database>, addr: &str| -> ServerHandle {
        let engine = ServeEngine::over_db_with_cache(
            db,
            pool.clone(),
            defaults,
            SF,
            SEED,
            caches[i].clone(),
        )
        .with_shard_info(i, SHARDS);
        serve(Arc::new(engine), addr).expect("shard binds")
    };
    let mut handles: Vec<ServerHandle> = (0..SHARDS)
        .map(|i| serve_shard(i, dbs[i].clone(), "127.0.0.1:0"))
        .collect();
    let addrs: Vec<String> = handles.iter().map(|h| h.addr().to_string()).collect();

    // A short staleness bound so the test's one post-write sleep suffices
    // for the next lookup to re-probe instead of trusting the old vector.
    let mut config = RouterConfig::new(addrs.clone());
    config.cache.probe_interval = Duration::from_millis(50);
    let router = Arc::new(Router::new(config));
    router
        .wait_for_shards(Duration::from_secs(30))
        .expect("shards answer PING");
    let rh = serve_router(router, "127.0.0.1:0").expect("router binds");
    let mut client = QpptClient::connect(rh.addr()).expect("connect router");
    let stat = |kvs: &[(String, String)], key: &str| -> u64 {
        field(kvs, key)
            .parse()
            .unwrap_or_else(|_| panic!("non-numeric {key}"))
    };

    // Cold fill + warm merged hit.
    let s0 = client.cache_stats().expect("stats");
    let cold = client.run("q2.3", &[]).expect("cold routed run");
    let warm = client.run("q2.3", &[]).expect("warm routed run");
    assert_eq!(warm.result, cold.result, "warm merged-hit bytes");
    let s1 = client.cache_stats().expect("stats");
    assert_eq!(
        stat(&s1, "router_result_misses") - stat(&s0, "router_result_misses"),
        1
    );
    assert_eq!(
        stat(&s1, "router_result_hits") - stat(&s0, "router_result_hits"),
        1
    );
    assert_eq!(
        stat(&s1, "router_partial_misses") - stat(&s0, "router_partial_misses"),
        2
    );
    assert_eq!(
        stat(&s1, "router_partial_hits"),
        stat(&s0, "router_partial_hits")
    );

    // The write: shard 0 restarts on its own address with one fact row
    // deleted — its table-version vector moves, shard 1's does not.
    let h0 = handles.remove(0);
    h0.stop();
    {
        let db0 = Arc::get_mut(&mut dbs[0]).expect("listener stopped; db uniquely owned");
        db0.delete_row("lineorder", 0).expect("the write lands");
    }
    handles.insert(0, serve_shard(0, dbs[0].clone(), &addrs[0]));
    // Sit out the staleness bound: the next lookup must re-probe.
    std::thread::sleep(Duration::from_millis(120));

    // Exactly range 0 is re-fetched: the merged entry and shard 0's
    // partial register as *invalidations* (same key, moved versions),
    // shard 1's partial keeps hitting, and nothing counts as a miss.
    let post = client.run("q2.3", &[]).expect("post-write routed run");
    let s2 = client.cache_stats().expect("stats");
    assert_eq!(
        stat(&s2, "router_result_invalidations") - stat(&s1, "router_result_invalidations"),
        1,
        "the write invalidates the merged entry"
    );
    assert_eq!(
        stat(&s2, "router_result_misses"),
        stat(&s1, "router_result_misses")
    );
    assert_eq!(
        stat(&s2, "router_result_hits"),
        stat(&s1, "router_result_hits")
    );
    assert_eq!(
        stat(&s2, "router_partial_invalidations") - stat(&s1, "router_partial_invalidations"),
        1,
        "only the written range's partial is invalidated"
    );
    assert_eq!(
        stat(&s2, "router_partial_hits") - stat(&s1, "router_partial_hits"),
        1,
        "the untouched range's partial keeps hitting"
    );
    assert_eq!(
        stat(&s2, "router_partial_misses"),
        stat(&s1, "router_partial_misses")
    );

    // Byte-identity of the re-merge: the cached path agrees with the
    // uncached router over the written fleet…
    let uncached = client
        .run("q2.3", &[("cache", "off")])
        .expect("uncached post-write run");
    assert_eq!(
        post.result, uncached.result,
        "post-write bytes match the uncached router"
    );
    let s3 = client.cache_stats().expect("stats");
    for key in [
        "router_result_hits",
        "router_result_misses",
        "router_result_invalidations",
        "router_partial_hits",
        "router_partial_misses",
        "router_partial_invalidations",
    ] {
        assert_eq!(stat(&s3, key), stat(&s2, key), "cache=off moved {key}");
    }

    // …and the re-merged entry serves warm hits again.
    let rewarm = client.run("q2.3", &[]).expect("re-warmed routed run");
    assert_eq!(rewarm.result, post.result, "re-warmed bytes");
    let s4 = client.cache_stats().expect("stats");
    assert_eq!(
        stat(&s4, "router_result_hits") - stat(&s3, "router_result_hits"),
        1
    );

    client.quit().expect("clean quit");
    rh.stop();
    for h in handles {
        h.stop();
    }
    pool.shutdown();
}

#[test]
fn routed_repeats_are_shard_result_hits() {
    // The oracle: the sequential engine over the full, unsharded instance.
    let opts = PlanOptions::default();
    let mut ssb = SsbDb::generate(SF, SEED);
    for q in queries::all_queries() {
        prepare_indexes(&mut ssb.db, &q, &opts).expect("indexes build");
    }
    let oracle = QpptEngine::new(&ssb.db);
    let all = queries::all_queries();
    let expected: Vec<_> = all
        .iter()
        .map(|q| oracle.run(q, &opts).expect("oracle runs"))
        .collect();
    let stat = |kvs: &[(String, String)], key: &str| -> u64 {
        field(kvs, key)
            .parse()
            .unwrap_or_else(|_| panic!("non-numeric {key}"))
    };

    for shards in [1usize, 2, 4] {
        // No router tier: every routed request scatters, so a repeat can
        // only be answered by the shards' own result tiers.
        let fleet = start_fleet_with(shards, RouterCacheConfig::disabled());
        let mut client = QpptClient::connect(fleet.router.addr()).expect("connect router");
        let mut sweep = |pass: &str| {
            for (qi, q) in all.iter().enumerate() {
                let served = client
                    .run(&q.id.to_ascii_lowercase(), &[])
                    .unwrap_or_else(|e| panic!("{} {pass} at {shards} shards: {e}", q.id));
                assert_eq!(
                    served.result, expected[qi],
                    "{} {pass} pass through {shards}-shard router",
                    q.id
                );
            }
            client.cache_stats().expect("stats")
        };
        let cold = sweep("cold");
        let repeat = sweep("repeat");
        assert_eq!(
            stat(&repeat, "result_hits") - stat(&cold, "result_hits"),
            (all.len() * shards) as u64,
            "every shard answers every repeat from its result tier at {shards} shards"
        );
        assert_eq!(
            stat(&repeat, "result_misses"),
            stat(&cold, "result_misses"),
            "a repeat misses no shard at {shards} shards"
        );
        client.quit().expect("clean quit");
        fleet.stop();
    }
}
