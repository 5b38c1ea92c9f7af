//! The router-side result cache: warm routed hits vs the uncached
//! scatter path, and byte-identity across single-shard writes.
//!
//! One fleet of `--shards` prefix-sharded servers behind a `qppt-router`
//! with the routed cache on. Shard-side engine caches are **disabled**
//! throughout, so every partial fetch is a real execute — the numbers
//! isolate the router tier rather than re-measuring the single-node
//! cache (that's `served_hit` / `served_adhoc` in `BENCHMARK.json`). Three
//! phases:
//!
//! 1. **uncached** — `cache=off` requests bypass the router tier: every
//!    request scatters to all shards and re-merges (the pre-cache router).
//! 2. **warm** — the same load with the cache on, after one warming
//!    sweep: merged-tier hits that touch no shard. The bench **exits
//!    non-zero** unless warm ≥ `--min-speedup`× uncached (default 10).
//! 3. **invalidation** — `--cycles` rounds of a real single-shard write
//!    (stop shard 0's listener, `delete_row`, re-serve on the same
//!    address): the next cached request invalidates its merged entry and
//!    re-scatters, and so does the same query after `CACHE CLEAR`. Both
//!    answers are asserted byte-identical to a `cache=off` scatter every
//!    round. Not timed: with engine caches off, both re-scatters do the
//!    same work.
//!
//! A correctness anchor first asserts cold, warm, and `cache=off` answers
//! through the router are all byte-identical to the sequential oracle.
//!
//! Writes `BENCH_ROUTER_CACHE.json`:
//!
//! ```text
//! cargo run --release --bin router_cache -- \
//!     --sf 0.05 --threads 4 --shards 4 --clients 4 --queries 30 \
//!     --cycles 5 --min-speedup 10 --out BENCH_ROUTER_CACHE.json
//! ```

use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qppt_bench::{arg_f64, arg_str, arg_usize, print_table};
use qppt_cache::CacheConfig;
use qppt_core::{prepare_indexes, PlanOptions, QpptEngine};
use qppt_par::WorkerPool;
use qppt_router::{serve_router, Router, RouterConfig};
use qppt_server::{detected_cores, serve, QpptClient, ServeEngine, ServerHandle};
use qppt_ssb::{queries, SsbDb};
use qppt_storage::{Database, QuerySpec};

/// The staleness bound the bench runs under — short enough that each
/// write cycle's one sleep makes the next lookup re-probe.
const PROBE_INTERVAL: Duration = Duration::from_millis(100);

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sf = arg_f64(&args, "--sf", 0.05);
    let seed = 42u64;
    let cores = detected_cores();
    let threads = arg_usize(&args, "--threads", cores.max(2));
    let shards = arg_usize(&args, "--shards", 4);
    let clients = arg_usize(&args, "--clients", 4);
    let queries_per_client = arg_usize(&args, "--queries", 30);
    let parallelism = arg_usize(&args, "--parallelism", 2);
    let cycles = arg_usize(&args, "--cycles", 5);
    let min_speedup = arg_f64(&args, "--min-speedup", 10.0);
    let out_path = arg_str(&args, "--out").unwrap_or_else(|| "BENCH_ROUTER_CACHE.json".to_string());

    let mix: Vec<QuerySpec> = vec![
        queries::q1_1(),
        queries::q2_3(),
        queries::q3_2(),
        queries::q4_1(),
    ];

    // The oracle: the sequential engine over the full, unsharded instance.
    eprintln!("generating SSB at sf={sf} and preparing the oracle …");
    let opts = PlanOptions::default();
    let mut ssb = SsbDb::generate(sf, seed);
    for q in queries::all_queries() {
        prepare_indexes(&mut ssb.db, &q, &opts).expect("SSB prepares");
    }
    let oracle = QpptEngine::new(&ssb.db);
    let expected: Vec<_> = mix
        .iter()
        .map(|q| oracle.run(q, &opts).expect("oracle runs"))
        .collect();

    let pool = WorkerPool::new(threads, clients.max(4) * 2);
    let defaults = PlanOptions::default().with_parallelism(parallelism);

    // Externally owned shard databases so the invalidation phase can land
    // real writes: stop the listener, mutate the then-uniquely-owned
    // database, re-serve on the same
    // address. Engine caches disabled — see the module docs.
    eprintln!("building {shards} shard(s) with engine caches disabled …");
    let mut dbs: Vec<Arc<Database>> = (0..shards)
        .map(|i| {
            let mut shard = SsbDb::generate_shard(sf, seed, i, shards);
            for q in queries::all_queries() {
                prepare_indexes(&mut shard.db, &q, &opts).expect("shard prepares");
            }
            Arc::new(shard.db)
        })
        .collect();
    let serve_shard = |i: usize, db: Arc<Database>, addr: &str| -> ServerHandle {
        let engine = ServeEngine::over_db_with_config(
            db,
            pool.clone(),
            defaults,
            sf,
            seed,
            CacheConfig::disabled(),
        )
        .with_shard_info(i, shards);
        serve(Arc::new(engine), addr).expect("shard binds")
    };
    let mut handles: Vec<ServerHandle> = (0..shards)
        .map(|i| serve_shard(i, dbs[i].clone(), "127.0.0.1:0"))
        .collect();
    let addrs: Vec<String> = handles.iter().map(|h| h.addr().to_string()).collect();

    let mut config = RouterConfig::new(addrs.clone());
    config.cache.probe_interval = PROBE_INTERVAL;
    let router = Arc::new(Router::new(config));
    router
        .wait_for_shards(Duration::from_secs(60))
        .expect("shards answer PING");
    let rh = serve_router(router, "127.0.0.1:0").expect("router binds");
    let raddr = rh.addr().to_string();

    // Correctness anchor before timing anything: cold, warm, and
    // cache=off answers are all byte-identical to the oracle.
    {
        let mut probe = QpptClient::connect(&*raddr).expect("connect router");
        for pass in ["cold", "warm", "cache=off"] {
            for (qi, q) in mix.iter().enumerate() {
                let options: &[(&str, &str)] = if pass == "cache=off" {
                    &[("cache", "off")]
                } else {
                    &[]
                };
                let served = probe
                    .run(&q.id.to_ascii_lowercase(), options)
                    .expect("probe query");
                assert_eq!(
                    served.result, expected[qi],
                    "{} {pass} merged result diverged",
                    q.id
                );
            }
        }
        probe.cache_clear().expect("anchor leaves a cold cache");
    }

    // Phase 1+2: uncached scatter vs warm merged-tier hits.
    eprintln!("timing the uncached scatter path …");
    let uncached_qps = timed_pass(&raddr, &mix, clients, queries_per_client, parallelism, true);
    eprintln!("warming and timing the cached path …");
    {
        let mut warmer = QpptClient::connect(&*raddr).expect("connect router");
        for q in &mix {
            warmer
                .run(&q.id.to_ascii_lowercase(), &[])
                .expect("warm sweep");
        }
    }
    let warm_qps = timed_pass(
        &raddr,
        &mix,
        clients,
        queries_per_client,
        parallelism,
        false,
    );
    let speedup = if uncached_qps > 0.0 {
        warm_qps / uncached_qps
    } else {
        0.0
    };

    // Phase 3: single-shard writes, then the invalidated entry's
    // re-scatter and a CACHE CLEAR re-scatter, both byte-checked.
    eprintln!("invalidation phase: {cycles} write → re-scatter → clear → re-scatter cycles …");
    let mut client = QpptClient::connect(&*raddr).expect("connect router");
    client.run("q2.3", &[]).expect("cycle warm-up");
    for cycle in 0..cycles {
        // The write: shard 0 restarts on its own address with one more
        // fact row deleted — its version vector moves, the others' don't.
        let h0 = handles.remove(0);
        h0.stop();
        {
            let db0 = Arc::get_mut(&mut dbs[0]).expect("listener stopped; db uniquely owned");
            db0.delete_row("lineorder", cycle as u32)
                .expect("the write lands");
        }
        handles.insert(0, serve_shard(0, dbs[0].clone(), &addrs[0]));
        // Sit out the staleness bound so the next lookup re-probes.
        std::thread::sleep(PROBE_INTERVAL + Duration::from_millis(50));
        // The invalidated merged entry re-scatters; its answer must match
        // an uncached scatter of the same post-write fleet.
        let rescattered = client.run("q2.3", &[]).expect("re-scatter query");
        let check = client
            .run("q2.3", &[("cache", "off")])
            .expect("uncached check");
        assert_eq!(
            rescattered.result, check.result,
            "post-write re-scatter diverged from the uncached scatter (cycle {cycle})"
        );

        // CACHE CLEAR drops the tier (probed versions survive), so the
        // same query scatters again.
        client.cache_clear().expect("CACHE CLEAR answers");
        let cleared = client.run("q2.3", &[]).expect("post-clear query");
        assert_eq!(
            cleared.result, check.result,
            "post-clear bytes (cycle {cycle})"
        );
    }

    rh.stop();
    for h in handles {
        h.stop();
    }
    pool.shutdown();

    println!(
        "router cache, sf={sf}, {shards} shards, pool={threads} threads, \
         parallelism={parallelism}, {clients} clients × {queries_per_client} queries:"
    );
    print_table(
        &["pass", "q/s", "vs uncached"],
        &[
            vec![
                "uncached".into(),
                format!("{uncached_qps:.1}"),
                "1.00x".into(),
            ],
            vec![
                "warm".into(),
                format!("{warm_qps:.1}"),
                format!("{speedup:.2}x"),
            ],
        ],
    );
    println!("invalidation: {cycles} single-shard write cycles, every answer byte-identical");

    // Hand-rolled JSON (the workspace is dependency-free by design).
    let json = format!(
        "{{\n  \"bench\": \"router_cache\",\n  \"sf\": {sf},\n  \"cores\": {cores},\n  \"pool_threads\": {threads},\n  \"shards\": {shards},\n  \"parallelism\": {parallelism},\n  \"clients\": {clients},\n  \"queries_per_client\": {queries_per_client},\n  \"mix\": [\"Q1.1\", \"Q2.3\", \"Q3.2\", \"Q4.1\"],\n  \"probe_interval_ms\": {},\n  \"uncached_qps\": {uncached_qps:.3},\n  \"warm_qps\": {warm_qps:.3},\n  \"warm_over_uncached\": {speedup:.3},\n  \"min_speedup\": {min_speedup},\n  \"invalidation\": {{\"cycles\": {cycles}}}\n}}\n",
        PROBE_INTERVAL.as_millis()
    );
    let mut f = std::fs::File::create(&out_path).expect("create output file");
    f.write_all(json.as_bytes()).expect("write output file");
    eprintln!("wrote {out_path}");

    if speedup < min_speedup {
        eprintln!(
            "FAIL: warm routed q/s is only {speedup:.2}x the uncached path, \
             want ≥ {min_speedup}x"
        );
        std::process::exit(1);
    }
}

/// C clients, each on its own connection, round-robin over the mix.
/// `bypass` adds `cache=off` so every request scatters. Returns
/// queries/second.
fn timed_pass(
    addr: &str,
    mix: &[QuerySpec],
    clients: usize,
    queries_per_client: usize,
    parallelism: usize,
    bypass: bool,
) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for ci in 0..clients {
            s.spawn(move || {
                let mut client = QpptClient::connect(addr).expect("connect");
                let par = parallelism.to_string();
                let mut options = vec![("parallelism", par.as_str())];
                if bypass {
                    options.push(("cache", "off"));
                }
                for i in 0..queries_per_client {
                    let q = &mix[(ci + i) % mix.len()];
                    client
                        .run(&q.id.to_ascii_lowercase(), &options)
                        .expect("timed query");
                }
            });
        }
    });
    (clients * queries_per_client) as f64 / t0.elapsed().as_secs_f64()
}
