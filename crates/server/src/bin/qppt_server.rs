//! The qppt-server binary: generate SSB, prepare every index on the shared
//! worker pool, and serve the line protocol until a client sends
//! `SHUTDOWN`.
//!
//! ```text
//! cargo run --release --bin qppt-server -- \
//!     --addr 127.0.0.1:7878 --sf 0.05 --seed 42 \
//!     --threads 4 --admission 8 --parallelism 4 \
//!     --cache-dim-mb 256 --cache-ttl-secs 600
//! ```
//!
//! Pool flags: `--threads` sizes the worker pool, which is also its core
//! budget, and `--admission` bounds how many parallel jobs (queries
//! granted more than one core) it queues at once; a query run on one core
//! makes no entry and is not counted. `--parallelism` is the default
//! per-query upper bound on cores.
//!
//! Cache flags: `--no-cache` serves every `RUN` uncached,
//! `--cache-dim-mb` sizes the shared dimension-σ tier's byte budget, and
//! `--cache-ttl-secs` reclaims entries idle for longer (0 = no age limit).
//!
//! Observability: the `METRICS` verb serves a Prometheus text exposition
//! (per-verb request counters and latency histograms, worker-pool and
//! cache-tier families) unless `--no-obs` disables the instrumentation;
//! `--slow-query-micros <n>` additionally logs every request at or above
//! *n* µs wall time to stderr with its query fingerprint (0 = off).
//!
//! Sharding: `--shard i/n` makes this server shard *i* of an *n*-node
//! deployment behind `qppt-router` — the generator keeps only the fact
//! rows whose `lo_orderdate` falls in `shard_bounds(i, n)` (dimension
//! tables are replicated in full), and `INFO` reports `shard=i/n`. All
//! shards must share `--sf` and `--seed`.
//!
//! Replication: `--replica j` stamps this server as replica *j* of its
//! shard's replica set (default 0). Replicas are full peers serving the
//! identical fact partition — the same `--shard i/n`, `--sf`, and
//! `--seed` — so the ordinal is purely descriptive: `INFO` reports
//! `replica=j` and the router uses it to localize relayed errors. Health
//! probes (`PING`) stay O(1) regardless of replica count.
//!
//! An unknown flag, or a value that does not parse, exits 2 with one
//! stderr line naming it, before any data is generated.

use std::sync::Arc;
use std::time::{Duration, Instant};

use qppt_cache::CacheConfig;
use qppt_core::PlanOptions;
use qppt_par::WorkerPool;
use qppt_server::cli::Flags;
use qppt_server::{detected_cores, serve, ServeEngine, ServeObs};

fn parse_shard(spec: &str) -> Option<(usize, usize)> {
    let (i, n) = spec.split_once('/')?;
    let (i, n) = (i.trim().parse().ok()?, n.trim().parse().ok()?);
    (n >= 1 && i < n).then_some((i, n))
}

fn main() {
    let mut flags = Flags::new("qppt-server", std::env::args().skip(1).collect());
    let addr: String = flags.value("--addr", "127.0.0.1:7878".to_string());
    let sf: f64 = flags.value("--sf", 0.05);
    let seed: u64 = flags.value("--seed", 42);
    let cores = detected_cores();
    let threads: usize = flags.value("--threads", cores);
    let admission: usize = flags.value("--admission", (2 * threads).max(4));
    let parallelism: usize = flags.value("--parallelism", threads);
    let seq_index_build = flags.switch("--seq-index-build");
    let no_cache = flags.switch("--no-cache");
    let cache_dim_mb: usize = flags.value("--cache-dim-mb", 256);
    let cache_ttl_secs: f64 = flags.value("--cache-ttl-secs", 0.0);
    let shard_spec: String = flags.value("--shard", "0/1".to_string());
    let replica: usize = flags.value("--replica", 0);
    let no_obs = flags.switch("--no-obs");
    let slow_query_micros: u64 = flags.value("--slow-query-micros", 0);
    flags.finish();
    let (shard, shards) = parse_shard(&shard_spec).unwrap_or_else(|| {
        flags.fail(format!(
            "bad value for --shard: {shard_spec} (expected i/n with i < n)"
        ))
    });

    if cores == 1 {
        eprintln!(
            "warning: only 1 hardware core detected — the pool still bounds \
             threads and serves concurrent queries, but intra-query speedups \
             are impossible on this host"
        );
    }

    let obs =
        (!no_obs).then(|| ServeObs::new((slow_query_micros > 0).then_some(slow_query_micros)));
    let pool =
        WorkerPool::new_with_metrics(threads, admission, obs.as_ref().map(|o| o.pool_metrics()));
    let defaults = PlanOptions::default()
        .with_parallelism(parallelism)
        .with_par_index_build(!seq_index_build);

    let cache_config = if no_cache {
        CacheConfig::disabled()
    } else {
        CacheConfig {
            dim_budget: cache_dim_mb << 20,
            ttl: (cache_ttl_secs > 0.0).then(|| Duration::from_secs_f64(cache_ttl_secs)),
            ..CacheConfig::default()
        }
    };

    if shards > 1 {
        eprintln!(
            "generating SSB shard {shard}/{shards} at sf={sf} (seed {seed}) and preparing \
             indexes …"
        );
    } else {
        eprintln!("generating SSB at sf={sf} (seed {seed}) and preparing indexes …");
    }
    let t0 = Instant::now();
    let mut ssb = qppt_ssb::SsbDb::generate_shard(sf, seed, shard, shards);
    for q in qppt_ssb::queries::all_queries() {
        qppt_par::prepare_indexes_pooled(&mut ssb.db, &q, &defaults, &pool).expect("SSB prepares");
    }
    let mut engine = ServeEngine::over_db_with_config(
        Arc::new(ssb.db),
        pool.clone(),
        defaults,
        sf,
        seed,
        cache_config,
    )
    .with_shard_info(shard, shards)
    .with_replica_info(replica);
    if let Some(obs) = obs {
        engine = engine.with_obs(obs);
    }
    eprintln!(
        "ready in {:.1}s ({} pool threads, admission {}, parallel index build: {}, query cache: \
         {})",
        t0.elapsed().as_secs_f64(),
        threads,
        admission,
        !seq_index_build,
        if no_cache {
            "off".to_string()
        } else {
            format!(
                "on (dim tier {cache_dim_mb} MiB, ttl {})",
                if cache_ttl_secs > 0.0 {
                    format!("{cache_ttl_secs}s")
                } else {
                    "off".to_string()
                }
            )
        }
    );

    let server = serve(Arc::new(engine), &addr).expect("bind listener");
    println!("qppt-server listening on {}", server.addr());
    // Runs until a client sends SHUTDOWN; then drains connections.
    server.join();
    pool.shutdown();
    eprintln!("qppt-server stopped");
}
