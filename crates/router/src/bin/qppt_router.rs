//! The qppt-router binary: front a replicated fleet of `qppt-server`
//! shards and serve the same line protocol with scatter/gather semantics
//! and replica failover.
//!
//! ```text
//! # shard 0 and shard 1 of a 2-range deployment (same sf and seed!),
//! # each range served by two replicas
//! cargo run --release --bin qppt-server -- --addr 127.0.0.1:7878 --shard 0/2 --sf 0.05
//! cargo run --release --bin qppt-server -- --addr 127.0.0.1:7879 --shard 0/2 --replica 1 --sf 0.05
//! cargo run --release --bin qppt-server -- --addr 127.0.0.1:7888 --shard 1/2 --sf 0.05
//! cargo run --release --bin qppt-server -- --addr 127.0.0.1:7889 --shard 1/2 --replica 1 --sf 0.05
//!
//! # the router in front of them
//! cargo run --release --bin qppt-router -- --addr 127.0.0.1:7900 \
//!     --fleet 'range0=127.0.0.1:7878,127.0.0.1:7879;range1=127.0.0.1:7888,127.0.0.1:7889'
//! ```
//!
//! `--fleet` lists replica addresses per range (`;` between ranges, `,`
//! between replicas, optional `range<i>=` labels) **in range order** —
//! every replica of range *i* must be a server started with `--shard
//! i/n`. The older `--shards a,b,c` flag is still accepted as shorthand
//! for a single-replica fleet. `--wait-secs` (default 120) bounds how
//! long the router waits at startup for the fleet to answer `PING`; it
//! starts as long as every range has at least one live replica.
//! `SHUTDOWN` stops the router only — the shards keep running.
//!
//! Failover tunables: `--retry-budget` caps failover attempts per
//! request; `--retry-backoff-ms`/`--retry-backoff-cap-ms` shape the
//! capped-exponential jittered delay between attempts;
//! `--probe-interval-ms`/`--probe-backoff-cap-ms` pace the background
//! health prober that flips suspect replicas back to live.
//!
//! Observability: the `METRICS` verb serves the merged fleet exposition
//! (every range's families labeled `shard="<i>"`, summed `shard="fleet"`
//! samples, plus the router's own `qppt_router_*` families — including
//! `qppt_router_failovers_total`, `qppt_router_replicas_live`, and the
//! per-replica read-balancing spread `qppt_router_replica_requests_total`)
//! unless `--no-obs` disables the instrumentation; `--slow-query-micros
//! <n>` records routed queries at or above *n* µs wall time in the
//! slow-query ring served by `METRICS SLOW` (0 = off);
//! `--trace-sample-rate <p>` promotes every ⌈1/p⌉-th organic
//! (client-untraced) `RUN`/`QUERY` to `trace=on` deterministically
//! (0 = off, 1 traces everything).
//!
//! Routed caching: the router caches merged results keyed on (query,
//! options, topology generation, per-shard version vector), so warm
//! repeats answer without touching the fleet. A miss scatters to every
//! range, and a shard whose versions have not moved answers from its own
//! result tier. `--cache-probe-interval-ms <n>` (default 500) bounds
//! staleness: version vectors older than *n* ms are re-probed (one `INFO`
//! per range) before a cached entry is served on them.
//! `--cache-result-mb` sizes the tier (default 32 MiB);
//! `--no-router-cache` disables it (every request scatters). The routed
//! `CACHE STATS` verb reports the tier as `router_result_*` fields and
//! `CACHE CLEAR` drops it along with the fleet's engine tiers.
//!
//! An unknown flag, or a value that does not parse, exits 2 with one
//! stderr line naming it, before the router waits on the fleet.

use std::sync::Arc;
use std::time::Duration;

use qppt_router::{parse_fleet, serve_router, Router, RouterConfig, RouterObs};
use qppt_server::cli::Flags;

fn main() {
    let mut flags = Flags::new("qppt-router", std::env::args().skip(1).collect());
    let addr: String = flags.value("--addr", "127.0.0.1:7900".to_string());
    let fleet_flag: String = flags.value("--fleet", String::new());
    let shards_flag: String = flags.value("--shards", String::new());
    let connect_timeout: f64 = flags.value("--connect-timeout-secs", 5.0);
    let read_timeout: f64 = flags.value("--read-timeout-secs", 60.0);
    let conns_per_shard: usize = flags.value("--conns-per-shard", 4);
    let retry_budget: usize = flags.value("--retry-budget", 4);
    let retry_backoff_ms: u64 = flags.value("--retry-backoff-ms", 10);
    let retry_backoff_cap_ms: u64 = flags.value("--retry-backoff-cap-ms", 500);
    let probe_interval_ms: u64 = flags.value("--probe-interval-ms", 200);
    let probe_backoff_cap_ms: u64 = flags.value("--probe-backoff-cap-ms", 5_000);
    let wait_secs: f64 = flags.value("--wait-secs", 120.0);
    let no_obs = flags.switch("--no-obs");
    let slow_query_micros: u64 = flags.value("--slow-query-micros", 0);
    let trace_sample_rate: f64 = flags.value("--trace-sample-rate", 0.0);
    let no_router_cache = flags.switch("--no-router-cache");
    let cache_probe_interval_ms: u64 = flags.value("--cache-probe-interval-ms", 500);
    let cache_result_mb: usize = flags.value("--cache-result-mb", 32);
    flags.finish();

    let fleet: Vec<Vec<String>> = if !fleet_flag.is_empty() {
        parse_fleet(&fleet_flag).unwrap_or_else(|e| flags.fail(format!("bad --fleet spec: {e}")))
    } else {
        // --shards a,b,c == a single-replica fleet, one range per address.
        shards_flag
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(|s| vec![s.to_string()])
            .collect()
    };
    if fleet.is_empty() {
        flags.fail(
            "--fleet (range0=a,b;range1=c,d) or --shards (a,b,c) is required, \
             addresses in range order",
        );
    }

    let mut config = RouterConfig::with_fleet(fleet.clone());
    config.connect_timeout = Duration::from_secs_f64(connect_timeout);
    config.read_timeout = Duration::from_secs_f64(read_timeout);
    config.conns_per_shard = conns_per_shard;
    config.retry_budget = retry_budget;
    config.retry_backoff = Duration::from_millis(retry_backoff_ms);
    config.retry_backoff_cap = Duration::from_millis(retry_backoff_cap_ms);
    config.probe_interval = Duration::from_millis(probe_interval_ms);
    config.probe_backoff_cap = Duration::from_millis(probe_backoff_cap_ms);
    config.trace_sample_rate = trace_sample_rate;
    config.cache.enabled = !no_router_cache;
    config.cache.probe_interval = Duration::from_millis(cache_probe_interval_ms);
    config.cache.result_budget = cache_result_mb << 20;
    let ranges = fleet.len();
    let replicas: usize = fleet.iter().map(Vec::len).sum();
    let mut router = Router::new(config);
    if !no_obs {
        router = router.with_obs(RouterObs::new(
            ranges,
            (slow_query_micros > 0).then_some(slow_query_micros),
        ));
    }
    let router = Arc::new(router);

    eprintln!(
        "qppt-router: waiting up to {wait_secs}s for {replicas} replica(s) across {ranges} \
         range(s) to answer PING …"
    );
    if let Err(e) = router.wait_for_shards(Duration::from_secs_f64(wait_secs)) {
        eprintln!("qppt-router: {e}");
        std::process::exit(1);
    }

    let server = serve_router(router, &addr).expect("bind listener");
    println!(
        "qppt-router listening on {} over {ranges} range(s) / {replicas} replica(s): {}",
        server.addr(),
        fleet
            .iter()
            .map(|r| r.join(","))
            .collect::<Vec<_>>()
            .join("; ")
    );
    // Runs until a client sends SHUTDOWN (router only; shards stay up).
    server.join();
    eprintln!("qppt-router stopped");
}
