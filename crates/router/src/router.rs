//! The router proper: verb dispatch, scatter/gather over the replicated
//! shard map, failover, and the deterministic merge.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use qppt_core::{fingerprint_query, ExecStats, OpStats, PartialAggregate, PlanOptions};
use qppt_obs::{merge_exposition, Trace};
use qppt_server::obs::{elapsed_micros, finish_trace, make_trace};
use qppt_server::protocol::{
    apply_overrides, parse_partial_status, parse_request, read_partial_body, read_text_body,
    write_run_response, write_slow_response, CacheCmd, ClientError, Request, ServedStats,
    TraceMode, MODE_KEY, TRACE_KEY,
};
use qppt_server::{serve_lines, LineService, Reply, RunControls, ServerConfig, ServerHandle};
use qppt_ssb::queries;
use qppt_storage::{OrderKey, QueryResult, QuerySpec};

use crate::cache::{
    parse_versions_field, render_router_cache_metrics, render_router_cache_stats, CachedMerged,
    FleetKey, RouterCache, RouterCacheConfig,
};
use crate::map::{Backoff, MapCell, RangeReplicas, Replica, ShardMap};
use crate::obs::RouterObs;
use crate::pool::ShardConn;

/// Router tunables: the replicated fleet plus transport, failover, and
/// health-probe limits.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Replica addresses per range, **in range order** — every address in
    /// `fleet[i]` must be a server started with `--shard i/n`. Parse a
    /// `--fleet` spec with [`crate::map::parse_fleet`].
    pub fleet: Vec<Vec<String>>,
    /// Per-dial TCP connect timeout.
    pub connect_timeout: Duration,
    /// Per-read socket timeout — a replica that stops mid-response fails
    /// the attempt (and the request fails over) instead of hanging the
    /// client.
    pub read_timeout: Duration,
    /// Idle pooled connections kept per replica.
    pub conns_per_shard: usize,
    /// Per-request cap on failover attempts, shared across all ranges of
    /// one request — bounds worst-case added latency.
    pub retry_budget: usize,
    /// Base delay of the capped-exponential failover backoff.
    pub retry_backoff: Duration,
    /// Ceiling of the failover backoff.
    pub retry_backoff_cap: Duration,
    /// How often the background health prober scans for due suspects
    /// (also the base of the per-replica probe backoff).
    pub probe_interval: Duration,
    /// Ceiling of the per-replica probe backoff.
    pub probe_backoff_cap: Duration,
    /// Fraction of *organic* (client-untraced) `RUN`/`QUERY` requests the
    /// router promotes to `trace=on` (`--trace-sample-rate`). Sampling is
    /// deterministic — every ⌈1/p⌉-th untraced request by arrival order —
    /// so tests can pin it (`1.0` traces everything, `0.0` disables).
    /// Client-pinned `trace=` options always win and never consume a
    /// sampling tick.
    pub trace_sample_rate: f64,
    /// The router-side result cache: tier budgets, the version-probe
    /// staleness bound, and the on/off switch (`--no-router-cache`).
    pub cache: RouterCacheConfig,
}

impl RouterConfig {
    /// Single-replica fleet (the pre-replication deployment shape):
    /// shard `i` is the sole owner of range `i`.
    pub fn new(shard_addrs: Vec<String>) -> Self {
        Self::with_fleet(shard_addrs.into_iter().map(|a| vec![a]).collect())
    }

    /// Replicated fleet. Defaults: 5 s connect, 60 s read, 4 pooled
    /// connections per replica, 4 failover attempts per request backed
    /// off 10 ms → 500 ms, probes every 200 ms backed off to 5 s.
    pub fn with_fleet(fleet: Vec<Vec<String>>) -> Self {
        Self {
            fleet,
            connect_timeout: Duration::from_secs(5),
            read_timeout: Duration::from_secs(60),
            conns_per_shard: 4,
            retry_budget: 4,
            retry_backoff: Duration::from_millis(10),
            retry_backoff_cap: Duration::from_millis(500),
            probe_interval: Duration::from_millis(200),
            probe_backoff_cap: Duration::from_secs(5),
            trace_sample_rate: 0.0,
            cache: RouterCacheConfig::default(),
        }
    }
}

/// Converts a sampling rate into the deterministic stride: sample every
/// `n`-th untraced request, `None` when sampling is off. Rates above 1.0
/// clamp to "every request"; rates at or below 0.0 (and non-finite
/// values) disable sampling.
fn sample_stride(rate: f64) -> Option<u64> {
    if !rate.is_finite() || rate <= 0.0 {
        return None;
    }
    Some((1.0 / rate.min(1.0)).round().max(1.0) as u64)
}

/// Router-side failure of one request.
#[derive(Debug)]
pub enum RouterError {
    /// No replica of one range could complete the exchange — every
    /// candidate failed or the retry budget ran out. Rendered on the wire
    /// as `ERR range <i> unavailable (<detail>)`.
    RangeUnavailable { range: usize, detail: String },
    /// The shards answered `ERR` (a query/validation error, relayed with
    /// a `shard <i> replica <j>:` prefix), or their partials disagreed
    /// structurally.
    Query(String),
}

impl fmt::Display for RouterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::RangeUnavailable { range, detail } => {
                write!(f, "range {range} unavailable ({detail})")
            }
            Self::Query(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for RouterError {}

/// One range's gathered partial plus its served statistics.
struct Gathered {
    partial: PartialAggregate,
    stats: ServedStats,
}

/// How [`Router::scatter`] answered: its label is the `METRICS SLOW`
/// outcome and, for a cache hit, the `index=cache` op's label.
#[derive(Clone, Copy)]
enum Answered {
    ResultHit,
    Routed,
}

impl Answered {
    fn label(self) -> &'static str {
        match self {
            Self::ResultHit => "router cache: result hit",
            Self::Routed => "routed",
        }
    }
}

/// Per-range failure before it is attributed to a range index.
enum GatherError {
    Query(String),
    Unavailable(String),
}

impl GatherError {
    fn at(self, range: usize) -> RouterError {
        match self {
            Self::Query(msg) => RouterError::Query(msg),
            Self::Unavailable(detail) => RouterError::RangeUnavailable { range, detail },
        }
    }
}

/// A request line sent (or not) to one range's preferred replica during
/// the scatter phase.
enum SendOutcome {
    /// The line is in flight on `replica`; `reused` records whether the
    /// connection came from the idle pool (a later read failure is then
    /// possibly a stale conn, not a dead replica).
    Sent {
        replica: usize,
        conn: ShardConn,
        reused: bool,
    },
    /// The send itself failed. `stale` is true when it failed on a reused
    /// pooled connection — the replica deserves one fresh-dial retry
    /// before being convicted.
    Failed {
        replica: usize,
        detail: String,
        stale: bool,
    },
}

/// Per-request failover accounting: the retry budget shared across every
/// range of one scatter.
struct RetryState {
    budget: usize,
}

/// State shared between the router proper and its background health
/// prober.
struct Shared {
    map: MapCell,
    /// The router-side result cache — shared with the prober, which
    /// piggybacks version refreshes on its health scans.
    cache: Arc<RouterCache>,
    /// Set by [`Router::with_obs`]; the prober reads it lazily so the
    /// builder-style attach still works after the thread has started.
    obs: OnceLock<Arc<RouterObs>>,
    stop: AtomicBool,
    probe_interval: Duration,
    probe_backoff_cap: Duration,
    connect_timeout: Duration,
    read_timeout: Duration,
    conns_per_replica: usize,
}

/// The scatter/gather router over a replicated, health-checked fleet.
/// Implements [`LineService`], so [`serve_router`] gives it the exact
/// same TCP frontend (length-capped lines, drain-and-`ERR`, graceful
/// shutdown) as the shards themselves.
pub struct Router {
    shared: Arc<Shared>,
    /// The SSB named-query registry — resolved locally so the router knows
    /// each alias's ORDER BY for the merge (and can reject unknown names
    /// without touching the fleet).
    queries: BTreeMap<String, QuerySpec>,
    started: Instant,
    obs: Option<Arc<RouterObs>>,
    retry_budget: usize,
    backoff_base: Duration,
    backoff_cap: Duration,
    /// Trace every `n`-th organic request (`--trace-sample-rate`); `None`
    /// disables sampling.
    trace_sample_every: Option<u64>,
    /// Arrival counter of *untraced* `RUN`/`QUERY` requests — the
    /// deterministic clock the sampler ticks on.
    sample_seq: AtomicU64,
    prober: Option<thread::JoinHandle<()>>,
}

impl Router {
    /// Builds the router and starts its health prober. Panics if the
    /// fleet is empty or any range has no replicas — a router without
    /// owners cannot answer anything.
    pub fn new(config: RouterConfig) -> Self {
        assert!(
            !config.fleet.is_empty(),
            "RouterConfig.fleet must name at least one range"
        );
        assert!(
            config.fleet.iter().all(|r| !r.is_empty()),
            "every range needs at least one replica address"
        );
        let map = ShardMap::from_fleet(
            &config.fleet,
            config.conns_per_shard,
            config.connect_timeout,
            config.read_timeout,
        );
        let shared = Arc::new(Shared {
            map: MapCell::new(map),
            cache: Arc::new(RouterCache::new(config.cache)),
            obs: OnceLock::new(),
            stop: AtomicBool::new(false),
            probe_interval: config.probe_interval,
            probe_backoff_cap: config.probe_backoff_cap,
            connect_timeout: config.connect_timeout,
            read_timeout: config.read_timeout,
            conns_per_replica: config.conns_per_shard,
        });
        let prober = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("qppt-router-prober".to_string())
                .spawn(move || prober_loop(&shared))
                .ok()
        };
        let queries = queries::all_queries()
            .into_iter()
            .map(|q| (q.id.to_ascii_lowercase(), q))
            .collect();
        Self {
            shared,
            queries,
            started: Instant::now(),
            obs: None,
            retry_budget: config.retry_budget,
            backoff_base: config.retry_backoff,
            backoff_cap: config.retry_backoff_cap,
            trace_sample_every: sample_stride(config.trace_sample_rate),
            sample_seq: AtomicU64::new(0),
            prober,
        }
    }

    /// Attaches observability state (builder-style): per-verb request
    /// metrics, per-range RTT histograms, failover/health gauges, the
    /// merged `METRICS` exposition, and the slow-query log. Without it
    /// the router serves uninstrumented (`--no-obs`) and `METRICS`
    /// answers `ERR`.
    pub fn with_obs(mut self, obs: Arc<RouterObs>) -> Self {
        let map = self.shared.map.load();
        obs.set_replicas_live(map.live_replicas());
        let _ = self.shared.obs.set(Arc::clone(&obs));
        self.obs = Some(obs);
        self
    }

    /// The attached observability state, if any.
    pub fn obs(&self) -> Option<&Arc<RouterObs>> {
        self.obs.as_ref()
    }

    /// Seconds since this router was constructed (the `INFO`
    /// `uptime_secs=` field).
    pub fn uptime_secs(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// The crate version reported as `build=` by `INFO`.
    pub fn build() -> &'static str {
        env!("CARGO_PKG_VERSION")
    }

    /// Number of ranges fronted.
    pub fn shard_count(&self) -> usize {
        self.shared.map.load().range_count()
    }

    /// The router-side result cache (its statistics back the `router_*`
    /// fields of the routed `CACHE STATS` line).
    pub fn cache(&self) -> &RouterCache {
        &self.shared.cache
    }

    /// Atomically installs a new fleet layout between requests: in-flight
    /// requests finish against the map they loaded, subsequent requests
    /// see the new one. Replica health restarts live.
    pub fn swap_fleet(&self, fleet: Vec<Vec<String>>) -> Result<(), String> {
        if fleet.is_empty() {
            return Err("fleet must name at least one range".to_string());
        }
        if fleet.iter().any(|r| r.is_empty()) {
            return Err("every range needs at least one replica address".to_string());
        }
        let map = ShardMap::from_fleet(
            &fleet,
            self.shared.conns_per_replica,
            self.shared.connect_timeout,
            self.shared.read_timeout,
        );
        self.shared.map.swap(map);
        if let Some(o) = &self.obs {
            o.set_replicas_live(self.shared.map.load().live_replicas());
        }
        Ok(())
    }

    /// Blocks until every replica answers `PING` (dialing fresh each
    /// attempt) or `timeout` elapses. Replicas still unreachable at the
    /// deadline are marked suspect and left to the prober — the router
    /// starts as long as **every range keeps at least one live replica**;
    /// otherwise the range's error is returned.
    pub fn wait_for_shards(&self, timeout: Duration) -> Result<(), RouterError> {
        let map = self.shared.map.load();
        let deadline = Instant::now() + timeout;
        let mut pending: Vec<(usize, usize)> = map
            .ranges()
            .iter()
            .enumerate()
            .flat_map(|(ri, range)| (0..range.len()).map(move |rj| (ri, rj)))
            .collect();
        let mut last_err: BTreeMap<usize, String> = BTreeMap::new();
        loop {
            pending.retain(|&(ri, rj)| {
                let rep = map.range(ri).replica(rj);
                match probe_replica(rep) {
                    Ok(conn) => {
                        rep.pool().checkin(conn);
                        false
                    }
                    Err(detail) => {
                        last_err.insert(ri, detail);
                        true
                    }
                }
            });
            if pending.is_empty() {
                return Ok(());
            }
            if Instant::now() >= deadline {
                break;
            }
            thread::sleep(Duration::from_millis(100));
        }
        let now = map.now_micros();
        for &(ri, rj) in &pending {
            map.range(ri).replica(rj).mark_suspect(
                now,
                self.shared.probe_interval,
                self.shared.probe_backoff_cap,
            );
        }
        self.publish_health(map);
        for (ri, range) in map.ranges().iter().enumerate() {
            if range.live_count() == 0 {
                let detail = last_err
                    .remove(&ri)
                    .unwrap_or_else(|| "no replica answered PING".to_string());
                return Err(RouterError::RangeUnavailable { range: ri, detail });
            }
        }
        Ok(())
    }

    /// Publishes the fleet-wide live-replica count after a health flip.
    fn publish_health(&self, map: &ShardMap) {
        if let Some(o) = &self.obs {
            o.set_replicas_live(map.live_replicas());
        }
    }

    /// Marks a replica suspect after a fresh-connection failure (the
    /// prober takes over its recovery) and refreshes the live gauge.
    fn convict(&self, map: &ShardMap, ri: usize, rj: usize) {
        let flipped = map.range(ri).replica(rj).mark_suspect(
            map.now_micros(),
            self.shared.probe_interval,
            self.shared.probe_backoff_cap,
        );
        if flipped {
            self.publish_health(map);
        }
    }

    /// Scatter-phase send to one range's preferred replica: a pooled
    /// connection if possible, else a fresh dial. Failures are deferred
    /// to [`gather_range`](Self::gather_range), which owns failover.
    fn send_to_range(&self, range: &RangeReplicas, line: &str) -> SendOutcome {
        let p = range.preferred();
        match range.replica(p).pool().checkout() {
            Err(e) => SendOutcome::Failed {
                replica: p,
                detail: e.to_string(),
                stale: false,
            },
            Ok((mut conn, reused)) => match conn.send_line(line) {
                Ok(()) => SendOutcome::Sent {
                    replica: p,
                    conn,
                    reused,
                },
                Err(e) => SendOutcome::Failed {
                    replica: p,
                    detail: e.to_string(),
                    stale: reused,
                },
            },
        }
    }

    /// Gather-phase read with failover: consumes the in-flight response
    /// and, on a transport/protocol failure, walks the range's remaining
    /// replicas (the first replica again when its failure smelled like a
    /// stale pooled conn, then live siblings, then suspects as a last
    /// resort) under the request's shared retry budget, sleeping the
    /// capped-exponential jittered backoff before each attempt. A shard
    /// `ERR` is a real answer — relayed as a query error with its
    /// `shard <i> replica <j>:` origin, and the connection is dropped
    /// (an `ERR` status does not prove the stream is drained). Returns
    /// the payload plus the ordinal of the replica that answered.
    fn gather_range<T>(
        &self,
        map: &ShardMap,
        ri: usize,
        sent: SendOutcome,
        line: &str,
        read: impl Fn(&mut ShardConn) -> Result<T, ClientError>,
        retry: &mut RetryState,
    ) -> Result<(T, usize), GatherError> {
        let range = map.range(ri);
        let obs = self.obs.as_deref();
        let first;
        let mut stale_retry = false;
        let mut last_detail;
        match sent {
            SendOutcome::Sent {
                replica,
                mut conn,
                reused,
            } => {
                first = replica;
                match read(&mut conn) {
                    Ok(v) => {
                        let rep = range.replica(replica);
                        rep.pool().checkin(conn);
                        if rep.mark_live() {
                            self.publish_health(map);
                        }
                        return Ok((v, replica));
                    }
                    Err(ClientError::Server(msg)) => {
                        return Err(GatherError::Query(format!(
                            "shard {ri} replica {replica}: {msg}"
                        )));
                    }
                    Err(e) => {
                        last_detail = e.to_string();
                        if reused {
                            stale_retry = true;
                        } else {
                            self.convict(map, ri, replica);
                        }
                    }
                }
            }
            SendOutcome::Failed {
                replica,
                detail,
                stale,
            } => {
                first = replica;
                last_detail = detail;
                if stale {
                    stale_retry = true;
                } else {
                    self.convict(map, ri, replica);
                }
            }
        }
        // Candidate order: the possibly-stale first replica gets one
        // fresh-dial retry before conviction; then untried live siblings
        // in replica order; then untried suspects (someone may have come
        // back before the prober noticed).
        let mut candidates: Vec<usize> = Vec::with_capacity(range.len() + 1);
        if stale_retry {
            candidates.push(first);
        }
        let (live, suspect): (Vec<usize>, Vec<usize>) = (0..range.len())
            .filter(|&j| j != first)
            .partition(|&j| range.replica(j).is_live());
        candidates.extend(live);
        candidates.extend(suspect);
        let mut backoff = Backoff::new(self.backoff_base, self.backoff_cap, next_backoff_seed());
        for cand in candidates {
            if retry.budget == 0 {
                return Err(GatherError::Unavailable(format!(
                    "retry budget exhausted; last error: {last_detail}"
                )));
            }
            retry.budget -= 1;
            thread::sleep(backoff.next_delay());
            if let Some(o) = obs {
                o.note_retry();
            }
            let rep = range.replica(cand);
            // Idle conns predate whatever broke — dial fresh.
            rep.pool().clear();
            match rep.pool().dial().and_then(|mut c| {
                c.send_line(line)?;
                Ok(c)
            }) {
                Err(e) => {
                    last_detail = e.to_string();
                    self.convict(map, ri, cand);
                }
                Ok(mut conn) => {
                    if let Some(o) = obs {
                        o.note_reconnect();
                    }
                    match read(&mut conn) {
                        Ok(v) => {
                            rep.pool().checkin(conn);
                            if rep.mark_live() {
                                self.publish_health(map);
                            }
                            if cand != first {
                                if let Some(o) = obs {
                                    o.note_failover();
                                }
                            }
                            return Ok((v, cand));
                        }
                        Err(ClientError::Server(msg)) => {
                            return Err(GatherError::Query(format!(
                                "shard {ri} replica {cand}: {msg}"
                            )));
                        }
                        Err(e) => {
                            last_detail = e.to_string();
                            self.convict(map, ri, cand);
                        }
                    }
                }
            }
        }
        Err(GatherError::Unavailable(format!(
            "no live replica; last error: {last_detail}"
        )))
    }

    /// Sends a single-line-response command (`INFO`, `CACHE STATS`) to
    /// one replica of every range (failing over as needed); returns the
    /// `OK` payloads plus the answering replica's ordinal, in range
    /// order.
    fn fanout_status(&self, line: &str) -> Result<Vec<(String, usize)>, RouterError> {
        let map = self.shared.map.load();
        let mut retry = RetryState {
            budget: self.retry_budget,
        };
        let in_flight: Vec<SendOutcome> = map
            .ranges()
            .iter()
            .map(|range| self.send_to_range(range, line))
            .collect();
        let mut payloads = Vec::with_capacity(map.range_count());
        for (i, sent) in in_flight.into_iter().enumerate() {
            let read = |c: &mut ShardConn| c.read_status();
            payloads.push(
                self.gather_range(map, i, sent, line, read, &mut retry)
                    .map_err(|e| e.at(i))?,
            );
        }
        Ok(payloads)
    }

    /// Sends a single-line-response command to **every replica** of every
    /// range (`CACHE CLEAR` must not leave a sibling's cache stale).
    /// Suspect or failing replicas are best-effort; the call errors only
    /// when some range had **zero** successes.
    fn broadcast_status(&self, line: &str) -> Result<(), RouterError> {
        let map = self.shared.map.load();
        for (ri, range) in map.ranges().iter().enumerate() {
            let mut ok = false;
            let mut last_detail = String::from("no replica reachable");
            for (rj, rep) in range.replicas().iter().enumerate() {
                // Always a fresh dial: broadcasts are rare, and a stale
                // pooled conn must not fake a failure here.
                let attempt = rep
                    .pool()
                    .dial()
                    .map_err(ClientError::Io)
                    .and_then(|mut c| {
                        c.send_line(line).map_err(ClientError::Io)?;
                        c.read_status()?;
                        Ok(c)
                    });
                match attempt {
                    Ok(conn) => {
                        rep.pool().checkin(conn);
                        ok = true;
                    }
                    Err(ClientError::Server(msg)) => {
                        return Err(RouterError::Query(format!(
                            "shard {ri} replica {rj}: {msg}"
                        )));
                    }
                    Err(e) => last_detail = e.to_string(),
                }
            }
            if !ok {
                return Err(RouterError::RangeUnavailable {
                    range: ri,
                    detail: last_detail,
                });
            }
        }
        Ok(())
    }

    /// Fans `METRICS` out to one replica per range; returns `(range id,
    /// exposition text)` pairs in range order, ready for
    /// [`merge_exposition`](qppt_obs::merge_exposition).
    fn fanout_metrics(&self) -> Result<Vec<(String, String)>, RouterError> {
        let map = self.shared.map.load();
        let mut retry = RetryState {
            budget: self.retry_budget,
        };
        let in_flight: Vec<SendOutcome> = map
            .ranges()
            .iter()
            .map(|range| self.send_to_range(range, "METRICS"))
            .collect();
        let mut out = Vec::with_capacity(map.range_count());
        for (i, sent) in in_flight.into_iter().enumerate() {
            let read = |c: &mut ShardConn| {
                c.read_status()?;
                let body = read_text_body(c.reader())?;
                let mut text = body.join("\n");
                text.push('\n');
                Ok(text)
            };
            let (text, _) = self
                .gather_range(map, i, sent, "METRICS", read, &mut retry)
                .map_err(|e| e.at(i))?;
            out.push((i.to_string(), text));
        }
        Ok(out)
    }

    /// `METRICS` at the router: the merged fleet exposition — every range
    /// family re-labeled `shard="<i>"` plus summed `shard="fleet"`
    /// samples — followed by the router's own `qppt_router_*` families.
    fn handle_metrics(&self, w: &mut dyn Write) -> io::Result<()> {
        let Some(obs) = &self.obs else {
            return writeln!(w, "ERR metrics disabled (--no-obs)");
        };
        match self.fanout_metrics() {
            Err(e) => writeln!(w, "ERR {e}"),
            Ok(shard_expos) => match merge_exposition(&shard_expos) {
                Err(e) => writeln!(w, "ERR metrics merge failed ({e})"),
                Ok(mut merged) => {
                    merged.push_str(&obs.render());
                    merged.push_str(&render_router_cache_metrics(&self.shared.cache.stats()));
                    writeln!(w, "OK metrics")?;
                    for l in merged.lines() {
                        writeln!(w, "{l}")?;
                    }
                    writeln!(w, "END")
                }
            },
        }
    }

    /// Forwards a text-bodied command (`LIST`, `EXPLAIN`) to range 0
    /// (failing over among its replicas) and relays the response. Plans
    /// and the query registry are identical on every shard (same specs,
    /// same replicated dimension tables), so one range speaks for the
    /// fleet.
    fn relay_text(&self, line: &str, w: &mut dyn Write) -> io::Result<()> {
        let map = self.shared.map.load();
        let mut retry = RetryState {
            budget: self.retry_budget,
        };
        let sent = self.send_to_range(map.range(0), line);
        let read = |c: &mut ShardConn| {
            let status = c.read_status()?;
            let body = read_text_body(c.reader())?;
            Ok((status, body))
        };
        match self.gather_range(map, 0, sent, line, read, &mut retry) {
            Err(e) => writeln!(w, "ERR {}", e.at(0)),
            Ok(((status, body), _)) => {
                writeln!(w, "OK {status}")?;
                for l in &body {
                    writeln!(w, "{l}")?;
                }
                writeln!(w, "END")
            }
        }
    }

    /// `INFO` fan-out: fleet-level `shards=`/`rows=` (summed) and replica
    /// counts, the shared descriptor fields from range 0, the router's
    /// own `uptime_secs=`/`build=` plus the fleet's
    /// `uptime_min_secs=`/`uptime_max_secs=` spread, and the per-range
    /// map (`shard<i>=<answering replica addr> rows<i>=<n>
    /// replicas<i>=<size>`).
    fn handle_info(&self, w: &mut dyn Write) -> io::Result<()> {
        let map = self.shared.map.load();
        match self.fanout_status("INFO") {
            Err(e) => writeln!(w, "ERR {e}"),
            Ok(lines) => {
                let field = |l: &str, key: &str| -> Option<u64> {
                    l.split_whitespace()
                        .find_map(|kv| kv.strip_prefix(key))
                        .and_then(|v| v.strip_prefix('='))
                        .and_then(|v| v.parse().ok())
                };
                let rows: Vec<u64> = lines
                    .iter()
                    .map(|(l, _)| field(l, "rows").unwrap_or(0))
                    .collect();
                let uptimes: Vec<u64> = lines
                    .iter()
                    .filter_map(|(l, _)| field(l, "uptime_secs"))
                    .collect();
                write!(
                    w,
                    "OK shards={} rows={} replicas={} replicas_live={}",
                    map.range_count(),
                    rows.iter().sum::<u64>(),
                    map.total_replicas(),
                    map.live_replicas(),
                )?;
                for kv in lines[0].0.split_whitespace() {
                    match kv.split_once('=') {
                        // Fleet-level, per-shard, or router-level fields
                        // replace these range-0 values.
                        Some((
                            "rows" | "shard" | "shards" | "replica" | "uptime_secs" | "build"
                            | "versions",
                            _,
                        )) => {}
                        Some(_) => write!(w, " {kv}")?,
                        None => {}
                    }
                }
                write!(
                    w,
                    " uptime_secs={} uptime_min_secs={} uptime_max_secs={} build={}",
                    self.uptime_secs(),
                    uptimes.iter().min().copied().unwrap_or(0),
                    uptimes.iter().max().copied().unwrap_or(0),
                    Self::build(),
                )?;
                for (i, ((_, replica), n)) in lines.iter().zip(&rows).enumerate() {
                    let range = map.range(i);
                    write!(
                        w,
                        " shard{i}={} rows{i}={n} replicas{i}={}",
                        range.replica(*replica).addr(),
                        range.len(),
                    )?;
                }
                writeln!(w)
            }
        }
    }

    /// `CACHE` fan-out: `STATS` sums every per-tier counter across one
    /// replica per range (appending `shards=N` and the router's own
    /// `router_result_*` tier as distinct fields — never summed into the
    /// shard counters); `CLEAR`/`CLEAR dims` broadcasts to **every
    /// replica** of every range so no sibling keeps a stale cache, and
    /// drops the router's own tier first — routed results compose shard
    /// work, so they go with it.
    fn handle_cache(&self, cmd: CacheCmd, w: &mut dyn Write) -> io::Result<()> {
        let line = match cmd {
            CacheCmd::Stats => "CACHE STATS",
            CacheCmd::Clear => "CACHE CLEAR",
            CacheCmd::ClearDims => "CACHE CLEAR dims",
        };
        match cmd {
            CacheCmd::Clear | CacheCmd::ClearDims => {
                // Local tier first, unconditionally: even if some shard
                // is unreachable, a cleared router tier is merely cold,
                // never stale.
                self.shared.cache.clear();
                match self.broadcast_status(line) {
                    Err(e) => writeln!(w, "ERR {e}"),
                    Ok(()) => match cmd {
                        CacheCmd::ClearDims => writeln!(w, "OK cleared dims"),
                        _ => writeln!(w, "OK cleared"),
                    },
                }
            }
            CacheCmd::Stats => match self.fanout_status(line) {
                Err(e) => writeln!(w, "ERR {e}"),
                Ok(lines) => {
                    // Sum counters key-wise, keeping range 0's field order
                    // so the line shape matches a single node's.
                    let mut keys: Vec<&str> = Vec::new();
                    let mut sums: BTreeMap<&str, u64> = BTreeMap::new();
                    for (l, _) in &lines {
                        for kv in l.split_whitespace() {
                            if let Some((k, v)) = kv.split_once('=') {
                                if !sums.contains_key(k) {
                                    keys.push(k);
                                }
                                *sums.entry(k).or_insert(0) += v.parse::<u64>().unwrap_or(0);
                            }
                        }
                    }
                    write!(w, "OK")?;
                    for k in keys {
                        write!(w, " {k}={}", sums[k])?;
                    }
                    writeln!(
                        w,
                        " shards={} {}",
                        self.shard_count(),
                        render_router_cache_stats(&self.shared.cache.stats())
                    )
                }
            },
        }
    }

    /// Validates client options locally: `mode` is router-reserved, and
    /// anything `apply_overrides` would reject on a shard is rejected here
    /// without touching the fleet. Returns the normalized plan options
    /// (what the router-cache fingerprint covers) plus the request
    /// controls (the router acts on `trace=` and `cache=`).
    fn check_options(
        &self,
        options: &[(String, String)],
    ) -> Result<(PlanOptions, RunControls), String> {
        if options.iter().any(|(k, _)| k == MODE_KEY) {
            return Err(
                "option mode is reserved on the router (it always gathers partials)".to_string(),
            );
        }
        apply_overrides(PlanOptions::default(), options)
    }

    /// Scatters the client's own `RUN`/`QUERY` line (plus `mode=partial`,
    /// plus a pinned `trace=<id>` when the request is traced — appended
    /// *after* the client's options, so the later duplicate wins on the
    /// shards and every shard stamps its spans with the router's id) and
    /// writes the merged full response. The router's result cache fronts
    /// the scatter unless the client sent `cache=off` (which also reaches
    /// the shards via the forwarded line, so `off` means off fleet-wide).
    fn scatter_and_respond(
        &self,
        verb: &'static str,
        line: &str,
        spec: &QuerySpec,
        opts: &PlanOptions,
        controls: &RunControls,
        mut w: &mut dyn Write,
    ) -> io::Result<()> {
        let started = Instant::now();
        let trace_mode = self.sample_trace(controls.trace);
        let mut trace = make_trace(trace_mode);
        let forward = match &trace {
            Some(t) => format!("{line} {MODE_KEY}=partial {TRACE_KEY}={}", t.id()),
            None => format!("{line} {MODE_KEY}=partial"),
        };
        let cached = (controls.use_cache && self.shared.cache.enabled())
            .then(|| fingerprint_query(spec, opts));
        match self.scatter(&forward, &spec.order_by, cached, trace.as_mut()) {
            Err(e) => writeln!(w, "ERR {e}"),
            Ok((result, stats, workers, answered)) => {
                let spans = finish_trace(trace, stats.total_micros);
                let out = write_run_response(&mut w, &result, &stats, workers, &spans);
                if let Some(obs) = &self.obs {
                    obs.slow_log(started, verb, line, answered.label(), &spans);
                }
                out
            }
        }
    }

    /// **The** scatter/gather/merge: scatters `forward` (a `RUN`/`QUERY`
    /// line already carrying `mode=partial`) to the ranges, gathers the
    /// partials in range order (failing over inside each range as needed),
    /// merges them with [`PartialAggregate::merge`] — borrowed, never
    /// cloned — and applies `order_by`: byte-identical to a single node
    /// running the same query, whichever replicas answered. Also returns
    /// the worker count for the response head and how it [`Answered`].
    ///
    /// With `cached = Some(query fingerprint)` the router cache fronts it
    /// (the routed hot path): establish a fresh-enough per-range version
    /// vector (probed state within the staleness bound, else an on-demand
    /// `INFO` probe), serve a merged-tier hit without touching any shard,
    /// otherwise scatter to every range and store the merge. A shard whose
    /// versions have not moved answers from its own result tier, so after
    /// a single-shard write only that shard re-executes, and after a
    /// topology swap none does. With `cached = None` — `cache=off`, `--no-router-cache`, or
    /// any probe failure: the cache can make a query cheaper, never less
    /// available — it is the same scatter with nothing stored. Result
    /// bytes are identical on every outcome.
    ///
    /// Tracing: the gather wall time becomes a `scatter` span, each
    /// scattered range's own span tree (carried back on the partial
    /// response) is grafted under it as `shard<i>`, and the merge gets its
    /// own span; a merged-tier hit is one `router_cache` span.
    fn scatter(
        &self,
        forward: &str,
        order_by: &[OrderKey],
        cached: Option<u64>,
        mut trace: Option<&mut Trace>,
    ) -> Result<(QueryResult, ExecStats, usize, Answered), RouterError> {
        let cache = &self.shared.cache;
        let started = Instant::now();
        let obs = self.obs.as_deref();
        let map = self.shared.map.load();
        let generation = map.generation();
        let n = map.range_count();

        // The freshness proof: no version vector for some range means no
        // proof — serve this request uncached rather than fail or
        // stale-serve.
        let key: Option<FleetKey> = cached.and_then(|qfp| {
            let mut versions = cache.cached_versions(generation, n);
            for (ri, slot) in versions.iter_mut().enumerate() {
                if slot.is_none() {
                    let vs = self.probe_versions(map, ri)?;
                    cache.record_versions(generation, n, ri, vs.clone());
                    *slot = Some(vs);
                }
            }
            let versions: Vec<Vec<u64>> = versions.into_iter().flatten().collect();
            Some(FleetKey::merged(qfp, generation, &versions))
        });

        if let Some(hit) = key.as_ref().and_then(|k| cache.get_merged(k)) {
            // The same `index=cache` op the shard tiers stamp on a hit.
            let rows = hit.result.rows.len();
            let mut stats = ExecStats::default();
            stats.push(OpStats {
                label: Answered::ResultHit.label().to_string(),
                out_keys: rows,
                out_tuples: rows,
                index_kind: "cache".to_string(),
                memory_bytes: 0,
                micros: 0,
            });
            if let Some(t) = trace {
                t.add(t.root(), "router_cache", elapsed_micros(started));
            }
            stats.total_micros = started.elapsed().as_micros();
            return Ok((hit.result.clone(), stats, hit.workers, Answered::ResultHit));
        }

        // Scatter first: every range has the request in flight before any
        // response is read, so shards execute concurrently.
        let mut retry = RetryState {
            budget: self.retry_budget,
        };
        let in_flight: Vec<SendOutcome> = (0..n)
            .map(|ri| self.send_to_range(map.range(ri), forward))
            .collect();
        // Gather in range order (the deterministic merge order). Every
        // in-flight response is consumed even after an earlier range
        // failed, so surviving pooled connections stay synchronized.
        let mut query_err: Option<String> = None;
        let mut unavailable: Option<(usize, String)> = None;
        let mut gathered: Vec<(Gathered, usize)> = Vec::with_capacity(n);
        for (ri, sent) in in_flight.into_iter().enumerate() {
            match self.gather_range(map, ri, sent, forward, read_partial_response, &mut retry) {
                Ok((g, replica)) => {
                    if let Some(o) = obs {
                        o.record_rtt(ri, elapsed_micros(started));
                        o.note_replica_request(ri, replica);
                    }
                    gathered.push((g, replica));
                }
                Err(GatherError::Query(msg)) => {
                    if query_err.is_none() {
                        query_err = Some(msg);
                    }
                }
                Err(GatherError::Unavailable(detail)) => {
                    if unavailable.is_none() {
                        unavailable = Some((ri, detail));
                    }
                }
            }
        }
        // A query error is deterministic across the fleet (same spec, same
        // replicated dims) — relay it even if some other range was also
        // down; a partial gather is *never* served as a complete answer.
        // Past this point every range was gathered, so `gathered[ri]` is
        // range `ri`.
        if let Some(msg) = query_err {
            return Err(RouterError::Query(msg));
        }
        if let Some((range, detail)) = unavailable {
            return Err(RouterError::RangeUnavailable { range, detail });
        }
        if let Some(t) = trace.as_deref_mut() {
            // The scatter span's wall time covers every gather, so each
            // grafted shard tree's root (the shard's request total, which
            // excludes the network) stays ≤ its parent.
            let scatter = t.add(t.root(), "scatter", elapsed_micros(started));
            for (i, (g, _)) in gathered.iter().enumerate() {
                if !g.stats.spans.is_empty() {
                    // A malformed shard tree is dropped, never fatal —
                    // tracing must not fail a query that produced rows.
                    let _ = t.graft(scatter, &format!("shard{i}"), &g.stats.spans);
                }
            }
        }

        let mut stats = ExecStats::default();
        let mut workers = 1usize;
        for (ri, (g, replica)) in gathered.iter().enumerate() {
            stats.push(OpStats {
                label: format!(
                    "gather: shard {ri} replica {replica} @ {}",
                    map.range(ri).replica(*replica).addr()
                ),
                out_keys: g.partial.groups.len(),
                out_tuples: g.partial.groups.len(),
                index_kind: "wire".to_string(),
                memory_bytes: 0,
                micros: g.stats.total_micros,
            });
            workers = workers.max(g.stats.workers);
        }

        let merge_started = Instant::now();
        let parts: Vec<&PartialAggregate> = gathered.iter().map(|(g, _)| &g.partial).collect();
        let merged = PartialAggregate::merge(&parts)
            .map_err(|e| RouterError::Query(e.to_string()))?
            .expect("at least one range");
        let result = merged.into_result(order_by);
        let merge_micros = elapsed_micros(merge_started);
        if let Some(o) = obs {
            o.record_merge(merge_micros);
        }
        if let Some(t) = trace {
            t.add(t.root(), "merge", merge_micros);
        }
        // Stored under the versions this request probed, possibly already
        // superseded: the next probe invalidates it, keeping staleness
        // inside the probe bound.
        if let Some(key) = &key {
            cache.put_merged(
                key,
                Arc::new(CachedMerged {
                    result: result.clone(),
                    workers,
                }),
            );
        }
        stats.total_micros = started.elapsed().as_micros();
        Ok((result, stats, workers, Answered::Routed))
    }

    /// On-demand version probe: one `INFO` round-trip to range `ri`
    /// (with the usual in-range failover, under a probe-local budget).
    /// `None` when the range is unreachable or its `INFO` carries no
    /// parseable `versions=` field (an old server build).
    fn probe_versions(&self, map: &ShardMap, ri: usize) -> Option<Vec<u64>> {
        let mut retry = RetryState { budget: 1 };
        let sent = self.send_to_range(map.range(ri), "INFO");
        let read = |c: &mut ShardConn| c.read_status();
        match self.gather_range(map, ri, sent, "INFO", read, &mut retry) {
            Ok((status, _)) => parse_versions_field(&status),
            Err(_) => None,
        }
    }

    /// Applies `--trace-sample-rate` to one routed `RUN`/`QUERY`: an
    /// organic (untraced) request is promoted to `trace=on` when the
    /// untraced-arrival counter lands on the sampling stride — the first
    /// untraced request is always sampled, so a rate of `1.0` traces
    /// everything and tests can pin the behavior. A client that asked for
    /// a trace (or pinned an id) keeps its mode and does not tick the
    /// counter.
    fn sample_trace(&self, requested: TraceMode) -> TraceMode {
        if !matches!(requested, TraceMode::Off) {
            return requested;
        }
        let Some(every) = self.trace_sample_every else {
            return TraceMode::Off;
        };
        if self
            .sample_seq
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(every)
        {
            TraceMode::On
        } else {
            TraceMode::Off
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(h) = self.prober.take() {
            let _ = h.join();
        }
    }
}

/// The background health prober: scans the current map every
/// `probe_interval` for suspect replicas whose next probe is due, `PING`s
/// them over a fresh dial, and flips them back live on success — recovery
/// without waiting for organic traffic. Failures push the replica's next
/// probe out on its capped backoff schedule.
fn prober_loop(shared: &Shared) {
    let tick = Duration::from_millis(20).min(shared.probe_interval);
    let mut since_scan = Duration::ZERO;
    while !shared.stop.load(Ordering::Acquire) {
        thread::sleep(tick);
        since_scan += tick;
        if since_scan < shared.probe_interval {
            continue;
        }
        since_scan = Duration::ZERO;
        let map = shared.map.load();
        let now = map.now_micros();
        for range in map.ranges() {
            for rep in range.replicas() {
                if rep.is_live() || !rep.probe_due(now) {
                    continue;
                }
                match probe_replica(rep) {
                    Ok(conn) => {
                        rep.pool().checkin(conn);
                        if rep.mark_live() {
                            if let Some(o) = shared.obs.get() {
                                o.note_probe_recovery();
                                o.set_replicas_live(map.live_replicas());
                            }
                        }
                    }
                    Err(_) => rep.probe_failed(
                        map.now_micros(),
                        shared.probe_interval,
                        shared.probe_backoff_cap,
                    ),
                }
            }
        }
        // Version-refresh piggyback: re-probe recently used ranges whose
        // cached version vector is aging toward the staleness bound, so
        // warm cache traffic rarely pays an on-demand `INFO` round-trip.
        // Best-effort — a failed refresh just leaves the vector to expire.
        if shared.cache.enabled() {
            let generation = map.generation();
            let n = map.range_count();
            for ri in shared.cache.refresh_due(generation, n) {
                if let Some(vs) = probe_versions_fresh(map, ri) {
                    shared.cache.record_versions(generation, n, ri, vs);
                }
            }
        }
    }
}

/// One background version probe: a fresh dial + `INFO` on the range's
/// preferred replica. Fresh connections only — the prober must not
/// compete with request traffic for pooled conns or convict replicas.
fn probe_versions_fresh(map: &ShardMap, ri: usize) -> Option<Vec<u64>> {
    let range = map.range(ri);
    let rep = range.replica(range.preferred());
    let mut c = rep.pool().dial().ok()?;
    c.send_line("INFO").ok()?;
    let status = c.read_status().ok()?;
    rep.pool().checkin(c);
    parse_versions_field(&status)
}

/// One health probe: fresh dial + `PING` + status. Returns the connection
/// (synchronized — `PING` has a one-line response) for check-in.
fn probe_replica(rep: &Replica) -> Result<ShardConn, String> {
    let mut c = rep.pool().dial().map_err(|e| e.to_string())?;
    c.send_line("PING").map_err(|e| e.to_string())?;
    c.read_status().map_err(|e| e.to_string())?;
    Ok(c)
}

/// Process-wide source of failover-backoff jitter seeds — each request's
/// schedule draws distinct jitter without consulting the wall clock.
static BACKOFF_SEED: AtomicU64 = AtomicU64::new(0x9e3779b97f4a7c15);

fn next_backoff_seed() -> u64 {
    BACKOFF_SEED.fetch_add(0x9e3779b97f4a7c15, Ordering::Relaxed)
}

impl LineService for Router {
    fn handle(&self, line: &str, w: &mut dyn Write) -> io::Result<Reply> {
        let started = Instant::now();
        let parsed = parse_request(line);
        let verb = parsed.as_ref().ok().map(Request::verb);
        let reply = self.dispatch(parsed, line, w)?;
        if let (Some(obs), Some(verb)) = (&self.obs, verb) {
            obs.record_request(verb, elapsed_micros(started));
        }
        Ok(reply)
    }
}

impl Router {
    fn dispatch(
        &self,
        parsed: Result<Request, String>,
        line: &str,
        mut w: &mut dyn Write,
    ) -> io::Result<Reply> {
        match parsed {
            Err(msg) => writeln!(w, "ERR {msg}")?,
            Ok(Request::Ping) => writeln!(w, "OK pong")?,
            Ok(Request::Quit) => {
                writeln!(w, "OK bye")?;
                return Ok(Reply::Close);
            }
            Ok(Request::Shutdown) => {
                // Stops the router only; shards are long-lived and keep
                // serving (their own clients, or a restarted router).
                writeln!(w, "OK shutting down")?;
                return Ok(Reply::Shutdown);
            }
            Ok(Request::Info) => self.handle_info(&mut w)?,
            Ok(Request::Metrics) => self.handle_metrics(&mut w)?,
            Ok(Request::MetricsSlow) => match &self.obs {
                None => writeln!(w, "ERR metrics disabled (--no-obs)")?,
                Some(obs) => write_slow_response(&mut w, &obs.slow_ring().snapshot())?,
            },
            Ok(Request::Cache(cmd)) => self.handle_cache(cmd, &mut w)?,
            Ok(Request::List) | Ok(Request::Explain { .. }) | Ok(Request::ExplainSpec { .. }) => {
                self.relay_text(line, &mut w)?
            }
            Ok(Request::Run { query, options }) => match self.check_options(&options) {
                Err(msg) => writeln!(w, "ERR {msg}")?,
                Ok((opts, controls)) => {
                    match self.queries.get(&query) {
                        // Mirrors the shard-side unknown-name error so
                        // clients see one message either way.
                        None => writeln!(
                            w,
                            "ERR unknown query {query} (LIST shows the registered names)"
                        )?,
                        Some(spec) => {
                            self.scatter_and_respond("RUN", line, spec, &opts, &controls, &mut w)?;
                        }
                    }
                }
            },
            Ok(Request::Query { spec, options }) => match self.check_options(&options) {
                Err(msg) => writeln!(w, "ERR {msg}")?,
                Ok((opts, controls)) => {
                    self.scatter_and_respond("QUERY", line, &spec, &opts, &controls, &mut w)?;
                }
            },
        }
        Ok(Reply::Continue)
    }
}

/// Serves `router` on `addr` under the default frontend tunables.
pub fn serve_router(router: Arc<Router>, addr: &str) -> io::Result<ServerHandle> {
    serve_router_with(router, addr, ServerConfig::default())
}

/// [`serve_router`] with explicit frontend tunables — the same
/// [`ServerConfig`] (poll tick, request-line cap) as qppt-server, because
/// it is literally the same frontend.
pub fn serve_router_with(
    router: Arc<Router>,
    addr: &str,
    config: ServerConfig,
) -> io::Result<ServerHandle> {
    serve_lines(router, addr, config)
}

/// Reads one complete `PARTIAL` response off a shard connection.
fn read_partial_response(conn: &mut ShardConn) -> Result<Gathered, ClientError> {
    let status = conn.read_status()?;
    let rows = parse_partial_status(&status).ok_or_else(|| {
        ClientError::Protocol(format!("expected a partial status, got: {status}"))
    })?;
    let (partial, stats) = read_partial_body(conn.reader(), rows)?;
    Ok(Gathered { partial, stats })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_stride_maps_rates_to_deterministic_strides() {
        assert_eq!(sample_stride(0.0), None);
        assert_eq!(sample_stride(-0.5), None);
        assert_eq!(sample_stride(f64::NAN), None);
        assert_eq!(sample_stride(f64::INFINITY), None); // garbage disables
        assert_eq!(sample_stride(1.0), Some(1));
        assert_eq!(sample_stride(2.0), Some(1)); // clamps to every request
        assert_eq!(sample_stride(0.5), Some(2));
        assert_eq!(sample_stride(0.25), Some(4));
        assert_eq!(sample_stride(0.1), Some(10));
    }

    #[test]
    fn sample_trace_promotes_every_nth_untraced_request() {
        // The fleet is never dialed here — sampling is pure router state.
        let mut config = RouterConfig::new(vec!["127.0.0.1:1".to_string()]);
        config.trace_sample_rate = 0.5;
        let router = Router::new(config);
        // First untraced request is always sampled, then every 2nd.
        let picks: Vec<bool> = (0..6)
            .map(|_| matches!(router.sample_trace(TraceMode::Off), TraceMode::On))
            .collect();
        assert_eq!(picks, [true, false, true, false, true, false]);
        // Client-pinned modes pass through and do not tick the counter:
        // the next untraced request lands on tick 6 and is sampled, as if
        // the pinned requests never happened.
        assert!(matches!(
            router.sample_trace(TraceMode::Id(7)),
            TraceMode::Id(7)
        ));
        assert!(matches!(router.sample_trace(TraceMode::On), TraceMode::On));
        assert!(matches!(router.sample_trace(TraceMode::Off), TraceMode::On));
    }

    #[test]
    fn sampling_disabled_leaves_organic_traffic_untraced() {
        let router = Router::new(RouterConfig::new(vec!["127.0.0.1:1".to_string()]));
        for _ in 0..4 {
            assert!(matches!(
                router.sample_trace(TraceMode::Off),
                TraceMode::Off
            ));
        }
    }
}
