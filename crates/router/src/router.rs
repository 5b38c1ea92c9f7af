//! The router proper: verb dispatch, scatter/gather over the replicated
//! shard map, failover, and the deterministic merge.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Write};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};
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
use crate::map::{Backoff, RangeReplicas, Replica, ShardMap};
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

/// What one replica said, prefixed with where it came from — how a shard
/// `ERR` or a malformed reply is relayed.
fn origin(range: usize, replica: usize, msg: impl fmt::Display) -> String {
    format!("shard {range} replica {replica}: {msg}")
}

/// Folds a fan-out's per-range results by the router's one error rule: a
/// shard `ERR` is relayed ahead of an unavailable range (a query error is
/// deterministic across the fleet, so it is the truer answer), and within
/// each kind the lowest range wins. `results[i]` is range `i`'s. A partial
/// gather is never an answer.
fn settle<T>(results: Vec<Result<T, GatherError>>) -> Result<Vec<T>, RouterError> {
    let mut answers = Vec::with_capacity(results.len());
    let mut failures = Vec::new();
    for (ri, r) in results.into_iter().enumerate() {
        match r {
            Ok(v) => answers.push(v),
            Err(e) => failures.push((ri, e)),
        }
    }
    match failures
        .into_iter()
        .min_by_key(|(ri, e)| (matches!(e, GatherError::Unavailable(_)), *ri))
    {
        Some((ri, e)) => Err(e.at(ri)),
        None => Ok(answers),
    }
}

/// A request line sent (or not) to one range's preferred replica before
/// any response is read.
struct InFlight {
    replica: usize,
    /// The connection carrying the request, or why the send failed.
    conn: io::Result<ShardConn>,
    /// The connection came from the idle pool: a failure on it may be a
    /// stale connection rather than a dead replica, so the replica gets
    /// one fresh-dial retry before it is convicted.
    reused: bool,
}

/// Sends `line` to `range`'s preferred replica over a pooled connection if
/// possible, else a fresh dial. Failures are left to
/// [`Router::gather_range`], which owns failover.
fn send_to_range(range: &RangeReplicas, line: &str) -> InFlight {
    let replica = range.preferred();
    match range.replica(replica).pool().checkout() {
        Err(e) => InFlight {
            replica,
            conn: Err(e),
            reused: false,
        },
        Ok((mut conn, reused)) => InFlight {
            replica,
            conn: conn.send_line(line).map(|()| conn),
            reused,
        },
    }
}

/// One exchange over a fresh dial to `rep`: send `line`, then `read` the
/// response. A drained connection joins the replica's pool; any failure
/// drops it (an `ERR` status does not prove the stream is drained). Dial
/// and send failures surface as [`ClientError::Io`].
fn ask<T>(
    rep: &Replica,
    line: &str,
    read: impl FnOnce(&mut ShardConn) -> Result<T, ClientError>,
) -> Result<T, ClientError> {
    let mut conn = rep.pool().dial()?;
    conn.send_line(line)?;
    let v = read(&mut conn)?;
    rep.pool().checkin(conn);
    Ok(v)
}

/// State shared between the router proper and its background health
/// prober.
struct Shared {
    /// The current fleet layout. A request clones the `Arc` once and keeps
    /// that map to the end (see [`ShardMap::install`]).
    map: RwLock<Arc<ShardMap>>,
    /// The router-side result cache — shared with the prober, which
    /// piggybacks version refreshes on its health scans.
    cache: RouterCache,
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

impl Shared {
    fn map(&self) -> Arc<ShardMap> {
        ShardMap::current(&self.map)
    }
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
            map: RwLock::new(Arc::new(map)),
            cache: RouterCache::new(config.cache),
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
    /// answers `ERR`. Only the first attach takes effect.
    pub fn with_obs(self, obs: Arc<RouterObs>) -> Self {
        obs.set_replicas_live(self.shared.map().live_replicas());
        let _ = self.shared.obs.set(obs);
        self
    }

    /// The attached observability state, if any.
    pub fn obs(&self) -> Option<&Arc<RouterObs>> {
        self.shared.obs.get()
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
        self.shared.map().range_count()
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
        ShardMap::install(&self.shared.map, map);
        self.publish_health(&self.shared.map());
        Ok(())
    }

    /// Blocks until every replica answers `PING` (dialing fresh each
    /// attempt) or `timeout` elapses. Replicas still unreachable at the
    /// deadline are marked suspect and left to the prober — the router
    /// starts as long as **every range keeps at least one live replica**;
    /// otherwise the range's error is returned.
    pub fn wait_for_shards(&self, timeout: Duration) -> Result<(), RouterError> {
        let map = self.shared.map();
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
                match ask(map.range(ri).replica(rj), "PING", ShardConn::read_status) {
                    Ok(_) => false,
                    Err(e) => {
                        last_err.insert(ri, e.to_string());
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
        self.publish_health(&map);
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
        if let Some(o) = self.obs() {
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

    /// **The** fan-out of every fleet verb but `CACHE CLEAR` (which must
    /// reach every replica, see [`cache_clear`](Self::cache_clear)): sends
    /// `line` to the preferred replica of each range in `ranges` before
    /// reading any response — so the shards work concurrently — then
    /// gathers the responses in range order through
    /// [`gather_range`](Self::gather_range), failing over inside each
    /// range under one retry budget of `budget` attempts.
    /// Every in-flight response is consumed, even after an earlier range
    /// failed, so surviving pooled connections stay synchronized. Returns
    /// one result per range, in range order: `read`'s value plus the
    /// ordinal of the replica that answered.
    fn exchange<T>(
        &self,
        map: &ShardMap,
        ranges: Range<usize>,
        line: &str,
        mut budget: usize,
        read: impl Fn(&mut ShardConn) -> Result<T, ClientError>,
    ) -> Vec<Result<(T, usize), GatherError>> {
        let in_flight: Vec<(usize, InFlight)> = ranges
            .map(|ri| (ri, send_to_range(map.range(ri), line)))
            .collect();
        in_flight
            .into_iter()
            .map(|(ri, sent)| self.gather_range(map, ri, sent, line, &read, &mut budget))
            .collect()
    }

    /// Settles one attempt on replica `rj` of range `ri`: a response marks
    /// the replica live; a shard `ERR` is a real answer, relayed as a
    /// query error with its origin; any other failure comes back as its
    /// detail, for the caller to convict and fail over.
    fn attempt<T>(
        &self,
        map: &ShardMap,
        ri: usize,
        rj: usize,
        outcome: Result<T, ClientError>,
    ) -> Result<Result<T, String>, GatherError> {
        match outcome {
            Ok(v) => {
                if map.range(ri).replica(rj).mark_live() {
                    self.publish_health(map);
                }
                Ok(Ok(v))
            }
            Err(ClientError::Server(msg)) => Err(GatherError::Query(origin(ri, rj, msg))),
            Err(e) => Ok(Err(e.to_string())),
        }
    }

    /// Gather-phase read with failover: consumes the in-flight response
    /// and, on a transport/protocol failure, walks the range's remaining
    /// replicas (the first replica again when its failure smelled like a
    /// stale pooled conn, then live siblings, then suspects as a last
    /// resort) under the request's shared retry `budget`, sleeping the
    /// capped-exponential jittered backoff before each fresh-dial
    /// [`ask`]. Returns the payload plus the ordinal of the replica that
    /// answered.
    fn gather_range<T>(
        &self,
        map: &ShardMap,
        ri: usize,
        sent: InFlight,
        line: &str,
        read: &impl Fn(&mut ShardConn) -> Result<T, ClientError>,
        budget: &mut usize,
    ) -> Result<(T, usize), GatherError> {
        let range = map.range(ri);
        let obs = self.obs();
        let first = sent.replica;
        let outcome = sent.conn.map_err(ClientError::Io).and_then(|mut conn| {
            let v = read(&mut conn)?;
            range.replica(first).pool().checkin(conn);
            Ok(v)
        });
        let mut last_detail = match self.attempt(map, ri, first, outcome)? {
            Ok(v) => return Ok((v, first)),
            Err(detail) => detail,
        };
        // Candidate order: the possibly-stale first replica gets one
        // fresh-dial retry before conviction; then untried live siblings
        // in replica order; then untried suspects (someone may have come
        // back before the prober noticed).
        let mut candidates: Vec<usize> = Vec::with_capacity(range.len() + 1);
        if sent.reused {
            candidates.push(first);
        } else {
            self.convict(map, ri, first);
        }
        let (live, suspect): (Vec<usize>, Vec<usize>) = (0..range.len())
            .filter(|&j| j != first)
            .partition(|&j| range.replica(j).is_live());
        candidates.extend(live);
        candidates.extend(suspect);
        let mut backoff = Backoff::new(self.backoff_base, self.backoff_cap, next_backoff_seed());
        for cand in candidates {
            if *budget == 0 {
                return Err(GatherError::Unavailable(format!(
                    "retry budget exhausted; last error: {last_detail}"
                )));
            }
            *budget -= 1;
            thread::sleep(backoff.next_delay());
            if let Some(o) = obs {
                o.note_retry();
            }
            let rep = range.replica(cand);
            // Idle conns predate whatever broke — dial fresh.
            rep.pool().clear();
            let outcome = ask(rep, line, |conn| {
                if let Some(o) = obs {
                    o.note_reconnect();
                }
                read(conn)
            });
            match self.attempt(map, ri, cand, outcome)? {
                Ok(v) => {
                    if cand != first {
                        if let Some(o) = obs {
                            o.note_failover();
                        }
                    }
                    return Ok((v, cand));
                }
                Err(detail) => {
                    last_detail = detail;
                    self.convict(map, ri, cand);
                }
            }
        }
        Err(GatherError::Unavailable(format!(
            "no live replica; last error: {last_detail}"
        )))
    }

    /// `METRICS` at the router: the merged fleet exposition — every range
    /// family re-labeled `shard="<i>"` plus summed `shard="fleet"`
    /// samples — followed by the router's own `qppt_router_*` families.
    fn handle_metrics(&self, w: &mut dyn Write) -> io::Result<()> {
        let Some(obs) = self.obs() else {
            return writeln!(w, "ERR metrics disabled (--no-obs)");
        };
        let read = |c: &mut ShardConn| {
            c.read_status()?;
            let mut text = read_text_body(c.reader())?.join("\n");
            text.push('\n');
            Ok(text)
        };
        let map = self.shared.map();
        let all = 0..map.range_count();
        match settle(self.exchange(&map, all, "METRICS", self.retry_budget, read)) {
            Err(e) => writeln!(w, "ERR {e}"),
            Ok(texts) => {
                let shard_expos: Vec<(String, String)> = texts
                    .into_iter()
                    .enumerate()
                    .map(|(i, (text, _))| (i.to_string(), text))
                    .collect();
                match merge_exposition(&shard_expos) {
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
                }
            }
        }
    }

    /// Forwards a text-bodied command (`LIST`, `EXPLAIN`) to range 0
    /// (failing over among its replicas) and relays the response. Plans
    /// and the query registry are identical on every shard (same specs,
    /// same replicated dimension tables), so one range speaks for the
    /// fleet.
    fn relay_text(&self, line: &str, w: &mut dyn Write) -> io::Result<()> {
        let read = |c: &mut ShardConn| {
            let status = c.read_status()?;
            let body = read_text_body(c.reader())?;
            Ok((status, body))
        };
        let map = self.shared.map();
        match settle(self.exchange(&map, 0..1, line, self.retry_budget, read)) {
            Err(e) => writeln!(w, "ERR {e}"),
            Ok(answers) => {
                let ((status, body), _) = &answers[0];
                writeln!(w, "OK {status}")?;
                for l in body {
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
    /// replicas<i>=<size>`). A shard reply without a numeric `rows=` is an
    /// error, never a zero.
    fn info_line(&self) -> Result<String, RouterError> {
        let map = self.shared.map();
        let all = 0..map.range_count();
        let infos = self.exchange(&map, all, "INFO", self.retry_budget, ShardConn::read_status);
        let lines = settle(infos)?;
        let field = |l: &str, key: &str| -> Option<u64> {
            l.split_whitespace()
                .find_map(|kv| kv.strip_prefix(key))
                .and_then(|v| v.strip_prefix('='))
                .and_then(|v| v.parse().ok())
        };
        let rows = lines
            .iter()
            .enumerate()
            .map(|(ri, (l, rj))| {
                field(l, "rows").ok_or_else(|| {
                    RouterError::Query(origin(ri, *rj, "INFO reply has no numeric rows= field"))
                })
            })
            .collect::<Result<Vec<u64>, _>>()?;
        let uptimes: Vec<u64> = lines
            .iter()
            .filter_map(|(l, _)| field(l, "uptime_secs"))
            .collect();
        let mut out = format!(
            "shards={} rows={} replicas={} replicas_live={}",
            map.range_count(),
            rows.iter().sum::<u64>(),
            map.total_replicas(),
            map.live_replicas(),
        );
        for kv in lines[0].0.split_whitespace() {
            match kv.split_once('=') {
                // Fleet-level, per-shard, or router-level fields replace
                // these range-0 values.
                Some((
                    "rows" | "shard" | "shards" | "replica" | "uptime_secs" | "build" | "versions",
                    _,
                ))
                | None => {}
                Some(_) => out.push_str(&format!(" {kv}")),
            }
        }
        out.push_str(&format!(
            " uptime_secs={} uptime_min_secs={} uptime_max_secs={} build={}",
            self.uptime_secs(),
            uptimes.iter().min().copied().unwrap_or(0),
            uptimes.iter().max().copied().unwrap_or(0),
            Self::build(),
        ));
        for (i, ((_, replica), n)) in lines.iter().zip(&rows).enumerate() {
            let range = map.range(i);
            out.push_str(&format!(
                " shard{i}={} rows{i}={n} replicas{i}={}",
                range.replica(*replica).addr(),
                range.len(),
            ));
        }
        Ok(out)
    }

    /// Routed `CACHE STATS`: every per-tier counter summed across one
    /// replica per range, in range 0's field order so the line shape
    /// matches a single node's, then `shards=N` and the router's own
    /// `router_*` tier as distinct fields — never summed into the shard
    /// counters. A counter that does not parse is an error, never a zero.
    fn cache_stats_line(&self) -> Result<String, RouterError> {
        let map = self.shared.map();
        let all = 0..map.range_count();
        let stats = self.exchange(
            &map,
            all,
            "CACHE STATS",
            self.retry_budget,
            ShardConn::read_status,
        );
        let lines = settle(stats)?;
        let mut keys: Vec<&str> = Vec::new();
        let mut sums: BTreeMap<&str, u64> = BTreeMap::new();
        for (ri, (l, rj)) in lines.iter().enumerate() {
            for kv in l.split_whitespace() {
                if let Some((k, v)) = kv.split_once('=') {
                    let v: u64 = v.parse().map_err(|_| {
                        RouterError::Query(origin(ri, *rj, format!("malformed counter {kv}")))
                    })?;
                    if !sums.contains_key(k) {
                        keys.push(k);
                    }
                    *sums.entry(k).or_insert(0) += v;
                }
            }
        }
        let mut out: Vec<String> = keys.iter().map(|k| format!("{k}={}", sums[k])).collect();
        out.push(format!("shards={}", map.range_count()));
        out.push(render_router_cache_stats(&self.shared.cache.stats()));
        Ok(out.join(" "))
    }

    /// Routed `CACHE CLEAR [dims]`: drops the router's own tier first —
    /// routed results compose shard work, so they go with it — then asks
    /// **every replica** of every range over a fresh dial, so no sibling
    /// keeps a stale cache. Every replica is tried; the answer is the
    /// first failure by the fan-out rule, where a range is unavailable
    /// only when none of its replicas answered.
    fn cache_clear(&self, line: &str) -> Result<(), RouterError> {
        // Local tier first, unconditionally: even if some shard is
        // unreachable, a cleared router tier is merely cold, never stale.
        self.shared.cache.clear();
        let map = self.shared.map();
        let results = map
            .ranges()
            .iter()
            .enumerate()
            .map(|(ri, range)| {
                let mut answered = false;
                let mut query_err = None;
                let mut last_detail = String::new();
                for (rj, rep) in range.replicas().iter().enumerate() {
                    match ask(rep, line, ShardConn::read_status) {
                        Ok(_) => answered = true,
                        Err(ClientError::Server(msg)) => {
                            query_err.get_or_insert_with(|| origin(ri, rj, msg));
                        }
                        Err(e) => last_detail = e.to_string(),
                    }
                }
                match query_err {
                    Some(msg) => Err(GatherError::Query(msg)),
                    None if answered => Ok(()),
                    None => Err(GatherError::Unavailable(last_detail)),
                }
            })
            .collect();
        settle(results).map(drop)
    }

    /// `CACHE` at the router (see [`cache_stats_line`](Self::cache_stats_line)
    /// and [`cache_clear`](Self::cache_clear)).
    fn handle_cache(&self, cmd: CacheCmd, w: &mut dyn Write) -> io::Result<()> {
        let answer = match cmd {
            CacheCmd::Stats => self.cache_stats_line(),
            CacheCmd::Clear => self.cache_clear("CACHE CLEAR").map(|()| "cleared".into()),
            CacheCmd::ClearDims => self
                .cache_clear("CACHE CLEAR dims")
                .map(|()| "cleared dims".into()),
        };
        match answer {
            Ok(text) => writeln!(w, "OK {text}"),
            Err(e) => writeln!(w, "ERR {e}"),
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
                if let Some(obs) = self.obs() {
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
        let obs = self.obs();
        let map = self.shared.map();
        let generation = map.generation();
        let n = map.range_count();

        // The freshness proof: no version vector for some range means no
        // proof — serve this request uncached rather than fail or
        // stale-serve.
        let key: Option<FleetKey> = cached.and_then(|qfp| {
            let mut versions = cache.cached_versions(generation, n);
            for (ri, slot) in versions.iter_mut().enumerate() {
                if slot.is_none() {
                    // On demand: one `INFO` to this range, under a
                    // probe-local budget of one retry.
                    let info = self.exchange(&map, ri..ri + 1, "INFO", 1, ShardConn::read_status);
                    let (status, _) = info.into_iter().next()?.ok()?;
                    let vs = parse_versions_field(&status)?;
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

        // Each range's RTT is the time from the scatter's start to its
        // gather, recorded even when another range fails.
        let read = |c: &mut ShardConn| Ok((read_partial_response(c)?, elapsed_micros(started)));
        let results = self.exchange(&map, 0..n, forward, self.retry_budget, read);
        if let Some(o) = obs {
            for (ri, r) in results.iter().enumerate() {
                if let Ok(((_, rtt), replica)) = r {
                    o.record_rtt(ri, *rtt);
                    o.note_replica_request(ri, *replica);
                }
            }
        }
        // Past this point every range was gathered, so `gathered[ri]` is
        // range `ri`.
        let gathered: Vec<(Gathered, usize)> = settle(results)?
            .into_iter()
            .map(|((g, _), replica)| (g, replica))
            .collect();
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
        let map = shared.map();
        let now = map.now_micros();
        for range in map.ranges() {
            for rep in range.replicas() {
                if rep.is_live() || !rep.probe_due(now) {
                    continue;
                }
                match ask(rep, "PING", ShardConn::read_status) {
                    Ok(_) => {
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
                // A fresh dial: the prober must not compete with request
                // traffic for pooled conns, nor convict replicas.
                let range = map.range(ri);
                let rep = range.replica(range.preferred());
                let status = ask(rep, "INFO", ShardConn::read_status);
                if let Some(vs) = status.ok().and_then(|s| parse_versions_field(&s)) {
                    shared.cache.record_versions(generation, n, ri, vs);
                }
            }
        }
    }
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
        if let (Some(obs), Some(verb)) = (self.obs(), verb) {
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
            Ok(Request::Info) => match self.info_line() {
                Ok(line) => writeln!(w, "OK {line}")?,
                Err(e) => writeln!(w, "ERR {e}")?,
            },
            Ok(Request::Metrics) => self.handle_metrics(&mut w)?,
            Ok(Request::MetricsSlow) => match self.obs() {
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

/// Serves `router` on `addr` under the default frontend tunables — the
/// same frontend as qppt-server, because it is literally
/// [`serve_lines`].
pub fn serve_router(router: Arc<Router>, addr: &str) -> io::Result<ServerHandle> {
    serve_lines(router, addr, ServerConfig::default())
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
