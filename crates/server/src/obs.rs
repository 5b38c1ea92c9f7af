//! Front-end observability state behind the `METRICS` verb and the
//! slow-query log.
//!
//! Every line-protocol front end — a `qppt-server` shard and the
//! `qppt-router` alike — embeds one [`FrontObs`]: the metric [`Registry`],
//! the per-verb request counters and latency histograms (pre-registered,
//! so the hot path never takes the registry lock), the uptime gauge and
//! the slow-query log. The two differ only in their family-name prefix
//! (`qppt_` vs `qppt_router_`, so a router family can never collide with a
//! shard family in the merged fleet exposition).
//!
//! One [`ServeObs`] per server process adds the cache-tier families, which
//! are produced *at scrape time from the same [`CacheStats`] snapshot
//! `CACHE STATS` reads*. That construction is what makes the two surfaces
//! agree by definition rather than by double-entry bookkeeping.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use qppt_cache::{CacheStats, TierSnapshot};
use qppt_obs::{Counter, Gauge, Histogram, Registry, SlowEntry, SlowRing, SpanRec, Trace};
use qppt_par::PoolMetrics;

use crate::protocol::TraceMode;

/// Wire verbs instrumented with request counters and latency histograms.
const VERBS: [&str; 8] = [
    "RUN", "QUERY", "EXPLAIN", "LIST", "INFO", "PING", "CACHE", "METRICS",
];

/// The per-verb handles: request count + end-to-end latency.
struct VerbMetrics {
    requests: Arc<Counter>,
    micros: Arc<Histogram>,
}

/// The metrics every line-protocol front end keeps (see module docs).
pub struct FrontObs {
    registry: Registry,
    started: Instant,
    uptime: Arc<Gauge>,
    slow_threshold: Option<u64>,
    slow_queries: Arc<Counter>,
    slow_ring: SlowRing,
    verbs: Vec<(&'static str, VerbMetrics)>,
}

impl FrontObs {
    /// Registers the front-end families under `prefix` (`qppt_` for a
    /// server, `qppt_router_` for the router). `slow_threshold` is the
    /// `--slow-query-micros` value: `RUN`/`QUERY` requests at or above it
    /// are recorded in the slow-query ring served by `METRICS SLOW`
    /// (`None` disables).
    pub fn new(prefix: &str, slow_threshold: Option<u64>) -> Self {
        let registry = Registry::new();
        let uptime = registry.gauge(
            format!("{prefix}uptime_seconds"),
            "Seconds since this process started serving.",
        );
        let slow_queries = registry.counter(
            format!("{prefix}slow_queries_total"),
            "Requests that exceeded the --slow-query-micros threshold.",
        );
        let verbs = VERBS
            .iter()
            .map(|&verb| {
                (
                    verb,
                    VerbMetrics {
                        requests: registry.counter_with(
                            format!("{prefix}requests_total"),
                            "Requests served, by wire verb.",
                            vec![("verb", verb.to_string())],
                        ),
                        micros: registry.histogram_with(
                            format!("{prefix}request_micros"),
                            "End-to-end request latency in microseconds, by wire verb.",
                            vec![("verb", verb.to_string())],
                        ),
                    },
                )
            })
            .collect();
        Self {
            registry,
            started: Instant::now(),
            uptime,
            slow_threshold,
            slow_queries,
            slow_ring: SlowRing::default(),
            verbs,
        }
    }

    /// The underlying registry, for registering further families (pool,
    /// router scatter/failover).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Records one served request of `verb` taking `micros`.
    pub fn record_request(&self, verb: &str, micros: u64) {
        if let Some((_, m)) = self.verbs.iter().find(|(v, _)| *v == verb) {
            m.requests.inc();
            m.micros.record(micros);
        }
    }

    /// Records a slow `RUN`/`QUERY` in the ring (and counts it) when its
    /// wall time since `started` reached the `--slow-query-micros`
    /// threshold.
    pub fn slow_log(
        &self,
        started: Instant,
        verb: &str,
        line: &str,
        outcome: &str,
        spans: &[SpanRec],
    ) {
        let Some(threshold) = self.slow_threshold else {
            return;
        };
        let micros = elapsed_micros(started);
        if micros < threshold {
            return;
        }
        self.slow_queries.inc();
        self.slow_ring.push(SlowEntry {
            verb: verb.to_string(),
            line: line.to_string(),
            outcome: outcome.to_string(),
            micros,
            spans: spans.to_vec(),
        });
    }

    /// The slow-query ring buffer behind `METRICS SLOW`.
    pub fn slow_ring(&self) -> &SlowRing {
        &self.slow_ring
    }

    /// Renders the registry's families, the uptime gauge refreshed at
    /// scrape time.
    pub fn render(&self) -> String {
        self.uptime.set(self.started.elapsed().as_secs() as i64);
        self.registry.render()
    }
}

/// A server process's observability state: the shared front-end metrics
/// (reachable through `Deref`) plus the cache-tier families.
pub struct ServeObs {
    front: FrontObs,
}

impl std::ops::Deref for ServeObs {
    type Target = FrontObs;

    fn deref(&self) -> &FrontObs {
        &self.front
    }
}

impl std::fmt::Debug for ServeObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeObs")
            .field("slow_threshold", &self.front.slow_threshold)
            .finish()
    }
}

impl ServeObs {
    /// Creates the observability state; see [`FrontObs::new`] for
    /// `slow_threshold`.
    pub fn new(slow_threshold: Option<u64>) -> Arc<Self> {
        Arc::new(Self {
            front: FrontObs::new("qppt_", slow_threshold),
        })
    }

    /// Registers and returns the worker-pool metric handles.
    pub fn pool_metrics(&self) -> PoolMetrics {
        PoolMetrics::register(&self.front.registry)
    }

    /// Renders the full exposition: registry families, then the
    /// cache-tier families derived from `cache` — the very snapshot
    /// `CACHE STATS` renders.
    pub fn render(&self, cache: &CacheStats) -> String {
        let mut out = self.front.render();
        out.push_str(&render_cache_metrics(cache));
        out
    }
}

/// Process-wide source of locally picked trace ids (`trace=on` without a
/// pinned id). Monotonic, never reused within a process.
static TRACE_SEQ: AtomicU64 = AtomicU64::new(1);

/// Creates the request [`Trace`] demanded by a `trace=` option: a pinned
/// id is honored verbatim (so the router can stitch the shard's spans
/// under its own tree), `on` draws a fresh process-unique id, `off` yields
/// no trace. Tracing is independent of `--no-obs` — it is request-scoped
/// state, not registry state.
pub fn make_trace(mode: TraceMode) -> Option<Trace> {
    match mode {
        TraceMode::Off => None,
        TraceMode::On => Some(Trace::new(TRACE_SEQ.fetch_add(1, Ordering::Relaxed))),
        TraceMode::Id(id) => Some(Trace::new(id)),
    }
}

/// Closes out a request trace: the root span absorbs the served
/// `total_micros` and the flat wire-ordered span list comes back (empty
/// when the request was untraced).
pub fn finish_trace(trace: Option<Trace>, total_micros: u128) -> Vec<SpanRec> {
    match trace {
        None => Vec::new(),
        Some(t) => t.finish(u64::try_from(total_micros).unwrap_or(u64::MAX)),
    }
}

/// Saturating `u64` micros since `started`.
pub fn elapsed_micros(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Renders the cache tiers as Prometheus families with a `tier` label,
/// mirroring [`render_cache_stats`](crate::engine::render_cache_stats)
/// field for field.
fn render_cache_metrics(s: &CacheStats) -> String {
    let tiers: [(&str, &TierSnapshot); 2] = [("result", &s.results), ("dim", &s.dims)];
    let mut out = String::new();
    let mut family = |name: &str, help: &str, kind: &str, get: &dyn Fn(&TierSnapshot) -> i64| {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
        for (tier, t) in &tiers {
            out.push_str(&format!("{name}{{tier=\"{tier}\"}} {}\n", get(t)));
        }
    };
    family(
        "qppt_cache_hits_total",
        "Cache lookups answered from the tier.",
        "counter",
        &|t| t.hits as i64,
    );
    family(
        "qppt_cache_misses_total",
        "Cache lookups the tier could not answer.",
        "counter",
        &|t| t.misses as i64,
    );
    family(
        "qppt_cache_invalidations_total",
        "Entries dropped because a table version moved.",
        "counter",
        &|t| t.invalidations as i64,
    );
    family(
        "qppt_cache_evictions_total",
        "Entries removed under byte pressure.",
        "counter",
        &|t| t.evictions as i64,
    );
    family(
        "qppt_cache_expirations_total",
        "Entries removed after sitting idle past the TTL.",
        "counter",
        &|t| t.expirations as i64,
    );
    family(
        "qppt_cache_entries",
        "Live entries resident in the tier.",
        "gauge",
        &|t| t.entries as i64,
    );
    family(
        "qppt_cache_bytes",
        "Heap bytes resident in the tier.",
        "gauge",
        &|t| t.bytes as i64,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qppt_obs::parse_exposition;

    #[test]
    fn render_is_valid_exposition_with_cache_families() {
        let obs = ServeObs::new(Some(0)); // threshold 0µs: every logged request is "slow"
        obs.record_request("RUN", 250);
        obs.record_request("RUN", 90_000);
        obs.record_request("PING", 5);
        obs.slow_log(Instant::now(), "RUN", "RUN q1.1", "bypass", &[]);
        assert_eq!(obs.slow_ring().snapshot().len(), 1);
        let stats = CacheStats::default();
        let text = obs.render(&stats);
        let expo = parse_exposition(&text).expect("exposition parses");
        assert_eq!(
            expo.value("qppt_requests_total", &[("verb", "RUN")]),
            Some(2)
        );
        assert_eq!(
            expo.value("qppt_requests_total", &[("verb", "PING")]),
            Some(1)
        );
        assert_eq!(expo.value("qppt_slow_queries_total", &[]), Some(1));
        assert_eq!(
            expo.value("qppt_request_micros_count", &[("verb", "RUN")]),
            Some(2)
        );
        assert_eq!(
            expo.value("qppt_cache_hits_total", &[("tier", "result")]),
            Some(0)
        );
        assert_eq!(expo.value("qppt_cache_bytes", &[("tier", "dim")]), Some(0));
        for gone in ["plan", "selection"] {
            assert_eq!(expo.value("qppt_cache_bytes", &[("tier", gone)]), None);
        }
        assert!(expo.value("qppt_uptime_seconds", &[]).is_some());
        assert_eq!(expo.kind("qppt_request_micros"), Some("histogram"));
    }

    #[test]
    fn unknown_verbs_are_ignored() {
        let obs = ServeObs::new(None);
        obs.record_request("BOGUS", 1);
        let text = obs.render(&CacheStats::default());
        assert!(!text.contains("BOGUS"));
        // No threshold: the slow log is off.
        obs.slow_log(Instant::now(), "RUN", "RUN q1.1", "bypass", &[]);
        assert!(obs.slow_ring().snapshot().is_empty());
    }
}
