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

use qppt_cache::{render_tier_families, CacheStats};
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
        out.push_str(&render_tier_families("qppt_cache_", &cache.tiers()));
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

    /// Pins the server's `CACHE STATS` line and `qppt_cache_*` families
    /// byte for byte, every counter non-zero and distinct.
    #[test]
    fn cache_vocabulary_renders_golden_stats_line_and_families() {
        let tier = |base: u64| qppt_cache::TierSnapshot {
            hits: base + 1,
            misses: base + 2,
            invalidations: base + 3,
            evictions: base + 4,
            expirations: base + 5,
            insertions: base + 6,
            entries: base as usize + 7,
            bytes: base as usize + 8,
        };
        let stats = CacheStats {
            results: tier(10),
            dims: tier(20),
            ..CacheStats::default()
        };
        assert_eq!(
            crate::render_cache_stats(&stats),
            "result_hits=11 result_misses=12 result_invalidations=13 result_evictions=14 \
             result_expirations=15 result_entries=17 result_bytes=18 \
             dim_hits=21 dim_misses=22 dim_invalidations=23 dim_evictions=24 \
             dim_expirations=25 dim_entries=27 dim_bytes=28"
        );
        let golden = "\
# HELP qppt_cache_hits_total Cache lookups answered from the tier.
# TYPE qppt_cache_hits_total counter
qppt_cache_hits_total{tier=\"result\"} 11
qppt_cache_hits_total{tier=\"dim\"} 21
# HELP qppt_cache_misses_total Cache lookups the tier could not answer.
# TYPE qppt_cache_misses_total counter
qppt_cache_misses_total{tier=\"result\"} 12
qppt_cache_misses_total{tier=\"dim\"} 22
# HELP qppt_cache_invalidations_total Entries dropped because a version they were computed at moved.
# TYPE qppt_cache_invalidations_total counter
qppt_cache_invalidations_total{tier=\"result\"} 13
qppt_cache_invalidations_total{tier=\"dim\"} 23
# HELP qppt_cache_evictions_total Entries removed under byte pressure.
# TYPE qppt_cache_evictions_total counter
qppt_cache_evictions_total{tier=\"result\"} 14
qppt_cache_evictions_total{tier=\"dim\"} 24
# HELP qppt_cache_expirations_total Entries removed after sitting idle past the TTL.
# TYPE qppt_cache_expirations_total counter
qppt_cache_expirations_total{tier=\"result\"} 15
qppt_cache_expirations_total{tier=\"dim\"} 25
# HELP qppt_cache_entries Live entries resident in the tier.
# TYPE qppt_cache_entries gauge
qppt_cache_entries{tier=\"result\"} 17
qppt_cache_entries{tier=\"dim\"} 27
# HELP qppt_cache_bytes Heap bytes resident in the tier.
# TYPE qppt_cache_bytes gauge
qppt_cache_bytes{tier=\"result\"} 18
qppt_cache_bytes{tier=\"dim\"} 28
";
        let text = ServeObs::new(None).render(&stats);
        assert!(text.ends_with(golden), "cache families drifted:\n{text}");
        parse_exposition(&text).expect("exposition parses");
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
