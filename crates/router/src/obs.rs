//! Router-side observability: the `qppt_router_*` metric families and the
//! router's slow-query log.
//!
//! The router's `METRICS` response is a *merge*: every shard's exposition
//! is fanned in, re-labeled `shard="<i>"`, summed into `shard="fleet"`
//! samples ([`qppt_obs::merge_exposition`]), and the router's own
//! families — all under the `qppt_router_` prefix, so they can never
//! collide with a shard family — are appended from the [`RouterObs`]
//! registry rendered here.

use std::sync::Arc;
use std::time::Instant;

use qppt_obs::{Counter, Gauge, Histogram, Registry, SlowRing};

/// Wire verbs the router instruments with request counters and latency
/// histograms (same set as a shard, minus nothing — the router answers
/// them all).
pub const VERBS: [&str; 8] = [
    "RUN", "QUERY", "EXPLAIN", "LIST", "INFO", "PING", "CACHE", "METRICS",
];

/// Per-verb handles: request count + end-to-end latency.
struct VerbMetrics {
    requests: Arc<Counter>,
    micros: Arc<Histogram>,
}

/// Process-wide router observability state (see module docs).
pub struct RouterObs {
    registry: Registry,
    started: Instant,
    uptime: Arc<Gauge>,
    slow_threshold: Option<u64>,
    slow_queries: Arc<Counter>,
    slow_ring: SlowRing,
    verbs: Vec<(&'static str, VerbMetrics)>,
    retries: Arc<Counter>,
    reconnects: Arc<Counter>,
    failovers: Arc<Counter>,
    replicas_live: Arc<Gauge>,
    probe_recoveries: Arc<Counter>,
    merge_micros: Arc<Histogram>,
    shard_rtt: Vec<Arc<Histogram>>,
}

impl std::fmt::Debug for RouterObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterObs")
            .field("shards", &self.shard_rtt.len())
            .field("slow_threshold", &self.slow_threshold)
            .finish()
    }
}

impl RouterObs {
    /// Creates the router observability state over `shards` shards.
    /// `slow_threshold` is the `--slow-query-micros` value: routed
    /// queries at or above it are recorded in the slow-query ring served
    /// by `METRICS SLOW` (`None` disables).
    pub fn new(shards: usize, slow_threshold: Option<u64>) -> Arc<Self> {
        let registry = Registry::new();
        let uptime = registry.gauge(
            "qppt_router_uptime_seconds",
            "Seconds since this router started serving.",
        );
        let slow_queries = registry.counter(
            "qppt_router_slow_queries_total",
            "Routed queries that exceeded the --slow-query-micros threshold.",
        );
        let verbs = VERBS
            .iter()
            .map(|&verb| {
                (
                    verb,
                    VerbMetrics {
                        requests: registry.counter_with(
                            "qppt_router_requests_total",
                            "Client requests served by the router, by wire verb.",
                            vec![("verb", verb.to_string())],
                        ),
                        micros: registry.histogram_with(
                            "qppt_router_request_micros",
                            "End-to-end client request latency at the router in \
                             microseconds, by wire verb.",
                            vec![("verb", verb.to_string())],
                        ),
                    },
                )
            })
            .collect();
        let retries = registry.counter(
            "qppt_router_retries_total",
            "Shard exchanges that spent their one bounded retry.",
        );
        let reconnects = registry.counter(
            "qppt_router_reconnects_total",
            "Fresh shard dials that succeeded on the retry path.",
        );
        let failovers = registry.counter(
            "qppt_router_failovers_total",
            "Range exchanges that succeeded on a different replica than \
             the one first attempted.",
        );
        let replicas_live = registry.gauge(
            "qppt_router_replicas_live",
            "Replicas currently marked live in the shard map.",
        );
        let probe_recoveries = registry.counter(
            "qppt_router_probe_recoveries_total",
            "Suspect replicas flipped back to live by the health prober.",
        );
        let merge_micros = registry.histogram(
            "qppt_router_merge_micros",
            "Wall microseconds spent merging gathered partials and applying ORDER BY.",
        );
        let shard_rtt = (0..shards)
            .map(|i| {
                registry.histogram_with(
                    "qppt_router_shard_rtt_micros",
                    "Wall microseconds from scatter start until the shard's response \
                     was fully read (gather runs in shard order, so later shards \
                     include wait time on earlier ones).",
                    vec![("shard", i.to_string())],
                )
            })
            .collect();
        Arc::new(Self {
            registry,
            started: Instant::now(),
            uptime,
            slow_threshold,
            slow_queries,
            slow_ring: SlowRing::default(),
            verbs,
            retries,
            reconnects,
            failovers,
            replicas_live,
            probe_recoveries,
            merge_micros,
            shard_rtt,
        })
    }

    /// Records one served client request of `verb` taking `micros`.
    pub fn record_request(&self, verb: &str, micros: u64) {
        if let Some((_, m)) = self.verbs.iter().find(|(v, _)| *v == verb) {
            m.requests.inc();
            m.micros.record(micros);
        }
    }

    /// Records the gather round-trip of `shard` (see the family help for
    /// what the measurement includes).
    pub fn record_rtt(&self, shard: usize, micros: u64) {
        if let Some(h) = self.shard_rtt.get(shard) {
            h.record(micros);
        }
    }

    /// Counts one retry attempt on a shard exchange.
    pub fn note_retry(&self) {
        self.retries.inc();
    }

    /// Counts one successful fresh dial on the retry path.
    pub fn note_reconnect(&self) {
        self.reconnects.inc();
    }

    /// Counts one request that succeeded on a sibling replica after the
    /// preferred replica failed mid-request.
    pub fn note_failover(&self) {
        self.failovers.inc();
    }

    /// Counts one range exchange answered by `replica` of `shard` — the
    /// per-replica spread of the round-robin read load-balancer. Series
    /// are registered get-or-create on first sight, so the family only
    /// carries replicas that actually answered.
    pub fn note_replica_request(&self, shard: usize, replica: usize) {
        self.registry
            .counter_with(
                "qppt_router_replica_requests_total",
                "Range exchanges answered, by shard and replica ordinal \
                 (the read load-balancer's spread).",
                vec![
                    ("shard", shard.to_string()),
                    ("replica", replica.to_string()),
                ],
            )
            .inc();
    }

    /// Publishes the current fleet-wide live-replica count (the
    /// `qppt_router_replicas_live` gauge).
    pub fn set_replicas_live(&self, live: usize) {
        self.replicas_live
            .set(i64::try_from(live).unwrap_or(i64::MAX));
    }

    /// Counts one suspect replica the health prober flipped back to live.
    pub fn note_probe_recovery(&self) {
        self.probe_recoveries.inc();
    }

    /// Records one partial-merge duration.
    pub fn record_merge(&self, micros: u64) {
        self.merge_micros.record(micros);
    }

    /// The slow-query threshold (µs), if the log is enabled.
    pub fn slow_threshold(&self) -> Option<u64> {
        self.slow_threshold
    }

    /// The slow-query counter ([`slow_log`](qppt_server::obs::slow_log)
    /// bumps it).
    pub fn slow_queries(&self) -> &Counter {
        &self.slow_queries
    }

    /// The slow-query ring buffer behind the routed `METRICS SLOW`.
    pub fn slow_ring(&self) -> &SlowRing {
        &self.slow_ring
    }

    /// Seconds since this router started serving.
    pub fn uptime_secs(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Renders the router's own families (uptime refreshed at scrape
    /// time) — appended after the merged shard exposition.
    pub fn render(&self) -> String {
        self.uptime.set(self.uptime_secs() as i64);
        self.registry.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qppt_obs::parse_exposition;

    #[test]
    fn render_is_valid_exposition() {
        let obs = RouterObs::new(2, Some(500));
        obs.record_request("RUN", 1_200);
        obs.record_rtt(0, 800);
        obs.record_rtt(1, 950);
        obs.note_retry();
        obs.note_reconnect();
        obs.note_failover();
        obs.note_replica_request(0, 1);
        obs.note_replica_request(0, 1);
        obs.set_replicas_live(3);
        obs.note_probe_recovery();
        obs.record_merge(40);
        obs.slow_queries().inc();
        let expo = parse_exposition(&obs.render()).expect("exposition parses");
        assert_eq!(
            expo.value("qppt_router_requests_total", &[("verb", "RUN")]),
            Some(1)
        );
        assert_eq!(expo.value("qppt_router_retries_total", &[]), Some(1));
        assert_eq!(expo.value("qppt_router_reconnects_total", &[]), Some(1));
        assert_eq!(expo.value("qppt_router_failovers_total", &[]), Some(1));
        assert_eq!(
            expo.value(
                "qppt_router_replica_requests_total",
                &[("shard", "0"), ("replica", "1")]
            ),
            Some(2)
        );
        assert_eq!(expo.value("qppt_router_replicas_live", &[]), Some(3));
        assert_eq!(
            expo.value("qppt_router_probe_recoveries_total", &[]),
            Some(1)
        );
        assert_eq!(expo.value("qppt_router_slow_queries_total", &[]), Some(1));
        assert_eq!(
            expo.value("qppt_router_shard_rtt_micros_count", &[("shard", "1")]),
            Some(1)
        );
        assert_eq!(expo.value("qppt_router_merge_micros_count", &[]), Some(1));
        assert_eq!(expo.kind("qppt_router_shard_rtt_micros"), Some("histogram"));
    }

    #[test]
    fn out_of_range_shard_rtt_is_ignored() {
        let obs = RouterObs::new(1, None);
        obs.record_rtt(7, 100);
        let expo = parse_exposition(&obs.render()).expect("exposition parses");
        assert_eq!(
            expo.value("qppt_router_shard_rtt_micros_count", &[("shard", "0")]),
            Some(0)
        );
    }
}
