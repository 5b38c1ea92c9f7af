//! Router-side observability: the `qppt_router_*` metric families and the
//! router's slow-query log.
//!
//! The router's `METRICS` response is a *merge*: every shard's exposition
//! is fanned in, re-labeled `shard="<i>"`, summed into `shard="fleet"`
//! samples ([`qppt_obs::merge_exposition`]), and the router's own
//! families — all under the `qppt_router_` prefix, so they can never
//! collide with a shard family — are appended from the [`RouterObs`]
//! registry rendered here. The front-end families (per-verb requests and
//! latency, uptime, slow-query log) are the shared [`FrontObs`] a shard
//! keeps too; the scatter/failover families are the router's own.

use std::sync::Arc;

use qppt_obs::{Counter, Gauge, Histogram};
use qppt_server::obs::FrontObs;

/// Process-wide router observability state (see module docs); the shared
/// front-end metrics are reachable through `Deref`.
pub struct RouterObs {
    front: FrontObs,
    retries: Arc<Counter>,
    reconnects: Arc<Counter>,
    failovers: Arc<Counter>,
    replicas_live: Arc<Gauge>,
    probe_recoveries: Arc<Counter>,
    merge_micros: Arc<Histogram>,
    shard_rtt: Vec<Arc<Histogram>>,
}

impl std::ops::Deref for RouterObs {
    type Target = FrontObs;

    fn deref(&self) -> &FrontObs {
        &self.front
    }
}

impl std::fmt::Debug for RouterObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterObs")
            .field("shards", &self.shard_rtt.len())
            .finish()
    }
}

impl RouterObs {
    /// Creates the router observability state over `shards` shards.
    /// `slow_threshold` is the `--slow-query-micros` value: routed
    /// queries at or above it are recorded in the slow-query ring served
    /// by `METRICS SLOW` (`None` disables).
    pub fn new(shards: usize, slow_threshold: Option<u64>) -> Arc<Self> {
        let front = FrontObs::new("qppt_router_", slow_threshold);
        let registry = front.registry();
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
            retries,
            reconnects,
            failovers,
            replicas_live,
            probe_recoveries,
            merge_micros,
            shard_rtt,
            front,
        })
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
        self.front
            .registry()
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use qppt_obs::parse_exposition;

    #[test]
    fn render_is_valid_exposition() {
        let obs = RouterObs::new(2, Some(0)); // threshold 0µs: every logged request is "slow"
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
        obs.slow_log(std::time::Instant::now(), "RUN", "RUN q1.1", "scatter", &[]);
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
