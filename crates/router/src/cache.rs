//! The router-side result cache: one fleet-keyed merged-result tier over
//! the same byte-budgeted [`ShardedLru`] machinery the shards use, plus
//! the version-probe state that keeps it coherent without a database.
//!
//! An entry is the fully merged, ordered [`QueryResult`] of one routed
//! `RUN`/`QUERY`, keyed on the query/options fingerprint and valid only at
//! one `(topology generation, per-shard table-version vector)` snapshot. A
//! hit answers a repeated fleet-wide query without touching any shard. A
//! miss — a topology swap, a write to any shard, or a cold query —
//! scatters to every range; a shard whose versions have not moved answers
//! its `mode=partial` request from its own result tier, so the router
//! keeps no second copy of shard partials.
//!
//! ## Coherence without a database
//!
//! The router cannot compute [`QueryFingerprint`](qppt_cache::QueryFingerprint)s
//! — it has no catalog. Instead every shard surfaces its table-version
//! vector as the `versions=` field of `INFO` (catalog order, deterministic
//! across identically built replicas), and the router tracks one probed
//! vector per range. A probed vector older than the staleness bound
//! (`--cache-probe-interval-ms`) is re-probed before any cached entry is
//! served, so a cached answer can never be staler than that bound; the
//! background prober refreshes recently used vectors proactively so warm
//! traffic rarely pays an on-demand probe. A version mismatch at lookup
//! time invalidates every merged result composed from the moved shard —
//! the same key-level MVCC check the shard tiers run, lifted to fleet
//! scope.
//!
//! Correctness rests on the invariants the router already relies on:
//! results are byte-identical across parallelism (so a router-side options
//! fingerprint over the *normalized* client options is sound even when
//! shard defaults differ), and any server addressed as
//! range `i` of `n` serves the canonical shard `i/n` of the same dataset.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use qppt_cache::{
    render_tier_families, render_tier_stats, CacheKey, HeapSize, ShardedLru, TierSnapshot,
};
use qppt_storage::QueryResult;

/// The fleet-scoped [`CacheKey`]: a 64-bit bucket key plus the version
/// vector a valid entry must match. Built by [`FleetKey::merged`];
/// `qppt-cache` stays shard-agnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetKey {
    key: u64,
    versions: Vec<u64>,
}

impl CacheKey for FleetKey {
    fn key(&self) -> u64 {
        self.key
    }

    fn versions(&self) -> &[u64] {
        &self.versions
    }
}

impl FleetKey {
    /// The merged-result tier key of one routed query. The bucket key is
    /// the query/options fingerprint itself — stable across topology
    /// swaps — while the version vector snapshots the topology generation
    /// plus every range's table versions (length-prefixed, so vectors of
    /// different shapes can never alias). A swap or any shard write thus
    /// registers as an **invalidation** at the next lookup, not a miss.
    pub fn merged(qfp: u64, generation: u64, range_versions: &[Vec<u64>]) -> Self {
        let mut versions = Vec::with_capacity(
            2 + range_versions.len() + range_versions.iter().map(Vec::len).sum::<usize>(),
        );
        versions.push(generation);
        versions.push(range_versions.len() as u64);
        for vs in range_versions {
            versions.push(vs.len() as u64);
            versions.extend_from_slice(vs);
        }
        Self { key: qfp, versions }
    }
}

/// A merged-result tier entry: the ordered, decoded fleet-wide result plus
/// the worker count reported when it was first assembled (re-served on
/// hits so the response header keeps its shape).
#[derive(Debug, Clone)]
pub struct CachedMerged {
    pub result: QueryResult,
    pub workers: usize,
}

impl HeapSize for CachedMerged {
    fn heap_bytes(&self) -> usize {
        self.result.memory_bytes()
    }
}

/// One range's probed table-version vector and when it was learned.
#[derive(Debug, Clone)]
struct ProbedVersions {
    versions: Vec<u64>,
    learned: Instant,
}

/// The per-range version-probe state, valid for exactly one topology
/// generation — a fleet swap resets it wholesale (new ranges may be
/// entirely different servers).
#[derive(Debug)]
struct VersionState {
    generation: u64,
    ranges: Vec<Option<ProbedVersions>>,
}

/// Shard count of the tier (no deployment has ever needed another).
const SHARDS: usize = 8;

/// Budget and probe tunables of the [`RouterCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterCacheConfig {
    /// Byte budget of the merged-result tier.
    pub result_budget: usize,
    /// The staleness bound (`--cache-probe-interval-ms`): a probed
    /// version vector older than this is re-probed before any cached
    /// entry is served on it.
    pub probe_interval: Duration,
    /// `false` turns every lookup into a pass-through miss and every
    /// insert into a no-op (`--no-router-cache`).
    pub enabled: bool,
}

impl Default for RouterCacheConfig {
    fn default() -> Self {
        Self {
            result_budget: 32 << 20, // 32 MiB
            probe_interval: Duration::from_millis(500),
            enabled: true,
        }
    }
}

impl RouterCacheConfig {
    /// A configuration with router-side caching switched off entirely.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::default()
        }
    }
}

/// Point-in-time statistics of the router tier plus the version-probe
/// count — what `CACHE STATS` appends as `router_*` fields and `METRICS`
/// renders as `qppt_router_cache_*` families (both from this snapshot, so
/// the two surfaces agree by definition).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterCacheStats {
    pub results: TierSnapshot,
    /// `INFO` version probes issued (on-demand + background refresh).
    pub probes: u64,
}

/// The router-side result cache (see module docs). Internally
/// synchronized — shared behind an `Arc` by the dispatcher and the
/// background prober.
#[derive(Debug)]
pub struct RouterCache {
    results: ShardedLru<Arc<CachedMerged>>,
    state: Mutex<VersionState>,
    probes: AtomicU64,
    probe_interval: Duration,
    enabled: bool,
}

impl Default for RouterCache {
    fn default() -> Self {
        Self::new(RouterCacheConfig::default())
    }
}

impl RouterCache {
    /// Creates the cache with the given budget and probe tunables.
    pub fn new(config: RouterCacheConfig) -> Self {
        Self {
            // No idle TTL: freshness is version probes, and bytes are
            // bounded by the budget.
            results: ShardedLru::new(config.result_budget, SHARDS, None),
            state: Mutex::new(VersionState {
                generation: 0,
                ranges: Vec::new(),
            }),
            probes: AtomicU64::new(0),
            probe_interval: config.probe_interval,
            enabled: config.enabled,
        }
    }

    /// `false` when the cache was built disabled (`--no-router-cache`).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The staleness bound probed vectors are held to.
    pub fn probe_interval(&self) -> Duration {
        self.probe_interval
    }

    /// Locks the state for `generation`/`range_count`, resetting it when
    /// the topology moved (a swapped fleet's ranges may be different
    /// servers — old vectors say nothing about them).
    fn state_for(
        &self,
        generation: u64,
        range_count: usize,
    ) -> std::sync::MutexGuard<'_, VersionState> {
        let mut s = self.state.lock().expect("router cache state lock");
        if s.generation != generation || s.ranges.len() != range_count {
            s.generation = generation;
            s.ranges = vec![None; range_count];
        }
        s
    }

    /// The probed version vectors still inside the staleness bound, per
    /// range (`None` = never probed at this generation, or too old —
    /// probe before serving cache entries on it).
    pub fn cached_versions(&self, generation: u64, range_count: usize) -> Vec<Option<Vec<u64>>> {
        let s = self.state_for(generation, range_count);
        let now = Instant::now();
        s.ranges
            .iter()
            .map(|r| {
                r.as_ref()
                    .filter(|p| now.saturating_duration_since(p.learned) <= self.probe_interval)
                    .map(|p| p.versions.clone())
            })
            .collect()
    }

    /// Records a freshly probed version vector for `range` (and counts the
    /// probe).
    pub fn record_versions(&self, generation: u64, range_count: usize, range: usize, vs: Vec<u64>) {
        let mut s = self.state_for(generation, range_count);
        s.ranges[range] = Some(ProbedVersions {
            versions: vs,
            learned: Instant::now(),
        });
        self.probes.fetch_add(1, Ordering::Relaxed);
    }

    /// Ranges whose probed vector is past half the staleness bound but not
    /// long-idle — what the background prober refreshes so organic warm
    /// hits rarely pay an on-demand probe. Vectors idle past 10× the bound
    /// are left to expire (no traffic is consulting them); a range never
    /// probed is not listed (the first request probes it on demand).
    pub fn refresh_due(&self, generation: u64, range_count: usize) -> Vec<usize> {
        let s = self.state_for(generation, range_count);
        let now = Instant::now();
        s.ranges
            .iter()
            .enumerate()
            .filter_map(|(i, r)| {
                let age = now.saturating_duration_since(r.as_ref()?.learned);
                (age > self.probe_interval / 2 && age <= self.probe_interval * 10).then_some(i)
            })
            .collect()
    }

    /// Merged-result tier lookup.
    pub fn get_merged(&self, key: &FleetKey) -> Option<Arc<CachedMerged>> {
        if !self.enabled {
            return None;
        }
        self.results.get(key)
    }

    /// Merged-result tier insert.
    pub fn put_merged(&self, key: &FleetKey, value: Arc<CachedMerged>) {
        if self.enabled {
            self.results.put(key, value);
        }
    }

    /// Drops every entry (lifetime counters survive). The probed version
    /// vectors are kept — they describe the shards, not the dropped
    /// entries.
    pub fn clear(&self) {
        self.results.clear();
    }

    /// Counters, entry count, and resident bytes of the tier.
    pub fn stats(&self) -> RouterCacheStats {
        RouterCacheStats {
            results: self.results.snapshot(),
            probes: self.probes.load(Ordering::Relaxed),
        }
    }
}

/// Renders [`RouterCacheStats`] as the `router_*` fields the routed
/// `CACHE STATS` line appends after the summed shard counters — the shard
/// tiers' [`TIER_FIELDS`](qppt_cache::TIER_FIELDS) under distinct names,
/// never summed into them — plus `router_probes`.
pub fn render_router_cache_stats(s: &RouterCacheStats) -> String {
    format!(
        "{} router_probes={}",
        render_tier_stats(&[("router_result", &s.results)]),
        s.probes
    )
}

/// Renders the router tier as `qppt_router_cache_*` families, one
/// `tier="result"` sample each, plus the probe counter — appended to the
/// routed `METRICS` exposition from the same snapshot `CACHE STATS` reads.
pub fn render_router_cache_metrics(s: &RouterCacheStats) -> String {
    let mut out = render_tier_families("qppt_router_cache_", &[("result", &s.results)]);
    out.push_str(&format!(
        "# HELP qppt_router_cache_probes_total INFO version probes issued \
         (on-demand + background refresh).\n\
         # TYPE qppt_router_cache_probes_total counter\n\
         qppt_router_cache_probes_total {}\n",
        s.probes
    ));
    out
}

/// Extracts the table-version vector from a server's `INFO` status line
/// (the `versions=` field: comma-separated per-table versions in catalog
/// order). `None` when the field is missing or malformed — the caller
/// falls back to an uncached scatter.
pub fn parse_versions_field(status: &str) -> Option<Vec<u64>> {
    let raw = status
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix("versions="))?;
    raw.split(',').map(|v| v.parse().ok()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn merged(rows: usize) -> CachedMerged {
        CachedMerged {
            result: QueryResult {
                group_cols: vec!["g".to_string()],
                agg_cols: vec!["a".to_string()],
                rows: (0..rows as i64)
                    .map(|k| qppt_storage::ResultRow {
                        key_values: vec![qppt_storage::Value::Int(k)],
                        agg_values: vec![1],
                    })
                    .collect(),
            },
            workers: 2,
        }
    }

    #[test]
    fn merged_key_invalidates_on_any_shard_version_or_generation_move() {
        let cache = RouterCache::default();
        let vs = vec![vec![1, 1], vec![1, 1]];
        let key = FleetKey::merged(7, 0, &vs);
        cache.put_merged(&key, Arc::new(merged(3)));
        assert!(cache.get_merged(&key).is_some());

        // One shard's one table moves: same bucket key, stale versions.
        let moved = vec![vec![2, 1], vec![1, 1]];
        assert!(cache.get_merged(&FleetKey::merged(7, 0, &moved)).is_none());
        assert_eq!(cache.stats().results.invalidations, 1);

        // A topology swap (new generation) also invalidates, not misses.
        cache.put_merged(&FleetKey::merged(7, 0, &vs), Arc::new(merged(3)));
        assert!(cache.get_merged(&FleetKey::merged(7, 1, &vs)).is_none());
        assert_eq!(cache.stats().results.invalidations, 2);
    }

    #[test]
    fn version_state_is_generation_scoped_and_staleness_bounded() {
        let cache = RouterCache::new(RouterCacheConfig {
            probe_interval: Duration::from_millis(40),
            ..RouterCacheConfig::default()
        });
        assert_eq!(cache.cached_versions(0, 2), vec![None, None]);
        cache.record_versions(0, 2, 0, vec![1, 1]);
        cache.record_versions(0, 2, 1, vec![1, 1]);
        assert_eq!(
            cache.cached_versions(0, 2),
            vec![Some(vec![1, 1]), Some(vec![1, 1])]
        );
        assert_eq!(cache.stats().probes, 2);

        // A generation move resets the state wholesale.
        assert_eq!(cache.cached_versions(1, 2), vec![None, None]);
        cache.record_versions(1, 2, 0, vec![3, 1]);
        assert_eq!(cache.cached_versions(1, 2)[0], Some(vec![3, 1]));

        // Past the staleness bound the vector is no longer served…
        std::thread::sleep(Duration::from_millis(80));
        assert_eq!(cache.cached_versions(1, 2), vec![None, None]);
        // …and the background refresh list skips long-idle entries too
        // (age is past 10× the 40 ms bound only much later; here it is
        // due).
        assert_eq!(cache.refresh_due(1, 2), vec![0]);
    }

    #[test]
    fn clear_drops_entries_keeps_counters_and_versions() {
        let cache = RouterCache::default();
        cache.record_versions(0, 1, 0, vec![1]);
        let key = FleetKey::merged(9, 0, &[vec![1]]);
        cache.put_merged(&key, Arc::new(merged(1)));
        assert!(cache.get_merged(&key).is_some());
        cache.clear();
        assert!(cache.get_merged(&key).is_none());
        let s = cache.stats();
        assert_eq!(s.results.entries, 0);
        assert_eq!((s.results.hits, s.results.insertions), (1, 1));
        assert_eq!(cache.cached_versions(0, 1), vec![Some(vec![1])]);
    }

    #[test]
    fn disabled_cache_is_a_pass_through() {
        let cache = RouterCache::new(RouterCacheConfig::disabled());
        assert!(!cache.enabled());
        let key = FleetKey::merged(9, 0, &[vec![1]]);
        cache.put_merged(&key, Arc::new(merged(1)));
        assert!(cache.get_merged(&key).is_none());
        assert_eq!(cache.stats().results.insertions, 0);
    }

    #[test]
    fn stats_renderings_agree_field_for_field() {
        let cache = RouterCache::default();
        let key = FleetKey::merged(3, 0, &[vec![1]]);
        cache.put_merged(&key, Arc::new(merged(2)));
        cache.get_merged(&key);
        cache.get_merged(&FleetKey::merged(4, 0, &[vec![1]]));
        cache.record_versions(0, 1, 0, vec![1]);
        let s = cache.stats();
        let line = render_router_cache_stats(&s);
        assert_eq!(
            line,
            format!(
                "router_result_hits=1 router_result_misses=1 router_result_invalidations=0 \
                 router_result_evictions=0 router_result_expirations=0 router_result_entries=1 \
                 router_result_bytes={} router_probes=1",
                s.results.bytes
            )
        );
        let expo = qppt_obs::parse_exposition(&render_router_cache_metrics(&s))
            .expect("exposition parses");
        assert_eq!(
            expo.value("qppt_router_cache_hits_total", &[("tier", "result")]),
            Some(1)
        );
        assert_eq!(
            expo.value("qppt_router_cache_misses_total", &[("tier", "result")]),
            Some(1)
        );
        assert_eq!(expo.value("qppt_router_cache_probes_total", &[]), Some(1));
        assert_eq!(
            expo.value("qppt_router_cache_bytes", &[("tier", "result")]),
            Some(s.results.bytes as i64)
        );
    }

    /// Pins the router's `router_*` stats fields and `qppt_router_cache_*`
    /// families byte for byte, every counter non-zero and distinct.
    #[test]
    fn cache_vocabulary_renders_golden_stats_fields_and_families() {
        let s = RouterCacheStats {
            results: TierSnapshot {
                hits: 1,
                misses: 2,
                invalidations: 3,
                evictions: 4,
                expirations: 5,
                insertions: 6,
                entries: 7,
                bytes: 8,
            },
            probes: 9,
        };
        assert_eq!(
            render_router_cache_stats(&s),
            "router_result_hits=1 router_result_misses=2 router_result_invalidations=3 \
             router_result_evictions=4 router_result_expirations=5 router_result_entries=7 \
             router_result_bytes=8 router_probes=9"
        );
        let golden = "\
# HELP qppt_router_cache_hits_total Cache lookups answered from the tier.
# TYPE qppt_router_cache_hits_total counter
qppt_router_cache_hits_total{tier=\"result\"} 1
# HELP qppt_router_cache_misses_total Cache lookups the tier could not answer.
# TYPE qppt_router_cache_misses_total counter
qppt_router_cache_misses_total{tier=\"result\"} 2
# HELP qppt_router_cache_invalidations_total Entries dropped because a version they were computed at moved.
# TYPE qppt_router_cache_invalidations_total counter
qppt_router_cache_invalidations_total{tier=\"result\"} 3
# HELP qppt_router_cache_evictions_total Entries removed under byte pressure.
# TYPE qppt_router_cache_evictions_total counter
qppt_router_cache_evictions_total{tier=\"result\"} 4
# HELP qppt_router_cache_expirations_total Entries removed after sitting idle past the TTL.
# TYPE qppt_router_cache_expirations_total counter
qppt_router_cache_expirations_total{tier=\"result\"} 5
# HELP qppt_router_cache_entries Live entries resident in the tier.
# TYPE qppt_router_cache_entries gauge
qppt_router_cache_entries{tier=\"result\"} 7
# HELP qppt_router_cache_bytes Heap bytes resident in the tier.
# TYPE qppt_router_cache_bytes gauge
qppt_router_cache_bytes{tier=\"result\"} 8
# HELP qppt_router_cache_probes_total INFO version probes issued (on-demand + background refresh).
# TYPE qppt_router_cache_probes_total counter
qppt_router_cache_probes_total 9
";
        assert_eq!(render_router_cache_metrics(&s), golden);
    }

    #[test]
    fn versions_field_parses_strictly() {
        assert_eq!(
            parse_versions_field("OK sf=0.01 versions=1,2,3 build=x"),
            Some(vec![1, 2, 3])
        );
        assert_eq!(parse_versions_field("OK versions=7"), Some(vec![7]));
        assert_eq!(parse_versions_field("OK sf=0.01 build=x"), None);
        assert_eq!(parse_versions_field("OK versions=1,x,3"), None);
    }
}
