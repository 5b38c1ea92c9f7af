//! The router-side shard map: per-range replica sets with health state,
//! swappable atomically between requests.
//!
//! A [`ShardMap`] assigns each `lo_orderdate` range an **ordered replica
//! set** — every replica of range *i* is a `qppt-server` started with
//! `--shard i/n`, so replicas serve identical fact partitions and their
//! partials merge byte-identically whichever one answers. The router holds
//! the map as a plain `Arc` snapshot behind a lock: a request clones the
//! `Arc` once and keeps the map it started on, `ShardMap::install` swaps
//! in a whole new map between requests, and a retired map — with its idle
//! pooled connections — drops when its last reader lets go.
//!
//! Health state lives *inside* each [`Replica`] as lock-free atomics:
//! `live` flips to suspect on a fresh-connection failure, and the
//! background prober (see `router.rs`) flips it back after a successful
//! `PING` probe, on the capped-backoff schedule tracked here.
//!
//! [`Backoff`] is the retry/probe delay schedule: capped exponential with
//! equal jitter (each delay is drawn uniformly from `[d/2, d]` where
//! `d = min(cap, base·2^attempt)`), reset on success. The jitter source is
//! the repo's own deterministic [`SplitMix64`] — no new dependencies.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::{Duration, Instant};

use qppt_mem::SplitMix64;

use crate::pool::ShardPool;

/// Parses a `--fleet` spec into per-range replica address lists.
///
/// Grammar: ranges separated by `;`, replicas separated by `,`, an
/// optional `range<i>=` prefix per range (which, when present, must match
/// the range's position):
///
/// ```text
/// range0=127.0.0.1:7878,127.0.0.1:7879;range1=127.0.0.1:7888,127.0.0.1:7889
/// 127.0.0.1:7878,127.0.0.1:7879;127.0.0.1:7888
/// ```
pub fn parse_fleet(spec: &str) -> Result<Vec<Vec<String>>, String> {
    let mut fleet = Vec::new();
    for (i, part) in spec
        .split(';')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .enumerate()
    {
        let addrs = match part.split_once('=') {
            Some((label, rest)) => {
                let idx: usize = label
                    .trim()
                    .strip_prefix("range")
                    .and_then(|n| n.parse().ok())
                    .ok_or_else(|| format!("bad range label {label:?} (want range<i>=...)"))?;
                if idx != i {
                    return Err(format!("range label {label:?} out of order (position {i})"));
                }
                rest
            }
            None => part,
        };
        let replicas: Vec<String> = addrs
            .split(',')
            .map(str::trim)
            .filter(|a| !a.is_empty())
            .map(str::to_string)
            .collect();
        if replicas.is_empty() {
            return Err(format!("range {i} has no replica addresses"));
        }
        fleet.push(replicas);
    }
    if fleet.is_empty() {
        return Err("fleet spec names no ranges".to_string());
    }
    Ok(fleet)
}

/// One replica of one range: its connection pool plus lock-free health
/// state. Replicas start **live**; a fresh-connection failure marks them
/// suspect; the prober (or a successful organic exchange) marks them live
/// again.
#[derive(Debug)]
pub struct Replica {
    pool: ShardPool,
    live: AtomicBool,
    /// Consecutive probe failures since going suspect — the exponent of
    /// the probe backoff schedule.
    failures: AtomicU32,
    /// Earliest probe time, in microseconds since the owning map's epoch.
    next_probe_micros: AtomicU64,
}

impl Replica {
    fn new(pool: ShardPool) -> Self {
        Self {
            pool,
            live: AtomicBool::new(true),
            failures: AtomicU32::new(0),
            next_probe_micros: AtomicU64::new(0),
        }
    }

    /// The replica's wire address.
    pub fn addr(&self) -> &str {
        self.pool.addr()
    }

    /// Whether the replica is currently marked live.
    pub fn is_live(&self) -> bool {
        self.live.load(Ordering::Acquire)
    }

    pub(crate) fn pool(&self) -> &ShardPool {
        &self.pool
    }

    /// Marks the replica suspect after a fresh-connection failure and
    /// schedules its first probe `base` (jittered) from `now`. Returns
    /// `true` only on the live→suspect transition.
    pub(crate) fn mark_suspect(&self, now_micros: u64, base: Duration, cap: Duration) -> bool {
        let flipped = self.live.swap(false, Ordering::AcqRel);
        self.schedule_probe(now_micros, base, cap);
        flipped
    }

    /// Marks the replica live (probe or organic exchange succeeded),
    /// resetting the probe schedule. Returns `true` only on the
    /// suspect→live transition.
    pub(crate) fn mark_live(&self) -> bool {
        let flipped = !self.live.swap(true, Ordering::AcqRel);
        if flipped {
            self.failures.store(0, Ordering::Release);
        }
        flipped
    }

    /// Whether a suspect replica's next probe is due.
    pub(crate) fn probe_due(&self, now_micros: u64) -> bool {
        now_micros >= self.next_probe_micros.load(Ordering::Acquire)
    }

    /// Records a failed probe: bumps the consecutive-failure count and
    /// pushes the next probe out on the capped-backoff schedule.
    pub(crate) fn probe_failed(&self, now_micros: u64, base: Duration, cap: Duration) {
        self.schedule_probe(now_micros, base, cap);
    }

    fn schedule_probe(&self, now_micros: u64, base: Duration, cap: Duration) {
        let attempt = self.failures.fetch_add(1, Ordering::AcqRel);
        // Deterministic jitter keyed off the schedule state itself — no
        // wall-clock entropy needed.
        let mut rng = SplitMix64::new(now_micros ^ u64::from(attempt).wrapping_mul(0x9e37));
        let delay = jittered(exp_delay(base, cap, attempt), &mut rng);
        self.next_probe_micros.store(
            now_micros.saturating_add(delay.as_micros() as u64),
            Ordering::Release,
        );
    }
}

/// The ordered replica set owning one `lo_orderdate` range.
#[derive(Debug)]
pub struct RangeReplicas {
    replicas: Vec<Replica>,
    /// Monotonic pick counter for the round-robin read load-balancer:
    /// each [`preferred`](Self::preferred) call takes the next live
    /// replica in rotation, so read load spreads across the whole live
    /// set instead of pinning replica 0.
    rotation: AtomicU64,
}

impl RangeReplicas {
    /// Number of replicas in the set.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the set is empty (never true for a parsed fleet).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// The replica at ordinal `j` (panics when out of range).
    pub fn replica(&self, j: usize) -> &Replica {
        &self.replicas[j]
    }

    /// All replicas in replica order.
    pub fn replicas(&self) -> &[Replica] {
        &self.replicas
    }

    /// The preferred replica for the next request: round-robin over the
    /// replicas currently marked **live** (each call advances the
    /// rotation), or replica 0 when every replica is suspect (someone has
    /// to absorb the recovery attempt). Suspect replicas drop out of the
    /// rotation immediately, so a convicted replica stops absorbing reads
    /// until the prober recovers it.
    pub fn preferred(&self) -> usize {
        let live: Vec<usize> = (0..self.replicas.len())
            .filter(|&j| self.replicas[j].is_live())
            .collect();
        if live.is_empty() {
            return 0;
        }
        let tick = self.rotation.fetch_add(1, Ordering::Relaxed);
        live[(tick % live.len() as u64) as usize]
    }

    /// Replicas currently marked live.
    pub fn live_count(&self) -> usize {
        self.replicas.iter().filter(|r| r.is_live()).count()
    }
}

/// The whole fleet: one [`RangeReplicas`] per `lo_orderdate` range, plus
/// the epoch every probe deadline in the map is measured from.
#[derive(Debug)]
pub struct ShardMap {
    ranges: Vec<RangeReplicas>,
    epoch: Instant,
    /// Topology generation: 0 for the map a router starts with, bumped by
    /// every [`install`](Self::install). Folded into router-side cache
    /// keys so a fleet reconfiguration invalidates every merged result
    /// composed under the old topology.
    generation: u64,
}

impl ShardMap {
    /// Builds the map from parsed fleet addresses, one connection pool per
    /// replica. Panics if `fleet` is empty — use [`parse_fleet`] first.
    pub(crate) fn from_fleet(
        fleet: &[Vec<String>],
        conns_per_replica: usize,
        connect_timeout: Duration,
        read_timeout: Duration,
    ) -> Self {
        assert!(!fleet.is_empty(), "fleet must name at least one range");
        let ranges = fleet
            .iter()
            .map(|addrs| {
                assert!(!addrs.is_empty(), "every range needs at least one replica");
                RangeReplicas {
                    replicas: addrs
                        .iter()
                        .map(|addr| {
                            Replica::new(ShardPool::new(
                                addr.clone(),
                                conns_per_replica,
                                connect_timeout,
                                read_timeout,
                            ))
                        })
                        .collect(),
                    rotation: AtomicU64::new(0),
                }
            })
            .collect();
        Self {
            ranges,
            epoch: Instant::now(),
            generation: 0,
        }
    }

    /// The topology generation this map was installed at (see the field
    /// docs).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of ranges (= the fleet's shard count `n` in `--shard i/n`).
    pub fn range_count(&self) -> usize {
        self.ranges.len()
    }

    /// The replica set of range `i` (panics when out of range).
    pub fn range(&self, i: usize) -> &RangeReplicas {
        &self.ranges[i]
    }

    /// All ranges in range order.
    pub fn ranges(&self) -> &[RangeReplicas] {
        &self.ranges
    }

    /// Replicas currently marked live, fleet-wide (the
    /// `qppt_router_replicas_live` gauge).
    pub fn live_replicas(&self) -> usize {
        self.ranges.iter().map(RangeReplicas::live_count).sum()
    }

    /// Total replicas in the map.
    pub fn total_replicas(&self) -> usize {
        self.ranges.iter().map(RangeReplicas::len).sum()
    }

    /// Microseconds since this map was built — the clock probe deadlines
    /// are measured on.
    pub(crate) fn now_micros(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// The map in `slot`: one `Arc` clone, held for a whole request.
    pub(crate) fn current(slot: &RwLock<Arc<ShardMap>>) -> Arc<ShardMap> {
        Arc::clone(&slot.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Installs `next` as the map in `slot`, one generation past the map
    /// it replaces. In-flight requests keep the `Arc` they cloned; the
    /// retired map, with its idle pooled connections, drops when the last
    /// of them lets go.
    pub(crate) fn install(slot: &RwLock<Arc<ShardMap>>, mut next: ShardMap) {
        let mut current = slot.write().unwrap_or_else(PoisonError::into_inner);
        next.generation = current.generation + 1;
        *current = Arc::new(next);
    }
}

/// Capped exponential backoff with equal jitter.
///
/// Attempt *k* (0-based) draws its delay uniformly from `[d/2, d]` with
/// `d = min(cap, base·2^k)`; [`reset`](Backoff::reset) restarts the
/// schedule after a success. The jitter PRNG is seeded explicitly, so a
/// test can pin the whole schedule.
#[derive(Debug)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    attempt: u32,
    rng: SplitMix64,
}

impl Backoff {
    /// A fresh schedule: `base` first-attempt delay, `cap` ceiling.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Self {
        Self {
            base,
            cap,
            attempt: 0,
            rng: SplitMix64::new(seed),
        }
    }

    /// The next delay in the schedule (advances the attempt counter).
    pub fn next_delay(&mut self) -> Duration {
        let raw = exp_delay(self.base, self.cap, self.attempt);
        self.attempt = self.attempt.saturating_add(1);
        jittered(raw, &mut self.rng)
    }

    /// Attempts taken since construction or the last reset.
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// Restarts the schedule (call after a successful exchange).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// `min(cap, base·2^attempt)` with saturation, in micros arithmetic.
pub fn exp_delay(base: Duration, cap: Duration, attempt: u32) -> Duration {
    let base_us = u64::try_from(base.as_micros()).unwrap_or(u64::MAX);
    let cap_us = u64::try_from(cap.as_micros()).unwrap_or(u64::MAX);
    let scaled = base_us
        .checked_shl(attempt.min(63))
        .unwrap_or(u64::MAX)
        .max(base_us);
    Duration::from_micros(scaled.min(cap_us))
}

/// Equal jitter: uniform in `[d/2, d]`.
fn jittered(d: Duration, rng: &mut SplitMix64) -> Duration {
    let us = u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
    let half = us / 2;
    let span = us - half;
    let offset = if span == 0 {
        0
    } else {
        rng.next_u64() % (span + 1)
    };
    Duration::from_micros(half + offset)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONNECT: Duration = Duration::from_secs(1);
    const READ: Duration = Duration::from_secs(1);

    fn map_of(fleet: &[&[&str]]) -> ShardMap {
        let fleet: Vec<Vec<String>> = fleet
            .iter()
            .map(|r| r.iter().map(|a| a.to_string()).collect())
            .collect();
        ShardMap::from_fleet(&fleet, 2, CONNECT, READ)
    }

    #[test]
    fn parse_fleet_accepts_both_labeled_and_bare_grammar() {
        let labeled = parse_fleet("range0=a:1,b:2;range1=c:3").expect("labeled parses");
        assert_eq!(labeled, vec![vec!["a:1", "b:2"], vec!["c:3"]]);
        let bare = parse_fleet("a:1,b:2 ; c:3").expect("bare parses");
        assert_eq!(bare, labeled);
    }

    #[test]
    fn parse_fleet_rejects_bad_specs() {
        assert!(parse_fleet("").is_err(), "empty spec");
        assert!(parse_fleet("range1=a:1").is_err(), "label out of order");
        assert!(parse_fleet("rangex=a:1").is_err(), "bad label");
        assert!(parse_fleet("a:1;,").is_err(), "empty range");
    }

    #[test]
    fn backoff_schedule_caps_doubles_and_jitters_within_bounds() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(80);
        let mut b = Backoff::new(base, cap, 7);
        // Raw schedule: 10, 20, 40, 80, 80, 80 ms — each drawn delay must
        // land in [raw/2, raw].
        let raws = [10u64, 20, 40, 80, 80, 80];
        for (k, raw_ms) in raws.iter().enumerate() {
            let raw = Duration::from_millis(*raw_ms);
            assert_eq!(exp_delay(base, cap, k as u32), raw, "raw at attempt {k}");
            let d = b.next_delay();
            assert!(d >= raw / 2, "attempt {k}: {d:?} below half of {raw:?}");
            assert!(d <= raw, "attempt {k}: {d:?} above {raw:?}");
        }
        assert_eq!(b.attempt(), 6);
        b.reset();
        assert_eq!(b.attempt(), 0);
        let d = b.next_delay();
        assert!(d >= base / 2 && d <= base, "post-reset delay re-bases");
    }

    #[test]
    fn backoff_jitter_actually_varies() {
        let mut b = Backoff::new(Duration::from_millis(64), Duration::from_secs(1), 42);
        // At a fixed attempt the raw delay is constant; distinct draws
        // across seeds/attempts should not all collapse to one value.
        let draws: Vec<Duration> = (0..8)
            .map(|_| {
                b.reset();
                b.next_delay()
            })
            .collect();
        assert!(
            draws.iter().any(|d| d != &draws[0]),
            "eight jittered draws were all identical: {draws:?}"
        );
    }

    #[test]
    fn replica_health_transitions_and_probe_schedule() {
        let map = map_of(&[&["a:1"]]);
        let rep = map.range(0).replica(0);
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(40);
        assert!(rep.is_live());
        assert!(rep.mark_suspect(1_000, base, cap), "first flip reported");
        assert!(!rep.mark_suspect(1_000, base, cap), "second flip is not");
        assert!(!rep.is_live());
        assert!(!rep.probe_due(1_000), "probe scheduled after now");
        assert!(rep.probe_due(1_000 + cap.as_micros() as u64));
        rep.probe_failed(2_000, base, cap);
        assert!(rep.mark_live(), "suspect→live reported");
        assert!(!rep.mark_live(), "live→live is not");
        assert_eq!(map.live_replicas(), 1);
    }

    #[test]
    fn preferred_rotates_over_live_replicas_and_falls_back_to_zero() {
        let map = map_of(&[&["a:1", "b:2", "c:3"]]);
        let range = map.range(0);
        let base = Duration::from_millis(1);
        // All live: consecutive picks walk the whole set in order.
        assert_eq!(
            [range.preferred(), range.preferred(), range.preferred()],
            [0, 1, 2]
        );
        assert_eq!(range.preferred(), 0, "rotation wraps");
        // Suspects drop out of the rotation immediately.
        range.replica(0).mark_suspect(0, base, base);
        let picks = [range.preferred(), range.preferred(), range.preferred()];
        assert!(
            picks.iter().all(|&j| j == 1 || j == 2),
            "suspect replica 0 still picked: {picks:?}"
        );
        assert!(
            picks.contains(&1) && picks.contains(&2),
            "rotation collapsed to one live replica: {picks:?}"
        );
        range.replica(1).mark_suspect(0, base, base);
        assert_eq!(range.preferred(), 2, "single live replica always picked");
        assert_eq!(range.preferred(), 2);
        range.replica(2).mark_suspect(0, base, base);
        assert_eq!(range.preferred(), 0, "all suspect → replica 0 absorbs");
        assert_eq!(range.live_count(), 0);
    }

    #[test]
    fn map_swap_is_safe_under_concurrent_readers_and_frees_retired_maps() {
        let slot = Arc::new(RwLock::new(Arc::new(map_of(&[&["seed:0"]]))));
        let seed = Arc::downgrade(&ShardMap::current(&slot));
        let stop = Arc::new(AtomicBool::new(false));
        let loads = Arc::new(AtomicU64::new(0));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let slot = Arc::clone(&slot);
                let stop = Arc::clone(&stop);
                let loads = Arc::clone(&loads);
                std::thread::spawn(move || {
                    let mut seen = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let map = ShardMap::current(&slot);
                        // Hold the map across real work: every loaded map
                        // must stay fully intact, and generations never
                        // run backwards.
                        assert!(map.generation() >= seen, "generation went backwards");
                        seen = map.generation();
                        assert!(map.range_count() >= 1);
                        for range in map.ranges() {
                            assert!(!range.is_empty());
                            assert!(!range.replica(0).addr().is_empty());
                        }
                        loads.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for gen in 0..200u32 {
            let addr = format!("gen{gen}:1");
            ShardMap::install(&slot, map_of(&[&[addr.as_str()], &["other:2"]]));
        }
        // Keep swapping until the readers demonstrably overlapped with at
        // least some swaps — on a single-core host the 200 swaps above can
        // finish before any reader thread is ever scheduled.
        let mut gen = 200u32;
        while loads.load(Ordering::Relaxed) < 64 {
            let addr = format!("gen{gen}:1");
            ShardMap::install(&slot, map_of(&[&[addr.as_str()], &["other:2"]]));
            gen += 1;
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        for h in readers {
            h.join().unwrap();
        }
        let map = ShardMap::current(&slot);
        assert_eq!(map.range_count(), 2);
        let last = format!("gen{}:1", gen - 1);
        assert_eq!(map.range(0).replica(0).addr(), last);
        // Each swap bumps the topology generation: `gen` swaps happened
        // since the slot was filled at generation 0.
        assert_eq!(map.generation(), u64::from(gen));
        // Retired maps are freed once their readers let go: a map held
        // across a swap survives it and is dropped with its last holder.
        assert!(
            seed.upgrade().is_none(),
            "the seed map outlived its readers"
        );
        let held = Arc::downgrade(&map);
        ShardMap::install(&slot, map_of(&[&["next:1"]]));
        assert_eq!(
            held.upgrade().expect("held map alive").generation(),
            u64::from(gen)
        );
        drop(map);
        assert!(
            held.upgrade().is_none(),
            "a retired map outlived its last reader"
        );
    }

    #[test]
    fn install_stamps_monotonic_generations() {
        let slot = RwLock::new(Arc::new(map_of(&[&["a:1"]])));
        assert_eq!(ShardMap::current(&slot).generation(), 0);
        ShardMap::install(&slot, map_of(&[&["b:2"]]));
        assert_eq!(ShardMap::current(&slot).generation(), 1);
        ShardMap::install(&slot, map_of(&[&["c:3"], &["d:4"]]));
        assert_eq!(ShardMap::current(&slot).generation(), 2);
    }
}
