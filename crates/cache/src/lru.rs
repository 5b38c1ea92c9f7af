//! A byte-budgeted, sharded, version-checked LRU map — the storage behind
//! every [`QueryCache`](crate::QueryCache) tier.
//!
//! * **Sharded** — the 64-bit fingerprint key picks a shard (power-of-two
//!   shard count, low bits), each shard behind its own `Mutex`, so
//!   concurrent connections on different queries rarely contend.
//! * **Version-checked** — every entry stores the table-version vector it
//!   was computed at. A lookup whose fingerprint carries *different*
//!   versions removes the entry and reports an **invalidation** (distinct
//!   from a plain miss): MVCC writes don't have to walk the cache —
//!   staleness is detected at the key, O(#tables) per lookup.
//! * **Byte-budgeted LRU** — entries report their heap footprint through
//!   [`CacheValue::heap_bytes`]; each shard keeps an intrusive
//!   doubly-linked recency list threaded through its hash-map entries
//!   (`prev`/`next` keys, no separate allocation, no unsafe), so a lookup
//!   freshens in O(1) and inserting into an over-budget shard pops
//!   victims from the cold end in O(victims) — the O(shard) min-stamp
//!   scan of PR 3 is gone.
//! * **Pin-aware** — eviction prefers victims that are not
//!   [`pinned`](CacheValue::pinned) (an `Arc` also held by an executing
//!   query or a composed prepared query), since reclaiming a pinned entry
//!   frees no memory and forces a pointless rebuild. Pins are advisory,
//!   not a leak vector: if the budget cannot be met any other way, the
//!   coldest pinned entries are dropped from the map too — their memory
//!   stays alive for exactly as long as the outside holders keep their
//!   `Arc`s, so in-flight executions are never disturbed, while the
//!   tier's tracked bytes stay hard-bounded.
//! * **TTL** — with an idle time-to-live configured, entries untouched for
//!   longer are reclaimed lazily (at their next lookup) and proactively
//!   (from the cold end on every insert — recency order *is* idle-age
//!   order), counted separately as **expirations**, so long-idle entries
//!   are reclaimed even when the byte budget has room.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::QueryFingerprint;

/// What addresses a tier: a 64-bit shard/bucket key plus the version
/// vector the entry must have been computed at. [`QueryFingerprint`] is
/// the engine-side implementation (table versions of one database); the
/// router implements it over fleet-wide keys (topology epoch + per-shard
/// table-version vectors) without `qppt-cache` knowing anything about
/// shards.
pub trait CacheKey {
    /// The 64-bit bucket key: picks the shard and the map slot.
    fn key(&self) -> u64;

    /// The version vector a valid entry must match exactly. A lookup
    /// whose key matches but whose versions differ invalidates the entry.
    fn versions(&self) -> &[u64];
}

impl CacheKey for QueryFingerprint {
    fn key(&self) -> u64 {
        self.key
    }

    fn versions(&self) -> &[u64] {
        &self.versions
    }
}

/// What a tier stores: cheap to clone (tiers store `Arc`s), knows its heap
/// footprint, and can report being pinned by holders outside the cache.
pub trait CacheValue: Clone {
    /// Heap bytes attributed to this entry by the tier's byte budget.
    fn heap_bytes(&self) -> usize;

    /// `true` while the value is also held outside the cache (an in-flight
    /// execution, a composed prepared query). Pinned entries never lazily
    /// expire (a pin proves the value is not idle) and are evicted only as
    /// a last resort, when the byte budget cannot be met from unpinned
    /// victims — and even then only the map entry goes; the value lives on
    /// with its holders.
    fn pinned(&self) -> bool {
        false
    }
}

/// Monotonic counters of one cache tier. All relaxed: the counters are
/// observability, not synchronization.
#[derive(Debug, Default)]
pub struct TierCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    evictions: AtomicU64,
    expirations: AtomicU64,
    insertions: AtomicU64,
}

/// A point-in-time copy of one tier's counters plus its live entry count
/// and resident bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierSnapshot {
    pub hits: u64,
    pub misses: u64,
    pub invalidations: u64,
    /// Entries removed under byte pressure.
    pub evictions: u64,
    /// Entries removed because they sat idle past the TTL.
    pub expirations: u64,
    pub insertions: u64,
    pub entries: usize,
    /// Live heap bytes across all shards (sum of entry `heap_bytes`).
    pub bytes: usize,
}

#[derive(Debug)]
struct Entry<V> {
    versions: Vec<u64>,
    value: V,
    bytes: usize,
    last_used: Instant,
    /// Intrusive recency links: neighbor keys toward the MRU / LRU ends.
    prev: Option<u64>,
    next: Option<u64>,
}

#[derive(Debug)]
struct Shard<V> {
    map: HashMap<u64, Entry<V>>,
    /// Most recently used entry.
    head: Option<u64>,
    /// Least recently used entry (first eviction candidate).
    tail: Option<u64>,
    bytes: usize,
    budget: usize,
    ttl: Option<Duration>,
}

impl<V> Shard<V> {
    fn expired(&self, e: &Entry<V>, now: Instant) -> bool {
        self.ttl
            .is_some_and(|t| now.saturating_duration_since(e.last_used) > t)
    }

    /// Detaches `key` from the recency list (it stays in the map).
    fn unlink(&mut self, key: u64) {
        let (prev, next) = {
            let e = &self.map[&key];
            (e.prev, e.next)
        };
        match prev {
            Some(p) => self.map.get_mut(&p).expect("linked neighbor").next = next,
            None => self.head = next,
        }
        match next {
            Some(n) => self.map.get_mut(&n).expect("linked neighbor").prev = prev,
            None => self.tail = prev,
        }
    }

    /// Attaches an already-inserted, detached `key` at the MRU end.
    fn push_front(&mut self, key: u64) {
        let old_head = self.head;
        {
            let e = self.map.get_mut(&key).expect("pushed key exists");
            e.prev = None;
            e.next = old_head;
        }
        match old_head {
            Some(h) => self.map.get_mut(&h).expect("old head exists").prev = Some(key),
            None => self.tail = Some(key),
        }
        self.head = Some(key);
    }

    /// Unlinks and removes `key`, adjusting the byte count.
    fn remove(&mut self, key: u64) -> Option<Entry<V>> {
        if !self.map.contains_key(&key) {
            return None;
        }
        self.unlink(key);
        let e = self.map.remove(&key).expect("checked above");
        self.bytes -= e.bytes;
        Some(e)
    }
}

impl<V: CacheValue> Shard<V> {
    /// Walks from the cold end, removing expired entries and — while the
    /// shard plus `incoming` bytes is over budget — evicting unpinned
    /// victims (recency order is idle-age order, so the walk stops at the
    /// first fresh entry once the budget is satisfied). If the budget
    /// still cannot be met because every remaining victim is pinned, a
    /// second pass drops the coldest entries from the map *regardless* of
    /// pins: their memory stays alive exactly as long as the real holders
    /// (in-flight executions) keep their `Arc`s — so
    /// nothing is ever freed out from under anyone — but the tier's
    /// tracked bytes stay bounded and the pinned cold segment cannot turn
    /// every future insert into an O(entries) rewalk.
    fn reclaim(&mut self, incoming: usize, counters: &TierCounters) {
        let now = Instant::now();
        let mut cursor = self.tail;
        while let Some(key) = cursor {
            let over = self.bytes + incoming > self.budget;
            let e = &self.map[&key];
            let expired = self.expired(e, now);
            if !over && !expired {
                break;
            }
            let prev = e.prev;
            if e.value.pinned() {
                // In use outside the cache: prefer victims whose removal
                // frees memory now. A pinned entry is also never *expired*
                // — the pin proves it is not idle.
                cursor = prev;
                continue;
            }
            self.remove(key);
            let c = if expired {
                &counters.expirations
            } else {
                &counters.evictions
            };
            c.fetch_add(1, Ordering::Relaxed);
            cursor = prev;
        }
        // Escalation: only pinned entries remain between us and the
        // budget. Drop the coldest ones from the map (see doc above).
        while self.bytes + incoming > self.budget {
            let Some(key) = self.tail else { break };
            self.remove(key);
            counters.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The sharded byte-budgeted LRU (see module docs).
#[derive(Debug)]
pub struct ShardedLru<V> {
    shards: Vec<Mutex<Shard<V>>>,
    /// `shards.len() - 1`; shard count is a power of two.
    mask: u64,
    counters: TierCounters,
}

impl<V: CacheValue> ShardedLru<V> {
    /// A cache holding at most ~`budget_bytes` of entry heap (split evenly
    /// over `shards` shards, rounded up to a power of two), entries idling
    /// past `ttl` reclaimed (`None` = no age limit).
    pub fn new(budget_bytes: usize, shards: usize, ttl: Option<Duration>) -> Self {
        let nshards = shards.max(1).next_power_of_two();
        let per_shard = (budget_bytes / nshards).max(1);
        Self {
            shards: (0..nshards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        head: None,
                        tail: None,
                        bytes: 0,
                        budget: per_shard,
                        ttl,
                    })
                })
                .collect(),
            mask: (nshards - 1) as u64,
            counters: TierCounters::default(),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<Shard<V>> {
        &self.shards[(key & self.mask) as usize]
    }

    /// Looks up `fp`. Same key + same versions (and not idle past the
    /// TTL) → hit (entry moved to the MRU end); same key + different
    /// versions → the entry is stale: removed, counted as an invalidation;
    /// idle past the TTL → removed, counted as an expiration; absent →
    /// miss.
    pub fn get<K: CacheKey>(&self, fp: &K) -> Option<V> {
        let key = fp.key();
        let mut shard = self.shard(key).lock().expect("cache shard lock");
        let now = Instant::now();
        enum Outcome {
            Miss,
            Expired,
            Hit,
            Stale,
        }
        let outcome = match shard.map.get(&key) {
            None => Outcome::Miss,
            // A pinned entry is in active use — by definition not idle —
            // so it never lazily expires; the hit refreshes `last_used`.
            Some(e) if shard.expired(e, now) && !e.value.pinned() => Outcome::Expired,
            Some(e) if e.versions == fp.versions() => Outcome::Hit,
            Some(_) => Outcome::Stale,
        };
        match outcome {
            Outcome::Miss => {
                self.counters.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Outcome::Expired => {
                shard.remove(key);
                self.counters.expirations.fetch_add(1, Ordering::Relaxed);
                None
            }
            Outcome::Stale => {
                shard.remove(key);
                self.counters.invalidations.fetch_add(1, Ordering::Relaxed);
                None
            }
            Outcome::Hit => {
                shard.unlink(key);
                let value = {
                    let e = shard.map.get_mut(&key).expect("hit entry exists");
                    e.last_used = now;
                    e.value.clone()
                };
                shard.push_front(key);
                self.counters.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
        }
    }

    /// Inserts (or replaces) the entry for `fp` at the MRU end, first
    /// expiring idle entries and evicting cold unpinned ones until the
    /// shard fits its byte budget again (see `Shard::reclaim`).
    pub fn put<K: CacheKey>(&self, fp: &K, value: V) {
        let key = fp.key();
        let bytes = value.heap_bytes();
        let mut shard = self.shard(key).lock().expect("cache shard lock");
        shard.remove(key); // replace: old bytes released first
        shard.reclaim(bytes, &self.counters);
        shard.map.insert(
            key,
            Entry {
                versions: fp.versions().to_vec(),
                value,
                bytes,
                last_used: Instant::now(),
                prev: None,
                next: None,
            },
        );
        shard.bytes += bytes;
        shard.push_front(key);
        self.counters.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Drops every entry (counters are preserved — they are lifetime
    /// totals).
    pub fn clear(&self) {
        for s in &self.shards {
            let mut shard = s.lock().expect("cache shard lock");
            shard.map.clear();
            shard.head = None;
            shard.tail = None;
            shard.bytes = 0;
        }
    }

    /// Live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").map.len())
            .sum()
    }

    /// `true` when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live entry bytes across all shards.
    pub fn bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").bytes)
            .sum()
    }

    /// Counters + entry/byte counts, copied at once.
    pub fn snapshot(&self) -> TierSnapshot {
        let (mut entries, mut bytes) = (0usize, 0usize);
        for s in &self.shards {
            let shard = s.lock().expect("cache shard lock");
            entries += shard.map.len();
            bytes += shard.bytes;
        }
        TierSnapshot {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            invalidations: self.counters.invalidations.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            expirations: self.counters.expirations.load(Ordering::Relaxed),
            insertions: self.counters.insertions.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// A test value with an explicit byte weight.
    #[derive(Debug, Clone, PartialEq)]
    struct Weighted(u32, usize);

    impl CacheValue for Weighted {
        fn heap_bytes(&self) -> usize {
            self.1
        }
    }

    impl CacheValue for Arc<Weighted> {
        fn heap_bytes(&self) -> usize {
            self.1
        }
        fn pinned(&self) -> bool {
            Arc::strong_count(self) > 1
        }
    }

    fn fp(key: u64, versions: &[u64]) -> QueryFingerprint {
        QueryFingerprint {
            key,
            versions: versions.to_vec(),
        }
    }

    #[test]
    fn hit_miss_invalidation_lifecycle() {
        let lru: ShardedLru<Weighted> = ShardedLru::new(1024, 2, None);
        assert_eq!(lru.get(&fp(1, &[1])), None); // miss
        lru.put(&fp(1, &[1]), Weighted(10, 8));
        assert_eq!(lru.get(&fp(1, &[1])), Some(Weighted(10, 8))); // hit
        assert_eq!(lru.get(&fp(1, &[2])), None); // invalidation (stale)
        assert_eq!(lru.get(&fp(1, &[2])), None); // now a plain miss
        let s = lru.snapshot();
        assert_eq!((s.hits, s.misses, s.invalidations), (1, 2, 1));
        assert_eq!((s.entries, s.bytes), (0, 0));
    }

    #[test]
    fn byte_pressure_evicts_from_the_cold_end() {
        // One shard, budget 100: three 40-byte entries can't coexist, and
        // touching key 1 makes key 2 the victim.
        let lru: ShardedLru<Weighted> = ShardedLru::new(100, 1, None);
        lru.put(&fp(1, &[1]), Weighted(1, 40));
        lru.put(&fp(2, &[1]), Weighted(2, 40));
        assert_eq!(lru.get(&fp(1, &[1])), Some(Weighted(1, 40)));
        lru.put(&fp(3, &[1]), Weighted(3, 40));
        assert_eq!(lru.get(&fp(2, &[1])), None, "LRU entry not evicted");
        assert_eq!(lru.get(&fp(1, &[1])), Some(Weighted(1, 40)));
        assert_eq!(lru.get(&fp(3, &[1])), Some(Weighted(3, 40)));
        let s = lru.snapshot();
        assert_eq!(s.evictions, 1);
        assert_eq!((s.entries, s.bytes), (2, 80));
    }

    #[test]
    fn heavy_entry_evicts_many_and_light_entries_pack() {
        let lru: ShardedLru<Weighted> = ShardedLru::new(100, 1, None);
        for k in 0..10 {
            lru.put(&fp(k, &[1]), Weighted(k as u32, 10));
        }
        assert_eq!(lru.snapshot().bytes, 100);
        // One 95-byte entry displaces all ten 10-byte entries.
        lru.put(&fp(100, &[1]), Weighted(0, 95));
        let s = lru.snapshot();
        assert_eq!(s.evictions, 10);
        assert_eq!((s.entries, s.bytes), (1, 95));
    }

    #[test]
    fn replace_same_key_releases_old_bytes_first() {
        let lru: ShardedLru<Weighted> = ShardedLru::new(100, 1, None);
        lru.put(&fp(1, &[1]), Weighted(1, 60));
        lru.put(&fp(2, &[1]), Weighted(2, 30));
        // Replacing key 1 with a bigger value still fits: its own 60 bytes
        // are released before the budget check, so key 2 survives.
        lru.put(&fp(1, &[2]), Weighted(10, 70));
        let s = lru.snapshot();
        assert_eq!(s.evictions, 0);
        assert_eq!(lru.get(&fp(2, &[1])), Some(Weighted(2, 30)));
        assert_eq!(lru.get(&fp(1, &[2])), Some(Weighted(10, 70)));
        assert_eq!(lru.bytes(), 100);
    }

    #[test]
    fn pinned_entries_survive_byte_pressure() {
        let lru: ShardedLru<Arc<Weighted>> = ShardedLru::new(100, 1, None);
        let pinned = Arc::new(Weighted(1, 40));
        lru.put(&fp(1, &[1]), pinned.clone()); // strong_count 2: pinned
        lru.put(&fp(2, &[1]), Arc::new(Weighted(2, 40)));
        // 60 more bytes of pressure: key 1 is the LRU victim but pinned, so
        // key 2 is reclaimed instead and the budget overshoots transiently.
        lru.put(&fp(3, &[1]), Arc::new(Weighted(3, 60)));
        assert!(lru.get(&fp(1, &[1])).is_some(), "pinned entry evicted");
        assert_eq!(lru.get(&fp(2, &[1])), None);
        assert!(lru.get(&fp(3, &[1])).is_some());
        assert_eq!(lru.snapshot().evictions, 1);
        assert_eq!(lru.bytes(), 100);

        // Once the pin drops, byte pressure reclaims the entry normally.
        drop(pinned);
        lru.put(&fp(4, &[1]), Arc::new(Weighted(4, 60)));
        assert_eq!(lru.get(&fp(1, &[1])), None, "unpinned entry kept");
        assert!(lru.bytes() <= 100);
    }

    #[test]
    fn all_pinned_shard_still_honors_the_byte_budget() {
        // When every victim is pinned, the escalation pass drops the
        // coldest map entries anyway — the holders' Arcs keep the data
        // alive, but tracked bytes never run away past the budget.
        let lru: ShardedLru<Arc<Weighted>> = ShardedLru::new(100, 1, None);
        let p1 = Arc::new(Weighted(1, 40));
        let p2 = Arc::new(Weighted(2, 40));
        let p3 = Arc::new(Weighted(3, 40));
        lru.put(&fp(1, &[1]), p1.clone());
        lru.put(&fp(2, &[1]), p2.clone());
        lru.put(&fp(3, &[1]), p3.clone());
        // 120 > 100 even though every entry is pinned: the LRU one (key 1)
        // was dropped from the map, not freed — p1 is still intact.
        assert!(lru.bytes() <= 100, "pins must not break the byte bound");
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(&fp(1, &[1])), None);
        assert_eq!(p1.0, 1, "holder's data untouched by the eviction");
        assert!(lru.get(&fp(2, &[1])).is_some());
        assert!(lru.get(&fp(3, &[1])).is_some());
    }

    #[test]
    fn pinned_entries_do_not_lazily_expire() {
        let ttl = Duration::from_millis(40);
        let lru: ShardedLru<Arc<Weighted>> = ShardedLru::new(1024, 1, Some(ttl));
        let pinned = Arc::new(Weighted(1, 8));
        lru.put(&fp(1, &[1]), pinned.clone());
        lru.put(&fp(2, &[1]), Arc::new(Weighted(2, 8)));
        std::thread::sleep(Duration::from_millis(80));
        // The pinned entry is in active use: the lookup refreshes it
        // instead of expiring it; the unpinned idle neighbor expires.
        assert!(lru.get(&fp(1, &[1])).is_some(), "pinned entry expired");
        assert_eq!(lru.get(&fp(2, &[1])), None);
        let s = lru.snapshot();
        assert_eq!((s.hits, s.expirations), (1, 1));
    }

    #[test]
    fn ttl_expires_idle_entries() {
        let ttl = Duration::from_millis(40);
        let lru: ShardedLru<Weighted> = ShardedLru::new(1024, 1, Some(ttl));
        lru.put(&fp(1, &[1]), Weighted(1, 8));
        lru.put(&fp(2, &[1]), Weighted(2, 8));
        assert!(lru.get(&fp(1, &[1])).is_some(), "fresh entry hits");
        std::thread::sleep(Duration::from_millis(80));
        // Lazy reclaim at lookup…
        assert_eq!(lru.get(&fp(1, &[1])), None, "idle entry must expire");
        // …and proactive reclaim from the cold end on insert.
        lru.put(&fp(3, &[1]), Weighted(3, 8));
        let s = lru.snapshot();
        assert_eq!(s.expirations, 2, "one lazy + one proactive expiration");
        assert_eq!(s.entries, 1);
        assert!(lru.get(&fp(3, &[1])).is_some());
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let lru: ShardedLru<Weighted> = ShardedLru::new(4096, 4, None);
        for k in 0..6 {
            lru.put(&fp(k, &[1]), Weighted(k as u32, 16));
        }
        assert_eq!(lru.len(), 6);
        lru.clear();
        assert!(lru.is_empty());
        assert_eq!(lru.bytes(), 0);
        assert_eq!(lru.snapshot().insertions, 6);
    }

    #[test]
    fn shards_partition_the_key_space() {
        let lru: ShardedLru<Weighted> = ShardedLru::new(64 * 64, 8, None);
        for k in 0..64u64 {
            lru.put(&fp(k, &[1]), Weighted(k as u32, 8));
        }
        assert_eq!(lru.len(), 64);
        for k in 0..64u64 {
            assert_eq!(lru.get(&fp(k, &[1])), Some(Weighted(k as u32, 8)));
        }
    }

    #[test]
    fn recency_list_stays_consistent_under_churn() {
        // Deterministic churn over a small budget: every map entry must
        // remain reachable and the byte count exact after many evictions.
        let lru: ShardedLru<Weighted> = ShardedLru::new(64, 1, None);
        for i in 0..1000u64 {
            let key = i % 13;
            lru.put(&fp(key, &[1]), Weighted(i as u32, 8 + (i % 3) as usize));
            lru.get(&fp((i * 7) % 13, &[1]));
        }
        let s = lru.snapshot();
        assert!(s.bytes <= 64);
        assert_eq!(s.entries, lru.len());
        // Every surviving entry is still retrievable (list and map agree).
        let mut live = 0;
        for k in 0..13u64 {
            if lru.get(&fp(k, &[1])).is_some() {
                live += 1;
            }
        }
        assert_eq!(live, s.entries);
    }
}
