//! The clustered build of a base index, as a few linear passes of
//! independent tasks.
//!
//! [`BaseIndex::build`](crate::BaseIndex::build) lays a table's row
//! versions out in key order. It runs in four passes, each split into
//! tasks that touch disjoint memory:
//!
//! 1. **Count**, in row chunks: each chunk counts its rows' packed keys
//!    per bucket of the key span's top bits.
//! 2. **Place**, in the same chunks: each chunk packs every row's key
//!    again into one sort item beside its rid, written straight into the
//!    chunk's share of the item's bucket — so the items are bucketed as
//!    they are made, in one buffer.
//! 3. **Sort**: the buckets, which are key-disjoint and ascending, sort as
//!    tasks.
//!    Where keys fit 32 bits an item is the word `key << 32 | rid`; wider
//!    keys sort `(key, rid)` pairs. Either way equal keys tie on the rid,
//!    so the unstable sort gives the stable order
//!    ([`stable_key_order`](crate::stable_key_order)) by construction, and
//!    nothing in it loads a key at random.
//! 4. **Gather**, in chunks of the sorted items: payload row `i` is item
//!    `i`'s rid and carried values, written straight into a buffer
//!    allocated once at its final lane width, with the table row 16 items
//!    ahead prefetched. The tree takes the items' keys in order, as one
//!    task beside the chunks, so it is built by the same sequence of
//!    inserts whoever runs the tasks.
//!
//! [`BuildTasks`] is the one parallelism hook: the serial hook
//! ([`SerialTasks`]) runs the tasks in order on the calling thread, and
//! `qppt-par` runs them on its threads. The output depends only on the
//! tasks, never on who ran them or in what order, so every hook builds the
//! same index bit for bit.

use std::sync::Mutex;

use qppt_mem::key_bits;
use qppt_mem::prefetch::prefetch_read;

use crate::index::TreeIndex;
use crate::payload::{Lane, PayloadBuf};
use crate::table::Table;

/// Rows per task of the count, place and gather passes, at least.
const CHUNK_ROWS: usize = 1 << 14;

/// The count and place passes split into at most this many tasks: each
/// keeps a count and a slice per bucket, and at one task per
/// [`CHUNK_ROWS`] rows that bookkeeping (≈ 0.45 MB at 1.2 M rows) showed
/// in a served deployment's peak RSS.
const KEY_TASKS: usize = 16;

/// The sort buckets on at most this many top bits of the key span.
const BUCKET_BITS: u32 = 8;

/// How far ahead, in sorted items, the gather prefetches a table row.
const PREFETCH_AHEAD: usize = 16;

/// How a base-index build runs its tasks: the one parallelism hook of
/// [`BaseIndex::build`](crate::BaseIndex::build) and
/// [`Database::create_index_with`](crate::Database::create_index_with).
pub trait BuildTasks {
    /// Calls `task(i)` exactly once for every `i` in `0..tasks` and returns
    /// when every call has returned. Calls may run concurrently on other
    /// threads; they should be claimed in ascending order, because a build
    /// puts its longest task first. Tasks write disjoint memory, so the
    /// result is the same in any order.
    fn run(&self, tasks: usize, task: &(dyn Fn(usize) + Sync));
}

/// The serial hook: every task on the calling thread, in order.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialTasks;

impl BuildTasks for SerialTasks {
    fn run(&self, tasks: usize, task: &(dyn Fn(usize) + Sync)) {
        (0..tasks).for_each(task);
    }
}

/// A sort item: a row's packed key and its rid, ordered by key, then rid.
pub(crate) trait Keyed: Copy + Ord + Default + Send + Sync {
    fn new(key: u64, rid: u32) -> Self;
    fn key(self) -> u64;
    fn rid(self) -> u32;
}

/// `key << 32 | rid`, for keys that fit 32 bits.
impl Keyed for u64 {
    #[inline]
    fn new(key: u64, rid: u32) -> Self {
        debug_assert!(key <= u32::MAX as u64);
        key << 32 | rid as u64
    }
    #[inline]
    fn key(self) -> u64 {
        self >> 32
    }
    #[inline]
    fn rid(self) -> u32 {
        self as u32
    }
}

/// `(key, rid)`, for wider keys.
impl Keyed for (u64, u32) {
    #[inline]
    fn new(key: u64, rid: u32) -> Self {
        (key, rid)
    }
    #[inline]
    fn key(self) -> u64 {
        self.0
    }
    #[inline]
    fn rid(self) -> u32 {
        self.1
    }
}

/// The buckets of the key span `[lo, hi]` on its top [`BUCKET_BITS`] bits:
/// prefix-aligned, so they are key-disjoint and ascending.
struct Buckets {
    lo: u64,
    shift: u32,
    count: usize,
}

impl Buckets {
    fn new(lo: u64, hi: u64) -> Self {
        let shift = (key_bits(hi - lo) as u32).saturating_sub(BUCKET_BITS);
        Self {
            lo,
            shift,
            count: ((hi - lo) >> shift) as usize + 1,
        }
    }

    #[inline]
    fn of(&self, key: u64) -> usize {
        ((key - self.lo) >> self.shift) as usize
    }
}

/// Hands each of `chunks` to one task: `chunks[i]` behind its own lock, so
/// task `i` gets `&mut` access to it alone.
fn locked<T>(chunks: impl Iterator<Item = T>) -> Vec<Mutex<T>> {
    chunks.map(Mutex::new).collect()
}

/// `0..keys.len()` sorted by `keys[rid]`, equal keys in rid order —
/// [`stable_key_order`](crate::stable_key_order) — by the build's sort,
/// whose tasks `tasks` runs.
pub fn key_order(keys: &[u64], tasks: &dyn BuildTasks) -> Vec<u32> {
    let bounds = keys
        .iter()
        .fold((u64::MAX, 0), |(lo, hi), &k| (lo.min(k), hi.max(k)));
    let key_of = |rid: u32| keys[rid as usize];
    if bounds.1 <= u32::MAX as u64 {
        let items = sorted_items::<u64>(keys.len(), key_of, bounds, tasks);
        items.into_iter().map(Keyed::rid).collect()
    } else {
        let items = sorted_items::<(u64, u32)>(keys.len(), key_of, bounds, tasks);
        items.into_iter().map(Keyed::rid).collect()
    }
}

/// The rids `0..rows` as sort items in key order. `key_of` gives a rid's
/// key; every key lies in `[lo, hi]`.
pub(crate) fn sorted_items<K: Keyed>(
    rows: usize,
    key_of: impl Fn(u32) -> u64 + Sync,
    (lo, hi): (u64, u64),
    tasks: &dyn BuildTasks,
) -> Vec<K> {
    if rows == 0 {
        return Vec::new();
    }
    let buckets = Buckets::new(lo, hi);
    let counts = bucket_counts(rows, &key_of, &buckets, tasks);
    let mut items = partition::<K>(rows, &key_of, &buckets, &counts, tasks);
    let mut rest = &mut items[..];
    let parts = locked((0..buckets.count).map(|b| {
        let n = counts.iter().map(|c| c[b]).sum();
        let (part, tail) = std::mem::take(&mut rest).split_at_mut(n);
        rest = tail;
        part
    }));
    tasks.run(parts.len(), &|b| {
        parts[b].lock().expect("sort bucket").sort_unstable();
    });
    drop(parts);
    items
}

/// Rows per task of the count and place passes: [`CHUNK_ROWS`], or more
/// where that would make more than [`KEY_TASKS`] tasks.
fn key_chunk_rows(rows: usize) -> usize {
    CHUNK_ROWS.max(rows.div_ceil(KEY_TASKS))
}

/// The rids of key chunk `c` of `rows`.
fn chunk_rids(c: usize, rows: usize) -> std::ops::Range<u32> {
    let len = key_chunk_rows(rows);
    (c * len) as u32..((c + 1) * len).min(rows) as u32
}

/// `counts[c][b]`: how many rids of key chunk `c` ([`chunk_rids`]) have
/// their key in bucket `b`, one task per chunk.
fn bucket_counts(
    rows: usize,
    key_of: &(impl Fn(u32) -> u64 + Sync),
    buckets: &Buckets,
    tasks: &dyn BuildTasks,
) -> Vec<Vec<usize>> {
    let chunks = rows.div_ceil(key_chunk_rows(rows));
    let counts = locked((0..chunks).map(|_| vec![0usize; buckets.count]));
    tasks.run(chunks, &|c| {
        let mut local = counts[c].lock().expect("chunk counts");
        for rid in chunk_rids(c, rows) {
            let key = key_of(rid);
            debug_assert!(
                key >= buckets.lo && buckets.of(key) < buckets.count,
                "{key} outside the key span"
            );
            local[buckets.of(key)] += 1;
        }
    });
    counts
        .into_iter()
        .map(|c| c.into_inner().expect("chunk counts"))
        .collect()
}

/// The rids `0..rows` as sort items, moved into their buckets: bucket `b`
/// holds the items whose key falls in it, after every item of the buckets
/// below. Each key chunk is one task that packs its rids' items straight
/// into its own share of every bucket (`counts` from [`bucket_counts`]);
/// a bucket's shares lie in chunk order, so a bucket holds its items in
/// rid order, and no second item buffer is needed — the price is packing
/// every key twice, once to count and once to place.
fn partition<K: Keyed>(
    rows: usize,
    key_of: &(impl Fn(u32) -> u64 + Sync),
    buckets: &Buckets,
    counts: &[Vec<usize>],
    tasks: &dyn BuildTasks,
) -> Vec<K> {
    let mut items = vec![K::default(); rows];
    let mut shares: Vec<Vec<&mut [K]>> = counts
        .iter()
        .map(|_| Vec::with_capacity(buckets.count))
        .collect();
    let mut rest = &mut items[..];
    for b in 0..buckets.count {
        for (share, count) in shares.iter_mut().zip(counts) {
            let (part, tail) = std::mem::take(&mut rest).split_at_mut(count[b]);
            rest = tail;
            share.push(part);
        }
    }
    let shares = locked(shares.into_iter());
    tasks.run(shares.len(), &|c| {
        let mut share = shares[c].lock().expect("chunk share");
        for rid in chunk_rids(c, rows) {
            let key = key_of(rid);
            let b = buckets.of(key);
            let (item, rest) = std::mem::take(&mut share[b])
                .split_first_mut()
                .expect("the count pass counted this item");
            *item = K::new(key, rid);
            share[b] = rest;
        }
    });
    drop(shares);
    items
}

/// The payload of a base index: row `i` is `[rid(i), carried values of
/// rid(i)...]`, for `i` in `0..rows`, in `L` lanes, which must hold every
/// carried value. Filled in row-chunk tasks; `beside`, if given, runs as
/// task 0, ahead of them.
pub(crate) fn gather<L: Lane>(
    t: &Table,
    rows: usize,
    rid: impl Fn(usize) -> u32 + Sync,
    carried: &[usize],
    beside: Option<&(dyn Fn() + Sync)>,
    tasks: &dyn BuildTasks,
) -> PayloadBuf {
    let width = 1 + carried.len();
    let mut lanes = vec![L::default(); rows * width];
    // The fields a row's carried values span: the prefetch hints each of
    // their cache lines.
    let (first, last) = (
        carried.iter().copied().min().unwrap_or(0),
        carried.iter().copied().max().unwrap_or(0),
    );
    {
        let chunks = locked(lanes.chunks_mut(CHUNK_ROWS * width));
        let side = beside.is_some() as usize;
        tasks.run(side + chunks.len(), &|task| {
            let Some(c) = task.checked_sub(side) else {
                beside.expect("task 0 is the side task")();
                return;
            };
            let mut chunk = chunks[c].lock().expect("gather chunk");
            let start = c * CHUNK_ROWS;
            for (j, out) in chunk.chunks_exact_mut(width).enumerate() {
                let i = start + j;
                if !carried.is_empty() && i + PREFETCH_AHEAD < rows {
                    let ahead = t.row(rid(i + PREFETCH_AHEAD)).as_ptr();
                    let mut field = first;
                    while field < last {
                        prefetch_read(ahead.wrapping_add(field));
                        field += 8;
                    }
                    prefetch_read(ahead.wrapping_add(last));
                }
                let r = rid(i);
                let src = t.row(r);
                out[0] = L::from_code(r as u64);
                for (lane, &c) in out[1..].iter_mut().zip(carried) {
                    *lane = L::from_code(src[c]);
                }
            }
        });
    }
    PayloadBuf::from_lanes(width, rows, lanes)
}

/// The tree and payload of a build over the sorted `items`: the payload
/// gathered in row-chunk tasks, and beside them, as one task, the tree
/// filled in order, item `i` as payload row `i`.
pub(crate) fn clustered<K: Keyed>(
    t: &Table,
    items: &[K],
    tree: TreeIndex,
    carried: &[usize],
    tasks: &dyn BuildTasks,
) -> (TreeIndex, PayloadBuf) {
    let tree = Mutex::new(tree);
    let fill = || {
        let mut tree = tree.lock().expect("tree");
        for (i, item) in items.iter().enumerate() {
            tree.insert(item.key(), i as u32);
        }
    };
    let rid = |i: usize| items[i].rid();
    let payload = if carries_u32(t, carried) {
        gather::<u32>(t, items.len(), rid, carried, Some(&fill), tasks)
    } else {
        gather::<u64>(t, items.len(), rid, carried, Some(&fill), tasks)
    };
    (tree.into_inner().expect("tree"), payload)
}

/// `true` if every value of the `carried` columns — and every rid — fits a
/// 32-bit lane. Statistics are exact maxima over all row versions.
pub(crate) fn carries_u32(t: &Table, carried: &[usize]) -> bool {
    carried.iter().all(|&c| t.stats(c).fits_u32())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_puts_every_item_in_its_bucket() {
        // Several chunks, each packing into its share of every bucket: the
        // result is the items in rid order, stably ordered by bucket, under
        // the serial hook and with the chunks' tasks run in reverse.
        struct Reversed;
        impl BuildTasks for Reversed {
            fn run(&self, tasks: usize, task: &(dyn Fn(usize) + Sync)) {
                (0..tasks).rev().for_each(task);
            }
        }
        let mut rng = qppt_mem::Xoshiro256StarStar::new(0x6275_636b);
        for (lo, hi) in [
            (0u64, 0u64),
            (5, 9),
            (1 << 20, (1 << 20) + 999),
            (0, u32::MAX as u64),
        ] {
            let buckets = Buckets::new(lo, hi);
            assert!(buckets.count <= 1 << BUCKET_BITS);
            let rows = 2 * CHUNK_ROWS + 3_000;
            let keys: Vec<u64> = (0..rows).map(|_| lo + rng.below(hi - lo + 1)).collect();
            let key_of = |rid: u32| keys[rid as usize];
            let mut want: Vec<u64> = (0..rows as u32).map(|r| Keyed::new(key_of(r), r)).collect();
            want.sort_by_key(|&it| buckets.of(it.key()));
            for tasks in [&SerialTasks as &dyn BuildTasks, &Reversed] {
                let counts = bucket_counts(rows, &key_of, &buckets, tasks);
                assert_eq!(counts.len(), 3);
                let items: Vec<u64> = partition(rows, &key_of, &buckets, &counts, tasks);
                assert_eq!(items, want, "[{lo}, {hi}]");
            }
        }
    }
}
