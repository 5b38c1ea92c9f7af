//! The clustered build of a base index, as a few linear passes of
//! independent tasks.
//!
//! [`BaseIndex::build`](crate::BaseIndex::build) lays a table's row
//! versions out in key order. It runs in three passes, each split into
//! tasks that touch disjoint memory:
//!
//! 1. **Keys**, in row chunks: every row's packed key goes into one sort
//!    item beside its rid, and each chunk counts its items per bucket of
//!    the key's top bits.
//! 2. **Sort**: one in-place pass moves every item into its bucket; the
//!    buckets, which are key-disjoint and ascending, then sort as tasks.
//!    Where keys fit 32 bits an item is the word `key << 32 | rid`; wider
//!    keys sort `(key, rid)` pairs. Either way equal keys tie on the rid,
//!    so the unstable sort gives the stable order
//!    ([`stable_key_order`](crate::stable_key_order)) by construction, and
//!    nothing in it loads a key at random.
//! 3. **Gather**, in chunks of the sorted items: payload row `i` is item
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

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use qppt_mem::key_bits;
use qppt_mem::prefetch::prefetch_read;

use crate::index::TreeIndex;
use crate::payload::{Lane, PayloadBuf};
use crate::table::Table;

/// Rows per task of the key and gather passes.
const CHUNK_ROWS: usize = 1 << 14;

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
    let mut items = vec![K::default(); rows];
    if rows == 0 {
        return items;
    }
    let buckets = Buckets::new(lo, hi);
    let counts: Vec<AtomicUsize> = (0..buckets.count).map(|_| AtomicUsize::new(0)).collect();
    {
        let chunks = locked(items.chunks_mut(CHUNK_ROWS));
        tasks.run(chunks.len(), &|i| {
            let mut chunk = chunks[i].lock().expect("key chunk");
            let mut local = vec![0usize; buckets.count];
            let first = i * CHUNK_ROWS;
            for (j, item) in chunk.iter_mut().enumerate() {
                let rid = (first + j) as u32;
                let key = key_of(rid);
                debug_assert!((lo..=hi).contains(&key), "{key} outside [{lo}, {hi}]");
                local[buckets.of(key)] += 1;
                *item = K::new(key, rid);
            }
            for (total, n) in counts.iter().zip(local) {
                total.fetch_add(n, Ordering::Relaxed);
            }
        });
    }
    let counts: Vec<usize> = counts.into_iter().map(AtomicUsize::into_inner).collect();
    partition(&mut items, &buckets, &counts);
    let mut rest = &mut items[..];
    let parts = locked(counts.iter().map(|&n| {
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

/// Moves every item into its bucket, in place: bucket `b` ends up at
/// `counts[..b].sum()..counts[..=b].sum()`, its items in no particular
/// order. Each swap puts one item home for good (American flag sort's
/// permutation pass).
fn partition<K: Keyed>(items: &mut [K], buckets: &Buckets, counts: &[usize]) {
    let (mut heads, mut ends) = (Vec::with_capacity(counts.len()), Vec::new());
    let mut at = 0;
    for &n in counts {
        heads.push(at);
        at += n;
        ends.push(at);
    }
    for b in 0..counts.len() {
        while heads[b] < ends[b] {
            let mut item = items[heads[b]];
            loop {
                let home = buckets.of(item.key());
                if home == b {
                    break;
                }
                std::mem::swap(&mut item, &mut items[heads[home]]);
                heads[home] += 1;
            }
            items[heads[b]] = item;
            heads[b] += 1;
        }
    }
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
        let mut rng = qppt_mem::Xoshiro256StarStar::new(0x6275_636b);
        for (lo, hi) in [
            (0u64, 0u64),
            (5, 9),
            (1 << 20, (1 << 20) + 999),
            (0, u32::MAX as u64),
        ] {
            let buckets = Buckets::new(lo, hi);
            assert!(buckets.count <= 1 << BUCKET_BITS);
            let mut items: Vec<u64> = (0..3_000u32)
                .map(|rid| Keyed::new(lo + rng.below(hi - lo + 1), rid))
                .collect();
            let mut counts = vec![0; buckets.count];
            for &it in &items {
                counts[buckets.of(it.key())] += 1;
            }
            let mut want = items.clone();
            partition(&mut items, &buckets, &counts);
            let homes: Vec<usize> = items.iter().map(|&it| buckets.of(it.key())).collect();
            assert!(homes.windows(2).all(|w| w[0] <= w[1]), "[{lo}, {hi}]");
            items.sort_unstable();
            want.sort_unstable();
            assert_eq!(items, want);
        }
    }
}
