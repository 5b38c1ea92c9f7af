//! KISS-Tree core structure: root directory, second-level nodes, contents.

pub use qppt_mem::dup::Values;
use qppt_mem::dup::{DupArena, DupList};

use crate::KissConfig;

/// Node entry encoding: `0` = empty, otherwise content index + 1 — the
/// content handle [`KissTree::handle`] returns. A root slot holds a node
/// number, `0` naming the sentinel node.
const EMPTY: u32 = 0;

/// Entries of a second-level node (fixed by the KISS design).
const NODE_ENTRIES: usize = 64;

/// Position of entry `entry` of uncompressed node `n` in the slot arena.
#[inline]
fn arena_slot(n: u32, entry: usize) -> usize {
    n as usize * NODE_ENTRIES + entry
}

/// OS page size the root directory is mapped at, and its slots per page.
const ROOT_PAGE_BYTES: usize = 4096;
pub(crate) const ROOT_PAGE_SLOTS: usize = ROOT_PAGE_BYTES / core::mem::size_of::<u32>();

/// The first page in `from..=to` whose bit is set in the page bitmap
/// `word(w)` returns word by word, 64 pages a word; `None` when there is
/// none. Reads one word per 64 pages skipped and never a word past `to`'s.
pub(crate) fn next_set_page(word: impl Fn(usize) -> u64, from: usize, to: usize) -> Option<usize> {
    if from > to {
        return None;
    }
    let mut w = from / 64;
    let mut bits = word(w) & (!0u64 << (from % 64));
    loop {
        if bits != 0 {
            let page = w * 64 + bits.trailing_zeros() as usize;
            return (page <= to).then_some(page);
        }
        w += 1;
        if w * 64 > to {
            return None;
        }
        bits = word(w);
    }
}

/// Compressed second-level node: the original KISS-Tree's bitmask node.
/// Entry `e` exists iff bit `e` is set, and its slot is the popcount of the
/// lower bits. Updating it requires copying the compact array (the paper's
/// RCU copy overhead); the uncompressed layout updates in place.
#[derive(Debug, Default)]
struct CompressedNode {
    bitmap: u64,
    entries: Box<[u32]>,
}

#[derive(Debug, Clone, Copy)]
enum Payload<V> {
    One(V),
    Many(DupList),
}

/// Prefix-tree-based index for 32-bit keys with a two-level layout
/// (see the crate docs). Multimap semantics like `qppt_trie::PrefixTree`.
///
/// A root slot holds the number `n` of its second-level node. Node 0 is a
/// permanent all-empty **sentinel**, and an empty root slot is `0`, so a
/// lookup reads an empty slot's entry like any other — EMPTY — without
/// branching on it. Uncompressed node `n` is the 64 slots
/// `udata[n * 64..n * 64 + 64]`, compressed node `n` is `nodes[n]`.
#[derive(Debug)]
pub struct KissTree<V> {
    cfg: KissConfig,
    /// Root directory; 256 MB virtual for the paper geometry, physically
    /// mapped on demand by the OS at 4 KB granularity. A slot goes from
    /// empty to non-empty only in `write_entry`. One slot past the key
    /// domain stays empty forever: a key beyond the domain is clamped to
    /// it and so reads the sentinel.
    root: Vec<u32>,
    /// One bit per 4 KB root page: set where a slot of the page first
    /// becomes non-empty (8 KiB for the paper geometry). Root slots never
    /// return to empty, so `touched_pages` — its population — is exact.
    root_pages: Vec<u64>,
    touched_pages: usize,
    /// Compressed nodes, the sentinel first (compressed trees only).
    nodes: Vec<CompressedNode>,
    /// Uncompressed nodes' slots, 64 per node, the sentinel's first
    /// (uncompressed trees only): allocating a node is a bump, not a
    /// malloc.
    udata: Vec<u32>,
    contents: Vec<Payload<V>>,
    dups: DupArena<V>,
    distinct: usize,
    total_values: usize,
    min_key: u32,
    max_key: u32,
    /// Number of compressed-node copies performed (the RCU-analogue cost;
    /// reported by Ablation A4).
    copy_updates: usize,
}

impl<V: Copy + Default> KissTree<V> {
    /// Creates an empty tree: the sentinel node and the root directory,
    /// allocated zeroed — i.e. virtually; physical pages appear as slots
    /// are written.
    pub fn new(cfg: KissConfig) -> Self {
        cfg.validate();
        let (nodes, udata) = if cfg.compressed {
            (vec![CompressedNode::default()], Vec::new())
        } else {
            (Vec::new(), vec![EMPTY; NODE_ENTRIES])
        };
        Self {
            cfg,
            root: vec![EMPTY; cfg.root_slots() + 1],
            root_pages: vec![0; cfg.root_slots().div_ceil(ROOT_PAGE_SLOTS).div_ceil(64)],
            touched_pages: 0,
            nodes,
            udata,
            contents: Vec::new(),
            dups: DupArena::new(),
            distinct: 0,
            total_values: 0,
            min_key: u32::MAX,
            max_key: 0,
            copy_updates: 0,
        }
    }

    /// Paper-geometry tree (26/6, uncompressed second level).
    pub fn paper() -> Self {
        Self::new(KissConfig::paper())
    }

    /// The tree's configuration.
    #[inline]
    pub fn config(&self) -> KissConfig {
        self.cfg
    }

    /// Number of distinct keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.distinct
    }

    /// `true` if no keys are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.distinct == 0
    }

    /// Total number of stored values.
    #[inline]
    pub fn total_values(&self) -> usize {
        self.total_values
    }

    /// Smallest stored key (`None` when empty). O(1): maintained on insert,
    /// which is what allows the bounded root scans of §4.2.
    #[inline]
    pub fn min_key(&self) -> Option<u32> {
        (!self.is_empty()).then_some(self.min_key)
    }

    /// Largest stored key (`None` when empty).
    #[inline]
    pub fn max_key(&self) -> Option<u32> {
        (!self.is_empty()).then_some(self.max_key)
    }

    /// Number of copy-on-update events caused by compressed nodes.
    #[inline]
    pub fn copy_updates(&self) -> usize {
        self.copy_updates
    }

    pub(crate) fn root_slot(&self, idx: usize) -> u32 {
        self.root[idx]
    }

    /// Word `w` of the touched-page bitmap: bit `p % 64` of word `p / 64`
    /// is set iff root page `p` holds a non-empty slot.
    #[inline]
    pub(crate) fn root_page_word(&self, w: usize) -> u64 {
        self.root_pages[w]
    }

    /// `slot` if its root page is touched, else the first slot of the next
    /// touched page up to `last`'s, else `last + 1`: the first root slot at
    /// or after `slot` that can be non-empty. Every slot it skips is empty.
    #[inline]
    fn touched_from(&self, slot: usize, last: usize) -> usize {
        let page = slot / ROOT_PAGE_SLOTS;
        match next_set_page(|w| self.root_pages[w], page, last / ROOT_PAGE_SLOTS) {
            Some(p) if p == page => slot,
            Some(p) => p * ROOT_PAGE_SLOTS,
            None => last + 1,
        }
    }

    /// The root slot of `key` — the node number its second-level node has,
    /// `0` (the sentinel) when the slot is empty or the key lies beyond the
    /// domain, wider than 32 bits included: such a key is clamped to the
    /// directory's last slot, which stays empty.
    #[inline]
    pub(crate) fn root_node(&self, key: u64) -> u32 {
        let last = self.root.len() - 1;
        self.root[((key >> 6) as usize).min(last)]
    }

    /// Entry `entry` of node `n` — the tree's one way into a node: `EMPTY`
    /// or a content handle. Uncompressed, it is one load at an address
    /// computed from `n`, and the sentinel `n = 0` reads EMPTY.
    #[inline]
    pub(crate) fn node_entry(&self, n: u32, entry: usize) -> u32 {
        if self.cfg.compressed {
            let CompressedNode { bitmap, entries } = &self.nodes[n as usize];
            let bit = 1u64 << entry;
            if bitmap & bit == 0 {
                EMPTY
            } else {
                entries[(bitmap & (bit - 1)).count_ones() as usize]
            }
        } else {
            self.udata[arena_slot(n, entry)]
        }
    }

    /// Prefetchable addresses for the batch path (see `batch.rs`).
    pub(crate) fn root_slot_addr(&self, idx: usize) -> *const u32 {
        &self.root[idx]
    }

    pub(crate) fn node_addr(&self, n: u32) -> *const u8 {
        if self.cfg.compressed {
            (&self.nodes[n as usize]) as *const CompressedNode as *const u8
        } else {
            (&self.udata[arena_slot(n, 0)]) as *const u32 as *const u8
        }
    }

    pub(crate) fn content_addr(&self, content: u32) -> *const u8 {
        (&self.contents[content as usize]) as *const Payload<V> as *const u8
    }

    /// Inserts `(key, value)`, appending to the key's duplicate list when the
    /// key is already present.
    pub fn insert(&mut self, key: u32, value: V) {
        self.cfg.check_key(key);
        self.total_values += 1;
        let content = self.slot_for(key);
        match content {
            SlotState::New(slot) => {
                let c = self.contents.len() as u32;
                self.contents.push(Payload::One(value));
                self.write_entry(slot, key, c + 1);
                self.distinct += 1;
                self.min_key = self.min_key.min(key);
                self.max_key = self.max_key.max(key);
            }
            SlotState::Existing(c) => match &mut self.contents[c as usize] {
                Payload::One(first) => {
                    let mut list = self.dups.new_list(*first);
                    self.dups.push(&mut list, value);
                    self.contents[c as usize] = Payload::Many(list);
                }
                Payload::Many(list) => self.dups.push(list, value),
            },
        }
    }

    /// Upsert with a merge function (aggregation path; see
    /// `qppt_trie::PrefixTree::insert_merge`).
    pub fn insert_merge(&mut self, key: u32, value: V, merge: impl FnOnce(&mut V, V)) {
        self.cfg.check_key(key);
        let content = self.slot_for(key);
        match content {
            SlotState::New(slot) => {
                let c = self.contents.len() as u32;
                self.contents.push(Payload::One(value));
                self.write_entry(slot, key, c + 1);
                self.distinct += 1;
                self.total_values += 1;
                self.min_key = self.min_key.min(key);
                self.max_key = self.max_key.max(key);
            }
            SlotState::Existing(c) => match &mut self.contents[c as usize] {
                Payload::One(acc) => merge(acc, value),
                Payload::Many(_) => unreachable!("aggregating trees never hold duplicate lists"),
            },
        }
    }

    /// Looks up a key.
    pub fn get(&self, key: u32) -> Option<Values<'_, V>> {
        self.cfg.check_key(key);
        let h = self.handle(key as u64);
        (h != EMPTY).then(|| self.handle_values(h))
    }

    /// The content handle of `key`: `0` when absent, else a value for
    /// [`handle_values`](Self::handle_values). Any `u64` may be asked: a
    /// key beyond the domain reads the sentinel node and is absent. Two
    /// dependent loads — root slot, node entry — and no branch on the data.
    #[inline]
    pub fn handle(&self, key: u64) -> u32 {
        self.node_entry(self.root_node(key), (key & 63) as usize)
    }

    /// [`handle`](Self::handle) of every key, in order, into `handles`
    /// (cleared first): the batched lookup. Unlike
    /// [`batch_get_with`](Self::batch_get_with) it prefetches nothing and
    /// takes no branch per key, which wins when the tree is cache-resident.
    pub fn get_handles(&self, keys: &[u64], handles: &mut Vec<u32>) {
        handles.clear();
        handles.extend(keys.iter().map(|&k| self.handle(k)));
    }

    /// The values of a non-zero content handle.
    #[inline]
    pub fn handle_values(&self, handle: u32) -> Values<'_, V> {
        self.values_of(handle - 1)
    }

    /// First value for a key (for unique indexes).
    pub fn get_first(&self, key: u32) -> Option<V> {
        self.get(key).map(|mut v| *v.next().expect("≥1 value"))
    }

    /// `true` if the key is present.
    pub fn contains_key(&self, key: u32) -> bool {
        self.get(key).is_some()
    }

    /// Number of values for `key` (0 if absent).
    pub fn value_count(&self, key: u32) -> usize {
        self.get(key).map_or(0, |v| v.len())
    }

    pub(crate) fn values_of(&self, content: u32) -> Values<'_, V> {
        match &self.contents[content as usize] {
            Payload::One(v) => self.dups.one(v),
            Payload::Many(list) => self.dups.iter(list),
        }
    }

    /// Finds (or prepares) the entry slot for `key`.
    fn slot_for(&mut self, key: u32) -> SlotState {
        let (ri, ei) = self.cfg.split(key);
        let e = self.node_entry(self.root[ri], ei);
        if e == EMPTY {
            SlotState::New(EntrySlot {
                root_idx: ri,
                entry_idx: ei,
            })
        } else {
            SlotState::Existing(e - 1)
        }
    }

    /// Writes `value` (an encoded content pointer) into the node entry,
    /// allocating or copying second-level nodes as required.
    fn write_entry(&mut self, slot: EntrySlot, _key: u32, value: u32) {
        let n = self.root[slot.root_idx];
        if n == EMPTY {
            // Allocate a fresh node holding just this entry.
            let n = if self.cfg.compressed {
                self.nodes.push(CompressedNode {
                    bitmap: 1u64 << slot.entry_idx,
                    entries: vec![value].into_boxed_slice(),
                });
                self.nodes.len() as u32 - 1
            } else {
                let n = (self.udata.len() / NODE_ENTRIES) as u32;
                self.udata.resize(self.udata.len() + NODE_ENTRIES, EMPTY);
                self.udata[arena_slot(n, slot.entry_idx)] = value;
                n
            };
            self.root[slot.root_idx] = n;
            let page = slot.root_idx / ROOT_PAGE_SLOTS;
            let (word, bit) = (&mut self.root_pages[page / 64], 1u64 << (page % 64));
            if *word & bit == 0 {
                *word |= bit;
                self.touched_pages += 1;
            }
            return;
        }
        if self.cfg.compressed {
            // Copy-on-update: build the widened compact array, then swap it
            // in (the single-threaded analogue of the RCU publish).
            let CompressedNode { bitmap, entries } = &mut self.nodes[n as usize];
            let bit = 1u64 << slot.entry_idx;
            debug_assert_eq!(*bitmap & bit, 0);
            let pos = (*bitmap & (bit - 1)).count_ones() as usize;
            let mut new_entries = Vec::with_capacity(entries.len() + 1);
            new_entries.extend_from_slice(&entries[..pos]);
            new_entries.push(value);
            new_entries.extend_from_slice(&entries[pos..]);
            *bitmap |= bit;
            *entries = new_entries.into_boxed_slice();
            self.copy_updates += 1;
        } else {
            let idx = arena_slot(n, slot.entry_idx);
            debug_assert_eq!(self.udata[idx], EMPTY);
            self.udata[idx] = value;
        }
    }

    /// Iterates `(key, values)` in ascending key order.
    pub fn iter(&self) -> KissIter<'_, V> {
        self.range(0, u32::MAX)
    }

    /// Iterates `(key, values)` with `lo <= key <= hi` in ascending order —
    /// the tree's one cursor. The root pass is bounded by the maintained
    /// min/max keys, and it reads only the slots of touched root pages:
    /// past an empty slot at a page's end it jumps to the next page set in
    /// the touched-page bitmap. A walk so costs the root pages the tree
    /// touched in the range, whatever the key span between them.
    pub fn range(&self, lo: u32, hi: u32) -> KissIter<'_, V> {
        let (lo, hi) = if self.is_empty() {
            (1, 0) // empty bounds
        } else {
            (lo.max(self.min_key), hi.min(self.max_key))
        };
        let (root_lo, entry_lo) = self.cfg.split(lo);
        let (hi_root, _) = self.cfg.split(hi);
        let root_idx = self.touched_from(root_lo, hi_root);
        let entry_idx = if root_idx == root_lo { entry_lo } else { 0 };
        KissIter {
            tree: self,
            root_idx,
            entry_idx,
            lo,
            hi,
            hi_root,
            exhausted: lo > hi,
            slots_read: 0,
        }
    }

    /// All keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = u32> + '_ {
        self.iter().map(|(k, _)| k)
    }

    /// Memory statistics, O(1) in the key span: no figure walks the root
    /// directory or the nodes. `root_virtual_bytes` is the directory's
    /// full (virtual) size; `root_touched_bytes` estimates the physically
    /// mapped portion as the number of distinct 4 KB root pages containing
    /// at least one non-empty slot, counted where a slot first becomes
    /// non-empty. `nodes` counts the populated root slots; `node_bytes`
    /// counts the sentinel node too, which every tree holds.
    pub fn stats(&self) -> KissStats {
        // Every entry of a compressed node is one distinct key, its bitmap
        // 8 bytes; an uncompressed node is its 64 arena slots.
        let (nodes, node_bytes) = if self.cfg.compressed {
            let nodes = self.nodes.len() - 1;
            (nodes, (nodes + 1) * 8 + self.distinct * 4)
        } else {
            (self.udata.len() / NODE_ENTRIES - 1, self.udata.len() * 4)
        };
        KissStats {
            distinct_keys: self.distinct,
            total_values: self.total_values,
            nodes,
            root_virtual_bytes: self.cfg.root_slots() * 4,
            root_touched_bytes: self.touched_pages * ROOT_PAGE_BYTES,
            node_bytes,
            content_bytes: self.contents.len() * core::mem::size_of::<Payload<V>>(),
            dup_bytes: self.dups.allocated_bytes(),
            copy_updates: self.copy_updates,
        }
    }
}

enum SlotState {
    New(EntrySlot),
    Existing(u32),
}

struct EntrySlot {
    root_idx: usize,
    entry_idx: usize,
}

/// Memory/structure statistics of a [`KissTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KissStats {
    pub distinct_keys: usize,
    pub total_values: usize,
    /// Second-level nodes: the populated root slots (the sentinel is not
    /// one).
    pub nodes: usize,
    /// The key domain's root slots × 4 B.
    pub root_virtual_bytes: usize,
    /// 4 KB for every root page holding a non-empty slot — the page
    /// population is kept by a bitmap set on insert, not walked, so reading
    /// it costs nothing whatever the tree's key span.
    pub root_touched_bytes: usize,
    /// Every node's bytes, the sentinel's included: 256 B per uncompressed
    /// node; a compressed one's 8 B bitmap and 4 B per entry. No per-node
    /// record: a root slot addresses its node directly.
    pub node_bytes: usize,
    pub content_bytes: usize,
    pub dup_bytes: usize,
    pub copy_updates: usize,
}

impl KissStats {
    /// Physically meaningful footprint (touched root pages + nodes +
    /// contents + duplicates). Like [`KissTree::stats`], it visits no root
    /// slot: a tree's cost follows the keys stored, not the key domain.
    pub fn resident_bytes(&self) -> usize {
        self.root_touched_bytes + self.node_bytes + self.content_bytes + self.dup_bytes
    }
}

/// Ordered `(key, values)` iterator over a key range.
pub struct KissIter<'a, V> {
    tree: &'a KissTree<V>,
    root_idx: usize,
    entry_idx: usize,
    lo: u32,
    hi: u32,
    hi_root: usize,
    exhausted: bool,
    slots_read: usize,
}

impl<V: Copy + Default> KissIter<'_, V> {
    /// Root slots the cursor has read so far: the walk's work, which the
    /// touched-page skip bounds by the slots of the pages it entered.
    pub fn slots_read(&self) -> usize {
        self.slots_read
    }

    /// Steps to the next root slot; entering a new page, it jumps to the
    /// next touched one instead.
    #[inline]
    fn next_slot(&mut self) {
        self.root_idx += 1;
        self.entry_idx = 0;
        if self.root_idx.is_multiple_of(ROOT_PAGE_SLOTS) && self.root_idx <= self.hi_root {
            self.root_idx = self.tree.touched_from(self.root_idx, self.hi_root);
        }
    }
}

impl<'a, V: Copy + Default> Iterator for KissIter<'a, V> {
    type Item = (u32, Values<'a, V>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.exhausted {
            return None;
        }
        let cfg = self.tree.cfg;
        let entries = cfg.node_entries();
        loop {
            if self.root_idx > self.hi_root {
                self.exhausted = true;
                return None;
            }
            let n = self.tree.root[self.root_idx];
            self.slots_read += 1;
            if n == EMPTY {
                self.next_slot();
                continue;
            }
            while self.entry_idx < entries {
                let e = self.tree.node_entry(n, self.entry_idx);
                let key = cfg.join(self.root_idx, self.entry_idx);
                self.entry_idx += 1;
                if e != EMPTY {
                    if key > self.hi {
                        self.exhausted = true;
                        return None;
                    }
                    if key >= self.lo {
                        return Some((key, self.tree.values_of(e - 1)));
                    }
                }
            }
            self.next_slot();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qppt_mem::Xoshiro256StarStar;
    use std::collections::BTreeMap;

    fn cfgs() -> Vec<KissConfig> {
        vec![KissConfig::small(false), KissConfig::small(true)]
    }

    #[test]
    fn empty_tree() {
        for cfg in cfgs() {
            let t = KissTree::<u32>::new(cfg);
            assert!(t.is_empty());
            assert!(t.get(0).is_none());
            assert_eq!(t.min_key(), None);
            assert_eq!(t.iter().count(), 0);
        }
    }

    #[test]
    fn empty_slots_and_foreign_keys_read_the_sentinel() {
        for cfg in cfgs() {
            let mut t = KissTree::<u32>::new(cfg);
            let s = t.stats();
            assert_eq!(
                (s.nodes, s.node_bytes),
                (0, if cfg.compressed { 8 } else { 256 })
            );
            t.insert(70, 7);
            let beyond = [1 << 16, u32::MAX as u64, 1 << 40, u64::MAX];
            for key in [0, 69, 71, 1000, (1 << 16) - 1].into_iter().chain(beyond) {
                assert_eq!(t.handle(key), EMPTY, "{cfg:?} {key}");
            }
            let h = t.handle(70);
            assert_eq!(t.handle_values(h).copied().collect::<Vec<_>>(), [7]);
            assert_eq!(t.stats().nodes, 1);
        }
    }

    #[test]
    fn insert_get_roundtrip_both_variants() {
        for cfg in cfgs() {
            let mut t = KissTree::<u32>::new(cfg);
            let mut rng = Xoshiro256StarStar::new(1);
            let mut model: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
            for i in 0..5000u32 {
                let k = rng.below(1 << 16) as u32;
                t.insert(k, i);
                model.entry(k).or_default().push(i);
            }
            assert_eq!(t.len(), model.len());
            for (&k, vs) in &model {
                let got: Vec<u32> = t.get(k).unwrap().copied().collect();
                assert_eq!(&got, vs, "compressed={}", cfg.compressed);
            }
        }
    }

    #[test]
    fn iteration_is_ordered_and_complete() {
        for cfg in cfgs() {
            let mut t = KissTree::<u32>::new(cfg);
            let mut rng = Xoshiro256StarStar::new(2);
            let mut model: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
            for i in 0..3000u32 {
                let k = (rng.below(1 << 16)) as u32;
                t.insert(k, i);
                model.entry(k).or_default().push(i);
            }
            let got: Vec<(u32, Vec<u32>)> =
                t.iter().map(|(k, v)| (k, v.copied().collect())).collect();
            let expect: Vec<(u32, Vec<u32>)> = model.into_iter().collect();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn range_matches_model() {
        for cfg in cfgs() {
            let mut t = KissTree::<u32>::new(cfg);
            let mut rng = Xoshiro256StarStar::new(3);
            let mut model: BTreeMap<u32, u32> = BTreeMap::new();
            for i in 0..2000u32 {
                let k = (rng.below(1 << 14)) as u32;
                model.entry(k).or_insert_with(|| {
                    t.insert(k, i);
                    i
                });
            }
            for (lo, hi) in [
                (0u32, u32::MAX),
                (100, 5000),
                (777, 777),
                (16000, 20000),
                (5, 3),
            ] {
                let got: Vec<u32> = t.range(lo, hi).map(|(k, _)| k).collect();
                let expect: Vec<u32> = if lo <= hi {
                    model.range(lo..=hi).map(|(&k, _)| k).collect()
                } else {
                    Vec::new()
                };
                assert_eq!(
                    got, expect,
                    "range [{lo},{hi}] compressed={}",
                    cfg.compressed
                );
            }
        }
    }

    #[test]
    fn min_max_maintained() {
        let mut t = KissTree::<u32>::new(KissConfig::small(false));
        t.insert(500, 0);
        t.insert(10, 0);
        t.insert(60_000, 0);
        assert_eq!(t.min_key(), Some(10));
        assert_eq!(t.max_key(), Some(60_000));
    }

    #[test]
    fn boundary_keys() {
        for cfg in cfgs() {
            let max = cfg.key_limit().map(|l| l - 1).unwrap_or(u32::MAX);
            let mut t = KissTree::<u32>::new(cfg);
            t.insert(0, 1);
            t.insert(max, 2);
            assert_eq!(t.get_first(0), Some(1));
            assert_eq!(t.get_first(max), Some(2));
            let keys: Vec<u32> = t.keys().collect();
            assert_eq!(keys, vec![0, max]);
        }
    }

    #[test]
    #[should_panic(expected = "exceeds the 16-bit domain")]
    fn out_of_domain_key_panics() {
        let mut t = KissTree::<u32>::new(KissConfig::small(false));
        t.insert(1 << 16, 0);
    }

    #[test]
    fn compressed_counts_copy_updates_uncompressed_does_not() {
        let mut tc = KissTree::<u32>::new(KissConfig::small(true));
        let mut tu = KissTree::<u32>::new(KissConfig::small(false));
        // Same root slot, distinct entries → compressed copies on each new key.
        for e in 0..10u32 {
            tc.insert(e, e);
            tu.insert(e, e);
        }
        assert!(tc.copy_updates() >= 9);
        assert_eq!(tu.copy_updates(), 0);
    }

    #[test]
    fn insert_merge_aggregates() {
        let mut t = KissTree::<i64>::new(KissConfig::small(false));
        t.insert_merge(7, 5, |a, v| *a += v);
        t.insert_merge(7, 10, |a, v| *a += v);
        t.insert_merge(8, 1, |a, v| *a += v);
        assert_eq!(t.get_first(7), Some(15));
        assert_eq!(t.get_first(8), Some(1));
        assert_eq!(t.total_values(), 2);
    }

    #[test]
    fn compression_saves_node_memory_on_sparse_nodes() {
        let mut tc = KissTree::<u32>::new(KissConfig::small(true));
        let mut tu = KissTree::<u32>::new(KissConfig::small(false));
        // Sparse keys → compressed nodes hold few entries, uncompressed 64.
        let mut rng = Xoshiro256StarStar::new(4);
        for i in 0..200u32 {
            let k = rng.below(1 << 16) as u32;
            tc.insert(k, i);
            tu.insert(k, i);
        }
        assert!(tc.stats().node_bytes < tu.stats().node_bytes);
    }

    #[test]
    fn paper_geometry_smoke() {
        // 256 MB virtual root; only a handful of pages actually touched.
        let mut t = KissTree::<u32>::paper();
        for i in 0..10_000u32 {
            t.insert(i, i);
        }
        assert_eq!(t.len(), 10_000);
        assert_eq!(t.get_first(9999), Some(9999));
        let s = t.stats();
        assert_eq!(s.root_virtual_bytes, 256 << 20);
        assert!(s.root_touched_bytes <= 4096 * 4);
        let keys: Vec<u32> = t.keys().collect();
        assert_eq!(keys.len(), 10_000);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }
}
