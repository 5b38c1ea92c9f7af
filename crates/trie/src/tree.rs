//! Core prefix-tree structure: slot arena, contents, insert paths, lookups.

pub use qppt_mem::dup::Values;
use qppt_mem::dup::{DupArena, DupList};

use crate::TrieConfig;

/// Slot encoding inside node bucket arrays (one `u32` per bucket):
/// `0` = empty; high bit set = content entry (index in the low 31 bits);
/// otherwise an inner node (index + 1).
pub(crate) const EMPTY: u32 = 0;
const CONTENT_TAG: u32 = 0x8000_0000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    Empty,
    Node(u32),
    Content(u32),
}

#[inline]
pub(crate) fn decode(slot: u32) -> Slot {
    if slot == EMPTY {
        Slot::Empty
    } else if slot & CONTENT_TAG != 0 {
        Slot::Content(slot & !CONTENT_TAG)
    } else {
        Slot::Node(slot - 1)
    }
}

#[inline]
fn enc_node(idx: u32) -> u32 {
    debug_assert!(idx < CONTENT_TAG - 1);
    idx + 1
}

#[inline]
fn enc_content(idx: u32) -> u32 {
    debug_assert!(idx & CONTENT_TAG == 0);
    idx | CONTENT_TAG
}

/// Value storage of a content entry. The single-value case is by far the
/// most common (unique keys), so it is stored inline; further values spill
/// into the segmented duplicate arena of §2.4.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Payload<V> {
    One(V),
    Many(DupList),
}

#[derive(Debug)]
pub(crate) struct Content<V> {
    pub(crate) key: u64,
    pub(crate) payload: Payload<V>,
}

/// An order-preserving, unbalanced prefix tree mapping `u64` keys (of a
/// configured bit width) to one or more values.
///
/// See the crate docs for the role this structure plays in QPPT. Because the
/// engine controls all keys, out-of-domain keys are programming errors and
/// panic (`assert!`) rather than returning `Result` on the hot path.
#[derive(Debug)]
pub struct PrefixTree<V> {
    pub(crate) cfg: TrieConfig,
    /// Node arena: node `i` owns `slots[i*fanout .. (i+1)*fanout]`.
    pub(crate) slots: Vec<u32>,
    pub(crate) contents: Vec<Content<V>>,
    pub(crate) dups: DupArena<V>,
    distinct: usize,
    total_values: usize,
}

impl<V: Copy + Default> PrefixTree<V> {
    /// Creates an empty tree with the given configuration. The root node is
    /// pre-allocated (node 0).
    pub fn new(cfg: TrieConfig) -> Self {
        Self {
            cfg,
            slots: vec![EMPTY; cfg.fanout()],
            contents: Vec::new(),
            dups: DupArena::new(),
            distinct: 0,
            total_values: 0,
        }
    }

    /// Convenience constructor for the paper's default PT4 over 32-bit keys.
    pub fn pt4_32() -> Self {
        Self::new(TrieConfig::pt4_32())
    }

    /// Convenience constructor for PT4 over 64-bit keys.
    pub fn pt4_64() -> Self {
        Self::new(TrieConfig::pt4_64())
    }

    /// The tree's configuration.
    #[inline]
    pub fn config(&self) -> TrieConfig {
        self.cfg
    }

    /// Number of distinct keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.distinct
    }

    /// `true` if the tree holds no keys.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.distinct == 0
    }

    /// Total number of stored values (≥ number of distinct keys).
    #[inline]
    pub fn total_values(&self) -> usize {
        self.total_values
    }

    #[inline]
    pub(crate) fn check_key(&self, key: u64) {
        if let Some(limit) = self.cfg.key_limit() {
            assert!(
                key < limit,
                "key {key:#x} exceeds {}-bit domain",
                self.cfg.key_bits()
            );
        }
    }

    #[inline]
    fn alloc_node(&mut self) -> u32 {
        let idx = (self.slots.len() / self.cfg.fanout()) as u32;
        self.slots
            .resize(self.slots.len() + self.cfg.fanout(), EMPTY);
        idx
    }

    #[inline]
    pub(crate) fn slot_index(&self, node: u32, frag: usize) -> usize {
        node as usize * self.cfg.fanout() + frag
    }

    /// Inserts `(key, value)`; duplicate keys accumulate values
    /// (multimap semantics — this is how intermediate indexed tables store
    /// several tuples per key).
    pub fn insert(&mut self, key: u64, value: V) {
        self.total_values += 1;
        self.upsert(key, value, |dups, payload, v| match payload {
            Payload::One(first) => {
                let mut list = dups.new_list(*first);
                dups.push(&mut list, v);
                *payload = Payload::Many(list);
            }
            Payload::Many(list) => dups.push(list, v),
        });
    }

    /// Inserts `(key, value)`, combining with the existing value via `merge`
    /// when the key is already present (upsert). This is the aggregation
    /// path: a join-group operator inserts into its output index with
    /// `merge = |acc, v| *acc += v` and grouping happens as a side effect.
    ///
    /// Trees built with `insert_merge` keep exactly one value per key; mixing
    /// `insert` and `insert_merge` on the same key merges into the *first*
    /// stored value and is not meaningful.
    pub fn insert_merge(&mut self, key: u64, value: V, merge: impl FnOnce(&mut V, V)) {
        let mut merge = Some(merge);
        let before = self.contents.len();
        self.upsert(key, value, |dups, payload, v| {
            let m = merge.take().expect("merge closure called once");
            match payload {
                Payload::One(acc) => m(acc, v),
                Payload::Many(list) => {
                    // Degenerate mixed-use case: merge into the first value.
                    let mut first = None;
                    dups.for_each_segment(list, |seg| {
                        if first.is_none() && !seg.is_empty() {
                            first = Some(seg[0]);
                        }
                    });
                    let mut acc = first.expect("duplicate list is never empty");
                    m(&mut acc, v);
                    *payload = Payload::One(acc);
                }
            }
        });
        if self.contents.len() > before {
            self.total_values += 1;
        }
    }

    /// Shared descent + dynamic-expansion logic. `on_existing` is invoked
    /// when the key is already present.
    fn upsert(
        &mut self,
        key: u64,
        value: V,
        on_existing: impl FnOnce(&mut DupArena<V>, &mut Payload<V>, V),
    ) {
        self.check_key(key);
        let mut node = 0u32;
        let mut level = 0u32;
        loop {
            let si = self.slot_index(node, self.cfg.fragment(key, level));
            match decode(self.slots[si]) {
                Slot::Empty => {
                    let c = self.contents.len() as u32;
                    self.contents.push(Content {
                        key,
                        payload: Payload::One(value),
                    });
                    self.slots[si] = enc_content(c);
                    self.distinct += 1;
                    return;
                }
                Slot::Content(c) => {
                    if self.contents[c as usize].key == key {
                        let content = &mut self.contents[c as usize];
                        on_existing(&mut self.dups, &mut content.payload, value);
                        return;
                    }
                    // Dynamic expansion: push the resident content down until
                    // its fragment path diverges from the new key's.
                    self.expand_and_insert(si, c, key, value, level);
                    self.distinct += 1;
                    return;
                }
                Slot::Node(n) => {
                    node = n;
                    level += 1;
                    debug_assert!(
                        level < self.cfg.levels(),
                        "inner node below the last level is impossible"
                    );
                }
            }
        }
    }

    /// Replaces the content at `slot` with a chain of inner nodes deep enough
    /// to separate `existing`'s key from `key`, then stores both.
    fn expand_and_insert(
        &mut self,
        mut slot: usize,
        existing: u32,
        key: u64,
        value: V,
        mut level: u32,
    ) {
        let existing_key = self.contents[existing as usize].key;
        debug_assert_ne!(existing_key, key);
        loop {
            level += 1;
            debug_assert!(
                level < self.cfg.levels(),
                "distinct keys must diverge within levels"
            );
            let node = self.alloc_node();
            self.slots[slot] = enc_node(node);
            let old_frag = self.cfg.fragment(existing_key, level);
            let new_frag = self.cfg.fragment(key, level);
            if old_frag == new_frag {
                slot = self.slot_index(node, old_frag);
                continue;
            }
            let c = self.contents.len() as u32;
            self.contents.push(Content {
                key,
                payload: Payload::One(value),
            });
            let oi = self.slot_index(node, old_frag);
            let ni = self.slot_index(node, new_frag);
            self.slots[oi] = enc_content(existing);
            self.slots[ni] = enc_content(c);
            return;
        }
    }

    /// Index of the content entry for `key`, if present — the raw form of
    /// [`get`](Self::get), also used by the batch and scan paths.
    #[inline]
    pub(crate) fn find_content(&self, key: u64) -> Option<u32> {
        self.find_content_from(0, 0, key)
    }

    /// Descends from `node` at `level` (the synchronous scan resumes partial
    /// descents this way).
    pub(crate) fn find_content_from(&self, mut node: u32, mut level: u32, key: u64) -> Option<u32> {
        loop {
            let si = self.slot_index(node, self.cfg.fragment(key, level));
            match decode(self.slots[si]) {
                Slot::Empty => return None,
                Slot::Content(c) => {
                    return (self.contents[c as usize].key == key).then_some(c);
                }
                Slot::Node(n) => {
                    node = n;
                    level += 1;
                    debug_assert!(level < self.cfg.levels());
                }
            }
        }
    }

    /// Looks up a key, returning an iterator over its values.
    pub fn get(&self, key: u64) -> Option<Values<'_, V>> {
        self.check_key(key);
        self.find_content(key).map(|c| self.values_of(c))
    }

    /// The content handle of `key`: `0` when absent — a key beyond the
    /// domain included — else a value for
    /// [`handle_values`](Self::handle_values). The one-word form of
    /// [`get`](Self::get), for lookups that keep a result per key.
    #[inline]
    pub fn handle(&self, key: u64) -> u32 {
        if self.cfg.key_limit().is_some_and(|limit| key >= limit) {
            return 0;
        }
        self.find_content(key).map_or(0, |c| c + 1)
    }

    /// The values of a non-zero content handle.
    #[inline]
    pub fn handle_values(&self, handle: u32) -> Values<'_, V> {
        self.values_of(handle - 1)
    }

    /// Looks up a key, returning its first value (insertion order). For
    /// unique indexes this is *the* value.
    pub fn get_first(&self, key: u64) -> Option<V> {
        self.get(key)
            .map(|mut vs| *vs.next().expect("content entries hold ≥1 value"))
    }

    /// `true` if the key is present.
    pub fn contains_key(&self, key: u64) -> bool {
        self.check_key(key);
        self.find_content(key).is_some()
    }

    /// Number of values stored under `key` (0 if absent).
    pub fn value_count(&self, key: u64) -> usize {
        self.get(key).map_or(0, |v| v.len())
    }

    pub(crate) fn values_of(&self, content: u32) -> Values<'_, V> {
        match &self.contents[content as usize].payload {
            Payload::One(v) => self.dups.one(v),
            Payload::Many(list) => self.dups.iter(list),
        }
    }

    pub(crate) fn key_of(&self, content: u32) -> u64 {
        self.contents[content as usize].key
    }

    /// Calls `f` with each contiguous run of values stored under `key`.
    /// Single values arrive as a 1-element slice; duplicate lists arrive
    /// segment by segment — each segment is sequential memory (§2.4), so
    /// this is the fastest way to scan large duplicate lists.
    pub fn for_each_value_segment(&self, key: u64, mut f: impl FnMut(&[V])) {
        self.check_key(key);
        let Some(content) = self.find_content(key) else {
            return;
        };
        match &self.contents[content as usize].payload {
            Payload::One(v) => f(core::slice::from_ref(v)),
            Payload::Many(list) => self.dups.for_each_segment(list, |seg| f(seg)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree() {
        let t = PrefixTree::<u32>::pt4_32();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.get(0).is_none());
        assert!(!t.contains_key(12345));
    }

    #[test]
    fn insert_and_get_single() {
        let mut t = PrefixTree::<u32>::pt4_32();
        t.insert(0xDEAD_BEEF, 7);
        assert_eq!(t.len(), 1);
        assert_eq!(t.get_first(0xDEAD_BEEF), Some(7));
        assert_eq!(t.get_first(0xDEAD_BEEE), None);
    }

    #[test]
    fn keys_sharing_long_prefixes_expand() {
        let mut t = PrefixTree::<u32>::pt4_32();
        // Differ only in the last fragment → expansion to the deepest level.
        t.insert(0x1234_5670, 1);
        t.insert(0x1234_5671, 2);
        // And one that differs in the first fragment.
        t.insert(0xF234_5670, 3);
        assert_eq!(t.get_first(0x1234_5670), Some(1));
        assert_eq!(t.get_first(0x1234_5671), Some(2));
        assert_eq!(t.get_first(0xF234_5670), Some(3));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn duplicates_accumulate_in_order() {
        let mut t = PrefixTree::<u32>::pt4_32();
        for i in 0..100 {
            t.insert(42, i);
        }
        assert_eq!(t.len(), 1);
        assert_eq!(t.total_values(), 100);
        assert_eq!(t.value_count(42), 100);
        let vals: Vec<u32> = t.get(42).unwrap().copied().collect();
        assert_eq!(vals, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn insert_merge_aggregates() {
        let mut t = PrefixTree::<i64>::pt4_64();
        for (k, v) in [(5u64, 10i64), (5, 32), (9, 1), (5, 100)] {
            t.insert_merge(k, v, |acc, v| *acc += v);
        }
        assert_eq!(t.get_first(5), Some(142));
        assert_eq!(t.get_first(9), Some(1));
        assert_eq!(t.len(), 2);
        assert_eq!(t.total_values(), 2);
    }

    #[test]
    fn boundary_keys_32bit() {
        let mut t = PrefixTree::<u32>::pt4_32();
        t.insert(0, 1);
        t.insert(u32::MAX as u64, 2);
        t.insert(1, 3);
        assert_eq!(t.get_first(0), Some(1));
        assert_eq!(t.get_first(u32::MAX as u64), Some(2));
        assert_eq!(t.get_first(1), Some(3));
    }

    #[test]
    fn boundary_keys_64bit() {
        let mut t = PrefixTree::<u32>::pt4_64();
        t.insert(0, 1);
        t.insert(u64::MAX, 2);
        assert_eq!(t.get_first(u64::MAX), Some(2));
        assert_eq!(t.get_first(0), Some(1));
    }

    #[test]
    #[should_panic(expected = "exceeds 32-bit domain")]
    fn out_of_domain_key_panics() {
        let mut t = PrefixTree::<u32>::pt4_32();
        t.insert(1 << 32, 0);
    }

    #[test]
    fn kprime_variants_agree() {
        for k in [1u8, 2, 4, 8, 16] {
            let mut t = PrefixTree::<u32>::new(TrieConfig::new(32, k).unwrap());
            for i in 0..500u64 {
                t.insert(i * 2_654_435_761 % (1 << 32), i as u32);
            }
            for i in 0..500u64 {
                assert_eq!(
                    t.get_first(i * 2_654_435_761 % (1 << 32)),
                    Some(i as u32),
                    "k'={k}"
                );
            }
        }
    }

    #[test]
    fn value_segments_concatenate_to_all_values() {
        let mut t = PrefixTree::<u32>::pt4_32();
        for i in 0..1000 {
            t.insert(3, i);
        }
        t.insert(4, 9);
        let mut got = Vec::new();
        t.for_each_value_segment(3, |seg| got.extend_from_slice(seg));
        assert_eq!(got, (0..1000).collect::<Vec<_>>());
        let mut single = Vec::new();
        t.for_each_value_segment(4, |seg| single.extend_from_slice(seg));
        assert_eq!(single, vec![9]);
        t.for_each_value_segment(5, |_| panic!("absent key yields nothing"));
    }

    #[test]
    fn get_first_returns_first_inserted() {
        let mut t = PrefixTree::<u32>::pt4_32();
        t.insert(7, 99);
        t.insert(7, 1);
        assert_eq!(t.get_first(7), Some(99));
    }
}
