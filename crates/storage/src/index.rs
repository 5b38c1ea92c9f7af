//! Unified tree-index handles, indexed tables, and base indexes.
//!
//! "QPPT decides at query compile time which index structure should be used
//! for storing the intermediate result" (§2.2): the KISS-Tree for keys that
//! fit 32 bits (join attributes, mostly) and the generalized prefix tree
//! otherwise (notably 64-bit composite group-by keys). [`TreeIndex`] is that
//! compile-time choice reified as an enum, with a uniform multimap API and a
//! synchronous scan that dispatches to the structure-specific kernels.
//!
//! A dimension selection σ adds §2.1's extreme to the choice: it lives for
//! one query and usually holds unique keys of one compact range, and then
//! it is built as the one-level tree, a direct-addressed array
//! ([`DenseIndex`]), instead of a tree sized for the whole key domain
//! ([`TreeIndex::for_selection`]). A dense index is built whole and read
//! through the same interface; it takes no inserts.
//!
//! [`IndexedTable`] couples a [`TreeIndex`] with a fixed-width payload
//! buffer ([`PayloadBuf`]) — the representation of both *base indexes* and
//! *intermediate indexed tables* (§3): the index maps a key to payload-row
//! ids; a payload row is `[rid, carried columns...]` for base indexes and
//! `[carried columns...]` for intermediates.

use qppt_kiss::{kiss_sync_scan_range, KissConfig, KissTree};
use qppt_mem::{key_bits, KeyPacker, Values};
use qppt_trie::{sync_scan_range, PrefixTree, TrieConfig};

use crate::build::{
    carries_u32, clustered, gather, key_order, sorted_items, BuildTasks, SerialTasks,
};
use crate::dense::DenseIndex;
use crate::mvcc::MvccTable;
use crate::payload::{PayloadBuf, Row};
use crate::table::{ColumnStats, Table};
use crate::types::StorageError;

/// Key width of an index (which structure can hold it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KeyWidth {
    /// Keys fit in 32 bits → KISS-Tree eligible.
    W32,
    /// Keys need up to 64 bits → prefix tree only.
    W64,
}

/// The compile-time index choice of §2.2, as a runtime handle.
#[derive(Debug)]
pub enum TreeIndex {
    /// KISS-Tree (32-bit keys).
    Kiss(KissTree<u32>),
    /// Generalized prefix tree, `k′ = 4` (32- or 64-bit keys).
    Pt(PrefixTree<u32>),
    /// The one-level tree over a compact range of unique keys, built whole
    /// ([`for_selection`](Self::for_selection)).
    Dense(DenseIndex),
}

impl TreeIndex {
    /// A KISS-Tree index (paper geometry, uncompressed second level).
    pub fn new_kiss() -> Self {
        TreeIndex::Kiss(KissTree::new(KissConfig::paper()))
    }

    /// A prefix-tree index of the given key width.
    pub fn new_pt(width: KeyWidth) -> Self {
        let cfg = match width {
            KeyWidth::W32 => TrieConfig::pt4_32(),
            KeyWidth::W64 => TrieConfig::pt4_64(),
        };
        TreeIndex::Pt(PrefixTree::new(cfg))
    }

    /// The §2.2 compile-time choice for an index that grows by inserts:
    /// KISS for 32-bit domains (if `prefer_kiss`), prefix tree otherwise. A
    /// KISS root covers the whole 32-bit domain, which suits a long-lived
    /// base index and a stage's output, whose keys are not known up front.
    pub fn for_domain(max_key: u64, prefer_kiss: bool) -> Self {
        if max_key <= u32::MAX as u64 {
            if prefer_kiss {
                Self::new_kiss()
            } else {
                Self::new_pt(KeyWidth::W32)
            }
        } else {
            Self::new_pt(KeyWidth::W64)
        }
    }

    /// The index of a table built whole in key order, such as a dimension
    /// selection σ: `keys` ascending, the `i`-th key holding the value `i`
    /// (its payload row). Unique keys whose span fits
    /// ([`DenseIndex::fits`]: at most `64 × n + 1 024`) become §2.1's
    /// one-level tree, [`Dense`](Self::Dense), with no knob — one load per
    /// probe, at a size bounded by what the KISS-Tree costs in its worst
    /// case; an empty selection is an empty dense index. Any other key set goes into the §2.2 tree of
    /// [`for_domain`](Self::for_domain), whose arguments this passes on.
    pub fn for_selection(keys: &[u64], max_key: u64, prefer_kiss: bool) -> Self {
        let unique = keys.windows(2).all(|w| w[0] < w[1]);
        debug_assert!(keys.windows(2).all(|w| w[0] <= w[1]), "keys ascending");
        let dense = match (keys.first(), keys.last()) {
            (Some(&lo), Some(&hi)) => unique && DenseIndex::fits(keys.len(), lo, hi),
            _ => true,
        };
        if dense {
            let values: Vec<u32> = (0..keys.len() as u32).collect();
            return TreeIndex::Dense(DenseIndex::new(keys, &values));
        }
        let mut index = Self::for_domain(max_key, prefer_kiss);
        for (i, &k) in keys.iter().enumerate() {
            index.insert(k, i as u32);
        }
        index
    }

    /// `true` for the KISS variant.
    pub fn is_kiss(&self) -> bool {
        matches!(self, TreeIndex::Kiss(_))
    }

    /// Inserts a `(key, payload-row id)` pair (multimap). A dense index is
    /// built whole and panics.
    #[inline]
    pub fn insert(&mut self, key: u64, value: u32) {
        match self {
            TreeIndex::Kiss(t) => t.insert(key_as_u32(key), value),
            TreeIndex::Pt(t) => t.insert(key, value),
            TreeIndex::Dense(_) => panic!("{BUILT_WHOLE}"),
        }
    }

    /// Largest key the structure can hold — its configuration's domain, so
    /// a KISS-Tree with a small root holds fewer keys than 32 bits do.
    /// Together with [`clamp`](Self::clamp) this is the one place the key
    /// domain of the two structures is derived; every probe and cursor
    /// below goes through it, so callers may pass any `u64`. The handle
    /// lookup ([`get_handles`](Self::get_handles)) is the exception: every
    /// structure answers a key beyond its domain absent itself. A dense
    /// index takes any `u64` and answers a key outside its span absent.
    #[inline]
    fn key_max(&self) -> u64 {
        match self {
            TreeIndex::Kiss(t) => t.config().key_limit().map_or(u32::MAX, |l| l - 1) as u64,
            TreeIndex::Pt(t) => t.config().key_limit().map_or(u64::MAX, |l| l - 1),
            TreeIndex::Dense(_) => u64::MAX,
        }
    }

    /// `[lo, hi]` intersected with the key domain; `None` when empty.
    #[inline]
    fn clamp(&self, lo: u64, hi: u64) -> Option<(u64, u64)> {
        let max = self.key_max();
        (lo <= hi && lo <= max).then(|| (lo, hi.min(max)))
    }

    /// The values stored under `key`, if any.
    #[inline]
    pub fn get(&self, key: u64) -> Option<Values<'_, u32>> {
        if key > self.key_max() {
            return None;
        }
        match self {
            TreeIndex::Kiss(t) => t.get(key as u32),
            TreeIndex::Pt(t) => t.get(key),
            TreeIndex::Dense(d) => d.get(key),
        }
    }

    /// Invokes `f` for every value stored under `key`.
    #[inline]
    pub fn get_each(&self, key: u64, mut f: impl FnMut(u32)) {
        if let Some(vs) = self.get(key) {
            vs.for_each(|v| f(*v));
        }
    }

    /// `true` if `key` is present.
    pub fn contains(&self, key: u64) -> bool {
        key <= self.key_max()
            && match self {
                TreeIndex::Kiss(t) => t.contains_key(key as u32),
                TreeIndex::Pt(t) => t.contains_key(key),
                TreeIndex::Dense(d) => d.handle(key) != 0,
            }
    }

    /// Batched multimap lookup: `f(job_index, value)` for every value of
    /// every present key.
    pub fn batch_get_each(&self, keys: &[u64], mut f: impl FnMut(usize, u32)) {
        self.batch_get_with(keys, &mut ProbeScratch::default(), |i, vs| {
            vs.for_each(|v| f(i, *v))
        });
    }

    /// Batched multimap lookup over caller-owned scratch: `f(job_index,
    /// values)` for every present key, in job order. A probe loop that
    /// keeps one [`ProbeScratch`] allocates nothing once it has grown to
    /// the largest batch.
    pub fn batch_get_with<'a>(
        &'a self,
        keys: &[u64],
        scratch: &mut ProbeScratch,
        mut f: impl FnMut(usize, Values<'a, u32>),
    ) {
        // Out-of-domain keys can never be present: probe them as the
        // domain's last key and drop the answer.
        let max = self.key_max();
        match self {
            TreeIndex::Kiss(t) => {
                let narrowed = &mut scratch.keys32;
                narrowed.clear();
                narrowed.extend(keys.iter().map(|&k| k.min(max) as u32));
                t.batch_get_with(narrowed, &mut scratch.kiss, |i, vs| {
                    if keys[i] <= max {
                        f(i, vs);
                    }
                });
            }
            TreeIndex::Pt(t) => {
                let narrowed = &mut scratch.keys64;
                narrowed.clear();
                narrowed.extend(keys.iter().map(|&k| k.min(max)));
                t.batch_get_with(narrowed, &mut scratch.pt, |i, vs| {
                    if keys[i] <= max {
                        f(i, vs);
                    }
                });
            }
            // One load per key: nothing to prefetch.
            TreeIndex::Dense(d) => {
                for (i, &k) in keys.iter().enumerate() {
                    if let Some(vs) = d.get(k) {
                        f(i, vs);
                    }
                }
            }
        }
    }

    /// Batched lookup into content handles: `handles` (cleared first) gets
    /// one per key, in order — `0` for an absent key, else a value for
    /// [`handle_values`](Self::handle_values). A dense index answers each
    /// key with one load, a KISS-Tree with two dependent loads, neither
    /// with a branch on the data; a prefix tree descends per key. Without prefetch rounds this is the faster batch
    /// on a cache-resident index; [`batch_get_with`](Self::batch_get_with)
    /// is the one for an index larger than the caches.
    pub fn get_handles(&self, keys: &[u64], handles: &mut Vec<u32>) {
        match self {
            TreeIndex::Kiss(t) => t.get_handles(keys, handles),
            TreeIndex::Pt(t) => {
                handles.clear();
                handles.extend(keys.iter().map(|&k| t.handle(k)));
            }
            TreeIndex::Dense(d) => {
                handles.clear();
                handles.extend(keys.iter().map(|&k| d.handle(k)));
            }
        }
    }

    /// The values under a non-zero handle of [`get_handles`](Self::get_handles).
    #[inline]
    pub fn handle_values(&self, handle: u32) -> Values<'_, u32> {
        match self {
            TreeIndex::Kiss(t) => t.handle_values(handle),
            TreeIndex::Pt(t) => t.handle_values(handle),
            TreeIndex::Dense(d) => d.handle_values(handle),
        }
    }

    /// The value stored under `key`, storing `value` first if the key is
    /// absent — one descent (the trees' aggregating upsert). For indexes
    /// that keep one value per key, such as the group → accumulator-slot
    /// index of a join-group. A dense index is built whole and panics.
    #[inline]
    pub fn get_or_insert(&mut self, key: u64, value: u32) -> u32 {
        let mut stored = value;
        match self {
            TreeIndex::Kiss(t) => t.insert_merge(key_as_u32(key), value, |old, _| stored = *old),
            TreeIndex::Pt(t) => t.insert_merge(key, value, |old, _| stored = *old),
            TreeIndex::Dense(_) => panic!("{BUILT_WHOLE}"),
        }
        stored
    }

    /// Ordered scan of the keys in `[lo, hi]` (encoded keys):
    /// `f(key, value)` for every pair — the index's one cursor shape (a
    /// full scan is the range over the whole domain, a morsel passes its
    /// prefix range).
    pub fn range_each(&self, lo: u64, hi: u64, mut f: impl FnMut(u64, u32)) {
        let Some((lo, hi)) = self.clamp(lo, hi) else {
            return;
        };
        match self {
            TreeIndex::Kiss(t) => t
                .range(lo as u32, hi as u32)
                .for_each(|(k, vs)| vs.for_each(|v| f(k as u64, *v))),
            TreeIndex::Pt(t) => t
                .range(lo, hi)
                .for_each(|(k, vs)| vs.for_each(|v| f(k, *v))),
            TreeIndex::Dense(d) => d.for_each_key_range(lo, hi, |k, vs| vs.for_each(|v| f(k, *v))),
        }
    }

    /// Ordered full scan: `f(key, value)` for every pair.
    pub fn for_each(&self, f: impl FnMut(u64, u32)) {
        self.range_each(0, u64::MAX, f);
    }

    /// Ordered per-key scan of the keys in `[lo, hi]`: `f(key, values)` —
    /// [`range_each`](Self::range_each) with each key's values grouped.
    pub fn for_each_key_range<'a>(
        &'a self,
        lo: u64,
        hi: u64,
        mut f: impl FnMut(u64, Values<'a, u32>),
    ) {
        let Some((lo, hi)) = self.clamp(lo, hi) else {
            return;
        };
        match self {
            TreeIndex::Kiss(t) => t
                .range(lo as u32, hi as u32)
                .for_each(|(k, vs)| f(k as u64, vs)),
            TreeIndex::Pt(t) => t.range(lo, hi).for_each(|(k, vs)| f(k, vs)),
            TreeIndex::Dense(d) => d.for_each_key_range(lo, hi, f),
        }
    }

    /// Smallest stored key, if any.
    pub fn min_key(&self) -> Option<u64> {
        match self {
            TreeIndex::Kiss(t) => t.min_key().map(u64::from),
            TreeIndex::Pt(t) => t.min_key(),
            TreeIndex::Dense(d) => d.min_key(),
        }
    }

    /// Largest stored key, if any.
    pub fn max_key(&self) -> Option<u64> {
        match self {
            TreeIndex::Kiss(t) => t.max_key().map(u64::from),
            TreeIndex::Pt(t) => t.max_key(),
            TreeIndex::Dense(d) => d.max_key(),
        }
    }

    /// Number of distinct keys.
    pub fn len(&self) -> usize {
        match self {
            TreeIndex::Kiss(t) => t.len(),
            TreeIndex::Pt(t) => t.len(),
            TreeIndex::Dense(d) => d.len(),
        }
    }

    /// `true` if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total stored values.
    pub fn total_values(&self) -> usize {
        match self {
            TreeIndex::Kiss(t) => t.total_values(),
            TreeIndex::Pt(t) => t.total_values(),
            TreeIndex::Dense(d) => d.len(),
        }
    }

    /// Resident memory estimate in bytes.
    pub fn memory_bytes(&self) -> usize {
        match self {
            TreeIndex::Kiss(t) => t.stats().resident_bytes(),
            TreeIndex::Pt(t) => t.memory_bytes(),
            TreeIndex::Dense(d) => d.memory_bytes(),
        }
    }

    /// Structure name for plan/statistics display.
    pub fn kind_name(&self) -> &'static str {
        match self {
            TreeIndex::Kiss(_) => "KISS-Tree",
            TreeIndex::Pt(t) => {
                if t.config().key_bits() == 32 {
                    "PrefixTree<32>"
                } else {
                    "PrefixTree<64>"
                }
            }
            TreeIndex::Dense(_) => "Dense",
        }
    }
}

/// Why a dense index takes no insert.
const BUILT_WHOLE: &str = "a dense index is built whole (TreeIndex::for_selection)";

/// Caller-owned scratch of [`TreeIndex::batch_get_with`]: the keys
/// narrowed to the structure's width and the structure's own per-job
/// descent state.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    keys32: Vec<u32>,
    keys64: Vec<u64>,
    kiss: qppt_kiss::BatchScratch,
    pt: qppt_trie::BatchScratch,
}

#[inline]
fn key_as_u32(key: u64) -> u32 {
    debug_assert!(
        key <= u32::MAX as u64,
        "planner chose KISS for a >32-bit key"
    );
    key as u32
}

/// The synchronous index scan over two [`TreeIndex`]es (§4.2), restricted
/// to keys in `[lo, hi]` — the one cursor of the executor: each morsel
/// co-walks only the subtrees whose key interval intersects its range, and
/// a sequential scan is the one morsel covering the whole domain.
///
/// Matching structures use the structural skip-scan kernels
/// ([`qppt_trie::sync_scan_range`], [`qppt_kiss::kiss_sync_scan_range`]);
/// mismatched structures fall back to an ordered range-iterate-and-probe
/// over the keys both sides can hold, which yields the same key sequence.
/// That is the path of a dense σ, the main input of a synchronous scan:
/// the left side is walked over the σ's span only, and each of its keys
/// probes the σ with one load.
pub fn sync_scan_indexes_range<'l, 'r>(
    left: &'l TreeIndex,
    right: &'r TreeIndex,
    lo: u64,
    hi: u64,
    mut f: impl FnMut(u64, Values<'l, u32>, Values<'r, u32>),
) {
    let Some((lo, hi)) = left.clamp(lo, hi) else {
        return;
    };
    match (left, right) {
        (TreeIndex::Kiss(l), TreeIndex::Kiss(r)) => {
            kiss_sync_scan_range(l, r, lo as u32, hi as u32, |k, lv, rv| f(k as u64, lv, rv));
        }
        (TreeIndex::Pt(l), TreeIndex::Pt(r)) if l.config() == r.config() => {
            sync_scan_range(l, r, lo, hi, f);
        }
        _ => {
            // Mixed geometry: ordered iterate the left side within the
            // right side's key bounds, point-probe the right side. Key
            // order (and thus output) is identical.
            let (Some(rmin), Some(rmax)) = (right.min_key(), right.max_key()) else {
                return;
            };
            let (lo, hi) = (lo.max(rmin), hi.min(rmax));
            if lo > hi {
                return;
            }
            left.for_each_key_range(lo, hi, |k, lvals| {
                if let Some(rvals) = right.get(k) {
                    f(k, lvals, rvals);
                }
            });
        }
    }
}

/// An index plus its payload rows — the common shape of base indexes and
/// intermediate indexed tables.
#[derive(Debug)]
pub struct IndexedTable {
    pub index: TreeIndex,
    pub payload: PayloadBuf,
}

impl IndexedTable {
    /// Creates an indexed table.
    pub fn new(index: TreeIndex, payload_width: usize) -> Self {
        Self {
            index,
            payload: PayloadBuf::new(payload_width),
        }
    }

    /// Inserts a `(key, payload row)` pair, the row given field by field.
    #[inline]
    pub fn insert_row(&mut self, key: u64, row: impl IntoIterator<Item = u64>) {
        let id = self.payload.push(row);
        self.index.insert(key, id);
    }

    /// Invokes `f` with the payload row of every tuple under `key`.
    pub fn rows_for_key(&self, key: u64, mut f: impl FnMut(Row<'_>)) {
        self.index.get_each(key, |id| f(self.payload.row(id)));
    }

    /// Ordered scan over all `(key, payload row)` pairs.
    pub fn for_each_row(&self, mut f: impl FnMut(u64, Row<'_>)) {
        self.index.for_each(|k, id| f(k, self.payload.row(id)));
    }

    /// Number of stored tuples.
    pub fn tuple_count(&self) -> usize {
        self.payload.len()
    }

    /// Resident memory estimate.
    pub fn memory_bytes(&self) -> usize {
        self.index.memory_bytes() + self.payload.memory_bytes()
    }
}

/// A base index (§3) keyed on one or more table columns: either a pure
/// *secondary* index (payload = rid only) or a *partially clustered* index
/// that additionally stores carried column values so operators never touch
/// the row store during processing.
///
/// The key is the bit-packed concatenation of the key columns, most
/// significant first. With several columns this is the multidimensional
/// index of §4.1 — "to process conjunctive combinations of predicates, the
/// selection operator prefers to operate on a multidimensional index as
/// input": equality predicates on the leading columns and at most a range
/// on the last constrained one become a single contiguous key-range scan
/// ([`KeyPacker::pack_range`]). The ordinary base index is the one-column
/// case, whose packed key is the column value itself.
#[derive(Debug)]
pub struct BaseIndex {
    /// Table this index belongs to (catalog position).
    pub table_idx: usize,
    /// Key column indexes, most significant first.
    pub key_cols: Vec<usize>,
    /// Carried column indexes (empty = secondary index).
    pub carried: Vec<usize>,
    /// Carried column names (parallel to `carried`).
    pub carried_names: Vec<String>,
    /// Payload layout: `[rid, carried...]`; keyed on the packed key.
    pub data: IndexedTable,
    /// The key format, one part per key column, frozen at build time.
    packer: KeyPacker,
    /// The table's row versions at build time: the clustered rows, ahead of
    /// any that [`on_insert`](Self::on_insert) appended.
    clustered_rows: usize,
}

impl BaseIndex {
    /// Builds a base index over every row version of `table`.
    /// Snapshot visibility is applied at scan time, not build time, so the
    /// index serves all snapshots (§3: base indexes care for isolation).
    /// Fails if the packed key would exceed 64 bits.
    ///
    /// Rows are inserted in **key order**, so the payload rows of one key
    /// are contiguous in memory — this is what makes the index *clustered*:
    /// reading all tuples of a key is a sequential scan, not one cache miss
    /// per tuple. Rows appended later by MVCC maintenance
    /// ([`on_insert`](Self::on_insert)) land at the unclustered tail, as in
    /// any clustered index with updates; the executor's fact-side readers
    /// prefetch them ahead of use ([`crate::Rows::for_each_row_of`]), so a
    /// read after writes does not pay a DRAM miss per appended row.
    ///
    /// The order is [`stable_key_order`]'s: by key, equal keys in rid
    /// order. The payload holds exactly the table's row versions, in 32-bit
    /// lanes iff every carried column's statistics fit them — what pushing
    /// the rows one by one into a [`PayloadBuf`] would end at.
    ///
    /// The build is a few linear passes of independent tasks (see the
    /// `build` module), run by `tasks`: [`SerialTasks`] runs them in order
    /// on the calling thread, `qppt-par` on its threads. Every hook builds
    /// the same index, bit for bit.
    pub fn build(
        table_idx: usize,
        table: &MvccTable,
        key_cols: Vec<usize>,
        carried: Vec<usize>,
        prefer_kiss: bool,
        tasks: &dyn BuildTasks,
    ) -> Result<Self, StorageError> {
        let t = table.table();
        let rows = table.version_count();
        let packer = key_packer(t, &key_cols, None)?;
        // The widths cover the table's statistics, so every row fits, and
        // the keys of the columns' minima and maxima bound every key.
        let key_of = |rid: u32| {
            let row = t.row(rid);
            packer.pack_fitting(key_cols.iter().map(|&c| row[c]))
        };
        let bound = |pick: fn(ColumnStats) -> u64| {
            packer.pack_fitting(key_cols.iter().map(|&c| pick(t.stats(c))))
        };
        let bounds = match rows {
            0 => (0, 0),
            _ => (bound(|s| s.min), bound(|s| s.max)),
        };
        let tree = TreeIndex::for_domain(packer.max_key(), prefer_kiss);
        let (index, payload) = if packer.max_key() <= u32::MAX as u64 {
            let items = sorted_items::<u64>(rows, key_of, bounds, tasks);
            clustered(t, &items, tree, &carried, tasks)
        } else {
            let items = sorted_items::<(u64, u32)>(rows, key_of, bounds, tasks);
            clustered(t, &items, tree, &carried, tasks)
        };
        Ok(Self {
            table_idx,
            key_cols,
            carried_names: column_names(t, &carried),
            carried,
            data: IndexedTable { index, payload },
            packer,
            clustered_rows: rows,
        })
    }

    /// Adds the columns of `more` this index does not carry yet, after the
    /// ones it does — the union a rebuild would carry — by gathering the
    /// payload anew in the order the tree already holds. `false`, with
    /// nothing changed, unless that *is* the rebuild: no row may have been
    /// appended since the build (the table's statistics, and so the key
    /// format, the order and the tree, are then the build's), and
    /// `prefer_kiss` must choose the tree this index has.
    pub fn widen(
        &mut self,
        table: &MvccTable,
        more: &[usize],
        prefer_kiss: bool,
        tasks: &dyn BuildTasks,
    ) -> bool {
        let fits32 = self.packer.max_key() <= u32::MAX as u64;
        if table.version_count() != self.clustered_rows
            || self.data.index.is_kiss() != (prefer_kiss && fits32)
        {
            return false;
        }
        for &c in more {
            if !self.carries(c) {
                self.carried.push(c);
            }
        }
        let t = table.table();
        let old = &self.data.payload;
        let rid = |i: usize| old.row(i as u32).get(0) as u32;
        let payload = if carries_u32(t, &self.carried) {
            gather::<u32>(t, self.clustered_rows, rid, &self.carried, None, tasks)
        } else {
            gather::<u64>(t, self.clustered_rows, rid, &self.carried, None, tasks)
        };
        self.data.payload = payload;
        self.carried_names = column_names(t, &self.carried);
        true
    }

    /// The key format: packs per-column codes (`pack`) or per-column
    /// predicate bounds (`pack_range`) into this index's keys.
    pub fn packer(&self) -> &KeyPacker {
        &self.packer
    }

    /// The packed key of an encoded table row, or `None` if a key part has
    /// outgrown the width frozen at build time.
    pub fn key_of_row(&self, row: &[u64]) -> Option<u64> {
        self.packer.pack(self.key_cols.iter().map(|&c| row[c])).ok()
    }

    /// Index maintenance hook: row version `rid` with the encoded fields
    /// `row` was appended. Returns `false`, having inserted nothing, when
    /// the row's key no longer fits ([`key_of_row`](Self::key_of_row)) — the
    /// index must then be rebuilt, which re-derives widths and structure.
    pub fn on_insert(&mut self, rid: u32, row: &[u64]) -> bool {
        let Some(key) = self.key_of_row(row) else {
            return false;
        };
        let fields = self.carried.iter().map(|&c| row[c]);
        self.data
            .insert_row(key, std::iter::once(rid as u64).chain(fields));
        true
    }

    /// `true` if this index carries the given column in its payload.
    pub fn carries(&self, col: usize) -> bool {
        self.carried.contains(&col)
    }

    /// Position of a carried column, by name (rid is position 0).
    pub fn payload_pos_by_name(&self, name: &str) -> Option<usize> {
        self.carried_names
            .iter()
            .position(|c| c == name)
            .map(|p| p + 1)
    }
}

/// The key format of an index over `key_cols`: one part per column, as wide
/// as the column's largest code — per the table statistics and, when an
/// insert is checked ahead of its append, the `incoming` encoded row. The
/// total selects the 32- or 64-bit tree ([`TreeIndex::for_domain`]); what
/// that leaves unused goes to the leading part, which moves no other part
/// (so no key changes) and lets the leading column — the only column of an
/// ordinary base index — grow up to the tree's width without a rebuild.
pub(crate) fn key_packer(
    table: &Table,
    key_cols: &[usize],
    incoming: Option<&[u64]>,
) -> Result<KeyPacker, StorageError> {
    let mut widths: Vec<u8> = key_cols
        .iter()
        .map(|&c| {
            let s = table.stats(c);
            let max = if s.min > s.max { 0 } else { s.max };
            key_bits(incoming.map_or(max, |row| max.max(row[c])))
        })
        .collect();
    let total: u32 = widths.iter().map(|&w| w as u32).sum();
    if total > 64 {
        return Err(StorageError::KeyTooWide {
            columns: key_cols
                .iter()
                .map(|&c| table.schema().column(c).name.clone())
                .collect(),
            bits: total,
        });
    }
    widths[0] += (if total <= 32 { 32 } else { 64 } - total) as u8;
    Ok(KeyPacker::new(&widths).expect("widths sum to the tree's key width"))
}

/// The rids `0..keys.len()` stably sorted by `keys[rid]` (ties keep rid
/// order) — the clustered insertion order of [`BaseIndex::build`], and the
/// contract its sort is tested against. Sorted by the build's own sort
/// ([`key_order`]) on the calling thread.
pub fn stable_key_order(keys: &[u64]) -> Vec<u32> {
    key_order(keys, &SerialTasks)
}

fn column_names(t: &Table, cols: &[usize]) -> Vec<String> {
    cols.iter()
        .map(|&c| t.schema().column(c).name.clone())
        .collect()
}

/// Column names → column positions, for catalog code.
pub(crate) fn resolve_columns(
    schema: &crate::types::Schema,
    names: &[impl AsRef<str>],
) -> Result<Vec<usize>, StorageError> {
    names.iter().map(|n| schema.col(n.as_ref())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The indirect stable sort every packed order must equal.
    fn indirect_order(keys: &[u64]) -> Vec<u32> {
        let mut order: Vec<u32> = (0..keys.len() as u32).collect();
        order.sort_by_key(|&rid| keys[rid as usize]);
        order
    }

    #[test]
    fn packed_sort_matches_indirect_sort() {
        let mut rng = qppt_mem::Xoshiro256StarStar::new(0x736f_7274);
        let max = u32::MAX as u64;
        let mut wide: Vec<u64> = (0..1_000).map(|_| rng.below(50)).collect();
        wide[417] = max + 1;
        let cases: Vec<Vec<u64>> = vec![
            Vec::new(),
            vec![7],
            // Heavy duplicates.
            (0..5_000).map(|_| rng.below(7)).collect(),
            // The 32-bit domain's ends.
            (0..2_000)
                .map(|_| [0, max][rng.below(2) as usize])
                .collect(),
            (0..3_000).map(|_| rng.below(max + 1)).collect(),
            // One key past 32 bits: `(key, rid)` pairs, not packed words.
            wide,
            (0..3_000).map(|_| rng.next_u64()).collect(),
            (0..100)
                .map(|_| [0, u64::MAX][rng.below(2) as usize])
                .collect(),
        ];
        for keys in &cases {
            assert_eq!(stable_key_order(keys), indirect_order(keys));
        }
    }

    #[test]
    fn for_domain_picks_structures() {
        assert!(TreeIndex::for_domain(100, true).is_kiss());
        assert!(!TreeIndex::for_domain(100, false).is_kiss());
        assert!(!TreeIndex::for_domain(1 << 40, true).is_kiss());
        assert_eq!(
            TreeIndex::for_domain(1 << 40, true).kind_name(),
            "PrefixTree<64>"
        );
    }

    #[test]
    fn multimap_roundtrip_all_variants() {
        for mut idx in [
            TreeIndex::new_kiss(),
            TreeIndex::new_pt(KeyWidth::W32),
            TreeIndex::new_pt(KeyWidth::W64),
        ] {
            idx.insert(10, 1);
            idx.insert(10, 2);
            idx.insert(20, 3);
            let mut vals = Vec::new();
            idx.get_each(10, |v| vals.push(v));
            assert_eq!(vals, vec![1, 2], "{}", idx.kind_name());
            assert_eq!(idx.len(), 2);
            assert_eq!(idx.total_values(), 3);
            assert!(idx.contains(20));
            assert!(!idx.contains(21));
        }
    }

    #[test]
    fn out_of_domain_probes_are_safe() {
        let mut idx = TreeIndex::new_kiss();
        idx.insert(5, 1);
        assert!(idx.contains(5));
        assert!(!idx.contains(1 << 40));
        let mut idx32 = TreeIndex::new_pt(KeyWidth::W32);
        idx32.insert(5, 1);
        assert!(idx32.contains(5));
        assert!(!idx32.contains(1 << 40));
    }

    /// A KISS-Tree with a small root holds `2^(l1_bits + 6)` keys: every
    /// probe misses above that, where its 32 bits would still reach.
    #[test]
    fn small_root_kiss_probes_miss_beyond_its_domain() {
        let mut idx = TreeIndex::Kiss(KissTree::new(KissConfig::small(false)));
        idx.insert(5, 1);
        idx.insert((1 << 16) - 1, 2);
        let beyond = [1u64 << 16, u32::MAX as u64, 1 << 40];
        for k in beyond {
            assert!(idx.get(k).is_none(), "{k}");
            assert!(!idx.contains(k), "{k}");
            idx.get_each(k, |v| panic!("{k} hit {v}"));
        }
        let mut keys = vec![5, (1 << 16) - 1];
        keys.extend(beyond);
        let mut hits = Vec::new();
        idx.batch_get_with(&keys, &mut ProbeScratch::default(), |i, vs| {
            hits.extend(vs.map(|&v| (i, v)))
        });
        assert_eq!(hits, vec![(0, 1), (1, 2)]);
        let present: Vec<bool> = keys.iter().map(|&k| idx.contains(k)).collect();
        assert_eq!(present, vec![true, true, false, false, false]);
        let mut handles = Vec::new();
        idx.get_handles(&keys, &mut handles);
        assert_eq!(&handles[2..], &[0, 0, 0]);
        let firsts: Vec<u32> = handles[..2]
            .iter()
            .map(|&h| *idx.handle_values(h).next().unwrap())
            .collect();
        assert_eq!(firsts, vec![1, 2]);
        let mut scanned = Vec::new();
        idx.range_each(0, u64::MAX, |k, v| scanned.push((k, v)));
        assert_eq!(scanned, vec![(5, 1), ((1 << 16) - 1, 2)]);
    }

    #[test]
    fn range_and_ordered_scan() {
        for mut idx in [TreeIndex::new_kiss(), TreeIndex::new_pt(KeyWidth::W32)] {
            for k in [5u64, 1, 9, 3, 7] {
                idx.insert(k, k as u32);
            }
            let mut all = Vec::new();
            idx.for_each(|k, _| all.push(k));
            assert_eq!(all, vec![1, 3, 5, 7, 9]);
            let mut ranged = Vec::new();
            idx.range_each(3, 7, |k, _| ranged.push(k));
            assert_eq!(ranged, vec![3, 5, 7]);
        }
    }

    #[test]
    fn sync_scan_matched_and_mixed() {
        let build = |mut idx: TreeIndex| {
            for k in [2u64, 4, 6, 8] {
                idx.insert(k, k as u32 * 10);
            }
            idx
        };
        let build_odd = |mut idx: TreeIndex| {
            for k in [1u64, 4, 8, 9] {
                idx.insert(k, k as u32);
            }
            idx
        };
        let cases = [
            (
                build(TreeIndex::new_kiss()),
                build_odd(TreeIndex::new_kiss()),
            ),
            (
                build(TreeIndex::new_pt(KeyWidth::W32)),
                build_odd(TreeIndex::new_pt(KeyWidth::W32)),
            ),
            (
                build(TreeIndex::new_kiss()),
                build_odd(TreeIndex::new_pt(KeyWidth::W32)),
            ),
            (
                build(TreeIndex::new_pt(KeyWidth::W64)),
                build_odd(TreeIndex::new_kiss()),
            ),
        ];
        for (l, r) in &cases {
            let mut hits = Vec::new();
            sync_scan_indexes_range(l, r, 0, u64::MAX, |k, lv, rv| {
                assert_eq!(lv.count(), 1);
                assert_eq!(rv.count(), 1);
                hits.push(k);
            });
            assert_eq!(hits, vec![4, 8], "{} × {}", l.kind_name(), r.kind_name());
        }
    }

    #[test]
    fn for_each_key_range_and_key_bounds() {
        for mut idx in [TreeIndex::new_kiss(), TreeIndex::new_pt(KeyWidth::W64)] {
            assert_eq!(idx.min_key(), None);
            assert_eq!(idx.max_key(), None);
            for k in [40u64, 10, 30, 20] {
                idx.insert(k, 1);
                idx.insert(k, 2);
            }
            assert_eq!(idx.min_key(), Some(10));
            assert_eq!(idx.max_key(), Some(40));
            let mut got = Vec::new();
            idx.for_each_key_range(15, 35, |k, vs| got.push((k, vs.count())));
            assert_eq!(got, vec![(20, 2), (30, 2)], "{}", idx.kind_name());
        }
    }

    #[test]
    fn batch_get_each_matches_scalar() {
        // One scratch across structures and batch sizes: a reused scratch
        // never leaks state from the previous call.
        let mut scratch = ProbeScratch::default();
        for mut idx in [
            TreeIndex::new_kiss(),
            TreeIndex::new_pt(KeyWidth::W32),
            TreeIndex::new_pt(KeyWidth::W64),
        ] {
            for k in 0..100u64 {
                idx.insert(k % 10, k as u32);
            }
            for keys in [&[0u64, 3, 42, 7, 1 << 40][..], &[9, 9][..], &[]] {
                let mut scalar: Vec<(usize, u32)> = Vec::new();
                for (i, &k) in keys.iter().enumerate() {
                    idx.get_each(k, |v| scalar.push((i, v)));
                }
                let mut batched: Vec<(usize, u32)> = Vec::new();
                idx.batch_get_each(keys, |i, v| batched.push((i, v)));
                let mut reused: Vec<(usize, u32)> = Vec::new();
                idx.batch_get_with(keys, &mut scratch, |i, vs| {
                    reused.extend(vs.map(|&v| (i, v)))
                });
                assert_eq!(batched, reused, "{}", idx.kind_name());
                batched.sort_unstable();
                scalar.sort_unstable();
                assert_eq!(batched, scalar, "{}", idx.kind_name());
            }
        }
    }

    #[test]
    fn get_or_insert_keeps_the_first_value() {
        for mut idx in [
            TreeIndex::new_kiss(),
            TreeIndex::new_pt(KeyWidth::W32),
            TreeIndex::new_pt(KeyWidth::W64),
        ] {
            assert_eq!(idx.get_or_insert(7, 0), 0);
            assert_eq!(idx.get_or_insert(3, 1), 1);
            assert_eq!(idx.get_or_insert(7, 2), 0);
            assert_eq!(idx.get_or_insert(3, 9), 1);
            assert_eq!((idx.len(), idx.total_values()), (2, 2));
        }
    }

    #[test]
    fn payload_buf_roundtrip() {
        let mut p = PayloadBuf::new(3);
        let a = p.push([1, 2, 3]);
        let b = p.push([4, 5, 6]);
        assert_eq!(p.row(a).to_vec(), [1, 2, 3]);
        assert_eq!(p.row(b).to_vec(), [4, 5, 6]);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn zero_width_payload() {
        let mut p = PayloadBuf::new(0);
        let a = p.push([]);
        let b = p.push([]);
        assert_eq!((a, b), (0, 1));
        assert!(p.row(1).is_empty());
        assert_eq!((p.len(), p.memory_bytes()), (2, 0));
    }

    #[test]
    fn indexed_table_rows() {
        let mut it = IndexedTable::new(TreeIndex::new_kiss(), 2);
        it.insert_row(7, [70, 700]);
        it.insert_row(7, [71, 710]);
        it.insert_row(9, [90, 900]);
        let mut rows = Vec::new();
        it.rows_for_key(7, |r| rows.push(r.to_vec()));
        assert_eq!(rows, vec![vec![70, 700], vec![71, 710]]);
        assert_eq!(it.tuple_count(), 3);
        let mut scan = Vec::new();
        it.for_each_row(|k, r| scan.push((k, r.get(0))));
        assert_eq!(scan, vec![(7, 70), (7, 71), (9, 90)]);
    }
}
