//! Multi-version concurrency control for base tables.
//!
//! DexterDB "uses MVCC for transactional isolation" (§5, after Bayer et
//! al.). The QPPT model only requires versioning at the *base* level: base
//! indexes index every row version and scans filter by snapshot visibility,
//! while intermediate indexes are query-private and never versioned (§3).
//!
//! The implementation is a classic begin/end-timestamp scheme: every row
//! version carries `[begin, end)` commit timestamps; a snapshot taken at
//! timestamp `ts` sees exactly the versions with `begin <= ts < end`.
//! Updates create a new version and terminate the old one; deletes only
//! terminate. Rows (versions) are never physically removed, so rids stay
//! stable — which is what lets base indexes simply accumulate rids.

use crate::table::Table;
use crate::types::{StorageError, Value};

/// Commit timestamp. `0` is reserved ("never"), `u64::MAX` means "still
/// live".
pub type Ts = u64;

const LIVE: Ts = u64::MAX;

/// A read snapshot: sees versions committed at or before `ts`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot {
    pub ts: Ts,
}

impl Snapshot {
    /// A snapshot that sees everything ever committed (used by bulk-load
    /// benchmarks where no concurrent writers exist).
    pub fn latest() -> Self {
        Snapshot { ts: LIVE - 1 }
    }
}

#[derive(Debug, Clone, Copy)]
struct VersionMeta {
    begin: Ts,
    end: Ts,
}

/// Hands out monotonically increasing commit/read timestamps.
#[derive(Debug, Default)]
pub struct TxnManager {
    next: std::sync::atomic::AtomicU64,
}

impl TxnManager {
    /// Creates a manager whose first commit timestamp is 1.
    pub fn new() -> Self {
        Self {
            next: std::sync::atomic::AtomicU64::new(1),
        }
    }

    /// Allocates the next commit timestamp.
    pub fn next_commit_ts(&self) -> Ts {
        self.next.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    /// A snapshot that sees everything committed so far.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            ts: self
                .next
                .load(std::sync::atomic::Ordering::Relaxed)
                .saturating_sub(1),
        }
    }
}

/// A [`Table`] plus per-row version metadata.
#[derive(Debug, Clone)]
pub struct MvccTable {
    table: Table,
    versions: Vec<VersionMeta>,
    /// Largest `begin` timestamp of any version.
    max_begin: Ts,
    /// `true` once any version has been terminated (deleted/updated).
    any_dead: bool,
}

impl MvccTable {
    /// Wraps a bulk-loaded table: every existing row becomes visible from
    /// timestamp `load_ts` on.
    pub fn from_bulk_load(table: Table, load_ts: Ts) -> Self {
        let versions = vec![
            VersionMeta {
                begin: load_ts,
                end: LIVE,
            };
            table.row_count()
        ];
        Self {
            table,
            versions,
            max_begin: load_ts,
            any_dead: false,
        }
    }

    /// `true` if **every** version is visible at `snap` — scans may then
    /// skip per-row visibility checks entirely. This is the common case for
    /// bulk-loaded OLAP data with no concurrent writers.
    #[inline]
    pub fn fully_visible(&self, snap: Snapshot) -> bool {
        !self.any_dead && snap.ts >= self.max_begin
    }

    /// The underlying row storage (all versions).
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// Total number of row versions (live + dead).
    pub fn version_count(&self) -> usize {
        self.versions.len()
    }

    /// `true` iff `rid` is visible at `snap`.
    #[inline]
    pub fn visible(&self, rid: u32, snap: Snapshot) -> bool {
        let v = &self.versions[rid as usize];
        // `&`, not `&&`: both bounds are read anyway, so a scan's
        // visibility pass compares without a branch.
        (v.begin <= snap.ts) & (snap.ts < v.end)
    }

    /// Inserts a new row committed at `ts`; returns its rid.
    pub fn insert(&mut self, ts: Ts, values: &[Value]) -> Result<u32, StorageError> {
        let row = self.table.encode_row(values)?;
        Ok(self.insert_encoded(ts, &row))
    }

    /// [`insert`](Self::insert) of a row [`Table::encode_row`] has already
    /// encoded.
    pub(crate) fn insert_encoded(&mut self, ts: Ts, row: &[u64]) -> u32 {
        let rid = self.table.push_encoded(row);
        self.versions.push(VersionMeta {
            begin: ts,
            end: LIVE,
        });
        self.max_begin = self.max_begin.max(ts);
        rid
    }

    /// Deletes (terminates) a visible row version at `ts`.
    pub fn delete(&mut self, ts: Ts, rid: u32) {
        let v = &mut self.versions[rid as usize];
        debug_assert!(v.end == LIVE, "deleting an already-dead version");
        v.end = ts;
        self.any_dead = true;
    }

    /// Updates a row: terminates the old version and inserts the new one at
    /// `ts`. Returns the rid of the new version.
    pub fn update(&mut self, ts: Ts, rid: u32, values: &[Value]) -> Result<u32, StorageError> {
        let new_rid = self.insert(ts, values)?;
        self.delete(ts, rid);
        Ok(new_rid)
    }

    /// Iterates the rids visible at `snap` in rid order.
    pub fn scan_visible(&self, snap: Snapshot) -> impl Iterator<Item = u32> + '_ {
        (0..self.versions.len() as u32).filter(move |&rid| self.visible(rid, snap))
    }

    /// Number of rows visible at `snap`.
    pub fn live_count(&self, snap: Snapshot) -> usize {
        self.scan_visible(snap).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use crate::types::{ColumnType, Schema};

    fn fresh() -> MvccTable {
        let mut b = TableBuilder::new(
            "t",
            Schema::of(&[("k", ColumnType::Int), ("v", ColumnType::Int)]),
        );
        for i in 0..5i64 {
            b.push_row(vec![Value::Int(i), Value::Int(i * 10)]).unwrap();
        }
        MvccTable::from_bulk_load(b.finish(), 1)
    }

    #[test]
    fn bulk_load_visible_from_load_ts() {
        let t = fresh();
        assert_eq!(t.live_count(Snapshot { ts: 0 }), 0); // before load
        assert_eq!(t.live_count(Snapshot { ts: 1 }), 5);
        assert_eq!(t.live_count(Snapshot::latest()), 5);
    }

    #[test]
    fn insert_becomes_visible_at_its_ts() {
        let mut t = fresh();
        let rid = t.insert(5, &[Value::Int(99), Value::Int(990)]).unwrap();
        assert!(!t.visible(rid, Snapshot { ts: 4 }));
        assert!(t.visible(rid, Snapshot { ts: 5 }));
        assert_eq!(t.live_count(Snapshot { ts: 5 }), 6);
        assert_eq!(t.live_count(Snapshot { ts: 4 }), 5);
    }

    #[test]
    fn delete_hides_from_later_snapshots_only() {
        let mut t = fresh();
        t.delete(7, 2);
        assert!(t.visible(2, Snapshot { ts: 6 })); // old snapshot still sees it
        assert!(!t.visible(2, Snapshot { ts: 7 }));
        assert_eq!(t.live_count(Snapshot { ts: 7 }), 4);
    }

    #[test]
    fn update_is_delete_plus_insert() {
        let mut t = fresh();
        let new_rid = t.update(9, 0, &[Value::Int(0), Value::Int(1234)]).unwrap();
        // Old snapshot: sees the old version, not the new.
        let old_snap = Snapshot { ts: 8 };
        assert!(t.visible(0, old_snap));
        assert!(!t.visible(new_rid, old_snap));
        // New snapshot: the reverse.
        let new_snap = Snapshot { ts: 9 };
        assert!(!t.visible(0, new_snap));
        assert!(t.visible(new_rid, new_snap));
        assert_eq!(t.table().get(new_rid, 1), 1234);
        // Row count stays constant across both snapshots.
        assert_eq!(t.live_count(old_snap), 5);
        assert_eq!(t.live_count(new_snap), 5);
    }

    #[test]
    fn scan_visible_in_rid_order() {
        let mut t = fresh();
        t.delete(3, 1);
        let rids: Vec<u32> = t.scan_visible(Snapshot { ts: 3 }).collect();
        assert_eq!(rids, vec![0, 2, 3, 4]);
    }

    #[test]
    fn fully_visible_fast_path() {
        let mut t = fresh();
        assert!(t.fully_visible(Snapshot { ts: 1 }));
        assert!(!t.fully_visible(Snapshot { ts: 0 }));
        // An insert at ts 5 makes snapshots < 5 partial.
        t.insert(5, &[Value::Int(9), Value::Int(90)]).unwrap();
        assert!(!t.fully_visible(Snapshot { ts: 4 }));
        assert!(t.fully_visible(Snapshot { ts: 5 }));
        // Any delete disables the fast path for good.
        t.delete(6, 0);
        assert!(!t.fully_visible(Snapshot { ts: 7 }));
    }

    #[test]
    fn txn_manager_timestamps_are_monotonic() {
        let m = TxnManager::new();
        let a = m.next_commit_ts();
        let b = m.next_commit_ts();
        assert!(b > a);
        assert_eq!(m.snapshot().ts, b);
    }
}
