//! The catalog: tables, their base indexes, and write paths that keep the
//! two consistent.
//!
//! "These indexes are either already present or are created once and remain
//! in the data pool for future queries" (§3) — [`Database`] is that data
//! pool. Base indexes are looked up by `(table, key columns)`; the planner
//! asks for the index matching an operator's selection or join attribute.

use std::collections::HashMap;

use crate::build::{BuildTasks, SerialTasks};
use crate::index::{key_packer, resolve_columns, BaseIndex};
use crate::mvcc::{MvccTable, Snapshot, TxnManager};
use crate::table::Table;
use crate::types::{StorageError, Value};

/// Declarative description of a base index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    pub table: String,
    /// Key column names, most significant first: one for the ordinary base
    /// index, several for a multidimensional index (§4.1).
    pub keys: Vec<String>,
    /// Carried columns (partially clustered payload); empty = secondary.
    pub carried: Vec<String>,
}

impl IndexDef {
    /// A one-column index.
    pub fn new(table: &str, key: &str, carried: &[&str]) -> Self {
        Self::on(table, &[key], carried)
    }

    /// An index over the concatenation of `keys`.
    pub fn on(table: &str, keys: &[&str], carried: &[&str]) -> Self {
        Self {
            table: table.to_string(),
            keys: keys.iter().map(|s| s.to_string()).collect(),
            carried: carried.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// The key as messages show it: the column names joined by `+`.
    pub fn key_name(&self) -> String {
        self.keys.join("+")
    }
}

/// An in-memory database: versioned tables plus base indexes.
#[derive(Debug)]
pub struct Database {
    tables: Vec<MvccTable>,
    /// Monotonic per-table versions, parallel to `tables`: bumped by every
    /// MVCC write (insert/delete) and every index build/rebuild touching
    /// the table. A snapshot fingerprint over the version vector of a
    /// query's tables is therefore O(#tables) to compute, and unchanged
    /// versions guarantee bit-identical scan output — the coherence
    /// contract of `qppt-cache`.
    versions: Vec<u64>,
    /// Process-unique identity of this `Database` instance (see
    /// [`instance_id`](Self::instance_id)).
    instance_id: u64,
    by_name: HashMap<String, usize>,
    indexes: Vec<BaseIndex>,
    /// (table idx, key col idxs) → index position, for planner lookups.
    index_lookup: HashMap<(usize, Vec<usize>), usize>,
    txn: TxnManager,
    /// Whether newly created indexes prefer the KISS-Tree for 32-bit key
    /// domains (true, per §2.2) or always use prefix trees.
    pub prefer_kiss: bool,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        static NEXT_INSTANCE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        Self {
            tables: Vec::new(),
            versions: Vec::new(),
            instance_id: NEXT_INSTANCE.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            by_name: HashMap::new(),
            indexes: Vec::new(),
            index_lookup: HashMap::new(),
            txn: TxnManager::new(),
            prefer_kiss: true,
        }
    }

    /// Bulk-loads a table (visible from the next commit timestamp).
    pub fn add_table(&mut self, table: Table) -> usize {
        let ts = self.txn.next_commit_ts();
        let idx = self.tables.len();
        self.by_name.insert(table.name().to_string(), idx);
        self.tables.push(MvccTable::from_bulk_load(table, ts));
        self.versions.push(1);
        idx
    }

    /// A process-unique id assigned at construction. Mutating a database
    /// in place (inserts, deletes, index builds) keeps its id; building a
    /// *different* database never reuses one. Cache fingerprints fold this
    /// in so entries can never cross databases, even when their per-table
    /// version vectors coincide (e.g. two freshly loaded instances).
    pub fn instance_id(&self) -> u64 {
        self.instance_id
    }

    /// The monotonic version of a table (see the `versions` field): starts
    /// at 1 on load, bumped by every MVCC write and index build/rebuild.
    pub fn table_version(&self, name: &str) -> Result<u64, StorageError> {
        Ok(self.versions[self.table_idx(name)?])
    }

    /// [`table_version`](Self::table_version) by catalog position.
    pub fn table_version_at(&self, idx: usize) -> u64 {
        self.versions[idx]
    }

    #[inline]
    fn bump_version(&mut self, idx: usize) {
        self.versions[idx] += 1;
    }

    /// Catalog position of a table.
    pub fn table_idx(&self, name: &str) -> Result<usize, StorageError> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| StorageError::UnknownTable(name.to_string()))
    }

    /// A table by name.
    pub fn table(&self, name: &str) -> Result<&MvccTable, StorageError> {
        Ok(&self.tables[self.table_idx(name)?])
    }

    /// A table by catalog position.
    pub fn table_at(&self, idx: usize) -> &MvccTable {
        &self.tables[idx]
    }

    /// Table names in catalog order.
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        self.tables.iter().map(|t| t.table().name())
    }

    /// Creates a base index: a no-op if an index on the same key columns
    /// (in the same order) already carries at least the requested columns,
    /// a widening to the union of carried columns if it carries fewer.
    pub fn create_index(&mut self, def: &IndexDef) -> Result<usize, StorageError> {
        self.create_index_with(def, &SerialTasks)
    }

    /// Like [`create_index`](Self::create_index), with the build's tasks
    /// run by `tasks` — the hook for parallel index builds; every hook
    /// builds the same index bit for bit (see [`BaseIndex::build`]).
    ///
    /// An index that carries fewer columns than requested comes to carry
    /// the union: its own columns, then the new ones. If no row has been
    /// appended since it was built, and `prefer_kiss` still picks its tree,
    /// it keeps the tree and only gathers its payload anew
    /// ([`BaseIndex::widen`]) — which is what a rebuild would make. Otherwise
    /// it is rebuilt with the union.
    pub fn create_index_with(
        &mut self,
        def: &IndexDef,
        tasks: &dyn BuildTasks,
    ) -> Result<usize, StorageError> {
        assert!(!def.keys.is_empty(), "an index needs a key column");
        let t_idx = self.table_idx(&def.table)?;
        let schema = self.tables[t_idx].table().schema();
        let key_cols = resolve_columns(schema, &def.keys)?;
        let mut carried = resolve_columns(schema, &def.carried)?;
        let lookup_key = (t_idx, key_cols);
        let existing = self.index_lookup.get(&lookup_key).copied();
        if let Some(pos) = existing {
            let have = &mut self.indexes[pos];
            if carried.iter().all(|c| have.carries(*c)) {
                return Ok(pos);
            }
            if have.widen(&self.tables[t_idx], &carried, self.prefer_kiss, tasks) {
                self.bump_version(t_idx);
                return Ok(pos);
            }
            // Rebuild with the union of carried columns.
            let mut union = have.carried.clone();
            for c in carried {
                if !union.contains(&c) {
                    union.push(c);
                }
            }
            carried = union;
        }
        let built = BaseIndex::build(
            t_idx,
            &self.tables[t_idx],
            lookup_key.1.clone(),
            carried,
            self.prefer_kiss,
            tasks,
        )?;
        let pos = existing.unwrap_or(self.indexes.len());
        if existing.is_some() {
            self.indexes[pos] = built;
        } else {
            self.indexes.push(built);
            self.index_lookup.insert(lookup_key, pos);
        }
        self.bump_version(t_idx);
        Ok(pos)
    }

    /// The base index on `table.key_col`, if one exists.
    pub fn find_index(&self, table: &str, key_col: &str) -> Result<&BaseIndex, StorageError> {
        self.find_index_on(table, &[key_col])
    }

    /// The base index keyed on exactly these columns in this order, if one
    /// exists.
    pub fn find_index_on(
        &self,
        table: &str,
        keys: &[impl AsRef<str>],
    ) -> Result<&BaseIndex, StorageError> {
        let t_idx = self.table_idx(table)?;
        let schema = self.tables[t_idx].table().schema();
        let key_cols = resolve_columns(schema, keys)?;
        self.index_lookup
            .get(&(t_idx, key_cols))
            .map(|&i| &self.indexes[i])
            .ok_or_else(|| StorageError::UnknownIndex {
                table: table.to_string(),
                key: keys.iter().map(AsRef::as_ref).collect::<Vec<_>>().join("+"),
            })
    }

    /// All base indexes.
    pub fn indexes(&self) -> &[BaseIndex] {
        &self.indexes
    }

    /// A snapshot seeing everything committed so far.
    pub fn snapshot(&self) -> Snapshot {
        self.txn.snapshot()
    }

    /// Inserts a row transactionally: appends the version and maintains
    /// every index on the table. Returns `(rid, commit timestamp)`.
    ///
    /// An index whose frozen key widths the row outgrows is rebuilt, as
    /// when [`create_index`](Self::create_index) widens a carried set. Only
    /// if even the re-derived widths cannot pack into 64 bits is the row
    /// rejected ([`StorageError::KeyTooWide`]) — before anything changes.
    pub fn insert_row(
        &mut self,
        table: &str,
        values: &[Value],
    ) -> Result<(u32, u64), StorageError> {
        let t_idx = self.table_idx(table)?;
        let row = self.tables[t_idx].table().encode_row(values)?;
        for index in self.indexes.iter().filter(|i| i.table_idx == t_idx) {
            if index.key_of_row(&row).is_none() {
                key_packer(self.tables[t_idx].table(), &index.key_cols, Some(&row))?;
            }
        }
        let ts = self.txn.next_commit_ts();
        let rid = self.tables[t_idx].insert_encoded(ts, &row);
        let table = &self.tables[t_idx];
        for index in self.indexes.iter_mut().filter(|i| i.table_idx == t_idx) {
            if !index.on_insert(rid, &row) {
                *index = BaseIndex::build(
                    t_idx,
                    table,
                    index.key_cols.clone(),
                    index.carried.clone(),
                    self.prefer_kiss,
                    &SerialTasks,
                )
                .expect("the grown key was checked to pack before the append");
            }
        }
        self.bump_version(t_idx);
        Ok((rid, ts))
    }

    /// Deletes a row version transactionally (indexes keep the rid; scans
    /// filter it via snapshot visibility).
    pub fn delete_row(&mut self, table: &str, rid: u32) -> Result<u64, StorageError> {
        let t_idx = self.table_idx(table)?;
        let ts = self.txn.next_commit_ts();
        self.tables[t_idx].delete(ts, rid);
        self.bump_version(t_idx);
        Ok(ts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use crate::types::{ColumnType, Schema};

    fn db_with_table() -> Database {
        let mut b = TableBuilder::new(
            "part",
            Schema::of(&[
                ("partkey", ColumnType::Int),
                ("brand", ColumnType::Str),
                ("size", ColumnType::Int),
            ]),
        );
        for (pk, brand, size) in [(1, "B#1", 10), (2, "B#2", 20), (3, "B#1", 30)] {
            b.push_row(vec![Value::Int(pk), Value::str(brand), Value::Int(size)])
                .unwrap();
        }
        let mut db = Database::new();
        db.add_table(b.finish());
        db
    }

    #[test]
    fn create_and_find_index() {
        let mut db = db_with_table();
        db.create_index(&IndexDef::new("part", "brand", &["partkey"]))
            .unwrap();
        let idx = db.find_index("part", "brand").unwrap();
        assert_eq!(idx.data.tuple_count(), 3);
        assert!(db.find_index("part", "size").is_err());
        assert!(db.find_index("nope", "brand").is_err());
    }

    #[test]
    fn index_lookup_finds_rows_by_key() {
        let mut db = db_with_table();
        db.create_index(&IndexDef::new("part", "brand", &["partkey"]))
            .unwrap();
        let idx = db.find_index("part", "brand").unwrap();
        let table = db.table("part").unwrap();
        let code = table
            .table()
            .encode_value(1, &Value::str("B#1"))
            .unwrap()
            .unwrap();
        let mut partkeys = Vec::new();
        idx.data.rows_for_key(code, |row| partkeys.push(row.get(1)));
        assert_eq!(partkeys, vec![1, 3]);
    }

    #[test]
    fn duplicate_create_index_is_idempotent() {
        let mut db = db_with_table();
        let a = db
            .create_index(&IndexDef::new("part", "brand", &["partkey"]))
            .unwrap();
        let b = db
            .create_index(&IndexDef::new("part", "brand", &["partkey"]))
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(db.indexes().len(), 1);
    }

    #[test]
    fn create_index_widens_carried_set() {
        let mut db = db_with_table();
        let a = db
            .create_index(&IndexDef::new("part", "brand", &["partkey"]))
            .unwrap();
        let b = db
            .create_index(&IndexDef::new("part", "brand", &["size"]))
            .unwrap();
        assert_eq!(a, b);
        let idx = db.find_index("part", "brand").unwrap();
        assert_eq!(idx.carried.len(), 2);
    }

    #[test]
    fn insert_maintains_indexes_and_visibility() {
        let mut db = db_with_table();
        db.create_index(&IndexDef::new("part", "brand", &["partkey"]))
            .unwrap();
        let before = db.snapshot();
        let (rid, _ts) = db
            .insert_row("part", &[Value::Int(4), Value::str("B#2"), Value::Int(40)])
            .unwrap();
        let after = db.snapshot();

        let table = db.table("part").unwrap();
        assert!(!table.visible(rid, before));
        assert!(table.visible(rid, after));

        // The index already contains the new rid; visibility filters it.
        let code = table
            .table()
            .encode_value(1, &Value::str("B#2"))
            .unwrap()
            .unwrap();
        let idx = db.find_index("part", "brand").unwrap();
        let mut rids = Vec::new();
        idx.data
            .rows_for_key(code, |row| rids.push(row.get(0) as u32));
        assert!(rids.contains(&rid));
        let visible_now: Vec<u32> = rids
            .iter()
            .copied()
            .filter(|&r| table.visible(r, after))
            .collect();
        let visible_before: Vec<u32> = rids
            .iter()
            .copied()
            .filter(|&r| table.visible(r, before))
            .collect();
        assert!(visible_now.contains(&rid));
        assert!(!visible_before.contains(&rid));
    }

    #[test]
    fn delete_hides_row_from_new_snapshots() {
        let mut db = db_with_table();
        let before = db.snapshot();
        db.delete_row("part", 0).unwrap();
        let after = db.snapshot();
        let t = db.table("part").unwrap();
        assert!(t.visible(0, before));
        assert!(!t.visible(0, after));
    }

    #[test]
    fn multi_column_index_roundtrip() {
        let mut db = db_with_table();
        db.create_index(&IndexDef::on("part", &["brand", "size"], &["partkey"]))
            .unwrap();
        let ci = db.find_index_on("part", &["brand", "size"]).unwrap();
        assert_eq!(ci.data.tuple_count(), 3);
        // Point range over (brand = "B#1", size ∈ [10, 30]).
        let t = db.table("part").unwrap().table();
        let b1 = t.encode_value(1, &Value::str("B#1")).unwrap().unwrap();
        let (lo, hi) = ci.packer().pack_range(&[(b1, b1), (10, 30)]).unwrap();
        let mut partkeys = Vec::new();
        ci.data.index.range_each(lo, hi, |_, pid| {
            partkeys.push(ci.data.payload.row(pid).get(1));
        });
        partkeys.sort_unstable();
        assert_eq!(partkeys, vec![1, 3]);
        // Key order of the packed key equals lexicographic (brand, size).
        let mut keys = Vec::new();
        ci.data.index.for_each(|k, _| keys.push(k));
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn multi_column_index_is_idempotent_and_widens() {
        let mut db = db_with_table();
        let def = IndexDef::on("part", &["brand", "size"], &["partkey"]);
        let a = db.create_index(&def).unwrap();
        let b = db.create_index(&def).unwrap();
        assert_eq!(a, b);
        let c = db
            .create_index(&IndexDef::on("part", &["brand", "size"], &["size"]))
            .unwrap();
        assert_eq!(a, c);
        let ci = db.find_index_on("part", &["brand", "size"]).unwrap();
        assert!(ci.payload_pos_by_name("partkey").is_some());
        assert!(ci.payload_pos_by_name("size").is_some());
        // Different key order = a different index; so is a key prefix.
        assert!(db.find_index_on("part", &["size", "brand"]).is_err());
        assert!(db.find_index("part", "brand").is_err());
    }

    /// Every (key, rid) pair of an index, in index order.
    fn entries(idx: &BaseIndex) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        idx.data
            .for_each_row(|key, payload| out.push((key, payload.get(0))));
        out
    }

    #[test]
    fn insert_that_outgrows_a_key_part_rebuilds_the_index() {
        let mut db = db_with_table();
        db.create_index(&IndexDef::on("part", &["brand", "size"], &["partkey"]))
            .unwrap();
        db.create_index(&IndexDef::new("part", "size", &[]))
            .unwrap();
        // In-domain insert: maintained in place, filed under its own key.
        db.insert_row("part", &[Value::Int(9), Value::str("B#1"), Value::Int(15)])
            .unwrap();
        let ci = db.find_index_on("part", &["brand", "size"]).unwrap();
        assert_eq!(ci.data.tuple_count(), 4);
        let pack = |idx: &BaseIndex, parts: &[u64]| idx.packer().pack(parts.iter().copied());
        assert!(entries(ci).contains(&(pack(ci, &[0, 15]).unwrap(), 3)));
        // `size` was 5 bits wide (max 30); 40 needs 6. The trailing part has
        // no slack, so the two-column index is rebuilt — never aliased onto
        // 40 & 31 = 8 — while the one-column index just takes the key.
        assert!(pack(ci, &[1, 40]).is_err());
        db.insert_row("part", &[Value::Int(10), Value::str("B#2"), Value::Int(40)])
            .unwrap();
        let ci = db.find_index_on("part", &["brand", "size"]).unwrap();
        assert_eq!(ci.data.tuple_count(), 5);
        assert!(entries(ci).contains(&(pack(ci, &[1, 40]).unwrap(), 4)));
        assert!(entries(ci).windows(2).all(|w| w[0] <= w[1]), "reclustered");
        assert!(entries(db.find_index("part", "size").unwrap()).contains(&(40, 4)));
        // A key beyond the KISS-Tree's 32 bits moves the one-column index to
        // a 64-bit prefix tree instead of truncating the key.
        let big = (1i64 << 32) + 8;
        assert!(db.find_index("part", "size").unwrap().data.index.is_kiss());
        db.insert_row(
            "part",
            &[Value::Int(11), Value::str("B#1"), Value::Int(big)],
        )
        .unwrap();
        let idx = db.find_index("part", "size").unwrap();
        assert_eq!(idx.data.index.kind_name(), "PrefixTree<64>");
        assert!(entries(idx).contains(&(big as u64, 5)));
        assert!(!idx.data.index.contains(8));
    }

    #[test]
    fn insert_no_index_can_hold_is_rejected_before_anything_changes() {
        let mut db = db_with_table();
        db.create_index(&IndexDef::on("part", &["size", "partkey"], &[]))
            .unwrap();
        let v = db.table_version("part").unwrap();
        let wide = i64::MAX; // 63 bits + 63 bits > 64
        let err = db
            .insert_row(
                "part",
                &[Value::Int(wide), Value::str("B#1"), Value::Int(wide)],
            )
            .unwrap_err();
        assert!(
            matches!(err, StorageError::KeyTooWide { bits: 126, .. }),
            "{err}"
        );
        assert_eq!(db.table("part").unwrap().version_count(), 3);
        assert_eq!(db.table_version("part").unwrap(), v);
        // ... and so is creating such an index in the first place.
        let mut db = db_with_table();
        db.insert_row(
            "part",
            &[Value::Int(wide), Value::str("B#1"), Value::Int(wide)],
        )
        .unwrap();
        let v = db.table_version("part").unwrap();
        assert!(matches!(
            db.create_index(&IndexDef::on("part", &["size", "partkey"], &[])),
            Err(StorageError::KeyTooWide { .. })
        ));
        assert!(db.indexes().is_empty());
        assert_eq!(db.table_version("part").unwrap(), v);
    }

    #[test]
    fn table_versions_bump_on_writes_and_index_builds() {
        let mut db = db_with_table();
        let v0 = db.table_version("part").unwrap();
        assert_eq!(v0, 1);

        // A fresh index build bumps; the idempotent re-create does not.
        db.create_index(&IndexDef::new("part", "brand", &["partkey"]))
            .unwrap();
        let v1 = db.table_version("part").unwrap();
        assert!(v1 > v0);
        db.create_index(&IndexDef::new("part", "brand", &["partkey"]))
            .unwrap();
        assert_eq!(db.table_version("part").unwrap(), v1);
        // Widening the carried set rebuilds → bumps.
        db.create_index(&IndexDef::new("part", "brand", &["size"]))
            .unwrap();
        let v2 = db.table_version("part").unwrap();
        assert!(v2 > v1);

        // MVCC writes bump.
        db.insert_row("part", &[Value::Int(7), Value::str("B#1"), Value::Int(70)])
            .unwrap();
        let v3 = db.table_version("part").unwrap();
        assert!(v3 > v2);
        db.delete_row("part", 0).unwrap();
        let v4 = db.table_version("part").unwrap();
        assert!(v4 > v3);

        // Multi-column index builds bump too; versions are per table.
        db.create_index(&IndexDef::on("part", &["brand", "size"], &["partkey"]))
            .unwrap();
        assert!(db.table_version("part").unwrap() > v4);
        assert_eq!(db.table_version_at(0), db.table_version("part").unwrap());
        assert!(db.table_version("nope").is_err());
    }

    #[test]
    fn unknown_table_errors() {
        let mut db = Database::new();
        assert!(db.table("x").is_err());
        assert!(db.insert_row("x", &[]).is_err());
        assert!(db.create_index(&IndexDef::new("x", "y", &[])).is_err());
    }
}
