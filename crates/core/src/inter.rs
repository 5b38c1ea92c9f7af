//! Intermediate indexed tables and aggregating output indexes.
//!
//! "Instead of passing plain tuples, columns, or vectors between individual
//! operators, our indexed table-at-a-time processing model exchanges
//! clustered indexes" (§1). An [`InterTable`] is one of those clustered
//! indexes: a [`TreeIndex`] keyed on whatever the *next* operator requested
//! (the cooperative-operator contract) plus a fixed-width payload buffer
//! described by a [`Layout`]. Intermediate tables are query-private: no
//! MVCC, no latching (§3).
//!
//! An [`AggTable`] is the output of a join-group operator: the index maps a
//! (possibly composite) group key to accumulator slots, and inserting an
//! existing key merges instead of appending — "the grouping happens
//! automatically as a side effect" (§3).

use qppt_storage::{IndexedTable, TreeIndex};

use crate::layout::Layout;

/// An intermediate indexed table (see module docs).
#[derive(Debug)]
pub struct InterTable {
    /// What the rows are keyed on, for plan explanation.
    pub key_name: String,
    /// Payload layout.
    pub layout: Layout,
    /// Index + payload storage.
    pub data: IndexedTable,
}

impl InterTable {
    /// Creates an empty intermediate table keyed on `key_name`.
    pub fn new(key_name: &str, layout: Layout, index: TreeIndex) -> Self {
        let width = layout.width();
        Self {
            key_name: key_name.to_string(),
            layout,
            data: IndexedTable::new(index, width),
        }
    }

    /// Inserts one tuple.
    #[inline]
    pub fn insert(&mut self, key: u64, row: &[u64]) {
        self.data.insert_row(key, row.iter().copied());
    }

    /// Number of stored tuples.
    pub fn tuple_count(&self) -> usize {
        self.data.tuple_count()
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.data.index.len()
    }

    /// Resident memory estimate in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.data.memory_bytes()
    }
}

/// Aggregating output index: group key → accumulators.
#[derive(Debug)]
pub struct AggTable {
    index: TreeIndex,
    accs: Vec<i64>,
    naggs: usize,
    groups: usize,
}

impl AggTable {
    /// Creates an aggregation table with `naggs` accumulators per group.
    pub fn new(index: TreeIndex, naggs: usize) -> Self {
        Self {
            index,
            accs: Vec::new(),
            naggs: naggs.max(1),
            groups: 0,
        }
    }

    /// Adds `deltas` to the group `key`, creating the group on first touch.
    /// This is the §3 upsert: "If the insertion of such a composed key
    /// detects that the key is already present in the index, it only applies
    /// the aggregation function on the existing value and the new one."
    ///
    /// One index descent either way: the upsert hands back the group's
    /// accumulator slot, which is the next free one exactly when the group
    /// is new — so slots are assigned in first-touch order.
    #[inline]
    pub fn merge(&mut self, key: u64, deltas: &[i64]) {
        debug_assert_eq!(deltas.len(), self.naggs);
        let next = self.groups as u32;
        let slot = self.index.get_or_insert(key, next);
        if slot == next {
            self.accs.extend_from_slice(deltas);
            self.groups += 1;
        } else {
            let base = slot as usize * self.naggs;
            for (acc, d) in self.accs[base..base + self.naggs].iter_mut().zip(deltas) {
                *acc += d;
            }
        }
    }

    /// Number of groups.
    pub fn group_count(&self) -> usize {
        self.groups
    }

    /// Accumulators per group.
    pub fn agg_width(&self) -> usize {
        self.naggs
    }

    /// Folds another aggregation table into this one — the parallel
    /// executor's partition merge. Group keys present in both tables have
    /// their accumulators added; keys only in `other` are created. Because
    /// the accumulators are sums, the merged table is independent of the
    /// merge order, and ordered iteration afterwards is byte-identical to a
    /// sequential execution over the union of the partitions.
    pub fn merge_from(&mut self, other: &AggTable) {
        debug_assert_eq!(self.naggs, other.naggs);
        other.for_each_ordered(|key, accs| self.merge(key, accs));
    }

    /// Iterates `(key, accumulators)` in ascending key order — the result
    /// "is already sorted" because it is physically a prefix tree (§3).
    pub fn for_each_ordered(&self, mut f: impl FnMut(u64, &[i64])) {
        self.index.for_each(|key, slot| {
            let base = slot as usize * self.naggs;
            f(key, &self.accs[base..base + self.naggs]);
        });
    }

    /// Resident memory estimate in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.index.memory_bytes() + self.accs.capacity() * 8
    }

    /// Index structure name (for statistics).
    pub fn index_kind(&self) -> &'static str {
        self.index.kind_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Src;
    use qppt_storage::KeyWidth;

    #[test]
    fn inter_table_roundtrip() {
        let mut layout = Layout::new();
        layout.add(Src::Fact, "lo_revenue");
        layout.add(Src::Dim(0), "d_year");
        let mut t = InterTable::new("lo_orderdate", layout, TreeIndex::new_kiss());
        t.insert(19930101, &[100, 1993]);
        t.insert(19930101, &[200, 1993]);
        t.insert(19940101, &[300, 1994]);
        assert_eq!(t.tuple_count(), 3);
        assert_eq!(t.key_count(), 2);
        let mut rows = Vec::new();
        t.data.rows_for_key(19930101, |r| rows.push(r.to_vec()));
        assert_eq!(rows, vec![vec![100, 1993], vec![200, 1993]]);
        assert!(t.memory_bytes() > 0);
    }

    #[test]
    fn agg_table_merges_and_orders() {
        let mut a = AggTable::new(TreeIndex::new_pt(KeyWidth::W64), 2);
        a.merge(5, &[10, 1]);
        a.merge(3, &[7, 1]);
        a.merge(5, &[32, 1]);
        assert_eq!(a.group_count(), 2);
        let mut got = Vec::new();
        a.for_each_ordered(|k, accs| got.push((k, accs.to_vec())));
        assert_eq!(got, vec![(3, vec![7, 1]), (5, vec![42, 2])]);
    }

    #[test]
    fn agg_table_scalar_key_zero() {
        // Scalar aggregates use the constant key 0.
        let mut a = AggTable::new(TreeIndex::new_kiss(), 1);
        for v in [5i64, 10, -3] {
            a.merge(0, &[v]);
        }
        assert_eq!(a.group_count(), 1);
        let mut sums = Vec::new();
        a.for_each_ordered(|_, accs| sums.push(accs[0]));
        assert_eq!(sums, vec![12]);
    }

    #[test]
    fn agg_table_merge_from_partitions() {
        // Three "partitions" with overlapping group keys must merge into
        // exactly the table a sequential run would have built.
        let mut seq = AggTable::new(TreeIndex::new_kiss(), 2);
        let mut parts: Vec<AggTable> = (0..3)
            .map(|_| AggTable::new(TreeIndex::new_kiss(), 2))
            .collect();
        for (i, (key, a, b)) in [
            (5u64, 10i64, 1i64),
            (3, 7, 1),
            (5, 32, 1),
            (9, -4, 2),
            (3, 1, 1),
            (5, 0, 1),
        ]
        .into_iter()
        .enumerate()
        {
            seq.merge(key, &[a, b]);
            parts[i % 3].merge(key, &[a, b]);
        }
        let mut merged = parts.remove(0);
        for p in &parts {
            merged.merge_from(p);
        }
        assert_eq!(merged.group_count(), seq.group_count());
        assert_eq!(merged.agg_width(), 2);
        let collect = |t: &AggTable| {
            let mut v = Vec::new();
            t.for_each_ordered(|k, accs| v.push((k, accs.to_vec())));
            v
        };
        assert_eq!(collect(&merged), collect(&seq));
    }

    #[test]
    fn agg_table_negative_accumulators() {
        let mut a = AggTable::new(TreeIndex::new_kiss(), 1);
        a.merge(1, &[-100]);
        a.merge(1, &[30]);
        let mut got = Vec::new();
        a.for_each_ordered(|k, accs| got.push((k, accs[0])));
        assert_eq!(got, vec![(1, -70)]);
    }
}
