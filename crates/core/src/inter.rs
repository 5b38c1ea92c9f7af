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
//! An [`AggTable`] is the sink of a join-group operator: the index maps a
//! (possibly composite) group key to accumulator slots, and inserting an
//! existing key merges instead of appending — "the grouping happens
//! automatically as a side effect" (§3). Its ordered walk is a
//! [`GroupRun`]; participants' runs, and shards' runs on the router, fold
//! with the one ordered merge, [`GroupRun::merge`].

use qppt_storage::{IndexedTable, TreeIndex};

use crate::layout::Layout;
use crate::QpptError;

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

    /// Inserts one tuple, its fields in layout order.
    #[inline]
    pub fn insert(&mut self, key: u64, row: impl IntoIterator<Item = u64>) {
        self.data.insert_row(key, row);
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

    /// Index structure name (for statistics).
    pub fn index_kind(&self) -> &'static str {
        self.index.kind_name()
    }

    /// The table's groups as an ascending run, in one ordered walk — the
    /// result "is already sorted" because it is physically a prefix tree
    /// (§3).
    pub fn into_run(self) -> GroupRun {
        let mut run = GroupRun::with_capacity(self.naggs, self.groups);
        self.index.for_each(|key, slot| {
            let base = slot as usize * self.naggs;
            run.push(key, (), &self.accs[base..base + self.naggs]);
        });
        run
    }
}

/// A finished aggregation: groups in strictly ascending packed-key order,
/// each with `naggs` accumulators and a payload `P` — nothing on a worker,
/// the decoded group values in a [`PartialAggregate`](crate::PartialAggregate).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupRun<P = ()> {
    naggs: usize,
    keys: Vec<u64>,
    payloads: Vec<P>,
    accs: Vec<i64>,
}

impl<P> GroupRun<P> {
    /// An empty run with room for `groups` groups of `naggs` accumulators.
    pub fn with_capacity(naggs: usize, groups: usize) -> Self {
        let naggs = naggs.max(1);
        Self {
            naggs,
            keys: Vec::with_capacity(groups),
            payloads: Vec::with_capacity(groups),
            accs: Vec::with_capacity(groups * naggs),
        }
    }

    /// Appends a group whose key is above every key held so far.
    pub fn push(&mut self, key: u64, payload: P, accs: &[i64]) {
        debug_assert!(self.keys.last().is_none_or(|&k| k < key), "runs ascend");
        debug_assert_eq!(accs.len(), self.naggs);
        self.keys.push(key);
        self.payloads.push(payload);
        self.accs.extend_from_slice(accs);
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` if the run holds no group.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Accumulators per group.
    pub fn agg_width(&self) -> usize {
        self.naggs
    }

    /// The packed keys, ascending.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// Iterates `(key, payload, accumulators)` in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &P, &[i64])> {
        self.keys
            .iter()
            .zip(&self.payloads)
            .zip(self.accs.chunks_exact(self.naggs))
            .map(|((&key, payload), accs)| (key, payload, accs))
    }

    /// Consumes the run into `(key, payload, accumulators)` in ascending
    /// key order.
    pub fn into_groups(self) -> impl Iterator<Item = (u64, P, Vec<i64>)> {
        let (naggs, accs) = (self.naggs, self.accs);
        self.keys
            .into_iter()
            .zip(self.payloads)
            .enumerate()
            .map(move |(i, (key, payload))| (key, payload, accs[i * naggs..][..naggs].to_vec()))
    }

    /// Bytes of the groups held, counted by group, not by capacity, so a
    /// run reports the same footprint however it was assembled.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.len() * (size_of::<u64>() + size_of::<P>() + self.naggs * size_of::<i64>())
    }
}

impl<P: Clone> GroupRun<P> {
    /// **The** ordered merge, one pass over the runs' heads: a key held by
    /// several runs sums their accumulators and takes its payload from the
    /// lowest-index one, so the output depends on the runs' order, never on
    /// which worker or shard finished first. Allocates the output and one
    /// cursor per run. `None` for no runs; `Err` if the runs disagree on
    /// the accumulator count.
    pub fn merge(runs: &[&Self]) -> Result<Option<Self>, QpptError> {
        let Some(first) = runs.first() else {
            return Ok(None);
        };
        let naggs = first.naggs;
        if let Some(r) = runs.iter().find(|r| r.naggs != naggs) {
            return Err(QpptError::Internal(format!(
                "group runs disagree on accumulators: {} vs {naggs}",
                r.naggs
            )));
        }
        let mut out = Self::with_capacity(naggs, runs.iter().map(|r| r.len()).sum());
        let mut at = vec![0usize; runs.len()];
        let head = |at: &[usize]| {
            runs.iter()
                .zip(at)
                .filter_map(|(r, &i)| r.keys.get(i))
                .min()
                .copied()
        };
        while let Some(key) = head(&at) {
            for (r, i) in runs.iter().zip(at.iter_mut()) {
                if r.keys.get(*i) != Some(&key) {
                    continue;
                }
                let accs = &r.accs[*i * naggs..(*i + 1) * naggs];
                if out.keys.last() == Some(&key) {
                    let last = out.accs.len() - naggs;
                    for (acc, d) in out.accs[last..].iter_mut().zip(accs) {
                        *acc += d;
                    }
                } else {
                    out.push(key, r.payloads[*i].clone(), accs);
                }
                *i += 1;
            }
        }
        Ok(Some(out))
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
        t.insert(19930101, [100, 1993]);
        t.insert(19930101, [200, 1993]);
        t.insert(19940101, [300, 1994]);
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
        let got: Vec<_> = a
            .into_run()
            .iter()
            .map(|(k, (), accs)| (k, accs.to_vec()))
            .collect();
        assert_eq!(got, vec![(3, vec![7, 1]), (5, vec![42, 2])]);
    }

    #[test]
    fn agg_table_scalar_key_zero() {
        // Scalar aggregates use the constant key 0.
        let mut a = AggTable::new(TreeIndex::new_kiss(), 1);
        for v in [5i64, 10, -3] {
            a.merge(0, &[v]);
        }
        let sums: Vec<i64> = a.into_run().iter().map(|(_, (), accs)| accs[0]).collect();
        assert_eq!(sums, vec![12]);
    }

    #[test]
    fn agg_table_partitions_merge_as_runs() {
        // Three "partitions" with overlapping group keys must merge into
        // exactly the run a sequential table would have produced.
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
        let runs: Vec<GroupRun> = parts.into_iter().map(AggTable::into_run).collect();
        let merged = GroupRun::merge(&runs.iter().collect::<Vec<_>>())
            .unwrap()
            .unwrap();
        assert_eq!(merged.agg_width(), 2);
        assert_eq!(merged, seq.into_run());
        assert_eq!(merged.memory_bytes(), merged.len() * (8 + 2 * 8));
    }

    #[test]
    fn agg_table_negative_accumulators() {
        let mut a = AggTable::new(TreeIndex::new_kiss(), 1);
        a.merge(1, &[-100]);
        a.merge(1, &[30]);
        let got: Vec<_> = a
            .into_run()
            .iter()
            .map(|(k, (), accs)| (k, accs[0]))
            .collect();
        assert_eq!(got, vec![(1, -70)]);
    }
}
