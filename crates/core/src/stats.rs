//! Per-operator execution statistics — the numbers the paper's demonstrator
//! overlays on the plan view (Appendix A): execution-time share per
//! operator, intermediate index sizes, and index types.

use std::fmt;

/// Statistics of one executed operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpStats {
    /// Operator description (e.g. `"3-way star join → idx on lo_orderdate"`).
    pub label: String,
    /// Distinct keys in the operator's output index.
    pub out_keys: usize,
    /// Tuples in the operator's output.
    pub out_tuples: usize,
    /// Output index structure (`KISS-Tree`, `PrefixTree<64>`, …).
    pub index_kind: String,
    /// Resident bytes of the output index + payload.
    pub memory_bytes: usize,
    /// Operator wall time in microseconds.
    pub micros: u128,
}

impl OpStats {
    /// Folds another partition's record of the **same operator** into this
    /// one (parallel execution: one record per worker/morsel). Output sizes
    /// and memory add up; `micros` becomes summed *CPU* time across workers
    /// rather than wall time. Deterministic given the same partition set,
    /// whatever order the partitions finished in.
    ///
    /// Caveat: summed `out_keys` counts a key once **per partition** it
    /// appears in. Partitions are disjoint in the stage-1 join key, but an
    /// operator keyed on a *different* attribute (later-stage intermediates,
    /// the final join-group) can see the same key in several partitions, so
    /// its summed `out_keys` is an upper bound on distinct keys. The final
    /// join-group's partition records carry time only: its sizes are
    /// written once, from the finished (merged) run, by
    /// [`record_join_group`](crate::exec::record_join_group).
    pub fn absorb_partition(&mut self, other: &OpStats) {
        debug_assert_eq!(self.label, other.label, "partition stats must align");
        self.out_keys += other.out_keys;
        self.out_tuples += other.out_tuples;
        self.memory_bytes += other.memory_bytes;
        self.micros += other.micros;
    }
}

/// Statistics of a whole query execution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecStats {
    pub ops: Vec<OpStats>,
    /// End-to-end wall time in microseconds (≥ sum of operator times; the
    /// difference is planning/decoding overhead).
    pub total_micros: u128,
}

impl ExecStats {
    /// Appends one operator's record.
    pub fn push(&mut self, op: OpStats) {
        self.ops.push(op);
    }

    /// Total time spent inside operators.
    pub fn operator_micros(&self) -> u128 {
        self.ops.iter().map(|o| o.micros).sum()
    }

    /// Folds one partition's operator records into this execution's, record
    /// by record (parallel execution). The two lists must describe the same
    /// operator sequence; a partition that reports more operators than seen
    /// so far (e.g. the first partition merged into an empty `ExecStats`)
    /// contributes its extra records verbatim.
    ///
    /// Merging partitions in worker-index order makes the merged statistics
    /// deterministic for a given partition set — no dependence on which
    /// worker finished first.
    pub fn merge_partition(&mut self, part: &ExecStats) {
        for (i, op) in part.ops.iter().enumerate() {
            match self.ops.get_mut(i) {
                Some(mine) => mine.absorb_partition(op),
                None => self.ops.push(op.clone()),
            }
        }
    }

    /// Share of operator time spent in the given operator (0..=1).
    pub fn share(&self, idx: usize) -> f64 {
        let total = self.operator_micros();
        if total == 0 {
            0.0
        } else {
            self.ops[idx].micros as f64 / total as f64
        }
    }
}

impl fmt::Display for ExecStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "total: {:.3} ms", self.total_micros as f64 / 1000.0)?;
        for (i, op) in self.ops.iter().enumerate() {
            writeln!(
                f,
                "  [{}] {:<55} {:>9.3} ms ({:>4.1}%)  keys={:<9} tuples={:<9} {} {:.1} KiB",
                i,
                op.label,
                op.micros as f64 / 1000.0,
                self.share(i) * 100.0,
                op.out_keys,
                op.out_tuples,
                op.index_kind,
                op.memory_bytes as f64 / 1024.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_one() {
        let mut s = ExecStats::default();
        for micros in [100u128, 300, 600] {
            s.push(OpStats {
                label: "op".into(),
                out_keys: 1,
                out_tuples: 1,
                index_kind: "KISS-Tree".into(),
                memory_bytes: 0,
                micros,
            });
        }
        let total: f64 = (0..3).map(|i| s.share(i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(s.operator_micros(), 1000);
    }

    #[test]
    fn partition_merge_aligns_and_sums() {
        let op = |label: &str, keys: usize, micros: u128| OpStats {
            label: label.into(),
            out_keys: keys,
            out_tuples: keys * 2,
            index_kind: "KISS-Tree".into(),
            memory_bytes: 64,
            micros,
        };
        let part = |a: usize, b: usize| ExecStats {
            ops: vec![op("σ(date)", a, 10), op("3-way star join-group", b, 20)],
            total_micros: 0,
        };
        let mut merged = ExecStats::default();
        merged.merge_partition(&part(3, 5));
        merged.merge_partition(&part(4, 6));
        assert_eq!(merged.ops.len(), 2);
        assert_eq!(merged.ops[0].out_keys, 7);
        assert_eq!(merged.ops[1].out_keys, 11);
        assert_eq!(merged.ops[1].out_tuples, 22);
        assert_eq!(merged.ops[0].micros, 20);
        assert_eq!(merged.ops[0].memory_bytes, 128);
    }

    #[test]
    fn absorbed_out_keys_is_an_upper_bound_under_overlap() {
        // Partitions are disjoint in the stage-1 join key, but a
        // later-stage operator keyed on another attribute can see the
        // same key in several partitions. Model a join-group keyed on
        // d_year: partition A sees years {1992, 1993, 1994}, partition B
        // sees {1993, 1994, 1995} — 4 distinct years overall.
        let part = |keys: &[u32]| OpStats {
            label: "3-way star join-group".into(),
            out_keys: keys.len(),
            out_tuples: keys.len() * 10,
            index_kind: "KISS-Tree".into(),
            memory_bytes: 256,
            micros: 50,
        };
        let (a_keys, b_keys) = ([1992u32, 1993, 1994], [1993u32, 1994, 1995]);
        let mut merged = part(&a_keys);
        merged.absorb_partition(&part(&b_keys));

        let distinct: std::collections::BTreeSet<u32> =
            a_keys.iter().chain(b_keys.iter()).copied().collect();
        // The documented caveat: summed out_keys counts 1993 and 1994
        // once per partition, so 6 — a strict upper bound on the 4
        // distinct keys, never the exact count under overlap.
        assert_eq!(merged.out_keys, 6);
        assert_eq!(distinct.len(), 4);
        assert!(merged.out_keys >= distinct.len());
        // The additive fields stay exact regardless of key overlap.
        assert_eq!(merged.out_tuples, 60);
        assert_eq!(merged.memory_bytes, 512);
        assert_eq!(merged.micros, 100);
    }

    #[test]
    fn empty_stats_display() {
        let s = ExecStats::default();
        assert_eq!(s.share(0).to_bits(), 0f64.to_bits()); // no ops → 0 share, no panic path used
        assert!(format!("{s}").contains("total"));
    }
}
