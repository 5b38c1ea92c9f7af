//! Partial aggregates — the undecoded group→sum pairs a shard ships to the
//! router in distributed serving.
//!
//! QPPT's aggregation output is an index keyed on the packed composite
//! group key ([`GroupKey`](crate::plan::GroupKey)); merging partitions is
//! an ordered fold of commutative sums
//! ([`AggTable::merge_from`](crate::inter::AggTable::merge_from)). That
//! merge works **across processes** too, because the packed key and the
//! decoded group values depend only on the *dimension* tables (dictionary
//! sizes and dimension column stats), which sharded deployments replicate
//! on every shard: the same group packs to the same `u64` and decodes to
//! the same values everywhere, whatever fact rows a shard holds.
//!
//! A [`PartialAggregate`] is therefore the shard-side serialization of an
//! [`AggTable`]: one row per group in ascending
//! packed-key order — exactly
//! [`for_each_ordered`](crate::inter::AggTable::for_each_ordered) order —
//! carrying the raw `u64` merge key, the decoded group values (identical on
//! every shard, so the router never needs a database), and the `i64`
//! accumulator sums. The router merges rows by key, sums accumulators, and
//! applies the query's ORDER BY with
//! [`QueryResult::apply_order`] — byte-identical to a single-node run by
//! construction (see `qppt_par::merge_partial_aggregates`).

use qppt_storage::{OrderKey, QueryResult, ResultRow, Value};

use crate::exec::decode_groups;
use crate::inter::AggTable;
use crate::plan::Plan;
use qppt_storage::Database;

/// One group of a partial aggregate: the packed group key (the merge key),
/// its decoded group-by values, and the accumulator sums so far.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialRow {
    /// Packed composite group key — identical across shards for the same
    /// group (widths derive from replicated dimension tables).
    pub key: u64,
    /// Decoded group-by values, in `group_cols` order.
    pub group_values: Vec<Value>,
    /// Accumulator sums, in `agg_cols` order.
    pub accs: Vec<i64>,
}

/// An undecoded per-shard aggregation result: rows in ascending `key`
/// order, plus the output schema needed to render the merged result.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialAggregate {
    /// Group-by column labels, as in [`QueryResult::group_cols`].
    pub group_cols: Vec<String>,
    /// Aggregate labels, as in [`QueryResult::agg_cols`].
    pub agg_cols: Vec<String>,
    /// One row per group, ascending by `key`.
    pub rows: Vec<PartialRow>,
}

impl PartialAggregate {
    /// Serializes an aggregation index into partial-aggregate rows. Group
    /// values are decoded through the same dictionary path as
    /// [`decode_result`](crate::exec::decode_result); no ordering beyond
    /// the index's own ascending key iteration is applied.
    pub fn from_agg(db: &Database, plan: &Plan, agg: &AggTable) -> Self {
        let mut rows = Vec::with_capacity(agg.group_count());
        decode_groups(db, plan, agg, |key, group_values, accs| {
            rows.push(PartialRow {
                key,
                group_values,
                accs,
            });
        });
        Self {
            group_cols: plan
                .spec
                .group_by
                .iter()
                .map(|g| g.column.clone())
                .collect(),
            agg_cols: plan
                .spec
                .aggregates
                .iter()
                .map(|a| a.label.clone())
                .collect(),
            rows,
        }
    }

    /// Total groups held.
    pub fn group_count(&self) -> usize {
        self.rows.len()
    }

    /// Rough resident bytes of the undecoded rows (labels, group values,
    /// accumulators) — mirrors [`QueryResult::memory_bytes`] so the
    /// router's partial-aggregate cache tier can run the same byte
    /// budgeting as the engine-side tiers.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut b = size_of::<Self>();
        for s in self.group_cols.iter().chain(&self.agg_cols) {
            b += size_of::<String>() + s.len();
        }
        for row in &self.rows {
            b += size_of::<PartialRow>() + row.accs.len() * size_of::<i64>();
            for v in &row.group_values {
                b += size_of::<Value>()
                    + match v {
                        Value::Str(s) => s.len(),
                        Value::Int(_) => 0,
                    };
            }
        }
        b
    }

    /// Decodes into the shared result format: rows stay in ascending key
    /// order (the single-node decode order), then the query's ORDER BY is
    /// applied on top — the same stable sort a single node performs.
    pub fn into_result(self, order_by: &[OrderKey]) -> QueryResult {
        let mut result = QueryResult {
            group_cols: self.group_cols,
            agg_cols: self.agg_cols,
            rows: self
                .rows
                .into_iter()
                .map(|r| ResultRow {
                    key_values: r.group_values,
                    agg_values: r.accs,
                })
                .collect(),
        };
        result.apply_order(order_by);
        result
    }
}
