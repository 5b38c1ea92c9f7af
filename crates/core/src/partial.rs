//! Partial aggregates — the undecoded group→sum pairs a shard ships to the
//! router in distributed serving.
//!
//! A query's finished aggregation is a [`GroupRun`] keyed on the packed
//! composite group key ([`GroupKey`](crate::plan::GroupKey)), and merging
//! partitions is the one ordered merge of runs ([`GroupRun::merge`]). That
//! merge works **across processes** too: the packed key and the decoded
//! group values depend only on the *dimension* tables, which sharded
//! deployments replicate, so the same group packs to the same `u64` and
//! decodes to the same values on every shard.
//!
//! A [`PartialAggregate`] is the shard-side serialization of that run: its
//! payload is each group's decoded values (so the router never needs a
//! database), plus the output schema. The router folds the shards' runs
//! with [`PartialAggregate::merge`] and applies the query's ORDER BY with
//! [`QueryResult::apply_order`] — byte-identical to a single-node run by
//! construction.

use qppt_storage::{Database, OrderKey, QueryResult, ResultRow, Value};

use crate::exec::{decode_code, group_decode_sources};
use crate::inter::GroupRun;
use crate::plan::Plan;
use crate::QpptError;

/// An undecoded per-shard aggregation result: groups in ascending key
/// order, plus the output schema needed to render the merged result.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialAggregate {
    /// Group-by column labels, as in [`QueryResult::group_cols`].
    pub group_cols: Vec<String>,
    /// Aggregate labels, as in [`QueryResult::agg_cols`].
    pub agg_cols: Vec<String>,
    /// One group per packed key, ascending; its payload is the decoded
    /// group-by values, in `group_cols` order, and its accumulators are in
    /// `agg_cols` order.
    pub groups: GroupRun<Vec<Value>>,
}

impl PartialAggregate {
    /// Serializes a finished aggregation: each group's packed key decoded
    /// into its group values through the dictionaries — the decode every
    /// answer takes ([`decode_result`](crate::exec::decode_result) renders
    /// this). No ordering beyond the run's own ascending key order is
    /// applied.
    pub fn from_agg(db: &Database, plan: &Plan, run: &GroupRun) -> Self {
        let sources = group_decode_sources(db, plan);
        let mut groups = GroupRun::with_capacity(run.agg_width(), run.len());
        for (key, (), accs) in run.iter() {
            let codes = plan.group_key.packer.unpack(key);
            let values = codes.iter().zip(&sources);
            let values = values.map(|(&code, &(t, c))| decode_code(t, c, code));
            groups.push(key, values.collect(), accs);
        }
        let spec = &plan.spec;
        Self {
            group_cols: spec.group_by.iter().map(|g| g.column.clone()).collect(),
            agg_cols: spec.aggregates.iter().map(|a| a.label.clone()).collect(),
            groups,
        }
    }

    /// Merges per-shard partial aggregates, in shard order, with
    /// [`GroupRun::merge`]: a group's sums add up across shards and its
    /// values come from the first shard that reports it (they are
    /// identical on every shard). `None` for no parts; `Err` if the parts
    /// disagree on the output schema (different queries) or on the
    /// accumulator count.
    pub fn merge(parts: &[&Self]) -> Result<Option<Self>, QpptError> {
        let Some(first) = parts.first() else {
            return Ok(None);
        };
        if let Some(p) = parts
            .iter()
            .find(|p| p.group_cols != first.group_cols || p.agg_cols != first.agg_cols)
        {
            return Err(QpptError::Internal(format!(
                "partial aggregates disagree on output schema: {:?}/{:?} vs {:?}/{:?}",
                first.group_cols, first.agg_cols, p.group_cols, p.agg_cols
            )));
        }
        let runs: Vec<&GroupRun<Vec<Value>>> = parts.iter().map(|p| &p.groups).collect();
        Ok(GroupRun::merge(&runs)?.map(|groups| Self {
            group_cols: first.group_cols.clone(),
            agg_cols: first.agg_cols.clone(),
            groups,
        }))
    }

    /// Rough resident bytes of the undecoded groups (labels, group values,
    /// accumulators) — mirrors [`QueryResult::memory_bytes`] so the
    /// router's partial-aggregate cache tier can run the same byte
    /// budgeting as the engine-side tiers.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut b = size_of::<Self>() + self.groups.memory_bytes();
        for s in self.group_cols.iter().chain(&self.agg_cols) {
            b += size_of::<String>() + s.len();
        }
        for (_, values, _) in self.groups.iter() {
            for v in values {
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
                .groups
                .into_groups()
                .map(|(_, key_values, agg_values)| ResultRow {
                    key_values,
                    agg_values,
                })
                .collect(),
        };
        result.apply_order(order_by);
        result
    }
}
