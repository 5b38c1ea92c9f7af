//! [`PreparedQuery`]: a query's reusable execution state — built plan,
//! materialized dimension selections, and the fused stage-1 selection
//! stream — computed once and shared (via `Arc`) across repeated
//! executions and concurrent connections.
//!
//! QPPT intermediates are ordered, canonical index structures: at an
//! unchanged snapshot, re-running the same query rebuilds byte-identical
//! dimension selections and plans from scratch. A `PreparedQuery` captures
//! exactly that recomputable state — and since PR 4 it is a *cheap
//! composition*: each dimension selection is an independently cacheable
//! [`DimSelection`] handle (shared across every query with the same σ
//! through the `qppt-cache` dimension tier), and only the fused stage-1
//! stream is query-private. Coherence is the caller's contract (enforced
//! by `qppt-cache` via per-table versions): a prepared query may only be
//! executed while the versions of every table it reads are unchanged since
//! its parts were materialized — then `snap` sees the same rows as any
//! later snapshot, and execution is byte-identical to planning +
//! materializing from scratch.

use std::sync::Arc;

use qppt_storage::{Database, QuerySpec, Snapshot};

use crate::exec::{
    materialize_dim_selection, materialize_fused_selection, DimSelection, FusedSelection,
};
use crate::options::PlanOptions;
use crate::plan::{build_plan, Plan};
use crate::stats::OpStats;
use crate::QpptError;

/// Reusable per-query execution state (see module docs). Everything is
/// behind `Arc`s, so clones are cheap and executions on other threads (the
/// `qppt-par` pooled engine) share rather than copy; the dimension handles
/// may additionally be shared with *other* prepared queries.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    /// The physical plan.
    pub plan: Arc<Plan>,
    /// Materialized dimension selections, one slot per plan dimension
    /// (`None` for base/fused handles). Each handle is shared read-only
    /// across executions and, via the cache's dimension tier, across
    /// queries with the same σ.
    pub dims: Arc<Vec<Option<Arc<DimSelection>>>>,
    /// The pre-materialized stage-1 fused selection stream, if the plan
    /// leads with a select-probe. Query-private (it depends on the fact
    /// residuals' stage placement, not just the dimension).
    pub fused: Arc<Option<FusedSelection>>,
    /// The snapshot the query-private parts were materialized at.
    pub snap: Snapshot,
}

impl PreparedQuery {
    /// Plans `spec` and materializes its dimension state at `snap`.
    pub fn build(
        db: &Database,
        spec: &QuerySpec,
        opts: &PlanOptions,
        snap: Snapshot,
    ) -> Result<Self, QpptError> {
        Self::from_plan(db, Arc::new(build_plan(db, spec, opts)?), snap)
    }

    /// Materializes the dimension state for an already-built plan at
    /// `snap`.
    pub fn from_plan(db: &Database, plan: Arc<Plan>, snap: Snapshot) -> Result<Self, QpptError> {
        let dims = (0..plan.dims.len())
            .map(|di| materialize_dim_selection(db, snap, &plan, di))
            .collect::<Result<Vec<_>, QpptError>>()?;
        Self::from_parts(db, plan, dims, snap)
    }

    /// Composes a prepared query from already-materialized dimension
    /// handles (cache hits and fresh builds alike), materializing only the
    /// query-private fused stream — the `qppt-cache` assemble-from-parts
    /// path. `dims` must hold one slot per plan dimension, `Some` exactly
    /// for the `Materialized` handles, each built at a snapshot whose
    /// per-table version still matches `snap`'s.
    pub fn from_parts(
        db: &Database,
        plan: Arc<Plan>,
        dims: Vec<Option<Arc<DimSelection>>>,
        snap: Snapshot,
    ) -> Result<Self, QpptError> {
        debug_assert_eq!(dims.len(), plan.dims.len());
        let fused = materialize_fused_selection(db, snap, &plan)?;
        Ok(Self {
            plan,
            dims: Arc::new(dims),
            fused: Arc::new(fused),
            snap,
        })
    }

    /// Build-time statistics of the dimension materializations, in
    /// dimension order — replayed into every execution's stats so operator
    /// lists keep their shape whether the σ was built or shared.
    pub fn dim_stats(&self) -> Vec<OpStats> {
        self.dims.iter().flatten().map(|d| d.op.clone()).collect()
    }
}
