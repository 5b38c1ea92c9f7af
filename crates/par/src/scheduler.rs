//! The morsel-driven scheduler: workers pulling morsels from a shared
//! atomic dispenser.
//!
//! Scheduling is *work-pulling* (Leis et al.'s morsel-driven model): workers
//! grab the next unclaimed morsel index from an atomic counter, so skewed
//! partitions self-balance — a worker stuck in a dense subtree simply claims
//! fewer morsels. Each worker accumulates into a **private** aggregation
//! table and operator statistics; nothing is shared mutably, so there are no
//! locks on the hot path. After all workers finish, each table's ordered
//! run is folded by the one ordered merge, in worker-index order, which
//! (with commutative accumulator sums) makes the merged result independent
//! of thread timing.
//!
//! The persistent [`WorkerPool`](crate::WorkerPool) decides *which* threads
//! run [`drain_morsels`], and how many (through
//! [`PooledEngine`](crate::PooledEngine)'s morsel job, where N concurrent
//! queries share one fixed set of threads and its cores); the loop itself
//! and the merge live here.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use qppt_core::exec::{new_agg_table, DimSelection, FusedSelection, Pipeline};
use qppt_core::inter::{AggTable, GroupRun};
use qppt_core::stats::ExecStats;
use qppt_core::{KeyRange, Plan, QpptError};
use qppt_storage::{Database, Snapshot};

/// One worker's morsel loop: pull unclaimed morsel indexes from `next` and
/// run the fact pipeline over each, accumulating into a private aggregation
/// table. Returns `None` if no morsel was claimed (late-arriving worker).
///
/// Everything the pipeline needs that no morsel changes — resolved indexes
/// and field maps, the dimensions' runtime access, the join buffer and its
/// scratch, the operator records — lives in one [`Pipeline`] per
/// participant, built on the first claimed morsel and reused for every
/// later one: a morsel costs its scan, not a setup.
pub(crate) fn drain_morsels(
    db: &Database,
    snap: Snapshot,
    plan: &Plan,
    dim_tables: &[Option<Arc<DimSelection>>],
    fused: Option<&FusedSelection>,
    morsels: &[KeyRange],
    next: &AtomicUsize,
) -> Result<Option<(AggTable, ExecStats)>, QpptError> {
    let mut state: Option<(Pipeline<'_>, AggTable)> = None;
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(&morsel) = morsels.get(i) else {
            break;
        };
        let (pipeline, agg) = match &mut state {
            Some(built) => built,
            None => {
                let pipeline = Pipeline::new(db, snap, plan, dim_tables, fused)?;
                state.insert((pipeline, new_agg_table(plan)))
            }
        };
        pipeline.run(morsel, agg)?;
    }
    Ok(state.map(|(pipeline, agg)| {
        let stats = ExecStats {
            ops: pipeline.into_stats(),
            total_micros: 0,
        };
        (agg, stats)
    }))
}

/// Merges per-worker partials, in ascending participant order, into the
/// query's finished aggregation and statistics: each table's ordered run
/// ([`AggTable::into_run`]) goes through [`GroupRun::merge`]. `partials`
/// entries are `(participant id, agg, stats)`; with none, the aggregation
/// is an empty run of the plan's accumulators.
pub(crate) fn merge_partials(
    plan: &Plan,
    mut partials: Vec<(usize, AggTable, ExecStats)>,
) -> Result<(GroupRun, ExecStats), QpptError> {
    // Deterministic merge: participant order, not completion order. (The
    // accumulators are commutative sums, so this is belt-and-braces — but
    // it keeps statistics ordering reproducible too.)
    partials.sort_by_key(|(pid, _, _)| *pid);
    let mut stats = ExecStats::default();
    let mut runs = Vec::with_capacity(partials.len());
    for (_, agg, part_stats) in partials {
        runs.push(agg.into_run());
        stats.merge_partition(&part_stats);
    }
    let run = GroupRun::merge(&runs.iter().collect::<Vec<_>>())?
        .unwrap_or_else(|| GroupRun::with_capacity(plan.aggs.len(), 0));
    Ok((run, stats))
}
