//! The morsel-driven scheduler: workers pulling morsels from a shared
//! atomic dispenser.
//!
//! Scheduling is *work-pulling* (Leis et al.'s morsel-driven model): workers
//! grab the next unclaimed morsel index from an atomic counter, so skewed
//! partitions self-balance — a worker stuck in a dense subtree simply claims
//! fewer morsels. Each worker accumulates into a **private** aggregation
//! table and operator statistics; nothing is shared mutably, so there are no
//! locks on the hot path. After all workers finish, partials are merged in
//! worker-index order, which (with commutative accumulator sums) makes the
//! merged result independent of thread timing.
//!
//! The persistent [`WorkerPool`](crate::WorkerPool) decides *which* threads
//! run [`drain_morsels`] (through [`PooledEngine`](crate::PooledEngine)'s
//! morsel job, where N concurrent queries share one fixed set of threads);
//! the loop itself and the merge live here.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use qppt_core::exec::{new_agg_table, DimSelection, FusedSelection, Pipeline};
use qppt_core::inter::AggTable;
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
/// final aggregation table and statistics. `partials` entries are
/// `(participant id, agg, stats)`; at least one entry is required.
pub(crate) fn merge_partials(
    mut partials: Vec<(usize, AggTable, ExecStats)>,
) -> (AggTable, ExecStats) {
    // Deterministic merge: participant order, not completion order. (The
    // accumulators are commutative sums, so this is belt-and-braces — but
    // it keeps statistics ordering reproducible too.)
    partials.sort_by_key(|(pid, _, _)| *pid);
    let mut iter = partials.into_iter();
    let (_, mut agg, mut stats) = iter.next().expect("at least one partial");
    for (_, part_agg, part_stats) in iter {
        agg.merge_from(&part_agg);
        stats.merge_partition(&part_stats);
    }
    (agg, stats)
}
