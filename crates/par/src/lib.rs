//! # qppt-par — morsel-driven parallel execution over prefix-tree partitions
//!
//! QPPT's indexed table-at-a-time model exchanges *clustered prefix-tree
//! indexes* between operators — and a prefix tree is naturally partitionable
//! by key prefix: the subtree under a top-level prefix holds exactly the
//! keys of one contiguous range, independent of every other subtree. This
//! crate exploits that to parallelize the engine in `qppt-core` without
//! changing its operator semantics:
//!
//! 1. **Partition** ([`Partitioner`]) — the key domain of the stage-1 join
//!    attribute is split on its top [`morsel_bits`](qppt_core::PlanOptions)
//!    bits into prefix-aligned [`KeyRange`](qppt_core::KeyRange) *morsels*.
//!    Because both index structures resolve the most significant bits
//!    first, each morsel corresponds to whole subtrees, and the scan
//!    kernels (`qppt_trie::sync_scan_range`,
//!    `qppt_kiss::kiss_sync_scan_range` — each structure has exactly one,
//!    and it takes a key range) walk only those subtrees.
//! 2. **Schedule** — workers pull morsel indexes from an atomic dispenser;
//!    each worker runs the *entire* fact pipeline — synchronous index scan
//!    or fused select-join, assisting probes, all later stages — restricted
//!    to its morsel, into a **private** aggregation index. Work-pulling
//!    self-balances skewed subtrees; nothing is shared mutably. A
//!    participant builds its execution context — one
//!    [`Pipeline`](qppt_core::exec::Pipeline): resolved indexes and field
//!    maps, the dimensions' runtime access, the join buffer and its probe
//!    scratch, the operator records — on the first morsel it claims and
//!    runs every later morsel through it, so a morsel costs its scan and
//!    nothing else (a plan split on `lo_custkey` has 47 of them). That
//!    includes its bookkeeping: an intermediate's size is O(1) to read in
//!    both trees (the KISS-Tree counts its touched root pages on insert
//!    instead of walking its 2²⁶-slot directory), and the join-group's
//!    record takes only the morsel's time.
//! 3. **Merge** — each worker's aggregation table is walked once, in key
//!    order, into a [`GroupRun`](qppt_core::GroupRun); the runs are folded
//!    by the one linear ordered merge,
//!    [`GroupRun::merge`](qppt_core::GroupRun::merge) — the same function
//!    the router folds shards' partials with — and per-worker
//!    [`OpStats`](qppt_core::OpStats) with
//!    [`ExecStats::merge_partition`](qppt_core::ExecStats::merge_partition),
//!    in participant order. The join-group's sizes are then written once,
//!    from the merged run, by
//!    [`record_join_group`](qppt_core::exec::record_join_group) — the same
//!    call that finishes a sequential run, so its record is the sequential
//!    run's at every parallelism. Accumulators are sums, so the merged run
//!    — and therefore the decoded, ordered
//!    [`QueryResult`](qppt_storage::QueryResult) — is byte-identical to a
//!    sequential run, whatever the thread timing.
//!
//! One engine drives that machinery: [`PooledEngine`]. Queries submit
//! their morsel queues as jobs to a persistent shared [`WorkerPool`] (std
//! threads created once, priority + admission budget), so N concurrent
//! queries share one fixed set of threads instead of spawning N×P. This is
//! what `qppt-server` runs on, and what embedded callers use too (a pool is
//! two lines to create). The pool budgets cores: each query is
//! [granted](WorkerPool::grant) at most the cores its load leaves free, so
//! a lone query runs on every core and concurrent ones one core each.
//! Sequential execution is the one-morsel case of the same job: at
//! `parallelism = 1`, or granted one core, the morsel list is
//! `[KeyRange::full()]` and the calling thread drains it with no job and
//! no wakeup.
//!
//! Every query — embedded, served, cached or `cache=off` — runs the same
//! four steps: **plan** ([`build_plan`](qppt_core::build_plan)), **σ**
//! ([`PooledEngine::materialize_missing_dims`]: the dimension selections
//! not already at hand are materialized **once**, before the fact pipeline
//! starts — as one participating pool job when two or more remain and the
//! pool grants more than one core — and shared read-only by all workers),
//! **exec**
//! ([`PooledEngine::run_prepared_agg`]) and **finish** (decode, or ship the
//! undecoded aggregate). Base index *builds* can also run on the pool's
//! width — see [`prepare_indexes_pooled`] and [`ThreadTasks`]
//! ([`par_index_build`](qppt_core::PlanOptions::par_index_build)).
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use qppt_core::{prepare_indexes, PlanOptions, QpptEngine};
//! use qppt_par::{PooledEngine, WorkerPool};
//! use qppt_ssb::{queries, SsbDb};
//!
//! let mut ssb = SsbDb::generate(0.01, 42);
//! let opts = PlanOptions::default().with_parallelism(4).with_morsel_bits(5);
//! let spec = queries::q2_3();
//! prepare_indexes(&mut ssb.db, &spec, &opts).unwrap();
//!
//! // The sequential oracle …
//! let sequential = QpptEngine::new(&ssb.db).run(&spec, &opts).unwrap();
//!
//! // … and the parallel engine: a persistent pool shared across queries.
//! let db = Arc::new(ssb.db);
//! let pool = WorkerPool::new(4, 8);
//! let pooled = PooledEngine::new(db, pool.clone());
//! assert_eq!(pooled.run(&spec, &opts).unwrap(), sequential);
//! pool.shutdown(); // started queries finish; threads join
//! ```

mod morsel;
mod pool;
mod pooled;
mod prepare;
mod scheduler;

pub use morsel::Partitioner;
pub use pool::{JobAborted, JobHandle, PoolJob, PoolMetrics, WorkerPool};
pub use pooled::PooledEngine;
pub use prepare::{prepare_indexes_pooled, ThreadTasks};

use qppt_core::{Plan, QpptError};
use qppt_storage::Database;

/// Morsels over the populated key interval of the stage-1 fact index.
pub(crate) fn partition_morsels(
    db: &Database,
    plan: &Plan,
) -> Result<Vec<qppt_core::KeyRange>, QpptError> {
    let fact_base = db.find_index(&plan.spec.fact, &plan.dims[0].fact_col_name)?;
    let (Some(min), Some(max)) = (
        fact_base.data.index.min_key(),
        fact_base.data.index.max_key(),
    ) else {
        // Empty fact index: one full-range morsel keeps the pipeline
        // shape (and its statistics records) intact.
        return Ok(vec![qppt_core::KeyRange::full()]);
    };
    Ok(Partitioner::new(min, max, plan.opts.morsel_bits)
        .morsels()
        .to_vec())
}
