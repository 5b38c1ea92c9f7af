//! Batched/scalar equivalence: `batch_exec=on` is a pure execution
//! strategy — columnar gathers, selection-vector predicate filtering, and
//! run-length-grouped aggregate merges must produce **byte-identical**
//! `QueryResult`s to the scalar path for every SSB query, across
//! parallelism, morsel granularity, and batch block size. Any visible
//! difference is a bug.

use std::sync::Arc;

use qppt_core::{prepare_indexes, PlanOptions, QpptEngine};
use qppt_par::{PooledEngine, WorkerPool};
use qppt_ssb::{queries, SsbDb};

fn prepared_db(sf: f64, seed: u64, opts: &PlanOptions) -> SsbDb {
    let mut ssb = SsbDb::generate(sf, seed);
    for q in queries::all_queries() {
        prepare_indexes(&mut ssb.db, &q, opts).unwrap();
    }
    ssb
}

#[test]
fn all_queries_identical_scalar_vs_batched_across_the_grid() {
    let base = PlanOptions::default();
    let db = Arc::new(prepared_db(0.01, 42, &base).db);
    let engine = QpptEngine::new(&db);
    // 3 workers + the participating caller: parallelism 4 is reachable.
    let pool = WorkerPool::new(3, 8);
    let pooled = PooledEngine::new(db.clone(), pool.clone());
    for q in queries::all_queries() {
        let scalar = engine.run(&q, &base).unwrap();
        // The sequential engine path (execute_agg) with batching on.
        for rows in [1usize, 64, 1024] {
            let opts = base.with_batch_exec(true).with_batch_rows(rows);
            let batched = engine.run(&q, &opts).unwrap();
            assert_eq!(batched, scalar, "{} sequential @ batch_rows={rows}", q.id);
        }
        // The full grid through the morsel scheduler: batch_rows=1 is the
        // degenerate one-row block, 1024 spans whole morsels at fine
        // granularities.
        for workers in [1usize, 4] {
            for bits in [1u8, 6, 12] {
                for rows in [1usize, 64, 1024] {
                    let opts = base
                        .with_parallelism(workers)
                        .with_morsel_bits(bits)
                        .with_batch_exec(true)
                        .with_batch_rows(rows);
                    let batched = pooled.run(&q, &opts).unwrap();
                    assert_eq!(
                        batched, scalar,
                        "{} @ parallelism={workers} morsel_bits={bits} batch_rows={rows}",
                        q.id
                    );
                }
            }
        }
    }
    pool.shutdown();
}

#[test]
fn batched_op_stats_report_identical_cardinalities() {
    // Batching must not change what the operators *saw*: per-operator
    // out_keys/out_tuples (and the operator sequence itself) are pinned to
    // the scalar run. Only micros/memory may differ.
    let base = PlanOptions::default();
    let ssb = prepared_db(0.01, 7, &base);
    let engine = QpptEngine::new(&ssb.db);
    for q in [queries::q1_1(), queries::q2_3(), queries::q4_1()] {
        let (scalar_result, scalar_stats) = engine.run_with_stats(&q, &base).unwrap();
        let opts = base.with_batch_exec(true).with_batch_rows(64);
        let (batched_result, batched_stats) = engine.run_with_stats(&q, &opts).unwrap();
        assert_eq!(batched_result, scalar_result, "{} result bytes", q.id);
        assert_eq!(
            batched_stats.ops.len(),
            scalar_stats.ops.len(),
            "{} operator count",
            q.id
        );
        for (b, s) in batched_stats.ops.iter().zip(scalar_stats.ops.iter()) {
            assert_eq!(b.label, s.label, "{} operator sequence", q.id);
            assert_eq!(b.out_keys, s.out_keys, "{} {}: out_keys", q.id, s.label);
            assert_eq!(
                b.out_tuples, s.out_tuples,
                "{} {}: out_tuples",
                q.id, s.label
            );
        }
    }
}
