//! Parallel/sequential equivalence: `PooledEngine` must produce
//! **byte-identical** `QueryResult`s to the sequential `QpptEngine::run` —
//! same rows, same row order, same aggregate values — for every SSB query,
//! across worker counts and morsel granularities. Morsel partitioning,
//! private per-worker aggregation, and the deterministic merge are pure
//! execution strategies; any visible difference is a bug.

use std::sync::Arc;

use qppt_core::{build_plan, prepare_indexes, PlanOptions, QpptEngine};
use qppt_par::{PooledEngine, WorkerPool};
use qppt_ssb::{queries, SsbDb};
use qppt_storage::Database;

fn prepared_db(sf: f64, seed: u64, opts: &PlanOptions) -> Arc<Database> {
    let mut ssb = SsbDb::generate(sf, seed);
    for q in queries::all_queries() {
        prepare_indexes(&mut ssb.db, &q, opts).unwrap();
    }
    Arc::new(ssb.db)
}

/// A pool on which `parallelism = 8` is really reachable: a pool's size is
/// its core budget, the participating caller's core included, so a lone
/// query is granted 8 participants on a pool of 8.
fn pool_for_8() -> Arc<WorkerPool> {
    let pool = WorkerPool::new(8, 8);
    assert_eq!(pool.grant(8), 8);
    pool
}

#[test]
fn all_queries_identical_across_parallelism() {
    let base = PlanOptions::default();
    let db = prepared_db(0.05, 42, &base);
    let engine = QpptEngine::new(&db);
    let pool = pool_for_8();
    let pooled = PooledEngine::new(db.clone(), pool.clone());
    for q in queries::all_queries() {
        let sequential = engine.run(&q, &base).unwrap();
        for workers in [1usize, 2, 8] {
            let opts = base.with_parallelism(workers);
            let parallel = pooled.run(&q, &opts).unwrap();
            // Byte-identical: rows in the same order with the same values,
            // not merely set-equal.
            assert_eq!(
                parallel.rows.len(),
                sequential.rows.len(),
                "{} @ {workers} workers: row count",
                q.id
            );
            assert_eq!(
                parallel, sequential,
                "{} @ {workers} workers: result rows",
                q.id
            );
        }
    }
    pool.shutdown();
}

#[test]
fn morsel_granularities_identical() {
    // Coarse (2 morsels) through fine (4096 morsels) partitionings must not
    // change anything either.
    let base = PlanOptions::default();
    let db = prepared_db(0.02, 7, &base);
    let engine = QpptEngine::new(&db);
    let pool = pool_for_8();
    let pooled = PooledEngine::new(db.clone(), pool.clone());
    for q in [queries::q1_1(), queries::q2_3(), queries::q4_1()] {
        let sequential = engine.run(&q, &base).unwrap();
        for bits in [1u8, 3, 6, 12] {
            let opts = base.with_parallelism(4).with_morsel_bits(bits);
            let parallel = pooled.run(&q, &opts).unwrap();
            assert_eq!(parallel, sequential, "{} @ morsel_bits={bits}", q.id);
        }
    }
    pool.shutdown();
}

#[test]
fn non_default_plan_shapes_identical() {
    // Parallel execution composes with the paper's plan knobs: non-fused
    // plans (select_join off → materialized fact selection), prefix-tree-only
    // indexes, narrow join stages.
    let variants = [
        PlanOptions::default().with_select_join(false),
        PlanOptions::default().with_prefer_kiss(false),
        PlanOptions::default().with_max_join_ways(2),
        PlanOptions::default().with_join_buffer(1),
    ];
    let pool = pool_for_8();
    for (vi, base) in variants.into_iter().enumerate() {
        let db = prepared_db(0.02, 23, &base);
        let engine = QpptEngine::new(&db);
        let pooled = PooledEngine::new(db.clone(), pool.clone());
        for q in [queries::q1_1(), queries::q2_3(), queries::q4_2()] {
            let sequential = engine.run(&q, &base).unwrap();
            let parallel = pooled.run(&q, &base.with_parallelism(8)).unwrap();
            assert_eq!(parallel, sequential, "{} @ variant {vi}", q.id);
        }
    }
    pool.shutdown();
}

#[test]
fn pooled_stats_cover_all_operators() {
    let base = PlanOptions::default();
    let db = prepared_db(0.02, 3, &base);
    let spec = queries::q2_3();
    let (seq_result, seq_stats) = QpptEngine::new(&db).run_with_stats(&spec, &base).unwrap();
    let pool = pool_for_8();
    let (par_result, par_stats) = PooledEngine::new(db.clone(), pool.clone())
        .run_with_stats(&spec, &base.with_parallelism(4))
        .unwrap();
    assert_eq!(par_result, seq_result);
    // Same operator sequence (σ per materialized dim, then the stages) and
    // the same operator labels, partition-merged.
    assert_eq!(par_stats.ops.len(), seq_stats.ops.len());
    for (p, s) in par_stats.ops.iter().zip(seq_stats.ops.iter()) {
        assert_eq!(p.label, s.label);
    }
    // The final join-group record reports the merged run: identical group
    // counts to the sequential run.
    let (p_last, s_last) = (par_stats.ops.last().unwrap(), seq_stats.ops.last().unwrap());
    assert_eq!(p_last.out_keys, s_last.out_keys);
    assert_eq!(seq_result.rows.len(), p_last.out_keys);
    pool.shutdown();
}

/// The shared σ step builds exactly the selections that are missing: the
/// completed slots — tables, operator records, and their order — are the
/// same whether none, some, or all dimensions arrive pre-built, inline
/// (`parallelism = 1`) and as a pool job alike.
#[test]
fn sigma_step_identical_however_many_dims_arrive_prebuilt() {
    let base = PlanOptions::default();
    let db = prepared_db(0.02, 5, &base);
    let pool = pool_for_8();
    let pooled = PooledEngine::new(db.clone(), pool.clone());
    let snap = db.snapshot();
    let dump = |dims: &[Option<Arc<qppt_core::DimSelection>>]| {
        dims.iter()
            .map(|d| {
                d.as_ref().map(|d| {
                    let mut rows: Vec<(u64, Vec<u64>)> = Vec::new();
                    d.table
                        .data
                        .for_each_row(|k, row| rows.push((k, row.to_vec())));
                    (d.op.label.clone(), d.op.out_keys, d.op.out_tuples, rows)
                })
            })
            .collect::<Vec<_>>()
    };
    // q4.1 materializes several σ (customer, supplier, part; date is base).
    for workers in [1usize, 4] {
        let opts = base.with_parallelism(workers);
        let plan = Arc::new(build_plan(&db, &queries::q4_1(), &opts).unwrap());
        let n = plan.dims.len();
        let all = pooled
            .materialize_missing_dims(&plan, snap, 0, vec![None; n])
            .unwrap();
        let built: Vec<usize> = (0..n).filter(|&i| all[i].is_some()).collect();
        assert!(built.len() >= 2, "q4.1 must materialize several σ");
        let expected = dump(&all);

        // Some pre-built: keep the first σ, rebuild the rest.
        let mut some = vec![None; n];
        some[built[0]] = all[built[0]].clone();
        let from_some = pooled
            .materialize_missing_dims(&plan, snap, 0, some)
            .unwrap();
        assert!(
            Arc::ptr_eq(
                from_some[built[0]].as_ref().unwrap(),
                all[built[0]].as_ref().unwrap()
            ),
            "a pre-built σ rides through untouched"
        );
        assert_eq!(dump(&from_some), expected, "some pre-built @ {workers}");

        // All pre-built: nothing to do, same handles back.
        let from_all = pooled
            .materialize_missing_dims(&plan, snap, 0, all.clone())
            .unwrap();
        for &i in &built {
            assert!(Arc::ptr_eq(
                from_all[i].as_ref().unwrap(),
                all[i].as_ref().unwrap()
            ));
        }
        assert_eq!(dump(&from_all), expected, "all pre-built @ {workers}");
    }
    pool.shutdown();
}
