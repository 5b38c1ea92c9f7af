//! `PreparedQuery` contract: executing from prepared state — cached plan,
//! cached dimension selections, replayed fused stream — is byte-identical
//! to planning + materializing from scratch, for every SSB query, and
//! repeated executions from one `PreparedQuery` keep returning the same
//! bytes. The shard-side decode of an aggregation index — the partial
//! aggregate a router merges — renders the same bytes as the direct one.

use std::sync::Arc;

use qppt_core::{prepare_indexes, PartialAggregate, PlanOptions, PreparedQuery, QpptEngine};
use qppt_par::{PooledEngine, WorkerPool};
use qppt_ssb::{queries, SsbDb};

#[test]
fn prepared_execution_matches_fresh_execution_all_queries() {
    let mut ssb = SsbDb::generate(0.01, 42);
    let variants = [
        PlanOptions::default(),
        PlanOptions::default().with_select_join(false),
        PlanOptions::default().with_join_buffer(1),
    ];
    for opts in &variants {
        for q in queries::all_queries() {
            prepare_indexes(&mut ssb.db, &q, opts).unwrap();
        }
    }
    let db = Arc::new(ssb.db);
    let pool = WorkerPool::new(1, 1);
    let pooled = PooledEngine::new(db.clone(), pool.clone());
    let engine = QpptEngine::new(&db);
    let snap = db.snapshot();
    for opts in &variants {
        for q in queries::all_queries() {
            let fresh = engine.run(&q, opts).unwrap();
            let prepared = PreparedQuery::build(&db, &q, opts, snap).unwrap();
            let (first, stats) = pooled.run_prepared(&prepared, 0).unwrap();
            let (second, _) = pooled.run_prepared(&prepared, 0).unwrap();
            assert_eq!(first, fresh, "{} diverged from fresh run ({opts:?})", q.id);
            assert_eq!(second, fresh, "{} not repeatable ({opts:?})", q.id);
            assert!(
                !stats.ops.is_empty(),
                "{} prepared run reported no operators",
                q.id
            );
        }
    }
    pool.shutdown();
}

#[test]
fn prepared_snapshot_pins_visibility() {
    // A prepared query executed after writes must keep returning the
    // *prepared* snapshot's bytes (the cache invalidates via table
    // versions; the prepared state itself stays snapshot-consistent).
    let mut ssb = SsbDb::generate(0.01, 42);
    let q = queries::q2_3();
    let opts = PlanOptions::default();
    prepare_indexes(&mut ssb.db, &q, &opts).unwrap();
    let snap = ssb.db.snapshot();
    let before = QpptEngine::new(&ssb.db).run(&q, &opts).unwrap();
    let prepared = PreparedQuery::build(&ssb.db, &q, &opts, snap).unwrap();

    // Terminate a fact row version after preparation.
    ssb.db.delete_row("lineorder", 0).unwrap();

    let pool = WorkerPool::new(1, 1);
    let pooled = PooledEngine::new(Arc::new(ssb.db), pool.clone());
    let (got, _) = pooled.run_prepared(&prepared, 0).unwrap();
    assert_eq!(got, before, "prepared execution drifted off its snapshot");
    pool.shutdown();
}

/// `PartialAggregate::from_agg` (the shard-side rows routed merges are
/// built from), rendered with the query's ORDER BY, is byte-identical to
/// the direct decode a single node answers with.
#[test]
fn partial_decode_matches_decode_result_all_queries() {
    let opts = PlanOptions::default();
    let mut ssb = SsbDb::generate(0.01, 42);
    for q in queries::all_queries() {
        prepare_indexes(&mut ssb.db, &q, &opts).unwrap();
    }
    let engine = QpptEngine::new(&ssb.db);
    for q in queries::all_queries() {
        let direct = engine.run(&q, &opts).unwrap();
        let plan = engine.plan(&q, &opts).unwrap();
        let (agg, _) = qppt_core::exec::execute_agg(&ssb.db, ssb.db.snapshot(), &plan).unwrap();
        let partial = PartialAggregate::from_agg(&ssb.db, &plan, &agg);
        assert_eq!(partial.into_result(&q.order_by), direct, "{}", q.id);
    }
}
