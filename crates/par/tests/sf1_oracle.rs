//! The 13 SSB queries at sf 1 — five times the largest scale factor the
//! other suites use — against the reference oracle, over indexes built on
//! the pool's threads.
//!
//! Ignored by default: it generates ≈ 6 M fact rows and peaks near 1.5 GiB.
//! Run it release-compiled:
//!
//! ```text
//! cargo test --release -p qppt-par --test sf1_oracle -- --ignored
//! ```

use std::sync::Arc;
use std::time::Instant;

use qppt_core::PlanOptions;
use qppt_par::{prepare_indexes_pooled, PooledEngine, WorkerPool};
use qppt_ssb::{queries, run_reference, SsbDb};

#[test]
#[ignore = "sf 1: seconds release-compiled, ≈ 1.5 GiB"]
fn sf1_queries_match_the_oracle() {
    let t = Instant::now();
    let mut ssb = SsbDb::generate(1.0, 42);
    eprintln!("generate: {:.2} s", t.elapsed().as_secs_f64());
    let pool = WorkerPool::new(2, 4);
    let opts = PlanOptions::default()
        .with_parallelism(2)
        .with_par_index_build(true);
    let t = Instant::now();
    for q in queries::all_queries() {
        prepare_indexes_pooled(&mut ssb.db, &q, &opts, &pool).unwrap();
    }
    eprintln!("pooled index build: {:.2} s", t.elapsed().as_secs_f64());
    let db = Arc::new(ssb.db);
    let snap = db.snapshot();
    let engine = PooledEngine::new(db.clone(), pool.clone());
    let t = Instant::now();
    for q in queries::all_queries() {
        let oracle = run_reference(&db, &q, snap).unwrap().canonicalized();
        let got = engine.run(&q, &opts).unwrap().canonicalized();
        assert_eq!(got, oracle, "{}", q.id);
    }
    eprintln!(
        "13 queries, pooled and reference: {:.2} s",
        t.elapsed().as_secs_f64()
    );
    pool.shutdown();
}
