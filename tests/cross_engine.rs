//! Workspace-spanning integration tests: all three engines plus the oracle
//! agree on every SSB query, through the public facade API.

use qppt::columnar::{ColumnAtATimeEngine, ColumnDb, VectorAtATimeEngine};
use qppt::core::{prepare_indexes, PlanOptions, QpptEngine};
use qppt::ssb::{queries, run_reference, SsbDb};
use qppt::storage::QueryResult;

fn canonical(r: QueryResult) -> QueryResult {
    r.canonicalized()
}

#[test]
fn four_way_agreement_on_all_queries() {
    let mut ssb = SsbDb::generate(0.02, 20260609);
    let opts = PlanOptions::default();
    for q in queries::all_queries() {
        prepare_indexes(&mut ssb.db, &q, &opts).unwrap();
    }
    let snap = ssb.db.snapshot();
    let engine = QpptEngine::new(&ssb.db);
    let cdb = ColumnDb::new(&ssb.db, snap);
    for q in queries::all_queries() {
        let oracle = canonical(run_reference(&ssb.db, &q, snap).unwrap());
        let a = canonical(engine.run(&q, &opts).unwrap());
        let b = canonical(VectorAtATimeEngine::run(&cdb, &q).unwrap());
        let c = canonical(ColumnAtATimeEngine::run(&cdb, &q).unwrap());
        assert_eq!(a, oracle, "{}: QPPT vs oracle", q.id);
        assert_eq!(b, oracle, "{}: vector vs oracle", q.id);
        assert_eq!(c, oracle, "{}: column vs oracle", q.id);
    }
}

#[test]
fn option_matrix_is_result_invariant() {
    let mut ssb = SsbDb::generate(0.01, 77);
    let mut all_opts: Vec<PlanOptions> = [true, false]
        .into_iter()
        .flat_map(|sj| {
            [2usize, 3, 5].into_iter().flat_map(move |ways| {
                [1usize, 512].into_iter().map(move |buf| {
                    PlanOptions::default()
                        .with_select_join(sj)
                        .with_max_join_ways(ways)
                        .with_join_buffer(buf)
                })
            })
        })
        .collect();
    all_opts.push(PlanOptions::default().with_prefer_kiss(false));
    for q in queries::all_queries() {
        for o in &all_opts {
            prepare_indexes(&mut ssb.db, &q, o).unwrap();
        }
    }
    let engine = QpptEngine::new(&ssb.db);
    for q in [queries::q1_1(), queries::q2_3(), queries::q4_1()] {
        let reference = canonical(engine.run(&q, &all_opts[0]).unwrap());
        for (i, o) in all_opts.iter().enumerate().skip(1) {
            let got = canonical(engine.run(&q, o).unwrap());
            assert_eq!(got, reference, "{}: option set #{i} {o:?}", q.id);
        }
    }
}

#[test]
fn generator_is_cross_run_deterministic() {
    let a = SsbDb::generate(0.01, 123);
    let b = SsbDb::generate(0.01, 123);
    let ta = a.db.table("lineorder").unwrap().table();
    let tb = b.db.table("lineorder").unwrap().table();
    assert_eq!(ta.row_count(), tb.row_count());
    for rid in (0..ta.row_count() as u32).step_by(533) {
        assert_eq!(ta.row(rid), tb.row(rid));
    }
}

#[test]
fn facade_reexports_are_usable() {
    // Compile-time check that every subsystem is reachable through `qppt::`.
    let _trie = qppt::trie::PrefixTree::<u32>::pt4_32();
    let _kiss = qppt::kiss::KissTree::<u32>::new(qppt::kiss::KissConfig::small(false));
    let _chained = qppt::hash::ChainedHashMap::<u32>::new();
    let _open = qppt::hash::OpenHashMap::<u32>::new();
    let _rng = qppt::mem::Xoshiro256StarStar::new(1);
    let _db = qppt::storage::Database::new();
}
