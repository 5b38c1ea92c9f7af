//! Direct scheduler coverage: work pulling under contention, empty
//! partitions, deterministic merges across worker orders, the pool's core
//! budget, and the pool-parallel index build — properties
//! `par_equivalence` only exercises indirectly.

use std::sync::atomic::Ordering::SeqCst;
use std::sync::atomic::{AtomicBool, AtomicUsize};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qppt_core::{prepare_indexes, GroupRun, PlanOptions, QpptEngine};
use qppt_par::{prepare_indexes_pooled, PoolJob, PooledEngine, WorkerPool};
use qppt_ssb::{queries, SsbDb};
use qppt_storage::{ColumnType, Database, Schema, TableBuilder, Value};

fn prepared_db(sf: f64, seed: u64) -> SsbDb {
    let mut ssb = SsbDb::generate(sf, seed);
    for q in queries::all_queries() {
        prepare_indexes(&mut ssb.db, &q, &PlanOptions::default()).unwrap();
    }
    ssb
}

#[test]
fn pooled_engine_matches_sequential_for_all_queries() {
    let ssb = prepared_db(0.02, 42);
    let db = Arc::new(ssb.db);
    let sequential = QpptEngine::new(&db);
    let pool = WorkerPool::new(3, 8);
    let pooled = PooledEngine::new(db.clone(), pool.clone());
    for q in queries::all_queries() {
        let expected = sequential.run(&q, &PlanOptions::default()).unwrap();
        for workers in [1usize, 2, 8] {
            let opts = PlanOptions::default().with_parallelism(workers);
            let got = pooled.run(&q, &opts).unwrap();
            assert_eq!(got, expected, "{} @ {workers} workers (pooled)", q.id);
        }
    }
    // However many queries ran, the pool never grew.
    assert_eq!(pool.threads_created(), 3);
    pool.shutdown();
}

#[test]
fn run_prepared_matches_sequential_for_all_queries() {
    // Executing from a shared PreparedQuery — cached plan, cached dim
    // selections, replayed fused stream — must stay byte-identical to the
    // sequential engine at every parallelism, including repeated and
    // concurrent executions off the *same* prepared state.
    use qppt_core::PreparedQuery;
    let ssb = prepared_db(0.02, 42);
    let db = Arc::new(ssb.db);
    let sequential = QpptEngine::new(&db);
    let pool = WorkerPool::new(3, 8);
    let pooled = PooledEngine::new(db.clone(), pool.clone());
    let snap = db.snapshot();
    for q in queries::all_queries() {
        let expected = sequential.run(&q, &PlanOptions::default()).unwrap();
        for workers in [1usize, 2, 8] {
            let opts = PlanOptions::default().with_parallelism(workers);
            let prepared = Arc::new(PreparedQuery::build(&db, &q, &opts, snap).unwrap());
            let (first, _) = pooled.run_prepared(&prepared, 0).unwrap();
            assert_eq!(first, expected, "{} @ {workers} workers (prepared)", q.id);
            // Concurrent executions sharing one prepared state.
            std::thread::scope(|s| {
                for _ in 0..3 {
                    let pooled = &pooled;
                    let prepared = &prepared;
                    let expected = &expected;
                    let id = q.id.clone();
                    s.spawn(move || {
                        let (got, _) = pooled.run_prepared(prepared, 0).unwrap();
                        assert_eq!(got, *expected, "{id} concurrent prepared run");
                    });
                }
            });
        }
    }
    assert_eq!(pool.threads_created(), 3);
    pool.shutdown();
}

/// Operator records do not depend on how the fact pipeline was cut: at
/// every parallelism and morsel granularity the join-group record — its
/// group count and the merged run's footprint, written once per query, and
/// its sink's structure — and every σ record are the sequential run's.
#[test]
fn op_records_do_not_depend_on_morsel_count() {
    use qppt_core::exec::{decode_result, execute_agg};
    use qppt_core::{BatchMode, OpStats, PreparedQuery};
    let ssb = prepared_db(0.02, 11);
    let db = Arc::new(ssb.db);
    let snap = db.snapshot();
    let pool = WorkerPool::new(2, 8);
    let pooled = PooledEngine::new(db.clone(), pool.clone());
    // The σ records up to their time.
    let sigma = |stats: &qppt_core::ExecStats| -> Vec<OpStats> {
        stats
            .ops
            .iter()
            .filter(|o| o.label.starts_with('σ'))
            .map(|o| OpStats {
                micros: 0,
                ..o.clone()
            })
            .collect()
    };
    for q in queries::all_queries() {
        let base = PlanOptions::default();
        let (sequential, seq_stats) = QpptEngine::new(&db).run_with_stats(&q, &base).unwrap();
        let plan = qppt_core::build_plan(&db, &q, &base).unwrap();
        let (seq_agg, _) = execute_agg(&db, snap, &plan).unwrap();
        let seq_group = seq_stats.ops.last().unwrap();
        assert_eq!(seq_group.out_keys, sequential.rows.len(), "{}", q.id);
        assert_eq!(seq_group.memory_bytes, seq_agg.memory_bytes(), "{}", q.id);
        assert!(!seq_group.index_kind.is_empty(), "{}", q.id);
        // The join-group record up to its time.
        let group_record = |op: &OpStats| OpStats {
            micros: 0,
            ..op.clone()
        };
        for workers in [1usize, 2, 3] {
            for bits in [1u8, 6, 8] {
                let at = format!("{} @ parallelism={workers} morsel_bits={bits}", q.id);
                let opts = base.with_parallelism(workers).with_morsel_bits(bits);
                let prepared = PreparedQuery::build(&db, &q, &opts, snap).unwrap();
                let (agg, stats) = pooled.run_prepared_agg(&prepared, 0, BatchMode).unwrap();
                let result = decode_result(&db, &prepared.plan, &agg);
                assert_eq!(result, sequential, "{at}");
                let group = stats.ops.last().unwrap();
                assert!(group.label.ends_with("join-group"), "{at}");
                assert_eq!(group.out_keys, result.rows.len(), "{at}");
                assert_eq!(group.memory_bytes, agg.memory_bytes(), "{at}");
                assert_eq!(agg, seq_agg, "{at}");
                assert_eq!(group_record(group), group_record(seq_group), "{at}");
                assert_eq!(sigma(&stats), sigma(&seq_stats), "{at}");
            }
        }
    }
    pool.shutdown();
}

#[test]
fn work_pulling_under_contention() {
    // Many concurrent queries × fine-grained morsels (up to 4096 per
    // query) on a tiny pool: every claim races, results must not.
    let ssb = prepared_db(0.01, 7);
    let db = Arc::new(ssb.db);
    let sequential = QpptEngine::new(&db);
    let pool = WorkerPool::new(2, 16);
    let pooled = PooledEngine::new(db.clone(), pool.clone());
    let specs = [queries::q1_1(), queries::q2_3(), queries::q4_1()];
    let expected: Vec<_> = specs
        .iter()
        .map(|q| sequential.run(q, &PlanOptions::default()).unwrap())
        .collect();
    std::thread::scope(|s| {
        for round in 0..4 {
            for (qi, q) in specs.iter().enumerate() {
                let pooled = &pooled;
                let expected = &expected;
                s.spawn(move || {
                    let opts = PlanOptions::default()
                        .with_parallelism(4)
                        .with_morsel_bits(12);
                    let got = pooled
                        .run_at(q, &opts, pooled.db().snapshot(), (round + qi) as i32 % 3)
                        .unwrap()
                        .0;
                    assert_eq!(got, expected[qi], "{} under contention", q.id);
                });
            }
        }
    });
    assert_eq!(pool.threads_created(), 2);
    pool.shutdown();
}

/// A one-dim star over an **empty** fact table: the partitioner falls back
/// to a single full-range morsel and both engines return the empty result.
#[test]
fn empty_fact_partitions_handled() {
    let mut db = Database::new();
    let dim_schema = Schema::of(&[("d_key", ColumnType::Int), ("d_year", ColumnType::Int)]);
    let mut b = TableBuilder::new("dim", dim_schema);
    for k in 1..=5i64 {
        b.push_row(vec![Value::Int(k), Value::Int(1990 + k)])
            .unwrap();
    }
    db.add_table(b.finish());
    let fact_schema = Schema::of(&[("f_dim", ColumnType::Int), ("f_rev", ColumnType::Int)]);
    db.add_table(TableBuilder::new("fact", fact_schema).finish());

    let spec = qppt_storage::QuerySpec {
        id: "empty".into(),
        fact: "fact".into(),
        dims: vec![qppt_storage::DimSpec {
            table: "dim".into(),
            join_col: "d_key".into(),
            fact_col: "f_dim".into(),
            predicates: vec![],
            carried: vec!["d_year".into()],
        }],
        fact_predicates: vec![],
        group_by: vec![qppt_storage::ColRef::new("dim", "d_year")],
        aggregates: vec![qppt_storage::AggExpr::sum(
            qppt_storage::Expr::Col("f_rev".into()),
            "revenue",
        )],
        order_by: vec![],
    };
    let opts = PlanOptions::default().with_parallelism(4);
    prepare_indexes(&mut db, &spec, &opts).unwrap();
    let db = Arc::new(db);
    let expected = QpptEngine::new(&db).run(&spec, &opts).unwrap();
    assert!(expected.rows.is_empty());
    let pool = WorkerPool::new(2, 4);
    let got = PooledEngine::new(db.clone(), pool.clone())
        .run(&spec, &opts)
        .unwrap();
    assert_eq!(got, expected);
    pool.shutdown();
}

/// [`GroupRun::merge`] must give the same run for **every** worker
/// completion order, not just the sorted one the scheduler happens to use.
#[test]
fn group_run_merge_deterministic_across_worker_orders() {
    let partial = |entries: &[(u64, i64, i64)]| {
        let mut sorted = entries.to_vec();
        sorted.sort_unstable();
        let mut run = GroupRun::with_capacity(2, sorted.len());
        for (k, a, b) in sorted {
            run.push(k, (), &[a, b]);
        }
        run
    };
    // Overlapping group keys across "workers", including negatives.
    let parts = [
        partial(&[(3, 10, 1), (7, -5, 2), (12, 100, 1)]),
        partial(&[(7, 5, 1), (3, 1, 1)]),
        partial(&[(12, -100, 3), (1, 9, 9)]),
        partial(&[]),
    ];
    let mut reference: Option<GroupRun> = None;
    // All 24 permutations of 4 partials.
    let perms = permutations(&[0, 1, 2, 3]);
    assert_eq!(perms.len(), 24);
    for perm in perms {
        let runs: Vec<&GroupRun> = perm.iter().map(|&i| &parts[i]).collect();
        let got = GroupRun::merge(&runs).unwrap().unwrap();
        match &reference {
            None => reference = Some(got),
            Some(r) => assert_eq!(&got, r, "merge order {perm:?} diverged"),
        }
    }
    let r: Vec<(u64, Vec<i64>)> = reference
        .unwrap()
        .iter()
        .map(|(k, (), accs)| (k, accs.to_vec()))
        .collect();
    assert_eq!(
        r,
        vec![
            (1, vec![9, 9]),
            (3, vec![11, 2]),
            (7, vec![0, 3]),
            (12, vec![0, 4]),
        ]
    );
}

fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for (i, &x) in items.iter().enumerate() {
        let mut rest = items.to_vec();
        rest.remove(i);
        for mut p in permutations(&rest) {
            p.insert(0, x);
            out.push(p);
        }
    }
    out
}

/// The pool-parallel index build must produce bit-identical indexes: same
/// clustered insertion order, same query answers — including multi-column
/// (multidim) and per-predicate (set-ops) indexes.
#[test]
fn parallel_index_build_bit_identical() {
    let opts_seq = PlanOptions::default()
        .with_set_ops(true)
        .with_multidim(true);
    let opts_par = opts_seq.with_par_index_build(true).with_parallelism(4);

    let mut seq = SsbDb::generate(0.01, 99);
    for q in queries::all_queries() {
        prepare_indexes(&mut seq.db, &q, &opts_seq).unwrap();
    }

    let pool = WorkerPool::new(3, 4);
    let mut par = SsbDb::generate(0.01, 99);
    for q in queries::all_queries() {
        prepare_indexes_pooled(&mut par.db, &q, &opts_par, &pool).unwrap();
    }

    // Same index count, same per-index clustered (key, payload) sequence.
    assert_eq!(seq.db.indexes().len(), par.db.indexes().len());
    for (a, b) in seq.db.indexes().iter().zip(par.db.indexes()) {
        assert_eq!(a.table_idx, b.table_idx);
        assert_eq!(a.key_cols, b.key_cols);
        assert_eq!(a.packer(), b.packer());
        assert_eq!(a.carried, b.carried);
        assert_eq!(a.data.tuple_count(), b.data.tuple_count());
        let dump = |bi: &qppt_storage::BaseIndex| {
            let mut v: Vec<(u64, Vec<u64>)> = Vec::new();
            bi.data.for_each_row(|k, row| v.push((k, row.to_vec())));
            v
        };
        assert_eq!(dump(a), dump(b), "index on {:?} diverged", a.key_cols);
    }
    let multi_column =
        |db: &qppt_storage::Database| db.indexes().iter().filter(|i| i.key_cols.len() > 1).count();
    assert!(
        multi_column(&par.db) > 0,
        "the dump covered no multidim index"
    );

    // And the answers agree on every query, for both engines.
    let seq_engine = QpptEngine::new(&seq.db);
    let par_db = Arc::new(par.db);
    let pooled = PooledEngine::new(par_db.clone(), pool.clone());
    for q in queries::all_queries() {
        let expected = seq_engine.run(&q, &opts_seq).unwrap();
        let got = pooled.run(&q, &opts_par).unwrap();
        assert_eq!(got, expected, "{} on parallel-built indexes", q.id);
    }
    pool.shutdown();
}

/// A lone query asks for every core and gets them: on an idle pool each
/// parallel admission is granted more than one core, and the query runs
/// as a participating job. It fails if admission ever degrades to "always
/// sequential".
#[test]
fn a_lone_query_runs_on_every_core() {
    use qppt_obs::Registry;
    use qppt_par::PoolMetrics;
    let ssb = prepared_db(0.02, 42);
    let db = Arc::new(ssb.db);
    let sequential = QpptEngine::new(&db);
    let metrics = PoolMetrics::register(&Registry::new());
    let pool = WorkerPool::new_with_metrics(2, 8, Some(metrics.clone()));
    let pooled = PooledEngine::new(db.clone(), pool.clone());
    let opts = PlanOptions::default().with_parallelism(2);
    let queries = queries::all_queries();
    for q in &queries {
        let expected = sequential.run(q, &PlanOptions::default()).unwrap();
        assert_eq!(pooled.run(q, &opts).unwrap(), expected, "{}", q.id);
        // The query's threads are out of the budget before it returns.
        assert_eq!(metrics.running.get(), 0, "{}", q.id);
    }
    assert_eq!(
        metrics.granted_one.get(),
        0,
        "a lone query was sent to one core"
    );
    // Every fact pipeline asked for two cores; σ steps with two or more
    // selections to build did too.
    let granted = metrics.granted_many.get();
    assert!(granted >= queries.len() as u64, "{granted} parallel grants");
    // Each of them ran as a participating pool job.
    assert_eq!(metrics.jobs_started.get(), granted);
    pool.shutdown();
}

/// A [`PoolJob`](qppt_par::PoolJob) for the budget tests: `tasks` tasks,
/// each counted in its own slot (so "exactly once" is checkable), summed
/// into its participant's partial (so the merge is checkable), waiting
/// while its `gate` is set and then spinning `spin` rounds. It records its
/// participants: how many are inside `work` at once (the peak), and which
/// of them are pool workers (threads named `qppt-pool-*`).
struct BudgetJob {
    next: AtomicUsize,
    runs: Vec<AtomicUsize>,
    max_workers: usize,
    gate: Arc<AtomicBool>,
    spin: u32,
    inside: AtomicUsize,
    peak: AtomicUsize,
    workers_inside: AtomicUsize,
    worker_entries: AtomicUsize,
    partials: std::sync::Mutex<Vec<usize>>,
}

impl BudgetJob {
    fn new(tasks: usize, max_workers: usize, spin: u32) -> Arc<Self> {
        Self::gated(tasks, max_workers, spin, Arc::new(AtomicBool::new(false)))
    }

    fn gated(tasks: usize, max_workers: usize, spin: u32, gate: Arc<AtomicBool>) -> Arc<Self> {
        Arc::new(Self {
            next: AtomicUsize::new(0),
            runs: (0..tasks).map(|_| AtomicUsize::new(0)).collect(),
            max_workers,
            gate,
            spin,
            inside: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            workers_inside: AtomicUsize::new(0),
            worker_entries: AtomicUsize::new(0),
            partials: std::sync::Mutex::new(Vec::new()),
        })
    }

    /// Every task ran exactly once, and the participants' partials merge
    /// to the sum of all task indexes.
    fn assert_complete(&self, what: &str) {
        for (i, r) in self.runs.iter().enumerate() {
            assert_eq!(get(r), 1, "{what}: task {i} ran {} times", get(r));
        }
        let n = self.runs.len();
        let merged: usize = self.partials.lock().unwrap().iter().sum();
        assert_eq!(
            merged,
            n * n.saturating_sub(1) / 2,
            "{what}: partials merge"
        );
    }
}

impl PoolJob for BudgetJob {
    fn max_workers(&self) -> usize {
        self.max_workers
    }

    fn has_work(&self) -> bool {
        get(&self.next) < self.runs.len()
    }

    fn work(&self) {
        let worker = std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("qppt-pool-"));
        let now = self.inside.fetch_add(1, SeqCst) + 1;
        self.peak.fetch_max(now, SeqCst);
        if worker {
            self.worker_entries.fetch_add(1, SeqCst);
            self.workers_inside.fetch_add(1, SeqCst);
        }
        let mut partial = 0;
        loop {
            let i = self.next.fetch_add(1, SeqCst);
            let Some(runs) = self.runs.get(i) else {
                break;
            };
            while self.gate.load(SeqCst) {
                std::thread::yield_now();
            }
            for s in 0..self.spin {
                std::hint::black_box(s);
            }
            runs.fetch_add(1, SeqCst);
            partial += i;
        }
        self.partials.lock().unwrap().push(partial);
        if worker {
            self.workers_inside.fetch_sub(1, SeqCst);
        }
        self.inside.fetch_sub(1, SeqCst);
    }
}

fn get(a: &AtomicUsize) -> usize {
    a.load(SeqCst)
}

/// Spins until `cond` holds; after 20 s opens every gate in `gates` (so
/// the callers held at them can return) and fails.
fn wait_until(what: &str, gates: &[&AtomicBool], cond: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !cond() {
        if Instant::now() > deadline {
            gates.iter().for_each(|g| g.store(false, SeqCst));
            panic!("timed out waiting until {what}");
        }
        std::thread::yield_now();
    }
}

/// The core budget, step by step, on a pool of two: callers always run,
/// and a worker joins only into a free core — or into a job nobody works.
/// Gates hold each participant inside a known task, so every step is
/// deterministic.
#[test]
fn callers_hold_the_budget_and_workers_join_only_free_cores() {
    let pool = WorkerPool::new(2, 8);
    let (gate_a, gate_bc) = (
        Arc::new(AtomicBool::new(true)),
        Arc::new(AtomicBool::new(true)),
    );
    let gates = [&*gate_a, &*gate_bc];
    let a = BudgetJob::gated(2, 2, 0, gate_a.clone());
    let b = BudgetJob::gated(8, 2, 0, gate_bc.clone());
    let c = BudgetJob::gated(8, 2, 0, gate_bc.clone());
    let no_worker_in_b_or_c = |when: &str| {
        std::thread::sleep(Duration::from_millis(50));
        for (name, job) in [("B", &b), ("C", &c)] {
            let joined = get(&job.worker_entries);
            if joined > 0 {
                gates.iter().for_each(|g| g.store(false, SeqCst));
            }
            assert_eq!(joined, 0, "a worker joined {name} {when}");
        }
    };
    std::thread::scope(|s| {
        let caller = |job: &Arc<BudgetJob>| {
            let (pool, job) = (pool.clone(), job.clone());
            move || pool.run_participating(job as Arc<dyn PoolJob>, 0).unwrap()
        };
        // One caller on an idle pool: a worker joins into the free core.
        s.spawn(caller(&a));
        wait_until("A's caller and a worker hold A's two tasks", &gates, || {
            get(&a.inside) == 2 && get(&a.workers_inside) == 1
        });
        // Two more callers run at once, though A holds both cores; the
        // idle worker stays out of their jobs.
        s.spawn(caller(&b));
        s.spawn(caller(&c));
        wait_until("B's and C's callers are in", &gates, || {
            get(&b.inside) == 1 && get(&c.inside) == 1
        });
        no_worker_in_b_or_c("while four threads ran on two cores");
        // A job nobody participates in still gets a worker, though the
        // callers hold every core.
        let n = BudgetJob::new(32, 2, 100);
        let (tx, rx) = std::sync::mpsc::channel();
        {
            let (pool, n) = (pool.clone(), n.clone());
            std::thread::spawn(move || tx.send(pool.run(n as Arc<dyn PoolJob>, 0)));
        }
        let done = rx.recv_timeout(Duration::from_secs(20));
        if done.is_err() {
            gates.iter().for_each(|g| g.store(false, SeqCst));
        }
        assert_eq!(done, Ok(Ok(())), "a job nobody worked stalled");
        n.assert_complete("non-participating job");
        // A finishes; its worker leaves, and B's and C's callers still hold
        // both cores.
        gate_a.store(false, SeqCst);
        wait_until("A is done", &gates, || get(&a.inside) == 0 && !a.has_work());
        no_worker_in_b_or_c("while their callers held both cores");
        // Shut down with B and C queued, started and unfinished: the
        // workers leave, the callers finish alone.
        pool.shutdown();
        gate_bc.store(false, SeqCst);
    });
    a.assert_complete("job A");
    b.assert_complete("job B");
    c.assert_complete("job C");
}

/// Pool invariants under contention: four callers on two cores, each
/// running jobs back to back — mostly participating, every fifth one
/// submitted for the pool alone — while workers join whatever cores the
/// callers leave free. No job ever has more participants at once than the
/// pool has cores (a worker joins only into a free core, or into a job
/// nobody works), every task runs exactly once, and every job completes
/// and merges.
#[test]
fn pool_invariants_under_contention() {
    const CORES: usize = 2;
    const CALLERS: usize = 4;
    let pool = WorkerPool::new(CORES, 16);
    std::thread::scope(|s| {
        for c in 0..CALLERS {
            let pool = &pool;
            s.spawn(move || {
                for r in 0..300 {
                    let job = BudgetJob::new(1 + (c * 7 + r) % 24, CALLERS + CORES, 2_000);
                    let what = format!("caller {c} round {r}");
                    if (c + r) % 5 == 0 {
                        pool.run(job.clone() as Arc<dyn PoolJob>, 0).unwrap();
                    } else {
                        pool.run_participating(job.clone() as Arc<dyn PoolJob>, (r % 3) as i32)
                            .unwrap();
                    }
                    job.assert_complete(&what);
                    let peak = get(&job.peak);
                    assert!(peak <= CORES, "{what}: {peak} participants at once");
                }
            });
        }
    });
    pool.shutdown();
}
