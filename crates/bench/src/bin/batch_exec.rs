//! Scalar vs batched execution on the warm-miss hot path, per operator
//! class.
//!
//! Each of the 13 SSB queries is prepared once (plan + σ materializations
//! — the state a warm cache supplies) and then executed repeatedly with
//! `batch_exec` off and on, so the timing isolates exactly the inner-loop
//! work the batch restructuring touches. Queries are grouped by their
//! stage-1 operator class — synchronous base-index scan, fused
//! select-probe, or (for the Q1.x family re-run non-fused) the
//! materialized fact selection — and the Q1.x non-fused variants ride
//! along as extra cases so all three batched code paths are measured.
//!
//! Writes `BENCH_BATCH_EXEC.json` and **exits non-zero** when the batched
//! path is slower than scalar by more than `--tolerance` (default 10%) on
//! any operator class — the CI overhead guard.
//!
//! ```text
//! cargo run --release -p qppt-bench --bin batch_exec -- --sf 0.05 \
//!     --reps 5 --batch-rows 1024 --out BENCH_BATCH_EXEC.json
//! ```

use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qppt_bench::{arg_f64, arg_str, arg_usize, ms, print_table, BenchDb};
use qppt_core::plan::MainInput;
use qppt_core::{Plan, PlanOptions, PreparedQuery};
use qppt_par::{PooledEngine, WorkerPool};
use qppt_ssb::queries;

/// The stage-1 operator class whose inner loop dominates the warm miss.
fn operator_class(plan: &Plan) -> &'static str {
    if plan.fact_select.is_some() {
        return "fact-select";
    }
    match plan.stages[0].main {
        MainInput::SyncScan { .. } => "sync-scan",
        MainInput::SelectProbe { .. } => "select-probe",
    }
}

struct Case {
    label: String,
    class: &'static str,
    scalar_ms: f64,
    batched_ms: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sf = arg_f64(&args, "--sf", 0.05);
    let reps = arg_usize(&args, "--reps", 5);
    let batch_rows = arg_usize(&args, "--batch-rows", 1024);
    let tolerance = arg_f64(&args, "--tolerance", 0.10);
    let out_path = arg_str(&args, "--out").unwrap_or_else(|| "BENCH_BATCH_EXEC.json".to_string());
    let cores = qppt_server::detected_cores();

    eprintln!("generating SSB at sf={sf} …");
    // `parallelism = 1` runs the fact pipeline as one morsel on the calling
    // thread, so the pool never sees a job.
    let db = Arc::new(BenchDb::prepare(sf, 42).ssb.db);
    let pool = WorkerPool::new(1, 1);
    let engine = PooledEngine::new(db.clone(), pool.clone());
    let snap = db.snapshot();
    let base = PlanOptions::default();

    // The 13 queries under the default (fused) plan, plus all 13
    // re-planned non-fused: the Q1.x family then runs the materialized
    // fact selection (its residuals leave the fused plan), and Q2–Q4 lead
    // with a plain synchronous base-index scan — so every batched
    // operator class has members.
    let mut specs: Vec<(String, PlanOptions)> = queries::all_queries()
        .into_iter()
        .map(|q| (q.id.clone(), base))
        .collect();
    for q in queries::all_queries() {
        specs.push((q.id.clone(), base.with_select_join(false)));
    }
    let by_id = queries::all_queries();

    let mut cases: Vec<Case> = Vec::new();
    for (id, opts) in &specs {
        let spec = by_id.iter().find(|q| &q.id == id).expect("known query");
        let scalar = PreparedQuery::build(&db, spec, opts, snap).expect("scalar prepares");
        let batched_opts = opts.with_batch_exec(true).with_batch_rows(batch_rows);
        let batched =
            PreparedQuery::build(&db, spec, &batched_opts, snap).expect("batched prepares");

        // Correctness anchor: the two modes must agree byte-for-byte
        // before either is worth timing.
        let (s_result, _) = engine.run_prepared(&scalar, 0).expect("scalar runs");
        let (b_result, _) = engine.run_prepared(&batched, 0).expect("batched runs");
        assert_eq!(b_result, s_result, "{id}: batched diverged from scalar");

        // Interleaved best-of: scalar and batched alternate within every
        // rep, so slow host-level drift (noisy-neighbor VMs) biases both
        // sides equally instead of whichever mode ran second.
        let mut t_scalar = Duration::MAX;
        let mut t_batched = Duration::MAX;
        for _ in 0..reps {
            let t0 = Instant::now();
            engine.run_prepared(&scalar, 0).expect("scalar runs");
            t_scalar = t_scalar.min(t0.elapsed());
            let t0 = Instant::now();
            engine.run_prepared(&batched, 0).expect("batched runs");
            t_batched = t_batched.min(t0.elapsed());
        }
        let label = if opts.select_join {
            id.clone()
        } else {
            format!("{id} (non-fused)")
        };
        cases.push(Case {
            label,
            class: operator_class(&scalar.plan),
            scalar_ms: ms(t_scalar),
            batched_ms: ms(t_batched),
        });
    }

    let mut rows = Vec::new();
    for c in &cases {
        rows.push(vec![
            c.label.clone(),
            c.class.to_string(),
            format!("{:.3}", c.scalar_ms),
            format!("{:.3}", c.batched_ms),
            format!("{:.2}x", c.scalar_ms / c.batched_ms.max(1e-9)),
        ]);
    }
    println!("warm-miss scalar vs batched (batch_rows={batch_rows}), sf={sf}, best of {reps}:");
    print_table(
        &["query", "class", "scalar ms", "batched ms", "speedup"],
        &rows,
    );

    // Per-class totals: q/s over the class's summed best-of times.
    let classes = ["sync-scan", "select-probe", "fact-select"];
    let mut class_rows = Vec::new();
    let mut class_entries: Vec<String> = Vec::new();
    let mut regressed: Vec<String> = Vec::new();
    for class in classes {
        let members: Vec<&Case> = cases.iter().filter(|c| c.class == class).collect();
        if members.is_empty() {
            continue;
        }
        let n = members.len();
        let scalar_ms: f64 = members.iter().map(|c| c.scalar_ms).sum();
        let batched_ms: f64 = members.iter().map(|c| c.batched_ms).sum();
        let scalar_qps = n as f64 / (scalar_ms / 1e3);
        let batched_qps = n as f64 / (batched_ms / 1e3);
        let ratio = batched_ms / scalar_ms.max(1e-9);
        if ratio > 1.0 + tolerance {
            regressed.push(format!(
                "{class}: batched is {:.1}% slower than scalar",
                (ratio - 1.0) * 100.0
            ));
        }
        class_rows.push(vec![
            class.to_string(),
            n.to_string(),
            format!("{scalar_ms:.3}"),
            format!("{batched_ms:.3}"),
            format!("{scalar_qps:.1}"),
            format!("{batched_qps:.1}"),
            format!("{:.2}x", scalar_ms / batched_ms.max(1e-9)),
        ]);
        class_entries.push(format!(
            "    {{\"class\": \"{class}\", \"queries\": {n}, \"scalar_ms\": {scalar_ms:.3}, \
             \"batched_ms\": {batched_ms:.3}, \"scalar_qps\": {scalar_qps:.3}, \
             \"batched_qps\": {batched_qps:.3}, \"ratio\": {ratio:.4}}}"
        ));
    }
    println!();
    print_table(
        &[
            "class",
            "queries",
            "scalar ms",
            "batched ms",
            "scalar q/s",
            "batched q/s",
            "speedup",
        ],
        &class_rows,
    );

    // Hand-rolled JSON (the workspace is dependency-free by design).
    let query_entries: Vec<String> = cases
        .iter()
        .map(|c| {
            format!(
                "    {{\"query\": \"{}\", \"class\": \"{}\", \"scalar_ms\": {:.3}, \
                 \"batched_ms\": {:.3}}}",
                c.label, c.class, c.scalar_ms, c.batched_ms
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"batch_exec\",\n  \"sf\": {sf},\n  \"reps\": {reps},\n  \
         \"batch_rows\": {batch_rows},\n  \"cores\": {cores},\n  \"tolerance\": {tolerance},\n  \
         \"regressed\": {},\n  \"classes\": [\n{}\n  ],\n  \"queries\": [\n{}\n  ]\n}}\n",
        !regressed.is_empty(),
        class_entries.join(",\n"),
        query_entries.join(",\n")
    );
    let mut f = std::fs::File::create(&out_path).expect("create output file");
    f.write_all(json.as_bytes()).expect("write output file");
    eprintln!("wrote {out_path}");

    if !regressed.is_empty() {
        for r in &regressed {
            eprintln!("REGRESSION: {r} (tolerance {:.0}%)", tolerance * 100.0);
        }
        std::process::exit(1);
    }
}
