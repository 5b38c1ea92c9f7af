//! The repo's benchmark: five served / routed / write workloads, the
//! client-observed end-to-end metrics, and an outside-in per-layer trace.
//! See `README.md` beside this file for the vocabulary and `/BENCHMARK.json`
//! for the contract the driver checks.
//!
//! ```text
//! benchmark [--workload <name>] [--seed <u64>] [--seconds <s>] [--trace 0|1 | --traced]
//! benchmark --check-repeat [--seed <u64>] [--seconds <s>]
//! ```
//!
//! Every run sets the deployment up, warms it, drives a closed loop for
//! `--seconds`, verifies the answers against the sequential oracle outside
//! the timed window, prints every metric by name with its unit, and ends
//! with one JSON line (`correct`, `attempted`, `failed`, `metrics`).

mod deploy;
mod layers;
mod load;
mod report;
mod trace;
mod workloads;
mod write;

use std::io::Write as _;
use std::process::ExitCode;

use qppt_cache::CacheStats;
use qppt_server::detected_cores;

use deploy::{clients, Deployment, POOL_THREADS};
use load::{Answers, TracedPath, WindowResult};
use report::{
    highest_supported_percentile, percentile, worsening, Metrics, Outcome, END_TO_END, PER_LAYER,
};
use trace::Recorder;
use workloads::{Kind, Scale, Workload, FULL};

/// Length of the timed window the driver asks for (`run_seconds` in
/// `/BENCHMARK.json`); the default of `--seconds`.
pub const RUN_SECONDS: u64 = 10;

/// Where the traced run writes its spans (inside the checkout, ignored by
/// git).
const TRACE_DIR: &str = ".bench_out";

/// At most this many traces go to the JSONL file (all of them feed the
/// metrics).
const JSONL_TRACES: usize = 2000;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    check_repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        traced: false,
        check_repeat: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(workloads::by_name(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => args.traced = true,
            "--check-repeat" => args.check_repeat = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            return ExitCode::from(2);
        }
    };
    if args.check_repeat {
        return check_repeat(&args);
    }
    let Some(w) = args.workload else {
        // All five, each in a process of its own (see `run_in_child`).
        for w in workloads::ALL {
            if let Err(msg) = run_in_child(w, &args) {
                eprintln!("benchmark: {} did not report: {msg}", w.name);
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    };
    let (table, outcome) = if args.traced {
        (PER_LAYER, run_traced(w, args.seed, args.seconds, &FULL))
    } else {
        (
            END_TO_END,
            run_end_to_end(w, args.seed, args.seconds, &FULL),
        )
    };
    outcome.print_rows(table);
    // Failed operations are reported in the line (`correct`, `failed`), not
    // through the exit code: a printed result is a completed run.
    println!("{}", outcome.to_json(table));
    ExitCode::SUCCESS
}

/// The short commit hash, when the checkout is a git repository.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Every output is stamped with what its numbers depend on.
fn print_stamp(w: Workload, seed: u64, seconds: f64, traced: bool, sf: f64, stream_hash: u64) {
    println!(
        "# workload={} why=\"{}\" seed={seed} window_s={seconds} trace={} cores={} clients={} \
         pool_threads={POOL_THREADS} sf={sf} loop=closed commit={} stream_hash={stream_hash:016x}",
        w.name,
        w.why,
        u8::from(traced),
        detected_cores(),
        clients(),
        git_commit(),
    );
}

/// `VmHWM` of this process in MiB (0 where `/proc` has none).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn cache_stats(dep: &Deployment) -> Vec<CacheStats> {
    match &dep.write {
        Some(w) => vec![w.cache.stats()],
        None => dep.engines.iter().map(|e| e.cache_stats()).collect(),
    }
}

/// The timed window of `w` on a running deployment.
fn timed_window(
    w: Workload,
    dep: &mut Deployment,
    stream: &workloads::RequestStream,
    seed: u64,
    seconds: f64,
    scale: &Scale,
    rec: Option<&Recorder>,
) -> (WindowResult, write::WriteTotals, Answers) {
    let answers = Answers::new(stream.distinct);
    if w.kind == Kind::WriteRefresh {
        let (window, totals) = write::run_window(dep, seed, scale.insert_batch, rec, seconds);
        return (window, totals, answers);
    }
    let traced = match (rec, &dep.traced_addr) {
        (Some(rec), Some(addr)) => Some(TracedPath { addr, rec }),
        _ => None,
    };
    let addr = dep.addr.as_ref().expect("served deployment listens");
    let window = load::run_window(stream, &answers, addr, traced.as_ref(), clients(), seconds);
    (window, write::WriteTotals::default(), answers)
}

/// Byte-verification outside the timed window; returns the mismatches,
/// each of which counts as a failed operation.
fn verify(
    w: Workload,
    dep: &Deployment,
    stream: &workloads::RequestStream,
    answers: &Answers,
    seed: u64,
) -> u64 {
    match w.kind {
        Kind::WriteRefresh => write::verify(dep),
        Kind::RoutedScatter => {
            // The oracle of a sharded fleet is the unsharded instance.
            let mut oracle = qppt_ssb::SsbDb::generate(dep.sf, workloads::DB_SEED);
            for q in qppt_ssb::queries::all_queries() {
                qppt_core::prepare_indexes(&mut oracle.db, &q, &qppt_core::PlanOptions::default())
                    .expect("oracle indexes build");
            }
            load::verify(stream, answers, &oracle.db, seed)
        }
        _ => load::verify(stream, answers, dep.db(), seed),
    }
}

fn sorted_ms(latencies_ns: &[u64]) -> Vec<f64> {
    let mut ms: Vec<f64> = latencies_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    ms.sort_by(f64::total_cmp);
    ms
}

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(&values, 50.0)
}

/// The end-to-end run (tracing off): set up, warm, timed closed loop,
/// `VmHWM`, verify, then the remaining set-up repetitions for `setup_s`.
fn run_end_to_end(w: Workload, seed: u64, seconds: f64, scale: &Scale) -> Outcome {
    let (mut dep, first_setup_s) = Deployment::start(w.kind, scale, None);
    let stream = workloads::generate(w.kind, seed, scale, dep.db());
    print_stamp(w, seed, seconds, false, dep.sf, stream.hash());

    let (window, _, answers) = timed_window(w, &mut dep, &stream, seed, seconds, scale, None);
    let peak_rss = peak_rss_mib();
    let mismatches = verify(w, &dep, &stream, &answers, seed);
    dep.stop();

    let mut setups = vec![first_setup_s];
    for _ in 1..scale.setup_reps {
        let (dep, s) = Deployment::start(w.kind, scale, None);
        dep.stop();
        setups.push(s);
    }

    let ms = sorted_ms(&window.latencies_ns);
    let completed = ms.len() as f64;
    let mut metrics = Metrics::default();
    metrics.set("qps", completed / window.window_s.max(f64::MIN_POSITIVE));
    metrics.set("p50_ms", percentile(&ms, 50.0));
    metrics.set("p95_ms", percentile(&ms, 95.0));
    metrics.set("setup_s", median(setups.clone()));
    metrics.set("peak_rss_mb", peak_rss);
    let top = highest_supported_percentile(ms.len());
    println!(
        "# samples={} window_s={:.3} p99_ms={:.4} (information only) \
         highest_supported_percentile={} setups_s={:?}",
        ms.len(),
        window.window_s,
        percentile(&ms, 99.0),
        top.map_or("none".to_string(), |p| format!(
            "p{p}={:.4}ms",
            percentile(&ms, p)
        )),
        setups,
    );
    Outcome {
        attempted: window.attempted,
        failed: window.failed + mismatches,
        metrics,
    }
}

/// The traced run: one set-up with every engine also served through the
/// span-recording harness services, one window in which every other
/// request is traced, the layer replay, the index probes, and the spans
/// written as JSONL.
fn run_traced(w: Workload, seed: u64, seconds: f64, scale: &Scale) -> Outcome {
    let rec = Recorder::new();
    let (mut dep, _) = Deployment::start(w.kind, scale, Some(&rec));
    let stream = workloads::generate(w.kind, seed, scale, dep.db());
    print_stamp(w, seed, seconds, true, dep.sf, stream.hash());

    let before = cache_stats(&dep);
    let (window, write_totals, answers) =
        timed_window(w, &mut dep, &stream, seed, seconds, scale, Some(&rec));
    let after = cache_stats(&dep);
    let mismatches = verify(w, &dep, &stream, &answers, seed);
    let window_traces = rec.take_traces();

    let mut metrics = Metrics::default();
    metrics.set("ssb.generate_s", dep.generate_s);
    metrics.set("storage.index_build_s", dep.index_build_s);
    layers::cache_metrics(&before, &after, &mut metrics);
    layers::span_metrics(&window_traces, &write_totals, &mut metrics);
    // Closed loop: a class's throughput is its count over the time its
    // requests held a client, so traced ÷ untraced q/s is the ratio of
    // mean latencies the other way round.
    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64;
    metrics.set(
        "trace.overhead",
        mean(&window.latencies_ns) / mean(&window.traced_latencies_ns).max(1.0),
    );

    let replay_lines = stream.distinct_lines();
    match &dep.write {
        Some(state) => layers::replay(&state.engine(&dep.pool), &replay_lines, &rec, &mut metrics),
        None => layers::replay(&dep.engines[0], &replay_lines, &rec, &mut metrics),
    }
    layers::index_metrics(dep.db(), seed, scale.index_probes, &mut metrics);
    let replay_traces = rec.take_traces();
    dep.stop();

    let path = format!("{TRACE_DIR}/trace-{}-{seed}.jsonl", w.name);
    let written = std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| {
            let mut out = std::io::BufWriter::new(f);
            let head = &window_traces[..window_traces.len().min(JSONL_TRACES)];
            trace::write_jsonl(&mut out, head)?;
            trace::write_jsonl(&mut out, &replay_traces)?;
            out.flush()
        });
    match written {
        Ok(()) => println!(
            "# spans: {} window traces ({} written) + {} replay traces -> {path}",
            window_traces.len(),
            window_traces.len().min(JSONL_TRACES),
            replay_traces.len()
        ),
        Err(e) => eprintln!("benchmark: could not write {path}: {e}"),
    }
    Outcome {
        attempted: window.attempted,
        failed: window.failed + mismatches,
        metrics,
    }
}

/// One run of `w` in a child process of its own — `VmHWM` is a per-process
/// high-water mark, so runs sharing a process would report each other's
/// memory. Echoes the child's output and returns its result line, parsed.
fn run_in_child(w: Workload, args: &Args) -> Result<report::json::Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    report::json::parse(last)
}

/// Runs the full end-to-end set twice back to back and prints, per metric
/// × workload, the relative difference next to its bound. Fails when any
/// end-to-end metric differs by more than its bound between two runs of
/// the same code, or any operation failed.
fn check_repeat(args: &Args) -> ExitCode {
    let mut runs = Vec::new();
    for _ in 0..2 {
        let mut set = Vec::new();
        for w in workloads::ALL {
            match run_in_child(w, args) {
                Ok(line) => set.push(line),
                Err(msg) => {
                    eprintln!("check-repeat: {} did not report: {msg}", w.name);
                    return ExitCode::FAILURE;
                }
            }
        }
        runs.push(set);
    }
    println!(
        "# check-repeat: second run against first, same code, seed {}",
        args.seed
    );
    let mut exceeded = 0;
    let mut failed_ops = 0.0;
    for (i, w) in workloads::ALL.iter().enumerate() {
        let field = |run: usize, key: &str| runs[run][i].get(key).map_or(0.0, |v| v.num());
        failed_ops += field(0, "failed") + field(1, "failed");
        for def in END_TO_END {
            let value = |run: usize| {
                runs[run][i]
                    .get("metrics")
                    .and_then(|m| m.get(def.name))
                    .and_then(|m| m.get("value"))
                    .map_or(0.0, |v| v.num())
            };
            let (first, second) = (value(0), value(1));
            let worse = worsening(def.better, first, second);
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let verdict = if worse.abs() > bound {
                "EXCEEDED"
            } else {
                "ok"
            };
            exceeded += usize::from(worse.abs() > bound);
            println!(
                "{:<16} {:<12} first={first:<14.4} second={second:<14.4} diff={:+.2}% bound={:.0}% {verdict}",
                w.name,
                def.name,
                100.0 * worse,
                100.0 * bound
            );
        }
    }
    if exceeded == 0 && failed_ops == 0.0 {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "check-repeat: {exceeded} metric(s) beyond their bound, {failed_ops} failed op(s)"
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: Scale = Scale {
        sf_large: 0.01,
        sf_small: 0.01,
        insert_batch: 64,
        adhoc_lines: 4096,
        index_probes: 4096,
        setup_reps: 1,
    };

    /// All five workloads, both modes, tiny: every metric name present,
    /// no failed operation, and the JSON line carries exactly the table.
    #[test]
    fn smoke_all_workloads_report_every_metric() {
        for w in workloads::ALL {
            let e2e = run_end_to_end(w, 3, 0.3, &SMOKE);
            assert_eq!(e2e.failed, 0, "{}: failed ops", w.name);
            assert!(e2e.attempted >= 1, "{}", w.name);
            for def in END_TO_END {
                let v = e2e.metrics.get(def.name);
                assert!(
                    v.is_some_and(|v| v > 0.0),
                    "{}: {} = {v:?}",
                    w.name,
                    def.name
                );
            }
            let line = report::json::parse(&e2e.to_json(END_TO_END)).expect("result line parses");
            assert_eq!(line.get("correct"), Some(&report::json::Json::Bool(true)));

            let traced = run_traced(w, 3, 0.3, &SMOKE);
            assert_eq!(traced.failed, 0, "{}: failed ops (traced)", w.name);
            for def in PER_LAYER {
                assert!(
                    traced.metrics.get(def.name).is_some(),
                    "{}: {} missing",
                    w.name,
                    def.name
                );
            }
            assert_eq!(traced.metrics.0.len(), PER_LAYER.len(), "{}", w.name);
            let positive = |name: &str| traced.metrics.get(name).is_some_and(|v| v > 0.0);
            assert!(positive("server.engine_us"), "{}", w.name);
            assert!(positive("par.exec_us"), "{}", w.name);
            assert!(positive("trace.overhead"), "{}", w.name);
            assert_eq!(
                positive("router.self_us"),
                w.kind == Kind::RoutedScatter,
                "{}",
                w.name
            );
            assert_eq!(
                positive("share.insert_pct"),
                w.kind == Kind::WriteRefresh,
                "{}",
                w.name
            );
            assert_eq!(
                positive("server.wire_us"),
                w.kind != Kind::WriteRefresh,
                "{}",
                w.name
            );
        }
    }
}
