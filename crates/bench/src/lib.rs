//! Shared harness for regenerating the paper's figures.
//!
//! Each `fig*` binary (and the matching Criterion bench) prints the same
//! rows/series as the corresponding figure of the paper; EXPERIMENTS.md
//! records paper-reported vs. measured values. Scales default to laptop/CI
//! sizes — pass `--sf` / `--keys` to go bigger; the claims under test are
//! *shapes* (who wins, by what factor, where crossovers sit), not absolute
//! milliseconds from the authors' 2012 testbed.

use std::time::{Duration, Instant};

use qppt_columnar::{ColumnAtATimeEngine, ColumnDb, VectorAtATimeEngine};
use qppt_core::{prepare_indexes, PlanOptions, QpptEngine};
use qppt_ssb::{queries, SsbDb};
use qppt_storage::{QueryResult, QuerySpec};

/// An SSB database with every base index the 13 queries need, ready for all
/// engines.
pub struct BenchDb {
    pub ssb: SsbDb,
}

impl BenchDb {
    /// Generates and prepares an SSB instance: every base index the 13
    /// queries need under the default plan options, which the figure
    /// binaries' variants (join buffer, select-join, join width) share.
    pub fn prepare(sf: f64, seed: u64) -> Self {
        let mut ssb = SsbDb::generate(sf, seed);
        let default = PlanOptions::default();
        for q in queries::all_queries() {
            prepare_indexes(&mut ssb.db, &q, &default).expect("SSB indexes build");
        }
        Self { ssb }
    }

    /// Runs a query on the QPPT engine.
    pub fn run_qppt(&self, spec: &QuerySpec, opts: &PlanOptions) -> QueryResult {
        QpptEngine::new(&self.ssb.db)
            .run(spec, opts)
            .expect("prepared queries run")
    }

    /// Builds the columnar image (do this once; it is load, not query time).
    pub fn column_db(&self) -> ColumnDb<'_> {
        ColumnDb::new(&self.ssb.db, self.ssb.db.snapshot())
    }

    /// Runs a query column-at-a-time.
    pub fn run_column(&self, cdb: &ColumnDb<'_>, spec: &QuerySpec) -> QueryResult {
        ColumnAtATimeEngine::run(cdb, spec).expect("prepared queries run")
    }

    /// Runs a query vector-at-a-time.
    pub fn run_vector(&self, cdb: &ColumnDb<'_>, spec: &QuerySpec) -> QueryResult {
        VectorAtATimeEngine::run(cdb, spec).expect("prepared queries run")
    }
}

/// Wall-clock of one invocation.
pub fn time_once<T>(mut f: impl FnMut() -> T) -> (Duration, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed(), out)
}

/// Best-of-`n` wall-clock (discards warm-up noise, standard for
/// milliseconds-scale query timings).
pub fn time_best_of<T>(n: usize, mut f: impl FnMut() -> T) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..n.max(1) {
        let (d, out) = time_once(&mut f);
        std::hint::black_box(out);
        best = best.min(d);
    }
    best
}

/// Milliseconds as a fixed-width display value.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Renders an aligned text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:>width$}  ", c, width = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Parses `--flag value` style arguments with a default.
pub fn arg_f64(args: &[String], flag: &str, default: f64) -> f64 {
    arg_str(args, flag)
        .map(|v| v.parse().unwrap_or_else(|_| panic!("bad value for {flag}")))
        .unwrap_or(default)
}

/// Parses `--flag value` as usize.
pub fn arg_usize(args: &[String], flag: &str, default: usize) -> usize {
    arg_str(args, flag)
        .map(|v| v.parse().unwrap_or_else(|_| panic!("bad value for {flag}")))
        .unwrap_or(default)
}

/// Raw `--flag value` lookup.
pub fn arg_str(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// The positional mode argument of a figure binary: the first argument
/// that is neither a `--flag` nor the value after one, so flags may come
/// before or after it. Without one the mode is `modes[0]`; a mode outside
/// `modes` is an error naming the valid ones.
pub fn arg_mode<'a>(args: &'a [String], modes: &[&'a str]) -> Result<&'a str, String> {
    let mut rest = args.iter();
    while let Some(a) = rest.next() {
        if a.starts_with("--") {
            rest.next();
        } else if modes.contains(&a.as_str()) {
            return Ok(a);
        } else {
            return Err(format!("unknown mode {a:?} (valid: {})", modes.join(", ")));
        }
    }
    Ok(modes[0])
}

/// Comma-separated usize list (`--keys 100000,1000000`).
pub fn arg_usize_list(args: &[String], flag: &str, default: &[usize]) -> Vec<usize> {
    match arg_str(args, flag) {
        Some(v) => v
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("bad value for {flag}"))
            })
            .collect(),
        None => default.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_parsing() {
        let args: Vec<String> = ["--sf", "0.5", "--keys", "10,20"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_f64(&args, "--sf", 1.0), 0.5);
        assert_eq!(arg_f64(&args, "--missing", 2.0), 2.0);
        assert_eq!(arg_usize_list(&args, "--keys", &[1]), vec![10, 20]);
        assert_eq!(arg_usize_list(&args, "--nope", &[1]), vec![1]);
        assert_eq!(arg_usize(&args, "--nope", 7), 7);

        // A flag's value is never the mode, wherever the flags stand.
        let modes = ["all", "joinbuffer"];
        let mode = |line: &[&str]| {
            let args: Vec<String> = line.iter().map(|s| s.to_string()).collect();
            arg_mode(&args, &modes).map(str::to_string)
        };
        assert_eq!(mode(&["--sf", "0.02", "--runs", "1"]), Ok("all".into()));
        assert_eq!(mode(&[]), Ok("all".into()));
        assert_eq!(
            mode(&["--sf", "0.02", "joinbuffer"]),
            Ok("joinbuffer".into())
        );
        assert_eq!(
            mode(&["joinbuffer", "--sf", "0.02"]),
            Ok("joinbuffer".into())
        );
        let err = mode(&["--sf", "0.02", "fig"]).unwrap_err();
        assert!(
            err.contains("\"fig\"") && err.contains("all, joinbuffer"),
            "{err}"
        );
        assert!(mode(&["10000"]).is_err());
    }

    #[test]
    fn bench_db_runs_all_engines() {
        let db = BenchDb::prepare(0.01, 1);
        let cdb = db.column_db();
        let q = qppt_ssb::queries::q2_3();
        let opts = PlanOptions::default();
        let a = db.run_qppt(&q, &opts).canonicalized();
        let b = db.run_column(&cdb, &q).canonicalized();
        let c = db.run_vector(&cdb, &q).canonicalized();
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn timing_helpers() {
        let d = time_best_of(3, || 2 + 2);
        assert!(d < Duration::from_secs(1));
        assert!(ms(Duration::from_millis(5)) > 4.9);
    }
}
