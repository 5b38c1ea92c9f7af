//! The `write_refresh` loop: no TCP. Each cycle inserts a seeded batch into
//! `lineorder` (maintaining every fact index), rebuilds the engine over the
//! *same* query cache, and runs the 13 named queries once. The version bump
//! invalidates every result entry while dimension σ entries keep hitting.

use std::sync::Arc;
use std::time::{Duration, Instant};

use qppt_ssb::{queries, run_reference};

use crate::deploy::{defaults, Deployment};
use crate::load::WindowResult;
use crate::trace::Recorder;
use crate::workloads::{insert_rows, named, Rng};

pub const CYCLE: &str = "cycle";
pub const INSERT: &str = "storage.insert";
pub const REBUILD: &str = "server.rebuild";
pub const ENGINE: &str = "server.engine";

/// Totals of the traced cycles, for the per-layer metrics.
#[derive(Debug, Default)]
pub struct WriteTotals {
    pub insert_ns: u64,
    pub rows_inserted: u64,
}

/// Runs cycles for `seconds`. With `rec`, every other cycle records its
/// spans (and its query latencies count as traced), so traced and untraced
/// cycles see the same growing database.
pub fn run_window(
    dep: &mut Deployment,
    seed: u64,
    batch: usize,
    rec: Option<&Recorder>,
    seconds: f64,
) -> (WindowResult, WriteTotals) {
    let pool = dep.pool.clone();
    let state = dep.write.as_mut().expect("write_refresh deployment");
    let mut rng = Rng::new(seed);
    let mut names = named();
    let mut next_key = 1i64 << 40;
    let mut out = WindowResult::default();
    let mut totals = WriteTotals::default();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let mut cycle = 0u64;
    let mut now = t0;
    while now < deadline {
        let traced = rec.filter(|_| cycle % 2 == 1);
        let id = cycle + 1000;
        // Recorder time of the traced cycles' spans (unused otherwise).
        let stamp = || traced.map_or(0, Recorder::now);
        let rows = insert_rows(&mut rng, &state.db, batch, &mut next_key);
        rng.shuffle(&mut names);

        let c0 = stamp();
        let insert_started = Instant::now();
        let db = Arc::get_mut(&mut state.db).expect("no engine holds the database between cycles");
        for row in &rows {
            db.insert_row("lineorder", row)
                .expect("copied fact row inserts");
        }
        let insert_ns = insert_started.elapsed().as_nanos() as u64;
        let c1 = stamp();
        let engine = state.engine(&pool);
        let c2 = stamp();
        for name in &names {
            out.attempted += 1;
            let q0 = stamp();
            let sent = Instant::now();
            let answer = engine.run(name, &defaults(), 0);
            let ns = sent.elapsed().as_nanos() as u64;
            match answer {
                Ok(_) if traced.is_some() => out.traced_latencies_ns.push(ns),
                Ok(_) => out.latencies_ns.push(ns),
                Err(_) => out.failed += 1,
            }
            if let Some(r) = traced {
                r.record(id, ENGINE, Some(CYCLE), q0, r.now());
            }
        }
        drop(engine);
        now = Instant::now();
        if let Some(r) = traced {
            r.record(id, CYCLE, None, c0, r.now());
            r.record(id, INSERT, Some(CYCLE), c0, c1);
            r.record(id, REBUILD, Some(CYCLE), c1, c2);
            totals.insert_ns += insert_ns;
            totals.rows_inserted += rows.len() as u64;
        }
        cycle += 1;
    }
    out.window_s = (now - t0).as_secs_f64();
    (out, totals)
}

/// Byte-verification at the final version: every named query through a
/// fresh engine against `ssb::reference::run_reference` on the same
/// database. Returns the number of mismatches.
pub fn verify(dep: &Deployment) -> u64 {
    let state = dep.write.as_ref().expect("write_refresh deployment");
    let engine = state.engine(&dep.pool);
    let snap = state.db.snapshot();
    let mut mismatches = 0;
    for q in &queries::all_queries() {
        let expected = run_reference(&state.db, q, snap).expect("reference runs");
        match engine.run(&q.id.to_ascii_lowercase(), &defaults(), 0) {
            Ok((got, _)) if got.clone().canonicalized() == expected.canonicalized() => {}
            _ => {
                eprintln!("MISMATCH against the reference executor: {}", q.id);
                mismatches += 1;
            }
        }
    }
    mismatches
}
