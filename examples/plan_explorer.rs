//! The demonstrator of the paper's appendix (Fig. 10), as a CLI: pick an
//! SSB query, toggle the optimization options, and inspect the generated
//! QPPT plan plus per-operator execution statistics.
//!
//! ```text
//! cargo run --release --example plan_explorer -- --query Q2.3 \
//!     [--select-join on|off] [--buffer 1|64|512|2048] [--ways 2..5] \
//!     [--kiss on|off] [--sf 0.02]
//! ```

use qppt::core::{prepare_indexes, PlanOptions, QpptEngine};
use qppt::ssb::{queries, SsbDb};

fn arg(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let query_id = arg(&args, "--query").unwrap_or_else(|| "Q2.3".to_string());
    let sf: f64 = arg(&args, "--sf")
        .map(|v| v.parse().unwrap())
        .unwrap_or(0.02);
    let select_join = !matches!(arg(&args, "--select-join").as_deref(), Some("off"));
    let buffer: usize = arg(&args, "--buffer")
        .map(|v| v.parse().unwrap())
        .unwrap_or(512);
    let ways: usize = arg(&args, "--ways")
        .map(|v| v.parse().unwrap())
        .unwrap_or(5);
    let kiss = !matches!(arg(&args, "--kiss").as_deref(), Some("off"));

    let spec = queries::all_queries()
        .into_iter()
        .find(|q| q.id.eq_ignore_ascii_case(&query_id))
        .unwrap_or_else(|| {
            eprintln!("unknown query {query_id}; available:");
            for q in queries::all_queries() {
                eprintln!("  {}", q.id);
            }
            std::process::exit(1);
        });

    let opts = PlanOptions::default()
        .with_select_join(select_join)
        .with_join_buffer(buffer)
        .with_max_join_ways(ways)
        .with_prefer_kiss(kiss);

    eprintln!("generating SSB at SF={sf} and building base indexes …");
    let mut ssb = SsbDb::generate(sf, 42);
    prepare_indexes(&mut ssb.db, &spec, &opts).unwrap();
    let engine = QpptEngine::new(&ssb.db);

    // The plan view.
    println!("{}", engine.explain(&spec, &opts).unwrap());

    // Execute; statistics mirror what the demonstrator overlays on the plan:
    // per-operator time share, output index sizes and types.
    let (result, stats) = engine.run_with_stats(&spec, &opts).unwrap();
    println!("{stats}");
    println!("result ({} rows):", result.rows.len());
    let mut shown = result.clone();
    shown.rows.truncate(15);
    println!("{}", shown.to_pretty_string());
    if result.rows.len() > 15 {
        println!("… {} more rows", result.rows.len() - 15);
    }
}
