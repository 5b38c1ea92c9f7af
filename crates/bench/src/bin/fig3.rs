//! Figure 3: insert/update and lookup time per key for the prefix tree
//! (k′ = 4), the two hash tables (GLib-like chained, Boost-like open
//! addressing), the KISS-Tree, and the batched KISS-Tree.
//!
//! Paper workload: keys "randomly picked from a sequential key range" at
//! 1M/16M/64M keys. Defaults here are 100K/1M/4M (override with
//! `--keys 1000000,16000000,64000000`).
//!
//! ```text
//! cargo run --release -p qppt-bench --bin fig3 -- [insert|lookup|both] [--keys a,b,c]
//! ```

use qppt_bench::{arg_mode, arg_usize_list, print_table, time_once};
use qppt_hash::{ChainedHashMap, OpenHashMap};
use qppt_kiss::{KissConfig, KissTree};
use qppt_mem::Xoshiro256StarStar;
use qppt_trie::PrefixTree;

const BATCH: usize = 2048;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = arg_mode(&args, &["both", "insert", "lookup"]).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    let sizes = arg_usize_list(&args, "--keys", &[100_000, 1_000_000, 4_000_000]);

    if mode == "insert" || mode == "both" {
        run_insert(&sizes);
    }
    if mode == "lookup" || mode == "both" {
        run_lookup(&sizes);
    }
}

/// Dense random key stream: a shuffled permutation of `0..n` (plus repeats
/// for the update part of "insert/update").
fn key_stream(n: usize, seed: u64) -> Vec<u32> {
    let mut rng = Xoshiro256StarStar::new(seed);
    rng.permutation(n as u32)
}

fn per_key_ns(total: std::time::Duration, n: usize) -> String {
    format!("{:.1}", total.as_nanos() as f64 / n as f64)
}

fn run_insert(sizes: &[usize]) {
    println!("\nFigure 3(a): insert/update time per key [ns] (paper: µs axis, 1M-64M keys)");
    let mut rows = Vec::new();
    for &n in sizes {
        let keys = key_stream(n, 42);
        let (d_pt, _) = time_once(|| {
            let mut t = PrefixTree::<u32>::pt4_32();
            for (i, &k) in keys.iter().enumerate() {
                t.insert_merge(k as u64, i as u32, |acc, v| *acc = v);
            }
            t.len()
        });
        let (d_glib, _) = time_once(|| {
            let mut t = ChainedHashMap::<u32>::new();
            for (i, &k) in keys.iter().enumerate() {
                t.insert(k as u64, i as u32);
            }
            t.len()
        });
        let (d_boost, _) = time_once(|| {
            let mut t = OpenHashMap::<u32>::new();
            for (i, &k) in keys.iter().enumerate() {
                t.insert(k as u64, i as u32);
            }
            t.len()
        });
        let (d_kiss, _) = time_once(|| {
            let mut t = KissTree::<u32>::new(KissConfig::paper());
            for (i, &k) in keys.iter().enumerate() {
                t.insert_merge(k, i as u32, |acc, v| *acc = v);
            }
            t.len()
        });
        let (d_kiss_b, _) = time_once(|| {
            let mut t = KissTree::<u32>::new(KissConfig::paper());
            let pairs: Vec<(u32, u32)> = keys
                .iter()
                .enumerate()
                .map(|(i, &k)| (k, i as u32))
                .collect();
            for chunk in pairs.chunks(BATCH) {
                t.batch_insert(chunk);
            }
            t.len()
        });
        rows.push(vec![
            format!("{n}"),
            per_key_ns(d_pt, n),
            per_key_ns(d_glib, n),
            per_key_ns(d_boost, n),
            per_key_ns(d_kiss, n),
            per_key_ns(d_kiss_b, n),
        ]);
    }
    print_table(
        &[
            "keys",
            "PT4",
            "GLIB(chained)",
            "BOOST(open)",
            "KISS",
            "KISS batched",
        ],
        &rows,
    );
}

fn run_lookup(sizes: &[usize]) {
    println!("\nFigure 3(b): lookup time per key [ns]");
    let mut rows = Vec::new();
    for &n in sizes {
        let keys = key_stream(n, 42);
        let probes = key_stream(n, 99); // random order over the same range

        let mut pt = PrefixTree::<u32>::pt4_32();
        let mut glib = ChainedHashMap::<u32>::new();
        let mut boost = OpenHashMap::<u32>::new();
        let mut kiss = KissTree::<u32>::new(KissConfig::paper());
        for (i, &k) in keys.iter().enumerate() {
            pt.insert_merge(k as u64, i as u32, |acc, v| *acc = v);
            glib.insert(k as u64, i as u32);
            boost.insert(k as u64, i as u32);
            kiss.insert_merge(k, i as u32, |acc, v| *acc = v);
        }

        let (d_pt, found_pt) = time_once(|| {
            let mut found = 0usize;
            for &k in &probes {
                found += pt.get_first(k as u64).is_some() as usize;
            }
            found
        });
        let (d_glib, _) = time_once(|| {
            let mut found = 0usize;
            for &k in &probes {
                found += glib.get(k as u64).is_some() as usize;
            }
            found
        });
        let (d_boost, _) = time_once(|| {
            let mut found = 0usize;
            for &k in &probes {
                found += boost.get(k as u64).is_some() as usize;
            }
            found
        });
        let (d_kiss, _) = time_once(|| {
            let mut found = 0usize;
            for &k in &probes {
                found += kiss.get_first(k).is_some() as usize;
            }
            found
        });
        let (d_kiss_b, _) = time_once(|| {
            let mut found = 0usize;
            for chunk in probes.chunks(BATCH) {
                for v in kiss.batch_get_first(chunk) {
                    found += v.is_some() as usize;
                }
            }
            found
        });
        assert_eq!(found_pt, n, "dense permutation: every probe hits");

        rows.push(vec![
            format!("{n}"),
            per_key_ns(d_pt, n),
            per_key_ns(d_glib, n),
            per_key_ns(d_boost, n),
            per_key_ns(d_kiss, n),
            per_key_ns(d_kiss_b, n),
        ]);
    }
    print_table(
        &[
            "keys",
            "PT4",
            "GLIB(chained)",
            "BOOST(open)",
            "KISS",
            "KISS batched",
        ],
        &rows,
    );
}
