//! Design-choice ablations (DESIGN.md A1–A4).
//!
//! * `joinbuffer` — the demonstrator's buffer-size knob (1/64/512/2048) on
//!   Q2.3 and Q4.1 (Appendix A).
//! * `duplicates` — §2.4's segmented duplicate storage vs. the naive linked
//!   list, measured on full duplicate scans.
//! * `kprime` — §2.1's k′ trade-off: insert/lookup time and memory for
//!   k′ ∈ {2, 4, 8}.
//! * `compression` — §2.2's KISS second-level compression: update cost
//!   (copy-on-update) and memory on dense vs. sparse key ranges.
//!
//! ```text
//! cargo run --release -p qppt-bench --bin ablations -- [all|joinbuffer|duplicates|kprime|compression]
//! ```

use qppt_bench::{arg_f64, arg_mode, arg_usize, ms, print_table, time_best_of, time_once, BenchDb};
use qppt_core::PlanOptions;
use qppt_mem::{DupArena, LinkedDupArena, Xoshiro256StarStar};
use qppt_ssb::queries;
use qppt_trie::{PrefixTree, TrieConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let modes = ["all", "joinbuffer", "duplicates", "kprime", "compression"];
    let which = arg_mode(&args, &modes).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    });
    match which {
        "joinbuffer" => joinbuffer(&args),
        "duplicates" => duplicates(&args),
        "kprime" => kprime(&args),
        "compression" => compression(&args),
        _ => {
            // "all", the default.
            joinbuffer(&args);
            duplicates(&args);
            kprime(&args);
            compression(&args);
        }
    }
}

/// A1: join/selection buffer size (demo appendix).
fn joinbuffer(args: &[String]) {
    let sf = arg_f64(args, "--sf", 0.1);
    let runs = arg_usize(args, "--runs", 3);
    eprintln!("A1 joinbuffer: generating SSB (SF={sf}) …");
    let db = BenchDb::prepare(sf, 42);
    println!("\nAblation A1: join/selection buffer size [ms] (SF={sf})");
    let mut rows = Vec::new();
    for q in [queries::q2_3(), queries::q4_1()] {
        let mut row = vec![q.id.clone()];
        for buf in PlanOptions::JOIN_BUFFER_CHOICES {
            let opts = PlanOptions::default().with_join_buffer(buf);
            let t = time_best_of(runs, || db.run_qppt(&q, &opts));
            row.push(format!("{:.2}", ms(t)));
        }
        rows.push(row);
    }
    print_table(&["query", "buf=1", "buf=64", "buf=512", "buf=2048"], &rows);
}

/// A2: segmented duplicate storage (Fig. 4) vs. linked list.
fn duplicates(args: &[String]) {
    let keys = arg_usize(args, "--dupkeys", 2_000);
    let per_key = arg_usize(args, "--dupvalues", 2_000);
    println!(
        "\nAblation A2: duplicate handling — {keys} keys × {per_key} values, interleaved inserts"
    );

    // Interleave inserts across keys so linked-list nodes scatter (the
    // realistic operator pattern: output-index inserts arrive key-mixed).
    let mut rng = Xoshiro256StarStar::new(7);
    let mut order: Vec<u32> = (0..keys as u32)
        .flat_map(|k| std::iter::repeat_n(k, per_key))
        .collect();
    rng.shuffle(&mut order);

    let (t_seg_build, (seg, seg_lists)) = time_once(|| {
        let mut arena = DupArena::<u64>::new();
        let mut lists = vec![None; keys];
        for &k in &order {
            match &mut lists[k as usize] {
                None => lists[k as usize] = Some(arena.new_list(k as u64)),
                Some(l) => arena.push(l, k as u64),
            }
        }
        (arena, lists)
    });
    let (t_lnk_build, (lnk, lnk_lists)) = time_once(|| {
        let mut arena = LinkedDupArena::<u64>::new();
        let mut lists = vec![None; keys];
        for &k in &order {
            match &mut lists[k as usize] {
                None => lists[k as usize] = Some(arena.new_list(k as u64)),
                Some(l) => arena.push(l, k as u64),
            }
        }
        (arena, lists)
    });

    let scan_seg = time_best_of(5, || {
        let mut sum = 0u64;
        for l in seg_lists.iter().flatten() {
            seg.for_each_segment(l, |vals| sum += vals.iter().sum::<u64>());
        }
        sum
    });
    let scan_lnk = time_best_of(5, || {
        let mut sum = 0u64;
        for l in lnk_lists.iter().flatten() {
            sum += lnk.iter(l).sum::<u64>();
        }
        sum
    });

    print_table(
        &["storage", "build ms", "scan ms"],
        &[
            vec![
                "segmented (Fig. 4)".into(),
                format!("{:.2}", ms(t_seg_build)),
                format!("{:.2}", ms(scan_seg)),
            ],
            vec![
                "linked list".into(),
                format!("{:.2}", ms(t_lnk_build)),
                format!("{:.2}", ms(scan_lnk)),
            ],
        ],
    );
    println!(
        "scan speedup of segmented storage: {:.2}x",
        ms(scan_lnk) / ms(scan_seg)
    );
}

/// A3: prefix length k′ trade-off (§2.1).
fn kprime(args: &[String]) {
    let n = arg_usize(args, "--keys", 1_000_000);
    println!("\nAblation A3: prefix length k′ — {n} sparse random 32-bit keys");
    let mut rng = Xoshiro256StarStar::new(3);
    let keys: Vec<u64> = (0..n).map(|_| rng.next_u32() as u64).collect();
    let mut rows = Vec::new();
    for k in [2u8, 4, 8] {
        let (t_ins, tree) = time_once(|| {
            let mut t = PrefixTree::<u32>::new(TrieConfig::new(32, k).unwrap());
            for (i, &key) in keys.iter().enumerate() {
                t.insert_merge(key, i as u32, |acc, v| *acc = v);
            }
            t
        });
        let t_get = time_best_of(3, || {
            let mut found = 0usize;
            for &key in &keys {
                found += tree.get_first(key).is_some() as usize;
            }
            found
        });
        let stats = tree.stats();
        rows.push(vec![
            format!("k'={k}"),
            format!("{:.1}", t_ins.as_nanos() as f64 / n as f64),
            format!("{:.1}", t_get.as_nanos() as f64 / n as f64),
            format!("{}", stats.max_depth + 1),
            format!("{:.1}", stats.total_bytes() as f64 / (1 << 20) as f64),
        ]);
    }
    print_table(
        &[
            "config",
            "insert ns/key",
            "lookup ns/key",
            "max accesses",
            "memory MiB",
        ],
        &rows,
    );
    println!(
        "paper: k'=4 is the standard trade-off; higher k' is faster but bigger on sparse keys"
    );
}

/// A4: KISS second-level compression (§2.2).
fn compression(args: &[String]) {
    use qppt_kiss::{KissConfig, KissTree};
    let n = arg_usize(args, "--keys", 1_000_000);
    println!("\nAblation A4: KISS-Tree L2 compression — {n} keys, dense vs sparse");
    let mut rows = Vec::new();
    for (dist, keys) in [
        ("dense", {
            let mut rng = Xoshiro256StarStar::new(4);
            rng.permutation(n as u32)
        }),
        ("sparse", {
            let mut rng = Xoshiro256StarStar::new(5);
            (0..n).map(|_| rng.next_u32()).collect::<Vec<u32>>()
        }),
    ] {
        for compressed in [false, true] {
            let cfg = KissConfig {
                l1_bits: 26,
                compressed,
            };
            let (t_ins, tree) = time_once(|| {
                let mut t = KissTree::<u32>::new(cfg);
                for (i, &key) in keys.iter().enumerate() {
                    t.insert_merge(key, i as u32, |acc, v| *acc = v);
                }
                t
            });
            let t_get = time_best_of(3, || {
                let mut found = 0usize;
                for &key in &keys {
                    found += tree.get_first(key).is_some() as usize;
                }
                found
            });
            let s = tree.stats();
            rows.push(vec![
                format!(
                    "{dist}/{}",
                    if compressed {
                        "compressed"
                    } else {
                        "uncompressed"
                    }
                ),
                format!("{:.1}", t_ins.as_nanos() as f64 / n as f64),
                format!("{:.1}", t_get.as_nanos() as f64 / n as f64),
                format!("{}", s.copy_updates),
                format!("{:.1}", s.resident_bytes() as f64 / (1 << 20) as f64),
            ]);
        }
    }
    print_table(
        &[
            "workload",
            "insert ns/key",
            "lookup ns/key",
            "RCU copies",
            "memory MiB",
        ],
        &rows,
    );
    println!("paper: QPPT disables compression on dense ranges to avoid the RCU copy overhead");
}
