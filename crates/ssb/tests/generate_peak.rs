//! Generation's peak memory stays near the size of what it generates.
//!
//! The one test in this file runs in a process of its own, so the rise in
//! `VmHWM` (the resident-set high-water mark in `/proc/self/status`) across
//! one `SsbDb::generate` is generation's own transient plus the tables it
//! keeps. Staging every field as a `Value` before encoding peaked at about
//! 4.5× the finished tables at sf 0.05; encoding each row on arrival keeps
//! the peak near the tables themselves.

use qppt_ssb::SsbDb;

/// `VmHWM` in bytes, or `None` where the kernel does not report it.
fn vm_hwm_bytes() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

#[test]
fn generation_peak_is_at_most_twice_the_tables() {
    let Some(before) = vm_hwm_bytes() else {
        eprintln!("skipped: /proc/self/status has no VmHWM on this platform");
        return;
    };
    let ssb = SsbDb::generate(0.05, 42);
    let after = vm_hwm_bytes().expect("VmHWM was readable before generation");
    let tables: usize = ["date", "part", "supplier", "customer", "lineorder"]
        .iter()
        .map(|&name| ssb.db.table(name).unwrap().table().memory_bytes())
        .sum();
    let rise = after.saturating_sub(before);
    let mib = |b: usize| b as f64 / (1 << 20) as f64;
    assert!(
        rise <= 2 * tables,
        "VmHWM rose {:.1} MiB across generation, more than 2x the tables' {:.1} MiB",
        mib(rise),
        mib(tables)
    );
}
