//! Golden hashes of the generated SSB tables.
//!
//! Each table is folded into one 64-bit FNV-1a hash over its name, row
//! count, memory footprint, every encoded row, and every column's
//! statistics and dictionary values. The constants were recorded from the
//! two-phase `TableBuilder` (stage every `Value`, then build dictionaries),
//! so any builder that reproduces them yields the same tables bit for bit.

use qppt_ssb::SsbDb;
use qppt_storage::Table;

const TABLES: [&str; 5] = ["date", "part", "supplier", "customer", "lineorder"];

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn word(h: &mut u64, v: u64) {
    fnv(h, &v.to_le_bytes());
}

fn table_hash(t: &Table) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv(&mut h, t.name().as_bytes());
    word(&mut h, t.row_count() as u64);
    word(&mut h, t.memory_bytes() as u64);
    for rid in 0..t.row_count() as u32 {
        for &code in t.row(rid) {
            word(&mut h, code);
        }
    }
    for c in 0..t.schema().width() {
        let s = t.stats(c);
        word(&mut h, s.min);
        word(&mut h, s.max);
        for v in t.dict(c).map_or(&[][..], |d| d.values()) {
            word(&mut h, v.len() as u64);
            fnv(&mut h, v.as_bytes());
        }
    }
    h
}

fn hashes(ssb: &SsbDb) -> Vec<(&'static str, u64)> {
    TABLES
        .iter()
        .map(|&name| (name, table_hash(ssb.db.table(name).unwrap().table())))
        .collect()
}

/// `date`, `part`, `supplier` and `customer` at sf 0.01, seed 42: every
/// shard replicates the dimensions in full, so all instances share these.
const DIMENSIONS: [u64; 4] = [
    9133471576182673807,
    7155040578750414140,
    7154043765421187832,
    3900242411755682773,
];

fn check(ssb: &SsbDb, lineorder: u64) {
    let got = hashes(ssb);
    let mut golden = DIMENSIONS.to_vec();
    golden.push(lineorder);
    let want: Vec<(&str, u64)> = TABLES.iter().copied().zip(golden).collect();
    assert_eq!(
        got, want,
        "shard {:?}: table hashes differ from the golden ones",
        ssb.shard
    );
}

#[test]
fn unsharded_tables_match_golden_hashes() {
    check(&SsbDb::generate(0.01, 42), 13195567886727887271);
}

#[test]
fn shard_tables_match_golden_hashes() {
    check(&SsbDb::generate_shard(0.01, 42, 0, 2), 16010497120160661039);
    check(&SsbDb::generate_shard(0.01, 42, 1, 2), 12194922161456866203);
}
