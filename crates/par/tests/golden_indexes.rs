//! Pins every base index the 13 SSB queries build, bit for bit.
//!
//! Each constant is an FNV-1a hash over one instance's base indexes, in
//! catalog order: the table, key and carried columns, the payload's lane
//! width and row count, `memory_bytes`, the ordered `(key, id)` scan of
//! the tree and every payload row. The sequential and the pooled build
//! must both land on it, for the unsharded instance and for both halves
//! of a two-way shard split. A change to the build that moves any bit of
//! any index — its order, its layout, its footprint — fails here.

use qppt_core::PlanOptions;
use qppt_par::{prepare_indexes_pooled, WorkerPool};
use qppt_ssb::{queries, SsbDb};
use qppt_storage::Database;

const SF: f64 = 0.01;
const SEED: u64 = 42;

/// `(shard, shards)` → the hash of the instance's base indexes.
const GOLDEN: [((usize, usize), u64); 3] = [
    ((0, 1), 0xdf3f_237e_9dc5_1f2c),
    ((0, 2), 0x0f7a_2623_4650_e801),
    ((1, 2), 0xa59f_662d_a1d6_8635),
];

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn index_hash(db: &Database) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for idx in db.indexes() {
        h.word(idx.table_idx as u64);
        h.word(idx.key_cols.len() as u64);
        idx.key_cols.iter().for_each(|&c| h.word(c as u64));
        h.word(idx.carried.len() as u64);
        idx.carried.iter().for_each(|&c| h.word(c as u64));
        let payload = &idx.data.payload;
        h.word(payload.lane_bytes() as u64);
        h.word(payload.len() as u64);
        h.word(idx.data.memory_bytes() as u64);
        idx.data.index.for_each(|key, id| {
            h.word(key);
            h.word(id as u64);
        });
        for id in 0..payload.len() as u32 {
            let row = payload.row(id);
            (0..row.len()).for_each(|i| h.word(row.get(i)));
        }
    }
    h.0
}

fn built(
    shard: usize,
    shards: usize,
    opts: &PlanOptions,
    pool: &std::sync::Arc<WorkerPool>,
) -> u64 {
    let mut ssb = SsbDb::generate_shard(SF, SEED, shard, shards);
    for q in queries::all_queries() {
        prepare_indexes_pooled(&mut ssb.db, &q, opts, pool).unwrap();
    }
    index_hash(&ssb.db)
}

#[test]
fn sequential_and_pooled_builds_match_the_golden_hashes() {
    let pool = WorkerPool::new(2, 4);
    let sequential = PlanOptions::default();
    let pooled = sequential.with_par_index_build(true).with_parallelism(2);
    for ((shard, shards), want) in GOLDEN {
        for (name, opts) in [("sequential", &sequential), ("pooled", &pooled)] {
            let got = built(shard, shards, opts, &pool);
            assert_eq!(
                got, want,
                "{name} build of shard {shard}/{shards}: {got:#018x}"
            );
        }
    }
    pool.shutdown();
}
