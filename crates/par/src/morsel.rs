//! Morsel partitioning: splitting a prefix-tree key domain into top-level
//! prefix ranges.
//!
//! A *morsel* is one contiguous, prefix-aligned key range of the stage-1
//! join attribute. Because both the generalized prefix tree and the
//! KISS-Tree resolve the **most significant** key bits first, a range whose
//! bounds are aligned to the top `morsel_bits` bits corresponds to a set of
//! whole subtrees — the range-restricted scan kernels
//! ([`qppt_storage::sync_scan_indexes_range`] over
//! `qppt_trie::sync_scan_range` / `qppt_kiss::kiss_sync_scan_range`, the
//! only scan kernels there are) descend only into those subtrees, so
//! per-morsel work is proportional to the morsel's population. A query
//! allowed a single worker skips the partitioning: its one morsel is
//! [`KeyRange::full`].

use qppt_core::KeyRange;

/// Splits a key domain into prefix-aligned [`KeyRange`] morsels.
#[derive(Debug, Clone)]
pub struct Partitioner {
    morsels: Vec<KeyRange>,
}

impl Partitioner {
    /// Partitions `[0, max_key]` on the top `morsel_bits` bits of the
    /// domain, keeping only morsels that intersect the populated interval
    /// `[min_key, max_key]`. Yields at most `2^morsel_bits` morsels; the
    /// union of the returned ranges covers `[min_key, max_key]` exactly,
    /// and the ranges are disjoint and ascending.
    pub fn new(min_key: u64, max_key: u64, morsel_bits: u8) -> Self {
        debug_assert!((1..=16).contains(&morsel_bits), "validated by PlanOptions");
        debug_assert!(min_key <= max_key);
        // Bits needed to address the domain; at least `morsel_bits` so a
        // morsel spans at least one key.
        let domain_bits = (64 - max_key.leading_zeros()).max(morsel_bits as u32);
        let span_bits = domain_bits - morsel_bits as u32;
        let mut morsels = Vec::with_capacity(1 << morsel_bits);
        for m in 0..(1u64 << morsel_bits) {
            let lo = m << span_bits;
            // `(m+1) << span_bits` can be 2^64 on the last morsel of a
            // 64-bit domain; the wrap yields exactly u64::MAX after -1.
            let hi = ((m + 1) << span_bits).wrapping_sub(1);
            if hi < min_key {
                continue;
            }
            if lo > max_key {
                break;
            }
            morsels.push(KeyRange { lo, hi });
        }
        Self { morsels }
    }

    /// The morsels, in ascending key order.
    pub fn morsels(&self) -> &[KeyRange] {
        &self.morsels
    }

    /// Number of morsels.
    pub fn len(&self) -> usize {
        self.morsels.len()
    }

    /// `true` if no morsel intersects the populated domain.
    pub fn is_empty(&self) -> bool {
        self.morsels.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_tiles(p: &Partitioner, min: u64, max: u64) {
        let ms = p.morsels();
        assert!(!ms.is_empty());
        assert!(ms[0].lo <= min);
        assert!(ms[ms.len() - 1].hi >= max);
        for w in ms.windows(2) {
            assert_eq!(w[0].hi + 1, w[1].lo, "disjoint and contiguous");
        }
    }

    #[test]
    fn partitions_small_domain() {
        let p = Partitioner::new(0, 1023, 4);
        assert_eq!(p.len(), 16);
        assert_eq!(p.morsels()[0], KeyRange { lo: 0, hi: 63 });
        assert_eq!(p.morsels()[15], KeyRange { lo: 960, hi: 1023 });
        assert_tiles(&p, 0, 1023);
    }

    #[test]
    fn partitions_unaligned_domain() {
        // max_key = 1000 → domain_bits = 10, same spans as a 1024 domain,
        // but the last morsel (lo > 1000 excluded) set is trimmed.
        let p = Partitioner::new(0, 1000, 4);
        assert_eq!(p.len(), 16);
        assert_tiles(&p, 0, 1000);
    }

    #[test]
    fn skips_morsels_below_min() {
        let p = Partitioner::new(900, 1023, 4);
        assert!(p.len() <= 2);
        assert!(p.morsels()[0].hi >= 900);
        assert_tiles(&p, 900, 1023);
    }

    #[test]
    fn full_64bit_domain_wraps_cleanly() {
        let p = Partitioner::new(0, u64::MAX, 6);
        assert_eq!(p.len(), 64);
        assert_eq!(p.morsels()[63].hi, u64::MAX);
        assert_tiles(&p, 0, u64::MAX);
    }

    #[test]
    fn tiny_domain_degenerates_to_single_keys() {
        // domain_bits clamps to morsel_bits: each morsel is one key.
        let p = Partitioner::new(0, 3, 4);
        assert_eq!(p.len(), 4);
        for (i, m) in p.morsels().iter().enumerate() {
            assert_eq!((m.lo, m.hi), (i as u64, i as u64));
        }
    }

    #[test]
    fn singleton_domain() {
        let p = Partitioner::new(7, 7, 8);
        assert_eq!(p.len(), 1);
        assert!(p.morsels()[0].contains(7));
    }
}
