//! Generalized prefix tree (§2.1 of the QPPT paper; Böhm et al., BTW 2011).
//!
//! The prefix tree is an **order-preserving, unbalanced** in-memory index.
//! It splits the binary representation of a key into fragments of an equal
//! prefix length `k′`; each fragment selects a bucket in a node of `2^k′`
//! buckets, so a key has a fixed position in the tree and no rebalancing is
//! ever needed. Thanks to *dynamic expansion*, a key is stored in a content
//! entry at the shallowest level where its fragment path is unique, which is
//! why content entries must store the complete key for comparison.
//!
//! What this crate provides on top of the basic structure, all of which QPPT
//! relies on:
//!
//! * multi-value keys backed by the segmented duplicate storage of §2.4
//!   ([`qppt_mem::DupArena`]);
//! * aggregating inserts ([`PrefixTree::insert_merge`]) — the mechanism that
//!   makes grouping "a side effect" of output indexing (§3);
//! * ordered iteration (the tree *is* the sort order) through one cursor,
//!   [`RangeIter`] — a full iteration is the range over the whole domain;
//! * batch lookups and inserts with software prefetching (§2.3, Alg. 1);
//! * the **synchronous index scan** (§4.2), [`sync_scan_range`]: a structural
//!   co-scan of two trees that skips every subtree not populated on both
//!   sides or outside the requested key range — the join/set-op kernel of
//!   QPPT. It exists once: a parallel morsel passes its prefix range, a
//!   sequential scan ([`sync_scan`]) passes `[0, u64::MAX]`;
//! * set operators (intersect / distinct union) built on the synchronous
//!   scan, used for multi-predicate selections (§4.1).

mod batch;
mod iter;
mod scan;
mod stats;
mod tree;

pub use batch::BatchScratch;
pub use iter::RangeIter;
pub use scan::{intersect, sync_scan, sync_scan_range, sync_union_scan, union_distinct};
pub use stats::TrieStats;
pub use tree::{PrefixTree, Values};

/// Errors from tree construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrieError {
    /// `k′` must be in `1..=16`.
    InvalidKPrime(u8),
    /// Key width must be in `1..=64` and a multiple of `k′`.
    InvalidKeyBits { key_bits: u8, kprime: u8 },
}

impl core::fmt::Display for TrieError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TrieError::InvalidKPrime(k) => {
                write!(f, "invalid prefix length k'={k} (must be 1..=16)")
            }
            TrieError::InvalidKeyBits { key_bits, kprime } => write!(
                f,
                "key width {key_bits} must be in 1..=64 and a multiple of k'={kprime}"
            ),
        }
    }
}

impl std::error::Error for TrieError {}

/// Static configuration of a [`PrefixTree`]: key width and prefix length.
///
/// The paper finds `k′ = 4` to be the best general trade-off between memory
/// accesses per key and memory consumption (§2.1); Ablation A3 re-measures
/// that trade-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrieConfig {
    key_bits: u8,
    kprime: u8,
}

impl TrieConfig {
    /// Creates a configuration, validating that `kprime ∈ 1..=16` and that
    /// it divides `key_bits ∈ 1..=64`.
    pub fn new(key_bits: u8, kprime: u8) -> Result<Self, TrieError> {
        if kprime == 0 || kprime > 16 {
            return Err(TrieError::InvalidKPrime(kprime));
        }
        if key_bits == 0 || key_bits > 64 || !key_bits.is_multiple_of(kprime) {
            return Err(TrieError::InvalidKeyBits { key_bits, kprime });
        }
        Ok(Self { key_bits, kprime })
    }

    /// The paper's default: 32-bit keys, `k′ = 4` ("PT4").
    pub fn pt4_32() -> Self {
        Self {
            key_bits: 32,
            kprime: 4,
        }
    }

    /// 64-bit keys, `k′ = 4` (used for composite keys).
    pub fn pt4_64() -> Self {
        Self {
            key_bits: 64,
            kprime: 4,
        }
    }

    /// Key width in bits.
    #[inline]
    pub fn key_bits(&self) -> u8 {
        self.key_bits
    }

    /// Fragment width `k′` in bits.
    #[inline]
    pub fn kprime(&self) -> u8 {
        self.kprime
    }

    /// Buckets per node (`2^k′`).
    #[inline]
    pub fn fanout(&self) -> usize {
        1usize << self.kprime
    }

    /// Maximum tree depth (`key_bits / k′`).
    #[inline]
    pub fn levels(&self) -> u32 {
        (self.key_bits / self.kprime) as u32
    }

    /// Upper bound (exclusive) of the key domain; `None` if the full `u64`
    /// domain is allowed.
    #[inline]
    pub fn key_limit(&self) -> Option<u64> {
        if self.key_bits == 64 {
            None
        } else {
            Some(1u64 << self.key_bits)
        }
    }

    /// Extracts the fragment of `key` for `level` (level 0 = most
    /// significant fragment, so bucket order equals key order).
    #[inline]
    pub fn fragment(&self, key: u64, level: u32) -> usize {
        let shift = self.key_bits as u32 - (level + 1) * self.kprime as u32;
        ((key >> shift) as usize) & (self.fanout() - 1)
    }
}

#[cfg(test)]
mod config_tests {
    use super::*;

    #[test]
    fn valid_configs() {
        for (bits, k) in [
            (32, 4),
            (64, 4),
            (32, 8),
            (64, 8),
            (32, 2),
            (16, 16),
            (64, 1),
        ] {
            let c = TrieConfig::new(bits, k).unwrap();
            assert_eq!(c.levels() * k as u32, bits as u32);
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(matches!(
            TrieConfig::new(32, 0),
            Err(TrieError::InvalidKPrime(0))
        ));
        assert!(matches!(
            TrieConfig::new(32, 17),
            Err(TrieError::InvalidKPrime(17))
        ));
        assert!(matches!(
            TrieConfig::new(0, 4),
            Err(TrieError::InvalidKeyBits { .. })
        ));
        assert!(matches!(
            TrieConfig::new(30, 4),
            Err(TrieError::InvalidKeyBits { .. })
        ));
        assert!(matches!(
            TrieConfig::new(65, 1),
            Err(TrieError::InvalidKeyBits { .. })
        ));
    }

    #[test]
    fn fragments_msb_first() {
        let c = TrieConfig::pt4_32();
        let key = 0xABCD_1234u64;
        assert_eq!(c.fragment(key, 0), 0xA);
        assert_eq!(c.fragment(key, 1), 0xB);
        assert_eq!(c.fragment(key, 7), 0x4);
    }

    #[test]
    fn key_limit() {
        assert_eq!(TrieConfig::pt4_32().key_limit(), Some(1 << 32));
        assert_eq!(TrieConfig::pt4_64().key_limit(), None);
    }
}
