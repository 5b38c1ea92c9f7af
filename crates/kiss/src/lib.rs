//! KISS-Tree (§2.2 of the QPPT paper; Kissinger et al., DaMoN 2012).
//!
//! The KISS-Tree is a prefix-tree-based index specialised for **32-bit
//! keys**: the key is split into exactly two fragments — 26 bits for the
//! first level and 6 bits for the second — so a lookup needs three memory
//! accesses (root slot, second-level node entry, content) instead of the up
//! to 9 of a `k′ = 4` prefix tree.
//!
//! * The root is a directory of 2²⁶ compact 32-bit pointers. Allocating it
//!   eagerly would cost 256 MB, so the paper allocates it *virtually* and
//!   lets the OS map physical 4 KB pages on demand. We obtain the same
//!   behaviour with a zeroed allocation (`vec![0u32; 1 << 26]`): large
//!   zeroed allocations are served by anonymous `mmap`, whose pages are
//!   faulted in lazily at 4 KB granularity (see DESIGN.md, substitutions).
//!   Accounting follows the same rule: [`KissTree::stats`] reports the
//!   touched root pages from a page bitmap kept on insert, so reading a
//!   tree's footprint never walks the directory, however wide its key span.
//! * A root slot holds its node's number, and an uncompressed node `n` is
//!   the 64 slots at `n * 64` of one slot arena, so a lookup is the three
//!   accesses the paper counts: root slot, node entry, content. Node 0 is
//!   a permanent all-empty **sentinel** and an empty root slot reads `0`,
//!   so an absent key costs the same two loads as a present one, with no
//!   branch on the data: [`KissTree::handle`], batched as
//!   [`KissTree::get_handles`]. A key beyond the domain reads the sentinel
//!   too. A compressed tree keeps an empty bitmask node as its sentinel.
//!   [`KissStats::node_bytes`] counts the sentinel: 256 B uncompressed.
//! * Second-level nodes hold 64 entries. The original KISS-Tree compresses
//!   them with a 64-bit occupancy bitmask plus a compact entry array, which
//!   saves memory but forces a copy-on-update (the RCU overhead the paper
//!   mentions); QPPT disables the compression for dense key ranges to trade
//!   memory for in-place updates. Both variants are implemented and
//!   selectable via [`KissConfig`]; Ablation A4 measures the difference.
//! * Because a key is fully determined by its position (26 + 6 = 32 bits),
//!   content entries do **not** store the key — unlike the generalized
//!   prefix tree, where dynamic expansion makes key storage necessary.
//!
//! Like the prefix tree, the KISS-Tree is order-preserving, supports
//! multi-value keys via the segmented duplicate storage of §2.4, offers
//! batched operations (§2.3), and participates in synchronous index scans
//! whose root-level pass is bounded by `max(l.min, r.min) ..=
//! min(l.max, r.max)` (§4.2). There is one cursor shape: the scan kernel
//! ([`kiss_sync_scan_range`]) and the ordered iterator ([`KissTree::range`])
//! both take an inclusive key range — a parallel morsel passes its prefix
//! range, and the full-domain forms ([`kiss_sync_scan`], [`KissTree::iter`])
//! pass `[0, u32::MAX]`.

mod batch;
mod scan;
mod tree;

pub use batch::BatchScratch;
pub use scan::{kiss_intersect, kiss_sync_scan, kiss_sync_scan_range};
pub use tree::{KissIter, KissStats, KissTree, Values};

/// Configuration of a [`KissTree`].
///
/// The second level always resolves 6 bits (64-entry nodes, one cache line
/// of compact pointers — fixed by the KISS-Tree design). The root width is
/// configurable: the paper's 26 bits cover the full 32-bit key domain;
/// smaller roots shrink the virtual footprint for tests at the cost of a
/// smaller key domain (`2^(l1_bits + 6)` keys).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KissConfig {
    /// Bits resolved by the root directory (the paper uses 26; tests may use
    /// fewer to keep virtual footprints tiny). Must be in `6..=26`.
    pub l1_bits: u8,
    /// Whether second-level nodes use the bitmask compression of the
    /// original KISS-Tree (`true`) or QPPT's uncompressed, in-place-updated
    /// variant (`false`).
    pub compressed: bool,
}

impl KissConfig {
    /// The paper's geometry (26/6 split), uncompressed second level — the
    /// variant QPPT uses for its dense intermediate-index keys.
    pub fn paper() -> Self {
        Self {
            l1_bits: 26,
            compressed: false,
        }
    }

    /// The original KISS-Tree: 26/6 split with compressed second level.
    pub fn paper_compressed() -> Self {
        Self {
            l1_bits: 26,
            compressed: true,
        }
    }

    /// Small-root configuration for tests.
    pub fn small(compressed: bool) -> Self {
        Self {
            l1_bits: 10,
            compressed,
        }
    }

    /// Bits resolved by second-level nodes (fixed at 6 by the KISS design).
    #[inline]
    pub fn l2_bits(&self) -> u8 {
        6
    }

    /// Number of root directory slots.
    #[inline]
    pub fn root_slots(&self) -> usize {
        1usize << self.l1_bits
    }

    /// Entries per second-level node (always 64).
    #[inline]
    pub fn node_entries(&self) -> usize {
        64
    }

    /// Exclusive upper bound of the key domain (`None` for the full 32-bit
    /// domain of the paper geometry).
    #[inline]
    pub fn key_limit(&self) -> Option<u32> {
        if self.l1_bits == 26 {
            None
        } else {
            Some(1u32 << (self.l1_bits + 6))
        }
    }

    pub(crate) fn validate(&self) {
        assert!(
            (6..=26).contains(&self.l1_bits),
            "l1_bits must be in 6..=26 (got {})",
            self.l1_bits
        );
    }

    pub(crate) fn check_key(&self, key: u32) {
        if let Some(limit) = self.key_limit() {
            assert!(
                key < limit,
                "key {key:#x} exceeds the {}-bit domain of this root geometry",
                self.l1_bits + 6
            );
        }
    }

    /// Splits a key into (root index, node entry index).
    #[inline]
    pub fn split(&self, key: u32) -> (usize, usize) {
        ((key >> 6) as usize, (key & 63) as usize)
    }

    /// Recombines (root index, node entry index) into the key.
    #[inline]
    pub fn join(&self, root: usize, entry: usize) -> u32 {
        ((root as u32) << 6) | entry as u32
    }
}

#[cfg(test)]
mod config_tests {
    use super::*;

    #[test]
    fn paper_geometry() {
        let c = KissConfig::paper();
        assert_eq!(c.l1_bits, 26);
        assert_eq!(c.l2_bits(), 6);
        assert_eq!(c.root_slots(), 1 << 26);
        assert_eq!(c.node_entries(), 64);
    }

    #[test]
    fn split_join_roundtrip() {
        let c = KissConfig::paper();
        for key in [0u32, 1, 63, 64, u32::MAX, 0xDEAD_BEEF] {
            let (r, e) = c.split(key);
            assert_eq!(c.join(r, e), key);
            assert!(e < 64);
        }
    }

    #[test]
    fn split_is_order_preserving() {
        let c = KissConfig::small(false);
        let keys = [0u32, 5, 1023, 1024, 4096, u32::MAX];
        for &a in &keys {
            for &b in &keys {
                assert_eq!(a < b, c.split(a) < c.split(b));
            }
        }
    }

    #[test]
    #[should_panic(expected = "l1_bits must be in 6..=26")]
    fn invalid_l1_bits_rejected() {
        KissConfig {
            l1_bits: 30,
            compressed: false,
        }
        .validate();
    }
}
