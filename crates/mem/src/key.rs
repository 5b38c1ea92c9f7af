//! Order-preserving key normalisation and composite keys.
//!
//! Prefix trees are order-preserving *on the binary representation of the
//! key* (§2.1), so every attribute value must be normalised to an unsigned
//! integer whose numeric order equals the attribute's logical order:
//!
//! * unsigned ints are used as-is;
//! * signed ints get their sign bit flipped ([`encode_i64`]);
//! * strings are replaced by codes from a sorted dictionary (built in
//!   `qppt-storage`), which is order-preserving because SSB string domains
//!   are known at load time.
//!
//! Composite keys ("year & brand1" in Fig. 5) pack several codes into one
//! `u64`, most-significant part first, so the tree's key order equals the
//! lexicographic order of the parts.

/// Maps `i64` to `u64` such that `a < b ⇔ encode(a) < encode(b)`.
#[inline]
pub fn encode_i64(v: i64) -> u64 {
    (v as u64) ^ (1u64 << 63)
}

/// Inverse of [`encode_i64`].
#[inline]
pub fn decode_i64(v: u64) -> i64 {
    (v ^ (1u64 << 63)) as i64
}

/// Packs two 32-bit codes into one 64-bit key, `hi` being more significant.
#[inline]
pub fn compose2(hi: u32, lo: u32) -> u64 {
    ((hi as u64) << 32) | lo as u64
}

/// Inverse of [`compose2`].
#[inline]
pub fn split2(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

/// Error raised when a composite key cannot be built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyPackError {
    /// The sum of the part widths exceeds 64 bits.
    TooWide { total_bits: u32 },
    /// A part value does not fit its declared width.
    PartOverflow { part: usize, value: u64, bits: u8 },
    /// The number of values does not match the number of parts.
    ArityMismatch { expected: usize, got: usize },
}

impl core::fmt::Display for KeyPackError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            KeyPackError::TooWide { total_bits } => {
                write!(f, "composite key needs {total_bits} bits, max is 64")
            }
            KeyPackError::PartOverflow { part, value, bits } => {
                write!(f, "part {part} value {value} does not fit in {bits} bits")
            }
            KeyPackError::ArityMismatch { expected, got } => {
                write!(f, "expected {expected} key parts, got {got}")
            }
        }
    }
}

impl std::error::Error for KeyPackError {}

/// Bit width of a key part whose largest value is `max` (at least one bit).
#[inline]
pub fn key_bits(max: u64) -> u8 {
    (64 - max.leading_zeros()).max(1) as u8
}

/// Bit-packs a fixed sequence of parts into a `u64`, order-preserving with
/// respect to lexicographic part order — the one key format of multi-column
/// base indexes (§4.1) and composed group-by keys (§3). A one-part packer is
/// the identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyPacker {
    /// `(shift, mask)` per part, most significant part first.
    fields: Vec<(u8, u64)>,
    total_bits: u8,
}

impl KeyPacker {
    /// Creates a packer for parts of the given bit widths (first part is the
    /// most significant). Fails if the widths sum to more than 64 bits or if
    /// any width is 0.
    pub fn new(widths: &[u8]) -> Result<Self, KeyPackError> {
        let total: u32 = widths.iter().map(|&w| w as u32).sum();
        if total > 64 {
            return Err(KeyPackError::TooWide { total_bits: total });
        }
        assert!(
            widths.iter().all(|&w| w > 0),
            "zero-width key parts are meaningless"
        );
        let mut used = 0u8;
        let fields = widths
            .iter()
            .map(|&w| {
                used += w;
                (total as u8 - used, u64::MAX >> (64 - w))
            })
            .collect();
        Ok(Self {
            fields,
            total_bits: total as u8,
        })
    }

    /// Number of parts.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// Total key width in bits; keys fit in `total_bits()` low bits.
    pub fn total_bits(&self) -> u8 {
        self.total_bits
    }

    /// Largest key the packer can produce (every part at its maximum).
    pub fn max_key(&self) -> u64 {
        u64::MAX
            .checked_shr(64 - self.total_bits as u32)
            .unwrap_or(0)
    }

    /// Packs `parts` into a key, checking the part count and that every
    /// part fits its width (allocation-free: index maintenance runs this
    /// per inserted row).
    pub fn pack(&self, parts: impl IntoIterator<Item = u64>) -> Result<u64, KeyPackError> {
        let mut parts = parts.into_iter();
        let mut key = 0u64;
        for (i, &(shift, mask)) in self.fields.iter().enumerate() {
            let Some(v) = parts.next() else {
                return Err(KeyPackError::ArityMismatch {
                    expected: self.arity(),
                    got: i,
                });
            };
            if v > mask {
                return Err(KeyPackError::PartOverflow {
                    part: i,
                    value: v,
                    bits: mask.count_ones() as u8,
                });
            }
            key |= v << shift;
        }
        match parts.count() {
            0 => Ok(key),
            extra => Err(KeyPackError::ArityMismatch {
                expected: self.arity(),
                got: self.arity() + extra,
            }),
        }
    }

    /// [`pack`](Self::pack) without the checks, for parts the caller knows
    /// to fit (the join-group inner loop: the widths were derived from the
    /// very columns the parts are read from). An oversize part would bleed
    /// into its more significant neighbours.
    #[inline]
    pub fn pack_fitting(&self, parts: impl IntoIterator<Item = u64>) -> u64 {
        self.fields
            .iter()
            .zip(parts)
            .fold(0, |key, (&(shift, mask), v)| {
                debug_assert!(v <= mask, "part {v} exceeds mask {mask:#x}");
                key | v << shift
            })
    }

    /// The key range covered by inclusive per-part `[lo, hi]` bounds on a
    /// *prefix* of the parts; the remaining parts span their whole width
    /// (no bounds at all = every key). The range is exactly the conjunction
    /// when every bound but the last is a point (`lo == hi`) — the
    /// composite-prefix rule, which callers enforce. Bounds are clamped to
    /// their part's width; `None` means nothing storable can match (an
    /// empty bound, or one that starts beyond its part's width).
    pub fn pack_range(&self, bounds: &[(u64, u64)]) -> Option<(u64, u64)> {
        assert!(bounds.len() <= self.arity(), "more bounds than key parts");
        let (mut lo_key, mut hi_key) = (0u64, self.max_key());
        for (&(lo, hi), &(shift, mask)) in bounds.iter().zip(&self.fields) {
            if lo > hi || lo > mask {
                return None;
            }
            lo_key |= lo << shift;
            // Lower this part of `hi_key` from all-ones to `hi`.
            hi_key -= (mask - hi.min(mask)) << shift;
        }
        Some((lo_key, hi_key))
    }

    /// Part `i` of a packed key.
    #[inline]
    pub fn part(&self, key: u64, i: usize) -> u64 {
        let (shift, mask) = self.fields[i];
        (key >> shift) & mask
    }

    /// Unpacks a key into its parts.
    pub fn unpack(&self, key: u64) -> Vec<u64> {
        (0..self.arity()).map(|i| self.part(key, i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn i64_encoding_is_order_preserving() {
        let samples = [i64::MIN, -1_000_000, -1, 0, 1, 42, i64::MAX];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(a < b, encode_i64(a) < encode_i64(b), "{a} vs {b}");
                assert_eq!(decode_i64(encode_i64(a)), a);
            }
        }
    }

    #[test]
    fn compose2_roundtrip_and_order() {
        assert_eq!(split2(compose2(7, 9)), (7, 9));
        // (1, 5) < (2, 0) lexicographically and numerically.
        assert!(compose2(1, 5) < compose2(2, 0));
        assert!(compose2(1, 5) < compose2(1, 6));
    }

    #[test]
    fn packer_roundtrip() {
        let p = KeyPacker::new(&[16, 16, 16]).unwrap();
        let key = p.pack([1997, 24, 3]).unwrap();
        assert_eq!(p.unpack(key), vec![1997, 24, 3]);
        assert_eq!(p.total_bits(), 48);
    }

    #[test]
    fn packer_order_matches_lexicographic() {
        let p = KeyPacker::new(&[8, 8]).unwrap();
        let mut keys = Vec::new();
        let mut tuples = Vec::new();
        for a in [0u64, 1, 5, 255] {
            for b in [0u64, 3, 255] {
                keys.push(p.pack([a, b]).unwrap());
                tuples.push((a, b));
            }
        }
        for i in 0..keys.len() {
            for j in 0..keys.len() {
                assert_eq!(tuples[i] < tuples[j], keys[i] < keys[j]);
            }
        }
    }

    #[test]
    fn packer_rejects_overflow_and_bad_arity() {
        let p = KeyPacker::new(&[4, 4]).unwrap();
        assert!(matches!(
            p.pack([16, 0]),
            Err(KeyPackError::PartOverflow { part: 0, .. })
        ));
        assert!(matches!(
            p.pack([1]),
            Err(KeyPackError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn packer_rejects_too_wide() {
        assert!(matches!(
            KeyPacker::new(&[32, 32, 1]),
            Err(KeyPackError::TooWide { total_bits: 65 })
        ));
    }

    #[test]
    fn pack_fitting_equals_pack_and_one_part_is_identity() {
        let p = KeyPacker::new(&[11, 5, 7]).unwrap();
        assert_eq!(
            p.pack_fitting([1997, 24, 3]),
            p.pack([1997, 24, 3]).unwrap()
        );
        assert_eq!(p.part(p.pack_fitting([1997, 24, 3]), 1), 24);
        let one = KeyPacker::new(&[32]).unwrap();
        assert_eq!(one.pack([0xdead_beef]).unwrap(), 0xdead_beef);
        assert_eq!(one.max_key(), u32::MAX as u64);
        // No parts (a scalar aggregate's group key): the one key is 0.
        let none = KeyPacker::new(&[]).unwrap();
        assert_eq!((none.pack_fitting([]), none.max_key()), (0, 0));
    }

    #[test]
    fn pack_range_prefix_clamp_and_empty() {
        let p = KeyPacker::new(&[4, 4, 4]).unwrap();
        // Equality prefix + trailing range.
        assert_eq!(
            p.pack_range(&[(3, 3), (5, 5), (2, 9)]),
            Some((0x352, 0x359))
        );
        // A shorter prefix leaves the remaining parts unconstrained.
        assert_eq!(p.pack_range(&[(3, 3), (2, 9)]), Some((0x320, 0x39f)));
        assert_eq!(p.pack_range(&[]), Some((0, 0xfff)));
        // Upper bounds clamp to the part width ...
        assert_eq!(p.pack_range(&[(3, 3), (2, 900)]), Some((0x320, 0x3ff)));
        // ... and a bound that is empty or starts beyond it matches nothing.
        assert_eq!(p.pack_range(&[(16, 16)]), None);
        assert_eq!(p.pack_range(&[(3, 3), (9, 2)]), None);
    }

    #[test]
    fn key_bits_of_maxima() {
        assert_eq!(key_bits(0), 1);
        assert_eq!(key_bits(1), 1);
        assert_eq!(key_bits(1998), 11);
        assert_eq!(key_bits(u32::MAX as u64), 32);
        assert_eq!(key_bits(u64::MAX), 64);
    }

    #[test]
    fn packer_full_64_bits() {
        let p = KeyPacker::new(&[64]).unwrap();
        assert_eq!(p.pack([u64::MAX]).unwrap(), u64::MAX);
        assert_eq!(p.unpack(u64::MAX), vec![u64::MAX]);
    }
}
