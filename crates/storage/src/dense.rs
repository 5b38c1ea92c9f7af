//! The one-level prefix tree: a direct-addressed array over a compact key
//! range.
//!
//! §2.1 names the extreme of the prefix-tree geometry: with `k′` equal to
//! the key length the tree has one level, an array indexed by the key
//! itself. Over a whole 32-bit domain that array is far too large, which is
//! why §2.2 sizes a KISS root for it instead. A dimension selection σ lives
//! for one query and often holds a few hundred keys of one compact range,
//! though; there the levels above the keys' common prefix carry nothing,
//! and the array over `[min, max]` alone is one load per probe, at a size
//! bounded by what a KISS σ costs in its worst case ([`DenseIndex::fits`]). [`DenseIndex`] is that array; it holds one value per
//! key and is built whole ([`TreeIndex::for_selection`](crate::TreeIndex::for_selection)
//! decides when).

use qppt_mem::{DupArena, Values};

/// A direct-addressed index over the keys `[min, max]`, one value per key
/// (see the module docs).
///
/// A key's **handle** is its rank among the stored keys plus one, `0`
/// meaning absent — the same contract as the trees' content handles. A
/// table whose payload rows are in key order, as a σ's are, therefore has
/// the payload-row id + 1 as its handle.
#[derive(Debug)]
pub struct DenseIndex {
    /// The smallest stored key: slot `i` answers key `min + i`.
    min: u64,
    /// The handle of every key of the span, then one `0` — the sentinel a
    /// probe outside the span is clamped to, so it reads absent without a
    /// branch.
    slots: Vec<u32>,
    /// The value of each key, by rank.
    values: Vec<u32>,
    /// Holds no list: it lends a lone value the [`Values`] shape the trees
    /// hand out.
    arena: DupArena<u32>,
}

/// A [`DenseIndex`]'s slots and `min`: what testing a key reads, borrowed
/// once so a loop over many keys holds them in registers.
#[derive(Debug, Clone, Copy)]
pub struct DenseSlots<'a> {
    min: u64,
    slots: &'a [u32],
}

impl DenseSlots<'_> {
    /// The handle of `key`, `0` if absent — one load: any key outside the
    /// span is clamped to the trailing sentinel.
    #[inline]
    pub fn handle(self, key: u64) -> u32 {
        let sentinel = (self.slots.len() - 1) as u64;
        self.slots[key.wrapping_sub(self.min).min(sentinel) as usize]
    }
}

impl DenseIndex {
    /// `true` if `n` unique keys spanning `[min, max]` are stored densely:
    /// the span is at most `64 × n + 1 024`. At that bound the array costs
    /// 256 B per key plus 4 KB, what a KISS-Tree costs whose keys each
    /// populate a 64-key node of their own (one 256 B node per key, one
    /// 4 KB root page). Keys that share nodes make the KISS-Tree the
    /// smaller one: the σ on six years of dates (2 192 keys, one node per
    /// month or two) is 222 KB dense against 78 KB as a KISS-Tree.
    pub fn fits(n: usize, min: u64, max: u64) -> bool {
        debug_assert!(min <= max);
        (max - min) as u128 <= 64 * n as u128 + 1023
    }

    /// The index holding `values[i]` under `keys[i]`. `keys` must be
    /// strictly ascending; an empty slice gives the empty index. The array
    /// spans `[keys[0], keys[n - 1]]`, which the caller bounds ([`fits`](Self::fits)).
    pub fn new(keys: &[u64], values: &[u32]) -> Self {
        assert_eq!(keys.len(), values.len());
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "a dense index holds one value per key, keys ascending"
        );
        let (min, span) = match (keys.first(), keys.last()) {
            (Some(&lo), Some(&hi)) => (lo, (hi - lo) as usize + 1),
            _ => (0, 0),
        };
        let mut slots = vec![0u32; span + 1];
        for (rank, &k) in keys.iter().enumerate() {
            slots[(k - min) as usize] = rank as u32 + 1;
        }
        Self {
            min,
            slots,
            values: values.to_vec(),
            arena: DupArena::new(),
        }
    }

    /// The handle of `key`, `0` if absent — one load: any key outside the
    /// span is clamped to the trailing sentinel.
    #[inline]
    pub fn handle(&self, key: u64) -> u32 {
        self.slots().handle(key)
    }

    /// The slot array on its own, as a scan resolves it once and then
    /// tests keys against it ([`DenseSlots::handle`]).
    #[inline]
    pub fn slots(&self) -> DenseSlots<'_> {
        DenseSlots {
            min: self.min,
            slots: &self.slots,
        }
    }

    /// The value under a non-zero handle.
    #[inline]
    pub fn value(&self, handle: u32) -> u32 {
        self.values[handle as usize - 1]
    }

    /// The value under a non-zero handle, as [`Values`].
    #[inline]
    pub fn handle_values(&self, handle: u32) -> Values<'_, u32> {
        self.arena.one(&self.values[handle as usize - 1])
    }

    /// The value stored under `key`, if any.
    #[inline]
    pub fn get(&self, key: u64) -> Option<Values<'_, u32>> {
        match self.handle(key) {
            0 => None,
            h => Some(self.handle_values(h)),
        }
    }

    /// Ordered scan of the stored keys in `[lo, hi]`: `f(key, values)`.
    pub fn for_each_key_range<'a>(
        &'a self,
        lo: u64,
        hi: u64,
        mut f: impl FnMut(u64, Values<'a, u32>),
    ) {
        let (Some(min), Some(max)) = (self.min_key(), self.max_key()) else {
            return;
        };
        let (lo, hi) = (lo.max(min), hi.min(max));
        if lo > hi {
            return;
        }
        let span = &self.slots[(lo - min) as usize..=(hi - min) as usize];
        for (k, &h) in (lo..).zip(span) {
            if h != 0 {
                f(k, self.handle_values(h));
            }
        }
    }

    /// Smallest stored key, if any.
    pub fn min_key(&self) -> Option<u64> {
        (!self.values.is_empty()).then_some(self.min)
    }

    /// Largest stored key, if any.
    pub fn max_key(&self) -> Option<u64> {
        (!self.values.is_empty()).then(|| self.min + self.slots.len() as u64 - 2)
    }

    /// Number of keys (one value each).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Resident bytes: the slots and the values.
    pub fn memory_bytes(&self) -> usize {
        (self.slots.capacity() + self.values.capacity()) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_inside_and_outside_the_span() {
        let d = DenseIndex::new(&[10, 12, 13], &[7, 8, 9]);
        let got: Vec<u32> = (8..16).map(|k| d.handle(k)).collect();
        assert_eq!(got, vec![0, 0, 1, 0, 2, 3, 0, 0]);
        for k in [0, 9, 14, 1 << 32, 1 << 40, u64::MAX] {
            assert_eq!(d.handle(k), 0, "{k}");
        }
        assert_eq!(
            (d.value(2), d.get(13).map(|v| *v.last().unwrap())),
            (8, Some(9))
        );
        assert_eq!((d.min_key(), d.max_key(), d.len()), (Some(10), Some(13), 3));
        let mut scanned = Vec::new();
        d.for_each_key_range(11, u64::MAX, |k, vs| scanned.extend(vs.map(|&v| (k, v))));
        assert_eq!(scanned, vec![(12, 8), (13, 9)]);
    }

    #[test]
    fn fits_is_the_span_bound() {
        assert!(DenseIndex::fits(1, 5, 5 + 64 + 1023));
        assert!(!DenseIndex::fits(1, 5, 5 + 64 + 1024));
        assert!(DenseIndex::fits(0, 0, 1023));
        assert!(!DenseIndex::fits(usize::MAX >> 8, 0, u64::MAX));
    }
}
