//! Seeded model tests of the memory substrate: duplicate arenas preserve
//! content and order under arbitrary interleavings; key packing is
//! order-preserving for arbitrary widths. Cases are drawn from the crate's
//! own PRNG, so a failure names the case that reproduces it.

use qppt_mem::{DupArena, KeyPacker, LinkedDupArena, Xoshiro256StarStar};

const CASES: u64 = 128;

/// Arbitrary interleaving of pushes across several lists: each list yields
/// exactly its values, in insertion order, and both arena implementations
/// agree.
#[test]
fn dup_arenas_preserve_order() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::new(0xD0B + case);
        let mut seg = DupArena::<u64>::new();
        let mut lnk = LinkedDupArena::<u64>::new();
        let mut seg_lists: Vec<_> = (0..8).map(|_| None).collect();
        let mut lnk_lists: Vec<_> = (0..8).map(|_| None).collect();
        let mut model: Vec<Vec<u64>> = vec![Vec::new(); 8];
        // Skewed slot choice: a few long lists (many segments) and short ones.
        for _ in 0..rng.range_inclusive(1, 3000) {
            let slot = (rng.below(8) * rng.below(8) / 7) as usize;
            let v = rng.next_u64();
            model[slot].push(v);
            match &mut seg_lists[slot] {
                None => seg_lists[slot] = Some(seg.new_list(v)),
                Some(l) => seg.push(l, v),
            }
            match &mut lnk_lists[slot] {
                None => lnk_lists[slot] = Some(lnk.new_list(v)),
                Some(l) => lnk.push(l, v),
            }
        }
        for (slot, expect) in model.iter().enumerate() {
            match &seg_lists[slot] {
                None => assert!(expect.is_empty(), "case {case}"),
                Some(l) => {
                    assert_eq!(l.len(), expect.len(), "case {case}");
                    let got: Vec<u64> = seg.iter(l).copied().collect();
                    assert_eq!(&got, expect, "case {case} slot {slot}");
                    // Segment scan concatenates to the same sequence.
                    let mut segscan = Vec::new();
                    seg.for_each_segment(l, |s| segscan.extend_from_slice(s));
                    assert_eq!(&segscan, expect, "case {case} slot {slot}");
                    // Any interleaving of value and slice steps yields the
                    // same sequence, and `len` counts what is left.
                    let mut vs = seg.iter(l);
                    let mut mixed = Vec::new();
                    while vs.len() > 0 {
                        assert_eq!(vs.len(), expect.len() - mixed.len(), "case {case}");
                        if rng.chance(1, 2) {
                            mixed.extend_from_slice(vs.next_slice().expect("values left"));
                        } else {
                            mixed.push(*vs.next().expect("values left"));
                        }
                    }
                    assert!(vs.next().is_none() && vs.next_slice().is_none());
                    assert_eq!(&mixed, expect, "case {case} slot {slot}");
                    // Segment capacities double up to the page limit.
                    for w in seg.segment_caps(l).windows(2) {
                        assert!(
                            w[1] == 512 || w[1] == 2 * w[0] || w[1] == w[0],
                            "case {case} caps {w:?}"
                        );
                    }
                }
            }
            if let Some(l) = &lnk_lists[slot] {
                let got: Vec<u64> = lnk.iter(l).copied().collect();
                assert_eq!(&got, expect, "case {case} slot {slot}");
            }
        }
    }
}

/// Packing is order-preserving: lexicographic part order == key order. The
/// unchecked form agrees with the checked one, and `pack_range` brackets
/// exactly the tuples a part-wise filter selects — for an equality prefix
/// plus a trailing range, including constants wider than their part.
#[test]
fn key_packer_order_and_ranges() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::new(0x9AC4 + case);
        let widths: Vec<u8> = (0..rng.range_inclusive(1, 3))
            .map(|_| rng.range_inclusive(1, 15) as u8)
            .collect();
        let packer = KeyPacker::new(&widths).unwrap();
        let parts = |rng: &mut Xoshiro256StarStar| -> Vec<u64> {
            widths.iter().map(|&w| rng.below(1 << w)).collect()
        };
        let mut tuples: Vec<Vec<u64>> = Vec::new();
        for _ in 0..32 {
            let (a, mut b) = (parts(&mut rng), parts(&mut rng));
            // Half the pairs share a prefix, so later parts decide the order.
            if rng.chance(1, 2) {
                b[0] = a[0];
            }
            let ka = packer.pack(a.iter().copied()).unwrap();
            let kb = packer.pack(b.iter().copied()).unwrap();
            assert_eq!(a.cmp(&b), ka.cmp(&kb), "case {case} {a:?} vs {b:?}");
            assert_eq!(packer.pack_fitting(a.iter().copied()), ka, "case {case}");
            assert_eq!(packer.unpack(ka), a, "case {case}");
            assert_eq!(packer.unpack(kb), b, "case {case}");
            tuples.extend([a, b]);
        }
        for _ in 0..16 {
            // Points on the first `k` parts (taken from a stored tuple, so
            // ranges hit), then a range on part `k` whose constants may
            // exceed the part's width; parts past `k` are unconstrained.
            let k = rng.below(widths.len() as u64) as usize;
            let anchor = &tuples[rng.below(tuples.len() as u64) as usize];
            let mut bounds: Vec<(u64, u64)> = anchor[..k].iter().map(|&v| (v, v)).collect();
            let wide = 2u64 << widths[k];
            bounds.push((rng.below(wide), rng.below(wide)));
            let expect: Vec<&Vec<u64>> = tuples
                .iter()
                .filter(|t| {
                    t.iter()
                        .zip(&bounds)
                        .all(|(&v, &(lo, hi))| lo <= v && v <= hi)
                })
                .collect();
            let range = packer.pack_range(&bounds);
            let got: Vec<&Vec<u64>> = tuples
                .iter()
                .filter(|t| {
                    let key = packer.pack_fitting(t.iter().copied());
                    range.is_some_and(|(lo, hi)| lo <= key && key <= hi)
                })
                .collect();
            assert_eq!(got, expect, "case {case} bounds {bounds:?} → {range:?}");
        }
    }
}

/// The PRNG's `below()` is exhaustive over small bounds.
#[test]
fn prng_below_covers_domain() {
    for case in 0..CASES {
        let mut rng = Xoshiro256StarStar::new(case);
        let bound = 1 + case % 15;
        let mut seen = vec![false; bound as usize];
        for _ in 0..(bound * 200) {
            seen[rng.below(bound) as usize] = true;
        }
        assert!(seen.into_iter().all(|s| s), "seed {case} bound {bound}");
    }
}
