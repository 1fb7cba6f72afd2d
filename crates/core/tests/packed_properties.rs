//! Property tests pinning the packed bit-plane kernels to the scalar
//! formulations: for every `BitWidth` × `SliceWidth` × `Signedness`
//! combination, [`bpvec_core::dotprod::dot_packed`] (and the underlying
//! [`PackedSliceMatrix`] layout) equals [`dot_exact`] (Equation 1) and
//! [`dot_slice_clustered`] (Equation 4) — exact equality, including the
//! INT8 edge values (−128, −1, 127) that exercise the signed top plane.
//! The word-at-a-time packers ([`PackedSliceMatrix::pack_rows`] and
//! `bpvec_dnn`'s `pack_gemm_cols`) are pinned plane for plane, and error
//! for error, to the per-element oracle [`PackedSliceMatrix::pack_from_fn`].

use bpvec_core::dotprod::{dot_exact, dot_packed, dot_slice_clustered};
use bpvec_core::{BitWidth, CoreError, PackedSliceMatrix, Signedness, SliceWidth};
use bpvec_dnn::packing::{pack_gemm_cols, TRANSPOSE_BLOCK};
use bpvec_dnn::Tensor;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

const SLICE_WIDTHS: [SliceWidth; 4] = [
    SliceWidth::BIT1,
    SliceWidth::BIT2,
    SliceWidth::BIT4,
    SliceWidth::BIT8,
];

const SIGNEDNESS: [Signedness; 2] = [Signedness::Signed, Signedness::Unsigned];

/// Every width × slicing × signedness combination agrees on the INT8-style
/// edge vectors (extremes of the declared range, the all-ones pattern, and
/// zero) — deterministic coverage of the values that previously only had
/// scalar-path tests (−128 in particular: the lone value whose top slice
/// saturates negative with all lower slices zero).
#[test]
fn packed_equals_scalar_on_edge_vectors_for_all_combos() {
    for bits in 1..=8u32 {
        let bw = BitWidth::new(bits).unwrap();
        for sw in SLICE_WIDTHS {
            for s in SIGNEDNESS {
                let (lo, hi) = bw.range(s);
                // Edges, their neighbors, zero/±1 where in range.
                let pool: Vec<i32> = [lo, lo + 1, -1, 0, 1, hi - 1, hi]
                    .into_iter()
                    .filter(|v| (lo..=hi).contains(v))
                    .collect();
                // All ordered pairs from the pool, as one long vector each.
                let xs: Vec<i32> = pool
                    .iter()
                    .flat_map(|&a| std::iter::repeat_n(a, pool.len()))
                    .collect();
                let ws: Vec<i32> = pool.iter().cycle().take(xs.len()).copied().collect();
                let exact = dot_exact(&xs, &ws).unwrap();
                let packed = dot_packed(&xs, &ws, bw, bw, sw, s).unwrap();
                assert_eq!(packed, exact, "{bw} {sw} {s} packed vs exact");
                let clustered = dot_slice_clustered(&xs, &ws, bw, bw, sw, sw, s).unwrap();
                assert_eq!(packed, clustered, "{bw} {sw} {s} packed vs clustered");
                // Every dispatch tier this host can run (scalar always, AVX2
                // / AVX-512 where detected) produces the identical result —
                // SIMD == scalar == dot_exact on all 64 combos.
                let px = PackedSliceMatrix::pack(&xs, bw, sw, s).unwrap();
                let pw = PackedSliceMatrix::pack(&ws, bw, sw, s).unwrap();
                for tier in bpvec_core::kernels::available_tiers() {
                    assert_eq!(
                        px.dot_with(tier, 0, &pw, 0),
                        exact,
                        "{bw} {sw} {s} tier {tier}"
                    );
                }
            }
        }
    }
}

/// The INT8 minimum (−128) dotted against every INT8 value, for every
/// slicing — the worst case for two's-complement top-plane handling.
#[test]
fn int8_minus128_against_full_range_all_slicings() {
    let ws: Vec<i32> = (-128..=127).collect();
    let xs = vec![-128i32; ws.len()];
    let exact = dot_exact(&xs, &ws).unwrap();
    for sw in SLICE_WIDTHS {
        assert_eq!(
            dot_packed(
                &xs,
                &ws,
                BitWidth::INT8,
                BitWidth::INT8,
                sw,
                Signedness::Signed
            )
            .unwrap(),
            exact,
            "{sw}"
        );
    }
}

/// Packing is an exact inverse for random in-range matrices (round-trip
/// through `get`), for every combination.
#[test]
fn pack_roundtrips_random_matrices_all_combos() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x9d5a_b7f1);
    for bits in 1..=8u32 {
        let bw = BitWidth::new(bits).unwrap();
        for sw in SLICE_WIDTHS {
            for s in SIGNEDNESS {
                let (lo, hi) = bw.range(s);
                let (vecs, len) = (3usize, rng.gen_range(0..100));
                let data: Vec<i32> = (0..vecs * len).map(|_| rng.gen_range(lo..=hi)).collect();
                let p = PackedSliceMatrix::pack_rows(&data, vecs, len, bw, sw, s).unwrap();
                for v in 0..vecs {
                    for e in 0..len {
                        assert_eq!(p.get(v, e), data[v * len + e], "{bw} {sw} {s} [{v},{e}]");
                    }
                }
            }
        }
    }
}

proptest! {
    /// Random vectors: packed == exact == slice-clustered for every
    /// (bx, bw, slice, signedness) combination — the packed layout computes
    /// Equation 4 bit-for-bit. Mixed operand widths share one slice width,
    /// exactly as the hardware packs them.
    #[test]
    fn packed_matches_exact_and_clustered(
        bx in 1u32..=8,
        bw in 1u32..=8,
        sw_bits in prop_oneof![Just(1u32), Just(2), Just(4), Just(8)],
        signed in proptest::bool::ANY,
        seed in proptest::num::u64::ANY,
    ) {
        let bwx = BitWidth::new(bx).unwrap();
        let bww = BitWidth::new(bw).unwrap();
        let sw = SliceWidth::new(sw_bits).unwrap();
        let s = if signed { Signedness::Signed } else { Signedness::Unsigned };
        let (xlo, xhi) = bwx.range(s);
        let (wlo, whi) = bww.range(s);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = rng.gen_range(0..300);
        let xs: Vec<i32> = (0..n).map(|_| rng.gen_range(xlo..=xhi)).collect();
        let ws: Vec<i32> = (0..n).map(|_| rng.gen_range(wlo..=whi)).collect();
        let exact = dot_exact(&xs, &ws).unwrap();
        prop_assert_eq!(dot_packed(&xs, &ws, bwx, bww, sw, s).unwrap(), exact);
        prop_assert_eq!(
            dot_slice_clustered(&xs, &ws, bwx, bww, sw, sw, s).unwrap(),
            exact
        );
    }

    /// Per-plane narrow dot-products agree with the scalar sub-vector path:
    /// each (j, k) slice pair through `slice_dot_words` equals the narrow
    /// dot-product of the corresponding scalar sub-vectors — the NBVE-level
    /// contract, not just the fully-reduced sum.
    #[test]
    fn slice_planes_match_scalar_subvectors(
        sw_bits in prop_oneof![Just(1u32), Just(2), Just(4)],
        seed in proptest::num::u64::ANY,
    ) {
        use bpvec_core::bitslice::{decompose_vector, subvector};
        let sw = SliceWidth::new(sw_bits).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..120);
        let xs: Vec<i32> = (0..n).map(|_| rng.gen_range(-128..=127)).collect();
        let ws: Vec<i32> = (0..n).map(|_| rng.gen_range(-128..=127)).collect();
        let px = PackedSliceMatrix::pack(&xs, BitWidth::INT8, sw, Signedness::Signed).unwrap();
        let pw = PackedSliceMatrix::pack(&ws, BitWidth::INT8, sw, Signedness::Signed).unwrap();
        let xsl = decompose_vector(&xs, BitWidth::INT8, sw, Signedness::Signed).unwrap();
        let wsl = decompose_vector(&ws, BitWidth::INT8, sw, Signedness::Signed).unwrap();
        for j in 0..px.n_slices() {
            let xsub = subvector(&xsl, j);
            for k in 0..pw.n_slices() {
                let wsub = subvector(&wsl, k);
                let scalar: i64 = xsub
                    .iter()
                    .zip(&wsub)
                    .map(|(&a, &b)| i64::from(a) * i64::from(b))
                    .sum();
                prop_assert_eq!(px.slice_dot(0, j, &pw, 0, k), scalar, "plane ({}, {})", j, k);
            }
        }
    }

    /// The word-at-a-time row packer equals the per-element oracle plane
    /// for plane (and in every other field) for every width × slicing ×
    /// signedness, at the lengths where its chunking can go wrong: empty,
    /// one element, one word's worth of fields (`64/s`) and its neighbours,
    /// one 64-element block and its neighbours, and a random length — each
    /// over several vectors, so a word-offset slip between vectors shows.
    #[test]
    fn pack_rows_equals_per_element_oracle(
        vecs in 1usize..5,
        seed in proptest::num::u64::ANY,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let random_len = rng.gen_range(0..300);
        for bits in 1..=8u32 {
            let bw = BitWidth::new(bits).unwrap();
            for sw in SLICE_WIDTHS {
                let f = (64 / sw.bits()) as usize;
                for s in SIGNEDNESS {
                    let (lo, hi) = bw.range(s);
                    for len in [0, 1, f - 1, f, f + 1, 63, 64, 65, random_len] {
                        let data: Vec<i32> =
                            (0..vecs * len).map(|_| rng.gen_range(lo..=hi)).collect();
                        let fast = PackedSliceMatrix::pack_rows(&data, vecs, len, bw, sw, s);
                        let oracle = PackedSliceMatrix::pack_from_fn(vecs, len, bw, sw, s, |v, e| {
                            data[v * len + e]
                        });
                        let (fast, oracle) = (fast.unwrap(), oracle.unwrap());
                        for j in 0..oracle.n_slices() {
                            for v in 0..vecs {
                                prop_assert_eq!(
                                    fast.plane(j, v),
                                    oracle.plane(j, v),
                                    "{} {} {} len {} plane {} vec {}", bw, sw, s, len, j, v
                                );
                            }
                        }
                        prop_assert_eq!(fast, oracle);
                    }
                }
            }
        }
    }

    /// Out-of-range values yield the oracle's error, naming the *first*
    /// offending element in row order, wherever it sits: inside a full
    /// chunk, in a zero-padded tail chunk, or in a later vector — with a
    /// second, different offender planted right after it (mostly in the
    /// same chunk) so a scan that reports the wrong one fails.
    #[test]
    fn pack_rows_reports_the_oracles_first_out_of_range_value(
        seed in proptest::num::u64::ANY,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for bits in 1..=8u32 {
            let bw = BitWidth::new(bits).unwrap();
            for sw in SLICE_WIDTHS {
                let f = (64 / sw.bits()) as usize;
                for s in SIGNEDNESS {
                    let (lo, hi) = bw.range(s);
                    let (vecs, len) = (3usize, 2 * f + f / 2);
                    // Full chunk, tail chunk, second vector's first chunk.
                    for first in [rng.gen_range(0..f), 2 * f + rng.gen_range(0..f / 2), len + 1] {
                        let mut data: Vec<i32> =
                            (0..vecs * len).map(|_| rng.gen_range(lo..=hi)).collect();
                        data[first] = if rng.gen_range(0..2) == 0 { lo - 1 } else { hi + 1 };
                        data[first + 1] = hi + 7;
                        let fast = PackedSliceMatrix::pack_rows(&data, vecs, len, bw, sw, s);
                        let oracle = PackedSliceMatrix::pack_from_fn(vecs, len, bw, sw, s, |v, e| {
                            data[v * len + e]
                        });
                        let want = CoreError::ValueOutOfRange {
                            value: data[first],
                            bits,
                            signed: s == Signedness::Signed,
                        };
                        prop_assert_eq!(&oracle, &Err(want), "{} {} {} at {}", bw, sw, s, first);
                        prop_assert_eq!(&fast, &oracle, "{} {} {} at {}", bw, sw, s, first);
                    }
                }
            }
        }
    }

    /// Column packing of non-square `[k, n]` matrices — shapes on both
    /// sides of the transpose tile, so partial tiles in either dimension
    /// are covered — equals the per-element stride-`n` gather, planes and
    /// errors alike.
    #[test]
    fn pack_gemm_cols_equals_per_element_gather(
        k in prop_oneof![
            Just(1usize),
            Just(TRANSPOSE_BLOCK - 1),
            Just(TRANSPOSE_BLOCK + 1),
            Just(2 * TRANSPOSE_BLOCK + 3)
        ],
        n in prop_oneof![
            Just(3usize),
            Just(TRANSPOSE_BLOCK),
            Just(TRANSPOSE_BLOCK + 5),
            Just(2 * TRANSPOSE_BLOCK - 1)
        ],
        bits in 1u32..=8,
        sw_bits in prop_oneof![Just(1u32), Just(2), Just(4), Just(8)],
        signed in proptest::bool::ANY,
        seed in proptest::num::u64::ANY,
    ) {
        let bw = BitWidth::new(bits).unwrap();
        let sw = SliceWidth::new(sw_bits).unwrap();
        let s = if signed { Signedness::Signed } else { Signedness::Unsigned };
        let (lo, hi) = bw.range(s);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut data: Vec<i32> = (0..k * n).map(|_| rng.gen_range(lo..=hi)).collect();
        let oracle = |data: &[i32]| {
            PackedSliceMatrix::pack_from_fn(n, k, bw, sw, s, |c, e| data[e * n + c])
        };
        let t = Tensor::from_data(&[k, n], data.clone());
        prop_assert_eq!(pack_gemm_cols(&t, bw, sw, s), oracle(&data), "[{}, {}]", k, n);
        // Offenders: the first in column order is not the first in memory.
        data[n - 1] = hi + 1;
        data[(k - 1) * n] = lo - 1;
        let t = Tensor::from_data(&[k, n], data.clone());
        let got = pack_gemm_cols(&t, bw, sw, s);
        prop_assert!(got.is_err(), "[{}, {}] accepted an out-of-range value", k, n);
        prop_assert_eq!(got, oracle(&data), "[{}, {}] error", k, n);
    }
}
