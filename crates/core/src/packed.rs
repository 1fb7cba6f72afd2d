//! Packed bit-plane operand layout — the software realization of slice
//! clustering (paper §II, Equation 4) at word-level speed.
//!
//! [`crate::bitslice`] models the slicing algebra one scalar at a time: a
//! `Vec<Slice>` per value, a re-materialized sub-vector per significance.
//! That is the right shape for *proving* the algebra, and hopeless for
//! *executing* it at Table I scale. This module stores the same
//! decomposition the way the hardware conceptually does: all slices of
//! equal significance `k`, across the whole vector, live in one contiguous
//! **plane** of `s`-bit fields packed into `u64` words. Equation 4's inner
//! narrow dot-product `Σᵢ xᵢ[αj..] · wᵢ[βk..]` then becomes a streaming
//! word kernel ([`crate::nbve::slice_dot_words`]): a single AND + popcount
//! per word for 1-bit slices, and a SWAR sub-plane popcount accumulation
//! for 2/4/8-bit slices — no per-element allocation, branching or shifting.
//!
//! The layout is exact: packing validates every element against its
//! declared width, planes reproduce [`crate::bitslice::SlicedValue`]'s
//! two's-complement slice fields bit for bit (the top plane of a signed
//! operand carries the sign), and [`PackedSliceMatrix::dot`] equals
//! [`crate::dotprod::dot_exact`] for all in-range inputs — property tests
//! in `tests/packed_properties.rs` pin this for every width × slicing ×
//! signedness combination.

use serde::{Deserialize, Serialize};

use crate::bitslice::{BitWidth, Signedness, SliceWidth};
use crate::error::CoreError;
use crate::kernels::{self, KernelTier, PlanesRef};
use crate::nbve::slice_dot_words;

/// A batch of equal-length vectors decomposed once into packed slice planes.
///
/// Conceptually a `[num_vecs, len]` matrix of `width`-bit values, stored as
/// `ceil(width / slice)` planes: plane `j` holds the `j`-th (significance
/// `2^(s·j)`) slice of every element, as `s`-bit fields packed
/// little-endian into `u64` words, one padded word run per vector. Tail
/// fields beyond `len` are zero, so they contribute nothing to any dot
/// product.
///
/// ```
/// use bpvec_core::{BitWidth, PackedSliceMatrix, Signedness, SliceWidth};
/// let xs = [-77i32, 5, 127, -128];
/// let ws = [33i32, -2, -128, 127];
/// let px = PackedSliceMatrix::pack(&xs, BitWidth::INT8, SliceWidth::BIT2, Signedness::Signed)?;
/// let pw = PackedSliceMatrix::pack(&ws, BitWidth::INT8, SliceWidth::BIT2, Signedness::Signed)?;
/// let exact: i64 = xs.iter().zip(&ws).map(|(&x, &w)| (x as i64) * (w as i64)).sum();
/// assert_eq!(px.dot(0, &pw, 0), exact);
/// # Ok::<(), bpvec_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PackedSliceMatrix {
    /// `planes[j]` holds vector `i`'s words at
    /// `[i * words_per_vec .. (i + 1) * words_per_vec]`.
    planes: Vec<Vec<u64>>,
    num_vecs: usize,
    len: usize,
    words_per_vec: usize,
    width: BitWidth,
    slice_width: SliceWidth,
    signedness: Signedness,
}

impl PackedSliceMatrix {
    /// Packs `num_vecs` row-major vectors of `len` elements each, a word of
    /// every plane at a time (branchless range check, SWAR byte
    /// compaction); equal plane for plane, and error for error, to the
    /// per-element [`PackedSliceMatrix::pack_from_fn`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ValueOutOfRange`] on the first element that does
    /// not fit the declared `width`/`signedness`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != num_vecs * len` (a programming error, not a
    /// runtime condition).
    pub fn pack_rows(
        data: &[i32],
        num_vecs: usize,
        len: usize,
        width: BitWidth,
        slice_width: SliceWidth,
        signedness: Signedness,
    ) -> Result<Self, CoreError> {
        assert_eq!(
            data.len(),
            num_vecs * len,
            "packed data length {} does not match {num_vecs} vectors of {len}",
            data.len()
        );
        // `SliceWidth` admits only 1, 2, 4 and 8 bits.
        match slice_width.bits() {
            1 => Self::pack_rows_words::<1>(data, num_vecs, len, width, slice_width, signedness),
            2 => Self::pack_rows_words::<2>(data, num_vecs, len, width, slice_width, signedness),
            4 => Self::pack_rows_words::<4>(data, num_vecs, len, width, slice_width, signedness),
            _ => Self::pack_rows_words::<8>(data, num_vecs, len, width, slice_width, signedness),
        }
    }

    /// The word-at-a-time packer behind [`PackedSliceMatrix::pack_rows`],
    /// monomorphized on the slice width `S` so every shift and mask below
    /// is a constant.
    ///
    /// Elements go in blocks of 64 contiguous ones, each filling `S` words
    /// of every plane. A block is range-checked branchlessly
    /// (`(x - lo) as u32 > span`, OR-reduced) while its low bytes are
    /// gathered; only on a hit is it re-scanned with [`BitWidth::check`],
    /// so the first offending element reports exactly the error the
    /// per-element oracle ([`PackedSliceMatrix::pack_from_fn`]) reports.
    /// The plane words are then formed by SWAR byte compaction
    /// ([`pack_block`]).
    fn pack_rows_words<const S: u32>(
        data: &[i32],
        num_vecs: usize,
        len: usize,
        width: BitWidth,
        slice_width: SliceWidth,
        signedness: Signedness,
    ) -> Result<Self, CoreError> {
        let fields_per_word = (64 / S) as usize;
        let n_slices = slice_width.slices_for(width) as usize;
        let words_per_vec = len.div_ceil(fields_per_word);
        let mut planes = vec![vec![0u64; num_vecs * words_per_vec]; n_slices];
        let (lo, hi) = width.range(signedness);
        let span = hi.abs_diff(lo);
        // One block of 64 elements fills `S` words of every plane. The low
        // byte of each element is its whole padded two's-complement pattern
        // (`n_slices · S ≤ 8` for every supported width); zero, the padding
        // of a short tail block, packs to inert fields.
        let mut bytes = [0u8; 64];
        if words_per_vec > 0 {
            for (v, row) in data.chunks_exact(len).enumerate() {
                for (b, block) in row.chunks(64).enumerate() {
                    let mut out_of_range = false;
                    for (byte, &x) in bytes.iter_mut().zip(block) {
                        *byte = x as u8;
                        out_of_range |= x.wrapping_sub(lo) as u32 > span;
                    }
                    bytes[block.len()..].fill(0);
                    if out_of_range {
                        for &x in block {
                            width.check(x, signedness)?;
                        }
                    }
                    let first = v * words_per_vec + b * S as usize;
                    let n_words = block.len().div_ceil(fields_per_word);
                    for (j, plane) in planes.iter_mut().enumerate() {
                        let words = &mut plane[first..first + n_words];
                        pack_block::<S>(&bytes, j as u32, words);
                    }
                }
            }
        }
        Ok(PackedSliceMatrix {
            planes,
            num_vecs,
            len,
            words_per_vec,
            width,
            slice_width,
            signedness,
        })
    }

    /// Packs a single vector (a `1 × len` matrix).
    ///
    /// # Errors
    ///
    /// Same conditions as [`PackedSliceMatrix::pack_rows`].
    pub fn pack(
        values: &[i32],
        width: BitWidth,
        slice_width: SliceWidth,
        signedness: Signedness,
    ) -> Result<Self, CoreError> {
        Self::pack_rows(values, 1, values.len(), width, slice_width, signedness)
    }

    /// Packs `num_vecs` vectors of `len` elements, reading element `e` of
    /// vector `v` from `f(v, e)`, one element at a time.
    ///
    /// This is the per-element reference oracle of the layout: each field
    /// is validated and OR-ed into its word on its own, the plainest
    /// statement of what a plane holds. Production code packs through the
    /// word-at-a-time [`PackedSliceMatrix::pack_rows`] instead (an order of
    /// magnitude faster); tests pin the two equal plane for plane, error
    /// for error.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ValueOutOfRange`] on the first element that does
    /// not fit the declared `width`/`signedness`.
    pub fn pack_from_fn(
        num_vecs: usize,
        len: usize,
        width: BitWidth,
        slice_width: SliceWidth,
        signedness: Signedness,
        mut f: impl FnMut(usize, usize) -> i32,
    ) -> Result<Self, CoreError> {
        let s = slice_width.bits();
        let n_slices = slice_width.slices_for(width) as usize;
        let fields_per_word = (64 / s) as usize;
        let words_per_vec = len.div_ceil(fields_per_word);
        let total_bits = n_slices as u32 * s;
        let pattern_mask = if total_bits >= 32 {
            u32::MAX
        } else {
            (1u32 << total_bits) - 1
        };
        let field_mask = (1u32 << s) - 1;
        let mut planes = vec![vec![0u64; num_vecs * words_per_vec]; n_slices];
        for v in 0..num_vecs {
            for e in 0..len {
                let value = f(v, e);
                width.check(value, signedness)?;
                // The same padded two's-complement pattern SlicedValue
                // decomposes: slice j is bits [j*s, (j+1)*s).
                let pattern = (value as u32) & pattern_mask;
                let word = v * words_per_vec + e / fields_per_word;
                let offset = ((e % fields_per_word) as u32) * s;
                for (j, plane) in planes.iter_mut().enumerate() {
                    let field = (pattern >> (j as u32 * s)) & field_mask;
                    plane[word] |= u64::from(field) << offset;
                }
            }
        }
        Ok(PackedSliceMatrix {
            planes,
            num_vecs,
            len,
            words_per_vec,
            width,
            slice_width,
            signedness,
        })
    }

    /// Number of packed vectors.
    #[must_use]
    pub fn num_vecs(&self) -> usize {
        self.num_vecs
    }

    /// Elements per vector.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the vectors have no elements (or there are no vectors).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0 || self.num_vecs == 0
    }

    /// The declared operand width.
    #[must_use]
    pub fn width(&self) -> BitWidth {
        self.width
    }

    /// The slice width of the packed fields.
    #[must_use]
    pub fn slice_width(&self) -> SliceWidth {
        self.slice_width
    }

    /// The declared signedness.
    #[must_use]
    pub fn signedness(&self) -> Signedness {
        self.signedness
    }

    /// Number of slice planes (`ceil(width / slice)`).
    #[must_use]
    pub fn n_slices(&self) -> usize {
        self.planes.len()
    }

    /// `u64` words per vector per plane.
    #[must_use]
    pub fn words_per_vec(&self) -> usize {
        self.words_per_vec
    }

    /// Packed footprint in bytes over all planes — what a scratchpad holding
    /// the operand in this layout would store.
    #[must_use]
    pub fn byte_len(&self) -> usize {
        self.planes.len() * self.num_vecs * self.words_per_vec * 8
    }

    /// The packed words of vector `vec`'s slice plane `slice`.
    ///
    /// # Panics
    ///
    /// Panics if `slice >= n_slices()` or `vec >= num_vecs()`.
    #[must_use]
    pub fn plane(&self, slice: usize, vec: usize) -> &[u64] {
        assert!(vec < self.num_vecs, "vector {vec} out of range");
        let lo = vec * self.words_per_vec;
        &self.planes[slice][lo..lo + self.words_per_vec]
    }

    /// True if plane `slice` carries the sign (the most-significant slice of
    /// a signed operand) — the only plane whose fields a kernel must weight
    /// as two's complement.
    #[must_use]
    pub fn signed_top(&self, slice: usize) -> bool {
        self.signedness == Signedness::Signed && slice + 1 == self.planes.len()
    }

    /// The narrow dot-product of one slice plane of `self[vec]` against one
    /// slice plane of `other[ovec]` — what a single NBVE computes, via the
    /// word kernel.
    ///
    /// # Panics
    ///
    /// Panics on plane/vector indices out of range, or if the two matrices
    /// disagree in length or slice width (see [`PackedSliceMatrix::dot`]).
    #[must_use]
    pub fn slice_dot(
        &self,
        vec: usize,
        slice: usize,
        other: &PackedSliceMatrix,
        ovec: usize,
        oslice: usize,
    ) -> i64 {
        self.check_compatible(other);
        slice_dot_words(
            self.plane(slice, vec),
            other.plane(oslice, ovec),
            self.slice_width,
            self.signed_top(slice),
            other.signed_top(oslice),
        )
    }

    /// The full Equation 4 dot-product of vector `vec` against `other`'s
    /// vector `ovec`: every (j, k) slice-plane pair reduced through the
    /// word-level kernels, shift-added by significance. Exactly equals
    /// [`crate::dotprod::dot_exact`] of the original vectors.
    ///
    /// The hot loop is a *fused* form of the per-pair kernel
    /// ([`slice_dot_words`], still exposed through
    /// [`PackedSliceMatrix::slice_dot`]): since the sub-plane split of an
    /// `s`-bit slice plane is just the 1-bit planes of the original value,
    /// each word is decomposed once into its ≤ 8 bit planes per operand and
    /// all bit-pair popcounts accumulate in one pass — every plane pair's
    /// extraction and significance multiply is hoisted out of the word
    /// stream, with the weighted reduction `Σᵢₗ ±2^(i+l)·countᵢₗ` applied
    /// once per dot (the top bit of a signed operand weighs negative: two's
    /// complement).
    ///
    /// The realization is dispatched once per process by
    /// [`crate::kernels::active_tier`]: AVX-512 `vpopcntq` or AVX2
    /// vpshufb-popcount lanes where available, portable scalar SWAR
    /// otherwise or under `BPVEC_KERNEL=scalar` — all tiers bit-identical.
    ///
    /// # Panics
    ///
    /// Panics if the matrices disagree in element count or slice width
    /// (operands must be packed for the same hardware slicing), or on
    /// vector indices out of range.
    #[must_use]
    pub fn dot(&self, vec: usize, other: &PackedSliceMatrix, ovec: usize) -> i64 {
        self.dot_with(kernels::active_tier(), vec, other, ovec)
    }

    /// [`PackedSliceMatrix::dot`] through an explicit kernel tier — the
    /// entry point dispatch-equality tests and benches use to pin every
    /// available tier against the scalar reference on the same operands.
    ///
    /// # Panics
    ///
    /// Same conditions as [`PackedSliceMatrix::dot`], plus if `tier` is not
    /// available on this CPU (see [`crate::kernels::available_tiers`]).
    #[must_use]
    pub fn dot_with(
        &self,
        tier: KernelTier,
        vec: usize,
        other: &PackedSliceMatrix,
        ovec: usize,
    ) -> i64 {
        self.check_compatible(other);
        assert!(vec < self.num_vecs, "vector {vec} out of range");
        assert!(ovec < other.num_vecs, "vector {ovec} out of range");
        assert!(
            tier <= kernels::detected_tier(),
            "kernel tier {tier} is not available on this CPU"
        );
        let (a_planes, a_ref) = self.planes_ref(vec);
        let (b_planes, b_ref) = other.planes_ref(ovec);
        kernels::weighted_dot(
            tier,
            &PlanesRef {
                planes: &a_planes[..self.planes.len()],
                ..a_ref
            },
            &PlanesRef {
                planes: &b_planes[..other.planes.len()],
                ..b_ref
            },
        )
    }

    /// Collects vector `vec`'s plane slices into a fixed array plus the
    /// kernel-facing descriptor (with an empty placeholder `planes` field —
    /// callers re-borrow the array at the right length).
    fn planes_ref(&self, vec: usize) -> ([&[u64]; 8], PlanesRef<'_>) {
        debug_assert!(self.planes.len() <= 8, "operands wider than 8 bits");
        let mut arr: [&[u64]; 8] = [&[]; 8];
        for (slot, j) in arr.iter_mut().zip(0..self.planes.len()) {
            *slot = self.plane(j, vec);
        }
        (
            arr,
            PlanesRef {
                planes: &[],
                s: self.slice_width.bits(),
                neg_top: self.signedness == Signedness::Signed,
            },
        )
    }

    /// Computes the dense dot-product block of rows `rows` of `self`
    /// against **every** vector of `other`, writing
    /// `out[r * other.num_vecs() + c] = self.dot(rows.start + r, other, c)`.
    ///
    /// This is the cache-blocked building block of the packed GEMM: `other`
    /// (the stationary operand) is decomposed into one-bit sub-plane panels
    /// sized for L1, each row of `self` is decomposed once per panel, and
    /// the inner kernel then streams zero-padded, SIMD-aligned buffers with
    /// no per-dot extraction work — on SIMD tiers this amortizes the slice
    /// split across a whole panel of outputs. Results are bit-identical to
    /// calling [`PackedSliceMatrix::dot`] per element on every tier.
    ///
    /// # Panics
    ///
    /// Panics if the matrices disagree in element count or slice width, if
    /// `rows` is out of range, if `out.len() != rows.len() *
    /// other.num_vecs()`, or if `tier` is not available on this CPU.
    pub fn dot_block_into(
        &self,
        tier: KernelTier,
        rows: core::ops::Range<usize>,
        other: &PackedSliceMatrix,
        out: &mut [i64],
    ) {
        self.check_compatible(other);
        assert!(
            rows.end <= self.num_vecs,
            "row range {rows:?} out of range ({} vectors)",
            self.num_vecs
        );
        assert!(
            tier <= kernels::detected_tier(),
            "kernel tier {tier} is not available on this CPU"
        );
        let n = other.num_vecs;
        assert_eq!(
            out.len(),
            rows.len() * n,
            "output block must hold rows × columns results"
        );
        if tier == KernelTier::Scalar {
            // The scalar tier keeps the original per-dot fused loop: same
            // operation count either way, and it keeps the fallback path
            // byte-for-byte the pre-SIMD behavior.
            for (ri, row) in rows.clone().enumerate() {
                for col in 0..n {
                    out[ri * n + col] = self.dot_with(tier, row, other, col);
                }
            }
            return;
        }
        let s = self.slice_width.bits() as usize;
        let (abits, bbits) = (self.planes.len() * s, other.planes.len() * s);
        let wpv = self.words_per_vec;
        if abits == 0 || bbits == 0 || wpv == 0 || n == 0 || rows.is_empty() {
            out.fill(0);
            return;
        }
        let wpad = kernels::pad_words(wpv);
        let (neg_a, neg_b) = (
            self.signedness == Signedness::Signed,
            other.signedness == Signedness::Signed,
        );
        let panel = kernels::col_panel_len(bbits, wpad).min(n);
        let col_stride = bbits * wpad;
        let mut bbuf = vec![0u64; panel * col_stride];
        let mut abuf = vec![0u64; abits * wpad];
        let mut c0 = 0usize;
        while c0 < n {
            let pc = panel.min(n - c0);
            for ci in 0..pc {
                let (b_planes, b_ref) = other.planes_ref(c0 + ci);
                kernels::extract_subplanes(
                    &PlanesRef {
                        planes: &b_planes[..other.planes.len()],
                        ..b_ref
                    },
                    wpad,
                    &mut bbuf[ci * col_stride..(ci + 1) * col_stride],
                );
            }
            for (ri, row) in rows.clone().enumerate() {
                let (a_planes, a_ref) = self.planes_ref(row);
                kernels::extract_subplanes(
                    &PlanesRef {
                        planes: &a_planes[..self.planes.len()],
                        ..a_ref
                    },
                    wpad,
                    &mut abuf,
                );
                for ci in 0..pc {
                    out[ri * n + c0 + ci] = kernels::dot_subplanes(
                        tier,
                        &abuf,
                        &bbuf[ci * col_stride..(ci + 1) * col_stride],
                        wpad,
                        abits,
                        bbits,
                        neg_a,
                        neg_b,
                    );
                }
            }
            c0 += pc;
        }
    }

    fn check_compatible(&self, other: &PackedSliceMatrix) {
        assert_eq!(
            self.len, other.len,
            "packed operands differ in length: {} vs {}",
            self.len, other.len
        );
        assert_eq!(
            self.slice_width, other.slice_width,
            "packed operands differ in slice width: {} vs {}",
            self.slice_width, other.slice_width
        );
    }

    /// Unpacks element `e` of vector `vec` back to its original value — the
    /// slices recombined by significance, sign-extended from the top plane.
    /// Exact inverse of packing; used by round-trip tests.
    ///
    /// # Panics
    ///
    /// Panics if `vec`/`e` are out of range.
    #[must_use]
    pub fn get(&self, vec: usize, e: usize) -> i32 {
        assert!(e < self.len, "element {e} out of range (len {})", self.len);
        let s = self.slice_width.bits();
        let fields_per_word = (64 / s) as usize;
        let word = vec * self.words_per_vec + e / fields_per_word;
        let offset = ((e % fields_per_word) as u32) * s;
        let field_mask = (1u64 << s) - 1;
        let mut value = 0i64;
        for (j, plane) in self.planes.iter().enumerate() {
            let raw = (plane[word] >> offset) & field_mask;
            let field = if self.signed_top(j) && raw & (1 << (s - 1)) != 0 {
                raw as i64 - (1i64 << s)
            } else {
                raw as i64
            };
            value += field << (j as u32 * s);
        }
        value as i32
    }
}

/// Writes words `0..words.len()` of slice plane `j` for one block of 64
/// elements, given as their low bytes: element `e`'s field `j` lands at bit
/// `(e mod 64/S)·S` of word `e / (64/S)`.
///
/// SWAR byte compaction: 8 bytes are read as one `u64`, shifted so field
/// `j` sits in the low `S` bits of every byte, masked, and three folds
/// gather the 8 fields into `8·S` contiguous bits.
#[inline(always)]
fn pack_block<const S: u32>(bytes: &[u8; 64], j: u32, words: &mut [u64]) {
    // After fold `f` (0 to 3), each `2^f`-byte lane holds its `2^f` fields
    // in its low `2^f · S` bits.
    const fn lane_mask(s: u32, lane_bytes: u32) -> u64 {
        let bits = lane_bytes * s;
        let low = if bits >= 64 {
            u64::MAX
        } else {
            (1 << bits) - 1
        };
        let lanes = if lane_bytes >= 8 {
            1
        } else {
            u64::MAX / ((1 << (8 * lane_bytes)) - 1)
        };
        lanes * low
    }
    let compact = |y: u64| {
        let y = (y >> (j * S)) & lane_mask(S, 1);
        let y = (y | y >> (8 - S)) & lane_mask(S, 2);
        let y = (y | y >> (16 - 2 * S)) & lane_mask(S, 4);
        (y | y >> (32 - 4 * S)) & lane_mask(S, 8)
    };
    let octets_per_word = 8 / S as usize;
    for (word, octets) in words
        .iter_mut()
        .zip(bytes.chunks_exact(8 * octets_per_word))
    {
        let mut acc = 0u64;
        for (g, octet) in octets.chunks_exact(8).enumerate() {
            let y = u64::from_le_bytes(octet.try_into().expect("8-byte octet"));
            acc |= compact(y) << (g as u32 * 8 * S);
        }
        *word = acc;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitslice::{decompose_vector, subvector};
    use crate::dotprod::dot_exact;

    #[test]
    fn pack_roundtrips_signed_int8_edges() {
        let vals = [-128, 127, -1, 0, 1, -77, 100];
        for sw in [
            SliceWidth::BIT1,
            SliceWidth::BIT2,
            SliceWidth::BIT4,
            SliceWidth::BIT8,
        ] {
            let p = PackedSliceMatrix::pack(&vals, BitWidth::INT8, sw, Signedness::Signed).unwrap();
            for (e, &v) in vals.iter().enumerate() {
                assert_eq!(p.get(0, e), v, "{sw} element {e}");
            }
        }
    }

    #[test]
    fn planes_match_scalar_decomposition() {
        let vals = [-128, 127, -1, 0, 5, -3];
        let sliced =
            decompose_vector(&vals, BitWidth::INT8, SliceWidth::BIT2, Signedness::Signed).unwrap();
        let p =
            PackedSliceMatrix::pack(&vals, BitWidth::INT8, SliceWidth::BIT2, Signedness::Signed)
                .unwrap();
        assert_eq!(p.n_slices(), 4);
        for j in 0..4 {
            let lane = subvector(&sliced, j);
            for (e, &want) in lane.iter().enumerate() {
                // Raw packed field == unsigned slice value; the top plane's
                // field is the two's-complement form of the signed slice.
                let s = 2u32;
                let field = (p.plane(j, 0)[e / 32] >> ((e % 32) as u32 * s)) & ((1 << s) - 1);
                let got = if p.signed_top(j) && field & 0b10 != 0 {
                    field as i64 - 4
                } else {
                    field as i64
                };
                assert_eq!(got, i64::from(want), "plane {j} element {e}");
            }
        }
    }

    #[test]
    fn dot_matches_exact_for_fixture() {
        let xs = [-128, 127, -1, 0, 64, -64, 3, -3];
        let ws = [127, -128, -1, -1, 3, -3, 100, 99];
        let exact = dot_exact(&xs, &ws).unwrap();
        for sw in [
            SliceWidth::BIT1,
            SliceWidth::BIT2,
            SliceWidth::BIT4,
            SliceWidth::BIT8,
        ] {
            let px = PackedSliceMatrix::pack(&xs, BitWidth::INT8, sw, Signedness::Signed).unwrap();
            let pw = PackedSliceMatrix::pack(&ws, BitWidth::INT8, sw, Signedness::Signed).unwrap();
            assert_eq!(px.dot(0, &pw, 0), exact, "{sw}");
        }
    }

    #[test]
    fn mixed_widths_pack_independently() {
        // 8-bit activations against 2-bit weights (paper Figure 3c).
        let xs = [-100, 77, 0, -1, 127, -128];
        let ws = [1, -2, 0, 1, -1, -2];
        let px = PackedSliceMatrix::pack(&xs, BitWidth::INT8, SliceWidth::BIT2, Signedness::Signed)
            .unwrap();
        let pw = PackedSliceMatrix::pack(&ws, BitWidth::INT2, SliceWidth::BIT2, Signedness::Signed)
            .unwrap();
        assert_eq!(px.n_slices(), 4);
        assert_eq!(pw.n_slices(), 1);
        assert_eq!(px.dot(0, &pw, 0), dot_exact(&xs, &ws).unwrap());
    }

    #[test]
    fn unsigned_operands_have_no_signed_plane() {
        let xs = [255, 0, 128, 17];
        let p =
            PackedSliceMatrix::pack(&xs, BitWidth::INT8, SliceWidth::BIT4, Signedness::Unsigned)
                .unwrap();
        assert!(!p.signed_top(p.n_slices() - 1));
        let q =
            PackedSliceMatrix::pack(&xs, BitWidth::INT8, SliceWidth::BIT4, Signedness::Unsigned)
                .unwrap();
        assert_eq!(p.dot(0, &q, 0), dot_exact(&xs, &xs).unwrap());
    }

    #[test]
    fn tail_padding_is_inert() {
        // Lengths straddling word boundaries: 2-bit slices -> 32 fields/word.
        for n in [1usize, 31, 32, 33, 63, 64, 65] {
            let xs: Vec<i32> = (0..n).map(|i| (i as i32 % 255) - 127).collect();
            let ws: Vec<i32> = (0..n).map(|i| ((i as i32 * 7) % 255) - 127).collect();
            let px =
                PackedSliceMatrix::pack(&xs, BitWidth::INT8, SliceWidth::BIT2, Signedness::Signed)
                    .unwrap();
            let pw =
                PackedSliceMatrix::pack(&ws, BitWidth::INT8, SliceWidth::BIT2, Signedness::Signed)
                    .unwrap();
            assert_eq!(px.dot(0, &pw, 0), dot_exact(&xs, &ws).unwrap(), "n = {n}");
        }
    }

    #[test]
    fn multi_vector_rows_pack_and_dot_independently() {
        let data: Vec<i32> = (0..24).map(|i| (i * 11 % 255) - 127).collect();
        let m = PackedSliceMatrix::pack_rows(
            &data,
            4,
            6,
            BitWidth::INT8,
            SliceWidth::BIT2,
            Signedness::Signed,
        )
        .unwrap();
        assert_eq!(m.num_vecs(), 4);
        for i in 0..4 {
            for j in 0..4 {
                let a = &data[i * 6..(i + 1) * 6];
                let b = &data[j * 6..(j + 1) * 6];
                assert_eq!(m.dot(i, &m, j), dot_exact(a, b).unwrap());
            }
        }
    }

    #[test]
    fn empty_vectors_dot_to_zero() {
        let p = PackedSliceMatrix::pack(&[], BitWidth::INT8, SliceWidth::BIT2, Signedness::Signed)
            .unwrap();
        assert!(p.is_empty());
        assert_eq!(p.words_per_vec(), 0);
        assert_eq!(p.dot(0, &p, 0), 0);
    }

    #[test]
    fn out_of_range_value_is_rejected() {
        assert!(matches!(
            PackedSliceMatrix::pack(&[128], BitWidth::INT8, SliceWidth::BIT2, Signedness::Signed),
            Err(CoreError::ValueOutOfRange { .. })
        ));
        assert!(matches!(
            PackedSliceMatrix::pack(
                &[-1],
                BitWidth::INT4,
                SliceWidth::BIT2,
                Signedness::Unsigned
            ),
            Err(CoreError::ValueOutOfRange { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "differ in slice width")]
    fn mismatched_slice_widths_panic() {
        let a = PackedSliceMatrix::pack(&[1], BitWidth::INT4, SliceWidth::BIT2, Signedness::Signed)
            .unwrap();
        let b = PackedSliceMatrix::pack(&[1], BitWidth::INT4, SliceWidth::BIT1, Signedness::Signed)
            .unwrap();
        let _ = a.dot(0, &b, 0);
    }

    #[test]
    fn byte_len_counts_all_planes() {
        let p = PackedSliceMatrix::pack_rows(
            &[0i32; 64],
            2,
            32,
            BitWidth::INT4,
            SliceWidth::BIT2,
            Signedness::Signed,
        )
        .unwrap();
        // 2 planes x 2 vectors x 1 word (32 2-bit fields) x 8 bytes.
        assert_eq!(p.byte_len(), 2 * 2 * 8);
    }
}
