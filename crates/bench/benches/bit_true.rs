//! Criterion bench of the packed bit-plane GEMM path against the seed
//! per-element CVU path — the acceptance check for the packed-kernel
//! refactor (target: ≥ 20× on identical operands, bit-identical outputs)
//! and for the SIMD dispatch tiers (target: ≥ 4× scalar on the AVX-512
//! tier for the fused blocked GEMM, pre-packed operands).
//!
//! Besides the criterion output, running this bench writes
//! `BENCH_bittrue.json` at the workspace root with per-path timings and
//! MACs/s (the requests-per-sec analog for GEMMs) plus the measured
//! speedups, so CI can track it next to the other BENCH files. The
//! per-kernel rows (`packed_gemm_prepacked_scalar` vs `…_simd` vs the
//! fused-tiled driver) isolate the kernel win from packing cost; the
//! `kernel_tier` field records which dispatch tier `…_simd` actually ran.
//! The packing rows time operand decomposition on its own, at the shapes
//! whole-network inference packs on every call: an fc-shaped INT4 weight
//! matrix through `pack_rows`, and the AlexNet conv1 im2col matrix through
//! `pack_gemm_cols`, each checked plane for plane against the per-element
//! `pack_from_fn` oracle first.

use std::time::Instant;

use bpvec_core::kernels::{detected_tier, KernelTier};
use bpvec_core::{BitWidth, PackedSliceMatrix, Signedness};
use bpvec_dnn::packing::{pack_gemm_cols, pack_gemm_rows};
use bpvec_dnn::Tensor;
use bpvec_sim::systolic::{ArrayConfig, SystolicArray};
use criterion::{black_box, criterion_group, Criterion, Throughput};

/// Headline GEMM: one AlexNet conv1 row tile — all 64 output channels,
/// im2col depth 3·11·11 = 363, a 64-pixel strip of output positions.
const M: usize = 64;
const K: usize = 363;
const N: usize = 64;

/// Packing rows: an fc-shaped weight matrix (AlexNet fc7's 4096 inputs,
/// half its outputs: 8M elements) and the conv1 im2col matrix
/// `[3·11·11, 55·55]`.
const FC_SHAPE: [usize; 2] = [2048, 4096];
const CONV1_COLS: [usize; 2] = [363, 3025];

fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn matrix(m: usize, n: usize, bits: BitWidth, seed: u64) -> Tensor {
    let (lo, hi) = bits.range(Signedness::Signed);
    let span = (hi - lo + 1) as u64;
    let mut i = 0u64;
    Tensor::from_fn(&[m, n], |_| {
        i += 1;
        lo + (mix(seed ^ i) % span) as i32
    })
}

/// Seed path: every output scalar through `Cvu::dot_product`, slicing
/// elements one at a time.
fn run_seed(arr: &SystolicArray, a: &Tensor, b: &Tensor, ba: BitWidth, bb: BitWidth) -> Tensor {
    arr.gemm(a, b, ba, bb, Signedness::Signed)
        .expect("seed gemm")
        .output
}

/// Packed path, packing included: decompose both operands into bit planes,
/// then stream the word-level kernels tile-by-tile.
fn run_packed(arr: &SystolicArray, a: &Tensor, b: &Tensor, ba: BitWidth, bb: BitWidth) -> Tensor {
    let sw = arr.config().cvu.slice_width;
    let pa = a.pack_rows(ba, sw, Signedness::Signed).expect("pack rows");
    let pb = b.pack_cols(bb, sw, Signedness::Signed).expect("pack cols");
    arr.gemm_packed(&pa, &pb).expect("packed gemm").output
}

fn bench(c: &mut Criterion) {
    let arr = SystolicArray::new(ArrayConfig::paper_default());
    // A smaller tile keeps the slow seed path's criterion runs short.
    let (sm, sk, sn) = (16, 128, 16);
    let a = matrix(sm, sk, BitWidth::INT8, 1);
    let b = matrix(sk, sn, BitWidth::INT8, 2);
    let mut g = c.benchmark_group("bit_true");
    g.throughput(Throughput::Elements((sm * sk * sn) as u64));
    g.bench_function("seed_per_element", |bch| {
        bch.iter(|| black_box(run_seed(&arr, &a, &b, BitWidth::INT8, BitWidth::INT8)))
    });
    g.bench_function("packed_planes", |bch| {
        bch.iter(|| black_box(run_packed(&arr, &a, &b, BitWidth::INT8, BitWidth::INT8)))
    });
    g.finish();
}

criterion_group!(benches, bench);

fn best_of<T>(reps: u32, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    benches();
    // Machine-readable summary for CI, written at the workspace root
    // (cargo sets a bench's cwd to the package directory).
    let arr = SystolicArray::new(ArrayConfig::paper_default());
    let a = matrix(M, K, BitWidth::INT8, 3);
    let b = matrix(K, N, BitWidth::INT8, 4);
    let macs = (M * K * N) as u64;

    // Bit-true guard: the two paths must agree exactly before timing means
    // anything.
    let seed_out = run_seed(&arr, &a, &b, BitWidth::INT8, BitWidth::INT8);
    let packed_out = run_packed(&arr, &a, &b, BitWidth::INT8, BitWidth::INT8);
    assert_eq!(seed_out, packed_out, "paths diverged; bench is meaningless");

    let seed_s = best_of(3, || run_seed(&arr, &a, &b, BitWidth::INT8, BitWidth::INT8));
    let packed_s = best_of(5, || {
        run_packed(&arr, &a, &b, BitWidth::INT8, BitWidth::INT8)
    });
    // The paper's heterogeneous mode (8-bit activations × 2-bit weights):
    // fewer planes, faster still.
    let b2 = matrix(K, N, BitWidth::INT2, 5);
    let packed_het_s = best_of(5, || {
        run_packed(&arr, &a, &b2, BitWidth::INT8, BitWidth::INT2)
    });

    // Per-kernel rows: the same GEMM compute with operands pre-packed
    // (packing hoisted out of the timed region), per dispatch tier — the
    // scalar reference kernel, the widest SIMD tier this host detects, and
    // the full fused-tiled driver (dispatch + rayon macro-tiles).
    let sw = arr.config().cvu.slice_width;
    let pa = a.pack_rows(BitWidth::INT8, sw, Signedness::Signed).unwrap();
    let pb = b.pack_cols(BitWidth::INT8, sw, Signedness::Signed).unwrap();
    let tier = detected_tier();
    let block = |t: KernelTier| {
        let mut out = vec![0i64; M * N];
        pa.dot_block_into(t, 0..M, &pb, &mut out);
        out
    };
    let scalar_s = best_of(5, || block(KernelTier::Scalar));
    let simd_s = best_of(9, || block(tier));
    let fused_tiled_s = best_of(9, || arr.gemm_packed(&pa, &pb).expect("packed gemm").output);

    // Packing rows, guarded against the per-element oracle.
    let [fm, fk] = FC_SHAPE;
    let w = matrix(fm, fk, BitWidth::INT4, 6);
    let pack_w = || pack_gemm_rows(&w, BitWidth::INT4, sw, Signedness::Signed).unwrap();
    let oracle_w =
        PackedSliceMatrix::pack_from_fn(fm, fk, BitWidth::INT4, sw, Signedness::Signed, |r, e| {
            w.as_slice()[r * fk + e]
        });
    assert_eq!(
        Ok(pack_w()),
        oracle_w,
        "pack_rows diverged; bench is meaningless"
    );
    let pack_rows_s = best_of(5, pack_w);
    let [ck, cn] = CONV1_COLS;
    let cols = matrix(ck, cn, BitWidth::INT8, 7);
    let pack_c = || pack_gemm_cols(&cols, BitWidth::INT8, sw, Signedness::Signed).unwrap();
    let oracle_c =
        PackedSliceMatrix::pack_from_fn(cn, ck, BitWidth::INT8, sw, Signedness::Signed, |c, e| {
            cols.as_slice()[e * cn + c]
        });
    assert_eq!(
        Ok(pack_c()),
        oracle_c,
        "pack_gemm_cols diverged; bench is meaningless"
    );
    let pack_cols_s = best_of(9, pack_c);

    let speedup = seed_s / packed_s;
    let simd_speedup = scalar_s / simd_s;
    let per_sec = |s: f64| macs as f64 / s;
    let row = |name: &str, s: f64| {
        format!(
            "    {{\n      \"name\": \"{name}\",\n      \"seconds_per_run\": {s:.6},\n      \
             \"macs_per_sec\": {:.1}\n    }}",
            per_sec(s)
        )
    };
    let pack_row = |name: &str, shape: [usize; 2], s: f64| {
        format!(
            "    {{\n      \"name\": \"{name}\",\n      \"seconds_per_run\": {s:.6},\n      \
             \"elements_per_sec\": {:.1}\n    }}",
            (shape[0] * shape[1]) as f64 / s
        )
    };
    let rows = [
        row("seed_per_element_8x8", seed_s),
        row("packed_planes_8x8", packed_s),
        row("packed_planes_8x2_het", packed_het_s),
        row("packed_gemm_prepacked_scalar", scalar_s),
        row("packed_gemm_prepacked_simd", simd_s),
        row("fused_tiled_gemm_8x8", fused_tiled_s),
        pack_row("pack_rows_fc_2048x4096_int4", FC_SHAPE, pack_rows_s),
        pack_row(
            "pack_gemm_cols_conv1_363x3025_int8",
            CONV1_COLS,
            pack_cols_s,
        ),
    ]
    .join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"bit_true\",\n  \"gemm\": \"alexnet conv1 tile [{M},{K}]x[{K},{N}]\",\n  \
         \"macs\": {macs},\n  \"kernel_tier\": \"{tier}\",\n  \"results\": [\n{rows}\n  ],\n  \
         \"speedup_packed_vs_seed\": {speedup:.2},\n  \
         \"speedup_simd_vs_scalar\": {simd_speedup:.2}\n}}\n",
    );
    let out_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_bittrue.json");
    std::fs::write(out_path, &json).expect("write BENCH_bittrue.json");
    print!("{json}");
    assert!(
        speedup >= 20.0,
        "packed path must be at least 20x the per-element seed path, got {speedup:.2}x"
    );
    // The ≥4x kernel acceptance gate runs where the native-popcount tier is
    // available (the CI/baseline host); narrower hosts still track their
    // own ratio through the committed baseline.
    if tier == KernelTier::Avx512 {
        assert!(
            simd_speedup >= 4.0,
            "avx512 kernel must be at least 4x the scalar packed kernel, got {simd_speedup:.2}x"
        );
    } else {
        println!("kernel tier {tier}: simd-vs-scalar gate is informational ({simd_speedup:.2}x)");
    }
    println!("wrote BENCH_bittrue.json");
}
