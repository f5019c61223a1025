//! Explicit SIMD primitives for the workspace's hot loops.
//!
//! Two kernel families live here, shared by `tm-core` (dense scoring) and
//! `tm-track` (gated assignment):
//!
//! * **Dot products** over unit-normalized feature vectors — the inner loop
//!   of `sum_pairwise_unit_distances`. The AVX2+FMA path uses four
//!   256-bit accumulators (16 doubles per iteration) with a *fixed*
//!   reduction order, so results are identical from run to run on the same
//!   host; they may differ from the scalar kernel by a few ULPs (FMA fuses
//!   the rounding step), which callers tolerate — the workspace pins
//!   SIMD ≡ scalar within `1e-9` by proptest.
//! * **IoU cost rows** — the inner loop of `iou_threshold_matches`. These
//!   are required to be **bit-identical** to [`BBox::iou`]: no FMA, the
//!   same operation sequence per lane as the scalar code, so assignment
//!   decisions (and therefore golden metrics) cannot shift between the two
//!   dispatch paths.
//!
//! ## Dispatch & determinism contract
//!
//! Feature detection runs once (`OnceLock`) via `is_x86_feature_detected!`;
//! the environment variable [`SIMD_ENV`]`=0` forces the scalar path for
//! A/B debugging. The scalar kernels are the pinned references: they are
//! byte-for-byte the pre-SIMD implementations and must never change
//! behaviour. [`dispatch_name`] reports which path is live — the perf
//! trajectory records it in every `BENCH_*.json` meta block.

use crate::geometry::BBox;
use std::sync::OnceLock;

/// Environment variable: set to `0` to force the scalar fallback kernels
/// even on hosts whose CPU supports AVX2+FMA.
pub const SIMD_ENV: &str = "TMERGE_SIMD";

/// True when the AVX2+FMA kernels are compiled in, supported by this CPU,
/// and not disabled via [`SIMD_ENV`]. Cached after the first call.
pub fn simd_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        if std::env::var_os(SIMD_ENV).is_some_and(|v| v == *"0") {
            return false;
        }
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// True when this CPU has the AVX-512 subsets (F, DQ, VL) that the AVX-512
/// build of `tm-core`'s certified Thompson draws is compiled for, whatever
/// [`SIMD_ENV`] says.
pub fn avx512_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// True when [`avx512_detected`] holds and [`SIMD_ENV`] does not veto the
/// AVX-512 build. Cached after the first call.
pub fn avx512_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        let vetoed = std::env::var_os(SIMD_ENV).is_some_and(|v| v == *"0");
        !vetoed && avx512_detected()
    })
}

/// The live dispatch path, as recorded in bench metadata:
/// `"avx2+fma"` or `"scalar-fallback"`.
pub fn dispatch_name() -> &'static str {
    if simd_enabled() {
        "avx2+fma"
    } else {
        "scalar-fallback"
    }
}

// ---------------------------------------------------------------------------
// Dot product
// ---------------------------------------------------------------------------

/// Pinned scalar reference: four independent accumulators (so the compiler
/// may keep them in registers) folded in a fixed order. This is the exact
/// pre-SIMD kernel from `tm_core::score` and must not change.
pub fn dot_scalar(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let j = i * 4;
        acc[0] += a[j] * b[j];
        acc[1] += a[j + 1] * b[j + 1];
        acc[2] += a[j + 2] * b[j + 2];
        acc[3] += a[j + 3] * b[j + 3];
    }
    let mut tail = 0.0;
    for j in chunks * 4..a.len() {
        tail += a[j] * b[j];
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// AVX2+FMA dot product: four 256-bit accumulators (16 doubles per
/// iteration), reduced as `(acc0+acc1)+(acc2+acc3)`, then lanes
/// `(l0+l1)+(l2+l3)`, then the scalar tail — a fixed order, so the result
/// is deterministic for a given input on any AVX2 host.
///
/// # Safety
/// The caller must ensure the CPU supports AVX2 and FMA
/// (`is_x86_feature_detected!("avx2")` / `("fma")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
pub unsafe fn dot_avx2(a: &[f64], b: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    debug_assert_eq!(a.len(), b.len());
    let n = a.len();
    let ap = a.as_ptr();
    let bp = b.as_ptr();
    let mut acc0 = _mm256_setzero_pd();
    let mut acc1 = _mm256_setzero_pd();
    let mut acc2 = _mm256_setzero_pd();
    let mut acc3 = _mm256_setzero_pd();
    let mut i = 0usize;
    while i + 16 <= n {
        acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(bp.add(i)), acc0);
        acc1 = _mm256_fmadd_pd(
            _mm256_loadu_pd(ap.add(i + 4)),
            _mm256_loadu_pd(bp.add(i + 4)),
            acc1,
        );
        acc2 = _mm256_fmadd_pd(
            _mm256_loadu_pd(ap.add(i + 8)),
            _mm256_loadu_pd(bp.add(i + 8)),
            acc2,
        );
        acc3 = _mm256_fmadd_pd(
            _mm256_loadu_pd(ap.add(i + 12)),
            _mm256_loadu_pd(bp.add(i + 12)),
            acc3,
        );
        i += 16;
    }
    // Fixed reduction order: (acc0+acc1)+(acc2+acc3).
    let mut acc = _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3));
    while i + 4 <= n {
        acc = _mm256_fmadd_pd(_mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(bp.add(i)), acc);
        i += 4;
    }
    let mut lanes = [0.0f64; 4];
    _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
    let mut sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    while i < n {
        sum += *ap.add(i) * *bp.add(i);
        i += 1;
    }
    sum
}

/// Dispatching dot product: AVX2+FMA when available, pinned scalar
/// otherwise. `a` and `b` must have equal length.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() {
        // SAFETY: simd_enabled() returns true only after runtime detection
        // of both avx2 and fma.
        return unsafe { dot_avx2(a, b) };
    }
    dot_scalar(a, b)
}

// ---------------------------------------------------------------------------
// IoU cost rows
// ---------------------------------------------------------------------------

/// Pinned scalar reference for the dense-fallback row of
/// `iou_threshold_matches`: appends `cols.len()` costs, each
/// `1 - iou(rb, col)` when that cost is `<= max_cost`, else `forbidden`.
pub fn iou_cost_row_masked_scalar(
    rb: &BBox,
    cols: &[BBox],
    max_cost: f64,
    forbidden: f64,
    out: &mut Vec<f64>,
) {
    out.extend(cols.iter().map(|cb| {
        let cost = 1.0 - rb.iou(cb);
        if cost <= max_cost {
            cost
        } else {
            forbidden
        }
    }));
}

/// Pinned scalar reference for the gated row: appends one cost
/// `1 - iou(rb, cols[i])` per index in `idx` (unmasked — the caller gates).
pub fn iou_costs_indexed_scalar(rb: &BBox, cols: &[BBox], idx: &[u32], out: &mut Vec<f64>) {
    out.extend(idx.iter().map(|&c| 1.0 - rb.iou(&cols[c as usize])));
}

/// One 4-lane step of the IoU cost kernel, replicating [`BBox::iou`]
/// operation-for-operation (max/min, subtract, multiply, divide — no FMA)
/// so each lane is bit-identical to the scalar result.
///
/// Lane math, mirroring `BBox::intersection` + `BBox::iou`:
/// `x0 = max(ax, bx)`, `x1 = min(ax+aw, bx+bw)` (and likewise for y);
/// the intersection exists iff `x1 > x0 && y1 > y0`, in which case its
/// area is `(x1-x0)*(y1-y0)` (the scalar `w.max(0.0)` clamp is a no-op
/// there); `union = (aw*ah + bw*bh) - inter`; IoU is `inter/union` when
/// `inter > 0 && union > 0`, else `0`. `_mm256_max_pd`'s signed-zero
/// tie-break differs from `f64::max`, but a `±0.0` corner only arises when
/// the strict `>` gates already force the lane to 0, identically to scalar.
///
/// # Safety
/// Caller must ensure AVX2 support and `cols.len() >= 4`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn iou_row4(rb: &BBox, cols: &[BBox]) -> [f64; 4] {
    use std::arch::x86_64::*;
    debug_assert!(cols.len() >= 4);
    // BBox is repr(Rust): stage fields through stack arrays rather than
    // assuming a memory layout.
    let mut bx = [0.0f64; 4];
    let mut by = [0.0f64; 4];
    let mut bw = [0.0f64; 4];
    let mut bh = [0.0f64; 4];
    for l in 0..4 {
        let b = cols.get_unchecked(l);
        bx[l] = b.x;
        by[l] = b.y;
        bw[l] = b.w;
        bh[l] = b.h;
    }
    let ax = _mm256_set1_pd(rb.x);
    let ay = _mm256_set1_pd(rb.y);
    let aw = _mm256_set1_pd(rb.w);
    let ah = _mm256_set1_pd(rb.h);
    let bx = _mm256_loadu_pd(bx.as_ptr());
    let by = _mm256_loadu_pd(by.as_ptr());
    let bw = _mm256_loadu_pd(bw.as_ptr());
    let bh = _mm256_loadu_pd(bh.as_ptr());

    let x0 = _mm256_max_pd(ax, bx);
    let y0 = _mm256_max_pd(ay, by);
    let x1 = _mm256_min_pd(_mm256_add_pd(ax, aw), _mm256_add_pd(bx, bw));
    let y1 = _mm256_min_pd(_mm256_add_pd(ay, ah), _mm256_add_pd(by, bh));
    let valid = _mm256_and_pd(
        _mm256_cmp_pd::<_CMP_GT_OQ>(x1, x0),
        _mm256_cmp_pd::<_CMP_GT_OQ>(y1, y0),
    );
    let inter = _mm256_mul_pd(_mm256_sub_pd(x1, x0), _mm256_sub_pd(y1, y0));
    // union = (a.area() + b.area()) - inter, in the scalar evaluation order.
    let union = _mm256_sub_pd(
        _mm256_add_pd(_mm256_mul_pd(aw, ah), _mm256_mul_pd(bw, bh)),
        inter,
    );
    let zero = _mm256_setzero_pd();
    let good = _mm256_and_pd(
        valid,
        _mm256_and_pd(
            _mm256_cmp_pd::<_CMP_GT_OQ>(inter, zero),
            _mm256_cmp_pd::<_CMP_GT_OQ>(union, zero),
        ),
    );
    // Dead lanes may divide by zero; the blend discards them before use.
    let iou = _mm256_blendv_pd(zero, _mm256_div_pd(inter, union), good);
    let cost = _mm256_sub_pd(_mm256_set1_pd(1.0), iou);
    let mut lanes = [0.0f64; 4];
    _mm256_storeu_pd(lanes.as_mut_ptr(), cost);
    lanes
}

/// # Safety
/// Caller must ensure AVX2 support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn iou_cost_row_masked_avx2(
    rb: &BBox,
    cols: &[BBox],
    max_cost: f64,
    forbidden: f64,
    out: &mut Vec<f64>,
) {
    let mut i = 0usize;
    while i + 4 <= cols.len() {
        let lanes = iou_row4(rb, cols.get_unchecked(i..));
        for &cost in &lanes {
            out.push(if cost <= max_cost { cost } else { forbidden });
        }
        i += 4;
    }
    iou_cost_row_masked_scalar(rb, &cols[i..], max_cost, forbidden, out);
}

/// # Safety
/// Caller must ensure AVX2 support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn iou_costs_indexed_avx2(rb: &BBox, cols: &[BBox], idx: &[u32], out: &mut Vec<f64>) {
    let mut gathered = [BBox::default(); 4];
    let mut i = 0usize;
    while i + 4 <= idx.len() {
        for l in 0..4 {
            gathered[l] = cols[*idx.get_unchecked(i + l) as usize];
        }
        let lanes = iou_row4(rb, &gathered);
        out.extend_from_slice(&lanes);
        i += 4;
    }
    iou_costs_indexed_scalar(rb, cols, &idx[i..], out);
}

/// Dispatching dense IoU cost row (bit-identical across paths): appends
/// `cols.len()` entries to `out` — the cost `1 - iou` where it passes the
/// gate, `forbidden` otherwise.
pub fn iou_cost_row_masked(
    rb: &BBox,
    cols: &[BBox],
    max_cost: f64,
    forbidden: f64,
    out: &mut Vec<f64>,
) {
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() {
        // SAFETY: runtime-detected AVX2.
        unsafe { iou_cost_row_masked_avx2(rb, cols, max_cost, forbidden, out) };
        return;
    }
    iou_cost_row_masked_scalar(rb, cols, max_cost, forbidden, out);
}

/// Dispatching gated IoU cost row (bit-identical across paths): appends
/// one unmasked cost per candidate index in `idx`.
pub fn iou_costs_indexed(rb: &BBox, cols: &[BBox], idx: &[u32], out: &mut Vec<f64>) {
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() {
        // SAFETY: runtime-detected AVX2.
        unsafe { iou_costs_indexed_avx2(rb, cols, idx, out) };
        return;
    }
    iou_costs_indexed_scalar(rb, cols, idx, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn splitmix(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    fn boxes(n: usize, seed: u64) -> Vec<BBox> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                BBox::new(
                    splitmix(&mut s) * 500.0,
                    splitmix(&mut s) * 500.0,
                    splitmix(&mut s) * 120.0,
                    splitmix(&mut s) * 120.0,
                )
            })
            .collect()
    }

    #[test]
    fn dispatch_name_is_one_of_the_two_contract_strings() {
        assert!(matches!(dispatch_name(), "avx2+fma" | "scalar-fallback"));
    }

    #[test]
    fn dot_simd_matches_scalar_within_1e9_all_lengths() {
        let mut s = 7u64;
        for n in [0usize, 1, 3, 4, 5, 15, 16, 17, 64, 127, 128, 257] {
            let a: Vec<f64> = (0..n).map(|_| splitmix(&mut s) * 2.0 - 1.0).collect();
            let b: Vec<f64> = (0..n).map(|_| splitmix(&mut s) * 2.0 - 1.0).collect();
            let got = dot(&a, &b);
            let want = dot_scalar(&a, &b);
            assert!(
                (got - want).abs() <= 1e-9,
                "dot mismatch at n={n}: {got} vs {want}"
            );
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_dot_is_run_to_run_deterministic() {
        if !simd_enabled() {
            return; // fallback host: nothing to compare
        }
        let mut s = 11u64;
        let a: Vec<f64> = (0..301).map(|_| splitmix(&mut s) * 2.0 - 1.0).collect();
        let b: Vec<f64> = (0..301).map(|_| splitmix(&mut s) * 2.0 - 1.0).collect();
        // SAFETY: simd_enabled() checked above.
        let first = unsafe { dot_avx2(&a, &b) };
        for _ in 0..10 {
            let again = unsafe { dot_avx2(&a, &b) };
            assert_eq!(first.to_bits(), again.to_bits());
        }
    }

    #[test]
    fn iou_masked_row_bit_identical_to_scalar() {
        let cols = boxes(53, 3);
        let rows = boxes(9, 4);
        for rb in &rows {
            for &max_cost in &[0.3, 0.7, 1.0] {
                let mut simd_out = Vec::new();
                let mut ref_out = Vec::new();
                iou_cost_row_masked(rb, &cols, max_cost, f64::MAX, &mut simd_out);
                iou_cost_row_masked_scalar(rb, &cols, max_cost, f64::MAX, &mut ref_out);
                assert_eq!(simd_out.len(), ref_out.len());
                for (g, w) in simd_out.iter().zip(&ref_out) {
                    assert_eq!(g.to_bits(), w.to_bits(), "masked IoU row drifted");
                }
            }
        }
    }

    #[test]
    fn iou_indexed_row_bit_identical_to_scalar() {
        let cols = boxes(40, 5);
        let idx: Vec<u32> = (0..40u32).rev().filter(|i| i % 3 != 0).collect();
        for rb in &boxes(7, 6) {
            let mut simd_out = Vec::new();
            let mut ref_out = Vec::new();
            iou_costs_indexed(rb, &cols, &idx, &mut simd_out);
            iou_costs_indexed_scalar(rb, &cols, &idx, &mut ref_out);
            assert_eq!(simd_out.len(), ref_out.len());
            for (g, w) in simd_out.iter().zip(&ref_out) {
                assert_eq!(g.to_bits(), w.to_bits(), "indexed IoU row drifted");
            }
        }
    }

    #[test]
    fn degenerate_boxes_cost_matches_scalar() {
        // Zero-area, touching, and nested boxes — the gate corners.
        let cols = vec![
            BBox::new(0.0, 0.0, 0.0, 10.0),
            BBox::new(0.0, 0.0, 10.0, 0.0),
            BBox::new(10.0, 0.0, 5.0, 5.0),  // touches rb's right edge
            BBox::new(2.0, 2.0, 3.0, 3.0),   // nested
            BBox::new(0.0, 0.0, 10.0, 10.0), // identical
        ];
        let rb = BBox::new(0.0, 0.0, 10.0, 10.0);
        let mut simd_out = Vec::new();
        let mut ref_out = Vec::new();
        iou_cost_row_masked(&rb, &cols, 1.0, f64::MAX, &mut simd_out);
        iou_cost_row_masked_scalar(&rb, &cols, 1.0, f64::MAX, &mut ref_out);
        for (g, w) in simd_out.iter().zip(&ref_out) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
    }

    proptest! {
        #[test]
        fn prop_dot_matches_scalar(
            n in 0usize..200,
            seed in 0u64..1_000_000,
        ) {
            let mut s = seed.wrapping_mul(2654435761).wrapping_add(1);
            let a: Vec<f64> = (0..n).map(|_| splitmix(&mut s) * 2.0 - 1.0).collect();
            let b: Vec<f64> = (0..n).map(|_| splitmix(&mut s) * 2.0 - 1.0).collect();
            let diff = (dot(&a, &b) - dot_scalar(&a, &b)).abs();
            prop_assert!(diff <= 1e-9, "dot drift {diff}");
        }

        #[test]
        fn prop_iou_row_bit_identical(
            n in 0usize..40,
            seed in 0u64..1_000_000,
            max_cost in 0.0f64..1.5,
        ) {
            let cols = boxes(n, seed.wrapping_add(1));
            let rb = boxes(1, seed.wrapping_add(99))[0];
            let mut simd_out = Vec::new();
            let mut ref_out = Vec::new();
            iou_cost_row_masked(&rb, &cols, max_cost, f64::MAX, &mut simd_out);
            iou_cost_row_masked_scalar(&rb, &cols, max_cost, f64::MAX, &mut ref_out);
            prop_assert_eq!(simd_out.len(), ref_out.len());
            for (g, w) in simd_out.iter().zip(&ref_out) {
                prop_assert_eq!(g.to_bits(), w.to_bits());
            }
        }
    }
}
