//! Explicit x86-64 SIMD kernels — the `BackendKind::Simd` implementation
//! set.
//!
//! # Bitwise contract
//!
//! Every kernel here vectorises across *independent output elements* and
//! performs, per element, exactly the scalar kernel's operation sequence:
//! separate multiply then separate add/sub in the same order, never an
//! FMA (single-rounded contraction would change low bits). The only
//! representational freedom left is NaN payload bits, which IEEE-754 (and
//! rustc's own constant folder) already leaves unspecified; NaN-ness,
//! zero signs and infinities are exact. `crates/linalg/tests/
//! backend_oracle.rs` pins this differentially against the scalar loops.
//!
//! All entry points are `unsafe fn` gated on `#[target_feature]`; callers
//! (the dispatchers in [`crate::gemm`] and [`crate::kernels`]) only reach
//! them after [`crate::backend`] has verified the feature at runtime.
//! On non-x86-64 targets this module compiles to nothing and the SIMD
//! backend is never selectable.

#![cfg(target_arch = "x86_64")]

use core::arch::x86_64::*;

use crate::gemm::MicroFn;

/// The SIMD GEMM register tile for this host: `(mr, nr, micro_kernel)`.
/// AVX-512F runs an 8×16 tile (two zmm accumulators per row); plain AVX2
/// an 8×8 tile processed as two 4×8 half-tiles (11 live ymm registers
/// per half, inside the 16-register budget).
pub(crate) fn gemm_tile() -> (usize, usize, MicroFn) {
    if is_x86_feature_detected!("avx512f") {
        (8, 16, micro_avx512_8x16)
    } else {
        (8, 8, micro_avx2_8x8)
    }
}

/// Seeds the `mr × nr` valid lanes of a `rows × width` spill tile with
/// `β·C`, matching the scalar micro-kernel's accumulator seeding.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn seed_beta<const W: usize>(
    tmp: &mut [[f64; W]],
    c: &[f64],
    n: usize,
    row0: usize,
    col0: usize,
    mr: usize,
    nr: usize,
    beta: f64,
) {
    if beta == 0.0 {
        return;
    }
    for (i, trow) in tmp.iter_mut().enumerate().take(mr) {
        let crow = &c[(row0 + i) * n + col0..(row0 + i) * n + col0 + nr];
        for (j, &cv) in crow.iter().enumerate() {
            trow[j] = if beta == 1.0 { cv } else { beta * cv };
        }
    }
}

/// Stores the valid `mr × nr` lanes of the spill tile back into `C`.
#[inline(always)]
fn store_tile<const W: usize>(
    tmp: &[[f64; W]],
    c: &mut [f64],
    n: usize,
    row0: usize,
    col0: usize,
    mr: usize,
    nr: usize,
) {
    for (i, trow) in tmp.iter().enumerate().take(mr) {
        let crow = &mut c[(row0 + i) * n + col0..(row0 + i) * n + col0 + nr];
        crow.copy_from_slice(&trow[..nr]);
    }
}

/// AVX-512F 8×16 micro-kernel: 16 zmm accumulators (two per row), one
/// broadcast per packed `A` lane, separate `mul`/`add` per product so
/// each output element accumulates in exactly the scalar `k` order.
///
/// Safe wrapper shape (`MicroFn`); the `unsafe` block requires AVX-512F,
/// which [`gemm_tile`] verified at dispatch time.
#[allow(clippy::too_many_arguments)]
fn micro_avx512_8x16(
    pa: &[f64],
    pb: &[f64],
    kc: usize,
    c: &mut [f64],
    n: usize,
    row0: usize,
    col0: usize,
    mr: usize,
    nr: usize,
    beta: f64,
) {
    debug_assert!(is_x86_feature_detected!("avx512f"));
    debug_assert!(pa.len() >= kc * 8 && pb.len() >= kc * 16);
    // SAFETY: dispatch selected this kernel only after runtime AVX-512F
    // detection; the packed panels are padded to the full 8/16 widths.
    unsafe { micro_avx512_8x16_impl(pa, pb, kc, c, n, row0, col0, mr, nr, beta) }
}

#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn micro_avx512_8x16_impl(
    pa: &[f64],
    pb: &[f64],
    kc: usize,
    c: &mut [f64],
    n: usize,
    row0: usize,
    col0: usize,
    mr: usize,
    nr: usize,
    beta: f64,
) {
    let mut tmp = [[0.0f64; 16]; 8];
    seed_beta(&mut tmp, c, n, row0, col0, mr, nr, beta);
    let mut acc = [[_mm512_setzero_pd(); 2]; 8];
    for (i, trow) in tmp.iter().enumerate() {
        acc[i][0] = _mm512_loadu_pd(trow.as_ptr());
        acc[i][1] = _mm512_loadu_pd(trow.as_ptr().add(8));
    }
    let mut pap = pa.as_ptr();
    let mut pbp = pb.as_ptr();
    for _ in 0..kc {
        let bv0 = _mm512_loadu_pd(pbp);
        let bv1 = _mm512_loadu_pd(pbp.add(8));
        for (i, arow) in acc.iter_mut().enumerate() {
            let ai = _mm512_set1_pd(*pap.add(i));
            arow[0] = _mm512_add_pd(arow[0], _mm512_mul_pd(ai, bv0));
            arow[1] = _mm512_add_pd(arow[1], _mm512_mul_pd(ai, bv1));
        }
        pap = pap.add(8);
        pbp = pbp.add(16);
    }
    for (i, trow) in tmp.iter_mut().enumerate() {
        _mm512_storeu_pd(trow.as_mut_ptr(), acc[i][0]);
        _mm512_storeu_pd(trow.as_mut_ptr().add(8), acc[i][1]);
    }
    store_tile(&tmp, c, n, row0, col0, mr, nr);
}

/// AVX2 8×8 micro-kernel, run as two 4×8 half-tiles so the 8
/// accumulators + 2 `B` vectors + 1 broadcast stay within the 16 ymm
/// registers. Same bitwise discipline as the AVX-512 kernel.
#[allow(clippy::too_many_arguments)]
fn micro_avx2_8x8(
    pa: &[f64],
    pb: &[f64],
    kc: usize,
    c: &mut [f64],
    n: usize,
    row0: usize,
    col0: usize,
    mr: usize,
    nr: usize,
    beta: f64,
) {
    debug_assert!(is_x86_feature_detected!("avx2"));
    debug_assert!(pa.len() >= kc * 8 && pb.len() >= kc * 8);
    // SAFETY: dispatch selected this kernel only after runtime AVX2
    // detection; the packed panels are padded to the full 8-lane widths.
    unsafe { micro_avx2_8x8_impl(pa, pb, kc, c, n, row0, col0, mr, nr, beta) }
}

#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn micro_avx2_8x8_impl(
    pa: &[f64],
    pb: &[f64],
    kc: usize,
    c: &mut [f64],
    n: usize,
    row0: usize,
    col0: usize,
    mr: usize,
    nr: usize,
    beta: f64,
) {
    let mut tmp = [[0.0f64; 8]; 8];
    seed_beta(&mut tmp, c, n, row0, col0, mr, nr, beta);
    for half in 0..2 {
        let rbase = half * 4;
        let mut acc = [[_mm256_setzero_pd(); 2]; 4];
        for (i, arow) in acc.iter_mut().enumerate() {
            arow[0] = _mm256_loadu_pd(tmp[rbase + i].as_ptr());
            arow[1] = _mm256_loadu_pd(tmp[rbase + i].as_ptr().add(4));
        }
        let mut pap = pa.as_ptr();
        let mut pbp = pb.as_ptr();
        for _ in 0..kc {
            let bv0 = _mm256_loadu_pd(pbp);
            let bv1 = _mm256_loadu_pd(pbp.add(4));
            for (i, arow) in acc.iter_mut().enumerate() {
                let ai = _mm256_set1_pd(*pap.add(rbase + i));
                arow[0] = _mm256_add_pd(arow[0], _mm256_mul_pd(ai, bv0));
                arow[1] = _mm256_add_pd(arow[1], _mm256_mul_pd(ai, bv1));
            }
            pap = pap.add(8);
            pbp = pbp.add(8);
        }
        for (i, arow) in acc.iter().enumerate() {
            _mm256_storeu_pd(tmp[rbase + i].as_mut_ptr(), arow[0]);
            _mm256_storeu_pd(tmp[rbase + i].as_mut_ptr().add(4), arow[1]);
        }
    }
    store_tile(&tmp, c, n, row0, col0, mr, nr);
}

/// `y[i] += a · x[i]` — the vector form of the scalar `y[i] += a * x[i]`
/// (separate multiply, separate add; 4-lane body, scalar tail).
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn axpy(y: &mut [f64], a: f64, x: &[f64]) {
    debug_assert_eq!(y.len(), x.len());
    let av = _mm256_set1_pd(a);
    let n = y.len();
    let mut i = 0;
    while i + 4 <= n {
        let yv = _mm256_loadu_pd(y.as_ptr().add(i));
        let xv = _mm256_loadu_pd(x.as_ptr().add(i));
        _mm256_storeu_pd(
            y.as_mut_ptr().add(i),
            _mm256_add_pd(yv, _mm256_mul_pd(av, xv)),
        );
        i += 4;
    }
    while i < n {
        y[i] += a * x[i];
        i += 1;
    }
}

/// `y[i] -= a · x[i]` (vector form of `y[i] -= a * x[i]`).
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn axmy(y: &mut [f64], a: f64, x: &[f64]) {
    debug_assert_eq!(y.len(), x.len());
    let av = _mm256_set1_pd(a);
    let n = y.len();
    let mut i = 0;
    while i + 4 <= n {
        let yv = _mm256_loadu_pd(y.as_ptr().add(i));
        let xv = _mm256_loadu_pd(x.as_ptr().add(i));
        _mm256_storeu_pd(
            y.as_mut_ptr().add(i),
            _mm256_sub_pd(yv, _mm256_mul_pd(av, xv)),
        );
        i += 4;
    }
    while i < n {
        y[i] -= a * x[i];
        i += 1;
    }
}

/// `acc[i] += src[i]`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn add_assign(acc: &mut [f64], src: &[f64]) {
    debug_assert_eq!(acc.len(), src.len());
    let n = acc.len();
    let mut i = 0;
    while i + 4 <= n {
        let av = _mm256_loadu_pd(acc.as_ptr().add(i));
        let sv = _mm256_loadu_pd(src.as_ptr().add(i));
        _mm256_storeu_pd(acc.as_mut_ptr().add(i), _mm256_add_pd(av, sv));
        i += 4;
    }
    while i < n {
        acc[i] += src[i];
        i += 1;
    }
}

/// One ALS observation: `rhs += d·vt`, `gram[a][·] += vt[a]·vt`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn gram_rhs_update(gram: &mut [f64], rhs: &mut [f64], d: f64, vt: &[f64]) {
    axpy(rhs, d, vt);
    gram_update(gram, vt);
}

/// The Gram half alone: `gram[a][·] += vt[a]·vt`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn gram_update(gram: &mut [f64], vt: &[f64]) {
    let r = vt.len();
    for a in 0..r {
        axpy(&mut gram[a * r..(a + 1) * r], vt[a], vt);
    }
}

/// LOO local pre-solve downdate:
/// `rhs[a] = rhs_raw[a] - x·vb[a] - mean1·(vsum[a] - vb[a])` and the
/// rank-1 gram downdate `gram[a][b] -= vb[a]·vb[b]`, with per-element
/// expression trees identical to the scalar loop.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn downdate_rank1(
    gram: &mut [f64],
    rhs: &mut [f64],
    rhs_raw: &[f64],
    vsum: &[f64],
    x: f64,
    mean1: f64,
    vb: &[f64],
) {
    let r = rhs.len();
    let xv = _mm256_set1_pd(x);
    let mv = _mm256_set1_pd(mean1);
    let mut a = 0;
    while a + 4 <= r {
        let raw = _mm256_loadu_pd(rhs_raw.as_ptr().add(a));
        let vbv = _mm256_loadu_pd(vb.as_ptr().add(a));
        let sv = _mm256_loadu_pd(vsum.as_ptr().add(a));
        // (rhs_raw - x·vb) - mean1·(vsum - vb), left-to-right like the
        // scalar expression.
        let t = _mm256_sub_pd(raw, _mm256_mul_pd(xv, vbv));
        let t = _mm256_sub_pd(t, _mm256_mul_pd(mv, _mm256_sub_pd(sv, vbv)));
        _mm256_storeu_pd(rhs.as_mut_ptr().add(a), t);
        a += 4;
    }
    while a < r {
        rhs[a] = rhs_raw[a] - x * vb[a] - mean1 * (vsum[a] - vb[a]);
        a += 1;
    }
    for a in 0..r {
        axmy(&mut gram[a * r..(a + 1) * r], vb[a], vb);
    }
}

/// LOO rank-2 Gram correction for rows observed at the assessed cycle:
/// `gram[a][b] += vt[a]·vt[b] - vb[a]·vb[b]`.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn correct_rank2(gram: &mut [f64], vb: &[f64], vt: &[f64]) {
    let r = vt.len();
    for a in 0..r {
        let row = &mut gram[a * r..(a + 1) * r];
        let tav = _mm256_set1_pd(vt[a]);
        let bav = _mm256_set1_pd(vb[a]);
        let mut b = 0;
        while b + 4 <= r {
            let g = _mm256_loadu_pd(row.as_ptr().add(b));
            let vtv = _mm256_loadu_pd(vt.as_ptr().add(b));
            let vbv = _mm256_loadu_pd(vb.as_ptr().add(b));
            // g + (vt[a]·vt[b] - vb[a]·vb[b]).
            let delta = _mm256_sub_pd(_mm256_mul_pd(tav, vtv), _mm256_mul_pd(bav, vbv));
            _mm256_storeu_pd(row.as_mut_ptr().add(b), _mm256_add_pd(g, delta));
            b += 4;
        }
        while b < r {
            row[b] += vt[a] * vt[b] - vb[a] * vb[b];
            b += 1;
        }
    }
}

/// In-place ReLU: `x = max(x, 0.0)`. `_mm256_max_pd(x, 0)` returns the
/// second operand on NaN or equal-zero compares — bit-identical to the
/// scalar `f64::max(x, 0.0)` on every input (verified by the oracle
/// harness over ±0, NaN, ±∞ and subnormals).
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn relu_slice(xs: &mut [f64]) {
    let zero = _mm256_setzero_pd();
    let n = xs.len();
    let mut i = 0;
    while i + 4 <= n {
        let v = _mm256_loadu_pd(xs.as_ptr().add(i));
        _mm256_storeu_pd(xs.as_mut_ptr().add(i), _mm256_max_pd(v, zero));
        i += 4;
    }
    while i < n {
        // Branch form, not `max`: pins the ±0 tie to +0.0 like the
        // vector body's `maxpd(x, 0)` lanes.
        xs[i] = if xs[i] > 0.0 { xs[i] } else { 0.0 };
        i += 1;
    }
}

/// Fused ReLU-derivative gradient: `dz[i] = dp[i] · (pre[i] > 0 ? 1 : 0)`.
/// The factor is materialised as an actual 1.0/0.0 and multiplied (never
/// masked to zero), so `dp·0` keeps the scalar path's signed-zero and
/// NaN-propagation behaviour.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn relu_grad_fuse(dz: &mut [f64], d_post: &[f64], pre: &[f64]) {
    debug_assert!(dz.len() == d_post.len() && dz.len() == pre.len());
    let zero = _mm256_setzero_pd();
    let one = _mm256_set1_pd(1.0);
    let n = dz.len();
    let mut i = 0;
    while i + 4 <= n {
        let p = _mm256_loadu_pd(pre.as_ptr().add(i));
        let dp = _mm256_loadu_pd(d_post.as_ptr().add(i));
        let mask = _mm256_cmp_pd::<_CMP_GT_OQ>(p, zero);
        let factor = _mm256_blendv_pd(zero, one, mask);
        _mm256_storeu_pd(dz.as_mut_ptr().add(i), _mm256_mul_pd(dp, factor));
        i += 4;
    }
    while i < n {
        dz[i] = d_post[i] * if pre[i] > 0.0 { 1.0 } else { 0.0 };
        i += 1;
    }
}
