//! Backend-dispatched compute kernels shared by the inference (ALS/LOO)
//! and neural (dense-layer) hot paths.
//!
//! Every function takes an explicit [`BackendKind`] so differential tests
//! can drive both implementations in one process; production callers pass
//! [`crate::backend::active_kind`]. The scalar arms are the original
//! loops, the SIMD arms (in the private `simd` module) are
//! bitwise-identical to them — see the contract in [`crate::backend`].
//!
//! The gram-family kernels fall back to scalar below rank 4: a masked
//! sub-4-lane tile measured *slower* than the scalar loop, so the SIMD
//! arm only engages when at least one full 4-lane chunk exists.

use crate::backend::BackendKind;

/// Rank floor for the SIMD gram/downdate arms (one full AVX2 lane).
const SIMD_MIN_RANK: usize = 4;

#[inline]
fn simd_ok(kind: BackendKind, r: usize) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        kind == BackendKind::Simd && r >= SIMD_MIN_RANK
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (kind, r);
        false
    }
}

/// One ALS observation folded into the normal equations:
/// `rhs[a] += d·vt[a]`, `gram[a·r + b] += vt[a]·vt[b]` (`gram` row-major
/// `r × r`, `r = rhs.len() = vt.len()`).
///
/// # Panics
///
/// Panics (debug) on inconsistent lengths.
#[inline]
pub fn gram_rhs_update(kind: BackendKind, gram: &mut [f64], rhs: &mut [f64], d: f64, vt: &[f64]) {
    let r = rhs.len();
    debug_assert_eq!(vt.len(), r);
    debug_assert_eq!(gram.len(), r * r);
    #[cfg(target_arch = "x86_64")]
    if simd_ok(kind, r) {
        // SAFETY: the Simd backend is only selectable on AVX2 hosts.
        unsafe { crate::simd::gram_rhs_update(gram, rhs, d, vt) };
        return;
    }
    let _ = kind;
    for a in 0..r {
        rhs[a] += d * vt[a];
        for b in 0..r {
            gram[a * r + b] += vt[a] * vt[b];
        }
    }
}

/// One observation folded into a Gram matrix alone:
/// `gram[a·r + b] += vt[a]·vt[b]` — the Gram half of
/// [`gram_rhs_update`], element for element. ALS rows that share an
/// observation pattern build their common Gram with this once.
#[inline]
pub fn gram_update(kind: BackendKind, gram: &mut [f64], vt: &[f64]) {
    let r = vt.len();
    debug_assert_eq!(gram.len(), r * r);
    #[cfg(target_arch = "x86_64")]
    if simd_ok(kind, r) {
        // SAFETY: the Simd backend is only selectable on AVX2 hosts.
        unsafe { crate::simd::gram_update(gram, vt) };
        return;
    }
    let _ = kind;
    for a in 0..r {
        for b in 0..r {
            gram[a * r + b] += vt[a] * vt[b];
        }
    }
}

/// LOO local pre-solve: exact mean-shifted right-hand side plus rank-1
/// gram downdate of the left-out cycle's factor `vb`:
/// `rhs[a] = rhs_raw[a] - x·vb[a] - mean1·(vsum[a] - vb[a])`,
/// `gram[a·r + b] -= vb[a]·vb[b]`.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn downdate_rank1(
    kind: BackendKind,
    gram: &mut [f64],
    rhs: &mut [f64],
    rhs_raw: &[f64],
    vsum: &[f64],
    x: f64,
    mean1: f64,
    vb: &[f64],
) {
    let r = rhs.len();
    debug_assert!(rhs_raw.len() == r && vsum.len() == r && vb.len() == r && gram.len() == r * r);
    #[cfg(target_arch = "x86_64")]
    if simd_ok(kind, r) {
        // SAFETY: the Simd backend is only selectable on AVX2 hosts.
        unsafe { crate::simd::downdate_rank1(gram, rhs, rhs_raw, vsum, x, mean1, vb) };
        return;
    }
    let _ = kind;
    for a in 0..r {
        rhs[a] = rhs_raw[a] - x * vb[a] - mean1 * (vsum[a] - vb[a]);
        for b in 0..r {
            gram[a * r + b] -= vb[a] * vb[b];
        }
    }
}

/// LOO rank-2 Gram correction (base factor `vb` out, refined factor `vt`
/// in): `gram[a·r + b] += vt[a]·vt[b] - vb[a]·vb[b]`. The matching
/// right-hand side depends on the row's own observations, so the caller
/// computes it per row while rows of one pattern share the Gram.
#[inline]
pub fn correct_rank2(kind: BackendKind, gram: &mut [f64], vb: &[f64], vt: &[f64]) {
    let r = vt.len();
    debug_assert!(vb.len() == r && gram.len() == r * r);
    #[cfg(target_arch = "x86_64")]
    if simd_ok(kind, r) {
        // SAFETY: the Simd backend is only selectable on AVX2 hosts.
        unsafe { crate::simd::correct_rank2(gram, vb, vt) };
        return;
    }
    let _ = kind;
    for a in 0..r {
        for b in 0..r {
            gram[a * r + b] += vt[a] * vt[b] - vb[a] * vb[b];
        }
    }
}

/// In-place ReLU over a slice: `x = (x > 0) ? x : +0.0`. The branch form
/// (not `f64::max`, whose ±0 tie-break Rust documents as
/// nondeterministic) pins `-0.0 → +0.0` and `NaN → +0.0` — exactly the
/// `maxpd(x, 0)` lane semantics, so both backends are fully bitwise.
pub fn relu_slice(kind: BackendKind, xs: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if kind == BackendKind::Simd {
        // SAFETY: the Simd backend is only selectable on AVX2 hosts.
        unsafe { crate::simd::relu_slice(xs) };
        return;
    }
    let _ = kind;
    for x in xs {
        *x = if *x > 0.0 { *x } else { 0.0 };
    }
}

/// Fused ReLU-derivative gradient: `dz[i] = d_post[i] · (pre[i] > 0 ? 1 : 0)`.
///
/// # Panics
///
/// Panics (debug) on length mismatches.
pub fn relu_grad_fuse(kind: BackendKind, dz: &mut [f64], d_post: &[f64], pre: &[f64]) {
    debug_assert!(dz.len() == d_post.len() && dz.len() == pre.len());
    #[cfg(target_arch = "x86_64")]
    if kind == BackendKind::Simd {
        // SAFETY: the Simd backend is only selectable on AVX2 hosts.
        unsafe { crate::simd::relu_grad_fuse(dz, d_post, pre) };
        return;
    }
    let _ = kind;
    for ((d, &dp), &p) in dz.iter_mut().zip(d_post).zip(pre) {
        *d = dp * if p > 0.0 { 1.0 } else { 0.0 };
    }
}

/// `acc[i] += src[i]` — the dense-layer bias column reduction (one call
/// per sample row, preserving the scalar path's sample order).
#[inline]
pub fn add_assign(kind: BackendKind, acc: &mut [f64], src: &[f64]) {
    debug_assert_eq!(acc.len(), src.len());
    #[cfg(target_arch = "x86_64")]
    if kind == BackendKind::Simd {
        // SAFETY: the Simd backend is only selectable on AVX2 hosts.
        unsafe { crate::simd::add_assign(acc, src) };
        return;
    }
    let _ = kind;
    for (a, &s) in acc.iter_mut().zip(src) {
        *a += s;
    }
}
