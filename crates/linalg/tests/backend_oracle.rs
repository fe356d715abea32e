//! Differential oracle harness: the SIMD backend pinned against the
//! scalar loops, kernel by kernel, over random shapes and adversarial
//! values.
//!
//! The contract (see `drcell_linalg::backend`): every kernel is **bitwise
//! identical** across backends on every input, with a single carve-out —
//! NaN *payload bits* are unspecified (they already differ between
//! rustc's constant folder and the machine instruction), so NaN outputs
//! compare by class. Zero signs and infinities are exact.
//!
//! Every test drives both implementations explicitly through the
//! `*_with_kind` entry points / the [`kernels`] free functions, so the
//! process-global backend selection never matters here. On hosts without
//! AVX2 the SIMD arm is not selectable; the harness then exercises the
//! scalar-vs-scalar degenerate case and says so loudly.

use drcell_linalg::backend::{self, BackendKind};
use drcell_linalg::gemm::{gemm_slice_with_kind, Trans};
use drcell_linalg::kernels;
use proptest::prelude::*;

/// The SIMD kind when the host supports it; `None` → tests degrade to a
/// loud no-op (CI runs the real comparison on its AVX2 runners).
fn simd_kind() -> Option<BackendKind> {
    if backend::simd_available() {
        Some(BackendKind::Simd)
    } else {
        eprintln!("backend_oracle: no AVX2 on this host; SIMD arm not exercised");
        None
    }
}

/// Bitwise comparison with the NaN-class carve-out: finite values, zeros
/// (including sign) and infinities must match exactly; two NaNs match
/// regardless of payload.
fn assert_bits_match(scalar: &[f64], simd: &[f64], what: &str) {
    assert_eq!(scalar.len(), simd.len(), "{what}: length mismatch");
    for (i, (&s, &v)) in scalar.iter().zip(simd).enumerate() {
        let ok = if s.is_nan() || v.is_nan() {
            s.is_nan() && v.is_nan()
        } else {
            s.to_bits() == v.to_bits()
        };
        assert!(
            ok,
            "{what}: element {i} diverged: scalar {s:?} ({:#018x}) vs simd {v:?} ({:#018x})",
            s.to_bits(),
            v.to_bits()
        );
    }
}

/// Deterministic pseudo-random fill (splitmix64), optionally salting in
/// special values (NaN, ±∞, ±0, a subnormal) at deterministic positions.
fn fill(len: usize, seed: u64, specials: bool) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let mut next = || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    (0..len)
        .map(|_| {
            let z = next();
            if specials && z % 11 == 0 {
                match (z >> 8) % 6 {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => 0.0,
                    4 => -0.0,
                    _ => 4.9e-324, // smallest positive subnormal
                }
            } else {
                (z as f64 / u64::MAX as f64) * 10.0 - 5.0
            }
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn gemm_both_backends(
    m: usize,
    n: usize,
    k: usize,
    ta: Trans,
    tb: Trans,
    alpha: f64,
    beta: f64,
    seed: u64,
    specials: bool,
) {
    let Some(simd) = simd_kind() else { return };
    let (ar, ac) = match ta {
        Trans::No => (m, k),
        Trans::Yes => (k, m),
    };
    let (br, bc) = match tb {
        Trans::No => (k, n),
        Trans::Yes => (n, k),
    };
    let a = fill(ar * ac, seed, specials);
    let b = fill(br * bc, seed + 1, specials);
    let c0 = fill(m * n, seed + 2, specials);

    let mut c_scalar = c0.clone();
    gemm_slice_with_kind(
        BackendKind::Scalar,
        alpha,
        &a,
        ar,
        ac,
        ta,
        &b,
        br,
        bc,
        tb,
        beta,
        &mut c_scalar,
    )
    .expect("scalar gemm shapes agree");
    let mut c_simd = c0;
    gemm_slice_with_kind(
        simd,
        alpha,
        &a,
        ar,
        ac,
        ta,
        &b,
        br,
        bc,
        tb,
        beta,
        &mut c_simd,
    )
    .expect("simd gemm shapes agree");
    assert_bits_match(&c_scalar, &c_simd, "gemm");
}

proptest! {
    /// GEMM over random shapes (including lane-tail remainders of both the
    /// 8×16 AVX-512 and 8×8 AVX2 tiles), transposes and α/β: bitwise.
    #[test]
    fn gemm_simd_bitwise_equals_scalar(
        m in 0usize..34, n in 0usize..34, k in 0usize..20,
        ta in 0u8..2, tb in 0u8..2,
        alpha in -2.0f64..2.0, beta in -2.0f64..2.0,
        seed in 0u64..1000,
    ) {
        let (ta, tb) = (
            if ta == 1 { Trans::Yes } else { Trans::No },
            if tb == 1 { Trans::Yes } else { Trans::No },
        );
        gemm_both_backends(m, n, k, ta, tb, alpha, beta, seed, false);
    }

    /// GEMM with NaN/±∞/±0/subnormal entries salted in: NaN by class,
    /// everything else (infinities, zero signs) exact.
    #[test]
    fn gemm_special_values_match_by_class(
        m in 1usize..18, n in 1usize..18, k in 1usize..10,
        ta in 0u8..2, tb in 0u8..2,
        seed in 0u64..1000,
    ) {
        let (ta, tb) = (
            if ta == 1 { Trans::Yes } else { Trans::No },
            if tb == 1 { Trans::Yes } else { Trans::No },
        );
        gemm_both_backends(m, n, k, ta, tb, 1.0, 1.0, seed, true);
    }

    /// The ALS normal-equation accumulation (`rhs += d·v`, `gram += v·vᵀ`)
    /// across ranks straddling the SIMD rank floor and lane tails.
    #[test]
    fn gram_rhs_update_bitwise(r in 0usize..10, obs in 0usize..12, seed in 0u64..1000) {
        if let Some(simd) = simd_kind() {
            let mut gram_s = fill(r * r, seed, false);
            let mut rhs_s = fill(r, seed + 1, false);
            let mut gram_v = gram_s.clone();
            let mut rhs_v = rhs_s.clone();
            for o in 0..obs {
                let d = fill(1, seed + 2 + o as u64, false)[0];
                let vt = fill(r, seed + 100 + o as u64, o % 3 == 0);
                kernels::gram_rhs_update(BackendKind::Scalar, &mut gram_s, &mut rhs_s, d, &vt);
                kernels::gram_rhs_update(simd, &mut gram_v, &mut rhs_v, d, &vt);
            }
            assert_bits_match(&gram_s, &gram_v, "gram_rhs_update gram");
            assert_bits_match(&rhs_s, &rhs_v, "gram_rhs_update rhs");
        }
    }

    /// The LOO shared-cache build (`rhs += x·v`, `vsum += v`, `gram += v·vᵀ`).
    #[test]
    fn gram_rhs_vsum_update_bitwise(r in 0usize..10, obs in 0usize..12, seed in 0u64..1000) {
        if let Some(simd) = simd_kind() {
            let mut gram_s = vec![0.0; r * r];
            let mut rhs_s = vec![0.0; r];
            let mut vsum_s = vec![0.0; r];
            let (mut gram_v, mut rhs_v, mut vsum_v) =
                (gram_s.clone(), rhs_s.clone(), vsum_s.clone());
            for o in 0..obs {
                let x = fill(1, seed + 2 + o as u64, false)[0];
                let vt = fill(r, seed + 100 + o as u64, o % 4 == 0);
                kernels::gram_rhs_vsum_update(
                    BackendKind::Scalar, &mut gram_s, &mut rhs_s, &mut vsum_s, x, &vt,
                );
                kernels::gram_rhs_vsum_update(simd, &mut gram_v, &mut rhs_v, &mut vsum_v, x, &vt);
            }
            assert_bits_match(&gram_s, &gram_v, "vsum_update gram");
            assert_bits_match(&rhs_s, &rhs_v, "vsum_update rhs");
            assert_bits_match(&vsum_s, &vsum_v, "vsum_update vsum");
        }
    }

    /// The LOO rank-1 downdate with the exact mean shift.
    #[test]
    fn downdate_rank1_bitwise(r in 0usize..10, seed in 0u64..1000, specials_sel in 0u8..2) {
        if let Some(simd) = simd_kind() {
            let specials = specials_sel == 1;
            let rhs_raw = fill(r, seed, specials);
            let vsum = fill(r, seed + 1, specials);
            let vb = fill(r, seed + 2, specials);
            let x = fill(1, seed + 3, false)[0];
            let mean1 = fill(1, seed + 4, false)[0];
            let mut gram_s = fill(r * r, seed + 5, specials);
            let mut rhs_s = vec![0.0; r];
            let mut gram_v = gram_s.clone();
            let mut rhs_v = rhs_s.clone();
            kernels::downdate_rank1(
                BackendKind::Scalar, &mut gram_s, &mut rhs_s, &rhs_raw, &vsum, x, mean1, &vb,
            );
            kernels::downdate_rank1(simd, &mut gram_v, &mut rhs_v, &rhs_raw, &vsum, x, mean1, &vb);
            assert_bits_match(&gram_s, &gram_v, "downdate_rank1 gram");
            assert_bits_match(&rhs_s, &rhs_v, "downdate_rank1 rhs");
        }
    }

    /// The LOO rank-2 cache correction (base factor out, refined in).
    #[test]
    fn correct_rank2_bitwise(r in 0usize..10, seed in 0u64..1000, specials_sel in 0u8..2) {
        if let Some(simd) = simd_kind() {
            let specials = specials_sel == 1;
            let rhs_raw = fill(r, seed, specials);
            let vsum = fill(r, seed + 1, specials);
            let vb = fill(r, seed + 2, specials);
            let vt = fill(r, seed + 3, specials);
            let xi = fill(1, seed + 4, false)[0];
            let mean1 = fill(1, seed + 5, false)[0];
            let mut gram_s = fill(r * r, seed + 6, specials);
            let mut rhs_s = vec![0.0; r];
            let mut gram_v = gram_s.clone();
            let mut rhs_v = rhs_s.clone();
            kernels::correct_rank2(
                BackendKind::Scalar, &mut gram_s, &mut rhs_s, &rhs_raw, &vsum, xi, mean1, &vb, &vt,
            );
            kernels::correct_rank2(
                simd, &mut gram_v, &mut rhs_v, &rhs_raw, &vsum, xi, mean1, &vb, &vt,
            );
            assert_bits_match(&gram_s, &gram_v, "correct_rank2 gram");
            assert_bits_match(&rhs_s, &rhs_v, "correct_rank2 rhs");
        }
    }

    /// ReLU and its fused derivative over random lengths (odd lane tails
    /// included); the forward form is exact even on NaN inputs (`max`
    /// maps NaN to the 0.0 operand on both paths).
    #[test]
    fn relu_kernels_bitwise(len in 0usize..40, seed in 0u64..1000, specials_sel in 0u8..2) {
        if let Some(simd) = simd_kind() {
            let specials = specials_sel == 1;
            let src = fill(len, seed, specials);
            let mut xs_s = src.clone();
            let mut xs_v = src.clone();
            kernels::relu_slice(BackendKind::Scalar, &mut xs_s);
            kernels::relu_slice(simd, &mut xs_v);
            // Forward ReLU never produces NaN, so this is fully bitwise.
            for (i, (&s, &v)) in xs_s.iter().zip(&xs_v).enumerate() {
                prop_assert_eq!(
                    s.to_bits(), v.to_bits(),
                    "relu_slice element {} diverged: {:?} vs {:?}", i, s, v
                );
            }

            let d_post = fill(len, seed + 1, specials);
            let pre = src;
            let mut dz_s = vec![0.0; len];
            let mut dz_v = vec![0.0; len];
            kernels::relu_grad_fuse(BackendKind::Scalar, &mut dz_s, &d_post, &pre);
            kernels::relu_grad_fuse(simd, &mut dz_v, &d_post, &pre);
            assert_bits_match(&dz_s, &dz_v, "relu_grad_fuse");
        }
    }

    /// The bias column reduction `acc += src`.
    #[test]
    fn add_assign_bitwise(len in 0usize..40, seed in 0u64..1000, specials_sel in 0u8..2) {
        if let Some(simd) = simd_kind() {
            let specials = specials_sel == 1;
            let src = fill(len, seed, specials);
            let mut acc_s = fill(len, seed + 1, specials);
            let mut acc_v = acc_s.clone();
            kernels::add_assign(BackendKind::Scalar, &mut acc_s, &src);
            kernels::add_assign(simd, &mut acc_v, &src);
            assert_bits_match(&acc_s, &acc_v, "add_assign");
        }
    }
}

/// Deterministic edge shapes the random strategies might under-sample:
/// empty matrices, single rows/columns, exact tile multiples, and the
/// ±1-off-tile remainders of both micro-kernel widths.
#[test]
fn gemm_edge_shapes_bitwise() {
    for &(m, n, k) in &[
        (0, 0, 0),
        (0, 5, 3),
        (5, 0, 3),
        (5, 3, 0),
        (1, 1, 1),
        (1, 16, 4),
        (8, 8, 8),
        (8, 16, 8),
        (7, 15, 5),
        (9, 17, 3),
        (16, 32, 8),
        (17, 33, 9),
    ] {
        for &(ta, tb) in &[
            (Trans::No, Trans::No),
            (Trans::Yes, Trans::No),
            (Trans::No, Trans::Yes),
            (Trans::Yes, Trans::Yes),
        ] {
            for &(alpha, beta) in &[(1.0, 0.0), (1.0, 1.0), (-0.5, 0.37), (0.0, 2.0)] {
                gemm_both_backends(m, n, k, ta, tb, alpha, beta, 12345, false);
            }
        }
    }
}

/// NaN and infinity propagation through GEMM: both backends must agree on
/// *where* non-finite values land, and exactly on the infinities.
#[test]
fn gemm_nan_inf_placement_agrees() {
    let Some(simd) = simd_kind() else { return };
    let m = 9;
    let k = 5;
    let n = 17;
    let mut a = fill(m * k, 7, false);
    a[3 * k + 2] = f64::NAN;
    a[4 * k] = f64::INFINITY;
    let b = fill(k * n, 8, false);
    let c0 = vec![0.0; m * n];

    let run = |kind: BackendKind| {
        let mut c = c0.clone();
        gemm_slice_with_kind(
            kind,
            1.0,
            &a,
            m,
            k,
            Trans::No,
            &b,
            k,
            n,
            Trans::No,
            0.0,
            &mut c,
        )
        .expect("shapes agree");
        c
    };
    let scalar = run(BackendKind::Scalar);
    let vector = run(simd);
    assert_bits_match(&scalar, &vector, "gemm nan/inf placement");
    // Row 3 must be all-NaN in both (NaN · anything), row 4 non-finite.
    for j in 0..n {
        assert!(scalar[3 * n + j].is_nan() && vector[3 * n + j].is_nan());
        assert!(!scalar[4 * n + j].is_finite() && !vector[4 * n + j].is_finite());
    }
}

/// The SIMD gram-family kernels must engage above the rank floor — guard
/// against a dispatch regression silently routing everything to scalar.
/// (Equality alone can't see which path ran, so this asserts the dispatch
/// predicate itself stays meaningful: rank ≥ 4 runs SIMD when available.)
#[test]
fn rank_floor_straddles_dispatch() {
    let Some(simd) = simd_kind() else { return };
    // Below the floor and above it both work and agree.
    for r in [1usize, 3, 4, 5, 8, 9] {
        let mut gram_s = vec![0.0; r * r];
        let mut rhs_s = vec![0.0; r];
        let mut gram_v = gram_s.clone();
        let mut rhs_v = rhs_s.clone();
        let vt = fill(r, 99, false);
        kernels::gram_rhs_update(BackendKind::Scalar, &mut gram_s, &mut rhs_s, 1.5, &vt);
        kernels::gram_rhs_update(simd, &mut gram_v, &mut rhs_v, 1.5, &vt);
        assert_bits_match(&gram_s, &gram_v, "rank floor gram");
        assert_bits_match(&rhs_s, &rhs_v, "rank floor rhs");
    }
}
