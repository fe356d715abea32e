//! Property-based tests for the linear-algebra substrate.

use drcell_linalg::decomp::Cholesky;
use drcell_linalg::gemm::{gemm_reference, gemm_slice, Trans};
use drcell_linalg::{vector, Matrix};
use proptest::prelude::*;

/// Strategy: a `rows × cols` matrix with entries in [-10, 10].
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0f64..10.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).expect("sized strategy"))
}

/// Strategy: a well-conditioned SPD matrix `AᵀA + I` of size `n`.
fn spd(n: usize) -> impl Strategy<Value = Matrix> {
    matrix(n, n).prop_map(move |a| {
        let mut g = a.transpose().matmul(&a).expect("square product");
        for i in 0..n {
            g[(i, i)] += 1.0;
        }
        g
    })
}

proptest! {
    #[test]
    fn transpose_is_involution(a in matrix(4, 3)) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matmul_associative(a in matrix(3, 4), b in matrix(4, 2), c in matrix(2, 5)) {
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        prop_assert!(left.approx_eq(&right, 1e-6));
    }

    #[test]
    fn matmul_distributes_over_add(a in matrix(3, 3), b in matrix(3, 3), c in matrix(3, 3)) {
        let left = a.matmul(&(&b + &c)).unwrap();
        let right = &a.matmul(&b).unwrap() + &a.matmul(&c).unwrap();
        prop_assert!(left.approx_eq(&right, 1e-7));
    }

    #[test]
    fn transpose_reverses_product(a in matrix(3, 4), b in matrix(4, 2)) {
        let left = a.matmul(&b).unwrap().transpose();
        let right = b.transpose().matmul(&a.transpose()).unwrap();
        prop_assert!(left.approx_eq(&right, 1e-9));
    }

    #[test]
    fn fro_norm_triangle_inequality(a in matrix(4, 4), b in matrix(4, 4)) {
        prop_assert!((&a + &b).fro_norm() <= a.fro_norm() + b.fro_norm() + 1e-9);
    }

    #[test]
    fn cholesky_solve_residual_small(a in spd(4), x in proptest::collection::vec(-5.0f64..5.0, 4)) {
        let b = a.matvec(&x);
        let got = Cholesky::new(&a).unwrap().solve(&b).unwrap();
        let resid: f64 = got.iter().zip(&x).map(|(g, t)| (g - t).abs()).fold(0.0, f64::max);
        prop_assert!(resid < 1e-6, "residual {resid}");
    }

    #[test]
    fn dot_cauchy_schwarz(x in proptest::collection::vec(-10.0f64..10.0, 8),
                          y in proptest::collection::vec(-10.0f64..10.0, 8)) {
        let d = vector::dot(&x, &y).abs();
        prop_assert!(d <= vector::norm2(&x) * vector::norm2(&y) + 1e-9);
    }

    #[test]
    fn argmax_returns_maximal_element(x in proptest::collection::vec(-10.0f64..10.0, 1..20)) {
        let i = vector::argmax(&x).unwrap();
        for &v in &x {
            prop_assert!(x[i] >= v);
        }
    }

    #[test]
    fn stack_then_slice_roundtrip(a in matrix(2, 3), b in matrix(2, 3)) {
        let v = a.vstack(&b).unwrap();
        prop_assert!(v.submatrix(0, 2, 0, 3).approx_eq(&a, 0.0));
        prop_assert!(v.submatrix(2, 4, 0, 3).approx_eq(&b, 0.0));
        let h = a.hstack(&b).unwrap();
        prop_assert!(h.submatrix(0, 2, 0, 3).approx_eq(&a, 0.0));
        prop_assert!(h.submatrix(0, 2, 3, 6).approx_eq(&b, 0.0));
    }

    /// The blocked GEMM kernel pins the naive reference elementwise over
    /// random shapes, transpose flags and α/β. The kernel keeps the
    /// reference's per-element accumulation order, so 1e-12 is generous —
    /// results are typically bit-identical.
    #[test]
    fn gemm_matches_reference(
        m in 1usize..20, n in 1usize..20, k in 1usize..40,
        ta in 0u8..2, tb in 0u8..2,
        alpha in -2.0f64..2.0, beta in -2.0f64..2.0,
        seed in 0u64..1000,
    ) {
        let (ta, tb) = (
            if ta == 1 { Trans::Yes } else { Trans::No },
            if tb == 1 { Trans::Yes } else { Trans::No },
        );
        let fill = |rows: usize, cols: usize, s: u64| {
            Matrix::from_fn(rows, cols, |r, c| {
                let x = (s * 31 + r as u64 * 7 + c as u64 * 13) % 97;
                x as f64 / 9.7 - 5.0
            })
        };
        let a = match ta { Trans::No => fill(m, k, seed), Trans::Yes => fill(k, m, seed) };
        let b = match tb { Trans::No => fill(k, n, seed + 1), Trans::Yes => fill(n, k, seed + 1) };
        let c0 = fill(m, n, seed + 2);
        let mut want = c0.clone();
        gemm_reference(alpha, &a, ta, &b, tb, beta, &mut want).unwrap();
        let mut got = c0;
        gemm_slice(
            alpha, a.as_slice(), a.rows(), a.cols(), ta,
            b.as_slice(), b.rows(), b.cols(), tb,
            beta, got.as_mut_slice(),
        ).unwrap();
        prop_assert!(got.approx_eq(&want, 1e-12), "blocked vs reference drifted");
    }

    /// `matmul` (now GEMM-backed) must propagate NaN through zero rows —
    /// the regression the zero-skip branch used to hide.
    #[test]
    fn gemm_nan_propagates_anywhere(r in 0usize..4, c in 0usize..4) {
        let a = Matrix::zeros(4, 4);
        let mut b = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64 * 0.5 - 3.0);
        b[(r, c)] = f64::NAN;
        let prod = a.matmul(&b).unwrap();
        for i in 0..4 {
            prop_assert!(prod[(i, c)].is_nan(), "column {c} lost its NaN at row {i}");
        }
    }
}
