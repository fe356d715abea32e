//! The in-place SPD solver at the core of the ALS sweeps, in two halves:
//! [`factor_spd_in_place`] (Cholesky) and [`solve_factored`] (the two
//! triangular solves). ALS rows that share an observation pattern share
//! one factor and run only the second half each.

use crate::{LinalgError, Matrix};

/// Allocation-free Cholesky factorisation of a symmetric positive-definite
/// `a` in place: its lower triangle is overwritten with `L` (`A = L·Lᵀ`);
/// the strict upper triangle is left untouched.
///
/// The arithmetic — elimination order, every intermediate product — is
/// exactly [`crate::decomp::Cholesky::new`], so the factor is
/// **bit-identical** to the allocating one.
///
/// # Errors
///
/// * [`LinalgError::ShapeMismatch`] if `a` is not square; `a` is untouched.
/// * [`LinalgError::NotPositiveDefinite`] on a non-positive pivot; `a` is
///   partially overwritten.
pub fn factor_spd_in_place(a: &mut Matrix) -> Result<(), LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::ShapeMismatch {
            op: "cholesky",
            lhs: a.shape(),
            rhs: a.shape(),
        });
    }
    let n = a.rows();
    // Column j's entries are read before they are overwritten, and
    // already-final columns k < j are read exactly where `Cholesky::new`
    // reads its `l` — same values, same order.
    for j in 0..n {
        let mut d = a[(j, j)];
        for k in 0..j {
            d -= a[(j, k)] * a[(j, k)];
        }
        if d <= 0.0 || !d.is_finite() {
            return Err(LinalgError::NotPositiveDefinite { column: j });
        }
        let dj = d.sqrt();
        a[(j, j)] = dj;
        for i in (j + 1)..n {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= a[(i, k)] * a[(j, k)];
            }
            a[(i, j)] = s / dj;
        }
    }
    Ok(())
}

/// Solves `L·Lᵀ·x = b` in place against a factor `l` from
/// [`factor_spd_in_place`] (only its lower triangle is read): forward
/// solve `L·y = b`, then back solve `Lᵀ·x = y`, in the order of
/// [`crate::decomp::Cholesky::solve`].
///
/// # Errors
///
/// [`LinalgError::ShapeMismatch`] if `l` is not square or `b.len()` does
/// not match; `b` is untouched in this case.
pub fn solve_factored(l: &Matrix, b: &mut [f64]) -> Result<(), LinalgError> {
    let n = l.rows();
    if !l.is_square() || b.len() != n {
        return Err(LinalgError::ShapeMismatch {
            op: "cholesky_solve",
            lhs: l.shape(),
            rhs: (b.len(), 1),
        });
    }
    for i in 0..n {
        for k in 0..i {
            b[i] -= l[(i, k)] * b[k];
        }
        b[i] /= l[(i, i)];
    }
    for i in (0..n).rev() {
        for k in (i + 1)..n {
            b[i] -= l[(k, i)] * b[k];
        }
        b[i] /= l[(i, i)];
    }
    Ok(())
}

/// Allocation-free Cholesky solve of `A·x = b`: [`factor_spd_in_place`]
/// on `a`, then [`solve_factored`] overwriting `b` with the solution —
/// **bit-identical** to [`crate::decomp::Cholesky::new`] followed by
/// [`crate::decomp::Cholesky::solve`].
///
/// # Errors
///
/// * [`LinalgError::ShapeMismatch`] if `a` is not square or `b.len()` does
///   not match; `a` and `b` are untouched in this case.
/// * [`LinalgError::NotPositiveDefinite`] on a non-positive pivot; `a` is
///   partially overwritten.
pub fn solve_spd_in_place(a: &mut Matrix, b: &mut [f64]) -> Result<(), LinalgError> {
    if a.is_square() && b.len() != a.rows() {
        let n = a.rows();
        return Err(LinalgError::ShapeMismatch {
            op: "cholesky_solve",
            lhs: (n, n),
            rhs: (b.len(), 1),
        });
    }
    factor_spd_in_place(a)?;
    solve_factored(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::Cholesky;

    #[test]
    fn solve_spd_in_place_is_bit_identical_to_solve_spd() {
        // Pseudo-random SPD systems across sizes; the in-place kernel must
        // reproduce the allocating path bit for bit (the ALS serial-path
        // refactor depends on it).
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for n in [1usize, 2, 3, 5, 8, 13] {
            let g = Matrix::from_fn(n, n, |_, _| next());
            let mut a = g.gram();
            for i in 0..n {
                a[(i, i)] += n as f64 * 0.5;
            }
            let b: Vec<f64> = (0..n).map(|_| next()).collect();
            let want = Cholesky::new(&a).unwrap().solve(&b).unwrap();
            let mut a_work = a.clone();
            let mut x = b.clone();
            solve_spd_in_place(&mut a_work, &mut x).unwrap();
            assert_eq!(x, want, "n = {n}: in-place SPD solve diverged");
        }
    }

    #[test]
    fn one_factor_serves_every_right_hand_side_bit_for_bit() {
        // The ALS pattern sharing factors a Gram once and solves each row
        // against it; every solve must equal a fresh full solve.
        let g = Matrix::from_fn(6, 4, |i, j| ((i * 7 + j * 3) % 5) as f64 - 1.7);
        let mut a = g.gram();
        for i in 0..4 {
            a[(i, i)] += 0.3;
        }
        let mut l = a.clone();
        factor_spd_in_place(&mut l).unwrap();
        for seed in 0..5 {
            let b: Vec<f64> = (0..4).map(|i| (i + seed) as f64 * 0.37 - 0.5).collect();
            let mut shared = b.clone();
            solve_factored(&l, &mut shared).unwrap();
            let mut fresh = b.clone();
            solve_spd_in_place(&mut a.clone(), &mut fresh).unwrap();
            assert_eq!(shared, fresh, "rhs {seed}");
        }
        assert!(solve_factored(&l, &mut [1.0]).is_err());
    }

    #[test]
    fn solve_spd_in_place_rejects_bad_shapes_and_pivots() {
        let mut rect = Matrix::zeros(2, 3);
        assert!(solve_spd_in_place(&mut rect, &mut [0.0, 0.0]).is_err());
        let mut ok = Matrix::identity(3);
        assert!(solve_spd_in_place(&mut ok, &mut [1.0]).is_err());
        let mut indef = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap();
        assert!(matches!(
            solve_spd_in_place(&mut indef, &mut [1.0, 1.0]),
            Err(LinalgError::NotPositiveDefinite { column: 1 })
        ));
    }
}
