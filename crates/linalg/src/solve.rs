//! The in-place SPD solver at the core of the ALS sweeps.

use crate::{LinalgError, Matrix};

/// Allocation-free Cholesky solve of `A·x = b` for symmetric
/// positive-definite `A`: factorises `a` in place (its lower triangle is
/// overwritten with `L`; the strict upper triangle is left untouched) and
/// overwrites `b` with the solution.
///
/// The arithmetic — elimination order, every intermediate product — is
/// exactly [`crate::decomp::Cholesky::new`] followed by
/// [`crate::decomp::Cholesky::solve`], so the solution is **bit-identical**
/// to the allocating factorisation. This is the per-row kernel of the ALS
/// sweeps, where the caller owns a reusable Gram/rhs scratch and must not
/// allocate per row.
///
/// # Errors
///
/// * [`LinalgError::ShapeMismatch`] if `a` is not square or `b.len()` does
///   not match; `a` and `b` are untouched in this case.
/// * [`LinalgError::NotPositiveDefinite`] on a non-positive pivot; `a` is
///   partially overwritten.
pub fn solve_spd_in_place(a: &mut Matrix, b: &mut [f64]) -> Result<(), LinalgError> {
    if !a.is_square() {
        return Err(LinalgError::ShapeMismatch {
            op: "cholesky",
            lhs: a.shape(),
            rhs: a.shape(),
        });
    }
    let n = a.rows();
    if b.len() != n {
        return Err(LinalgError::ShapeMismatch {
            op: "cholesky_solve",
            lhs: (n, n),
            rhs: (b.len(), 1),
        });
    }
    // In-place Cholesky: column j's entries are read before they are
    // overwritten, and already-final columns k < j are read exactly where
    // `Cholesky::new` reads its `l` — same values, same order.
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
    // Forward solve L·y = b, then back solve Lᵀ·x = y, in place.
    for i in 0..n {
        for k in 0..i {
            b[i] -= a[(i, k)] * b[k];
        }
        b[i] /= a[(i, i)];
    }
    for i in (0..n).rev() {
        for k in (i + 1)..n {
            b[i] -= a[(k, i)] * b[k];
        }
        b[i] /= a[(i, i)];
    }
    Ok(())
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
