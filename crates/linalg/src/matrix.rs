use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

use crate::LinalgError;

/// A dense, row-major `f64` matrix.
///
/// `Matrix` is the workhorse value type of the DR-Cell reproduction: sensing
/// matrices, neural-network weights and compressive-sensing factors are all
/// `Matrix` values. It is a plain data structure (cheap to clone, serde
/// serialisable) with the usual arithmetic operators plus the handful of
/// higher-level operations the rest of the workspace needs.
///
/// Indexing uses `(row, col)` tuples:
///
/// ```
/// use drcell_linalg::Matrix;
///
/// let mut m = Matrix::zeros(2, 3);
/// m[(0, 2)] = 5.0;
/// assert_eq!(m[(0, 2)], 5.0);
/// assert_eq!(m.shape(), (2, 3));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    ///
    /// ```
    /// use drcell_linalg::Matrix;
    /// let z = Matrix::zeros(3, 2);
    /// assert_eq!(z.iter().filter(|&&v| v == 0.0).count(), 6);
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    ///
    /// ```
    /// use drcell_linalg::Matrix;
    /// let i = Matrix::identity(3);
    /// assert_eq!(i[(1, 1)], 1.0);
    /// assert_eq!(i[(1, 2)], 0.0);
    /// ```
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` for every entry.
    ///
    /// ```
    /// use drcell_linalg::Matrix;
    /// let m = Matrix::from_fn(2, 2, |r, c| (r * 10 + c) as f64);
    /// assert_eq!(m[(1, 0)], 10.0);
    /// ```
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::RaggedRows`] if the rows do not all have the
    /// same length, and [`LinalgError::Empty`] if `rows` is empty.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, LinalgError> {
        if rows.is_empty() {
            return Err(LinalgError::Empty { op: "from_rows" });
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(LinalgError::RaggedRows {
                    row: i,
                    expected: cols,
                    actual: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a matrix that owns `data` interpreted in row-major order.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                op: "from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a column vector (`n × 1`) from a slice.
    pub fn column(v: &[f64]) -> Self {
        Matrix {
            rows: v.len(),
            cols: 1,
            data: v.to_vec(),
        }
    }

    /// Creates a row vector (`1 × n`) from a slice.
    pub fn row_vector(v: &[f64]) -> Self {
        Matrix {
            rows: 1,
            cols: v.len(),
            data: v.to_vec(),
        }
    }

    /// Creates a square matrix with `diag` on the diagonal.
    pub fn diag(diag: &[f64]) -> Self {
        let mut m = Matrix::zeros(diag.len(), diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` if the matrix has zero entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Returns entry `(r, c)` or `None` when out of bounds.
    pub fn get(&self, r: usize, c: usize) -> Option<f64> {
        if r < self.rows && c < self.cols {
            Some(self.data[r * self.cols + c])
        } else {
            None
        }
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "col index {c} out of bounds ({})", self.cols);
        (0..self.rows)
            .map(|r| self.data[r * self.cols + c])
            .collect()
    }

    /// Overwrites column `c` with `v`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()` or `v.len() != self.rows()`.
    pub fn set_col(&mut self, c: usize, v: &[f64]) {
        assert!(c < self.cols, "col index {c} out of bounds ({})", self.cols);
        assert_eq!(v.len(), self.rows, "column length mismatch");
        for (r, &x) in v.iter().enumerate() {
            self.data[r * self.cols + c] = x;
        }
    }

    /// Overwrites row `r` with `v`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()` or `v.len() != self.cols()`.
    pub fn set_row(&mut self, r: usize, v: &[f64]) {
        assert_eq!(v.len(), self.cols, "row length mismatch");
        self.row_mut(r).copy_from_slice(v);
    }

    /// Iterates over all entries in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.data.iter()
    }

    /// Mutably iterates over all entries in row-major order.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, f64> {
        self.data.iter_mut()
    }

    /// Iterates over the rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Returns the transpose.
    ///
    /// ```
    /// use drcell_linalg::Matrix;
    /// let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]).unwrap();
    /// assert_eq!(m.transpose().shape(), (3, 1));
    /// ```
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        t
    }

    /// Matrix product `self · rhs`, via the blocked GEMM kernel in
    /// [`crate::gemm`].
    ///
    /// Unlike the historical zero-skip implementation, every product term
    /// participates, so non-finite operands propagate per IEEE-754
    /// (`0.0 × NaN = NaN`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when the inner dimensions differ.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        crate::gemm::gemm(
            1.0,
            self,
            crate::gemm::Trans::No,
            rhs,
            crate::gemm::Trans::No,
        )
    }

    /// Fused Gram product `selfᵀ · self` — the normal-equations kernel the
    /// ridge/ALS solvers and the SVD use, computed by the blocked GEMM
    /// without materialising the transpose.
    pub fn gram(&self) -> Matrix {
        crate::gemm::gemm(
            1.0,
            self,
            crate::gemm::Trans::Yes,
            self,
            crate::gemm::Trans::No,
        )
        .expect("gram shapes always agree")
    }

    /// Fused outer Gram product `self · selfᵀ`, the wide-matrix dual of
    /// [`Matrix::gram`].
    pub fn outer_gram(&self) -> Matrix {
        crate::gemm::gemm(
            1.0,
            self,
            crate::gemm::Trans::No,
            self,
            crate::gemm::Trans::Yes,
        )
        .expect("outer gram shapes always agree")
    }

    /// Reshapes in place to `rows × cols`, reusing the allocation. Entry
    /// values afterwards are **unspecified** — this is a scratch-buffer
    /// helper for callers that overwrite the whole matrix next (e.g. as a
    /// GEMM output with `β = 0`).
    pub fn resize(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Matrix-vector product `self · v`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "matvec length mismatch");
        self.rows_iter()
            .map(|row| row.iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Vector-matrix product `v · self` (i.e. `selfᵀ · v`).
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.rows()`.
    pub fn vecmat(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.rows, "vecmat length mismatch");
        let mut out = vec![0.0; self.cols];
        // No zero-skip: 0.0 · NaN must stay NaN (IEEE semantics).
        for (r, &x) in v.iter().enumerate() {
            for (o, &a) in out.iter_mut().zip(self.row(r)) {
                *o += x * a;
            }
        }
        out
    }

    /// Applies `f` to every entry, returning a new matrix.
    pub fn map<F: FnMut(f64) -> f64>(&self, mut f: F) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies `f` to every entry in place.
    pub fn map_inplace<F: FnMut(f64) -> f64>(&mut self, mut f: F) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// `self + alpha * rhs`, the matrix AXPY.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when the shapes differ.
    pub fn axpy(&self, alpha: f64, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "axpy",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| a + alpha * b)
                .collect(),
        })
    }

    /// Scales every entry by `alpha`, returning a new matrix.
    pub fn scaled(&self, alpha: f64) -> Matrix {
        self.map(|v| v * alpha)
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all entries.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::Empty`] for an empty matrix.
    pub fn mean(&self) -> Result<f64, LinalgError> {
        if self.data.is_empty() {
            return Err(LinalgError::Empty { op: "mean" });
        }
        Ok(self.sum() / self.data.len() as f64)
    }

    /// Trace (sum of diagonal entries).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace requires a square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Extracts the sub-matrix with rows `r0..r1` and columns `c0..c1`
    /// (half-open ranges).
    ///
    /// # Panics
    ///
    /// Panics if the ranges are out of bounds or inverted.
    pub fn submatrix(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Matrix {
        assert!(r0 <= r1 && r1 <= self.rows, "row range out of bounds");
        assert!(c0 <= c1 && c1 <= self.cols, "col range out of bounds");
        Matrix::from_fn(r1 - r0, c1 - c0, |r, c| self[(r0 + r, c0 + c)])
    }

    /// Stacks `self` on top of `other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when the column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "vstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Ok(Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// Concatenates `self` with `other` side by side.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when the row counts differ.
    pub fn hstack(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.rows != other.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "hstack",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let cols = self.cols + other.cols;
        let mut out = Matrix::zeros(self.rows, cols);
        for r in 0..self.rows {
            out.data[r * cols..r * cols + self.cols].copy_from_slice(self.row(r));
            out.data[r * cols + self.cols..(r + 1) * cols].copy_from_slice(other.row(r));
        }
        Ok(out)
    }

    /// `true` when all entries of `self` and `other` differ by at most `tol`.
    /// Matrices of different shapes are never approximately equal.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }
}

impl Default for Matrix {
    /// The `0 × 0` empty matrix.
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics when the shapes differ; use [`Matrix::axpy`] for a fallible
    /// version.
    fn add(self, rhs: &Matrix) -> Matrix {
        self.axpy(1.0, rhs).expect("matrix addition shape mismatch")
    }
}

impl Sub for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics when the shapes differ; use [`Matrix::axpy`] for a fallible
    /// version.
    fn sub(self, rhs: &Matrix) -> Matrix {
        self.axpy(-1.0, rhs)
            .expect("matrix subtraction shape mismatch")
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "sub_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, alpha: f64) -> Matrix {
        self.scaled(alpha)
    }
}

impl Mul<&Matrix> for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics when the inner dimensions differ; use [`Matrix::matmul`] for a
    /// fallible version.
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs).expect("matrix product shape mismatch")
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scaled(-1.0)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{:>10.4} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m22() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap()
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.iter().all(|&v| v == 0.0));
        let i = Matrix::identity(4);
        assert_eq!(i.trace(), 4.0);
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::RaggedRows { row: 1, .. }));
    }

    #[test]
    fn from_rows_rejects_empty() {
        assert!(matches!(
            Matrix::from_rows(&[]),
            Err(LinalgError::Empty { .. })
        ));
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![0.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn indexing_roundtrip() {
        let mut m = Matrix::zeros(3, 3);
        m[(2, 1)] = 7.5;
        assert_eq!(m[(2, 1)], 7.5);
        assert_eq!(m.get(2, 1), Some(7.5));
        assert_eq!(m.get(3, 0), None);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn indexing_out_of_bounds_panics() {
        let m = Matrix::zeros(2, 2);
        let _ = m[(2, 0)];
    }

    #[test]
    fn transpose_involution() {
        let m = m22();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(0, 1)], 3.0);
    }

    #[test]
    fn matmul_known_product() {
        let a = m22();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]).unwrap()
        );
    }

    #[test]
    fn matmul_identity_is_noop() {
        let m = m22();
        assert!(m.matmul(&Matrix::identity(2)).unwrap().approx_eq(&m, 0.0));
        assert!(Matrix::identity(2).matmul(&m).unwrap().approx_eq(&m, 0.0));
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn matmul_propagates_nan_and_inf() {
        // Regression: the old kernel skipped a == 0.0 terms and silently
        // swallowed 0·NaN / 0·∞ contributions.
        let a = Matrix::zeros(1, 2);
        let mut b = Matrix::zeros(2, 1);
        b[(0, 0)] = f64::NAN;
        assert!(a.matmul(&b).unwrap()[(0, 0)].is_nan());
        b[(0, 0)] = f64::INFINITY;
        assert!(a.matmul(&b).unwrap()[(0, 0)].is_nan(), "0·∞ is NaN");
        let v = Matrix::zeros(2, 2).vecmat(&[0.0, f64::NAN]);
        assert!(v[0].is_nan(), "vecmat must propagate NaN too");
    }

    #[test]
    fn gram_matches_explicit_transpose_products() {
        let a = Matrix::from_fn(5, 3, |r, c| (r * 3 + c) as f64 * 0.25 - 1.0);
        assert_eq!(a.gram(), a.transpose().matmul(&a).unwrap());
        assert_eq!(a.outer_gram(), a.matmul(&a.transpose()).unwrap());
    }

    #[test]
    fn resize_reuses_storage() {
        let mut m = m22();
        m.resize(3, 5);
        assert_eq!(m.shape(), (3, 5));
        m.resize(1, 2);
        assert_eq!(m.shape(), (1, 2));
    }

    #[test]
    fn matvec_and_vecmat() {
        let m = m22();
        assert_eq!(m.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
        assert_eq!(m.vecmat(&[1.0, 1.0]), vec![4.0, 6.0]);
    }

    #[test]
    fn axpy_adds_scaled_rhs() {
        let a = m22();
        let s = a.axpy(2.0, &a).unwrap();
        assert_eq!(s[(0, 0)], 3.0);
    }

    #[test]
    fn operators_match_methods() {
        let a = m22();
        let b = Matrix::identity(2);
        assert_eq!(&a + &b, a.axpy(1.0, &b).unwrap());
        assert_eq!(&a - &b, a.axpy(-1.0, &b).unwrap());
        assert_eq!(&a * 2.0, a.scaled(2.0));
        assert_eq!(&a * &b, a.clone());
        assert_eq!((-&a)[(0, 0)], -1.0);
        let mut c = a.clone();
        c += &b;
        assert_eq!(c[(0, 0)], 2.0);
        c -= &b;
        assert_eq!(c, a);
    }

    #[test]
    fn row_col_accessors() {
        let mut m = m22();
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.col(0), vec![1.0, 3.0]);
        m.set_col(1, &[9.0, 10.0]);
        assert_eq!(m.col(1), vec![9.0, 10.0]);
        m.set_row(0, &[0.0, 0.0]);
        assert_eq!(m.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn submatrix_extracts_block() {
        let m = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f64);
        let s = m.submatrix(1, 3, 2, 4);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s[(0, 0)], 6.0);
        assert_eq!(s[(1, 1)], 11.0);
    }

    #[test]
    fn stacking() {
        let a = m22();
        let v = a.vstack(&a).unwrap();
        assert_eq!(v.shape(), (4, 2));
        assert_eq!(v[(3, 1)], 4.0);
        let h = a.hstack(&a).unwrap();
        assert_eq!(h.shape(), (2, 4));
        assert_eq!(h[(1, 3)], 4.0);
        assert!(a.vstack(&Matrix::zeros(1, 3)).is_err());
        assert!(a.hstack(&Matrix::zeros(3, 1)).is_err());
    }

    #[test]
    fn norms_and_reductions() {
        let m = Matrix::from_rows(&[vec![3.0, 4.0]]).unwrap();
        assert!((m.fro_norm() - 5.0).abs() < 1e-12);
        assert_eq!(m.sum(), 7.0);
        assert_eq!(m.mean().unwrap(), 3.5);
        assert!(Matrix::default().mean().is_err());
    }

    #[test]
    fn diag_and_vectors() {
        let d = Matrix::diag(&[1.0, 2.0]);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(0, 1)], 0.0);
        assert_eq!(Matrix::column(&[1.0, 2.0]).shape(), (2, 1));
        assert_eq!(Matrix::row_vector(&[1.0, 2.0]).shape(), (1, 2));
    }

    #[test]
    fn display_not_empty() {
        let s = format!("{}", m22());
        assert!(s.contains("2x2"));
        assert!(s.contains("1.0000"));
    }

    #[test]
    fn approx_eq_tolerates_noise() {
        let a = m22();
        let mut b = a.clone();
        b[(0, 0)] += 1e-12;
        assert!(a.approx_eq(&b, 1e-9));
        assert!(!a.approx_eq(&b, 1e-15));
        assert!(!a.approx_eq(&Matrix::zeros(2, 3), 1.0));
    }

    #[test]
    fn serde_roundtrip_shape_preserved() {
        // serde derives exist per C-SERDE; check they keep invariants by
        // cloning through the Debug representation of the fields.
        let m = m22();
        let m2 = m.clone();
        assert_eq!(m, m2);
    }
}
