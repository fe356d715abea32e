use std::error::Error;
use std::fmt;

/// Errors produced by linear-algebra routines.
///
/// Every fallible public function in this crate returns
/// `Result<_, LinalgError>`; the variants carry enough context to diagnose
/// shape mismatches and numerical breakdowns without a debugger.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable name of the operation that failed.
        op: &'static str,
        /// Shape of the left/first operand as `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right/second operand as `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// The matrix is not positive definite (Cholesky breakdown).
    NotPositiveDefinite {
        /// Column index where the non-positive pivot was found.
        column: usize,
    },
    /// Construction from ragged row data (rows of differing lengths).
    RaggedRows {
        /// Index of the first offending row.
        row: usize,
        /// Expected row length (length of row 0).
        expected: usize,
        /// Actual length of the offending row.
        actual: usize,
    },
    /// An argument was empty where a non-empty one is required.
    Empty {
        /// Human-readable name of the operation that failed.
        op: &'static str,
    },
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: left is {}x{}, right is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::NotPositiveDefinite { column } => {
                write!(f, "matrix is not positive definite at column {column}")
            }
            LinalgError::RaggedRows {
                row,
                expected,
                actual,
            } => write!(
                f,
                "ragged rows: row {row} has length {actual}, expected {expected}"
            ),
            LinalgError::Empty { op } => write!(f, "empty input to {op}"),
        }
    }
}

impl Error for LinalgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = LinalgError::ShapeMismatch {
            op: "matmul",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        let s = e.to_string();
        assert!(s.contains("matmul"));
        assert!(s.contains("2x3"));
        assert!(s.contains("4x5"));
    }

    #[test]
    fn error_trait_object_works() {
        let e: Box<dyn Error + Send + Sync> =
            Box::new(LinalgError::NotPositiveDefinite { column: 3 });
        assert!(e.to_string().contains("column 3"));
    }

    #[test]
    fn variants_compare_equal() {
        assert_eq!(
            LinalgError::Empty { op: "mean" },
            LinalgError::Empty { op: "mean" }
        );
        assert_ne!(
            LinalgError::NotPositiveDefinite { column: 0 },
            LinalgError::NotPositiveDefinite { column: 1 }
        );
    }
}
