use std::error::Error;
use std::fmt;

use drcell_linalg::LinalgError;

/// Errors produced by inference algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum InferenceError {
    /// The observed matrix contains no observations at all.
    NoObservations,
    /// A numerical subroutine failed.
    Numerical(LinalgError),
    /// An observation index was out of bounds or otherwise invalid.
    InvalidObservation {
        /// Cell index of the offending observation.
        cell: usize,
        /// Cycle index of the offending observation.
        cycle: usize,
    },
    /// A configuration parameter was invalid.
    InvalidConfig {
        /// Parameter name.
        name: &'static str,
        /// Human-readable description of the valid domain.
        expected: &'static str,
    },
}

impl fmt::Display for InferenceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InferenceError::NoObservations => {
                write!(f, "cannot infer from a matrix with no observations")
            }
            InferenceError::Numerical(e) => write!(f, "numerical failure: {e}"),
            InferenceError::InvalidObservation { cell, cycle } => {
                write!(f, "invalid observation at cell {cell}, cycle {cycle}")
            }
            InferenceError::InvalidConfig { name, expected } => {
                write!(f, "invalid config {name}: expected {expected}")
            }
        }
    }
}

impl Error for InferenceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            InferenceError::Numerical(e) => Some(e),
            _ => None,
        }
    }
}

#[doc(hidden)]
impl From<LinalgError> for InferenceError {
    fn from(e: LinalgError) -> Self {
        InferenceError::Numerical(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = InferenceError::Numerical(LinalgError::NotPositiveDefinite { column: 1 });
        assert!(e.to_string().contains("numerical"));
        assert!(e.source().is_some());
        assert!(InferenceError::NoObservations.source().is_none());
    }
}
