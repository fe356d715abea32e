use std::error::Error;
use std::fmt;

/// Errors produced by network construction and training.
#[derive(Debug, Clone, PartialEq)]
pub enum NeuralError {
    /// A layer-size or hyper-parameter configuration was invalid.
    InvalidConfig {
        /// Human-readable description of the problem.
        reason: String,
    },
}

impl fmt::Display for NeuralError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NeuralError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
        }
    }
}

impl Error for NeuralError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_detail() {
        let e = NeuralError::InvalidConfig {
            reason: "layer_sizes needs at least 2 entries".to_owned(),
        };
        assert!(e.to_string().contains("layer_sizes"));
        assert!(e.to_string().contains('2'));
    }
}
