use std::error::Error;
use std::fmt;

/// Errors produced by statistical routines.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// A parameter was outside its valid domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value.
        value: f64,
        /// Human-readable description of the valid domain.
        expected: &'static str,
    },
}

impl fmt::Display for StatsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StatsError::InvalidParameter {
                name,
                value,
                expected,
            } => write!(f, "invalid parameter {name}={value}, expected {expected}"),
        }
    }
}

impl Error for StatsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_parameter() {
        let e = StatsError::InvalidParameter {
            name: "sigma",
            value: -1.0,
            expected: "sigma > 0",
        };
        assert!(e.to_string().contains("sigma"));
    }

    #[test]
    fn is_send_sync_error() {
        fn check<T: Error + Send + Sync>() {}
        check::<StatsError>();
    }
}
