use serde::{Deserialize, Serialize};

use crate::RlError;

/// The δ-greedy exploration schedule of the paper (§4.2): start with a
/// relatively large exploration probability and reduce it as training
/// proceeds.
///
/// The schedule decays linearly from `start` to `end` over `steps` steps,
/// then stays flat.
///
/// ```
/// use drcell_rl::EpsilonSchedule;
///
/// let s = EpsilonSchedule::linear(1.0, 0.05, 100).unwrap();
/// assert!(s.value(50) < s.value(10));
/// assert_eq!(s.value(100_000), 0.05);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EpsilonSchedule {
    /// Linear decay from `start` to `end` over `steps` steps, then flat.
    Linear {
        /// Initial ε.
        start: f64,
        /// Final ε.
        end: f64,
        /// Steps over which to interpolate.
        steps: usize,
    },
}

fn check_eps(name: &'static str, v: f64) -> Result<(), RlError> {
    if !(0.0..=1.0).contains(&v) || !v.is_finite() {
        return Err(RlError::InvalidConfig {
            name,
            expected: "in [0, 1]",
        });
    }
    Ok(())
}

impl EpsilonSchedule {
    /// A linear schedule from `start` to `end` over `steps` steps.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::InvalidConfig`] for values outside `[0, 1]`,
    /// `start < end`, or `steps == 0`.
    pub fn linear(start: f64, end: f64, steps: usize) -> Result<Self, RlError> {
        check_eps("start", start)?;
        check_eps("end", end)?;
        if start < end {
            return Err(RlError::InvalidConfig {
                name: "start",
                expected: ">= end (decaying schedule)",
            });
        }
        if steps == 0 {
            return Err(RlError::InvalidConfig {
                name: "steps",
                expected: "> 0",
            });
        }
        Ok(EpsilonSchedule::Linear { start, end, steps })
    }

    /// The exploration probability at training step `step`.
    pub fn value(&self, step: usize) -> f64 {
        let EpsilonSchedule::Linear { start, end, steps } = *self;
        if step >= steps {
            end
        } else {
            start + (end - start) * step as f64 / steps as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_endpoints_and_midpoint() {
        let s = EpsilonSchedule::linear(0.8, 0.2, 60).unwrap();
        assert_eq!(s.value(0), 0.8);
        assert!((s.value(30) - 0.5).abs() < 1e-12);
        assert_eq!(s.value(60), 0.2);
        assert_eq!(s.value(10_000), 0.2);
    }

    #[test]
    fn monotone_nonincreasing() {
        for s in [
            EpsilonSchedule::linear(1.0, 0.0, 37).unwrap(),
            EpsilonSchedule::linear(0.9, 0.05, 1).unwrap(),
            EpsilonSchedule::linear(0.3, 0.3, 10).unwrap(),
        ] {
            let mut prev = f64::INFINITY;
            for step in 0..200 {
                let v = s.value(step);
                assert!(v <= prev + 1e-12, "{s:?} increased at step {step}");
                assert!((0.0..=1.0).contains(&v));
                prev = v;
            }
        }
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(EpsilonSchedule::linear(1.5, 0.1, 10).is_err());
        assert!(EpsilonSchedule::linear(0.1, 0.5, 10).is_err());
        assert!(EpsilonSchedule::linear(0.5, 0.1, 0).is_err());
        assert!(EpsilonSchedule::linear(f64::NAN, 0.1, 5).is_err());
    }
}
