//! The two predictive distributions of the (ε, p)-quality check:
//! Student-t for continuous metrics and Beta-Binomial for classification.

use crate::special::{beta_inc, ln_beta, ln_gamma};
use crate::StatsError;

/// Student-t distribution with `nu` degrees of freedom, location `loc` and
/// scale `scale` — the posterior-predictive distribution of the
/// Normal-Inverse-Gamma model used for continuous (ε, p)-quality assessment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudentT {
    nu: f64,
    loc: f64,
    scale: f64,
}

impl StudentT {
    /// Creates a Student-t distribution.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `nu <= 0` or
    /// `scale <= 0`.
    pub fn new(nu: f64, loc: f64, scale: f64) -> Result<Self, StatsError> {
        if !nu.is_finite() || nu <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "nu",
                value: nu,
                expected: "finite and > 0",
            });
        }
        if !scale.is_finite() || scale <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "scale",
                value: scale,
                expected: "finite and > 0",
            });
        }
        Ok(StudentT { nu, loc, scale })
    }

    /// Cumulative distribution function at `x`, via the regularised
    /// incomplete beta function.
    pub fn cdf(&self, x: f64) -> f64 {
        let z = (x - self.loc) / self.scale;
        let t2 = z * z;
        let p = 0.5 * beta_inc(self.nu / 2.0, 0.5, self.nu / (self.nu + t2));
        if z >= 0.0 {
            1.0 - p
        } else {
            p
        }
    }
}

/// Beta-Binomial distribution: the posterior predictive for the number of
/// successes in `n` future Bernoulli trials under a Beta posterior.
///
/// Used to answer "what is the probability that at most `k` of the `n`
/// unsensed cells are misclassified?" in the U-Air-style categorical tasks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BetaBinomial {
    n: u32,
    alpha: f64,
    beta: f64,
}

impl BetaBinomial {
    /// Creates a Beta-Binomial distribution over `0..=n` successes.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if either shape is
    /// non-positive.
    pub fn new(n: u32, alpha: f64, beta: f64) -> Result<Self, StatsError> {
        for (name, v) in [("alpha", alpha), ("beta", beta)] {
            if !v.is_finite() || v <= 0.0 {
                return Err(StatsError::InvalidParameter {
                    name,
                    value: v,
                    expected: "finite and > 0",
                });
            }
        }
        Ok(BetaBinomial { n, alpha, beta })
    }

    /// Probability mass at exactly `k` successes.
    pub fn pmf(&self, k: u32) -> f64 {
        if k > self.n {
            return 0.0;
        }
        let n = self.n as f64;
        let k = k as f64;
        let ln_choose = ln_gamma(n + 1.0) - ln_gamma(k + 1.0) - ln_gamma(n - k + 1.0);
        (ln_choose + ln_beta(k + self.alpha, n - k + self.beta) - ln_beta(self.alpha, self.beta))
            .exp()
    }

    /// `P(X <= k)`.
    pub fn cdf(&self, k: u32) -> f64 {
        (0..=k.min(self.n))
            .map(|i| self.pmf(i))
            .sum::<f64>()
            .min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn student_t_symmetric_at_loc() {
        let t = StudentT::new(5.0, 3.0, 2.0).unwrap();
        assert!((t.cdf(3.0) - 0.5).abs() < 1e-10);
    }

    #[test]
    fn student_t_approaches_normal_for_large_nu() {
        // Standard normal CDF values Φ(x), to 15 digits.
        let t = StudentT::new(1e6, 0.0, 1.0).unwrap();
        for (x, phi) in [
            (-2.0, 0.022_750_131_948_179),
            (-0.5, 0.308_537_538_725_987),
            (0.0, 0.5),
            (1.0, 0.841_344_746_068_543),
            (2.5, 0.993_790_334_674_224),
        ] {
            assert!((t.cdf(x) - phi).abs() < 1e-4, "x={x}");
        }
    }

    #[test]
    fn student_t_known_value() {
        // For nu=1 (Cauchy), CDF(1) = 3/4.
        let t = StudentT::new(1.0, 0.0, 1.0).unwrap();
        assert!((t.cdf(1.0) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn beta_cdf_bounds_and_mean() {
        // The Beta(a, b) CDF is the regularised incomplete beta I_x(a, b);
        // its mean is ∫₀¹ (1 − F(x)) dx (Simpson's rule).
        let (a, b) = (2.0, 5.0);
        assert_eq!(beta_inc(a, b, 0.0), 0.0);
        assert_eq!(beta_inc(a, b, 1.0), 1.0);
        let steps = 1000;
        let h = 1.0 / steps as f64;
        let mean: f64 = (0..=steps)
            .map(|i| {
                let w = if i == 0 || i == steps {
                    1.0
                } else if i % 2 == 1 {
                    4.0
                } else {
                    2.0
                };
                w * (1.0 - beta_inc(a, b, i as f64 * h))
            })
            .sum::<f64>()
            * h
            / 3.0;
        assert!((mean - 2.0 / 7.0).abs() < 1e-9, "mean {mean}");
    }

    #[test]
    fn beta_uniform_case() {
        // Beta(1, 1) is uniform: CDF x, density 1.
        let h = 1e-6;
        for x in [0.2, 0.5, 0.9] {
            assert!((beta_inc(1.0, 1.0, x) - x).abs() < 1e-10);
            let pdf = (beta_inc(1.0, 1.0, x + h) - beta_inc(1.0, 1.0, x - h)) / (2.0 * h);
            assert!((pdf - 1.0).abs() < 1e-6, "x={x}: pdf {pdf}");
        }
    }

    #[test]
    fn beta_binomial_pmf_sums_to_one() {
        let bb = BetaBinomial::new(10, 2.0, 3.0).unwrap();
        let total: f64 = (0..=10).map(|k| bb.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-10);
        assert!((bb.cdf(10) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn beta_binomial_uniform_prior_is_uniform() {
        // With α=β=1 the Beta-Binomial is uniform over 0..=n.
        let bb = BetaBinomial::new(4, 1.0, 1.0).unwrap();
        for k in 0..=4 {
            assert!((bb.pmf(k) - 0.2).abs() < 1e-10, "k={k}");
        }
    }

    #[test]
    fn beta_binomial_mean() {
        // E[X] = n·α/(α+β) = 6, both as Σ k·pmf(k) and as the tail sum
        // Σ_{k<n} P(X > k).
        let bb = BetaBinomial::new(20, 3.0, 7.0).unwrap();
        let by_pmf: f64 = (0..=20).map(|k| k as f64 * bb.pmf(k)).sum();
        let by_cdf: f64 = (0..20).map(|k| 1.0 - bb.cdf(k)).sum();
        assert!((by_pmf - 6.0).abs() < 1e-10, "{by_pmf}");
        assert!((by_cdf - 6.0).abs() < 1e-10, "{by_cdf}");
    }

    #[test]
    fn beta_binomial_out_of_range_pmf_zero() {
        let bb = BetaBinomial::new(3, 1.0, 1.0).unwrap();
        assert_eq!(bb.pmf(4), 0.0);
    }

    #[test]
    fn beta_binomial_concentrates_with_strong_posterior() {
        // Strong evidence of low error rate: P(many errors) tiny.
        let bb = BetaBinomial::new(36, 1.0, 100.0).unwrap();
        assert!(bb.cdf(9) > 0.999);
    }
}
