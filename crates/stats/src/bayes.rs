//! Bayesian conjugate posteriors used by the leave-one-out quality
//! assessment of Sparse MCS (paper §3, Definition 6 and §5.3).
//!
//! The assessment pipeline observes leave-one-out reconstruction errors of
//! the cells sensed so far in a cycle and must answer: *"with what
//! probability is the inference error of the remaining (unsensed) cells
//! below ε?"* Two conjugate models cover the paper's tasks:
//!
//! * continuous metrics (mean absolute error for temperature/humidity) —
//!   [`NormalInverseGamma`] over the per-cell absolute error, queried for the
//!   posterior predictive probability that the *mean* of the unsensed cells'
//!   errors is ≤ ε;
//! * categorical metrics (classification error for PM2.5/AQI) —
//!   [`BetaBernoulli`] over the per-cell misclassification probability,
//!   queried through the Beta-Binomial predictive for the probability that
//!   at most `⌊ε·n⌋` of the `n` unsensed cells are misclassified.

use crate::dist::{BetaBinomial, StudentT};
use crate::StatsError;

/// Conjugate Normal-Inverse-Gamma model over i.i.d. normal observations with
/// unknown mean and variance.
///
/// Parameterisation: `μ | σ² ~ N(μ₀, σ²/κ₀)`, `σ² ~ InvGamma(α₀, β₀)`.
///
/// ```
/// use drcell_stats::bayes::NormalInverseGamma;
///
/// let mut m = NormalInverseGamma::weak_prior(0.5, 0.5);
/// m.observe_all(&[0.2, 0.3, 0.25, 0.22, 0.27, 0.24, 0.26, 0.23, 0.25, 0.28]);
/// // Errors hover near 0.25, so P(mean error of 10 new cells <= 0.5) is high
/// // while P(mean error <= 0.05) is low.
/// assert!(m.prob_mean_below(0.5, 10).unwrap() > 0.9);
/// assert!(m.prob_mean_below(0.05, 10).unwrap() < 0.1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormalInverseGamma {
    mu: f64,
    kappa: f64,
    alpha: f64,
    beta: f64,
}

impl NormalInverseGamma {
    /// A weakly informative prior centred at `prior_mean` with prior scale
    /// `prior_scale` and effective strength of a single pseudo-observation.
    ///
    /// # Panics
    ///
    /// Panics if `prior_scale <= 0`.
    pub fn weak_prior(prior_mean: f64, prior_scale: f64) -> Self {
        assert!(prior_scale > 0.0, "prior_scale must be positive");
        NormalInverseGamma {
            mu: prior_mean,
            kappa: 1.0,
            alpha: 1.0,
            beta: prior_scale * prior_scale,
        }
    }

    /// Absorbs one observation (standard conjugate update).
    pub fn observe(&mut self, x: f64) {
        let kappa_new = self.kappa + 1.0;
        let mu_new = (self.kappa * self.mu + x) / kappa_new;
        self.alpha += 0.5;
        self.beta += 0.5 * self.kappa * (x - self.mu) * (x - self.mu) / kappa_new;
        self.mu = mu_new;
        self.kappa = kappa_new;
    }

    /// Absorbs a batch of observations.
    pub fn observe_all(&mut self, xs: &[f64]) {
        for &x in xs {
            self.observe(x);
        }
    }

    /// Probability that the *mean of `n` future observations* is below `t`.
    ///
    /// The mean of `n` predictive draws is approximately Student-t with the
    /// same degrees of freedom, location `μ`, and scale
    /// `sqrt(β/(α) · (1/n + 1/κ))` — the `1/n` term is the sampling noise of
    /// the future mean, the `1/κ` term the remaining uncertainty about μ.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `n == 0`.
    pub fn prob_mean_below(&self, t: f64, n: usize) -> Result<f64, StatsError> {
        if n == 0 {
            return Err(StatsError::InvalidParameter {
                name: "n",
                value: 0.0,
                expected: "> 0",
            });
        }
        let var = self.beta / self.alpha * (1.0 / n as f64 + 1.0 / self.kappa);
        let t_dist = StudentT::new(2.0 * self.alpha, self.mu, var.sqrt().max(1e-12))?;
        Ok(t_dist.cdf(t))
    }
}

/// Conjugate Beta-Bernoulli model over a misclassification probability.
///
/// ```
/// use drcell_stats::bayes::BetaBernoulli;
///
/// let mut m = BetaBernoulli::uniform_prior();
/// // 1 misclassification out of 30 leave-one-out checks.
/// for i in 0..30 {
///     m.observe(i == 0);
/// }
/// // P(at most 9 of 36 unsensed cells misclassified) should be high.
/// assert!(m.prob_error_count_at_most(9, 36).unwrap() > 0.9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BetaBernoulli {
    alpha: f64,
    beta: f64,
}

impl BetaBernoulli {
    /// The uniform `Beta(1, 1)` prior.
    pub fn uniform_prior() -> Self {
        BetaBernoulli {
            alpha: 1.0,
            beta: 1.0,
        }
    }

    /// Absorbs one Bernoulli observation (`true` = misclassified).
    pub fn observe(&mut self, error: bool) {
        if error {
            self.alpha += 1.0;
        } else {
            self.beta += 1.0;
        }
    }

    /// Probability that at most `k` of `n` future cells are misclassified
    /// (Beta-Binomial predictive CDF).
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `n` exceeds `u32::MAX`.
    pub fn prob_error_count_at_most(&self, k: usize, n: usize) -> Result<f64, StatsError> {
        let n32 = u32::try_from(n).map_err(|_| StatsError::InvalidParameter {
            name: "n",
            value: n as f64,
            expected: "<= u32::MAX",
        })?;
        let k32 = u32::try_from(k.min(n)).expect("k clamped to n fits in u32");
        let bb = BetaBinomial::new(n32, self.alpha, self.beta)?;
        Ok(bb.cdf(k32))
    }

    /// Probability that the misclassification *rate* of `n` future cells is
    /// at most `rate` (i.e. at most `⌊rate·n⌋` errors).
    ///
    /// # Errors
    ///
    /// Propagates from [`Self::prob_error_count_at_most`]; additionally
    /// rejects `rate ∉ [0, 1]`.
    pub fn prob_error_rate_at_most(&self, rate: f64, n: usize) -> Result<f64, StatsError> {
        if !(0.0..=1.0).contains(&rate) {
            return Err(StatsError::InvalidParameter {
                name: "rate",
                value: rate,
                expected: "in [0, 1]",
            });
        }
        self.prob_error_count_at_most((rate * n as f64).floor() as usize, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A uniform-prior model that has seen `errors` misclassifications
    /// out of `total` checks.
    fn observed(errors: usize, total: usize) -> BetaBernoulli {
        let mut m = BetaBernoulli::uniform_prior();
        for i in 0..total {
            m.observe(i < errors);
        }
        m
    }

    #[test]
    fn nig_update_matches_closed_form() {
        // Single observation against the textbook one-step update.
        let mut m = NormalInverseGamma::weak_prior(0.0, 1.0);
        m.observe(2.0);
        assert!((m.mu - 1.0).abs() < 1e-12); // (1·0 + 2)/2
        assert!((m.kappa - 2.0).abs() < 1e-12);
        assert!((m.alpha - 1.5).abs() < 1e-12);
        // beta' = 1 + 0.5·(1·(2-0)²/2) = 2
        assert!((m.beta - 2.0).abs() < 1e-12);
    }

    #[test]
    fn nig_batch_equals_sequential() {
        let xs = [0.2, 0.5, 0.1, 0.4, 0.3];
        let mut a = NormalInverseGamma::weak_prior(0.0, 1.0);
        let mut b = a;
        a.observe_all(&xs);
        for &x in &xs {
            b.observe(x);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn nig_concentrates_with_data() {
        let mut m = NormalInverseGamma::weak_prior(0.0, 1.0);
        for _ in 0..100 {
            m.observe_all(&[0.3, 0.31, 0.29]);
        }
        assert!((m.mu - 0.3).abs() < 0.01);
        // P(mean of future errors <= 0.35) should be near 1.
        assert!(m.prob_mean_below(0.35, 20).unwrap() > 0.99);
        // P(mean <= 0.25) near 0.
        assert!(m.prob_mean_below(0.25, 20).unwrap() < 0.01);
    }

    #[test]
    fn nig_prob_monotone_in_threshold() {
        let mut m = NormalInverseGamma::weak_prior(0.5, 0.5);
        m.observe_all(&[0.4, 0.6, 0.5]);
        let mut prev = 0.0;
        for t in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let p = m.prob_mean_below(t, 5).unwrap();
            assert!(p >= prev);
            prev = p;
        }
    }

    #[test]
    fn nig_more_future_samples_tightens() {
        // With more future samples the predictive mean concentrates around μ;
        // for a threshold above μ the probability increases.
        let mut m = NormalInverseGamma::weak_prior(0.0, 1.0);
        m.observe_all(&[0.2, 0.3, 0.25, 0.28, 0.22]);
        let p1 = m.prob_mean_below(0.4, 1).unwrap();
        let p50 = m.prob_mean_below(0.4, 50).unwrap();
        assert!(p50 > p1);
    }

    #[test]
    fn nig_rejects_zero_n() {
        let m = NormalInverseGamma::weak_prior(0.0, 1.0);
        assert!(m.prob_mean_below(0.5, 0).is_err());
    }

    #[test]
    fn nig_posterior_predictive_is_student_t() {
        // For one future observation the query is the posterior predictive
        // Student-t: 2α d.o.f., location μ, scale sqrt(β(κ+1)/(ακ)).
        let mut m = NormalInverseGamma::weak_prior(0.0, 1.0);
        m.observe_all(&[1.0, 2.0, 3.0]);
        let scale = (m.beta * (m.kappa + 1.0) / (m.alpha * m.kappa)).sqrt();
        let t = StudentT::new(2.0 * m.alpha, m.mu, scale).unwrap();
        for x in [-1.0, 0.5, m.mu, 2.0, 4.0] {
            let p = m.prob_mean_below(x, 1).unwrap();
            assert!((p - t.cdf(x)).abs() < 1e-12, "x={x}");
        }
        assert!((m.prob_mean_below(m.mu, 1).unwrap() - 0.5).abs() < 1e-10);
    }

    #[test]
    fn beta_bernoulli_update_counts() {
        let m = observed(3, 10);
        assert_eq!((m.alpha, m.beta), (4.0, 8.0));
        let mut s = BetaBernoulli::uniform_prior();
        for _ in 0..7 {
            s.observe(false);
        }
        for _ in 0..3 {
            s.observe(true);
        }
        assert_eq!(m, s);
    }

    #[test]
    fn beta_bernoulli_quality_probability_behaviour() {
        // Strong low-error evidence: quality probability near 1.
        assert!(observed(0, 50).prob_error_rate_at_most(0.25, 36).unwrap() > 0.99);
        // Strong high-error evidence: near 0.
        assert!(observed(40, 50).prob_error_rate_at_most(0.25, 36).unwrap() < 0.01);
    }

    #[test]
    fn beta_bernoulli_monotone_in_k() {
        let m = observed(2, 10);
        let mut prev = 0.0;
        for k in 0..=10 {
            let p = m.prob_error_count_at_most(k, 10).unwrap();
            assert!(p >= prev - 1e-12);
            prev = p;
        }
        assert!((prev - 1.0).abs() < 1e-9);
    }

    #[test]
    fn beta_bernoulli_rejects_bad_rate() {
        let m = BetaBernoulli::uniform_prior();
        assert!(m.prob_error_rate_at_most(1.5, 10).is_err());
        assert!(m.prob_error_rate_at_most(-0.1, 10).is_err());
    }
}
