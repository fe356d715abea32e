//! Property-based tests of the statistics substrate.

use drcell_stats::bayes::{BetaBernoulli, NormalInverseGamma};
use drcell_stats::dist::{BetaBinomial, StudentT};
use drcell_stats::special::{beta_inc, ln_gamma};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    #[test]
    fn ln_gamma_recurrence(x in 0.5f64..30.0) {
        // Γ(x+1) = x·Γ(x)  =>  lnΓ(x+1) = ln x + lnΓ(x).
        let lhs = ln_gamma(x + 1.0);
        let rhs = x.ln() + ln_gamma(x);
        prop_assert!((lhs - rhs).abs() < 1e-9, "x={x}: {lhs} vs {rhs}");
    }

    #[test]
    fn beta_inc_monotone_and_bounded(a in 0.2f64..10.0, b in 0.2f64..10.0, x in 0.0f64..1.0, dx in 0.0f64..0.5) {
        let x2 = (x + dx).min(1.0);
        let v1 = beta_inc(a, b, x);
        let v2 = beta_inc(a, b, x2);
        prop_assert!((0.0..=1.0).contains(&v1));
        prop_assert!(v2 >= v1 - 1e-10);
    }

    #[test]
    fn student_t_symmetry(nu in 0.5f64..50.0, loc in -5.0f64..5.0, scale in 0.1f64..3.0, z in 0.0f64..5.0) {
        let t = StudentT::new(nu, loc, scale).unwrap();
        // CDF(loc+z) + CDF(loc−z) = 1 by symmetry.
        let s = t.cdf(loc + z) + t.cdf(loc - z);
        prop_assert!((s - 1.0).abs() < 1e-8, "sum {s}");
    }

    #[test]
    fn beta_binomial_cdf_monotone(n in 1u32..40, a in 0.2f64..10.0, b in 0.2f64..10.0) {
        let bb = BetaBinomial::new(n, a, b).unwrap();
        let mut prev = 0.0;
        for k in 0..=n {
            let c = bb.cdf(k);
            prop_assert!(c >= prev - 1e-12);
            prop_assert!(c <= 1.0 + 1e-12);
            prev = c;
        }
        prop_assert!((prev - 1.0).abs() < 1e-8);
    }

    #[test]
    fn beta_mean_between_zero_one(a in 0.1f64..20.0, b in 0.1f64..20.0) {
        // Beta(a, b) has mean a/(a+b) and CDF I_x(a, b).
        let mean = a / (a + b);
        prop_assert!((0.0..1.0).contains(&mean));
        prop_assert!((beta_inc(a, b, mean) - 0.5).abs() < 0.5); // mean near median
    }

    #[test]
    fn nig_probability_monotone_in_data_quality(
        scale in 0.05f64..0.5,
        n_future in 1usize..40,
    ) {
        // Lower observed errors must never reduce the satisfaction
        // probability.
        let mut low = NormalInverseGamma::weak_prior(scale, scale);
        let mut high = NormalInverseGamma::weak_prior(scale, scale);
        low.observe_all(&[0.1 * scale; 6]);
        high.observe_all(&[2.0 * scale; 6]);
        let p_low = low.prob_mean_below(scale, n_future).unwrap();
        let p_high = high.prob_mean_below(scale, n_future).unwrap();
        prop_assert!(p_low >= p_high - 1e-9, "low-error {p_low} < high-error {p_high}");
    }

    #[test]
    fn beta_bernoulli_monotone_in_errors(errors in 0usize..20, total in 20usize..40) {
        let mut worse = BetaBernoulli::uniform_prior();
        let mut better = BetaBernoulli::uniform_prior();
        for i in 0..total {
            worse.observe(i < errors);
            better.observe(false);
        }
        let p_better = better.prob_error_rate_at_most(0.25, 36).unwrap();
        let p_worse = worse.prob_error_rate_at_most(0.25, 36).unwrap();
        prop_assert!(p_better >= p_worse - 1e-12);
    }
}
