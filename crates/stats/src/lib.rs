//! # drcell-stats — statistics substrate
//!
//! The Bayesian side of the leave-one-out (ε, p)-quality check (per Wang
//! et al. CCS-TA / SPACE-TA and the DR-Cell paper §3 Definition 6), on
//! plain `f64`:
//!
//! * [`bayes`] — [`bayes::NormalInverseGamma`] (continuous metrics) and
//!   [`bayes::BetaBernoulli`] (classification) conjugate updates, each
//!   queried for the probability that the unsensed cells' error is ≤ ε.
//! * [`dist`] — the two predictive distributions those queries evaluate:
//!   Student-t and Beta-Binomial.
//! * [`special`] — `ln_gamma`, `ln_beta` and the regularised incomplete
//!   beta function behind their CDFs.
//!
//! ```
//! use drcell_stats::bayes::NormalInverseGamma;
//!
//! let mut m = NormalInverseGamma::weak_prior(0.5, 0.5);
//! m.observe_all(&[0.2, 0.25, 0.3]);
//! assert!(m.prob_mean_below(1.0, 10).unwrap() > 0.9);
//! ```

#![deny(missing_docs)]

pub mod bayes;
pub mod dist;
pub mod special;

mod error;

pub use error::StatsError;
