use serde::{Deserialize, Serialize};

use drcell_datasets::DataMatrix;
use drcell_linalg::Matrix;

use crate::als::{self, AlsData};
use crate::{InferenceAlgorithm, InferenceError, ObservedMatrix};

/// Configuration of the compressive-sensing matrix completion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompressiveSensingConfig {
    /// Factorisation rank `r` (the assumed effective rank of the
    /// spatio-temporal field; 3–6 covers the paper's datasets).
    pub rank: usize,
    /// Dimensionless Tikhonov regularisation weight λ on both factors.
    ///
    /// The effective ridge added to each row/column solve is
    /// `λ · n_obs · var`, where `n_obs` counts that row's (column's)
    /// observations and `var` is the variance of the centred observed
    /// entries — so λ expresses a *fraction of signal variance* and the
    /// same value works across datasets of any scale or density.
    pub lambda: f64,
    /// Maximum number of ALS sweeps.
    pub max_iters: usize,
    /// Relative objective-change tolerance for early stopping.
    pub tol: f64,
    /// Seed of the deterministic factor initialisation.
    pub seed: u64,
}

impl Default for CompressiveSensingConfig {
    fn default() -> Self {
        CompressiveSensingConfig {
            rank: 4,
            lambda: 1e-2,
            max_iters: 40,
            tol: 1e-6,
            seed: 0x5eed,
        }
    }
}

/// Compressive-sensing data inference: rank-`r` matrix completion by
/// alternating least squares on the observed entries, the de facto
/// inference algorithm of Sparse MCS (paper §3, Definition 5).
///
/// The observed matrix is mean-centred, factorised as `X ≈ U·Vᵀ` with ridge
/// regularisation `λ(‖U‖² + ‖V‖²)`, and reconstructed. Observed entries are
/// passed through unchanged.
///
/// ```
/// use drcell_inference::{CompressiveSensing, InferenceAlgorithm, ObservedMatrix};
/// use drcell_datasets::DataMatrix;
///
/// # fn main() -> Result<(), drcell_inference::InferenceError> {
/// // Rank-2 truth, 60% observed.
/// let truth = DataMatrix::from_fn(6, 8, |i, t| {
///     (i as f64).sin() * (t as f64 * 0.3).cos() + 0.5 * (i as f64) * 0.1
/// });
/// let obs = ObservedMatrix::from_selection(&truth, |i, t| (i * 3 + t * 7) % 5 != 0);
/// let filled = CompressiveSensing::default().complete(&obs)?;
/// assert_eq!(filled.cells(), 6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct CompressiveSensing {
    config: CompressiveSensingConfig,
}

impl CompressiveSensing {
    /// Creates the algorithm with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns [`InferenceError::InvalidConfig`] if `rank == 0`,
    /// `lambda < 0`, or `max_iters == 0`.
    pub fn new(config: CompressiveSensingConfig) -> Result<Self, InferenceError> {
        if config.rank == 0 {
            return Err(InferenceError::InvalidConfig {
                name: "rank",
                expected: "> 0",
            });
        }
        if config.lambda < 0.0 {
            return Err(InferenceError::InvalidConfig {
                name: "lambda",
                expected: ">= 0",
            });
        }
        if config.max_iters == 0 {
            return Err(InferenceError::InvalidConfig {
                name: "max_iters",
                expected: "> 0",
            });
        }
        Ok(CompressiveSensing { config })
    }

    /// Borrows the configuration.
    pub fn config(&self) -> &CompressiveSensingConfig {
        &self.config
    }

    /// Ignored: returns `self` unchanged (kept for `e2ebench/`).
    #[must_use]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// The effective per-observation ridge for a given signal variance
    /// (scale-invariant: λ is a fraction of signal variance, see
    /// `CompressiveSensingConfig`).
    pub(crate) fn effective_lambda(&self, variance: f64) -> f64 {
        self.config.lambda.max(1e-9) * variance
    }

    /// Deterministic cold-start factors for an `m × n` problem of rank `r`.
    pub(crate) fn cold_factors(&self, m: usize, n: usize, r: usize) -> (Matrix, Matrix) {
        let scale = 1.0 / (r as f64).sqrt();
        let u = als::init_factor(self.config.seed, m, r, scale, 0xA5A5);
        let v = als::init_factor(self.config.seed, n, r, scale, 0x5A5A);
        (u, v)
    }
}

impl InferenceAlgorithm for CompressiveSensing {
    fn complete(&self, obs: &ObservedMatrix) -> Result<DataMatrix, InferenceError> {
        let data = AlsData::build(obs, self.config.rank)?;
        let problem = data.problem(self.effective_lambda(data.variance()));
        let (mut u, mut v) = self.cold_factors(data.m, data.n, data.r);
        let mut scratch = als::AlsScratch::new(&data);
        als::run_sweeps(
            &problem,
            &mut u,
            &mut v,
            self.config.max_iters,
            self.config.tol,
            f64::INFINITY,
            &mut scratch,
        )?;
        let mean = data.mean;
        Ok(obs.fill_with(|i, t| {
            let pred: f64 = u.row(i).iter().zip(v.row(t)).map(|(a, b)| a * b).sum();
            mean + pred
        }))
    }

    fn name(&self) -> &'static str {
        "compressive-sensing"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact rank-2 matrix.
    fn rank2_truth(m: usize, n: usize) -> DataMatrix {
        DataMatrix::from_fn(m, n, |i, t| {
            let a = (i as f64 * 0.7).sin();
            let b = (i as f64 * 0.3).cos();
            let c = (t as f64 * 0.2).cos();
            let d = (t as f64 * 0.5).sin();
            3.0 + 2.0 * a * c + 1.5 * b * d
        })
    }

    #[test]
    fn recovers_low_rank_matrix_from_60pct() {
        let truth = rank2_truth(12, 20);
        let obs = ObservedMatrix::from_selection(&truth, |i, t| (i * 7 + t * 3) % 5 != 0);
        let cs = CompressiveSensing::new(CompressiveSensingConfig {
            rank: 3,
            ..Default::default()
        })
        .unwrap();
        let filled = cs.complete(&obs).unwrap();
        let mut max_err = 0.0f64;
        for i in 0..12 {
            for t in 0..20 {
                max_err = max_err.max((filled.value(i, t) - truth.value(i, t)).abs());
            }
        }
        assert!(max_err < 0.3, "max error {max_err}");
    }

    #[test]
    fn observed_entries_preserved_exactly() {
        let truth = rank2_truth(6, 8);
        let obs = ObservedMatrix::from_selection(&truth, |i, t| (i + t) % 2 == 0);
        let filled = CompressiveSensing::default().complete(&obs).unwrap();
        for (i, t, v) in obs.observations() {
            assert_eq!(filled.value(i, t), v);
        }
    }

    #[test]
    fn all_outputs_finite_even_sparse() {
        let truth = rank2_truth(10, 10);
        // Only 3 observations.
        let obs = ObservedMatrix::from_selection(&truth, |i, t| i == t && i < 3);
        let filled = CompressiveSensing::default().complete(&obs).unwrap();
        assert!(filled.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn unobserved_cell_falls_back_to_mean() {
        let truth = rank2_truth(5, 6);
        // Cell 4 never observed.
        let obs = ObservedMatrix::from_selection(&truth, |i, _| i < 4);
        let filled = CompressiveSensing::default().complete(&obs).unwrap();
        let mean = obs.observed_mean().unwrap();
        for t in 0..6 {
            assert!(
                (filled.value(4, t) - mean).abs() < 2.0,
                "unobserved cell should stay near the global mean"
            );
        }
    }

    #[test]
    fn empty_input_rejected() {
        let obs = ObservedMatrix::new(4, 4);
        assert!(matches!(
            CompressiveSensing::default().complete(&obs),
            Err(InferenceError::NoObservations)
        ));
    }

    #[test]
    fn invalid_config_rejected() {
        assert!(CompressiveSensing::new(CompressiveSensingConfig {
            rank: 0,
            ..Default::default()
        })
        .is_err());
        assert!(CompressiveSensing::new(CompressiveSensingConfig {
            lambda: -1.0,
            ..Default::default()
        })
        .is_err());
        assert!(CompressiveSensing::new(CompressiveSensingConfig {
            max_iters: 0,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn deterministic_output() {
        let truth = rank2_truth(8, 8);
        let obs = ObservedMatrix::from_selection(&truth, |i, t| (i + 2 * t) % 3 != 0);
        let a = CompressiveSensing::default().complete(&obs).unwrap();
        let b = CompressiveSensing::default().complete(&obs).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rank_clamped_to_matrix_size() {
        let truth = rank2_truth(2, 3);
        let obs = ObservedMatrix::from_selection(&truth, |_, _| true);
        let cs = CompressiveSensing::new(CompressiveSensingConfig {
            rank: 10,
            ..Default::default()
        })
        .unwrap();
        assert!(cs.complete(&obs).is_ok());
    }

    #[test]
    fn more_observations_reduce_error() {
        let truth = rank2_truth(10, 16);
        let sparse = ObservedMatrix::from_selection(&truth, |i, t| (i * 5 + t * 11) % 4 == 0);
        let dense = ObservedMatrix::from_selection(&truth, |i, t| (i * 5 + t * 11) % 4 != 3);
        let cs = CompressiveSensing::default();
        let err = |filled: &DataMatrix| {
            let mut s = 0.0;
            for i in 0..10 {
                for t in 0..16 {
                    s += (filled.value(i, t) - truth.value(i, t)).abs();
                }
            }
            s
        };
        let e_sparse = err(&cs.complete(&sparse).unwrap());
        let e_dense = err(&cs.complete(&dense).unwrap());
        assert!(
            e_dense < e_sparse,
            "dense {e_dense} should beat sparse {e_sparse}"
        );
    }
}
