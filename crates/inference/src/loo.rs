//! Batched leave-one-out (LOO) inference.
//!
//! The (ε, p)-quality assessment of Sparse MCS (paper §3 Definition 6)
//! re-infers the matrix once per sensed cell per candidate selection: hide
//! one observation, complete the matrix, record the reconstruction error at
//! the hidden entry. Done naively that re-runs alternating least squares
//! from a cold start for every sensed cell of every selection — the
//! dominant cost of the testing stage and of every DQN rollout.
//!
//! [`BatchedLooEngine`] cuts that loop by an order of magnitude without
//! changing its semantics:
//!
//! 1. **One base solve per call.** The full observation set is factorised
//!    once; every leave-one-out sub-problem warm-starts from those
//!    near-converged factors instead of a random init, so the shared
//!    early-stop criterion triggers after one or two sweeps instead of the
//!    full cold-start budget.
//! 2. **Shared Gram caches, rank-1 downdates.** The first warm half-sweep
//!    solves against the unchanged base `V`, so every row's right-hand
//!    side and every observation pattern's Gram matrix are accumulated
//!    once per call and then *downdated* per left-out observation (a
//!    rank-1 subtraction for the affected row, an exact mean-shift
//!    correction for all rows) instead of re-scanned.
//! 3. **Warm factors across selections.** Successive selections within a
//!    cycle differ by a single observation, so the engine carries its base
//!    factors from call to call and the next base solve converges in a
//!    sweep or two.
//!
//! The moment updates are exact (mean, variance and ridge of each
//! sub-problem are algebraically downdated, not approximated), and the
//! sweep arithmetic is byte-for-byte the code the naive path runs (see
//! [`crate::als`]); the backends differ only in starting point. Run both to
//! a converged tolerance and their LOO errors agree to ~1e-9 — the contract
//! enforced by this crate's property tests.

use drcell_datasets::DataMatrix;
use drcell_linalg::{backend, kernels, solve, vector, Matrix};
use serde::{Deserialize, Serialize};

use crate::als::{self, AlsData, AlsScratch};
use crate::{
    CompressiveSensing, CompressiveSensingConfig, InferenceAlgorithm, InferenceError,
    ObservedMatrix,
};

/// Which leave-one-out implementation a quality assessor runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum AssessmentBackend {
    /// From-scratch completion per left-out observation (the reference
    /// semantics; O(sensed) full cold-start solves per assessment).
    Naive,
    /// The [`BatchedLooEngine`]: shared base factorisation, cached Grams
    /// with rank-1 downdates, warm starts across selections.
    #[default]
    Batched,
}

impl Deserialize for AssessmentBackend {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        match value {
            serde::Value::Str(s) if s == "Naive" => Ok(AssessmentBackend::Naive),
            serde::Value::Str(s) if s == "Batched" => Ok(AssessmentBackend::Batched),
            other => Err(serde::Error::expected(
                "\"Naive\" or \"Batched\" for AssessmentBackend",
                other,
            )),
        }
    }

    // Specs written before the backend existed keep parsing: an absent
    // field means the default backend.
    fn absent(_field: &str) -> Result<Self, serde::Error> {
        Ok(AssessmentBackend::default())
    }
}

/// A leave-one-out predictor: for each listed cell sensed at `cycle`, hide
/// its observation, complete the matrix from everything else, and return
/// the reconstructed value at the hidden entry.
///
/// Implementations take `&mut self` so they may carry warm state between
/// calls; callers must not rely on any particular state being kept.
pub trait LooSolver {
    /// Predicts each of `cells` (all observed at `cycle`) from the rest of
    /// the matrix, in order.
    ///
    /// # Errors
    ///
    /// Propagates completion failures.
    ///
    /// # Panics
    ///
    /// May panic if a listed cell is not observed at `cycle`.
    fn loo_predict(
        &mut self,
        obs: &ObservedMatrix,
        cycle: usize,
        cells: &[usize],
    ) -> Result<Vec<f64>, InferenceError>;

    /// Human-readable backend name (for reports and diagnostics).
    fn name(&self) -> &'static str;
}

/// The reference leave-one-out solver: one from-scratch completion per
/// hidden entry, with any [`InferenceAlgorithm`].
pub struct NaiveLooSolver<'a> {
    algo: &'a dyn InferenceAlgorithm,
}

impl<'a> NaiveLooSolver<'a> {
    /// Wraps an inference algorithm.
    pub fn new(algo: &'a dyn InferenceAlgorithm) -> Self {
        NaiveLooSolver { algo }
    }
}

impl LooSolver for NaiveLooSolver<'_> {
    fn loo_predict(
        &mut self,
        obs: &ObservedMatrix,
        cycle: usize,
        cells: &[usize],
    ) -> Result<Vec<f64>, InferenceError> {
        let mut work = obs.clone();
        let mut out = Vec::with_capacity(cells.len());
        for &cell in cells {
            let truth = work
                .unobserve(cell, cycle)
                .expect("LOO cell must be observed at the cycle");
            let completed = self.algo.complete(&work)?;
            work.observe(cell, cycle, truth);
            out.push(completed.value(cell, cycle));
        }
        Ok(out)
    }

    fn name(&self) -> &'static str {
        "naive-loo"
    }
}

/// Warm factors carried between engine calls.
#[derive(Debug, Clone)]
struct WarmFactors {
    u: Matrix,
    v: Matrix,
}

/// Batched leave-one-out compressive-sensing engine (see the module docs
/// for the algorithm).
///
/// ```
/// use drcell_datasets::DataMatrix;
/// use drcell_inference::{BatchedLooEngine, LooSolver, ObservedMatrix};
///
/// # fn main() -> Result<(), drcell_inference::InferenceError> {
/// let truth = DataMatrix::from_fn(6, 8, |i, t| {
///     (i as f64 * 0.5).sin() + (t as f64 * 0.3).cos()
/// });
/// let obs = ObservedMatrix::from_selection(&truth, |i, t| (i * 3 + t * 5) % 4 != 0);
/// let mut engine = BatchedLooEngine::default();
/// let sensed = obs.observed_cells_at(7);
/// let predictions = engine.loo_predict(&obs, 7, &sensed)?;
/// assert_eq!(predictions.len(), sensed.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct BatchedLooEngine {
    cs: CompressiveSensing,
    warm: Option<WarmFactors>,
    stats: EngineStats,
}

/// Cheap cumulative diagnostics of the engine's sweep economy.
///
/// Every counter advances as its work completes, so a failed call keeps
/// the counts of the solves that finished before the failure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Sweeps spent on base (nothing-left-out) solves.
    pub base_sweeps: usize,
    /// Sweeps spent on leave-one-out refinements.
    pub loo_sweeps: usize,
    /// Leave-one-out sub-problems solved.
    pub loo_solves: usize,
    /// Base solves that warm-started from a previous call's factors.
    pub warm_starts: usize,
}

impl BatchedLooEngine {
    /// Creates the engine with an explicit compressive-sensing
    /// configuration (the same parameters the naive path would use).
    ///
    /// # Errors
    ///
    /// Propagates [`InferenceError::InvalidConfig`] (same domains as
    /// [`CompressiveSensing::new`]).
    pub fn new(config: CompressiveSensingConfig) -> Result<Self, InferenceError> {
        Ok(BatchedLooEngine {
            cs: CompressiveSensing::new(config)?,
            warm: None,
            stats: EngineStats::default(),
        })
    }

    /// Ignored: returns `self` unchanged (kept for `e2ebench/`).
    #[must_use]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Cumulative sweep diagnostics since construction.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Borrows the configuration.
    pub fn config(&self) -> &CompressiveSensingConfig {
        self.cs.config()
    }

    /// Drops any warm factors; the next call cold-starts like the naive
    /// path.
    pub fn reset(&mut self) {
        self.warm = None;
    }

    /// `true` while warm factors from a previous call are available.
    pub fn is_warm(&self) -> bool {
        self.warm.is_some()
    }

    /// Solves the full (nothing-left-out) problem, warm-starting from the
    /// previous call's factors when the shape still matches, and stores the
    /// result as the next call's warm start.
    fn base_solve(
        &mut self,
        data: &AlsData,
        lambda: f64,
    ) -> Result<(Matrix, Matrix), InferenceError> {
        let problem = data.problem(lambda);
        let cfg = self.cs.config();
        let (mut u, mut v, prev_obj) = match self.warm.take() {
            Some(w) if w.u.shape() == (data.m, data.r) && w.v.shape() == (data.n, data.r) => {
                self.stats.warm_starts += 1;
                let obj0 = als::objective(&problem, &w.u, &w.v);
                (w.u, w.v, obj0)
            }
            _ => {
                let (u, v) = self.cs.cold_factors(data.m, data.n, data.r);
                (u, v, f64::INFINITY)
            }
        };
        let mut scratch = AlsScratch::new(data);
        self.stats.base_sweeps += als::run_sweeps(
            &problem,
            &mut u,
            &mut v,
            cfg.max_iters,
            cfg.tol,
            prev_obj,
            &mut scratch,
        )?;
        self.warm = Some(WarmFactors {
            u: u.clone(),
            v: v.clone(),
        });
        Ok((u, v))
    }

    /// Warm-started matrix completion: identical semantics to
    /// [`CompressiveSensing::complete`] (same sweeps, same early-stop rule)
    /// but starting from the previous call's factors when available — the
    /// fast path for rollout loops that complete a window once per
    /// selection step.
    ///
    /// # Errors
    ///
    /// Propagates completion failures.
    pub fn complete(&mut self, obs: &ObservedMatrix) -> Result<DataMatrix, InferenceError> {
        let data = AlsData::build(obs, self.cs.config().rank)?;
        let lambda = self.cs.effective_lambda(data.variance());
        let (u, v) = self.base_solve(&data, lambda)?;
        let mean = data.mean;
        Ok(obs.fill_with(|i, t| {
            let pred: f64 = u.row(i).iter().zip(v.row(t)).map(|(a, b)| a * b).sum();
            mean + pred
        }))
    }

    /// Batched leave-one-out predictions for `cells` at `cycle` (the hot
    /// loop of the quality assessment; see the module docs).
    ///
    /// # Errors
    ///
    /// * [`InferenceError::NoObservations`] when fewer than two entries are
    ///   observed (a leave-one-out sub-problem would be empty).
    /// * Propagates solver failures of the first failing cell.
    ///
    /// # Panics
    ///
    /// Panics if a listed cell is not observed at `cycle`.
    pub fn loo_predictions(
        &mut self,
        obs: &ObservedMatrix,
        cycle: usize,
        cells: &[usize],
    ) -> Result<Vec<f64>, InferenceError> {
        let cfg = self.cs.config().clone();
        let data = AlsData::build(obs, cfg.rank)?;
        if data.count < 2 {
            return Err(InferenceError::NoObservations);
        }
        let lambda = self.cs.effective_lambda(data.variance());
        let (u0, v0) = self.base_solve(&data, lambda)?;
        let r = data.r;

        // Shared first-half-sweep caches against the base V: raw Gram
        // Σ v_t·v_tᵀ per observation pattern (rows of one pattern share
        // it), raw right-hand side Σ x_it·v_t and factor sum Σ v_t per
        // row. Each leave-one-out U-half-sweep is then a rank-1 Gram
        // downdate plus an exact mean-shift of the right-hand side instead
        // of a fresh pass over the observations.
        let mut gram0 = vec![Matrix::zeros(r, r); data.patterns];
        let mut gram0_built = vec![false; data.patterns];
        let mut rhs_raw: Vec<Vec<f64>> = Vec::with_capacity(data.m);
        let mut vsum: Vec<Vec<f64>> = Vec::with_capacity(data.m);
        let kind = backend::active_kind();
        for (obs_row, &k) in data.row_obs.iter().zip(&data.row_pattern) {
            let mut rhs = vec![0.0; r];
            let mut sum = vec![0.0; r];
            for &(t, raw) in obs_row {
                let vt = v0.row(t);
                vector::axpy(raw, vt, &mut rhs);
                kernels::add_assign(kind, &mut sum, vt);
            }
            if !gram0_built[k] {
                gram0_built[k] = true;
                for &(t, _) in obs_row {
                    kernels::gram_update(kind, gram0[k].as_mut_slice(), v0.row(t));
                }
            }
            rhs_raw.push(rhs);
            vsum.push(sum);
        }

        let n1 = (data.count - 1) as f64;
        // The base factor of the assessed cycle; constant across cells.
        let v_tau_base: Vec<f64> = v0.row(cycle).to_vec();

        // Each left-out-cell evaluation reads only the shared base state
        // (factors, caches, observation lists) and restarts from the base
        // factors, so one set of working buffers serves every cell.
        let mut u = u0.clone();
        let mut v = v0.clone();
        let mut scratch = AlsScratch::new(&data);
        let mut v_tau = vec![0.0; r];
        let mut out = Vec::with_capacity(cells.len());
        for &cell in cells {
            let x = obs
                .get(cell, cycle)
                .expect("LOO cell must be observed at the cycle");
            // Exactly downdated moments of the sub-problem without
            // (cell, cycle): mean from the raw sum; variance from
            // base-centred sums (numerically stable — the centred
            // values are O(std)).
            let mean1 = (data.sum - x) / n1;
            let c0 = x - data.mean;
            let csum1 = data.centred_sum - c0;
            let csq1 = data.centred_sum_sq - c0 * c0;
            let var1 = ((csq1 - csum1 * csum1 / n1) / n1).max(1e-12);
            let lambda1 = self.cs.effective_lambda(var1);
            let problem = data.loo_problem(lambda1, mean1, cell, cycle);

            u.as_mut_slice().copy_from_slice(u0.as_slice());
            v.as_mut_slice().copy_from_slice(v0.as_slice());

            // Local pre-solve. In the leave-one-out problem the hidden
            // entry was the only interaction between `u[cell]` and
            // `v[cycle]`: row `cell`'s system no longer involves
            // `v[cycle]` and column `cycle`'s system no longer involves
            // `u[cell]`, so both can be solved exactly against the
            // otherwise-unchanged base factors. This jumps straight
            // over the slow global transient the removal would
            // otherwise trigger — the factor the removal touches most
            // is re-solved before any full sweep.
            //
            // `u[cell]` comes from the cached base Gram via a rank-1
            // downdate (subtract the left-out cycle's factor outer
            // product) plus the exact mean-shift of the right-hand
            // side.
            if problem.row_len(cell) == 0 {
                u.row_mut(cell).fill(0.0);
            } else {
                scratch
                    .gram
                    .as_mut_slice()
                    .copy_from_slice(gram0[data.row_pattern[cell]].as_slice());
                kernels::downdate_rank1(
                    kind,
                    scratch.gram.as_mut_slice(),
                    &mut scratch.rhs,
                    &rhs_raw[cell],
                    &vsum[cell],
                    x,
                    mean1,
                    &v_tau_base,
                );
                als::add_ridge(&mut scratch.gram, lambda1, problem.row_len(cell));
                solve::solve_spd_in_place(&mut scratch.gram, &mut scratch.rhs)?;
                u.row_mut(cell).copy_from_slice(&scratch.rhs);
            }
            // `v[cycle]`: a standard column solve; its system skips row
            // `cell` (the leave-out), and every row it does use is
            // still at the base factors.
            als::solve_v_row(&problem, &u, &mut v, cycle, &mut scratch)?;
            let obj0 = als::objective(&problem, &u, &v);

            // Full sweep 1: cached U-half. The caches were built
            // against the base V; `v[cycle]` has moved, so rows
            // observed at the cycle get an exact rank-2 cache
            // correction (out with the base factor's outer product, in
            // with the refined one) — no row is re-scanned. Row `cell`
            // is skipped outright: the refined `v[cycle]` never enters
            // its (leave-out) system, so the local pre-solve above
            // already holds this sweep's exact solution. The corrected
            // Gram depends only on the row's observation pattern, so it
            // is built and factored once per pattern (see `als`).
            v_tau.copy_from_slice(v.row(cycle));
            scratch.begin_half_sweep();
            for i in 0..data.m {
                if i == cell {
                    continue;
                }
                let n_eff = problem.row_len(i);
                if n_eff == 0 {
                    u.row_mut(i).fill(0.0);
                    continue;
                }
                let (raw, sum) = (&rhs_raw[i], &vsum[i]);
                let sensed = obs.get(i, cycle);
                match sensed {
                    Some(xi) => {
                        for a in 0..r {
                            scratch.rhs[a] = raw[a] - xi * v_tau_base[a] + xi * v_tau[a]
                                - mean1 * (sum[a] - v_tau_base[a] + v_tau[a]);
                        }
                    }
                    None => {
                        for a in 0..r {
                            scratch.rhs[a] = raw[a] - mean1 * sum[a];
                        }
                    }
                }
                let k = data.row_pattern[i];
                scratch.solve_pattern(k, |gram| {
                    gram.as_mut_slice().copy_from_slice(gram0[k].as_slice());
                    if sensed.is_some() {
                        kernels::correct_rank2(kind, gram.as_mut_slice(), &v_tau_base, &v_tau);
                    }
                    als::add_ridge(gram, lambda1, n_eff);
                })?;
                u.row_mut(i).copy_from_slice(&scratch.rhs);
            }
            // Full sweep 1, V-half, then the shared early-stop rule;
            // further sweeps run the standard loop. They are the common
            // case, not the exception: a traced paper-scale run averaged
            // 2.84 sweeps per leave-one-out solve.
            als::sweep_v(&problem, &u, &mut v, &mut scratch)?;
            let obj1 = als::objective(&problem, &u, &v);
            self.stats.loo_sweeps += 1;
            self.stats.loo_solves += 1;
            let converged = obj0.is_finite() && (obj0 - obj1).abs() <= cfg.tol * obj0.max(1e-12);
            if !converged && cfg.max_iters > 1 {
                self.stats.loo_sweeps += als::run_sweeps(
                    &problem,
                    &mut u,
                    &mut v,
                    cfg.max_iters - 1,
                    cfg.tol,
                    obj1,
                    &mut scratch,
                )?;
            }

            let pred: f64 = u
                .row(cell)
                .iter()
                .zip(v.row(cycle))
                .map(|(a, b)| a * b)
                .sum();
            out.push(mean1 + pred);
        }
        Ok(out)
    }
}

impl LooSolver for BatchedLooEngine {
    fn loo_predict(
        &mut self,
        obs: &ObservedMatrix,
        cycle: usize,
        cells: &[usize],
    ) -> Result<Vec<f64>, InferenceError> {
        self.loo_predictions(obs, cycle, cells)
    }

    fn name(&self) -> &'static str {
        "batched-loo"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth_obs(cells: usize, cycles: usize) -> ObservedMatrix {
        let truth = DataMatrix::from_fn(cells, cycles, |i, t| {
            3.0 + (i as f64 * 0.4).sin() * (t as f64 * 0.3).cos() + 0.2 * (i as f64 * 0.7).cos()
        });
        ObservedMatrix::from_selection(&truth, |i, t| (i * 5 + t * 3) % 4 != 0)
    }

    /// A tightly converged configuration: `tol = 0` disables early
    /// stopping, so with a large sweep budget the cold and warm starts
    /// both contract onto the same ALS fixed point (whose predictions are
    /// unique even where the factors themselves are rotation-degenerate).
    fn tight() -> CompressiveSensingConfig {
        CompressiveSensingConfig {
            rank: 3,
            max_iters: 1500,
            tol: 0.0,
            ..Default::default()
        }
    }

    #[test]
    fn matches_naive_when_converged() {
        let obs = smooth_obs(8, 10);
        let cycle = 9;
        let sensed = obs.observed_cells_at(cycle);
        assert!(sensed.len() >= 3, "fixture needs several sensed cells");

        let cs = CompressiveSensing::new(tight()).unwrap();
        let naive = NaiveLooSolver::new(&cs)
            .loo_predict(&obs, cycle, &sensed)
            .unwrap();
        let batched = BatchedLooEngine::new(tight())
            .unwrap()
            .loo_predictions(&obs, cycle, &sensed)
            .unwrap();
        for (cell, (a, b)) in sensed.iter().zip(naive.iter().zip(&batched)) {
            assert!(
                (a - b).abs() < 1e-9,
                "cell {cell}: naive {a} vs batched {b}"
            );
        }
    }

    #[test]
    fn serial_predictions_and_stats_are_pinned() {
        // Literals captured from the fixture; any change to the per-cell
        // arithmetic or to how the sweep counters accumulate shows here.
        let obs = smooth_obs(9, 11);
        let cycle = 10;
        let sensed = obs.observed_cells_at(cycle);
        assert_eq!(sensed, [0, 1, 3, 4, 5, 7, 8]);
        let mut engine = BatchedLooEngine::new(tight()).unwrap();
        let bits = |preds: Vec<f64>| preds.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        let cold = bits(engine.loo_predictions(&obs, cycle, &sensed).unwrap());
        let warm = bits(engine.loo_predictions(&obs, cycle, &sensed).unwrap());
        assert_eq!(
            cold,
            [
                0x4009916603b0cbf0,
                0x40062376c4d541b9,
                0x3fffbfbb56caa42b,
                0x3ffd5743dc9d08d0,
                0x3ffed0c46d0ad157,
                0x4005a85a8b3b0105,
                0x4009aec8040a19eb,
            ]
        );
        assert_eq!(
            warm,
            [
                0x4009916603b0cbf1,
                0x40062376c4d541b8,
                0x3fffbfbb56caa430,
                0x3ffd5743dc9d08d5,
                0x3ffed0c46d0ad156,
                0x4005a85a8b3b0105,
                0x4009aec8040a19ea,
            ]
        );
        assert_eq!(
            engine.stats(),
            EngineStats {
                base_sweeps: 1489,
                loo_sweeps: 16297,
                loo_solves: 14,
                warm_starts: 1,
            }
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let obs = smooth_obs(7, 9);
        let sensed = obs.observed_cells_at(8);
        let run = || {
            BatchedLooEngine::new(tight())
                .unwrap()
                .loo_predictions(&obs, 8, &sensed)
                .unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn warm_state_does_not_change_converged_results() {
        let obs = smooth_obs(8, 10);
        let sensed = obs.observed_cells_at(9);
        let mut engine = BatchedLooEngine::new(tight()).unwrap();
        let cold = engine.loo_predictions(&obs, 9, &sensed).unwrap();
        assert!(engine.is_warm());
        let warm = engine.loo_predictions(&obs, 9, &sensed).unwrap();
        for (a, b) in cold.iter().zip(&warm) {
            assert!((a - b).abs() < 1e-9, "cold {a} vs warm {b}");
        }
        engine.reset();
        assert!(!engine.is_warm());
    }

    #[test]
    fn complete_matches_compressive_sensing_when_cold() {
        // Without warm state the engine's completion is the exact same
        // computation as `CompressiveSensing::complete`.
        let obs = smooth_obs(6, 8);
        let cfg = CompressiveSensingConfig {
            rank: 3,
            ..Default::default()
        };
        let reference = CompressiveSensing::new(cfg.clone())
            .unwrap()
            .complete(&obs)
            .unwrap();
        let warm = BatchedLooEngine::new(cfg).unwrap().complete(&obs).unwrap();
        assert_eq!(reference, warm);
    }

    #[test]
    fn leaving_out_a_rows_only_observation_falls_back_to_mean() {
        // Cell 3 is observed exactly once, in the last cycle; hiding that
        // observation leaves an empty row, which must predict the mean —
        // for both backends.
        let truth = DataMatrix::from_fn(5, 6, |i, t| 2.0 + i as f64 * 0.1 + t as f64 * 0.05);
        let obs = ObservedMatrix::from_selection(&truth, |i, t| i != 3 || t == 5);
        let cfg = tight();
        let cs = CompressiveSensing::new(cfg.clone()).unwrap();
        let naive = NaiveLooSolver::new(&cs).loo_predict(&obs, 5, &[3]).unwrap();
        let batched = BatchedLooEngine::new(cfg)
            .unwrap()
            .loo_predictions(&obs, 5, &[3])
            .unwrap();
        assert!((naive[0] - batched[0]).abs() < 1e-9);
    }

    #[test]
    fn too_few_observations_rejected() {
        let mut obs = ObservedMatrix::new(4, 4);
        obs.observe(0, 0, 1.0);
        let err = BatchedLooEngine::default().loo_predictions(&obs, 0, &[0]);
        assert!(matches!(err, Err(InferenceError::NoObservations)));
    }

    #[test]
    fn invalid_config_rejected() {
        assert!(BatchedLooEngine::new(CompressiveSensingConfig {
            rank: 0,
            ..Default::default()
        })
        .is_err());
    }

    #[test]
    fn backend_default_and_serde() {
        assert_eq!(AssessmentBackend::default(), AssessmentBackend::Batched);
        let v = serde::Serialize::to_value(&AssessmentBackend::Naive);
        assert_eq!(
            AssessmentBackend::from_value(&v).unwrap(),
            AssessmentBackend::Naive
        );
        // Absent fields deserialise to the default backend.
        assert_eq!(
            <AssessmentBackend as Deserialize>::absent("backend").unwrap(),
            AssessmentBackend::Batched
        );
        assert!(AssessmentBackend::from_value(&serde::Value::Int(3)).is_err());
    }
}
