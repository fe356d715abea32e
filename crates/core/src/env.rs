use drcell_datasets::DataMatrix;
use drcell_inference::{
    AssessmentBackend, BatchedLooEngine, CompressiveSensing, CompressiveSensingConfig,
    InferenceAlgorithm, ObservedMatrix,
};
use drcell_linalg::Matrix;
use drcell_quality::ErrorMetric;
use drcell_rl::{Environment, StepOutcome};

use crate::{selection_history, CoreError, SensingTask};

/// Configuration of the training-stage MCS environment.
#[derive(Debug, Clone)]
pub struct McsEnvConfig {
    /// History window `k`: how many recent cycles form the state (§4.1).
    pub history_k: usize,
    /// Terminal bonus `R`; `None` uses the paper's choice `R = m`
    /// (total number of cells, see the Fig. 5 example).
    pub reward_bonus: Option<f64>,
    /// Per-selection cost `c` (paper uses 1).
    pub cost: f64,
    /// Trailing cycles fed to compressive sensing when computing the true
    /// cycle error.
    pub window: usize,
    /// Compressive-sensing parameters for the in-loop error evaluation.
    pub inference: CompressiveSensingConfig,
    /// Completion backend for the in-loop quality signal: the batched
    /// warm-start engine (default; consecutive steps differ by a single
    /// observation, so warm factors re-converge in a sweep or two) or the
    /// naive cold-start completion.
    pub backend: AssessmentBackend,
    /// Hard cap on selections per cycle (`None` = all cells).
    pub max_selections_per_cycle: Option<usize>,
    /// Ignored (kept for `e2ebench/`).
    pub inner_threads: usize,
}

impl Default for McsEnvConfig {
    fn default() -> Self {
        McsEnvConfig {
            history_k: 3,
            reward_bonus: None,
            cost: 1.0,
            window: 24,
            inference: CompressiveSensingConfig {
                max_iters: 15,
                ..CompressiveSensingConfig::default()
            },
            backend: AssessmentBackend::default(),
            max_selections_per_cycle: None,
            inner_threads: 0,
        }
    }
}

/// The paper's cell-selection MDP over the *training stage* data
/// (§4.1, Algorithm 1/2 environment loop).
///
/// During training the organiser has ground truth from the preliminary
/// study (footnote 2), so the quality signal `q` is the *true* inference
/// error: after each selection the trailing window is completed with
/// compressive sensing and the current cycle's error over unsensed cells is
/// compared against ε. Reward is `q·R − c`; when `q = 1` the cycle ends and
/// the state advances.
#[derive(Debug)]
pub struct McsEnvironment {
    truth: DataMatrix,
    metric: ErrorMetric,
    epsilon: f64,
    config: McsEnvConfig,
    cs: CompressiveSensing,
    /// Warm-start completion engine (the rollout fast path); `None` under
    /// the naive backend.
    completer: Option<BatchedLooEngine>,
    obs: ObservedMatrix,
    cycle: usize,
    selections_this_cycle: usize,
    finished: bool,
}

impl McsEnvironment {
    /// Builds the environment from a task's training stage.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a zero history window, zero
    /// inference window, or non-positive cost; propagates inference
    /// configuration errors.
    pub fn new(task: &SensingTask, config: McsEnvConfig) -> Result<Self, CoreError> {
        if config.history_k == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "history_k must be positive".to_owned(),
            });
        }
        if config.window == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "window must be positive".to_owned(),
            });
        }
        if config.cost <= 0.0 {
            return Err(CoreError::InvalidConfig {
                reason: "cost must be positive".to_owned(),
            });
        }
        let truth = task.training_data();
        let cs = CompressiveSensing::new(config.inference.clone())?;
        let completer = match config.backend {
            AssessmentBackend::Batched => Some(BatchedLooEngine::new(config.inference.clone())?),
            AssessmentBackend::Naive => None,
        };
        let obs = ObservedMatrix::new(truth.cells(), truth.cycles());
        Ok(McsEnvironment {
            truth,
            metric: task.metric(),
            epsilon: task.requirement().epsilon,
            config,
            cs,
            completer,
            obs,
            cycle: 0,
            selections_this_cycle: 0,
            finished: false,
        })
    }

    /// The effective terminal bonus `R`.
    pub fn reward_bonus(&self) -> f64 {
        self.config
            .reward_bonus
            .unwrap_or(self.truth.cells() as f64)
    }

    /// Current cycle index within the training stage.
    pub fn cycle(&self) -> usize {
        self.cycle
    }

    /// `true` once every training cycle has completed.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Checks whether the current cycle's *true* inference error is within
    /// ε, completing the trailing observation window with compressive
    /// sensing (training-stage quality signal, paper footnote 2).
    fn quality_met(&mut self) -> bool {
        let sensed = self.obs.observed_cells_at(self.cycle);
        if sensed.len() == self.truth.cells() {
            return true;
        }
        if sensed.is_empty() {
            return false;
        }
        let w = self.config.window.min(self.cycle + 1);
        let from = self.cycle + 1 - w;
        let window = {
            // Trailing window ending at the current cycle.
            let mut win = ObservedMatrix::new(self.truth.cells(), w);
            for i in 0..self.truth.cells() {
                for t in 0..w {
                    if let Some(v) = self.obs.get(i, from + t) {
                        win.observe(i, t, v);
                    }
                }
            }
            win
        };
        let completed = match self.completer.as_mut() {
            Some(engine) => engine.complete(&window),
            None => self.cs.complete(&window),
        };
        let completed = match completed {
            Ok(c) => c,
            Err(_) => return false,
        };
        let truth_col = self.truth.cycle_snapshot(self.cycle);
        let inferred_col: Vec<f64> = (0..self.truth.cells())
            .map(|i| completed.value(i, w - 1))
            .collect();
        let unsensed = self.obs.unobserved_cells_at(self.cycle);
        match self
            .metric
            .cycle_error(&truth_col, &inferred_col, &unsensed)
        {
            Ok(e) => e <= self.epsilon,
            Err(_) => false,
        }
    }
}

impl Environment for McsEnvironment {
    fn num_actions(&self) -> usize {
        self.truth.cells()
    }

    fn state(&self) -> Matrix {
        let cycle = self.cycle.min(self.truth.cycles() - 1);
        selection_history(&self.obs, cycle, self.config.history_k)
    }

    fn action_mask(&self) -> Vec<bool> {
        if self.finished {
            return vec![false; self.truth.cells()];
        }
        (0..self.truth.cells())
            .map(|i| !self.obs.is_observed(i, self.cycle))
            .collect()
    }

    fn step(&mut self, action: usize) -> StepOutcome {
        assert!(!self.finished, "step on a finished episode");
        assert!(
            !self.obs.is_observed(action, self.cycle),
            "cell {action} already selected this cycle"
        );
        let value = self.truth.value(action, self.cycle);
        self.obs.observe(action, self.cycle, value);
        self.selections_this_cycle += 1;

        let quality = self.quality_met();
        let cap_hit = self
            .config
            .max_selections_per_cycle
            .map(|cap| self.selections_this_cycle >= cap)
            .unwrap_or(false);
        let all_sensed = self.selections_this_cycle >= self.truth.cells();
        let cycle_done = quality || cap_hit || all_sensed;

        let reward = if quality {
            self.reward_bonus() - self.config.cost
        } else {
            -self.config.cost
        };

        if cycle_done {
            self.cycle += 1;
            self.selections_this_cycle = 0;
            if self.cycle >= self.truth.cycles() {
                self.finished = true;
            }
        }
        StepOutcome {
            reward,
            cycle_done,
            episode_done: self.finished,
        }
    }

    fn reset(&mut self) {
        self.obs = ObservedMatrix::new(self.truth.cells(), self.truth.cycles());
        if let Some(engine) = self.completer.as_mut() {
            engine.reset();
        }
        self.cycle = 0;
        self.selections_this_cycle = 0;
        self.finished = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drcell_datasets::CellGrid;
    use drcell_quality::QualityRequirement;

    /// A low-rank task the environment can satisfy with few selections.
    fn smooth_task() -> SensingTask {
        let truth = DataMatrix::from_fn(6, 12, |i, t| i as f64 * 0.01 + t as f64 * 0.001);
        SensingTask::new(
            "smooth",
            truth,
            CellGrid::full_grid(2, 3, 10.0, 10.0),
            ErrorMetric::MeanAbsolute,
            QualityRequirement::new(0.5, 0.9).unwrap(),
            8,
        )
        .unwrap()
    }

    /// A white-noise task where quality is effectively unreachable.
    fn noisy_task(eps: f64) -> SensingTask {
        let truth = DataMatrix::from_fn(4, 10, |i, t| {
            // Deterministic pseudo-noise.
            ((i * 2654435761 + t * 40503) % 1000) as f64 / 10.0
        });
        SensingTask::new(
            "noise",
            truth,
            CellGrid::full_grid(2, 2, 10.0, 10.0),
            ErrorMetric::MeanAbsolute,
            QualityRequirement::new(eps, 0.9).unwrap(),
            6,
        )
        .unwrap()
    }

    fn env(task: &SensingTask) -> McsEnvironment {
        let mut e = McsEnvironment::new(
            task,
            McsEnvConfig {
                history_k: 2,
                window: 4,
                ..Default::default()
            },
        )
        .unwrap();
        e.reset();
        e
    }

    #[test]
    fn smooth_task_completes_cycle_quickly() {
        let task = smooth_task();
        let mut e = env(&task);
        // A couple of selections should satisfy eps = 0.5 on a near-constant
        // field.
        let out1 = e.step(0);
        if !out1.cycle_done {
            let out2 = e.step(5);
            assert!(
                out2.cycle_done,
                "nearly constant field should satisfy quality fast"
            );
            assert!(out2.reward > 0.0, "terminal reward positive: R − c");
        }
        assert_eq!(e.cycle(), 1);
    }

    #[test]
    fn rewards_follow_q_r_minus_c() {
        let task = noisy_task(1e-9);
        let mut e = env(&task);
        // Unreachable epsilon: every step costs −c until all cells sensed.
        let mut last = e.step(0);
        assert_eq!(last.reward, -1.0);
        for a in 1..4 {
            last = e.step(a);
        }
        // Final selection senses everything: quality trivially met, bonus
        // R − c = 4 − 1 = 3.
        assert!(last.cycle_done);
        assert_eq!(last.reward, 3.0);
    }

    #[test]
    fn mask_tracks_selection() {
        let task = smooth_task();
        let mut e = env(&task);
        assert!(e.action_mask().iter().all(|&b| b));
        let _ = e.step(2);
        if e.cycle() == 0 {
            assert!(!e.action_mask()[2]);
        }
    }

    #[test]
    #[should_panic(expected = "already selected")]
    fn repeated_action_panics() {
        let task = noisy_task(1e-9);
        let mut e = env(&task);
        let _ = e.step(1);
        let _ = e.step(1);
    }

    #[test]
    fn episode_finishes_after_all_cycles() {
        let task = noisy_task(1e9); // always satisfied after 1 selection
        let mut e = env(&task);
        let mut done = false;
        let mut cycles = 0;
        while !done {
            let out = e.step(0);
            assert!(out.cycle_done, "eps = 1e9 always satisfied");
            cycles += 1;
            done = out.episode_done;
        }
        assert_eq!(cycles, task.train_cycles());
        assert!(e.finished());
        assert!(e.action_mask().iter().all(|&b| !b));
    }

    #[test]
    fn reset_restores_initial_state() {
        let task = smooth_task();
        let mut e = env(&task);
        let _ = e.step(0);
        e.reset();
        assert_eq!(e.cycle(), 0);
        assert!(!e.finished());
        assert!(e.action_mask().iter().all(|&b| b));
        assert_eq!(e.state().sum(), 0.0);
    }

    #[test]
    fn state_shape_is_k_by_m() {
        let task = smooth_task();
        let e = env(&task);
        assert_eq!(e.state().shape(), (2, 6));
    }

    #[test]
    fn selection_cap_forces_cycle_end() {
        let task = noisy_task(1e-9);
        let mut e = McsEnvironment::new(
            &task,
            McsEnvConfig {
                history_k: 2,
                window: 4,
                max_selections_per_cycle: Some(2),
                ..Default::default()
            },
        )
        .unwrap();
        e.reset();
        let o1 = e.step(0);
        assert!(!o1.cycle_done);
        let o2 = e.step(1);
        assert!(o2.cycle_done, "cap of 2 must end the cycle");
        assert!(o2.reward < 0.0, "cap-forced end without quality: no bonus");
    }

    #[test]
    fn default_reward_bonus_is_cell_count() {
        let task = smooth_task();
        let e = env(&task);
        assert_eq!(e.reward_bonus(), 6.0);
    }

    #[test]
    fn backends_produce_identical_reward_streams() {
        // The rollout fast path must not change training: drive both
        // backends through the same episode at converged completion
        // tolerances and require identical rewards and cycle boundaries.
        // (At under-converged tolerances warm and cold completions may
        // legitimately differ; the default scenarios' training behaviour
        // is pinned end-to-end by the sweep determinism tests.)
        let task = smooth_task();
        let run = |backend: AssessmentBackend| {
            let mut e = McsEnvironment::new(
                &task,
                McsEnvConfig {
                    history_k: 2,
                    window: 4,
                    backend,
                    inference: drcell_inference::CompressiveSensingConfig {
                        lambda: 0.1,
                        tol: 1e-8,
                        max_iters: 300,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            )
            .unwrap();
            e.reset();
            let mut outcomes = Vec::new();
            while !e.finished() {
                let action = e.action_mask().iter().position(|&b| b).unwrap();
                let out = e.step(action);
                outcomes.push((action, out.reward, out.cycle_done));
            }
            outcomes
        };
        assert_eq!(
            run(AssessmentBackend::Naive),
            run(AssessmentBackend::Batched)
        );
    }

    #[test]
    fn invalid_configs_rejected() {
        let task = smooth_task();
        for cfg in [
            McsEnvConfig {
                history_k: 0,
                ..Default::default()
            },
            McsEnvConfig {
                window: 0,
                ..Default::default()
            },
            McsEnvConfig {
                cost: 0.0,
                ..Default::default()
            },
        ] {
            assert!(McsEnvironment::new(&task, cfg).is_err());
        }
    }
}
