use drcell_inference::{
    AssessmentBackend, BatchedLooEngine, CompressiveSensing, CompressiveSensingConfig,
    InferenceAlgorithm, NaiveLooSolver, ObservedMatrix,
};
use drcell_linalg::{backend, BackendChoice};
use drcell_quality::{QualityAssessment, QualityAssessor, QualityRequirement};
use rand::RngCore;
use std::ops::ControlFlow;

use crate::{CellSelectionPolicy, CoreError, SensingTask};

/// Why a control hook stopped a streaming run (the payload of
/// [`ControlFlow::Break`] in [`SparseMcsRunner::run_with_control`]).
///
/// The reason is carried through to the typed error so callers several
/// layers up (scenario engine, serving daemon) can distinguish a
/// user-initiated cancellation from a deadline expiry without string
/// matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The run was cancelled (user request, shutdown, shed, stall reap).
    /// Maps to [`CoreError::Cancelled`].
    Cancelled,
    /// The run outlived its deadline. Maps to [`CoreError::Deadline`].
    DeadlineExceeded,
}

/// Configuration of the testing-stage runner.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Trailing cycles fed to inference and quality assessment.
    pub window: usize,
    /// Compressive-sensing parameters for the *final* per-cycle inference.
    pub inference: CompressiveSensingConfig,
    /// Compressive-sensing parameters for the leave-one-out assessment.
    ///
    /// The default differs from the final-inference default: a stronger
    /// ridge (λ = 0.1) makes the ALS contraction fast enough that the
    /// relative-objective stop rule actually fires, which is what lets the
    /// batched backend finish each leave-one-out solve in a sweep or two
    /// (and keeps the naive reference on the same fixed point instead of
    /// stopping wherever its iteration cap lands).
    pub assessment_inference: CompressiveSensingConfig,
    /// Leave-one-out backend for the per-selection quality assessment:
    /// the batched warm-start engine (default) or the naive from-scratch
    /// re-solve.
    pub assessment_backend: AssessmentBackend,
    /// Minimum selections per cycle before assessing (LOO needs ≥ 2).
    pub min_selections_per_cycle: usize,
    /// Hard cap on selections per cycle (`None` = up to all cells).
    pub max_selections_per_cycle: Option<usize>,
    /// Assess quality every `assess_every` selections after the minimum
    /// (1 = after every selection, the paper's loop).
    pub assess_every: usize,
    /// Ignored (kept for `e2ebench/`).
    pub inner_threads: usize,
    /// Compute backend for the dense kernels (GEMM, ALS gram updates,
    /// ReLU fusion): `Auto` (default) resolves `DRCELL_BACKEND` then
    /// hardware detection; `Scalar`/`Simd` force a backend. This is an
    /// execution knob — every backend emits bit-identical results, so it
    /// never appears in recorded rows.
    pub compute_backend: BackendChoice,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            window: 24,
            inference: CompressiveSensingConfig::default(),
            assessment_inference: CompressiveSensingConfig {
                lambda: 0.1,
                tol: 1e-4,
                max_iters: 60,
                ..CompressiveSensingConfig::default()
            },
            assessment_backend: AssessmentBackend::default(),
            min_selections_per_cycle: 2,
            max_selections_per_cycle: None,
            assess_every: 1,
            inner_threads: 0,
            compute_backend: BackendChoice::default(),
        }
    }
}

/// Everything recorded about one testing cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleRecord {
    /// Absolute cycle index in the task.
    pub cycle: usize,
    /// Cells sensed this cycle, in selection order.
    pub selected: Vec<usize>,
    /// True inference error over the unsensed cells (the metric the
    /// (ε, p) guarantee is about).
    pub true_error: f64,
    /// The final quality-assessment probability when sensing stopped.
    pub estimated_probability: f64,
    /// `true` when `true_error ≤ ε`.
    pub within_epsilon: bool,
}

/// The outcome of running one policy over the testing stage.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Policy display name.
    pub policy: String,
    /// Task name.
    pub task: String,
    /// The enforced requirement.
    pub requirement: QualityRequirement,
    /// Per-cycle records.
    pub cycles: Vec<CycleRecord>,
}

impl RunReport {
    /// Mean number of selected cells per testing cycle — the paper's
    /// Figure 6/7 metric.
    pub fn mean_cells_per_cycle(&self) -> f64 {
        if self.cycles.is_empty() {
            return 0.0;
        }
        self.total_selections() as f64 / self.cycles.len() as f64
    }

    /// Total data submissions over the whole run (the objective of the
    /// Cell Selection problem, §3).
    pub fn total_selections(&self) -> usize {
        self.cycles.iter().map(|c| c.selected.len()).sum()
    }

    /// Fraction of cycles whose true error came in at or under ε.
    pub fn fraction_within_epsilon(&self) -> f64 {
        if self.cycles.is_empty() {
            return 1.0;
        }
        self.cycles.iter().filter(|c| c.within_epsilon).count() as f64 / self.cycles.len() as f64
    }

    /// Whether the realised run satisfied the (ε, p) guarantee.
    pub fn satisfies_requirement(&self) -> bool {
        self.fraction_within_epsilon() >= self.requirement.p
    }

    /// One human-readable summary row.
    pub fn summary_row(&self) -> String {
        format!(
            "{:<18} {:<14} avg cells/cycle = {:>6.2} | within-ε cycles = {:>5.1}% (target {:>4.1}%)",
            self.policy,
            self.task,
            self.mean_cells_per_cycle(),
            self.fraction_within_epsilon() * 100.0,
            self.requirement.p * 100.0
        )
    }
}

/// The Sparse-MCS testing stage (paper §5.3): per cycle, the policy selects
/// cells one by one; after each selection the leave-one-out Bayesian
/// assessor estimates `P(error ≤ ε)`; once it reaches `p` the cycle stops
/// and the unsensed cells are inferred with compressive sensing.
///
/// The preliminary-study (training-stage) data is treated as fully observed
/// history, warming up the inference window for the first testing cycles.
#[derive(Debug)]
pub struct SparseMcsRunner<'a> {
    task: &'a SensingTask,
    config: RunnerConfig,
    final_cs: CompressiveSensing,
    assess_cs: CompressiveSensing,
    assessor: QualityAssessor,
}

impl<'a> SparseMcsRunner<'a> {
    /// Creates a runner for a task.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for zero window /
    /// `assess_every` / minimum selections; propagates inference
    /// configuration errors.
    pub fn new(task: &'a SensingTask, config: RunnerConfig) -> Result<Self, CoreError> {
        if config.window == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "window must be positive".to_owned(),
            });
        }
        if config.assess_every == 0 {
            return Err(CoreError::InvalidConfig {
                reason: "assess_every must be positive".to_owned(),
            });
        }
        if config.min_selections_per_cycle < 2 {
            return Err(CoreError::InvalidConfig {
                reason: "min_selections_per_cycle must be at least 2 (leave-one-out)".to_owned(),
            });
        }
        // Resolve the process-wide backend up front so every kernel the
        // run touches (final inference, assessment, policy networks) sees
        // one consistent selection.
        backend::select(config.compute_backend);
        let final_cs = CompressiveSensing::new(config.inference.clone())?;
        let assess_cs = CompressiveSensing::new(config.assessment_inference.clone())?;
        let assessor = QualityAssessor::new(task.requirement(), task.metric());
        Ok(SparseMcsRunner {
            task,
            config,
            final_cs,
            assess_cs,
            assessor,
        })
    }

    /// Extracts the trailing observation window ending at `cycle`.
    fn trailing_window(&self, obs: &ObservedMatrix, cycle: usize) -> (ObservedMatrix, usize) {
        let w = self.config.window.min(cycle + 1);
        let from = cycle + 1 - w;
        let mut win = ObservedMatrix::new(obs.cells(), w);
        for i in 0..obs.cells() {
            for t in 0..w {
                if let Some(v) = obs.get(i, from + t) {
                    win.observe(i, t, v);
                }
            }
        }
        (win, w - 1)
    }

    /// Runs the policy over every testing cycle.
    ///
    /// # Errors
    ///
    /// Propagates policy, inference and assessment failures.
    pub fn run(
        &self,
        policy: &mut dyn CellSelectionPolicy,
        rng: &mut dyn RngCore,
    ) -> Result<RunReport, CoreError> {
        self.run_with_control(policy, rng, &mut |_| ControlFlow::Continue(()))
    }

    /// Runs the policy over every testing cycle, invoking `hook` with each
    /// finished [`CycleRecord`] — the streaming surface scenario engines and
    /// progress reporters attach to. The hook decides after every finished
    /// cycle whether the run continues — the cancellation and deadline
    /// surface long-running services sit on. Returning [`ControlFlow::Break`]
    /// with a [`StopReason`] stops the run at the next cycle boundary
    /// (cycles are never truncated mid-selection, so every record the hook
    /// has seen is a complete, final row).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Cancelled`] or [`CoreError::Deadline`]
    /// according to the hook's [`StopReason`]; otherwise propagates
    /// policy, inference and assessment failures.
    pub fn run_with_control(
        &self,
        policy: &mut dyn CellSelectionPolicy,
        rng: &mut dyn RngCore,
        hook: &mut dyn FnMut(&CycleRecord) -> ControlFlow<StopReason>,
    ) -> Result<RunReport, CoreError> {
        let truth = self.task.truth();
        let m = truth.cells();
        let cap = self
            .config
            .max_selections_per_cycle
            .unwrap_or(m)
            .min(m)
            .max(self.config.min_selections_per_cycle);

        // The batched engine carries warm factors across the run (validated
        // in `new`, so construction cannot fail here); the naive path goes
        // through the stateless algorithm.
        let mut batched = match self.config.assessment_backend {
            AssessmentBackend::Batched => Some(
                BatchedLooEngine::new(self.config.assessment_inference.clone())
                    .expect("assessment config validated in SparseMcsRunner::new"),
            ),
            AssessmentBackend::Naive => None,
        };
        let mut assess = |win: &ObservedMatrix,
                          wc: usize|
         -> Result<QualityAssessment, CoreError> {
            Ok(match batched.as_mut() {
                Some(engine) => self.assessor.assess_with(win, wc, engine)?,
                None => {
                    self.assessor
                        .assess_with(win, wc, &mut NaiveLooSolver::new(&self.assess_cs))?
                }
            })
        };

        // Preliminary-study data is fully known.
        let mut obs = ObservedMatrix::new(m, truth.cycles());
        for i in 0..m {
            for t in 0..self.task.train_cycles() {
                obs.observe(i, t, truth.value(i, t));
            }
        }

        let mut records = Vec::with_capacity(self.task.test_cycles());
        for cycle in self.task.train_cycles()..truth.cycles() {
            policy.on_cycle_start(cycle);
            let mut selected = Vec::new();
            let probability = loop {
                let a = policy.select_next(&obs, cycle, rng)?;
                debug_assert!(!obs.is_observed(a, cycle), "policy returned a sensed cell");
                obs.observe(a, cycle, truth.value(a, cycle));
                selected.push(a);

                if selected.len() >= m || selected.len() >= cap {
                    // Everything (or the cap) sensed; stop regardless.
                    let (win, wc) = self.trailing_window(&obs, cycle);
                    break assess(&win, wc)?.probability;
                }
                if selected.len() >= self.config.min_selections_per_cycle
                    && (selected.len() - self.config.min_selections_per_cycle)
                        .is_multiple_of(self.config.assess_every)
                {
                    let (win, wc) = self.trailing_window(&obs, cycle);
                    let a = assess(&win, wc)?;
                    if a.satisfied {
                        break a.probability;
                    }
                }
            };

            // Final inference for the cycle and true-error bookkeeping.
            let (win, wc) = self.trailing_window(&obs, cycle);
            let completed = self.final_cs.complete(&win)?;
            let truth_col = truth.cycle_snapshot(cycle);
            let inferred_col: Vec<f64> = (0..m).map(|i| completed.value(i, wc)).collect();
            let unsensed = obs.unobserved_cells_at(cycle);
            let true_error =
                self.task
                    .metric()
                    .cycle_error(&truth_col, &inferred_col, &unsensed)?;
            let record = CycleRecord {
                cycle,
                selected,
                true_error,
                estimated_probability: probability,
                within_epsilon: true_error <= self.task.requirement().epsilon,
            };
            policy.on_cycle_end(&record, rng);
            let flow = hook(&record);
            records.push(record);
            if let ControlFlow::Break(reason) = flow {
                return Err(match reason {
                    StopReason::Cancelled => CoreError::Cancelled,
                    StopReason::DeadlineExceeded => CoreError::Deadline,
                });
            }
        }

        Ok(RunReport {
            policy: policy.name().to_owned(),
            task: self.task.name().to_owned(),
            requirement: self.task.requirement(),
            cycles: records,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RandomPolicy;
    use drcell_datasets::{CellGrid, DataMatrix};
    use drcell_quality::{ErrorMetric, QualityRequirement};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn smooth_task(eps: f64) -> SensingTask {
        // Low-rank spatiotemporal field: rank 2 + mean.
        let truth = DataMatrix::from_fn(8, 16, |i, t| {
            5.0 + (i as f64 * 0.4).sin() * (t as f64 * 0.3).cos()
        });
        SensingTask::new(
            "smooth",
            truth,
            CellGrid::full_grid(2, 4, 10.0, 10.0),
            ErrorMetric::MeanAbsolute,
            QualityRequirement::new(eps, 0.9).unwrap(),
            8,
        )
        .unwrap()
    }

    fn config() -> RunnerConfig {
        RunnerConfig {
            window: 8,
            ..Default::default()
        }
    }

    #[test]
    fn random_policy_completes_run() {
        let task = smooth_task(0.5);
        let runner = SparseMcsRunner::new(&task, config()).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let report = runner.run(&mut RandomPolicy::new(), &mut rng).unwrap();
        assert_eq!(report.cycles.len(), task.test_cycles());
        assert!(report.mean_cells_per_cycle() >= 2.0);
        assert!(report.mean_cells_per_cycle() <= 8.0);
        assert!(!report.summary_row().is_empty());
    }

    #[test]
    fn loose_epsilon_needs_fewer_cells_than_tight() {
        let loose_task = smooth_task(1.0);
        let tight_task = smooth_task(0.02);
        let mut rng = StdRng::seed_from_u64(1);
        let loose = SparseMcsRunner::new(&loose_task, config())
            .unwrap()
            .run(&mut RandomPolicy::new(), &mut rng)
            .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let tight = SparseMcsRunner::new(&tight_task, config())
            .unwrap()
            .run(&mut RandomPolicy::new(), &mut rng)
            .unwrap();
        assert!(
            loose.mean_cells_per_cycle() <= tight.mean_cells_per_cycle(),
            "loose {} vs tight {}",
            loose.mean_cells_per_cycle(),
            tight.mean_cells_per_cycle()
        );
    }

    #[test]
    fn quality_guarantee_holds_on_easy_task() {
        // With a generous epsilon the realised within-ε fraction should be
        // comfortably above p.
        let task = smooth_task(0.8);
        let mut rng = StdRng::seed_from_u64(2);
        let report = SparseMcsRunner::new(&task, config())
            .unwrap()
            .run(&mut RandomPolicy::new(), &mut rng)
            .unwrap();
        assert!(
            report.fraction_within_epsilon() >= 0.8,
            "fraction {}",
            report.fraction_within_epsilon()
        );
    }

    #[test]
    fn selection_cap_respected() {
        let task = smooth_task(1e-6); // effectively unreachable quality
        let cfg = RunnerConfig {
            window: 8,
            max_selections_per_cycle: Some(3),
            ..Default::default()
        };
        let mut rng = StdRng::seed_from_u64(3);
        let report = SparseMcsRunner::new(&task, cfg)
            .unwrap()
            .run(&mut RandomPolicy::new(), &mut rng)
            .unwrap();
        assert!(report.cycles.iter().all(|c| c.selected.len() <= 3));
    }

    #[test]
    fn no_duplicate_selections_within_cycle() {
        let task = smooth_task(0.3);
        let mut rng = StdRng::seed_from_u64(4);
        let report = SparseMcsRunner::new(&task, config())
            .unwrap()
            .run(&mut RandomPolicy::new(), &mut rng)
            .unwrap();
        for c in &report.cycles {
            let mut sorted = c.selected.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), c.selected.len(), "duplicates in {c:?}");
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let task = smooth_task(0.5);
        for cfg in [
            RunnerConfig {
                window: 0,
                ..Default::default()
            },
            RunnerConfig {
                assess_every: 0,
                ..Default::default()
            },
            RunnerConfig {
                min_selections_per_cycle: 1,
                ..Default::default()
            },
        ] {
            assert!(SparseMcsRunner::new(&task, cfg).is_err());
        }
    }

    #[test]
    fn hook_sees_every_cycle_in_order() {
        let task = smooth_task(0.5);
        let mut rng = StdRng::seed_from_u64(6);
        let mut seen = Vec::new();
        let report = SparseMcsRunner::new(&task, config())
            .unwrap()
            .run_with_control(&mut RandomPolicy::new(), &mut rng, &mut |r| {
                seen.push(r.cycle);
                ControlFlow::Continue(())
            })
            .unwrap();
        let expected: Vec<usize> = report.cycles.iter().map(|c| c.cycle).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn backends_produce_identical_selection_traces() {
        // The tentpole equivalence claim: at the runner's default
        // tolerances the batched backend must select exactly the cells the
        // naive backend selects, cycle for cycle.
        for seed in [0u64, 7, 21] {
            let task = smooth_task(0.4);
            let run = |backend: AssessmentBackend| {
                let cfg = RunnerConfig {
                    window: 8,
                    assessment_backend: backend,
                    ..Default::default()
                };
                let mut rng = StdRng::seed_from_u64(seed);
                SparseMcsRunner::new(&task, cfg)
                    .unwrap()
                    .run(&mut RandomPolicy::new(), &mut rng)
                    .unwrap()
            };
            let naive = run(AssessmentBackend::Naive);
            let batched = run(AssessmentBackend::Batched);
            for (a, b) in naive.cycles.iter().zip(&batched.cycles) {
                assert_eq!(
                    a.selected, b.selected,
                    "seed {seed} cycle {}: traces diverged",
                    a.cycle
                );
            }
        }
    }

    #[test]
    fn control_hook_cancels_at_cycle_boundary() {
        let task = smooth_task(0.5);
        let runner = SparseMcsRunner::new(&task, config()).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let mut seen = Vec::new();
        let err = runner
            .run_with_control(&mut RandomPolicy::new(), &mut rng, &mut |r| {
                seen.push(r.clone());
                if seen.len() == 3 {
                    ControlFlow::Break(StopReason::Cancelled)
                } else {
                    ControlFlow::Continue(())
                }
            })
            .unwrap_err();
        assert!(matches!(err, CoreError::Cancelled), "{err}");
        assert_eq!(seen.len(), 3, "run must stop right after the break");
        // The records the hook saw are the same complete rows an
        // uncancelled run produces.
        let mut rng = StdRng::seed_from_u64(6);
        let full = runner.run(&mut RandomPolicy::new(), &mut rng).unwrap();
        assert_eq!(seen.as_slice(), &full.cycles[..3]);
    }

    #[test]
    fn control_hook_deadline_is_a_distinct_error() {
        let task = smooth_task(0.5);
        let runner = SparseMcsRunner::new(&task, config()).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let mut cycles = 0usize;
        let err = runner
            .run_with_control(&mut RandomPolicy::new(), &mut rng, &mut |_| {
                cycles += 1;
                if cycles == 2 {
                    ControlFlow::Break(StopReason::DeadlineExceeded)
                } else {
                    ControlFlow::Continue(())
                }
            })
            .unwrap_err();
        assert!(matches!(err, CoreError::Deadline), "{err}");
        assert_eq!(cycles, 2, "run must stop right after the break");
    }

    #[test]
    fn report_aggregates_consistent() {
        let task = smooth_task(0.5);
        let mut rng = StdRng::seed_from_u64(5);
        let report = SparseMcsRunner::new(&task, config())
            .unwrap()
            .run(&mut RandomPolicy::new(), &mut rng)
            .unwrap();
        let total: usize = report.cycles.iter().map(|c| c.selected.len()).sum();
        assert_eq!(report.total_selections(), total);
        let frac = report.cycles.iter().filter(|c| c.within_epsilon).count() as f64
            / report.cycles.len() as f64;
        assert!((report.fraction_within_epsilon() - frac).abs() < 1e-12);
    }
}
