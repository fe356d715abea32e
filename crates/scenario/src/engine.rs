//! The parallel sweep engine: executes a scenario matrix on a worker thread
//! pool (`std::thread` + atomics, no external dependencies).
//!
//! This is one of the two places the workspace spawns threads (the other is
//! the `drcell-serve` daemon's job workers): each scenario runs start to
//! finish on one worker, single-threaded, so whole scenarios are the unit
//! of parallelism.
//!
//! Determinism: every scenario is self-seeded (see
//! [`crate::exec::run_scenario`]), so results do not depend on which worker
//! executes which scenario or in what order; the engine additionally returns
//! results in matrix order. Identical spec + seed ⇒ identical result rows at
//! any thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::exec::{run_scenario, ScenarioResult};
use crate::spec::ScenarioSpec;
use crate::ScenarioError;

/// Executes scenario matrices in parallel.
///
/// ```
/// use drcell_scenario::{registry, PolicySpec, SweepEngine, SweepSpec};
///
/// // Two quality bounds over a registry scenario (training-free policy
/// // to keep the example fast), on an explicit 2-worker pool. Results
/// // come back in matrix order and are byte-identical at any
/// // worker count.
/// let mut base = registry::find("synthetic-smooth").expect("built-in");
/// base.policy = PolicySpec::Random;
/// let sweep = SweepSpec {
///     epsilons: vec![0.4, 0.8],
///     ..SweepSpec::single(base)
/// };
/// let results = SweepEngine::new(2).run(&sweep.expand());
/// assert_eq!(results.len(), 2);
/// assert!(results.iter().all(Result::is_ok));
/// ```
#[derive(Debug, Clone)]
pub struct SweepEngine {
    threads: usize,
}

impl Default for SweepEngine {
    fn default() -> Self {
        SweepEngine::new(0)
    }
}

impl SweepEngine {
    /// Engine with an explicit worker count; `0` means one worker per
    /// available CPU core.
    pub fn new(threads: usize) -> Self {
        SweepEngine { threads }
    }

    /// The worker count the engine will actually use for `jobs` scenarios.
    ///
    /// `0` auto-sizes to one worker per hardware thread
    /// ([`drcell_pool::hardware_threads`]).
    pub fn effective_threads(&self, jobs: usize) -> usize {
        let requested = if self.threads == 0 {
            drcell_pool::hardware_threads()
        } else {
            self.threads
        };
        requested.max(1).min(jobs.max(1))
    }

    /// Runs every scenario, returning per-scenario outcomes **in matrix
    /// order** regardless of scheduling.
    pub fn run(&self, specs: &[ScenarioSpec]) -> Vec<Result<ScenarioResult, ScenarioError>> {
        self.run_with(specs, |_| {})
    }

    /// Like [`SweepEngine::run`], invoking `on_done` as each scenario
    /// finishes (in completion order, from worker threads — keep it cheap
    /// and thread-safe; the engine serialises calls internally).
    pub fn run_with<F>(
        &self,
        specs: &[ScenarioSpec],
        on_done: F,
    ) -> Vec<Result<ScenarioResult, ScenarioError>>
    where
        F: Fn(&Result<ScenarioResult, ScenarioError>) + Send + Sync,
    {
        if specs.is_empty() {
            return Vec::new();
        }
        let workers = self.effective_threads(specs.len());
        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<Result<ScenarioResult, ScenarioError>>>> =
            Mutex::new((0..specs.len()).map(|_| None).collect());
        let progress = Mutex::new(());

        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= specs.len() {
                        break;
                    }
                    let outcome = run_scenario(&specs[index], index);
                    {
                        // Serialise the callback so sinks/progress printers
                        // need no internal locking.
                        let _guard = progress.lock().expect("progress lock");
                        on_done(&outcome);
                    }
                    results.lock().expect("results lock")[index] = Some(outcome);
                });
            }
        });

        results
            .into_inner()
            .expect("results lock")
            .into_iter()
            .map(|slot| slot.expect("every scenario executed"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DatasetSpec, PolicySpec, QualitySpec, RunnerSpec, SweepSpec};
    use drcell_datasets::{FieldConfig, PerturbationStack};
    use std::sync::atomic::AtomicUsize;

    fn base() -> ScenarioSpec {
        ScenarioSpec {
            name: "engine-test".to_owned(),
            seed: 5,
            dataset: DatasetSpec::Synthetic {
                grid_rows: 3,
                grid_cols: 3,
                cell_w: 40.0,
                cell_h: 40.0,
                cycles: 32,
                mean: 5.0,
                std: 1.0,
                field: FieldConfig {
                    cycles_per_day: 16,
                    ..FieldConfig::default()
                },
            },
            perturbations: PerturbationStack::none(),
            policy: PolicySpec::Random,
            quality: QualitySpec {
                epsilon: 0.5,
                p: 0.9,
            },
            runner: RunnerSpec {
                window: 8,
                ..RunnerSpec::default()
            },
            train_cycles: 20,
        }
    }

    fn small_matrix() -> Vec<ScenarioSpec> {
        SweepSpec {
            base: base(),
            policies: vec![PolicySpec::Random, PolicySpec::Qbc],
            epsilons: vec![0.4, 0.8],
            ps: Vec::new(),
            seeds: vec![1, 2],
            perturbations: Vec::new(),
            inner_threads: None,
        }
        .expand()
    }

    #[test]
    fn results_come_back_in_matrix_order() {
        let specs = small_matrix();
        let results = SweepEngine::new(4).run(&specs);
        assert_eq!(results.len(), specs.len());
        for (i, r) in results.iter().enumerate() {
            let r = r.as_ref().expect("scenario ran");
            assert_eq!(r.index, i);
            assert_eq!(r.name, specs[i].name);
        }
    }

    #[test]
    fn parallel_equals_serial() {
        let specs = small_matrix();
        let serial = SweepEngine::new(1).run(&specs);
        let parallel = SweepEngine::new(4).run(&specs);
        for (s, p) in serial.iter().zip(&parallel) {
            let (s, p) = (s.as_ref().unwrap(), p.as_ref().unwrap());
            assert_eq!(s.report.cycles, p.report.cycles, "scenario {}", s.name);
        }
    }

    #[test]
    fn callback_fires_once_per_scenario() {
        let specs = small_matrix();
        let count = AtomicUsize::new(0);
        SweepEngine::new(3).run_with(&specs, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), specs.len());
    }

    #[test]
    fn failures_are_isolated_per_scenario() {
        let mut specs = small_matrix();
        specs[3].quality.p = 2.0; // invalid
        let results = SweepEngine::new(2).run(&specs);
        assert!(results[3].is_err());
        assert!(results.iter().enumerate().all(|(i, r)| i == 3 || r.is_ok()));
    }

    #[test]
    fn invalid_perturbation_is_an_error_not_a_panic() {
        use drcell_datasets::{Perturbation, PerturbationStack};
        let mut specs = small_matrix();
        specs[1].perturbations =
            PerturbationStack::new(vec![Perturbation::SensorDropout { rate: 1.5 }]);
        let results = SweepEngine::new(2).run(&specs);
        let err = results[1].as_ref().unwrap_err().to_string();
        assert!(err.contains("rate"), "unexpected error: {err}");
        assert!(results.iter().enumerate().all(|(i, r)| i == 1 || r.is_ok()));
    }

    #[test]
    fn thread_count_clamps() {
        let engine = SweepEngine::new(64);
        assert_eq!(engine.effective_threads(3), 3);
        assert!(SweepEngine::new(0).effective_threads(100) >= 1);
    }

    #[test]
    fn auto_worker_count_is_the_hardware_thread_count() {
        let hw = drcell_pool::hardware_threads();
        assert_eq!(SweepEngine::new(0).effective_threads(1000), hw.min(1000));
        assert_eq!(SweepEngine::new(5).effective_threads(100), 5);
    }
}
