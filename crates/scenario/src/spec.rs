//! Declarative scenario specifications.
//!
//! A [`ScenarioSpec`] composes a dataset source, a perturbation stack, a
//! policy, a quality requirement and runner settings under a single seed —
//! everything needed to evaluate one policy on one environment. A
//! [`SweepSpec`] expands parameter axes over a base scenario into a full
//! scenario matrix for the engine.

use drcell_core::BackendChoice;
use drcell_core::{
    CellSelectionPolicy, DrCellPolicy, DrCellTrainer, GreedyErrorPolicy, McsEnvConfig,
    OnlineDrCellConfig, OnlineDrCellPolicy, QbcPolicy, RandomPolicy, RunnerConfig, SensingTask,
    TrainerConfig,
};
use drcell_datasets::{
    CellGrid, DataMatrix, FieldConfig, FieldGenerator, PerturbationStack, SensorScopeConfig,
    SensorScopeDataset, UAirConfig, UAirDataset,
};
use drcell_inference::AssessmentBackend;
use drcell_neural::Adam;
use drcell_quality::{ErrorMetric, QualityRequirement};
use drcell_rl::{DqnAgent, DqnConfig, DrqnQNetwork};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::ScenarioError;

/// Derives a decorrelated child seed from a scenario seed and a stream tag,
/// so dataset generation, perturbation, training and evaluation each get an
/// independent deterministic stream.
pub fn stream_seed(seed: u64, tag: u64) -> u64 {
    let mut state = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // One splitmix64 round.
    state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// RNG stream tags (documented so spec files can be reasoned about).
pub mod streams {
    /// Dataset generation.
    pub const DATASET: u64 = 1;
    /// Perturbation application.
    pub const PERTURB: u64 = 2;
    /// Policy construction / training.
    pub const TRAIN: u64 = 3;
    /// Testing-stage evaluation.
    pub const EVAL: u64 = 4;
}

/// Most grid positions (`grid_rows × grid_cols`) a dataset may span. The
/// caps below bound what a spec file can make a scenario allocate, so an
/// absurd size fails that scenario instead of aborting the process; each
/// is far above the paper's scale (a 100-position grid, 336 cycles,
/// 16–64 hidden units).
const MAX_GRID_CELLS: usize = 4096;
/// Most sensing cycles a dataset may span.
const MAX_CYCLES: usize = 100_000;
/// Most `cells × cycles` entries of a ground-truth matrix (128 MiB).
const MAX_MATRIX_ENTRIES: usize = 1 << 24;
/// Widest DR-Cell Q-network hidden layer.
const MAX_HIDDEN: usize = 1024;

/// Which ground-truth source a scenario senses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DatasetSpec {
    /// SensorScope-like temperature field (°C, Table 1 marginals).
    SensorScopeTemperature {
        /// Number of sensor-equipped cells.
        cells: usize,
        /// Campus grid rows.
        grid_rows: usize,
        /// Campus grid columns.
        grid_cols: usize,
        /// Total sensing cycles (0.5 h each).
        cycles: usize,
    },
    /// SensorScope-like humidity field (%, Table 1 marginals).
    SensorScopeHumidity {
        /// Number of sensor-equipped cells.
        cells: usize,
        /// Campus grid rows.
        grid_rows: usize,
        /// Campus grid columns.
        grid_cols: usize,
        /// Total sensing cycles (0.5 h each).
        cycles: usize,
    },
    /// U-Air-like PM2.5 field (µg/m³, 1 h cycles).
    UAirPm25 {
        /// City grid rows.
        grid_rows: usize,
        /// City grid columns.
        grid_cols: usize,
        /// Total sensing cycles (1 h each).
        cycles: usize,
    },
    /// Fully synthetic field over a rectangular grid.
    Synthetic {
        /// Grid rows.
        grid_rows: usize,
        /// Grid columns.
        grid_cols: usize,
        /// Cell width in metres.
        cell_w: f64,
        /// Cell height in metres.
        cell_h: f64,
        /// Total sensing cycles.
        cycles: usize,
        /// Target marginal mean after calibration.
        mean: f64,
        /// Target marginal standard deviation after calibration.
        std: f64,
        /// Field-shape parameters.
        field: FieldConfig,
    },
}

impl DatasetSpec {
    /// The task/signal label this source materialises into
    /// ([`drcell_core::SensingTask::name`], the `task` column of result
    /// rows) — available without generating the dataset, so streaming
    /// layers can label rows before a run starts.
    pub fn signal(&self) -> &'static str {
        match self {
            DatasetSpec::SensorScopeTemperature { .. } => "temperature",
            DatasetSpec::SensorScopeHumidity { .. } => "humidity",
            DatasetSpec::UAirPm25 { .. } => "PM2.5",
            DatasetSpec::Synthetic { .. } => "synthetic",
        }
    }

    /// Checks the sizes this source would allocate against the caps
    /// above (and that a SensorScope cell count fits its grid), before
    /// anything is generated.
    fn validate(&self) -> Result<(), String> {
        let (cells, grid_rows, grid_cols, cycles) = match *self {
            DatasetSpec::SensorScopeTemperature {
                cells,
                grid_rows,
                grid_cols,
                cycles,
            }
            | DatasetSpec::SensorScopeHumidity {
                cells,
                grid_rows,
                grid_cols,
                cycles,
            } => (Some(cells), grid_rows, grid_cols, cycles),
            DatasetSpec::UAirPm25 {
                grid_rows,
                grid_cols,
                cycles,
            }
            | DatasetSpec::Synthetic {
                grid_rows,
                grid_cols,
                cycles,
                ..
            } => (None, grid_rows, grid_cols, cycles),
        };
        let positions = grid_rows
            .checked_mul(grid_cols)
            .filter(|&n| n <= MAX_GRID_CELLS)
            .ok_or_else(|| {
                format!("a {grid_rows} × {grid_cols} grid exceeds {MAX_GRID_CELLS} positions")
            })?;
        let cells = cells.unwrap_or(positions);
        if cells > positions {
            return Err(format!(
                "cannot place {cells} cells on a {positions}-position grid"
            ));
        }
        if cycles > MAX_CYCLES {
            return Err(format!("{cycles} cycles exceed the cap of {MAX_CYCLES}"));
        }
        if cells * cycles > MAX_MATRIX_ENTRIES {
            return Err(format!(
                "{cells} cells × {cycles} cycles exceed {MAX_MATRIX_ENTRIES} matrix entries"
            ));
        }
        Ok(())
    }

    /// Generates the ground truth and grid for this source.
    pub fn materialise(&self, seed: u64) -> (DataMatrix, CellGrid, ErrorMetric, &'static str) {
        match *self {
            DatasetSpec::SensorScopeTemperature {
                cells,
                grid_rows,
                grid_cols,
                cycles,
            } => {
                let ds = SensorScopeDataset::generate(
                    &SensorScopeConfig {
                        cells,
                        grid_rows,
                        grid_cols,
                        cycles,
                        ..SensorScopeConfig::default()
                    },
                    seed,
                );
                (
                    ds.temperature,
                    ds.grid,
                    ErrorMetric::MeanAbsolute,
                    self.signal(),
                )
            }
            DatasetSpec::SensorScopeHumidity {
                cells,
                grid_rows,
                grid_cols,
                cycles,
            } => {
                let ds = SensorScopeDataset::generate(
                    &SensorScopeConfig {
                        cells,
                        grid_rows,
                        grid_cols,
                        cycles,
                        ..SensorScopeConfig::default()
                    },
                    seed,
                );
                (
                    ds.humidity,
                    ds.grid,
                    ErrorMetric::MeanAbsolute,
                    self.signal(),
                )
            }
            DatasetSpec::UAirPm25 {
                grid_rows,
                grid_cols,
                cycles,
            } => {
                let ds = UAirDataset::generate(
                    &UAirConfig {
                        grid_rows,
                        grid_cols,
                        cycles,
                        ..UAirConfig::default()
                    },
                    seed,
                );
                (
                    ds.pm25,
                    ds.grid,
                    ErrorMetric::AqiClassification,
                    self.signal(),
                )
            }
            DatasetSpec::Synthetic {
                grid_rows,
                grid_cols,
                cell_w,
                cell_h,
                cycles,
                mean,
                std,
                ref field,
            } => {
                let grid = CellGrid::full_grid(grid_rows, grid_cols, cell_w, cell_h);
                let gen = FieldGenerator::new(grid.clone(), field.clone());
                let mut rng = StdRng::seed_from_u64(seed);
                let mut truth = gen.generate(cycles, &mut rng);
                truth.calibrate(mean, std);
                (truth, grid, ErrorMetric::MeanAbsolute, self.signal())
            }
        }
    }
}

/// Which DQN architecture a DR-Cell policy trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NetworkKind {
    /// The paper's DRQN (LSTM over the selection history).
    Drqn,
    /// The dense-DQN ablation.
    Dense,
}

/// Which selection policy a scenario evaluates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PolicySpec {
    /// Uniform random unsensed cell (paper baseline).
    Random,
    /// Query-by-committee active learning (paper baseline).
    Qbc,
    /// Ground-truth greedy oracle (ablation upper bound).
    GreedyOracle,
    /// Offline-trained DR-Cell.
    DrCell {
        /// Training episodes over the preliminary-study data.
        episodes: usize,
        /// Hidden width of the DRQN's LSTM. Ignored with
        /// `network = Dense`, whose layers are fixed
        /// (`TrainerConfig::mlp_hidden`): it is then neither checked
        /// against the width cap nor part of the canonical form, so it
        /// never changes a cache key.
        hidden: usize,
        /// Selection-history window `k`.
        history_k: usize,
        /// Q-network architecture.
        network: NetworkKind,
        /// Terminal bonus `R`; `None` = paper default (cell count).
        reward_bonus: Option<f64>,
        /// Per-selection cost `c`.
        cost: f64,
    },
    /// Online DR-Cell: learns during deployment, no preliminary study.
    OnlineDrCell {
        /// Hidden width of the Q-network.
        hidden: usize,
        /// Selection-history window `k`.
        history_k: usize,
    },
}

impl PolicySpec {
    /// The paper-default DR-Cell policy at a given training budget.
    pub fn drcell(episodes: usize, hidden: usize) -> Self {
        PolicySpec::DrCell {
            episodes,
            hidden,
            history_k: 3,
            network: NetworkKind::Drqn,
            reward_bonus: None,
            cost: 1.0,
        }
    }

    /// Display label used in reports and scenario names.
    pub fn label(&self) -> String {
        match self {
            PolicySpec::Random => "RANDOM".to_owned(),
            PolicySpec::Qbc => "QBC".to_owned(),
            PolicySpec::GreedyOracle => "GREEDY".to_owned(),
            PolicySpec::DrCell {
                network: NetworkKind::Drqn,
                ..
            } => "DR-Cell".to_owned(),
            PolicySpec::DrCell {
                network: NetworkKind::Dense,
                ..
            } => "DR-Cell-DQN".to_owned(),
            PolicySpec::OnlineDrCell { .. } => "ONLINE".to_owned(),
        }
    }

    /// Builds (training if needed) the policy for `task`.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Invalid`] when a DR-Cell history window
    /// `history_k` exceeds the task's cycle count (the `k × cells` state
    /// matrix is sized from it, so an unchecked value from a spec file
    /// could ask for terabytes) or a `hidden` width that reaches the
    /// network exceeds 1024;
    /// propagates construction and training failures.
    pub fn build(
        &self,
        task: &SensingTask,
        runner: &RunnerSpec,
        seed: u64,
    ) -> Result<Box<dyn CellSelectionPolicy>, ScenarioError> {
        // The history window and, where the network uses it, the hidden
        // width (the dense DQN's layers are fixed).
        let sizes = match *self {
            PolicySpec::DrCell {
                history_k,
                hidden,
                network,
                ..
            } => Some((history_k, (network == NetworkKind::Drqn).then_some(hidden))),
            PolicySpec::OnlineDrCell { history_k, hidden } => Some((history_k, Some(hidden))),
            _ => None,
        };
        if let Some((history_k, hidden)) = sizes {
            if history_k > task.cycles() {
                return Err(ScenarioError::Invalid(format!(
                    "history_k = {history_k} exceeds the task's {} cycles",
                    task.cycles()
                )));
            }
            if let Some(hidden) = hidden.filter(|&h| h > MAX_HIDDEN) {
                return Err(ScenarioError::Invalid(format!(
                    "hidden = {hidden} exceeds the cap of {MAX_HIDDEN}"
                )));
            }
        }
        let mut rng = StdRng::seed_from_u64(stream_seed(seed, streams::TRAIN));
        match *self {
            PolicySpec::Random => Ok(Box::new(RandomPolicy::new())),
            PolicySpec::Qbc => Ok(Box::new(QbcPolicy::new(task.grid(), runner.window)?)),
            PolicySpec::GreedyOracle => Ok(Box::new(GreedyErrorPolicy::new(
                task.truth().clone(),
                0,
                runner.window,
            )?)),
            PolicySpec::DrCell {
                episodes,
                hidden,
                history_k,
                network,
                reward_bonus,
                cost,
            } => {
                let trainer = DrCellTrainer::new(TrainerConfig {
                    episodes,
                    hidden,
                    env: McsEnvConfig {
                        history_k,
                        reward_bonus,
                        cost,
                        window: runner.window,
                        ..McsEnvConfig::default()
                    },
                    ..TrainerConfig::default()
                });
                match network {
                    NetworkKind::Drqn => {
                        let agent = trainer.train_drqn(task, &mut rng)?;
                        Ok(Box::new(DrCellPolicy::new(agent, history_k)))
                    }
                    NetworkKind::Dense => {
                        let agent = trainer.train_dqn(task, &mut rng)?;
                        Ok(Box::new(
                            DrCellPolicy::new(agent, history_k).with_name("DR-Cell-DQN"),
                        ))
                    }
                }
            }
            PolicySpec::OnlineDrCell { hidden, history_k } => {
                let agent = DqnAgent::new(
                    DrqnQNetwork::new(task.cells(), hidden, &mut rng)?,
                    Box::new(Adam::new(1e-3)),
                    DqnConfig {
                        batch_size: 16,
                        learning_starts: 32,
                        ..DqnConfig::default()
                    },
                )?;
                let config = OnlineDrCellConfig {
                    history_k,
                    ..OnlineDrCellConfig::for_task(task.cells(), task.requirement().p)
                };
                Ok(Box::new(OnlineDrCellPolicy::new(agent, config)?))
            }
        }
    }
}

/// The (ε, p)-quality requirement of a scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QualitySpec {
    /// Error bound ε in the task's metric units.
    pub epsilon: f64,
    /// Required fraction p of cycles within ε.
    pub p: f64,
}

impl QualitySpec {
    /// Converts to the core requirement type.
    ///
    /// # Errors
    ///
    /// Propagates domain errors (ε < 0, p ∉ [0, 1]).
    pub fn requirement(&self) -> Result<QualityRequirement, ScenarioError> {
        QualityRequirement::new(self.epsilon, self.p)
            .map_err(|e| ScenarioError::Invalid(e.to_string()))
    }
}

/// Testing-stage runner settings of a scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunnerSpec {
    /// Trailing cycles fed to inference/assessment.
    pub window: usize,
    /// Minimum selections per cycle before assessing.
    pub min_selections: usize,
    /// Hard cap on selections per cycle (`None` = all cells).
    pub max_selections: Option<usize>,
    /// Assess every n-th selection after the minimum.
    pub assess_every: usize,
    /// Leave-one-out backend for quality assessment (`Batched` by default;
    /// absent in a spec file means the default, so pre-existing specs keep
    /// parsing).
    pub backend: AssessmentBackend,
    /// Parsed and ignored (kept for `e2ebench/` and older spec files).
    pub inner_threads: Option<usize>,
    /// Compute backend for the dense kernels (`auto`/`scalar`/`simd`;
    /// absent = `auto`). Execution-only: every backend emits
    /// bit-identical rows, so the canonical form erases it and cache keys
    /// never depend on it.
    pub compute: BackendChoice,
}

impl Default for RunnerSpec {
    fn default() -> Self {
        RunnerSpec {
            window: 12,
            min_selections: 2,
            max_selections: None,
            assess_every: 1,
            backend: AssessmentBackend::default(),
            inner_threads: None,
            compute: BackendChoice::default(),
        }
    }
}

impl RunnerSpec {
    /// Converts to the core runner configuration.
    pub fn config(&self) -> RunnerConfig {
        RunnerConfig {
            window: self.window,
            min_selections_per_cycle: self.min_selections,
            max_selections_per_cycle: self.max_selections,
            assess_every: self.assess_every,
            assessment_backend: self.backend,
            compute_backend: self.compute,
            ..RunnerConfig::default()
        }
    }
}

/// One complete, self-contained scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Unique display name.
    pub name: String,
    /// Master seed; every random stream of the scenario derives from it.
    pub seed: u64,
    /// Ground-truth source.
    pub dataset: DatasetSpec,
    /// Perturbation stack applied to the ground truth.
    pub perturbations: PerturbationStack,
    /// Policy under evaluation.
    pub policy: PolicySpec,
    /// (ε, p)-quality requirement.
    pub quality: QualitySpec,
    /// Runner settings.
    pub runner: RunnerSpec,
    /// Cycles reserved for the preliminary study (training stage).
    pub train_cycles: usize,
}

impl ScenarioSpec {
    /// Materialises the sensing task: dataset generation, perturbation and
    /// task assembly, all seeded from the scenario seed.
    ///
    /// # Errors
    ///
    /// Propagates requirement/task construction failures.
    pub fn build_task(&self) -> Result<SensingTask, ScenarioError> {
        // Reject out-of-domain perturbation parameters up front: specs come
        // from user files, and a panic inside a worker thread would abort
        // the whole sweep instead of failing this one scenario.
        self.perturbations
            .validate()
            .map_err(ScenarioError::Invalid)?;
        self.dataset.validate().map_err(ScenarioError::Invalid)?;
        let (truth, grid, metric, signal) = self
            .dataset
            .materialise(stream_seed(self.seed, streams::DATASET));
        let mut perturb_rng = StdRng::seed_from_u64(stream_seed(self.seed, streams::PERTURB));
        let stressed = self.perturbations.apply(&truth, &grid, &mut perturb_rng);
        Ok(SensingTask::new(
            signal,
            stressed,
            grid,
            metric,
            self.quality.requirement()?,
            self.train_cycles,
        )?)
    }

    /// Builds the policy for an already-materialised task.
    ///
    /// # Errors
    ///
    /// Propagates construction and training failures.
    pub fn build_policy(
        &self,
        task: &SensingTask,
    ) -> Result<Box<dyn CellSelectionPolicy>, ScenarioError> {
        self.policy.build(task, &self.runner, self.seed)
    }
}

/// A parameter grid over a base scenario. Empty axes keep the base value;
/// non-empty axes multiply into the scenario matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// The scenario every grid point starts from.
    pub base: ScenarioSpec,
    /// Policy axis.
    pub policies: Vec<PolicySpec>,
    /// ε axis.
    pub epsilons: Vec<f64>,
    /// p axis.
    pub ps: Vec<f64>,
    /// Seed axis.
    pub seeds: Vec<u64>,
    /// Perturbation-stack axis.
    pub perturbations: Vec<PerturbationStack>,
    /// Parsed and ignored (kept for `e2ebench/` and older spec files).
    pub inner_threads: Option<usize>,
}

/// Splits `total` matrix entries into at most `shards` contiguous,
/// near-even, non-empty index ranges — the shard plan of a federated
/// sweep. The first `total % shards` ranges carry one extra entry, ranges
/// cover `0..total` exactly once in order, and fewer than `shards` ranges
/// come back when there are fewer entries than shards. Concatenating
/// per-range results in range order therefore reproduces matrix order by
/// construction.
pub fn shard_ranges(total: usize, shards: usize) -> Vec<std::ops::Range<usize>> {
    if total == 0 || shards == 0 {
        return Vec::new();
    }
    let shards = shards.min(total);
    let base = total / shards;
    let extra = total % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

impl SweepSpec {
    /// A sweep that runs exactly the base scenario.
    pub fn single(base: ScenarioSpec) -> Self {
        SweepSpec {
            base,
            policies: Vec::new(),
            epsilons: Vec::new(),
            ps: Vec::new(),
            seeds: Vec::new(),
            perturbations: Vec::new(),
            inner_threads: None,
        }
    }

    /// Expands the grid into concrete scenarios (Cartesian product of the
    /// non-empty axes), deriving a unique name per grid point.
    pub fn expand(&self) -> Vec<ScenarioSpec> {
        // Each axis contributes its values, or a single `None` meaning
        // "keep the base".
        fn axis<T: Clone>(values: &[T]) -> Vec<Option<T>> {
            if values.is_empty() {
                vec![None]
            } else {
                values.iter().cloned().map(Some).collect()
            }
        }
        let policies = axis(&self.policies);
        let epsilons = axis(&self.epsilons);
        let ps = axis(&self.ps);
        let seeds = axis(&self.seeds);
        let perturbations = axis(&self.perturbations);

        // Policies with equal labels (ablation variants of one policy) get
        // a positional suffix so every scenario name stays unique.
        let mut seen_labels: Vec<String> = Vec::new();
        let policy_tags: Vec<Option<String>> = policies
            .iter()
            .map(|p| {
                p.as_ref().map(|p| {
                    let label = p.label();
                    let dupes = policies
                        .iter()
                        .filter(|q| q.as_ref().map(PolicySpec::label) == Some(label.clone()))
                        .count();
                    if dupes > 1 {
                        let ordinal = seen_labels.iter().filter(|l| **l == label).count();
                        seen_labels.push(label.clone());
                        format!("{label}#{}", ordinal + 1)
                    } else {
                        label
                    }
                })
            })
            .collect();

        let mut out = Vec::new();
        for (policy, tag) in policies.iter().zip(&policy_tags) {
            for epsilon in &epsilons {
                for p in &ps {
                    for seed in &seeds {
                        for stack in &perturbations {
                            let mut spec = self.base.clone();
                            let mut name = self.base.name.clone();
                            if let (Some(policy), Some(tag)) = (policy, tag) {
                                spec.policy = policy.clone();
                                name.push_str(&format!("/{tag}"));
                            }
                            if let Some(eps) = epsilon {
                                spec.quality.epsilon = *eps;
                                name.push_str(&format!("/eps{eps}"));
                            }
                            if let Some(p) = p {
                                spec.quality.p = *p;
                                name.push_str(&format!("/p{p}"));
                            }
                            if let Some(stack) = stack {
                                spec.perturbations = stack.clone();
                                name.push_str(&format!("/{}", stack.label()));
                            }
                            if let Some(seed) = seed {
                                spec.seed = *seed;
                                name.push_str(&format!("/s{seed}"));
                            }
                            spec.name = name;
                            out.push(spec);
                        }
                    }
                }
            }
        }
        out
    }

    /// The number of scenarios [`SweepSpec::expand`] produces, without
    /// cloning any of them: the product of the non-empty axis lengths.
    pub fn matrix_len(&self) -> usize {
        [
            self.policies.len(),
            self.epsilons.len(),
            self.ps.len(),
            self.seeds.len(),
            self.perturbations.len(),
        ]
        .iter()
        .map(|&n| n.max(1))
        .product()
    }

    /// Expands only the `start..end` slice of the scenario matrix —
    /// exactly `self.expand()[start..end].to_vec()`, with every scenario
    /// keeping its global name and derivation. This is the sweep-slicing
    /// primitive of sharded execution: a daemon handed `start..end` runs
    /// the same scenarios, under the same names and seeds, as the
    /// single-host engine would at those matrix indices.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.matrix_len()`, like any
    /// out-of-bounds slice.
    pub fn expand_range(&self, start: usize, end: usize) -> Vec<ScenarioSpec> {
        self.expand()[start..end].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drcell_datasets::Perturbation;

    fn tiny_base() -> ScenarioSpec {
        ScenarioSpec {
            name: "tiny".to_owned(),
            seed: 7,
            dataset: DatasetSpec::Synthetic {
                grid_rows: 3,
                grid_cols: 3,
                cell_w: 40.0,
                cell_h: 40.0,
                cycles: 40,
                mean: 10.0,
                std: 2.0,
                field: FieldConfig {
                    cycles_per_day: 24,
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
            train_cycles: 24,
        }
    }

    #[test]
    fn task_materialises_deterministically() {
        let spec = tiny_base();
        let a = spec.build_task().unwrap();
        let b = spec.build_task().unwrap();
        assert_eq!(a.truth(), b.truth());
        assert_eq!(a.cells(), 9);
        assert_eq!(a.cycles(), 40);
        let mut other = spec.clone();
        other.seed = 8;
        assert_ne!(other.build_task().unwrap().truth(), a.truth());
    }

    #[test]
    fn perturbed_task_differs_from_clean() {
        let clean = tiny_base();
        let mut noisy = tiny_base();
        noisy.perturbations = PerturbationStack::new(vec![Perturbation::HeteroscedasticNoise {
            std_min: 0.2,
            std_max: 0.6,
        }]);
        assert_ne!(
            clean.build_task().unwrap().truth(),
            noisy.build_task().unwrap().truth()
        );
    }

    #[test]
    fn expand_multiplies_nonempty_axes() {
        let sweep = SweepSpec {
            base: tiny_base(),
            policies: vec![PolicySpec::Random, PolicySpec::Qbc],
            epsilons: vec![0.4, 0.6],
            ps: Vec::new(),
            seeds: vec![1, 2],
            perturbations: Vec::new(),
            inner_threads: None,
        };
        let specs = sweep.expand();
        assert_eq!(specs.len(), 8);
        // Names are unique and composed from axis values.
        let mut names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 8);
        assert!(specs.iter().any(|s| s.name.contains("QBC")));
        assert!(specs.iter().any(|s| s.name.contains("eps0.4")));
        assert!(specs.iter().any(|s| s.name.ends_with("/s2")));
    }

    #[test]
    fn duplicate_policy_labels_get_unique_names() {
        let sweep = SweepSpec {
            base: tiny_base(),
            policies: vec![
                PolicySpec::drcell(2, 8),
                PolicySpec::drcell(4, 8),
                PolicySpec::Random,
            ],
            epsilons: Vec::new(),
            ps: Vec::new(),
            seeds: Vec::new(),
            perturbations: Vec::new(),
            inner_threads: None,
        };
        let names: Vec<String> = sweep.expand().into_iter().map(|s| s.name).collect();
        assert_eq!(names.len(), 3);
        assert!(names.contains(&"tiny/DR-Cell#1".to_owned()), "{names:?}");
        assert!(names.contains(&"tiny/DR-Cell#2".to_owned()), "{names:?}");
        assert!(names.contains(&"tiny/RANDOM".to_owned()), "{names:?}");
    }

    #[test]
    fn shard_ranges_cover_the_matrix_contiguously() {
        for (total, shards) in [(8, 3), (8, 8), (3, 8), (1, 1), (100, 7), (5, 2)] {
            let ranges = shard_ranges(total, shards);
            assert_eq!(ranges.len(), shards.min(total), "{total}/{shards}");
            // Contiguous cover of 0..total, every range non-empty.
            let mut next = 0usize;
            for r in &ranges {
                assert_eq!(r.start, next, "{total}/{shards}: {ranges:?}");
                assert!(!r.is_empty(), "{total}/{shards}: {ranges:?}");
                next = r.end;
            }
            assert_eq!(next, total);
            // Near-even: lengths differ by at most one.
            let lens: Vec<usize> = ranges.iter().map(ExactSizeIterator::len).collect();
            let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
            assert!(max - min <= 1, "{total}/{shards}: {lens:?}");
        }
        assert!(shard_ranges(0, 4).is_empty());
        assert!(shard_ranges(4, 0).is_empty());
    }

    #[test]
    fn expand_range_is_a_slice_of_expand() {
        let sweep = SweepSpec {
            base: tiny_base(),
            policies: vec![PolicySpec::Random, PolicySpec::Qbc],
            epsilons: vec![0.4, 0.6],
            ps: Vec::new(),
            seeds: vec![1, 2],
            perturbations: Vec::new(),
            inner_threads: None,
        };
        let full = sweep.expand();
        assert_eq!(sweep.matrix_len(), full.len());
        assert_eq!(sweep.expand_range(0, full.len()), full);
        assert_eq!(sweep.expand_range(3, 6), full[3..6].to_vec());
        assert!(sweep.expand_range(5, 5).is_empty());
        // The shard plan reassembles the matrix exactly.
        let stitched: Vec<ScenarioSpec> = shard_ranges(full.len(), 3)
            .into_iter()
            .flat_map(|r| sweep.expand_range(r.start, r.end))
            .collect();
        assert_eq!(stitched, full);
    }

    #[test]
    fn empty_axes_keep_base() {
        let specs = SweepSpec::single(tiny_base()).expand();
        assert_eq!(specs.len(), 1);
        assert_eq!(specs[0], tiny_base());
    }

    #[test]
    fn stream_seeds_are_decorrelated() {
        let a = stream_seed(1, streams::DATASET);
        let b = stream_seed(1, streams::PERTURB);
        let c = stream_seed(2, streams::DATASET);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn history_window_longer_than_the_task_is_rejected_before_training() {
        let spec = tiny_base();
        let task = spec.build_task().unwrap();
        let cycles = task.cycles();
        let rejected = |policy: PolicySpec| match policy.build(&task, &spec.runner, spec.seed) {
            Err(ScenarioError::Invalid(msg)) => assert!(msg.contains("history_k"), "{msg}"),
            Err(e) => panic!("{}: wrong error {e}", policy.label()),
            Ok(_) => panic!("{}: history_k past the task was accepted", policy.label()),
        };
        for history_k in [cycles + 1, 100_000_000_000] {
            rejected(PolicySpec::DrCell {
                episodes: 1,
                hidden: 4,
                history_k,
                network: NetworkKind::Drqn,
                reward_bonus: None,
                cost: 1.0,
            });
            rejected(PolicySpec::OnlineDrCell {
                hidden: 4,
                history_k,
            });
        }
        // The whole task is still a valid window.
        let online = PolicySpec::OnlineDrCell {
            hidden: 4,
            history_k: cycles,
        };
        assert!(online.build(&task, &spec.runner, spec.seed).is_ok());
    }

    #[test]
    fn oversized_datasets_are_rejected_before_generation() {
        // Every case would need gigabytes (or overflow) if generated; only
        // the error path runs.
        let rejected = |dataset: DatasetSpec, what: &str| {
            let spec = ScenarioSpec {
                dataset,
                ..tiny_base()
            };
            match spec.build_task() {
                Err(ScenarioError::Invalid(msg)) => assert!(msg.contains(what), "{msg}"),
                Err(e) => panic!("wrong error {e}"),
                Ok(_) => panic!("{what}: accepted"),
            }
        };
        let scope = |cells, grid_rows, grid_cols, cycles| DatasetSpec::SensorScopeTemperature {
            cells,
            grid_rows,
            grid_cols,
            cycles,
        };
        rejected(scope(57, usize::MAX, 2, 16), "positions");
        rejected(scope(57, 100, 100, 16), "positions");
        rejected(scope(101, 10, 10, 16), "cannot place");
        rejected(scope(57, 10, 10, 1 << 40), "cycles exceed");
        rejected(scope(4096, 64, 64, 10_000), "matrix entries");
        rejected(
            DatasetSpec::UAirPm25 {
                grid_rows: 1 << 33,
                grid_cols: 1 << 33,
                cycles: 24,
            },
            "positions",
        );
        let DatasetSpec::Synthetic { field, .. } = tiny_base().dataset else {
            unreachable!()
        };
        rejected(
            DatasetSpec::Synthetic {
                grid_rows: 3,
                grid_cols: 3,
                cell_w: 40.0,
                cell_h: 40.0,
                cycles: usize::MAX,
                mean: 10.0,
                std: 2.0,
                field,
            },
            "cycles exceed",
        );
        // Every built-in scenario stays under the caps.
        for spec in crate::registry::registry() {
            assert_eq!(spec.dataset.validate(), Ok(()), "{}", spec.name);
        }
    }

    #[test]
    fn oversized_hidden_layers_are_rejected_before_training() {
        let spec = tiny_base();
        let task = spec.build_task().unwrap();
        for policy in [
            PolicySpec::drcell(1, 1 << 40),
            PolicySpec::OnlineDrCell {
                hidden: MAX_HIDDEN + 1,
                history_k: 3,
            },
        ] {
            match policy.build(&task, &spec.runner, spec.seed) {
                Err(ScenarioError::Invalid(msg)) => assert!(msg.contains("hidden"), "{msg}"),
                Err(e) => panic!("wrong error {e}"),
                Ok(_) => panic!("{}: oversized hidden accepted", policy.label()),
            }
        }
    }

    #[test]
    fn dense_policies_ignore_an_oversized_hidden() {
        let spec = tiny_base();
        let task = spec.build_task().unwrap();
        let dense = PolicySpec::DrCell {
            episodes: 1,
            hidden: MAX_HIDDEN + 1,
            history_k: 3,
            network: NetworkKind::Dense,
            reward_bonus: None,
            cost: 1.0,
        };
        assert!(dense.build(&task, &spec.runner, spec.seed).is_ok());
    }

    #[test]
    fn policy_labels() {
        assert_eq!(PolicySpec::Random.label(), "RANDOM");
        assert_eq!(PolicySpec::drcell(2, 8).label(), "DR-Cell");
        let dense = PolicySpec::DrCell {
            episodes: 2,
            hidden: 8,
            history_k: 3,
            network: NetworkKind::Dense,
            reward_bonus: None,
            cost: 1.0,
        };
        assert_eq!(dense.label(), "DR-Cell-DQN");
    }

    #[test]
    fn runner_spec_without_backend_field_parses_to_default() {
        use serde::{Serialize, Value};
        // A spec value written before the backend existed: serialise the
        // current spec, then strip the `backend` entry.
        let spec = RunnerSpec::default();
        let v = spec.to_value();
        let Value::Map(entries) = v else {
            panic!("RunnerSpec must serialise to a map")
        };
        let stripped = Value::Map(
            entries
                .into_iter()
                .filter(|(k, _)| k != "backend")
                .collect(),
        );
        let parsed = <RunnerSpec as serde::Deserialize>::from_value(&stripped).unwrap();
        assert_eq!(parsed.backend, AssessmentBackend::Batched);
        assert_eq!(parsed, spec);
    }

    #[test]
    fn backend_axis_selectable_per_scenario() {
        let mut naive = tiny_base();
        naive.runner.backend = AssessmentBackend::Naive;
        assert_eq!(
            naive.runner.config().assessment_backend,
            AssessmentBackend::Naive
        );
        assert_eq!(
            tiny_base().runner.config().assessment_backend,
            AssessmentBackend::Batched
        );
        // The backend survives a serde round trip.
        let v = serde::Serialize::to_value(&naive);
        let back = ScenarioSpec::from_value(&v).unwrap();
        assert_eq!(back.runner.backend, AssessmentBackend::Naive);
    }

    #[test]
    fn serde_round_trip() {
        let sweep = SweepSpec {
            base: tiny_base(),
            policies: vec![PolicySpec::drcell(2, 8), PolicySpec::Qbc],
            epsilons: vec![0.3],
            ps: vec![0.9, 0.95],
            seeds: vec![42],
            perturbations: vec![
                PerturbationStack::none(),
                PerturbationStack::new(vec![Perturbation::SensorDropout { rate: 0.2 }]),
            ],
            inner_threads: Some(2),
        };
        let v = sweep.to_value();
        assert_eq!(SweepSpec::from_value(&v).unwrap(), sweep);
    }
}
