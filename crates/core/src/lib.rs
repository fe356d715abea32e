//! # drcell-core — DR-Cell: deep-reinforcement-learning cell selection
//!
//! The paper's contribution (Wang, Liu et al., *Cell Selection with Deep
//! Reinforcement Learning in Sparse Mobile Crowdsensing*, ICDCS 2018),
//! assembled from the workspace substrates:
//!
//! * [`SensingTask`] — a Sparse-MCS task: ground-truth matrix, cell grid,
//!   error metric, (ε, p)-quality requirement, training/testing split;
//! * [`McsEnvironment`] — the paper's state/action/reward model (§4.1) as an
//!   RL environment over the training stage;
//! * [`DrCellTrainer`] — offline Q-function training (Algorithm 2) with
//!   DRQN or dense DQN networks, every selection charged the same cost `c`;
//! * policies — [`DrCellPolicy`] plus the baselines [`QbcPolicy`],
//!   [`RandomPolicy`] and the ablation-only [`GreedyErrorPolicy`];
//! * [`SparseMcsRunner`] — the testing stage: per cycle, select cells until
//!   leave-one-out Bayesian quality assessment clears (ε, p), then infer the
//!   rest with compressive sensing;
//! * [`transfer`] — §4.4 transfer learning between correlated tasks;
//! * [`report`] — assessor calibration (estimated stop-probability
//!   against the realised within-ε rate) over a finished run.
//!
//! ```no_run
//! use drcell_core::{DrCellTrainer, SensingTask, SparseMcsRunner, TrainerConfig};
//! use drcell_datasets::{SensorScopeConfig, SensorScopeDataset};
//! use drcell_quality::{ErrorMetric, QualityRequirement};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ds = SensorScopeDataset::generate(&SensorScopeConfig::default(), 42);
//! let task = SensingTask::new(
//!     "temperature",
//!     ds.temperature,
//!     ds.grid,
//!     ErrorMetric::MeanAbsolute,
//!     QualityRequirement::new(0.3, 0.9)?,
//!     96, // 2-day training stage
//! )?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let agent = DrCellTrainer::new(TrainerConfig::default()).train_drqn(&task, &mut rng)?;
//! let mut policy = drcell_core::DrCellPolicy::new(agent, 3);
//! let report = SparseMcsRunner::new(&task, Default::default())?.run(&mut policy, &mut rng)?;
//! println!("avg cells/cycle = {}", report.mean_cells_per_cycle());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod env;
mod error;
mod policies;
mod runner;
mod state;
mod task;
mod trainer;

pub mod experiments;
pub mod report;
pub mod transfer;

pub use drcell_linalg::{backend, BackendChoice, BackendKind};
pub use env::{McsEnvConfig, McsEnvironment};
pub use error::CoreError;
pub use policies::{
    CellSelectionPolicy, DrCellPolicy, GreedyErrorPolicy, OnlineDrCellConfig, OnlineDrCellPolicy,
    QbcPolicy, RandomPolicy,
};
pub use runner::{CycleRecord, RunReport, RunnerConfig, SparseMcsRunner, StopReason};
pub use state::selection_history;
pub use task::SensingTask;
pub use trainer::{DrCellTrainer, TrainerConfig};
