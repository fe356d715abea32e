//! # drcell — facade crate
//!
//! Reproduction of *Cell Selection with Deep Reinforcement Learning in Sparse
//! Mobile Crowdsensing* (DR-Cell, Wang et al., ICDCS 2018).
//!
//! This crate re-exports the workspace members under stable module names so an
//! application can depend on a single crate. The learner is the paper's
//! Algorithm 2 — a DRQN (`rl`, `neural`) trained offline by `core` — and the
//! stop rule is the leave-one-out Bayesian (ε, p) check (`quality`, `stats`)
//! over ALS completion (`inference`):
//!
//! ```
//! use drcell::datasets::SensorScopeConfig;
//! let cfg = SensorScopeConfig::default();
//! assert_eq!(cfg.cells, 57);
//! ```

pub use drcell_core as core;
pub use drcell_datasets as datasets;
pub use drcell_faults as faults;
pub use drcell_inference as inference;
pub use drcell_linalg as linalg;
pub use drcell_neural as neural;
pub use drcell_pool as pool;
pub use drcell_quality as quality;
pub use drcell_rl as rl;
pub use drcell_scenario as scenario;
pub use drcell_serve as serve;
pub use drcell_stats as stats;
pub use drcell_store as store;
