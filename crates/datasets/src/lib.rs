//! # drcell-datasets — synthetic sensing datasets
//!
//! The DR-Cell paper evaluates on two real datasets that cannot be bundled
//! here: **Sensor-Scope** (EPFL campus temperature/humidity, 57 cells, 0.5 h
//! cycles, 7 days) and **U-Air** (Beijing PM2.5, 36 cells, 1 h cycles,
//! 11 days). This crate provides synthetic substitutes that reproduce the
//! properties the algorithms actually consume:
//!
//! * the **Table 1 marginal statistics** (mean ± std per signal),
//! * **spatial correlation** — nearby cells carry similar values (smooth
//!   Gaussian-bump random fields over the cell grid),
//! * **temporal correlation** — diurnal harmonics plus AR(1) evolution,
//! * **low effective rank** of the cell × cycle matrix (what compressive
//!   sensing exploits),
//! * **cross-signal correlation** between temperature and humidity (what
//!   transfer learning exploits).
//!
//! ```
//! use drcell_datasets::{SensorScopeConfig, SensorScopeDataset};
//!
//! let ds = SensorScopeDataset::generate(&SensorScopeConfig::default(), 42);
//! assert_eq!(ds.temperature.cells(), 57);
//! assert_eq!(ds.temperature.cycles(), 336);
//! ```

#![deny(missing_docs)]

mod aqi;
mod data_matrix;
mod field;
mod grid;
mod perturb;
mod sensorscope;
mod summary;
mod uair;

pub use aqi::AqiCategory;
pub use data_matrix::DataMatrix;
pub use field::{FieldConfig, FieldGenerator};
pub use grid::CellGrid;
pub use perturb::{Perturbation, PerturbationStack};
pub use sensorscope::{SensorScopeConfig, SensorScopeDataset};
pub use summary::DatasetSummary;
pub use uair::{UAirConfig, UAirDataset};
