//! Cell-selection policies: DR-Cell and the paper's baselines.

mod drcell;
mod greedy;
mod online;
mod qbc;
mod random;

pub use drcell::DrCellPolicy;
pub use greedy::GreedyErrorPolicy;
pub use online::{OnlineDrCellConfig, OnlineDrCellPolicy};
pub use qbc::QbcPolicy;
pub use random::RandomPolicy;

use drcell_inference::ObservedMatrix;
use rand::RngCore;

use crate::{CoreError, CycleRecord};

/// A cell-selection strategy: given everything observed so far, pick the
/// next cell of the current cycle to sense (paper §3, the Cell Selection
/// problem).
///
/// The runner guarantees `cycle < obs.cycles()` and that at least one cell
/// is unobserved at `cycle` when calling `select_next`.
///
/// Policies are `Send` so scenario engines can evaluate many of them on
/// worker threads concurrently (each policy is still driven from a single
/// thread at a time — no `Sync` requirement).
pub trait CellSelectionPolicy: Send {
    /// Display name for reports ("DR-Cell", "QBC", "RANDOM", ...).
    fn name(&self) -> &str;

    /// Notifies the policy that a new sensing cycle began.
    fn on_cycle_start(&mut self, _cycle: usize) {}

    /// Notifies the policy that a cycle finished, with its record — the
    /// hook online-learning policies use to turn the cycle into training
    /// experience. Default: no-op.
    fn on_cycle_end(&mut self, _record: &CycleRecord, _rng: &mut dyn RngCore) {}

    /// Chooses the next cell to sense in `cycle`.
    ///
    /// # Errors
    ///
    /// Implementations may fail on internal numerical errors; they must
    /// never return an already-observed cell.
    fn select_next(
        &mut self,
        obs: &ObservedMatrix,
        cycle: usize,
        rng: &mut dyn RngCore,
    ) -> Result<usize, CoreError>;
}
