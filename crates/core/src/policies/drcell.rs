use drcell_inference::ObservedMatrix;
use drcell_rl::{DqnAgent, QNetwork};
use rand::RngCore;

use crate::{selection_history, CellSelectionPolicy, CoreError};

/// The DR-Cell policy: greedy (ε = 0 at test time) action selection from a
/// trained Q-network over the `k`-cycle selection-history state
/// (paper §4.1/§4.3 — "choose the cell with the largest reward score").
pub struct DrCellPolicy<N: QNetwork> {
    agent: DqnAgent<N>,
    history_k: usize,
    name: String,
}

impl<N: QNetwork> std::fmt::Debug for DrCellPolicy<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DrCellPolicy")
            .field("history_k", &self.history_k)
            .field("name", &self.name)
            .finish()
    }
}

impl<N: QNetwork> DrCellPolicy<N> {
    /// Wraps a trained agent; `history_k` must match the training state
    /// model.
    pub fn new(agent: DqnAgent<N>, history_k: usize) -> Self {
        DrCellPolicy {
            agent,
            history_k,
            name: "DR-Cell".to_owned(),
        }
    }

    /// Overrides the display name (used by the transfer-learning
    /// experiments to label TRANSFER / NO-TRANSFER / SHORT-TRAIN variants).
    pub fn with_name(mut self, name: &str) -> Self {
        self.name = name.to_owned();
        self
    }

    /// Borrows the wrapped agent.
    pub fn agent(&self) -> &DqnAgent<N> {
        &self.agent
    }
}

impl<N: QNetwork> CellSelectionPolicy for DrCellPolicy<N> {
    fn name(&self) -> &str {
        &self.name
    }

    fn select_next(
        &mut self,
        obs: &ObservedMatrix,
        cycle: usize,
        rng: &mut dyn RngCore,
    ) -> Result<usize, CoreError> {
        let state = selection_history(obs, cycle, self.history_k);
        let mask: Vec<bool> = (0..obs.cells())
            .map(|i| !obs.is_observed(i, cycle))
            .collect();
        Ok(self.agent.select_action(&state, &mask, 0.0, rng)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drcell_neural::Adam;
    use drcell_rl::{DqnConfig, DrqnQNetwork};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn agent(cells: usize, seed: u64) -> DqnAgent<DrqnQNetwork> {
        let mut rng = StdRng::seed_from_u64(seed);
        DqnAgent::new(
            DrqnQNetwork::new(cells, 8, &mut rng).unwrap(),
            Box::new(Adam::new(1e-3)),
            DqnConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn never_selects_observed_cell() {
        let mut policy = DrCellPolicy::new(agent(4, 0), 2);
        let mut obs = ObservedMatrix::new(4, 3);
        obs.observe(0, 2, 1.0);
        obs.observe(2, 2, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let a = policy.select_next(&obs, 2, &mut rng).unwrap();
            assert!(a == 1 || a == 3);
        }
    }

    #[test]
    fn exhausted_cycle_errors() {
        let mut policy = DrCellPolicy::new(agent(2, 1), 2);
        let mut obs = ObservedMatrix::new(2, 1);
        obs.observe(0, 0, 1.0);
        obs.observe(1, 0, 1.0);
        let mut rng = StdRng::seed_from_u64(2);
        assert!(policy.select_next(&obs, 0, &mut rng).is_err());
    }

    #[test]
    fn name_override() {
        let policy = DrCellPolicy::new(agent(3, 2), 2).with_name("TRANSFER");
        assert_eq!(policy.name(), "TRANSFER");
    }
}
