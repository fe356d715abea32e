//! # drcell-rl — reinforcement-learning substrate
//!
//! The learning machinery of DR-Cell (paper §4.2–4.3), independent of the
//! crowdsensing domain:
//!
//! * [`Environment`] — the agent/world interface (states are `k × m`
//!   history matrices, actions are cell indices),
//! * [`DqnAgent`] — Algorithm 2: experience replay + fixed Q-targets over a
//!   pluggable [`QNetwork`] (dense [`MlpQNetwork`] or recurrent
//!   [`DrqnQNetwork`]),
//! * [`ReplayBuffer`], [`EpsilonSchedule`] (linear δ-greedy decay) — the
//!   supporting pieces.
//!
//! The tabular Q-learning of the paper's Algorithm 1 is not implemented:
//! the paper introduces it only to motivate the DRQN, since a Q-table over
//! selection histories does not scale past a handful of cells.
//!
//! ```
//! use drcell_rl::EpsilonSchedule;
//!
//! let eps = EpsilonSchedule::linear(1.0, 0.1, 100).unwrap();
//! assert_eq!(eps.value(0), 1.0);
//! assert!((eps.value(50) - 0.55).abs() < 1e-12);
//! assert_eq!(eps.value(1000), 0.1);
//! ```

#![deny(missing_docs)]

mod agent;
mod env;
mod error;
mod qnet;
mod replay;
mod schedule;
mod transition;

pub use agent::{DqnAgent, DqnConfig};
pub use env::{Environment, StepOutcome};
pub use error::RlError;
pub use qnet::{DrqnQNetwork, MlpQNetwork, QNetwork};
pub use replay::ReplayBuffer;
pub use schedule::EpsilonSchedule;
pub use transition::Transition;

use rand::Rng;

/// Selects an action ε-greedily under a validity mask: with probability
/// `epsilon` a uniformly random *valid* action, otherwise the valid action
/// with the largest Q-value (ties toward lower indices).
///
/// `q` computes the Q-values. It runs only when the coin says exploit, so
/// an exploring step skips the Q-network forward. The random draws do not
/// depend on it: the coin, then, when exploring, the index.
///
/// Returns `None` if no action is valid.
///
/// # Panics
///
/// Panics if the Q-values `q` returns differ in length from `mask`.
pub fn epsilon_greedy<R: Rng + ?Sized>(
    q: impl FnOnce() -> Vec<f64>,
    mask: &[bool],
    epsilon: f64,
    rng: &mut R,
) -> Option<usize> {
    let valid: Vec<usize> = mask
        .iter()
        .enumerate()
        .filter_map(|(i, &ok)| if ok { Some(i) } else { None })
        .collect();
    if valid.is_empty() {
        return None;
    }
    if rng.gen::<f64>() < epsilon {
        return Some(valid[rng.gen_range(0..valid.len())]);
    }
    let q = q();
    assert_eq!(q.len(), mask.len(), "q/mask length mismatch");
    valid
        .into_iter()
        .reduce(|best, i| if q[i] > q[best] { i } else { best })
}

/// Largest Q-value among valid actions; `None` if no action is valid.
///
/// # Panics
///
/// Panics if `q.len() != mask.len()`.
pub fn masked_max(q: &[f64], mask: &[bool]) -> Option<f64> {
    assert_eq!(q.len(), mask.len(), "q/mask length mismatch");
    q.iter()
        .zip(mask)
        .filter_map(|(&v, &ok)| if ok { Some(v) } else { None })
        .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn epsilon_greedy_exploits_at_zero_epsilon() {
        let mut rng = StdRng::seed_from_u64(0);
        let q = [0.1, 0.9, 0.5];
        let mask = [true, true, true];
        for _ in 0..20 {
            assert_eq!(epsilon_greedy(|| q.to_vec(), &mask, 0.0, &mut rng), Some(1));
        }
    }

    #[test]
    fn epsilon_greedy_respects_mask() {
        let mut rng = StdRng::seed_from_u64(1);
        let q = [0.1, 0.9, 0.5];
        let mask = [true, false, true];
        for eps in [0.0, 0.5, 1.0] {
            for _ in 0..50 {
                let a = epsilon_greedy(|| q.to_vec(), &mask, eps, &mut rng).unwrap();
                assert_ne!(a, 1, "masked action selected at eps {eps}");
            }
        }
    }

    #[test]
    fn epsilon_greedy_explores_at_full_epsilon() {
        let mut rng = StdRng::seed_from_u64(2);
        let q = [10.0, 0.0, 0.0];
        let mask = [true, true, true];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(epsilon_greedy(|| q.to_vec(), &mask, 1.0, &mut rng).unwrap());
        }
        assert_eq!(seen.len(), 3, "full exploration should hit all actions");
    }

    #[test]
    fn epsilon_greedy_all_masked_is_none() {
        let mut rng = StdRng::seed_from_u64(3);
        assert_eq!(epsilon_greedy(|| vec![1.0], &[false], 0.5, &mut rng), None);
    }

    #[test]
    fn epsilon_greedy_computes_q_values_only_to_exploit() {
        use rand::Rng;
        let mask = [true, false, true, true];
        for seed in 0..50 {
            let mut lazy = StdRng::seed_from_u64(seed);
            let mut draws = StdRng::seed_from_u64(seed);
            let mut calls = 0;
            let a = epsilon_greedy(
                || {
                    calls += 1;
                    vec![0.2, 0.9, 0.7, 0.1]
                },
                &mask,
                0.5,
                &mut lazy,
            );
            // The coin, then the index among the three valid actions only
            // when exploring.
            if draws.gen::<f64>() < 0.5 {
                assert_eq!(calls, 0, "seed {seed}: explored but ran the forward");
                assert_eq!(a, Some([0, 2, 3][draws.gen_range(0..3usize)]));
            } else {
                assert_eq!(calls, 1, "seed {seed}");
                assert_eq!(a, Some(2));
            }
            assert_eq!(lazy.gen::<u64>(), draws.gen::<u64>(), "seed {seed}: draws");
        }
    }

    #[test]
    fn masked_max_behaviour() {
        assert_eq!(masked_max(&[1.0, 5.0], &[true, false]), Some(1.0));
        assert_eq!(masked_max(&[1.0, 5.0], &[false, false]), None);
        assert_eq!(masked_max(&[-1.0, -5.0], &[true, true]), Some(-1.0));
    }
}
