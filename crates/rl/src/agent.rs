use rand::Rng;

use drcell_linalg::Matrix;
use drcell_neural::{Loss, Optimizer};

use crate::{epsilon_greedy, masked_max, QNetwork, ReplayBuffer, RlError, Transition};

/// Hyper-parameters of the DQN/DRQN agent (paper Algorithm 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DqnConfig {
    /// Discount factor γ.
    pub gamma: f64,
    /// Minibatch size sampled from replay per training step.
    pub batch_size: usize,
    /// Replay-buffer capacity (the memory pool `D`).
    pub replay_capacity: usize,
    /// `REPLACE_ITER`: training steps between target-network syncs
    /// (the fixed Q-targets technique).
    pub target_update_interval: usize,
    /// Minimum experiences in replay before training starts.
    pub learning_starts: usize,
    /// Training loss on the TD error.
    pub loss: Loss,
}

impl Default for DqnConfig {
    fn default() -> Self {
        DqnConfig {
            gamma: 0.95,
            batch_size: 32,
            replay_capacity: 10_000,
            target_update_interval: 100,
            learning_starts: 64,
            loss: Loss::Huber(1.0),
        }
    }
}

/// Deep Q-learning agent with experience replay and fixed Q-targets
/// (paper §4.3, Algorithm 2), generic over the Q-network architecture
/// ([`crate::MlpQNetwork`] for DQN, [`crate::DrqnQNetwork`] for DRQN).
///
/// ```
/// use drcell_rl::{DqnAgent, DqnConfig, DrqnQNetwork};
/// use drcell_neural::Adam;
/// use drcell_linalg::Matrix;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let net = DrqnQNetwork::new(3, 8, &mut rng).unwrap();
/// let agent = DqnAgent::new(net, Box::new(Adam::new(1e-3)), DqnConfig::default()).unwrap();
/// let q = agent.q_values(&Matrix::zeros(2, 3));
/// assert_eq!(q.len(), 3);
/// ```
pub struct DqnAgent<N: QNetwork> {
    online: N,
    target: N,
    replay: ReplayBuffer<Transition>,
    /// Per replay slot, the memoised bootstrap `max_{A′} Q_target(S′, A′)`
    /// (`0.0` for a terminal transition). The target network is fixed
    /// between syncs, so an entry stays valid until [`DqnAgent::observe`]
    /// overwrites its slot or the target network changes.
    bootstraps: Vec<Option<f64>>,
    optimizer: Box<dyn Optimizer>,
    config: DqnConfig,
    train_steps: u64,
}

impl<N: QNetwork + std::fmt::Debug> std::fmt::Debug for DqnAgent<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DqnAgent")
            .field("online", &self.online)
            .field("replay_len", &self.replay.len())
            .field("train_steps", &self.train_steps)
            .field("config", &self.config)
            .finish()
    }
}

impl<N: QNetwork> DqnAgent<N> {
    /// Creates an agent; the target network starts as a copy of `network`.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::InvalidConfig`] for zero batch size / capacity /
    /// target interval, or `gamma ∉ [0, 1]`.
    pub fn new(
        network: N,
        optimizer: Box<dyn Optimizer>,
        config: DqnConfig,
    ) -> Result<Self, RlError> {
        if config.batch_size == 0 {
            return Err(RlError::InvalidConfig {
                name: "batch_size",
                expected: "> 0",
            });
        }
        if config.target_update_interval == 0 {
            return Err(RlError::InvalidConfig {
                name: "target_update_interval",
                expected: "> 0",
            });
        }
        if !(0.0..=1.0).contains(&config.gamma) {
            return Err(RlError::InvalidConfig {
                name: "gamma",
                expected: "in [0, 1]",
            });
        }
        let replay = ReplayBuffer::new(config.replay_capacity)?;
        let target = network.clone();
        Ok(DqnAgent {
            online: network,
            target,
            replay,
            bootstraps: Vec::new(),
            optimizer,
            config,
            train_steps: 0,
        })
    }

    /// Q-values of the online network for a state.
    pub fn q_values(&self, state: &Matrix) -> Vec<f64> {
        self.online.q_values(state)
    }

    /// Number of actions.
    pub fn num_actions(&self) -> usize {
        self.online.num_actions()
    }

    /// Completed training steps.
    pub fn train_steps(&self) -> u64 {
        self.train_steps
    }

    /// Number of stored experiences.
    pub fn replay_len(&self) -> usize {
        self.replay.len()
    }

    /// Borrows the online network (e.g. for parameter export).
    pub fn network(&self) -> &N {
        &self.online
    }

    /// δ-greedy action selection under a validity mask. The online
    /// network runs only when the coin says exploit.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::NoValidAction`] when every action is masked.
    pub fn select_action<R: Rng + ?Sized>(
        &self,
        state: &Matrix,
        mask: &[bool],
        epsilon: f64,
        rng: &mut R,
    ) -> Result<usize, RlError> {
        epsilon_greedy(|| self.online.q_values(state), mask, epsilon, rng)
            .ok_or(RlError::NoValidAction)
    }

    /// Stores an experience in the replay memory, forgetting the memoised
    /// bootstrap of the slot it lands in.
    pub fn observe(&mut self, transition: Transition) {
        let slot = self.replay.push(transition);
        self.bootstraps.resize(self.replay.len(), None);
        self.bootstraps[slot] = None;
    }

    /// One training step: sample a minibatch *by index* (no `Transition`
    /// clones), build the fixed-target TD values (paper eq. 7), then
    /// regress with the GEMM-backed batched update and periodically sync
    /// the target network. Returns the batch loss, or `None` while the
    /// replay buffer is still warming up.
    ///
    /// The current states go through the online net in the update's own
    /// forward pass. A next state's bootstrap is memoised per replay slot
    /// until the next target sync, so the target net runs one batched
    /// forward over only the distinct sampled slots not yet memoised, and
    /// none at all when every slot is memoised or terminal.
    ///
    /// Numerically this reproduces the per-sample scalar reference path
    /// ([`DqnAgent::train_step_reference`]) bit-for-bit for dense networks
    /// and to ≤1e-9 for the DRQN: a batched forward's rows each equal the
    /// single-state forward, whichever batch they were computed in.
    ///
    /// ```
    /// use drcell_linalg::Matrix;
    /// use drcell_neural::Adam;
    /// use drcell_rl::{DqnAgent, DqnConfig, MlpQNetwork, Transition};
    /// use rand::{Rng, SeedableRng};
    ///
    /// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    /// let net = MlpQNetwork::new(2, 4, &[8], &mut rng).unwrap();
    /// let config = DqnConfig {
    ///     batch_size: 8,
    ///     learning_starts: 16,
    ///     ..DqnConfig::default()
    /// };
    /// let mut agent = DqnAgent::new(net, Box::new(Adam::new(1e-3)), config).unwrap();
    ///
    /// // Warm the replay memory, then train: one batched GEMM-backed
    /// // step per call once `learning_starts` experiences are stored.
    /// for _ in 0..16 {
    ///     let state = Matrix::from_fn(2, 4, |_, _| rng.gen::<f64>());
    ///     let next = Matrix::from_fn(2, 4, |_, _| rng.gen::<f64>());
    ///     let action = rng.gen_range(0..4);
    ///     agent.observe(Transition::new(state, action, 1.0, next, vec![true; 4], false));
    /// }
    /// assert!(agent.train_step(&mut rng).is_some(), "replay is warm");
    /// assert_eq!(agent.train_steps(), 1);
    /// ```
    pub fn train_step<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<f64> {
        if self.replay.len() < self.config.learning_starts.max(self.config.batch_size) {
            return None;
        }
        let idxs = self.replay.sample_indices(self.config.batch_size, rng);
        self.fill_bootstraps(&idxs);
        let states: Vec<&Matrix> = idxs.iter().map(|&i| &self.replay.get(i).state).collect();

        // TD targets per transition: `r + γ·bootstrap`.
        let td: Vec<(usize, f64)> = idxs
            .iter()
            .map(|&i| {
                let t = self.replay.get(i);
                let bootstrap = self.bootstraps[i].expect("sampled slots are memoised");
                (t.action, t.reward + self.config.gamma * bootstrap)
            })
            .collect();

        // Target matrix = online predictions with only the taken actions
        // replaced by the TD targets, so the loss gradient touches only
        // those actions' outputs; `train_td` reuses the training forward
        // pass as the prediction base (one online sweep instead of two).
        let loss = self.online.train_td(
            &states,
            &mut |pred| {
                let mut targets = pred.clone();
                for (b, &(action, value)) in td.iter().enumerate() {
                    targets[(b, action)] = value;
                }
                targets
            },
            self.config.loss,
            &mut *self.optimizer,
        );

        self.train_steps += 1;
        if self
            .train_steps
            .is_multiple_of(self.config.target_update_interval as u64)
        {
            self.sync_target();
        }
        Some(loss)
    }

    /// Memoises the bootstrap of every slot in `idxs` that lacks one: `0.0`
    /// for a terminal transition, otherwise the masked maximum of one
    /// batched target-network forward over the distinct missing slots.
    fn fill_bootstraps(&mut self, idxs: &[usize]) {
        let mut missing: Vec<usize> = Vec::new();
        for &i in idxs {
            if self.bootstraps[i].is_some() || missing.contains(&i) {
                continue;
            }
            if self.replay.get(i).terminal {
                self.bootstraps[i] = Some(0.0);
            } else {
                missing.push(i);
            }
        }
        if missing.is_empty() {
            return;
        }
        let next_states: Vec<&Matrix> = missing
            .iter()
            .map(|&i| &self.replay.get(i).next_state)
            .collect();
        let q_next = self.target.q_values_batch(&next_states);
        for (b, &i) in missing.iter().enumerate() {
            let bootstrap = masked_max(q_next.row(b), &self.replay.get(i).next_mask);
            self.bootstraps[i] = Some(bootstrap.unwrap_or(0.0));
        }
    }

    /// The scalar reference training step: clones the sampled transitions
    /// and runs one scalar Q-network forward per transition to build the
    /// targets, with the per-sample loop structure and per-element kernels
    /// of the pre-vectorisation implementation — kept as the oracle for
    /// trace-equivalence tests and the baseline the `train_step`
    /// regression bench measures speedups against.
    ///
    /// Draws the same RNG sequence as [`DqnAgent::train_step`], so two
    /// identically seeded agents stepped through the two paths see the
    /// same minibatches. Single-sample forwards accumulate bias-first to
    /// match the batched GEMM ordering.
    pub fn train_step_reference<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<f64> {
        if self.replay.len() < self.config.learning_starts.max(self.config.batch_size) {
            return None;
        }
        let batch: Vec<Transition> = self
            .replay
            .sample(self.config.batch_size, rng)
            .into_iter()
            .cloned()
            .collect();

        let mut target_rows = Vec::with_capacity(batch.len());
        for t in &batch {
            let mut target_vec = self.online.q_values(&t.state);
            let bootstrap = if t.terminal {
                0.0
            } else {
                let q_next = self.target.q_values(&t.next_state);
                masked_max(&q_next, &t.next_mask).unwrap_or(0.0)
            };
            target_vec[t.action] = t.reward + self.config.gamma * bootstrap;
            target_rows.push(target_vec);
        }

        let states: Vec<&Matrix> = batch.iter().map(|t| &t.state).collect();
        let targets = Matrix::from_rows(&target_rows).expect("uniform target widths");
        let loss = self.online.train_batch_reference(
            &states,
            &targets,
            self.config.loss,
            &mut *self.optimizer,
        );

        self.train_steps += 1;
        if self
            .train_steps
            .is_multiple_of(self.config.target_update_interval as u64)
        {
            self.sync_target();
        }
        Some(loss)
    }

    /// Copies the online parameters into the target network (`θ′ = θ`),
    /// forgetting every memoised bootstrap.
    pub fn sync_target(&mut self) {
        self.target.set_params(&self.online.params());
        self.bootstraps.fill(None);
    }

    /// Exports the online parameters (transfer learning, §4.4).
    pub fn export_params(&self) -> Vec<f64> {
        self.online.params()
    }

    /// Imports parameters into both online and target networks —
    /// the fine-tuning initialisation of transfer learning (§4.4) —
    /// forgetting every memoised bootstrap.
    ///
    /// # Panics
    ///
    /// Panics if the length does not match the network.
    pub fn import_params(&mut self, params: &[f64]) {
        self.online.set_params(params);
        self.target.set_params(params);
        self.bootstraps.fill(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DrqnQNetwork, Environment, MlpQNetwork, StepOutcome};
    use drcell_neural::{Adam, Parameterized};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Toy Sparse-MCS-like environment: `m` cells, a hidden "informative"
    /// subset; the cycle completes as soon as every informative cell is
    /// selected. Reward: `R − c` on completion, `−c` otherwise. The optimal
    /// policy selects exactly the informative cells.
    struct SelectInformative {
        m: usize,
        informative: Vec<usize>,
        selected: Vec<bool>,
        steps: usize,
        max_steps: usize,
    }

    impl SelectInformative {
        fn new(m: usize, informative: Vec<usize>) -> Self {
            SelectInformative {
                m,
                informative,
                selected: vec![false; m],
                steps: 0,
                max_steps: 200,
            }
        }
        fn satisfied(&self) -> bool {
            self.informative.iter().all(|&i| self.selected[i])
        }
    }

    impl Environment for SelectInformative {
        fn num_actions(&self) -> usize {
            self.m
        }
        fn state(&self) -> Matrix {
            Matrix::from_rows(&[self
                .selected
                .iter()
                .map(|&b| if b { 1.0 } else { 0.0 })
                .collect()])
            .expect("fixed shape")
        }
        fn action_mask(&self) -> Vec<bool> {
            self.selected.iter().map(|&b| !b).collect()
        }
        fn step(&mut self, action: usize) -> StepOutcome {
            assert!(!self.selected[action], "invalid action replayed");
            self.selected[action] = true;
            self.steps += 1;
            let done_cycle = self.satisfied();
            let reward = if done_cycle {
                self.m as f64 - 1.0
            } else {
                -1.0
            };
            if done_cycle {
                // New cycle: clear selections.
                self.selected = vec![false; self.m];
            }
            StepOutcome {
                reward,
                cycle_done: done_cycle,
                episode_done: self.steps >= self.max_steps,
            }
        }
        fn reset(&mut self) {
            self.selected = vec![false; self.m];
            self.steps = 0;
        }
    }

    fn train_agent<N: QNetwork>(agent: &mut DqnAgent<N>, env: &mut SelectInformative, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schedule = crate::EpsilonSchedule::linear(1.0, 0.05, 600).unwrap();
        let mut step = 0usize;
        for _ in 0..12 {
            env.reset();
            loop {
                let state = env.state();
                let mask = env.action_mask();
                let a = agent
                    .select_action(&state, &mask, schedule.value(step), &mut rng)
                    .unwrap();
                let out = env.step(a);
                let t = Transition::new(
                    state,
                    a,
                    out.reward,
                    env.state(),
                    env.action_mask(),
                    out.episode_done,
                );
                agent.observe(t);
                let _ = agent.train_step(&mut rng);
                step += 1;
                if out.episode_done {
                    break;
                }
            }
        }
    }

    /// After training, the greedy policy should finish a cycle by picking
    /// (mostly) informative cells.
    fn greedy_cycle_length<N: QNetwork>(agent: &DqnAgent<N>, env: &mut SelectInformative) -> usize {
        env.reset();
        let mut rng = StdRng::seed_from_u64(999);
        let mut picks = 0;
        loop {
            let a = agent
                .select_action(&env.state(), &env.action_mask(), 0.0, &mut rng)
                .unwrap();
            let out = env.step(a);
            picks += 1;
            if out.cycle_done || picks > env.m {
                return picks;
            }
        }
    }

    #[test]
    fn dqn_learns_to_pick_informative_cells() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = MlpQNetwork::new(1, 4, &[32], &mut rng).unwrap();
        let mut agent = DqnAgent::new(
            net,
            Box::new(Adam::new(5e-3)),
            DqnConfig {
                batch_size: 16,
                learning_starts: 32,
                target_update_interval: 50,
                gamma: 0.9,
                ..Default::default()
            },
        )
        .unwrap();
        let mut env = SelectInformative::new(4, vec![1, 3]);
        train_agent(&mut agent, &mut env, 17);
        let len = greedy_cycle_length(&agent, &mut env);
        assert!(len <= 3, "greedy policy used {len} picks (optimal 2)");
    }

    #[test]
    fn drqn_learns_to_pick_informative_cells() {
        let mut rng = StdRng::seed_from_u64(6);
        let net = DrqnQNetwork::new(4, 16, &mut rng).unwrap();
        let mut agent = DqnAgent::new(
            net,
            Box::new(Adam::new(5e-3)),
            DqnConfig {
                batch_size: 16,
                learning_starts: 32,
                target_update_interval: 50,
                gamma: 0.9,
                ..Default::default()
            },
        )
        .unwrap();
        let mut env = SelectInformative::new(4, vec![0, 2]);
        train_agent(&mut agent, &mut env, 23);
        let len = greedy_cycle_length(&agent, &mut env);
        assert!(len <= 3, "greedy policy used {len} picks (optimal 2)");
    }

    #[test]
    fn train_step_waits_for_warmup() {
        let mut rng = StdRng::seed_from_u64(7);
        let net = MlpQNetwork::new(1, 2, &[8], &mut rng).unwrap();
        let mut agent = DqnAgent::new(
            net,
            Box::new(Adam::new(1e-3)),
            DqnConfig {
                batch_size: 4,
                learning_starts: 8,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(agent.train_step(&mut rng).is_none());
        for _ in 0..8 {
            agent.observe(Transition::new(
                Matrix::zeros(1, 2),
                0,
                0.0,
                Matrix::zeros(1, 2),
                vec![true, true],
                false,
            ));
        }
        assert!(agent.train_step(&mut rng).is_some());
        assert_eq!(agent.train_steps(), 1);
    }

    #[test]
    fn target_sync_happens_at_interval() {
        let mut rng = StdRng::seed_from_u64(8);
        let net = MlpQNetwork::new(1, 2, &[8], &mut rng).unwrap();
        let mut agent = DqnAgent::new(
            net,
            Box::new(Adam::new(1e-2)),
            DqnConfig {
                batch_size: 2,
                learning_starts: 2,
                target_update_interval: 3,
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..4 {
            agent.observe(Transition::new(
                Matrix::zeros(1, 2),
                i % 2,
                1.0,
                Matrix::zeros(1, 2),
                vec![true, true],
                false,
            ));
        }
        // After two steps online and target diverge.
        agent.train_step(&mut rng);
        agent.train_step(&mut rng);
        assert_ne!(agent.online.params(), agent.target.params());
        // Third step triggers the sync.
        agent.train_step(&mut rng);
        assert_eq!(agent.online.params(), agent.target.params());
    }

    fn prefilled_agent<N: QNetwork>(net: N, cells: usize, k: usize) -> DqnAgent<N> {
        let mut agent = DqnAgent::new(
            net,
            Box::new(Adam::new(1e-3)),
            DqnConfig {
                batch_size: 16,
                learning_starts: 16,
                target_update_interval: 25,
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..96 {
            let mut s = Matrix::zeros(k, cells);
            s[(k - 1, i % cells)] = 1.0;
            let mut s2 = s.clone();
            s2[(k - 1, (i + 1) % cells)] = 1.0;
            let mut mask = vec![true; cells];
            mask[i % cells] = false;
            agent.observe(Transition::new(
                s,
                (i + 1) % cells,
                if i % 5 == 0 { 7.0 } else { -1.0 },
                s2,
                mask,
                i % 11 == 10,
            ));
        }
        agent
    }

    /// The batched `train_step` must reproduce the historical per-sample
    /// path's loss trace and final parameters. For the dense network the
    /// two are bit-identical; ≤1e-9 is asserted.
    #[test]
    fn batched_train_step_reproduces_reference_trace_mlp() {
        let mut rng = StdRng::seed_from_u64(77);
        let net = MlpQNetwork::new(3, 6, &[64, 64], &mut rng).unwrap();
        let mut batched = prefilled_agent(net.clone(), 6, 3);
        let mut reference = prefilled_agent(net, 6, 3);

        let mut rng_b = StdRng::seed_from_u64(123);
        let mut rng_r = StdRng::seed_from_u64(123);
        for step in 0..200 {
            let lb = batched.train_step(&mut rng_b).unwrap();
            let lr = reference.train_step_reference(&mut rng_r).unwrap();
            assert!(
                (lb - lr).abs() <= 1e-9,
                "step {step}: batched {lb} vs reference {lr}"
            );
        }
        for (pb, pr) in batched
            .export_params()
            .iter()
            .zip(reference.export_params())
        {
            assert!((pb - pr).abs() <= 1e-9, "params drifted ({pb} vs {pr})");
        }
    }

    /// Same contract for the recurrent network. The batched LSTM sums
    /// gradients time-major instead of sample-major, so agreement is to
    /// rounding noise rather than bitwise; a short trace stays well inside
    /// 1e-9.
    #[test]
    fn batched_train_step_reproduces_reference_trace_drqn() {
        let mut rng = StdRng::seed_from_u64(78);
        let net = DrqnQNetwork::new(5, 24, &mut rng).unwrap();
        let mut batched = prefilled_agent(net.clone(), 5, 3);
        let mut reference = prefilled_agent(net, 5, 3);

        let mut rng_b = StdRng::seed_from_u64(321);
        let mut rng_r = StdRng::seed_from_u64(321);
        for step in 0..40 {
            let lb = batched.train_step(&mut rng_b).unwrap();
            let lr = reference.train_step_reference(&mut rng_r).unwrap();
            assert!(
                (lb - lr).abs() <= 1e-9,
                "step {step}: batched {lb} vs reference {lr}"
            );
        }
        for (pb, pr) in batched
            .export_params()
            .iter()
            .zip(reference.export_params())
        {
            assert!((pb - pr).abs() <= 1e-9, "params drifted ({pb} vs {pr})");
        }
    }

    /// The memoised bootstraps must reproduce the reference path bit for
    /// bit while the ring wraps (overwritten slots must be re-bootstrapped),
    /// across target syncs, and across a mid-run parameter import.
    #[test]
    fn memoised_bootstraps_reproduce_reference_bitwise() {
        let (cells, k) = (5, 2);
        let mut rng = StdRng::seed_from_u64(90);
        let net = MlpQNetwork::new(k, cells, &[16], &mut rng).unwrap();
        let imported = MlpQNetwork::new(k, cells, &[16], &mut rng)
            .unwrap()
            .params();
        let config = DqnConfig {
            batch_size: 8,
            learning_starts: 8,
            replay_capacity: 40,
            target_update_interval: 7,
            ..Default::default()
        };
        let agent =
            |net: MlpQNetwork| DqnAgent::new(net, Box::new(Adam::new(1e-2)), config).unwrap();
        let mut memo = agent(net.clone());
        let mut reference = agent(net);

        let mut data = StdRng::seed_from_u64(91);
        let mut rng_m = StdRng::seed_from_u64(92);
        let mut rng_r = StdRng::seed_from_u64(92);
        for i in 0..300 {
            let state = Matrix::from_fn(k, cells, |_, _| data.gen::<f64>());
            let next = Matrix::from_fn(k, cells, |_, _| data.gen::<f64>());
            let mut mask: Vec<bool> = (0..cells).map(|_| data.gen_bool(0.6)).collect();
            mask[i % cells] = true;
            let t = Transition::new(
                state,
                data.gen_range(0..cells),
                data.gen::<f64>() - 0.5,
                next,
                mask,
                i % 9 == 4,
            );
            memo.observe(t.clone());
            reference.observe(t);
            if i == 150 {
                memo.import_params(&imported);
                reference.import_params(&imported);
            }
            let lm = memo.train_step(&mut rng_m);
            let lr = reference.train_step_reference(&mut rng_r);
            assert_eq!(
                lm.map(f64::to_bits),
                lr.map(f64::to_bits),
                "step {i}: memoised {lm:?} vs reference {lr:?}"
            );
        }
        assert_eq!(memo.export_params(), reference.export_params());
    }

    #[test]
    fn param_import_export_roundtrip() {
        let mut rng = StdRng::seed_from_u64(9);
        let source = DqnAgent::new(
            DrqnQNetwork::new(3, 4, &mut rng).unwrap(),
            Box::new(Adam::new(1e-3)),
            DqnConfig::default(),
        )
        .unwrap();
        let mut target = DqnAgent::new(
            DrqnQNetwork::new(3, 4, &mut rng).unwrap(),
            Box::new(Adam::new(1e-3)),
            DqnConfig::default(),
        )
        .unwrap();
        assert_ne!(source.export_params(), target.export_params());
        target.import_params(&source.export_params());
        assert_eq!(source.export_params(), target.export_params());
        let s = Matrix::zeros(2, 3);
        assert_eq!(source.q_values(&s), target.q_values(&s));
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut rng = StdRng::seed_from_u64(10);
        let net = MlpQNetwork::new(1, 2, &[4], &mut rng).unwrap();
        let bad = |cfg: DqnConfig| {
            DqnAgent::new(
                net.clone(),
                Box::new(Adam::new(1e-3)) as Box<dyn Optimizer>,
                cfg,
            )
            .is_err()
        };
        assert!(bad(DqnConfig {
            batch_size: 0,
            ..Default::default()
        }));
        assert!(bad(DqnConfig {
            target_update_interval: 0,
            ..Default::default()
        }));
        assert!(bad(DqnConfig {
            gamma: 1.5,
            ..Default::default()
        }));
        assert!(bad(DqnConfig {
            replay_capacity: 0,
            ..Default::default()
        }));
    }
}
