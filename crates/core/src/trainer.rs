use rand::Rng;

use drcell_neural::Adam;
use drcell_rl::{
    DqnAgent, DqnConfig, DrqnQNetwork, Environment, EpsilonSchedule, MlpQNetwork, QNetwork,
    Transition,
};

use crate::{CoreError, McsEnvConfig, McsEnvironment, SensingTask};

/// Hyper-parameters of the offline DR-Cell training stage (paper §5.3:
/// "use the first 2-day data of each dataset to train our Q-function").
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Passes over the training data (episodes).
    pub episodes: usize,
    /// LSTM hidden size for the DRQN.
    pub hidden: usize,
    /// Hidden layer sizes for the dense-DQN ablation.
    pub mlp_hidden: Vec<usize>,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Exploration schedule (δ-greedy, §4.2).
    pub epsilon: EpsilonSchedule,
    /// DQN hyper-parameters (replay, γ, fixed-target cadence).
    pub dqn: DqnConfig,
    /// Environment model (state window k, reward constants, inference).
    pub env: McsEnvConfig,
    /// Gradient steps per environment step.
    pub train_steps_per_env_step: usize,
}

impl Default for TrainerConfig {
    fn default() -> Self {
        TrainerConfig {
            episodes: 10,
            hidden: 48,
            mlp_hidden: vec![64],
            learning_rate: 1e-3,
            epsilon: EpsilonSchedule::Linear {
                start: 1.0,
                end: 0.05,
                steps: 2_000,
            },
            dqn: DqnConfig {
                batch_size: 32,
                learning_starts: 64,
                target_update_interval: 100,
                gamma: 0.95,
                ..Default::default()
            },
            env: McsEnvConfig::default(),
            train_steps_per_env_step: 1,
        }
    }
}

/// Trains DR-Cell Q-functions on a task's training stage.
#[derive(Debug, Clone)]
pub struct DrCellTrainer {
    config: TrainerConfig,
}

impl DrCellTrainer {
    /// Creates a trainer.
    pub fn new(config: TrainerConfig) -> Self {
        DrCellTrainer { config }
    }

    /// Borrows the configuration.
    pub fn config(&self) -> &TrainerConfig {
        &self.config
    }

    /// Trains the paper's DRQN agent (LSTM Q-network).
    ///
    /// # Errors
    ///
    /// Propagates environment and network construction failures.
    pub fn train_drqn<R: Rng + ?Sized>(
        &self,
        task: &SensingTask,
        rng: &mut R,
    ) -> Result<DqnAgent<DrqnQNetwork>, CoreError> {
        let net = DrqnQNetwork::new(task.cells(), self.config.hidden, rng)?;
        let agent = DqnAgent::new(
            net,
            Box::new(Adam::new(self.config.learning_rate)),
            self.config.dqn,
        )?;
        self.train_agent(task, agent, rng)
    }

    /// Trains the dense-DQN ablation agent.
    ///
    /// # Errors
    ///
    /// Propagates environment and network construction failures.
    pub fn train_dqn<R: Rng + ?Sized>(
        &self,
        task: &SensingTask,
        rng: &mut R,
    ) -> Result<DqnAgent<MlpQNetwork>, CoreError> {
        let net = MlpQNetwork::new(
            self.config.env.history_k,
            task.cells(),
            &self.config.mlp_hidden,
            rng,
        )?;
        let agent = DqnAgent::new(
            net,
            Box::new(Adam::new(self.config.learning_rate)),
            self.config.dqn,
        )?;
        self.train_agent(task, agent, rng)
    }

    /// Continues training an existing agent on (possibly different) task
    /// data — the fine-tuning step of transfer learning (§4.4).
    ///
    /// # Errors
    ///
    /// Propagates environment construction failures.
    pub fn train_agent<N: QNetwork, R: Rng + ?Sized>(
        &self,
        task: &SensingTask,
        mut agent: DqnAgent<N>,
        rng: &mut R,
    ) -> Result<DqnAgent<N>, CoreError> {
        let mut env = McsEnvironment::new(task, self.config.env.clone())?;
        let mut global_step = 0usize;
        for _ in 0..self.config.episodes {
            env.reset();
            // Carry the state across iterations: the environment builds its
            // k × m history matrix once per step instead of twice.
            let mut state = env.state();
            loop {
                let mask = env.action_mask();
                let eps = self.config.epsilon.value(global_step);
                let action = agent.select_action(&state, &mask, eps, rng)?;
                let outcome = env.step(action);
                let next_state = env.state();
                let transition = Transition::new(
                    state,
                    action,
                    outcome.reward,
                    next_state.clone(),
                    env.action_mask(),
                    outcome.episode_done,
                );
                state = next_state;
                agent.observe(transition);
                for _ in 0..self.config.train_steps_per_env_step {
                    let _ = agent.train_step(rng);
                }
                global_step += 1;
                if outcome.episode_done {
                    break;
                }
            }
        }
        Ok(agent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drcell_datasets::{CellGrid, DataMatrix};
    use drcell_quality::{ErrorMetric, QualityRequirement};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_task() -> SensingTask {
        let truth = DataMatrix::from_fn(5, 10, |i, t| {
            2.0 + (i as f64 * 0.5).sin() * 0.2 + t as f64 * 0.01
        });
        SensingTask::new(
            "tiny",
            truth,
            CellGrid::full_grid(1, 5, 10.0, 10.0),
            ErrorMetric::MeanAbsolute,
            QualityRequirement::new(0.15, 0.9).unwrap(),
            6,
        )
        .unwrap()
    }

    fn fast_config() -> TrainerConfig {
        TrainerConfig {
            episodes: 3,
            hidden: 8,
            mlp_hidden: vec![16],
            epsilon: EpsilonSchedule::Linear {
                start: 1.0,
                end: 0.1,
                steps: 60,
            },
            dqn: DqnConfig {
                batch_size: 8,
                learning_starts: 8,
                target_update_interval: 20,
                ..Default::default()
            },
            env: McsEnvConfig {
                history_k: 2,
                window: 4,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn drqn_training_runs_and_learns_something() {
        let task = tiny_task();
        let mut rng = StdRng::seed_from_u64(0);
        let agent = DrCellTrainer::new(fast_config())
            .train_drqn(&task, &mut rng)
            .unwrap();
        assert!(agent.train_steps() > 0, "no gradient steps happened");
        assert!(agent.replay_len() > 0);
        assert_eq!(agent.num_actions(), 5);
    }

    #[test]
    fn dqn_training_runs() {
        let task = tiny_task();
        let mut rng = StdRng::seed_from_u64(1);
        let agent = DrCellTrainer::new(fast_config())
            .train_dqn(&task, &mut rng)
            .unwrap();
        assert!(agent.train_steps() > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let task = tiny_task();
        let a = DrCellTrainer::new(fast_config())
            .train_drqn(&task, &mut StdRng::seed_from_u64(3))
            .unwrap();
        let b = DrCellTrainer::new(fast_config())
            .train_drqn(&task, &mut StdRng::seed_from_u64(3))
            .unwrap();
        assert_eq!(a.export_params(), b.export_params());
    }

    #[test]
    fn fine_tuning_continues_from_imported_params() {
        let task = tiny_task();
        let mut rng = StdRng::seed_from_u64(4);
        let trainer = DrCellTrainer::new(fast_config());
        let source = trainer.train_drqn(&task, &mut rng).unwrap();
        let source_params = source.export_params();

        // Fresh agent, import source params, continue training: parameters
        // should move but training must run without errors.
        let mut fresh = DqnAgent::new(
            DrqnQNetwork::new(task.cells(), 8, &mut rng).unwrap(),
            Box::new(Adam::new(1e-3)),
            trainer.config().dqn,
        )
        .unwrap();
        fresh.import_params(&source_params);
        let tuned = trainer.train_agent(&task, fresh, &mut rng).unwrap();
        assert_ne!(tuned.export_params(), source_params);
    }
}
