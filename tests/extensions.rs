//! Integration tests of the future-work extensions: online learning through
//! the real runner, heterogeneous costs, and checkpointing.

use drcell::core::{
    CostModel, OnlineDrCellConfig, OnlineDrCellPolicy, RunnerConfig, SensingTask, SparseMcsRunner,
};
use drcell::datasets::{CellGrid, DataMatrix};
use drcell::neural::{persist, Adam, Parameterized};
use drcell::quality::{ErrorMetric, QualityRequirement};
use drcell::rl::{DqnAgent, DqnConfig, DrqnQNetwork};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_task() -> SensingTask {
    let truth = DataMatrix::from_fn(8, 28, |i, t| {
        3.0 + (i as f64 * 0.5).sin() * 0.2 + (t as f64 * 0.4).cos() * 0.05
    });
    SensingTask::new(
        "ext",
        truth,
        CellGrid::full_grid(2, 4, 10.0, 10.0),
        ErrorMetric::MeanAbsolute,
        QualityRequirement::new(0.3, 0.9).unwrap(),
        4,
    )
    .unwrap()
}

fn fresh_agent(cells: usize, seed: u64) -> DqnAgent<DrqnQNetwork> {
    let mut rng = StdRng::seed_from_u64(seed);
    DqnAgent::new(
        DrqnQNetwork::new(cells, 8, &mut rng).unwrap(),
        Box::new(Adam::new(1e-3)),
        DqnConfig {
            batch_size: 8,
            learning_starts: 16,
            target_update_interval: 20,
            ..Default::default()
        },
    )
    .unwrap()
}

#[test]
fn online_policy_runs_and_accumulates_experience() {
    let task = small_task();
    let runner = SparseMcsRunner::new(
        &task,
        RunnerConfig {
            window: 6,
            ..Default::default()
        },
    )
    .unwrap();
    let mut policy = OnlineDrCellPolicy::new(
        fresh_agent(task.cells(), 1),
        OnlineDrCellConfig {
            history_k: 3,
            ..OnlineDrCellConfig::for_task(task.cells(), task.requirement().p)
        },
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    let report = runner.run(&mut policy, &mut rng).unwrap();
    assert_eq!(report.cycles.len(), task.test_cycles());
    // Every selection became replay experience via on_cycle_end.
    assert_eq!(policy.agent().replay_len(), report.total_selections());
    assert_eq!(policy.selections_made(), report.total_selections());
    // With >16 experiences some training must have happened.
    assert!(policy.agent().train_steps() > 0);
}

#[test]
fn online_policy_checkpoint_roundtrip_after_run() {
    let task = small_task();
    let runner = SparseMcsRunner::new(
        &task,
        RunnerConfig {
            window: 6,
            ..Default::default()
        },
    )
    .unwrap();
    let mut policy = OnlineDrCellPolicy::new(
        fresh_agent(task.cells(), 3),
        OnlineDrCellConfig::for_task(task.cells(), 0.9),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    let _ = runner.run(&mut policy, &mut rng).unwrap();

    // Persist the improved network and restore it into a fresh agent.
    let checkpoint = persist::to_text(policy.agent().network());
    let mut restored = fresh_agent(task.cells(), 5);
    let mut net = restored.network().clone();
    persist::from_text(&mut net, &checkpoint).unwrap();
    restored.import_params(&net.params());
    assert_eq!(
        restored.export_params(),
        policy.agent().export_params(),
        "restored agent must match the trained one"
    );
}

#[test]
fn cost_model_prices_a_real_run() {
    let task = small_task();
    let runner = SparseMcsRunner::new(
        &task,
        RunnerConfig {
            window: 6,
            ..Default::default()
        },
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(6);
    let report = runner
        .run(&mut drcell::core::RandomPolicy::new(), &mut rng)
        .unwrap();
    let uniform = CostModel::uniform(task.cells(), 1.0).unwrap();
    assert_eq!(
        uniform.price_report(&report).unwrap(),
        report.total_selections() as f64
    );
    let double = CostModel::uniform(task.cells(), 2.0).unwrap();
    assert_eq!(
        double.price_report(&report).unwrap(),
        2.0 * report.total_selections() as f64
    );
}
