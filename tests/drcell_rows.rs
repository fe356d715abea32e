//! Pins a trained DR-Cell policy's row stream to literals: the registry's
//! `synthetic-smooth` scenario trains a DRQN, runs the testing stage and
//! must emit exactly the JSONL rows (by SHA-256) and the cache key that
//! the reproduction has always produced for it.
//!
//! The CI test matrix runs this under both compute backends (detected and
//! `DRCELL_BACKEND=scalar`), so the same literals also pin invariant 8 on
//! the learner path: training, greedy selection, the LOO assessment and
//! the ALS completion.
//!
//! A second pin covers the paper-scale matrix shape — 57 cells, a 12-cycle
//! window of fully sensed history — where most ALS rows and columns share
//! an observation pattern, so the pattern-shared normal-equation solves
//! carry most of the work. Two more pin DR-Cell itself at that shape,
//! once with the DRQN and once with the dense Q-network. Their training
//! runs across target-network syncs, so they also pin the memoised replay
//! bootstraps to the rows that recomputing every bootstrap gave. A fifth
//! trains the DRQN at hidden 16 over two episodes, so its minibatches mix
//! histories that share past-cycle rows with ones that do not; it pins
//! the prefix-shared LSTM forward to the rows the unshared one gave.

use drcell::datasets::PerturbationStack;
use drcell::scenario::{
    registry, sink, DatasetSpec, NetworkKind, PolicySpec, QualitySpec, RunnerSpec, ScenarioSpec,
    SweepEngine,
};
use drcell::store::{scenario_key, sha256::Sha256};

/// SHA-256 of `drcell-scenario run --name synthetic-smooth --jsonl`.
const ROWS_SHA256: &str = "f3c9949f8d7eb81db337bfccd2fa5e801dbc252d8441a49984bb3af1e43c141c";

/// `scenario_key(synthetic-smooth, 0)`: the result-cache key a daemon
/// files these rows under.
const CACHE_KEY: &str = "7b3b2b1dfd416c4165928b78fec467ddd488da67299b587a4c8d7bc4b353c56d";

/// SHA-256 of [`paper_scale_random`]'s JSONL rows.
const PAPER_SCALE_ROWS_SHA256: &str =
    "5bd8c93ee3a8155c4eef3aab37e84647975109dca99c081d40bbbc0a6b92f01d";

/// SHA-256 of [`paper_scale_drcell`]`(NetworkKind::Drqn)`'s JSONL rows.
const PAPER_SCALE_DRQN_ROWS_SHA256: &str =
    "82a198d768b444309e881575cd1e14a06430c3dc05925d1e39d5be2f09ab1877";

/// SHA-256 of [`paper_scale_drcell`]`(NetworkKind::Dense)`'s JSONL rows.
const PAPER_SCALE_DENSE_ROWS_SHA256: &str =
    "4a8fa309cb8cbc7b3c461b10722830342dd36fb34e2546315932faefb770a987";

/// SHA-256 of [`multi_episode_drqn`]'s JSONL rows.
const MULTI_EPISODE_DRQN_ROWS_SHA256: &str =
    "614c2f47e3706191675c6d66bdec5e2e2c25f1e70fb1ed261097c5ff3f3019e7";

/// Runs `spec` on one worker and returns its JSONL rows.
fn rows_of(spec: &ScenarioSpec) -> Vec<u8> {
    let results = SweepEngine::new(1).run(std::slice::from_ref(spec));
    let result = results[0].as_ref().expect("scenario runs");
    let mut rows = Vec::new();
    sink::write_jsonl(&mut rows, &[result]).expect("in-memory write cannot fail");
    assert_eq!(
        rows.iter().filter(|&&b| b == b'\n').count(),
        result.report.cycles.len(),
        "one row per test cycle"
    );
    rows
}

#[test]
fn synthetic_smooth_drcell_rows_and_cache_key_are_pinned() {
    let spec = registry::find("synthetic-smooth").expect("registry scenario");
    assert_eq!(scenario_key(&spec, 0), CACHE_KEY, "cache key moved");
    assert_eq!(
        Sha256::hex_digest(&rows_of(&spec)),
        ROWS_SHA256,
        "DR-Cell rows moved"
    );
}

/// RANDOM on the paper's SensorScope temperature task (57 of 100 grid
/// positions, ε = 0.3, p = 0.9, window 12) with two test cycles after 12
/// history cycles, which keeps the debug test within a few seconds.
fn paper_scale_random() -> ScenarioSpec {
    ScenarioSpec {
        name: "paper57-random".to_owned(),
        seed: 57,
        dataset: DatasetSpec::SensorScopeTemperature {
            cells: 57,
            grid_rows: 10,
            grid_cols: 10,
            cycles: 14,
        },
        perturbations: PerturbationStack::none(),
        policy: PolicySpec::Random,
        quality: QualitySpec {
            epsilon: 0.3,
            p: 0.9,
        },
        runner: RunnerSpec {
            window: 12,
            ..RunnerSpec::default()
        },
        train_cycles: 12,
    }
}

#[test]
fn paper_scale_random_rows_are_pinned() {
    assert_eq!(
        Sha256::hex_digest(&rows_of(&paper_scale_random())),
        PAPER_SCALE_ROWS_SHA256,
        "paper-scale rows moved"
    );
}

/// DR-Cell on the same 57-cell task, trained for one episode over 8
/// cycles and tested on 2, which keeps the debug test within a few
/// seconds.
fn paper_scale_drcell(network: NetworkKind) -> ScenarioSpec {
    ScenarioSpec {
        name: "paper57-drcell".to_owned(),
        seed: 57,
        dataset: DatasetSpec::SensorScopeTemperature {
            cells: 57,
            grid_rows: 10,
            grid_cols: 10,
            cycles: 10,
        },
        perturbations: PerturbationStack::none(),
        policy: PolicySpec::DrCell {
            episodes: 1,
            hidden: 8,
            history_k: 3,
            network,
            reward_bonus: None,
            cost: 1.0,
        },
        quality: QualitySpec {
            epsilon: 0.3,
            p: 0.9,
        },
        runner: RunnerSpec {
            window: 8,
            ..RunnerSpec::default()
        },
        train_cycles: 8,
    }
}

#[test]
fn paper_scale_drqn_rows_are_pinned() {
    assert_eq!(
        Sha256::hex_digest(&rows_of(&paper_scale_drcell(NetworkKind::Drqn))),
        PAPER_SCALE_DRQN_ROWS_SHA256,
        "paper-scale DRQN rows moved"
    );
}

#[test]
fn paper_scale_dense_rows_are_pinned() {
    assert_eq!(
        Sha256::hex_digest(&rows_of(&paper_scale_drcell(NetworkKind::Dense))),
        PAPER_SCALE_DENSE_ROWS_SHA256,
        "paper-scale dense DR-Cell rows moved"
    );
}

/// The DRQN at hidden 16 (the end-to-end benchmark's width), trained for
/// two episodes over 4 cycles and tested on 2. Its replay holds transitions
/// from many cycles, so training minibatches mix histories that share
/// their past-cycle rows with ones that do not.
fn multi_episode_drqn() -> ScenarioSpec {
    let mut spec = paper_scale_drcell(NetworkKind::Drqn);
    spec.name = "paper57-drqn-h16".to_owned();
    spec.dataset = DatasetSpec::SensorScopeTemperature {
        cells: 57,
        grid_rows: 10,
        grid_cols: 10,
        cycles: 6,
    };
    spec.policy = PolicySpec::DrCell {
        episodes: 2,
        hidden: 16,
        history_k: 3,
        network: NetworkKind::Drqn,
        reward_bonus: None,
        cost: 1.0,
    };
    spec.runner.window = 4;
    spec.train_cycles = 4;
    spec
}

#[test]
fn multi_episode_drqn_rows_are_pinned() {
    assert_eq!(
        Sha256::hex_digest(&rows_of(&multi_episode_drqn())),
        MULTI_EPISODE_DRQN_ROWS_SHA256,
        "two-episode DRQN rows moved"
    );
}
