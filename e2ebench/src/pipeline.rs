//! One scenario, three ways: the library's cold path, the same pipeline
//! assembled from its public layers with a span around each call, and a
//! replay of the finished rows through the assessment and completion
//! layers. Plus the checks that tie the three together.

use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::{Duration, Instant};

use drcell_core::{
    CellSelectionPolicy, DrCellPolicy, DrCellTrainer, McsEnvConfig, RunReport, SensingTask,
    SparseMcsRunner, TrainerConfig,
};
use drcell_inference::{
    AssessmentBackend, BatchedLooEngine, CompressiveSensing, EngineStats, InferenceAlgorithm,
    ObservedMatrix,
};
use drcell_neural::Adam;
use drcell_quality::QualityAssessor;
use drcell_rl::{DqnAgent, DrqnQNetwork};
use drcell_scenario::json::parse_json;
use drcell_scenario::sink::{row_json, RowContext};
use drcell_scenario::{
    run_scenario_streaming, stream_seed, streams, DatasetSpec, NetworkKind, PolicySpec,
    ScenarioSpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::timed::{TimedNet, TimedPolicy};
use crate::trace::Tracer;

/// The rows of one scenario and when they came out.
#[derive(Debug, Clone)]
pub struct ColdRun {
    /// JSONL rows, exactly as the daemon would stream them.
    pub rows: Vec<String>,
    /// Start to first row.
    pub first_row: Duration,
    /// Start to last row.
    pub wall: Duration,
}

/// Runs `spec` through the library's streaming entry point, serialising
/// each row as it is produced — the daemon's cold path without the socket.
///
/// # Errors
///
/// Any scenario failure, as text.
pub fn run_cold(spec: &ScenarioSpec, index: usize) -> Result<ColdRun, String> {
    let policy = spec.policy.label();
    let ctx = RowContext {
        scenario: &spec.name,
        index,
        policy: &policy,
        task: spec.dataset.signal(),
    };
    let start = Instant::now();
    let mut first_row = None;
    let mut rows = Vec::new();
    run_scenario_streaming(spec, index, &mut |record| {
        first_row.get_or_insert_with(|| start.elapsed());
        rows.push(row_json(ctx, record));
        ControlFlow::Continue(())
    })
    .map_err(|e| format!("{}: {e}", spec.name))?;
    let wall = start.elapsed();
    Ok(ColdRun {
        rows,
        first_row: first_row.unwrap_or(wall),
        wall,
    })
}

/// A traced scenario's outputs, kept for the replay.
#[derive(Debug)]
pub struct TracedRun {
    /// Rows and timings.
    pub run: ColdRun,
    /// The materialised task.
    pub task: SensingTask,
    /// The testing-stage report.
    pub report: RunReport,
}

/// Runs `spec` through the same layers `run_scenario_streaming` calls,
/// with a span around each: `datasets.materialise` (`build_task`),
/// `train.total` (policy build; DR-Cell trains through a [`TimedNet`]),
/// `eval.total` (`run_with_control` with a [`TimedPolicy`]) and
/// `sink.row_json`. All spans nest under one `scenario` span.
///
/// # Errors
///
/// Any scenario failure, as text.
pub fn run_traced(
    spec: &ScenarioSpec,
    index: usize,
    tracer: &Arc<Tracer>,
) -> Result<TracedRun, String> {
    let fail = |e: &dyn std::fmt::Display| format!("{}: {e}", spec.name);
    let policy_label = spec.policy.label();
    let ctx = RowContext {
        scenario: &spec.name,
        index,
        policy: &policy_label,
        task: spec.dataset.signal(),
    };
    let start = Instant::now();
    let _scenario = tracer.span("scenario");
    let task = {
        let _span = tracer.span("datasets.materialise");
        spec.build_task().map_err(|e| fail(&e))?
    };
    let policy = {
        let _span = tracer.span("train.total");
        build_policy(spec, &task, tracer)?
    };
    let runner = SparseMcsRunner::new(&task, spec.runner.config()).map_err(|e| fail(&e))?;
    let mut rng = StdRng::seed_from_u64(stream_seed(spec.seed, streams::EVAL));
    let mut policy = TimedPolicy::new(policy, Arc::clone(tracer));
    let mut first_row = None;
    let mut rows = Vec::new();
    let report = {
        let _span = tracer.span("eval.total");
        runner
            .run_with_control(&mut policy, &mut rng, &mut |record| {
                first_row.get_or_insert_with(|| start.elapsed());
                let _span = tracer.span("sink.row_json");
                rows.push(row_json(ctx, record));
                ControlFlow::Continue(())
            })
            .map_err(|e| fail(&e))?
    };
    let wall = start.elapsed();
    Ok(TracedRun {
        run: ColdRun {
            rows,
            first_row: first_row.unwrap_or(wall),
            wall,
        },
        task,
        report,
    })
}

/// `PolicySpec::build`, with a DR-Cell DRQN's Q-network wrapped in a
/// [`TimedNet`] and trained through `DrCellTrainer::train_agent`. The
/// trainer configuration and the seeded stream match the library's, which
/// the byte comparison of traced and untraced rows verifies. Other
/// policies are built by the library as they are.
fn build_policy(
    spec: &ScenarioSpec,
    task: &SensingTask,
    tracer: &Arc<Tracer>,
) -> Result<Box<dyn CellSelectionPolicy>, String> {
    let fail = |e: &dyn std::fmt::Display| format!("{}: {e}", spec.name);
    let PolicySpec::DrCell {
        episodes,
        hidden,
        history_k,
        network: NetworkKind::Drqn,
        reward_bonus,
        cost,
    } = spec.policy
    else {
        return spec.build_policy(task).map_err(|e| fail(&e));
    };
    let mut rng = StdRng::seed_from_u64(stream_seed(spec.seed, streams::TRAIN));
    let trainer = DrCellTrainer::new(TrainerConfig {
        episodes,
        hidden,
        env: McsEnvConfig {
            history_k,
            reward_bonus,
            cost,
            window: spec.runner.window,
            inner_threads: spec.runner.inner_threads.unwrap_or(0),
            ..McsEnvConfig::default()
        },
        ..TrainerConfig::default()
    });
    let config = trainer.config();
    let net = DrqnQNetwork::new(task.cells(), hidden, &mut rng).map_err(|e| fail(&e))?;
    let agent = DqnAgent::new(
        TimedNet::new(net, Arc::clone(tracer)),
        Box::new(Adam::new(config.learning_rate)),
        config.dqn,
    )
    .map_err(|e| fail(&e))?;
    let agent = trainer
        .train_agent(task, agent, &mut rng)
        .map_err(|e| fail(&e))?;
    Ok(Box::new(DrCellPolicy::new(agent, history_k)))
}

/// What a replay did: call counts of the replayed layers, the LOO engine's
/// counters, and the rows it could not reproduce.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Replay {
    /// `assess_with` calls.
    pub assess_calls: usize,
    /// `complete` calls.
    pub complete_calls: usize,
    /// The bench-owned engine's counters after the replay.
    pub loo: EngineStats,
    /// Rows whose probability, true error or stopping point differed.
    pub mismatched_rows: usize,
}

/// The trailing observation window ending at `cycle` (the runner's
/// private helper, rebuilt from public calls).
fn trailing_window(obs: &ObservedMatrix, cycle: usize, window: usize) -> (ObservedMatrix, usize) {
    let w = window.min(cycle + 1);
    let from = cycle + 1 - w;
    let mut win = ObservedMatrix::new(obs.cells(), w);
    for i in 0..obs.cells() {
        for t in 0..w {
            if let Some(v) = obs.get(i, from + t) {
                win.observe(i, t, v);
            }
        }
    }
    (win, w - 1)
}

/// Replays `report`'s selections through `QualityAssessor::assess_with`
/// with a fresh `BatchedLooEngine` (spans `eval.assess`) and the final
/// `CompressiveSensing::complete` (spans `eval.complete`), in the order
/// the runner made those calls, and checks that every row's estimated
/// probability and true error come out bit for bit.
///
/// # Errors
///
/// Configuration or numerical failures, as text.
pub fn replay(
    spec: &ScenarioSpec,
    task: &SensingTask,
    report: &RunReport,
    tracer: &Tracer,
) -> Result<Replay, String> {
    let config = spec.runner.config();
    if config.assessment_backend != AssessmentBackend::Batched {
        return Err(format!(
            "{}: replay needs the batched LOO backend",
            spec.name
        ));
    }
    let mut engine = BatchedLooEngine::new(config.assessment_inference.clone())
        .map_err(|e| e.to_string())?
        .with_threads(config.inner_threads);
    let final_cs = CompressiveSensing::new(config.inference.clone())
        .map_err(|e| e.to_string())?
        .with_threads(config.inner_threads);
    let assessor = QualityAssessor::new(task.requirement(), task.metric());
    let truth = task.truth();
    let m = truth.cells();
    let min = config.min_selections_per_cycle;
    let cap = config.max_selections_per_cycle.unwrap_or(m).min(m).max(min);

    let mut obs = ObservedMatrix::new(m, truth.cycles());
    for i in 0..m {
        for t in 0..task.train_cycles() {
            obs.observe(i, t, truth.value(i, t));
        }
    }
    let mut out = Replay::default();
    for record in &report.cycles {
        let cycle = record.cycle;
        // (probability, position) of the assessment that stopped sensing.
        let mut stop: Option<(f64, usize)> = None;
        for (k, &cell) in record.selected.iter().enumerate() {
            obs.observe(cell, cycle, truth.value(cell, cycle));
            let n = k + 1;
            let forced = n >= m || n >= cap;
            if !forced && (n < min || !(n - min).is_multiple_of(config.assess_every)) {
                continue;
            }
            let (win, wc) = trailing_window(&obs, cycle, config.window);
            let assessment = {
                let _span = tracer.span("eval.assess");
                assessor
                    .assess_with(&win, wc, &mut engine)
                    .map_err(|e| e.to_string())?
            };
            out.assess_calls += 1;
            if forced || assessment.satisfied {
                stop = Some((assessment.probability, n));
                break;
            }
        }
        let (win, wc) = trailing_window(&obs, cycle, config.window);
        let completed = {
            let _span = tracer.span("eval.complete");
            final_cs.complete(&win).map_err(|e| e.to_string())?
        };
        out.complete_calls += 1;
        let inferred: Vec<f64> = (0..m).map(|i| completed.value(i, wc)).collect();
        let true_error = task
            .metric()
            .cycle_error(
                &truth.cycle_snapshot(cycle),
                &inferred,
                &obs.unobserved_cells_at(cycle),
            )
            .map_err(|e| e.to_string())?;
        let reproduced = stop.is_some_and(|(p, n)| {
            p.to_bits() == record.estimated_probability.to_bits() && n == record.selected.len()
        }) && true_error.to_bits() == record.true_error.to_bits();
        if !reproduced {
            out.mismatched_rows += 1;
        }
    }
    out.loo = engine.stats();
    Ok(out)
}

/// Cells the spec's dataset spans.
fn spec_cells(spec: &ScenarioSpec) -> usize {
    match spec.dataset {
        DatasetSpec::SensorScopeTemperature { cells, .. }
        | DatasetSpec::SensorScopeHumidity { cells, .. } => cells,
        DatasetSpec::UAirPm25 {
            grid_rows,
            grid_cols,
            ..
        }
        | DatasetSpec::Synthetic {
            grid_rows,
            grid_cols,
            ..
        } => grid_rows * grid_cols,
    }
}

fn spec_cycles(spec: &ScenarioSpec) -> usize {
    match spec.dataset {
        DatasetSpec::SensorScopeTemperature { cycles, .. }
        | DatasetSpec::SensorScopeHumidity { cycles, .. }
        | DatasetSpec::UAirPm25 { cycles, .. }
        | DatasetSpec::Synthetic { cycles, .. } => cycles,
    }
}

/// Cell and cycle totals of a checked row stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RowTotals {
    /// Rows (testing cycles).
    pub cycles: usize,
    /// Cells sensed over all rows.
    pub cells: usize,
    /// Rows whose true error was within ε.
    pub within: usize,
}

impl RowTotals {
    /// Adds another stream's totals.
    pub fn add(&mut self, other: RowTotals) {
        self.cycles += other.cycles;
        self.cells += other.cells;
        self.within += other.within;
    }
}

/// Checks that `rows` are a complete, well-formed result stream of `spec`
/// at matrix index `index`: one row per testing cycle in order, labelled
/// with the spec, each selecting distinct in-range cells, with a
/// probability in [0, 1] and `within_epsilon` agreeing with the true error.
///
/// # Errors
///
/// The first violation, as text.
pub fn check_rows(spec: &ScenarioSpec, index: usize, rows: &[String]) -> Result<RowTotals, String> {
    let cells = spec_cells(spec);
    let first = spec.train_cycles;
    let expected = spec_cycles(spec).saturating_sub(first);
    if rows.len() != expected {
        return Err(format!(
            "{}: {} rows, expected {expected}",
            spec.name,
            rows.len()
        ));
    }
    let label = spec.policy.label();
    let mut totals = RowTotals::default();
    for (k, row) in rows.iter().enumerate() {
        let bad = |what: &str| format!("{} row {k}: {what}: {row}", spec.name);
        let v = parse_json(row).map_err(|e| bad(&e.to_string()))?;
        let str_is = |key: &str, want: &str| v.get(key).and_then(|x| x.as_str()) == Some(want);
        if !str_is("scenario", &spec.name)
            || !str_is("policy", &label)
            || !str_is("task", spec.dataset.signal())
            || v.get("scenario_index").and_then(|x| x.as_u64()) != Some(index as u64)
            || v.get("cycle").and_then(|x| x.as_u64()) != Some((first + k) as u64)
        {
            return Err(bad("labels"));
        }
        let selected: Vec<u64> = v
            .get("selected")
            .and_then(|x| x.as_seq())
            .ok_or_else(|| bad("selected"))?
            .iter()
            .map(|c| c.as_u64().filter(|&c| (c as usize) < cells))
            .collect::<Option<_>>()
            .ok_or_else(|| bad("selected cell"))?;
        let mut distinct = selected.clone();
        distinct.sort_unstable();
        distinct.dedup();
        if selected.len() < 2.min(cells) || distinct.len() != selected.len() {
            return Err(bad("selection"));
        }
        let prob = v.get("estimated_probability").and_then(|x| x.as_f64());
        if !prob.is_some_and(|p| (0.0..=1.0).contains(&p)) {
            return Err(bad("estimated_probability"));
        }
        let error = v
            .get("true_error")
            .and_then(|x| x.as_f64())
            .ok_or_else(|| bad("true_error"))?;
        let within = v.get("within_epsilon").and_then(|x| x.as_bool());
        if within != Some(error <= spec.quality.epsilon) {
            return Err(bad("within_epsilon"));
        }
        totals.cycles += 1;
        totals.cells += selected.len();
        totals.within += usize::from(error <= spec.quality.epsilon);
    }
    Ok(totals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn traced_rows_and_replay_match_the_library() {
        let spec = gen::serve_spec("unit", 42);
        let cold = run_cold(&spec, 0).unwrap();
        let totals = check_rows(&spec, 0, &cold.rows).unwrap();
        assert_eq!(totals.cycles, 8);
        let tracer = Arc::new(Tracer::new());
        let traced = run_traced(&spec, 0, &tracer).unwrap();
        assert_eq!(traced.run.rows, cold.rows);
        let replay = replay(&spec, &traced.task, &traced.report, &tracer).unwrap();
        assert_eq!(replay.mismatched_rows, 0);
        assert_eq!(replay.complete_calls, 8);
        assert!(replay.assess_calls >= 8);
        let layers = tracer.layers();
        assert_eq!(layers["eval.assess"].calls as usize, replay.assess_calls);
        assert_eq!(layers["sink.row_json"].calls, 8);
    }

    #[test]
    fn check_rows_rejects_a_tampered_stream() {
        let spec = gen::serve_spec("unit", 43);
        let mut rows = run_cold(&spec, 0).unwrap().rows;
        assert!(check_rows(&spec, 1, &rows).is_err(), "wrong index");
        rows.pop();
        assert!(check_rows(&spec, 0, &rows).is_err(), "missing row");
    }
}
