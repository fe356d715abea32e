//! The in-process workloads (`paper57-drcell`, `sweep-training-free`) and
//! the pieces every workload shares: set-up, cache replays and the
//! per-layer figures read off a trace.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use drcell_inference::EngineStats;
use drcell_scenario::sink::{row_json, RowContext};
use drcell_scenario::{ScenarioSpec, SweepEngine};
use drcell_store::{scenario_key, ResultCache};

use crate::gen;
use crate::pipeline::{self, check_rows, run_cold, run_traced, Replay, RowTotals, TracedRun};
use crate::report::{JobLog, Metrics, Tally};
use crate::stats::{median, Summary};
use crate::trace::{self, Tracer};

/// A run repeats its set-up between measured batches (between scenarios
/// on `paper57-drcell`), outside the measured time, once this long has
/// passed since the last one. The host's speed drifts over seconds, so
/// set-ups spread over the run give a steadier median than set-ups back to
/// back.
pub const SETUP_EVERY: Duration = Duration::from_secs(2);
/// Outer threads of the sweep, as many as the two cores the benchmark
/// is sized for.
pub const SWEEP_THREADS: usize = 2;
/// Result-cache memory of the in-process workloads: every stream fits.
const CACHE_MEM: usize = 64 << 20;

/// The run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Output {
    /// Attempts and failures.
    pub tally: Tally,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Timing distributions, one line each, for the log.
    pub notes: Vec<String>,
    /// The traced run's spans.
    pub tracer: Option<Arc<Tracer>>,
}

/// Generates the inputs and runs the warm-up scenarios, returning the
/// inputs and the set-up's wall time in seconds.
pub fn set_up<T>(tally: &mut Tally, make: impl Fn() -> T) -> (T, f64) {
    let start = Instant::now();
    let inputs = make();
    for warmup in gen::warmup_specs() {
        tally.attempted += 1;
        match run_cold(&warmup, 0) {
            Ok(run) => {
                if let Err(e) = check_rows(&warmup, 0, &run.rows) {
                    tally.fail(e);
                }
            }
            Err(e) => tally.fail(e),
        }
    }
    (inputs, start.elapsed().as_secs_f64())
}

/// The set-up times of a run and when the last set-up ended.
#[derive(Debug)]
pub struct SetUps {
    /// Wall time of each set-up, seconds.
    pub times: Vec<f64>,
    last: Instant,
}

impl SetUps {
    /// Starts with the set-up that made the run's inputs.
    pub fn new(first_s: f64) -> SetUps {
        SetUps {
            times: vec![first_s],
            last: Instant::now(),
        }
    }

    /// Repeats the set-up with `again`, which returns its set-up time, if
    /// [`SETUP_EVERY`] has passed since the last one. Returns the seconds
    /// spent here, for the caller to leave out of its measured time.
    pub fn between(&mut self, again: impl FnOnce() -> f64) -> f64 {
        if self.last.elapsed() < SETUP_EVERY {
            return 0.0;
        }
        let start = Instant::now();
        self.times.push(again());
        self.last = Instant::now();
        start.elapsed().as_secs_f64()
    }
}

/// One scenario's finished stream, at its matrix index.
pub type Stream<'a> = (&'a ScenarioSpec, usize, &'a [String]);

/// Stores a finished job's streams and answers `repeats` warm repeats of
/// the whole job from the cache (per scenario: key, lookup, copy out),
/// checking each against the cold streams.
pub fn warm_replays(
    cache: &ResultCache,
    job: &[Stream<'_>],
    repeats: usize,
    log: &mut JobLog,
    tally: &mut Tally,
    tracer: Option<&Tracer>,
) {
    for &(spec, index, rows) in job {
        cache.insert(&scenario_key(spec, index), rows.to_vec());
    }
    for _ in 0..repeats {
        tally.attempted += 1;
        let start = Instant::now();
        let replayed: Vec<Option<Vec<String>>> = job
            .iter()
            .map(|&(spec, index, _)| {
                let key = {
                    let _span = tracer.map(|t| t.span("store.key"));
                    scenario_key(spec, index)
                };
                cache.lookup(&key).map(|hit| hit.to_vec())
            })
            .collect();
        log.warm_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let same = replayed
            .iter()
            .zip(job)
            .all(|(got, &(_, _, rows))| got.as_deref() == Some(rows));
        tally.check(same, || {
            format!("{}: warm replay differs from the cold rows", job[0].0.name)
        });
    }
}

/// Checks a stream, adding its totals to `totals`.
pub fn checked(
    spec: &ScenarioSpec,
    index: usize,
    rows: &[String],
    totals: &mut RowTotals,
    tally: &mut Tally,
) {
    match check_rows(spec, index, rows) {
        Ok(t) => totals.add(t),
        Err(e) => tally.fail(e),
    }
}

/// Replays every traced scenario, checking the rows reproduce.
pub fn replay_all(
    runs: &[(&ScenarioSpec, &TracedRun)],
    tracer: &Tracer,
    tally: &mut Tally,
) -> Replay {
    let mut total = Replay::default();
    for (spec, run) in runs {
        tally.attempted += 1;
        match pipeline::replay(spec, &run.task, &run.report, tracer) {
            Ok(r) => {
                tally.check(r.mismatched_rows == 0, || {
                    format!("{}: replay changed {} rows", spec.name, r.mismatched_rows)
                });
                total.assess_calls += r.assess_calls;
                total.complete_calls += r.complete_calls;
                let (a, b) = (&mut total.loo, r.loo);
                *a = EngineStats {
                    base_sweeps: a.base_sweeps + b.base_sweeps,
                    loo_sweeps: a.loo_sweeps + b.loo_sweeps,
                    loo_solves: a.loo_solves + b.loo_solves,
                    warm_starts: a.warm_starts + b.warm_starts,
                };
            }
            Err(e) => tally.fail(e),
        }
    }
    total
}

/// The per-layer figures a trace and a replay give: training, evaluation,
/// LOO counters, row serialisation and the cache key.
pub fn layer_metrics(tracer: &Tracer, replay: &Replay, cache: Option<&ResultCache>) -> Metrics {
    let layers = tracer.layers();
    let ms = |ns: u64| ns as f64 / 1e6;
    let layer = |name: &str| layers.get(name).copied().unwrap_or_default();
    let mut m = Metrics::new();
    let mut put = |name: &'static str, value: f64, n: u64| {
        m.insert(name, (value, n as usize));
    };

    let train = layer("train.total");
    let (fwd_n, fwd_ns) = tracer.under("qnet.forward", "train.total");
    let (fwb_n, fwb_ns) = tracer.under("qnet.forward_batch", "train.total");
    let (upd_n, upd_ns) = tracer.under("qnet.update", "train.total");
    let materialise = layer("datasets.materialise");
    put(
        "datasets.materialise_ms",
        ms(materialise.total_ns),
        materialise.calls,
    );
    put("train.total_ms", ms(train.total_ns), train.calls);
    put("train.qnet_forward_ms", ms(fwd_ns + fwb_ns), fwd_n + fwb_n);
    put(
        "train.qnet_forward_calls",
        (fwd_n + fwb_n) as f64,
        fwd_n + fwb_n,
    );
    put("train.qnet_update_ms", ms(upd_ns), upd_n);
    put("train.grad_steps", upd_n as f64, upd_n);
    let env_ns = train.total_ns.saturating_sub(fwd_ns + fwb_ns + upd_ns);
    put("train.env_ms", ms(env_ns), train.calls);
    // The agent runs one single-state forward per environment step.
    put("train.env_steps", fwd_n as f64, fwd_n);

    for (name, span) in [
        ("eval.total_ms", "eval.total"),
        ("eval.select_ms", "eval.select"),
        ("eval.assess_ms", "eval.assess"),
        ("eval.complete_ms", "eval.complete"),
        ("sink.row_json_ms", "sink.row_json"),
    ] {
        let l = layer(span);
        put(name, ms(l.total_ns), l.calls);
    }
    for (name, span) in [
        ("eval.select_calls", "eval.select"),
        ("eval.assess_calls", "eval.assess"),
        ("eval.complete_calls", "eval.complete"),
        ("sink.rows", "sink.row_json"),
    ] {
        let l = layer(span);
        put(name, l.calls as f64, l.calls);
    }
    let loo = replay.loo;
    let calls = replay.assess_calls as u64;
    put("loo.base_sweeps", loo.base_sweeps as f64, calls);
    put("loo.loo_sweeps", loo.loo_sweeps as f64, calls);
    put("loo.loo_solves", loo.loo_solves as f64, calls);
    put("loo.warm_starts", loo.warm_starts as f64, calls);
    put(
        "loo.warm_start_ratio",
        loo.warm_starts as f64 / calls.max(1) as f64,
        calls,
    );

    let key = layer("store.key");
    if key.calls > 0 {
        put(
            "store.key_us",
            key.total_ns as f64 / key.calls as f64 / 1e3,
            key.calls,
        );
    }
    if let Some(cache) = cache {
        let s = cache.stats();
        let lookups = s.hits() + s.misses;
        put(
            "store.cache_hit_ratio",
            s.hits() as f64 / lookups.max(1) as f64,
            lookups,
        );
        put("store.disk_hits", s.disk_hits as f64, lookups);
    }
    m
}

/// Per-spec outcomes of [`traced_parallel`]; `None` for a spec no worker
/// reached.
pub type TracedResults = Vec<Option<Result<TracedRun, String>>>;

/// Runs every spec through [`run_traced`] on [`SWEEP_THREADS`] outer
/// threads under an outer budget reservation, as `SweepEngine` does;
/// `index_of` gives each spec's matrix index. Results come back in input
/// order.
pub fn traced_parallel(
    specs: &[ScenarioSpec],
    index_of: impl Fn(usize) -> usize + Sync,
    tracer: &Arc<Tracer>,
) -> TracedResults {
    let slots: Vec<Mutex<Option<Result<TracedRun, String>>>> =
        specs.iter().map(|_| Mutex::new(None)).collect();
    let _budget = drcell_pool::budget::reserve_outer(SWEEP_THREADS);
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..SWEEP_THREADS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { break };
                trace::set_job(i as u64);
                let run = run_traced(spec, index_of(i), tracer);
                *slots[i].lock().expect("result slot lock") = Some(run);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("result slot lock"))
        .collect()
}

/// `true` once another pass, as long as the last, would end more than
/// half a pass past `seconds`.
fn done(started: Instant, batch_s: &[f64], seconds: f64) -> bool {
    let last = batch_s.last().copied().unwrap_or(0.0);
    started.elapsed().as_secs_f64() + last / 2.0 >= seconds
}

/// Traced over untraced wall time, minus one.
pub fn overhead(traced_s: f64, untraced_s: f64) -> f64 {
    traced_s / untraced_s.max(1e-9) - 1.0
}

/// `paper57-drcell`: cold 57-cell DR-Cell scenarios, one after another.
pub fn paper57(ctx: Ctx) -> Output {
    const WARM_REPEATS: usize = 40;
    let mut out = Output::default();
    let make = || gen::paper57_specs(ctx.seed);
    let (specs, first_setup_s) = set_up(&mut out.tally, make);
    let mut setups = SetUps::new(first_setup_s);
    let cache = ResultCache::new(CACHE_MEM, None).expect("memory-only cache");
    let mut log = JobLog::default();
    let started = Instant::now();
    let mut reference: Option<Vec<Vec<String>>> = None;
    loop {
        let batch = Instant::now();
        let mut setup_in_batch = 0.0;
        let mut streams = Vec::with_capacity(specs.len());
        let mut totals = RowTotals::default();
        for spec in &specs {
            out.tally.attempted += 1;
            let run = match run_cold(spec, 0) {
                Ok(run) => run,
                Err(e) => {
                    out.tally.fail(e);
                    streams.push(Vec::new());
                    continue;
                }
            };
            log.scenario_ms.push(run.wall.as_secs_f64() * 1e3);
            log.cold_ms.push(run.wall.as_secs_f64() * 1e3);
            log.cold_first_row_ms
                .push(run.first_row.as_secs_f64() * 1e3);
            checked(spec, 0, &run.rows, &mut totals, &mut out.tally);
            if !ctx.trace {
                let job = [(spec, 0, run.rows.as_slice())];
                warm_replays(&cache, &job, WARM_REPEATS, &mut log, &mut out.tally, None);
            }
            streams.push(run.rows);
            setup_in_batch += setups.between(|| set_up(&mut out.tally, make).1);
        }
        log.batch_s
            .push(batch.elapsed().as_secs_f64() - setup_in_batch);
        match &reference {
            None => {
                log.first_batch = totals;
                reference = Some(streams);
            }
            Some(first) => out.tally.check(*first == streams, || {
                "paper57: a repeated pass produced different rows".to_owned()
            }),
        }
        if ctx.trace || done(started, &log.batch_s, ctx.seconds) {
            break;
        }
    }
    let reference = reference.expect("one pass ran");
    log.setup_s = setups.times;
    out.notes = log.describe();
    if !ctx.trace {
        out.metrics = log.end_to_end(&out.tally);
        return out;
    }

    // Traced pass over the same scenarios, then the replay.
    let tracer = Arc::new(Tracer::new());
    let start = Instant::now();
    let mut runs = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        trace::set_job(i as u64);
        out.tally.attempted += 1;
        match run_traced(spec, 0, &tracer) {
            Ok(run) => runs.push((spec, run)),
            Err(e) => out.tally.fail(e),
        }
    }
    let traced_s = start.elapsed().as_secs_f64();
    trace::set_job(0);
    for (spec, run) in &runs {
        let job = [(*spec, 0, run.run.rows.as_slice())];
        warm_replays(
            &cache,
            &job,
            WARM_REPEATS,
            &mut log,
            &mut out.tally,
            Some(&tracer),
        );
    }
    out.tally.check(
        runs.len() == specs.len()
            && runs
                .iter()
                .zip(&reference)
                .all(|((_, r), rows)| r.run.rows == *rows),
        || "paper57: traced rows differ from untraced rows".to_owned(),
    );
    let pairs: Vec<(&ScenarioSpec, &TracedRun)> = runs.iter().map(|(s, r)| (*s, r)).collect();
    let replay = replay_all(&pairs, &tracer, &mut out.tally);
    out.metrics = layer_metrics(&tracer, &replay, Some(&cache));
    out.metrics.insert(
        "trace.overhead_frac",
        (overhead(traced_s, log.batch_s[0]), 1),
    );
    out.tracer = Some(tracer);
    out
}

/// Rows of every engine result, in matrix order.
fn engine_rows(
    specs: &[ScenarioSpec],
    results: &[Result<drcell_scenario::ScenarioResult, drcell_scenario::ScenarioError>],
    tally: &mut Tally,
) -> Vec<Vec<String>> {
    results
        .iter()
        .zip(specs)
        .map(|(r, spec)| match r {
            Ok(r) => r
                .report
                .cycles
                .iter()
                .map(|c| row_json(RowContext::of(r), c))
                .collect(),
            Err(e) => {
                tally.fail(format!("{}: {e}", spec.name));
                Vec::new()
            }
        })
        .collect()
}

/// `sweep-training-free`: the default-sweep grid through `SweepEngine`.
pub fn sweep(ctx: Ctx) -> Output {
    const WARM_REPEATS: usize = 40;
    let mut out = Output::default();
    let make = || gen::sweep_spec(ctx.seed).expand();
    let (specs, first_setup_s) = set_up(&mut out.tally, make);
    let mut setups = SetUps::new(first_setup_s);
    let cache = ResultCache::new(CACHE_MEM, None).expect("memory-only cache");
    let engine = SweepEngine::new(SWEEP_THREADS);
    let mut log = JobLog::default();
    // A traced run splits its time between untraced and traced sweeps.
    let untraced_budget = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let started = Instant::now();
    let mut reference: Option<Vec<Vec<String>>> = None;
    let mut engine_stats = None;
    loop {
        let batch = Instant::now();
        let first_done: Mutex<Option<Instant>> = Mutex::new(None);
        let results = engine.run_with(&specs, |_| {
            first_done
                .lock()
                .expect("first-result lock")
                .get_or_insert_with(Instant::now);
        });
        let engine_s = batch.elapsed().as_secs_f64();
        out.tally.attempted += specs.len() as u64;
        let streams = engine_rows(&specs, &results, &mut out.tally);
        let wall = batch.elapsed().as_secs_f64();
        log.batch_s.push(wall);
        // The sweep is the job: its rows are complete when the engine
        // returns, and the first become available when the first
        // scenario ends.
        log.cold_ms.push(wall * 1e3);
        let first = first_done
            .lock()
            .expect("first-result lock")
            .unwrap_or(batch);
        log.cold_first_row_ms
            .push((first - batch).as_secs_f64() * 1e3);
        let walls: Vec<f64> = results
            .iter()
            .flatten()
            .map(|r| r.wall.as_secs_f64() * 1e3)
            .collect();
        log.scenario_ms.extend(&walls);
        engine_stats.get_or_insert((walls, engine_s));
        let mut totals = RowTotals::default();
        for (i, (spec, rows)) in specs.iter().zip(&streams).enumerate() {
            checked(spec, i, rows, &mut totals, &mut out.tally);
        }
        if !ctx.trace {
            let job: Vec<Stream<'_>> = specs
                .iter()
                .zip(&streams)
                .enumerate()
                .map(|(i, (spec, rows))| (spec, i, rows.as_slice()))
                .collect();
            warm_replays(&cache, &job, WARM_REPEATS, &mut log, &mut out.tally, None);
        }
        match &reference {
            None => {
                log.first_batch = totals;
                reference = Some(streams);
            }
            Some(first) => out.tally.check(*first == streams, || {
                "sweep: a repeated sweep produced different rows".to_owned()
            }),
        }
        if done(started, &log.batch_s, untraced_budget) {
            break;
        }
        setups.between(|| set_up(&mut out.tally, make).1);
    }
    let reference = reference.expect("one sweep ran");
    log.setup_s = setups.times;
    out.notes = log.describe();
    if !ctx.trace {
        out.metrics = log.end_to_end(&out.tally);
        return out;
    }

    // Traced pass: the same matrix on the same number of outer threads,
    // each scenario assembled from its layers with spans around them.
    // Every traced sweep is checked; the first one's spans are kept.
    let started = Instant::now();
    let mut traced_s = Vec::new();
    let mut first: Option<(Arc<Tracer>, TracedResults)> = None;
    while first.is_none() || started.elapsed().as_secs_f64() < ctx.seconds / 2.0 {
        let tracer = Arc::new(Tracer::new());
        let start = Instant::now();
        let results = traced_parallel(&specs, |i| i, &tracer);
        traced_s.push(start.elapsed().as_secs_f64());
        if first.is_some() {
            out.tally.attempted += specs.len() as u64;
            let same = results
                .iter()
                .zip(&reference)
                .all(|(r, rows)| matches!(r, Some(Ok(run)) if run.run.rows == *rows));
            out.tally.check(same, || {
                "sweep: a traced sweep differs from untraced rows".to_owned()
            });
        } else {
            first = Some((tracer, results));
        }
    }
    let (tracer, results) = first.expect("one traced sweep ran");
    out.tally.attempted += specs.len() as u64;
    let mut runs = Vec::with_capacity(specs.len());
    for ((i, spec), result) in specs.iter().enumerate().zip(results) {
        match result {
            Some(Ok(run)) => {
                out.tally.check(run.run.rows == reference[i], || {
                    format!("{}: traced rows differ from untraced rows", spec.name)
                });
                runs.push((spec, run));
            }
            Some(Err(e)) => out.tally.fail(e),
            None => out.tally.fail(format!("{}: never ran", spec.name)),
        }
    }
    let job: Vec<Stream<'_>> = runs
        .iter()
        .enumerate()
        .map(|(i, (spec, run))| (*spec, i, run.run.rows.as_slice()))
        .collect();
    warm_replays(
        &cache,
        &job,
        WARM_REPEATS,
        &mut log,
        &mut out.tally,
        Some(&tracer),
    );
    let pairs: Vec<(&ScenarioSpec, &TracedRun)> = runs.iter().map(|(s, r)| (*s, r)).collect();
    let replay = replay_all(&pairs, &tracer, &mut out.tally);
    out.metrics = layer_metrics(&tracer, &replay, Some(&cache));
    let (walls, engine_s) = engine_stats.expect("one sweep ran");
    if !walls.is_empty() {
        let threads = engine.effective_threads(specs.len()) as f64;
        let s = Summary::of(&walls);
        let max = walls.iter().copied().fold(0.0, f64::max);
        let n = walls.len();
        out.metrics.insert(
            "engine.worker_busy_frac",
            (walls.iter().sum::<f64>() / 1e3 / (threads * engine_s), n),
        );
        out.metrics.insert("engine.scenario_ms_p50", (s.p50, n));
        out.metrics.insert("engine.scenario_ms_max", (max, n));
    }
    out.metrics.insert(
        "trace.overhead_frac",
        (
            overhead(
                median(&traced_s).unwrap_or(0.0),
                median(&log.batch_s).unwrap_or(0.0),
            ),
            traced_s.len(),
        ),
    );
    out.tracer = Some(tracer);
    out
}
