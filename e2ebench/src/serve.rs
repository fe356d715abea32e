//! `serve-mixed`: an in-process daemon serving a closed loop of two
//! clients, each submitting its next job only when the previous one has
//! finished. The script mixes cold jobs (fresh seeds, computed) with warm
//! repeats of specs primed during set-up (answered from the cache).

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use drcell_scenario::sink::{row_json, RowContext};
use drcell_scenario::{ScenarioSpec, SweepEngine};
use drcell_serve::{Client, ClientConfig, Frame, ServeConfig, ServeError, Server, ServerStats};
use drcell_store::scenario_key;

use crate::gen::{self, ClientScript, JobClass};
use crate::pipeline::{RowTotals, TracedRun};
use crate::report::{JobLog, Tally};
use crate::stats::{percentile, Summary};
use crate::trace::{self, Tracer};
use crate::workloads::{
    checked, layer_metrics, overhead, replay_all, traced_parallel, Ctx, Output, SetUps,
    SWEEP_THREADS,
};

/// Daemon job-runner threads.
const WORKERS: usize = 2;
/// Closed-loop clients, one connection each.
const CLIENTS: usize = 2;
/// Jobs each client runs per batch: one script block.
const BATCH_JOBS: usize = gen::SERVE_BLOCK;
/// Jobs of each class an untraced run completes at least, so p90 has ten
/// samples beyond it.
const MIN_PER_CLASS: usize = 100;
/// Result-cache memory: about 150 row streams, the 12 warm ones and the
/// latest cold ones. Every cold result is written through to the disk
/// spill and older cold results are evicted, but a warm spec would have
/// to go unasked for about 140 cold jobs to leave memory, so warm repeats
/// are memory hits. Warm repeats read back from disk made the warm p90
/// swing by a third between runs, even at a few percent of them.
const CACHE_MEM: usize = 256 << 10;
/// Specs the traced run replays through the layer pipeline: the warm set
/// and the first cold jobs.
const TRACED_SPECS: usize = 32;
/// Pings timed after the load.
const PINGS: usize = 200;
/// Longest a client waits for a frame before the run fails.
const READ_DEADLINE: Duration = Duration::from_secs(60);
/// How long the daemon may take to release the last jobs' admission slots
/// after their final frames reached the clients.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);
/// The closed loop stops adding batches after this long, whatever the
/// sample counts, so a slow machine still finishes in time.
const MAX_LOOP: Duration = Duration::from_secs(60);

struct Daemon {
    addr: SocketAddr,
    thread: JoinHandle<std::io::Result<()>>,
    dir: PathBuf,
}

fn start_daemon(dir: PathBuf) -> Result<Daemon, String> {
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let server = Server::bind_with(
        "127.0.0.1:0",
        ServeConfig {
            workers: WORKERS,
            cache_mem: CACHE_MEM,
            cache_dir: Some(dir.join("cache")),
            journal: Some(dir.join("journal.log")),
            max_queue: 8,
            max_client_jobs: 2,
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let thread = std::thread::spawn(move || server.run());
    Ok(Daemon { addr, thread, dir })
}

fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect_with(
        addr,
        &ClientConfig {
            read: Some(READ_DEADLINE),
            ..ClientConfig::default()
        },
    )
    .map_err(|e| format!("connect: {e}"))
}

/// One set-up: a fresh daemon with the warm specs primed through it. Returns
/// the daemon, the primed rows and the set-up's wall time in seconds.
fn set_up_daemon(
    dir: PathBuf,
    warm_specs: &[ScenarioSpec],
    tally: &mut Tally,
) -> Result<(Daemon, Vec<Vec<String>>, f64), String> {
    let start = Instant::now();
    let daemon = start_daemon(dir)?;
    let mut client = match connect(daemon.addr) {
        Ok(client) => client,
        Err(e) => {
            let _ = stop_daemon(daemon);
            return Err(e);
        }
    };
    let mut rows = Vec::with_capacity(warm_specs.len());
    for spec in warm_specs {
        tally.attempted += 1;
        let record = submit(&mut client, JobClass::Cold, spec.clone());
        if let Some(e) = record.error {
            tally.fail(e);
        }
        rows.push(record.rows);
    }
    // The priming connection still holds its last job's admission slot
    // when the client sees `done`, and all connections from this host
    // share one per-client limit: wait on it until the daemon is idle, so
    // the load never starts against a slot set-up left behind.
    match drained_stats(&mut client) {
        Ok(stats) => tally.check(stats.queue_depth == 0 && stats.inflight_slots == 0, || {
            format!("serve: daemon not idle after set-up: {stats:?}")
        }),
        Err(e) => {
            let _ = stop_daemon(daemon);
            return Err(e);
        }
    }
    Ok((daemon, rows, start.elapsed().as_secs_f64()))
}

/// The daemon's counters once it has drained. A connection releases its
/// job's admission slot only after writing the job's last frame, so a
/// client can see `done` before the slot is free; poll until it is.
fn drained_stats(client: &mut Client) -> Result<ServerStats, String> {
    let start = Instant::now();
    loop {
        let stats = client.stats().map_err(|e| e.to_string())?;
        let drained = stats.queue_depth == 0 && stats.inflight_slots == 0;
        if drained || start.elapsed() >= DRAIN_DEADLINE {
            return Ok(stats);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn stop_daemon(daemon: Daemon) -> Result<(), String> {
    let shutdown = connect(daemon.addr).and_then(|c| c.shutdown().map_err(|e| e.to_string()));
    let joined = daemon
        .thread
        .join()
        .map_err(|_| "daemon thread panicked".to_owned())
        .and_then(|r| r.map_err(|e| format!("daemon: {e}")));
    let _ = std::fs::remove_dir_all(&daemon.dir);
    shutdown.and(joined)
}

/// One served job as the client saw it.
#[derive(Debug)]
struct JobRecord {
    class: JobClass,
    spec: ScenarioSpec,
    job: Option<u64>,
    latency_ms: f64,
    first_row_ms: Option<f64>,
    rows: Vec<String>,
    error: Option<String>,
    busy: bool,
}

fn submit(client: &mut Client, class: JobClass, spec: ScenarioSpec) -> JobRecord {
    let start = Instant::now();
    let mut record = JobRecord {
        class,
        spec,
        job: None,
        latency_ms: 0.0,
        first_row_ms: None,
        rows: Vec::new(),
        error: None,
        busy: false,
    };
    let outcome = (|| -> Result<(), ServeError> {
        let mut stream = client.run_spec(&record.spec)?;
        record.job = Some(stream.job);
        while let Some(frame) = stream.next_frame()? {
            match frame {
                Frame::Row(row) => {
                    if record.first_row_ms.is_none() {
                        record.first_row_ms = Some(start.elapsed().as_secs_f64() * 1e3);
                    }
                    record.rows.push(row);
                }
                Frame::Scenario { error: None, .. } => {}
                Frame::Done {
                    ok: 1, failed: 0, ..
                } => return Ok(()),
                other => return Err(ServeError::Protocol(format!("unexpected {other:?}"))),
            }
        }
        Err(ServeError::Protocol("stream ended without done".to_owned()))
    })();
    record.latency_ms = start.elapsed().as_secs_f64() * 1e3;
    if let Err(e) = outcome {
        record.busy = matches!(e, ServeError::Busy { .. });
        record.error = Some(format!("{}: {e}", record.spec.name));
    }
    record
}

/// One client's share of a batch. A transport failure poisons a client,
/// so it reconnects before its next job.
fn client_batch(
    addr: SocketAddr,
    client: &mut Client,
    script: &mut ClientScript,
    tracer: Option<&Tracer>,
) -> Vec<JobRecord> {
    let mut out = Vec::with_capacity(BATCH_JOBS);
    for job in script.take(BATCH_JOBS) {
        let record = {
            let _span = tracer.map(|t| t.span("serve.job"));
            submit(client, job.class, job.spec)
        };
        if record.error.is_some() && !record.busy {
            if let Ok(fresh) = connect(addr) {
                *client = fresh;
            }
        }
        out.push(record);
    }
    out
}

/// Everything one closed-loop phase measured.
#[derive(Debug, Default)]
struct Phase {
    records: Vec<JobRecord>,
    batch_s: Vec<f64>,
    /// Job records of the first batch.
    first_batch: usize,
}

impl Phase {
    fn count(&self, class: JobClass) -> usize {
        self.records.iter().filter(|r| r.class == class).count()
    }

    fn seconds(&self) -> f64 {
        self.batch_s.iter().sum()
    }
}

/// Runs batches until `seconds` have passed and each class has
/// `min_per_class` jobs, calling `between` after every batch.
fn closed_loop(
    addr: SocketAddr,
    clients: &mut [Client],
    scripts: &mut [ClientScript],
    seconds: f64,
    min_per_class: usize,
    tracer: Option<&Arc<Tracer>>,
    between: &mut dyn FnMut(),
) -> Phase {
    let mut phase = Phase::default();
    let started = Instant::now();
    loop {
        let batch = Instant::now();
        let parts: Vec<Vec<JobRecord>> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(scripts.iter_mut())
                .enumerate()
                .map(|(c, (client, script))| {
                    scope.spawn(move || {
                        trace::set_job(c as u64 + 1);
                        client_batch(addr, client, script, tracer.map(|t| &**t))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        phase.batch_s.push(batch.elapsed().as_secs_f64());
        phase.records.extend(parts.into_iter().flatten());
        if phase.first_batch == 0 {
            phase.first_batch = phase.records.len();
        }
        between();
        let enough = phase.count(JobClass::Cold) >= min_per_class
            && phase.count(JobClass::Warm) >= min_per_class;
        let elapsed = started.elapsed();
        if (elapsed.as_secs_f64() >= seconds && enough) || elapsed >= MAX_LOOP {
            return phase;
        }
    }
}

/// Library rows for each spec, as a single-scenario job streams them
/// (matrix index 0).
fn library_rows(specs: &[ScenarioSpec], tally: &mut Tally) -> Vec<Option<Vec<String>>> {
    SweepEngine::new(SWEEP_THREADS)
        .run(specs)
        .into_iter()
        .map(|r| match r {
            Ok(r) => {
                let ctx = RowContext {
                    index: 0,
                    ..RowContext::of(&r)
                };
                Some(r.report.cycles.iter().map(|c| row_json(ctx, c)).collect())
            }
            Err(e) => {
                tally.fail(e.to_string());
                None
            }
        })
        .collect()
}

/// `serve-mixed`.
pub fn serve_mixed(ctx: Ctx, out_dir: &Path) -> Output {
    let mut out = Output::default();
    match run(ctx, out_dir, &mut out) {
        Ok(()) => {}
        Err(e) => out.tally.fail(e),
    }
    out
}

fn run(ctx: Ctx, out_dir: &Path, out: &mut Output) -> Result<(), String> {
    let warm_specs = gen::serve_warm_specs(ctx.seed);

    // Set-up: start a daemon with a fresh journal and spill directory and
    // prime the warm specs through it; this daemon serves the load. A
    // repeated set-up primes another fresh daemon, checks it gave the same
    // rows and stops it.
    let dir = |i: u32| out_dir.join(format!("serve-{}-{i}", std::process::id()));
    let (daemon, primed, first_setup_s) = set_up_daemon(dir(0), &warm_specs, &mut out.tally)?;
    let mut setups = SetUps::new(first_setup_s);
    let addr = daemon.addr;

    let mut clients = match (0..CLIENTS)
        .map(|_| connect(addr))
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(clients) => clients,
        Err(e) => {
            let _ = stop_daemon(daemon);
            return Err(e);
        }
    };
    let mut scripts: Vec<ClientScript> = (0..CLIENTS as u64)
        .map(|c| ClientScript::new(ctx.seed, c))
        .collect();
    let tracer = ctx.trace.then(|| Arc::new(Tracer::new()));
    let phases: Vec<Phase> = {
        let tally = &mut out.tally;
        let mut repeats = 0;
        let mut set_up_again = || {
            setups.between(|| {
                repeats += 1;
                match set_up_daemon(dir(repeats), &warm_specs, tally) {
                    Ok((d, rows, s)) => {
                        tally.check(rows == primed, || {
                            "serve: priming a fresh daemon gave different rows".to_owned()
                        });
                        if let Err(e) = stop_daemon(d) {
                            tally.fail(e);
                        }
                        s
                    }
                    Err(e) => {
                        tally.fail(e);
                        f64::NAN
                    }
                }
            });
        };
        let mut phase = |seconds, min_per_class, tracer| {
            closed_loop(
                addr,
                &mut clients,
                &mut scripts,
                seconds,
                min_per_class,
                tracer,
                &mut set_up_again,
            )
        };
        if ctx.trace {
            let half = ctx.seconds / 2.0;
            vec![phase(half, 0, None), phase(half, 0, tracer.as_ref())]
        } else {
            vec![phase(ctx.seconds, MIN_PER_CLASS, None)]
        }
    };

    let stats = drained_stats(&mut clients[0])?;
    let jobs = clients[0].jobs().map_err(|e| e.to_string())?;
    let mut ping_us = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let _span = tracer.as_ref().map(|t| t.span("serve.ping"));
        let start = Instant::now();
        clients[0].ping().map_err(|e| e.to_string())?;
        ping_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    drop(clients);
    stop_daemon(daemon)?;

    // Every job must have succeeded and be byte-identical to the library.
    let records: Vec<&JobRecord> = phases.iter().flat_map(|p| &p.records).collect();
    let busy = records.iter().filter(|r| r.busy).count();
    out.tally.attempted += records.len() as u64;
    for r in &records {
        if let Some(e) = &r.error {
            out.tally.fail(e.clone());
        }
    }
    let cold: Vec<ScenarioSpec> = records
        .iter()
        .filter(|r| r.class == JobClass::Cold)
        .map(|r| r.spec.clone())
        .collect();
    let mut reference_specs = warm_specs.clone();
    reference_specs.extend(cold);
    let reference = library_rows(&reference_specs, &mut out.tally);
    let by_seed: HashMap<u64, &Vec<String>> = reference_specs
        .iter()
        .zip(&reference)
        .filter_map(|(s, rows)| rows.as_ref().map(|rows| (s.seed, rows)))
        .collect();
    for (spec, rows) in warm_specs.iter().zip(&primed) {
        out.tally.check(by_seed.get(&spec.seed) == Some(&rows), || {
            format!("{}: primed rows differ from the library's", spec.name)
        });
    }
    let primed_by_seed: HashMap<u64, &Vec<String>> =
        warm_specs.iter().map(|s| s.seed).zip(&primed).collect();
    for r in records.iter().filter(|r| r.error.is_none()) {
        out.tally
            .check(by_seed.get(&r.spec.seed) == Some(&&r.rows), || {
                format!("{}: served rows differ from the library's", r.spec.name)
            });
        if r.class == JobClass::Warm {
            out.tally
                .check(primed_by_seed.get(&r.spec.seed) == Some(&&r.rows), || {
                    format!("{}: warm rows differ from cold rows", r.spec.name)
                });
        }
    }
    let warm_ok = records
        .iter()
        .filter(|r| r.class == JobClass::Warm && r.error.is_none())
        .count() as u64;
    out.tally
        .check(stats.mem_hits + stats.disk_hits >= warm_ok, || {
            format!("serve: {warm_ok} warm jobs but {stats:?}")
        });
    out.tally
        .check(stats.queue_depth == 0 && stats.inflight_slots == 0, || {
            format!("serve: daemon not drained: {stats:?}")
        });

    let first = &phases[0];
    let mut log = JobLog {
        setup_s: setups.times,
        batch_s: first.batch_s.clone(),
        ..JobLog::default()
    };
    let mut totals = RowTotals::default();
    for r in &first.records[..first.first_batch] {
        checked(&r.spec, 0, &r.rows, &mut totals, &mut out.tally);
    }
    log.first_batch = totals;
    for r in first.records.iter().filter(|r| r.error.is_none()) {
        match r.class {
            JobClass::Cold => {
                log.scenario_ms.push(r.latency_ms);
                log.cold_ms.push(r.latency_ms);
                log.cold_first_row_ms.extend(r.first_row_ms);
            }
            JobClass::Warm => log.warm_ms.push(r.latency_ms),
        }
    }
    out.notes = log.describe();
    out.notes.push(format!(
        "server_stats         {stats:?}; ping_us {}",
        Summary::of(&ping_us).describe()
    ));
    let Some(tracer) = tracer else {
        out.metrics = log.end_to_end(&out.tally);
        return Ok(());
    };

    // Per-layer figures: the served specs' keys; the warm specs and the
    // first cold ones through the layer pipeline and the replay (each must
    // reproduce the library's rows); the daemon's own job table and cache
    // counters; and the client side.
    for spec in &reference_specs {
        let _span = tracer.span("store.key");
        std::hint::black_box(scenario_key(spec, 0));
    }
    let sample = &reference_specs[..reference_specs.len().min(TRACED_SPECS)];
    let mut runs = Vec::with_capacity(sample.len());
    out.tally.attempted += sample.len() as u64;
    for ((spec, rows), run) in
        sample
            .iter()
            .zip(&reference)
            .zip(traced_parallel(sample, |_| 0, &tracer))
    {
        match run {
            Some(Ok(run)) => {
                out.tally.check(Some(&run.run.rows) == rows.as_ref(), || {
                    format!("{}: traced rows differ from the library's", spec.name)
                });
                runs.push((spec, run));
            }
            Some(Err(e)) => out.tally.fail(e),
            None => out.tally.fail(format!("{}: never ran", spec.name)),
        }
    }
    let pairs: Vec<(&ScenarioSpec, &TracedRun)> = runs.iter().map(|(s, r)| (*s, r)).collect();
    let replay = replay_all(&pairs, &tracer, &mut out.tally);
    out.metrics = layer_metrics(&tracer, &replay, None);
    let lookups = stats.mem_hits + stats.disk_hits + stats.misses;
    let m = &mut out.metrics;
    m.insert(
        "store.cache_hit_ratio",
        (
            (stats.mem_hits + stats.disk_hits) as f64 / lookups.max(1) as f64,
            lookups as usize,
        ),
    );
    m.insert(
        "store.disk_hits",
        (stats.disk_hits as f64, lookups as usize),
    );

    let info: HashMap<u64, &drcell_serve::JobInfo> = jobs.jobs.iter().map(|j| (j.job, j)).collect();
    let (mut wait, mut run_ms, mut overhead_ms) = (Vec::new(), Vec::new(), Vec::new());
    for r in &records {
        let Some(j) = r.job.and_then(|id| info.get(&id)) else {
            continue;
        };
        let (Some(started), Some(finished)) = (j.started_ms, j.finished_ms) else {
            continue;
        };
        wait.push(started.saturating_sub(j.queued_ms) as f64);
        if r.class == JobClass::Cold {
            run_ms.push(finished.saturating_sub(started) as f64);
        }
        overhead_ms.push(r.latency_ms - finished.saturating_sub(j.queued_ms) as f64);
    }
    let pct = |xs: &[f64], q: f64| {
        let mut s = xs.to_vec();
        s.sort_by(f64::total_cmp);
        if s.is_empty() {
            0.0
        } else {
            percentile(&s, q)
        }
    };
    m.insert("serve.queue_wait_ms_p50", (pct(&wait, 0.5), wait.len()));
    m.insert("serve.queue_wait_ms_p90", (pct(&wait, 0.9), wait.len()));
    m.insert("serve.run_ms_p50", (pct(&run_ms, 0.5), run_ms.len()));
    m.insert(
        "serve.client_overhead_ms_p50",
        (pct(&overhead_ms, 0.5), overhead_ms.len()),
    );
    m.insert("serve.ping_us_p50", (pct(&ping_us, 0.5), ping_us.len()));
    m.insert("serve.busy_refusals", (busy as f64, records.len()));
    let jobs_per_s = |p: &Phase| p.records.len() as f64 / p.seconds().max(1e-9);
    // Throughput, not wall time: the two halves ran different jobs.
    m.insert(
        "trace.overhead_frac",
        (
            overhead(1.0 / jobs_per_s(&phases[1]), 1.0 / jobs_per_s(&phases[0])),
            records.len(),
        ),
    );
    out.tracer = Some(tracer);
    Ok(())
}
