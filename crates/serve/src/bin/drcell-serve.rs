//! `drcell-serve` — the scenario-serving daemon and its client commands.
//! See `drcell-serve --help`.

use std::fs;
use std::io::Write;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use drcell_scenario::cli::load_spec_value;
use drcell_scenario::{registry, ScenarioSpec, SweepSpec};
use drcell_serve::{
    fansweep_with, Client, ClientConfig, FleetConfig, JobStream, ServeConfig, ServeError, Server,
};
use serde::Deserialize;

const USAGE: &str = "drcell-serve — scenario-serving daemon for DR-Cell

USAGE:
  drcell-serve serve    --addr HOST:PORT [--workers N]
                        [--cache-mem MIB] [--cache-dir DIR] [--journal FILE]
                        [--max-queue N] [--max-client-jobs N]
                        [--max-job-secs SECS] [--stall-secs SECS]
                        [--max-queue-age-secs SECS]
  drcell-serve submit   --addr HOST:PORT (--name SCENARIO | --spec FILE |
                        --sweep FILE) [--rows OUT.jsonl] [--retry-busy N]
                        [--deadline SECS]
  drcell-serve fansweep --daemon HOST:PORT [--daemon HOST:PORT ...]
                        [--sweep FILE] [--shards N] [--read-timeout SECS]
                        [--shard-deadline SECS]
                        [--rows OUT.jsonl] [--manifest DIR] [--resume]
  drcell-serve ping     --addr HOST:PORT
  drcell-serve list     --addr HOST:PORT
  drcell-serve jobs     --addr HOST:PORT
  drcell-serve stats    --addr HOST:PORT
  drcell-serve cancel   --addr HOST:PORT --job N
  drcell-serve shutdown --addr HOST:PORT

`serve` runs the daemon until a client sends shutdown. `--workers N` sets
the number of concurrent jobs (0 = one per hardware thread); each job
runs single-threaded, so N workers use at most N cores.

Results are cached by content hash of the canonical spec: a repeated
submit replays the finished stream byte-identically instead of
recomputing. `--cache-mem` sets the in-memory budget in MiB (default 64,
0 disables); `--cache-dir` spills finished results to disk so they
survive restarts; `--journal` makes the job table durable — after a
restart `jobs` still lists every prior job, with work that died
queued/running reported as cancelled. `--max-queue` and
`--max-client-jobs` bound the queue depth and each client's in-flight
jobs; over-limit submits get a structured busy frame instead of queueing
(0 = unbounded), carrying a load-derived retry_after_ms back-off hint.
`--max-job-secs` caps every job's wall-clock lifetime (client deadlines
are clamped to it; expiry ends the job deadline_exceeded at the next
cycle boundary). `--stall-secs` arms the stall watchdog: a running job
making no progress for that long is cancelled with reason `stall`.
`--max-queue-age-secs` sheds jobs that sat queued longer than that
(cancelled with reason `queue_age`) instead of running stale work. All
three default to 0 = disabled.

`submit` streams a job and writes its result rows (JSONL, byte-identical
to `drcell-scenario run/sweep --jsonl` for the same spec) to --rows or
stdout; control frames go to stderr. Exits nonzero if any scenario fails
or the job is cancelled or runs out of time. `--deadline SECS` gives the
job a server-enforced time budget. `--retry-busy N` retries an admission
refusal (busy frame) up to N times with exponential backoff (200 ms
doubling, capped at 5 s, never below the server's retry_after_ms hint)
on a fresh connection each time.

`fansweep` shards a sweep's scenario matrix across every --daemon (the
default sweep when --sweep is omitted, matching `drcell-scenario sweep`)
and merges the streams back into single-host row order — the output is
byte-identical to `submit --sweep` against one daemon. A daemon that
fails mid-shard is retired and its shard re-dispatched with capped
exponential backoff (200 ms doubling, capped at 5 s, deterministic
jitter); retired daemons are health-probed (connect + ping, 500 ms
cooldown doubling up to 3 probes) and re-admitted if they come back.
The run only fails once every daemon is gone for good or a shard
exhausts its attempt budget. --shards defaults to the daemon count
(more = finer work stealing); --read-timeout bounds the silence between
frames before a daemon is declared dead (default: unbounded).
--shard-deadline gives every shard a server-enforced time budget: an
expired shard is retried through the same backoff as a daemon failure,
bounded by the attempt budget, never silently dropped.
--manifest DIR checkpoints every finished shard durably; --resume
restarts a killed fansweep from that manifest, re-running only the
unfinished shards — the merged output is byte-identical either way.

`ping` does one health round trip and prints the server clock and RTT.";

#[derive(Debug, Default)]
struct Options {
    addr: Option<String>,
    workers: usize,
    name: Option<String>,
    spec: Option<String>,
    sweep: Option<String>,
    rows: Option<String>,
    job: Option<u64>,
    cache_mem: Option<usize>,
    cache_dir: Option<String>,
    journal: Option<String>,
    max_queue: usize,
    max_client_jobs: usize,
    max_job_secs: u64,
    stall_secs: u64,
    max_queue_age_secs: u64,
    deadline: Option<u64>,
    shard_deadline: Option<u64>,
    daemons: Vec<String>,
    shards: Option<usize>,
    read_timeout: Option<u64>,
    manifest: Option<String>,
    resume: bool,
    retry_busy: usize,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut take = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--addr" => opts.addr = Some(take()?),
            "--workers" => {
                let v = take()?;
                opts.workers = v.parse().map_err(|_| format!("bad --workers `{v}`"))?;
            }
            "--name" => opts.name = Some(take()?),
            "--spec" => opts.spec = Some(take()?),
            "--sweep" => opts.sweep = Some(take()?),
            "--rows" => opts.rows = Some(take()?),
            "--job" => {
                let v = take()?;
                opts.job = Some(v.parse().map_err(|_| format!("bad --job `{v}`"))?);
            }
            "--cache-mem" => {
                let v = take()?;
                opts.cache_mem = Some(v.parse().map_err(|_| format!("bad --cache-mem `{v}`"))?);
            }
            "--cache-dir" => opts.cache_dir = Some(take()?),
            "--journal" => opts.journal = Some(take()?),
            "--max-queue" => {
                let v = take()?;
                opts.max_queue = v.parse().map_err(|_| format!("bad --max-queue `{v}`"))?;
            }
            "--max-client-jobs" => {
                let v = take()?;
                opts.max_client_jobs = v
                    .parse()
                    .map_err(|_| format!("bad --max-client-jobs `{v}`"))?;
            }
            "--max-job-secs" => {
                let v = take()?;
                opts.max_job_secs = v.parse().map_err(|_| format!("bad --max-job-secs `{v}`"))?;
            }
            "--stall-secs" => {
                let v = take()?;
                opts.stall_secs = v.parse().map_err(|_| format!("bad --stall-secs `{v}`"))?;
            }
            "--max-queue-age-secs" => {
                let v = take()?;
                opts.max_queue_age_secs = v
                    .parse()
                    .map_err(|_| format!("bad --max-queue-age-secs `{v}`"))?;
            }
            "--deadline" => {
                let v = take()?;
                opts.deadline = Some(v.parse().map_err(|_| format!("bad --deadline `{v}`"))?);
            }
            "--shard-deadline" => {
                let v = take()?;
                opts.shard_deadline = Some(
                    v.parse()
                        .map_err(|_| format!("bad --shard-deadline `{v}`"))?,
                );
            }
            "--daemon" => opts.daemons.push(take()?),
            "--shards" => {
                let v = take()?;
                opts.shards = Some(v.parse().map_err(|_| format!("bad --shards `{v}`"))?);
            }
            "--read-timeout" => {
                let v = take()?;
                opts.read_timeout =
                    Some(v.parse().map_err(|_| format!("bad --read-timeout `{v}`"))?);
            }
            "--manifest" => opts.manifest = Some(take()?),
            "--resume" => opts.resume = true,
            "--retry-busy" => {
                let v = take()?;
                opts.retry_busy = v.parse().map_err(|_| format!("bad --retry-busy `{v}`"))?;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(opts)
}

fn addr(opts: &Options) -> Result<&str, String> {
    opts.addr
        .as_deref()
        .ok_or_else(|| "--addr is required".to_owned())
}

fn connect(opts: &Options) -> Result<Client, String> {
    let addr = addr(opts)?;
    Client::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))
}

fn cmd_serve(opts: &Options) -> Result<(), String> {
    let addr = addr(opts)?;
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        workers: opts.workers,
        cache_mem: opts
            .cache_mem
            .map(|mib| mib << 20)
            .unwrap_or(defaults.cache_mem),
        cache_dir: opts.cache_dir.as_ref().map(Into::into),
        journal: opts.journal.as_ref().map(Into::into),
        max_queue: opts.max_queue,
        max_client_jobs: opts.max_client_jobs,
        max_job_secs: opts.max_job_secs,
        stall_secs: opts.stall_secs,
        max_queue_age_secs: opts.max_queue_age_secs,
    };
    let server = Server::bind_with(addr, config).map_err(|e| format!("bind {addr}: {e}"))?;
    eprintln!("{}", drcell_core::backend::startup_line());
    eprintln!(
        "drcell-serve listening on {} with {} worker(s)",
        server.local_addr().map_err(|e| e.to_string())?,
        server.workers()
    );
    server.run().map_err(|e| e.to_string())
}

/// What `submit` asks the daemon to run, parsed once so busy retries
/// don't re-read spec files.
enum SubmitTarget {
    Name(String),
    Spec(Box<ScenarioSpec>),
    Sweep(Box<SweepSpec>),
}

fn cmd_submit(opts: &Options) -> Result<(), String> {
    let target = match (&opts.name, &opts.spec, &opts.sweep) {
        (Some(name), None, None) => SubmitTarget::Name(name.clone()),
        (None, Some(path), None) => {
            let value = load_spec_value(path).map_err(|e| e.to_string())?;
            let spec = ScenarioSpec::from_value(&value).map_err(|e| e.to_string())?;
            SubmitTarget::Spec(Box::new(spec))
        }
        (None, None, Some(path)) => {
            let value = load_spec_value(path).map_err(|e| e.to_string())?;
            let spec = SweepSpec::from_value(&value).map_err(|e| e.to_string())?;
            SubmitTarget::Sweep(Box::new(spec))
        }
        _ => {
            return Err("submit needs exactly one of --name, --spec or --sweep".to_owned());
        }
    };
    // Admission refusals (busy frames) are retried on a *fresh*
    // connection each time — the refused connection stays usable in
    // principle, but reconnecting also covers daemons that restart
    // between attempts.
    let deadline = opts.deadline.map(Duration::from_secs);
    let mut attempt = 0usize;
    loop {
        attempt += 1;
        let mut client = connect(opts)?;
        let submitted = match &target {
            SubmitTarget::Name(name) => client.run_name_with(name, deadline),
            SubmitTarget::Spec(spec) => client.run_spec_with(spec, deadline),
            SubmitTarget::Sweep(spec) => client.sweep_with(spec, deadline),
        };
        match submitted {
            Ok(stream) => return drain_job(stream, opts),
            Err(ServeError::Busy {
                reason,
                depth,
                limit,
                retry_after_ms,
            }) if attempt <= opts.retry_busy => {
                // 200 ms doubling, capped at 5 s — but never below the
                // server's own load-derived hint: it has seen the queue,
                // this client has only seen a refusal.
                let backoff = Duration::from_millis(200)
                    .saturating_mul(1u32 << (attempt - 1).min(16) as u32)
                    .min(Duration::from_secs(5))
                    .max(Duration::from_millis(retry_after_ms));
                eprintln!(
                    "server busy ({reason}, {depth}/{limit}); retry {attempt}/{} in {} ms",
                    opts.retry_busy,
                    backoff.as_millis()
                );
                std::thread::sleep(backoff);
            }
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// Streams an accepted job's frames to completion, writing rows to
/// `--rows` or stdout.
fn drain_job(stream: JobStream<'_>, opts: &Options) -> Result<(), String> {
    eprintln!(
        "job {} accepted ({} scenario(s))",
        stream.job, stream.scenarios
    );
    // Rows go to the sink as they arrive — the stream stays live (tail
    // the file, pipe stdout) and rows already received survive a client
    // crash mid-job.
    let mut sink: Box<dyn Write> = match &opts.rows {
        Some(path) => Box::new(fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?),
        None => Box::new(std::io::stdout()),
    };
    let mut stream = stream;
    let mut rows = 0usize;
    let (mut ok, mut failed) = (0usize, 0usize);
    let mut cancelled: Option<String> = None;
    let mut out_of_time = false;
    while let Some(frame) = stream.next_frame().map_err(|e| e.to_string())? {
        match frame {
            drcell_serve::Frame::Row(row) => {
                writeln!(sink, "{row}").map_err(|e| e.to_string())?;
                sink.flush().map_err(|e| e.to_string())?;
                rows += 1;
            }
            drcell_serve::Frame::Scenario {
                index,
                error: Some(error),
                ..
            } => eprintln!("scenario {index} FAILED: {error}"),
            drcell_serve::Frame::Scenario { .. } => {}
            drcell_serve::Frame::Done {
                ok: o, failed: f, ..
            } => {
                ok = o;
                failed = f;
            }
            drcell_serve::Frame::Cancelled { reason, .. } => {
                cancelled = Some(reason.unwrap_or_default());
            }
            drcell_serve::Frame::DeadlineExceeded { .. } => out_of_time = true,
            other => return Err(format!("unexpected frame in job stream: {other:?}")),
        }
    }
    if let Some(path) = &opts.rows {
        eprintln!("wrote {path} ({rows} rows)");
    }
    if out_of_time {
        return Err("job exceeded its deadline".to_owned());
    }
    if let Some(reason) = cancelled {
        return Err(if reason.is_empty() {
            "job was cancelled".to_owned()
        } else {
            format!("job was cancelled ({reason})")
        });
    }
    if failed > 0 {
        return Err(format!("{failed} scenario(s) failed"));
    }
    eprintln!("job done: {ok} scenario(s) ok");
    Ok(())
}

fn cmd_fansweep(opts: &Options) -> Result<(), String> {
    if opts.daemons.is_empty() {
        return Err("fansweep needs at least one --daemon HOST:PORT".to_owned());
    }
    let sweep = match &opts.sweep {
        Some(path) => {
            let value = load_spec_value(path).map_err(|e| e.to_string())?;
            SweepSpec::from_value(&value).map_err(|e| e.to_string())?
        }
        // Mirror `drcell-scenario sweep` without --spec, so the two CLIs
        // can be compared byte for byte out of the box.
        None => registry::default_sweep(),
    };
    if opts.resume && opts.manifest.is_none() {
        return Err("--resume needs --manifest DIR".to_owned());
    }
    let config = FleetConfig {
        shards: opts.shards,
        client: ClientConfig {
            read: opts.read_timeout.map(Duration::from_secs),
            ..ClientConfig::default()
        },
        shard_deadline: opts.shard_deadline.map(Duration::from_secs),
        manifest: opts.manifest.as_ref().map(Into::into),
        resume: opts.resume,
        ..FleetConfig::default()
    };
    eprintln!("{}", drcell_core::backend::startup_line());
    eprintln!(
        "fansweep: {} scenario(s) over {} daemon(s){}",
        sweep.matrix_len(),
        opts.daemons.len(),
        if opts.resume { " (resuming)" } else { "" }
    );
    let output = fansweep_with(&opts.daemons, &sweep, &config).map_err(|e| e.to_string())?;
    let mut sink: Box<dyn Write> = match &opts.rows {
        Some(path) => Box::new(fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?),
        None => Box::new(std::io::stdout()),
    };
    for row in &output.rows {
        writeln!(sink, "{row}").map_err(|e| e.to_string())?;
    }
    sink.flush().map_err(|e| e.to_string())?;
    for report in &output.shards {
        eprintln!(
            "shard {}..{}: {} (attempt(s): {}){}",
            report.range.start,
            report.range.end,
            report.daemon,
            report.attempts,
            if report.resumed { " [resumed]" } else { "" }
        );
    }
    for (daemon, reason) in &output.dead {
        eprintln!("daemon {daemon} retired: {reason}");
    }
    for (daemon, reason) in &output.readmitted {
        eprintln!("daemon {daemon} re-admitted after: {reason}");
    }
    for (index, error) in &output.scenario_errors {
        eprintln!("scenario {index} FAILED: {error}");
    }
    if let Some(path) = &opts.rows {
        eprintln!("wrote {path} ({} rows)", output.rows.len());
    }
    if output.failed > 0 {
        return Err(format!("{} scenario(s) failed", output.failed));
    }
    eprintln!("fansweep done: {} scenario(s) ok", output.ok);
    Ok(())
}

fn cmd_ping(opts: &Options) -> Result<(), String> {
    let mut client = connect(opts)?;
    let sent = Instant::now();
    let now_ms = client.ping().map_err(|e| e.to_string())?;
    println!(
        "pong: server clock {now_ms} ms, rtt {:.1} ms",
        sent.elapsed().as_secs_f64() * 1000.0
    );
    Ok(())
}

fn cmd_list(opts: &Options) -> Result<(), String> {
    let mut client = connect(opts)?;
    for name in client.list().map_err(|e| e.to_string())? {
        println!("{name}");
    }
    Ok(())
}

fn cmd_jobs(opts: &Options) -> Result<(), String> {
    let mut client = connect(opts)?;
    let snapshot = client.jobs().map_err(|e| e.to_string())?;
    // Live durations use the *server's* clock from the snapshot — every
    // stamp in the frame comes from that one clock, so client/daemon
    // clock skew cannot distort them.
    let now = snapshot.now_ms;
    for info in snapshot.jobs {
        // Durations from the lifecycle stamps: waited = queued→started,
        // ran = started→finished (or →now while still running).
        let secs = |from: u64, to: u64| (to.saturating_sub(from)) as f64 / 1000.0;
        let timing = match (info.started_ms, info.finished_ms) {
            (None, _) => format!("waiting {:.1}s", secs(info.queued_ms, now)),
            (Some(s), None) => {
                format!(
                    "waited {:.1}s, running {:.1}s",
                    secs(info.queued_ms, s),
                    secs(s, now)
                )
            }
            (Some(s), Some(f)) => {
                format!(
                    "waited {:.1}s, ran {:.1}s",
                    secs(info.queued_ms, s),
                    secs(s, f)
                )
            }
        };
        // Deadline and remaining budget, both against the server's clock
        // from the same snapshot — client/daemon skew cannot distort the
        // countdown. Terminal jobs show the deadline without a countdown.
        let deadline = match info.deadline_ms {
            None => String::new(),
            Some(d) if info.finished_ms.is_some() => format!("  deadline@{d}"),
            Some(d) if d > now => format!("  deadline@{d} ({:.1}s left)", secs(now, d)),
            Some(d) => format!("  deadline@{d} (overdue)"),
        };
        let reason = match &info.reason {
            Some(r) => format!("  reason={r}"),
            None => String::new(),
        };
        println!(
            "job {:>4}  {:<10} {}/{} scenario(s)  queued@{}  {}{}{}",
            info.job,
            info.state.as_str(),
            info.completed,
            info.scenarios,
            info.queued_ms,
            timing,
            deadline,
            reason
        );
    }
    Ok(())
}

fn cmd_stats(opts: &Options) -> Result<(), String> {
    let mut client = connect(opts)?;
    let s = client.stats().map_err(|e| e.to_string())?;
    println!(
        "cache: {} mem hit(s), {} disk hit(s), {} miss(es); {} entry(ies), {} byte(s) resident",
        s.mem_hits, s.disk_hits, s.misses, s.entries, s.bytes
    );
    println!(
        "queue: {} job(s) waiting, {} admission slot(s) in flight",
        s.queue_depth, s.inflight_slots
    );
    Ok(())
}

fn cmd_cancel(opts: &Options) -> Result<(), String> {
    let job = opts.job.ok_or_else(|| "--job is required".to_owned())?;
    let mut client = connect(opts)?;
    let state = client.cancel(job).map_err(|e| e.to_string())?;
    eprintln!(
        "job {job}: cancellation requested (state {})",
        state.as_str()
    );
    Ok(())
}

fn cmd_shutdown(opts: &Options) -> Result<(), String> {
    let client = connect(opts)?;
    client.shutdown().map_err(|e| e.to_string())?;
    eprintln!("server acknowledged shutdown");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
    };
    if matches!(command, "--help" | "-h" | "help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let result = parse_options(rest).and_then(|opts| match command {
        "serve" => cmd_serve(&opts),
        "submit" => cmd_submit(&opts),
        "fansweep" => cmd_fansweep(&opts),
        "ping" => cmd_ping(&opts),
        "list" => cmd_list(&opts),
        "jobs" => cmd_jobs(&opts),
        "stats" => cmd_stats(&opts),
        "cancel" => cmd_cancel(&opts),
        "shutdown" => cmd_shutdown(&opts),
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
