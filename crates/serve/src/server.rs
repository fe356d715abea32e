//! The daemon: TCP accept loop, per-connection protocol handling, and the
//! worker pool that executes jobs against the scenario engine.
//!
//! # Scheduling
//!
//! The server owns `workers` job-runner threads; each runs one job at a
//! time, and a job's scenarios execute **sequentially in matrix order** on
//! its worker (concurrency comes from running multiple jobs side by side,
//! which is what keeps every job's row stream in deterministic order).
//! A scenario is single-threaded, so `workers` job threads use at most
//! `workers` cores for compute — like a `SweepEngine` sweep with
//! `workers` threads.
//!
//! # Determinism
//!
//! Row frames are produced by [`drcell_scenario::run_scenario_streaming`]
//! and serialised by [`drcell_scenario::sink::row_json`] — the same
//! functions behind the CLI's `--jsonl` writer — so the row lines of a
//! job's stream are **byte-identical** to the file the CLI writes for the
//! same spec, regardless of worker count or how many jobs run
//! concurrently.
//!
//! # Caching and durability
//!
//! Before running a scenario, a worker consults the
//! [`drcell_store::ResultCache`] under the scenario's content key
//! (canonical spec + matrix index). Because the engine is
//! bit-deterministic, a warm hit replays the stored rows **byte-identical
//! to a recompute** — same frames, same order — so clients cannot tell a
//! hit from a cold run except by latency. Only cleanly finished scenarios
//! are inserted. With a journal configured ([`ServeConfig::journal`]),
//! every job acceptance and state transition is appended durably and the
//! table is reconstructed on restart; with a spill directory
//! ([`ServeConfig::cache_dir`]), finished results survive restarts too.
//! Admission control ([`ServeConfig::max_queue`],
//! [`ServeConfig::max_client_jobs`]) turns overload into structured
//! `busy` refusals instead of unbounded queue growth.
//!
//! # Cancellation and failure isolation
//!
//! `cancel` (from any connection) sets a sticky flag the executing worker
//! observes between scenarios and at every testing-cycle boundary. A
//! client that disconnects mid-stream cancels its own job the same way —
//! the job ends `Cancelled`, the worker moves on, and the table stays
//! consistent for everyone else. A failing scenario fails only itself:
//! its `scenario` frame carries the error and the job continues with the
//! next matrix entry.
//!
//! One known bound: a scenario's *policy-training* phase (DR-Cell specs
//! train a DQN before their first testing cycle) emits no cycle records,
//! so a cancel landing mid-training takes effect only once training
//! finishes and the first cycle boundary is reached — and a graceful
//! shutdown waits for it. Threading the cancel flag into the trainer's
//! episode loop is the known fix if serving ever fronts long training
//! runs; today's registry scenarios train in ~seconds.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

use drcell_core::StopReason;
use drcell_scenario::sink::{row_json, RowContext};
use drcell_scenario::{registry, run_scenario_streaming, ScenarioSpec};
use drcell_store::{scenario_key, Admission, Journal, ResultCache};

use crate::job::{Job, JobTable};
use crate::protocol::{Frame, JobState, JobsSnapshot, Request, RunTarget, ServerStats};

/// How often blocked connection reads wake up to poll the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(100);
/// How long a frame write to a stalled client may block before the server
/// gives up on the connection (and cancels its job).
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);
/// Capacity of the per-job frame channel between worker and connection.
const FRAME_BUFFER: usize = 256;
/// Hard cap on one request line. Requests are at most one inline
/// `SweepSpec` (kilobytes); the cap only exists so a client streaming
/// newline-free garbage cannot grow the per-connection buffer without
/// bound and take the whole daemon down with it.
const MAX_REQUEST_BYTES: usize = 4 << 20;

/// One queued unit of work: a job, its expanded scenarios, and the channel
/// its frames stream through.
struct QueuedJob {
    job: Arc<Job>,
    specs: Vec<ScenarioSpec>,
    /// Global matrix index of `specs[0]` — non-zero when the job is a
    /// sweep *slice* (a shard of a federated sweep). Rows, `scenario`
    /// frames and cache keys all use `offset + i`, so a shard's stream is
    /// byte-identical to the same indices of the single-host run.
    offset: usize,
    tx: SyncSender<String>,
}

/// State shared between the accept loop, connection threads and workers.
struct Shared {
    table: JobTable,
    queue: Mutex<VecDeque<QueuedJob>>,
    available: Condvar,
    shutdown: AtomicBool,
    cache: ResultCache,
    /// `false` when the cache is configured inert (no memory, no spill):
    /// workers then skip row capture entirely.
    cache_active: bool,
    admission: Admission,
    /// Server cap on a job's lifetime in ms (`0` = uncapped) — the clamp
    /// applied to client deadlines at submit.
    max_job_ms: u64,
    /// Queue-age shed threshold in ms (`0` = no shedding), checked by
    /// workers on pop.
    max_queue_age_ms: u64,
}

impl Shared {
    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }
}

/// Everything [`Server::bind_with`] can configure beyond the address.
///
/// The default is a good daemon for one machine: result caching in memory
/// (64 MiB), no disk spill, no journal, no admission bounds.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Job-runner threads (`0` = one per hardware thread).
    pub workers: usize,
    /// Result-cache memory budget in bytes (`0` = nothing kept in
    /// memory).
    pub cache_mem: usize,
    /// Spill directory for the result cache (`None` = memory only). Warm
    /// results in this directory survive restarts.
    pub cache_dir: Option<PathBuf>,
    /// Job-journal path (`None` = in-memory job table). With a journal
    /// the `jobs` table is reconstructed on restart.
    pub journal: Option<PathBuf>,
    /// Maximum queued jobs before submits get a `busy` frame (`0` =
    /// unbounded).
    pub max_queue: usize,
    /// Maximum in-flight jobs per client address (`0` = unbounded).
    pub max_client_jobs: usize,
    /// Server-side cap on any job's wall-clock lifetime in seconds
    /// (`0` = uncapped). A client deadline is clamped to this cap; with a
    /// cap and no client deadline, the cap alone applies. Expiry is
    /// observed at cycle boundaries and ends the job in the terminal
    /// `deadline_exceeded` state.
    pub max_job_secs: u64,
    /// Stall watchdog period in seconds (`0` = no watchdog). A running
    /// job that makes no progress (no cycle row, no scenario boundary)
    /// for this long is cancelled through the normal cancellation path
    /// and journalled with reason `stall`.
    pub stall_secs: u64,
    /// Maximum age in seconds a job may sit queued before a worker sheds
    /// it instead of running it (`0` = no shedding). Shed jobs end
    /// `cancelled` with reason `queue_age` — refusing stale work beats
    /// computing answers nobody is waiting for.
    pub max_queue_age_secs: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            cache_mem: 64 << 20,
            cache_dir: None,
            journal: None,
            max_queue: 0,
            max_client_jobs: 0,
            max_job_secs: 0,
            stall_secs: 0,
            max_queue_age_secs: 0,
        }
    }
}

/// The scenario-serving daemon. Bind, then [`Server::run`]; the call
/// returns after a client issues `shutdown`.
///
/// ```no_run
/// use drcell_serve::Server;
///
/// let server = Server::bind("127.0.0.1:7878", 2).unwrap();
/// server.run().unwrap(); // blocks until a client sends {"cmd":"shutdown"}
/// ```
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    config: ServeConfig,
    workers: usize,
}

impl Server {
    /// Binds the daemon to `addr` with `workers` job-runner threads
    /// (`0` = one per hardware thread,
    /// [`drcell_pool::hardware_threads`]) and the default
    /// [`ServeConfig`] otherwise. Port `0` picks an ephemeral port — read
    /// it back with [`Server::local_addr`].
    ///
    /// # Errors
    ///
    /// Propagates socket binding failures.
    pub fn bind<A: ToSocketAddrs>(addr: A, workers: usize) -> std::io::Result<Server> {
        Server::bind_with(
            addr,
            ServeConfig {
                workers,
                ..ServeConfig::default()
            },
        )
    }

    /// Binds the daemon with full control over caching, durability and
    /// admission — see [`ServeConfig`].
    ///
    /// # Errors
    ///
    /// Propagates socket binding failures.
    pub fn bind_with<A: ToSocketAddrs>(addr: A, config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let workers = if config.workers == 0 {
            drcell_pool::hardware_threads()
        } else {
            config.workers
        }
        .max(1);
        Ok(Server {
            listener,
            config,
            workers,
        })
    }

    /// The bound address (useful with an ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates socket introspection failures.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The effective job-runner thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Serves until a client issues `shutdown`: accepts connections, each
    /// handled on its own thread; jobs queue onto the worker pool. Running
    /// jobs finish during shutdown, queued ones are cancelled (a
    /// journalled table records those cancellations durably).
    ///
    /// # Errors
    ///
    /// Propagates accept-loop socket failures, journal open/replay
    /// failures and cache spill-directory creation failures.
    pub fn run(self) -> std::io::Result<()> {
        let table = match &self.config.journal {
            Some(path) => JobTable::with_journal(Arc::new(Journal::open(path)?))?,
            None => JobTable::new(),
        };
        let cache = ResultCache::new(self.config.cache_mem, self.config.cache_dir.clone())?;
        let cache_active = self.config.cache_mem > 0 || self.config.cache_dir.is_some();
        let shared = Shared {
            table,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            cache,
            cache_active,
            admission: Admission::new(self.config.max_queue, self.config.max_client_jobs),
            max_job_ms: self.config.max_job_secs.saturating_mul(1_000),
            max_queue_age_ms: self.config.max_queue_age_secs.saturating_mul(1_000),
        };
        let addr = self.listener.local_addr()?;
        let mut accept_error = None;
        std::thread::scope(|scope| {
            for _ in 0..self.workers {
                scope.spawn(|| worker_loop(&shared));
            }
            let stall_ms = self.config.stall_secs.saturating_mul(1_000);
            if stall_ms > 0 {
                let shared = &shared;
                scope.spawn(move || watchdog_loop(shared, stall_ms));
            }
            loop {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        if shared.shutting_down() {
                            break;
                        }
                        if crate::fault_io("serve.accept").is_some() {
                            // Injected accept failure: the connection is
                            // dropped on the floor, as if the handshake
                            // died — the daemon itself must keep serving.
                            continue;
                        }
                        let shared = &shared;
                        scope.spawn(move || handle_connection(stream, shared, addr));
                    }
                    Err(e) => {
                        if shared.shutting_down() {
                            break;
                        }
                        // Transient accept failures (a client resetting
                        // mid-handshake, a stray signal) must not kill a
                        // long-running daemon; only persistent socket
                        // errors shut it down.
                        if matches!(
                            e.kind(),
                            ErrorKind::ConnectionAborted
                                | ErrorKind::ConnectionReset
                                | ErrorKind::Interrupted
                                | ErrorKind::TimedOut
                                | ErrorKind::WouldBlock
                        ) {
                            continue;
                        }
                        accept_error = Some(e);
                        shared.shutdown.store(true, Ordering::Release);
                        break;
                    }
                }
            }
            // Wake every idle worker so it can drain + exit.
            shared.available.notify_all();
        });
        match accept_error {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Worker: pop jobs until shutdown, then drain the queue as cancelled.
fn worker_loop(shared: &Shared) {
    loop {
        let next = {
            let mut queue = shared.queue.lock().expect("job queue lock");
            loop {
                // Shutdown first: anything still queued at that point is
                // cancelled below, never started.
                if shared.shutting_down() {
                    break None;
                }
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                queue = shared
                    .available
                    .wait_timeout(queue, READ_POLL)
                    .expect("job queue lock")
                    .0;
            }
        };
        match next {
            Some(queued) => {
                // The job left the queue: free its admission depth unit so
                // new submits can take its place while it runs.
                shared.admission.release_queued();
                if shed_on_pop(&queued, shared) {
                    continue;
                }
                execute_job(queued, shared)
            }
            None => {
                // Shutdown: everything still queued is cancelled, not run.
                loop {
                    let queued = shared.queue.lock().expect("job queue lock").pop_front();
                    let Some(QueuedJob { job, tx, .. }) = queued else {
                        return;
                    };
                    shared.admission.release_queued();
                    end_job(&job, &tx, JobState::Cancelled, Some("shutdown"));
                }
            }
        }
    }
}

/// Load shedding at the pop boundary: a job that waited past the
/// queue-age bound, or whose deadline already expired while queued, is
/// refused here — ended with a typed, journalled reason before a single
/// cycle runs. Returns `true` when the job was shed.
fn shed_on_pop(queued: &QueuedJob, shared: &Shared) -> bool {
    let (job, tx) = (&queued.job, &queued.tx);
    let now = drcell_store::now_ms();
    if job.deadline_expired(now) {
        end_job(job, tx, JobState::DeadlineExceeded, Some("deadline"));
        return true;
    }
    if shared.max_queue_age_ms > 0 && now.saturating_sub(job.queued_ms) > shared.max_queue_age_ms {
        end_job(job, tx, JobState::Cancelled, Some("queue_age"));
        return true;
    }
    false
}

/// Ends `job` in the terminal `state` and sends the frame that closes its
/// stream: `done` (with the job's ok/failed counts) after `Done` or
/// `Failed`, `cancelled` or `deadline_exceeded` after a forced end. A
/// forced end's `reason` is recorded first (the first recorded reason
/// wins), so the journalled terminal record and the `cancelled` frame
/// both carry it.
fn end_job(job: &Job, tx: &SyncSender<String>, state: JobState, reason: Option<&str>) {
    debug_assert!(state.is_terminal(), "{state:?} does not end a stream");
    if let Some(reason) = reason {
        job.set_reason(reason);
    }
    job.set_state(state);
    let frame = match state {
        JobState::Cancelled => Frame::Cancelled {
            job: job.id,
            reason: job.reason(),
        },
        JobState::DeadlineExceeded => Frame::DeadlineExceeded { job: job.id },
        _ => {
            let (ok, failed) = job.outcome();
            Frame::Done {
                job: job.id,
                ok,
                failed,
            }
        }
    };
    let _ = tx.send(frame.to_line());
}

/// The stall watchdog: scans running jobs and cancels any that has made
/// no progress (no cycle row, no scenario boundary) for `stall_ms`. The
/// cancel rides the normal sticky-flag path — the worker observes it at
/// its next send attempt and ends the job `cancelled` with the
/// journalled reason `stall`. Sleeps in [`READ_POLL`] slices so shutdown
/// is never delayed by a long stall budget.
fn watchdog_loop(shared: &Shared, stall_ms: u64) {
    while !shared.shutting_down() {
        let now = drcell_store::now_ms();
        for job in shared.table.running() {
            if now.saturating_sub(job.last_progress_ms()) > stall_ms && !job.is_cancelled() {
                job.set_reason("stall");
                job.cancel();
            }
        }
        // One scan per READ_POLL tick: cheap (the table snapshot is an
        // Arc clone per running job) and detection latency stays well
        // under one stall period.
        std::thread::sleep(READ_POLL);
    }
}

/// Runs one job's scenarios sequentially in matrix order, streaming row
/// and control frames into its channel. Dropping `tx` at the end closes
/// the stream.
///
/// Each scenario consults the result cache first: the engine is
/// bit-deterministic, so a finished stream under the same content key
/// (canonical spec + matrix index) *is* the result — a warm hit replays
/// the stored rows byte for byte instead of recomputing. Only cleanly
/// finished scenarios are inserted; failures and cancellations never
/// poison the cache.
fn execute_job(queued: QueuedJob, shared: &Shared) {
    let QueuedJob {
        job,
        specs,
        offset,
        tx,
    } = queued;
    if job.is_cancelled() {
        end_job(&job, &tx, JobState::Cancelled, None);
        return;
    }
    job.set_state(JobState::Running);
    for (index, spec) in specs.iter().enumerate() {
        // Sliced sweeps report and cache under global matrix indices.
        let index = offset + index;
        if job.is_cancelled() {
            end_job(&job, &tx, JobState::Cancelled, None);
            return;
        }
        if job.deadline_expired(drcell_store::now_ms()) {
            end_job(&job, &tx, JobState::DeadlineExceeded, Some("deadline"));
            return;
        }
        let key = shared.cache_active.then(|| scenario_key(spec, index));
        if let Some(rows) = key.as_deref().and_then(|k| shared.cache.lookup(k)) {
            // Warm hit: replay the stored stream, honouring cancellation,
            // deadlines and client-death exactly like a live run would.
            let mut expired = false;
            for row in rows.iter() {
                if job.is_cancelled() {
                    break;
                }
                if job.deadline_expired(drcell_store::now_ms()) {
                    expired = true;
                    break;
                }
                if tx.send(row.clone()).is_err() {
                    job.set_reason("disconnect");
                    job.cancel();
                    break;
                }
                job.touch_progress();
            }
            if job.is_cancelled() {
                end_job(&job, &tx, JobState::Cancelled, None);
                return;
            }
            if expired {
                end_job(&job, &tx, JobState::DeadlineExceeded, Some("deadline"));
                return;
            }
            job.mark_scenario_finished();
            let _ = tx.send(scenario_frame(&job, index, spec, None));
            continue;
        }
        let policy = spec.policy.label();
        let ctx = RowContext {
            scenario: &spec.name,
            index,
            policy: &policy,
            task: spec.dataset.signal(),
        };
        let mut captured: Vec<String> = Vec::new();
        let outcome = run_scenario_streaming(spec, index, &mut |record| {
            if job.is_cancelled() {
                return ControlFlow::Break(StopReason::Cancelled);
            }
            if job.deadline_expired(drcell_store::now_ms()) {
                job.set_reason("deadline");
                return ControlFlow::Break(StopReason::DeadlineExceeded);
            }
            let row = row_json(ctx, record);
            if key.is_some() {
                captured.push(row.clone());
            }
            if tx.send(row).is_err() {
                // The connection side is gone; treat it as a cancel so the
                // run stops at the next cycle boundary.
                job.set_reason("disconnect");
                job.cancel();
                return ControlFlow::Break(StopReason::Cancelled);
            }
            // The heartbeat the stall watchdog reads: one cycle streamed.
            job.touch_progress();
            // Chaos seam: freeze this worker between cycles (a `delay`
            // fault here) so the watchdog provably detects no-progress.
            let _ = crate::fault_io("serve.worker_stall");
            ControlFlow::Continue(())
        });
        match outcome {
            Ok(_) => {
                if let Some(k) = &key {
                    shared.cache.insert(k, captured);
                }
                job.mark_scenario_finished();
                let _ = tx.send(scenario_frame(&job, index, spec, None));
            }
            Err(e) if e.is_cancelled() => {
                end_job(&job, &tx, JobState::Cancelled, None);
                return;
            }
            Err(e) if e.is_deadline() => {
                end_job(&job, &tx, JobState::DeadlineExceeded, Some("deadline"));
                return;
            }
            Err(e) => {
                job.mark_scenario_failed();
                let _ = tx.send(scenario_frame(&job, index, spec, Some(e.to_string())));
            }
        }
    }
    let (_, failed) = job.outcome();
    let state = if failed > 0 {
        JobState::Failed
    } else {
        JobState::Done
    };
    end_job(&job, &tx, state, None);
}

/// The `scenario` frame closing one matrix entry of `job`'s stream.
fn scenario_frame(job: &Job, index: usize, spec: &ScenarioSpec, error: Option<String>) -> String {
    Frame::Scenario {
        job: job.id,
        index,
        name: spec.name.clone(),
        error,
    }
    .to_line()
}

enum LineRead {
    Line,
    Closed,
    /// The line outgrew [`MAX_REQUEST_BYTES`] — the framing is beyond
    /// recovery, so the connection gets one error frame and is dropped.
    Overflow,
}

/// Reads one request line as raw bytes, polling the shutdown flag while
/// blocked. Bytes (not `read_line`/`String`) so that a poll timeout
/// landing mid-way through a multi-byte UTF-8 character cannot surface as
/// `InvalidData` and drop the connection — validation happens once, on
/// the complete line, where a bad sequence is a malformed *frame* (one
/// error response), not a dead connection.
fn read_line(reader: &mut BufReader<TcpStream>, line: &mut Vec<u8>, shared: &Shared) -> LineRead {
    if crate::fault_io("serve.read_frame").is_some() {
        // Injected read failure: indistinguishable from the peer dying,
        // which is exactly how real read errors are handled below.
        return LineRead::Closed;
    }
    loop {
        if line.len() > MAX_REQUEST_BYTES {
            return LineRead::Overflow;
        }
        // `take` bounds even a single call: a firehose of newline-free
        // bytes can otherwise grow `line` without limit inside one
        // read_until. Limit = cap + 1 so hitting it is distinguishable
        // from an exact-size line.
        let limit = (MAX_REQUEST_BYTES + 1 - line.len()) as u64;
        match (&mut *reader).take(limit).read_until(b'\n', line) {
            Ok(0) => return LineRead::Closed,
            Ok(_) => {
                if line.last() == Some(&b'\n') {
                    return LineRead::Line;
                }
                if line.len() > MAX_REQUEST_BYTES {
                    return LineRead::Overflow;
                }
                // No newline and under the cap: genuine EOF mid-line —
                // process what arrived; the next read reports Closed.
                return LineRead::Line;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                // Read timeout: partial input stays accumulated in `line`;
                // keep waiting unless the server is going down.
                if shared.shutting_down() {
                    return LineRead::Closed;
                }
            }
            Err(_) => return LineRead::Closed,
        }
    }
}

/// Writes `frame` as one reply line; `false` when the client is gone.
fn reply(writer: &mut TcpStream, frame: &Frame) -> bool {
    write_line(writer, &frame.to_line()).is_ok()
}

/// An `error` reply frame.
fn error(message: impl Into<String>) -> Frame {
    Frame::Error {
        message: message.into(),
    }
}

fn write_line(writer: &mut TcpStream, line: &str) -> std::io::Result<()> {
    if let Some(e) = crate::fault_io("serve.write_frame") {
        // Injected write failure — the same shape as a write deadline
        // expiring mid-frame; callers treat it as a dead client.
        return Err(e);
    }
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")
}

/// One client connection: a sequential request/response loop. Job streams
/// are exclusive — while a job streams, the connection serves that job
/// only (submit concurrent jobs over separate connections).
/// The admission identity of a connection: the peer IP (per-client caps
/// bound what one *machine* can hold in flight, not what one connection
/// can). When the peer address is unknowable, every such connection used
/// to share the single literal `"unknown"` — one admission bucket, so
/// unrelated clients could exhaust each other's `--max-client-jobs` cap.
/// Now each falls back to a process-unique key: no cross-client
/// interference, at the cost of the per-machine bound not aggregating
/// those (rare) connections.
fn admission_key(peer: std::io::Result<SocketAddr>) -> String {
    static ANON_CONN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    match peer {
        Ok(addr) => addr.ip().to_string(),
        Err(_) => format!("conn#{}", ANON_CONN.fetch_add(1, Ordering::Relaxed)),
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared, server_addr: SocketAddr) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let client = admission_key(stream.peer_addr());
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        line.clear();
        match read_line(&mut reader, &mut line, shared) {
            LineRead::Closed => return,
            LineRead::Overflow => {
                // Framing is unrecoverable past the cap: one error frame,
                // then drop the connection.
                reply(
                    &mut writer,
                    &error(format!("request line exceeds {MAX_REQUEST_BYTES} bytes")),
                );
                return;
            }
            LineRead::Line => {}
        }
        // Invalid UTF-8 becomes replacement characters, which fail JSON
        // parsing below and earn an error frame like any malformed input.
        let text = String::from_utf8_lossy(&line);
        let trimmed = text.trim();
        if trimmed.is_empty() {
            continue;
        }
        let keep_going = match Request::parse(trimmed) {
            // A malformed frame costs one error response, not the
            // connection (and certainly not the server).
            Err(e) => reply(&mut writer, &error(e.to_string())),
            Ok(request) => dispatch(request, &mut writer, shared, server_addr, &client),
        };
        if !keep_going {
            return;
        }
    }
}

/// Handles one parsed request; returns `false` when the connection should
/// close (write failure or shutdown).
fn dispatch(
    request: Request,
    writer: &mut TcpStream,
    shared: &Shared,
    server_addr: SocketAddr,
    client: &str,
) -> bool {
    match request {
        Request::List => {
            let names = registry::registry().into_iter().map(|s| s.name).collect();
            reply(writer, &Frame::ScenarioNames { names })
        }
        Request::Jobs => reply(
            writer,
            &Frame::JobTable(JobsSnapshot {
                now_ms: drcell_store::now_ms(),
                jobs: shared.table.snapshot(),
            }),
        ),
        Request::Stats => {
            let cache = shared.cache.stats();
            let queue_depth = shared.queue.lock().expect("job queue lock").len();
            let admission = shared.admission.snapshot();
            reply(
                writer,
                &Frame::Stats(ServerStats {
                    mem_hits: cache.mem_hits,
                    disk_hits: cache.disk_hits,
                    misses: cache.misses,
                    entries: cache.entries,
                    bytes: cache.bytes,
                    queue_depth,
                    inflight_slots: admission.inflight_slots,
                }),
            )
        }
        Request::Cancel { job } => match shared.table.get(job) {
            Some(entry) => {
                entry.cancel();
                // A queued job may never reach a worker before shutdown;
                // flag it here so `jobs` reflects the request immediately
                // once the worker pops it. Running jobs transition at
                // their next cycle boundary.
                let state = entry.state();
                reply(writer, &Frame::CancelAck { job, state })
            }
            None => reply(writer, &error(format!("no job {job}"))),
        },
        Request::Ping => {
            // Answered inline: no queue, no admission, no worker — a pong
            // certifies transport health only, which is the exact property
            // a coordinator needs before re-admitting a retired daemon.
            let now_ms = drcell_store::now_ms();
            reply(writer, &Frame::Pong { now_ms })
        }
        Request::Shutdown => {
            reply(writer, &Frame::ShutdownAck);
            shared.shutdown.store(true, Ordering::Release);
            shared.available.notify_all();
            // Unblock the accept loop so it can observe the flag. A
            // wildcard bind (0.0.0.0 / [::]) is not connectable on every
            // platform — wake through loopback instead.
            let mut wake = server_addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake.ip() {
                    IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                    IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
                });
            }
            let _ = TcpStream::connect(wake);
            false
        }
        Request::Run {
            target,
            deadline_ms,
        } => {
            let spec = match target {
                RunTarget::Name(name) => match registry::find(&name) {
                    Some(spec) => spec,
                    None => return reply(writer, &error(format!("no built-in scenario `{name}`"))),
                },
                RunTarget::Spec(spec) => *spec,
            };
            submit(vec![spec], 0, deadline_ms, writer, shared, client)
        }
        Request::Sweep {
            spec,
            range,
            deadline_ms,
        } => {
            let mut specs = spec.expand();
            if specs.is_empty() {
                return reply(writer, &error("sweep expands to no scenarios"));
            }
            let offset = match range {
                None => 0,
                Some((start, end)) => {
                    // Validate against the expanded matrix so a stale
                    // shard plan gets a loud request error, never a
                    // silently truncated slice.
                    if start >= end || end > specs.len() {
                        return reply(
                            writer,
                            &error(format!(
                                "sweep slice {start}..{end} is invalid for a \
                                 {}-scenario matrix",
                                specs.len()
                            )),
                        );
                    }
                    specs.truncate(end);
                    specs.drain(..start);
                    start
                }
            };
            submit(specs, offset, deadline_ms, writer, shared, client)
        }
    }
}

/// The absolute server-clock deadline for a job accepted now: the
/// client's relative budget (ms) and the server cap
/// ([`ServeConfig::max_job_secs`]) are both applied, whichever is
/// tighter; `0` = unbounded (no budget, no cap).
fn effective_deadline(now_ms: u64, client_budget_ms: Option<u64>, max_job_ms: u64) -> u64 {
    let budget = match (client_budget_ms, max_job_ms) {
        (None, 0) => return 0,
        (None, cap) => cap,
        (Some(b), 0) => b,
        (Some(b), cap) => b.min(cap),
    };
    now_ms.saturating_add(budget.max(1))
}

/// Queues a job and streams its frames back until it finishes. Admission
/// happens first — a refused submit costs one `busy` frame and creates no
/// job at all. `offset` is the global matrix index of `specs[0]` (non-zero
/// for sweep slices).
fn submit(
    specs: Vec<ScenarioSpec>,
    offset: usize,
    deadline_ms: Option<u64>,
    writer: &mut TcpStream,
    shared: &Shared,
    client: &str,
) -> bool {
    let scenarios = specs.len();
    let (tx, rx) = mpsc::sync_channel::<String>(FRAME_BUFFER);
    // Admission first, under the controller's own lock (it accounts queue
    // depth internally, released when a worker pops the job): a refused
    // submit costs one busy frame and creates no job at all.
    let _slot = match shared.admission.try_admit(client) {
        Ok(slot) => slot,
        Err(busy) => {
            return reply(
                writer,
                &Frame::Busy {
                    reason: busy.reason.as_str().to_owned(),
                    depth: busy.depth,
                    limit: busy.limit,
                    retry_after_ms: busy.retry_after_ms(),
                },
            );
        }
    };
    if shared.shutting_down() {
        shared.admission.release_queued();
        return reply(writer, &error("server is shutting down"));
    }
    // The client's relative time budget becomes an absolute server-clock
    // deadline here, clamped by the server cap — skew-immune because only
    // the server's clock is ever compared against it.
    let deadline = effective_deadline(drcell_store::now_ms(), deadline_ms, shared.max_job_ms);
    // Create (and, on a durable table, journal) the job *before* taking
    // the queue lock: the journal append is a disk flush, and holding the
    // queue mutex across it would stall every worker pop and every other
    // connection's submit. Create-record id order in the journal is
    // guaranteed by the table's own lock, not this one.
    let job = shared
        .table
        .create(scenarios, (deadline != 0).then_some(deadline));
    {
        // The shutdown check must share the queue lock with the push and
        // with the workers' own flag check: workers only exit after
        // observing the flag under this lock, so a job pushed while the
        // flag is still false (under the lock) is guaranteed to be either
        // executed or drain-cancelled — never orphaned with every worker
        // already gone (which would wedge the recv() loop below forever).
        let mut queue = shared.queue.lock().expect("job queue lock");
        if shared.shutting_down() {
            drop(queue);
            shared.admission.release_queued();
            // The job already exists (and is journalled on a durable
            // table); record the honest outcome instead of erasing it.
            job.set_reason("shutdown");
            job.cancel();
            job.set_state(JobState::Cancelled);
            return reply(writer, &error("server is shutting down"));
        }
        queue.push_back(QueuedJob {
            job: Arc::clone(&job),
            specs,
            offset,
            tx,
        });
    }
    shared.available.notify_one();
    let mut client_alive = reply(
        writer,
        &Frame::Accepted {
            job: job.id,
            scenarios,
        },
    );
    if !client_alive {
        job.set_reason("disconnect");
        job.cancel();
    }
    // Forward frames until the worker drops the sender. If the client
    // stops accepting them — the socket write deadline ([`WRITE_TIMEOUT`])
    // expires or the write fails outright — cancel the job but keep
    // draining so the worker never blocks on a dead connection. This is
    // the slow-consumer bound: one dead client costs exactly its own job.
    while let Ok(frame) = rx.recv() {
        if client_alive && write_line(writer, &frame).is_err() {
            client_alive = false;
            job.set_reason("disconnect");
            job.cancel();
        }
    }
    client_alive
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_keys_are_unique_when_the_peer_is_unknown() {
        let addr: SocketAddr = "198.51.100.7:4991".parse().unwrap();
        assert_eq!(admission_key(Ok(addr)), "198.51.100.7");

        let anon = || {
            admission_key(Err(std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                "no peer",
            )))
        };
        let (a, b) = (anon(), anon());
        assert!(a.starts_with("conn#"), "unexpected fallback key {a:?}");
        // The old fallback was the shared literal "unknown": every
        // peerless connection landed in one admission bucket and could
        // exhaust the per-client job cap for all the others.
        assert_ne!(a, b, "fallback admission keys must be per-connection");
    }
}
