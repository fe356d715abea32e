//! A blocking, dependency-free client for the daemon — the library the
//! CLI client commands, the examples and the test suites are built on.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::time::Duration;

use drcell_scenario::{ScenarioSpec, SweepSpec};

use crate::protocol::{Frame, JobState, JobsSnapshot, Request, RunTarget, ServerStats};
use crate::ServeError;

/// The client's transport deadlines. Every limit is optional; `None`
/// means unbounded (the raw blocking-socket behaviour).
///
/// The defaults are chosen for talking to a *remote* daemon: connects
/// fail after 10 s instead of hanging on an unreachable address, writes
/// fail after 30 s on a stalled peer, and **reads stay unbounded** —
/// a job stream legitimately goes quiet for as long as one testing cycle
/// (or a whole policy-training phase) takes to compute, so a default read
/// deadline would kill healthy long jobs. Set [`ClientConfig::read`] only
/// when an upper bound on inter-frame gaps is actually known (idle
/// control connections, coordinators with their own liveness policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Deadline for establishing the TCP connection (default 10 s).
    pub connect: Option<Duration>,
    /// Deadline for each socket read (default `None`: job streams block
    /// until the next frame, however long the server computes).
    pub read: Option<Duration>,
    /// Deadline for each socket write (default 30 s).
    pub write: Option<Duration>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect: Some(Duration::from_secs(10)),
            read: None,
            write: Some(Duration::from_secs(30)),
        }
    }
}

impl ClientConfig {
    /// No deadlines at all — every call blocks indefinitely.
    pub fn unbounded() -> Self {
        ClientConfig {
            connect: None,
            read: None,
            write: None,
        }
    }
}

/// Hard cap on one reply frame, so a peer streaming newline-free bytes
/// cannot grow the client's buffer without bound.
///
/// Not the server's 4 MiB request cap: every reply but one is bounded by
/// what a request can carry (a row is one test cycle, names echo the
/// request), but the `jobs` table lists every job the daemon has held —
/// about 150 bytes each, kept across restarts by the journal — and passes
/// 4 MiB after some 28 000 jobs. 64 MiB leaves that table room for ~450 000.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// A client time budget on the wire: whole milliseconds, at least 1 so a
/// sub-millisecond budget still rounds to a real (immediately expiring)
/// deadline instead of silently meaning "unbounded".
fn budget_ms(deadline: Option<Duration>) -> Option<u64> {
    deadline.map(|d| (d.as_millis() as u64).max(1))
}

/// Maps a transport failure to [`ServeError`], surfacing expired
/// deadlines as the distinct [`ServeError::Timeout`].
fn transport_error(during: &str, e: std::io::Error) -> ServeError {
    if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
        ServeError::Timeout(during.to_owned())
    } else {
        ServeError::Io(e)
    }
}

/// A blocking client over one daemon connection. Requests are sequential:
/// a submitted job streams to completion (or cancellation) before the
/// connection can issue the next request — run concurrent jobs over
/// separate clients.
///
/// # Deadlines
///
/// [`Client::connect`] applies [`ClientConfig::default`] (bounded connect
/// and write, unbounded read); [`Client::connect_with`] takes explicit
/// deadlines. An expired deadline surfaces as [`ServeError::Timeout`],
/// and — like any transport failure — **poisons** the client: the
/// connection's framing can no longer be trusted (a reply may be half
/// read or half written), so every later request fails loudly instead of
/// desyncing.
///
/// # Abandoned job streams
///
/// Dropping a [`JobStream`] before its final frame used to leave the
/// job's remaining `row`/`done` frames in the socket, where the next
/// request would silently consume them as its reply. Now the stream's
/// `Drop` poisons the client and shuts the connection down, which also
/// makes the daemon cancel the abandoned job at its next row. Drain
/// streams (e.g. [`JobStream::collect`]) to keep a connection reusable.
///
/// ```
/// use drcell_serve::{Client, Server};
///
/// // An in-process daemon on an ephemeral port, 2 job workers.
/// let server = Server::bind("127.0.0.1:0", 2).unwrap();
/// let addr = server.local_addr().unwrap();
/// let daemon = std::thread::spawn(move || server.run());
///
/// let mut client = Client::connect(addr).unwrap();
/// let names = client.list().unwrap();
/// assert!(names.contains(&"synthetic-smooth".to_owned()));
///
/// // Stream a (cheap) scenario: registry spec, policy swapped for the
/// // training-free baseline.
/// let mut spec = drcell_scenario::registry::find("synthetic-smooth").unwrap();
/// spec.policy = drcell_scenario::PolicySpec::Random;
/// let output = client.run_spec(&spec).unwrap().collect().unwrap();
/// assert!(!output.rows.is_empty());
/// assert_eq!(output.ok, 1);
///
/// client.shutdown().unwrap();
/// daemon.join().unwrap().unwrap();
/// ```
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// `Some(reason)` once the connection's framing can no longer be
    /// trusted; every later request fails with the reason.
    poisoned: Option<String>,
}

impl Client {
    /// Connects to a running daemon with the default deadlines
    /// ([`ClientConfig::default`]: 10 s connect, 30 s write, unbounded
    /// read).
    ///
    /// # Errors
    ///
    /// Propagates socket failures; an expired connect deadline is
    /// [`ServeError::Timeout`].
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ServeError> {
        Client::connect_with(addr, &ClientConfig::default())
    }

    /// Connects with explicit deadlines. With a connect deadline set,
    /// every resolved address is tried in turn before giving up (the
    /// deadline applies per attempt).
    ///
    /// # Errors
    ///
    /// Propagates socket failures; expired deadlines are
    /// [`ServeError::Timeout`].
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        config: &ClientConfig,
    ) -> Result<Client, ServeError> {
        if let Some(fault) = crate::fault_io("client.connect") {
            return Err(transport_error("connect", fault));
        }
        let stream = match config.connect {
            None => TcpStream::connect(addr).map_err(|e| transport_error("connect", e))?,
            Some(deadline) => {
                let mut last: Option<std::io::Error> = None;
                let mut stream = None;
                for resolved in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&resolved, deadline) {
                        Ok(s) => {
                            stream = Some(s);
                            break;
                        }
                        Err(e) => last = Some(e),
                    }
                }
                match stream {
                    Some(s) => s,
                    None => {
                        let e = last.unwrap_or_else(|| {
                            std::io::Error::new(
                                ErrorKind::InvalidInput,
                                "address resolved to no socket address",
                            )
                        });
                        return Err(transport_error("connect", e));
                    }
                }
            }
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(config.read)?;
        stream.set_write_timeout(config.write)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
            poisoned: None,
        })
    }

    /// Fails if the client is poisoned (an abandoned job stream or a
    /// transport failure left the connection's framing unknown).
    fn ensure_usable(&self) -> Result<(), ServeError> {
        match &self.poisoned {
            Some(reason) => Err(ServeError::Protocol(format!("client poisoned: {reason}"))),
            None => Ok(()),
        }
    }

    /// Marks the connection unusable and tears it down, so the daemon
    /// sees the disconnect (and cancels any job this connection was
    /// streaming) instead of blocking on a peer that will never read.
    fn poison(&mut self, reason: &str) {
        if self.poisoned.is_none() {
            self.poisoned = Some(reason.to_owned());
        }
        let _ = self.writer.shutdown(Shutdown::Both);
    }

    fn send(&mut self, request: &Request) -> Result<(), ServeError> {
        self.ensure_usable()?;
        if let Some(fault) = crate::fault_io("client.write") {
            let e = transport_error("write request", fault);
            self.poison(&e.to_string());
            return Err(e);
        }
        let mut line = request.to_line();
        line.push('\n');
        // A failed or timed-out write may have sent a prefix of the
        // request; the connection's framing is gone either way.
        self.writer.write_all(line.as_bytes()).map_err(|e| {
            let e = transport_error("write request", e);
            self.poison(&e.to_string());
            e
        })
    }

    fn read_frame(&mut self) -> Result<Frame, ServeError> {
        self.ensure_usable()?;
        if let Some(fault) = crate::fault_io("client.read_frame") {
            let e = transport_error("read frame", fault);
            self.poison(&e.to_string());
            return Err(e);
        }
        let mut line = Vec::new();
        // `take` bounds the read itself; cap + 1 for the newline.
        let read = (&mut self.reader)
            .take(MAX_FRAME_BYTES as u64 + 1)
            .read_until(b'\n', &mut line);
        let e = match read {
            // A timed-out or failed read may have consumed part of a
            // frame into the buffer; only a loud failure is safe now.
            Err(e) => transport_error("read frame", e),
            Ok(0) => ServeError::Protocol("server closed the connection".to_owned()),
            Ok(_) if line.len() > MAX_FRAME_BYTES && line.last() != Some(&b'\n') => {
                // The rest of the oversized frame is still in flight, so
                // the framing is gone.
                ServeError::Protocol(format!("frame exceeds {MAX_FRAME_BYTES} bytes"))
            }
            Ok(_) => match String::from_utf8(line) {
                Ok(text) => return Frame::parse(text.trim_end_matches('\n')),
                Err(_) => ServeError::Protocol("frame is not UTF-8".to_owned()),
            },
        };
        self.poison(&e.to_string());
        Err(e)
    }

    /// Reads the single reply frame of a non-streaming request.
    fn read_reply(&mut self) -> Result<Frame, ServeError> {
        match self.read_frame()? {
            Frame::Error { message } => Err(ServeError::Server(message)),
            Frame::Busy {
                reason,
                depth,
                limit,
                retry_after_ms,
            } => Err(ServeError::Busy {
                reason,
                depth,
                limit,
                retry_after_ms,
            }),
            frame => Ok(frame),
        }
    }

    /// Names of the daemon's built-in scenario registry.
    ///
    /// # Errors
    ///
    /// Propagates transport, protocol and server errors.
    pub fn list(&mut self) -> Result<Vec<String>, ServeError> {
        self.send(&Request::List)?;
        match self.read_reply()? {
            Frame::ScenarioNames { names } => Ok(names),
            other => Err(ServeError::unexpected("scenarios", &other)),
        }
    }

    /// Snapshot of the daemon's job table, stamped with the server clock
    /// it was taken at (compute live durations against that stamp, not
    /// this machine's clock).
    ///
    /// # Errors
    ///
    /// Propagates transport, protocol and server errors.
    pub fn jobs(&mut self) -> Result<JobsSnapshot, ServeError> {
        self.send(&Request::Jobs)?;
        match self.read_reply()? {
            Frame::JobTable(snapshot) => Ok(snapshot),
            other => Err(ServeError::unexpected("jobs", &other)),
        }
    }

    /// The daemon's result-cache and queue counters.
    ///
    /// # Errors
    ///
    /// Propagates transport, protocol and server errors.
    pub fn stats(&mut self) -> Result<ServerStats, ServeError> {
        self.send(&Request::Stats)?;
        match self.read_reply()? {
            Frame::Stats(stats) => Ok(stats),
            other => Err(ServeError::unexpected("stats", &other)),
        }
    }

    /// Requests cancellation of a job (submitted on *any* connection);
    /// returns the job's state at acknowledgement time.
    ///
    /// # Errors
    ///
    /// Propagates transport and protocol errors; [`ServeError::Server`]
    /// for an unknown job id.
    pub fn cancel(&mut self, job: u64) -> Result<JobState, ServeError> {
        self.send(&Request::Cancel { job })?;
        match self.read_reply()? {
            Frame::CancelAck { state, .. } => Ok(state),
            other => Err(ServeError::unexpected("cancel", &other)),
        }
    }

    /// Liveness probe: sends `ping`, returns the server's wall clock
    /// (epoch ms) from the `pong`. Answered by the daemon's connection
    /// thread without touching the job queue, so it proves transport
    /// health (the property shard dispatch needs) even on a saturated
    /// daemon — the coordinator probes retired daemons with exactly this
    /// before re-admitting them.
    ///
    /// # Errors
    ///
    /// Propagates transport, protocol and server errors.
    pub fn ping(&mut self) -> Result<u64, ServeError> {
        self.send(&Request::Ping)?;
        match self.read_reply()? {
            Frame::Pong { now_ms } => Ok(now_ms),
            other => Err(ServeError::unexpected("pong", &other)),
        }
    }

    /// Asks the daemon to shut down (queued jobs cancelled, running jobs
    /// finish) and consumes the client.
    ///
    /// # Errors
    ///
    /// Propagates transport, protocol and server errors.
    pub fn shutdown(mut self) -> Result<(), ServeError> {
        self.send(&Request::Shutdown)?;
        match self.read_reply()? {
            Frame::ShutdownAck => Ok(()),
            other => Err(ServeError::unexpected("shutdown", &other)),
        }
    }

    /// Submits a registry scenario by name as a streaming job.
    ///
    /// # Errors
    ///
    /// Propagates transport and protocol errors; [`ServeError::Server`]
    /// for an unknown name; [`ServeError::Busy`] when admission refuses
    /// the submit.
    pub fn run_name(&mut self, name: &str) -> Result<JobStream<'_>, ServeError> {
        self.run_name_with(name, None)
    }

    /// [`Client::run_name`] with an optional time budget the server
    /// enforces: the job ends in the terminal `deadline_exceeded` state
    /// at the first cycle boundary past the deadline (the server may
    /// clamp the budget to its own `--max-job-secs` cap).
    ///
    /// # Errors
    ///
    /// Propagates transport, protocol and server errors.
    pub fn run_name_with(
        &mut self,
        name: &str,
        deadline: Option<Duration>,
    ) -> Result<JobStream<'_>, ServeError> {
        self.submit(Request::Run {
            target: RunTarget::Name(name.to_owned()),
            deadline_ms: budget_ms(deadline),
        })
    }

    /// Submits one inline scenario as a streaming job.
    ///
    /// # Errors
    ///
    /// Propagates transport, protocol and server errors.
    pub fn run_spec(&mut self, spec: &ScenarioSpec) -> Result<JobStream<'_>, ServeError> {
        self.run_spec_with(spec, None)
    }

    /// [`Client::run_spec`] with an optional server-enforced time budget
    /// (see [`Client::run_name_with`]).
    ///
    /// # Errors
    ///
    /// Propagates transport, protocol and server errors.
    pub fn run_spec_with(
        &mut self,
        spec: &ScenarioSpec,
        deadline: Option<Duration>,
    ) -> Result<JobStream<'_>, ServeError> {
        self.submit(Request::Run {
            target: RunTarget::Spec(Box::new(spec.clone())),
            deadline_ms: budget_ms(deadline),
        })
    }

    /// Submits a sweep as one streaming job (scenarios stream in matrix
    /// order).
    ///
    /// # Errors
    ///
    /// Propagates transport, protocol and server errors.
    pub fn sweep(&mut self, spec: &SweepSpec) -> Result<JobStream<'_>, ServeError> {
        self.sweep_with(spec, None)
    }

    /// [`Client::sweep`] with an optional server-enforced time budget
    /// (see [`Client::run_name_with`]).
    ///
    /// # Errors
    ///
    /// Propagates transport, protocol and server errors.
    pub fn sweep_with(
        &mut self,
        spec: &SweepSpec,
        deadline: Option<Duration>,
    ) -> Result<JobStream<'_>, ServeError> {
        self.submit(Request::Sweep {
            spec: Box::new(spec.clone()),
            range: None,
            deadline_ms: budget_ms(deadline),
        })
    }

    /// Submits the `start..end` slice of a sweep's scenario matrix as one
    /// streaming job — the shard primitive of federated sweeps. The
    /// server expands the full matrix, runs only the slice, and streams
    /// every row and `scenario` frame under its **global** matrix index,
    /// so per-shard outputs concatenate back into the single-host JSONL
    /// byte for byte.
    ///
    /// # Errors
    ///
    /// Propagates transport, protocol and server errors (an out-of-range
    /// or empty slice is a server error).
    pub fn sweep_range(
        &mut self,
        spec: &SweepSpec,
        start: usize,
        end: usize,
    ) -> Result<JobStream<'_>, ServeError> {
        self.sweep_range_with(spec, start, end, None)
    }

    /// [`Client::sweep_range`] with an optional server-enforced time
    /// budget — the knob federated sweeps use to bound each shard (see
    /// [`crate::coordinator::FleetConfig::shard_deadline`]).
    ///
    /// # Errors
    ///
    /// Propagates transport, protocol and server errors.
    pub fn sweep_range_with(
        &mut self,
        spec: &SweepSpec,
        start: usize,
        end: usize,
        deadline: Option<Duration>,
    ) -> Result<JobStream<'_>, ServeError> {
        self.submit(Request::Sweep {
            spec: Box::new(spec.clone()),
            range: Some((start, end)),
            deadline_ms: budget_ms(deadline),
        })
    }

    fn submit(&mut self, request: Request) -> Result<JobStream<'_>, ServeError> {
        self.send(&request)?;
        match self.read_reply()? {
            Frame::Accepted { job, scenarios } => Ok(JobStream {
                client: self,
                job,
                scenarios,
                finished: false,
            }),
            other => Err(ServeError::unexpected("accepted", &other)),
        }
    }
}

/// The frame stream of one submitted job. Use [`JobStream::collect`]
/// unless you need frame-by-frame control.
///
/// Dropping the stream before its final frame (`done`/`cancelled`)
/// **poisons the client**: the job's remaining frames are still in the
/// socket, so the connection cannot serve another request without
/// desyncing. The drop also shuts the connection down, which the daemon
/// treats as a client death — the abandoned job is cancelled at its next
/// row. To keep the connection, drain the stream instead of dropping it.
#[derive(Debug)]
pub struct JobStream<'a> {
    client: &'a mut Client,
    /// Server-assigned job id (use it to `cancel` from another client).
    pub job: u64,
    /// Scenario count the job expanded to.
    pub scenarios: usize,
    finished: bool,
}

/// Everything a fully drained job stream produced.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutput {
    /// Raw result rows, in matrix order — byte-identical to the CLI's
    /// `--jsonl` file for the same spec.
    pub rows: Vec<String>,
    /// `(matrix index, error)` of every failed scenario.
    pub scenario_errors: Vec<(usize, String)>,
    /// Scenarios that succeeded.
    pub ok: usize,
    /// Scenarios that failed.
    pub failed: usize,
    /// `true` when the job ended by cancellation instead of completion.
    pub cancelled: bool,
    /// `true` when the job ran out of time (its client deadline or the
    /// server's `--max-job-secs` cap) — terminal, like a cancel, but
    /// typed so retry policy can treat the two differently.
    pub deadline_exceeded: bool,
}

impl JobStream<'_> {
    /// The next frame, or `None` once the stream has ended (`done` or
    /// `cancelled`).
    ///
    /// # Errors
    ///
    /// Propagates transport and protocol errors; [`ServeError::Server`]
    /// if the server reports a request-level error mid-stream.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, ServeError> {
        if self.finished {
            return Ok(None);
        }
        let frame = match self.client.read_frame() {
            Ok(frame) => frame,
            Err(e) => {
                // The transport failed (the client is already poisoned);
                // the stream can never produce its final frame, so mark it
                // finished to keep `Drop` from re-poisoning with a less
                // precise reason.
                self.finished = true;
                return Err(e);
            }
        };
        if frame.ends_stream() {
            self.finished = true;
        }
        match frame {
            Frame::Error { message } => {
                self.finished = true;
                Err(ServeError::Server(message))
            }
            frame => Ok(Some(frame)),
        }
    }

    /// Drains the stream to its end and aggregates it.
    ///
    /// # Errors
    ///
    /// Propagates transport, protocol and server errors.
    pub fn collect(mut self) -> Result<JobOutput, ServeError> {
        let mut output = JobOutput {
            rows: Vec::new(),
            scenario_errors: Vec::new(),
            ok: 0,
            failed: 0,
            cancelled: false,
            deadline_exceeded: false,
        };
        while let Some(frame) = self.next_frame()? {
            match frame {
                Frame::Row(row) => output.rows.push(row),
                Frame::Scenario {
                    index,
                    error: Some(error),
                    ..
                } => output.scenario_errors.push((index, error)),
                Frame::Scenario { .. } => {}
                Frame::Done { ok, failed, .. } => {
                    output.ok = ok;
                    output.failed = failed;
                }
                Frame::Cancelled { .. } => output.cancelled = true,
                Frame::DeadlineExceeded { .. } => output.deadline_exceeded = true,
                unexpected => return Err(ServeError::unexpected("stream frame", &unexpected)),
            }
        }
        Ok(output)
    }
}

impl Drop for JobStream<'_> {
    fn drop(&mut self) {
        if !self.finished {
            // The job's remaining frames are still in flight; the next
            // request on this connection would read them as its reply.
            // Fail loudly from here on, and close the socket so the
            // daemon cancels the abandoned job instead of streaming into
            // a buffer nobody drains.
            self.client.poison(&format!(
                "job {} stream dropped before its final frame; the connection is desynced",
                self.job
            ));
        }
    }
}
