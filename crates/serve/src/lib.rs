//! # drcell-serve — the scenario-serving daemon
//!
//! The ROADMAP's async-serving layer: a long-running, dependency-free
//! (std-only) TCP daemon that turns the batch scenario engine into a
//! service. Clients submit [`ScenarioSpec`]/[`SweepSpec`] jobs as
//! newline-delimited JSON and receive the result rows **streamed back as
//! they are produced**, cycle by cycle, through
//! [`SparseMcsRunner::run_with_control`] — the deployment shape the
//! DR-Cell paper assumes (cell selection running online, cycle after
//! cycle), without giving up one bit of the engine's reproducibility.
//!
//! ## The contract
//!
//! * **Determinism.** The row frames of a job are produced and serialised
//!   by exactly the code behind `drcell-scenario run/sweep --jsonl`
//!   ([`run_scenario_streaming`] + [`sink::row_json`]): stripping the
//!   `{"event":…` control frames from a job stream yields a file
//!   byte-identical to the CLI's, for any worker count and any number of
//!   concurrent jobs. CI enforces this with a live smoke test, and
//!   `tests/serve_determinism.rs` pins it in-tree.
//! * **One thread per job.** A scenario is single-threaded, so `N` job
//!   workers keep at most `N` cores busy, exactly like an `N`-thread
//!   sweep.
//! * **Isolation.** A failing scenario fails only itself; a cancelled or
//!   disconnected client kills only its own job (at the next cycle
//!   boundary, via the sticky cancel flag in the [`job`] table); malformed
//!   frames cost an `error` response, not the connection.
//!
//! * **Caching and durability.** The daemon fronts a
//!   [`drcell_store::ResultCache`]: scenario results are keyed by content
//!   hash of the canonical spec (plus matrix index), and a warm hit
//!   replays the finished stream **byte-identical to a recompute** — the
//!   determinism contract is what makes the cache sound. With
//!   [`ServeConfig::journal`] the job table survives restarts (jobs that
//!   died queued/running are reported `cancelled`, not forgotten); with
//!   [`ServeConfig::cache_dir`] finished results do too. Overload is a
//!   structured `busy` frame ([`ServeError::Busy`]) carrying a
//!   load-derived `retry_after_ms` back-off hint, bounded by
//!   [`ServeConfig::max_queue`] and [`ServeConfig::max_client_jobs`].
//! * **Overload protection.** Under any load the daemon either serves a
//!   byte-identical stream or refuses/cancels with a typed, journalled
//!   reason — it never blocks indefinitely and never leaks an admission
//!   slot. Jobs carry an optional client deadline capped by
//!   [`ServeConfig::max_job_secs`] and enforced at cycle boundaries
//!   (terminal `deadline_exceeded` state, [`ServeError::Deadline`]); a
//!   watchdog reaps jobs that make no progress for
//!   [`ServeConfig::stall_secs`]; queued jobs older than
//!   [`ServeConfig::max_queue_age_secs`] are shed on pop instead of run
//!   pointlessly; and a dead client costs only its own job — workers
//!   stream through a bounded per-connection buffer whose writer side
//!   has a hard write deadline, then disconnect + cancel instead of
//!   blocking.
//!
//! Multi-host sharding lives on top of this contract: the
//! [`coordinator`] module fans one sweep out across a fleet of daemons
//! as server-side sweep slices and merges the streams back into
//! single-host row order, byte for byte — the deterministic per-scenario
//! seeding is what makes shards merge-safe (and retry-safe) by
//! construction. See [`coordinator::fansweep`] and the `fansweep` CLI
//! subcommand.
//!
//! The coordinator is built to survive everything short of total fleet
//! loss: failed shards are retried with capped exponential backoff and
//! deterministic jitter, retired daemons are health-probed (`ping`) and
//! re-admitted after a cooldown, and with a [`manifest::SweepManifest`]
//! ([`coordinator::FleetConfig::manifest`]) every finished shard is
//! checkpointed durably — a coordinator killed mid-sweep resumes with
//! only the unfinished shards and still merges byte-identically. With
//! the `failpoints` feature all of these paths are exercisable under
//! seeded fault schedules via `drcell-faults`.
//!
//! ## Protocol in one screen
//!
//! ```text
//! → {"cmd":"list"}
//! ← {"event":"scenarios","names":["temperature-baseline",…]}
//! → {"cmd":"run","name":"synthetic-smooth"}
//! ← {"event":"accepted","job":1,"scenarios":1}
//! ← {"scenario":"synthetic-smooth","scenario_index":0,…}   (one per cycle)
//! ← {"event":"scenario","job":1,"index":0,"name":"synthetic-smooth"}
//! ← {"event":"done","job":1,"ok":1,"failed":0}
//! → {"cmd":"shutdown"}
//! ← {"event":"shutdown"}
//! ```
//!
//! See [`protocol`] for the full grammar, [`Server`] for the daemon,
//! [`Client`] for the blocking client the examples and tests use, and the
//! repository's `ARCHITECTURE.md` for where this sits in the crate graph.
//!
//! [`ScenarioSpec`]: drcell_scenario::ScenarioSpec
//! [`SweepSpec`]: drcell_scenario::SweepSpec
//! [`SparseMcsRunner::run_with_control`]: drcell_core::SparseMcsRunner::run_with_control
//! [`run_scenario_streaming`]: drcell_scenario::run_scenario_streaming
//! [`sink::row_json`]: drcell_scenario::sink::row_json

#![deny(missing_docs)]

pub mod client;
pub mod coordinator;
pub mod job;
pub mod manifest;
pub mod protocol;
mod server;

use std::fmt;

pub use client::{Client, ClientConfig, JobOutput, JobStream, MAX_FRAME_BYTES};
pub use coordinator::{
    fansweep, fansweep_with, FleetConfig, FleetOutput, ProbeConfig, RetryConfig, ShardReport,
};
pub use manifest::SweepManifest;
pub use protocol::{Frame, JobInfo, JobState, JobsSnapshot, Request, RunTarget, ServerStats};
pub use server::{ServeConfig, Server};

/// Evaluate a named failpoint, mapping any fault onto `std::io::Error`.
/// Compiles to a constant `None` without the `failpoints` feature.
#[cfg(feature = "failpoints")]
pub(crate) fn fault_io(name: &str) -> Option<std::io::Error> {
    drcell_faults::eval(name).map(drcell_faults::Fault::into_io)
}

/// Failpoints disabled: no registry, no branch.
#[cfg(not(feature = "failpoints"))]
pub(crate) fn fault_io(_name: &str) -> Option<std::io::Error> {
    None
}

/// Anything that can go wrong on the serving path.
#[derive(Debug)]
pub enum ServeError {
    /// Transport failure (socket read/write).
    Io(std::io::Error),
    /// A configured deadline expired (connect, read or write) — the
    /// counterpart is unreachable or stalled. Distinct from [`Io`] so a
    /// coordinator can treat a silent daemon as dead without string
    /// matching.
    ///
    /// [`Io`]: ServeError::Io
    Timeout(String),
    /// A malformed or out-of-order frame on either side.
    Protocol(String),
    /// A federated sweep ran out of daemons before every shard finished
    /// ([`coordinator::fansweep`]). The message lists the unfinished
    /// shards and why each daemon was retired.
    Fleet(String),
    /// The server reported a request-level error.
    Server(String),
    /// The server refused the submit at admission (back off and retry).
    Busy {
        /// Machine-readable reason (`queue_full` / `client_limit`).
        reason: String,
        /// Observed depth/count at refusal time.
        depth: usize,
        /// The configured bound it exceeded.
        limit: usize,
        /// Server-computed back-off hint in milliseconds — honour it as
        /// the floor of any retry delay.
        retry_after_ms: u64,
    },
    /// A job (or a fansweep shard) ran out of time: the client's budget
    /// or the server's `--max-job-secs` cap expired before it finished.
    /// Typed so the coordinator can retry an expired shard through
    /// [`coordinator::RetryConfig`] without string matching.
    Deadline(String),
}

impl ServeError {
    fn unexpected(wanted: &str, got: &Frame) -> ServeError {
        ServeError::Protocol(format!("expected a {wanted} frame, got {got:?}"))
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "serve i/o error: {e}"),
            ServeError::Timeout(what) => write!(f, "serve timeout: {what}"),
            ServeError::Protocol(msg) => write!(f, "serve protocol error: {msg}"),
            ServeError::Fleet(msg) => write!(f, "fleet error: {msg}"),
            ServeError::Server(msg) => write!(f, "server error: {msg}"),
            ServeError::Busy {
                reason,
                depth,
                limit,
                retry_after_ms,
            } => write!(
                f,
                "server busy: {reason} ({depth}/{limit}), retry_after_ms={retry_after_ms}"
            ),
            ServeError::Deadline(what) => write!(f, "deadline exceeded: {what}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}
