//! The wire protocol of the daemon: newline-delimited JSON in both
//! directions.
//!
//! **Requests** (client → server) are single-line JSON objects dispatched
//! on their `cmd` key — see [`Request`].
//!
//! **Responses** (server → client) come in two kinds, distinguishable by
//! their first key:
//!
//! * **control frames** are objects whose first key is `"event"`
//!   (`accepted`, `scenario`, `done`, `cancelled`, `error`, …);
//! * **row frames** are raw result rows — exactly the JSONL lines
//!   [`drcell_scenario::sink::write_jsonl`] writes, whose first key is
//!   `"scenario"`. The daemon passes them through **byte-identically**, so
//!   filtering out the `{"event":…` lines of a job stream reproduces the
//!   CLI's `--jsonl` file for the same spec, byte for byte.
//!
//! Frames never contain raw newlines, so `lines()` framing is exact.

use serde::{Deserialize, Serialize, Value};

use drcell_scenario::json::{parse_json, to_json};
use drcell_scenario::{ScenarioSpec, SweepSpec};

use crate::ServeError;

/// What a `run` request targets — exactly one source, by construction.
#[derive(Debug, Clone, PartialEq)]
pub enum RunTarget {
    /// A built-in registry scenario, by name.
    Name(String),
    /// An inline scenario spec.
    Spec(Box<ScenarioSpec>),
}

/// One client request, dispatched on the `cmd` key of its JSON line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `{"cmd":"run","name":"…"}` or `{"cmd":"run","spec":{…}}` — submit
    /// one scenario (a registry name or an inline [`ScenarioSpec`]) as a
    /// streaming job. An optional `"deadline_ms"` is the client's time
    /// budget (relative milliseconds, measured on the server's clock from
    /// acceptance); the server caps it at its own `--max-job-secs`.
    Run {
        /// What to run.
        target: RunTarget,
        /// Client time budget in milliseconds (`None` = only the server
        /// cap, if any, applies).
        deadline_ms: Option<u64>,
    },
    /// `{"cmd":"sweep","spec":{…}}` — submit a [`SweepSpec`]; the server
    /// expands it and streams every scenario's rows in matrix order.
    /// With `"start"` and `"end"` (both or neither), only the
    /// `start..end` slice of the matrix runs — the **shard** primitive of
    /// federated sweeps — and rows/`scenario` frames carry the *global*
    /// matrix index, so per-shard streams concatenate back into the
    /// single-host JSONL byte for byte.
    Sweep {
        /// The sweep to expand and run.
        spec: Box<SweepSpec>,
        /// `Some((start, end))` to run only that slice of the expanded
        /// matrix; `None` runs all of it.
        range: Option<(usize, usize)>,
        /// Client time budget in milliseconds, as on
        /// [`Request::Run`]. The budget covers the whole job (all
        /// scenarios of the slice), not each scenario.
        deadline_ms: Option<u64>,
    },
    /// `{"cmd":"list"}` — names of the built-in scenario registry.
    List,
    /// `{"cmd":"jobs"}` — snapshot of the server's job table.
    Jobs,
    /// `{"cmd":"stats"}` — result-cache and queue counters.
    Stats,
    /// `{"cmd":"cancel","job":N}` — request cancellation of a job. Takes
    /// effect before the next scenario starts or at the next testing-cycle
    /// boundary; a policy-training phase already in progress (DR-Cell
    /// specs train a DQN before their first cycle) runs to completion
    /// first, since training emits no cycle records to check at.
    Cancel {
        /// Job id to cancel.
        job: u64,
    },
    /// `{"cmd":"shutdown"}` — stop accepting connections, cancel queued
    /// jobs, let running jobs finish, then exit.
    Shutdown,
    /// `{"cmd":"ping"}` — liveness probe. Answered with a `pong` frame
    /// straight from the connection thread: it touches no queue, no
    /// worker and no admission slot, so it stays honest about *transport*
    /// health even when the daemon is saturated with jobs. The
    /// coordinator uses it to decide whether a retired daemon has come
    /// back.
    Ping,
}

/// Shared `deadline_ms` extraction: absent is fine, mistyped is loud (a
/// budget silently dropped would let an unbounded job through).
fn deadline(v: &Value) -> Result<Option<u64>, ServeError> {
    match v.get("deadline_ms") {
        None => Ok(None),
        Some(dv) => dv.as_u64().map(Some).ok_or_else(|| {
            ServeError::Protocol("`deadline_ms` must be a number of milliseconds".to_owned())
        }),
    }
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Protocol`] on malformed JSON, an unknown
    /// `cmd`, or missing/contradictory fields.
    pub fn parse(line: &str) -> Result<Request, ServeError> {
        let v = parse_json(line).map_err(|e| ServeError::Protocol(format!("bad request: {e}")))?;
        let cmd = v
            .get("cmd")
            .and_then(Value::as_str)
            .ok_or_else(|| ServeError::Protocol("request has no `cmd` string".to_owned()))?;
        match cmd {
            "run" => {
                let name = v.get("name").and_then(Value::as_str).map(str::to_owned);
                let spec =
                    match v.get("spec") {
                        Some(sv) => Some(Box::new(ScenarioSpec::from_value(sv).map_err(|e| {
                            ServeError::Protocol(format!("bad scenario spec: {e}"))
                        })?)),
                        None => None,
                    };
                let deadline_ms = deadline(&v)?;
                match (name, spec) {
                    (Some(name), None) => Ok(Request::Run {
                        target: RunTarget::Name(name),
                        deadline_ms,
                    }),
                    (None, Some(spec)) => Ok(Request::Run {
                        target: RunTarget::Spec(spec),
                        deadline_ms,
                    }),
                    _ => Err(ServeError::Protocol(
                        "run needs exactly one of `name` or `spec`".to_owned(),
                    )),
                }
            }
            "sweep" => {
                let spec = match v.get("spec") {
                    Some(sv) => Box::new(
                        SweepSpec::from_value(sv)
                            .map_err(|e| ServeError::Protocol(format!("bad sweep spec: {e}")))?,
                    ),
                    None => return Err(ServeError::Protocol("sweep needs a `spec`".to_owned())),
                };
                // A half-specified slice must fail loudly: silently
                // defaulting the missing bound would run the wrong
                // scenarios and still merge cleanly downstream.
                let bound = |field: &str| match v.get(field) {
                    None => Ok(None),
                    Some(bv) => bv.as_u64().map(|n| Some(n as usize)).ok_or_else(|| {
                        ServeError::Protocol(format!("sweep `{field}` must be a number"))
                    }),
                };
                let range = match (bound("start")?, bound("end")?) {
                    (None, None) => None,
                    (Some(start), Some(end)) => Some((start, end)),
                    _ => {
                        return Err(ServeError::Protocol(
                            "sweep slice needs both `start` and `end`".to_owned(),
                        ))
                    }
                };
                Ok(Request::Sweep {
                    spec,
                    range,
                    deadline_ms: deadline(&v)?,
                })
            }
            "list" => Ok(Request::List),
            "jobs" => Ok(Request::Jobs),
            "stats" => Ok(Request::Stats),
            "cancel" => {
                let job = v.get("job").and_then(Value::as_u64).ok_or_else(|| {
                    ServeError::Protocol("cancel needs a numeric `job`".to_owned())
                })?;
                Ok(Request::Cancel { job })
            }
            "shutdown" => Ok(Request::Shutdown),
            "ping" => Ok(Request::Ping),
            other => Err(ServeError::Protocol(format!("unknown cmd `{other}`"))),
        }
    }

    /// Serialises the request as its wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        let cmd = |name: &str| ("cmd", text(name));
        let fields = match self {
            Request::Run {
                target,
                deadline_ms,
            } => {
                let (name, spec) = match target {
                    RunTarget::Name(name) => (text(name), None),
                    RunTarget::Spec(spec) => (None, Some(spec.to_value())),
                };
                vec![
                    cmd("run"),
                    ("name", name),
                    ("spec", spec),
                    ("deadline_ms", deadline_ms.map(Value::UInt)),
                ]
            }
            Request::Sweep {
                spec,
                range,
                deadline_ms,
            } => vec![
                cmd("sweep"),
                ("spec", Some(spec.to_value())),
                ("start", range.and_then(|(start, _)| num(start))),
                ("end", range.and_then(|(_, end)| num(end))),
                ("deadline_ms", deadline_ms.map(Value::UInt)),
            ],
            Request::List => vec![cmd("list")],
            Request::Jobs => vec![cmd("jobs")],
            Request::Stats => vec![cmd("stats")],
            Request::Cancel { job } => vec![cmd("cancel"), ("job", num(*job))],
            Request::Shutdown => vec![cmd("shutdown")],
            Request::Ping => vec![cmd("ping")],
        };
        to_json(&object(fields))
    }
}

/// `Some` JSON number — the value of a required numeric field (every
/// `u64` and `usize` field converts; `usize` is at most 64 bits wide).
fn num(n: impl TryInto<u64>) -> Option<Value> {
    n.try_into().ok().map(Value::UInt)
}

/// `Some` JSON string — the value of a required string field.
fn text(s: &str) -> Option<Value> {
    Some(Value::Str(s.to_owned()))
}

/// A JSON object with `fields` in order, `None` values omitted — the one
/// shape every request, control frame and `jobs` entry is written in.
fn object(fields: Vec<(&str, Option<Value>)>) -> Value {
    Value::Map(
        fields
            .into_iter()
            .filter_map(|(key, value)| Some((key.to_owned(), value?)))
            .collect(),
    )
}

/// Lifecycle states of a job in the server's table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// A worker is executing its scenarios.
    Running,
    /// Every scenario finished successfully.
    Done,
    /// Cancelled (explicit `cancel`, client disconnect, or shutdown).
    Cancelled,
    /// Finished, but at least one scenario failed.
    Failed,
    /// Stopped because it outlived its deadline (client budget or the
    /// server's `--max-job-secs` cap) — terminal, like a cancellation,
    /// but typed so clients can tell "you asked me to stop" from "you
    /// ran out of time".
    DeadlineExceeded,
}

impl JobState {
    /// Every state with its wire name, in declaration order, so a state's
    /// discriminant is its index — the one table behind
    /// [`JobState::as_str`], [`JobState::from_str_wire`] and the job
    /// table's one-byte atomic encoding.
    const TABLE: [(JobState, &'static str); 6] = [
        (JobState::Queued, "queued"),
        (JobState::Running, "running"),
        (JobState::Done, "done"),
        (JobState::Cancelled, "cancelled"),
        (JobState::Failed, "failed"),
        (JobState::DeadlineExceeded, "deadline_exceeded"),
    ];

    /// Wire name of the state.
    pub fn as_str(self) -> &'static str {
        Self::TABLE[self as usize].1
    }

    /// Parses a wire name.
    pub fn from_str_wire(s: &str) -> Option<JobState> {
        Self::TABLE
            .iter()
            .find(|(_, name)| *name == s)
            .map(|&(state, _)| state)
    }

    /// The state whose discriminant is `index` — the inverse of
    /// `state as u8`.
    pub(crate) fn from_index(index: u8) -> JobState {
        Self::TABLE[usize::from(index)].0
    }

    /// `true` once the job can no longer make progress.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Cancelled | JobState::Failed | JobState::DeadlineExceeded
        )
    }
}

/// One row of a `jobs` snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobInfo {
    /// Job id.
    pub job: u64,
    /// Current state.
    pub state: JobState,
    /// Total scenarios in the job.
    pub scenarios: usize,
    /// Scenarios finished so far (including failed ones).
    pub completed: usize,
    /// Wall-clock epoch milliseconds when the job was accepted.
    pub queued_ms: u64,
    /// Epoch milliseconds when a worker started it (`None` = not yet).
    pub started_ms: Option<u64>,
    /// Epoch milliseconds when it reached a terminal state (`None` = not
    /// yet).
    pub finished_ms: Option<u64>,
    /// Absolute deadline (server-clock epoch ms) the job must finish by
    /// (`None` = unbounded). Remaining time is `deadline_ms - now_ms` of
    /// the same snapshot — both numbers come from the server clock, so
    /// the computation is immune to client/server skew.
    pub deadline_ms: Option<u64>,
    /// Why a forced terminal state was reached (`stall`, `deadline`,
    /// `queue_age`, …; `None` for ordinary lifecycles).
    pub reason: Option<String>,
}

/// A `jobs` snapshot together with the server clock it was taken at —
/// the payload of [`Frame::JobTable`] and what [`crate::Client::jobs`]
/// returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobsSnapshot {
    /// The server's wall clock (epoch ms) at snapshot time. Compute live
    /// waiting/running durations against this, never against the client
    /// machine's clock — the two hosts may be skewed.
    pub now_ms: u64,
    /// Snapshot rows, in job-id order.
    pub jobs: Vec<JobInfo>,
}

/// Result-cache and queue counters, the reply to `stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Cache lookups answered from memory.
    pub mem_hits: u64,
    /// Cache lookups answered from the spill directory.
    pub disk_hits: u64,
    /// Cache lookups that recomputed.
    pub misses: u64,
    /// Row streams currently resident in cache memory.
    pub entries: usize,
    /// Row bytes currently resident in cache memory.
    pub bytes: usize,
    /// Jobs currently waiting for a worker.
    pub queue_depth: usize,
    /// Live admission slots (admitted jobs whose client in-flight hold
    /// has not been released). A drained, idle daemon must report 0 —
    /// anything else is a leaked slot.
    pub inflight_slots: usize,
}

/// One server response frame: encoded by the server with
/// [`Frame::to_line`], decoded by the client with [`Frame::parse`].
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A raw result row — exactly one line of the CLI's `--jsonl` output.
    Row(String),
    /// A job was accepted and queued.
    Accepted {
        /// Assigned job id.
        job: u64,
        /// Scenarios the job expands to.
        scenarios: usize,
    },
    /// One scenario of a job finished (rows for it precede this frame).
    Scenario {
        /// Owning job id.
        job: u64,
        /// Matrix index of the scenario.
        index: usize,
        /// Scenario name.
        name: String,
        /// `Some` iff the scenario failed (its rows were partial/absent).
        error: Option<String>,
    },
    /// The job finished; the stream for it ends here.
    Done {
        /// Owning job id.
        job: u64,
        /// Scenarios that succeeded.
        ok: usize,
        /// Scenarios that failed.
        failed: usize,
    },
    /// The job was cancelled; the stream for it ends here.
    Cancelled {
        /// Owning job id.
        job: u64,
        /// Why, when the daemon (not the client) forced the cancellation:
        /// `stall`, `queue_age`, `shutdown`, `disconnect`, … `None` for a
        /// plain client-requested cancel.
        reason: Option<String>,
    },
    /// The job ran out of time (client budget or server `--max-job-secs`
    /// cap); the stream for it ends here. Every row already streamed is
    /// final and byte-identical to its uncancelled counterpart.
    DeadlineExceeded {
        /// Owning job id.
        job: u64,
    },
    /// A request-level error (malformed frame, unknown name/job, …).
    Error {
        /// Human-readable description.
        message: String,
    },
    /// A submit was refused by admission control. Structured so clients
    /// can back off on actionable numbers instead of parsing prose.
    Busy {
        /// Machine-readable reason (`queue_full` / `client_limit`).
        reason: String,
        /// Observed depth/count at refusal time.
        depth: usize,
        /// The configured bound it exceeded.
        limit: usize,
        /// Server-computed back-off hint in milliseconds, derived from
        /// the observed depth — the floor `submit --retry-busy` waits
        /// before retrying.
        retry_after_ms: u64,
    },
    /// Reply to `stats`.
    Stats(ServerStats),
    /// Reply to `list`.
    ScenarioNames {
        /// Registry scenario names, in presentation order.
        names: Vec<String>,
    },
    /// Reply to `jobs`: the table and the server clock it was taken at.
    JobTable(JobsSnapshot),
    /// Reply to `cancel`: the flag was set (or the job was already
    /// terminal).
    CancelAck {
        /// The cancelled job id.
        job: u64,
        /// Job state at acknowledgement time.
        state: JobState,
    },
    /// Reply to `shutdown`.
    ShutdownAck,
    /// Reply to `ping`: the daemon's transport is alive.
    Pong {
        /// The server's wall clock (epoch ms) when the pong was sent —
        /// lets a prober detect gross clock skew for free.
        now_ms: u64,
    },
}

impl Frame {
    /// Parses one response line: control frames by their `event` key,
    /// anything else as a pass-through [`Frame::Row`].
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Protocol`] on malformed JSON or an unknown
    /// event.
    pub fn parse(line: &str) -> Result<Frame, ServeError> {
        let v = parse_json(line).map_err(|e| ServeError::Protocol(format!("bad frame: {e}")))?;
        let Some(event) = v.get("event").and_then(Value::as_str) else {
            return Ok(Frame::Row(line.to_owned()));
        };
        // Every structural field is strictly required: a missing or
        // mistyped count from a version-skewed server must surface as a
        // protocol error, not silently parse as 0 (which would let a
        // `done` frame without `failed` masquerade as a clean success).
        let protocol = |what: String| ServeError::Protocol(format!("{event} frame {what}"));
        let count = |field: &str| {
            v.get(field)
                .and_then(Value::as_u64)
                .ok_or_else(|| protocol(format!("has no numeric `{field}`")))
        };
        let string = |field: &str| v.get(field).and_then(Value::as_str).map(str::to_owned);
        let required =
            |field: &str| string(field).ok_or_else(|| protocol(format!("has no `{field}`")));
        let list = |field: &str| {
            v.get(field)
                .and_then(Value::as_seq)
                .ok_or_else(|| protocol(format!("has no `{field}` list")))
        };
        match event {
            "accepted" => Ok(Frame::Accepted {
                job: count("job")?,
                scenarios: count("scenarios")? as usize,
            }),
            "scenario" => Ok(Frame::Scenario {
                job: count("job")?,
                index: count("index")? as usize,
                name: required("name")?,
                error: string("error"),
            }),
            "done" => Ok(Frame::Done {
                job: count("job")?,
                ok: count("ok")? as usize,
                failed: count("failed")? as usize,
            }),
            "cancelled" => Ok(Frame::Cancelled {
                job: count("job")?,
                reason: string("reason"),
            }),
            "deadline_exceeded" => Ok(Frame::DeadlineExceeded { job: count("job")? }),
            "error" => Ok(Frame::Error {
                message: string("message").unwrap_or_default(),
            }),
            "busy" => Ok(Frame::Busy {
                reason: required("reason")?,
                depth: count("depth")? as usize,
                limit: count("limit")? as usize,
                retry_after_ms: count("retry_after_ms")?,
            }),
            "stats" => Ok(Frame::Stats(ServerStats {
                mem_hits: count("mem_hits")?,
                disk_hits: count("disk_hits")?,
                misses: count("misses")?,
                entries: count("entries")? as usize,
                bytes: count("bytes")? as usize,
                queue_depth: count("queue_depth")? as usize,
                inflight_slots: count("inflight_slots")? as usize,
            })),
            "scenarios" => Ok(Frame::ScenarioNames {
                names: list("names")?
                    .iter()
                    .map(|n| n.as_str().map(str::to_owned))
                    .collect::<Option<_>>()
                    .ok_or_else(|| protocol("has a non-string name".to_owned()))?,
            }),
            "jobs" => Ok(Frame::JobTable(JobsSnapshot {
                now_ms: count("now_ms")?,
                jobs: list("jobs")?
                    .iter()
                    .map(parse_job_info)
                    .collect::<Result<_, _>>()?,
            })),
            "cancel" => Ok(Frame::CancelAck {
                job: count("job")?,
                state: string("state")
                    .as_deref()
                    .and_then(JobState::from_str_wire)
                    .ok_or_else(|| protocol("has a bad `state`".to_owned()))?,
            }),
            "shutdown" => Ok(Frame::ShutdownAck),
            "pong" => Ok(Frame::Pong {
                now_ms: count("now_ms")?,
            }),
            other => Err(ServeError::Protocol(format!("unknown event `{other}`"))),
        }
    }

    /// Serialises the frame as its wire line (no trailing newline): a
    /// [`Frame::Row`] verbatim, a control frame as an object whose first
    /// key is `event`, with `None` fields omitted.
    pub fn to_line(&self) -> String {
        let (event, fields) = match self {
            Frame::Row(row) => return row.clone(),
            Frame::Accepted { job, scenarios } => (
                "accepted",
                vec![("job", num(*job)), ("scenarios", num(*scenarios))],
            ),
            Frame::Scenario {
                job,
                index,
                name,
                error,
            } => (
                "scenario",
                vec![
                    ("job", num(*job)),
                    ("index", num(*index)),
                    ("name", text(name)),
                    ("error", error.as_deref().and_then(text)),
                ],
            ),
            Frame::Done { job, ok, failed } => (
                "done",
                vec![
                    ("job", num(*job)),
                    ("ok", num(*ok)),
                    ("failed", num(*failed)),
                ],
            ),
            Frame::Cancelled { job, reason } => (
                "cancelled",
                vec![
                    ("job", num(*job)),
                    ("reason", reason.as_deref().and_then(text)),
                ],
            ),
            Frame::DeadlineExceeded { job } => ("deadline_exceeded", vec![("job", num(*job))]),
            Frame::Error { message } => ("error", vec![("message", text(message))]),
            Frame::Busy {
                reason,
                depth,
                limit,
                retry_after_ms,
            } => (
                "busy",
                vec![
                    ("reason", text(reason)),
                    ("depth", num(*depth)),
                    ("limit", num(*limit)),
                    ("retry_after_ms", num(*retry_after_ms)),
                ],
            ),
            Frame::Stats(s) => (
                "stats",
                vec![
                    ("mem_hits", num(s.mem_hits)),
                    ("disk_hits", num(s.disk_hits)),
                    ("misses", num(s.misses)),
                    ("entries", num(s.entries)),
                    ("bytes", num(s.bytes)),
                    ("queue_depth", num(s.queue_depth)),
                    ("inflight_slots", num(s.inflight_slots)),
                ],
            ),
            Frame::ScenarioNames { names } => (
                "scenarios",
                vec![(
                    "names",
                    Some(Value::Seq(
                        names.iter().map(|n| Value::Str(n.clone())).collect(),
                    )),
                )],
            ),
            Frame::JobTable(snapshot) => (
                "jobs",
                vec![
                    ("now_ms", num(snapshot.now_ms)),
                    (
                        "jobs",
                        Some(Value::Seq(
                            snapshot.jobs.iter().map(job_info_value).collect(),
                        )),
                    ),
                ],
            ),
            Frame::CancelAck { job, state } => (
                "cancel",
                vec![("job", num(*job)), ("state", text(state.as_str()))],
            ),
            Frame::ShutdownAck => ("shutdown", Vec::new()),
            Frame::Pong { now_ms } => ("pong", vec![("now_ms", num(*now_ms))]),
        };
        let mut entries = vec![("event", text(event))];
        entries.extend(fields);
        to_json(&object(entries))
    }

    /// `true` for the frames that terminate a job stream.
    pub fn ends_stream(&self) -> bool {
        matches!(
            self,
            Frame::Done { .. } | Frame::Cancelled { .. } | Frame::DeadlineExceeded { .. }
        )
    }
}

/// One `jobs` frame entry. `started`/`finished`/`deadline`/`reason` are
/// omitted on a job that has not reached them.
fn job_info_value(j: &JobInfo) -> Value {
    object(vec![
        ("job", num(j.job)),
        ("state", text(j.state.as_str())),
        ("scenarios", num(j.scenarios)),
        ("completed", num(j.completed)),
        ("queued_ms", num(j.queued_ms)),
        ("started_ms", j.started_ms.map(Value::UInt)),
        ("finished_ms", j.finished_ms.map(Value::UInt)),
        ("deadline_ms", j.deadline_ms.map(Value::UInt)),
        ("reason", j.reason.as_deref().and_then(text)),
    ])
}

/// Parses one `jobs` frame entry — the inverse of [`job_info_value`].
fn parse_job_info(jv: &Value) -> Result<JobInfo, ServeError> {
    let entry = |field: &str| {
        jv.get(field).and_then(Value::as_u64).ok_or_else(|| {
            ServeError::Protocol(format!("jobs frame entry has no numeric `{field}`"))
        })
    };
    Ok(JobInfo {
        job: entry("job")?,
        state: jv
            .get("state")
            .and_then(Value::as_str)
            .and_then(JobState::from_str_wire)
            .ok_or_else(|| ServeError::Protocol("jobs frame with bad state".to_owned()))?,
        scenarios: entry("scenarios")? as usize,
        completed: entry("completed")? as usize,
        queued_ms: entry("queued_ms")?,
        // Legitimately absent on a job that has not reached them —
        // optional, unlike the structural counts above.
        started_ms: jv.get("started_ms").and_then(Value::as_u64),
        finished_ms: jv.get("finished_ms").and_then(Value::as_u64),
        deadline_ms: jv.get("deadline_ms").and_then(Value::as_u64),
        reason: jv.get("reason").and_then(Value::as_str).map(str::to_owned),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use drcell_scenario::registry;
    use proptest::collection::vec;
    use proptest::prelude::*;

    /// One code point, biased towards what breaks a JSON writer: quotes,
    /// backslashes, control characters and non-BMP characters.
    fn code_point() -> impl Strategy<Value = char> {
        (0u32..5, any::<u32>()).prop_map(|(class, raw)| match class {
            0 => ['"', '\\', '/', '{', '}', ',', ':'][raw as usize % 7],
            1 => char::from_u32(raw % 0x20).expect("control character"),
            2 => char::from_u32(0x1_0000 + raw % 0x10_0000).expect("non-BMP character"),
            3 => char::from_u32(raw % 0x11_0000).unwrap_or('\u{fffd}'),
            _ => char::from_u32(0x20 + raw % 0x5f).expect("printable ASCII"),
        })
    }

    fn text() -> impl Strategy<Value = String> {
        vec(code_point(), 0..12).prop_map(|chars| chars.into_iter().collect())
    }

    fn state(index: usize) -> JobState {
        JobState::TABLE[index % JobState::TABLE.len()].0
    }

    fn job_info() -> impl Strategy<Value = JobInfo> {
        (
            0usize..6,
            vec(any::<u64>(), 6),
            vec(any::<bool>(), 4),
            text(),
        )
            .prop_map(|(s, n, some, reason)| JobInfo {
                job: n[0],
                state: state(s),
                scenarios: n[1] as usize,
                completed: n[2] as usize,
                queued_ms: n[3],
                started_ms: some[0].then_some(n[4]),
                finished_ms: some[1].then_some(n[5]),
                deadline_ms: some[2].then_some(n[0] ^ n[5]),
                reason: some[3].then_some(reason),
            })
    }

    /// Frame variant `kind` (0..14 covers every variant) built from the
    /// sampled ingredients.
    fn frame(kind: usize, n: &[u64], a: String, b: Option<String>, names: Vec<String>) -> Frame {
        match kind {
            0 => Frame::Row(to_json(&Value::Map(vec![
                ("scenario".to_owned(), Value::Str(a)),
                ("cycle".to_owned(), Value::UInt(n[0])),
            ]))),
            1 => Frame::Accepted {
                job: n[0],
                scenarios: n[1] as usize,
            },
            2 => Frame::Scenario {
                job: n[0],
                index: n[1] as usize,
                name: a,
                error: b,
            },
            3 => Frame::Done {
                job: n[0],
                ok: n[1] as usize,
                failed: n[2] as usize,
            },
            4 => Frame::Cancelled {
                job: n[0],
                reason: b,
            },
            5 => Frame::DeadlineExceeded { job: n[0] },
            6 => Frame::Error { message: a },
            7 => Frame::Busy {
                reason: a,
                depth: n[0] as usize,
                limit: n[1] as usize,
                retry_after_ms: n[2],
            },
            8 => Frame::Stats(ServerStats {
                mem_hits: n[0],
                disk_hits: n[1],
                misses: n[2],
                entries: n[3] as usize,
                bytes: n[4] as usize,
                queue_depth: n[5] as usize,
                inflight_slots: n[6] as usize,
            }),
            9 => Frame::ScenarioNames { names },
            10 => Frame::CancelAck {
                job: n[0],
                state: state(n[1] as usize),
            },
            11 => Frame::ShutdownAck,
            12 => Frame::Pong { now_ms: n[0] },
            // The `jobs` entries come from their own strategy.
            _ => unreachable!("frame kind {kind}"),
        }
    }

    /// Request variant `kind` (0..9 covers every variant).
    fn request(kind: usize, n: &[u64], name: String, some: &[bool]) -> Request {
        let deadline_ms = some[0].then_some(n[0]);
        match kind {
            0 => Request::Run {
                target: RunTarget::Name(name),
                deadline_ms,
            },
            1 => {
                let all = registry::registry();
                let mut spec = all[n[1] as usize % all.len()].clone();
                spec.seed = n[2];
                Request::Run {
                    target: RunTarget::Spec(Box::new(spec)),
                    deadline_ms,
                }
            }
            2 => {
                let mut spec = registry::default_sweep();
                spec.seeds = n[3..].to_vec();
                Request::Sweep {
                    spec: Box::new(spec),
                    range: some[1].then_some((n[1] as usize, n[2] as usize)),
                    deadline_ms,
                }
            }
            3 => Request::List,
            4 => Request::Jobs,
            5 => Request::Stats,
            6 => Request::Cancel { job: n[1] },
            7 => Request::Shutdown,
            8 => Request::Ping,
            _ => unreachable!("request kind {kind}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn requests_round_trip(
            kind in 0usize..9,
            n in vec(any::<u64>(), 3..7),
            name in text(),
            some in vec(any::<bool>(), 2),
        ) {
            let req = request(kind, &n, name, &some);
            let line = req.to_line();
            prop_assert!(!line.contains('\n'), "requests must be single lines: {line}");
            prop_assert_eq!(Request::parse(&line).unwrap(), req);
        }

        #[test]
        fn control_frames_round_trip(
            kind in 0usize..14,
            n in vec(any::<u64>(), 7),
            a in text(),
            b in (any::<bool>(), text()).prop_map(|(some, t)| some.then_some(t)),
            names in vec(text(), 0..4),
            jobs in (any::<u64>(), vec(job_info(), 0..4)),
        ) {
            let frame = match kind {
                13 => Frame::JobTable(JobsSnapshot { now_ms: jobs.0, jobs: jobs.1 }),
                kind => frame(kind, &n, a, b, names),
            };
            let line = frame.to_line();
            prop_assert!(!line.contains('\n'), "frames must be single lines: {line}");
            prop_assert_eq!(Frame::parse(&line).unwrap(), frame);
            if kind != 0 {
                prop_assert!(line.starts_with("{\"event\":"), "control frame: {line}");
                // A line cut anywhere short of its end is an error, never
                // a panic and never a shorter valid frame.
                for (cut, _) in line.char_indices() {
                    prop_assert!(Frame::parse(&line[..cut]).is_err(), "prefix {}", &line[..cut]);
                }
            }
        }
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for bad in [
            "",
            "not json",
            "{}",
            "{\"cmd\":\"warp\"}",
            "{\"cmd\":\"run\"}",
            "{\"cmd\":\"run\",\"name\":\"x\",\"spec\":{}}",
            "{\"cmd\":\"sweep\"}",
            "{\"cmd\":\"cancel\"}",
            "{\"cmd\":\"cancel\",\"job\":\"three\"}",
            "{\"cmd\":\"run\",\"spec\":{\"name\":\"broken\"}}",
            "{\"cmd\":\"run\",\"name\":\"x\",\"deadline_ms\":\"soon\"}",
        ] {
            assert!(Request::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn half_specified_or_mistyped_sweep_slices_are_rejected() {
        // A shard request that lost one bound (version skew, hand-rolled
        // client) must fail loudly — defaulting it would run the wrong
        // scenarios and still merge cleanly downstream.
        let spec_value = registry::default_sweep().to_value();
        for extra in [
            vec![("start".to_owned(), Value::UInt(1))],
            vec![("end".to_owned(), Value::UInt(4))],
            vec![
                ("start".to_owned(), Value::Str("a".to_owned())),
                ("end".to_owned(), Value::UInt(4)),
            ],
        ] {
            let mut entries = vec![
                ("cmd".to_owned(), Value::Str("sweep".to_owned())),
                ("spec".to_owned(), spec_value.clone()),
            ];
            entries.extend(extra);
            let line = to_json(&Value::Map(entries));
            assert!(Request::parse(&line).is_err(), "accepted: {line}");
        }
    }

    #[test]
    fn missing_structural_fields_are_protocol_errors() {
        // A version-skewed server must produce a loud protocol error, not
        // a frame with counts silently defaulted to 0 or lists to empty.
        for bad in [
            r#"{"event":"done","job":1,"ok":2}"#,
            r#"{"event":"done","job":1,"ok":2,"failed":"none"}"#,
            r#"{"event":"accepted","job":1}"#,
            r#"{"event":"scenario","job":1,"index":0}"#,
            r#"{"event":"scenario","job":1,"name":"x"}"#,
            r#"{"event":"jobs","now_ms":5,"jobs":[{"job":1,"state":"done","scenarios":1}]}"#,
            r#"{"event":"jobs","now_ms":5,"jobs":[{"job":1,"state":"done","scenarios":1,"completed":1}]}"#,
            r#"{"event":"jobs","jobs":[{"job":1,"state":"done","scenarios":1,"completed":1,"queued_ms":2}]}"#,
            r#"{"event":"jobs","now_ms":5}"#,
            r#"{"event":"jobs","now_ms":5,"jobs":{}}"#,
            r#"{"event":"scenarios"}"#,
            r#"{"event":"scenarios","names":"a"}"#,
            r#"{"event":"scenarios","names":["a",1]}"#,
            r#"{"event":"cancel","job":1}"#,
            r#"{"event":"cancelled"}"#,
            r#"{"event":"busy","reason":"queue_full","depth":4}"#,
            r#"{"event":"busy","depth":4,"limit":4,"retry_after_ms":100}"#,
            r#"{"event":"busy","reason":"queue_full","depth":4,"limit":4}"#,
            r#"{"event":"stats","mem_hits":1,"disk_hits":0,"misses":2,"entries":1,"bytes":10}"#,
            r#"{"event":"stats","mem_hits":1,"disk_hits":0,"misses":2,"entries":1,"bytes":10,"queue_depth":0}"#,
            r#"{"event":"deadline_exceeded"}"#,
        ] {
            assert!(Frame::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn row_frames_pass_through_untouched() {
        let row = r#"{"scenario":"s","scenario_index":0,"policy":"RANDOM","task":"t","cycle":3,"selected":[1,2],"true_error":0.5,"estimated_probability":0.9,"within_epsilon":true}"#;
        assert_eq!(Frame::parse(row).unwrap(), Frame::Row(row.to_owned()));
        assert_eq!(Frame::Row(row.to_owned()).to_line(), row);
        assert!(Frame::parse("garbage").is_err());
    }

    #[test]
    fn job_states_round_trip_and_terminality() {
        for (index, &(s, name)) in JobState::TABLE.iter().enumerate() {
            assert_eq!(s as usize, index, "table order is discriminant order");
            assert_eq!(JobState::from_index(s as u8), s);
            assert_eq!(s.as_str(), name);
            assert_eq!(JobState::from_str_wire(name), Some(s));
        }
        assert!(JobState::Done.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
        assert!(JobState::Failed.is_terminal());
        assert!(JobState::DeadlineExceeded.is_terminal());
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert_eq!(JobState::from_str_wire("zombie"), None);
    }
}
