//! The server's job table: ids, lifecycle states, timestamps,
//! cancellation flags — and, when configured, the durable journal that
//! lets all of it survive a daemon restart.
//!
//! Jobs are shared between three parties — the connection thread that
//! submitted them, the worker thread executing them, and any other
//! connection cancelling or listing them — so every field is either
//! immutable or an atomic. A [`Job`]'s state only ever moves forward
//! (`Queued → Running → {Done, Cancelled, Failed}`), and the cancel flag
//! is sticky: once set it stays set, and the executing worker observes it
//! at the next cycle boundary.
//!
//! With a journal attached, every accepted job and every state transition
//! is appended (and flushed) as a fact; [`JobTable::with_journal`] replays
//! those facts at startup and then compacts the file to the snapshot it
//! reconstructed, so journal size and replay time stay proportional to the
//! job count, not to the full record history. A job that was still
//! `queued`/`running` when the process died cannot be resumed — its stream
//! had no receiver — so recovery marks it `cancelled` and persists *that*
//! too: after a restart the table reports what actually happened instead
//! of forgetting the job.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use drcell_store::{now_ms, Journal, Record};

use crate::protocol::{JobInfo, JobState};

/// One submitted job, shared via [`Arc`] between connection, worker and
/// table.
#[derive(Debug)]
pub struct Job {
    /// Server-unique job id (dense, starting at 1).
    pub id: u64,
    /// Number of scenarios the job expands to.
    pub scenarios: usize,
    /// Epoch milliseconds when the job was accepted.
    pub queued_ms: u64,
    /// Absolute deadline (epoch ms) the job must finish by; 0 = none.
    deadline_ms: u64,
    /// Scenarios finished so far (successes and failures).
    completed: AtomicUsize,
    /// The failed subset of `completed`.
    failed: AtomicUsize,
    state: AtomicU8,
    cancel: AtomicBool,
    /// Epoch ms when a worker started it; 0 = not yet.
    started_ms: AtomicU64,
    /// Epoch ms of the last progress heartbeat (cycle streamed, scenario
    /// finished); 0 = none yet. The stall watchdog reads this.
    progress_ms: AtomicU64,
    /// Epoch ms when it reached a terminal state; 0 = not yet.
    finished_ms: AtomicU64,
    /// Why a forced terminal state was reached (first writer wins; `None`
    /// for ordinary lifecycles and plain client cancels).
    reason: Mutex<Option<String>>,
    journal: Option<Arc<Journal>>,
}

impl Job {
    fn new(
        id: u64,
        scenarios: usize,
        queued_ms: u64,
        deadline_ms: u64,
        journal: Option<Arc<Journal>>,
    ) -> Self {
        Job {
            id,
            scenarios,
            queued_ms,
            deadline_ms,
            completed: AtomicUsize::new(0),
            failed: AtomicUsize::new(0),
            state: AtomicU8::new(JobState::Queued as u8),
            cancel: AtomicBool::new(false),
            started_ms: AtomicU64::new(0),
            progress_ms: AtomicU64::new(0),
            finished_ms: AtomicU64::new(0),
            reason: Mutex::new(None),
            journal,
        }
    }

    /// Current lifecycle state.
    pub fn state(&self) -> JobState {
        JobState::from_index(self.state.load(Ordering::Acquire))
    }

    /// Moves the job to `state`. Terminal states are final: a job that is
    /// already `Done`/`Cancelled`/`Failed` keeps its state (last writer
    /// between a cancelling connection and a finishing worker does not
    /// flip the outcome back). Effective transitions are timestamped and
    /// journalled.
    pub fn set_state(&self, state: JobState) {
        let at_ms = now_ms();
        if !self.transition(state, at_ms) {
            return;
        }
        if let Some(journal) = &self.journal {
            let record = Record::State {
                job: self.id,
                state: state.as_str().to_owned(),
                completed: self.completed.load(Ordering::Acquire),
                at_ms,
                reason: if state.is_terminal() {
                    self.reason()
                } else {
                    None
                },
            };
            let _ = journal.append(&record.to_line());
        }
    }

    /// The forward-only state machine behind [`Job::set_state`] and
    /// replay: moves to `state` unless the job is already terminal, and
    /// stamps the entry into `Running` / a terminal state with `at_ms`.
    /// Returns whether the job moved.
    fn transition(&self, state: JobState, at_ms: u64) -> bool {
        let moved = self
            .state
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
                (!JobState::from_index(cur).is_terminal()).then_some(state as u8)
            })
            .is_ok();
        if !moved {
            return false;
        }
        let stamp = if state == JobState::Running {
            &self.started_ms
        } else if state.is_terminal() {
            &self.finished_ms
        } else {
            return true;
        };
        // First writer wins on each timestamp: a state can only be entered
        // once (forward-only machine), so the CAS is belt and braces.
        let _ = stamp.compare_exchange(0, at_ms, Ordering::AcqRel, Ordering::Acquire);
        true
    }

    /// Requests cancellation; the worker honours it at the next cycle
    /// boundary (or before starting, if still queued).
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Release);
    }

    /// `true` once cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::Acquire)
    }

    /// The job's absolute deadline (epoch ms); 0 = unbounded.
    pub fn deadline_ms(&self) -> u64 {
        self.deadline_ms
    }

    /// `true` once the server clock has passed the job's deadline.
    pub fn deadline_expired(&self, now_ms: u64) -> bool {
        self.deadline_ms != 0 && now_ms > self.deadline_ms
    }

    /// Records why this job is about to be forced terminal (`stall`,
    /// `deadline`, `queue_age`, `shutdown`, `disconnect`, `recovery`).
    /// First writer wins: a watchdog and a disconnecting client racing to
    /// kill the same job report one coherent cause. Call *before* the
    /// terminal [`Job::set_state`], which journals the stored reason.
    pub fn set_reason(&self, reason: &str) {
        let mut slot = self.reason.lock().expect("job reason lock");
        if slot.is_none() {
            *slot = Some(reason.to_owned());
        }
    }

    /// The recorded forced-termination reason, if any.
    pub fn reason(&self) -> Option<String> {
        self.reason.lock().expect("job reason lock").clone()
    }

    /// Stamps the progress heartbeat with the current wall clock. The
    /// executing worker calls this from the streaming hook (every cycle)
    /// and on each scenario boundary; the stall watchdog compares the
    /// stamp against `--stall-secs`.
    pub fn touch_progress(&self) {
        self.progress_ms.store(now_ms(), Ordering::Release);
    }

    /// The latest sign of life: the progress heartbeat, or the start/queue
    /// stamp while no cycle has finished yet (a job is not "stalled" by
    /// time it spent waiting for a worker, and training before the first
    /// cycle emits no records to heartbeat from — the watchdog's clock
    /// starts when the worker does).
    pub fn last_progress_ms(&self) -> u64 {
        let progress = self.progress_ms.load(Ordering::Acquire);
        let started = self.started_ms.load(Ordering::Acquire);
        progress.max(started).max(self.queued_ms)
    }

    /// Records one more finished scenario. Durable tables journal the
    /// progress too (as a same-state record), so a crash mid-job replays
    /// with the completed count it actually reached, not the count at its
    /// last state transition.
    pub fn mark_scenario_finished(&self) {
        let completed = self.completed.fetch_add(1, Ordering::AcqRel) + 1;
        self.touch_progress();
        if let Some(journal) = &self.journal {
            let record = Record::State {
                job: self.id,
                state: self.state().as_str().to_owned(),
                completed,
                at_ms: now_ms(),
                reason: None,
            };
            let _ = journal.append(&record.to_line());
        }
    }

    /// [`Job::mark_scenario_finished`] for a scenario that failed.
    pub(crate) fn mark_scenario_failed(&self) {
        self.failed.fetch_add(1, Ordering::AcqRel);
        self.mark_scenario_finished();
    }

    /// `(ok, failed)` scenario counts so far — what a `done` frame
    /// reports.
    pub(crate) fn outcome(&self) -> (usize, usize) {
        let failed = self.failed.load(Ordering::Acquire);
        let completed = self.completed.load(Ordering::Acquire);
        (completed.saturating_sub(failed), failed)
    }

    /// Snapshot row for the `jobs` listing.
    pub fn info(&self) -> JobInfo {
        let opt = |v: u64| if v == 0 { None } else { Some(v) };
        JobInfo {
            job: self.id,
            state: self.state(),
            scenarios: self.scenarios,
            completed: self.completed.load(Ordering::Acquire),
            queued_ms: self.queued_ms,
            started_ms: opt(self.started_ms.load(Ordering::Acquire)),
            finished_ms: opt(self.finished_ms.load(Ordering::Acquire)),
            deadline_ms: opt(self.deadline_ms),
            reason: self.reason(),
        }
    }

    /// Applies a replayed historical transition — same forward-only rules
    /// as [`Job::set_state`], but without journalling (the record already
    /// *is* the journal) and with the recorded timestamp.
    fn apply_recovered(&self, state: JobState, completed: usize, at_ms: u64, reason: Option<&str>) {
        if self.transition(state, at_ms) {
            self.completed.store(completed, Ordering::Release);
            if let Some(r) = reason {
                self.set_reason(r);
            }
        }
    }
}

/// The server's job registry: assigns ids, keeps every job for the
/// lifetime of the process (the table is the audit trail `jobs` reports),
/// and — when built with [`JobTable::with_journal`] — across restarts.
#[derive(Debug, Default)]
pub struct JobTable {
    jobs: Mutex<Vec<Arc<Job>>>,
    journal: Option<Arc<Journal>>,
}

impl JobTable {
    /// An empty, in-memory-only table.
    pub fn new() -> Self {
        JobTable::default()
    }

    /// A durable table over `journal`: replays every record already in the
    /// file to reconstruct the previous process's jobs, compacts the file
    /// down to that reconstructed snapshot (so replay cost does not grow
    /// with the daemon's full history), then keeps appending. Jobs that
    /// were not terminal at the crash/shutdown are marked `cancelled` —
    /// and that recovery decision is part of the compacted snapshot, so
    /// the next restart replays it as a plain fact.
    ///
    /// # Errors
    ///
    /// Propagates journal I/O failures and replay corruption (including
    /// non-dense job ids, which this table never writes).
    pub fn with_journal(journal: Arc<Journal>) -> std::io::Result<JobTable> {
        let records = Journal::replay(journal.path(), Record::parse)?;
        let mut jobs: Vec<Arc<Job>> = Vec::new();
        for record in records {
            match record {
                Record::Create {
                    job,
                    scenarios,
                    at_ms,
                    deadline_ms,
                } => {
                    if job != jobs.len() as u64 + 1 {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!(
                                "journal replays job id {job} where {} was expected",
                                jobs.len() + 1
                            ),
                        ));
                    }
                    jobs.push(Arc::new(Job::new(
                        job,
                        scenarios,
                        at_ms,
                        deadline_ms.unwrap_or(0),
                        Some(Arc::clone(&journal)),
                    )));
                }
                Record::State {
                    job,
                    state,
                    completed,
                    at_ms,
                    reason,
                } => {
                    // Unknown ids or states in an otherwise well-formed
                    // record are skipped, not fatal: a future daemon may
                    // journal vocabulary this one does not know.
                    let (Some(entry), Some(state)) = (
                        (job as usize).checked_sub(1).and_then(|i| jobs.get(i)),
                        JobState::from_str_wire(&state),
                    ) else {
                        continue;
                    };
                    entry.apply_recovered(state, completed, at_ms, reason.as_deref());
                }
            }
        }
        // Anything non-terminal died with the old process: its stream has
        // no receiver, so the honest state is cancelled. The compaction
        // below persists the decision.
        for job in &jobs {
            if !job.state().is_terminal() {
                job.cancel();
                job.set_reason("recovery");
                job.set_state(JobState::Cancelled);
            }
        }
        // Compact: the replayed history (per-scenario progress records
        // included) collapses into the snapshot that reproduces today's
        // table — including the recovery cancellations above — so replay
        // cost and journal size stay O(jobs) across restarts instead of
        // O(every record ever written). Within one incarnation the file
        // still grows with progress records; the next restart folds them
        // away again.
        let mut snapshot = Vec::with_capacity(jobs.len() * 3);
        for job in &jobs {
            snapshot.push(Record::Create {
                job: job.id,
                scenarios: job.scenarios,
                at_ms: job.queued_ms,
                deadline_ms: (job.deadline_ms != 0).then_some(job.deadline_ms),
            });
            let completed = job.completed.load(Ordering::Acquire);
            let started_ms = job.started_ms.load(Ordering::Acquire);
            if started_ms != 0 {
                snapshot.push(Record::State {
                    job: job.id,
                    state: JobState::Running.as_str().to_owned(),
                    completed,
                    at_ms: started_ms,
                    reason: None,
                });
            }
            let state = job.state();
            if state.is_terminal() {
                snapshot.push(Record::State {
                    job: job.id,
                    state: state.as_str().to_owned(),
                    completed,
                    at_ms: job.finished_ms.load(Ordering::Acquire),
                    reason: job.reason(),
                });
            }
        }
        journal.compact(&snapshot.iter().map(Record::to_line).collect::<Vec<_>>())?;
        Ok(JobTable {
            jobs: Mutex::new(jobs),
            journal: Some(journal),
        })
    }

    /// Creates a queued job over `scenarios` scenarios (journalled when
    /// the table is durable). `deadline_ms` is the absolute server-clock
    /// deadline, or `None` for an unbounded job.
    pub fn create(&self, scenarios: usize, deadline_ms: Option<u64>) -> Arc<Job> {
        let mut jobs = self.jobs.lock().expect("job table lock");
        let id = jobs.len() as u64 + 1;
        let queued_ms = now_ms();
        let job = Arc::new(Job::new(
            id,
            scenarios,
            queued_ms,
            deadline_ms.unwrap_or(0),
            self.journal.clone(),
        ));
        // Journalled under the table lock so create records hit the file
        // in id order — the density invariant `with_journal` replays by.
        if let Some(journal) = &self.journal {
            let record = Record::Create {
                job: id,
                scenarios,
                at_ms: queued_ms,
                deadline_ms,
            };
            let _ = journal.append(&record.to_line());
        }
        jobs.push(Arc::clone(&job));
        job
    }

    /// Looks a job up by id.
    pub fn get(&self, id: u64) -> Option<Arc<Job>> {
        let jobs = self.jobs.lock().expect("job table lock");
        // Ids are dense and 1-based: direct index.
        jobs.get((id as usize).checked_sub(1)?).cloned()
    }

    /// Snapshot of every job, in id order.
    pub fn snapshot(&self) -> Vec<JobInfo> {
        let jobs = self.jobs.lock().expect("job table lock");
        jobs.iter().map(|j| j.info()).collect()
    }

    /// Handles of every job currently `Running` — the set the stall
    /// watchdog scans. (Queued jobs are exempt: waiting for a worker is
    /// not a stall, and the queue-age shed policy covers them.)
    pub fn running(&self) -> Vec<Arc<Job>> {
        let jobs = self.jobs.lock().expect("job table lock");
        jobs.iter()
            .filter(|j| j.state() == JobState::Running)
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn ids_are_dense_and_lookup_works() {
        let table = JobTable::new();
        let a = table.create(3, None);
        let b = table.create(1, None);
        assert_eq!(a.id, 1);
        assert_eq!(b.id, 2);
        assert_eq!(table.get(1).unwrap().id, 1);
        assert!(table.get(0).is_none());
        assert!(table.get(3).is_none());
        assert_eq!(table.snapshot().len(), 2);
    }

    #[test]
    fn state_machine_moves_forward_only() {
        let table = JobTable::new();
        let j = table.create(2, None);
        assert_eq!(j.state(), JobState::Queued);
        j.set_state(JobState::Running);
        assert_eq!(j.state(), JobState::Running);
        j.set_state(JobState::Cancelled);
        assert_eq!(j.state(), JobState::Cancelled);
        // Terminal states win against late writers.
        j.set_state(JobState::Done);
        assert_eq!(j.state(), JobState::Cancelled);
    }

    #[test]
    fn cancel_flag_is_sticky_and_progress_counts() {
        let table = JobTable::new();
        let j = table.create(2, None);
        assert!(!j.is_cancelled());
        j.cancel();
        j.cancel();
        assert!(j.is_cancelled());
        j.mark_scenario_finished();
        assert_eq!(j.info().completed, 1);
        assert_eq!(j.info().scenarios, 2);
    }

    #[test]
    fn timestamps_track_the_lifecycle() {
        let table = JobTable::new();
        let j = table.create(1, None);
        let info = j.info();
        assert!(info.queued_ms > 0);
        assert_eq!(info.started_ms, None);
        assert_eq!(info.finished_ms, None);
        j.set_state(JobState::Running);
        let started = j.info().started_ms.expect("started stamp");
        assert!(started >= info.queued_ms);
        assert_eq!(j.info().finished_ms, None);
        j.set_state(JobState::Done);
        let done = j.info();
        assert_eq!(done.started_ms, Some(started), "start stamp is sticky");
        assert!(done.finished_ms.expect("finish stamp") >= started);
    }

    fn temp_journal(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "drcell-jobtable-{tag}-{}.journal",
            std::process::id()
        ))
    }

    #[test]
    fn durable_table_replays_jobs_and_cancels_the_unfinished() {
        let path = temp_journal("replay");
        let _ = std::fs::remove_file(&path);
        {
            let table = JobTable::with_journal(Arc::new(Journal::open(&path).unwrap())).unwrap();
            let done = table.create(2, None);
            done.set_state(JobState::Running);
            done.mark_scenario_finished();
            done.mark_scenario_finished();
            done.set_state(JobState::Done);
            let stuck = table.create(3, None);
            stuck.set_state(JobState::Running);
            stuck.mark_scenario_finished();
            table.create(1, None); // still queued at "crash"
        }
        let table = JobTable::with_journal(Arc::new(Journal::open(&path).unwrap())).unwrap();
        let snap = table.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].state, JobState::Done);
        assert_eq!(snap[0].completed, 2);
        assert!(snap[0].finished_ms.is_some());
        // The running and queued jobs were recovery-cancelled, honestly.
        assert_eq!(snap[1].state, JobState::Cancelled);
        assert_eq!(snap[1].completed, 1);
        assert!(snap[1].started_ms.is_some());
        assert_eq!(snap[2].state, JobState::Cancelled);
        assert_eq!(snap[2].started_ms, None);
        // New ids continue densely after the replayed ones.
        assert_eq!(table.create(1, None).id, 4);
        // A third incarnation replays the recovery cancellations as plain
        // facts — states are unchanged.
        drop(table);
        let table = JobTable::with_journal(Arc::new(Journal::open(&path).unwrap())).unwrap();
        let snap = table.snapshot();
        assert_eq!(snap.len(), 4);
        assert_eq!(snap[1].state, JobState::Cancelled);
        assert_eq!(snap[3].state, JobState::Cancelled);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn restart_compacts_the_journal_to_a_snapshot() {
        let path = temp_journal("compact");
        let _ = std::fs::remove_file(&path);
        let journal_lines = |p: &std::path::Path| {
            std::fs::read_to_string(p)
                .unwrap()
                .lines()
                .filter(|l| !l.trim().is_empty())
                .count()
        };
        {
            let table = JobTable::with_journal(Arc::new(Journal::open(&path).unwrap())).unwrap();
            let job = table.create(40, None);
            job.set_state(JobState::Running);
            for _ in 0..40 {
                job.mark_scenario_finished(); // one progress record each
            }
            job.set_state(JobState::Done);
        }
        let before = journal_lines(&path);
        assert!(before > 40, "history journal holds progress records");
        let table = JobTable::with_journal(Arc::new(Journal::open(&path).unwrap())).unwrap();
        // The snapshot per job is create + running + terminal — history
        // stays bounded by the table, not by per-scenario progress.
        assert_eq!(journal_lines(&path), 3);
        let info = table.snapshot()[0].clone();
        assert_eq!(info.state, JobState::Done);
        assert_eq!(info.completed, 40);
        assert!(info.started_ms.is_some() && info.finished_ms.is_some());
        // The compacted journal replays identically on the next restart.
        drop(table);
        let table = JobTable::with_journal(Arc::new(Journal::open(&path).unwrap())).unwrap();
        assert_eq!(table.snapshot()[0], info);
        let _ = std::fs::remove_file(&path);
    }
}
