//! The durable journal: an append-only, line-delimited log, plus the job
//! lifecycle [`Record`] codec the serving daemon writes into it.
//!
//! Each line is one record of compact JSON (the same writer the wire
//! protocol uses, so the log is greppable and newline-framed). Appends
//! are flushed per line; a crash can therefore lose at most the line
//! being written, and [`Journal::replay`] tolerates exactly that — a
//! truncated or garbled final line is skipped, never fatal (every earlier
//! line was complete when its flush returned). [`Journal::open`] truncates
//! such a torn tail before the first new append, so the next record starts
//! on a fresh line instead of being glued onto the partial one (which
//! would turn a recoverable crash artefact into mid-file corruption on the
//! following restart).
//!
//! Lines are opaque to [`Journal`]: a log's owner passes its record parser
//! to [`Journal::replay`] and inherits the crash-recovery semantics. The
//! daemon's job table journals [`Record`]s — *facts*, not intentions:
//! `create` when a job is accepted, `state` whenever its lifecycle state
//! changes. Recovery policy (what to do with a job that was `queued` or
//! `running` when the process died) belongs to the replayer — the serving
//! daemon marks such jobs `cancelled` and journals that decision, so after
//! a restart the table reports them honestly instead of silently dropping
//! them. The federated sweep manifest in `drcell-serve` is the other log
//! over this type.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use drcell_scenario::json::{parse_json, to_json};
use serde::Value;

/// One journal record, as written and as replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// A job was accepted into the table.
    Create {
        /// Server-assigned job id.
        job: u64,
        /// Scenario count the job expanded to.
        scenarios: usize,
        /// Wall-clock milliseconds since the Unix epoch at acceptance.
        at_ms: u64,
        /// Absolute deadline (epoch ms) the job must finish by, if any.
        /// Absent on records written before deadlines existed — replay
        /// treats absence as "no deadline", so old journals stay valid.
        deadline_ms: Option<u64>,
    },
    /// A job moved to a new lifecycle state.
    State {
        /// Job id.
        job: u64,
        /// Wire name of the new state (`running`, `done`, `cancelled`,
        /// `failed`, `deadline_exceeded` — the journal does not interpret
        /// it).
        state: String,
        /// Scenarios finished at transition time.
        completed: usize,
        /// Wall-clock milliseconds since the Unix epoch at transition.
        at_ms: u64,
        /// Why the job reached this state, when the transition was forced
        /// (`stall`, `queue_age`, `deadline`, `shutdown`, `disconnect`,
        /// `client`, `recovery` — opaque to the journal). Absent for
        /// ordinary progress transitions and on pre-existing records.
        reason: Option<String>,
    },
}

impl Record {
    /// Encodes the record as its journal line (no trailing newline);
    /// `None` fields are omitted.
    pub fn to_line(&self) -> String {
        let entries = match self {
            Record::Create {
                job,
                scenarios,
                at_ms,
                deadline_ms,
            } => {
                let mut entries = vec![
                    ("op".to_owned(), Value::Str("create".to_owned())),
                    ("job".to_owned(), Value::UInt(*job)),
                    ("scenarios".to_owned(), Value::UInt(*scenarios as u64)),
                    ("at_ms".to_owned(), Value::UInt(*at_ms)),
                ];
                if let Some(d) = deadline_ms {
                    entries.push(("deadline_ms".to_owned(), Value::UInt(*d)));
                }
                entries
            }
            Record::State {
                job,
                state,
                completed,
                at_ms,
                reason,
            } => {
                let mut entries = vec![
                    ("op".to_owned(), Value::Str("state".to_owned())),
                    ("job".to_owned(), Value::UInt(*job)),
                    ("state".to_owned(), Value::Str(state.clone())),
                    ("completed".to_owned(), Value::UInt(*completed as u64)),
                    ("at_ms".to_owned(), Value::UInt(*at_ms)),
                ];
                if let Some(r) = reason {
                    entries.push(("reason".to_owned(), Value::Str(r.clone())));
                }
                entries
            }
        };
        to_json(&Value::Map(entries))
    }

    /// Decodes one journal line; `None` for anything that is not a
    /// well-formed record (the [`Journal::replay`] parser contract).
    pub fn parse(line: &str) -> Option<Record> {
        let v = parse_json(line).ok()?;
        let field = |name: &str| v.get(name).and_then(Value::as_u64);
        match v.get("op").and_then(Value::as_str)? {
            "create" => Some(Record::Create {
                job: field("job")?,
                scenarios: field("scenarios")? as usize,
                at_ms: field("at_ms")?,
                deadline_ms: field("deadline_ms"),
            }),
            "state" => Some(Record::State {
                job: field("job")?,
                state: v.get("state").and_then(Value::as_str)?.to_owned(),
                completed: field("completed")? as usize,
                at_ms: field("at_ms")?,
                reason: v.get("reason").and_then(Value::as_str).map(str::to_owned),
            }),
            _ => None,
        }
    }
}

/// Wall-clock milliseconds since the Unix epoch — the journal's (and the
/// job table's) timestamp base.
pub fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// The durable log: append-with-flush, torn-tail repair on open, atomic
/// compaction, and replay under the torn-tail rule. Lines are opaque here
/// — each log's owner brings its own record codec (the job [`Record`],
/// the serve crate's sweep manifest) and inherits the crash-recovery
/// semantics.
///
/// Shareable: appends lock internally and flush before returning.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    writer: Mutex<BufWriter<File>>,
}

impl Journal {
    /// Opens (creating if absent) the log at `path` for appending. A torn
    /// final line left by a crash mid-append is truncated away first —
    /// replay already skips it, but appending after it would glue the
    /// next record onto the partial line.
    ///
    /// # Errors
    ///
    /// Propagates file creation/open failures.
    pub fn open(path: &Path) -> std::io::Result<Journal> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        repair_torn_tail(path)?;
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Journal {
            path: path.to_path_buf(),
            writer: Mutex::new(BufWriter::new(file)),
        })
    }

    /// The log file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one line (which must be newline-free) and flushes it to
    /// the OS. Append failures are reported but the log stays usable
    /// (the next append retries the stream).
    ///
    /// # Errors
    ///
    /// Propagates write/flush failures.
    pub fn append(&self, line: &str) -> std::io::Result<()> {
        debug_assert!(
            !line.contains('\n'),
            "journal lines are newline-framed and must be newline-free"
        );
        if let Some(e) = crate::fault_io("store.journal.append") {
            return Err(e);
        }
        let mut w = self.writer.lock().expect("journal lock");
        w.write_all(line.as_bytes())?;
        w.write_all(b"\n")?;
        w.flush()
    }

    /// Atomically rewrites the log to exactly `lines`: write to a temp
    /// file, fsync, rename over the live path, reopen for append. This is
    /// the compaction primitive — a replayer that has folded the full
    /// history into a snapshot calls this so replay cost and file size
    /// stay proportional to the snapshot, not to every record ever
    /// written. The writer lock is held across the swap, so no append can
    /// interleave with the rewrite or land on the dead file handle.
    ///
    /// # Errors
    ///
    /// Propagates write/rename failures; on error the original log is
    /// untouched (the rename is the commit point).
    pub fn compact(&self, lines: &[String]) -> std::io::Result<()> {
        let mut writer = self.writer.lock().expect("journal lock");
        if let Some(e) = crate::fault_io("store.journal.compact") {
            return Err(e);
        }
        let tmp = self
            .path
            .with_extension(format!("compact.{}", std::process::id()));
        let write = |tmp: &Path| -> std::io::Result<()> {
            let mut f = BufWriter::new(File::create(tmp)?);
            for line in lines {
                f.write_all(line.as_bytes())?;
                f.write_all(b"\n")?;
            }
            f.flush()?;
            f.get_ref().sync_all()
        };
        if let Err(e) = write(&tmp).and_then(|()| std::fs::rename(&tmp, &self.path)) {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        *writer = BufWriter::new(file);
        Ok(())
    }

    /// Replays the log at `path` through `parse`, in append order. A
    /// missing file replays as empty (first boot). A final line `parse`
    /// rejects — the signature of a crash mid-append — is skipped. A
    /// rejected line *before* the last is an error: that is corruption,
    /// not a crash artefact, and silently dropping acknowledged records
    /// would break the durability contract. `parse` sees every non-empty
    /// line in order, so it may carry state (a header that validates
    /// later records).
    ///
    /// # Errors
    ///
    /// Propagates read failures; `InvalidData` on mid-file corruption.
    pub fn replay<T>(
        path: &Path,
        mut parse: impl FnMut(&str) -> Option<T>,
    ) -> std::io::Result<Vec<T>> {
        let content = match std::fs::read_to_string(path) {
            Ok(c) => c,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let lines: Vec<&str> = content.lines().filter(|l| !l.trim().is_empty()).collect();
        let mut records = Vec::with_capacity(lines.len());
        for (i, line) in lines.iter().enumerate() {
            match parse(line) {
                Some(r) => records.push(r),
                None if i + 1 == lines.len() => {
                    // Torn final line from a crash mid-append: drop it.
                }
                None => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!(
                            "corrupt journal record at line {} of {}",
                            i + 1,
                            path.display()
                        ),
                    ));
                }
            }
        }
        Ok(records)
    }
}

/// Truncates a torn final line (one with no trailing newline — the
/// signature of a crash mid-append) back to the end of the last complete
/// record, so the next append starts on a fresh line.
fn repair_torn_tail(path: &Path) -> std::io::Result<()> {
    let mut file = match OpenOptions::new().read(true).write(true).open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)?;
    if bytes.last().is_none_or(|b| *b == b'\n') {
        return Ok(());
    }
    let keep = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    file.set_len(keep as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replay(path: &Path) -> std::io::Result<Vec<Record>> {
        Journal::replay(path, Record::parse)
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("drcell-journal-{tag}-{}", std::process::id()))
    }

    #[test]
    fn records_round_trip_through_the_file() {
        let path = temp_path("roundtrip");
        let _ = std::fs::remove_file(&path);
        let records = vec![
            Record::Create {
                job: 1,
                scenarios: 2,
                at_ms: 1000,
                deadline_ms: None,
            },
            Record::State {
                job: 1,
                state: "running".to_owned(),
                completed: 0,
                at_ms: 1001,
                reason: None,
            },
            Record::State {
                job: 1,
                state: "done".to_owned(),
                completed: 2,
                at_ms: 2002,
                reason: None,
            },
        ];
        {
            let journal = Journal::open(&path).unwrap();
            for r in &records {
                journal.append(&r.to_line()).unwrap();
            }
        }
        assert_eq!(replay(&path).unwrap(), records);
        // Re-opening appends, never truncates.
        let journal = Journal::open(&path).unwrap();
        journal
            .append(
                &Record::Create {
                    job: 2,
                    scenarios: 1,
                    at_ms: 3000,
                    deadline_ms: None,
                }
                .to_line(),
            )
            .unwrap();
        assert_eq!(replay(&path).unwrap().len(), 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn pre_deadline_records_parse_with_absent_optional_fields() {
        // Lines written before deadlines/reasons existed must replay as
        // `None`, and records carrying the new fields must round-trip.
        let old_create = "{\"op\":\"create\",\"job\":3,\"scenarios\":4,\"at_ms\":10}";
        assert_eq!(
            Record::parse(old_create),
            Some(Record::Create {
                job: 3,
                scenarios: 4,
                at_ms: 10,
                deadline_ms: None,
            })
        );
        let old_state =
            "{\"op\":\"state\",\"job\":3,\"state\":\"cancelled\",\"completed\":1,\"at_ms\":11}";
        assert_eq!(
            Record::parse(old_state),
            Some(Record::State {
                job: 3,
                state: "cancelled".to_owned(),
                completed: 1,
                at_ms: 11,
                reason: None,
            })
        );
        let with_deadline = Record::Create {
            job: 9,
            scenarios: 1,
            at_ms: 20,
            deadline_ms: Some(5020),
        };
        assert_eq!(Record::parse(&with_deadline.to_line()), Some(with_deadline));
        let with_reason = Record::State {
            job: 9,
            state: "cancelled".to_owned(),
            completed: 0,
            at_ms: 30,
            reason: Some("stall".to_owned()),
        };
        assert_eq!(Record::parse(&with_reason.to_line()), Some(with_reason));
    }

    #[test]
    fn missing_file_replays_empty() {
        let path = temp_path("missing");
        let _ = std::fs::remove_file(&path);
        assert_eq!(replay(&path).unwrap(), Vec::new());
    }

    #[test]
    fn torn_final_line_is_skipped_but_mid_file_garbage_is_fatal() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        let journal = Journal::open(&path).unwrap();
        journal
            .append(
                &Record::Create {
                    job: 1,
                    scenarios: 1,
                    at_ms: 7,
                    deadline_ms: None,
                }
                .to_line(),
            )
            .unwrap();
        drop(journal);
        // Simulate a crash mid-append: a truncated trailing line.
        let mut content = std::fs::read_to_string(&path).unwrap();
        content.push_str("{\"op\":\"state\",\"job\":1,\"sta");
        std::fs::write(&path, &content).unwrap();
        let replayed = replay(&path).unwrap();
        assert_eq!(replayed.len(), 1);
        // But garbage *between* valid records is corruption.
        let torn = std::fs::read_to_string(&path).unwrap();
        let corrupted = format!("not json at all\n{torn}");
        std::fs::write(&path, corrupted).unwrap();
        assert!(replay(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_repairs_a_torn_tail_so_appends_never_glue() {
        let path = temp_path("repair");
        let _ = std::fs::remove_file(&path);
        let first = Record::Create {
            job: 1,
            scenarios: 1,
            at_ms: 7,
            deadline_ms: None,
        };
        {
            let journal = Journal::open(&path).unwrap();
            journal.append(&first.to_line()).unwrap();
        }
        // Crash mid-append: a partial line with no trailing newline.
        let mut content = std::fs::read_to_string(&path).unwrap();
        content.push_str("{\"op\":\"state\",\"job\":1,\"sta");
        std::fs::write(&path, &content).unwrap();
        // The restart-after-crash sequence the torn tail used to corrupt:
        // open (appends would otherwise glue onto the partial line), write
        // a recovery record, then replay on the *next* restart.
        let journal = Journal::open(&path).unwrap();
        let second = Record::State {
            job: 1,
            state: "cancelled".to_owned(),
            completed: 0,
            at_ms: 9,
            reason: None,
        };
        journal.append(&second.to_line()).unwrap();
        drop(journal);
        assert_eq!(
            replay(&path).unwrap(),
            vec![first, second],
            "torn tail must be truncated, not glued into the next record"
        );
        // A torn tail with no complete record at all truncates to empty.
        std::fs::write(&path, "{\"op\":\"cre").unwrap();
        let journal = Journal::open(&path).unwrap();
        journal
            .append(
                &Record::Create {
                    job: 1,
                    scenarios: 2,
                    at_ms: 1,
                    deadline_ms: None,
                }
                .to_line(),
            )
            .unwrap();
        drop(journal);
        assert_eq!(replay(&path).unwrap().len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compact_rewrites_the_file_and_keeps_appending() {
        let path = temp_path("compact");
        let _ = std::fs::remove_file(&path);
        let journal = Journal::open(&path).unwrap();
        for i in 0..10 {
            journal
                .append(
                    &Record::State {
                        job: 1,
                        state: "running".to_owned(),
                        completed: i,
                        at_ms: i as u64,
                        reason: None,
                    }
                    .to_line(),
                )
                .unwrap();
        }
        let snapshot = vec![Record::Create {
            job: 1,
            scenarios: 10,
            at_ms: 0,
            deadline_ms: None,
        }];
        journal.compact(&[snapshot[0].to_line()]).unwrap();
        assert_eq!(replay(&path).unwrap(), snapshot);
        // Appends after compaction land in the rewritten file.
        let tail = Record::State {
            job: 1,
            state: "done".to_owned(),
            completed: 10,
            at_ms: 11,
            reason: None,
        };
        journal.append(&tail.to_line()).unwrap();
        drop(journal);
        assert_eq!(replay(&path).unwrap(), vec![snapshot[0].clone(), tail]);
        let _ = std::fs::remove_file(&path);
    }
}
