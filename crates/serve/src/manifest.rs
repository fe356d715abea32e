//! The durable sweep manifest: per-shard completion checkpoints for
//! federated sweeps, so a coordinator killed mid-`fansweep` resumes with
//! only the unfinished shards — and still merges byte-identically.
//!
//! Layout under the manifest directory:
//!
//! ```text
//! manifest.jsonl   append-only drcell-store Journal: per-record flush,
//!                  torn-tail tolerant replay, compacted on resume
//! rows/            content-addressed shard row streams (ResultCache disk
//!                  tier: write-to-temp + atomic rename, one file per key)
//! ```
//!
//! The log's first record names the **sweep key** — a SHA-256 over every
//! expanded scenario's [`drcell_store::scenario_key`] — and the shard
//! plan. Every later record marks one shard complete, keyed by a
//! shard-range hash under which its rows were committed to `rows/`
//! *before* the record was appended. That ordering is the correctness
//! argument: a record without rows cannot exist after a crash (the rows
//! landed first), and rows without a record are merely recomputed. Both
//! sides are content-addressed, so a resumed merge replays the exact
//! bytes the original daemons streamed.
//!
//! Resume replays the log through [`Journal::replay`] — the one home of
//! the torn-tail rule: a torn final record only re-runs its shard, while
//! a garbled earlier one fails loudly — with a parser that reads the
//! header first and checks every shard record against its plan. It then
//! validates the sweep key before trusting anything: a manifest from a
//! different sweep spec, or with a missing or garbled header, fails
//! loudly instead of splicing foreign rows into the output.

use std::ops::Range;
use std::path::{Path, PathBuf};

use drcell_scenario::json::{parse_json, to_json};
use drcell_scenario::SweepSpec;
use drcell_store::sha256::{hex, Sha256};
use drcell_store::{scenario_key, Journal, ResultCache};
use serde::Value;

use crate::client::JobOutput;

/// One shard recorded complete in the manifest, replayed on resume.
#[derive(Debug, Clone)]
pub struct CompletedShard {
    /// The daemon that served the shard in the original run.
    pub daemon: String,
    /// Dispatch attempts the shard took in the original run.
    pub attempts: usize,
    /// The shard's full output — rows reloaded from the content-addressed
    /// store, counts and per-scenario errors from the record.
    pub output: JobOutput,
}

/// Content hash identifying a sweep: SHA-256 over the
/// [`scenario_key`] of every expanded matrix cell, in matrix order.
/// Canonicalisation (defaults materialised, execution-sizing knobs
/// erased) is inherited from the per-scenario keys, so two spellings of
/// the same sweep resume each other's manifests.
pub fn sweep_key(spec: &SweepSpec) -> String {
    let mut h = Sha256::new();
    for (index, scenario) in spec.expand().iter().enumerate() {
        h.update(scenario_key(scenario, index).as_bytes());
        h.update(b"\n");
    }
    hex(&h.finish())
}

/// Key of one shard's row stream in the manifest's `rows/` store.
fn shard_key(sweep: &str, range: &Range<usize>) -> String {
    Sha256::hex_digest(format!("{sweep}:{}..{}", range.start, range.end).as_bytes())
}

/// A durable checkpoint store for one federated sweep. Shareable across
/// coordinator workers: records lock internally (journal writer lock,
/// cache locks).
#[derive(Debug)]
pub struct SweepManifest {
    journal: Journal,
    rows: ResultCache,
    key: String,
    ranges: Vec<Range<usize>>,
    completed: Vec<Option<CompletedShard>>,
}

impl SweepManifest {
    /// Creates a fresh manifest for `spec` sharded as `ranges`, replacing
    /// any previous log in `dir`. The `rows/` store is *kept* — it is
    /// content-addressed, so stale entries are unreachable and matching
    /// ones save recomputation.
    ///
    /// # Errors
    ///
    /// Propagates directory/journal creation and header-append failures.
    pub fn create(dir: &Path, spec: &SweepSpec, ranges: &[Range<usize>]) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let log_path = Self::log_path(dir);
        let _ = std::fs::remove_file(&log_path);
        let journal = Journal::open(&log_path)?;
        let key = sweep_key(spec);
        journal.append(&header_line(&key, spec.matrix_len(), ranges))?;
        Ok(SweepManifest {
            journal,
            rows: Self::row_store(dir)?,
            key,
            ranges: ranges.to_vec(),
            completed: vec![None; ranges.len()],
        })
    }

    /// Opens an existing manifest for resumption: validates the sweep key
    /// against `spec`, adopts the recorded shard plan (overriding
    /// whatever shard count the resuming run asked for — completed
    /// checkpoints only make sense under their original ranges), reloads
    /// every completed shard whose rows are present, and compacts the log
    /// back to exactly the surviving records.
    ///
    /// A torn final line (coordinator killed mid-append) is skipped: its
    /// shard simply re-runs. Earlier unparseable lines are corruption and
    /// fail loudly.
    ///
    /// # Errors
    ///
    /// `NotFound` when there is no manifest to resume; `InvalidData` on a
    /// sweep-key mismatch, a missing/garbled header, or mid-log
    /// corruption; otherwise propagates I/O failures.
    pub fn resume(dir: &Path, spec: &SweepSpec) -> std::io::Result<Self> {
        let log_path = Self::log_path(dir);
        if !log_path.exists() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("no sweep manifest at {}", log_path.display()),
            ));
        }
        let corrupt = |what: &str| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{what} in sweep manifest {}", log_path.display()),
            )
        };
        // The first record is the header; every later one is a shard
        // checkpoint, validated against the header's plan. The header
        // itself replays as `None`.
        let mut header: Option<(String, usize, Vec<Range<usize>>)> = None;
        let shards = Journal::replay(&log_path, |line| {
            if let Some((_, _, ranges)) = &header {
                return parse_shard(line, ranges).map(Some);
            }
            header = Some(parse_header(line)?);
            Some(None)
        })?;
        let (key, total, ranges) = header.ok_or_else(|| corrupt("missing or garbled header"))?;
        let expected = sweep_key(spec);
        if key != expected {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!(
                    "sweep manifest {} belongs to a different sweep \
                     (manifest key {key}, this sweep {expected})",
                    log_path.display()
                ),
            ));
        }
        if total != spec.matrix_len() || ranges.last().is_none_or(|r| r.end != total) {
            return Err(corrupt("shard plan does not cover the sweep"));
        }
        let rows = Self::row_store(dir)?;
        let mut completed: Vec<Option<CompletedShard>> = vec![None; ranges.len()];
        for (shard, record) in shards.into_iter().flatten() {
            // Trust the record only if its rows actually committed (the
            // crash window between cache insert and append is covered by
            // re-running the shard).
            if let Some(stream) = rows.lookup(&shard_key(&key, &ranges[shard])) {
                let mut output = record.output;
                output.rows = stream.as_ref().clone();
                completed[shard] = Some(CompletedShard { output, ..record });
            }
        }
        // Re-open for append and compact to the surviving records, so log
        // size stays proportional to the shard plan across resumes.
        let journal = Journal::open(&log_path)?;
        let mut compacted = vec![header_line(&key, total, &ranges)];
        for (shard, done) in completed.iter().enumerate() {
            if let Some(c) = done {
                compacted.push(shard_line(&ranges[shard], shard, &key, c));
            }
        }
        journal.compact(&compacted)?;
        Ok(SweepManifest {
            journal,
            rows,
            key,
            ranges,
            completed,
        })
    }

    fn log_path(dir: &Path) -> PathBuf {
        dir.join("manifest.jsonl")
    }

    fn row_store(dir: &Path) -> std::io::Result<ResultCache> {
        // Zero memory budget: the manifest is a durability layer, not a
        // read cache — everything lives in (and reloads from) rows/.
        ResultCache::new(0, Some(dir.join("rows")))
    }

    /// The shard plan this manifest checkpoints (on resume, the plan of
    /// the original run).
    pub fn ranges(&self) -> &[Range<usize>] {
        &self.ranges
    }

    /// Completed shards replayed from disk on resume, by shard index.
    pub fn completed(&self) -> &[Option<CompletedShard>] {
        &self.completed
    }

    /// Durably records one shard complete: rows first (content-addressed,
    /// atomic rename), then the completion record (append + flush). Call
    /// only with a fully drained, uncancelled shard output.
    ///
    /// # Errors
    ///
    /// Propagates append failures. The caller may treat them as
    /// best-effort (the sweep's own result is unaffected; the shard will
    /// re-run on resume), but a coordinator that wants hard checkpoint
    /// guarantees can fail loudly instead.
    pub fn record(
        &self,
        shard: usize,
        daemon: &str,
        attempts: usize,
        output: &JobOutput,
    ) -> std::io::Result<()> {
        let range = &self.ranges[shard];
        self.rows
            .insert(&shard_key(&self.key, range), output.rows.clone());
        let done = CompletedShard {
            daemon: daemon.to_owned(),
            attempts,
            output: output.clone(),
        };
        self.journal
            .append(&shard_line(range, shard, &self.key, &done))
    }
}

fn header_line(key: &str, total: usize, ranges: &[Range<usize>]) -> String {
    let shards: Vec<Value> = ranges
        .iter()
        .map(|r| Value::Seq(vec![Value::UInt(r.start as u64), Value::UInt(r.end as u64)]))
        .collect();
    to_json(&Value::Map(vec![
        ("op".to_owned(), Value::Str("sweep".to_owned())),
        ("key".to_owned(), Value::Str(key.to_owned())),
        ("total".to_owned(), Value::UInt(total as u64)),
        ("shards".to_owned(), Value::Seq(shards)),
    ]))
}

fn parse_header(line: &str) -> Option<(String, usize, Vec<Range<usize>>)> {
    let v = parse_json(line).ok()?;
    if v.get("op").and_then(Value::as_str) != Some("sweep") {
        return None;
    }
    let key = v.get("key").and_then(Value::as_str)?.to_owned();
    let total = v.get("total").and_then(Value::as_u64)? as usize;
    let mut ranges = Vec::new();
    let mut cursor = 0usize;
    for rv in v.get("shards").and_then(Value::as_seq)? {
        let bounds = rv.as_seq()?;
        let (start, end) = match bounds {
            [s, e] => (s.as_u64()? as usize, e.as_u64()? as usize),
            _ => return None,
        };
        // The plan must tile 0..total contiguously — anything else cannot
        // have come from `shard_ranges` and would desync merge order.
        if start != cursor || end < start {
            return None;
        }
        cursor = end;
        ranges.push(start..end);
    }
    (cursor == total).then_some((key, total, ranges))
}

fn shard_line(range: &Range<usize>, shard: usize, sweep: &str, done: &CompletedShard) -> String {
    let errors: Vec<Value> = done
        .output
        .scenario_errors
        .iter()
        .map(|(index, msg)| Value::Seq(vec![Value::UInt(*index as u64), Value::Str(msg.clone())]))
        .collect();
    to_json(&Value::Map(vec![
        ("op".to_owned(), Value::Str("shard".to_owned())),
        ("index".to_owned(), Value::UInt(shard as u64)),
        ("start".to_owned(), Value::UInt(range.start as u64)),
        ("end".to_owned(), Value::UInt(range.end as u64)),
        ("key".to_owned(), Value::Str(shard_key(sweep, range))),
        ("daemon".to_owned(), Value::Str(done.daemon.clone())),
        ("attempts".to_owned(), Value::UInt(done.attempts as u64)),
        ("ok".to_owned(), Value::UInt(done.output.ok as u64)),
        ("failed".to_owned(), Value::UInt(done.output.failed as u64)),
        ("errors".to_owned(), Value::Seq(errors)),
    ]))
}

/// Parses a shard record, returning its index and the completion data
/// (rows left empty — the caller reloads them from the content store).
/// `None` for anything that does not validate against the shard plan.
fn parse_shard(line: &str, ranges: &[Range<usize>]) -> Option<(usize, CompletedShard)> {
    let v = parse_json(line).ok()?;
    if v.get("op").and_then(Value::as_str) != Some("shard") {
        return None;
    }
    let shard = v.get("index").and_then(Value::as_u64)? as usize;
    let range = ranges.get(shard)?;
    let start = v.get("start").and_then(Value::as_u64)? as usize;
    let end = v.get("end").and_then(Value::as_u64)? as usize;
    if start != range.start || end != range.end {
        return None;
    }
    let mut scenario_errors = Vec::new();
    for ev in v.get("errors").and_then(Value::as_seq)? {
        match ev.as_seq()? {
            [index, msg] => {
                scenario_errors.push((index.as_u64()? as usize, msg.as_str()?.to_owned()));
            }
            _ => return None,
        }
    }
    Some((
        shard,
        CompletedShard {
            daemon: v.get("daemon").and_then(Value::as_str)?.to_owned(),
            attempts: v.get("attempts").and_then(Value::as_u64)? as usize,
            output: JobOutput {
                rows: Vec::new(),
                scenario_errors,
                ok: v.get("ok").and_then(Value::as_u64)? as usize,
                failed: v.get("failed").and_then(Value::as_u64)? as usize,
                cancelled: false,
                deadline_exceeded: false,
            },
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use drcell_scenario::{registry, shard_ranges};

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("drcell-manifest-{tag}-{}", std::process::id()))
    }

    fn output(rows: Vec<String>, ok: usize) -> JobOutput {
        JobOutput {
            rows,
            scenario_errors: Vec::new(),
            ok,
            failed: 0,
            cancelled: false,
            deadline_exceeded: false,
        }
    }

    #[test]
    fn recorded_shards_resume_with_identical_rows_and_metadata() {
        let dir = temp_dir("roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let spec = registry::default_sweep();
        let ranges = shard_ranges(spec.matrix_len(), 3);
        let rows = vec!["{\"r\":0}".to_owned(), "{\"r\":1}".to_owned()];
        {
            let manifest = SweepManifest::create(&dir, &spec, &ranges).unwrap();
            manifest
                .record(
                    1,
                    "127.0.0.1:7000",
                    2,
                    &output(rows.clone(), ranges[1].len()),
                )
                .unwrap();
        }
        let manifest = SweepManifest::resume(&dir, &spec).unwrap();
        assert_eq!(manifest.ranges(), &ranges[..]);
        assert!(manifest.completed()[0].is_none());
        assert!(manifest.completed()[2].is_none());
        let done = manifest.completed()[1].as_ref().expect("shard 1 resumed");
        assert_eq!(done.output.rows, rows);
        assert_eq!(done.daemon, "127.0.0.1:7000");
        assert_eq!(done.attempts, 2);
        assert_eq!(done.output.ok, ranges[1].len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_torn_final_record_reruns_its_shard_instead_of_failing() {
        let dir = temp_dir("torn");
        let _ = std::fs::remove_dir_all(&dir);
        let spec = registry::default_sweep();
        let ranges = shard_ranges(spec.matrix_len(), 2);
        {
            let manifest = SweepManifest::create(&dir, &spec, &ranges).unwrap();
            manifest
                .record(
                    0,
                    "d0",
                    1,
                    &output(vec!["{\"r\":0}".to_owned()], ranges[0].len()),
                )
                .unwrap();
        }
        // Crash mid-append of shard 1's record.
        let log = dir.join("manifest.jsonl");
        let mut content = std::fs::read_to_string(&log).unwrap();
        content.push_str("{\"op\":\"shard\",\"index\":1,\"sta");
        std::fs::write(&log, &content).unwrap();
        let manifest = SweepManifest::resume(&dir, &spec).unwrap();
        assert!(manifest.completed()[0].is_some(), "committed shard kept");
        assert!(manifest.completed()[1].is_none(), "torn shard re-runs");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_manifest_from_a_different_sweep_is_rejected_loudly() {
        let dir = temp_dir("mismatch");
        let _ = std::fs::remove_dir_all(&dir);
        let spec = registry::default_sweep();
        let ranges = shard_ranges(spec.matrix_len(), 2);
        SweepManifest::create(&dir, &spec, &ranges).unwrap();
        let mut other = spec.clone();
        other.seeds.push(4242);
        let err = SweepManifest::resume(&dir, &other).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("different sweep"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resuming_without_a_manifest_is_not_found() {
        let dir = temp_dir("absent");
        let _ = std::fs::remove_dir_all(&dir);
        let err = SweepManifest::resume(&dir, &registry::default_sweep()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }

    #[test]
    fn shard_rows_missing_from_the_store_rerun_instead_of_resuming_empty() {
        let dir = temp_dir("norows");
        let _ = std::fs::remove_dir_all(&dir);
        let spec = registry::default_sweep();
        let ranges = shard_ranges(spec.matrix_len(), 2);
        {
            let manifest = SweepManifest::create(&dir, &spec, &ranges).unwrap();
            manifest
                .record(
                    0,
                    "d0",
                    1,
                    &output(vec!["{\"r\":0}".to_owned()], ranges[0].len()),
                )
                .unwrap();
        }
        // Simulate the rows never committing (crash between insert and
        // append cannot produce this — but an operator deleting rows/ can).
        let _ = std::fs::remove_dir_all(dir.join("rows"));
        let manifest = SweepManifest::resume(&dir, &spec).unwrap();
        assert!(
            manifest.completed()[0].is_none(),
            "a record without rows must re-run, not resume empty"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
