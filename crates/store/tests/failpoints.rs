//! Store-layer fault injection: every persistence seam must surface an
//! injected fault as a typed error or graceful degradation — never as a
//! corrupt or half-written artefact. Compiled only with
//! `--features failpoints`.

#![cfg(feature = "failpoints")]

use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use drcell_store::{Journal, ResultCache};

/// The failpoint registry is process-global; serialise these tests.
fn lock() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|p| p.into_inner())
}

/// The log's lines, read back through the journal's own replay.
fn lines(path: &Path) -> Vec<String> {
    Journal::replay(path, |line| Some(line.to_owned())).unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("drcell-store-fp-{tag}-{}", std::process::id()))
}

#[test]
fn journal_append_fault_is_a_typed_error_and_the_journal_recovers() {
    let _g = lock();
    drcell_faults::clear();
    let dir = temp_dir("append");
    let _ = std::fs::remove_dir_all(&dir);
    let journal = Journal::open(&dir.join("log.jsonl")).unwrap();
    drcell_faults::configure("store.journal.append", "1*error(disk full)").unwrap();
    let err = journal.append("{\"op\":\"a\"}").unwrap_err();
    assert!(err.to_string().contains("disk full"), "{err}");
    // The schedule is exhausted; the journal object stays usable and the
    // failed record never half-landed in the file.
    journal.append("{\"op\":\"b\"}").unwrap();
    assert_eq!(lines(journal.path()), vec!["{\"op\":\"b\"}".to_owned()]);
    drcell_faults::clear();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_compact_fault_leaves_the_original_log_intact() {
    let _g = lock();
    drcell_faults::clear();
    let dir = temp_dir("compact");
    let _ = std::fs::remove_dir_all(&dir);
    let journal = Journal::open(&dir.join("log.jsonl")).unwrap();
    journal.append("{\"op\":\"a\"}").unwrap();
    journal.append("{\"op\":\"b\"}").unwrap();
    drcell_faults::configure("store.journal.compact", "1*error(rename refused)").unwrap();
    let err = journal
        .compact(&["{\"op\":\"snap\"}".to_owned()])
        .unwrap_err();
    assert!(err.to_string().contains("rename refused"), "{err}");
    // The rename is the commit point: a failed compaction must not have
    // touched the live file.
    assert_eq!(lines(journal.path()).len(), 2);
    // And the next compaction goes through.
    journal.compact(&["{\"op\":\"snap\"}".to_owned()]).unwrap();
    assert_eq!(lines(journal.path()), vec!["{\"op\":\"snap\"}".to_owned()]);
    drcell_faults::clear();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn spill_fault_degrades_to_a_miss_without_temp_litter() {
    let _g = lock();
    drcell_faults::clear();
    let dir = temp_dir("spill");
    let _ = std::fs::remove_dir_all(&dir);
    let rows = vec!["{\"r\":1}".to_owned(), "{\"r\":2}".to_owned()];
    {
        let cache = ResultCache::new(0, Some(dir.clone())).unwrap();
        drcell_faults::configure("store.cache.spill", "error(no space)").unwrap();
        cache.insert("k", rows.clone());
    }
    drcell_faults::clear();
    // The failed spill committed nothing — no file, no temp litter — so a
    // fresh cache over the directory misses and the caller recomputes.
    let entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .collect();
    assert!(entries.is_empty(), "spill fault left litter: {entries:?}");
    let cache = ResultCache::new(0, Some(dir.clone())).unwrap();
    assert!(cache.lookup("k").is_none());
    // With the fault gone, the same insert commits durably.
    cache.insert("k", rows.clone());
    assert_eq!(*cache.lookup("k").expect("disk hit"), rows);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn load_fault_is_a_miss_never_an_error() {
    let _g = lock();
    drcell_faults::clear();
    let dir = temp_dir("load");
    let _ = std::fs::remove_dir_all(&dir);
    let rows = vec!["{\"r\":1}".to_owned()];
    let cache = ResultCache::new(0, Some(dir.clone())).unwrap();
    cache.insert("k", rows.clone());
    drcell_faults::configure("store.cache.load", "1*error(bad sector)").unwrap();
    assert!(cache.lookup("k").is_none(), "faulted load must miss");
    // Next read is clean: the committed file was never the problem.
    assert_eq!(*cache.lookup("k").expect("disk hit"), rows);
    drcell_faults::clear();
    let _ = std::fs::remove_dir_all(&dir);
}
