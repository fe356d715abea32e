//! Pins a trained DR-Cell policy's row stream to literals: the registry's
//! `synthetic-smooth` scenario trains a DRQN, runs the testing stage and
//! must emit exactly the JSONL rows (by SHA-256) and the cache key that
//! the reproduction has always produced for it.
//!
//! The CI test matrix runs this under both compute backends (detected and
//! `DRCELL_BACKEND=scalar`), so the same literals also pin invariant 8 on
//! the learner path: training, greedy selection, the LOO assessment and
//! the ALS completion.

use drcell::scenario::{registry, sink, SweepEngine};
use drcell::store::{scenario_key, sha256::Sha256};

/// SHA-256 of `drcell-scenario run --name synthetic-smooth --jsonl`.
const ROWS_SHA256: &str = "f3c9949f8d7eb81db337bfccd2fa5e801dbc252d8441a49984bb3af1e43c141c";

/// `scenario_key(synthetic-smooth, 0)`: the result-cache key a daemon
/// files these rows under.
const CACHE_KEY: &str = "7b3b2b1dfd416c4165928b78fec467ddd488da67299b587a4c8d7bc4b353c56d";

#[test]
fn synthetic_smooth_drcell_rows_and_cache_key_are_pinned() {
    let spec = registry::find("synthetic-smooth").expect("registry scenario");
    assert_eq!(scenario_key(&spec, 0), CACHE_KEY, "cache key moved");

    let results = SweepEngine::new(1).run(std::slice::from_ref(&spec));
    let result = results[0].as_ref().expect("scenario runs");
    let mut rows = Vec::new();
    sink::write_jsonl(&mut rows, &[result]).expect("in-memory write cannot fail");
    assert_eq!(
        rows.iter().filter(|&&b| b == b'\n').count(),
        result.report.cycles.len(),
        "one row per test cycle"
    );
    assert_eq!(Sha256::hex_digest(&rows), ROWS_SHA256, "DR-Cell rows moved");
}
