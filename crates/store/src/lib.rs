//! `drcell-store`: the serving daemon's persistence and admission layer —
//! a deterministic result cache, a durable job journal, and admission
//! control.
//!
//! Everything in this crate leans on one property of the rest of the
//! workspace: a scenario's result stream is a *pure function* of its
//! canonical spec and matrix index. The engine is bit-deterministic (CI
//! pins golden traces), so rows computed once can be replayed as the
//! result of any later identical request. That turns three hard problems
//! into bookkeeping:
//!
//! - [`key::scenario_key`] hashes the canonical spec form (defaults
//!   materialised, maps sorted, execution-sizing knobs erased — see
//!   [`drcell_scenario::canon`]) with [`sha256`], so TOML and JSON specs,
//!   reordered fields, and defaulted-vs-explicit fields all converge on
//!   one key.
//! - [`cache::ResultCache`] is a bounded in-memory LRU over finished row
//!   streams with optional content-addressed disk spill (atomic rename);
//!   a warm hit replays the exact bytes a recompute would stream.
//! - [`journal::Journal`] is the one durable log: newline-framed appends
//!   flushed per line, torn-tail repair on open, atomic compaction, and a
//!   replay that skips a torn final line but fails on mid-file
//!   corruption. Its owners bring their own line codec: the daemon's job
//!   table journals [`journal::Record`]s (replaying them after a restart
//!   reconstructs the table, so `jobs` and `cancel` semantics survive the
//!   process), and `drcell-serve`'s sweep manifest journals shard
//!   checkpoints.
//! - [`admission::Admission`] bounds queue depth and per-client in-flight
//!   jobs, turning overload into a structured `busy` refusal instead of
//!   unbounded queue growth.
//!
//! The crate is deliberately serve-agnostic: job states travel as strings
//! and clients as opaque ids, so the daemon owns its own vocabulary and
//! this layer stays reusable (and testable) without a socket in sight.
//!
//! With the `failpoints` feature the persistence seams — journal append
//! and compact, cache spill write and load — evaluate named
//! `drcell-faults` failpoints (`store.journal.append`,
//! `store.journal.compact`, `store.cache.spill`, `store.cache.load`), so
//! chaos tests can fail exactly one disk operation and assert the typed
//! error or graceful degradation. A default build compiles none of this.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod cache;
pub mod journal;
pub mod key;
pub mod sha256;

pub use admission::{Admission, AdmissionSnapshot, Busy, BusyReason, Slot};
pub use cache::{CacheStats, ResultCache};
pub use journal::{now_ms, Journal, Record};
pub use key::scenario_key;

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
