//! # drcell-pool — the machine's thread count
//!
//! A scenario runs single-threaded; the workspace runs in parallel only
//! across whole scenarios (the `drcell-scenario` `SweepEngine`) and across
//! jobs (the `drcell-serve` daemon's workers). Both size themselves, when
//! asked for `0` threads, from [`hardware_threads`] — the single answer to
//! "how many threads does this machine have".
//!
//! ```
//! let threads = drcell_pool::hardware_threads();
//! assert!(threads >= 1);
//! ```

#![deny(missing_docs)]

pub mod budget;

pub use budget::hardware_threads;
