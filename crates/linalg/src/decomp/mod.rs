//! Matrix decompositions: Cholesky.
//!
//! [`Cholesky`] is the allocating reference factorisation that the
//! in-place ALS solver [`crate::solve::solve_spd_in_place`] is pinned
//! against bit for bit.

mod cholesky;

pub use cholesky::Cholesky;
