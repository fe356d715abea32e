//! Thread-count helpers at their historical path.

/// Hardware parallelism (at least 1) — the single source of truth for "how
/// many threads does this machine have" across the workspace (engines must
/// not carry their own `available_parallelism` fallback logic).
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The guard [`reserve_outer`] returns; it holds nothing.
#[derive(Debug)]
pub struct OuterReservation;

/// Does nothing and returns an inert guard (kept for `e2ebench/`).
pub fn reserve_outer(_workers: usize) -> OuterReservation {
    OuterReservation
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hardware_is_at_least_one() {
        assert!(hardware_threads() >= 1);
    }
}
