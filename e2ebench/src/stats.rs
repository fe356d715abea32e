//! Percentiles for timing samples.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples above it, so a tail figure is
//! never read off a handful of points. Every summary carries its sample
//! count.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Candidate tail levels, highest first.
const TAIL_LEVELS: [f64; 3] = [0.999, 0.99, 0.9];

/// Nearest-rank percentile `q ∈ (0, 1]` of ascending `sorted` samples.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank `q` percentile of `n` samples.
fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Median and supported tail of one timing distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// `(level, value)` of the highest tail percentile with at least
    /// [`MIN_BEYOND`] samples beyond it; `None` when even p90 lacks them.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarises `samples` (any order).
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail = TAIL_LEVELS
            .iter()
            .find(|&&q| beyond(n, q) >= MIN_BEYOND)
            .map(|&q| (q, percentile(&sorted, q)));
        Summary {
            n,
            p50: percentile(&sorted, 0.5),
            tail,
        }
    }

    /// One human-readable line: `n=… p50=… p90=…`.
    pub fn describe(&self) -> String {
        match self.tail {
            Some((q, v)) => format!(
                "n={} p50={:.4} p{}={:.4}",
                self.n,
                self.p50,
                (q * 1000.0).round() / 10.0,
                v
            ),
            None => format!(
                "n={} p50={:.4} (no tail: < {MIN_BEYOND} beyond p90)",
                self.n, self.p50
            ),
        }
    }
}

/// Median of `samples` (any order), or `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| Summary::of(samples).p50)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so `Summary::of` has to sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.5), 5.0);
        assert_eq!(percentile(&sorted, 0.9), 9.0);
        assert_eq!(percentile(&sorted, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
    }

    #[test]
    fn hundred_samples_support_p90_but_not_p99() {
        let s = Summary::of(&ramp(100));
        assert_eq!(s.n, 100);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.tail, Some((0.9, 90.0)));
    }

    #[test]
    fn ninety_nine_samples_have_no_p90() {
        let s = Summary::of(&ramp(99));
        assert_eq!(s.tail, None);
        assert_eq!(s.p50, 50.0);
    }

    #[test]
    fn thousand_samples_reach_p99() {
        let s = Summary::of(&ramp(1000));
        assert_eq!(s.tail, Some((0.99, 990.0)));
        let s = Summary::of(&ramp(10_000));
        assert_eq!(s.tail, Some((0.999, 9990.0)));
    }

    #[test]
    fn small_samples_keep_the_median() {
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.n, s.p50, s.tail), (3, 2.0, None));
        assert!(s.describe().contains("n=3"));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[4.0, 8.0]), Some(4.0));
    }
}
