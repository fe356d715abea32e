//! Post-run analytics over [`crate::RunReport`]s: how the assessor's
//! estimated stop-probability compares with the realised within-ε rate.

use crate::RunReport;

/// Calibration of the quality assessor over a run: how the *estimated*
/// stop-probability relates to the *realised* within-ε outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct AssessorCalibration {
    /// Mean estimated probability at stop time.
    pub mean_estimated: f64,
    /// Fraction of cycles that actually came in within ε.
    pub realised: f64,
}

impl AssessorCalibration {
    /// Computes calibration from a run; `None` for an empty run.
    pub fn from_report(report: &RunReport) -> Option<Self> {
        if report.cycles.is_empty() {
            return None;
        }
        let n = report.cycles.len() as f64;
        Some(AssessorCalibration {
            mean_estimated: report
                .cycles
                .iter()
                .map(|c| c.estimated_probability)
                .sum::<f64>()
                / n,
            realised: report.fraction_within_epsilon(),
        })
    }

    /// Signed gap `realised − mean_estimated`; positive means the assessor
    /// was conservative (under-promised, over-delivered).
    pub fn conservatism(&self) -> f64 {
        self.realised - self.mean_estimated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CycleRecord;
    use drcell_quality::QualityRequirement;

    fn report(selections: Vec<Vec<usize>>, within: Vec<bool>, probs: Vec<f64>) -> RunReport {
        RunReport {
            policy: "TEST".into(),
            task: "t".into(),
            requirement: QualityRequirement::new(0.3, 0.9).unwrap(),
            cycles: selections
                .into_iter()
                .zip(within)
                .zip(probs)
                .enumerate()
                .map(|(i, ((selected, w), p))| CycleRecord {
                    cycle: i,
                    selected,
                    true_error: if w { 0.1 } else { 0.9 },
                    estimated_probability: p,
                    within_epsilon: w,
                })
                .collect(),
        }
    }

    #[test]
    fn calibration_gap() {
        let r = report(vec![vec![0], vec![1]], vec![true, true], vec![0.9, 0.9]);
        let c = AssessorCalibration::from_report(&r).unwrap();
        assert!((c.mean_estimated - 0.9).abs() < 1e-12);
        assert_eq!(c.realised, 1.0);
        assert!((c.conservatism() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn calibration_empty_is_none() {
        let r = report(vec![], vec![], vec![]);
        assert!(AssessorCalibration::from_report(&r).is_none());
    }
}
