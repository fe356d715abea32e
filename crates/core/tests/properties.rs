//! Property-based tests of the DR-Cell core invariants.

use drcell_core::report::AssessorCalibration;
use drcell_core::{selection_history, CycleRecord, RunReport};
use drcell_inference::ObservedMatrix;
use drcell_quality::QualityRequirement;
use proptest::prelude::*;

/// Strategy: a random observation mask over a `cells × cycles` matrix.
fn mask_case() -> impl Strategy<Value = (usize, usize, u64)> {
    (2usize..8, 1usize..10, any::<u64>())
}

fn build_obs(cells: usize, cycles: usize, seed: u64) -> ObservedMatrix {
    let mut obs = ObservedMatrix::new(cells, cycles);
    for i in 0..cells {
        for t in 0..cycles {
            if (i
                .wrapping_mul(2654435761)
                .wrapping_add(t.wrapping_mul(40503))
                .wrapping_add(seed as usize))
                % 3
                == 0
            {
                obs.observe(i, t, 1.0);
            }
        }
    }
    obs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(50))]

    #[test]
    fn selection_history_is_binary_and_consistent((cells, cycles, seed) in mask_case(), k in 1usize..6) {
        let obs = build_obs(cells, cycles, seed);
        let cycle = cycles - 1;
        let s = selection_history(&obs, cycle, k);
        prop_assert_eq!(s.shape(), (k, cells));
        for row in 0..k {
            let offset = (k - 1) - row;
            for cell in 0..cells {
                let v = s[(row, cell)];
                prop_assert!(v == 0.0 || v == 1.0);
                if offset <= cycle {
                    let expected = obs.is_observed(cell, cycle - offset);
                    prop_assert_eq!(v == 1.0, expected);
                } else {
                    prop_assert_eq!(v, 0.0);
                }
            }
        }
    }

    #[test]
    fn selection_history_last_row_is_current_cycle((cells, cycles, seed) in mask_case()) {
        let obs = build_obs(cells, cycles, seed);
        let cycle = cycles - 1;
        let s = selection_history(&obs, cycle, 3);
        for cell in 0..cells {
            prop_assert_eq!(s[(2, cell)] == 1.0, obs.is_observed(cell, cycle));
        }
    }

    #[test]
    fn report_invariants(
        cycle_lens in proptest::collection::vec(1usize..6, 1..20),
        seed in any::<u64>(),
    ) {
        let cells = 6;
        let cycles: Vec<CycleRecord> = cycle_lens.iter().enumerate().map(|(t, &len)| {
            let mut selected: Vec<usize> = (0..cells).collect();
            // Deterministic pseudo-shuffle.
            selected.rotate_left((seed as usize + t) % cells);
            selected.truncate(len.min(cells));
            let err = ((seed >> (t % 30)) & 0xff) as f64 / 255.0;
            CycleRecord {
                cycle: t,
                selected,
                true_error: err,
                estimated_probability: 0.9,
                within_epsilon: err <= 0.5,
            }
        }).collect();
        let report = RunReport {
            policy: "P".into(),
            task: "T".into(),
            requirement: QualityRequirement::new(0.5, 0.9).unwrap(),
            cycles,
        };

        // Aggregates agree with raw records.
        let total: usize = report.cycles.iter().map(|c| c.selected.len()).sum();
        prop_assert_eq!(report.total_selections(), total);
        let mean = report.mean_cells_per_cycle();
        prop_assert!((mean - total as f64 / report.cycles.len() as f64).abs() < 1e-12);
        prop_assert!((0.0..=1.0).contains(&report.fraction_within_epsilon()));

        // Calibration lives in [−1, 1].
        let cal = AssessorCalibration::from_report(&report).unwrap();
        prop_assert!(cal.conservatism().abs() <= 1.0 + 1e-12);
    }
}
