//! Property-based tests of the dataset substrate.

use drcell_datasets::{
    AqiCategory, CellGrid, DataMatrix, FieldConfig, FieldGenerator, SensorScopeConfig,
    SensorScopeDataset, UAirConfig, UAirDataset,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    #[test]
    fn calibrate_hits_any_target(
        target_mean in -50.0f64..50.0,
        target_std in 0.1f64..100.0,
        seed in any::<u64>(),
    ) {
        let g = FieldGenerator::new(
            CellGrid::full_grid(3, 3, 10.0, 10.0),
            FieldConfig::default(),
        );
        let mut d = g.generate(30, &mut StdRng::seed_from_u64(seed));
        d.calibrate(target_mean, target_std);
        prop_assert!((d.mean().unwrap() - target_mean).abs() < 1e-6);
        prop_assert!((d.std_dev().unwrap() - target_std).abs() < 1e-6);
    }

    #[test]
    fn aqi_category_monotone(pm_a in 0.0f64..500.0, pm_b in 0.0f64..500.0) {
        let (lo, hi) = if pm_a <= pm_b { (pm_a, pm_b) } else { (pm_b, pm_a) };
        prop_assert!(AqiCategory::from_pm25(lo) <= AqiCategory::from_pm25(hi));
    }

    #[test]
    fn cycle_window_roundtrips(
        cells in 1usize..6,
        cycles in 2usize..12,
        cut in 1usize..11,
        seed in any::<u64>(),
    ) {
        let cut = cut.min(cycles - 1);
        let d = DataMatrix::from_fn(cells, cycles, |i, t| {
            (i * 1000 + t) as f64 + (seed % 97) as f64
        });
        let head = d.cycle_window(0, cut);
        let tail = d.cycle_window(cut, cycles);
        for i in 0..cells {
            for t in 0..cut {
                prop_assert_eq!(head.value(i, t), d.value(i, t));
            }
            for t in cut..cycles {
                prop_assert_eq!(tail.value(i, t - cut), d.value(i, t));
            }
        }
    }

    #[test]
    fn grid_distances_nonnegative_symmetric(
        rows in 1usize..5,
        cols in 1usize..5,
        w in 1.0f64..100.0,
        h in 1.0f64..100.0,
    ) {
        let g = CellGrid::full_grid(rows, cols, w, h);
        for a in 0..g.cells() {
            for b in 0..g.cells() {
                let d = g.distance(a, b);
                prop_assert!(d >= 0.0);
                prop_assert!((d - g.distance(b, a)).abs() < 1e-12);
                if a == b {
                    prop_assert_eq!(d, 0.0);
                }
            }
        }
    }
}

#[test]
fn sensorscope_generation_is_seed_deterministic_for_many_seeds() {
    let cfg = SensorScopeConfig {
        cells: 9,
        grid_rows: 3,
        grid_cols: 3,
        cycles: 24,
        ..SensorScopeConfig::default()
    };
    for seed in [0u64, 1, 99, 12345] {
        let a = SensorScopeDataset::generate(&cfg, seed);
        let b = SensorScopeDataset::generate(&cfg, seed);
        assert_eq!(a, b, "seed {seed} not deterministic");
    }
}

#[test]
fn uair_matrix_rank_is_effectively_low() {
    // The generated field must be approximately low-rank — the property
    // compressive sensing needs. Check that the top 8 singular values carry
    // at least 80% of the energy of the log field.
    use drcell_linalg::{vector, Matrix};
    let ds = UAirDataset::generate(
        &UAirConfig {
            cycles: 96,
            ..UAirConfig::default()
        },
        5,
    );
    let mut log = Matrix::zeros(36, 96);
    for i in 0..36 {
        for t in 0..96 {
            log[(i, t)] = ds.pm25.value(i, t).ln();
        }
    }
    // Centre the matrix.
    let mean = log.mean().unwrap();
    let centred = log.map(|v| v - mean);
    // The squared singular values are the eigenvalues of the 36×36 Gram
    // matrix C·Cᵀ, and its trace is the total energy. Power iteration with
    // deflation (each iterate orthogonalised against the eigenvectors
    // already found) estimates the top 8; the sum of Rayleigh quotients of
    // orthonormal vectors never exceeds the true top-8 sum, so an
    // unconverged estimate can only make the check stricter.
    let gram = centred.outer_gram();
    let total = gram.trace();
    let mut found: Vec<Vec<f64>> = Vec::new();
    let mut top8 = 0.0;
    for j in 0..8 {
        let mut v: Vec<f64> = (0..36)
            .map(|i| 1.0 + ((i * 7 + j * 3) % 11) as f64)
            .collect();
        for _ in 0..500 {
            v = gram.matvec(&v);
            for u in &found {
                let d = vector::dot(u, &v);
                vector::axpy(-d, u, &mut v);
            }
            let n = vector::norm2(&v);
            vector::scale(1.0 / n, &mut v);
        }
        top8 += vector::dot(&v, &gram.matvec(&v));
        found.push(v);
    }
    assert!(
        top8 / total > 0.8,
        "top-8 energy fraction only {:.3}",
        top8 / total
    );
}
