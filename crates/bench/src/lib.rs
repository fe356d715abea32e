//! # drcell-bench — experiment harness shared code
//!
//! The binaries in `src/bin/` regenerate the paper's tables and figures;
//! this library holds the shared task builders and the scale switch so the
//! same code paths serve both the full paper-scale runs and quick
//! smoke-test runs. The `benches/` directory additionally hosts the CI
//! regression gates (`loo`, `train_step`, `par`, `serve`, `load`, `simd`),
//! all built on the [`gate`] module and the committed `BENCH_*.json`
//! baselines at the repository root.
//!
//! ## Baselines: recording and re-recording
//!
//! Every gated bench runs in three modes:
//!
//! ```text
//! cargo bench -p drcell-bench --bench <name>                    # print medians
//! cargo bench -p drcell-bench --bench <name> -- --write BENCH_<name>.json
//! cargo bench -p drcell-bench --bench <name> -- --check BENCH_<name>.json
//! ```
//!
//! `--write` records a baseline (commit the JSON); `--check` is what CI
//! runs. Checks come in two classes:
//!
//! * **machine-independent** — bit-identity, same-run speedup ratios
//!   (batched vs naive, pooled vs serial), and regressions of
//!   *normalised* medians (each timing divided by a same-run yardstick,
//!   e.g. the naive median). These are armed on every runner, against any
//!   baseline.
//! * **hardware-dependent** — absolute medians (armed only when the
//!   baseline's yardstick shows a comparable machine, within 0.7–1.4×)
//!   and the pooled-speedup contracts of the `par` bench (armed only when
//!   **both** this machine and the recording machine report ≥ 4 hardware
//!   threads; a contract never measured on a runner class must not
//!   hard-fail its first run there).
//!
//! **The committed `BENCH_par.json` was recorded on a 2-thread machine**,
//! so the ≥ 2×-pooled-at-4-threads gate and the pooled-ratio regressions
//! currently print-and-skip. To arm them, re-record on any ≥ 4-thread
//! machine (a standard 4-vCPU CI runner qualifies — check `nproc`):
//!
//! ```text
//! cargo bench -p drcell-bench --bench par -- --write BENCH_par.json
//! ```
//!
//! and commit the result. The baseline embeds the recording machine's
//! `drcell_pool::hardware_threads()`, which is how `--check` decides what
//! to arm; nothing else needs changing. The same procedure refreshes the
//! other baselines when the CI runner class changes (a >15% *normalised*
//! drift on an unchanged workload is a real regression, not runner noise
//! — investigate before re-recording over it).

#![deny(missing_docs)]

use drcell_core::{CoreError, SensingTask};
use drcell_datasets::{SensorScopeConfig, SensorScopeDataset, UAirConfig, UAirDataset};
use drcell_quality::{ErrorMetric, QualityRequirement};

/// How big to run an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Full paper scale: 57-cell Sensor-Scope, 36-cell U-Air, 7/11 days.
    Paper,
    /// Scaled down for smoke tests (~16 cells, 3 days).
    Quick,
}

impl Scale {
    /// Parses `--quick` from the command line; anything else is `Paper`.
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Paper
        }
    }
}

/// The default seed used across experiment binaries, so every table in
/// EXPERIMENTS.md regenerates identically.
pub const EXPERIMENT_SEED: u64 = 20180507; // the paper's arXiv v2 date

/// Builds the Sensor-Scope-like dataset at the requested scale.
pub fn sensorscope(scale: Scale) -> (SensorScopeConfig, SensorScopeDataset) {
    let config = match scale {
        Scale::Paper => SensorScopeConfig::default(),
        Scale::Quick => SensorScopeConfig {
            cells: 16,
            grid_rows: 4,
            grid_cols: 4,
            cycles: 3 * 48,
            ..SensorScopeConfig::default()
        },
    };
    let ds = SensorScopeDataset::generate(&config, EXPERIMENT_SEED);
    (config, ds)
}

/// Builds the U-Air-like dataset at the requested scale.
pub fn uair(scale: Scale) -> (UAirConfig, UAirDataset) {
    let config = match scale {
        Scale::Paper => UAirConfig::default(),
        Scale::Quick => UAirConfig {
            grid_rows: 4,
            grid_cols: 4,
            cycles: 5 * 24,
            ..UAirConfig::default()
        },
    };
    let ds = UAirDataset::generate(&config, EXPERIMENT_SEED);
    (config, ds)
}

/// The temperature task: (0.3 °C, p)-quality, 2-day training stage
/// (paper §5.3/§5.4).
///
/// # Errors
///
/// Propagates task-construction failures.
pub fn temperature_task(scale: Scale) -> Result<SensingTask, CoreError> {
    let (config, ds) = sensorscope(scale);
    let train = 2 * config.cycles_per_day;
    SensingTask::new(
        "temperature",
        ds.temperature,
        ds.grid,
        ErrorMetric::MeanAbsolute,
        QualityRequirement::new(0.3, 0.9).map_err(drcell_core::CoreError::Quality)?,
        train,
    )
}

/// The humidity task: (1.5 %, 0.9)-quality (paper §5.4).
///
/// # Errors
///
/// Propagates task-construction failures.
pub fn humidity_task(scale: Scale) -> Result<SensingTask, CoreError> {
    let (config, ds) = sensorscope(scale);
    let train = 2 * config.cycles_per_day;
    SensingTask::new(
        "humidity",
        ds.humidity,
        ds.grid,
        ErrorMetric::MeanAbsolute,
        QualityRequirement::new(1.5, 0.9).map_err(drcell_core::CoreError::Quality)?,
        train,
    )
}

/// The PM2.5 task: (9/36, p)-classification-quality, 2-day training stage
/// (paper §5.1/§5.4).
///
/// # Errors
///
/// Propagates task-construction failures.
pub fn pm25_task(scale: Scale) -> Result<SensingTask, CoreError> {
    let (config, ds) = uair(scale);
    let train = 2 * config.cycles_per_day;
    SensingTask::new(
        "PM2.5",
        ds.pm25,
        ds.grid,
        ErrorMetric::AqiClassification,
        QualityRequirement::new(0.25, 0.9).map_err(drcell_core::CoreError::Quality)?,
        train,
    )
}

/// The leave-one-out assessment working set shared by the `loo` regression
/// bench and the `tune_loo` exploration binary (one definition so the gated
/// benchmark and the tuning data can never drift apart): the paper's
/// Figure-6 geometry — 57 cells, a 24-cycle window fully observed except
/// the current (last) cycle, where exactly `sensed` evenly spread cells are
/// observed.
pub fn loo_working_set(sensed: usize) -> drcell_inference::ObservedMatrix {
    let cells = 57;
    let cycles = 24;
    let truth = drcell_datasets::DataMatrix::from_fn(cells, cycles, |i, t| {
        5.0 + (i as f64 * 0.4).sin() * (t as f64 * 0.3).cos() + 0.3 * (i as f64 * 0.9).cos()
    });
    let obs = drcell_inference::ObservedMatrix::from_selection(&truth, |i, t| {
        // `i` is selected iff the [i·s/n, (i+1)·s/n) bucket boundary moves:
        // exactly `sensed` cells, evenly spread over the row range.
        t + 1 < cycles || i * sensed / cells != (i + 1) * sensed / cells
    });
    debug_assert_eq!(obs.observed_cells_at(cycles - 1).len(), sensed);
    obs
}

/// Median wall-clock microseconds of `samples` runs of `f` (one untimed
/// warm-up call first). Shared by the gated `loo` bench and `tune_loo` so
/// their medians stay directly comparable.
pub fn median_us<F: FnMut()>(samples: usize, mut f: F) -> f64 {
    f();
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = std::time::Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(|a, b| a.total_cmp(b));
    times[times.len() / 2]
}

/// Shared plumbing of the gated regression benches (`loo`, `train_step`,
/// `par`, `serve`, `load`, `simd`): workspace-root path resolution, the flat-JSON baseline
/// format, and `--flag value` argument parsing. One definition so every
/// gate reads and writes baselines the same way.
pub mod gate {
    use std::path::{Path, PathBuf};

    /// Resolves a path against the workspace root (cargo runs benches from
    /// the package directory), so `--check BENCH_x.json` targets the
    /// committed top-level baseline regardless of invocation directory.
    pub fn resolve(path: &str) -> PathBuf {
        let p = Path::new(path);
        if p.is_absolute() {
            p.to_path_buf()
        } else {
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(p)
        }
    }

    /// Pulls a numeric field out of a flat, known-schema baseline JSON.
    pub fn json_field(body: &str, key: &str) -> Option<f64> {
        let tag = format!("\"{key}\":");
        let rest = &body[body.find(&tag)? + tag.len()..];
        let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
        rest[..end].trim().parse().ok()
    }

    /// The value following `--name` in `args`, if present.
    pub fn flag(args: &[String], name: &str) -> Option<String> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1).cloned())
    }

    /// Reads a baseline file resolved via [`resolve`], panicking with a
    /// helpful message when missing.
    pub fn read_baseline(path: &str) -> String {
        let target = resolve(path);
        std::fs::read_to_string(&target)
            .unwrap_or_else(|e| panic!("cannot read baseline {}: {e}", target.display()))
    }

    /// Writes `json` to the baseline file resolved via [`resolve`].
    pub fn write_baseline(path: &str, json: &str) {
        let target = resolve(path);
        std::fs::write(&target, json)
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", target.display()));
        println!("wrote {}", target.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_json_field_parses_flat_schemas() {
        let body = "{\n  \"a_us\": 12.5,\n  \"speedup\": 3.10\n}\n";
        assert_eq!(gate::json_field(body, "a_us"), Some(12.5));
        assert_eq!(gate::json_field(body, "speedup"), Some(3.10));
        assert_eq!(gate::json_field(body, "missing"), None);
    }

    #[test]
    fn quick_tasks_build() {
        let t = temperature_task(Scale::Quick).unwrap();
        assert_eq!(t.cells(), 16);
        assert_eq!(t.train_cycles(), 96);
        let h = humidity_task(Scale::Quick).unwrap();
        assert_eq!(h.cells(), 16);
        let p = pm25_task(Scale::Quick).unwrap();
        assert_eq!(p.cells(), 16);
        assert_eq!(p.train_cycles(), 48);
    }

    #[test]
    fn loo_working_set_senses_exactly_the_requested_cells() {
        for sensed in [4usize, 8, 16, 19] {
            let obs = loo_working_set(sensed);
            assert_eq!(obs.observed_cells_at(obs.cycles() - 1).len(), sensed);
            // Every earlier cycle is fully observed.
            for t in 0..obs.cycles() - 1 {
                assert_eq!(obs.observed_cells_at(t).len(), obs.cells());
            }
        }
    }

    #[test]
    fn paper_tasks_match_table1() {
        let t = temperature_task(Scale::Paper).unwrap();
        assert_eq!(t.cells(), 57);
        assert_eq!(t.cycles(), 336);
        assert_eq!(t.train_cycles(), 96);
        let p = pm25_task(Scale::Paper).unwrap();
        assert_eq!(p.cells(), 36);
        assert_eq!(p.cycles(), 264);
        assert_eq!(p.train_cycles(), 48);
    }
}
