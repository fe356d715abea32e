//! Leave-one-out assessment micro-benchmark and CI regression gate.
//!
//! Times one (ε, p)-quality assessment — the per-selection hot path of the
//! testing stage — through both [`AssessmentBackend`]s at the paper's
//! Figure-6 working set (57 cells × 24-cycle window), and reports medians.
//!
//! Modes (criterion-style harness with a gate bolted on):
//!
//! * `cargo bench -p drcell-bench --bench loo` — print medians.
//! * `... --bench loo -- --write BENCH_loo.json` — record medians to a
//!   baseline file.
//! * `... --bench loo -- --check BENCH_loo.json` — fail (exit 1) when the
//!   batched median regresses more than 15% against the committed baseline
//!   or the batched-vs-naive speedup drops below 10× (the workspace's
//!   performance contract; tolerance override: `--max-regression 0.30`).
//!
//! Machine portability: the speedup gate and the naive-normalised ratio
//! regression check compare measurements from the *same* run, so they hold
//! on any hardware. The absolute-median comparison is applied only when
//! the baseline's naive median shows it was recorded on a comparable
//! machine class (within 0.7–1.4× of this run's naive median); otherwise
//! it is skipped with a note asking for a re-recorded baseline.

use criterion::black_box;
use drcell_bench::{gate, loo_working_set, median, time_us};
use drcell_core::RunnerConfig;
use drcell_inference::{BatchedLooEngine, CompressiveSensing, NaiveLooSolver};
use drcell_quality::{ErrorMetric, QualityAssessor, QualityRequirement};

fn assessor() -> QualityAssessor {
    QualityAssessor::new(
        QualityRequirement::new(0.3, 0.9).unwrap(),
        ErrorMetric::MeanAbsolute,
    )
}

#[derive(Debug, Clone, Copy)]
struct Medians {
    naive_us: f64,
    batched_us: f64,
}

impl Medians {
    fn speedup(&self) -> f64 {
        self.naive_us / self.batched_us
    }
}

/// Timed samples per side.
const SAMPLES: usize = 15;

/// One assessment per sample at the runner's default assessment
/// tolerances, 16 sensed cells — the steady state of the selection loop
/// (the batched engine keeps its warm factors between assessments, exactly
/// as in the runner).
///
/// The two sides' samples are interleaved, one naive and one batched per
/// iteration after one untimed warm-up call each, so a change in host
/// load during the run moves both medians alike instead of only the
/// ratio.
fn measure() -> Medians {
    let cfg = RunnerConfig::default().assessment_inference;
    let obs = loo_working_set(16);
    let cycle = obs.cycles() - 1;
    let assessor = assessor();

    let cs = CompressiveSensing::new(cfg.clone()).unwrap();
    let mut naive = || {
        let mut solver = NaiveLooSolver::new(&cs);
        black_box(assessor.assess_with(&obs, cycle, &mut solver).unwrap());
    };
    let mut engine = BatchedLooEngine::new(cfg).unwrap();
    let mut batched = || {
        black_box(assessor.assess_with(&obs, cycle, &mut engine).unwrap());
    };

    naive();
    batched();
    let (naive_times, batched_times): (Vec<f64>, Vec<f64>) = (0..SAMPLES)
        .map(|_| (time_us(&mut naive), time_us(&mut batched)))
        .unzip();
    Medians {
        naive_us: median(naive_times),
        batched_us: median(batched_times),
    }
}

fn write_json(path: &str, m: &Medians) {
    let json = format!(
        "{{\n  \"bench\": \"loo_assess_57x24_sensed16\",\n  \"naive_us\": {:.1},\n  \"batched_us\": {:.1},\n  \"speedup\": {:.2}\n}}\n",
        m.naive_us,
        m.batched_us,
        m.speedup()
    );
    gate::write_baseline(path, &json);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();

    let m = measure();
    println!("group: loo (57 cells x 24 cycles, 16 sensed, default tolerances)");
    println!("  assess/naive      median {:>10.1} µs", m.naive_us);
    println!("  assess/batched    median {:>10.1} µs", m.batched_us);
    println!("  speedup           {:>17.2}x", m.speedup());

    if let Some(path) = gate::flag(&args, "--write") {
        write_json(&path, &m);
    }
    if let Some(path) = gate::flag(&args, "--check") {
        let max_regression: f64 = gate::flag(&args, "--max-regression")
            .and_then(|s| s.parse().ok())
            .unwrap_or(0.15);
        let body = gate::read_baseline(&path);
        let baseline_batched =
            gate::json_field(&body, "batched_us").expect("baseline is missing batched_us");
        let baseline_naive =
            gate::json_field(&body, "naive_us").expect("baseline is missing naive_us");
        let mut failed = false;

        // Machine-portable regression check: the batched median normalised
        // by the same-run naive median (the workload's own yardstick) must
        // not regress more than the allowed fraction against the
        // baseline's normalised value.
        let ratio = m.batched_us / m.naive_us;
        let baseline_ratio = baseline_batched / baseline_naive;
        if ratio > baseline_ratio * (1.0 + max_regression) {
            eprintln!(
                "REGRESSION: batched/naive ratio {ratio:.4} exceeds baseline {baseline_ratio:.4} by more than {:.0}%",
                max_regression * 100.0
            );
            failed = true;
        }
        if m.speedup() < 10.0 {
            eprintln!(
                "REGRESSION: batched speedup {:.2}x fell below the 10x contract",
                m.speedup()
            );
            failed = true;
        }
        // Absolute-median comparison only when the baseline was recorded on
        // a comparable machine class — judged by the naive median, which
        // the engine work never touches. A wildly different naive median
        // means different hardware, where absolute microseconds carry no
        // signal.
        let machine_factor = m.naive_us / baseline_naive;
        if (0.7..=1.4).contains(&machine_factor) {
            if m.batched_us > baseline_batched * (1.0 + max_regression) {
                eprintln!(
                    "REGRESSION: batched median {:.1} µs exceeds baseline {:.1} µs by more than {:.0}%",
                    m.batched_us,
                    baseline_batched,
                    max_regression * 100.0
                );
                failed = true;
            }
        } else {
            println!(
                "note: baseline naive median differs {machine_factor:.2}x from this machine — \
                 skipping the absolute-median comparison (re-record with --write on this runner class)"
            );
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "gate ok: batched {:.1} µs (baseline {:.1} µs), ratio {:.4} (baseline {:.4}, +{:.0}% allowed), speedup {:.2}x (>= 10x)",
            m.batched_us,
            baseline_batched,
            ratio,
            baseline_ratio,
            max_regression * 100.0,
            m.speedup()
        );
    }
}
