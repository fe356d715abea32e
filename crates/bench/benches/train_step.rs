//! Q-function training micro-benchmark and CI regression gate.
//!
//! Times one DQN training step (sample minibatch → TD targets → gradient
//! update) through the vectorised GEMM path (`DqnAgent::train_step`) and
//! the pinned pre-vectorisation scalar path
//! (`DqnAgent::train_step_reference`) on the paper-scale dense Q-network
//! (57 cells × 3-cycle history, 64×64 hidden layers) at batch sizes 32 and
//! 128, plus the 128×128 `matmul` kernel against the historical zero-skip
//! `i-k-j` loop. The DRQN step is timed as well (informational), at hidden
//! 48 and at hidden 16 (the width the end-to-end benchmark trains).
//!
//! The replay is laid out like a training run's: each sensing cycle picks
//! several cells one at a time, one transition per pick, and a state's
//! rows before the last are the earlier cycles' selections. Transitions of
//! one cycle thus share their past-cycle rows, so the DRQN forward shares
//! those prefixes as it does in training.
//!
//! The replay is a static 512 transitions and no step observes a new
//! one, so `train_step`'s per-slot bootstrap memo fills up within each
//! 100-step target-sync window: later steps in a window run the target
//! network over few or no next states, while the scalar reference path
//! still runs one forward per sampled transition. The batched median
//! therefore times mostly the online update, and reads lower than a
//! training loop that observes a transition per step would see.
//!
//! Each pair of paths is timed interleaved, one scalar and one batched
//! sample per iteration after one untimed warm-up call each, so a change
//! in host load moves both medians alike instead of only their ratio.
//!
//! Modes (same harness pattern as the gated `loo` bench):
//!
//! * `cargo bench -p drcell-bench --bench train_step` — print medians.
//! * `... --bench train_step -- --write BENCH_train.json` — record medians
//!   to a baseline file.
//! * `... --bench train_step -- --check BENCH_train.json` — fail (exit 1)
//!   when the batched-vs-scalar `train_step` speedup at batch 32 drops
//!   below 4× (the vectorisation contract), the GEMM `matmul` stops
//!   beating the naive loop, or the batched/scalar ratio regresses more
//!   than 15% against the committed baseline (override:
//!   `--max-regression 0.30`).
//!
//! Machine portability: the speedup gates and the scalar-normalised ratio
//! regression compare measurements from the *same* run, so they hold on
//! any hardware. Absolute-median comparisons apply only when the
//! baseline's scalar median shows a comparable runner class (0.7–1.4× of
//! this run's); otherwise they are skipped with a note.

use criterion::black_box;
use drcell_bench::{gate, median, median_us, time_us};
use drcell_linalg::Matrix;
use drcell_neural::Adam;
use drcell_rl::{DqnAgent, DqnConfig, DrqnQNetwork, MlpQNetwork, QNetwork, Transition};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const CELLS: usize = 57;
const HISTORY: usize = 3;

/// The `HISTORY × CELLS` state: the past cycles' selections, then the
/// current cycle's so far.
fn history(past: &[Vec<f64>], current: &[f64]) -> Matrix {
    let mut data = past.concat();
    data.extend_from_slice(current);
    Matrix::from_vec(HISTORY, CELLS, data).unwrap()
}

/// An agent whose replay holds 512 transitions of simulated training
/// cycles: each cycle senses 8–24 random cells, one transition per pick,
/// with a -1 reward per pick and the bonus on the cycle's last.
fn filled_agent<N: QNetwork>(net: N, batch_size: usize) -> DqnAgent<N> {
    let mut agent = DqnAgent::new(
        net,
        Box::new(Adam::new(1e-3)),
        DqnConfig {
            batch_size,
            learning_starts: batch_size,
            ..Default::default()
        },
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let mut past = vec![vec![0.0; CELLS]; HISTORY - 1];
    let mut stored = 0;
    while stored < 512 {
        let mut order: Vec<usize> = (0..CELLS).collect();
        order.shuffle(&mut rng);
        let picks = rng.gen_range(8..=24usize).min(512 - stored);
        let mut current = vec![0.0; CELLS];
        for (p, &cell) in order[..picks].iter().enumerate() {
            let state = history(&past, &current);
            current[cell] = 1.0;
            let mask = current.iter().map(|&v| v == 0.0).collect();
            let reward = if p + 1 == picks { 56.0 } else { -1.0 };
            let next = history(&past, &current);
            agent.observe(Transition::new(state, cell, reward, next, mask, false));
        }
        stored += picks;
        past.remove(0);
        past.push(current);
    }
    agent
}

/// Median microseconds of `train_step_reference` (scalar) and
/// `train_step` (batched) on two copies of one filled agent, interleaved.
fn measure_pair<N: QNetwork>(net: N, batch: usize, samples: usize) -> (f64, f64) {
    let mut scalar_agent = filled_agent(net.clone(), batch);
    let mut rng_s = StdRng::seed_from_u64(1);
    let mut scalar = || {
        black_box(scalar_agent.train_step_reference(&mut rng_s).unwrap());
    };
    let mut batched_agent = filled_agent(net, batch);
    let mut rng_b = StdRng::seed_from_u64(1);
    let mut batched = || {
        black_box(batched_agent.train_step(&mut rng_b).unwrap());
    };

    scalar();
    batched();
    let (scalar_times, batched_times): (Vec<f64>, Vec<f64>) = (0..samples)
        .map(|_| (time_us(&mut scalar), time_us(&mut batched)))
        .unzip();
    (median(scalar_times), median(batched_times))
}

/// The pre-PR `Matrix::matmul` inner loop (`i-k-j`, zero-skip), pinned
/// here as the baseline the blocked GEMM kernel is gated against.
fn matmul_ikj_naive(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k) = a.shape();
    let n = b.cols();
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for p in 0..k {
            let av = a[(i, p)];
            if av == 0.0 {
                continue;
            }
            let brow = &b.as_slice()[p * n..(p + 1) * n];
            let orow = &mut out.as_mut_slice()[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
    out
}

#[derive(Debug, Clone, Copy)]
struct Medians {
    scalar_us_b32: f64,
    batched_us_b32: f64,
    scalar_us_b128: f64,
    batched_us_b128: f64,
    matmul128_naive_us: f64,
    matmul128_gemm_us: f64,
}

impl Medians {
    fn speedup_b32(&self) -> f64 {
        self.scalar_us_b32 / self.batched_us_b32
    }
    fn speedup_b128(&self) -> f64 {
        self.scalar_us_b128 / self.batched_us_b128
    }
    fn matmul_speedup(&self) -> f64 {
        self.matmul128_naive_us / self.matmul128_gemm_us
    }
}

fn measure_train(batch: usize, samples: usize) -> (f64, f64) {
    let mut rng = StdRng::seed_from_u64(0);
    let net = MlpQNetwork::new(HISTORY, CELLS, &[64, 64], &mut rng).unwrap();
    measure_pair(net, batch, samples)
}

fn measure() -> Medians {
    let (scalar_us_b32, batched_us_b32) = measure_train(32, 30);
    let (scalar_us_b128, batched_us_b128) = measure_train(128, 15);

    let a = Matrix::from_fn(128, 128, |r, c| ((r * 7 + c * 3) % 11) as f64 / 11.0 - 0.5);
    let b = Matrix::from_fn(128, 128, |r, c| ((r * 5 + c * 13) % 17) as f64 / 17.0 - 0.5);
    let matmul128_naive_us = median_us(30, || {
        black_box(matmul_ikj_naive(&a, &b));
    });
    let matmul128_gemm_us = median_us(30, || {
        black_box(a.matmul(&b).unwrap());
    });

    Medians {
        scalar_us_b32,
        batched_us_b32,
        scalar_us_b128,
        batched_us_b128,
        matmul128_naive_us,
        matmul128_gemm_us,
    }
}

fn write_json(path: &str, m: &Medians) {
    let json = format!(
        "{{\n  \"bench\": \"train_step_mlp64x64_57cells_k3\",\n  \"scalar_us_b32\": {:.1},\n  \"batched_us_b32\": {:.1},\n  \"speedup_b32\": {:.2},\n  \"scalar_us_b128\": {:.1},\n  \"batched_us_b128\": {:.1},\n  \"speedup_b128\": {:.2},\n  \"matmul128_naive_us\": {:.1},\n  \"matmul128_gemm_us\": {:.1},\n  \"matmul128_speedup\": {:.2}\n}}\n",
        m.scalar_us_b32,
        m.batched_us_b32,
        m.speedup_b32(),
        m.scalar_us_b128,
        m.batched_us_b128,
        m.speedup_b128(),
        m.matmul128_naive_us,
        m.matmul128_gemm_us,
        m.matmul_speedup(),
    );
    gate::write_baseline(path, &json);
}

fn print_drqn_info(hidden: usize) {
    let mut rng = StdRng::seed_from_u64(0);
    let net = DrqnQNetwork::new(CELLS, hidden, &mut rng).unwrap();
    let (scalar, batched) = measure_pair(net, 32, 10);
    println!(
        "  drqn{hidden}/scalar     median {scalar:>10.1} µs   (informational)\n  drqn{hidden}/batched    median {batched:>10.1} µs   ({:.2}x)",
        scalar / batched
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // Ignore harness flags cargo bench passes through (e.g. --bench).

    let m = measure();
    println!("group: train_step (MLP 64x64, 57 cells, k = 3)");
    println!("  b32/scalar        median {:>10.1} µs", m.scalar_us_b32);
    println!("  b32/batched       median {:>10.1} µs", m.batched_us_b32);
    println!("  b32 speedup       {:>17.2}x", m.speedup_b32());
    println!("  b128/scalar       median {:>10.1} µs", m.scalar_us_b128);
    println!("  b128/batched      median {:>10.1} µs", m.batched_us_b128);
    println!("  b128 speedup      {:>17.2}x", m.speedup_b128());
    println!(
        "  matmul128 naive   median {:>10.1} µs",
        m.matmul128_naive_us
    );
    println!(
        "  matmul128 gemm    median {:>10.1} µs",
        m.matmul128_gemm_us
    );
    println!("  matmul128 speedup {:>17.2}x", m.matmul_speedup());
    print_drqn_info(48);
    print_drqn_info(16);

    if let Some(path) = gate::flag(&args, "--write") {
        write_json(&path, &m);
    }
    if let Some(path) = gate::flag(&args, "--check") {
        let max_regression: f64 = gate::flag(&args, "--max-regression")
            .and_then(|s| s.parse().ok())
            .unwrap_or(0.15);
        let body = gate::read_baseline(&path);
        let baseline_batched =
            gate::json_field(&body, "batched_us_b32").expect("baseline is missing batched_us_b32");
        let baseline_scalar =
            gate::json_field(&body, "scalar_us_b32").expect("baseline is missing scalar_us_b32");
        let mut failed = false;

        // Same-run speedup contracts (machine independent).
        if m.speedup_b32() < 4.0 {
            eprintln!(
                "REGRESSION: batched train_step speedup {:.2}x at batch 32 fell below the 4x contract",
                m.speedup_b32()
            );
            failed = true;
        }
        if m.matmul_speedup() < 1.0 {
            eprintln!(
                "REGRESSION: blocked GEMM ({:.1} µs) slower than the naive 128x128 matmul ({:.1} µs)",
                m.matmul128_gemm_us, m.matmul128_naive_us
            );
            failed = true;
        }

        // Machine-portable regression check: the batched median normalised
        // by the same-run scalar median must not regress more than the
        // allowed fraction against the baseline's normalised value.
        let ratio = m.batched_us_b32 / m.scalar_us_b32;
        let baseline_ratio = baseline_batched / baseline_scalar;
        if ratio > baseline_ratio * (1.0 + max_regression) {
            eprintln!(
                "REGRESSION: batched/scalar ratio {ratio:.4} exceeds baseline {baseline_ratio:.4} by more than {:.0}%",
                max_regression * 100.0
            );
            failed = true;
        }
        // Absolute-median comparison only on a comparable machine class,
        // judged by the scalar median (untouched by vectorisation work).
        let machine_factor = m.scalar_us_b32 / baseline_scalar;
        if (0.7..=1.4).contains(&machine_factor) {
            if m.batched_us_b32 > baseline_batched * (1.0 + max_regression) {
                eprintln!(
                    "REGRESSION: batched median {:.1} µs exceeds baseline {:.1} µs by more than {:.0}%",
                    m.batched_us_b32,
                    baseline_batched,
                    max_regression * 100.0
                );
                failed = true;
            }
        } else {
            println!(
                "note: baseline scalar median differs {machine_factor:.2}x from this machine — \
                 skipping the absolute-median comparison (re-record with --write on this runner class)"
            );
        }
        if failed {
            std::process::exit(1);
        }
        println!(
            "gate ok: batched {:.1} µs (baseline {:.1} µs), ratio {:.4} (baseline {:.4}, +{:.0}% allowed), speedup {:.2}x (>= 4x), matmul {:.2}x (>= 1x)",
            m.batched_us_b32,
            baseline_batched,
            ratio,
            baseline_ratio,
            max_regression * 100.0,
            m.speedup_b32(),
            m.matmul_speedup()
        );
    }
}
