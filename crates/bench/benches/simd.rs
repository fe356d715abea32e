//! Scalar-vs-SIMD compute-backend micro-benchmark and CI regression gate.
//!
//! Times the three kernel layers the SIMD backend accelerates, once under
//! each [`BackendKind`]:
//!
//! * **GEMM 128³** — the packed micro-kernel, driven directly through
//!   [`gemm_slice_with_kind`] (plus GEMM 320³, informational).
//! * **ALS assessment** — one batched leave-one-out (ε, p)-assessment at
//!   the paper's Figure-6 working set (57 cells × 24-cycle window,
//!   16 sensed). The *gated* entry runs at rank 8 — one full AVX-512
//!   lane / two AVX2 lanes, the shape that isolates the gram/downdate
//!   kernels from the scalar rank-r Cholesky solves. The production
//!   default (rank 4, a single AVX2 lane, where scalar solve work
//!   dilutes the win to ~1.2–1.3×) is reported informationally.
//! * **DQN train step** — one batch-32 training step of the paper-scale
//!   Q-network, the dense-layer ReLU/TD-fusion path.
//!
//! Modes (same harness pattern as the gated `loo`/`par` benches):
//!
//! * `cargo bench -p drcell-bench --bench simd` — print medians.
//! * `... --bench simd -- --write BENCH_simd.json` — record a baseline.
//! * `... --bench simd -- --check BENCH_simd.json` — fail (exit 1) when,
//!   on an AVX2 host, the SIMD-over-scalar speedup drops below 1.5× for
//!   GEMM 128 or the rank-8 ALS assessment (the vectorisation contract),
//!   or any simd/scalar ratio regresses more than 15% against the
//!   committed baseline (override: `--max-regression 0.30`). Without
//!   AVX2 every SIMD gate auto-skips with a loud message — the scalar
//!   medians are still printed, but there is nothing to compare.
//!
//! Noise handling: the GEMM arms are timed *interleaved* (scalar call,
//! SIMD call, repeat), and the contract is judged on the median of the
//! per-pair ratios — adjacent calls share whatever load the host is
//! under, so ambient drift cancels instead of landing on one arm. A
//! contract miss is re-measured up to twice before it fails the gate
//! (the contract claims a capability, not a worst-case quantile).
//!
//! Machine portability: all gates are same-run ratios (simd/scalar on the
//! same machine in the same process), so they hold on any AVX2 hardware;
//! baseline-ratio comparisons additionally require the baseline itself to
//! have been recorded with SIMD available (`simd_available: 1`).
//!
//! Bit-identity is asserted before timing anything: the SIMD assessment
//! and GEMM outputs must equal their scalar counterparts exactly (the
//! backend contract the `backend_oracle` suite pins element-wise).

use criterion::black_box;
use drcell_bench::{gate, loo_working_set, median_us};
use drcell_core::RunnerConfig;
use drcell_inference::BatchedLooEngine;
use drcell_linalg::backend::{self, BackendChoice};
use drcell_linalg::gemm::{gemm_slice_with_kind, Trans};
use drcell_linalg::{BackendKind, Matrix};
use drcell_neural::Adam;
use drcell_quality::{ErrorMetric, QualityAssessor, QualityRequirement};
use drcell_rl::{DqnAgent, DqnConfig, MlpQNetwork, Transition};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const GEMM_GATED: usize = 128;
const GEMM_INFO: usize = 320;
const GEMM_PAIRS: usize = 25;
const ALS_GATED_RANK: usize = 8;
const CELLS: usize = 57;
const HISTORY: usize = 3;
const TRAIN_BATCH: usize = 32;
const CONTRACT: f64 = 1.5;

fn assessor() -> QualityAssessor {
    QualityAssessor::new(
        QualityRequirement::new(0.3, 0.9).unwrap(),
        ErrorMetric::MeanAbsolute,
    )
}

fn dense(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed;
    Matrix::from_fn(rows, cols, |_, _| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    })
}

fn filled_agent(batch_size: usize) -> DqnAgent<MlpQNetwork> {
    let mut rng = StdRng::seed_from_u64(0);
    let net = MlpQNetwork::new(HISTORY, CELLS, &[64, 64], &mut rng).unwrap();
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
    for i in 0..512 {
        let mut s = Matrix::zeros(HISTORY, CELLS);
        s[(HISTORY - 1, i % CELLS)] = 1.0;
        let mut s2 = s.clone();
        s2[(HISTORY - 1, (i + 1) % CELLS)] = 1.0;
        agent.observe(Transition::new(
            s,
            (i + 1) % CELLS,
            if i % 7 == 0 { 56.0 } else { -1.0 },
            s2,
            vec![true; CELLS],
            false,
        ));
    }
    agent
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

/// `(scalar_us, simd_us, pair_ratio)` medians for an `n³` GEMM, timed
/// interleaved. Without AVX2 both arms run the scalar kernel.
fn gemm_interleaved(n: usize, simd_available: bool) -> (f64, f64, f64) {
    let a = dense(n, n, 7);
    let b = dense(n, n, 11);
    let mut c = vec![0.0; n * n];
    let simd_kind = if simd_available {
        BackendKind::Simd
    } else {
        BackendKind::Scalar
    };
    let mut time_one = |kind: BackendKind| -> f64 {
        let t0 = Instant::now();
        gemm_slice_with_kind(
            kind,
            1.0,
            a.as_slice(),
            n,
            n,
            Trans::No,
            b.as_slice(),
            n,
            n,
            Trans::No,
            0.0,
            &mut c,
        )
        .unwrap();
        black_box(&c);
        t0.elapsed().as_secs_f64() * 1e6
    };
    let mut scalar = Vec::with_capacity(GEMM_PAIRS);
    let mut simd = Vec::with_capacity(GEMM_PAIRS);
    for _ in 0..GEMM_PAIRS {
        scalar.push(time_one(BackendKind::Scalar));
        simd.push(time_one(simd_kind));
    }
    let ratios = scalar.iter().zip(&simd).map(|(s, v)| s / v).collect();
    (median(scalar), median(simd), median(ratios))
}

/// One warm batched assessment per iteration under the *process-wide*
/// backend (the engine resolves [`backend::active_kind`] per call, so
/// selecting before timing is exactly what production entry points do).
fn als_median(choice: BackendChoice, rank: usize) -> f64 {
    backend::select(choice);
    let mut cfg = RunnerConfig::default().assessment_inference;
    cfg.rank = rank;
    let obs = loo_working_set(16);
    let cycle = obs.cycles() - 1;
    let assessor = assessor();
    let mut engine = BatchedLooEngine::new(cfg).unwrap();
    median_us(15, || {
        black_box(assessor.assess_with(&obs, cycle, &mut engine).unwrap());
    })
}

/// `(scalar_us, simd_us)` for one rank of the ALS assessment.
fn als_pair(rank: usize, simd_available: bool) -> (f64, f64) {
    let scalar = als_median(BackendChoice::Scalar, rank);
    let simd = als_median(
        if simd_available {
            BackendChoice::Simd
        } else {
            BackendChoice::Scalar
        },
        rank,
    );
    (scalar, simd)
}

/// One batch-32 train step per iteration under the process-wide backend.
fn train_median(choice: BackendChoice) -> f64 {
    backend::select(choice);
    let mut agent = filled_agent(TRAIN_BATCH);
    let mut rng = StdRng::seed_from_u64(1);
    median_us(15, || {
        black_box(agent.train_step(&mut rng).unwrap());
    })
}

#[derive(Debug, Clone)]
struct Medians {
    simd_available: bool,
    gemm: Vec<(usize, f64, f64, f64)>, // (n, scalar_us, simd_us, pair_ratio)
    als8_scalar_us: f64,
    als8_simd_us: f64,
    als4_scalar_us: f64,
    als4_simd_us: f64,
    train_scalar_us: f64,
    train_simd_us: f64,
}

impl Medians {
    fn gemm_pair_ratio(&self, n: usize) -> f64 {
        self.gemm.iter().find(|g| g.0 == n).unwrap().3
    }
    fn als8_speedup(&self) -> f64 {
        self.als8_scalar_us / self.als8_simd_us
    }
    fn als4_speedup(&self) -> f64 {
        self.als4_scalar_us / self.als4_simd_us
    }
    fn train_speedup(&self) -> f64 {
        self.train_scalar_us / self.train_simd_us
    }
}

/// Asserts the backend contract end-to-end before timing: identical
/// assessment outputs and bitwise-identical GEMM results, scalar vs SIMD.
fn assert_bit_identity() {
    let cfg = RunnerConfig::default().assessment_inference;
    let obs = loo_working_set(16);
    let cycle = obs.cycles() - 1;
    let assessor = assessor();

    backend::select(BackendChoice::Scalar);
    let mut engine = BatchedLooEngine::new(cfg.clone()).unwrap();
    let scalar = assessor.assess_with(&obs, cycle, &mut engine).unwrap();
    backend::select(BackendChoice::Simd);
    let mut engine = BatchedLooEngine::new(cfg).unwrap();
    let simd = assessor.assess_with(&obs, cycle, &mut engine).unwrap();
    assert_eq!(
        scalar.probability, simd.probability,
        "SIMD assessment diverged from scalar"
    );
    assert_eq!(scalar.loo_errors, simd.loo_errors, "LOO errors diverged");

    let n = GEMM_GATED;
    let a = dense(n, n, 7);
    let b = dense(n, n, 11);
    let mut c_scalar = vec![0.0; n * n];
    let mut c_simd = vec![0.0; n * n];
    for (kind, c) in [
        (BackendKind::Scalar, &mut c_scalar),
        (BackendKind::Simd, &mut c_simd),
    ] {
        gemm_slice_with_kind(
            kind,
            1.0,
            a.as_slice(),
            n,
            n,
            Trans::No,
            b.as_slice(),
            n,
            n,
            Trans::No,
            0.0,
            c,
        )
        .unwrap();
    }
    assert!(
        c_scalar
            .iter()
            .zip(&c_simd)
            .all(|(s, v)| s.to_bits() == v.to_bits()),
        "SIMD GEMM diverged bitwise from scalar at n = {n}"
    );
}

fn measure() -> Medians {
    let simd_available = backend::simd_available();
    if simd_available {
        assert_bit_identity();
    }

    let mut gemm = Vec::new();
    for &n in &[GEMM_GATED, GEMM_INFO] {
        let (scalar_us, simd_us, pair_ratio) = gemm_interleaved(n, simd_available);
        gemm.push((n, scalar_us, simd_us, pair_ratio));
    }

    let (als8_scalar_us, als8_simd_us) = als_pair(ALS_GATED_RANK, simd_available);
    let (als4_scalar_us, als4_simd_us) = als_pair(
        RunnerConfig::default().assessment_inference.rank,
        simd_available,
    );

    let train_scalar_us = train_median(BackendChoice::Scalar);
    let train_simd_us = train_median(if simd_available {
        BackendChoice::Simd
    } else {
        BackendChoice::Scalar
    });

    // Leave the process on the detected backend, like every entry point.
    backend::select(BackendChoice::Auto);

    Medians {
        simd_available,
        gemm,
        als8_scalar_us,
        als8_simd_us,
        als4_scalar_us,
        als4_simd_us,
        train_scalar_us,
        train_simd_us,
    }
}

fn to_json(m: &Medians) -> String {
    let mut s = String::from("{\n  \"bench\": \"simd_backend_gemm_als57x24_train32\",\n");
    s.push_str(&format!(
        "  \"simd_available\": {},\n",
        i32::from(m.simd_available)
    ));
    for &(n, scalar, simd, _) in &m.gemm {
        s.push_str(&format!("  \"gemm{n}_scalar_us\": {scalar:.1},\n"));
        s.push_str(&format!("  \"gemm{n}_simd_us\": {simd:.1},\n"));
    }
    s.push_str(&format!("  \"als8_scalar_us\": {:.1},\n", m.als8_scalar_us));
    s.push_str(&format!("  \"als8_simd_us\": {:.1},\n", m.als8_simd_us));
    s.push_str(&format!("  \"als4_scalar_us\": {:.1},\n", m.als4_scalar_us));
    s.push_str(&format!("  \"als4_simd_us\": {:.1},\n", m.als4_simd_us));
    s.push_str(&format!(
        "  \"train_scalar_us\": {:.1},\n",
        m.train_scalar_us
    ));
    s.push_str(&format!("  \"train_simd_us\": {:.1}\n", m.train_simd_us));
    s.push_str("}\n");
    s
}

/// The ≥ [`CONTRACT`]× check with bounded re-measurement: a miss gets
/// two fresh measurements before it counts as a regression (the
/// contract claims a capability, not a worst-case quantile; ambient
/// load on a shared runner can sink any single round).
fn contract_holds(what: &str, initial: f64, remeasure: impl Fn() -> f64) -> bool {
    let mut best = initial;
    for attempt in 0..2 {
        if best >= CONTRACT {
            break;
        }
        println!(
            "note: {what} speedup {best:.2}x below {CONTRACT}x on attempt {attempt} — \
             re-measuring"
        );
        best = best.max(remeasure());
    }
    if best < CONTRACT {
        eprintln!(
            "REGRESSION: {what} SIMD speedup {best:.2}x fell below the {CONTRACT}x \
             vectorisation contract (3 attempts)"
        );
        return false;
    }
    true
}

fn print_medians(m: &Medians) {
    for &(n, scalar, simd, pair_ratio) in &m.gemm {
        println!(
            "  gemm{n:<4}      scalar {scalar:>10.1} µs | simd {simd:>10.1} µs | {pair_ratio:>5.2}x"
        );
    }
    println!(
        "  assess(r=8)   scalar {:>10.1} µs | simd {:>10.1} µs | {:>5.2}x",
        m.als8_scalar_us,
        m.als8_simd_us,
        m.als8_speedup()
    );
    println!(
        "  assess(r=4)   scalar {:>10.1} µs | simd {:>10.1} µs | {:>5.2}x",
        m.als4_scalar_us,
        m.als4_simd_us,
        m.als4_speedup()
    );
    println!(
        "  train         scalar {:>10.1} µs | simd {:>10.1} µs | {:>5.2}x",
        m.train_scalar_us,
        m.train_simd_us,
        m.train_speedup()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();

    let m = measure();
    println!(
        "group: simd backend ({}; assessment 57x24 sensed 16; train batch {TRAIN_BATCH})",
        backend::simd_tier().map_or_else(
            || "no AVX2 — SIMD legs re-time scalar".to_owned(),
            |t| format!("SIMD tier {t}")
        )
    );
    print_medians(&m);

    if let Some(path) = gate::flag(&args, "--write") {
        gate::write_baseline(&path, &to_json(&m));
        if !m.simd_available {
            eprintln!(
                "WARNING: baseline recorded without AVX2 — every SIMD gate is DORMANT until \
                 BENCH_simd.json is re-recorded with --write on an AVX2 host"
            );
        }
    }
    if let Some(path) = gate::flag(&args, "--check") {
        let max_regression: f64 = gate::flag(&args, "--max-regression")
            .and_then(|s| s.parse().ok())
            .unwrap_or(0.15);
        let body = gate::read_baseline(&path);
        let field = |key: &str| -> f64 {
            gate::json_field(&body, key)
                .unwrap_or_else(|| panic!("baseline is missing the `{key}` field"))
        };
        let base_simd_available = field("simd_available") != 0.0;
        let mut failed = false;

        if !m.simd_available {
            println!(
                "note: AVX2 absent on this host — skipping every SIMD speedup and ratio gate \
                 (nothing to compare; the SIMD backend is unselectable here)"
            );
        } else {
            // Gate 1 — the vectorisation contract, same-run and therefore
            // machine-independent on any AVX2 host: >= 1.5x on the gated
            // GEMM size and on the rank-8 ALS assessment. A miss is
            // re-measured (fresh interleaved round / fresh engines) up to
            // twice before it counts as a regression.
            if !contract_holds("gemm128", m.gemm_pair_ratio(GEMM_GATED), || {
                gemm_interleaved(GEMM_GATED, true).2
            }) {
                failed = true;
            }
            if !contract_holds("ALS assessment (rank 8)", m.als8_speedup(), || {
                let (s, v) = als_pair(ALS_GATED_RANK, true);
                s / v
            }) {
                failed = true;
            }

            // Gate 2 — simd/scalar ratio regressions against the committed
            // baseline, armed only when the baseline itself measured SIMD.
            if base_simd_available {
                let pairs = [
                    (
                        "gemm128",
                        m.gemm.iter().find(|g| g.0 == GEMM_GATED).unwrap().2
                            / m.gemm.iter().find(|g| g.0 == GEMM_GATED).unwrap().1,
                        field(&format!("gemm{GEMM_GATED}_simd_us"))
                            / field(&format!("gemm{GEMM_GATED}_scalar_us")),
                    ),
                    (
                        "assess(r=8)",
                        m.als8_simd_us / m.als8_scalar_us,
                        field("als8_simd_us") / field("als8_scalar_us"),
                    ),
                    (
                        "train",
                        m.train_simd_us / m.train_scalar_us,
                        field("train_simd_us") / field("train_scalar_us"),
                    ),
                ];
                for (what, ratio, base_ratio) in pairs {
                    if ratio > base_ratio * (1.0 + max_regression) {
                        eprintln!(
                            "REGRESSION: {what} simd/scalar ratio {ratio:.4} exceeds baseline \
                             {base_ratio:.4} by more than {:.0}%",
                            max_regression * 100.0
                        );
                        failed = true;
                    }
                }
            } else {
                println!(
                    "note: baseline was recorded without AVX2 — ratio-regression gates are \
                     DORMANT (re-record with --write on an AVX2 host); the same-run \
                     {CONTRACT}x contract above still applies"
                );
            }
        }

        if failed {
            std::process::exit(1);
        }
        println!(
            "gate ok: gemm{GEMM_GATED} {:.2}x, assess(r=8) {:.2}x, train {:.2}x{}",
            m.gemm_pair_ratio(GEMM_GATED),
            m.als8_speedup(),
            m.train_speedup(),
            if m.simd_available {
                ""
            } else {
                " [all SIMD gates skipped — no AVX2]"
            }
        );
    }
}
