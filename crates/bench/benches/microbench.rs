//! Microbenchmarks of the linear-algebra substrate: the Cholesky solve of
//! the ALS normal equations and the GEMM under the neural layers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use drcell_linalg::decomp::Cholesky;
use drcell_linalg::gemm::{gemm_reference, Trans};
use drcell_linalg::Matrix;

fn spd(n: usize) -> Matrix {
    let a = Matrix::from_fn(n, n, |r, c| ((r * 31 + c * 17) % 13) as f64 / 13.0 - 0.5);
    let mut g = a.transpose().matmul(&a).expect("square");
    for i in 0..n {
        g[(i, i)] += n as f64;
    }
    g
}

fn rect(m: usize, n: usize) -> Matrix {
    Matrix::from_fn(m, n, |r, c| ((r * 7 + c * 3) % 11) as f64 / 11.0 - 0.5)
}

fn bench_decompositions(c: &mut Criterion) {
    let mut group = c.benchmark_group("decomp");
    for &n in &[8usize, 32, 64] {
        let a = spd(n);
        let b = vec![1.0; n];
        group.bench_with_input(BenchmarkId::new("cholesky_solve", n), &n, |bch, _| {
            bch.iter(|| Cholesky::new(&a).unwrap().solve(&b).unwrap())
        });
    }
    group.finish();
}

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    for &n in &[16usize, 57, 128] {
        let a = rect(n, n);
        let b = rect(n, n);
        group.bench_with_input(BenchmarkId::new("gemm", n), &n, |bch, _| {
            bch.iter(|| a.matmul(&b).unwrap())
        });
        // The naive triple loop the blocked kernel replaced, kept for
        // side-by-side medians (the gated comparison lives in the
        // `train_step` bench via BENCH_train.json).
        group.bench_with_input(BenchmarkId::new("reference", n), &n, |bch, _| {
            let mut out = Matrix::zeros(n, n);
            bch.iter(|| {
                gemm_reference(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut out).unwrap();
            })
        });
    }
    for &(m, k) in &[(57usize, 24usize), (128, 64)] {
        let a = rect(m, k);
        group.bench_with_input(
            BenchmarkId::new("gram", format!("{m}x{k}")),
            &m,
            |bch, _| bch.iter(|| a.gram()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_decompositions, bench_matmul);
criterion_main!(benches);
