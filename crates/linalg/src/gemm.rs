//! Cache-blocked general matrix multiply (GEMM) — the dense kernel layer
//! under every hot path of the workspace: neural-network training, the
//! compressive-sensing normal equations, and `Matrix::matmul`.
//!
//! The core operation is the BLAS-3 update
//!
//! ```text
//! C ← α · op(A) · op(B) + β · C        op(X) ∈ {X, Xᵀ}
//! ```
//!
//! implemented with the classic three-level cache blocking (Goto-style):
//! panels of `A` and `B` are packed into contiguous buffers sized for the
//! L1/L2 caches, and an `MR × NR` register-tiled micro-kernel runs a
//! branch-free fused inner loop over the packed panels. The packing
//! buffers live in a per-thread workspace that grows to its high-water
//! mark and is then reused, so steady-state callers perform **zero
//! allocations** per multiply.
//!
//! # Numerical contract
//!
//! * Every product term participates — there is no zero-skip branch — so
//!   non-finite values propagate exactly as IEEE-754 prescribes
//!   (`0.0 × NaN = NaN`, `0.0 × ∞ = NaN`).
//! * Per output element, products are accumulated in ascending `k` order
//!   starting from `β·C` (or `0` when `β = 0`, ignoring the previous
//!   contents of `C` per BLAS convention). With `α = β = 1` this makes the
//!   blocked kernel **bit-identical** to the textbook
//!   `c[i][j] = init + Σₖ a[i][k]·b[k][j]` loop, which is what lets the
//!   vectorised neural-network layers reproduce the scalar reference
//!   training traces exactly.
//! * `α` is folded into the packed copy of `A` (`α·a` then multiplied by
//!   `b`), keeping the single-rounding-per-term accumulation order.
//! * The micro-kernel is chosen per call from the active
//!   [`crate::backend`]: the scalar 8×8 tile (the oracle) or an explicit
//!   SIMD tile (AVX-512 8×16 / AVX2 8×8). Every tile preserves the same
//!   per-element multiply/add sequence — no FMA contraction — so the
//!   backends are bitwise interchangeable (finite values exactly; NaN
//!   payload bits excepted, as everywhere in IEEE-754).
//!
//! ```
//! use drcell_linalg::gemm::{gemm, Trans};
//! use drcell_linalg::Matrix;
//!
//! # fn main() -> Result<(), drcell_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
//! let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]])?;
//! let c = gemm(1.0, &a, Trans::No, &b, Trans::No)?;
//! assert_eq!(c[(0, 0)], 19.0);
//! // Aᵀ·B without materialising the transpose:
//! let atb = gemm(1.0, &a, Trans::Yes, &b, Trans::No)?;
//! assert_eq!(atb[(0, 0)], 1.0 * 5.0 + 3.0 * 7.0);
//! # Ok(())
//! # }
//! ```

use std::cell::RefCell;

use crate::backend::{self, BackendKind};
use crate::{LinalgError, Matrix};

/// Whether an operand enters the product as itself or transposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trans {
    /// `op(X) = X`.
    No,
    /// `op(X) = Xᵀ`.
    Yes,
}

/// Micro-kernel register tile height (rows of `C` per inner call).
const MR: usize = 8;
/// Micro-kernel register tile width (columns of `C` per inner call).
const NR: usize = 8;

/// A micro-kernel: `(pack_a, pack_b, kc, c, n, row0, col0, mr, nr, beta)`
/// where `mr`/`nr` are the *valid* lane counts of this edge tile (the
/// packed panels are always padded to the backend's full tile). The
/// scalar kernel and the SIMD kernels in [`crate::simd`] all share this
/// shape, so the blocked driver dispatches through one function pointer
/// chosen per call from the active backend.
pub(crate) type MicroFn =
    fn(&[f64], &[f64], usize, &mut [f64], usize, usize, usize, usize, usize, f64);

/// The register tile of `kind`: `(tile rows, tile cols, micro kernel)`.
/// Packing layout is internal to the call, and per output element every
/// tile accumulates the same ascending-`k` multiply/add sequence, so the
/// tile shape never changes results — only throughput.
fn tile_for(kind: BackendKind) -> (usize, usize, MicroFn) {
    match kind {
        BackendKind::Scalar => (MR, NR, micro_kernel),
        #[cfg(target_arch = "x86_64")]
        BackendKind::Simd => crate::simd::gemm_tile(),
        // The Simd backend is never selectable off x86-64; keep the
        // scalar tile as the defensive fallback.
        #[cfg(not(target_arch = "x86_64"))]
        BackendKind::Simd => (MR, NR, micro_kernel),
    }
}
/// `k`-dimension cache block (packed panels span at most `KC` products).
const KC: usize = 256;
/// Row cache block: `MC × KC` of packed `A` targets the L2 cache.
const MC: usize = 128;
/// Column cache block: `KC × NC` of packed `B` targets the L3 cache.
const NC: usize = 1024;

/// Packing buffers. They grow to the high-water mark of the block sizes
/// used and are then reused, so repeated multiplies are allocation-free.
#[derive(Default)]
struct GemmWorkspace {
    pack_a: Vec<f64>,
    pack_b: Vec<f64>,
}

thread_local! {
    /// The packing workspace of every multiply on this thread; per-thread
    /// so the scenario engine's parallel sweeps never contend.
    static THREAD_WS: RefCell<GemmWorkspace> = RefCell::new(GemmWorkspace::default());
}

/// Dimensions of `op(X)` for a stored `rows × cols` operand.
#[inline]
fn op_shape(rows: usize, cols: usize, t: Trans) -> (usize, usize) {
    match t {
        Trans::No => (rows, cols),
        Trans::Yes => (cols, rows),
    }
}

/// Element `op(X)[r][c]` of a row-major stored operand.
#[inline(always)]
fn op_at(x: &[f64], cols: usize, t: Trans, r: usize, c: usize) -> f64 {
    match t {
        Trans::No => x[r * cols + c],
        Trans::Yes => x[c * cols + r],
    }
}

/// `C ← α·op(A)·op(B) + β·C` over raw row-major slices, on the active
/// compute backend.
///
/// `a` is a stored `a_rows × a_cols` matrix (and likewise `b`); the
/// transpose flags select how each enters the product. `c` must hold the
/// full `m × n` result where `(m, k) = op(A)` and `(k, n) = op(B)`.
/// When `beta == 0.0` the previous contents of `c` are ignored (BLAS
/// convention), so `c` may be uninitialised garbage.
///
/// This is the layer the neural-network crate drives directly: weights and
/// gradients live in flat parameter vectors, and the slice API multiplies
/// into them without intermediate `Matrix` values.
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] when the inner dimensions of
/// `op(A)` and `op(B)` differ or a slice length does not match its claimed
/// shape.
#[allow(clippy::too_many_arguments)]
pub fn gemm_slice(
    alpha: f64,
    a: &[f64],
    a_rows: usize,
    a_cols: usize,
    ta: Trans,
    b: &[f64],
    b_rows: usize,
    b_cols: usize,
    tb: Trans,
    beta: f64,
    c: &mut [f64],
) -> Result<(), LinalgError> {
    gemm_slice_with_kind(
        backend::active_kind(),
        alpha,
        a,
        a_rows,
        a_cols,
        ta,
        b,
        b_rows,
        b_cols,
        tb,
        beta,
        c,
    )
}

/// [`gemm_slice`] with an explicit backend kind — the layer the
/// differential oracle tests and the SIMD bench drive to compare backends
/// in one process.
///
/// # Errors
///
/// See [`gemm_slice`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_slice_with_kind(
    kind: BackendKind,
    alpha: f64,
    a: &[f64],
    a_rows: usize,
    a_cols: usize,
    ta: Trans,
    b: &[f64],
    b_rows: usize,
    b_cols: usize,
    tb: Trans,
    beta: f64,
    c: &mut [f64],
) -> Result<(), LinalgError> {
    THREAD_WS.with(|ws| {
        gemm_blocked(
            kind,
            alpha,
            a,
            a_rows,
            a_cols,
            ta,
            b,
            b_rows,
            b_cols,
            tb,
            beta,
            c,
            &mut ws.borrow_mut(),
        )
    })
}

/// The blocked driver behind [`gemm_slice_with_kind`], packing into `ws`.
#[allow(clippy::too_many_arguments)]
fn gemm_blocked(
    kind: BackendKind,
    alpha: f64,
    a: &[f64],
    a_rows: usize,
    a_cols: usize,
    ta: Trans,
    b: &[f64],
    b_rows: usize,
    b_cols: usize,
    tb: Trans,
    beta: f64,
    c: &mut [f64],
    ws: &mut GemmWorkspace,
) -> Result<(), LinalgError> {
    let (m, ka) = op_shape(a_rows, a_cols, ta);
    let (kb, n) = op_shape(b_rows, b_cols, tb);
    if ka != kb || a.len() != a_rows * a_cols || b.len() != b_rows * b_cols || c.len() != m * n {
        return Err(LinalgError::ShapeMismatch {
            op: "gemm",
            lhs: (m, ka),
            rhs: (kb, n),
        });
    }
    let k = ka;
    if m == 0 || n == 0 {
        return Ok(());
    }
    if k == 0 {
        scale_c(c, beta);
        return Ok(());
    }

    let (mr, nr, micro) = tile_for(kind);
    // Grow the packing buffers to this problem's block sizes once.
    let kc_max = k.min(KC);
    ws.pack_a.resize(MC.min(m).div_ceil(mr) * mr * kc_max, 0.0);
    ws.pack_b.resize(NC.min(n).div_ceil(nr) * nr * kc_max, 0.0);

    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            // β applies once, on the first k block; later blocks continue
            // accumulating onto the partial sums already in C.
            let beta_eff = if pc == 0 { beta } else { 1.0 };
            pack_b_panel(&mut ws.pack_b, b, b_cols, tb, pc, kc, jc, nc, nr);
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                pack_a_panel(&mut ws.pack_a, a, a_cols, ta, alpha, ic, mc, pc, kc, mr);
                macro_kernel(
                    &ws.pack_a, &ws.pack_b, c, n, ic, mc, jc, nc, kc, beta_eff, mr, nr, micro,
                );
            }
        }
    }
    Ok(())
}

/// `c ← β·c` respecting the BLAS `β = 0` overwrite convention.
fn scale_c(c: &mut [f64], beta: f64) {
    if beta == 0.0 {
        c.fill(0.0);
    } else if beta != 1.0 {
        for v in c {
            *v *= beta;
        }
    }
}

/// Packs `α·op(A)[ic..ic+mc][pc..pc+kc]` into `tile_mr`-row micro-panels
/// laid out `k`-major (`panel[(ip·kc + p)·tile_mr + i]`), zero-padding the
/// last partial panel so the micro-kernel never branches on row bounds.
#[allow(clippy::too_many_arguments)]
fn pack_a_panel(
    pack: &mut [f64],
    a: &[f64],
    a_cols: usize,
    ta: Trans,
    alpha: f64,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    tile_mr: usize,
) {
    for ip in 0..mc.div_ceil(tile_mr) {
        let rows = tile_mr.min(mc - ip * tile_mr);
        let base = ip * kc * tile_mr;
        for p in 0..kc {
            let dst = &mut pack[base + p * tile_mr..base + (p + 1) * tile_mr];
            for (i, d) in dst.iter_mut().enumerate() {
                *d = if i < rows {
                    alpha * op_at(a, a_cols, ta, ic + ip * tile_mr + i, pc + p)
                } else {
                    0.0
                };
            }
        }
    }
}

/// Packs `op(B)[pc..pc+kc][jc..jc+nc]` into `tile_nr`-column micro-panels
/// laid out `k`-major (`panel[(jp·kc + p)·tile_nr + j]`), zero-padded like
/// [`pack_a_panel`].
#[allow(clippy::too_many_arguments)]
fn pack_b_panel(
    pack: &mut [f64],
    b: &[f64],
    b_cols: usize,
    tb: Trans,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    tile_nr: usize,
) {
    for jp in 0..nc.div_ceil(tile_nr) {
        let cols = tile_nr.min(nc - jp * tile_nr);
        let base = jp * kc * tile_nr;
        match tb {
            // op(B) row-major: each packed p-row is a contiguous copy.
            Trans::No => {
                for p in 0..kc {
                    let src = (pc + p) * b_cols + jc + jp * tile_nr;
                    let dst = &mut pack[base + p * tile_nr..base + (p + 1) * tile_nr];
                    dst[..cols].copy_from_slice(&b[src..src + cols]);
                    dst[cols..].fill(0.0);
                }
            }
            Trans::Yes => {
                for p in 0..kc {
                    let dst = &mut pack[base + p * tile_nr..base + (p + 1) * tile_nr];
                    for (j, d) in dst.iter_mut().enumerate() {
                        *d = if j < cols {
                            b[(jc + jp * tile_nr + j) * b_cols + pc + p]
                        } else {
                            0.0
                        };
                    }
                }
            }
        }
    }
}

/// Runs the register-tiled micro-kernel over one packed `mc × kc` panel of
/// `A` and `kc × nc` panel of `B`, updating `C[ic.., jc..]` (full row-major
/// width `n`).
#[allow(clippy::too_many_arguments)]
fn macro_kernel(
    pack_a: &[f64],
    pack_b: &[f64],
    c: &mut [f64],
    n: usize,
    ic: usize,
    mc: usize,
    jc: usize,
    nc: usize,
    kc: usize,
    beta: f64,
    tile_mr: usize,
    tile_nr: usize,
    micro: MicroFn,
) {
    for jp in 0..nc.div_ceil(tile_nr) {
        let nr = tile_nr.min(nc - jp * tile_nr);
        let pb = &pack_b[jp * kc * tile_nr..(jp + 1) * kc * tile_nr];
        for ip in 0..mc.div_ceil(tile_mr) {
            let mr = tile_mr.min(mc - ip * tile_mr);
            let pa = &pack_a[ip * kc * tile_mr..(ip + 1) * kc * tile_mr];
            micro(
                pa,
                pb,
                kc,
                c,
                n,
                ic + ip * tile_mr,
                jc + jp * tile_nr,
                mr,
                nr,
                beta,
            );
        }
    }
}

/// The `MR × NR` register tile: accumulators start from `β·C` (valid lanes)
/// and take every `α·a · b` product in ascending `k` order — branch-free in
/// the hot loop, bit-compatible with the sequential reference sum.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn micro_kernel(
    pa: &[f64],
    pb: &[f64],
    kc: usize,
    c: &mut [f64],
    n: usize,
    row0: usize,
    col0: usize,
    mr: usize,
    nr: usize,
    beta: f64,
) {
    let mut acc = [[0.0f64; NR]; MR];
    // Seed valid lanes with β·C so the k loop continues the running sum
    // (β = 0 ignores C entirely — it may hold garbage or NaN).
    if beta != 0.0 {
        for i in 0..mr {
            let crow = &c[(row0 + i) * n + col0..(row0 + i) * n + col0 + nr];
            for (j, &cv) in crow.iter().enumerate() {
                acc[i][j] = if beta == 1.0 { cv } else { beta * cv };
            }
        }
    }
    // Hot loop: full MR × NR every iteration; padded lanes multiply the
    // packing zeros and are discarded on store. `chunks_exact` plus the
    // fixed-size array views eliminate bounds checks, so the compiler
    // keeps the whole accumulator tile in SIMD registers.
    for (pa_c, pb_c) in pa
        .chunks_exact(MR)
        .take(kc)
        .zip(pb.chunks_exact(NR).take(kc))
    {
        let av: &[f64; MR] = pa_c.try_into().expect("exact chunk");
        let bv: &[f64; NR] = pb_c.try_into().expect("exact chunk");
        for i in 0..MR {
            let ai = av[i];
            for j in 0..NR {
                acc[i][j] += ai * bv[j];
            }
        }
    }
    for i in 0..mr {
        let crow = &mut c[(row0 + i) * n + col0..(row0 + i) * n + col0 + nr];
        crow.copy_from_slice(&acc[i][..nr]);
    }
}

/// Allocates and returns `α·op(A)·op(B)`.
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] when the inner dimensions of
/// `op(A)` and `op(B)` differ.
pub fn gemm(
    alpha: f64,
    a: &Matrix,
    ta: Trans,
    b: &Matrix,
    tb: Trans,
) -> Result<Matrix, LinalgError> {
    let (m, _) = op_shape(a.rows(), a.cols(), ta);
    let (_, n) = op_shape(b.rows(), b.cols(), tb);
    let mut c = Matrix::zeros(m, n);
    gemm_slice(
        alpha,
        a.as_slice(),
        a.rows(),
        a.cols(),
        ta,
        b.as_slice(),
        b.rows(),
        b.cols(),
        tb,
        0.0,
        c.as_mut_slice(),
    )?;
    Ok(c)
}

/// Naive triple-loop reference for `α·op(A)·op(B) + β·C` — the oracle the
/// blocked kernel is property-tested against, and the pinned
/// pre-vectorisation baseline for the regression benchmarks. Accumulates
/// in ascending `k` order from `β·C`, with no zero-skip branch.
///
/// # Errors
///
/// Returns [`LinalgError::ShapeMismatch`] when the inner dimensions of
/// `op(A)` and `op(B)` differ or `c` has the wrong shape.
pub fn gemm_reference(
    alpha: f64,
    a: &Matrix,
    ta: Trans,
    b: &Matrix,
    tb: Trans,
    beta: f64,
    c: &mut Matrix,
) -> Result<(), LinalgError> {
    let (m, ka) = op_shape(a.rows(), a.cols(), ta);
    let (kb, n) = op_shape(b.rows(), b.cols(), tb);
    if ka != kb || c.shape() != (m, n) {
        return Err(LinalgError::ShapeMismatch {
            op: "gemm",
            lhs: (m, ka),
            rhs: (kb, n),
        });
    }
    let a_cols = a.cols();
    let b_cols = b.cols();
    let (a, b) = (a.as_slice(), b.as_slice());
    for i in 0..m {
        for j in 0..n {
            let mut acc = if beta == 0.0 { 0.0 } else { beta * c[(i, j)] };
            for p in 0..ka {
                acc += (alpha * op_at(a, a_cols, ta, i, p)) * op_at(b, b_cols, tb, p, j);
            }
            c[(i, j)] = acc;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(rows: usize, cols: usize, seed: u64) -> Matrix {
        // Deterministic pseudo-random fill without pulling in `rand`.
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        Matrix::from_fn(rows, cols, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    /// [`gemm_slice`] on `Matrix` operands.
    fn gemm_matrix(
        alpha: f64,
        a: &Matrix,
        ta: Trans,
        b: &Matrix,
        tb: Trans,
        beta: f64,
        c: &mut Matrix,
    ) -> Result<(), LinalgError> {
        let (ar, ac) = a.shape();
        let (br, bc) = b.shape();
        gemm_slice(
            alpha,
            a.as_slice(),
            ar,
            ac,
            ta,
            b.as_slice(),
            br,
            bc,
            tb,
            beta,
            c.as_mut_slice(),
        )
    }

    fn assert_close(a: &Matrix, b: &Matrix, tol: f64) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn matches_reference_across_shapes_and_transposes() {
        let shapes = [(1, 1, 1), (3, 5, 4), (8, 8, 8), (17, 9, 23), (130, 33, 260)];
        for &(m, n, k) in &shapes {
            for ta in [Trans::No, Trans::Yes] {
                for tb in [Trans::No, Trans::Yes] {
                    let a = match ta {
                        Trans::No => dense(m, k, 1),
                        Trans::Yes => dense(k, m, 1),
                    };
                    let b = match tb {
                        Trans::No => dense(k, n, 2),
                        Trans::Yes => dense(n, k, 2),
                    };
                    let mut want = dense(m, n, 3);
                    let mut got = want.clone();
                    gemm_reference(0.7, &a, ta, &b, tb, -1.3, &mut want).unwrap();
                    gemm_matrix(0.7, &a, ta, &b, tb, -1.3, &mut got).unwrap();
                    assert_close(&got, &want, 1e-12);
                }
            }
        }
    }

    #[test]
    fn alpha_one_beta_zero_is_bit_identical_to_reference() {
        for &(m, n, k) in &[(5, 7, 300), (64, 57, 171)] {
            let a = dense(m, k, 11);
            let b = dense(k, n, 12);
            let mut want = Matrix::zeros(m, n);
            let mut got = Matrix::zeros(m, n);
            gemm_reference(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut want).unwrap();
            gemm_matrix(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut got).unwrap();
            assert_eq!(got, want, "blocked kernel must keep k-order sums");
        }
    }

    #[test]
    fn beta_accumulates_onto_existing_c() {
        let a = dense(6, 4, 4);
        let b = dense(4, 5, 5);
        let c0 = dense(6, 5, 6);
        let mut c = c0.clone();
        gemm_matrix(2.0, &a, Trans::No, &b, Trans::No, 1.0, &mut c).unwrap();
        let prod = gemm(2.0, &a, Trans::No, &b, Trans::No).unwrap();
        assert_close(&c, &(&c0 + &prod), 1e-12);
    }

    #[test]
    fn beta_zero_ignores_nan_in_c() {
        let a = dense(3, 3, 7);
        let b = dense(3, 3, 8);
        let mut c = Matrix::filled(3, 3, f64::NAN);
        gemm_matrix(1.0, &a, Trans::No, &b, Trans::No, 0.0, &mut c).unwrap();
        assert!(c.iter().all(|v| v.is_finite()), "β=0 must overwrite NaN C");
    }

    #[test]
    fn nan_and_inf_propagate_from_operands() {
        // 0·NaN and 0·∞ are NaN: the kernel must not skip them.
        let mut a = Matrix::zeros(2, 2);
        a[(0, 0)] = 0.0;
        a[(0, 1)] = 0.0;
        let mut b = dense(2, 2, 9);
        b[(0, 0)] = f64::NAN;
        b[(1, 1)] = f64::INFINITY;
        let c = gemm(1.0, &a, Trans::No, &b, Trans::No).unwrap();
        assert!(c[(0, 0)].is_nan(), "0·NaN must yield NaN");
        assert!(c[(0, 1)].is_nan(), "0·∞ must yield NaN");
    }

    #[test]
    fn workspace_reuse_is_invariant() {
        // Every multiply on this thread shares one packing workspace.
        let a = dense(40, 30, 13);
        let b = dense(30, 20, 14);
        let first = gemm(1.0, &a, Trans::No, &b, Trans::No).unwrap();
        // A smaller multiply in between leaves stale data in the buffers.
        gemm(
            1.0,
            &dense(3, 50, 15),
            Trans::No,
            &dense(50, 3, 16),
            Trans::No,
        )
        .unwrap();
        let again = gemm(1.0, &a, Trans::No, &b, Trans::No).unwrap();
        assert_eq!(first, again, "stale workspace contents leaked into C");
    }

    #[test]
    fn shape_mismatches_rejected() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        assert!(gemm(1.0, &a, Trans::No, &b, Trans::No).is_err());
        let mut c = Matrix::zeros(5, 5);
        assert!(gemm_matrix(1.0, &a, Trans::No, &b, Trans::Yes, 0.0, &mut c).is_err());
    }

    #[test]
    fn degenerate_dims() {
        // k = 0: C ← β·C only.
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 2);
        let mut c = Matrix::filled(3, 2, 2.0);
        gemm_matrix(1.0, &a, Trans::No, &b, Trans::No, 0.5, &mut c).unwrap();
        assert!(c.iter().all(|&v| v == 1.0));
        // m = 0 / n = 0: no-op, no panic.
        let mut empty = Matrix::zeros(0, 2);
        gemm_matrix(
            1.0,
            &Matrix::zeros(0, 4),
            Trans::No,
            &Matrix::zeros(4, 2),
            Trans::No,
            0.0,
            &mut empty,
        )
        .unwrap();
    }
}
