//! Shared alternating-least-squares core for compressive-sensing completion.
//!
//! [`CompressiveSensing`](crate::CompressiveSensing) and
//! [`BatchedLooEngine`](crate::BatchedLooEngine) run the *same* sweep
//! arithmetic through this module: per-row/per-column ridge-regularised
//! normal-equation solves over the observed entries, with relative
//! objective-change early stopping. Keeping a single implementation is what
//! makes the batched leave-one-out backend numerically equivalent to the
//! naive from-scratch path — the two differ only in their starting factors
//! (cold seeded init vs warm near-converged factors) and in how the
//! per-row Gram matrices are obtained (fresh accumulation vs cached
//! rank-1-downdated), never in the sweep math itself.
//!
//! Observation lists store **raw** (uncentred) values; centring happens at
//! use time against [`AlsProblem::mean`]. This lets one observation-list
//! build serve every leave-one-out sub-problem, whose means all differ.

use drcell_linalg::{backend, kernels, solve, Matrix};

use crate::{InferenceError, ObservedMatrix};

/// Observation lists and summary statistics shared by every ALS solve over
/// one observed matrix (the full problem and all its leave-one-out
/// variants).
#[derive(Debug, Clone)]
pub(crate) struct AlsData {
    /// Number of cells (rows of the factorised matrix).
    pub m: usize,
    /// Number of cycles (columns).
    pub n: usize,
    /// Effective factorisation rank (config rank clamped to the matrix).
    pub r: usize,
    /// Mean of the observed entries.
    pub mean: f64,
    /// Number of observed entries.
    pub count: usize,
    /// Raw sum of observed entries (for exact leave-one-out mean updates).
    pub sum: f64,
    /// Sum of mean-centred entries (≈ 0; kept for stable LOO variance).
    pub centred_sum: f64,
    /// Sum of squared mean-centred entries.
    pub centred_sum_sq: f64,
    /// Per-cell `(cycle, raw value)` observation lists.
    pub row_obs: Vec<Vec<(usize, f64)>>,
    /// Per-cycle `(cell, raw value)` observation lists.
    pub col_obs: Vec<Vec<(usize, f64)>>,
}

impl AlsData {
    /// Scans the observed matrix once, building the per-row/per-column
    /// lists and the moment statistics.
    ///
    /// # Errors
    ///
    /// Returns [`InferenceError::NoObservations`] for an empty matrix.
    pub fn build(obs: &ObservedMatrix, rank: usize) -> Result<AlsData, InferenceError> {
        let mean = obs.observed_mean()?;
        let m = obs.cells();
        let n = obs.cycles();
        let r = rank.min(m).min(n).max(1);

        let mut row_obs: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
        let mut col_obs: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        let mut sum = 0.0;
        let mut centred_sum = 0.0;
        let mut centred_sum_sq = 0.0;
        let mut count = 0usize;
        for (i, t, v) in obs.observations() {
            let centred = v - mean;
            sum += v;
            centred_sum += centred;
            centred_sum_sq += centred * centred;
            count += 1;
            row_obs[i].push((t, v));
            col_obs[t].push((i, v));
        }
        Ok(AlsData {
            m,
            n,
            r,
            mean,
            count,
            sum,
            centred_sum,
            centred_sum_sq,
            row_obs,
            col_obs,
        })
    }

    /// Variance of the centred observed entries (ridge scale basis).
    pub fn variance(&self) -> f64 {
        (self.centred_sum_sq / self.count as f64).max(1e-12)
    }

    /// The full-data ALS problem (no entry left out).
    pub fn problem(&self, lambda: f64) -> AlsProblem<'_> {
        AlsProblem {
            data: self,
            mean: self.mean,
            lambda,
            leave_out: None,
        }
    }

    /// The leave-one-out problem hiding `(cell, cycle)`, with its exactly
    /// downdated mean and ridge.
    pub fn loo_problem(&self, lambda: f64, mean: f64, cell: usize, cycle: usize) -> AlsProblem<'_> {
        AlsProblem {
            data: self,
            mean,
            lambda,
            leave_out: Some((cell, cycle)),
        }
    }
}

/// One concrete ALS problem over shared observation lists: a mean, an
/// effective ridge weight, and at most one hidden entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AlsProblem<'a> {
    /// The shared observation lists.
    pub data: &'a AlsData,
    /// Mean subtracted from every observation.
    pub mean: f64,
    /// Effective per-observation ridge weight (`λ·var`).
    pub lambda: f64,
    /// Entry excluded from every sweep and objective (leave-one-out).
    pub leave_out: Option<(usize, usize)>,
}

impl AlsProblem<'_> {
    #[inline]
    fn skips(&self, cell: usize, cycle: usize) -> bool {
        self.leave_out == Some((cell, cycle))
    }

    /// Effective observation count of a cell's row.
    #[inline]
    pub fn row_len(&self, i: usize) -> usize {
        let len = self.data.row_obs[i].len();
        match self.leave_out {
            Some((c, _)) if c == i => len - 1,
            _ => len,
        }
    }

    /// Effective observation count of a cycle's column.
    #[inline]
    pub fn col_len(&self, t: usize) -> usize {
        let len = self.data.col_obs[t].len();
        match self.leave_out {
            Some((_, tau)) if tau == t => len - 1,
            _ => len,
        }
    }
}

/// Reusable per-row normal-equation buffers for the ALS sweeps: one Gram
/// matrix and one right-hand side, zeroed per row instead of reallocated.
///
/// One scratch is carried across every row of every sweep; the row
/// arithmetic (zero, accumulate, ridge, in-place Cholesky) is bit-identical
/// to the historical allocate-per-row code.
#[derive(Debug, Clone)]
pub(crate) struct AlsScratch {
    /// `r × r` normal-equation Gram buffer.
    pub gram: Matrix,
    /// Length-`r` right-hand side; holds the row solution after a solve.
    pub rhs: Vec<f64>,
}

impl AlsScratch {
    /// Scratch for rank-`r` solves.
    pub fn new(r: usize) -> AlsScratch {
        AlsScratch {
            gram: Matrix::zeros(r, r),
            rhs: vec![0.0; r],
        }
    }
}

/// Solves row `i` of `U` into `row` (a borrowed view of `U`'s storage).
fn solve_u_row(
    p: &AlsProblem<'_>,
    i: usize,
    v: &Matrix,
    row: &mut [f64],
    s: &mut AlsScratch,
) -> Result<(), InferenceError> {
    let r = p.data.r;
    let n_eff = p.row_len(i);
    if n_eff == 0 {
        // No data for this cell: shrink towards zero (global mean).
        row.fill(0.0);
        return Ok(());
    }
    s.gram.as_mut_slice().fill(0.0);
    s.rhs.fill(0.0);
    let kind = backend::active_kind();
    for &(t, raw) in &p.data.row_obs[i] {
        if p.skips(i, t) {
            continue;
        }
        let d = raw - p.mean;
        let vt = v.row(t);
        kernels::gram_rhs_update(kind, s.gram.as_mut_slice(), &mut s.rhs, d, vt);
    }
    let ridge = p.lambda * n_eff as f64;
    for a in 0..r {
        s.gram[(a, a)] += ridge;
    }
    solve::solve_spd_in_place(&mut s.gram, &mut s.rhs)?;
    row.copy_from_slice(&s.rhs);
    Ok(())
}

/// Solves every row of `U` given the current `V` (one U-half-sweep).
///
/// # Errors
///
/// Propagates SPD solver failures.
pub(crate) fn sweep_u(
    p: &AlsProblem<'_>,
    u: &mut Matrix,
    v: &Matrix,
    scratch: &mut AlsScratch,
) -> Result<(), InferenceError> {
    for i in 0..p.data.m {
        solve_u_row(p, i, v, u.row_mut(i), scratch)?;
    }
    Ok(())
}

/// Solves one row of `V` (one cycle's factor) given the current `U`.
///
/// # Errors
///
/// Propagates SPD solver failures.
pub(crate) fn solve_v_row(
    p: &AlsProblem<'_>,
    u: &Matrix,
    v: &mut Matrix,
    t: usize,
    s: &mut AlsScratch,
) -> Result<(), InferenceError> {
    let r = p.data.r;
    let n_eff = p.col_len(t);
    if n_eff == 0 {
        v.row_mut(t).fill(0.0);
        return Ok(());
    }
    s.gram.as_mut_slice().fill(0.0);
    s.rhs.fill(0.0);
    let kind = backend::active_kind();
    for &(i, raw) in &p.data.col_obs[t] {
        if p.skips(i, t) {
            continue;
        }
        let d = raw - p.mean;
        let ui = u.row(i);
        kernels::gram_rhs_update(kind, s.gram.as_mut_slice(), &mut s.rhs, d, ui);
    }
    let ridge = p.lambda * n_eff as f64;
    for a in 0..r {
        s.gram[(a, a)] += ridge;
    }
    solve::solve_spd_in_place(&mut s.gram, &mut s.rhs)?;
    v.row_mut(t).copy_from_slice(&s.rhs);
    Ok(())
}

/// Solves every row of `V` given the current `U` (one V-half-sweep).
///
/// # Errors
///
/// Propagates SPD solver failures.
pub(crate) fn sweep_v(
    p: &AlsProblem<'_>,
    u: &Matrix,
    v: &mut Matrix,
    scratch: &mut AlsScratch,
) -> Result<(), InferenceError> {
    for t in 0..p.data.n {
        solve_v_row(p, u, v, t, scratch)?;
    }
    Ok(())
}

/// The ridge-regularised squared-error objective of `(U, V)` on the
/// problem's (possibly leave-one-out) observations.
pub(crate) fn objective(p: &AlsProblem<'_>, u: &Matrix, v: &Matrix) -> f64 {
    let mut obj = 0.0;
    for (i, obs_row) in p.data.row_obs.iter().enumerate() {
        for &(t, raw) in obs_row {
            if p.skips(i, t) {
                continue;
            }
            let d = raw - p.mean;
            let pred: f64 = u.row(i).iter().zip(v.row(t)).map(|(a, b)| a * b).sum();
            obj += (d - pred) * (d - pred);
        }
    }
    obj + p.lambda * (u.fro_norm().powi(2) + v.fro_norm().powi(2))
}

/// Runs up to `max_iters` full sweeps (U-half then V-half), stopping early
/// when the relative objective change falls below `tol`. Returns the
/// number of sweeps executed.
///
/// `prev_obj` seeds the early-stop comparison: `f64::INFINITY` reproduces
/// the cold-start behaviour (at least two sweeps before a stop is
/// possible); passing the objective of warm-start factors lets a
/// near-converged start stop after a single sweep.
///
/// # Errors
///
/// Propagates SPD solver failures.
pub(crate) fn run_sweeps(
    p: &AlsProblem<'_>,
    u: &mut Matrix,
    v: &mut Matrix,
    max_iters: usize,
    tol: f64,
    mut prev_obj: f64,
    scratch: &mut AlsScratch,
) -> Result<usize, InferenceError> {
    for sweep in 0..max_iters {
        sweep_u(p, u, v, scratch)?;
        sweep_v(p, u, v, scratch)?;
        let obj = objective(p, u, v);
        if prev_obj.is_finite() && (prev_obj - obj).abs() <= tol * prev_obj.max(1e-12) {
            return Ok(sweep + 1);
        }
        prev_obj = obj;
    }
    Ok(max_iters)
}

/// Deterministic pseudo-random factor initialisation (splitmix64 over
/// `seed ^ salt`) in `[-0.5, 0.5]`, scaled by `scale`.
pub(crate) fn init_factor(seed: u64, rows: usize, cols: usize, scale: f64, salt: u64) -> Matrix {
    let mut state = seed ^ salt;
    Matrix::from_fn(rows, cols, |_, _| {
        // splitmix64 step
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^= z >> 31;
        ((z as f64 / u64::MAX as f64) - 0.5) * scale
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use drcell_datasets::DataMatrix;

    #[test]
    fn empty_rows_are_zeroed() {
        // Rows with no observations shrink to zero (the global mean).
        let truth = DataMatrix::from_fn(600, 8, |i, t| (i + t) as f64 * 0.01 + 1.0);
        let obs = ObservedMatrix::from_selection(&truth, |i, t| i % 3 != 1 && (i + t) % 2 == 0);
        let data = AlsData::build(&obs, 3).unwrap();
        let p = data.problem(0.1);
        let scale = 1.0 / (data.r as f64).sqrt();
        let mut u = init_factor(9, data.m, data.r, scale, 0xA5A5);
        let v = init_factor(9, data.n, data.r, scale, 0x5A5A);
        sweep_u(&p, &mut u, &v, &mut AlsScratch::new(data.r)).unwrap();
        for i in 0..600 {
            let zeroed = u.row(i).iter().all(|&x| x == 0.0);
            assert_eq!(zeroed, i % 3 == 1, "row {i}");
        }
    }
}
