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
//!
//! **Pattern sharing.** A row's Gram matrix `Σ v_t·v_tᵀ + ridge` depends
//! only on *which* cycles it observes, not on the observed values, so rows
//! with identical observation lists have bit-identical Grams. Sensing
//! windows are mostly fully sensed history cycles, so most rows share one
//! pattern and most columns share another. [`AlsData::build`] numbers the
//! distinct patterns of the rows and of the columns; each half-sweep
//! builds and Cholesky-factors one Gram per pattern, at the pattern's
//! first line, and solves every line's own right-hand side against that
//! factor. Every element is computed in the same order as a per-line
//! solve, so the sweep is bit-identical to one; the per-line path remains
//! for the row and column holding a leave-one-out problem's hidden entry,
//! whose Gram differs from its pattern's.

use drcell_linalg::{backend, kernels, solve, vector, Matrix};

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
    /// Per-cell observation-pattern index: cells observed at exactly the
    /// same cycles share it. Patterns are numbered in order of first
    /// appearance.
    pub row_pattern: Vec<usize>,
    /// Per-cycle observation-pattern index (cycles observing exactly the
    /// same cells share it), numbered like [`AlsData::row_pattern`].
    pub col_pattern: Vec<usize>,
    /// Number of distinct patterns over rows or columns, whichever is
    /// larger (the per-half-sweep factor slots a scratch needs).
    pub patterns: usize,
}

/// Numbers the distinct index patterns of `lists` in order of first
/// appearance, returning the per-list pattern index and the count. Each
/// list is compared with the first list of every pattern seen so far;
/// windows hold a handful of patterns, so this stays linear in practice.
fn number_patterns(lists: &[Vec<(usize, f64)>]) -> (Vec<usize>, usize) {
    let indices = |l: usize| lists[l].iter().map(|&(j, _)| j);
    let mut firsts: Vec<usize> = Vec::new();
    let pattern = (0..lists.len())
        .map(
            |l| match firsts.iter().position(|&f| indices(f).eq(indices(l))) {
                Some(k) => k,
                None => {
                    firsts.push(l);
                    firsts.len() - 1
                }
            },
        )
        .collect();
    (pattern, firsts.len())
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
        let (row_pattern, row_patterns) = number_patterns(&row_obs);
        let (col_pattern, col_patterns) = number_patterns(&col_obs);
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
            row_pattern,
            col_pattern,
            patterns: row_patterns.max(col_patterns),
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
    /// The cycle hidden from cell `i`'s row, if the leave-out is there.
    #[inline]
    fn row_skip(&self, i: usize) -> Option<usize> {
        self.leave_out.filter(|&(c, _)| c == i).map(|(_, t)| t)
    }

    /// The cell hidden from cycle `t`'s column, if the leave-out is there.
    #[inline]
    fn col_skip(&self, t: usize) -> Option<usize> {
        self.leave_out.filter(|&(_, tau)| tau == t).map(|(c, _)| c)
    }

    /// Effective observation count of a cell's row.
    #[inline]
    pub fn row_len(&self, i: usize) -> usize {
        self.data.row_obs[i].len() - usize::from(self.row_skip(i).is_some())
    }
}

/// Reusable normal-equation buffers for the ALS sweeps, allocated once
/// per solve and carried across every line of every sweep.
#[derive(Debug, Clone)]
pub(crate) struct AlsScratch {
    /// `r × r` Gram buffer of a line solved on its own.
    pub gram: Matrix,
    /// Length-`r` right-hand side; holds the line solution after a solve.
    pub rhs: Vec<f64>,
    /// Cholesky factor of each observation pattern's Gram.
    factors: Vec<Matrix>,
    /// Whether `factors[k]` holds the current half-sweep's factor.
    ready: Vec<bool>,
}

impl AlsScratch {
    /// Scratch for the solves over `data`.
    pub fn new(data: &AlsData) -> AlsScratch {
        let r = data.r;
        AlsScratch {
            gram: Matrix::zeros(r, r),
            rhs: vec![0.0; r],
            factors: vec![Matrix::zeros(r, r); data.patterns],
            ready: vec![false; data.patterns],
        }
    }

    /// Starts a half-sweep: forgets every pattern's factor.
    pub fn begin_half_sweep(&mut self) {
        self.ready.fill(false);
    }

    /// Solves [`AlsScratch::rhs`] in place against pattern `k`'s factor.
    /// On the half-sweep's first request for `k`, `gram` first writes the
    /// pattern's full Gram (ridge included) over the slot it is handed,
    /// and the slot is factored in place.
    ///
    /// # Errors
    ///
    /// Propagates SPD solver failures.
    pub fn solve_pattern(
        &mut self,
        k: usize,
        gram: impl FnOnce(&mut Matrix),
    ) -> Result<(), InferenceError> {
        let factor = &mut self.factors[k];
        if !self.ready[k] {
            gram(factor);
            solve::factor_spd_in_place(factor)?;
            self.ready[k] = true;
        }
        solve::solve_factored(factor, &mut self.rhs)?;
        Ok(())
    }
}

/// Adds the ridge `λ·n_eff` to the diagonal of a Gram.
pub(crate) fn add_ridge(gram: &mut Matrix, lambda: f64, n_eff: usize) {
    let ridge = lambda * n_eff as f64;
    for a in 0..gram.rows() {
        gram[(a, a)] += ridge;
    }
}

/// Solves one line (a row of `U` or of `V`) from its own Gram: `list` is
/// the line's observation list, `skip` the hidden entry's index on the
/// other side (if the leave-out sits on this line), `other` the fixed
/// factor. An empty line shrinks to zero (the global mean).
fn solve_line(
    p: &AlsProblem<'_>,
    list: &[(usize, f64)],
    skip: Option<usize>,
    other: &Matrix,
    out: &mut [f64],
    s: &mut AlsScratch,
) -> Result<(), InferenceError> {
    let n_eff = list.len() - usize::from(skip.is_some());
    if n_eff == 0 {
        out.fill(0.0);
        return Ok(());
    }
    s.gram.as_mut_slice().fill(0.0);
    s.rhs.fill(0.0);
    let kind = backend::active_kind();
    for &(j, raw) in list {
        if Some(j) == skip {
            continue;
        }
        kernels::gram_rhs_update(
            kind,
            s.gram.as_mut_slice(),
            &mut s.rhs,
            raw - p.mean,
            other.row(j),
        );
    }
    add_ridge(&mut s.gram, p.lambda, n_eff);
    solve::solve_spd_in_place(&mut s.gram, &mut s.rhs)?;
    out.copy_from_slice(&s.rhs);
    Ok(())
}

/// One half-sweep: solves every line of `out` against the fixed `other`.
/// Each observation pattern's Gram is built and factored at its first
/// line and reused by the rest; the line holding the hidden entry
/// (`hidden = (line, skip)`) is solved from its own Gram.
fn sweep_half(
    p: &AlsProblem<'_>,
    lists: &[Vec<(usize, f64)>],
    pattern: &[usize],
    hidden: Option<(usize, usize)>,
    other: &Matrix,
    out: &mut Matrix,
    s: &mut AlsScratch,
) -> Result<(), InferenceError> {
    let kind = backend::active_kind();
    s.begin_half_sweep();
    for (line, list) in lists.iter().enumerate() {
        if let Some((h, skip)) = hidden.filter(|&(h, _)| h == line) {
            solve_line(p, list, Some(skip), other, out.row_mut(h), s)?;
            continue;
        }
        if list.is_empty() {
            out.row_mut(line).fill(0.0);
            continue;
        }
        s.rhs.fill(0.0);
        for &(j, raw) in list {
            vector::axpy(raw - p.mean, other.row(j), &mut s.rhs);
        }
        s.solve_pattern(pattern[line], |gram| {
            gram.as_mut_slice().fill(0.0);
            for &(j, _) in list {
                kernels::gram_update(kind, gram.as_mut_slice(), other.row(j));
            }
            add_ridge(gram, p.lambda, list.len());
        })?;
        out.row_mut(line).copy_from_slice(&s.rhs);
    }
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
    let d = p.data;
    sweep_half(p, &d.row_obs, &d.row_pattern, p.leave_out, v, u, scratch)
}

/// Solves one row of `V` (one cycle's factor) given the current `U`, from
/// its own Gram.
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
    solve_line(p, &p.data.col_obs[t], p.col_skip(t), u, v.row_mut(t), s)
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
    let d = p.data;
    let hidden = p.leave_out.map(|(c, t)| (t, c));
    sweep_half(p, &d.col_obs, &d.col_pattern, hidden, u, v, scratch)
}

/// The ridge-regularised squared-error objective of `(U, V)` on the
/// problem's (possibly leave-one-out) observations.
pub(crate) fn objective(p: &AlsProblem<'_>, u: &Matrix, v: &Matrix) -> f64 {
    // `V`'s rows are read straight from its storage: this loop runs once
    // per observation, where `Matrix::row`'s extra bounds assert shows.
    let rank = v.cols();
    let vs = v.as_slice();
    let mut obj = 0.0;
    for (i, obs_row) in p.data.row_obs.iter().enumerate() {
        let ui = u.row(i);
        let skip = p.row_skip(i);
        for &(t, raw) in obs_row {
            if Some(t) == skip {
                continue;
            }
            let d = raw - p.mean;
            let vt = &vs[t * rank..(t + 1) * rank];
            let pred: f64 = ui.iter().zip(vt).map(|(a, b)| a * b).sum();
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
    use drcell_linalg::BackendChoice;
    use proptest::prelude::*;

    /// Reference U-half-sweep: every row solved from its own Gram.
    fn sweep_u_per_line(
        p: &AlsProblem<'_>,
        u: &mut Matrix,
        v: &Matrix,
        s: &mut AlsScratch,
    ) -> Result<(), InferenceError> {
        for (i, list) in p.data.row_obs.iter().enumerate() {
            solve_line(p, list, p.row_skip(i), v, u.row_mut(i), s)?;
        }
        Ok(())
    }

    /// Reference V-half-sweep: every column solved from its own Gram.
    fn sweep_v_per_line(
        p: &AlsProblem<'_>,
        u: &Matrix,
        v: &mut Matrix,
        s: &mut AlsScratch,
    ) -> Result<(), InferenceError> {
        for t in 0..p.data.n {
            solve_v_row(p, u, v, t, s)?;
        }
        Ok(())
    }

    /// [`run_sweeps`] over the reference half-sweeps.
    fn run_sweeps_per_line(
        p: &AlsProblem<'_>,
        u: &mut Matrix,
        v: &mut Matrix,
        max_iters: usize,
        tol: f64,
        mut prev_obj: f64,
        s: &mut AlsScratch,
    ) -> Result<usize, InferenceError> {
        for sweep in 0..max_iters {
            sweep_u_per_line(p, u, v, s)?;
            sweep_v_per_line(p, u, v, s)?;
            let obj = objective(p, u, v);
            if prev_obj.is_finite() && (prev_obj - obj).abs() <= tol * prev_obj.max(1e-12) {
                return Ok(sweep + 1);
            }
            prev_obj = obj;
        }
        Ok(max_iters)
    }

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// Runs `sweep_u`, `sweep_v` and `run_sweeps` against the per-line
    /// reference from the same start and asserts identical bits: factors,
    /// sweep counts, errors, and the partial factors an error leaves.
    fn assert_sharing_is_exact(p: &AlsProblem<'_>, u0: &Matrix, v0: &Matrix) {
        let d = p.data;
        let (mut s_shared, mut s_ref) = (AlsScratch::new(d), AlsScratch::new(d));

        let (mut u_a, mut u_b) = (u0.clone(), u0.clone());
        let a = sweep_u(p, &mut u_a, v0, &mut s_shared);
        let b = sweep_u_per_line(p, &mut u_b, v0, &mut s_ref);
        assert_eq!(a, b, "sweep_u result");
        assert_eq!(bits(&u_a), bits(&u_b), "sweep_u factors");

        let (mut v_a, mut v_b) = (v0.clone(), v0.clone());
        let a = sweep_v(p, u0, &mut v_a, &mut s_shared);
        let b = sweep_v_per_line(p, u0, &mut v_b, &mut s_ref);
        assert_eq!(a, b, "sweep_v result");
        assert_eq!(bits(&v_a), bits(&v_b), "sweep_v factors");

        let (mut u_a, mut v_a) = (u0.clone(), v0.clone());
        let (mut u_b, mut v_b) = (u0.clone(), v0.clone());
        let a = run_sweeps(p, &mut u_a, &mut v_a, 6, 1e-9, f64::INFINITY, &mut s_shared);
        let b = run_sweeps_per_line(p, &mut u_b, &mut v_b, 6, 1e-9, f64::INFINITY, &mut s_ref);
        assert_eq!(a, b, "run_sweeps result");
        assert_eq!(bits(&u_a), bits(&u_b), "run_sweeps U");
        assert_eq!(bits(&v_a), bits(&v_b), "run_sweeps V");
    }

    /// The backends to compare under: scalar, and SIMD where the host has it.
    fn backends() -> Vec<BackendChoice> {
        let mut out = vec![BackendChoice::Scalar];
        if backend::simd_available() {
            out.push(BackendChoice::Simd);
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Pattern sharing is bit-identical to solving every line from its
        /// own Gram, under both backends: masks drawn from a few template
        /// rows (so patterns repeat) plus noise rows, empty rows and
        /// columns; no left-out entry (`leave_out == 0`), one at the
        /// first row of a shared pattern when there is one (`1`), or one
        /// at a random observed entry (`2`); a zero ridge and a zeroed
        /// factor row in a quarter of the cases, so some Grams are
        /// singular and the sweeps fail.
        #[test]
        fn sharing_matches_the_per_line_sweeps(
            m in 1usize..14,
            n in 1usize..10,
            rank in 1usize..6,
            seed in 0u64..1_000_000,
            leave_out in 0u8..3,
            zero_lambda in 0u8..4,
        ) {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let templates: Vec<u64> = (0..3).map(|_| next()).collect();
            let row_bits: Vec<u64> = (0..m)
                .map(|_| match next() % 6 {
                    0 => 0,
                    1 => next(),
                    k => templates[(k % 3) as usize],
                })
                .collect();
            let truth = DataMatrix::from_fn(m, n, |i, t| {
                2.0 + (i as f64 * 0.7).sin() + (t as f64 * 0.4).cos() * 0.5
            });
            let obs = ObservedMatrix::from_selection(&truth, |i, t| {
                row_bits[i] >> t & 1 == 1 && t != n / 2
            });
            if obs.observed_count() == 0 {
                return;
            }
            let data = AlsData::build(&obs, rank).unwrap();
            // A zero ridge lets rank-deficient Grams fail the factorisation.
            let lambda = if zero_lambda == 0 { 0.0 } else { 0.05 };
            let scale = 1.0 / (data.r as f64).sqrt();
            let u0 = init_factor(seed, data.m, data.r, scale, 0xA5A5);
            let mut v0 = init_factor(seed, data.n, data.r, scale, 0x5A5A);
            if zero_lambda == 0 && data.n > 1 {
                v0.row_mut((seed % data.n as u64) as usize).fill(0.0);
            }
            let entries: Vec<(usize, usize)> = obs.observations().map(|(i, t, _)| (i, t)).collect();
            let problem = match leave_out {
                0 => data.problem(lambda),
                _ => {
                    // Prefer a pattern's first row that others share.
                    let shared_first = entries.iter().copied().find(|&(i, _)| {
                        let k = data.row_pattern[i];
                        data.row_pattern[..i].iter().all(|&q| q != k)
                            && data.row_pattern[i + 1..].contains(&k)
                    });
                    let pick = entries[(seed % entries.len() as u64) as usize];
                    let (cell, cycle) = match (leave_out, shared_first) {
                        (1, Some(e)) => e,
                        _ => pick,
                    };
                    data.loo_problem(lambda, data.mean, cell, cycle)
                }
            };
            for choice in backends() {
                backend::select(choice);
                assert_sharing_is_exact(&problem, &u0, &v0);
            }
            backend::select(BackendChoice::Auto);
        }
    }

    #[test]
    fn patterns_are_numbered_by_first_appearance() {
        let truth = DataMatrix::from_fn(6, 4, |i, t| (i * 4 + t) as f64);
        // Rows 1 and 4 share {0, 2}, rows 2 and 5 share {1}, row 3 is empty.
        let rows: [&[usize]; 6] = [&[0, 1, 2, 3], &[0, 2], &[1], &[], &[0, 2], &[1]];
        let obs = ObservedMatrix::from_selection(&truth, |i, t| rows[i].contains(&t));
        let data = AlsData::build(&obs, 2).unwrap();
        assert_eq!(data.row_pattern, [0, 1, 2, 3, 1, 2]);
        // Columns: 0 → {0,1,4}, 1 → {0,2,5}, 2 → {0,1,4}, 3 → {0}.
        assert_eq!(data.col_pattern, [0, 1, 0, 2]);
        assert_eq!(data.patterns, 4);
    }

    #[test]
    fn a_failing_pattern_fails_at_its_first_row() {
        // Rows 2 and 5 see only cycle 0, whose V row is zero: with no
        // ridge their shared Gram is singular. Both sweeps must fail at
        // row 2 with rows 0–1 solved and rows 2.. untouched.
        let truth = DataMatrix::from_fn(6, 4, |i, t| 1.0 + (i + 2 * t) as f64 * 0.1);
        let obs = ObservedMatrix::from_selection(&truth, |i, t| match i {
            2 | 5 => t == 0,
            _ => t > 0 || i == 0,
        });
        let data = AlsData::build(&obs, 2).unwrap();
        let u0 = init_factor(3, data.m, data.r, 0.5, 0xA5A5);
        let mut v0 = init_factor(3, data.n, data.r, 0.5, 0x5A5A);
        v0.row_mut(0).fill(0.0);
        let p = data.problem(0.0);
        let (mut u_a, mut u_b) = (u0.clone(), u0.clone());
        let a = sweep_u(&p, &mut u_a, &v0, &mut AlsScratch::new(&data));
        let b = sweep_u_per_line(&p, &mut u_b, &v0, &mut AlsScratch::new(&data));
        assert!(matches!(a, Err(InferenceError::Numerical(_))), "{a:?}");
        assert_eq!(a, b);
        assert_eq!(bits(&u_a), bits(&u_b));
        assert_eq!(u_a.row(2), u0.row(2), "row 2 is where it failed");
        assert_ne!(u_a.row(1), u0.row(1), "row 1 was solved first");
    }

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
        sweep_u(&p, &mut u, &v, &mut AlsScratch::new(&data)).unwrap();
        for i in 0..600 {
            let zeroed = u.row(i).iter().all(|&x| x == 0.0);
            assert_eq!(zeroed, i % 3 == 1, "row {i}");
        }
    }
}
