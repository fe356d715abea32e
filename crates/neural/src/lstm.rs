use rand::Rng;

use drcell_linalg::gemm::{gemm_slice, Trans};
use drcell_linalg::Matrix;

use crate::activation::sigmoid;
use crate::{NeuralError, Parameterized};

/// A single-layer LSTM processing one sequence at a time, with exact
/// backpropagation through time.
///
/// This is the recurrent core of the paper's DRQN (§4.3, after Hausknecht &
/// Stone 2015): the state `S = [s₋ₖ₊₁, …, s₀]` is fed as a `k`-step sequence
/// of per-cycle cell-selection vectors, and the final hidden state drives
/// the Q-value head.
///
/// Gate layout follows the usual convention `i, f, g, o` (input, forget,
/// cell candidate, output):
///
/// ```text
/// z = Wx·xₜ + Wh·hₜ₋₁ + b          (4H)
/// cₜ = σ(z_f)·cₜ₋₁ + σ(z_i)·tanh(z_g)
/// hₜ = σ(z_o)·tanh(cₜ)
/// ```
///
/// ```
/// use drcell_neural::LstmLayer;
/// use drcell_linalg::Matrix;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(3);
/// let lstm = LstmLayer::new(2, 4, &mut rng).unwrap();
/// let seq = Matrix::from_rows(&[vec![0.1, 0.2], vec![0.3, 0.4]]).unwrap();
/// let h = lstm.forward(&seq);
/// assert_eq!(h.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct LstmLayer {
    in_dim: usize,
    hidden: usize,
    /// Layout: `Wx` (4H × in), then `Wh` (4H × H), then `b` (4H).
    params: Vec<f64>,
    grads: Vec<f64>,
}

/// Forward-pass caches needed for backpropagation through time. Produced by
/// [`LstmLayer::forward_cached`]; opaque to callers.
#[derive(Debug, Clone)]
pub struct LstmCache {
    xs: Matrix,
    /// h[t] for t = 0..=T (h[0] is the zero initial state).
    h: Vec<Vec<f64>>,
    /// c[t] for t = 0..=T.
    c: Vec<Vec<f64>>,
    /// Activated gates per step: (i, f, g, o), each of length H.
    gates: Vec<[Vec<f64>; 4]>,
}

impl LstmCache {
    /// The final hidden state `h_T`.
    pub fn final_hidden(&self) -> &[f64] {
        self.h.last().expect("cache has at least the initial state")
    }

    /// Sequence length.
    pub fn steps(&self) -> usize {
        self.gates.len()
    }
}

impl LstmLayer {
    /// Creates an LSTM with Xavier-uniform weights and forget-gate bias 1.
    ///
    /// # Errors
    ///
    /// Returns [`NeuralError::InvalidConfig`] for zero dimensions.
    pub fn new<R: Rng + ?Sized>(
        in_dim: usize,
        hidden: usize,
        rng: &mut R,
    ) -> Result<Self, NeuralError> {
        if in_dim == 0 || hidden == 0 {
            return Err(NeuralError::InvalidConfig {
                reason: format!("lstm dims must be positive, got in={in_dim}, hidden={hidden}"),
            });
        }
        let wx_len = 4 * hidden * in_dim;
        let wh_len = 4 * hidden * hidden;
        let mut params = vec![0.0; wx_len + wh_len + 4 * hidden];
        let bx = (6.0 / (in_dim + hidden) as f64).sqrt();
        for w in params.iter_mut().take(wx_len) {
            *w = rng.gen_range(-bx..bx);
        }
        let bh = (6.0 / (2 * hidden) as f64).sqrt();
        for w in params.iter_mut().skip(wx_len).take(wh_len) {
            *w = rng.gen_range(-bh..bh);
        }
        // Forget-gate bias starts at 1 so early training does not forget.
        for hcell in 0..hidden {
            params[wx_len + wh_len + hidden + hcell] = 1.0;
        }
        let grads = vec![0.0; params.len()];
        Ok(LstmLayer {
            in_dim,
            hidden,
            params,
            grads,
        })
    }

    /// Input dimension per time step.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Hidden-state dimension.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    #[inline]
    fn wx(&self) -> &[f64] {
        &self.params[..4 * self.hidden * self.in_dim]
    }

    #[inline]
    fn wh(&self) -> &[f64] {
        let s = 4 * self.hidden * self.in_dim;
        &self.params[s..s + 4 * self.hidden * self.hidden]
    }

    #[inline]
    fn b(&self) -> &[f64] {
        let s = 4 * self.hidden * (self.in_dim + self.hidden);
        &self.params[s..]
    }

    /// Runs the sequence and returns only the final hidden state.
    ///
    /// # Panics
    ///
    /// Panics if `seq.cols() != self.in_dim()` or the sequence is empty.
    pub fn forward(&self, seq: &Matrix) -> Vec<f64> {
        self.forward_cached(seq).final_hidden().to_vec()
    }

    /// Runs the sequence, keeping the caches needed by
    /// [`LstmLayer::backward`].
    ///
    /// # Panics
    ///
    /// Panics if `seq.cols() != self.in_dim()` or the sequence is empty.
    pub fn forward_cached(&self, seq: &Matrix) -> LstmCache {
        assert_eq!(seq.cols(), self.in_dim, "lstm input width");
        assert!(seq.rows() > 0, "lstm needs a non-empty sequence");
        let steps = seq.rows();
        let hd = self.hidden;
        let mut h = vec![vec![0.0; hd]];
        let mut c = vec![vec![0.0; hd]];
        let mut gates = Vec::with_capacity(steps);

        for t in 0..steps {
            let x = seq.row(t);
            let h_prev = &h[t];
            let c_prev = &c[t];
            // z = Wx·x + Wh·h_prev + b, for all 4H rows.
            let mut z = vec![0.0; 4 * hd];
            for (r, zr) in z.iter_mut().enumerate() {
                let wx_row = &self.wx()[r * self.in_dim..(r + 1) * self.in_dim];
                let wh_row = &self.wh()[r * hd..(r + 1) * hd];
                let mut acc = self.b()[r];
                for (w, xi) in wx_row.iter().zip(x) {
                    acc += w * xi;
                }
                for (w, hi) in wh_row.iter().zip(h_prev) {
                    acc += w * hi;
                }
                *zr = acc;
            }
            let mut gi = vec![0.0; hd];
            let mut gf = vec![0.0; hd];
            let mut gg = vec![0.0; hd];
            let mut go = vec![0.0; hd];
            let mut c_new = vec![0.0; hd];
            let mut h_new = vec![0.0; hd];
            for j in 0..hd {
                gi[j] = sigmoid(z[j]);
                gf[j] = sigmoid(z[hd + j]);
                gg[j] = z[2 * hd + j].tanh();
                go[j] = sigmoid(z[3 * hd + j]);
                c_new[j] = gf[j] * c_prev[j] + gi[j] * gg[j];
                h_new[j] = go[j] * c_new[j].tanh();
            }
            gates.push([gi, gf, gg, go]);
            h.push(h_new);
            c.push(c_new);
        }
        LstmCache {
            xs: seq.clone(),
            h,
            c,
            gates,
        }
    }

    /// Backpropagation through time from a gradient on the final hidden
    /// state. Accumulates parameter gradients and returns ∂L/∂input
    /// (`steps × in_dim`).
    ///
    /// # Panics
    ///
    /// Panics if `d_h_last.len() != self.hidden()`.
    pub fn backward(&mut self, cache: &LstmCache, d_h_last: &[f64]) -> Matrix {
        assert_eq!(d_h_last.len(), self.hidden, "d_h_last length");
        let hd = self.hidden;
        let steps = cache.steps();
        let wx_len = 4 * hd * self.in_dim;
        let wh_len = 4 * hd * hd;

        let mut dx = Matrix::zeros(steps, self.in_dim);
        let mut dh = d_h_last.to_vec();
        let mut dc = vec![0.0; hd];

        for t in (0..steps).rev() {
            let [gi, gf, gg, go] = &cache.gates[t];
            let c_prev = &cache.c[t];
            let c_t = &cache.c[t + 1];
            let h_prev = &cache.h[t];
            let x = cache.xs.row(t);

            // Gate pre-activation gradients dz (4H).
            let mut dz = vec![0.0; 4 * hd];
            for j in 0..hd {
                let tc = c_t[j].tanh();
                let do_ = dh[j] * tc;
                let dc_j = dc[j] + dh[j] * go[j] * (1.0 - tc * tc);
                let di = dc_j * gg[j];
                let dg = dc_j * gi[j];
                let df = dc_j * c_prev[j];
                dz[j] = di * gi[j] * (1.0 - gi[j]);
                dz[hd + j] = df * gf[j] * (1.0 - gf[j]);
                dz[2 * hd + j] = dg * (1.0 - gg[j] * gg[j]);
                dz[3 * hd + j] = do_ * go[j] * (1.0 - go[j]);
                dc[j] = dc_j * gf[j];
            }

            // Accumulate parameter gradients and input/hidden gradients.
            let mut dh_prev = vec![0.0; hd];
            for (r, &dzr) in dz.iter().enumerate() {
                if dzr == 0.0 {
                    continue;
                }
                let wx_row_start = r * self.in_dim;
                for i in 0..self.in_dim {
                    self.grads[wx_row_start + i] += dzr * x[i];
                    dx[(t, i)] += dzr * self.params[wx_row_start + i];
                }
                let wh_row_start = wx_len + r * hd;
                for j in 0..hd {
                    self.grads[wh_row_start + j] += dzr * h_prev[j];
                    dh_prev[j] += dzr * self.params[wh_row_start + j];
                }
                self.grads[wx_len + wh_len + r] += dzr;
            }
            dh = dh_prev;
        }
        dx
    }
}

/// Forward caches of a *batched* LSTM run over equal-length sequences —
/// the GEMM-backed analogue of [`LstmCache`]. Produced by
/// [`LstmLayer::forward_batch_cached`]; opaque to callers.
#[derive(Debug, Clone)]
pub struct LstmBatchCache {
    /// Per step: the stacked inputs, batch × in.
    xs: Vec<Matrix>,
    /// `h[t]` for `t = 0..=T`, each batch × H (`h[0]` is all zeros).
    h: Vec<Matrix>,
    /// `c[t]` for `t = 0..=T`.
    c: Vec<Matrix>,
    /// `tanh(c[t + 1])` for `t = 0..T`, kept for the backward pass.
    tanh_c: Vec<Matrix>,
    /// Activated gates per step, batch × 4H in `i, f, g, o` block order.
    gates: Vec<Matrix>,
}

impl LstmBatchCache {
    /// The final hidden states, batch × H.
    pub fn final_hidden(&self) -> &Matrix {
        self.h.last().expect("cache has at least the initial state")
    }

    /// Sequence length.
    pub fn steps(&self) -> usize {
        self.gates.len()
    }

    /// Batch size.
    pub fn batch(&self) -> usize {
        self.final_hidden().rows()
    }
}

impl LstmLayer {
    /// Runs a batch of equal-length sequences in lock-step: each time step
    /// is two GEMMs (`Z = b ⊕ Xₜ·Wxᵀ + Hₜ₋₁·Whᵀ`) plus the elementwise
    /// gate math, so the whole recurrent forward is GEMM-bound. Per sample
    /// the result is bit-identical to [`LstmLayer::forward_cached`] (the
    /// per-element accumulation order is the same).
    ///
    /// Each step runs once per distinct history prefix, not once per
    /// sample. Samples whose rows `0..=t` agree bit for bit have equal
    /// gates, `cₜ₊₁` and `hₜ₊₁`, so step `t` runs the GEMMs and the gate
    /// math on the first sample of each such group and copies its rows to
    /// the others. A replay minibatch repeats prefixes often: transitions
    /// of one sensing cycle share their past cycles' rows. The cache keeps
    /// one row per sample, so [`LstmLayer::backward_batch`] reads it as if
    /// every sample had been run.
    ///
    /// `H₀ = 0`, so step 0 skips the `H₀·Whᵀ` GEMM. Its products are ±0,
    /// and adding ±0 to a sum that is not −0 returns the sum. A running sum
    /// can only be −0 if its start, a bias entry, is −0, so with finite
    /// weights and no −0 bias the skip changes no bit.
    ///
    /// # Panics
    ///
    /// Panics if `seqs` is empty, the sequences differ in shape, or their
    /// width is not `self.in_dim()`.
    pub fn forward_batch_cached(&self, seqs: &[&Matrix]) -> LstmBatchCache {
        assert!(!seqs.is_empty(), "lstm batch must be non-empty");
        let steps = seqs[0].rows();
        assert!(steps > 0, "lstm needs a non-empty sequence");
        for s in seqs {
            assert_eq!(
                s.shape(),
                (steps, self.in_dim),
                "lstm batch sequences must share one shape"
            );
        }
        let bsz = seqs.len();
        let hd = self.hidden;

        let mut xs = Vec::with_capacity(steps);
        let mut h = vec![Matrix::zeros(bsz, hd)];
        let mut c = vec![Matrix::zeros(bsz, hd)];
        let mut tanh_c = Vec::with_capacity(steps);
        let mut gates = Vec::with_capacity(steps);
        // `group[s]` is sample `s`'s group: the samples whose rows so far
        // equal its own bit for bit. Before step 0 that is every sample.
        let mut group = vec![0; bsz];

        for t in 0..steps {
            let mut x = Matrix::zeros(bsz, self.in_dim);
            for (s, seq) in seqs.iter().enumerate() {
                x.row_mut(s).copy_from_slice(seq.row(t));
            }
            let (next, reps) = refine_groups(&group, &x);
            group = next;
            let ng = reps.len();

            // z = b ⊕ Xₜ·Wxᵀ + Hₜ₋₁·Whᵀ over one sample per group,
            // accumulated bias-first exactly like the scalar step.
            let mut z = Matrix::zeros(ng, 4 * hd);
            for g in 0..ng {
                z.row_mut(g).copy_from_slice(self.b());
            }
            gemm_slice(
                1.0,
                select_rows(&x, &reps).as_slice(),
                ng,
                self.in_dim,
                Trans::No,
                self.wx(),
                4 * hd,
                self.in_dim,
                Trans::Yes,
                1.0,
                z.as_mut_slice(),
            )
            .expect("lstm input-gate shapes agree");
            if t > 0 {
                gemm_slice(
                    1.0,
                    select_rows(&h[t], &reps).as_slice(),
                    ng,
                    hd,
                    Trans::No,
                    self.wh(),
                    4 * hd,
                    hd,
                    Trans::Yes,
                    1.0,
                    z.as_mut_slice(),
                )
                .expect("lstm hidden-gate shapes agree");
            }

            let c_prev = select_rows(&c[t], &reps);
            let mut c_new = Matrix::zeros(ng, hd);
            let mut tc_new = Matrix::zeros(ng, hd);
            let mut h_new = Matrix::zeros(ng, hd);
            for g in 0..ng {
                let zr = z.row_mut(g);
                for j in 0..hd {
                    zr[j] = sigmoid(zr[j]);
                    zr[hd + j] = sigmoid(zr[hd + j]);
                    zr[2 * hd + j] = zr[2 * hd + j].tanh();
                    zr[3 * hd + j] = sigmoid(zr[3 * hd + j]);
                }
                for j in 0..hd {
                    let cv = zr[hd + j] * c_prev[(g, j)] + zr[j] * zr[2 * hd + j];
                    let tc = cv.tanh();
                    c_new[(g, j)] = cv;
                    tc_new[(g, j)] = tc;
                    h_new[(g, j)] = zr[3 * hd + j] * tc;
                }
            }
            xs.push(x);
            gates.push(select_rows(&z, &group));
            c.push(select_rows(&c_new, &group));
            tanh_c.push(select_rows(&tc_new, &group));
            h.push(select_rows(&h_new, &group));
        }
        LstmBatchCache {
            xs,
            h,
            c,
            tanh_c,
            gates,
        }
    }

    /// Batched backpropagation through time from per-sample gradients on
    /// the final hidden states (`d_h_last`: batch × H). Accumulates
    /// parameter gradients; per time step the weight updates are two
    /// accumulating GEMMs (`dWx += dZᵀ·Xₜ`, `dWh += dZᵀ·Hₜ₋₁`) and the
    /// hidden-state gradient one more (`dHₜ₋₁ = dZ·Wh`). Step 0 runs
    /// neither of the last two. With `H₀ = 0`, `dZᵀ·H₀` adds only ±0 to
    /// gradients that start at +0 and so are never −0, and no step
    /// precedes step 0 to take a `dH₋₁`.
    ///
    /// The input gradients are not materialised (the DRQN topology has no
    /// layers below the LSTM); use [`LstmLayer::backward`] when ∂L/∂x is
    /// needed.
    ///
    /// # Panics
    ///
    /// Panics if `d_h_last` does not match the cache's batch × hidden
    /// shape.
    pub fn backward_batch(&mut self, cache: &LstmBatchCache, d_h_last: &Matrix) {
        let hd = self.hidden;
        let bsz = cache.batch();
        assert_eq!(d_h_last.shape(), (bsz, hd), "d_h_last shape");
        let wx_len = 4 * hd * self.in_dim;
        let wh_len = 4 * hd * hd;

        let mut dh = d_h_last.clone();
        let mut dc = Matrix::zeros(bsz, hd);
        let mut dz = Matrix::zeros(bsz, 4 * hd);

        for t in (0..cache.steps()).rev() {
            let gates = &cache.gates[t];
            for s in 0..bsz {
                let g = gates.row(s);
                let dzr = dz.row_mut(s);
                for j in 0..hd {
                    let (gi, gf, gg, go) = (g[j], g[hd + j], g[2 * hd + j], g[3 * hd + j]);
                    let tc = cache.tanh_c[t][(s, j)];
                    let do_ = dh[(s, j)] * tc;
                    let dc_j = dc[(s, j)] + dh[(s, j)] * go * (1.0 - tc * tc);
                    let di = dc_j * gg;
                    let dg = dc_j * gi;
                    let df = dc_j * cache.c[t][(s, j)];
                    dzr[j] = di * gi * (1.0 - gi);
                    dzr[hd + j] = df * gf * (1.0 - gf);
                    dzr[2 * hd + j] = dg * (1.0 - gg * gg);
                    dzr[3 * hd + j] = do_ * go * (1.0 - go);
                    dc[(s, j)] = dc_j * gf;
                }
            }

            let grads = &mut self.grads;
            let params = &self.params;
            gemm_slice(
                1.0,
                dz.as_slice(),
                bsz,
                4 * hd,
                Trans::Yes,
                cache.xs[t].as_slice(),
                bsz,
                self.in_dim,
                Trans::No,
                1.0,
                &mut grads[..wx_len],
            )
            .expect("lstm dWx shapes agree");
            for s in 0..bsz {
                for (g, &d) in grads[wx_len + wh_len..].iter_mut().zip(dz.row(s)) {
                    *g += d;
                }
            }
            if t == 0 {
                break;
            }
            gemm_slice(
                1.0,
                dz.as_slice(),
                bsz,
                4 * hd,
                Trans::Yes,
                cache.h[t].as_slice(),
                bsz,
                hd,
                Trans::No,
                1.0,
                &mut grads[wx_len..wx_len + wh_len],
            )
            .expect("lstm dWh shapes agree");
            gemm_slice(
                1.0,
                dz.as_slice(),
                bsz,
                4 * hd,
                Trans::No,
                &params[wx_len..wx_len + wh_len],
                4 * hd,
                hd,
                Trans::No,
                0.0,
                dh.as_mut_slice(),
            )
            .expect("lstm dh shapes agree");
        }
    }
}

/// Splits the groups in `group` (samples whose earlier rows agree bit for
/// bit) by the samples' rows of `x`, compared bitwise so that `0.0` and
/// `-0.0` stay apart. Returns each sample's new group and each new group's
/// first sample; groups are numbered in order of their first sample.
fn refine_groups(group: &[usize], x: &Matrix) -> (Vec<usize>, Vec<usize>) {
    let mut next = Vec::with_capacity(group.len());
    let mut reps: Vec<usize> = Vec::new();
    for (s, &g) in group.iter().enumerate() {
        let row = x.row(s);
        let same = |&r: &usize| {
            group[r] == g
                && x.row(r)
                    .iter()
                    .zip(row)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        };
        match reps.iter().position(same) {
            Some(k) => next.push(k),
            None => {
                next.push(reps.len());
                reps.push(s);
            }
        }
    }
    (next, reps)
}

/// Rows `rows[0], rows[1], …` of `m`, stacked.
fn select_rows(m: &Matrix, rows: &[usize]) -> Matrix {
    let mut data = Vec::with_capacity(rows.len() * m.cols());
    for &r in rows {
        data.extend_from_slice(m.row(r));
    }
    Matrix::from_vec(rows.len(), m.cols(), data).expect("rows share the matrix width")
}

impl Parameterized for LstmLayer {
    fn param_len(&self) -> usize {
        self.params.len()
    }

    fn params(&self) -> Vec<f64> {
        self.params.clone()
    }

    fn set_params(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.params.len(), "param length mismatch");
        self.params.copy_from_slice(params);
    }

    fn grads(&self) -> Vec<f64> {
        self.grads.clone()
    }

    fn zero_grads(&mut self) {
        for g in &mut self.grads {
            *g = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn lstm() -> LstmLayer {
        let mut rng = StdRng::seed_from_u64(21);
        LstmLayer::new(3, 4, &mut rng).unwrap()
    }

    fn seq() -> Matrix {
        Matrix::from_rows(&[
            vec![0.2, -0.4, 0.6],
            vec![-0.1, 0.3, 0.5],
            vec![0.7, 0.0, -0.3],
        ])
        .unwrap()
    }

    #[test]
    fn forward_shapes() {
        let l = lstm();
        let h = l.forward(&seq());
        assert_eq!(h.len(), 4);
        assert!(h.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn forward_cached_matches_forward() {
        let l = lstm();
        let cache = l.forward_cached(&seq());
        assert_eq!(cache.final_hidden(), l.forward(&seq()).as_slice());
        assert_eq!(cache.steps(), 3);
    }

    #[test]
    fn longer_history_changes_output() {
        let l = lstm();
        let s3 = seq();
        let s2 = s3.submatrix(1, 3, 0, 3);
        assert_ne!(l.forward(&s3), l.forward(&s2));
    }

    #[test]
    fn gradient_check_parameters() {
        // Loss = sum(h_T). Numerical vs analytic gradient for all params.
        let h_step = 1e-6;
        let mut l = lstm();
        let s = seq();
        let cache = l.forward_cached(&s);
        l.zero_grads();
        let d = vec![1.0; 4];
        let _ = l.backward(&cache, &d);
        let analytic = l.grads();
        let base = l.params();
        let loss = |l: &LstmLayer, s: &Matrix| l.forward(s).iter().sum::<f64>();
        for pi in 0..base.len() {
            let mut lp = l.clone();
            let mut pp = base.clone();
            pp[pi] += h_step;
            lp.set_params(&pp);
            let up = loss(&lp, &s);
            pp[pi] -= 2.0 * h_step;
            lp.set_params(&pp);
            let down = loss(&lp, &s);
            let num = (up - down) / (2.0 * h_step);
            assert!(
                (num - analytic[pi]).abs() < 1e-5,
                "param {pi}: numeric {num} vs analytic {}",
                analytic[pi]
            );
        }
    }

    #[test]
    fn gradient_check_inputs() {
        let h_step = 1e-6;
        let mut l = lstm();
        let s = seq();
        let cache = l.forward_cached(&s);
        l.zero_grads();
        let dx = l.backward(&cache, &[1.0; 4]);
        let loss = |l: &LstmLayer, s: &Matrix| l.forward(s).iter().sum::<f64>();
        for t in 0..s.rows() {
            for i in 0..s.cols() {
                let mut sp = s.clone();
                sp[(t, i)] += h_step;
                let up = loss(&l, &sp);
                sp[(t, i)] -= 2.0 * h_step;
                let down = loss(&l, &sp);
                let num = (up - down) / (2.0 * h_step);
                assert!(
                    (num - dx[(t, i)]).abs() < 1e-5,
                    "input ({t},{i}): numeric {num} vs analytic {}",
                    dx[(t, i)]
                );
            }
        }
    }

    #[test]
    fn forward_batch_matches_scalar_bitwise() {
        let l = lstm();
        let s1 = seq();
        let s2 = Matrix::from_fn(3, 3, |r, c| (r as f64 * 0.4 - c as f64 * 0.2).sin());
        let cache = l.forward_batch_cached(&[&s1, &s2]);
        assert_eq!(cache.steps(), 3);
        assert_eq!(cache.batch(), 2);
        assert_eq!(cache.final_hidden().row(0), l.forward(&s1).as_slice());
        assert_eq!(cache.final_hidden().row(1), l.forward(&s2).as_slice());
    }

    #[test]
    fn backward_batch_matches_sum_of_scalar_backwards() {
        let mut l = lstm();
        let s1 = seq();
        let s2 = Matrix::from_fn(3, 3, |r, c| ((r + 2 * c) as f64 * 0.3).cos() * 0.5);
        let d1 = [0.3, -0.7, 0.2, 1.1];
        let d2 = [-0.4, 0.6, 0.9, -0.1];

        l.zero_grads();
        let cache = l.forward_batch_cached(&[&s1, &s2]);
        let d = Matrix::from_rows(&[d1.to_vec(), d2.to_vec()]).unwrap();
        l.backward_batch(&cache, &d);
        let batched = l.grads();

        l.zero_grads();
        let c1 = l.forward_cached(&s1);
        let _ = l.backward(&c1, &d1);
        let c2 = l.forward_cached(&s2);
        let _ = l.backward(&c2, &d2);
        let scalar = l.grads();

        for (i, (b, s)) in batched.iter().zip(&scalar).enumerate() {
            assert!((b - s).abs() < 1e-12, "grad {i}: batched {b} vs scalar {s}");
        }
    }

    /// The batched forward without prefix sharing or the step-0 skip: a
    /// copy of the implementation the shared one replaced, kept as its
    /// oracle.
    fn forward_batch_unshared(l: &LstmLayer, seqs: &[&Matrix]) -> LstmBatchCache {
        let (steps, bsz, hd) = (seqs[0].rows(), seqs.len(), l.hidden);
        let mut h = vec![Matrix::zeros(bsz, hd)];
        let mut c = vec![Matrix::zeros(bsz, hd)];
        let mut tanh_c = Vec::new();
        let mut gates = Vec::new();
        let xs: Vec<Matrix> = (0..steps)
            .map(|t| Matrix::from_fn(bsz, l.in_dim, |s, i| seqs[s][(t, i)]))
            .collect();
        for t in 0..steps {
            let mut z = Matrix::zeros(bsz, 4 * hd);
            for s in 0..bsz {
                z.row_mut(s).copy_from_slice(l.b());
            }
            let (x, hp) = (xs[t].as_slice(), h[t].as_slice());
            gemm_slice(
                1.0,
                x,
                bsz,
                l.in_dim,
                Trans::No,
                l.wx(),
                4 * hd,
                l.in_dim,
                Trans::Yes,
                1.0,
                z.as_mut_slice(),
            )
            .unwrap();
            gemm_slice(
                1.0,
                hp,
                bsz,
                hd,
                Trans::No,
                l.wh(),
                4 * hd,
                hd,
                Trans::Yes,
                1.0,
                z.as_mut_slice(),
            )
            .unwrap();
            let mut c_new = Matrix::zeros(bsz, hd);
            let mut tc_new = Matrix::zeros(bsz, hd);
            let mut h_new = Matrix::zeros(bsz, hd);
            for s in 0..bsz {
                let zr = z.row_mut(s);
                for j in 0..hd {
                    zr[j] = sigmoid(zr[j]);
                    zr[hd + j] = sigmoid(zr[hd + j]);
                    zr[2 * hd + j] = zr[2 * hd + j].tanh();
                    zr[3 * hd + j] = sigmoid(zr[3 * hd + j]);
                }
                for j in 0..hd {
                    let cv = zr[hd + j] * c[t][(s, j)] + zr[j] * zr[2 * hd + j];
                    c_new[(s, j)] = cv;
                    tc_new[(s, j)] = cv.tanh();
                    h_new[(s, j)] = zr[3 * hd + j] * cv.tanh();
                }
            }
            gates.push(z);
            h.push(h_new);
            c.push(c_new);
            tanh_c.push(tc_new);
        }
        LstmBatchCache {
            xs,
            h,
            c,
            tanh_c,
            gates,
        }
    }

    /// The batched backward that recomputes `tanh(cₜ)` and runs every
    /// GEMM at step 0 too: the oracle of [`LstmLayer::backward_batch`].
    fn backward_batch_unshared(l: &mut LstmLayer, cache: &LstmBatchCache, d_h_last: &Matrix) {
        let (hd, bsz, ind) = (l.hidden, cache.batch(), l.in_dim);
        let (wx_len, wh_len) = (4 * hd * ind, 4 * hd * hd);
        let mut dh = d_h_last.clone();
        let mut dc = Matrix::zeros(bsz, hd);
        let mut dz = Matrix::zeros(bsz, 4 * hd);
        for t in (0..cache.steps()).rev() {
            for s in 0..bsz {
                let g = cache.gates[t].row(s);
                let dzr = dz.row_mut(s);
                for j in 0..hd {
                    let (gi, gf, gg, go) = (g[j], g[hd + j], g[2 * hd + j], g[3 * hd + j]);
                    let tc = cache.c[t + 1][(s, j)].tanh();
                    let do_ = dh[(s, j)] * tc;
                    let dc_j = dc[(s, j)] + dh[(s, j)] * go * (1.0 - tc * tc);
                    let (di, dg, df) = (dc_j * gg, dc_j * gi, dc_j * cache.c[t][(s, j)]);
                    dzr[j] = di * gi * (1.0 - gi);
                    dzr[hd + j] = df * gf * (1.0 - gf);
                    dzr[2 * hd + j] = dg * (1.0 - gg * gg);
                    dzr[3 * hd + j] = do_ * go * (1.0 - go);
                    dc[(s, j)] = dc_j * gf;
                }
            }
            let (grads, params, dzs) = (&mut l.grads, &l.params, dz.as_slice());
            let (x, hp) = (cache.xs[t].as_slice(), cache.h[t].as_slice());
            gemm_slice(
                1.0,
                dzs,
                bsz,
                4 * hd,
                Trans::Yes,
                x,
                bsz,
                ind,
                Trans::No,
                1.0,
                &mut grads[..wx_len],
            )
            .unwrap();
            gemm_slice(
                1.0,
                dzs,
                bsz,
                4 * hd,
                Trans::Yes,
                hp,
                bsz,
                hd,
                Trans::No,
                1.0,
                &mut grads[wx_len..wx_len + wh_len],
            )
            .unwrap();
            for s in 0..bsz {
                for (g, &d) in grads[wx_len + wh_len..].iter_mut().zip(dz.row(s)) {
                    *g += d;
                }
            }
            let wh = &params[wx_len..wx_len + wh_len];
            gemm_slice(
                1.0,
                dzs,
                bsz,
                4 * hd,
                Trans::No,
                wh,
                4 * hd,
                hd,
                Trans::No,
                0.0,
                dh.as_mut_slice(),
            )
            .unwrap();
        }
    }

    /// One input value: binary (`0`, `-0`, `1`) or a random real that is
    /// `±0` one time in four.
    fn input_value(binary: bool, rng: &mut StdRng) -> f64 {
        use rand::Rng;
        match (binary, rng.gen_range(0..8)) {
            (_, 0) => 0.0,
            (_, 1) => -0.0,
            (true, _) => 1.0,
            (false, _) => rng.gen_range(-1.0..1.0),
        }
    }

    /// A batch of `bsz` sequences (`steps × 3`) of one shape: 0 = copies
    /// of three parents, each redrawn from a random step on (so prefixes
    /// are shared to different depths); 1 = duplicates of two sequences;
    /// 2 = independent draws; 3 = independent draws of `±0` only, rows
    /// equal under `==` but not bitwise; 4 = a single sequence.
    fn batch_of(
        kind: usize,
        binary: bool,
        steps: usize,
        bsz: usize,
        rng: &mut StdRng,
    ) -> Vec<Matrix> {
        use rand::Rng;
        let fresh = |rng: &mut StdRng| Matrix::from_fn(steps, 3, |_, _| input_value(binary, rng));
        match kind {
            0 => {
                let parents: Vec<Matrix> = (0..3).map(|_| fresh(rng)).collect();
                (0..bsz)
                    .map(|_| {
                        let mut s = parents[rng.gen_range(0..3usize)].clone();
                        for t in rng.gen_range(0..steps + 1)..steps {
                            for i in 0..3 {
                                s[(t, i)] = input_value(binary, rng);
                            }
                        }
                        s
                    })
                    .collect()
            }
            1 => {
                let pool = [fresh(rng), fresh(rng)];
                (0..bsz)
                    .map(|_| pool[rng.gen_range(0..2usize)].clone())
                    .collect()
            }
            2 => (0..bsz).map(|_| fresh(rng)).collect(),
            3 => (0..bsz)
                .map(|_| Matrix::from_fn(steps, 3, |_, _| [0.0, -0.0][rng.gen_range(0..2usize)]))
                .collect(),
            _ => vec![fresh(rng)],
        }
    }

    /// Every value `cache` holds for sample `s`, as bits.
    fn sample_bits(cache: &LstmBatchCache, s: usize) -> Vec<u64> {
        let parts = [&cache.xs, &cache.h, &cache.c, &cache.tanh_c, &cache.gates];
        parts
            .iter()
            .flat_map(|ms| ms.iter())
            .flat_map(|m| m.row(s))
            .map(|v| v.to_bits())
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn shared_prefixes_reproduce_singleton_caches_bitwise(
            seed in 0u64..1 << 32,
            kind in 0usize..5,
            binary in proptest::prelude::any::<bool>(),
            steps in 1usize..5,
            bsz in 1usize..12,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut l = LstmLayer::new(3, 4, &mut rng).unwrap();
            if kind == 3 {
                // With −0 biases, a gate's sum stays −0 through inputs of
                // ±0, so there `0.0` and `-0.0` inputs give different bits.
                let mut p = l.params();
                let n = p.len();
                p[n - 16..].fill(-0.0);
                l.set_params(&p);
            }
            let seqs = batch_of(kind, binary, steps, bsz, &mut rng);
            let refs: Vec<&Matrix> = seqs.iter().collect();
            let cache = l.forward_batch_cached(&refs);
            proptest::prop_assert_eq!(cache.batch(), seqs.len());
            for (s, seq) in seqs.iter().enumerate() {
                let single = l.forward_batch_cached(&[seq]);
                proptest::prop_assert_eq!(sample_bits(&cache, s), sample_bits(&single, 0));
            }
        }
    }

    #[test]
    fn backward_batch_matches_the_unshared_pass_bitwise() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut l = LstmLayer::new(3, 5, &mut rng).unwrap();
        for case in 0..30 {
            let seqs = batch_of(case % 5, case % 10 < 5, 3, 10, &mut rng);
            let refs: Vec<&Matrix> = seqs.iter().collect();
            let d = Matrix::from_fn(seqs.len(), 5, |_, _| {
                rand::Rng::gen_range(&mut rng, -1.0..1.0)
            });

            l.zero_grads();
            let cache = l.forward_batch_cached(&refs);
            l.backward_batch(&cache, &d);
            let shared = l.grads();

            l.zero_grads();
            let oracle = forward_batch_unshared(&l, &refs);
            backward_batch_unshared(&mut l, &oracle, &d);
            for s in 0..seqs.len() {
                assert_eq!(
                    sample_bits(&cache, s),
                    sample_bits(&oracle, s),
                    "case {case}, sample {s}"
                );
            }
            let bits = |g: &[f64]| g.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&shared), bits(&l.grads()), "case {case}: gradients");
        }
    }

    #[test]
    #[should_panic(expected = "share one shape")]
    fn batch_rejects_mixed_lengths() {
        let l = lstm();
        let s1 = seq();
        let s2 = Matrix::zeros(2, 3);
        let _ = l.forward_batch_cached(&[&s1, &s2]);
    }

    #[test]
    fn param_count_formula() {
        let l = lstm();
        // 4H·in + 4H·H + 4H = 4·4·3 + 4·4·4 + 16 = 48 + 64 + 16.
        assert_eq!(l.param_len(), 128);
    }

    #[test]
    fn forget_bias_initialised_to_one() {
        let l = lstm();
        let b = l.b().to_vec();
        for j in 0..4 {
            assert_eq!(b[4 + j], 1.0, "forget bias");
            assert_eq!(b[j], 0.0, "input bias");
        }
    }

    #[test]
    fn zero_dims_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(LstmLayer::new(0, 4, &mut rng).is_err());
        assert!(LstmLayer::new(4, 0, &mut rng).is_err());
    }

    #[test]
    #[should_panic(expected = "non-empty sequence")]
    fn empty_sequence_panics() {
        lstm().forward(&Matrix::zeros(0, 3));
    }
}
