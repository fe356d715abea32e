//! First-order stochastic optimizers.
//!
//! Optimizers operate on flat parameter/gradient vectors — the layout
//! produced by [`crate::Parameterized`] — and keep their own per-parameter
//! state (Adam's moment estimates) sized on first use.

/// A first-order optimizer updating a flat parameter vector in place.
pub trait Optimizer: Send {
    /// Applies one update step: mutates `params` using `grads`.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != grads.len()` or the length changes between
    /// calls.
    fn step(&mut self, params: &mut [f64], grads: &[f64]);
}

/// Plain stochastic gradient descent: `p -= lr · g`.
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f64,
}

impl Sgd {
    /// Plain SGD with learning rate `lr`.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Sgd { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        for (p, g) in params.iter_mut().zip(grads) {
            *p -= self.lr * g;
        }
    }
}

/// Adam (Kingma & Ba 2015) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<f64>,
    v: Vec<f64>,
}

impl Adam {
    /// Adam with the standard β₁ = 0.9, β₂ = 0.999.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        if self.m.is_empty() {
            self.m = vec![0.0; params.len()];
            self.v = vec![0.0; params.len()];
        }
        assert_eq!(self.m.len(), params.len(), "state length changed");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        // Iterator form (no bounds checks) so the loop auto-vectorises;
        // the arithmetic is unchanged term for term.
        for (((p, &g), m), v) in params
            .iter_mut()
            .zip(grads)
            .zip(&mut self.m)
            .zip(&mut self.v)
        {
            *m = self.beta1 * *m + (1.0 - self.beta1) * g;
            *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
            let m_hat = *m / bc1;
            let v_hat = *v / bc2;
            *p -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All optimizers must make progress on the convex quadratic x² + y².
    fn minimises_quadratic(opt: &mut dyn Optimizer) {
        let mut params = vec![3.0, -4.0];
        for _ in 0..500 {
            let grads: Vec<f64> = params.iter().map(|p| 2.0 * p).collect();
            opt.step(&mut params, &grads);
        }
        let norm: f64 = params.iter().map(|p| p * p).sum::<f64>().sqrt();
        assert!(norm < 0.1, "did not converge: params = {params:?}");
    }

    #[test]
    fn sgd_minimises() {
        minimises_quadratic(&mut Sgd::new(0.05));
    }

    #[test]
    fn adam_minimises() {
        minimises_quadratic(&mut Adam::new(0.1));
    }

    #[test]
    fn sgd_step_is_exact() {
        let mut opt = Sgd::new(0.1);
        let mut p = vec![1.0];
        opt.step(&mut p, &[2.0]);
        assert!((p[0] - 0.8).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_grads_panic() {
        Sgd::new(0.1).step(&mut [1.0, 2.0], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "state length changed")]
    fn changing_length_between_steps_panics() {
        let mut opt = Adam::new(0.1);
        let mut p = vec![1.0, 2.0];
        opt.step(&mut p, &[0.1, 0.1]);
        let mut q = vec![1.0];
        opt.step(&mut q, &[0.1]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn invalid_lr_rejected() {
        Sgd::new(0.0);
    }
}
