use serde::{Deserialize, Serialize};

/// Element-wise activation functions.
///
/// ```
/// use drcell_neural::Activation;
///
/// assert_eq!(Activation::Relu.apply(-2.0), 0.0);
/// assert_eq!(Activation::Relu.apply(3.0), 3.0);
/// assert_eq!(Activation::Identity.derivative(7.0), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// `f(x) = x` — used on Q-value output heads.
    Identity,
    /// Rectified linear unit `max(0, x)`.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid `1 / (1 + e^{-x})`.
    Sigmoid,
}

impl Activation {
    /// Applies the activation to a single value.
    pub fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Identity => x,
            // Deliberately not `x.max(0.0)`: Rust documents `max(-0.0,
            // 0.0)` as either-zero nondeterministic, while this branch is
            // pinned to +0.0 for -0.0 and NaN — exactly what the SIMD
            // `maxpd(x, 0)` lane produces, keeping backends bit-identical.
            Activation::Relu => {
                if x > 0.0 {
                    x
                } else {
                    0.0
                }
            }
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => sigmoid(x),
        }
    }

    /// Derivative with respect to the *pre-activation* input `x`.
    pub fn derivative(self, x: f64) -> f64 {
        match self {
            Activation::Identity => 1.0,
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            Activation::Sigmoid => {
                let s = sigmoid(x);
                s * (1.0 - s)
            }
        }
    }

    /// Applies the activation to a slice in place.
    pub fn apply_slice(self, xs: &mut [f64]) {
        for x in xs {
            *x = self.apply(*x);
        }
    }
}

/// Numerically stable logistic sigmoid: with `e = exp(−|x|)`, it is
/// `1 / (1 + e)` for `x ≥ 0` and `e / (1 + e)` otherwise. Only the
/// numerator depends on the sign, and selecting it gives the bits of the
/// two-branch form without a sign-dependent branch.
pub(crate) fn sigmoid(x: f64) -> f64 {
    let e = (-x.abs()).exp();
    let num = if x >= 0.0 { 1.0 } else { e };
    num / (1.0 + e)
}

#[cfg(test)]
mod tests {
    use super::*;

    const ACTS: [Activation; 4] = [
        Activation::Identity,
        Activation::Relu,
        Activation::Tanh,
        Activation::Sigmoid,
    ];

    #[test]
    fn known_values() {
        assert_eq!(Activation::Identity.apply(-3.5), -3.5);
        assert_eq!(Activation::Relu.apply(-1.0), 0.0);
        assert!((Activation::Tanh.apply(0.0)).abs() < 1e-12);
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn derivative_matches_finite_difference() {
        let h = 1e-6;
        for act in ACTS {
            for x in [-2.0, -0.5, 0.3, 1.7] {
                let num = (act.apply(x + h) - act.apply(x - h)) / (2.0 * h);
                let ana = act.derivative(x);
                assert!(
                    (num - ana).abs() < 1e-6,
                    "{act:?} at {x}: numeric {num} vs analytic {ana}"
                );
            }
        }
    }

    #[test]
    fn sigmoid_stable_for_extreme_inputs() {
        assert!(sigmoid(-800.0) >= 0.0);
        assert!(sigmoid(800.0) <= 1.0);
        assert!(sigmoid(-800.0).is_finite());
        assert!((sigmoid(800.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sigmoid_matches_the_two_branch_form_bitwise() {
        use rand::{Rng, SeedableRng};
        let branchy = |x: f64| {
            if x >= 0.0 {
                1.0 / (1.0 + (-x).exp())
            } else {
                let e = x.exp();
                e / (1.0 + e)
            }
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let sweep = (0..4096).map(|_| rng.gen_range(-40.0..40.0));
        let edges = [0.0, -0.0, 1e3, -1e3, 745.0, -745.0, 5e-324, -5e-324];
        for x in edges.into_iter().chain(sweep) {
            assert_eq!(sigmoid(x).to_bits(), branchy(x).to_bits(), "x = {x:e}");
        }
    }

    #[test]
    fn apply_slice_in_place() {
        let mut xs = [-1.0, 2.0];
        Activation::Relu.apply_slice(&mut xs);
        assert_eq!(xs, [0.0, 2.0]);
    }

    #[test]
    fn relu_derivative_at_zero_is_zero() {
        // Convention: subgradient 0 at the kink.
        assert_eq!(Activation::Relu.derivative(0.0), 0.0);
    }
}
