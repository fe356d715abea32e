//! Special functions: log-gamma, log-beta and the regularised incomplete
//! beta function.
//!
//! Implementations follow the classic Numerical-Recipes-style series /
//! continued-fraction evaluations, accurate to ~1e-10 over the parameter
//! ranges exercised by this workspace (small counts, probabilities).

/// Natural log of the gamma function, `ln Γ(x)` for `x > 0`
/// (Lanczos approximation, g = 7, n = 9; ~15 significant digits).
///
/// # Panics
///
/// Panics if `x <= 0`.
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.5203681218851,
        -1259.1392167224028,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507343278686905,
        -0.13857109526572012,
        9.984_369_578_019_572e-6,
        1.5056327351493116e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Natural log of the beta function `ln B(a, b)`.
///
/// # Panics
///
/// Panics if `a <= 0` or `b <= 0`.
pub fn ln_beta(a: f64, b: f64) -> f64 {
    ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)
}

const MAX_ITER: usize = 300;
const EPS: f64 = 3e-14;

/// Regularised incomplete beta function `I_x(a, b)`.
///
/// # Panics
///
/// Panics if `a <= 0`, `b <= 0`, or `x ∉ [0, 1]`.
///
/// ```
/// // I_x(1, 1) is the identity on [0, 1].
/// assert!((drcell_stats::special::beta_inc(1.0, 1.0, 0.3) - 0.3).abs() < 1e-10);
/// ```
pub fn beta_inc(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "beta_inc requires a, b > 0");
    assert!((0.0..=1.0).contains(&x), "beta_inc requires x in [0, 1]");
    if x == 0.0 {
        return 0.0;
    }
    if x == 1.0 {
        return 1.0;
    }
    let ln_front = a * x.ln() + b * (1.0 - x).ln() - ln_beta(a, b);
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_cf(a, b, x) / a
    } else {
        1.0 - ln_front_swap(a, b, x).exp() * beta_cf(b, a, 1.0 - x) / b
    }
}

fn ln_front_swap(a: f64, b: f64, x: f64) -> f64 {
    b * (1.0 - x).ln() + a * x.ln() - ln_beta(b, a)
}

/// Lentz continued fraction for the incomplete beta function.
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < 1e-300 {
        d = 1e-300;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        // Even step.
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < 1e-300 {
            d = 1e-300;
        }
        c = 1.0 + aa / c;
        if c.abs() < 1e-300 {
            c = 1e-300;
        }
        d = 1.0 / d;
        h *= d * c;
        // Odd step.
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < 1e-300 {
            d = 1e-300;
        }
        c = 1.0 + aa / c;
        if c.abs() < 1e-300 {
            c = 1e-300;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_factorials() {
        // Γ(n) = (n-1)!
        let facts = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0];
        for (n, &f) in facts.iter().enumerate() {
            let lg = ln_gamma((n + 1) as f64);
            assert!((lg - f64::ln(f)).abs() < 1e-10, "Γ({})", n + 1);
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = √π.
        assert!((ln_gamma(0.5) - 0.5 * std::f64::consts::PI.ln()).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "x > 0")]
    fn ln_gamma_rejects_nonpositive() {
        ln_gamma(0.0);
    }

    #[test]
    fn beta_inc_uniform_case() {
        for x in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert!((beta_inc(1.0, 1.0, x) - x).abs() < 1e-10);
        }
    }

    #[test]
    fn beta_inc_symmetry() {
        // I_x(a, b) = 1 - I_{1-x}(b, a).
        for (a, b, x) in [(2.0, 3.0, 0.4), (0.5, 0.5, 0.7), (5.0, 1.0, 0.2)] {
            let lhs = beta_inc(a, b, x);
            let rhs = 1.0 - beta_inc(b, a, 1.0 - x);
            assert!((lhs - rhs).abs() < 1e-9, "a={a} b={b} x={x}");
        }
    }

    #[test]
    fn beta_inc_known_value() {
        // I_{0.5}(2, 2) = 0.5 by symmetry.
        assert!((beta_inc(2.0, 2.0, 0.5) - 0.5).abs() < 1e-10);
        // I_x(1, 2) = 1 - (1-x)^2.
        let x: f64 = 0.3;
        assert!((beta_inc(1.0, 2.0, x) - (1.0 - (1.0 - x) * (1.0 - x))).abs() < 1e-10);
    }

    #[test]
    fn beta_inc_monotone_in_x() {
        let mut prev = 0.0;
        for i in 0..=20 {
            let v = beta_inc(3.0, 2.0, i as f64 / 20.0);
            assert!(v >= prev - 1e-12);
            prev = v;
        }
    }

    #[test]
    fn ln_beta_matches_gamma_identity() {
        // B(a,b) = Γ(a)Γ(b)/Γ(a+b); check against direct small-integer values.
        // B(2,3) = 1/12.
        assert!((ln_beta(2.0, 3.0) - (1.0f64 / 12.0).ln()).abs() < 1e-10);
    }
}
