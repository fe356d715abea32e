//! Compute backends: runtime-detected SIMD kernels behind a
//! process-wide selection, with the scalar loops kept as the bit-exact
//! oracle.
//!
//! # Model
//!
//! Every hot kernel in the workspace (the packed GEMM micro-kernel, the
//! ALS gram/right-hand-side accumulation and rank-1/rank-2 downdates, the
//! dense-layer activation fusion) exists in two implementations:
//!
//! * **scalar** — the original loops, unchanged, the oracle;
//! * **simd** — explicit `std::arch` x86-64 tiles (AVX-512 or AVX2,
//!   picked by runtime `is_x86_feature_detected!`), written so every
//!   output element sees *exactly the same sequence of IEEE-754
//!   operations* as the scalar loop: lanes run across independent output
//!   elements, every product is a separate multiply followed by a
//!   separate add in the same `k` order, and no FMA contraction is ever
//!   used.
//!
//! That discipline makes the SIMD kernels **bitwise identical** to the
//! scalar kernels on all inputs, with one documented exception: when an
//! operation produces a NaN (`0·∞`, `∞·0`, NaN propagation), the NaN
//! *payload bits* are unspecified — exactly as they already are between
//! rustc's compile-time constant folding and the machine instruction —
//! so NaN outputs are compared by class, not by bit pattern. Finite
//! values, zeros (including signs) and infinities are bit-exact. Emitted
//! result rows therefore never depend on the backend, cache keys stay
//! backend-independent, and a backend switch is purely an execution
//! detail (ARCHITECTURE.md invariant 8).
//!
//! # Selection
//!
//! The active backend is a process-wide setting resolved in precedence
//! order: an explicit [`select`] call (CLI `--backend`, spec field) >
//! the `DRCELL_BACKEND` environment variable (`scalar`/`simd`/`auto`) >
//! auto-detection. Requesting `simd` on a host without AVX2 falls back
//! to scalar with a loud stderr note — results are identical either way,
//! only speed differs. Entry points log [`startup_line`] so CI can
//! assert which backend actually ran.
//!
//! ```
//! use drcell_linalg::backend::{self, BackendChoice};
//!
//! let kind = backend::select(BackendChoice::Auto);
//! assert_eq!(kind, backend::active_kind());
//! eprintln!("{}", backend::startup_line());
//! ```

use std::sync::atomic::{AtomicU8, Ordering};

/// Which kernel implementation set is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The original scalar loops — the bit-exact oracle.
    Scalar,
    /// Explicit `std::arch` SIMD tiles (AVX-512 where available, else
    /// AVX2), bitwise-identical to the scalar kernels.
    Simd,
}

impl BackendKind {
    /// Stable lowercase name (`"scalar"` / `"simd"`).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
            BackendKind::Simd => "simd",
        }
    }
}

/// A backend *request*, as it appears in specs, CLI flags and
/// `DRCELL_BACKEND`: resolved to a [`BackendKind`] by [`select`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// Defer to `DRCELL_BACKEND`, then hardware detection (the default).
    #[default]
    Auto,
    /// Force the scalar oracle kernels.
    Scalar,
    /// Request the SIMD kernels (falls back to scalar, loudly, when the
    /// host has no AVX2).
    Simd,
}

impl BackendChoice {
    /// Parses `"auto"` / `"scalar"` / `"simd"` (case-sensitive, the
    /// spelling specs and `DRCELL_BACKEND` use).
    pub fn parse(s: &str) -> Option<BackendChoice> {
        match s {
            "auto" => Some(BackendChoice::Auto),
            "scalar" => Some(BackendChoice::Scalar),
            "simd" => Some(BackendChoice::Simd),
            _ => None,
        }
    }

    /// The canonical spelling accepted by [`BackendChoice::parse`].
    pub fn as_str(self) -> &'static str {
        match self {
            BackendChoice::Auto => "auto",
            BackendChoice::Scalar => "scalar",
            BackendChoice::Simd => "simd",
        }
    }
}

impl serde::Serialize for BackendChoice {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.as_str().to_owned())
    }
}

impl serde::Deserialize for BackendChoice {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        match value {
            serde::Value::Str(s) => BackendChoice::parse(s).ok_or_else(|| {
                serde::Error::expected("\"auto\", \"scalar\" or \"simd\" for BackendChoice", value)
            }),
            other => Err(serde::Error::expected(
                "\"auto\", \"scalar\" or \"simd\" for BackendChoice",
                other,
            )),
        }
    }

    // Specs written before the compute backend existed keep parsing: an
    // absent field means auto-detection, exactly what those specs got.
    fn absent(_field: &str) -> Result<Self, serde::Error> {
        Ok(BackendChoice::default())
    }
}

/// `0` = unresolved, `1` = scalar, `2` = simd.
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// The SIMD instruction tier the host supports, if any. AVX2 is the
/// floor for the SIMD backend; AVX-512F upgrades the GEMM micro-kernel
/// to an 8×16 tile.
pub fn simd_tier() -> Option<&'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx2") {
            return Some("avx512f");
        }
        if is_x86_feature_detected!("avx2") {
            return Some("avx2");
        }
        None
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        None
    }
}

/// Whether the SIMD backend can run on this host.
pub fn simd_available() -> bool {
    simd_tier().is_some()
}

fn env_choice() -> BackendChoice {
    match std::env::var("DRCELL_BACKEND") {
        Ok(v) => BackendChoice::parse(&v).unwrap_or_else(|| {
            eprintln!("warning: DRCELL_BACKEND=`{v}` is not one of auto|scalar|simd; using auto");
            BackendChoice::Auto
        }),
        Err(_) => BackendChoice::Auto,
    }
}

fn resolve_simd() -> BackendKind {
    if simd_available() {
        BackendKind::Simd
    } else {
        eprintln!(
            "warning: simd backend requested but this host has no AVX2; \
             falling back to the scalar backend (results are identical)"
        );
        BackendKind::Scalar
    }
}

/// Resolves `choice` and installs it as the process-wide active backend.
///
/// `Auto` defers to `DRCELL_BACKEND`, then to hardware detection (SIMD
/// when AVX2 is present). An explicit `Scalar`/`Simd` — a CLI flag or a
/// spec field — overrides the environment. The setting is process-global
/// because the kernels are bitwise backend-independent: switching can
/// never change results, only throughput, so the last selection simply
/// wins (tests flip it freely to compare backends in one process).
pub fn select(choice: BackendChoice) -> BackendKind {
    let kind = match choice {
        BackendChoice::Auto => match env_choice() {
            BackendChoice::Scalar => BackendKind::Scalar,
            BackendChoice::Simd => resolve_simd(),
            BackendChoice::Auto => {
                if simd_available() {
                    BackendKind::Simd
                } else {
                    BackendKind::Scalar
                }
            }
        },
        BackendChoice::Scalar => BackendKind::Scalar,
        BackendChoice::Simd => resolve_simd(),
    };
    ACTIVE.store(
        match kind {
            BackendKind::Scalar => 1,
            BackendKind::Simd => 2,
        },
        Ordering::Relaxed,
    );
    kind
}

/// The active backend kind, resolving `DRCELL_BACKEND`/detection on
/// first use so library callers that never call [`select`] still honour
/// the environment.
pub fn active_kind() -> BackendKind {
    match ACTIVE.load(Ordering::Relaxed) {
        1 => BackendKind::Scalar,
        2 => BackendKind::Simd,
        _ => select(BackendChoice::Auto),
    }
}

/// The one-line startup record every entry point logs (and CI asserts):
/// which backend is active and why.
pub fn startup_line() -> String {
    let kind = active_kind();
    let detail = match (kind, simd_tier()) {
        (BackendKind::Simd, Some("avx512f")) => "avx512f, 8x16 gemm tile".to_owned(),
        (BackendKind::Simd, Some(tier)) => format!("{tier}, 8x8 gemm tile"),
        (BackendKind::Simd, None) => "unreachable".to_owned(),
        (BackendKind::Scalar, Some(tier)) => {
            format!("{tier} available but scalar selected")
        }
        (BackendKind::Scalar, None) => "no avx2 on this host".to_owned(),
    };
    format!("compute backend: {} ({detail})", kind.name())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choice_parse_roundtrip() {
        for c in [
            BackendChoice::Auto,
            BackendChoice::Scalar,
            BackendChoice::Simd,
        ] {
            assert_eq!(BackendChoice::parse(c.as_str()), Some(c));
        }
        assert_eq!(BackendChoice::parse("blas"), None);
        assert_eq!(BackendChoice::parse("SIMD"), None, "case-sensitive");
    }

    #[test]
    fn select_scalar_always_wins() {
        let prev = active_kind();
        assert_eq!(select(BackendChoice::Scalar), BackendKind::Scalar);
        assert_eq!(active_kind(), BackendKind::Scalar);
        assert!(startup_line().contains("compute backend: scalar"));
        select(match prev {
            BackendKind::Scalar => BackendChoice::Scalar,
            BackendKind::Simd => BackendChoice::Simd,
        });
    }

    #[test]
    fn simd_request_resolves_to_available_tier_or_scalar() {
        let prev = active_kind();
        let got = select(BackendChoice::Simd);
        if simd_available() {
            assert_eq!(got, BackendKind::Simd);
            assert!(startup_line().contains("compute backend: simd"));
        } else {
            assert_eq!(got, BackendKind::Scalar, "must fall back without AVX2");
        }
        select(match prev {
            BackendKind::Scalar => BackendChoice::Scalar,
            BackendKind::Simd => BackendChoice::Simd,
        });
    }
}
