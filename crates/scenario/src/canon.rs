//! Canonicalisation of scenario specs — the stable form behind content
//! hashing.
//!
//! Two spec files that *mean* the same scenario must canonicalise to the
//! same bytes, whatever their surface syntax: TOML or JSON, fields in any
//! order, defaulted fields spelled out or omitted. The `drcell-store`
//! result cache keys every stored row stream by a content hash of this
//! form, so the canonicalisation rules are load-bearing — a spec that
//! canonicalises equal replays cached bytes instead of recomputing.
//!
//! The rules, in order:
//!
//! 1. **Typed round trip.** Canonicalisation starts from the typed
//!    [`ScenarioSpec`], not the raw parse tree. Loading a spec file goes
//!    through `ScenarioSpec::from_value`, which resolves every absent
//!    optional field to its default — so by the time a spec reaches
//!    canonical form, defaulted-vs-explicit and field order are already
//!    erased (map lookups are order-independent, serialisation emits
//!    struct order).
//! 2. **Execution-only fields are normalised out.** `runner.inner_threads`
//!    is parsed and ignored, so it never changes one byte of the result
//!    rows. It canonicalises to `null`, so older specs that still set it
//!    keep sharing one cache entry with specs that do not. A DR-Cell
//!    `hidden` width with `network = "Dense"` canonicalises to `null` the
//!    same way: the dense DQN's layers are fixed, so the width never
//!    reaches the run.
//! 3. **Map keys sort.** Every map in the tree is sorted by key. The typed
//!    serialiser already emits a fixed order, so this is defence in depth:
//!    the canonical bytes stay stable even if struct fields are reordered
//!    in a refactor (the hash then survives the refactor, keeping old disk
//!    caches valid).
//!
//! The canonical *bytes* are the compact JSON ([`crate::json::to_json`])
//! of the canonical value — deterministic by construction (no HashMap
//! iteration, no float formatting ambiguity: `f64::to_string` is
//! shortest-round-trip).

use serde::{Serialize, Value};

use crate::spec::ScenarioSpec;

/// Recursively sorts every map in the tree by key (stable sort; scenario
/// values never contain duplicate keys). Sequence order is semantic
/// (perturbation stacks apply in order) and is preserved.
fn sort_maps(value: &mut Value) {
    match value {
        Value::Map(entries) => {
            for (_, v) in entries.iter_mut() {
                sort_maps(v);
            }
            entries.sort_by(|(a, _), (b, _)| a.cmp(b));
        }
        Value::Seq(items) => {
            for v in items.iter_mut() {
                sort_maps(v);
            }
        }
        _ => {}
    }
}

/// Normalises the execution-only runner fields: `runner.inner_threads`
/// (ignored) becomes `null` and `runner.compute` (the compute backend)
/// becomes `"auto"`. Neither changes the emitted bytes, so the same
/// scenario run scalar or SIMD, with or without the old field, shares one
/// cache entry.
fn erase_execution_fields(value: &mut Value) {
    if let Value::Map(entries) = value {
        if let Some((_, Value::Map(runner_entries))) =
            entries.iter_mut().find(|(k, _)| k == "runner")
        {
            for (k, v) in runner_entries.iter_mut() {
                if k == "inner_threads" {
                    *v = Value::Null;
                } else if k == "compute" {
                    *v = Value::Str("auto".to_owned());
                }
            }
        }
    }
}

/// Normalises a DR-Cell policy's `hidden` to `null` when its network is
/// `Dense`, which ignores the width, so dense specs that differ only there
/// share one cache entry.
fn erase_unused_policy_fields(value: &mut Value) {
    let Value::Map(entries) = value else {
        return;
    };
    let Some((_, Value::Map(policy))) = entries.iter_mut().find(|(k, _)| k == "policy") else {
        return;
    };
    for (variant, fields) in policy.iter_mut() {
        let (true, Value::Map(fields)) = (variant == "DrCell", fields) else {
            continue;
        };
        let dense = fields
            .iter()
            .any(|(k, v)| k == "network" && matches!(v, Value::Str(n) if n == "Dense"));
        if dense {
            for (k, v) in fields.iter_mut() {
                if k == "hidden" {
                    *v = Value::Null;
                }
            }
        }
    }
}

impl ScenarioSpec {
    /// The canonical value tree of this spec: defaulted fields
    /// materialised, execution-only fields normalised out, map keys
    /// sorted. Two specs with equal canonical values produce byte-identical
    /// result rows (at equal matrix indices).
    pub fn canonical_value(&self) -> Value {
        let mut v = self.to_value();
        erase_execution_fields(&mut v);
        erase_unused_policy_fields(&mut v);
        sort_maps(&mut v);
        v
    }

    /// The canonical bytes of this spec: compact JSON of
    /// [`ScenarioSpec::canonical_value`]. This is the exact content the
    /// `drcell-store` cache key hashes.
    pub fn canonical_json(&self) -> String {
        crate::json::to_json(&self.canonical_value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    #[test]
    fn canonical_json_is_deterministic_and_map_sorted() {
        let spec = registry::find("synthetic-smooth").expect("built-in");
        let a = spec.canonical_json();
        let b = spec.canonical_json();
        assert_eq!(a, b);
        // Top-level keys of the canonical form are sorted.
        let Value::Map(entries) = spec.canonical_value() else {
            panic!("spec canonicalises to a map");
        };
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn inner_threads_is_erased() {
        let mut a = registry::find("synthetic-smooth").expect("built-in");
        let mut b = a.clone();
        a.runner.inner_threads = None;
        b.runner.inner_threads = Some(4);
        assert_eq!(a.canonical_json(), b.canonical_json());
        // But it still round-trips through the ordinary (non-canonical)
        // serde path.
        let v = b.to_value();
        let back = <ScenarioSpec as serde::Deserialize>::from_value(&v).unwrap();
        assert_eq!(back.runner.inner_threads, Some(4));
    }

    #[test]
    fn compute_backend_is_erased() {
        use drcell_core::BackendChoice;
        let mut a = registry::find("synthetic-smooth").expect("built-in");
        let mut b = a.clone();
        a.runner.compute = BackendChoice::Scalar;
        b.runner.compute = BackendChoice::Simd;
        assert_eq!(
            a.canonical_json(),
            b.canonical_json(),
            "backend choice must not change the cache key"
        );
        // The ordinary serde path still round-trips the field.
        let v = b.to_value();
        let back = <ScenarioSpec as serde::Deserialize>::from_value(&v).unwrap();
        assert_eq!(back.runner.compute, BackendChoice::Simd);
    }

    #[test]
    fn semantic_fields_change_the_canonical_bytes() {
        let base = registry::find("synthetic-smooth").expect("built-in");
        let canon = base.canonical_json();
        let mut seed = base.clone();
        seed.seed += 1;
        assert_ne!(seed.canonical_json(), canon);
        let mut eps = base.clone();
        eps.quality.epsilon += 0.001;
        assert_ne!(eps.canonical_json(), canon);
        let mut name = base.clone();
        name.name.push('x');
        assert_ne!(name.canonical_json(), canon);
    }
}
