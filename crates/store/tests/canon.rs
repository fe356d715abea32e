//! Properties of the cache key's canonicalisation: surface syntax must
//! never split a cache entry, semantics must never share one.
//!
//! The result cache replays stored bytes for any spec whose canonical
//! form hashes equal, so these properties are the soundness argument of
//! the whole store: *equal key ⇒ equal result bytes* holds only if keys
//! ignore exactly the non-semantic degrees of freedom of a spec file
//! (field order, defaulted-vs-explicit, TOML-vs-JSON) and nothing else.

use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};

use drcell_datasets::{FieldConfig, PerturbationStack};
use drcell_scenario::{
    json, toml_cfg, DatasetSpec, NetworkKind, PolicySpec, QualitySpec, RunnerSpec, ScenarioSpec,
};
use drcell_store::scenario_key;

/// The cheap reference spec the properties perturb (mirrors the scenario
/// crate's own property-test base).
fn tiny_base(seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: "prop".to_owned(),
        seed,
        dataset: DatasetSpec::Synthetic {
            grid_rows: 3,
            grid_cols: 3,
            cell_w: 40.0,
            cell_h: 40.0,
            cycles: 32,
            mean: 8.0,
            std: 1.5,
            field: FieldConfig {
                cycles_per_day: 16,
                noise_std: 0.05,
                ..FieldConfig::default()
            },
        },
        perturbations: PerturbationStack::none(),
        policy: PolicySpec::Random,
        quality: QualitySpec {
            epsilon: 0.5,
            p: 0.9,
        },
        runner: RunnerSpec {
            window: 8,
            ..RunnerSpec::default()
        },
        train_cycles: 20,
    }
}

/// Recursively reverses the entry order of every map in the tree — the
/// adversarial field ordering a hand-edited spec file could produce.
fn reverse_maps(value: &mut Value) {
    match value {
        Value::Map(entries) => {
            entries.reverse();
            for (_, v) in entries.iter_mut() {
                reverse_maps(v);
            }
        }
        Value::Seq(items) => {
            for v in items.iter_mut() {
                reverse_maps(v);
            }
        }
        _ => {}
    }
}

/// Recursively drops every `null` map entry — the "omit defaulted
/// optional fields" spelling of the same spec (`max_selections`,
/// `inner_threads`, … serialise as `null` and deserialise absent to
/// `None`).
fn strip_nulls(value: &mut Value) {
    match value {
        Value::Map(entries) => {
            entries.retain(|(_, v)| !matches!(v, Value::Null));
            for (_, v) in entries.iter_mut() {
                strip_nulls(v);
            }
        }
        Value::Seq(items) => {
            for v in items.iter_mut() {
                strip_nulls(v);
            }
        }
        _ => {}
    }
}

/// The same scenario as `tiny_base(seed)` (with the given ε), spelled as
/// a TOML file that *omits* every defaulted optional field (`backend`,
/// `max_selections`, `inner_threads`) and orders sections its own way.
fn toml_spelling(seed: u64, epsilon: f64) -> String {
    format!(
        r#"
train_cycles = 20
name = "prop"
policy = "Random"
seed = {seed}
perturbations = {{ layers = [] }}
runner = {{ window = 8, min_selections = 2, assess_every = 1 }}
quality = {{ epsilon = {epsilon}, p = 0.9 }}

[dataset.Synthetic]
grid_rows = 3
grid_cols = 3
cell_w = 40.0
cell_h = 40.0
cycles = 32
mean = 8.0
std = 1.5
field = {{ anchors = 6, length_scale = 120.0, ar_coeff = 0.95, spatial_std = 1.0, diurnal_amplitude = 1.0, semidiurnal_amplitude = 0.3, cycles_per_day = 16, noise_std = 0.05 }}
"#
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Field order is surface syntax: reversing every map in the parse
    /// tree round-trips to the same typed spec and the same key.
    #[test]
    fn field_reordering_preserves_the_key(seed in any::<u64>(), index in 0usize..4) {
        let spec = tiny_base(seed);
        let mut scrambled = spec.to_value();
        reverse_maps(&mut scrambled);
        let reparsed = ScenarioSpec::from_value(&scrambled).expect("reordered spec parses");
        prop_assert_eq!(reparsed.clone(), spec.clone());
        prop_assert_eq!(scenario_key(&reparsed, index), scenario_key(&spec, index));
    }

    /// Omitting a defaulted optional field and spelling it `null`
    /// explicitly are the same spec — and hash identically.
    #[test]
    fn defaulted_and_explicit_spellings_share_a_key(seed in any::<u64>()) {
        let explicit = tiny_base(seed);
        // `to_value` spells every `None` as an explicit `null`.
        let mut omitted = explicit.to_value();
        strip_nulls(&mut omitted);
        let reparsed = ScenarioSpec::from_value(&omitted).expect("spec without nulls parses");
        prop_assert_eq!(reparsed.clone(), explicit.clone());
        prop_assert_eq!(scenario_key(&reparsed, 0), scenario_key(&explicit, 0));
    }

    /// `inner_threads` is parsed and ignored (a scenario is
    /// single-threaded), so it never changes the result bytes and must
    /// not split the cache entry.
    #[test]
    fn execution_sizing_never_splits_an_entry(seed in any::<u64>(), threads in 1usize..9) {
        let base = tiny_base(seed);
        let mut sized = base.clone();
        sized.runner.inner_threads = Some(threads);
        prop_assert_eq!(scenario_key(&sized, 0), scenario_key(&base, 0));
    }

    /// A spec written as TOML and the same spec written as JSON converge
    /// to one canonical form and one key.
    #[test]
    fn toml_and_json_spellings_share_a_key(seed in any::<u64>(), eps_step in 0u32..8) {
        let epsilon = 0.25 + 0.05 * f64::from(eps_step);
        let mut typed = tiny_base(seed);
        typed.quality.epsilon = epsilon;

        let toml_value = toml_cfg::parse_toml(&toml_spelling(seed, epsilon)).expect("toml parses");
        let from_toml = ScenarioSpec::from_value(&toml_value).expect("toml spec deserialises");

        let json_text = json::to_json(&typed.to_value());
        let json_value = json::parse_json(&json_text).expect("json parses");
        let from_json = ScenarioSpec::from_value(&json_value).expect("json spec deserialises");

        prop_assert_eq!(from_toml.canonical_json(), from_json.canonical_json());
        prop_assert_eq!(
            scenario_key(&from_toml, 0),
            scenario_key(&from_json, 0)
        );
        prop_assert_eq!(scenario_key(&from_json, 0), scenario_key(&typed, 0));
    }

    /// Every semantic change — seed, quality bound, dataset size, policy,
    /// training budget, matrix index — changes the key. (Collision
    /// resistance of SHA-256 turns "canonical bytes differ" into "keys
    /// differ".)
    #[test]
    fn semantic_changes_change_the_key(seed in any::<u64>()) {
        let base = tiny_base(seed);
        let key = scenario_key(&base, 0);

        let mut reseeded = base.clone();
        reseeded.seed = seed.wrapping_add(1);
        prop_assert_ne!(scenario_key(&reseeded, 0), key.clone());

        let mut tighter = base.clone();
        tighter.quality.epsilon += 0.01;
        prop_assert_ne!(scenario_key(&tighter, 0), key.clone());

        let mut longer = base.clone();
        if let DatasetSpec::Synthetic { cycles, .. } = &mut longer.dataset {
            *cycles += 1;
        }
        prop_assert_ne!(scenario_key(&longer, 0), key.clone());

        let mut repoliced = base.clone();
        repoliced.policy = PolicySpec::Qbc;
        prop_assert_ne!(scenario_key(&repoliced, 0), key.clone());

        let mut retrained = base.clone();
        retrained.train_cycles += 1;
        prop_assert_ne!(scenario_key(&retrained, 0), key.clone());

        prop_assert_ne!(scenario_key(&base, 1), key);
    }

    #[test]
    fn dense_hidden_never_splits_an_entry(
        seed in any::<u64>(),
        a in 1usize..1024,
        step in 1usize..1024,
    ) {
        let b = a + step;
        let with = |network, hidden| {
            let mut spec = tiny_base(seed);
            spec.policy = PolicySpec::DrCell {
                episodes: 2,
                hidden,
                history_k: 3,
                network,
                reward_bonus: None,
                cost: 1.0,
            };
            scenario_key(&spec, 0)
        };
        // The dense DQN ignores `hidden`, so its key must too; the DRQN's
        // LSTM width is semantic.
        prop_assert_eq!(with(NetworkKind::Dense, a), with(NetworkKind::Dense, b));
        prop_assert_ne!(with(NetworkKind::Drqn, a), with(NetworkKind::Drqn, b));
        prop_assert_ne!(with(NetworkKind::Dense, a), with(NetworkKind::Drqn, a));
    }
}
