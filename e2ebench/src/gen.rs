//! Workload inputs, all derived from the run's `--seed`.
//!
//! The program under test only ever sees the specs built here: the same
//! seed gives the same paper-scale scenarios, the same sweep matrix and
//! the same served job script.

use drcell_datasets::PerturbationStack;
use drcell_scenario::{
    registry, stream_seed, DatasetSpec, PolicySpec, QualitySpec, RunnerSpec, ScenarioSpec,
    SweepSpec,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Cold 57-cell scenarios per paper57 pass. A scenario's training and
/// evaluation time vary by about a quarter between seeds (the trained
/// policy decides how many cells each cycle senses); ten scenarios per
/// pass keep a run's figures steady while one pass still fits the run.
pub const PAPER57_SCENARIOS: usize = 10;
/// Seeds on the sweep's seed axis (× 2 policies × 2 ε = 16 scenarios).
pub const SWEEP_SEEDS: usize = 4;
/// Distinct specs the served script repeats warm.
pub const SERVE_WARM_SPECS: usize = 12;
/// Jobs per block of a client's script: half cold, half warm, in
/// seed-shuffled order, so every batch of blocks has the same mix.
pub const SERVE_BLOCK: usize = 24;

// Stream tags for the derivations below.
const TAG_PAPER57: u64 = 0x5037;
const TAG_SWEEP: u64 = 0x5357;
const TAG_WARM: u64 = 0x5741;
const TAG_COLD: u64 = 0x434f;
const TAG_CLIENT: u64 = 0x434c;

/// The paper-scale scenario: SensorScope temperature on 57 cells of a
/// 10 × 10 grid, DR-Cell DRQN (3 episodes, hidden 16, k = 3), ε = 0.3,
/// p = 0.9, window 12, auto inner threads. 12 training cycles and 4
/// testing cycles make one cold run take about 2.3 s on two cores.
pub fn paper57_spec(seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: format!("paper57/s{seed}"),
        seed,
        dataset: DatasetSpec::SensorScopeTemperature {
            cells: 57,
            grid_rows: 10,
            grid_cols: 10,
            cycles: 16,
        },
        perturbations: PerturbationStack::none(),
        policy: PolicySpec::drcell(3, 16),
        quality: QualitySpec {
            epsilon: 0.3,
            p: 0.9,
        },
        runner: RunnerSpec {
            window: 12,
            ..RunnerSpec::default()
        },
        train_cycles: 12,
    }
}

/// The paper57 workload's scenarios.
pub fn paper57_specs(seed: u64) -> Vec<ScenarioSpec> {
    (0..PAPER57_SCENARIOS as u64)
        .map(|i| paper57_spec(stream_seed(seed, TAG_PAPER57 + i)))
        .collect()
}

/// The default-sweep grid (RANDOM and QBC × ε {0.4, 0.7}, 9-cell
/// synthetic, window 8) with its seed axis derived from `seed`.
pub fn sweep_spec(seed: u64) -> SweepSpec {
    let mut sweep = registry::default_sweep();
    sweep.base.name = "sweep".to_owned();
    sweep.seeds = (0..SWEEP_SEEDS as u64)
        .map(|i| stream_seed(seed, TAG_SWEEP + i))
        .collect();
    sweep
}

/// A small training-free served job: RANDOM on the default-sweep's
/// 9-cell synthetic field, 24 cycles of which 16 train, so a cold run
/// costs about twenty milliseconds. It runs serially: two daemon workers
/// already fill two cores, and an inner pool on a 9-cell matrix spends
/// most of its time spawning threads, which measures the host's kernel
/// rather than the serving path. Inner threads never change the rows or
/// the cache key.
pub fn serve_spec(name: &str, seed: u64) -> ScenarioSpec {
    let mut spec = registry::default_sweep().base;
    spec.name = format!("{name}/s{seed}");
    spec.seed = seed;
    spec.policy = PolicySpec::Random;
    if let DatasetSpec::Synthetic { cycles, .. } = &mut spec.dataset {
        *cycles = 24;
    }
    spec.train_cycles = 16;
    spec.runner.inner_threads = Some(1);
    spec
}

/// The specs the serve workload primes during set-up and repeats warm.
pub fn serve_warm_specs(seed: u64) -> Vec<ScenarioSpec> {
    (0..SERVE_WARM_SPECS as u64)
        .map(|i| serve_spec("warm", stream_seed(seed, TAG_WARM + i)))
        .collect()
}

/// The scenarios every set-up runs to warm the process. They are the same
/// for every seed: set-up should cost the same whatever the inputs.
pub fn warmup_specs() -> Vec<ScenarioSpec> {
    (1..=4).map(|seed| serve_spec("warmup", seed)).collect()
}

/// Whether a served job computes from scratch or repeats a primed spec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobClass {
    /// A fresh seed: a cache miss, computed by the daemon.
    Cold,
    /// A primed spec: answered from the result cache.
    Warm,
}

/// One job of a client's script.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeJob {
    /// Cold or warm.
    pub class: JobClass,
    /// The spec to submit.
    pub spec: ScenarioSpec,
}

/// One closed-loop client's endless job script.
#[derive(Debug)]
pub struct ClientScript {
    seed: u64,
    client: u64,
    rng: StdRng,
    warm: Vec<ScenarioSpec>,
    block: Vec<JobClass>,
    issued: u64,
}

impl ClientScript {
    /// The script of client `client` (0 or 1) for workload seed `seed`.
    pub fn new(seed: u64, client: u64) -> ClientScript {
        ClientScript {
            seed,
            client,
            rng: StdRng::seed_from_u64(stream_seed(seed, TAG_CLIENT + client)),
            warm: serve_warm_specs(seed),
            block: Vec::with_capacity(SERVE_BLOCK),
            issued: 0,
        }
    }
}

impl Iterator for ClientScript {
    type Item = ServeJob;

    fn next(&mut self) -> Option<ServeJob> {
        if self.block.is_empty() {
            self.block = (0..SERVE_BLOCK)
                .map(|i| {
                    if i % 2 == 0 {
                        JobClass::Cold
                    } else {
                        JobClass::Warm
                    }
                })
                .collect();
            for i in (1..SERVE_BLOCK).rev() {
                let j = self.rng.gen_range(0..=i);
                self.block.swap(i, j);
            }
        }
        let class = self.block.pop().expect("block refilled above");
        let spec = match class {
            JobClass::Warm => self.warm[self.rng.gen_range(0..self.warm.len())].clone(),
            // Client and position pick the seed, so no two cold jobs of a
            // run share a cache entry.
            JobClass::Cold => {
                let tag = TAG_COLD + (self.client << 40) + self.issued;
                serve_spec("cold", stream_seed(self.seed, tag))
            }
        };
        self.issued += 1;
        Some(ServeJob { class, spec })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn script(seed: u64, client: u64, n: usize) -> Vec<ServeJob> {
        ClientScript::new(seed, client).take(n).collect()
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(paper57_specs(9), paper57_specs(9));
        assert_eq!(sweep_spec(9).expand(), sweep_spec(9).expand());
        assert_eq!(script(9, 0, 200), script(9, 0, 200));
        assert_eq!(script(9, 1, 200), script(9, 1, 200));
    }

    #[test]
    fn different_seed_different_inputs() {
        assert_ne!(paper57_specs(9), paper57_specs(10));
        assert_ne!(sweep_spec(9).expand(), sweep_spec(10).expand());
        assert_ne!(script(9, 0, 50), script(10, 0, 50));
        assert_ne!(script(9, 0, 50), script(9, 1, 50));
    }

    #[test]
    fn sweep_matrix_is_the_default_grid_shape() {
        let specs = sweep_spec(3).expand();
        assert_eq!(specs.len(), 2 * 2 * SWEEP_SEEDS);
        assert!(specs.iter().all(|s| s.runner.window == 8));
        let mut names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), specs.len());
    }

    #[test]
    fn script_mixes_classes_and_never_repeats_a_cold_spec() {
        let n = 16 * SERVE_BLOCK;
        let jobs: Vec<ServeJob> = script(5, 0, n).into_iter().chain(script(5, 1, n)).collect();
        let cold: Vec<&ScenarioSpec> = jobs
            .iter()
            .filter(|j| j.class == JobClass::Cold)
            .map(|j| &j.spec)
            .collect();
        assert_eq!(cold.len(), jobs.len() / 2, "every block is half cold");
        let mut seeds: Vec<u64> = cold.iter().map(|s| s.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), cold.len());
        let warm_seeds: Vec<u64> = serve_warm_specs(5).iter().map(|s| s.seed).collect();
        assert!(cold.iter().all(|s| !warm_seeds.contains(&s.seed)));
        assert!(jobs
            .iter()
            .filter(|j| j.class == JobClass::Warm)
            .all(|j| warm_seeds.contains(&j.spec.seed)));
    }
}
