//! Serving determinism: the JSONL row stream of a daemon job must be
//! **byte-identical** to the CLI/engine output for the same spec —
//! including when several jobs run concurrently and share the process
//! thread budget. This is the in-tree version of the CI smoke-serve check
//! (which shells out to the real binaries).

use drcell::datasets::{FieldConfig, PerturbationStack};
use drcell::scenario::{
    run_scenario, sink, DatasetSpec, PolicySpec, QualitySpec, RunnerSpec, ScenarioSpec,
    SweepEngine, SweepSpec,
};
use drcell::serve::{Client, Server};

fn sweep_spec() -> SweepSpec {
    let base = ScenarioSpec {
        name: "serve-determinism".to_owned(),
        seed: 23,
        dataset: DatasetSpec::Synthetic {
            grid_rows: 3,
            grid_cols: 3,
            cell_w: 40.0,
            cell_h: 40.0,
            cycles: 30,
            mean: 10.0,
            std: 2.0,
            field: FieldConfig {
                cycles_per_day: 12,
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
    };
    SweepSpec {
        base,
        policies: vec![PolicySpec::Random, PolicySpec::Qbc],
        epsilons: Vec::new(),
        ps: Vec::new(),
        seeds: Vec::new(),
        perturbations: Vec::new(),
        inner_threads: None,
    }
}

/// The engine-side reference rows of one spec, run standalone (index 0).
fn reference_rows(spec: &ScenarioSpec) -> Vec<String> {
    let result = run_scenario(spec, 0).expect("reference scenario runs");
    let mut buf = Vec::new();
    sink::write_jsonl(&mut buf, &[&result]).expect("in-memory write");
    String::from_utf8(buf)
        .expect("utf8 rows")
        .lines()
        .map(str::to_owned)
        .collect()
}

#[test]
fn two_concurrent_jobs_stream_cli_identical_rows() {
    // The acceptance shape: a 2-scenario sweep submitted as 2 concurrent
    // client jobs on a 2-worker daemon (sharing the thread budget), each
    // stream byte-identical to the engine run of the same spec.
    let specs = sweep_spec().expand();
    assert_eq!(specs.len(), 2);

    let server = Server::bind("127.0.0.1:0", 2).expect("bind");
    let addr = server.local_addr().expect("addr");
    let daemon = std::thread::spawn(move || server.run());

    let streams: Vec<_> = specs
        .iter()
        .map(|spec| {
            let spec = spec.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client
                    .run_spec(&spec)
                    .expect("submit")
                    .collect()
                    .expect("stream")
                    .rows
            })
        })
        .collect();
    let served: Vec<Vec<String>> = streams
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();

    for (spec, rows) in specs.iter().zip(&served) {
        assert!(!rows.is_empty(), "{} streamed no rows", spec.name);
        assert_eq!(
            rows,
            &reference_rows(spec),
            "served rows diverged from the engine for {}",
            spec.name
        );
    }

    Client::connect(addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    daemon.join().expect("daemon thread").expect("daemon exit");
}

#[test]
fn sweep_job_matches_sweep_engine_jsonl_byte_for_byte() {
    // A whole sweep as one job: the concatenated row stream must equal the
    // engine's matrix-order JSONL file exactly (scenario indices included).
    let sweep = sweep_spec();
    let specs = sweep.expand();
    let results = SweepEngine::new(1).run(&specs);
    let ok: Vec<_> = results
        .iter()
        .map(|r| r.as_ref().expect("scenario runs"))
        .collect();
    let mut buf = Vec::new();
    sink::write_jsonl(&mut buf, &ok).expect("in-memory write");
    let reference = String::from_utf8(buf).expect("utf8 rows");

    let server = Server::bind("127.0.0.1:0", 2).expect("bind");
    let addr = server.local_addr().expect("addr");
    let daemon = std::thread::spawn(move || server.run());

    let mut client = Client::connect(addr).expect("connect");
    let output = client
        .sweep(&sweep)
        .expect("submit sweep")
        .collect()
        .expect("stream");
    assert_eq!(output.ok, specs.len());
    let mut served = output.rows.join("\n");
    served.push('\n');
    assert_eq!(served, reference, "sweep job rows diverged from the engine");

    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon thread").expect("daemon exit");
}

#[test]
fn served_rows_identical_under_forced_scalar_and_simd_backends() {
    // Invariant 8 at the serving layer: forcing the compute backend in
    // the submitted spec (an execution-only knob) must not change one
    // byte of the served stream — and both forced runs must equal the
    // engine reference. Without AVX2 the simd leg falls back to scalar.
    use drcell::core::BackendChoice;
    let rows_with = |choice: BackendChoice| {
        let mut sweep = sweep_spec();
        sweep.base.runner.compute = choice;
        let server = Server::bind("127.0.0.1:0", 2).expect("bind");
        let addr = server.local_addr().expect("addr");
        let daemon = std::thread::spawn(move || server.run());
        let mut client = Client::connect(addr).expect("connect");
        let output = client
            .sweep(&sweep)
            .expect("submit sweep")
            .collect()
            .expect("stream");
        client.shutdown().expect("shutdown");
        daemon.join().expect("daemon thread").expect("daemon exit");
        assert_eq!(output.ok, 2);
        output.rows
    };
    let scalar = rows_with(BackendChoice::Scalar);
    let simd = rows_with(BackendChoice::Simd);
    assert_eq!(scalar, simd, "served rows depend on the compute backend");
}
