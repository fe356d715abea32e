//! The `drcell-scenario` command-line interface.
//!
//! ```text
//! drcell-scenario list
//! drcell-scenario run  --name <scenario> [--seed N] [--threads N]
//!                      [--jsonl out.jsonl] [--csv out.csv]
//! drcell-scenario run  --spec file.{toml,json} [...]
//! drcell-scenario sweep [--spec file.{toml,json}] [--threads N]
//!                      [--jsonl out.jsonl] [--csv out.csv] [--summary out.txt]
//! ```
//!
//! Spec files deserialise into [`ScenarioSpec`] (`run`) or [`SweepSpec`]
//! (`sweep`); without `--spec`, `sweep` runs the built-in
//! [`registry::default_sweep`] — an 8-scenario policy × ε × seed grid.

use std::fs;
use std::io::Write;
use std::path::Path;

use drcell_core::{backend, BackendChoice};
use serde::Deserialize;

use crate::exec::ScenarioResult;
use crate::registry;
use crate::spec::{ScenarioSpec, SweepSpec};
use crate::{json, sink, toml_cfg, ScenarioError, SweepEngine};

/// Parsed command-line options shared by `run` and `sweep`.
#[derive(Debug, Default, Clone)]
pub struct Options {
    /// Named registry scenario (`run`).
    pub name: Option<String>,
    /// Spec file path (`run`: scenario; `sweep`: sweep).
    pub spec: Option<String>,
    /// Seed override.
    pub seed: Option<u64>,
    /// Worker threads (0 = all cores).
    pub threads: usize,
    /// Compute-backend override (`None` = keep the spec's setting, which
    /// defaults to auto-detection honouring `DRCELL_BACKEND`).
    pub backend: Option<BackendChoice>,
    /// JSONL output path.
    pub jsonl: Option<String>,
    /// CSV output path.
    pub csv: Option<String>,
    /// Summary output path (stdout always gets it too).
    pub summary: Option<String>,
}

impl Options {
    /// Parses `--key value` style options.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Invalid`] on unknown flags or bad values.
    pub fn parse(args: &[String]) -> Result<Options, ScenarioError> {
        let mut opts = Options::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut take = |what: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| ScenarioError::Invalid(format!("{flag} needs {what}")))
            };
            match flag.as_str() {
                "--name" => opts.name = Some(take("a scenario name")?),
                "--spec" => opts.spec = Some(take("a file path")?),
                "--seed" => {
                    let v = take("an integer")?;
                    opts.seed =
                        Some(v.parse().map_err(|_| {
                            ScenarioError::Invalid(format!("bad --seed value `{v}`"))
                        })?);
                }
                "--threads" => {
                    let v = take("an integer")?;
                    opts.threads = v.parse().map_err(|_| {
                        ScenarioError::Invalid(format!("bad --threads value `{v}`"))
                    })?;
                }
                "--backend" => {
                    let v = take("auto|scalar|simd")?;
                    opts.backend = Some(BackendChoice::parse(&v).ok_or_else(|| {
                        ScenarioError::Invalid(format!(
                            "bad --backend value `{v}` (auto|scalar|simd)"
                        ))
                    })?);
                }
                "--jsonl" => opts.jsonl = Some(take("a file path")?),
                "--csv" => opts.csv = Some(take("a file path")?),
                "--summary" => opts.summary = Some(take("a file path")?),
                other => {
                    return Err(ScenarioError::Invalid(format!("unknown flag `{other}`")));
                }
            }
        }
        Ok(opts)
    }
}

/// Loads and deserialises a TOML or JSON spec file.
///
/// # Errors
///
/// Propagates I/O and parse failures.
pub fn load_spec_value(path: &str) -> Result<serde::Value, ScenarioError> {
    let text = fs::read_to_string(path)?;
    let value = if Path::new(path)
        .extension()
        .map(|e| e.eq_ignore_ascii_case("json"))
        .unwrap_or(false)
    {
        json::parse_json(&text)?
    } else {
        toml_cfg::parse_toml(&text)?
    };
    Ok(value)
}

fn write_outputs(opts: &Options, results: &[&ScenarioResult]) -> Result<(), ScenarioError> {
    if let Some(path) = &opts.jsonl {
        let mut f = fs::File::create(path)?;
        sink::write_jsonl(&mut f, results)?;
        println!("wrote {} ({} scenarios)", path, results.len());
    }
    if let Some(path) = &opts.csv {
        let mut f = fs::File::create(path)?;
        sink::write_csv(&mut f, results)?;
        println!("wrote {path}");
    }
    let summary = sink::summary(results);
    print!("{summary}");
    if let Some(path) = &opts.summary {
        let mut f = fs::File::create(path)?;
        f.write_all(summary.as_bytes())?;
        println!("wrote {path}");
    }
    Ok(())
}

/// Runs the scenarios, writes whatever outputs succeeded, and returns the
/// first scenario error (after the writes) so partial failures still exit
/// nonzero instead of silently producing incomplete result files.
fn execute_and_write(specs: Vec<ScenarioSpec>, opts: &Options) -> Result<(), ScenarioError> {
    let engine = SweepEngine::new(opts.threads);
    // Resolve the backend up front (the runners re-select the same choice)
    // so the startup log records what will actually execute.
    backend::select(specs.first().map(|s| s.runner.compute).unwrap_or_default());
    eprintln!("{}", backend::startup_line());
    eprintln!(
        "running {} scenario(s) on {} worker thread(s) ...",
        specs.len(),
        engine.effective_threads(specs.len()),
    );
    let total = specs.len();
    let outcomes = engine.run_with(&specs, |outcome| match outcome {
        Ok(r) => eprintln!("  done {}", r.summary_row()),
        Err(e) => eprintln!("  FAILED: {e}"),
    });
    let mut results = Vec::with_capacity(outcomes.len());
    let mut first_err = None;
    for outcome in outcomes {
        match outcome {
            Ok(r) => results.push(r),
            Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    if !results.is_empty() {
        let refs: Vec<&ScenarioResult> = results.iter().collect();
        write_outputs(opts, &refs)?;
    }
    match first_err {
        Some(e) => {
            if !results.is_empty() {
                eprintln!(
                    "error: {} of {total} scenarios failed; outputs above cover the successes only",
                    total - results.len(),
                );
            }
            Err(e)
        }
        None => Ok(()),
    }
}

/// `drcell-scenario list` — prints the built-in registry.
pub fn cmd_list() {
    println!("built-in scenarios:");
    for spec in registry::registry() {
        println!(
            "  {:<28} policy {:<12} ε={:<5} p={:<5} perturbations: {}",
            spec.name,
            spec.policy.label(),
            spec.quality.epsilon,
            spec.quality.p,
            spec.perturbations.label(),
        );
    }
    println!("\nrun one with: drcell-scenario run --name <scenario>");
    println!(
        "the default sweep (drcell-scenario sweep) expands to {} scenarios",
        registry::default_sweep().expand().len()
    );
}

/// `drcell-scenario run` — executes one scenario (registry or spec file).
///
/// # Errors
///
/// Propagates spec resolution and execution failures.
pub fn cmd_run(opts: &Options) -> Result<(), ScenarioError> {
    let mut spec = match (&opts.name, &opts.spec) {
        (Some(name), None) => registry::find(name).ok_or_else(|| {
            ScenarioError::Invalid(format!(
                "no built-in scenario `{name}` (see drcell-scenario list)"
            ))
        })?,
        (None, Some(path)) => ScenarioSpec::from_value(&load_spec_value(path)?)?,
        _ => {
            return Err(ScenarioError::Invalid(
                "run needs exactly one of --name or --spec".to_owned(),
            ));
        }
    };
    if let Some(seed) = opts.seed {
        spec.seed = seed;
    }
    if let Some(b) = opts.backend {
        spec.runner.compute = b;
    }
    execute_and_write(vec![spec], opts)
}

/// `drcell-scenario sweep` — expands and executes a sweep in parallel.
///
/// # Errors
///
/// Propagates spec resolution and execution failures.
pub fn cmd_sweep(opts: &Options) -> Result<(), ScenarioError> {
    let mut sweep = match &opts.spec {
        Some(path) => SweepSpec::from_value(&load_spec_value(path)?)?,
        None => registry::default_sweep(),
    };
    if let Some(seed) = opts.seed {
        sweep.base.seed = seed;
    }
    let mut specs = sweep.expand();
    if let Some(b) = opts.backend {
        for spec in &mut specs {
            spec.runner.compute = b;
        }
    }
    execute_and_write(specs, opts)
}

/// Entry point used by the binary: dispatches on the subcommand.
///
/// # Errors
///
/// Propagates all failures for the binary to report.
pub fn main_with_args(args: &[String]) -> Result<(), ScenarioError> {
    match args.first().map(String::as_str) {
        Some("list") => {
            cmd_list();
            Ok(())
        }
        Some("run") => cmd_run(&Options::parse(&args[1..])?),
        Some("sweep") => cmd_sweep(&Options::parse(&args[1..])?),
        // The daemon lives in `drcell-serve` (it depends on this crate);
        // redirect rather than report an unknown command.
        Some("serve") => Err(ScenarioError::Invalid(
            "serving is the `drcell-serve` binary:\n  \
             cargo run --release -p drcell-serve -- serve --addr 127.0.0.1:7878\n\
             (see the README's \"Serving\" section for the protocol)"
                .to_owned(),
        )),
        Some("--help") | Some("-h") | None => {
            println!("{}", usage());
            Ok(())
        }
        Some(other) => Err(ScenarioError::Invalid(format!(
            "unknown command `{other}`\n{}",
            usage()
        ))),
    }
}

/// The CLI usage text.
pub fn usage() -> String {
    "drcell-scenario — declarative scenario engine for DR-Cell\n\
     \n\
     USAGE:\n\
       drcell-scenario list\n\
       drcell-scenario run   --name <scenario> | --spec file.{toml,json}\n\
                             [--seed N] [--threads N] [--backend auto|scalar|simd]\n\
                             [--jsonl out] [--csv out]\n\
       drcell-scenario sweep [--spec file.{toml,json}] [--seed N] [--threads N]\n\
                             [--backend auto|scalar|simd]\n\
                             [--jsonl out] [--csv out] [--summary out]\n\
     \n\
     --threads N runs N scenarios at a time (0 = one per hardware thread);\n\
     each scenario runs single-threaded. --backend picks the compute\n\
     kernels (auto detects SIMD; DRCELL_BACKEND=scalar|simd also works).\n\
     Results are byte-identical at any combination of both knobs.\n\
     \n\
     Without --spec, `sweep` runs the built-in 8-scenario default grid.\n\
     For long-running serving (stream rows over a socket), see the\n\
     `drcell-serve` binary and the README's \"Serving\" section."
        .to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_parse_flags() {
        let args: Vec<String> = [
            "--name",
            "temperature-baseline",
            "--threads",
            "4",
            "--jsonl",
            "/tmp/x.jsonl",
            "--seed",
            "9",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let opts = Options::parse(&args).unwrap();
        assert_eq!(opts.name.as_deref(), Some("temperature-baseline"));
        assert_eq!(opts.threads, 4);
        assert_eq!(opts.seed, Some(9));
        assert_eq!(opts.jsonl.as_deref(), Some("/tmp/x.jsonl"));
    }

    #[test]
    fn options_reject_unknown_and_dangling() {
        assert!(Options::parse(&["--bogus".to_owned()]).is_err());
        assert!(Options::parse(&["--seed".to_owned()]).is_err());
        assert!(Options::parse(&["--seed".to_owned(), "x".to_owned()]).is_err());
    }

    #[test]
    fn run_requires_exactly_one_source() {
        assert!(cmd_run(&Options::default()).is_err());
        let both = Options {
            name: Some("a".into()),
            spec: Some("b".into()),
            ..Options::default()
        };
        assert!(cmd_run(&both).is_err());
    }

    #[test]
    fn usage_mentions_all_commands() {
        let u = usage();
        for cmd in ["list", "run", "sweep", "--threads"] {
            assert!(u.contains(cmd), "usage missing {cmd}");
        }
    }
}
