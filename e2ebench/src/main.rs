//! End-to-end benchmark of the DR-Cell reproduction.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <paper57-drcell|sweep-training-free|serve-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing; `--trace 1`
//! is the separate traced run that gives the per-layer metrics, writes its
//! spans to `.e2ebench/spans-<workload>-<seed>.jsonl` and prints each
//! layer's self time. Either way the last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. See
//! `e2ebench/README.md` for the workloads and what every metric means.

mod gen;
mod pipeline;
mod report;
mod serve;
mod stats;
mod timed;
mod trace;
mod workloads;

use std::path::Path;
use std::process::ExitCode;

use report::{result_line, END_TO_END, PER_LAYER};
use workloads::{Ctx, Output};

/// Where the benchmark writes: daemon directories and span dumps, under
/// the directory it runs from.
pub const OUT_DIR: &str = ".e2ebench";

const WORKLOADS: [&str; 3] = ["paper57-drcell", "sweep-training-free", "serve-mixed"];

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        ctx: Ctx {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        },
    })
}

/// Prints each layer's span count, total and self time.
fn print_layers(tracer: &trace::Tracer) {
    println!(
        "{:<24} {:>9} {:>12} {:>12}",
        "span", "calls", "total_ms", "self_ms"
    );
    for (name, t) in tracer.layers() {
        println!(
            "{name:<24} {:>9} {:>12.3} {:>12.3}",
            t.calls,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("e2ebench: {OUT_DIR}: {e}");
        return ExitCode::from(2);
    }
    let ctx = args.ctx;
    let output: Output = match args.workload.as_str() {
        "paper57-drcell" => workloads::paper57(ctx),
        "sweep-training-free" => workloads::sweep(ctx),
        _ => serve::serve_mixed(ctx, out_dir),
    };

    println!(
        "workload {} seed {} seconds {} trace {} (hardware threads: {})",
        args.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        drcell_pool::budget::hardware_threads()
    );
    for note in &output.notes {
        println!("{note}");
    }
    if let Some(tracer) = &output.tracer {
        print_layers(tracer);
        let path = out_dir.join(format!("spans-{}-{}.jsonl", args.workload, ctx.seed));
        match tracer.dump(&path) {
            Ok(()) => println!("spans: {} ({} spans)", path.display(), tracer.spans().len()),
            Err(e) => eprintln!("e2ebench: {}: {e}", path.display()),
        }
    }
    let names: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in names {
        match output.metrics.get(name) {
            Some((value, n)) => println!("{name:<30} {value:>14.6} {unit:<6} n={n}"),
            None => println!("{name:<30} {:>14} {unit:<6} (layer not exercised)", 0),
        }
    }
    for e in &output.tally.errors {
        eprintln!("e2ebench: FAILED: {e}");
    }
    let complete = ctx.trace
        || END_TO_END
            .iter()
            .all(|(n, _)| output.metrics.get(n).is_some_and(|(v, _)| v.is_finite()));
    let correct = output.tally.failed == 0 && complete;
    println!(
        "{}",
        result_line(correct, &output.tally, names, &output.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
