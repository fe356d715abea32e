//! A complete serving round trip against an in-process daemon: start
//! `drcell-serve` on an ephemeral port with 2 job workers, list the
//! registry, stream one scenario job and one 2-scenario sweep job, cancel
//! nothing, shut down cleanly.
//!
//! ```sh
//! cargo run --release --example serve_client
//! ```
//!
//! Against a standalone daemon the client half is identical — replace the
//! bind/spawn with the daemon's address (see the README's "Serving"
//! section for the `drcell-serve serve` / `submit` CLI equivalent).

use drcell::scenario::{registry, PolicySpec, SweepSpec};
use drcell::serve::{Client, Frame, Server};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The daemon half — in-process here; normally `drcell-serve serve
    // --addr 127.0.0.1:7878 --workers 2`. With 2 workers, two jobs run
    // concurrently, one thread each.
    let server = Server::bind("127.0.0.1:0", 2)?;
    let addr = server.local_addr()?;
    let daemon = std::thread::spawn(move || server.run());
    println!("daemon listening on {addr}");

    let mut client = Client::connect(addr)?;

    // `list`: what can be submitted by name.
    let names = client.list()?;
    println!("registry has {} scenarios, e.g. {}", names.len(), names[0]);

    // A streaming `run` job: frame by frame, as the testing stage produces
    // each cycle. (Random policy to keep the example fast; submitting
    // "synthetic-smooth" unmodified trains the full DR-Cell policy first.)
    let mut spec = registry::find("synthetic-smooth").expect("built-in scenario");
    spec.policy = PolicySpec::Random;
    let mut stream = client.run_spec(&spec)?;
    println!(
        "job {} accepted ({} scenario)",
        stream.job, stream.scenarios
    );
    let mut rows = 0usize;
    while let Some(frame) = stream.next_frame()? {
        match frame {
            Frame::Row(row) => {
                rows += 1;
                if rows <= 2 {
                    println!("  row: {row}");
                }
            }
            Frame::Scenario {
                name, error: None, ..
            } => println!("  scenario {name} done"),
            Frame::Scenario {
                name,
                error: Some(e),
                ..
            } => {
                println!("  scenario {name} FAILED: {e}")
            }
            Frame::Done { ok, failed, .. } => {
                println!("  job done: {ok} ok, {failed} failed ({rows} rows streamed)")
            }
            other => println!("  {other:?}"),
        }
    }
    // The stream is fully drained, so dropping it keeps the connection
    // reusable (an *undrained* stream would poison the client instead).
    drop(stream);

    // A `sweep` job, collected wholesale: rows come back in matrix order,
    // byte-identical to `drcell-scenario sweep --jsonl` for the same spec.
    let sweep = SweepSpec {
        policies: vec![PolicySpec::Random, PolicySpec::Qbc],
        ..SweepSpec::single(spec)
    };
    let output = client.sweep(&sweep)?.collect()?;
    println!(
        "sweep job: {} scenarios ok, {} rows, first row:\n  {}",
        output.ok,
        output.rows.len(),
        output.rows.first().map(String::as_str).unwrap_or("<none>")
    );

    client.shutdown()?;
    daemon.join().expect("daemon thread")?;
    println!("daemon shut down cleanly");
    Ok(())
}
