//! Live-daemon protocol tests: malformed frames, job lifecycle,
//! mid-stream cancellation, and client disconnects — all against a real
//! server on an ephemeral port.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use drcell_scenario::{
    shard_ranges, DatasetSpec, PolicySpec, QualitySpec, RunnerSpec, ScenarioSpec, SweepSpec,
};
use drcell_serve::{Client, ClientConfig, Frame, JobState, ServeConfig, ServeError, Server};

/// A cheap, fully deterministic scenario; `cycles` scales its runtime.
fn tiny_spec(name: &str, cycles: usize) -> ScenarioSpec {
    ScenarioSpec {
        name: name.to_owned(),
        seed: 11,
        dataset: DatasetSpec::Synthetic {
            grid_rows: 3,
            grid_cols: 3,
            cell_w: 40.0,
            cell_h: 40.0,
            cycles,
            mean: 10.0,
            std: 2.0,
            field: drcell_datasets_field(),
        },
        perturbations: drcell_datasets::PerturbationStack::none(),
        policy: PolicySpec::Random,
        quality: QualitySpec {
            epsilon: 0.5,
            p: 0.9,
        },
        runner: RunnerSpec {
            window: 8,
            ..RunnerSpec::default()
        },
        train_cycles: 16,
    }
}

fn drcell_datasets_field() -> drcell_datasets::FieldConfig {
    drcell_datasets::FieldConfig {
        cycles_per_day: 16,
        ..drcell_datasets::FieldConfig::default()
    }
}

/// Binds a daemon with `workers` job threads, returning its address and
/// the thread handle running it.
fn start_server(workers: usize) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind("127.0.0.1:0", workers).expect("bind ephemeral");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

fn shut_down(addr: std::net::SocketAddr, handle: std::thread::JoinHandle<()>) {
    Client::connect(addr)
        .expect("connect for shutdown")
        .shutdown()
        .expect("shutdown ack");
    handle.join().expect("server thread");
}

#[test]
fn malformed_frames_get_error_responses_and_keep_the_connection() {
    let (addr, handle) = start_server(1);
    let mut raw = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    for bad in [
        "this is not json",
        "{\"cmd\":\"warp\"}",
        "{\"cmd\":\"run\"}",
        "{\"no_cmd\":1}",
        "{\"cmd\":\"cancel\",\"job\":\"x\"}",
    ] {
        writeln!(raw, "{bad}").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        match Frame::parse(line.trim()).unwrap() {
            Frame::Error { message } => assert!(!message.is_empty(), "for {bad}"),
            other => panic!("expected error frame for {bad}, got {other:?}"),
        }
    }
    // Invalid UTF-8 is a malformed frame too, not a dropped connection.
    raw.write_all(b"{\"cmd\":\xff\xfe}\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        matches!(Frame::parse(line.trim()).unwrap(), Frame::Error { .. }),
        "expected error frame for invalid UTF-8, got {line}"
    );
    // The same connection still serves valid requests afterwards.
    writeln!(raw, "{{\"cmd\":\"list\"}}").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    match Frame::parse(line.trim()).unwrap() {
        Frame::ScenarioNames { names } => assert!(!names.is_empty()),
        other => panic!("expected scenarios frame, got {other:?}"),
    }
    drop(raw);
    shut_down(addr, handle);
}

#[test]
fn a_deeply_nested_request_is_an_error_frame_not_a_crash() {
    let (addr, handle) = start_server(1);
    let mut raw = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    // ~100 KB, far under the request size cap, but nested deep enough to
    // overflow the stack of a parser that recursed without a limit.
    writeln!(raw, "{{\"cmd\":\"run\",\"spec\":{}", "[".repeat(100_000)).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    match Frame::parse(line.trim()).unwrap() {
        Frame::Error { message } => assert!(message.contains("nests deeper"), "{message}"),
        other => panic!("expected an error frame, got {other:?}"),
    }
    // The daemon, and this very connection, keep serving.
    writeln!(raw, "{{\"cmd\":\"ping\"}}").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        matches!(Frame::parse(line.trim()).unwrap(), Frame::Pong { .. }),
        "expected a pong, got {line}"
    );
    drop(raw);
    shut_down(addr, handle);
}

#[test]
fn ping_answers_inline_with_the_server_clock() {
    let (addr, handle) = start_server(1);
    let mut client = Client::connect(addr).unwrap();
    let first = client.ping().expect("ping");
    assert!(first > 0, "server clock must be a real timestamp");
    // The server clock never goes backwards across round trips, and the
    // connection keeps serving ordinary requests afterwards.
    let second = client.ping().expect("second ping");
    assert!(second >= first, "{second} < {first}");
    assert!(!client.list().unwrap().is_empty());
    drop(client);
    shut_down(addr, handle);
}

#[test]
fn unknown_registry_name_and_unknown_job_are_request_errors() {
    let (addr, handle) = start_server(1);
    let mut client = Client::connect(addr).unwrap();
    let err = client.run_name("no-such-scenario").unwrap_err();
    assert!(err.to_string().contains("no-such-scenario"), "{err}");
    let err = client.cancel(999).unwrap_err();
    assert!(err.to_string().contains("999"), "{err}");
    // The connection survives both errors.
    assert!(!client.list().unwrap().is_empty());
    drop(client);
    shut_down(addr, handle);
}

#[test]
fn job_streams_to_done_and_table_records_it() {
    let (addr, handle) = start_server(1);
    let mut client = Client::connect(addr).unwrap();
    let stream = client.run_spec(&tiny_spec("protocol-done", 28)).unwrap();
    let job_id = stream.job;
    assert_eq!(stream.scenarios, 1);
    let output = stream.collect().unwrap();
    assert_eq!(output.ok, 1);
    assert_eq!(output.failed, 0);
    assert!(!output.cancelled);
    assert_eq!(output.rows.len(), 12, "28 cycles - 16 train = 12 rows");
    assert!(output.rows[0].starts_with("{\"scenario\":\"protocol-done\""));
    let jobs = client.jobs().unwrap().jobs;
    let info = jobs.iter().find(|j| j.job == job_id).unwrap();
    assert_eq!(info.state, JobState::Done);
    assert_eq!(info.completed, 1);
    drop(client);
    shut_down(addr, handle);
}

#[test]
fn failing_scenario_is_isolated_and_job_ends_failed() {
    let (addr, handle) = start_server(1);
    let mut client = Client::connect(addr).unwrap();
    let mut bad = tiny_spec("protocol-invalid", 24);
    bad.quality.p = 2.0; // invalid requirement -> scenario fails
    let output = client.run_spec(&bad).unwrap().collect().unwrap();
    assert_eq!(output.failed, 1);
    assert_eq!(output.scenario_errors.len(), 1);
    assert!(output.rows.is_empty());
    // The daemon is fine: the next job on the same connection completes.
    let output = client
        .run_spec(&tiny_spec("protocol-after-failure", 24))
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(output.ok, 1);
    let jobs = client.jobs().unwrap().jobs;
    assert_eq!(jobs[0].state, JobState::Failed);
    assert_eq!(jobs[1].state, JobState::Done);
    drop(client);
    shut_down(addr, handle);
}

#[test]
fn mid_stream_cancel_stops_the_job_at_a_cycle_boundary() {
    let (addr, handle) = start_server(1);
    let mut submitter = Client::connect(addr).unwrap();
    // Long enough that cancellation always lands mid-run.
    let mut stream = submitter
        .run_spec(&tiny_spec("protocol-cancel", 2000))
        .unwrap();
    let job_id = stream.job;
    let mut rows_before_cancel = 0usize;
    // Read a couple of rows to prove the stream is live, then cancel from
    // a second connection.
    while rows_before_cancel < 3 {
        match stream.next_frame().unwrap().expect("stream is live") {
            Frame::Row(_) => rows_before_cancel += 1,
            other => panic!("unexpected frame before cancel: {other:?}"),
        }
    }
    let mut canceller = Client::connect(addr).unwrap();
    canceller.cancel(job_id).unwrap();
    // Drain the remainder: rows may still flow (frames in flight plus the
    // boundary cycle), but the stream must end with `cancelled`.
    let mut saw_cancelled = false;
    while let Some(frame) = stream.next_frame().unwrap() {
        match frame {
            Frame::Row(_) => {}
            Frame::Cancelled { job, .. } => {
                assert_eq!(job, job_id);
                saw_cancelled = true;
            }
            other => panic!("unexpected frame after cancel: {other:?}"),
        }
    }
    assert!(saw_cancelled);
    drop(stream); // fully drained: dropping does not poison the client
    let jobs = canceller.jobs().unwrap().jobs;
    assert_eq!(jobs[0].state, JobState::Cancelled);
    // The worker is free again: a fresh job completes normally.
    let output = submitter
        .run_spec(&tiny_spec("protocol-after-cancel", 24))
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(output.ok, 1);
    drop(submitter);
    drop(canceller);
    shut_down(addr, handle);
}

#[test]
fn client_disconnect_cancels_its_job_without_poisoning_the_table() {
    let (addr, handle) = start_server(1);
    {
        let mut doomed = Client::connect(addr).unwrap();
        let mut stream = doomed
            .run_spec(&tiny_spec("protocol-disconnect", 2000))
            .unwrap();
        // Prove the job is streaming, then vanish without saying goodbye.
        assert!(matches!(stream.next_frame().unwrap(), Some(Frame::Row(_))));
    }
    // The worker notices the dead connection at the next row write and
    // cancels the job; poll the table until it settles.
    let mut observer = Client::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let jobs = observer.jobs().unwrap().jobs;
        if jobs.first().map(|j| j.state) == Some(JobState::Cancelled) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "job never cancelled after disconnect: {jobs:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    // Table and workers are healthy: a new job on a new connection runs.
    let output = observer
        .run_spec(&tiny_spec("protocol-after-disconnect", 24))
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(output.ok, 1);
    drop(observer);
    shut_down(addr, handle);
}

#[test]
fn abandoned_job_stream_poisons_the_client_loudly() {
    let (addr, handle) = start_server(1);
    let mut client = Client::connect(addr).unwrap();
    {
        let mut stream = client
            .run_spec(&tiny_spec("protocol-abandon", 2000))
            .unwrap();
        assert!(matches!(stream.next_frame().unwrap(), Some(Frame::Row(_))));
        // Drop mid-stream: the job's remaining frames are still in the
        // socket buffer.
    }
    // Before the fix the next request silently consumed leftover row
    // frames as its reply (a desynced connection); now it fails loudly,
    // and keeps failing — the poison is sticky.
    let err = client.list().unwrap_err();
    assert!(err.to_string().contains("poisoned"), "{err}");
    let err = client.jobs().unwrap_err();
    assert!(err.to_string().contains("poisoned"), "{err}");
    // The poison also tore the socket down, so the daemon cancels the
    // abandoned job instead of streaming into a buffer nobody drains.
    let mut observer = Client::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let jobs = observer.jobs().unwrap().jobs;
        if jobs.first().map(|j| j.state) == Some(JobState::Cancelled) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "abandoned job never cancelled: {jobs:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    drop(observer);
    drop(client);
    shut_down(addr, handle);
}

#[test]
fn a_silent_server_times_out_instead_of_hanging_forever() {
    // A listener that accepts connections and never replies — the shape
    // of a hung or wedged daemon. Before `ClientConfig` deadlines, a
    // client on such a connection blocked forever inside `read_frame`.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let mut held = Vec::new();
        for stream in listener.incoming() {
            match stream {
                Ok(s) => held.push(s),
                Err(_) => break,
            }
        }
    });
    let config = ClientConfig {
        read: Some(Duration::from_millis(300)),
        ..ClientConfig::default()
    };
    let mut client = Client::connect_with(addr, &config).unwrap();
    let start = Instant::now();
    let err = client.list().unwrap_err();
    assert!(
        matches!(err, ServeError::Timeout(_)),
        "expected the distinct timeout variant, got {err:?}"
    );
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "read deadline took {:?} to fire",
        start.elapsed()
    );
    // The expired deadline poisoned the connection (a reply might have
    // been half read); later requests fail loudly.
    let err = client.list().unwrap_err();
    assert!(err.to_string().contains("poisoned"), "{err}");
}

#[test]
fn an_oversized_frame_is_refused_and_poisons_the_client() {
    // A fake server that answers any request with one newline-free line
    // a byte past the client's frame cap: the read must stop at the cap
    // with a protocol error rather than buffer whatever the peer sends.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut request = String::new();
        BufReader::new(stream.try_clone().unwrap())
            .read_line(&mut request)
            .unwrap();
        let mut out = stream;
        let chunk = vec![b'x'; 1 << 20];
        let mut left = drcell_serve::MAX_FRAME_BYTES + 1;
        while left > 0 {
            let n = left.min(chunk.len());
            // The client hangs up once it has seen enough.
            if out.write_all(&chunk[..n]).is_err() {
                break;
            }
            left -= n;
        }
    });
    let mut client = Client::connect(addr).unwrap();
    let err = client.list().unwrap_err();
    assert!(
        matches!(&err, ServeError::Protocol(m) if m.contains("exceeds")),
        "{err:?}"
    );
    let err = client.list().unwrap_err();
    assert!(err.to_string().contains("poisoned"), "{err}");
    server.join().unwrap();
}

#[test]
fn sweep_slices_stream_global_indices_and_reassemble_the_matrix() {
    let mut sweep = SweepSpec::single(tiny_spec("protocol-slices", 26));
    sweep.seeds = vec![1, 2, 3, 4, 5];
    let (addr, handle) = start_server(1);
    let mut client = Client::connect(addr).unwrap();
    let full = client.sweep(&sweep).unwrap().collect().unwrap();
    assert_eq!(full.ok, 5);
    // Slice the matrix into shards and stitch the streams back together:
    // rows must carry *global* indices, so plain concatenation equals the
    // unsliced sweep byte for byte. (This also pins the cache keys to
    // global indices — the full sweep above warmed the cache.)
    let mut stitched = Vec::new();
    for range in shard_ranges(sweep.matrix_len(), 2) {
        let out = client
            .sweep_range(&sweep, range.start, range.end)
            .unwrap()
            .collect()
            .unwrap();
        stitched.extend(out.rows);
    }
    assert_eq!(
        stitched, full.rows,
        "sliced sweeps must reassemble the full matrix byte for byte"
    );
    // Out-of-range and empty slices are request errors, not hangs.
    let err = client.sweep_range(&sweep, 3, 99).unwrap_err();
    assert!(err.to_string().contains("invalid"), "{err}");
    let err = client.sweep_range(&sweep, 2, 2).unwrap_err();
    assert!(err.to_string().contains("invalid"), "{err}");
    // The connection survives both rejections.
    assert!(!client.list().unwrap().is_empty());
    drop(client);
    shut_down(addr, handle);
}

#[test]
fn shutdown_cancels_queued_jobs_but_finishes_running_ones() {
    // One worker, two jobs: the second queues behind the first. Shutdown
    // while the first streams; the first must finish, the second must come
    // back cancelled.
    let (addr, handle) = start_server(1);
    let mut first = Client::connect(addr).unwrap();
    let mut stream = first.run_spec(&tiny_spec("protocol-running", 400)).unwrap();
    assert!(matches!(stream.next_frame().unwrap(), Some(Frame::Row(_))));

    let second = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        let output = client
            .run_spec(&tiny_spec("protocol-queued", 60))
            .unwrap()
            .collect()
            .unwrap();
        output.cancelled
    });
    // Give the second job time to be queued, then shut down.
    std::thread::sleep(Duration::from_millis(200));
    Client::connect(addr).unwrap().shutdown().unwrap();

    // The running job still streams to completion.
    let mut finished = false;
    while let Some(frame) = stream.next_frame().unwrap() {
        if let Frame::Done { ok, .. } = frame {
            assert_eq!(ok, 1);
            finished = true;
        }
    }
    assert!(finished, "running job must finish during graceful shutdown");
    assert!(
        second.join().unwrap(),
        "queued job must come back cancelled"
    );
    drop(stream);
    drop(first);
    handle.join().expect("server thread");
}

/// A client deadline is enforced at cycle boundaries: the job ends in the
/// terminal `deadline_exceeded` state, typed on the stream and recorded
/// (with its reason) in the job table.
#[test]
fn a_job_past_its_deadline_ends_deadline_exceeded_typed_and_listed() {
    let (addr, handle) = start_server(1);
    let mut client = Client::connect(addr).unwrap();
    let output = client
        .run_spec_with(
            &tiny_spec("deadline-exceeded", 50_000),
            Some(Duration::from_millis(100)),
        )
        .unwrap()
        .collect()
        .unwrap();
    assert!(output.deadline_exceeded, "the budget must expire mid-run");
    assert!(!output.cancelled, "deadline expiry is typed, not a cancel");
    let info = client.jobs().unwrap().jobs.pop().unwrap();
    assert_eq!(info.state, JobState::DeadlineExceeded);
    assert_eq!(info.reason.as_deref(), Some("deadline"));
    assert!(info.deadline_ms.is_some(), "the deadline is listed");
    drop(client);
    shut_down(addr, handle);
}

/// `--max-job-secs` caps every job: a huge client budget is clamped to
/// the server cap, visibly in the job listing, and the cap alone expires
/// the job.
#[test]
fn the_server_cap_clamps_client_deadlines() {
    let config = ServeConfig {
        workers: 1,
        max_job_secs: 1,
        ..ServeConfig::default()
    };
    let server = Server::bind_with("127.0.0.1:0", config).expect("bind ephemeral");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run().expect("server run"));

    let mut client = Client::connect(addr).unwrap();
    let stream = client
        .run_spec_with(
            &tiny_spec("cap-clamp", 50_000),
            Some(Duration::from_secs(3_600)),
        )
        .unwrap();
    let job_id = stream.job;
    let mut lister = Client::connect(addr).unwrap();
    let info = lister
        .jobs()
        .unwrap()
        .jobs
        .into_iter()
        .find(|j| j.job == job_id)
        .expect("submitted job is listed");
    let deadline = info.deadline_ms.expect("the cap sets a deadline");
    // The absolute deadline reflects the 1 s cap, not the hour the client
    // asked for (both stamps come from the server's clock).
    assert!(
        deadline >= info.queued_ms,
        "{deadline} < {}",
        info.queued_ms
    );
    assert!(
        deadline - info.queued_ms <= 1_000,
        "cap not applied: {} ms budget",
        deadline - info.queued_ms
    );
    let output = stream.collect().unwrap();
    assert!(
        output.deadline_exceeded,
        "the cap alone must expire the job"
    );
    drop(client);
    drop(lister);
    shut_down(addr, handle);
}

/// Cancelling a job that is still queued under admission pressure frees
/// its queue unit, never lets a worker start it, journals the cancelled
/// state durably, and leaks no admission slot.
#[test]
fn cancelling_a_queued_job_under_pressure_releases_the_slot_and_never_starts_it() {
    let dir = std::env::temp_dir().join(format!("drcell-queued-cancel-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("jobs.journal");
    let config = ServeConfig {
        workers: 1,
        max_queue: 1,
        journal: Some(journal.clone()),
        ..ServeConfig::default()
    };
    let server = Server::bind_with("127.0.0.1:0", config).expect("bind ephemeral");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.run().expect("server run"));

    // The only worker is held by a long job…
    let mut holder = Client::connect(addr).unwrap();
    let mut held = holder
        .run_spec(&tiny_spec("pressure-held", 50_000))
        .unwrap();
    let held_id = held.job;
    assert!(matches!(held.next_frame().unwrap(), Some(Frame::Row(_))));

    // …so this job sits queued, filling the 1-deep queue.
    let mut waiting = Client::connect(addr).unwrap();
    let queued = waiting.run_spec(&tiny_spec("pressure-queued", 60)).unwrap();
    let queued_id = queued.job;

    // The pressure is real: one more submit bounces with a busy frame
    // carrying the load-derived back-off hint.
    let mut control = Client::connect(addr).unwrap();
    match control.run_spec(&tiny_spec("pressure-refused", 60)) {
        Err(ServeError::Busy {
            reason,
            retry_after_ms,
            ..
        }) => {
            assert_eq!(reason, "queue_full");
            assert!((100..=5_000).contains(&retry_after_ms));
        }
        other => panic!("expected busy, got {other:?}"),
    }

    // Cancel the *queued* job first, then the holder; the worker reaches
    // the queued job with the cancel flag already set.
    control.cancel(queued_id).unwrap();
    control.cancel(held_id).unwrap();
    while held.next_frame().unwrap().is_some() {}
    let output = queued.collect().unwrap();
    assert!(output.cancelled);
    assert!(
        output.rows.is_empty(),
        "a job cancelled while queued must never produce a row"
    );

    let info = control
        .jobs()
        .unwrap()
        .jobs
        .into_iter()
        .find(|j| j.job == queued_id)
        .expect("queued job is listed");
    assert_eq!(info.state, JobState::Cancelled);
    assert_eq!(info.started_ms, None, "no worker may ever start it");
    assert_eq!(info.completed, 0);

    // Every admission unit drains: no queued depth, no in-flight slots
    // (the server releases a slot just after the stream's final frame, so
    // poll briefly instead of racing it)…
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = control.stats().unwrap();
        if stats.inflight_slots == 0 && stats.queue_depth == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "admission units leaked: {} slot(s), {} queued",
            stats.inflight_slots,
            stats.queue_depth
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // …and a fresh submit is admitted and completes.
    let output = control
        .run_spec(&tiny_spec("pressure-after", 24))
        .unwrap()
        .collect()
        .unwrap();
    assert_eq!(output.ok, 1);

    // The cancellation is a durable journalled fact.
    let text = std::fs::read_to_string(&journal).unwrap();
    assert!(
        text.lines()
            .any(|l| l.contains(&format!("\"job\":{queued_id},"))
                && l.contains("\"state\":\"cancelled\"")),
        "journal must record the queued job's cancellation:\n{text}"
    );
    drop(held);
    drop(holder);
    drop(waiting);
    drop(control);
    shut_down(addr, handle);
    let _ = std::fs::remove_dir_all(&dir);
}
