//! Golden bytes of every serving record: one literal line per control
//! frame kind, per request variant and per job-journal record, with the
//! optional fields both present and absent. Clients, journals written by
//! older daemons and the CI overload step (which greps
//! `"reason":"stall"` out of the journal) all depend on these exact
//! bytes — key order included — so any change here is a protocol change.

use drcell_scenario::json::to_json;
use drcell_scenario::registry;
use drcell_serve::{Frame, JobInfo, JobState, JobsSnapshot, Request, RunTarget, ServerStats};
use drcell_store::Record;
use serde::Serialize;

#[test]
fn control_frames_encode_to_golden_lines() {
    let cases = [
        (
            Frame::Accepted {
                job: 3,
                scenarios: 8,
            },
            r#"{"event":"accepted","job":3,"scenarios":8}"#,
        ),
        (
            Frame::Scenario {
                job: 3,
                index: 1,
                name: "a/b".to_owned(),
                error: None,
            },
            r#"{"event":"scenario","job":3,"index":1,"name":"a/b"}"#,
        ),
        (
            Frame::Scenario {
                job: 3,
                index: 2,
                name: "c".to_owned(),
                error: Some("boom \"x\"\n".to_owned()),
            },
            r#"{"event":"scenario","job":3,"index":2,"name":"c","error":"boom \"x\"\n"}"#,
        ),
        (
            Frame::Done {
                job: 3,
                ok: 7,
                failed: 1,
            },
            r#"{"event":"done","job":3,"ok":7,"failed":1}"#,
        ),
        (
            Frame::Cancelled {
                job: 9,
                reason: None,
            },
            r#"{"event":"cancelled","job":9}"#,
        ),
        (
            Frame::Cancelled {
                job: 9,
                reason: Some("stall".to_owned()),
            },
            r#"{"event":"cancelled","job":9,"reason":"stall"}"#,
        ),
        (
            Frame::DeadlineExceeded { job: 4 },
            r#"{"event":"deadline_exceeded","job":4}"#,
        ),
        (
            Frame::Error {
                message: "nope".to_owned(),
            },
            r#"{"event":"error","message":"nope"}"#,
        ),
        (
            Frame::Busy {
                reason: "queue_full".to_owned(),
                depth: 32,
                limit: 32,
                retry_after_ms: 3200,
            },
            r#"{"event":"busy","reason":"queue_full","depth":32,"limit":32,"retry_after_ms":3200}"#,
        ),
        (
            Frame::Stats(ServerStats {
                mem_hits: 5,
                disk_hits: 2,
                misses: 7,
                entries: 3,
                bytes: 4096,
                queue_depth: 1,
                inflight_slots: 2,
            }),
            r#"{"event":"stats","mem_hits":5,"disk_hits":2,"misses":7,"entries":3,"bytes":4096,"queue_depth":1,"inflight_slots":2}"#,
        ),
        (
            Frame::ScenarioNames {
                names: vec!["a".to_owned(), "b".to_owned()],
            },
            r#"{"event":"scenarios","names":["a","b"]}"#,
        ),
        (
            Frame::ScenarioNames { names: Vec::new() },
            r#"{"event":"scenarios","names":[]}"#,
        ),
        (
            Frame::JobTable(JobsSnapshot {
                now_ms: 1_700_000_002_000,
                jobs: vec![
                    JobInfo {
                        job: 1,
                        state: JobState::Running,
                        scenarios: 4,
                        completed: 2,
                        queued_ms: 1_700_000_000_000,
                        started_ms: Some(1_700_000_000_500),
                        finished_ms: Some(1_700_000_001_500),
                        deadline_ms: Some(1_700_000_060_000),
                        reason: Some("stall".to_owned()),
                    },
                    JobInfo {
                        job: 2,
                        state: JobState::Queued,
                        scenarios: 1,
                        completed: 0,
                        queued_ms: 1_700_000_001_000,
                        started_ms: None,
                        finished_ms: None,
                        deadline_ms: None,
                        reason: None,
                    },
                ],
            }),
            concat!(
                r#"{"event":"jobs","now_ms":1700000002000,"jobs":["#,
                r#"{"job":1,"state":"running","scenarios":4,"completed":2,"queued_ms":1700000000000,"started_ms":1700000000500,"finished_ms":1700000001500,"deadline_ms":1700000060000,"reason":"stall"},"#,
                r#"{"job":2,"state":"queued","scenarios":1,"completed":0,"queued_ms":1700000001000}]}"#,
            ),
        ),
        (
            Frame::JobTable(JobsSnapshot {
                now_ms: 5,
                jobs: Vec::new(),
            }),
            r#"{"event":"jobs","now_ms":5,"jobs":[]}"#,
        ),
        (
            Frame::CancelAck {
                job: 5,
                state: JobState::DeadlineExceeded,
            },
            r#"{"event":"cancel","job":5,"state":"deadline_exceeded"}"#,
        ),
        (Frame::ShutdownAck, r#"{"event":"shutdown"}"#),
        (
            Frame::Pong { now_ms: 1234 },
            r#"{"event":"pong","now_ms":1234}"#,
        ),
    ];
    for (frame, golden) in cases {
        assert_eq!(frame.to_line(), golden);
        assert_eq!(Frame::parse(golden).unwrap(), frame, "{golden}");
    }
}

#[test]
fn requests_encode_to_golden_lines() {
    let smooth = registry::find("synthetic-smooth").unwrap();
    let sweep = registry::default_sweep();
    // The spec bodies are the scenario crate's own serialisation; the
    // envelope around them is what this test pins.
    let smooth_json = to_json(&smooth.to_value());
    let sweep_json = to_json(&sweep.to_value());
    let cases = [
        (
            Request::Run {
                target: RunTarget::Name("synthetic-smooth".to_owned()),
                deadline_ms: None,
            },
            r#"{"cmd":"run","name":"synthetic-smooth"}"#.to_owned(),
        ),
        (
            Request::Run {
                target: RunTarget::Name("synthetic-smooth".to_owned()),
                deadline_ms: Some(30_000),
            },
            r#"{"cmd":"run","name":"synthetic-smooth","deadline_ms":30000}"#.to_owned(),
        ),
        (
            Request::Run {
                target: RunTarget::Spec(Box::new(smooth)),
                deadline_ms: Some(5),
            },
            format!(r#"{{"cmd":"run","spec":{smooth_json},"deadline_ms":5}}"#),
        ),
        (
            Request::Sweep {
                spec: Box::new(sweep.clone()),
                range: None,
                deadline_ms: None,
            },
            format!(r#"{{"cmd":"sweep","spec":{sweep_json}}}"#),
        ),
        (
            Request::Sweep {
                spec: Box::new(sweep),
                range: Some((2, 6)),
                deadline_ms: Some(120_000),
            },
            format!(
                r#"{{"cmd":"sweep","spec":{sweep_json},"start":2,"end":6,"deadline_ms":120000}}"#
            ),
        ),
        (Request::List, r#"{"cmd":"list"}"#.to_owned()),
        (Request::Jobs, r#"{"cmd":"jobs"}"#.to_owned()),
        (Request::Stats, r#"{"cmd":"stats"}"#.to_owned()),
        (
            Request::Cancel { job: 42 },
            r#"{"cmd":"cancel","job":42}"#.to_owned(),
        ),
        (Request::Shutdown, r#"{"cmd":"shutdown"}"#.to_owned()),
        (Request::Ping, r#"{"cmd":"ping"}"#.to_owned()),
    ];
    for (request, golden) in cases {
        assert_eq!(request.to_line(), golden);
        assert_eq!(Request::parse(&golden).unwrap(), request, "{golden}");
    }
    // The registry spec bodies themselves, pinned at their start.
    assert!(smooth_json.starts_with(
        r#"{"name":"synthetic-smooth","seed":20180507,"dataset":{"Synthetic":{"grid_rows":4,"#
    ));
    assert!(sweep_json.starts_with(r#"{"base":{"name":"default-sweep","seed":20180507,"#));
}

#[test]
fn job_journal_records_encode_to_golden_lines() {
    let cases = [
        (
            Record::Create {
                job: 1,
                scenarios: 2,
                at_ms: 1000,
                deadline_ms: None,
            },
            r#"{"op":"create","job":1,"scenarios":2,"at_ms":1000}"#,
        ),
        (
            Record::Create {
                job: 2,
                scenarios: 8,
                at_ms: 1001,
                deadline_ms: Some(61_001),
            },
            r#"{"op":"create","job":2,"scenarios":8,"at_ms":1001,"deadline_ms":61001}"#,
        ),
        (
            Record::State {
                job: 1,
                state: "running".to_owned(),
                completed: 0,
                at_ms: 1002,
                reason: None,
            },
            r#"{"op":"state","job":1,"state":"running","completed":0,"at_ms":1002}"#,
        ),
        (
            Record::State {
                job: 2,
                state: "cancelled".to_owned(),
                completed: 3,
                at_ms: 1003,
                reason: Some("stall".to_owned()),
            },
            r#"{"op":"state","job":2,"state":"cancelled","completed":3,"at_ms":1003,"reason":"stall"}"#,
        ),
    ];
    for (record, golden) in cases {
        assert_eq!(record.to_line(), golden);
        assert_eq!(Record::parse(golden), Some(record), "{golden}");
    }
}
