//! Metric names, the job log every workload fills, and the result line.

use std::collections::BTreeMap;

use crate::pipeline::RowTotals;
use crate::stats::{median, percentile, Summary};

/// End-to-end metrics, printed by every `--trace 0` run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 13] = [
    ("setup_s", "s"),
    ("scenario_s", "s"),
    ("first_row_s", "s"),
    ("sweep_s", "s"),
    ("cells_per_cycle", "cells"),
    ("within_eps_rate", "frac"),
    ("cold_job_ms_p50", "ms"),
    ("cold_job_ms_p90", "ms"),
    ("warm_job_ms_p50", "ms"),
    ("warm_job_ms_p90", "ms"),
    ("first_row_ms_p50", "ms"),
    ("jobs_per_s", "1/s"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics, printed by every `--trace 1` run: `(name, unit)`.
/// A layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("datasets.materialise_ms", "ms"),
    ("train.total_ms", "ms"),
    ("train.qnet_forward_ms", "ms"),
    ("train.qnet_forward_calls", "count"),
    ("train.qnet_update_ms", "ms"),
    ("train.grad_steps", "count"),
    ("train.env_ms", "ms"),
    ("train.env_steps", "count"),
    ("eval.total_ms", "ms"),
    ("eval.select_ms", "ms"),
    ("eval.select_calls", "count"),
    ("eval.assess_ms", "ms"),
    ("eval.assess_calls", "count"),
    ("eval.complete_ms", "ms"),
    ("eval.complete_calls", "count"),
    ("loo.base_sweeps", "count"),
    ("loo.loo_sweeps", "count"),
    ("loo.loo_solves", "count"),
    ("loo.warm_starts", "count"),
    ("loo.warm_start_ratio", "frac"),
    ("sink.row_json_ms", "ms"),
    ("sink.rows", "count"),
    ("engine.worker_busy_frac", "frac"),
    ("engine.scenario_ms_p50", "ms"),
    ("engine.scenario_ms_max", "ms"),
    ("store.key_us", "us"),
    ("store.cache_hit_ratio", "frac"),
    ("store.disk_hits", "count"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p90", "ms"),
    ("serve.run_ms_p50", "ms"),
    ("serve.client_overhead_ms_p50", "ms"),
    ("serve.ping_us_p50", "us"),
    ("serve.busy_refusals", "count"),
    ("trace.overhead_frac", "frac"),
];

/// Metric values by name, each with the sample count behind it.
pub type Metrics = BTreeMap<&'static str, (f64, usize)>;

/// Operations attempted, failures and their reasons.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations (jobs, scenarios, cache replays) attempted.
    pub attempted: u64,
    /// Failed, refused or wrong-byte operations and failed checks.
    pub failed: u64,
    /// One line per failure, for the log.
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts one failure.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.errors.push(why.into());
    }

    /// Counts a failure unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    /// Failures over attempts, capped at 1.
    pub fn failed_frac(&self) -> f64 {
        self.failed.min(self.attempted) as f64 / self.attempted.max(1) as f64
    }
}

/// What a measured phase produced, in the terms every end-to-end metric
/// is defined in: a job is one request a user waits for (a scenario, or on
/// the sweep workload the whole sweep); cold jobs compute from scratch,
/// warm jobs answer a repeat from the result cache; a batch is one pass
/// over the workload's inputs.
#[derive(Debug, Default)]
pub struct JobLog {
    /// Wall time of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Wall time of each scenario, ms.
    pub scenario_ms: Vec<f64>,
    /// Cold job latency, ms.
    pub cold_ms: Vec<f64>,
    /// Cold job time to first row, ms.
    pub cold_first_row_ms: Vec<f64>,
    /// Warm job latency, ms.
    pub warm_ms: Vec<f64>,
    /// Batch wall time, seconds.
    pub batch_s: Vec<f64>,
    /// Rows of the first batch (a fixed function of the seed).
    pub first_batch: RowTotals,
}

impl JobLog {
    /// The end-to-end metrics of this log.
    pub fn end_to_end(&self, tally: &Tally) -> Metrics {
        let mut m = Metrics::new();
        let med = |xs: &[f64]| median(xs).unwrap_or(f64::NAN);
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        let pct = |xs: &[f64], q: f64| {
            let mut s = xs.to_vec();
            s.sort_by(f64::total_cmp);
            if s.is_empty() {
                f64::NAN
            } else {
                percentile(&s, q)
            }
        };
        let measured: f64 = self.batch_s.iter().sum();
        let jobs = self.cold_ms.len() + self.warm_ms.len();
        let rows = self.first_batch;
        m.insert("setup_s", (med(&self.setup_s), self.setup_s.len()));
        m.insert(
            "scenario_s",
            (mean(&self.scenario_ms) / 1e3, self.scenario_ms.len()),
        );
        m.insert(
            "first_row_s",
            (
                mean(&self.cold_first_row_ms) / 1e3,
                self.cold_first_row_ms.len(),
            ),
        );
        m.insert("sweep_s", (mean(&self.batch_s), self.batch_s.len()));
        m.insert(
            "cells_per_cycle",
            (rows.cells as f64 / rows.cycles.max(1) as f64, rows.cycles),
        );
        m.insert(
            "within_eps_rate",
            (rows.within as f64 / rows.cycles.max(1) as f64, rows.cycles),
        );
        m.insert("cold_job_ms_p50", (med(&self.cold_ms), self.cold_ms.len()));
        m.insert(
            "cold_job_ms_p90",
            (pct(&self.cold_ms, 0.9), self.cold_ms.len()),
        );
        m.insert("warm_job_ms_p50", (med(&self.warm_ms), self.warm_ms.len()));
        m.insert(
            "warm_job_ms_p90",
            (pct(&self.warm_ms, 0.9), self.warm_ms.len()),
        );
        m.insert(
            "first_row_ms_p50",
            (med(&self.cold_first_row_ms), self.cold_first_row_ms.len()),
        );
        m.insert("jobs_per_s", (jobs as f64 / measured.max(1e-9), jobs));
        m.insert(
            "ok_frac",
            (1.0 - tally.failed_frac(), tally.attempted as usize),
        );
        m
    }

    /// Lines describing each timing distribution with its sample count.
    pub fn describe(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (name, xs) in [
            ("setup_s", &self.setup_s),
            ("cold_job_ms", &self.cold_ms),
            ("cold_first_row_ms", &self.cold_first_row_ms),
            ("warm_job_ms", &self.warm_ms),
            ("batch_s", &self.batch_s),
        ] {
            if !xs.is_empty() {
                out.push(format!("{name:<20} {}", Summary::of(xs).describe()));
            }
        }
        out
    }
}

/// Formats a metric value as a JSON number with all its digits.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_owned()
    }
}

/// The result line: exactly the listed metrics, in list order.
pub fn result_line(
    correct: bool,
    tally: &Tally,
    names: &[(&str, &str)],
    metrics: &Metrics,
) -> String {
    let body: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = metrics.get(name).map_or(0.0, |&(v, _)| v);
            format!(
                r#""{name}":{{"value":{},"unit":"{unit}"}}"#,
                json_number(value)
            )
        })
        .collect();
    format!(
        r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        tally.attempted.max(1),
        tally.failed,
        body.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_lists_every_metric_once() {
        let mut metrics = Metrics::new();
        metrics.insert("setup_s", (0.25, 3));
        let tally = Tally {
            attempted: 10,
            ..Tally::default()
        };
        let line = result_line(true, &tally, &END_TO_END, &metrics);
        assert!(line.starts_with(r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"#));
        assert!(line.contains(r#""setup_s":{"value":0.25,"unit":"s"}"#));
        assert!(line.contains(r#""ok_frac":{"value":0.0,"unit":"frac"}"#));
        assert_eq!(line.matches(r#""unit""#).count(), END_TO_END.len());
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut tally = Tally {
            attempted: 4,
            ..Tally::default()
        };
        tally.check(true, || unreachable!());
        tally.check(false, || "bad bytes".to_owned());
        assert_eq!((tally.failed, tally.failed_frac()), (1, 0.25));
        let log = JobLog {
            scenario_ms: vec![10.0, 20.0, 30.0],
            cold_ms: vec![10.0, 20.0, 30.0],
            batch_s: vec![1.0],
            ..JobLog::default()
        };
        let m = log.end_to_end(&tally);
        assert_eq!(m["ok_frac"].0, 0.75);
        assert_eq!(m["cold_job_ms_p50"], (20.0, 3));
        assert_eq!(m["jobs_per_s"], (3.0, 3));
    }
}
