//! Metric names, units and the result a workload run produces.
//!
//! The tables below are the benchmark's metric contract; every name in them
//! is emitted on every workload. The result line carries the end-to-end
//! table with `--trace 0` and the per-layer table with `--trace 1`; the
//! reported table is printed by name on every run but left out of the
//! result line, because its values move with the seed by more than any
//! regression bound the benchmark could hold them to.

use std::fmt::Write as _;

/// One named metric and its unit.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// End-to-end metrics, measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("reads_per_s", "reads/s"),
    m("reads_within_slo", "ratio"),
    m("peak_rss_mb", "MB"),
];

/// End-to-end metrics printed on every run but not in the result line:
/// their spread across seeds exceeds the largest regression bound allowed.
pub const REPORTED: &[MetricDef] = &[
    m("train_s", "s"),
    m("loop_s", "s"),
    m("read_mean_us", "sim_us"),
    m("read_p50_us", "sim_us"),
    m("read_p999_us", "sim_us"),
    m("model_auc_min", "ratio"),
    m("failed_frac", "ratio"),
];

/// Per-layer metrics, measured by the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    m("trace.gen_s", "s"),
    m("core.collect.records_per_s", "records/s"),
    m("ssd.submit_ns", "ns"),
    m("ssd.gc_events", "count"),
    m("core.labeling.tune_s", "s"),
    m("core.labeling.relabel_ms", "ms"),
    m("core.labeling.slow_frac", "ratio"),
    m("core.labeling.acc_vs_truth", "ratio"),
    m("core.filtering.s", "s"),
    m("core.filtering.removed_frac", "ratio"),
    m("core.features.s", "s"),
    m("core.features.rows_per_s", "rows/s"),
    m("nn.train_s", "s"),
    m("nn.train_rows_per_s", "rows/s"),
    m("nn.quantize_s", "s"),
    m("nn.score_ns_per_row", "ns"),
    m("nn.logit_ns", "ns"),
    m("core.pipeline.other_s", "s"),
    m("policies.route_ns_p50", "ns"),
    m("policies.route_ns_p999", "ns"),
    m("policies.completion_ns_p50", "ns"),
    m("policies.decisions", "count"),
    m("policies.reroute_frac", "ratio"),
    m("policies.probe_frac", "ratio"),
    m("cluster.replayer.queue_s", "s"),
    m("cluster.replayer.device_s", "s"),
    m("cluster.replayer.policy_s", "s"),
    m("cluster.replayer.recorder_s", "s"),
    m("cluster.replayer.self_s", "s"),
    m("cluster.replayer.events_per_s", "events/s"),
    m("cluster.replayer.baseline_s", "s"),
    m("cluster.wide.baseline_s", "s"),
    m("cluster.wide.admission_s", "s"),
    m("cluster.wide.admission_ns_per_subread", "ns"),
    m("cluster.wide.reroute_frac", "ratio"),
    m("cluster.train.s", "s"),
    m("bench.trace_overhead_s", "s"),
];

/// The metric table a run in this mode emits.
pub fn table(trace: bool) -> &'static [MetricDef] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// One correctness check and its outcome.
#[derive(Debug, Clone)]
pub struct Check {
    /// Check name.
    pub name: String,
    /// Whether it passed.
    pub ok: bool,
    /// What was compared.
    pub detail: String,
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: reads replayed plus per-device trainings.
    pub attempted: u64,
    /// Operations failed: reads lost plus trainings that returned an error.
    pub failed: u64,
    /// Correctness checks, in the order they ran.
    pub checks: Vec<Check>,
    /// Metric values by name.
    pub values: Vec<(&'static str, f64)>,
    /// Human-readable `key=value` facts about the run.
    pub info: Vec<String>,
}

impl Outcome {
    /// Sets a metric value (last write wins).
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// Looks a metric up.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|v| v.1)
    }

    /// Records a correctness check. A check run again under the same name
    /// (once per iteration) keeps one entry that passes only if every run
    /// passed, with the detail of the first failure.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        match self.checks.iter_mut().find(|c| c.name == name) {
            Some(c) if c.ok && !ok => {
                c.ok = false;
                c.detail = detail.into();
            }
            Some(_) => {}
            None => self.checks.push(Check {
                name: name.to_string(),
                ok,
                detail: detail.into(),
            }),
        }
    }

    /// Adds a `key=value` fact.
    pub fn info(&mut self, key: &str, value: impl std::fmt::Display) {
        self.info.push(format!("{key}={value}"));
    }

    /// Records that every metric of the mode's table and of [`REPORTED`]
    /// is present and finite.
    pub fn check_metrics(&mut self, trace: bool) {
        let bad: Vec<&str> = table(trace)
            .iter()
            .chain(REPORTED)
            .filter(|d| !self.get(d.name).is_some_and(f64::is_finite))
            .map(|d| d.name)
            .collect();
        self.check(
            "metrics_present_and_finite",
            bad.is_empty(),
            format!("missing or non-finite: {bad:?}"),
        );
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The `metrics` JSON object for this mode's table, keys prefixed with
    /// `prefix`. Missing or non-finite values print as 0 (the
    /// `metrics_present_and_finite` check has already failed the run).
    pub fn metrics_json(&self, trace: bool, prefix: &str, out: &mut String) {
        for (i, d) in table(trace).iter().enumerate() {
            let v = self.get(d.name).filter(|v| v.is_finite()).unwrap_or(0.0);
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{prefix}{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
    }
}

/// The final result line for one or more workload outcomes. A single
/// workload prints its metrics by name; several prefix each name with the
/// workload's name and `/`.
pub fn result_line(outcomes: &[(&str, &Outcome)], trace: bool) -> String {
    let correct = outcomes.iter().all(|(_, o)| o.correct());
    let attempted: u64 = outcomes.iter().map(|(_, o)| o.attempted).sum();
    let failed: u64 = outcomes.iter().map(|(_, o)| o.failed).sum();
    let mut metrics = String::new();
    for (i, (name, o)) in outcomes.iter().enumerate() {
        if i > 0 {
            metrics.push_str(", ");
        }
        let prefix = if outcomes.len() == 1 {
            String::new()
        } else {
            format!("{name}/")
        };
        o.metrics_json(trace, &prefix, &mut metrics);
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{metrics}}}}}",
        attempted.max(1)
    )
}
