//! The metric catalogue and the result line.
//!
//! Every run reports a fixed set of metrics: with tracing off the
//! end-to-end set, with tracing on the per-layer set. Per-layer metrics
//! start at 0 and each workload fills the layers it exercises, so a 0
//! reads "this layer does no work on this workload" (relay traffic on a
//! single-stage plan, checkpoints outside `recover`, and so on).

use pipebd_json::{Number, Value};

/// End-to-end metrics `(name, unit)`, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("samples_per_s", "1/s"),
    ("plans_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Convolution kernels timed from outside, by metric prefix.
pub const CONV_KERNELS: [&str; 3] = ["conv3x3", "dwconv3x3", "pwconv"];
/// The three passes of each convolution kernel.
pub const CONV_PASSES: [&str; 3] = ["fwd", "grad_input", "grad_weight"];
/// Executor span kinds broken out per stage.
pub const STAGE_KINDS: [&str; 7] = [
    "load",
    "teacher",
    "student",
    "update",
    "relay",
    "grad_share",
    "barrier",
];
/// Stages broken out in the per-stage metrics (the widest plan has two).
pub const STAGES: usize = 2;
/// Blocks of the miniature models.
pub const BLOCKS: usize = 4;

/// Per-layer metrics `(name, unit)`, measured in the traced run.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = vec![("data.batch_ms".into(), "ms")];
    for k in CONV_KERNELS {
        for p in CONV_PASSES {
            m.push((format!("tensor.{k}.{p}_gflops"), "GFLOP/s"));
            m.push((format!("tensor.{k}.{p}_roofline"), "ratio"));
        }
    }
    for (name, unit) in [
        ("tensor.gemm_ceiling_gflops", "GFLOP/s"),
        ("tensor.pool2.speedup", "ratio"),
        ("tensor.pool2.steals", "count"),
        ("tensor.pool2.parks", "count"),
        ("tensor.pool2.wakes", "count"),
    ] {
        m.push((name.into(), unit));
    }
    for what in ["teacher_fwd_ms", "student_step_ms", "update_ms"] {
        for b in 0..BLOCKS {
            m.push((format!("nn.{what}.b{b}"), "ms"));
        }
    }
    for (name, unit) in [
        ("exec.call_ms", "ms"),
        ("exec.period_ms", "ms"),
        ("exec.bubble_ratio", "ratio"),
        ("exec.bottleneck_stage", "index"),
    ] {
        m.push((name.into(), unit));
    }
    for s in 0..STAGES {
        m.push((format!("exec.s{s}.busy_ratio"), "ratio"));
        for k in STAGE_KINDS {
            m.push((format!("exec.s{s}.{k}_ms"), "ms"));
        }
    }
    for (name, unit) in [
        ("exec.relay_bytes_per_step", "B"),
        ("exec.relay_sends_per_step", "count"),
        ("exec.spawn_ms", "ms"),
        ("exec.fill_ms", "ms"),
        ("exec.steady_ms", "ms"),
        ("exec.drain_ms", "ms"),
        ("exec.teardown_ms", "ms"),
        ("exec.final_loss", "mse"),
        ("trace.overhead_ratio", "ratio"),
        ("ckpt.capture_ms", "ms"),
        ("ckpt.stored", "count"),
        ("recovery.restore_ms", "ms"),
        ("recovery.replan_ms", "ms"),
        ("recovery.restores", "count"),
        ("recovery.replans", "count"),
        ("recovery.replayed_steps", "count"),
        ("fault.recv_wait_ms", "ms"),
        ("sched.profile_ms", "ms"),
        ("sched.ahd_search_ms", "ms"),
        ("sched.replan_ms", "ms"),
        ("lower.lower_ms", "ms"),
        ("lower.tasks", "count"),
        ("sim.simulate_ms", "ms"),
        ("sim.tasks_per_s", "1/s"),
        ("sim.breakdown_ms", "ms"),
    ] {
        m.push((name.into(), unit));
    }
    m
}

/// One run's tally: operations attempted and failed, the metrics, and
/// the run description printed beside them.
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    description: Vec<(String, Value)>,
}

impl Report {
    /// A report whose metric set is the end-to-end catalogue (`traced ==
    /// false`) or the per-layer catalogue, every value 0 until set.
    pub fn new(traced: bool) -> Self {
        let metrics = if traced {
            per_layer().into_iter().map(|(n, u)| (n, 0.0, u)).collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_owned(), f64::NAN, u))
                .collect()
        };
        Report {
            attempted: 0,
            failed: 0,
            metrics,
            description: Vec::new(),
        }
    }

    /// Counts one checked operation; a failed one is logged with its
    /// reason and never retried.
    pub fn op(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            eprintln!("perfbench: {what} failed: {e}");
        }
    }

    /// Sets a catalogued metric.
    ///
    /// # Panics
    ///
    /// Panics on a name outside the run's catalogue (a benchmark bug).
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .metrics
            .iter_mut()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in this run's catalogue"));
        slot.1 = value;
    }

    /// Adds a run-description entry.
    pub fn describe(&mut self, key: &str, value: Value) {
        self.description.push((key.to_owned(), value));
    }

    /// Whether every operation passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.1.is_finite())
    }

    /// The run description as one JSON object.
    pub fn description_json(&self) -> Value {
        Value::Object(self.description.clone())
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                if !value.is_finite() {
                    eprintln!("perfbench: metric {name} was not measured ({value})");
                }
                (
                    name.clone(),
                    Value::Object(vec![
                        ("value".into(), num(*value)),
                        ("unit".into(), Value::String((*unit).into())),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct())),
            (
                "attempted".into(),
                Value::Number(Number::PosInt(self.attempted)),
            ),
            ("failed".into(), Value::Number(Number::PosInt(self.failed))),
            ("metrics".into(), Value::Object(metrics)),
        ])
    }
}

/// A JSON integer.
pub fn int(n: u64) -> Value {
    Value::Number(Number::PosInt(n))
}

/// A JSON number; non-finite values (unmeasured metrics) render as 0 and
/// make the run incorrect through [`Report::correct`].
pub fn num(v: f64) -> Value {
    Number::from_f64(v).map_or(Value::Number(Number::PosInt(0)), Value::Number)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root lists exactly this
    /// catalogue, in order, with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let doc = pipebd_json::parse(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_owned();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_owned()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
    }
}
