//! Executor breakdown from one traced call: the steady-state summary,
//! per-stage span kinds per warm step, relay volume, and the wall-time
//! split (spawn, fill, steady, drain, teardown).

use std::collections::BTreeSet;
use std::path::Path;

use pipebd_json::Value;
use pipebd_trace::{summarize, SpanKind, TraceReport};

use crate::report::{Report, STAGES, STAGE_KINDS};

fn ns_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Records the `exec.*` metrics of a traced call. `window` is the call's
/// start and end on the collector's clock, so the five split components
/// add up to `exec.call_ms` exactly.
///
/// # Errors
///
/// Returns an error when the report cannot be summarized (no tracks, or
/// some step without an update span).
pub fn record(
    rep: &mut Report,
    report: &TraceReport,
    steps: usize,
    window: (u64, u64),
) -> Result<(), String> {
    let summary = summarize(report, steps as u32, (steps / 2) as u32)?;
    rep.set("exec.period_ms", ns_ms(summary.measured_period_ns));
    rep.set("exec.bubble_ratio", summary.bubble_ratio);
    rep.set("exec.bottleneck_stage", summary.bottleneck_stage as f64);
    for st in summary.stages.iter().filter(|st| st.stage < STAGES) {
        rep.set(&format!("exec.s{}.busy_ratio", st.stage), st.busy_ratio);
    }

    // Per stage and span kind: time per warm step (step 0 excluded),
    // averaged over the stage's members. On stages after the first,
    // `load` is the wait for the relayed activation.
    for stage in 0..STAGES {
        let mut warm_steps = 0usize;
        let mut totals = [0u64; STAGE_KINDS.len()];
        for track in report.tracks.iter().filter(|t| t.stage == stage) {
            let warm = track.spans.iter().filter(|s| s.step >= 1);
            warm_steps += warm.clone().map(|s| s.step).collect::<BTreeSet<_>>().len();
            for span in warm {
                if let Some(i) = STAGE_KINDS.iter().position(|k| *k == span.kind.label()) {
                    totals[i] += span.dur_ns();
                }
            }
        }
        if warm_steps > 0 {
            for (kind, total) in STAGE_KINDS.iter().zip(totals) {
                let per_step = total as f64 / warm_steps as f64 / 1e6;
                rep.set(&format!("exec.s{stage}.{kind}_ms"), per_step);
            }
        }
    }

    let per_step =
        |counter: &str| report.metrics.counter(counter).unwrap_or(0) as f64 / steps as f64;
    rep.set("exec.relay_bytes_per_step", per_step("relay.bytes"));
    rep.set("exec.relay_sends_per_step", per_step("relay.sends"));

    let split = split(report, window).ok_or("trace has no spans")?;
    for (name, ns) in ["spawn", "fill", "steady", "drain", "teardown"]
        .iter()
        .zip(split)
    {
        rep.set(&format!("exec.{name}_ms"), ns_ms(ns));
    }
    rep.set("exec.call_ms", ns_ms(split.iter().sum()));
    Ok(())
}

/// Splits the call window at five instants: the first span starts (end
/// of spawn); every device thread has started teacher work (end of
/// fill); the first device thread has finished (start of drain); the
/// last span ends (start of teardown). Each boundary is clamped into
/// order, so the parts always sum to the window.
fn split(report: &TraceReport, (start, end): (u64, u64)) -> Option<[u64; 5]> {
    let spans = || report.tracks.iter().flat_map(|t| t.spans.iter());
    let first = spans().map(|s| s.t0_ns).min()?;
    let last = spans().map(|s| s.t1_ns).max()?;
    let all_working = report
        .tracks
        .iter()
        .filter_map(|t| {
            t.spans
                .iter()
                .filter(|s| s.kind == SpanKind::Teacher)
                .map(|s| s.t0_ns)
                .min()
        })
        .max()
        .unwrap_or(first);
    let first_done = report
        .tracks
        .iter()
        .filter_map(|t| t.spans.iter().map(|s| s.t1_ns).max())
        .min()
        .unwrap_or(last);
    let b1 = first.max(start);
    let b4 = last.max(b1);
    let b5 = end.max(b4);
    let b2 = all_working.clamp(b1, b4);
    let b3 = first_done.clamp(b2, b4);
    Some([b1 - start, b2 - b1, b3 - b2, b4 - b3, b5 - b4])
}

/// Writes a JSON document, creating its directory.
///
/// # Errors
///
/// Returns the I/O error as text.
pub fn write(path: &str, doc: &Value) -> Result<(), String> {
    let path = Path::new(path);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, pipebd_json::render::compact(doc))
        .map_err(|e| format!("{}: {e}", path.display()))
}
