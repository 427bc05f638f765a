//! Timing helpers: sample collection, order statistics, peak memory.

use std::time::{Duration, Instant};

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile of `xs` (linear interpolation between order
/// statistics, `q` in `[0, 1]`).
///
/// # Panics
///
/// Panics on an empty sample: every caller measures at least once.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Runs `f` until `budget` has elapsed and at least `min_reps` repetitions
/// ran, timing each repetition on its own. `f` receives a stopwatch it
/// may restart to exclude per-repetition preparation from the sample.
/// Returns the per-repetition wall times in milliseconds.
pub fn sample_ms(budget: Duration, min_reps: usize, mut f: impl FnMut(&mut Instant)) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_reps || start.elapsed() < budget {
        let mut t0 = Instant::now();
        f(&mut t0);
        out.push(ms(t0.elapsed()));
    }
    out
}

/// The mean of `xs` once the lowest and the highest `trim` share of
/// the sample are dropped (`trim` in `[0, 0.5)`; at least one value is
/// kept).
///
/// # Panics
///
/// Panics on an empty sample.
pub fn trimmed_mean(xs: &[f64], trim: f64) -> f64 {
    assert!(!xs.is_empty(), "mean of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = ((v.len() as f64 * trim.clamp(0.0, 0.5)) as usize).min((v.len() - 1) / 2);
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Median milliseconds of `f` over [`sample_ms`].
pub fn median_ms(budget: Duration, min_reps: usize, mut f: impl FnMut()) -> f64 {
    median(&sample_ms(budget, min_reps, |_| f()))
}

/// One step of a [`Pacer`]-driven closed loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Run (and time) one set-up.
    Setup,
    /// Run one operation.
    Op,
    /// The loop is over.
    Done,
}

/// Paces a closed loop: operations run back to back for `span`, and
/// `setups` set-ups are spread evenly over the same span (the first
/// before any operation). A shared host drifts between fast and slow
/// phases lasting about a second, so set-ups bunched at the start would
/// all land in one phase; spread out, their median sees the same phases
/// as the operations. Time spent in set-ups does not count toward `span`.
pub struct Pacer {
    start: Instant,
    span: Duration,
    setups: usize,
    setups_done: usize,
    ops: usize,
    paused: Duration,
    in_setup: Option<Instant>,
}

impl Pacer {
    /// A pacer for `setups` set-ups (at least one) over `span`.
    pub fn new(span: Duration, setups: usize) -> Self {
        Pacer {
            start: Instant::now(),
            span,
            setups: setups.max(1),
            setups_done: 0,
            ops: 0,
            paused: Duration::ZERO,
            in_setup: None,
        }
    }

    /// What to do next.
    pub fn next(&mut self) -> Step {
        if let Some(t) = self.in_setup.take() {
            self.paused += t.elapsed();
        }
        let elapsed = self.start.elapsed().saturating_sub(self.paused);
        let due = self
            .span
            .mul_f64(self.setups_done as f64 / self.setups as f64);
        if self.setups_done < self.setups && elapsed >= due {
            self.setups_done += 1;
            self.in_setup = Some(Instant::now());
            Step::Setup
        } else if self.ops == 0 || elapsed < self.span {
            self.ops += 1;
            Step::Op
        } else {
            Step::Done
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
///
/// # Errors
///
/// Returns an error when `/proc/self/status` is unreadable or has no
/// `VmHWM` line (the benchmark needs Linux procfs).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("parsing `{line}`: {e}"))?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn trimmed_mean_drops_both_tails() {
        let xs = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, -50.0];
        assert_eq!(trimmed_mean(&xs, 0.1), 4.5);
        assert_eq!(trimmed_mean(&[1.0, 3.0], 0.0), 2.0);
        assert_eq!(trimmed_mean(&[1.0, 2.0, 9.0], 0.45), 2.0);
        assert_eq!(trimmed_mean(&[7.0], 0.4), 7.0);
    }

    #[test]
    fn pacer_spreads_setups_and_runs_an_op() {
        let mut p = Pacer::new(Duration::ZERO, 3);
        let steps: Vec<Step> = std::iter::from_fn(|| Some(p.next()))
            .take_while(|s| *s != Step::Done)
            .collect();
        assert_eq!(steps, [Step::Setup, Step::Setup, Step::Setup, Step::Op]);
    }
}
