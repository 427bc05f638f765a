//! The four training workloads: a closed loop of back-to-back executor
//! calls on the miniature models, every call checked against an oracle
//! computed once per run by the sequential reference executor.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pipebd_core::exec::recovery::{RecoveryPolicy, RecoveryRunner};
use pipebd_core::exec::threaded::{self, RunHooks};
use pipebd_core::exec::{reference, FuncConfig, FuncOutcome};
use pipebd_core::MemorySink;
use pipebd_data::SyntheticImageDataset;
use pipebd_json::Value;
use pipebd_models::{
    mini_student_dsconv, mini_student_supernet, mini_teacher, MiniConfig, Workload,
};
use pipebd_nn::BlockNet;
use pipebd_sched::StagePlan;
use pipebd_sim::{FaultEvent, FaultScript};
use pipebd_tensor::Rng64;
use pipebd_trace::{SpanKind, TraceCollector, TraceMode, TraceReport};

use crate::report::{int, num, Report};
use crate::stats::{median, peak_rss_mb, quantile, trimmed_mean, Pacer, Step};
use crate::{exec_trace, layers};

/// Miniature teacher/student shape shared by every training workload.
pub const MINI: MiniConfig = MiniConfig {
    blocks: 4,
    channels: 8,
    batch_norm: false,
};
/// Synthetic dataset: samples, square image side, classes.
pub const SAMPLES: u64 = 1024;
/// Image side of the synthetic dataset.
pub const SIDE: usize = 16;
const CLASSES: usize = 10;
/// Global batch.
pub const BATCH: usize = 32;
/// Optimizer steps per executor call of the threaded workloads.
pub const STEPS: usize = 16;
/// Optimizer steps per `single-worker` call: short calls, so that many
/// of them fall wholly between the host's stolen vCPU slots (see
/// [`Kind::call_estimate`]).
const SINGLE_WORKER_STEPS: usize = 4;
/// `single-worker`: the quantile of its call walls it reports.
const SINGLE_WORKER_QUANTILE: f64 = 0.1;
/// Threaded workloads: the share of calls dropped from each end before
/// the call walls are averaged.
const THREADED_TRIM: f64 = 0.1;
/// Host compute lanes: device threads plus pool lanes never exceed this.
pub const POOL_BUDGET: usize = 2;
/// `recover`: checkpoint interval, and the rank lost mid-run.
const CKPT_EVERY: usize = 4;
const LOST_RANK: usize = 1;
const LOSS_STEP: usize = 10;
/// The executor's documented parity bound for batch-split plans.
const SPLIT_TOLERANCE: f32 = 1e-4;
/// Set-ups per run (`setup_s` is their median).
const SETUP_REPS: usize = 5;
/// Traced run: minimum untraced/traced call pairs (the overhead ratio's
/// sample); more run while the executor's share of `--seconds` lasts.
const MIN_TRACED_PAIRS: usize = 3;
/// Traced run: share of `--seconds` spent on the outside layer timings
/// (the rest goes to the call pairs).
const LAYER_SHARE: f64 = 0.7;

/// A training workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Contiguous teacher-relaying plan over two device threads.
    Pipeline,
    /// One stage of width two: every block batch-split, supernet student.
    BatchSplit,
    /// The sequential reference executor under a width-2 pool.
    SingleWorker,
    /// `Pipeline` under a host-loss script with checkpoint recovery.
    Recover,
}

impl Kind {
    /// Per-device batch: the batch each device's kernels see.
    pub fn device_batch(self) -> usize {
        match self {
            Kind::BatchSplit => BATCH / 2,
            _ => BATCH,
        }
    }

    /// Optimizer steps per executor call.
    pub fn steps(self) -> usize {
        match self {
            Kind::SingleWorker => SINGLE_WORKER_STEPS,
            _ => STEPS,
        }
    }

    /// The per-call wall time the end-to-end metrics report, from the
    /// run's call walls.
    ///
    /// A threaded call's wall is bimodal on the 2-vCPU VM this was built
    /// on: each call spawns its device threads afresh, and a call either
    /// overlaps its two stages (about 150 ms) or partly serialises them
    /// (about 240 ms), switching from call to call in runs of a few. The
    /// median then falls between the modes and jumps with the mix (its
    /// spread over ten runs reached 20 %), while the mean moves only in
    /// proportion to it; trimming 10 % from each end ignores a rare
    /// stall. Over ten runs the trimmed mean spread 5-10 %, the upper
    /// end from the host's own drift over minutes.
    ///
    /// The single worker's width-2 pool joins both lanes after every
    /// kernel, so a vCPU slot the hypervisor steals from either lane
    /// stalls the whole call: runs with steal time had a median 16-step
    /// call up to 2x that of a quiet run. Its calls are therefore short
    /// and the fast tail is reported: the 10th percentile of 4-step
    /// calls spread 4-12 % over ten runs (the upper end from the host's
    /// drift), where the median of 16-step calls spread 18-42 %. A
    /// slower code path slows the fast tail too.
    fn call_estimate(self, walls: &[f64]) -> f64 {
        match self {
            Kind::SingleWorker => quantile(walls, SINGLE_WORKER_QUANTILE),
            _ => trimmed_mean(walls, THREADED_TRIM),
        }
    }

    /// Whether the executor behind this workload records trace spans.
    fn traced(self) -> bool {
        self != Kind::SingleWorker
    }
}

/// Everything one executor call needs, built from the seed.
pub struct Setup {
    /// Teacher network.
    pub teacher: BlockNet,
    /// Student network (initial weights).
    pub student: BlockNet,
    /// Training data.
    pub data: SyntheticImageDataset,
    /// Executor configuration.
    pub cfg: FuncConfig,
    workload: Workload,
    script: FaultScript,
}

impl Setup {
    /// Kernel-pool width of each device (the budget split by the plan;
    /// the single worker holds the whole budget).
    pub fn pool_widths(&self) -> Vec<usize> {
        match &self.cfg.plan {
            Some(plan) => plan.intra_pool_widths(self.cfg.pool_budget()),
            None => vec![self.cfg.pool_budget()],
        }
    }
}

/// Builds the models, dataset, plan and configuration of `kind`.
///
/// # Errors
///
/// Returns an error if the plan cannot be built.
pub fn build(kind: Kind, seed: u64) -> Result<Setup, String> {
    let mut rng = Rng64::seed_from_u64(seed);
    let teacher = mini_teacher(MINI, &mut rng);
    let student = match kind {
        Kind::BatchSplit => mini_student_supernet(MINI, &mut rng),
        _ => mini_student_dsconv(MINI, &mut rng),
    };
    let data = SyntheticImageDataset::mini(SAMPLES, SIDE, CLASSES, seed);
    let b = MINI.blocks;
    let (devices, plan) = match kind {
        Kind::Pipeline | Kind::Recover => (2, Some(StagePlan::contiguous(b, 2))),
        Kind::BatchSplit => (2, Some(StagePlan::from_widths(&[(b, 2)], b, 2))),
        Kind::SingleWorker => (1, None),
    };
    let plan = plan.transpose().map_err(|e| e.to_string())?;
    let cfg = FuncConfig {
        devices,
        steps: kind.steps(),
        batch: BATCH,
        lr: 0.05,
        momentum: 0.9,
        plan,
        decoupled_updates: true,
        pool_size: Some(POOL_BUDGET),
    };
    let script = FaultScript {
        events: vec![FaultEvent::HostLoss {
            rank: LOST_RANK,
            at_step: LOSS_STEP as u32,
        }],
    };
    Ok(Setup {
        teacher,
        student,
        data,
        cfg,
        workload: Workload::synthetic(b, false),
        script,
    })
}

/// What the recovery runner reported for one call.
struct RecoveryStats {
    restores: usize,
    replans: usize,
    resumed_rounds: Vec<usize>,
    fell_back: bool,
    final_devices: usize,
    stored: usize,
}

/// One executor call's result.
struct Call {
    outcome: FuncOutcome,
    recovery: Option<RecoveryStats>,
}

/// One executor call of `kind`; errors and panics both become `Err`.
fn call(kind: Kind, s: &Setup, trace: Option<Arc<TraceCollector>>) -> Result<Call, String> {
    let run = || -> Result<Call, String> {
        let plain = |outcome| Call {
            outcome,
            recovery: None,
        };
        match kind {
            Kind::Pipeline | Kind::BatchSplit => {
                let hooks = RunHooks {
                    trace,
                    ..RunHooks::default()
                };
                threaded::run_hooked(&s.teacher, &s.student, &s.data, &s.cfg, &hooks)
                    .map(plain)
                    .map_err(|e| e.to_string())
            }
            Kind::SingleWorker => reference::run(&s.teacher, &s.student, &s.data, &s.cfg)
                .map(plain)
                .map_err(|e| e.to_string()),
            Kind::Recover => {
                let sink = Arc::new(MemorySink::new());
                let runner = RecoveryRunner {
                    workload: &s.workload,
                    script: &s.script,
                    policy: RecoveryPolicy {
                        checkpoint_every: CKPT_EVERY,
                        ..RecoveryPolicy::default()
                    },
                    sink: sink.clone(),
                    trace,
                };
                let r = runner
                    .run(&s.teacher, &s.student, &s.data, &s.cfg)
                    .map_err(|e| e.to_string())?;
                Ok(Call {
                    outcome: r.outcome,
                    recovery: Some(RecoveryStats {
                        restores: r.restores,
                        replans: r.replans,
                        resumed_rounds: r.resumed_rounds,
                        fell_back: r.fell_back,
                        final_devices: r.final_devices,
                        stored: sink.stored(),
                    }),
                })
            }
        }
    };
    catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|_| Err("executor call panicked".into()))
}

/// The oracle: the sequential reference on a serial pool.
fn oracle(kind: Kind, seed: u64) -> Result<FuncOutcome, String> {
    let s = build(kind, seed)?;
    let cfg = FuncConfig {
        pool_size: Some(1),
        ..s.cfg.clone()
    };
    reference::run(&s.teacher, &s.student, &s.data, &cfg).map_err(|e| e.to_string())
}

/// Compares every parameter and loss of two outcomes: bitwise when
/// `tol` is `None`, else within `tol` absolute (NaN never passes).
fn compare(got: &FuncOutcome, want: &FuncOutcome, tol: Option<f32>) -> Result<(), String> {
    let same = |a: f32, b: f32| match tol {
        None => a.to_bits() == b.to_bits(),
        Some(t) => (a - b).abs() <= t,
    };
    if got.params.len() != want.params.len() || got.losses.len() != want.losses.len() {
        return Err("block count differs from the oracle".into());
    }
    for (block, (g, w)) in got.params.iter().zip(&want.params).enumerate() {
        if g.len() != w.len() {
            return Err(format!("block {block}: parameter count differs"));
        }
        for (gt, wt) in g.iter().zip(w) {
            if gt.dims() != wt.dims() {
                return Err(format!("block {block}: parameter shape differs"));
            }
            if let Some((a, b)) = gt
                .data()
                .iter()
                .zip(wt.data())
                .find(|(a, b)| !same(**a, **b))
            {
                return Err(format!("block {block}: parameter {a} != oracle {b}"));
            }
        }
    }
    for (block, (g, w)) in got.losses.iter().zip(&want.losses).enumerate() {
        if g.len() != w.len() {
            return Err(format!("block {block}: step count differs"));
        }
        if let Some((a, b)) = g.iter().zip(w).find(|(a, b)| !same(**a, **b)) {
            return Err(format!("block {block}: loss {a} != oracle {b}"));
        }
    }
    Ok(())
}

/// The correctness check applied to every call.
fn check(kind: Kind, c: &Call, oracle: &FuncOutcome) -> Result<(), String> {
    let tol = (kind == Kind::BatchSplit).then_some(SPLIT_TOLERANCE);
    compare(&c.outcome, oracle, tol)?;
    if let Some(r) = &c.recovery {
        if r.restores != 1 || r.replans != 1 || r.fell_back || r.final_devices != 1 {
            return Err(format!(
                "expected one restore and one replan onto 1 device, got restores={} \
                 replans={} fell_back={} final_devices={}",
                r.restores, r.replans, r.fell_back, r.final_devices
            ));
        }
        if r.stored == 0 {
            return Err("no checkpoint was stored".into());
        }
    }
    Ok(())
}

/// Mean over blocks of the last-step distillation loss.
fn final_loss(o: &FuncOutcome) -> f64 {
    let l = o.final_losses();
    l.iter().map(|&x| f64::from(x)).sum::<f64>() / l.len().max(1) as f64
}

/// Runs `call` once, checks it against the oracle, and tallies it.
/// Returns the call's window in nanoseconds (the check excluded), on
/// the collector's clock when traced, so the window and the spans share
/// a time base.
fn checked_call(
    rep: &mut Report,
    kind: Kind,
    s: &Setup,
    oracle: &FuncOutcome,
    trace: Option<Arc<TraceCollector>>,
) -> ((u64, u64), Option<Call>) {
    let origin = Instant::now();
    let clock = |tc: &Option<Arc<TraceCollector>>| {
        tc.as_ref()
            .map_or_else(|| origin.elapsed().as_nanos() as u64, |t| t.now_ns())
    };
    let t0 = clock(&trace);
    let r = call(kind, s, trace.clone());
    let window = (t0, clock(&trace));
    let r = r.and_then(|c| check(kind, &c, oracle).map(|()| c));
    let (res, c) = match r {
        Ok(c) => (Ok(()), Some(c)),
        Err(e) => (Err(e), None),
    };
    rep.op("executor call", res);
    (window, c)
}

/// Milliseconds spanned by a nanosecond window.
fn window_ms((t0, t1): (u64, u64)) -> f64 {
    (t1 - t0) as f64 / 1e6
}

fn describe_setup(rep: &mut Report, s: &Setup) {
    let widths = s.pool_widths().into_iter().map(|w| int(w as u64)).collect();
    rep.describe("intra_pool_widths", Value::Array(widths));
    let fingerprint = s.cfg.plan.as_ref().map_or_else(
        || "sequential reference (no stage plan)".to_owned(),
        StagePlan::fingerprint,
    );
    rep.describe("plan_fingerprint", Value::String(fingerprint));
    rep.describe("steps", int(s.cfg.steps as u64));
    rep.describe("global_batch", int(BATCH as u64));
    rep.describe("pool_budget", int(POOL_BUDGET as u64));
}

/// End-to-end run (tracing off): call the executor back to back for
/// `seconds`, with `SETUP_REPS` set-ups spread over the same span.
///
/// # Errors
///
/// Returns an error when the workload cannot be built or its oracle
/// fails (nothing can be checked then).
pub fn run(kind: Kind, seed: u64, seconds: f64) -> Result<Report, String> {
    let mut rep = Report::new(false);
    let oracle = oracle(kind, seed)?;
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut setup = None;
    let mut walls = Vec::new();
    let mut loss = f64::NAN;
    let mut pacer = Pacer::new(Duration::from_secs_f64(seconds), SETUP_REPS);
    loop {
        match pacer.next() {
            Step::Setup => {
                let t0 = Instant::now();
                let fresh = build(kind, seed)?;
                let warm = call(kind, &fresh, None);
                setup_s.push(t0.elapsed().as_secs_f64());
                rep.op("warm-up call", warm.and_then(|c| check(kind, &c, &oracle)));
                setup.get_or_insert(fresh);
            }
            Step::Op => {
                let s = setup.as_ref().expect("the pacer sets up first");
                let (window, c) = checked_call(&mut rep, kind, s, &oracle, None);
                walls.push(window_ms(window));
                if let Some(c) = c {
                    loss = final_loss(&c.outcome);
                }
            }
            Step::Done => break,
        }
    }
    let s = setup.expect("the pacer sets up first");
    let call_s = kind.call_estimate(&walls) / 1e3;
    rep.set("samples_per_s", (kind.steps() * BATCH) as f64 / call_s);
    rep.set("plans_per_s", 1.0 / call_s);
    rep.set("setup_s", median(&setup_s));
    rep.set("peak_rss_mb", peak_rss_mb()?);

    describe_setup(&mut rep, &s);
    rep.describe("calls", int(walls.len() as u64));
    rep.describe(
        "call_ms_trimmed_mean",
        num(trimmed_mean(&walls, THREADED_TRIM)),
    );
    for (name, q) in [
        ("call_ms_p10", 0.1),
        ("call_ms_p25", 0.25),
        ("call_ms_p50", 0.5),
        ("call_ms_p75", 0.75),
        ("call_ms_p90", 0.9),
    ] {
        rep.describe(name, num(quantile(&walls, q)));
    }
    rep.describe("setup_reps", int(SETUP_REPS as u64));
    rep.describe("final_loss", num(loss));
    Ok(rep)
}

/// A traced executor call with its collector-clock call window.
struct Traced {
    report: TraceReport,
    window: (u64, u64),
    call: Call,
}

/// Traced run: untraced/traced call pairs for the overhead ratio and the
/// executor breakdown, then the outside layer timings.
///
/// # Errors
///
/// Same as [`run`], plus a failure to write the Chrome trace.
pub fn run_traced(kind: Kind, seed: u64, seconds: f64, trace_path: &str) -> Result<Report, String> {
    let mut rep = Report::new(true);
    let oracle = oracle(kind, seed)?;
    let s = build(kind, seed)?;
    let warm = call(kind, &s, None);
    rep.op("warm-up call", warm.and_then(|c| check(kind, &c, &oracle)));

    let mut plain = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    let mut loss = f64::NAN;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds * (1.0 - LAYER_SHARE));
    while plain.len() < MIN_TRACED_PAIRS || Instant::now() < deadline {
        let (window, c) = checked_call(&mut rep, kind, &s, &oracle, None);
        plain.push(window_ms(window));
        if let Some(c) = c {
            loss = final_loss(&c.outcome);
        }
        if kind.traced() {
            let tc = TraceCollector::new(TraceMode::Full);
            let (window, c) = checked_call(&mut rep, kind, &s, &oracle, Some(Arc::clone(&tc)));
            let report = tc.drain();
            let dropped = report.dropped_count();
            rep.op(
                "span capture",
                if dropped == 0 {
                    Ok(())
                } else {
                    Err(format!("{dropped} spans dropped"))
                },
            );
            if let Some(call) = c {
                traced.push(Traced {
                    report,
                    window,
                    call,
                });
            }
        }
    }
    rep.set("exec.final_loss", loss);
    if traced.is_empty() {
        rep.set("exec.call_ms", median(&plain));
    } else {
        let walls: Vec<f64> = traced.iter().map(|t| window_ms(t.window)).collect();
        rep.set("trace.overhead_ratio", median(&walls) / median(&plain));
        traced.sort_by_key(|t| t.window.1 - t.window.0);
        let mid = &traced[traced.len() / 2];
        let summary = exec_trace::record(&mut rep, &mid.report, kind.steps(), mid.window);
        rep.op("trace summary", summary);
        if let Some(r) = &mid.call.recovery {
            record_recovery(&mut rep, &mid.report, r);
        }
        let chrome = pipebd_trace::chrome::executor_trace(&mid.report);
        exec_trace::write(trace_path, &chrome)?;
        rep.describe("chrome_trace", Value::String(trace_path.to_owned()));
    }

    let budget = Duration::from_secs_f64(seconds * LAYER_SHARE / layers::ITEMS as f64);
    let widths = s.pool_widths();
    layers::measure(&mut rep, &s, kind.device_batch(), widths[0], budget, seed);

    describe_setup(&mut rep, &s);
    rep.describe("call_pairs", int(plain.len() as u64));
    Ok(rep)
}

/// Checkpoint, recovery and fault-driver metrics of a traced `recover`
/// call.
fn record_recovery(rep: &mut Report, report: &TraceReport, r: &RecoveryStats) {
    let spans = || {
        report
            .tracks
            .iter()
            .flat_map(|t| t.spans.iter().map(move |s| (t, s)))
    };
    let mean_ms = |durs: Vec<u64>| {
        if durs.is_empty() {
            0.0
        } else {
            durs.iter().sum::<u64>() as f64 / durs.len() as f64 / 1e6
        }
    };
    let ckpt = spans()
        .filter(|(_, s)| s.kind == SpanKind::Checkpoint)
        .map(|(_, s)| s.dur_ns())
        .collect();
    rep.set("ckpt.capture_ms", mean_ms(ckpt));
    rep.set("ckpt.stored", r.stored as f64);
    let events_ms = |kind| {
        report
            .events
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| e.dur_ns())
            .sum::<u64>() as f64
            / 1e6
    };
    rep.set("recovery.restore_ms", events_ms(SpanKind::Restore));
    rep.set("recovery.replan_ms", events_ms(SpanKind::Replan));
    rep.set("recovery.restores", r.restores as f64);
    rep.set("recovery.replans", r.replans as f64);
    let replayed: usize = r
        .resumed_rounds
        .iter()
        .map(|&round| LOSS_STEP.saturating_sub(round))
        .sum();
    rep.set("recovery.replayed_steps", replayed as f64);
    let waits = spans()
        .filter(|(t, s)| t.stage > 0 && s.kind == SpanKind::Load && s.step >= 1)
        .map(|(_, s)| s.dur_ns())
        .collect();
    rep.set("fault.recv_wait_ms", mean_ms(waits));
}
