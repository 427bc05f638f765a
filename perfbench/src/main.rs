//! Repository benchmark for the Pipe-BD workspace.
//!
//! One closed-loop caller drives the public APIs of `pipebd_core`,
//! `pipebd_sched` and `pipebd_sim` back to back and checks every
//! operation. Usage:
//!
//! ```text
//! perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` a run reports the end-to-end metrics, measured with
//! tracing off; with `--trace 1` it reports the per-layer breakdown from
//! traced executor calls and outside layer timings. The last line of
//! standard output is the result object; the line before it describes
//! the run. `--workload all` runs every workload in its own process and
//! prints a table. See `README.md` beside this crate for the metrics.

mod exec_trace;
mod layers;
mod plan;
mod report;
mod stats;
mod train;

use std::process::{Command, ExitCode};

use pipebd_json::Value;
use report::{int, num, Report};
use train::Kind;

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 1;
/// Seed kept out of tuning, for confirming a later claim.
const HELD_OUT_SEED: u64 = 20_231_017;
/// Default measurement length in seconds.
const DEFAULT_SECONDS: f64 = 10.0;

/// Workload names, in the order `--workload all` runs them.
const WORKLOADS: [&str; 5] = [
    "pipeline",
    "batch-split",
    "single-worker",
    "recover",
    "plan",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {}", args.seconds));
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all, got `{}`",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

/// Runs one workload in this process.
fn run_one(args: &Args) -> Result<Report, String> {
    let kind = match args.workload.as_str() {
        "pipeline" => Kind::Pipeline,
        "batch-split" => Kind::BatchSplit,
        "single-worker" => Kind::SingleWorker,
        "recover" => Kind::Recover,
        _ if args.trace => return plan::run_traced(args.seed, args.seconds),
        _ => return plan::run(args.seed, args.seconds),
    };
    if args.trace {
        let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
        let path = format!("{dir}/perfbench/{}.trace.json", args.workload);
        train::run_traced(kind, args.seed, args.seconds, &path)
    } else {
        train::run(kind, args.seed, args.seconds)
    }
}

fn describe_run(rep: &mut Report, args: &Args) {
    rep.describe("workload", Value::String(args.workload.clone()));
    rep.describe("seed", int(args.seed));
    rep.describe("default_seed", int(DEFAULT_SEED));
    rep.describe("held_out_seed", int(HELD_OUT_SEED));
    rep.describe("seconds", num(args.seconds));
    rep.describe("trace", Value::Bool(args.trace));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    rep.describe("nproc", int(nproc as u64));
    rep.describe(
        "simd_tier",
        Value::String(pipebd_tensor::simd_tier().to_string()),
    );
    rep.describe(
        "kernel_policy",
        Value::String(pipebd_tensor::kernel_policy().to_string()),
    );
}

/// `--workload all`: each workload in a child process of this binary, so
/// each reports its own peak memory; prints one row per metric.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    println!("{:<14} {:<34} {:>16} unit", "workload", "metric", "value");
    for w in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", w])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output();
        let result = out.map_err(|e| e.to_string()).and_then(|o| {
            let text = String::from_utf8_lossy(&o.stdout).into_owned();
            let last = text.lines().last().unwrap_or_default().to_owned();
            pipebd_json::parse(&last).map_err(|e| format!("{e} (exit {})", o.status))
        });
        let v = match result {
            Ok(v) => v,
            Err(e) => {
                println!("{w:<14} run failed: {e}");
                ok = false;
                continue;
            }
        };
        let field = |k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
        let (attempted, failed) = (field("attempted"), field("failed"));
        let correct = v.get("correct").and_then(Value::as_bool) == Some(true);
        ok &= correct;
        for (name, m) in v
            .get("metrics")
            .and_then(Value::as_object)
            .unwrap_or_default()
        {
            let value = m.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
            println!("{w:<14} {name:<34} {value:>16.6} {unit}");
        }
        let ratio = failed as f64 / attempted.max(1) as f64;
        println!(
            "{w:<14} {:<34} {ratio:>16.6} ratio ({failed}/{attempted})",
            "failed_ratio"
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    match run_one(&args) {
        Ok(mut rep) => {
            describe_run(&mut rep, &args);
            println!("{}", pipebd_json::render::compact(&rep.description_json()));
            println!("{}", pipebd_json::render::compact(&rep.result_json()));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
