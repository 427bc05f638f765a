//! Layer timings taken from outside, at a workload's shapes: dataset
//! batches, the convolution kernels and a GEMM ceiling (tensor), the
//! width-2 pool, and per-block teacher forward, student step and update
//! (nn).

use std::hint::black_box;
use std::time::{Duration, Instant};

use pipebd_nn::{mse_loss, zero_grad, Layer, Mode, Sgd};
use pipebd_tensor::parallel::{install, ComputePool};
use pipebd_tensor::{
    conv2d, conv2d_grad_input, conv2d_grad_weight, Conv2dSpec, Rng64, Tensor, TensorError,
};

use crate::report::{Report, BLOCKS, CONV_KERNELS, CONV_PASSES};
use crate::stats::{median, median_ms, sample_ms};
use crate::train::{Setup, MINI, SAMPLES, SIDE};

/// Timed items sharing the layer budget (data, nine kernel passes, the
/// GEMM ceiling, twelve block timings).
pub const ITEMS: usize = 1 + 9 + 1 + 3 * BLOCKS;
/// Passes over the kernel set on each side of the pool comparison (a
/// fixed count, so the pool's counters compare across runs).
const POOL_PASSES: usize = 64;
/// Minimum repetitions of any timed item.
const MIN_REPS: usize = 5;
/// GEMM ceiling size (square).
const GEMM: usize = 256;

/// The student and teacher convolutions at the miniature width.
fn kernels() -> [(&'static str, Conv2dSpec); 3] {
    let c = MINI.channels;
    [
        (CONV_KERNELS[0], Conv2dSpec::dense(c, c, 3, 1, 1)),
        (CONV_KERNELS[1], Conv2dSpec::depthwise(c, 3, 1, 1)),
        (CONV_KERNELS[2], Conv2dSpec::dense(c, c, 1, 1, 0)),
    ]
}

/// One convolution pass on fixed operands.
struct KernelPass {
    name: String,
    flops: f64,
    run: Box<dyn Fn() -> Result<Tensor, TensorError>>,
}

fn kernel_passes(batch: usize, rng: &mut Rng64) -> Vec<KernelPass> {
    let c = MINI.channels;
    let mut out = Vec::new();
    for (name, spec) in kernels() {
        let x = Tensor::randn(&[batch, c, SIDE, SIDE], rng);
        let w = Tensor::randn(&spec.weight_dims(), rng);
        let dy = Tensor::randn(&[batch, c, SIDE, SIDE], rng);
        // Forward and both adjoints perform the same multiply-adds.
        let flops = (spec.flops_per_sample(SIDE, SIDE) * batch as u64) as f64;
        let (x2, w2, dy2) = (x.clone(), w.clone(), dy.clone());
        let runs: [Box<dyn Fn() -> Result<Tensor, TensorError>>; 3] = [
            Box::new(move || conv2d(&x, &w, spec)),
            Box::new(move || conv2d_grad_input(&dy, &w2, spec, (SIDE, SIDE))),
            Box::new(move || conv2d_grad_weight(&x2, &dy2, spec)),
        ];
        for (pass, run) in CONV_PASSES.iter().zip(runs) {
            out.push(KernelPass {
                name: format!("tensor.{name}.{pass}"),
                flops,
                run,
            });
        }
    }
    out
}

/// Runs every outside layer timing, each for `budget` (at least
/// `MIN_REPS` repetitions), and records the metrics. `batch` is the
/// per-device batch and `pool_width` the device's kernel-pool width.
pub fn measure(
    rep: &mut Report,
    s: &Setup,
    batch: usize,
    pool_width: usize,
    budget: Duration,
    seed: u64,
) {
    let mut start = 0u64;
    rep.set(
        "data.batch_ms",
        median_ms(budget, MIN_REPS, || {
            black_box(s.data.batch(start, batch));
            start = (start + batch as u64) % (SAMPLES - batch as u64);
        }),
    );

    let mut rng = Rng64::seed_from_u64(seed).fork(0x7e45);
    let passes = kernel_passes(batch, &mut rng);
    let serial = ComputePool::new(1);
    let ceiling = install(&serial, || gemm_ceiling(budget, &mut rng));
    rep.set("tensor.gemm_ceiling_gflops", ceiling);
    install(&serial, || {
        for p in &passes {
            if let Err(e) = (p.run)() {
                rep.op(&p.name, Err(e.to_string()));
                continue;
            }
            let t = median_ms(budget, MIN_REPS, || {
                let _ = black_box((p.run)());
            });
            let gflops = p.flops / (t * 1e6);
            rep.set(&format!("{}_gflops", p.name), gflops);
            rep.set(&format!("{}_roofline", p.name), gflops / ceiling);
        }
    });

    pool_comparison(rep, &passes, &serial);
    blocks(rep, s, batch, pool_width, budget);
}

/// Serial blocked GEMM throughput at `GEMM`³, in GFLOP/s.
fn gemm_ceiling(budget: Duration, rng: &mut Rng64) -> f64 {
    let a = Tensor::randn(&[GEMM, GEMM], rng);
    let b = Tensor::randn(&[GEMM, GEMM], rng);
    let t = median_ms(budget, MIN_REPS, || {
        let _ = black_box(a.matmul(&b));
    });
    2.0 * (GEMM * GEMM * GEMM) as f64 / (t * 1e6)
}

/// The kernel set, serial versus a width-2 pool: speedup, the pool's
/// steal/park/wake counters, and the determinism contract (pooled
/// results bitwise equal to serial ones) checked per kernel pass.
fn pool_comparison(rep: &mut Report, passes: &[KernelPass], serial: &ComputePool) {
    let run_all =
        || -> Vec<Result<Tensor, TensorError>> { passes.iter().map(|p| (p.run)()).collect() };
    let time = |pool: &ComputePool| {
        install(pool, || {
            let times = sample_ms(Duration::ZERO, POOL_PASSES, |_| {
                black_box(run_all());
            });
            (median(&times), run_all())
        })
    };
    let (serial_ms, want) = time(serial);
    let pool2 = ComputePool::new(2);
    let (pooled_ms, got) = time(&pool2);
    let stats = pool2.stats();
    rep.set("tensor.pool2.speedup", serial_ms / pooled_ms);
    rep.set("tensor.pool2.steals", stats.steals as f64);
    rep.set("tensor.pool2.parks", stats.parks as f64);
    rep.set("tensor.pool2.wakes", stats.wakes as f64);
    for ((p, w), g) in passes.iter().zip(want).zip(got) {
        let verdict = match (w, g) {
            (Ok(w), Ok(g)) => {
                let same = w.dims() == g.dims()
                    && w.data()
                        .iter()
                        .zip(g.data())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                if same {
                    Ok(())
                } else {
                    Err("width-2 pool result differs from serial".into())
                }
            }
            (Err(e), _) | (_, Err(e)) => Err(e.to_string()),
        };
        rep.op(&format!("{} pool parity", p.name), verdict);
    }
}

/// Per-block teacher forward, student step (forward, loss, backward)
/// and update (SGD step and gradient reset), on clones of the set-up
/// networks under a pool of the device's width.
fn blocks(rep: &mut Report, s: &Setup, batch: usize, pool_width: usize, budget: Duration) {
    let pool = ComputePool::new(pool_width);
    let mut teacher = s.teacher.clone();
    let mut student = s.student.clone();
    let (x, _) = s.data.batch(0, batch);
    let result = install(&pool, || -> Result<(), TensorError> {
        let bounds = teacher.forward_collect(&x, Mode::Eval)?;
        for b in 0..BLOCKS {
            let input = if b == 0 { &x } else { &bounds[b - 1] };
            let target = &bounds[b];
            let tb = teacher.block_mut(b);
            tb.forward(input, Mode::Eval)?;
            let t = median_ms(budget, MIN_REPS, || {
                let _ = black_box(tb.forward(input, Mode::Eval));
            });
            rep.set(&format!("nn.teacher_fwd_ms.b{b}"), t);

            let sb = student.block_mut(b);
            let step = |sb: &mut dyn Layer| -> Result<(), TensorError> {
                let out = sb.forward(input, Mode::Train)?;
                let loss = mse_loss(&out, target)?;
                sb.backward(&loss.grad)?;
                Ok(())
            };
            step(sb)?;
            let times = sample_ms(budget, MIN_REPS, |t0| {
                zero_grad(sb);
                *t0 = Instant::now();
                let _ = black_box(step(sb));
            });
            rep.set(&format!("nn.student_step_ms.b{b}"), median(&times));

            let mut sgd = Sgd::new(0.05, 0.9, 0.0);
            let times = sample_ms(budget, MIN_REPS, |t0| {
                let _ = black_box(step(sb));
                *t0 = Instant::now();
                let _ = black_box(sgd.step(sb));
                zero_grad(sb);
            });
            rep.set(&format!("nn.update_ms.b{b}"), median(&times));
        }
        Ok(())
    });
    rep.op("block timings", result.map_err(|e| e.to_string()));
}
