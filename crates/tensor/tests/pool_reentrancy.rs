//! Regression test for kernel scratch reentrancy on a shared pool.
//!
//! A thread waiting for its pool scope to drain helps by running queued
//! tasks from *any* scope on that pool — possibly another caller's conv
//! unit, on the very thread that is inside a kernel holding its scratch.
//! Kernel scratch is therefore taken by value for each call, never
//! borrowed across one; this test drives several callers through pooled
//! dense and depthwise convolutions and both adjoints at once, on the
//! process-global pool and on one explicitly shared pool, and checks
//! every result bitwise against the serial one.

use std::sync::Barrier;

use pipebd_tensor::parallel::{install, ComputePool};
use pipebd_tensor::{conv2d, conv2d_grad_input, conv2d_grad_weight, Conv2dSpec, Rng64, Tensor};

/// Concurrent callers per round.
const CALLERS: usize = 4;
/// Passes over the case list per caller.
const PASSES: usize = 12;

struct Case {
    spec: Conv2dSpec,
    x: Tensor,
    w: Tensor,
    dy: Tensor,
}

fn run(c: &Case) -> [Tensor; 3] {
    let (h, w) = (c.x.dims()[2], c.x.dims()[3]);
    [
        conv2d(&c.x, &c.w, c.spec).unwrap(),
        conv2d_grad_input(&c.dy, &c.w, c.spec, (h, w)).unwrap(),
        conv2d_grad_weight(&c.x, &c.dy, c.spec).unwrap(),
    ]
}

/// The cases with their serial `(forward, grad input, grad weight)`.
fn cases() -> Vec<(Case, [Tensor; 3])> {
    let mut rng = Rng64::seed_from_u64(41);
    // A single-unit dense conv parallelizes *inside* its unit (its GEMM
    // opens a scope while the column scratch is in use); the multi-unit
    // convs queue unit tasks for such a waiter to run.
    let shapes = [
        (Conv2dSpec::dense(4, 16, 3, 1, 1), 1, 12),
        (Conv2dSpec::dense(4, 16, 3, 1, 1), 3, 10),
        (Conv2dSpec::depthwise(8, 3, 1, 1), 2, 16),
        (Conv2dSpec::depthwise(6, 5, 2, 2), 1, 11),
        (Conv2dSpec::dense(8, 8, 1, 1, 0), 2, 9),
    ];
    let serial = ComputePool::new(1);
    shapes
        .into_iter()
        .map(|(spec, n, side)| {
            let x = Tensor::randn(&[n, spec.in_channels, side, side], &mut rng);
            let w = Tensor::randn(&spec.weight_dims(), &mut rng);
            let o = spec.out_extent(side).unwrap();
            let dy = Tensor::randn(&[n, spec.out_channels, o, o], &mut rng);
            let case = Case { spec, x, w, dy };
            let want = install(&serial, || run(&case));
            (case, want)
        })
        .collect()
}

fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.dims() == b.dims()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Runs every case `PASSES` times on each of `CALLERS` threads at once,
/// under `pool` if given (else the ambient global pool).
fn hammer(cases: &[(Case, [Tensor; 3])], pool: Option<&ComputePool>) {
    let start = Barrier::new(CALLERS);
    std::thread::scope(|s| {
        for caller in 0..CALLERS {
            let start = &start;
            s.spawn(move || {
                let body = || {
                    start.wait();
                    for pass in 0..PASSES {
                        // Stagger the callers so different kernels overlap.
                        for i in 0..cases.len() {
                            let (c, want) = &cases[(i + caller + pass) % cases.len()];
                            let got = run(c);
                            for (k, (g, w)) in got.iter().zip(want).enumerate() {
                                assert!(
                                    same_bits(g, w),
                                    "caller {caller} pass {pass}: {:?} output {k} differs from serial",
                                    c.spec
                                );
                            }
                        }
                    }
                };
                match pool {
                    Some(p) => install(p, body),
                    None => body(),
                }
            });
        }
    });
}

#[test]
fn concurrent_callers_on_one_pool_never_collide_on_scratch() {
    let cases = cases();
    // The process-global pool (sized by PIPEBD_POOL or the core count;
    // serial on a single-core host) ...
    hammer(&cases, None);
    // ... and one pool shared by every caller, so the stealing path is
    // exercised whatever the host's core count.
    let shared = ComputePool::new(3);
    hammer(&cases, Some(&shared));
}
