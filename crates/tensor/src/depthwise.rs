//! Direct depthwise convolution kernels: one input plane to one output
//! plane per `(batch, channel)` unit, with no lowering.
//!
//! Through im2col a depthwise unit (`cig == cog == 1`) is a degenerate
//! GEMM — `m = 1, k = k²` forward, `m = 1, n = k², k = oh·ow` for the
//! weight gradient, and a `k = 1` outer product plus col2im for the input
//! gradient — that fills at most one row of the 8×32 register tile and
//! pays for lowering and packing on every unit. These kernels compute the
//! same values straight from the planes, keeping each output element's
//! reduction order, so they are **bitwise identical** to the lowering:
//!
//! | pass | per output element (lowering and here) |
//! |---|---|
//! | forward | one `mul_add` chain over the taps ascending, starting from `+0` |
//! | grad input | `dx += round(w·dy)` per tap ascending, starting from `+0` |
//! | grad weight | one `mul_add` chain per `gemm::KC` panel of positions, each panel added into `dW`, batch by batch |
//!
//! Padded taps read zeros in the lowering, and the GEMM multiplies them
//! in. The forward and grad-weight kernels read a zero-bordered copy of
//! the input plane, so a padded tap is the same `mul_add(w, +0, acc)`
//! the GEMM executes. The grad-input kernel scatters into a zero-bordered
//! input-gradient plane and crops it, so contributions to padding fall
//! outside the result exactly as col2im skips them.
//!
//! Every pass is compiled per [`SimdTier`] through `#[target_feature]`
//! wrappers, like `gemm::macro_kernel`; `mul_add` is a single-rounding
//! fused multiply-add on every tier, so all tiers agree bit for bit. The
//! 3×3 stride-1 shape of the DS-Conv students is specialized through
//! const generics, which keeps the nine weight-gradient accumulators in
//! registers; every other shape runs the same code with the geometry read
//! at runtime.
//!
//! The bordered plane is thread-local scratch taken by value for the call
//! (`parallel::with_scratch`), and is passed *into* the tier wrappers:
//! see the `simd` module for why the wrappers must not contain closures.

use std::cell::Cell;

use crate::conv::Conv2dSpec;
use crate::gemm::KC;
use crate::im2col::ConvGeom;
use crate::parallel::with_scratch;
use crate::simd::SimdTier;

/// Output columns carried per forward accumulator (one `zmm`, two `ymm`).
const LANES: usize = 16;

thread_local! {
    /// The zero-bordered plane: the padded input (forward, grad weight)
    /// or the padded input gradient (grad input).
    static PLANE: Cell<Vec<f32>> = const { Cell::new(Vec::new()) };
}

/// Plane geometry shared by the three kernels.
#[derive(Clone, Copy)]
struct Taps {
    /// Kernel extent.
    k: usize,
    /// Stride.
    s: usize,
    /// Output plane extents.
    oh: usize,
    ow: usize,
    /// Row stride of the bordered input-side plane.
    wp: usize,
}

impl Taps {
    fn new(spec: &Conv2dSpec, g: &ConvGeom) -> Self {
        Taps {
            k: spec.kernel,
            s: spec.stride,
            oh: g.oh,
            ow: g.ow,
            wp: g.w + 2 * spec.padding,
        }
    }

    /// `(k, s)` with a const-generic specialization folded in (a const
    /// of 0 means "read it at runtime").
    #[inline(always)]
    fn fold<const K: usize, const S: usize>(&self) -> (usize, usize) {
        (
            if K > 0 { K } else { self.k },
            if S > 0 { S } else { self.s },
        )
    }
}

/// Forward pass of one unit on `tier`: `out[oh, ow]` from the input
/// plane `xc[h, w]` and the channel's `k × k` taps `w`.
pub(crate) fn forward(
    tier: SimdTier,
    xc: &[f32],
    w: &[f32],
    out: &mut [f32],
    spec: &Conv2dSpec,
    g: &ConvGeom,
) {
    let t = Taps::new(spec, g);
    with_bordered(xc, spec.padding, g, |xp| {
        run(tier, Job::Forward { xp, w, out }, t);
    });
}

/// Input gradient of one unit on `tier`: overwrites `dxc[h, w]` from the
/// output gradient plane `dy[oh, ow]` and the channel's taps `w`.
pub(crate) fn grad_input(
    tier: SimdTier,
    dy: &[f32],
    w: &[f32],
    dxc: &mut [f32],
    spec: &Conv2dSpec,
    g: &ConvGeom,
) {
    let t = Taps::new(spec, g);
    let pad = spec.padding;
    if pad == 0 {
        dxc.fill(0.0);
        run(tier, Job::GradInput { dy, w, dxp: dxc }, t);
        return;
    }
    with_scratch(&PLANE, |dxp| {
        dxp.clear();
        dxp.resize((g.h + 2 * pad) * t.wp, 0.0);
        run(tier, Job::GradInput { dy, w, dxp }, t);
        for iy in 0..g.h {
            dxc[iy * g.w..][..g.w].copy_from_slice(&dxp[(iy + pad) * t.wp + pad..][..g.w]);
        }
    });
}

/// Weight gradient of channel `gi` on `tier`: adds every batch's
/// contribution, in batch order, into the channel's taps `dw`.
pub(crate) fn grad_weight(
    tier: SimdTier,
    x: &[f32],
    dy: &[f32],
    dw: &mut [f32],
    spec: &Conv2dSpec,
    g: &ConvGeom,
    gi: usize,
) {
    let t = Taps::new(spec, g);
    let (hw, ohow) = (g.h * g.w, g.oh * g.ow);
    for b in 0..g.n {
        let xc = &x[(b * spec.in_channels + gi) * hw..][..hw];
        let dy = &dy[(b * spec.out_channels + gi) * ohow..][..ohow];
        with_bordered(xc, spec.padding, g, |xp| {
            run(tier, Job::GradWeight { xp, dy, dw }, t);
        });
    }
}

/// Runs `f` on the plane `src[g.h, g.w]` surrounded by a zero border of
/// `pad` on every side — on `src` itself when there is no border.
fn with_bordered<R>(src: &[f32], pad: usize, g: &ConvGeom, f: impl FnOnce(&[f32]) -> R) -> R {
    if pad == 0 {
        return f(src);
    }
    with_scratch(&PLANE, |buf| {
        let wp = g.w + 2 * pad;
        buf.clear();
        buf.resize((g.h + 2 * pad) * wp, 0.0);
        for iy in 0..g.h {
            buf[(iy + pad) * wp + pad..][..g.w].copy_from_slice(&src[iy * g.w..][..g.w]);
        }
        f(buf)
    })
}

/// One kernel invocation on bordered planes, handed to a tier wrapper.
enum Job<'a> {
    Forward {
        xp: &'a [f32],
        w: &'a [f32],
        out: &'a mut [f32],
    },
    GradInput {
        dy: &'a [f32],
        w: &'a [f32],
        dxp: &'a mut [f32],
    },
    GradWeight {
        xp: &'a [f32],
        dy: &'a [f32],
        dw: &'a mut [f32],
    },
}

/// Dispatches `job` to the code compiled for `tier`.
#[allow(unsafe_code)]
fn run(tier: SimdTier, job: Job<'_>, t: Taps) {
    debug_assert!(tier.is_supported(), "{tier} dispatched on a CPU without it");
    match tier {
        SimdTier::Scalar => run_body(job, t),
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: callers pass `simd_tier()`, which only yields tiers that
        // passed `SimdTier::is_supported` on this CPU, or a tier they
        // checked themselves (the parity test), so the features the
        // wrapper enables are present at runtime.
        SimdTier::Fma => unsafe { run_fma(job, t) },
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        // SAFETY: as above.
        SimdTier::Avx512 => unsafe { run_avx512(job, t) },
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64")))]
        _ => unreachable!("non-scalar tiers are never supported off x86"),
    }
}

/// [`run_body`] compiled with AVX2 + FMA enabled.
///
/// # Safety
///
/// The caller must ensure the CPU supports `avx2` and `fma`.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2,fma")]
#[allow(unsafe_code)]
unsafe fn run_fma(job: Job<'_>, t: Taps) {
    run_body(job, t);
}

/// [`run_body`] compiled with AVX-512 (F/VL/DQ/BW) enabled.
///
/// # Safety
///
/// The caller must ensure the CPU supports the enabled AVX-512 subsets.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx512f,avx512vl,avx512dq,avx512bw,avx2,fma")]
#[allow(unsafe_code)]
unsafe fn run_avx512(job: Job<'_>, t: Taps) {
    run_body(job, t);
}

/// Runs one job. `inline(always)`, like every kernel below, so each tier
/// wrapper compiles its own copy under its instruction set.
#[inline(always)]
fn run_body(job: Job<'_>, t: Taps) {
    let hot = t.k == 3 && t.s == 1;
    match job {
        Job::Forward { xp, w, out } if hot => forward_plane::<3, 1>(xp, w, out, t),
        Job::Forward { xp, w, out } => forward_plane::<0, 0>(xp, w, out, t),
        Job::GradInput { dy, w, dxp } if hot => grad_input_plane::<3, 1>(dy, w, dxp, t),
        Job::GradInput { dy, w, dxp } => grad_input_plane::<0, 0>(dy, w, dxp, t),
        Job::GradWeight { xp, dy, dw } if hot => grad_weight_taps::<3, 1>(xp, dy, dw, t),
        Job::GradWeight { xp, dy, dw } => grad_weight_per_tap(xp, dy, dw, t),
    }
}

/// Forward over the output plane, `LANES` output columns per register
/// accumulator (single columns for the remainder).
#[inline(always)]
fn forward_plane<const K: usize, const S: usize>(xp: &[f32], w: &[f32], out: &mut [f32], t: Taps) {
    let s = t.fold::<K, S>().1;
    for (oy, orow) in out.chunks_exact_mut(t.ow).enumerate() {
        let xrows = &xp[oy * s * t.wp..];
        let mut ox = 0;
        while ox + LANES <= t.ow {
            forward_lanes::<K, S, LANES>(xrows, w, &mut orow[ox..ox + LANES], ox, t);
            ox += LANES;
        }
        while ox < t.ow {
            forward_lanes::<K, S, 1>(xrows, w, &mut orow[ox..=ox], ox, t);
            ox += 1;
        }
    }
}

/// Output columns `ox0 .. ox0 + L` of one output row: per column, one
/// `mul_add` chain over the taps ascending from `+0`, split at `KC` taps
/// like the GEMM's depth panels. `xrows` starts at the row's first input
/// row.
#[inline(always)]
fn forward_lanes<const K: usize, const S: usize, const L: usize>(
    xrows: &[f32],
    w: &[f32],
    o: &mut [f32],
    ox0: usize,
    t: Taps,
) {
    let (k, s) = t.fold::<K, S>();
    let kk = k * k;
    let span = (L - 1) * s + 1;
    let mut t0 = 0;
    while t0 < kk {
        let mut acc = [0.0f32; L];
        for tap in t0..kk.min(t0 + KC) {
            let (ky, kx) = (tap / k, tap % k);
            let wt = w[tap];
            let xr = &xrows[ky * t.wp + ox0 * s + kx..][..span];
            for l in 0..L {
                acc[l] = wt.mul_add(xr[l * s], acc[l]);
            }
        }
        if t0 == 0 {
            o.copy_from_slice(&acc);
        } else {
            for (d, a) in o.iter_mut().zip(acc) {
                *d += a;
            }
        }
        t0 += KC;
    }
}

/// Input gradient into the zeroed, bordered plane `dxp`: taps outermost,
/// so every element receives its `round(w·dy)` terms in tap order.
#[inline(always)]
fn grad_input_plane<const K: usize, const S: usize>(
    dy: &[f32],
    w: &[f32],
    dxp: &mut [f32],
    t: Taps,
) {
    let (k, s) = t.fold::<K, S>();
    let span = (t.ow - 1) * s + 1;
    for ky in 0..k {
        for kx in 0..k {
            let wt = w[ky * k + kx];
            for (oy, dyrow) in dy.chunks_exact(t.ow).enumerate() {
                let drow = &mut dxp[(oy * s + ky) * t.wp + kx..][..span];
                if s == 1 {
                    for (d, &g) in drow.iter_mut().zip(dyrow) {
                        *d += wt * g;
                    }
                } else {
                    for (ox, &g) in dyrow.iter().enumerate() {
                        drow[ox * s] += wt * g;
                    }
                }
            }
        }
    }
}

/// Weight gradient of one batch plane with the `K × K` taps' chains
/// interleaved in registers (so `K` must be a real extent, not 0): per
/// `KC` panel of output positions, each tap runs one `mul_add` chain from
/// `+0`, then the panel is added into `dw`.
#[inline(always)]
fn grad_weight_taps<const K: usize, const S: usize>(
    xp: &[f32],
    dy: &[f32],
    dw: &mut [f32],
    t: Taps,
) {
    let s = t.fold::<K, S>().1;
    let ohow = t.oh * t.ow;
    let mut p0 = 0;
    while p0 < ohow {
        let p1 = ohow.min(p0 + KC);
        let mut acc = [[0.0f32; K]; K];
        let mut p = p0;
        while p < p1 {
            // One output-row segment of the panel.
            let (oy, ox0) = (p / t.ow, p % t.ow);
            let ox1 = t.ow.min(ox0 + (p1 - p));
            let dyrow = &dy[oy * t.ow..][..ox1];
            let base = oy * s * t.wp;
            for ox in ox0..ox1 {
                let g = dyrow[ox];
                for (ky, accrow) in acc.iter_mut().enumerate() {
                    let xr = &xp[base + ky * t.wp + ox * s..][..K];
                    for (a, &xv) in accrow.iter_mut().zip(xr) {
                        *a = g.mul_add(xv, *a);
                    }
                }
            }
            p += ox1 - ox0;
        }
        for (d, a) in dw.iter_mut().zip(acc.iter().flatten()) {
            *d += *a;
        }
        p0 = p1;
    }
}

/// [`grad_weight_taps`] for any geometry: the same chains, one tap at a
/// time.
#[inline(always)]
fn grad_weight_per_tap(xp: &[f32], dy: &[f32], dw: &mut [f32], t: Taps) {
    let ohow = t.oh * t.ow;
    for ky in 0..t.k {
        for kx in 0..t.k {
            let d = &mut dw[ky * t.k + kx];
            let mut p0 = 0;
            while p0 < ohow {
                let p1 = ohow.min(p0 + KC);
                let mut acc = 0.0f32;
                let mut p = p0;
                while p < p1 {
                    let (oy, ox0) = (p / t.ow, p % t.ow);
                    let ox1 = t.ow.min(ox0 + (p1 - p));
                    let xr = &xp[(oy * t.s + ky) * t.wp + kx..];
                    for (&g, ox) in dy[oy * t.ow..][ox0..ox1].iter().zip(ox0..) {
                        acc = g.mul_add(xr[ox * t.s], acc);
                    }
                    p += ox1 - ox0;
                }
                *d += acc;
                p0 = p1;
            }
        }
    }
}
