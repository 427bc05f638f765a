//! The runtime-dispatch battery: every supported SIMD tier must compute
//! the same numbers, and misconfiguration must fail loudly.
//!
//! The blocked GEMM macrokernel is compiled three times (scalar, FMA,
//! AVX-512) and selected per call from one probed-at-startup tier (or a
//! `PIPEBD_SIMD` override). Every tier accumulates through single-
//! rounding `f32::mul_add`, so supported tiers are **bitwise** equal to
//! each other — asserted here, not just "close" — and match the naive
//! oracle within FMA-contraction tolerance.
//!
//! The direct depthwise kernels are compiled per tier the same way and
//! are held to the same two claims, for the forward pass and both
//! adjoints.
//!
//! Tier forcing mutates process-global dispatch state, so everything
//! that switches tiers lives in ONE `#[test]` (tests in a binary run
//! concurrently); the pure resolution checks are separate.

use pipebd_tensor::{
    conv2d_grad_input_with, conv2d_grad_weight_with, conv2d_with, resolve_simd_override,
    set_simd_tier, simd_tier, Conv2dSpec,
};
use pipebd_tensor::{KernelPolicy, Rng64, SimdTier, Tensor};

#[test]
fn every_supported_tier_matches_the_oracle_and_each_other() {
    let supported: Vec<SimdTier> = SimdTier::ALL
        .into_iter()
        .filter(|t| t.is_supported())
        .collect();
    // Scalar runs everywhere: one tier is always forceable, so this
    // test is never vacuous (and on an AVX-512 host it covers all 3).
    assert!(
        supported.contains(&SimdTier::Scalar),
        "scalar tier must be universally supported"
    );

    let mut rng = Rng64::seed_from_u64(2024);
    let shapes = [(1usize, 7usize, 1usize), (13, 5, 29), (64, 48, 96)];
    for (m, k, n) in shapes {
        let a = Tensor::randn(&[m, k], &mut rng);
        let b = Tensor::randn(&[k, n], &mut rng);
        let oracle = a.matmul_with(&b, KernelPolicy::Naive).unwrap();

        let mut per_tier: Vec<(SimdTier, Tensor)> = Vec::new();
        for &tier in &supported {
            set_simd_tier(tier).unwrap();
            assert_eq!(simd_tier(), tier, "forced tier must win");
            per_tier.push((tier, a.matmul_with(&b, KernelPolicy::Blocked).unwrap()));
        }

        // Tier vs naive oracle: same per-element summation order, so
        // only FMA contraction separates them.
        let scale = 1.0 + oracle.data().iter().fold(0.0f32, |s, v| s.max(v.abs()));
        for (tier, out) in &per_tier {
            let diff = oracle.max_abs_diff(out).unwrap();
            assert!(
                diff <= 1e-4 * scale,
                "{tier} vs naive oracle: diff {diff} at {m}x{k}x{n}"
            );
        }

        // Tier vs tier: bitwise, because every tier fma-contracts.
        let (base_tier, base) = &per_tier[0];
        for (tier, out) in &per_tier[1..] {
            assert_eq!(
                base.max_abs_diff(out).unwrap(),
                0.0,
                "{tier} differs from {base_tier} at {m}x{k}x{n}"
            );
        }
    }

    // Depthwise convs take the direct per-plane kernels: forward and both
    // adjoints, 3x3 stride 1 (the specialized shape) and a runtime-shape
    // case (5x5 stride 2 on a non-square plane of more than 256 outputs).
    for (spec, h, w) in [
        (Conv2dSpec::depthwise(4, 3, 1, 1), 16, 16),
        (Conv2dSpec::depthwise(3, 5, 2, 2), 37, 29),
    ] {
        let x = Tensor::randn(&[2, spec.in_channels, h, w], &mut rng);
        let wt = Tensor::randn(&spec.weight_dims(), &mut rng);
        let (oh, ow) = (spec.out_extent(h).unwrap(), spec.out_extent(w).unwrap());
        let dy = Tensor::randn(&[2, spec.out_channels, oh, ow], &mut rng);
        let passes = |p| {
            [
                conv2d_with(&x, &wt, spec, p).unwrap(),
                conv2d_grad_input_with(&dy, &wt, spec, (h, w), p).unwrap(),
                conv2d_grad_weight_with(&x, &dy, spec, p).unwrap(),
            ]
        };
        let oracle = passes(KernelPolicy::Naive);
        let mut per_tier = Vec::new();
        for &tier in &supported {
            set_simd_tier(tier).unwrap();
            per_tier.push((tier, passes(KernelPolicy::Blocked)));
        }
        let names = ["forward", "grad input", "grad weight"];
        let (base_tier, base) = &per_tier[0];
        for (tier, outs) in &per_tier {
            for ((name, out), want) in names.iter().zip(outs).zip(&oracle) {
                let scale = 1.0 + want.data().iter().fold(0.0f32, |s, v| s.max(v.abs()));
                let diff = want.max_abs_diff(out).unwrap();
                assert!(
                    diff <= 1e-4 * scale,
                    "{tier} depthwise {name} vs naive oracle: diff {diff} ({spec:?})"
                );
            }
            for ((name, out), b) in names.iter().zip(outs).zip(base) {
                let same = out
                    .data()
                    .iter()
                    .zip(b.data())
                    .all(|(u, v)| u.to_bits() == v.to_bits());
                assert!(
                    same,
                    "{tier} depthwise {name} differs from {base_tier} ({spec:?})"
                );
            }
        }
    }

    // Leave the process on the probed default for any later test.
    set_simd_tier(SimdTier::probe()).unwrap();
}

#[test]
fn unknown_override_is_a_loud_error() {
    // Like every PIPEBD_* knob, a typo'd PIPEBD_SIMD must never silently
    // benchmark the wrong tier.
    let err = resolve_simd_override(Some("avx1024")).unwrap_err();
    assert!(
        err.contains("avx1024"),
        "error must name the bad value: {err}"
    );
    assert!(resolve_simd_override(Some("")).is_err());
    assert!(resolve_simd_override(Some("native")).is_err());
}

#[test]
fn auto_and_absent_override_resolve_to_the_probe() {
    assert_eq!(resolve_simd_override(None).unwrap(), SimdTier::probe());
    assert_eq!(
        resolve_simd_override(Some("auto")).unwrap(),
        SimdTier::probe()
    );
    // The probe's answer is itself supported and runnable.
    assert!(SimdTier::probe().is_supported());
}

#[test]
fn unsupported_tier_is_rejected_not_downgraded() {
    // On hosts missing a tier, both the resolver and the setter must
    // refuse it (never fall back); on hosts that have everything, the
    // property is vacuous here and the resolver tests still pin the
    // unknown-name path.
    for tier in SimdTier::ALL {
        if !tier.is_supported() {
            assert!(set_simd_tier(tier).is_err(), "{tier} setter must refuse");
            assert!(
                resolve_simd_override(Some(&tier.to_string())).is_err(),
                "{tier} resolver must refuse"
            );
        }
    }
}
