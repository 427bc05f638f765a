//! Kernel-dispatch policy for the tensor crate's hot compute paths.
//!
//! Every heavy kernel (`matmul` and friends, `conv2d` and its adjoints)
//! exists in two implementations:
//!
//! * [`KernelPolicy::Naive`] — the original direct loops: slow, exact,
//!   trivially auditable, and kept as the oracle the fast path is
//!   property-tested against.
//! * [`KernelPolicy::Blocked`] — the cache-tiled compute plane: packed
//!   blocked GEMM (`gemm` module) plus an im2col lowering for the
//!   convolution kernels (`im2col` module), with direct per-plane kernels
//!   for depthwise convolutions (`depthwise` module).
//!
//! The policy is process-global so every caller — NN layers, the model
//! zoo, both executors — gets the fast path with zero signature changes.
//! It can be overridden three ways, in precedence order:
//!
//! 1. explicitly per call, via the `*_with` kernel variants;
//! 2. programmatically, via [`set_kernel_policy`];
//! 3. from the environment: `PIPEBD_KERNEL_POLICY=naive|blocked`, read
//!    once on first use through [`resolve_kernel_policy`]. An unknown
//!    value panics, like every other `PIPEBD_*` knob.
//!
//! The default is [`KernelPolicy::Blocked`].

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Selects the implementation used by the tensor crate's compute kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelPolicy {
    /// Direct scalar loops — the reference oracle.
    Naive,
    /// im2col + packed cache-blocked GEMM — the default fast path.
    Blocked,
}

impl KernelPolicy {
    fn as_u8(self) -> u8 {
        match self {
            KernelPolicy::Naive => 0,
            KernelPolicy::Blocked => 1,
        }
    }

    fn from_u8(v: u8) -> Self {
        if v == 0 {
            KernelPolicy::Naive
        } else {
            KernelPolicy::Blocked
        }
    }
}

impl std::fmt::Display for KernelPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelPolicy::Naive => write!(f, "naive"),
            KernelPolicy::Blocked => write!(f, "blocked"),
        }
    }
}

/// 0 = naive, 1 = blocked, u8::MAX = unset (fall back to env/default).
static POLICY: AtomicU8 = AtomicU8::new(u8::MAX);
static ENV_POLICY: OnceLock<KernelPolicy> = OnceLock::new();

impl std::str::FromStr for KernelPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "naive" => Ok(KernelPolicy::Naive),
            "blocked" => Ok(KernelPolicy::Blocked),
            other => Err(format!(
                "unknown kernel policy `{other}` (expected \"naive\" or \"blocked\")"
            )),
        }
    }
}

/// Resolves a `PIPEBD_KERNEL_POLICY`-style value: `None` is the default
/// [`KernelPolicy::Blocked`], anything else must name a policy.
///
/// # Errors
///
/// Returns a diagnostic naming the bad value; the environment path
/// panics with it, like `PIPEBD_SIMD` ([`crate::resolve_simd_override`]).
pub fn resolve_kernel_policy(spec: Option<&str>) -> Result<KernelPolicy, String> {
    spec.map_or(Ok(KernelPolicy::Blocked), str::parse)
}

fn env_policy() -> KernelPolicy {
    *ENV_POLICY.get_or_init(|| {
        let var = std::env::var("PIPEBD_KERNEL_POLICY").ok();
        // Fail loudly: a typo'd policy silently running the fast path
        // would mislabel every recorded experiment in this process.
        resolve_kernel_policy(var.as_deref())
            .unwrap_or_else(|e| panic!("pipebd_tensor: invalid PIPEBD_KERNEL_POLICY: {e}"))
    })
}

/// The process-global kernel policy currently in effect.
///
/// Resolution order: the last [`set_kernel_policy`] call, else the
/// `PIPEBD_KERNEL_POLICY` environment variable (panicking on an unknown
/// value), else [`KernelPolicy::Blocked`].
pub fn kernel_policy() -> KernelPolicy {
    match POLICY.load(Ordering::Relaxed) {
        u8::MAX => env_policy(),
        v => KernelPolicy::from_u8(v),
    }
}

/// Overrides the process-global kernel policy.
///
/// Intended for harnesses that A/B the implementations; concurrent tests
/// should prefer the explicit `*_with` kernel variants, which take the
/// policy as an argument and touch no global state.
pub fn set_kernel_policy(policy: KernelPolicy) {
    POLICY.store(policy.as_u8(), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names() {
        assert_eq!(KernelPolicy::Naive.to_string(), "naive");
        assert_eq!(KernelPolicy::Blocked.to_string(), "blocked");
    }

    #[test]
    fn roundtrip_u8() {
        for p in [KernelPolicy::Naive, KernelPolicy::Blocked] {
            assert_eq!(KernelPolicy::from_u8(p.as_u8()), p);
        }
    }

    #[test]
    fn resolve_accepts_names_and_defaults_to_blocked() {
        assert_eq!(resolve_kernel_policy(None), Ok(KernelPolicy::Blocked));
        assert_eq!(
            resolve_kernel_policy(Some("naive")),
            Ok(KernelPolicy::Naive)
        );
        assert_eq!(
            resolve_kernel_policy(Some(" Blocked ")),
            Ok(KernelPolicy::Blocked)
        );
        for p in [KernelPolicy::Naive, KernelPolicy::Blocked] {
            assert_eq!(resolve_kernel_policy(Some(&p.to_string())), Ok(p));
        }
    }

    #[test]
    fn unknown_policy_is_an_error_not_a_fallback() {
        for bad in ["blokced", "", "auto", "fast"] {
            let err = resolve_kernel_policy(Some(bad)).unwrap_err();
            assert!(err.contains("unknown kernel policy"), "{err}");
        }
    }
}
