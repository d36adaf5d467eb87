//! Runtime SIMD feature dispatch for the GEMM microkernel.
//!
//! The microkernel in [`mod@crate::gemm`] is compiled into several variants,
//! each behind `#[target_feature]`, and the variant to run is chosen *once
//! per process* from CPUID (via `is_x86_feature_detected!`) — so a portable
//! build (`-C target-cpu=x86-64`) still runs the AVX2+FMA kernel on
//! machines that have it. This replaces the previous approach of relying
//! entirely on ambient `-C target-cpu=native` codegen flags in
//! `.cargo/config.toml` (which are still applied to the *non*-dispatched
//! kernels; see that file's comment for how the two interact).
//!
//! ## Determinism contract
//!
//! Bitwise reproducibility (Sequential ≡ Threaded ≡ MultiProcess) holds
//! **per selected variant**: every process taking part in one computation
//! must select the same variant. Spawned multi-process workers inherit the
//! driver's environment, so the `TT_SIMD` override propagates automatically.
//! CI pins the variant (`TT_SIMD=avx2`) for the equivalence tests and runs
//! them a second time under native auto-dispatch.
//!
//! In practice the variants are also bitwise identical to *each other* —
//! rustc does not contract `mul`+`add` into FMA without explicit intrinsics,
//! and the accumulator tile fixes the summation order — but only the
//! per-variant guarantee is promised.
//!
//! ## Override
//!
//! `TT_SIMD` forces a variant: `baseline`, `avx2`, `avx512`, or `auto`
//! (default). A request for a level the CPU lacks is clamped down to the
//! best available one. `avx512` is *never* auto-selected: on the machines
//! this repo has been benchmarked on, LLVM's AVX-512 lowering of the
//! surrounding gather/scatter-heavy code was a measured regression, so the
//! 512-bit microkernel is opt-in for measurement.
//!
//! The variable is read once; changing it after the first kernel call has
//! no effect.

use std::sync::OnceLock;

/// Instruction-set level the microkernel dispatch selected.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// Whatever the ambient compile flags produced (portable fallback).
    Baseline,
    /// 256-bit AVX2 + FMA variant.
    Avx2,
    /// 512-bit AVX-512F/VL/DQ variant (opt-in via `TT_SIMD=avx512`).
    Avx512,
}

impl SimdLevel {
    /// Human-readable name (`baseline` / `avx2` / `avx512`).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Baseline => "baseline",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }
}

#[cfg(target_arch = "x86_64")]
fn detect(requested: Option<&str>) -> SimdLevel {
    let has_avx2 =
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma");
    let has_avx512 = has_avx2
        && std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512vl")
        && std::arch::is_x86_feature_detected!("avx512dq");
    let avx2_or_base = if has_avx2 {
        SimdLevel::Avx2
    } else {
        SimdLevel::Baseline
    };
    match requested {
        Some("baseline") => SimdLevel::Baseline,
        Some("avx2") => avx2_or_base,
        Some("avx512") => {
            if has_avx512 {
                SimdLevel::Avx512
            } else {
                avx2_or_base
            }
        }
        // unknown strings behave like auto rather than aborting the run
        _ => avx2_or_base,
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect(_requested: Option<&str>) -> SimdLevel {
    SimdLevel::Baseline
}

/// The microkernel variant this process runs. Detected once (honoring the
/// `TT_SIMD` override) and cached for the lifetime of the process.
pub fn simd_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        let req = std::env::var("TT_SIMD").ok();
        detect(req.as_deref())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_is_clamped_to_cpu() {
        // whatever the CPU, every request maps to *some* valid level and
        // baseline is always honored
        assert_eq!(detect(Some("baseline")), SimdLevel::Baseline);
        let auto = detect(None);
        assert_eq!(detect(Some("definitely-not-a-level")), auto);
        // avx512 is never below what auto picks, and never above what the
        // CPU supports
        let a512 = detect(Some("avx512"));
        assert!(a512 == auto || a512 == SimdLevel::Avx512);
    }

    #[test]
    fn level_names() {
        assert_eq!(SimdLevel::Baseline.name(), "baseline");
        assert_eq!(SimdLevel::Avx2.name(), "avx2");
        assert_eq!(SimdLevel::Avx512.name(), "avx512");
    }

    #[test]
    fn process_level_is_stable() {
        assert_eq!(simd_level(), simd_level());
    }
}
