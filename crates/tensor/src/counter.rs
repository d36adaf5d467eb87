//! Global floating-point operation counters.
//!
//! CTF counts flops internally and the paper uses those counts as the basis
//! for every GFlops/s number it reports ("we measure FLOP operations using
//! the built in Cyclops routines for the list method"). We mirror that: the
//! GEMM and sparse kernels in this crate add to a process-global counter,
//! and higher layers snapshot it around timed regions.

use std::sync::atomic::{AtomicU64, Ordering};

static FLOPS: AtomicU64 = AtomicU64::new(0);
static MEM_TRAFFIC: AtomicU64 = AtomicU64::new(0);

/// Add `n` floating point operations to the global counter.
#[inline]
pub fn add_flops(n: u64) {
    FLOPS.fetch_add(n, Ordering::Relaxed);
}

/// Add `n` bytes of memory traffic. The counter means *bytes moved*: the
/// transposition kernel charges what it reads plus what it writes
/// (`2·len·size_of::<T>()` per executed [`crate::transpose::permute`]),
/// and a permutation a caller elides — an operand borrowed in place, a
/// transpose folded into packing strides — charges nothing.
#[inline]
pub fn add_mem_traffic(n: u64) {
    MEM_TRAFFIC.fetch_add(n, Ordering::Relaxed);
}

/// Current value of the global flop counter.
pub fn flops() -> u64 {
    FLOPS.load(Ordering::Relaxed)
}

/// Current value of the global memory-traffic counter (bytes).
pub fn mem_traffic() -> u64 {
    MEM_TRAFFIC.load(Ordering::Relaxed)
}

/// Reset both counters to zero. Returns the previous flop count.
pub fn reset_flops() -> u64 {
    MEM_TRAFFIC.store(0, Ordering::Relaxed);
    FLOPS.swap(0, Ordering::Relaxed)
}

/// RAII helper measuring the flops executed within a scope.
///
/// ```
/// let g = tt_tensor::FlopGuard::start();
/// // ... contractions ...
/// let flops_in_scope = g.elapsed();
/// ```
pub struct FlopGuard {
    start: u64,
}

impl FlopGuard {
    /// Snapshot the counter.
    pub fn start() -> Self {
        Self { start: flops() }
    }

    /// Flops added to the global counter since [`FlopGuard::start`].
    pub fn elapsed(&self) -> u64 {
        flops().wrapping_sub(self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_and_guard() {
        let g = FlopGuard::start();
        add_flops(100);
        add_flops(23);
        assert_eq!(g.elapsed(), 123);
        let g2 = FlopGuard::start();
        add_flops(7);
        assert_eq!(g2.elapsed(), 7);
        assert!(flops() >= 130);
    }

    #[test]
    fn mem_traffic_counts() {
        let before = mem_traffic();
        add_mem_traffic(64);
        assert!(mem_traffic() >= before + 64);
    }
}
