//! The key table of derived buffers: one function per buffer family.
//!
//! A resident operand is stored on the workers as *derived* buffers — the
//! form one kind of contraction consumes. Each has a **logical** key, which
//! the cost model's charge book sees (free of the worker count, so the
//! α–β charges are the same on every backend), and for the chunked
//! families one **physical** key per chunk, which the worker stores see:
//! the logical key's parts followed by `(chunks, i)`. Both come from the
//! one [`Chunked`] value, so they cannot drift apart.
//!
//! A key is a [`WordHash`] of its parts in order, one 64-bit word per
//! part: deterministic and backend-independent, which is what lets the
//! in-process backend replay the exact charge sequence of the
//! multi-process one.

use crate::handle::{OpHandle, WordHash};
use tt_tensor::einsum::ContractPlan;

// Purpose tags: what a buffer derived from a handle's content is for.
const TAG_SD_A: u64 = 0x5D; // volume-bucketed sparse-dense coords
const TAG_SS_A: u64 = 0x55; // row-bucketed sparse-sparse coords
const TAG_WHOLE: u64 = 0xF0; // whole tensor (pairs, SVD inputs)

fn derive(parts: &[u64]) -> WordHash {
    WordHash::new().u64s(parts.iter().copied())
}

/// A `usize` sequence (an axis permutation, mode positions) as one part.
fn hseq(vals: &[usize]) -> u64 {
    WordHash::new()
        .u64s(vals.iter().map(|&v| v as u64))
        .finish()
}

/// The key of a buffer family that is stored in chunks.
#[derive(Clone, Copy)]
pub(crate) struct Chunked(WordHash);

impl Chunked {
    /// The charge key. It omits the chunk count, which follows the worker
    /// count: a re-chunking re-ships physically (metered in
    /// `bytes_operands`) without a second α–β upload charge.
    pub(crate) fn logical(self) -> u64 {
        self.0.finish()
    }

    /// The worker key of chunk `i` of `chunks`.
    pub(crate) fn chunk(self, chunks: usize, i: usize) -> u64 {
        self.0.u64(chunks as u64).u64(i as u64).finish()
    }

    /// The worker key of the family stored unchunked — the one chunk of
    /// one that a chain step consumes.
    pub(crate) fn whole(self) -> u64 {
        self.chunk(1, 0)
    }
}

/// Volume-balanced coordinate buckets of a sparse-dense `A`, fused against
/// `n` output columns.
pub(super) fn sd_a(h: &OpHandle, plan: &ContractPlan, n: usize) -> Chunked {
    Chunked(derive(&[
        h.key(),
        TAG_SD_A,
        hseq(plan.free_a_positions()),
        hseq(plan.ctr_a_positions()),
        n as u64,
    ]))
}

/// Row buckets of a sparse-sparse `A`.
pub(super) fn ss_a(h: &OpHandle, plan: &ContractPlan) -> Chunked {
    Chunked(derive(&[
        h.key(),
        TAG_SS_A,
        hseq(plan.free_a_positions()),
        hseq(plan.ctr_a_positions()),
    ]))
}

/// A dense operand's whole tensor — what every dense task consumes: pair,
/// sparse-dense, chain-step and factorization.
pub(super) fn whole(h: &OpHandle) -> u64 {
    derive(&[h.key(), TAG_WHOLE]).finish()
}
