//! The key table of derived buffers: one function per buffer family.
//!
//! A resident operand is stored on the workers as *derived* buffers — the
//! form one kind of contraction consumes. Each has a **logical** key, which
//! the cost model's charge book sees, and for the sparse `A` families a
//! **physical** key, which the worker stores see: the logical key's parts
//! followed by `(1, 0)`, the one chunk of one a chain step consumes (the
//! words are those of the row-bucketed layout the families once had, so
//! the keys did not move). Both come from the one [`CoordsKey`] value, so
//! they cannot drift apart.
//!
//! A key is a [`WordHash`] of its parts in order, one 64-bit word per
//! part: deterministic and backend-independent, which is what lets the
//! in-process backend replay the exact charge sequence of the
//! multi-process one.

use crate::handle::{OpHandle, WordHash};
use tt_tensor::einsum::ContractPlan;

// Purpose tags: what a buffer derived from a handle's content is for.
const TAG_SD_A: u64 = 0x5D; // sparse-dense coords
const TAG_SS_A: u64 = 0x55; // key-sorted sparse-sparse coords
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

/// The key of a sparse `A` buffer family.
#[derive(Clone, Copy)]
pub(crate) struct CoordsKey(WordHash);

impl CoordsKey {
    /// The charge key.
    pub(crate) fn logical(self) -> u64 {
        self.0.finish()
    }

    /// The worker key: the family stored whole, as a chain step consumes
    /// it — chunk 0 of 1 in the key words.
    pub(crate) fn whole(self) -> u64 {
        self.0.u64(1).u64(0).finish()
    }
}

/// The fused coordinates of a sparse-dense `A`, against `n` output
/// columns.
pub(super) fn sd_a(h: &OpHandle, plan: &ContractPlan, n: usize) -> CoordsKey {
    CoordsKey(derive(&[
        h.key(),
        TAG_SD_A,
        hseq(plan.free_a_positions()),
        hseq(plan.ctr_a_positions()),
        n as u64,
    ]))
}

/// The key-sorted fused coordinates of a sparse-sparse `A`.
pub(super) fn ss_a(h: &OpHandle, plan: &ContractPlan) -> CoordsKey {
    CoordsKey(derive(&[
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
