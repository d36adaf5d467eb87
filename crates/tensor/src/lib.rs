//! `tt-tensor` — dense and sparse *local* tensor kernels.
//!
//! This crate is the single-address-space substrate that everything else in
//! the workspace builds on. It plays the role that vendor BLAS (Cray LibSci,
//! Intel MKL), HPTT and CTF's local kernels play in the paper:
//!
//! * [`DenseTensor`] — N-dimensional row-major dense tensors over a
//!   [`Scalar`] element type (`f64` or [`Complex64`]),
//! * [`mod@einsum`] — Einstein-summation contraction of two tensors, lowered to
//!   transpose-transpose-GEMM-transpose (TTGT) exactly like CTF,
//! * [`mod@gemm`] — a tiled, cache-blocked matrix-multiply kernel,
//! * [`transpose::permute`] — mode-fusing N-d transposition: run copies and
//!   a tiled inner transpose (the HPTT stand-in),
//! * [`SparseTensor`] — coordinate-format sparse tensors, the operand
//!   format of the paper's *sparse-dense* and *sparse-sparse* algorithms;
//!   it has no contraction kernel of its own: both kernels are
//!   `tt_dist::kernels::sd` and `tt_dist::kernels::ss`, the latter over
//!   this crate's slot merge ([`ssmerge`]),
//! * [`counter`] — global flop/memory-traffic counters mirroring CTF's
//!   built-in flop counting, which the paper uses to report GFlops/s.
//!
//! All contraction entry points count flops; nothing here allocates behind
//! the caller's back beyond the result buffers.

pub mod counter;
pub mod dense;
pub mod einsum;
pub mod gemm;
pub mod scalar;
pub mod shape;
pub mod simd;
pub mod sparse;
pub mod ssmerge;
pub mod transpose;
pub mod view;

pub use counter::{flops, reset_flops, FlopGuard};
pub use dense::DenseTensor;
pub use einsum::{einsum, einsum_into, ContractPlan};
pub use gemm::{gemm, gemm_f64, gemm_path, GemmPath, Layout, PackedB, PackedBlock};
pub use scalar::{Complex64, Scalar};
pub use shape::Shape;
pub use simd::{simd_level, SimdLevel};
pub use sparse::SparseTensor;
pub use ssmerge::SsBTable;

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by tensor kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Shapes of the operands are incompatible with the requested operation.
    ShapeMismatch(String),
    /// An einsum specification string could not be parsed.
    BadSpec(String),
    /// Index out of bounds or otherwise invalid.
    BadIndex(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::ShapeMismatch(s) => write!(f, "shape mismatch: {s}"),
            Error::BadSpec(s) => write!(f, "bad einsum spec: {s}"),
            Error::BadIndex(s) => write!(f, "bad index: {s}"),
        }
    }
}

impl std::error::Error for Error {}
