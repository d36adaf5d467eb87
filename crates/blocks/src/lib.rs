//! `tt-blocks` — quantum-number block-sparse tensors and the paper's three
//! contraction algorithms.
//!
//! Implements Section II-D (quantum numbers) and Section IV (algorithms) of
//! the paper:
//!
//! * [`qn::QN`] / [`qn::Arrow`] — up to two additive U(1) charges with
//!   directed indices,
//! * [`index::QnIndex`] — graded indices (sector lists with degeneracies),
//! * [`block::BlockSparseTensor`] — the list-of-blocks tensor format,
//!   including flattening to single sparse/dense tensors and the
//!   pre-computed output-sparsity masks,
//! * [`mod@contract`] — the `list` (Alg. 2), `sparse-dense` and `sparse-sparse`
//!   contraction algorithms, all dispatched through a
//!   [`tt_dist::Executor`],
//! * [`linalg`] — block SVD via the list method with *global* singular
//!   value truncation,
//! * [`model::BlockModel`] — the empirical block model and the Table II
//!   complexity formulas.

pub mod block;
pub mod contract;
pub mod index;
pub mod linalg;
pub mod model;
pub mod qn;

pub use block::{BlockKey, BlockSparseTensor};
pub use contract::{contract, contract_chain, Algorithm, ResidentChain};
pub use index::QnIndex;
pub use linalg::{block_svd, scale_bond, BlockDiag, BlockSvd};
pub use model::BlockModel;
pub use qn::{Arrow, QN};

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors from block-sparse tensor operations: the two this crate detects
/// itself, and the runtime's, carried whole so it stays typed on the way up.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Malformed block key, mode list or dimension mismatch.
    Key(String),
    /// Operation violates quantum-number conservation.
    Symmetry(String),
    /// Error from the distributed runtime or the kernels under it.
    Dist(tt_dist::Error),
}

impl Error {
    /// The transport fault underneath, if this error is one.
    pub fn as_fault(&self) -> Option<&tt_dist::DistError> {
        match self {
            Error::Dist(e) => e.as_fault(),
            Error::Key(_) | Error::Symmetry(_) => None,
        }
    }
}

impl From<tt_dist::Error> for Error {
    fn from(e: tt_dist::Error) -> Self {
        Error::Dist(e)
    }
}

impl From<tt_tensor::Error> for Error {
    fn from(e: tt_tensor::Error) -> Self {
        Error::Dist(e.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Key(s) => write!(f, "key error: {s}"),
            Error::Symmetry(s) => write!(f, "symmetry violation: {s}"),
            Error::Dist(e) => write!(f, "distributed runtime: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Dist(e) => Some(e),
            Error::Key(_) | Error::Symmetry(_) => None,
        }
    }
}
