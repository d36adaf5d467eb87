//! `tt-mps` — matrix product states and operators for the paper's physical
//! systems.
//!
//! * [`sites`] — spin-1/2 (`d=2`, U(1) `Sz`) and electron (`d=4`,
//!   U(1)×U(1) `(N↑,N↓)`) local Hilbert spaces,
//! * [`lattice`] — the 2-D cylinders of Fig. 4 mapped to 1-D site
//!   orderings,
//! * [`autompo`] — AutoMPO: operator-string sums → MPO via a finite-state
//!   machine, with Jordan-Wigner fermion strings and deparallelization
//!   (the ITensor-equivalent construction the paper uses for parity),
//! * [`mpo`] / [`mps`] — block-sparse MPO/MPS with canonical forms,
//!   overlaps, expectation values and SVD compression,
//! * [`models`] — the `J1−J2` Heisenberg and triangular Hubbard
//!   Hamiltonians of Section V.

pub mod autompo;
pub mod lattice;
pub mod models;
pub mod mpo;
pub mod mps;
pub mod sites;

pub use autompo::{expand_term, AutoMpo, ExpandedTerm, OpTerm};
pub use lattice::{BondKind, Lattice};
pub use models::{electron_filling, heisenberg_j1j2, hubbard, neel_state};
pub use mpo::{dense_from_terms, kron, Mpo};
pub use mps::Mps;
pub use sites::{Electron, SiteType, SpinHalf};

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors from MPS/MPO construction and manipulation: the three this crate
/// detects itself, and those of the crates below it, carried whole.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Unknown operator or malformed operator string.
    Op(String),
    /// Malformed Hamiltonian term.
    Term(String),
    /// Malformed state.
    State(String),
    /// Error from a dense tensor kernel.
    Tensor(tt_tensor::Error),
    /// Error from a block-sparse operation or the runtime under it.
    Blocks(tt_blocks::Error),
}

impl Error {
    /// The transport fault underneath, if this error is one.
    pub fn as_fault(&self) -> Option<&tt_dist::DistError> {
        match self {
            Error::Blocks(e) => e.as_fault(),
            _ => None,
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Op(s) => write!(f, "operator error: {s}"),
            Error::Term(s) => write!(f, "term error: {s}"),
            Error::State(s) => write!(f, "state error: {s}"),
            Error::Tensor(e) => write!(f, "tensor kernel: {e}"),
            Error::Blocks(e) => write!(f, "block tensor: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Tensor(e) => Some(e),
            Error::Blocks(e) => Some(e),
            Error::Op(_) | Error::Term(_) | Error::State(_) => None,
        }
    }
}

impl From<tt_tensor::Error> for Error {
    fn from(e: tt_tensor::Error) -> Self {
        Error::Tensor(e)
    }
}

impl From<tt_blocks::Error> for Error {
    fn from(e: tt_blocks::Error) -> Self {
        Error::Blocks(e)
    }
}
