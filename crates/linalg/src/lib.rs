//! `tt-linalg` — dense linear algebra built from scratch on `tt-tensor`.
//!
//! Replaces the LAPACK/ScaLAPACK routines the paper relies on:
//!
//! * [`qr::qr_thin`] — Householder QR (the pre-reduction of a tall panel's
//!   SVD),
//! * [`svd::svd_trunc`] / [`svd::svd`] — Golub–Kahan–Reinsch SVD
//!   (Householder bidiagonalization, then implicit-shift QR) with
//!   truncation, the algorithm of the paper's `pdgesvd` on one core; it
//!   drives DMRG bond truncation,
//! * [`eig::eigh`] — symmetric Jacobi eigensolver (Davidson's subspace
//!   diagonalization, paper Alg. 1 line 7),
//! * [`lanczos::lanczos_smallest`] — Lanczos with full reorthogonalization
//!   (exact-diagonalization reference energies).
//!
//! All routines operate on order-2 [`tt_tensor::DenseTensor`]`<f64>` matrices
//! in row-major layout.

pub mod eig;
pub mod lanczos;
pub mod qr;
pub mod svd;

pub use eig::eigh;
pub use lanczos::{lanczos_smallest, LanczosOptions};
pub use qr::qr_thin;
pub use svd::{svd, svd_trunc, TruncSpec, TruncatedSvd};

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors from linear-algebra routines.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Operand is not a matrix or has incompatible dimensions.
    Shape(String),
    /// Iteration failed to converge within the budget.
    NoConvergence(String),
    /// Underlying tensor error.
    Tensor(tt_tensor::Error),
}

impl From<tt_tensor::Error> for Error {
    fn from(e: tt_tensor::Error) -> Self {
        Error::Tensor(e)
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Shape(s) => write!(f, "shape error: {s}"),
            Error::NoConvergence(s) => write!(f, "no convergence: {s}"),
            Error::Tensor(e) => write!(f, "tensor error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Tensor(e) => Some(e),
            Error::Shape(_) | Error::NoConvergence(_) => None,
        }
    }
}
