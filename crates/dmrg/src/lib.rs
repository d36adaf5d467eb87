//! `dmrg` — the paper's primary contribution: two-site DMRG over
//! (simulated-)distributed sparse and dense parallel tensor contractions.
//!
//! * [`mod@env`] — left/right environments (size `m²k`), extended site by site,
//! * [`heff`] — the implicit two-site effective Hamiltonian of Fig. 1d,
//!   applied in `O(m³kd)` per Davidson matvec,
//! * [`mod@davidson`] — the paper's Algorithm 1 (no preconditioning, randomized
//!   reorthogonalization fallback, small subspace),
//! * [`sweep`] — the two-site sweep driver with bond-growth schedules,
//!   truncation bookkeeping and per-site timing/flop records,
//! * [`ed`] — exact diagonalization references (generic term-based and
//!   independent bitstring Hubbard),
//! * [`service`] — the [`SolveRunner`](tt_dist::service::SolveRunner)
//!   implementation plugging this driver into the multi-tenant solve
//!   daemon (`tt-dist-serve`),
//! * [`measure`] — observables on optimized states.
//!
//! Every contraction and SVD routes through a
//! [`tt_dist::Executor`] with one of the three block-sparsity
//! [`tt_blocks::Algorithm`]s, so the same driver produces the serial
//! baseline and the simulated-distributed runs of the paper's figures.

pub mod davidson;
pub mod ed;
pub mod env;
pub mod heff;
pub mod measure;
#[cfg(unix)]
pub mod service;
pub mod sweep;

pub use davidson::{davidson, DavidsonOptions, DavidsonResult};
pub use ed::{ground_state_energy, hubbard_ed, sector_basis};
pub use env::{extend_left, extend_right, left_edge, right_edge, Environments};
pub use heff::{EffectiveHam, ResidentHam};
pub use measure::{correlation, site_expectation, structure_factor, total_expectation};
#[cfg(unix)]
pub use service::{run_reference, DmrgSolveRunner};
pub use sweep::{Dmrg, DmrgRun, Schedule, SiteRecord, SweepParams, SweepRecord};

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors from the DMRG driver: the four it detects itself, and those of
/// the crates below it, carried whole. A failure travels up by `?` and is
/// still typed at [`Dmrg::run`]'s caller ([`Error::as_fault`],
/// [`std::error::Error::source`]); it becomes text only at the job
/// boundary (`service`), whose wire type is a string.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Environment construction failed.
    Env(String),
    /// Eigensolver failed.
    Eig(String),
    /// Sweep-level failure.
    Sweep(String),
    /// Exact diagonalization failure.
    Ed(String),
    /// Error from a dense tensor kernel.
    Tensor(tt_tensor::Error),
    /// Error from a dense linear-algebra routine.
    Linalg(tt_linalg::Error),
    /// Error from a block-sparse operation or the runtime under it.
    Blocks(tt_blocks::Error),
    /// Error from MPS/MPO construction or manipulation.
    Mps(tt_mps::Error),
}

impl Error {
    /// The transport fault underneath, if this error is one: what
    /// happened and on which rank.
    pub fn as_fault(&self) -> Option<&tt_dist::DistError> {
        match self {
            Error::Blocks(e) => e.as_fault(),
            Error::Mps(e) => e.as_fault(),
            _ => None,
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Env(s) => write!(f, "environment: {s}"),
            Error::Eig(s) => write!(f, "eigensolver: {s}"),
            Error::Sweep(s) => write!(f, "sweep: {s}"),
            Error::Ed(s) => write!(f, "exact diagonalization: {s}"),
            Error::Tensor(e) => write!(f, "tensor kernel: {e}"),
            Error::Linalg(e) => write!(f, "linear algebra: {e}"),
            Error::Blocks(e) => write!(f, "block tensor: {e}"),
            Error::Mps(e) => write!(f, "mps: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Tensor(e) => Some(e),
            Error::Linalg(e) => Some(e),
            Error::Blocks(e) => Some(e),
            Error::Mps(e) => Some(e),
            Error::Env(_) | Error::Eig(_) | Error::Sweep(_) | Error::Ed(_) => None,
        }
    }
}

impl From<tt_tensor::Error> for Error {
    fn from(e: tt_tensor::Error) -> Self {
        Error::Tensor(e)
    }
}

impl From<tt_linalg::Error> for Error {
    fn from(e: tt_linalg::Error) -> Self {
        Error::Linalg(e)
    }
}

impl From<tt_blocks::Error> for Error {
    fn from(e: tt_blocks::Error) -> Self {
        Error::Blocks(e)
    }
}

impl From<tt_mps::Error> for Error {
    fn from(e: tt_mps::Error) -> Self {
        Error::Mps(e)
    }
}

#[cfg(test)]
mod tests {
    use super::Error;

    /// An error raised four crates down is still there, by `source()`,
    /// under the error a sweep returns.
    #[test]
    fn source_reaches_the_tensor_error_four_crates_down() {
        let raised = tt_tensor::Error::BadSpec("no arrow".into());
        let dist = tt_dist::Error::from(raised.clone());
        let blocks = tt_blocks::Error::from(dist);
        let mps = tt_mps::Error::from(blocks);
        let top = Error::from(mps);
        assert!(top.as_fault().is_none(), "not a transport fault");
        let mut cur: &dyn std::error::Error = &top;
        for _ in 0..4 {
            cur = cur.source().expect("one level per crate");
        }
        assert_eq!(cur.downcast_ref::<tt_tensor::Error>(), Some(&raised));
        assert!(cur.source().is_none());
        assert!(top.to_string().ends_with(&raised.to_string()), "{top}");
    }
}
