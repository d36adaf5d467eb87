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
//! Every contraction, SVD and QR routes through a
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

/// Errors from the DMRG driver.
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
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Env(s) => write!(f, "environment: {s}"),
            Error::Eig(s) => write!(f, "eigensolver: {s}"),
            Error::Sweep(s) => write!(f, "sweep: {s}"),
            Error::Ed(s) => write!(f, "exact diagonalization: {s}"),
        }
    }
}

impl std::error::Error for Error {}
