//! `tt-dist` — the simulated distributed-memory execution runtime.
//!
//! This crate plays the role that MPI + Cyclops (CTF) + ScaLAPACK play in
//! the paper: every block-sparse contraction and SVD in the workspace
//! is dispatched through an [`Executor`] that
//!
//! * computes the *exact* same numbers as the serial code (the simulated
//!   runtime is bit-for-bit deterministic, including under
//!   [`ExecMode::Threaded`]),
//! * charges an α–β (latency–bandwidth) BSP cost model for the
//!   communication the operation *would* perform on `p` ranks of a real
//!   [`Machine`], accumulating [`SimTime`] / superstep / flop counters in a
//!   shared [`CostTracker`].
//!
//! Layout:
//!
//! * [`Machine`] — machine models (Blue Waters, Stampede2, a laptop-scale
//!   `local`) with flop rooflines and α/β network parameters,
//! * [`SimTime`] / [`CostTracker`] — the Fig. 7 cost categories,
//! * [`Executor`] — the entry points used by `tt-blocks` and everything
//!   above it (table below).
//!
//! One decision is made once: *value-or-resident is a property of the
//! operand* ([`DenseOp`] / [`SparseOp`] convert from `&tensor` and from
//! `&`[`OpHandle`]), never spelled in a function or opcode name. Only
//! contractions — every one a chain — take resident operands; a
//! factorization takes its matrices by value. The data plane is `f64` —
//! the paper's spin and electron models are real — and complex arithmetic
//! lives in `tt_tensor` only. The whole [`Executor`] surface is:
//!
//! | entry point | operands |
//! |---|---|
//! | [`Executor::contract`] | 2 × `impl Into<DenseOp>` |
//! | [`Executor::contract_sd`] | `impl Into<SparseOp>`, `impl Into<DenseOp>` |
//! | [`Executor::contract_ss`] | `impl Into<SparseOp>`, `&SparseTensor<f64>`, output mask |
//! | [`Executor::chain`] | [`ChainStep`]s over [`ChainSrc`] operands; results stay resident |
//! | [`Executor::svd_trunc`] | `&DenseTensor<f64>` |
//! | [`Executor::svd_trunc_batch`] | `&[DenseTensor<f64>]` |
//! | [`Executor::upload`], [`Executor::upload_shared`], [`Executor::upload_sparse`], [`Executor::free`] | operand residency |
//! | [`Executor::download`], [`Executor::download_many`], [`Executor::free_results`] | result residency |
//!
//! [`Executor::chain`] is the one contraction engine: the three one-shot
//! contractions are one-step chains and their download, and the list
//! algorithm's block pairs — the paper's block list is the unit of
//! distribution — are the steps of a chain. Every step reaches a worker
//! whole, one task per step (`Contract`, `SdContract` or `SsChunk`), its
//! result stored there until downloaded. The worker protocol under it — 11
//! requests — is tabulated in [`transport`].

mod cluster;
mod cost;
mod exec;
mod handle;
mod kernels;
mod machine;
mod pool;
#[cfg(unix)]
pub mod service;
pub mod transport;

pub use cluster::{Cluster, JournalStats};
pub use cost::{CostTracker, JobScope, ResidentMeter, SimTime};
pub use exec::{
    Backend, ChainSrc, ChainStep, DenseOp, ExecMode, Executor, RankCacheStats, SparseOp,
    WorkspaceStats,
};
pub use handle::{OpHandle, ResultHandle};
pub use machine::Machine;
pub use pool::ThreadPool;
#[cfg(unix)]
pub use transport::ProcTransport;
pub use transport::{maybe_serve, InProcTransport, SpawnSpec, Transport};
#[cfg(unix)]
pub use transport::{FaultPlan, ProcOptions};

// DistError / FaultKind are defined below and exported from the crate
// root alongside Error/Result.

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, Error>;

/// What class of transport-layer fault occurred — the driver's typed view
/// of "something went wrong talking to a rank", precise enough for the
/// recovery machinery to pick a response (respawn, retire, retry, abort).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker process exited or closed its connection.
    WorkerDied,
    /// A read or write missed its deadline (wedged rank).
    Timeout,
    /// A frame or message failed to decode (corruption, protocol skew).
    Decode,
    /// Socket- or OS-level I/O failure.
    Io,
    /// Spawning (or respawning) a worker process failed.
    Spawn,
    /// The task itself failed on a healthy worker (a `Reply::Fail` —
    /// not a transport fault; never triggers recovery).
    Task,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            FaultKind::WorkerDied => "worker died",
            FaultKind::Timeout => "timeout",
            FaultKind::Decode => "decode",
            FaultKind::Io => "io",
            FaultKind::Spawn => "spawn",
            FaultKind::Task => "task",
        };
        f.write_str(s)
    }
}

impl FaultKind {
    /// Whether this fault means the rank's resident state is suspect and
    /// the recovery machinery should respawn/replay (task failures and
    /// plain config errors are not recoverable-by-respawn).
    pub fn is_rank_fault(&self) -> bool {
        matches!(
            self,
            FaultKind::WorkerDied | FaultKind::Timeout | FaultKind::Decode
        )
    }
}

/// A typed transport-layer failure: what happened, on which rank.
#[derive(Debug, Clone, PartialEq)]
pub struct DistError {
    /// Fault classification.
    pub kind: FaultKind,
    /// The logical rank the fault concerns, when attributable.
    pub rank: Option<usize>,
    /// Human-readable detail.
    pub detail: String,
}

impl DistError {
    /// A fault of `kind` on `rank`.
    pub fn new(kind: FaultKind, rank: Option<usize>, detail: impl Into<String>) -> Self {
        Self {
            kind,
            rank,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.rank {
            Some(r) => write!(f, "{} (rank {r}): {}", self.kind, self.detail),
            None => write!(f, "{}: {}", self.kind, self.detail),
        }
    }
}

impl From<DistError> for Error {
    fn from(e: DistError) -> Self {
        Error::Transport(e)
    }
}

/// Errors from the distributed runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Error bubbled up from a local tensor kernel.
    Tensor(tt_tensor::Error),
    /// Error bubbled up from a dense linear-algebra routine.
    Linalg(tt_linalg::Error),
    /// Invalid runtime configuration or operand (rank counts, distributions).
    Runtime(String),
    /// Transport-layer failure: spawn, socket, framing, timeout, or a task
    /// that failed on a worker process.
    Transport(DistError),
}

impl Error {
    /// Generic transport failure with no rank attribution ([`FaultKind::Io`]).
    pub(crate) fn transport(detail: impl Into<String>) -> Self {
        Error::Transport(DistError::new(FaultKind::Io, None, detail))
    }

    /// A classified fault on a specific rank.
    pub(crate) fn fault(kind: FaultKind, rank: usize, detail: impl Into<String>) -> Self {
        Error::Transport(DistError::new(kind, Some(rank), detail))
    }

    /// The transport fault inside, if this is one.
    pub fn as_fault(&self) -> Option<&DistError> {
        match self {
            Error::Transport(e) => Some(e),
            _ => None,
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

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Tensor(e) => write!(f, "tensor kernel: {e}"),
            Error::Linalg(e) => write!(f, "linear algebra: {e}"),
            Error::Runtime(s) => write!(f, "runtime: {s}"),
            Error::Transport(e) => write!(f, "transport: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Tensor(e) => Some(e),
            Error::Linalg(e) => Some(e),
            Error::Runtime(_) | Error::Transport(_) => None,
        }
    }
}

/// Factor `p` into the most-square `(rows, cols)` process grid with
/// `rows * cols == p` — the grid the cost model assumes.
pub(crate) fn process_grid(p: usize) -> (usize, usize) {
    let p = p.max(1);
    let mut rows = (p as f64).sqrt() as usize;
    while rows > 1 && !p.is_multiple_of(rows) {
        rows -= 1;
    }
    (rows.max(1), p / rows.max(1))
}

#[cfg(test)]
mod grid_tests {
    use super::process_grid;

    #[test]
    fn grids_are_factorizations() {
        for p in 1..=64 {
            let (r, c) = process_grid(p);
            assert_eq!(r * c, p);
            assert!(r <= c);
        }
        assert_eq!(process_grid(16), (4, 4));
        assert_eq!(process_grid(12), (3, 4));
        assert_eq!(process_grid(7), (1, 7));
    }
}
