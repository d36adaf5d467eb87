//! The execution front-end: every distributed-capable operation in the
//! workspace goes through an [`Executor`].
//!
//! Numerics are exact (the executor computes locally with deterministic
//! kernels); the *cost* of running the operation on `p` ranks of the
//! configured [`Machine`] is charged to the shared [`CostTracker`]: a
//! 2-D-grid panel-broadcast volume per contraction, TTGT packing traffic, roofline
//! compute time, tile-imbalance idle time and per-operation supersteps.
//!
//! # Resident operands
//!
//! The hot entry points accept operands either **by value** (a tensor
//! reference — shipped with every task on the multi-process backend) or
//! **by handle** ([`OpHandle`], created with [`Executor::upload`] /
//! [`Executor::upload_sparse`], freed with [`Executor::free`]) — the same
//! entry point takes either, as `impl Into<`[`DenseOp`]`>` /
//! `impl Into<`[`SparseOp`]`>` (only [`Executor::contract_ss`]'s `b`, the
//! moving operand of a sparse-sparse step, is by value only). A handle's
//! derived buffers (the whole tensor, coordinate buckets) are stored on
//! the workers on first use, so every later contraction against the same
//! handle ships **zero operand bytes**: scatter and compute are fused into
//! one superstep, and the task carries only a store key. The α–β charges
//! follow the same discipline — a one-time upload charge on first use
//! (miss), no β charge on a hit —
//! and are computed from driver-side registry state only, so the charge
//! sequence is bitwise-identical on every backend. On [`Backend::InProcess`]
//! handles are plain `Arc`s around the tensor and the numerics take the
//! exact same kernel path as the value-passing API.
//!
//! # One leg per decision
//!
//! An entry point has an in-process leg and a cluster leg, and they share
//! everything but the carrier. Every contraction is a chain step —
//! `contract`, `contract_sd` and `contract_ss` are one-step chains, a
//! block pair of the list algorithm is one step of a list chain — and it
//! is cut the same way on both legs: whole, on one lane (a worker rank,
//! or the caller's thread), the pool alone splitting it into row panels or
//! chunks (`kernels::dense_ranges`, `kernels::sparse_chunks`). *How work
//! reaches a lane* in-process is `kernels::ordered_map` over borrowed data. *What a superstep is* on the cluster is `residency::Superstep`:
//! `ensure` an upload wherever a rank lacks a buffer, queue the `task`s,
//! `run` — every request that carries work (`Contract`, `SdContract`,
//! `SsChunk`, `SvdTrunc`) is assembled and sent there; the bare
//! `call_all`s left outside it (`Free`s, `CacheStats`, `Download`s, the
//! chain's error sweep) carry none. The frames a fixed script sends are
//! pinned by `tests::protocol_trace_matches_golden`.
//!
//! Layout: this file holds the [`Executor`] itself and the operand types;
//! `keys` the logical and physical key of every derived-buffer family;
//! `residency` the upload/free lifecycle, the retention cache, the α–β
//! charges and the `Superstep` builder; `dense`, `sparse` and `factorize`
//! the value-returning entry points; `chain` the one contraction engine,
//! the planner of worker-side chains — dense, sparse-dense and
//! sparse-sparse steps alike, planned once per step shape — and the
//! result handles' exits; `workspace` the recycled buffers of the large
//! temporaries and outputs.

mod chain;
mod dense;
mod factorize;
mod keys;
mod residency;
mod sparse;
#[cfg(test)]
mod tests;
mod workspace;

pub use chain::{ChainSrc, ChainStep};
pub use residency::RankCacheStats;
pub(crate) use workspace::Workspace;
pub use workspace::WorkspaceStats;

use crate::cluster::Cluster;
use crate::cost::{CostTracker, SimTime};
use crate::handle::{OpHandle, Residency};
use crate::machine::Machine;
use crate::pool::ThreadPool;
use crate::transport::worker::Reply;
use crate::transport::SpawnSpec;
use crate::{Error, Result};
use parking_lot::Mutex;
use residency::Retention;
use std::sync::Arc;
use tt_tensor::{DenseTensor, SparseTensor};

/// How the executor runs its local kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// Single-threaded reference execution.
    Sequential,
    /// Kernels row-chunked across a worker pool; results are
    /// bitwise-identical to [`ExecMode::Sequential`].
    Threaded,
}

/// Which execution substrate an [`Executor`] runs on.
#[derive(Clone, Debug)]
pub enum Backend {
    /// The simulated single-address-space runtime (the seed behavior):
    /// exact local kernels, optionally thread-pool parallel, with
    /// communication only *charged*, never performed.
    InProcess(ExecMode),
    /// The shared-nothing runtime: `workers` real OS processes execute
    /// the kernel chunks and the driver moves operand/result payloads
    /// over the socket transport. Results are bitwise-identical to
    /// [`Backend::InProcess`] with [`ExecMode::Sequential`].
    MultiProcess {
        /// Number of worker processes to spawn.
        workers: usize,
        /// How to launch them.
        spawn: SpawnSpec,
    },
}

/// A dense `f64` operand: by value or by resident handle.
#[derive(Clone, Copy)]
pub enum DenseOp<'a> {
    /// Shipped with every task.
    Value(&'a DenseTensor<f64>),
    /// Resident on the runtime after first use.
    Handle(&'a OpHandle),
}

impl<'a> From<&'a DenseTensor<f64>> for DenseOp<'a> {
    fn from(t: &'a DenseTensor<f64>) -> Self {
        DenseOp::Value(t)
    }
}

impl<'a> From<&'a OpHandle> for DenseOp<'a> {
    fn from(h: &'a OpHandle) -> Self {
        DenseOp::Handle(h)
    }
}

impl<'a> DenseOp<'a> {
    pub(crate) fn tensor(&self) -> Result<&'a DenseTensor<f64>> {
        match self {
            DenseOp::Value(t) => Ok(t),
            DenseOp::Handle(h) => h.dense(),
        }
    }

    pub(crate) fn handle(&self) -> Option<&'a OpHandle> {
        match self {
            DenseOp::Value(_) => None,
            DenseOp::Handle(h) => Some(h),
        }
    }
}

/// A sparse `f64` operand: by value or by resident handle.
#[derive(Clone, Copy)]
pub enum SparseOp<'a> {
    /// Shipped with every task.
    Value(&'a SparseTensor<f64>),
    /// Resident on the runtime after first use.
    Handle(&'a OpHandle),
}

impl<'a> From<&'a SparseTensor<f64>> for SparseOp<'a> {
    fn from(t: &'a SparseTensor<f64>) -> Self {
        SparseOp::Value(t)
    }
}

impl<'a> From<&'a OpHandle> for SparseOp<'a> {
    fn from(h: &'a OpHandle) -> Self {
        SparseOp::Handle(h)
    }
}

impl<'a> SparseOp<'a> {
    fn tensor(&self) -> Result<&'a SparseTensor<f64>> {
        match self {
            SparseOp::Value(t) => Ok(t),
            SparseOp::Handle(h) => h.sparse(),
        }
    }

    fn handle(&self) -> Option<&'a OpHandle> {
        match self {
            SparseOp::Value(_) => None,
            SparseOp::Handle(h) => Some(h),
        }
    }
}

/// The distributed executor.
pub struct Executor {
    machine: Machine,
    nodes: usize,
    ranks: usize,
    backend: Backend,
    tracker: Arc<Mutex<CostTracker>>,
    pool: Option<Arc<ThreadPool>>,
    cluster: Option<Mutex<Cluster>>,
    residency: Mutex<Residency>,
    /// Allocator for driver-issued result keys (chain outputs).
    next_result: Mutex<u64>,
    /// Cross-job retention cache (see [`Executor::set_retention_cap`]).
    retention: Mutex<Retention>,
    /// Where the in-process legs keep their large temporaries and outputs
    /// between uses (see [`Executor::workspace_stats`]).
    workspace: Workspace,
    /// The step shapes of the last chain, for the next one (see
    /// [`Executor::chain`]).
    shapes: Mutex<chain::ShapeMemo>,
}

/// Transport options of the multi-process backend; nothing to set on a
/// platform it cannot run on.
#[cfg(unix)]
type ProcOpts = crate::ProcOptions;
#[cfg(not(unix))]
type ProcOpts = ();

impl Executor {
    /// Serial baseline: one rank of the free-communication local machine.
    pub fn local() -> Self {
        Self::with_machine(Machine::local(), 1, ExecMode::Sequential)
    }

    /// Executor over `nodes` nodes of `machine` (total ranks =
    /// `nodes × machine.procs_per_node`) in the given in-process mode.
    pub fn with_machine(machine: Machine, nodes: usize, mode: ExecMode) -> Self {
        Self::with_backend(machine, nodes, Backend::InProcess(mode))
            .expect("in-process backend construction is infallible")
    }

    /// Executor over `nodes` simulated nodes of `machine`, running on the
    /// given [`Backend`]. Spawning the multi-process backend can fail
    /// (worker binary missing, socket errors); its deadline and fault plan
    /// come from the environment (`ProcOptions::default()`).
    pub fn with_backend(machine: Machine, nodes: usize, backend: Backend) -> Result<Self> {
        Self::build(machine, nodes, backend, ProcOpts::default())
    }

    /// Convenience: executor over the multi-process shared-nothing
    /// backend with `workers` real worker processes.
    pub fn multi_process(
        machine: Machine,
        nodes: usize,
        workers: usize,
        spawn: SpawnSpec,
    ) -> Result<Self> {
        Self::with_backend(machine, nodes, Backend::MultiProcess { workers, spawn })
    }

    /// Multi-process executor with explicit [`ProcOptions`] — detection
    /// deadline and the [`FaultPlan`] injection layer (both types
    /// re-exported at the crate root).
    ///
    /// [`ProcOptions`]: crate::ProcOptions
    /// [`FaultPlan`]: crate::FaultPlan
    #[cfg(unix)]
    pub fn multi_process_opts(
        machine: Machine,
        nodes: usize,
        workers: usize,
        spawn: SpawnSpec,
        opts: crate::ProcOptions,
    ) -> Result<Self> {
        Self::build(
            machine,
            nodes,
            Backend::MultiProcess { workers, spawn },
            opts,
        )
    }

    /// The one constructor; `opts` only matters to [`Backend::MultiProcess`].
    fn build(machine: Machine, nodes: usize, backend: Backend, opts: ProcOpts) -> Result<Self> {
        let nodes = nodes.max(1);
        let ranks = nodes * machine.procs_per_node.max(1);
        let tracker = Arc::new(Mutex::new(CostTracker::new(machine.clone(), ranks)));
        let (pool, cluster) = match &backend {
            Backend::InProcess(ExecMode::Sequential) => (None, None),
            Backend::InProcess(ExecMode::Threaded) => {
                (Some(Arc::new(ThreadPool::default_size())), None)
            }
            #[cfg(unix)]
            Backend::MultiProcess { workers, spawn } => {
                let mut cl = Cluster::multi_process(*workers, spawn, opts)?;
                cl.attach_tracker(Arc::clone(&tracker));
                (None, Some(Mutex::new(cl)))
            }
            #[cfg(not(unix))]
            Backend::MultiProcess { .. } => {
                let () = opts;
                return Err(Error::Runtime(
                    "the multi-process backend requires a unix platform".into(),
                ));
            }
        };
        Ok(Self {
            machine,
            nodes,
            ranks,
            backend,
            tracker,
            pool,
            cluster,
            residency: Mutex::new(Residency::default()),
            next_result: Mutex::new(1 << 48),
            retention: Mutex::new(Retention::default()),
            workspace: Workspace::default(),
            shapes: Mutex::default(),
        })
    }

    /// The machine model being simulated.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Simulated node count.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Total simulated ranks.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Execution mode: [`ExecMode::Threaded`] exactly when the kernels
    /// have a pool to fan out over.
    pub fn mode(&self) -> ExecMode {
        match self.pool {
            Some(_) => ExecMode::Threaded,
            None => ExecMode::Sequential,
        }
    }

    /// The backend this executor runs on.
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// The shared cost tracker.
    pub fn tracker(&self) -> &Arc<Mutex<CostTracker>> {
        &self.tracker
    }

    /// Flops executed through this executor since the last reset.
    pub fn total_flops(&self) -> u64 {
        self.tracker.lock().flops
    }

    /// BSP supersteps on the critical path since the last reset.
    pub fn supersteps(&self) -> u64 {
        self.tracker.lock().supersteps
    }

    /// Simulated time breakdown since the last reset.
    pub fn sim_time(&self) -> SimTime {
        self.tracker.lock().sim
    }

    /// Operand bytes the driver actually shipped to workers since the
    /// last reset (multi-process data plane; zero in-process).
    pub fn operand_bytes(&self) -> u64 {
        self.tracker.lock().bytes_operands
    }

    /// Result bytes workers actually returned since the last reset.
    pub fn result_bytes(&self) -> u64 {
        self.tracker.lock().bytes_results
    }

    /// Per-rank size of the driver-side recovery journal (multi-process
    /// backend; empty in-process): what a respawned rank would be replayed.
    /// With no live result handle it is the retained uploads and nothing
    /// else, however many jobs this executor has served. Each rank's entry
    /// also counts the requests it has been sent.
    pub fn journal_stats(&self) -> Vec<crate::JournalStats> {
        self.cluster
            .as_ref()
            .map(|cl| cl.lock().journal_stats())
            .unwrap_or_default()
    }

    /// What the executor's workspace holds and has served. The workspace
    /// recycles the large dense temporaries of the in-process legs — chain
    /// step outputs, sparse-dense and dense alike, released when their last
    /// consumer has run, the sparse-dense kernel's `C` and transposed
    /// copies, the fresh outputs of dense contractions, and what
    /// [`Executor::recycle`] hands in — so that a sweep does not page-fault
    /// fresh memory for each of them; [`Executor::free`] states the bound on
    /// what it keeps.
    pub fn workspace_stats(&self) -> WorkspaceStats {
        self.workspace.stats()
    }

    /// A zeroed dense tensor of `dims` from the workspace, for a caller
    /// that fills an operand in and hands it back by
    /// [`Executor::recycle`] once the chain that read it is done.
    pub fn zeros(&self, dims: &[usize]) -> DenseTensor<f64> {
        let (mut buf, zeroed) = self.workspace.take_or_zeros(dims.iter().product());
        if !zeroed {
            buf.fill(0.0);
        }
        DenseTensor::from_vec(dims.to_vec(), buf).expect("the buffer holds the volume")
    }

    /// Hand a dense tensor the caller is done with — a sparse-dense result
    /// it has converted, the densified operand it passed in — back to the
    /// workspace its buffer came from, or could serve next.
    pub fn recycle(&self, t: DenseTensor<f64>) {
        self.workspace.give(t.into_data());
    }

    /// Bytes moved only because of fault recovery (journal replay and
    /// re-issued in-flight requests) since the last reset. Zero on a
    /// fault-free run; `operand_bytes`/`result_bytes` stay equal to the
    /// fault-free run regardless.
    pub fn recovery_bytes(&self) -> u64 {
        self.tracker.lock().bytes_recovery
    }

    /// Zero all cost counters.
    pub fn reset_costs(&self) {
        self.tracker.lock().reset();
    }

    fn pool(&self) -> Option<&ThreadPool> {
        self.pool.as_deref()
    }
}

/// Unwrap a dense-buffer reply.
fn expect_buf(reply: Reply) -> Result<Vec<f64>> {
    match reply {
        Reply::Buf(data) => Ok(data),
        other => Err(Error::transport(format!(
            "expected a dense buffer, got {other:?}"
        ))),
    }
}
