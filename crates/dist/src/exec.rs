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
//! `impl Into<`[`SparseOp`]`>`. A handle's derived buffers (permuted
//! matrices, row slabs, coordinate buckets, grouped sparse tables) are
//! stored on the workers on first use, so every later contraction
//! against the same handle ships **zero operand bytes**: scatter and
//! compute are fused into one superstep per chunk, and the chunk request
//! carries only a store key. The α–β charges follow the same discipline —
//! a one-time upload charge on first use (miss), no β charge on a hit —
//! and are computed from driver-side registry state only, so the charge
//! sequence is bitwise-identical on every backend. On [`Backend::InProcess`]
//! handles are plain `Arc`s around the tensor and the numerics take the
//! exact same kernel path as the value-passing API.

use crate::cluster::{Cluster, Placement};
use crate::comm::Comm;
use crate::cost::{self, CostTracker, SimTime};
use crate::handle::{
    derive, hseq, DenseAny, Fnv, OpHandle, Payload, Residency, ResultHandle, ResultInfo, ResultKind,
};
use crate::kernels;
use crate::machine::Machine;
use crate::pool::ThreadPool;
use crate::transport::worker::{Buf, Op, OpCoords, OpSs, Out, Reply, Request};
use crate::transport::SpawnSpec;
use crate::{process_grid, Error, Result};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use tt_linalg::{TruncSpec, TruncatedSvd};
use tt_tensor::einsum::ContractPlan;
use tt_tensor::gemm::{gemm_path, GemmPath};
use tt_tensor::{Complex64, DenseTensor, Scalar, SparseTensor};

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

/// A dense operand of scalar type `T`: by value or by resident handle.
/// [`DenseOp`] and [`DenseOpC`] are the `f64` / [`Complex64`] instances —
/// every dense executor path is generic over the element type, which is
/// what lets one cluster driver serve both.
pub enum DenseOpT<'a, T: Scalar> {
    /// Shipped with every task.
    Value(&'a DenseTensor<T>),
    /// Resident on the runtime after first use.
    Handle(&'a OpHandle),
}

/// A dense `f64` operand: by value or by resident handle.
pub type DenseOp<'a> = DenseOpT<'a, f64>;
/// A dense [`Complex64`] operand: by value or by resident handle.
pub type DenseOpC<'a> = DenseOpT<'a, Complex64>;

impl<T: Scalar> Copy for DenseOpT<'_, T> {}
impl<T: Scalar> Clone for DenseOpT<'_, T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<'a, T: Scalar> From<&'a DenseTensor<T>> for DenseOpT<'a, T> {
    fn from(t: &'a DenseTensor<T>) -> Self {
        DenseOpT::Value(t)
    }
}

impl<'a, T: Scalar> From<&'a OpHandle> for DenseOpT<'a, T> {
    fn from(h: &'a OpHandle) -> Self {
        DenseOpT::Handle(h)
    }
}

// the WireScalar bound is an internal wiring detail of the public operand
// type — the trait itself is not part of the API surface
#[allow(private_bounds)]
impl<'a, T: WireScalar> DenseOpT<'a, T> {
    pub(crate) fn tensor(&self) -> Result<&'a DenseTensor<T>> {
        match self {
            DenseOpT::Value(t) => Ok(t),
            DenseOpT::Handle(h) => h.dense(),
        }
    }

    pub(crate) fn handle(&self) -> Option<&'a OpHandle> {
        match self {
            DenseOpT::Value(_) => None,
            DenseOpT::Handle(h) => Some(h),
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

/// What the dense data plane needs to know about an element type: how to
/// tag a buffer or tensor of it, and how to recognize one. The two
/// implementations (for `f64` and [`Complex64`]) are the *only*
/// scalar-specific code — everything else is one generic driver
/// (mirroring `kernels::dense_contract<T>`).
pub(crate) trait WireScalar: Scalar {
    /// Stored `f64` words per element (1 for `f64`, 2 for [`Complex64`]).
    const WORDS: usize;
    /// The tag itself.
    const KIND: ResultKind;
    /// Derived-buffer purpose tag for slab-partitioned permuted `A`.
    const TAG_A: u64;
    /// Derived-buffer purpose tag for the replicated permuted `B` matrix.
    const TAG_B: u64;
    fn wrap(data: Vec<Self>) -> Buf;
    fn unwrap(buf: Buf) -> Result<Vec<Self>>;
    fn wrap_tensor(t: Arc<DenseTensor<Self>>) -> DenseAny;
    fn peek(t: &DenseAny) -> Option<&Arc<DenseTensor<Self>>>;
}

impl WireScalar for f64 {
    const WORDS: usize = 1;
    const KIND: ResultKind = ResultKind::F64;
    const TAG_A: u64 = TAG_DENSE_A;
    const TAG_B: u64 = TAG_MAT_B;

    fn wrap(data: Vec<Self>) -> Buf {
        Buf::F64(data)
    }

    fn unwrap(buf: Buf) -> Result<Vec<Self>> {
        buf.into_f64()
    }

    fn wrap_tensor(t: Arc<DenseTensor<Self>>) -> DenseAny {
        DenseAny::F64(t)
    }

    fn peek(t: &DenseAny) -> Option<&Arc<DenseTensor<Self>>> {
        match t {
            DenseAny::F64(t) => Some(t),
            DenseAny::C64(_) => None,
        }
    }
}

impl WireScalar for Complex64 {
    const WORDS: usize = 2;
    const KIND: ResultKind = ResultKind::C64;
    const TAG_A: u64 = TAG_C64_A;
    const TAG_B: u64 = TAG_C64_B;

    fn wrap(data: Vec<Self>) -> Buf {
        Buf::C64(data)
    }

    fn unwrap(buf: Buf) -> Result<Vec<Self>> {
        buf.into_c64()
    }

    fn wrap_tensor(t: Arc<DenseTensor<Self>>) -> DenseAny {
        DenseAny::C64(t)
    }

    fn peek(t: &DenseAny) -> Option<&Arc<DenseTensor<Self>>> {
        match t {
            DenseAny::C64(t) => Some(t),
            DenseAny::F64(_) => None,
        }
    }
}

/// One operand of a [`Executor::chain`] step.
pub enum ChainSrc<'a> {
    /// A dense `f64` operand (by value or by resident operand handle).
    Dense(DenseOp<'a>),
    /// A dense [`Complex64`] operand.
    DenseC(DenseOpC<'a>),
    /// A sparse `f64` operand — only valid as the first (`a`) side of a
    /// step, selecting the sparse-dense kernel.
    Sparse(SparseOp<'a>),
    /// The resident output of step `i` of this chain (must be a
    /// non-accumulate step).
    Prev(usize),
    /// The resident output of an earlier chain on the same executor.
    Res(&'a ResultHandle),
}

/// One contraction of a worker-side chain superstep.
pub struct ChainStep<'a> {
    /// Einsum grammar of the step.
    pub spec: &'a str,
    /// First operand (the sparse/structural side for sd steps).
    pub a: ChainSrc<'a>,
    /// Second operand.
    pub b: ChainSrc<'a>,
    /// Accumulate elementwise into the output of step `i` (in submission
    /// order — the first partial of an output is always a plain store)
    /// instead of producing a fresh result.
    pub acc: Option<usize>,
}

/// The kernel family of a planned chain step.
#[derive(Clone, Copy, PartialEq, Eq)]
enum StepKind {
    Dense,
    Sd,
}

/// Static per-step plan of a chain: everything derivable driver-side from
/// dims alone.
struct PlannedStep {
    kind: StepKind,
    /// Element type of the step's operands and result.
    scalar: ResultKind,
    /// The parsed spec and its provenance hash, shared by every step of
    /// the chain that spells the same spec.
    plan: Arc<ContractPlan>,
    spec_hash: u64,
    a_dims: Vec<usize>,
    b_dims: Vec<usize>,
    out_dims: Vec<usize>,
    m: usize,
    k: usize,
    n: usize,
    flops: u64,
    words_c: usize,
    /// The step whose output slot this step writes (self for non-acc).
    base: usize,
    /// Result store key (the base's key for accumulate steps).
    key: u64,
}

/// Stored `f64` words per element of a dense buffer tagged `kind`.
fn words_per_element(kind: ResultKind) -> usize {
    match kind {
        ResultKind::F64 => f64::WORDS,
        ResultKind::C64 => Complex64::WORDS,
    }
}

/// What a chain-step operand is at planning time: a dense buffer of some
/// element type, or sparse `f64` coordinates.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SrcKind {
    Dense(ResultKind),
    Sparse,
}

/// A resolved wire operand of a chain step.
enum WireIn {
    Dense(Op),
    Coords(OpCoords),
}

impl WireIn {
    fn dense(self) -> Result<Op> {
        match self {
            WireIn::Dense(op) => Ok(op),
            WireIn::Coords(_) => Err(Error::Runtime("chain step operand kind mismatch".into())),
        }
    }

    fn coords(self) -> Result<OpCoords> {
        match self {
            WireIn::Coords(op) => Ok(op),
            WireIn::Dense(_) => Err(Error::Runtime("chain step operand kind mismatch".into())),
        }
    }
}

/// How one operand participates in a contraction's cost charges.
#[derive(Clone, Copy, Debug)]
enum OpCharge {
    /// Shipped by value: full TTGT + panel-broadcast β share, as always.
    Value(usize),
    /// First use of a resident buffer: a one-time upload superstep moves
    /// the full operand, and the driver packs it once.
    Miss(usize),
    /// Resident reuse: no β charge, no packing traffic.
    Hit,
}

impl OpCharge {
    /// Words the driver packs/permutes for this contraction.
    fn local_words(&self) -> usize {
        match self {
            OpCharge::Value(w) | OpCharge::Miss(w) => *w,
            OpCharge::Hit => 0,
        }
    }

    /// Words travelling in this contraction's broadcast superstep.
    fn beta_words(&self) -> usize {
        match self {
            OpCharge::Value(w) => *w,
            _ => 0,
        }
    }
}

// Derived-buffer purpose tags (mixed into worker/logical keys).
const TAG_DENSE_A: u64 = 0xA1; // slab-partitioned permuted f64 A
const TAG_MAT_B: u64 = 0xB1; // replicated permuted f64 matrix
const TAG_C64_A: u64 = 0xA2; // slab-partitioned permuted Complex64 A
const TAG_C64_B: u64 = 0xB2; // replicated permuted Complex64 matrix
const TAG_SD_A: u64 = 0x5D; // volume-bucketed sparse-dense coords
const TAG_SS_A: u64 = 0x55; // row-bucketed sparse-sparse coords
const TAG_SS_B: u64 = 0x56; // grouped sparse-sparse B table
const TAG_WHOLE: u64 = 0xF0; // whole tensor (pairs, SVD/QR inputs)

/// Per-operation task-mapping overhead (seconds) — the CTF-style cost of
/// building the contraction mapping, visible as "%map" in Fig. 7.
const MAP_OVERHEAD_S: f64 = 2.0e-7;

/// Aspect ratio (rows / cols) at which a factorization panel counts as
/// *tall* and routes through the TSQR tree instead of the direct
/// single-matrix factorization.
pub(crate) const TSQR_MIN_ASPECT: usize = 8;

/// Row floor below which even a high-aspect panel stays on the direct
/// path (the tree's slab bookkeeping isn't worth it).
const TSQR_MIN_ROWS: usize = 32;

/// True when `dims` is a tall matrix panel that should take the TSQR
/// route. Purely dims-driven, so the routing decision is identical on
/// every backend and in every mode.
fn tall_panel(dims: &[usize]) -> bool {
    dims.len() == 2
        && dims[1] > 0
        && dims[0] >= TSQR_MIN_ROWS
        && dims[0] >= TSQR_MIN_ASPECT * dims[1]
}

/// The distributed executor.
pub struct Executor {
    machine: Machine,
    nodes: usize,
    ranks: usize,
    mode: ExecMode,
    backend: Backend,
    tracker: Arc<Mutex<CostTracker>>,
    pool: Option<Arc<ThreadPool>>,
    cluster: Option<Mutex<Cluster>>,
    residency: Mutex<Residency>,
    /// Allocator for driver-issued result keys (chain outputs).
    next_result: Mutex<u64>,
    /// Round-robin anchor cursor for chains with no resident inputs —
    /// advanced once per [`Executor::chain`] call, so one chain's
    /// unanchored steps stay together on one rank.
    chain_cursor: Mutex<usize>,
    /// Cross-job retention cache (see [`Executor::set_retention_cap`]).
    retention: Mutex<Retention>,
}

/// LRU book of contents the executor keeps resident beyond their
/// uploaders' lifetimes so identical re-uploads (other tenants, later
/// solves) hit the worker stores instead of re-shipping bytes. Holds one
/// registry refcount per entry. Recency is a stamp from `clock`: `order`
/// maps stamp → `(content key, bytes)`, so its first entry is the eviction
/// victim, and `stamp` maps a content key back to its place in `order`.
#[derive(Default)]
struct Retention {
    cap_bytes: u64,
    bytes: u64,
    clock: u64,
    order: BTreeMap<u64, (u64, u64)>,
    stamp: HashMap<u64, u64>,
}

impl Retention {
    /// File `key` as the most recently used entry.
    fn file(&mut self, key: u64, bytes: u64) {
        self.clock += 1;
        self.order.insert(self.clock, (key, bytes));
        self.stamp.insert(key, self.clock);
    }

    /// Refresh `key` to most recently used; false if it is not held.
    fn touch(&mut self, key: u64) -> bool {
        let Some(stamp) = self.stamp.remove(&key) else {
            return false;
        };
        let (_, bytes) = self.order.remove(&stamp).expect("stamped entry is ordered");
        self.file(key, bytes);
        true
    }

    /// Hold a new content.
    fn insert(&mut self, key: u64, bytes: u64) {
        self.file(key, bytes);
        self.bytes += bytes;
    }

    /// Pop oldest entries until within budget; returns the keys to release.
    fn evict_over_cap(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        while self.bytes > self.cap_bytes {
            let Some((_, (key, b))) = self.order.pop_first() else {
                break;
            };
            self.stamp.remove(&key);
            self.bytes -= b;
            out.push(key);
        }
        out
    }
}

/// One rank's resident-store counters, as returned by
/// [`Executor::cache_stats`]: footprint (`bytes`/`entries`) and the
/// lifetime hit/miss counters that make cross-job operand dedup
/// observable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RankCacheStats {
    /// Resident bytes in the store.
    pub bytes: u64,
    /// Resident entries in the store.
    pub entries: u64,
    /// Keyed lookups served from the store since worker start.
    pub hits: u64,
    /// Fresh insertions (content not already resident) since start.
    pub misses: u64,
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
    /// deadline, respawn budget and the [`FaultPlan`] injection layer
    /// (both types re-exported at the crate root).
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
        let (mode, pool, cluster) = match &backend {
            Backend::InProcess(ExecMode::Sequential) => (ExecMode::Sequential, None, None),
            Backend::InProcess(ExecMode::Threaded) => (
                ExecMode::Threaded,
                Some(Arc::new(ThreadPool::default_size())),
                None,
            ),
            #[cfg(unix)]
            Backend::MultiProcess { workers, spawn } => {
                let mut cl = Cluster::multi_process(*workers, spawn, opts)?;
                cl.attach_tracker(Arc::clone(&tracker));
                (ExecMode::Sequential, None, Some(Mutex::new(cl)))
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
            mode,
            backend,
            tracker,
            pool,
            cluster,
            residency: Mutex::new(Residency::default()),
            next_result: Mutex::new(1 << 48),
            chain_cursor: Mutex::new(0),
            retention: Mutex::new(Retention::default()),
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

    /// Execution mode.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// The backend this executor runs on.
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// Run `f` with the multi-process cluster handle, when this executor
    /// has one ([`crate::tsqr_on`] factors its slabs over the same worker
    /// set).
    pub(crate) fn with_cluster<R>(&self, f: impl FnOnce(&mut Cluster) -> R) -> Option<R> {
        self.cluster.as_ref().map(|cl| f(&mut cl.lock()))
    }

    /// The driver-side residency registry (for sibling modules that
    /// manage resident buffers through the same lifecycle).
    pub(crate) fn residency(&self) -> &Mutex<Residency> {
        &self.residency
    }

    /// The shared cost tracker.
    pub fn tracker(&self) -> &Arc<Mutex<CostTracker>> {
        &self.tracker
    }

    /// A communicator over this executor's ranks charging into its tracker.
    pub fn comm(&self) -> Comm {
        Comm::new(self.ranks, Arc::clone(&self.tracker))
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
    /// else, however many jobs this executor has served.
    pub fn journal_stats(&self) -> Vec<crate::JournalStats> {
        self.with_cluster(|cl| cl.journal_stats())
            .unwrap_or_default()
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

    // -- resident-operand lifecycle --------------------------------------

    /// Upload a dense tensor (`f64` or [`Complex64`]), returning a
    /// content-keyed handle. Residency is lazy: buffers derived from the
    /// handle are stored on the workers by the first contraction that
    /// needs them. Each upload must be matched by one [`Executor::free`].
    #[allow(private_bounds)]
    pub fn upload<T: WireScalar>(&self, t: &DenseTensor<T>) -> OpHandle {
        self.upload_dense(T::wrap_tensor(Arc::new(t.clone())))
    }

    /// Upload an `Arc`-shared dense `f64` tensor without cloning its
    /// storage — the handle shares the caller's allocation (only the
    /// content hash is computed). This is what lets `tt-blocks`' transient
    /// per-block uploads and chain-step enqueues stop paying a full clone
    /// per block.
    pub fn upload_shared(&self, t: &Arc<DenseTensor<f64>>) -> OpHandle {
        self.upload_dense(DenseAny::F64(Arc::clone(t)))
    }

    fn upload_dense(&self, t: DenseAny) -> OpHandle {
        let h = OpHandle::new(Payload::Dense(t));
        self.finish_upload(&h);
        h
    }

    /// Upload a flattened sparse `f64` tensor.
    pub fn upload_sparse(&self, t: &SparseTensor<f64>) -> OpHandle {
        let h = OpHandle::new(Payload::Sparse(Arc::new(t.clone())));
        self.finish_upload(&h);
        h
    }

    /// Common upload tail: register the refcount, account the retained
    /// words to the current job scope (if any), and note the content in
    /// the cross-job retention cache.
    fn finish_upload(&self, h: &OpHandle) {
        self.residency.lock().retain(h.key());
        cost::scope_retain(h.key());
        cost::scope_account(h.words() as i64);
        self.note_retention(h);
    }

    /// A fresh driver-issued key for a resident contraction result.
    fn fresh_result_key(&self) -> u64 {
        let mut k = self.next_result.lock();
        let key = *k;
        *k += 1;
        key
    }

    /// Release one upload of `h`. When the last upload of the same
    /// content is freed, every worker buffer derived from the handle is
    /// dropped outright: the driver forgets the buffer homes on the last
    /// free, so the copies could never be referenced again.
    ///
    /// This is the memory bound of the multi-process backend: a worker
    /// store is a keyed map that never evicts, so a rank holds exactly
    /// what the driver has stored and not yet freed or downloaded — live
    /// operand handles, live [`ResultHandle`]s, and the retention cache up
    /// to its byte cap ([`Executor::set_retention_cap`]).
    pub fn free(&self, h: &OpHandle) -> Result<()> {
        cost::scope_release(h.key());
        cost::scope_account(-(h.words() as i64));
        self.release_key(h.key())
    }

    /// Drop one refcount of a resident content key, issuing worker-side
    /// frees if it was the last. The cluster lock is taken *before* the
    /// registry release and held across the `Free` requests, so a
    /// concurrent job re-uploading the same content cannot interleave
    /// between the registry drop and the worker-side frees (which would
    /// delete the other job's live buffers).
    fn release_key(&self, key: u64) -> Result<()> {
        match &self.cluster {
            Some(cl) => {
                let mut cl = cl.lock();
                if let Some(left) = self.residency.lock().release(key)? {
                    let reqs: Vec<(usize, Request)> = left
                        .physical
                        .iter()
                        .flat_map(|(wkey, ranks)| {
                            ranks
                                .iter()
                                .map(move |&r| (r, Request::Free { key: *wkey }))
                        })
                        .collect();
                    if !reqs.is_empty() {
                        cl.call_all(reqs)?;
                    }
                }
            }
            None => {
                self.residency.lock().release(key)?;
            }
        }
        Ok(())
    }

    /// Byte budget for the cross-job **retention cache**: an executor-held
    /// LRU of recently-uploaded contents, each pinned with one extra
    /// registry refcount so its worker-side buffers outlive the
    /// uploader's `free`. A later upload of identical content (same
    /// content key — e.g. a second tenant solving the same Hamiltonian)
    /// then finds every derived buffer already resident and ships zero
    /// operand bytes. `0` (the default) disables retention; shrinking the
    /// budget evicts oldest-first through the normal free path (retained
    /// contents count toward the memory bound described at
    /// [`Executor::free`]).
    pub fn set_retention_cap(&self, bytes: u64) -> Result<()> {
        let evict: Vec<u64> = {
            let mut r = self.retention.lock();
            r.cap_bytes = bytes;
            r.evict_over_cap()
        };
        for key in evict {
            self.release_key(key)?;
        }
        Ok(())
    }

    /// Record an uploaded content in the retention cache (refresh on
    /// re-upload), evicting oldest entries beyond the byte budget.
    /// Returns whether the cache holds the content afterwards.
    fn note_retention(&self, h: &OpHandle) -> bool {
        let evict: Vec<u64> = {
            let mut r = self.retention.lock();
            if r.cap_bytes == 0 {
                return false;
            }
            let bytes = 8 * h.words() as u64;
            if !r.touch(h.key()) {
                if bytes > r.cap_bytes {
                    return false;
                }
                self.residency.lock().retain(h.key());
                r.insert(h.key(), bytes);
            }
            r.evict_over_cap()
        };
        for key in evict {
            // Best-effort: eviction failure must not fail the upload.
            let _ = self.release_key(key);
        }
        true
    }

    /// Whether the cross-job retention cache is active (real cluster,
    /// nonzero byte budget) — the gate for value-operand auto-residency.
    fn retention_enabled(&self) -> bool {
        self.cluster.is_some() && self.retention.lock().cap_bytes > 0
    }

    /// Content-key a *value* operand through the retention cache so its
    /// worker-side buffers persist and dedup across calls (and jobs)
    /// exactly like uploaded handles. Purely physical: the caller must
    /// keep charging the logical cost model on the value path. Returns
    /// `None` (ship inline, as without retention) when the cache is off
    /// or the tensor exceeds its budget. The returned handle carries one
    /// registry refcount guarding the contraction in flight; pass it to
    /// [`Executor::finish_auto`] when the requests have been answered.
    fn auto_handle<T: WireScalar>(&self, op: &DenseOpT<T>, t: &DenseTensor<T>) -> Option<OpHandle> {
        if op.handle().is_some() || !self.retention_enabled() {
            return None;
        }
        let h = OpHandle::new(Payload::Dense(T::wrap_tensor(Arc::new(t.clone()))));
        self.residency.lock().retain(h.key());
        if self.note_retention(&h) {
            Some(h)
        } else {
            let _ = self.release_key(h.key());
            None
        }
    }

    /// Drop an auto-residency guard taken by [`Executor::auto_handle`]:
    /// the retention cache keeps its own pin, so the content stays
    /// resident until evicted.
    fn finish_auto(&self, h: Option<OpHandle>) {
        if let Some(h) = h {
            let _ = self.release_key(h.key());
        }
    }

    /// Worker resident-store footprint as `(bytes, entries)` per rank
    /// (empty in-process) — [`Executor::cache_stats`] without the
    /// counters, and the cheapest control-only round trip there is.
    pub fn worker_cache_stats(&self) -> Result<Vec<(u64, u64)>> {
        Ok(self
            .cache_stats()?
            .into_iter()
            .map(|s| (s.bytes, s.entries))
            .collect())
    }

    /// Per-rank resident-store counters (empty in-process): the footprint
    /// plus the lifetime hit/miss counts the solve service reports as
    /// fleet-wide residency stats.
    pub fn cache_stats(&self) -> Result<Vec<RankCacheStats>> {
        let Some(cl) = &self.cluster else {
            return Ok(Vec::new());
        };
        let mut cl = cl.lock();
        let reqs = (0..cl.ranks()).map(|r| (r, Request::CacheStats)).collect();
        cl.call_all(reqs)?
            .into_iter()
            .map(|rep| match rep {
                Reply::Stats {
                    bytes,
                    entries,
                    hits,
                    misses,
                } => Ok(RankCacheStats {
                    bytes,
                    entries,
                    hits,
                    misses,
                }),
                other => Err(Error::transport(format!("expected stats, got {other:?}"))),
            })
            .collect()
    }

    /// Resolve an operand's charge state: value operands charge in full;
    /// for a handle the first observation of its logical key `lkey(h)` in
    /// a resident period is a [`OpCharge::Miss`], later ones are hits.
    fn op_state(
        &self,
        handle: Option<&OpHandle>,
        lkey: impl FnOnce(&OpHandle) -> u64,
        words: usize,
    ) -> OpCharge {
        match handle {
            None => OpCharge::Value(words),
            Some(h) => {
                if self.observe_logical(h.key(), lkey(h)) {
                    OpCharge::Miss(words)
                } else {
                    OpCharge::Hit
                }
            }
        }
    }

    /// First-sighting test for a logical operand key. With a per-job
    /// [`cost::JobScope`] on this thread, the *job's* charge book decides
    /// (so a multi-tenant job's miss/hit sequence reads as if it ran
    /// alone), while the executor-wide book is still updated for
    /// release-time cleanup; without a scope, the executor-wide book
    /// decides as before.
    fn observe_logical(&self, content: u64, lkey: u64) -> bool {
        let shared = self.residency.lock().observe(content, lkey);
        match cost::scope_observe(content, lkey) {
            Some(first) => first,
            None => shared,
        }
    }

    /// Charge compute + imbalance + transpose + panel-broadcast communication for a
    /// contraction whose operands participate as `a`/`b` (value words,
    /// one-time resident upload, or cache hit) with `words_c` stored
    /// result words over an `m × n` fused output grid, executing `flops`
    /// flops. `sparse` selects the sparse roofline and time bucket.
    ///
    /// Value-only charges are bit-identical to the historical formula;
    /// resident operands drop their packing traffic and broadcast β share
    /// (cache hit ⇒ no β), with a one-time full-volume upload superstep
    /// on first use. The fused scatter+compute superstep costs one α
    /// regardless.
    #[allow(clippy::too_many_arguments)]
    fn charge_contraction(
        &self,
        a: OpCharge,
        b: OpCharge,
        words_c: usize,
        m: usize,
        n: usize,
        flops: u64,
        sparse: bool,
    ) {
        let p = self.ranks as f64;
        let n_eff = ((flops.max(2) as f64) / 2.0).cbrt();
        let n_loc = (n_eff / p.sqrt()).max(1.0);
        let rate = if sparse {
            self.machine.sparse_rate(n_loc)
        } else {
            self.machine.dense_rate(n_loc)
        };
        let t_compute = flops as f64 / (rate * p);

        cost::charge(&self.tracker, |tr| {
            if self.ranks > 1 {
                // one-time resident-operand uploads: one superstep each,
                // moving the operand's full stored volume
                for op in [a, b] {
                    if let OpCharge::Miss(w) = op {
                        tr.charge_superstep(8 * w as u64);
                    }
                }
            }
            tr.flops += flops;
            if sparse {
                tr.sim.sparse += t_compute;
            } else {
                tr.sim.gemm += t_compute;
            }

            // TTGT packing: locally-handled operands + result through memory
            // twice (resident reuse skips the pack).
            let moved_bytes = 8.0 * 2.0 * (a.local_words() + b.local_words() + words_c) as f64;
            tr.sim.transpose += moved_bytes / (self.machine.rank_mem_bw() * p);
            tr.sim.other += MAP_OVERHEAD_S;

            if self.ranks > 1 {
                // Tile imbalance on the process grid.
                let (pr, pc) = process_grid(self.ranks);
                let lambda = (m.div_ceil(pr) * pr) as f64 / m.max(1) as f64
                    * ((n.div_ceil(pc) * pc) as f64 / n.max(1) as f64)
                    - 1.0;
                tr.sim.imbalance += t_compute * lambda.max(0.0);

                // broadcast: value operand panels travel √p-reduced, resident
                // operands move nothing, the result is reduced once — all in
                // the one fused scatter+compute superstep.
                let words = ((a.beta_words() + b.beta_words()) as f64 / p.sqrt()
                    + words_c as f64 / p) as u64;
                tr.charge_superstep(8 * words);
            }
        });
    }

    /// Distributed dense × dense contraction (einsum grammar) of `f64` or
    /// [`Complex64`] operands, each by value (`&DenseTensor<T>`) or by
    /// resident handle (`&OpHandle`). Results and α–β charges are
    /// bitwise-identical on every backend and for either operand form;
    /// decomposition and residency derivation are the same for both
    /// element types (a `Complex64` element is two stored words). Two
    /// handles leave `T` to the caller: `contract::<f64>(..)`.
    #[allow(private_bounds)]
    pub fn contract<'a, T: WireScalar>(
        &self,
        spec: &str,
        a: impl Into<DenseOpT<'a, T>>,
        b: impl Into<DenseOpT<'a, T>>,
    ) -> Result<DenseTensor<T>> {
        let (a, b) = (a.into(), b.into());
        let plan = ContractPlan::parse(spec)?;
        let (at, bt) = (a.tensor()?, b.tensor()?);
        // Value-operand auto-residency: with the retention cache enabled
        // the physical dispatch sees content-keyed handles (payloads ship
        // once fleet-wide, then dedup), while the logical α–β charges
        // below still see the original value operands — simulated cost is
        // unchanged, only the bytes actually shipped shrink.
        let auto_a = self.auto_handle(&a, at);
        let auto_b = self.auto_handle(&b, bt);
        let c = if let Some(cl) = &self.cluster {
            let a_phys = auto_a.as_ref().map(DenseOpT::from).unwrap_or(a);
            let b_phys = auto_b.as_ref().map(DenseOpT::from).unwrap_or(b);
            self.dense_over_cluster(&mut cl.lock(), &plan, &a_phys, &b_phys)?
        } else {
            kernels::dense_contract(&plan, at, bt, self.pool())?
        };
        self.finish_auto(auto_a);
        self.finish_auto(auto_b);
        let (m, k, n) = kernels::fused_dims(&plan, at.dims(), bt.dims());
        let flops = plan.flop_count(at.dims(), bt.dims());
        let (perm_a, perm_b) = kernels::operand_perms(&plan);
        // the A-slab contents depend on the kernel path (MC-aligned vs
        // uniform ranges), so the logical charge key tracks it too — a
        // path change is a genuine re-upload, not a cache hit
        let path = gemm_path(k, n);
        let sa = self.op_state(
            a.handle(),
            |h| derive(&[h.key(), T::TAG_A, hseq(&perm_a), path as u64]),
            T::WORDS * m * k,
        );
        let sb = self.op_state(
            b.handle(),
            |h| derive(&[h.key(), T::TAG_B, hseq(&perm_b)]),
            T::WORDS * k * n,
        );
        self.charge_contraction(sa, sb, T::WORDS * m * n, m, n, flops, false);
        Ok(c)
    }

    /// Dense contraction over the worker processes: the driver permutes
    /// the operands, scatters MC-aligned (packed path) or uniform row
    /// slabs of `A` plus the full `B` to the ranks, and concatenates the
    /// returned row panels in submission order. Handle operands resolve
    /// to resident store keys instead of inline payloads — any upload a
    /// miss requires rides in the same superstep as the chunk tasks. The
    /// decomposition is row-disjoint with an invariant kernel path, so
    /// the result is bitwise-identical to the sequential in-process
    /// kernel. Generic over the scalar type — one driver serves `f64`
    /// and [`Complex64`].
    fn dense_over_cluster<T: WireScalar>(
        &self,
        cl: &mut Cluster,
        plan: &ContractPlan,
        a: &DenseOpT<T>,
        b: &DenseOpT<T>,
    ) -> Result<DenseTensor<T>> {
        let (at, bt) = (a.tensor()?, b.tensor()?);
        plan.output_dims(at.dims(), bt.dims())?; // validates shapes
        let (m, k, n) = kernels::fused_dims(plan, at.dims(), bt.dims());
        let (perm_a, perm_b) = kernels::operand_perms(plan);

        let path = gemm_path(k, n);
        let p = cl.ranks();
        let ranges = match path {
            GemmPath::Packed => kernels::mc_aligned_ranges(m, p),
            _ => kernels::row_ranges(m, p),
        };
        let nchunks = ranges.len();
        let mut reqs: Vec<(usize, Request)> = Vec::new();

        // B: replicated permuted matrix, resident for handles
        let b_field = match b.handle() {
            None => Op::Inline(T::wrap(bt.permute(&perm_b)?.into_data())),
            Some(h) => {
                let wkey = derive(&[h.key(), T::TAG_B, hseq(&perm_b)]);
                let mut b_mat: Option<Vec<T>> = None;
                replicate_to_missing(
                    &mut self.residency.lock(),
                    h.key(),
                    wkey,
                    nchunks.min(p),
                    &mut reqs,
                    || {
                        let data = match &b_mat {
                            Some(d) => d.clone(),
                            None => {
                                let d = bt.permute(&perm_b)?.into_data();
                                b_mat = Some(d.clone());
                                d
                            }
                        };
                        Ok(Request::Upload {
                            key: wkey,
                            data: T::wrap(data),
                        })
                    },
                )?;
                Op::Key(wkey)
            }
        };

        // A: row slabs, one resident buffer per chunk for handles
        let a_fields = slab_fields(
            &mut self.residency.lock(),
            a,
            at,
            &perm_a,
            path,
            &ranges,
            k,
            p,
            &mut reqs,
        )?;

        let n_uploads = reqs.len();
        for (i, &(r0, r1)) in ranges.iter().enumerate() {
            let a_field = match &a_fields {
                AFields::Inline(mat) => Op::Inline(T::wrap(mat[r0 * k..r1 * k].to_vec())),
                AFields::Keys(keys) => Op::Key(keys[i]),
            };
            reqs.push((
                i % p,
                Request::DenseChunk {
                    path,
                    rows: r1 - r0,
                    k,
                    n,
                    a: a_field,
                    b: b_field.clone(),
                },
            ));
        }
        let mut c = Vec::with_capacity(m * n);
        for reply in cl.call_all(reqs)?.into_iter().skip(n_uploads) {
            c.extend_from_slice(&T::unwrap(expect_buf(reply)?)?);
        }
        // (worker-side kernel flop counts travel back with every reply —
        // see the counter-delta prefix in transport::process — so the
        // driver's global counter matches the in-process backends)
        let c = DenseTensor::from_vec(kernels::natural_dims(plan, at.dims(), bt.dims()), c)?;
        Ok(c.permute(plan.output_permutation())?)
    }

    // -- result residency: chains ----------------------------------------

    /// Run an ordered list of contraction steps **worker-side**: each step
    /// may consume prior steps' resident outputs ([`ChainSrc::Prev`]) or
    /// the outputs of earlier chains ([`ChainSrc::Res`]), and no
    /// intermediate ever round-trips through the driver. Returns one
    /// [`ResultHandle`] per non-accumulate step (in step order; `None` for
    /// accumulate steps, which fold into their target's handle): the
    /// results stay in the worker stores of the ranks that computed
    /// them. [`Executor::download`] / [`Executor::download_many`] are the
    /// only value-returning exits; [`Executor::free_result`] discards. A
    /// contraction that should just *produce a handle* is a one-step chain.
    ///
    /// Placement: a step runs on the rank holding its largest resident
    /// input; when inputs live on different ranks the smaller ones move
    /// in an explicit redistribute superstep (`Download` + re-`Upload`,
    /// metered in the byte counters but — like every p-dependent physical
    /// re-ship — not α–β-charged, so the cost counters stay bitwise-equal
    /// across backends). Steps with no resident input anchor to one
    /// round-robin rank per chain call.
    ///
    /// Numerics are bitwise-identical to running the equivalent
    /// value-returning contractions on any backend: every kernel is the
    /// same row-disjoint code, and accumulate steps add partials in
    /// submission order exactly like the driver-side value path.
    pub fn chain(&self, steps: &[ChainStep]) -> Result<Vec<Option<ResultHandle>>> {
        let planned = self.plan_chain(steps)?;
        let mut locals: Vec<Option<DenseAny>> = (0..steps.len()).map(|_| None).collect();
        let homes = if let Some(cl) = &self.cluster {
            match self.chain_over_cluster(&mut cl.lock(), steps, &planned) {
                Ok(homes) => homes,
                Err(e) => {
                    // a mid-chain failure may have left earlier steps'
                    // results stored (flushed supersteps execute eagerly)
                    // with no handle to free them through — sweep every
                    // key this chain could have stored, best-effort
                    // (Free of an absent key is a worker no-op)
                    let mut cl = cl.lock();
                    let reqs: Vec<(usize, Request)> = planned
                        .iter()
                        .enumerate()
                        .filter(|&(i, pl)| pl.base == i)
                        .flat_map(|(_, pl)| {
                            (0..cl.ranks()).map(move |r| (r, Request::Free { key: pl.key }))
                        })
                        .collect();
                    let _ = cl.call_all(reqs);
                    return Err(e);
                }
            }
        } else {
            self.chain_local(steps, &planned, &mut locals)?;
            vec![0; steps.len()]
        };
        // charge every step in submission order, from driver-side registry
        // state only — the charge sequence is bitwise-identical on every
        // backend
        for (st, pl) in steps.iter().zip(&planned) {
            let sa = self.chain_charge(&st.a, pl, true)?;
            let sb = self.chain_charge(&st.b, pl, false)?;
            self.charge_contraction(
                sa,
                sb,
                pl.words_c,
                pl.m,
                pl.n,
                pl.flops,
                pl.kind == StepKind::Sd,
            );
        }
        let mut out = Vec::with_capacity(steps.len());
        let mut res = self.residency.lock();
        for (i, pl) in planned.iter().enumerate() {
            if pl.base != i {
                out.push(None);
                continue;
            }
            let produced_by = derive(&[
                pl.spec_hash,
                src_provenance(&steps[i].a, &planned),
                src_provenance(&steps[i].b, &planned),
            ]);
            res.record_result(
                pl.key,
                ResultInfo {
                    home: homes[i],
                    words: pl.words_c,
                    produced_by,
                },
            );
            out.push(Some(ResultHandle {
                key: pl.key,
                dims: pl.out_dims.clone(),
                kind: pl.scalar,
                words: pl.words_c,
                local: locals[i].take(),
            }));
        }
        Ok(out)
    }

    /// Validate a chain and compute every step's static plan (kind, dims,
    /// fused sizes, flops, output slot and store key).
    fn plan_chain(&self, steps: &[ChainStep]) -> Result<Vec<PlannedStep>> {
        let mut planned: Vec<PlannedStep> = Vec::with_capacity(steps.len());
        // a list matvec is hundreds of steps over a handful of specs:
        // parse and hash each distinct one once
        let mut specs: Vec<(&str, Arc<ContractPlan>, u64)> = Vec::new();
        for (i, st) in steps.iter().enumerate() {
            let (a_dims, ak) = src_info(&st.a, &planned)?;
            let (b_dims, bk) = src_info(&st.b, &planned)?;
            let (kind, scalar) = match (ak, bk) {
                (SrcKind::Sparse, SrcKind::Dense(ResultKind::F64)) => {
                    (StepKind::Sd, ResultKind::F64)
                }
                (SrcKind::Sparse, _) | (_, SrcKind::Sparse) => {
                    return Err(Error::Runtime(
                        "only sparse × dense chain steps are supported (sparse operand first)"
                            .into(),
                    ))
                }
                (SrcKind::Dense(ka), SrcKind::Dense(kb)) if ka == kb => (StepKind::Dense, ka),
                _ => {
                    return Err(Error::Runtime(
                        "chain step mixes f64 and Complex64 operands".into(),
                    ))
                }
            };
            let known = match specs.iter().position(|(spec, ..)| *spec == st.spec) {
                Some(at) => at,
                None => {
                    let plan = Arc::new(ContractPlan::parse(st.spec)?);
                    specs.push((st.spec, plan, hash_spec(st.spec)));
                    specs.len() - 1
                }
            };
            let (plan, spec_hash) = (Arc::clone(&specs[known].1), specs[known].2);
            let out_dims = plan.output_dims(&a_dims, &b_dims)?;
            let (m, k, n) = kernels::fused_dims(&plan, &a_dims, &b_dims);
            let flops = match (kind, &st.a) {
                (StepKind::Sd, ChainSrc::Sparse(op)) => 2 * op.tensor()?.nnz() as u64 * n as u64,
                _ => plan.flop_count(&a_dims, &b_dims),
            };
            let words_c = words_per_element(scalar) * out_dims.iter().product::<usize>();
            let (base, key) = match st.acc {
                None => (i, self.fresh_result_key()),
                Some(t) => {
                    let tgt = planned.get(t).ok_or_else(|| {
                        Error::Runtime(format!("step {i} accumulates into future step {t}"))
                    })?;
                    if tgt.base != t {
                        return Err(Error::Runtime(format!(
                            "step {i} accumulates into step {t}, itself an accumulate step"
                        )));
                    }
                    if kind != StepKind::Dense {
                        return Err(Error::Runtime(
                            "accumulate is only supported for dense chain steps".into(),
                        ));
                    }
                    if tgt.out_dims != out_dims || tgt.scalar != scalar {
                        return Err(Error::Runtime(format!(
                            "step {i} accumulate target has mismatched shape or kind"
                        )));
                    }
                    (t, tgt.key)
                }
            };
            planned.push(PlannedStep {
                kind,
                scalar,
                plan,
                spec_hash,
                a_dims,
                b_dims,
                out_dims,
                m,
                k,
                n,
                flops,
                words_c,
                base,
                key,
            });
        }
        Ok(planned)
    }

    /// The cluster leg of [`Executor::chain`]: place each step, move
    /// misplaced resident inputs (redistribute supersteps), and ship the
    /// fused chain superstep(s). Returns the home rank per step.
    fn chain_over_cluster(
        &self,
        cl: &mut Cluster,
        steps: &[ChainStep],
        planned: &[PlannedStep],
    ) -> Result<Vec<usize>> {
        let p = cl.ranks();
        let mut placement = Placement::new(p);
        let anchor = {
            let mut cur = self.chain_cursor.lock();
            let a = *cur % p.max(1);
            *cur = cur.wrapping_add(1);
            a
        };
        let mut homes: Vec<usize> = vec![0; steps.len()];
        let mut pending: Vec<(usize, Request)> = Vec::new();
        for (i, (st, pl)) in steps.iter().zip(planned).enumerate() {
            let rank = if pl.base != i {
                homes[pl.base]
            } else {
                let mut weighted: Vec<(usize, u64)> = Vec::new();
                {
                    let res = self.residency.lock();
                    for src in [&st.a, &st.b] {
                        collect_weights(src, pl, &res, &homes, planned, &mut weighted);
                    }
                }
                placement.place_weighted(weighted, Some(anchor))
            };
            homes[i] = rank;
            let a_field =
                self.wire_input(cl, rank, &st.a, pl, &mut homes, planned, &mut pending)?;
            let b_field =
                self.wire_input(cl, rank, &st.b, pl, &mut homes, planned, &mut pending)?;
            let req = match pl.kind {
                StepKind::Dense => Request::Contract {
                    spec: st.spec.to_string(),
                    a_dims: pl.a_dims.clone(),
                    a: a_field.dense()?,
                    b_dims: pl.b_dims.clone(),
                    b: b_field.dense()?,
                    out: Out::Store {
                        key: pl.key,
                        acc: pl.base != i,
                    },
                },
                StepKind::Sd => Request::ChainSd {
                    a: a_field.coords()?,
                    m: pl.m,
                    n: pl.n,
                    b_dims: pl.b_dims.clone(),
                    perm_b: kernels::operand_perms(&pl.plan).1,
                    b: b_field.dense()?,
                    nat_dims: kernels::natural_dims(&pl.plan, &pl.a_dims, &pl.b_dims),
                    out_perm: pl.plan.output_permutation().to_vec(),
                    store: pl.key,
                },
            };
            pending.push((rank, req));
        }
        if !pending.is_empty() {
            cl.call_all(pending)?;
        }
        Ok(homes)
    }

    /// Resolve one chain-step operand to its wire form on `rank`,
    /// uploading missing resident operands and moving misplaced resident
    /// results (the explicit redistribute superstep).
    #[allow(clippy::too_many_arguments)]
    fn wire_input(
        &self,
        cl: &mut Cluster,
        rank: usize,
        src: &ChainSrc,
        pl: &PlannedStep,
        homes: &mut [usize],
        planned: &[PlannedStep],
        pending: &mut Vec<(usize, Request)>,
    ) -> Result<WireIn> {
        Ok(match src {
            ChainSrc::Dense(op) => {
                WireIn::Dense(whole_op(&mut self.residency.lock(), op, rank, pending)?)
            }
            ChainSrc::DenseC(op) => {
                WireIn::Dense(whole_op(&mut self.residency.lock(), op, rank, pending)?)
            }
            ChainSrc::Sparse(op) => {
                let at = op.tensor()?;
                match op.handle() {
                    None => {
                        let coords = kernels::sparse_coords(
                            at,
                            pl.plan.free_a_positions(),
                            pl.plan.ctr_a_positions(),
                        );
                        let (rows, cols, vals) = split_coords(coords);
                        WireIn::Coords(OpCoords::Inline { rows, cols, vals })
                    }
                    Some(h) => {
                        let wkey = sd_whole_key(h, &pl.plan, pl.n);
                        if self.residency.lock().add_home(h.key(), wkey, rank) {
                            let coords = kernels::sparse_coords(
                                at,
                                pl.plan.free_a_positions(),
                                pl.plan.ctr_a_positions(),
                            );
                            let (rows, cols, vals) = split_coords(coords);
                            pending.push((
                                rank,
                                Request::UploadCoords {
                                    key: wkey,
                                    rows,
                                    cols,
                                    vals,
                                },
                            ));
                        }
                        WireIn::Coords(OpCoords::Key(wkey))
                    }
                }
            }
            ChainSrc::Prev(j) => {
                let key = planned[*j].key;
                if homes[*j] != rank {
                    self.chain_move(cl, key, homes[*j], rank, pending)?;
                    homes[*j] = rank;
                }
                WireIn::Dense(Op::Key(key))
            }
            ChainSrc::Res(h) => {
                let info = self.residency.lock().result(h.key).ok_or_else(|| {
                    Error::Runtime(format!("unknown or already-consumed result {h:?}"))
                })?;
                if info.home != rank {
                    self.chain_move(cl, h.key, info.home, rank, pending)?;
                    self.residency.lock().move_result(h.key, rank);
                }
                WireIn::Dense(Op::Key(h.key))
            }
        })
    }

    /// Move a resident result from `from` to `to`: flush any pending
    /// superstep (whose tasks could produce or reference the buffer —
    /// conservative, but moves are rare on anchored chains), download the
    /// buffer off its old home, and re-upload on the new one.
    /// This is the explicit redistribute superstep of the chain protocol
    /// — metered, never α–β-charged.
    fn chain_move(
        &self,
        cl: &mut Cluster,
        key: u64,
        from: usize,
        to: usize,
        pending: &mut Vec<(usize, Request)>,
    ) -> Result<()> {
        if !pending.is_empty() {
            cl.call_all(std::mem::take(pending))?;
        }
        let data = expect_buf(cl.call(from, &Request::Download { key })?)?;
        pending.push((to, Request::Upload { key, data }));
        Ok(())
    }

    /// The in-process leg of [`Executor::chain`]: run every step locally
    /// with the exact same kernels as the value paths, accumulating
    /// partials in submission order.
    fn chain_local(
        &self,
        steps: &[ChainStep],
        planned: &[PlannedStep],
        outs: &mut [Option<DenseAny>],
    ) -> Result<()> {
        let mismatch = || Error::Runtime("chain step operand kind mismatch".into());
        for (i, (st, pl)) in steps.iter().zip(planned).enumerate() {
            let partial = match pl.kind {
                StepKind::Dense => match (resolve_local(&st.a, outs)?, resolve_local(&st.b, outs)?)
                {
                    (LocalRef::F64(ta), LocalRef::F64(tb)) => DenseAny::F64(Arc::new(
                        kernels::dense_contract(&pl.plan, ta, tb, self.pool())?,
                    )),
                    (LocalRef::C64(ta), LocalRef::C64(tb)) => DenseAny::C64(Arc::new(
                        kernels::dense_contract(&pl.plan, ta, tb, self.pool())?,
                    )),
                    _ => return Err(mismatch()),
                },
                StepKind::Sd => {
                    let ChainSrc::Sparse(op) = &st.a else {
                        unreachable!("validated by plan_chain");
                    };
                    let LocalRef::F64(tb) = resolve_local(&st.b, outs)? else {
                        return Err(mismatch());
                    };
                    let (c, _flops) = kernels::sd_contract(
                        &pl.plan,
                        op.tensor()?,
                        tb,
                        self.pool(),
                        kernels::SPARSE_PAR_MIN_FLOPS,
                    )?;
                    DenseAny::F64(Arc::new(c))
                }
            };
            if pl.base == i {
                outs[i] = Some(partial);
            } else {
                outs[pl.base]
                    .as_mut()
                    .ok_or_else(|| Error::Runtime("accumulate target missing".into()))?
                    .accumulate(&partial)?;
            }
        }
        Ok(())
    }

    /// The α–β charge state of one chain-step operand: value operands
    /// charge in full, resident operands follow the one-time-upload /
    /// cache-hit discipline (whole-tensor buffers — chains run whole
    /// contractions), and resident results are always hits (they were
    /// produced in place and never move on the charged path).
    fn chain_charge(&self, src: &ChainSrc, pl: &PlannedStep, is_a: bool) -> Result<OpCharge> {
        let elems = if is_a { pl.m * pl.k } else { pl.k * pl.n };
        Ok(match src {
            ChainSrc::Dense(_) | ChainSrc::DenseC(_) => self.op_state(
                src.handle(),
                whole_key,
                words_per_element(pl.scalar) * elems,
            ),
            ChainSrc::Sparse(op) => self.op_state(
                src.handle(),
                |h| {
                    derive(&[
                        h.key(),
                        TAG_SD_A,
                        hseq(pl.plan.free_a_positions()),
                        hseq(pl.plan.ctr_a_positions()),
                        pl.n as u64,
                    ])
                },
                2 * op.tensor()?.nnz(),
            ),
            ChainSrc::Prev(_) | ChainSrc::Res(_) => OpCharge::Hit,
        })
    }

    /// Download a resident `f64` result — with
    /// [`Executor::download_many`], the only value-returning exit of a
    /// chain. Consumes the handle: the buffer leaves its home rank's
    /// store and the driver forgets it.
    pub fn download(&self, h: ResultHandle) -> Result<DenseTensor<f64>> {
        Ok(self
            .download_many(vec![h])?
            .pop()
            .expect("one handle in, one tensor out"))
    }

    /// Download many resident results of element type `T` in one
    /// superstep (consuming the handles).
    #[allow(private_bounds)]
    pub fn download_many<T: WireScalar>(
        &self,
        hs: Vec<ResultHandle>,
    ) -> Result<Vec<DenseTensor<T>>> {
        if let Some(h) = hs.iter().find(|h| h.kind != T::KIND) {
            return Err(Error::Runtime(format!("{:?} download of {h:?}", T::KIND)));
        }
        if let Some(cl) = &self.cluster {
            let reqs = {
                let res = self.residency.lock();
                hs.iter()
                    .map(|h| {
                        let info = res.result(h.key).ok_or_else(|| {
                            Error::Runtime(format!("unknown or already-consumed result {h:?}"))
                        })?;
                        Ok((info.home, Request::Download { key: h.key }))
                    })
                    .collect::<Result<Vec<_>>>()?
            };
            let replies = cl.lock().call_all(reqs)?;
            let mut res = self.residency.lock();
            let mut out = Vec::with_capacity(hs.len());
            for (h, reply) in hs.iter().zip(replies) {
                res.forget_result(h.key);
                let data = T::unwrap(expect_buf(reply)?)?;
                out.push(DenseTensor::from_vec(h.dims.clone(), data)?);
            }
            Ok(out)
        } else {
            let mut res = self.residency.lock();
            hs.into_iter()
                .map(|mut h| {
                    res.forget_result(h.key);
                    let local = h.local.take();
                    let t = local.as_ref().and_then(T::peek).cloned().ok_or_else(|| {
                        Error::Runtime("result handle has no in-process payload".into())
                    })?;
                    // the handle's own reference goes first, so a result
                    // nobody else holds moves out without a copy
                    drop(local);
                    Ok(Arc::try_unwrap(t).unwrap_or_else(|a| (*a).clone()))
                })
                .collect()
        }
    }

    /// The provenance key of a resident result — a hash of the producing
    /// step (spec + input keys), recorded in the driver's residency book.
    /// `None` once the result has been downloaded or freed.
    pub fn result_provenance(&self, h: &ResultHandle) -> Option<u64> {
        self.residency.lock().result(h.key).map(|i| i.produced_by)
    }

    /// Discard a resident result without downloading it.
    pub fn free_result(&self, h: ResultHandle) -> Result<()> {
        self.free_results(vec![h])
    }

    /// Discard many resident results in one superstep.
    pub fn free_results(&self, hs: Vec<ResultHandle>) -> Result<()> {
        let reqs = {
            let mut res = self.residency.lock();
            let mut reqs = Vec::new();
            for h in &hs {
                if let Some(info) = res.forget_result(h.key) {
                    reqs.push((info.home, Request::Free { key: h.key }));
                }
            }
            reqs
        };
        if let (Some(cl), false) = (&self.cluster, reqs.is_empty()) {
            cl.lock().call_all(reqs)?;
        }
        Ok(())
    }

    /// Contract many independent operand pairs (each operand by value or
    /// by handle) with one spec — the block-pair fan-out of the list
    /// algorithm.
    ///
    /// In [`ExecMode::Threaded`] every pair runs as its own pool job
    /// (each internally sequential: pair-level parallelism replaces
    /// row-level parallelism, so per-element accumulation order is
    /// unchanged). On the multi-process backend a handle-bearing pair is
    /// routed to the rank already holding one of its operands
    /// (deterministically; round-robin otherwise), and whole-tensor
    /// uploads a miss requires ride in the same superstep as the pair
    /// tasks. Results come back in submission order and costs are charged
    /// in that same order on the caller thread, keeping both the numerics
    /// and the cost counters bitwise-deterministic.
    pub fn contract_batch(
        &self,
        spec: &str,
        pairs: &[(DenseOp, DenseOp)],
    ) -> Result<Vec<DenseTensor<f64>>> {
        let plan = Arc::new(ContractPlan::parse(spec)?);
        // validate every pair up front (fused_dims/flop_count index by
        // plan positions and would panic on mismatched operand orders),
        // and snapshot the cost parameters
        let mut charges = Vec::with_capacity(pairs.len());
        for (a, b) in pairs {
            let (at, bt) = (a.tensor()?, b.tensor()?);
            plan.output_dims(at.dims(), bt.dims())?;
            let (m, k, n) = kernels::fused_dims(&plan, at.dims(), bt.dims());
            charges.push((m, k, n, plan.flop_count(at.dims(), bt.dims())));
        }
        let charge_pair = |(a, b): &(DenseOp, DenseOp), (m, k, n, flops): (_, _, _, u64)| {
            let sa = self.op_state(a.handle(), whole_key, m * k);
            let sb = self.op_state(b.handle(), whole_key, k * n);
            self.charge_contraction(sa, sb, m * n, m, n, flops, false);
        };
        if let Some(cl) = &self.cluster {
            // one whole pair per rank: pair-level parallelism across
            // worker processes, residency-aware placement, replies in
            // submission order
            let mut cl = cl.lock();
            let p = cl.ranks();
            let mut placement = Placement::new(p);
            let mut reqs: Vec<(usize, Request)> = Vec::new();
            let mut is_task: Vec<bool> = Vec::new();
            {
                let mut res = self.residency.lock();
                for (a, b) in pairs {
                    let (at, bt) = (a.tensor()?, b.tensor()?);
                    // the B operand's home wins: in the block-pair fan-out
                    // B is the short-lived operand (a Davidson vector
                    // block), so following it keeps every transient block
                    // on one rank while the long-lived A operands spread
                    // to at most one extra home per pair rank
                    let rank = placement.place([whole_home(&res, b), whole_home(&res, a)]);
                    let a_field = whole_op(&mut res, a, rank, &mut reqs)?;
                    let b_field = whole_op(&mut res, b, rank, &mut reqs)?;
                    is_task.resize(reqs.len(), false);
                    reqs.push((
                        rank,
                        Request::Contract {
                            spec: spec.to_string(),
                            a_dims: at.dims().to_vec(),
                            a: a_field,
                            b_dims: bt.dims().to_vec(),
                            b: b_field,
                            out: Out::Reply,
                        },
                    ));
                    is_task.push(true);
                }
            }
            let replies = cl.call_all(reqs)?;
            drop(cl);
            let mut out = Vec::with_capacity(pairs.len());
            for ((reply, pair), &chg) in task_replies(replies, is_task).zip(pairs).zip(&charges) {
                let (at, bt) = (pair.0.tensor()?, pair.1.tensor()?);
                let dims = plan.output_dims(at.dims(), bt.dims())?;
                out.push(DenseTensor::from_vec(dims, expect_buf(reply)?.into_f64()?)?);
                charge_pair(pair, chg);
            }
            return Ok(out);
        }
        let results: Vec<Result<DenseTensor<f64>>> = match self.pool() {
            Some(pool) if pairs.len() > 1 => {
                // jobs need owned operands ('static); the clone is the
                // price of pair-level parallelism, paid only here
                let jobs = pairs
                    .iter()
                    .map(|(a, b)| {
                        let (a, b) = (a.tensor()?.clone(), b.tensor()?.clone());
                        let plan = Arc::clone(&plan);
                        let job: Box<dyn FnOnce() -> Result<DenseTensor<f64>> + Send> =
                            Box::new(move || kernels::dense_contract(&plan, &a, &b, None));
                        Ok(job)
                    })
                    .collect::<Result<Vec<_>>>()?;
                pool.run(jobs)
            }
            // sequential mode, or a single pair: no copies; row-level
            // parallelism (bitwise-identical by construction) still
            // applies if a pool is present
            _ => pairs
                .iter()
                .map(|(a, b)| kernels::dense_contract(&plan, a.tensor()?, b.tensor()?, self.pool()))
                .collect(),
        };
        let mut out = Vec::with_capacity(results.len());
        for ((r, pair), &chg) in results.into_iter().zip(pairs).zip(&charges) {
            out.push(r?);
            charge_pair(pair, chg);
        }
        Ok(out)
    }

    /// Distributed sparse × dense contraction (the *sparse-dense*
    /// algorithm's kernel): flattened-sparse `a` against densified `b`,
    /// each by value or by handle. A handle on `a` keeps its
    /// volume-balanced coordinate buckets resident per rank; a handle on
    /// `b` keeps the permuted dense matrix resident.
    pub fn contract_sd<'a>(
        &self,
        spec: &str,
        a: impl Into<SparseOp<'a>>,
        b: impl Into<DenseOp<'a>>,
    ) -> Result<DenseTensor<f64>> {
        let (a, b) = (a.into(), b.into());
        let plan = ContractPlan::parse(spec)?;
        let (at, bt) = (a.tensor()?, b.tensor()?);
        let (c, flops) = if let Some(cl) = &self.cluster {
            self.sd_over_cluster(&mut cl.lock(), &plan, &a, &b)?
        } else {
            kernels::sd_contract(&plan, at, bt, self.pool(), kernels::SPARSE_PAR_MIN_FLOPS)?
        };
        let (m, k, n) = kernels::fused_dims(&plan, at.dims(), bt.dims());
        let perm_b = kernels::operand_perms(&plan).1;
        // The sparse operand moves its stored entries (offset + value),
        // the dense operand and result their full volume.
        //
        // The logical charge key is deliberately coarser than the
        // physical worker keys in one respect: it omits the chunk count,
        // which depends on the worker count (backend-independent charging
        // requires p-free keys). A re-bucketing caused by the work-volume
        // threshold flipping re-ships physically (metered in
        // `bytes_operands`) without an extra α–β upload charge.
        let sa = self.op_state(
            a.handle(),
            |h| {
                derive(&[
                    h.key(),
                    TAG_SD_A,
                    hseq(plan.free_a_positions()),
                    hseq(plan.ctr_a_positions()),
                    n as u64,
                ])
            },
            2 * at.nnz(),
        );
        let sb = self.op_state(
            b.handle(),
            |h| derive(&[h.key(), TAG_MAT_B, hseq(&perm_b)]),
            k * n,
        );
        self.charge_contraction(sa, sb, m * n, m, n, flops, true);
        Ok(c)
    }

    /// Sparse-dense contraction over the worker processes: the driver
    /// buckets the sparse coords by work volume (same boundaries as the
    /// in-process kernel) and ships each bucket plus the dense operand to
    /// a rank; row panels concatenate in submission order. Handle
    /// operands resolve to resident buckets / matrices instead.
    fn sd_over_cluster(
        &self,
        cl: &mut Cluster,
        plan: &ContractPlan,
        a: &SparseOp,
        b: &DenseOp,
    ) -> Result<(DenseTensor<f64>, u64)> {
        let (at, bt) = (a.tensor()?, b.tensor()?);
        plan.output_dims(at.dims(), bt.dims())?;
        let (m, _k, n) = kernels::fused_dims(plan, at.dims(), bt.dims());
        let perm_b = kernels::operand_perms(plan).1;

        let coords = kernels::sparse_coords(at, plan.free_a_positions(), plan.ctr_a_positions());
        let flops = 2 * coords.len() as u64 * n as u64;
        let chunks = if flops < kernels::SPARSE_PAR_MIN_FLOPS {
            1
        } else {
            cl.ranks()
        };
        let (ranges, buckets) = kernels::bucket_by_volume(coords, m, chunks, |_| n as u64);
        let p = cl.ranks();
        let mut reqs: Vec<(usize, Request)> = Vec::new();

        let b_field = match b.handle() {
            None => Op::Inline(Buf::F64(bt.permute(&perm_b)?.into_data())),
            Some(h) => {
                let wkey = derive(&[h.key(), TAG_MAT_B, hseq(&perm_b)]);
                let mut b_mat: Option<Vec<f64>> = None;
                replicate_to_missing(
                    &mut self.residency.lock(),
                    h.key(),
                    wkey,
                    ranges.len().min(p),
                    &mut reqs,
                    || {
                        let data = match &b_mat {
                            Some(d) => d.clone(),
                            None => {
                                let d = bt.permute(&perm_b)?.into_data();
                                b_mat = Some(d.clone());
                                d
                            }
                        };
                        Ok(Request::Upload {
                            key: wkey,
                            data: Buf::F64(data),
                        })
                    },
                )?;
                Op::Key(wkey)
            }
        };

        let a_keys: Option<Vec<u64>> = match a.handle() {
            None => None,
            Some(h) => {
                let mut res = self.residency.lock();
                let mut keys = Vec::with_capacity(buckets.len());
                for (i, bucket) in buckets.iter().enumerate() {
                    let wkey = derive(&[
                        h.key(),
                        TAG_SD_A,
                        hseq(plan.free_a_positions()),
                        hseq(plan.ctr_a_positions()),
                        n as u64,
                        chunks as u64,
                        i as u64,
                    ]);
                    if res.add_home(h.key(), wkey, i % p) {
                        let (rows, cols, vals) = split_coords(bucket.clone());
                        reqs.push((
                            i % p,
                            Request::UploadCoords {
                                key: wkey,
                                rows,
                                cols,
                                vals,
                            },
                        ));
                    }
                    keys.push(wkey);
                }
                Some(keys)
            }
        };

        let n_uploads = reqs.len();
        for (i, (&(r0, r1), bucket)) in ranges.iter().zip(buckets).enumerate() {
            let a_field = match &a_keys {
                Some(keys) => OpCoords::Key(keys[i]),
                None => {
                    let (rows, cols, vals) = split_coords(bucket);
                    OpCoords::Inline { rows, cols, vals }
                }
            };
            reqs.push((
                i % p,
                Request::SdChunk {
                    r0,
                    r1,
                    n,
                    a: a_field,
                    b: b_field.clone(),
                },
            ));
        }
        let mut c = Vec::with_capacity(m * n);
        for reply in cl.call_all(reqs)?.into_iter().skip(n_uploads) {
            c.extend_from_slice(&expect_buf(reply)?.into_f64()?);
        }
        let c = DenseTensor::from_vec(kernels::natural_dims(plan, at.dims(), bt.dims()), c)?;
        Ok((c.permute(plan.output_permutation())?, flops))
    }

    /// Distributed sparse × sparse contraction with optional pre-computed
    /// output sparsity `mask` (output linear offsets that may be nonzero),
    /// each operand by value or by handle. A handle on `a` keeps its row
    /// buckets resident (bucketed by stored entries only, so the
    /// boundaries don't depend on `b`); a handle on `b` keeps the grouped
    /// contraction table resident.
    pub fn contract_ss<'a>(
        &self,
        spec: &str,
        a: impl Into<SparseOp<'a>>,
        b: impl Into<SparseOp<'a>>,
        mask: Option<&[u64]>,
    ) -> Result<SparseTensor<f64>> {
        let (a, b) = (a.into(), b.into());
        let plan = ContractPlan::parse(spec)?;
        let (at, bt) = (a.tensor()?, b.tensor()?);
        let (c, flops) = if let Some(cl) = &self.cluster {
            self.ss_over_cluster(&mut cl.lock(), &plan, &a, &b, mask)?
        } else {
            kernels::ss_contract(
                &plan,
                at,
                bt,
                mask,
                self.pool(),
                kernels::SPARSE_PAR_MIN_FLOPS,
            )?
        };
        let (m, _k, n) = kernels::fused_dims(&plan, at.dims(), bt.dims());
        // All three tensors move only their stored entries (offset + value).
        // As in the sd path, the logical keys omit the (p-dependent)
        // chunk count; both operands' dims pin the output-offset tables
        // the resident buffers were resolved against.
        let sa = self.op_state(
            a.handle(),
            |h| {
                derive(&[
                    h.key(),
                    TAG_SS_A,
                    hseq(plan.free_a_positions()),
                    hseq(plan.ctr_a_positions()),
                ])
            },
            2 * at.nnz(),
        );
        let sb = self.op_state(
            b.handle(),
            |h| {
                // the grouped table stores *fused* free indices, so it
                // depends only on B's content (h.key) and the plan's
                // B-side positions — not on A's dims or the output
                // permutation; the same resident table serves every
                // contraction against this operand
                derive(&[
                    h.key(),
                    TAG_SS_B,
                    hseq(plan.ctr_b_positions()),
                    hseq(plan.free_b_positions()),
                ])
            },
            2 * bt.nnz(),
        );
        self.charge_contraction(sa, sb, 2 * c.nnz(), m, n, flops, true);
        Ok(c)
    }

    /// Sparse-sparse contraction over the worker processes: the grouped
    /// `B` operand, output-axis map and mask ship once per rank alongside
    /// that rank's volume-balanced `A` bucket; the per-bucket entry sets
    /// are row-disjoint, so concatenating replies in submission order
    /// reproduces the in-process result exactly. Handle operands resolve
    /// to resident buckets / group tables; because every bucketing is
    /// row-contiguous and scan-order-preserving, the result is bitwise
    /// identical no matter which boundaries are used.
    fn ss_over_cluster(
        &self,
        cl: &mut Cluster,
        plan: &ContractPlan,
        a: &SparseOp,
        b: &SparseOp,
        mask: Option<&[u64]>,
    ) -> Result<(SparseTensor<f64>, u64)> {
        let (at, bt) = (a.tensor()?, b.tensor()?);
        let prep = kernels::ss_prepare(plan, at, bt, mask)?;
        let kernels::SsPrep {
            out_shape,
            m,
            n,
            row_axes,
            col_axes,
            btab,
            mask_sorted,
            coords,
        } = prep;

        let coord_work = |c: &kernels::Coord| btab.run_len(c.1) as u64;
        let total_work: u64 = coords.iter().map(&coord_work).sum();
        let chunks = if 2 * total_work < kernels::SPARSE_PAR_MIN_FLOPS {
            1
        } else {
            cl.ranks()
        };
        // resident A buckets must not depend on B's pattern, so the
        // handle path weights each stored entry equally; any
        // row-contiguous bucketing yields bitwise-identical results
        let (ranges, mut buckets) = if a.handle().is_some() {
            kernels::bucket_by_volume(coords, m, chunks, |_| 1)
        } else {
            kernels::bucket_by_volume(coords, m, chunks, coord_work)
        };
        // buckets ship key-sorted (the order the merge kernel consumes),
        // so resident buckets amortize the sort across iterations
        for bucket in &mut buckets {
            kernels::sort_bucket_by_key(bucket);
        }

        // flatten the grouped B operand once
        let b_keys = btab.keys().to_vec();
        let b_lens: Vec<u64> = btab.run_lens().collect();
        let b_cols = btab.cols().to_vec();
        let b_vals = btab.vals().to_vec();
        let (ax_dims, ax_strides): (Vec<u64>, Vec<u64>) = row_axes.iter().copied().unzip();
        let (cx_dims, cx_strides): (Vec<u64>, Vec<u64>) = col_axes.iter().copied().unzip();

        let p = cl.ranks();
        let mut reqs: Vec<(usize, Request)> = Vec::new();

        let b_field = match b.handle() {
            None => OpSs::Inline {
                keys: b_keys,
                lens: b_lens,
                cols: b_cols,
                vals: b_vals,
            },
            Some(h) => {
                // fused-col table: keyed by B content + plan positions only
                // (must stay in lockstep with the charge key in
                // `contract_ss`)
                let wkey = derive(&[
                    h.key(),
                    TAG_SS_B,
                    hseq(plan.ctr_b_positions()),
                    hseq(plan.free_b_positions()),
                ]);
                replicate_to_missing(
                    &mut self.residency.lock(),
                    h.key(),
                    wkey,
                    buckets.len().min(p),
                    &mut reqs,
                    || {
                        Ok(Request::UploadSs {
                            key: wkey,
                            keys: b_keys.clone(),
                            lens: b_lens.clone(),
                            cols: b_cols.clone(),
                            vals: b_vals.clone(),
                        })
                    },
                )?;
                OpSs::Key(wkey)
            }
        };

        let a_keys: Option<Vec<u64>> = match a.handle() {
            None => None,
            Some(h) => {
                let mut res = self.residency.lock();
                let mut keys = Vec::with_capacity(buckets.len());
                for (i, bucket) in buckets.iter().enumerate() {
                    let wkey = derive(&[
                        h.key(),
                        TAG_SS_A,
                        hseq(plan.free_a_positions()),
                        hseq(plan.ctr_a_positions()),
                        chunks as u64,
                        i as u64,
                    ]);
                    if res.add_home(h.key(), wkey, i % p) {
                        let (rows, ctrs, vals) = split_coords(bucket.clone());
                        reqs.push((
                            i % p,
                            Request::UploadCoords {
                                key: wkey,
                                rows,
                                cols: ctrs,
                                vals,
                            },
                        ));
                    }
                    keys.push(wkey);
                }
                Some(keys)
            }
        };

        let n_uploads = reqs.len();
        for (i, ((r0, r1), bucket)) in ranges.into_iter().zip(buckets).enumerate() {
            let a_field = match &a_keys {
                Some(keys) => OpCoords::Key(keys[i]),
                None => {
                    let (rows, ctrs, vals) = split_coords(bucket);
                    OpCoords::Inline {
                        rows,
                        cols: ctrs,
                        vals,
                    }
                }
            };
            reqs.push((
                i % p,
                Request::SsChunk {
                    a: a_field,
                    b: b_field.clone(),
                    r0: r0 as u64,
                    r1: r1 as u64,
                    n,
                    ax_dims: ax_dims.clone(),
                    ax_strides: ax_strides.clone(),
                    cx_dims: cx_dims.clone(),
                    cx_strides: cx_strides.clone(),
                    mask: mask_sorted.as_ref().map(|ms| ms.to_vec()),
                },
            ));
        }
        let mut entries = Vec::new();
        let mut flops = 0u64;
        for reply in cl.call_all(reqs)?.into_iter().skip(n_uploads) {
            match reply {
                Reply::Entries {
                    offs,
                    vals,
                    flops: f,
                } => {
                    entries.extend(offs.into_iter().zip(vals));
                    flops += f;
                }
                other => {
                    return Err(Error::transport(format!(
                        "expected sparse entries, got {other:?}"
                    )))
                }
            }
        }
        Ok((SparseTensor::from_entries(out_shape, entries)?, flops))
    }

    /// Distributed truncated SVD of a matrix, by value or by resident
    /// handle (the ScaLAPACK `pdgesvd` stand-in used under the block SVD).
    /// On the multi-process backend the factorization executes on a worker
    /// process (same code, same bits) — the one holding the matrix, for a
    /// handle. Tall panels (at least 32 rows, and 8× as many rows as
    /// columns) actually route through the [`crate::tsqr()`] tree — QR the
    /// panel, SVD the small `R` on the driver, `U = Q · U_R` — instead of
    /// only charging its cost model; singular values then match the direct
    /// path to rounding, vectors up to the usual per-column sign
    /// convention.
    pub fn svd_trunc<'a>(
        &self,
        a: impl Into<DenseOp<'a>>,
        spec: TruncSpec,
    ) -> Result<TruncatedSvd> {
        let mut out = self.svd_trunc_batch(&[a.into()], spec)?;
        Ok(out.pop().expect("one matrix, one factorization"))
    }

    /// Distributed thin QR of a matrix, by value or by resident handle.
    /// Tall panels route through the [`crate::tsqr()`] tree (slab QRs on the
    /// workers, `R`-merge on the driver — the communication-avoiding
    /// factorization the cost model always assumed, whose real p2p charges
    /// land on top of the standard factorization charge, identically on
    /// every backend); everything else is one direct `qr_thin`.
    pub fn qr<'a>(
        &self,
        a: impl Into<DenseOp<'a>>,
    ) -> Result<(DenseTensor<f64>, DenseTensor<f64>)> {
        let mut out = self.qr_batch(&[a.into()])?;
        Ok(out.pop().expect("one matrix, one factorization"))
    }

    /// Truncated SVDs of many independent matrices (the sector groups of a
    /// block SVD), each by value or by resident handle. In
    /// [`ExecMode::Threaded`] the factorizations fan out over the pool; on
    /// the multi-process backend each runs on the rank its matrix is
    /// resident on (round-robin, with the upload in the same superstep,
    /// when it is on none) — so after the first batch against the same
    /// handles, zero operand bytes ship. Results return in submission
    /// order and costs are charged in that order, so factors and counters
    /// match the serial loop of [`Executor::svd_trunc`] exactly.
    pub fn svd_trunc_batch(&self, mats: &[DenseOp], spec: TruncSpec) -> Result<Vec<TruncatedSvd>> {
        self.factorize(
            mats,
            14.0,
            |rows, cols, a| Request::SvdTrunc {
                rows,
                cols,
                a,
                max_rank: spec.max_rank as u64,
                cutoff: spec.cutoff,
                min_keep: spec.min_keep as u64,
            },
            decode_svd,
            move |m| tt_linalg::svd_trunc(m, spec),
            |(q, r)| {
                let t = tt_linalg::svd_trunc(&r, spec)?;
                Ok(TruncatedSvd {
                    u: tt_tensor::gemm_f64(&q, &t.u)?,
                    s: t.s,
                    vt: t.vt,
                    trunc_err: t.trunc_err,
                    n_discarded: t.n_discarded,
                })
            },
        )
    }

    /// Thin QRs of many independent matrices (the sector groups of a block
    /// QR); see [`Executor::svd_trunc_batch`].
    pub fn qr_batch(&self, mats: &[DenseOp]) -> Result<Vec<(DenseTensor<f64>, DenseTensor<f64>)>> {
        self.factorize(
            mats,
            4.0,
            |rows, cols, a| Request::QrThin { rows, cols, a },
            decode_qr,
            tt_linalg::qr_thin,
            Ok,
        )
    }

    /// The one factorization driver: factor every matrix of `mats` — on
    /// the worker `make_req` addresses and `decode` reads back, or with
    /// `local` in-process — and charge each, in submission order: what a
    /// contraction charges a whole operand (nothing extra by value, the
    /// one-time upload on a handle's first observation), then the
    /// factorization costing `flop_coeff · max(m,n) · min²` flops. A tall
    /// panel factors through the TSQR tree and `from_tsqr` instead.
    fn factorize<R: Send + 'static>(
        &self,
        mats: &[DenseOp],
        flop_coeff: f64,
        make_req: impl Fn(usize, usize, Op) -> Request + Copy,
        decode: impl Fn(Reply) -> Result<R> + Copy,
        local: impl Fn(&DenseTensor<f64>) -> tt_linalg::Result<R> + Send + Sync + Copy + 'static,
        from_tsqr: impl Fn((DenseTensor<f64>, DenseTensor<f64>)) -> Result<R> + Copy,
    ) -> Result<Vec<R>> {
        let tensors = mats
            .iter()
            .map(|m| m.tensor())
            .collect::<Result<Vec<_>>>()?;
        if tensors.iter().any(|t| tall_panel(t.dims())) {
            if let [op] = mats {
                let factors = crate::tsqr::tsqr_on(self, *op)?;
                let out = from_tsqr(factors)?;
                self.charge_factorization(tensors[0].dims(), flop_coeff);
                return Ok(vec![out]);
            }
            // a batch must route exactly like the loop of singles (batch ≡
            // loop is a tested invariant), so one containing a tall panel
            // runs as that loop
            let mut out = Vec::with_capacity(mats.len());
            for op in mats {
                let one = std::slice::from_ref(op);
                out.extend(self.factorize(one, flop_coeff, make_req, decode, local, from_tsqr)?);
            }
            return Ok(out);
        }
        let charge = |op: &DenseOp, t: &DenseTensor<f64>| {
            if let OpCharge::Miss(w) = self.op_state(op.handle(), whole_key, t.len()) {
                if self.ranks > 1 {
                    cost::charge(&self.tracker, |tr| tr.charge_superstep(8 * w as u64));
                }
            }
            self.charge_factorization(t.dims(), flop_coeff);
        };
        let mut out = Vec::with_capacity(mats.len());
        if let (Some(cl), true) = (&self.cluster, tensors.iter().all(|t| t.order() == 2)) {
            let mut cl = cl.lock();
            let mut placement = Placement::new(cl.ranks());
            let mut reqs: Vec<(usize, Request)> = Vec::new();
            let mut is_task: Vec<bool> = Vec::new();
            {
                let mut res = self.residency.lock();
                for (op, t) in mats.iter().zip(&tensors) {
                    let rank = placement.place([whole_home(&res, op)]);
                    let field = whole_op(&mut res, op, rank, &mut reqs)?;
                    is_task.resize(reqs.len(), false);
                    reqs.push((rank, make_req(t.dims()[0], t.dims()[1], field)));
                    is_task.push(true);
                }
            }
            let replies = cl.call_all(reqs)?;
            drop(cl);
            for ((reply, op), t) in task_replies(replies, is_task).zip(mats).zip(tensors) {
                out.push(decode(reply)?);
                charge(op, t);
            }
            return Ok(out);
        }
        // in-process, charging per matrix in submission order exactly like
        // the cluster path (same float accumulation order ⇒ bitwise-equal
        // counters across backends)
        let results: Vec<tt_linalg::Result<R>> = match self.pool() {
            Some(pool) if mats.len() > 1 => {
                // jobs need owned inputs ('static); the clone is the price
                // of matrix-level parallelism, paid only here
                let jobs = tensors
                    .iter()
                    .map(|&t| {
                        let m = t.clone();
                        let job: Box<dyn FnOnce() -> tt_linalg::Result<R> + Send> =
                            Box::new(move || local(&m));
                        job
                    })
                    .collect();
                pool.run(jobs)
            }
            _ => tensors.iter().map(|&t| local(t)).collect(),
        };
        for ((r, op), t) in results.into_iter().zip(mats).zip(tensors) {
            out.push(r?);
            charge(op, t);
        }
        Ok(out)
    }

    /// Charge an `m×n` dense factorization costing `c · max(m,n) · min²`
    /// flops: ScaLAPACK-style half-efficiency compute plus a TSQR-shaped
    /// reduction tree (one n×n R per level).
    fn charge_factorization(&self, dims: &[usize], flop_coeff: f64) {
        let (m, n) = (dims[0].max(1), dims.get(1).copied().unwrap_or(1).max(1));
        let k = m.min(n);
        let flops = (flop_coeff * (m.max(n) as f64) * (k as f64) * (k as f64)) as u64;
        let p = self.ranks as f64;
        let rate = self.machine.dense_rate((k as f64 / p.sqrt()).max(1.0));
        cost::charge(&self.tracker, |tr| {
            tr.flops += flops;
            tr.sim.svd += flops as f64 / (0.5 * rate * p);
            tr.sim.other += MAP_OVERHEAD_S;
            if self.ranks > 1 {
                let levels = (usize::BITS - (self.ranks - 1).leading_zeros()) as u64;
                tr.charge_supersteps(levels, levels * 8 * (k * k) as u64);
            }
        });
    }
}

/// Hash an einsum spec into one derivation component (for provenance).
fn hash_spec(s: &str) -> u64 {
    s.bytes().fold(Fnv::new(), |f, b| f.u8(b)).finish()
}

/// Worker key of a sparse operand's whole-coordinate buffer (the
/// single-bucket form chain steps consume): the standard sd derivation
/// with a chunk count of 1.
fn sd_whole_key(h: &OpHandle, plan: &ContractPlan, n: usize) -> u64 {
    derive(&[
        h.key(),
        TAG_SD_A,
        hseq(plan.free_a_positions()),
        hseq(plan.ctr_a_positions()),
        n as u64,
        1,
        0,
    ])
}

impl ChainSrc<'_> {
    /// The operand handle behind a by-handle operand.
    fn handle(&self) -> Option<&OpHandle> {
        match self {
            ChainSrc::Dense(op) => op.handle(),
            ChainSrc::DenseC(op) => op.handle(),
            ChainSrc::Sparse(op) => op.handle(),
            ChainSrc::Prev(_) | ChainSrc::Res(_) => None,
        }
    }
}

/// Dims and kind of a chain-step operand at planning time.
fn src_info(src: &ChainSrc, planned: &[PlannedStep]) -> Result<(Vec<usize>, SrcKind)> {
    Ok(match src {
        ChainSrc::Dense(op) => (
            op.tensor()?.dims().to_vec(),
            SrcKind::Dense(ResultKind::F64),
        ),
        ChainSrc::DenseC(op) => (
            op.tensor()?.dims().to_vec(),
            SrcKind::Dense(ResultKind::C64),
        ),
        ChainSrc::Sparse(op) => (op.tensor()?.dims().to_vec(), SrcKind::Sparse),
        ChainSrc::Prev(j) => {
            let pl = planned
                .get(*j)
                .ok_or_else(|| Error::Runtime(format!("chain step references future step {j}")))?;
            if pl.base != *j {
                return Err(Error::Runtime(format!(
                    "chain step references accumulate step {j}; reference its base instead"
                )));
            }
            (pl.out_dims.clone(), SrcKind::Dense(pl.scalar))
        }
        ChainSrc::Res(h) => (h.dims.clone(), SrcKind::Dense(h.kind)),
    })
}

/// Provenance component of a chain-step operand (content key, result key,
/// or a constant for inline values).
fn src_provenance(src: &ChainSrc, planned: &[PlannedStep]) -> u64 {
    match src {
        ChainSrc::Prev(j) => planned[*j].key,
        ChainSrc::Res(h) => h.key,
        _ => src.handle().map(OpHandle::key).unwrap_or(1),
    }
}

/// Gather `(rank, words)` weights of one operand's resident copies for
/// chain-step placement.
fn collect_weights(
    src: &ChainSrc,
    pl: &PlannedStep,
    res: &Residency,
    homes: &[usize],
    planned: &[PlannedStep],
    weighted: &mut Vec<(usize, u64)>,
) {
    match src {
        ChainSrc::Prev(j) => weighted.push((homes[*j], planned[*j].words_c as u64)),
        ChainSrc::Res(h) => {
            if let Some(info) = res.result(h.key) {
                weighted.push((info.home, info.words as u64));
            }
        }
        _ => {
            let Some(h) = src.handle() else { return };
            let wkey = match src {
                ChainSrc::Sparse(_) => sd_whole_key(h, &pl.plan, pl.n),
                _ => whole_key(h),
            };
            if let Some(ranks) = res.homes(wkey) {
                weighted.extend(ranks.iter().map(|&r| (r, h.words() as u64)));
            }
        }
    }
}

/// A borrowed in-process dense operand, tagged like [`DenseAny`].
enum LocalRef<'x> {
    F64(&'x DenseTensor<f64>),
    C64(&'x DenseTensor<Complex64>),
}

/// Resolve a dense chain-step operand to its local tensor (in-process
/// execution).
fn resolve_local<'x>(src: &'x ChainSrc<'x>, outs: &'x [Option<DenseAny>]) -> Result<LocalRef<'x>> {
    let resident = match src {
        ChainSrc::Dense(op) => return Ok(LocalRef::F64(op.tensor()?)),
        ChainSrc::DenseC(op) => return Ok(LocalRef::C64(op.tensor()?)),
        ChainSrc::Sparse(_) => None,
        ChainSrc::Prev(j) => outs[*j].as_ref(),
        ChainSrc::Res(h) => h.local.as_ref(),
    };
    match resident {
        Some(DenseAny::F64(t)) => Ok(LocalRef::F64(t)),
        Some(DenseAny::C64(t)) => Ok(LocalRef::C64(t)),
        None => Err(Error::Runtime(
            "chain step operand has no in-process dense payload".into(),
        )),
    }
}

/// Worker key (and logical charge key) of a dense operand's whole-tensor
/// buffer — what pair, chain-step and factorization tasks consume.
fn whole_key(h: &OpHandle) -> u64 {
    derive(&[h.key(), TAG_WHOLE])
}

/// The first rank already holding `op`'s whole-tensor buffer, if any.
fn whole_home(res: &Residency, op: &DenseOp) -> Option<usize> {
    res.homes(whole_key(op.handle()?))?.first().copied()
}

/// The wire form of a whole dense operand for a task on `rank`: the
/// payload itself for a value; for a handle its resident key, with the
/// upload queued on `reqs` when `rank` does not hold the buffer yet (it
/// then rides in the same superstep as the task).
fn whole_op<T: WireScalar>(
    res: &mut Residency,
    op: &DenseOpT<T>,
    rank: usize,
    reqs: &mut Vec<(usize, Request)>,
) -> Result<Op> {
    let data = || Ok::<_, Error>(T::wrap(op.tensor()?.data().to_vec()));
    let Some(h) = op.handle() else {
        return Ok(Op::Inline(data()?));
    };
    let wkey = whole_key(h);
    if res.add_home(h.key(), wkey, rank) {
        let data = data()?;
        reqs.push((rank, Request::Upload { key: wkey, data }));
    }
    Ok(Op::Key(wkey))
}

/// The task replies of a superstep whose requests interleave uploads
/// (`is_task` false) with tasks, in submission order.
fn task_replies(replies: Vec<Reply>, is_task: Vec<bool>) -> impl Iterator<Item = Reply> {
    replies
        .into_iter()
        .zip(is_task)
        .filter_map(|(reply, keep)| keep.then_some(reply))
}

/// The recurring "replicated B" block of the dense/sd/ss cluster paths:
/// ship the buffer derived from `content` under `wkey` to every rank (of
/// the first `nranks`) that doesn't already hold it. `make` builds the
/// upload request and is only invoked for missing ranks — callers memoize
/// the payload inside it, so a fully-resident operand costs nothing.
fn replicate_to_missing(
    res: &mut Residency,
    content: u64,
    wkey: u64,
    nranks: usize,
    reqs: &mut Vec<(usize, Request)>,
    mut make: impl FnMut() -> Result<Request>,
) -> Result<()> {
    for r in 0..nranks {
        if res.add_home(content, wkey, r) {
            reqs.push((r, make()?));
        }
    }
    Ok(())
}

/// The per-chunk `A` operand fields of a chunked cluster contraction:
/// inline row slabs (value operands) or per-chunk resident keys.
enum AFields<T> {
    Inline(Vec<T>),
    Keys(Vec<u64>),
}

/// The recurring "slab upload" block of the dense cluster paths: derive
/// one resident buffer per row slab of the permuted `A` matrix, upload
/// the slabs missing from their home ranks, and return the operand fields
/// the chunk requests reference.
#[allow(clippy::too_many_arguments)]
fn slab_fields<T: WireScalar>(
    res: &mut Residency,
    a: &DenseOpT<T>,
    at: &DenseTensor<T>,
    perm_a: &[usize],
    path: GemmPath,
    ranges: &[(usize, usize)],
    k: usize,
    p: usize,
    reqs: &mut Vec<(usize, Request)>,
) -> Result<AFields<T>> {
    match a.handle() {
        None => Ok(AFields::Inline(at.permute(perm_a)?.into_data())),
        Some(h) => {
            let mut a_mat: Option<Vec<T>> = None;
            let nchunks = ranges.len();
            let mut keys = Vec::with_capacity(nchunks);
            for (i, &(r0, r1)) in ranges.iter().enumerate() {
                let wkey = derive(&[
                    h.key(),
                    T::TAG_A,
                    hseq(perm_a),
                    path as u64,
                    nchunks as u64,
                    i as u64,
                ]);
                if res.add_home(h.key(), wkey, i % p) {
                    let mat = match &a_mat {
                        Some(d) => d,
                        None => {
                            a_mat = Some(at.permute(perm_a)?.into_data());
                            a_mat.as_ref().expect("just set")
                        }
                    };
                    reqs.push((
                        i % p,
                        Request::Upload {
                            key: wkey,
                            data: T::wrap(mat[r0 * k..r1 * k].to_vec()),
                        },
                    ));
                }
                keys.push(wkey);
            }
            Ok(AFields::Keys(keys))
        }
    }
}

/// Unwrap a dense-buffer reply.
fn expect_buf(reply: Reply) -> Result<Buf> {
    match reply {
        Reply::Buf(buf) => Ok(buf),
        other => Err(Error::transport(format!(
            "expected a dense buffer, got {other:?}"
        ))),
    }
}

/// Split coords into the three parallel arrays the wire format carries.
fn split_coords(coords: Vec<kernels::Coord>) -> (Vec<u64>, Vec<u64>, Vec<f64>) {
    let mut rows = Vec::with_capacity(coords.len());
    let mut cols = Vec::with_capacity(coords.len());
    let mut vals = Vec::with_capacity(coords.len());
    for (r, c, v) in coords {
        rows.push(r);
        cols.push(c);
        vals.push(v);
    }
    (rows, cols, vals)
}

/// Rebuild a [`TruncatedSvd`] from its wire reply.
fn decode_svd(reply: Reply) -> Result<TruncatedSvd> {
    match reply {
        Reply::Svd {
            u_rows,
            rank,
            vt_cols,
            u,
            s,
            vt,
            trunc_err,
            n_discarded,
        } => Ok(TruncatedSvd {
            u: DenseTensor::from_vec([u_rows, rank], u)?,
            s,
            vt: DenseTensor::from_vec([rank, vt_cols], vt)?,
            trunc_err,
            n_discarded: n_discarded as usize,
        }),
        other => Err(Error::transport(format!("expected SVD, got {other:?}"))),
    }
}

/// Rebuild a `(Q, R)` pair from its wire reply.
fn decode_qr(reply: Reply) -> Result<(DenseTensor<f64>, DenseTensor<f64>)> {
    match reply {
        Reply::Factors {
            q_rows,
            q_cols,
            q,
            r_rows,
            r_cols,
            r,
        } => Ok((
            DenseTensor::from_vec([q_rows, q_cols], q)?,
            DenseTensor::from_vec([r_rows, r_cols], r)?,
        )),
        other => Err(Error::transport(format!("expected QR, got {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One contraction whose result stays resident: a one-step chain.
    fn to_handle(exec: &Executor, spec: &str, a: ChainSrc, b: ChainSrc) -> ResultHandle {
        let step = ChainStep {
            spec,
            a,
            b,
            acc: None,
        };
        let mut out = exec.chain(&[step]).unwrap();
        out.pop().flatten().expect("single non-accumulate step")
    }

    /// A batch of operands, all by value or all by handle.
    fn ops<'a, X>(xs: &'a [X]) -> Vec<DenseOp<'a>>
    where
        &'a X: Into<DenseOp<'a>>,
    {
        xs.iter().map(Into::into).collect()
    }

    fn operands(seed: u64) -> (DenseTensor<f64>, DenseTensor<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        (
            DenseTensor::<f64>::random([24, 6, 30], &mut rng),
            DenseTensor::<f64>::random([30, 6, 18], &mut rng),
        )
    }

    #[test]
    fn threaded_bitwise_equals_sequential() {
        let (a, b) = operands(41);
        let seq = Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Sequential);
        let thr = Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Threaded);
        let cs = seq.contract("isj,jtk->istk", &a, &b).unwrap();
        let ct = thr.contract("isj,jtk->istk", &a, &b).unwrap();
        assert_eq!(
            cs.data(),
            ct.data(),
            "dense contraction must be bitwise equal"
        );

        let sa = SparseTensor::from_dense(&a, 0.5);
        let sb = SparseTensor::from_dense(&b, 0.5);
        let ds = seq.contract_sd("isj,jtk->istk", &sa, &b).unwrap();
        let dt = thr.contract_sd("isj,jtk->istk", &sa, &b).unwrap();
        assert_eq!(ds.data(), dt.data(), "sparse-dense must be bitwise equal");

        let ss = seq.contract_ss("isj,jtk->istk", &sa, &sb, None).unwrap();
        let st = thr.contract_ss("isj,jtk->istk", &sa, &sb, None).unwrap();
        assert_eq!(
            ss.to_dense().data(),
            st.to_dense().data(),
            "sparse-sparse must be bitwise equal"
        );
    }

    #[test]
    fn local_matches_plan_execute_exactly() {
        let (a, b) = operands(42);
        let exec = Executor::local();
        let c = exec.contract("isj,jtk->tkis", &a, &b).unwrap();
        let reference = tt_tensor::einsum("isj,jtk->tkis", &a, &b).unwrap();
        assert_eq!(c.data(), reference.data());
    }

    #[test]
    fn sim_time_monotone_in_ranks() {
        let (a, b) = operands(43);
        let mut last = f64::INFINITY;
        for nodes in [1usize, 2, 4, 8] {
            let exec =
                Executor::with_machine(Machine::blue_waters(16), nodes, ExecMode::Sequential);
            for _ in 0..4 {
                exec.contract("isj,jtk->istk", &a, &b).unwrap();
            }
            let t = exec.sim_time().total();
            assert!(t > 0.0);
            assert!(
                t <= last,
                "sim time must not grow with ranks on a compute-bound workload: {t} > {last}"
            );
            last = t;
        }
    }

    #[test]
    fn distributed_costs_are_machine_dependent_and_nonzero() {
        let (a, b) = operands(44);
        let mut totals = Vec::new();
        for machine in [Machine::blue_waters(16), Machine::stampede2(64)] {
            let exec = Executor::with_machine(machine, 2, ExecMode::Sequential);
            exec.contract("isj,jtk->istk", &a, &b).unwrap();
            assert!(exec.total_flops() > 0);
            assert!(exec.supersteps() > 0);
            let sim = exec.sim_time();
            assert!(sim.total() > 0.0 && sim.comm > 0.0);
            totals.push(sim.total());
        }
        assert_ne!(totals[0], totals[1], "different machines, different cost");
    }

    #[test]
    fn local_run_has_zero_comm_and_reset_works() {
        let (a, b) = operands(45);
        let exec = Executor::local();
        exec.contract("isj,jtk->istk", &a, &b).unwrap();
        let sim = exec.sim_time();
        assert_eq!(sim.comm, 0.0);
        assert!(sim.gemm > 0.0);
        assert!(exec.total_flops() > 0);
        exec.reset_costs();
        assert_eq!(exec.total_flops(), 0);
        assert_eq!(exec.sim_time().total(), 0.0);
    }

    #[test]
    fn contract_batch_matches_singles_bitwise_and_in_cost() {
        let mut rng = StdRng::seed_from_u64(47);
        let pairs: Vec<(DenseTensor<f64>, DenseTensor<f64>)> = (0..6)
            .map(|_| {
                (
                    DenseTensor::<f64>::random([9, 4, 7], &mut rng),
                    DenseTensor::<f64>::random([7, 4, 5], &mut rng),
                )
            })
            .collect();
        let single = Executor::with_machine(Machine::blue_waters(2), 2, ExecMode::Sequential);
        let reference: Vec<DenseTensor<f64>> = pairs
            .iter()
            .map(|(a, b)| single.contract("isj,jtk->istk", a, b).unwrap())
            .collect();
        let pair_refs: Vec<(DenseOp, DenseOp)> =
            pairs.iter().map(|(a, b)| (a.into(), b.into())).collect();
        for mode in [ExecMode::Sequential, ExecMode::Threaded] {
            let batch = Executor::with_machine(Machine::blue_waters(2), 2, mode);
            let out = batch.contract_batch("isj,jtk->istk", &pair_refs).unwrap();
            for (c, r) in out.iter().zip(&reference) {
                assert_eq!(c.data(), r.data(), "{mode:?}");
            }
            // identical cost accounting regardless of mode
            assert_eq!(batch.total_flops(), single.total_flops(), "{mode:?}");
            assert_eq!(batch.supersteps(), single.supersteps(), "{mode:?}");
            assert_eq!(
                batch.sim_time().total().to_bits(),
                single.sim_time().total().to_bits(),
                "{mode:?}: cost charging must be order-deterministic"
            );
        }
    }

    #[test]
    fn contract_batch_rejects_malformed_pairs() {
        // an operand whose order doesn't match the spec must surface as an
        // error, exactly like the single-pair contract() path
        let exec = Executor::local();
        let bad = DenseTensor::<f64>::zeros([2, 3]);
        let ok = DenseTensor::<f64>::zeros([3, 2, 2]);
        assert!(exec
            .contract_batch("isj,jtk->istk", &[((&bad).into(), (&ok).into())])
            .is_err());
        // mismatched contracted dims too
        let a = DenseTensor::<f64>::zeros([2, 2, 5]);
        assert!(exec
            .contract_batch("isj,jtk->istk", &[((&a).into(), (&ok).into())])
            .is_err());
    }

    #[test]
    fn factorization_batches_match_singles() {
        let mut rng = StdRng::seed_from_u64(48);
        let mats: Vec<DenseTensor<f64>> = [(20usize, 8usize), (13, 13), (6, 17), (30, 4)]
            .iter()
            .map(|&(m, n)| DenseTensor::<f64>::random([m, n], &mut rng))
            .collect();
        let spec = TruncSpec {
            max_rank: 6,
            cutoff: 0.0,
            min_keep: 1,
        };
        let single = Executor::with_machine(Machine::stampede2(4), 1, ExecMode::Sequential);
        let svds_ref: Vec<_> = mats
            .iter()
            .map(|m| single.svd_trunc(m, spec).unwrap())
            .collect();
        let qrs_ref: Vec<_> = mats.iter().map(|m| single.qr(m).unwrap()).collect();
        for mode in [ExecMode::Sequential, ExecMode::Threaded] {
            let batch = Executor::with_machine(Machine::stampede2(4), 1, mode);
            let svds = batch.svd_trunc_batch(&ops(&mats), spec).unwrap();
            for (s, r) in svds.iter().zip(&svds_ref) {
                assert_eq!(s.s, r.s, "{mode:?}");
                assert_eq!(s.u.data(), r.u.data(), "{mode:?}");
                assert_eq!(s.vt.data(), r.vt.data(), "{mode:?}");
            }
            let qrs = batch.qr_batch(&ops(&mats)).unwrap();
            for ((q, rr), (q2, r2)) in qrs.iter().zip(&qrs_ref) {
                assert_eq!(q.data(), q2.data(), "{mode:?}");
                assert_eq!(rr.data(), r2.data(), "{mode:?}");
            }
            assert_eq!(batch.total_flops(), single.total_flops(), "{mode:?}");
            assert_eq!(
                batch.sim_time().total().to_bits(),
                single.sim_time().total().to_bits(),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn handle_contractions_bitwise_match_value_path_in_process() {
        let (a, b) = operands(60);
        let sa = SparseTensor::from_dense(&a, 0.5);
        let sb = SparseTensor::from_dense(&b, 0.5);
        for mode in [ExecMode::Sequential, ExecMode::Threaded] {
            let val = Executor::with_machine(Machine::blue_waters(2), 2, mode);
            let han = Executor::with_machine(Machine::blue_waters(2), 2, mode);
            let ha = han.upload(&a);
            let hb = han.upload(&b);
            let hsa = han.upload_sparse(&sa);
            let hsb = han.upload_sparse(&sb);

            let c_val = val.contract("isj,jtk->istk", &a, &b).unwrap();
            let c_han = han.contract::<f64>("isj,jtk->istk", &ha, &hb).unwrap();
            assert_eq!(c_val.data(), c_han.data(), "{mode:?} dense");

            let d_val = val.contract_sd("isj,jtk->istk", &sa, &b).unwrap();
            let d_han = han.contract_sd("isj,jtk->istk", &hsa, &hb).unwrap();
            assert_eq!(d_val.data(), d_han.data(), "{mode:?} sd");

            let s_val = val.contract_ss("isj,jtk->istk", &sa, &sb, None).unwrap();
            let s_han = han.contract_ss("isj,jtk->istk", &hsa, &hsb, None).unwrap();
            assert_eq!(
                s_val.to_dense().data(),
                s_han.to_dense().data(),
                "{mode:?} ss"
            );

            han.free(&ha).unwrap();
            han.free(&hb).unwrap();
            han.free(&hsa).unwrap();
            han.free(&hsb).unwrap();
        }
    }

    #[test]
    fn handle_reuse_charges_less_than_value_path() {
        // second contraction against the same handle: no β for the
        // resident operand, so critical-path bytes grow by strictly less
        // than a value-path repeat
        let (a, b) = operands(61);
        let exec = Executor::with_machine(Machine::blue_waters(2), 2, ExecMode::Sequential);
        let hb = exec.upload(&b);
        exec.contract::<f64>("isj,jtk->istk", &a, &hb).unwrap();
        let after_first = exec.tracker().lock().bytes_critical;
        exec.contract::<f64>("isj,jtk->istk", &a, &hb).unwrap();
        let hit_delta = exec.tracker().lock().bytes_critical - after_first;

        let val = Executor::with_machine(Machine::blue_waters(2), 2, ExecMode::Sequential);
        val.contract("isj,jtk->istk", &a, &b).unwrap();
        let value_delta = val.tracker().lock().bytes_critical;
        assert!(
            hit_delta < value_delta,
            "cache hit must drop β: {hit_delta} vs {value_delta}"
        );
        // flops are identical either way
        assert_eq!(exec.total_flops(), 2 * val.total_flops());
        exec.free(&hb).unwrap();
        // freeing twice is an error
        assert!(exec.free(&hb).is_err());
    }

    #[test]
    fn handle_type_mismatch_is_an_error() {
        let (a, _) = operands(62);
        let exec = Executor::local();
        let h = exec.upload(&a);
        assert!(exec.contract_sd("isj,jtk->istk", &h, &a).is_err());
        exec.free(&h).unwrap();
    }

    #[test]
    fn contract_c64_matches_einsum_and_handles_hit() {
        let (ar, br) = operands(63);
        let a = ar.to_complex();
        let b = br.to_complex();
        let exec = Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Sequential);
        let reference = tt_tensor::einsum("isj,jtk->istk", &a, &b).unwrap();
        let c = exec.contract::<Complex64>("isj,jtk->istk", &a, &b).unwrap();
        assert_eq!(c.data(), reference.data());
        let ha = exec.upload(&a);
        let hb = exec.upload(&b);
        let ch = exec
            .contract::<Complex64>("isj,jtk->istk", &ha, &hb)
            .unwrap();
        assert_eq!(ch.data(), reference.data());
        exec.free(&ha).unwrap();
        exec.free(&hb).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn multi_process_backend_bitwise_matches_sequential() {
        let spawn = SpawnSpec::SelfExec(vec!["spawned_worker_entry".into()]);
        let seq = Executor::with_machine(Machine::blue_waters(2), 2, ExecMode::Sequential);
        let mp = Executor::multi_process(Machine::blue_waters(2), 2, 2, spawn).unwrap();
        assert!(matches!(
            mp.backend(),
            Backend::MultiProcess { workers: 2, .. }
        ));

        let (a, b) = operands(49);
        let cs = seq.contract("isj,jtk->istk", &a, &b).unwrap();
        let cm = mp.contract("isj,jtk->istk", &a, &b).unwrap();
        assert_eq!(
            cs.data(),
            cm.data(),
            "dense over processes must be bitwise equal"
        );

        let sa = SparseTensor::from_dense(&a, 0.5);
        let sb = SparseTensor::from_dense(&b, 0.5);
        let ds = seq.contract_sd("isj,jtk->istk", &sa, &b).unwrap();
        let dm = mp.contract_sd("isj,jtk->istk", &sa, &b).unwrap();
        assert_eq!(ds.data(), dm.data(), "sparse-dense over processes");

        let ss = seq.contract_ss("isj,jtk->istk", &sa, &sb, None).unwrap();
        let sm = mp.contract_ss("isj,jtk->istk", &sa, &sb, None).unwrap();
        assert_eq!(ss.to_dense().data(), sm.to_dense().data(), "sparse-sparse");

        let mat = DenseTensor::from_vec([a.len() / 6, 6], a.data().to_vec()).unwrap();
        let spec = TruncSpec {
            max_rank: 4,
            cutoff: 0.0,
            min_keep: 1,
        };
        let ts = seq.svd_trunc(&mat, spec).unwrap();
        let tm = mp.svd_trunc(&mat, spec).unwrap();
        assert_eq!(ts.s, tm.s);
        assert_eq!(ts.u.data(), tm.u.data());
        assert_eq!(ts.vt.data(), tm.vt.data());
        assert_eq!(ts.trunc_err.to_bits(), tm.trunc_err.to_bits());
        let (qs, rs) = seq.qr(&mat).unwrap();
        let (qm, rm) = mp.qr(&mat).unwrap();
        assert_eq!(qs.data(), qm.data());
        assert_eq!(rs.data(), rm.data());

        // identical cost accounting: same machine model, same charges
        assert_eq!(seq.total_flops(), mp.total_flops());
        assert_eq!(seq.supersteps(), mp.supersteps());
        assert_eq!(
            seq.sim_time().total().to_bits(),
            mp.sim_time().total().to_bits(),
            "cost charging must be backend-independent"
        );
        // the data plane actually moved bytes — and only on the real backend
        assert_eq!(seq.operand_bytes(), 0);
        assert!(mp.operand_bytes() > 0);
        assert!(mp.result_bytes() > 0);
    }

    #[cfg(unix)]
    #[test]
    fn multi_process_contract_batch_matches_sequential() {
        let spawn = SpawnSpec::SelfExec(vec!["spawned_worker_entry".into()]);
        let mp = Executor::multi_process(Machine::blue_waters(2), 1, 3, spawn).unwrap();
        let seq = Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Sequential);
        let mut rng = StdRng::seed_from_u64(50);
        let pairs: Vec<(DenseTensor<f64>, DenseTensor<f64>)> = (0..5)
            .map(|_| {
                (
                    DenseTensor::<f64>::random([8, 3, 6], &mut rng),
                    DenseTensor::<f64>::random([6, 3, 4], &mut rng),
                )
            })
            .collect();
        let pair_refs: Vec<(DenseOp, DenseOp)> =
            pairs.iter().map(|(a, b)| (a.into(), b.into())).collect();
        let out_seq = seq.contract_batch("isj,jtk->istk", &pair_refs).unwrap();
        let out_mp = mp.contract_batch("isj,jtk->istk", &pair_refs).unwrap();
        for (s, m) in out_seq.iter().zip(&out_mp) {
            assert_eq!(s.data(), m.data());
        }
        let mats: Vec<DenseTensor<f64>> = (0..4)
            .map(|i| DenseTensor::<f64>::random([10 + i, 5], &mut rng))
            .collect();
        let spec = TruncSpec {
            max_rank: 3,
            cutoff: 0.0,
            min_keep: 1,
        };
        let svd_seq = seq.svd_trunc_batch(&ops(&mats), spec).unwrap();
        let svd_mp = mp.svd_trunc_batch(&ops(&mats), spec).unwrap();
        for (s, m) in svd_seq.iter().zip(&svd_mp) {
            assert_eq!(s.s, m.s);
            assert_eq!(s.u.data(), m.u.data());
            assert_eq!(s.vt.data(), m.vt.data());
        }
        let qr_seq = seq.qr_batch(&ops(&mats)).unwrap();
        let qr_mp = mp.qr_batch(&ops(&mats)).unwrap();
        for ((q1, r1), (q2, r2)) in qr_seq.iter().zip(&qr_mp) {
            assert_eq!(q1.data(), q2.data());
            assert_eq!(r1.data(), r2.data());
        }
        assert_eq!(seq.total_flops(), mp.total_flops());
        assert_eq!(
            seq.sim_time().total().to_bits(),
            mp.sim_time().total().to_bits()
        );
    }

    #[cfg(unix)]
    #[test]
    fn multi_process_handle_reuse_ships_zero_operand_bytes() {
        let spawn = SpawnSpec::SelfExec(vec!["spawned_worker_entry".into()]);
        let mp = Executor::multi_process(Machine::blue_waters(2), 1, 2, spawn).unwrap();
        let (a, b) = operands(64);
        let ha = mp.upload(&a);
        let hb = mp.upload(&b);
        let c1 = mp.contract::<f64>("isj,jtk->istk", &ha, &hb).unwrap();
        let first = mp.operand_bytes();
        let c2 = mp.contract::<f64>("isj,jtk->istk", &ha, &hb).unwrap();
        let second = mp.operand_bytes() - first;
        assert_eq!(c1.data(), c2.data());
        // the repeat ships only chunk headers and store keys — orders of
        // magnitude below the first (which uploaded both operands)
        assert!(
            second * 20 < first,
            "resident repeat must ship almost nothing: first {first}, second {second}"
        );
        // value-passing the same contraction ships the operands again
        let c3 = mp.contract("isj,jtk->istk", &a, &b).unwrap();
        assert_eq!(c1.data(), c3.data());
        let third = mp.operand_bytes() - first - second;
        assert!(third > 10 * second);
        // worker stores report the residency; free empties them everywhere
        let entries =
            |mp: &Executor| -> u64 { mp.worker_cache_stats().unwrap().iter().map(|s| s.1).sum() };
        assert!(entries(&mp) > 0);
        mp.free(&ha).unwrap();
        mp.free(&hb).unwrap();
        assert_eq!(entries(&mp), 0);
    }

    #[cfg(unix)]
    #[test]
    fn multi_process_resident_footprint_stays_bounded() {
        // a long run of upload → contract → free cycles must leave the
        // worker stores empty: the driver's `Free` is their only bound
        let spawn = SpawnSpec::SelfExec(vec!["spawned_worker_entry".into()]);
        let mp = Executor::multi_process(Machine::local(), 1, 2, spawn).unwrap();
        let mut rng = StdRng::seed_from_u64(65);
        for _ in 0..12 {
            let a = DenseTensor::<f64>::random([12, 18], &mut rng);
            let b = DenseTensor::<f64>::random([18, 9], &mut rng);
            let hb = mp.upload(&b);
            let c1 = mp.contract::<f64>("ik,kj->ij", &a, &hb).unwrap();
            let c2 = mp.contract::<f64>("ik,kj->ij", &a, &hb).unwrap();
            assert_eq!(c1.data(), c2.data());
            mp.free(&hb).unwrap();
        }
        for (bytes, entries) in mp.worker_cache_stats().unwrap() {
            assert_eq!((bytes, entries), (0, 0), "all handles were freed");
        }
    }

    #[test]
    fn handle_returning_contractions_match_value_paths() {
        let (a, b) = operands(70);
        let exec = Executor::with_machine(Machine::blue_waters(2), 2, ExecMode::Sequential);
        let c_ref = exec.contract("isj,jtk->istk", &a, &b).unwrap();
        let h = to_handle(
            &exec,
            "isj,jtk->istk",
            ChainSrc::Dense((&a).into()),
            ChainSrc::Dense((&b).into()),
        );
        assert_eq!(h.dims(), c_ref.dims());
        assert!(
            exec.result_provenance(&h).is_some(),
            "resident results carry produced-by provenance"
        );
        let c = exec.download(h).unwrap();
        assert_eq!(c.data(), c_ref.data(), "dense");

        let sa = SparseTensor::from_dense(&a, 0.5);
        let d_ref = exec.contract_sd("isj,jtk->istk", &sa, &b).unwrap();
        let h = to_handle(
            &exec,
            "isj,jtk->istk",
            ChainSrc::Sparse((&sa).into()),
            ChainSrc::Dense((&b).into()),
        );
        let d = exec.download(h).unwrap();
        assert_eq!(d.data(), d_ref.data(), "sparse-dense");

        let (ac, bc) = (a.to_complex(), b.to_complex());
        let e_ref = exec
            .contract::<Complex64>("isj,jtk->istk", &ac, &bc)
            .unwrap();
        let h = to_handle(
            &exec,
            "isj,jtk->istk",
            ChainSrc::DenseC((&ac).into()),
            ChainSrc::DenseC((&bc).into()),
        );
        let e = exec
            .download_many::<Complex64>(vec![h])
            .unwrap()
            .pop()
            .unwrap();
        assert_eq!(e.data(), e_ref.data(), "Complex64");
    }

    #[test]
    fn chains_compose_prev_acc_and_res_bitwise() {
        let mut rng = StdRng::seed_from_u64(71);
        let a = DenseTensor::<f64>::random([6, 8], &mut rng);
        let b = DenseTensor::<f64>::random([8, 5], &mut rng);
        let c = DenseTensor::<f64>::random([5, 7], &mut rng);
        let exec = Executor::with_machine(Machine::blue_waters(2), 2, ExecMode::Sequential);
        let t_ref = exec.contract("ik,kj->ij", &a, &b).unwrap();
        let y_ref = exec.contract("ik,kj->ij", &t_ref, &c).unwrap();

        // (a·b)·c with the intermediate consumed worker-side via Prev
        let mut out = exec
            .chain(&[
                ChainStep {
                    spec: "ik,kj->ij",
                    a: ChainSrc::Dense((&a).into()),
                    b: ChainSrc::Dense((&b).into()),
                    acc: None,
                },
                ChainStep {
                    spec: "ik,kj->ij",
                    a: ChainSrc::Prev(0),
                    b: ChainSrc::Dense((&c).into()),
                    acc: None,
                },
            ])
            .unwrap();
        let h_y = out.pop().unwrap().unwrap();
        let h_t = out.pop().unwrap().unwrap();
        assert_eq!(exec.download(h_y).unwrap().data(), y_ref.data());
        exec.free_result(h_t).unwrap();

        // accumulate folds partials in submission order (first stored)
        let mut out = exec
            .chain(&[
                ChainStep {
                    spec: "ik,kj->ij",
                    a: ChainSrc::Dense((&a).into()),
                    b: ChainSrc::Dense((&b).into()),
                    acc: None,
                },
                ChainStep {
                    spec: "ik,kj->ij",
                    a: ChainSrc::Dense((&a).into()),
                    b: ChainSrc::Dense((&b).into()),
                    acc: Some(0),
                },
            ])
            .unwrap();
        assert!(out[1].is_none(), "accumulate steps fold into their target");
        let h = out[0].take().unwrap();
        let mut acc_ref = t_ref.clone();
        acc_ref.axpy(1.0, &t_ref).unwrap();
        assert_eq!(exec.download(h).unwrap().data(), acc_ref.data());

        // results of earlier chains feed later ones via Res
        let h1 = to_handle(
            &exec,
            "ik,kj->ij",
            ChainSrc::Dense((&a).into()),
            ChainSrc::Dense((&b).into()),
        );
        let mut out = exec
            .chain(&[ChainStep {
                spec: "ik,kj->ij",
                a: ChainSrc::Res(&h1),
                b: ChainSrc::Dense((&c).into()),
                acc: None,
            }])
            .unwrap();
        let h_y = out.pop().unwrap().unwrap();
        assert_eq!(exec.download(h_y).unwrap().data(), y_ref.data());
        exec.free_result(h1).unwrap();

        // malformed chains surface as errors
        assert!(
            exec.chain(&[ChainStep {
                spec: "ik,kj->ij",
                a: ChainSrc::Prev(3),
                b: ChainSrc::Dense((&c).into()),
                acc: None,
            }])
            .is_err(),
            "forward Prev reference"
        );
        assert!(
            exec.chain(&[
                ChainStep {
                    spec: "ik,kj->ij",
                    a: ChainSrc::Dense((&a).into()),
                    b: ChainSrc::Dense((&b).into()),
                    acc: None,
                },
                ChainStep {
                    spec: "ik,kj->ij",
                    a: ChainSrc::Dense((&a).into()),
                    b: ChainSrc::Dense((&b).into()),
                    acc: Some(0),
                },
                ChainStep {
                    spec: "ik,kj->ij",
                    a: ChainSrc::Dense((&a).into()),
                    b: ChainSrc::Dense((&b).into()),
                    acc: Some(1),
                },
            ])
            .is_err(),
            "accumulating into an accumulate step"
        );
    }

    #[cfg(unix)]
    #[test]
    fn multi_process_chains_bitwise_and_collapse_result_bytes() {
        let spawn = SpawnSpec::SelfExec(vec!["spawned_worker_entry".into()]);
        let mp = Executor::multi_process(Machine::blue_waters(2), 1, 2, spawn).unwrap();
        let mut rng = StdRng::seed_from_u64(72);
        let a = DenseTensor::<f64>::random([24, 30], &mut rng);
        let b = DenseTensor::<f64>::random([30, 18], &mut rng);
        let c = DenseTensor::<f64>::random([18, 12], &mut rng);

        // value path: both intermediates round-trip through the driver
        let before = mp.result_bytes();
        let t = mp.contract("ik,kj->ij", &a, &b).unwrap();
        let y_ref = mp.contract("ik,kj->ij", &t, &c).unwrap();
        let value_result_bytes = mp.result_bytes() - before;

        // chained: only the final download returns bytes
        let before = mp.result_bytes();
        let mut out = mp
            .chain(&[
                ChainStep {
                    spec: "ik,kj->ij",
                    a: ChainSrc::Dense((&a).into()),
                    b: ChainSrc::Dense((&b).into()),
                    acc: None,
                },
                ChainStep {
                    spec: "ik,kj->ij",
                    a: ChainSrc::Prev(0),
                    b: ChainSrc::Dense((&c).into()),
                    acc: None,
                },
            ])
            .unwrap();
        let h_y = out.pop().unwrap().unwrap();
        let h_t = out.pop().unwrap().unwrap();
        let y = mp.download(h_y).unwrap();
        mp.free_result(h_t).unwrap();
        let chain_result_bytes = mp.result_bytes() - before;
        assert_eq!(y.data(), y_ref.data(), "chained must be bitwise equal");
        assert!(
            2 * chain_result_bytes < value_result_bytes,
            "chaining must collapse driver result bytes: chain {chain_result_bytes} vs \
             value {value_result_bytes}"
        );

        // results created by separate chains land on different anchor
        // ranks; combining them exercises the explicit redistribute
        // superstep and still matches the value path bitwise
        let d = DenseTensor::<f64>::random([12, 9], &mut rng);
        let h1 = to_handle(
            &mp,
            "ik,kj->ij",
            ChainSrc::Dense((&a).into()),
            ChainSrc::Dense((&b).into()),
        );
        let h2 = to_handle(
            &mp,
            "ik,kj->ij",
            ChainSrc::Dense((&c).into()),
            ChainSrc::Dense((&d).into()),
        );
        let fused_ref = mp
            .contract("ik,kj->ij", &t, &mp.contract("ik,kj->ij", &c, &d).unwrap())
            .unwrap();
        let mut out = mp
            .chain(&[ChainStep {
                spec: "ik,kj->ij",
                a: ChainSrc::Res(&h1),
                b: ChainSrc::Res(&h2),
                acc: None,
            }])
            .unwrap();
        let h = out.pop().unwrap().unwrap();
        assert_eq!(mp.download(h).unwrap().data(), fused_ref.data());
        mp.free_results(vec![h1, h2]).unwrap();

        // after download/free nothing is left on the workers
        let entries: u64 = mp.worker_cache_stats().unwrap().iter().map(|s| s.1).sum();
        assert_eq!(entries, 0, "chain intermediates leave on download/free");
    }

    #[test]
    fn tall_panels_route_through_tsqr() {
        let mut rng = StdRng::seed_from_u64(73);
        let a = DenseTensor::<f64>::random([256, 8], &mut rng);
        let exec = Executor::with_machine(Machine::blue_waters(2), 2, ExecMode::Sequential);
        let (q, r) = exec.qr(&a).unwrap();
        // bitwise-identical to the TSQR tree over the same rank count
        let reference = Executor::with_machine(Machine::blue_waters(2), 2, ExecMode::Sequential);
        let (q_ref, r_ref) = crate::tsqr::tsqr(&a, &reference.comm()).unwrap();
        assert_eq!(q.data(), q_ref.data());
        assert_eq!(r.data(), r_ref.data());
        // and equal to the direct factorization up to per-column sign
        let (q_d, r_d) = tt_linalg::qr_thin(&a).unwrap();
        for j in 0..8 {
            let sign = (r.at(&[j, j]) * r_d.at(&[j, j])).signum();
            for jj in j..8 {
                assert!(
                    (r.at(&[j, jj]) - sign * r_d.at(&[j, jj])).abs() < 1e-9,
                    "R row {j} beyond sign"
                );
            }
            for i in 0..256 {
                assert!((q.at(&[i, j]) - sign * q_d.at(&[i, j])).abs() < 1e-9);
            }
        }

        // tall SVD: singular values match the direct path to rounding
        let spec = TruncSpec {
            max_rank: 8,
            cutoff: 0.0,
            min_keep: 1,
        };
        let t = exec.svd_trunc(&a, spec).unwrap();
        let t_ref = tt_linalg::svd_trunc(&a, spec).unwrap();
        assert_eq!(t.s.len(), t_ref.s.len());
        for (x, y) in t.s.iter().zip(&t_ref.s) {
            assert!((x - y).abs() < 1e-9 * y.max(1.0), "{x} vs {y}");
        }

        // sub-threshold panels keep the direct path bitwise
        let b = DenseTensor::<f64>::random([40, 12], &mut rng);
        let (qb, rb) = exec.qr(&b).unwrap();
        let (qb_d, rb_d) = tt_linalg::qr_thin(&b).unwrap();
        assert_eq!(qb.data(), qb_d.data());
        assert_eq!(rb.data(), rb_d.data());
    }

    #[test]
    fn svd_and_qr_are_exact_and_charged() {
        let mut rng = StdRng::seed_from_u64(46);
        let a = DenseTensor::<f64>::random([40, 12], &mut rng);
        let exec = Executor::with_machine(Machine::stampede2(4), 1, ExecMode::Sequential);
        let (q, r) = exec.qr(&a).unwrap();
        let (q2, r2) = tt_linalg::qr_thin(&a).unwrap();
        assert_eq!(q.data(), q2.data());
        assert_eq!(r.data(), r2.data());
        let spec = TruncSpec {
            max_rank: 8,
            cutoff: 0.0,
            min_keep: 1,
        };
        let t = exec.svd_trunc(&a, spec).unwrap();
        assert_eq!(t.s.len(), 8);
        assert!(exec.sim_time().svd > 0.0);
        assert!(exec.supersteps() > 0);
    }

    /// Every cost counter of an executor, floats by bit pattern.
    fn counters(exec: &Executor) -> (u64, u64, String, u64, u64, u64) {
        (
            exec.total_flops(),
            exec.supersteps(),
            format!("{:?}", exec.sim_time()),
            exec.operand_bytes(),
            exec.result_bytes(),
            exec.recovery_bytes(),
        )
    }

    /// The case one operand type newly allows: a factorization batch
    /// mixing value and handle matrices, one of them a tall panel, must
    /// equal the loop of singles bit for bit — factors and every cost
    /// counter — and a second pass must ship nothing for the handles.
    fn mixed_factorization_batch(make: impl Fn() -> Executor) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(67);
        let mats: Vec<DenseTensor<f64>> = [(20usize, 8usize), (13, 13), (256, 8), (6, 17)]
            .iter()
            .map(|&(m, n)| DenseTensor::<f64>::random([m, n], &mut rng))
            .collect();
        assert!(tall_panel(mats[2].dims()));
        let spec = TruncSpec {
            max_rank: 6,
            cutoff: 0.0,
            min_keep: 1,
        };
        // matrices 1 and 2 (the tall one) by handle, 0 and 3 by value
        let (single, batch) = (make(), make());
        fn mixed_ops<'a>(mats: &'a [DenseTensor<f64>], h: &'a [OpHandle]) -> Vec<DenseOp<'a>> {
            vec![
                (&mats[0]).into(),
                (&h[0]).into(),
                (&h[1]).into(),
                (&mats[3]).into(),
            ]
        }
        let mixed = |h| mixed_ops(&mats, h);
        let hs: Vec<OpHandle> = mats[1..3].iter().map(|m| single.upload(m)).collect();
        let (mut svds_ref, mut qrs_ref) = (Vec::new(), Vec::new());
        for op in mixed(&hs) {
            svds_ref.push(single.svd_trunc(op, spec).unwrap());
        }
        for op in mixed(&hs) {
            qrs_ref.push(single.qr(op).unwrap());
        }
        let hb: Vec<OpHandle> = mats[1..3].iter().map(|m| batch.upload(m)).collect();
        let svds = batch.svd_trunc_batch(&mixed(&hb), spec).unwrap();
        let qrs = batch.qr_batch(&mixed(&hb)).unwrap();
        let mut bits = Vec::new();
        for (s, r) in svds.iter().zip(&svds_ref) {
            assert_eq!(s.s, r.s);
            assert_eq!(s.u.data(), r.u.data());
            assert_eq!(s.vt.data(), r.vt.data());
            assert_eq!(s.trunc_err.to_bits(), r.trunc_err.to_bits());
            bits.push(s.u.data().to_vec());
        }
        for ((q, rr), (q2, r2)) in qrs.iter().zip(&qrs_ref) {
            assert_eq!(q.data(), q2.data());
            assert_eq!(rr.data(), r2.data());
            bits.push(q.data().to_vec());
        }
        assert_eq!(counters(&batch), counters(&single));
        // second pass: the handles are resident, so only the two value
        // matrices (and nothing else) ship — once per batch
        let before = batch.operand_bytes();
        batch.svd_trunc_batch(&mixed(&hb), spec).unwrap();
        batch.qr_batch(&mixed(&hb)).unwrap();
        let by_value = match batch.backend() {
            Backend::MultiProcess { .. } => 2 * 8 * (mats[0].len() + mats[3].len()) as u64,
            Backend::InProcess(_) => 0,
        };
        assert_eq!(
            batch.operand_bytes() - before,
            by_value,
            "handles must ship nothing on the second pass"
        );
        for (exec, handles) in [(&single, &hs), (&batch, &hb)] {
            for h in handles {
                exec.free(h).unwrap();
            }
        }
        bits.push(vec![
            batch.total_flops() as f64,
            batch.supersteps() as f64,
            batch.sim_time().total(),
        ]);
        bits
    }

    #[test]
    fn mixed_value_handle_factorization_batch_matches_singles_on_every_backend() {
        let in_process = |mode| move || Executor::with_machine(Machine::stampede2(4), 1, mode);
        let reference = mixed_factorization_batch(in_process(ExecMode::Sequential));
        let bitwise = |other: Vec<Vec<f64>>, name: &str| {
            for (x, y) in other.iter().zip(&reference) {
                let (x, y): (Vec<u64>, Vec<u64>) = (
                    x.iter().map(|v| v.to_bits()).collect(),
                    y.iter().map(|v| v.to_bits()).collect(),
                );
                assert_eq!(x, y, "{name}");
            }
        };
        bitwise(
            mixed_factorization_batch(in_process(ExecMode::Threaded)),
            "threaded",
        );
        #[cfg(unix)]
        bitwise(
            mixed_factorization_batch(|| {
                let spawn = SpawnSpec::SelfExec(vec!["spawned_worker_entry".into()]);
                Executor::multi_process(Machine::stampede2(4), 1, 2, spawn).unwrap()
            }),
            "multi-process p=2",
        );
    }

    #[test]
    fn factorization_handle_batches_match_value_batches() {
        let mut rng = StdRng::seed_from_u64(66);
        let mats: Vec<DenseTensor<f64>> = [(20usize, 8usize), (13, 13), (30, 4)]
            .iter()
            .map(|&(m, n)| DenseTensor::<f64>::random([m, n], &mut rng))
            .collect();
        let spec = TruncSpec {
            max_rank: 6,
            cutoff: 0.0,
            min_keep: 1,
        };
        let exec = Executor::with_machine(Machine::stampede2(4), 1, ExecMode::Sequential);
        let svds_ref = exec.svd_trunc_batch(&ops(&mats), spec).unwrap();
        let qrs_ref = exec.qr_batch(&ops(&mats)).unwrap();
        let handles: Vec<OpHandle> = mats.iter().map(|m| exec.upload(m)).collect();
        let svds = exec.svd_trunc_batch(&ops(&handles), spec).unwrap();
        for (s, r) in svds.iter().zip(&svds_ref) {
            assert_eq!(s.s, r.s);
            assert_eq!(s.u.data(), r.u.data());
            assert_eq!(s.vt.data(), r.vt.data());
        }
        let qrs = exec.qr_batch(&ops(&handles)).unwrap();
        for ((q, rr), (q2, r2)) in qrs.iter().zip(&qrs_ref) {
            assert_eq!(q.data(), q2.data());
            assert_eq!(rr.data(), r2.data());
        }
        for h in &handles {
            exec.free(h).unwrap();
        }
    }
}
