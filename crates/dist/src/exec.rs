//! The execution front-end: every distributed-capable operation in the
//! workspace goes through an [`Executor`].
//!
//! Numerics are exact (the executor computes locally with deterministic
//! kernels); the *cost* of running the operation on `p` ranks of the
//! configured [`Machine`] is charged to the shared [`CostTracker`]: a
//! 2-D-grid SUMMA volume per contraction, TTGT packing traffic, roofline
//! compute time, tile-imbalance idle time and per-operation supersteps.
//!
//! # Resident operands
//!
//! The hot entry points accept operands either **by value** (a tensor
//! reference — shipped with every task on the multi-process backend) or
//! **by handle** ([`OpHandle`], created with [`Executor::upload`] /
//! [`Executor::upload_c64`] / [`Executor::upload_sparse`], freed with
//! [`Executor::free`]). A handle's derived buffers (permuted matrices,
//! row slabs, coordinate buckets, grouped sparse tables) are pinned in
//! the worker stores on first use, so every later contraction against the
//! same handle ships **zero operand bytes**: scatter and compute are
//! fused into one superstep per chunk, and the chunk request carries only
//! a store key. The α–β charges follow the same discipline — a one-time
//! upload charge on first use (miss), no β charge on a hit — and are
//! computed from driver-side registry state only, so the charge sequence
//! is bitwise-identical on every backend. On [`Backend::InProcess`]
//! handles are plain `Arc`s around the tensor and the numerics take the
//! exact same kernel path as the value-passing API.

use crate::cluster::{Cluster, Placement};
use crate::comm::Comm;
use crate::cost::{self, CostTracker, SimTime};
use crate::handle::{
    derive, hseq, Fnv, LocalResult, OpHandle, Payload, Residency, ResultHandle, ResultInfo,
    ResultKind,
};
use crate::kernels;
use crate::machine::Machine;
use crate::pool::ThreadPool;
use crate::transport::worker::{OpC, OpCoords, OpF, OpSs, Reply, Request};
use crate::transport::SpawnSpec;
use crate::{process_grid, Error, Result};
use parking_lot::Mutex;
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
/// every dense executor path is generic over [`WireScalar`], which is what
/// lets one cluster driver serve both scalar types.
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
    fn tensor(&self) -> Result<&'a DenseTensor<T>> {
        match self {
            DenseOpT::Value(t) => Ok(t),
            DenseOpT::Handle(h) => T::from_handle(h),
        }
    }

    fn handle(&self) -> Option<&'a OpHandle> {
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

/// Wire-level behavior of a dense scalar type: operand encoding, upload /
/// chunk / chain request construction, reply decoding, and handle payload
/// extraction. The two implementations (for `f64` and [`Complex64`]) are
/// the *only* scalar-specific code in the dense data plane — everything
/// else is one generic driver (mirroring `kernels::dense_contract<T>`).
pub(crate) trait WireScalar: Scalar {
    /// The wire operand representation ([`OpF`] or [`OpC`]).
    type Op: Clone + Send;
    /// Stored `f64` words per element (1 for `f64`, 2 for [`Complex64`]).
    const WORDS: usize;
    /// Derived-buffer purpose tag for slab-partitioned permuted `A`.
    const TAG_A: u64;
    /// Derived-buffer purpose tag for the replicated permuted `B` matrix.
    const TAG_B: u64;
    fn op_inline(data: Vec<Self>) -> Self::Op;
    fn op_key(key: u64) -> Self::Op;
    fn upload_req(key: u64, data: Vec<Self>) -> Request;
    fn chunk_req(
        path: GemmPath,
        rows: usize,
        k: usize,
        n: usize,
        a: Self::Op,
        b: Self::Op,
    ) -> Request;
    fn expect(reply: Reply) -> Result<Vec<Self>>;
    fn from_handle(h: &OpHandle) -> Result<&DenseTensor<Self>>;
    fn payload(t: &DenseTensor<Self>) -> Payload;
}

impl WireScalar for f64 {
    type Op = OpF;
    const WORDS: usize = 1;
    const TAG_A: u64 = TAG_DENSE_A;
    const TAG_B: u64 = TAG_MAT_B;

    fn op_inline(data: Vec<Self>) -> OpF {
        OpF::Inline(data)
    }

    fn op_key(key: u64) -> OpF {
        OpF::Key(key)
    }

    fn upload_req(key: u64, data: Vec<Self>) -> Request {
        Request::Upload { key, data }
    }

    fn chunk_req(path: GemmPath, rows: usize, k: usize, n: usize, a: OpF, b: OpF) -> Request {
        Request::DenseChunk {
            path,
            rows,
            k,
            n,
            a,
            b,
        }
    }

    fn expect(reply: Reply) -> Result<Vec<Self>> {
        expect_f64s(reply)
    }

    fn from_handle(h: &OpHandle) -> Result<&DenseTensor<Self>> {
        h.dense()
    }

    fn payload(t: &DenseTensor<Self>) -> Payload {
        Payload::F64(Arc::new(t.clone()))
    }
}

impl WireScalar for Complex64 {
    type Op = OpC;
    const WORDS: usize = 2;
    const TAG_A: u64 = TAG_C64_A;
    const TAG_B: u64 = TAG_C64_B;

    fn op_inline(data: Vec<Self>) -> OpC {
        OpC::Inline(data)
    }

    fn op_key(key: u64) -> OpC {
        OpC::Key(key)
    }

    fn upload_req(key: u64, data: Vec<Self>) -> Request {
        Request::UploadC64 { key, data }
    }

    fn chunk_req(path: GemmPath, rows: usize, k: usize, n: usize, a: OpC, b: OpC) -> Request {
        Request::DenseChunkC64 {
            path,
            rows,
            k,
            n,
            a,
            b,
        }
    }

    fn expect(reply: Reply) -> Result<Vec<Self>> {
        match reply {
            Reply::C64s(v) => Ok(v),
            other => Err(Error::transport(format!(
                "expected Complex64 payload, got {other:?}"
            ))),
        }
    }

    fn from_handle(h: &OpHandle) -> Result<&DenseTensor<Self>> {
        h.dense_c64()
    }

    fn payload(t: &DenseTensor<Self>) -> Payload {
        Payload::C64(Arc::new(t.clone()))
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
enum StepKind {
    Dense,
    DenseC,
    Sd,
}

/// Static per-step plan of a chain: everything derivable driver-side from
/// dims alone.
struct PlannedStep {
    kind: StepKind,
    plan: ContractPlan,
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

impl PlannedStep {
    fn result_kind(&self) -> ResultKind {
        result_kind_of(&self.kind)
    }
}

fn result_kind_of(kind: &StepKind) -> ResultKind {
    match kind {
        StepKind::DenseC => ResultKind::C64,
        _ => ResultKind::F64,
    }
}

/// The scalar family of a chain-step operand at planning time.
#[derive(Clone, Copy, PartialEq, Eq)]
enum SrcKind {
    F64,
    C64,
    Sparse,
}

/// A resolved wire operand of a chain step.
enum WireIn {
    F(OpF),
    C(OpC),
    Coords(OpCoords),
}

impl WireIn {
    fn f64(self) -> Result<OpF> {
        match self {
            WireIn::F(op) => Ok(op),
            _ => Err(Error::Runtime("chain step operand kind mismatch".into())),
        }
    }

    fn c64(self) -> Result<OpC> {
        match self {
            WireIn::C(op) => Ok(op),
            _ => Err(Error::Runtime("chain step operand kind mismatch".into())),
        }
    }

    fn coords(self) -> Result<OpCoords> {
        match self {
            WireIn::Coords(op) => Ok(op),
            _ => Err(Error::Runtime("chain step operand kind mismatch".into())),
        }
    }
}

/// How one operand participates in a contraction's cost charges.
#[derive(Clone, Copy, Debug)]
enum OpCharge {
    /// Shipped by value: full TTGT + SUMMA β share, as always.
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

    /// Words travelling in this contraction's SUMMA superstep.
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
    /// Allocator for driver-issued result keys (chain outputs). Starts far
    /// above the cluster's SUMMA-slab key range.
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
/// registry refcount per entry; front of `held` is the eviction victim.
#[derive(Default)]
struct Retention {
    cap_bytes: u64,
    bytes: u64,
    held: Vec<(u64, u64)>,
}

impl Retention {
    /// Pop oldest entries until within budget; returns the keys to release.
    fn evict_over_cap(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        while self.bytes > self.cap_bytes && !self.held.is_empty() {
            let (key, b) = self.held.remove(0);
            self.bytes -= b;
            out.push(key);
        }
        out
    }
}

/// One rank's resident-store cache counters, as returned by
/// [`Executor::cache_stats`]: footprint (`bytes`/`entries`), the pinned
/// subset (refcounted by live result handles — exempt from LRU
/// eviction), and the lifetime hit/miss/eviction counters that make
/// cross-job operand dedup observable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RankCacheStats {
    /// Resident bytes in the store.
    pub bytes: u64,
    /// Resident entries in the store.
    pub entries: u64,
    /// Entries currently pinned (nonzero refcount).
    pub pinned: u64,
    /// Bytes held by pinned entries.
    pub pinned_bytes: u64,
    /// Keyed lookups served from the store since worker start.
    pub hits: u64,
    /// Fresh insertions (content not already resident) since start.
    pub misses: u64,
    /// LRU evictions since start.
    pub evictions: u64,
}

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
    /// (worker binary missing, socket errors).
    pub fn with_backend(machine: Machine, nodes: usize, backend: Backend) -> Result<Self> {
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
                let mut cl = Cluster::multi_process(*workers, spawn)?;
                cl.attach_tracker(Arc::clone(&tracker));
                (ExecMode::Sequential, None, Some(Mutex::new(cl)))
            }
            #[cfg(not(unix))]
            Backend::MultiProcess { .. } => {
                return Err(Error::Runtime(
                    "the multi-process backend requires a unix platform".into(),
                ))
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
        let nodes = nodes.max(1);
        let ranks = nodes * machine.procs_per_node.max(1);
        let tracker = Arc::new(Mutex::new(CostTracker::new(machine.clone(), ranks)));
        let mut cl = Cluster::multi_process_with(workers, &spawn, opts)?;
        cl.attach_tracker(Arc::clone(&tracker));
        Ok(Self {
            machine,
            nodes,
            ranks,
            mode: ExecMode::Sequential,
            backend: Backend::MultiProcess { workers, spawn },
            tracker,
            pool: None,
            cluster: Some(Mutex::new(cl)),
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
    /// has one (e.g. to drive [`crate::DistMatrix::summa_on`] or
    /// [`crate::tsqr_on`] over the same worker set).
    pub fn with_cluster<R>(&self, f: impl FnOnce(&mut Cluster) -> R) -> Option<R> {
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
        Comm::new(self.ranks, self.mode, Arc::clone(&self.tracker))
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

    /// Upload a dense `f64` tensor, returning a content-keyed handle.
    /// Residency is lazy: buffers derived from the handle are pinned on
    /// the workers by the first contraction that needs them. Each upload
    /// must be matched by one [`Executor::free`].
    pub fn upload(&self, t: &DenseTensor<f64>) -> OpHandle {
        self.upload_shared(&Arc::new(t.clone()))
    }

    /// Upload an `Arc`-shared dense `f64` tensor without cloning its
    /// storage — the handle shares the caller's allocation (only the
    /// content hash is computed). This is what lets `tt-blocks`' transient
    /// per-block uploads and chain-step enqueues stop paying a full clone
    /// per block.
    pub fn upload_shared(&self, t: &Arc<DenseTensor<f64>>) -> OpHandle {
        let h = OpHandle::new(Payload::F64(Arc::clone(t)));
        self.finish_upload(&h);
        h
    }

    /// Upload a dense [`Complex64`] tensor.
    pub fn upload_c64(&self, t: &DenseTensor<Complex64>) -> OpHandle {
        let h = OpHandle::new(Payload::C64(Arc::new(t.clone())));
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
    /// free, so the copies could never be referenced again — keeping
    /// them merely evictable would let unreachable garbage linger up to
    /// the LRU cap.
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
    /// budget evicts oldest-first through the normal free path. Size it
    /// below the worker LRU cap ([`Executor::set_worker_cache_cap`]) —
    /// retained buffers are pinned and the worker LRU cannot evict them.
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
            if let Some(pos) = r.held.iter().position(|&(k, _)| k == h.key()) {
                let entry = r.held.remove(pos);
                r.held.push(entry);
            } else if bytes <= r.cap_bytes {
                self.residency.lock().retain(h.key());
                r.held.push((h.key(), bytes));
                r.bytes += bytes;
            } else {
                return false;
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
        let h = OpHandle::new(T::payload(t));
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

    /// Set the worker-side resident-store LRU byte cap on every rank
    /// (multi-process backend only; a no-op in-process).
    pub fn set_worker_cache_cap(&self, bytes: u64) -> Result<()> {
        if let Some(cl) = &self.cluster {
            let mut cl = cl.lock();
            let reqs = (0..cl.ranks())
                .map(|r| (r, Request::SetCacheCap { bytes }))
                .collect();
            cl.call_all(reqs)?;
        }
        Ok(())
    }

    /// Worker resident-store footprint as `(bytes, entries, pinned)` per
    /// rank (empty in-process). Compatibility shim over
    /// [`Executor::cache_stats`].
    pub fn worker_cache_stats(&self) -> Result<Vec<(u64, u64, u64)>> {
        Ok(self
            .cache_stats()?
            .into_iter()
            .map(|s| (s.bytes, s.entries, s.pinned))
            .collect())
    }

    /// Per-rank resident-store cache counters (empty in-process): the
    /// footprint plus the lifetime hit/miss/eviction counts the solve
    /// service reports as fleet-wide residency stats.
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
                    pinned,
                    pinned_bytes,
                    hits,
                    misses,
                    evictions,
                } => Ok(RankCacheStats {
                    bytes,
                    entries,
                    pinned,
                    pinned_bytes,
                    hits,
                    misses,
                    evictions,
                }),
                other => Err(Error::transport(format!("expected stats, got {other:?}"))),
            })
            .collect()
    }

    /// Resolve a handle operand's charge state: the first observation of
    /// `lkey` in a resident period is a [`OpCharge::Miss`], later ones are
    /// hits. Value operands charge in full.
    fn op_state(&self, handle: Option<&OpHandle>, lkey: u64, words: usize) -> OpCharge {
        match handle {
            None => OpCharge::Value(words),
            Some(h) => {
                if self.observe_logical(h.key(), lkey) {
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

    /// Charge compute + imbalance + transpose + SUMMA communication for a
    /// contraction whose operands participate as `a`/`b` (value words,
    /// one-time resident upload, or cache hit) with `words_c` stored
    /// result words over an `m × n` fused output grid, executing `flops`
    /// flops. `sparse` selects the sparse roofline and time bucket.
    ///
    /// Value-only charges are bit-identical to the historical formula;
    /// resident operands drop their packing traffic and SUMMA β share
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

                // SUMMA: value operand panels travel √p-reduced, resident
                // operands move nothing, the result is reduced once — all in
                // the one fused scatter+compute superstep.
                let words = ((a.beta_words() + b.beta_words()) as f64 / p.sqrt()
                    + words_c as f64 / p) as u64;
                tr.charge_superstep(8 * words);
            }
        });
    }

    /// Distributed dense × dense contraction (einsum grammar).
    pub fn contract(
        &self,
        spec: &str,
        a: &DenseTensor<f64>,
        b: &DenseTensor<f64>,
    ) -> Result<DenseTensor<f64>> {
        self.contract_h(spec, a.into(), b.into())
    }

    /// Dense × dense contraction with value-or-handle operands. Results
    /// are bitwise-identical to [`Executor::contract`] on every backend.
    pub fn contract_h(&self, spec: &str, a: DenseOp, b: DenseOp) -> Result<DenseTensor<f64>> {
        self.contract_dense_t(spec, a, b)
    }

    /// Dense × dense [`Complex64`] contraction with value-or-handle
    /// operands, bitwise-deterministic across backends exactly like the
    /// `f64` path (the wire codec round-trips complex values bit-exactly).
    pub fn contract_c64(
        &self,
        spec: &str,
        a: DenseOpC,
        b: DenseOpC,
    ) -> Result<DenseTensor<Complex64>> {
        self.contract_dense_t(spec, a, b)
    }

    /// The scalar-generic dense contraction driver behind
    /// [`Executor::contract_h`] and [`Executor::contract_c64`]: identical
    /// decomposition, residency derivation and α–β charges for both
    /// scalar types (element words scale by [`WireScalar::WORDS`]).
    fn contract_dense_t<T: WireScalar>(
        &self,
        spec: &str,
        a: DenseOpT<T>,
        b: DenseOpT<T>,
    ) -> Result<DenseTensor<T>> {
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
        let (perm_a, perm_b) = operand_perms(&plan);
        // the A-slab contents depend on the kernel path (MC-aligned vs
        // uniform ranges), so the logical charge key tracks it too — a
        // path change is a genuine re-upload, not a cache hit
        let path = gemm_path(k, n);
        let sa = self.op_state(
            a.handle(),
            a.handle()
                .map(|h| derive(&[h.key(), T::TAG_A, hseq(&perm_a), path as u64]))
                .unwrap_or_default(),
            T::WORDS * m * k,
        );
        let sb = self.op_state(
            b.handle(),
            b.handle()
                .map(|h| derive(&[h.key(), T::TAG_B, hseq(&perm_b)]))
                .unwrap_or_default(),
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
        let (perm_a, perm_b) = operand_perms(plan);

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
            None => T::op_inline(bt.permute(&perm_b)?.into_data()),
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
                        Ok(T::upload_req(wkey, data))
                    },
                )?;
                T::op_key(wkey)
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
                AFields::Inline(mat) => T::op_inline(mat[r0 * k..r1 * k].to_vec()),
                AFields::Keys(keys) => T::op_key(keys[i]),
            };
            reqs.push((
                i % p,
                T::chunk_req(path, r1 - r0, k, n, a_field, b_field.clone()),
            ));
        }
        let mut c = Vec::with_capacity(m * n);
        for reply in cl.call_all(reqs)?.into_iter().skip(n_uploads) {
            c.extend_from_slice(&T::expect(reply)?);
        }
        // (worker-side kernel flop counts travel back with every reply —
        // see the counter-delta prefix in transport::process — so the
        // driver's global counter matches the in-process backends)
        let c = DenseTensor::from_vec(kernels::natural_dims(plan, at.dims(), bt.dims()), c)?;
        Ok(c.permute(plan.output_permutation())?)
    }

    // -- result residency: handle-returning contractions and chains ------

    /// Dense × dense contraction that *produces a handle*: the result
    /// stays pinned in the worker store of the rank that computed it and
    /// never returns to the driver. [`Executor::download`] is the only
    /// value-returning exit; [`Executor::free_result`] discards.
    pub fn contract_to_h(&self, spec: &str, a: DenseOp, b: DenseOp) -> Result<ResultHandle> {
        let mut out = self.chain(&[ChainStep {
            spec,
            a: ChainSrc::Dense(a),
            b: ChainSrc::Dense(b),
            acc: None,
        }])?;
        Ok(out.pop().flatten().expect("single non-accumulate step"))
    }

    /// [`Executor::contract_to_h`] for [`Complex64`] operands.
    pub fn contract_c64_to_h(&self, spec: &str, a: DenseOpC, b: DenseOpC) -> Result<ResultHandle> {
        let mut out = self.chain(&[ChainStep {
            spec,
            a: ChainSrc::DenseC(a),
            b: ChainSrc::DenseC(b),
            acc: None,
        }])?;
        Ok(out.pop().flatten().expect("single non-accumulate step"))
    }

    /// Sparse × dense contraction producing a resident handle.
    pub fn contract_sd_to_h(&self, spec: &str, a: SparseOp, b: DenseOp) -> Result<ResultHandle> {
        let mut out = self.chain(&[ChainStep {
            spec,
            a: ChainSrc::Sparse(a),
            b: ChainSrc::Dense(b),
            acc: None,
        }])?;
        Ok(out.pop().flatten().expect("single non-accumulate step"))
    }

    /// Run an ordered list of contraction steps **worker-side**: each step
    /// may consume prior steps' resident outputs ([`ChainSrc::Prev`]) or
    /// the outputs of earlier chains ([`ChainSrc::Res`]), and no
    /// intermediate ever round-trips through the driver. Returns one
    /// [`ResultHandle`] per non-accumulate step (in step order; `None` for
    /// accumulate steps, which fold into their target's handle).
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
        let mut locals: Vec<Option<LocalResult>> = (0..steps.len()).map(|_| None).collect();
        let homes = if let Some(cl) = &self.cluster {
            match self.chain_over_cluster(&mut cl.lock(), steps, &planned) {
                Ok(homes) => homes,
                Err(e) => {
                    // a mid-chain failure may have left earlier steps'
                    // results pinned (flushed supersteps execute eagerly)
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
                matches!(pl.kind, StepKind::Sd),
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
                hash_spec(steps[i].spec),
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
                kind: pl.result_kind(),
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
        for (i, st) in steps.iter().enumerate() {
            let (a_dims, ak) = src_info(&st.a, &planned)?;
            let (b_dims, bk) = src_info(&st.b, &planned)?;
            let kind = match (ak, bk) {
                (SrcKind::Sparse, SrcKind::F64) => StepKind::Sd,
                (SrcKind::Sparse, _) | (_, SrcKind::Sparse) => {
                    return Err(Error::Runtime(
                        "only sparse × dense chain steps are supported (sparse operand first)"
                            .into(),
                    ))
                }
                (SrcKind::C64, SrcKind::C64) => StepKind::DenseC,
                (SrcKind::F64, SrcKind::F64) => StepKind::Dense,
                _ => {
                    return Err(Error::Runtime(
                        "chain step mixes f64 and Complex64 operands".into(),
                    ))
                }
            };
            let plan = ContractPlan::parse(st.spec)?;
            let out_dims = plan.output_dims(&a_dims, &b_dims)?;
            let (m, k, n) = kernels::fused_dims(&plan, &a_dims, &b_dims);
            let flops = match (&kind, &st.a) {
                (StepKind::Sd, ChainSrc::Sparse(op)) => 2 * op.tensor()?.nnz() as u64 * n as u64,
                _ => plan.flop_count(&a_dims, &b_dims),
            };
            let words_el = if matches!(kind, StepKind::DenseC) {
                2
            } else {
                1
            };
            let words_c = words_el * out_dims.iter().product::<usize>();
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
                    if !matches!(kind, StepKind::Dense | StepKind::DenseC) {
                        return Err(Error::Runtime(
                            "accumulate is only supported for dense chain steps".into(),
                        ));
                    }
                    if tgt.out_dims != out_dims || tgt.result_kind() != result_kind_of(&kind) {
                        return Err(Error::Runtime(format!(
                            "step {i} accumulate target has mismatched shape or kind"
                        )));
                    }
                    (t, tgt.key)
                }
            };
            planned.push(PlannedStep {
                kind,
                plan,
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
                StepKind::Dense => Request::ChainDense {
                    spec: st.spec.to_string(),
                    a_dims: pl.a_dims.clone(),
                    a: a_field.f64()?,
                    b_dims: pl.b_dims.clone(),
                    b: b_field.f64()?,
                    store: pl.key,
                    acc: pl.base != i,
                },
                StepKind::DenseC => Request::ChainDenseC64 {
                    spec: st.spec.to_string(),
                    a_dims: pl.a_dims.clone(),
                    a: a_field.c64()?,
                    b_dims: pl.b_dims.clone(),
                    b: b_field.c64()?,
                    store: pl.key,
                    acc: pl.base != i,
                },
                StepKind::Sd => Request::ChainSd {
                    a: a_field.coords()?,
                    m: pl.m,
                    n: pl.n,
                    b_dims: pl.b_dims.clone(),
                    perm_b: operand_perms(&pl.plan).1,
                    b: b_field.f64()?,
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
            ChainSrc::Dense(DenseOpT::Value(t)) => WireIn::F(OpF::Inline(t.data().to_vec())),
            ChainSrc::Dense(DenseOpT::Handle(h)) => {
                let wkey = derive(&[h.key(), TAG_WHOLE]);
                if self.residency.lock().add_home(h.key(), wkey, rank) {
                    pending.push((
                        rank,
                        Request::Upload {
                            key: wkey,
                            data: h.dense()?.data().to_vec(),
                        },
                    ));
                }
                WireIn::F(OpF::Key(wkey))
            }
            ChainSrc::DenseC(DenseOpT::Value(t)) => WireIn::C(OpC::Inline(t.data().to_vec())),
            ChainSrc::DenseC(DenseOpT::Handle(h)) => {
                let wkey = derive(&[h.key(), TAG_WHOLE]);
                if self.residency.lock().add_home(h.key(), wkey, rank) {
                    pending.push((
                        rank,
                        Request::UploadC64 {
                            key: wkey,
                            data: h.dense_c64()?.data().to_vec(),
                        },
                    ));
                }
                WireIn::C(OpC::Key(wkey))
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
                    self.chain_move(cl, key, homes[*j], rank, planned[*j].result_kind(), pending)?;
                    homes[*j] = rank;
                }
                match planned[*j].result_kind() {
                    ResultKind::F64 => WireIn::F(OpF::Key(key)),
                    ResultKind::C64 => WireIn::C(OpC::Key(key)),
                }
            }
            ChainSrc::Res(h) => {
                let info = self.residency.lock().result(h.key).ok_or_else(|| {
                    Error::Runtime(format!("unknown or already-consumed result {h:?}"))
                })?;
                if info.home != rank {
                    self.chain_move(cl, h.key, info.home, rank, h.kind, pending)?;
                    self.residency.lock().move_result(h.key, rank);
                }
                match h.kind {
                    ResultKind::F64 => WireIn::F(OpF::Key(h.key)),
                    ResultKind::C64 => WireIn::C(OpC::Key(h.key)),
                }
            }
        })
    }

    /// Move a resident result from `from` to `to`: flush any pending
    /// superstep (whose tasks could produce or reference the buffer —
    /// conservative, but moves are rare on anchored chains), download the
    /// buffer off its old home, and re-upload (pinned) on the new one.
    /// This is the explicit redistribute superstep of the chain protocol
    /// — metered, never α–β-charged.
    fn chain_move(
        &self,
        cl: &mut Cluster,
        key: u64,
        from: usize,
        to: usize,
        kind: ResultKind,
        pending: &mut Vec<(usize, Request)>,
    ) -> Result<()> {
        if !pending.is_empty() {
            cl.call_all(std::mem::take(pending))?;
        }
        let reply = cl.call(from, &Request::Download { key })?;
        match (kind, reply) {
            (ResultKind::F64, Reply::F64s(data)) => {
                pending.push((to, Request::Upload { key, data }))
            }
            (ResultKind::C64, Reply::C64s(data)) => {
                pending.push((to, Request::UploadC64 { key, data }))
            }
            (_, other) => {
                return Err(Error::transport(format!(
                    "redistribute of {key:#x} returned {other:?}"
                )))
            }
        }
        Ok(())
    }

    /// The in-process leg of [`Executor::chain`]: run every step locally
    /// with the exact same kernels as the value paths, accumulating
    /// partials in submission order.
    fn chain_local(
        &self,
        steps: &[ChainStep],
        planned: &[PlannedStep],
        outs: &mut [Option<LocalResult>],
    ) -> Result<()> {
        for (i, (st, pl)) in steps.iter().zip(planned).enumerate() {
            enum Partial {
                F(DenseTensor<f64>),
                C(DenseTensor<Complex64>),
            }
            let partial = match pl.kind {
                StepKind::Dense => {
                    let ta = resolve_local_f64(&st.a, outs)?;
                    let tb = resolve_local_f64(&st.b, outs)?;
                    Partial::F(kernels::dense_contract(&pl.plan, ta, tb, self.pool())?)
                }
                StepKind::DenseC => {
                    let ta = resolve_local_c64(&st.a, outs)?;
                    let tb = resolve_local_c64(&st.b, outs)?;
                    Partial::C(kernels::dense_contract(&pl.plan, ta, tb, self.pool())?)
                }
                StepKind::Sd => {
                    let ChainSrc::Sparse(op) = &st.a else {
                        unreachable!("validated by plan_chain");
                    };
                    let tb = resolve_local_f64(&st.b, outs)?;
                    let (c, _flops) = kernels::sd_contract(
                        &pl.plan,
                        op.tensor()?,
                        tb,
                        self.pool(),
                        kernels::SPARSE_PAR_MIN_FLOPS,
                    )?;
                    Partial::F(c)
                }
            };
            if pl.base == i {
                outs[i] = Some(match partial {
                    Partial::F(c) => LocalResult::F64(Arc::new(c)),
                    Partial::C(c) => LocalResult::C64(Arc::new(c)),
                });
            } else {
                match (partial, &mut outs[pl.base]) {
                    (Partial::F(c), Some(LocalResult::F64(acc))) => {
                        Arc::make_mut(acc).axpy(1.0, &c)?
                    }
                    (Partial::C(c), Some(LocalResult::C64(acc))) => {
                        Arc::make_mut(acc).axpy(Complex64::new(1.0, 0.0), &c)?
                    }
                    _ => {
                        return Err(Error::Runtime(
                            "accumulate target missing or mismatched".into(),
                        ))
                    }
                }
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
        let words_el = if matches!(pl.kind, StepKind::DenseC) {
            2
        } else {
            1
        };
        Ok(match src {
            ChainSrc::Dense(op) => self.op_state(
                op.handle(),
                op.handle()
                    .map(|h| derive(&[h.key(), TAG_WHOLE]))
                    .unwrap_or_default(),
                words_el * elems,
            ),
            ChainSrc::DenseC(op) => self.op_state(
                op.handle(),
                op.handle()
                    .map(|h| derive(&[h.key(), TAG_WHOLE]))
                    .unwrap_or_default(),
                words_el * elems,
            ),
            ChainSrc::Sparse(op) => {
                let words = 2 * op.tensor()?.nnz();
                self.op_state(
                    op.handle(),
                    op.handle()
                        .map(|h| {
                            derive(&[
                                h.key(),
                                TAG_SD_A,
                                hseq(pl.plan.free_a_positions()),
                                hseq(pl.plan.ctr_a_positions()),
                                pl.n as u64,
                            ])
                        })
                        .unwrap_or_default(),
                    words,
                )
            }
            ChainSrc::Prev(_) | ChainSrc::Res(_) => OpCharge::Hit,
        })
    }

    /// Download a resident `f64` result — the only value-returning exit
    /// of a chain. Consumes the handle: the buffer leaves (unpins from)
    /// its home rank's store and the driver forgets it.
    pub fn download(&self, h: ResultHandle) -> Result<DenseTensor<f64>> {
        Ok(self
            .download_many(vec![h])?
            .pop()
            .expect("one handle in, one tensor out"))
    }

    /// Download many resident `f64` results in one superstep.
    pub fn download_many(&self, hs: Vec<ResultHandle>) -> Result<Vec<DenseTensor<f64>>> {
        if let Some(h) = hs.iter().find(|h| h.kind != ResultKind::F64) {
            return Err(Error::Runtime(format!("f64 download of {h:?}")));
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
                out.push(DenseTensor::from_vec(h.dims.clone(), expect_f64s(reply)?)?);
            }
            Ok(out)
        } else {
            let mut res = self.residency.lock();
            hs.into_iter()
                .map(|mut h| {
                    res.forget_result(h.key);
                    match h.local.take() {
                        Some(LocalResult::F64(t)) => {
                            Ok(Arc::try_unwrap(t).unwrap_or_else(|a| (*a).clone()))
                        }
                        _ => Err(Error::Runtime(
                            "result handle has no in-process payload".into(),
                        )),
                    }
                })
                .collect()
        }
    }

    /// Download a resident [`Complex64`] result (consuming the handle).
    pub fn download_c64(&self, mut h: ResultHandle) -> Result<DenseTensor<Complex64>> {
        if h.kind != ResultKind::C64 {
            return Err(Error::Runtime(format!("Complex64 download of {h:?}")));
        }
        if let Some(cl) = &self.cluster {
            let info = self.residency.lock().result(h.key).ok_or_else(|| {
                Error::Runtime(format!("unknown or already-consumed result {h:?}"))
            })?;
            let reply = cl
                .lock()
                .call(info.home, &Request::Download { key: h.key })?;
            self.residency.lock().forget_result(h.key);
            match reply {
                Reply::C64s(v) => Ok(DenseTensor::from_vec(h.dims.clone(), v)?),
                other => Err(Error::transport(format!(
                    "expected Complex64 payload, got {other:?}"
                ))),
            }
        } else {
            self.residency.lock().forget_result(h.key);
            match h.local.take() {
                Some(LocalResult::C64(t)) => {
                    Ok(Arc::try_unwrap(t).unwrap_or_else(|a| (*a).clone()))
                }
                _ => Err(Error::Runtime(
                    "result handle has no in-process payload".into(),
                )),
            }
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

    /// Contract many independent operand pairs with one spec — the
    /// block-pair fan-out of the list algorithm.
    ///
    /// In [`ExecMode::Threaded`] every pair runs as its own pool job
    /// (each internally sequential: pair-level parallelism replaces
    /// row-level parallelism, so per-element accumulation order is
    /// unchanged). Results come back in submission order and costs are
    /// charged in that same order on the caller thread, keeping both the
    /// numerics and the cost counters bitwise-deterministic.
    pub fn contract_batch(
        &self,
        spec: &str,
        pairs: &[(&DenseTensor<f64>, &DenseTensor<f64>)],
    ) -> Result<Vec<DenseTensor<f64>>> {
        let ops: Vec<(DenseOp, DenseOp)> = pairs
            .iter()
            .map(|&(a, b)| (DenseOp::Value(a), DenseOp::Value(b)))
            .collect();
        self.contract_batch_h(spec, &ops)
    }

    /// [`Executor::contract_batch`] with value-or-handle operands. On the
    /// multi-process backend a handle-bearing pair is routed to the rank
    /// already holding one of its operands (deterministically; round-robin
    /// otherwise), and whole-tensor uploads a miss requires ride in the
    /// same superstep as the pair tasks.
    pub fn contract_batch_h(
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
            let sa = self.op_state(
                a.handle(),
                a.handle()
                    .map(|h| derive(&[h.key(), TAG_WHOLE]))
                    .unwrap_or_default(),
                m * k,
            );
            let sb = self.op_state(
                b.handle(),
                b.handle()
                    .map(|h| derive(&[h.key(), TAG_WHOLE]))
                    .unwrap_or_default(),
                k * n,
            );
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
            let mut is_pair: Vec<bool> = Vec::new();
            {
                let mut res = self.residency.lock();
                for (a, b) in pairs {
                    let (at, bt) = (a.tensor()?, b.tensor()?);
                    let akey = a.handle().map(|h| (h, derive(&[h.key(), TAG_WHOLE])));
                    let bkey = b.handle().map(|h| (h, derive(&[h.key(), TAG_WHOLE])));
                    // the B operand's home wins: in the block-pair fan-out
                    // B is the short-lived operand (a Davidson vector
                    // block), so following it keeps every transient block
                    // on one rank while the long-lived A operands spread
                    // to at most one extra home per pair rank
                    let rank = placement.place([
                        bkey.and_then(|(_, w)| res.homes(w).and_then(|r| r.first().copied())),
                        akey.and_then(|(_, w)| res.homes(w).and_then(|r| r.first().copied())),
                    ]);
                    let field = |op: Option<(&OpHandle, u64)>,
                                 t: &DenseTensor<f64>,
                                 res: &mut Residency,
                                 reqs: &mut Vec<(usize, Request)>,
                                 is_pair: &mut Vec<bool>|
                     -> OpF {
                        match op {
                            None => OpF::Inline(t.data().to_vec()),
                            Some((h, wkey)) => {
                                if res.add_home(h.key(), wkey, rank) {
                                    reqs.push((
                                        rank,
                                        Request::Upload {
                                            key: wkey,
                                            data: t.data().to_vec(),
                                        },
                                    ));
                                    is_pair.push(false);
                                }
                                OpF::Key(wkey)
                            }
                        }
                    };
                    let a_field = field(akey, at, &mut res, &mut reqs, &mut is_pair);
                    let b_field = field(bkey, bt, &mut res, &mut reqs, &mut is_pair);
                    reqs.push((
                        rank,
                        Request::DensePair {
                            spec: spec.to_string(),
                            a_dims: at.dims().to_vec(),
                            a: a_field,
                            b_dims: bt.dims().to_vec(),
                            b: b_field,
                        },
                    ));
                    is_pair.push(true);
                }
            }
            let replies = cl.call_all(reqs)?;
            drop(cl);
            let mut out = Vec::with_capacity(pairs.len());
            let mut pair_replies = replies
                .into_iter()
                .zip(is_pair)
                .filter_map(|(rep, keep)| keep.then_some(rep));
            for (pair, &chg) in pairs.iter().zip(&charges) {
                let reply = pair_replies
                    .next()
                    .ok_or_else(|| Error::transport("missing pair reply in batch"))?;
                let (at, bt) = (pair.0.tensor()?, pair.1.tensor()?);
                let dims = plan.output_dims(at.dims(), bt.dims())?;
                out.push(DenseTensor::from_vec(dims, expect_f64s(reply)?)?);
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
    /// algorithm's kernel): flattened-sparse `a` against densified `b`.
    pub fn contract_sd(
        &self,
        spec: &str,
        a: &SparseTensor<f64>,
        b: &DenseTensor<f64>,
    ) -> Result<DenseTensor<f64>> {
        self.contract_sd_h(spec, a.into(), b.into())
    }

    /// Sparse × dense contraction with value-or-handle operands. A handle
    /// on `a` keeps its volume-balanced coordinate buckets resident per
    /// rank; a handle on `b` keeps the permuted dense matrix resident.
    pub fn contract_sd_h(&self, spec: &str, a: SparseOp, b: DenseOp) -> Result<DenseTensor<f64>> {
        let plan = ContractPlan::parse(spec)?;
        let (at, bt) = (a.tensor()?, b.tensor()?);
        let (c, flops) = if let Some(cl) = &self.cluster {
            self.sd_over_cluster(&mut cl.lock(), &plan, &a, &b)?
        } else {
            kernels::sd_contract(&plan, at, bt, self.pool(), kernels::SPARSE_PAR_MIN_FLOPS)?
        };
        let (m, k, n) = kernels::fused_dims(&plan, at.dims(), bt.dims());
        let mut perm_b: Vec<usize> = plan.ctr_b_positions().to_vec();
        perm_b.extend_from_slice(plan.free_b_positions());
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
            a.handle()
                .map(|h| {
                    derive(&[
                        h.key(),
                        TAG_SD_A,
                        hseq(plan.free_a_positions()),
                        hseq(plan.ctr_a_positions()),
                        n as u64,
                    ])
                })
                .unwrap_or_default(),
            2 * at.nnz(),
        );
        let sb = self.op_state(
            b.handle(),
            b.handle()
                .map(|h| derive(&[h.key(), TAG_MAT_B, hseq(&perm_b)]))
                .unwrap_or_default(),
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
        let mut perm_b: Vec<usize> = plan.ctr_b_positions().to_vec();
        perm_b.extend_from_slice(plan.free_b_positions());

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
            None => OpF::Inline(bt.permute(&perm_b)?.into_data()),
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
                        Ok(Request::Upload { key: wkey, data })
                    },
                )?;
                OpF::Key(wkey)
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
            c.extend_from_slice(&expect_f64s(reply)?);
        }
        let c = DenseTensor::from_vec(kernels::natural_dims(plan, at.dims(), bt.dims()), c)?;
        Ok((c.permute(plan.output_permutation())?, flops))
    }

    /// Distributed sparse × sparse contraction with optional pre-computed
    /// output sparsity `mask` (output linear offsets that may be nonzero).
    pub fn contract_ss(
        &self,
        spec: &str,
        a: &SparseTensor<f64>,
        b: &SparseTensor<f64>,
        mask: Option<&[u64]>,
    ) -> Result<SparseTensor<f64>> {
        self.contract_ss_h(spec, a.into(), b.into(), mask)
    }

    /// Sparse × sparse contraction with value-or-handle operands. A
    /// handle on `a` keeps its row buckets resident (bucketed by stored
    /// entries only, so the boundaries don't depend on `b`); a handle on
    /// `b` keeps the grouped contraction table resident.
    pub fn contract_ss_h(
        &self,
        spec: &str,
        a: SparseOp,
        b: SparseOp,
        mask: Option<&[u64]>,
    ) -> Result<SparseTensor<f64>> {
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
            a.handle()
                .map(|h| {
                    derive(&[
                        h.key(),
                        TAG_SS_A,
                        hseq(plan.free_a_positions()),
                        hseq(plan.ctr_a_positions()),
                    ])
                })
                .unwrap_or_default(),
            2 * at.nnz(),
        );
        let sb = self.op_state(
            b.handle(),
            b.handle()
                .map(|h| {
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
                })
                .unwrap_or_default(),
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
                // `contract_ss_h`)
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

    /// Distributed truncated SVD of a matrix (the ScaLAPACK `pdgesvd`
    /// stand-in used under the block SVD). On the multi-process backend
    /// the factorization executes on a worker process (same code, same
    /// bits). Tall panels (see [`tall_panel`]) actually route through the
    /// [`crate::tsqr`] tree — QR the panel, SVD the small `R` — instead of
    /// only charging its cost model; results then match the direct path
    /// up to the usual per-column sign convention.
    pub fn svd_trunc(&self, a: &DenseTensor<f64>, spec: TruncSpec) -> Result<TruncatedSvd> {
        if tall_panel(a.dims()) {
            return self.svd_tall(a, spec);
        }
        let out = match &self.cluster {
            Some(cl) if a.order() == 2 => decode_svd(
                cl.lock()
                    .call(0, &svd_request(a, OpF::Inline(a.data().to_vec()), spec))?,
            )?,
            _ => tt_linalg::svd_trunc(a, spec)?,
        };
        self.charge_factorization(a.dims(), 14.0);
        Ok(out)
    }

    /// Distributed thin QR. Tall panels route through the [`crate::tsqr`]
    /// tree (slab QRs on the workers, `R`-merge on the driver — the
    /// communication-avoiding factorization the cost model always
    /// assumed); everything else keeps the direct `qr_thin` path. On the
    /// multi-process backend the direct factorization executes on a
    /// worker.
    pub fn qr(&self, a: &DenseTensor<f64>) -> Result<(DenseTensor<f64>, DenseTensor<f64>)> {
        if tall_panel(a.dims()) {
            return self.qr_tall(a);
        }
        let out = match &self.cluster {
            Some(cl) if a.order() == 2 => decode_qr(
                cl.lock()
                    .call(0, &qr_request(a, OpF::Inline(a.data().to_vec())))?,
            )?,
            _ => tt_linalg::qr_thin(a)?,
        };
        self.charge_factorization(a.dims(), 4.0);
        Ok(out)
    }

    /// Tall-panel QR via the TSQR tree. The merge tree's real p2p charges
    /// land on top of the standard factorization charge (the tree is the
    /// factorization the cost model priced; running it makes the charge
    /// honest), identically on every backend.
    fn qr_tall(&self, a: &DenseTensor<f64>) -> Result<(DenseTensor<f64>, DenseTensor<f64>)> {
        let comm = self.comm();
        let out = match self.with_cluster(|cl| crate::tsqr::tsqr_on(a, &comm, cl)) {
            Some(r) => r?,
            None => crate::tsqr::tsqr(a, &comm)?,
        };
        self.charge_factorization(a.dims(), 4.0);
        Ok(out)
    }

    /// Tall-panel truncated SVD: TSQR the panel, SVD the `n × n` `R` on
    /// the driver, and recover `U = Q · U_R`. Singular values match the
    /// direct factorization to rounding; vectors up to sign.
    fn svd_tall(&self, a: &DenseTensor<f64>, spec: TruncSpec) -> Result<TruncatedSvd> {
        let comm = self.comm();
        let factors = match self.with_cluster(|cl| crate::tsqr::tsqr_on(a, &comm, cl)) {
            Some(out) => out?,
            None => crate::tsqr::tsqr(a, &comm)?,
        };
        self.svd_from_tsqr(a.dims(), factors, spec)
    }

    /// Recover a truncated SVD from a panel's TSQR factors: SVD the small
    /// `R` on the driver, `U = Q · U_R`, and charge the standard
    /// factorization cost. Shared by the value and handle tall paths.
    fn svd_from_tsqr(
        &self,
        dims: &[usize],
        (q, r): (DenseTensor<f64>, DenseTensor<f64>),
        spec: TruncSpec,
    ) -> Result<TruncatedSvd> {
        let t = tt_linalg::svd_trunc(&r, spec)?;
        let u = tt_tensor::gemm_f64(&q, &t.u)?;
        self.charge_factorization(dims, 14.0);
        Ok(TruncatedSvd {
            u,
            s: t.s,
            vt: t.vt,
            trunc_err: t.trunc_err,
            n_discarded: t.n_discarded,
        })
    }

    /// Truncated SVDs of many independent matrices (the sector groups of a
    /// block SVD). In [`ExecMode::Threaded`] the factorizations fan out
    /// over the pool; on the multi-process backend each matrix ships to a
    /// rank round-robin. Results return in submission order and costs are
    /// charged in that order, so totals match the serial loop exactly.
    pub fn svd_trunc_batch(
        &self,
        mats: Vec<DenseTensor<f64>>,
        spec: TruncSpec,
    ) -> Result<Vec<TruncatedSvd>> {
        // tall panels must route exactly like the singles (batch ≡ loop of
        // singles is a tested invariant), so a batch containing one falls
        // back to the serial loop
        if mats.iter().any(|m| tall_panel(m.dims())) {
            return mats.iter().map(|m| self.svd_trunc(m, spec)).collect();
        }
        if let Some(cl) = &self.cluster {
            if mats.iter().all(|m| m.order() == 2) {
                let mut cl = cl.lock();
                let p = cl.ranks();
                let dims: Vec<Vec<usize>> = mats.iter().map(|m| m.dims().to_vec()).collect();
                let reqs: Vec<(usize, Request)> = mats
                    .iter()
                    .enumerate()
                    .map(|(i, m)| (i % p, svd_request(m, OpF::Inline(m.data().to_vec()), spec)))
                    .collect();
                let replies = cl.call_all(reqs)?;
                let mut out = Vec::with_capacity(replies.len());
                for (reply, d) in replies.into_iter().zip(dims) {
                    out.push(decode_svd(reply)?);
                    self.charge_factorization(&d, 14.0);
                }
                return Ok(out);
            }
        }
        self.factorize_batch(mats, 14.0, move |m| tt_linalg::svd_trunc(m, spec))
    }

    /// Truncated SVDs of resident matrices: after the first batch against
    /// the same handles, zero operand bytes ship. Placement is
    /// residency-aware (the factorization runs where the matrix lives).
    pub fn svd_trunc_batch_h(
        &self,
        mats: &[&OpHandle],
        spec: TruncSpec,
    ) -> Result<Vec<TruncatedSvd>> {
        if mats
            .iter()
            .any(|h| h.dense().map(|t| tall_panel(t.dims())) == Ok(true))
        {
            return mats
                .iter()
                .map(|h| {
                    let t = h.dense()?;
                    if tall_panel(t.dims()) {
                        self.svd_tall_h(h, spec)
                    } else {
                        Ok(self
                            .factorize_batch_h(
                                &[*h],
                                14.0,
                                |h, field| Ok(svd_request(h.dense()?, field, spec)),
                                decode_svd,
                                move |m| tt_linalg::svd_trunc(m, spec),
                            )?
                            .pop()
                            .expect("one matrix, one factorization"))
                    }
                })
                .collect();
        }
        self.factorize_batch_h(
            mats,
            14.0,
            |h, field| Ok(svd_request(h.dense()?, field, spec)),
            decode_svd,
            move |m| tt_linalg::svd_trunc(m, spec),
        )
    }

    /// Tall-panel truncated SVD of a *resident* matrix: TSQR over the
    /// handle's pinned row slabs ([`crate::tsqr_on_h`]), then the shared
    /// small-R recovery.
    fn svd_tall_h(&self, h: &OpHandle, spec: TruncSpec) -> Result<TruncatedSvd> {
        let comm = self.comm();
        let factors = crate::tsqr::tsqr_on_h(self, h, &comm)?;
        self.svd_from_tsqr(h.dense()?.dims(), factors, spec)
    }

    /// Tall-panel thin QR of a *resident* matrix via its pinned row slabs.
    fn qr_tall_h(&self, h: &OpHandle) -> Result<(DenseTensor<f64>, DenseTensor<f64>)> {
        let comm = self.comm();
        let out = crate::tsqr::tsqr_on_h(self, h, &comm)?;
        self.charge_factorization(h.dense()?.dims(), 4.0);
        Ok(out)
    }

    /// Thin QRs of many independent matrices (the sector groups of a block
    /// QR), pool-parallel in [`ExecMode::Threaded`] and rank-round-robin
    /// on the multi-process backend, with in-order results and cost
    /// charging.
    pub fn qr_batch(
        &self,
        mats: Vec<DenseTensor<f64>>,
    ) -> Result<Vec<(DenseTensor<f64>, DenseTensor<f64>)>> {
        if mats.iter().any(|m| tall_panel(m.dims())) {
            return mats.iter().map(|m| self.qr(m)).collect();
        }
        if let Some(cl) = &self.cluster {
            if mats.iter().all(|m| m.order() == 2) {
                let mut cl = cl.lock();
                let p = cl.ranks();
                let dims: Vec<Vec<usize>> = mats.iter().map(|m| m.dims().to_vec()).collect();
                let reqs: Vec<(usize, Request)> = mats
                    .iter()
                    .enumerate()
                    .map(|(i, m)| (i % p, qr_request(m, OpF::Inline(m.data().to_vec()))))
                    .collect();
                let replies = cl.call_all(reqs)?;
                let mut out = Vec::with_capacity(replies.len());
                for (reply, d) in replies.into_iter().zip(dims) {
                    out.push(decode_qr(reply)?);
                    self.charge_factorization(&d, 4.0);
                }
                return Ok(out);
            }
        }
        self.factorize_batch(mats, 4.0, tt_linalg::qr_thin)
    }

    /// Thin QRs of resident matrices (see [`Executor::svd_trunc_batch_h`]).
    pub fn qr_batch_h(
        &self,
        mats: &[&OpHandle],
    ) -> Result<Vec<(DenseTensor<f64>, DenseTensor<f64>)>> {
        if mats
            .iter()
            .any(|h| h.dense().map(|t| tall_panel(t.dims())) == Ok(true))
        {
            return mats
                .iter()
                .map(|h| {
                    let t = h.dense()?;
                    if tall_panel(t.dims()) {
                        self.qr_tall_h(h)
                    } else {
                        Ok(self
                            .factorize_batch_h(
                                &[*h],
                                4.0,
                                |h, field| Ok(qr_request(h.dense()?, field)),
                                decode_qr,
                                tt_linalg::qr_thin,
                            )?
                            .pop()
                            .expect("one matrix, one factorization"))
                    }
                })
                .collect();
        }
        self.factorize_batch_h(
            mats,
            4.0,
            |h, field| Ok(qr_request(h.dense()?, field)),
            decode_qr,
            tt_linalg::qr_thin,
        )
    }

    /// Shared driver for the handle factorization batches: route each
    /// matrix to its resident rank (round-robin on first use, uploading
    /// it in the same superstep), decode replies in submission order, and
    /// charge the one-time uploads plus each factorization in that order.
    fn factorize_batch_h<T: Send + 'static>(
        &self,
        mats: &[&OpHandle],
        flop_coeff: f64,
        make_req: impl Fn(&OpHandle, OpF) -> Result<Request>,
        decode: impl Fn(Reply) -> Result<T>,
        local: impl Fn(&DenseTensor<f64>) -> tt_linalg::Result<T> + Send + Sync + Copy + 'static,
    ) -> Result<Vec<T>> {
        let mut out = Vec::with_capacity(mats.len());
        if let Some(cl) = &self.cluster {
            if mats
                .iter()
                .all(|h| h.dense().map(|t| t.order() == 2) == Ok(true))
            {
                let mut cl = cl.lock();
                let mut placement = Placement::new(cl.ranks());
                let mut reqs: Vec<(usize, Request)> = Vec::new();
                let mut is_task: Vec<bool> = Vec::new();
                {
                    let mut res = self.residency.lock();
                    for h in mats {
                        let wkey = derive(&[h.key(), TAG_WHOLE]);
                        let rank =
                            placement.place([res.homes(wkey).and_then(|r| r.first().copied())]);
                        if res.add_home(h.key(), wkey, rank) {
                            reqs.push((
                                rank,
                                Request::Upload {
                                    key: wkey,
                                    data: h.dense()?.data().to_vec(),
                                },
                            ));
                            is_task.push(false);
                        }
                        reqs.push((rank, make_req(h, OpF::Key(wkey))?));
                        is_task.push(true);
                    }
                }
                let replies = cl.call_all(reqs)?;
                drop(cl);
                let mut task_replies = replies
                    .into_iter()
                    .zip(is_task)
                    .filter_map(|(rep, keep)| keep.then_some(rep));
                for h in mats {
                    let reply = task_replies
                        .next()
                        .ok_or_else(|| Error::transport("missing factorization reply in batch"))?;
                    out.push(decode(reply)?);
                    self.charge_factorization_h(h, flop_coeff)?;
                }
                return Ok(out);
            }
        }
        // in-process: handles are plain Arcs — factor the payloads with
        // the local routine, pool-parallel in Threaded mode like the
        // value-path batches, charging per matrix in submission order
        // exactly like the cluster path (same float accumulation order
        // ⇒ bitwise-equal counters across backends)
        let results: Vec<tt_linalg::Result<T>> = match self.pool() {
            Some(pool) if mats.len() > 1 => {
                let jobs = mats
                    .iter()
                    .map(|h| {
                        let m = h.dense()?.clone();
                        let job: Box<dyn FnOnce() -> tt_linalg::Result<T> + Send> =
                            Box::new(move || local(&m));
                        Ok(job)
                    })
                    .collect::<Result<Vec<_>>>()?;
                pool.run(jobs)
            }
            _ => mats
                .iter()
                .map(|h| Ok(local(h.dense()?)))
                .collect::<Result<Vec<_>>>()?,
        };
        for (r, h) in results.into_iter().zip(mats) {
            out.push(r?);
            self.charge_factorization_h(h, flop_coeff)?;
        }
        Ok(out)
    }

    /// Charge one handle factorization: a one-time whole-tensor upload on
    /// first use, then the standard factorization cost.
    fn charge_factorization_h(&self, h: &OpHandle, flop_coeff: f64) -> Result<()> {
        let lkey = derive(&[h.key(), TAG_WHOLE]);
        if self.observe_logical(h.key(), lkey) && self.ranks > 1 {
            cost::charge(&self.tracker, |tr| {
                tr.charge_superstep(8 * h.words() as u64);
            });
        }
        self.charge_factorization(h.dense()?.dims(), flop_coeff);
        Ok(())
    }

    /// Shared driver for the factorization batches: run `f` over every
    /// matrix (on the pool when threaded), then charge each factorization
    /// in submission order on the caller thread.
    fn factorize_batch<T: Send + 'static>(
        &self,
        mats: Vec<DenseTensor<f64>>,
        flop_coeff: f64,
        f: impl Fn(&DenseTensor<f64>) -> tt_linalg::Result<T> + Send + Sync + Copy + 'static,
    ) -> Result<Vec<T>> {
        let dims: Vec<Vec<usize>> = mats.iter().map(|m| m.dims().to_vec()).collect();
        let results: Vec<tt_linalg::Result<T>> = match self.pool() {
            Some(pool) if mats.len() > 1 => {
                let jobs = mats
                    .into_iter()
                    .map(|m| {
                        let job: Box<dyn FnOnce() -> tt_linalg::Result<T> + Send> =
                            Box::new(move || f(&m));
                        job
                    })
                    .collect();
                pool.run(jobs)
            }
            _ => mats.iter().map(f).collect(),
        };
        let mut out = Vec::with_capacity(results.len());
        for (r, d) in results.into_iter().zip(dims) {
            out.push(r?);
            self.charge_factorization(&d, flop_coeff);
        }
        Ok(out)
    }

    /// Charge an `m×n` dense factorization costing `c · max(m,n) · min² `
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

/// TTGT operand permutations of a plan: `A` to `(free, contracted)` and
/// `B` to `(contracted, free)` order.
fn operand_perms(plan: &ContractPlan) -> (Vec<usize>, Vec<usize>) {
    let mut perm_a: Vec<usize> = plan.free_a_positions().to_vec();
    perm_a.extend_from_slice(plan.ctr_a_positions());
    let mut perm_b: Vec<usize> = plan.ctr_b_positions().to_vec();
    perm_b.extend_from_slice(plan.free_b_positions());
    (perm_a, perm_b)
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

/// Dims and scalar family of a chain-step operand at planning time.
fn src_info(src: &ChainSrc, planned: &[PlannedStep]) -> Result<(Vec<usize>, SrcKind)> {
    Ok(match src {
        ChainSrc::Dense(op) => (op.tensor()?.dims().to_vec(), SrcKind::F64),
        ChainSrc::DenseC(op) => (op.tensor()?.dims().to_vec(), SrcKind::C64),
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
            let kind = match pl.result_kind() {
                ResultKind::F64 => SrcKind::F64,
                ResultKind::C64 => SrcKind::C64,
            };
            (pl.out_dims.clone(), kind)
        }
        ChainSrc::Res(h) => {
            let kind = match h.kind {
                ResultKind::F64 => SrcKind::F64,
                ResultKind::C64 => SrcKind::C64,
            };
            (h.dims.clone(), kind)
        }
    })
}

/// Provenance component of a chain-step operand (content key, result key,
/// or a constant for inline values).
fn src_provenance(src: &ChainSrc, planned: &[PlannedStep]) -> u64 {
    match src {
        ChainSrc::Dense(op) => op.handle().map(OpHandle::key).unwrap_or(1),
        ChainSrc::DenseC(op) => op.handle().map(OpHandle::key).unwrap_or(1),
        ChainSrc::Sparse(op) => op.handle().map(OpHandle::key).unwrap_or(1),
        ChainSrc::Prev(j) => planned[*j].key,
        ChainSrc::Res(h) => h.key,
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
    let whole_handle_weights = |h: &OpHandle, weighted: &mut Vec<(usize, u64)>| {
        let wkey = derive(&[h.key(), TAG_WHOLE]);
        if let Some(ranks) = res.homes(wkey) {
            weighted.extend(ranks.iter().map(|&r| (r, h.words() as u64)));
        }
    };
    match src {
        ChainSrc::Dense(op) => {
            if let Some(h) = op.handle() {
                whole_handle_weights(h, weighted);
            }
        }
        ChainSrc::DenseC(op) => {
            if let Some(h) = op.handle() {
                whole_handle_weights(h, weighted);
            }
        }
        ChainSrc::Sparse(op) => {
            if let Some(h) = op.handle() {
                let wkey = sd_whole_key(h, &pl.plan, pl.n);
                if let Some(ranks) = res.homes(wkey) {
                    weighted.extend(ranks.iter().map(|&r| (r, h.words() as u64)));
                }
            }
        }
        ChainSrc::Prev(j) => weighted.push((homes[*j], planned[*j].words_c as u64)),
        ChainSrc::Res(h) => {
            if let Some(info) = res.result(h.key) {
                weighted.push((info.home, info.words as u64));
            }
        }
    }
}

/// Resolve a chain-step operand to its local `f64` tensor (in-process
/// execution).
fn resolve_local_f64<'x>(
    src: &'x ChainSrc<'x>,
    outs: &'x [Option<LocalResult>],
) -> Result<&'x DenseTensor<f64>> {
    match src {
        ChainSrc::Dense(op) => op.tensor(),
        ChainSrc::Prev(j) => match &outs[*j] {
            Some(LocalResult::F64(t)) => Ok(t),
            _ => Err(Error::Runtime("chain step operand kind mismatch".into())),
        },
        ChainSrc::Res(h) => match &h.local {
            Some(LocalResult::F64(t)) => Ok(t),
            _ => Err(Error::Runtime(
                "result handle has no in-process f64 payload".into(),
            )),
        },
        _ => Err(Error::Runtime("chain step operand kind mismatch".into())),
    }
}

/// Resolve a chain-step operand to its local [`Complex64`] tensor.
fn resolve_local_c64<'x>(
    src: &'x ChainSrc<'x>,
    outs: &'x [Option<LocalResult>],
) -> Result<&'x DenseTensor<Complex64>> {
    match src {
        ChainSrc::DenseC(op) => op.tensor(),
        ChainSrc::Prev(j) => match &outs[*j] {
            Some(LocalResult::C64(t)) => Ok(t),
            _ => Err(Error::Runtime("chain step operand kind mismatch".into())),
        },
        ChainSrc::Res(h) => match &h.local {
            Some(LocalResult::C64(t)) => Ok(t),
            _ => Err(Error::Runtime(
                "result handle has no in-process Complex64 payload".into(),
            )),
        },
        _ => Err(Error::Runtime("chain step operand kind mismatch".into())),
    }
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
                    reqs.push((i % p, T::upload_req(wkey, mat[r0 * k..r1 * k].to_vec())));
                }
                keys.push(wkey);
            }
            Ok(AFields::Keys(keys))
        }
    }
}

/// Unwrap a row-panel reply.
fn expect_f64s(reply: Reply) -> Result<Vec<f64>> {
    match reply {
        Reply::F64s(v) => Ok(v),
        other => Err(Error::transport(format!(
            "expected f64 payload, got {other:?}"
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

/// Build the worker request for a truncated SVD of matrix `a`.
fn svd_request(a: &DenseTensor<f64>, field: OpF, spec: TruncSpec) -> Request {
    Request::SvdTrunc {
        rows: a.dims()[0],
        cols: a.dims()[1],
        a: field,
        max_rank: spec.max_rank as u64,
        cutoff: spec.cutoff,
        min_keep: spec.min_keep as u64,
    }
}

/// Build the worker request for a thin QR of matrix `a`.
fn qr_request(a: &DenseTensor<f64>, field: OpF) -> Request {
    Request::QrThin {
        rows: a.dims()[0],
        cols: a.dims()[1],
        a: field,
    }
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
        let pair_refs: Vec<(&DenseTensor<f64>, &DenseTensor<f64>)> =
            pairs.iter().map(|(a, b)| (a, b)).collect();
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
            .contract_batch("isj,jtk->istk", &[(&bad, &ok)])
            .is_err());
        // mismatched contracted dims too
        let a = DenseTensor::<f64>::zeros([2, 2, 5]);
        assert!(exec.contract_batch("isj,jtk->istk", &[(&a, &ok)]).is_err());
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
            let svds = batch.svd_trunc_batch(mats.clone(), spec).unwrap();
            for (s, r) in svds.iter().zip(&svds_ref) {
                assert_eq!(s.s, r.s, "{mode:?}");
                assert_eq!(s.u.data(), r.u.data(), "{mode:?}");
                assert_eq!(s.vt.data(), r.vt.data(), "{mode:?}");
            }
            let qrs = batch.qr_batch(mats.clone()).unwrap();
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
            let c_han = han
                .contract_h("isj,jtk->istk", (&ha).into(), (&hb).into())
                .unwrap();
            assert_eq!(c_val.data(), c_han.data(), "{mode:?} dense");

            let d_val = val.contract_sd("isj,jtk->istk", &sa, &b).unwrap();
            let d_han = han
                .contract_sd_h("isj,jtk->istk", (&hsa).into(), (&hb).into())
                .unwrap();
            assert_eq!(d_val.data(), d_han.data(), "{mode:?} sd");

            let s_val = val.contract_ss("isj,jtk->istk", &sa, &sb, None).unwrap();
            let s_han = han
                .contract_ss_h("isj,jtk->istk", (&hsa).into(), (&hsb).into(), None)
                .unwrap();
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
        exec.contract_h("isj,jtk->istk", (&a).into(), (&hb).into())
            .unwrap();
        let after_first = exec.tracker().lock().bytes_critical;
        exec.contract_h("isj,jtk->istk", (&a).into(), (&hb).into())
            .unwrap();
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
        assert!(exec
            .contract_sd_h("isj,jtk->istk", (&h).into(), (&a).into())
            .is_err());
        exec.free(&h).unwrap();
    }

    #[test]
    fn contract_c64_matches_einsum_and_handles_hit() {
        let (ar, br) = operands(63);
        let a = ar.to_complex();
        let b = br.to_complex();
        let exec = Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Sequential);
        let reference = tt_tensor::einsum("isj,jtk->istk", &a, &b).unwrap();
        let c = exec
            .contract_c64("isj,jtk->istk", (&a).into(), (&b).into())
            .unwrap();
        assert_eq!(c.data(), reference.data());
        let ha = exec.upload_c64(&a);
        let hb = exec.upload_c64(&b);
        let ch = exec
            .contract_c64("isj,jtk->istk", (&ha).into(), (&hb).into())
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
        let pair_refs: Vec<(&DenseTensor<f64>, &DenseTensor<f64>)> =
            pairs.iter().map(|(a, b)| (a, b)).collect();
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
        let svd_seq = seq.svd_trunc_batch(mats.clone(), spec).unwrap();
        let svd_mp = mp.svd_trunc_batch(mats.clone(), spec).unwrap();
        for (s, m) in svd_seq.iter().zip(&svd_mp) {
            assert_eq!(s.s, m.s);
            assert_eq!(s.u.data(), m.u.data());
            assert_eq!(s.vt.data(), m.vt.data());
        }
        let qr_seq = seq.qr_batch(mats.clone()).unwrap();
        let qr_mp = mp.qr_batch(mats).unwrap();
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
        let c1 = mp
            .contract_h("isj,jtk->istk", (&ha).into(), (&hb).into())
            .unwrap();
        let first = mp.operand_bytes();
        let c2 = mp
            .contract_h("isj,jtk->istk", (&ha).into(), (&hb).into())
            .unwrap();
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
        // worker stores report pinned residency; free unpins everywhere
        let pinned: u64 = mp
            .worker_cache_stats()
            .unwrap()
            .iter()
            .map(|&(_, _, p)| p)
            .sum();
        assert!(pinned > 0);
        mp.free(&ha).unwrap();
        mp.free(&hb).unwrap();
        let pinned_after: u64 = mp
            .worker_cache_stats()
            .unwrap()
            .iter()
            .map(|&(_, _, p)| p)
            .sum();
        assert_eq!(pinned_after, 0);
    }

    #[cfg(unix)]
    #[test]
    fn multi_process_resident_footprint_stays_bounded() {
        // a long run of upload → contract → free cycles must not grow the
        // worker stores beyond the configured cap
        let spawn = SpawnSpec::SelfExec(vec!["spawned_worker_entry".into()]);
        let mp = Executor::multi_process(Machine::local(), 1, 2, spawn).unwrap();
        let cap = 64 * 1024;
        mp.set_worker_cache_cap(cap).unwrap();
        let mut rng = StdRng::seed_from_u64(65);
        for _ in 0..12 {
            let a = DenseTensor::<f64>::random([12, 18], &mut rng);
            let b = DenseTensor::<f64>::random([18, 9], &mut rng);
            let hb = mp.upload(&b);
            let c1 = mp
                .contract_h("ik,kj->ij", (&a).into(), (&hb).into())
                .unwrap();
            let c2 = mp
                .contract_h("ik,kj->ij", (&a).into(), (&hb).into())
                .unwrap();
            assert_eq!(c1.data(), c2.data());
            mp.free(&hb).unwrap();
        }
        for (bytes, _, pinned) in mp.worker_cache_stats().unwrap() {
            assert!(bytes <= cap, "resident footprint {bytes} exceeds cap {cap}");
            assert_eq!(pinned, 0, "all handles were freed");
        }
    }

    #[test]
    fn handle_returning_contractions_match_value_paths() {
        let (a, b) = operands(70);
        let exec = Executor::with_machine(Machine::blue_waters(2), 2, ExecMode::Sequential);
        let c_ref = exec.contract("isj,jtk->istk", &a, &b).unwrap();
        let h = exec
            .contract_to_h("isj,jtk->istk", (&a).into(), (&b).into())
            .unwrap();
        assert_eq!(h.dims(), c_ref.dims());
        assert!(
            exec.result_provenance(&h).is_some(),
            "resident results carry produced-by provenance"
        );
        let c = exec.download(h).unwrap();
        assert_eq!(c.data(), c_ref.data(), "dense");

        let sa = SparseTensor::from_dense(&a, 0.5);
        let d_ref = exec.contract_sd("isj,jtk->istk", &sa, &b).unwrap();
        let h = exec
            .contract_sd_to_h("isj,jtk->istk", (&sa).into(), (&b).into())
            .unwrap();
        let d = exec.download(h).unwrap();
        assert_eq!(d.data(), d_ref.data(), "sparse-dense");

        let (ac, bc) = (a.to_complex(), b.to_complex());
        let e_ref = exec
            .contract_c64("isj,jtk->istk", (&ac).into(), (&bc).into())
            .unwrap();
        let h = exec
            .contract_c64_to_h("isj,jtk->istk", (&ac).into(), (&bc).into())
            .unwrap();
        let e = exec.download_c64(h).unwrap();
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
        let h1 = exec
            .contract_to_h("ik,kj->ij", (&a).into(), (&b).into())
            .unwrap();
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
        let h1 = mp
            .contract_to_h("ik,kj->ij", (&a).into(), (&b).into())
            .unwrap();
        let h2 = mp
            .contract_to_h("ik,kj->ij", (&c).into(), (&d).into())
            .unwrap();
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

        // after download/free everything is unpinned on the workers
        let pinned: u64 = mp
            .worker_cache_stats()
            .unwrap()
            .iter()
            .map(|&(_, _, p)| p)
            .sum();
        assert_eq!(pinned, 0, "chain intermediates unpin on download/free");
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
        let svds_ref = exec.svd_trunc_batch(mats.clone(), spec).unwrap();
        let qrs_ref = exec.qr_batch(mats.clone()).unwrap();
        let handles: Vec<OpHandle> = mats.iter().map(|m| exec.upload(m)).collect();
        let hrefs: Vec<&OpHandle> = handles.iter().collect();
        let svds = exec.svd_trunc_batch_h(&hrefs, spec).unwrap();
        for (s, r) in svds.iter().zip(&svds_ref) {
            assert_eq!(s.s, r.s);
            assert_eq!(s.u.data(), r.u.data());
            assert_eq!(s.vt.data(), r.vt.data());
        }
        let qrs = exec.qr_batch_h(&hrefs).unwrap();
        for ((q, rr), (q2, r2)) in qrs.iter().zip(&qrs_ref) {
            assert_eq!(q.data(), q2.data());
            assert_eq!(rr.data(), r2.data());
        }
        for h in &handles {
            exec.free(h).unwrap();
        }
    }
}
