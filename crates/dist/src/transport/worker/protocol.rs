//! The messages of the rank-side task protocol: operands, requests and
//! replies. Their wire form is in `codec`.

/// A dense buffer operand: inline payload or resident-store key.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Op {
    /// The bytes travel with the task.
    Inline(Vec<f64>),
    /// The operand is resident on the rank under this key.
    Key(u64),
}

/// A sparse-coordinate bucket operand (`(row, col, value)` triples as
/// three parallel arrays).
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum OpCoords {
    Inline {
        rows: Vec<u64>,
        cols: Vec<u64>,
        vals: Vec<f64>,
    },
    Key(u64),
}

/// A grouped sparse-sparse `B` table: `keys`/`lens` index `cols`/`vals`.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct SsTable {
    pub(crate) keys: Vec<u64>,
    pub(crate) lens: Vec<u64>,
    pub(crate) cols: Vec<u64>,
    pub(crate) vals: Vec<f64>,
}

/// The `B` of a sparse-sparse task: a table inline, or the result stored
/// under `key` read as one — its natural axis `q` weighs `key_w[q]` in the
/// contracted key and `col_w[q]` in the free column.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum OpSs {
    Inline(SsTable),
    Key {
        key: u64,
        key_w: Vec<u64>,
        col_w: Vec<u64>,
    },
}

/// A request shipped to one rank.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Request {
    /// Liveness probe ([`Cluster::probe`](crate::Cluster::probe)).
    Ping,
    /// Drop the buffer under `key` unconditionally (any payload type).
    Free { key: u64 },
    /// Store a dense buffer under `key`.
    Upload { key: u64, data: Vec<f64> },
    /// Store a sparse-coordinate bucket under `key`.
    UploadCoords {
        key: u64,
        rows: Vec<u64>,
        cols: Vec<u64>,
        vals: Vec<f64>,
    },
    /// Report the store's byte footprint and entry counts.
    CacheStats,
    /// One whole dense TTGT contraction — the only dense task, a dense
    /// chain step: its result goes straight into the rank's resident store
    /// under the driver-issued `key`, and the reply carries no payload.
    /// With `acc` it is accumulated elementwise into the buffer already
    /// under `key` (a list chain routes every partial of one output block
    /// to one rank, in driver enumeration order, so the accumulation order
    /// is the same on every backend).
    Contract {
        spec: String,
        a_dims: Vec<usize>,
        a: Op,
        b_dims: Vec<usize>,
        b: Op,
        key: u64,
        acc: bool,
    },
    /// One sparse-sparse chain step: key-sorted `A` coords merged against
    /// `B` under `mask` (row and column classes), the mask's slots stored
    /// under `key`; `ax_*` and `cx_*` map fused rows and columns (width
    /// `n`) to output offsets.
    SsChunk {
        a: OpCoords,
        b: OpSs,
        key: u64,
        n: u64,
        ax_dims: Vec<u64>,
        ax_strides: Vec<u64>,
        cx_dims: Vec<u64>,
        cx_strides: Vec<u64>,
        mask: (Vec<u64>, Vec<u64>),
    },
    /// Truncated SVD of a `rows × cols` `f64` matrix, sent inline (a
    /// resident operand, tag 0, is retired).
    SvdTrunc {
        rows: usize,
        cols: usize,
        a: Vec<f64>,
        max_rank: u64,
        cutoff: f64,
        min_keep: u64,
    },
    /// Remove the result under `key` from the store and return its
    /// payload — the only value-returning read of the store (the driver
    /// forgets the home): a dense buffer as [`Reply::Buf`], a
    /// sparse-sparse result as [`Reply::Entries`].
    Download { key: u64 },
    /// Terminate the worker loop.
    Shutdown,
    /// One sparse-dense chain step, its output-order result stored under
    /// `key`: `a` holds the entries of all `m` fused output rows, `b` the
    /// dense operand as it lies (shape `b_dims`), which the worker reads
    /// in place or permutes by `perm_b`; `nat_dims` is the result's
    /// natural `(free A, free B)` shape and `out_perm` its output order.
    SdContract {
        a: OpCoords,
        key: u64,
        m: usize,
        n: usize,
        b_dims: Vec<usize>,
        perm_b: Vec<usize>,
        nat_dims: Vec<usize>,
        out_perm: Vec<usize>,
        b: Op,
    },
}

/// A reply from one rank.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Reply {
    /// The answer to [`Request::Ping`].
    Pong,
    /// Success with no payload.
    Unit,
    /// A dense buffer.
    Buf(Vec<f64>),
    /// A downloaded sparse-sparse result's entries, offsets ascending.
    Entries { offs: Vec<u64>, vals: Vec<f64> },
    /// A stored sparse-sparse result's touched slots and flops.
    Merged { touched: u64, flops: u64 },
    /// A truncated SVD.
    Svd {
        u_rows: usize,
        rank: usize,
        vt_cols: usize,
        u: Vec<f64>,
        s: Vec<f64>,
        vt: Vec<f64>,
        trunc_err: f64,
        n_discarded: u64,
    },
    /// Resident-store footprint and lifetime cache counters.
    Stats {
        bytes: u64,
        entries: u64,
        hits: u64,
        misses: u64,
    },
    /// The task failed on the worker; the driver surfaces the message.
    Fail(String),
}

impl Op {
    /// Resident key this operand reads, if any.
    pub(crate) fn key(&self) -> Option<u64> {
        match self {
            Op::Inline(_) => None,
            Op::Key(k) => Some(*k),
        }
    }

    fn payload_bytes(&self) -> usize {
        match self {
            Op::Inline(data) => 8 * data.len(),
            Op::Key(_) => 0,
        }
    }
}

impl OpCoords {
    /// Resident key this operand reads, if any.
    pub(crate) fn key(&self) -> Option<u64> {
        match self {
            OpCoords::Inline { .. } => None,
            OpCoords::Key(k) => Some(*k),
        }
    }
}

impl OpSs {
    /// Resident key this operand reads, if any.
    pub(crate) fn key(&self) -> Option<u64> {
        match self {
            OpSs::Inline { .. } => None,
            OpSs::Key { key, .. } => Some(*key),
        }
    }
}

impl Request {
    /// Operand payload bytes this request carries inline: tensor values
    /// and sparse coordinates — the data-plane volume
    /// [`CostTracker::bytes_operands`](crate::CostTracker) meters. Key
    /// references, dims, specs, and other control framing count zero, so
    /// the meter reads what the driver actually *shipped*, and a request
    /// whose operands are all worker-resident ships nothing.
    pub(crate) fn payload_bytes(&self) -> usize {
        fn coords(op: &OpCoords) -> usize {
            match op {
                OpCoords::Inline { rows, cols, vals } => 8 * (rows.len() + cols.len() + vals.len()),
                OpCoords::Key(_) => 0,
            }
        }
        fn ss(op: &OpSs) -> usize {
            match op {
                OpSs::Inline(t) => 8 * (t.keys.len() + t.lens.len() + t.cols.len() + t.vals.len()),
                OpSs::Key { .. } => 0,
            }
        }
        match self {
            Request::Upload { data, .. } => 8 * data.len(),
            Request::UploadCoords {
                rows, cols, vals, ..
            } => 8 * (rows.len() + cols.len() + vals.len()),
            Request::Contract { a, b, .. } => a.payload_bytes() + b.payload_bytes(),
            Request::SdContract { a, b, .. } => coords(a) + b.payload_bytes(),
            Request::SsChunk { a, b, .. } => coords(a) + ss(b),
            Request::SvdTrunc { a, .. } => 8 * a.len(),
            Request::Ping
            | Request::Free { .. }
            | Request::CacheStats
            | Request::Download { .. }
            | Request::Shutdown => 0,
        }
    }
}
