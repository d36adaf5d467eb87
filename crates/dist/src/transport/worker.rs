//! The rank-side task protocol.
//!
//! A worker (one rank of the shared-nothing backend) is a small kernel
//! server: it holds a keyed store of resident buffers and executes the
//! same deterministic chunk kernels as the in-process executor —
//! [`crate::kernels::dense_chunk`], [`crate::kernels::sd_chunk`] (through
//! [`crate::kernels::sd_panel`] for a shipped row chunk and
//! [`crate::kernels::sd_apply`] for a whole chain step),
//! [`crate::kernels::ss_chunk`] and whole-matrix factorizations. Because
//! both backends run *exactly* this code over *exactly* the same work
//! decomposition, multi-process results are bitwise-identical to the
//! in-process Sequential executor.
//!
//! The element type of a dense buffer is a tag on the data ([`Buf`]), not
//! a property of the opcode: one request serves `f64` and [`Complex64`],
//! and a pair of operands whose tags disagree fails typed. Every bulk
//! operand of a compute task is an [`Op`] / [`OpCoords`] / [`OpSs`] —
//! either **inline** bytes (the value-passing path) or a **key** into the
//! rank's resident store (the handle path: the operand was stored by an
//! earlier `Upload*` request and ships zero bytes with the task). The
//! store is a plain keyed map: `Upload*` and storing compute requests
//! insert (or replace), `Free` and `Download` remove, and nothing else
//! ever leaves it — a rank's memory is bounded by the driver's frees, not
//! here (`Executor::free` documents the bound).
//!
//! The same [`WorkerState`] is driven two ways:
//!
//! * in-process: [`super::InProcTransport`] calls [`WorkerState::handle`]
//!   directly (one address space, no sockets);
//! * multi-process: [`worker_loop`] drives it from framed requests on a
//!   Unix-domain socket, inside a separate OS process spawned by
//!   [`super::ProcTransport`].

use super::wire::{read_frame, write_frame, Dec, Enc};
use crate::kernels;
use crate::{DistError, Error, FaultKind, Result};
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;
use tt_linalg::TruncSpec;
use tt_tensor::einsum::ContractPlan;
use tt_tensor::gemm::GemmPath;
use tt_tensor::ssmerge::SsBTable;
use tt_tensor::{Complex64, DenseTensor, Scalar};

/// Environment variable carrying the hub socket path to spawned workers.
pub const ENV_SOCKET: &str = "TT_DIST_WORKER_SOCKET";
/// Environment variable carrying the worker's rank id.
pub const ENV_RANK: &str = "TT_DIST_WORKER_RANK";

/// A dense buffer: the element type is a tag on the data.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Buf {
    F64(Vec<f64>),
    C64(Vec<Complex64>),
}

/// A dense buffer operand: inline payload or resident-store key.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Op {
    /// The bytes travel with the task.
    Inline(Buf),
    /// The operand is resident on the rank under this key.
    Key(u64),
}

/// Where a [`Request::Contract`] puts its result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Out {
    /// Return it to the driver in the reply.
    Reply,
    /// Write it straight into the rank's resident store under the
    /// driver-issued `key`; the reply carries no payload. With
    /// `acc` the result is accumulated elementwise into the existing
    /// buffer under `key` (the block-list chains route every partial of
    /// one output block to one rank, in driver enumeration order, so the
    /// accumulation order matches the driver-side value path exactly).
    Store { key: u64, acc: bool },
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

/// A grouped sparse-sparse `B` operand (`keys`/`lens` index the flattened
/// `cols`/`vals`, output offsets already resolved).
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum OpSs {
    Inline {
        keys: Vec<u64>,
        lens: Vec<u64>,
        cols: Vec<u64>,
        vals: Vec<f64>,
    },
    Key(u64),
}

/// A request shipped to one rank.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Request {
    /// Liveness / barrier probe.
    Ping,
    /// Drop the buffer under `key` unconditionally (any payload type).
    Free { key: u64 },
    /// Store a dense buffer under `key`.
    Upload { key: u64, data: Buf },
    /// Store a sparse-coordinate bucket under `key`.
    UploadCoords {
        key: u64,
        rows: Vec<u64>,
        cols: Vec<u64>,
        vals: Vec<f64>,
    },
    /// Store a grouped sparse-sparse operand table under `key`.
    UploadSs {
        key: u64,
        keys: Vec<u64>,
        lens: Vec<u64>,
        cols: Vec<u64>,
        vals: Vec<f64>,
    },
    /// Report the store's byte footprint and entry counts.
    CacheStats,
    /// One row-slab of a dense TTGT contraction (`a` holds `rows` rows of
    /// the permuted A, `b` the full permuted B). Scatter and compute are
    /// fused: resident operands ship as keys, everything else rides in
    /// this one request.
    DenseChunk {
        path: GemmPath,
        rows: usize,
        k: usize,
        n: usize,
        a: Op,
        b: Op,
    },
    /// One whole dense TTGT contraction: a block pair of the list
    /// algorithm's fan-out ([`Out::Reply`]) or a chain step whose result
    /// stays resident ([`Out::Store`]).
    Contract {
        spec: String,
        a_dims: Vec<usize>,
        a: Op,
        b_dims: Vec<usize>,
        b: Op,
        out: Out,
    },
    /// One volume-balanced sparse-dense bucket over rows `[r0, r1)`.
    SdChunk {
        r0: usize,
        r1: usize,
        n: usize,
        a: OpCoords,
        b: Op,
    },
    /// One work-balanced sparse-sparse bucket (key-sorted `A` coords over
    /// fused rows `[r0, r1)`) merged against the sorted-run `B` table.
    /// `ax_*` map fused rows and `cx_*` map fused `B` free columns (width
    /// `n`) to output offsets.
    SsChunk {
        a: OpCoords,
        b: OpSs,
        r0: u64,
        r1: u64,
        n: u64,
        ax_dims: Vec<u64>,
        ax_strides: Vec<u64>,
        cx_dims: Vec<u64>,
        cx_strides: Vec<u64>,
        mask: Option<Vec<u64>>,
    },
    /// Thin QR of a `rows × cols` `f64` matrix.
    QrThin { rows: usize, cols: usize, a: Op },
    /// Truncated SVD of a `rows × cols` `f64` matrix.
    SvdTrunc {
        rows: usize,
        cols: usize,
        a: Op,
        max_rank: u64,
        cutoff: f64,
        min_keep: u64,
    },
    /// One sparse-dense chain step: the whole contraction (single bucket
    /// covering all `m` fused rows — bitwise-identical to any row-disjoint
    /// bucketing), with the dense operand permuted worker-side by
    /// `perm_b` and the result permuted to output order by `out_perm`
    /// before being stored under `store`.
    ChainSd {
        a: OpCoords,
        m: usize,
        n: usize,
        b_dims: Vec<usize>,
        perm_b: Vec<usize>,
        b: Op,
        nat_dims: Vec<usize>,
        out_perm: Vec<usize>,
        store: u64,
    },
    /// Remove the dense buffer under `key` from the store and return its
    /// payload — the only value-returning read of the store (the driver
    /// forgets the home).
    Download { key: u64 },
    /// Terminate the worker loop.
    Shutdown,
}

/// A reply from one rank.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Reply {
    /// Barrier acknowledgement.
    Pong,
    /// Success with no payload.
    Unit,
    /// A dense buffer.
    Buf(Buf),
    /// Sparse output entries plus the flops the chunk executed.
    Entries {
        offs: Vec<u64>,
        vals: Vec<f64>,
        flops: u64,
    },
    /// A `(Q, R)` factor pair with explicit dimensions.
    Factors {
        q_rows: usize,
        q_cols: usize,
        q: Vec<f64>,
        r_rows: usize,
        r_cols: usize,
        r: Vec<f64>,
    },
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

fn path_to_u8(p: GemmPath) -> u8 {
    match p {
        GemmPath::Gemv => 0,
        GemmPath::Scalar => 1,
        GemmPath::Packed => 2,
    }
}

fn path_from_u8(v: u8) -> Result<GemmPath> {
    match v {
        0 => Ok(GemmPath::Gemv),
        1 => Ok(GemmPath::Scalar),
        2 => Ok(GemmPath::Packed),
        _ => Err(Error::transport(format!("bad gemm path tag {v}"))),
    }
}

fn put_usizes(e: &mut Enc, v: &[usize]) {
    e.put_usize(v.len());
    for &x in v {
        e.put_usize(x);
    }
}

fn get_usizes(d: &mut Dec) -> Result<Vec<usize>> {
    let n = d.usize()?;
    (0..n).map(|_| d.usize()).collect()
}

impl Buf {
    /// Payload bytes.
    pub(crate) fn bytes(&self) -> usize {
        match self {
            Buf::F64(v) => 8 * v.len(),
            Buf::C64(v) => 16 * v.len(),
        }
    }

    /// The `f64` data, or a typed failure for a [`Complex64`] buffer.
    pub(crate) fn into_f64(self) -> Result<Vec<f64>> {
        match self {
            Buf::F64(v) => Ok(v),
            Buf::C64(_) => Err(Error::transport("expected f64 data, got Complex64")),
        }
    }

    /// The [`Complex64`] data, or a typed failure for an `f64` buffer.
    pub(crate) fn into_c64(self) -> Result<Vec<Complex64>> {
        match self {
            Buf::C64(v) => Ok(v),
            Buf::F64(_) => Err(Error::transport("expected Complex64 data, got f64")),
        }
    }

    fn as_f64(&self) -> Result<&[f64]> {
        match self {
            Buf::F64(v) => Ok(v),
            Buf::C64(_) => Err(Error::transport("expected f64 data, got Complex64")),
        }
    }

    /// The element tag on the wire. It rides in the discriminant byte
    /// that introduces the buffer (`base + tag`: an opcode or an operand
    /// tag), so tagging the data adds no byte to any frame.
    fn tag(&self) -> u8 {
        match self {
            Buf::F64(_) => 0,
            Buf::C64(_) => 1,
        }
    }

    fn put_data(&self, e: &mut Enc) {
        match self {
            Buf::F64(v) => e.put_f64s(v),
            Buf::C64(v) => e.put_c64s(v),
        }
    }

    fn get_data(d: &mut Dec, tag: u8) -> Result<Self> {
        Ok(match tag {
            0 => Buf::F64(d.f64s()?),
            _ => Buf::C64(d.c64s()?),
        })
    }
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
            Op::Inline(buf) => buf.bytes(),
            Op::Key(_) => 0,
        }
    }

    fn put(&self, e: &mut Enc) {
        match self {
            Op::Key(k) => {
                e.put_u8(0);
                e.put_u64(*k);
            }
            Op::Inline(buf) => {
                e.put_u8(1 + buf.tag());
                buf.put_data(e);
            }
        }
    }

    fn get(d: &mut Dec) -> Result<Self> {
        Ok(match d.u8()? {
            0 => Op::Key(d.u64()?),
            t @ 1..=2 => Op::Inline(Buf::get_data(d, t - 1)?),
            t => return Err(Error::transport(format!("bad operand tag {t}"))),
        })
    }
}

impl OpCoords {
    fn put(&self, e: &mut Enc) {
        match self {
            OpCoords::Inline { rows, cols, vals } => {
                e.put_u8(0);
                e.put_u64s(rows);
                e.put_u64s(cols);
                e.put_f64s(vals);
            }
            OpCoords::Key(k) => {
                e.put_u8(1);
                e.put_u64(*k);
            }
        }
    }

    fn get(d: &mut Dec) -> Result<Self> {
        Ok(match d.u8()? {
            0 => OpCoords::Inline {
                rows: d.u64s()?,
                cols: d.u64s()?,
                vals: d.f64s()?,
            },
            1 => OpCoords::Key(d.u64()?),
            t => return Err(Error::transport(format!("bad operand tag {t}"))),
        })
    }
}

impl OpSs {
    fn put(&self, e: &mut Enc) {
        match self {
            OpSs::Inline {
                keys,
                lens,
                cols,
                vals,
            } => {
                e.put_u8(0);
                e.put_u64s(keys);
                e.put_u64s(lens);
                e.put_u64s(cols);
                e.put_f64s(vals);
            }
            OpSs::Key(k) => {
                e.put_u8(1);
                e.put_u64(*k);
            }
        }
    }

    fn get(d: &mut Dec) -> Result<Self> {
        Ok(match d.u8()? {
            0 => OpSs::Inline {
                keys: d.u64s()?,
                lens: d.u64s()?,
                cols: d.u64s()?,
                vals: d.f64s()?,
            },
            1 => OpSs::Key(d.u64()?),
            t => return Err(Error::transport(format!("bad operand tag {t}"))),
        })
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
                OpSs::Inline {
                    keys,
                    lens,
                    cols,
                    vals,
                } => 8 * (keys.len() + lens.len() + cols.len() + vals.len()),
                OpSs::Key(_) => 0,
            }
        }
        match self {
            Request::Upload { data, .. } => data.bytes(),
            Request::UploadCoords {
                rows, cols, vals, ..
            } => 8 * (rows.len() + cols.len() + vals.len()),
            Request::UploadSs {
                keys,
                lens,
                cols,
                vals,
                ..
            } => 8 * (keys.len() + lens.len() + cols.len() + vals.len()),
            Request::DenseChunk { a, b, .. } | Request::Contract { a, b, .. } => {
                a.payload_bytes() + b.payload_bytes()
            }
            Request::SdChunk { a, b, .. } | Request::ChainSd { a, b, .. } => {
                coords(a) + b.payload_bytes()
            }
            Request::SsChunk { a, b, .. } => coords(a) + ss(b),
            Request::QrThin { a, .. } | Request::SvdTrunc { a, .. } => a.payload_bytes(),
            Request::Ping
            | Request::Free { .. }
            | Request::CacheStats
            | Request::Download { .. }
            | Request::Shutdown => 0,
        }
    }

    /// Encode to the wire format.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            Request::Ping => e.put_u8(0),
            Request::Free { key } => {
                e.put_u8(1);
                e.put_u64(*key);
            }
            Request::Upload { key, data } => {
                e.put_u8(2 + data.tag());
                e.put_u64(*key);
                data.put_data(&mut e);
            }
            Request::UploadCoords {
                key,
                rows,
                cols,
                vals,
            } => {
                e.put_u8(4);
                e.put_u64(*key);
                e.put_u64s(rows);
                e.put_u64s(cols);
                e.put_f64s(vals);
            }
            Request::UploadSs {
                key,
                keys,
                lens,
                cols,
                vals,
            } => {
                e.put_u8(5);
                e.put_u64(*key);
                e.put_u64s(keys);
                e.put_u64s(lens);
                e.put_u64s(cols);
                e.put_f64s(vals);
            }
            Request::CacheStats => e.put_u8(7),
            Request::DenseChunk {
                path,
                rows,
                k,
                n,
                a,
                b,
            } => {
                e.put_u8(9);
                e.put_u8(path_to_u8(*path));
                e.put_usize(*rows);
                e.put_usize(*k);
                e.put_usize(*n);
                a.put(&mut e);
                b.put(&mut e);
            }
            Request::Contract {
                spec,
                a_dims,
                a,
                b_dims,
                b,
                out,
            } => {
                e.put_u8(10);
                e.put_str(spec);
                put_usizes(&mut e, a_dims);
                a.put(&mut e);
                put_usizes(&mut e, b_dims);
                b.put(&mut e);
                match out {
                    Out::Reply => e.put_u8(0),
                    Out::Store { key, acc } => {
                        e.put_u8(1);
                        e.put_u64(*key);
                        e.put_bool(*acc);
                    }
                }
            }
            Request::SdChunk { r0, r1, n, a, b } => {
                e.put_u8(11);
                e.put_usize(*r0);
                e.put_usize(*r1);
                e.put_usize(*n);
                a.put(&mut e);
                b.put(&mut e);
            }
            Request::SsChunk {
                a,
                b,
                r0,
                r1,
                n,
                ax_dims,
                ax_strides,
                cx_dims,
                cx_strides,
                mask,
            } => {
                e.put_u8(12);
                a.put(&mut e);
                b.put(&mut e);
                e.put_u64(*r0);
                e.put_u64(*r1);
                e.put_u64(*n);
                e.put_u64s(ax_dims);
                e.put_u64s(ax_strides);
                e.put_u64s(cx_dims);
                e.put_u64s(cx_strides);
                e.put_bool(mask.is_some());
                if let Some(m) = mask {
                    e.put_u64s(m);
                }
            }
            Request::QrThin { rows, cols, a } => {
                e.put_u8(13);
                e.put_usize(*rows);
                e.put_usize(*cols);
                a.put(&mut e);
            }
            Request::SvdTrunc {
                rows,
                cols,
                a,
                max_rank,
                cutoff,
                min_keep,
            } => {
                e.put_u8(14);
                e.put_usize(*rows);
                e.put_usize(*cols);
                a.put(&mut e);
                e.put_u64(*max_rank);
                e.put_f64(*cutoff);
                e.put_u64(*min_keep);
            }
            Request::ChainSd {
                a,
                m,
                n,
                b_dims,
                perm_b,
                b,
                nat_dims,
                out_perm,
                store,
            } => {
                e.put_u8(17);
                a.put(&mut e);
                e.put_usize(*m);
                e.put_usize(*n);
                put_usizes(&mut e, b_dims);
                put_usizes(&mut e, perm_b);
                b.put(&mut e);
                put_usizes(&mut e, nat_dims);
                put_usizes(&mut e, out_perm);
                e.put_u64(*store);
            }
            Request::Download { key } => {
                e.put_u8(18);
                e.put_u64(*key);
            }
            Request::Shutdown => e.put_u8(19),
        }
        e.finish()
    }

    /// Decode from the wire format. Opcodes 6, 8, 15 and 16 are retired:
    /// never reassign them, so a frame from an older peer fails typed
    /// instead of being misread.
    pub(crate) fn decode(bytes: &[u8]) -> Result<Self> {
        let mut d = Dec::new(bytes);
        let req = match d.u8()? {
            0 => Request::Ping,
            1 => Request::Free { key: d.u64()? },
            op @ 2..=3 => Request::Upload {
                key: d.u64()?,
                data: Buf::get_data(&mut d, op - 2)?,
            },
            4 => Request::UploadCoords {
                key: d.u64()?,
                rows: d.u64s()?,
                cols: d.u64s()?,
                vals: d.f64s()?,
            },
            5 => Request::UploadSs {
                key: d.u64()?,
                keys: d.u64s()?,
                lens: d.u64s()?,
                cols: d.u64s()?,
                vals: d.f64s()?,
            },
            7 => Request::CacheStats,
            9 => Request::DenseChunk {
                path: path_from_u8(d.u8()?)?,
                rows: d.usize()?,
                k: d.usize()?,
                n: d.usize()?,
                a: Op::get(&mut d)?,
                b: Op::get(&mut d)?,
            },
            10 => Request::Contract {
                spec: d.str()?,
                a_dims: get_usizes(&mut d)?,
                a: Op::get(&mut d)?,
                b_dims: get_usizes(&mut d)?,
                b: Op::get(&mut d)?,
                out: match d.u8()? {
                    0 => Out::Reply,
                    1 => Out::Store {
                        key: d.u64()?,
                        acc: d.bool()?,
                    },
                    t => return Err(Error::transport(format!("bad output tag {t}"))),
                },
            },
            11 => Request::SdChunk {
                r0: d.usize()?,
                r1: d.usize()?,
                n: d.usize()?,
                a: OpCoords::get(&mut d)?,
                b: Op::get(&mut d)?,
            },
            12 => Request::SsChunk {
                a: OpCoords::get(&mut d)?,
                b: OpSs::get(&mut d)?,
                r0: d.u64()?,
                r1: d.u64()?,
                n: d.u64()?,
                ax_dims: d.u64s()?,
                ax_strides: d.u64s()?,
                cx_dims: d.u64s()?,
                cx_strides: d.u64s()?,
                mask: if d.bool()? { Some(d.u64s()?) } else { None },
            },
            13 => Request::QrThin {
                rows: d.usize()?,
                cols: d.usize()?,
                a: Op::get(&mut d)?,
            },
            14 => Request::SvdTrunc {
                rows: d.usize()?,
                cols: d.usize()?,
                a: Op::get(&mut d)?,
                max_rank: d.u64()?,
                cutoff: d.f64()?,
                min_keep: d.u64()?,
            },
            17 => Request::ChainSd {
                a: OpCoords::get(&mut d)?,
                m: d.usize()?,
                n: d.usize()?,
                b_dims: get_usizes(&mut d)?,
                perm_b: get_usizes(&mut d)?,
                b: Op::get(&mut d)?,
                nat_dims: get_usizes(&mut d)?,
                out_perm: get_usizes(&mut d)?,
                store: d.u64()?,
            },
            18 => Request::Download { key: d.u64()? },
            19 => Request::Shutdown,
            op => {
                return Err(DistError::new(
                    FaultKind::Decode,
                    None,
                    format!("unknown request opcode {op}"),
                )
                .into())
            }
        };
        Ok(req)
    }
}

impl Reply {
    /// Encode to the wire format.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            Reply::Pong => e.put_u8(0),
            Reply::Unit => e.put_u8(1),
            Reply::Buf(buf) => {
                e.put_u8(2 + buf.tag());
                buf.put_data(&mut e);
            }
            Reply::Entries { offs, vals, flops } => {
                e.put_u8(4);
                e.put_u64s(offs);
                e.put_f64s(vals);
                e.put_u64(*flops);
            }
            Reply::Factors {
                q_rows,
                q_cols,
                q,
                r_rows,
                r_cols,
                r,
            } => {
                e.put_u8(5);
                e.put_usize(*q_rows);
                e.put_usize(*q_cols);
                e.put_f64s(q);
                e.put_usize(*r_rows);
                e.put_usize(*r_cols);
                e.put_f64s(r);
            }
            Reply::Svd {
                u_rows,
                rank,
                vt_cols,
                u,
                s,
                vt,
                trunc_err,
                n_discarded,
            } => {
                e.put_u8(6);
                e.put_usize(*u_rows);
                e.put_usize(*rank);
                e.put_usize(*vt_cols);
                e.put_f64s(u);
                e.put_f64s(s);
                e.put_f64s(vt);
                e.put_f64(*trunc_err);
                e.put_u64(*n_discarded);
            }
            Reply::Fail(msg) => {
                e.put_u8(7);
                e.put_str(msg);
            }
            Reply::Stats {
                bytes,
                entries,
                hits,
                misses,
            } => {
                e.put_u8(8);
                e.put_u64(*bytes);
                e.put_u64(*entries);
                e.put_u64(*hits);
                e.put_u64(*misses);
            }
        }
        e.finish()
    }

    /// Decode from the wire format.
    pub(crate) fn decode(bytes: &[u8]) -> Result<Self> {
        let mut d = Dec::new(bytes);
        let rep = match d.u8()? {
            0 => Reply::Pong,
            1 => Reply::Unit,
            op @ 2..=3 => Reply::Buf(Buf::get_data(&mut d, op - 2)?),
            4 => Reply::Entries {
                offs: d.u64s()?,
                vals: d.f64s()?,
                flops: d.u64()?,
            },
            5 => Reply::Factors {
                q_rows: d.usize()?,
                q_cols: d.usize()?,
                q: d.f64s()?,
                r_rows: d.usize()?,
                r_cols: d.usize()?,
                r: d.f64s()?,
            },
            6 => Reply::Svd {
                u_rows: d.usize()?,
                rank: d.usize()?,
                vt_cols: d.usize()?,
                u: d.f64s()?,
                s: d.f64s()?,
                vt: d.f64s()?,
                trunc_err: d.f64()?,
                n_discarded: d.u64()?,
            },
            7 => Reply::Fail(d.str()?),
            8 => Reply::Stats {
                bytes: d.u64()?,
                entries: d.u64()?,
                hits: d.u64()?,
                misses: d.u64()?,
            },
            op => return Err(Error::transport(format!("unknown reply opcode {op}"))),
        };
        Ok(rep)
    }
}

/// The grouped sparse-sparse `B` operand in its resident (decoded) form:
/// the flat sorted-run table the merge kernel consumes directly. The wire
/// shape (`keys`/`lens`/`cols`/`vals`) is already the table's internal
/// layout, so decoding is a validation pass plus a prefix-sum — no
/// per-entry tree inserts.
pub(crate) struct SsTable {
    pub(crate) table: SsBTable<f64>,
}

impl SsTable {
    /// Validating constructor for wire data ([`SsBTable::from_runs`] only
    /// `debug_assert`s its invariants; a malformed or malicious frame must
    /// surface as a transport error, not UB-adjacent nonsense).
    fn build(keys: Vec<u64>, lens: &[u64], cols: Vec<u64>, vals: Vec<f64>) -> Result<Self> {
        if cols.len() != vals.len() || keys.len() != lens.len() {
            return Err(Error::transport("ss group table mismatch"));
        }
        let total: u64 = lens.iter().sum();
        if total != cols.len() as u64 {
            return Err(Error::transport("ss group table mismatch"));
        }
        if !keys.windows(2).all(|w| w[0] < w[1]) {
            return Err(Error::transport(
                "ss group table keys not strictly ascending",
            ));
        }
        Ok(Self {
            table: SsBTable::from_runs(keys, lens, cols, vals),
        })
    }
}

/// One resident buffer.
enum Cached {
    Dense(Arc<Buf>),
    Coords(Arc<Vec<kernels::Coord>>),
    Ss(Arc<SsTable>),
}

impl Cached {
    /// Deterministic byte accounting of the buffer.
    fn bytes(&self) -> u64 {
        match self {
            Cached::Dense(buf) => buf.bytes() as u64,
            Cached::Coords(v) => 24 * v.len() as u64,
            Cached::Ss(t) => 16 * (t.table.n_entries() + t.table.n_keys()) as u64,
        }
    }
}

/// One rank's resident state: a keyed buffer store and its counters.
#[derive(Default)]
pub(crate) struct WorkerState {
    store: HashMap<u64, Cached>,
    bytes: u64,
    /// Keyed lookups served from the store (lifetime).
    hits: u64,
    /// Fresh insertions — key not already resident (lifetime).
    misses: u64,
}

impl WorkerState {
    /// Fresh state with an empty store.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Insert (or replace) the buffer under `key`.
    fn insert(&mut self, key: u64, val: Cached) {
        self.bytes += val.bytes();
        match self.store.insert(key, val) {
            Some(old) => self.bytes -= old.bytes(),
            None => self.misses += 1,
        }
    }

    /// Remove the buffer under `key`, if any.
    fn remove(&mut self, key: u64) -> Option<Cached> {
        let val = self.store.remove(&key)?;
        self.bytes -= val.bytes();
        Some(val)
    }

    fn get(&mut self, key: u64) -> Result<&Cached> {
        let val = self
            .store
            .get(&key)
            .ok_or_else(|| Error::transport(format!("no buffer under key {key:#x}")))?;
        self.hits += 1;
        Ok(val)
    }

    fn get_dense(&mut self, key: u64) -> Result<Arc<Buf>> {
        match self.get(key)? {
            Cached::Dense(buf) => Ok(Arc::clone(buf)),
            _ => Err(Error::transport(format!(
                "key {key:#x} is not a dense buffer"
            ))),
        }
    }

    fn get_coords(&mut self, key: u64) -> Result<Arc<Vec<kernels::Coord>>> {
        match self.get(key)? {
            Cached::Coords(v) => Ok(Arc::clone(v)),
            _ => Err(Error::transport(format!(
                "key {key:#x} is not a coordinate bucket"
            ))),
        }
    }

    fn get_ss(&mut self, key: u64) -> Result<Arc<SsTable>> {
        match self.get(key)? {
            Cached::Ss(v) => Ok(Arc::clone(v)),
            _ => Err(Error::transport(format!(
                "key {key:#x} is not a grouped ss operand"
            ))),
        }
    }

    /// Take a resolved operand by value: moves the buffer out when the
    /// `Arc` is unique (inline operands), copies only when it is shared
    /// (resident buffers, which must stay in the store).
    fn take(buf: Arc<Buf>) -> Buf {
        Arc::try_unwrap(buf).unwrap_or_else(|a| a.as_ref().clone())
    }

    /// Resolve an [`Op`] to owned-or-resident dense data.
    fn op(&mut self, op: Op) -> Result<Arc<Buf>> {
        match op {
            Op::Inline(buf) => Ok(Arc::new(buf)),
            Op::Key(k) => self.get_dense(k),
        }
    }

    fn opcoords(&mut self, op: OpCoords) -> Result<Arc<Vec<kernels::Coord>>> {
        match op {
            OpCoords::Inline { rows, cols, vals } => {
                if rows.len() != cols.len() || rows.len() != vals.len() {
                    return Err(Error::transport("coordinate arity mismatch"));
                }
                Ok(Arc::new(
                    rows.into_iter()
                        .zip(cols)
                        .zip(vals)
                        .map(|((r, c), v)| (r, c, v))
                        .collect(),
                ))
            }
            OpCoords::Key(k) => self.get_coords(k),
        }
    }

    fn opss(&mut self, op: OpSs) -> Result<Arc<SsTable>> {
        match op {
            OpSs::Inline {
                keys,
                lens,
                cols,
                vals,
            } => Ok(Arc::new(SsTable::build(keys, &lens, cols, vals)?)),
            OpSs::Key(k) => self.get_ss(k),
        }
    }

    /// Store a fresh resident result, or — with `acc` —
    /// accumulate elementwise into the existing buffer under `key`. The
    /// first partial of an output block is *stored*, not added to zeros
    /// (`-0.0 + 0.0` would flip sign bits), exactly like the driver-side
    /// value path inserts its first partial.
    fn store(&mut self, key: u64, data: Buf, acc: bool) -> Result<()> {
        fn add<T: Scalar>(acc: &mut [T], data: &[T]) -> Result<()> {
            if acc.len() != data.len() {
                return Err(Error::transport("chain partial shape mismatch"));
            }
            for (c, p) in acc.iter_mut().zip(data) {
                *c += *p;
            }
            Ok(())
        }
        if !acc {
            self.insert(key, Cached::Dense(Arc::new(data)));
            return Ok(());
        }
        let entry = self
            .store
            .get_mut(&key)
            .ok_or_else(|| Error::transport(format!("no chain result under key {key:#x}")))?;
        let Cached::Dense(buf) = entry else {
            return Err(Error::transport("chain result has wrong payload type"));
        };
        match (Arc::make_mut(buf), &data) {
            (Buf::F64(c), Buf::F64(p)) => add(c, p),
            (Buf::C64(c), Buf::C64(p)) => add(c, p),
            _ => Err(mixed_tags()),
        }
    }

    /// Execute one request. Returns `None` only for [`Request::Shutdown`];
    /// every other request produces exactly one reply (failures become
    /// [`Reply::Fail`], so a worker never dies on a bad task).
    pub(crate) fn handle(&mut self, req: Request) -> Option<Reply> {
        if matches!(req, Request::Shutdown) {
            return None;
        }
        Some(self.run(req).unwrap_or_else(|e| Reply::Fail(e.to_string())))
    }

    fn run(&mut self, req: Request) -> Result<Reply> {
        match req {
            Request::Shutdown => unreachable!("handled in handle()"),
            Request::Ping => Ok(Reply::Pong),
            Request::Free { key } => {
                self.remove(key);
                Ok(Reply::Unit)
            }
            Request::Upload { key, data } => {
                self.insert(key, Cached::Dense(Arc::new(data)));
                Ok(Reply::Unit)
            }
            Request::UploadCoords {
                key,
                rows,
                cols,
                vals,
            } => {
                let coords = self.opcoords(OpCoords::Inline { rows, cols, vals })?;
                self.insert(key, Cached::Coords(coords));
                Ok(Reply::Unit)
            }
            Request::UploadSs {
                key,
                keys,
                lens,
                cols,
                vals,
            } => {
                let table = SsTable::build(keys, &lens, cols, vals)?;
                self.insert(key, Cached::Ss(Arc::new(table)));
                Ok(Reply::Unit)
            }
            Request::CacheStats => Ok(Reply::Stats {
                bytes: self.bytes,
                entries: self.store.len() as u64,
                hits: self.hits,
                misses: self.misses,
            }),
            Request::DenseChunk {
                path,
                rows,
                k,
                n,
                a,
                b,
            } => {
                fn chunk<T: Scalar>(
                    path: GemmPath,
                    (rows, k, n): (usize, usize, usize),
                    a: &[T],
                    b: &[T],
                ) -> Result<Vec<T>> {
                    if a.len() != rows * k || b.len() != k * n {
                        return Err(Error::transport("dense chunk operand size mismatch"));
                    }
                    Ok(kernels::dense_chunk(path, rows, k, n, a, b))
                }
                let (a, b) = (self.op(a)?, self.op(b)?);
                Ok(Reply::Buf(match (a.as_ref(), b.as_ref()) {
                    (Buf::F64(a), Buf::F64(b)) => Buf::F64(chunk(path, (rows, k, n), a, b)?),
                    (Buf::C64(a), Buf::C64(b)) => Buf::C64(chunk(path, (rows, k, n), a, b)?),
                    _ => return Err(mixed_tags()),
                }))
            }
            Request::Contract {
                spec,
                a_dims,
                a,
                b_dims,
                b,
                out,
            } => {
                fn contract<T: Scalar>(
                    plan: &ContractPlan,
                    (a_dims, a): (Vec<usize>, Vec<T>),
                    (b_dims, b): (Vec<usize>, Vec<T>),
                ) -> Result<Vec<T>> {
                    let ta = DenseTensor::from_vec(a_dims, a)?;
                    let tb = DenseTensor::from_vec(b_dims, b)?;
                    Ok(kernels::dense_contract(plan, &ta, &tb, None)?.into_data())
                }
                let plan = ContractPlan::parse(&spec)?;
                let (a, b) = (self.op(a)?, self.op(b)?);
                let c = match (Self::take(a), Self::take(b)) {
                    (Buf::F64(a), Buf::F64(b)) => {
                        Buf::F64(contract(&plan, (a_dims, a), (b_dims, b))?)
                    }
                    (Buf::C64(a), Buf::C64(b)) => {
                        Buf::C64(contract(&plan, (a_dims, a), (b_dims, b))?)
                    }
                    _ => return Err(mixed_tags()),
                };
                match out {
                    Out::Reply => Ok(Reply::Buf(c)),
                    Out::Store { key, acc } => {
                        self.store(key, c, acc)?;
                        Ok(Reply::Unit)
                    }
                }
            }
            Request::SdChunk { r0, r1, n, a, b } => {
                let bucket = self.opcoords(a)?;
                let b = self.op(b)?;
                let b = b.as_f64()?;
                if r1 < r0 || (n > 0 && b.len() % n != 0) {
                    return Err(Error::transport("sd chunk operand size mismatch"));
                }
                // the driver ships B already permuted: one full-width run
                let b_view = kernels::SdView::matrix(b.len() / n.max(1), n, n);
                Ok(Reply::Buf(Buf::F64(kernels::sd_panel(
                    (r0, r1),
                    n,
                    &bucket,
                    n,
                    &b_view,
                    b,
                ))))
            }
            Request::SsChunk {
                a,
                b,
                r0,
                r1,
                n,
                ax_dims,
                ax_strides,
                cx_dims,
                cx_strides,
                mask,
            } => {
                let bucket = self.opcoords(a)?;
                let table = self.opss(b)?;
                let row_axes: Vec<(u64, u64)> = ax_dims.into_iter().zip(ax_strides).collect();
                let col_axes: Vec<(u64, u64)> = cx_dims.into_iter().zip(cx_strides).collect();
                let (entries, flops) = kernels::ss_chunk(
                    &bucket,
                    &table.table,
                    r0 as usize,
                    r1 as usize,
                    n,
                    &row_axes,
                    &col_axes,
                    mask.as_deref(),
                );
                let (offs, vals) = entries.into_iter().unzip();
                Ok(Reply::Entries { offs, vals, flops })
            }
            Request::QrThin { rows, cols, a } => {
                let a = Self::take(self.op(a)?).into_f64()?;
                let (q, r) = tt_linalg::qr_thin(&DenseTensor::from_vec([rows, cols], a)?)?;
                Ok(Reply::Factors {
                    q_rows: q.dims()[0],
                    q_cols: q.dims()[1],
                    q: q.into_data(),
                    r_rows: r.dims()[0],
                    r_cols: r.dims()[1],
                    r: r.into_data(),
                })
            }
            Request::SvdTrunc {
                rows,
                cols,
                a,
                max_rank,
                cutoff,
                min_keep,
            } => {
                let spec = TruncSpec {
                    max_rank: max_rank as usize,
                    cutoff,
                    min_keep: min_keep as usize,
                };
                let a = Self::take(self.op(a)?).into_f64()?;
                let t = tt_linalg::svd_trunc(&DenseTensor::from_vec([rows, cols], a)?, spec)?;
                Ok(Reply::Svd {
                    u_rows: t.u.dims()[0],
                    rank: t.s.len(),
                    vt_cols: t.vt.dims()[1],
                    u: t.u.into_data(),
                    s: t.s,
                    vt: t.vt.into_data(),
                    trunc_err: t.trunc_err,
                    n_discarded: t.n_discarded as u64,
                })
            }
            Request::ChainSd {
                a,
                m,
                n,
                b_dims,
                perm_b,
                b,
                nat_dims,
                out_perm,
                store,
            } => {
                let bucket = self.opcoords(a)?;
                let b = self.op(b)?;
                let g = kernels::SdGeometry {
                    m,
                    n,
                    b_dims: &b_dims,
                    perm_b: &perm_b,
                    nat_dims: &nat_dims,
                    out_perm: &out_perm,
                };
                let c = kernels::sd_apply(&g, b.as_f64()?, Cow::Borrowed(&bucket), 1, None)?;
                self.store(store, Buf::F64(c.into_data()), false)?;
                Ok(Reply::Unit)
            }
            Request::Download { key } => {
                let val = self
                    .remove(key)
                    .ok_or_else(|| Error::transport(format!("no result under key {key:#x}")))?;
                match val {
                    Cached::Dense(buf) => Ok(Reply::Buf(Self::take(buf))),
                    _ => Err(Error::transport(format!(
                        "key {key:#x} does not hold a downloadable dense buffer"
                    ))),
                }
            }
        }
    }
}

/// The typed failure for a dense operand pair (or accumulate target)
/// whose element tags disagree.
fn mixed_tags() -> Error {
    Error::transport("operands mix f64 and Complex64 data")
}

/// Drive a `WorkerState` from framed requests on `stream` until a
/// `Request::Shutdown` arrives or the peer disconnects. Task panics are
/// caught and surfaced as `Reply::Fail`; the worker stays alive.
#[cfg(unix)]
pub fn worker_loop(mut stream: std::os::unix::net::UnixStream) -> Result<()> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let mut state = WorkerState::new();
    loop {
        let (tag, payload) = match read_frame(&mut stream) {
            Ok(f) => f,
            // driver gone: a clean shutdown from the worker's perspective
            Err(_) => return Ok(()),
        };
        // Every reply frame is prefixed with the flop/memory counter
        // deltas this task added in *this* process; the driver-side
        // transport replays them into its own global counters, so
        // `tt_tensor::counter` totals match the in-process backends
        // exactly (kernels charge in whichever process runs them).
        let flops0 = tt_tensor::counter::flops();
        let mem0 = tt_tensor::counter::mem_traffic();
        let reply = match Request::decode(&payload) {
            Ok(req) => match catch_unwind(AssertUnwindSafe(|| state.handle(req))) {
                Ok(Some(r)) => r,
                Ok(None) => return Ok(()), // Shutdown
                Err(_) => Reply::Fail("worker task panicked".into()),
            },
            Err(e) => Reply::Fail(e.to_string()),
        };
        let mut framed = Enc::new();
        framed.put_u64(tt_tensor::counter::flops().wrapping_sub(flops0));
        framed.put_u64(tt_tensor::counter::mem_traffic().wrapping_sub(mem0));
        let mut payload = framed.finish();
        payload.extend_from_slice(&reply.encode());
        write_frame(&mut stream, tag, &payload)?;
    }
}

/// Connect to the hub socket named by the environment and serve tasks
/// until shutdown. Returns an error if the worker environment variables
/// are missing or the connection fails.
#[cfg(unix)]
pub fn serve_from_env() -> Result<()> {
    let path =
        std::env::var(ENV_SOCKET).map_err(|_| Error::transport(format!("{ENV_SOCKET} not set")))?;
    let rank: u64 = std::env::var(ENV_RANK)
        .ok()
        .and_then(|r| r.parse().ok())
        .ok_or_else(|| Error::transport(format!("{ENV_RANK} not set")))?;
    let mut stream = std::os::unix::net::UnixStream::connect(&path)
        .map_err(|e| Error::transport(format!("connect {path}: {e}")))?;
    // hello frame: tag 0, payload = rank
    let mut e = Enc::new();
    e.put_u64(rank);
    write_frame(&mut stream, 0, &e.finish())?;
    worker_loop(stream)
}

/// Worker entry hook for host binaries that spawn the multi-process
/// backend by re-executing themselves ([`super::SpawnSpec::SelfExec`]):
/// call this before doing anything else in `main` (or from a `#[test]`
/// named `spawned_worker_entry` in test binaries). When the worker
/// environment variables are absent this is a no-op; when present, the
/// process serves tasks and **exits** instead of returning.
pub fn maybe_serve() {
    if std::env::var(ENV_SOCKET).is_err() {
        return;
    }
    #[cfg(unix)]
    match serve_from_env() {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("tt-dist worker failed: {e}");
            std::process::exit(1);
        }
    }
    #[cfg(not(unix))]
    {
        eprintln!("tt-dist worker requested on a non-unix platform");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The values the request/reply samples are built from.
    struct Seed {
        key: u64,
        data: Vec<f64>,
        cdata: Vec<Complex64>,
        rows: Vec<u64>,
    }

    fn fixed_seed() -> Seed {
        Seed {
            key: 77,
            data: vec![1.5, -2.25, -0.0],
            cdata: vec![Complex64::new(0.1, -0.2), Complex64::I],
            rows: vec![1, 3],
        }
    }

    /// Name of a request's variant. Exhaustive on purpose — no wildcard
    /// arm — so a new variant does not compile until it is listed here,
    /// and `samples_cover_every_variant` fails until [`REQUEST_VARIANTS`]
    /// names it and [`sample_requests`] carries a sample of it.
    fn request_variant(req: &Request) -> &'static str {
        match req {
            Request::Ping => "Ping",
            Request::Free { .. } => "Free",
            Request::Upload { .. } => "Upload",
            Request::UploadCoords { .. } => "UploadCoords",
            Request::UploadSs { .. } => "UploadSs",
            Request::CacheStats => "CacheStats",
            Request::DenseChunk { .. } => "DenseChunk",
            Request::Contract { .. } => "Contract",
            Request::SdChunk { .. } => "SdChunk",
            Request::SsChunk { .. } => "SsChunk",
            Request::QrThin { .. } => "QrThin",
            Request::SvdTrunc { .. } => "SvdTrunc",
            Request::ChainSd { .. } => "ChainSd",
            Request::Download { .. } => "Download",
            Request::Shutdown => "Shutdown",
        }
    }
    /// Every request variant, in wire-number order.
    const REQUEST_VARIANTS: [&str; 15] = [
        "Ping",
        "Free",
        "Upload",
        "UploadCoords",
        "UploadSs",
        "CacheStats",
        "DenseChunk",
        "Contract",
        "SdChunk",
        "SsChunk",
        "QrThin",
        "SvdTrunc",
        "ChainSd",
        "Download",
        "Shutdown",
    ];

    /// Same contract as [`request_variant`], for replies.
    fn reply_variant(rep: &Reply) -> usize {
        match rep {
            Reply::Pong => 0,
            Reply::Unit => 1,
            Reply::Buf(_) => 2,
            Reply::Entries { .. } => 3,
            Reply::Factors { .. } => 4,
            Reply::Svd { .. } => 5,
            Reply::Stats { .. } => 6,
            Reply::Fail(_) => 7,
        }
    }
    const REPLY_VARIANTS: usize = 8;

    /// Every request variant; every dense-buffer-carrying one under both
    /// element tags, inline and keyed, and `Contract` under every `out`.
    fn sample_requests(s: &Seed) -> Vec<Request> {
        let Seed { key, rows, .. } = s;
        let key = *key;
        let vals: Vec<f64> = rows.iter().map(|&r| f64::from_bits(r ^ 0x5a5a)).collect();
        let coords = OpCoords::Inline {
            rows: rows.clone(),
            cols: rows.clone(),
            vals: vals.clone(),
        };
        let ss = OpSs::Inline {
            keys: rows.clone(),
            lens: vec![1; rows.len()],
            cols: rows.clone(),
            vals: vals.clone(),
        };
        let mut reqs = vec![
            Request::Ping,
            Request::Free { key },
            Request::UploadCoords {
                key,
                rows: rows.clone(),
                cols: rows.clone(),
                vals: vals.clone(),
            },
            Request::UploadSs {
                key,
                keys: rows.clone(),
                lens: vec![1; rows.len()],
                cols: rows.clone(),
                vals,
            },
            Request::CacheStats,
            Request::SsChunk {
                a: coords.clone(),
                b: OpSs::Key(key),
                r0: 0,
                r1: key,
                n: key,
                ax_dims: rows.clone(),
                ax_strides: rows.clone(),
                cx_dims: rows.clone(),
                cx_strides: rows.clone(),
                mask: Some(rows.clone()),
            },
            Request::SsChunk {
                a: OpCoords::Key(key),
                b: ss,
                r0: 0,
                r1: 7,
                n: 5,
                ax_dims: vec![7],
                ax_strides: vec![5],
                cx_dims: vec![5],
                cx_strides: vec![1],
                mask: None,
            },
            Request::Download { key },
            Request::Shutdown,
        ];
        for buf in [Buf::F64(s.data.clone()), Buf::C64(s.cdata.clone())] {
            let (inline, keyed) = (Op::Inline(buf.clone()), Op::Key(key));
            reqs.push(Request::Upload {
                key,
                data: buf.clone(),
            });
            reqs.push(Request::DenseChunk {
                path: GemmPath::Packed,
                rows: rows.len(),
                k: 3,
                n: 2,
                a: inline.clone(),
                b: keyed.clone(),
            });
            for out in [
                Out::Reply,
                Out::Store { key, acc: false },
                Out::Store { key, acc: true },
            ] {
                reqs.push(Request::Contract {
                    spec: "ik,kj->ij".into(),
                    a_dims: vec![2, 3],
                    a: keyed.clone(),
                    b_dims: vec![3, 2],
                    b: inline.clone(),
                    out,
                });
            }
            reqs.push(Request::SdChunk {
                r0: 1,
                r1: 4,
                n: 2,
                a: coords.clone(),
                b: inline.clone(),
            });
            reqs.push(Request::QrThin {
                rows: 2,
                cols: 2,
                a: inline.clone(),
            });
            reqs.push(Request::SvdTrunc {
                rows: 2,
                cols: 2,
                a: keyed.clone(),
                max_rank: u64::MAX,
                cutoff: 1e-12,
                min_keep: 1,
            });
            reqs.push(Request::ChainSd {
                a: OpCoords::Key(key),
                m: 4,
                n: 2,
                b_dims: vec![3, 2],
                perm_b: vec![0, 1],
                b: inline,
                nat_dims: vec![4, 2],
                out_perm: vec![1, 0],
                store: key,
            });
        }
        reqs
    }

    /// Every reply variant, `Buf` under both element tags.
    fn sample_replies(s: &Seed) -> Vec<Reply> {
        vec![
            Reply::Pong,
            Reply::Unit,
            Reply::Buf(Buf::F64(s.data.clone())),
            Reply::Buf(Buf::C64(s.cdata.clone())),
            Reply::Entries {
                offs: s.rows.clone(),
                vals: s.rows.iter().map(|&r| f64::from_bits(r)).collect(),
                flops: s.key,
            },
            Reply::Factors {
                q_rows: 2,
                q_cols: 1,
                q: s.data.clone(),
                r_rows: 1,
                r_cols: 1,
                r: vec![2.0],
            },
            Reply::Svd {
                u_rows: 2,
                rank: 1,
                vt_cols: 2,
                u: s.data.clone(),
                s: vec![2.0],
                vt: vec![0.0, 1.0],
                trunc_err: 1e-16,
                n_discarded: 1,
            },
            Reply::Stats {
                bytes: s.key,
                entries: 3,
                hits: s.key,
                misses: 5,
            },
            Reply::Fail("boom".into()),
        ]
    }

    #[test]
    fn samples_cover_every_variant() {
        let s = fixed_seed();
        let seen: Vec<&str> = sample_requests(&s).iter().map(request_variant).collect();
        for name in REQUEST_VARIANTS {
            assert!(seen.contains(&name), "no sample of Request::{name}");
        }
        for name in seen {
            assert!(REQUEST_VARIANTS.contains(&name), "{name} is not listed");
        }
        let mut seen = [false; REPLY_VARIANTS];
        for rep in sample_replies(&s) {
            seen[reply_variant(&rep)] = true;
        }
        assert!(seen.iter().all(|&b| b), "reply variant without a sample");
    }

    #[test]
    fn requests_and_replies_roundtrip() {
        let s = fixed_seed();
        for req in sample_requests(&s) {
            let back = Request::decode(&req.encode()).unwrap();
            assert_eq!(back, req);
        }
        for rep in sample_replies(&s) {
            let back = Reply::decode(&rep.encode()).unwrap();
            assert_eq!(back, rep);
        }
    }

    /// Arbitrary f64 bit patterns (including NaNs, infinities, -0.0).
    fn any_f64s() -> impl Strategy<Value = Vec<f64>> {
        prop::collection::vec(any::<u64>(), 0..24)
            .prop_map(|bits| bits.into_iter().map(f64::from_bits).collect())
    }

    fn any_c64s() -> impl Strategy<Value = Vec<Complex64>> {
        prop::collection::vec((any::<u64>(), any::<u64>()), 0..16).prop_map(|pairs| {
            pairs
                .into_iter()
                .map(|(re, im)| Complex64::new(f64::from_bits(re), f64::from_bits(im)))
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The codec round-trips every request and reply sample with
        /// exact f64/Complex64 bit patterns (NaNs and -0.0 included), so
        /// bitwise equality is compared on the *re-encoded bytes*, not
        /// through float ==.
        #[test]
        fn handle_request_codec_is_bit_exact(
            key in any::<u64>(),
            data in any_f64s(),
            cdata in any_c64s(),
            rows in prop::collection::vec(any::<u64>(), 0..16),
        ) {
            let s = Seed { key, data, cdata, rows };
            for req in sample_requests(&s) {
                let bytes = req.encode();
                let back = Request::decode(&bytes).unwrap();
                // re-encode and compare bytes: exact bit round-trip even
                // for NaN payloads (where PartialEq would lie)
                prop_assert_eq!(back.encode(), bytes);
            }
            for rep in sample_replies(&s) {
                let bytes = rep.encode();
                prop_assert_eq!(Reply::decode(&bytes).unwrap().encode(), bytes);
            }
        }

        /// Pure garbage never panics the decoders — a malformed frame from
        /// a misbehaving worker must surface as a typed error, never crash
        /// the driver (and vice versa for requests on the worker side).
        #[test]
        fn garbage_bytes_never_panic_the_decoders(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
            let _ = Request::decode(&bytes);
            let _ = Reply::decode(&bytes);
        }
    }

    /// A frame under each retired request opcode, with a payload long
    /// enough for any fixed-width field a decoder could try to read.
    fn retired_frames() -> Vec<Vec<u8>> {
        [6u8, 8, 15, 16]
            .iter()
            .map(|&op| std::iter::once(op).chain([0x11; 40]).collect())
            .collect()
    }

    /// Every valid encoding of every sample, requests then replies, and
    /// the retired-opcode frames.
    fn sample_encodings() -> Vec<Vec<u8>> {
        let s = fixed_seed();
        let reqs = sample_requests(&s).into_iter().map(|r| r.encode());
        reqs.chain(sample_replies(&s).into_iter().map(|r| r.encode()))
            .chain(retired_frames())
            .collect()
    }

    #[test]
    fn retired_opcodes_decode_to_a_typed_fault() {
        for frame in retired_frames() {
            let err = Request::decode(&frame).unwrap_err();
            assert_eq!(
                err.as_fault().map(|f| f.kind),
                Some(FaultKind::Decode),
                "opcode {}: {err}",
                frame[0]
            );
        }
    }

    /// The README's opcode table is the contract a rank on another
    /// transport would implement: it names exactly the `Request` variants.
    #[test]
    fn readme_opcode_table_names_every_request() {
        let readme = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"));
        let table = readme
            .lines()
            .skip_while(|l| !l.starts_with("| # | request | effect | reply |"))
            .skip(2)
            .take_while(|l| l.starts_with('|'));
        let named: Vec<&str> = table
            .map(|row| {
                let cell = row.split('`').nth(1).expect("a backticked request name");
                cell.split([' ', '{'])
                    .next()
                    .expect("split yields a first piece")
            })
            .collect();
        assert_eq!(named, REQUEST_VARIANTS);
    }

    /// Every truncation of every valid message decodes to an error (or a
    /// shorter valid message for payload-trailing truncations) without
    /// panicking.
    #[test]
    fn truncated_messages_never_panic() {
        for bytes in sample_encodings() {
            for cut in 0..bytes.len() {
                let _ = Request::decode(&bytes[..cut]);
                let _ = Reply::decode(&bytes[..cut]);
            }
        }
    }

    /// Deterministic byte-flip fuzzing: xorshift-driven single- and
    /// multi-byte corruptions of valid encodings must never panic either
    /// decoder (they may decode to a different valid message — corruption
    /// detection beyond framing is not the codec's contract).
    #[test]
    fn bit_flipped_messages_never_panic() {
        let mut state = 0x243F_6A88_85A3_08D3u64; // deterministic seed
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for bytes in sample_encodings() {
            for _ in 0..64 {
                let mut m = bytes.clone();
                for _ in 0..(1 + next() % 4) {
                    let at = (next() as usize) % m.len();
                    m[at] ^= (next() % 255 + 1) as u8;
                }
                let _ = Request::decode(&m);
                let _ = Reply::decode(&m);
            }
        }
    }

    fn upload(w: &mut WorkerState, key: u64, data: Vec<f64>) {
        assert_eq!(
            w.handle(Request::Upload {
                key,
                data: Buf::F64(data)
            }),
            Some(Reply::Unit)
        );
    }

    /// Whether `key` holds `len` resident f64 words, probed with a keyed
    /// compute task — a touch that leaves the entry in place.
    fn resident(w: &mut WorkerState, key: u64, len: usize) -> bool {
        matches!(
            w.handle(Request::DenseChunk {
                path: GemmPath::Scalar,
                rows: len,
                k: 1,
                n: 1,
                a: Op::Key(key),
                b: Op::Inline(Buf::F64(vec![1.0])),
            }),
            Some(Reply::Buf(_))
        )
    }

    #[test]
    fn worker_state_store_lifecycle() {
        let mut w = WorkerState::new();
        assert_eq!(w.handle(Request::Ping), Some(Reply::Pong));
        upload(&mut w, 5, vec![1.0, 2.0]);
        assert_eq!(
            w.handle(Request::Download { key: 5 }),
            Some(Reply::Buf(Buf::F64(vec![1.0, 2.0])))
        );
        upload(&mut w, 8, vec![3.0]);
        assert_eq!(w.handle(Request::Free { key: 8 }), Some(Reply::Unit));
        assert!(matches!(
            w.handle(Request::Download { key: 8 }),
            Some(Reply::Fail(_))
        ));
        assert_eq!(w.handle(Request::Shutdown), None);
    }

    #[test]
    fn a_key_stored_twice_and_freed_once_leaves_nothing() {
        let mut w = WorkerState::new();
        // an upload replaced by an upload, a chain result replaced by a
        // chain result: one `Free` each empties the store
        upload(&mut w, 1, vec![1.0; 16]);
        upload(&mut w, 1, vec![2.0; 4]);
        for _ in 0..2 {
            let store = Out::Store { key: 2, acc: false };
            w.handle(contract([1, 1], vec![2.0], vec![3.0], store));
        }
        assert_eq!(
            w.handle(Request::CacheStats),
            Some(Reply::Stats {
                bytes: 8 * 4 + 8,
                entries: 2,
                hits: 0,
                misses: 2,
            })
        );
        for key in [1, 2] {
            assert_eq!(w.handle(Request::Free { key }), Some(Reply::Unit));
            assert!(!resident(&mut w, key, 1));
        }
        let Some(Reply::Stats { bytes, entries, .. }) = w.handle(Request::CacheStats) else {
            panic!("expected stats");
        };
        assert_eq!((bytes, entries), (0, 0));
    }

    #[test]
    fn resident_operands_serve_fused_tasks() {
        let mut w = WorkerState::new();
        // pin B, then run a dense chunk against the resident key only
        upload(&mut w, 100, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]); // 3×2
        let chunk = |b: u64| Request::DenseChunk {
            path: GemmPath::Scalar,
            rows: 1,
            k: 3,
            n: 2,
            a: Op::Inline(Buf::F64(vec![1.0, 1.0, 1.0])),
            b: Op::Key(b),
        };
        assert_eq!(
            w.handle(chunk(100)),
            Some(Reply::Buf(Buf::F64(vec![9.0, 12.0])))
        );
        // unknown key fails without killing the worker
        assert!(matches!(w.handle(chunk(999)), Some(Reply::Fail(_))));
        assert_eq!(w.handle(Request::Ping), Some(Reply::Pong));
    }

    /// A 2-operand `f64` contraction step with inline operands.
    fn contract(dims: [usize; 2], a: Vec<f64>, b: Vec<f64>, out: Out) -> Request {
        Request::Contract {
            spec: "ik,kj->ij".into(),
            a_dims: dims.to_vec(),
            a: Op::Inline(Buf::F64(a)),
            b_dims: dims.to_vec(),
            b: Op::Inline(Buf::F64(b)),
            out,
        }
    }

    #[test]
    fn chain_steps_store_accumulate_and_download() {
        let mut w = WorkerState::new();
        // C = A·B stored resident, then a second partial accumulated, then
        // downloaded — the only value-returning exit
        let a = vec![1.0, 2.0, 3.0, 4.0]; // 2×2
        let b = vec![1.0, 0.0, 0.0, 1.0]; // identity
        for acc in [false, true] {
            assert_eq!(
                w.handle(contract(
                    [2, 2],
                    a.clone(),
                    b.clone(),
                    Out::Store { key: 50, acc }
                )),
                Some(Reply::Unit)
            );
        }
        assert_eq!(
            w.handle(Request::Download { key: 50 }),
            Some(Reply::Buf(Buf::F64(vec![2.0, 4.0, 6.0, 8.0])))
        );
        // downloaded results are gone
        assert!(matches!(
            w.handle(Request::Download { key: 50 }),
            Some(Reply::Fail(_))
        ));
        // accumulating into an absent key fails cleanly
        assert!(matches!(
            w.handle(contract(
                [2, 2],
                a.clone(),
                vec![1.0; 4],
                Out::Store { key: 51, acc: true }
            )),
            Some(Reply::Fail(_))
        ));
        // the same contraction with `Out::Reply` returns what a store
        // would have kept
        assert_eq!(
            w.handle(contract([2, 2], a.clone(), b, Out::Reply)),
            Some(Reply::Buf(Buf::F64(a)))
        );
    }

    #[test]
    fn chain_steps_on_five_mode_operands_match_the_in_process_kernels() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use tt_tensor::SparseTensor;
        // H_eff step 2 at a bond dimension where the worker's ChainSd
        // reads B and writes C through run views: the stored bytes must
        // be the in-process kernel's
        let spec = "kpqg,bkqwf->bpgwf";
        let (a_dims, b_dims) = ([5usize, 2, 2, 5], [40usize, 5, 2, 2, 40]);
        let mut rng = StdRng::seed_from_u64(15);
        let b = DenseTensor::<f64>::random(b_dims, &mut rng);
        let a_dense = DenseTensor::<f64>::from_fn(a_dims, |_| {
            if rng.gen_bool(0.4) {
                rng.gen_range(-1.0..1.0)
            } else {
                0.0
            }
        });
        let a = SparseTensor::from_dense(&a_dense, 0.0);
        let plan = ContractPlan::parse(spec).unwrap();
        let (m, _k, n) = kernels::fused_dims(&plan, &a_dims, &b_dims);
        let (mut rows, mut cols, mut vals) = (Vec::new(), Vec::new(), Vec::new());
        for (r, c, v) in kernels::sparse_coords(&a, plan.free_a_positions(), plan.ctr_a_positions())
        {
            rows.push(r);
            cols.push(c);
            vals.push(v);
        }
        let mut w = WorkerState::new();
        assert_eq!(
            w.handle(Request::ChainSd {
                a: OpCoords::Inline { rows, cols, vals },
                m,
                n,
                b_dims: b_dims.to_vec(),
                perm_b: kernels::operand_perms(&plan).1,
                b: Op::Inline(Buf::F64(b.data().to_vec())),
                nat_dims: kernels::natural_dims(&plan, &a_dims, &b_dims),
                out_perm: plan.output_permutation().to_vec(),
                store: 90,
            }),
            Some(Reply::Unit)
        );
        let (local, _) =
            kernels::sd_contract(&plan, &a, &b, None, kernels::SPARSE_PAR_MIN_FLOPS).unwrap();
        assert_eq!(
            w.handle(Request::Download { key: 90 }),
            Some(Reply::Buf(Buf::F64(local.into_data())))
        );

        // the dense step on the same operands (A densified)
        let local = kernels::dense_contract(&plan, &a_dense, &b, None).unwrap();
        assert_eq!(
            w.handle(Request::Contract {
                spec: spec.into(),
                a_dims: a_dims.to_vec(),
                a: Op::Inline(Buf::F64(a_dense.into_data())),
                b_dims: b_dims.to_vec(),
                b: Op::Inline(Buf::F64(b.into_data())),
                out: Out::Reply,
            }),
            Some(Reply::Buf(Buf::F64(local.into_data())))
        );
        // a zero-width row chunk is an empty panel, not a failure
        assert_eq!(
            w.handle(Request::SdChunk {
                r0: 0,
                r1: 3,
                n: 0,
                a: OpCoords::Inline {
                    rows: vec![],
                    cols: vec![],
                    vals: vec![]
                },
                b: Op::Inline(Buf::F64(vec![])),
            }),
            Some(Reply::Buf(Buf::F64(vec![])))
        );
        // a ChainSd whose geometry contradicts its operand fails cleanly
        assert!(matches!(
            w.handle(Request::ChainSd {
                a: OpCoords::Inline {
                    rows: vec![],
                    cols: vec![],
                    vals: vec![]
                },
                m: 2,
                n: 3,
                b_dims: vec![2, 3],
                perm_b: vec![0, 0],
                b: Op::Inline(Buf::F64(vec![0.0; 6])),
                nat_dims: vec![2, 3],
                out_perm: vec![0, 1],
                store: 91,
            }),
            Some(Reply::Fail(_))
        ));
    }

    #[test]
    fn bad_tasks_fail_without_killing_the_worker() {
        let mut w = WorkerState::new();
        let f = |v: Vec<f64>| Op::Inline(Buf::F64(v));
        let c = |n: usize| Op::Inline(Buf::C64(vec![Complex64::I; n]));
        let chunk = |a: Op, b: Op| Request::DenseChunk {
            path: GemmPath::Scalar,
            rows: 2,
            k: 2,
            n: 2,
            a,
            b,
        };
        let pair = |a: Op, b: Op, out: Out| Request::Contract {
            spec: "ik,kj->ij".into(),
            a_dims: vec![2, 2],
            a,
            b_dims: vec![2, 2],
            b,
            out,
        };
        let store = |acc: bool| Out::Store { key: 70, acc };
        // an f64 result resident under key 70, a coords bucket under 71
        assert_eq!(
            w.handle(pair(f(vec![1.0; 4]), f(vec![1.0; 4]), store(false))),
            Some(Reply::Unit)
        );
        w.handle(Request::UploadCoords {
            key: 71,
            rows: vec![0],
            cols: vec![0],
            vals: vec![1.0],
        });
        let bad = [
            // wrong operand size
            chunk(f(vec![0.0; 3]), f(vec![0.0; 4])),
            // f64 `A` against Complex64 `B`, chunked and whole
            chunk(f(vec![0.0; 4]), c(4)),
            pair(c(4), f(vec![0.0; 4]), Out::Reply),
            // accumulate into a buffer of the other element type
            pair(c(4), c(4), store(true)),
            // a keyed f64-only operand that resolves to Complex64 data
            Request::QrThin {
                rows: 2,
                cols: 2,
                a: c(4),
            },
            // Download reads dense buffers only
            Request::Download { key: 71 },
        ];
        for req in bad {
            assert!(
                matches!(w.handle(req.clone()), Some(Reply::Fail(_))),
                "{req:?}"
            );
            assert_eq!(w.handle(Request::Ping), Some(Reply::Pong));
        }
        // the refused accumulate left its target intact
        assert_eq!(
            w.handle(Request::Download { key: 70 }),
            Some(Reply::Buf(Buf::F64(vec![2.0; 4])))
        );
    }
}
