//! The little-endian wire form of [`Request`] and [`Reply`].

use super::super::wire::{Dec, Enc};
use super::protocol::{Op, OpCoords, OpSs, Reply, Request, SsTable};
use crate::{DistError, Error, FaultKind, Result};

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

/// The typed fault for a number the codec does not (or no longer)
/// assigns. Retired numbers — request opcodes 3, 5, 6, 8, 9, 11, 13, 15,
/// 16 and 17, reply opcodes 3 and 5, inline-operand tag 2, sparse-sparse
/// operand tag 1, contraction output tag 0 and SVD operand tag 0 — are
/// never reassigned, so a frame from an older peer fails here instead of
/// being misread.
fn unknown(what: &str, v: u8) -> Error {
    DistError::new(FaultKind::Decode, None, format!("unknown {what} {v}")).into()
}

impl Op {
    fn put(&self, e: &mut Enc) {
        match self {
            Op::Key(k) => {
                e.put_u8(0);
                e.put_u64(*k);
            }
            Op::Inline(data) => {
                e.put_u8(1);
                e.put_f64s(data);
            }
        }
    }

    fn get(d: &mut Dec) -> Result<Self> {
        Ok(match d.u8()? {
            0 => Op::Key(d.u64()?),
            1 => Op::Inline(d.f64s()?),
            t => return Err(unknown("operand tag", t)),
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

/// A `Contract`'s output: tag 1 and the key its result is stored under
/// (tag 0, the result returned in the reply, is retired).
fn get_store_key(d: &mut Dec) -> Result<u64> {
    match d.u8()? {
        1 => d.u64(),
        t => Err(unknown("contraction output tag", t)),
    }
}

/// An `SvdTrunc`'s matrix: tag 1 and the values inline (tag 0, a
/// resident operand, is retired).
fn get_svd_operand(d: &mut Dec) -> Result<Vec<f64>> {
    match d.u8()? {
        1 => d.f64s(),
        t => Err(unknown("SVD operand tag", t)),
    }
}

impl OpSs {
    /// Tag byte 0 is the inline table, 2 a stored result; tag 1, a
    /// resident table, is retired.
    fn put(&self, e: &mut Enc) {
        match self {
            OpSs::Inline(t) => {
                e.put_u8(0);
                e.put_u64s(&t.keys);
                e.put_u64s(&t.lens);
                e.put_u64s(&t.cols);
                e.put_f64s(&t.vals);
            }
            OpSs::Key { key, key_w, col_w } => {
                e.put_u8(2);
                e.put_u64(*key);
                e.put_u64s(key_w);
                e.put_u64s(col_w);
            }
        }
    }

    fn get(d: &mut Dec) -> Result<Self> {
        match d.u8()? {
            0 => Ok(OpSs::Inline(SsTable {
                keys: d.u64s()?,
                lens: d.u64s()?,
                cols: d.u64s()?,
                vals: d.f64s()?,
            })),
            2 => Ok(OpSs::Key {
                key: d.u64()?,
                key_w: d.u64s()?,
                col_w: d.u64s()?,
            }),
            t => Err(unknown("sparse-sparse operand tag", t)),
        }
    }
}

impl Request {
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
                e.put_u8(2);
                e.put_u64(*key);
                e.put_f64s(data);
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
            Request::CacheStats => e.put_u8(7),
            Request::Contract {
                spec,
                a_dims,
                a,
                b_dims,
                b,
                key,
                acc,
            } => {
                e.put_u8(10);
                e.put_str(spec);
                put_usizes(&mut e, a_dims);
                a.put(&mut e);
                put_usizes(&mut e, b_dims);
                b.put(&mut e);
                e.put_u8(1); // the output tag of a store (`get_store_key`)
                e.put_u64(*key);
                e.put_bool(*acc);
            }
            Request::SsChunk {
                a,
                b,
                key,
                n,
                ax_dims,
                ax_strides,
                cx_dims,
                cx_strides,
                mask: (rows, cols),
            } => {
                e.put_u8(12);
                a.put(&mut e);
                b.put(&mut e);
                e.put_u64(*key);
                e.put_u64(*n);
                e.put_u64s(ax_dims);
                e.put_u64s(ax_strides);
                e.put_u64s(cx_dims);
                e.put_u64s(cx_strides);
                e.put_u64s(rows);
                e.put_u64s(cols);
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
                e.put_u8(1); // the inline operand's tag (`get_svd_operand`)
                e.put_f64s(a);
                e.put_u64(*max_rank);
                e.put_f64(*cutoff);
                e.put_u64(*min_keep);
            }
            Request::Download { key } => {
                e.put_u8(18);
                e.put_u64(*key);
            }
            Request::Shutdown => e.put_u8(19),
            Request::SdContract {
                a,
                key,
                m,
                n,
                b_dims,
                perm_b,
                nat_dims,
                out_perm,
                b,
            } => {
                e.put_u8(20);
                a.put(&mut e);
                e.put_u64(*key);
                e.put_usize(*m);
                e.put_usize(*n);
                put_usizes(&mut e, b_dims);
                put_usizes(&mut e, perm_b);
                put_usizes(&mut e, nat_dims);
                put_usizes(&mut e, out_perm);
                b.put(&mut e);
            }
        }
        e.finish()
    }

    /// Decode from the wire format.
    pub(crate) fn decode(bytes: &[u8]) -> Result<Self> {
        let mut d = Dec::new(bytes);
        let req = match d.u8()? {
            0 => Request::Ping,
            1 => Request::Free { key: d.u64()? },
            2 => Request::Upload {
                key: d.u64()?,
                data: d.f64s()?,
            },
            4 => Request::UploadCoords {
                key: d.u64()?,
                rows: d.u64s()?,
                cols: d.u64s()?,
                vals: d.f64s()?,
            },
            7 => Request::CacheStats,
            10 => Request::Contract {
                spec: d.str()?,
                a_dims: get_usizes(&mut d)?,
                a: Op::get(&mut d)?,
                b_dims: get_usizes(&mut d)?,
                b: Op::get(&mut d)?,
                key: get_store_key(&mut d)?,
                acc: d.bool()?,
            },
            12 => Request::SsChunk {
                a: OpCoords::get(&mut d)?,
                b: OpSs::get(&mut d)?,
                key: d.u64()?,
                n: d.u64()?,
                ax_dims: d.u64s()?,
                ax_strides: d.u64s()?,
                cx_dims: d.u64s()?,
                cx_strides: d.u64s()?,
                mask: (d.u64s()?, d.u64s()?),
            },
            14 => Request::SvdTrunc {
                rows: d.usize()?,
                cols: d.usize()?,
                a: get_svd_operand(&mut d)?,
                max_rank: d.u64()?,
                cutoff: d.f64()?,
                min_keep: d.u64()?,
            },
            18 => Request::Download { key: d.u64()? },
            19 => Request::Shutdown,
            20 => Request::SdContract {
                a: OpCoords::get(&mut d)?,
                key: d.u64()?,
                m: d.usize()?,
                n: d.usize()?,
                b_dims: get_usizes(&mut d)?,
                perm_b: get_usizes(&mut d)?,
                nat_dims: get_usizes(&mut d)?,
                out_perm: get_usizes(&mut d)?,
                b: Op::get(&mut d)?,
            },
            op => return Err(unknown("request opcode", op)),
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
            Reply::Buf(data) => {
                e.put_u8(2);
                e.put_f64s(data);
            }
            Reply::Entries { offs, vals } => {
                e.put_u8(4);
                e.put_u64s(offs);
                e.put_f64s(vals);
            }
            Reply::Merged { touched, flops } => {
                e.put_u8(9);
                e.put_u64(*touched);
                e.put_u64(*flops);
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
            2 => Reply::Buf(d.f64s()?),
            4 => Reply::Entries {
                offs: d.u64s()?,
                vals: d.f64s()?,
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
            9 => Reply::Merged {
                touched: d.u64()?,
                flops: d.u64()?,
            },
            op => return Err(unknown("reply opcode", op)),
        };
        Ok(rep)
    }
}
