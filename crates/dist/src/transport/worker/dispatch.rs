//! Executing one request against a rank's store.

use super::protocol::{OpCoords, Reply, Request};
use super::store::{Cached, WorkerState};
use crate::kernels;
use crate::{Error, Result};
use std::borrow::Cow;
use std::sync::Arc;
use tt_linalg::TruncSpec;
use tt_tensor::einsum::ContractPlan;
use tt_tensor::view::Epilogue;
use tt_tensor::DenseTensor;

impl WorkerState {
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
                self.free(key);
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
            Request::CacheStats => Ok(Reply::Stats {
                bytes: self.bytes,
                entries: self.store.len() as u64,
                hits: self.hits,
                misses: self.misses,
            }),
            Request::Contract {
                spec,
                a_dims,
                a,
                b_dims,
                b,
                key,
                acc,
            } => {
                let plan = ContractPlan::parse(&spec)?;
                let (a, b) = (self.op(a)?, self.op(b)?);
                let ta = DenseTensor::from_vec(a_dims, Self::take(a))?;
                let tb = DenseTensor::from_vec(b_dims, Self::take(b))?;
                if acc {
                    self.accumulate(key, |target| {
                        kernels::dense_into(&plan, &ta, &tb, None, target, Epilogue::Add)
                    })?;
                } else {
                    let c = kernels::dense_contract(&plan, &ta, &tb, None, &self.workspace)?;
                    self.store(key, c.into_data());
                }
                Ok(Reply::Unit)
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
                let coords = self.opcoords(a)?;
                let table = self.opss(b, n)?;
                // the merge trusts both: a row past the mask lands in another
                // row's slots, a descending key misses its match
                if !coords.windows(2).all(|w| w[0].1 <= w[1].1) {
                    return Err(Error::transport("ss chunk A keys descend"));
                }
                // an offset unfuses each fused index over its axes: they
                // must hold the `m` rows and the `n` columns
                let fused = |dims: &[u64]| dims.iter().try_fold(1u64, |p, &d| p.checked_mul(d));
                let m = fused(&ax_dims).filter(|_| fused(&cx_dims) == Some(n));
                let m =
                    m.ok_or_else(|| Error::transport("ss chunk rows or columns off its axes"))?;
                if coords.iter().any(|&(row, _, _)| row >= m) {
                    return Err(Error::transport("ss chunk A row outside the mask"));
                }
                let map = kernels::slot_map(&rows, &cols, m as _, n as _)?;
                let row_axes = ax_dims.into_iter().zip(ax_strides).collect();
                let axes = (row_axes, cx_dims.into_iter().zip(cx_strides).collect());
                let slots = kernels::ss_slots(&coords, &table, &map, None);
                let result = kernels::SsSlots {
                    map: Arc::new(map),
                    slots,
                    axes,
                };
                let (touched, flops) = (result.touched() as u64, result.slots.flops);
                self.insert(key, Cached::Slots(Arc::new(result)));
                Ok(Reply::Merged { touched, flops })
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
                let t = kernels::svd_trunc(&DenseTensor::from_vec([rows, cols], a)?, spec)?;
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
                let coords = self.opcoords(a)?;
                let b = self.op(b)?;
                // the kernel indexes `C` by row and `B` by column unchecked:
                // a row past `m` would land past the buffer, a column past
                // `B`'s `k` rows
                let k = b.len().checked_div(n).unwrap_or(0) as u64;
                let outside = |&(row, col, _): &kernels::Coord| row >= m as u64 || col >= k;
                if coords.iter().any(outside) {
                    return Err(Error::transport(format!(
                        "sd entries outside {m} rows or B's {k} rows"
                    )));
                }
                let g = kernels::SdGeometry {
                    m,
                    n,
                    b_dims: &b_dims,
                    perm_b: &perm_b,
                    nat_dims: &nat_dims,
                    out_perm: &out_perm,
                };
                let coords = Cow::Borrowed(&coords[..]);
                let c = kernels::sd_apply(&g, &b, coords, 1, None, &self.workspace)?;
                self.store(key, c.into_data());
                Ok(Reply::Unit)
            }
            Request::Download { key } => {
                // refused before anything is removed: a refused download
                // leaves the store as it found it
                if !matches!(
                    self.store.get(&key),
                    Some(Cached::Dense(_) | Cached::Slots(_))
                ) {
                    return Err(Error::transport(format!("no result under key {key:#x}")));
                }
                // the store's reference goes, so a buffer moves out whole
                let (offs, vals) = match self.remove(key) {
                    Some(Cached::Dense(buf)) => return Ok(Reply::Buf(Self::take(buf))),
                    Some(Cached::Slots(result)) => result.entries(),
                    _ => unreachable!("checked above"),
                };
                Ok(Reply::Entries { offs, vals })
            }
        }
    }
}
