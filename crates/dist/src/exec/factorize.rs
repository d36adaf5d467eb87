//! Truncated SVD and thin QR, single and batched, through one driver.

use super::keys;
use super::residency::{whole_home, OpCharge, Superstep, MAP_OVERHEAD_S};
#[cfg(doc)]
use super::ExecMode;
use super::{DenseOp, Executor};
use crate::cluster::Placement;
use crate::cost;
use crate::kernels;
use crate::transport::worker::{Op, Reply, Request};
use crate::{Error, Result};
use tt_linalg::{TruncSpec, TruncatedSvd};
use tt_tensor::DenseTensor;

impl Executor {
    /// Distributed truncated SVD of a matrix, by value or by resident
    /// handle (the ScaLAPACK `pdgesvd` stand-in used under the block SVD).
    /// On the multi-process backend the factorization executes on a worker
    /// process (same code, same bits) — the one holding the matrix, for a
    /// handle. A tall panel (at least 32 rows, and 8× as many rows as
    /// columns) is QR-factored first, wherever it runs: the SVD is of the
    /// small `R`, and `U = Q · U_R`.
    pub fn svd_trunc<'a>(
        &self,
        a: impl Into<DenseOp<'a>>,
        spec: TruncSpec,
    ) -> Result<TruncatedSvd> {
        let mut out = self.svd_trunc_batch(&[a.into()], spec)?;
        Ok(out.pop().expect("one matrix, one factorization"))
    }

    /// Distributed thin QR of a matrix, by value or by resident handle:
    /// one `qr_thin`, whatever the panel's shape.
    pub fn qr<'a>(
        &self,
        a: impl Into<DenseOp<'a>>,
    ) -> Result<(DenseTensor<f64>, DenseTensor<f64>)> {
        let mut out = self.qr_batch(&[a.into()])?;
        Ok(out.pop().expect("one matrix, one factorization"))
    }

    /// Truncated SVDs of many independent matrices (the sector groups of a
    /// block SVD), each by value or by resident handle. In
    /// [`ExecMode::Threaded`] the factorizations fan out over the pool,
    /// each borrowing its matrix; on
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
            &|rows, cols, a| Request::SvdTrunc {
                rows,
                cols,
                a,
                max_rank: spec.max_rank as u64,
                cutoff: spec.cutoff,
                min_keep: spec.min_keep as u64,
            },
            &decode_svd,
            &|m| kernels::svd_trunc(m, spec),
        )
    }

    /// Thin QRs of many independent matrices (the sector groups of a block
    /// QR); see [`Executor::svd_trunc_batch`].
    pub fn qr_batch(&self, mats: &[DenseOp]) -> Result<Vec<(DenseTensor<f64>, DenseTensor<f64>)>> {
        self.factorize(
            mats,
            4.0,
            &|rows, cols, a| Request::QrThin { rows, cols, a },
            &decode_qr,
            &tt_linalg::qr_thin,
        )
    }

    /// The one factorization driver: factor every matrix of `mats` — on
    /// the worker `make_req` addresses and `decode` reads back, or with
    /// `local` in-process — and charge each, in submission order: what a
    /// contraction charges a whole operand (nothing extra by value, the
    /// one-time upload on a handle's first observation), then the
    /// factorization costing `flop_coeff · max(m,n) · min²` flops.
    fn factorize<R: Send>(
        &self,
        mats: &[DenseOp],
        flop_coeff: f64,
        make_req: &dyn Fn(usize, usize, Op) -> Request,
        decode: &dyn Fn(Reply) -> Result<R>,
        local: &(dyn Fn(&DenseTensor<f64>) -> tt_linalg::Result<R> + Sync),
    ) -> Result<Vec<R>> {
        let tensors = mats
            .iter()
            .map(|m| m.tensor())
            .collect::<Result<Vec<_>>>()?;
        let charge = |op: &DenseOp, t: &DenseTensor<f64>| {
            if let OpCharge::Miss(w) = self.op_state(op.handle(), keys::whole, t.len()) {
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
            let mut step = Superstep::default();
            {
                let mut res = self.residency.lock();
                for (op, t) in mats.iter().zip(&tensors) {
                    let rank = placement.place([whole_home(&res, op)]);
                    let field = step.whole(&mut res, *op, rank)?;
                    step.task(rank, make_req(t.dims()[0], t.dims()[1], field));
                }
            }
            let replies = step.run(&mut cl)?;
            drop(cl);
            for ((reply, op), t) in replies.into_iter().zip(mats).zip(tensors) {
                out.push(decode(reply)?);
                charge(op, t);
            }
            return Ok(out);
        }
        // in-process, charging per matrix in submission order exactly like
        // the cluster path (same float accumulation order ⇒ bitwise-equal
        // counters across backends)
        let results = kernels::ordered_map(self.pool(), tensors.len(), |i| local(tensors[i]));
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
