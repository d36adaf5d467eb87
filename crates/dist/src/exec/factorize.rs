//! Truncated SVD and thin QR, single and batched, through one driver;
//! tall panels route through the TSQR tree.

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
pub(super) fn tall_panel(dims: &[usize]) -> bool {
    dims.len() == 2
        && dims[1] > 0
        && dims[0] >= TSQR_MIN_ROWS
        && dims[0] >= TSQR_MIN_ASPECT * dims[1]
}

impl Executor {
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
            &|m| tt_linalg::svd_trunc(m, spec),
            &|(q, r)| {
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
            &|rows, cols, a| Request::QrThin { rows, cols, a },
            &decode_qr,
            &tt_linalg::qr_thin,
            &Ok,
        )
    }

    /// The one factorization driver: factor every matrix of `mats` — on
    /// the worker `make_req` addresses and `decode` reads back, or with
    /// `local` in-process — and charge each, in submission order: what a
    /// contraction charges a whole operand (nothing extra by value, the
    /// one-time upload on a handle's first observation), then the
    /// factorization costing `flop_coeff · max(m,n) · min²` flops. A tall
    /// panel factors through the TSQR tree and `from_tsqr` instead.
    fn factorize<R: Send>(
        &self,
        mats: &[DenseOp],
        flop_coeff: f64,
        make_req: &dyn Fn(usize, usize, Op) -> Request,
        decode: &dyn Fn(Reply) -> Result<R>,
        local: &(dyn Fn(&DenseTensor<f64>) -> tt_linalg::Result<R> + Sync),
        from_tsqr: &dyn Fn((DenseTensor<f64>, DenseTensor<f64>)) -> Result<R>,
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
pub(crate) fn decode_qr(reply: Reply) -> Result<(DenseTensor<f64>, DenseTensor<f64>)> {
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
