//! Truncated SVD, single and batched: the one dense factorization a sweep
//! runs.

use super::residency::{Superstep, MAP_OVERHEAD_S};
#[cfg(doc)]
use super::ExecMode;
use super::Executor;
use crate::cost;
use crate::kernels;
use crate::transport::worker::{Op, Reply, Request};
use crate::{Error, Result};
use tt_linalg::{TruncSpec, TruncatedSvd};
use tt_tensor::DenseTensor;

impl Executor {
    /// Distributed truncated SVD of a matrix (the ScaLAPACK `pdgesvd`
    /// stand-in used under the block SVD: [`tt_linalg::svd_trunc`] runs
    /// `pdgesvd`'s algorithm, Householder bidiagonalization and
    /// implicit-shift QR, on one core). On the multi-process backend the
    /// factorization executes on a worker process (same code, same bits),
    /// the matrix shipped with the task. A tall panel (at least 32 rows,
    /// and 8× as many rows as columns) is QR-factored first, wherever it
    /// runs: the SVD is of the small `R`, and `U = Q · U_R`. The sign of
    /// each kept triple is fixed last ([`TruncatedSvd::fix_signs`]). A
    /// matrix the SVD cannot factor (a NaN or an infinity in it) fails
    /// with the typed [`tt_linalg::Error::NoConvergence`] — in-process as
    /// [`Error::Linalg`], from a worker as a task fault.
    pub fn svd_trunc(&self, a: &DenseTensor<f64>, spec: TruncSpec) -> Result<TruncatedSvd> {
        let mut out = self.svd_trunc_batch(std::slice::from_ref(a), spec)?;
        Ok(out.pop().expect("one matrix, one factorization"))
    }

    /// Truncated SVDs of many independent matrices (the sector groups of a
    /// block SVD). In [`ExecMode::Threaded`] the factorizations fan out
    /// over the pool, each borrowing its matrix; on the multi-process
    /// backend they are one superstep, matrix `i` shipped to rank
    /// `i mod p` with its task. Results return in submission order and
    /// costs are charged in that order, so factors and counters match the
    /// serial loop of [`Executor::svd_trunc`] exactly. A batch holding
    /// anything but matrices fails on every backend before it charges or
    /// sends anything.
    pub fn svd_trunc_batch(
        &self,
        mats: &[DenseTensor<f64>],
        spec: TruncSpec,
    ) -> Result<Vec<TruncatedSvd>> {
        if let Some((i, t)) = mats.iter().enumerate().find(|(_, t)| t.order() != 2) {
            return Err(Error::Linalg(tt_linalg::Error::Shape(format!(
                "svd_trunc_batch: operand {i} has dims {:?}, not a matrix",
                t.dims()
            ))));
        }
        let results: Vec<Result<TruncatedSvd>> = match &self.cluster {
            Some(cl) => {
                let mut cl = cl.lock();
                let p = cl.ranks();
                let mut step = Superstep::default();
                for (i, t) in mats.iter().enumerate() {
                    let req = Request::SvdTrunc {
                        rows: t.dims()[0],
                        cols: t.dims()[1],
                        a: Op::Inline(t.data().to_vec()),
                        max_rank: spec.max_rank as u64,
                        cutoff: spec.cutoff,
                        min_keep: spec.min_keep as u64,
                    };
                    step.task(i % p, req);
                }
                step.run(&mut cl)?.into_iter().map(decode_svd).collect()
            }
            // in-process, charged per matrix in submission order exactly
            // like the cluster path (same float accumulation order ⇒
            // bitwise-equal counters across backends)
            None => kernels::ordered_map(self.pool(), mats, |t| Ok(kernels::svd_trunc(t, spec)?)),
        };
        let mut out = Vec::with_capacity(mats.len());
        for (r, t) in results.into_iter().zip(mats) {
            out.push(r?);
            self.charge_factorization(t.dims());
        }
        Ok(out)
    }

    /// Charge an `m×n` truncated SVD costing `14 · max(m,n) · min²` flops:
    /// ScaLAPACK-style half-efficiency compute plus a TSQR-shaped reduction
    /// tree (one n×n R per level).
    fn charge_factorization(&self, dims: &[usize]) {
        let (m, n) = (dims[0].max(1), dims[1].max(1));
        let k = m.min(n);
        let flops = (14.0 * (m.max(n) as f64) * (k as f64) * (k as f64)) as u64;
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
