//! Dense × dense contraction: one contraction chunked by row slabs, and
//! the block-pair batch of the list algorithm.

use super::keys;
use super::residency::{whole_home, Superstep};
#[cfg(doc)]
use super::ExecMode;
use super::{expect_buf, DenseOp, Executor};
use crate::cluster::{Cluster, Placement};
use crate::kernels;
use crate::transport::worker::{Op, Out, Request};
use crate::Result;
use tt_tensor::einsum::ContractPlan;
use tt_tensor::gemm::gemm_path;
use tt_tensor::DenseTensor;

impl Executor {
    /// Distributed dense × dense contraction (einsum grammar), each
    /// operand by value (`&DenseTensor<f64>`) or by resident handle
    /// (`&OpHandle`). Results and α–β charges are bitwise-identical on
    /// every backend and for either operand form.
    pub fn contract<'a>(
        &self,
        spec: &str,
        a: impl Into<DenseOp<'a>>,
        b: impl Into<DenseOp<'a>>,
    ) -> Result<DenseTensor<f64>> {
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
            let a_phys = auto_a.as_ref().map(DenseOp::from).unwrap_or(a);
            let b_phys = auto_b.as_ref().map(DenseOp::from).unwrap_or(b);
            self.dense_over_cluster(&mut cl.lock(), &plan, &a_phys, &b_phys)?
        } else {
            kernels::dense_contract(&plan, at, bt, self.pool())?
        };
        self.finish_auto(auto_a);
        self.finish_auto(auto_b);
        let (m, k, n) = kernels::fused_dims(&plan, at.dims(), bt.dims());
        let flops = plan.flop_count(at.dims(), bt.dims());
        let (perm_a, perm_b) = kernels::operand_perms(&plan);
        let path = gemm_path(k, n);
        let sa = self.op_state(
            a.handle(),
            |h| keys::dense_a(h, &perm_a, path).logical(),
            m * k,
        );
        let sb = self.op_state(b.handle(), |h| keys::matrix_b(h, &perm_b), k * n);
        self.charge_contraction(sa, sb, m * n, m, n, flops, false);
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
    /// kernel.
    fn dense_over_cluster(
        &self,
        cl: &mut Cluster,
        plan: &ContractPlan,
        a: &DenseOp,
        b: &DenseOp,
    ) -> Result<DenseTensor<f64>> {
        let (at, bt) = (a.tensor()?, b.tensor()?);
        let p = cl.ranks();
        let ((m, k, n), path, ranges) = kernels::dense_prepare(plan, at.dims(), bt.dims(), p)?;
        let (perm_a, perm_b) = kernels::operand_perms(plan);
        let nchunks = ranges.len();
        let mut step = Superstep::default();
        // B: the replicated permuted matrix; A: one row slab per chunk,
        // each a resident buffer of its own for a handle
        let (b_field, a_fields) = {
            let mut res = self.residency.lock();
            let b_field = step.replicated(&mut res, b, &perm_b, nchunks.min(p))?;
            let mut a_mat: Option<Vec<f64>> = None;
            let mut slab = |(r0, r1): (usize, usize)| -> Result<_> {
                let mat = match &a_mat {
                    Some(mat) => mat,
                    None => a_mat.insert(at.permute(&perm_a)?.into_data()),
                };
                Ok(mat[r0 * k..r1 * k].to_vec())
            };
            let mut a_fields = Vec::with_capacity(nchunks);
            for (i, &range) in ranges.iter().enumerate() {
                a_fields.push(match a.handle() {
                    None => Op::Inline(slab(range)?),
                    Some(h) => {
                        let key = keys::dense_a(h, &perm_a, path).chunk(nchunks, i);
                        step.ensure(&mut res, h.key(), key, i % p, || {
                            Ok(Request::Upload {
                                key,
                                data: slab(range)?,
                            })
                        })?;
                        Op::Key(key)
                    }
                });
            }
            (b_field, a_fields)
        };
        for (i, (a, &(r0, r1))) in a_fields.into_iter().zip(&ranges).enumerate() {
            let (rows, b) = (r1 - r0, b_field.clone());
            step.task(
                i % p,
                Request::DenseChunk {
                    path,
                    rows,
                    k,
                    n,
                    a,
                    b,
                },
            );
        }
        // (worker-side kernel flop counts travel back with every reply —
        // see the counter-delta prefix in transport::process — so the
        // driver's global counter matches the in-process backends)
        let mut c = Vec::with_capacity(m * n);
        for reply in step.run(cl)? {
            c.extend_from_slice(&expect_buf(reply)?);
        }
        kernels::natural_output(plan, at.dims(), bt.dims(), c)
    }

    /// Contract many independent operand pairs (each operand by value or
    /// by handle) with one spec — the block-pair fan-out of the list
    /// algorithm.
    ///
    /// In [`ExecMode::Threaded`] every pair runs on a pool lane, borrowing
    /// its operands (each internally sequential: pair-level parallelism
    /// replaces row-level parallelism, so per-element accumulation order
    /// is unchanged). On the multi-process backend a handle-bearing pair is
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
        let plan = ContractPlan::parse(spec)?;
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
            let sa = self.op_state(a.handle(), keys::whole, m * k);
            let sb = self.op_state(b.handle(), keys::whole, k * n);
            self.charge_contraction(sa, sb, m * n, m, n, flops, false);
        };
        if let Some(cl) = &self.cluster {
            // one whole pair per rank: pair-level parallelism across
            // worker processes, residency-aware placement, replies in
            // submission order
            let mut cl = cl.lock();
            let p = cl.ranks();
            let mut placement = Placement::new(p);
            let mut step = Superstep::default();
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
                    let request = Request::Contract {
                        spec: spec.to_string(),
                        a_dims: at.dims().to_vec(),
                        a: step.whole(&mut res, *a, rank)?,
                        b_dims: bt.dims().to_vec(),
                        b: step.whole(&mut res, *b, rank)?,
                        out: Out::Reply,
                    };
                    step.task(rank, request);
                }
            }
            let replies = step.run(&mut cl)?;
            drop(cl);
            let mut out = Vec::with_capacity(pairs.len());
            for ((reply, pair), &chg) in replies.into_iter().zip(pairs).zip(&charges) {
                let (at, bt) = (pair.0.tensor()?, pair.1.tensor()?);
                let dims = plan.output_dims(at.dims(), bt.dims())?;
                out.push(DenseTensor::from_vec(dims, expect_buf(reply)?)?);
                charge_pair(pair, chg);
            }
            return Ok(out);
        }
        // with a pool, pair-level parallelism replaces row-level: a fanned
        // out pair runs sequentially on its lane, a lone pair keeps its
        // row panels (bitwise-identical by construction either way)
        let pool = self.pool();
        let rows = pool.filter(|_| pairs.len() == 1);
        let results = kernels::ordered_map(pool, pairs.len(), |i| {
            let (a, b) = &pairs[i];
            kernels::dense_contract(&plan, a.tensor()?, b.tensor()?, rows)
        });
        let mut out = Vec::with_capacity(results.len());
        for ((r, pair), &chg) in results.into_iter().zip(pairs).zip(&charges) {
            out.push(r?);
            charge_pair(pair, chg);
        }
        Ok(out)
    }
}
