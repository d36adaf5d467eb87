//! Dense × dense contraction: the block-pair batch of the list algorithm,
//! one whole [`Request::Contract`] per pair on the cluster, and a single
//! contraction as its one-pair case.

use super::keys;
use super::residency::{op_state, whole_home, Charge, OpCharge, Superstep};
#[cfg(doc)]
use super::ExecMode;
use super::{expect_buf, DenseOp, Executor};
use crate::cluster::{Cluster, Placement};
use crate::kernels;
use crate::transport::worker::{Out, Request};
use crate::Result;
use tt_tensor::einsum::ContractPlan;
use tt_tensor::DenseTensor;

impl Executor {
    /// Distributed dense × dense contraction (einsum grammar), each
    /// operand by value (`&DenseTensor<f64>`) or by resident handle
    /// (`&OpHandle`): [`Executor::contract_batch`] of one pair. Results
    /// and α–β charges are bitwise-identical on every backend and for
    /// either operand form.
    pub fn contract<'a>(
        &self,
        spec: &str,
        a: impl Into<DenseOp<'a>>,
        b: impl Into<DenseOp<'a>>,
    ) -> Result<DenseTensor<f64>> {
        let mut c = self.contract_batch(spec, &[(a.into(), b.into())])?;
        Ok(c.pop().expect("one pair, one result"))
    }

    /// Contract many independent operand pairs (each operand by value or
    /// by handle) with one spec — the block-pair fan-out of the list
    /// algorithm.
    ///
    /// In [`ExecMode::Threaded`] every pair runs on a pool lane, borrowing
    /// its operands (each internally sequential: pair-level parallelism
    /// replaces row-level parallelism, so per-element accumulation order
    /// is unchanged); a lone pair keeps the pool for its row panels. On
    /// the multi-process backend the whole batch is one superstep of one
    /// whole-pair `Contract` task per pair: a handle-bearing pair is routed to
    /// the rank already holding one of its operands (deterministically;
    /// round-robin otherwise), and whole-tensor uploads a miss requires
    /// ride in the same superstep as the pair tasks. With the retention
    /// cache on ([`Executor::set_retention_cap`]), value operands are
    /// content-keyed through it so they ship once fleet-wide, while
    /// their α–β charges stay those of values. Results come back in
    /// submission order and costs are charged in that same order on the
    /// caller thread, keeping both the numerics and the cost counters
    /// bitwise-deterministic.
    pub fn contract_batch(
        &self,
        spec: &str,
        pairs: &[(DenseOp, DenseOp)],
    ) -> Result<Vec<DenseTensor<f64>>> {
        let plan = ContractPlan::parse(spec)?;
        // validate every pair up front (fused_dims/flop_count index by
        // plan positions and would panic on mismatched operand orders),
        // and snapshot the cost parameters
        let mut shapes = Vec::with_capacity(pairs.len());
        for (a, b) in pairs {
            let (at, bt) = (a.tensor()?, b.tensor()?);
            let dims = plan.output_dims(at.dims(), bt.dims())?;
            let (m, k, n) = kernels::fused_dims(&plan, at.dims(), bt.dims());
            shapes.push((dims, m, k, n, plan.flop_count(at.dims(), bt.dims())));
        }
        let results = if let Some(cl) = &self.cluster {
            // value-operand auto-residency: the physical dispatch sees
            // content-keyed handles, the charges below the original values
            let mut autos = Vec::with_capacity(2 * pairs.len());
            for (a, b) in pairs {
                autos.push(self.auto_handle(a, a.tensor()?));
                autos.push(self.auto_handle(b, b.tensor()?));
            }
            let physical: Vec<(DenseOp, DenseOp)> = pairs
                .iter()
                .zip(autos.chunks(2))
                .map(|(&(a, b), auto)| {
                    let [ha, hb] = [&auto[0], &auto[1]].map(Option::as_ref);
                    (ha.map_or(a, DenseOp::from), hb.map_or(b, DenseOp::from))
                })
                .collect();
            // (the lock guard ends with the statement: `finish_auto` takes
            // the cluster lock itself)
            let bufs = self.pairs_over_cluster(&mut cl.lock(), spec, &physical);
            for auto in autos {
                self.finish_auto(auto);
            }
            bufs?
                .into_iter()
                .zip(&shapes)
                .map(|(c, (dims, ..))| Ok(DenseTensor::from_vec(dims.clone(), c)?))
                .collect::<Result<Vec<_>>>()?
        } else {
            // with a pool, pair-level parallelism replaces row-level: a
            // fanned out pair runs sequentially on its lane, a lone pair
            // keeps its row panels (bitwise-identical by construction
            // either way)
            let pool = self.pool();
            let rows = pool.filter(|_| pairs.len() == 1);
            kernels::ordered_map(pool, 0..pairs.len(), |i| {
                let (a, b) = &pairs[i];
                kernels::dense_contract(&plan, a.tensor()?, b.tensor()?, rows, &self.workspace)
            })
            .into_iter()
            .collect::<Result<Vec<_>>>()?
        };
        let states: Vec<[OpCharge; 2]> = {
            let mut res = self.residency.lock();
            let pairs = pairs.iter().zip(&shapes);
            pairs
                .map(|((a, b), &(_, m, k, n, _))| {
                    let sa = op_state(&mut res, a.handle(), keys::whole, m * k);
                    [sa, op_state(&mut res, b.handle(), keys::whole, k * n)]
                })
                .collect()
        };
        let charges = shapes.iter().zip(&states);
        self.charge_contractions(charges.map(|(&(_, m, _, n, flops), &[a, b])| Charge {
            a,
            b,
            words_c: m * n,
            m,
            n,
            flops,
            sparse: false,
        }));
        Ok(results)
    }

    /// One superstep of one whole-pair [`Request::Contract`] per pair,
    /// with residency-aware placement; the raw result buffers in
    /// submission order. (Worker-side kernel flop counts travel back with
    /// every reply — see the counter-delta prefix in `transport::process`
    /// — so the driver's global counter matches the in-process backends.)
    fn pairs_over_cluster(
        &self,
        cl: &mut Cluster,
        spec: &str,
        pairs: &[(DenseOp, DenseOp)],
    ) -> Result<Vec<Vec<f64>>> {
        let mut placement = Placement::new(cl.ranks());
        let mut step = Superstep::default();
        {
            let mut res = self.residency.lock();
            for (a, b) in pairs {
                let (at, bt) = (a.tensor()?, b.tensor()?);
                // the B operand's home wins: in the block-pair fan-out B
                // is the short-lived operand (a Davidson vector block), so
                // following it keeps every transient block on one rank
                // while the long-lived A operands spread to at most one
                // extra home per pair rank
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
        step.run(cl)?.into_iter().map(expect_buf).collect()
    }
}
