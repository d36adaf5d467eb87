//! Dense × dense contraction: one contraction chunked by row slabs, and
//! the block-pair batch of the list algorithm.

use super::residency::{replicate_to_missing, task_replies, whole_home, whole_key, whole_op};
#[cfg(doc)]
use super::ExecMode;
use super::{expect_buf, DenseOp, DenseOpT, Executor, WireScalar};
use crate::cluster::{Cluster, Placement};
use crate::handle::{derive, hseq, Residency};
use crate::kernels;
use crate::transport::worker::{Op, Out, Request};
use crate::Result;
use std::sync::Arc;
use tt_tensor::einsum::ContractPlan;
use tt_tensor::gemm::{gemm_path, GemmPath};
#[cfg(doc)]
use tt_tensor::Complex64;
use tt_tensor::DenseTensor;

impl Executor {
    /// Distributed dense × dense contraction (einsum grammar) of `f64` or
    /// [`Complex64`] operands, each by value (`&DenseTensor<T>`) or by
    /// resident handle (`&OpHandle`). Results and α–β charges are
    /// bitwise-identical on every backend and for either operand form;
    /// decomposition and residency derivation are the same for both
    /// element types (a `Complex64` element is two stored words). Two
    /// handles leave `T` to the caller: `contract::<f64>(..)`.
    #[allow(private_bounds)]
    pub fn contract<'a, T: WireScalar>(
        &self,
        spec: &str,
        a: impl Into<DenseOpT<'a, T>>,
        b: impl Into<DenseOpT<'a, T>>,
    ) -> Result<DenseTensor<T>> {
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
        let (perm_a, perm_b) = kernels::operand_perms(&plan);
        // the A-slab contents depend on the kernel path (MC-aligned vs
        // uniform ranges), so the logical charge key tracks it too — a
        // path change is a genuine re-upload, not a cache hit
        let path = gemm_path(k, n);
        let sa = self.op_state(
            a.handle(),
            |h| derive(&[h.key(), T::TAG_A, hseq(&perm_a), path as u64]),
            T::WORDS * m * k,
        );
        let sb = self.op_state(
            b.handle(),
            |h| derive(&[h.key(), T::TAG_B, hseq(&perm_b)]),
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
        let (perm_a, perm_b) = kernels::operand_perms(plan);

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
            None => Op::Inline(T::wrap(bt.permute(&perm_b)?.into_data())),
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
                        Ok(Request::Upload {
                            key: wkey,
                            data: T::wrap(data),
                        })
                    },
                )?;
                Op::Key(wkey)
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
                AFields::Inline(mat) => Op::Inline(T::wrap(mat[r0 * k..r1 * k].to_vec())),
                AFields::Keys(keys) => Op::Key(keys[i]),
            };
            reqs.push((
                i % p,
                Request::DenseChunk {
                    path,
                    rows: r1 - r0,
                    k,
                    n,
                    a: a_field,
                    b: b_field.clone(),
                },
            ));
        }
        let mut c = Vec::with_capacity(m * n);
        for reply in cl.call_all(reqs)?.into_iter().skip(n_uploads) {
            c.extend_from_slice(&T::unwrap(expect_buf(reply)?)?);
        }
        // (worker-side kernel flop counts travel back with every reply —
        // see the counter-delta prefix in transport::process — so the
        // driver's global counter matches the in-process backends)
        let c = DenseTensor::from_vec(kernels::natural_dims(plan, at.dims(), bt.dims()), c)?;
        Ok(c.permute(plan.output_permutation())?)
    }

    /// Contract many independent operand pairs (each operand by value or
    /// by handle) with one spec — the block-pair fan-out of the list
    /// algorithm.
    ///
    /// In [`ExecMode::Threaded`] every pair runs as its own pool job
    /// (each internally sequential: pair-level parallelism replaces
    /// row-level parallelism, so per-element accumulation order is
    /// unchanged). On the multi-process backend a handle-bearing pair is
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
            let sa = self.op_state(a.handle(), whole_key, m * k);
            let sb = self.op_state(b.handle(), whole_key, k * n);
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
            let mut is_task: Vec<bool> = Vec::new();
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
                    let a_field = whole_op(&mut res, a, rank, &mut reqs)?;
                    let b_field = whole_op(&mut res, b, rank, &mut reqs)?;
                    is_task.resize(reqs.len(), false);
                    reqs.push((
                        rank,
                        Request::Contract {
                            spec: spec.to_string(),
                            a_dims: at.dims().to_vec(),
                            a: a_field,
                            b_dims: bt.dims().to_vec(),
                            b: b_field,
                            out: Out::Reply,
                        },
                    ));
                    is_task.push(true);
                }
            }
            let replies = cl.call_all(reqs)?;
            drop(cl);
            let mut out = Vec::with_capacity(pairs.len());
            for ((reply, pair), &chg) in task_replies(replies, is_task).zip(pairs).zip(&charges) {
                let (at, bt) = (pair.0.tensor()?, pair.1.tensor()?);
                let dims = plan.output_dims(at.dims(), bt.dims())?;
                out.push(DenseTensor::from_vec(dims, expect_buf(reply)?.into_f64()?)?);
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
                    reqs.push((
                        i % p,
                        Request::Upload {
                            key: wkey,
                            data: T::wrap(mat[r0 * k..r1 * k].to_vec()),
                        },
                    ));
                }
                keys.push(wkey);
            }
            Ok(AFields::Keys(keys))
        }
    }
}
