//! Sparse × dense and sparse × sparse contraction (the flattened
//! algorithms' kernels), in-process or bucketed over the cluster.

use super::keys;
use super::residency::{op_state, Charge, OpCharge, Superstep};
use super::{expect_buf, DenseOp, Executor, SparseOp};
use crate::cluster::Cluster;
use crate::handle::{OpHandle, Residency};
use crate::kernels;
use crate::transport::worker::{Op, OpCoords, OpSs, Out, Reply, Request, SsTable};
use crate::{Error, Result};
use std::borrow::Cow;
use std::sync::Arc;
use tt_tensor::einsum::ContractPlan;
use tt_tensor::ssmerge::{SlotMap, SsBTable};
use tt_tensor::{DenseTensor, SparseTensor};

impl Executor {
    /// Distributed sparse × dense contraction (the *sparse-dense*
    /// algorithm's kernel): flattened-sparse `a` against densified `b`,
    /// each by value or by handle. A handle on `a` keeps its
    /// volume-balanced coordinate buckets resident per rank; a handle on
    /// `b` keeps the whole tensor resident, as a chain step reads it.
    pub fn contract_sd<'a>(
        &self,
        spec: &str,
        a: impl Into<SparseOp<'a>>,
        b: impl Into<DenseOp<'a>>,
    ) -> Result<DenseTensor<f64>> {
        let (a, b) = (a.into(), b.into());
        let plan = ContractPlan::parse(spec)?;
        let (at, bt) = (a.tensor()?, b.tensor()?);
        let (c, flops) = if let Some(cl) = &self.cluster {
            self.sd_over_cluster(&mut cl.lock(), &plan, &a, &b)?
        } else {
            self.workspace.call(|| self.sd_local(&plan, &a, bt))?
        };
        let (m, k, n) = kernels::fused_dims(&plan, at.dims(), bt.dims());
        // The sparse operand moves its stored entries (offset + value),
        // the dense operand and result their full volume.
        let (sa, sb) = {
            let res = &mut self.residency.lock();
            let lkey = |h: &OpHandle| keys::sd_a(h, &plan, n).logical();
            let sa = op_state(res, a.handle(), lkey, 2 * at.nnz());
            (sa, op_state(res, b.handle(), keys::whole, k * n))
        };
        self.charge_contractions(std::iter::once(Charge {
            a: sa,
            b: sb,
            words_c: m * n,
            m,
            n,
            flops,
            sparse: true,
        }));
        Ok(c)
    }

    /// The in-process leg of one sparse-dense contraction, for
    /// [`Executor::contract_sd`] and sd chain steps alike. A resident `a`
    /// keeps its fused coordinates ([`Executor::kept_coords`]); a value's
    /// are computed per call. The result's buffer comes from the workspace,
    /// inside the caller's [`Workspace::call`](super::Workspace::call).
    pub(super) fn sd_local(
        &self,
        plan: &ContractPlan,
        a: &SparseOp,
        b: &DenseTensor<f64>,
    ) -> Result<(DenseTensor<f64>, u64)> {
        let at = a.tensor()?;
        plan.output_dims(at.dims(), b.dims())?;
        let n = kernels::fused_dims(plan, at.dims(), b.dims()).2;
        let fuse = || kernels::sparse_coords(at, plan.free_a_positions(), plan.ctr_a_positions());
        let kept = self.kept_coords(a, |h| keys::sd_a(h, plan, n).logical(), &fuse);
        let coords = match &kept {
            Some(coords) => Cow::Borrowed(&coords[..]),
            None => Cow::Owned(fuse()),
        };
        kernels::sd_contract(plan, at.dims(), coords, b, self.pool(), &self.workspace)
    }

    /// `fuse`'s coordinates of a resident `a`, kept under its charge key
    /// until its last [`Executor::free`]; `None` for a value.
    pub(super) fn kept_coords(
        &self,
        a: &SparseOp,
        lkey: impl FnOnce(&OpHandle) -> u64,
        fuse: &dyn Fn() -> Vec<kernels::Coord>,
    ) -> Option<Arc<[kernels::Coord]>> {
        let h = a.handle()?;
        let lkey = lkey(h);
        if let Some(coords) = self.residency.lock().coords(lkey) {
            return Some(coords);
        }
        let coords: Arc<[kernels::Coord]> = fuse().into();
        self.residency.lock().keep_coords(h.key(), lkey, &coords);
        Some(coords)
    }

    /// Sparse-dense contraction over the worker processes: the driver
    /// buckets the sparse coords by work volume (same boundaries as the
    /// in-process kernel) and ships each bucket, with the dense operand as
    /// it lies, to a rank as one row-ranged [`Request::SdContract`]; row
    /// panels concatenate in submission order. A handle `a` resolves to
    /// resident buckets, a handle `b` to its whole tensor on every rank a
    /// bucket goes to.
    fn sd_over_cluster(
        &self,
        cl: &mut Cluster,
        plan: &ContractPlan,
        a: &SparseOp,
        b: &DenseOp,
    ) -> Result<(DenseTensor<f64>, u64)> {
        let (at, bt) = (a.tensor()?, b.tensor()?);
        let p = cl.ranks();
        let (coords, flops, chunks) = kernels::sd_prepare(plan, at, bt.dims(), p)?;
        let (m, _k, n) = kernels::fused_dims(plan, at.dims(), bt.dims());
        let (ranges, buckets) = kernels::sd_buckets(coords, m, n, chunks);
        let mut step = Superstep::default();
        let (b_field, a_fields) = {
            let mut res = self.residency.lock();
            // a value ships inline with every task; a handle is uploaded
            // to every rank a bucket goes to that lacks it
            let b_field = step.whole(&mut res, *b, 0)?;
            if b.handle().is_some() {
                for rank in 1..ranges.len().min(p) {
                    step.whole(&mut res, *b, rank)?;
                }
            }
            let a_fields = bucket_fields(&mut step, &mut res, a.handle(), buckets, p, |h, i| {
                keys::sd_a(h, plan, n).chunk(chunks, i)
            })?;
            (b_field, a_fields)
        };
        let dims = (at.dims(), bt.dims());
        for (i, (a, &rows)) in a_fields.into_iter().zip(&ranges).enumerate() {
            let req = sd_request(plan, dims, a, rows, b_field.clone(), Out::Reply);
            step.task(i % p, req);
        }
        let mut c = Vec::with_capacity(m * n);
        for reply in step.run(cl)? {
            c.extend_from_slice(&expect_buf(reply)?);
        }
        let c = kernels::natural_output(plan, at.dims(), bt.dims(), c)?;
        Ok((c, flops))
    }

    /// Distributed sparse × sparse contraction with an optional output
    /// `mask` (row and column classes: for a symmetric contraction those of
    /// `flux − q(row)` and `q(col)`). `a` is taken by value or by handle; a
    /// handle keeps its row buckets resident (bucketed by stored entries
    /// only, so the boundaries don't depend on `b`). `b`, the moving
    /// operand, is taken by value; a run of these is a [`Executor::chain`].
    pub fn contract_ss<'a>(
        &self,
        spec: &str,
        a: impl Into<SparseOp<'a>>,
        b: &SparseTensor<f64>,
        mask: Option<&SlotMap>,
    ) -> Result<SparseTensor<f64>> {
        let a = a.into();
        let plan = ContractPlan::parse(spec)?;
        let at = a.tensor()?;
        let (c, flops) = if let Some(cl) = &self.cluster {
            let prep = kernels::ss_prepare(&plan, at, b, mask)?;
            let out_shape = prep.out_shape.clone();
            let (entries, flops) = self.ss_over_cluster(&mut cl.lock(), &plan, a.handle(), prep)?;
            (SparseTensor::from_entries(out_shape, entries)?, flops)
        } else {
            kernels::ss_contract(&plan, at, b, mask, self.pool())?
        };
        let (m, _k, n) = kernels::fused_dims(&plan, at.dims(), b.dims());
        // all three tensors move only their stored entries (offset +
        // value); the result's count every touched allowed element,
        // cancelled zeros included
        let lkey = |h: &OpHandle| keys::ss_a(h, &plan).logical();
        let sa = op_state(&mut self.residency.lock(), a.handle(), lkey, 2 * at.nnz());
        self.charge_contractions(std::iter::once(Charge {
            a: sa,
            b: OpCharge::Value(2 * b.nnz()),
            words_c: 2 * c.nnz(),
            m,
            n,
            flops,
            sparse: true,
        }));
        Ok(c)
    }

    /// Sparse-sparse contraction over the worker processes, from its
    /// prepared state: the grouped `B` operand, output-axis map and mask
    /// classes ship once per rank alongside that rank's volume-balanced `A`
    /// bucket. A handle `a` resolves to resident buckets; because every
    /// bucketing is row-contiguous and scan-order-preserving, the result is
    /// bitwise identical no matter which boundaries are used. Returns the
    /// replies' `(output offset, value)` entries concatenated in
    /// submission order — row-disjoint chunks in row order, each in fused
    /// `(row, col)` order — and the flops.
    fn ss_over_cluster(
        &self,
        cl: &mut Cluster,
        plan: &ContractPlan,
        a: Option<&OpHandle>,
        mut prep: kernels::SsPrep,
    ) -> Result<(Vec<(u64, f64)>, u64)> {
        let p = cl.ranks();
        let chunks = kernels::sparse_chunks(prep.flops(), p);
        // resident A buckets must not depend on B's pattern
        let (ranges, buckets) = prep.take_buckets(chunks, a.is_some());
        let b_field = inline_table(&prep.btab);

        let mut step = Superstep::default();
        let a_fields = bucket_fields(
            &mut step,
            &mut self.residency.lock(),
            a,
            buckets,
            p,
            |h, i| keys::ss_a(h, plan).chunk(chunks, i),
        )?;
        for (i, (a, rows)) in a_fields.into_iter().zip(ranges).enumerate() {
            let (b, mask) = (
                b_field.clone(),
                prep.mask.as_ref().map(kernels::wire_classes),
            );
            let n = prep.n as usize;
            step.task(
                i % p,
                ss_request(a, b, rows, n, &prep.axes, mask, Out::Reply),
            );
        }
        let mut entries = Vec::new();
        let mut flops = 0u64;
        for reply in step.run(cl)? {
            match reply {
                Reply::Entries {
                    offs,
                    vals,
                    flops: f,
                } => {
                    entries.extend(offs.into_iter().zip(vals));
                    flops += f;
                }
                other => {
                    return Err(Error::transport(format!(
                        "expected sparse entries, got {other:?}"
                    )))
                }
            }
        }
        Ok((entries, flops))
    }
}

/// The sparse-sparse request for rows `[r0, r1)`: a bucket of
/// [`Executor::contract_ss`] or, over all rows, a chain step.
pub(super) fn ss_request(
    a: OpCoords,
    b: OpSs,
    (r0, r1): (usize, usize),
    n: usize,
    (row_axes, col_axes): &kernels::AxesPair,
    mask: Option<(Vec<u64>, Vec<u64>)>,
    out: Out,
) -> Request {
    let (ax_dims, ax_strides) = row_axes.iter().copied().unzip();
    let (cx_dims, cx_strides) = col_axes.iter().copied().unzip();
    Request::SsChunk {
        a,
        b,
        r0: r0 as u64,
        r1: r1 as u64,
        n: n as u64,
        ax_dims,
        ax_strides,
        cx_dims,
        cx_strides,
        mask,
        out,
    }
}

/// A grouped sparse-sparse `B` operand shipped with its task.
pub(super) fn inline_table(btab: &SsBTable<f64>) -> OpSs {
    OpSs::Inline(SsTable {
        keys: btab.keys().to_vec(),
        lens: btab.run_lens().collect(),
        cols: btab.cols().to_vec(),
        vals: btab.vals().to_vec(),
    })
}

/// The sparse-dense request computing rows `[r0, r1)` of `a_dims ·plan·
/// b_dims` from `a`, the entries of those rows: a row bucket of
/// [`Executor::contract_sd`] or, over all rows, a chain step.
pub(super) fn sd_request(
    plan: &ContractPlan,
    (a_dims, b_dims): (&[usize], &[usize]),
    a: OpCoords,
    (r0, r1): (usize, usize),
    b: Op,
    out: Out,
) -> Request {
    let (m, _k, n) = kernels::fused_dims(plan, a_dims, b_dims);
    Request::SdContract {
        a,
        r0,
        r1,
        m,
        n,
        b_dims: b_dims.to_vec(),
        perm_b: plan.operand_permutations().1.to_vec(),
        nat_dims: kernels::natural_dims(plan, a_dims, b_dims),
        out_perm: plan.output_permutation().to_vec(),
        b,
        out,
    }
}

/// The `A` operand of each chunk task of a bucketed sparse contraction:
/// the bucket inline, or — for a handle — resident under `wkey(h, i)` on
/// the chunk's rank `i % p`, uploaded where it is missing.
fn bucket_fields(
    step: &mut Superstep,
    res: &mut Residency,
    handle: Option<&OpHandle>,
    buckets: Vec<Vec<kernels::Coord>>,
    p: usize,
    wkey: impl Fn(&OpHandle, usize) -> u64,
) -> Result<Vec<OpCoords>> {
    let field = |(i, bucket)| {
        let Some(h) = handle else {
            return Ok(inline_coords(bucket));
        };
        let key = wkey(h, i);
        step.ensure(res, h.key(), key, i % p, || Ok(upload_coords(key, bucket)))?;
        Ok(OpCoords::Key(key))
    };
    buckets.into_iter().enumerate().map(field).collect()
}

/// Coords as the three parallel arrays the wire format carries.
fn split_coords(coords: Vec<kernels::Coord>) -> (Vec<u64>, Vec<u64>, Vec<f64>) {
    let mut rows = Vec::with_capacity(coords.len());
    let mut cols = Vec::with_capacity(coords.len());
    let mut vals = Vec::with_capacity(coords.len());
    for (r, c, v) in coords {
        rows.push(r);
        cols.push(c);
        vals.push(v);
    }
    (rows, cols, vals)
}

/// Coords shipped with their task.
pub(super) fn inline_coords(coords: Vec<kernels::Coord>) -> OpCoords {
    let (rows, cols, vals) = split_coords(coords);
    OpCoords::Inline { rows, cols, vals }
}

/// Coords stored under `key`.
pub(super) fn upload_coords(key: u64, coords: Vec<kernels::Coord>) -> Request {
    let (rows, cols, vals) = split_coords(coords);
    Request::UploadCoords {
        key,
        rows,
        cols,
        vals,
    }
}
