//! Sparse × dense and sparse × sparse contraction (the flattened
//! algorithms' kernels), in-process or bucketed over the cluster.

use super::residency::replicate_to_missing;
use super::{expect_buf, DenseOp, Executor, SparseOp, TAG_MAT_B, TAG_SD_A, TAG_SS_A, TAG_SS_B};
use crate::cluster::Cluster;
use crate::handle::{derive, hseq};
use crate::kernels;
use crate::transport::worker::{Buf, Op, OpCoords, OpSs, Reply, Request};
use crate::{Error, Result};
use tt_tensor::einsum::ContractPlan;
use tt_tensor::{DenseTensor, SparseTensor};

impl Executor {
    /// Distributed sparse × dense contraction (the *sparse-dense*
    /// algorithm's kernel): flattened-sparse `a` against densified `b`,
    /// each by value or by handle. A handle on `a` keeps its
    /// volume-balanced coordinate buckets resident per rank; a handle on
    /// `b` keeps the permuted dense matrix resident.
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
            kernels::sd_contract(&plan, at, bt, self.pool(), kernels::SPARSE_PAR_MIN_FLOPS)?
        };
        let (m, k, n) = kernels::fused_dims(&plan, at.dims(), bt.dims());
        let perm_b = kernels::operand_perms(&plan).1;
        // The sparse operand moves its stored entries (offset + value),
        // the dense operand and result their full volume.
        //
        // The logical charge key is deliberately coarser than the
        // physical worker keys in one respect: it omits the chunk count,
        // which depends on the worker count (backend-independent charging
        // requires p-free keys). A re-bucketing caused by the work-volume
        // threshold flipping re-ships physically (metered in
        // `bytes_operands`) without an extra α–β upload charge.
        let sa = self.op_state(
            a.handle(),
            |h| {
                derive(&[
                    h.key(),
                    TAG_SD_A,
                    hseq(plan.free_a_positions()),
                    hseq(plan.ctr_a_positions()),
                    n as u64,
                ])
            },
            2 * at.nnz(),
        );
        let sb = self.op_state(
            b.handle(),
            |h| derive(&[h.key(), TAG_MAT_B, hseq(&perm_b)]),
            k * n,
        );
        self.charge_contraction(sa, sb, m * n, m, n, flops, true);
        Ok(c)
    }

    /// Sparse-dense contraction over the worker processes: the driver
    /// buckets the sparse coords by work volume (same boundaries as the
    /// in-process kernel) and ships each bucket plus the dense operand to
    /// a rank; row panels concatenate in submission order. Handle
    /// operands resolve to resident buckets / matrices instead.
    fn sd_over_cluster(
        &self,
        cl: &mut Cluster,
        plan: &ContractPlan,
        a: &SparseOp,
        b: &DenseOp,
    ) -> Result<(DenseTensor<f64>, u64)> {
        let (at, bt) = (a.tensor()?, b.tensor()?);
        plan.output_dims(at.dims(), bt.dims())?;
        let (m, _k, n) = kernels::fused_dims(plan, at.dims(), bt.dims());
        let perm_b = kernels::operand_perms(plan).1;

        let coords = kernels::sparse_coords(at, plan.free_a_positions(), plan.ctr_a_positions());
        let flops = 2 * coords.len() as u64 * n as u64;
        let chunks = if flops < kernels::SPARSE_PAR_MIN_FLOPS {
            1
        } else {
            cl.ranks()
        };
        let (ranges, buckets) = kernels::bucket_by_volume(coords, m, chunks, |_| n as u64);
        let p = cl.ranks();
        let mut reqs: Vec<(usize, Request)> = Vec::new();

        let b_field = match b.handle() {
            None => Op::Inline(Buf::F64(bt.permute(&perm_b)?.into_data())),
            Some(h) => {
                let wkey = derive(&[h.key(), TAG_MAT_B, hseq(&perm_b)]);
                let mut b_mat: Option<Vec<f64>> = None;
                replicate_to_missing(
                    &mut self.residency.lock(),
                    h.key(),
                    wkey,
                    ranges.len().min(p),
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
                            data: Buf::F64(data),
                        })
                    },
                )?;
                Op::Key(wkey)
            }
        };

        let a_keys: Option<Vec<u64>> = match a.handle() {
            None => None,
            Some(h) => {
                let mut res = self.residency.lock();
                let mut keys = Vec::with_capacity(buckets.len());
                for (i, bucket) in buckets.iter().enumerate() {
                    let wkey = derive(&[
                        h.key(),
                        TAG_SD_A,
                        hseq(plan.free_a_positions()),
                        hseq(plan.ctr_a_positions()),
                        n as u64,
                        chunks as u64,
                        i as u64,
                    ]);
                    if res.add_home(h.key(), wkey, i % p) {
                        let (rows, cols, vals) = split_coords(bucket.clone());
                        reqs.push((
                            i % p,
                            Request::UploadCoords {
                                key: wkey,
                                rows,
                                cols,
                                vals,
                            },
                        ));
                    }
                    keys.push(wkey);
                }
                Some(keys)
            }
        };

        let n_uploads = reqs.len();
        for (i, (&(r0, r1), bucket)) in ranges.iter().zip(buckets).enumerate() {
            let a_field = match &a_keys {
                Some(keys) => OpCoords::Key(keys[i]),
                None => {
                    let (rows, cols, vals) = split_coords(bucket);
                    OpCoords::Inline { rows, cols, vals }
                }
            };
            reqs.push((
                i % p,
                Request::SdChunk {
                    r0,
                    r1,
                    n,
                    a: a_field,
                    b: b_field.clone(),
                },
            ));
        }
        let mut c = Vec::with_capacity(m * n);
        for reply in cl.call_all(reqs)?.into_iter().skip(n_uploads) {
            c.extend_from_slice(&expect_buf(reply)?.into_f64()?);
        }
        let c = DenseTensor::from_vec(kernels::natural_dims(plan, at.dims(), bt.dims()), c)?;
        Ok((c.permute(plan.output_permutation())?, flops))
    }

    /// Distributed sparse × sparse contraction with optional pre-computed
    /// output sparsity `mask` (output linear offsets that may be nonzero),
    /// each operand by value or by handle. A handle on `a` keeps its row
    /// buckets resident (bucketed by stored entries only, so the
    /// boundaries don't depend on `b`); a handle on `b` keeps the grouped
    /// contraction table resident.
    pub fn contract_ss<'a>(
        &self,
        spec: &str,
        a: impl Into<SparseOp<'a>>,
        b: impl Into<SparseOp<'a>>,
        mask: Option<&[u64]>,
    ) -> Result<SparseTensor<f64>> {
        let (a, b) = (a.into(), b.into());
        let plan = ContractPlan::parse(spec)?;
        let (at, bt) = (a.tensor()?, b.tensor()?);
        let (c, flops) = if let Some(cl) = &self.cluster {
            self.ss_over_cluster(&mut cl.lock(), &plan, &a, &b, mask)?
        } else {
            kernels::ss_contract(
                &plan,
                at,
                bt,
                mask,
                self.pool(),
                kernels::SPARSE_PAR_MIN_FLOPS,
            )?
        };
        let (m, _k, n) = kernels::fused_dims(&plan, at.dims(), bt.dims());
        // All three tensors move only their stored entries (offset + value).
        // As in the sd path, the logical keys omit the (p-dependent)
        // chunk count; both operands' dims pin the output-offset tables
        // the resident buffers were resolved against.
        let sa = self.op_state(
            a.handle(),
            |h| {
                derive(&[
                    h.key(),
                    TAG_SS_A,
                    hseq(plan.free_a_positions()),
                    hseq(plan.ctr_a_positions()),
                ])
            },
            2 * at.nnz(),
        );
        let sb = self.op_state(
            b.handle(),
            |h| {
                // the grouped table stores *fused* free indices, so it
                // depends only on B's content (h.key) and the plan's
                // B-side positions — not on A's dims or the output
                // permutation; the same resident table serves every
                // contraction against this operand
                derive(&[
                    h.key(),
                    TAG_SS_B,
                    hseq(plan.ctr_b_positions()),
                    hseq(plan.free_b_positions()),
                ])
            },
            2 * bt.nnz(),
        );
        self.charge_contraction(sa, sb, 2 * c.nnz(), m, n, flops, true);
        Ok(c)
    }

    /// Sparse-sparse contraction over the worker processes: the grouped
    /// `B` operand, output-axis map and mask ship once per rank alongside
    /// that rank's volume-balanced `A` bucket; the per-bucket entry sets
    /// are row-disjoint, so concatenating replies in submission order
    /// reproduces the in-process result exactly. Handle operands resolve
    /// to resident buckets / group tables; because every bucketing is
    /// row-contiguous and scan-order-preserving, the result is bitwise
    /// identical no matter which boundaries are used.
    fn ss_over_cluster(
        &self,
        cl: &mut Cluster,
        plan: &ContractPlan,
        a: &SparseOp,
        b: &SparseOp,
        mask: Option<&[u64]>,
    ) -> Result<(SparseTensor<f64>, u64)> {
        let (at, bt) = (a.tensor()?, b.tensor()?);
        let prep = kernels::ss_prepare(plan, at, bt, mask)?;
        let kernels::SsPrep {
            out_shape,
            m,
            n,
            row_axes,
            col_axes,
            btab,
            mask_sorted,
            coords,
        } = prep;

        let coord_work = |c: &kernels::Coord| btab.run_len(c.1) as u64;
        let total_work: u64 = coords.iter().map(&coord_work).sum();
        let chunks = if 2 * total_work < kernels::SPARSE_PAR_MIN_FLOPS {
            1
        } else {
            cl.ranks()
        };
        // resident A buckets must not depend on B's pattern, so the
        // handle path weights each stored entry equally; any
        // row-contiguous bucketing yields bitwise-identical results
        let (ranges, mut buckets) = if a.handle().is_some() {
            kernels::bucket_by_volume(coords, m, chunks, |_| 1)
        } else {
            kernels::bucket_by_volume(coords, m, chunks, coord_work)
        };
        // buckets ship key-sorted (the order the merge kernel consumes),
        // so resident buckets amortize the sort across iterations
        for bucket in &mut buckets {
            kernels::sort_bucket_by_key(bucket);
        }

        // flatten the grouped B operand once
        let b_keys = btab.keys().to_vec();
        let b_lens: Vec<u64> = btab.run_lens().collect();
        let b_cols = btab.cols().to_vec();
        let b_vals = btab.vals().to_vec();
        let (ax_dims, ax_strides): (Vec<u64>, Vec<u64>) = row_axes.iter().copied().unzip();
        let (cx_dims, cx_strides): (Vec<u64>, Vec<u64>) = col_axes.iter().copied().unzip();

        let p = cl.ranks();
        let mut reqs: Vec<(usize, Request)> = Vec::new();

        let b_field = match b.handle() {
            None => OpSs::Inline {
                keys: b_keys,
                lens: b_lens,
                cols: b_cols,
                vals: b_vals,
            },
            Some(h) => {
                // fused-col table: keyed by B content + plan positions only
                // (must stay in lockstep with the charge key in
                // `contract_ss`)
                let wkey = derive(&[
                    h.key(),
                    TAG_SS_B,
                    hseq(plan.ctr_b_positions()),
                    hseq(plan.free_b_positions()),
                ]);
                replicate_to_missing(
                    &mut self.residency.lock(),
                    h.key(),
                    wkey,
                    buckets.len().min(p),
                    &mut reqs,
                    || {
                        Ok(Request::UploadSs {
                            key: wkey,
                            keys: b_keys.clone(),
                            lens: b_lens.clone(),
                            cols: b_cols.clone(),
                            vals: b_vals.clone(),
                        })
                    },
                )?;
                OpSs::Key(wkey)
            }
        };

        let a_keys: Option<Vec<u64>> = match a.handle() {
            None => None,
            Some(h) => {
                let mut res = self.residency.lock();
                let mut keys = Vec::with_capacity(buckets.len());
                for (i, bucket) in buckets.iter().enumerate() {
                    let wkey = derive(&[
                        h.key(),
                        TAG_SS_A,
                        hseq(plan.free_a_positions()),
                        hseq(plan.ctr_a_positions()),
                        chunks as u64,
                        i as u64,
                    ]);
                    if res.add_home(h.key(), wkey, i % p) {
                        let (rows, ctrs, vals) = split_coords(bucket.clone());
                        reqs.push((
                            i % p,
                            Request::UploadCoords {
                                key: wkey,
                                rows,
                                cols: ctrs,
                                vals,
                            },
                        ));
                    }
                    keys.push(wkey);
                }
                Some(keys)
            }
        };

        let n_uploads = reqs.len();
        for (i, ((r0, r1), bucket)) in ranges.into_iter().zip(buckets).enumerate() {
            let a_field = match &a_keys {
                Some(keys) => OpCoords::Key(keys[i]),
                None => {
                    let (rows, ctrs, vals) = split_coords(bucket);
                    OpCoords::Inline {
                        rows,
                        cols: ctrs,
                        vals,
                    }
                }
            };
            reqs.push((
                i % p,
                Request::SsChunk {
                    a: a_field,
                    b: b_field.clone(),
                    r0: r0 as u64,
                    r1: r1 as u64,
                    n,
                    ax_dims: ax_dims.clone(),
                    ax_strides: ax_strides.clone(),
                    cx_dims: cx_dims.clone(),
                    cx_strides: cx_strides.clone(),
                    mask: mask_sorted.as_ref().map(|ms| ms.to_vec()),
                },
            ));
        }
        let mut entries = Vec::new();
        let mut flops = 0u64;
        for reply in cl.call_all(reqs)?.into_iter().skip(n_uploads) {
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
        Ok((SparseTensor::from_entries(out_shape, entries)?, flops))
    }
}

/// Split coords into the three parallel arrays the wire format carries.
pub(super) fn split_coords(coords: Vec<kernels::Coord>) -> (Vec<u64>, Vec<u64>, Vec<f64>) {
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
