//! Sparse × dense and sparse × sparse contraction (the flattened
//! algorithms' kernels): the value-returning entry points, each a one-step
//! [`Executor::chain`], and the sparse legs and wire forms chain steps share.

use super::chain::{ChainSrc, ChainStep};
use super::keys;
use super::{DenseOp, Executor, SparseOp};
use crate::handle::OpHandle;
use crate::kernels;
use crate::transport::worker::{Op, OpCoords, OpSs, Request, SsTable};
use crate::Result;
use std::borrow::Cow;
use std::sync::Arc;
use tt_tensor::einsum::ContractPlan;
use tt_tensor::ssmerge::{SlotMap, SsBTable};
use tt_tensor::{DenseTensor, SparseTensor};

impl Executor {
    /// Distributed sparse × dense contraction (the *sparse-dense*
    /// algorithm's kernel): flattened-sparse `a` against densified `b`,
    /// each by value or by handle — a one-step [`Executor::chain`] and its
    /// [`Executor::download`]. A handle on `a` keeps its fused coordinates
    /// resident, a handle on `b` the whole tensor, as a chain step reads
    /// them.
    pub fn contract_sd<'a>(
        &self,
        spec: &str,
        a: impl Into<SparseOp<'a>>,
        b: impl Into<DenseOp<'a>>,
    ) -> Result<DenseTensor<f64>> {
        let step = ChainStep {
            spec,
            a: ChainSrc::Sparse(a.into()),
            b: ChainSrc::Dense(b.into()),
            acc: None,
            mask: None,
        };
        self.download(self.one_step(&step)?)
    }

    /// Distributed sparse × sparse contraction under an output `mask`
    /// (row and column classes: for a symmetric contraction those of
    /// `flux − q(row)` and `q(col)`; `None` allows every element, one
    /// class) — a one-step [`Executor::chain`] and its
    /// [`Executor::download_sparse`], so the result drops cancelled zeros.
    /// `a` is taken by value or by handle, whose key-sorted coordinates
    /// stay resident; `b`, the moving operand, by value; a run of these is
    /// a chain.
    pub fn contract_ss<'a>(
        &self,
        spec: &str,
        a: impl Into<SparseOp<'a>>,
        b: &SparseTensor<f64>,
        mask: Option<&SlotMap>,
    ) -> Result<SparseTensor<f64>> {
        let a = a.into();
        let map = Arc::new(match mask {
            Some(map) => map.clone(),
            None => {
                let (plan, at) = (ContractPlan::parse(spec)?, a.tensor()?);
                plan.output_dims(at.dims(), b.dims())?;
                let (m, _k, n) = kernels::fused_dims(&plan, at.dims(), b.dims());
                SlotMap::new(vec![0; m], &vec![0; n])
            }
        });
        let step = ChainStep {
            spec,
            a: ChainSrc::Sparse(a),
            b: ChainSrc::Sparse(b.into()),
            acc: None,
            mask: Some(&map),
        };
        self.download_sparse(self.one_step(&step)?)
    }

    /// The in-process leg of one sparse-dense chain step. A resident `a`
    /// keeps its fused coordinates ([`Executor::kept_coords`]); a value's
    /// are computed per call. The result's buffer comes from the workspace,
    /// inside the caller's [`Workspace::call`](super::Workspace::call).
    pub(super) fn sd_local(
        &self,
        plan: &ContractPlan,
        a: &SparseOp,
        b: &DenseTensor<f64>,
    ) -> Result<DenseTensor<f64>> {
        let at = a.tensor()?;
        plan.output_dims(at.dims(), b.dims())?;
        let n = kernels::fused_dims(plan, at.dims(), b.dims()).2;
        let fuse = || kernels::sparse_coords(at, plan.free_a_positions(), plan.ctr_a_positions());
        let kept = self.kept_coords(a, |h| keys::sd_a(h, plan, n).logical(), &fuse);
        let coords = match &kept {
            Some(coords) => Cow::Borrowed(&coords[..]),
            None => Cow::Owned(fuse()),
        };
        let (c, _flops) =
            kernels::sd_contract(plan, at.dims(), coords, b, self.pool(), &self.workspace)?;
        Ok(c)
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
}

/// The sparse-sparse chain step storing its slots under `key`.
pub(super) fn ss_request(
    a: OpCoords,
    b: OpSs,
    key: u64,
    n: usize,
    (row_axes, col_axes): &kernels::AxesPair,
    mask: (Vec<u64>, Vec<u64>),
) -> Request {
    let (ax_dims, ax_strides) = row_axes.iter().copied().unzip();
    let (cx_dims, cx_strides) = col_axes.iter().copied().unzip();
    Request::SsChunk {
        a,
        b,
        key,
        n: n as u64,
        ax_dims,
        ax_strides,
        cx_dims,
        cx_strides,
        mask,
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

/// The sparse-dense chain step computing `a_dims ·plan· b_dims` from `a`
/// and storing it under `key`.
pub(super) fn sd_request(
    plan: &ContractPlan,
    (a_dims, b_dims): (&[usize], &[usize]),
    a: OpCoords,
    b: Op,
    key: u64,
) -> Request {
    let (m, _k, n) = kernels::fused_dims(plan, a_dims, b_dims);
    Request::SdContract {
        a,
        key,
        m,
        n,
        b_dims: b_dims.to_vec(),
        perm_b: plan.operand_permutations().1.to_vec(),
        nat_dims: kernels::natural_dims(plan, a_dims, b_dims),
        out_perm: plan.output_permutation().to_vec(),
        b,
    }
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
