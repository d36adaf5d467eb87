//! Dense × dense: operands as strided matrices, the row-panel unit of
//! work and its kernel, and the product over [`ordered_map`] — the one
//! dense kernel of the in-process lanes and of a worker's `Contract` task,
//! cut into a per-shape preparation ([`DensePrep::new`]) and a per-pair
//! run ([`DensePrep::run`]).
//! Every panel writes its finished tiles through a [`RunView`] of the
//! output permutation: a fresh result stores them, an accumulate step
//! adds them to its target ([`Epilogue`]), and no product exists in
//! natural order.

use super::{dense_ranges, fused_dims, lanes, natural_dims, ordered_map, Ranges};
use crate::exec::Workspace;
use crate::pool::ThreadPool;
use crate::{Error, Result};
use std::borrow::Cow;
use tt_tensor::einsum::ContractPlan;
use tt_tensor::gemm::{
    gemm_packed_into, gemm_path, gemm_small_into, gemv_into, panel_kernel, GemmPath, PackedB,
    PanelKernel,
};
use tt_tensor::transpose::{motion, permute_data, Motion};
use tt_tensor::view::{Epilogue, RunView, ViewMut};
use tt_tensor::DenseTensor;

/// A dense operand as the `rows × cols` matrix the GEMM kernels read:
/// element `(i, l)` lives at `data[i·rs + l·cs]`.
struct MatOperand<'a> {
    data: Cow<'a, [f64]>,
    rs: usize,
    cs: usize,
}

/// How an operand of one shape reaches the kernels as its matrix: read in
/// place through strides, or permuted into a copy.
enum Layout {
    /// Read where it lies, element `(i, l)` at `i·rs + l·cs`.
    InPlace { rs: usize, cs: usize },
    /// Copied into `(rows, cols)` order by this permutation.
    Permuted(Vec<usize>),
}

impl Layout {
    /// The layout of an operand of `dims` permuted by `perm` into a
    /// `rows × cols` matrix, executing the permutation only when elements
    /// have to change order: an identity (after fusion) is read in place,
    /// and — when the consumer takes strides (`strided`: the unpacked and
    /// packed kernels' `A`, the packer's `B`) — so is a plain matrix
    /// transpose.
    fn choose(
        dims: &[usize],
        perm: &[usize],
        rows: usize,
        cols: usize,
        strided: bool,
    ) -> Result<Self> {
        Ok(match motion(dims, perm)? {
            Motion::Identity => Layout::InPlace { rs: cols, cs: 1 },
            // the fused pair is the matrix's (row, col) pair only if the
            // split falls between the row and the column modes
            Motion::Transpose { rows: r, .. } if strided && r == rows => {
                Layout::InPlace { rs: 1, cs: rows }
            }
            _ => Layout::Permuted(perm.to_vec()),
        })
    }

    /// `t`, of the dims this layout was chosen for, as its matrix.
    fn matrix<'a>(&self, t: &'a DenseTensor<f64>, cols: usize) -> Result<MatOperand<'a>> {
        Ok(match self {
            &Layout::InPlace { rs, cs } => MatOperand {
                data: Cow::Borrowed(t.data()),
                rs,
                cs,
            },
            Layout::Permuted(perm) => MatOperand {
                data: Cow::Owned(permute_data(t.data(), t.dims(), perm)?),
                rs: cols,
                cs: 1,
            },
        })
    }
}

/// Rows `[r0, r1)` of `A · B` written through `out` as `how` says — the
/// unit of work of the dense contraction, run on the kernel
/// [`panel_kernel`] picks for the panel. `a` is the full `m × k` matrix
/// through strides `(a_rs, a_cs)` (contiguous rows on the GEMV path); `b`
/// is the contiguous `k × n` matrix, read by every kernel but the packed
/// one; `pb` is `B` packed, read by the packed kernel.
#[allow(clippy::too_many_arguments)]
fn dense_rows(
    path: GemmPath,
    (r0, r1): (usize, usize),
    (k, n): (usize, usize),
    a: &[f64],
    (a_rs, a_cs): (usize, usize),
    b: &[f64],
    pb: Option<&PackedB<f64>>,
    out: &mut ViewMut<f64>,
    how: Epilogue,
) {
    match panel_kernel(path, r1 - r0, k, n) {
        // Davidson matvec shape: skip the blocked machinery entirely
        PanelKernel::Gemv => gemv_into(r0, r1, k, a, b, 1, out, how),
        PanelKernel::Small => gemm_small_into(r0, r1, k, n, a, a_rs, a_cs, b, out, how),
        PanelKernel::Packed => {
            if let Some(pb) = pb {
                gemm_packed_into(r0, r1, a, a_rs, a_cs, pb, out, how);
            }
        }
    }
}

/// The per-shape half of the dense contraction: everything [`DensePrep::run`]
/// needs that follows from the plan, the operands' dims and the pool's lane
/// count alone — the [`RunView`] of the output permutation, the GEMM path,
/// the row panels ([`dense_ranges`]), whether any panel packs `B`, and how
/// each operand reaches the kernels ([`motion`]: in place, strided, or
/// permuted). A list chain contracts many block pairs of one shape; it
/// prepares the shape once and runs each pair against it.
pub(crate) struct DensePrep {
    a_dims: Vec<usize>,
    b_dims: Vec<usize>,
    view: RunView,
    k: usize,
    n: usize,
    path: GemmPath,
    ranges: Ranges,
    /// Some panel runs the packed kernel: `B` is packed once per pair.
    packs: bool,
    a: Layout,
    b: Layout,
}

impl DensePrep {
    /// Prepare `a ·plan· b` for operands of `a_dims` × `b_dims` on `lanes`
    /// pool threads.
    pub(crate) fn new(
        plan: &ContractPlan,
        a_dims: &[usize],
        b_dims: &[usize],
        lanes: usize,
    ) -> Result<Self> {
        plan.output_dims(a_dims, b_dims)?; // validates shapes
        let (m, k, n) = fused_dims(plan, a_dims, b_dims);
        let nat_dims = natural_dims(plan, a_dims, b_dims);
        let view = RunView::output(&nat_dims, plan.output_permutation(), (m, n))?;
        let path = gemm_path(k, n);
        let ranges = dense_ranges(path, m, lanes);
        let packs =
            |&(r0, r1): &(usize, usize)| panel_kernel(path, r1 - r0, k, n) == PanelKernel::Packed;
        let (perm_a, perm_b) = plan.operand_permutations();
        Ok(Self {
            a: Layout::choose(a_dims, perm_a, m, k, path != GemmPath::Gemv)?,
            b: Layout::choose(b_dims, perm_b, k, n, ranges.iter().all(packs))?,
            packs: ranges.iter().any(packs),
            a_dims: a_dims.to_vec(),
            b_dims: b_dims.to_vec(),
            view,
            k,
            n,
            path,
            ranges,
        })
    }

    /// Elements of the output.
    pub(crate) fn len(&self) -> usize {
        self.view.len()
    }

    /// Dense × dense contraction (TTGT) of one operand pair of the
    /// prepared shape into `out`, parallel at the GEMM level: when a row
    /// panel runs the packed kernel, `B` is packed once — one `KC`-deep
    /// block per call; blocks are independent and reassemble to the exact
    /// bytes of a monolithic pack — and row-disjoint panels run against the
    /// shared operand, each writing its own band of `out`'s rows through
    /// the output view, both through [`ordered_map`]. `pool` must have the
    /// lane count the shape was prepared for. Every element of `out`
    /// receives its whole sum once — stored, or added as `how` says — so a
    /// `Store` target may hold anything beforehand, and a target is left
    /// untouched when its length is not the view's.
    pub(crate) fn run(
        &self,
        a: &DenseTensor<f64>,
        b: &DenseTensor<f64>,
        pool: Option<&ThreadPool>,
        out: &mut [f64],
        how: Epilogue,
    ) -> Result<()> {
        if a.dims() != self.a_dims || b.dims() != self.b_dims {
            return Err(Error::Runtime(format!(
                "operands {:?} × {:?} for a {:?} × {:?} contraction",
                a.dims(),
                b.dims(),
                self.a_dims,
                self.b_dims
            )));
        }
        let (path, (k, n)) = (self.path, (self.k, self.n));
        let bands = ViewMut::bands(&self.view, out, &self.ranges)?;
        let a_mat = self.a.matrix(a, k)?;
        let b_mat = self.b.matrix(b, n)?;
        // one row range: nothing to fan out, and `B` is packed here too
        let pool = pool.filter(|_| self.ranges.len() > 1);
        let pb = self.packs.then(|| {
            let blocks = ordered_map(pool, 0..PackedB::<f64>::block_count(k), |blk| {
                PackedB::pack_block(k, n, &b_mat.data, b_mat.rs, b_mat.cs, blk)
            });
            PackedB::from_blocks(k, n, blocks)
        });
        ordered_map(
            pool,
            bands.into_iter().zip(&self.ranges),
            |(mut band, &range)| {
                dense_rows(
                    path,
                    range,
                    (k, n),
                    &a_mat.data,
                    (a_mat.rs, a_mat.cs),
                    &b_mat.data,
                    pb.as_ref(),
                    &mut band,
                    how,
                )
            },
        );
        Ok(())
    }
}

/// [`DensePrep::run`] of a shape prepared for this one pair.
pub(crate) fn dense_into(
    plan: &ContractPlan,
    a: &DenseTensor<f64>,
    b: &DenseTensor<f64>,
    pool: Option<&ThreadPool>,
    out: &mut [f64],
    how: Epilogue,
) -> Result<()> {
    DensePrep::new(plan, a.dims(), b.dims(), lanes(pool))?.run(a, b, pool, out, how)
}

/// `a ·plan· b` as a fresh output tensor — the dense kernel of a worker's
/// `Contract` that stores a fresh result (an in-process chain step runs its
/// shape's [`DensePrep`] itself). The store epilogue writes every element,
/// so the output is taken from `ws` unzeroed.
pub(crate) fn dense_contract(
    plan: &ContractPlan,
    a: &DenseTensor<f64>,
    b: &DenseTensor<f64>,
    pool: Option<&ThreadPool>,
    ws: &Workspace,
) -> Result<DenseTensor<f64>> {
    let prep = DensePrep::new(plan, a.dims(), b.dims(), lanes(pool))?;
    let mut c = ws.take_unzeroed(prep.len());
    prep.run(a, b, pool, &mut c, Epilogue::Store)?;
    Ok(DenseTensor::from_vec(
        plan.output_dims(a.dims(), b.dims())?,
        c,
    )?)
}
