//! Dense × dense: operands as strided matrices, the row-panel unit of
//! work and its kernel, and the product over [`ordered_map`] — the one
//! dense kernel of the in-process lanes and of a worker's `Contract` task,
//! kept in natural order ([`NaturalProduct`]) until it is either permuted
//! into a fresh result or added through the output permutation into an
//! accumulate target.

use super::{concat_rows, dense_ranges, fused_dims, into_output, lanes, natural_dims, ordered_map};
use crate::pool::ThreadPool;
use crate::Result;
use std::borrow::Cow;
use tt_tensor::einsum::ContractPlan;
use tt_tensor::gemm::{
    gemm_acc_packed_rows, gemm_acc_small_rows, gemm_path, gemv_acc_rows, panel_kernel, GemmPath,
    PackedB, PanelKernel,
};
use tt_tensor::transpose::{motion, permute_add_into, permute_data, Motion};
use tt_tensor::DenseTensor;

/// A dense operand as the `rows × cols` matrix the GEMM kernels read:
/// element `(i, l)` lives at `data[i·rs + l·cs]`.
struct MatOperand<'a> {
    data: Cow<'a, [f64]>,
    rs: usize,
    cs: usize,
}

/// `t` permuted by `perm` as a `rows × cols` matrix, executing the
/// permutation only when elements have to change order: an identity (after
/// fusion) borrows `t`'s storage, and — when the consumer takes strides
/// (`strided`: the unpacked and packed kernels' `A`, the packer's `B`) —
/// so does a plain matrix transpose.
fn mat_operand<'a>(
    t: &'a DenseTensor<f64>,
    perm: &[usize],
    rows: usize,
    cols: usize,
    strided: bool,
) -> Result<MatOperand<'a>> {
    let (data, rs, cs) = match motion(t.dims(), perm)? {
        Motion::Identity => (Cow::Borrowed(t.data()), cols, 1),
        // the fused pair is the matrix's (row, col) pair only if the
        // split falls between the row and the column modes
        Motion::Transpose { rows: r, .. } if strided && r == rows => {
            (Cow::Borrowed(t.data()), 1, rows)
        }
        _ => (Cow::Owned(permute_data(t.data(), t.dims(), perm)?), cols, 1),
    };
    Ok(MatOperand { data, rs, cs })
}

/// Rows `[r0, r1)` of `A · B` as a fresh row panel — the unit of work of
/// the dense contraction, run on the kernel [`panel_kernel`] picks for the
/// panel. `a` is the full `m × k`
/// matrix through strides `(a_rs, a_cs)` (contiguous rows on the GEMV
/// path); `b` is the contiguous `k × n` matrix, read by every kernel but
/// the packed one; `pb` is `B` packed, read by the packed kernel.
#[allow(clippy::too_many_arguments)]
fn dense_rows(
    path: GemmPath,
    (r0, r1): (usize, usize),
    (k, n): (usize, usize),
    a: &[f64],
    (a_rs, a_cs): (usize, usize),
    b: &[f64],
    pb: Option<&PackedB<f64>>,
) -> Vec<f64> {
    let mut c = vec![0.0; (r1 - r0) * n];
    match panel_kernel(path, r1 - r0, k, n) {
        // Davidson matvec shape: skip the blocked machinery entirely
        PanelKernel::Gemv => gemv_acc_rows(r0, r1, k, a, b, 1, &mut c),
        PanelKernel::Small => gemm_acc_small_rows(r0, r1, k, n, a, a_rs, a_cs, b, &mut c),
        PanelKernel::Packed => {
            if let Some(pb) = pb {
                gemm_acc_packed_rows(r0, r1, a, a_rs, a_cs, pb, &mut c);
            }
        }
    }
    c
}

/// Dense × dense contraction (TTGT), parallel at the GEMM level: when a
/// row panel runs the packed kernel, `B` is packed once — one `KC`-deep
/// block per call; blocks are independent and reassemble to the exact
/// bytes of a monolithic pack — and row-disjoint panels run against the
/// shared operand, both through [`ordered_map`]. `A` is read in place when
/// its permutation moves nothing or is a plain transpose (every kernel but
/// GEMV takes strides), and so is `B` when every panel packs it (see
/// [`mat_operand`]). The result is the natural-order (`free A`, `free B`)
/// `m × n` matrix.
fn dense_product(
    plan: &ContractPlan,
    a: &DenseTensor<f64>,
    b: &DenseTensor<f64>,
    pool: Option<&ThreadPool>,
) -> Result<Vec<f64>> {
    plan.output_dims(a.dims(), b.dims())?; // validates shapes
    let (m, k, n) = fused_dims(plan, a.dims(), b.dims());
    let path = gemm_path(k, n);
    let ranges = dense_ranges(path, m, lanes(pool));
    let (perm_a, perm_b) = plan.operand_permutations();
    let packs =
        |&(r0, r1): &(usize, usize)| panel_kernel(path, r1 - r0, k, n) == PanelKernel::Packed;
    let a_mat = mat_operand(a, perm_a, m, k, path != GemmPath::Gemv)?;
    let b_mat = mat_operand(b, perm_b, k, n, ranges.iter().all(packs))?;
    // one row range: nothing to fan out, and `B` is packed here too
    let pool = pool.filter(|_| ranges.len() > 1);
    let pb = ranges.iter().any(packs).then(|| {
        let blocks = ordered_map(pool, PackedB::<f64>::block_count(k), |blk| {
            PackedB::pack_block(k, n, &b_mat.data, b_mat.rs, b_mat.cs, blk)
        });
        PackedB::from_blocks(k, n, blocks)
    });
    let panels = ordered_map(pool, ranges.len(), |i| {
        dense_rows(
            path,
            ranges[i],
            (k, n),
            &a_mat.data,
            (a_mat.rs, a_mat.cs),
            &b_mat.data,
            pb.as_ref(),
        )
    });
    Ok(concat_rows(panels, m * n))
}

/// A dense product in natural (`free A`, `free B`) order, before its
/// output permutation: what a `Contract` task computes, whichever way its
/// result then goes.
pub(crate) struct NaturalProduct<'p> {
    plan: &'p ContractPlan,
    dims: Vec<usize>,
    c: Vec<f64>,
}

impl<'p> NaturalProduct<'p> {
    /// `a ·plan· b`, computed (see [`dense_product`]).
    pub(crate) fn compute(
        plan: &'p ContractPlan,
        a: &DenseTensor<f64>,
        b: &DenseTensor<f64>,
        pool: Option<&ThreadPool>,
    ) -> Result<Self> {
        let c = dense_product(plan, a, b, pool)?;
        let dims = natural_dims(plan, a.dims(), b.dims());
        Ok(Self { plan, dims, c })
    }

    /// The product as the output tensor: permuted into a fresh buffer, or
    /// moved when the output permutation fuses to the identity.
    pub(crate) fn into_output(self) -> Result<DenseTensor<f64>> {
        into_output(self.dims, self.c, self.plan.output_permutation())
    }

    /// `target += ` the output tensor, added through the output
    /// permutation in one walk ([`permute_add_into`]) instead of permuted
    /// into a fresh partial first: every element of `target` receives one
    /// `+=` of the value the partial would hold, so the bits are those of
    /// adding [`NaturalProduct::into_output`]'s buffer. `target` is left
    /// untouched when its length is not the product's.
    pub(crate) fn add_into(&self, target: &mut [f64]) -> Result<()> {
        Ok(permute_add_into(
            &self.c,
            &self.dims,
            self.plan.output_permutation(),
            target,
        )?)
    }
}

/// `a ·plan· b` as the output tensor — the dense kernel of the in-process
/// lanes.
pub(crate) fn dense_contract(
    plan: &ContractPlan,
    a: &DenseTensor<f64>,
    b: &DenseTensor<f64>,
    pool: Option<&ThreadPool>,
) -> Result<DenseTensor<f64>> {
    NaturalProduct::compute(plan, a, b, pool)?.into_output()
}
