//! Dense × dense: operands as strided matrices, the row-panel unit of
//! work and its kernel, and the product over [`ordered_map`] — the one
//! dense kernel of the in-process lanes and of a worker's `Contract` task.
//! Every panel writes its finished tiles through a [`RunView`] of the
//! output permutation: a fresh result stores them, an accumulate step
//! adds them to its target ([`Epilogue`]), and no product exists in
//! natural order.

use super::{dense_ranges, fused_dims, lanes, natural_dims, ordered_map};
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

/// The view `a ·plan· b` is written through: its natural-order `m × n`
/// product at its place in output order.
pub(crate) fn output_view(
    plan: &ContractPlan,
    a_dims: &[usize],
    b_dims: &[usize],
) -> Result<RunView> {
    plan.output_dims(a_dims, b_dims)?; // validates shapes
    let (m, _, n) = fused_dims(plan, a_dims, b_dims);
    let nat_dims = natural_dims(plan, a_dims, b_dims);
    Ok(RunView::output(
        &nat_dims,
        plan.output_permutation(),
        (m, n),
    )?)
}

/// Dense × dense contraction (TTGT) into `out` through `view` (the
/// [`output_view`] of these operand shapes), parallel at the GEMM level:
/// when a row panel runs the packed kernel, `B` is packed once — one
/// `KC`-deep block per call; blocks are independent and reassemble to the
/// exact bytes of a monolithic pack — and row-disjoint panels run against
/// the shared operand, each writing its own band of `out`'s rows, both
/// through [`ordered_map`]. `A` is read in place when its permutation
/// moves nothing or is a plain transpose (every kernel but GEMV takes
/// strides), and so is `B` when every panel packs it (see
/// [`mat_operand`]). Every element of `out` receives its whole sum once —
/// stored, or added as `how` says — so a target is left untouched when
/// its length is not the view's.
pub(crate) fn dense_into(
    plan: &ContractPlan,
    view: &RunView,
    a: &DenseTensor<f64>,
    b: &DenseTensor<f64>,
    pool: Option<&ThreadPool>,
    out: &mut [f64],
    how: Epilogue,
) -> Result<()> {
    plan.output_dims(a.dims(), b.dims())?; // validates shapes
    let (m, k, n) = fused_dims(plan, a.dims(), b.dims());
    if (view.rows().len(), view.n()) != (m, n) {
        return Err(Error::Runtime(format!(
            "a {}-row, {}-column view for an {m} × {n} product",
            view.rows().len(),
            view.n()
        )));
    }
    let path = gemm_path(k, n);
    let ranges = dense_ranges(path, m, lanes(pool));
    let bands = ViewMut::bands(view, out, &ranges)?;
    let (perm_a, perm_b) = plan.operand_permutations();
    let packs =
        |&(r0, r1): &(usize, usize)| panel_kernel(path, r1 - r0, k, n) == PanelKernel::Packed;
    let a_mat = mat_operand(a, perm_a, m, k, path != GemmPath::Gemv)?;
    let b_mat = mat_operand(b, perm_b, k, n, ranges.iter().all(packs))?;
    // one row range: nothing to fan out, and `B` is packed here too
    let pool = pool.filter(|_| ranges.len() > 1);
    let pb = ranges.iter().any(packs).then(|| {
        let blocks = ordered_map(pool, 0..PackedB::<f64>::block_count(k), |blk| {
            PackedB::pack_block(k, n, &b_mat.data, b_mat.rs, b_mat.cs, blk)
        });
        PackedB::from_blocks(k, n, blocks)
    });
    ordered_map(
        pool,
        bands.into_iter().zip(&ranges),
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

/// `a ·plan· b` as a fresh output tensor — the dense kernel of the
/// in-process lanes, and of a worker's `Contract` with a fresh result.
pub(crate) fn dense_contract(
    plan: &ContractPlan,
    a: &DenseTensor<f64>,
    b: &DenseTensor<f64>,
    pool: Option<&ThreadPool>,
) -> Result<DenseTensor<f64>> {
    let view = output_view(plan, a.dims(), b.dims())?;
    let mut c = vec![0.0; view.len()];
    dense_into(plan, &view, a, b, pool, &mut c, Epilogue::Store)?;
    Ok(DenseTensor::from_vec(
        plan.output_dims(a.dims(), b.dims())?,
        c,
    )?)
}
