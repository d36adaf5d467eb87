//! Deterministic, chunkable local contraction kernels.
//!
//! The executor's two modes must produce **bitwise-identical** results, so
//! every kernel here partitions work by *disjoint output rows*: for a fixed
//! output element the accumulation order never depends on how many chunks
//! (threads) the row space was split into. Sequential execution is the
//! single-chunk special case of the same code path.
//!
//! Two load-balancing strategies coexist:
//!
//! * the dense kernel parallelizes **inside** the GEMM — `B` is packed
//!   once (shared across the pool), then [`MC`]-aligned row panels of the
//!   packed microkernel run as independent jobs;
//! * the sparse kernels split rows by **work volume** — a prefix sum of
//!   per-row flops picks the chunk boundaries, so a handful of dense rows
//!   (the skewed patterns block-sparse flattening produces) no longer
//!   serializes onto one worker the way a uniform row split did.
//!
//! The kernels are TTGT (transpose–GEMM–transpose) in meaning only: a
//! permutation is executed when elements really have to change order.
//! An operand whose permutation fuses to the identity
//! ([`tt_tensor::transpose::motion`]) is read where it lies, a plain
//! matrix transpose reaches the packed GEMM as strides, and the
//! sparse-dense kernel gathers `B` rows and scatters `C` rows through
//! [`SdView`] offset tables whenever the trailing free modes form a
//! contiguous run. None of this touches arithmetic: every output element
//! still accumulates the same products in the same order.

use crate::pool::{PoolJob, ThreadPool};
use crate::{Error, Result};
use std::borrow::Cow;
use tt_tensor::einsum::ContractPlan;
use tt_tensor::gemm::{
    gemm_acc_packed_rows, gemm_acc_slices, gemm_path, gemv_acc_rows, GemmPath, PackedB, MC,
};
use tt_tensor::shape::is_permutation;
use tt_tensor::ssmerge::{merge_chunk, SsBTable};
use tt_tensor::transpose::{motion, permute_data, Motion};
use tt_tensor::{DenseTensor, Scalar, Shape, SparseTensor};

/// Contiguous row ranges `[r0, r1)`, in row order.
pub(crate) type Ranges = Vec<(usize, usize)>;

/// `f(0), …, f(n − 1)`, in that order: across the pool when there is one
/// and more than one call to make, on this thread otherwise. The one way
/// kernel work reaches a lane — `f` borrows whatever it needs, and the
/// result order never depends on which leg ran.
pub(crate) fn ordered_map<T: Send>(
    pool: Option<&ThreadPool>,
    n: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    match pool {
        Some(pool) if n > 1 => {
            let f = &f;
            pool.run(
                (0..n)
                    .map(|i| Box::new(move || f(i)) as PoolJob<T>)
                    .collect(),
            )
        }
        _ => (0..n).map(f).collect(),
    }
}

/// Lanes a kernel may fan out over: the pool's threads, or one.
fn lanes(pool: Option<&ThreadPool>) -> usize {
    pool.map_or(1, ThreadPool::threads)
}

/// Work volume (flops) below which the sparse kernels stay on a single
/// lane: at small sizes the dispatch overhead (job boxing, channel
/// wakeups, shared-queue contention — or a frame per worker) costs more
/// than the kernel itself — `BENCH_kernels.json` measured
/// `sd_contract_threaded` at 512×128×64 (~5.6 MFlop) *slower* than
/// sequential before this gate existed.
const SPARSE_PAR_MIN_FLOPS: u64 = 16_000_000;

/// The sparse fan-out rule: how many row chunks a sparse-dense or
/// sparse-sparse contraction of `flops` flops is cut into, given `lanes`
/// pool threads or worker ranks.
pub(crate) fn sparse_chunks(flops: u64, lanes: usize) -> usize {
    if flops < SPARSE_PAR_MIN_FLOPS {
        1
    } else {
        lanes
    }
}

/// The dense fan-out rule: the row ranges an `m`-row GEMM on kernel path
/// `path` is cut into over `lanes` — [`MC`]-aligned on the packed path,
/// uniform otherwise; never gated on work size.
pub(crate) fn dense_ranges(path: GemmPath, m: usize, lanes: usize) -> Ranges {
    match path {
        GemmPath::Packed => mc_aligned_ranges(m, lanes),
        GemmPath::Gemv | GemmPath::Scalar => row_ranges(m, lanes),
    }
}

/// Split `m` rows into at most `chunks` contiguous ranges. Always returns
/// at least one (possibly empty) range so zero-extent outputs flow through
/// the same chunked path instead of panicking downstream.
fn row_ranges(m: usize, chunks: usize) -> Vec<(usize, usize)> {
    if m == 0 {
        return vec![(0, 0)];
    }
    let chunks = chunks.clamp(1, m);
    let per = m.div_ceil(chunks);
    (0..m)
        .step_by(per.max(1))
        .map(|r0| (r0, (r0 + per).min(m)))
        .collect()
}

/// Split `m` rows into at most `chunks` ranges whose boundaries are
/// [`MC`]-aligned, so every chunking packs exactly the same `A` panels as
/// the sequential single-chunk run (GEMM-level parallelism contract).
fn mc_aligned_ranges(m: usize, chunks: usize) -> Vec<(usize, usize)> {
    if m == 0 {
        return vec![(0, 0)];
    }
    let panels = m.div_ceil(MC);
    let chunks = chunks.clamp(1, panels);
    let per = panels.div_ceil(chunks);
    (0..panels)
        .step_by(per)
        .map(|p0| (p0 * MC, ((p0 + per) * MC).min(m)))
        .collect()
}

/// Split `m` rows into at most `chunks` ranges of approximately equal
/// total `weights` (per-row work), via prefix sums. Ranges may have wildly
/// different widths; empty ranges are possible when the distribution is
/// extreme.
fn volume_ranges(weights: &[u64], chunks: usize) -> Vec<(usize, usize)> {
    let m = weights.len();
    if m == 0 {
        return vec![(0, 0)];
    }
    let chunks = chunks.clamp(1, m);
    let total: u128 = weights.iter().map(|&w| w as u128).sum();
    if chunks == 1 || total == 0 {
        return vec![(0, m)];
    }
    let mut prefix: Vec<u128> = Vec::with_capacity(m + 1);
    prefix.push(0);
    for &w in weights {
        prefix.push(prefix.last().unwrap() + w as u128);
    }
    let mut ranges = Vec::with_capacity(chunks);
    let mut r0 = 0usize;
    for c in 1..=chunks {
        let target = total * c as u128 / chunks as u128;
        // first row index whose prefix reaches the target share
        let r1 = if c == chunks {
            m
        } else {
            prefix.partition_point(|&p| p < target).min(m).max(r0)
        };
        ranges.push((r0, r1));
        r0 = r1;
    }
    ranges
}

/// Fused dimensions of a contraction: output rows `m`, contracted `k`,
/// output cols `n`.
pub(crate) fn fused_dims(
    plan: &ContractPlan,
    a_dims: &[usize],
    b_dims: &[usize],
) -> (usize, usize, usize) {
    let m = plan.free_a_positions().iter().map(|&i| a_dims[i]).product();
    let k = plan.ctr_a_positions().iter().map(|&i| a_dims[i]).product();
    let n = plan.free_b_positions().iter().map(|&j| b_dims[j]).product();
    (m, k, n)
}

pub(crate) fn natural_dims(plan: &ContractPlan, a_dims: &[usize], b_dims: &[usize]) -> Vec<usize> {
    plan.free_a_positions()
        .iter()
        .map(|&i| a_dims[i])
        .chain(plan.free_b_positions().iter().map(|&j| b_dims[j]))
        .collect()
}

/// TTGT operand permutations of a plan: `A` to `(free, contracted)` and
/// `B` to `(contracted, free)` order.
pub(crate) fn operand_perms(plan: &ContractPlan) -> (Vec<usize>, Vec<usize>) {
    let mut perm_a: Vec<usize> = plan.free_a_positions().to_vec();
    perm_a.extend_from_slice(plan.ctr_a_positions());
    let mut perm_b: Vec<usize> = plan.ctr_b_positions().to_vec();
    perm_b.extend_from_slice(plan.free_b_positions());
    (perm_a, perm_b)
}

/// A dense operand as the `rows × cols` matrix the GEMM kernels read:
/// element `(i, l)` lives at `data[i·rs + l·cs]`.
struct MatOperand<'a, T: Scalar> {
    data: Cow<'a, [T]>,
    rs: usize,
    cs: usize,
}

/// `t` permuted by `perm` as a `rows × cols` matrix, executing the
/// permutation only when elements have to change order: an identity (after
/// fusion) borrows `t`'s storage, and — when the consumer takes strides
/// (`strided`: the packed GEMM path) — so does a plain matrix transpose.
fn mat_operand<'a, T: Scalar>(
    t: &'a DenseTensor<T>,
    perm: &[usize],
    rows: usize,
    cols: usize,
    strided: bool,
) -> Result<MatOperand<'a, T>> {
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

/// The natural-order (`free A`, `free B`) result buffer as the output
/// tensor: moved when the output permutation fuses to the identity,
/// permuted otherwise.
fn into_output<T: Scalar>(
    nat_dims: Vec<usize>,
    c: Vec<T>,
    out_perm: &[usize],
) -> Result<DenseTensor<T>> {
    let out_dims: Vec<usize> = out_perm.iter().map(|&q| nat_dims[q]).collect();
    let c = match motion(&nat_dims, out_perm)? {
        Motion::Identity => c,
        _ => permute_data(&c, &nat_dims, out_perm)?,
    };
    Ok(DenseTensor::from_vec(out_dims, c)?)
}

/// The epilogue of every dense-result leg: the natural-order rows of
/// `a ·plan· b`, as computed locally or concatenated from worker panels,
/// as the output tensor.
pub(crate) fn natural_output<T: Scalar>(
    plan: &ContractPlan,
    a_dims: &[usize],
    b_dims: &[usize],
    c: Vec<T>,
) -> Result<DenseTensor<T>> {
    into_output(
        natural_dims(plan, a_dims, b_dims),
        c,
        plan.output_permutation(),
    )
}

/// Row panels in row order as one buffer: a single panel moves.
fn concat_rows<T: Scalar>(mut panels: Vec<Vec<T>>, len: usize) -> Vec<T> {
    if panels.len() == 1 {
        return panels.pop().expect("one panel");
    }
    let mut c = Vec::with_capacity(len);
    for panel in panels {
        c.extend_from_slice(&panel);
    }
    c
}

/// Rows `[r0, r1)` of `A · B` as a fresh row panel — the unit of work of
/// every dense path (in-process lane, multi-process worker). `a` is the
/// full `m × k` matrix through strides `(a_rs, a_cs)` (contiguous rows
/// unless the path is packed); `b` is the contiguous `k × n` matrix, read
/// by the GEMV and scalar paths; `pb` is `B` packed, read by the packed
/// path.
#[allow(clippy::too_many_arguments)]
fn dense_rows<T: Scalar>(
    path: GemmPath,
    (r0, r1): (usize, usize),
    (k, n): (usize, usize),
    a: &[T],
    (a_rs, a_cs): (usize, usize),
    b: &[T],
    pb: Option<&PackedB<T>>,
) -> Vec<T> {
    let rows = r1 - r0;
    match path {
        GemmPath::Gemv => {
            // Davidson matvec shape: skip the blocked machinery entirely
            let mut c = vec![T::zero(); rows];
            gemv_acc_rows(r0, r1, k, a, b, 1, &mut c);
            c
        }
        GemmPath::Scalar => {
            let mut c = vec![T::zero(); rows * n];
            gemm_acc_slices(rows, k, n, &a[r0 * k..r1 * k], b, &mut c);
            c
        }
        GemmPath::Packed => {
            let mut c = vec![T::zero(); rows * n];
            if let Some(pb) = pb {
                gemm_acc_packed_rows(r0, r1, a, a_rs, a_cs, pb, &mut c);
            }
            c
        }
    }
}

/// The prelude both legs of a dense contraction share: the validated
/// fused dims `(m, k, n)`, the kernel path ([`gemm_path`]`(k, n)`,
/// invariant under row chunking) and the row ranges over `lanes`.
pub(crate) fn dense_prepare(
    plan: &ContractPlan,
    a_dims: &[usize],
    b_dims: &[usize],
    lanes: usize,
) -> Result<((usize, usize, usize), GemmPath, Ranges)> {
    plan.output_dims(a_dims, b_dims)?; // validates shapes
    let (m, k, n) = fused_dims(plan, a_dims, b_dims);
    let path = gemm_path(k, n);
    Ok(((m, k, n), path, dense_ranges(path, m, lanes)))
}

/// Dense × dense contraction (TTGT), parallel at the GEMM level: `B` is
/// packed once — one `KC`-deep block per call; blocks are independent and
/// reassemble to the exact bytes of a monolithic pack — and row-disjoint
/// panels run the microkernel against the shared packed operand, both
/// through [`ordered_map`]. Operands are read in place when their
/// permutation moves nothing (see [`mat_operand`]), on every lane.
pub(crate) fn dense_contract<T: Scalar>(
    plan: &ContractPlan,
    a: &DenseTensor<T>,
    b: &DenseTensor<T>,
    pool: Option<&ThreadPool>,
) -> Result<DenseTensor<T>> {
    let ((m, k, n), path, ranges) = dense_prepare(plan, a.dims(), b.dims(), lanes(pool))?;
    let (perm_a, perm_b) = operand_perms(plan);
    let packed = path == GemmPath::Packed;
    let a_mat = mat_operand(a, &perm_a, m, k, packed)?;
    let b_mat = mat_operand(b, &perm_b, k, n, packed)?;
    // one row range: nothing to fan out, and `B` is packed here too
    let pool = pool.filter(|_| ranges.len() > 1);
    let pb = packed.then(|| {
        let blocks = ordered_map(pool, PackedB::<T>::block_count(k), |blk| {
            PackedB::<T>::pack_block(k, n, &b_mat.data, b_mat.rs, b_mat.cs, blk)
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
    natural_output(plan, a.dims(), b.dims(), concat_rows(panels, m * n))
}

/// One dense chunk computed from a *local* row slab: the shared-nothing
/// form of the per-range jobs in [`dense_contract`], used by the
/// multi-process worker. `a_slab` holds `rows` rows of the permuted `A`
/// matrix and `b_mat` the full permuted `B`; for the packed path the
/// worker packs `B` itself (identical `PackedB` contents every time, so
/// results stay bitwise-equal to the in-process kernels — provided the
/// slab's first row is [`MC`]-aligned in the global matrix, which keeps
/// the `A`-panel blocking identical).
pub(crate) fn dense_chunk<T: Scalar>(
    path: GemmPath,
    rows: usize,
    k: usize,
    n: usize,
    a_slab: &[T],
    b_mat: &[T],
) -> Vec<T> {
    let pb = (path == GemmPath::Packed && rows > 0).then(|| PackedB::pack(k, n, b_mat, n, 1));
    dense_rows(path, (0, rows), (k, n), a_slab, (k, 1), b_mat, pb.as_ref())
}

/// `(fused output row, fused contracted col, value)` triples of a sparse
/// operand, in stored-offset order.
pub(crate) fn sparse_coords(
    t: &SparseTensor<f64>,
    row_modes: &[usize],
    col_modes: &[usize],
) -> Vec<Coord> {
    // per mode of a fused index: (stride in `t`, extent, weight in the
    // fused index) — an entry's coordinate is then plain arithmetic on
    // its offset, with no multi-index materialized
    let dims = t.dims();
    let strides = t.shape().strides();
    let terms = |modes: &[usize]| -> Vec<(u64, u64, u64)> {
        let mut weight = 1u64;
        modes
            .iter()
            .rev()
            .map(|&m| {
                let term = (strides[m] as u64, dims[m] as u64, weight);
                weight *= dims[m] as u64;
                term
            })
            .collect()
    };
    let (row_terms, col_terms) = (terms(row_modes), terms(col_modes));
    let fuse = |off: u64, terms: &[(u64, u64, u64)]| -> u64 {
        terms
            .iter()
            .map(|&(stride, extent, weight)| (off / stride) % extent * weight)
            .sum()
    };
    t.entries()
        .map(|(off, v)| (fuse(off, &row_terms), fuse(off, &col_terms), v))
        .collect()
}

/// A `(fused row, fused col, value)` sparse coordinate.
pub(crate) type Coord = (u64, u64, f64);

/// Decompose a row-major fused index over `axes` (`(dimension, output
/// stride)` pairs, most-significant first) and re-fuse it with the output
/// strides. The row and column halves of an output offset add.
fn unfuse_to_out(fused: u64, axes: &[(u64, u64)]) -> u64 {
    let mut rem = fused;
    let mut off = 0u64;
    for &(dim, stride) in axes.iter().rev() {
        off += (rem % dim) * stride;
        rem /= dim;
    }
    off
}

/// Bucket coords into work-balanced row ranges, preserving scan order
/// inside each bucket (the property that makes chunked accumulation
/// bitwise-stable: every output row lives in exactly one bucket, and its
/// coords keep their stored order there).
///
/// `coord_work` gives each coordinate's flop weight; per-row weights are
/// their sum. Bucket lookup binary-searches the range starts — ranges are
/// *not* uniform in width, so the old `row / first_range_width` indexing
/// would misbucket everything past the first boundary.
pub(crate) fn bucket_by_volume(
    coords: Vec<Coord>,
    m: usize,
    chunks: usize,
    coord_work: impl Fn(&Coord) -> u64,
) -> (Vec<(usize, usize)>, Vec<Vec<Coord>>) {
    let mut weights = vec![0u64; m];
    for c in &coords {
        weights[c.0 as usize] += coord_work(c);
    }
    let ranges = volume_ranges(&weights, chunks);
    let starts: Vec<usize> = ranges.iter().map(|&(r0, _)| r0).collect();
    let mut buckets: Vec<Vec<Coord>> = vec![Vec::new(); ranges.len()];
    for c in coords {
        // last range whose start is <= row; empty ranges share a start
        // with their successor, and partition_point picks the last of the
        // run — the one that actually contains the row
        let b = starts.partition_point(|&s| s <= c.0 as usize) - 1;
        buckets[b].push(c);
    }
    (ranges, buckets)
}

/// Shortest contiguous run worth addressing through an offset table:
/// below it the per-run loop overhead of [`sd_chunk`] outweighs the
/// transposition it saves, and the operand is permuted into one
/// full-width run instead.
const SD_MIN_RUN: usize = 32;

/// Where the logical `rows × n` matrix of a sparse-dense operand lives in
/// its buffer, as *(offset tables, contiguous inner run)*: with `run`
/// elements per run (a property of the contraction, shared by the `B` and
/// `C` views), element `(r, o·run + i)` sits at
/// `rows[r] + outer[o] + i`. A plain row-major matrix is the view with one
/// full-width run per row.
pub(crate) struct SdView {
    rows: Vec<usize>,
    outer: Vec<usize>,
}

impl SdView {
    /// The view of a contiguous row-major `rows × n` matrix, cut into runs
    /// of `run` elements (`run` divides `n`; both may be zero).
    pub(crate) fn matrix(rows: usize, n: usize, run: usize) -> Self {
        Self {
            rows: (0..rows).map(|r| r * n).collect(),
            outer: (0..n / run.max(1)).map(|o| o * run).collect(),
        }
    }

    /// The view of a tensor read in place, modes most significant first.
    fn strided(row_modes: &[Axis], outer_modes: &[Axis]) -> Self {
        Self {
            rows: mode_offsets(row_modes),
            outer: mode_offsets(outer_modes),
        }
    }
}

/// One mode of a tensor read in place: `(extent, stride)`.
type Axis = (usize, usize);

/// Offsets of every index combination of `modes` (most significant first)
/// in row-major order.
fn mode_offsets(modes: &[Axis]) -> Vec<usize> {
    let mut offs = vec![0usize];
    for &(dim, stride) in modes {
        offs = offs
            .iter()
            .flat_map(|&base| (0..dim).map(move |i| base + i * stride))
            .collect();
    }
    offs
}

/// `(extent, stride)` of the modes of a row-major tensor of shape `dims`,
/// listed in `order`, unit modes dropped.
fn strided_modes(dims: &[usize], order: &[usize]) -> Vec<Axis> {
    order
        .iter()
        .filter(|&&p| dims[p] != 1)
        .map(|&p| (dims[p], dims[p + 1..].iter().product()))
        .collect()
}

/// Split `modes` in front of its trailing group of total extent `width`.
fn split_trailing(modes: &[Axis], width: usize) -> Result<(&[Axis], &[Axis])> {
    let (mut at, mut got) = (modes.len(), 1usize);
    while got < width && at > 0 {
        at -= 1;
        got *= modes[at].0;
    }
    if got != width {
        return Err(Error::Runtime(format!(
            "no trailing modes of {modes:?} span {width} elements"
        )));
    }
    Ok(modes.split_at(at))
}

/// Extent of the longest trailing group of `cols` that is contiguous
/// (unit stride, each mode nested directly inside the previous).
fn trailing_run(cols: &[Axis]) -> usize {
    let mut run = 1;
    for &(dim, stride) in cols.iter().rev() {
        if stride != run {
            break;
        }
        run *= dim;
    }
    run
}

/// The dense side of one sparse-dense contraction — everything the layout
/// decision reads. Built from a [`ContractPlan`] by [`sd_contract`] and
/// from the `ChainSd` request fields by the worker, so both make the same
/// decision.
pub(crate) struct SdGeometry<'a> {
    /// Fused output rows (free modes of the sparse operand).
    pub(crate) m: usize,
    /// Fused output columns (free modes of `B`).
    pub(crate) n: usize,
    /// Shape of `B` as stored.
    pub(crate) b_dims: &'a [usize],
    /// `B`'s modes in `(contracted, free)` order.
    pub(crate) perm_b: &'a [usize],
    /// Result shape in natural `(free A, free B)` order.
    pub(crate) nat_dims: &'a [usize],
    /// Natural order → output order.
    pub(crate) out_perm: &'a [usize],
}

/// How [`sd_apply`] addresses `B` and `C`: in place through run views, or
/// as full-width matrices around a real transposition.
struct SdLayout {
    run: usize,
    /// `B` is read where it lies (else: permuted to `k × n` first).
    b_in_place: bool,
    /// `C` is accumulated in output order (else: in natural order, then
    /// permuted).
    c_in_place: bool,
    b: SdView,
    c: SdView,
}

impl SdLayout {
    /// Decide from dims and permutations alone. An operand is used in
    /// place when its trailing free modes form a contiguous run of at
    /// least [`SD_MIN_RUN`] elements (or the whole row: a permutation that
    /// fuses to the identity). `scatter` says whether `C` may be written
    /// in output order at all — only a single chunk owns the whole output
    /// buffer; row panels of a chunked run are natural-order and
    /// concatenated.
    fn choose(g: &SdGeometry, out_dims: &[usize], scatter: bool) -> Result<Self> {
        let n = g.n;
        let mut inv_out = vec![0usize; g.out_perm.len()];
        for (j, &q) in g.out_perm.iter().enumerate() {
            inv_out[q] = j;
        }
        let b_modes = strided_modes(g.b_dims, g.perm_b);
        let c_modes = strided_modes(out_dims, &inv_out);
        let (b_rows, b_cols) = split_trailing(&b_modes, n)?;
        let (c_rows, c_cols) = split_trailing(&c_modes, n)?;
        let k: usize = b_rows.iter().map(|m| m.0).product();
        if !b_cols.iter().map(|m| m.0).eq(c_cols.iter().map(|m| m.0))
            || c_rows.iter().map(|m| m.0).product::<usize>() != g.m
        {
            return Err(Error::Runtime(
                "sparse-dense operand and result shapes disagree".into(),
            ));
        }
        let (run_b, run_c) = (trailing_run(b_cols), trailing_run(c_cols));
        let usable = |run: usize| run >= SD_MIN_RUN || run == n;
        let (b_in_place, c_in_place, run) = if scatter && usable(run_b.min(run_c)) {
            (true, true, run_b.min(run_c))
        } else if usable(run_b) {
            (true, false, run_b)
        } else if scatter && usable(run_c) {
            (false, true, run_c)
        } else {
            (false, false, n)
        };
        // `run` is a trailing product of the column extents either way
        let (b_outer, c_outer) = (
            split_trailing(b_cols, run)?.0,
            split_trailing(c_cols, run)?.0,
        );
        let view = |in_place: bool, rows: &[Axis], outer: &[Axis], r: usize| {
            if in_place {
                SdView::strided(rows, outer)
            } else {
                SdView::matrix(r, n, run)
            }
        };
        Ok(Self {
            run,
            b_in_place,
            c_in_place,
            b: view(b_in_place, b_rows, b_outer, k),
            c: view(c_in_place, c_rows, c_outer, g.m),
        })
    }
}

/// One sparse-dense chunk: accumulate `bucket`'s entries (all with fused
/// rows in `[r0, r0 + c.rows.len())`) against dense `B` into the chunk's
/// rows of `C`, both addressed through [`SdView`]s (`c`'s row table is
/// chunk-local: row `r` is entry `r - r0`). The one body behind the
/// inline path, the pool jobs and the multi-process worker — per output
/// element the accumulation order is the stored-entry order whatever the
/// views are, so the layout decision never shows in a result bit. Charges
/// the global flop counter here (not in the wrapper) so the count lands
/// in whichever process actually ran the chunk; the transport propagates
/// worker-side counts back to the driver.
pub(crate) fn sd_chunk(
    r0: usize,
    bucket: &[Coord],
    run: usize,
    b: &SdView,
    b_data: &[f64],
    c: &SdView,
    c_data: &mut [f64],
) {
    tt_tensor::counter::add_flops(2 * (bucket.len() * run * b.outer.len()) as u64);
    for &(row, col, v) in bucket {
        let (c_row, b_row) = (c.rows[row as usize - r0], b.rows[col as usize]);
        for (&co, &bo) in c.outer.iter().zip(&b.outer) {
            let c_run = &mut c_data[c_row + co..c_row + co + run];
            let b_run = &b_data[b_row + bo..b_row + bo + run];
            for (cj, &bj) in c_run.iter_mut().zip(b_run) {
                *cj += v * bj;
            }
        }
    }
}

/// Rows `[r0, r1)` of a sparse-dense product as a fresh natural-order
/// row panel: the chunk form used by pool jobs and the worker's `SdChunk`.
pub(crate) fn sd_panel(
    (r0, r1): (usize, usize),
    n: usize,
    bucket: &[Coord],
    run: usize,
    b: &SdView,
    b_data: &[f64],
) -> Vec<f64> {
    let mut c = vec![0.0f64; (r1 - r0) * n];
    let c_view = SdView::matrix(r1 - r0, n, run);
    sd_chunk(r0, bucket, run, b, b_data, &c_view, &mut c);
    c
}

/// The dense half of a sparse-dense contraction: accumulate `coords`
/// (`A`'s fused entries, stored order) against `B` and return the output
/// tensor. One chunk runs inline and, when the layout allows, writes `C`
/// straight into output order; more chunks bucket the coords by volume
/// and fan natural-order row panels out over the pool. `B` is borrowed
/// unless it has to be transposed.
pub(crate) fn sd_apply(
    g: &SdGeometry,
    b: &[f64],
    coords: Cow<[Coord]>,
    chunks: usize,
    pool: Option<&ThreadPool>,
) -> Result<DenseTensor<f64>> {
    let (m, n) = (g.m, g.n);
    // the worker builds `g` from request fields: check before indexing
    if !is_permutation(g.perm_b, g.b_dims.len())
        || !is_permutation(g.out_perm, g.nat_dims.len())
        || b.len() != g.b_dims.iter().product::<usize>()
        || m * n != g.nat_dims.iter().product::<usize>()
    {
        return Err(Error::Runtime(
            "sparse-dense geometry does not match its operands".into(),
        ));
    }
    let out_dims: Vec<usize> = g.out_perm.iter().map(|&q| g.nat_dims[q]).collect();
    if m * n == 0 || b.is_empty() {
        return Ok(DenseTensor::zeros(out_dims));
    }
    let parallel = pool.filter(|_| chunks > 1);
    let layout = SdLayout::choose(g, &out_dims, parallel.is_none())?;
    let b_data: Cow<[f64]> = if layout.b_in_place {
        Cow::Borrowed(b)
    } else {
        Cow::Owned(permute_data(b, g.b_dims, g.perm_b)?)
    };
    if parallel.is_none() {
        let mut c = vec![0.0f64; m * n];
        sd_chunk(
            0, &coords, layout.run, &layout.b, &b_data, &layout.c, &mut c,
        );
        return if layout.c_in_place {
            Ok(DenseTensor::from_vec(out_dims, c)?)
        } else {
            into_output(g.nat_dims.to_vec(), c, g.out_perm)
        };
    }
    let (ranges, buckets) = sd_buckets(coords.into_owned(), m, n, chunks);
    let panels = ordered_map(parallel, ranges.len(), |i| {
        sd_panel(ranges[i], n, &buckets[i], layout.run, &layout.b, &b_data)
    });
    into_output(g.nat_dims.to_vec(), concat_rows(panels, m * n), g.out_perm)
}

/// `coords` as `chunks` volume-balanced row buckets: every stored entry
/// costs one `n`-wide axpy.
pub(crate) fn sd_buckets(
    coords: Vec<Coord>,
    m: usize,
    n: usize,
    chunks: usize,
) -> (Ranges, Vec<Vec<Coord>>) {
    bucket_by_volume(coords, m, chunks, |_| n as u64)
}

/// The prelude both legs of a sparse-dense contraction share: `A`'s
/// coords in stored order, the flops they cost against `B`'s `n`-wide
/// rows, and the chunk count over `lanes`.
pub(crate) fn sd_prepare(
    plan: &ContractPlan,
    a: &SparseTensor<f64>,
    b_dims: &[usize],
    lanes: usize,
) -> Result<(Vec<Coord>, u64, usize)> {
    plan.output_dims(a.dims(), b_dims)?;
    let n = fused_dims(plan, a.dims(), b_dims).2;
    let coords = sparse_coords(a, plan.free_a_positions(), plan.ctr_a_positions());
    let flops = 2 * coords.len() as u64 * n as u64;
    Ok((coords, flops, sparse_chunks(flops, lanes)))
}

/// Sparse × dense contraction producing a dense tensor, row-chunked with
/// volume-balanced (nnz·n) chunk boundaries when [`sparse_chunks`] says
/// the work is worth more than one lane.
pub(crate) fn sd_contract(
    plan: &ContractPlan,
    a: &SparseTensor<f64>,
    b: &DenseTensor<f64>,
    pool: Option<&ThreadPool>,
) -> Result<(DenseTensor<f64>, u64)> {
    let (coords, flops, chunks) = sd_prepare(plan, a, b.dims(), lanes(pool))?;
    let (m, _k, n) = fused_dims(plan, a.dims(), b.dims());
    let g = SdGeometry {
        m,
        n,
        b_dims: b.dims(),
        perm_b: &operand_perms(plan).1,
        nat_dims: &natural_dims(plan, a.dims(), b.dims()),
        out_perm: plan.output_permutation(),
    };
    let c = sd_apply(&g, b.data(), Cow::Owned(coords), chunks, pool)?;
    Ok((c, flops))
}

/// Driver-side preparation for a sparse × sparse contraction: everything
/// the per-chunk jobs consume, computed once. Shared by the in-process
/// kernel and the multi-process executor (which ships the pieces to its
/// workers over the transport).
pub(crate) struct SsPrep<'a> {
    /// Output tensor shape (already permuted to the spec's output order).
    pub(crate) out_shape: Shape,
    /// Fused output row count.
    pub(crate) m: usize,
    /// Fused free-`B` width (the merge kernel's panel width).
    pub(crate) n: u64,
    /// `(dimension, output stride)` pairs for the fused row index.
    pub(crate) row_axes: Vec<(u64, u64)>,
    /// `(dimension, output stride)` pairs for the fused column index,
    /// applied at entry-extraction time (the grouped `B` table itself
    /// stores *fused* free indices, so it is independent of the other
    /// operand's dims and the output permutation — a cached resident table
    /// is reusable across contractions).
    pub(crate) col_axes: Vec<(u64, u64)>,
    /// `B` grouped by contracted key: sorted key runs over flat arrays.
    pub(crate) btab: SsBTable<f64>,
    /// Sorted output-sparsity mask, when given: the caller's own slice
    /// when that already ascends (what `BlockSparseTensor::flat_mask`
    /// hands over), a sorted copy otherwise.
    pub(crate) mask_sorted: Option<Cow<'a, [u64]>>,
    /// `A`'s `(fused row, contracted key, value)` coords in stored order.
    pub(crate) coords: Vec<Coord>,
}

/// Build the shared [`SsPrep`] state for `a ·spec· b`.
pub(crate) fn ss_prepare<'a>(
    plan: &ContractPlan,
    a: &SparseTensor<f64>,
    b: &SparseTensor<f64>,
    mask: Option<&'a [u64]>,
) -> Result<SsPrep<'a>> {
    let out_dims = plan.output_dims(a.dims(), b.dims())?;
    let out_shape = Shape::from(out_dims);
    let (m, _k, n) = fused_dims(plan, a.dims(), b.dims());

    // Precompute the linear map from fused (row, col) coordinates to
    // output offsets: for each natural axis, its dimension and its stride
    // in the (permuted) output. Row and column contributions are then
    // independent sums — no per-product index vectors.
    let ra = plan.free_a_positions().len();
    let nat_dims = natural_dims(plan, a.dims(), b.dims());
    let out_strides = out_shape.strides();
    let mut out_stride_of_nat = vec![0u64; nat_dims.len()];
    for (j, &p) in plan.output_permutation().iter().enumerate() {
        out_stride_of_nat[p] = out_strides[j] as u64;
    }
    let axes = |range: std::ops::Range<usize>| -> Vec<(u64, u64)> {
        range
            .map(|q| (nat_dims[q] as u64, out_stride_of_nat[q]))
            .collect()
    };
    let row_axes = axes(0..ra);
    let col_axes: Vec<(u64, u64)> = axes(ra..nat_dims.len());

    // B grouped by contracted key: one stable sort, flat run arrays. Runs
    // keep stored order, so accumulation is deterministic.
    let btab = SsBTable::build(sparse_coords(
        b,
        plan.ctr_b_positions(),
        plan.free_b_positions(),
    ));

    let mask_sorted = mask.map(|ms| {
        if ms.windows(2).all(|w| w[0] <= w[1]) {
            Cow::Borrowed(ms)
        } else {
            let mut v = ms.to_vec();
            v.sort_unstable();
            Cow::Owned(v)
        }
    });

    let coords = sparse_coords(a, plan.free_a_positions(), plan.ctr_a_positions());
    Ok(SsPrep {
        out_shape,
        m,
        n: n as u64,
        row_axes,
        col_axes,
        btab,
        mask_sorted,
        coords,
    })
}

/// One sparse-sparse chunk: two-pointer merge of the chunk's key-sorted
/// `A` entries against the grouped `B` table, dense-panel accumulation
/// ([`tt_tensor::ssmerge::merge_chunk`]), then resolution of fused
/// `(row, col)` pairs to output offsets and mask filtering at extraction
/// (each output element accumulates independently, so late masking is
/// value-identical to per-product masking). Shared by the pool jobs and
/// the multi-process worker.
///
/// `bucket_sorted` must be stably sorted by contracted key — per output
/// element the products then apply in ascending key order regardless of
/// how rows were chunked, which is what keeps Sequential ≡ Threaded ≡
/// MultiProcess bitwise.
#[allow(clippy::too_many_arguments)]
pub(crate) fn ss_chunk(
    bucket_sorted: &[Coord],
    btab: &SsBTable<f64>,
    r0: usize,
    r1: usize,
    n: u64,
    row_axes: &[(u64, u64)],
    col_axes: &[(u64, u64)],
    mask_sorted: Option<&[u64]>,
) -> (Vec<(u64, f64)>, u64) {
    let (triples, flops) = merge_chunk(bucket_sorted, btab, r0 as u64, r1 as u64, n);
    // triples arrive (row, col)-sorted: cache the row → output-offset
    // resolution across the run of each row
    let mut entries = Vec::with_capacity(triples.len());
    let mut last_row = u64::MAX;
    let mut last_row_out = 0u64;
    for (row, col, v) in triples {
        if row != last_row {
            last_row = row;
            last_row_out = unfuse_to_out(row, row_axes);
        }
        let out_off = last_row_out + unfuse_to_out(col, col_axes);
        if let Some(ms) = mask_sorted {
            if ms.binary_search(&out_off).is_err() {
                continue;
            }
        }
        entries.push((out_off, v));
    }
    // charge the flop counter in the process that ran the chunk (the
    // transport propagates worker-side counts back to the driver)
    tt_tensor::counter::add_flops(flops);
    (entries, flops)
}

impl SsPrep<'_> {
    /// Exact work model: an `A` entry costs one multiply-add per entry of
    /// its matching `B` key run (zero when no run matches).
    fn coord_work(&self, c: &Coord) -> u64 {
        self.btab.run_len(c.1) as u64
    }

    /// Flops of the whole contraction — what [`sparse_chunks`] gates on.
    pub(crate) fn flops(&self) -> u64 {
        2 * self.coords.iter().map(|c| self.coord_work(c)).sum::<u64>()
    }

    /// Take the coords as `chunks` row-disjoint buckets, each stably
    /// sorted by contracted key (the order [`ss_chunk`] consumes, so a
    /// resident bucket amortizes the sort across iterations). Buckets are
    /// balanced by exact work — or, `by_entries`, by stored entries alone:
    /// a resident bucket must not depend on `B`'s pattern, and any
    /// row-contiguous bucketing yields bitwise-identical results.
    pub(crate) fn take_buckets(
        &mut self,
        chunks: usize,
        by_entries: bool,
    ) -> (Ranges, Vec<Vec<Coord>>) {
        let coords = std::mem::take(&mut self.coords);
        let (ranges, mut buckets) = if by_entries {
            bucket_by_volume(coords, self.m, chunks, |_| 1)
        } else {
            bucket_by_volume(coords, self.m, chunks, |c| self.coord_work(c))
        };
        for bucket in &mut buckets {
            bucket.sort_by_key(|c| c.1);
        }
        (ranges, buckets)
    }
}

/// Sparse × sparse contraction with an optional pre-computed output-
/// sparsity mask: sorted-merge join + dense-panel accumulation per chunk,
/// row-chunked with exact per-row work weights (each `A` entry is weighted
/// by its matching `B` key-run length) and fully deterministic (per output
/// element, products apply in ascending contracted-key order independent
/// of chunking).
pub(crate) fn ss_contract(
    plan: &ContractPlan,
    a: &SparseTensor<f64>,
    b: &SparseTensor<f64>,
    mask: Option<&[u64]>,
    pool: Option<&ThreadPool>,
) -> Result<(SparseTensor<f64>, u64)> {
    let prep = ss_prepare(plan, a, b, mask)?;
    let chunks = sparse_chunks(prep.flops(), lanes(pool));
    ss_chunked(prep, chunks, pool)
}

/// [`ss_contract`] over a given chunk count.
fn ss_chunked(
    mut prep: SsPrep,
    chunks: usize,
    pool: Option<&ThreadPool>,
) -> Result<(SparseTensor<f64>, u64)> {
    let (ranges, buckets) = prep.take_buckets(chunks, false);
    let chunk_results = ordered_map(pool, ranges.len(), |i| {
        ss_chunk(
            &buckets[i],
            &prep.btab,
            ranges[i].0,
            ranges[i].1,
            prep.n,
            &prep.row_axes,
            &prep.col_axes,
            prep.mask_sorted.as_deref(),
        )
    });
    // Distinct output rows per chunk ⇒ entry sets are disjoint; the union
    // is just a concatenation that from_entries re-sorts.
    let mut entries = Vec::new();
    let mut flops = 0u64;
    for (chunk, f) in chunk_results {
        entries.extend(chunk);
        flops += f;
    }
    Ok((SparseTensor::from_entries(prep.out_shape, entries)?, flops))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tt_tensor::Complex64;

    fn random_sparse(dims: &[usize], density: f64, seed: u64) -> SparseTensor<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let dense = DenseTensor::<f64>::from_fn(dims, |_| {
            if rng.gen_bool(density) {
                rng.gen_range(-1.0..1.0)
            } else {
                0.0
            }
        });
        SparseTensor::from_dense(&dense, 0.0)
    }

    /// [`sd_contract`] cut into one chunk per pool thread, whatever
    /// [`sparse_chunks`] would say of the work size.
    fn sd_forced(
        plan: &ContractPlan,
        a: &SparseTensor<f64>,
        b: &DenseTensor<f64>,
        pool: &ThreadPool,
    ) -> DenseTensor<f64> {
        let (coords, ..) = sd_prepare(plan, a, b.dims(), 1).unwrap();
        let (m, _k, n) = fused_dims(plan, a.dims(), b.dims());
        let g = SdGeometry {
            m,
            n,
            b_dims: b.dims(),
            perm_b: &operand_perms(plan).1,
            nat_dims: &natural_dims(plan, a.dims(), b.dims()),
            out_perm: plan.output_permutation(),
        };
        sd_apply(&g, b.data(), Cow::Owned(coords), pool.threads(), Some(pool)).unwrap()
    }

    /// [`ss_contract`] cut into one chunk per pool thread likewise.
    fn ss_forced(
        plan: &ContractPlan,
        a: &SparseTensor<f64>,
        b: &SparseTensor<f64>,
        mask: Option<&[u64]>,
        pool: &ThreadPool,
    ) -> SparseTensor<f64> {
        let prep = ss_prepare(plan, a, b, mask).unwrap();
        ss_chunked(prep, pool.threads(), Some(pool)).unwrap().0
    }

    #[test]
    fn dense_kernel_matches_einsum_any_chunking() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = DenseTensor::<f64>::random([7, 3, 9], &mut rng);
        let b = DenseTensor::<f64>::random([9, 3, 5], &mut rng);
        let plan = ContractPlan::parse("ajk,kjc->ca").unwrap();
        let seq = dense_contract(&plan, &a, &b, None).unwrap();
        let pool = ThreadPool::new(3);
        let par = dense_contract(&plan, &a, &b, Some(&pool)).unwrap();
        assert_eq!(seq.data(), par.data(), "threaded must be bitwise identical");
        let reference = tt_tensor::einsum("ajk,kjc->ca", &a, &b).unwrap();
        assert_eq!(seq.data(), reference.data());
    }

    #[test]
    fn dense_kernel_packed_path_bitwise_across_chunkings() {
        // large enough for GemmPath::Packed, with m spanning several MC
        // panels: pool-parallel GEMM must equal sequential bit for bit
        let mut rng = StdRng::seed_from_u64(51);
        let a = DenseTensor::<f64>::random([2 * MC + 37, 65], &mut rng);
        let b = DenseTensor::<f64>::random([65, 70], &mut rng);
        assert_eq!(gemm_path(65, 70), GemmPath::Packed);
        let plan = ContractPlan::parse("ik,kj->ij").unwrap();
        let seq = dense_contract(&plan, &a, &b, None).unwrap();
        for threads in [2, 3, 5, 8] {
            let pool = ThreadPool::new(threads);
            let par = dense_contract(&plan, &a, &b, Some(&pool)).unwrap();
            assert_eq!(seq.data(), par.data(), "threads={threads}");
        }
        let reference = tt_tensor::einsum("ik,kj->ij", &a, &b).unwrap();
        assert_eq!(seq.data(), reference.data());
    }

    #[test]
    fn dense_kernel_gemv_path_used_and_bitwise() {
        // fused n == 1 (Davidson matvec shape)
        let mut rng = StdRng::seed_from_u64(52);
        let a = DenseTensor::<f64>::random([40, 30], &mut rng);
        let x = DenseTensor::<f64>::random([30, 1], &mut rng);
        assert_eq!(gemm_path(30, 1), GemmPath::Gemv);
        let plan = ContractPlan::parse("ik,kj->ij").unwrap();
        let seq = dense_contract(&plan, &a, &x, None).unwrap();
        let pool = ThreadPool::new(4);
        let par = dense_contract(&plan, &a, &x, Some(&pool)).unwrap();
        assert_eq!(seq.data(), par.data());
        let reference = tt_tensor::einsum("ik,kj->ij", &a, &x).unwrap();
        assert_eq!(seq.data(), reference.data());
    }

    #[test]
    fn mc_ranges_cover_and_align() {
        for (m, chunks) in [(1, 4), (MC, 2), (3 * MC + 7, 4), (10 * MC, 3)] {
            let ranges = mc_aligned_ranges(m, chunks);
            assert_eq!(ranges.first().unwrap().0, 0);
            assert_eq!(ranges.last().unwrap().1, m);
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0, "contiguous");
            }
            for &(r0, _) in &ranges {
                assert_eq!(r0 % MC, 0, "start must be MC-aligned");
            }
        }
    }

    #[test]
    fn fan_out_rule_table() {
        // the sparse rule: one chunk below 16 MFlop, one per lane from there
        const GATE: u64 = 16_000_000;
        for lanes in [1usize, 2, 8] {
            assert_eq!(sparse_chunks(0, lanes), 1);
            assert_eq!(sparse_chunks(GATE - 1, lanes), 1);
            assert_eq!(sparse_chunks(GATE, lanes), lanes);
            assert_eq!(sparse_chunks(u64::MAX, lanes), lanes);
        }
        // the dense rule, as the cut points of the ranges: whole MC panels
        // on the packed path, uniform rows otherwise, never more ranges
        // than lanes (or panels, or rows) and no gate on work size
        let every =
            |step: usize, m: usize| -> Vec<usize> { (0..m).step_by(step).chain([m]).collect() };
        let table: [(GemmPath, usize, [Vec<usize>; 3]); 10] = [
            (GemmPath::Packed, 0, [vec![0, 0], vec![0, 0], vec![0, 0]]),
            (GemmPath::Packed, 1, [vec![0, 1], vec![0, 1], vec![0, 1]]),
            (
                GemmPath::Packed,
                MC - 1,
                [every(MC, MC - 1), every(MC, MC - 1), every(MC, MC - 1)],
            ),
            (
                GemmPath::Packed,
                MC,
                [vec![0, MC], vec![0, MC], vec![0, MC]],
            ),
            (
                GemmPath::Packed,
                3 * MC + 1,
                [
                    vec![0, 3 * MC + 1],
                    vec![0, 2 * MC, 3 * MC + 1],
                    every(MC, 3 * MC + 1),
                ],
            ),
            (GemmPath::Scalar, 0, [vec![0, 0], vec![0, 0], vec![0, 0]]),
            (GemmPath::Gemv, 1, [vec![0, 1], vec![0, 1], vec![0, 1]]),
            (
                GemmPath::Scalar,
                MC - 1,
                [
                    vec![0, MC - 1],
                    every(MC / 2, MC - 1),
                    every(MC / 8, MC - 1),
                ],
            ),
            (
                GemmPath::Gemv,
                MC,
                [vec![0, MC], every(MC / 2, MC), every(MC / 8, MC)],
            ),
            (
                GemmPath::Scalar,
                3 * MC + 1,
                [
                    vec![0, 3 * MC + 1],
                    vec![0, 193, 3 * MC + 1],
                    every(49, 3 * MC + 1),
                ],
            ),
        ];
        for (path, m, by_lanes) in table {
            for (lanes, cuts) in [1usize, 2, 8].into_iter().zip(by_lanes) {
                let ranges = dense_ranges(path, m, lanes);
                let got: Vec<usize> = ranges
                    .iter()
                    .map(|r| r.0)
                    .chain(ranges.last().map(|r| r.1))
                    .collect();
                assert_eq!(got, cuts, "{path:?} m={m} lanes={lanes}");
                assert!(ranges.windows(2).all(|w| w[0].1 == w[1].0), "contiguous");
            }
        }
    }

    #[test]
    fn volume_ranges_balance_skewed_rows() {
        // first row carries almost all the work; uniform splitting would
        // put rows [0, m/2) on one chunk
        let mut weights = vec![1u64; 64];
        weights[0] = 10_000;
        let ranges = volume_ranges(&weights, 4);
        assert_eq!(ranges.first().unwrap().0, 0);
        assert_eq!(ranges.last().unwrap().1, 64);
        // the heavy row must be alone in its range
        assert_eq!(ranges[0], (0, 1), "heavy row isolated: {ranges:?}");
        // and ranges are non-uniform in width (the latent bug trigger)
        let widths: Vec<usize> = ranges.iter().map(|&(a, b)| b - a).collect();
        assert!(widths.windows(2).any(|w| w[0] != w[1]), "{widths:?}");
    }

    #[test]
    fn volume_buckets_respect_nonuniform_ranges() {
        // rows with equal nnz except one giant row → uneven ranges; every
        // coord must land in the bucket whose range contains its row
        let m = 32;
        let mut coords: Vec<Coord> = Vec::new();
        for r in 0..m as u64 {
            coords.push((r, 0, 1.0));
        }
        for _ in 0..100 {
            coords.push((3, 1, 2.0)); // row 3 is hot
        }
        let (ranges, buckets) = bucket_by_volume(coords, m, 4, |_| 1);
        for (range, bucket) in ranges.iter().zip(&buckets) {
            for c in bucket {
                assert!(
                    (c.0 as usize) >= range.0 && (c.0 as usize) < range.1,
                    "coord row {} outside range {range:?}",
                    c.0
                );
            }
        }
        // scan order within each bucket is preserved per row
        for bucket in &buckets {
            let rows3: Vec<f64> = bucket.iter().filter(|c| c.0 == 3).map(|c| c.2).collect();
            if !rows3.is_empty() {
                assert_eq!(rows3[0], 1.0, "stored-order first");
            }
        }
    }

    #[test]
    fn sd_kernel_matches_dense_reference() {
        let mut rng = StdRng::seed_from_u64(6);
        let a = random_sparse(&[6, 4, 5], 0.4, 7);
        let b = DenseTensor::<f64>::random([5, 4, 3], &mut rng);
        let plan = ContractPlan::parse("ajk,kjc->ac").unwrap();
        let (seq, flops) = sd_contract(&plan, &a, &b, None).unwrap();
        assert!(flops > 0);
        let pool = ThreadPool::new(4);
        let par = sd_forced(&plan, &a, &b, &pool);
        assert_eq!(seq.data(), par.data());
        let reference = tt_tensor::einsum("ajk,kjc->ac", &a.to_dense(), &b).unwrap();
        assert!(seq.allclose(&reference, 1e-12));
    }

    #[test]
    fn sd_kernel_skewed_rows_bitwise() {
        // highly rectangular + row-skewed sparse operand: the shape that
        // used to land entirely in one uniform bucket
        let dense = DenseTensor::<f64>::from_fn([80, 12], |idx| {
            if idx[0] < 3 || idx[1] == 0 {
                (idx[0] * 13 + idx[1]) as f64 * 0.01 - 0.3
            } else {
                0.0
            }
        });
        let a = SparseTensor::from_dense(&dense, 0.0);
        let mut rng = StdRng::seed_from_u64(8);
        let b = DenseTensor::<f64>::random([12, 7], &mut rng);
        let plan = ContractPlan::parse("ik,kj->ij").unwrap();
        let (seq, _) = sd_contract(&plan, &a, &b, None).unwrap();
        for threads in [2, 3, 8] {
            let pool = ThreadPool::new(threads);
            let par = sd_forced(&plan, &a, &b, &pool);
            assert_eq!(seq.data(), par.data(), "threads={threads}");
        }
        let reference = tt_tensor::einsum("ik,kj->ij", &a.to_dense(), &b).unwrap();
        assert!(seq.allclose(&reference, 1e-12));
    }

    // -- the TTGT boundary: in-place operands vs executed permutations ------

    /// The reference the layout shortcuts must reproduce bit for bit:
    /// permute both operands to matrices, run the contiguous GEMM, permute
    /// the natural-order result to output order.
    fn dense_reference<T: Scalar>(
        plan: &ContractPlan,
        a: &DenseTensor<T>,
        b: &DenseTensor<T>,
    ) -> DenseTensor<T> {
        let (m, k, n) = fused_dims(plan, a.dims(), b.dims());
        let (perm_a, perm_b) = operand_perms(plan);
        let a_mat = a.permute(&perm_a).unwrap().into_data();
        let b_mat = b.permute(&perm_b).unwrap().into_data();
        let mut c = vec![T::zero(); m * n];
        gemm_acc_slices(m, k, n, &a_mat, &b_mat, &mut c);
        DenseTensor::from_vec(natural_dims(plan, a.dims(), b.dims()), c)
            .unwrap()
            .permute(plan.output_permutation())
            .unwrap()
    }

    /// Same for sparse × dense: permute `B`, accumulate every stored
    /// entry's full-width axpy in stored order, permute the result.
    fn sd_reference(
        plan: &ContractPlan,
        a: &SparseTensor<f64>,
        b: &DenseTensor<f64>,
    ) -> DenseTensor<f64> {
        let (m, _k, n) = fused_dims(plan, a.dims(), b.dims());
        let b_mat = b.permute(&operand_perms(plan).1).unwrap().into_data();
        let mut c = vec![0.0f64; m * n];
        for (row, col, v) in sparse_coords(a, plan.free_a_positions(), plan.ctr_a_positions()) {
            for j in 0..n {
                c[row as usize * n + j] += v * b_mat[col as usize * n + j];
            }
        }
        DenseTensor::from_vec(natural_dims(plan, a.dims(), b.dims()), c)
            .unwrap()
            .permute(plan.output_permutation())
            .unwrap()
    }

    fn check_dense<T: Scalar>(spec: &str, a_dims: &[usize], b_dims: &[usize], seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = DenseTensor::<T>::random(a_dims, &mut rng);
        let b = DenseTensor::<T>::random(b_dims, &mut rng);
        let plan = ContractPlan::parse(spec).unwrap();
        let reference = dense_reference(&plan, &a, &b);
        let seq = dense_contract(&plan, &a, &b, None).unwrap();
        assert_eq!(seq, reference, "{spec} {a_dims:?} {b_dims:?} inline");
        let pool = ThreadPool::new(3);
        let par = dense_contract(&plan, &a, &b, Some(&pool)).unwrap();
        assert_eq!(par, reference, "{spec} {a_dims:?} {b_dims:?} pool");
    }

    fn check_sd(spec: &str, a_dims: &[usize], b_dims: &[usize], seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_sparse(a_dims, 0.3, seed);
        let b = DenseTensor::<f64>::random(b_dims, &mut rng);
        let plan = ContractPlan::parse(spec).unwrap();
        let reference = sd_reference(&plan, &a, &b);
        let (seq, flops) = sd_contract(&plan, &a, &b, None).unwrap();
        assert_eq!(seq, reference, "{spec} {a_dims:?} {b_dims:?} inline");
        let n = fused_dims(&plan, a_dims, b_dims).2;
        assert_eq!(flops, 2 * (a.nnz() * n) as u64);
        let pool = ThreadPool::new(3);
        // forced fan-out, and the production rule (these sizes sit below
        // the gate: one chunk despite the pool)
        let forced = sd_forced(&plan, &a, &b, &pool);
        assert_eq!(forced, reference, "{spec} {a_dims:?} {b_dims:?} forced");
        let (par, _) = sd_contract(&plan, &a, &b, Some(&pool)).unwrap();
        assert_eq!(par, reference, "{spec} {a_dims:?} {b_dims:?} pool");
    }

    /// The four H_eff steps `(spec, A dims, B dims)` at bond dimension
    /// `bond`, MPO bond 5, physical dimension 2.
    fn heff_steps(bond: usize) -> [(&'static str, Vec<usize>, Vec<usize>); 4] {
        let (m, w, d) = (bond, 5, 2);
        [
            ("bkc,cqwf->bkqwf", vec![m, w, m], vec![m, d, d, m]),
            ("kpqg,bkqwf->bpgwf", vec![w, d, d, w], vec![m, w, d, d, m]),
            ("gswh,bpgwf->bpshf", vec![w, d, d, w], vec![m, d, w, d, m]),
            ("rhf,bpshf->bpsr", vec![m, w, m], vec![m, d, d, w, m]),
        ]
    }

    #[test]
    fn heff_chain_layouts_are_what_the_profile_asked_for() {
        // at a DMRG bond dimension: step 1 moves nothing, steps 2–3 gather
        // and scatter runs, step 4 has no contiguous free run in B and
        // scatters C only
        let layouts: Vec<(bool, bool, usize)> = heff_steps(40)
            .iter()
            .map(|(spec, a_dims, b_dims)| {
                let plan = ContractPlan::parse(spec).unwrap();
                let (m, _k, n) = fused_dims(&plan, a_dims, b_dims);
                let g = SdGeometry {
                    m,
                    n,
                    b_dims,
                    perm_b: &operand_perms(&plan).1,
                    nat_dims: &natural_dims(&plan, a_dims, b_dims),
                    out_perm: plan.output_permutation(),
                };
                let out_dims = plan.output_dims(a_dims, b_dims).unwrap();
                let l = SdLayout::choose(&g, &out_dims, true).unwrap();
                (l.b_in_place, l.c_in_place, l.run)
            })
            .collect();
        assert_eq!(
            layouts,
            [
                (true, true, 2 * 2 * 40),
                (true, true, 2 * 40),
                (true, true, 40),
                (false, false, 40 * 2 * 2),
            ]
        );
    }

    #[test]
    fn heff_steps_bitwise_equal_permute_kernel_permute() {
        // bond 40: run views engage; bond 6: every run is below
        // SD_MIN_RUN and the operands are really transposed
        for bond in [40, 6] {
            for (i, (spec, a_dims, b_dims)) in heff_steps(bond).iter().enumerate() {
                let seed = 100 + i as u64;
                check_sd(spec, a_dims, b_dims, seed);
                check_dense::<f64>(spec, a_dims, b_dims, seed);
                check_dense::<Complex64>(spec, a_dims, b_dims, seed);
            }
        }
    }

    #[test]
    fn strided_and_gemv_operands_bitwise_equal_reference() {
        // A stored k×m and B stored n×k on the packed path: both reach
        // the packer as strides
        assert_eq!(gemm_path(70, 300), GemmPath::Packed);
        check_dense::<f64>("ki,jk->ij", &[70, 300], &[300, 70], 1);
        check_dense::<Complex64>("ki,jk->ij", &[70, 300], &[300, 70], 2);
        // … and transposed output on top
        check_dense::<f64>("ki,jk->ji", &[70, 2 * MC + 5], &[90, 70], 3);
        // a transpose that does not split at the row/column boundary must
        // be executed: A (x,y,z) with rows y and cols (z,x)
        check_dense::<f64>("xyz,zxc->yc", &[9, 40, 8], &[8, 9, 50], 4);
        // same transposes on the scalar path (executed, not strided)
        assert_eq!(gemm_path(7, 9), GemmPath::Scalar);
        check_dense::<f64>("ki,jk->ij", &[7, 11], &[9, 7], 5);
        // gemv: B fully contracted, its modes in another order than A's
        assert_eq!(gemm_path(35, 1), GemmPath::Gemv);
        check_dense::<f64>("ajk,kj->a", &[40, 5, 7], &[7, 5], 6);
        check_dense::<Complex64>("jak,kj->a", &[5, 40, 7], &[7, 5], 7);
    }

    /// A random two-operand spec: `(spec, A dims, B dims)` with 1–2
    /// contracted modes at random positions, extents 1–5 and a random
    /// output order.
    fn random_spec(rng: &mut StdRng) -> (String, Vec<usize>, Vec<usize>) {
        use rand::SliceRandom;
        let (free_a, free_b, ctr) = (
            rng.gen_range(1..4usize),
            rng.gen_range(0..4usize),
            rng.gen_range(1..3usize),
        );
        let mut labels = (b'a'..=b'z').map(|c| (c, rng.gen_range(1..6usize)));
        let mut take = |n: usize| labels.by_ref().take(n).collect::<Vec<_>>();
        let (fa, fb, ct) = (take(free_a), take(free_b), take(ctr));
        let mut a: Vec<(u8, usize)> = fa.iter().chain(&ct).copied().collect();
        let mut b: Vec<(u8, usize)> = fb.iter().chain(&ct).copied().collect();
        let mut out: Vec<(u8, usize)> = fa.iter().chain(&fb).copied().collect();
        a.shuffle(rng);
        b.shuffle(rng);
        out.shuffle(rng);
        let text = |ls: &[(u8, usize)]| ls.iter().map(|&(c, _)| c as char).collect::<String>();
        let dims = |ls: &[(u8, usize)]| ls.iter().map(|&(_, d)| d).collect::<Vec<_>>();
        (
            format!("{},{}->{}", text(&a), text(&b), text(&out)),
            dims(&a),
            dims(&b),
        )
    }

    #[test]
    fn random_specs_bitwise_equal_permute_kernel_permute() {
        let mut rng = StdRng::seed_from_u64(77);
        for case in 0..60u64 {
            let (spec, a_dims, b_dims) = random_spec(&mut rng);
            check_dense::<f64>(&spec, &a_dims, &b_dims, case);
            check_dense::<Complex64>(&spec, &a_dims, &b_dims, case);
            check_sd(&spec, &a_dims, &b_dims, case);
        }
    }

    #[test]
    fn sd_views_engage_on_long_runs_of_random_specs() {
        // random specs with one long trailing free mode of B, so the run
        // views (not just the permute fallback) see arbitrary geometry
        let mut rng = StdRng::seed_from_u64(78);
        for case in 0..30u64 {
            let (spec, a_dims, mut b_dims) = random_spec(&mut rng);
            let (lhs, out) = spec.split_once("->").unwrap();
            let (a_txt, b_txt) = lhs.split_once(',').unwrap();
            // append a fresh long mode to B, and to the output at a
            // random-ish position: last on even cases, first on odd
            b_dims.push(33 + case as usize % 4);
            let out = if case % 2 == 0 {
                format!("{out}Z")
            } else {
                format!("Z{out}")
            };
            check_sd(&format!("{a_txt},{b_txt}Z->{out}"), &a_dims, &b_dims, case);
        }
    }

    #[test]
    fn sd_apply_rejects_inconsistent_geometry() {
        let b = vec![0.0f64; 24];
        let g = |perm_b: &'static [usize], n: usize| SdGeometry {
            m: 2,
            n,
            b_dims: &[2, 3, 4],
            perm_b,
            nat_dims: &[2, 3, 4],
            out_perm: &[0, 1, 2],
        };
        assert!(sd_apply(&g(&[0, 1, 2], 12), &b, Cow::Owned(vec![]), 1, None).is_ok());
        // not a permutation; n no product of trailing modes
        assert!(sd_apply(&g(&[0, 1, 1], 12), &b, Cow::Owned(vec![]), 1, None).is_err());
        assert!(sd_apply(&g(&[0, 1, 2], 8), &b, Cow::Owned(vec![]), 1, None).is_err());
        // operand shorter than its dims
        assert!(sd_apply(&g(&[0, 1, 2], 12), &b[..20], Cow::Owned(vec![]), 1, None).is_err());
    }

    #[test]
    fn zero_extent_outputs_do_not_panic() {
        // A zero-dimension free mode gives an empty output; the sparse
        // kernels must flow through the chunked path instead of panicking.
        let a = SparseTensor::<f64>::from_dense(&DenseTensor::zeros([0, 3]), 0.0);
        let b = DenseTensor::<f64>::zeros([3, 2]);
        let plan = ContractPlan::parse("ik,kj->ij").unwrap();
        let (c, flops) = sd_contract(&plan, &a, &b, None).unwrap();
        assert_eq!(c.dims(), &[0, 2]);
        assert_eq!(flops, 0);
        let sb = SparseTensor::<f64>::from_dense(&b, 0.0);
        let (cs, _) = ss_contract(&plan, &a, &sb, None, None).unwrap();
        assert_eq!(cs.dims(), &[0, 2]);
        assert_eq!(cs.nnz(), 0);
    }

    #[test]
    fn ss_kernel_matches_dense_reference_and_respects_mask() {
        let a = random_sparse(&[5, 6], 0.5, 8);
        let b = random_sparse(&[6, 4], 0.5, 9);
        let plan = ContractPlan::parse("ik,kj->ji").unwrap();
        let (seq, _) = ss_contract(&plan, &a, &b, None, None).unwrap();
        let pool = ThreadPool::new(4);
        let par = ss_forced(&plan, &a, &b, None, &pool);
        assert_eq!(seq.to_dense().data(), par.to_dense().data());
        let reference = tt_tensor::einsum("ik,kj->ji", &a.to_dense(), &b.to_dense()).unwrap();
        assert!(seq.to_dense().allclose(&reference, 1e-12));

        // mask restricts the output pattern
        let mask: Vec<u64> = (0..4).map(|i| i * 5 + i).collect();
        let (masked, _) = ss_contract(&plan, &a, &b, Some(&mask), None).unwrap();
        for (off, _) in masked.entries() {
            assert!(mask.contains(&off));
        }
    }

    mod ss_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// The merge-join ss kernel agrees with the dense einsum
            /// reference on arbitrary odd shapes/densities, every chunk
            /// count is bitwise identical to sequential, and a mask is
            /// exactly an extraction-time filter of the unmasked result.
            #[test]
            fn ss_contract_matches_naive_any_chunking(
                m in 1usize..10,
                kk in 1usize..8,
                n in 1usize..9,
                da in 0.1f64..0.9,
                db in 0.1f64..0.9,
                seed in 0u64..10_000,
            ) {
                let a = random_sparse(&[m, kk], da, seed);
                let b = random_sparse(&[kk, n], db, seed.wrapping_add(1));
                let plan = ContractPlan::parse("ik,kj->ji").unwrap();
                let (seq, _) = ss_contract(&plan, &a, &b, None, None).unwrap();
                let seq_dense = seq.to_dense();
                for threads in [2usize, 5] {
                    let pool = ThreadPool::new(threads);
                    let par = ss_forced(&plan, &a, &b, None, &pool);
                    let par_dense = par.to_dense();
                    prop_assert_eq!(seq_dense.data(), par_dense.data());
                }
                let reference =
                    tt_tensor::einsum("ik,kj->ji", &a.to_dense(), &b.to_dense()).unwrap();
                prop_assert!(seq.to_dense().allclose(&reference, 1e-12));

                // masked run (threaded) == unmasked result filtered to the
                // mask pattern, value for value
                let mask: Vec<u64> = (0..(m * n) as u64).filter(|o| o % 3 != 0).collect();
                let pool = ThreadPool::new(3);
                let masked = ss_forced(&plan, &a, &b, Some(&mask), &pool);
                let expect: Vec<(u64, f64)> = seq
                    .entries()
                    .filter(|(off, _)| mask.binary_search(off).is_ok())
                    .collect();
                let got: Vec<(u64, f64)> = masked.entries().collect();
                prop_assert_eq!(got, expect);
            }
        }
    }

    #[test]
    fn ss_kernel_rectangular_skewed_bitwise() {
        // tall-skinny output with clustered rows — exercises the exact
        // per-entry work weights and non-uniform chunk boundaries
        let dense = DenseTensor::<f64>::from_fn([120, 6], |idx| {
            if idx[0] % 17 == 0 || idx[0] < 2 {
                0.3 - (idx[0] + 2 * idx[1]) as f64 * 0.007
            } else {
                0.0
            }
        });
        let a = SparseTensor::from_dense(&dense, 0.0);
        let b = random_sparse(&[6, 9], 0.6, 11);
        let plan = ContractPlan::parse("ik,kj->ij").unwrap();
        let (seq, _) = ss_contract(&plan, &a, &b, None, None).unwrap();
        for threads in [2, 5, 8] {
            let pool = ThreadPool::new(threads);
            let par = ss_forced(&plan, &a, &b, None, &pool);
            assert_eq!(
                seq.to_dense().data(),
                par.to_dense().data(),
                "threads={threads}"
            );
        }
    }
}
