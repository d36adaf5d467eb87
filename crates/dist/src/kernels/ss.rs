//! Sparse × sparse: the shared preparation ([`SsPrep`]), the merge chunk,
//! the contraction over [`ordered_map`], and the slot merge of one step of
//! a planned chain ([`ss_slots`]).

use super::{
    bucket_by_volume, fused_dims, lanes, natural_dims, ordered_map, sparse_chunks, sparse_coords,
    Coord, Ranges,
};
use crate::pool::ThreadPool;
use crate::Result;
use std::borrow::Cow;
use tt_tensor::einsum::ContractPlan;
use tt_tensor::ssmerge::{merge_chunk, merge_slots, SlotChunk, SlotMap, SsBTable};
use tt_tensor::{Shape, SparseTensor};

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
    /// `B` grouped by contracted key: sorted key runs over flat arrays —
    /// built here, or borrowed from a planned chain that built it.
    pub(crate) btab: Cow<'a, SsBTable<f64>>,
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
    let btab = Cow::Owned(SsBTable::build(sparse_coords(
        b,
        plan.ctr_b_positions(),
        plan.free_b_positions(),
    )));

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

/// Flops of `coords · btab` — what [`sparse_chunks`] gates on: an `A`
/// entry costs one multiply-add per entry of its matching `B` key run.
fn ss_flops(coords: &[Coord], btab: &SsBTable<f64>) -> u64 {
    2 * coords.iter().map(|c| btab.run_len(c.1) as u64).sum::<u64>()
}

impl SsPrep<'_> {
    /// Exact work model: an `A` entry costs one multiply-add per entry of
    /// its matching `B` key run (zero when no run matches).
    fn coord_work(&self, c: &Coord) -> u64 {
        self.btab.run_len(c.1) as u64
    }

    /// Flops of the whole contraction — what [`sparse_chunks`] gates on.
    pub(crate) fn flops(&self) -> u64 {
        ss_flops(&self.coords, &self.btab)
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
pub(super) fn ss_chunked(
    mut prep: SsPrep,
    chunks: usize,
    pool: Option<&ThreadPool>,
) -> Result<(SparseTensor<f64>, u64)> {
    let (ranges, buckets) = prep.take_buckets(chunks, false);
    let chunk_results = ordered_map(pool, 0..ranges.len(), |i| {
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

/// One step of a planned sparse-sparse chain, in-process: `coords` (the
/// step's `A`, stably key-sorted) merged against `btab` into the slots of
/// the step's output mask. Rows are cut by [`sparse_chunks`] over the
/// pool's lanes and balanced by exact work; each chunk accumulates into
/// its own slot range, and the ranges concatenate in row order — the same
/// products in the same order per element whatever the cut.
pub(crate) fn ss_slots(
    coords: &[Coord],
    btab: &SsBTable<f64>,
    map: &SlotMap,
    pool: Option<&ThreadPool>,
) -> SlotChunk<f64> {
    let chunks = match lanes(pool) {
        1 => 1,
        lanes => sparse_chunks(ss_flops(coords, btab), lanes),
    };
    ss_slots_chunked(coords, btab, map, chunks, pool)
}

/// [`ss_slots`] over a given chunk count.
pub(super) fn ss_slots_chunked(
    coords: &[Coord],
    btab: &SsBTable<f64>,
    map: &SlotMap,
    chunks: usize,
    pool: Option<&ThreadPool>,
) -> SlotChunk<f64> {
    let slots = if chunks == 1 {
        merge_slots(coords, btab, map, 0, map.rows())
    } else {
        // bucketing keeps each bucket's coords in key order
        let (ranges, buckets) = bucket_by_volume(coords.to_vec(), map.rows(), chunks, |c| {
            btab.run_len(c.1) as u64
        });
        SlotChunk::concat(ordered_map(pool, 0..ranges.len(), |i| {
            merge_slots(&buckets[i], btab, map, ranges[i].0, ranges[i].1)
        }))
    };
    tt_tensor::counter::add_flops(slots.flops);
    slots
}
