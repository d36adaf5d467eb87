//! Sparse × sparse: the shared preparation ([`SsPrep`]), the merge chunk,
//! the contraction over [`ordered_map`], and a chain step's output in the
//! merge kernel's format ([`SsSlots`]), in-process and on a worker alike.

use super::{
    bucket_by_volume, fused_dims, lanes, natural_dims, ordered_map, sparse_chunks, sparse_coords,
    Coord, Ranges,
};
use crate::pool::ThreadPool;
use crate::{Error, Result};
use std::sync::Arc;
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

/// `(dimension, weight)` per axis of a fused index, most significant first.
pub(crate) type Axes = Vec<(u64, u64)>;

/// The fused row's and the fused column's [`Axes`] of an output.
pub(crate) type AxesPair = (Axes, Axes);

/// `t[f] = Σ digit_q(f) · weight_q` for every row-major fused index `f`
/// over `axes` (`(dimension, weight)`, most significant first), wrapping.
pub(crate) fn fused_table(axes: impl IntoIterator<Item = (u64, u64)>) -> Vec<u64> {
    let mut t = vec![0u64];
    for (dim, w) in axes {
        let mut next = Vec::with_capacity(t.len() * dim as usize);
        for base in t {
            next.extend((0..dim).map(|d| base.wrapping_add(d.wrapping_mul(w))));
        }
        t = next;
    }
    t
}

/// The weight of each natural axis, `out_perm[p]` at output position `p`,
/// in the row-major fusion of output `positions` over output `dims`.
pub(crate) fn fusion_weights(positions: &[usize], dims: &[usize], out_perm: &[usize]) -> Vec<u64> {
    let mut w = vec![0u64; dims.len()];
    let mut acc = 1u64;
    for &p in positions.iter().rev() {
        w[out_perm[p]] = acc;
        acc *= dims[p] as u64;
    }
    w
}

/// `(dimension, output stride)` of the natural axes of `a ·plan· b`'s
/// fused row (the free modes of `a`) and fused column: the two halves of
/// the map to an output offset.
pub(crate) fn ss_axes(plan: &ContractPlan, a_dims: &[usize], b_dims: &[usize]) -> Result<AxesPair> {
    let out_strides = Shape::from(plan.output_dims(a_dims, b_dims)?).strides();
    let nat_dims = natural_dims(plan, a_dims, b_dims);
    let mut stride_of_nat = vec![0u64; nat_dims.len()];
    for (j, &q) in plan.output_permutation().iter().enumerate() {
        stride_of_nat[q] = out_strides[j] as u64;
    }
    let mut axes = nat_dims
        .iter()
        .zip(stride_of_nat)
        .map(|(&d, s)| (d as u64, s));
    let ra = plan.free_a_positions().len();
    Ok((axes.by_ref().take(ra).collect(), axes.collect()))
}

/// The slot map of an `m × n` output mask given as the classes of its
/// fused rows and columns, refused typed when they do not fit it. Class
/// ids are dense: fewer than `m + n`, which bounds the map's class table.
pub(crate) fn slot_map(rows: &[u64], cols: &[u64], m: usize, n: usize) -> Result<SlotMap> {
    let fits = |ks: &[u64], len| ks.len() == len && ks.iter().all(|&k| k < (m + n) as u64);
    if !(fits(rows, m) && fits(cols, n)) {
        return Err(Error::transport(format!("mask classes off {m} × {n}")));
    }
    let narrow = |ks: &[u64]| ks.iter().map(|&k| k as u32).collect::<Vec<u32>>();
    Ok(SlotMap::new(narrow(rows), &narrow(cols)))
}

/// `emit(row, col, value)` of every touched slot of rows `r0..r1`.
fn touched_slots(
    map: &SlotMap,
    slots: &SlotChunk<f64>,
    (r0, r1): (usize, usize),
    mut emit: impl FnMut(usize, usize, f64),
) {
    let s0 = map.row_slots(r0, r0).start;
    for r in r0..r1 {
        let base = map.row_slots(r, r).start - s0;
        for (i, &col) in map.row_cols(r).iter().enumerate() {
            if slots.touched[base + i] {
                emit(r, col as usize, slots.vals[base + i]);
            }
        }
    }
}

/// A sparse-sparse chain step's output: its mask's slots and axes.
pub(crate) struct SsSlots {
    pub(crate) map: Arc<SlotMap>,
    pub(crate) slots: SlotChunk<f64>,
    pub(crate) axes: AxesPair,
}

impl SsSlots {
    /// Touched slots, cancelled zeros included: what its charge counts.
    pub(crate) fn touched(&self) -> usize {
        self.slots.touched.iter().filter(|&&t| t).count()
    }

    /// Every touched nonzero slot (`!= 0.0` keeps NaN) in slot order, as
    /// two linear maps of its axes' digits — axis `q` weighs `w1[q]` and
    /// `w2[q]` — and its value.
    fn mapped(&self, w1: &[u64], w2: &[u64]) -> Vec<(u64, u64, f64)> {
        let ((rows, cols), ra) = (&self.axes, self.axes.0.len());
        let t = |axes: &[(u64, u64)], w: &[u64]| {
            fused_table(axes.iter().zip(w).map(|(&(dim, _), &w)| (dim, w)))
        };
        let (r1, c1) = (t(rows, &w1[..ra]), t(cols, &w1[ra..]));
        let (r2, c2) = (t(rows, &w2[..ra]), t(cols, &w2[ra..]));
        let mut out = Vec::with_capacity(self.slots.vals.len());
        touched_slots(&self.map, &self.slots, (0, self.map.rows()), |r, c, v| {
            if v != 0.0 {
                out.push((r1[r].wrapping_add(c1[c]), r2[r].wrapping_add(c2[c]), v));
            }
        });
        out
    }

    /// The output as the `B` table of a step `n` columns wide, through key
    /// and column weights; cancelled zeros are not handed on, as block form
    /// would not. Runs keep slot order, which changes no bit.
    pub(crate) fn table(&self, key_w: &[u64], col_w: &[u64], n: u64) -> Result<SsBTable<f64>> {
        let order = self.axes.0.len() + self.axes.1.len();
        let shape = || Error::transport("a sparse-sparse result read as another shape");
        if key_w.len() != order || col_w.len() != order {
            return Err(shape());
        }
        let entries = self.mapped(key_w, col_w);
        let end =
            |(k, c): (u64, u64), e: &(u64, u64, f64)| (k.max(e.0), c.max(e.1.saturating_add(1)));
        match entries.iter().fold((0, 0), end) {
            (_, cols) if cols > n => Err(shape()),
            (key, _) => Ok(SsBTable::from_keyed(
                &entries,
                key.saturating_add(1) as usize,
            )),
        }
    }

    /// The output's entries, offsets ascending, cancelled zeros dropped.
    pub(crate) fn entries(&self) -> (Vec<u64>, Vec<f64>) {
        let axes = self.axes.0.iter().chain(&self.axes.1);
        let strides: Vec<u64> = axes.map(|&(_, stride)| stride).collect();
        let mut entries = self.mapped(&strides, &vec![0; strides.len()]);
        entries.sort_unstable_by_key(|e| e.0);
        entries.into_iter().map(|(off, _, v)| (off, v)).unzip()
    }
}

/// A mask's row and column classes as the wire's words.
pub(crate) fn wire_classes(map: &SlotMap) -> (Vec<u64>, Vec<u64>) {
    let (rows, cols) = map.classes();
    let widen = |ks: &[u32]| ks.iter().map(|&k| k.into()).collect();
    (widen(rows), widen(&cols))
}

/// Driver-side preparation for a sparse × sparse contraction: everything
/// the per-chunk jobs consume, computed once. Shared by the in-process
/// kernel and the multi-process executor (which ships the pieces to its
/// workers over the transport).
pub(crate) struct SsPrep {
    /// Output tensor shape (already permuted to the spec's output order).
    pub(crate) out_shape: Shape,
    /// Fused output row count.
    pub(crate) m: usize,
    /// Fused free-`B` width (the merge kernel's panel width).
    pub(crate) n: u64,
    /// `(dimension, output stride)` pairs for the fused row index and the
    /// fused column index, applied at entry-extraction time (the grouped
    /// `B` table itself stores *fused* free indices, so it is independent
    /// of the other operand's dims and the output permutation).
    pub(crate) axes: AxesPair,
    /// `B` grouped by contracted key: sorted key runs over flat arrays.
    pub(crate) btab: SsBTable<f64>,
    /// The output mask, when given.
    pub(crate) mask: Option<SlotMap>,
    /// `A`'s `(fused row, contracted key, value)` coords in stored order.
    pub(crate) coords: Vec<Coord>,
}

/// Build the shared [`SsPrep`] state for `a ·spec· b` under an optional
/// output mask.
pub(crate) fn ss_prepare(
    plan: &ContractPlan,
    a: &SparseTensor<f64>,
    b: &SparseTensor<f64>,
    mask: Option<&SlotMap>,
) -> Result<SsPrep> {
    let out_shape = Shape::from(plan.output_dims(a.dims(), b.dims())?);
    let (m, _k, n) = fused_dims(plan, a.dims(), b.dims());
    let axes = ss_axes(plan, a.dims(), b.dims())?;
    if mask.is_some_and(|map| (map.rows(), map.cols()) != (m, n)) {
        return Err(Error::Runtime(format!(
            "a mask that does not fit {m} × {n}"
        )));
    }
    // B grouped by contracted key: one stable sort, flat run arrays. Runs
    // keep stored order, so accumulation is deterministic.
    let btab = SsBTable::build(sparse_coords(
        b,
        plan.ctr_b_positions(),
        plan.free_b_positions(),
    ));
    let coords = sparse_coords(a, plan.free_a_positions(), plan.ctr_a_positions());
    Ok(SsPrep {
        out_shape,
        m,
        n: n as u64,
        axes,
        btab,
        mask: mask.cloned(),
        coords,
    })
}

/// One sparse-sparse chunk: two-pointer merge of the chunk's key-sorted
/// `A` entries against the grouped `B` table — into a dense panel, or into
/// the mask's slots ([`merge_slots`], the one masked accumulator) — then
/// every touched element, cancelled zeros included, at its output offset.
/// Shared by the pool jobs and the multi-process worker.
///
/// `bucket_sorted` must be stably sorted by contracted key — per output
/// element the products then apply in ascending key order regardless of
/// how rows were chunked, which is what keeps Sequential ≡ Threaded ≡
/// MultiProcess bitwise.
pub(crate) fn ss_chunk(
    bucket_sorted: &[Coord],
    btab: &SsBTable<f64>,
    (r0, r1): (usize, usize),
    n: u64,
    (row_axes, col_axes): &AxesPair,
    mask: Option<&SlotMap>,
) -> (Vec<(u64, f64)>, u64) {
    // the row → output-offset resolution is cached across each row's run
    let mut entries = Vec::new();
    let mut last_row = u64::MAX;
    let mut last_row_out = 0u64;
    let mut emit = |row: u64, col: u64, v: f64| {
        if row != last_row {
            last_row = row;
            last_row_out = unfuse_to_out(row, row_axes);
        }
        entries.push((last_row_out + unfuse_to_out(col, col_axes), v));
    };
    let flops = match mask {
        Some(map) => {
            let slots = merge_slots(bucket_sorted, btab, map, r0, r1);
            touched_slots(map, &slots, (r0, r1), |r, c, v| emit(r as u64, c as u64, v));
            slots.flops
        }
        None => {
            let (triples, flops) = merge_chunk(bucket_sorted, btab, r0 as u64, r1 as u64, n);
            for (row, col, v) in triples {
                emit(row, col, v);
            }
            flops
        }
    };
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

impl SsPrep {
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
/// sparsity mask: sorted-merge join +
/// panel (or mask-slot) accumulation per chunk,
/// row-chunked with exact per-row work weights (each `A` entry is weighted
/// by its matching `B` key-run length) and fully deterministic (per output
/// element, products apply in ascending contracted-key order independent
/// of chunking).
pub(crate) fn ss_contract(
    plan: &ContractPlan,
    a: &SparseTensor<f64>,
    b: &SparseTensor<f64>,
    mask: Option<&SlotMap>,
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
        let (btab, map) = (&prep.btab, prep.mask.as_ref());
        ss_chunk(&buckets[i], btab, ranges[i], prep.n, &prep.axes, map)
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

/// One sparse-sparse chain step: `coords` (stably key-sorted) merged
/// against `btab` into the slots of `map`, rows cut by [`sparse_chunks`]
/// over the pool's lanes, each chunk owning its slot range — the same
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
