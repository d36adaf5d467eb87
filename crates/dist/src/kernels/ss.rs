//! Sparse × sparse: a chain step's merge into the slots of its mask over
//! [`ordered_map`], and its output in the merge kernel's format
//! ([`SsSlots`]), in-process and on a worker alike.

use super::{bucket_by_volume, lanes, natural_dims, ordered_map, sparse_chunks, Coord};
use crate::pool::ThreadPool;
use crate::{Error, Result};
use std::sync::Arc;
use tt_tensor::einsum::ContractPlan;
use tt_tensor::ssmerge::{merge_slots, SlotChunk, SlotMap, SsBTable};
use tt_tensor::Shape;

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

/// `emit(row, col, value)` of every touched slot of a whole-map merge.
fn touched_slots(map: &SlotMap, slots: &SlotChunk<f64>, mut emit: impl FnMut(usize, usize, f64)) {
    for r in 0..map.rows() {
        let base = map.row_slots(r, r).start;
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
        touched_slots(&self.map, &self.slots, |r, c, v| {
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

/// Per entry of key-sorted `coords`, the length of the `B` key run it
/// meets — one multiply-add per entry of that run — by one walk along the
/// table's keys.
fn run_lens<'a>(coords: &'a [Coord], btab: &'a SsBTable<f64>) -> impl Iterator<Item = u64> + 'a {
    let mut runs = btab.keys().iter().zip(btab.run_lens()).peekable();
    coords.iter().map(move |c| {
        while runs.next_if(|&(&key, _)| key < c.1).is_some() {}
        match runs.peek() {
            Some(&(&key, len)) if key == c.1 => len,
            _ => 0,
        }
    })
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
        lanes => sparse_chunks(2 * run_lens(coords, btab).sum::<u64>(), lanes),
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
        let runs: Vec<u64> = run_lens(coords, btab).collect();
        let (ranges, buckets) = bucket_by_volume(coords.to_vec(), map.rows(), chunks, |i| runs[i]);
        SlotChunk::concat(ordered_map(pool, 0..ranges.len(), |i| {
            merge_slots(&buckets[i], btab, map, ranges[i].0, ranges[i].1)
        }))
    };
    tt_tensor::counter::add_flops(slots.flops);
    slots
}
