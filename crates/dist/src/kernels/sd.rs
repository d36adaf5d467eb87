//! Sparse × dense: where `B` and `C` live ([`SdLayout`], [`RunView`]s),
//! the one chunk body, and the contraction over [`ordered_map`].
//!
//! The chunk body ([`sd_chunk`]) is a row pass: it takes each output
//! row's entries in stored order and sums every strip of the `C` row in
//! registers, storing it once — `C` is written, never read, so no caller
//! zero-fills it. A stored entry costs one multiply and one add per
//! column, as it did when each entry was an axpy into a zeroed `C`, and
//! every element holds the same `+0.0 + v₁b₁ + v₂b₂ + …` in the same
//! order.

use super::{
    bucket_by_volume, concat_rows, fused_dims, lanes, natural_dims, ordered_map, sparse_chunks,
    Coord, Ranges,
};
use crate::exec::Workspace;
use crate::pool::ThreadPool;
use crate::{Error, Result};
use std::borrow::Cow;
use tt_tensor::einsum::ContractPlan;
use tt_tensor::shape::is_permutation;
use tt_tensor::transpose::{motion, permute_data_into, Motion};
use tt_tensor::view::{Modes, RunView};
use tt_tensor::DenseTensor;

/// Shortest contiguous run worth addressing through an offset table:
/// below it the per-run loop overhead of [`sd_chunk`] outweighs the
/// transposition it saves, and the operand is permuted into one
/// full-width run instead.
const SD_MIN_RUN: usize = 32;

/// The dense side of one sparse-dense contraction — everything the layout
/// decision reads. Built from a [`ContractPlan`] by [`sd_contract`] and
/// from the `SdContract` request fields by the worker, so both make the
/// same decision.
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
/// as full-width matrices around a real transposition. Both views share
/// one run length.
pub(super) struct SdLayout {
    /// `B` is read where it lies (else: permuted to `k × n` first).
    pub(super) b_in_place: bool,
    /// `C` is accumulated in output order (else: in natural order, then
    /// permuted).
    pub(super) c_in_place: bool,
    pub(super) b: RunView,
    pub(super) c: RunView,
}

impl SdLayout {
    /// Decide from dims and permutations alone. An operand is used in
    /// place when its trailing free modes form a contiguous run of at
    /// least [`SD_MIN_RUN`] elements (or the whole row: a permutation that
    /// fuses to the identity). `scatter` says whether `C` may be written
    /// in output order at all — only a single chunk owns the whole output
    /// buffer; row panels of a chunked run are natural-order and
    /// concatenated.
    pub(super) fn choose(g: &SdGeometry, out_dims: &[usize], scatter: bool) -> Result<Self> {
        let n = g.n;
        let mut inv_out = vec![0usize; g.out_perm.len()];
        for (j, &q) in g.out_perm.iter().enumerate() {
            inv_out[q] = j;
        }
        let b_modes = Modes::new(g.b_dims, g.perm_b, n)?;
        let c_modes = Modes::new(out_dims, &inv_out, n)?;
        if !b_modes.col_extents().eq(c_modes.col_extents()) || c_modes.row_count() != g.m {
            return Err(Error::Runtime(
                "sparse-dense operand and result shapes disagree".into(),
            ));
        }
        let (run_b, run_c) = (b_modes.max_run(), c_modes.max_run());
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
        let view = |in_place: bool, modes: &Modes| -> Result<RunView> {
            Ok(if in_place {
                modes.view(run)?
            } else {
                RunView::matrix(modes.row_count(), n, run)
            })
        };
        Ok(Self {
            b_in_place,
            c_in_place,
            b: view(b_in_place, &b_modes)?,
            c: view(c_in_place, &c_modes)?,
        })
    }
}

/// Width of the strip of a `C` row that [`sd_chunk`] sums in registers:
/// eight AVX2 vectors for a row alone, four a row for a pair — enough
/// independent sums to hide the adder's latency, few enough to stay in
/// registers.
const SD_STRIP: usize = 32;

/// One sparse-dense chunk: write rows `[r0, r0 + c.rows().len())` of `C`
/// from `bucket`'s entries (all with fused rows in that range) against
/// dense `B`, both addressed through [`RunView`]s of one run length (`c`'s
/// row table is chunk-local: row `r` is entry `r - r0`). The one body
/// behind the inline path, the pool panels and the multi-process worker.
///
/// A row pass: every `C` row is summed a strip at a time in registers —
/// from `+0.0`, over the row's entries in stored order, a multiply then an
/// add per product — and each strip is stored once; a row with no entries
/// is stored as `+0.0`, or left as it is when `c_zeroed` says the chunk's
/// rows hold `+0.0` already (a fresh zeroed allocation). So every element
/// of the chunk's rows ends up written (`c_data` need not be initialised)
/// with `+0.0 + v₁b₁ + v₂b₂ + …` in stored-entry order whatever the views
/// and the chunking are: the layout decision never shows in a result bit.
/// Two adjacent rows with one column list share each `B` strip load. Runs
/// are the outer loop, so the rows of a chunk read one run of each `B` row
/// before the next. Charges the global flop counter here (not in the
/// wrapper) so the count lands in whichever process actually ran the
/// chunk; the transport propagates worker-side counts back to the driver.
pub(crate) fn sd_chunk(
    r0: usize,
    bucket: &[Coord],
    b: &RunView,
    b_data: &[f64],
    (c, c_zeroed): (&RunView, bool),
    c_data: &mut [f64],
) {
    let run = b.run();
    tt_tensor::counter::add_flops(2 * (bucket.len() * b.n()) as u64);
    let rows = RowGroups::new(r0, c.rows().len(), bucket);
    let groups = rows.groups();
    let (c_rows, b_rows) = (c.rows(), b.rows());
    for (&co, &bo) in c.outer().iter().zip(b.outer()) {
        for &(r, pair) in &groups {
            let row = rows.row(r);
            if pair {
                let at = [c_rows[r] + co, c_rows[r + 1] + co];
                let rows = [row, rows.row(r + 1)];
                sum_run::<2, { SD_STRIP / 2 }>(rows, b_rows, b_data, bo, at, run, c_data);
            } else if row.is_empty() {
                if !c_zeroed {
                    c_data[c_rows[r] + co..c_rows[r] + co + run].fill(0.0);
                }
            } else {
                let at = [c_rows[r] + co];
                sum_run::<1, SD_STRIP>([row], b_rows, b_data, bo, at, run, c_data);
            }
        }
    }
}

/// A chunk's entries grouped by chunk-local row, each row's in stored
/// order: the bucket as it lies when its rows ascend (`L`, `R`), else
/// regrouped by a stable counting pass (`W`, whose stored order leads with
/// a contracted mode).
struct RowGroups<'a> {
    entries: Cow<'a, [Coord]>,
    /// Row `r`'s entries are `entries[starts[r]..starts[r + 1]]`.
    starts: Vec<usize>,
}

impl<'a> RowGroups<'a> {
    fn new(r0: usize, rows: usize, bucket: &'a [Coord]) -> Self {
        let mut starts = vec![0usize; rows + 1];
        let (mut ascending, mut last) = (true, 0);
        for &(row, ..) in bucket {
            let r = row as usize - r0;
            ascending &= r >= last;
            last = r;
            starts[r + 1] += 1;
        }
        for r in 0..rows {
            starts[r + 1] += starts[r];
        }
        if ascending {
            return Self {
                entries: Cow::Borrowed(bucket),
                starts,
            };
        }
        let mut next = starts[..rows].to_vec();
        let mut grouped = vec![(0, 0, 0.0); bucket.len()];
        for &e in bucket {
            let at = &mut next[e.0 as usize - r0];
            grouped[*at] = e;
            *at += 1;
        }
        Self {
            entries: Cow::Owned(grouped),
            starts,
        }
    }

    fn row(&self, r: usize) -> &[Coord] {
        &self.entries[self.starts[r]..self.starts[r + 1]]
    }

    /// `(first row, whether it is a pair)` of every group, in row order: a
    /// pair is two adjacent non-empty rows with one column list.
    fn groups(&self) -> Vec<(usize, bool)> {
        let rows = self.starts.len() - 1;
        let same_cols = |r: usize| {
            let (a, b) = (self.row(r), self.row(r + 1));
            !a.is_empty() && a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.1 == y.1)
        };
        let (mut groups, mut r) = (Vec::with_capacity(rows), 0);
        while r < rows {
            let pair = r + 1 < rows && same_cols(r);
            groups.push((r, pair));
            r += 1 + pair as usize;
        }
        groups
    }
}

/// One run of `R` rows of `C` that share one column list (`rows[i]` are
/// row `i`'s entries), read from `B` at `b_at` past each entry's row
/// offset and stored at `c_at[i]`: `W`-wide strips, then one narrower
/// strip for the tail.
#[inline(always)]
fn sum_run<const R: usize, const W: usize>(
    rows: [&[Coord]; R],
    b_rows: &[usize],
    b_data: &[f64],
    b_at: usize,
    c_at: [usize; R],
    run: usize,
    c_data: &mut [f64],
) {
    let mut s = 0;
    while s < run {
        let at = (b_at + s, c_at.map(|c| c + s));
        if s + W <= run {
            strip::<R, W>(rows, b_rows, b_data, at, W, c_data);
        } else {
            strip::<R, W>(rows, b_rows, b_data, at, run - s, c_data);
        }
        s += W;
    }
}

/// One strip of `R` rows, `w ≤ W` wide, at `(b_at, c_at)`: summed from
/// `+0.0` in registers over the entries in stored order, a multiply then
/// an add (never fused, which would round differently), then stored once.
#[inline(always)]
fn strip<const R: usize, const W: usize>(
    rows: [&[Coord]; R],
    b_rows: &[usize],
    b_data: &[f64],
    (b_at, c_at): (usize, [usize; R]),
    w: usize,
    c_data: &mut [f64],
) {
    let mut acc = [[0.0f64; W]; R];
    for (i, &(_, col, _)) in rows[0].iter().enumerate() {
        let at = b_rows[col as usize] + b_at;
        let bs = &b_data[at..at + w];
        for (acc, row) in acc.iter_mut().zip(rows) {
            let v = row[i].2;
            for (a, &x) in acc[..w].iter_mut().zip(bs) {
                *a += v * x;
            }
        }
    }
    for (acc, at) in acc.iter().zip(c_at) {
        c_data[at..at + w].copy_from_slice(&acc[..w]);
    }
}

/// Rows `[r0, r1)` of a sparse-dense product as a fresh natural-order
/// row panel: the chunk form of the pool jobs.
fn sd_panel(
    (r0, r1): (usize, usize),
    n: usize,
    bucket: &[Coord],
    b: &RunView,
    b_data: &[f64],
) -> Vec<f64> {
    let mut c = vec![0.0f64; (r1 - r0) * n];
    let c_view = RunView::matrix(r1 - r0, n, b.run());
    sd_chunk(r0, bucket, b, b_data, (&c_view, true), &mut c);
    c
}

/// The dense half of a sparse-dense contraction: sum `coords` (`A`'s
/// fused entries, stored order) against `B` and return the output
/// tensor. One chunk runs inline and, when the layout allows, writes `C`
/// straight into output order; more chunks bucket the coords by volume
/// and fan natural-order row panels out over the pool. `B` is borrowed
/// unless it has to be transposed.
///
/// The inline leg's large temporaries — `C`, a transposed `B`, a
/// natural-order `C` on its way to output order — come from `ws` unzeroed
/// (each is written whole before it is read) and the two that die here go
/// back to it; the returned tensor's buffer is the caller's to give back.
/// Pool panels are plain allocations.
pub(crate) fn sd_apply(
    g: &SdGeometry,
    b: &[f64],
    coords: Cow<[Coord]>,
    chunks: usize,
    pool: Option<&ThreadPool>,
    ws: &Workspace,
) -> Result<DenseTensor<f64>> {
    let (m, n) = (g.m, g.n);
    let out_dims = checked_out_dims(g, b)?;
    if m * n == 0 || b.is_empty() {
        return Ok(DenseTensor::zeros(out_dims));
    }
    let parallel = pool.filter(|_| chunks > 1);
    let layout = SdLayout::choose(g, &out_dims, parallel.is_none())?;
    let b_data = b_operand(&layout, g, b, ws)?;
    let c = match parallel {
        None => {
            let (mut c, zeroed) = ws.take_or_zeros(m * n);
            sd_chunk(0, &coords, &layout.b, &b_data, (&layout.c, zeroed), &mut c);
            c
        }
        Some(_) => {
            let (ranges, buckets) = sd_buckets(coords.into_owned(), m, n, chunks);
            let panels = ordered_map(parallel, 0..ranges.len(), |i| {
                sd_panel(ranges[i], n, &buckets[i], &layout.b, &b_data)
            });
            concat_rows(panels, m * n)
        }
    };
    if let Cow::Owned(permuted) = b_data {
        ws.give(permuted);
    }
    if layout.c_in_place || motion(g.nat_dims, g.out_perm)? == Motion::Identity {
        return Ok(DenseTensor::from_vec(out_dims, c)?);
    }
    let mut out = ws.take_unzeroed(c.len());
    permute_data_into(&c, g.nat_dims, g.out_perm, &mut out)?;
    ws.give(c);
    Ok(DenseTensor::from_vec(out_dims, out)?)
}

/// The output dims of `g`, once it is known to fit `b`: the worker builds
/// `g` from request fields, so nothing is indexed before this check.
fn checked_out_dims(g: &SdGeometry, b: &[f64]) -> Result<Vec<usize>> {
    let volume = |dims: &[usize]| dims.iter().try_fold(1usize, |v, &d| v.checked_mul(d));
    let mn = g.m.checked_mul(g.n);
    if !is_permutation(g.perm_b, g.b_dims.len())
        || !is_permutation(g.out_perm, g.nat_dims.len())
        || volume(g.b_dims) != Some(b.len())
        || mn.is_none()
        || volume(g.nat_dims) != mn
    {
        return Err(Error::Runtime(
            "sparse-dense geometry does not match its operands".into(),
        ));
    }
    Ok(g.out_perm.iter().map(|&q| g.nat_dims[q]).collect())
}

/// `B` as `layout` reads it: where it lies, or permuted to `k × n` into a
/// buffer from `ws`, which the caller gives back.
fn b_operand<'b>(
    layout: &SdLayout,
    g: &SdGeometry,
    b: &'b [f64],
    ws: &Workspace,
) -> Result<Cow<'b, [f64]>> {
    if layout.b_in_place {
        return Ok(Cow::Borrowed(b));
    }
    let mut permuted = ws.take_unzeroed(b.len());
    permute_data_into(b, g.b_dims, g.perm_b, &mut permuted)?;
    Ok(Cow::Owned(permuted))
}

/// `coords` as `chunks` volume-balanced row buckets: every stored entry
/// costs one `n`-wide axpy.
fn sd_buckets(coords: Vec<Coord>, m: usize, n: usize, chunks: usize) -> (Ranges, Vec<Vec<Coord>>) {
    bucket_by_volume(coords, m, chunks, |_| n as u64)
}

/// The flops `nnz` stored entries of `A` cost against `B`'s `n`-wide rows,
/// and the chunk count over `lanes`.
fn sd_work(nnz: usize, n: usize, lanes: usize) -> (u64, usize) {
    let flops = 2 * nnz as u64 * n as u64;
    (flops, sparse_chunks(flops, lanes))
}

/// Sparse × dense contraction producing a dense tensor, row-chunked with
/// volume-balanced (nnz·n) chunk boundaries when [`sparse_chunks`] says
/// the work is worth more than one lane. `coords` are
/// [`sparse_coords`](super::sparse_coords) of the sparse operand (of shape
/// `a_dims`) under `plan` — computed by the caller, which may keep them
/// with a resident operand and has checked the operand shapes against
/// `plan`.
pub(crate) fn sd_contract(
    plan: &ContractPlan,
    a_dims: &[usize],
    coords: Cow<[Coord]>,
    b: &DenseTensor<f64>,
    pool: Option<&ThreadPool>,
    ws: &Workspace,
) -> Result<(DenseTensor<f64>, u64)> {
    let (m, _k, n) = fused_dims(plan, a_dims, b.dims());
    let (flops, chunks) = sd_work(coords.len(), n, lanes(pool));
    let g = SdGeometry {
        m,
        n,
        b_dims: b.dims(),
        perm_b: plan.operand_permutations().1,
        nat_dims: &natural_dims(plan, a_dims, b.dims()),
        out_perm: plan.output_permutation(),
    };
    let c = sd_apply(&g, b.data(), coords, chunks, pool, ws)?;
    Ok((c, flops))
}
