//! Deterministic, chunkable local contraction kernels.
//!
//! The executor's two modes must produce **bitwise-identical** results, so
//! every kernel here partitions work by *disjoint output rows*: for a fixed
//! output element the accumulation order never depends on how many chunks
//! (pool threads) the row space was split into. Sequential execution — and
//! a worker rank, which runs each contraction whole — is the single-chunk
//! special case of the same code path.
//!
//! Each kernel is written once. Work reaches a lane through
//! [`ordered_map`] — `f(0..n)` in order, across the pool when there is one
//! and `n > 1`, on the calling thread otherwise — whose jobs *borrow* the
//! operands, the packed `B`, the buckets and the tables, so threading
//! clones nothing. How many pieces there are is decided by two rules that
//! sit side by side below and nowhere else:
//!
//! * [`dense_ranges`]: the dense kernel parallelizes **inside** the GEMM
//!   on the thread pool — row panels ([`MC`]-aligned on the packed path)
//!   each run the kernel `tt_tensor::gemm::panel_kernel` picks for them: a
//!   small one the unpacked register tile on the operands where they lie,
//!   a large one the packed microkernel against a `B` packed once for all
//!   of them (its `KC`-deep blocks are themselves an ordered map); one
//!   range per pool thread, no gate on work size;
//! * [`sparse_chunks`]: the sparse kernels split rows by **work volume** —
//!   a prefix sum of per-row flops picks the chunk boundaries, so a
//!   handful of dense rows (the skewed patterns block-sparse flattening
//!   produces) does not serialize onto one lane — one chunk per lane from
//!   16 MFlop up, a single chunk below.
//!
//! `lanes` is the pool's thread count. A worker runs every contraction
//! whole (one `Contract`, `SdContract` or `SsChunk` task, one lane), so a
//! cluster never cuts one into rows.
//!
//! The kernels are TTGT (transpose–GEMM–transpose) in meaning only: a
//! permutation is executed when elements really have to change order.
//! An operand whose permutation fuses to the identity
//! ([`tt_tensor::transpose::motion`]) is read where it lies, a plain
//! matrix transpose reaches the GEMM as strides (an `A` on every kernel
//! but GEMV, a `B` when only the packer reads it), the dense kernel
//! writes each finished register tile through a
//! [`RunView`](tt_tensor::view::RunView) of the output permutation, and
//! the sparse-dense kernel gathers `B` rows and writes `C` rows through
//! run views whenever the trailing free modes form a contiguous run. None
//! of this touches arithmetic: every output element still accumulates the
//! same products in the same order. Nor does the sparse-dense kernel's
//! row pass: it sums each output row's entries in stored order in
//! registers, strip by strip from `+0.0`, and stores each strip once,
//! which is what a zero-filled `C` accumulating one entry at a time
//! computed.
//!
//! Layout: this file holds the ordered map, the two fan-out rules, the
//! range functions and the dims / output helpers every family shares;
//! `dense` the dense contraction and its row panel; `sd` the
//! sparse-dense layout decision, row-pass chunk body and contraction; `ss`
//! a sparse-sparse chain step's slots (the slot merge, the next step's
//! table, the exit); `factor` the truncated SVD and its tall-panel rule.

mod dense;
mod factor;
mod sd;
mod ss;
#[cfg(test)]
pub(crate) mod tests;

pub(crate) use dense::{dense_contract, dense_into, DensePrep};
pub(crate) use factor::svd_trunc;
pub(crate) use sd::{sd_apply, sd_contract, SdGeometry};
pub(crate) use ss::{fusion_weights, slot_map, ss_axes, ss_slots, wire_classes, AxesPair, SsSlots};

#[cfg(doc)]
use crate::exec::Workspace;
use crate::pool::{PoolJob, ThreadPool};
use tt_tensor::einsum::ContractPlan;
use tt_tensor::gemm::{GemmPath, MC};
use tt_tensor::SparseTensor;

/// Contiguous row ranges `[r0, r1)`, in row order.
pub(crate) type Ranges = Vec<(usize, usize)>;

/// `f` of each item, in order: across the pool when there is one and more
/// than one call to make, on this thread otherwise. The one way kernel
/// work reaches a lane — `f` borrows whatever it needs, each call owns its
/// item (an index, or the band of an output a row panel writes), and the
/// result order never depends on which leg ran.
pub(crate) fn ordered_map<I: Send, T: Send>(
    pool: Option<&ThreadPool>,
    items: impl IntoIterator<Item = I>,
    f: impl Fn(I) -> T + Sync,
) -> Vec<T> {
    let Some(pool) = pool else {
        return items.into_iter().map(f).collect();
    };
    let items: Vec<I> = items.into_iter().collect();
    if items.len() < 2 {
        return items.into_iter().map(f).collect();
    }
    let f = &f;
    pool.run(
        items
            .into_iter()
            .map(|item| Box::new(move || f(item)) as PoolJob<T>)
            .collect(),
    )
}

/// Lanes a kernel may fan out over: the pool's threads, or one.
pub(crate) fn lanes(pool: Option<&ThreadPool>) -> usize {
    pool.map_or(1, ThreadPool::threads)
}

/// Work volume (flops) below which the sparse kernels stay on a single
/// lane: at small sizes the dispatch overhead (job boxing, channel
/// wakeups, shared-queue contention) costs more than the kernel itself —
/// `BENCH_kernels.json` measured `sd_contract_threaded` at 512×128×64
/// (~5.6 MFlop) *slower* than sequential before this gate existed.
const SPARSE_PAR_MIN_FLOPS: u64 = 16_000_000;

/// Size (bytes) from which a dense temporary of the sparse-dense kernel is
/// drawn from the caller's [`Workspace`] rather than allocated: the
/// allocator's own threshold for handing out fresh pages (glibc maps
/// requests of 128 KiB and more), below which a buffer comes warm from the
/// heap and recycling it gains nothing.
pub(crate) const WORKSPACE_MIN_BYTES: usize = 128 * 1024;

/// The sparse fan-out rule: how many row chunks a sparse-dense or
/// sparse-sparse contraction of `flops` flops is cut into, given `lanes`
/// pool threads.
pub(crate) fn sparse_chunks(flops: u64, lanes: usize) -> usize {
    if flops < SPARSE_PAR_MIN_FLOPS {
        1
    } else {
        lanes
    }
}

/// The dense fan-out rule: the row ranges an `m`-row GEMM tagged `path` is
/// cut into over `lanes` pool threads — [`MC`]-aligned on the packed path
/// (whichever kernel a panel then runs), uniform otherwise; never gated on
/// work size.
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

/// Row panels in row order as one buffer: a single panel moves.
fn concat_rows(mut panels: Vec<Vec<f64>>, len: usize) -> Vec<f64> {
    if panels.len() == 1 {
        return panels.pop().expect("one panel");
    }
    let mut c = Vec::with_capacity(len);
    for panel in panels {
        c.extend_from_slice(&panel);
    }
    c
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

/// Bucket coords into work-balanced row ranges, preserving scan order
/// inside each bucket (the property that makes chunked accumulation
/// bitwise-stable: every output row lives in exactly one bucket, and its
/// coords keep their stored order there).
///
/// `coord_work(i)` gives the flop weight of the `i`-th coordinate; per-row
/// weights are their sum. Bucket lookup binary-searches the range starts —
/// ranges are *not* uniform in width, so the old `row / first_range_width`
/// indexing would misbucket everything past the first boundary.
pub(crate) fn bucket_by_volume(
    coords: Vec<Coord>,
    m: usize,
    chunks: usize,
    coord_work: impl Fn(usize) -> u64,
) -> (Vec<(usize, usize)>, Vec<Vec<Coord>>) {
    let mut weights = vec![0u64; m];
    for (i, c) in coords.iter().enumerate() {
        weights[c.0 as usize] += coord_work(i);
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
