//! Sorted-merge sparse×sparse contraction kernel.
//!
//! The paper's *sparse-sparse* algorithm multiplies two sparse operands
//! fused to matrices: `A` as `(row, ctr)` and `B` as `(ctr, col)`. The
//! first-generation kernel in this repo joined them through a per-entry
//! `BTreeMap` lookup and accumulated every product into another map —
//! ~0.04 GFlop/s, a ~600× cliff below the packed dense GEMM. This module
//! is the replacement:
//!
//! 1. **Sort once, merge many.** `B` is grouped into a [`SsBTable`]: runs
//!    of entries sharing a contracted key, flat arrays, ascending key
//!    order. `A` entries are stably sorted by contracted key. Both sorts
//!    happen once per operand (the distributed executor caches the sorted
//!    forms in its resident-operand store, amortizing them across the many
//!    contractions of a Davidson solve).
//! 2. **Two-pointer merge.** Matching key runs are found by a linear merge
//!    over the two sorted key sequences — no per-entry map lookups.
//! 3. **One accumulator.** Each matching `A`-run × `B`-run pair is an
//!    outer product scattered by flat adds at computed offsets into the
//!    slots of a [`SlotMap`] ([`merge_slots`]) — the output mask the
//!    quantum numbers pre-compute, one slot per element it allows — so the
//!    accumulator is as large as the mask, not as `rows × n`, and a
//!    product outside the mask lands nowhere. A merge with no mask is the
//!    mask of one class, which allows every element.
//!
//! [`SsBTable::from_keyed`] builds the table by a counting sort when the
//! key range is small, which is how a chain of masked contractions hands
//! one step's slots to the next step's merge without a comparison sort.
//!
//! ## Determinism
//!
//! For each output element `(row, col)` the products are applied in
//! ascending contracted-key order, with ties (duplicate `(row, key)`
//! entries) in input order. That order depends only on the *content* of
//! the row's entries — not on how rows were split across chunks — which is
//! what keeps row-chunked threaded/multi-process execution bitwise equal
//! to sequential execution.
//!
//! The kernel is generic over [`Scalar`], so the same code serves `f64`
//! DMRG and `Complex64` (TDVP-style) workloads.

use crate::scalar::Scalar;
use std::ops::Range;

/// `B` side of a sparse×sparse contraction, grouped by contracted key:
/// ascending distinct keys, and for each key a run of `(col, val)` entries
/// in flat arrays. `col` is the *fused free index* (`0..n`) — deliberately
/// independent of the other operand's dims and of the output permutation,
/// so a cached table is reusable across contractions.
#[derive(Debug, Clone, PartialEq)]
pub struct SsBTable<T> {
    keys: Vec<u64>,
    starts: Vec<usize>,
    cols: Vec<u64>,
    vals: Vec<T>,
}

impl<T: Scalar> SsBTable<T> {
    /// Group `(ctr, col, val)` entries whose keys all lie below
    /// `key_range`: runs in ascending key order, each in input order — by
    /// one counting pass and one scatter, or by a stable comparison sort
    /// when `key_range` dwarfs the entry count.
    pub fn from_keyed(entries: &[(u64, u64, T)], key_range: usize) -> Self {
        if !counting_pays(entries.len(), key_range) {
            let mut entries = entries.to_vec();
            entries.sort_by_key(|e| e.0);
            return Self::grouped(entries);
        }
        // the counting sort of [`counting_sort_by`], scattering straight
        // into the run arrays: a sort into tuples and a grouping pass after
        // it cost ~10 % of a sparse-sparse sweep
        let mut start = vec![0usize; key_range + 1];
        for e in entries {
            start[e.0 as usize + 1] += 1;
        }
        let mut keys = Vec::new();
        let mut starts = Vec::new();
        for k in 0..key_range {
            if start[k + 1] > 0 {
                keys.push(k as u64);
                starts.push(start[k]);
            }
            start[k + 1] += start[k];
        }
        starts.push(entries.len());
        let mut cols = vec![0u64; entries.len()];
        let mut vals = vec![T::zero(); entries.len()];
        for &(key, col, v) in entries {
            let at = &mut start[key as usize];
            cols[*at] = col;
            vals[*at] = v;
            *at += 1;
        }
        Self {
            keys,
            starts,
            cols,
            vals,
        }
    }

    /// Runs of key-sorted entries.
    fn grouped(entries: Vec<(u64, u64, T)>) -> Self {
        let mut keys = Vec::new();
        let mut starts = Vec::new();
        let mut cols = Vec::with_capacity(entries.len());
        let mut vals = Vec::with_capacity(entries.len());
        for (ctr, col, v) in entries {
            if keys.last() != Some(&ctr) {
                keys.push(ctr);
                starts.push(cols.len());
            }
            cols.push(col);
            vals.push(v);
        }
        starts.push(cols.len());
        Self {
            keys,
            starts,
            cols,
            vals,
        }
    }

    /// Reassemble from the flat wire form: `keys[i]` has `lens[i]`
    /// entries, laid out consecutively in `cols`/`vals`. Keys must be
    /// strictly ascending (as produced by [`Self::run_lens`] round trips).
    pub fn from_runs(keys: Vec<u64>, lens: &[u64], cols: Vec<u64>, vals: Vec<T>) -> Self {
        debug_assert_eq!(keys.len(), lens.len());
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]));
        let mut starts = Vec::with_capacity(keys.len() + 1);
        let mut at = 0usize;
        starts.push(0);
        for &l in lens {
            at += l as usize;
            starts.push(at);
        }
        debug_assert_eq!(at, cols.len());
        debug_assert_eq!(cols.len(), vals.len());
        Self {
            keys,
            starts,
            cols,
            vals,
        }
    }

    /// Distinct contracted keys, ascending.
    pub fn keys(&self) -> &[u64] {
        &self.keys
    }

    /// Run length per key (wire form companion of [`Self::keys`]).
    pub fn run_lens(&self) -> impl Iterator<Item = u64> + '_ {
        self.starts.windows(2).map(|w| (w[1] - w[0]) as u64)
    }

    /// Fused free-index of every entry, run-concatenated.
    pub fn cols(&self) -> &[u64] {
        &self.cols
    }

    /// Value of every entry, run-concatenated.
    pub fn vals(&self) -> &[T] {
        &self.vals
    }

    /// Total stored entries.
    pub fn n_entries(&self) -> usize {
        self.cols.len()
    }

    /// Number of distinct keys.
    pub fn n_keys(&self) -> usize {
        self.keys.len()
    }

    /// The `(cols, vals)` run for key index `i`.
    #[inline]
    fn run(&self, i: usize) -> (&[u64], &[T]) {
        let (s, e) = (self.starts[i], self.starts[i + 1]);
        (&self.cols[s..e], &self.vals[s..e])
    }
}

/// Whether a counting sort over `range` buckets beats a comparison sort of
/// `len` items: its table must not dwarf the items.
fn counting_pays(len: usize, range: usize) -> bool {
    range <= 8 * len.max(512)
}

/// `items` stably sorted by `key`, which must lie below `range`: a
/// counting sort when the range is small against the item count, a stable
/// comparison sort otherwise.
pub fn counting_sort_by<E: Copy>(items: &[E], range: usize, key: impl Fn(&E) -> usize) -> Vec<E> {
    let Some(&first) = items.first() else {
        return Vec::new();
    };
    if !counting_pays(items.len(), range) {
        let mut sorted = items.to_vec();
        sorted.sort_by_key(key);
        return sorted;
    }
    // start[k + 1] counts key k, then start[k] becomes where key k begins
    let mut start = vec![0usize; range + 1];
    for e in items {
        start[key(e) + 1] += 1;
    }
    for k in 0..range {
        start[k + 1] += start[k];
    }
    let mut sorted = vec![first; items.len()];
    for &e in items {
        let at = &mut start[key(&e)];
        sorted[*at] = e;
        *at += 1;
    }
    sorted
}

/// The output mask of one merge as slots. Fused row `r` and fused column
/// `c` meet in an allowed output element iff their classes are equal — for
/// a symmetric contraction, the class of `flux − q(r)` and the class of
/// `q(c)` — and that element lives in slot `row_start(r) + rank(c)`, where
/// `rank(c)` counts the columns of `c`'s class before `c`. Slots ascend in
/// row-major `(row, col)` order, so a row range owns one contiguous slot
/// range, and there are exactly as many slots as allowed elements, however
/// large `rows × cols` is. Building the map needs neither the allowed
/// offsets nor a division.
#[derive(Debug, Clone, PartialEq)]
pub struct SlotMap {
    row_class: Vec<u32>,
    /// `row_start[r]` is the first slot of row `r`; one extra entry closes
    /// the last row.
    row_start: Vec<usize>,
    /// Per column: its class in the high 32 bits, its rank in the low 32 —
    /// one load on the merge's innermost loop.
    col_slot: Vec<u64>,
    /// The columns of class `k`, ascending, are
    /// `class_cols[class_start[k]..class_start[k + 1]]`.
    class_start: Vec<usize>,
    class_cols: Vec<u64>,
}

impl SlotMap {
    /// The slot map of `row_class.len()` rows against `col_class.len()`
    /// columns. Classes are small dense ids: a table runs up to the largest.
    pub fn new(row_class: Vec<u32>, col_class: &[u32]) -> Self {
        let classes = row_class
            .iter()
            .chain(col_class)
            .max()
            .map_or(0, |&k| k as usize + 1);
        let mut class_start = vec![0usize; classes + 1];
        for &k in col_class {
            class_start[k as usize + 1] += 1;
        }
        for k in 0..classes {
            class_start[k + 1] += class_start[k];
        }
        let mut fill = class_start.clone();
        let mut class_cols = vec![0u64; col_class.len()];
        let col_slot = col_class
            .iter()
            .enumerate()
            .map(|(col, &k)| {
                let at = &mut fill[k as usize];
                let rank = u32::try_from(*at - class_start[k as usize])
                    .expect("a class holds fewer than 2^32 columns");
                class_cols[*at] = col as u64;
                *at += 1;
                (k as u64) << 32 | rank as u64
            })
            .collect();
        let mut row_start = Vec::with_capacity(row_class.len() + 1);
        row_start.push(0);
        let mut at = 0;
        for &k in &row_class {
            at += class_start[k as usize + 1] - class_start[k as usize];
            row_start.push(at);
        }
        Self {
            row_class,
            row_start,
            col_slot,
            class_start,
            class_cols,
        }
    }

    /// Fused rows.
    pub fn rows(&self) -> usize {
        self.row_class.len()
    }

    /// Fused columns.
    pub fn cols(&self) -> usize {
        self.col_slot.len()
    }

    /// Slots in all: the number of elements the mask allows.
    pub fn n_slots(&self) -> usize {
        self.row_start[self.rows()]
    }

    /// The slots of rows `r0..r1`.
    pub fn row_slots(&self, r0: usize, r1: usize) -> Range<usize> {
        self.row_start[r0]..self.row_start[r1]
    }

    /// The columns row `r` may hold, ascending: the row's `i`-th slot holds
    /// column `row_cols(r)[i]`.
    pub fn row_cols(&self, r: usize) -> &[u64] {
        let k = self.row_class[r] as usize;
        &self.class_cols[self.class_start[k]..self.class_start[k + 1]]
    }

    /// The row and column classes the map was built from.
    pub fn classes(&self) -> (&[u32], Vec<u32>) {
        let cols = self.col_slot.iter().map(|&info| (info >> 32) as u32);
        (&self.row_class, cols.collect())
    }

    /// The slot of element `(row, col)`, if the mask allows it.
    pub fn slot(&self, row: usize, col: usize) -> Option<usize> {
        let info = self.col_slot[col];
        ((info >> 32) as u32 == self.row_class[row])
            .then(|| self.row_start[row] + (info as u32) as usize)
    }
}

/// The slots of a row chunk: `vals[i]`/`touched[i]` belong to slot
/// `s0 + i`.
struct SlotAcc<'m, T> {
    map: &'m SlotMap,
    s0: usize,
    vals: Vec<T>,
    touched: Vec<bool>,
}

impl<T: Scalar> SlotAcc<'_, T> {
    /// The row's class and the chunk-local index of its first slot:
    /// resolved once per `A` entry, outside the innermost loop.
    #[inline(always)]
    fn row(&self, row: u64) -> (u32, usize) {
        let row = row as usize;
        (self.map.row_class[row], self.map.row_start[row] - self.s0)
    }
    #[inline(always)]
    fn add(&mut self, (class, base): (u32, usize), col: u64, p: T) {
        let info = self.map.col_slot[col as usize];
        if (info >> 32) as u32 == class {
            let i = base + (info as u32) as usize;
            self.touched[i] = true;
            self.vals[i] += p;
        }
    }
}

/// The merge loop.
fn merge_into<T: Scalar>(a: &[(u64, u64, T)], btab: &SsBTable<T>, acc: &mut SlotAcc<T>) -> u64 {
    let mut flops = 0u64;
    let mut ai = 0usize;
    let mut bi = 0usize;
    while ai < a.len() && bi < btab.n_keys() {
        let key = a[ai].1;
        let mut aj = ai + 1;
        while aj < a.len() && a[aj].1 == key {
            aj += 1;
        }
        while bi < btab.n_keys() && btab.keys[bi] < key {
            bi += 1;
        }
        if bi < btab.n_keys() && btab.keys[bi] == key {
            let (bcols, bvals) = btab.run(bi);
            flops += 2 * (aj - ai) as u64 * bcols.len() as u64;
            for &(row, _, va) in &a[ai..aj] {
                let row = acc.row(row);
                for (&col, &vb) in bcols.iter().zip(bvals.iter()) {
                    acc.add(row, col, va * vb);
                }
            }
        }
        ai = aj;
    }
    flops
}

/// One row chunk merged into the slots of its rows ([`merge_slots`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SlotChunk<T> {
    /// The value of every slot of the chunk's rows, in slot order; zero
    /// where no product landed.
    pub vals: Vec<T>,
    /// Whether at least one product landed in the slot — a touched slot
    /// may still hold zero, where products cancelled.
    pub touched: Vec<bool>,
    /// 2 per product, counted before masking.
    pub flops: u64,
}

impl<T> SlotChunk<T> {
    /// Row chunks in row order as one chunk: a single chunk moves.
    pub fn concat(mut parts: Vec<Self>) -> Self {
        if parts.len() == 1 {
            return parts.pop().expect("one part");
        }
        let mut whole = SlotChunk {
            vals: Vec::new(),
            touched: Vec::new(),
            flops: 0,
        };
        for part in parts {
            whole.vals.extend(part.vals);
            whole.touched.extend(part.touched);
            whole.flops += part.flops;
        }
        whole
    }
}

/// Contract one row chunk of `A` against a grouped `B` table into the
/// slots of `map` over rows `r0..r1`.
///
/// * `a` — `(row, key, val)` entries with `r0 <= row < r1`, sorted
///   **stably** by `key` (ties in original stored order).
/// * `btab` — the grouped `B` operand, its columns below `map.cols()`.
///
/// The accumulator is [`SlotMap::row_slots`] long; a product the mask does
/// not allow is counted (2 flops, like every product) and dropped.
pub fn merge_slots<T: Scalar>(
    a: &[(u64, u64, T)],
    btab: &SsBTable<T>,
    map: &SlotMap,
    r0: usize,
    r1: usize,
) -> SlotChunk<T> {
    debug_assert!(a
        .iter()
        .all(|&(row, _, _)| r0 as u64 <= row && row < r1 as u64));
    debug_assert!(a.windows(2).all(|w| w[0].1 <= w[1].1), "A not key-sorted");
    let slots = map.row_slots(r0, r1);
    let mut acc = SlotAcc {
        map,
        s0: slots.start,
        vals: vec![T::zero(); slots.len()],
        touched: vec![false; slots.len()],
    };
    let flops = merge_into(a, btab, &mut acc);
    SlotChunk {
        vals: acc.vals,
        touched: acc.touched,
        flops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Complex64;
    use std::collections::HashMap;

    /// Naive triple-loop reference: for every (a, b) entry pair with equal
    /// key, accumulate into a dense map — key-ascending per element like
    /// the kernel.
    fn naive<T: Scalar>(a: &[(u64, u64, T)], b: &[(u64, u64, T)]) -> Vec<(u64, u64, T)> {
        let mut keys: Vec<u64> = a.iter().map(|e| e.1).collect();
        keys.sort_unstable();
        keys.dedup();
        let mut acc: HashMap<(u64, u64), T> = HashMap::new();
        for key in keys {
            for &(row, _, va) in a.iter().filter(|e| e.1 == key) {
                for &(_, col, vb) in b.iter().filter(|e| e.0 == key) {
                    *acc.entry((row, col)).or_insert_with(T::zero) += va * vb;
                }
            }
        }
        let mut out: Vec<(u64, u64, T)> = acc.into_iter().map(|((r, c), v)| (r, c, v)).collect();
        out.sort_unstable_by_key(|&(r, c, _)| (r, c));
        out
    }

    fn sorted_a<T: Scalar>(mut a: Vec<(u64, u64, T)>) -> Vec<(u64, u64, T)> {
        a.sort_by_key(|e| e.1);
        a
    }

    /// The grouped table of `entries`, keyed up to their largest key.
    fn table<T: Scalar>(entries: &[(u64, u64, T)]) -> SsBTable<T> {
        let range = entries.iter().map(|e| e.0 as usize + 1).max().unwrap_or(0);
        SsBTable::from_keyed(entries, range)
    }

    /// [`merge_slots`] of rows `r0..r1` under the one-class mask of `n`
    /// columns, which allows every element: every touched element as
    /// `(row, col, value)` in `(row, col)` order, and the flops.
    fn unmasked<T: Scalar>(
        a: &[(u64, u64, T)],
        btab: &SsBTable<T>,
        r0: u64,
        r1: u64,
        n: u64,
    ) -> (Vec<(u64, u64, T)>, u64) {
        let map = SlotMap::new(vec![0; r1 as usize], &vec![0; n as usize]);
        let chunk = merge_slots(a, btab, &map, r0 as usize, r1 as usize);
        let elems = (r0..r1).flat_map(|r| (0..n).map(move |c| (r, c)));
        let touched = elems
            .zip(chunk.touched.iter().zip(&chunk.vals))
            .filter(|(_, (&t, _))| t)
            .map(|((r, c), (_, &v))| (r, c, v))
            .collect();
        (touched, chunk.flops)
    }

    #[test]
    fn small_merge_matches_naive() {
        let a = vec![(0, 2, 1.5), (1, 2, -2.0), (0, 5, 3.0), (2, 7, 1.0)];
        let b = vec![(2, 0, 2.0), (2, 3, 1.0), (5, 1, -1.0), (6, 0, 9.0)];
        let (got, flops) = unmasked(&sorted_a(a.clone()), &table(&b), 0, 3, 4);
        assert_eq!(got, naive(&a, &b));
        // key 2: 2 A × 2 B = 4 products, key 5: 1×1 — 5 products total
        assert_eq!(flops, 10);
    }

    #[test]
    fn empty_and_disjoint_runs() {
        let btab = table::<f64>(&[]);
        let (got, flops) = unmasked(&[(0, 1, 1.0)], &btab, 0, 1, 4);
        assert!(got.is_empty());
        assert_eq!(flops, 0);
        // keys present on both sides but never equal
        let btab = table(&[(0, 0, 1.0), (2, 1, 1.0)]);
        let a = sorted_a(vec![(0, 1, 1.0), (0, 3, 1.0)]);
        let (got, flops) = unmasked(&a, &btab, 0, 1, 4);
        assert!(got.is_empty());
        assert_eq!(flops, 0);
    }

    #[test]
    fn duplicate_key_entries_accumulate_in_order() {
        // duplicate (row, key) pairs on the A side and duplicate
        // (key, col) pairs on the B side must all contribute
        let a = vec![(0, 1, 2.0), (0, 1, 3.0)];
        let b = vec![(1, 0, 1.0), (1, 0, 10.0)];
        let (got, _) = unmasked(&sorted_a(a.clone()), &table(&b), 0, 1, 1);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0], (0, 0, (2.0 + 3.0) * 11.0));
    }

    #[test]
    fn complex_merge_matches_naive() {
        let c = Complex64::new;
        let a = vec![
            (0, 0, c(1.0, 2.0)),
            (1, 0, c(0.0, -1.0)),
            (0, 3, c(2.0, 0.5)),
        ];
        let b = vec![
            (0, 1, c(0.5, 0.5)),
            (3, 0, c(-1.0, 1.0)),
            (3, 1, c(2.0, 2.0)),
        ];
        let (got, _) = unmasked(&sorted_a(a.clone()), &table(&b), 0, 2, 2);
        let want = naive(&a, &b);
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!((g.0, g.1), (w.0, w.1));
            assert!((g.2 - w.2).abs() < 1e-14);
        }
    }

    #[test]
    fn chunked_rows_equal_whole_bitwise() {
        // splitting A by row ranges and concatenating must be bitwise
        // equal to one chunk over all rows
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let (m, k, n) = (40u64, 23u64, 17u64);
        let mut a = Vec::new();
        for row in 0..m {
            for key in 0..k {
                if rng.gen_bool(0.3) {
                    a.push((row, key, rng.gen_range(-1.0..1.0f64)));
                }
            }
        }
        let mut b = Vec::new();
        for key in 0..k {
            for col in 0..n {
                if rng.gen_bool(0.3) {
                    b.push((key, col, rng.gen_range(-1.0..1.0f64)));
                }
            }
        }
        let btab = table(&b);
        let (whole, wf) = unmasked(&sorted_a(a.clone()), &btab, 0, m, n);
        for splits in [2u64, 3, 7] {
            let mut parts = Vec::new();
            let mut pf = 0;
            for s in 0..splits {
                let (r0, r1) = (s * m / splits, (s + 1) * m / splits);
                let chunk: Vec<_> = a
                    .iter()
                    .copied()
                    .filter(|&(row, _, _)| r0 <= row && row < r1)
                    .collect();
                let (part, f) = unmasked(&sorted_a(chunk), &btab, r0, r1, n);
                parts.extend(part);
                pf += f;
            }
            // chunks are row-disjoint and row-sorted, so concatenation is
            // already (row, col)-sorted
            assert_eq!(whole, parts, "split {splits} changed bits");
            assert_eq!(wf, pf);
        }
    }

    /// A masked merge's reference: the unmasked merge over rows `r0..r1`,
    /// filtered to the mask, as `(slot, value)` in slot order, plus the
    /// flops.
    fn masked_panel(
        a: &[(u64, u64, f64)],
        btab: &SsBTable<f64>,
        map: &SlotMap,
        r0: usize,
        r1: usize,
    ) -> (Vec<(usize, u64)>, u64) {
        let (triples, flops) = unmasked(a, btab, r0 as u64, r1 as u64, map.cols() as u64);
        let kept = triples
            .into_iter()
            .filter_map(|(r, c, v)| Some((map.slot(r as usize, c as usize)?, v.to_bits())))
            .collect();
        (kept, flops)
    }

    /// The touched slots of a chunk over rows `r0..`, as `(slot, bits)`.
    fn touched(chunk: &SlotChunk<f64>, s0: usize) -> Vec<(usize, u64)> {
        (0..chunk.vals.len())
            .filter(|&i| chunk.touched[i])
            .map(|i| (s0 + i, chunk.vals[i].to_bits()))
            .collect()
    }

    #[test]
    fn slot_map_layout() {
        // classes 0 and 3 have columns, 1 has none, 2 is not used at all
        let map = SlotMap::new(vec![3, 1, 0, 3], &[0, 3, 3, 0, 3]);
        assert_eq!((map.rows(), map.cols()), (4, 5));
        assert_eq!(map.row_cols(0), &[1, 2, 4]);
        assert!(map.row_cols(1).is_empty(), "a row with no allowed column");
        assert_eq!(map.row_cols(2), &[0, 3]);
        // rows 0..4 hold 3, none, 2 and 3 slots
        assert_eq!(map.n_slots(), 8);
        assert_eq!(map.row_slots(1, 3), 3..5);
        // slots ascend in row-major (row, col) order
        let mut last = None;
        for r in 0..4 {
            for c in 0..5 {
                if let Some(s) = map.slot(r, c) {
                    assert!(last.map_or(s == 0, |l| s == l + 1), "({r}, {c}) -> {s}");
                    assert_eq!(map.row_cols(r)[s - map.row_slots(r, r + 1).start], c as u64);
                    last = Some(s);
                }
            }
        }
        assert_eq!(last, Some(map.n_slots() - 1));
        assert_eq!(map.slot(1, 0), None);
        assert_eq!(map.slot(0, 0), None);
    }

    #[test]
    fn slots_equal_the_masked_panel() {
        // rows 0 and 3 in class 0, row 1 in class 1 (no column has it),
        // row 2 in class 2; columns 0, 2 in class 0, 1 and 3 in class 2
        let map = SlotMap::new(vec![0, 1, 2, 0], &[0, 2, 0, 2]);
        let a = sorted_a(vec![
            (0, 0, 1.0),
            (1, 0, 5.0), // every product of row 1 is outside the mask
            (2, 1, 2.0),
            (3, 1, -1.0),
            (0, 1, 4.0),
        ]);
        let btab = table(&[
            (0, 0, 2.0),
            (0, 1, 7.0), // (0, 1) is outside the mask
            (1, 0, -0.5),
            (1, 1, 4.0),
            (1, 2, 0.5),
        ]);
        let got = merge_slots(&a, &btab, &map, 0, 4);
        let (want, flops) = masked_panel(&a, &btab, &map, 0, 4);
        assert_eq!(got.vals.len(), map.n_slots());
        assert_eq!(touched(&got, 0), want);
        assert_eq!(got.flops, flops);
        assert_eq!(flops, 2 * (2 * 2 + 3 * 3));
        // (0, 0) cancels to an exact zero: touched, and kept as a slot
        let s = map.slot(0, 0).unwrap();
        assert!(got.touched[s]);
        assert_eq!(got.vals[s], 0.0);
        // a touched count equal to the panel's allowed entries
        assert_eq!(got.touched.iter().filter(|&&t| t).count(), want.len());
    }

    #[test]
    fn slot_row_chunks_concatenate_to_the_whole() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(13);
        let (m, k, n) = (30usize, 11u64, 19usize);
        let row_class: Vec<u32> = (0..m).map(|_| rng.gen_range(0..4u64) as u32).collect();
        let col_class: Vec<u32> = (0..n).map(|_| rng.gen_range(1..4u64) as u32).collect();
        let map = SlotMap::new(row_class, &col_class);
        let mut a = Vec::new();
        for row in 0..m as u64 {
            for key in 0..k {
                if rng.gen_bool(0.4) {
                    a.push((row, key, rng.gen_range(-1.0..1.0)));
                }
            }
        }
        let mut b = Vec::new();
        for key in 0..k {
            for col in 0..n as u64 {
                if rng.gen_bool(0.4) {
                    b.push((key, col, rng.gen_range(-1.0..1.0)));
                }
            }
        }
        let btab = table(&b);
        let a = sorted_a(a);
        let whole = merge_slots(&a, &btab, &map, 0, m);
        let (want, flops) = masked_panel(&a, &btab, &map, 0, m);
        assert_eq!(touched(&whole, 0), want);
        assert_eq!(whole.flops, flops);
        for cuts in [vec![0, 7, m], vec![0, 0, 13, 29, m], vec![0, m, m]] {
            let parts: Vec<SlotChunk<f64>> = cuts
                .windows(2)
                .map(|w| {
                    let part: Vec<_> = a
                        .iter()
                        .copied()
                        .filter(|e| (w[0] as u64..w[1] as u64).contains(&e.0))
                        .collect();
                    let chunk = merge_slots(&part, &btab, &map, w[0], w[1]);
                    let s0 = map.row_slots(w[0], w[1]).start;
                    assert_eq!(
                        touched(&chunk, s0),
                        masked_panel(&part, &btab, &map, w[0], w[1]).0
                    );
                    chunk
                })
                .collect();
            assert_eq!(SlotChunk::concat(parts), whole, "cuts {cuts:?}");
        }
    }

    #[test]
    fn counting_tables_equal_sorted_tables() {
        let entries = vec![
            (3u64, 1u64, 4.0f64),
            (1, 0, 2.0),
            (3, 0, 5.0),
            (0, 9, 1.0),
            (1, 2, -1.0),
        ];
        // the counting pass and, past its range, the comparison sort build
        // one table
        assert!(counting_pays(entries.len(), 4));
        assert!(!counting_pays(entries.len(), 1 << 20));
        let counted = SsBTable::from_keyed(&entries, 4);
        assert_eq!(counted, SsBTable::from_keyed(&entries, 1 << 20));
        assert_eq!(counted.keys(), &[0, 1, 3]);
        let runs: Vec<u64> = counted.run_lens().collect();
        assert_eq!(runs, [1, 2, 2]);
        // each run keeps input order
        assert_eq!(counted.cols(), &[9, 0, 2, 1, 0]);
        assert_eq!(SsBTable::<f64>::from_keyed(&[], 3).n_keys(), 0);
        // stable on ties, either way
        let items = [(2, 'a'), (0, 'b'), (2, 'c'), (1, 'd'), (0, 'e')];
        let want = [(0, 'b'), (0, 'e'), (1, 'd'), (2, 'a'), (2, 'c')];
        assert_eq!(counting_sort_by(&items, 3, |e| e.0), want);
        assert_eq!(counting_sort_by(&items, 1 << 20, |e| e.0), want);
    }

    #[test]
    fn table_wire_roundtrip() {
        let b = vec![(3u64, 1u64, 4.0f64), (1, 0, 2.0), (3, 2, 5.0), (9, 9, 1.0)];
        let t = table(&b);
        assert_eq!(t.keys(), &[1, 3, 9]);
        let lens: Vec<u64> = t.run_lens().collect();
        assert_eq!(lens, vec![1, 2, 1]);
        let rt = SsBTable::from_runs(
            t.keys().to_vec(),
            &lens,
            t.cols().to_vec(),
            t.vals().to_vec(),
        );
        assert_eq!(t, rt);
        assert_eq!(rt.n_entries(), 4);
    }
}
