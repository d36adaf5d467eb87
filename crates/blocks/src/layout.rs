//! One bond's vector layout, and the vectors that live in it.
//!
//! A Davidson solve applies one effective Hamiltonian to many vectors of
//! one structure — the two-site tensor's graded indices and flux. A
//! [`BondLayout`] fixes that structure's storage once: every allowed block,
//! concatenated in sorted key order (the order [`BlockSparseTensor::blocks`]
//! iterates and [`BlockSparseTensor::random`] fills in). A [`BondVector`] is
//! such a layout, shared, plus one `Vec<f64>`: dot, axpy, norm and scale are
//! slice loops, and block form appears only where a solve starts and ends.
//!
//! This module also owns the flattened (row-major dense) index space of
//! the sparse-dense and sparse-sparse algorithms. `FlatLayout` walks a
//! block's runs there; `FlatRuns` are the runs of a list of blocks laid end
//! to end, sorted by flat offset. A layout's, derived once per layout,
//! gather and scatter both flattened forms without a key lookup or a
//! per-block allocation. A contraction chain reads and writes a bond
//! vector through them, and every import into block form
//! ([`BlockSparseTensor::from_dense`], [`BlockSparseTensor::from_flat_sparse`],
//! [`BlockSparseTensor::flat_mask`], [`BlockSparseTensor::random`]) is one
//! read of a layout that ends in [`BondVector::to_blocks`]'s rule for
//! keeping a block. Only the exports `to_dense` and `to_flat_sparse` walk
//! stored blocks instead.

use crate::block::{BlockKey, BlockSparseTensor};
use crate::index::QnIndex;
use crate::qn::QN;
use crate::{Error, Result};
use rand::Rng;
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use tt_tensor::{DenseTensor, SparseTensor};

/// Every allowed block of one `(indices, flux)`, concatenated in sorted
/// key order.
#[derive(Debug)]
pub struct BondLayout {
    indices: Vec<QnIndex>,
    flux: QN,
    /// Every allowed key, ascending.
    keys: Vec<BlockKey>,
    /// Block `i` occupies `starts[i]..starts[i + 1]`; the last entry is
    /// the layout's length.
    starts: Vec<usize>,
    /// Where the layout sits in the flattened index space, derived by its
    /// first flattened use.
    runs: OnceLock<FlatRuns>,
}

impl BondLayout {
    /// The layout of every allowed block of `(indices, flux)`.
    pub fn new(indices: &[QnIndex], flux: QN) -> Self {
        let keys = BlockSparseTensor::new(indices.to_vec(), flux).allowed_keys();
        let mut starts = Vec::with_capacity(keys.len() + 1);
        let mut at = 0;
        starts.push(at);
        for key in &keys {
            at += key
                .iter()
                .zip(indices)
                .map(|(&s, i)| i.sector_dim(s as usize))
                .product::<usize>();
            starts.push(at);
        }
        Self {
            indices: indices.to_vec(),
            flux,
            keys,
            starts,
            runs: OnceLock::new(),
        }
    }

    /// The graded indices.
    pub fn indices(&self) -> &[QnIndex] {
        &self.indices
    }

    /// The flux.
    pub fn flux(&self) -> QN {
        self.flux
    }

    /// Whether `(indices, flux)` is the structure this layout lays out.
    pub fn lays_out(&self, indices: &[QnIndex], flux: QN) -> bool {
        self.flux == flux && self.indices == indices
    }

    /// Elements of a vector in this layout.
    pub(crate) fn len(&self) -> usize {
        *self.starts.last().expect("starts holds the end")
    }

    /// Every allowed key, in layout (ascending) order.
    pub(crate) fn keys(&self) -> &[BlockKey] {
        &self.keys
    }

    /// The elements of block `i` (in [`BondLayout::keys`] order).
    pub(crate) fn range(&self, i: usize) -> Range<usize> {
        self.starts[i]..self.starts[i + 1]
    }

    /// The dimensions of block `i`.
    pub(crate) fn block_dims(&self, i: usize) -> Vec<usize> {
        let key = &self.keys[i];
        key.iter()
            .enumerate()
            .map(|(m, &s)| self.indices[m].sector_dim(s as usize))
            .collect()
    }

    /// The position of block `key` in the layout, if it is allowed.
    pub(crate) fn find(&self, key: &[u16]) -> Option<usize> {
        self.keys.binary_search_by(|k| k[..].cmp(key)).ok()
    }

    /// The layout's runs of the flattened index space.
    pub(crate) fn flat_runs(&self) -> &FlatRuns {
        self.runs
            .get_or_init(|| FlatRuns::new(&self.indices, self.keys.iter(), &self.starts))
    }
}

/// The flattened (row-major dense) index space of a graded index list.
/// Sectors are contiguous ranges of each mode, so a block is a set of
/// contiguous innermost-mode *runs* there, and every block↔flat
/// conversion is slice copies between runs and block data.
pub(crate) struct FlatLayout<'a> {
    indices: &'a [QnIndex],
    /// Row-major strides of the dense dims.
    strides: Vec<usize>,
    /// Odometer over a block's outer modes, reused across blocks.
    idx: Vec<usize>,
}

impl<'a> FlatLayout<'a> {
    pub(crate) fn new(indices: &'a [QnIndex]) -> Self {
        let dims: Vec<usize> = indices.iter().map(|i| i.dim()).collect();
        Self {
            indices,
            strides: tt_tensor::Shape::from(dims).strides(),
            idx: vec![0; indices.len() - 1],
        }
    }

    /// Call `f(start, local, len)` for each run of block `key`, in the
    /// block's row-major order — ascending in both offsets.
    pub(crate) fn for_each_run(&mut self, key: &[u16], mut f: impl FnMut(usize, usize, usize)) {
        let indices = self.indices;
        let last = key.len() - 1;
        let extent = |m: usize| indices[m].sector_dim(key[m] as usize);
        let len = extent(last);
        let mut start: usize = (0..=last)
            .map(|m| indices[m].sector_offset(key[m] as usize) * self.strides[m])
            .sum();
        let mut local = 0;
        self.idx.fill(0);
        loop {
            f(start, local, len);
            local += len;
            // advance the outer modes, innermost first; a mode that wraps
            // hands its span back before carrying
            let mut m = last;
            loop {
                if m == 0 {
                    return;
                }
                m -= 1;
                self.idx[m] += 1;
                start += self.strides[m];
                if self.idx[m] < extent(m) {
                    break;
                }
                start -= self.idx[m] * self.strides[m];
                self.idx[m] = 0;
            }
        }
    }
}

/// One contiguous stretch shared by a layout and the flattened index
/// space: `len` elements at flat offset `flat` and at layout position
/// `pos`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct FlatRun {
    flat: usize,
    pos: usize,
    len: usize,
}

/// A layout's place in the flattened (row-major dense) index space of its
/// indices: its runs, ascending by flat offset, neighbours that are
/// contiguous on both sides merged into one. It moves a vector between the
/// layout and both flattened forms the sparse algorithms consume.
#[derive(Debug)]
pub(crate) struct FlatRuns {
    dims: Vec<usize>,
    runs: Vec<FlatRun>,
}

impl FlatRuns {
    /// The runs of blocks `keys` (ascending) of `indices`, block `i` at
    /// `starts[i]` of a vector holding the blocks end to end.
    pub(crate) fn new<'k>(
        indices: &[QnIndex],
        keys: impl Iterator<Item = &'k BlockKey>,
        starts: &[usize],
    ) -> Self {
        let mut walk = FlatLayout::new(indices);
        let mut unsorted = Vec::new();
        for (key, &at) in keys.zip(starts) {
            walk.for_each_run(key, |flat, local, len| {
                unsorted.push(FlatRun {
                    flat,
                    pos: at + local,
                    len,
                })
            });
        }
        // A row of the flattened space (one index of every mode but the
        // last) lies in one sector of each of those modes, so the blocks
        // with runs in it differ in their last sector alone and key order
        // is offset order there: one stable counting pass by row sorts.
        let dims: Vec<usize> = indices.iter().map(QnIndex::dim).collect();
        let width = dims[dims.len() - 1];
        let mut row_at = vec![0; dims.iter().product::<usize>() / width + 1];
        for r in &unsorted {
            row_at[r.flat / width + 1] += 1;
        }
        for row in 1..row_at.len() {
            row_at[row] += row_at[row - 1];
        }
        let mut runs = vec![FlatRun::default(); unsorted.len()];
        for r in unsorted {
            let at = &mut row_at[r.flat / width];
            runs[*at] = r;
            *at += 1;
        }
        // merge neighbours contiguous on both sides
        runs.dedup_by(|r, last| {
            let joins = last.flat + last.len == r.flat && last.pos + last.len == r.pos;
            if joins {
                last.len += r.len;
            }
            joins
        });
        Self { dims, runs }
    }

    /// The flattened dense dims.
    pub(crate) fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// `Ok` when a flattened tensor (`what`: "dense", "sparse") has `dims`.
    pub(crate) fn check_dims(&self, what: &str, dims: &[usize]) -> Result<()> {
        if dims == self.dims {
            return Ok(());
        }
        let want = &self.dims;
        let msg = format!("{what} dims {dims:?} != graded dims {want:?}");
        Err(Error::Key(msg))
    }

    /// Every flat offset the layout covers, ascending.
    pub(crate) fn offsets(&self) -> Vec<u64> {
        let spans = self.runs.iter().map(|r| r.flat..r.flat + r.len);
        spans.flatten().map(|o| o as u64).collect()
    }

    /// `data` as the flattened sparse tensor, zeros skipped:
    /// [`BlockSparseTensor::to_flat_sparse`] of its block form, bit for bit.
    pub(crate) fn gather_sparse(&self, data: &[f64]) -> SparseTensor<f64> {
        let (mut offsets, mut values) = (Vec::with_capacity(data.len()), Vec::new());
        values.reserve(data.len());
        for r in &self.runs {
            for (i, &v) in data[r.pos..r.pos + r.len].iter().enumerate() {
                if v != 0.0 {
                    offsets.push((r.flat + i) as u64);
                    values.push(v);
                }
            }
        }
        SparseTensor::from_sorted(self.dims.clone(), offsets, values)
            .expect("runs ascend and stay inside the dims")
    }

    /// Write `data` into `dense`, the flattened dense tensor, at its
    /// runs; what lies outside them is left as it is.
    pub(crate) fn scatter_dense(&self, data: &[f64], dense: &mut [f64]) {
        for r in &self.runs {
            dense[r.flat..r.flat + r.len].copy_from_slice(&data[r.pos..r.pos + r.len]);
        }
    }

    /// Read the layout's elements of `dense` into `data`.
    pub(crate) fn gather_dense(&self, dense: &[f64], data: &mut [f64]) {
        for r in &self.runs {
            data[r.pos..r.pos + r.len].copy_from_slice(&dense[r.flat..r.flat + r.len]);
        }
    }

    /// Write the entries of `sp` into `data` by one merge walk along the
    /// runs (both ascend). Zeros are skipped wherever they sit; a nonzero
    /// entry no run covers is a symmetry violation.
    pub(crate) fn scatter_sparse(&self, sp: &SparseTensor<f64>, data: &mut [f64]) -> Result<()> {
        self.check_dims("sparse", sp.dims())?;
        let mut r = 0;
        for (off, v) in sp.entries() {
            if v == 0.0 {
                continue;
            }
            let off = off as usize;
            while self
                .runs
                .get(r)
                .is_some_and(|run| run.flat + run.len <= off)
            {
                r += 1;
            }
            let Some(run) = self.runs.get(r).filter(|run| run.flat <= off) else {
                return Err(Error::Symmetry(format!(
                    "entry at {:?} lies outside every allowed block",
                    sp.shape().unoffset(off)
                )));
            };
            data[run.pos + off - run.flat] = v;
        }
        Ok(())
    }
}

/// A vector of one bond: a shared [`BondLayout`] and its elements.
#[derive(Debug, Clone)]
pub struct BondVector {
    layout: Arc<BondLayout>,
    data: Vec<f64>,
}

impl BondVector {
    /// The zero vector of `layout`.
    pub(crate) fn zeros(layout: &Arc<BondLayout>) -> Self {
        Self {
            layout: Arc::clone(layout),
            data: vec![0.0; layout.len()],
        }
    }

    /// `t` in `layout`: its stored blocks copied in, every other block
    /// zero. `t` must have the layout's indices and flux.
    pub fn from_blocks(layout: &Arc<BondLayout>, t: &BlockSparseTensor) -> Result<Self> {
        if !layout.lays_out(t.indices(), t.flux()) {
            return Err(Error::Symmetry(
                "tensor structure differs from the bond layout".into(),
            ));
        }
        let mut v = Self::zeros(layout);
        // stored blocks and layout keys both ascend
        let mut i = 0;
        for (key, block) in t.blocks() {
            while layout.keys[i] != *key {
                i += 1;
            }
            v.data[layout.range(i)].copy_from_slice(block.data());
        }
        Ok(v)
    }

    /// Uniform random entries in `[-1, 1]` over every allowed block: one
    /// `DenseTensor::random` stream of the layout's length, in layout order.
    pub fn random(layout: &Arc<BondLayout>, rng: &mut (impl Rng + ?Sized)) -> Self {
        Self {
            layout: Arc::clone(layout),
            data: DenseTensor::<f64>::random([layout.len()], rng).into_data(),
        }
    }

    /// Block form: every block holding a nonzero (or a NaN).
    pub fn to_blocks(&self) -> BlockSparseTensor {
        self.to_blocks_above(0.0)
    }

    /// Block form: every block with an entry that is not `|x| ≤ tol` — a
    /// NaN keeps its block at any `tol`, and `-∞` keeps every block. The
    /// one rule by which an import into block form keeps a block.
    pub(crate) fn to_blocks_above(&self, tol: f64) -> BlockSparseTensor {
        let layout = &self.layout;
        let mut t = BlockSparseTensor::new(layout.indices.clone(), layout.flux);
        // layout keys are allowed and ascend: the map is built in one pass
        t.blocks = (0..layout.keys.len())
            .map(|i| (i, &self.data[layout.range(i)]))
            .filter(|(_, data)| data.iter().any(|&v| v.abs() > tol || v.is_nan()))
            .map(|(i, data)| {
                let block = DenseTensor::from_vec(layout.block_dims(i), data.to_vec());
                let block = block.expect("a layout range holds its block's volume");
                (layout.keys[i].clone(), Arc::new(block))
            })
            .collect();
        t
    }

    /// The layout.
    pub fn layout(&self) -> &Arc<BondLayout> {
        &self.layout
    }

    /// The elements, in layout order.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// The elements, mutably.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Inner product: each block's products summed in order, and the
    /// block sums in key order — the order [`BlockSparseTensor::dot`] sums
    /// in, so a vector's reductions keep their bits whichever form it is
    /// in (a block of zeros adds `+0.0`, which moves no sum).
    pub fn dot(&self, other: &Self) -> f64 {
        self.check(other);
        tt_tensor::counter::add_flops(2 * self.data.len() as u64);
        self.blockwise_dot(other)
    }

    /// `self += alpha · other`.
    pub fn axpy(&mut self, alpha: f64, other: &Self) {
        self.check(other);
        tt_tensor::counter::add_flops(2 * self.data.len() as u64);
        for (x, &y) in self.data.iter_mut().zip(&other.data) {
            *x += alpha * y;
        }
    }

    /// In-place scale.
    pub fn scale_mut(&mut self, s: f64) {
        for x in &mut self.data {
            *x *= s;
        }
    }

    /// Euclidean norm, summed as [`BondVector::dot`] sums.
    pub fn norm(&self) -> f64 {
        self.blockwise_dot(self).sqrt()
    }

    fn blockwise_dot(&self, other: &Self) -> f64 {
        self.layout.starts.windows(2).fold(0.0, |acc, w| {
            let (a, b) = (&self.data[w[0]..w[1]], &other.data[w[0]..w[1]]);
            acc + a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>()
        })
    }

    fn check(&self, other: &Self) {
        assert!(
            Arc::ptr_eq(&self.layout, &other.layout) || self.data.len() == other.data.len(),
            "bond vectors of different layouts"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qn::Arrow;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn one(arrow: Arrow, dims: &[(i32, usize)]) -> QnIndex {
        QnIndex::new(arrow, dims.iter().map(|&(q, d)| (QN::one(q), d)).collect())
    }

    fn two(arrow: Arrow, dims: &[((i32, i32), usize)]) -> QnIndex {
        QnIndex::new(
            arrow,
            dims.iter().map(|&((n, s), d)| (QN::two(n, s), d)).collect(),
        )
    }

    /// Two-site-like tensors of one and of two U(1) charges. Each has a
    /// bond sector no allowed block reaches (charge 7 on the left bond, a
    /// two-charge sector no combination balances), so the layout leaves a
    /// hole in the flattened space where that sector's rows lie: a
    /// `QnIndex` refuses a sector of dimension zero, and this is the empty
    /// stretch such a sector would have been.
    fn structures() -> Vec<(Vec<QnIndex>, QN)> {
        let site = one(Arrow::In, &[(1, 1), (-1, 1)]);
        let spins = vec![
            one(Arrow::In, &[(-1, 2), (7, 2), (1, 3)]),
            site.clone(),
            site,
            one(Arrow::Out, &[(-3, 1), (-1, 3), (1, 2), (3, 1)]),
        ];
        let esite = two(
            Arrow::In,
            &[((0, 0), 1), ((1, 1), 1), ((1, -1), 1), ((2, 0), 1)],
        );
        let electrons = vec![
            two(
                Arrow::In,
                &[((0, 0), 1), ((1, 1), 2), ((9, 9), 2), ((1, -1), 2)],
            ),
            esite.clone(),
            esite,
            two(
                Arrow::Out,
                &[((1, 1), 2), ((2, 0), 3), ((2, 2), 1), ((3, 1), 2)],
            ),
        ];
        vec![(spins, QN::zero(1)), (electrons, QN::two(1, 1))]
    }

    /// A random tensor of `(indices, flux)` with every third allowed block
    /// missing and one stored block of zeros.
    fn holey(indices: &[QnIndex], flux: QN, seed: u64) -> BlockSparseTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let full = BlockSparseTensor::random(indices.to_vec(), flux, &mut rng);
        let mut t = BlockSparseTensor::new(indices.to_vec(), flux);
        for (i, (k, b)) in full.blocks().enumerate() {
            match i % 3 {
                0 => {}
                1 if i == 1 => t.insert_block(k.clone(), b.scaled(0.0)).unwrap(),
                _ => t.insert_block(k.clone(), b.clone()).unwrap(),
            }
        }
        t
    }

    fn cases() -> Vec<(Arc<BondLayout>, BlockSparseTensor)> {
        structures()
            .into_iter()
            .enumerate()
            .map(|(seed, (indices, flux))| {
                let t = holey(&indices, flux, 40 + seed as u64);
                assert!(t.n_blocks() >= 3, "the fixture stores blocks");
                (Arc::new(BondLayout::new(&indices, flux)), t)
            })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The layout lists `allowed_keys` in its (ascending) order, and a
    /// random tensor holds, key by key, the blocks a per-block draw from
    /// the raw `DenseTensor::random` stream gives.
    #[test]
    fn layout_order_is_the_random_fill_order() {
        for (seed, (indices, flux)) in structures().into_iter().enumerate() {
            let layout = BondLayout::new(&indices, flux);
            let keys = BlockSparseTensor::new(indices.clone(), flux).allowed_keys();
            assert!(keys.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(layout.keys(), &keys[..]);
            let mut rng = StdRng::seed_from_u64(seed as u64);
            let t = BlockSparseTensor::random(indices.clone(), flux, &mut rng);
            let mut rng = StdRng::seed_from_u64(seed as u64);
            assert_eq!(t.n_blocks(), keys.len());
            for ((key, block), want) in t.blocks().zip(&keys) {
                assert_eq!(key, want);
                let drawn = DenseTensor::<f64>::random(t.block_dims(key), &mut rng);
                assert_eq!(bits(block.data()), bits(drawn.data()));
            }
            assert_eq!(t.stored_elements(), layout.len());
        }
    }

    #[test]
    fn sparse_gather_equals_to_flat_sparse() {
        for (layout, t) in cases() {
            let v = BondVector::from_blocks(&layout, &t).unwrap();
            let got = layout.flat_runs().gather_sparse(v.data());
            let want = t.to_flat_sparse();
            assert_eq!(got.dims(), want.dims());
            let (go, gv): (Vec<u64>, Vec<f64>) = got.entries().unzip();
            let (wo, wv): (Vec<u64>, Vec<f64>) = want.entries().unzip();
            assert_eq!(go, wo);
            assert_eq!(bits(&gv), bits(&wv));
        }
    }

    #[test]
    fn dense_scatter_equals_to_dense() {
        for (layout, t) in cases() {
            let v = BondVector::from_blocks(&layout, &t).unwrap();
            let want = t.to_dense();
            let mut got = vec![0.0; want.len()];
            layout.flat_runs().scatter_dense(v.data(), &mut got);
            assert_eq!(bits(&got), bits(want.data()));
        }
    }

    /// `t` flattened either way and scattered back into the layout is `t`
    /// again: its elements (stored zeros as `+0.0`), its nonzero blocks in
    /// block form, and its `to_dense` image.
    #[test]
    fn scattered_results_are_the_nonzero_blocks() {
        for (layout, t) in cases() {
            let mut nonzero = BlockSparseTensor::new(t.indices().to_vec(), t.flux());
            for (k, b) in t
                .blocks()
                .filter(|(_, b)| b.data().iter().any(|&x| x != 0.0))
            {
                nonzero.insert_block(k.clone(), b.clone()).unwrap();
            }
            assert!(
                nonzero.n_blocks() < t.n_blocks(),
                "the fixture stores zeros"
            );
            let want = BondVector::from_blocks(&layout, &t).unwrap();
            let runs = layout.flat_runs();
            let dense = t.to_dense();

            let mut v = BondVector::zeros(&layout);
            runs.scatter_sparse(&t.to_flat_sparse(), v.data_mut())
                .unwrap();
            let mut w = BondVector::zeros(&layout);
            runs.gather_dense(dense.data(), w.data_mut());
            // equal as numbers: the stored block of signed zeros comes back
            // as +0.0
            for got in [v, w] {
                assert_eq!(got.data(), want.data());
                assert_eq!(got.to_blocks(), nonzero);
                assert_eq!(got.to_blocks().to_dense().data(), dense.data());
            }
        }
    }

    /// One rule keeps a block in every import: some entry is not
    /// `|x| ≤ tol`. A block of NaN, or of NaN and small entries, is kept;
    /// a block of small entries is dropped by `from_dense` above its size.
    #[test]
    fn nan_blocks_are_kept_by_every_import() {
        let (layout, _) = cases().remove(0);
        let (indices, flux) = (layout.indices().to_vec(), layout.flux());
        let mut v = BondVector::zeros(&layout);
        let fills: [&dyn Fn(usize) -> f64; 3] = [
            &|_| f64::NAN,
            &|i| if i == 0 { f64::NAN } else { 1e-3 },
            &|_| 1e-3,
        ];
        for (b, fill) in fills.iter().enumerate() {
            for (i, x) in v.data_mut()[layout.range(b)].iter_mut().enumerate() {
                *x = fill(i);
            }
        }
        let kept = |t: &BlockSparseTensor| -> Vec<usize> {
            t.blocks().map(|(k, _)| layout.find(k).unwrap()).collect()
        };
        let blocks = v.to_blocks();
        assert_eq!(kept(&blocks), [0, 1, 2]);
        let sp = blocks.to_flat_sparse();
        let reblocked = BlockSparseTensor::from_flat_sparse(indices.clone(), flux, &sp).unwrap();
        assert_eq!(kept(&reblocked), [0, 1, 2]);
        let dense = blocks.to_dense();
        for (tol, want) in [(0.0, &[0, 1, 2][..]), (1e-2, &[0, 1][..])] {
            let t = BlockSparseTensor::from_dense(indices.clone(), flux, &dense, tol).unwrap();
            assert_eq!(kept(&t), want, "tol {tol}");
            assert!(t.blocks().next().unwrap().1.data()[0].is_nan());
        }
    }

    #[test]
    fn entries_outside_the_layout_are_rejected() {
        let (layout, t) = cases().remove(0);
        let mut d = t.to_dense();
        let mask = BlockSparseTensor::flat_mask(t.indices(), t.flux());
        let hole = (0..d.len() as u64).find(|o| !mask.contains(o)).unwrap();
        d.data_mut()[hole as usize] = 1.0;
        let sp = SparseTensor::from_dense(&d, 0.0);
        let mut v = BondVector::zeros(&layout);
        let err = layout.flat_runs().scatter_sparse(&sp, v.data_mut());
        assert!(matches!(err, Err(Error::Symmetry(_))), "{err:?}");
    }

    #[test]
    fn slice_arithmetic_matches_block_arithmetic() {
        for (layout, t) in cases() {
            let mut rng = StdRng::seed_from_u64(9);
            let u = BondVector::random(&layout, &mut rng);
            let v = BondVector::from_blocks(&layout, &t).unwrap();
            let ub = u.to_blocks();
            // the same sums in the same order: the same bits
            assert_eq!(u.dot(&v).to_bits(), ub.dot(&t).unwrap().to_bits());
            assert_eq!(u.norm().to_bits(), ub.norm().to_bits());
            let mut w = u.clone();
            w.axpy(-0.5, &v);
            w.scale_mut(2.0);
            let mut wb = ub;
            wb.axpy(-0.5, &t).unwrap();
            wb.scale_mut(2.0);
            assert!(w.to_blocks().to_dense().allclose(&wb.to_dense(), 1e-14));
        }
    }
}
