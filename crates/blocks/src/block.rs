//! Block-sparse symmetric tensors.
//!
//! A [`BlockSparseTensor`] is described — exactly as in Section II-D of the
//! paper — by a list of quantum-number label tuples, each naming an
//! independent dense block `T_q ∈ R^{d₁×…×d_r}`. A block with sector choice
//! `(s₁,…,s_r)` is *allowed* when the signed charges balance the tensor's
//! flux: `Σ_i arrow_i · q(s_i) == flux`. Memory drops from `Π d_i` to
//! `Σ_blocks Π d_i^ℓ` and contractions run block-by-block (list algorithm)
//! or on the flattened sparse form (sparse-dense / sparse-sparse).
//!
//! The flattened index space belongs to [`crate::layout`]. Every import
//! into block form — [`BlockSparseTensor::from_dense`],
//! [`BlockSparseTensor::from_flat_sparse`],
//! [`BlockSparseTensor::flat_mask`] and [`BlockSparseTensor::random`] — is
//! a read of one [`BondLayout`]: gather or scatter along its runs, then one
//! [`BondVector`] → blocks step that keeps a block when some entry is not
//! `|x| ≤ tol`. Only the two exports walk the stored blocks themselves:
//! [`BlockSparseTensor::to_dense`] and [`BlockSparseTensor::to_flat_sparse`].

use crate::index::QnIndex;
use crate::layout::{BondLayout, BondVector, FlatLayout, FlatRuns};
use crate::qn::{signed, QN};
use crate::{Error, Result};
use rand::Rng;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use tt_tensor::{DenseTensor, SparseTensor};

#[cfg(test)]
thread_local! {
    /// Calls of [`BlockSparseTensor::allowed_keys`] on this thread: how
    /// often a path searches the allowed keys, for the tests that pin it.
    pub(crate) static ALLOWED_KEYS_CALLS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Sector choice per index, identifying one block.
pub type BlockKey = Vec<u16>;

/// A quantum-number block-sparse tensor over `f64`.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockSparseTensor {
    indices: Vec<QnIndex>,
    flux: QN,
    /// Deterministically ordered block storage. Blocks are `Arc`-shared so
    /// cloning a tensor, uploading a block onto an executor
    /// (`Executor::upload_shared`) or enqueueing it into a chain step
    /// shares the allocation instead of copying the data; mutation goes
    /// through `Arc::make_mut` (copy-on-write when genuinely shared).
    pub(crate) blocks: BTreeMap<BlockKey, Arc<DenseTensor<f64>>>,
}

impl BlockSparseTensor {
    /// Empty tensor with the given graded indices and flux.
    pub fn new(indices: Vec<QnIndex>, flux: QN) -> Self {
        assert!(!indices.is_empty(), "need at least one index");
        let arity = indices[0].arity();
        assert!(
            indices.iter().all(|i| i.arity() == arity) && flux.n_charges() == arity,
            "mixed QN arities"
        );
        Self {
            indices,
            flux,
            blocks: BTreeMap::new(),
        }
    }

    /// The graded indices.
    pub fn indices(&self) -> &[QnIndex] {
        &self.indices
    }

    /// Tensor order.
    pub fn order(&self) -> usize {
        self.indices.len()
    }

    /// Dense dimensions (sum of sector dims per index).
    pub fn dense_dims(&self) -> Vec<usize> {
        self.indices.iter().map(|i| i.dim()).collect()
    }

    /// The tensor's flux.
    pub fn flux(&self) -> QN {
        self.flux
    }

    /// Signed charge residual of a sector combination.
    pub fn residual(&self, key: &[u16]) -> QN {
        let mut r = QN::zero(self.flux.n_charges());
        for (i, &s) in key.iter().enumerate() {
            r = r.add(signed(
                self.indices[i].qn(s as usize),
                self.indices[i].arrow(),
            ));
        }
        r
    }

    /// True when the sector combination conserves the flux.
    pub fn is_allowed(&self, key: &[u16]) -> bool {
        self.residual(key) == self.flux
    }

    /// Enumerate all allowed sector combinations (suffix-DP pruned).
    pub fn allowed_keys(&self) -> Vec<BlockKey> {
        #[cfg(test)]
        ALLOWED_KEYS_CALLS.with(|c| c.set(c.get() + 1));
        let n = self.order();
        // suffix_possible[i] = set of achievable Σ_{j≥i} signed charges
        let arity = self.flux.n_charges();
        let mut suffix: Vec<HashSet<QN>> = vec![HashSet::new(); n + 1];
        suffix[n].insert(QN::zero(arity));
        for i in (0..n).rev() {
            let mut set = HashSet::new();
            for s in 0..self.indices[i].n_sectors() {
                let q = signed(self.indices[i].qn(s), self.indices[i].arrow());
                for &rest in &suffix[i + 1] {
                    set.insert(q.add(rest));
                }
            }
            suffix[i] = set;
        }
        let mut out = Vec::new();
        let mut key = vec![0u16; n];
        self.enumerate_rec(0, QN::zero(arity), &suffix, &mut key, &mut out);
        out
    }

    fn enumerate_rec(
        &self,
        pos: usize,
        partial: QN,
        suffix: &[HashSet<QN>],
        key: &mut BlockKey,
        out: &mut Vec<BlockKey>,
    ) {
        if pos == self.order() {
            if partial == self.flux {
                out.push(key.clone());
            }
            return;
        }
        for s in 0..self.indices[pos].n_sectors() {
            let q = signed(self.indices[pos].qn(s), self.indices[pos].arrow());
            let np = partial.add(q);
            // prune: remaining must be achievable by the suffix
            if !suffix[pos + 1].contains(&self.flux.sub(np)) {
                continue;
            }
            key[pos] = s as u16;
            self.enumerate_rec(pos + 1, np, suffix, key, out);
        }
    }

    /// Dimensions of the block at `key`.
    pub fn block_dims(&self, key: &[u16]) -> Vec<usize> {
        key.iter()
            .enumerate()
            .map(|(i, &s)| self.indices[i].sector_dim(s as usize))
            .collect()
    }

    /// Insert (or overwrite) a block. The key must be allowed and the
    /// tensor shape must match the sector dims.
    pub fn insert_block(&mut self, key: BlockKey, t: DenseTensor<f64>) -> Result<()> {
        if key.len() != self.order() {
            return Err(Error::Key(format!(
                "key order {} != tensor order {}",
                key.len(),
                self.order()
            )));
        }
        if !self.is_allowed(&key) {
            return Err(Error::Symmetry(format!(
                "block {key:?} violates flux {}",
                self.flux
            )));
        }
        let want = self.block_dims(&key);
        if t.dims() != want {
            return Err(Error::Key(format!(
                "block {key:?} dims {:?} != sector dims {want:?}",
                t.dims()
            )));
        }
        self.blocks.insert(key, Arc::new(t));
        Ok(())
    }

    /// The block at `key`, if stored.
    pub fn block(&self, key: &[u16]) -> Option<&DenseTensor<f64>> {
        self.blocks.get(key).map(|b| b.as_ref())
    }

    /// Iterate stored blocks in deterministic key order.
    pub fn blocks(&self) -> impl Iterator<Item = (&BlockKey, &DenseTensor<f64>)> {
        self.blocks.iter().map(|(k, b)| (k, b.as_ref()))
    }

    /// Iterate shared (`Arc`) blocks in deterministic key order.
    pub fn blocks_shared(&self) -> impl Iterator<Item = (&BlockKey, &Arc<DenseTensor<f64>>)> {
        self.blocks.iter()
    }

    /// Number of stored blocks.
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Fill every allowed block with uniform random entries, drawn in
    /// key order: [`BondVector::random`] of the structure's layout.
    pub fn random(indices: Vec<QnIndex>, flux: QN, rng: &mut (impl Rng + ?Sized)) -> Self {
        let layout = Arc::new(BondLayout::new(&indices, flux));
        BondVector::random(&layout, rng).to_blocks_above(f64::NEG_INFINITY)
    }

    /// Embed into a dense tensor (blocks at their sector offsets).
    pub fn to_dense(&self) -> DenseTensor<f64> {
        let mut layout = FlatLayout::new(&self.indices);
        let mut out = DenseTensor::zeros(self.dense_dims());
        let data = out.data_mut();
        for (key, block) in &self.blocks {
            let src = block.data();
            layout.for_each_run(key, |start, local, len| {
                data[start..start + len].copy_from_slice(&src[local..local + len]);
            });
        }
        out
    }

    /// Extract the allowed blocks of a dense tensor; a block is kept when
    /// some entry is not `|x| ≤ tol` (so a NaN always keeps its block).
    pub fn from_dense(
        indices: Vec<QnIndex>,
        flux: QN,
        dense: &DenseTensor<f64>,
        tol: f64,
    ) -> Result<Self> {
        let layout = Arc::new(BondLayout::new(&indices, flux));
        let runs = layout.flat_runs();
        runs.check_dims("dense", dense.dims())?;
        let mut v = BondVector::zeros(&layout);
        runs.gather_dense(dense.data(), v.data_mut());
        Ok(v.to_blocks_above(tol))
    }

    /// Flatten into a single sparse tensor over the dense index space
    /// (the storage format of the sparse-dense / sparse-sparse algorithms).
    /// Stored zeros are not emitted. The stored blocks, laid end to end,
    /// are gathered along their own runs.
    pub fn to_flat_sparse(&self) -> SparseTensor<f64> {
        let (mut starts, mut data) = (Vec::new(), Vec::with_capacity(self.stored_elements()));
        for block in self.blocks.values() {
            starts.push(data.len());
            data.extend_from_slice(block.data());
        }
        FlatRuns::new(&self.indices, self.blocks.keys(), &starts).gather_sparse(&data)
    }

    /// All dense offsets allowed by symmetry, **ascending** — the output
    /// sparsity the mask classes of a sparse-sparse contraction stand for.
    pub fn flat_mask(indices: &[QnIndex], flux: QN) -> Vec<u64> {
        BondLayout::new(indices, flux).flat_runs().offsets()
    }

    /// Rebuild block form from a flattened sparse tensor. Entries in
    /// symmetry-forbidden positions are rejected; stored zeros are skipped
    /// wherever they sit, and a block is kept when it holds a nonzero.
    pub fn from_flat_sparse(
        indices: Vec<QnIndex>,
        flux: QN,
        sp: &SparseTensor<f64>,
    ) -> Result<Self> {
        let layout = Arc::new(BondLayout::new(&indices, flux));
        let mut v = BondVector::zeros(&layout);
        layout.flat_runs().scatter_sparse(sp, v.data_mut())?;
        Ok(v.to_blocks())
    }

    /// Permute the tensor modes.
    pub fn permute(&self, perm: &[usize]) -> Result<Self> {
        if !tt_tensor::shape::is_permutation(perm, self.order()) {
            return Err(Error::Key(format!("bad permutation {perm:?}")));
        }
        let indices: Vec<QnIndex> = perm.iter().map(|&p| self.indices[p].clone()).collect();
        let mut out = Self::new(indices, self.flux);
        for (key, block) in &self.blocks {
            let nk: BlockKey = perm.iter().map(|&p| key[p]).collect();
            let nb = block.permute(perm)?;
            out.blocks.insert(nk, Arc::new(nb));
        }
        Ok(out)
    }

    /// Complex conjugate / dagger: flips all arrows and negates the flux
    /// (values unchanged for real tensors).
    pub fn conj(&self) -> Self {
        let indices: Vec<QnIndex> = self.indices.iter().map(|i| i.dual()).collect();
        let mut out = Self::new(indices, self.flux.neg());
        out.blocks = self.blocks.clone();
        out
    }

    /// In-place scale.
    pub fn scale_mut(&mut self, s: f64) {
        for b in self.blocks.values_mut() {
            Arc::make_mut(b).scale_mut(s);
        }
    }

    /// `self += alpha · other` (same indices and flux; union of blocks).
    pub fn axpy(&mut self, alpha: f64, other: &Self) -> Result<()> {
        if self.indices != other.indices || self.flux != other.flux {
            return Err(Error::Symmetry("axpy between incompatible tensors".into()));
        }
        for (key, ob) in &other.blocks {
            match self.blocks.get_mut(key) {
                Some(b) => Arc::make_mut(b).axpy(alpha, ob)?,
                None => {
                    self.blocks.insert(key.clone(), Arc::new(ob.scaled(alpha)));
                }
            }
        }
        Ok(())
    }

    /// Conjugated inner product.
    pub fn dot(&self, other: &Self) -> Result<f64> {
        if self.indices != other.indices {
            return Err(Error::Symmetry("dot between incompatible tensors".into()));
        }
        let mut acc = 0.0;
        for (key, b) in &self.blocks {
            if let Some(ob) = other.blocks.get(key) {
                acc += b.dot(ob)?;
            }
        }
        Ok(acc)
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.blocks.values().map(|b| b.norm2()).sum::<f64>().sqrt()
    }

    /// Stored elements (sum of block volumes).
    pub fn stored_elements(&self) -> usize {
        self.blocks.values().map(|b| b.len()).sum()
    }

    /// Fraction of the dense volume that is stored — Fig. 2b's "sparsity".
    pub fn fill_fraction(&self) -> f64 {
        let dense: usize = self.dense_dims().iter().product();
        if dense == 0 {
            0.0
        } else {
            self.stored_elements() as f64 / dense as f64
        }
    }

    /// Largest single mode extent over stored blocks — Fig. 2a's
    /// "size of largest block".
    pub fn largest_block_dim(&self) -> usize {
        self.blocks
            .keys()
            .map(|k| {
                k.iter()
                    .enumerate()
                    .map(|(i, &s)| self.indices[i].sector_dim(s as usize))
                    .max()
                    .unwrap_or(0)
            })
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qn::Arrow;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spin_site(arrow: Arrow) -> QnIndex {
        QnIndex::new(arrow, vec![(QN::one(1), 1), (QN::one(-1), 1)])
    }

    fn bond(arrow: Arrow, dims: &[(i32, usize)]) -> QnIndex {
        QnIndex::new(arrow, dims.iter().map(|&(q, d)| (QN::one(q), d)).collect())
    }

    fn mps_like() -> BlockSparseTensor {
        // T(il In, σ In, ir Out), flux 0
        let il = bond(Arrow::In, &[(-1, 2), (1, 3)]);
        let s = spin_site(Arrow::In);
        let ir = bond(Arrow::Out, &[(-2, 1), (0, 4), (2, 2)]);
        let mut rng = StdRng::seed_from_u64(91);
        BlockSparseTensor::random(vec![il, s, ir], QN::zero(1), &mut rng)
    }

    #[test]
    fn allowed_keys_conserve_flux() {
        let t = mps_like();
        let keys = t.allowed_keys();
        assert!(!keys.is_empty());
        for k in &keys {
            assert!(t.is_allowed(k));
        }
        // count: (il,σ) -> total in-charge ∈ {-2,0,0,2}; matching ir sectors:
        // il=-1,σ=-1 → need ir=-2 ✓; il=-1,σ=+1 → ir=0 ✓; il=+1,σ=-1 → ir=0 ✓;
        // il=+1,σ=+1 → ir=+2 ✓ ⇒ 4 allowed keys
        assert_eq!(keys.len(), 4);
    }

    #[test]
    fn random_fills_all_allowed() {
        let t = mps_like();
        assert_eq!(t.n_blocks(), 4);
        assert_eq!(t.stored_elements(), 2 + 2 * 4 + 3 * 4 + 3 * 2);
    }

    #[test]
    fn dense_roundtrip() {
        let t = mps_like();
        let d = t.to_dense();
        assert_eq!(d.dims(), &[5, 2, 7]);
        let back = BlockSparseTensor::from_dense(t.indices().to_vec(), t.flux(), &d, 0.0).unwrap();
        assert!(back.to_dense().allclose(&d, 0.0));
        assert_eq!(back.n_blocks(), t.n_blocks());
    }

    #[test]
    fn flat_sparse_roundtrip() {
        let t = mps_like();
        let sp = t.to_flat_sparse();
        assert_eq!(sp.nnz(), t.stored_elements());
        let back =
            BlockSparseTensor::from_flat_sparse(t.indices().to_vec(), t.flux(), &sp).unwrap();
        assert!(back.to_dense().allclose(&t.to_dense(), 0.0));
    }

    #[test]
    fn flat_mask_covers_blocks() {
        let t = mps_like();
        let mask = BlockSparseTensor::flat_mask(t.indices(), t.flux());
        assert_eq!(mask.len(), t.stored_elements());
        let sp = t.to_flat_sparse();
        let mask_set: std::collections::HashSet<u64> = mask.into_iter().collect();
        for (off, _) in sp.entries() {
            assert!(mask_set.contains(&off));
        }
    }

    #[test]
    fn forbidden_insert_rejected() {
        let mut t = BlockSparseTensor::new(
            vec![spin_site(Arrow::In), spin_site(Arrow::Out)],
            QN::zero(1),
        );
        // key (0,0): -1 in, +1 out ⇒ residual = +1 - (+1) = 0 ✓ allowed
        assert!(t
            .insert_block(vec![0, 0], DenseTensor::zeros([1, 1]))
            .is_ok());
        // key (0,1): residual = -1 - (+1)·(-1)?? — In(+1) gives -1, Out(-1)
        // gives -1 ⇒ -2 ≠ 0 forbidden
        assert!(t
            .insert_block(vec![0, 1], DenseTensor::zeros([1, 1]))
            .is_err());
        // wrong dims
        assert!(t
            .insert_block(vec![0, 0], DenseTensor::zeros([2, 1]))
            .is_err());
    }

    #[test]
    fn sparsity_less_than_one() {
        let t = mps_like();
        let f = t.fill_fraction();
        assert!(f > 0.0 && f < 1.0);
        assert_eq!(t.largest_block_dim(), 4);
    }

    #[test]
    fn permute_consistent_with_dense() {
        let t = mps_like();
        let p = t.permute(&[2, 0, 1]).unwrap();
        assert!(p
            .to_dense()
            .allclose(&t.to_dense().permute(&[2, 0, 1]).unwrap(), 0.0));
        assert!(p.is_allowed(&p.allowed_keys()[0]));
    }

    #[test]
    fn conj_flips_arrows_and_flux() {
        let il = bond(Arrow::In, &[(0, 1), (2, 2)]);
        let ir = bond(Arrow::Out, &[(1, 1), (3, 2)]);
        let mut rng = StdRng::seed_from_u64(92);
        let t = BlockSparseTensor::random(vec![il, ir], QN::one(1), &mut rng);
        let c = t.conj();
        assert_eq!(c.flux(), QN::one(-1));
        assert_eq!(c.indices()[0].arrow(), Arrow::Out);
        assert!(c.to_dense().allclose(&t.to_dense(), 0.0));
    }

    #[test]
    fn axpy_dot_norm() {
        let t = mps_like();
        let mut u = t.clone();
        u.axpy(1.0, &t).unwrap();
        assert!(u.to_dense().allclose(&t.to_dense().scaled(2.0), 1e-14));
        let d = t.dot(&t).unwrap();
        assert!((d - t.norm() * t.norm()).abs() < 1e-10);
        let mut z = t.clone();
        z.axpy(-1.0, &t).unwrap();
        assert!(z.norm() < 1e-14);
    }
}
