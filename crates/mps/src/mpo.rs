//! Matrix product operators.
//!
//! Site tensors carry indices `(k_left In, σ' In, σ Out, k_right Out)` with
//! flux 0. The bond dimension `k` is what the paper compresses: "each
//! order-4 tensor of H is truncated via SVD to a 1e-13 cutoff, resulting in
//! an MPO with a bond dimension k = 26" for the triangular Hubbard system.

use crate::autompo::ExpandedTerm;
use crate::sites::SiteType;
use crate::{Error, Result};
use tt_blocks::{block_svd, scale_bond, BlockSparseTensor};
use tt_dist::Executor;
use tt_linalg::TruncSpec;
use tt_tensor::DenseTensor;

/// A matrix product operator over block-sparse site tensors.
#[derive(Debug, Clone)]
pub struct Mpo {
    tensors: Vec<BlockSparseTensor>,
}

impl Mpo {
    /// Build from site tensors, validating bond compatibility.
    pub fn from_tensors(tensors: Vec<BlockSparseTensor>) -> Result<Self> {
        if tensors.is_empty() {
            return Err(Error::Term("empty MPO".into()));
        }
        for t in &tensors {
            if t.order() != 4 {
                return Err(Error::Term(format!(
                    "MPO site tensors must be order 4, got {}",
                    t.order()
                )));
            }
        }
        for w in tensors.windows(2) {
            if !w[0].indices()[3].contractable_with(&w[1].indices()[0]) {
                return Err(Error::Term("MPO bond indices incompatible".into()));
            }
        }
        if tensors[0].indices()[0].dim() != 1
            || tensors.last().expect("non-empty").indices()[3].dim() != 1
        {
            return Err(Error::Term("MPO boundary bonds must have dim 1".into()));
        }
        Ok(Self { tensors })
    }

    /// Number of sites.
    pub fn n_sites(&self) -> usize {
        self.tensors.len()
    }

    /// Site tensor `j`.
    pub fn tensor(&self, j: usize) -> &BlockSparseTensor {
        &self.tensors[j]
    }

    /// All site tensors.
    pub fn tensors(&self) -> &[BlockSparseTensor] {
        &self.tensors
    }

    /// Replace site tensor `j`.
    pub fn set_tensor(&mut self, j: usize, t: BlockSparseTensor) {
        self.tensors[j] = t;
    }

    /// Bond dimensions (length `n_sites + 1`, boundaries included).
    pub fn bond_dims(&self) -> Vec<usize> {
        let mut out = vec![self.tensors[0].indices()[0].dim()];
        for t in &self.tensors {
            out.push(t.indices()[3].dim());
        }
        out
    }

    /// Maximum bond dimension `k`.
    pub fn max_bond_dim(&self) -> usize {
        self.bond_dims().into_iter().max().unwrap_or(0)
    }

    /// Materialize the full `d^n × d^n` operator matrix (small `n` only;
    /// used by validation tests).
    pub fn to_dense_matrix(&self) -> Result<DenseTensor<f64>> {
        let n = self.n_sites();
        let d = self.tensors[0].indices()[1].dim();
        // acc[out, in, k]
        let w0 = self.tensors[0].to_dense(); // [1, d, d, k]
        let k0 = w0.dims()[3];
        let mut acc = w0.reshape([d, d, k0])?;
        for j in 1..n {
            let wj = self.tensors[j].to_dense(); // [k, d, d, k2]
                                                 // acc[o,i,k] ⋅ wj[k,a,b,r] -> [o,a,i,b,r]
            let next = tt_tensor::einsum("oik,kabr->oaibr", &acc, &wj)?;
            let o = acc.dims()[0] * d;
            let i = acc.dims()[1] * d;
            let r = wj.dims()[3];
            acc = next.reshape([o, i, r])?;
        }
        let dn = acc.dims()[0];
        Ok(acc.reshape([dn, dn])?)
    }

    /// Operator sum `self + other` via direct-sum bonds (block-diagonal
    /// bulk tensors, concatenated boundaries). Compose Hamiltonians as
    /// `H = H₀ + λV` and recompress with [`Mpo::compress`].
    pub fn add(&self, other: &Mpo) -> Result<Mpo> {
        let n = self.n_sites();
        if other.n_sites() != n {
            return Err(Error::Term("sum of different sizes".into()));
        }
        use tt_blocks::{BlockSparseTensor, QnIndex};
        let mut tensors = Vec::with_capacity(n);
        for j in 0..n {
            let a = &self.tensors[j];
            let b = &other.tensors[j];
            let share_left = j == 0;
            let share_right = j == n - 1;
            if (share_left && a.indices()[0] != b.indices()[0])
                || (share_right && a.indices()[3] != b.indices()[3])
            {
                return Err(Error::Term("boundary indices differ".into()));
            }
            if a.indices()[1] != b.indices()[1] || a.indices()[2] != b.indices()[2] {
                return Err(Error::Term("physical indices differ".into()));
            }
            let concat = |ia: &QnIndex, ib: &QnIndex| -> QnIndex {
                let mut sectors = ia.sectors().to_vec();
                sectors.extend_from_slice(ib.sectors());
                QnIndex::new(ia.arrow(), sectors)
            };
            let left = if share_left {
                a.indices()[0].clone()
            } else {
                concat(&a.indices()[0], &b.indices()[0])
            };
            let right = if share_right {
                a.indices()[3].clone()
            } else {
                concat(&a.indices()[3], &b.indices()[3])
            };
            let mut t = BlockSparseTensor::new(
                vec![left, a.indices()[1].clone(), a.indices()[2].clone(), right],
                a.flux(),
            );
            let l_shift = if share_left {
                0u16
            } else {
                a.indices()[0].n_sectors() as u16
            };
            let r_shift = if share_right {
                0u16
            } else {
                a.indices()[3].n_sectors() as u16
            };
            for (key, block) in a.blocks() {
                t.insert_block(key.clone(), block.clone())?;
            }
            for (key, block) in b.blocks() {
                let nk = vec![key[0] + l_shift, key[1], key[2], key[3] + r_shift];
                if let Some(existing) = t.block(&nk) {
                    let mut acc = existing.clone();
                    acc.axpy(1.0, block)?;
                    t.insert_block(nk, acc)?;
                } else {
                    t.insert_block(nk, block.clone())?;
                }
            }
            tensors.push(t);
        }
        Mpo::from_tensors(tensors)
    }

    /// Scale the operator by a constant.
    pub fn scale(&mut self, c: f64) {
        if let Some(t) = self.tensors.first_mut() {
            t.scale_mut(c);
        }
    }

    /// SVD-compress the MPO with an absolute singular-value cutoff
    /// (left→right then right→left sweep). Returns the new max bond
    /// dimension.
    pub fn compress(&mut self, exec: &Executor, cutoff: f64) -> Result<usize> {
        let n = self.n_sites();
        let spec = TruncSpec {
            max_rank: usize::MAX,
            cutoff,
            min_keep: 1,
        };
        // left → right: t_j = U, push S·Vt into t_{j+1}
        for j in 0..n - 1 {
            let svd = block_svd(exec, &self.tensors[j], &[0, 1, 2], &[3], spec)?;
            let mut svt = svd.vt;
            scale_bond(&mut svt, 0, &svd.s, false)?;
            let merged = tt_blocks::contract::contract_list(
                exec,
                "xk,kabr->xabr",
                &svt,
                &self.tensors[j + 1],
            )?;
            self.tensors[j] = svd.u;
            self.tensors[j + 1] = merged;
        }
        // right → left: t_j = Vt, push U·S into t_{j-1}
        for j in (1..n).rev() {
            let svd = block_svd(exec, &self.tensors[j], &[0], &[1, 2, 3], spec)?;
            let mut us = svd.u;
            scale_bond(&mut us, 1, &svd.s, false)?;
            let merged = tt_blocks::contract::contract_list(
                exec,
                "labk,kx->labx",
                &self.tensors[j - 1],
                &us,
            )?;
            self.tensors[j] = svd.vt;
            self.tensors[j - 1] = merged;
        }
        Ok(self.max_bond_dim())
    }
}

/// Dense `d^n × d^n` Hamiltonian from Jordan-Wigner-expanded terms — the
/// reference construction used to validate AutoMPO output.
pub fn dense_from_terms<S: SiteType>(
    site: &S,
    n: usize,
    terms: &[ExpandedTerm],
) -> DenseTensor<f64> {
    let d = site.d();
    let dn = d.pow(n as u32);
    let id = site.op("Id").expect("Id exists");
    let mut h = DenseTensor::<f64>::zeros([dn, dn]);
    for term in terms {
        // per-site matrices, Id outside the span
        let mut site_mats: Vec<DenseTensor<f64>> = vec![id.clone(); n];
        for (s, m) in &term.factors {
            site_mats[*s] = m.clone();
        }
        // kron product left to right
        let mut acc = site_mats[0].clone();
        for m in &site_mats[1..] {
            acc = kron(&acc, m);
        }
        h.axpy(term.coef, &acc).expect("same dims");
    }
    h
}

/// Kronecker product of two matrices.
pub fn kron(a: &DenseTensor<f64>, b: &DenseTensor<f64>) -> DenseTensor<f64> {
    let (ra, ca) = (a.dims()[0], a.dims()[1]);
    let (rb, cb) = (b.dims()[0], b.dims()[1]);
    DenseTensor::from_fn([ra * rb, ca * cb], |idx| {
        let (i, j) = (idx[0], idx[1]);
        a.at(&[i / rb, j / cb]) * b.at(&[i % rb, j % cb])
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::autompo::AutoMpo;
    use crate::sites::SpinHalf;

    fn heisenberg(n: usize) -> AutoMpo<SpinHalf> {
        let mut b = AutoMpo::new(SpinHalf, n);
        for i in 0..n - 1 {
            b.add(1.0, &[(i, "Sz"), (i + 1, "Sz")]);
            b.add(0.5, &[(i, "S+"), (i + 1, "S-")]);
            b.add(0.5, &[(i, "S-"), (i + 1, "S+")]);
        }
        b
    }

    #[test]
    fn kron_matches_manual() {
        let a = DenseTensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let i = DenseTensor::<f64>::eye(2);
        let k = kron(&a, &i);
        assert_eq!(k.dims(), &[4, 4]);
        assert_eq!(k.at(&[0, 0]), 1.0);
        assert_eq!(k.at(&[1, 1]), 1.0);
        assert_eq!(k.at(&[0, 2]), 2.0);
        assert_eq!(k.at(&[2, 0]), 3.0);
    }

    #[test]
    fn bond_dims_and_boundaries() {
        let mpo = heisenberg(5).build().unwrap();
        let bd = mpo.bond_dims();
        assert_eq!(bd.len(), 6);
        assert_eq!(bd[0], 1);
        assert_eq!(*bd.last().unwrap(), 1);
        assert_eq!(mpo.max_bond_dim(), 5);
    }

    #[test]
    fn compress_preserves_operator() {
        let mpo = heisenberg(5).build().unwrap();
        let before = mpo.to_dense_matrix().unwrap();
        let mut compressed = mpo.clone();
        let exec = Executor::local();
        let k = compressed.compress(&exec, 1e-13).unwrap();
        assert!(k <= 5);
        let after = compressed.to_dense_matrix().unwrap();
        assert!(after.allclose(&before, 1e-8));
    }

    #[test]
    fn compress_reduces_padded_mpo() {
        // adding the same term twice doubles FSM states; compression must
        // recover the canonical k=5
        let n = 5;
        let mut b = AutoMpo::new(SpinHalf, n);
        for _ in 0..2 {
            for i in 0..n - 1 {
                b.add(0.5, &[(i, "Sz"), (i + 1, "Sz")]);
                b.add(0.25, &[(i, "S+"), (i + 1, "S-")]);
                b.add(0.25, &[(i, "S-"), (i + 1, "S+")]);
            }
        }
        let mut mpo = b.build().unwrap();
        // deparallelization inside build already merges duplicates
        assert_eq!(mpo.max_bond_dim(), 5);
        let exec = Executor::local();
        let k = mpo.compress(&exec, 1e-13).unwrap();
        assert!(k <= 5);
    }

    #[test]
    fn mpo_sum_equals_dense_sum() {
        let n = 4;
        let h1 = heisenberg(n).build().unwrap();
        let mut b2 = AutoMpo::new(SpinHalf, n);
        for i in 0..n {
            b2.add(0.3, &[(i, "Sz")]);
        }
        let h2 = b2.build().unwrap();
        let sum = h1.add(&h2).unwrap();
        let expect = h1
            .to_dense_matrix()
            .unwrap()
            .add(&h2.to_dense_matrix().unwrap())
            .unwrap();
        assert!(sum.to_dense_matrix().unwrap().allclose(&expect, 1e-10));
        // bond dims add in the bulk
        assert!(sum.max_bond_dim() <= h1.max_bond_dim() + h2.max_bond_dim());
        // compression shrinks the direct sum back toward canonical size
        let mut c = sum.clone();
        let exec = Executor::local();
        let k = c.compress(&exec, 1e-12).unwrap();
        assert!(k <= h1.max_bond_dim() + h2.max_bond_dim());
        assert!(c.to_dense_matrix().unwrap().allclose(&expect, 1e-8));
    }

    #[test]
    fn mpo_sum_with_itself_doubles() {
        let h = heisenberg(4).build().unwrap();
        let sum = h.add(&h).unwrap();
        let expect = h.to_dense_matrix().unwrap().scaled(2.0);
        assert!(sum.to_dense_matrix().unwrap().allclose(&expect, 1e-10));
    }

    #[test]
    fn mpo_scale() {
        let mut h = heisenberg(3).build().unwrap();
        let before = h.to_dense_matrix().unwrap();
        h.scale(-2.5);
        assert!(h
            .to_dense_matrix()
            .unwrap()
            .allclose(&before.scaled(-2.5), 1e-12));
    }

    #[test]
    fn mpo_sum_size_mismatch_rejected() {
        let h3 = heisenberg(3).build().unwrap();
        let h4 = heisenberg(4).build().unwrap();
        assert!(h3.add(&h4).is_err());
    }

    #[test]
    fn hermitian_dense_matrix() {
        let mpo = heisenberg(4).build().unwrap();
        let h = mpo.to_dense_matrix().unwrap();
        let ht = h.permute(&[1, 0]).unwrap();
        assert!(h.allclose(&ht, 1e-12));
    }
}
