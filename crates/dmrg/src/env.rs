//! Left and right environment tensors.
//!
//! As in Section II-C of the paper, the projected eigenproblem at sites
//! `(j, j+1)` is represented by a left environment `A` (everything left of
//! `j`), the two MPO site tensors, and a right environment `B` (everything
//! right of `j+1`); both environments are order-3 tensors of size `m²k`.
//! Environments extend site by site as the sweep moves, each extension the
//! paper's three-contraction chain — the old environment, the MPO tensor
//! and the bra each contracted with the previous result, the ket first —
//! run as one [`contract_chain`] of the chosen block-sparsity algorithm:
//! the two intermediates stay resident chain outputs in the kernel's
//! format (dense, or a sparse-sparse step's mask slots) and only the new
//! environment is re-blocked. The three
//! `contract` calls it replaces are its bitwise reference in the tests.

use crate::{Error, Result};
use tt_blocks::contract::contract_chain;
use tt_blocks::{Algorithm, Arrow, BlockSparseTensor, QnIndex, QN};
use tt_dist::Executor;
use tt_mps::{Mpo, Mps};
use tt_tensor::DenseTensor;

/// Left edge environment: unit bonds, indices
/// `(bra-bond In, mpo-bond Out, ket-bond Out)`.
pub fn left_edge(mps: &Mps, mpo: &Mpo) -> Result<BlockSparseTensor> {
    let ket_il = mps.tensor(0).indices()[0].clone(); // In
    let mpo_kl = mpo.tensor(0).indices()[0].clone(); // In
    let arity = ket_il.qn(0).n_charges();
    // bra il = dual of ket il (Out after conj) → edge index In with the
    // same sectors
    let b = QnIndex::new(Arrow::In, ket_il.sectors().to_vec());
    let k = QnIndex::new(Arrow::Out, mpo_kl.sectors().to_vec());
    let c = QnIndex::new(Arrow::Out, ket_il.sectors().to_vec());
    let mut e = BlockSparseTensor::new(vec![b, k, c], QN::zero(arity));
    let mut block = DenseTensor::zeros([1, 1, 1]);
    block.set(&[0, 0, 0], 1.0);
    e.insert_block(vec![0, 0, 0], block)?;
    Ok(e)
}

/// Right edge environment: indices
/// `(bra-bond Out, mpo-bond In, ket-bond In)`; the bra/ket boundary bonds
/// carry the state's total charge.
pub fn right_edge(mps: &Mps, mpo: &Mpo) -> Result<BlockSparseTensor> {
    let n = mps.n_sites();
    let ket_ir = mps.tensor(n - 1).indices()[2].clone(); // Out
    let mpo_kr = mpo.tensor(n - 1).indices()[3].clone(); // Out
    let arity = ket_ir.qn(0).n_charges();
    let b = QnIndex::new(Arrow::Out, ket_ir.sectors().to_vec());
    let k = QnIndex::new(Arrow::In, mpo_kr.sectors().to_vec());
    let c = QnIndex::new(Arrow::In, ket_ir.sectors().to_vec());
    let mut e = BlockSparseTensor::new(vec![b, k, c], QN::zero(arity));
    let mut block = DenseTensor::zeros([1, 1, 1]);
    block.set(&[0, 0, 0], 1.0);
    e.insert_block(vec![0, 0, 0], block)?;
    Ok(e)
}

/// The chain of a left extension, in step order, each step's structural
/// operand first: `t1(b,k,q,f) = L(b,k,c) · ket(c,q,f)`,
/// `t2(b,p,f,g) = W(k,p,q,g) · t1`, `L'(h,g,f) = bra(b,p,h) · t2`.
pub(crate) const EXTEND_LEFT: [&str; 3] = ["bkc,cqf->bkqf", "kpqg,bkqf->bpfg", "bph,bpfg->hgf"];

/// The chain of a right extension: `t1(b,k,c,q) = R(b,k,f) · ket(c,q,f)`,
/// `t2(b,p,g,c) = W(g,p,q,k) · t1`, `R'(h,g,c) = bra(h,p,b) · t2`.
pub(crate) const EXTEND_RIGHT: [&str; 3] = ["bkf,cqf->bkcq", "gpqk,bkcq->bpgc", "hpb,bpgc->hgc"];

/// Extend a left environment over site `j`:
/// `L' = L ∘ ket_j ∘ W_j ∘ bra_j` (indices `(In, Out, Out)` preserved).
pub fn extend_left(
    exec: &Executor,
    algo: Algorithm,
    l: &BlockSparseTensor,
    ket: &BlockSparseTensor,
    w: &BlockSparseTensor,
) -> Result<BlockSparseTensor> {
    extend(exec, algo, &EXTEND_LEFT, l, ket, w)
}

/// Extend a right environment over site `j`:
/// `R' = R ∘ ket_j ∘ W_j ∘ bra_j` (indices `(Out, In, In)` preserved).
pub fn extend_right(
    exec: &Executor,
    algo: Algorithm,
    r: &BlockSparseTensor,
    ket: &BlockSparseTensor,
    w: &BlockSparseTensor,
) -> Result<BlockSparseTensor> {
    extend(exec, algo, &EXTEND_RIGHT, r, ket, w)
}

/// `env`, `w` and the bra, in that order, each contracted with the
/// previous result — the ket first — as one chain.
fn extend(
    exec: &Executor,
    algo: Algorithm,
    specs: &[&str; 3],
    env: &BlockSparseTensor,
    ket: &BlockSparseTensor,
    w: &BlockSparseTensor,
) -> Result<BlockSparseTensor> {
    let bra = ket.conj();
    let steps = [(specs[0], env), (specs[1], w), (specs[2], &bra)];
    Ok(contract_chain(exec, algo, &steps, ket)?)
}

/// Environment cache for a sweep: `left[j]` absorbs sites `< j`,
/// `right[j]` absorbs sites `> j`.
pub struct Environments {
    /// Left environments, indexed by site.
    pub left: Vec<Option<BlockSparseTensor>>,
    /// Right environments, indexed by site.
    pub right: Vec<Option<BlockSparseTensor>>,
}

impl Environments {
    /// Initialize for a two-site sweep starting at sites `(0, 1)`: builds
    /// `left[0]` and all `right[j]` for `j ≥ 1`.
    pub fn initialize(exec: &Executor, algo: Algorithm, mps: &Mps, mpo: &Mpo) -> Result<Self> {
        let n = mps.n_sites();
        if mpo.n_sites() != n {
            return Err(Error::Env(format!(
                "MPO has {} sites but MPS has {n}",
                mpo.n_sites()
            )));
        }
        let mut left: Vec<Option<BlockSparseTensor>> = vec![None; n];
        let mut right: Vec<Option<BlockSparseTensor>> = vec![None; n];
        left[0] = Some(left_edge(mps, mpo)?);
        let mut r = right_edge(mps, mpo)?;
        right[n - 1] = Some(r.clone());
        for j in (2..n).rev() {
            r = extend_right(exec, algo, &r, mps.tensor(j), mpo.tensor(j))?;
            right[j - 1] = Some(r.clone());
        }
        Ok(Self { left, right })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_mps::{heisenberg_j1j2, neel_state, Lattice, SpinHalf};

    fn setup(n: usize) -> (Mps, Mpo) {
        let lat = Lattice::chain(n);
        let mpo = heisenberg_j1j2(&lat, 1.0, 0.0).build().unwrap();
        let mps = Mps::product_state(&SpinHalf, &neel_state(n)).unwrap();
        (mps, mpo)
    }

    #[test]
    fn edges_have_unit_blocks() {
        let (mps, mpo) = setup(4);
        let l = left_edge(&mps, &mpo).unwrap();
        assert_eq!(l.n_blocks(), 1);
        let r = right_edge(&mps, &mpo).unwrap();
        assert_eq!(r.n_blocks(), 1);
    }

    #[test]
    fn full_left_contraction_gives_energy() {
        // extending L across the whole chain and closing with the right
        // edge reproduces ⟨ψ|H|ψ⟩
        let (mps, mpo) = setup(4);
        let exec = Executor::local();
        let mut l = left_edge(&mps, &mpo).unwrap();
        for j in 0..4 {
            l = extend_left(&exec, Algorithm::List, &l, mps.tensor(j), mpo.tensor(j)).unwrap();
        }
        let r = right_edge(&mps, &mpo).unwrap();
        // close by summing the elementwise product (full contraction to a
        // scalar is outside the einsum grammar, which needs ≥1 output mode)
        let lv = l.to_dense();
        let rv = r.to_dense();
        let mut energy = 0.0;
        for i in 0..lv.dims()[0] {
            for k in 0..lv.dims()[1] {
                for c in 0..lv.dims()[2] {
                    energy += lv.at(&[i, k, c]) * rv.at(&[i, k, c]);
                }
            }
        }
        let expect = mps.expectation(&mpo).unwrap();
        assert!((energy - expect).abs() < 1e-10, "{energy} vs {expect}");
    }

    #[test]
    fn full_right_contraction_matches_left() {
        let (mps, mpo) = setup(5);
        let exec = Executor::local();
        let mut r = right_edge(&mps, &mpo).unwrap();
        for j in (0..5).rev() {
            r = extend_right(&exec, Algorithm::List, &r, mps.tensor(j), mpo.tensor(j)).unwrap();
        }
        let l = left_edge(&mps, &mpo).unwrap();
        let lv = l.to_dense();
        let rv = r.to_dense();
        let mut energy = 0.0;
        for i in 0..lv.dims()[0] {
            for k in 0..lv.dims()[1] {
                for c in 0..lv.dims()[2] {
                    energy += lv.at(&[i, k, c]) * rv.at(&[i, k, c]);
                }
            }
        }
        let expect = mps.expectation(&mpo).unwrap();
        assert!((energy - expect).abs() < 1e-10);
    }

    #[test]
    fn environments_initialize() {
        let (mps, mpo) = setup(6);
        let exec = Executor::local();
        let envs = Environments::initialize(&exec, Algorithm::List, &mps, &mpo).unwrap();
        assert!(envs.left[0].is_some());
        for j in 1..6 {
            assert!(envs.right[j].is_some(), "right[{j}]");
        }
        // env sizes: m² k with m=1 ⇒ dims (1, k, 1)
        // right[1] absorbs sites > 1, so its MPO index is the bond between
        // sites 1 and 2
        let r1 = envs.right[1].as_ref().unwrap();
        assert_eq!(r1.indices()[0].dim(), 1);
        assert_eq!(r1.indices()[1].dim(), mpo.tensor(1).indices()[3].dim());
    }

    #[test]
    fn algorithms_agree_on_extension() {
        let (mps, mpo) = setup(4);
        let exec = Executor::local();
        let l = left_edge(&mps, &mpo).unwrap();
        let l_list = extend_left(&exec, Algorithm::List, &l, mps.tensor(0), mpo.tensor(0)).unwrap();
        let l_sd = extend_left(
            &exec,
            Algorithm::SparseDense,
            &l,
            mps.tensor(0),
            mpo.tensor(0),
        )
        .unwrap();
        let l_ss = extend_left(
            &exec,
            Algorithm::SparseSparse,
            &l,
            mps.tensor(0),
            mpo.tensor(0),
        )
        .unwrap();
        assert!(l_sd.to_dense().allclose(&l_list.to_dense(), 1e-11));
        assert!(l_ss.to_dense().allclose(&l_list.to_dense(), 1e-11));
    }
}
