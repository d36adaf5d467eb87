//! The two-site effective Hamiltonian.
//!
//! Fig. 1d of the paper: the projected operator `K` is never formed; each
//! Davidson matrix-vector product applies the left environment, the two
//! MPO site tensors and the right environment to the two-site tensor in a
//! four-contraction chain of overall cost `O(m³kd)`. Every contraction is
//! dispatched through the chosen block-sparsity algorithm, with the
//! structural operand (environment or MPO tensor) first — the operand the
//! *sparse-dense* algorithm keeps sparse while Davidson intermediates stay
//! dense, exactly as Section IV-A prescribes.

use crate::{Error, Result};
use tt_blocks::contract::{chain_apply, contract, free_operand, upload_operand};
use tt_blocks::{Algorithm, BlockSparseTensor, ChainState, ResidentOperand};
use tt_dist::Executor;

/// The implicit two-site effective Hamiltonian `K`.
pub struct EffectiveHam<'a> {
    /// Executor for all contractions.
    pub exec: &'a Executor,
    /// Block-sparsity algorithm.
    pub algo: Algorithm,
    /// Left environment `(b In, k Out, c Out)`.
    pub left: &'a BlockSparseTensor,
    /// MPO tensor of the first site.
    pub w1: &'a BlockSparseTensor,
    /// MPO tensor of the second site.
    pub w2: &'a BlockSparseTensor,
    /// Right environment `(b Out, k In, c In)`.
    pub right: &'a BlockSparseTensor,
}

impl EffectiveHam<'_> {
    /// Apply `K` to a two-site tensor `x(jl In, σ₁ In, σ₂ In, jr Out)`.
    ///
    /// This is the value-passing **reference**, kept on purpose: four
    /// independent [`contract`] calls, every operand shipped, every
    /// intermediate back in block form. A sweep runs
    /// [`ResidentHam::apply`]; the bitwise suites of
    /// `distributed_equivalence`, `fig12_strong_scaling_electrons` and the
    /// CI byte gates measure that path against this one.
    pub fn apply(&self, x: &BlockSparseTensor) -> Result<BlockSparseTensor> {
        // t1(b,k,q,w,f) = L(b,k,c) · x(c,q,w,f)
        let t1 = contract(self.exec, self.algo, "bkc,cqwf->bkqwf", self.left, x).map_err(wrap)?;
        // t2(b,p,g,w,f) = W1(k,p,q,g) · t1
        let t2 = contract(self.exec, self.algo, "kpqg,bkqwf->bpgwf", self.w1, &t1).map_err(wrap)?;
        // t3(b,p,s,h,f) = W2(g,s,w,h) · t2
        let t3 = contract(self.exec, self.algo, "gswh,bpgwf->bpshf", self.w2, &t2).map_err(wrap)?;
        // y(b,p,s,r) = R(r,h,f) · t3
        contract(self.exec, self.algo, "rhf,bpshf->bpsr", self.right, &t3).map_err(wrap)
    }

    /// Rayleigh quotient `⟨x|K|x⟩ / ⟨x|x⟩`.
    pub fn expectation(&self, x: &BlockSparseTensor) -> Result<f64> {
        let kx = self.apply(x)?;
        let num = x.dot(&kx).map_err(wrap)?;
        let den = x.dot(x).map_err(wrap)?;
        Ok(num / den)
    }

    /// Upload the four structural operands (L, W₁, W₂, R) onto the
    /// executor and return a [`ResidentHam`] whose matvecs run against
    /// the resident buffers: after the first `apply`, repeated Davidson
    /// matvecs ship zero bytes for the environment/MPO operands on the
    /// multi-process backend. Numerics are bitwise-identical to
    /// [`EffectiveHam::apply`].
    pub fn upload(&self) -> Result<ResidentHam<'_>> {
        Ok(ResidentHam {
            exec: self.exec,
            algo: self.algo,
            left: upload_operand(self.exec, self.algo, self.left),
            w1: upload_operand(self.exec, self.algo, self.w1),
            w2: upload_operand(self.exec, self.algo, self.w2),
            right: upload_operand(self.exec, self.algo, self.right),
            chain: ChainState::default(),
        })
    }
}

/// A two-site effective Hamiltonian whose structural operands are
/// *resident* on the runtime (the paper's operand-residency discipline:
/// the environments and MPO tensors of one local eigensolve stay put,
/// only the Davidson vector and its intermediates move). Created by
/// [`EffectiveHam::upload`]; the resident buffers are released on drop.
pub struct ResidentHam<'a> {
    exec: &'a Executor,
    algo: Algorithm,
    left: ResidentOperand,
    w1: ResidentOperand,
    w2: ResidentOperand,
    right: ResidentOperand,
    /// What the matvec chain derives from the operands' and ψ's structure
    /// alone — filled by the first `apply`, reused by the rest of the
    /// eigensolve, gone with the operands.
    chain: ChainState,
}

impl ResidentHam<'_> {
    /// Apply `K` to a two-site tensor — bitwise-identical to
    /// [`EffectiveHam::apply`] on the same operands, but run as one
    /// [`chain_apply`]: the intermediates t₁…t₃ never return to block
    /// form. For the list and sparse-dense algorithms that is **one
    /// chained superstep per matvec** — ψ uploads once, t₁…t₃ stay
    /// resident in the worker stores and only `y`'s blocks download, which
    /// on the multi-process backend collapses the driver's per-matvec
    /// *result* traffic to the final download. For sparse-sparse the four
    /// steps stay separate supersteps, but ψ is flattened once, each flat
    /// result feeds the next step as it comes back, only `y` is
    /// re-blocked, and the output masks are derived once per eigensolve.
    pub fn apply(&self, x: &BlockSparseTensor) -> Result<BlockSparseTensor> {
        chain_apply(
            self.exec,
            self.algo,
            &[
                ("bkc,cqwf->bkqwf", &self.left),
                ("kpqg,bkqwf->bpgwf", &self.w1),
                ("gswh,bpgwf->bpshf", &self.w2),
                ("rhf,bpshf->bpsr", &self.right),
            ],
            x,
            &self.chain,
        )
        .map_err(wrap)
    }
}

impl Drop for ResidentHam<'_> {
    fn drop(&mut self) {
        // release the resident buffers; a transport failure here cannot
        // be surfaced from drop. A worker store never evicts, so a `Free`
        // that fails leaves the buffers on the workers until the executor
        // itself drops — the soak in ROADMAP robustness (d) watches that
        for op in [&self.left, &self.w1, &self.w2, &self.right] {
            let _ = free_operand(self.exec, op);
        }
    }
}

fn wrap(e: tt_blocks::Error) -> Error {
    Error::Eig(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Environments;
    use tt_blocks::contract::contract_list;
    use tt_mps::{heisenberg_j1j2, neel_state, Lattice, Mps, SpinHalf};

    /// The effective Hamiltonian on the (0,1) window of a product state
    /// must reproduce ⟨ψ|H|ψ⟩ as a Rayleigh quotient.
    #[test]
    fn rayleigh_quotient_matches_expectation() {
        let n = 4;
        let lat = Lattice::chain(n);
        let mpo = heisenberg_j1j2(&lat, 1.0, 0.0).build().unwrap();
        let mps = Mps::product_state(&SpinHalf, &neel_state(n)).unwrap();
        let exec = Executor::local();
        let envs = Environments::initialize(&exec, Algorithm::List, &mps, &mpo).unwrap();
        let x = contract_list(&exec, "lsj,jtk->lstk", mps.tensor(0), mps.tensor(1)).unwrap();
        let heff = EffectiveHam {
            exec: &exec,
            algo: Algorithm::List,
            left: envs.left[0].as_ref().unwrap(),
            w1: mpo.tensor(0),
            w2: mpo.tensor(1),
            right: envs.right[1].as_ref().unwrap(),
        };
        let rq = heff.expectation(&x).unwrap();
        let e = mps.expectation(&mpo).unwrap();
        assert!((rq - e).abs() < 1e-10, "{rq} vs {e}");
    }

    /// K must be symmetric: ⟨y|K x⟩ == ⟨K y|x⟩.
    #[test]
    fn effective_ham_symmetric() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let n = 4;
        let lat = Lattice::chain(n);
        let mpo = heisenberg_j1j2(&lat, 1.0, 0.0).build().unwrap();
        let mps = Mps::product_state(&SpinHalf, &neel_state(n)).unwrap();
        let exec = Executor::local();
        let envs = Environments::initialize(&exec, Algorithm::List, &mps, &mpo).unwrap();
        let x0 = contract_list(&exec, "lsj,jtk->lstk", mps.tensor(0), mps.tensor(1)).unwrap();
        let heff = EffectiveHam {
            exec: &exec,
            algo: Algorithm::List,
            left: envs.left[0].as_ref().unwrap(),
            w1: mpo.tensor(0),
            w2: mpo.tensor(1),
            right: envs.right[1].as_ref().unwrap(),
        };
        let mut rng = StdRng::seed_from_u64(7);
        let x = tt_blocks::BlockSparseTensor::random(x0.indices().to_vec(), x0.flux(), &mut rng);
        let y = tt_blocks::BlockSparseTensor::random(x0.indices().to_vec(), x0.flux(), &mut rng);
        let kx = heff.apply(&x).unwrap();
        let ky = heff.apply(&y).unwrap();
        let a = y.dot(&kx).unwrap();
        let b = ky.dot(&x).unwrap();
        assert!((a - b).abs() < 1e-9 * a.abs().max(1.0), "{a} vs {b}");
    }

    /// All three algorithms produce the same matvec.
    #[test]
    fn algorithms_agree_on_matvec() {
        let n = 4;
        let lat = Lattice::chain(n);
        let mpo = heisenberg_j1j2(&lat, 1.0, 0.0).build().unwrap();
        let mps = Mps::product_state(&SpinHalf, &neel_state(n)).unwrap();
        let exec = Executor::local();
        let envs = Environments::initialize(&exec, Algorithm::List, &mps, &mpo).unwrap();
        let x = contract_list(&exec, "lsj,jtk->lstk", mps.tensor(0), mps.tensor(1)).unwrap();
        let mut results = Vec::new();
        for algo in [
            Algorithm::List,
            Algorithm::SparseDense,
            Algorithm::SparseSparse,
        ] {
            let heff = EffectiveHam {
                exec: &exec,
                algo,
                left: envs.left[0].as_ref().unwrap(),
                w1: mpo.tensor(0),
                w2: mpo.tensor(1),
                right: envs.right[1].as_ref().unwrap(),
            };
            results.push(heff.apply(&x).unwrap().to_dense());
        }
        assert!(results[1].allclose(&results[0], 1e-10));
        assert!(results[2].allclose(&results[0], 1e-10));
    }
}
