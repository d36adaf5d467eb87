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
//!
//! [`EffectiveHam`] applies the four operands by value to a block-sparse
//! tensor (the reference); [`EffectiveHam::upload`] makes it a
//! [`ResidentHam`], a [`ResidentChain`] of the same four steps that owns
//! the uploaded operands, the matvec's structural plan and their release.
//! A `ResidentHam` maps the Davidson solve's [`BondVector`]s — one flat
//! vector in the bond's [`tt_blocks::BondLayout`] — to vectors of the same
//! layout: ψ and `y` never pass through block form between matvecs.

use crate::Result;
use tt_blocks::contract::contract;
use tt_blocks::{Algorithm, BlockSparseTensor, BondVector, ResidentChain};
use tt_dist::Executor;

/// The four contractions of one matvec, in chain order: each step's
/// structural operand (L, W₁, W₂, R) against the previous step's output.
///
/// `t1(b,k,q,w,f) = L(b,k,c) · x(c,q,w,f)`, `t2(b,p,g,w,f) = W1(k,p,q,g) ·
/// t1`, `t3(b,p,s,h,f) = W2(g,s,w,h) · t2`, `y(b,p,s,r) = R(r,h,f) · t3`.
const MATVEC: [&str; 4] = [
    "bkc,cqwf->bkqwf",
    "kpqg,bkqwf->bpgwf",
    "gswh,bpgwf->bpshf",
    "rhf,bpshf->bpsr",
];

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
        let step = |s: usize, a, b| contract(self.exec, self.algo, MATVEC[s], a, b);
        let t1 = step(0, self.left, x)?;
        let t2 = step(1, self.w1, &t1)?;
        let t3 = step(2, self.w2, &t2)?;
        Ok(step(3, self.right, &t3)?)
    }

    /// Rayleigh quotient `⟨x|K|x⟩ / ⟨x|x⟩`.
    pub fn expectation(&self, x: &BlockSparseTensor) -> Result<f64> {
        let kx = self.apply(x)?;
        Ok(x.dot(&kx)? / x.dot(x)?)
    }

    /// Upload the four structural operands (L, W₁, W₂, R) onto the
    /// executor and return a [`ResidentHam`] whose matvecs run against
    /// the resident buffers: after the first `apply`, repeated Davidson
    /// matvecs ship zero bytes for the environment/MPO operands on the
    /// multi-process backend. Numerics are bitwise-identical to
    /// [`EffectiveHam::apply`].
    pub fn upload(&self) -> Result<ResidentHam<'_>> {
        let steps = [
            (MATVEC[0], self.left),
            (MATVEC[1], self.w1),
            (MATVEC[2], self.w2),
            (MATVEC[3], self.right),
        ];
        Ok(ResidentHam(ResidentChain::upload(
            self.exec, self.algo, &steps,
        )?))
    }
}

/// A two-site effective Hamiltonian whose structural operands are
/// *resident* on the runtime (the paper's operand-residency discipline:
/// the environments and MPO tensors of one local eigensolve stay put,
/// only the Davidson vector and its intermediates move): a
/// [`ResidentChain`] of the four matvec steps, and nothing else. Created
/// by [`EffectiveHam::upload`]; dropping it frees every resident buffer,
/// [`ResidentHam::release`] does the same and reports a failure.
pub struct ResidentHam<'a>(ResidentChain<'a>);

impl ResidentHam<'_> {
    /// Apply `K` to a two-site vector `x` of the bond's layout and return
    /// `K·x` in the same layout — bitwise-identical to
    /// [`EffectiveHam::apply`] on `x`'s block form, but run as one
    /// [`ResidentChain::apply`]: the intermediates t₁…t₃ never return to
    /// block form. For all three algorithms that is **one chained
    /// superstep per matvec** — ψ uploads once, t₁…t₃ stay resident in the
    /// worker stores and only `y` downloads, which on the multi-process
    /// backend collapses the driver's per-matvec *result* traffic to the
    /// final download. ψ enters and `y` leaves through maps of the layout
    /// derived with the plan: for sparse-sparse one gather of ψ's nonzeros
    /// and one merge walk of `y`'s entries, every step in between
    /// accumulating only where its output mask allows an entry and handing
    /// its result on in the merge kernel's own format; for sparse-dense a
    /// scatter and a gather along the layout's runs; for list the layout's
    /// blocks. What the matvec knows from structure alone is derived once
    /// per eigensolve, for all three; for list that includes the block-pair
    /// schedule of every block of the layout, and t₁…t₃ stored in the order
    /// the next step reads them, so steps 2–4 read their `B` in place.
    pub fn apply(&self, x: &BondVector) -> Result<BondVector> {
        Ok(self.0.apply(x)?)
    }

    /// Free the resident operands — every one, whatever fails on the way —
    /// and report the first error.
    pub fn release(self) -> Result<()> {
        Ok(self.0.release()?)
    }
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

    /// A list chain stores every intermediate in the order its consumer's
    /// GEMM reads `B`: the rewritten specs of the matvec and of both
    /// environment extensions, pinned, and every step after the first
    /// reading its `B` in place.
    #[test]
    fn chains_store_intermediates_in_consumer_order() {
        use crate::env::{EXTEND_LEFT, EXTEND_RIGHT};
        use tt_blocks::contract::consumer_order;
        use tt_tensor::einsum::ContractPlan;
        use tt_tensor::transpose::{motion, Motion};
        let pinned: [(&[&str], &[&str]); 3] = [
            (
                &MATVEC,
                &[
                    "bkc,cqwf->kqbwf",
                    "kpqg,kqbwf->gwbpf",
                    "gswh,gwbpf->hfbps",
                    "rhf,hfbps->bpsr",
                ],
            ),
            (
                &EXTEND_LEFT,
                &["bkc,cqf->kqbf", "kpqg,kqbf->bpfg", "bph,bpfg->hgf"],
            ),
            (
                &EXTEND_RIGHT,
                &["bkf,cqf->qkbc", "gpqk,qkbc->pbgc", "hpb,pbgc->hgc"],
            ),
        ];
        for (specs, want) in pinned {
            let got = consumer_order(specs).unwrap();
            assert_eq!(got, want);
            // the caller's output order survives the rewrite
            let out = |spec: &str| spec.split_once("->").unwrap().1.to_string();
            assert_eq!(out(got.last().unwrap()), out(specs.last().unwrap()));
            for spec in &got[1..] {
                let perm_b = ContractPlan::parse(spec)
                    .unwrap()
                    .operand_permutations()
                    .1
                    .to_vec();
                let dims: Vec<usize> = (2..2 + perm_b.len()).collect();
                assert_eq!(motion(&dims, &perm_b).unwrap(), Motion::Identity, "{spec}");
                assert!(perm_b.iter().enumerate().all(|(i, &p)| i == p), "{spec}");
            }
        }
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
