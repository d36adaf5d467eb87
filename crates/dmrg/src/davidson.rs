//! The Davidson eigensolver — Algorithm 1 of the paper.
//!
//! Follows the paper's implementation choices: based on the ITensor
//! routine, *without* preconditioning ("the additional memory and time cost
//! is prohibitive compared to the cost of running more sweeps"), with
//! randomization to alleviate failed reorthogonalization, and a small
//! subspace (the paper sweeps with subspace size 2, banking on the very
//! good initial guesses DMRG provides).
//!
//! The solve runs in one [`BondLayout`] — every allowed block of the
//! start vector's structure, concatenated, derived once per solve — and
//! keeps its basis, the `A·v` vectors, the Ritz vector and the residual as
//! [`BondVector`]s: dot, axpy, norm and scale are slice loops, and block
//! form appears only at the solve's two ends (the start vector gathered in,
//! the eigenvector handed back without its all-zero blocks).
//!
//! The `apply` closure is called once per matrix-vector product (several
//! times per solve; a thick restart forms the Ritz vector's `A·x` from the
//! kept `A·v_j` and calls none), with a vector of the solve's layout, and
//! must return one of the same layout; the sweep driver passes
//! [`crate::heff::ResidentHam::apply`], whose environment/MPO operands
//! were uploaded once for the whole solve and whose chain plans once for
//! the layout — the repeated matvecs here are exactly the reuse window the
//! resident-operand executor API exists for.

use crate::{Error, Result};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use tt_blocks::{BlockSparseTensor, BondLayout, BondVector};
use tt_linalg::eigh;
use tt_tensor::DenseTensor;

/// Options for [`davidson`].
#[derive(Debug, Clone, Copy)]
pub struct DavidsonOptions {
    /// Maximum subspace expansions. The start vector and each new
    /// direction count one and make one matrix-vector product; a thick
    /// restart counts one and makes none.
    pub max_iter: usize,
    /// Maximum subspace dimension before restarting (paper: 2 during
    /// sweeps).
    pub max_subspace: usize,
    /// Convergence threshold on the residual norm.
    pub tol: f64,
    /// Seed for the randomized reorthogonalization fallback.
    pub seed: u64,
}

impl Default for DavidsonOptions {
    fn default() -> Self {
        Self {
            max_iter: 4,
            max_subspace: 2,
            tol: 1e-10,
            seed: 0x1234,
        }
    }
}

/// Result of a Davidson solve.
#[derive(Debug, Clone)]
pub struct DavidsonResult {
    /// Smallest Ritz value.
    pub lambda: f64,
    /// Matrix-vector products performed: calls of `apply`, restarts not
    /// included.
    pub matvecs: usize,
    /// Final residual norm.
    pub residual: f64,
}

/// Compute the smallest eigenpair of the symmetric operator `apply`,
/// starting from `x0` (which is overwritten conceptually — the eigenvector
/// is returned, in block form).
pub fn davidson(
    mut apply: impl FnMut(&BondVector) -> Result<BondVector>,
    x0: &BlockSparseTensor,
    opts: DavidsonOptions,
) -> Result<(DavidsonResult, BlockSparseTensor)> {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let layout = Arc::new(BondLayout::new(x0.indices(), x0.flux()));
    let mut v0 = BondVector::from_blocks(&layout, x0)?;
    let nrm = v0.norm();
    if nrm == 0.0 {
        return Err(Error::Eig("Davidson needs a nonzero start vector".into()));
    }
    v0.scale_mut(1.0 / nrm);
    let mut apply = |v: &BondVector| {
        let av = apply(v)?;
        let same = Arc::ptr_eq(av.layout(), &layout)
            || layout.lays_out(av.layout().indices(), av.layout().flux());
        if !same {
            return Err(Error::Eig("the operator left the bond layout".into()));
        }
        Ok(av)
    };

    let mut basis: Vec<BondVector> = vec![v0.clone()];
    let mut av: Vec<BondVector> = vec![apply(&v0)?];
    let mut matvecs = 1usize;
    // subspace expansions against `max_iter`: a restart counts one without an apply
    let mut steps = 1usize;
    let mut lambda = v0.dot(&av[0]);
    let mut x = v0;
    let mut residual = f64::INFINITY;

    for _it in 0..opts.max_iter {
        // subspace matrix M_ij = ⟨v_i | A v_j⟩ (symmetric)
        let k = basis.len();
        let mut m = DenseTensor::<f64>::zeros([k, k]);
        for (i, bi) in basis.iter().enumerate() {
            for (j, avj) in av.iter().enumerate() {
                m.set(&[i, j], bi.dot(avj));
            }
        }
        // symmetrize roundoff
        let mt = m.permute(&[1, 0])?;
        let m = m.add(&mt)?.scaled(0.5);
        let (w, vec) = eigh(&m)?;
        lambda = w[0];

        // Ritz vector x = Σ s_j v_j and q = Σ s_j (A v_j) = A x
        let mut xr = basis[0].clone();
        xr.scale_mut(vec.at(&[0, 0]));
        let mut q = av[0].clone();
        q.scale_mut(vec.at(&[0, 0]));
        for j in 1..k {
            xr.axpy(vec.at(&[j, 0]), &basis[j]);
            q.axpy(vec.at(&[j, 0]), &av[j]);
        }
        // a full subspace restarts from x: keep A x for it
        let ax = (k >= opts.max_subspace && steps < opts.max_iter).then(|| q.clone());
        // residual q = A x − λ x
        q.axpy(-lambda, &xr);
        residual = q.norm();
        x = xr;
        if residual <= opts.tol || steps >= opts.max_iter {
            break;
        }

        // orthogonalize q against the basis (modified Gram-Schmidt, twice)
        orthogonalize(&mut q, &basis);
        if q.norm() < 1e-12 {
            // failed reorthogonalization — randomize (paper's fallback)
            q = BondVector::random(&layout, &mut rng);
            orthogonalize(&mut q, &basis);
        }
        let qn = q.norm();
        if qn < 1e-14 {
            break; // space exhausted
        }
        q.scale_mut(1.0 / qn);

        if let Some(mut ax) = ax {
            // thick restart: keep the Ritz vector and the new direction
            basis.clear();
            av.clear();
            let mut xn = x.clone();
            let nx = xn.norm();
            xn.scale_mut(1.0 / nx);
            ax.scale_mut(1.0 / nx);
            basis.push(xn);
            av.push(ax);
            steps += 1;
        }
        let aq = apply(&q)?;
        matvecs += 1;
        steps += 1;
        basis.push(q);
        av.push(aq);
    }

    let nx = x.norm();
    if nx > 0.0 {
        x.scale_mut(1.0 / nx);
    }
    Ok((
        DavidsonResult {
            lambda,
            matvecs,
            residual,
        },
        x.to_blocks(),
    ))
}

/// Modified Gram–Schmidt of `q` against `basis`, twice.
fn orthogonalize(q: &mut BondVector, basis: &[BondVector]) {
    for _pass in 0..2 {
        for v in basis {
            let c = v.dot(q);
            q.axpy(-c, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_blocks::{Arrow, QnIndex, QN};

    /// Diagonal operator on a trivially-graded space.
    fn diag_space(n: usize) -> Vec<QnIndex> {
        vec![
            QnIndex::new(Arrow::In, vec![(QN::zero(1), n)]),
            QnIndex::new(Arrow::Out, vec![(QN::zero(1), 1)]),
        ]
    }

    /// A = diag(0, 1, 2, ...) on a [`diag_space`] vector, whose one
    /// `n × 1` block is the whole layout.
    fn diag_apply(x: &BondVector) -> Result<BondVector> {
        let mut y = x.clone();
        for (i, v) in y.data_mut().iter_mut().enumerate() {
            *v *= i as f64;
        }
        Ok(y)
    }

    #[test]
    fn diagonal_ground_state() {
        let idx = diag_space(16);
        let mut rng = StdRng::seed_from_u64(3);
        let x0 = BlockSparseTensor::random(idx, QN::zero(1), &mut rng);
        let opts = DavidsonOptions {
            max_iter: 200,
            max_subspace: 8,
            tol: 1e-9,
            seed: 1,
        };
        let (res, x) = davidson(diag_apply, &x0, opts).unwrap();
        assert!(res.lambda.abs() < 1e-7, "λ = {}", res.lambda);
        // eigenvector concentrated on component 0
        let d = x.to_dense();
        assert!((d.at(&[0, 0]).abs() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn subspace_two_improves_rayleigh() {
        // with the paper's subspace size 2 and few iterations the Ritz
        // value must not exceed the initial Rayleigh quotient; an operator
        // three products cannot solve takes exactly three: start, one
        // expansion, the restart (no product) and one more
        let idx = diag_space(12);
        let mut rng = StdRng::seed_from_u64(5);
        let x0 = BlockSparseTensor::random(idx, QN::zero(1), &mut rng);
        let layout = Arc::new(BondLayout::new(x0.indices(), x0.flux()));
        let mut x0n = BondVector::from_blocks(&layout, &x0).unwrap();
        x0n.scale_mut(1.0 / x0n.norm());
        let before = x0n.dot(&diag_apply(&x0n).unwrap());
        let calls = std::cell::Cell::new(0);
        let counting = |x: &BondVector| {
            calls.set(calls.get() + 1);
            diag_apply(x)
        };
        let (res, _) = davidson(counting, &x0, DavidsonOptions::default()).unwrap();
        assert!(res.lambda <= before + 1e-12);
        assert!(res.residual > 1e-3, "residual {}", res.residual);
        assert_eq!(calls.get(), 3);
        assert_eq!(res.matvecs, 3);
    }

    #[test]
    fn converged_start_vector() {
        // starting exactly at the ground state: residual ≈ 0 immediately
        let mut t = BlockSparseTensor::new(diag_space(6), QN::zero(1));
        let mut b = tt_tensor::DenseTensor::zeros([6, 1]);
        b.set(&[0, 0], 1.0);
        t.insert_block(vec![0, 0], b).unwrap();
        let (res, _) = davidson(diag_apply, &t, DavidsonOptions::default()).unwrap();
        assert!(res.lambda.abs() < 1e-12);
        assert!(res.residual < 1e-10);
    }

    /// `A = H·diag(d)·H` with the Householder reflection `H = I − 2uuᵀ`,
    /// `u ∝ (1, 2, …, n)`: a dense operator with spectrum `d`.
    fn reflected(d: &[f64]) -> Vec<Vec<f64>> {
        let n = d.len();
        let un = (1..=n).map(|i| (i * i) as f64).sum::<f64>().sqrt();
        let u: Vec<f64> = (1..=n).map(|i| i as f64 / un).collect();
        let h = |i: usize, j: usize| (if i == j { 1.0 } else { 0.0 }) - 2.0 * u[i] * u[j];
        (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| (0..n).map(|l| h(i, l) * d[l] * h(l, j)).sum())
                    .collect()
            })
            .collect()
    }

    fn matvec(a: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        a.iter()
            .map(|row| row.iter().zip(x).map(|(r, v)| r * v).sum())
            .collect()
    }

    /// `A·x` on the single `n × 1` block of a [`diag_space`] vector.
    fn matrix_apply(a: &[Vec<f64>]) -> impl Fn(&BondVector) -> Result<BondVector> + '_ {
        move |x| {
            let mut y = x.clone();
            y.data_mut().copy_from_slice(&matvec(a, x.data()));
            Ok(y)
        }
    }

    /// Smallest eigenvalue of `a` by `tt_linalg::lanczos_smallest`.
    fn lanczos_lambda(a: &[Vec<f64>]) -> f64 {
        let x0: Vec<f64> = (0..a.len()).map(|i| 1.0 + 0.1 * i as f64).collect();
        let (lambda, _) = tt_linalg::lanczos_smallest(
            |v: &[f64]| matvec(a, v),
            &x0,
            tt_linalg::LanczosOptions::default(),
        )
        .unwrap();
        lambda
    }

    /// Reference solve: [`davidson`]'s iteration, except that a restart
    /// applies the operator to the Ritz vector again. No randomized
    /// fallback (the tests that use it never need one).
    fn davidson_recomputing(
        apply: impl Fn(&BondVector) -> Result<BondVector>,
        x0: &BlockSparseTensor,
        opts: DavidsonOptions,
    ) -> (f64, BondVector) {
        let layout = Arc::new(BondLayout::new(x0.indices(), x0.flux()));
        let mut v0 = BondVector::from_blocks(&layout, x0).unwrap();
        v0.scale_mut(1.0 / v0.norm());
        let mut basis = vec![v0.clone()];
        let mut av = vec![apply(&v0).unwrap()];
        let mut matvecs = 1;
        let (mut lambda, mut x) = (0.0, v0);
        for _ in 0..opts.max_iter {
            let k = basis.len();
            let mut m = DenseTensor::<f64>::zeros([k, k]);
            for (i, bi) in basis.iter().enumerate() {
                for (j, avj) in av.iter().enumerate() {
                    m.set(&[i, j], bi.dot(avj));
                }
            }
            let m = m.add(&m.permute(&[1, 0]).unwrap()).unwrap().scaled(0.5);
            let (w, s) = eigh(&m).unwrap();
            lambda = w[0];
            let mut xr = basis[0].clone();
            xr.scale_mut(s.at(&[0, 0]));
            let mut q = av[0].clone();
            q.scale_mut(s.at(&[0, 0]));
            for j in 1..k {
                xr.axpy(s.at(&[j, 0]), &basis[j]);
                q.axpy(s.at(&[j, 0]), &av[j]);
            }
            q.axpy(-lambda, &xr);
            x = xr;
            if q.norm() <= opts.tol || matvecs >= opts.max_iter {
                break;
            }
            orthogonalize(&mut q, &basis);
            let qn = q.norm();
            assert!(qn >= 1e-12, "the reference has no randomized fallback");
            q.scale_mut(1.0 / qn);
            if basis.len() >= opts.max_subspace {
                let ax = apply(&x).unwrap();
                matvecs += 1;
                let mut xn = x.clone();
                xn.scale_mut(1.0 / x.norm());
                basis = vec![xn];
                av = vec![ax];
            }
            av.push(apply(&q).unwrap());
            matvecs += 1;
            basis.push(q);
        }
        x.scale_mut(1.0 / x.norm());
        (lambda, x)
    }

    #[test]
    fn restart_reuse_matches_a_recomputed_restart() {
        let d: Vec<f64> = (0..10)
            .map(|i| 0.5 + i as f64 + 0.1 * (i * i) as f64)
            .collect();
        let a = reflected(&d);
        let mut rng = StdRng::seed_from_u64(11);
        let x0 = BlockSparseTensor::random(diag_space(10), QN::zero(1), &mut rng);
        for max_subspace in [2, 3] {
            let opts = DavidsonOptions {
                max_iter: 9,
                max_subspace,
                tol: 1e-14,
                seed: 1,
            };
            let (res, x) = davidson(matrix_apply(&a), &x0, opts).unwrap();
            let (lambda, xr) = davidson_recomputing(matrix_apply(&a), &x0, opts);
            let x = BondVector::from_blocks(xr.layout(), &x).unwrap();
            assert!(
                (res.lambda - lambda).abs() < 1e-12,
                "{} vs {lambda}",
                res.lambda
            );
            let mut diff = x.clone();
            diff.axpy(-1.0, &xr);
            assert!(
                diff.norm() < 1e-12,
                "subspace {max_subspace}: |Δx| = {}",
                diff.norm()
            );
            assert!(res.residual > 1e-6, "the solve must still be restarting");
        }
    }

    #[test]
    fn degenerate_ground_state_matches_lanczos() {
        let a = reflected(&[-1.0, -1.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0]);
        let mut rng = StdRng::seed_from_u64(7);
        let x0 = BlockSparseTensor::random(diag_space(8), QN::zero(1), &mut rng);
        let opts = DavidsonOptions {
            max_iter: 100,
            max_subspace: 3,
            tol: 1e-10,
            seed: 1,
        };
        let (res, _) = davidson(matrix_apply(&a), &x0, opts).unwrap();
        let want = lanczos_lambda(&a);
        assert!((want + 1.0).abs() < 1e-10, "lanczos λ = {want}");
        assert!(
            (res.lambda - want).abs() < 1e-10,
            "λ = {} vs {want}",
            res.lambda
        );
    }

    #[test]
    fn zero_residual_start_takes_the_random_fallback() {
        // e_3 is an eigenvector of diag(0, 1, 2, …): its residual is exactly
        // zero, so the first new direction comes from the random fallback,
        // and a negative tol keeps the zero residual from ending the solve
        let mut t = BlockSparseTensor::new(diag_space(8), QN::zero(1));
        let mut b = DenseTensor::zeros([8, 1]);
        b.set(&[3, 0], 1.0);
        t.insert_block(vec![0, 0], b).unwrap();
        let opts = DavidsonOptions {
            max_iter: 60,
            max_subspace: 4,
            tol: -1.0,
            seed: 1,
        };
        let (res, _) = davidson(diag_apply, &t, opts).unwrap();
        let a: Vec<Vec<f64>> = (0..8)
            .map(|i| {
                (0..8)
                    .map(|j| if i == j { i as f64 } else { 0.0 })
                    .collect()
            })
            .collect();
        let want = lanczos_lambda(&a);
        assert!(want.abs() < 1e-10, "lanczos λ = {want}");
        assert!(
            (res.lambda - want).abs() < 1e-10,
            "λ = {} vs {want}",
            res.lambda
        );
    }

    #[test]
    fn zero_start_rejected() {
        let t = BlockSparseTensor::new(diag_space(4), QN::zero(1));
        assert!(davidson(diag_apply, &t, DavidsonOptions::default()).is_err());
    }
}
