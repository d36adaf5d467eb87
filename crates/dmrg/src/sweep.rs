//! The two-site DMRG sweep driver (Section II-C of the paper).
//!
//! Sweeps left-to-right and back, at each bond contracting the two site
//! tensors, solving the projected eigenproblem with Davidson (Alg. 1),
//! splitting by truncated SVD (singular values below the cutoff removed,
//! bond capped at `max_m`), absorbing the singular values in the sweep
//! direction, and extending the environments. Bond dimension is grown
//! gradually over sweeps exactly as the paper does ("we gradually increase
//! bond dimension of the MPS, sweeping over all sites multiple times for
//! each successive bond dimension choice").
//!
//! Per-site wall-clock/flop records feed Figs. 5 and 6 directly.

use crate::davidson::{davidson, DavidsonOptions};
use crate::env::{extend_left, extend_right, Environments};
use crate::heff::EffectiveHam;
use crate::{Error, Result};
use std::time::Instant;
use tt_blocks::contract::contract;
use tt_blocks::{block_svd, scale_bond, Algorithm};
use tt_dist::Executor;
use tt_linalg::TruncSpec;
use tt_mps::{Mpo, Mps};

/// Parameters of one sweep (one left-to-right plus right-to-left pass).
#[derive(Debug, Clone, Copy)]
pub struct SweepParams {
    /// Bond dimension cap `m`.
    pub max_m: usize,
    /// SVD truncation cutoff (the paper uses 1e-12 at large `m`).
    pub cutoff: f64,
    /// Davidson settings for this sweep.
    pub davidson: DavidsonOptions,
    /// Noise amplitude (relative to the state norm) mixed into the two-site
    /// tensor before the SVD split. Repopulates quantum-number blocks that
    /// truncation would otherwise kill — White's density-matrix
    /// perturbation in its two-site form. Ramp it down to 0 over the
    /// schedule; frustrated systems (the triangular Hubbard benchmark)
    /// need it to escape product-state local minima.
    pub noise: f64,
}

/// A schedule of sweeps with gradually increasing bond dimension.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// The sweeps to run, in order.
    pub sweeps: Vec<SweepParams>,
}

impl Schedule {
    /// Ramp the bond dimension: `n_per_m` sweeps at each entry of `ms`,
    /// with noise decaying from 1e-4 to zero across the ramp.
    pub fn ramp(ms: &[usize], n_per_m: usize, cutoff: f64) -> Self {
        let mut sweeps = Vec::new();
        let total = ms.len() * n_per_m;
        for (i, &m) in ms.iter().enumerate() {
            for k in 0..n_per_m {
                let idx = i * n_per_m + k;
                // decay noise; last quarter of the schedule runs clean
                let noise = if idx + total.div_ceil(4) >= total {
                    0.0
                } else {
                    1e-4 * 0.1f64.powi(idx as i32 / 2)
                };
                sweeps.push(SweepParams {
                    max_m: m,
                    cutoff,
                    davidson: DavidsonOptions::default(),
                    noise,
                });
            }
        }
        Schedule { sweeps }
    }
}

/// Timing/flop record of one two-site optimization.
#[derive(Debug, Clone, Copy)]
pub struct SiteRecord {
    /// Left site of the optimized pair.
    pub site: usize,
    /// Wall-clock seconds for the whole step (Davidson + SVD + env).
    pub seconds: f64,
    /// Flops counted during the step.
    pub flops: u64,
    /// Davidson matrix-vector products ([`crate::DavidsonResult::matvecs`]).
    pub matvecs: usize,
    /// Ritz value after optimization.
    pub energy: f64,
    /// Truncation error of the SVD split.
    pub trunc_err: f64,
    /// Bond dimension kept.
    pub bond_dim: usize,
}

/// Record of one full sweep.
#[derive(Debug, Clone)]
pub struct SweepRecord {
    /// Energy after the sweep (last Ritz value).
    pub energy: f64,
    /// Largest truncation error seen.
    pub max_trunc_err: f64,
    /// Largest bond dimension kept.
    pub max_bond_dim: usize,
    /// Per-optimization records, in execution order.
    pub sites: Vec<SiteRecord>,
    /// Wall-clock seconds of the sweep.
    pub seconds: f64,
}

/// Result of a DMRG run.
#[derive(Debug, Clone)]
pub struct DmrgRun {
    /// Final energy estimate.
    pub energy: f64,
    /// Record per sweep.
    pub sweeps: Vec<SweepRecord>,
}

impl DmrgRun {
    /// Energy history (one entry per sweep).
    pub fn energies(&self) -> Vec<f64> {
        self.sweeps.iter().map(|s| s.energy).collect()
    }
}

/// Driver for two-site DMRG on a given executor and block algorithm.
pub struct Dmrg<'a> {
    /// Executor for all contractions/SVDs.
    pub exec: &'a Executor,
    /// Block-sparsity algorithm (paper Section IV).
    pub algo: Algorithm,
    /// The Hamiltonian.
    pub mpo: &'a Mpo,
}

impl<'a> Dmrg<'a> {
    /// Create a driver.
    pub fn new(exec: &'a Executor, algo: Algorithm, mpo: &'a Mpo) -> Self {
        Self { exec, algo, mpo }
    }

    /// Run the schedule on `mps`, which is modified in place.
    pub fn run(&self, mps: &mut Mps, schedule: &Schedule) -> Result<DmrgRun> {
        let n = mps.n_sites();
        if n != self.mpo.n_sites() {
            return Err(Error::Sweep("MPO/MPS size mismatch".into()));
        }
        if n < 2 {
            return Err(Error::Sweep("two-site DMRG needs ≥ 2 sites".into()));
        }
        mps.canonicalize(self.exec, 0)?;
        let mut envs = Environments::initialize(self.exec, self.algo, mps, self.mpo)?;

        let mut sweeps = Vec::new();
        let mut energy = f64::NAN;
        for params in &schedule.sweeps {
            let sweep_start = Instant::now();
            let mut records = Vec::new();
            // left → right
            for j in 0..n - 1 {
                let rec = self.optimize_bond(mps, &mut envs, j, params, true)?;
                energy = rec.energy;
                records.push(rec);
            }
            // right → left
            for j in (0..n - 1).rev() {
                let rec = self.optimize_bond(mps, &mut envs, j, params, false)?;
                energy = rec.energy;
                records.push(rec);
            }
            let max_trunc = records.iter().map(|r| r.trunc_err).fold(0.0, f64::max);
            let max_bond = records.iter().map(|r| r.bond_dim).max().unwrap_or(0);
            sweeps.push(SweepRecord {
                energy,
                max_trunc_err: max_trunc,
                max_bond_dim: max_bond,
                sites: records,
                seconds: sweep_start.elapsed().as_secs_f64(),
            });
        }
        Ok(DmrgRun { energy, sweeps })
    }

    /// Optimize the pair `(j, j+1)`; `moving_right` controls where the
    /// singular values are absorbed and which environment is refreshed.
    pub fn optimize_bond(
        &self,
        mps: &mut Mps,
        envs: &mut Environments,
        j: usize,
        params: &SweepParams,
        moving_right: bool,
    ) -> Result<SiteRecord> {
        let start = Instant::now();
        let flops0 = self.exec.total_flops();

        let left = envs.left[j]
            .clone()
            .ok_or_else(|| Error::Sweep(format!("missing left env at {j}")))?;
        let right = envs.right[j + 1]
            .clone()
            .ok_or_else(|| Error::Sweep(format!("missing right env at {}", j + 1)))?;

        // two-site tensor
        let x0 = contract(
            self.exec,
            self.algo,
            "lsj,jtk->lstk",
            mps.tensor(j),
            mps.tensor(j + 1),
        )?;

        let heff = EffectiveHam {
            exec: self.exec,
            algo: self.algo,
            left: &left,
            w1: self.mpo.tensor(j),
            w2: self.mpo.tensor(j + 1),
            right: &right,
        };
        // upload the environment/MPO operands once per local eigensolve:
        // every Davidson matvec contracts against the resident handles
        // (zero operand re-shipping on the multi-process backend), with
        // bitwise-identical numerics; released after the solve (a failed
        // solve drops it, which frees just the same)
        let rham = heff.upload()?;
        let (dres, mut x) = davidson(|v| rham.apply(v), &x0, params.davidson)?;
        rham.release()?;

        // noise injection: perturb with a random tensor over *all* allowed
        // blocks so sectors absent from x regain weight before the split
        if params.noise > 0.0 {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(params.davidson.seed ^ (j as u64) << 8);
            let mut pert =
                tt_blocks::BlockSparseTensor::random(x.indices().to_vec(), x.flux(), &mut rng);
            let pn = pert.norm();
            if pn > 0.0 {
                pert.scale_mut(params.noise * x.norm() / pn);
                x.axpy(1.0, &pert)?;
            }
        }

        // split and truncate
        let svd = block_svd(
            self.exec,
            &x,
            &[0, 1],
            &[2, 3],
            TruncSpec {
                max_rank: params.max_m,
                cutoff: params.cutoff,
                min_keep: 1,
            },
        )?;

        let bond_dim = svd.s.bond_dim();
        if moving_right {
            let mut svt = svd.vt;
            scale_bond(&mut svt, 0, &svd.s, false)?;
            // renormalize (truncation removes weight)
            let nrm = svt.norm();
            if nrm > 0.0 {
                svt.scale_mut(1.0 / nrm);
            }
            mps.set_tensor(j, svd.u);
            mps.set_tensor(j + 1, svt);
            envs.left[j + 1] = Some(extend_left(
                self.exec,
                self.algo,
                &left,
                mps.tensor(j),
                self.mpo.tensor(j),
            )?);
        } else {
            let mut us = svd.u;
            scale_bond(&mut us, 2, &svd.s, false)?;
            let nrm = us.norm();
            if nrm > 0.0 {
                us.scale_mut(1.0 / nrm);
            }
            mps.set_tensor(j, us);
            mps.set_tensor(j + 1, svd.vt);
            envs.right[j] = Some(extend_right(
                self.exec,
                self.algo,
                &right,
                mps.tensor(j + 1),
                self.mpo.tensor(j + 1),
            )?);
        }

        Ok(SiteRecord {
            site: j,
            seconds: start.elapsed().as_secs_f64(),
            flops: self.exec.total_flops() - flops0,
            matvecs: dres.matvecs,
            energy: dres.lambda,
            trunc_err: svd.trunc_err,
            bond_dim,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ed::ground_state_energy;
    use tt_blocks::QN;
    use tt_mps::{heisenberg_j1j2, neel_state, Lattice, Mps, SpinHalf};

    fn solve_chain(n: usize, sweeps: usize, m: usize) -> (f64, f64) {
        let lat = Lattice::chain(n);
        let builder = heisenberg_j1j2(&lat, 1.0, 0.0);
        let mpo = builder.build().unwrap();
        let mut mps = Mps::product_state(&SpinHalf, &neel_state(n)).unwrap();
        let exec = Executor::local();
        let dmrg = Dmrg::new(&exec, Algorithm::List, &mpo);
        let dav = DavidsonOptions {
            max_iter: 6,
            max_subspace: 3,
            ..Default::default()
        };
        let schedule = Schedule {
            sweeps: (0..sweeps)
                .map(|_| SweepParams {
                    max_m: m,
                    cutoff: 1e-12,
                    davidson: dav,
                    noise: 0.0,
                })
                .collect(),
        };
        let run = dmrg.run(&mut mps, &schedule).unwrap();
        let terms = builder.expanded().unwrap();
        let e_ed = ground_state_energy(&SpinHalf, n, &terms, QN::one(0)).unwrap();
        (run.energy, e_ed)
    }

    /// Self-exec worker hook for the multi-process backend test below:
    /// when this test binary is re-executed as a worker this becomes the
    /// serve loop; in a normal run it is a no-op pass.
    #[test]
    fn spawned_worker_entry() {
        tt_dist::maybe_serve();
    }

    #[cfg(unix)]
    #[test]
    fn sweep_over_multi_process_backend_is_bitwise_identical() {
        // the driver code is backend-agnostic: the same Dmrg::run over the
        // shared-nothing multi-process executor must reproduce the local
        // sequential energies bit for bit
        let lat = Lattice::chain(6);
        let mpo = heisenberg_j1j2(&lat, 1.0, 0.0).build().unwrap();
        let schedule = Schedule::ramp(&[8, 16], 1, 1e-12);
        let run = |exec: &Executor| {
            let mut mps = Mps::product_state(&SpinHalf, &neel_state(6)).unwrap();
            Dmrg::new(exec, Algorithm::List, &mpo)
                .run(&mut mps, &schedule)
                .unwrap()
        };
        let local = run(&Executor::local());
        let mp_exec = Executor::multi_process(
            tt_dist::Machine::local(),
            1,
            2,
            tt_dist::SpawnSpec::SelfExec(vec!["spawned_worker_entry".into()]),
        )
        .unwrap();
        let mp = run(&mp_exec);
        assert_eq!(local.energy.to_bits(), mp.energy.to_bits());
        for (a, b) in local.energies().iter().zip(mp.energies()) {
            assert_eq!(a.to_bits(), b.to_bits(), "per-sweep energies");
        }
    }

    #[test]
    fn heisenberg_chain_n4_matches_ed() {
        let (e_dmrg, e_ed) = solve_chain(4, 4, 16);
        assert!((e_dmrg - e_ed).abs() < 1e-8, "DMRG {e_dmrg} vs ED {e_ed}");
    }

    #[test]
    fn heisenberg_chain_n8_matches_ed() {
        let (e_dmrg, e_ed) = solve_chain(8, 6, 32);
        assert!((e_dmrg - e_ed).abs() < 1e-7, "DMRG {e_dmrg} vs ED {e_ed}");
    }

    #[test]
    fn energy_decreases_over_sweeps() {
        let lat = Lattice::chain(6);
        let mpo = heisenberg_j1j2(&lat, 1.0, 0.0).build().unwrap();
        let mut mps = Mps::product_state(&SpinHalf, &neel_state(6)).unwrap();
        let exec = Executor::local();
        let dmrg = Dmrg::new(&exec, Algorithm::List, &mpo);
        let schedule = Schedule::ramp(&[8, 16], 2, 1e-12);
        let run = dmrg.run(&mut mps, &schedule).unwrap();
        let es = run.energies();
        for w in es.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "energy must not increase: {es:?}");
        }
    }

    #[test]
    fn truncation_error_reported() {
        let lat = Lattice::chain(8);
        let mpo = heisenberg_j1j2(&lat, 1.0, 0.0).build().unwrap();
        let mut mps = Mps::product_state(&SpinHalf, &neel_state(8)).unwrap();
        let exec = Executor::local();
        let dmrg = Dmrg::new(&exec, Algorithm::List, &mpo);
        // tight cap forces truncation
        let schedule = Schedule::ramp(&[4], 3, 1e-12);
        let run = dmrg.run(&mut mps, &schedule).unwrap();
        let last = run.sweeps.last().unwrap();
        assert!(last.max_bond_dim <= 4);
        assert!(last.max_trunc_err > 0.0, "m=4 must truncate on N=8");
    }

    #[test]
    fn records_are_complete() {
        let lat = Lattice::chain(5);
        let mpo = heisenberg_j1j2(&lat, 1.0, 0.0).build().unwrap();
        let mut mps = Mps::product_state(&SpinHalf, &neel_state(5)).unwrap();
        let exec = Executor::local();
        let dmrg = Dmrg::new(&exec, Algorithm::List, &mpo);
        let schedule = Schedule::ramp(&[8], 1, 1e-12);
        let run = dmrg.run(&mut mps, &schedule).unwrap();
        let rec = &run.sweeps[0];
        // (n-1) optimizations each direction
        assert_eq!(rec.sites.len(), 2 * 4);
        assert!(rec.sites.iter().all(|s| s.flops > 0));
        assert!(rec.seconds > 0.0);
    }

    #[test]
    fn preserves_quantum_number() {
        let lat = Lattice::chain(6);
        let mpo = heisenberg_j1j2(&lat, 1.0, 0.0).build().unwrap();
        let mut mps = Mps::product_state(&SpinHalf, &neel_state(6)).unwrap();
        let exec = Executor::local();
        let dmrg = Dmrg::new(&exec, Algorithm::List, &mpo);
        let schedule = Schedule::ramp(&[16], 2, 1e-12);
        dmrg.run(&mut mps, &schedule).unwrap();
        assert!(mps.total_qn().is_zero(), "Sz must stay 0");
        assert!((mps.norm() - 1.0).abs() < 1e-8);
    }
}
