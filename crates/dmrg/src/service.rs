//! The DMRG side of the multi-tenant solve service: maps
//! [`tt_dist::service`] job specs onto this crate's sweep driver.
//!
//! The daemon in `tt-dist` is physics-free — it schedules jobs, installs
//! per-job cost scopes and streams events, but delegates the actual solve
//! to a [`SolveRunner`]. [`DmrgSolveRunner`] is that implementation: it
//! builds the requested Hamiltonian and initial product state, then runs
//! the bond-dimension ramp **one sweep at a time**, calling
//! [`JobCtx::checkpoint`] before each sweep (cancellation + resident-budget
//! enforcement points) and [`JobCtx::sweep_done`] after (streamed progress).
//!
//! [`run_reference`] executes the *identical* operation sequence without a
//! service context. Because the simulated runtime is bit-for-bit
//! deterministic and the service meters each job through a fresh
//! [`CostTracker`](tt_dist::CostTracker) charge book, a job's reported
//! energies and meters are bitwise-equal to `run_reference` on a fresh
//! in-process executor — the acceptance check of the multi-tenant design.

use crate::davidson::DavidsonOptions;
use crate::sweep::{Dmrg, Schedule, SweepParams};
use tt_blocks::Algorithm;
use tt_dist::service::{
    AlgoSpec, DmrgJobSpec, JobCtx, JobError, ModelSpec, SolveOutcome, SolveRunner,
};
use tt_dist::Executor;
use tt_mps::{
    electron_filling, heisenberg_j1j2, hubbard, neel_state, Electron, Lattice, Mpo, Mps, SpinHalf,
};

/// The `dmrg` crate's [`SolveRunner`]: hand an `Arc<DmrgSolveRunner>` to
/// [`tt_dist::service::Service::start`] to get a DMRG-capable daemon.
pub struct DmrgSolveRunner;

impl SolveRunner for DmrgSolveRunner {
    fn run(
        &self,
        spec: &DmrgJobSpec,
        exec: &Executor,
        ctx: &JobCtx,
    ) -> std::result::Result<SolveOutcome, JobError> {
        run_spec(spec, exec, Some(ctx))
    }
}

/// Run `spec` serially on `exec` with no service context — the bitwise
/// reference for a service job's energies and per-job meters. Use a fresh
/// in-process executor ([`Executor::local`]) so its charge book starts
/// empty, exactly like the job's scoped book.
pub fn run_reference(
    spec: &DmrgJobSpec,
    exec: &Executor,
) -> std::result::Result<SolveOutcome, JobError> {
    run_spec(spec, exec, None)
}

fn algorithm(a: AlgoSpec) -> Algorithm {
    match a {
        AlgoSpec::List => Algorithm::List,
        AlgoSpec::SparseDense => Algorithm::SparseDense,
        AlgoSpec::SparseSparse => Algorithm::SparseSparse,
    }
}

/// The most sites a job's chain may have: far above any solve this
/// service runs, far below a size whose lattice, MPO and state could not be
/// allocated (a failed allocation aborts the daemon).
const MAX_SITES: usize = 4096;

/// The site count `n` of a job's model, refused unless `2 ≤ n ≤ MAX_SITES`.
fn sites(n: u64) -> std::result::Result<usize, JobError> {
    match usize::try_from(n) {
        Ok(n) if (2..=MAX_SITES).contains(&n) => Ok(n),
        _ => Err(JobError::Failed(format!(
            "a chain takes 2 to {MAX_SITES} sites, got {n}"
        ))),
    }
}

/// Build the requested Hamiltonian MPO and initial product state.
fn build_problem(spec: &DmrgJobSpec) -> std::result::Result<(Mpo, Mps), JobError> {
    let fail = |what: &str, e: &dyn std::fmt::Display| JobError::Failed(format!("{what}: {e}"));
    match spec.model {
        ModelSpec::HeisenbergChain { n, j2 } => {
            let n = sites(n)?;
            let lat = Lattice::chain(n);
            let mpo = heisenberg_j1j2(&lat, 1.0, j2)
                .build()
                .map_err(|e| fail("heisenberg mpo", &e))?;
            let psi = Mps::product_state(&SpinHalf, &neel_state(n))
                .map_err(|e| fail("neel state", &e))?;
            Ok((mpo, psi))
        }
        ModelSpec::HubbardChain { n, u } => {
            let n = sites(n)?;
            let lat = Lattice::chain(n);
            let mpo = hubbard(&lat, 1.0, u)
                .build()
                .map_err(|e| fail("hubbard mpo", &e))?;
            let psi = Mps::product_state(&Electron, &electron_filling(n, n / 2, n / 2))
                .map_err(|e| fail("electron filling", &e))?;
            Ok((mpo, psi))
        }
    }
}

/// The shared sweep loop: one single-sweep [`Schedule`] per (m, repeat)
/// stage so the service can checkpoint and stream between sweeps. The
/// reference path (`ctx = None`) runs the byte-identical sequence.
fn run_spec(
    spec: &DmrgJobSpec,
    exec: &Executor,
    ctx: Option<&JobCtx>,
) -> std::result::Result<SolveOutcome, JobError> {
    if spec.ms.is_empty() {
        return Err(JobError::Failed("empty bond-dimension ramp".into()));
    }
    let (mpo, mut psi) = build_problem(spec)?;
    let driver = Dmrg::new(exec, algorithm(spec.algo), &mpo);
    let davidson = DavidsonOptions {
        max_iter: spec.davidson.max_iter.max(1) as usize,
        max_subspace: spec.davidson.max_subspace.max(2) as usize,
        tol: spec.davidson.tol,
        seed: spec.davidson.seed,
    };
    let stages = spec.ms.len();
    let mut energies = Vec::new();
    let mut energy = f64::NAN;
    for (si, &m) in spec.ms.iter().enumerate() {
        // noise on every ramp stage but the last, so the final energy is
        // from clean sweeps
        let noise = if si + 1 == stages { 0.0 } else { spec.noise };
        for _ in 0..spec.sweeps_per_m.max(1) {
            if let Some(c) = ctx {
                c.checkpoint()?;
            }
            let schedule = Schedule {
                sweeps: vec![SweepParams {
                    max_m: m.max(1) as usize,
                    cutoff: spec.cutoff,
                    davidson,
                    noise,
                }],
            };
            let run = driver
                .run(&mut psi, &schedule)
                .map_err(|e| JobError::Failed(e.to_string()))?;
            energy = run.energy;
            energies.push(energy);
            let max_bond = run
                .sweeps
                .last()
                .map(|s| s.max_bond_dim as u64)
                .unwrap_or(0);
            if let Some(c) = ctx {
                c.sweep_done(energy, max_bond);
            }
        }
    }
    Ok(SolveOutcome { energy, energies })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tt_dist::service::DavidsonSpec;

    fn small_spec() -> DmrgJobSpec {
        DmrgJobSpec {
            model: ModelSpec::HeisenbergChain { n: 6, j2: 0.0 },
            algo: AlgoSpec::List,
            ms: vec![8, 16],
            sweeps_per_m: 1,
            cutoff: 1e-10,
            noise: 0.0,
            davidson: DavidsonSpec {
                max_iter: 4,
                max_subspace: 2,
                tol: 1e-10,
                seed: 0x1234,
            },
            timeout_ms: 0,
            resident_cap_bytes: 0,
        }
    }

    #[test]
    fn reference_solves_heisenberg_chain() {
        let exec = Executor::local();
        let out = run_reference(&small_spec(), &exec).expect("solve");
        assert_eq!(out.energies.len(), 2);
        // 6-site Heisenberg chain ground state: E = -2.493577...
        assert!(
            (out.energy - (-2.493_577_383_7)).abs() < 1e-6,
            "energy {} off the ED value",
            out.energy
        );
    }

    #[test]
    fn reference_is_deterministic() {
        let a = run_reference(&small_spec(), &Executor::local()).expect("solve a");
        let b = run_reference(&small_spec(), &Executor::local()).expect("solve b");
        assert_eq!(a.energy.to_bits(), b.energy.to_bits());
        let bits = |o: &SolveOutcome| o.energies.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn jobs_differing_only_in_j2_solve_different_hamiltonians() {
        let at = |j2| {
            let spec = DmrgJobSpec {
                model: ModelSpec::HeisenbergChain { n: 8, j2 },
                ..small_spec()
            };
            run_reference(&spec, &Executor::local())
                .expect("solve")
                .energy
        };
        let (plain, frustrated) = (at(0.0), at(0.5));
        // j2 = 0.5 is the Majumdar–Ghosh point, E₀ = −3n/8 (to what two
        // short sweeps reach; `dmrg_vs_ed` holds it to 1e-8)
        assert!((frustrated + 3.0).abs() < 1e-6, "energy {frustrated}");
        assert!(
            (plain - frustrated).abs() > 0.1,
            "j2 ignored: {plain} vs {frustrated}"
        );
    }

    #[test]
    fn hubbard_chain_builds_and_solves() {
        let spec = DmrgJobSpec {
            model: ModelSpec::HubbardChain { n: 4, u: 4.0 },
            ms: vec![12],
            ..small_spec()
        };
        let exec = Executor::local();
        let out = run_reference(&spec, &exec).expect("solve");
        assert!(out.energy.is_finite());
    }

    #[test]
    fn bad_specs_are_rejected() {
        let exec = Executor::local();
        let mut s = small_spec();
        s.ms.clear();
        assert!(run_reference(&s, &exec).is_err());
        for n in [0, 1, MAX_SITES as u64 + 1, 1 << 40, u64::MAX] {
            for model in [
                ModelSpec::HeisenbergChain { n, j2: 0.0 },
                ModelSpec::HubbardChain { n, u: 4.0 },
            ] {
                let s = DmrgJobSpec {
                    model,
                    ..small_spec()
                };
                let err = run_reference(&s, &exec).expect_err("a hostile size is refused");
                assert!(
                    matches!(&err, JobError::Failed(why) if why.contains("sites")),
                    "{err:?}"
                );
            }
        }
    }
}
