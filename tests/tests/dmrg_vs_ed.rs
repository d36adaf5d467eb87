//! End-to-end physics validation: DMRG ground-state energies against exact
//! diagonalization for both benchmark systems, across all three
//! block-sparsity algorithms.

use dmrg::{ground_state_energy, hubbard_ed, Dmrg};
use tt_blocks::{Algorithm, QN};
use tt_dist::Executor;
use tt_integration::test_schedule;
use tt_mps::{
    electron_filling, heisenberg_j1j2, hubbard, neel_state, BondKind, Electron, Lattice, Mps,
    SpinHalf,
};

fn spins_case(lat: &Lattice, j2: f64, ms: &[usize], algo: Algorithm) -> (f64, f64) {
    let n = lat.n_sites();
    let builder = heisenberg_j1j2(lat, 1.0, j2);
    let mpo = builder.build().expect("mpo");
    let mut psi = Mps::product_state(&SpinHalf, &neel_state(n)).expect("state");
    let exec = Executor::local();
    let driver = Dmrg::new(&exec, algo, &mpo);
    let run = driver.run(&mut psi, &test_schedule(ms, 2)).expect("dmrg");
    let terms = builder.expanded().expect("terms");
    let exact = ground_state_energy(&SpinHalf, n, &terms, QN::one(0)).expect("ed");
    (run.energy, exact)
}

#[test]
fn heisenberg_chain_all_algorithms() {
    let lat = Lattice::chain(8);
    for algo in [
        Algorithm::List,
        Algorithm::SparseDense,
        Algorithm::SparseSparse,
    ] {
        let (e, exact) = spins_case(&lat, 0.0, &[8, 16, 32], algo);
        assert!((e - exact).abs() < 1e-7, "{algo}: DMRG {e} vs ED {exact}");
    }
}

#[test]
fn majumdar_ghosh_chain_all_algorithms() {
    // an oracle that is none of our code: at J2 = J1/2 the open chain of
    // even n has the nearest-neighbour dimer product state as its exact
    // ground state, −3/4·J1 per dimer
    let lat = Lattice::chain(8);
    for algo in [
        Algorithm::List,
        Algorithm::SparseDense,
        Algorithm::SparseSparse,
    ] {
        let (e, exact) = spins_case(&lat, 0.5, &[8, 16, 32], algo);
        assert!((e + 3.0).abs() < 1e-8, "{algo}: DMRG {e} vs −3n/8");
        assert!((exact + 3.0).abs() < 1e-8, "{algo}: ED {exact} vs −3n/8");
    }
}

#[test]
fn j1j2_ladder_frustrated() {
    // 2-leg ladder with J2 = 0.5 — the paper's frustrated coupling
    let lat = Lattice::square_cylinder(4, 2);
    let (e, exact) = spins_case(&lat, 0.5, &[8, 16, 32], Algorithm::List);
    assert!((e - exact).abs() < 1e-6, "DMRG {e} vs ED {exact}");
}

#[test]
fn j1j2_cylinder_3x4() {
    let lat = Lattice::square_cylinder(3, 4);
    let (e, exact) = spins_case(&lat, 0.5, &[16, 32, 64], Algorithm::List);
    assert!((e - exact).abs() < 1e-6, "DMRG {e} vs ED {exact}");
}

#[test]
fn hubbard_chain_vs_both_ed_paths() {
    let lat = Lattice::chain(4);
    let builder = hubbard(&lat, 1.0, 8.5);
    let mpo = builder.build().expect("mpo");
    let mut psi = Mps::product_state(&Electron, &electron_filling(4, 2, 2)).expect("state");
    let exec = Executor::local();
    let driver = Dmrg::new(&exec, Algorithm::List, &mpo);
    let run = driver
        .run(&mut psi, &test_schedule(&[8, 16, 32], 2))
        .expect("dmrg");
    // term-based ED (same JW expansion)
    let terms = builder.expanded().expect("terms");
    let e_terms = ground_state_energy(&Electron, 4, &terms, QN::two(2, 2)).expect("ed");
    // independent bitstring ED
    let bonds: Vec<(usize, usize)> = lat.bonds_of(BondKind::Nearest).collect();
    let e_bits = hubbard_ed(4, &bonds, 1.0, 8.5, 2, 2).expect("ed");
    assert!((e_terms - e_bits).abs() < 1e-8, "ED paths disagree");
    assert!(
        (run.energy - e_bits).abs() < 1e-6,
        "DMRG {} vs ED {e_bits}",
        run.energy
    );
}

#[test]
fn hubbard_triangular_frustrated_with_noise() {
    // the case that *requires* the noise term: triangular 3x2 at U=8.5
    let lat = Lattice::triangular_cylinder_xc(3, 2);
    let builder = hubbard(&lat, 1.0, 8.5);
    let mpo = builder.build().expect("mpo");
    let mut psi = Mps::product_state(&Electron, &electron_filling(6, 3, 3)).expect("state");
    let exec = Executor::local();
    let driver = Dmrg::new(&exec, Algorithm::SparseSparse, &mpo);
    let run = driver
        .run(&mut psi, &test_schedule(&[8, 16, 32, 64], 2))
        .expect("dmrg");
    let bonds: Vec<(usize, usize)> = lat.bonds_of(BondKind::Nearest).collect();
    let exact = hubbard_ed(6, &bonds, 1.0, 8.5, 3, 3).expect("ed");
    assert!(
        (run.energy - exact).abs() < 1e-5,
        "DMRG {} vs ED {exact}",
        run.energy
    );
}

#[test]
fn quantum_numbers_conserved_through_dmrg() {
    let lat = Lattice::chain(6);
    let mpo = hubbard(&lat, 1.0, 4.0).build().expect("mpo");
    let mut psi = Mps::product_state(&Electron, &electron_filling(6, 2, 3)).expect("state");
    assert_eq!(psi.total_qn(), QN::two(2, 3));
    let exec = Executor::local();
    let driver = Dmrg::new(&exec, Algorithm::List, &mpo);
    driver
        .run(&mut psi, &test_schedule(&[8, 16], 2))
        .expect("dmrg");
    assert_eq!(psi.total_qn(), QN::two(2, 3), "sector must be preserved");
    assert!((psi.norm() - 1.0).abs() < 1e-8);
}
