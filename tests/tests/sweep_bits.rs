//! A sweep's bits, pinned: short DMRG sweeps of J1–J2 spins and triangular
//! Hubbard under every algorithm (List, sparse-dense, sparse-sparse) on
//! every backend (Sequential, Threaded, two worker processes), each
//! reduced to one line — final energy bits, `total_flops`, supersteps,
//! `sim_time` bits, operand and result bytes — and compared with the
//! committed `sweep_bits_golden.txt`.
//!
//! A refactor that promises "same bits" leaves the golden byte-identical.
//! A change that moves bits on purpose pastes the table the failing test
//! prints over its section of the golden, and the diff is the review.
//!
//! The fast table runs in debug at m ≤ 32. The ignored table runs the
//! `BENCHMARK.json` sweep workloads (and `spins-list-mp2`) at their sizes,
//! seeds 1–3, with `bench_e2e`'s warm-state recipe:
//! `cargo test -r -p tt-integration --test sweep_bits -- --include-ignored`.
//!
//! Bits are promised per SIMD variant, and the golden holds the `avx2`
//! ones (what CI pins and what auto-dispatch picks on an AVX2 host); under
//! another variant the tables are printed and not compared.

use dmrg::{DavidsonOptions, Dmrg, Schedule, SweepParams};
use tt_blocks::Algorithm;
use tt_dist::{ExecMode, Executor, Machine, SpawnSpec};
use tt_mps::{
    electron_filling, heisenberg_j1j2, hubbard, neel_state, Electron, Lattice, Mpo, Mps, SpinHalf,
};
use tt_tensor::{simd_level, SimdLevel};

/// Self-exec worker hook: when the multi-process backend re-executes this
/// test binary with the `spawned_worker_entry` filter, this "test" becomes
/// the worker serve loop (and exits the process when done). In a normal
/// test run the worker environment is absent and this is a no-op pass.
#[test]
fn spawned_worker_entry() {
    tt_dist::maybe_serve();
}

const GOLDEN: &str = include_str!("sweep_bits_golden.txt");

#[derive(Clone, Copy)]
enum System {
    /// J1–J2 Heisenberg (J2 = 0.5) on a square cylinder.
    Spins,
    /// Triangular Hubbard (t = 1, U = 8.5, compressed MPO) on an XC cylinder.
    Electrons,
}

#[derive(Clone, Copy)]
enum Backend {
    Sequential,
    Threaded,
    TwoProcesses,
}

impl Backend {
    fn executor(self, machine: Machine) -> Executor {
        match self {
            Backend::Sequential => Executor::with_machine(machine, 1, ExecMode::Sequential),
            Backend::Threaded => Executor::with_machine(machine, 1, ExecMode::Threaded),
            Backend::TwoProcesses => Executor::multi_process(
                machine,
                1,
                2,
                SpawnSpec::SelfExec(vec!["spawned_worker_entry".into()]),
            )
            .expect("spawn two worker processes"),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Backend::Sequential => "seq",
            Backend::Threaded => "thr",
            Backend::TwoProcesses => "mp2",
        }
    }
}

fn algo_name(algo: Algorithm) -> &'static str {
    match algo {
        Algorithm::List => "list",
        Algorithm::SparseDense => "sd",
        Algorithm::SparseSparse => "ss",
    }
}

/// `bench_e2e`'s sweep parameters: a short Davidson, no noise.
fn sweep_params(m: usize, seed: u64) -> SweepParams {
    SweepParams {
        max_m: m,
        cutoff: 1e-12,
        davidson: DavidsonOptions {
            max_iter: 4,
            max_subspace: 2,
            tol: 1e-9,
            seed,
        },
        noise: 0.0,
    }
}

/// The MPO on an `lx × ly` cylinder and the warm state `bench_e2e` sweeps
/// from: a List ramp on `Executor::local()` through m = 8, 16, … up to
/// `m`, with noise on every sweep but the last.
fn warm((system, lx, ly): (System, usize, usize), m: usize, seed: u64) -> (Mpo, Mps) {
    let exec = Executor::local();
    let (mpo, mut mps) = match system {
        System::Spins => {
            let lattice = Lattice::square_cylinder(lx, ly);
            let n = lattice.n_sites();
            (
                heisenberg_j1j2(&lattice, 1.0, 0.5).build().expect("mpo"),
                Mps::product_state(&SpinHalf, &neel_state(n)).expect("state"),
            )
        }
        System::Electrons => {
            let lattice = Lattice::triangular_cylinder_xc(lx, ly);
            let n = lattice.n_sites();
            let mut mpo = hubbard(&lattice, 1.0, 8.5).build().expect("mpo");
            mpo.compress(&exec, 1e-13).expect("compress");
            (
                mpo,
                Mps::product_state(&Electron, &electron_filling(n, n / 2, n / 2)).expect("state"),
            )
        }
    };
    let mut ms = Vec::new();
    let mut mi = 8;
    while mi < m {
        ms.push(mi);
        mi *= 2;
    }
    ms.push(m);
    let last = ms.len() - 1;
    let schedule = Schedule {
        sweeps: ms
            .iter()
            .enumerate()
            .map(|(i, &mi)| SweepParams {
                noise: if i < last { 1e-5 } else { 0.0 },
                ..sweep_params(mi, seed)
            })
            .collect(),
    };
    Dmrg::new(&exec, Algorithm::List, &mpo)
        .run(&mut mps, &schedule)
        .expect("warm-up");
    (mpo, mps)
}

/// One sweep of `algo` at `m` from `state` on a fresh `backend` executor
/// over one node of `machine`, as one golden line.
fn sweep_line(
    name: &str,
    (mpo, state): &(Mpo, Mps),
    (algo, backend, machine): (Algorithm, Backend, Machine),
    m: usize,
    seed: u64,
) -> String {
    let exec = backend.executor(machine);
    let mut psi = state.clone();
    let schedule = Schedule {
        sweeps: vec![sweep_params(m, seed)],
    };
    let run = Dmrg::new(&exec, algo, mpo)
        .run(&mut psi, &schedule)
        .expect("sweep");
    format!(
        "{name} {} {}: energy {:016x} flops {} supersteps {} sim {:016x} operand_bytes {} result_bytes {}",
        algo_name(algo),
        backend.name(),
        run.energy.to_bits(),
        exec.total_flops(),
        exec.supersteps(),
        exec.sim_time().total().to_bits(),
        exec.operand_bytes(),
        exec.result_bytes(),
    )
}

/// The golden's `[section]` lines.
fn golden_section(section: &str) -> String {
    let head = format!("[{section}]");
    GOLDEN
        .lines()
        .skip_while(|l| *l != head)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty())
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Compare `lines` with the golden's `section`; on a mismatch print the
/// whole table to paste over it.
fn check(section: &str, lines: &[String]) {
    let got: String = lines.iter().map(|l| format!("{l}\n")).collect();
    if simd_level() != SimdLevel::Avx2 {
        println!(
            "[{section}] under {}, not compared (the golden holds avx2 bits):\n{got}",
            simd_level().name()
        );
        return;
    }
    let want = golden_section(section);
    assert!(
        got == want,
        "sweep bits changed; the full [{section}] table is:\n[{section}]\n{got}"
    );
}

const ALGOS: [Algorithm; 3] = [
    Algorithm::List,
    Algorithm::SparseDense,
    Algorithm::SparseSparse,
];
const BACKENDS: [Backend; 3] = [
    Backend::Sequential,
    Backend::Threaded,
    Backend::TwoProcesses,
];

#[test]
fn short_sweeps_keep_their_bits() {
    let cases = [
        ("spins-4x2-m16", (System::Spins, 4, 2), 16),
        ("electrons-3x2-m16", (System::Electrons, 3, 2), 16),
    ];
    let mut lines = Vec::new();
    for (name, lattice, m) in cases {
        let state = warm(lattice, m, 1);
        for algo in ALGOS {
            for backend in BACKENDS {
                // two simulated ranks, so the α–β model charges supersteps
                let run = (algo, backend, Machine::blue_waters(2));
                lines.push(sweep_line(name, &state, run, m, 1));
            }
        }
    }
    check("fast", &lines);
}

#[test]
#[ignore = "benchmark sizes: run in release"]
fn benchmark_sweeps_keep_their_bits() {
    use Algorithm::{List, SparseDense, SparseSparse};
    use Backend::{Sequential, TwoProcesses};
    // (name, lattice, m, algorithm, backend), as bench_e2e runs them
    let (spins, electrons) = ((System::Spins, 6, 4), (System::Electrons, 4, 3));
    let workloads = [
        ("spins-list-seq", spins, 128, List, Sequential),
        ("spins-sd-seq", spins, 64, SparseDense, Sequential),
        ("electrons-ss-seq", electrons, 32, SparseSparse, Sequential),
        ("spins-list-mp2", spins, 8, List, TwoProcesses),
    ];
    let mut lines = Vec::new();
    for (name, lattice, m, algo, backend) in workloads {
        for seed in 1..=3 {
            let state = warm(lattice, m, seed);
            let name = format!("{name} seed {seed}");
            let run = (algo, backend, Machine::local());
            lines.push(sweep_line(&name, &state, run, m, seed));
        }
    }
    check("benchmark", &lines);
}
