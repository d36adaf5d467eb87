//! Fault tolerance of the multi-process backend: deterministic fault
//! injection ([`FaultPlan`]) kills workers, corrupts replies and vetoes
//! respawns mid-run; the runtime must detect, recover (respawn + journal
//! replay) or degrade (retire onto survivors), and still land on numbers
//! bitwise-identical to the fault-free in-process run.

use dmrg::Dmrg;
use std::time::Duration;
use tt_blocks::contract::contract_list;
use tt_blocks::{Algorithm, Arrow, BlockSparseTensor, QnIndex, QN};
use tt_dist::{ExecMode, Executor, FaultPlan, Machine, ProcOptions, SpawnSpec};
use tt_integration::test_schedule;
use tt_mps::{heisenberg_j1j2, neel_state, Lattice, Mps, SpinHalf};

/// Self-exec worker hook: when the multi-process backend re-executes this
/// test binary with the `spawned_worker_entry` filter, this "test" becomes
/// the worker serve loop (and exits the process when done). In a normal
/// test run the worker environment is absent and this is a no-op pass.
#[test]
fn spawned_worker_entry() {
    tt_dist::maybe_serve();
}

fn spec() -> SpawnSpec {
    SpawnSpec::SelfExec(vec!["spawned_worker_entry".into()])
}

/// Multi-process executor over `workers` ranks with a fault plan.
fn faulty_executor(workers: usize, plan: &str) -> Executor {
    let opts = ProcOptions {
        plan: Some(FaultPlan::parse(plan).expect("valid fault plan")),
        deadline: Some(Duration::from_secs(60)),
    };
    Executor::multi_process_opts(Machine::blue_waters(2), 1, workers, spec(), opts)
        .expect("spawn multi-process workers")
}

fn run_dmrg(exec: &Executor, algo: Algorithm) -> dmrg::Result<dmrg::DmrgRun> {
    let lat = Lattice::chain(6);
    let mpo = heisenberg_j1j2(&lat, 1.0, 0.0).build().expect("mpo");
    let mut psi = Mps::product_state(&SpinHalf, &neel_state(6)).expect("state");
    Dmrg::new(exec, algo, &mpo).run(&mut psi, &test_schedule(&[8, 16], 2))
}

fn run_energy(exec: &Executor, algo: Algorithm) -> f64 {
    run_dmrg(exec, algo).expect("dmrg").energy
}

#[test]
fn killed_rank_mid_dmrg_recovers_bitwise() {
    // The acceptance gate: kill rank 1 partway into a p=3 multi-process
    // DMRG sweep; the runtime respawns the worker, replays its journal
    // and re-issues the interrupted superstep — and the final energy is
    // bitwise-identical to the uninterrupted in-process run.
    let seq = Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Sequential);
    let clean = Executor::multi_process(Machine::blue_waters(2), 1, 3, spec()).expect("spawn");
    let faulty = faulty_executor(3, "kill:1@40");

    let e_seq = run_energy(&seq, Algorithm::SparseSparse);
    let e_clean = run_energy(&clean, Algorithm::SparseSparse);
    let e_faulty = run_energy(&faulty, Algorithm::SparseSparse);

    assert_eq!(
        e_seq.to_bits(),
        e_faulty.to_bits(),
        "recovered run must be bitwise-identical to the serial run"
    );
    assert_eq!(e_seq.to_bits(), e_clean.to_bits());
    assert!(
        faulty.recovery_bytes() > 0,
        "the injected kill must actually have fired and been recovered"
    );
    assert_eq!(
        clean.recovery_bytes(),
        0,
        "fault-free run moves no recovery bytes"
    );
    // the determinism contract extends to the meters: driver-side charges
    // and the regular data-plane byte counters are unaffected by recovery
    assert_eq!(clean.total_flops(), faulty.total_flops());
    assert_eq!(clean.operand_bytes(), faulty.operand_bytes());
    assert_eq!(clean.result_bytes(), faulty.result_bytes());
}

#[test]
fn exhausted_respawns_degrade_and_stay_bitwise() {
    // Same kill, but respawn is vetoed: rank 1 retires onto a surviving
    // worker (logical placement unchanged) and the run completes — no
    // abort, same bits.
    let seq = Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Sequential);
    let degraded = faulty_executor(3, "kill:1@40,nospawn:1");
    let e_seq = run_energy(&seq, Algorithm::SparseDense);
    let e_deg = run_energy(&degraded, Algorithm::SparseDense);
    assert_eq!(
        e_seq.to_bits(),
        e_deg.to_bits(),
        "degraded run must still be bitwise-identical"
    );
    assert!(degraded.recovery_bytes() > 0);
}

#[test]
fn unrecoverable_kill_is_a_typed_fault_through_the_sweep() {
    // One worker, killed, respawn vetoed: there is nowhere to recover to,
    // so the sweep must fail — and what reaches `Dmrg::run`'s caller is
    // still the transport's typed fault (what happened, on which rank),
    // four crates up, not prose. `ProcTransport::retire` raises it when no
    // worker survives.
    let deadline = Duration::from_secs(60);
    for algo in [
        Algorithm::List,
        Algorithm::SparseDense,
        Algorithm::SparseSparse,
    ] {
        let exec = faulty_executor(1, "kill:0@40,nospawn:0");
        let started = std::time::Instant::now();
        let err = run_dmrg(&exec, algo).expect_err("a sweep cannot outlive its only worker");
        assert!(started.elapsed() < deadline, "{algo}: detected in time");
        let fault = err
            .as_fault()
            .unwrap_or_else(|| panic!("{algo}: not a typed fault: {err}"));
        assert_eq!(fault.kind, tt_dist::FaultKind::WorkerDied, "{algo}: {err}");
        assert_eq!(fault.rank, Some(0), "{algo}: {err}");
    }
}

/// A block-sparse pair with enough sectors to fan work out over 3 ranks.
fn block_fixture() -> (BlockSparseTensor, BlockSparseTensor) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let bond = |arrow, dims: &[(i32, usize)]| {
        QnIndex::new(arrow, dims.iter().map(|&(q, d)| (QN::one(q), d)).collect())
    };
    let mut rng = StdRng::seed_from_u64(2024);
    let s = bond(Arrow::In, &[(1, 1), (-1, 1)]);
    let mid = bond(Arrow::Out, &[(-2, 3), (0, 4), (2, 3)]);
    let x = BlockSparseTensor::random(
        vec![bond(Arrow::In, &[(-1, 2), (1, 2)]), s.clone(), mid.clone()],
        QN::zero(1),
        &mut rng,
    );
    let y = BlockSparseTensor::random(
        vec![
            mid.dual(),
            s,
            bond(Arrow::Out, &[(-3, 1), (-1, 3), (1, 3), (3, 1)]),
        ],
        QN::zero(1),
        &mut rng,
    );
    (x, y)
}

#[test]
fn killed_rank_mid_contraction_tensors_are_bitwise() {
    // Tensor-level (not just scalar-energy) recovery equivalence: a kill
    // during the block-list contraction still yields bitwise-equal dense
    // data. The whole list is one chain superstep of pair steps on the
    // chain's anchor rank, rank 0: its second send dies mid-call.
    let (x, y) = block_fixture();
    let seq = Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Sequential);
    let faulty = faulty_executor(3, "kill:0@2");
    let c_seq = contract_list(&seq, "isj,jtk->istk", &x, &y).unwrap();
    let c_mp = contract_list(&faulty, "isj,jtk->istk", &x, &y).unwrap();
    assert_eq!(c_seq.to_dense().data(), c_mp.to_dense().data());
    assert!(faulty.recovery_bytes() > 0, "the kill must have fired");
}

#[test]
fn corrupted_reply_mid_dmrg_recovers_bitwise() {
    // A corrupted reply frame is a Decode fault: the rank's state is
    // suspect, so it respawns and replays like a crash — same bits out.
    let seq = Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Sequential);
    let faulty = faulty_executor(3, "corrupt:0@25");
    let e_seq = run_energy(&seq, Algorithm::List);
    let e_mp = run_energy(&faulty, Algorithm::List);
    assert_eq!(e_seq.to_bits(), e_mp.to_bits());
    assert!(faulty.recovery_bytes() > 0);
}

#[test]
#[ignore = "scaled suite (nightly CI): seeded kill-at-random-point sweep over many fault plans"]
fn seeded_random_kills_always_recover_bitwise() {
    // Nightly: derive (rank, nth-send) kill points from fixed seeds via
    // xorshift and require bitwise recovery for every one. Plans whose
    // kill point lies beyond the run's send count simply never fire —
    // those runs must also stay bitwise (and move no recovery bytes).
    let seq = Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Sequential);
    let e_seq = run_energy(&seq, Algorithm::SparseSparse);
    for seed in [3u64, 17, 2024, 90210] {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let rank = (next() % 3) as usize;
        let nth = next() % 400 + 1;
        let plan = format!("kill:{rank}@{nth}");
        let faulty = faulty_executor(3, &plan);
        let e = run_energy(&faulty, Algorithm::SparseSparse);
        assert_eq!(
            e_seq.to_bits(),
            e.to_bits(),
            "seed {seed} (plan {plan}): recovered energy must be bitwise-identical"
        );
    }
}
/// Every sweep's energy plus the meters of a whole `[8, 16] x 2` schedule.
fn run_metered(exec: &Executor, algo: Algorithm) -> (Vec<u64>, u64, tt_dist::SimTime, u64, u64) {
    let lat = Lattice::chain(6);
    let mpo = heisenberg_j1j2(&lat, 1.0, 0.0).build().expect("mpo");
    let mut psi = Mps::product_state(&SpinHalf, &neel_state(6)).expect("state");
    let run = Dmrg::new(exec, algo, &mpo)
        .run(&mut psi, &test_schedule(&[8, 16], 2))
        .expect("dmrg");
    (
        run.energies().into_iter().map(f64::to_bits).collect(),
        exec.total_flops(),
        exec.sim_time(),
        exec.operand_bytes(),
        exec.result_bytes(),
    )
}

#[test]
fn kill_after_collected_chains_replays_only_what_is_live() {
    // Rank 1 takes 748 requests over the four sweeps (of 2 882, either
    // algorithm); the fourth sweep is its requests 619-748, so its 700th
    // falls late in the run, after the first three sweeps' finished
    // t1->t2->t3->y matvec chains have been collected from its journal —
    // sparse-dense chains of dense intermediates, and sparse-sparse chains
    // whose steps store their slots on the rank. Recovery must rebuild the
    // rank from what is left — bitwise — and replay only that: at most a
    // tenth of the bytes rank 1's journal ever appended (2 875 of 130 862 B
    // sparse-dense, 3 179 of 175 670 B sparse-sparse). With the journal
    // left uncollected the same plan replays nearly all of them, every
    // chain step the rank had run before the kill: 115 917 of 128 927 B
    // and 161 277 of 173 735 B.
    for algo in [Algorithm::SparseDense, Algorithm::SparseSparse] {
        let clean = Executor::multi_process(Machine::blue_waters(2), 1, 2, spec()).expect("spawn");
        let faulty = faulty_executor(2, "kill:1@700");
        let want = run_metered(&clean, algo);
        let got = run_metered(&faulty, algo);
        assert_eq!(
            want, got,
            "{algo}: energies, flops, sim time, operand and result bytes"
        );
        assert_eq!(clean.recovery_bytes(), 0);
        let recovered = faulty.recovery_bytes();
        let appended = faulty.journal_stats()[1].appended as u64;
        assert!(recovered > 0, "{algo}: the kill must have fired");
        assert!(
            recovered * 10 <= appended,
            "{algo}: replay moved {recovered} bytes of the {appended} rank 1's journal appended"
        );
    }
}
