//! The central systems claim: the simulated distributed runtime computes
//! *exactly* what the serial code computes — same energies, same states —
//! for every algorithm, rank count and execution mode.

use dmrg::Dmrg;
use tt_blocks::contract::contract_list;
use tt_blocks::{block_svd, Algorithm, Arrow, BlockSparseTensor, QnIndex, QN};
use tt_dist::{ExecMode, Executor, Machine, SpawnSpec};
use tt_integration::test_schedule;
use tt_linalg::TruncSpec;
use tt_mps::{heisenberg_j1j2, neel_state, Lattice, Mps, SpinHalf};

/// Self-exec worker hook: when the multi-process backend re-executes this
/// test binary with the `spawned_worker_entry` filter, this "test" becomes
/// the worker serve loop (and exits the process when done). In a normal
/// test run the worker environment is absent and this is a no-op pass.
#[test]
fn spawned_worker_entry() {
    tt_dist::maybe_serve();
}

/// Executor over `workers` real shared-nothing OS worker processes.
fn multi_process_executor(workers: usize) -> Executor {
    Executor::multi_process(
        Machine::blue_waters(2),
        1,
        workers,
        SpawnSpec::SelfExec(vec!["spawned_worker_entry".into()]),
    )
    .expect("spawn multi-process workers")
}

fn run_energy(exec: &Executor, algo: Algorithm) -> f64 {
    let lat = Lattice::chain(6);
    let mpo = heisenberg_j1j2(&lat, 1.0, 0.0).build().expect("mpo");
    let mut psi = Mps::product_state(&SpinHalf, &neel_state(6)).expect("state");
    let driver = Dmrg::new(exec, algo, &mpo);
    driver
        .run(&mut psi, &test_schedule(&[8, 16], 2))
        .expect("dmrg")
        .energy
}

#[test]
fn distributed_runs_match_serial_energy() {
    let reference = run_energy(&Executor::local(), Algorithm::List);
    for algo in [
        Algorithm::List,
        Algorithm::SparseDense,
        Algorithm::SparseSparse,
    ] {
        for nodes in [1usize, 2] {
            let exec = Executor::with_machine(Machine::blue_waters(2), nodes, ExecMode::Sequential);
            let e = run_energy(&exec, algo);
            assert!(
                (e - reference).abs() < 1e-8,
                "{algo} on {nodes} nodes: {e} vs serial {reference}"
            );
        }
    }
}

#[test]
fn threaded_mode_is_bitwise_identical() {
    // Stronger than a tolerance: the threaded executor partitions kernels
    // by disjoint output rows, so every accumulation order is unchanged
    // and whole DMRG runs agree bit for bit.
    let seq = Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Sequential);
    let thr = Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Threaded);
    for algo in [
        Algorithm::List,
        Algorithm::SparseDense,
        Algorithm::SparseSparse,
    ] {
        let e_seq = run_energy(&seq, algo);
        let e_thr = run_energy(&thr, algo);
        assert_eq!(
            e_seq.to_bits(),
            e_thr.to_bits(),
            "{algo:?}: threaded energy must be bitwise equal to sequential"
        );
    }
    // and the cost model reports nonzero machine-dependent counters
    assert!(thr.sim_time().total() > 0.0);
    assert!(thr.supersteps() > 0);
    assert!(thr.total_flops() > 0);
}

/// A two-site-like block tensor with enough sector groups to exercise the
/// pool fan-out in `block_svd`/`contract_list`.
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

/// A sum of three Néel-like product states on six sites: bonds of
/// dimension 3 in several sectors, for canonicalizations with work to do.
fn canonical_fixture() -> Mps {
    let state = |s: &[usize]| Mps::product_state(&SpinHalf, s).expect("state");
    state(&neel_state(6))
        .sum(&state(&[1, 0, 0, 1, 0, 1]))
        .and_then(|s| s.sum(&state(&[0, 0, 1, 1, 1, 0])))
        .expect("sum")
}

/// Left-canonicalize every site but the last of [`canonical_fixture`] on
/// `exec`; the bits of the site tensors, densified.
fn left_canonical(exec: &Executor) -> Vec<Vec<u64>> {
    let mut psi = canonical_fixture();
    psi.canonicalize(exec, psi.n_sites() - 1)
        .expect("canonicalize");
    (0..psi.n_sites())
        .map(|j| {
            psi.tensor(j)
                .to_dense()
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect()
}

#[test]
fn pool_parallel_block_linalg_is_bitwise_identical() {
    // block_svd fans its independent sector groups out over the thread
    // pool in Threaded mode; U, S, Vᵀ — and a canonicalization that runs
    // it at every site — must still match the sequential executor bit for
    // bit (groups collected in order).
    let (x, _) = block_fixture();
    let seq = Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Sequential);
    let thr = Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Threaded);
    let spec = TruncSpec {
        max_rank: 6,
        cutoff: 0.0,
        min_keep: 1,
    };
    let s1 = block_svd(&seq, &x, &[0, 1], &[2], spec).unwrap();
    let s2 = block_svd(&thr, &x, &[0, 1], &[2], spec).unwrap();
    assert_eq!(s1.s, s2.s, "singular values must be bitwise equal");
    assert_eq!(s1.trunc_err.to_bits(), s2.trunc_err.to_bits());
    assert_eq!(s1.u.to_dense().data(), s2.u.to_dense().data());
    assert_eq!(s1.vt.to_dense().data(), s2.vt.to_dense().data());

    assert_eq!(left_canonical(&seq), left_canonical(&thr));
}

#[test]
fn pool_parallel_contract_list_is_bitwise_identical() {
    // the per-block-pair GEMMs run as parallel pool jobs in Threaded mode
    // with ordered accumulation into output blocks
    let (x, y) = block_fixture();
    let seq = Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Sequential);
    let thr = Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Threaded);
    let c1 = contract_list(&seq, "isj,jtk->istk", &x, &y).unwrap();
    let c2 = contract_list(&thr, "isj,jtk->istk", &x, &y).unwrap();
    assert_eq!(c1.to_dense().data(), c2.to_dense().data());
    // and the cost accounting is mode-independent too
    assert_eq!(seq.total_flops(), thr.total_flops());
    assert_eq!(
        seq.sim_time().total().to_bits(),
        thr.sim_time().total().to_bits()
    );
}

#[cfg(unix)]
#[test]
fn multi_process_contract_list_ships_each_block_once_per_pair() {
    // The block pair is the unit of work: a by-value list contraction is
    // a chain of one whole-pair step per matching pair, so each block of
    // each pair travels once, with that pair's task — no operand is cut
    // into row slabs or replicated to a second rank.
    let (x, y) = block_fixture();
    let seq = Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Sequential);
    let mp = multi_process_executor(2);
    let c1 = contract_list(&seq, "isj,jtk->istk", &x, &y).unwrap();
    let c2 = contract_list(&mp, "isj,jtk->istk", &x, &y).unwrap();
    assert_eq!(c1.to_dense().data(), c2.to_dense().data());
    // a pair matches on the contracted label: x's mode 2 against y's mode 0
    let mut expected = 0u64;
    for (kx, bx) in x.blocks() {
        for (_, by) in y.blocks().filter(|(ky, _)| ky[0] == kx[2]) {
            expected += 8 * (bx.len() + by.len()) as u64;
        }
    }
    assert!(expected > 0);
    assert_eq!(mp.operand_bytes(), expected);
}

#[test]
fn volume_balanced_sparse_kernels_bitwise_on_rectangular_blocks() {
    // the sparse-dense / sparse-sparse algorithms flatten block tensors
    // into skewed rectangular sparse operands — exactly the shape the
    // volume-balanced row split exists for
    let (x, y) = block_fixture();
    let seq = Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Sequential);
    let thr = Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Threaded);
    for algo in [Algorithm::SparseDense, Algorithm::SparseSparse] {
        let c1 = tt_blocks::contract(&seq, algo, "isj,jtk->istk", &x, &y).unwrap();
        let c2 = tt_blocks::contract(&thr, algo, "isj,jtk->istk", &x, &y).unwrap();
        assert_eq!(
            c1.to_dense().data(),
            c2.to_dense().data(),
            "{algo}: threaded must be bitwise identical"
        );
    }
}

#[test]
fn multi_process_dmrg_pipeline_is_bitwise_identical() {
    // The central claim of the shared-nothing backend: a whole DMRG run —
    // every contraction, SVD and batch routed over the socket
    // transport to 2 real OS worker processes — lands on bitwise-identical
    // numbers to the in-process Sequential executor.
    let seq = Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Sequential);
    let mp = multi_process_executor(2);
    for algo in [
        Algorithm::List,
        Algorithm::SparseDense,
        Algorithm::SparseSparse,
    ] {
        let e_seq = run_energy(&seq, algo);
        let e_mp = run_energy(&mp, algo);
        assert_eq!(
            e_seq.to_bits(),
            e_mp.to_bits(),
            "{algo:?}: multi-process energy must be bitwise equal"
        );
    }
    // and the cost model charged the same simulated work on both backends
    assert_eq!(seq.total_flops(), mp.total_flops());
    assert_eq!(
        seq.sim_time().total().to_bits(),
        mp.sim_time().total().to_bits()
    );
}

#[test]
fn multi_process_journal_is_flat_in_jobs_served() {
    // A long-lived executor (the solve daemon's) serves the same job over
    // and over. Its recovery journal must hold what a respawned rank needs
    // and nothing else: every finished matvec chain is collected, so the
    // journal after the sixth run reads exactly as after the second, and
    // what it holds between jobs is the retention cache's uploads — one
    // entry per buffer the workers still hold.
    let mp = multi_process_executor(2);
    mp.set_retention_cap(64 << 20).unwrap();
    let first = run_energy(&mp, Algorithm::SparseDense);
    let mut after = vec![mp.journal_stats()];
    for _ in 1..6 {
        assert_eq!(
            run_energy(&mp, Algorithm::SparseDense).to_bits(),
            first.to_bits()
        );
        after.push(mp.journal_stats());
    }
    assert_eq!(after[1], after[5], "journal grew with jobs served");
    let journaled: Vec<u64> = after[5].iter().map(|s| s.entries as u64).collect();
    let held: Vec<u64> = mp
        .cache_stats()
        .unwrap()
        .iter()
        .map(|s| s.entries)
        .collect();
    assert!(
        journaled.iter().sum::<u64>() > 0,
        "retained uploads are live"
    );
    assert_eq!(journaled, held, "one journaled upload per resident buffer");
    // dropping the retention cache frees the last handles: nothing is left
    mp.set_retention_cap(0).unwrap();
    for rank in mp.journal_stats() {
        assert_eq!(rank, tt_dist::JournalStats::default());
    }
}

#[test]
fn multi_process_block_pipeline_tensors_are_bitwise_identical() {
    // Tensor-level (not just scalar-energy) equivalence for the block
    // contraction + factorization pipeline the DMRG sweep is built from.
    let (x, y) = block_fixture();
    let seq = Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Sequential);
    let mp = multi_process_executor(3);

    let c1 = contract_list(&seq, "isj,jtk->istk", &x, &y).unwrap();
    let c2 = contract_list(&mp, "isj,jtk->istk", &x, &y).unwrap();
    assert_eq!(c1.to_dense().data(), c2.to_dense().data());
    for algo in [Algorithm::SparseDense, Algorithm::SparseSparse] {
        let c1 = tt_blocks::contract(&seq, algo, "isj,jtk->istk", &x, &y).unwrap();
        let c2 = tt_blocks::contract(&mp, algo, "isj,jtk->istk", &x, &y).unwrap();
        assert_eq!(c1.to_dense().data(), c2.to_dense().data(), "{algo}");
    }

    let spec = TruncSpec {
        max_rank: 6,
        cutoff: 0.0,
        min_keep: 1,
    };
    let s1 = block_svd(&seq, &x, &[0, 1], &[2], spec).unwrap();
    let s2 = block_svd(&mp, &x, &[0, 1], &[2], spec).unwrap();
    assert_eq!(s1.s, s2.s);
    assert_eq!(s1.u.to_dense().data(), s2.u.to_dense().data());
    assert_eq!(s1.vt.to_dense().data(), s2.vt.to_dense().data());

    assert_eq!(left_canonical(&seq), left_canonical(&mp));
}

#[test]
#[ignore = "scaled-up suite (nightly CI): longer chain and bond dimension over 4 worker processes"]
fn multi_process_dmrg_scaled_up_bitwise() {
    let lat = Lattice::chain(10);
    let mpo = heisenberg_j1j2(&lat, 1.0, 0.2).build().expect("mpo");
    let schedule = test_schedule(&[16, 32], 2);
    let run = |exec: &Executor| {
        let mut psi = Mps::product_state(&SpinHalf, &neel_state(10)).expect("state");
        Dmrg::new(exec, Algorithm::SparseSparse, &mpo)
            .run(&mut psi, &schedule)
            .expect("dmrg")
            .energy
    };
    let seq = Executor::with_machine(Machine::stampede2(4), 2, ExecMode::Sequential);
    let mp = multi_process_executor(4);
    assert_eq!(run(&seq).to_bits(), run(&mp).to_bits());
}

#[test]
fn cost_model_accumulates_during_dmrg() {
    let exec = Executor::with_machine(Machine::stampede2(4), 1, ExecMode::Sequential);
    let _ = run_energy(&exec, Algorithm::SparseSparse);
    let sim = exec.sim_time();
    assert!(sim.total() > 0.0);
    assert!(sim.comm > 0.0, "distributed run must move data");
    assert!(sim.sparse > 0.0, "sparse-sparse must run sparse kernels");
    assert!(exec.supersteps() > 0);
    assert!(exec.total_flops() > 0);
}

#[test]
fn serial_baseline_has_no_comm() {
    let exec = Executor::local();
    let _ = run_energy(&exec, Algorithm::List);
    let sim = exec.sim_time();
    // the local machine has zero alpha/beta, so communication time is zero
    assert_eq!(sim.comm, 0.0);
    assert!(sim.gemm + sim.sparse > 0.0);
}

// --- resident-operand (handle) equivalence -------------------------------

/// Dense/sparse fixtures for the executor-level handle cases.
fn dense_fixture() -> (
    tt_tensor::DenseTensor<f64>,
    tt_tensor::DenseTensor<f64>,
    tt_tensor::SparseTensor<f64>,
    tt_tensor::SparseTensor<f64>,
) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(77);
    let a = tt_tensor::DenseTensor::<f64>::random([18, 5, 22], &mut rng);
    let b = tt_tensor::DenseTensor::<f64>::random([22, 5, 14], &mut rng);
    let sa = tt_tensor::SparseTensor::from_dense(&a, 0.5);
    let sb = tt_tensor::SparseTensor::from_dense(&b, 0.5);
    (a, b, sa, sb)
}

/// Run the dense/sd/ss contraction triple through the handle path on
/// `exec`, returning the three results. Every operand but the
/// sparse-sparse `B` (taken by value) is a handle, so the second call per
/// executor exercises the cache-hit path too.
fn run_handles(
    exec: &Executor,
) -> (
    tt_tensor::DenseTensor<f64>,
    tt_tensor::DenseTensor<f64>,
    tt_tensor::SparseTensor<f64>,
) {
    let (a, b, sa, sb) = dense_fixture();
    let (ha, hb) = (exec.upload(&a), exec.upload(&b));
    let hsa = exec.upload_sparse(&sa);
    // twice each: miss then hit — results must be bitwise identical
    let c1 = exec.contract("isj,jtk->istk", &ha, &hb).unwrap();
    let c2 = exec.contract("isj,jtk->istk", &ha, &hb).unwrap();
    assert_eq!(c1.data(), c2.data(), "hit repeats the miss bitwise");
    let d1 = exec.contract_sd("isj,jtk->istk", &hsa, &hb).unwrap();
    let d2 = exec.contract_sd("isj,jtk->istk", &hsa, &hb).unwrap();
    assert_eq!(d1.data(), d2.data());
    let s1 = exec.contract_ss("isj,jtk->istk", &hsa, &sb, None).unwrap();
    let s2 = exec.contract_ss("isj,jtk->istk", &hsa, &sb, None).unwrap();
    assert_eq!(s1.to_dense().data(), s2.to_dense().data());
    for h in [&ha, &hb, &hsa] {
        exec.free(h).unwrap();
    }
    (c1, d1, s1)
}

#[test]
fn handle_contractions_bitwise_match_value_paths_across_backends() {
    let (a, b, sa, sb) = dense_fixture();
    let val = Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Sequential);
    let c_ref = val.contract("isj,jtk->istk", &a, &b).unwrap();
    let d_ref = val.contract_sd("isj,jtk->istk", &sa, &b).unwrap();
    let s_ref = val.contract_ss("isj,jtk->istk", &sa, &sb, None).unwrap();

    // in-process handle paths (both modes) and multi-process over p = 2
    // and p = 3 real worker processes must all land on the same bits
    let mut execs: Vec<(String, Executor)> = vec![
        (
            "inproc-seq".into(),
            Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Sequential),
        ),
        (
            "inproc-thr".into(),
            Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Threaded),
        ),
    ];
    #[cfg(unix)]
    for p in [2usize, 3] {
        execs.push((format!("multi-process p={p}"), multi_process_executor(p)));
    }
    let mut sims = Vec::new();
    for (name, exec) in &execs {
        let (c, d, s) = run_handles(exec);
        assert_eq!(c.data(), c_ref.data(), "{name}: dense");
        assert_eq!(d.data(), d_ref.data(), "{name}: sparse-dense");
        assert_eq!(s.to_dense().data(), s_ref.to_dense().data(), "{name}: ss");
        sims.push((name.clone(), exec.total_flops(), exec.sim_time()));
    }
    // the fused-superstep charges are backend-independent, bit for bit
    for (name, flops, sim) in &sims[1..] {
        assert_eq!(*flops, sims[0].1, "{name}: flops");
        assert_eq!(
            sim.total().to_bits(),
            sims[0].2.total().to_bits(),
            "{name}: handle-path cost charges must be backend-bitwise-equal"
        );
    }
}

#[test]
fn resident_ham_matches_effective_ham_bitwise() {
    use dmrg::EffectiveHam;
    use dmrg::Environments;
    use tt_mps::Mps;
    let n = 6;
    let lat = Lattice::chain(n);
    let mpo = heisenberg_j1j2(&lat, 1.0, 0.0).build().unwrap();
    let mut psi = Mps::product_state(&SpinHalf, &neel_state(n)).unwrap();
    let local = Executor::local();
    Dmrg::new(&local, Algorithm::List, &mpo)
        .run(&mut psi, &test_schedule(&[8], 1))
        .unwrap();
    psi.canonicalize(&local, 0).unwrap();
    for algo in [
        Algorithm::List,
        Algorithm::SparseDense,
        Algorithm::SparseSparse,
    ] {
        let exec = Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Sequential);
        let envs = Environments::initialize(&exec, algo, &psi, &mpo).unwrap();
        // build the left environment at a middle bond (initialize only
        // seeds the edges)
        let j = 2;
        let mut lenv = envs.left[0].clone().unwrap();
        for site in 0..j {
            lenv =
                dmrg::extend_left(&exec, algo, &lenv, psi.tensor(site), mpo.tensor(site)).unwrap();
        }
        let x = tt_blocks::contract::contract_list(
            &exec,
            "lsj,jtk->lstk",
            psi.tensor(j),
            psi.tensor(j + 1),
        )
        .unwrap();
        let heff = EffectiveHam {
            exec: &exec,
            algo,
            left: &lenv,
            w1: mpo.tensor(j),
            w2: mpo.tensor(j + 1),
            right: envs.right[j + 1].as_ref().unwrap(),
        };
        let reference = heff.apply(&x).unwrap();
        let rham = heff.upload().unwrap();
        let first = rham.apply(&x).unwrap();
        let second = rham.apply(&x).unwrap();
        assert_eq!(
            reference.to_dense().data(),
            first.to_dense().data(),
            "{algo}: resident apply (miss) must match the value path bitwise"
        );
        assert_eq!(
            reference.to_dense().data(),
            second.to_dense().data(),
            "{algo}: resident apply (hit) must match too"
        );
    }
}

#[test]
fn handle_returning_contractions_bitwise_across_backends() {
    // one-step chains (a contraction whose result stays resident, for
    // dense and sparse-dense operands) + chains with
    // worker-side intermediates: value ≡ chained-handle bitwise over
    // InProcess seq/thr and MultiProcess p=2,3, with bitwise-equal cost
    // counters across all of them
    use tt_dist::{ChainSrc, ChainStep};
    let to_handle = |exec: &Executor, a: ChainSrc, b: ChainSrc| {
        let spec = "isj,jtk->istk";
        let step = ChainStep {
            spec,
            a,
            b,
            acc: None,
            mask: None,
        };
        let mut out = exec.chain(&[step]).unwrap();
        out.pop().flatten().expect("single non-accumulate step")
    };
    let (a, b, sa, _) = dense_fixture();
    let val = Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Sequential);
    let c_ref = val.contract("isj,jtk->istk", &a, &b).unwrap();
    let d_ref = val.contract_sd("isj,jtk->istk", &sa, &b).unwrap();
    let y_ref = val.contract("istk,istk->", &c_ref, &c_ref).unwrap();

    let mut execs: Vec<(String, Executor)> = vec![
        (
            "inproc-seq".into(),
            Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Sequential),
        ),
        (
            "inproc-thr".into(),
            Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Threaded),
        ),
    ];
    #[cfg(unix)]
    for p in [2usize, 3] {
        execs.push((format!("multi-process p={p}"), multi_process_executor(p)));
    }
    let mut sims = Vec::new();
    for (name, exec) in &execs {
        let h = to_handle(
            exec,
            ChainSrc::Dense((&a).into()),
            ChainSrc::Dense((&b).into()),
        );
        // a full chain: the resident result feeds the next step worker-side
        let mut out = exec
            .chain(&[
                ChainStep {
                    spec: "isj,jtk->istk",
                    a: ChainSrc::Dense((&a).into()),
                    b: ChainSrc::Dense((&b).into()),
                    acc: None,
                    mask: None,
                },
                ChainStep {
                    spec: "istk,istk->",
                    a: ChainSrc::Prev(0),
                    b: ChainSrc::Res(&h),
                    acc: None,
                    mask: None,
                },
            ])
            .unwrap();
        let h_y = out.pop().unwrap().unwrap();
        assert!(
            out.pop().unwrap().is_none(),
            "{name}: an output the chain consumed is released by the chain"
        );
        assert_eq!(
            exec.download(h_y).unwrap().data(),
            y_ref.data(),
            "{name}: chained scalar"
        );
        assert_eq!(
            exec.download(h).unwrap().data(),
            c_ref.data(),
            "{name}: handle-returning dense"
        );
        let hd = to_handle(
            exec,
            ChainSrc::Sparse((&sa).into()),
            ChainSrc::Dense((&b).into()),
        );
        assert_eq!(
            exec.download(hd).unwrap().data(),
            d_ref.data(),
            "{name}: handle-returning sd"
        );
        sims.push((name.clone(), exec.total_flops(), exec.sim_time()));
    }
    for (name, flops, sim) in &sims[1..] {
        assert_eq!(*flops, sims[0].1, "{name}: flops");
        assert_eq!(
            sim.total().to_bits(),
            sims[0].2.total().to_bits(),
            "{name}: chain cost charges must be backend-bitwise-equal"
        );
    }
}

#[test]
fn chained_matvecs_bitwise_across_backends() {
    // the tentpole end to end: ResidentHam::apply runs as one chained
    // superstep per matvec, and must reproduce the value-path
    // EffectiveHam::apply bit for bit over every backend, with
    // bitwise-equal cost counters across backends
    use dmrg::{EffectiveHam, Environments};
    use tt_mps::Mps;
    let n = 6;
    let lat = Lattice::chain(n);
    let mpo = heisenberg_j1j2(&lat, 1.0, 0.0).build().unwrap();
    let mut psi = Mps::product_state(&SpinHalf, &neel_state(n)).unwrap();
    let local = Executor::local();
    Dmrg::new(&local, Algorithm::List, &mpo)
        .run(&mut psi, &test_schedule(&[8], 1))
        .unwrap();
    psi.canonicalize(&local, 0).unwrap();
    for algo in [
        Algorithm::List,
        Algorithm::SparseDense,
        Algorithm::SparseSparse,
    ] {
        let mut execs: Vec<(String, Executor)> = vec![
            (
                "inproc-seq".into(),
                Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Sequential),
            ),
            (
                "inproc-thr".into(),
                Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Threaded),
            ),
        ];
        #[cfg(unix)]
        for p in [2usize, 3] {
            execs.push((format!("multi-process p={p}"), multi_process_executor(p)));
        }
        let mut reference: Option<Vec<f64>> = None;
        let mut sims = Vec::new();
        for (name, exec) in &execs {
            let envs = Environments::initialize(exec, algo, &psi, &mpo).unwrap();
            let j = 2;
            let mut lenv = envs.left[0].clone().unwrap();
            for site in 0..j {
                lenv = dmrg::extend_left(exec, algo, &lenv, psi.tensor(site), mpo.tensor(site))
                    .unwrap();
            }
            let x = tt_blocks::contract::contract_list(
                exec,
                "lsj,jtk->lstk",
                psi.tensor(j),
                psi.tensor(j + 1),
            )
            .unwrap();
            let heff = EffectiveHam {
                exec,
                algo,
                left: &lenv,
                w1: mpo.tensor(j),
                w2: mpo.tensor(j + 1),
                right: envs.right[j + 1].as_ref().unwrap(),
            };
            let value = heff.apply(&x).unwrap().to_dense();
            let rham = heff.upload().unwrap();
            // miss then hit: both chained matvecs must match the value path
            let first = rham.apply(&x).unwrap().to_dense();
            let second = rham.apply(&x).unwrap().to_dense();
            assert_eq!(value.data(), first.data(), "{name}/{algo}: chained miss");
            assert_eq!(value.data(), second.data(), "{name}/{algo}: chained hit");
            match &reference {
                None => reference = Some(value.data().to_vec()),
                Some(r) => assert_eq!(value.data(), &r[..], "{name}/{algo}: across backends"),
            }
            drop(rham);
            sims.push((name.clone(), exec.total_flops(), exec.sim_time()));
        }
        for (name, flops, sim) in &sims[1..] {
            assert_eq!(*flops, sims[0].1, "{name}/{algo}: flops");
            assert_eq!(
                sim.total().to_bits(),
                sims[0].2.total().to_bits(),
                "{name}/{algo}: chained-matvec cost charges must be backend-bitwise-equal"
            );
        }
    }

    // The sparse-sparse chain never brings t₁…t₃ back into block form. It
    // must still be the per-step path in every observable: y's bits and
    // every meter against the fold of one-step chains, y's bits and the
    // flop count against the value path, on each backend and across them.
    let algo = Algorithm::SparseSparse;
    let mut across: Option<(Vec<f64>, u64, u64)> = None;
    for (name, exec) in flat_chain_executors() {
        let envs = Environments::initialize(&exec, algo, &psi, &mpo).unwrap();
        let j = 2;
        let mut lenv = envs.left[0].clone().unwrap();
        for site in 0..j {
            lenv =
                dmrg::extend_left(&exec, algo, &lenv, psi.tensor(site), mpo.tensor(site)).unwrap();
        }
        let x = contract_list(&exec, "lsj,jtk->lstk", psi.tensor(j), psi.tensor(j + 1)).unwrap();
        let tensors = [
            &lenv,
            mpo.tensor(j),
            mpo.tensor(j + 1),
            envs.right[j + 1].as_ref().unwrap(),
        ];
        let m = meter_ss_paths(&name, &exec, &MATVEC_SPECS, &tensors, &x);
        match &across {
            None => across = Some(m),
            Some(first) => assert_eq!(&m, first, "{name}: flat chain across backends"),
        }
    }
}

/// An environment extension as three `contract` calls, the way `extend_left`
/// and `extend_right` ran it before it became one chain: `specs` are its
/// three steps, each with its structural operand (`env`, `w`, the bra)
/// first and the previous result second, the ket first of all.
fn extend_by_fold(
    exec: &Executor,
    algo: Algorithm,
    specs: [&str; 3],
    env: &BlockSparseTensor,
    ket: &BlockSparseTensor,
    w: &BlockSparseTensor,
) -> BlockSparseTensor {
    use tt_blocks::contract::contract;
    let bra = ket.conj();
    let t1 = contract(exec, algo, specs[0], env, ket).unwrap();
    let t2 = contract(exec, algo, specs[1], w, &t1).unwrap();
    contract(exec, algo, specs[2], &bra, &t2).unwrap()
}

/// A tensor's structure and every block's bits.
type Bits = (Vec<QnIndex>, QN, Vec<(Vec<u16>, Vec<u64>)>);

fn bits(t: &BlockSparseTensor) -> Bits {
    let blocks = t
        .blocks()
        .map(|(k, b)| (k.clone(), b.data().iter().map(|v| v.to_bits()).collect()))
        .collect();
    (t.indices().to_vec(), t.flux(), blocks)
}

/// Every environment extension a sweep makes — left over each site of a
/// state, right over each site — as one `contract_chain` against the three
/// `contract` calls it replaced, on a spin state and on an electron state
/// (two charges), for all three algorithms on Sequential, Threaded and two
/// worker processes: the same blocks bit for bit, the same flops and
/// supersteps. Every algorithm charges less simulated time than the fold,
/// its intermediates being chain inputs rather than shipped values. Every
/// counter of the chain is equal across the backends.
#[test]
fn environment_chains_are_the_contract_fold() {
    use dmrg::{extend_left, extend_right, left_edge, right_edge};
    let states = [
        {
            let mpo = heisenberg_j1j2(&Lattice::chain(6), 1.0, 0.0)
                .build()
                .unwrap();
            let psi = Mps::product_state(&SpinHalf, &neel_state(6)).unwrap();
            (mpo, psi)
        },
        {
            let mpo = tt_mps::hubbard(&Lattice::chain(4), 1.0, 4.0)
                .build()
                .unwrap();
            let psi =
                Mps::product_state(&tt_mps::Electron, &tt_mps::electron_filling(4, 2, 2)).unwrap();
            (mpo, psi)
        },
    ];
    let local = Executor::local();
    let states: Vec<_> = states
        .into_iter()
        .map(|(mpo, mut psi)| {
            Dmrg::new(&local, Algorithm::List, &mpo)
                .run(&mut psi, &test_schedule(&[8], 1))
                .unwrap();
            (mpo, psi)
        })
        .collect();
    const LEFT: [&str; 3] = ["bkc,cqf->bkqf", "kpqg,bkqf->bpfg", "bph,bpfg->hgf"];
    const RIGHT: [&str; 3] = ["bkf,cqf->bkcq", "gpqk,bkcq->bpgc", "hpb,bpgc->hgc"];
    for algo in [
        Algorithm::List,
        Algorithm::SparseDense,
        Algorithm::SparseSparse,
    ] {
        let mut across: Option<Vec<(u64, u64, u64)>> = None;
        for (name, exec) in flat_chain_executors() {
            let what = |site: usize, side: &str| format!("{name}/{algo}: {side} over site {site}");
            let mut meters = Vec::new();
            // one extension both ways, from zeroed meters each
            let mut check = |what: String,
                             chain: &dyn Fn() -> BlockSparseTensor,
                             fold: &dyn Fn() -> BlockSparseTensor| {
                exec.reset_costs();
                let c = chain();
                let cm = (
                    exec.total_flops(),
                    exec.supersteps(),
                    exec.sim_time().total(),
                );
                exec.reset_costs();
                let f = fold();
                let fm = (
                    exec.total_flops(),
                    exec.supersteps(),
                    exec.sim_time().total(),
                );
                assert_eq!(bits(&c), bits(&f), "{what}");
                assert_eq!((cm.0, cm.1), (fm.0, fm.1), "{what}: flops and supersteps");
                assert!(
                    cm.2 < fm.2,
                    "{what}: simulated seconds {} vs {}",
                    cm.2,
                    fm.2
                );
                meters.push((cm.0, cm.1, cm.2.to_bits()));
                c
            };
            for (mpo, psi) in &states {
                let n = psi.n_sites();
                let mut l = left_edge(psi, mpo).unwrap();
                for j in 0..n {
                    let (ket, w) = (psi.tensor(j), mpo.tensor(j));
                    l = check(
                        what(j, "left"),
                        &|| extend_left(&exec, algo, &l, ket, w).unwrap(),
                        &|| extend_by_fold(&exec, algo, LEFT, &l, ket, w),
                    );
                }
                let mut r = right_edge(psi, mpo).unwrap();
                for j in (0..n).rev() {
                    let (ket, w) = (psi.tensor(j), mpo.tensor(j));
                    r = check(
                        what(j, "right"),
                        &|| extend_right(&exec, algo, &r, ket, w).unwrap(),
                        &|| extend_by_fold(&exec, algo, RIGHT, &r, ket, w),
                    );
                }
            }
            match &across {
                None => across = Some(meters),
                Some(first) => assert_eq!(&meters, first, "{name}/{algo}: across backends"),
            }
        }
    }
}

/// The four contractions of one two-site matvec, in order.
const MATVEC_SPECS: [&str; 4] = [
    "bkc,cqwf->bkqwf",
    "kpqg,bkqwf->bpgwf",
    "gswh,bpgwf->bpshf",
    "rhf,bpshf->bpsr",
];

/// Sequential, Threaded and (on unix) two worker processes.
fn flat_chain_executors() -> Vec<(String, Executor)> {
    let mut execs = vec![
        (
            "inproc-seq".to_string(),
            Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Sequential),
        ),
        (
            "inproc-thr".to_string(),
            Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Threaded),
        ),
    ];
    #[cfg(unix)]
    execs.push(("multi-process p=2".into(), multi_process_executor(2)));
    execs
}

/// Run the sparse-sparse chain `specs[s]: operands[s] · (previous result,
/// `x` first)` three ways on `exec` — `ResidentChain::apply`'s flat chain, the fold
/// of one-step `ResidentChain`s over the same operands, the value path —
/// each from zeroed meters with the operands already resident. Asserts chain ≡ fold ≡ value in result
/// bits and flops, and that the chain, whose intermediates stay where
/// they were made, charges fewer simulated seconds than the fold and
/// ships no more driver operand or result bytes; returns what must also
/// agree across backends: `(y, flops, simulated-seconds bits)`.
fn meter_ss_paths(
    name: &str,
    exec: &Executor,
    specs: &[&str],
    operands: &[&BlockSparseTensor],
    x: &BlockSparseTensor,
) -> (Vec<f64>, u64, u64) {
    use tt_blocks::contract::contract;
    use tt_blocks::ResidentChain;
    let algo = Algorithm::SparseSparse;
    let steps: Vec<(&str, &BlockSparseTensor)> = specs
        .iter()
        .copied()
        .zip(operands.iter().copied())
        .collect();
    let resident = ResidentChain::upload(exec, algo, &steps).unwrap();
    let singles: Vec<ResidentChain> = steps
        .iter()
        .map(|&step| ResidentChain::upload(exec, algo, &[step]).unwrap())
        .collect();
    let chain = || resident.apply(x).unwrap();
    let fold = || {
        let apply = |b: BlockSparseTensor, single: &ResidentChain| single.apply(&b).unwrap();
        singles.iter().fold(x.clone(), apply)
    };
    let value = || {
        specs.iter().zip(operands).fold(x.clone(), |b, (spec, a)| {
            contract(exec, algo, spec, a, &b).unwrap()
        })
    };
    let metered = |path: &dyn Fn() -> BlockSparseTensor| {
        exec.reset_costs();
        let y = path();
        (
            y.to_dense().into_data(),
            exec.total_flops(),
            exec.sim_time().total().to_bits(),
            exec.operand_bytes(),
            exec.result_bytes(),
        )
    };
    // the first use ships the operands' derived buffers; meter what every
    // later matvec of the eigensolve costs
    chain();
    let chained = metered(&chain);
    // a second application finds the kept structural plan: same everything
    assert_eq!(metered(&chain), chained, "{name}: kept chain plan");
    let folded = metered(&fold);
    assert_eq!(
        (&folded.0, folded.1),
        (&chained.0, chained.1),
        "{name}: flat chain vs per-step fold"
    );
    assert!(
        f64::from_bits(chained.2) < f64::from_bits(folded.2),
        "{name}: simulated seconds, chain vs fold"
    );
    assert!(
        chained.3 <= folded.3 && chained.4 <= folded.4,
        "{name}: driver bytes, chain {:?} vs fold {:?}",
        (chained.3, chained.4),
        (folded.3, folded.4)
    );
    let by_value = metered(&value);
    assert_eq!(by_value.0, chained.0, "{name}: flat chain vs value path");
    assert_eq!(by_value.1, chained.1, "{name}: flops vs value path");
    for single in singles {
        single.release().unwrap();
    }
    resident.release().unwrap();
    (chained.0, chained.1, chained.2)
}

/// An intermediate element that cancels to exactly 0.0 is a touched slot
/// of the sparse-sparse kernel. Block form would not hand it on to the
/// next step, so the flat chain must not either: one more entry in `B` is
/// more products, and the flop count would leave the per-step path.
#[test]
fn flat_chain_drops_cancelled_intermediate_entries() {
    use tt_tensor::DenseTensor;
    // trivially graded 2×2 matrices: every position is allowed
    let ix = |arrow| QnIndex::trivial(arrow, 2, 1);
    let matrix = |rows: [[f64; 2]; 2]| {
        let mut t = BlockSparseTensor::new(vec![ix(Arrow::Out), ix(Arrow::In)], QN::zero(1));
        let block = DenseTensor::from_vec([2, 2], rows.concat()).unwrap();
        t.insert_block(vec![0, 0], block).unwrap();
        t
    };
    let a1 = matrix([[1.0, 1.0], [0.0, 1.0]]);
    let a2 = matrix([[1.0, 1.0], [2.0, 0.0]]);
    // (a1·x)[0][0] = 1·1 + 1·(−1)
    let x = matrix([[1.0, 2.0], [-1.0, 3.0]]);
    let specs = ["ik,kj->ij", "li,ij->lj"];
    let mut across = None;
    for (name, exec) in flat_chain_executors() {
        // the fixture cancels element (0, 0), which two products reach;
        // `contract_ss` reads the slots back without it
        let t = exec
            .contract_ss(specs[0], &a1.to_flat_sparse(), &x.to_flat_sparse(), None)
            .unwrap();
        assert_eq!(t.to_dense().data(), [0.0, 5.0, -1.0, 3.0], "{name}: a1·x");
        assert_eq!(t.nnz(), 3, "{name}: the cancelled element is not stored");
        let m = meter_ss_paths(&name, &exec, &specs, &[&a1, &a2], &x);
        // step 1: 3 entries of a1 × 2-entry rows of x; step 2: a2's two
        // entries on i=0 meet the one surviving entry of t's row 0, its
        // entry on i=1 meets two — 6 + 4 products
        assert_eq!(m.1, 20, "{name}: flops with the cancelled entry dropped");
        assert_eq!(m.0, [-1.0, 8.0, 0.0, 10.0], "{name}: a2·a1·x");
        match &across {
            None => across = Some(m),
            Some(first) => assert_eq!(&m, first, "{name}: across backends"),
        }
    }
}

/// The flat chain with every step above the sparse fan-out gate (16
/// MFlop): Threaded cuts each step's rows into one chunk per pool lane and
/// the two-process backend into one `SsChunk` per worker, each chunk
/// accumulating into its own range of the mask's slots. Chain, fold,
/// value path, Sequential and multi-process p=2 must still agree bit for
/// bit, meters included. Two sectors of 170 make each step 2·170³
/// multiply-adds; the second step contracts the first's permuted output.
#[test]
fn flat_chain_splits_steps_above_the_sparse_gate() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(2701);
    let ix = QnIndex::new(Arrow::Out, vec![(QN::one(-1), 170), (QN::one(1), 170)]);
    let mut matrix =
        || BlockSparseTensor::random(vec![ix.clone(), ix.dual()], QN::zero(1), &mut rng);
    let (a1, a2, x) = (matrix(), matrix(), matrix());
    let specs = ["ik,kj->ji", "li,ji->jl"];
    // each step on its own, by value: above the gate
    let local = Executor::local();
    let mut b = x.clone();
    for (spec, a) in specs.iter().zip([&a1, &a2]) {
        let before = local.total_flops();
        b = tt_blocks::contract::contract(&local, Algorithm::SparseSparse, spec, a, &b).unwrap();
        assert!(
            local.total_flops() - before > 16_000_000,
            "{spec} is below the gate"
        );
    }
    let mut across = None;
    for (name, exec) in flat_chain_executors() {
        let m = meter_ss_paths(&name, &exec, &specs, &[&a1, &a2], &x);
        assert_eq!(m.1, 2 * 2 * 2 * 170u64.pow(3), "{name}: flops");
        match &across {
            None => across = Some(m),
            Some(first) => assert_eq!(&m, first, "{name}: across backends"),
        }
    }
}

/// Driver data-plane traffic of one Davidson solve, per path.
#[cfg(unix)]
struct DavidsonBytes {
    /// Operand bytes shipped by the value-passing solve.
    value_operands: u64,
    /// Result bytes returned to the driver by the value-passing solve.
    value_results: u64,
    /// Operand bytes shipped by the resident, chained-matvec solve.
    resident_operands: u64,
    /// Result bytes returned by the resident, chained-matvec solve.
    resident_results: u64,
}

/// Shared harness for the Davidson byte comparison: run one Davidson
/// solve through the value-passing `EffectiveHam` and one through the
/// resident-operand `ResidentHam` (whose matvecs run as worker-side
/// chained supersteps) on the same multi-process executor, assert
/// bitwise-identical eigenvectors, and return the driver's operand- and
/// result-byte deltas for both paths.
#[cfg(unix)]
fn davidson_bytes(warm_m: usize, workers: usize, opts: dmrg::DavidsonOptions) -> DavidsonBytes {
    use dmrg::{davidson, EffectiveHam, Environments};
    let n = 10;
    let lat = Lattice::chain(n);
    let mpo = tt_mps::hubbard(&lat, 1.0, 4.0).build().unwrap();
    let local = Executor::local();
    let mut psi = Mps::product_state(
        &tt_mps::Electron,
        &tt_mps::electron_filling(n, n / 2, n / 2),
    )
    .unwrap();
    // noisy, cutoff-free sweeps inflate the bond dimension to the cap so
    // operand payloads dominate protocol headers
    let schedule = dmrg::Schedule {
        sweeps: (0..2)
            .map(|_| dmrg::SweepParams {
                max_m: warm_m,
                cutoff: 0.0,
                davidson: dmrg::DavidsonOptions::default(),
                noise: 1e-3,
            })
            .collect(),
    };
    Dmrg::new(&local, Algorithm::List, &mpo)
        .run(&mut psi, &schedule)
        .unwrap();
    psi.canonicalize(&local, 0).unwrap();

    let mp = multi_process_executor(workers);
    let algo = Algorithm::List;
    let envs = Environments::initialize(&mp, algo, &psi, &mpo).unwrap();
    // build the left environment up to a middle bond (initialize only
    // seeds the edges; sweeps grow the rest)
    let j = n / 2 - 1;
    let mut lenv = envs.left[0].clone().unwrap();
    for site in 0..j {
        lenv = dmrg::extend_left(&mp, algo, &lenv, psi.tensor(site), mpo.tensor(site)).unwrap();
    }
    let x0 = contract_list(&mp, "lsj,jtk->lstk", psi.tensor(j), psi.tensor(j + 1)).unwrap();
    let heff = EffectiveHam {
        exec: &mp,
        algo,
        left: &lenv,
        w1: mpo.tensor(j),
        w2: mpo.tensor(j + 1),
        right: envs.right[j + 1].as_ref().unwrap(),
    };

    let before = (mp.operand_bytes(), mp.result_bytes());
    let (_, x_val) = davidson(|v| heff.apply(v), &x0, opts).unwrap();
    let (value_operands, value_results) =
        (mp.operand_bytes() - before.0, mp.result_bytes() - before.1);

    let rham = heff.upload().unwrap();
    let before = (mp.operand_bytes(), mp.result_bytes());
    let (_, x_han) = davidson(|v| rham.apply(v), &x0, opts).unwrap();
    let (resident_operands, resident_results) =
        (mp.operand_bytes() - before.0, mp.result_bytes() - before.1);
    drop(rham);

    assert_eq!(
        x_val.to_dense().data(),
        x_han.to_dense().data(),
        "the two solves are bitwise-identical"
    );
    println!(
        "davidson bytes (m={warm_m}, p={workers}): operands value {value_operands} vs resident \
         {resident_operands} ({:.1}x fewer); results value {value_results} vs chained \
         {resident_results} ({:.1}x fewer)",
        value_operands as f64 / resident_operands as f64,
        value_results as f64 / resident_results as f64,
    );
    DavidsonBytes {
        value_operands,
        value_results,
        resident_operands,
        resident_results,
    }
}

#[cfg(unix)]
#[test]
fn davidson_solve_with_handles_ships_fewer_operand_bytes() {
    // fast regression guard at a small bond dimension, where per-task
    // protocol headers still eat into the win: the resident solve must
    // ship strictly less than half the value-passing bytes
    let b = davidson_bytes(48, 3, Default::default());
    assert!(
        b.value_operands >= 2 * b.resident_operands,
        "resident operands must at least halve driver operand bytes: \
         value {} vs handle {}",
        b.value_operands,
        b.resident_operands
    );
}

#[cfg(unix)]
#[test]
fn davidson_chained_matvecs_cut_result_bytes() {
    // fast guard for the *result* side of residency: with matvecs chained
    // worker-side, only the final y-blocks of each matvec download — the
    // t1..t3 intermediates stop round-tripping through the driver
    let b = davidson_bytes(48, 3, Default::default());
    assert!(
        b.value_results >= 2 * b.resident_results,
        "chained matvecs must at least halve driver result bytes: \
         value {} vs chained {}",
        b.value_results,
        b.resident_results
    );
}

#[cfg(unix)]
#[test]
#[ignore = "scaled suite (release-mode CI step + nightly): m=128 over 6 worker processes"]
fn davidson_solve_with_handles_ships_5x_fewer_operand_bytes() {
    // at a realistic bond dimension the payloads dominate and the cache
    // win reaches the paper-motivated regime: >=5x fewer operand bytes
    // per Davidson solve
    let opts = dmrg::DavidsonOptions {
        max_iter: 8,
        max_subspace: 3,
        ..Default::default()
    };
    let b = davidson_bytes(128, 6, opts);
    assert!(
        b.value_operands >= 5 * b.resident_operands,
        "resident operands must cut driver operand bytes >=5x per Davidson solve: \
         value {} vs handle {}",
        b.value_operands,
        b.resident_operands
    );
}

#[cfg(unix)]
#[test]
#[ignore = "scaled suite (release-mode CI step + nightly): m=128 over 6 worker processes"]
fn davidson_chained_matvecs_cut_result_bytes_3x() {
    // the PR's acceptance gate: at a realistic bond dimension the chained
    // matvecs cut the driver's per-solve *result* traffic >=3x on top of
    // the operand-side residency win
    let opts = dmrg::DavidsonOptions {
        max_iter: 8,
        max_subspace: 3,
        ..Default::default()
    };
    let b = davidson_bytes(128, 6, opts);
    assert!(
        b.value_results >= 3 * b.resident_results,
        "chained matvecs must cut driver result bytes >=3x per Davidson solve: \
         value {} vs chained {}",
        b.value_results,
        b.resident_results
    );
}
