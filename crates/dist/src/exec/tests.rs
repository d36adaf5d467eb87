use super::*;
use crate::handle::ResultHandle;
use crate::kernels::tests::heff_steps;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tt_linalg::{TruncSpec, TruncatedSvd};
use tt_tensor::ssmerge::SlotMap;

/// One contraction whose result stays resident: a one-step chain.
fn to_handle(exec: &Executor, spec: &str, a: ChainSrc, b: ChainSrc) -> ResultHandle {
    let step = ChainStep {
        spec,
        a,
        b,
        acc: None,
        mask: None,
    };
    let mut out = exec.chain(&[step]).unwrap();
    out.pop().flatten().expect("single non-accumulate step")
}

fn operands(seed: u64) -> (DenseTensor<f64>, DenseTensor<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    (
        DenseTensor::<f64>::random([24, 6, 30], &mut rng),
        DenseTensor::<f64>::random([30, 6, 18], &mut rng),
    )
}

#[test]
fn threaded_bitwise_equals_sequential() {
    let (a, b) = operands(41);
    let seq = Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Sequential);
    let thr = Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Threaded);
    let cs = seq.contract("isj,jtk->istk", &a, &b).unwrap();
    let ct = thr.contract("isj,jtk->istk", &a, &b).unwrap();
    assert_eq!(
        cs.data(),
        ct.data(),
        "dense contraction must be bitwise equal"
    );

    let sa = SparseTensor::from_dense(&a, 0.5);
    let sb = SparseTensor::from_dense(&b, 0.5);
    let ds = seq.contract_sd("isj,jtk->istk", &sa, &b).unwrap();
    let dt = thr.contract_sd("isj,jtk->istk", &sa, &b).unwrap();
    assert_eq!(ds.data(), dt.data(), "sparse-dense must be bitwise equal");

    let ss = seq.contract_ss("isj,jtk->istk", &sa, &sb, None).unwrap();
    let st = thr.contract_ss("isj,jtk->istk", &sa, &sb, None).unwrap();
    assert_eq!(
        ss.to_dense().data(),
        st.to_dense().data(),
        "sparse-sparse must be bitwise equal"
    );
}

#[test]
fn local_matches_plan_execute_exactly() {
    let (a, b) = operands(42);
    let exec = Executor::local();
    let c = exec.contract("isj,jtk->tkis", &a, &b).unwrap();
    let reference = tt_tensor::einsum("isj,jtk->tkis", &a, &b).unwrap();
    assert_eq!(c.data(), reference.data());
}

#[test]
fn sim_time_monotone_in_ranks() {
    let (a, b) = operands(43);
    let mut last = f64::INFINITY;
    for nodes in [1usize, 2, 4, 8] {
        let exec = Executor::with_machine(Machine::blue_waters(16), nodes, ExecMode::Sequential);
        for _ in 0..4 {
            exec.contract("isj,jtk->istk", &a, &b).unwrap();
        }
        let t = exec.sim_time().total();
        assert!(t > 0.0);
        assert!(
            t <= last,
            "sim time must not grow with ranks on a compute-bound workload: {t} > {last}"
        );
        last = t;
    }
}

#[test]
fn distributed_costs_are_machine_dependent_and_nonzero() {
    let (a, b) = operands(44);
    let mut totals = Vec::new();
    for machine in [Machine::blue_waters(16), Machine::stampede2(64)] {
        let exec = Executor::with_machine(machine, 2, ExecMode::Sequential);
        exec.contract("isj,jtk->istk", &a, &b).unwrap();
        assert!(exec.total_flops() > 0);
        assert!(exec.supersteps() > 0);
        let sim = exec.sim_time();
        assert!(sim.total() > 0.0 && sim.comm > 0.0);
        totals.push(sim.total());
    }
    assert_ne!(totals[0], totals[1], "different machines, different cost");
}

#[test]
fn local_run_has_zero_comm_and_reset_works() {
    let (a, b) = operands(45);
    let exec = Executor::local();
    exec.contract("isj,jtk->istk", &a, &b).unwrap();
    let sim = exec.sim_time();
    assert_eq!(sim.comm, 0.0);
    assert!(sim.gemm > 0.0);
    assert!(exec.total_flops() > 0);
    exec.reset_costs();
    assert_eq!(exec.total_flops(), 0);
    assert_eq!(exec.sim_time().total(), 0.0);
}

#[test]
fn contract_rejects_malformed_operands() {
    // an operand whose order doesn't match the spec, or whose contracted
    // dims disagree with the other's, is a typed error in either mode,
    // never a panic in the chain's planner or the kernel
    let bad = DenseTensor::<f64>::zeros([2, 3]);
    let ok = DenseTensor::<f64>::zeros([3, 2, 2]);
    let a = DenseTensor::<f64>::zeros([2, 2, 5]);
    for mode in [ExecMode::Sequential, ExecMode::Threaded] {
        let exec = Executor::with_machine(Machine::blue_waters(2), 2, mode);
        for (a, b) in [(&bad, &ok), (&a, &ok)] {
            let err = exec.contract("isj,jtk->istk", a, b).unwrap_err();
            assert!(matches!(err, Error::Tensor(_)), "{mode:?}: {err}");
        }
        assert_eq!(exec.total_flops(), 0, "{mode:?}: nothing ran");
    }
}

#[test]
fn factorization_batches_match_singles() {
    let mut rng = StdRng::seed_from_u64(48);
    let mats: Vec<DenseTensor<f64>> = [(20usize, 8usize), (13, 13), (6, 17), (30, 4)]
        .iter()
        .map(|&(m, n)| DenseTensor::<f64>::random([m, n], &mut rng))
        .collect();
    let spec = TruncSpec {
        max_rank: 6,
        cutoff: 0.0,
        min_keep: 1,
    };
    let single = Executor::with_machine(Machine::stampede2(4), 1, ExecMode::Sequential);
    let svds_ref: Vec<_> = mats
        .iter()
        .map(|m| single.svd_trunc(m, spec).unwrap())
        .collect();
    for mode in [ExecMode::Sequential, ExecMode::Threaded] {
        let batch = Executor::with_machine(Machine::stampede2(4), 1, mode);
        let svds = batch.svd_trunc_batch(&mats, spec).unwrap();
        for (s, r) in svds.iter().zip(&svds_ref) {
            assert_eq!(s.s, r.s, "{mode:?}");
            assert_eq!(s.u.data(), r.u.data(), "{mode:?}");
            assert_eq!(s.vt.data(), r.vt.data(), "{mode:?}");
        }
        assert_eq!(batch.total_flops(), single.total_flops(), "{mode:?}");
        assert_eq!(
            batch.sim_time().total().to_bits(),
            single.sim_time().total().to_bits(),
            "{mode:?}"
        );
    }
}

#[test]
fn handle_contractions_bitwise_match_value_path_in_process() {
    let (a, b) = operands(60);
    let sa = SparseTensor::from_dense(&a, 0.5);
    let sb = SparseTensor::from_dense(&b, 0.5);
    for mode in [ExecMode::Sequential, ExecMode::Threaded] {
        let val = Executor::with_machine(Machine::blue_waters(2), 2, mode);
        let han = Executor::with_machine(Machine::blue_waters(2), 2, mode);
        let ha = han.upload(&a);
        let hb = han.upload(&b);
        let hsa = han.upload_sparse(&sa);

        let c_val = val.contract("isj,jtk->istk", &a, &b).unwrap();
        let c_han = han.contract("isj,jtk->istk", &ha, &hb).unwrap();
        assert_eq!(c_val.data(), c_han.data(), "{mode:?} dense");

        let d_val = val.contract_sd("isj,jtk->istk", &sa, &b).unwrap();
        let d_han = han.contract_sd("isj,jtk->istk", &hsa, &hb).unwrap();
        assert_eq!(d_val.data(), d_han.data(), "{mode:?} sd");

        let s_val = val.contract_ss("isj,jtk->istk", &sa, &sb, None).unwrap();
        let s_han = han.contract_ss("isj,jtk->istk", &hsa, &sb, None).unwrap();
        assert_eq!(
            s_val.to_dense().data(),
            s_han.to_dense().data(),
            "{mode:?} ss"
        );

        han.free(&ha).unwrap();
        han.free(&hb).unwrap();
        han.free(&hsa).unwrap();
    }
}

#[test]
fn handle_reuse_charges_less_than_value_path() {
    // second contraction against the same handle: no β for the
    // resident operand, so critical-path bytes grow by strictly less
    // than a value-path repeat
    let (a, b) = operands(61);
    let exec = Executor::with_machine(Machine::blue_waters(2), 2, ExecMode::Sequential);
    let hb = exec.upload(&b);
    exec.contract("isj,jtk->istk", &a, &hb).unwrap();
    let after_first = exec.tracker().lock().bytes_critical;
    exec.contract("isj,jtk->istk", &a, &hb).unwrap();
    let hit_delta = exec.tracker().lock().bytes_critical - after_first;

    let val = Executor::with_machine(Machine::blue_waters(2), 2, ExecMode::Sequential);
    val.contract("isj,jtk->istk", &a, &b).unwrap();
    let value_delta = val.tracker().lock().bytes_critical;
    assert!(
        hit_delta < value_delta,
        "cache hit must drop β: {hit_delta} vs {value_delta}"
    );
    // flops are identical either way
    assert_eq!(exec.total_flops(), 2 * val.total_flops());
    exec.free(&hb).unwrap();
    // freeing twice is an error
    assert!(exec.free(&hb).is_err());
}

#[test]
fn handle_type_mismatch_is_an_error() {
    let (a, _) = operands(62);
    let exec = Executor::local();
    let h = exec.upload(&a);
    assert!(exec.contract_sd("isj,jtk->istk", &h, &a).is_err());
    exec.free(&h).unwrap();
}

#[cfg(unix)]
#[test]
fn multi_process_backend_bitwise_matches_sequential() {
    let spawn = SpawnSpec::SelfExec(vec!["spawned_worker_entry".into()]);
    let seq = Executor::with_machine(Machine::blue_waters(2), 2, ExecMode::Sequential);
    let mp = Executor::multi_process(Machine::blue_waters(2), 2, 2, spawn).unwrap();
    assert!(matches!(
        mp.backend(),
        Backend::MultiProcess { workers: 2, .. }
    ));

    let (a, b) = operands(49);
    let cs = seq.contract("isj,jtk->istk", &a, &b).unwrap();
    let cm = mp.contract("isj,jtk->istk", &a, &b).unwrap();
    assert_eq!(
        cs.data(),
        cm.data(),
        "dense over processes must be bitwise equal"
    );

    let sa = SparseTensor::from_dense(&a, 0.5);
    let sb = SparseTensor::from_dense(&b, 0.5);
    let ds = seq.contract_sd("isj,jtk->istk", &sa, &b).unwrap();
    let dm = mp.contract_sd("isj,jtk->istk", &sa, &b).unwrap();
    assert_eq!(ds.data(), dm.data(), "sparse-dense over processes");

    let ss = seq.contract_ss("isj,jtk->istk", &sa, &sb, None).unwrap();
    let sm = mp.contract_ss("isj,jtk->istk", &sa, &sb, None).unwrap();
    assert_eq!(ss.to_dense().data(), sm.to_dense().data(), "sparse-sparse");

    let mat = DenseTensor::from_vec([a.len() / 6, 6], a.data().to_vec()).unwrap();
    let spec = TruncSpec {
        max_rank: 4,
        cutoff: 0.0,
        min_keep: 1,
    };
    let ts = seq.svd_trunc(&mat, spec).unwrap();
    let tm = mp.svd_trunc(&mat, spec).unwrap();
    assert_eq!(ts.s, tm.s);
    assert_eq!(ts.u.data(), tm.u.data());
    assert_eq!(ts.vt.data(), tm.vt.data());
    assert_eq!(ts.trunc_err.to_bits(), tm.trunc_err.to_bits());

    // identical cost accounting: same machine model, same charges
    assert_eq!(seq.total_flops(), mp.total_flops());
    assert_eq!(seq.supersteps(), mp.supersteps());
    assert_eq!(
        seq.sim_time().total().to_bits(),
        mp.sim_time().total().to_bits(),
        "cost charging must be backend-independent"
    );
    // the data plane actually moved bytes — and only on the real backend
    assert_eq!(seq.operand_bytes(), 0);
    assert!(mp.operand_bytes() > 0);
    assert!(mp.result_bytes() > 0);
}

#[cfg(unix)]
#[test]
fn multi_process_contracts_and_svd_batch_match_sequential() {
    let spawn = SpawnSpec::SelfExec(vec!["spawned_worker_entry".into()]);
    let mp = Executor::multi_process(Machine::blue_waters(2), 1, 3, spawn).unwrap();
    let seq = Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Sequential);
    let mut rng = StdRng::seed_from_u64(50);
    let pairs: Vec<(DenseTensor<f64>, DenseTensor<f64>)> = (0..5)
        .map(|_| {
            (
                DenseTensor::<f64>::random([8, 3, 6], &mut rng),
                DenseTensor::<f64>::random([6, 3, 4], &mut rng),
            )
        })
        .collect();
    for (a, b) in &pairs {
        let s = seq.contract("isj,jtk->istk", a, b).unwrap();
        let m = mp.contract("isj,jtk->istk", a, b).unwrap();
        assert_eq!(s.data(), m.data());
    }
    let mats: Vec<DenseTensor<f64>> = (0..4)
        .map(|i| DenseTensor::<f64>::random([10 + i, 5], &mut rng))
        .collect();
    let spec = TruncSpec {
        max_rank: 3,
        cutoff: 0.0,
        min_keep: 1,
    };
    let svd_seq = seq.svd_trunc_batch(&mats, spec).unwrap();
    let svd_mp = mp.svd_trunc_batch(&mats, spec).unwrap();
    for (s, m) in svd_seq.iter().zip(&svd_mp) {
        assert_eq!(s.s, m.s);
        assert_eq!(s.u.data(), m.u.data());
        assert_eq!(s.vt.data(), m.vt.data());
    }
    assert_eq!(seq.total_flops(), mp.total_flops());
    assert_eq!(seq.supersteps(), mp.supersteps());
    assert_eq!(
        seq.sim_time().total().to_bits(),
        mp.sim_time().total().to_bits()
    );
}

#[cfg(unix)]
#[test]
fn multi_process_handle_reuse_ships_zero_operand_bytes() {
    let spawn = SpawnSpec::SelfExec(vec!["spawned_worker_entry".into()]);
    let mp = Executor::multi_process(Machine::blue_waters(2), 1, 2, spawn).unwrap();
    let (a, b) = operands(64);
    let ha = mp.upload(&a);
    let hb = mp.upload(&b);
    let c1 = mp.contract("isj,jtk->istk", &ha, &hb).unwrap();
    let first = mp.operand_bytes();
    let c2 = mp.contract("isj,jtk->istk", &ha, &hb).unwrap();
    let second = mp.operand_bytes() - first;
    assert_eq!(c1.data(), c2.data());
    // the repeat ships only chunk headers and store keys — orders of
    // magnitude below the first (which uploaded both operands)
    assert!(
        second * 20 < first,
        "resident repeat must ship almost nothing: first {first}, second {second}"
    );
    // value-passing the same contraction ships the operands again
    let c3 = mp.contract("isj,jtk->istk", &a, &b).unwrap();
    assert_eq!(c1.data(), c3.data());
    let third = mp.operand_bytes() - first - second;
    assert!(third > 10 * second);
    // worker stores report the residency; free empties them everywhere
    let entries =
        |mp: &Executor| -> u64 { mp.cache_stats().unwrap().iter().map(|s| s.entries).sum() };
    assert!(entries(&mp) > 0);
    mp.free(&ha).unwrap();
    mp.free(&hb).unwrap();
    assert_eq!(entries(&mp), 0);
}

#[cfg(unix)]
#[test]
fn multi_process_resident_footprint_stays_bounded() {
    // a long run of upload → contract → free cycles must leave the
    // worker stores empty: the driver's `Free` is their only bound
    let spawn = SpawnSpec::SelfExec(vec!["spawned_worker_entry".into()]);
    let mp = Executor::multi_process(Machine::local(), 1, 2, spawn).unwrap();
    let mut rng = StdRng::seed_from_u64(65);
    for _ in 0..12 {
        let a = DenseTensor::<f64>::random([12, 18], &mut rng);
        let b = DenseTensor::<f64>::random([18, 9], &mut rng);
        let hb = mp.upload(&b);
        let c1 = mp.contract("ik,kj->ij", &a, &hb).unwrap();
        let c2 = mp.contract("ik,kj->ij", &a, &hb).unwrap();
        assert_eq!(c1.data(), c2.data());
        mp.free(&hb).unwrap();
    }
    for (bytes, entries) in mp.worker_cache_stats().unwrap() {
        assert_eq!((bytes, entries), (0, 0), "all handles were freed");
    }
}

#[test]
fn handle_returning_contractions_match_value_paths() {
    let (a, b) = operands(70);
    let exec = Executor::with_machine(Machine::blue_waters(2), 2, ExecMode::Sequential);
    let c_ref = exec.contract("isj,jtk->istk", &a, &b).unwrap();
    let h = to_handle(
        &exec,
        "isj,jtk->istk",
        ChainSrc::Dense((&a).into()),
        ChainSrc::Dense((&b).into()),
    );
    assert_eq!(h.dims(), c_ref.dims());
    let c = exec.download(h).unwrap();
    assert_eq!(c.data(), c_ref.data(), "dense");

    let sa = SparseTensor::from_dense(&a, 0.5);
    let d_ref = exec.contract_sd("isj,jtk->istk", &sa, &b).unwrap();
    let h = to_handle(
        &exec,
        "isj,jtk->istk",
        ChainSrc::Sparse((&sa).into()),
        ChainSrc::Dense((&b).into()),
    );
    let d = exec.download(h).unwrap();
    assert_eq!(d.data(), d_ref.data(), "sparse-dense");
}

#[test]
fn chains_compose_prev_acc_and_res_bitwise() {
    let mut rng = StdRng::seed_from_u64(71);
    let a = DenseTensor::<f64>::random([6, 8], &mut rng);
    let b = DenseTensor::<f64>::random([8, 5], &mut rng);
    let c = DenseTensor::<f64>::random([5, 7], &mut rng);
    let exec = Executor::with_machine(Machine::blue_waters(2), 2, ExecMode::Sequential);
    let t_ref = exec.contract("ik,kj->ij", &a, &b).unwrap();
    let y_ref = exec.contract("ik,kj->ij", &t_ref, &c).unwrap();

    // (a·b)·c with the intermediate consumed worker-side via Prev
    let mut out = exec
        .chain(&[
            ChainStep {
                spec: "ik,kj->ij",
                a: ChainSrc::Dense((&a).into()),
                b: ChainSrc::Dense((&b).into()),
                acc: None,
                mask: None,
            },
            ChainStep {
                spec: "ik,kj->ij",
                a: ChainSrc::Prev(0),
                b: ChainSrc::Dense((&c).into()),
                acc: None,
                mask: None,
            },
        ])
        .unwrap();
    let h_y = out.pop().unwrap().unwrap();
    assert!(out.pop().unwrap().is_none(), "the chain consumed it");
    assert_eq!(exec.download(h_y).unwrap().data(), y_ref.data());

    // accumulate folds partials in submission order (first stored)
    let mut out = exec
        .chain(&[
            ChainStep {
                spec: "ik,kj->ij",
                a: ChainSrc::Dense((&a).into()),
                b: ChainSrc::Dense((&b).into()),
                acc: None,
                mask: None,
            },
            ChainStep {
                spec: "ik,kj->ij",
                a: ChainSrc::Dense((&a).into()),
                b: ChainSrc::Dense((&b).into()),
                acc: Some(0),
                mask: None,
            },
        ])
        .unwrap();
    assert!(out[1].is_none(), "accumulate steps fold into their target");
    let h = out[0].take().unwrap();
    let mut acc_ref = t_ref.clone();
    acc_ref.axpy(1.0, &t_ref).unwrap();
    assert_eq!(exec.download(h).unwrap().data(), acc_ref.data());

    // results of earlier chains feed later ones via Res
    let h1 = to_handle(
        &exec,
        "ik,kj->ij",
        ChainSrc::Dense((&a).into()),
        ChainSrc::Dense((&b).into()),
    );
    let mut out = exec
        .chain(&[ChainStep {
            spec: "ik,kj->ij",
            a: ChainSrc::Res(&h1),
            b: ChainSrc::Dense((&c).into()),
            acc: None,
            mask: None,
        }])
        .unwrap();
    let h_y = out.pop().unwrap().unwrap();
    assert_eq!(exec.download(h_y).unwrap().data(), y_ref.data());
    exec.free_results(vec![h1]).unwrap();

    // malformed chains surface as errors
    assert!(
        exec.chain(&[ChainStep {
            spec: "ik,kj->ij",
            a: ChainSrc::Prev(3),
            b: ChainSrc::Dense((&c).into()),
            acc: None,
            mask: None,
        }])
        .is_err(),
        "forward Prev reference"
    );
    assert!(
        exec.chain(&[
            ChainStep {
                spec: "ik,kj->ij",
                a: ChainSrc::Dense((&a).into()),
                b: ChainSrc::Dense((&b).into()),
                acc: None,
                mask: None,
            },
            ChainStep {
                spec: "ik,kj->ij",
                a: ChainSrc::Dense((&a).into()),
                b: ChainSrc::Dense((&b).into()),
                acc: Some(0),
                mask: None,
            },
            ChainStep {
                spec: "ik,kj->ij",
                a: ChainSrc::Dense((&a).into()),
                b: ChainSrc::Dense((&b).into()),
                acc: Some(1),
                mask: None,
            },
        ])
        .is_err(),
        "accumulating into an accumulate step"
    );
}

/// An accumulate step's kernel adds its tiles into the target through
/// the output permutation; the target must hold the bits of the value
/// path's fold — the first partial stored, every later one permuted and
/// then added — on every backend (the two-worker leg is the worker's
/// accumulate store). A general permutation, a plain transpose (its
/// product row-split over the pool in Threaded mode) and one that fuses
/// to the identity.
#[test]
fn accumulate_folds_the_output_permutation_bitwise() {
    use tt_tensor::gemm::MC;
    use tt_tensor::transpose::{motion, Motion};
    let mut rng = StdRng::seed_from_u64(74);
    let mut dense = |dims: &[usize]| DenseTensor::<f64>::random(dims, &mut rng);
    let cases = [
        (
            "isj,jtk->ktis",
            &[9, 4, 7][..],
            &[7, 3, 5][..],
            Motion::General,
        ),
        (
            "ik,kj->ji",
            &[MC + 22, 65],
            &[65, 70],
            Motion::Transpose {
                rows: 70,
                cols: MC + 22,
            },
        ),
        ("isj,jtk->istk", &[9, 4, 7], &[7, 3, 5], Motion::Identity),
    ];
    let mut execs = vec![
        Executor::with_machine(Machine::blue_waters(2), 2, ExecMode::Sequential),
        Executor::with_machine(Machine::blue_waters(2), 2, ExecMode::Threaded),
    ];
    #[cfg(unix)]
    execs.push({
        let spawn = SpawnSpec::SelfExec(vec!["spawned_worker_entry".into()]);
        Executor::multi_process(Machine::blue_waters(2), 2, 2, spawn).unwrap()
    });
    for (spec, a_dims, b_dims, moves) in cases {
        let pairs: Vec<_> = (0..3).map(|_| (dense(a_dims), dense(b_dims))).collect();
        let plan = tt_tensor::einsum::ContractPlan::parse(spec).unwrap();
        let nat = crate::kernels::natural_dims(&plan, a_dims, b_dims);
        assert_eq!(motion(&nat, plan.output_permutation()).unwrap(), moves);
        let local = Executor::local();
        let mut fold = local.contract(spec, &pairs[0].0, &pairs[0].1).unwrap();
        for (a, b) in &pairs[1..] {
            fold.axpy(1.0, &local.contract(spec, a, b).unwrap())
                .unwrap();
        }
        let steps: Vec<ChainStep> = pairs
            .iter()
            .enumerate()
            .map(|(i, (a, b))| ChainStep {
                spec,
                a: ChainSrc::Dense(a.into()),
                b: ChainSrc::Dense(b.into()),
                acc: (i > 0).then_some(0),
                mask: None,
            })
            .collect();
        let bits = |t: &DenseTensor<f64>| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for exec in &execs {
            let mut out = exec.chain(&steps).unwrap();
            let c = exec.download(out[0].take().unwrap()).unwrap();
            assert_eq!(c.dims(), fold.dims());
            assert_eq!(bits(&c), bits(&fold), "{spec} on {:?}", exec.backend());
        }
    }
}

#[cfg(unix)]
#[test]
fn multi_process_chains_bitwise_and_collapse_result_bytes() {
    let spawn = SpawnSpec::SelfExec(vec!["spawned_worker_entry".into()]);
    let mp = Executor::multi_process(Machine::blue_waters(2), 1, 2, spawn).unwrap();
    let mut rng = StdRng::seed_from_u64(72);
    let a = DenseTensor::<f64>::random([24, 30], &mut rng);
    let b = DenseTensor::<f64>::random([30, 18], &mut rng);
    let c = DenseTensor::<f64>::random([18, 12], &mut rng);

    // value path: both intermediates round-trip through the driver
    let before = mp.result_bytes();
    let t = mp.contract("ik,kj->ij", &a, &b).unwrap();
    let y_ref = mp.contract("ik,kj->ij", &t, &c).unwrap();
    let value_result_bytes = mp.result_bytes() - before;

    // chained: only the final download returns bytes
    let before = mp.result_bytes();
    let mut out = mp
        .chain(&[
            ChainStep {
                spec: "ik,kj->ij",
                a: ChainSrc::Dense((&a).into()),
                b: ChainSrc::Dense((&b).into()),
                acc: None,
                mask: None,
            },
            ChainStep {
                spec: "ik,kj->ij",
                a: ChainSrc::Prev(0),
                b: ChainSrc::Dense((&c).into()),
                acc: None,
                mask: None,
            },
        ])
        .unwrap();
    let h_y = out.pop().unwrap().unwrap();
    assert!(out.pop().unwrap().is_none(), "the chain freed it itself");
    let y = mp.download(h_y).unwrap();
    let chain_result_bytes = mp.result_bytes() - before;
    assert_eq!(y.data(), y_ref.data(), "chained must be bitwise equal");
    assert!(
        2 * chain_result_bytes < value_result_bytes,
        "chaining must collapse driver result bytes: chain {chain_result_bytes} vs \
         value {value_result_bytes}"
    );

    // results created by separate chains land on different anchor
    // ranks; combining them exercises the explicit redistribute
    // superstep and still matches the value path bitwise
    let d = DenseTensor::<f64>::random([12, 9], &mut rng);
    let h1 = to_handle(
        &mp,
        "ik,kj->ij",
        ChainSrc::Dense((&a).into()),
        ChainSrc::Dense((&b).into()),
    );
    let h2 = to_handle(
        &mp,
        "ik,kj->ij",
        ChainSrc::Dense((&c).into()),
        ChainSrc::Dense((&d).into()),
    );
    let fused_ref = mp
        .contract("ik,kj->ij", &t, &mp.contract("ik,kj->ij", &c, &d).unwrap())
        .unwrap();
    let mut out = mp
        .chain(&[ChainStep {
            spec: "ik,kj->ij",
            a: ChainSrc::Res(&h1),
            b: ChainSrc::Res(&h2),
            acc: None,
            mask: None,
        }])
        .unwrap();
    let h = out.pop().unwrap().unwrap();
    assert_eq!(mp.download(h).unwrap().data(), fused_ref.data());
    mp.free_results(vec![h1, h2]).unwrap();

    // after download/free nothing is left on the workers
    let entries: u64 = mp.cache_stats().unwrap().iter().map(|s| s.entries).sum();
    assert_eq!(entries, 0, "chain intermediates leave on download/free");
}

/// A tall panel (≥ 32 rows, ≥ 8× as many rows as columns) is SVD'd as
/// `qr_thin`, then the SVD of `R`, then `U = Q · U_R` — bit for bit on
/// every backend; anything else is one `svd_trunc`; either way the sign
/// gauge is fixed last. A batch holding tall and square panels is one
/// superstep.
#[test]
fn tall_panels_factor_through_qr_first() {
    use crate::transport::RecordingTransport;
    let mut rng = StdRng::seed_from_u64(73);
    let spec = TruncSpec {
        max_rank: 6,
        cutoff: 0.0,
        min_keep: 1,
    };
    // (dims, tall): 32 × 4 sits on both bounds; 31 rows or aspect < 8 is
    // not tall
    let panels: Vec<(DenseTensor<f64>, bool)> = [
        ([256, 8], true),
        ([32, 4], true),
        ([31, 2], false),
        ([40, 6], false),
    ]
    .into_iter()
    .map(|(dims, tall)| (DenseTensor::<f64>::random(dims, &mut rng), tall))
    .collect();
    let mut execs = vec![
        Executor::with_machine(Machine::blue_waters(2), 2, ExecMode::Sequential),
        Executor::with_machine(Machine::blue_waters(2), 2, ExecMode::Threaded),
    ];
    #[cfg(unix)]
    execs.push({
        let spawn = SpawnSpec::SelfExec(vec!["spawned_worker_entry".into()]);
        Executor::multi_process(Machine::blue_waters(2), 2, 2, spawn).unwrap()
    });
    for (a, tall) in &panels {
        let mut reference = if *tall {
            let (q, r) = tt_linalg::qr_thin(a).unwrap();
            let t = tt_linalg::svd_trunc(&r, spec).unwrap();
            TruncatedSvd {
                u: tt_tensor::gemm_f64(&q, &t.u).unwrap(),
                ..t
            }
        } else {
            tt_linalg::svd_trunc(a, spec).unwrap()
        };
        reference.fix_signs();
        for exec in &execs {
            let what = format!("{:?} on {:?}", a.dims(), exec.backend());
            let t = exec.svd_trunc(a, spec).unwrap();
            assert_eq!(t.u.data(), reference.u.data(), "{what}");
            assert_eq!(t.s, reference.s, "{what}");
            assert_eq!(t.vt.data(), reference.vt.data(), "{what}");
            assert_eq!(
                t.trunc_err.to_bits(),
                reference.trunc_err.to_bits(),
                "{what}"
            );
        }
    }

    // tall and square in one batch: one frame per matrix, placed by one
    // placement (a loop of singles would put each on rank 0), and charged
    // in submission order like that loop
    let mut batch = Executor::with_machine(Machine::blue_waters(2), 2, ExecMode::Sequential);
    let (transport, log) = RecordingTransport::new(2);
    batch.cluster = Some(Mutex::new(Cluster::new(Box::new(transport))));
    let mixed = [2, 0, 3].map(|i| panels[i].0.clone());
    let singles = Executor::with_machine(Machine::blue_waters(2), 2, ExecMode::Sequential);
    let reference: Vec<TruncatedSvd> = mixed
        .iter()
        .map(|a| singles.svd_trunc(a, spec).unwrap())
        .collect();
    let out = batch.svd_trunc_batch(&mixed, spec).unwrap();
    for (t, r) in out.iter().zip(&reference) {
        assert_eq!(t.u.data(), r.u.data());
        assert_eq!(t.vt.data(), r.vt.data());
    }
    let frames = log.lock().unwrap().clone();
    let ranks: Vec<&str> = frames
        .iter()
        .map(|f| f.split(' ').next().unwrap())
        .collect();
    assert!(
        frames.iter().all(|f| f.contains(" SvdTrunc ")),
        "{frames:?}"
    );
    assert_eq!(ranks, ["r0", "r1", "r0"], "{frames:?}");
    assert_eq!(counters(&batch), counters(&singles));
}

#[test]
fn svd_is_exact_and_charged() {
    let mut rng = StdRng::seed_from_u64(46);
    let a = DenseTensor::<f64>::random([40, 12], &mut rng);
    let exec = Executor::with_machine(Machine::stampede2(4), 1, ExecMode::Sequential);
    let spec = TruncSpec {
        max_rank: 8,
        cutoff: 0.0,
        min_keep: 1,
    };
    let t = exec.svd_trunc(&a, spec).unwrap();
    let mut t2 = tt_linalg::svd_trunc(&a, spec).unwrap();
    t2.fix_signs();
    assert_eq!((t.u.data(), &t.s), (t2.u.data(), &t2.s));
    assert_eq!(t.vt.data(), t2.vt.data());
    assert_eq!(t.s.len(), 8);
    assert!(exec.sim_time().svd > 0.0);
    assert!(exec.supersteps() > 0);
}

/// A batch holding a non-matrix fails on every backend before anything
/// is charged or sent, whatever matrices stand ahead of it.
#[test]
fn factorization_batch_with_a_non_matrix_fails_up_front() {
    let mut rng = StdRng::seed_from_u64(74);
    let matrix = DenseTensor::<f64>::random([20, 8], &mut rng);
    let cube = DenseTensor::<f64>::random([3, 4, 5], &mut rng);
    let spec = TruncSpec {
        max_rank: 6,
        cutoff: 0.0,
        min_keep: 1,
    };
    let mut execs = vec![
        Executor::with_machine(Machine::blue_waters(2), 2, ExecMode::Sequential),
        Executor::with_machine(Machine::blue_waters(2), 2, ExecMode::Threaded),
    ];
    #[cfg(unix)]
    execs.push({
        let spawn = SpawnSpec::SelfExec(vec!["spawned_worker_entry".into()]);
        Executor::multi_process(Machine::blue_waters(2), 2, 2, spawn).unwrap()
    });
    for exec in &execs {
        let before = counters(exec);
        let batch = [matrix.clone(), cube.clone()];
        assert!(
            matches!(exec.svd_trunc_batch(&batch, spec), Err(Error::Linalg(_))),
            "{:?}",
            exec.backend()
        );
        assert_eq!(counters(exec), before, "{:?}", exec.backend());
    }
}

/// A matrix the SVD cannot factor (a NaN in it) fails typed on every
/// backend — the linear-algebra error in-process, a task fault from a
/// worker — and the executor factors the next matrix as before.
#[test]
fn an_svd_that_cannot_converge_fails_typed_on_every_backend() {
    let mut rng = StdRng::seed_from_u64(75);
    let good = DenseTensor::<f64>::random([12, 9], &mut rng);
    let mut bad = good.clone();
    bad.set(&[3, 4], f64::NAN);
    let spec = TruncSpec::default();
    let mut execs = vec![
        Executor::with_machine(Machine::blue_waters(2), 2, ExecMode::Sequential),
        Executor::with_machine(Machine::blue_waters(2), 2, ExecMode::Threaded),
    ];
    #[cfg(unix)]
    execs.push({
        let spawn = SpawnSpec::SelfExec(vec!["spawned_worker_entry".into()]);
        Executor::multi_process(Machine::blue_waters(2), 2, 2, spawn).unwrap()
    });
    let reference = execs[0].svd_trunc(&good, spec).unwrap();
    for exec in &execs {
        let what = format!("{:?}", exec.backend());
        match exec.svd_trunc(&bad, spec) {
            Err(Error::Linalg(tt_linalg::Error::NoConvergence(_))) => {}
            Err(Error::Transport(e)) if exec.cluster.is_some() => {
                assert_eq!(e.kind, crate::FaultKind::Task, "{what}: {e}");
                assert!(e.detail.contains("no convergence"), "{what}: {e}");
            }
            other => panic!("{what}: {other:?}"),
        }
        let t = exec.svd_trunc(&good, spec).unwrap();
        assert_eq!(t.u.data(), reference.u.data(), "{what}");
        assert_eq!(t.vt.data(), reference.vt.data(), "{what}");
    }
}

/// Every cost counter of an executor, floats by bit pattern.
fn counters(exec: &Executor) -> (u64, u64, String, u64, u64, u64) {
    (
        exec.total_flops(),
        exec.supersteps(),
        format!("{:?}", exec.sim_time()),
        exec.operand_bytes(),
        exec.result_bytes(),
        exec.recovery_bytes(),
    )
}

/// A factorization batch, a tall panel among its matrices, equals the
/// loop of singles bit for bit — factors and every cost counter — on
/// Sequential, Threaded and two worker processes, and the factors and
/// charges agree across the backends. Every matrix goes by value, so a
/// repeated batch ships all of them again on the worker backend.
#[test]
fn mixed_value_handle_factorization_batch_matches_singles_on_every_backend() {
    let mut rng = StdRng::seed_from_u64(48);
    let mats: Vec<DenseTensor<f64>> = [(20usize, 8usize), (13, 13), (256, 8), (6, 17), (30, 4)]
        .iter()
        .map(|&(m, n)| DenseTensor::<f64>::random([m, n], &mut rng))
        .collect();
    let spec = TruncSpec {
        max_rank: 6,
        cutoff: 0.0,
        min_keep: 1,
    };
    let in_process = |mode| move || Executor::with_machine(Machine::stampede2(4), 1, mode);
    let mut backends: Vec<Box<dyn Fn() -> Executor>> = vec![
        Box::new(in_process(ExecMode::Sequential)),
        Box::new(in_process(ExecMode::Threaded)),
    ];
    #[cfg(unix)]
    backends.push(Box::new(|| {
        let spawn = SpawnSpec::SelfExec(vec!["spawned_worker_entry".into()]);
        Executor::multi_process(Machine::stampede2(4), 1, 2, spawn).unwrap()
    }));
    let svd_bits = |t: &TruncatedSvd| {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        let trunc_err = t.trunc_err.to_bits();
        (bits(t.u.data()), bits(&t.s), bits(t.vt.data()), trunc_err)
    };
    let mut reference = None;
    for make in &backends {
        let (single, batch) = (make(), make());
        let singles: Vec<_> = mats
            .iter()
            .map(|m| svd_bits(&single.svd_trunc(m, spec).unwrap()))
            .collect();
        let svds: Vec<_> = batch.svd_trunc_batch(&mats, spec).unwrap();
        let what = format!("{:?}", batch.backend());
        assert_eq!(
            svds.iter().map(svd_bits).collect::<Vec<_>>(),
            singles,
            "{what}"
        );
        assert_eq!(counters(&batch), counters(&single), "{what}");
        let charged = (
            batch.total_flops(),
            batch.supersteps(),
            batch.sim_time().total().to_bits(),
        );
        let (want, want_charged) = reference.get_or_insert((singles.clone(), charged));
        assert_eq!(&singles, want, "{what}");
        assert_eq!(&charged, want_charged, "{what}");
        let before = batch.operand_bytes();
        batch.svd_trunc_batch(&mats, spec).unwrap();
        let by_value = match batch.backend() {
            Backend::MultiProcess { .. } => 8 * mats.iter().map(|m| m.len() as u64).sum::<u64>(),
            Backend::InProcess(_) => 0,
        };
        assert_eq!(batch.operand_bytes() - before, by_value, "{what}");
    }
}

/// The four H_eff operands `(L, W₁, W₂, R)` as sparse tensors and a
/// two-site tensor, at bond dimension `bond` (`kernels::tests::heff_steps`:
/// MPO bond 5, physical dimension 2): at 64 every intermediate is 655 KB
/// and `x`, `y` are 128 KiB — all workspace-sized; at 8 nothing is.
fn heff_operands(bond: usize, seed: u64) -> (Vec<SparseTensor<f64>>, DenseTensor<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let steps = heff_steps(bond);
    let structural = steps
        .iter()
        .map(|(_, dims, _)| {
            SparseTensor::from_dense(&DenseTensor::random(&dims[..], &mut rng), 0.8)
        })
        .collect();
    (structural, DenseTensor::random(&steps[0].2[..], &mut rng))
}

/// One sparse-dense matvec as a sweep runs it: the four steps as one
/// chain against resident operands, the result downloaded, its bits
/// copied out and both dense ends handed back.
fn sd_matvec(exec: &Executor, handles: &[OpHandle], x: &DenseTensor<f64>) -> Vec<f64> {
    let x = x.clone();
    let specs = heff_steps(0).map(|(spec, ..)| spec);
    let steps: Vec<ChainStep> = specs
        .iter()
        .zip(handles)
        .enumerate()
        .map(|(s, (&spec, h))| ChainStep {
            spec,
            a: ChainSrc::Sparse(h.into()),
            b: match s.checked_sub(1) {
                None => ChainSrc::Dense((&x).into()),
                Some(prev) => ChainSrc::Prev(prev),
            },
            acc: None,
            mask: None,
        })
        .collect();
    let mut out = exec.chain(&steps).unwrap();
    let y = exec.download(out.pop().unwrap().unwrap()).unwrap();
    assert!(out.iter().all(Option::is_none), "t1..t3 are internal");
    let bits = y.data().to_vec();
    exec.recycle(y);
    exec.recycle(x);
    bits
}

/// A dense chain with an accumulate, a consumed step and an unconsumed
/// non-final one: both handed-out results, downloaded.
fn list_chain(exec: &Executor, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dense = |dims: [usize; 2]| DenseTensor::<f64>::random(dims, &mut rng);
    let (a, b, a2, c) = (
        dense([60, 70]),
        dense([70, 300]),
        dense([60, 70]),
        dense([300, 9]),
    );
    let step = |a, b, acc| ChainStep {
        spec: "ik,kj->ij",
        a,
        b,
        acc,
        mask: None,
    };
    let out = exec
        .chain(&[
            step(
                ChainSrc::Dense((&a).into()),
                ChainSrc::Dense((&b).into()),
                None,
            ),
            step(
                ChainSrc::Dense((&a2).into()),
                ChainSrc::Dense((&b).into()),
                Some(0),
            ),
            step(
                ChainSrc::Dense((&a2).into()),
                ChainSrc::Dense((&b).into()),
                None,
            ),
            step(ChainSrc::Prev(0), ChainSrc::Dense((&c).into()), None),
        ])
        .unwrap();
    let handed: Vec<bool> = out.iter().map(Option::is_some).collect();
    assert_eq!(handed, [false, false, true, true]);
    exec.download_many(out.into_iter().flatten().collect())
        .unwrap()
        .into_iter()
        .map(DenseTensor::into_data)
        .collect()
}

/// The workspace hands a chain the buffers an earlier, differently shaped
/// chain retired — filled with NaN on their way back in a test build, so a
/// kernel row or a transposition that did not write every element cannot
/// pass. Whatever ran before, a chain's bits
/// are a fresh executor's.
#[test]
fn workspace_reuse_is_bitwise_invisible() {
    let (large, x_large) = heff_operands(64, 31);
    let (small, x_small) = heff_operands(8, 32);
    let upload = |exec: &Executor, ops: &[SparseTensor<f64>]| -> Vec<OpHandle> {
        ops.iter().map(|t| exec.upload_sparse(t)).collect()
    };
    let fresh = |ops: &[SparseTensor<f64>], x: &DenseTensor<f64>| {
        let exec = Executor::local();
        sd_matvec(&exec, &upload(&exec, ops), x)
    };
    let exec = Executor::local();
    let (hl, hs) = (upload(&exec, &large), upload(&exec, &small));
    let first = sd_matvec(&exec, &hl, &x_large);
    assert_eq!(first, fresh(&large, &x_large), "large, cold");
    assert_eq!(sd_matvec(&exec, &hs, &x_small), fresh(&small, &x_small));
    assert_eq!(list_chain(&exec, 33), list_chain(&Executor::local(), 33));
    let held_cold = exec.workspace_stats();
    assert_eq!(sd_matvec(&exec, &hl, &x_large), first, "large, again");
    assert_eq!(sd_matvec(&exec, &hl, &x_large), first, "large, warm");
    let stats = exec.workspace_stats();
    assert!(stats.reuses > held_cold.reuses, "{stats:?}");
    // the value path draws from the same workspace
    let step1 = heff_steps(0)[0].0;
    let c = exec.contract_sd(step1, &hl[0], &x_large).unwrap();
    let c_ref = Executor::local()
        .contract_sd(step1, &large[0], &x_large)
        .unwrap();
    assert_eq!(c.data(), c_ref.data());
    assert!(exec.workspace_stats().reuses > stats.reuses);
    for h in hl.iter().chain(&hs) {
        exec.free(h).unwrap();
    }
}

/// After a call the workspace holds no more than that call requested,
/// whatever ran before it — and a second matvec of one shape allocates
/// nothing.
#[test]
fn workspace_holds_no_more_than_the_last_call() {
    let exec = Executor::local();
    let fixtures: Vec<_> = [64, 48, 8]
        .iter()
        .map(|&bond| {
            let (ops, x) = heff_operands(bond, bond as u64);
            let handles: Vec<OpHandle> = ops.iter().map(|t| exec.upload_sparse(t)).collect();
            (handles, x)
        })
        .collect();
    let mut held = Vec::new();
    for which in [0, 0, 1, 2, 1, 0] {
        let (handles, x) = &fixtures[which];
        let before = exec.workspace_stats();
        sd_matvec(&exec, handles, x);
        let after = exec.workspace_stats();
        assert!(
            after.held_bytes <= exec.workspace.call_bytes(),
            "bond fixture {which}: {after:?}"
        );
        held.push((
            after.held_bytes,
            (after.takes - before.takes) - (after.reuses - before.reuses),
        ));
    }
    let (cold, warm, medium, small) = (held[0], held[1], held[2], held[3]);
    assert!(
        cold.0 > 0 && cold.1 > 0,
        "a cold matvec allocates: {held:?}"
    );
    assert_eq!(warm, (cold.0, 0), "a warm one does not: {held:?}");
    assert!(medium.0 < warm.0, "the bound follows the call: {held:?}");
    assert_eq!(small.0, 0, "nothing requested, nothing kept: {held:?}");
    // four steps, two buffers: an intermediate is back before the next
    // but one is requested
    let t_bytes = 8 * 20 * 64 * 64;
    assert!(cold.0 <= 2 * t_bytes + 2 * 128 * 1024, "{held:?}");
    for (handles, _) in &fixtures {
        for h in handles {
            exec.free(h).unwrap();
        }
    }
}

/// In-process, a resident sparse operand keeps its fused coordinates from
/// its first sparse-dense contraction to its last free, under the key its
/// upload is charged by; a value operand keeps nothing.
#[test]
fn resident_sparse_operands_keep_their_coords_until_freed() {
    let (a, b) = operands(74);
    let sa = SparseTensor::from_dense(&a, 0.5);
    let spec = "isj,jtk->istk";
    let plan = tt_tensor::einsum::ContractPlan::parse(spec).unwrap();
    let exec = Executor::local();
    let h = exec.upload_sparse(&sa);
    let n = crate::kernels::fused_dims(&plan, a.dims(), b.dims()).2;
    let lkey = keys::sd_a(&h, &plan, n).logical();
    let kept = || exec.residency.lock().coords(lkey);

    let by_value = exec.contract_sd(spec, &sa, &b).unwrap();
    assert!(kept().is_none());
    let first = exec.contract_sd(spec, &h, &b).unwrap();
    let coords = kept().expect("kept by the first contraction");
    assert_eq!(coords.len(), sa.nnz());
    let chained = to_handle(
        &exec,
        spec,
        ChainSrc::Sparse((&h).into()),
        ChainSrc::Dense((&b).into()),
    );
    assert!(
        Arc::ptr_eq(&coords, &kept().unwrap()),
        "and reused, not rebuilt"
    );
    assert_eq!(first.data(), by_value.data());
    assert_eq!(exec.download(chained).unwrap().data(), by_value.data());
    exec.free(&h).unwrap();
    assert!(kept().is_none(), "the last free drops them");
}

/// `(spec, a dims, b dims, the step it accumulates into)`.
type ListStep = (&'static str, [usize; 2], [usize; 2], Option<usize>);

/// A list chain of one contraction's block pairs and one more step that
/// reads a block, whose `A` is step 0's output. Its shapes repeat: eight
/// steps over four shapes, for `m` rows of `A` and `n` columns of `B`.
fn repeated_list((m, n): (usize, usize)) -> Vec<ListStep> {
    let (ij, ji) = ("ik,kj->ij", "ik,jk->ji");
    vec![
        (ij, [m, 5], [5, n], None),
        (ij, [m, 3], [3, n], Some(0)),
        (ij, [m, 5], [5, n], Some(0)),
        (ij, [m, 5], [5, n], None),
        (ij, [m, 3], [3, n], Some(3)),
        (ji, [m, 5], [n, 5], None),
        (ji, [m, 5], [n, 5], Some(5)),
        // `A` is step 0's output: the dims listed are its dims
        ("ki,kj->ij", [m, n], [m, 6], None),
    ]
}

/// [`repeated_list`] run as one chain on `exec`, and the blocks it hands
/// out.
fn run_repeated_list(exec: &Executor, mn: (usize, usize), seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let list = repeated_list(mn);
    let tensors: Vec<[DenseTensor<f64>; 2]> = list
        .iter()
        .map(|(_, a, b, _)| [a, b].map(|&d| DenseTensor::<f64>::random(d, &mut rng)))
        .collect();
    let last = list.len() - 1;
    let steps: Vec<ChainStep> = list
        .iter()
        .zip(&tensors)
        .enumerate()
        .map(|(i, (&(spec, .., acc), [a, b]))| ChainStep {
            spec,
            a: match i == last {
                true => ChainSrc::Prev(0),
                false => ChainSrc::Dense(a.into()),
            },
            b: ChainSrc::Dense(b.into()),
            acc,
            mask: None,
        })
        .collect();
    let out = exec.chain(&steps).unwrap();
    exec.download_many(out.into_iter().flatten().collect())
        .unwrap()
        .into_iter()
        .map(DenseTensor::into_data)
        .collect()
}

/// What `contract_list` computes for [`repeated_list`]: every pair one
/// value contraction, partials added into their block in pair order.
fn repeated_list_reference(mn: (usize, usize), seed: u64) -> Vec<Vec<f64>> {
    let exec = Executor::local();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut blocks: Vec<Option<DenseTensor<f64>>> = Vec::new();
    let list = repeated_list(mn);
    for (i, &(spec, a, b, acc)) in list.iter().enumerate() {
        let (a, b) = (
            DenseTensor::<f64>::random(a, &mut rng),
            DenseTensor::<f64>::random(b, &mut rng),
        );
        let a = match i == list.len() - 1 {
            true => blocks[0].take().unwrap(),
            false => a,
        };
        let partial = exec.contract(spec, &a, &b).unwrap();
        match acc {
            None => blocks.push(Some(partial)),
            Some(t) => {
                let sum = blocks[t].as_mut().unwrap().data_mut();
                for (s, p) in sum.iter_mut().zip(partial.data()) {
                    *s += p;
                }
                blocks.push(None);
            }
        }
    }
    blocks
        .into_iter()
        .flatten()
        .map(DenseTensor::into_data)
        .collect()
}

/// A chain derives each distinct step shape once, and an identical next
/// chain derives none; a chain at other dims finds no stale shape; after a
/// chain the executor keeps that chain's shapes and no others — with the
/// bits of the value path on every backend.
#[test]
fn list_chain_plans_each_shape_once() {
    use crate::transport::RecordingTransport;
    let mut cluster = Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Sequential);
    let (transport, _log) = RecordingTransport::new(2);
    cluster.cluster = Some(Mutex::new(Cluster::new(Box::new(transport))));
    let threaded = Executor::with_machine(Machine::local(), 1, ExecMode::Threaded);
    let shapes = |mn| {
        let mut keys: Vec<(String, Vec<usize>, Vec<usize>)> = repeated_list(mn)
            .into_iter()
            .map(|(spec, a, b, _)| (spec.to_string(), a.to_vec(), b.to_vec()))
            .collect();
        keys.sort();
        keys.dedup();
        keys
    };
    assert_eq!(shapes((4, 6)).len(), 4);
    for exec in [&Executor::local(), &threaded, &cluster] {
        let derived = || exec.shapes.lock().derived;
        let held = || {
            let mut keys = exec.shapes.lock().keys();
            keys.sort();
            keys
        };
        // the second chain repeats the first; the third changes only the
        // `B` dims, the fourth only the `A` dims, and the memo holds only
        // the chain before
        for (mn, seed) in [((4, 6), 1), ((4, 6), 2), ((4, 9), 3), ((7, 9), 4)] {
            let before = derived();
            let got = run_repeated_list(exec, mn, seed);
            let want = repeated_list_reference(mn, seed);
            assert_eq!(got, want, "{mn:?}, seed {seed}");
            let expect = if seed == 2 { 0 } else { shapes(mn).len() };
            assert_eq!(derived() - before, expect, "{mn:?}, seed {seed}");
            assert_eq!(held(), shapes(mn), "{mn:?}, seed {seed}");
        }
    }
}

/// A chain hands out a handle for every output nothing in it consumed,
/// final or not, and for nothing else; on a cluster the consumed ones are
/// gone from the worker stores when it returns.
#[test]
fn chain_hands_out_terminal_results_only() {
    use crate::transport::RecordingTransport;
    let mut cluster = Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Sequential);
    let (transport, _log) = RecordingTransport::new(2);
    cluster.cluster = Some(Mutex::new(Cluster::new(Box::new(transport))));
    let local = Executor::local();
    let reference = list_chain(&local, 34);
    assert_eq!(list_chain(&cluster, 34), reference);
    let stores = cluster.cache_stats().unwrap();
    assert!(stores.iter().all(|s| s.entries == 0), "{stores:?}");

    // between the chain and the downloads: two results stored, not three
    let mut rng = StdRng::seed_from_u64(35);
    let (a, b) = (
        DenseTensor::<f64>::random([6, 8], &mut rng),
        DenseTensor::<f64>::random([8, 8], &mut rng),
    );
    let step = |a, acc| ChainStep {
        spec: "ik,kj->ij",
        a,
        b: ChainSrc::Dense((&b).into()),
        acc,
        mask: None,
    };
    let out = cluster
        .chain(&[
            step(ChainSrc::Dense((&a).into()), None),
            step(ChainSrc::Prev(0), None),
            step(ChainSrc::Dense((&a).into()), None),
        ])
        .unwrap();
    let handed: Vec<bool> = out.iter().map(Option::is_some).collect();
    assert_eq!(handed, [false, true, true]);
    let entries: u64 = cluster
        .cache_stats()
        .unwrap()
        .iter()
        .map(|s| s.entries)
        .sum();
    assert_eq!(entries, 2);
    cluster
        .free_results(out.into_iter().flatten().collect())
        .unwrap();

    // an accumulate step has no output of its own to read
    for exec in [&local, &cluster] {
        let err = exec.chain(&[
            step(ChainSrc::Dense((&a).into()), None),
            step(ChainSrc::Dense((&a).into()), Some(0)),
            step(ChainSrc::Prev(1), None),
        ]);
        assert!(matches!(err, Err(Error::Runtime(_))));
    }
    let entries: u64 = cluster
        .cache_stats()
        .unwrap()
        .iter()
        .map(|s| s.entries)
        .sum();
    assert_eq!(entries, 0);
}

/// A by-value chain operand goes as its value entry point takes it, on a
/// 2-rank cluster with the retention cache on. On dense × dense steps it is
/// content-keyed, as `contract` keys a value: the second run of a chain
/// ships no operand byte, the first run's operands serving from the
/// worker stores. On sparse-dense steps it ships inline, as `contract_sd`
/// ships a value: the second run ships the first run's bytes again, and
/// the stores hold nothing more afterwards — ψ of a matvec is not kept.
#[test]
fn by_value_chain_operands_follow_their_value_entry_point() {
    use crate::transport::RecordingTransport;
    let mut exec = Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Sequential);
    let (transport, _log) = RecordingTransport::new(2);
    let mut cl = Cluster::new(Box::new(transport));
    cl.attach_tracker(Arc::clone(exec.tracker()));
    exec.cluster = Some(Mutex::new(cl));
    exec.set_retention_cap(1 << 20).unwrap();
    let mut rng = StdRng::seed_from_u64(2800);
    let mut dense = |dims: &[usize]| DenseTensor::<f64>::random(dims, &mut rng);
    let (a, b, c, x) = (
        dense(&[6, 8]),
        dense(&[8, 5]),
        dense(&[5, 7]),
        dense(&[8, 5]),
    );
    let (sa, sc) = (
        SparseTensor::from_dense(&a, 0.5),
        SparseTensor::from_dense(&dense(&[7, 6]), 0.5),
    );
    let entries =
        |exec: &Executor| -> u64 { exec.cache_stats().unwrap().iter().map(|s| s.entries).sum() };
    // one run: its result's bits and the operand bytes the chain shipped
    let run = |steps: &[ChainStep]| {
        let before = exec.operand_bytes();
        let out = exec.chain(steps).unwrap();
        let shipped = exec.operand_bytes() - before;
        let y = exec.download(out.into_iter().flatten().last().unwrap());
        (y.unwrap().into_data(), shipped)
    };
    let step = |a, b| ChainStep {
        spec: "ik,kj->ij",
        a,
        b,
        acc: None,
        mask: None,
    };

    let dense_chain = [
        step(ChainSrc::Dense((&a).into()), ChainSrc::Dense((&b).into())),
        step(ChainSrc::Prev(0), ChainSrc::Dense((&c).into())),
    ];
    let (y, first) = run(&dense_chain);
    assert_eq!(first, 8 * (a.len() + b.len() + c.len()) as u64);
    let kept = entries(&exec);
    assert_eq!(kept, 3, "a, b and c, retained");
    assert_eq!(run(&dense_chain), (y, 0), "the second run ships nothing");
    assert_eq!(entries(&exec), kept);

    let sd_chain = [
        step(ChainSrc::Sparse((&sa).into()), ChainSrc::Dense((&x).into())),
        step(ChainSrc::Sparse((&sc).into()), ChainSrc::Prev(0)),
    ];
    let (y, first) = run(&sd_chain);
    assert_eq!(
        first,
        24 * (sa.nnz() + sc.nnz()) as u64 + 8 * x.len() as u64,
        "both sparse operands inline as coordinates, x inline"
    );
    assert_eq!(entries(&exec), kept, "nothing retained");
    assert_eq!(
        run(&sd_chain),
        (y, first),
        "the second run ships it all again"
    );
    assert_eq!(entries(&exec), kept);
}

/// A transport that keeps every frame it sends, byte for byte, and marks
/// every reply the driver waits for with an empty frame.
struct FrameLog {
    inner: crate::InProcTransport,
    sent: Sent,
}

impl crate::Transport for FrameLog {
    fn ranks(&self) -> usize {
        self.inner.ranks()
    }

    fn next_tag(&mut self) -> u64 {
        self.inner.next_tag()
    }

    fn send(&mut self, to: usize, tag: u64, msg: &[u8]) -> Result<()> {
        self.sent
            .lock()
            .expect("frame log")
            .push((to, msg.to_vec()));
        self.inner.send(to, tag, msg)
    }

    fn recv(&mut self, from: usize, tag: u64) -> Result<Vec<u8>> {
        self.sent
            .lock()
            .expect("frame log")
            .push((from, Vec::new()));
        self.inner.recv(from, tag)
    }
}

/// A chain of sparse-sparse steps is the fold of masked `contract_ss`
/// calls, each result minus its stored zeros — with every `A` by handle,
/// and with every `A` by value: the same result bits and flops in-process
/// — one chunk or, past the 16 MFlop gate, one per pool lane — and on a
/// 2-rank cluster, where both steps go out in one superstep as one
/// `SsChunk` each, the second reading the first's stored slots, with no
/// reply awaited between them. Its intermediate is charged as
/// chain-resident rather than as a shipped value, so the chain's simulated
/// seconds are below the fold's and equal across backends. The first step
/// is above the gate. Its output is the next step's operand with the
/// contracted mode last and the free modes `(j, p)` in the opposite order
/// to the step's `(p | j, l)` slots: a table handed on in slot order
/// carries its runs in another order than the per-step path's.
#[test]
fn planned_ss_chain_is_the_masked_fold() {
    let mut rng = StdRng::seed_from_u64(2700);
    let mut sparse = |dims: &[usize], keep: f64| {
        SparseTensor::from_dense(&DenseTensor::<f64>::random(dims, &mut rng), keep)
    };
    let (a1, x, a2) = (
        sparse(&[300, 250], 0.5),
        sparse(&[250, 30, 10], 0.2),
        sparse(&[10, 20], 0.5),
    );
    let mask = |rows: usize, cols: usize, kr: u32, kc: u32| {
        let class = |len: usize, k: u32| (0..len as u32).map(|i| i % k).collect::<Vec<u32>>();
        Arc::new(SlotMap::new(class(rows, kr), &class(cols, kc)))
    };
    // step 1: rows p, columns (j, l); step 2: rows q, columns (j, p)
    let steps = [
        ("pk,kjl->jpl", &a1, mask(300, 300, 3, 3)),
        ("lq,jpl->qjp", &a2, mask(20, 9000, 2, 4)),
    ];
    // each step's `A` by handle, or by value when there are no handles
    fn operand<'a>(
        handles: &'a [OpHandle],
        s: usize,
        value: &'a SparseTensor<f64>,
    ) -> SparseOp<'a> {
        handles.get(s).map_or(value.into(), SparseOp::from)
    }
    let upload = |exec: &Executor, by_value: bool| -> Vec<OpHandle> {
        match by_value {
            true => Vec::new(),
            false => steps.iter().map(|st| exec.upload_sparse(st.1)).collect(),
        }
    };
    let chain = |exec: &Executor, by_value: bool| {
        let handles = upload(exec, by_value);
        let chain_steps: Vec<ChainStep> = steps
            .iter()
            .enumerate()
            .map(|(s, (spec, a, mask))| ChainStep {
                spec,
                a: ChainSrc::Sparse(operand(&handles, s, a)),
                b: match s {
                    0 => ChainSrc::Sparse((&x).into()),
                    _ => ChainSrc::Prev(s - 1),
                },
                acc: None,
                mask: Some(mask),
            })
            .collect();
        let y = exec.chain(&chain_steps).unwrap().pop().flatten().unwrap();
        let y = exec.download_sparse(y).unwrap();
        handles.iter().for_each(|h| exec.free(h).unwrap());
        y
    };
    let fold = |exec: &Executor, by_value: bool| {
        let handles = upload(exec, by_value);
        let mut b = x.clone();
        for (s, (spec, a, mask)) in steps.iter().enumerate() {
            let c = exec
                .contract_ss(spec, operand(&handles, s, a), &b, Some(&**mask))
                .unwrap();
            let (offs, vals) = c.entries().filter(|&(_, v)| v != 0.0).unzip();
            b = SparseTensor::from_sorted(c.shape().clone(), offs, vals).unwrap();
        }
        handles.iter().for_each(|h| exec.free(h).unwrap());
        b
    };
    for by_value in [false, true] {
        let mut across = None;
        for backend in ["sequential", "threaded", "2 ranks"] {
            let what = format!("{backend}, by value: {by_value}");
            let run = |path: &dyn Fn(&Executor, bool) -> SparseTensor<f64>| {
                let (exec, sent) = ss_chain_executor(backend);
                let y = path(&exec, by_value);
                let entries: Vec<(u64, u64)> = y.entries().map(|(o, v)| (o, v.to_bits())).collect();
                let frames = sent.map(|s| s.lock().unwrap().clone());
                (entries, exec.total_flops(), exec.sim_time().total(), frames)
            };
            let (planned, folded) = (run(&chain), run(&fold));
            assert!(!planned.0.is_empty());
            assert_eq!((&planned.0, planned.1), (&folded.0, folded.1), "{what}");
            assert!(
                planned.2 < folded.2,
                "{what}: {} vs {}",
                planned.2,
                folded.2
            );
            if let Some(frames) = &planned.3 {
                let at = |op: u8| {
                    let is_op = move |(i, (_, f)): (usize, &(usize, Vec<u8>))| {
                        (f.first() == Some(&op)).then_some(i)
                    };
                    frames.iter().enumerate().filter_map(is_op)
                };
                let chunks: Vec<usize> = at(12).collect();
                assert_eq!(chunks.len(), 2, "{what}: one SsChunk per step");
                let between = &frames[chunks[0]..chunks[1]];
                assert!(
                    between.iter().all(|(_, f)| !f.is_empty()),
                    "{what}: a round trip"
                );
                // a value ships with its step, a handle's coordinates before it
                assert_eq!(at(4).next().is_none(), by_value, "{what}");
            }
            let seen = (planned.0, planned.1, planned.2.to_bits());
            match &across {
                None => across = Some(seen),
                Some(first) => assert_eq!(&seen, first, "{what}"),
            }
        }
    }
}

/// Every frame a [`FrameLog`] sent, `(rank, encoded request)`, and every
/// reply awaited, `(rank, [])`.
type Sent = Arc<std::sync::Mutex<Vec<(usize, Vec<u8>)>>>;

/// The executors [`planned_ss_chain_is_the_masked_fold`] compares: in
/// process, or on a 2-rank in-process cluster whose frames it keeps.
fn ss_chain_executor(backend: &str) -> (Executor, Option<Sent>) {
    let exec = |mode| Executor::with_machine(Machine::blue_waters(2), 1, mode);
    match backend {
        "sequential" => (exec(ExecMode::Sequential), None),
        "threaded" => (exec(ExecMode::Threaded), None),
        _ => {
            let mut exec = exec(ExecMode::Sequential);
            let sent = Sent::default();
            let transport = FrameLog {
                inner: crate::InProcTransport::new(2),
                sent: Arc::clone(&sent),
            };
            let mut cl = Cluster::new(Box::new(transport));
            cl.attach_tracker(Arc::clone(exec.tracker()));
            exec.cluster = Some(Mutex::new(cl));
            (exec, Some(sent))
        }
    }
}

/// `contract_sd`, masked `contract_ss` and unmasked `contract_ss` are
/// one-step chains: on Sequential, Threaded (all three above the 16 MFlop
/// gate, so the pool cuts them into row chunks) and 2 worker ranks each
/// agrees with the dense einsum, and with itself on the other backends in
/// result bits, flops and simulated seconds; the masked result is the
/// unmasked one filtered to the mask, bit for bit. On the ranks each is
/// one task on one rank, its reply, then its `Download` there.
#[test]
fn one_shot_sparse_contractions_are_one_step_chains() {
    let mut rng = StdRng::seed_from_u64(4200);
    let a = SparseTensor::from_dense(&DenseTensor::<f64>::random([300, 250], &mut rng), 0.5);
    let b = DenseTensor::<f64>::random([250, 300], &mut rng);
    let sb = SparseTensor::from_dense(&b, 0.2);
    let spec = "ik,kj->ji";
    let class = |len: usize| (0..len as u32).map(|i| i % 3).collect::<Vec<u32>>();
    let map = SlotMap::new(class(300), &class(300));
    let bits = |data: &[f64]| data.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
    let entries = |t: SparseTensor<f64>| t.entries().map(|(o, v)| (o, v.to_bits())).collect();
    // each one-shot on a fresh executor of `backend`: its result as
    // `(offset, bits)` (every element for sparse-dense), flops, simulated
    // seconds and, on the ranks, the frames
    type Run = (Vec<(u64, u64)>, u64, u64, Option<Vec<(usize, Vec<u8>)>>);
    let run = |backend: &str, op: usize| -> Run {
        let (exec, sent) = ss_chain_executor(backend);
        let got: Vec<(u64, u64)> = match op {
            0 => {
                let c = exec.contract_sd(spec, &a, &b).unwrap();
                bits(c.data())
                    .into_iter()
                    .enumerate()
                    .map(|(i, v)| (i as u64, v))
                    .collect()
            }
            1 => entries(exec.contract_ss(spec, &a, &sb, Some(&map)).unwrap()),
            _ => entries(exec.contract_ss(spec, &a, &sb, None).unwrap()),
        };
        let frames = sent.map(|s| s.lock().unwrap().clone());
        (
            got,
            exec.total_flops(),
            exec.sim_time().total().to_bits(),
            frames,
        )
    };
    let want = [
        tt_tensor::einsum(spec, &a.to_dense(), &b).unwrap(),
        tt_tensor::einsum(spec, &a.to_dense(), &sb.to_dense()).unwrap(),
    ];
    assert!(
        2 * a.nnz() as u64 * 300 > 16_000_000,
        "sparse-dense above the gate"
    );
    let mut seen: Vec<Run> = Vec::new();
    for op in 0..3 {
        let seq = run("sequential", op);
        let mut value = vec![0.0; 300 * 300];
        for &(off, v) in &seq.0 {
            value[off as usize] = f64::from_bits(v);
        }
        // the masked result is held to the unmasked one below
        let value = DenseTensor::from_vec([300, 300], value).unwrap();
        if op != 1 {
            assert!(value.allclose(&want[op / 2], 1e-12), "op {op}");
        }
        assert!(seq.1 > 16_000_000, "op {op} above the gate");
        for backend in ["threaded", "2 ranks"] {
            let other = run(backend, op);
            assert_eq!(
                (&other.0, other.1, other.2),
                (&seq.0, seq.1, seq.2),
                "op {op} on {backend}"
            );
            let Some(frames) = other.3 else { continue };
            let rank = frames[0].0;
            let shape: Vec<(usize, Option<u8>)> = frames
                .iter()
                .map(|(r, f)| (*r, f.first().copied()))
                .collect();
            let task = [20, 12, 12][op];
            assert_eq!(
                shape,
                [
                    (rank, Some(task)),
                    (rank, None),
                    (rank, Some(18)),
                    (rank, None)
                ],
                "op {op}: one task, then its download"
            );
        }
        seen.push(seq);
    }
    // masked = unmasked filtered to the mask; an offset of the `ji` output
    // is `j · 300 + i`
    let allowed = |&&(off, _): &&(u64, u64)| {
        map.slot((off % 300) as usize, (off / 300) as usize)
            .is_some()
    };
    let filtered: Vec<(u64, u64)> = seen[2].0.iter().filter(allowed).copied().collect();
    assert_eq!(seen[1].0, filtered);
    assert!(seen[1].0.len() < seen[2].0.len());
    assert_eq!(
        seen[1].1, seen[2].1,
        "a mask drops products after counting them"
    );
}

/// A chain of sparse-sparse steps is refused typed, not by a panic, when
/// its steps do not fit: classes of the wrong length, a step whose operand
/// is not the previous step's output, an input of other dims, a step
/// without its mask or a sparse-dense step with one. An empty input flows
/// through to an empty output.
#[test]
fn ss_chain_plan_rejects_steps_that_do_not_fit() {
    let exec = Executor::local();
    let a = SparseTensor::from_dense(&DenseTensor::<f64>::from_fn([3, 4], |i| i[0] as f64), 0.0);
    let h = exec.upload_sparse(&a);
    let mask = |rows: usize, cols: usize| Arc::new(SlotMap::new(vec![0; rows], &vec![0; cols]));
    let (m34, m35, m31) = (mask(3, 4), mask(3, 5), mask(3, 1));
    let step = |spec, b, mask| ChainStep {
        spec,
        a: ChainSrc::Sparse((&h).into()),
        b,
        acc: None,
        mask,
    };
    let x = |dims: [usize; 2]| SparseTensor::<f64>::empty(dims);
    let (x45, x46, x55) = (x([4, 5]), x([4, 6]), x([5, 5]));
    let input = |x| ChainSrc::Sparse(SparseOp::Value(x));
    let fails = |steps: &[ChainStep]| exec.chain(steps).err();
    let runtime = |e: Option<Error>| matches!(e, Some(Error::Runtime(_)));
    let shape = |e: Option<Error>| matches!(e, Some(Error::Tensor(_)));
    // classes for 3 × 4 where the step is 3 × 5
    assert!(runtime(fails(&[step(
        "ik,kj->ij",
        input(&x45),
        Some(&m34)
    )])));
    // "ik,kj->ij" makes a 3 × 5 output, which "ik,kjl->ijl" cannot take
    assert!(shape(fails(&[
        step("ik,kj->ij", input(&x45), Some(&m35)),
        step("ik,kjl->ijl", ChainSrc::Prev(0), Some(&m31)),
    ])));
    // an input of other dims: whose columns the mask was not made for,
    // whose rows `a` cannot contract
    assert!(runtime(fails(&[step(
        "ik,kj->ij",
        input(&x46),
        Some(&m35)
    )])));
    assert!(shape(fails(&[step("ik,kj->ij", input(&x55), Some(&m35))])));
    // a step without its mask, a sparse-dense one with one
    assert!(runtime(fails(&[step("ik,kj->ij", input(&x45), None)])));
    let d = DenseTensor::<f64>::zeros([4, 5]);
    assert!(runtime(fails(&[step(
        "ik,kj->ij",
        ChainSrc::Dense((&d).into()),
        Some(&m35)
    )])));
    // an empty input flows through to an empty output
    let mut out = exec
        .chain(&[step("ik,kj->ij", input(&x45), Some(&m35))])
        .unwrap();
    let y = exec.download_sparse(out.pop().flatten().unwrap()).unwrap();
    assert_eq!((y.dims(), y.nnz()), (&[3usize, 5][..], 0));
    exec.free(&h).unwrap();
}

/// Every frame a 2-worker cluster executor sends for a fixed script that
/// walks each superstep builder — which rank, which request, which
/// resident keys it reads and stores, how many operand bytes it carries —
/// against the committed list. The `kill:R@N` fault plans count sends per
/// rank, so "same frames, same order, same ranks" is a correctness
/// property of any refactor of the cluster legs. On a mismatch the full
/// trace is printed; after an *intended* protocol change, paste it over
/// `trace_golden.txt`.
#[test]
fn protocol_trace_matches_golden() {
    use crate::transport::RecordingTransport;
    use tt_tensor::gemm::{gemm_path, GemmPath, MC};

    // 4 simulated ranks over 2 workers
    let mut exec = Executor::with_machine(Machine::blue_waters(2), 2, ExecMode::Sequential);
    let (transport, log) = RecordingTransport::new(2);
    let mut cl = Cluster::new(Box::new(transport));
    cl.attach_tracker(Arc::clone(exec.tracker()));
    exec.cluster = Some(Mutex::new(cl));
    let mut rng = StdRng::seed_from_u64(1900);
    let mut dense = |dims: &[usize]| DenseTensor::<f64>::random(dims, &mut rng);

    // -- dense, each contraction one whole-pair task: packed and GEMV
    // shapes, by value, by handle (miss, then hit) and mixed
    let (a, b, x) = (dense(&[MC + 22, 65]), dense(&[65, 70]), dense(&[65]));
    assert_eq!(gemm_path(65, 70), GemmPath::Packed);
    assert_eq!(gemm_path(65, 1), GemmPath::Gemv);
    let (ha, hb, hx) = (exec.upload(&a), exec.upload(&b), exec.upload(&x));
    for (spec, bv, hbv) in [("ik,kj->ji", &b, &hb), ("ik,k->i", &x, &hx)] {
        exec.contract(spec, &a, bv).unwrap();
        exec.contract(spec, &ha, hbv).unwrap();
        exec.contract(spec, &ha, hbv).unwrap();
        exec.contract(spec, &ha, bv).unwrap();
    }
    for h in [ha, hb, hx] {
        exec.free(&h).unwrap();
    }
    // value operands under the retention cache ship once, keyed
    exec.set_retention_cap(1 << 20).unwrap();
    exec.contract("ik,kj->ij", &a, &b).unwrap();
    exec.contract("ik,kj->ij", &a, &b).unwrap();
    exec.set_retention_cap(0).unwrap();

    // -- sparse-dense and sparse-sparse one-shots, below the 16 MFlop gate
    // and above it, by value and by handle: each a one-step chain, one
    // task on one rank and its `Download`
    let small = (dense(&[24, 6, 30]), dense(&[30, 6, 18]));
    let large = (dense(&[400, 250]), dense(&[250, 300]));
    for (spec, (a, b), thr_b) in [("isj,jtk->istk", &small, 0.5), ("ik,kj->ji", &large, 0.2)] {
        let (sa, sb) = (
            SparseTensor::from_dense(a, 0.5),
            SparseTensor::from_dense(b, thr_b),
        );
        let (hsa, hb) = (exec.upload_sparse(&sa), exec.upload(b));
        exec.contract_sd(spec, &sa, b).unwrap();
        exec.contract_sd(spec, &hsa, &hb).unwrap();
        exec.contract_sd(spec, &hsa, &hb).unwrap();
        // a mask of two classes, alternating over rows and over columns
        let plan = tt_tensor::ContractPlan::parse(spec).unwrap();
        let (m, _, n) = crate::kernels::fused_dims(&plan, sa.dims(), sb.dims());
        let class = |len: usize| (0..len as u32).map(|i| i % 2).collect::<Vec<u32>>();
        let map = SlotMap::new(class(m), &class(n));
        let mask = Some(&map);
        exec.contract_ss(spec, &sa, &sb, None).unwrap();
        exec.contract_ss(spec, &sa, &sb, mask).unwrap();
        exec.contract_ss(spec, &hsa, &sb, None).unwrap();
        exec.contract_ss(spec, &hsa, &sb, mask).unwrap();
        for h in [hsa, hb] {
            exec.free(&h).unwrap();
        }
    }

    // -- block pairs with mixed operands, twice (misses, then hits)
    let pairs: Vec<_> = (0..4)
        .map(|_| (dense(&[9, 4, 7]), dense(&[7, 4, 5])))
        .collect();
    let (h1, h2, h3) = (
        exec.upload(&pairs[1].0),
        exec.upload(&pairs[2].1),
        exec.upload(&pairs[3].1),
    );
    let mixed: Vec<(DenseOp, DenseOp)> = vec![
        ((&pairs[0].0).into(), (&pairs[0].1).into()),
        ((&h1).into(), (&pairs[1].1).into()),
        ((&pairs[2].0).into(), (&h2).into()),
        ((&h1).into(), (&h3).into()),
    ];
    for _ in 0..2 {
        for &(a, b) in &mixed {
            exec.contract("isj,jtk->istk", a, b).unwrap();
        }
    }

    // -- factorizations: batches, and a tall panel, every matrix inline
    let mats = [dense(&[20, 8]), dense(&[13, 13]), dense(&[6, 17])];
    let tall = dense(&[256, 8]);
    let spec = TruncSpec {
        max_rank: 6,
        cutoff: 0.0,
        min_keep: 1,
    };
    for _ in 0..2 {
        exec.svd_trunc_batch(&mats, spec).unwrap();
    }
    exec.svd_trunc(&tall, spec).unwrap();

    // -- chains. `big` is resident on the anchor rank of a chain of two
    // independent steps only, and the next chain anchors one rank on: its
    // step 1 runs where `big` is and pulls step 0's output across; step 2
    // accumulates into step 1 in place; the chain ends by freeing step 0's
    // output, which was internal to it
    let (p, q, big, r) = (
        dense(&[6, 8]),
        dense(&[8, 40]),
        dense(&[40, 30]),
        dense(&[6, 40]),
    );
    let hbig = exec.upload(&big);
    let step = |a, b, acc| ChainStep {
        spec: "ik,kj->ij",
        a,
        b,
        acc,
        mask: None,
    };
    let pair = exec
        .chain(&[
            step(
                ChainSrc::Dense((&p).into()),
                ChainSrc::Dense((&q).into()),
                None,
            ),
            step(
                ChainSrc::Dense((&r).into()),
                ChainSrc::Dense((&hbig).into()),
                None,
            ),
        ])
        .unwrap();
    exec.download_many(pair.into_iter().flatten().collect())
        .unwrap();
    let mut out = exec
        .chain(&[
            step(
                ChainSrc::Dense((&p).into()),
                ChainSrc::Dense((&q).into()),
                None,
            ),
            step(ChainSrc::Prev(0), ChainSrc::Dense((&hbig).into()), None),
            step(
                ChainSrc::Dense((&r).into()),
                ChainSrc::Dense((&hbig).into()),
                Some(1),
            ),
        ])
        .unwrap();
    let y = out.remove(1).unwrap();
    assert!(out.iter().all(Option::is_none));
    // a later chain consumes the result; a sparse-dense step by value
    // and by handle
    let sq = SparseTensor::from_dense(&dense(&[12, 6]), 0.5);
    let hsq = exec.upload_sparse(&sq);
    let tail = exec
        .chain(&[
            ChainStep {
                spec: "ik,jk->ij",
                a: ChainSrc::Res(&y),
                b: ChainSrc::Dense((&big).into()),
                acc: None,
                mask: None,
            },
            step(ChainSrc::Sparse((&sq).into()), ChainSrc::Res(&y), None),
            step(ChainSrc::Sparse((&hsq).into()), ChainSrc::Res(&y), None),
        ])
        .unwrap();
    exec.download(y).unwrap();
    let mut tail: Vec<ResultHandle> = tail.into_iter().flatten().collect();
    exec.download(tail.remove(0)).unwrap();
    exec.free_results(tail).unwrap();

    // -- a sparse-sparse chain, step 0's `A` by handle and step 1's by
    // value: one superstep, step 1 reading step 0's stored slots, which the
    // chain frees; only `y` downloads
    let sparse = |t: DenseTensor<f64>| SparseTensor::from_dense(&t, 0.5);
    let (s0, sx, s1) = (
        sparse(dense(&[10, 12])),
        sparse(dense(&[12, 9])),
        sparse(dense(&[8, 10])),
    );
    let hs0 = exec.upload_sparse(&s0);
    let two = |len: usize| (0..len as u32).map(|i| i % 2).collect::<Vec<u32>>();
    let map = |rows: usize| Arc::new(SlotMap::new(two(rows), &two(9)));
    let (m10, m8) = (map(10), map(8));
    let ss = exec
        .chain(&[
            ChainStep {
                spec: "ik,kj->ij",
                a: ChainSrc::Sparse((&hs0).into()),
                b: ChainSrc::Sparse((&sx).into()),
                acc: None,
                mask: Some(&m10),
            },
            ChainStep {
                spec: "li,ij->lj",
                a: ChainSrc::Sparse((&s1).into()),
                b: ChainSrc::Prev(0),
                acc: None,
                mask: Some(&m8),
            },
        ])
        .unwrap();
    exec.download_sparse(ss.into_iter().flatten().next().unwrap())
        .unwrap();

    for h in [h1, h2, h3, hbig, hsq, hs0] {
        exec.free(&h).unwrap();
    }
    let stores = exec.cache_stats().unwrap();
    assert!(stores.iter().all(|s| s.entries == 0), "{stores:?}");

    let got = log.lock().unwrap().join("\n") + "\n";
    let golden = include_str!("trace_golden.txt");
    assert!(
        got == golden,
        "protocol trace changed; the full trace is:\n{got}"
    );
}
