//! The four sweep workloads: warm-state set-up, timed reps, output
//! checks, and the traced pass.
//!
//! A rep is a fresh `Executor`, a clone of the warm state and one
//! `Dmrg::run` with a one-sweep schedule. The warm-state recipe is a copy
//! of `tt_bench::workload::grow_state` so that later refactors of the
//! figure binaries cannot move the benchmark's inputs.

use crate::probes;
use crate::trace::Recorder;
use crate::{end_to_end, median, Metric, Opts, Outcome, Round, SETUP_REPS};
use dmrg::{
    davidson, extend_left, extend_right, DavidsonOptions, Dmrg, EffectiveHam, Environments,
    Schedule, SweepParams,
};
use std::time::{Duration, Instant};
use tt_blocks::contract::contract;
use tt_blocks::{block_svd, scale_bond, Algorithm};
use tt_dist::{ExecMode, Executor, Machine, SpawnSpec};
use tt_linalg::TruncSpec;
use tt_mps::{
    electron_filling, heisenberg_j1j2, hubbard, neel_state, Electron, Lattice, Mpo, Mps, SpinHalf,
};

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

#[derive(Clone, Copy, PartialEq)]
pub enum System {
    /// J1–J2 Heisenberg (J2 = 0.5) on a square cylinder.
    Spins,
    /// Triangular Hubbard (t = 1, U = 8.5, compressed MPO) on an XC cylinder.
    Electrons,
}

#[derive(Clone, Copy, PartialEq)]
pub enum Backend {
    Sequential,
    /// `Executor::multi_process(Machine::local(), 1, 2, SelfExec)`.
    TwoProcesses,
}

pub struct SweepWorkload {
    pub name: &'static str,
    pub system: System,
    pub lx: usize,
    pub ly: usize,
    pub m: usize,
    pub algo: Algorithm,
    pub backend: Backend,
}

/// Sizes are fixed: changing one starts a new baseline.
pub const SWEEP_WORKLOADS: [SweepWorkload; 4] = [
    SweepWorkload {
        name: "spins-list-seq",
        system: System::Spins,
        lx: 6,
        ly: 4,
        m: 128,
        algo: Algorithm::List,
        backend: Backend::Sequential,
    },
    SweepWorkload {
        name: "spins-sd-seq",
        system: System::Spins,
        lx: 6,
        ly: 4,
        m: 64,
        algo: Algorithm::SparseDense,
        backend: Backend::Sequential,
    },
    SweepWorkload {
        name: "electrons-ss-seq",
        system: System::Electrons,
        lx: 4,
        ly: 3,
        m: 32,
        algo: Algorithm::SparseSparse,
        backend: Backend::Sequential,
    },
    SweepWorkload {
        name: "spins-list-mp2",
        system: System::Spins,
        lx: 6,
        ly: 4,
        m: 8,
        algo: Algorithm::List,
        backend: Backend::TwoProcesses,
    },
];

/// What set-up leaves behind for the timed reps.
pub struct Warm {
    pub mpo: Mpo,
    pub mps: Mps,
    /// Energy the untimed ramp ended at.
    pub energy: f64,
    /// `(seconds, energy)` of the same sweep on a Sequential executor —
    /// the bitwise reference of the multi-process workload.
    pub sequential: Option<(f64, f64)>,
}

fn davidson_options(seed: u64) -> DavidsonOptions {
    DavidsonOptions {
        max_iter: 4,
        max_subspace: 2,
        tol: 1e-9,
        seed,
    }
}

pub fn sweep_params(m: usize, seed: u64) -> SweepParams {
    SweepParams {
        max_m: m,
        cutoff: 1e-12,
        davidson: davidson_options(seed),
        noise: 0.0,
    }
}

pub fn sequential() -> Executor {
    Executor::with_machine(Machine::local(), 1, ExecMode::Sequential)
}

pub fn two_processes() -> Res<Executor> {
    Ok(Executor::multi_process(
        Machine::local(),
        1,
        2,
        SpawnSpec::SelfExec(vec![]),
    )?)
}

fn executor(backend: Backend) -> Res<Executor> {
    match backend {
        Backend::Sequential => Ok(sequential()),
        Backend::TwoProcesses => two_processes(),
    }
}

/// MPO build (compressed for electrons) and the untimed geometric ramp
/// to bond dimension `m` — `grow_state`'s recipe, with the seed feeding
/// the Davidson and noise generators.
pub fn setup(w: &SweepWorkload, seed: u64) -> Res<Warm> {
    let exec = Executor::local();
    let (lattice, n);
    let (mpo, mut mps) = match w.system {
        System::Spins => {
            lattice = Lattice::square_cylinder(w.lx, w.ly);
            n = lattice.n_sites();
            (
                heisenberg_j1j2(&lattice, 1.0, 0.5).build()?,
                Mps::product_state(&SpinHalf, &neel_state(n))?,
            )
        }
        System::Electrons => {
            lattice = Lattice::triangular_cylinder_xc(w.lx, w.ly);
            n = lattice.n_sites();
            let mut mpo = hubbard(&lattice, 1.0, 8.5).build()?;
            mpo.compress(&exec, 1e-13)?;
            (
                mpo,
                Mps::product_state(&Electron, &electron_filling(n, n / 2, n / 2))?,
            )
        }
    };
    let mut ms = Vec::new();
    let mut m = 8;
    while m < w.m {
        ms.push(m);
        m *= 2;
    }
    ms.push(w.m);
    let schedule = Schedule {
        sweeps: ms
            .iter()
            .enumerate()
            .map(|(i, &m)| SweepParams {
                noise: if i + 1 < ms.len() { 1e-5 } else { 0.0 },
                ..sweep_params(m, seed)
            })
            .collect(),
    };
    let energy = Dmrg::new(&exec, Algorithm::List, &mpo)
        .run(&mut mps, &schedule)?
        .energy;
    let mut warm = Warm {
        mpo,
        mps,
        energy,
        sequential: None,
    };
    if w.backend == Backend::TwoProcesses {
        let rep = timed_rep(
            &SweepWorkload {
                backend: Backend::Sequential,
                ..*w
            },
            &warm,
            seed,
        )?;
        warm.sequential = Some((rep.sweep_s, rep.energy));
    }
    Ok(warm)
}

pub struct Rep {
    /// Wall time of the `Dmrg::run` call.
    pub sweep_s: f64,
    /// Wall time of the whole rep: executor start, state clone, sweep,
    /// executor shutdown.
    pub latency_s: f64,
    pub energy: f64,
    /// `VmHWM` of this process when the rep ended.
    pub rss_mb: f64,
}

/// One sweep of `w` from the warm state on `exec`: `(seconds, energy)`
/// of the `Dmrg::run` call.
pub fn run_sweep(exec: &Executor, w: &SweepWorkload, warm: &Warm, seed: u64) -> Res<(f64, f64)> {
    let mut psi = warm.mps.clone();
    let schedule = Schedule {
        sweeps: vec![sweep_params(w.m, seed)],
    };
    let t = Instant::now();
    let run = Dmrg::new(exec, w.algo, &warm.mpo).run(&mut psi, &schedule)?;
    Ok((t.elapsed().as_secs_f64(), run.energy))
}

pub fn timed_rep(w: &SweepWorkload, warm: &Warm, seed: u64) -> Res<Rep> {
    let start = Instant::now();
    let exec = executor(w.backend)?;
    let (sweep_s, energy) = run_sweep(&exec, w, warm, seed)?;
    drop(exec);
    Ok(Rep {
        sweep_s,
        latency_s: start.elapsed().as_secs_f64(),
        energy,
        rss_mb: crate::peak_rss_mb(),
    })
}

/// Processes whose parent is this one. Worker processes must be gone
/// once their executor or daemon is dropped; gives them a moment to be
/// reaped before counting.
pub fn live_children() -> usize {
    let me = std::process::id().to_string();
    // "pid (comm) state ppid …", and comm may hold spaces
    let is_mine = |stat: &String| {
        let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
        after_comm.split_whitespace().nth(1) == Some(me.as_str())
    };
    let count = || {
        let Ok(proc) = std::fs::read_dir("/proc") else {
            return 0;
        };
        proc.flatten()
            .filter_map(|entry| std::fs::read_to_string(entry.path().join("stat")).ok())
            .filter(is_mine)
            .count()
    };
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let n = count();
        if n == 0 || Instant::now() > deadline {
            return n;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Output checks of one timed sweep; `reference` is the energy every
/// rep must reproduce bit for bit.
fn sweep_is_correct(w: &SweepWorkload, warm: &Warm, rep: &Rep, reference: f64) -> bool {
    let mut ok = true;
    let mut fail = |why: String| {
        eprintln!("{}: CHECK FAILED: {why}", w.name);
        ok = false;
    };
    if !rep.energy.is_finite() {
        fail(format!("energy {} is not finite", rep.energy));
    }
    if rep.energy > warm.energy + 1e-9 {
        fail(format!(
            "energy {} rose above the warm state's {}",
            rep.energy, warm.energy
        ));
    }
    if rep.energy.to_bits() != reference.to_bits() {
        fail(format!(
            "energy {} differs bitwise from the reference {reference}",
            rep.energy
        ));
    }
    if w.backend == Backend::TwoProcesses {
        let orphans = live_children();
        if orphans > 0 {
            fail(format!(
                "{orphans} worker processes outlived their executor"
            ));
        }
    }
    ok
}

/// Timed reps with checks, until `seconds` have passed and at least
/// three were attempted. A rep that returns an error counts as failed and
/// leaves no timing, so a sweep that fails every time ends the run with
/// `failed` = `attempted` instead of repeating for ever.
fn measure(
    w: &SweepWorkload,
    warm: &Warm,
    opts: &Opts,
    seconds: f64,
    out: &mut Outcome,
) -> Vec<Rep> {
    // multi-process reps must reproduce the Sequential sweep of set-up
    let mut reference = warm.sequential.map(|(_, e)| e);
    let mut reps = Vec::new();
    let start = Instant::now();
    let attempted_before = out.attempted;
    while out.attempted < attempted_before + 3 || start.elapsed().as_secs_f64() < seconds {
        out.attempted += 1;
        match timed_rep(w, warm, opts.seed) {
            Ok(rep) => {
                let reference = *reference.get_or_insert(rep.energy);
                if !sweep_is_correct(w, warm, &rep, reference) {
                    out.failed += 1;
                }
                reps.push(rep);
            }
            Err(e) => {
                eprintln!("{}: sweep failed: {e}", w.name);
                out.failed += 1;
            }
        }
    }
    reps
}

/// The untraced run: set-up several times (median is `setup_s`), then
/// timed reps for `--seconds`.
pub fn run_untraced(w: &SweepWorkload, opts: &Opts) -> Res<Outcome> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut warm: Option<Warm> = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let fresh = setup(w, opts.seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if warm
            .as_ref()
            .is_some_and(|prev| prev.energy.to_bits() != fresh.energy.to_bits())
        {
            eprintln!("{}: CHECK FAILED: set-up is not repeatable", w.name);
            out.correct = false;
        }
        warm = Some(fresh);
    }
    let warm = warm.expect("SETUP_REPS >= 1");
    let reps = measure(w, &warm, opts, opts.seconds, &mut out);
    let rounds: Vec<Round> = reps
        .iter()
        .map(|r| Round {
            wall_s: r.latency_s,
            sweep_s: vec![r.sweep_s],
            latency_s: vec![r.latency_s],
            rss_mb: r.rss_mb,
        })
        .collect();
    out.metrics = end_to_end(&setup_s, &rounds);
    Ok(out)
}

struct Traced {
    energy: f64,
    wall_s: f64,
    matvecs: usize,
    bond_steps: usize,
    matvec_flops: u64,
}

/// `Dmrg::run` for one sweep, with `Dmrg::optimize_bond`'s body copied
/// in and a span around each call into a layer's public function. Must
/// stay a faithful copy: the caller requires its energy bitwise-equal to
/// the untraced sweep's. (The noise branch is left out; the timed sweeps
/// run at noise 0.)
fn traced_sweep(
    rec: &mut Recorder,
    exec: &Executor,
    algo: Algorithm,
    mpo: &Mpo,
    mps: &mut Mps,
    params: &SweepParams,
) -> Res<Traced> {
    let n = mps.n_sites();
    let start = Instant::now();
    let sweep = rec.enter("sweep");

    let s = rec.enter("dmrg.canon_env_init");
    mps.canonicalize(exec, 0)?;
    let mut envs = Environments::initialize(exec, algo, mps, mpo)?;
    rec.exit(s);

    let mut out = Traced {
        energy: f64::NAN,
        wall_s: 0.0,
        matvecs: 0,
        bond_steps: 0,
        matvec_flops: 0,
    };
    let order = (0..n - 1)
        .map(|j| (j, true))
        .chain((0..n - 1).rev().map(|j| (j, false)));
    for (j, moving_right) in order {
        let step = rec.enter("dmrg.bond_step");
        let left = envs.left[j].clone().ok_or("missing left environment")?;
        let right = envs.right[j + 1]
            .clone()
            .ok_or("missing right environment")?;

        let s = rec.enter("dmrg.twosite");
        let x0 = contract(
            exec,
            algo,
            "lsj,jtk->lstk",
            mps.tensor(j),
            mps.tensor(j + 1),
        )?;
        rec.exit(s);

        let heff = EffectiveHam {
            exec,
            algo,
            left: &left,
            w1: mpo.tensor(j),
            w2: mpo.tensor(j + 1),
            right: &right,
        };
        let s = rec.enter("dmrg.upload");
        let rham = heff.upload()?;
        rec.exit(s);

        let d = rec.enter("dmrg.davidson");
        let mut matvec_flops = 0;
        let (dres, x) = davidson(
            |v| {
                let s = rec.enter("blocks.matvec");
                let before = exec.total_flops();
                let y = rham.apply(v);
                matvec_flops += exec.total_flops() - before;
                rec.exit(s);
                y
            },
            &x0,
            params.davidson,
        )?;
        rec.exit(d);
        out.matvec_flops += matvec_flops;

        // releasing the resident operands is the other half of upload
        let s = rec.enter("dmrg.upload");
        drop(rham);
        rec.exit(s);

        let s = rec.enter("blocks.svd");
        let svd = block_svd(
            exec,
            &x,
            &[0, 1],
            &[2, 3],
            TruncSpec {
                max_rank: params.max_m,
                cutoff: params.cutoff,
                min_keep: 1,
            },
        )?;
        rec.exit(s);

        if moving_right {
            let mut svt = svd.vt;
            scale_bond(&mut svt, 0, &svd.s, false)?;
            let nrm = svt.norm();
            if nrm > 0.0 {
                svt.scale_mut(1.0 / nrm);
            }
            mps.set_tensor(j, svd.u);
            mps.set_tensor(j + 1, svt);
            let s = rec.enter("dmrg.env_update");
            envs.left[j + 1] = Some(extend_left(
                exec,
                algo,
                &left,
                mps.tensor(j),
                mpo.tensor(j),
            )?);
            rec.exit(s);
        } else {
            let mut us = svd.u;
            scale_bond(&mut us, 2, &svd.s, false)?;
            let nrm = us.norm();
            if nrm > 0.0 {
                us.scale_mut(1.0 / nrm);
            }
            mps.set_tensor(j, us);
            mps.set_tensor(j + 1, svd.vt);
            let s = rec.enter("dmrg.env_update");
            envs.right[j] = Some(extend_right(
                exec,
                algo,
                &right,
                mps.tensor(j + 1),
                mpo.tensor(j + 1),
            )?);
            rec.exit(s);
        }
        rec.exit(step);
        out.energy = dres.lambda;
        out.matvecs += dres.matvecs;
        out.bond_steps += 1;
    }
    rec.exit(sweep);
    out.wall_s = start.elapsed().as_secs_f64();
    Ok(out)
}

/// The traced run: three untraced reps as the reference, one traced
/// sweep, the layer probes, and on the multi-process workload the
/// transport counters and the growth detector.
pub fn run_traced(w: &SweepWorkload, opts: &Opts) -> Res<Outcome> {
    let mut out = Outcome::default();
    let warm = setup(w, opts.seed)?;
    let mut m = Vec::new();

    if !opts.probes_only {
        let reps = measure(w, &warm, opts, 0.0, &mut out);
        let untraced = median(&reps.iter().map(|r| r.sweep_s).collect::<Vec<_>>());

        let mut rec = Recorder::new(w.name);
        rec.rep = reps.len();
        let exec = executor(w.backend)?;
        let mut psi = warm.mps.clone();
        out.attempted += 1;
        let t = traced_sweep(
            &mut rec,
            &exec,
            w.algo,
            &warm.mpo,
            &mut psi,
            &sweep_params(w.m, opts.seed),
        )?;
        if reps.first().map(|r| r.energy.to_bits()) != Some(t.energy.to_bits()) {
            eprintln!(
                "{}: CHECK FAILED: traced sweep energy {} differs bitwise from the untraced sweep",
                w.name, t.energy
            );
            out.failed += 1;
        }

        let matvec_s = rec.total_s("blocks.matvec");
        let davidson_s = rec.total_s("dmrg.davidson");
        let other_s = rec.self_s("sweep") + rec.self_s("dmrg.bond_step");
        let flops = exec.total_flops();
        let sim_s = exec.sim_time().total();
        m.extend([
            Metric::one("trace_overhead_frac", "frac", t.wall_s / untraced - 1.0),
            Metric::one("trace_coverage_frac", "frac", 1.0 - other_s / t.wall_s),
            Metric::one(
                "dmrg.canon_env_init_s",
                "s",
                rec.total_s("dmrg.canon_env_init"),
            ),
            Metric::one("dmrg.twosite_s", "s", rec.total_s("dmrg.twosite")),
            Metric::one("dmrg.upload_s", "s", rec.total_s("dmrg.upload")),
            Metric::one("dmrg.davidson_s", "s", davidson_s),
            Metric::one("dmrg.davidson_self_s", "s", davidson_s - matvec_s),
            Metric::one("blocks.matvec_s", "s", matvec_s),
            Metric::one(
                "blocks.matvec_gflops",
                "GFlop/s",
                t.matvec_flops as f64 / matvec_s * 1e-9,
            ),
            Metric::one("blocks.svd_s", "s", rec.total_s("blocks.svd")),
            Metric::one("dmrg.env_update_s", "s", rec.total_s("dmrg.env_update")),
            Metric::one("dmrg.sweep_other_s", "s", other_s),
            Metric::one("dmrg.matvecs", "count", t.matvecs as f64),
            Metric::one("dmrg.bond_steps", "count", t.bond_steps as f64),
            Metric::one("dist.exec.flops", "count", flops as f64),
            Metric::one("dist.exec.supersteps", "count", exec.supersteps() as f64),
            Metric::one(
                "dist.exec.sweep_gflops",
                "GFlop/s",
                flops as f64 / t.wall_s * 1e-9,
            ),
            Metric::one("dist.exec.sim_s", "s", sim_s),
            Metric::one("dist.exec.sim_over_wall", "ratio", sim_s / t.wall_s),
        ]);

        if let Some((seq_s, _)) = warm.sequential {
            m.extend([
                Metric::one(
                    "dist.transport.operand_bytes",
                    "B",
                    exec.operand_bytes() as f64,
                ),
                Metric::one(
                    "dist.transport.result_bytes",
                    "B",
                    exec.result_bytes() as f64,
                ),
                Metric::one(
                    "dist.transport.recovery_bytes",
                    "B",
                    exec.recovery_bytes() as f64,
                ),
                Metric::one("dist.cluster.mp2_over_seq", "ratio", untraced / seq_s),
            ]);
            // growth detector: three consecutive sweeps on ONE executor
            // (the traced sweep was its first)
            let mut walls = vec![t.wall_s];
            for _ in 0..2 {
                walls.push(run_sweep(&exec, w, &warm, opts.seed)?.0);
            }
            m.push(Metric::one(
                "dist.cluster.sweep3_over_sweep1",
                "ratio",
                walls[2] / walls[0],
            ));
        }
        drop(exec);
        crate::write_trace(&rec, w.name);
    }

    probes::kernels(&mut m);
    probes::middle_bond(&mut m, &warm);
    if w.backend == Backend::TwoProcesses {
        probes::transport(&mut m, w, &warm, opts.seed)?;
        if live_children() > 0 {
            eprintln!("{}: CHECK FAILED: workers outlived the probes", w.name);
            out.correct = false;
        }
    }
    out.metrics = m;
    Ok(out)
}
