//! The multi-tenant solve service end to end: concurrent DMRG jobs from
//! multiple clients share one p=3 multi-process worker fleet, and each
//! job's numerics and per-job meters must read exactly as if the job ran
//! alone — while the fleet dedups identical operands across tenants and
//! recovers killed workers without collateral damage.

use dmrg::run_reference;
use std::sync::Arc;
use std::time::Duration;
use tt_dist::service::{
    AlgoSpec, ChainJobSpec, ChainOperand, ChainStepSpec, DavidsonSpec, DmrgJobSpec, JobReport,
    ModelSpec, Service, ServiceClient, ServiceConfig,
};
use tt_dist::{
    ChainSrc, ChainStep, ExecMode, Executor, FaultPlan, Machine, ProcOptions, SpawnSpec,
};
use tt_tensor::DenseTensor;

/// Self-exec worker hook: when the daemon (or a bare multi-process
/// executor) re-executes this test binary with the `spawned_worker_entry`
/// filter, this "test" becomes the worker serve loop. In a normal test
/// run the worker environment is absent and this is a no-op pass.
#[test]
fn spawned_worker_entry() {
    tt_dist::maybe_serve();
}

fn spawn() -> SpawnSpec {
    SpawnSpec::SelfExec(vec!["spawned_worker_entry".into()])
}

/// Service over a p=3 fleet on the fault-tolerance suite's machine model.
fn config(name: &str) -> ServiceConfig {
    let socket = std::env::temp_dir().join(format!("tt-solve-{name}-{}.sock", std::process::id()));
    let mut cfg = ServiceConfig::new(socket, 3);
    cfg.machine = Machine::blue_waters(2);
    cfg.spawn = spawn();
    cfg.opts = ProcOptions {
        deadline: Some(Duration::from_secs(120)),
        ..Default::default()
    };
    cfg
}

fn start(name: &str, cfg: ServiceConfig) -> (Service, std::path::PathBuf) {
    let _ = name;
    let socket = cfg.socket.clone();
    let service =
        Service::start(cfg, Some(Arc::new(dmrg::DmrgSolveRunner))).expect("start solve service");
    (service, socket)
}

fn client(socket: &std::path::Path) -> ServiceClient {
    ServiceClient::connect(socket, Duration::from_secs(10)).expect("connect to daemon")
}

/// The shared test workload: a 6-site Heisenberg chain ramped 8 → 16.
fn heisenberg_spec() -> DmrgJobSpec {
    DmrgJobSpec {
        model: ModelSpec::HeisenbergChain { n: 6, j2: 0.0 },
        algo: AlgoSpec::List,
        ms: vec![8, 16],
        sweeps_per_m: 2,
        cutoff: 1e-12,
        noise: 1e-3,
        davidson: DavidsonSpec {
            max_iter: 12,
            max_subspace: 6,
            tol: 1e-11,
            seed: 1234,
        },
        timeout_ms: 0,
        resident_cap_bytes: 0,
    }
}

/// Reference meters from a serial in-process run of `spec` on a fresh
/// executor with the service fleet's machine model (same machine + ranks
/// as the per-job scope tracker, so the model charges are comparable).
struct Reference {
    energy: f64,
    energies: Vec<f64>,
    flops: u64,
    sim_bits: u64,
}

fn reference(spec: &DmrgJobSpec) -> Reference {
    let exec = Executor::with_machine(Machine::blue_waters(2), 1, ExecMode::Sequential);
    let out = run_reference(spec, &exec).expect("reference solve");
    Reference {
        energy: out.energy,
        energies: out.energies,
        flops: exec.total_flops(),
        sim_bits: exec.sim_time().total().to_bits(),
    }
}

fn assert_bitwise(report: &JobReport, reference: &Reference, who: &str) {
    assert_eq!(
        report.energy.to_bits(),
        reference.energy.to_bits(),
        "{who}: final energy must be bitwise-equal to the serial in-process run"
    );
    let job_bits: Vec<u64> = report.energies.iter().map(|e| e.to_bits()).collect();
    let ref_bits: Vec<u64> = reference.energies.iter().map(|e| e.to_bits()).collect();
    assert_eq!(job_bits, ref_bits, "{who}: per-sweep energy history");
    assert_eq!(
        report.meter.flops, reference.flops,
        "{who}: per-job flop meter must read as-if-run-alone"
    );
    assert_eq!(
        report.meter.sim_seconds.to_bits(),
        reference.sim_bits,
        "{who}: per-job simulated time must read as-if-run-alone"
    );
}

#[test]
fn concurrent_tenants_dedup_and_meter_as_if_alone() {
    let (service, socket) = start("dedup", config("dedup"));
    let spec = heisenberg_spec();
    let reference = reference(&spec);

    // Tenant A runs first, populating the fleet's retention cache.
    let mut c1 = client(&socket);
    let job_a = c1.submit_dmrg(&spec).expect("submit A");
    let report_a = c1.wait(job_a).expect("job A");
    assert_bitwise(&report_a, &reference, "job A");
    assert!(
        report_a.meter.bytes_operands > 0,
        "multi-process jobs ship operand bytes"
    );

    // Tenant B submits the identical Hamiltonian: every operand content
    // it uploads is already worker-resident, so its shipped operand
    // bytes collapse — while its meters still read as-if-run-alone.
    //
    // What each tenant ships, measured per request kind on this fixture:
    // A 74 864 B = 44 328 B of content uploads (environments, MPO and MPS
    // blocks, Davidson vectors) + 25 592 B of chain redistributions
    // (`Download` + re-`Upload` of a resident result under its
    // driver-issued key) + 4 944 B of inline `SvdTrunc` matrices; B
    // 19 648 B = 96 B of content uploads + 14 608 B of redistributions +
    // the same 4 944 B. The content uploads are what retention can
    // deduplicate, and they fall ~460×. The other two never can: an
    // `SvdTrunc` matrix is the job's own state, and a redistributed
    // result is keyed by the driver, not by content. Before environment
    // extensions ran as one chain, A also shipped every environment
    // intermediate by value (152 216 B in all, 8.3× B's 18 376 B). So
    // the ratio gates the deduplicable part through the 3.8× it leaves.
    let job_b = c1.submit_dmrg(&spec).expect("submit B");
    let report_b = c1.wait(job_b).expect("job B");
    assert_bitwise(&report_b, &reference, "job B");
    assert!(
        report_b.meter.bytes_operands * 3 <= report_a.meter.bytes_operands,
        "cross-job dedup must collapse the second tenant's operand bytes ≥3×: \
         first {} B, second {} B",
        report_a.meter.bytes_operands,
        report_b.meter.bytes_operands
    );
    let hits: u64 = service
        .executor()
        .cache_stats()
        .expect("cache stats")
        .iter()
        .map(|s| s.hits)
        .sum();
    assert!(hits > 0, "worker stores must have served dedup hits");

    // Tenants C and D run concurrently from two client connections; the
    // interleaving must not perturb either job's numerics or meters.
    let mut c2 = client(&socket);
    let job_c = c1.submit_dmrg(&spec).expect("submit C");
    let job_d = c2.submit_dmrg(&spec).expect("submit D");
    let report_c = c1.wait(job_c).expect("job C");
    let report_d = c2.wait(job_d).expect("job D");
    assert_bitwise(&report_c, &reference, "job C");
    assert_bitwise(&report_d, &reference, "job D");
    // identical jobs, identical complete meters — supersteps and BSP byte
    // volumes included — regardless of who they shared the fleet with
    assert_eq!(report_c.meter.supersteps, report_a.meter.supersteps);
    assert_eq!(report_d.meter.supersteps, report_a.meter.supersteps);
    assert_eq!(report_c.meter.bytes_critical, report_a.meter.bytes_critical);
    assert_eq!(report_d.meter.bytes_critical, report_a.meter.bytes_critical);

    // status surfaces the fleet: one entry per worker rank
    let status = c1.status().expect("status");
    assert_eq!(status.fleet.len(), 3);
    service.stop();
}

#[test]
fn killed_worker_mid_job_recovers_without_collateral() {
    // A FaultPlan kills rank 1 partway through the fleet's request
    // stream while two tenants run concurrently. The runtime respawns
    // and journal-replays under whichever job hit the fault; both jobs
    // must finish bitwise-identical to the serial run.
    let mut cfg = config("fault");
    cfg.opts.plan = Some(FaultPlan::parse("kill:1@40").expect("fault plan"));
    let (service, socket) = start("fault", cfg);
    let spec = heisenberg_spec();
    let reference = reference(&spec);

    let mut c1 = client(&socket);
    let mut c2 = client(&socket);
    let job_a = c1.submit_dmrg(&spec).expect("submit A");
    let job_b = c2.submit_dmrg(&spec).expect("submit B");
    let report_a = c1.wait(job_a).expect("job A survives the kill");
    let report_b = c2.wait(job_b).expect("job B survives the kill");
    assert_bitwise(&report_a, &reference, "job A (faulted fleet)");
    assert_bitwise(&report_b, &reference, "job B (faulted fleet)");
    assert!(
        service.executor().recovery_bytes() > 0,
        "the injected kill must actually have fired and been recovered"
    );
    assert!(
        report_a.meter.bytes_recovery + report_b.meter.bytes_recovery > 0,
        "recovery bytes are metered to the job whose request hit the fault"
    );
    service.stop();
}

#[test]
fn admission_control_and_cancellation() {
    let mut cfg = config("admission");
    cfg.max_concurrent = 1;
    cfg.max_queued = 2;
    let (service, socket) = start("admission", cfg);

    // a job long enough to still be running through the whole test
    let long = DmrgJobSpec {
        ms: vec![8],
        sweeps_per_m: 500,
        ..heisenberg_spec()
    };
    let mut c = client(&socket);
    let job_a = c.submit_dmrg(&long).expect("submit A");
    // wait until the single runner thread has picked A up
    loop {
        let s = c.status().expect("status");
        if s.running.iter().any(|&(id, _)| id == job_a) {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    // fill the queue; the runner is busy with A so nothing drains
    let job_b = c.submit_dmrg(&long).expect("submit B");
    let job_c = c.submit_dmrg(&long).expect("submit C");
    let rejected = c.submit_dmrg(&long);
    assert!(
        rejected.is_err(),
        "queue is full — the fourth submission must be rejected"
    );
    assert!(
        rejected.unwrap_err().to_string().contains("queue full"),
        "rejection carries the reason"
    );

    // cancellation: queued jobs die before starting, the running job at
    // its next sweep boundary
    c.cancel(job_c).expect("cancel C");
    c.cancel(job_b).expect("cancel B");
    c.cancel(job_a).expect("cancel A");
    for job in [job_a, job_b, job_c] {
        let err = c.wait(job).expect_err("cancelled jobs do not report Done");
        assert!(
            err.to_string().contains("cancelled"),
            "job {job}: expected cancellation, got {err}"
        );
    }
    service.stop();
}

/// How long a chain job may take to reach its terminal event.
const CHAIN_DEADLINE: Duration = Duration::from_secs(60);

/// `cl.wait(job)`, failing the test instead of hanging when the job never
/// reaches a terminal event (a runner thread that panicked sends none; the
/// waiting thread is then left blocked on the daemon's socket).
fn wait_within(mut cl: ServiceClient, job: u64) -> (ServiceClient, tt_dist::Result<JobReport>) {
    let (tx, rx) = std::sync::mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let outcome = cl.wait_with(job, |_| {});
        let _ = tx.send((cl, outcome));
    });
    let done = rx
        .recv_timeout(CHAIN_DEADLINE)
        .unwrap_or_else(|_| panic!("job {job}: no terminal event within {CHAIN_DEADLINE:?}"));
    waiter.join().expect("the waiting thread sent its outcome");
    done
}

/// Run the chain `(a·b)·c` as a job on the daemon behind `cl`: contraction
/// chain jobs run natively in the daemon (no DMRG runner involved), and
/// the downloaded result must be bitwise-identical to the same chain on a
/// local in-process executor.
fn chain_job_matches_local(mut cl: ServiceClient) {
    let a = DenseTensor::from_vec(vec![2, 3], (0..6).map(|i| i as f64 * 0.5 + 1.0).collect())
        .expect("a");
    let b = DenseTensor::from_vec(vec![3, 4], (0..12).map(|i| 2.0 - i as f64 * 0.25).collect())
        .expect("b");
    let c =
        DenseTensor::from_vec(vec![4, 2], (0..8).map(|i| (i as f64).sin()).collect()).expect("c");

    let local = Executor::local();
    let handles = local
        .chain(&[
            ChainStep {
                spec: "ij,jk->ik",
                a: ChainSrc::Dense((&a).into()),
                b: ChainSrc::Dense((&b).into()),
                acc: None,
            },
            ChainStep {
                spec: "ik,kl->il",
                a: ChainSrc::Prev(0),
                b: ChainSrc::Dense((&c).into()),
                acc: None,
            },
        ])
        .expect("local chain");
    let mut hs: Vec<_> = handles.into_iter().flatten().collect();
    let expected = local.download(hs.pop().expect("result")).expect("download");
    local.free_results(hs).expect("free");

    let dense = |t: &DenseTensor<f64>| ChainOperand::Dense {
        dims: t.dims().iter().map(|&d| d as u64).collect(),
        vals: t.data().to_vec(),
    };
    let job = cl
        .submit_chain(&ChainJobSpec {
            steps: vec![
                ChainStepSpec {
                    spec: "ij,jk->ik".into(),
                    a: dense(&a),
                    b: dense(&b),
                    acc: None,
                },
                ChainStepSpec {
                    spec: "ik,kl->il".into(),
                    a: ChainOperand::Prev { step: 0 },
                    b: dense(&c),
                    acc: None,
                },
            ],
        })
        .expect("submit chain");
    let report = wait_within(cl, job).1.expect("chain job");
    assert_eq!(
        report.dense_dims,
        expected
            .dims()
            .iter()
            .map(|&d| d as u64)
            .collect::<Vec<_>>()
    );
    let got: Vec<u64> = report.dense_vals.iter().map(|v| v.to_bits()).collect();
    let want: Vec<u64> = expected.data().iter().map(|v| v.to_bits()).collect();
    assert_eq!(got, want, "chain result must be bitwise-identical");
}

#[test]
fn chain_jobs_match_local_execution_bitwise() {
    let (service, socket) = start("chain", config("chain"));
    chain_job_matches_local(client(&socket));
    service.stop();
}

#[test]
fn chain_job_with_an_overflowing_shape_fails_and_the_daemon_serves_on() {
    // 2^33 · 2^31 elements: the product overflows usize (and wraps to 0,
    // which the empty data would match). The job must fail typed — not
    // panic the runner thread and never finish, nor run as an empty
    // tensor — and the daemon must go on serving.
    let (service, socket) = start("overflow", config("overflow"));
    let mut cl = client(&socket);
    let empty = |dims: Vec<u64>| ChainOperand::Dense { dims, vals: vec![] };
    let job = cl
        .submit_chain(&ChainJobSpec {
            steps: vec![ChainStepSpec {
                spec: "ij,jk->ik".into(),
                a: empty(vec![1 << 33, 1 << 31]),
                b: empty(vec![1 << 31, 0]),
                acc: None,
            }],
        })
        .expect("submit chain");
    let (cl, outcome) = wait_within(cl, job);
    let err = outcome.expect_err("a shape past usize must fail the job");
    assert!(err.to_string().contains("failed"), "{err}");
    chain_job_matches_local(cl);
    service.stop();
}
