//! The multi-tenant solve service end to end: concurrent DMRG jobs from
//! multiple clients share one p=3 multi-process worker fleet, and each
//! job's numerics and per-job meters must read exactly as if the job ran
//! alone — while the fleet dedups identical operands across tenants and
//! recovers killed workers without collateral damage.

use dmrg::run_reference;
use std::sync::Arc;
use std::time::Duration;
use std::time::Instant;
use tt_dist::service::{
    AlgoSpec, DavidsonSpec, DmrgJobSpec, JobReport, ModelSpec, Service, ServiceClient,
    ServiceConfig,
};
use tt_dist::{ExecMode, Executor, FaultPlan, Machine, ProcOptions, SpawnSpec};

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

/// How long a job, or the daemon's shutdown, may take to end.
const DEADLINE: Duration = Duration::from_secs(60);

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
        .recv_timeout(DEADLINE)
        .unwrap_or_else(|_| panic!("job {job}: no terminal event within {DEADLINE:?}"));
    waiter.join().expect("the waiting thread sent its outcome");
    done
}

#[test]
fn hostile_model_size_fails_and_the_daemon_serves_on() {
    // A chain of 2^64 - 1 sites: building its lattice would panic the
    // runner thread (capacity overflow), leaving the job unfinished and
    // the daemon a runner short; a size that merely fits usize would ask
    // for terabytes and abort the daemon. The job must fail typed, and
    // the same daemon must then solve a normal job bit for bit.
    let (service, socket) = start("hostile", config("hostile"));
    let hostile = DmrgJobSpec {
        model: ModelSpec::HeisenbergChain {
            n: u64::MAX,
            j2: 0.0,
        },
        ..heisenberg_spec()
    };
    let mut cl = client(&socket);
    let job = cl.submit_dmrg(&hostile).expect("submit the hostile job");
    let (mut cl, outcome) = wait_within(cl, job);
    let err = outcome.expect_err("a hostile model size must fail the job");
    assert!(err.to_string().contains("failed"), "{err}");

    let spec = heisenberg_spec();
    let job = cl.submit_dmrg(&spec).expect("submit a normal job");
    let report = wait_within(cl, job).1.expect("the daemon serves on");
    assert_bitwise(&report, &reference(&spec), "job after the hostile one");
    service.stop();
}

/// An extra test-name filter that matches no test: a worker spawned with
/// it still runs only `spawned_worker_entry`, and carries it on its
/// command line, so one daemon's fleet can be told from the fleets of
/// tests running alongside.
const SHUTDOWN_FLEET: &str = "fleet_of_the_shutdown_test";

/// Live children of this process spawned with `marker` among their
/// arguments.
fn children_marked(marker: &str) -> Vec<u32> {
    let me = std::process::id().to_string();
    let Ok(proc) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    proc.flatten()
        .filter_map(|entry| {
            let pid: u32 = entry.file_name().to_str()?.parse().ok()?;
            // "pid (comm) state ppid …", and comm may hold spaces
            let stat = std::fs::read_to_string(entry.path().join("stat")).ok()?;
            let (_, rest) = stat.rsplit_once(')')?;
            let cmdline = std::fs::read(entry.path().join("cmdline")).ok()?;
            let marked = cmdline.split(|&b| b == 0).any(|a| a == marker.as_bytes());
            (rest.split_whitespace().nth(1) == Some(me.as_str()) && marked).then_some(pid)
        })
        .collect()
}

#[test]
fn shutdown_ends_every_job_and_the_fleet() {
    let mut cfg = config("shutdown");
    cfg.spawn = SpawnSpec::SelfExec(vec!["spawned_worker_entry".into(), SHUTDOWN_FLEET.into()]);
    cfg.max_concurrent = 1;
    let (service, socket) = start("shutdown", cfg);
    let workers = children_marked(SHUTDOWN_FLEET);
    assert_eq!(workers.len(), 3, "the daemon's fleet: {workers:?}");

    // one job running on the single runner, one queued behind it
    let long = DmrgJobSpec {
        ms: vec![8],
        sweeps_per_m: 500,
        ..heisenberg_spec()
    };
    let mut c = client(&socket);
    let running = c.submit_dmrg(&long).expect("submit the running job");
    while !c
        .status()
        .expect("status")
        .running
        .iter()
        .any(|&(id, _)| id == running)
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    let queued = c.submit_dmrg(&long).expect("submit the queued job");

    client(&socket).shutdown_server().expect("send Shutdown");
    let (tx, rx) = std::sync::mpsc::channel();
    let waiter = std::thread::spawn(move || {
        service.wait();
        let _ = tx.send(());
    });
    rx.recv_timeout(DEADLINE)
        .unwrap_or_else(|_| panic!("Service::wait did not return within {DEADLINE:?}"));
    waiter.join().expect("the waiting thread returned");
    assert!(!socket.exists(), "the socket file outlived the daemon");

    for job in [running, queued] {
        let (next, outcome) = wait_within(c, job);
        c = next;
        let err = outcome.expect_err("a job ended by shutdown does not report Done");
        assert!(
            err.to_string().contains("cancelled"),
            "job {job}: expected cancellation, got {err}"
        );
    }
    // the client is still connected: the fleet must not wait for it
    let deadline = Instant::now() + Duration::from_secs(10);
    for pid in workers {
        while std::path::Path::new(&format!("/proc/{pid}")).exists() {
            assert!(
                Instant::now() < deadline,
                "worker {pid} outlived the daemon"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    drop(c);
}
