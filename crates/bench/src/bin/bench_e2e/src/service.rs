//! `service-mixed`: cold-start DMRG jobs through the solve daemon.
//!
//! A closed loop in rounds: in a round each of two tenants works through
//! its list of jobs with `WINDOW` jobs outstanding, and the round ends
//! when all of them are done. `ServiceClient` can only time the job it is
//! waiting on (events of other jobs are buffered and replayed later), so
//! each outstanding job has a connection of its own, submitting the
//! tenant's next job when its previous one is done.
//!
//! The untraced run gives every round a daemon of its own: a daemon's
//! time per job grows with the jobs it has served, so only rounds of
//! fresh daemons repeat one measurement. The traced run keeps one daemon
//! for all its rounds, so that this growth shows.

use crate::sweeps::{live_children, Res};
use crate::trace::Recorder;
use crate::{end_to_end, median, Metric, Opts, Outcome, Rng, Round, SETUP_REPS};
use dmrg::{ground_state_energy, hubbard_ed, DmrgSolveRunner};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tt_blocks::QN;
use tt_dist::service::{
    AlgoSpec, DavidsonSpec, DmrgJobSpec, JobEvent, JobReport, ModelSpec, Service, ServiceClient,
    ServiceConfig,
};
use tt_dist::SpawnSpec;
use tt_mps::{heisenberg_j1j2, BondKind, Lattice, SpinHalf};

pub const NAME: &str = "service-mixed";
const TENANTS: usize = 2;
/// Jobs a tenant keeps outstanding.
const WINDOW: usize = 2;
/// Rounds an untraced run makes however slow they are.
const MIN_ROUNDS: usize = 3;
/// Rounds the traced run's one daemon serves.
const TRACED_ROUNDS: usize = 4;

#[derive(Clone)]
struct Job {
    spec: DmrgJobSpec,
    /// Exact ground-state energy, computed in set-up.
    exact: f64,
    /// Whether this is the job every tenant repeats.
    repeated: bool,
}

/// Client-side record of one finished job, in nanoseconds since the load
/// began.
struct Done {
    job: Job,
    submit_ns: u64,
    accepted_ns: u64,
    started_ns: u64,
    sweep_ns: Vec<u64>,
    done_ns: u64,
    report: JobReport,
}

impl Done {
    /// Time between the job's `Started` and `Sweep` events: one sweep
    /// inside the job, as its client saw it.
    fn sweep_s(&self) -> Vec<f64> {
        let mut from = self.started_ns;
        self.sweep_ns
            .iter()
            .map(|&to| seconds(std::mem::replace(&mut from, to), to))
            .collect()
    }
}

/// Exact diagonalization, once per distinct model.
fn exact_energy(model: &ModelSpec, known: &mut Vec<(ModelSpec, f64)>) -> Res<f64> {
    if let Some((_, e)) = known.iter().find(|(m, _)| m == model) {
        return Ok(*e);
    }
    let exact = match *model {
        ModelSpec::HeisenbergChain { n, j2 } => {
            let n = n as usize;
            let terms = heisenberg_j1j2(&Lattice::chain(n), 1.0, j2).expanded()?;
            ground_state_energy(&SpinHalf, n, &terms, QN::one(0))?
        }
        ModelSpec::HubbardChain { n, u } => {
            let n = n as usize;
            let bonds: Vec<_> = Lattice::chain(n).bonds_of(BondKind::Nearest).collect();
            hubbard_ed(n, &bonds, 1.0, u, n / 2, n / 2)?
        }
    };
    known.push((model.clone(), exact));
    Ok(exact)
}

/// The seeded source of rounds.
struct Jobs {
    rng: Rng,
    davidson_seed: u64,
    /// Exact energies of the models met so far.
    known: Vec<(ModelSpec, f64)>,
}

impl Jobs {
    fn new(seed: u64) -> Self {
        let mut rng = Rng(seed);
        Self {
            davidson_seed: rng.next_u64(),
            rng,
            known: Vec::new(),
        }
    }

    /// One round: a list of jobs per tenant, half the repeated job and
    /// half varied ones. Models and order are the same in every round and
    /// for every seed: the latency percentiles of a round depend on which
    /// job queues behind which, so rounds repeat one measurement only if
    /// the lists do. The seed sets the Davidson generator and the Hubbard
    /// `u`, drawn afresh for each round, so a Hubbard job never finds its
    /// operands retained. `u` stays in [5, 8]: below 3.5 a bond dimension
    /// of 32 leaves the 6-site chain more than 1e-6 above its exact
    /// energy. (`j2` is not varied: `Lattice::chain` has no next-nearest
    /// bonds, so it would change nothing.)
    fn next_round(&mut self) -> Res<Vec<Vec<Job>>> {
        let heisenberg = |n| ModelSpec::HeisenbergChain { n, j2: 0.0 };
        let hubbard = ModelSpec::HubbardChain {
            n: 6,
            u: 5.0 + 3.0 * self.rng.unit(),
        };
        let tenants = [
            [
                heisenberg(12),
                heisenberg(8),
                heisenberg(12),
                heisenberg(14),
            ],
            [heisenberg(10), heisenberg(12), hubbard, heisenberg(12)],
        ];
        tenants
            .into_iter()
            .map(|models| models.into_iter().map(|m| self.job(m)).collect())
            .collect()
    }

    fn job(&mut self, model: ModelSpec) -> Res<Job> {
        Ok(Job {
            exact: exact_energy(&model, &mut self.known)?,
            repeated: matches!(model, ModelSpec::HeisenbergChain { n: 12, .. }),
            spec: DmrgJobSpec {
                model,
                algo: AlgoSpec::SparseDense,
                ms: vec![16, 32],
                sweeps_per_m: 2,
                cutoff: 1e-12,
                noise: 1e-4,
                davidson: DavidsonSpec {
                    max_iter: 6,
                    max_subspace: 3,
                    tol: 1e-10,
                    seed: self.davidson_seed,
                },
                timeout_ms: 0,
                resident_cap_bytes: 0,
            },
        })
    }
}

/// A running daemon with its two workers, and the client connections.
struct Daemon {
    /// `TENANTS × WINDOW` connections, tenant-major. Declared before the
    /// daemon so that they close first when this is dropped.
    clients: Vec<ServiceClient>,
    service: Service,
}

impl Daemon {
    fn start() -> Res<Self> {
        // relative, so the path stays within a socket address's 108 bytes
        let socket = crate::out_dir().join(format!("svc-{}.sock", std::process::id()));
        let mut cfg = ServiceConfig::new(&socket, 2);
        cfg.spawn = SpawnSpec::SelfExec(vec![]);
        cfg.max_concurrent = 2;
        cfg.max_queued = 16;
        let service = Service::start(cfg, Some(Arc::new(DmrgSolveRunner)))?;
        let clients = (0..TENANTS * WINDOW)
            .map(|_| ServiceClient::connect(&socket, Duration::from_secs(10)))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { clients, service })
    }

    /// Whether every worker process went with it.
    fn stop(self) -> bool {
        drop(self.clients);
        self.service.stop();
        let orphans = live_children();
        if orphans > 0 {
            eprintln!("{NAME}: CHECK FAILED: {orphans} worker processes outlived the daemon");
        }
        orphans == 0
    }
}

/// The job source with the exact energy of every Heisenberg chain in its
/// table (a throw-away round puts them there, which leaves a six-site
/// Hubbard chain to diagonalize per round), and a daemon with its two
/// workers and the client connections.
fn setup(opts: &Opts) -> Res<(Jobs, Daemon)> {
    let mut jobs = Jobs::new(opts.seed);
    jobs.next_round()?;
    Ok((jobs, Daemon::start()?))
}

/// One connection's closed loop over its tenant's list.
fn client_loop(
    client: &mut ServiceClient,
    jobs: &[Job],
    next: &AtomicUsize,
    clock: Instant,
) -> Vec<Result<Done, String>> {
    let now = || clock.elapsed().as_nanos() as u64;
    let mut done = Vec::new();
    loop {
        let Some(job) = jobs.get(next.fetch_add(1, Ordering::Relaxed)) else {
            return done;
        };
        let submit_ns = now();
        let id = match client.submit_dmrg(&job.spec) {
            Ok(id) => id,
            Err(e) => {
                done.push(Err(format!("{:?} not admitted: {e}", job.spec.model)));
                continue;
            }
        };
        let accepted_ns = now();
        let mut started_ns = accepted_ns;
        let mut sweep_ns = Vec::new();
        let outcome = client.wait_with(id, |ev| match ev {
            JobEvent::Started { .. } => started_ns = now(),
            JobEvent::Sweep { .. } => sweep_ns.push(now()),
            _ => {}
        });
        done.push(match outcome {
            Ok(report) => Ok(Done {
                job: job.clone(),
                submit_ns,
                accepted_ns,
                started_ns,
                sweep_ns,
                done_ns: now(),
                report,
            }),
            Err(e) => Err(format!("{:?}: {e}", job.spec.model)),
        });
    }
}

fn seconds(from_ns: u64, to_ns: u64) -> f64 {
    to_ns.saturating_sub(from_ns) as f64 * 1e-9
}

/// The per-layer metrics of a traced run, as the clients saw them; also
/// writes the jobs out as spans.
fn layer_metrics(finished: &[Done], client: &mut ServiceClient) -> Res<Vec<Metric>> {
    let mut rec = Recorder::new(NAME);
    for d in finished {
        let job = rec.add("dist.service.job", d.submit_ns, d.done_ns, None);
        rec.add("dist.service.admit", d.submit_ns, d.accepted_ns, Some(job));
        rec.add(
            "dist.service.queue_wait",
            d.accepted_ns,
            d.started_ns,
            Some(job),
        );
        let run = rec.add("dist.service.run", d.started_ns, d.done_ns, Some(job));
        let mut from = d.started_ns;
        for &to in &d.sweep_ns {
            rec.add("dmrg.sweep", from, to, Some(run));
            from = to;
        }
    }
    crate::write_trace(&rec, NAME);

    let per_job = |f: fn(&Done) -> f64| -> Vec<f64> { finished.iter().map(f).collect() };
    let queue_wait = per_job(|d| seconds(d.accepted_ns, d.started_ns));
    let runs = per_job(|d| seconds(d.started_ns, d.done_ns));
    let operand_mb = per_job(|d| d.report.meter.bytes_operands as f64 * 1e-6);
    // the repeated job, in the order the daemon started them
    let repeats: Vec<f64> = finished
        .iter()
        .filter(|d| d.job.repeated)
        .map(|d| d.report.meter.bytes_operands as f64)
        .collect();
    let repeat_over_first = match repeats.split_first() {
        Some((first, rest)) if !rest.is_empty() => median(rest) / first,
        _ => 0.0,
    };
    // daemon-lifetime growth: the last quarter of jobs over the first
    let quarter = (runs.len() / 4).max(1);
    let late_over_early = median(&runs[runs.len() - quarter..]) / median(&runs[..quarter]);

    // an idle daemon's answer to Status, which asks every worker
    let mut status_us = Vec::new();
    let mut fleet = Vec::new();
    for _ in 0..200 {
        let t = Instant::now();
        fleet = client.status()?.fleet;
        status_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let hits: u64 = fleet.iter().map(|r| r.hits).sum();
    let misses: u64 = fleet.iter().map(|r| r.misses).sum();

    Ok(vec![
        Metric::samples("dist.service.queue_wait_p50_s", "s", &queue_wait),
        Metric::samples("dist.service.run_p50_s", "s", &runs),
        Metric::samples("dist.service.status_rtt_us", "us", &status_us),
        Metric {
            value: operand_mb.iter().sum::<f64>() / operand_mb.len() as f64,
            ..Metric::samples("dist.service.operand_mb_per_job", "MB", &operand_mb)
        },
        Metric::one(
            "dist.service.repeat_over_first_operand_bytes",
            "ratio",
            repeat_over_first,
        ),
        Metric::one(
            "dist.service.cache_hit_rate",
            "frac",
            hits as f64 / (hits + misses).max(1) as f64,
        ),
        Metric::one("dist.service.late_over_early_run", "ratio", late_over_early),
    ])
}

/// One round on `daemon`: every connection runs its closed loop until
/// its tenant's list is exhausted. Returns the jobs that finished within
/// 1e-6 of their exact energy; the others count as failed.
fn run_round(
    daemon: &mut Daemon,
    tenants: &[Vec<Job>],
    clock: Instant,
    out: &mut Outcome,
) -> Vec<Done> {
    let results: Vec<Result<Done, String>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (jobs, connections) in tenants.iter().zip(daemon.clients.chunks_mut(WINDOW)) {
            let next = Arc::new(AtomicUsize::new(0));
            for client in connections {
                let next = Arc::clone(&next);
                handles.push(scope.spawn(move || client_loop(client, jobs, &next, clock)));
            }
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut finished = Vec::new();
    for result in results {
        out.attempted += 1;
        match result {
            Ok(d) if (d.report.energy - d.job.exact).abs() <= 1e-6 => finished.push(d),
            Ok(d) => {
                eprintln!(
                    "{NAME}: CHECK FAILED: {:?} ended at {}, exact {}",
                    d.job.spec.model, d.report.energy, d.job.exact
                );
                out.failed += 1;
            }
            Err(why) => {
                eprintln!("{NAME}: CHECK FAILED: {why}");
                out.failed += 1;
            }
        }
    }
    finished
}

pub fn run(opts: &Opts) -> Res<Outcome> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut fixture: Option<(Jobs, Daemon)> = None;
    for _ in 0..if opts.trace { 1 } else { SETUP_REPS } {
        // one daemon at a time: stop the previous before timing the next
        if let Some((_, daemon)) = fixture.take() {
            out.correct &= daemon.stop();
        }
        let t = Instant::now();
        fixture = Some(setup(opts)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (mut jobs, mut daemon) = fixture.expect("set up at least once");
    let clock = Instant::now();

    if opts.trace {
        let mut finished = Vec::new();
        for _ in 0..TRACED_ROUNDS {
            finished.extend(run_round(&mut daemon, &jobs.next_round()?, clock, &mut out));
        }
        if finished.is_empty() {
            return Err("no job finished".into());
        }
        finished.sort_by_key(|d| d.started_ns);
        out.metrics = layer_metrics(&finished, &mut daemon.clients[0])?;
        out.correct &= daemon.stop();
        return Ok(out);
    }

    let mut daemon = Some(daemon);
    let mut rounds = Vec::new();
    let mut attempted = 0;
    while attempted < MIN_ROUNDS || clock.elapsed().as_secs_f64() < opts.seconds {
        attempted += 1;
        let mut daemon = match daemon.take() {
            Some(first) => first,
            None => Daemon::start()?,
        };
        let finished = run_round(&mut daemon, &jobs.next_round()?, clock, &mut out);
        out.correct &= daemon.stop();
        if finished.is_empty() {
            continue;
        }
        let first_submit = finished.iter().map(|d| d.submit_ns).min().unwrap_or(0);
        let last_done = finished.iter().map(|d| d.done_ns).max().unwrap_or(0);
        rounds.push(Round {
            wall_s: seconds(first_submit, last_done),
            sweep_s: finished.iter().flat_map(Done::sweep_s).collect(),
            latency_s: finished
                .iter()
                .map(|d| seconds(d.submit_ns, d.done_ns))
                .collect(),
            rss_mb: crate::peak_rss_mb(),
        });
    }
    if rounds.is_empty() {
        return Err("no job finished".into());
    }
    out.metrics = end_to_end(&setup_s, &rounds);
    Ok(out)
}
