//! The multi-tenant solve service: a persistent driver daemon serving
//! concurrent DMRG jobs over **one** shared worker fleet.
//!
//! A [`Service`] owns a multi-process [`Executor`] (the `ProcTransport`
//! fleet, recovery enabled) and accepts jobs over a Unix-domain socket
//! speaking the [`wire`] frames. Each connection may submit any number of
//! jobs; results stream back as [`JobEvent`]s tagged with the job id.
//!
//! The pieces that make multi-tenancy safe and observable:
//!
//! * **Admission control** — at most `max_queued` jobs wait at a time
//!   (later submissions are [`JobEvent::Rejected`]), at most
//!   `max_concurrent` run, and every job carries a resident-operand byte
//!   cap enforced at sweep boundaries.
//! * **Per-job metering** — each runner thread installs a
//!   [`JobScope`], so the job's flop / superstep /
//!   operand / result / recovery counters and its miss/hit charge book
//!   read exactly as if the job ran alone on a fresh executor: the
//!   reported [`JobMeter`] is bitwise-equal to a serial in-process run.
//! * **Cross-job dedup** — operands are content-keyed, so two tenants
//!   solving the same Hamiltonian share worker-resident buffers; the
//!   executor's retention cache (`Executor::set_retention_cap`) keeps
//!   recently-uploaded contents resident past their uploader's `free`,
//!   collapsing the second tenant's shipped operand bytes.
//! * **Fault isolation** — worker recovery (journal replay) happens under
//!   whichever job's request hit the fault; the recovered bytes are
//!   metered to that job's `bytes_recovery` and no other job observes the
//!   fault.
//!
//! DMRG solves are delegated to a [`SolveRunner`] implementation (the
//! `dmrg` crate provides one — this crate cannot depend on it).

pub mod wire;

pub use wire::{
    AlgoSpec, DavidsonSpec, DmrgJobSpec, JobEvent, JobMeter, JobReport, JobRequest, ModelSpec,
    StatusReport,
};

use crate::cost::{CostTracker, JobScope, ResidentMeter};
use crate::exec::RankCacheStats;
use crate::transport::wire::{read_frame, write_frame};
use crate::transport::{wait_fd, LIVENESS_CAP};
use crate::{Error, Executor, Machine, ProcOptions, Result, SpawnSpec};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, Weak};
use std::time::{Duration, Instant};
use wire::{FRAME_EVENT, FRAME_REQUEST};

/// Why a job stopped before producing a result.
#[derive(Clone, Debug, PartialEq)]
pub enum JobError {
    /// The job was cancelled (client request, disconnect, shutdown, or a
    /// blown resident budget surfaces as `Failed`, not this).
    Cancelled,
    /// The job failed; human-readable reason.
    Failed(String),
}

impl From<Error> for JobError {
    fn from(e: Error) -> Self {
        JobError::Failed(e.to_string())
    }
}

/// What a finished DMRG job hands back to the service.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SolveOutcome {
    /// Final energy.
    pub energy: f64,
    /// Per-sweep energies in execution order.
    pub energies: Vec<f64>,
}

/// Executes DMRG solve jobs for the service. Implemented by the `dmrg`
/// crate; the daemon is generic over it so the wire layer and scheduler
/// stay free of physics.
pub trait SolveRunner: Send + Sync + 'static {
    /// Run `spec` on `exec`, reporting progress and honouring
    /// cancellation/budget through `ctx` ([`JobCtx::checkpoint`] between
    /// sweeps, [`JobCtx::sweep_done`] after each).
    fn run(
        &self,
        spec: &DmrgJobSpec,
        exec: &Executor,
        ctx: &JobCtx,
    ) -> std::result::Result<SolveOutcome, JobError>;
}

/// Per-job context handed to a [`SolveRunner`]: cancellation flag,
/// resident-budget checks and the event stream back to the client.
pub struct JobCtx {
    job: Arc<Job>,
    resident: Arc<ResidentMeter>,
    cap: u64,
}

impl JobCtx {
    /// True once the job has been cancelled.
    pub fn cancelled(&self) -> bool {
        self.job.cancel.load(Ordering::Relaxed)
    }

    /// Call between sweeps: surfaces cancellation and a blown
    /// resident-operand budget as errors.
    pub fn checkpoint(&self) -> std::result::Result<(), JobError> {
        if self.cancelled() {
            return Err(JobError::Cancelled);
        }
        let held = self.resident.bytes();
        if held > self.cap {
            return Err(JobError::Failed(format!(
                "resident operand budget exceeded: {held} bytes held, cap {}",
                self.cap
            )));
        }
        Ok(())
    }

    /// Record one finished sweep and stream it to the client.
    pub fn sweep_done(&self, energy: f64, max_bond: u64) {
        let index = self.job.sweeps.fetch_add(1, Ordering::Relaxed);
        self.job.sink.send(&JobEvent::Sweep {
            job: self.job.id,
            index,
            energy,
            max_bond,
        });
    }
}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Unix-domain socket path the daemon listens on (a stale file at
    /// this path is removed on start).
    pub socket: PathBuf,
    /// Simulated machine model of the fleet.
    pub machine: Machine,
    /// Simulated node count.
    pub nodes: usize,
    /// Real worker processes in the fleet.
    pub workers: usize,
    /// How workers are launched.
    pub spawn: SpawnSpec,
    /// Transport options (fault plan, default deadline).
    pub opts: ProcOptions,
    /// Runner threads — jobs executing at once.
    pub max_concurrent: usize,
    /// Jobs allowed to wait in the queue; submissions beyond this are
    /// rejected.
    pub max_queued: usize,
    /// Default per-job resident-operand byte cap (a job spec's
    /// `resident_cap_bytes` overrides it).
    pub default_resident_cap: u64,
    /// Byte budget of the cross-job retention cache
    /// ([`Executor::set_retention_cap`]); `0` disables dedup-by-retention.
    pub retention_bytes: u64,
}

impl ServiceConfig {
    /// Laptop-scale defaults: local machine model, `workers` worker
    /// processes, two concurrent jobs, 256 MiB retention.
    pub fn new(socket: impl Into<PathBuf>, workers: usize) -> Self {
        Self {
            socket: socket.into(),
            machine: Machine::local(),
            nodes: 1,
            workers,
            spawn: SpawnSpec::WorkerBinary,
            opts: ProcOptions::default(),
            max_concurrent: 2,
            max_queued: 16,
            default_resident_cap: 1 << 34,
            retention_bytes: 256 << 20,
        }
    }
}

const STATE_QUEUED: u8 = 0;
const STATE_RUNNING: u8 = 1;
const STATE_FINISHED: u8 = 2;

struct Job {
    id: u64,
    spec: DmrgJobSpec,
    sink: Sink,
    cancel: AtomicBool,
    sweeps: AtomicU64,
    state: AtomicU8,
}

/// Shared write side of one client connection; events from any runner
/// thread serialize through the mutex so frames never interleave.
#[derive(Clone)]
struct Sink(Arc<StdMutex<UnixStream>>);

impl Sink {
    fn send(&self, ev: &JobEvent) {
        // best-effort: a vanished client must not wedge the runner
        if let Ok(mut s) = self.0.lock() {
            let _ = write_frame(&mut *s, FRAME_EVENT, &ev.encode());
        }
    }
}

struct Inner {
    exec: Executor,
    runner: Option<Arc<dyn SolveRunner>>,
    queue: StdMutex<VecDeque<Arc<Job>>>,
    cv: Condvar,
    jobs: StdMutex<HashMap<u64, Arc<Job>>>,
    next_id: AtomicU64,
    stop: AtomicBool,
    max_queued: usize,
    default_resident_cap: u64,
}

impl Inner {
    fn status(&self) -> StatusReport {
        let queued = self.queue.lock().expect("queue lock").len() as u64;
        let mut running: Vec<(u64, u64)> = self
            .jobs
            .lock()
            .expect("jobs lock")
            .values()
            .filter(|j| j.state.load(Ordering::Relaxed) == STATE_RUNNING)
            .map(|j| (j.id, j.sweeps.load(Ordering::Relaxed)))
            .collect();
        running.sort_unstable();
        let fleet: Vec<RankCacheStats> = self.exec.cache_stats().unwrap_or_default();
        StatusReport {
            queued,
            running,
            fleet,
        }
    }

    fn initiate_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        for job in self.jobs.lock().expect("jobs lock").values() {
            job.cancel.store(true, Ordering::Relaxed);
        }
        self.cv.notify_all();
    }
}

/// A running solve-service daemon. Dropping (or [`Service::stop`]) shuts
/// it down: every job is cancelled, runner threads drain, the socket file
/// is removed and the worker fleet exits with the executor.
pub struct Service {
    inner: Arc<Inner>,
    threads: Vec<std::thread::JoinHandle<()>>,
    socket: PathBuf,
}

impl Service {
    /// Start a daemon: spawn the fleet, bind the socket, launch the
    /// accept loop and `max_concurrent` runner threads. `runner` executes
    /// the DMRG jobs; with `None` every job fails with a typed
    /// [`JobEvent::Failed`].
    pub fn start(cfg: ServiceConfig, runner: Option<Arc<dyn SolveRunner>>) -> Result<Service> {
        let exec = Executor::multi_process_opts(
            cfg.machine.clone(),
            cfg.nodes,
            cfg.workers,
            cfg.spawn.clone(),
            cfg.opts.clone(),
        )?;
        exec.set_retention_cap(cfg.retention_bytes)?;

        let _ = std::fs::remove_file(&cfg.socket);
        let listener = UnixListener::bind(&cfg.socket)
            .map_err(|e| Error::transport(format!("bind {}: {e}", cfg.socket.display())))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| Error::transport(format!("set_nonblocking: {e}")))?;

        let inner = Arc::new(Inner {
            exec,
            runner,
            queue: StdMutex::new(VecDeque::new()),
            cv: Condvar::new(),
            jobs: StdMutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            stop: AtomicBool::new(false),
            max_queued: cfg.max_queued,
            default_resident_cap: cfg.default_resident_cap.max(1),
        });

        let mut threads = Vec::new();
        {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name("tt-serve-accept".into())
                    .spawn(move || accept_loop(inner, listener))
                    .map_err(|e| Error::transport(format!("spawn accept loop: {e}")))?,
            );
        }
        for i in 0..cfg.max_concurrent.max(1) {
            let inner = Arc::clone(&inner);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("tt-serve-run{i}"))
                    .spawn(move || runner_loop(inner))
                    .map_err(|e| Error::transport(format!("spawn runner: {e}")))?,
            );
        }
        Ok(Service {
            inner,
            threads,
            socket: cfg.socket,
        })
    }

    /// The socket path clients connect to.
    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// The shared executor (fleet-wide counters, cache stats).
    pub fn executor(&self) -> &Executor {
        &self.inner.exec
    }

    /// Fleet + queue status, as a client's `Status` request would see it.
    pub fn status(&self) -> StatusReport {
        self.inner.status()
    }

    /// Block until a client's `Shutdown` request stops the daemon, then
    /// tear down.
    pub fn wait(mut self) {
        while !self.inner.stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.teardown();
    }

    /// Shut the daemon down: cancel everything, drain threads, remove the
    /// socket file.
    pub fn stop(mut self) {
        self.teardown();
    }

    fn teardown(&mut self) {
        self.inner.initiate_stop();
        // wake the accept loop to see the stop flag now, not at its next
        // liveness wake-up (fails harmlessly once the socket is gone)
        let _ = UnixStream::connect(&self.socket);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        let _ = std::fs::remove_file(&self.socket);
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.teardown();
    }
}

fn accept_loop(inner: Arc<Inner>, listener: UnixListener) {
    loop {
        if inner.stop.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                let daemon = Arc::downgrade(&inner);
                // connection readers are detached: they exit on client EOF
                let _ = std::thread::Builder::new()
                    .name("tt-serve-conn".into())
                    .spawn(move || serve_connection(daemon, stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // a client connecting — or `teardown`'s own — ends the wait
                wait_fd(&listener, false, LIVENESS_CAP);
            }
            Err(_) => return,
        }
    }
}

/// Serve one client. The connection holds the daemon weakly: a client that
/// stays connected must not keep the executor, and with it the fleet,
/// alive past the daemon's teardown. Its next request then finds the
/// daemon gone and closes the connection.
fn serve_connection(daemon: Weak<Inner>, stream: UnixStream) {
    let sink = match stream.try_clone() {
        Ok(w) => Sink(Arc::new(StdMutex::new(w))),
        Err(_) => return,
    };
    let mut reader = stream;
    let mut my_jobs: Vec<u64> = Vec::new();
    // stop on EOF, corruption, or a wrong frame kind
    while let Ok((FRAME_REQUEST, payload)) = read_frame(&mut reader) {
        let Some(inner) = daemon.upgrade() else {
            return;
        };
        let req = match JobRequest::decode(&payload) {
            Ok(r) => r,
            Err(e) => {
                sink.send(&JobEvent::Rejected {
                    reason: format!("undecodable request: {e}"),
                });
                continue;
            }
        };
        match req {
            JobRequest::SubmitDmrg(spec) => {
                if let Some(id) = submit(&inner, spec, &sink) {
                    my_jobs.push(id);
                }
            }
            JobRequest::Cancel { job } => {
                if let Some(j) = inner.jobs.lock().expect("jobs lock").get(&job) {
                    j.cancel.store(true, Ordering::Relaxed);
                }
            }
            JobRequest::Status => sink.send(&JobEvent::Status(inner.status())),
            JobRequest::Shutdown => {
                inner.initiate_stop();
                break;
            }
        }
    }
    // a vanished client's unfinished jobs are cancelled, not orphaned
    let Some(inner) = daemon.upgrade() else {
        return;
    };
    let jobs = inner.jobs.lock().expect("jobs lock");
    for id in my_jobs {
        if let Some(j) = jobs.get(&id) {
            if j.state.load(Ordering::Relaxed) != STATE_FINISHED {
                j.cancel.store(true, Ordering::Relaxed);
            }
        }
    }
}

/// Admission control: reject when shutting down or the queue is full,
/// otherwise register + enqueue the job and ack with `Accepted`.
fn submit(inner: &Arc<Inner>, spec: DmrgJobSpec, sink: &Sink) -> Option<u64> {
    if inner.stop.load(Ordering::SeqCst) {
        sink.send(&JobEvent::Rejected {
            reason: "daemon is shutting down".into(),
        });
        return None;
    }
    let mut q = inner.queue.lock().expect("queue lock");
    if q.len() >= inner.max_queued {
        sink.send(&JobEvent::Rejected {
            reason: format!("queue full ({} jobs waiting)", q.len()),
        });
        return None;
    }
    let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
    let job = Arc::new(Job {
        id,
        spec,
        sink: sink.clone(),
        cancel: AtomicBool::new(false),
        sweeps: AtomicU64::new(0),
        state: AtomicU8::new(STATE_QUEUED),
    });
    inner
        .jobs
        .lock()
        .expect("jobs lock")
        .insert(id, Arc::clone(&job));
    sink.send(&JobEvent::Accepted {
        job: id,
        ahead: q.len() as u64,
    });
    q.push_back(job);
    drop(q);
    inner.cv.notify_one();
    Some(id)
}

fn runner_loop(inner: Arc<Inner>) {
    loop {
        let job = {
            let mut q = inner.queue.lock().expect("queue lock");
            loop {
                if inner.stop.load(Ordering::SeqCst) {
                    // drain: cancelled-at-shutdown jobs still get a
                    // terminal event
                    match q.pop_front() {
                        Some(j) => break j,
                        None => return,
                    }
                }
                match q.pop_front() {
                    Some(j) => break j,
                    None => q = inner.cv.wait(q).expect("queue lock"),
                }
            }
        };
        run_job(&inner, &job);
        inner.jobs.lock().expect("jobs lock").remove(&job.id);
    }
}

/// Execute one job under its own cost scope and stream the outcome.
fn run_job(inner: &Arc<Inner>, job: &Arc<Job>) {
    job.state.store(STATE_RUNNING, Ordering::Relaxed);
    if job.cancel.load(Ordering::Relaxed) {
        job.state.store(STATE_FINISHED, Ordering::Relaxed);
        job.sink.send(&JobEvent::Cancelled { job: job.id });
        return;
    }
    job.sink.send(&JobEvent::Started { job: job.id });

    // A fresh tracker with the fleet's machine/ranks: the scope mirrors
    // this job's charges into it, so the meter reads as a standalone run.
    let tracker = Arc::new(Mutex::new(CostTracker::new(
        inner.exec.machine().clone(),
        inner.exec.ranks(),
    )));
    let resident = Arc::new(ResidentMeter::new());
    let spec = &job.spec;
    let deadline = (spec.timeout_ms > 0).then(|| Duration::from_millis(spec.timeout_ms));
    let ctx = JobCtx {
        job: Arc::clone(job),
        resident: Arc::clone(&resident),
        cap: if spec.resident_cap_bytes > 0 {
            spec.resident_cap_bytes
        } else {
            inner.default_resident_cap
        },
    };

    let scope = JobScope::enter(Arc::clone(&tracker), Arc::clone(&resident), deadline);
    let outcome = match &inner.runner {
        Some(r) => r.run(spec, &inner.exec, &ctx),
        None => Err(JobError::Failed("this daemon has no DMRG runner".into())),
    };
    drop(scope);

    job.state.store(STATE_FINISHED, Ordering::Relaxed);
    match outcome {
        Ok(out) => {
            let meter = {
                let t = tracker.lock();
                JobMeter {
                    flops: t.flops,
                    supersteps: t.supersteps,
                    bytes_critical: t.bytes_critical,
                    bytes_operands: t.bytes_operands,
                    bytes_results: t.bytes_results,
                    bytes_recovery: t.bytes_recovery,
                    sim_seconds: t.sim.total(),
                }
            };
            job.sink.send(&JobEvent::Done {
                job: job.id,
                report: JobReport {
                    energy: out.energy,
                    energies: out.energies,
                    meter,
                    resident_peak_bytes: resident.peak_bytes(),
                },
            });
        }
        Err(JobError::Cancelled) => job.sink.send(&JobEvent::Cancelled { job: job.id }),
        Err(JobError::Failed(reason)) => job.sink.send(&JobEvent::Failed {
            job: job.id,
            reason,
        }),
    }
}

// -- client --------------------------------------------------------------

/// A blocking client of one solve-service daemon. One connection can
/// carry many jobs; events for jobs other than the one being waited on
/// are buffered and replayed to later waits.
pub struct ServiceClient {
    stream: UnixStream,
    pending: VecDeque<JobEvent>,
}

impl ServiceClient {
    /// Connect, retrying until the daemon's socket appears (up to
    /// `timeout`).
    pub fn connect(path: impl AsRef<Path>, timeout: Duration) -> Result<Self> {
        let path = path.as_ref();
        let start = Instant::now();
        loop {
            match UnixStream::connect(path) {
                Ok(stream) => {
                    return Ok(Self {
                        stream,
                        pending: VecDeque::new(),
                    })
                }
                Err(e) if start.elapsed() < timeout => {
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(Error::transport(format!("connect {}: {e}", path.display()))),
            }
        }
    }

    fn send(&mut self, req: &JobRequest) -> Result<()> {
        write_frame(&mut self.stream, FRAME_REQUEST, &req.encode())
    }

    fn next_event(&mut self) -> Result<JobEvent> {
        if let Some(ev) = self.pending.pop_front() {
            return Ok(ev);
        }
        let (tag, payload) = read_frame(&mut self.stream)?;
        if tag != FRAME_EVENT {
            return Err(Error::transport(format!("unexpected frame tag {tag:#x}")));
        }
        JobEvent::decode(&payload)
    }

    /// Submit a DMRG solve; returns the job id (or the rejection reason
    /// as an error).
    pub fn submit_dmrg(&mut self, spec: &DmrgJobSpec) -> Result<u64> {
        self.send(&JobRequest::SubmitDmrg(spec.clone()))?;
        // scan buffered then fresh events for this submission's verdict;
        // anything else belongs to other in-flight jobs
        let mut unrelated = VecDeque::new();
        let verdict = loop {
            match self.next_event()? {
                JobEvent::Accepted { job, .. } => break Ok(job),
                JobEvent::Rejected { reason } => {
                    break Err(Error::Runtime(format!("job rejected: {reason}")))
                }
                other => unrelated.push_back(other),
            }
        };
        unrelated.append(&mut self.pending);
        self.pending = unrelated;
        verdict
    }

    /// Wait for `job` to finish, feeding every event of that job (sweeps
    /// included) to `on_event`. Returns the final report; cancellation
    /// and failure surface as errors.
    pub fn wait_with(
        &mut self,
        job: u64,
        mut on_event: impl FnMut(&JobEvent),
    ) -> Result<JobReport> {
        let mut unrelated = VecDeque::new();
        let outcome = loop {
            let ev = self.next_event()?;
            let mine = matches!(
                &ev,
                JobEvent::Started { job: j }
                    | JobEvent::Sweep { job: j, .. }
                    | JobEvent::Done { job: j, .. }
                    | JobEvent::Failed { job: j, .. }
                    | JobEvent::Cancelled { job: j }
                    if *j == job
            );
            if !mine {
                unrelated.push_back(ev);
                continue;
            }
            on_event(&ev);
            match ev {
                JobEvent::Done { report, .. } => break Ok(report),
                JobEvent::Failed { reason, .. } => {
                    break Err(Error::Runtime(format!("job {job} failed: {reason}")))
                }
                JobEvent::Cancelled { .. } => {
                    break Err(Error::Runtime(format!("job {job} was cancelled")))
                }
                _ => {}
            }
        };
        unrelated.append(&mut self.pending);
        self.pending = unrelated;
        outcome
    }

    /// Wait for `job` to finish, discarding progress events.
    pub fn wait(&mut self, job: u64) -> Result<JobReport> {
        self.wait_with(job, |_| {})
    }

    /// Ask the daemon for a status snapshot.
    pub fn status(&mut self) -> Result<StatusReport> {
        self.send(&JobRequest::Status)?;
        let mut unrelated = VecDeque::new();
        let report = loop {
            match self.next_event()? {
                JobEvent::Status(s) => break s,
                other => unrelated.push_back(other),
            }
        };
        unrelated.append(&mut self.pending);
        self.pending = unrelated;
        Ok(report)
    }

    /// Request cancellation of `job` (takes effect at its next sweep
    /// boundary).
    pub fn cancel(&mut self, job: u64) -> Result<()> {
        self.send(&JobRequest::Cancel { job })
    }

    /// Ask the daemon to shut down (cancels every tenant's jobs).
    pub fn shutdown_server(&mut self) -> Result<()> {
        self.send(&JobRequest::Shutdown)
    }
}
