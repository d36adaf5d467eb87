//! The multi-process shared-nothing transport backend.
//!
//! [`ProcTransport::spawn`] launches `p` real OS worker processes, each
//! with its own address space, connected to this (driver) process over a
//! Unix-domain socket. Requests and replies travel as hand-rolled
//! little-endian frames ([`super::wire`]); tensor payloads round-trip
//! exactly, so results assembled from worker replies are bitwise-identical
//! to the in-process backend.
//!
//! Workers are spawned two ways ([`SpawnSpec`]):
//!
//! * [`SpawnSpec::WorkerBinary`] — run the `tt-dist-worker` binary that
//!   ships with this crate (looked up next to the current executable, or
//!   via `TT_DIST_WORKER_EXE`);
//! * [`SpawnSpec::SelfExec`] — re-execute the *current* executable with
//!   the given extra arguments. The host must call
//!   [`super::maybe_serve`] before doing anything else; test binaries
//!   expose a `#[test] fn spawned_worker_entry()` that calls it and pass
//!   `["spawned_worker_entry"]` as the filter argument.
//!
//! ## Fault tolerance
//!
//! Worker failure is a first-class event, not a panic:
//!
//! * **Detection** — every receive (and stalled send) blocks on the
//!   worker's socket in `wait_fd`, a hand-declared `poll(2)`, for the time
//!   left to its deadline (`TT_DIST_TIMEOUT_MS`, default 120 s) in slices
//!   of at most `LIVENESS_CAP`. The stream stays non-blocking and
//!   `Link::pump` stays its only reader; the wait merely replaces the
//!   sleep between two pumps, so a reply costs its bytes, not a timer
//!   tick. A crashed worker's closed socket ends the wait at once (EOF is
//!   the death notice) and the child is `try_wait`-reaped on every wake-up
//!   as the backstop; oversized or short frames are refused — all
//!   surfacing as typed [`FaultKind`] faults. The hub listener (worker
//!   hellos) and the solve service's client listener wait the same way.
//! * **Respawn** — [`ProcTransport::respawn`] replaces a dead rank's
//!   process (capped exponential backoff on spawn+connect), re-accepting
//!   on the retained hub listener. The new process is empty; the
//!   driver-side [`Cluster`](crate::Cluster) replays its journal to
//!   reconstruct resident state.
//! * **Degradation** — [`ProcTransport::retire`] maps a logical rank whose
//!   respawns are exhausted onto a surviving physical worker via the
//!   logical→physical route table. Everything driver-side (placement,
//!   keys, chunk decompositions, α–β charges) stays in logical rank
//!   space, so degraded runs remain bitwise-identical.
//! * **Injection** — a [`FaultPlan`] (env `TT_FAULT_PLAN` or
//!   [`ProcOptions`]) deterministically kills ranks, drops, corrupts or
//!   delays reply frames, and vetoes respawns, so every recovery path is
//!   testable in CI.

#![cfg(unix)]

use super::wire::{read_frame, write_frame, Dec, MAX_FRAME_BYTES};
use super::worker::{Request, ENV_RANK, ENV_SOCKET};
use super::{SpawnSpec, Transport};
use crate::{Error, FaultKind, Result};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::os::fd::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How long to wait for all spawned workers to connect back.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(30);
/// How long to wait for workers to exit after a shutdown request.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);
/// Default bound on every blocking receive / stalled send. Generous: a
/// *dead* rank is caught by its closed socket (or child reaping) within
/// milliseconds — the deadline only has to catch a wedged-but-alive rank.
const DEFAULT_DEADLINE: Duration = Duration::from_secs(120);
/// Environment override for the deadline, in milliseconds.
const ENV_TIMEOUT_MS: &str = "TT_DIST_TIMEOUT_MS";
/// Environment fault plan (see [`FaultPlan::parse`]).
const ENV_FAULT_PLAN: &str = "TT_FAULT_PLAN";
/// Respawn attempts before a rank is given up on (each preceded by
/// `50ms · 2^i` backoff after the first).
const DEFAULT_RESPAWN_ATTEMPTS: u32 = 4;
/// Base backoff between respawn attempts.
const RESPAWN_BACKOFF: Duration = Duration::from_millis(50);

/// Longest single sleep inside [`wait_fd`]: however far away the deadline
/// is, a waiter wakes this often to reap a dead child, re-check its stop
/// flag or notice the deadline — the backstop for a failure the fd itself
/// does not report.
pub(crate) const LIVENESS_CAP: Duration = Duration::from_millis(100);

static SPAWN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// `struct pollfd` of `poll(2)`; no `libc` crate is vendored, so the one
/// call this module needs is declared by hand.
#[repr(C)]
struct PollFd {
    fd: std::ffi::c_int,
    events: std::ffi::c_short,
    revents: std::ffi::c_short,
}

const POLLIN: std::ffi::c_short = 0x001;
const POLLOUT: std::ffi::c_short = 0x004;

#[cfg(any(target_os = "linux", target_os = "android"))]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type NfdsT = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: std::ffi::c_int) -> std::ffi::c_int;
}

#[cfg(test)]
thread_local! {
    /// Returns of [`wait_fd`] on this thread (tests count wake-ups).
    static WAKEUPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Block until `fd` is readable (or, with `or_writable`, writable), its
/// peer hung up, or `timeout` — capped at [`LIVENESS_CAP`] — has passed.
/// The one readiness wait of this crate: every caller keeps its fd
/// non-blocking and retries its own `read`/`write`/`accept` afterwards, so
/// a spurious or interrupted return costs one loop iteration and an error
/// from `poll` itself resurfaces, typed, from that retry.
pub(crate) fn wait_fd(fd: &impl AsRawFd, or_writable: bool, timeout: Duration) {
    let mut pfd = PollFd {
        fd: fd.as_raw_fd(),
        events: if or_writable {
            POLLIN | POLLOUT
        } else {
            POLLIN
        },
        revents: 0,
    };
    // round up: a sub-millisecond remainder must sleep, not spin
    let ms = timeout.min(LIVENESS_CAP).as_micros().div_ceil(1000) as std::ffi::c_int;
    // SAFETY: `pfd` is one valid, exclusively borrowed `pollfd` and `nfds`
    // is 1, so the kernel reads and writes exactly that struct; the fd is
    // open for the duration of the call because `fd` borrows its owner.
    unsafe { poll(&mut pfd, 1, ms) };
    #[cfg(test)]
    WAKEUPS.with(|w| w.set(w.get() + 1));
}

/// Deterministic fault injection for the multi-process backend: which
/// worker to kill, which reply frames to drop/corrupt/delay, and which
/// ranks may never respawn. Counters are per logical rank and 1-based;
/// each directive fires exactly once. Configure via [`ProcOptions`] or the
/// `TT_FAULT_PLAN` environment variable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// `(rank, n)`: kill the worker serving `rank` immediately before the
    /// driver's `n`-th send to it.
    pub kill: Vec<(usize, u64)>,
    /// `(rank, n)`: discard the `n`-th reply frame received from `rank`
    /// (the reply simply never arrives; the deadline catches it).
    pub drop_reply: Vec<(usize, u64)>,
    /// `(rank, n)`: corrupt the `n`-th reply frame from `rank` (the
    /// payload's opcode byte is flipped, so decoding fails loudly).
    pub corrupt_reply: Vec<(usize, u64)>,
    /// `(rank, n, millis)`: delay the `n`-th reply frame from `rank` —
    /// a wedged-but-alive rank for exercising the timeout path.
    pub delay_reply: Vec<(usize, u64, u64)>,
    /// Ranks whose respawn always fails, forcing the degradation path.
    pub nospawn: Vec<usize>,
}

impl FaultPlan {
    /// Whether this plan injects nothing.
    pub fn is_empty(&self) -> bool {
        *self == FaultPlan::default()
    }

    /// Parse the compact env syntax: comma-separated directives
    /// `kill:R@N`, `drop:R@N`, `corrupt:R@N`, `delay:R@N+MS`,
    /// `nospawn:R` (e.g. `"kill:1@3,nospawn:1"`).
    pub fn parse(s: &str) -> Result<Self> {
        let mut plan = FaultPlan::default();
        for item in s.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let (verb, spec) = item
                .split_once(':')
                .ok_or_else(|| Error::transport(format!("fault plan item `{item}` lacks `:`")))?;
            let bad = || Error::transport(format!("malformed fault plan item `{item}`"));
            let rank_at = |spec: &str| -> Result<(usize, u64)> {
                let (r, n) = spec.split_once('@').ok_or_else(bad)?;
                Ok((r.parse().map_err(|_| bad())?, n.parse().map_err(|_| bad())?))
            };
            match verb {
                "kill" => plan.kill.push(rank_at(spec)?),
                "drop" => plan.drop_reply.push(rank_at(spec)?),
                "corrupt" => plan.corrupt_reply.push(rank_at(spec)?),
                "delay" => {
                    let (ra, ms) = spec.split_once('+').ok_or_else(bad)?;
                    let (r, n) = rank_at(ra)?;
                    plan.delay_reply
                        .push((r, n, ms.parse().map_err(|_| bad())?));
                }
                "nospawn" => plan.nospawn.push(spec.parse().map_err(|_| bad())?),
                _ => return Err(Error::transport(format!("unknown fault verb `{verb}`"))),
            }
        }
        Ok(plan)
    }

    /// The plan named by `TT_FAULT_PLAN`, or an empty plan. Malformed env
    /// plans are an error — silently ignoring an injection request would
    /// make a failing CI step pass vacuously.
    pub fn from_env() -> Result<Self> {
        match std::env::var(ENV_FAULT_PLAN) {
            Ok(s) if !s.trim().is_empty() => Self::parse(&s),
            _ => Ok(Self::default()),
        }
    }
}

/// Spawn-time options for [`ProcTransport::spawn_with`]: fault injection
/// and detection deadline. `Default` reads everything from the environment
/// (`TT_FAULT_PLAN`, `TT_DIST_TIMEOUT_MS`).
#[derive(Clone, Debug, Default)]
pub struct ProcOptions {
    /// Fault injection plan (merged over the env plan; a non-empty builder
    /// plan replaces the env plan).
    pub plan: Option<FaultPlan>,
    /// Receive/stalled-send deadline (overrides `TT_DIST_TIMEOUT_MS`).
    pub deadline: Option<Duration>,
}

/// Mutable injection state: the remaining plan plus per-rank send and
/// reply-frame counters. Counters address *physical* worker slots, which
/// coincide with logical ranks until degradation re-routes them (tests
/// inject faults before any degradation, so the distinction never shows).
struct Injector {
    plan: FaultPlan,
    sends: Vec<u64>,
    frames: Vec<u64>,
}

impl Injector {
    fn new(plan: FaultPlan, ranks: usize) -> Self {
        Self {
            plan,
            sends: vec![0; ranks],
            frames: vec![0; ranks],
        }
    }

    /// Count one send to `rank`; true if the plan kills the worker now.
    fn on_send(&mut self, rank: usize) -> bool {
        self.sends[rank] += 1;
        let n = self.sends[rank];
        if let Some(i) = self.plan.kill.iter().position(|&k| k == (rank, n)) {
            self.plan.kill.remove(i);
            return true;
        }
        false
    }

    /// What to do with the next reply frame peeled off `slot`'s link.
    fn on_frame(&mut self, slot: usize) -> FrameFate {
        self.frames[slot] += 1;
        let n = self.frames[slot];
        let take = |v: &mut Vec<(usize, u64)>| {
            v.iter()
                .position(|&k| k == (slot, n))
                .map(|i| v.remove(i))
                .is_some()
        };
        if take(&mut self.plan.drop_reply) {
            return FrameFate::Drop;
        }
        if take(&mut self.plan.corrupt_reply) {
            return FrameFate::Corrupt;
        }
        if let Some(i) = self
            .plan
            .delay_reply
            .iter()
            .position(|&(r, m, _)| (r, m) == (slot, n))
        {
            let (_, _, ms) = self.plan.delay_reply.remove(i);
            return FrameFate::Delay(Duration::from_millis(ms));
        }
        FrameFate::Deliver
    }
}

enum FrameFate {
    Deliver,
    Drop,
    Corrupt,
    Delay(Duration),
}

/// One worker connection. The stream is kept **non-blocking** and every
/// wait loops through [`Link::pump`] (sleeping in [`wait_fd`] between two
/// pumps), so the driver keeps draining worker replies even while it is
/// still shipping requests. This is what makes
/// [`crate::Cluster::call_all`]'s send-everything-then-collect pattern
/// safe with large payloads: with blocking writes on both sides, a worker
/// blocked writing a big reply and a driver blocked writing the next big
/// request to the same (full) socket would deadlock permanently.
struct Link {
    stream: UnixStream,
    /// Bytes read off the socket that don't yet form a complete frame.
    rdbuf: Vec<u8>,
    /// Complete frames by tag, counter deltas already applied.
    pending: HashMap<u64, VecDeque<Vec<u8>>>,
}

impl Link {
    fn new(stream: UnixStream) -> Self {
        Self {
            stream,
            rdbuf: Vec::new(),
            pending: HashMap::new(),
        }
    }

    /// Drain whatever the socket currently holds into `pending` without
    /// blocking. Returns whether any bytes arrived. Faults are attributed
    /// to logical `rank`; `slot` addresses the injection counters.
    fn pump(&mut self, rank: usize, slot: usize, inj: &mut Injector) -> Result<bool> {
        let mut progress = false;
        let mut buf = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    return Err(Error::fault(
                        FaultKind::WorkerDied,
                        rank,
                        "worker closed the connection",
                    ))
                }
                Ok(n) => {
                    self.rdbuf.extend_from_slice(&buf[..n]);
                    progress = true;
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(Error::fault(FaultKind::Io, rank, format!("read: {e}"))),
            }
        }
        // Peel complete `[tag][len][payload]` frames by offset: each reply
        // is copied once, straight into `pending` without its 16-byte
        // counter prefix, and `rdbuf` is compacted once per pump.
        let mut off = 0usize;
        let mut fault = None;
        while self.rdbuf.len() - off >= 16 {
            let head = &self.rdbuf[off..];
            let len = u64::from_le_bytes(head[8..16].try_into().unwrap());
            if len > MAX_FRAME_BYTES {
                fault = Some(format!("reply frame of {len} bytes refused"));
                break;
            }
            let len = len as usize;
            if head.len() < 16 + len {
                break;
            }
            let tag = u64::from_le_bytes(head[..8].try_into().unwrap());
            off += 16 + len;
            // every reply carries a 16-byte flop/mem counter-delta prefix
            if len < 16 {
                fault = Some("reply frame shorter than its counter prefix".into());
                break;
            }
            let (counters, reply) = head[16..16 + len].split_at(16);
            let mut reply = reply.to_vec();
            match inj.on_frame(slot) {
                FrameFate::Drop => continue, // the reply never happened
                FrameFate::Corrupt => {
                    // flip the reply opcode byte (past the counter prefix);
                    // counters from a corrupt frame are not to be trusted,
                    // so they are skipped
                    if let Some(opcode) = reply.first_mut() {
                        *opcode ^= 0x80;
                    }
                    self.pending.entry(tag).or_default().push_back(reply);
                    continue;
                }
                FrameFate::Delay(d) => std::thread::sleep(d),
                FrameFate::Deliver => {}
            }
            // replay the worker's counter deltas into this process's global
            // counters (exactly once per frame)
            let mut d = Dec::new(counters);
            tt_tensor::counter::add_flops(d.u64()?);
            tt_tensor::counter::add_mem_traffic(d.u64()?);
            self.pending.entry(tag).or_default().push_back(reply);
        }
        self.rdbuf.drain(..off);
        match fault {
            Some(msg) => Err(Error::fault(FaultKind::Decode, rank, msg)),
            None => Ok(progress),
        }
    }

    /// Write one frame, pumping incoming replies whenever the socket's
    /// send buffer is full (the deadlock-avoidance half of the contract).
    /// A write stalled past `deadline` is a timeout fault.
    fn write_pumping(
        &mut self,
        rank: usize,
        slot: usize,
        tag: u64,
        msg: &[u8],
        inj: &mut Injector,
        deadline: Duration,
    ) -> Result<()> {
        let mut frame = Vec::with_capacity(16 + msg.len());
        frame.extend_from_slice(&tag.to_le_bytes());
        frame.extend_from_slice(&(msg.len() as u64).to_le_bytes());
        frame.extend_from_slice(msg);
        let mut off = 0usize;
        let start = Instant::now();
        while off < frame.len() {
            match self.stream.write(&frame[off..]) {
                Ok(0) => {
                    return Err(Error::fault(
                        FaultKind::WorkerDied,
                        rank,
                        "write returned 0",
                    ))
                }
                Ok(n) => off += n,
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if !self.pump(rank, slot, inj)? {
                        let Some(left) = deadline.checked_sub(start.elapsed()) else {
                            return Err(Error::fault(
                                FaultKind::Timeout,
                                rank,
                                format!("send stalled for {deadline:?}"),
                            ));
                        };
                        // room to write, a reply to drain, or a hang-up
                        wait_fd(&self.stream, true, left);
                    }
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(ref e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::BrokenPipe | std::io::ErrorKind::ConnectionReset
                    ) =>
                {
                    return Err(Error::fault(
                        FaultKind::WorkerDied,
                        rank,
                        format!("write: {e}"),
                    ))
                }
                Err(e) => return Err(Error::fault(FaultKind::Io, rank, format!("write: {e}"))),
            }
        }
        Ok(())
    }
}

/// Multi-process implementation of [`Transport`].
pub struct ProcTransport {
    /// Worker connections by physical slot; `None` once a slot is retired.
    links: Vec<Option<Link>>,
    /// Worker processes by physical slot (dead children stay until reaped).
    children: Vec<Child>,
    /// Logical rank → physical slot. Identity until degradation re-routes
    /// a retired rank onto a survivor.
    route: Vec<usize>,
    /// The hub listener, retained so respawned workers can re-accept.
    listener: UnixListener,
    sock: PathBuf,
    spec: SpawnSpec,
    dir: PathBuf,
    next_tag: u64,
    deadline: Duration,
    inj: Injector,
}

fn worker_exe() -> Result<PathBuf> {
    if let Ok(exe) = std::env::var("TT_DIST_WORKER_EXE") {
        let p = PathBuf::from(exe);
        if p.exists() {
            return Ok(p);
        }
        return Err(Error::transport(format!(
            "TT_DIST_WORKER_EXE points at missing file {}",
            p.display()
        )));
    }
    let me = std::env::current_exe().map_err(|e| Error::transport(format!("current_exe: {e}")))?;
    let mut candidates = Vec::new();
    if let Some(dir) = me.parent() {
        candidates.push(dir.join("tt-dist-worker"));
        // test binaries live in target/<profile>/deps/
        if let Some(up) = dir.parent() {
            candidates.push(up.join("tt-dist-worker"));
        }
    }
    candidates.into_iter().find(|p| p.exists()).ok_or_else(|| {
        Error::transport(
            "tt-dist-worker binary not found next to the current executable; \
             build it with `cargo build -p tt-dist --bin tt-dist-worker` or \
             use SpawnSpec::SelfExec",
        )
    })
}

/// The deadline `TT_DIST_TIMEOUT_MS` asks for, given what the variable
/// holds: a positive number of milliseconds, the default when unset or
/// blank. Anything else is an error — `"30s"` read as the default would
/// silently run with another deadline than the one asked for, and `0`
/// makes every receive time out at once, so recovery respawns into the
/// same fault.
fn parse_deadline(value: Option<&str>) -> Result<Duration> {
    let Some(v) = value.map(str::trim).filter(|v| !v.is_empty()) else {
        return Ok(DEFAULT_DEADLINE);
    };
    match v.parse::<u64>() {
        Ok(ms) if ms > 0 => Ok(Duration::from_millis(ms)),
        _ => Err(Error::Runtime(format!(
            "{ENV_TIMEOUT_MS}={v:?}: expected a positive number of milliseconds"
        ))),
    }
}

impl ProcTransport {
    /// Spawn `ranks` worker processes and wait for them all to connect.
    /// Deadline and fault plan come from the environment
    /// (`TT_DIST_TIMEOUT_MS`, `TT_FAULT_PLAN`).
    pub fn spawn(ranks: usize, spec: &SpawnSpec) -> Result<Self> {
        Self::spawn_with(ranks, spec, ProcOptions::default())
    }

    /// Spawn with explicit [`ProcOptions`] (fault injection, deadline);
    /// unset options fall back to the environment, where
    /// a malformed `TT_FAULT_PLAN` or `TT_DIST_TIMEOUT_MS` (not a positive
    /// number of milliseconds) is an error, never a silent default.
    pub fn spawn_with(ranks: usize, spec: &SpawnSpec, opts: ProcOptions) -> Result<Self> {
        let ranks = ranks.max(1);
        let plan = match opts.plan {
            Some(p) => p,
            None => FaultPlan::from_env()?,
        };
        let deadline = match opts.deadline {
            Some(d) => d,
            None => parse_deadline(std::env::var(ENV_TIMEOUT_MS).ok().as_deref())?,
        };
        let dir = std::env::temp_dir().join(format!(
            "tt-dist-{}-{}",
            std::process::id(),
            SPAWN_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)
            .map_err(|e| Error::transport(format!("create {}: {e}", dir.display())))?;
        let sock = dir.join("hub.sock");
        let listener = UnixListener::bind(&sock)
            .map_err(|e| Error::transport(format!("bind {}: {e}", sock.display())))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| Error::transport(format!("listener nonblocking: {e}")))?;

        let mut t = Self {
            links: (0..ranks).map(|_| None).collect(),
            children: Vec::with_capacity(ranks),
            route: (0..ranks).collect(),
            listener,
            sock,
            spec: spec.clone(),
            dir,
            next_tag: 1,
            deadline,
            inj: Injector::new(plan, ranks),
        };
        for slot in 0..ranks {
            let child = t.spawn_child(slot)?;
            t.children.push(child);
        }
        // accept connections until every slot said hello
        let deadline = Instant::now() + CONNECT_TIMEOUT;
        let mut connected = 0;
        while connected < ranks {
            match t.accept_hello(deadline)? {
                Some(()) => connected += 1,
                None => {
                    for (slot, child) in t.children.iter_mut().enumerate() {
                        if let (true, Ok(Some(status))) =
                            (t.links[slot].is_none(), child.try_wait())
                        {
                            return Err(Error::fault(
                                FaultKind::Spawn,
                                slot,
                                format!("worker exited before connecting ({status})"),
                            ));
                        }
                    }
                    wait_fd(&t.listener, false, LIVENESS_CAP);
                }
            }
        }
        Ok(t)
    }

    /// Launch the worker process for physical `slot`.
    fn spawn_child(&self, slot: usize) -> Result<Child> {
        let mut cmd = match &self.spec {
            SpawnSpec::WorkerBinary => Command::new(worker_exe()?),
            SpawnSpec::SelfExec(args) => {
                let me = std::env::current_exe()
                    .map_err(|e| Error::transport(format!("current_exe: {e}")))?;
                let mut c = Command::new(me);
                c.args(args);
                c
            }
        };
        cmd.env(ENV_SOCKET, &self.sock)
            .env(ENV_RANK, slot.to_string())
            .stdin(Stdio::null())
            // test-harness hosts print their own banner on stdout,
            // which is not part of the protocol (the socket is) —
            // silence it; diagnostics go to the inherited stderr
            .stdout(Stdio::null())
            .spawn()
            .map_err(|e| Error::fault(FaultKind::Spawn, slot, format!("spawn worker: {e}")))
    }

    /// Accept one worker hello if one is pending, filing its link into the
    /// slot it names. `Ok(None)` means nothing was pending; past
    /// `deadline` that becomes a spawn fault.
    fn accept_hello(&mut self, deadline: Instant) -> Result<Option<()>> {
        match self.listener.accept() {
            Ok((mut stream, _)) => {
                stream
                    .set_nonblocking(false)
                    .map_err(|e| Error::transport(format!("stream blocking mode: {e}")))?;
                let (tag, hello) = read_frame(&mut stream)?;
                if tag != 0 {
                    return Err(Error::transport("worker hello had nonzero tag"));
                }
                let slot = Dec::new(&hello).u64()? as usize;
                if slot >= self.links.len() || self.links[slot].is_some() {
                    return Err(Error::transport(format!("bad hello rank {slot}")));
                }
                // all further traffic goes through the pumping
                // non-blocking reader/writer (see Link)
                stream
                    .set_nonblocking(true)
                    .map_err(|e| Error::transport(format!("stream nonblocking mode: {e}")))?;
                self.links[slot] = Some(Link::new(stream));
                Ok(Some(()))
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if Instant::now() > deadline {
                    return Err(Error::transport(format!(
                        "workers failed to connect within {CONNECT_TIMEOUT:?}"
                    )));
                }
                Ok(None)
            }
            Err(e) => Err(Error::transport(format!("accept: {e}"))),
        }
    }

    /// Process ids of the worker children (diagnostics/tests).
    pub fn worker_pids(&self) -> Vec<u32> {
        self.children.iter().map(|c| c.id()).collect()
    }

    /// The physical slot currently serving logical `rank`.
    pub fn physical_slot(&self, rank: usize) -> Option<usize> {
        self.route.get(rank).copied()
    }

    /// Kill the worker process serving `rank` (SIGKILL, reaped) — the
    /// injection primitive behind [`FaultPlan::kill`], public for tests.
    pub fn kill_worker(&mut self, rank: usize) {
        let slot = self.route[rank];
        let _ = self.children[slot].kill();
        let _ = self.children[slot].wait();
    }
}

impl Transport for ProcTransport {
    fn ranks(&self) -> usize {
        self.route.len()
    }

    fn next_tag(&mut self) -> u64 {
        let t = self.next_tag;
        self.next_tag += 1;
        t
    }

    fn supports_recovery(&self) -> bool {
        true
    }

    fn peers(&self, rank: usize) -> Vec<usize> {
        match self.route.get(rank) {
            Some(&slot) => (0..self.route.len())
                .filter(|&r| self.route[r] == slot)
                .collect(),
            None => vec![rank],
        }
    }

    fn set_deadline(&mut self, deadline: Duration) {
        self.deadline = deadline;
    }

    fn send(&mut self, to: usize, tag: u64, msg: &[u8]) -> Result<()> {
        if to >= self.route.len() {
            return Err(Error::transport(format!("no rank {to}")));
        }
        if self.inj.on_send(to) {
            self.kill_worker(to);
        }
        // Per-job deadline (service job scope on this thread) overrides
        // the transport-wide default.
        let deadline = crate::cost::scope_deadline().unwrap_or(self.deadline);
        let slot = self.route[to];
        let link = self.links[slot].as_mut().ok_or_else(|| {
            Error::fault(FaultKind::WorkerDied, to, "rank's worker slot is retired")
        })?;
        link.write_pumping(to, slot, tag, msg, &mut self.inj, deadline)
    }

    fn recv(&mut self, from: usize, tag: u64) -> Result<Vec<u8>> {
        let deadline = crate::cost::scope_deadline().unwrap_or(self.deadline);
        let start = Instant::now();
        loop {
            let slot = *self
                .route
                .get(from)
                .ok_or_else(|| Error::transport(format!("no rank {from}")))?;
            let link = self.links[slot].as_mut().ok_or_else(|| {
                Error::fault(FaultKind::WorkerDied, from, "rank's worker slot is retired")
            })?;
            // tags are never reused: an emptied queue leaves with its reply
            if let Entry::Occupied(mut q) = link.pending.entry(tag) {
                let msg = q.get_mut().pop_front();
                if q.get().is_empty() {
                    q.remove();
                }
                if let Some(msg) = msg {
                    return Ok(msg);
                }
            }
            if !link.pump(from, slot, &mut self.inj)? {
                // backstop for a death the socket did not report
                if let Ok(Some(status)) = self.children[slot].try_wait() {
                    return Err(Error::fault(
                        FaultKind::WorkerDied,
                        from,
                        format!("worker exited ({status})"),
                    ));
                }
                let Some(left) = deadline.checked_sub(start.elapsed()) else {
                    return Err(Error::fault(
                        FaultKind::Timeout,
                        from,
                        format!("no reply under tag {tag} within {deadline:?}"),
                    ));
                };
                // a reply, or EOF from a dead worker, ends the wait at once
                wait_fd(&link.stream, false, left);
            }
        }
    }

    fn respawn(&mut self, rank: usize) -> Result<()> {
        if self.inj.plan.nospawn.contains(&rank) {
            return Err(Error::fault(
                FaultKind::Spawn,
                rank,
                "respawn vetoed by fault plan",
            ));
        }
        let slot = *self
            .route
            .get(rank)
            .ok_or_else(|| Error::transport(format!("no rank {rank}")))?;
        // reap the old process and drop its link (buffered frames belong
        // to requests the journal will re-issue)
        let _ = self.children[slot].kill();
        let _ = self.children[slot].wait();
        self.links[slot] = None;
        let mut last = Error::fault(FaultKind::Spawn, rank, "no respawn attempts made");
        for attempt in 0..DEFAULT_RESPAWN_ATTEMPTS {
            if attempt > 0 {
                std::thread::sleep(RESPAWN_BACKOFF * (1 << (attempt - 1).min(6)));
            }
            match self.try_respawn(slot) {
                Ok(()) => return Ok(()),
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    fn retire(&mut self, rank: usize) -> Result<usize> {
        let slot = *self
            .route
            .get(rank)
            .ok_or_else(|| Error::transport(format!("no rank {rank}")))?;
        let _ = self.children[slot].kill();
        let _ = self.children[slot].wait();
        self.links[slot] = None;
        let target = (0..self.links.len())
            .find(|&s| self.links[s].is_some())
            .ok_or_else(|| Error::fault(FaultKind::WorkerDied, rank, "no surviving workers"))?;
        // re-home every logical rank the dead slot served (transitive:
        // earlier retirements may already route through it)
        for r in self.route.iter_mut() {
            if *r == slot {
                *r = target;
            }
        }
        Ok(target)
    }
}

impl ProcTransport {
    /// One respawn attempt for physical `slot`: spawn + wait for hello.
    fn try_respawn(&mut self, slot: usize) -> Result<()> {
        let child = self.spawn_child(slot)?;
        self.children[slot] = child;
        let deadline = Instant::now() + CONNECT_TIMEOUT;
        while self.links[slot].is_none() {
            match self.accept_hello(deadline)? {
                Some(()) => {}
                None => {
                    if let Ok(Some(status)) = self.children[slot].try_wait() {
                        return Err(Error::fault(
                            FaultKind::Spawn,
                            slot,
                            format!("respawned worker exited before connecting ({status})"),
                        ));
                    }
                    wait_fd(&self.listener, false, LIVENESS_CAP);
                }
            }
        }
        Ok(())
    }
}

impl Drop for ProcTransport {
    fn drop(&mut self) {
        let shutdown = Request::Shutdown.encode();
        for link in self.links.iter_mut().flatten() {
            // best-effort (non-blocking stream may refuse); closing the
            // sockets below makes workers exit on EOF regardless
            let _ = write_frame(&mut link.stream, u64::MAX, &shutdown);
        }
        self.links.clear();
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        for child in &mut self.children {
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() > deadline => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                    Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                    Err(_) => break,
                }
            }
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::super::worker::{Op, Reply};
    use super::*;

    /// Self-exec hook: when the lib test binary is re-executed as a
    /// worker, this "test" becomes the serve loop (no-op otherwise).
    #[test]
    fn spawned_worker_entry() {
        super::super::maybe_serve();
    }

    fn spec() -> SpawnSpec {
        SpawnSpec::SelfExec(vec!["spawned_worker_entry".into()])
    }

    #[test]
    fn real_processes_roundtrip_store_and_kernels() {
        let mut t = ProcTransport::spawn(2, &spec()).unwrap();
        assert_eq!(t.ranks(), 2);
        let my_pid = std::process::id();
        for pid in t.worker_pids() {
            assert_ne!(pid, my_pid, "workers must be separate OS processes");
        }
        // per-rank stores are genuinely disjoint address spaces
        for r in 0..2 {
            let tag = t.next_tag();
            t.send(
                r,
                tag,
                &Request::Upload {
                    key: 7,
                    data: vec![r as f64 + 0.5],
                }
                .encode(),
            )
            .unwrap();
            assert_eq!(
                Reply::decode(&t.recv(r, tag).unwrap()).unwrap(),
                Reply::Unit
            );
        }
        for r in 0..2 {
            let tag = t.next_tag();
            t.send(r, tag, &Request::Download { key: 7 }.encode())
                .unwrap();
            assert_eq!(
                Reply::decode(&t.recv(r, tag).unwrap()).unwrap(),
                Reply::Buf(vec![r as f64 + 0.5])
            );
        }
    }

    #[test]
    fn large_pipelined_payloads_do_not_deadlock() {
        // Regression test for the call_all deadlock: ship several large
        // requests to one rank *before* reading any reply, interleaved
        // with requests whose replies are large. With blocking writes on
        // both ends, the worker blocks writing reply 2 (~1.6 MB ≫ the
        // socket buffer) while the driver blocks writing request 3 — the
        // pumping writer must drain replies to make progress.
        let mut t = ProcTransport::spawn(1, &spec()).unwrap();
        let big: Vec<f64> = (0..200_000).map(|i| i as f64 * 0.5).collect();
        let mut tags = Vec::new();
        for round in 0..3u64 {
            let put = t.next_tag();
            t.send(
                0,
                put,
                &Request::Upload {
                    key: round,
                    data: big.clone(),
                }
                .encode(),
            )
            .unwrap();
            let get = t.next_tag();
            t.send(0, get, &Request::Download { key: round }.encode())
                .unwrap();
            tags.push((put, get));
        }
        for (put, get) in tags {
            assert_eq!(
                Reply::decode(&t.recv(0, put).unwrap()).unwrap(),
                Reply::Unit
            );
            let Reply::Buf(back) = Reply::decode(&t.recv(0, get).unwrap()).unwrap() else {
                panic!("expected payload");
            };
            assert_eq!(back.len(), big.len());
            assert_eq!(back[123_456].to_bits(), big[123_456].to_bits());
        }
    }

    #[test]
    fn worker_flop_counts_propagate_to_the_driver() {
        // a Contract runs its GEMM in the worker process; the reply's
        // counter-delta prefix must land in this process's global counter
        // (lower bound, not equality: other tests share the global
        // counter and libtest runs them concurrently)
        let mut t = ProcTransport::spawn(1, &spec()).unwrap();
        let (rows, k, n) = (64usize, 64usize, 64usize);
        let guard = tt_tensor::FlopGuard::start();
        let tag = t.next_tag();
        t.send(
            0,
            tag,
            &Request::Contract {
                spec: "ik,kj->ij".into(),
                a_dims: vec![rows, k],
                a: Op::Inline(vec![1.0; rows * k]),
                b_dims: vec![k, n],
                b: Op::Inline(vec![1.0; k * n]),
                key: 1,
                acc: false,
            }
            .encode(),
        )
        .unwrap();
        t.recv(0, tag).unwrap();
        assert!(guard.elapsed() >= 2 * (rows * k * n) as u64);
    }

    #[test]
    fn out_of_order_replies_are_buffered_by_tag() {
        let mut t = ProcTransport::spawn(1, &spec()).unwrap();
        let t1 = t.next_tag();
        let t2 = t.next_tag();
        t.send(
            0,
            t1,
            &Request::Upload {
                key: 1,
                data: vec![1.0],
            }
            .encode(),
        )
        .unwrap();
        t.send(
            0,
            t2,
            &Request::Upload {
                key: 2,
                data: vec![2.0],
            }
            .encode(),
        )
        .unwrap();
        // receive the second reply first: the first must be stashed
        assert_eq!(Reply::decode(&t.recv(0, t2).unwrap()).unwrap(), Reply::Unit);
        assert_eq!(Reply::decode(&t.recv(0, t1).unwrap()).unwrap(), Reply::Unit);
    }

    #[test]
    fn worker_task_failure_does_not_kill_the_process() {
        let mut t = ProcTransport::spawn(1, &spec()).unwrap();
        let tag = t.next_tag();
        t.send(0, tag, &Request::Download { key: 404 }.encode())
            .unwrap();
        assert!(matches!(
            Reply::decode(&t.recv(0, tag).unwrap()).unwrap(),
            Reply::Fail(_)
        ));
        let tag = t.next_tag();
        t.send(0, tag, &Request::Ping.encode()).unwrap();
        assert_eq!(
            Reply::decode(&t.recv(0, tag).unwrap()).unwrap(),
            Reply::Pong
        );
    }

    // -- fault tolerance ---------------------------------------------------

    fn wait_gone(pid: u32, what: &str) {
        // poll with `kill -0`: ESRCH once the process is fully gone
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let alive = unsafe { libc_kill(pid as i32, 0) } == 0;
            if !alive {
                return;
            }
            assert!(Instant::now() < deadline, "{what}: pid {pid} still alive");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    extern "C" {
        #[link_name = "kill"]
        fn libc_kill(pid: i32, sig: i32) -> i32;
    }

    #[test]
    fn dead_worker_surfaces_as_worker_died_not_a_hang() {
        let mut t = ProcTransport::spawn(2, &spec()).unwrap();
        t.set_deadline(Duration::from_secs(30)); // reaping must beat this
        t.kill_worker(1);
        let tag = t.next_tag();
        // the send may succeed (socket buffered) or already fail; either
        // way the reply wait must classify the fault
        let start = Instant::now();
        let err = t
            .send(1, tag, &Request::Ping.encode())
            .and_then(|()| t.recv(1, tag))
            .expect_err("dead rank must fault");
        let fault = err.as_fault().expect("typed fault");
        assert_eq!(fault.rank, Some(1));
        assert!(matches!(fault.kind, FaultKind::WorkerDied), "got {fault:?}");
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "child reaping must detect the crash well before the deadline"
        );
        // the other rank is untouched
        let tag = t.next_tag();
        t.send(0, tag, &Request::Ping.encode()).unwrap();
        assert_eq!(
            Reply::decode(&t.recv(0, tag).unwrap()).unwrap(),
            Reply::Pong
        );
    }

    #[test]
    fn respawn_brings_a_fresh_empty_worker_back() {
        let mut t = ProcTransport::spawn(2, &spec()).unwrap();
        let tag = t.next_tag();
        t.send(
            1,
            tag,
            &Request::Upload {
                key: 9,
                data: vec![1.5],
            }
            .encode(),
        )
        .unwrap();
        t.recv(1, tag).unwrap();
        t.kill_worker(1);
        t.respawn(1).unwrap();
        // alive again...
        let tag = t.next_tag();
        t.send(1, tag, &Request::Ping.encode()).unwrap();
        assert_eq!(
            Reply::decode(&t.recv(1, tag).unwrap()).unwrap(),
            Reply::Pong
        );
        // ...but with a clean store (state reconstruction is the
        // journal's job, one layer up)
        let tag = t.next_tag();
        t.send(1, tag, &Request::Download { key: 9 }.encode())
            .unwrap();
        assert!(matches!(
            Reply::decode(&t.recv(1, tag).unwrap()).unwrap(),
            Reply::Fail(_)
        ));
    }

    #[test]
    fn retire_reroutes_a_rank_onto_a_survivor() {
        let mut t = ProcTransport::spawn(3, &spec()).unwrap();
        t.kill_worker(1);
        let target = t.retire(1).unwrap();
        assert_ne!(target, 1);
        assert_eq!(t.physical_slot(1), Some(target));
        // the retired logical rank still answers — served by the survivor
        let tag = t.next_tag();
        t.send(1, tag, &Request::Ping.encode()).unwrap();
        assert_eq!(
            Reply::decode(&t.recv(1, tag).unwrap()).unwrap(),
            Reply::Pong
        );
        // stores now overlap physically, which is fine: keys are globally
        // unique or content-derived (same key ⇒ same bytes)
        let tag = t.next_tag();
        t.send(
            1,
            tag,
            &Request::Upload {
                key: 3,
                data: vec![2.5],
            }
            .encode(),
        )
        .unwrap();
        t.recv(1, tag).unwrap();
        let tag = t.next_tag();
        t.send(1, tag, &Request::Download { key: 3 }.encode())
            .unwrap();
        assert_eq!(
            Reply::decode(&t.recv(1, tag).unwrap()).unwrap(),
            Reply::Buf(vec![2.5])
        );
    }

    #[test]
    fn fault_plan_parses_and_rejects_garbage() {
        let p = FaultPlan::parse("kill:1@3, drop:0@2,corrupt:2@5,delay:1@2+200,nospawn:1").unwrap();
        assert_eq!(p.kill, vec![(1, 3)]);
        assert_eq!(p.drop_reply, vec![(0, 2)]);
        assert_eq!(p.corrupt_reply, vec![(2, 5)]);
        assert_eq!(p.delay_reply, vec![(1, 2, 200)]);
        assert_eq!(p.nospawn, vec![1]);
        assert!(FaultPlan::parse("kill:1").is_err());
        assert!(FaultPlan::parse("explode:1@2").is_err());
        assert!(FaultPlan::parse("delay:1@2").is_err());
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn env_deadline_parses_and_rejects_garbage() {
        assert_eq!(parse_deadline(None).unwrap(), DEFAULT_DEADLINE);
        assert_eq!(parse_deadline(Some("  ")).unwrap(), DEFAULT_DEADLINE);
        assert_eq!(
            parse_deadline(Some(" 2500 ")).unwrap(),
            Duration::from_millis(2500)
        );
        for bad in ["30s", "0", "-5", "1.5"] {
            let err = parse_deadline(Some(bad)).unwrap_err();
            assert!(matches!(err, Error::Runtime(_)), "{bad}: {err:?}");
            let msg = err.to_string();
            assert!(msg.contains(ENV_TIMEOUT_MS) && msg.contains(bad), "{msg}");
        }
    }

    #[test]
    fn injected_kill_fires_on_the_nth_send() {
        let opts = ProcOptions {
            plan: Some(FaultPlan::parse("kill:0@2").unwrap()),
            deadline: Some(Duration::from_secs(10)),
        };
        let mut t = ProcTransport::spawn_with(1, &spec(), opts).unwrap();
        let tag = t.next_tag();
        t.send(0, tag, &Request::Ping.encode()).unwrap();
        assert_eq!(
            Reply::decode(&t.recv(0, tag).unwrap()).unwrap(),
            Reply::Pong
        );
        // second send triggers the kill; the reply never comes
        let tag = t.next_tag();
        let err = t
            .send(0, tag, &Request::Ping.encode())
            .and_then(|()| t.recv(0, tag))
            .expect_err("killed rank must fault");
        assert!(matches!(
            err.as_fault().map(|f| f.kind),
            Some(FaultKind::WorkerDied)
        ));
        // and the respawn path restores service
        t.respawn(0).unwrap();
        let tag = t.next_tag();
        t.send(0, tag, &Request::Ping.encode()).unwrap();
        assert_eq!(
            Reply::decode(&t.recv(0, tag).unwrap()).unwrap(),
            Reply::Pong
        );
    }

    #[test]
    fn corrupted_reply_is_a_decode_error_not_a_panic() {
        let opts = ProcOptions {
            plan: Some(FaultPlan::parse("corrupt:0@1").unwrap()),
            deadline: Some(Duration::from_secs(10)),
        };
        let mut t = ProcTransport::spawn_with(1, &spec(), opts).unwrap();
        let tag = t.next_tag();
        t.send(0, tag, &Request::Ping.encode()).unwrap();
        let bytes = t.recv(0, tag).unwrap();
        assert!(
            Reply::decode(&bytes).is_err(),
            "flipped opcode must fail decode"
        );
        // the stream itself is still framed correctly: next reply is fine
        let tag = t.next_tag();
        t.send(0, tag, &Request::Ping.encode()).unwrap();
        assert_eq!(
            Reply::decode(&t.recv(0, tag).unwrap()).unwrap(),
            Reply::Pong
        );
    }

    #[test]
    fn dropped_reply_times_out_with_a_typed_fault() {
        let deadline = Duration::from_millis(300);
        let opts = ProcOptions {
            plan: Some(FaultPlan::parse("drop:0@1").unwrap()),
            deadline: Some(deadline),
        };
        let mut t = ProcTransport::spawn_with(1, &spec(), opts).unwrap();
        let tag = t.next_tag();
        t.send(0, tag, &Request::Ping.encode()).unwrap();
        let start = Instant::now();
        let err = t.recv(0, tag).expect_err("dropped reply must time out");
        let waited = start.elapsed();
        assert!(matches!(
            err.as_fault().map(|f| f.kind),
            Some(FaultKind::Timeout)
        ));
        // the wait sleeps to the deadline, never a liveness cap past it
        // (scheduling slack on top: the fault is raised by the next wake-up)
        assert!(waited >= deadline, "timed out early: {waited:?}");
        assert!(
            waited < deadline + LIVENESS_CAP + Duration::from_millis(150),
            "timed out late: {waited:?}"
        );
    }

    #[test]
    fn a_late_reply_costs_a_handful_of_wakeups() {
        // the worker is busy for a while (a scalar-path GEMM) and its reply
        // is then held back a further 100 ms: the driver must sleep through
        // all of it on the socket — one wake-up per liveness cap plus one
        // per burst of reply bytes — where a 200 us poll loop woke hundreds
        // of times
        let opts = ProcOptions {
            plan: Some(FaultPlan::parse("delay:0@1+100").unwrap()),
            deadline: Some(Duration::from_secs(60)),
        };
        let mut t = ProcTransport::spawn_with(1, &spec(), opts).unwrap();
        let n = 320usize;
        let tag = t.next_tag();
        t.send(
            0,
            tag,
            &Request::Contract {
                spec: "ik,kj->ij".into(),
                a_dims: vec![n, n],
                a: Op::Inline(vec![1.0; n * n]),
                b_dims: vec![n, n],
                b: Op::Inline(vec![0.5; n * n]),
                key: 1,
                acc: false,
            }
            .encode(),
        )
        .unwrap();
        let before = WAKEUPS.with(|w| w.get());
        let start = Instant::now();
        let reply = t.recv(0, tag).unwrap();
        let (waited, wakeups) = (start.elapsed(), WAKEUPS.with(|w| w.get()) - before);
        assert_eq!(Reply::decode(&reply).unwrap(), Reply::Unit);
        assert!(waited >= Duration::from_millis(100), "{waited:?}");
        let allowed = 8 + (waited.as_millis() / LIVENESS_CAP.as_millis()) as u64;
        assert!(
            (1..=allowed).contains(&wakeups),
            "{wakeups} wake-ups in {waited:?}"
        );
        // what the busy worker stored
        let tag = t.next_tag();
        t.send(0, tag, &Request::Download { key: 1 }.encode())
            .unwrap();
        assert!(matches!(
            Reply::decode(&t.recv(0, tag).unwrap()).unwrap(),
            Reply::Buf(c) if c.len() == n * n && c[0] == 0.5 * n as f64
        ));
    }

    #[test]
    fn a_worker_killed_mid_wait_ends_the_wait_at_once() {
        // nobody is going to answer and the deadline is two minutes away:
        // the closed socket alone must wake the driver
        let mut t = ProcTransport::spawn(1, &spec()).unwrap();
        t.set_deadline(Duration::from_secs(120));
        let pid = t.worker_pids()[0];
        let killer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(200));
            // SAFETY: plain `kill(2)` on a child this test spawned
            unsafe { libc_kill(pid as i32, 9) };
        });
        let start = Instant::now();
        let err = t
            .recv(0, 12345)
            .expect_err("no reply can arrive under an unsent tag");
        let waited = start.elapsed();
        killer.join().unwrap();
        assert!(
            matches!(err.as_fault().map(|f| f.kind), Some(FaultKind::WorkerDied)),
            "got {err:?}"
        );
        assert!(waited < Duration::from_millis(1200), "{waited:?}");
    }

    #[test]
    fn nospawn_vetoes_respawn_for_degradation() {
        let opts = ProcOptions {
            plan: Some(FaultPlan::parse("nospawn:1").unwrap()),
            ..Default::default()
        };
        let mut t = ProcTransport::spawn_with(2, &spec(), opts).unwrap();
        t.kill_worker(1);
        let err = t.respawn(1).expect_err("nospawn must veto");
        assert!(matches!(
            err.as_fault().map(|f| f.kind),
            Some(FaultKind::Spawn)
        ));
        assert!(t.retire(1).is_ok(), "degradation still available");
    }

    #[test]
    fn no_orphans_after_transport_drop() {
        // satellite: spawn, record pids, drop (clean shutdown) — every
        // worker process must be gone, not reparented to init
        let t = ProcTransport::spawn(3, &spec()).unwrap();
        let pids = t.worker_pids();
        assert_eq!(pids.len(), 3);
        drop(t);
        for pid in pids {
            wait_gone(pid, "after drop");
        }
    }

    #[test]
    fn workers_exit_on_driver_eof_without_shutdown() {
        // satellite: simulate an abrupt driver death (no Shutdown frame,
        // sockets just close) — workers must see EOF and exit on their
        // own instead of lingering as orphans. `kill(pid, 0)` can't tell a
        // zombie from a live process, so reap via try_wait and require a
        // *clean* exit (an orphan would have to be SIGKILLed).
        let mut t = ProcTransport::spawn(2, &spec()).unwrap();
        for link in t.links.iter_mut().flatten() {
            let _ = link.stream.shutdown(std::net::Shutdown::Both);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        for child in &mut t.children {
            let status = loop {
                match child.try_wait().unwrap() {
                    Some(status) => break status,
                    None => {
                        assert!(
                            Instant::now() < deadline,
                            "worker did not exit on driver EOF"
                        );
                        std::thread::sleep(Duration::from_millis(10));
                    }
                }
            };
            assert!(status.success(), "worker must exit cleanly on EOF");
        }
    }
}
