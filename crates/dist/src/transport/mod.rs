//! The communication substrate behind the distributed runtime.
//!
//! [`Transport`] abstracts how the driver process talks to `p` rank
//! endpoints: point-to-point `send`/`recv` of framed messages, plus the
//! recovery hooks (`respawn`, `retire`, `peers`, `set_deadline`) a backend
//! whose ranks can die implements. Two backends implement it:
//!
//! * [`InProcTransport`] — the single-address-space simulation: ranks are
//!   in-memory kernel servers, requests execute synchronously, nothing
//!   crosses a process boundary (also the test fake, and the only
//!   transport [`Cluster`](crate::Cluster) keeps no journal for);
//! * [`ProcTransport`] — the multi-process shared-nothing backend: `p`
//!   real OS worker processes connected over Unix-domain sockets, with
//!   hand-rolled little-endian framing for `f64` tensor payloads (exact
//!   bit round-trip).
//!
//! The topology is a star rooted at the driver — the shape the
//! coordinator-driven [`Executor`](crate::Executor) actually uses. Every
//! request a sweep sends goes through [`Cluster`](crate::Cluster), which
//! meters it and journals it for recovery; nothing talks to a transport
//! past it. A future MPI backend is "swap this trait's implementation":
//! the executor-side routing does not change.
//!
//! What travels over it is the rank-side task protocol (`worker`): 11
//! requests. A dense operand is an `Op` — `f64` data inline or a `Key`
//! into the rank's store. The request numbers 3, 5, 6, 8, 9, 11, 13, 15,
//! 16 and 17, reply numbers 3 and 5, inline-operand tag 2, sparse-sparse
//! operand tag 1, contraction output tag 0 (the result in the reply) and
//! SVD operand tag 0 (a resident matrix) are retired and decode to a typed
//! `Decode` fault.
//!
//! | # | request | effect | reply |
//! |---|---|---|---|
//! | 0 | `Ping` | liveness probe (`Cluster::probe`) | `Pong` |
//! | 1 | `Free` | drop the entry under a key | `Unit` |
//! | 2 | `Upload` | store a dense buffer under a key | `Unit` |
//! | 4 | `UploadCoords` | store a sparse coordinate bucket | `Unit` |
//! | 7 | `CacheStats` | store footprint and hit/miss counters | `Stats` |
//! | 10 | `Contract` | a dense chain step, the only dense task: a whole contraction stored under `key`, or with `acc` added into what is stored there | `Unit` |
//! | 12 | `SsChunk` | a sparse-sparse chain step under a mask given as row and column classes, `B` inline or a stored result; its slots stored under `key` | `Merged` |
//! | 14 | `SvdTrunc` | truncated SVD of an `f64` matrix sent inline | `Svd` |
//! | 18 | `Download` | remove a stored result and return it | `Buf` or `Entries` |
//! | 19 | `Shutdown` | end the worker loop | — |
//! | 20 | `SdContract` | a sparse-dense chain step, `B` as it lies; its output-order result stored under `key` | `Unit` |

mod inproc;
#[cfg(unix)]
mod process;
pub(crate) mod wire;
pub(crate) mod worker;

pub use inproc::InProcTransport;
#[cfg(test)]
pub(crate) use inproc::RecordingTransport;
#[cfg(unix)]
pub(crate) use process::{wait_fd, LIVENESS_CAP};
#[cfg(unix)]
pub use process::{FaultPlan, ProcOptions, ProcTransport};
pub use worker::maybe_serve;
#[cfg(unix)]
pub use worker::{serve_from_env, worker_loop};

use crate::{Error, Result};

/// How the multi-process backend launches its worker processes.
#[derive(Clone, Debug)]
pub enum SpawnSpec {
    /// Run the `tt-dist-worker` binary that ships with this crate (looked
    /// up next to the current executable or one directory up, overridable
    /// via `TT_DIST_WORKER_EXE`).
    WorkerBinary,
    /// Re-execute the current executable with these extra arguments; the
    /// host must call [`maybe_serve`] before doing anything else (test
    /// binaries expose a `#[test] fn spawned_worker_entry()` that calls it
    /// and pass `["spawned_worker_entry"]` as the libtest filter).
    SelfExec(Vec<String>),
}

/// A driver-side communicator over `p` rank endpoints.
///
/// `send`/`recv` move encoded worker-protocol messages
/// (`crate::transport::worker`) to and from one rank under a caller-chosen
/// tag; tags let multiple requests be in flight per rank (replies carry
/// the request's tag).
pub trait Transport: Send {
    /// Number of rank endpoints.
    fn ranks(&self) -> usize;

    /// A fresh, never-reused message tag.
    fn next_tag(&mut self) -> u64;

    /// Queue `msg` for rank `to` under `tag`.
    fn send(&mut self, to: usize, tag: u64, msg: &[u8]) -> Result<()>;

    /// Blocking-receive the reply from rank `from` under `tag`.
    fn recv(&mut self, from: usize, tag: u64) -> Result<Vec<u8>>;

    /// Whether dead ranks can be brought back ([`Transport::respawn`] /
    /// [`Transport::retire`]). When true, the driver-side [`Cluster`]
    /// journals state-mutating requests so a respawned rank's resident
    /// store can be reconstructed; when false (the in-process backend,
    /// whose ranks cannot die) no journal is kept.
    ///
    /// [`Cluster`]: crate::Cluster
    fn supports_recovery(&self) -> bool {
        false
    }

    /// Replace the endpoint serving `rank` with a fresh one (respawn the
    /// worker process), discarding whatever state it held. The caller is
    /// responsible for reconstructing resident state afterwards.
    fn respawn(&mut self, rank: usize) -> Result<()> {
        Err(Error::fault(
            crate::FaultKind::Spawn,
            rank,
            "this transport cannot respawn ranks",
        ))
    }

    /// Permanently retire a failed rank, re-routing its logical id onto a
    /// surviving endpoint (degraded operation: placement, keys and cost
    /// charges all stay in logical rank space). Returns the physical
    /// endpoint index now serving the rank.
    fn retire(&mut self, rank: usize) -> Result<usize> {
        Err(Error::fault(
            crate::FaultKind::Spawn,
            rank,
            "this transport cannot retire ranks",
        ))
    }

    /// The logical ranks served by the same physical endpoint as `rank`
    /// (including `rank` itself). When a worker dies, *all* of its
    /// logical ranks lose their resident state and must be reconstructed;
    /// degradation ([`Transport::retire`]) is what makes this set grow
    /// beyond the singleton.
    fn peers(&self, rank: usize) -> Vec<usize> {
        vec![rank]
    }

    /// Bound every blocking receive (and stalled send) by `deadline`, so a
    /// dead or wedged rank surfaces as a typed [`FaultKind::Timeout`] /
    /// [`FaultKind::WorkerDied`] fault instead of a hang. No-op on
    /// transports whose operations cannot block.
    ///
    /// [`FaultKind::Timeout`]: crate::FaultKind::Timeout
    /// [`FaultKind::WorkerDied`]: crate::FaultKind::WorkerDied
    fn set_deadline(&mut self, _deadline: std::time::Duration) {}
}
