//! The communication substrate behind the distributed runtime.
//!
//! [`Transport`] abstracts how the driver process talks to `p` rank
//! endpoints: point-to-point `send`/`recv` of framed messages plus the
//! collectives the paper's algorithms lean on (`allreduce`, `allgather`,
//! `scatter`, `barrier`). Two backends implement it:
//!
//! * [`InProcTransport`] — the existing single-address-space simulation:
//!   ranks are in-memory kernel servers, requests execute synchronously,
//!   nothing crosses a process boundary;
//! * [`ProcTransport`] — the multi-process shared-nothing backend: `p`
//!   real OS worker processes connected over Unix-domain sockets, with
//!   hand-rolled little-endian framing for `f64`/`Complex64` tensor
//!   payloads (exact bit round-trip).
//!
//! The topology is a star rooted at the driver — the shape the
//! coordinator-driven [`Executor`](crate::Executor) actually uses. All
//! collectives are deterministic: `allreduce` sums contributions in rank
//! order, so its result is reproducible and identical across backends.
//! A future MPI backend is "swap this trait's implementation": the
//! executor-side routing does not change.
//!
//! What travels over it is the rank-side task protocol (`worker`): 19
//! requests. A dense operand is an `Op` — `Inline(Buf)` or a `Key` into
//! the rank's store — and the element type is a tag on the data
//! (`Buf::F64` / `Buf::C64`), never part of the opcode; operands whose
//! tags disagree fail typed.
//!
//! | request | effect | reply |
//! |---|---|---|
//! | `Ping` | liveness / barrier probe | `Pong` |
//! | `Upload` | pin a dense `Buf` under a key (refcount +1) | `Unit` |
//! | `UploadCoords`, `UploadSs` | pin a sparse bucket / grouped table | `Unit` |
//! | `Release` | unpin; at refcount zero the entry is LRU-evictable | `Unit` |
//! | `Free` | drop the entry outright | `Unit` |
//! | `Download` | remove a dense entry and return it | `Buf` |
//! | `CacheStats`, `SetCacheCap` | store counters; LRU byte cap | `Stats`, `Unit` |
//! | `DenseChunk` | one row slab of a dense contraction | `Buf` |
//! | `Contract` | a whole dense contraction, `out` = `Reply` or `Store {key, acc}` | `Buf` or `Unit` |
//! | `SdChunk`, `SsChunk` | one sparse-dense / sparse-sparse bucket | `Buf`, `Entries` |
//! | `ChainSd` | a whole sparse-dense chain step, result stored | `Unit` |
//! | `QrThin`, `SvdTrunc` | factor an `f64` matrix | `Factors`, `Svd` |
//! | `SummaInit`, `SummaPanel` | resident SUMMA slab | `Unit` |
//! | `Shutdown` | end the worker loop | — |

mod inproc;
#[cfg(unix)]
mod process;
pub(crate) mod wire;
pub(crate) mod worker;

pub use inproc::InProcTransport;
#[cfg(unix)]
pub(crate) use process::{wait_fd, LIVENESS_CAP};
#[cfg(unix)]
pub use process::{FaultPlan, ProcOptions, ProcTransport};
pub use worker::maybe_serve;
#[cfg(unix)]
pub use worker::{serve_from_env, worker_loop};

use crate::{Error, Result};
use worker::{Buf, Reply, Request};

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
/// the request's tag). The provided collectives operate on each rank's
/// keyed buffer store and are implemented *once*, purely in terms of
/// `send`/`recv`, so every backend shares their semantics by construction.
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

    /// Rendezvous with every rank: each must answer a ping before any
    /// result is returned.
    fn barrier(&mut self) -> Result<()> {
        let tags = send_all_same(self, &Request::Ping)?;
        for (rank, tag) in tags.into_iter().enumerate() {
            match recv_reply(self, rank, tag)? {
                Reply::Pong => {}
                other => {
                    return Err(Error::transport(format!(
                        "barrier: rank {rank} answered {other:?}"
                    )))
                }
            }
        }
        Ok(())
    }

    /// Scatter: store `parts[r]` under `key` on rank `r` (pinned, like
    /// every store). `parts` must have exactly one entry per rank.
    fn scatter(&mut self, key: u64, parts: &[Vec<f64>]) -> Result<()> {
        if parts.len() != self.ranks() {
            return Err(Error::transport(format!(
                "scatter wants {} parts, got {}",
                self.ranks(),
                parts.len()
            )));
        }
        let mut tags = Vec::with_capacity(parts.len());
        for (rank, part) in parts.iter().enumerate() {
            let tag = self.next_tag();
            self.send(
                rank,
                tag,
                &Request::Upload {
                    key,
                    data: Buf::F64(part.clone()),
                }
                .encode(),
            )?;
            tags.push(tag);
        }
        for (rank, tag) in tags.into_iter().enumerate() {
            match recv_reply(self, rank, tag)? {
                Reply::Unit => {}
                other => {
                    return Err(Error::transport(format!(
                        "rank {rank}: expected ack, got {other:?}"
                    )))
                }
            }
        }
        Ok(())
    }

    /// Allgather: concatenate every rank's buffer under `key` in rank
    /// order, redistribute the concatenation to all ranks under the same
    /// key, and return it.
    fn allgather(&mut self, key: u64) -> Result<Vec<f64>> {
        let parts = gather_parts(self, key)?;
        let gathered: Vec<f64> = parts.into_iter().flatten().collect();
        let copies = vec![gathered.clone(); self.ranks()];
        self.scatter(key, &copies)?;
        Ok(gathered)
    }

    /// Allreduce: elementwise sum of every rank's buffer under `key`,
    /// accumulated **in rank order** (deterministic), stored back on all
    /// ranks under the same key, and returned.
    fn allreduce(&mut self, key: u64) -> Result<Vec<f64>> {
        let parts = gather_parts(self, key)?;
        let mut sum = parts[0].clone();
        for (rank, part) in parts.iter().enumerate().skip(1) {
            if part.len() != sum.len() {
                return Err(Error::transport(format!(
                    "allreduce: rank {rank} holds {} words, rank 0 holds {}",
                    part.len(),
                    sum.len()
                )));
            }
            for (s, x) in sum.iter_mut().zip(part) {
                *s += x;
            }
        }
        let copies = vec![sum.clone(); self.ranks()];
        self.scatter(key, &copies)?;
        Ok(sum)
    }
}

// -- helpers shared by the provided collectives --------------------------

/// Send the same request to every rank; returns the per-rank tags.
fn send_all_same(t: &mut (impl Transport + ?Sized), req: &Request) -> Result<Vec<u64>> {
    let bytes = req.encode();
    let mut tags = Vec::with_capacity(t.ranks());
    for rank in 0..t.ranks() {
        let tag = t.next_tag();
        t.send(rank, tag, &bytes)?;
        tags.push(tag);
    }
    Ok(tags)
}

/// Receive and decode one reply, surfacing worker-side failures.
fn recv_reply(t: &mut (impl Transport + ?Sized), rank: usize, tag: u64) -> Result<Reply> {
    match Reply::decode(&t.recv(rank, tag)?)? {
        Reply::Fail(msg) => Err(Error::transport(format!("rank {rank}: {msg}"))),
        reply => Ok(reply),
    }
}

/// Take every rank's buffer under `key` out of its store, in rank order
/// (the collectives scatter the combined result back under the same key).
fn gather_parts(t: &mut (impl Transport + ?Sized), key: u64) -> Result<Vec<Vec<f64>>> {
    let tags = send_all_same(t, &Request::Download { key })?;
    let mut parts = Vec::with_capacity(tags.len());
    for (rank, tag) in tags.into_iter().enumerate() {
        match recv_reply(t, rank, tag)? {
            Reply::Buf(Buf::F64(v)) => parts.push(v),
            other => {
                return Err(Error::transport(format!(
                    "rank {rank}: expected buffer, got {other:?}"
                )))
            }
        }
    }
    Ok(parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed_ranks(t: &mut dyn Transport, key: u64, per_rank: usize) {
        let parts: Vec<Vec<f64>> = (0..t.ranks())
            .map(|r| {
                (0..per_rank)
                    .map(|i| (r * per_rank + i) as f64 + 0.25)
                    .collect()
            })
            .collect();
        t.scatter(key, &parts).unwrap();
    }

    fn exercise_collectives(t: &mut dyn Transport) {
        let p = t.ranks();
        t.barrier().unwrap();

        seed_ranks(t, 10, 3);
        let gathered = t.allgather(10).unwrap();
        assert_eq!(gathered.len(), 3 * p);
        for (i, v) in gathered.iter().enumerate() {
            assert_eq!(*v, i as f64 + 0.25);
        }

        seed_ranks(t, 11, 4);
        let sum = t.allreduce(11).unwrap();
        for (i, v) in sum.iter().enumerate() {
            let expect: f64 = (0..p).map(|r| (r * 4 + i) as f64 + 0.25).sum();
            assert_eq!(v.to_bits(), expect.to_bits(), "rank-order sum is exact");
        }
        // every rank now holds the reduction
        let again = gather_parts(t, 11).unwrap();
        for part in again {
            assert_eq!(part, sum);
        }
    }

    #[test]
    fn in_process_collectives() {
        let mut t = InProcTransport::new(4);
        exercise_collectives(&mut t);
    }

    #[cfg(unix)]
    #[test]
    fn multi_process_collectives_match_in_process() {
        let spec = SpawnSpec::SelfExec(vec!["spawned_worker_entry".into()]);
        let mut mp = ProcTransport::spawn(3, &spec).unwrap();
        exercise_collectives(&mut mp);
        // identical reduction bits across backends
        let mut ip = InProcTransport::new(3);
        seed_ranks(&mut ip, 11, 4);
        let ip_sum = ip.allreduce(11).unwrap();
        seed_ranks(&mut mp, 21, 4);
        let mp_sum = mp.allreduce(21).unwrap();
        assert_eq!(
            ip_sum.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            mp_sum.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn scatter_arity_is_checked() {
        let mut t = InProcTransport::new(2);
        assert!(t.scatter(1, &[vec![1.0]]).is_err());
    }
}
