//! The serve loop of a worker process: framed requests in, framed replies
//! out.

#[cfg(unix)]
use super::super::wire::{read_frame, write_frame, Enc};
#[cfg(unix)]
use super::{Reply, Request, WorkerState};
#[cfg(unix)]
use crate::{Error, Result};

/// Environment variable carrying the hub socket path to spawned workers.
pub const ENV_SOCKET: &str = "TT_DIST_WORKER_SOCKET";
/// Environment variable carrying the worker's rank id.
pub const ENV_RANK: &str = "TT_DIST_WORKER_RANK";

/// Drive a `WorkerState` from framed requests on `stream` until a
/// `Request::Shutdown` arrives or the peer disconnects. Task panics are
/// caught and surfaced as `Reply::Fail`; the worker stays alive.
#[cfg(unix)]
pub fn worker_loop(mut stream: std::os::unix::net::UnixStream) -> Result<()> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let mut state = WorkerState::new();
    loop {
        let (tag, payload) = match read_frame(&mut stream) {
            Ok(f) => f,
            // driver gone: a clean shutdown from the worker's perspective
            Err(_) => return Ok(()),
        };
        // Every reply frame is prefixed with the flop/memory counter
        // deltas this task added in *this* process; the driver-side
        // transport replays them into its own global counters, so
        // `tt_tensor::counter` totals match the in-process backends
        // exactly (kernels charge in whichever process runs them).
        let flops0 = tt_tensor::counter::flops();
        let mem0 = tt_tensor::counter::mem_traffic();
        let reply = match Request::decode(&payload) {
            Ok(req) => match catch_unwind(AssertUnwindSafe(|| state.handle(req))) {
                Ok(Some(r)) => r,
                Ok(None) => return Ok(()), // Shutdown
                Err(_) => Reply::Fail("worker task panicked".into()),
            },
            Err(e) => Reply::Fail(e.to_string()),
        };
        let mut framed = Enc::new();
        framed.put_u64(tt_tensor::counter::flops().wrapping_sub(flops0));
        framed.put_u64(tt_tensor::counter::mem_traffic().wrapping_sub(mem0));
        let mut payload = framed.finish();
        payload.extend_from_slice(&reply.encode());
        write_frame(&mut stream, tag, &payload)?;
    }
}

/// Connect to the hub socket named by the environment and serve tasks
/// until shutdown. Returns an error if the worker environment variables
/// are missing or the connection fails.
#[cfg(unix)]
pub fn serve_from_env() -> Result<()> {
    let path =
        std::env::var(ENV_SOCKET).map_err(|_| Error::transport(format!("{ENV_SOCKET} not set")))?;
    let rank: u64 = std::env::var(ENV_RANK)
        .ok()
        .and_then(|r| r.parse().ok())
        .ok_or_else(|| Error::transport(format!("{ENV_RANK} not set")))?;
    let mut stream = std::os::unix::net::UnixStream::connect(&path)
        .map_err(|e| Error::transport(format!("connect {path}: {e}")))?;
    // hello frame: tag 0, payload = rank
    let mut e = Enc::new();
    e.put_u64(rank);
    write_frame(&mut stream, 0, &e.finish())?;
    worker_loop(stream)
}

/// Worker entry hook for host binaries that spawn the multi-process
/// backend by re-executing themselves ([`crate::SpawnSpec::SelfExec`]):
/// call this before doing anything else in `main` (or from a `#[test]`
/// named `spawned_worker_entry` in test binaries). When the worker
/// environment variables are absent this is a no-op; when present, the
/// process serves tasks and **exits** instead of returning.
pub fn maybe_serve() {
    if std::env::var(ENV_SOCKET).is_err() {
        return;
    }
    #[cfg(unix)]
    match serve_from_env() {
        Ok(()) => std::process::exit(0),
        Err(e) => {
            eprintln!("tt-dist worker failed: {e}");
            std::process::exit(1);
        }
    }
    #[cfg(not(unix))]
    {
        eprintln!("tt-dist worker requested on a non-unix platform");
        std::process::exit(1);
    }
}
