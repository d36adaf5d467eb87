//! The rank-side task protocol.
//!
//! A worker (one rank of the shared-nothing backend) is a small kernel
//! server: it holds a keyed store of resident buffers and executes the
//! same deterministic kernels as the in-process executor — one whole
//! [`crate::kernels::dense_contract`] per `Contract` task,
//! [`crate::kernels::sd_apply`] per `SdContract` and
//! [`crate::kernels::ss_slots`] per `SsChunk` (each a whole chain step),
//! and whole-matrix factorizations. Because both backends run *exactly* this code over
//! *exactly* the same work decomposition, multi-process results are
//! bitwise-identical to the in-process Sequential executor.
//!
//! Every buffer holds `f64` data. A dense or coordinate operand of a
//! compute task is an [`Op`] / [`OpCoords`] — either **inline** bytes (the
//! value-passing path) or a **key** into the rank's resident store (the
//! handle path: the operand was stored by an earlier `Upload*` request and
//! ships zero bytes with the task); a sparse-sparse `B` ([`OpSs`]) is an
//! inline table or the key of an earlier chain step's stored result. The
//! store is a plain keyed map:
//! `Upload*` and storing compute requests insert (or replace), `Free` and
//! `Download` remove, and nothing else ever leaves it — a rank's memory is
//! bounded by the driver's frees, not here (`Executor::free` documents the
//! bound).
//!
//! The same [`WorkerState`] is driven two ways:
//!
//! * in-process: [`super::InProcTransport`] calls [`WorkerState::handle`]
//!   directly (one address space, no sockets);
//! * multi-process: [`worker_loop`] drives it from framed requests on a
//!   Unix-domain socket, inside a separate OS process spawned by
//!   [`super::ProcTransport`].
//!
//! Layout: `protocol` (the message types), `codec` (their wire form),
//! `store` (the keyed buffer store), `dispatch` (one request → one reply)
//! and `serve` (the socket loop of a worker process).

mod codec;
mod dispatch;
mod protocol;
mod serve;
mod store;
#[cfg(test)]
mod tests;

pub(crate) use protocol::{Op, OpCoords, OpSs, Reply, Request, SsTable};
pub use serve::maybe_serve;
#[cfg(unix)]
pub use serve::{serve_from_env, worker_loop};
pub use serve::{ENV_RANK, ENV_SOCKET};
pub(crate) use store::WorkerState;
