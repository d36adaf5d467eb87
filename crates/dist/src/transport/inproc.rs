//! The in-process transport backend: `p` simulated ranks in one address
//! space.
//!
//! Each rank is a [`WorkerState`](super::worker::WorkerState) owned
//! directly by the transport; [`Transport::send`] executes the request
//! synchronously and queues the reply, so there is no concurrency and no
//! data actually crosses an address-space boundary. Messages still
//! round-trip through the little-endian wire codec — the exact same bytes
//! the multi-process backend puts on its sockets — which keeps one codec
//! path exercised everywhere (and is exact for `f64` bit patterns).

use super::worker::{Request, WorkerState};
use super::Transport;
use crate::{Error, Result};
use std::collections::{HashMap, VecDeque};

/// In-process implementation of [`Transport`].
pub struct InProcTransport {
    workers: Vec<WorkerState>,
    outbox: Vec<HashMap<u64, VecDeque<Vec<u8>>>>,
    next_tag: u64,
}

impl InProcTransport {
    /// Transport over `ranks` in-process simulated ranks.
    pub fn new(ranks: usize) -> Self {
        let ranks = ranks.max(1);
        Self {
            workers: (0..ranks).map(|_| WorkerState::new()).collect(),
            outbox: vec![HashMap::new(); ranks],
            next_tag: 1,
        }
    }
}

impl Transport for InProcTransport {
    fn ranks(&self) -> usize {
        self.workers.len()
    }

    fn next_tag(&mut self) -> u64 {
        let t = self.next_tag;
        self.next_tag += 1;
        t
    }

    fn send(&mut self, to: usize, tag: u64, msg: &[u8]) -> Result<()> {
        if to >= self.workers.len() {
            return Err(Error::transport(format!("no rank {to}")));
        }
        let req = Request::decode(msg)?;
        if let Some(reply) = self.workers[to].handle(req) {
            self.outbox[to]
                .entry(tag)
                .or_default()
                .push_back(reply.encode());
        }
        Ok(())
    }

    fn recv(&mut self, from: usize, tag: u64) -> Result<Vec<u8>> {
        if from >= self.workers.len() {
            return Err(Error::transport(format!("no rank {from}")));
        }
        self.outbox[from]
            .get_mut(&tag)
            .and_then(|q| q.pop_front())
            .ok_or_else(|| Error::transport(format!("no reply from rank {from} under tag {tag}")))
    }
}

/// [`InProcTransport`] with a protocol trace: every `send` is decoded and
/// logged as `r<rank> <opcode> reads[<resident keys>] writes[<store key>]
/// <operand payload bytes>B`. The `kill:R@N` fault plans count sends per
/// rank, so which frames go where, in which order, is part of the
/// executor's contract — `exec::tests::protocol_trace_matches_golden` pins
/// it.
#[cfg(test)]
pub(crate) struct RecordingTransport {
    inner: InProcTransport,
    log: std::sync::Arc<std::sync::Mutex<Vec<String>>>,
}

#[cfg(test)]
impl RecordingTransport {
    /// A recording transport over `ranks` ranks, and its log.
    pub(crate) fn new(ranks: usize) -> (Self, std::sync::Arc<std::sync::Mutex<Vec<String>>>) {
        let log = std::sync::Arc::default();
        let inner = InProcTransport::new(ranks);
        (
            Self {
                inner,
                log: std::sync::Arc::clone(&log),
            },
            log,
        )
    }

    fn line(rank: usize, req: &Request) -> String {
        let (mut reads, mut writes): (Vec<u64>, Vec<u64>) = (Vec::new(), Vec::new());
        match req {
            Request::Upload { key, .. } | Request::UploadCoords { key, .. } => writes.push(*key),
            Request::Free { key } | Request::Download { key } => reads.push(*key),
            Request::Contract { a, b, key, .. } => {
                reads.extend(a.key().into_iter().chain(b.key()));
                writes.push(*key);
            }
            Request::SdContract { a, b, key, .. } => {
                reads.extend(a.key().into_iter().chain(b.key()));
                writes.push(*key);
            }
            Request::SsChunk { a, b, key, .. } => {
                reads.extend(a.key().into_iter().chain(b.key()));
                writes.push(*key);
            }
            Request::SvdTrunc { .. } | Request::Ping | Request::CacheStats | Request::Shutdown => {}
        }
        let name = format!("{req:?}");
        let name = name.split(|c: char| !c.is_alphanumeric()).next();
        format!(
            "r{rank} {} reads{reads:x?} writes{writes:x?} {}B",
            name.unwrap_or_default(),
            req.payload_bytes()
        )
    }
}

#[cfg(test)]
impl Transport for RecordingTransport {
    fn ranks(&self) -> usize {
        self.inner.ranks()
    }

    fn next_tag(&mut self) -> u64 {
        self.inner.next_tag()
    }

    fn send(&mut self, to: usize, tag: u64, msg: &[u8]) -> Result<()> {
        let line = Self::line(to, &Request::decode(msg)?);
        self.log.lock().expect("log lock").push(line);
        self.inner.send(to, tag, msg)
    }

    fn recv(&mut self, from: usize, tag: u64) -> Result<Vec<u8>> {
        self.inner.recv(from, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::super::worker::Reply;
    use super::*;

    #[test]
    fn send_recv_roundtrip() {
        let mut t = InProcTransport::new(3);
        assert_eq!(t.ranks(), 3);
        for r in 0..3 {
            let tag = t.next_tag();
            t.send(
                r,
                tag,
                &Request::Upload {
                    key: 1,
                    data: vec![r as f64],
                }
                .encode(),
            )
            .unwrap();
            assert_eq!(
                Reply::decode(&t.recv(r, tag).unwrap()).unwrap(),
                Reply::Unit
            );
            let tag = t.next_tag();
            t.send(r, tag, &Request::Download { key: 1 }.encode())
                .unwrap();
            assert_eq!(
                Reply::decode(&t.recv(r, tag).unwrap()).unwrap(),
                Reply::Buf(vec![r as f64])
            );
        }
        assert!(t.recv(0, 999).is_err(), "unknown tag must error");
        assert!(t.send(7, 1, &Request::Ping.encode()).is_err());
    }
}
