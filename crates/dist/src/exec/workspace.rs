//! The memory the large temporaries of the sparse-dense path live in.
//!
//! A sparse-dense matvec at m = 64 allocates ~10 MB of dense buffers that
//! each live for one contraction step. From the allocator every one of them
//! is fresh pages — mapped, zero-faulted on first touch and unmapped a step
//! later — which cost more than the arithmetic done in them. A [`Workspace`]
//! keeps such buffers between uses instead: one per [`Executor`] for the
//! in-process legs, one per worker state for `SdContract` temporaries and
//! what `Free` releases. It is not an allocator: it serves only requests of
//! at least [`WORKSPACE_MIN_BYTES`] made by `kernels::sd_apply` and for
//! the fresh outputs of dense contractions, and between calls it keeps
//! only buffers the last call used (see [`Workspace::settle`]).
//!
//! [`Executor`]: super::Executor

use crate::kernels::WORKSPACE_MIN_BYTES;
use parking_lot::Mutex;

/// Counters of an executor's workspace ([`Executor::workspace_stats`]).
///
/// [`Executor::workspace_stats`]: super::Executor::workspace_stats
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Bytes (by capacity) of the buffers held for reuse right now.
    pub held_bytes: u64,
    /// Requests served so far; requests below the size floor are plain
    /// allocations and not counted.
    pub takes: u64,
    /// Of `takes`, those served by a held buffer. `takes − reuses` is the
    /// number of fresh allocations.
    pub reuses: u64,
}

/// A held buffer, and whether the call in progress (or the last one) has
/// had it out.
struct Held {
    buf: Vec<f64>,
    used: bool,
}

#[derive(Default)]
struct Shelf {
    held: Vec<Held>,
    held_bytes: usize,
    /// A call is in progress: buffers coming back are on their way to its
    /// next request.
    in_call: bool,
    /// Bytes of the distinct buffers the call has had out: what it would
    /// have had allocated at once without a workspace, minus what it
    /// replaced by something larger.
    call_bytes: usize,
    takes: u64,
    reuses: u64,
}

fn bytes_of(buf: &Vec<f64>) -> usize {
    buf.capacity() * std::mem::size_of::<f64>()
}

impl Shelf {
    fn begin(&mut self) {
        self.in_call = true;
        self.call_bytes = 0;
        for h in &mut self.held {
            h.used = false;
        }
    }

    fn remove(&mut self, at: usize) -> Held {
        let h = self.held.remove(at);
        self.held_bytes -= bytes_of(&h.buf);
        h
    }

    /// `(index, capacity)` of every held buffer.
    fn capacities(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.held.iter().map(|h| h.buf.capacity()).enumerate()
    }

    /// The held buffer that fits `len` elements (at least the size floor)
    /// most tightly without being more than twice as large (a small tensor
    /// must not leave in a large buffer).
    fn fit(&mut self, len: usize) -> Option<Vec<f64>> {
        // any request, served by a held buffer or not, is a sign of a call
        if !self.in_call {
            self.begin();
        }
        self.takes += 1;
        let tightest = self
            .capacities()
            .filter(|&(_, cap)| (len..=2 * len).contains(&cap))
            .min_by_key(|&(_, cap)| cap);
        if let Some((at, _)) = tightest {
            self.reuses += 1;
            let h = self.remove(at);
            if !h.used {
                self.call_bytes += bytes_of(&h.buf);
            }
            return Some(h.buf);
        }
        // the shapes have grown: the largest buffer they outgrew makes way,
        // so that a run of ascending requests settles on few large buffers
        // instead of keeping one of every size
        let outgrown = self
            .capacities()
            .filter(|&(_, cap)| cap < len)
            .max_by_key(|&(_, cap)| cap);
        if let Some((at, _)) = outgrown {
            let h = self.remove(at);
            if h.used {
                self.call_bytes -= bytes_of(&h.buf);
            }
        }
        self.call_bytes += len * std::mem::size_of::<f64>();
        None
    }
}

/// Retired buffers kept for the next request of their size. Internally
/// synchronized: a lock is held per request, never across a kernel.
#[derive(Default)]
pub(crate) struct Workspace(Mutex<Shelf>);

impl Workspace {
    /// Run `f` as one call: it starts whether or not `f` will request
    /// anything, and is over ([`Workspace::settle`]) when `f` returns.
    /// Callers that cannot tell where their calls start (a worker, whose
    /// matvec is a run of requests) settle alone: the first request after
    /// that starts the next call.
    pub(crate) fn call<R>(&self, f: impl FnOnce() -> R) -> R {
        self.0.lock().begin();
        let out = f();
        self.settle();
        out
    }

    /// `len` elements of unspecified value, for a caller that overwrites
    /// every one of them: a held buffer when one fits (in test builds it
    /// comes back NaN-filled, so an element the caller fails to write
    /// shows), else a fresh allocation.
    pub(crate) fn take_unzeroed(&self, len: usize) -> Vec<f64> {
        self.take_or_zeros(len).0
    }

    /// [`Workspace::take_unzeroed`], and whether the buffer is a fresh
    /// allocation of `+0.0`s rather than a held one: a caller that has
    /// zeros to write can then skip them. A request below the size floor
    /// is a plain allocation and no part of any call: a list chain takes
    /// thousands of small outputs, and none of them takes the lock.
    pub(crate) fn take_or_zeros(&self, len: usize) -> (Vec<f64>, bool) {
        if len * std::mem::size_of::<f64>() < WORKSPACE_MIN_BYTES {
            return (vec![0.0; len], true);
        }
        match self.0.lock().fit(len) {
            Some(mut buf) => {
                buf.resize(len, 0.0);
                (buf, false)
            }
            None => (vec![0.0; len], true),
        }
    }

    /// Take `buf` back. During a call it is kept for the call's next
    /// request. After one it is kept only while the workspace then holds no
    /// more than the call had out — a buffer the call never saw (a
    /// densified operand, say) does not pile up behind those it did. A
    /// buffer below the size floor is dropped: no request it could serve
    /// comes here.
    pub(crate) fn give(&self, #[allow(unused_mut)] mut buf: Vec<f64>) {
        let bytes = bytes_of(&buf);
        if bytes < WORKSPACE_MIN_BYTES {
            return;
        }
        // an element its next taker fails to write must not pass a test
        #[cfg(test)]
        buf.fill(f64::NAN);
        let mut shelf = self.0.lock();
        if shelf.in_call || shelf.held_bytes + bytes <= shelf.call_bytes {
            shelf.held_bytes += bytes;
            shelf.held.push(Held { buf, used: true });
        }
    }

    /// A call is over: drop every held buffer it did not use. This is the
    /// retention bound — between two calls the workspace holds at most what
    /// the first one would have had allocated while it ran, whatever ran
    /// before it, and a call that requested nothing leaves nothing behind.
    pub(crate) fn settle(&self) {
        let mut shelf = self.0.lock();
        shelf.in_call = false;
        shelf.held.retain(|h| h.used);
        shelf.held_bytes = shelf.held.iter().map(|h| bytes_of(&h.buf)).sum();
    }

    /// Bytes of the distinct buffers the call in progress (or the last
    /// one) has had out.
    #[cfg(test)]
    pub(crate) fn call_bytes(&self) -> u64 {
        self.0.lock().call_bytes as u64
    }

    pub(crate) fn stats(&self) -> WorkspaceStats {
        let shelf = self.0.lock();
        WorkspaceStats {
            held_bytes: shelf.held_bytes as u64,
            takes: shelf.takes,
            reuses: shelf.reuses,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LARGE: usize = WORKSPACE_MIN_BYTES / 8;

    fn held(ws: &Workspace) -> u64 {
        ws.stats().held_bytes / (8 * LARGE as u64)
    }

    #[test]
    fn small_requests_pass_through() {
        let ws = Workspace::default();
        let (buf, zeroed) = ws.take_or_zeros(LARGE - 1);
        assert!(zeroed && buf.len() == LARGE - 1 && buf.iter().all(|&v| v == 0.0));
        ws.give(buf);
        ws.settle();
        assert_eq!(ws.stats(), WorkspaceStats::default());
    }

    #[test]
    fn a_reused_buffer_is_the_tightest_fit_and_comes_back_poisoned() {
        let ws = Workspace::default();
        let (a, b) = (ws.take_unzeroed(4 * LARGE), ws.take_unzeroed(2 * LARGE));
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        ws.give(a);
        ws.give(b);
        let (c, zeroed) = ws.take_or_zeros(LARGE);
        assert_eq!(c.as_ptr(), pb, "2·LARGE fits, 4·LARGE would be wasted");
        assert!(!zeroed && c.len() == LARGE && c.iter().all(|v| v.is_nan()));
        let d = ws.take_unzeroed(3 * LARGE);
        assert_eq!(d.as_ptr(), pa);
        assert!(d.iter().all(|v| v.is_nan()), "retired buffers are poisoned");
        assert_eq!(
            ws.stats(),
            WorkspaceStats {
                held_bytes: 0,
                takes: 4,
                reuses: 2
            }
        );
    }

    #[test]
    fn ascending_requests_settle_on_two_buffers() {
        // t1 < t2 < t3 = its transposed copy, each dying one step after the
        // next is taken: the H_eff chain
        let ws = Workspace::default();
        let matvec = || {
            ws.call(|| {
                let t1 = ws.take_unzeroed(5 * LARGE);
                let t2 = ws.take_unzeroed(6 * LARGE);
                ws.give(t1);
                let t3 = ws.take_unzeroed(7 * LARGE);
                ws.give(t2);
                let permuted = ws.take_unzeroed(7 * LARGE);
                ws.give(t3);
                ws.give(permuted);
            });
            let stats = ws.stats();
            (held(&ws), stats.takes - stats.reuses)
        };
        assert_eq!(matvec(), (14, 4), "cold: the outgrown buffers made way");
        assert_eq!(matvec(), (14, 4), "warm: no allocation");
    }

    #[test]
    fn settling_keeps_what_the_call_used() {
        let ws = Workspace::default();
        let (a, b) = (ws.take_unzeroed(4 * LARGE), ws.take_unzeroed(4 * LARGE));
        ws.give(a);
        ws.give(b);
        ws.settle();
        assert_eq!(held(&ws), 8);
        // a call of another shape: what it leaves unused goes
        let c = ws.take_unzeroed(LARGE);
        ws.give(c);
        ws.settle();
        assert_eq!(held(&ws), 1);
        // after the call, its own buffers may come back, a stranger's only
        // while there is room under what the call had out
        let d = ws.call(|| {
            let (c, d) = (ws.take_unzeroed(LARGE), ws.take_unzeroed(LARGE));
            ws.give(c);
            d
        });
        ws.give(d);
        assert_eq!(held(&ws), 2);
        ws.give(vec![0.0; LARGE]);
        assert_eq!(held(&ws), 2);
        // a call that requests nothing leaves nothing
        ws.call(|| ());
        assert_eq!(held(&ws), 0);
        ws.give(vec![0.0; LARGE]);
        assert_eq!(held(&ws), 0);
    }
}
