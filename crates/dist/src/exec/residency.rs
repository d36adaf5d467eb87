//! Residency, retention and charging: the upload/free lifecycle of operand
//! handles, the cross-job retention cache, the worker-store counters, the
//! α–β charge of a contraction, and [`Superstep`], the builder every
//! cluster leg assembles its frames with.

use super::keys;
use super::{DenseOp, Executor};
use crate::cluster::Cluster;
use crate::cost::{self, CostTracker};
#[cfg(doc)]
use crate::handle::ResultHandle;
use crate::handle::{OpHandle, Payload, Residency};
use crate::transport::worker::{Op, Reply, Request};
use crate::{process_grid, Error, Result};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use tt_tensor::{DenseTensor, SparseTensor};

/// How one operand participates in a contraction's cost charges.
#[derive(Clone, Copy, Debug)]
pub(super) enum OpCharge {
    /// Shipped by value: full TTGT + panel-broadcast β share, as always.
    Value(usize),
    /// First use of a resident buffer: a one-time upload superstep moves
    /// the full operand, and the driver packs it once.
    Miss(usize),
    /// Resident reuse: no β charge, no packing traffic.
    Hit,
}

impl OpCharge {
    /// Words the driver packs/permutes for this contraction.
    fn local_words(&self) -> usize {
        match self {
            OpCharge::Value(w) | OpCharge::Miss(w) => *w,
            OpCharge::Hit => 0,
        }
    }

    /// Words travelling in this contraction's broadcast superstep.
    fn beta_words(&self) -> usize {
        match self {
            OpCharge::Value(w) => *w,
            _ => 0,
        }
    }
}

/// Per-operation task-mapping overhead (seconds) — the CTF-style cost of
/// building the contraction mapping, visible as "%map" in Fig. 7.
pub(super) const MAP_OVERHEAD_S: f64 = 2.0e-7;

/// LRU book of contents the executor keeps resident beyond their
/// uploaders' lifetimes so identical re-uploads (other tenants, later
/// solves) hit the worker stores instead of re-shipping bytes. Holds one
/// registry refcount per entry. Recency is a stamp from `clock`: `order`
/// maps stamp → `(content key, bytes)`, so its first entry is the eviction
/// victim, and `stamp` maps a content key back to its place in `order`.
#[derive(Default)]
pub(super) struct Retention {
    cap_bytes: u64,
    bytes: u64,
    clock: u64,
    order: BTreeMap<u64, (u64, u64)>,
    stamp: HashMap<u64, u64>,
}

impl Retention {
    /// File `key` as the most recently used entry.
    fn file(&mut self, key: u64, bytes: u64) {
        self.clock += 1;
        self.order.insert(self.clock, (key, bytes));
        self.stamp.insert(key, self.clock);
    }

    /// Refresh `key` to most recently used; false if it is not held.
    fn touch(&mut self, key: u64) -> bool {
        let Some(stamp) = self.stamp.remove(&key) else {
            return false;
        };
        let (_, bytes) = self.order.remove(&stamp).expect("stamped entry is ordered");
        self.file(key, bytes);
        true
    }

    /// Hold a new content.
    fn insert(&mut self, key: u64, bytes: u64) {
        self.file(key, bytes);
        self.bytes += bytes;
    }

    /// Pop oldest entries until within budget; returns the keys to release.
    fn evict_over_cap(&mut self) -> Vec<u64> {
        let mut out = Vec::new();
        while self.bytes > self.cap_bytes {
            let Some((_, (key, b))) = self.order.pop_first() else {
                break;
            };
            self.stamp.remove(&key);
            self.bytes -= b;
            out.push(key);
        }
        out
    }
}

/// One rank's resident-store counters, as returned by
/// [`Executor::cache_stats`]: footprint (`bytes`/`entries`) and the
/// lifetime hit/miss counters that make cross-job operand dedup
/// observable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RankCacheStats {
    /// Resident bytes in the store.
    pub bytes: u64,
    /// Resident entries in the store.
    pub entries: u64,
    /// Keyed lookups served from the store since worker start.
    pub hits: u64,
    /// Fresh insertions (content not already resident) since start.
    pub misses: u64,
}

impl Executor {
    // -- resident-operand lifecycle --------------------------------------

    /// Upload a dense tensor, returning a content-keyed handle. Residency
    /// is lazy: buffers derived from the handle are stored on the workers
    /// by the first contraction that needs them. Each upload must be
    /// matched by one [`Executor::free`].
    pub fn upload(&self, t: &DenseTensor<f64>) -> OpHandle {
        self.upload_shared(&Arc::new(t.clone()))
    }

    /// Upload an `Arc`-shared dense `f64` tensor without cloning its
    /// storage — the handle shares the caller's allocation (only the
    /// content hash is computed). This is what lets `tt-blocks`' transient
    /// per-block uploads and chain-step enqueues stop paying a full clone
    /// per block.
    pub fn upload_shared(&self, t: &Arc<DenseTensor<f64>>) -> OpHandle {
        let h = OpHandle::new(Payload::Dense(Arc::clone(t)));
        self.finish_upload(&h);
        h
    }

    /// Upload a flattened sparse `f64` tensor.
    pub fn upload_sparse(&self, t: &SparseTensor<f64>) -> OpHandle {
        let h = OpHandle::new(Payload::Sparse(Arc::new(t.clone())));
        self.finish_upload(&h);
        h
    }

    /// Common upload tail: register the refcount, account the retained
    /// words to the current job scope (if any), and note the content in
    /// the cross-job retention cache.
    fn finish_upload(&self, h: &OpHandle) {
        self.residency.lock().retain(h.key());
        cost::scope_retain(h.key());
        cost::scope_account(h.words() as i64);
        self.note_retention(h);
    }

    /// Release one upload of `h`. When the last upload of the same
    /// content is freed, every worker buffer derived from the handle is
    /// dropped outright: the driver forgets the buffer homes on the last
    /// free, so the copies could never be referenced again.
    ///
    /// This is the memory bound of the multi-process backend: a worker
    /// store is a keyed map that never evicts, so a rank holds exactly
    /// what the driver has stored and not yet freed or downloaded — live
    /// operand handles, live [`ResultHandle`]s, and the retention cache up
    /// to its byte cap ([`Executor::set_retention_cap`]) — plus its
    /// workspace. A workspace (one per worker, one in the driver for the
    /// in-process legs; [`Executor::workspace_stats`]) holds retired
    /// sparse-dense temporaries for the next contraction to take: between
    /// two calls, only buffers the last chain used, so at
    /// most what that call would have had allocated while it ran, and
    /// nothing once a call has needed nothing. In-process a resident
    /// sparse operand also keeps its fused coordinates (24 bytes per stored
    /// entry and contraction shape) until this last free, as a worker does.
    pub fn free(&self, h: &OpHandle) -> Result<()> {
        cost::scope_release(h.key());
        cost::scope_account(-(h.words() as i64));
        self.release_key(h.key())
    }

    /// Drop one refcount of a resident content key, issuing worker-side
    /// frees if it was the last. The cluster lock is taken *before* the
    /// registry release and held across the `Free` requests, so a
    /// concurrent job re-uploading the same content cannot interleave
    /// between the registry drop and the worker-side frees (which would
    /// delete the other job's live buffers).
    fn release_key(&self, key: u64) -> Result<()> {
        match &self.cluster {
            Some(cl) => {
                let mut cl = cl.lock();
                if let Some(left) = self.residency.lock().release(key)? {
                    let reqs: Vec<(usize, Request)> = left
                        .physical
                        .iter()
                        .flat_map(|(wkey, ranks)| {
                            ranks
                                .iter()
                                .map(move |&r| (r, Request::Free { key: *wkey }))
                        })
                        .collect();
                    if !reqs.is_empty() {
                        cl.call_all(reqs)?;
                    }
                }
            }
            None => {
                self.residency.lock().release(key)?;
            }
        }
        Ok(())
    }

    /// Byte budget for the cross-job **retention cache**: an executor-held
    /// LRU of recently-uploaded contents, each pinned with one extra
    /// registry refcount so its worker-side buffers outlive the
    /// uploader's `free`. A later upload of identical content (same
    /// content key — e.g. a second tenant solving the same Hamiltonian)
    /// then finds every derived buffer already resident and ships zero
    /// operand bytes. `0` (the default) disables retention; shrinking the
    /// budget evicts oldest-first through the normal free path (retained
    /// contents count toward the memory bound described at
    /// [`Executor::free`]).
    pub fn set_retention_cap(&self, bytes: u64) -> Result<()> {
        let evict: Vec<u64> = {
            let mut r = self.retention.lock();
            r.cap_bytes = bytes;
            r.evict_over_cap()
        };
        for key in evict {
            self.release_key(key)?;
        }
        Ok(())
    }

    /// Record an uploaded content in the retention cache (refresh on
    /// re-upload), evicting oldest entries beyond the byte budget.
    /// Returns whether the cache holds the content afterwards.
    fn note_retention(&self, h: &OpHandle) -> bool {
        let evict: Vec<u64> = {
            let mut r = self.retention.lock();
            if r.cap_bytes == 0 {
                return false;
            }
            let bytes = 8 * h.words() as u64;
            if !r.touch(h.key()) {
                if bytes > r.cap_bytes {
                    return false;
                }
                self.residency.lock().retain(h.key());
                r.insert(h.key(), bytes);
            }
            r.evict_over_cap()
        };
        for key in evict {
            // Best-effort: eviction failure must not fail the upload.
            let _ = self.release_key(key);
        }
        true
    }

    /// Whether the cross-job retention cache is active (real cluster,
    /// nonzero byte budget) — the gate for value-operand auto-residency.
    fn retention_enabled(&self) -> bool {
        self.cluster.is_some() && self.retention.lock().cap_bytes > 0
    }

    /// Content-key a *value* operand through the retention cache so its
    /// worker-side buffers persist and dedup across calls (and jobs)
    /// exactly like uploaded handles. Purely physical: the caller must
    /// keep charging the logical cost model on the value path. Returns
    /// `None` (ship inline, as without retention) when the cache is off
    /// or the tensor exceeds its budget. The returned handle carries one
    /// registry refcount guarding the contraction in flight; pass it to
    /// [`Executor::finish_auto`] when the requests have been answered.
    pub(super) fn auto_handle(&self, op: &DenseOp, t: &DenseTensor<f64>) -> Option<OpHandle> {
        if op.handle().is_some() || !self.retention_enabled() {
            return None;
        }
        let h = OpHandle::new(Payload::Dense(Arc::new(t.clone())));
        self.residency.lock().retain(h.key());
        if self.note_retention(&h) {
            Some(h)
        } else {
            let _ = self.release_key(h.key());
            None
        }
    }

    /// Drop an auto-residency guard taken by [`Executor::auto_handle`]:
    /// the retention cache keeps its own pin, so the content stays
    /// resident until evicted.
    pub(super) fn finish_auto(&self, h: Option<OpHandle>) {
        if let Some(h) = h {
            let _ = self.release_key(h.key());
        }
    }

    /// Worker resident-store footprint as `(bytes, entries)` per rank
    /// (empty in-process) — [`Executor::cache_stats`] without the
    /// counters, and the cheapest control-only round trip there is.
    pub fn worker_cache_stats(&self) -> Result<Vec<(u64, u64)>> {
        Ok(self
            .cache_stats()?
            .into_iter()
            .map(|s| (s.bytes, s.entries))
            .collect())
    }

    /// Per-rank resident-store counters (empty in-process): the footprint
    /// plus the lifetime hit/miss counts the solve service reports as
    /// fleet-wide residency stats.
    pub fn cache_stats(&self) -> Result<Vec<RankCacheStats>> {
        let Some(cl) = &self.cluster else {
            return Ok(Vec::new());
        };
        let mut cl = cl.lock();
        let reqs = (0..cl.ranks()).map(|r| (r, Request::CacheStats)).collect();
        cl.call_all(reqs)?
            .into_iter()
            .map(|rep| match rep {
                Reply::Stats {
                    bytes,
                    entries,
                    hits,
                    misses,
                } => Ok(RankCacheStats {
                    bytes,
                    entries,
                    hits,
                    misses,
                }),
                other => Err(Error::transport(format!("expected stats, got {other:?}"))),
            })
            .collect()
    }

    /// Charge every contraction of `charges`, in order, under one lock of
    /// the tracker (and one of the job scope's, which walks them again).
    pub(super) fn charge_contractions(&self, charges: impl Iterator<Item = Charge> + Clone) {
        cost::charge(&self.tracker, |tr| {
            for c in charges.clone() {
                self.charge_contraction(tr, &c);
            }
        });
    }

    /// Charge compute + imbalance + transpose + panel-broadcast
    /// communication for one contraction (see [`Charge`]).
    ///
    /// Value-only charges are bit-identical to the historical formula;
    /// resident operands drop their packing traffic and broadcast β share
    /// (cache hit ⇒ no β), with a one-time full-volume upload superstep
    /// on first use. The fused scatter+compute superstep costs one α
    /// regardless.
    fn charge_contraction(&self, tr: &mut CostTracker, c: &Charge) {
        let &Charge {
            a,
            b,
            words_c,
            m,
            n,
            flops,
            sparse,
        } = c;
        let p = self.ranks as f64;
        let n_eff = ((flops.max(2) as f64) / 2.0).cbrt();
        let n_loc = (n_eff / p.sqrt()).max(1.0);
        let rate = if sparse {
            self.machine.sparse_rate(n_loc)
        } else {
            self.machine.dense_rate(n_loc)
        };
        let t_compute = flops as f64 / (rate * p);
        if self.ranks > 1 {
            // one-time resident-operand uploads: one superstep each,
            // moving the operand's full stored volume
            for op in [a, b] {
                if let OpCharge::Miss(w) = op {
                    tr.charge_superstep(8 * w as u64);
                }
            }
        }
        tr.flops += flops;
        if sparse {
            tr.sim.sparse += t_compute;
        } else {
            tr.sim.gemm += t_compute;
        }

        // TTGT packing: locally-handled operands + result through memory
        // twice (resident reuse skips the pack).
        let moved_bytes = 8.0 * 2.0 * (a.local_words() + b.local_words() + words_c) as f64;
        tr.sim.transpose += moved_bytes / (self.machine.rank_mem_bw() * p);
        tr.sim.other += MAP_OVERHEAD_S;

        if self.ranks > 1 {
            // Tile imbalance on the process grid.
            let (pr, pc) = process_grid(self.ranks);
            let lambda = (m.div_ceil(pr) * pr) as f64 / m.max(1) as f64
                * ((n.div_ceil(pc) * pc) as f64 / n.max(1) as f64)
                - 1.0;
            tr.sim.imbalance += t_compute * lambda.max(0.0);

            // broadcast: value operand panels travel √p-reduced, resident
            // operands move nothing, the result is reduced once — all in
            // the one fused scatter+compute superstep.
            let words =
                ((a.beta_words() + b.beta_words()) as f64 / p.sqrt() + words_c as f64 / p) as u64;
            tr.charge_superstep(8 * words);
        }
    }
}

/// Resolve an operand's charge state against the registry `res`: value
/// operands charge in full; for a handle the first observation of its
/// logical key `lkey(h)` in a resident period is a [`OpCharge::Miss`],
/// later ones are hits. With a per-job [`cost::JobScope`] on this thread,
/// the *job's* charge book decides (so a multi-tenant job's miss/hit
/// sequence reads as if it ran alone), while the executor-wide book is
/// still updated for release-time cleanup; without a scope, the
/// executor-wide book decides.
pub(super) fn op_state(
    res: &mut Residency,
    handle: Option<&OpHandle>,
    lkey: impl FnOnce(&OpHandle) -> u64,
    words: usize,
) -> OpCharge {
    let Some(h) = handle else {
        return OpCharge::Value(words);
    };
    let (content, lkey) = (h.key(), lkey(h));
    let shared = res.observe(content, lkey);
    if cost::scope_observe(content, lkey).unwrap_or(shared) {
        OpCharge::Miss(words)
    } else {
        OpCharge::Hit
    }
}

/// One contraction's α–β charge: how its operands participate (value
/// words, one-time resident upload, or cache hit), `words_c` stored
/// result words over an `m × n` fused output grid, `flops` flops, and
/// whether the sparse roofline and time bucket apply.
#[derive(Clone, Copy)]
pub(super) struct Charge {
    pub(super) a: OpCharge,
    pub(super) b: OpCharge,
    pub(super) words_c: usize,
    pub(super) m: usize,
    pub(super) n: usize,
    pub(super) flops: u64,
    pub(super) sparse: bool,
}

/// The first rank already holding `op`'s whole-tensor buffer, if any.
pub(super) fn whole_home(res: &Residency, op: &DenseOp) -> Option<usize> {
    res.homes(keys::whole(op.handle()?))?.first().copied()
}

/// One superstep under construction: requests in submission order, each an
/// *upload* (a buffer a later task reads by key; its ack says nothing) or
/// a *task* (its reply is the result). Every cluster leg that computes —
/// block pairs, sd and ss chunks, factorizations, chain steps —
/// assembles its frames here and nowhere else, so the rule "ship what the
/// rank is missing, then the tasks, keep the task replies" is said once.
#[derive(Default)]
pub(crate) struct Superstep {
    reqs: Vec<(usize, Request)>,
    is_task: Vec<bool>,
    /// The task replies of what [`Superstep::flush`] has already run.
    replies: Vec<Reply>,
}

impl Superstep {
    /// Queue an upload for `rank`.
    pub(crate) fn upload(&mut self, rank: usize, req: Request) {
        self.reqs.push((rank, req));
        self.is_task.push(false);
    }

    /// Queue a task for `rank`.
    pub(crate) fn task(&mut self, rank: usize, req: Request) {
        self.reqs.push((rank, req));
        self.is_task.push(true);
    }

    /// Make `rank` hold the buffer `wkey` derived from `content`: unless
    /// the registry already has it there, record the new home and queue
    /// `make_upload()` — which is only then invoked, so a resident operand
    /// costs nothing.
    pub(crate) fn ensure(
        &mut self,
        res: &mut Residency,
        content: u64,
        wkey: u64,
        rank: usize,
        make_upload: impl FnOnce() -> Result<Request>,
    ) -> Result<()> {
        if res.add_home(content, wkey, rank) {
            self.upload(rank, make_upload()?);
        }
        Ok(())
    }

    /// The wire form of a whole dense operand for a task on `rank`: the
    /// payload itself for a value; for a handle its resident key, the
    /// upload queued when `rank` does not hold the buffer yet.
    pub(super) fn whole(&mut self, res: &mut Residency, op: DenseOp, rank: usize) -> Result<Op> {
        let Some(h) = op.handle() else {
            return Ok(Op::Inline(op.tensor()?.data().to_vec()));
        };
        let key = keys::whole(h);
        self.ensure(res, h.key(), key, rank, || {
            let data = op.tensor()?.data().to_vec();
            Ok(Request::Upload { key, data })
        })?;
        Ok(Op::Key(key))
    }

    /// Ship every request queued so far — all before any reply is
    /// awaited — and keep the task replies.
    pub(crate) fn flush(&mut self, cl: &mut Cluster) -> Result<()> {
        let mut replies = cl.call_all(std::mem::take(&mut self.reqs))?;
        let mut is_task = std::mem::take(&mut self.is_task).into_iter();
        replies.retain(|_| is_task.next().unwrap_or(false));
        self.replies.extend(replies);
        Ok(())
    }

    /// [`Superstep::flush`], and every task reply in submission order.
    pub(crate) fn run(mut self, cl: &mut Cluster) -> Result<Vec<Reply>> {
        self.flush(cl)?;
        Ok(self.replies)
    }
}
