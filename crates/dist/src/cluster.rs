//! Driver-side task dispatch over a [`Transport`].
//!
//! A [`Cluster`] wraps a transport endpoint and gives the executor a
//! typed request/reply interface. [`Cluster::call_all`] ships every
//! request before collecting any reply, so with the multi-process backend
//! the worker processes genuinely overlap; replies always come back in
//! submission order, which is what keeps result assembly (and cost
//! charging) bitwise-deterministic.
//!
//! The cluster is also the data plane's **byte meter**: every encoded
//! request payload is counted as *operand bytes shipped* and every reply
//! payload as *result bytes returned*, into the attached
//! [`CostTracker`]'s `bytes_operands` / `bytes_results` counters (see
//! [`crate::Executor::operand_bytes`]). These count what the driver actually
//! moved — they are how the resident-operand cache win is measured and
//! regression-tested.
//!
//! ## Fault recovery
//!
//! When the transport supports recovery (the multi-process backend), the
//! cluster additionally keeps a per-rank **journal**: the encoded bytes of
//! every state-mutating request (`Upload*`, a storing `Contract` or
//! `SdContract`) the rank has *acknowledged*. A rank fault
//! ([`crate::FaultKind::is_rank_fault`]) triggers, transparently inside
//! [`Cluster::call`]/[`Cluster::call_all`]:
//!
//! 1. **respawn** — a fresh worker process for the failed rank (the
//!    transport retries with capped exponential backoff), falling back to
//!    **retire** (re-route the logical rank onto a surviving worker) when
//!    respawn is exhausted or vetoed;
//! 2. **replay** — the acked journal is re-sent in order, reconstructing
//!    the rank's resident store exactly (all content is driver-issued:
//!    operands re-upload from the journaled bytes, derived buffers and
//!    chain results re-derive from their journaled producing requests);
//! 3. **re-issue** — every request that was in flight (sent, not yet
//!    acked) is re-sent in order under fresh tags, and the awaited tags
//!    are remapped, so the interrupted superstep simply retries.
//!
//! A respawned worker starts empty and replay restores precisely the
//! acked prefix, so requests apply exactly once without sequence numbers.
//! All recovery traffic is metered under [`CostTracker::bytes_recovery`],
//! keeping `bytes_operands`/`bytes_results` equal to the fault-free run.
//!
//! **Journal hygiene.** The journal is an ordered map by sequence number
//! with an index by store key: the entries that produce the key (and the
//! `Free` fixups that remove it), and a count of the journaled entries
//! that *read* it. Acking a store is an append. Acking a
//! `Free`/`Download` of a key nobody journaled reads deletes the
//! key's entries through the index and un-counts what they read; a key
//! that is still read keeps its producers — the reader's replay needs them
//! — and gets a `Free` fixup appended, so replay still ends with it
//! absent. When such a freed key loses its last reader, its producers and
//! its fixup go too, which can release the keys *they* read in turn: the
//! t₁→t₂→t₃→y chain of one H·ψ is collected whole the moment `y` is
//! downloaded. Two invariants hold after every ack (a model-based test
//! drives them): replaying the journal, in order, into an empty store
//! never reads an absent key and ends with exactly the worker's key set;
//! and the journal holds nothing but what a live key is derived from — so
//! with no live result handle it is the live uploads, flat in matvecs,
//! sweeps and jobs served. (Collection is by reader count, so keys
//! re-stored from values derived from themselves would be kept; result
//! keys are issued once and re-uploads carry no operands, so none are.)

use crate::cost::CostTracker;
use crate::transport::worker::{Reply, Request};
use crate::transport::{InProcTransport, Transport};
use crate::{Error, FaultKind, Result};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

/// How many successive recoveries one reply wait may attempt before the
/// fault is surfaced to the caller (covers a respawned rank dying again
/// mid-replay without looping forever).
const MAX_RECOVERY_ROUNDS: usize = 3;

/// One acked journal entry: the encoded request that (re)creates worker
/// state, the store key it produces (`op`), the resident keys it reads
/// (`deps`), and — for `Free` fixups — the key it removes.
struct JEntry {
    op: Option<u64>,
    deps: Vec<u64>,
    frees: Option<u64>,
    bytes: Arc<Vec<u8>>,
}

/// How a request interacts with the journal.
enum JClass {
    /// No worker state mutated (probe, fetch, pure compute).
    Skip,
    /// Creates/mutates worker state: journal on ack.
    Store { op: u64, deps: Vec<u64> },
    /// Removes worker state under `key`: prune the journal on ack.
    Remove { key: u64 },
}

/// A sent-but-unacked request (re-issued verbatim after recovery).
struct Inflight {
    tag: u64,
    bytes: Arc<Vec<u8>>,
    class: JClass,
}

/// The journal's index entry for one store key.
#[derive(Default)]
struct KeyBook {
    /// Sequence numbers, ascending, of the entries that produce this key
    /// and of the `Free` fixups that remove it.
    entries: Vec<u64>,
    /// How many leading `entries` are history: generations of the key the
    /// worker has since freed, each closed by its fixup. They stay only
    /// while a journaled reader needs them; `dead == entries.len()` means
    /// the key is absent on the worker.
    dead: usize,
    /// Journaled entries that read this key as an operand.
    readers: usize,
}

/// Per-rank recovery books: the journal in sequence order, its index by
/// key, and the in-flight queue.
#[derive(Default)]
struct RankLog {
    acked: BTreeMap<u64, JEntry>,
    next_seq: u64,
    keys: HashMap<u64, KeyBook>,
    /// Encoded bytes held by `acked`.
    bytes: usize,
    /// Encoded bytes ever appended, collected since or not.
    appended: usize,
    inflight: VecDeque<Inflight>,
}

impl RankLog {
    /// Append `e`, indexing it under the key it produces or frees and
    /// counting it as a reader of every key it reads. An entry's read of
    /// its own key (an accumulate, a replace) is not counted: producers of
    /// one generation of a key stay and go together.
    fn push(&mut self, e: JEntry) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(k) = e.op.or(e.frees) {
            self.keys.entry(k).or_default().entries.push(seq);
        }
        for d in e.deps.iter().filter(|&&d| Some(d) != e.op) {
            self.keys.entry(*d).or_default().readers += 1;
        }
        self.bytes += e.bytes.len();
        self.appended += e.bytes.len();
        self.acked.insert(seq, e);
    }

    /// Journal an acked state-creating request.
    fn store(&mut self, op: u64, deps: Vec<u64>, bytes: Arc<Vec<u8>>) {
        self.push(JEntry {
            op: Some(op),
            deps,
            frees: None,
            bytes,
        });
    }

    /// Fold an acked `Free`/`Download` of `key` into the journal.
    /// With no journaled reader the key's entries simply leave; otherwise
    /// its producers must stay for the readers' replay, and a `Free` fixup
    /// keeps the replayed store ending with the key absent.
    fn remove(&mut self, key: u64) {
        let Some(book) = self.keys.get_mut(&key) else {
            return; // nothing of this key was ever journaled
        };
        if book.readers == 0 {
            let gone = std::mem::take(&mut book.entries);
            self.keys.remove(&key);
            self.delete(gone);
        } else if book.dead < book.entries.len() {
            self.push(JEntry {
                op: None,
                deps: Vec::new(),
                frees: Some(key),
                bytes: Arc::new(Request::Free { key }.encode()),
            });
            let book = self.keys.get_mut(&key).expect("indexed by push");
            book.dead = book.entries.len();
        }
    }

    /// Delete entries (already unlinked from their own key's book) and
    /// un-count what they read. A key that loses its last reader sheds its
    /// history — the freed generations and their fixups — which may in
    /// turn release the keys *those* read: a finished t₁→t₂→t₃→y chain
    /// unwinds completely when `y` is downloaded.
    fn delete(&mut self, mut gone: Vec<u64>) {
        while let Some(seq) = gone.pop() {
            let Some(e) = self.acked.remove(&seq) else {
                continue;
            };
            self.bytes -= e.bytes.len();
            for d in e.deps.iter().filter(|&&d| Some(d) != e.op) {
                let book = self.keys.get_mut(d).expect("a counted reader has a book");
                book.readers -= 1;
                if book.readers == 0 {
                    gone.extend(book.entries.drain(..book.dead));
                    book.dead = 0;
                    if book.entries.is_empty() {
                        self.keys.remove(d);
                    }
                }
            }
        }
    }
}

/// Classify a request for the journal. Operand `Key`s become dependency
/// edges; `store` keys (and uploaded keys) become the entry's `op`.
fn journal_class(req: &Request) -> JClass {
    // a contraction is journaled with the keys it reads
    let stores = |op: u64, a: Option<u64>, b: Option<u64>| JClass::Store {
        op,
        deps: a.into_iter().chain(b).collect(),
    };
    match req {
        Request::Upload { key, .. } | Request::UploadCoords { key, .. } => JClass::Store {
            op: *key,
            deps: Vec::new(),
        },
        Request::Contract { a, b, key, .. } => stores(*key, a.key(), b.key()),
        Request::SdContract { a, b, key, .. } => stores(*key, a.key(), b.key()),
        Request::SsChunk { a, b, key, .. } => stores(*key, a.key(), b.key()),
        Request::Free { key } | Request::Download { key } => JClass::Remove { key: *key },
        // pure probes and value-returning compute: nothing to reconstruct
        // (their operands, when keyed, are journaled by the uploads that
        // stored them)
        Request::Ping | Request::CacheStats | Request::SvdTrunc { .. } | Request::Shutdown => {
            JClass::Skip
        }
    }
}

/// A handle on `p` rank endpoints, ready to execute tasks.
pub struct Cluster {
    transport: Box<dyn Transport>,
    tracker: Option<Arc<Mutex<CostTracker>>>,
    /// Per-rank journal + in-flight books; empty when the transport
    /// cannot recover ranks (the in-process backends).
    logs: Vec<RankLog>,
    /// `(rank, original tag)` → re-issued tag, for replies awaited across
    /// a recovery; a chain is dropped when its reply is acked.
    remap: HashMap<(usize, u64), u64>,
}

/// Size of one rank's recovery journal (see [`Cluster::journal_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Journaled requests a recovery would replay.
    pub entries: usize,
    /// Their encoded bytes.
    pub bytes: usize,
    /// Encoded bytes the journal has ever appended: `bytes` plus all it
    /// has collected since.
    pub appended: usize,
}

impl Cluster {
    /// Cluster over an arbitrary transport.
    pub fn new(transport: Box<dyn Transport>) -> Self {
        let logs = if transport.supports_recovery() {
            (0..transport.ranks()).map(|_| RankLog::default()).collect()
        } else {
            Vec::new()
        };
        Self {
            transport,
            tracker: None,
            logs,
            remap: HashMap::new(),
        }
    }

    /// Cluster over `ranks` in-process simulated ranks.
    pub fn in_process(ranks: usize) -> Self {
        Self::new(Box::new(InProcTransport::new(ranks)))
    }

    /// Cluster over `ranks` real worker processes under
    /// [`ProcOptions`](crate::ProcOptions) (fault injection, deadline;
    /// `default()` reads them from the environment).
    #[cfg(unix)]
    pub fn multi_process(
        ranks: usize,
        spec: &crate::transport::SpawnSpec,
        opts: crate::ProcOptions,
    ) -> Result<Self> {
        Ok(Self::new(Box::new(
            crate::transport::ProcTransport::spawn_with(ranks, spec, opts)?,
        )))
    }

    /// Meter this cluster's data-plane traffic into `tracker`'s
    /// `bytes_operands` / `bytes_results` counters.
    pub fn attach_tracker(&mut self, tracker: Arc<Mutex<CostTracker>>) {
        self.tracker = Some(tracker);
    }

    /// Number of rank endpoints.
    pub fn ranks(&self) -> usize {
        self.transport.ranks()
    }

    /// Per-rank size of the recovery journal — what a respawned rank would
    /// be sent. Empty when the transport cannot recover ranks.
    pub fn journal_stats(&self) -> Vec<JournalStats> {
        self.logs
            .iter()
            .map(|log| JournalStats {
                entries: log.acked.len(),
                bytes: log.bytes,
                appended: log.appended,
            })
            .collect()
    }

    fn count_operand(&self, bytes: usize) {
        if let Some(t) = &self.tracker {
            crate::cost::charge(t, |tr| tr.bytes_operands += bytes as u64);
        }
    }

    fn count_result(&self, bytes: usize) {
        if let Some(t) = &self.tracker {
            crate::cost::charge(t, |tr| tr.bytes_results += bytes as u64);
        }
    }

    fn count_recovery(&self, bytes: usize) {
        if let Some(t) = &self.tracker {
            crate::cost::charge(t, |tr| tr.bytes_recovery += bytes as u64);
        }
    }

    /// Cheap liveness probe: ping `rank` and await its pong (faults
    /// surface typed, and trigger recovery, exactly like any other call).
    pub fn probe(&mut self, rank: usize) -> Result<()> {
        match self.call(rank, &Request::Ping)? {
            Reply::Pong => Ok(()),
            other => Err(Error::transport(format!(
                "rank {rank}: probe answered {other:?}"
            ))),
        }
    }

    /// Execute one request on one rank and wait for its reply.
    pub(crate) fn call(&mut self, rank: usize, req: &Request) -> Result<Reply> {
        let tag = self.dispatch(rank, req)?;
        self.reply(rank, tag)
    }

    /// Execute many requests — all shipped before any reply is awaited —
    /// and return the replies in submission order.
    pub(crate) fn call_all(&mut self, reqs: Vec<(usize, Request)>) -> Result<Vec<Reply>> {
        let mut routes = Vec::with_capacity(reqs.len());
        for (rank, req) in reqs {
            let tag = self.dispatch(rank, &req)?;
            routes.push((rank, tag));
        }
        routes
            .into_iter()
            .map(|(rank, tag)| self.reply(rank, tag))
            .collect()
    }

    /// Encode, meter, book and send one request; returns the tag to await.
    /// A rank fault during the send triggers recovery — the request is
    /// already booked in flight, so the recovery re-issue delivers it.
    fn dispatch(&mut self, rank: usize, req: &Request) -> Result<u64> {
        let tag = self.transport.next_tag();
        let bytes = Arc::new(req.encode());
        // operand metering counts the payload the request actually
        // carries — a task whose operands are all worker-resident ships
        // control framing only, and meters zero
        self.count_operand(req.payload_bytes());
        if !self.logs.is_empty() {
            let class = journal_class(req);
            self.logs[rank].inflight.push_back(Inflight {
                tag,
                bytes: Arc::clone(&bytes),
                class,
            });
        }
        if let Err(e) = self.transport.send(rank, tag, &bytes) {
            self.recover_from(e)?;
        }
        Ok(tag)
    }

    /// Await the reply for `tag` from `rank`, recovering from rank faults
    /// (bounded rounds) by respawn/retire + journal replay + re-issue.
    fn reply(&mut self, rank: usize, tag: u64) -> Result<Reply> {
        let mut rounds = 0;
        loop {
            match self.try_reply(rank, tag) {
                Ok(reply) => return Ok(reply),
                Err(e) if rounds < MAX_RECOVERY_ROUNDS => {
                    rounds += 1;
                    self.recover_from(e)?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One receive attempt (tag remapped across recoveries). Successful
    /// decodes ack the in-flight request and update the journal; a frame
    /// that fails to decode is a [`FaultKind::Decode`] rank fault.
    fn try_reply(&mut self, rank: usize, tag: u64) -> Result<Reply> {
        // follow the remap chain: each recovery re-issues under a new tag
        let awaited = tag;
        let mut tag = tag;
        while let Some(&t) = self.remap.get(&(rank, tag)) {
            tag = t;
        }
        let bytes = self.transport.recv(rank, tag)?;
        match Reply::decode(&bytes) {
            Ok(reply) => {
                self.count_result(bytes.len());
                self.ack(rank, tag, matches!(reply, Reply::Fail(_)));
                let mut t = awaited;
                while let Some(next) = self.remap.remove(&(rank, t)) {
                    t = next;
                }
                match reply {
                    Reply::Fail(msg) => Err(Error::fault(
                        FaultKind::Task,
                        rank,
                        format!("rank {rank}: {msg}"),
                    )),
                    reply => Ok(reply),
                }
            }
            Err(_) => {
                // the bytes moved, but only because of the fault
                self.count_recovery(bytes.len());
                Err(Error::fault(
                    FaultKind::Decode,
                    rank,
                    "reply frame failed to decode",
                ))
            }
        }
    }

    /// Acknowledge the in-flight request awaited under `tag`: drop it from
    /// the in-flight queue and fold it into the journal. `Fail` replies
    /// ack (the worker processed and refused the request deterministically)
    /// but never journal — replaying a refused request would refuse again.
    fn ack(&mut self, rank: usize, tag: u64, failed: bool) {
        if self.logs.is_empty() {
            return;
        }
        let log = &mut self.logs[rank];
        let Some(i) = log.inflight.iter().position(|f| f.tag == tag) else {
            return;
        };
        let fl = log.inflight.remove(i).expect("index just found");
        if failed {
            return;
        }
        match fl.class {
            JClass::Skip => {}
            JClass::Store { op, deps } => log.store(op, deps, fl.bytes),
            JClass::Remove { key } => log.remove(key),
        }
    }

    /// Attempt recovery from `err`; `Ok(())` means the fault was handled
    /// (respawn or retire + replay + re-issue) and the caller may retry.
    fn recover_from(&mut self, err: Error) -> Result<()> {
        let recoverable = !self.logs.is_empty()
            && err
                .as_fault()
                .is_some_and(|f| f.kind.is_rank_fault() && f.rank.is_some());
        if !recoverable {
            return Err(err);
        }
        let rank = err.as_fault().and_then(|f| f.rank).expect("checked above");
        // every logical rank served by the failed physical worker loses
        // its state; all of them replay (after a retire, onto the
        // surviving worker the transport re-routed them to)
        let affected = self.transport.peers(rank);
        if self.transport.respawn(rank).is_err() {
            self.transport.retire(rank)?;
        }
        for r in affected {
            self.replay(r)?;
            self.reissue(r)?;
        }
        Ok(())
    }

    /// Re-send rank `r`'s acked journal in order, awaiting each ack —
    /// reconstructing its resident store bit-for-bit.
    fn replay(&mut self, r: usize) -> Result<()> {
        let entries: Vec<Arc<Vec<u8>>> = self.logs[r]
            .acked
            .values()
            .map(|e| Arc::clone(&e.bytes))
            .collect();
        for bytes in entries {
            let tag = self.transport.next_tag();
            self.count_recovery(bytes.len());
            self.transport.send(r, tag, &bytes)?;
            let reply = self.transport.recv(r, tag)?;
            self.count_recovery(reply.len());
            if let Reply::Fail(msg) = Reply::decode(&reply)? {
                return Err(Error::fault(
                    FaultKind::Task,
                    r,
                    format!("journal replay refused: {msg}"),
                ));
            }
        }
        Ok(())
    }

    /// Re-send rank `r`'s in-flight requests in order under fresh tags,
    /// remapping the tags their callers await. First-send bytes were
    /// already metered as operands; the duplicates are recovery traffic.
    fn reissue(&mut self, r: usize) -> Result<()> {
        for i in 0..self.logs[r].inflight.len() {
            let new_tag = self.transport.next_tag();
            let (old_tag, bytes) = {
                let fl = &mut self.logs[r].inflight[i];
                let old = fl.tag;
                fl.tag = new_tag;
                (old, Arc::clone(&fl.bytes))
            };
            self.remap.insert((r, old_tag), new_tag);
            self.count_recovery(bytes.len());
            self.transport.send(r, new_tag, &bytes)?;
        }
        Ok(())
    }
}

/// The rank for a chain step, from its resident inputs' weighted homes
/// (`(rank, stored words)` per resident buffer copy) over `ranks` ranks:
/// the rank holding the largest total resident volume wins, ties to the
/// lowest rank — so the step runs where its biggest input already lives
/// and only the smaller inputs redistribute. With nothing resident, the
/// chain's `anchor` (a chain keeps its unanchored steps together). Pure:
/// the same inputs place the same way on every run.
pub(crate) fn place(
    ranks: usize,
    weighted: impl IntoIterator<Item = (usize, u64)>,
    anchor: usize,
) -> usize {
    let ranks = ranks.max(1);
    let mut by_rank: Vec<u64> = vec![0; ranks];
    let mut any = false;
    for (rank, words) in weighted {
        if rank < ranks {
            by_rank[rank] += words.max(1);
            any = true;
        }
    }
    if !any {
        return anchor % ranks;
    }
    let mut best = 0usize;
    for (r, &w) in by_rank.iter().enumerate() {
        if w > by_rank[best] {
            best = r;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    #[test]
    fn call_all_returns_in_submission_order() {
        let mut cl = Cluster::in_process(3);
        let reqs: Vec<(usize, Request)> = (0..9)
            .map(|i| {
                (
                    i % 3,
                    Request::Upload {
                        key: i as u64,
                        data: vec![i as f64],
                    },
                )
            })
            .collect();
        for rep in cl.call_all(reqs).unwrap() {
            assert_eq!(rep, Reply::Unit);
        }
        let gets: Vec<(usize, Request)> = (0..9)
            .map(|i| (i % 3, Request::Download { key: i as u64 }))
            .collect();
        let reps = cl.call_all(gets).unwrap();
        for (i, rep) in reps.into_iter().enumerate() {
            assert_eq!(rep, Reply::Buf(vec![i as f64]));
        }
    }

    #[test]
    fn worker_failures_surface_as_errors() {
        let mut cl = Cluster::in_process(1);
        assert!(cl.call(0, &Request::Download { key: 42 }).is_err());
    }

    #[test]
    fn traffic_is_metered_into_the_tracker() {
        let tracker = Arc::new(Mutex::new(CostTracker::new(Machine::local(), 2)));
        let mut cl = Cluster::in_process(2);
        cl.attach_tracker(Arc::clone(&tracker));
        cl.call(
            0,
            &Request::Upload {
                key: 1,
                data: vec![1.0; 100],
            },
        )
        .unwrap();
        let (ops, res) = {
            let t = tracker.lock();
            (t.bytes_operands, t.bytes_results)
        };
        assert!(ops >= 800, "the 100-word payload is counted: {ops}");
        assert!(res >= 1, "the ack reply is counted: {res}");
        cl.call(0, &Request::Download { key: 1 }).unwrap();
        let t = tracker.lock();
        assert!(
            t.bytes_results >= 800,
            "the fetched buffer counts as result"
        );
    }

    #[test]
    fn placement_prefers_residency_then_round_robins() {
        // any resident input outweighs the anchor
        assert_eq!(place(3, [(2, 1)], 0), 2);
        // a home beyond the cluster counts for nothing
        assert_eq!(place(3, [(5, 100), (1, 1)], 0), 1);
        assert_eq!(place(3, [(5, 100)], 2), 2);
        // nothing resident: the anchor, wrapped onto the ranks, so a
        // cursor of successive anchors round-robins
        let anchored: Vec<usize> = (0..5).map(|a| place(3, [], a)).collect();
        assert_eq!(anchored, [0, 1, 2, 0, 1]);
    }

    #[test]
    fn weighted_placement_follows_the_largest_resident_input() {
        // largest total resident volume wins
        assert_eq!(place(4, [(1, 100), (3, 40), (3, 70)], 0), 3);
        // ties break to the lowest rank
        assert_eq!(place(4, [(2, 50), (0, 50)], 3), 0);
        // an empty buffer still counts as resident
        assert_eq!(place(4, [(2, 0)], 1), 2);
    }

    #[test]
    fn probe_answers_on_a_live_rank() {
        let mut cl = Cluster::in_process(2);
        cl.probe(0).unwrap();
        cl.probe(1).unwrap();
    }

    mod journal {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        fn upload(log: &mut RankLog, key: u64) {
            log.store(key, Vec::new(), Arc::new(vec![0; 8]));
        }

        fn derive(log: &mut RankLog, key: u64, deps: &[u64]) {
            log.store(key, deps.to_vec(), Arc::new(vec![0; 8]));
        }

        /// Replay the journal, in order, into an empty toy store (a key
        /// set): no entry may read an absent key. Returns the final store.
        fn replay(log: &RankLog) -> BTreeSet<u64> {
            let mut store = BTreeSet::new();
            for (seq, e) in &log.acked {
                for d in &e.deps {
                    assert!(store.contains(d), "entry {seq} reads absent key {d}");
                }
                store.extend(e.op);
                if let Some(k) = e.frees {
                    store.remove(&k);
                }
            }
            store
        }

        fn assert_empty(log: &RankLog) {
            assert_eq!(log.acked.len(), 0, "entries left behind");
            assert_eq!(log.keys.len(), 0, "index left behind");
            assert_eq!(log.bytes, 0, "byte count left behind");
        }

        #[test]
        fn a_finished_matvec_chain_is_collected_whole() {
            // the H_eff shape: operator w stays; psi -> t1 -> t2 -> t3 -> y,
            // inputs freed in that order while their successors still read
            // them, then y downloaded
            let (w, psi, t1, t2, t3, y) = (100, 1, 2, 3, 4, 5);
            let mut log = RankLog::default();
            upload(&mut log, w);
            upload(&mut log, psi);
            for (out, input) in [(t1, psi), (t2, t1), (t3, t2), (y, t3)] {
                derive(&mut log, out, &[w, input]);
            }
            let mut live = BTreeSet::from([w, psi, t1, t2, t3, y]);
            for freed in [psi, t1, t2, t3] {
                log.remove(freed);
                live.remove(&freed);
                assert_eq!(replay(&log), live);
            }
            // every producer is still needed for y, plus one fixup per free
            assert_eq!(log.acked.len(), 6 + 4);
            log.remove(y);
            assert_eq!(log.acked.len(), 1, "only the operator's upload is left");
            assert_eq!(replay(&log), BTreeSet::from([w]));
            log.remove(w);
            assert_empty(&log);
        }

        #[test]
        fn a_key_freed_under_two_readers_outlives_the_first() {
            let (k, a, b) = (1, 2, 3);
            let mut log = RankLog::default();
            upload(&mut log, k);
            derive(&mut log, a, &[k]);
            derive(&mut log, b, &[k]);
            log.remove(k);
            assert_eq!(log.acked.len(), 4, "producer kept, fixup appended");
            log.remove(k);
            assert_eq!(log.acked.len(), 4, "an absent key gets no second fixup");
            log.remove(a);
            assert_eq!(log.acked.len(), 3, "b's replay still needs k");
            assert_eq!(replay(&log), BTreeSet::from([b]));
            log.remove(b);
            assert_empty(&log);
        }

        #[test]
        fn a_restored_key_survives_the_collection_of_its_history() {
            let (k, a) = (1, 2);
            let mut log = RankLog::default();
            upload(&mut log, k);
            derive(&mut log, a, &[k]);
            log.remove(k); // fixup: a reads the first generation
            upload(&mut log, k); // same content key, uploaded again
            upload(&mut log, k); // and once more (replaced on the worker)
            assert_eq!(replay(&log), BTreeSet::from([k, a]));
            log.remove(a); // first generation and its fixup go, the live one stays
            assert_eq!(log.acked.len(), 2);
            assert_eq!(replay(&log), BTreeSet::from([k]));
            log.remove(k);
            assert_empty(&log);
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Model-based: random interleavings of uploads (fresh, repeated,
            /// of a freed key), derived stores (fresh, accumulating, reading
            /// themselves) and removals, acked into a `RankLog` and applied
            /// to a toy store. Keys are numbered in dependency order (a store
            /// reads only lower keys, or itself), as the executor's are:
            /// result keys are issued once, re-uploads read nothing.
            #[test]
            fn replay_matches_the_store_and_collects_everything(
                ops in prop::collection::vec(any::<u64>(), 1..160),
            ) {
                const KEYS: u64 = 8;
                let mut log = RankLog::default();
                let mut store = BTreeSet::new();
                for w in ops {
                    let key = (w >> 2) % KEYS;
                    match w % 4 {
                        0 => {
                            upload(&mut log, key);
                            store.insert(key);
                        }
                        1 => {
                            let deps: Vec<u64> = (0..=key)
                                .filter(|d| store.contains(d) && (w >> (8 + d)) & 1 == 1)
                                .collect();
                            derive(&mut log, key, &deps);
                            store.insert(key);
                        }
                        _ => {
                            log.remove(key);
                            store.remove(&key);
                        }
                    }
                    prop_assert_eq!(&replay(&log), &store);
                    let indexed: usize = log.keys.values().map(|b| b.entries.len()).sum();
                    prop_assert_eq!(indexed, log.acked.len());
                }
                // ascending order frees every input before its readers
                for key in 0..KEYS {
                    log.remove(key);
                    store.remove(&key);
                    prop_assert_eq!(&replay(&log), &store);
                }
                assert_empty(&log);
            }
        }
    }

    #[cfg(unix)]
    mod recovery {
        use super::*;
        use crate::transport::SpawnSpec;
        use crate::{FaultKind, FaultPlan, ProcOptions};
        use std::time::Duration;

        fn spec() -> SpawnSpec {
            SpawnSpec::SelfExec(vec!["spawned_worker_entry".into()])
        }

        fn cluster_with(ranks: usize, plan: &str) -> (Cluster, Arc<Mutex<CostTracker>>) {
            let opts = ProcOptions {
                plan: Some(FaultPlan::parse(plan).unwrap()),
                deadline: Some(Duration::from_secs(20)),
            };
            let mut cl = Cluster::multi_process(ranks, &spec(), opts).unwrap();
            let tracker = Arc::new(Mutex::new(CostTracker::new(Machine::local(), ranks)));
            cl.attach_tracker(Arc::clone(&tracker));
            (cl, tracker)
        }

        #[test]
        fn killed_rank_recovers_resident_state_transparently() {
            let (mut cl, tracker) = cluster_with(2, "kill:1@3");
            cl.call(
                1,
                &Request::Upload {
                    key: 5,
                    data: vec![1.0, 2.0],
                },
            )
            .unwrap();
            cl.call(
                1,
                &Request::Upload {
                    key: 6,
                    data: vec![3.0],
                },
            )
            .unwrap();
            // the third send kills the worker; recovery respawns it,
            // replays both journaled stores and re-issues this Download
            assert_eq!(
                cl.call(1, &Request::Download { key: 5 }).unwrap(),
                Reply::Buf(vec![1.0, 2.0])
            );
            assert_eq!(
                cl.call(1, &Request::Download { key: 6 }).unwrap(),
                Reply::Buf(vec![3.0])
            );
            let t = tracker.lock();
            assert!(t.bytes_recovery > 0, "replay traffic is metered apart");
        }

        #[test]
        fn exhausted_respawn_degrades_onto_a_survivor() {
            let (mut cl, _) = cluster_with(2, "kill:1@2,nospawn:1");
            cl.call(
                1,
                &Request::Upload {
                    key: 7,
                    data: vec![4.5],
                },
            )
            .unwrap();
            // kill fires; respawn is vetoed, so rank 1 retires onto the
            // survivor — with its journal replayed there
            assert_eq!(
                cl.call(1, &Request::Download { key: 7 }).unwrap(),
                Reply::Buf(vec![4.5])
            );
            // both logical ranks stay serviceable
            cl.probe(0).unwrap();
            cl.probe(1).unwrap();
        }

        #[test]
        fn corrupted_reply_triggers_decode_recovery() {
            let (mut cl, tracker) = cluster_with(1, "corrupt:0@2");
            cl.call(
                0,
                &Request::Upload {
                    key: 9,
                    data: vec![0.25],
                },
            )
            .unwrap();
            // this reply arrives corrupted → Decode fault → respawn +
            // replay + re-issue → the retried Download answers correctly
            assert_eq!(
                cl.call(0, &Request::Download { key: 9 }).unwrap(),
                Reply::Buf(vec![0.25])
            );
            assert!(tracker.lock().bytes_recovery > 0);
        }

        #[test]
        fn freed_keys_leave_the_journal() {
            let (mut cl, _) = cluster_with(1, "kill:0@4");
            cl.call(
                0,
                &Request::Upload {
                    key: 11,
                    data: vec![1.0],
                },
            )
            .unwrap();
            cl.call(0, &Request::Free { key: 11 }).unwrap();
            cl.call(
                0,
                &Request::Upload {
                    key: 12,
                    data: vec![2.0],
                },
            )
            .unwrap();
            // kill + recovery: replay must not resurrect the freed key
            assert_eq!(
                cl.call(0, &Request::Download { key: 12 }).unwrap(),
                Reply::Buf(vec![2.0])
            );
            let err = cl.call(0, &Request::Download { key: 11 }).unwrap_err();
            assert!(
                matches!(err.as_fault().map(|f| f.kind), Some(FaultKind::Task)),
                "freed key must stay absent after replay: {err:?}"
            );
        }

        #[test]
        fn task_failures_do_not_trigger_recovery() {
            let (mut cl, tracker) = cluster_with(1, "");
            let err = cl.call(0, &Request::Download { key: 404 }).unwrap_err();
            assert!(matches!(
                err.as_fault().map(|f| f.kind),
                Some(FaultKind::Task)
            ));
            assert_eq!(tracker.lock().bytes_recovery, 0);
            // a refused request is acked (not re-issued) and never journaled
            assert!(cl.logs[0].inflight.is_empty());
            assert_eq!(cl.journal_stats()[0], JournalStats::default());
            cl.probe(0).unwrap();
        }

        #[test]
        fn remapped_tags_are_forgotten_once_acked() {
            let (mut cl, _) = cluster_with(1, "kill:0@2");
            let up = |key| Request::Upload {
                key,
                data: vec![key as f64],
            };
            cl.call(0, &up(1)).unwrap();
            // the kill lands on the first of three pipelined requests: all
            // three are re-issued under fresh tags and awaited through the
            // remap, which must not outlive their acks
            let replies = cl
                .call_all(vec![
                    (0, up(2)),
                    (0, Request::Download { key: 1 }),
                    (0, Request::Download { key: 2 }),
                ])
                .unwrap();
            assert_eq!(replies[1], Reply::Buf(vec![1.0]));
            assert_eq!(replies[2], Reply::Buf(vec![2.0]));
            assert!(cl.remap.is_empty(), "{:?}", cl.remap);
            let stats = cl.journal_stats()[0];
            assert_eq!((stats.entries, stats.bytes), (0, 0));
            assert!(stats.appended > 0, "the uploads were journaled");
        }
    }
}
