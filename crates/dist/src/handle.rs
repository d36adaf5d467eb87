//! Distributed operand handles: content-keyed references to tensors that
//! stay *resident* on the runtime instead of being re-shipped with every
//! task.
//!
//! An [`OpHandle`] is created by [`crate::Executor::upload`] (dense) or
//! [`crate::Executor::upload_sparse`] and freed by
//! [`crate::Executor::free`]. The handle's key is a content hash of the
//! tensor (dims + exact value bit patterns), so two uploads of identical
//! data share one key — and one refcount, one set of resident buffers.
//!
//! Residency itself is *lazy*: nothing ships at upload time. The first
//! contraction that consumes a handle derives the operand buffer it needs
//! (the whole tensor, volume-balanced coordinate buckets) and stores it
//! on the workers; every
//! later contraction that derives the same buffer ships **zero operand
//! bytes** for it. On [`crate::Backend::InProcess`] handles are plain
//! `Arc`s around the tensor — numerics take the exact same kernel path as
//! the value-passing API — while the driver-side [`Residency`] registry is
//! still consulted so the α–β cost charges are bitwise-identical across
//! backends.

use crate::kernels::{Coord, SsSlots};
use crate::{Error, Result};
use std::collections::HashMap;
use std::sync::Arc;
use tt_tensor::{DenseTensor, SparseTensor};

/// Initial state of a [`WordHash`] (the 64-bit golden ratio).
const HASH_SEED: u64 = 0x9e37_79b9_7f4a_7c15;
/// Odd multiplier of a [`WordHash`] step (SplitMix64's first).
const HASH_MUL: u64 = 0xbf58_476d_1ce4_e5b9;

/// Running content hash, one 64-bit word per step: the word is xored into
/// the state, which is then multiplied by an odd constant and xor-shifted.
/// Each of the three is a bijection, so for fixed other words two inputs
/// that differ in one word — in one bit of one `f64`, say — always hash
/// apart; one dependent multiply per word where a byte-wise hash takes
/// eight.
#[derive(Clone, Copy)]
pub(crate) struct WordHash(u64);

impl WordHash {
    pub(crate) fn new() -> Self {
        WordHash(HASH_SEED)
    }

    pub(crate) fn u64(self, v: u64) -> Self {
        let h = (self.0 ^ v).wrapping_mul(HASH_MUL);
        WordHash(h ^ (h >> 31))
    }

    pub(crate) fn u64s(mut self, vs: impl IntoIterator<Item = u64>) -> Self {
        for v in vs {
            self = self.u64(v);
        }
        self
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// The tensor a handle refers to. Payloads are `Arc`-backed so an upload
/// of an already-shared tensor (an `Arc`-stored block of a
/// `BlockSparseTensor`, say) shares storage instead of cloning the data —
/// only the content hash is recomputed.
#[derive(Clone)]
pub(crate) enum Payload {
    /// A dense tensor.
    Dense(Arc<DenseTensor<f64>>),
    /// A flattened sparse `f64` tensor.
    Sparse(Arc<SparseTensor<f64>>),
}

impl Payload {
    /// Content key: tag + dims + exact value bit patterns.
    fn content_key(&self) -> u64 {
        match self {
            Payload::Dense(t) => WordHash::new()
                .u64(1)
                .u64s(t.dims().iter().map(|&d| d as u64))
                .u64s(t.data().iter().map(|v| v.to_bits()))
                .finish(),
            Payload::Sparse(t) => WordHash::new()
                .u64(3)
                .u64s(t.dims().iter().map(|&d| d as u64))
                .u64s(t.entries().flat_map(|(off, v)| [off, v.to_bits()]))
                .finish(),
        }
    }

    /// Stored words (8-byte units) — the β volume an upload of this
    /// payload moves.
    fn words(&self) -> usize {
        match self {
            Payload::Dense(t) => t.len(),
            // offset + value per stored entry
            Payload::Sparse(t) => 2 * t.nnz(),
        }
    }
}

/// A content-keyed, refcounted handle on a distributed operand.
///
/// Cloning a handle is cheap (it shares the payload `Arc`) and does *not*
/// change the refcount: each [`crate::Executor::upload`] must be matched
/// by exactly one [`crate::Executor::free`].
#[derive(Clone)]
pub struct OpHandle {
    key: u64,
    words: usize,
    payload: Payload,
}

impl OpHandle {
    pub(crate) fn new(payload: Payload) -> Self {
        let key = payload.content_key();
        let words = payload.words();
        Self {
            key,
            words,
            payload,
        }
    }

    /// The content key (a hash of dims + exact value bits).
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Stored words (8-byte units) of the payload.
    pub fn words(&self) -> usize {
        self.words
    }

    /// The dense tensor behind this handle.
    pub(crate) fn dense(&self) -> Result<&DenseTensor<f64>> {
        match &self.payload {
            Payload::Dense(t) => Ok(t),
            Payload::Sparse(_) => Err(Error::Runtime(
                "operand handle does not hold a dense tensor".into(),
            )),
        }
    }

    pub(crate) fn sparse(&self) -> Result<&SparseTensor<f64>> {
        match &self.payload {
            Payload::Sparse(t) => Ok(t),
            _ => Err(Error::Runtime(
                "operand handle does not hold a sparse tensor".into(),
            )),
        }
    }
}

/// A handle on a contraction *result* that stayed resident on the runtime
/// instead of returning to the driver — produced by a
/// [`crate::Executor::chain`] superstep. Unlike [`OpHandle`] the key is
/// driver-issued (the driver never sees the bytes, so it cannot content-
/// hash them) and ownership is linear: every handle must be consumed by
/// exactly one [`crate::Executor::download`] /
/// [`crate::Executor::download_sparse`] or
/// [`crate::Executor::free_results`].
pub struct ResultHandle {
    pub(crate) key: u64,
    pub(crate) dims: Vec<usize>,
    /// The result itself, on the in-process backend (which has no worker
    /// stores — the "resident" buffer is the driver's own `Arc`).
    pub(crate) local: Option<Local>,
}

/// An in-process resident result, in the format its step made it in.
#[derive(Clone)]
pub(crate) enum Local {
    Dense(Arc<DenseTensor<f64>>),
    Slots(Arc<SsSlots>),
}

impl ResultHandle {
    /// The driver-issued store key.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The result tensor's dimensions.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }
}

impl std::fmt::Debug for ResultHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ResultHandle({:#018x}, {:?})", self.key, self.dims)
    }
}

impl std::fmt::Debug for OpHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "OpHandle({:#018x}, {} words)", self.key, self.words)
    }
}

/// Buffers a freed handle leaves behind on the workers, to be freed there
/// by the executor.
pub(crate) struct Leftovers {
    /// `(worker key, home ranks)` of every physical buffer derived from
    /// the handle.
    pub(crate) physical: Vec<(u64, Vec<usize>)>,
}

#[derive(Default)]
struct HandleState {
    /// Outstanding uploads (decremented by `free`).
    rc: usize,
    /// Logical derived keys whose one-time upload charge was applied.
    logical: Vec<u64>,
    /// Worker keys of physical buffers derived from this handle.
    physical: Vec<u64>,
    /// Keys of the fused coordinate lists kept in-process for this handle.
    coords: Vec<u64>,
}

/// Driver-side registry of everything resident (or charged as resident).
///
/// Two parallel books are kept:
///
/// * **logical** — which derived buffers have been *charged* as uploaded.
///   Consulted by the cost model on every backend, so the charge sequence
///   (and therefore `SimTime`, superstep and critical-byte counters) is
///   bitwise-identical between `InProcess` and `MultiProcess`.
/// * **physical** — which worker key lives on which ranks. Only the
///   multi-process data plane reads this; it gates actual `Upload`
///   shipping and routes whole-operand tasks to the rank that already
///   holds them.
#[derive(Default)]
pub(crate) struct Residency {
    handles: HashMap<u64, HandleState>,
    /// Logical derived keys already charged (across all handles).
    charged: std::collections::HashSet<u64>,
    /// Worker key → home ranks.
    homes: HashMap<u64, (u64, Vec<usize>)>,
    /// Resident contraction results: worker key → placement.
    results: HashMap<u64, ResultInfo>,
    /// Fused coordinates of resident sparse operands, by the logical key
    /// of their bucket family: what a worker keeps after `UploadCoords`,
    /// kept here for the in-process legs.
    coords: HashMap<u64, Arc<[Coord]>>,
}

/// Driver-side record of one resident contraction result.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ResultInfo {
    /// The rank the buffer lives on (0 in-process).
    pub(crate) home: usize,
    /// Stored words (8-byte units) — what a redistribute moves.
    pub(crate) words: usize,
}

impl Residency {
    /// Record one more upload of `content`.
    pub(crate) fn retain(&mut self, content: u64) {
        self.handles.entry(content).or_default().rc += 1;
    }

    /// Record one free of `content`. When the refcount reaches zero the
    /// handle's derived buffers are forgotten and returned for release.
    pub(crate) fn release(&mut self, content: u64) -> Result<Option<Leftovers>> {
        let Some(st) = self.handles.get_mut(&content) else {
            return Err(Error::Runtime(format!(
                "free of unknown operand handle {content:#x}"
            )));
        };
        if st.rc == 0 {
            return Err(Error::Runtime(format!(
                "operand handle {content:#x} freed more times than uploaded"
            )));
        }
        st.rc -= 1;
        if st.rc > 0 {
            return Ok(None);
        }
        let st = self.handles.remove(&content).expect("present");
        for k in &st.logical {
            self.charged.remove(k);
        }
        for k in &st.coords {
            self.coords.remove(k);
        }
        let mut physical = Vec::with_capacity(st.physical.len());
        for k in st.physical {
            if let Some((_, ranks)) = self.homes.remove(&k) {
                physical.push((k, ranks));
            }
        }
        Ok(Some(Leftovers { physical }))
    }

    /// Observe one logical use of derived buffer `lkey` of `content`.
    /// Returns `true` exactly once per resident period — the caller
    /// charges the one-time upload then.
    pub(crate) fn observe(&mut self, content: u64, lkey: u64) -> bool {
        if !self.charged.insert(lkey) {
            return false;
        }
        self.handles.entry(content).or_default().logical.push(lkey);
        true
    }

    /// Ranks already holding worker buffer `wkey`, if any.
    pub(crate) fn homes(&self, wkey: u64) -> Option<&[usize]> {
        self.homes.get(&wkey).map(|(_, r)| r.as_slice())
    }

    /// Record that worker buffer `wkey` (derived from `content`) now lives
    /// on `rank`. Returns `false` if it was already there.
    pub(crate) fn add_home(&mut self, content: u64, wkey: u64, rank: usize) -> bool {
        let entry = self.homes.entry(wkey).or_insert_with(|| {
            self.handles.entry(content).or_default().physical.push(wkey);
            (content, Vec::new())
        });
        if entry.1.contains(&rank) {
            false
        } else {
            entry.1.push(rank);
            true
        }
    }

    /// The fused coordinates kept under `lkey`, if any.
    pub(crate) fn coords(&self, lkey: u64) -> Option<Arc<[Coord]>> {
        self.coords.get(&lkey).cloned()
    }

    /// Keep `coords`, derived from live handle `content`, under `lkey`
    /// until the handle's last free. A handle that is not live keeps
    /// nothing: there would be no free to drop it.
    pub(crate) fn keep_coords(&mut self, content: u64, lkey: u64, coords: &Arc<[Coord]>) {
        if let Some(st) = self.handles.get_mut(&content).filter(|st| st.rc > 0) {
            if self.coords.insert(lkey, Arc::clone(coords)).is_none() {
                st.coords.push(lkey);
            }
        }
    }

    // -- resident results -------------------------------------------------

    /// Record a freshly produced resident result.
    pub(crate) fn record_result(&mut self, key: u64, info: ResultInfo) {
        self.results.insert(key, info);
    }

    /// Placement of a resident result, if known.
    pub(crate) fn result(&self, key: u64) -> Option<ResultInfo> {
        self.results.get(&key).copied()
    }

    /// Move a resident result to a new home rank (a redistribute).
    pub(crate) fn move_result(&mut self, key: u64, home: usize) {
        if let Some(info) = self.results.get_mut(&key) {
            info.home = home;
        }
    }

    /// Forget a resident result (it was downloaded or freed).
    pub(crate) fn forget_result(&mut self, key: u64) -> Option<ResultInfo> {
        self.results.remove(&key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_keys_are_content_keyed() {
        let dense = |dims: &[usize], data: &[f64]| {
            let t = DenseTensor::from_vec(dims.to_vec(), data.to_vec()).unwrap();
            OpHandle::new(Payload::Dense(Arc::new(t))).key()
        };
        let sparse = |dims: &[usize], entries: &[(u64, f64)]| {
            let t = SparseTensor::from_entries(dims.to_vec(), entries.to_vec()).unwrap();
            OpHandle::new(Payload::Sparse(Arc::new(t))).key()
        };
        let data = [1.0, 2.0, 3.0, 4.0];
        let base = dense(&[2, 2], &data);
        assert_eq!(base, dense(&[2, 2], &data), "same content, same key");
        let mut keys = vec![base];
        // a single-bit flip at each of the 64 bit positions of one element
        for bit in 0..64 {
            let mut flipped = data;
            flipped[2] = f64::from_bits(flipped[2].to_bits() ^ (1 << bit));
            keys.push(dense(&[2, 2], &flipped));
        }
        // +0.0 against −0.0
        keys.push(dense(&[2], &[0.0, 1.0]));
        keys.push(dense(&[2], &[-0.0, 1.0]));
        // the same data under other dims
        keys.push(dense(&[4], &data));
        keys.push(dense(&[4, 1], &data));
        keys.push(dense(&[1, 4], &data));
        // a sparse entry with its offset and its value's bits swapped
        keys.push(sparse(&[4], &[(1, f64::from_bits(2))]));
        keys.push(sparse(&[4], &[(2, f64::from_bits(1))]));
        // two sparse values swapped between offsets
        keys.push(sparse(&[2, 2], &[(0, 2.0), (1, 3.0)]));
        keys.push(sparse(&[2, 2], &[(0, 3.0), (1, 2.0)]));
        // a dense tensor whose dims and words are a sparse tensor's: only
        // the payload's tag word keeps them apart
        let words = [0, 2.0f64.to_bits(), 1, 3.0f64.to_bits()];
        keys.push(dense(&[4], &words.map(f64::from_bits)));
        keys.push(sparse(&[4], &[(0, 2.0), (1, 3.0)]));
        let mut distinct = keys.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), keys.len(), "every input its own key");
    }

    // (named for the provenance hash the book also kept until nothing
    // read it; the name stays because the test floor lists it)
    #[test]
    fn result_book_tracks_homes_and_provenance() {
        let mut r = Residency::default();
        r.record_result(10, ResultInfo { home: 2, words: 64 });
        assert_eq!(r.result(10).expect("recorded").home, 2);
        r.move_result(10, 0);
        assert_eq!(r.result(10).unwrap().home, 0, "redistribute moves home");
        assert_eq!(r.forget_result(10).unwrap().words, 64);
        assert!(r.result(10).is_none(), "downloaded results are forgotten");
    }

    #[test]
    fn residency_refcount_and_observation() {
        let mut r = Residency::default();
        r.retain(7);
        r.retain(7); // second upload of identical content
        assert!(r.observe(7, 100), "first use is a miss");
        assert!(!r.observe(7, 100), "second use hits");
        assert!(r.add_home(7, 100, 1));
        assert!(!r.add_home(7, 100, 1));
        assert!(r.add_home(7, 100, 2));
        assert!(r.release(7).unwrap().is_none(), "rc 2 -> 1 keeps residency");
        let left = r.release(7).unwrap().expect("last free returns leftovers");
        assert_eq!(left.physical, vec![(100, vec![1, 2])]);
        assert!(r.release(7).is_err(), "double free surfaces");
        // after the last free the logical charge comes back
        r.retain(7);
        assert!(r.observe(7, 100), "fresh resident period re-charges");
    }

    #[test]
    fn kept_coords_live_as_long_as_their_handle() {
        let mut r = Residency::default();
        let coords: Arc<[Coord]> = vec![(0, 1, 2.0)].into();
        r.keep_coords(7, 100, &coords);
        assert!(r.coords(100).is_none(), "no live handle, nothing kept");
        r.retain(7);
        r.retain(7);
        r.keep_coords(7, 100, &coords);
        assert_eq!(r.coords(100).as_deref(), Some(&coords[..]));
        r.release(7).unwrap();
        assert!(r.coords(100).is_some(), "rc 2 -> 1 keeps them");
        r.release(7).unwrap();
        assert!(r.coords(100).is_none(), "the last free drops them");
    }
}
