//! One rank's keyed buffer store and the resolution of operands against
//! it.

use super::protocol::{Op, OpCoords, OpSs, SsTable};
use crate::exec::Workspace;
use crate::kernels;
use crate::{Error, Result};
use std::collections::HashMap;
use std::sync::Arc;
use tt_tensor::ssmerge::SsBTable;

/// One resident buffer.
pub(super) enum Cached {
    Dense(Arc<Vec<f64>>),
    Coords(Arc<Vec<kernels::Coord>>),
    /// A sparse-sparse chain step's result.
    Slots(Arc<kernels::SsSlots>),
}

impl Cached {
    /// Deterministic byte accounting of the buffer.
    fn bytes(&self) -> u64 {
        match self {
            Cached::Dense(data) => 8 * data.len() as u64,
            Cached::Coords(v) => 24 * v.len() as u64,
            // a value and a touched flag per slot
            Cached::Slots(s) => 9 * s.slots.vals.len() as u64,
        }
    }
}

/// An inline grouped sparse-sparse `B` operand of a chunk `n` columns wide
/// as the flat sorted-run table the merge kernel consumes. The wire shape
/// is already the table's layout, so this is a validation pass plus a
/// prefix sum ([`SsBTable::from_runs`] only `debug_assert`s its
/// invariants, the kernel trusts its columns, and a malformed frame must
/// surface as a transport error).
fn ss_table(table: SsTable, n: u64) -> Result<SsBTable<f64>> {
    let SsTable {
        keys,
        lens,
        cols,
        vals,
    } = table;
    let total = lens.iter().try_fold(0u64, |sum, &len| sum.checked_add(len));
    if cols.len() != vals.len() || keys.len() != lens.len() || total != Some(cols.len() as u64) {
        return Err(Error::transport("ss group table mismatch"));
    }
    if !keys.windows(2).all(|w| w[0] < w[1]) {
        return Err(Error::transport(
            "ss group table keys not strictly ascending",
        ));
    }
    // a column past the panel's width would land in the next row's slot
    if cols.iter().any(|&c| c >= n) {
        return Err(Error::transport("ss group table column out of range"));
    }
    Ok(SsBTable::from_runs(keys, &lens, cols, vals))
}

/// One rank's resident state: a keyed buffer store and its counters.
#[derive(Default)]
pub(crate) struct WorkerState {
    pub(super) store: HashMap<u64, Cached>,
    pub(super) bytes: u64,
    /// Keyed lookups served from the store (lifetime).
    pub(super) hits: u64,
    /// Fresh insertions — key not already resident (lifetime).
    pub(super) misses: u64,
    /// Where `SdContract` draws its large temporaries from (a stored
    /// result, a permuted `B`) and a freed dense result goes: a chain's
    /// intermediates serve the next chain's. Not part of the store —
    /// `bytes` counts what the driver can name.
    pub(super) workspace: Workspace,
}

impl WorkerState {
    /// Fresh state with an empty store.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Insert (or replace) the buffer under `key`.
    pub(super) fn insert(&mut self, key: u64, val: Cached) {
        self.bytes += val.bytes();
        match self.store.insert(key, val) {
            Some(old) => self.bytes -= old.bytes(),
            None => self.misses += 1,
        }
    }

    /// Remove the buffer under `key`, if any.
    pub(super) fn remove(&mut self, key: u64) -> Option<Cached> {
        let val = self.store.remove(&key)?;
        self.bytes -= val.bytes();
        Some(val)
    }

    /// Drop the buffer under `key`, if any (`Free`). A free ends the run
    /// of requests that is the workspace's call; a dense buffer nobody
    /// else holds goes back to it.
    pub(super) fn free(&mut self, key: u64) {
        self.workspace.settle();
        if let Some(Cached::Dense(buf)) = self.remove(key) {
            if let Ok(data) = Arc::try_unwrap(buf) {
                self.workspace.give(data);
            }
        }
    }

    fn get(&mut self, key: u64) -> Result<&Cached> {
        let val = self
            .store
            .get(&key)
            .ok_or_else(|| Error::transport(format!("no buffer under key {key:#x}")))?;
        self.hits += 1;
        Ok(val)
    }

    fn get_dense(&mut self, key: u64) -> Result<Arc<Vec<f64>>> {
        match self.get(key)? {
            Cached::Dense(buf) => Ok(Arc::clone(buf)),
            _ => Err(Error::transport(format!(
                "key {key:#x} is not a dense buffer"
            ))),
        }
    }

    fn get_coords(&mut self, key: u64) -> Result<Arc<Vec<kernels::Coord>>> {
        match self.get(key)? {
            Cached::Coords(v) => Ok(Arc::clone(v)),
            _ => Err(Error::transport(format!(
                "key {key:#x} is not a coordinate bucket"
            ))),
        }
    }

    /// Take a resolved operand by value: moves the buffer out when the
    /// `Arc` is unique (inline operands), copies only when it is shared
    /// (resident buffers, which must stay in the store).
    pub(super) fn take(buf: Arc<Vec<f64>>) -> Vec<f64> {
        Arc::try_unwrap(buf).unwrap_or_else(|a| a.as_ref().clone())
    }

    /// Resolve an [`OpSs`] to the table of a chunk `n` columns wide: the
    /// inline one validated, or a stored sparse-sparse result read through
    /// the operand's weights ([`kernels::SsSlots::table`]).
    pub(super) fn opss(&mut self, op: OpSs, n: u64) -> Result<SsBTable<f64>> {
        match op {
            OpSs::Inline(table) => ss_table(table, n),
            OpSs::Key { key, key_w, col_w } => match self.get(key)? {
                Cached::Slots(s) => s.table(&key_w, &col_w, n),
                _ => Err(Error::transport(format!(
                    "key {key:#x} is not a sparse-sparse result"
                ))),
            },
        }
    }

    /// Resolve an [`Op`] to owned-or-resident dense data.
    pub(super) fn op(&mut self, op: Op) -> Result<Arc<Vec<f64>>> {
        match op {
            Op::Inline(data) => Ok(Arc::new(data)),
            Op::Key(k) => self.get_dense(k),
        }
    }

    pub(super) fn opcoords(&mut self, op: OpCoords) -> Result<Arc<Vec<kernels::Coord>>> {
        match op {
            OpCoords::Inline { rows, cols, vals } => {
                if rows.len() != cols.len() || rows.len() != vals.len() {
                    return Err(Error::transport("coordinate arity mismatch"));
                }
                Ok(Arc::new(
                    rows.into_iter()
                        .zip(cols)
                        .zip(vals)
                        .map(|((r, c), v)| (r, c, v))
                        .collect(),
                ))
            }
            OpCoords::Key(k) => self.get_coords(k),
        }
    }

    /// Store a fresh resident result under `key`. The first partial of an
    /// output block is *stored*, not added to zeros (`-0.0 + 0.0` would
    /// flip sign bits), exactly like the driver-side value path inserts its
    /// first partial.
    pub(super) fn store(&mut self, key: u64, data: Vec<f64>) {
        self.insert(key, Cached::Dense(Arc::new(data)));
    }

    /// Accumulate into the resident result under `key`: `add` adds a
    /// partial into the buffer elementwise and refuses, leaving it intact,
    /// a buffer of the wrong length.
    pub(super) fn accumulate(
        &mut self,
        key: u64,
        add: impl FnOnce(&mut [f64]) -> Result<()>,
    ) -> Result<()> {
        let entry = self
            .store
            .get_mut(&key)
            .ok_or_else(|| Error::transport(format!("no chain result under key {key:#x}")))?;
        let Cached::Dense(target) = entry else {
            return Err(Error::transport("chain result has wrong payload type"));
        };
        add(Arc::make_mut(target).as_mut_slice())
            .map_err(|e| Error::transport(format!("chain partial shape mismatch: {e}")))
    }
}
