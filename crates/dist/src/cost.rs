//! BSP cost accounting: simulated time, supersteps, critical-path bytes.
//!
//! Besides the shared [`CostTracker`] every executor owns, this module
//! hosts the **job scope** machinery used by the multi-tenant solve
//! service (`tt_dist::service`): a thread-local [`JobScope`] guard that
//! mirrors every charge made on the calling thread into a second,
//! per-job tracker, keeps a per-job *logical charge book* (so a job's
//! miss/hit sequence is exactly what a fresh executor would see — the
//! as-if-run-alone meter), tracks the job's retained operand footprint,
//! and carries an optional per-job request deadline that overrides the
//! transport default. With no scope installed every helper is a no-op
//! passthrough, so single-job callers are unaffected.

use crate::machine::Machine;
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashSet;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Simulated wall time of one run, split into the Fig. 7 categories.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SimTime {
    /// Dense GEMM compute time.
    pub gemm: f64,
    /// Sparse contraction compute time.
    pub sparse: f64,
    /// TTGT transposition / packing traffic.
    pub transpose: f64,
    /// Communication (α supersteps + β volume).
    pub comm: f64,
    /// Dense SVD time.
    pub svd: f64,
    /// Idle time from uneven tile sizes on the process grid.
    pub imbalance: f64,
    /// Task-mapping and bookkeeping overhead.
    pub other: f64,
}

impl SimTime {
    /// Total simulated seconds.
    pub fn total(&self) -> f64 {
        self.gemm
            + self.sparse
            + self.transpose
            + self.comm
            + self.svd
            + self.imbalance
            + self.other
    }

    /// Percentage breakdown in the paper's Fig. 7 order:
    /// `[svd, imbalance, transposition(+other), communication, gemm+sparse]`.
    pub fn percentages(&self) -> [f64; 5] {
        let t = self.total();
        if t <= 0.0 {
            return [0.0; 5];
        }
        [
            100.0 * self.svd / t,
            100.0 * self.imbalance / t,
            100.0 * (self.transpose + self.other) / t,
            100.0 * self.comm / t,
            100.0 * (self.gemm + self.sparse) / t,
        ]
    }

    /// Accumulate another breakdown into this one.
    pub fn accumulate(&mut self, other: &SimTime) {
        self.gemm += other.gemm;
        self.sparse += other.sparse;
        self.transpose += other.transpose;
        self.comm += other.comm;
        self.svd += other.svd;
        self.imbalance += other.imbalance;
        self.other += other.other;
    }
}

/// Mutable cost state shared (behind a mutex) by everything that charges
/// simulated work: the executors.
#[derive(Clone, Debug)]
pub struct CostTracker {
    /// The machine being simulated.
    pub machine: Machine,
    /// Total ranks participating.
    pub ranks: usize,
    /// Flops executed through the runtime.
    pub flops: u64,
    /// BSP supersteps on the critical path.
    pub supersteps: u64,
    /// Bytes moved along the critical path.
    pub bytes_critical: u64,
    /// Operand bytes the driver actually shipped to workers (request
    /// payloads on the multi-process data plane; zero on the in-process
    /// backends, which move nothing).
    pub bytes_operands: u64,
    /// Result bytes workers actually returned to the driver (reply
    /// payloads on the multi-process data plane).
    pub bytes_results: u64,
    /// Bytes moved only because of fault recovery: journal replay and
    /// re-issued in-flight requests after a worker respawn/retire, plus
    /// undecodable reply frames. Kept separate so `bytes_operands` /
    /// `bytes_results` stay equal to the fault-free run — the
    /// determinism-under-recovery contract.
    pub bytes_recovery: u64,
    /// Simulated time breakdown.
    pub sim: SimTime,
}

impl CostTracker {
    /// Fresh tracker for `ranks` ranks of `machine`.
    pub fn new(machine: Machine, ranks: usize) -> Self {
        Self {
            machine,
            ranks: ranks.max(1),
            flops: 0,
            supersteps: 0,
            bytes_critical: 0,
            bytes_operands: 0,
            bytes_results: 0,
            bytes_recovery: 0,
            sim: SimTime::default(),
        }
    }

    /// Zero all counters (the machine and rank count are kept).
    pub fn reset(&mut self) {
        self.flops = 0;
        self.supersteps = 0;
        self.bytes_critical = 0;
        self.bytes_operands = 0;
        self.bytes_results = 0;
        self.bytes_recovery = 0;
        self.sim = SimTime::default();
    }

    /// Charge one BSP superstep moving `bytes` along the critical path.
    pub fn charge_superstep(&mut self, bytes: u64) {
        self.supersteps += 1;
        self.bytes_critical += bytes;
        self.sim.comm += self.machine.alpha_s + bytes as f64 * self.machine.beta_s_per_byte;
    }

    /// Charge `steps` supersteps that together move `bytes`.
    pub fn charge_supersteps(&mut self, steps: u64, bytes: u64) {
        self.supersteps += steps;
        self.bytes_critical += bytes;
        self.sim.comm +=
            steps as f64 * self.machine.alpha_s + bytes as f64 * self.machine.beta_s_per_byte;
    }
}

/// Live operand-footprint meter for one job: net retained words and the
/// peak, fed by the executor's upload/free paths while a [`JobScope`] is
/// installed. Shared with the service scheduler, which enforces the
/// per-job resident-byte cap against [`ResidentMeter::peak_bytes`].
#[derive(Debug, Default)]
pub struct ResidentMeter {
    words: AtomicI64,
    peak_words: AtomicU64,
}

impl ResidentMeter {
    /// Fresh meter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Account a retain (+words) or release (-words).
    fn account(&self, delta_words: i64) {
        let now = self.words.fetch_add(delta_words, Ordering::Relaxed) + delta_words;
        if now > 0 {
            self.peak_words.fetch_max(now as u64, Ordering::Relaxed);
        }
    }

    /// Currently retained operand bytes (8 bytes per word).
    pub fn bytes(&self) -> u64 {
        self.words.load(Ordering::Relaxed).max(0) as u64 * 8
    }

    /// Peak retained operand bytes over the scope's lifetime.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_words.load(Ordering::Relaxed) * 8
    }
}

/// The scope's private mirror of the driver's logical charge book,
/// with the same lifecycle as [`Residency`](crate::handle): lkeys charge
/// once per *resident period* of their content, and the job's final free
/// of a content forgets its lkeys — so a later re-upload re-charges,
/// exactly as it would on a fresh single-tenant executor.
#[derive(Default)]
struct ScopeBook {
    /// Logical derived keys already charged.
    charged: HashSet<u64>,
    /// Per-content upload refcount and the lkeys charged under it.
    contents: std::collections::HashMap<u64, (usize, Vec<u64>)>,
}

impl ScopeBook {
    fn retain(&mut self, content: u64) {
        self.contents.entry(content).or_insert((0, Vec::new())).0 += 1;
    }

    fn observe(&mut self, content: u64, lkey: u64) -> bool {
        if !self.charged.insert(lkey) {
            return false;
        }
        if let Some((_, lkeys)) = self.contents.get_mut(&content) {
            lkeys.push(lkey);
        }
        true
    }

    fn release(&mut self, content: u64) {
        if let Some((rc, lkeys)) = self.contents.get_mut(&content) {
            *rc = rc.saturating_sub(1);
            if *rc == 0 {
                for k in lkeys.drain(..) {
                    self.charged.remove(&k);
                }
                self.contents.remove(&content);
            }
        }
    }
}

struct ScopeState {
    tracker: Arc<Mutex<CostTracker>>,
    book: ScopeBook,
    resident: Arc<ResidentMeter>,
    deadline: Option<Duration>,
}

thread_local! {
    static JOB_SCOPE: RefCell<Option<ScopeState>> = const { RefCell::new(None) };
}

/// RAII guard installing a per-job cost scope on the **current thread**.
///
/// While alive, every α–β / flop / byte charge made on this thread is
/// mirrored into `tracker` (in addition to the executor's shared
/// tracker), operand hit/miss classification consults the scope's own
/// logical charge book instead of the executor-wide one, retained
/// operand words are accounted into `resident`, and blocking transport
/// operations use `deadline` (when set) instead of the fleet default.
///
/// The multi-process backend executes entirely on the calling thread, so
/// thread-local attribution captures a job completely. Scopes do not
/// nest: installing a second scope on the same thread panics.
pub struct JobScope {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl JobScope {
    /// Install a scope on this thread. `tracker` should be fresh
    /// (`CostTracker::new` with the executor's machine and rank count)
    /// so the mirrored charges read as a standalone run.
    pub fn enter(
        tracker: Arc<Mutex<CostTracker>>,
        resident: Arc<ResidentMeter>,
        deadline: Option<Duration>,
    ) -> Self {
        JOB_SCOPE.with(|s| {
            let mut slot = s.borrow_mut();
            assert!(slot.is_none(), "job scopes do not nest");
            *slot = Some(ScopeState {
                tracker,
                book: ScopeBook::default(),
                resident,
                deadline,
            });
        });
        JobScope {
            _not_send: std::marker::PhantomData,
        }
    }
}

impl Drop for JobScope {
    fn drop(&mut self) {
        JOB_SCOPE.with(|s| s.borrow_mut().take());
    }
}

/// Apply `f` to the shared tracker and, when a [`JobScope`] is installed
/// on this thread, to the job's tracker too. The two locks are taken
/// sequentially, never nested.
pub(crate) fn charge(main: &Mutex<CostTracker>, f: impl Fn(&mut CostTracker)) {
    f(&mut main.lock());
    JOB_SCOPE.with(|s| {
        if let Some(state) = s.borrow().as_ref() {
            f(&mut state.tracker.lock());
        }
    });
}

/// When a scope is installed, record one upload of `content` in the
/// job's charge book.
pub(crate) fn scope_retain(content: u64) {
    JOB_SCOPE.with(|s| {
        if let Some(state) = s.borrow_mut().as_mut() {
            state.book.retain(content);
        }
    });
}

/// When a scope is installed, record `lkey` (derived from `content`) in
/// the job's charge book and return `Some(first_sighting)`; `None` means
/// no scope (use the executor-wide book).
pub(crate) fn scope_observe(content: u64, lkey: u64) -> Option<bool> {
    JOB_SCOPE.with(|s| {
        s.borrow_mut()
            .as_mut()
            .map(|state| state.book.observe(content, lkey))
    })
}

/// When a scope is installed, record one free of `content`: the last
/// free forgets the content's charged lkeys, so a re-upload re-charges
/// as it would on a fresh executor.
pub(crate) fn scope_release(content: u64) {
    JOB_SCOPE.with(|s| {
        if let Some(state) = s.borrow_mut().as_mut() {
            state.book.release(content);
        }
    });
}

/// The per-job deadline of the scope installed on this thread, if any.
pub(crate) fn scope_deadline() -> Option<Duration> {
    JOB_SCOPE.with(|s| s.borrow().as_ref().and_then(|state| state.deadline))
}

/// Account retained operand words (+retain / -release) to the scope's
/// resident meter, if one is installed.
pub(crate) fn scope_account(delta_words: i64) {
    JOB_SCOPE.with(|s| {
        if let Some(state) = s.borrow().as_ref() {
            state.resident.account(delta_words);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentages_sum_to_100() {
        let sim = SimTime {
            gemm: 1.0,
            sparse: 2.0,
            transpose: 0.5,
            comm: 1.5,
            svd: 3.0,
            imbalance: 1.0,
            other: 1.0,
        };
        let p = sim.percentages();
        assert!((p.iter().sum::<f64>() - 100.0).abs() < 1e-9);
        assert_eq!(SimTime::default().percentages(), [0.0; 5]);
    }

    #[test]
    fn superstep_charging_uses_alpha_beta() {
        let mut t = CostTracker::new(Machine::blue_waters(16), 4);
        t.charge_superstep(9_600);
        assert_eq!(t.supersteps, 1);
        assert_eq!(t.bytes_critical, 9_600);
        let expect = 1.5e-6 + 9_600.0 / 9.6e9;
        assert!((t.sim.comm - expect).abs() < 1e-12);
        t.reset();
        assert_eq!(t.supersteps, 0);
        assert_eq!(t.sim.total(), 0.0);
    }

    #[test]
    fn job_scope_mirrors_charges_and_books_independently() {
        let main = Mutex::new(CostTracker::new(Machine::local(), 2));
        // No scope: helpers are passthrough.
        assert_eq!(scope_observe(1, 7), None);
        assert_eq!(scope_deadline(), None);
        charge(&main, |t| t.flops += 10);
        assert_eq!(main.lock().flops, 10);

        let job = Arc::new(Mutex::new(CostTracker::new(Machine::local(), 2)));
        let meter = Arc::new(ResidentMeter::new());
        {
            let _scope = JobScope::enter(
                Arc::clone(&job),
                Arc::clone(&meter),
                Some(Duration::from_millis(250)),
            );
            charge(&main, |t| {
                t.flops += 5;
                t.charge_superstep(800);
            });
            // The job's book starts empty even though the main side saw 7.
            scope_retain(1);
            assert_eq!(scope_observe(1, 7), Some(true));
            assert_eq!(scope_observe(1, 7), Some(false));
            // A second upload of the content keeps the book entry alive
            // across the first free; the last free forgets it.
            scope_retain(1);
            scope_release(1);
            assert_eq!(scope_observe(1, 7), Some(false));
            scope_release(1);
            assert_eq!(scope_observe(1, 7), Some(true));
            assert_eq!(scope_deadline(), Some(Duration::from_millis(250)));
            scope_account(100);
            scope_account(-40);
            scope_account(60);
        }
        assert_eq!(main.lock().flops, 15);
        assert_eq!(job.lock().flops, 5);
        assert_eq!(job.lock().supersteps, 1);
        assert_eq!(job.lock().bytes_critical, 800);
        assert_eq!(meter.bytes(), 120 * 8);
        assert_eq!(meter.peak_bytes(), 120 * 8);
        // Guard dropped: thread-local cleared.
        assert_eq!(scope_observe(1, 9), None);
        assert_eq!(scope_deadline(), None);
    }
}
