//! A small persistent worker pool.
//!
//! [`ExecMode::Threaded`](crate::ExecMode) executors dispatch their
//! block/row-chunked kernel work onto this pool. [`ThreadPool::run`] is an
//! ordered map over *borrowed* data: jobs may capture references into the
//! caller's frame (operands, packed panels, buckets — nothing is cloned
//! or `Arc`-wrapped to reach a lane), `run` does not return, or unwind,
//! before every job has finished, and results come back in submission
//! order so callers can rely on deterministic assembly. Workers are
//! persistent — a `std::thread::scope` per call would put a thread spawn
//! in front of every 30×8×30 GEMM — and survive panics in individual jobs.
//!
//! The kernels reach it through one function, `kernels::ordered_map`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// A queued job as the workers see it.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// One job of a [`ThreadPool::run`] call: it may borrow from the caller's
/// frame for `'a`.
pub type PoolJob<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// Fixed-size pool of worker threads consuming a shared job queue.
pub struct ThreadPool {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

/// The result channel of one [`ThreadPool::run`] call. Every submitted job
/// owns a clone of `tx` and drops it only when it has finished (or
/// unwound), so draining `rx` to its end *is* waiting for every job — and
/// doing it in `Drop` makes that hold on every way out of `run`, a panic
/// included.
struct Results<T> {
    tx: Option<Sender<(usize, T)>>,
    rx: Receiver<(usize, T)>,
}

impl<T> Drop for Results<T> {
    fn drop(&mut self) {
        self.tx = None;
        for _ in self.rx.iter() {}
    }
}

impl ThreadPool {
    /// Spawn `threads` workers (clamped to at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads)
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("tt-dist-worker-{i}"))
                    .spawn(move || worker_loop(rx))
                    .expect("spawn worker")
            })
            .collect();
        Self {
            tx: Some(tx),
            workers,
            threads,
        }
    }

    /// Pool sized to the host's available parallelism (capped at 8 — the
    /// kernels here saturate memory bandwidth well before that).
    pub fn default_size() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(8);
        Self::new(n)
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `jobs` on the pool and collect their results in submission
    /// order. Jobs may borrow from the caller: `run` blocks until every
    /// one of them has finished, also when it panics (because a job did —
    /// the panic surfaces here once the others are done).
    pub fn run<'a, T: Send + 'a>(&self, jobs: Vec<PoolJob<'a, T>>) -> Vec<T> {
        let n = jobs.len();
        let (tx, rx) = channel::<(usize, T)>();
        let mut results = Results { tx: Some(tx), rx };
        for (i, job) in jobs.into_iter().enumerate() {
            let rtx = results.tx.clone().expect("open until all jobs are queued");
            let wrapped: Box<dyn FnOnce() + Send + 'a> = Box::new(move || {
                let out = job();
                let _ = rtx.send((i, out));
            });
            // SAFETY: only the lifetime bound of the trait object changes
            // (same layout). What `wrapped` borrows for `'a` outlives this
            // call, and the closure cannot outlive this call: it owns a
            // sender, dropped only when the closure has run to its end,
            // unwound, or been dropped unrun, and `results` — on every
            // path out of this function, unwinding included — blocks in
            // its `Drop` until all senders are gone. A queued closure is
            // always consumed: workers exit only when `self.tx` drops,
            // which `&self` rules out for the duration of the call.
            let wrapped: Job = unsafe { std::mem::transmute(wrapped) };
            self.tx
                .as_ref()
                .expect("pool alive")
                .send(wrapped)
                .expect("workers alive");
        }
        results.tx = None;
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        for (i, out) in results.rx.iter() {
            slots[i] = Some(out);
        }
        slots
            .into_iter()
            .map(|s| s.expect("job completed without result (worker panicked)"))
            .collect()
    }
}

fn worker_loop(rx: Arc<Mutex<Receiver<Job>>>) {
    loop {
        let job = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return,
        };
        match job {
            Ok(job) => {
                // A panicking job must not take the worker down with it;
                // the submitter sees the missing result instead.
                let _ = catch_unwind(AssertUnwindSafe(job));
            }
            Err(_) => return, // queue closed
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        drop(self.tx.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{PoolJob, ThreadPool};
    use crate::kernels::ordered_map;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn results_in_submission_order() {
        let pool = ThreadPool::new(4);
        let jobs: Vec<PoolJob<usize>> = (0..32usize)
            .map(|i| Box::new(move || i * i) as PoolJob<usize>)
            .collect();
        let out = pool.run(jobs);
        assert_eq!(out, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn pool_survives_reuse() {
        let pool = ThreadPool::new(2);
        for round in 0..5usize {
            let jobs: Vec<PoolJob<usize>> = (0..8usize)
                .map(|i| Box::new(move || round + i) as PoolJob<usize>)
                .collect();
            assert_eq!(pool.run(jobs).len(), 8);
        }
    }

    #[test]
    fn jobs_borrow_inputs_and_results_keep_submission_order() {
        let pool = ThreadPool::new(3);
        // caller-owned, never cloned: every job reads its own row by reference
        let rows: Vec<Vec<u64>> = (0..17).map(|i| (0..=i).collect()).collect();
        let jobs: Vec<PoolJob<(usize, &[u64], u64)>> = rows
            .iter()
            .enumerate()
            .map(|(i, row)| {
                Box::new(move || (i, row.as_slice(), row.iter().sum::<u64>())) as PoolJob<_>
            })
            .collect();
        for (i, (at, row, sum)) in pool.run(jobs).into_iter().enumerate() {
            assert_eq!(at, i);
            assert!(
                std::ptr::eq(row, rows[i].as_slice()),
                "borrowed, not copied"
            );
            assert_eq!(sum, (i * (i + 1) / 2) as u64);
        }
    }

    #[test]
    fn jobs_mutate_disjoint_slices_of_a_caller_buffer() {
        let pool = ThreadPool::new(4);
        let mut buf = vec![0usize; 64];
        let jobs: Vec<PoolJob<()>> = buf
            .chunks_mut(10)
            .enumerate()
            .map(|(c, chunk)| {
                Box::new(move || {
                    for (j, x) in chunk.iter_mut().enumerate() {
                        *x = 10 * c + j;
                    }
                }) as PoolJob<()>
            })
            .collect();
        pool.run(jobs);
        assert_eq!(buf, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_job_waits_for_its_siblings_and_spares_the_pool() {
        let pool = ThreadPool::new(4);
        let finished = AtomicUsize::new(0);
        let jobs: Vec<PoolJob<()>> = (0..4)
            .map(|i| {
                let finished = &finished;
                Box::new(move || {
                    if i == 0 {
                        panic!("job 0 fails at once");
                    }
                    // still holding the borrow of `finished` well after job
                    // 0 has unwound: an early exit from `run` would read 0
                    std::thread::sleep(Duration::from_millis(60));
                    finished.fetch_add(1, Ordering::SeqCst);
                }) as PoolJob<()>
            })
            .collect();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.run(jobs)));
        assert!(
            outcome.is_err(),
            "the job's panic surfaces in the submitter"
        );
        assert_eq!(
            finished.load(Ordering::SeqCst),
            3,
            "run unwound before every sibling had finished"
        );
        // every worker caught its job's unwind and serves the next call
        let again: Vec<PoolJob<usize>> = (0..8usize)
            .map(|i| Box::new(move || i + 1) as PoolJob<usize>)
            .collect();
        assert_eq!(pool.run(again), (1..=8).collect::<Vec<_>>());
    }

    #[test]
    fn ordered_map_is_the_same_list_with_and_without_a_pool() {
        let pool = ThreadPool::new(3);
        let base = [5usize, 7, 11, 13, 17, 19, 23];
        for n in [0usize, 1, 7] {
            let expect: Vec<usize> = (0..n).map(|i| base[i] * i).collect();
            for pool in [None, Some(&pool)] {
                let got = ordered_map(pool, 0..n, |i| base[i] * i);
                assert_eq!(got, expect, "n={n} pool={}", pool.is_some());
            }
        }
        // one call runs on the caller's thread even when there is a pool
        let here = std::thread::current().id();
        let ran_on = ordered_map(Some(&pool), 0..1, |_| std::thread::current().id());
        assert_eq!(ran_on, [here]);
        let ran_on = ordered_map(Some(&pool), 0..2, |_| std::thread::current().id());
        assert!(ran_on.iter().all(|&id| id != here));
    }
}
