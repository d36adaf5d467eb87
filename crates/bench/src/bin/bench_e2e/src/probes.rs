//! Layer probes: fixed-shape calls into single layers, timed from here.
//! Shapes are fixed in this file; each probe reports the median of its
//! repetitions.

use crate::sweeps::{run_sweep, sequential, two_processes, Res, SweepWorkload, Warm};
use crate::{Metric, Rng};
use std::hint::black_box;
use std::time::Instant;
use tt_blocks::contract::contract_list;
use tt_blocks::BlockSparseTensor;
use tt_dist::{ExecMode, Executor, Machine};
use tt_tensor::{DenseTensor, SparseTensor};

/// Wall seconds of each of `reps` calls of `f`.
fn time(reps: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// A rate metric from per-call times: the median rate, with the slowest
/// and fastest call as min and max.
fn rate(name: &str, unit: &str, work: f64, times: &[f64]) -> Metric {
    let rates: Vec<f64> = times.iter().map(|t| work / t).collect();
    Metric::samples(name, unit, &rates)
}

/// A dense operand with entries uniform in [-1, 1), the same every run.
fn fill(dims: [usize; 2]) -> DenseTensor<f64> {
    let mut rng = Rng(7);
    DenseTensor::from_fn(dims, |_| 2.0 * rng.unit() - 1.0)
}

/// `bench_kernels`' front-loaded sparse operand: row 0 full, last rows
/// empty.
fn skewed_sparse(m: usize, k: usize) -> SparseTensor<f64> {
    let dense = DenseTensor::<f64>::from_fn([m, k], |idx| {
        let cutoff = k - (k * idx[0] * idx[0]) / (m * m);
        if idx[1] < cutoff {
            (idx[0] + idx[1]) as f64 / (m + k) as f64 - 0.5
        } else {
            0.0
        }
    });
    SparseTensor::from_dense(&dense, 0.0)
}

/// `tensor`, `dist.kernels` and `linalg`: the kernels under the sweeps.
pub fn kernels(out: &mut Vec<Metric>) {
    let s = 256;
    let (a, b) = (fill([s, s]), fill([s, s]));
    let mut c = vec![0.0f64; s * s];
    let times = time(40, || {
        c.fill(0.0);
        tt_tensor::gemm::gemm_acc_slices(s, s, s, a.data(), b.data(), &mut c);
        black_box(&c);
    });
    let flops = 2.0 * (s as f64).powi(3);
    out.push(rate("tensor.gemm_gflops", "GFlop/s", flops * 1e-9, &times));

    let (a, x) = (fill([1024, 1024]), fill([1024, 1]));
    let times = time(100, || {
        black_box(tt_tensor::gemm_f64(&a, &x).expect("gemv shapes agree"));
    });
    let flops = 2.0 * 1024.0 * 1024.0;
    out.push(rate("tensor.gemv_gflops", "GFlop/s", flops * 1e-9, &times));

    let (m, k, n) = (1024, 256, 128);
    let sparse = skewed_sparse(m, k);
    let dense = fill([k, n]);
    let exec = sequential();
    let times = time(10, || {
        black_box(
            exec.contract_sd("ik,kj->ij", &sparse, &dense)
                .expect("sd shapes agree"),
        );
    });
    let flops = exec.total_flops() as f64 / 10.0;
    out.push(rate(
        "dist.kernels.sd_gflops",
        "GFlop/s",
        flops * 1e-9,
        &times,
    ));

    let half = SparseTensor::from_dense(&dense, 0.5);
    let exec = sequential();
    let times = time(10, || {
        black_box(
            exec.contract_ss("ik,kj->ij", &sparse, &half, None)
                .expect("ss shapes agree"),
        );
    });
    let flops = exec.total_flops() as f64 / 10.0;
    out.push(rate(
        "dist.kernels.ss_gflops",
        "GFlop/s",
        flops * 1e-9,
        &times,
    ));

    let a = fill([s, s]);
    let times = time(3, || {
        black_box(tt_linalg::svd(&a).expect("svd converges"));
    });
    out.push(Metric::samples("linalg.svd_256_s", "s", &times));
}

/// `blocks` on the warm state's middle bond: the value path
/// (`contract_list`) against the conversions the sparse algorithms pay
/// (`to_flat_sparse`, `to_dense`, `from_dense`).
pub fn middle_bond(out: &mut Vec<Metric>, warm: &Warm) {
    let exec = sequential();
    let mid = warm.mps.n_sites() / 2 - 1;
    let (a, b) = (warm.mps.tensor(mid), warm.mps.tensor(mid + 1));
    let two_site = || contract_list(&exec, "lsj,jtk->lstk", a, b).expect("bond indices match");
    let times = time(20, || {
        black_box(two_site());
    });
    out.push(Metric::samples("blocks.contract_list_s", "s", &times));

    let x = two_site();
    let times = time(20, || {
        black_box(x.to_flat_sparse());
        let dense = x.to_dense();
        black_box(
            BlockSparseTensor::from_dense(x.indices().to_vec(), x.flux(), &dense, 0.0)
                .expect("dense image has the tensor's shape"),
        );
    });
    out.push(Metric::samples("blocks.flatten_s", "s", &times));
}

/// `dist.transport` and `dist.pool`, on the multi-process workload:
/// what a round trip costs, what shipping a dense operand costs, and
/// the Threaded pool against Sequential on the same sweep.
pub fn transport(out: &mut Vec<Metric>, w: &SweepWorkload, warm: &Warm, seed: u64) -> Res<()> {
    let mp = two_processes()?;
    let seq = sequential();
    let mut failed = None;
    let times = time(200, || {
        if let Err(e) = mp.worker_cache_stats() {
            failed = Some(e);
        }
    });
    if let Some(e) = failed {
        return Err(e.into());
    }
    let micros: Vec<f64> = times.iter().map(|t| t * 1e6).collect();
    out.push(Metric::samples("dist.transport.rtt_us", "us", &micros));

    // pairs, so that drift in machine state cancels in the ratio
    let (a, b) = (fill([256, 256]), fill([256, 256]));
    let mut ratios = Vec::new();
    for _ in 0..10 {
        let t = Instant::now();
        black_box(mp.contract("ik,kj->ij", &a, &b)?);
        let over = t.elapsed().as_secs_f64();
        let t = Instant::now();
        black_box(seq.contract("ik,kj->ij", &a, &b)?);
        ratios.push(over / t.elapsed().as_secs_f64());
    }
    out.push(Metric::samples(
        "dist.transport.dense256_mp_over_seq",
        "ratio",
        &ratios,
    ));
    drop(mp);

    let threaded = Executor::with_machine(Machine::local(), 1, ExecMode::Threaded);
    let mut ratios = Vec::new();
    for _ in 0..3 {
        ratios.push(run_sweep(&threaded, w, warm, seed)?.0 / run_sweep(&seq, w, warm, seed)?.0);
    }
    out.push(Metric::samples("dist.pool.thr_over_seq", "ratio", &ratios));
    Ok(())
}
