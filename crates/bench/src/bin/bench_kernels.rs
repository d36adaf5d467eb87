//! Kernel performance baseline and CI regression gate.
//!
//! Times the contraction hot-path kernels, writes `BENCH_kernels.json`
//! (GFlop/s per kernel/size), and — with `--check <baseline.json>` —
//! compares the measured numbers against a committed baseline and **fails
//! (exit 1) if any kernel regresses more than 30% in GFlop/s**, printing a
//! per-kernel diff table.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p tt-bench --bin bench_kernels                # full run, writes baseline
//! cargo run --release -p tt-bench --bin bench_kernels -- --smoke    # CI-sized run
//! cargo run --release -p tt-bench --bin bench_kernels -- --smoke --check BENCH_kernels.json
//! ```
//!
//! The full run's sizes are a superset of the smoke sizes, so a smoke run
//! always finds its `(kernel, size)` pairs in a committed full baseline.
//! The full run also includes the 512³ `f64` case used as PR 2's
//! acceptance gate (packed GEMM ≥ 2× the seed scalar kernel) and the
//! sparse *crossover* cases: the small sparse size sits below
//! `SPARSE_PAR_MIN_FLOPS` (threaded stays on one worker), the large ones
//! sit above it and engage the pool. Sequential and threaded sparse runs
//! are timed *alternating inside one rep loop, swapping which mode goes
//! first each rep* — timing all reps of one mode before the other charged
//! whichever block ran first with the cold cache/frequency state (an
//! earlier baseline recorded a phantom 1.6× "threaded regression" on an
//! identical code path that way), and even alternating with a fixed order
//! leaves the second slot of every pair systematically slower on a busy
//! or frequency-drifting machine. GFlop/s rates use best-of timing; the
//! threaded-parity assertion instead uses the median of paired ratios
//! (see [`pair_ratios`]), which both slot bias and one-off hiccups
//! cancel out of.
//!
//! The `blocks_*` rows time the block↔flat conversions the sparse
//! algorithms pay around their kernels (`to_dense`, `from_dense`,
//! `to_flat_sparse`, `from_flat_sparse`) on middle-bond tensors of warm
//! DMRG states. They move elements, not flops: their "gflops" column is
//! 10⁹ stored elements per second. The `permute` rows time
//! `tt_tensor::transpose::permute` — one case per kernel branch at the
//! shapes the spins m=64 matvec transposes — and their "gflops" column is
//! GB/s (bytes read plus bytes written). The `sd_contract_seq` rows named
//! `spins-m64-step*` run the sparse-dense kernel at the H_eff chain's
//! step-1 (the environment step, whole rows in place), step-2 (run views
//! on both sides) and step-4 (`B` really transposed) operand shapes, so
//! the gate sees the layout boundary and not only the 2-D kernel. Those rows re-run one contraction in a loop, which the
//! allocator serves from a warm heap; the `sd_chain` row
//! `spins-m64-matvec` is what a sweep runs instead — the four steps as one
//! `Executor::chain` against resident operands on one executor, the result
//! downloaded and handed back — and reads seconds per matvec, buffer
//! lifetimes included. The `ss_chain` row `electrons-m32-matvec` is the
//! sparse-sparse counterpart: the four H_eff steps at the middle bond of
//! the warm electrons state (`bench_e2e`'s `electrons-ss-seq` size) as one
//! `ResidentChain::apply` on a bond vector, whose chain keeps every
//! intermediate in the merge kernel's format — seconds per matvec, the
//! gather of `x` and the scatter of `y` along the bond layout included. The `list_chain` row of the same
//! name runs that matvec under `Algorithm::List`: one chain step per block
//! pair, each distinct step shape planned once and kept across matvecs.
//!
//! The `gemm_small` rows run one row panel on the unpacked register tile
//! (`gemm_small_into`) and the `gemm_small_packed` rows the same panel on
//! the packed kernel, packing `B` included — at the List sweep's
//! block-pair shapes and at the two cube-like shapes past the crossover
//! where packing wins again, both storing through the identity view. The
//! pair is where `SMALL_MAX_MNK` in `tt_tensor::gemm` comes from; a
//! sub-millisecond shape is timed as a loop of calls. The
//! `gemm_small_permuted` row runs the tile at a List block-pair shape
//! whose output permutation leaves no contiguous column run, so every
//! tile is written element by element through its view.
//!
//! The `svd` rows time `tt_linalg::svd` — the factorization every bond
//! sector of a sweep gets — on 64×64 and 128×128 matrices with a
//! DMRG-like, fast-decaying spectrum. Their rate is on the nominal
//! `14·n³` flops the executor charges a factorization, so it moves with
//! the time and nothing else; a short factorization is timed as a loop.
//!
//! The seed repository's scalar GEMM stays as the reference the packed
//! kernel is measured against, at one size per element type (full runs
//! only).
//!
//! Baselines must be regenerated on an idle machine — see `BENCHING.md`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use tt_bench::{grow_state, System};
use tt_blocks::{contract, Algorithm, BlockSparseTensor, BondLayout, BondVector, ResidentChain};
use tt_dist::{ChainSrc, ChainStep, ExecMode, Executor, Machine, OpHandle};
use tt_tensor::gemm::{gemm_packed_into, gemm_small_into, PackedB};
use tt_tensor::view::{Epilogue, RunView, ViewMut};
use tt_tensor::{Complex64, DenseTensor, Scalar, SparseTensor};

/// GFlop/s regression a kernel may show against the baseline before the
/// check fails (CI runners are noisy; 30% is the agreed gate).
const MAX_REGRESSION: f64 = 0.30;

/// How far threaded may fall behind sequential at the same size before
/// the check fails. Below the work-volume threshold both modes run the
/// same single-worker code path; above it the pool must at least break
/// even.
const MAX_THREADED_DEFICIT: f64 = 0.05;

/// The one size the seed kernel is timed at per element type: the largest
/// of the full run's (the 512³ `f64` pair is PR 2's acceptance gate).
const SEED_REFERENCE_SIZE: usize = 512;
const SEED_REFERENCE_SIZE_C64: usize = 256;

/// The seed repo's scalar cache-blocked `(i,k,j)` GEMM — kept here verbatim
/// (generalized over the scalar type) as the perf reference the packed
/// kernel is measured against.
fn seed_gemm_acc<T: Scalar>(m: usize, k: usize, n: usize, a: &[T], b: &[T], c: &mut [T]) {
    const MC: usize = 64;
    const KC: usize = 128;
    const NC: usize = 512;
    for ib in (0..m).step_by(MC) {
        let imax = (ib + MC).min(m);
        for kb in (0..k).step_by(KC) {
            let kmax = (kb + KC).min(k);
            for jb in (0..n).step_by(NC) {
                let jmax = (jb + NC).min(n);
                for i in ib..imax {
                    let arow = &a[i * k..(i + 1) * k];
                    let crow = &mut c[i * n + jb..i * n + jmax];
                    for kk in kb..kmax {
                        let aik = arow[kk];
                        let brow = &b[kk * n + jb..kk * n + jmax];
                        for (cj, &bj) in crow.iter_mut().zip(brow.iter()) {
                            *cj += aik * bj;
                        }
                    }
                }
            }
        }
    }
}

/// Best-of-`reps` wall time of `f` in seconds.
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Time `seq` and `thr` back to back for `reps` reps, swapping which mode
/// gets the first slot each rep (on a frequency-drifting machine the
/// second call of a pair runs measurably slower; a fixed order reads that
/// slot bias as a mode deficit). Returns the per-rep wall times.
fn time_mode_pairs(
    reps: usize,
    mut seq: impl FnMut(),
    mut thr: impl FnMut(),
) -> (Vec<f64>, Vec<f64>) {
    let mut seq_times = Vec::with_capacity(reps);
    let mut thr_times = Vec::with_capacity(reps);
    let take = |times: &mut Vec<f64>, f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64());
    };
    for rep in 0..reps {
        if rep % 2 == 0 {
            take(&mut seq_times, &mut seq);
            take(&mut thr_times, &mut thr);
        } else {
            take(&mut thr_times, &mut thr);
            take(&mut seq_times, &mut seq);
        }
    }
    (seq_times, thr_times)
}

fn best_time(times: &[f64]) -> f64 {
    times.iter().cloned().fold(f64::INFINITY, f64::min)
}

/// Threaded/sequential rate ratios, robust to machine noise: each
/// consecutive pair of reps sums one first-slot and one second-slot sample
/// of each mode, cancelling slot bias and common-mode frequency drift.
/// Callers pool these across passes and judge parity on their median,
/// which rejects the one-off scheduler hiccups best-of timing is
/// sensitive to.
fn pair_ratios(seq_times: &[f64], thr_times: &[f64]) -> Vec<f64> {
    seq_times
        .chunks_exact(2)
        .zip(thr_times.chunks_exact(2))
        .map(|(s, t)| (s[0] + s[1]) / (t[0] + t[1]))
        .collect()
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// A measured threaded-vs-sequential parity ratio at one sparse size.
struct ParitySample {
    kernel: &'static str,
    size: String,
    ratio: f64,
}

/// Pooled paired-ratio samples for one sparse size, accumulated across
/// round-robin passes.
struct ParityAcc {
    kernel: &'static str,
    size: String,
    ratios: Vec<f64>,
}

/// Min-merge a measurement: the kernel set runs in several round-robin
/// passes so every `(kernel, size)` samples more than one machine state
/// (on shared hardware the effective CPU speed drifts ±25% across
/// minutes — a single-window best-of bakes whichever state it hit into
/// the baseline, and the gate then flaps against runs that hit the
/// other). Best-of keeps the fastest sample across passes.
fn record(entries: &mut Vec<Entry>, kernel: &'static str, size: String, flops: f64, secs: f64) {
    if let Some(e) = entries
        .iter_mut()
        .find(|e| e.kernel == kernel && e.size == size)
    {
        e.secs = e.secs.min(secs);
    } else {
        entries.push(Entry {
            kernel,
            size,
            flops,
            secs,
        });
    }
}

/// Pool this pass's paired ratios into the accumulator for `(kernel, size)`.
fn record_parity(
    parity: &mut Vec<ParityAcc>,
    kernel: &'static str,
    size: String,
    ratios: Vec<f64>,
) {
    if let Some(p) = parity
        .iter_mut()
        .find(|p| p.kernel == kernel && p.size == size)
    {
        p.ratios.extend(ratios);
    } else {
        parity.push(ParityAcc {
            kernel,
            size,
            ratios,
        });
    }
}

struct Entry {
    kernel: &'static str,
    size: String,
    flops: f64,
    secs: f64,
}

impl Entry {
    fn gflops(&self) -> f64 {
        self.flops / self.secs / 1e9
    }
}

/// A `(kernel, size, gflops)` triple parsed back from a baseline file.
struct BaselineEntry {
    kernel: String,
    size: String,
    gflops: f64,
}

/// Extract the string value of `"key": "…"` from one JSON line (the
/// baseline is this binary's own single-entry-per-line output; no general
/// JSON parser is vendored, so parse exactly that shape).
fn json_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

/// Extract the numeric value of `"key": …` from one JSON line.
fn json_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn load_baseline(path: &str) -> Vec<BaselineEntry> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read baseline {path}: {e}");
        std::process::exit(1);
    });
    text.lines()
        .filter_map(|line| {
            Some(BaselineEntry {
                kernel: json_str(line, "kernel")?,
                size: json_str(line, "size")?,
                gflops: json_num(line, "gflops")?,
            })
        })
        .collect()
}

/// Sequential/threaded parity at every measured sparse size: flag any
/// paired-ratio sample (see [`pair_ratios`]) more than
/// [`MAX_THREADED_DEFICIT`] below 1.0. Returns `false` on any failure.
fn check_threaded_parity(parity: &[ParitySample]) -> bool {
    let mut ok = true;
    for p in parity {
        let bad = p.ratio < 1.0 - MAX_THREADED_DEFICIT;
        println!(
            "threaded parity {:<22} {:>14}: {:.2}x sequential  {}",
            p.kernel,
            p.size,
            p.ratio,
            if bad { "FAIL" } else { "ok" }
        );
        if bad {
            ok = false;
        }
    }
    ok
}

/// Compare measured entries against the baseline. Returns `false` when any
/// matched kernel regressed beyond [`MAX_REGRESSION`] (or nothing matched).
fn check_against_baseline(entries: &[Entry], baseline: &[BaselineEntry]) -> bool {
    println!(
        "\n{:<24} {:>14} {:>12} {:>12} {:>8}  status",
        "kernel", "size", "baseline", "measured", "delta"
    );
    let mut matched = 0usize;
    let mut regressed = 0usize;
    for e in entries {
        let Some(base) = baseline
            .iter()
            .find(|b| b.kernel == e.kernel && b.size == e.size)
        else {
            println!(
                "{:<24} {:>14} {:>12} {:>12.2} {:>8}  new (no baseline)",
                e.kernel,
                e.size,
                "-",
                e.gflops(),
                "-"
            );
            continue;
        };
        matched += 1;
        let delta = e.gflops() / base.gflops - 1.0;
        let slow = delta < -MAX_REGRESSION;
        if slow {
            regressed += 1;
        }
        println!(
            "{:<24} {:>14} {:>12.2} {:>12.2} {:>+7.1}%  {}",
            e.kernel,
            e.size,
            base.gflops,
            e.gflops(),
            100.0 * delta,
            if slow { "REGRESSED" } else { "ok" }
        );
    }
    if matched == 0 {
        println!("\nno (kernel, size) pairs matched the baseline — refusing to pass");
        return false;
    }
    if regressed > 0 {
        println!(
            "\n{regressed}/{matched} kernels regressed more than {:.0}% below baseline",
            100.0 * MAX_REGRESSION
        );
        return false;
    }
    println!(
        "\nall {matched} matched kernels within {:.0}% of baseline",
        100.0 * MAX_REGRESSION
    );
    true
}

/// The quadratically front-loaded sparse operand every sparse bench uses:
/// row 0 full, last rows empty — the shape that load-imbalanced the old
/// uniform row split.
fn skewed_sparse(m: usize, k: usize) -> SparseTensor<f64> {
    let dense = DenseTensor::<f64>::from_fn([m, k], |idx| {
        let cutoff = k - (k * idx[0] * idx[0]) / (m * m).max(1);
        if idx[1] < cutoff {
            (idx[0] + idx[1]) as f64 / (m + k) as f64 - 0.5
        } else {
            0.0
        }
    });
    SparseTensor::from_dense(&dense, 0.0)
}

/// A sparse tensor of shape `dims` keeping each element with probability
/// `density` (fixed seed: every pass and every run times the same operand).
fn random_sparse(dims: &[usize], density: f64, seed: u64) -> SparseTensor<f64> {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let dense = DenseTensor::<f64>::from_fn(dims, |_| {
        if rng.gen_bool(density) {
            rng.gen_range(-1.0..1.0)
        } else {
            0.0
        }
    });
    SparseTensor::from_dense(&dense, 0.0)
}

/// `(label, dims, perm)` of the transposition rows: the 2-D case, the
/// permutes a spins m=64 sparse-dense matvec used to run — `t₁`
/// `(b,k,q,w,f) → (k,q,b,w,f)` moves contiguous runs, `t₃`
/// `(b,p,s,h,f) → (h,f,b,p,s)` is a tiled matrix transpose — and one
/// list-algorithm block.
const PERMUTE_CASES: [(&str, &[usize], &[usize]); 4] = [
    ("2d-1024x1024", &[1024, 1024], &[1, 0]),
    ("spins-m64-t1-runs", &[64, 14, 2, 2, 64], &[1, 2, 0, 3, 4]),
    ("spins-m64-t3-tiles", &[64, 2, 2, 14, 64], &[3, 4, 0, 1, 2]),
    ("list-30x8x30", &[30, 8, 30], &[1, 0, 2]),
];

/// `(m, k, n)` of the `gemm_small` rows: block pairs of the List sweep —
/// a `W` step's 4×6×1521 and 8×7×1521, ψ blocks' 30×8×30, 39×234×39 and
/// 273×39×39 — then 256³ and 512×256×512, past the crossover.
const GEMM_SMALL_CASES: [(usize, usize, usize); 7] = [
    (4, 6, 1521),
    (8, 7, 1521),
    (30, 8, 30),
    (39, 234, 39),
    (273, 39, 39),
    (256, 256, 256),
    (512, 256, 512),
];

/// Flops one timed sample of a `gemm_small` row covers at least: a call at
/// the smallest shapes takes about a microsecond, below the timer's noise.
const GEMM_SMALL_SAMPLE_FLOPS: f64 = 1e7;

/// Nominal flops one timed sample of an `svd` row covers at least: a
/// 64×64 factorization takes well under a millisecond.
const SVD_SAMPLE_FLOPS: f64 = 1e7;

/// An `n×n` matrix shaped like a DMRG bond sector: `Q₁·diag(σ)·Q₂ᵀ` with
/// random orthonormal `Q₁`, `Q₂` and `σⱼ = e^(−j/4)`, the fast decay of a
/// sweep's singular values.
fn dmrg_like_matrix(n: usize) -> DenseTensor<f64> {
    let mut rng = StdRng::seed_from_u64(11);
    let (q1, _) = tt_linalg::qr_thin(&DenseTensor::random([n, n], &mut rng)).unwrap();
    let (q2, _) = tt_linalg::qr_thin(&DenseTensor::random([n, n], &mut rng)).unwrap();
    let mut q1s = q1;
    for row in q1s.data_mut().chunks_exact_mut(n) {
        for (j, x) in row.iter_mut().enumerate() {
            *x *= (-(j as f64) / 4.0).exp();
        }
    }
    tt_tensor::gemm(
        &q1s,
        tt_tensor::Layout::Normal,
        &q2,
        tt_tensor::Layout::Transposed,
    )
    .unwrap()
}

/// One sparse-dense row at an H_eff chain shape.
struct SdChainCase {
    label: &'static str,
    spec: &'static str,
    a_dims: &'static [usize],
    a_density: f64,
    b_dims: &'static [usize],
}

/// The sparse-dense rows at H_eff chain shapes (spins 6×4, m = 64, middle
/// bond): step 1 contracts the left environment against ψ, rows in blocks
/// that share one column list, reading `B` and writing `C` whole-row in
/// place — the largest share of sparse-dense kernel time in a sweep; step
/// 2 contracts a ~40-entry MPO tensor against `t₁` and reads/writes
/// 128-element runs in place; step 4 contracts the right environment
/// against `t₃`, whose free modes lead, so `B` is transposed for real.
const SD_CHAIN_CASES: [SdChainCase; 3] = [
    SdChainCase {
        label: "spins-m64-step1",
        spec: "bkc,cqwf->bkqwf",
        a_dims: &[64, 14, 64],
        a_density: 0.24,
        b_dims: &[64, 2, 2, 64],
    },
    SdChainCase {
        label: "spins-m64-step2",
        spec: "kpqg,bkqwf->bpgwf",
        a_dims: &[14, 2, 2, 17],
        a_density: 0.05,
        b_dims: &[64, 14, 2, 2, 64],
    },
    SdChainCase {
        label: "spins-m64-step4",
        spec: "rhf,bpshf->bpsr",
        a_dims: &[64, 14, 64],
        a_density: 0.24,
        b_dims: &[64, 2, 2, 14, 64],
    },
];

/// The four H_eff steps at the same bond (`m` = 64, MPO bonds 14 → 17 →
/// 14, physical dimension 2): `(spec, structural operand dims, density)`,
/// each step contracting its operand with the previous step's output,
/// the first with the two-site tensor `x` of shape [`MATVEC_X`].
const MATVEC_STEPS: [(&str, &[usize], f64); 4] = [
    ("bkc,cqwf->bkqwf", &[64, 14, 64], 0.24),
    ("kpqg,bkqwf->bpgwf", &[14, 2, 2, 17], 0.05),
    ("gswh,bpgwf->bpshf", &[17, 2, 2, 14], 0.05),
    ("rhf,bpshf->bpsr", &[64, 14, 64], 0.24),
];
const MATVEC_X: [usize; 4] = [64, 2, 2, 64];

/// One sparse-dense matvec as `ResidentChain::apply` runs it: the steps
/// as one chain against resident operands, `y` downloaded and — once the
/// caller would have re-blocked it — handed back.
fn sd_chain_matvec(exec: &Executor, operands: &[OpHandle], x: &DenseTensor<f64>) {
    let steps: Vec<ChainStep> = MATVEC_STEPS
        .iter()
        .zip(operands)
        .enumerate()
        .map(|(s, (&(spec, ..), a))| ChainStep {
            spec,
            a: ChainSrc::Sparse(a.into()),
            b: match s.checked_sub(1) {
                None => ChainSrc::Dense(x.into()),
                Some(prev) => ChainSrc::Prev(prev),
            },
            acc: None,
            mask: None,
        })
        .collect();
    let y = exec.chain(&steps).unwrap().pop().flatten().unwrap();
    let y = exec.download(y).unwrap();
    exec.recycle(black_box(y));
}

/// The middle bond of a warm `lx × ly` state at bond dimension `m` (the
/// `bench_e2e` sweep sizes): the two-site effective Hamiltonian's
/// operands `[L, W₁, W₂, R]` in matvec order, and the two-site tensor `x`.
fn middle_bond(
    system: System,
    lx: usize,
    ly: usize,
    m: usize,
) -> ([BlockSparseTensor; 4], BlockSparseTensor) {
    let warm = grow_state(system, &system.lattice(lx, ly), m);
    let exec = Executor::local();
    let mut mps = warm.mps;
    mps.canonicalize(&exec, 0).expect("canonicalize");
    let mid = mps.n_sites() / 2 - 1;
    let mut left = dmrg::left_edge(&mps, &warm.mpo).expect("left edge");
    for j in 0..mid {
        left = dmrg::extend_left(
            &exec,
            Algorithm::List,
            &left,
            mps.tensor(j),
            warm.mpo.tensor(j),
        )
        .expect("left environment");
    }
    let right = dmrg::Environments::initialize(&exec, Algorithm::List, &mps, &warm.mpo)
        .expect("right environments")
        .right[mid + 1]
        .take()
        .expect("a right environment past the middle bond");
    let x = contract(
        &exec,
        Algorithm::List,
        "lsj,jtk->lstk",
        mps.tensor(mid),
        mps.tensor(mid + 1),
    )
    .expect("bond indices match");
    let (w1, w2) = (
        warm.mpo.tensor(mid).clone(),
        warm.mpo.tensor(mid + 1).clone(),
    );
    ([left, w1, w2, right], x)
}

/// The tensors the sparse algorithms convert at a middle bond: the
/// two-site tensor `x` (order 4) and the first matvec intermediate
/// `t₁ = L·x` (order 5), labelled `<label>-<tensor>`.
fn conversion_operands(
    label: &str,
    (heff, x): &([BlockSparseTensor; 4], BlockSparseTensor),
) -> Vec<(String, BlockSparseTensor)> {
    let exec = Executor::local();
    let t1 = contract(&exec, Algorithm::List, MATVEC_STEPS[0].0, &heff[0], x)
        .expect("bond indices match");
    vec![
        (format!("{label}-x"), x.clone()),
        (format!("{label}-t1"), t1),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check_path = args.iter().position(|a| a == "--check").map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("--check needs a baseline path");
            std::process::exit(1);
        })
    });

    // full sizes are supersets of smoke sizes so a smoke --check always
    // finds its pairs in a committed full baseline
    let gemm_sizes: &[usize] = if smoke {
        &[64, 128]
    } else {
        &[64, 128, 256, 512]
    };
    let gemm_c64_sizes: &[usize] = if smoke { &[64, 128] } else { &[64, 128, 256] };
    let at_b_sizes: &[usize] = if smoke { &[128] } else { &[128, 512] };
    let gemv_sizes: &[(usize, usize)] = if smoke {
        &[(256, 256)]
    } else {
        &[(256, 256), (1024, 1024)]
    };
    // (m, k, n, reps): the small size sits below SPARSE_PAR_MIN_FLOPS
    // (threaded stays on one worker — sub-millisecond kernels are too
    // noisy for a 30% gate, so the smoke case is the ~3 ms 512×128×64),
    // the larger ones sit above it and engage the pool
    // rep counts are sized for the parity assertion, not just the 30%
    // rate gate: best-of needs enough swapped-order pairs to ride out the
    // multi-second frequency-drift waves VMs show even when idle
    let sd_sizes: &[(usize, usize, usize, usize)] = if smoke {
        &[(512, 128, 64, 10)]
    } else {
        &[(512, 128, 64, 10), (2048, 512, 256, 6)]
    };
    // the above-threshold 2048×512×256 rides in the smoke set too: it is
    // the size the merge-join rework is gated on, and with that kernel it
    // is CI-cheap
    let ss_sizes: &[(usize, usize, usize, usize)] = if smoke {
        &[(512, 128, 64, 10), (2048, 512, 256, 6)]
    } else {
        &[(512, 128, 64, 10), (1024, 256, 128, 6), (2048, 512, 256, 6)]
    };
    // the SVD of a bond sector: the widest sectors of a spins m=128 sweep
    // are 64–78 wide
    let svd_sizes: &[usize] = if smoke { &[64] } else { &[64, 128] };
    let svd_matrices: Vec<(usize, DenseTensor<f64>)> = svd_sizes
        .iter()
        .map(|&n| (n, dmrg_like_matrix(n)))
        .collect();
    // smoke converts the electrons tensors only: that state grows in about
    // a second, the spins one in several
    let electrons = middle_bond(System::Electrons, 4, 3, 32);
    let mut conversion_tensors = conversion_operands("electrons-m32", &electrons);
    if !smoke {
        let spins = middle_bond(System::Spins, 6, 4, 64);
        conversion_tensors.extend(conversion_operands("spins-m64", &spins));
    }
    let reps = 8;
    // every (kernel, size) is measured in PASSES round-robin sweeps and
    // min-merged, so its best-of samples several machine states instead
    // of one — see `record`
    const PASSES: usize = 3;
    let mut entries: Vec<Entry> = Vec::new();
    let mut parity_acc: Vec<ParityAcc> = Vec::new();

    println!("simd dispatch: {}", tt_tensor::simd_level().name());

    for _pass in 0..PASSES {
        // identical seed every pass: passes sample machine states, not data
        let mut rng = StdRng::seed_from_u64(7);

        // --- dense GEMM: packed register-tiled vs seed scalar loop -----------
        for &s in gemm_sizes {
            let a = DenseTensor::<f64>::random([s, s], &mut rng);
            let b = DenseTensor::<f64>::random([s, s], &mut rng);
            let flops = 2.0 * (s as f64).powi(3);
            let mut c = vec![0.0f64; s * s];

            let secs = best_of(reps, || {
                c.iter_mut().for_each(|x| *x = 0.0);
                tt_tensor::gemm::gemm_acc_slices(s, s, s, a.data(), b.data(), &mut c);
            });
            record(
                &mut entries,
                "gemm_packed",
                format!("{s}x{s}x{s}"),
                flops,
                secs,
            );

            if s == SEED_REFERENCE_SIZE {
                let secs = best_of(reps, || {
                    c.iter_mut().for_each(|x| *x = 0.0);
                    seed_gemm_acc(s, s, s, a.data(), b.data(), &mut c);
                });
                record(
                    &mut entries,
                    "gemm_seed_scalar",
                    format!("{s}x{s}x{s}"),
                    flops,
                    secs,
                );
            }
        }

        // --- Complex64 GEMM: plane-split packed microkernel vs seed scalar ---
        // one complex MAC is 4 real multiplies + 4 real adds → 8·m·n·k flops
        for &s in gemm_c64_sizes {
            let a = DenseTensor::<Complex64>::random([s, s], &mut rng);
            let b = DenseTensor::<Complex64>::random([s, s], &mut rng);
            let flops = 8.0 * (s as f64).powi(3);
            let mut c = vec![Complex64::new(0.0, 0.0); s * s];

            let secs = best_of(reps, || {
                c.iter_mut().for_each(|x| *x = Complex64::new(0.0, 0.0));
                tt_tensor::gemm::gemm_acc_slices(s, s, s, a.data(), b.data(), &mut c);
            });
            record(
                &mut entries,
                "gemm_packed_c64",
                format!("{s}x{s}x{s}"),
                flops,
                secs,
            );

            if s == SEED_REFERENCE_SIZE_C64 {
                let secs = best_of(reps, || {
                    c.iter_mut().for_each(|x| *x = Complex64::new(0.0, 0.0));
                    seed_gemm_acc(s, s, s, a.data(), b.data(), &mut c);
                });
                record(
                    &mut entries,
                    "gemm_seed_scalar_c64",
                    format!("{s}x{s}x{s}"),
                    flops,
                    secs,
                );
            }
        }

        // --- transposed-layout GEMM (packing absorbs the transpose) ----------
        for &s in at_b_sizes {
            let a = DenseTensor::<f64>::random([s, s], &mut rng);
            let b = DenseTensor::<f64>::random([s, s], &mut rng);
            let flops = 2.0 * (s as f64).powi(3);
            let secs = best_of(reps, || {
                tt_tensor::gemm(
                    &a,
                    tt_tensor::Layout::Transposed,
                    &b,
                    tt_tensor::Layout::Normal,
                )
                .unwrap();
            });
            record(
                &mut entries,
                "gemm_at_b",
                format!("{s}x{s}x{s}"),
                flops,
                secs,
            );
        }

        // --- one row panel: unpacked register tile vs packing B -------------
        for &(m, k, n) in &GEMM_SMALL_CASES {
            let a = DenseTensor::<f64>::random([m, k], &mut rng);
            let b = DenseTensor::<f64>::random([k, n], &mut rng);
            let mut c = vec![0.0f64; m * n];
            let identity = RunView::matrix(m, n, n);
            let flops = 2.0 * (m * k * n) as f64;
            let calls = (GEMM_SMALL_SAMPLE_FLOPS / flops).ceil() as usize;
            let secs = best_of(reps, || {
                for _ in 0..calls {
                    c.fill(0.0);
                    let out = &mut ViewMut::whole(&identity, &mut c).unwrap();
                    gemm_small_into(0, m, k, n, a.data(), k, 1, b.data(), out, Epilogue::Store);
                }
            });
            let size = format!("{m}x{k}x{n}");
            let sample_flops = flops * calls as f64;
            record(&mut entries, "gemm_small", size.clone(), sample_flops, secs);
            let secs = best_of(reps, || {
                for _ in 0..calls {
                    c.fill(0.0);
                    let pb = PackedB::pack(k, n, b.data(), n, 1);
                    let out = &mut ViewMut::whole(&identity, &mut c).unwrap();
                    gemm_packed_into(0, m, a.data(), k, 1, &pb, out, Epilogue::Store);
                }
            });
            record(&mut entries, "gemm_small_packed", size, sample_flops, secs);
        }
        // the same tile at a List block-pair shape, its 273 × 39 natural
        // product — dims (7, 39 | 3, 13) — stored as (3, 39, 13, 7): the
        // columns' innermost mode has stride 7, so no run is contiguous
        {
            let (m, k, n) = (273, 39, 39);
            let a = DenseTensor::<f64>::random([m, k], &mut rng);
            let b = DenseTensor::<f64>::random([k, n], &mut rng);
            let mut c = vec![0.0f64; m * n];
            let view = RunView::output(&[7, 39, 3, 13], &[2, 1, 3, 0], (m, n)).unwrap();
            let flops = 2.0 * (m * k * n) as f64;
            let calls = (GEMM_SMALL_SAMPLE_FLOPS / flops).ceil() as usize;
            let secs = best_of(reps, || {
                for _ in 0..calls {
                    c.fill(0.0);
                    let out = &mut ViewMut::whole(&view, &mut c).unwrap();
                    gemm_small_into(0, m, k, n, a.data(), k, 1, b.data(), out, Epilogue::Store);
                }
            });
            let (size, sample_flops) = (format!("{m}x{k}x{n}"), flops * calls as f64);
            record(
                &mut entries,
                "gemm_small_permuted",
                size,
                sample_flops,
                secs,
            );
        }

        // --- GEMV fast path (Davidson matvec shape) --------------------------
        for &(m, k) in gemv_sizes {
            let a = DenseTensor::<f64>::random([m, k], &mut rng);
            let x = DenseTensor::<f64>::random([k, 1], &mut rng);
            let flops = 2.0 * m as f64 * k as f64;
            let secs = best_of(reps * 4, || {
                tt_tensor::gemm_f64(&a, &x).unwrap();
            });
            record(
                &mut entries,
                "gemv_fused_n1",
                format!("{m}x{k}x1"),
                flops,
                secs,
            );
        }

        // --- sparse kernels through the executor -----------------------------
        // sequential vs threaded at each size: below the work-volume threshold
        // both run the same single-worker path; above it the threaded executor
        // fans volume-balanced buckets over the pool (the crossover). The two
        // modes alternate within one rep loop, swapping which goes first each
        // rep, and parity is judged on paired ratios (see module docs).
        for &(m, k, n, reps) in sd_sizes {
            let sp = skewed_sparse(m, k);
            let b = DenseTensor::<f64>::random([k, n], &mut rng);
            let sd_flops = 2.0 * sp.nnz() as f64 * n as f64;
            let seq = Executor::with_machine(Machine::local(), 1, ExecMode::Sequential);
            let thr = Executor::with_machine(Machine::local(), 1, ExecMode::Threaded);
            let (seq_times, thr_times) = time_mode_pairs(
                reps,
                || {
                    seq.contract_sd("ik,kj->ij", &sp, &b).unwrap();
                },
                || {
                    thr.contract_sd("ik,kj->ij", &sp, &b).unwrap();
                },
            );
            record_parity(
                &mut parity_acc,
                "sd_contract_threaded",
                format!("{m}x{k}x{n}"),
                pair_ratios(&seq_times, &thr_times),
            );
            for (label, secs) in [
                ("sd_contract_seq", best_time(&seq_times)),
                ("sd_contract_threaded", best_time(&thr_times)),
            ] {
                record(&mut entries, label, format!("{m}x{k}x{n}"), sd_flops, secs);
            }
        }
        // the same kernel at H_eff chain shapes: 5-mode B, permuted output
        for case in &SD_CHAIN_CASES {
            let sp = random_sparse(case.a_dims, case.a_density, 11);
            let b = DenseTensor::<f64>::random(case.b_dims, &mut rng);
            let seq = Executor::with_machine(Machine::local(), 1, ExecMode::Sequential);
            let plan = tt_tensor::ContractPlan::parse(case.spec).unwrap();
            let n: usize = plan
                .free_b_positions()
                .iter()
                .map(|&j| case.b_dims[j])
                .product();
            let secs = best_of(reps * 2, || {
                black_box(seq.contract_sd(case.spec, &sp, &b).unwrap());
            });
            record(
                &mut entries,
                "sd_contract_seq",
                case.label.to_string(),
                2.0 * sp.nnz() as f64 * n as f64,
                secs,
            );
        }
        // the whole matvec those steps belong to, as a sweep runs it
        {
            let exec = Executor::with_machine(Machine::local(), 1, ExecMode::Sequential);
            let x = DenseTensor::<f64>::random(&MATVEC_X[..], &mut rng);
            let (mut flops, mut b_len) = (0.0, x.len());
            let operands: Vec<OpHandle> = MATVEC_STEPS
                .iter()
                .map(|&(spec, dims, density)| {
                    let a = random_sparse(dims, density, 11);
                    // a step costs 2·nnz·n with n = |B| / k columns, and its
                    // m·n output is the next step's B
                    let plan = tt_tensor::ContractPlan::parse(spec).unwrap();
                    let k: usize = plan.ctr_a_positions().iter().map(|&i| dims[i]).product();
                    let m: usize = plan.free_a_positions().iter().map(|&i| dims[i]).product();
                    flops += 2.0 * a.nnz() as f64 * (b_len / k) as f64;
                    b_len = b_len / k * m;
                    exec.upload_sparse(&a)
                })
                .collect();
            let secs = best_of(reps * 2, || sd_chain_matvec(&exec, &operands, &x));
            record(
                &mut entries,
                "sd_chain",
                "spins-m64-matvec".to_string(),
                flops,
                secs,
            );
            for h in &operands {
                exec.free(h).unwrap();
            }
        }
        // the sparse-sparse matvec of a sweep, and the list one: the four
        // H_eff steps at the electrons middle bond as one chain, its
        // structural plan (and for the list chain its pair schedule and
        // the executor's step shapes) kept from the first application
        for (kernel, algo) in [
            ("ss_chain", Algorithm::SparseSparse),
            ("list_chain", Algorithm::List),
        ] {
            let exec = Executor::with_machine(Machine::local(), 1, ExecMode::Sequential);
            let (heff, x) = &electrons;
            let steps: Vec<(&str, &BlockSparseTensor)> = MATVEC_STEPS
                .iter()
                .zip(heff)
                .map(|(&(spec, ..), a)| (spec, a))
                .collect();
            let chain = ResidentChain::upload(&exec, algo, &steps).unwrap();
            let layout = Arc::new(BondLayout::new(x.indices(), x.flux()));
            let x = BondVector::from_blocks(&layout, x).unwrap();
            let before = exec.total_flops();
            chain.apply(&x).unwrap();
            let flops = (exec.total_flops() - before) as f64;
            let secs = best_of(reps * 2, || {
                black_box(chain.apply(&x).unwrap());
            });
            record(
                &mut entries,
                kernel,
                "electrons-m32-matvec".to_string(),
                flops,
                secs,
            );
            chain.release().unwrap();
        }
        for &(m, k, n, reps) in ss_sizes {
            let sp = skewed_sparse(m, k);
            let sb = SparseTensor::from_dense(&DenseTensor::<f64>::random([k, n], &mut rng), 0.5);
            let sd_flops = 2.0 * sp.nnz() as f64 * n as f64;
            let seq = Executor::with_machine(Machine::local(), 1, ExecMode::Sequential);
            let thr = Executor::with_machine(Machine::local(), 1, ExecMode::Threaded);
            let (seq_times, thr_times) = time_mode_pairs(
                reps,
                || {
                    seq.contract_ss("ik,kj->ij", &sp, &sb, None).unwrap();
                },
                || {
                    thr.contract_ss("ik,kj->ij", &sp, &sb, None).unwrap();
                },
            );
            record_parity(
                &mut parity_acc,
                "ss_contract_threaded",
                format!("{m}x{k}x{n}"),
                pair_ratios(&seq_times, &thr_times),
            );
            for (label, secs) in [
                ("ss_contract_seq", best_time(&seq_times)),
                ("ss_contract_threaded", best_time(&thr_times)),
            ] {
                // flops nominal: actual ss work depends on key overlap
                record(
                    &mut entries,
                    label,
                    format!("{m}x{k}x{n}"),
                    sd_flops * 0.5,
                    secs,
                );
            }
        }

        // --- transposition (rate in GB/s: bytes read + bytes written) ---------
        for (label, dims, perm) in PERMUTE_CASES {
            let t = DenseTensor::<f64>::random(dims, &mut rng);
            let bytes = 2.0 * (t.len() * std::mem::size_of::<f64>()) as f64;
            let secs = best_of(reps * 4, || {
                black_box(t.permute(perm).unwrap());
            });
            record(&mut entries, "permute", label.to_string(), bytes, secs);
        }

        // --- block↔flat conversions (rate in 10⁹ stored elements/s) ----------
        for (size, t) in &conversion_tensors {
            let elems = t.stored_elements() as f64;
            let (indices, flux) = (t.indices().to_vec(), t.flux());
            let dense = t.to_dense();
            let flat = t.to_flat_sparse();
            let mut row = |kernel, f: &mut dyn FnMut()| {
                record(
                    &mut entries,
                    kernel,
                    size.clone(),
                    elems,
                    best_of(reps * 4, f),
                );
            };
            row("blocks_to_dense", &mut || {
                black_box(t.to_dense());
            });
            row("blocks_from_dense", &mut || {
                black_box(BlockSparseTensor::from_dense(
                    indices.clone(),
                    flux,
                    &dense,
                    0.0,
                ))
                .expect("dense image has the tensor's shape");
            });
            row("blocks_to_flat", &mut || {
                black_box(t.to_flat_sparse());
            });
            row("blocks_from_flat", &mut || {
                black_box(BlockSparseTensor::from_flat_sparse(
                    indices.clone(),
                    flux,
                    &flat,
                ))
                .expect("flat image holds allowed entries only");
            });
        }

        // --- truncated SVD of a sector (rate on 14·n³ nominal flops) ---------
        for (n, a) in &svd_matrices {
            let flops = 14.0 * (*n as f64).powi(3);
            let calls = (SVD_SAMPLE_FLOPS / flops).ceil() as usize;
            let secs = best_of(reps, || {
                for _ in 0..calls {
                    black_box(tt_linalg::svd(a).expect("svd converges"));
                }
            });
            record(
                &mut entries,
                "svd",
                format!("dmrg-{n}x{n}"),
                flops * calls as f64,
                secs,
            );
        }
    } // pass loop

    let parity: Vec<ParitySample> = parity_acc
        .iter()
        .map(|p| ParitySample {
            kernel: p.kernel,
            size: p.size.clone(),
            ratio: median(&p.ratios),
        })
        .collect();

    // --- report -----------------------------------------------------------
    for e in &entries {
        println!(
            "{:<24} {:>14}  {:>8.2} GFlop/s  ({:.3e} s)",
            e.kernel,
            e.size,
            e.gflops(),
            e.secs
        );
    }

    if let Some(path) = check_path {
        // regression-gate mode: compare, do not overwrite the baseline
        let baseline = load_baseline(&path);
        let baseline_ok = check_against_baseline(&entries, &baseline);
        println!();
        let parity_ok = check_threaded_parity(&parity);
        if !baseline_ok || !parity_ok {
            std::process::exit(1);
        }
        return;
    }
    println!();
    check_threaded_parity(&parity); // informational outside --check

    let mut json = String::from("[\n");
    for (i, e) in entries.iter().enumerate() {
        json.push_str(&format!(
            "  {{\"kernel\": \"{}\", \"size\": \"{}\", \"gflops\": {:.4}, \"seconds\": {:.6e}}}{}\n",
            e.kernel,
            e.size,
            e.gflops(),
            e.secs,
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    json.push_str("]\n");
    // a smoke run must never clobber the committed full baseline — its
    // entries are a strict subset, and a subset baseline would silently
    // shrink what the CI gate covers
    let out = if smoke {
        "BENCH_kernels.smoke.json"
    } else {
        "BENCH_kernels.json"
    };
    std::fs::write(out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("\nwrote {out} ({} entries)", entries.len());

    // the acceptance gate PR 2 shipped under (informational at runtime)
    if !smoke {
        let g = |k: &str| {
            entries
                .iter()
                .find(|e| e.kernel == k && e.size == "512x512x512")
                .map(Entry::gflops)
                .unwrap_or(0.0)
        };
        let (packed, seed) = (g("gemm_packed"), g("gemm_seed_scalar"));
        println!(
            "packed/seed speedup at 512^3: {:.2}x",
            packed / seed.max(1e-12)
        );
    }
}
