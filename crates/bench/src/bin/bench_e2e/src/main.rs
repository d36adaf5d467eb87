//! `bench_e2e` — the repository's end-to-end benchmark: wall-clock DMRG
//! sweeps on the paper's two systems and throughput of the solve
//! service, with a per-layer trace recorded from outside the program.
//! README.md beside Cargo.toml defines every workload and metric.
//!
//! ```text
//! bench_e2e --workload W --seed N --seconds S --trace 0|1   one workload, one pass
//! bench_e2e [--seed N] [--smoke] [--workload W] [--traced-only | --probes-only]
//!                                                          every workload, each pass in a child
//! bench_e2e --compare A.json B.json                        judge two result files
//! ```
//!
//! One workload and pass prints `<workload> <metric> <value> <unit> <min>
//! <max> <n>` per metric and, as its last line, the JSON object the
//! benchmark driver reads. `--trace 0` measures the end-to-end metrics
//! with nothing recorded; `--trace 1` records spans and reports the
//! per-layer metrics.

mod compare;
mod probes;
mod service;
mod sweeps;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use sweeps::SWEEP_WORKLOADS;

/// How long a run measures unless `--seconds` says otherwise:
/// `run_seconds` of `BENCHMARK.json`.
const RUN_SECONDS: f64 = 20.0;

/// How many times a run sets up, to report the median as `setup_s`.
pub const SETUP_REPS: usize = 3;

pub struct Opts {
    pub seed: u64,
    /// How long the timed rounds go on.
    pub seconds: f64,
    pub trace: bool,
    pub probes_only: bool,
}

/// One reported number. `value` is the median of `n` samples unless the
/// metric says otherwise (the best round, a mean, a single measurement).
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Metric {
    pub fn one(name: &str, unit: &str, value: f64) -> Self {
        Self::samples(name, unit, &[value])
    }

    pub fn samples(name: &str, unit: &str, samples: &[f64]) -> Self {
        Self {
            name: name.to_string(),
            unit: unit.to_string(),
            value: median(samples),
            min: samples.iter().copied().reduce(f64::min).unwrap_or(0.0),
            max: samples.iter().copied().reduce(f64::max).unwrap_or(0.0),
            n: samples.len(),
        }
    }
}

/// One repetition of a workload's load, as its users saw it: one rep of
/// a sweep workload (a round of one job) or one pass of the service's
/// clients over their job lists.
pub struct Round {
    /// First submit to last completion.
    pub wall_s: f64,
    pub sweep_s: Vec<f64>,
    /// One entry per finished job.
    pub latency_s: Vec<f64>,
    /// [`peak_rss_mb`] when the round ended.
    pub rss_mb: f64,
}

/// The end-to-end metrics every workload reports from its untraced run.
/// Each timing is taken per round (median sweep, jobs over wall, latency
/// percentiles) and the run reports its best round: whatever disturbs
/// this machine only ever adds time, so the least disturbed round is the
/// steadiest estimate of what the program costs (README, "Steadiness").
/// `setup_s` is the median set-up and `peak_rss_mb` the first round's.
pub fn end_to_end(setup_s: &[f64], rounds: &[Round]) -> Vec<Metric> {
    let best = |name: &str, unit: &str, higher: bool, of: &dyn Fn(&Round) -> f64| {
        let per_round: Vec<f64> = rounds.iter().map(of).collect();
        let m = Metric::samples(name, unit, &per_round);
        Metric {
            value: if higher { m.max } else { m.min },
            ..m
        }
    };
    vec![
        Metric::samples("setup_s", "s", setup_s),
        best("sweep_s", "s", false, &|r| median(&r.sweep_s)),
        best("jobs_per_s", "1/s", true, &|r| {
            r.latency_s.len() as f64 / r.wall_s
        }),
        best("job_latency_p50_s", "s", false, &|r| median(&r.latency_s)),
        best("job_latency_p75_s", "s", false, &|r| {
            percentile(&r.latency_s, 0.75)
        }),
        Metric::one(
            "peak_rss_mb",
            "MB",
            rounds.first().map_or(0.0, |r| r.rss_mb),
        ),
    ]
}

/// splitmix64: the job mix and the probes' operands need a seeded
/// generator and nothing more.
pub struct Rng(pub u64);

impl Rng {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// What one workload's pass produced. An operation is one timed sweep or
/// one job; `correct` also covers checks that belong to no single
/// operation (set-up repeatability, workers outliving their executor).
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: usize,
    pub failed: usize,
    pub correct: bool,
}

impl Default for Outcome {
    fn default() -> Self {
        Self {
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            correct: true,
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Linear interpolation between closest ranks; 0 for no samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Where traces, results and the daemon's socket go: relative to the
/// directory the benchmark is run from.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("target/bench_e2e");
    std::fs::create_dir_all(&dir).expect("create target/bench_e2e");
    dir
}

pub fn write_trace(rec: &trace::Recorder, workload: &str) {
    let path = out_dir().join(format!("trace-{workload}.json"));
    if let Err(e) = rec.write(&path) {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

/// `VmHWM` of this process, in MB. The run reports what it read when its
/// first round ended: the set-ups and one round, from a fresh process.
/// What later rounds add is allocator history — on `service-mixed`,
/// whether a stopped daemon's memory is reused by the next one depends on
/// thread timing and moves the figure by a factor of three from run to
/// run.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib * 1024.0 * 1e-6)
}

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    Some(args.get(i + 1).cloned().unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    }))
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    match arg_value(args, flag) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("{flag}: cannot read {v:?}");
            std::process::exit(2);
        }),
    }
}

fn workload_names() -> Vec<&'static str> {
    let mut names: Vec<_> = SWEEP_WORKLOADS.iter().map(|w| w.name).collect();
    names.push(service::NAME);
    names
}

/// One workload, one pass, in this process.
fn run_workload(name: &str, opts: &Opts) -> ExitCode {
    // the benchmark must end on its own even if the program under test
    // hangs: the driver allows a run 180 seconds
    std::thread::spawn(|| {
        std::thread::sleep(std::time::Duration::from_secs(170));
        eprintln!("bench_e2e: no result after 170 s, giving up");
        std::process::exit(3);
    });

    let result = match SWEEP_WORKLOADS.iter().find(|w| w.name == name) {
        Some(w) if opts.trace => sweeps::run_traced(w, opts),
        Some(w) => sweeps::run_untraced(w, opts),
        None if name == service::NAME => service::run(opts),
        None => {
            eprintln!("unknown workload {name:?}; one of {:?}", workload_names());
            return ExitCode::from(2);
        }
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{name}: {e}");
            return ExitCode::from(1);
        }
    };

    for m in &mut out.metrics {
        if !m.value.is_finite() {
            eprintln!("{name}: CHECK FAILED: {} is {}", m.name, m.value);
            out.correct = false;
            (m.value, m.min, m.max) = (0.0, 0.0, 0.0);
        }
    }
    let correct = opts.probes_only || (out.correct && out.failed == 0 && out.attempted > 0);

    for m in &out.metrics {
        println!(
            "{name} {} {} {} {} {} {}",
            m.name, m.value, m.unit, m.min, m.max, m.n
        );
    }
    if !opts.trace {
        let frac = out.failed as f64 / out.attempted.max(1) as f64;
        println!(
            "{name} fail_frac {frac} frac {frac} {frac} {}",
            out.attempted
        );
    }
    // the driver's line carries every metric of this pass's kind that
    // BENCHMARK.json declares: one this workload does not measure reads 0
    if !opts.probes_only {
        for d in compare::declared().unwrap_or_default() {
            let end_to_end = d.bound.is_some();
            if end_to_end != opts.trace && !out.metrics.iter().any(|m| m.name == d.name) {
                out.metrics.push(Metric::one(&d.name, &d.unit, 0.0));
            }
        }
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

/// Every selected workload, each pass in a re-executed child so that
/// peak memory and allocator state do not leak from one to the next.
/// Writes `target/bench_e2e/result.json`.
fn run_all(args: &[String], seed: u64) -> ExitCode {
    let smoke = args.iter().any(|a| a == "--smoke");
    let traced_only = args.iter().any(|a| a == "--traced-only");
    let probes_only = args.iter().any(|a| a == "--probes-only");
    // untraced runs per workload, and how long each measures
    let (runs, seconds) = if smoke { (1, 3.0) } else { (3, RUN_SECONDS) };
    let only = arg_value(args, "--workload");
    let exe = std::env::current_exe().expect("own path");

    let mut ok = true;
    let mut lines = Vec::new();
    for name in workload_names() {
        // the service workload has no layer probes
        if only.as_deref().is_some_and(|w| w != name) || (probes_only && name == service::NAME) {
            continue;
        }
        // (kind, --trace, how many runs)
        let mut passes = vec![("per_layer", "1", 1)];
        if !traced_only && !probes_only {
            passes.insert(0, ("end_to_end", "0", runs));
        }
        for (kind, trace, runs) in passes {
            // metric → (unit, one value per run), in first-seen order
            let mut seen: Vec<(String, String, Vec<f64>)> = Vec::new();
            for _ in 0..runs {
                let mut child = Command::new(&exe);
                child
                    .args(["--workload", name, "--trace", trace])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string()]);
                if probes_only {
                    child.arg("--probes-only");
                }
                let output = child
                    .stderr(std::process::Stdio::inherit())
                    .output()
                    .expect("re-execute self");
                let stdout = String::from_utf8_lossy(&output.stdout);
                let last = stdout.lines().last().unwrap_or("");
                if !output.status.success() || !last.contains("\"correct\": true") {
                    eprintln!("{name} (--trace {trace}) FAILED");
                    ok = false;
                }
                for line in stdout.lines() {
                    let f: Vec<&str> = line.split_whitespace().collect();
                    if f.len() != 7 || f[0] != name {
                        continue;
                    }
                    println!("{line}");
                    let Ok(value) = f[2].parse::<f64>() else {
                        continue;
                    };
                    match seen.iter_mut().find(|(metric, _, _)| metric == f[1]) {
                        Some((_, _, values)) => values.push(value),
                        None => seen.push((f[1].to_string(), f[3].to_string(), vec![value])),
                    }
                }
            }
            for (metric, unit, values) in seen {
                let m = Metric::samples(&metric, "", &values);
                lines.push(format!(
                    "{{\"workload\": \"{name}\", \"kind\": \"{kind}\", \"metric\": \"{metric}\", \
                     \"value\": {}, \"unit\": \"{unit}\", \"min\": {}, \"max\": {}, \"n\": {}}}",
                    m.value, m.min, m.max, m.n
                ));
            }
        }
    }
    if lines.is_empty() {
        eprintln!("no workload selected; one of {:?}", workload_names());
        return ExitCode::from(2);
    }

    let simd = std::env::var("TT_SIMD").unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let text = format!(
        "{{\n\"seed\": {seed}, \"seconds\": {seconds}, \"runs\": {runs}, \"simd\": \"{simd}\", \
         \"nproc\": {nproc},\n\"results\": [\n{}\n]\n}}\n",
        lines.join(",\n")
    );
    // a smoke or partial run never replaces a full run's result
    let full = !smoke && only.is_none() && !traced_only && !probes_only;
    let path = out_dir().join(if full {
        "result.json"
    } else {
        "result.partial.json"
    });
    std::fs::write(&path, text).expect("write result file");
    println!("wrote {}", path.display());
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    // every number is measured on the kernel variant the CI gates pin;
    // set before anything spawns so that workers inherit it
    if std::env::var_os("TT_SIMD").is_none() {
        std::env::set_var("TT_SIMD", "avx2");
    }
    // worker processes are re-executions of this binary
    tt_dist::maybe_serve();

    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--compare") {
        let (Some(a), Some(b)) = (args.get(i + 1), args.get(i + 2)) else {
            eprintln!("--compare needs two result files");
            return ExitCode::from(2);
        };
        return match compare::run(a, b) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }

    let seed: u64 = parsed(&args, "--seed", 1);
    // `--trace` marks the one-workload form the benchmark driver uses
    match (arg_value(&args, "--workload"), arg_value(&args, "--trace")) {
        (Some(name), Some(trace)) => run_workload(
            &name,
            &Opts {
                seed,
                seconds: parsed(&args, "--seconds", RUN_SECONDS),
                trace: trace == "1",
                probes_only: args.iter().any(|a| a == "--probes-only"),
            },
        ),
        _ => run_all(&args, seed),
    }
}
