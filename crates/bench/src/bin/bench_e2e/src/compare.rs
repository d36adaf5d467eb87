//! `BENCHMARK.json` as the one list of metrics, and `--compare`.
//!
//! No JSON parser is vendored. `BENCHMARK.json` and the result files
//! this binary writes keep one entry per line, and these helpers read
//! exactly that shape (as `bench_kernels` does for its baseline).

/// Layer metrics that are counts made by the program: two runs of one
/// commit must agree on them exactly.
const EXACT: &[&str] = &[
    "dmrg.matvecs",
    "dmrg.bond_steps",
    "dist.exec.flops",
    "dist.exec.supersteps",
    "dist.transport.operand_bytes",
    "dist.transport.result_bytes",
    "dist.transport.recovery_bytes",
];

fn json_str(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].to_string())
}

fn json_num(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One metric of `BENCHMARK.json`.
pub struct Declared {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// `Some` for end-to-end metrics, `None` for per-layer ones.
    pub bound: Option<f64>,
}

/// The metrics `BENCHMARK.json` in the current directory declares.
pub fn declared() -> std::io::Result<Vec<Declared>> {
    let text = std::fs::read_to_string("BENCHMARK.json")?;
    Ok(text
        .lines()
        .filter_map(|line| {
            Some(Declared {
                name: json_str(line, "name")?,
                unit: json_str(line, "unit")?,
                higher_is_better: json_str(line, "better")? == "higher",
                bound: json_num(line, "bound"),
            })
        })
        .collect())
}

struct Entry {
    workload: String,
    metric: String,
    value: f64,
    min: f64,
    max: f64,
}

fn load(path: &str) -> Result<Vec<Entry>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let entries: Vec<Entry> = text
        .lines()
        .filter_map(|line| {
            Some(Entry {
                workload: json_str(line, "workload")?,
                metric: json_str(line, "metric")?,
                value: json_num(line, "value")?,
                min: json_num(line, "min")?,
                max: json_num(line, "max")?,
            })
        })
        .collect();
    if entries.is_empty() {
        return Err(format!("{path} holds no results"));
    }
    Ok(entries)
}

/// Compare two result files of this binary, A the earlier. Each
/// end-to-end metric's bound applies in both directions: within it the
/// row is `ok`, beyond it `better` or `worse` by the metric's declared
/// direction, and `unresolved` when either file's own min–max spread is
/// wider than the bound. A row one file has and the other lacks is
/// `missing`. Returns whether nothing was `worse`, `differs` or
/// `missing`: two runs of one commit agree when every row reads `ok`, and
/// a later commit passes when none reads `worse`.
pub fn run(a_path: &str, b_path: &str) -> Result<bool, String> {
    let declared = declared().map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let (a, b) = (load(a_path)?, load(b_path)?);
    let same = |x: &Entry, y: &Entry| x.workload == y.workload && x.metric == y.metric;
    let mut ok = true;
    println!(
        "{:<18} {:<38} {:>14} {:>14} {:>8}  status",
        "workload", "metric", "A", "B", "B/A-1"
    );
    for ea in &a {
        let Some(eb) = b.iter().find(|eb| same(ea, eb)) else {
            ok = false;
            println!(
                "{:<18} {:<38} {:>14.6} {:>14} {:>8}  missing",
                ea.workload, ea.metric, ea.value, "-", "-"
            );
            continue;
        };
        let change = if ea.value == eb.value {
            0.0
        } else {
            eb.value / ea.value - 1.0
        };
        let status = if ea.metric == "fail_frac" {
            if ea.value == 0.0 && eb.value == 0.0 {
                "ok"
            } else {
                "worse"
            }
        } else if EXACT.contains(&ea.metric.as_str()) {
            if ea.value == eb.value {
                "ok"
            } else {
                "differs"
            }
        } else if let Some((d, bound)) = declared
            .iter()
            .find(|d| d.name == ea.metric)
            .and_then(|d| Some((d, d.bound?)))
        {
            let spread = |e: &Entry| (e.max - e.min) / e.value.abs();
            if change.abs() <= bound {
                "ok"
            } else if spread(ea) > bound || spread(eb) > bound {
                "unresolved"
            } else if (change > 0.0) == d.higher_is_better {
                "better"
            } else {
                "worse"
            }
        } else {
            // a layer measurement: shown, not judged
            "-"
        };
        ok &= status != "worse" && status != "differs";
        println!(
            "{:<18} {:<38} {:>14.6} {:>14.6} {:>+7.1}%  {status}",
            ea.workload,
            ea.metric,
            ea.value,
            eb.value,
            100.0 * change
        );
    }
    for eb in b.iter().filter(|eb| !a.iter().any(|ea| same(ea, eb))) {
        ok = false;
        println!(
            "{:<18} {:<38} {:>14} {:>14.6} {:>8}  missing",
            eb.workload, eb.metric, "-", eb.value, "-"
        );
    }
    Ok(ok)
}
