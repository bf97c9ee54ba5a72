//! Suite mode: every workload in its own single-threaded child process
//! (so `peak_rss_mb` is per workload and allocator state does not leak
//! between workloads), then one traced pass per workload, then the
//! cross-checks and `results.json`.

use crate::json::{self, Value};
use crate::manifest::{Better, END_TO_END, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::Command;

/// What the suite was asked to do.
#[derive(Clone, Debug)]
pub struct SuiteArgs {
    /// Master seed.
    pub seed: u64,
    /// Seconds per measured run.
    pub seconds: u64,
    /// How many times to run the end-to-end set (2 = compare the two).
    pub repeat: usize,
    /// Workloads to run (all when empty).
    pub only: Vec<String>,
    /// Directory for `results.json` and the trace files.
    pub out: PathBuf,
    /// Run the `n = 16` smoke sizes (tests only).
    pub tiny: bool,
}

/// One child's parsed output.
#[derive(Clone, Debug)]
struct ChildResult {
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: Vec<(String, f64, String)>,
    digests: Vec<(String, String)>,
}

fn run_child(
    exe: &Path,
    args: &SuiteArgs,
    workload: &str,
    trace: bool,
) -> Result<ChildResult, String> {
    let output = Command::new(exe)
        .arg("--out")
        .arg(&args.out)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(args.tiny.then_some("--tiny"))
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    let mut digests = Vec::new();
    for line in stdout.lines() {
        // Metric and note lines pass through; the JSON line is parsed.
        if !line.starts_with('{') {
            println!("{line}");
        }
        if let Some(rest) = line.strip_prefix("# digest ") {
            if let Some((cell, hex)) = rest.split_once(' ') {
                digests.push((cell.to_string(), hex.to_string()));
            }
        }
    }
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    let v = json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let field = |k: &str| {
        v.get(k)
            .ok_or_else(|| format!("{workload}: result lacks {k}"))
    };
    let metrics = field("metrics")?
        .as_obj()
        .ok_or("metrics is not an object")?
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or("metric lacks value")?;
            let unit = m
                .get("unit")
                .and_then(Value::as_str)
                .ok_or("metric lacks unit")?;
            Ok((name.clone(), value, unit.to_string()))
        })
        .collect::<Result<Vec<_>, &str>>()?;
    Ok(ChildResult {
        correct: field("correct")?.as_bool().ok_or("correct is not a bool")?,
        attempted: field("attempted")?
            .as_f64()
            .ok_or("attempted is not a number")?,
        failed: field("failed")?.as_f64().ok_or("failed is not a number")?,
        metrics,
        digests,
    })
}

fn child_json(c: &ChildResult) -> Value {
    Value::obj([
        ("correct", Value::Bool(c.correct)),
        ("attempted", Value::Num(c.attempted)),
        ("failed", Value::Num(c.failed)),
        (
            "metrics",
            Value::Obj(
                c.metrics
                    .iter()
                    .map(|(n, v, u)| {
                        (
                            n.clone(),
                            Value::obj([("value", Value::Num(*v)), ("unit", Value::str(u))]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "stats_digest",
            Value::Obj(
                c.digests
                    .iter()
                    .map(|(cell, hex)| (cell.clone(), Value::str(hex)))
                    .collect(),
            ),
        ),
    ])
}

fn read_first_number(path: &str) -> f64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative = better).
fn worsening(first: f64, second: f64, better: Better) -> f64 {
    if first == 0.0 {
        return if second == first { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (second - first) / first.abs(),
        Better::Higher => (first - second) / first.abs(),
    }
}

/// Runs the suite. Returns the process exit code.
pub fn run(args: &SuiteArgs) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return 2;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("cannot create {}: {e}", args.out.display());
        return 2;
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let load = read_first_number("/proc/loadavg");
    println!(
        "# seed {} seconds {} repeat {} nproc {nproc} loadavg1 {load}",
        args.seed, args.seconds, args.repeat
    );
    if load > nproc as f64 {
        println!(
            "# WARNING: load average {load} exceeds {nproc} cores; wall metrics will be noisy"
        );
    }
    let names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.0)
        .filter(|n| args.only.is_empty() || args.only.iter().any(|o| o == n))
        .collect();
    if names.is_empty() {
        eprintln!("no workload matches {:?}", args.only);
        return 2;
    }

    let mut problems: Vec<String> = Vec::new();
    let mut sets: Vec<Vec<ChildResult>> = Vec::new();
    for rep in 0..args.repeat.max(1) {
        println!("# end-to-end set {}", rep + 1);
        let mut set = Vec::new();
        for name in &names {
            match run_child(&exe, args, name, false) {
                Ok(c) => set.push(c),
                Err(e) => {
                    eprintln!("{e}");
                    return 1;
                }
            }
        }
        sets.push(set);
    }
    println!("# traced pass");
    let mut traced = Vec::new();
    for name in &names {
        match run_child(&exe, args, name, true) {
            Ok(c) => traced.push(c),
            Err(e) => {
                eprintln!("{e}");
                return 1;
            }
        }
    }

    for (wi, name) in names.iter().enumerate() {
        for (rep, set) in sets.iter().enumerate() {
            let c = &set[wi];
            if !c.correct {
                problems.push(format!(
                    "{name}: set {} failed {} of {} checks",
                    rep + 1,
                    c.failed,
                    c.attempted
                ));
            }
            // The same instance replayed in another process — plain in
            // every set, wrapped in the traced pass — must digest alike.
            if c.digests != sets[0][wi].digests || c.digests != traced[wi].digests {
                problems.push(format!(
                    "{name}: stats_digest differs between processes (set {})",
                    rep + 1
                ));
            }
        }
        if !traced[wi].correct {
            problems.push(format!("{name}: traced pass failed a check"));
        }
    }

    if sets.len() >= 2 {
        println!("# repeat check: set 2 against set 1 (worsening, bound)");
        for (wi, name) in names.iter().enumerate() {
            for m in END_TO_END {
                let value = |set: &[ChildResult]| {
                    set[wi]
                        .metrics
                        .iter()
                        .find(|(n, _, _)| n == m.name)
                        .map(|(_, v, _)| *v)
                };
                let (Some(a), Some(b)) = (value(&sets[0]), value(&sets[1])) else {
                    problems.push(format!("{name}: {} missing from a set", m.name));
                    continue;
                };
                let w = worsening(a, b, m.better);
                let verdict = if m.exact {
                    if a == b {
                        "equal"
                    } else {
                        "DIFFERS"
                    }
                } else if w.abs() <= m.bound {
                    "ok"
                } else {
                    "EXCEEDS"
                };
                println!(
                    "{name} {} {a} -> {b} {:+.4} bound {} {verdict}",
                    m.name, w, m.bound
                );
                if verdict == "DIFFERS" || verdict == "EXCEEDS" {
                    problems.push(format!("{name}: {} {a} -> {b} ({verdict})", m.name));
                }
            }
        }
    }

    let results = Value::obj([
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds as f64)),
        ("nproc", Value::Num(nproc as f64)),
        ("loadavg1", Value::Num(load)),
        (
            "workloads",
            Value::Obj(
                names
                    .iter()
                    .enumerate()
                    .map(|(wi, name)| {
                        (
                            name.to_string(),
                            Value::obj([
                                (
                                    "end_to_end",
                                    Value::Arr(sets.iter().map(|s| child_json(&s[wi])).collect()),
                                ),
                                ("per_layer", child_json(&traced[wi])),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "problems",
            Value::Arr(problems.iter().map(Value::str).collect()),
        ),
    ]);
    let path = args.out.join("results.json");
    if let Err(e) = std::fs::write(&path, results.to_pretty()) {
        eprintln!("cannot write {}: {e}", path.display());
        return 2;
    }
    println!("# wrote {}", path.display());
    for p in &problems {
        println!("# PROBLEM {p}");
    }
    i32::from(!problems.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_respects_direction() {
        assert_eq!(worsening(10.0, 11.0, Better::Lower), 0.1);
        assert_eq!(worsening(10.0, 9.0, Better::Lower), -0.1);
        assert_eq!(worsening(1.0, 0.9, Better::Higher), 0.09999999999999998);
        assert_eq!(worsening(0.0, 0.0, Better::Lower), 0.0);
    }
}
