//! `bench_check` — the CI perf-regression gate.
//!
//! Compares freshly measured bench artifacts against the committed
//! baselines and fails (exit 1) if any gated metric regressed beyond the
//! tolerance, printing the full delta table either way. CI runs it after
//! regenerating the fresh side:
//!
//! ```text
//! cargo run --release -p dynspread-bench --bin exp_scale -- --smoke BENCH_runtime.fresh.json
//! cargo run --release -p dynspread-bench --bin bench_core -- BENCH_core.fresh.json
//! cargo run --release -p dynspread-bench --bin bench_check -- \
//!     --tolerance 0.30 --min-wall-ms 40 \
//!     --runtime BENCH_runtime.json BENCH_runtime.fresh.json \
//!     --core BENCH_core.json BENCH_core.fresh.json \
//!     --byzantine BENCH_byzantine.json BENCH_byzantine.fresh.json \
//!     --faults BENCH_faults.json BENCH_faults.fresh.json \
//!     --sessions BENCH_sessions.json BENCH_sessions.fresh.json
//! ```
//!
//! The default 30% tolerance absorbs shared-runner noise, and grid
//! cells whose baseline wall time is under `--min-wall-ms` (default
//! 40 ms) are not gated at all — a single sub-50 ms run jitters past
//! any tolerance on a shared runner. The `core` microbench family has
//! no wall floor to hide behind (each metric is a sub-millisecond
//! median, and CI measures `bench_core` straight after the all-cores
//! `exp_scale` step, which shifts the whole distribution), so those
//! metrics are gated at **double** the tolerance instead of being
//! dropped. What the gate catches is the
//! step-function regressions (an accidental O(n) in the event loop, a
//! lost batching path) that used to be able to land silently because
//! nothing ever *read* the perf artifacts in CI. When a legitimate
//! change moves a metric past the tolerance, refresh the committed
//! baselines in the same PR — the gate then documents the new level
//! instead of blocking it.
//!
//! `--byzantine`, `--faults`, and `--sessions` join the gate like the
//! other artifacts — committed `BENCH_byzantine.json` /
//! `BENCH_faults.json` / `BENCH_sessions.json` baselines exist, so a
//! missing baseline file is an error, and the comparisons use the same
//! tolerance and wall floor (the session grid's *virtual* metrics —
//! latency percentiles and envelope load — are deterministic and gated
//! with no floor at all). A grid family whose fresh cells match no
//! baseline cell fails the gate (exit 1) rather than being skipped, and
//! a malformed command line exits 2 with a usage message.

use dynspread_bench::check::{
    cell_deltas, core_deltas, CellSpec, Delta, Json, BYZANTINE, FAULTS, RUNTIME, SESSIONS,
};

/// The grid families, in the order their deltas are printed.
const GRIDS: [(&str, &CellSpec); 4] = [
    ("--runtime", &RUNTIME),
    ("--byzantine", &BYZANTINE),
    ("--faults", &FAULTS),
    ("--sessions", &SESSIONS),
];

const USAGE: &str = "usage: bench_check [--tolerance FRAC] [--min-wall-ms MS] \
    [--runtime|--core|--byzantine|--faults|--sessions BASE.json FRESH.json]...";

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// What the command line asks for.
#[derive(Debug)]
struct Request {
    tolerance: f64,
    min_wall_ms: f64,
    /// `(family rank in GRIDS, baseline path, fresh path)`.
    grids: Vec<(usize, String, String)>,
    /// `(baseline path, fresh path)`.
    core: Vec<(String, String)>,
}

/// Parses the command line; the error names the flag at fault.
fn parse_args(args: &[String]) -> Result<Request, String> {
    let mut req = Request {
        tolerance: 0.30,
        // Cells whose baseline wall time is under this are not gated: a
        // single sub-50 ms run jitters past any tolerance on a shared
        // runner.
        min_wall_ms: 40.0,
        grids: Vec::new(),
        core: Vec::new(),
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let operands = |count: usize, what: &str| {
            args.get(i + 1..i + 1 + count)
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        let number = |example: &str| -> Result<f64, String> {
            let what = format!("a number, e.g. {example}");
            operands(1, &what)?[0]
                .parse()
                .map_err(|_| format!("{flag} needs {what}"))
        };
        match flag {
            "--tolerance" => {
                req.tolerance = number("0.30")?;
                i += 2;
            }
            "--min-wall-ms" => {
                req.min_wall_ms = number("40")?;
                i += 2;
            }
            "--core" => {
                let files = operands(2, "BASE.json FRESH.json")?;
                req.core.push((files[0].clone(), files[1].clone()));
                i += 3;
            }
            _ => {
                let rank = GRIDS
                    .iter()
                    .position(|(f, _)| *f == flag)
                    .ok_or_else(|| format!("unknown argument {flag}"))?;
                let files = operands(2, "BASE.json FRESH.json")?;
                req.grids.push((rank, files[0].clone(), files[1].clone()));
                i += 3;
            }
        }
    }
    if req.core.is_empty() && req.grids.is_empty() {
        return Err("nothing to compare".into());
    }
    // Families print in GRIDS order whatever order the flags came in.
    req.grids.sort_by_key(|(rank, _, _)| *rank);
    Ok(req)
}

/// Loads every requested pair and gathers its deltas: the core
/// microbenches first, then the grid families.
fn gather(req: &Request) -> Result<Vec<Delta>, String> {
    let mut deltas = Vec::new();
    for (base, fresh) in &req.core {
        deltas.extend(core_deltas(&load(base)?, &load(fresh)?));
    }
    for (rank, base, fresh) in &req.grids {
        let spec = GRIDS[*rank].1;
        let family = cell_deltas(spec, &load(base)?, &load(fresh)?, req.min_wall_ms)
            .map_err(|e| format!("{e} ({base} vs {fresh})"))?;
        deltas.extend(family);
    }
    if deltas.is_empty() {
        return Err("no comparable metrics: every matched cell is under the wall floor".into());
    }
    Ok(deltas)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let req = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("bench_check: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let tolerance = req.tolerance;
    let deltas = gather(&req).unwrap_or_else(|e| {
        eprintln!("bench_check: {e}");
        std::process::exit(1);
    });

    // The core microbenches are sub-millisecond medians with no wall
    // floor to exempt them, and CI runs bench_core right after the
    // all-cores exp_scale smoke — residual load shifts their whole
    // sample distribution by far more than grid-cell jitter. Double
    // tolerance keeps them gated (a real step-function regression is
    // 5-10x) without crying wolf.
    let tol_for =
        |d: &Delta| -> f64 { tolerance * if d.key.starts_with("core ") { 2.0 } else { 1.0 } };
    println!(
        "{:<44} {:>12} {:>12} {:>9}   (tolerance +{:.0}%, core +{:.0}%)",
        "metric",
        "baseline",
        "fresh",
        "delta",
        tolerance * 100.0,
        tolerance * 200.0
    );
    println!("{}", "-".repeat(84));
    let mut regressions = Vec::new();
    for d in &deltas {
        let verdict = if d.regressed(tol_for(d)) {
            regressions.push(d.key.clone());
            "  REGRESSED"
        } else {
            ""
        };
        println!("{d}{verdict}");
    }
    println!("{}", "-".repeat(84));
    if regressions.is_empty() {
        println!(
            "bench_check: OK — {} metrics within tolerance of baseline",
            deltas.len()
        );
    } else {
        eprintln!(
            "bench_check: FAILED — {}/{} metrics regressed beyond tolerance:",
            regressions.len(),
            deltas.len()
        );
        for key in &regressions {
            eprintln!("  {key}");
        }
        eprintln!("(legitimate change? refresh the committed baselines in this PR)");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Request, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn a_missing_operand_is_an_error_naming_the_flag() {
        for flag in [
            "--runtime",
            "--core",
            "--byzantine",
            "--faults",
            "--sessions",
        ] {
            for operands in [&[][..], &["BASE.json"][..]] {
                let mut args = vec!["--tolerance", "0.2", flag];
                args.extend_from_slice(operands);
                let err = parse(&args).expect_err("operand missing");
                assert!(err.starts_with(flag), "{err}");
            }
        }
        assert!(parse(&["--tolerance"]).unwrap_err().contains("--tolerance"));
        assert!(parse(&["--min-wall-ms", "soon"]).is_err());
        assert!(parse(&["--bogus"]).unwrap_err().contains("--bogus"));
        assert!(parse(&["--tolerance", "0.2"]).is_err(), "no file pair");
    }

    #[test]
    fn families_are_ordered_by_kind_not_by_flag_position() {
        let req = parse(&[
            "--sessions",
            "s",
            "s2",
            "--min-wall-ms",
            "7",
            "--core",
            "c",
            "c2",
            "--runtime",
            "r",
            "r2",
        ])
        .expect("well-formed");
        assert_eq!(req.min_wall_ms, 7.0);
        assert_eq!(req.core, [("c".to_string(), "c2".to_string())]);
        let ranks: Vec<usize> = req.grids.iter().map(|g| g.0).collect();
        assert_eq!(ranks, [0, 3]);
    }
}
