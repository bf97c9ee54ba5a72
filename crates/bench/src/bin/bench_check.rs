//! `bench_check` — the CI behaviour gate.
//!
//! Compares freshly generated grid artifacts against the committed
//! baselines and fails (exit 1) unless every deterministic column of every
//! fresh cell equals its committed value (see
//! [`dynspread_bench::check`]). CI runs it after the four smoke grids:
//!
//! ```text
//! cargo run --release -p dynspread-bench --bin exp_scale -- --smoke BENCH_runtime.fresh.json
//! …
//! cargo run --release -p dynspread-bench --bin bench_check -- \
//!     --runtime BENCH_runtime.json BENCH_runtime.fresh.json \
//!     --byzantine BENCH_byzantine.json BENCH_byzantine.fresh.json \
//!     --faults BENCH_faults.json BENCH_faults.fresh.json \
//!     --sessions BENCH_sessions.json BENCH_sessions.fresh.json
//! ```
//!
//! Runs are seed-deterministic, so the gate is red only when behaviour
//! changed: each mismatch is named by family, cell, column and both values.
//! When the change is intended, regenerate the family's `BENCH_*.json` by
//! re-running its `exp_*` bin in the same PR. Wall time is not compared —
//! `exp_scale` records it for orientation, and speed claims go through
//! `benchmark/` parent/change pairs. A malformed command line exits 2 with
//! a usage message.

use dynspread_bench::check::{compare_cells, CellSpec, Json, BYZANTINE, FAULTS, RUNTIME, SESSIONS};

/// The families, each selected by `--<family> BASE.json FRESH.json`.
const FAMILIES: [&CellSpec; 4] = [&RUNTIME, &BYZANTINE, &FAULTS, &SESSIONS];

const USAGE: &str =
    "usage: bench_check [--runtime|--byzantine|--faults|--sessions BASE.json FRESH.json]...";

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// One requested comparison: the family, its committed file, its fresh file.
type Pair = (&'static CellSpec, String, String);

/// Parses the command line; the error names the flag at fault.
fn parse_args(args: &[String]) -> Result<Vec<Pair>, String> {
    let mut pairs = Vec::new();
    for request in args.chunks(3) {
        let flag = request[0].as_str();
        let spec = FAMILIES
            .into_iter()
            .find(|spec| flag.strip_prefix("--") == Some(spec.family))
            .ok_or_else(|| format!("unknown argument {flag}"))?;
        let [_, base, fresh] = request else {
            return Err(format!("{flag} needs BASE.json FRESH.json"));
        };
        pairs.push((spec, base.clone(), fresh.clone()));
    }
    if pairs.is_empty() {
        return Err("nothing to compare".into());
    }
    Ok(pairs)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let pairs = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("bench_check: {e}\n{USAGE}");
        std::process::exit(2);
    });

    let (mut cells, mut values, mut failed) = (0, 0, Vec::new());
    for (spec, base, fresh) in &pairs {
        let family = spec.family;
        match load(base).and_then(|base| compare_cells(spec, &base, &load(fresh)?)) {
            Ok(compared) => {
                println!(
                    "{family:<10} {:>3} cells, {:>3} values equal",
                    compared.cells, compared.values
                );
                cells += compared.cells;
                values += compared.values;
            }
            Err(defects) => {
                eprintln!("{defects}");
                failed.push(family);
            }
        }
    }
    if !failed.is_empty() {
        eprintln!("bench_check: FAILED — behaviour differs from the committed baselines");
        for family in failed {
            eprintln!("(legitimate change? regenerate BENCH_{family}.json in this PR)");
        }
        std::process::exit(1);
    }
    println!(
        "bench_check: OK — {values} values on {cells} cells equal the committed baselines \
         (timing fields not compared)"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Vec<Pair>, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn a_missing_operand_is_an_error_naming_the_flag() {
        for flag in ["--runtime", "--byzantine", "--faults", "--sessions"] {
            for operands in [&[][..], &["BASE.json"][..]] {
                let mut args = vec!["--runtime", "a", "b", flag];
                args.extend_from_slice(operands);
                let err = parse(&args).expect_err("operand missing");
                assert!(err.starts_with(flag), "{err}");
            }
        }
        assert!(parse(&["--bogus"]).unwrap_err().contains("--bogus"));
        assert!(parse(&["--core", "a", "b"]).is_err(), "retired family");
        assert!(parse(&[]).is_err(), "no file pair");
    }

    #[test]
    fn each_flag_selects_its_family() {
        let pairs = parse(&["--sessions", "s", "s2", "--runtime", "r", "r2"]).expect("well-formed");
        let got: Vec<(&str, &str, &str)> = pairs
            .iter()
            .map(|(spec, base, fresh)| (spec.family, base.as_str(), fresh.as_str()))
            .collect();
        assert_eq!(got, [("sessions", "s", "s2"), ("runtime", "r", "r2")]);
    }
}
