//! `dynspread-benchmark`: one workload per process in contract mode
//! (`--workload W --seed S --seconds T --trace 0|1`), or the whole suite
//! when no workload is named. `run.sh` builds and then execs this.

use dynspread_benchmark::manifest::{self, DEFAULT_SEED, RUN_SECONDS};
use dynspread_benchmark::measure::{self, RunResult};
use dynspread_benchmark::suite::{self, SuiteArgs};
use dynspread_benchmark::workloads::{workload, Size};
use std::path::PathBuf;

const USAGE: &str = "usage: run.sh [--seed S] [--seconds T] [--repeat R] [--only w1,w2] [--tiny]
       run.sh --workload NAME --seed S --seconds T --trace 0|1 [--tiny]
       run.sh --manifest
  --tiny runs the n = 16 smoke sizes the test suite uses; its numbers mean nothing";

fn fail(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

fn print_result(name: &str, result: &RunResult) {
    for note in &result.notes {
        println!("# {note}");
    }
    for (cell, digest) in &result.digests {
        println!("# digest {name}/{cell} {digest:016x}");
    }
    for (metric, value, unit) in &result.metrics {
        println!("{name} {metric} {value} {unit}");
    }
    println!("{}", result.to_contract_json().to_line());
}

fn main() {
    let mut seed = DEFAULT_SEED;
    let mut seconds = RUN_SECONDS;
    let mut repeat = 1usize;
    let mut trace = false;
    let mut size = Size::Full;
    let mut name: Option<String> = None;
    let mut only: Vec<String> = Vec::new();
    let mut out = PathBuf::from("benchmark/out");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--manifest" => {
                print!("{}", manifest::benchmark_json().to_pretty());
                return;
            }
            "--workload" => name = Some(value("--workload")),
            "--seed" => {
                seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| fail("--seed takes a whole number"))
            }
            "--seconds" => {
                seconds = value("--seconds")
                    .parse()
                    .unwrap_or_else(|_| fail("--seconds takes a whole number"))
            }
            "--trace" => {
                trace = match value("--trace").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => fail("--trace takes 0 or 1"),
                }
            }
            "--repeat" => {
                repeat = value("--repeat")
                    .parse()
                    .unwrap_or_else(|_| fail("--repeat takes a whole number"))
            }
            "--only" => only = value("--only").split(',').map(str::to_string).collect(),
            "--out" => out = PathBuf::from(value("--out")),
            "--tiny" => size = Size::Tiny,
            other => fail(&format!("unknown argument {other}")),
        }
    }

    let Some(name) = name else {
        std::process::exit(suite::run(&SuiteArgs {
            seed,
            seconds,
            repeat,
            only,
            out,
            tiny: size == Size::Tiny,
        }));
    };
    let Some(w) = workload(&name, size) else {
        fail(&format!("unknown workload {name}"));
    };
    if trace {
        let pass = measure::per_layer(&w, seed);
        // The spans stayed in memory until here, the end of the pass.
        let path = out.join(format!("trace-{name}.json"));
        match std::fs::create_dir_all(&out)
            .and_then(|()| std::fs::write(&path, pass.json.to_pretty()))
        {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => println!("# could not write {}: {e}", path.display()),
        }
        print_result(&name, &pass.result);
    } else {
        print_result(&name, &measure::end_to_end(&w, seed, seconds as f64));
    }
}
