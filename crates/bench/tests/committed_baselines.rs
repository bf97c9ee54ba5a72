//! The behaviour gate. A committed `BENCH_*.json` holds only what the seeds
//! determine, so each test runs the bin that writes one and demands the
//! committed bytes back: all 88 cells of the four grids and the 78 lap
//! counts of the profile grid, any byte of them. A failure quotes the first
//! differing line of both sides — a file holds one cell per line with named
//! columns, so the line is the `(cell, column, committed, fresh)` report.
//! The sixteen bins that write no file are pinned the same way by their
//! stdout (`stdout/<bin>.txt`, module `stdout`): every experiment bin
//! asserts what it reproduces (completion, bounds, soundness), so an assert
//! that starts failing is red here, not left for someone to run by hand.
//!
//! `faults` and `sessions` take tens of milliseconds in release and run in
//! every `cargo test --workspace`; the others take seconds in release
//! (≈ 20 s for the sixteen stdout pins on two cores, `exp_random_walk`
//! most of it) and far longer in debug, and run under the release job's
//! `--ignored`. A new deterministic artefact — a `BENCH_*.json` or a new
//! bin's stdout — joins the gate by committing its file and adding one
//! test (or one name to `stdout`'s list) here.

use dynspread_analysis::trace::first_divergence;
use std::process::Command;
use std::sync::Mutex;

/// Held while a bin runs: `exp_scale` fans out over every core and
/// `exp_profile` reads the wall clock, so the grids take turns.
static SERIAL: Mutex<()> = Mutex::new(());

/// `Ok` when `fresh` is `committed` byte for byte; otherwise the gate's
/// failure message for the file called `file`.
fn same_bytes(file: &str, committed: &str, fresh: &str) -> Result<(), String> {
    if committed == fresh {
        return Ok(());
    }
    let (c, f): (Vec<&str>, Vec<&str>) = (committed.lines().collect(), fresh.lines().collect());
    let differing = c.len().abs_diff(f.len()) + c.iter().zip(&f).filter(|(c, f)| c != f).count();
    let first =
        first_divergence(committed, fresh).map_or("only in how lines end".to_string(), |d| {
            format!(
                "the first at line {}:\n  committed: {}\n  fresh:     {}",
                d.line,
                d.left.as_deref().unwrap_or("<end of file>"),
                d.right.as_deref().unwrap_or("<end of file>")
            )
        });
    Err(format!(
        "{file}: {differing} line(s) differ from a fresh run, {first}\n\
         legitimate change? re-run the bin and commit the file"
    ))
}

/// Runs `bin` with a scratch output path and demands `BENCH_<family>.json`
/// at the repo root back.
fn gate(bin: &str, family: &str) {
    let file = format!("BENCH_{family}.json");
    let fresh_path = std::env::temp_dir().join(format!("dynspread-{}-{file}", std::process::id()));
    let out = {
        let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        Command::new(bin).arg(&fresh_path).output().expect("spawn")
    };
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{bin} failed: {stderr}");
    let fresh = std::fs::read_to_string(&fresh_path).expect("the bin wrote its file");
    std::fs::remove_file(&fresh_path).expect("clean up");
    let committed_path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    let committed = std::fs::read_to_string(&committed_path)
        .unwrap_or_else(|e| panic!("read {committed_path}: {e}"));
    if let Err(report) = same_bytes(&file, &committed, &fresh) {
        panic!("{report}");
    }
}

#[test]
fn faults() {
    gate(env!("CARGO_BIN_EXE_exp_faults"), "faults");
}

#[test]
fn sessions() {
    gate(env!("CARGO_BIN_EXE_exp_sessions"), "sessions");
}

#[test]
#[ignore = "seconds in release, minutes in debug; CI runs it in the release job"]
fn byzantine() {
    gate(env!("CARGO_BIN_EXE_exp_byzantine"), "byzantine");
}

#[test]
#[ignore = "seconds in release, minutes in debug; CI runs it in the release job"]
fn runtime() {
    gate(env!("CARGO_BIN_EXE_exp_scale"), "runtime");
}

#[test]
#[ignore = "seconds in release, minutes in debug; CI runs it in the release job"]
fn profile() {
    gate(env!("CARGO_BIN_EXE_exp_profile"), "profile");
}

/// The sixteen bins that write no file, pinned by their stdout: each runs
/// with no arguments and must print `stdout/<bin>.txt` back byte for byte.
/// A legitimate change is re-pinned from the repo root with
/// `./target/release/<bin> > crates/bench/stdout/<bin>.txt`.
mod stdout {
    use super::{same_bytes, Command, SERIAL};

    fn pin(bin: &str, name: &str) {
        let out = {
            let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
            Command::new(bin)
                .current_dir(std::env::temp_dir())
                .output()
                .expect("spawn")
        };
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{bin} failed: {stderr}");
        let file = format!("stdout/{name}.txt");
        let committed_path = format!("{}/{file}", env!("CARGO_MANIFEST_DIR"));
        let committed = std::fs::read_to_string(&committed_path)
            .unwrap_or_else(|e| panic!("read {committed_path}: {e}"));
        let fresh = String::from_utf8(out.stdout).expect("utf-8 stdout");
        if let Err(report) = same_bytes(&file, &committed, &fresh) {
            panic!("{report}");
        }
    }

    macro_rules! pins {
        ($($bin:ident),* $(,)?) => {$(
            #[test]
            #[ignore = "seconds in release, minutes in debug; CI runs it in the release job"]
            fn $bin() {
                pin(env!(concat!("CARGO_BIN_EXE_", stringify!($bin))), stringify!($bin));
            }
        )*};
    }

    pins!(
        table1,
        fig1_free_edges,
        exp_adaptivity_gap,
        exp_async_vs_sync,
        exp_latency_sweep,
        exp_local_broadcast_lb,
        exp_lossy_links,
        exp_multi_source,
        exp_network_coding,
        exp_oblivious,
        exp_oblivious_async,
        exp_priority_ablation,
        exp_random_walk,
        exp_single_source,
        exp_stability_ablation,
        exp_time_vs_messages,
    );
}

#[test]
fn a_difference_is_reported_by_file_count_and_first_line_of_both_sides() {
    let cell = |events: u32| format!("    {{\"n\": 24, \"events\": {events}}}");
    let file = |cells: &[String]| format!("{{\n  \"cells\": [\n{}\n  ]\n}}\n", cells.join(",\n"));
    let committed = file(&[cell(5048), cell(977)]);
    assert_eq!(same_bytes("BENCH_x.json", &committed, &committed), Ok(()));

    let planted = file(&[cell(5048), cell(978)]);
    assert_eq!(
        same_bytes("BENCH_x.json", &committed, &planted).unwrap_err(),
        "BENCH_x.json: 1 line(s) differ from a fresh run, the first at line 4:\n  \
         committed:     {\"n\": 24, \"events\": 977}\n  \
         fresh:         {\"n\": 24, \"events\": 978}\n\
         legitimate change? re-run the bin and commit the file"
    );

    // A cell more on either side is a difference, not a subset to skip.
    let longer = file(&[cell(5048), cell(977), cell(1)]);
    let report = same_bytes("BENCH_x.json", &committed, &longer).unwrap_err();
    assert!(report.contains("4 line(s) differ"), "{report}");
    assert!(
        report.contains("fresh:         {\"n\": 24, \"events\": 977},"),
        "{report}"
    );
    let report = same_bytes("BENCH_x.json", &longer, &committed).unwrap_err();
    assert!(
        report.contains("committed:     {\"n\": 24, \"events\": 977},"),
        "{report}"
    );
    let report = same_bytes("BENCH_x.json", &committed, "").unwrap_err();
    assert!(report.contains("fresh:     <end of file>"), "{report}");
}
