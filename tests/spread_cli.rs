//! `spread`'s command line, pinned byte for byte.
//!
//! Each row runs the built binary and compares three things with the
//! literals below: its exit status, the first line it writes to stderr,
//! and everything it writes to stdout. Runs are seed-deterministic, so a
//! difference is a behaviour change — in what a run prints, in which
//! error a malformed invocation reports first, or in its exit status: 2
//! for a flag that cannot be read or flags that contradict each other,
//! 1 for a malformed value.

use std::path::{Path, PathBuf};
use std::process::Command;

/// `(arguments, exit status, first line of stderr, stdout)`. `{dir}` in
/// the arguments or the stderr line stands for the test's own scratch
/// directory.
type Row = (&'static str, i32, &'static str, &'static str);

/// A scratch directory private to one test of this process.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spread-cli-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn check(dir: Option<&Path>, rows: &[Row]) {
    let dir = dir.map_or("", |d| d.to_str().unwrap());
    for &(args, status, stderr, stdout) in rows {
        let args = args.replace("{dir}", dir);
        let out = Command::new(env!("CARGO_BIN_EXE_spread"))
            .args(args.split_whitespace())
            .output()
            .unwrap();
        let err = String::from_utf8(out.stderr).unwrap();
        let got = (
            out.status.code(),
            err.lines().next().unwrap_or("").to_string(),
            String::from_utf8(out.stdout).unwrap(),
        );
        let want = (
            Some(status),
            stderr.replace("{dir}", dir),
            stdout.to_string(),
        );
        assert_eq!(got, want, "spread {args}");
    }
}

/// The module doc's four examples; the first is also the root README's
/// line.
#[test]
fn documented_examples() {
    check(None, EXAMPLES);
}

/// Every algorithm on one small instance.
#[test]
fn every_algorithm() {
    check(None, ALGORITHMS);
}

/// Each adversary family, the phase-2 seeds of both oblivious pipelines,
/// faults with Byzantine nodes, `--kt0`, `--max-rounds` and `--help`.
#[test]
fn axes_and_caps() {
    check(None, AXES);
}

/// Malformed invocations: which error is reported first, and its exit
/// status.
#[test]
fn malformed_inputs() {
    check(None, MALFORMED);
}

/// Inputs that used to break the binary: a seed whose phase-2 successor
/// overflowed (a panic in debug builds), `--kt0` where no engine charges
/// hellos (silently ignored), sizes beyond the `u32` id width (an
/// allocation abort), `--n` below 4 without `--s` (an error about a flag
/// never given; the default is now min(4, n)), a cycle on two nodes (a
/// panic) and a recovery time past `u64::MAX` (an overflow panic in debug
/// builds).
#[test]
fn formerly_broken_inputs() {
    check(None, FORMERLY_BROKEN);
}

/// A reader that closes its end early (`spread … | head -2`) is no error:
/// status 0 and nothing on stderr, where `println!` used to panic.
#[test]
fn closed_stdout_is_not_an_error() {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let spread = Command::new(env!("CARGO_BIN_EXE_spread"))
        .stdout(writer)
        .output()
        .unwrap();
    let stderr = String::from_utf8(spread.stderr).unwrap();
    assert_eq!((spread.status.code(), stderr.as_str()), (Some(0), ""));
}

/// Algorithm 2 on the event engine, every node a source: phase 1 walks the
/// tokens to fewer centers than nodes instead of skipping to multi-source.
#[test]
fn async_oblivious_walks_to_fewer_centers() {
    let out = Command::new(env!("CARGO_BIN_EXE_spread"))
        .args([
            "--alg",
            "async-oblivious",
            "--n",
            "16",
            "--k",
            "16",
            "--s",
            "16",
        ])
        .output()
        .unwrap();
    let out = String::from_utf8(out.stdout).unwrap();
    assert!(out.starts_with("scenario-async-oblivious vs "), "{out}");
    let centers = out.lines().last().and_then(|l| l.split(' ').next());
    assert!(centers.unwrap().parse::<usize>().unwrap() < 16, "{out}");
}

/// `--sessions` read from a trace file.
#[test]
fn session_trace_files() {
    let dir = scratch("sessions");
    let file = |name: &str, text: &str| std::fs::write(dir.join(name), text).unwrap();
    file(
        "good.trace",
        "# ARRIVAL SOURCE K [LEAVE]\n0 0 4\n10 2 2 500\n\n30 1 1  # last\n",
    );
    file("empty.trace", "# no sessions yet\n\n");
    file("source.trace", "0 9 4\n");
    file("huge.trace", "0 0 4\n5 1 99999999999999\n");
    check(Some(&dir), SESSION_TRACES);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `--trace-out` prints what the untraced run prints and writes the
/// JSONL trace.
#[test]
fn trace_out_writes_the_trace() {
    let dir = scratch("trace-out");
    check(Some(&dir), TRACED);
    let trace = std::fs::read_to_string(dir.join("run.jsonl")).unwrap();
    assert_eq!(trace.len(), 14_416);
    assert_eq!(
        trace.lines().next(),
        Some(r#"{"k":"round","r":1,"ins":7,"del":0}"#)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

const EXAMPLES: &[Row] = &[
    (
        "--alg multi-source --adv churn:sparse:2.0:2:3 --n 40 --k 80 --s 4",
        0,
        "",
        r"multi-source-unicast vs churn(SparseConnected(2.0), c=2, σ=3) (n=40, k=80): completed in 126 rounds
  messages: 7751 total (7751 unicast, 0 broadcast), amortized 96.9/token
               token: 3120
        completeness: 1422
             request: 3209
  TC(E) = 330 insertions (246 deletions); 1-competitive residual = 7421
",
    ),
    (
        "--alg rlnc --adv rewire:tree:1 --n 24 --k 24 --s 24",
        0,
        "",
        r"rlnc-gossip vs rewire(RandomTree, ρ=1) (n=24, k=24): completed in 18 rounds
  messages: 432 total (0 unicast, 432 broadcast), amortized 18.0/token
               token: 432
  TC(E) = 378 insertions (355 deletions); 1-competitive residual = 54
",
    ),
    (
        "--alg async-single-source --faults recover:0.2:50:200,part:80:400 --byz 0.15:false-claims",
        0,
        "",
        r"scenario-async-single-source vs rewire(RandomTree, ρ=3) (n=32, k=64): completed in 9 rounds
  messages: 4414 total (4414 unicast, 0 broadcast), amortized 69.0/token
  link: 4414 sends, 0 dropped, 0 duplicated, 18 retransmissions
  byzantine: 4 nodes, 4 violations detected, 4 indicted
  faults: 1 crashes, 0 recoveries, 0 partition episodes
  TC(E) = 87 insertions (56 deletions); 1-competitive residual = 4327
live coverage 1.000, honest coverage 1.000, 4 violations, 26 injected
",
    ),
    (
        "--alg async-single-source --sessions uniform:20:8:40 --n 24",
        0,
        "",
        r"session-service vs rewire(RandomTree, ρ=3) (n=24, k=0): DID NOT COMPLETE in 231 rounds
  messages: 10894 total (10894 unicast, 0 broadcast)
  TC(E) = 1609 insertions (1586 deletions); 1-competitive residual = 9285
session       s0: arrival        0 latency        0 messages      507
session       s1: arrival       16 latency        0 messages      599
session       s2: arrival       53 latency        0 messages      581
session       s3: arrival       84 latency        0 messages      508
session       s4: arrival      119 latency        0 messages      584
session       s5: arrival      143 latency        0 messages      595
session       s6: arrival      155 latency        0 messages      598
session       s7: arrival      168 latency        0 messages      508
session       s8: arrival      204 latency        0 messages      508
session       s9: arrival      239 latency        0 messages      592
session      s10: arrival      268 latency        0 messages      584
session      s11: arrival      276 latency        0 messages      510
session      s12: arrival      301 latency        0 messages      511
session      s13: arrival      321 latency        0 messages      509
session      s14: arrival      353 latency        0 messages      584
session      s15: arrival      363 latency        0 messages      509
session      s16: arrival      388 latency        0 messages      584
session      s17: arrival      426 latency        0 messages      509
session      s18: arrival      456 latency        0 messages      507
session      s19: arrival      458 latency        0 messages      507
sessions: 20/20 complete, p50 latency Some(0), p95 latency Some(0), 10894 session messages, 0 decode errors, 0 foreign drops
",
    ),
];

const ALGORITHMS: &[Row] = &[
    (
        "--alg single-source --n 8 --k 8 --s 4 --seed 5",
        0,
        "",
        r"single-source-unicast vs rewire(RandomTree, ρ=3) (n=8, k=8): completed in 44 rounds
  messages: 171 total (171 unicast, 0 broadcast), amortized 21.4/token
               token: 56
        completeness: 36
             request: 79
  TC(E) = 80 insertions (73 deletions); 1-competitive residual = 91
",
    ),
    (
        "--alg multi-source --n 8 --k 8 --s 4 --seed 5",
        0,
        "",
        r"multi-source-unicast vs rewire(RandomTree, ρ=3) (n=8, k=8): completed in 36 rounds
  messages: 302 total (302 unicast, 0 broadcast), amortized 37.8/token
               token: 56
        completeness: 171
             request: 75
  TC(E) = 67 insertions (60 deletions); 1-competitive residual = 235
",
    ),
    (
        "--alg unicast-flood --n 8 --k 8 --s 4 --seed 5",
        0,
        "",
        r"unicast-flooding vs rewire(RandomTree, ρ=3) (n=8, k=8): completed in 27 rounds
  messages: 234 total (234 unicast, 0 broadcast), amortized 29.2/token
               token: 234
  TC(E) = 48 insertions (41 deletions); 1-competitive residual = 186
",
    ),
    (
        "--alg phased-flood --n 8 --k 8 --s 4 --seed 5",
        0,
        "",
        r"phased-flooding vs rewire(RandomTree, ρ=3) (n=8, k=8): completed in 60 rounds
  messages: 347 total (0 unicast, 347 broadcast), amortized 43.4/token
               token: 347
  TC(E) = 106 insertions (99 deletions); 1-competitive residual = 241
",
    ),
    (
        "--alg rlnc --n 8 --k 8 --s 4 --seed 5",
        0,
        "",
        r"rlnc-gossip vs rewire(RandomTree, ρ=3) (n=8, k=8): completed in 12 rounds
  messages: 90 total (0 unicast, 90 broadcast), amortized 11.2/token
               token: 90
  TC(E) = 22 insertions (15 deletions); 1-competitive residual = 68
",
    ),
    (
        "--alg oblivious --n 8 --k 8 --s 4 --seed 5",
        0,
        "",
        r"oblivious-multi-source(phase1) vs rewire(RandomTree, ρ=3) (n=8, k=8): DID NOT COMPLETE in 9 rounds
  messages: 11 total (11 unicast, 0 broadcast), amortized 1.4/token
                walk: 6
     center-announce: 5
  TC(E) = 16 insertions (9 deletions); 1-competitive residual = -5
oblivious-multi-source(phase2) vs rewire(RandomTree, ρ=3) (n=8, k=8): completed in 35 rounds
  messages: 150 total (150 unicast, 0 broadcast), amortized 18.8/token
               token: 50
        completeness: 35
             request: 65
  TC(E) = 64 insertions (57 deletions); 1-competitive residual = 86
total: 161 messages in 44 rounds, amortized 20.1/token, 1 centers
",
    ),
    (
        "--alg async-single-source --n 8 --k 8 --s 4 --seed 5",
        0,
        "",
        r"scenario-async-single-source vs rewire(RandomTree, ρ=3) (n=8, k=8): completed in 1 rounds
  messages: 154 total (154 unicast, 0 broadcast), amortized 19.2/token
  TC(E) = 7 insertions (0 deletions); 1-competitive residual = 147
live coverage 1.000, honest coverage 1.000, 0 violations, 0 injected
",
    ),
    (
        "--alg async-multi-source --n 8 --k 8 --s 4 --seed 5",
        0,
        "",
        r"scenario-async-multi-source vs rewire(RandomTree, ρ=3) (n=8, k=8): completed in 1 rounds
  messages: 253 total (253 unicast, 0 broadcast), amortized 31.6/token
  TC(E) = 7 insertions (0 deletions); 1-competitive residual = 246
live coverage 1.000, honest coverage 1.000, 0 violations, 0 injected
",
    ),
    (
        "--alg async-oblivious --n 8 --k 8 --s 4 --seed 5",
        0,
        "",
        r"scenario-async-oblivious vs rewire(RandomTree, ρ=3) (n=8, k=8): completed in 1 rounds
  messages: 142 total (142 unicast, 0 broadcast), amortized 17.8/token
  TC(E) = 7 insertions (0 deletions); 1-competitive residual = 135
1 centers, 1 sources, 0 stranded, 0 reclaimed, 0 recovered, live coverage 1.000, honest coverage 1.000
",
    ),
];

const AXES: &[Row] = &[
    (
        "--alg oblivious --adv markov:0.1:0.25:2 --n 16 --k 16 --s 16 --seed 9",
        0,
        "",
        r"oblivious-multi-source(phase1) vs edge-markovian(p↑=0.1, p↓=0.25, σ=2) (n=16, k=16): DID NOT COMPLETE in 9 rounds
  messages: 79 total (79 unicast, 0 broadcast), amortized 4.9/token
                walk: 10
     center-announce: 69
  TC(E) = 87 insertions (54 deletions); 1-competitive residual = -8
oblivious-multi-source(phase2) vs edge-markovian(p↑=0.1, p↓=0.25, σ=2) (n=16, k=16): completed in 41 rounds
  messages: 1691 total (1691 unicast, 0 broadcast), amortized 105.7/token
               token: 230
        completeness: 1168
             request: 293
  TC(E) = 350 insertions (300 deletions); 1-competitive residual = 1341
total: 1770 messages in 50 rounds, amortized 110.6/token, 6 centers
",
    ),
    (
        "--alg async-oblivious --adv churn:sparse:2.0:2:3 --n 16 --k 16 --s 16 --seed 9 --faults recover:0.2:30:120:durable,part:60:400",
        0,
        "",
        r"scenario-async-oblivious vs churn(SparseConnected(2.0), c=2, σ=3) (n=16, k=16): completed in 1 rounds
  messages: 1342 total (1342 unicast, 0 broadcast), amortized 83.9/token
  faults: 3 crashes, 3 recoveries, 1 partition episodes
  TC(E) = 32 insertions (0 deletions); 1-competitive residual = 1310
6 centers, 6 sources, 0 stranded, 0 reclaimed, 0 recovered, live coverage 1.000, honest coverage 1.000
",
    ),
    (
        "--alg async-multi-source --adv static:regular:3 --n 12 --k 12 --s 3 --faults stop:0.2:40 --byz 0.1:drop-acks",
        0,
        "",
        r"scenario-async-multi-source vs static (n=12, k=12): completed in 1 rounds
  messages: 518 total (518 unicast, 0 broadcast), amortized 43.2/token
  byzantine: 1 nodes, 3 violations detected, 1 indicted
  TC(E) = 18 insertions (0 deletions); 1-competitive residual = 500
live coverage 1.000, honest coverage 1.000, 3 violations, 10 injected
",
    ),
    (
        "--alg phased-flood --adv static:gnp:0.3 --n 10 --k 6 --s 2",
        0,
        "",
        r"phased-flooding vs static (n=10, k=6): completed in 54 rounds
  messages: 420 total (0 unicast, 420 broadcast), amortized 70.0/token
               token: 420
  TC(E) = 9 insertions (0 deletions); 1-competitive residual = 411
",
    ),
    (
        "--alg unicast-flood --adv rewire:cycle:2 --n 10 --k 6 --kt0",
        0,
        "",
        r"unicast-flooding vs rewire(Cycle, ρ=2) (n=10, k=6): completed in 10 rounds
  messages: 80 total (80 unicast, 0 broadcast), amortized 13.3/token
               token: 60
             control: 20
  TC(E) = 10 insertions (0 deletions); 1-competitive residual = 70
",
    ),
    (
        "--alg single-source --n 8 --k 8 --seed 3 --kt0",
        0,
        "",
        r"single-source-unicast vs rewire(RandomTree, ρ=3) (n=8, k=8): completed in 54 rounds
  messages: 371 total (371 unicast, 0 broadcast), amortized 46.4/token
               token: 56
        completeness: 37
             request: 76
             control: 202
  TC(E) = 101 insertions (94 deletions); 1-competitive residual = 270
",
    ),
    (
        "--alg multi-source --n 8 --k 8 --seed 3 --kt0",
        0,
        "",
        r"multi-source-unicast vs rewire(RandomTree, ρ=3) (n=8, k=8): completed in 42 rounds
  messages: 493 total (493 unicast, 0 broadcast), amortized 61.6/token
               token: 56
        completeness: 199
             request: 80
             control: 158
  TC(E) = 79 insertions (72 deletions); 1-competitive residual = 414
",
    ),
    (
        "--alg oblivious --n 16 --k 16 --s 16 --max-rounds 1",
        0,
        "",
        r"oblivious-multi-source(phase1) vs rewire(RandomTree, ρ=3) (n=16, k=16): DID NOT COMPLETE in 1 rounds
  messages: 7 total (7 unicast, 0 broadcast), amortized 0.4/token
     center-announce: 7
  TC(E) = 15 insertions (0 deletions); 1-competitive residual = -8
oblivious-multi-source(phase2) vs rewire(RandomTree, ρ=3) (n=16, k=16): DID NOT COMPLETE in 1 rounds
  messages: 30 total (30 unicast, 0 broadcast), amortized 1.9/token
        completeness: 30
  TC(E) = 15 insertions (0 deletions); 1-competitive residual = 15
total: 37 messages in 2 rounds, amortized 2.3/token, 4 centers
",
    ),
    (
        "--alg async-single-source --n 8 --k 8 --max-rounds 3",
        0,
        "",
        r"scenario-async-single-source vs rewire(RandomTree, ρ=3) (n=8, k=8): completed in 1 rounds
  messages: 151 total (151 unicast, 0 broadcast), amortized 18.9/token
  TC(E) = 7 insertions (0 deletions); 1-competitive residual = 144
live coverage 1.000, honest coverage 1.000, 0 violations, 0 injected
",
    ),
    (
        "--help",
        0,
        r"usage: spread [--alg ALG] [--adv ADV] [--n N] [--k K] [--s S] [--seed SEED] [--max-rounds R] [--kt0]",
        "",
    ),
];

const MALFORMED: &[Row] = &[
    (
        "--alg teleport --faults stop:0.2:40",
        2,
        r"error: --faults needs an async-* algorithm (the synchronous engines have no fault/Byzantine/trace axes)",
        "",
    ),
    (
        "--alg teleport",
        1,
        r"error: unknown algorithm 'teleport'",
        "",
    ),
    (
        "--alg async-teleport",
        1,
        r"error: unknown algorithm 'async-teleport'",
        "",
    ),
    (
        "--adv quantum:1",
        1,
        r"error: unknown adversary 'quantum:1'",
        "",
    ),
    (
        "--n 1 --adv quantum:1",
        2,
        r"error: --n must be at least 2",
        "",
    ),
    (
        "--alg async-single-source --byz 2:drop-acks",
        1,
        r"error: byz fraction must be in [0, 1], got 2",
        "",
    ),
    ("--bogus", 2, r"error: unknown flag --bogus", ""),
    ("--n", 2, r"error: missing value for --n", ""),
    (
        "--n zero",
        2,
        r"error: --n: invalid digit found in string",
        "",
    ),
    ("--n 4 --s 9", 2, r"error: --s must be in 1..=n", ""),
    ("--k 0", 2, r"error: --k must be at least 1", ""),
    (
        "--trace-out spread.jsonl",
        2,
        r"error: --trace-out needs an async-* algorithm (the synchronous engines have no fault/Byzantine/trace axes)",
        "",
    ),
    (
        "--adv static:gnp:2.0",
        1,
        r"error: gnp probability must be in [0, 1], got 2.0",
        "",
    ),
    (
        "--adv rewire:tree",
        1,
        r"error: rewire needs TOPO:PERIOD",
        "",
    ),
    (
        "--adv static:regular:3 --n 2 --s 1",
        1,
        r"error: regular:D needs --n of at least 3",
        "",
    ),
    (
        "--adv churn:sparse:2.0:29:3 --n 8",
        1,
        r"error: churn must be at most n(n-1)/2 = 28, got 29",
        "",
    ),
    (
        "--alg async-single-source --faults stop:2:5",
        1,
        r"error: stop fraction must be in [0, 1], got 2",
        "",
    ),
    (
        "--alg async-single-source --faults melt:0.2",
        1,
        r"error: unknown fault segment 'melt:0.2'",
        "",
    ),
    (
        "--alg async-single-source --faults stop:0.2:40,recover:0.1:1:2",
        1,
        r"error: at most one crash segment, before any part",
        "",
    ),
    (
        "--alg async-single-source --byz 0.25:mind-control",
        1,
        r"error: unknown misbehavior kind 'mind-control'",
        "",
    ),
    (
        "--alg async-single-source --adv markov:2:0:1 --faults stop:2:5",
        1,
        r"error: p_on must be in [0, 1], got 2",
        "",
    ),
    (
        "--alg async-single-source --faults stop:2:5 --byz 2:drop-acks",
        1,
        r"error: stop fraction must be in [0, 1], got 2",
        "",
    ),
    (
        "--alg async-multi-source --sessions uniform:4:4:40",
        2,
        r"error: --sessions runs the async-single-source session mux",
        "",
    ),
    (
        "--alg async-single-source --sessions uniform:4:4:40 --byz 0.2:drop-acks",
        2,
        r"error: --byz does not compose with --sessions yet",
        "",
    ),
    (
        "--alg async-single-source --sessions uniform:0:4:10",
        1,
        r"error: sessions must be at least 1",
        "",
    ),
    (
        "--alg async-single-source --sessions uniform:5:4",
        1,
        r"error: uniform needs SESSIONS:K:SPACING",
        "",
    ),
    (
        "--alg async-single-source --sessions /nonexistent/trace.txt",
        1,
        r"error: reading /nonexistent/trace.txt: No such file or directory (os error 2)",
        "",
    ),
];

const FORMERLY_BROKEN: &[Row] = &[
    (
        "--alg oblivious --n 8 --k 8 --s 8 --seed 18446744073709551615",
        0,
        "",
        r"oblivious-multi-source(phase1) vs rewire(RandomTree, ρ=3) (n=8, k=8): DID NOT COMPLETE in 20 rounds
  messages: 18 total (18 unicast, 0 broadcast), amortized 2.2/token
                walk: 10
     center-announce: 8
  TC(E) = 37 insertions (30 deletions); 1-competitive residual = -19
oblivious-multi-source(phase2) vs rewire(RandomTree, ρ=3) (n=8, k=8): completed in 29 rounds
  messages: 135 total (135 unicast, 0 broadcast), amortized 16.9/token
               token: 46
        completeness: 27
             request: 62
  TC(E) = 56 insertions (49 deletions); 1-competitive residual = 79
total: 153 messages in 49 rounds, amortized 19.1/token, 1 centers
",
    ),
    (
        "--alg async-oblivious --n 8 --k 8 --s 8 --seed 18446744073709551615",
        0,
        "",
        r"scenario-async-oblivious vs rewire(RandomTree, ρ=3) (n=8, k=8): completed in 1 rounds
  messages: 129 total (129 unicast, 0 broadcast), amortized 16.1/token
  TC(E) = 7 insertions (0 deletions); 1-competitive residual = 122
1 centers, 1 sources, 0 stranded, 0 reclaimed, 0 recovered, live coverage 1.000, honest coverage 1.000
",
    ),
    (
        "--alg rlnc --n 8 --k 8 --s 4 --seed 3 --kt0",
        2,
        r"error: --kt0 needs a unicast algorithm: single-source, multi-source or unicast-flood",
        "",
    ),
    (
        "--alg async-single-source --n 8 --k 8 --kt0",
        2,
        r"error: --kt0 needs a unicast algorithm: single-source, multi-source or unicast-flood",
        "",
    ),
    (
        "--n 3",
        0,
        "",
        r"single-source-unicast vs rewire(RandomTree, ρ=3) (n=3, k=64): completed in 111 rounds
  messages: 277 total (277 unicast, 0 broadcast), amortized 4.3/token
               token: 128
        completeness: 4
             request: 145
  TC(E) = 29 insertions (27 deletions); 1-competitive residual = 248
",
    ),
    (
        "--alg multi-source --n 3 --k 3",
        0,
        "",
        r"multi-source-unicast vs rewire(RandomTree, ρ=3) (n=3, k=3): completed in 6 rounds
  messages: 23 total (23 unicast, 0 broadcast), amortized 7.7/token
               token: 6
        completeness: 11
             request: 6
  TC(E) = 3 insertions (1 deletions); 1-competitive residual = 20
",
    ),
    (
        "--adv static:cycle --n 2",
        1,
        r"error: cycle needs --n of at least 3",
        "",
    ),
    (
        "--alg async-multi-source --n 8 --k 8 --faults recover:1:18446744073709551615:18446744073709551615",
        0,
        "",
        r"scenario-async-multi-source vs rewire(RandomTree, ρ=3) (n=8, k=8): completed in 1 rounds
  messages: 251 total (251 unicast, 0 broadcast), amortized 31.4/token
  TC(E) = 7 insertions (0 deletions); 1-competitive residual = 244
live coverage 1.000, honest coverage 1.000, 0 violations, 0 injected
",
    ),
    (
        "--k 99999999999999",
        2,
        r"error: --k must be at most 4294967295",
        "",
    ),
    (
        "--n 99999999999 --s 1",
        2,
        r"error: --n must be at most 4294967295",
        "",
    ),
    (
        "--alg async-single-source --sessions uniform:2:99999999999999:5",
        1,
        r"error: session k must be at most 4294967295",
        "",
    ),
];

const SESSION_TRACES: &[Row] = &[
    (
        "--alg async-single-source --n 8 --sessions {dir}/good.trace",
        0,
        "",
        r"session-service vs rewire(RandomTree, ρ=3) (n=8, k=0): DID NOT COMPLETE in 251 rounds
  messages: 244 total (244 unicast, 0 broadcast)
  TC(E) = 465 insertions (458 deletions); 1-competitive residual = -221
session       s0: arrival        0 latency        0 messages       99
session       s1: arrival       10 latency        0 messages       87
session       s2: arrival       30 latency        0 messages       58
sessions: 3/3 complete, p50 latency Some(0), p95 latency Some(0), 244 session messages, 0 decode errors, 0 foreign drops
",
    ),
    (
        "--alg async-single-source --n 8 --sessions {dir}/empty.trace",
        1,
        r"error: {dir}/empty.trace: no sessions in the trace",
        "",
    ),
    (
        "--alg async-single-source --n 8 --sessions {dir}/source.trace",
        1,
        r"error: line 1: source 9 out of 0..8",
        "",
    ),
    (
        "--alg async-single-source --n 8 --sessions {dir}/huge.trace",
        1,
        r"error: line 2: k must be at most 4294967295",
        "",
    ),
];

const TRACED: &[Row] = &[(
    "--alg async-single-source --n 8 --k 4 --trace-out {dir}/run.jsonl",
    0,
    "",
    r"scenario-async-single-source vs rewire(RandomTree, ρ=3) (n=8, k=4): completed in 1 rounds
  messages: 95 total (95 unicast, 0 broadcast), amortized 23.8/token
  TC(E) = 7 insertions (0 deletions); 1-competitive residual = 88
live coverage 1.000, honest coverage 1.000, 0 violations, 0 injected
",
)];
