//! `exp_byzantine` — Byzantine degradation of the async protocol ports.
//!
//! Sweeps the malicious fraction ∈ {0, 5%, 15%, 30%} × misbehavior kind
//! (false claims, forged transfers, seq replay, dropped acks, mutated
//! tokens) × all three async protocols, each cell one seeded
//! `Scenario::byzantine` run: wrapped nodes, recorded transcripts,
//! post-run audit. Tabulated per cell:
//!
//! * **done** — whether the run still reached full dissemination;
//! * **coverage** — mean fraction of the token universe known by the
//!   *honest* nodes at the end (the degradation metric);
//! * **viol / nodes** — violations proven by the auditor and distinct
//!   nodes indicted (the accountability metric);
//! * **inj** — misbehaving actions actually injected, so detection can
//!   be read against opportunity.
//!
//! The binary asserts auditor soundness on every cell (only planted
//! nodes indicted; zero verdicts at fraction 0) — these are the repo's
//! first Byzantine-resilience numbers, and they double as an end-to-end
//! soundness sweep. Every column is a pure function of the seeds: no wall
//! time is recorded, so re-running the bin reproduces
//! `BENCH_byzantine.json` byte for byte.
//!
//! Usage:
//!   `cargo run --release -p dynspread-bench --bin exp_byzantine [OUT.json]`
//!
//! Results go to `BENCH_byzantine.json` (default), which
//! `tests/committed_baselines.rs` compares with a fresh run's byte for
//! byte.

use dynspread_bench::arms::{run_port, PORTS as PROTOCOLS, PORT_N as N};
use dynspread_bench::row::{render_table, write_gate_json, Row};
use dynspread_bench::{derive_seed, gate_args, par_map};
use dynspread_runtime::byzantine::{MisbehaviorKind, MisbehaviorPlan};

fn plan_for(fraction: f64, kind: Option<MisbehaviorKind>, seed: u64) -> MisbehaviorPlan {
    match kind {
        None => MisbehaviorPlan::honest(N),
        Some(k) => MisbehaviorPlan::uniform(N, fraction, k, seed),
    }
}

fn run_cell(
    protocol: &'static str,
    fraction: f64,
    kind: Option<MisbehaviorKind>,
    seed: u64,
) -> Row {
    // Every cell carries the plan — the honest one too, so the fraction-0
    // row pays for transcripts and the audit like every other.
    let plan = plan_for(fraction, kind, derive_seed(seed, 0xB12));
    let out = run_port(
        protocol,
        seed,
        (150_000, 300_000),
        0xB13,
        None,
        Some(plan.clone()),
    );
    for e in &out.evidence {
        assert!(plan.is_malicious(e.culprit), "honest node indicted: {e:?}");
    }
    let violations = out.report.violations_detected;
    if plan.byzantine_nodes() == 0 {
        assert_eq!(violations, 0, "{protocol}: honest run with verdicts");
        assert!(out.completed, "{protocol}: honest run must complete");
    }
    Row::default()
        .text("protocol", "protocol", protocol)
        .col("fraction_pct", "byz %", (fraction * 100.0).round() as u32)
        .text("kind", "kind", kind.map_or("none", MisbehaviorKind::label))
        .col("byzantine_nodes", "byz", plan.byzantine_nodes())
        .col("completed", "done", out.completed)
        .fixed("coverage", "coverage", out.honest_coverage, 4)
        .col("violations", "viol", violations)
        .col("verdicts", "nodes", out.report.evidence_verdicts)
        .col("injected", "inj", out.injected)
}

fn main() {
    let out_path = gate_args("BENCH_byzantine.json");
    let fractions = [0.0, 0.05, 0.15, 0.30];
    let base_seed = 20_260_807u64;
    println!("Byzantine grid: n = {N}, fraction ∈ {fractions:?} × kind × {PROTOCOLS:?}");

    // Fraction 0 collapses to one honest row per protocol.
    let mut jobs: Vec<(&'static str, f64, Option<MisbehaviorKind>, u64)> = Vec::new();
    for (pi, &p) in PROTOCOLS.iter().enumerate() {
        for frac in fractions {
            let kinds: Vec<Option<MisbehaviorKind>> = if frac == 0.0 {
                vec![None]
            } else {
                MisbehaviorKind::ALL.iter().copied().map(Some).collect()
            };
            // Seed from the fraction's *value*, not its grid index, so a
            // fraction added to the grid reseeds no recorded cell.
            let pct = (frac * 100.0) as u64;
            for (ki, kind) in kinds.into_iter().enumerate() {
                let seed = derive_seed(base_seed, (pi as u64 * 101 + pct) * 16 + ki as u64);
                jobs.push((p, frac, kind, seed));
            }
        }
    }
    let rows = par_map(jobs, |(p, frac, kind, seed)| run_cell(p, frac, kind, seed));

    println!("{}", render_table(&rows));
    println!("coverage = mean honest-node fraction of the token universe;");
    println!("viol/nodes = auditor verdicts (soundness asserted per cell).");

    write_gate_json(&out_path, &[("n", N.to_string())], &rows);
}
