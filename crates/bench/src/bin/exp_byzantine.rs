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
//!   `cargo run --release -p dynspread-bench --bin exp_byzantine [--smoke] [OUT.json]`
//!
//! `--smoke` runs the fraction ∈ {0, 15%} columns only — the CI guard.
//! Results go to `BENCH_byzantine.json` (default); `bench_check
//! --byzantine` demands that a fresh run equal the committed file on every
//! column of every cell it shares with it.

use dynspread_analysis::table::{fmt_f64, Table};
use dynspread_bench::{derive_seed, gate_args, par_map, write_gate_json};
use dynspread_graph::generators::Topology;
use dynspread_graph::oblivious::{PeriodicRewiring, StaticAdversary};
use dynspread_graph::{Graph, NodeId};
use dynspread_runtime::byzantine::{MisbehaviorKind, MisbehaviorPlan};
use dynspread_runtime::link::{DropLink, LinkModelExt};
use dynspread_runtime::protocol::AsyncObliviousConfig;
use dynspread_runtime::scenario::Scenario;
use dynspread_sim::token::TokenAssignment;

const PROTOCOLS: [&str; 3] = [
    "async-single-source",
    "async-multi-source",
    "async-oblivious",
];

/// Nodes per cell — large enough that 5% rounds to ≥ 1 malicious node.
const N: usize = 24;

struct Cell {
    protocol: &'static str,
    fraction_pct: u32,
    kind: &'static str,
    byzantine_nodes: usize,
    completed: bool,
    coverage: f64,
    violations: u64,
    verdicts: u64,
    injected: u64,
}

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
) -> Cell {
    let plan = plan_for(fraction, kind, derive_seed(seed, 0xB12));
    let link = || DropLink::new(0.1).with_jitter(1);
    // Every cell: complete graph (phase 1 of the oblivious arm), 10% drop
    // + jitter, and the plan — the honest one too, so the fraction-0 row
    // pays for transcripts and the audit like every other.
    let scenario = |a: TokenAssignment| {
        Scenario::from_assignment(a)
            .topology(StaticAdversary::new(Graph::complete(N)))
            .link(link())
            .seed(seed)
            .byzantine(plan.clone())
            .max_time(150_000)
    };
    let (completed, coverage, report, evidence, injected) = match protocol {
        "async-single-source" => {
            let out =
                scenario(TokenAssignment::single_source(N, 8, NodeId::new(0))).run_single_source();
            (
                out.completed,
                out.honest_coverage,
                out.report,
                out.evidence,
                out.injected,
            )
        }
        "async-multi-source" => {
            let out = scenario(TokenAssignment::round_robin_sources(N, 12, 4)).run_multi_source();
            (
                out.completed,
                out.honest_coverage,
                out.report,
                out.evidence,
                out.injected,
            )
        }
        "async-oblivious" => {
            let cfg = AsyncObliviousConfig {
                seed,
                source_threshold: Some(1.0),
                center_probability: Some(0.2),
                phase1_deadline: 20_000,
                phase1_max_time: 50_000,
                phase2_max_time: 300_000,
                ..AsyncObliviousConfig::default()
            };
            let out = scenario(TokenAssignment::n_gossip(N)).run_oblivious(
                PeriodicRewiring::new(Topology::RandomTree, 3, derive_seed(seed, 0xB13)),
                link(),
                &cfg,
                None,
            );
            (
                out.completed,
                out.honest_coverage,
                out.report,
                out.evidence,
                out.injected,
            )
        }
        other => unreachable!("unknown protocol arm {other}"),
    };
    for e in &evidence {
        assert!(plan.is_malicious(e.culprit), "honest node indicted: {e:?}");
    }
    let (violations, verdicts) = (report.violations_detected, report.evidence_verdicts);
    if plan.byzantine_nodes() == 0 {
        assert_eq!(violations, 0, "{protocol}: honest run with verdicts");
        assert!(completed, "{protocol}: honest run must complete");
    }
    Cell {
        protocol,
        fraction_pct: (fraction * 100.0).round() as u32,
        kind: kind.map_or("none", MisbehaviorKind::label),
        byzantine_nodes: plan.byzantine_nodes(),
        completed,
        coverage,
        violations,
        verdicts,
        injected,
    }
}

fn main() {
    let (smoke, out_path) = gate_args("BENCH_byzantine.json");
    let fractions: &[f64] = if smoke {
        &[0.0, 0.15]
    } else {
        &[0.0, 0.05, 0.15, 0.30]
    };
    let base_seed = 20_260_807u64;
    println!(
        "Byzantine grid: n = {N}, fraction ∈ {fractions:?} × kind × {PROTOCOLS:?}{}",
        if smoke { " (smoke)" } else { "" }
    );

    // Fraction 0 collapses to one honest row per protocol.
    let mut jobs: Vec<(&'static str, f64, Option<MisbehaviorKind>, u64)> = Vec::new();
    for (pi, &p) in PROTOCOLS.iter().enumerate() {
        for &frac in fractions {
            let kinds: Vec<Option<MisbehaviorKind>> = if frac == 0.0 {
                vec![None]
            } else {
                MisbehaviorKind::ALL.iter().copied().map(Some).collect()
            };
            // Seed from the fraction's *value*, not its grid index: the
            // smoke grid is a subset of the full grid's fractions, and
            // bench_check matches cells on (protocol, fraction, kind) —
            // an index-derived seed would hand the "same" cell different
            // executions in smoke vs full runs.
            let pct = (frac * 100.0) as u64;
            for (ki, kind) in kinds.into_iter().enumerate() {
                let seed = derive_seed(base_seed, (pi as u64 * 101 + pct) * 16 + ki as u64);
                jobs.push((p, frac, kind, seed));
            }
        }
    }
    let cells = par_map(jobs, |(p, frac, kind, seed)| run_cell(p, frac, kind, seed));

    let mut table = Table::new(&[
        "protocol", "byz %", "kind", "byz", "done", "coverage", "viol", "nodes", "inj",
    ]);
    let mut json_cells = Vec::new();
    for c in &cells {
        table.row_owned(vec![
            c.protocol.to_string(),
            c.fraction_pct.to_string(),
            c.kind.to_string(),
            c.byzantine_nodes.to_string(),
            c.completed.to_string(),
            fmt_f64(c.coverage),
            c.violations.to_string(),
            c.verdicts.to_string(),
            c.injected.to_string(),
        ]);
        json_cells.push(format!(
            "    {{\"protocol\": \"{}\", \"fraction_pct\": {}, \"kind\": \"{}\", \"byzantine_nodes\": {}, \"completed\": {}, \"coverage\": {:.4}, \"violations\": {}, \"verdicts\": {}, \"injected\": {}}}",
            c.protocol,
            c.fraction_pct,
            c.kind,
            c.byzantine_nodes,
            c.completed,
            c.coverage,
            c.violations,
            c.verdicts,
            c.injected,
        ));
    }
    println!("{}", table.render());
    println!("coverage = mean honest-node fraction of the token universe;");
    println!("viol/nodes = auditor verdicts (soundness asserted per cell).");

    write_gate_json(&out_path, &[("n", N.to_string())], smoke, &json_cells);
}
