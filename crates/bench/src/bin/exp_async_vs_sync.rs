//! **Beyond the paper's model** — the asynchronous port of Algorithm 1
//! against its synchronous reference.
//!
//! Each grid cell runs the same single-source instance twice: the
//! round-based `SingleSourceNode` under `UnicastSim` (the paper's
//! synchronous, lossless model) and the `AsyncSingleSource` event port
//! under `EventSim` with a configurable drop probability and jitter. At
//! drop 0 the async port must complete with zero retransmission overhead
//! in messages-per-learning terms comparable to the reference; as the
//! drop probability grows, explicit retransmission buys completion the
//! synchronous algorithm cannot achieve at all over a lossy channel
//! (its one-shot completeness announcements are never re-sent).
//!
//! The async arm reports through `EventSim::run_report`, so the table's
//! `unrt` column shows sends dropped at the source because the adversary
//! removed the edge mid-flight — an asynchronous hazard the synchronous
//! engines turn into a panic instead of a statistic.
//!
//! Sweeps drop probability × adversary × seed; every cell is an
//! independent seeded run fanned through `par_map` (parallel output is
//! byte-identical to serial — set `DYNSPREAD_THREADS=1` to check).

use dynspread_analysis::table::fmt_f64;
use dynspread_bench::arms::{link_sweep, link_sweep_adversary, LINK_SWEEP_ARMS};
use dynspread_bench::derive_seed;
use dynspread_bench::row::{render_table, Row};
use dynspread_core::single_source::SingleSourceNode;
use dynspread_graph::NodeId;
use dynspread_runtime::engine::{EventSim, StopReason};
use dynspread_runtime::link::{DropLink, LinkModelExt};
use dynspread_runtime::protocol::{AsyncConfig, AsyncSingleSource};
use dynspread_sim::sim::{SimConfig, UnicastSim};
use dynspread_sim::token::TokenAssignment;
use dynspread_sim::RunReport;

struct Cell {
    sync: RunReport,
    async_report: RunReport,
    final_time: u64,
    events: u64,
    stopped: StopReason,
}

fn run_cell(n: usize, k: usize, drop_p: f64, arm: usize, seed: u64) -> Cell {
    let assignment = TokenAssignment::single_source(n, k, NodeId::new(0));
    let mut sync_sim = UnicastSim::new(
        "single-source-unicast",
        SingleSourceNode::nodes(&assignment),
        link_sweep_adversary(arm, seed),
        &assignment,
        SimConfig::with_max_rounds(2_000_000),
    );
    let sync = sync_sim.run_to_completion();
    let mut async_sim = EventSim::with_tracking(
        AsyncSingleSource::nodes(&assignment, AsyncConfig::default()),
        link_sweep_adversary(arm, seed),
        DropLink::new(drop_p).with_jitter(2),
        2,
        derive_seed(seed, 0xEE),
        &assignment,
    );
    let event_report = async_sim.run(4_000_000);
    Cell {
        sync,
        async_report: async_sim.run_report("async-single-source"),
        final_time: event_report.final_time,
        events: event_report.events,
        stopped: event_report.stopped,
    }
}

fn main() {
    let (n, k) = (24, 16);
    println!("Async vs sync: Algorithm 1 and its EventProtocol port (n={n}, k={k})");
    println!("async arm: explicit retransmission + acked announcements over drop+jitter(2)\n");

    let drops = [0.0, 0.15, 0.3];
    let runs = link_sweep(47, &drops, |p, arm, seed| run_cell(n, k, p, arm, seed));

    let mut rows = Vec::new();
    for (p, arm, s, cell) in &runs {
        let name = LINK_SWEEP_ARMS[*arm];
        assert!(cell.sync.completed, "sync reference failed: {}", cell.sync);
        assert_eq!(
            cell.stopped,
            StopReason::Complete,
            "async {name} p={p} seed#{s} did not complete: {}",
            cell.async_report
        );
        assert_eq!(cell.async_report.learnings, cell.sync.learnings);
        let premium = cell.async_report.total_messages as f64 / cell.sync.total_messages as f64;
        rows.push(
            Row::default()
                .table("adversary", name)
                .table("drop p", fmt_f64(*p))
                .table("seed#", s)
                .table("async done", cell.async_report.completed)
                .table("vtime", cell.final_time)
                .table("epochs", cell.async_report.rounds)
                .table("events", cell.events)
                .table("async msgs", cell.async_report.total_messages)
                .table("unrt", cell.async_report.unroutable)
                .table("sync rounds", cell.sync.rounds)
                .table("sync msgs", cell.sync.total_messages)
                .table("msg ×", fmt_f64(premium)),
        );
    }
    println!("{}", render_table(&rows));

    println!("reading the table:");
    println!("  vtime/epochs — async virtual completion time and elapsed topology epochs;");
    println!("  unrt — async sends dropped at the source (edge churned away mid-exchange);");
    println!("  msg × — async transmissions over the lossless synchronous reference:");
    println!("  the retransmission premium, which grows with drop p while completion");
    println!("  (impossible for the sync algorithm under loss) is preserved.");
}
