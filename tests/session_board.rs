//! The session board pinned to literals.
//!
//! Three overlapping sessions share one n = 24 network under 20 % loss
//! with jitter, crash-recovery faults with amnesia and one partition.
//! Every session's `(sent, delivered, complete_nodes, completed_at,
//! digest)` and the engine's `EventReport` are compared with values
//! recorded from a known-good build. The digest chains every send and
//! receive header of its session in order, so a change to how the mux
//! encodes, stages or accounts envelopes — or to the order in which the
//! engine plans their copies — moves at least one literal here.
//!
//! `run_sessions` multiplexes `AsyncSingleSource`, whose probe is a
//! neighbor broadcast (one inner op, many destinations);
//! `run_sessions_with` multiplexes `AsyncMultiSource` over multi-source
//! jobs, whose completeness announcements name a source on the wire.

use std::sync::Arc;

use dynspread::core::multi_source::SourceMap;
use dynspread::graph::generators::Topology;
use dynspread::graph::oblivious::PeriodicRewiring;
use dynspread::graph::NodeId;
use dynspread::runtime::faults::{FaultPlan, RecoveryMode};
use dynspread::runtime::link::{LinkModel, LinkModelExt, PerfectLink};
use dynspread::runtime::protocol::{AsyncConfig, AsyncMultiSource};
use dynspread::runtime::{Scenario, ServiceOutcome, SessionSpec, SessionWorkload};
use dynspread::sim::TokenAssignment;

const N: usize = 24;

/// One session's board row: `(sent, delivered, complete_nodes,
/// completed_at, digest)`.
type Row = (u64, u64, usize, Option<u64>, u64);

fn scenario(workload: &SessionWorkload) -> Scenario<PeriodicRewiring, impl LinkModel> {
    let faults = FaultPlan::crash_recovery(N, 0.25, 60, 40, RecoveryMode::Amnesia, 17)
        .with_random_partition(30, 90);
    Scenario::new(N, 1)
        .topology(PeriodicRewiring::new(Topology::RandomTree, 3, 5))
        .link(PerfectLink.lossy(0.2).with_jitter(2))
        .seed(29)
        .faults(faults)
        .workload(workload)
}

/// Three sessions, each arriving while the previous one still runs.
fn workload(assignment: impl Fn(usize, NodeId) -> TokenAssignment) -> SessionWorkload {
    let mut w = SessionWorkload::new(N);
    for (i, (arrival, k, source)) in [(0, 4, 0), (15, 3, 7), (35, 5, 19)].into_iter().enumerate() {
        w.push(SessionSpec {
            label: format!("s{i}"),
            arrival,
            leave: None,
            assignment: assignment(k, NodeId::new(source)),
        });
    }
    w
}

fn rows(out: &ServiceOutcome) -> Vec<Row> {
    out.sessions
        .iter()
        .map(|s| {
            (
                s.messages,
                s.delivered,
                s.complete_nodes,
                s.completed_at,
                s.digest,
            )
        })
        .collect()
}

fn check(out: &ServiceOutcome, want_rows: &[Row], want_event: &str) {
    assert_eq!(out.decode_errors, 0);
    assert_eq!(rows(out), want_rows, "{:#?}", rows(out));
    assert_eq!(format!("{:?}", out.event), want_event);
}

#[test]
fn single_source_sessions_keep_their_board() {
    let w = workload(|k, source| TokenAssignment::single_source(N, k, source));
    let out = scenario(&w).run_sessions();
    check(&out, &SINGLE_ROWS, SINGLE_EVENT);
}

#[test]
fn multi_source_sessions_keep_their_board() {
    let w = workload(|k, _| TokenAssignment::round_robin_sources(N, k, 3));
    let out = scenario(&w).run_sessions_with(|v, _idx, spec| {
        let map = Arc::new(SourceMap::from_assignment(&spec.assignment));
        AsyncMultiSource::new(v, &spec.assignment, map, AsyncConfig::default())
    });
    check(&out, &MULTI_ROWS, MULTI_EVENT);
}

const SINGLE_ROWS: [Row; 3] = [
    (2385, 1786, 24, Some(620), 1747541372813155819),
    (1774, 1244, 24, Some(466), 8199208249512443736),
    (2732, 1942, 24, Some(781), 3174768105640113466),
];
const SINGLE_EVENT: &str = "EventReport { stopped: Quiescent, final_time: 875, epochs: 438, \
    events: 7605, transmissions: 6891, unroutable: 363, copies_scheduled: 4993, \
    copies_delivered: 4972, retransmissions: 126, learnings: 0 }";

const MULTI_ROWS: [Row; 3] = [
    (4433, 2956, 24, Some(125), 1751245934002325561),
    (4616, 3001, 24, Some(126), 7221063498685828599),
    (4715, 3205, 24, Some(161), 11591930228945637569),
];
const MULTI_EVENT: &str = "EventReport { stopped: Quiescent, final_time: 277, epochs: 139, \
    events: 12033, transmissions: 13764, unroutable: 1097, copies_scheduled: 9271, \
    copies_delivered: 9162, retransmissions: 261, learnings: 0 }";
