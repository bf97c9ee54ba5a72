//! The benchmark's declared surface: workload names, end-to-end metrics
//! with their bounds, per-layer metrics. `BENCHMARK.json` at the repo
//! root is generated from these tables (`run.sh --manifest`) and a test
//! keeps the two equal, so a metric cannot be emitted under a name the
//! manifest does not declare.

use crate::json::Value;

/// Seconds one measured run lasts (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 11;

/// The default seed of `run.sh` when none is given.
pub const DEFAULT_SEED: u64 = 20_260_930;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the simulator sees.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Relative worsening that counts as a regression.
    pub bound: f64,
    /// Whether the value is a pure function of `(seed, seconds)` — such
    /// metrics must be *equal* between two runs of the same settings.
    pub exact: bool,
}

/// A per-layer metric (traced pass only; no bound).
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    /// Metric name, prefixed by the layer (= module) it measures.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

/// The seven workloads and the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 7] = [
    (
        "flood_dense",
        "Local-broadcast flooding: every node sends every round, so sim delivery and graph evolve dominate and core does almost nothing; a sparse active-set sweep must not slow this.",
    ),
    (
        "unicast_sparse",
        "n >> k unicast: few nodes active per round, the all-nodes core send sweep dominates; the synchronizer cell guards the engine-collapse step.",
    ),
    (
        "unicast_manytokens",
        "The paper's regime k >= n: same sim+core code as unicast_sparse but per-round cost is token-set and tracker work, not the node sweep.",
    ),
    (
        "async_perfect",
        "Event engine on latency-1 perfect links: dense same-tick buckets, no loss, almost no retransmission; runtime.engine and runtime.event dominate.",
    ),
    (
        "async_lossy",
        "Same engine and queue under 20% drop plus jitter: events spread over many ticks, timers, backoff, link planning and retransmission.",
    ),
    (
        "oblivious_pipeline",
        "Algorithm 2 end to end (walks, center election, hand-off, multi-source phase 2): the paper's sub-quadratic result through Scenario::run_oblivious.",
    ),
    (
        "service_mix",
        "Sessions over the mux and wire format, crash-recovery plus partition faults, Byzantine audit, JSONL tracing and trace analysis: the only workload where those layers do real work.",
    ),
];

/// The end-to-end metrics. The bounds are wide because they must hold
/// across *seeds*: the sandbox's speed drifts by tens of per cent, and a
/// run's simulated metrics are medians over a handful of seeded
/// instances whose completion times are heavy-tailed (README, "Why the
/// numbers are built this way"). For one seed the simulated metrics
/// repeat exactly, and that is how commits are compared.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "messages_per_token",
        unit: "msgs",
        better: Better::Lower,
        bound: 0.20,
        exact: true,
    },
    EndToEnd {
        name: "messages_per_topology_change",
        unit: "msgs",
        better: Better::Lower,
        bound: 0.25,
        exact: true,
    },
    EndToEnd {
        name: "sim_time",
        unit: "ticks",
        better: Better::Lower,
        bound: 0.25,
        exact: true,
    },
    EndToEnd {
        name: "completed_ratio",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.0,
        exact: true,
    },
];

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The per-layer metrics, grouped by layer (= module of this repo). The
/// README's layer table says which end-to-end metric each should move.
pub const PER_LAYER: [PerLayer; 83] = [
    // graph
    lower("graph.evolve_s", "s"),
    lower("graph.evolve_calls", "count"),
    lower("graph.evolve_ns_per_call", "ns"),
    lower("graph.topology_changes", "count"),
    lower("graph.sample_s", "s"),
    // sim
    lower("sim.step_s", "s"),
    lower("sim.steps", "count"),
    lower("sim.step_p50_us", "us"),
    lower("sim.step_p99_us", "us"),
    lower("sim.self_s", "s"),
    lower("sim.messages", "count"),
    lower("sim.ns_per_message", "ns"),
    lower("sim.learnings", "count"),
    higher("sim.useful_round_ratio", "ratio"),
    lower("sim.tracker.sync_ns_per_call", "ns"),
    lower("sim.competitive_residual_per_token", "msgs"),
    // core
    lower("core.send_s", "s"),
    lower("core.send_calls", "count"),
    lower("core.send_ns_per_call", "ns"),
    lower("core.receive_s", "s"),
    lower("core.receive_calls", "count"),
    lower("core.end_round_s", "s"),
    higher("core.useful_message_ratio", "ratio"),
    // runtime.sync
    lower("runtime.sync.step_s", "s"),
    lower("runtime.sync.steps", "count"),
    lower("runtime.sync.link_drop_ratio", "ratio"),
    // runtime.engine
    lower("runtime.engine.run_s", "s"),
    lower("runtime.engine.self_s", "s"),
    lower("runtime.engine.events", "count"),
    lower("runtime.engine.self_ns_per_event", "ns"),
    lower("runtime.engine.epochs", "count"),
    lower("runtime.engine.mailbox_high_water", "count"),
    // runtime.event
    lower("runtime.event.hold_ns_per_op", "ns"),
    lower("runtime.event.ops", "count"),
    // runtime.link
    lower("runtime.link.plan_s", "s"),
    lower("runtime.link.plan_calls", "count"),
    lower("runtime.link.copies_per_plan", "ratio"),
    lower("runtime.link.drop_ratio", "ratio"),
    // runtime.protocol
    lower("runtime.protocol.handler_s", "s"),
    lower("runtime.protocol.handler_ns_per_call", "ns"),
    lower("runtime.protocol.on_message_calls", "count"),
    lower("runtime.protocol.on_timer_calls", "count"),
    lower("runtime.protocol.retransmit_ratio", "ratio"),
    higher("runtime.protocol.useful_delivery_ratio", "ratio"),
    lower("runtime.protocol.unroutable", "count"),
    lower("runtime.protocol.oblivious.phase1_events", "count"),
    lower("runtime.protocol.oblivious.phase2_events", "count"),
    lower("runtime.protocol.oblivious.centers", "count"),
    lower("runtime.protocol.oblivious.stranded_tokens", "count"),
    // runtime.scenario
    lower("runtime.scenario.build_s", "s"),
    lower("runtime.scenario.run_s", "s"),
    // runtime.session
    lower("runtime.session.run_s", "s"),
    lower("runtime.session.envelopes", "count"),
    lower("runtime.session.ns_per_envelope", "ns"),
    lower("runtime.session.wire_roundtrip_ns", "ns"),
    lower("runtime.session.decode_errors", "count"),
    lower("runtime.session.foreign_drops", "count"),
    higher("runtime.session.overlapped_sessions", "count"),
    lower("runtime.session.latency_p50", "ticks"),
    lower("runtime.session.latency_p90", "ticks"),
    // runtime.faults
    lower("runtime.faults.plan_build_s", "s"),
    lower("runtime.faults.crashes", "count"),
    lower("runtime.faults.recoveries", "count"),
    lower("runtime.faults.partition_episodes", "count"),
    // runtime.byzantine
    lower("runtime.byzantine.audit_s", "s"),
    lower("runtime.byzantine.transcript_entries", "count"),
    lower("runtime.byzantine.audit_ns_per_entry", "ns"),
    higher("runtime.byzantine.evidence", "count"),
    higher("runtime.byzantine.verdicts", "count"),
    lower("runtime.byzantine.injected", "count"),
    // runtime.trace
    lower("runtime.trace.record_s", "s"),
    lower("runtime.trace.records", "count"),
    lower("runtime.trace.bytes", "count"),
    lower("runtime.trace.bytes_per_event", "ratio"),
    lower("runtime.trace.on_off_ratio", "ratio"),
    // analysis
    lower("analysis.kind_counts_s", "s"),
    lower("analysis.coverage_curve_s", "s"),
    higher("analysis.mb_per_s", "MB/s"),
    // harness: how far to trust the traced pass
    lower("bench.clock_ns", "ns"),
    lower("bench.trace_overhead_ratio", "ratio"),
    lower("bench.loadavg1", "count"),
    lower("bench.traced_cells", "count"),
    lower("bench.digest_mismatches", "count"),
];

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Value {
    Value::obj([
        (
            "command",
            Value::Arr(vec![Value::str("bash"), Value::str("benchmark/run.sh")]),
        ),
        ("paths", Value::Arr(vec![Value::str("benchmark")])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| {
                        Value::obj([("name", Value::str(*name)), ("why", Value::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.label())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.0)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} declared twice");
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit.bytes().all(|b| b.is_ascii_alphanumeric()
                        || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-')),
                "{unit}"
            );
        }
        assert!(END_TO_END.iter().all(|m| (0.0..=0.25).contains(&m.bound)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(PER_LAYER.len() <= 128);
        assert!(benchmark_json().to_pretty().len() <= 64 * 1024);
    }
}
