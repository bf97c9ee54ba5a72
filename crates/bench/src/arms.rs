//! Experiment arms defined once and shared by the grids that run them:
//! [`run_arm`] (the protocol arms of `exp_scale` and `exp_profile`, seeded
//! by [`arm_seed`]), [`run_port`] (the three async ports of `exp_faults`
//! and `exp_byzantine`), [`link_sweep`] (the drop × adversary × seed grid of
//! `exp_lossy_links` and `exp_async_vs_sync`) and [`run_section2`] (the
//! lower-bound setup of `exp_local_broadcast_lb` and `exp_adaptivity_gap`).

use crate::{default_adversary, derive_seed, par_map};
use dynspread_core::flooding::PhasedFlooding;
use dynspread_core::lower_bound::bernoulli_assignment;
use dynspread_core::multi_source::MultiSourceNode;
use dynspread_core::single_source::SingleSourceNode;
use dynspread_graph::adversary::Adversary;
use dynspread_graph::generators::Topology;
use dynspread_graph::oblivious::{ChurnAdversary, PeriodicRewiring, StaticAdversary};
use dynspread_graph::{Graph, NodeId, Round};
use dynspread_runtime::protocol::AsyncObliviousConfig;
use dynspread_runtime::{
    AsyncConfig, AsyncMultiSource, AsyncSingleSource, DropLink, EventProtocol, EventSim, FaultPlan,
    LinkModelExt, MisbehaviorPlan, PerfectLink, Scenario, ScenarioOutcome, UnicastSynchronizer,
    VirtualTime,
};
use dynspread_sim::adversary::BroadcastAdversary;
use dynspread_sim::protocol::BroadcastProtocol;
use dynspread_sim::{
    BroadcastSim, ProfileReport, RunReport, SimConfig, TokenAssignment, UnicastSim,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Round cap of every arm (the async arms get eight ticks per round of it).
const MAX_ROUNDS: Round = 500_000;

/// Deterministic meter-attribution sampling for the flooding arm
/// (`SimConfig::meter_sampling`), which keeps the `n = 8192` cell from being
/// dominated by ~200 M per-message meter updates.
const FLOOD_METER_SAMPLING: u64 = 64;

/// The seed of cell (`size_index`, `arm_index`) of a size × arm grid:
/// stream `size_index · stride + arm_index` of one base seed. `stride` is
/// the number of arms the grid had when its baseline was first recorded and
/// never changes, so appending an arm reseeds no recorded cell (`exp_scale`:
/// 5, all of its arms; `exp_profile`: 4 — its later arms share a seed with
/// an arm of the next size, another protocol, nothing to correlate).
pub fn arm_seed(stride: usize, size_index: usize, arm_index: usize) -> u64 {
    derive_seed(20_260_729, (size_index * stride + arm_index) as u64)
}

/// What one protocol arm did.
#[derive(Clone, Debug)]
pub struct ArmRun {
    /// Whether every node learned every token within the cap.
    pub completed: bool,
    /// Rounds for the synchronous arms, topology epochs for the async ones.
    pub rounds: u64,
    /// Unit of scheduler work: metered messages for the synchronous arms,
    /// processed events (starts + deliveries + timers) for the async ones.
    pub events: u64,
    /// Wall-clock phase attribution, when the arm ran profiled.
    pub profile: Option<Box<ProfileReport>>,
}

impl From<RunReport> for ArmRun {
    fn from(report: RunReport) -> Self {
        ArmRun {
            completed: report.completed,
            rounds: report.rounds,
            events: report.total_messages,
            profile: report.profile,
        }
    }
}

/// Runs protocol arm `protocol` on `n` nodes and `k` tokens against the
/// default adversary seeded `seed`, with the engine's self-profiler on when
/// `profiled`. The synchronous arms (`flooding`: ×64 sampled metering;
/// `single-source`; `multi-source`: `min(k, 4)` sources;
/// `sync-lossy-single-source`: the link transport, 10 % drop plus jitter)
/// run the round engines; `async-single-source` and `async-multi-source`
/// (`k` sources) run `EventSim` over latency-1 perfect links, two ticks to
/// the round; `async-oblivious` runs `Scenario::run_oblivious` from `k`
/// sources and cannot be profiled (the pipeline has no profiler hook).
///
/// # Panics
///
/// Panics on an unknown arm and on a profiled `async-oblivious`.
pub fn run_arm(protocol: &str, n: usize, k: usize, seed: u64, profiled: bool) -> ArmRun {
    let single = || TokenAssignment::single_source(n, k, NodeId::new(0));
    let cfg = SimConfig::with_max_rounds(MAX_ROUNDS);
    let adversary = default_adversary(seed);
    match protocol {
        "flooding" => {
            let a = single();
            let cfg = SimConfig {
                meter_sampling: FLOOD_METER_SAMPLING,
                ..cfg
            };
            let nodes = PhasedFlooding::nodes(&a);
            let mut sim = BroadcastSim::new("phased-flooding", nodes, adversary, &a, cfg);
            if profiled {
                sim.enable_profiling();
            }
            sim.run_to_completion().into()
        }
        "single-source" => {
            let a = single();
            let nodes = SingleSourceNode::nodes(&a);
            let mut sim = UnicastSim::new("single-source-unicast", nodes, adversary, &a, cfg);
            if profiled {
                sim.enable_profiling();
            }
            sim.run_to_completion().into()
        }
        "multi-source" => {
            let a = TokenAssignment::round_robin_sources(n, k, k.min(4));
            let (nodes, _map) = MultiSourceNode::nodes(&a);
            let mut sim = UnicastSim::new("multi-source-unicast", nodes, adversary, &a, cfg);
            if profiled {
                sim.enable_profiling();
            }
            sim.run_to_completion().into()
        }
        "sync-lossy-single-source" => {
            let a = single();
            let mut sim = UnicastSynchronizer::new(
                "single-source-unicast",
                SingleSourceNode::nodes(&a),
                adversary,
                &a,
                cfg,
                PerfectLink.lossy(0.1).with_jitter(1),
                derive_seed(seed, 0x5CA1E),
            );
            if profiled {
                sim.enable_profiling();
            }
            sim.run_to_completion().into()
        }
        "async-single-source" => {
            let a = single();
            let nodes = AsyncSingleSource::nodes(&a, AsyncConfig::default());
            run_event(nodes, &a, adversary, seed, profiled, protocol)
        }
        "async-multi-source" => {
            let a = TokenAssignment::round_robin_sources(n, k, k);
            let (nodes, _map) = AsyncMultiSource::nodes(&a, AsyncConfig::default());
            run_event(nodes, &a, adversary, seed, profiled, protocol)
        }
        "async-oblivious" => {
            assert!(!profiled, "the two-phase pipeline has no profiler hook");
            // ~4 expected centers regardless of n, everyone high-degree
            // (γ = 1) so tokens hand off to discovered centers. The
            // deadline fallback (stranded owners become phase-2 sources)
            // bounds phase 1 even if some walks don't converge.
            let cfg = AsyncObliviousConfig {
                seed: derive_seed(seed, 0x0B1),
                source_threshold: Some(1.0),
                center_probability: Some(4.0 / n as f64),
                degree_threshold: Some(1.0),
                ticks_per_round: 2,
                phase1_deadline: 2_048,
                phase1_max_time: 4_096,
                phase2_max_time: 8 * MAX_ROUNDS,
                ..AsyncObliviousConfig::default()
            };
            let out = Scenario::from_assignment(TokenAssignment::round_robin_sources(n, k, k))
                .topology(PeriodicRewiring::new(
                    Topology::SparseConnected(8.0),
                    3,
                    seed,
                ))
                .link(PerfectLink.with_latency(1))
                .run_oblivious(
                    default_adversary(derive_seed(seed, 0x0B2)),
                    PerfectLink.with_latency(1),
                    &cfg,
                    None,
                );
            ArmRun {
                completed: out.completed,
                rounds: out.total_epochs(),
                events: out.total_events(),
                profile: None,
            }
        }
        other => unreachable!("unknown protocol arm {other}"),
    }
}

/// An event-engine arm: `nodes` over latency-1 perfect links, two ticks to
/// the adversary's round.
fn run_event<P: EventProtocol>(
    nodes: Vec<P>,
    assignment: &TokenAssignment,
    adversary: PeriodicRewiring,
    seed: u64,
    profiled: bool,
    name: &str,
) -> ArmRun {
    let mut sim = EventSim::with_tracking(
        nodes,
        adversary,
        PerfectLink.with_latency(1),
        2,
        derive_seed(seed, 0x5CA1E),
        assignment,
    );
    if profiled {
        sim.enable_profiling();
    }
    let report = sim.run(8 * MAX_ROUNDS);
    ArmRun {
        completed: sim.tracker().expect("tracking enabled").all_complete(),
        rounds: report.epochs,
        events: report.events,
        profile: sim.run_report(name).profile,
    }
}

/// The async ports [`run_port`] runs: the rows of the fault and Byzantine
/// grids.
pub const PORTS: [&str; 3] = [
    "async-single-source",
    "async-multi-source",
    "async-oblivious",
];

/// Nodes per cell of the fault and Byzantine grids — large enough that 5 %
/// rounds to ≥ 1 and 10 % to ≥ 2 planted nodes.
pub const PORT_N: usize = 24;

/// Runs async port `protocol` (`async-single-source`: 8 tokens at node 0;
/// `async-multi-source`: 12 tokens over 4 sources; `async-oblivious`:
/// `n`-gossip through the two-phase pipeline, 20 % centers, phase 2 on
/// random trees seeded `derive_seed(seed, phase2_salt)`) on [`PORT_N`] nodes:
/// complete graph (phase 1 of the oblivious arm), 10 % drop plus jitter,
/// `max_time` ticks (`phase2_max_time` for the pipeline's spread, whose
/// outcome — evidence, injections and fault counters summed over both
/// phases — is the pipeline's).
///
/// Absent plans stay absent; a present one — the honest one too — pays for
/// transcripts and the audit. `faults` hits the single-phase ports' run and
/// the pipeline's *spread* phase (the walk runs fault-free, so recovery
/// resyncs pull the rejoiners back up); `byzantine` applies to every phase.
///
/// # Panics
///
/// Panics on an unknown port.
pub fn run_port(
    protocol: &str,
    seed: u64,
    (max_time, phase2_max_time): (VirtualTime, VirtualTime),
    phase2_salt: u64,
    faults: Option<FaultPlan>,
    byzantine: Option<MisbehaviorPlan>,
) -> ScenarioOutcome {
    let link = || DropLink::new(0.1).with_jitter(1);
    let scenario = |a: TokenAssignment, faults: Option<FaultPlan>| {
        let mut scenario = Scenario::from_assignment(a)
            .topology(StaticAdversary::new(Graph::complete(PORT_N)))
            .link(link())
            .seed(seed)
            .max_time(max_time);
        if let Some(plan) = faults {
            scenario = scenario.faults(plan);
        }
        if let Some(plan) = byzantine {
            scenario = scenario.byzantine(plan);
        }
        scenario
    };
    match protocol {
        "async-single-source" => {
            let a = TokenAssignment::single_source(PORT_N, 8, NodeId::new(0));
            scenario(a, faults).run_single_source()
        }
        "async-multi-source" => {
            let a = TokenAssignment::round_robin_sources(PORT_N, 12, 4);
            scenario(a, faults).run_multi_source()
        }
        "async-oblivious" => {
            let cfg = AsyncObliviousConfig {
                seed,
                source_threshold: Some(1.0),
                center_probability: Some(0.2),
                phase1_deadline: 20_000,
                phase1_max_time: 50_000,
                phase2_max_time,
                ..AsyncObliviousConfig::default()
            };
            let out = scenario(TokenAssignment::n_gossip(PORT_N), None).run_oblivious(
                PeriodicRewiring::new(Topology::RandomTree, 3, derive_seed(seed, phase2_salt)),
                link(),
                &cfg,
                faults.as_ref(),
            );
            ScenarioOutcome {
                event: out.phase2,
                report: out.report,
                evidence: out.evidence,
                final_knowledge: out.final_knowledge,
                live_coverage: out.live_coverage,
                honest_coverage: out.honest_coverage,
                injected: out.injected,
                completed: out.completed,
            }
        }
        other => unreachable!("unknown protocol arm {other}"),
    }
}

/// The adversary arms of the link sweeps, as their tables name them.
pub const LINK_SWEEP_ARMS: [&str; 2] = ["rewire(tree,ρ=3)", "churn(c=2,σ=3)"];

/// Adversary arm `arm` of [`LINK_SWEEP_ARMS`], seeded `seed`.
pub fn link_sweep_adversary(arm: usize, seed: u64) -> Box<dyn Adversary> {
    match arm {
        0 => Box::new(PeriodicRewiring::new(Topology::RandomTree, 3, seed)),
        _ => Box::new(ChurnAdversary::new(
            Topology::SparseConnected(2.0),
            2,
            3,
            seed,
        )),
    }
}

/// Fans `run(drop probability, arm, seed)` over the link sweeps' grid —
/// `drops` × [`LINK_SWEEP_ARMS`] × three seeds per cell, each seed a
/// function of `(base_seed, arm, seed index)` alone, so every drop
/// probability meets the same schedules — and returns
/// `(drop probability, arm, seed index, result)` in grid order.
pub fn link_sweep<R: Send>(
    base_seed: u64,
    drops: &[f64],
    run: impl Fn(f64, usize, u64) -> R + Sync,
) -> Vec<(f64, usize, usize, R)> {
    let cells =
        |p| (0..LINK_SWEEP_ARMS.len()).flat_map(move |arm| (0..3).map(move |s| (p, arm, s)));
    par_map(
        drops.iter().copied().flat_map(cells).collect(),
        |(p, arm, s)| {
            let seed = derive_seed(base_seed, ((arm as u64) << 32) | s as u64);
            (p, arm, s, run(p, arm, seed))
        },
    )
}

/// One run of the Section 2 lower-bound setup: `n` nodes, `k = n/2` tokens,
/// initial knowledge Bernoulli(1/4) drawn from `seed`, and the potential
/// adversary `adversary` (strongly adaptive, or its lagged variant) with
/// `K'` density 1/4 drawn from `seed + 100`, against local-broadcast
/// algorithm `nodes` for at most `cap_factor · n · k` rounds. Returns the
/// report and the finished engine, whose tracker and adversary hold the
/// per-round learning and potential series.
pub fn run_section2<P, A>(
    name: &str,
    nodes: impl Fn(&TokenAssignment) -> Vec<P>,
    adversary: impl Fn(&TokenAssignment, f64, u64) -> A,
    n: usize,
    seed: u64,
    cap_factor: u64,
) -> (RunReport, BroadcastSim<P, A>)
where
    P: BroadcastProtocol,
    A: BroadcastAdversary<P::Msg>,
{
    let k = n / 2;
    let assignment = bernoulli_assignment(n, k, 0.25, &mut StdRng::seed_from_u64(seed));
    let mut sim = BroadcastSim::new(
        name,
        nodes(&assignment),
        adversary(&assignment, 0.25, seed + 100),
        &assignment,
        SimConfig::with_max_rounds(cap_factor * (n * k) as Round),
    );
    (sim.run_to_completion(), sim)
}
