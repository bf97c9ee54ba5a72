//! A run as a value: [`ScenarioSpec`], its grammar and its one driver.
//!
//! Every run `spread` can describe is a point in (algorithm × adversary ×
//! n, k, s × seed), plus — for the event-engine algorithms — optional
//! crash/partition faults, Byzantine nodes, or a session workload. Each
//! piece parses through its [`FromStr`] from the colon grammar stated in
//! `crates/runtime/README.md` (§ The scenario grammar);
//! [`ScenarioSpec::check`] holds every rule that ties a piece to `n` or to
//! another piece; a checked piece's `build(n, seed)` returns the runtime's
//! own value — a `Box<dyn Adversary>`, a [`FaultPlan`], a
//! [`MisbehaviorPlan`], a [`SessionWorkload`]; and [`ScenarioSpec::run`]
//! picks the engine, runs it and returns the text `spread` prints. No other
//! module reads this grammar. Every error message, bare or inside a
//! [`CheckError`], is what `spread` prints after `error:`.
//!
//! ```
//! use dynspread_runtime::spec::ScenarioSpec;
//!
//! let spec = ScenarioSpec {
//!     algorithm: "async-single-source".parse().unwrap(),
//!     adversary: "churn:sparse:2.0:2:3".parse().unwrap(),
//!     faults: Some("recover:0.2:50:200,part:80:400".parse().unwrap()),
//!     n: 24,
//!     ..ScenarioSpec::default()
//! };
//! assert_eq!(spec.check(), Ok(()));
//! let text = spec.run(None).unwrap();
//! assert!(text.starts_with("scenario-async-single-source vs churn"));
//! ```

use std::str::FromStr;

use dynspread_core::baselines::UnicastFlooding;
use dynspread_core::flooding::PhasedFlooding;
use dynspread_core::multi_source::MultiSourceNode;
use dynspread_core::network_coding::RlncNode;
use dynspread_core::oblivious::{laptop_scale, run_oblivious_multi_source, ObliviousConfig};
use dynspread_core::single_source::SingleSourceNode;
use dynspread_graph::adversary::Adversary;
use dynspread_graph::generators::Topology;
use dynspread_graph::oblivious::{
    ChurnAdversary, EdgeMarkovian, PeriodicRewiring, StaticAdversary,
};
use dynspread_graph::NodeId;
use dynspread_sim::sim::{RoundMode, RoundSim};
use dynspread_sim::{BroadcastSim, SimConfig, TokenAssignment, UnicastSim};

use crate::protocol::AsyncObliviousConfig;
use crate::{FaultPlan, JsonlTracer, MisbehaviorKind, MisbehaviorPlan, PerfectLink, RecoveryMode};
use crate::{Scenario, SessionWorkload, VirtualTime};
use Algorithm::*;

/// A dissemination algorithm, named as `--alg` names it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// Algorithm 1 (Theorem 3.1) on the unicast round engine.
    SingleSource,
    /// Its multi-source extension (Theorem 3.5), unicast.
    MultiSource,
    /// Unicast flooding, the baseline Algorithm 1 is measured against.
    UnicastFlood,
    /// Phased flooding in the local-broadcast model.
    PhasedFlood,
    /// Random linear network coding gossip (Section 1.2's contrast).
    Rlnc,
    /// Algorithm 2, the oblivious-adversary pipeline (Theorem 3.8): random
    /// walks to centers, then multi-source from the centers.
    Oblivious,
    /// Algorithm 1 ported to the event engine.
    AsyncSingleSource,
    /// Multi-source ported to the event engine.
    AsyncMultiSource,
    /// The oblivious pipeline ported to the event engine.
    AsyncOblivious,
}

impl Algorithm {
    /// Every algorithm with the name `--alg` takes.
    pub const ALL: [(Algorithm, &'static str); 9] = [
        (SingleSource, "single-source"),
        (MultiSource, "multi-source"),
        (UnicastFlood, "unicast-flood"),
        (PhasedFlood, "phased-flood"),
        (Rlnc, "rlnc"),
        (Oblivious, "oblivious"),
        (AsyncSingleSource, "async-single-source"),
        (AsyncMultiSource, "async-multi-source"),
        (AsyncOblivious, "async-oblivious"),
    ];

    /// `Ok` for the event-engine (`async-*`) algorithms; for the others,
    /// the error naming `flag`, an axis the round engines do not have.
    pub fn axis(self, flag: &str) -> Result<(), String> {
        match self {
            AsyncSingleSource | AsyncMultiSource | AsyncOblivious => Ok(()),
            _ => Err(format!(
                "{flag} needs an async-* algorithm (the synchronous engines \
                 have no fault/Byzantine/trace axes)"
            )),
        }
    }

    /// The initial placement of `k` tokens on `n` nodes: all at node 0 for
    /// the single-source algorithms and unicast flooding, round-robin over
    /// `s` sources for the others.
    fn assignment(self, n: usize, k: usize, s: usize) -> TokenAssignment {
        if let SingleSource | UnicastFlood | AsyncSingleSource = self {
            return TokenAssignment::single_source(n, k, NodeId::new(0));
        }
        TokenAssignment::round_robin_sources(n, k, s)
    }
}

impl FromStr for Algorithm {
    type Err = String;

    fn from_str(name: &str) -> Result<Self, String> {
        match Self::ALL.into_iter().find(|&(_, known)| known == name) {
            Some((algorithm, _)) => Ok(algorithm),
            None => Err(format!("unknown algorithm '{name}'")),
        }
    }
}

/// How the topology changes from round to round (`--adv`). `SIGMA` is the
/// number of rounds an edge stays once it changes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AdversarySpec {
    /// `static:TOPO`: one sample of the family for the whole run.
    Static(Topology),
    /// `rewire:TOPO:PERIOD`: a fresh sample every `PERIOD` rounds.
    Rewire(Topology, u64),
    /// `markov:P_ON:P_OFF:SIGMA`: each absent edge appears with probability
    /// `P_ON` a round, each present one disappears with `P_OFF`.
    Markov(f64, f64, u64),
    /// `churn:TOPO:C:SIGMA`: from a sample of the family, up to `C` edge
    /// deletions and insertions a round.
    Churn(Topology, usize, u64),
}

impl AdversarySpec {
    /// The adversary on `n` nodes, drawing from `seed`.
    pub fn build(&self, n: usize, seed: u64) -> Box<dyn Adversary> {
        match *self {
            Self::Static(topo) => Box::new(StaticAdversary::from_topology(topo, n, seed)),
            Self::Rewire(topo, period) => Box::new(PeriodicRewiring::new(topo, period, seed)),
            Self::Markov(on, off, sigma) => Box::new(EdgeMarkovian::new(on, off, sigma, seed)),
            Self::Churn(topo, churn, sigma) => {
                Box::new(ChurnAdversary::new(topo, churn, sigma, seed))
            }
        }
    }
}

impl FromStr for AdversarySpec {
    type Err = String;

    fn from_str(spec: &str) -> Result<Self, String> {
        let (kind, rest) = spec.split_once(':').unwrap_or((spec, ""));
        match kind {
            "static" => Ok(Self::Static(parse_topology(rest)?)),
            "rewire" => {
                let (topo, period) = rest.rsplit_once(':').ok_or("rewire needs TOPO:PERIOD")?;
                let topo = parse_topology(topo)?;
                Ok(Self::Rewire(topo, parse_positive(period, "period")?))
            }
            "markov" => {
                let [on, off, sigma] = rest.split(':').collect::<Vec<_>>()[..] else {
                    return Err("markov needs P_ON:P_OFF:SIGMA".into());
                };
                let (on, off) = (parse_fraction(on, "p_on")?, parse_fraction(off, "p_off")?);
                Ok(Self::Markov(on, off, parse_positive(sigma, "sigma")?))
            }
            "churn" => {
                // The topology may itself contain ':'.
                let (head, sigma) = rest.rsplit_once(':').ok_or("churn needs TOPO:C:SIGMA")?;
                let (topo, churn) = head.rsplit_once(':').ok_or("churn needs TOPO:C:SIGMA")?;
                let topo = parse_topology(topo)?;
                let churn = churn.parse().map_err(|e| format!("churn: {e}"))?;
                Ok(Self::Churn(topo, churn, parse_positive(sigma, "sigma")?))
            }
            _ => Err(format!("unknown adversary '{spec}'")),
        }
    }
}

/// Parses a topology family `TOPO`.
pub fn parse_topology(spec: &str) -> Result<Topology, String> {
    match spec.split(':').collect::<Vec<_>>()[..] {
        ["path"] => Ok(Topology::Path),
        ["cycle"] => Ok(Topology::Cycle),
        ["star"] => Ok(Topology::Star),
        ["complete"] => Ok(Topology::Complete),
        ["tree"] => Ok(Topology::RandomTree),
        ["gnp", p] => parse_fraction(p, "gnp probability").map(Topology::Gnp),
        ["sparse", c] => match c.parse::<f64>() {
            Ok(x) if x.is_finite() && x >= 0.0 => Ok(Topology::SparseConnected(x)),
            Ok(_) => Err(format!(
                "sparse factor must be finite and at least 0, got {c}"
            )),
            Err(e) => Err(format!("sparse factor: {e}")),
        },
        ["regular", d] => match d.parse::<usize>() {
            Ok(d) if d >= 2 => Ok(Topology::NearRegular(d)),
            Ok(_) => Err("regular degree must be at least 2".into()),
            Err(e) => Err(format!("regular degree: {e}")),
        },
        _ => Err(format!("unknown topology '{spec}'")),
    }
}

/// One segment of [`FaultSpec`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultSegment {
    /// `stop:FRAC:AT`: a `FRAC` share of the nodes crash for good, each at
    /// a time in `[1, AT]`.
    Stop(f64, VirtualTime),
    /// `recover:FRAC:T0:T1[:amnesia|durable]`: they crash within `[1, T0]`
    /// and come back after an outage in `[1, T1]`, amnesiac by default.
    Recover(f64, VirtualTime, VirtualTime, RecoveryMode),
    /// `part:T0:T1`: a seeded cut from `T0` until it heals at `T1`.
    Part(VirtualTime, VirtualTime),
}

/// Crash and partition faults (`--faults`): comma-joined segments, a
/// crash segment only as the first.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec(pub Vec<FaultSegment>);

impl FaultSpec {
    /// The fault plan on `n` nodes; the crash segment draws from `seed`.
    pub fn build(&self, n: usize, seed: u64) -> FaultPlan {
        let mut plan = FaultPlan::none(n);
        for segment in &self.0 {
            plan = match *segment {
                FaultSegment::Stop(frac, at) => FaultPlan::crash_stop(n, frac, at, seed),
                FaultSegment::Recover(frac, t0, t1, mode) => {
                    FaultPlan::crash_recovery(n, frac, t0, t1, mode, seed)
                }
                FaultSegment::Part(start, heal) => plan.with_random_partition(start, heal),
            };
        }
        plan
    }
}

impl FromStr for FaultSpec {
    type Err = String;

    fn from_str(spec: &str) -> Result<Self, String> {
        let segments = spec.split(',').enumerate().map(|(i, segment)| {
            Ok(match segment.split(':').collect::<Vec<_>>()[..] {
                ["stop", _, _] | ["recover", _, _, _, ..] if i > 0 => {
                    return Err("at most one crash segment, before any part".into())
                }
                ["stop", frac, at] => FaultSegment::Stop(
                    parse_fraction(frac, "stop fraction")?,
                    parse_positive(at, "stop time")?,
                ),
                ["recover", frac, t0, t1, ref mode @ ..] => {
                    let mode = match mode {
                        [] | ["amnesia"] => RecoveryMode::Amnesia,
                        ["durable"] => RecoveryMode::DurableSnapshot,
                        _ => return Err(format!("unknown recovery mode in '{segment}'")),
                    };
                    let frac = parse_fraction(frac, "recover fraction")?;
                    let t0 = parse_positive(t0, "recover crash window")?;
                    FaultSegment::Recover(frac, t0, parse_positive(t1, "recover delay")?, mode)
                }
                ["part", t0, t1] => {
                    let start: u64 = t0.parse().map_err(|e| format!("part start: {e}"))?;
                    let heal: u64 = t1.parse().map_err(|e| format!("part heal: {e}"))?;
                    if start >= heal {
                        return Err(format!("part must heal after it starts, got '{segment}'"));
                    }
                    FaultSegment::Part(start, heal)
                }
                _ => return Err(format!("unknown fault segment '{segment}'")),
            })
        });
        segments.collect::<Result<_, _>>().map(FaultSpec)
    }
}

/// Byzantine nodes (`--byz FRAC:KIND`): a `FRAC` share of the nodes, all
/// misbehaving as `KIND`, one of the [`MisbehaviorKind::label`]s.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ByzSpec(pub f64, pub MisbehaviorKind);

impl ByzSpec {
    /// The misbehavior plan on `n` nodes, choosing the liars from `seed`.
    pub fn build(&self, n: usize, seed: u64) -> MisbehaviorPlan {
        MisbehaviorPlan::uniform(n, self.0, self.1, seed)
    }
}

impl FromStr for ByzSpec {
    type Err = String;

    fn from_str(spec: &str) -> Result<Self, String> {
        let (frac, kind) = spec.split_once(':').ok_or("byz needs FRAC:KIND")?;
        let found = MisbehaviorKind::ALL.into_iter().find(|k| k.label() == kind);
        let kind = found.ok_or_else(|| format!("unknown misbehavior kind '{kind}'"))?;
        Ok(ByzSpec(parse_fraction(frac, "byz fraction")?, kind))
    }
}

/// The multi-session service's arrivals (`--sessions`).
#[derive(Clone, Debug, PartialEq)]
pub enum SessionsSpec {
    /// `uniform:SESSIONS:K:SPACING`: seeded single-source jobs of `K`
    /// tokens, arrival gaps drawn from `[1, SPACING]`.
    Uniform(usize, usize, VirtualTime),
    /// Any other value: a trace file of `ARRIVAL SOURCE K [LEAVE]` lines
    /// ([`SessionWorkload::parse`]).
    Trace(String),
}

impl SessionsSpec {
    /// The workload on `n` nodes, drawing from `seed`. A trace file is read
    /// here: this fails if it cannot be read, does not parse at `n`, or
    /// holds no session.
    pub fn build(&self, n: usize, seed: u64) -> Result<SessionWorkload, String> {
        let path = match self {
            Self::Uniform(sessions, k, spacing) => {
                return Ok(SessionWorkload::uniform(n, *sessions, *k, *spacing, seed))
            }
            Self::Trace(path) => path,
        };
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let workload = SessionWorkload::parse(n, &text)?;
        if workload.is_empty() {
            return Err(format!("{path}: no sessions in the trace"));
        }
        Ok(workload)
    }
}

impl FromStr for SessionsSpec {
    type Err = String;

    fn from_str(spec: &str) -> Result<Self, String> {
        let Some(rest) = spec.strip_prefix("uniform:") else {
            return Ok(Self::Trace(spec.to_string()));
        };
        let [sessions, k, spacing] = rest.split(':').collect::<Vec<_>>()[..] else {
            return Err("uniform needs SESSIONS:K:SPACING".into());
        };
        let sessions = id_count(parse_positive(sessions, "sessions")?, "sessions")?;
        let k = id_count(parse_positive(k, "session k")?, "session k")?;
        let spacing = parse_positive(spacing, "spacing")?;
        Ok(Self::Uniform(sessions, k, spacing))
    }
}

/// One run: `spread`'s flags, typed. [`Default`] is `spread` with no flags.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// What disseminates (`--alg`).
    pub algorithm: Algorithm,
    /// How the topology changes (`--adv`).
    pub adversary: AdversarySpec,
    /// Nodes (`--n`).
    pub n: usize,
    /// Tokens (`--k`).
    pub k: usize,
    /// Sources, for the algorithms that place tokens round-robin (`--s`).
    pub s: usize,
    /// The seed every axis derives its own from (`--seed`).
    pub seed: u64,
    /// The round cap (`--max-rounds`); for the `async-*` algorithms it caps
    /// virtual ticks (two a round), and each phase of an oblivious pipeline
    /// is capped at the smaller of it and the phase's own default.
    pub max_rounds: u64,
    /// Charge neighbor-discovery hellos, the KT0 model (`--kt0`).
    pub kt0: bool,
    /// Crash and partition faults (`--faults`).
    pub faults: Option<FaultSpec>,
    /// Byzantine nodes (`--byz`).
    pub byz: Option<ByzSpec>,
    /// Many dissemination sessions instead of one (`--sessions`).
    pub sessions: Option<SessionsSpec>,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            algorithm: SingleSource,
            adversary: AdversarySpec::Rewire(Topology::RandomTree, 3),
            n: 32,
            k: 64,
            s: 4,
            seed: 42,
            max_rounds: 1_000_000,
            kt0: false,
            faults: None,
            byz: None,
            sessions: None,
        }
    }
}

/// A rule [`ScenarioSpec::check`] found broken.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckError {
    /// The pieces contradict each other, or a size is out of range.
    Flags(String),
    /// The adversary cannot run on `n` nodes.
    Adversary(String),
}

impl ScenarioSpec {
    /// The first broken rule among those that depend on `n` or on several
    /// pieces at once. A spec that passes builds and runs.
    pub fn check(&self) -> Result<(), CheckError> {
        self.check_flags().map_err(CheckError::Flags)?;
        let (topo, churn) = match self.adversary {
            AdversarySpec::Static(topo) | AdversarySpec::Rewire(topo, _) => (Some(topo), 0),
            AdversarySpec::Churn(topo, churn, _) => (Some(topo), churn),
            AdversarySpec::Markov(..) => (None, 0),
        };
        let needs_three = match topo {
            Some(Topology::Cycle) => Some("cycle"),
            Some(Topology::NearRegular(_)) => Some("regular:D"),
            _ => None,
        };
        if let Some(name) = needs_three.filter(|_| self.n < 3) {
            let e = format!("{name} needs --n of at least 3");
            return Err(CheckError::Adversary(e));
        }
        // The churn adversary makes up to 50·C + 50 insertion attempts a
        // round, so an unbounded C is a run that never prints.
        let pairs = self.n.saturating_mul(self.n - 1) / 2;
        if churn > pairs {
            let e = format!("churn must be at most n(n-1)/2 = {pairs}, got {churn}");
            return Err(CheckError::Adversary(e));
        }
        Ok(())
    }

    /// The [`CheckError::Flags`] rules, in the order `check` reports them.
    fn check_flags(&self) -> Result<(), String> {
        if self.n < 2 {
            return Err("--n must be at least 2".into());
        }
        id_count(self.n as u64, "--n")?;
        if self.k < 1 {
            return Err("--k must be at least 1".into());
        }
        id_count(self.k as u64, "--k")?;
        if self.s < 1 || self.s > self.n {
            return Err("--s must be in 1..=n".into());
        }
        for (flag, set) in [
            ("--faults", self.faults.is_some()),
            ("--byz", self.byz.is_some()),
            ("--sessions", self.sessions.is_some()),
        ] {
            if set {
                self.algorithm.axis(flag)?;
            }
        }
        if self.sessions.is_some() && self.algorithm != AsyncSingleSource {
            return Err("--sessions runs the async-single-source session mux".into());
        }
        if self.sessions.is_some() && self.byz.is_some() {
            return Err("--byz does not compose with --sessions yet".into());
        }
        if self.kt0 && !matches!(self.algorithm, SingleSource | MultiSource | UnicastFlood) {
            let unicast = "single-source, multi-source or unicast-flood";
            return Err(format!("--kt0 needs a unicast algorithm: {unicast}"));
        }
        Ok(())
    }

    /// Runs the spec and returns what `spread` prints. `trace` receives an
    /// `async-*` run's JSONL trace; the round engines ignore it. The only
    /// error is a session trace file that cannot be read, parsed or holds
    /// no session; a spec that fails [`check`](Self::check) may panic.
    pub fn run(&self, trace: Option<JsonlTracer>) -> Result<String, String> {
        let (n, seed, cap) = (self.n, self.seed, self.max_rounds);
        let a = self.algorithm.assignment(n, self.k, self.s);
        let adversary = self.adversary.build(n, seed);
        let mut cfg = SimConfig::with_max_rounds(cap);
        cfg.charge_neighbor_discovery = self.kt0;
        Ok(match self.algorithm {
            SingleSource => finish(UnicastSim::new(
                "single-source-unicast",
                SingleSourceNode::nodes(&a),
                adversary,
                &a,
                cfg,
            )),
            MultiSource => finish(UnicastSim::new(
                "multi-source-unicast",
                MultiSourceNode::nodes(&a).0,
                adversary,
                &a,
                cfg,
            )),
            UnicastFlood => finish(UnicastSim::new(
                "unicast-flooding",
                UnicastFlooding::nodes(&a),
                adversary,
                &a,
                cfg,
            )),
            PhasedFlood => finish(BroadcastSim::new(
                "phased-flooding",
                PhasedFlooding::nodes(&a),
                adversary,
                &a,
                cfg,
            )),
            Rlnc => finish(BroadcastSim::new(
                "rlnc-gossip",
                RlncNode::nodes(&a, seed),
                adversary,
                &a,
                cfg,
            )),
            Oblivious => {
                let defaults = ObliviousConfig::default();
                let (threshold, p, gamma) = laptop_scale(n, self.k);
                let cfg = ObliviousConfig {
                    seed,
                    source_threshold: Some(threshold),
                    center_probability: Some(p),
                    degree_threshold: Some(gamma),
                    phase1_max_rounds: defaults.phase1_max_rounds.min(cap),
                    phase2_max_rounds: defaults.phase2_max_rounds.min(cap),
                };
                // Phase 2 draws its own schedule.
                let adversary2 = self.adversary.build(n, seed.wrapping_add(1));
                let out = run_oblivious_multi_source(&a, adversary, adversary2, &cfg);
                let phase1 = out.phase1.as_ref().map(|p1| format!("{p1}\n"));
                format!(
                    "{}{}\ntotal: {} messages in {} rounds, amortized {:.1}/token, {} centers",
                    phase1.unwrap_or_default(),
                    out.phase2,
                    out.total_messages(),
                    out.total_rounds(),
                    out.amortized(),
                    out.centers.len()
                )
            }
            AsyncSingleSource | AsyncMultiSource | AsyncOblivious => {
                let mut scenario = Scenario::from_assignment(a).topology(adversary);
                if let Some(tracer) = trace {
                    scenario = scenario.trace(tracer);
                }
                self.run_scenario(scenario.seed(seed).max_time(cap))?
            }
        })
    }

    /// Adds the spec's fault, Byzantine and session axes to an event-engine
    /// run, and runs it.
    fn run_scenario(&self, mut scenario: Scenario<Box<dyn Adversary>>) -> Result<String, String> {
        let (n, seed, cap) = (self.n, self.seed, self.max_rounds);
        if let Some(faults) = &self.faults {
            scenario = scenario.faults(faults.build(n, seed ^ 0xFA17));
        }
        if let Some(byz) = &self.byz {
            scenario = scenario.byzantine(byz.build(n, seed ^ 0xB42));
        }
        Ok(if let Some(sessions) = &self.sessions {
            let out = scenario.workload(&sessions.build(n, seed)?).run_sessions();
            let mut text = format!("{}\n", out.report);
            for s in &out.sessions {
                let latency = match s.latency {
                    Some(latency) => format!("latency {latency:>8}"),
                    None => "incomplete".into(),
                };
                text += &format!(
                    "session {:>8}: arrival {:>8} {latency} messages {:>8}\n",
                    s.label, s.arrival, s.messages
                );
            }
            text + &format!(
                "sessions: {}/{} complete, p50 latency {:?}, p95 latency {:?}, \
                 {} session messages, {} decode errors, {} foreign drops",
                out.completed_sessions(),
                out.sessions.len(),
                out.latency_percentile(0.50),
                out.latency_percentile(0.95),
                out.total_session_messages(),
                out.decode_errors,
                out.foreign_drops
            )
        } else if self.algorithm == AsyncOblivious {
            // `run_oblivious` takes its caps from the config, not the builder.
            let defaults = AsyncObliviousConfig::default();
            let (threshold, p, gamma) = laptop_scale(n, self.k);
            let cfg = AsyncObliviousConfig {
                seed,
                source_threshold: Some(threshold),
                center_probability: Some(p),
                degree_threshold: Some(gamma),
                phase1_deadline: defaults.phase1_deadline.min(cap),
                phase1_max_time: defaults.phase1_max_time.min(cap),
                phase2_max_time: defaults.phase2_max_time.min(cap),
                ..defaults
            };
            // Phase 2 draws its own schedule and faults.
            let adversary2 = self.adversary.build(n, seed.wrapping_add(1));
            let faults2 = self.faults.as_ref().map(|f| f.build(n, seed ^ 0xFA172));
            let out = scenario.run_oblivious(adversary2, PerfectLink, &cfg, faults2.as_ref());
            format!(
                "{}\n{} centers, {} sources, {} stranded, {} reclaimed, {} recovered, \
                 live coverage {:.3}, honest coverage {:.3}",
                out.report,
                out.centers.len(),
                out.sources.len(),
                out.stranded_tokens,
                out.crash_reclaimed,
                out.stolen_recovered,
                out.live_coverage,
                out.honest_coverage
            )
        } else {
            let out = match self.algorithm {
                AsyncSingleSource => scenario.run_single_source(),
                _ => scenario.run_multi_source(),
            };
            format!(
                "{}\nlive coverage {:.3}, honest coverage {:.3}, {} violations, {} injected",
                out.report,
                out.live_coverage,
                out.honest_coverage,
                out.evidence.len(),
                out.injected
            )
        })
    }
}

/// Runs a synchronous round engine to completion and renders its report.
fn finish<R: RoundMode>(mut sim: RoundSim<R>) -> String {
    sim.run_to_completion().to_string()
}

/// Parses a fraction or probability: a number in `[0, 1]` (NaN is not).
fn parse_fraction(text: &str, what: &str) -> Result<f64, String> {
    let x: f64 = text.parse().map_err(|e| format!("{what}: {e}"))?;
    if !(0.0..=1.0).contains(&x) {
        return Err(format!("{what} must be in [0, 1], got {text}"));
    }
    Ok(x)
}

/// Parses a count, period or duration that must be at least 1.
fn parse_positive(text: &str, what: &str) -> Result<u64, String> {
    match text.parse::<u64>() {
        Ok(0) => Err(format!("{what} must be at least 1")),
        Ok(x) => Ok(x),
        Err(e) => Err(format!("{what}: {e}")),
    }
}

/// A node, token or session count: their ids are `u32`, so at most
/// `u32::MAX` of each.
fn id_count(count: u64, what: &str) -> Result<usize, String> {
    if count > u64::from(u32::MAX) {
        return Err(format!("{what} must be at most {}", u32::MAX));
    }
    Ok(count as usize)
}
