//! `spread` — run any dissemination algorithm against any adversary from
//! the command line.
//!
//! ```text
//! Usage: spread [OPTIONS]
//!   --alg  ALG     single-source | multi-source | unicast-flood |
//!                  phased-flood | rlnc | oblivious |
//!                  async-single-source | async-multi-source |
//!                  async-oblivious                        [single-source]
//!   --adv  ADV     static:TOPO | rewire:TOPO:PERIOD |
//!                  markov:P_ON:P_OFF:SIGMA | churn:TOPO:C:SIGMA
//!                                                         [rewire:tree:3]
//!   --n    N       nodes                                  [32]
//!   --k    K       tokens                                 [64]
//!   --s    S       sources (multi-source / rlnc / oblivious) [4]
//!   --seed SEED    RNG seed                               [42]
//!   --max-rounds R round cap; for async-* algorithms R caps virtual
//!                  ticks (two per round); the oblivious pipelines cap
//!                  each phase at min(its default, R)       [1000000]
//!   --kt0          charge neighbor-discovery hellos (unicast algorithms)
//!
//! Scenario flags (async-* algorithms only, backed by the unified
//! `Scenario` builder):
//!   --faults SPEC    comma-separated fault segments:
//!                    stop:FRAC:AT | recover:FRAC:T0:T1[:amnesia|durable]
//!                    | part:T0:T1
//!   --byz FRAC:KIND  uniform misbehavior plan; KIND: false-claims |
//!                    forge-transfers | seq-replay | drop-acks |
//!                    mutate-tokens
//!   --trace-out PATH write the deterministic JSONL trace to PATH
//!   --sessions SRC   multi-session service run (async-single-source
//!                    mux): a trace file of `ARRIVAL SOURCE K [LEAVE]`
//!                    lines, or uniform:SESSIONS:K:SPACING
//!
//! TOPO: path | cycle | star | complete | tree | gnp:P | sparse:C | regular:D
//! ```
//!
//! Examples:
//!
//! ```text
//! spread --alg multi-source --adv churn:sparse:2.0:2:3 --n 40 --k 80 --s 4
//! spread --alg rlnc --adv rewire:tree:1 --n 24 --k 24 --s 24
//! spread --alg async-single-source --faults recover:0.2:50:200,part:80:400 --byz 0.15:false-claims
//! spread --alg async-single-source --sessions uniform:20:8:40 --n 24
//! ```

use dynspread::core::baselines::UnicastFlooding;
use dynspread::core::flooding::PhasedFlooding;
use dynspread::core::multi_source::MultiSourceNode;
use dynspread::core::network_coding::RlncNode;
use dynspread::core::oblivious::{run_oblivious_multi_source, ObliviousConfig};
use dynspread::core::single_source::SingleSourceNode;
use dynspread::graph::adversary::Adversary;
use dynspread::graph::generators::Topology;
use dynspread::graph::oblivious::{
    ChurnAdversary, EdgeMarkovian, PeriodicRewiring, StaticAdversary,
};
use dynspread::graph::NodeId;
use dynspread::runtime::byzantine::{MisbehaviorKind, MisbehaviorPlan};
use dynspread::runtime::faults::{FaultPlan, RecoveryMode};
use dynspread::runtime::protocol::AsyncObliviousConfig;
use dynspread::runtime::trace::JsonlTracer;
use dynspread::runtime::{Scenario, SessionWorkload};
use dynspread::sim::{BroadcastSim, SimConfig, TokenAssignment, UnicastSim};

/// Parsed CLI configuration.
#[derive(Clone, Debug, PartialEq)]
struct Config {
    alg: String,
    adv: String,
    n: usize,
    k: usize,
    s: usize,
    seed: u64,
    max_rounds: u64,
    kt0: bool,
    faults: Option<String>,
    byz: Option<String>,
    trace_out: Option<String>,
    sessions: Option<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            alg: "single-source".into(),
            adv: "rewire:tree:3".into(),
            n: 32,
            k: 64,
            s: 4,
            seed: 42,
            max_rounds: 1_000_000,
            kt0: false,
            faults: None,
            byz: None,
            trace_out: None,
            sessions: None,
        }
    }
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {name}"))
        };
        match flag.as_str() {
            "--alg" => cfg.alg = value("--alg")?,
            "--adv" => cfg.adv = value("--adv")?,
            "--n" => cfg.n = value("--n")?.parse().map_err(|e| format!("--n: {e}"))?,
            "--k" => cfg.k = value("--k")?.parse().map_err(|e| format!("--k: {e}"))?,
            "--s" => cfg.s = value("--s")?.parse().map_err(|e| format!("--s: {e}"))?,
            "--seed" => {
                cfg.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--max-rounds" => {
                cfg.max_rounds = value("--max-rounds")?
                    .parse()
                    .map_err(|e| format!("--max-rounds: {e}"))?
            }
            "--kt0" => cfg.kt0 = true,
            "--faults" => cfg.faults = Some(value("--faults")?),
            "--byz" => cfg.byz = Some(value("--byz")?),
            "--trace-out" => cfg.trace_out = Some(value("--trace-out")?),
            "--sessions" => cfg.sessions = Some(value("--sessions")?),
            "--help" | "-h" => return Err("help".into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if cfg.n < 2 {
        return Err("--n must be at least 2".into());
    }
    if cfg.k < 1 {
        return Err("--k must be at least 1".into());
    }
    if cfg.s < 1 || cfg.s > cfg.n {
        return Err("--s must be in 1..=n".into());
    }
    let scenario_alg = cfg.alg.starts_with("async-");
    if !scenario_alg {
        for (flag, set) in [
            ("--faults", cfg.faults.is_some()),
            ("--byz", cfg.byz.is_some()),
            ("--trace-out", cfg.trace_out.is_some()),
            ("--sessions", cfg.sessions.is_some()),
        ] {
            if set {
                return Err(format!(
                    "{flag} needs an async-* algorithm (the synchronous engines \
                     have no fault/Byzantine/trace axes)"
                ));
            }
        }
    }
    if cfg.sessions.is_some() {
        if cfg.alg != "async-single-source" {
            return Err("--sessions runs the async-single-source session mux".into());
        }
        if cfg.byz.is_some() {
            return Err("--byz does not compose with --sessions yet".into());
        }
    }
    Ok(cfg)
}

/// Parses a fraction or probability: a number in `[0, 1]` (NaN is not).
fn parse_fraction(text: &str, what: &str) -> Result<f64, String> {
    let x: f64 = text.parse().map_err(|e| format!("{what}: {e}"))?;
    if (0.0..=1.0).contains(&x) {
        Ok(x)
    } else {
        Err(format!("{what} must be in [0, 1], got {text}"))
    }
}

/// Parses a count, period or duration that must be at least 1.
fn parse_positive(text: &str, what: &str) -> Result<u64, String> {
    match text.parse::<u64>() {
        Ok(0) => Err(format!("{what} must be at least 1")),
        Ok(x) => Ok(x),
        Err(e) => Err(format!("{what}: {e}")),
    }
}

/// Parses `--faults` segments: `stop:FRAC:AT`,
/// `recover:FRAC:T0:T1[:amnesia|durable]`, `part:T0:T1`, comma-joined.
fn parse_faults(spec: &str, n: usize, seed: u64) -> Result<FaultPlan, String> {
    let mut plan = FaultPlan::none(n);
    for segment in spec.split(',') {
        let parts: Vec<&str> = segment.split(':').collect();
        match parts.as_slice() {
            ["stop", frac, at] => {
                if !plan.is_empty() {
                    return Err("at most one crash segment, before any part".into());
                }
                plan = FaultPlan::crash_stop(
                    n,
                    parse_fraction(frac, "stop fraction")?,
                    parse_positive(at, "stop time")?,
                    seed,
                );
            }
            ["recover", frac, t0, t1, rest @ ..] => {
                if !plan.is_empty() {
                    return Err("at most one crash segment, before any part".into());
                }
                let mode = match rest {
                    [] | ["amnesia"] => RecoveryMode::Amnesia,
                    ["durable"] => RecoveryMode::DurableSnapshot,
                    _ => return Err(format!("unknown recovery mode in '{segment}'")),
                };
                plan = FaultPlan::crash_recovery(
                    n,
                    parse_fraction(frac, "recover fraction")?,
                    parse_positive(t0, "recover crash window")?,
                    parse_positive(t1, "recover delay")?,
                    mode,
                    seed,
                );
            }
            ["part", t0, t1] => {
                let start: u64 = t0.parse().map_err(|e| format!("part start: {e}"))?;
                let heal: u64 = t1.parse().map_err(|e| format!("part heal: {e}"))?;
                if start >= heal {
                    return Err(format!("part must heal after it starts, got '{segment}'"));
                }
                plan = plan.with_random_partition(start, heal);
            }
            _ => return Err(format!("unknown fault segment '{segment}'")),
        }
    }
    Ok(plan)
}

/// Parses `--byz FRAC:KIND` into a uniform misbehavior plan.
fn parse_byz(spec: &str, n: usize, seed: u64) -> Result<MisbehaviorPlan, String> {
    let (frac, kind) = spec
        .split_once(':')
        .ok_or_else(|| "byz needs FRAC:KIND".to_string())?;
    let kind = match kind {
        "false-claims" => MisbehaviorKind::FalseClaims,
        "forge-transfers" => MisbehaviorKind::ForgeTransfers,
        "seq-replay" => MisbehaviorKind::SeqReplay,
        "drop-acks" => MisbehaviorKind::DropAcks,
        "mutate-tokens" => MisbehaviorKind::MutateTokens,
        other => return Err(format!("unknown misbehavior kind '{other}'")),
    };
    Ok(MisbehaviorPlan::uniform(
        n,
        parse_fraction(frac, "byz fraction")?,
        kind,
        seed,
    ))
}

/// Parses `--sessions`: `uniform:SESSIONS:K:SPACING` or a trace-file
/// path (one `ARRIVAL SOURCE K [LEAVE]` line per session).
fn parse_sessions(spec: &str, n: usize, seed: u64) -> Result<SessionWorkload, String> {
    if let Some(rest) = spec.strip_prefix("uniform:") {
        let parts: Vec<&str> = rest.split(':').collect();
        let [sessions, k, spacing] = parts.as_slice() else {
            return Err("uniform needs SESSIONS:K:SPACING".into());
        };
        return Ok(SessionWorkload::uniform(
            n,
            parse_positive(sessions, "sessions")? as usize,
            parse_positive(k, "session k")? as usize,
            parse_positive(spacing, "spacing")?,
            seed,
        ));
    }
    let text = std::fs::read_to_string(spec).map_err(|e| format!("reading {spec}: {e}"))?;
    let workload = SessionWorkload::parse(n, &text)?;
    if workload.is_empty() {
        return Err(format!("{spec}: no sessions in the trace"));
    }
    Ok(workload)
}

fn parse_topology(spec: &str) -> Result<Topology, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    match parts.as_slice() {
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
            Ok(_) => Err("regular degree must be at least 2".to_string()),
            Err(e) => Err(format!("regular degree: {e}")),
        },
        _ => Err(format!("unknown topology '{spec}'")),
    }
}

fn parse_adversary(spec: &str, n: usize, seed: u64) -> Result<Box<dyn Adversary>, String> {
    let (kind, rest) = spec.split_once(':').unwrap_or((spec, ""));
    let topology = |spec: &str| match parse_topology(spec)? {
        Topology::NearRegular(_) if n < 3 => Err("regular:D needs --n of at least 3".to_string()),
        topology => Ok(topology),
    };
    match kind {
        "static" => {
            let topo = topology(rest)?;
            Ok(Box::new(StaticAdversary::from_topology(topo, n, seed)))
        }
        "rewire" => {
            let (topo_spec, period) = rest
                .rsplit_once(':')
                .ok_or_else(|| "rewire needs TOPO:PERIOD".to_string())?;
            let topo = topology(topo_spec)?;
            let period = parse_positive(period, "period")?;
            Ok(Box::new(PeriodicRewiring::new(topo, period, seed)))
        }
        "markov" => {
            let parts: Vec<&str> = rest.split(':').collect();
            let [p_on, p_off, sigma] = parts.as_slice() else {
                return Err("markov needs P_ON:P_OFF:SIGMA".into());
            };
            Ok(Box::new(EdgeMarkovian::new(
                parse_fraction(p_on, "p_on")?,
                parse_fraction(p_off, "p_off")?,
                parse_positive(sigma, "sigma")?,
                seed,
            )))
        }
        "churn" => {
            // churn:TOPO[:..]:C:SIGMA — topology may itself contain ':'.
            let (head, sigma) = rest
                .rsplit_once(':')
                .ok_or_else(|| "churn needs TOPO:C:SIGMA".to_string())?;
            let (topo_spec, churn) = head
                .rsplit_once(':')
                .ok_or_else(|| "churn needs TOPO:C:SIGMA".to_string())?;
            let topo = topology(topo_spec)?;
            // The adversary makes up to 50·C + 50 insertion attempts a
            // round, so an unbounded C is a run that never prints.
            let churn: usize = churn.parse().map_err(|e| format!("churn: {e}"))?;
            let pairs = n.saturating_mul(n.saturating_sub(1)) / 2;
            if churn > pairs {
                return Err(format!(
                    "churn must be at most n(n-1)/2 = {pairs}, got {churn}"
                ));
            }
            let sigma = parse_positive(sigma, "sigma")?;
            Ok(Box::new(ChurnAdversary::new(topo, churn, sigma, seed)))
        }
        _ => Err(format!("unknown adversary '{spec}'")),
    }
}

/// Builds the Scenario axes shared by every async-* algorithm, runs the
/// one `cfg.alg` names, and flushes the trace file if one was requested.
fn run_scenario(cfg: &Config, assignment: TokenAssignment) -> Result<String, String> {
    let adversary = parse_adversary(&cfg.adv, cfg.n, cfg.seed)?;
    let mut scenario = Scenario::from_assignment(assignment)
        .topology(adversary)
        .seed(cfg.seed)
        .max_time(cfg.max_rounds);
    if let Some(spec) = &cfg.faults {
        scenario = scenario.faults(parse_faults(spec, cfg.n, cfg.seed ^ 0xFA17)?);
    }
    if let Some(spec) = &cfg.byz {
        scenario = scenario.byzantine(parse_byz(spec, cfg.n, cfg.seed ^ 0xB42)?);
    }
    let tracer = JsonlTracer::new();
    if cfg.trace_out.is_some() {
        scenario = scenario.trace(tracer.clone());
    }

    let mut text = String::new();
    match cfg.alg.as_str() {
        "async-single-source" if cfg.sessions.is_some() => {
            let spec = cfg.sessions.as_deref().expect("checked above");
            let workload = parse_sessions(spec, cfg.n, cfg.seed)?;
            let out = scenario.workload(&workload).run_sessions();
            text.push_str(&format!("{}\n", out.report));
            for s in &out.sessions {
                match s.latency {
                    Some(lat) => text.push_str(&format!(
                        "session {:>8}: arrival {:>8} latency {:>8} messages {:>8}\n",
                        s.label, s.arrival, lat, s.messages
                    )),
                    None => text.push_str(&format!(
                        "session {:>8}: arrival {:>8} incomplete messages {:>8}\n",
                        s.label, s.arrival, s.messages
                    )),
                }
            }
            text.push_str(&format!(
                "sessions: {}/{} complete, p50 latency {:?}, p95 latency {:?}, \
                 {} session messages, {} decode errors, {} foreign drops",
                out.completed_sessions(),
                out.sessions.len(),
                out.latency_percentile(0.50),
                out.latency_percentile(0.95),
                out.total_session_messages(),
                out.decode_errors,
                out.foreign_drops
            ));
        }
        "async-single-source" | "async-multi-source" => {
            let out = if cfg.alg == "async-single-source" {
                scenario.run_single_source()
            } else {
                scenario.run_multi_source()
            };
            text.push_str(&format!("{}\n", out.report));
            text.push_str(&format!(
                "live coverage {:.3}, honest coverage {:.3}, {} violations, {} injected",
                out.live_coverage,
                out.honest_coverage,
                out.evidence.len(),
                out.injected
            ));
        }
        "async-oblivious" => {
            let adversary2 = parse_adversary(&cfg.adv, cfg.n, cfg.seed + 1)?;
            // `run_oblivious` takes its caps from the config, not the
            // builder: cap each phase at --max-rounds here.
            let defaults = AsyncObliviousConfig::default();
            let ob_cfg = AsyncObliviousConfig {
                seed: cfg.seed,
                phase1_deadline: defaults.phase1_deadline.min(cfg.max_rounds),
                phase1_max_time: defaults.phase1_max_time.min(cfg.max_rounds),
                phase2_max_time: defaults.phase2_max_time.min(cfg.max_rounds),
                ..defaults
            };
            let faults2 = cfg
                .faults
                .as_deref()
                .map(|spec| parse_faults(spec, cfg.n, cfg.seed ^ 0xFA172))
                .transpose()?;
            let out = scenario.run_oblivious(
                adversary2,
                dynspread::runtime::link::PerfectLink,
                &ob_cfg,
                faults2.as_ref(),
            );
            text.push_str(&format!("{}\n", out.report));
            text.push_str(&format!(
                "{} centers, {} sources, {} stranded, {} reclaimed, {} recovered, \
                 live coverage {:.3}, honest coverage {:.3}",
                out.centers.len(),
                out.sources.len(),
                out.stranded_tokens,
                out.crash_reclaimed,
                out.stolen_recovered,
                out.live_coverage,
                out.honest_coverage
            ));
        }
        other => return Err(format!("unknown algorithm '{other}'")),
    }

    if let Some(path) = &cfg.trace_out {
        std::fs::write(path, tracer.take_jsonl()).map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(text)
}

fn run(cfg: &Config) -> Result<String, String> {
    if cfg.alg.starts_with("async-") {
        let assignment = match cfg.alg.as_str() {
            "async-single-source" => TokenAssignment::single_source(cfg.n, cfg.k, NodeId::new(0)),
            _ => TokenAssignment::round_robin_sources(cfg.n, cfg.k, cfg.s),
        };
        return run_scenario(cfg, assignment);
    }
    let sim_cfg = SimConfig {
        max_rounds: cfg.max_rounds,
        charge_neighbor_discovery: cfg.kt0,
        ..SimConfig::default()
    };
    let adversary = parse_adversary(&cfg.adv, cfg.n, cfg.seed)?;
    let report = match cfg.alg.as_str() {
        "single-source" => {
            let a = TokenAssignment::single_source(cfg.n, cfg.k, NodeId::new(0));
            let mut sim = UnicastSim::new(
                "single-source-unicast",
                SingleSourceNode::nodes(&a),
                adversary,
                &a,
                sim_cfg,
            );
            sim.run_to_completion()
        }
        "multi-source" => {
            let a = TokenAssignment::round_robin_sources(cfg.n, cfg.k, cfg.s);
            let (nodes, _map) = MultiSourceNode::nodes(&a);
            let mut sim = UnicastSim::new("multi-source-unicast", nodes, adversary, &a, sim_cfg);
            sim.run_to_completion()
        }
        "unicast-flood" => {
            let a = TokenAssignment::single_source(cfg.n, cfg.k, NodeId::new(0));
            let mut sim = UnicastSim::new(
                "unicast-flooding",
                UnicastFlooding::nodes(&a),
                adversary,
                &a,
                sim_cfg,
            );
            sim.run_to_completion()
        }
        "phased-flood" => {
            let a = TokenAssignment::round_robin_sources(cfg.n, cfg.k, cfg.s);
            let mut sim = BroadcastSim::new(
                "phased-flooding",
                PhasedFlooding::nodes(&a),
                adversary,
                &a,
                sim_cfg,
            );
            sim.run_to_completion()
        }
        "rlnc" => {
            let a = TokenAssignment::round_robin_sources(cfg.n, cfg.k, cfg.s);
            let mut sim = BroadcastSim::new(
                "rlnc-gossip",
                RlncNode::nodes(&a, cfg.seed),
                adversary,
                &a,
                sim_cfg,
            );
            sim.run_to_completion()
        }
        "oblivious" => {
            let a = TokenAssignment::round_robin_sources(cfg.n, cfg.k, cfg.s);
            let adversary2 = parse_adversary(&cfg.adv, cfg.n, cfg.seed + 1)?;
            let defaults = ObliviousConfig::default();
            let ob_cfg = ObliviousConfig {
                seed: cfg.seed,
                source_threshold: Some((cfg.n as f64).powf(2.0 / 3.0)),
                phase1_max_rounds: defaults.phase1_max_rounds.min(cfg.max_rounds),
                phase2_max_rounds: defaults.phase2_max_rounds.min(cfg.max_rounds),
                ..defaults
            };
            let out = run_oblivious_multi_source(&a, adversary, adversary2, &ob_cfg);
            let mut text = String::new();
            if let Some(p1) = &out.phase1 {
                text.push_str(&format!("{p1}\n"));
            }
            text.push_str(&format!("{}\n", out.phase2));
            text.push_str(&format!(
                "total: {} messages in {} rounds, amortized {:.1}/token, {} centers",
                out.total_messages(),
                out.total_rounds(),
                out.amortized(),
                out.centers.len()
            ));
            return Ok(text);
        }
        other => return Err(format!("unknown algorithm '{other}'")),
    };
    Ok(report.to_string())
}

const USAGE: &str = "\
usage: spread [--alg ALG] [--adv ADV] [--n N] [--k K] [--s S] [--seed SEED] [--max-rounds R] [--kt0]
              [--faults SPEC] [--byz FRAC:KIND] [--trace-out PATH] [--sessions SRC]
ALG:  single-source | multi-source | unicast-flood | phased-flood | rlnc | oblivious
      | async-single-source | async-multi-source | async-oblivious
ADV:  static:TOPO | rewire:TOPO:PERIOD | markov:P_ON:P_OFF:SIGMA | churn:TOPO:C:SIGMA
TOPO: path | cycle | star | complete | tree | gnp:P | sparse:C | regular:D
SPEC: stop:FRAC:AT | recover:FRAC:T0:T1[:amnesia|durable] | part:T0:T1 (comma-joined)
SRC:  a trace file (`ARRIVAL SOURCE K [LEAVE]` lines) | uniform:SESSIONS:K:SPACING
R:    round cap; for async-* algorithms it caps virtual ticks (two per round)";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Flag errors exit 2, errors in a flag's value (found when the run is
    // built) exit 1; both print the usage after the `error:` line.
    let (code, error) = match parse_args(&args) {
        Ok(cfg) => match run(&cfg) {
            Ok(text) => {
                println!("{text}");
                return;
            }
            Err(e) => (1, e),
        },
        Err(e) if e == "help" => {
            eprintln!("{USAGE}");
            return;
        }
        Err(e) => (2, e),
    };
    eprintln!("error: {error}\n\n{USAGE}");
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    #[test]
    fn defaults_parse() {
        let cfg = parse_args(&[]).unwrap();
        assert_eq!(cfg, Config::default());
    }

    #[test]
    fn flags_override_defaults() {
        let cfg = parse_args(&args("--n 10 --k 5 --s 2 --seed 7 --kt0")).unwrap();
        assert_eq!(cfg.n, 10);
        assert_eq!(cfg.k, 5);
        assert_eq!(cfg.s, 2);
        assert_eq!(cfg.seed, 7);
        assert!(cfg.kt0);
    }

    #[test]
    fn rejects_bad_flags_and_values() {
        assert!(parse_args(&args("--bogus 1")).is_err());
        assert!(parse_args(&args("--n")).is_err());
        assert!(parse_args(&args("--n zero")).is_err());
        assert!(parse_args(&args("--n 1")).is_err());
        assert!(parse_args(&args("--n 4 --s 9")).is_err());
    }

    #[test]
    fn topology_specs_parse() {
        assert_eq!(parse_topology("path").unwrap(), Topology::Path);
        assert_eq!(parse_topology("gnp:0.3").unwrap(), Topology::Gnp(0.3));
        assert_eq!(
            parse_topology("sparse:2.5").unwrap(),
            Topology::SparseConnected(2.5)
        );
        assert_eq!(
            parse_topology("regular:4").unwrap(),
            Topology::NearRegular(4)
        );
        assert!(parse_topology("hex").is_err());
        assert!(parse_topology("gnp:x").is_err());
    }

    #[test]
    fn adversary_specs_parse() {
        assert!(parse_adversary("static:complete", 6, 1).is_ok());
        assert!(parse_adversary("rewire:tree:3", 6, 1).is_ok());
        assert!(parse_adversary("rewire:gnp:0.3:3", 6, 1).is_ok());
        assert!(parse_adversary("markov:0.1:0.2:2", 6, 1).is_ok());
        assert!(parse_adversary("churn:sparse:2.0:2:3", 6, 1).is_ok());
        assert!(parse_adversary("quantum:1", 6, 1).is_err());
        assert!(parse_adversary("rewire:tree", 6, 1).is_err());
    }

    #[test]
    fn end_to_end_small_runs() {
        for alg in [
            "single-source",
            "multi-source",
            "unicast-flood",
            "phased-flood",
            "rlnc",
            "oblivious",
        ] {
            let cfg = Config {
                alg: alg.into(),
                adv: "rewire:tree:3".into(),
                n: 8,
                k: 8,
                s: 4,
                seed: 5,
                max_rounds: 200_000,
                ..Config::default()
            };
            let out = run(&cfg).unwrap_or_else(|e| panic!("{alg}: {e}"));
            assert!(out.contains("completed"), "{alg} output: {out}");
        }
    }

    #[test]
    fn max_rounds_caps_each_phase_of_the_oblivious_pipeline() {
        let cfg = parse_args(&args("--alg oblivious --n 16 --k 16 --s 16 --max-rounds 1")).unwrap();
        let out = run(&cfg).unwrap();
        let phase2 = out.lines().find(|l| l.contains("(phase2)")).expect(&out);
        assert!(phase2.ends_with("DID NOT COMPLETE in 1 rounds"), "{out}");
        // Uncapped, the same run completes — in more than one round.
        let out = run(&Config {
            max_rounds: 1_000_000,
            ..cfg
        })
        .unwrap();
        let phase2 = out.lines().find(|l| l.contains("(phase2)")).expect(&out);
        assert!(phase2.contains("): completed in "), "{out}");
    }

    #[test]
    fn unknown_algorithm_is_an_error() {
        let cfg = Config {
            alg: "teleport".into(),
            ..Config::default()
        };
        assert!(run(&cfg).is_err());
        let cfg = Config {
            alg: "async-teleport".into(),
            ..Config::default()
        };
        assert!(run(&cfg).is_err());
    }

    #[test]
    fn scenario_flags_need_async_algorithms() {
        assert!(parse_args(&args("--faults stop:0.2:40")).is_err());
        assert!(parse_args(&args("--byz 0.2:drop-acks")).is_err());
        assert!(parse_args(&args("--trace-out /tmp/x.jsonl")).is_err());
        assert!(parse_args(&args("--sessions uniform:4:4:40")).is_err());
        assert!(parse_args(&args("--alg async-single-source --faults stop:0.2:40")).is_ok());
        // Sessions only multiplex the single-source port, without byz.
        assert!(parse_args(&args("--alg async-multi-source --sessions uniform:4:4:40")).is_err());
        assert!(parse_args(&args(
            "--alg async-single-source --sessions uniform:4:4:40 --byz 0.2:drop-acks"
        ))
        .is_err());
    }

    #[test]
    fn fault_and_byz_specs_parse() {
        assert!(parse_faults("stop:0.2:40", 8, 1).is_ok());
        assert!(parse_faults("recover:0.2:30:120", 8, 1).is_ok());
        assert!(parse_faults("recover:0.2:30:120:durable,part:60:400", 8, 1).is_ok());
        assert!(parse_faults("part:60:400", 8, 1).is_ok());
        assert!(parse_faults("stop:0.2:40,recover:0.1:1:2", 8, 1).is_err());
        assert!(parse_faults("melt:0.2", 8, 1).is_err());
        assert!(parse_byz("0.25:false-claims", 8, 1).is_ok());
        assert!(parse_byz("0.25:mind-control", 8, 1).is_err());
        assert!(parse_byz("drop-acks", 8, 1).is_err());
    }

    #[test]
    fn out_of_range_values_are_errors_not_panics() {
        for adv in [
            "static:gnp:2.0",
            "static:gnp:-1",
            "static:gnp:nan",
            "rewire:tree:0",
            "markov:2:0:1",
            "markov:0:1.5:1",
            "markov:.1:.1:0",
            "churn:sparse:0.1:0:0",
            "static:sparse:nan",
            "static:sparse:inf",
            "static:sparse:-1",
            "static:regular:0",
            "static:regular:1",
            // 28 pairs at n = 8; unbounded, the run spins in the insertion loop.
            "churn:sparse:2.0:29:3",
            "churn:sparse:2.0:99999999999:3",
        ] {
            let err = parse_adversary(adv, 8, 1).err();
            assert!(err.is_some(), "{adv} must be rejected");
            // The same value through the front door.
            let cfg = Config {
                adv: adv.into(),
                n: 8,
                ..Config::default()
            };
            assert_eq!(run(&cfg).err(), err, "{adv}");
        }
        assert!(parse_adversary("static:regular:3", 2, 1).is_err());
        assert!(parse_adversary("static:regular:3", 3, 1).is_ok());
        for byz in ["2:drop-acks", "-0.1:drop-acks", "nan:drop-acks"] {
            assert!(parse_byz(byz, 8, 1).is_err(), "{byz}");
        }
        for faults in [
            "stop:2:5",
            "stop:0.2:0",
            "recover:1.5:30:120",
            "recover:0.2:0:120",
            "recover:0.2:30:0",
            "part:50:20",
            "part:50:50",
        ] {
            assert!(parse_faults(faults, 8, 1).is_err(), "{faults}");
        }
        for sessions in ["uniform:0:4:10", "uniform:3:0:10", "uniform:3:4:0"] {
            assert!(parse_sessions(sessions, 8, 3).is_err(), "{sessions}");
        }
        // Scenario values are only parsed once the run is built.
        let scenario = Config {
            alg: "async-single-source".into(),
            n: 8,
            ..Config::default()
        };
        for cfg in [
            Config {
                byz: Some("2:drop-acks".into()),
                ..scenario.clone()
            },
            Config {
                faults: Some("stop:2:5".into()),
                ..scenario.clone()
            },
            Config {
                sessions: Some("uniform:0:4:10".into()),
                ..scenario.clone()
            },
            Config {
                sessions: Some("uniform:3:0:10".into()),
                ..scenario.clone()
            },
        ] {
            assert!(run(&cfg).is_err(), "{cfg:?}");
        }
    }

    #[test]
    fn empty_session_trace_is_an_error() {
        let path = std::env::temp_dir().join(format!("spread-empty-{}.trace", std::process::id()));
        std::fs::write(&path, "# no sessions yet\n\n").unwrap();
        let parsed = parse_sessions(path.to_str().unwrap(), 8, 3);
        std::fs::remove_file(&path).unwrap();
        assert!(parsed.unwrap_err().contains("no sessions"));
    }

    #[test]
    fn session_specs_parse() {
        let w = parse_sessions("uniform:5:4:40", 8, 3).unwrap();
        assert_eq!(w.len(), 5);
        assert!(parse_sessions("uniform:5:4", 8, 3).is_err());
        assert!(parse_sessions("/nonexistent/trace.txt", 8, 3).is_err());
    }

    #[test]
    fn async_algorithms_run_end_to_end() {
        for alg in [
            "async-single-source",
            "async-multi-source",
            "async-oblivious",
        ] {
            let cfg = Config {
                alg: alg.into(),
                n: 8,
                k: 8,
                s: 4,
                seed: 5,
                max_rounds: 200_000,
                ..Config::default()
            };
            let out = run(&cfg).unwrap_or_else(|e| panic!("{alg}: {e}"));
            assert!(out.contains("completed"), "{alg} output: {out}");
        }
    }

    #[test]
    fn composed_axes_run_through_the_cli() {
        let cfg = Config {
            alg: "async-single-source".into(),
            n: 12,
            k: 6,
            seed: 7,
            faults: Some("recover:0.2:50:200,part:80:400".into()),
            byz: Some("0.15:false-claims".into()),
            ..Config::default()
        };
        let out = run(&cfg).unwrap();
        assert!(out.contains("honest coverage"), "{out}");
    }

    #[test]
    fn session_service_runs_through_the_cli() {
        let cfg = Config {
            alg: "async-single-source".into(),
            n: 12,
            seed: 7,
            sessions: Some("uniform:4:4:40".into()),
            ..Config::default()
        };
        let out = run(&cfg).unwrap();
        assert!(out.contains("sessions: 4/4 complete"), "{out}");
        assert!(out.contains("p50 latency"), "{out}");
    }
}
