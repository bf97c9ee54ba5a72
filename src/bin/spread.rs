//! `spread` — run any dissemination algorithm against any adversary from
//! the command line: the flags are read into one `ScenarioSpec`
//! (`dynspread_runtime::spec`), and what its `run` returns is printed.
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
//!   --s    S       sources (multi-source / rlnc / oblivious)
//!                                                         [min(4, N)]
//!   --seed SEED    RNG seed                               [42]
//!   --max-rounds R round cap; for async-* algorithms R caps virtual
//!                  ticks (two per round); the oblivious pipelines cap
//!                  each phase at min(its default, R)       [1000000]
//!   --kt0          charge neighbor-discovery hellos (unicast algorithms)
//!
//! Event-engine flags (async-* algorithms only):
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

use dynspread::runtime::spec::{CheckError, ScenarioSpec};
use dynspread::runtime::JsonlTracer;
use std::io::{ErrorKind, Write};
use std::num::ParseIntError;
use std::str::FromStr;

/// An exit status and what to print after `error:`; status 0 is `--help`.
type Failure = (i32, String);

/// Reads the flags into a spec and `--trace-out`'s path, parsing every
/// value once. A flag that cannot be read, or flags that contradict each
/// other, exit 2. A malformed value exits 1; it keeps its default until
/// the flags are known to fit together, so that it is reported after them.
fn parse_args(args: &[String]) -> Result<(ScenarioSpec, Option<String>), Failure> {
    let mut spec = ScenarioSpec::default();
    // --adv, --faults, --byz, --alg and --sessions, in the order they parse.
    let (mut pieces, mut trace_out, mut s) = ([None; 5], None, None);
    let mut it = args.iter().map(String::as_str);
    while let Some(flag) = it.next() {
        let missing = || (2, format!("missing value for {flag}"));
        let mut value = || it.next().ok_or_else(missing);
        match flag {
            "--adv" => pieces[0] = Some(value()?),
            "--faults" => pieces[1] = Some(value()?),
            "--byz" => pieces[2] = Some(value()?),
            "--alg" => pieces[3] = Some(value()?),
            "--sessions" => pieces[4] = Some(value()?),
            "--n" => spec.n = number(flag, value()?)?,
            "--k" => spec.k = number(flag, value()?)?,
            "--s" => s = Some(number(flag, value()?)?),
            "--seed" => spec.seed = number(flag, value()?)?,
            "--max-rounds" => spec.max_rounds = number(flag, value()?)?,
            "--kt0" => spec.kt0 = true,
            "--trace-out" => trace_out = Some(value()?.to_string()),
            "--help" | "-h" => return Err((0, String::new())),
            other => return Err((2, format!("unknown flag {other}"))),
        }
    }
    spec.s = s.unwrap_or(spec.s.min(spec.n));
    let mut bad = None;
    let [adv, faults, byz, alg, sessions] = pieces;
    spec.adversary = piece(adv, &mut bad).unwrap_or(spec.adversary);
    spec.faults = piece(faults, &mut bad);
    spec.byz = piece(byz, &mut bad);
    spec.algorithm = piece(alg, &mut bad).unwrap_or(spec.algorithm);
    spec.sessions = piece(sessions, &mut bad);
    spec.check().map_err(|e| match e {
        CheckError::Flags(e) => (2, e),
        CheckError::Adversary(e) => (1, e),
    })?;
    if trace_out.is_some() {
        spec.algorithm.axis("--trace-out").map_err(|e| (2, e))?;
    }
    bad.map_or(Ok((spec, trace_out)), |e| Err((1, e)))
}

/// Parses the value of a numeric flag.
fn number<T: FromStr<Err = ParseIntError>>(flag: &str, text: &str) -> Result<T, Failure> {
    text.parse().map_err(|e| (2, format!("{flag}: {e}")))
}

/// Parses a piece if it was given; an error is kept in `bad` unless one is
/// there already.
fn piece<T: FromStr<Err = String>>(text: Option<&str>, bad: &mut Option<String>) -> Option<T> {
    let parsed = text?.parse();
    parsed.map_err(|e| *bad = bad.take().or(Some(e))).ok()
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

/// Parses `args` and runs them: every value is parsed before anything runs,
/// and a run that cannot be built (an unreadable trace file, say) or a
/// trace that cannot be written exits 1.
fn spread(args: &[String]) -> Result<String, Failure> {
    let (spec, trace_out) = parse_args(args)?;
    let tracer = JsonlTracer::new();
    let trace = trace_out.as_ref().map(|_| tracer.clone());
    let text = spec.run(trace).map_err(|e| (1, e))?;
    if let Some(path) = trace_out {
        let written = std::fs::write(&path, tracer.take_jsonl());
        written.map_err(|e| (1, format!("writing {path}: {e}")))?;
    }
    Ok(text)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // A reader that closed the pipe (`spread … | head -2`) is no error.
    let printed = spread(&args).and_then(|text| match writeln!(std::io::stdout(), "{text}") {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => Err((1, format!("writing stdout: {e}"))),
        _ => Ok(()),
    });
    match printed {
        Ok(()) => {}
        Err((0, _)) => eprintln!("{USAGE}"),
        Err((code, error)) => {
            eprintln!("error: {error}\n\n{USAGE}");
            std::process::exit(code);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynspread::graph::generators::Topology;
    use dynspread::runtime::spec::{AdversarySpec, Algorithm, ByzSpec};
    use dynspread::runtime::spec::{FaultSegment, FaultSpec, SessionsSpec};
    use dynspread::runtime::{MisbehaviorKind, RecoveryMode};

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn spec(s: &str) -> ScenarioSpec {
        parse_args(&args(s)).unwrap().0
    }

    fn run_flags(s: &str) -> Result<String, Failure> {
        spread(&args(s))
    }

    /// The names of the event-engine (`async-*`) algorithms, or the others.
    fn names(event_engine: bool) -> impl Iterator<Item = &'static str> {
        let names = Algorithm::ALL.into_iter().map(|(_, name)| name);
        names.filter(move |name| name.starts_with("async-") == event_engine)
    }

    #[test]
    fn defaults_parse() {
        assert_eq!(parse_args(&[]).unwrap(), (ScenarioSpec::default(), None));
    }

    #[test]
    fn flags_override_defaults() {
        let spec = spec("--n 10 --k 5 --s 2 --seed 7 --kt0");
        assert_eq!((spec.n, spec.k, spec.s, spec.seed), (10, 5, 2, 7));
        assert!(spec.kt0);
    }

    #[test]
    fn rejects_bad_flags_and_values() {
        for bad in ["--bogus 1", "--n", "--n zero", "--n 1", "--n 4 --s 9"] {
            assert_eq!(parse_args(&args(bad)).unwrap_err().0, 2, "{bad}");
        }
    }

    /// `--adv` hands its TOPO to the grammar; `spec_fuzz.rs` in the
    /// runtime crate tests the grammar itself.
    #[test]
    fn topology_specs_parse() {
        let gnp = AdversarySpec::Static(Topology::Gnp(0.3));
        assert_eq!(spec("--adv static:gnp:0.3").adversary, gnp);
        let churn = AdversarySpec::Churn(Topology::NearRegular(4), 2, 3);
        assert_eq!(spec("--adv churn:regular:4:2:3").adversary, churn);
    }

    #[test]
    fn adversary_specs_parse() {
        let markov = AdversarySpec::Markov(0.1, 0.2, 2);
        assert_eq!(spec("--adv markov:0.1:0.2:2").adversary, markov);
        let quantum = (1, "unknown adversary 'quantum:1'".to_string());
        assert_eq!(parse_args(&args("--adv quantum:1")), Err(quantum));
    }

    #[test]
    fn end_to_end_small_runs() {
        for alg in names(false) {
            let out = run_flags(&format!("--alg {alg} --n 8 --k 8 --s 4 --seed 5"));
            let out = out.unwrap_or_else(|e| panic!("{alg}: {e:?}"));
            assert!(out.contains("completed"), "{alg} output: {out}");
        }
    }

    #[test]
    fn max_rounds_caps_each_phase_of_the_oblivious_pipeline() {
        let flags = "--alg oblivious --n 16 --k 16 --s 16";
        let out = run_flags(&format!("{flags} --max-rounds 1")).unwrap();
        let phase2 = out.lines().find(|l| l.contains("(phase2)")).expect(&out);
        assert!(phase2.ends_with("DID NOT COMPLETE in 1 rounds"), "{out}");
        // Uncapped, the same run completes — in more than one round.
        let out = run_flags(flags).unwrap();
        let phase2 = out.lines().find(|l| l.contains("(phase2)")).expect(&out);
        assert!(phase2.contains("): completed in "), "{out}");
    }

    #[test]
    fn unknown_algorithm_is_an_error() {
        for alg in ["teleport", "async-teleport"] {
            let unknown = (1, format!("unknown algorithm '{alg}'"));
            assert_eq!(parse_args(&args(&format!("--alg {alg}"))), Err(unknown));
        }
    }

    #[test]
    fn scenario_flags_need_async_algorithms() {
        for flags in [
            "--faults stop:0.2:40",
            "--byz 0.2:drop-acks",
            "--trace-out spread.jsonl",
            "--sessions uniform:4:4:40",
            // Sessions only multiplex the single-source port, without byz.
            "--alg async-multi-source --sessions uniform:4:4:40",
            "--alg async-single-source --sessions uniform:4:4:40 --byz 0.2:drop-acks",
            // Only the unicast round engines charge hellos.
            "--alg rlnc --kt0",
        ] {
            assert_eq!(parse_args(&args(flags)).unwrap_err().0, 2, "{flags}");
        }
        assert!(parse_args(&args("--alg async-single-source --faults stop:0.2:40")).is_ok());
    }

    #[test]
    fn fault_and_byz_specs_parse() {
        let spec = spec(
            "--alg async-single-source --faults recover:0.2:30:120:durable,part:60:400 \
             --byz 0.25:false-claims",
        );
        let recover = FaultSegment::Recover(0.2, 30, 120, RecoveryMode::DurableSnapshot);
        let faults = FaultSpec(vec![recover, FaultSegment::Part(60, 400)]);
        assert_eq!(spec.faults, Some(faults));
        assert_eq!(spec.byz, Some(ByzSpec(0.25, MisbehaviorKind::FalseClaims)));
    }

    /// A malformed value exits 1 with its parser's message, and only after
    /// the flags are known to fit together.
    #[test]
    fn out_of_range_values_are_errors_not_panics() {
        for (flag, err) in [
            (
                "--adv static:gnp:2.0",
                "static:gnp:2.0".parse::<AdversarySpec>().err(),
            ),
            ("--faults stop:2:5", "stop:2:5".parse::<FaultSpec>().err()),
            ("--byz 2:drop-acks", "2:drop-acks".parse::<ByzSpec>().err()),
            (
                "--sessions uniform:0:4:10",
                "uniform:0:4:10".parse::<SessionsSpec>().err(),
            ),
        ] {
            let alg = "--alg async-single-source";
            assert_eq!(
                run_flags(&format!("{alg} --n 8 {flag}")),
                Err((1, err.unwrap()))
            );
            assert_eq!(run_flags(&format!("{alg} --n 1 {flag}")).unwrap_err().0, 2);
        }
    }

    #[test]
    fn empty_session_trace_is_an_error() {
        let path = std::env::temp_dir().join(format!("spread-empty-{}.trace", std::process::id()));
        std::fs::write(&path, "# no sessions yet\n\n").unwrap();
        let out = run_flags(&format!(
            "--alg async-single-source --sessions {}",
            path.display()
        ));
        std::fs::remove_file(&path).unwrap();
        assert!(out.unwrap_err().1.contains("no sessions"));
    }

    #[test]
    fn session_specs_parse() {
        let sessions =
            |s: &str| spec(&format!("--alg async-single-source --sessions {s}")).sessions;
        assert_eq!(
            sessions("uniform:5:4:40"),
            Some(SessionsSpec::Uniform(5, 4, 40))
        );
        let trace = SessionsSpec::Trace("/some/trace.txt".into());
        assert_eq!(sessions("/some/trace.txt"), Some(trace));
    }

    #[test]
    fn async_algorithms_run_end_to_end() {
        for alg in names(true) {
            let out = run_flags(&format!("--alg {alg} --n 8 --k 8 --s 4 --seed 5"));
            let out = out.unwrap_or_else(|e| panic!("{alg}: {e:?}"));
            assert!(out.contains("completed"), "{alg} output: {out}");
        }
    }

    #[test]
    fn composed_axes_run_through_the_cli() {
        let out = run_flags(
            "--alg async-single-source --n 12 --k 6 --seed 7 \
             --faults recover:0.2:50:200,part:80:400 --byz 0.15:false-claims",
        );
        assert!(out.unwrap().contains("honest coverage"));
    }

    #[test]
    fn session_service_runs_through_the_cli() {
        let flags = "--alg async-single-source --n 12 --seed 7 --sessions uniform:4:4:40";
        let out = run_flags(flags).unwrap();
        assert!(out.contains("sessions: 4/4 complete"), "{out}");
        assert!(out.contains("p50 latency"), "{out}");
    }
}
