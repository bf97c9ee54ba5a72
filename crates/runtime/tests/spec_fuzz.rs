//! The scenario grammar under fire: every [`FromStr`] of
//! `dynspread_runtime::spec` and [`ScenarioSpec::check`] are fed seeded
//! random strings over the grammar's own alphabet — separators, digits,
//! `nan`, `inf` and every keyword — so that most inputs get past the first
//! split and reach the value parsers and the cross-piece rules.
//!
//! The contract is the one a command line owes its user: every input
//! yields `Ok` or `Err`, never a panic (the vendored proptest turns a
//! panic into a failed case). The hand-written cases below pin the
//! messages and the boundaries the random ones cannot name. Past the
//! grammar, `check`'s own contract: a spec that passes it runs, and runs
//! the same twice.

use std::str::FromStr;

use dynspread_graph::generators::Topology;
use dynspread_runtime::spec::{
    parse_topology, AdversarySpec, Algorithm, ByzSpec, CheckError, FaultSegment, FaultSpec,
    ScenarioSpec, SessionsSpec,
};
use dynspread_runtime::{JsonlTracer, MisbehaviorKind, RecoveryMode};
use proptest::prelude::*;
use SessionsSpec::Uniform;

/// Words of the grammar: keywords, algorithm and misbehavior names, and
/// numbers at and past every boundary the parsers check.
const WORDS: &[&str] = &[
    "static",
    "rewire",
    "markov",
    "churn",
    "path",
    "cycle",
    "star",
    "complete",
    "tree",
    "gnp",
    "sparse",
    "regular",
    "stop",
    "recover",
    "part",
    "amnesia",
    "durable",
    "uniform",
    "single-source",
    "multi-source",
    "async-oblivious",
    "false-claims",
    "drop-acks",
    "0",
    "1",
    "2",
    "3",
    "0.5",
    "1.5",
    "-1",
    "nan",
    "inf",
    "-inf",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "",
];

/// What goes between two words.
const SEPARATORS: &[&str] = &[":", ":", ":", ",", ".", "-", "", "e"];

/// A random sentence: words joined by separators.
fn sentence() -> impl Strategy<Value = String> {
    sentence_of(SEPARATORS, 0..9)
}

/// A sentence of `words` words, each followed by one of `separators`.
fn sentence_of(
    separators: &'static [&'static str],
    words: std::ops::Range<usize>,
) -> impl Strategy<Value = String> {
    let pair = (0..WORDS.len(), 0..separators.len());
    prop::collection::vec(pair, words).prop_map(move |pairs| {
        let parts = pairs
            .iter()
            .map(|&(w, s)| format!("{}{}", WORDS[w], separators[s]));
        parts.collect::<String>().trim_end_matches(':').to_string()
    })
}

/// `check()` of `spec` at n ∈ {2, 3, 8}, with a source count that fits.
fn check_everywhere(spec: &ScenarioSpec) {
    for n in [2, 3, 8] {
        let _ = ScenarioSpec {
            n,
            s: 1,
            ..spec.clone()
        }
        .check();
    }
}

/// Parses `text` as every piece; each piece that parses is checked in an
/// otherwise default spec whose algorithm can carry it.
fn parse_everything(text: &str) {
    let _ = parse_topology(text);
    if let Ok(algorithm) = text.parse::<Algorithm>() {
        check_everywhere(&ScenarioSpec {
            algorithm,
            ..ScenarioSpec::default()
        });
    }
    let event = ScenarioSpec {
        algorithm: Algorithm::AsyncSingleSource,
        ..ScenarioSpec::default()
    };
    if let Ok(adversary) = text.parse::<AdversarySpec>() {
        check_everywhere(&ScenarioSpec {
            adversary,
            ..event.clone()
        });
    }
    if let Ok(faults) = text.parse::<FaultSpec>() {
        check_everywhere(&ScenarioSpec {
            faults: Some(faults),
            ..event.clone()
        });
    }
    if let Ok(byz) = text.parse::<ByzSpec>() {
        check_everywhere(&ScenarioSpec {
            byz: Some(byz),
            ..event.clone()
        });
    }
    if let Ok(sessions) = text.parse::<SessionsSpec>() {
        check_everywhere(&ScenarioSpec {
            sessions: Some(sessions),
            ..event
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5_000))]

    /// Sentences over the grammar's alphabet parse to `Ok` or `Err`, and a
    /// parsed piece checks to `Ok` or `Err`, never a panic.
    #[test]
    fn grammar_sentences_never_panic(text in sentence()) {
        parse_everything(&text);
    }

    /// The same behind each piece's keyword, so that the value parsers
    /// see every sentence.
    #[test]
    fn keyword_prefixed_sentences_never_panic(keyword in 0usize..18, text in sentence()) {
        parse_everything(&format!("{}:{text}", WORDS[keyword]));
    }

    /// Arbitrary bytes, as far as they are UTF-8.
    #[test]
    fn arbitrary_strings_never_panic(bytes in prop::collection::vec(0u8..=255, 0..24)) {
        parse_everything(&String::from_utf8_lossy(&bytes));
    }
}

/// The first of 1024 sentences of one to four words behind one of
/// `keywords` that parses as a `T`. Words are joined by ':' alone, so that
/// most sentences reach the value parsers.
fn piece<T: FromStr>(keywords: &'static [&'static str]) -> impl Strategy<Value = Option<T>> {
    let sentences = prop::collection::vec(sentence_of(&[":"], 1..5), 1024..1025);
    (0..keywords.len(), sentences).prop_map(move |(k, sentences)| {
        let mut texts = sentences.iter().map(|t| format!("{}:{t}", keywords[k]));
        texts.find_map(|text| text.parse().ok())
    })
}

/// A small spec of any algorithm whose adversary, faults and Byzantine
/// nodes come from the sentences above. Only the `async-*` algorithms get
/// faults or Byzantine nodes, and only `async-single-source` sessions
/// (then without Byzantine nodes), so that most specs pass `check`.
fn small_spec() -> impl Strategy<Value = ScenarioSpec> {
    let adversary = piece(&["static", "rewire", "markov", "churn"]);
    let faults = piece(&["stop", "recover", "part"]);
    let byz = piece::<ByzSpec>(&["0", "0.5", "1"]);
    let sessions = (1usize..4, 1usize..5, 1u64..30).prop_map(|(m, k, gap)| Uniform(m, k, gap));
    let sizes = (0..Algorithm::ALL.len(), 2usize..=8, 1usize..=8, 1usize..=8);
    let rest = (0usize..4, 0u64..u64::MAX, 0u8..4, 0u8..8);
    (sizes, rest, adversary, (faults, byz, sessions)).prop_map(
        |((alg, n, k, s), (cap, seed, kt0, axes), adversary, (faults, byz, sessions))| {
            let (algorithm, _) = Algorithm::ALL[alg];
            // Bits: 1 faults, 2 Byzantine nodes, 4 sessions.
            let axes = match algorithm {
                Algorithm::AsyncSingleSource if axes & 4 == 4 => axes & 5,
                _ if algorithm.axis("").is_ok() => axes & 3,
                _ => 0,
            };
            ScenarioSpec {
                algorithm,
                adversary: adversary.unwrap_or(ScenarioSpec::default().adversary),
                n,
                k,
                s: 1 + (s - 1) % n,
                seed,
                max_rounds: [0, 1, 50, 2000][cap],
                kt0: kt0 == 0,
                faults: faults.filter(|_| axes & 1 == 1),
                byz: byz.filter(|_| axes & 2 == 2),
                sessions: Some(sessions).filter(|_| axes & 4 == 4),
            }
        },
    )
}

/// Runs `spec` with a tracer, naming the spec if the run panics.
fn run_traced(spec: &ScenarioSpec) -> (Result<String, String>, String) {
    let tracer = JsonlTracer::new();
    let run = std::panic::catch_unwind(|| spec.run(Some(tracer.clone())));
    let text = run.unwrap_or_else(|_| panic!("ScenarioSpec::run panicked on {spec:?}"));
    (text, tracer.take_jsonl())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Every spec that passes `check` runs without panicking, and a second
    /// run returns the same text and writes the same trace.
    #[test]
    fn checked_specs_run_the_same_twice(spec in small_spec()) {
        if spec.check().is_ok() {
            let first = run_traced(&spec);
            assert_eq!(first, run_traced(&spec), "{spec:?}");
        }
    }
}

/// An adversary parsed and checked on `n` nodes.
fn adversary_at(text: &str, n: usize) -> Result<AdversarySpec, String> {
    let adversary: AdversarySpec = text.parse()?;
    let spec = ScenarioSpec {
        adversary,
        n,
        s: 1,
        ..ScenarioSpec::default()
    };
    match spec.check() {
        Err(CheckError::Adversary(e) | CheckError::Flags(e)) => Err(e),
        Ok(()) => Ok(adversary),
    }
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
    for ok in [
        "static:complete",
        "rewire:tree:3",
        "rewire:gnp:0.3:3",
        "markov:0.1:0.2:2",
        "churn:sparse:2.0:2:3",
    ] {
        assert!(adversary_at(ok, 6).is_ok(), "{ok}");
    }
    assert_eq!(
        adversary_at("rewire:gnp:0.3:3", 6),
        Ok(AdversarySpec::Rewire(Topology::Gnp(0.3), 3))
    );
    assert_eq!(
        adversary_at("quantum:1", 6),
        Err("unknown adversary 'quantum:1'".into())
    );
    assert_eq!(
        adversary_at("rewire:tree", 6),
        Err("rewire needs TOPO:PERIOD".into())
    );
}

#[test]
fn fault_and_byz_specs_parse() {
    for ok in [
        "stop:0.2:40",
        "recover:0.2:30:120",
        "recover:0.2:30:120:durable,part:60:400",
        "part:60:400",
    ] {
        assert!(ok.parse::<FaultSpec>().is_ok(), "{ok}");
    }
    assert_eq!(
        "recover:0.2:30:120:durable,part:60:400".parse(),
        Ok(FaultSpec(vec![
            FaultSegment::Recover(0.2, 30, 120, RecoveryMode::DurableSnapshot),
            FaultSegment::Part(60, 400),
        ]))
    );
    for (bad, err) in [
        (
            "stop:0.2:40,recover:0.1:1:2",
            "at most one crash segment, before any part",
        ),
        (
            "part:1:2,stop:0.2:40",
            "at most one crash segment, before any part",
        ),
        ("melt:0.2", "unknown fault segment 'melt:0.2'"),
    ] {
        assert_eq!(bad.parse::<FaultSpec>(), Err(err.into()), "{bad}");
    }
    assert_eq!(
        "0.25:false-claims".parse(),
        Ok(ByzSpec(0.25, MisbehaviorKind::FalseClaims))
    );
    assert_eq!(
        "0.25:mind-control".parse::<ByzSpec>(),
        Err("unknown misbehavior kind 'mind-control'".into())
    );
    assert_eq!(
        "drop-acks".parse::<ByzSpec>(),
        Err("byz needs FRAC:KIND".into())
    );
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
        assert!(adversary_at(adv, 8).is_err(), "{adv} must be rejected");
    }
    assert!(adversary_at("churn:sparse:2.0:28:3", 8).is_ok());
    assert_eq!(
        adversary_at("static:regular:3", 2),
        Err("regular:D needs --n of at least 3".into())
    );
    assert!(adversary_at("static:regular:3", 3).is_ok());
    assert_eq!(
        adversary_at("rewire:cycle:2", 2),
        Err("cycle needs --n of at least 3".into())
    );
    assert!(adversary_at("static:cycle", 3).is_ok());
    for byz in ["2:drop-acks", "-0.1:drop-acks", "nan:drop-acks"] {
        assert!(byz.parse::<ByzSpec>().is_err(), "{byz}");
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
        assert!(faults.parse::<FaultSpec>().is_err(), "{faults}");
    }
    for sessions in ["uniform:0:4:10", "uniform:3:0:10", "uniform:3:4:0"] {
        assert!(sessions.parse::<SessionsSpec>().is_err(), "{sessions}");
    }
    assert_eq!(
        "uniform:2:4294967296:5".parse::<SessionsSpec>(),
        Err("session k must be at most 4294967295".into())
    );
    assert_eq!(
        "uniform:4294967296:2:5".parse::<SessionsSpec>(),
        Err("sessions must be at most 4294967295".into())
    );
}

#[test]
fn session_specs_parse() {
    let uniform: SessionsSpec = "uniform:5:4:40".parse().unwrap();
    assert_eq!(uniform.build(8, 3).unwrap().len(), 5);
    assert!("uniform:5:4".parse::<SessionsSpec>().is_err());
    let missing: SessionsSpec = "/nonexistent/trace.txt".parse().unwrap();
    assert_eq!(
        missing,
        SessionsSpec::Trace("/nonexistent/trace.txt".into())
    );
    assert!(missing.build(8, 3).is_err());
}

/// Names are written once: each algorithm and misbehavior kind parses from
/// its own name.
#[test]
fn names_round_trip() {
    for (algorithm, name) in Algorithm::ALL {
        assert_eq!(Algorithm::from_str(name), Ok(algorithm));
    }
    for kind in MisbehaviorKind::ALL {
        let byz = format!("0.5:{}", kind.label()).parse();
        assert_eq!(byz, Ok(ByzSpec(0.5, kind)));
    }
}

/// The rules that tie pieces together, in the order `check` reports them.
#[test]
fn check_reports_the_first_broken_rule() {
    let flags = |spec: ScenarioSpec| match spec.check() {
        Err(CheckError::Flags(e)) => e,
        other => panic!("{other:?}"),
    };
    let default = ScenarioSpec::default;
    let event = || ScenarioSpec {
        algorithm: Algorithm::AsyncSingleSource,
        ..default()
    };
    assert_eq!(default().check(), Ok(()));
    assert_eq!(
        flags(ScenarioSpec { n: 1, ..default() }),
        "--n must be at least 2"
    );
    let huge = u32::MAX as usize + 1;
    assert_eq!(
        flags(ScenarioSpec {
            n: huge,
            ..default()
        }),
        "--n must be at most 4294967295"
    );
    assert_eq!(
        flags(ScenarioSpec {
            k: huge,
            ..default()
        }),
        "--k must be at most 4294967295"
    );
    assert_eq!(
        flags(ScenarioSpec { s: 33, ..default() }),
        "--s must be in 1..=n"
    );
    let byz = Some(ByzSpec(0.1, MisbehaviorKind::DropAcks));
    assert!(flags(ScenarioSpec { byz, ..default() }).starts_with("--byz needs an async-*"));
    let sessions = Some(SessionsSpec::Uniform(4, 4, 40));
    let multi = Algorithm::AsyncMultiSource;
    let spec = ScenarioSpec {
        algorithm: multi,
        sessions: sessions.clone(),
        ..default()
    };
    assert_eq!(
        flags(spec),
        "--sessions runs the async-single-source session mux"
    );
    let spec = ScenarioSpec {
        sessions,
        byz,
        ..event()
    };
    assert_eq!(flags(spec), "--byz does not compose with --sessions yet");
    for (algorithm, name) in Algorithm::ALL {
        let kt0 = ScenarioSpec {
            algorithm,
            kt0: true,
            ..default()
        }
        .check();
        let unicast = ["single-source", "multi-source", "unicast-flood"].contains(&name);
        assert_eq!(kt0.is_ok(), unicast, "--kt0 with {name}");
    }
}
