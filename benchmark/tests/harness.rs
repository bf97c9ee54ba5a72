//! The harness checked against itself: `n = 16` versions of all seven
//! workloads through the same code path the benchmark runs.

use dynspread_benchmark::json::{self, Value};
use dynspread_benchmark::manifest::{self, END_TO_END, PER_LAYER, WORKLOADS};
use dynspread_benchmark::measure::{end_to_end, per_layer};
use dynspread_benchmark::workloads::{workload, Size};
use std::path::PathBuf;
use std::process::Command;

const SEED: u64 = 20_260_930;

fn tiny(name: &str) -> dynspread_benchmark::workloads::Workload {
    workload(name, Size::Tiny).expect("declared workload")
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[test]
fn every_workload_passes_its_checks_and_emits_exactly_the_declared_end_to_end_metrics() {
    for (name, _) in WORKLOADS {
        let r = end_to_end(&tiny(name), SEED, 0.0);
        assert!(r.correct, "{name}: {:?}", r.notes);
        assert_eq!(r.failed, 0);
        assert!(r.attempted >= 3, "{name}: three instances at least");
        let names: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
        let declared: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, declared, "{name}");
        for (metric, value, _) in &r.metrics {
            assert!(well_formed(metric));
            assert!(
                value.is_finite() && *value > 0.0,
                "{name} {metric} = {value}"
            );
        }
        assert_eq!(r.metric("completed_ratio"), Some(1.0));
    }
}

#[test]
fn the_traced_twin_is_invisible_to_the_program_and_its_spans_account_for_their_time() {
    for (name, _) in WORKLOADS {
        let pass = per_layer(&tiny(name), SEED);
        let r = &pass.result;
        // `correct` includes: every cell's traced twin (wrappers, stepped
        // loops, hand-built engines, `run_sessions_with`) digests to the
        // same bytes as the plain run of the same inputs.
        assert!(r.correct, "{name}: {:?}", r.notes);
        assert_eq!(r.metric("bench.digest_mismatches"), Some(0.0));
        let names: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, declared, "{name}");
        for (metric, value, _) in &r.metrics {
            assert!(well_formed(metric));
            assert!(value.is_finite(), "{name} {metric} = {value}");
            if metric.ends_with("_s") {
                assert!(*value >= 0.0, "{name} {metric} = {value}");
            }
        }

        let spans = pass.spans.all();
        assert_eq!(spans[0].name, name);
        assert_eq!(spans[0].parent, None);
        for (i, s) in spans.iter().enumerate() {
            assert!(
                s.end_ns >= s.start_ns,
                "{name}: span {} runs backwards",
                s.name
            );
            if let Some(p) = s.parent {
                assert!(p < i, "{name}: parents come first");
                assert!(
                    s.start_ns >= spans[p].start_ns,
                    "{name}: {} starts before its parent",
                    s.name
                );
                if s.calls == 0 {
                    assert!(
                        s.end_ns <= spans[p].end_ns,
                        "{name}: {} outlives its parent",
                        s.name
                    );
                }
            } else {
                assert_eq!(i, 0, "{name}: one root");
            }
            assert!(
                pass.spans.self_ns(i).is_some(),
                "{name}: children of {} claim more than it lasted",
                s.name
            );
        }
        for stage in ["iteration", "setup", "run", "verify", "replays"] {
            assert!(
                spans.iter().any(|s| s.name == stage),
                "{name}: no {stage} span"
            );
        }
        assert_eq!(json::parse(&pass.json.to_pretty()).unwrap(), pass.json);
    }
}

#[test]
fn layers_show_up_where_the_workload_exercises_them() {
    let passes: Vec<_> = WORKLOADS
        .iter()
        .map(|(name, _)| (*name, per_layer(&tiny(name), SEED).result))
        .collect();
    let metric = |name: &str, m: &str| {
        let (_, result) = passes.iter().find(|(w, _)| *w == name).unwrap();
        result.metric(m).unwrap()
    };
    assert!(metric("flood_dense", "sim.steps") > 0.0);
    assert!(metric("flood_dense", "core.send_calls") > 0.0);
    assert_eq!(metric("flood_dense", "runtime.engine.events"), 0.0);
    assert!(metric("unicast_sparse", "runtime.sync.steps") > 0.0);
    assert!(metric("unicast_sparse", "runtime.link.plan_calls") > 0.0);
    assert!(metric("async_perfect", "runtime.protocol.on_message_calls") > 0.0);
    assert_eq!(metric("async_perfect", "runtime.link.drop_ratio"), 0.0);
    assert!(metric("async_lossy", "runtime.link.drop_ratio") > 0.0);
    assert!(
        metric(
            "oblivious_pipeline",
            "runtime.protocol.oblivious.phase2_events"
        ) > 0.0
    );
    assert!(metric("oblivious_pipeline", "runtime.scenario.run_s") > 0.0);
    assert!(metric("service_mix", "runtime.session.envelopes") > 0.0);
    assert!(metric("service_mix", "runtime.byzantine.transcript_entries") > 0.0);
    assert!(metric("service_mix", "runtime.trace.records") > 0.0);
    assert!(metric("service_mix", "analysis.mb_per_s") > 0.0);
    assert_eq!(metric("service_mix", "sim.steps"), 0.0);
}

#[test]
fn simulated_metrics_and_digests_are_a_function_of_the_seed() {
    for (name, _) in WORKLOADS {
        let w = tiny(name);
        let (a, b, c) = (
            end_to_end(&w, SEED, 0.0),
            end_to_end(&w, SEED, 0.0),
            end_to_end(&w, SEED + 1, 0.0),
        );
        assert_eq!(a.digests, b.digests, "{name}");
        assert_ne!(
            a.digests, c.digests,
            "{name}: the seed must reach the inputs"
        );
        for m in END_TO_END.iter().filter(|m| m.exact) {
            assert_eq!(a.metric(m.name), b.metric(m.name), "{name} {}", m.name);
        }
    }
}

#[test]
fn benchmark_json_declares_exactly_what_the_harness_emits() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    let on_disk = json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        on_disk,
        manifest::benchmark_json(),
        "regenerate with `benchmark/run.sh --manifest > BENCHMARK.json`"
    );
}

fn run_binary(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dynspread-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn contract_mode_prints_one_result_object_last() {
    let dir = std::env::temp_dir().join(format!("dynspread-bench-contract-{}", std::process::id()));
    for (trace, declared) in [
        ("0", END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()),
        ("1", PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()),
    ] {
        let (ok, stdout) = run_binary(&[
            "--tiny",
            "--out",
            dir.to_str().unwrap(),
            "--workload",
            "async_lossy",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
        ]);
        assert!(ok, "{stdout}");
        let v = json::parse(stdout.lines().last().unwrap()).expect("last line is JSON");
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert!(v.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
        let emitted: Vec<&str> = v
            .get("metrics")
            .and_then(Value::as_obj)
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(emitted, declared);
    }
    let (ok, stdout) = run_binary(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]);
    assert!(
        !ok && stdout.is_empty(),
        "an unknown workload prints no result"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn the_suite_writes_a_results_file_that_parses() {
    let dir = std::env::temp_dir().join(format!("dynspread-bench-suite-{}", std::process::id()));
    let (ok, stdout) = run_binary(&[
        "--tiny",
        "--out",
        dir.to_str().unwrap(),
        "--seed",
        "5",
        "--seconds",
        "1",
    ]);
    assert!(ok, "{stdout}");
    let text = std::fs::read_to_string(dir.join("results.json")).expect("results.json written");
    let v = json::parse(&text).expect("results.json parses");
    let workloads = v.get("workloads").and_then(Value::as_obj).unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (name, w) in workloads {
        let e2e = w.get("end_to_end").and_then(Value::as_arr).unwrap();
        assert_eq!(e2e.len(), 1, "{name}: one set without --repeat");
        assert_eq!(e2e[0].get("correct"), Some(&Value::Bool(true)), "{name}");
        assert!(
            w.get("per_layer").and_then(|p| p.get("metrics")).is_some(),
            "{name}"
        );
        assert!(
            dir.join(format!("trace-{name}.json")).exists(),
            "{name}: spans written"
        );
    }
    assert_eq!(
        v.get("problems")
            .and_then(Value::as_arr)
            .map(<[Value]>::len),
        Some(0)
    );
    // Every metric line reads `workload metric value unit`.
    for line in stdout.lines().filter(|l| !l.starts_with('#')) {
        let fields: Vec<&str> = line.split(' ').collect();
        assert_eq!(fields.len(), 4, "{line}");
        assert!(
            well_formed(fields[1]) && fields[2].parse::<f64>().is_ok(),
            "{line}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
