//! Perf-regression checking for the committed bench baselines.
//!
//! The perf artifacts (`BENCH_runtime.json` from `exp_scale`,
//! `BENCH_core.json` from `bench_core`) were, until PR 5, write-only:
//! CI regenerated them but compared them against nothing, so a scheduler
//! or data-plane regression could land silently. This module is the read
//! side: a dependency-free JSON parser (the workspace is offline — no
//! serde) plus the delta computation the `bench_check` binary uses to
//! gate CI, comparing a freshly measured run against the committed
//! baseline with a generous tolerance that absorbs runner noise.
//!
//! What is compared:
//!
//! * **grid artifacts** — `exp_scale`, `exp_byzantine`, `exp_faults` and
//!   `exp_sessions` all write `{…, "cells": [ … ]}`; [`cell_deltas`]
//!   matches fresh cells to baseline cells on the key fields of the
//!   family's [`CellSpec`] ([`RUNTIME`], [`BYZANTINE`], [`FAULTS`],
//!   [`SESSIONS`]) and compares the spec's metrics. A fresh smoke run
//!   covers a subset of the committed full grid; extra baseline cells
//!   are ignored, but a family with no matching cell at all is an error;
//! * **core microbenches** — the delta-data-plane costs
//!   (`advance_connectivity*` per-round nanoseconds) and the end-to-end
//!   `flooding`/`single_source` per-round costs. Baseline-vs-delta
//!   *speedups* are deliberately not gated: both sides move with the
//!   runner, so the ratio is noisier than the absolute delta cost.

use std::fmt;

/// A parsed JSON value (just enough for the bench artifacts).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, kept as `f64` (the artifacts' numbers all fit).
    Num(f64),
    /// A string (common escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset on malformed input or
    /// trailing garbage.
    pub fn parse(src: &str) -> Result<Json, String> {
        let bytes = src.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(&b) = bytes.get(*pos) {
        if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn expect_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}", pos = *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => expect_literal(bytes, pos, "null", Json::Null),
        Some(b't') => expect_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => expect_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}", pos = *pos));
                }
                *pos += 1;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
                }
            }
        }
        Some(_) => parse_number(bytes, pos).map(Json::Num),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}", pos = *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = bytes.get(*pos).ok_or("unterminated escape")?;
                out.push(match esc {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    other => return Err(format!("unsupported escape \\{}", *other as char)),
                });
                *pos += 1;
            }
            Some(&b) => {
                // Multi-byte UTF-8 passes through byte by byte; the input
                // is a &str, so the bytes are valid UTF-8.
                let start = *pos;
                let mut end = *pos + 1;
                while end < bytes.len() && bytes[end] & 0xC0 == 0x80 {
                    end += 1;
                }
                out.push_str(std::str::from_utf8(&bytes[start..end]).expect("valid UTF-8"));
                *pos = end;
                let _ = b;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    while let Some(&b) = bytes.get(*pos) {
        if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        } else {
            break;
        }
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

/// One compared metric: a baseline value and its fresh measurement.
#[derive(Clone, Debug)]
pub struct Delta {
    /// Human-readable metric key, e.g. `flooding/1024 ns_per_round`.
    pub key: String,
    /// The committed baseline value.
    pub baseline: f64,
    /// The freshly measured value.
    pub fresh: f64,
}

impl Delta {
    /// Relative change: `(fresh − baseline) / baseline`.
    pub fn relative(&self) -> f64 {
        if self.baseline > 0.0 {
            (self.fresh - self.baseline) / self.baseline
        } else {
            0.0
        }
    }

    /// Whether the fresh value regressed beyond the tolerance (e.g.
    /// `0.30` = 30% slower than the baseline).
    pub fn regressed(&self, tolerance: f64) -> bool {
        self.baseline > 0.0 && self.fresh > self.baseline * (1.0 + tolerance)
    }
}

impl fmt::Display for Delta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<44} {:>12.0} {:>12.0} {:>+8.1}%",
            self.key,
            self.baseline,
            self.fresh,
            self.relative() * 100.0
        )
    }
}

/// How one family of grid artifacts is compared: which fields identify a
/// cell, how its metric keys are labelled, and which metrics sit behind
/// the wall floor.
#[derive(Debug)]
pub struct CellSpec {
    /// The family's name in error messages (`bench_check`'s flag without
    /// the dashes).
    pub family: &'static str,
    /// Text that opens every metric key of the family.
    pub prefix: &'static str,
    /// The fields a cell is matched on, in label order, each with the
    /// text that follows its value in the label. Strings match as they
    /// are, numbers as integers.
    pub key: &'static [(&'static str, &'static str)],
    /// Metrics compared on every matched cell. These are *virtual* —
    /// pure functions of the seeds, identical on every replay of
    /// unchanged code — so any drift is a behavioral change, not runner
    /// noise.
    pub floor_free: &'static [&'static str],
    /// Wall-clock metrics, compared only when the *baseline* cell's
    /// `wall_ms` is at least the floor (or absent): a single sub-50 ms
    /// run jitters far past any reasonable tolerance on a shared CI
    /// runner, so tiny cells would make the gate cry wolf.
    pub floored: &'static [&'static str],
}

/// `BENCH_runtime.json` (`exp_scale`): cells match on `(protocol, n)` —
/// a fresh `--smoke` run has only the `n = 1024` column of the committed
/// full grid.
pub const RUNTIME: CellSpec = CellSpec {
    family: "runtime",
    prefix: "",
    key: &[("protocol", "/"), ("n", "")],
    floor_free: &[],
    floored: &["ns_per_round", "ns_per_event"],
};

/// `BENCH_byzantine.json` (`exp_byzantine`): cells match on
/// `(protocol, fraction_pct, kind)`. Most of the `n = 24` grid sits
/// under the wall floor and stays ungated.
pub const BYZANTINE: CellSpec = CellSpec {
    family: "byzantine",
    prefix: "byz ",
    key: &[("protocol", "/"), ("fraction_pct", "%/"), ("kind", "")],
    floor_free: &[],
    floored: &["wall_ms"],
};

/// `BENCH_faults.json` (`exp_faults`): cells match on
/// `(protocol, crash_pct, episodes)`. The recovery delay is not part of
/// the key: the swept grid never reuses a `(crash %, episodes)` pair
/// with two delays, so the shorter key keeps a delay re-tune from
/// orphaning every baseline cell.
pub const FAULTS: CellSpec = CellSpec {
    family: "faults",
    prefix: "faults ",
    key: &[("protocol", "/"), ("crash_pct", "%/"), ("episodes", "ep")],
    floor_free: &[],
    floored: &["wall_ms"],
};

/// `BENCH_sessions.json` (`exp_sessions`): cells match on
/// `(sessions, k, spacing)`. Most of what the session grid measures is
/// virtual — per-session latency percentiles and the aggregate envelope
/// load — so those are gated with no floor; on a healthy PR they are
/// exactly 0%.
pub const SESSIONS: CellSpec = CellSpec {
    family: "sessions",
    prefix: "sessions ",
    key: &[("sessions", "x"), ("k", "/"), ("spacing", "")],
    floor_free: &["p95_latency", "messages"],
    floored: &["wall_ms"],
};

/// Pairs up the `cells` of two artifacts of one family by the spec's key
/// and returns, for every fresh cell that has a baseline cell, the
/// deltas of the spec's metrics present on both sides: the floor-free
/// ones, then — unless the baseline cell's `wall_ms` is under
/// `min_wall_ms` (pass `0.0` to gate everything) — the floored ones.
/// Baseline cells the fresh run lacks, and fresh cells the baseline
/// lacks, are ignored.
///
/// # Errors
///
/// Fails when *no* fresh cell has a baseline cell: a renamed key field
/// or a re-tuned grid has orphaned the whole family, and skipping it
/// would leave the gate green while comparing nothing.
pub fn cell_deltas(
    spec: &CellSpec,
    baseline: &Json,
    fresh: &Json,
    min_wall_ms: f64,
) -> Result<Vec<Delta>, String> {
    let base_cells = keyed_cells(spec, baseline);
    let mut matched = 0usize;
    let mut deltas = Vec::new();
    for (key, fc) in keyed_cells(spec, fresh) {
        let Some((_, bc)) = base_cells.iter().find(|(bk, _)| *bk == key) else {
            continue;
        };
        matched += 1;
        let label: String = spec
            .key
            .iter()
            .zip(&key)
            .map(|((_, after), value)| format!("{value}{after}"))
            .collect();
        let base_wall = bc.get("wall_ms").and_then(Json::as_f64).unwrap_or(f64::MAX);
        let floored: &[&str] = if base_wall < min_wall_ms {
            &[] // too small to measure reliably in one run
        } else {
            spec.floored
        };
        for metric in spec.floor_free.iter().chain(floored) {
            if let (Some(b), Some(f)) = (
                bc.get(metric).and_then(Json::as_f64),
                fc.get(metric).and_then(Json::as_f64),
            ) {
                deltas.push(Delta {
                    key: format!("{}{label} {metric}", spec.prefix),
                    baseline: b,
                    fresh: f,
                });
            }
        }
    }
    if matched == 0 {
        return Err(format!(
            "family {}: 0 comparable cells — no fresh cell matches a baseline cell on ({})",
            spec.family,
            spec.key
                .iter()
                .map(|(field, _)| *field)
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    Ok(deltas)
}

/// The artifact's cells with their keys under `spec`, each key field
/// rendered as it appears in metric labels; cells with a key field
/// missing, or neither string nor number, are left out.
fn keyed_cells<'a>(spec: &CellSpec, doc: &'a Json) -> Vec<(Vec<String>, &'a Json)> {
    let cells = doc.get("cells").and_then(Json::as_array).unwrap_or(&[]);
    cells
        .iter()
        .filter_map(|cell| {
            let key = spec
                .key
                .iter()
                .map(|(field, _)| match cell.get(field)? {
                    Json::Str(s) => Some(s.clone()),
                    Json::Num(x) => Some((*x as u64).to_string()),
                    _ => None,
                })
                .collect::<Option<Vec<String>>>()?;
            Some((key, cell))
        })
        .collect()
}

/// The `BENCH_core.json` metrics the gate compares: the live data plane's
/// absolute per-round costs (speedup ratios are deliberately ungated).
pub fn core_deltas(baseline: &Json, fresh: &Json) -> Vec<Delta> {
    let paths: [&[&str]; 4] = [
        &["advance_connectivity_delta_ns_per_round"],
        &["advance_connectivity_4096", "delta_ns_per_round"],
        &["flooding", "ns_per_round"],
        &["single_source", "ns_per_round"],
    ];
    let lookup = |doc: &Json, path: &[&str]| -> Option<f64> {
        let mut cur = doc;
        for key in path {
            cur = cur.get(key)?;
        }
        cur.as_f64()
    };
    let mut deltas = Vec::new();
    for path in paths {
        if let (Some(b), Some(f)) = (lookup(baseline, path), lookup(fresh, path)) {
            deltas.push(Delta {
                key: format!("core {}", path.join(".")),
                baseline: b,
                fresh: f,
            });
        }
    }
    deltas
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_bench_runtime_shape() {
        let doc = Json::parse(
            r#"{
  "k": 4,
  "smoke": false,
  "cells": [
    {"protocol": "flooding", "n": 1024, "completed": true, "ns_per_round": 66942, "ns_per_event": 66},
    {"protocol": "flooding", "n": 2048, "ns_per_round": 163346.5, "ns_per_event": 80}
  ]
}"#,
        )
        .expect("parses");
        assert_eq!(doc.get("k").and_then(Json::as_f64), Some(4.0));
        assert_eq!(doc.get("smoke"), Some(&Json::Bool(false)));
        let cells = doc.get("cells").and_then(Json::as_array).expect("array");
        assert_eq!(cells.len(), 2);
        assert_eq!(
            cells[0].get("protocol").and_then(Json::as_str),
            Some("flooding")
        );
        assert_eq!(
            cells[1].get("ns_per_round").and_then(Json::as_f64),
            Some(163346.5)
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
    }

    #[test]
    fn parses_escapes_and_negatives() {
        let doc = Json::parse(r#"{"s": "a\n\"b\"", "x": -2.5e2, "y": null}"#).expect("parses");
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("a\n\"b\""));
        assert_eq!(doc.get("x").and_then(Json::as_f64), Some(-250.0));
        assert_eq!(doc.get("y"), Some(&Json::Null));
    }

    fn grid(cells: &[(&str, u64, f64, f64)]) -> Json {
        Json::Obj(vec![(
            "cells".into(),
            Json::Arr(
                cells
                    .iter()
                    .map(|&(p, n, round, event)| {
                        Json::Obj(vec![
                            ("protocol".into(), Json::Str(p.into())),
                            ("n".into(), Json::Num(n as f64)),
                            ("ns_per_round".into(), Json::Num(round)),
                            ("ns_per_event".into(), Json::Num(event)),
                        ])
                    })
                    .collect(),
            ),
        )])
    }

    #[test]
    fn runtime_deltas_match_on_protocol_and_n() {
        // Baseline: full grid. Fresh: smoke (1024 only) + a new protocol
        // absent from the baseline (ignored).
        let baseline = grid(&[
            ("flooding", 1024, 100.0, 10.0),
            ("flooding", 2048, 200.0, 20.0),
            ("single-source", 1024, 50.0, 5.0),
        ]);
        let fresh = grid(&[
            ("flooding", 1024, 120.0, 9.0),
            ("brand-new", 1024, 1.0, 1.0),
        ]);
        let deltas = cell_deltas(&RUNTIME, &baseline, &fresh, 0.0).unwrap();
        assert_eq!(deltas.len(), 2, "one matched cell, two metrics");
        assert_eq!(deltas[0].key, "flooding/1024 ns_per_round");
        assert!(deltas[0].regressed(0.15), "+20% beats a 15% tolerance");
        assert!(!deltas[0].regressed(0.30), "+20% is inside a 30% tolerance");
        assert!(!deltas[1].regressed(0.0), "ns_per_event improved");
    }

    #[test]
    fn runtime_deltas_skip_cells_below_the_wall_floor() {
        let cell = |p: &str, wall_ms: f64| {
            Json::Obj(vec![
                ("protocol".into(), Json::Str(p.into())),
                ("n".into(), Json::Num(1024.0)),
                ("wall_ms".into(), Json::Num(wall_ms)),
                ("ns_per_round".into(), Json::Num(100.0)),
                ("ns_per_event".into(), Json::Num(10.0)),
            ])
        };
        let doc = |cells: Vec<Json>| Json::Obj(vec![("cells".into(), Json::Arr(cells))]);
        let baseline = doc(vec![cell("tiny", 12.0), cell("big", 500.0)]);
        let fresh = doc(vec![cell("tiny", 9.0), cell("big", 480.0)]);
        // Floor 40 ms: the 12 ms baseline cell is too jittery to gate.
        let deltas = cell_deltas(&RUNTIME, &baseline, &fresh, 40.0).unwrap();
        assert_eq!(deltas.len(), 2);
        assert!(deltas.iter().all(|d| d.key.starts_with("big/")));
        // Floor 0: everything is gated; missing wall_ms means "gate it".
        assert_eq!(
            cell_deltas(&RUNTIME, &baseline, &fresh, 0.0).unwrap().len(),
            4
        );
    }

    #[test]
    fn core_deltas_follow_nested_paths_and_tolerate_missing() {
        let baseline = Json::parse(
            r#"{"advance_connectivity_delta_ns_per_round": 8000,
                "advance_connectivity_4096": {"delta_ns_per_round": 90000},
                "flooding": {"ns_per_round": 1500}}"#,
        )
        .unwrap();
        let fresh = Json::parse(
            r#"{"advance_connectivity_delta_ns_per_round": 9000,
                "advance_connectivity_4096": {"delta_ns_per_round": 80000},
                "flooding": {"ns_per_round": 1500},
                "single_source": {"ns_per_round": 6000}}"#,
        )
        .unwrap();
        let deltas = core_deltas(&baseline, &fresh);
        // single_source is missing from the baseline → 3 comparable keys.
        assert_eq!(deltas.len(), 3);
        assert!((deltas[0].relative() - 0.125).abs() < 1e-9);
        assert!(deltas[0].regressed(0.10));
        assert!(
            !deltas[1].regressed(0.10),
            "improvement is never a regression"
        );
    }

    #[test]
    fn byzantine_deltas_match_on_protocol_fraction_and_kind() {
        let cell = |p: &str, pct: f64, kind: &str, wall: f64| {
            Json::Obj(vec![
                ("protocol".into(), Json::Str(p.into())),
                ("fraction_pct".into(), Json::Num(pct)),
                ("kind".into(), Json::Str(kind.into())),
                ("wall_ms".into(), Json::Num(wall)),
            ])
        };
        let doc = |cells: Vec<Json>| Json::Obj(vec![("cells".into(), Json::Arr(cells))]);
        let baseline = doc(vec![
            cell("async-oblivious", 15.0, "drop-acks", 80.0),
            cell("async-oblivious", 15.0, "seq-replay", 8.0),
        ]);
        let fresh = doc(vec![
            cell("async-oblivious", 15.0, "drop-acks", 100.0),
            cell("async-oblivious", 15.0, "seq-replay", 9.0),
            cell("async-oblivious", 30.0, "drop-acks", 50.0), // no baseline
        ]);
        let deltas = cell_deltas(&BYZANTINE, &baseline, &fresh, 40.0).unwrap();
        assert_eq!(deltas.len(), 1, "sub-floor and unmatched cells skipped");
        assert_eq!(deltas[0].key, "byz async-oblivious/15%/drop-acks wall_ms");
        assert!(deltas[0].regressed(0.20), "+25% beats a 20% tolerance");
        assert_eq!(
            cell_deltas(&BYZANTINE, &baseline, &fresh, 0.0)
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn faults_deltas_match_on_protocol_crash_pct_and_episodes() {
        let cell = |p: &str, pct: f64, eps: f64, wall: f64| {
            Json::Obj(vec![
                ("protocol".into(), Json::Str(p.into())),
                ("crash_pct".into(), Json::Num(pct)),
                ("episodes".into(), Json::Num(eps)),
                ("wall_ms".into(), Json::Num(wall)),
            ])
        };
        let doc = |cells: Vec<Json>| Json::Obj(vec![("cells".into(), Json::Arr(cells))]);
        let baseline = doc(vec![
            cell("async-oblivious", 20.0, 1.0, 90.0),
            cell("async-single-source", 20.0, 1.0, 6.0),
        ]);
        let fresh = doc(vec![
            cell("async-oblivious", 20.0, 1.0, 120.0),
            cell("async-single-source", 20.0, 1.0, 7.0),
            cell("async-oblivious", 10.0, 0.0, 70.0), // no baseline
        ]);
        let deltas = cell_deltas(&FAULTS, &baseline, &fresh, 40.0).unwrap();
        assert_eq!(deltas.len(), 1, "sub-floor and unmatched cells skipped");
        assert_eq!(deltas[0].key, "faults async-oblivious/20%/1ep wall_ms");
        assert!(deltas[0].regressed(0.30), "+33% beats a 30% tolerance");
        assert_eq!(
            cell_deltas(&FAULTS, &baseline, &fresh, 0.0).unwrap().len(),
            2
        );
    }

    #[test]
    fn sessions_deltas_gate_virtual_metrics_without_a_wall_floor() {
        let cell = |s: f64, p95: f64, msgs: f64, wall: f64| {
            Json::Obj(vec![
                ("sessions".into(), Json::Num(s)),
                ("k".into(), Json::Num(4.0)),
                ("spacing".into(), Json::Num(100.0)),
                ("p95_latency".into(), Json::Num(p95)),
                ("messages".into(), Json::Num(msgs)),
                ("wall_ms".into(), Json::Num(wall)),
            ])
        };
        let doc = |cells: Vec<Json>| Json::Obj(vec![("cells".into(), Json::Arr(cells))]);
        let baseline = doc(vec![cell(20.0, 900.0, 5000.0, 8.0)]);
        let fresh = doc(vec![
            cell(20.0, 1300.0, 5000.0, 9.0),
            cell(40.0, 700.0, 9000.0, 20.0), // no baseline
        ]);
        // The 8 ms baseline wall is under the floor, but the virtual
        // metrics are still compared: +44% p95 is a real behavioral
        // regression, not runner jitter.
        let deltas = cell_deltas(&SESSIONS, &baseline, &fresh, 40.0).unwrap();
        assert_eq!(deltas.len(), 2, "p95 + messages; wall under the floor");
        assert_eq!(deltas[0].key, "sessions 20x4/100 p95_latency");
        assert!(deltas[0].regressed(0.30));
        assert!(!deltas[1].regressed(0.0), "messages unchanged");
        assert_eq!(
            cell_deltas(&SESSIONS, &baseline, &fresh, 0.0)
                .unwrap()
                .len(),
            3
        );
    }

    #[test]
    fn a_family_with_no_matching_cell_is_an_error_not_a_skip() {
        let cell = |p: &str, pct: f64, eps: f64| {
            Json::Obj(vec![
                ("protocol".into(), Json::Str(p.into())),
                ("crash_pct".into(), Json::Num(pct)),
                ("episodes".into(), Json::Num(eps)),
                ("wall_ms".into(), Json::Num(90.0)),
            ])
        };
        let doc = |cells: Vec<Json>| Json::Obj(vec![("cells".into(), Json::Arr(cells))]);
        let baseline = doc(vec![cell("async-oblivious", 20.0, 1.0)]);
        // A re-tuned grid: every fresh cell has a crash % the baseline
        // never ran.
        let retuned = doc(vec![
            cell("async-oblivious", 25.0, 1.0),
            cell("async-oblivious", 25.0, 0.0),
        ]);
        let err = cell_deltas(&FAULTS, &baseline, &retuned, 0.0).unwrap_err();
        assert!(err.contains("family faults: 0 comparable cells"), "{err}");
        // A renamed key field orphans the family just the same.
        let renamed = doc(vec![Json::Obj(vec![
            ("protocol".into(), Json::Str("async-oblivious".into())),
            ("crash_percent".into(), Json::Num(20.0)),
            ("episodes".into(), Json::Num(1.0)),
            ("wall_ms".into(), Json::Num(90.0)),
        ])]);
        assert!(cell_deltas(&FAULTS, &baseline, &renamed, 0.0).is_err());
        // Matched cells that all sit under the wall floor are *not* an
        // error: the cells are comparable, just too small to time.
        let same = doc(vec![cell("async-oblivious", 20.0, 1.0)]);
        assert_eq!(
            cell_deltas(&FAULTS, &baseline, &same, 100.0).unwrap().len(),
            0
        );
    }

    #[test]
    fn delta_display_is_tabular() {
        let d = Delta {
            key: "flooding/1024 ns_per_round".into(),
            baseline: 100.0,
            fresh: 130.0,
        };
        let line = d.to_string();
        assert!(line.contains("+30.0%"), "{line}");
    }
}
