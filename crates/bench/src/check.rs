//! The exact behaviour gate over the committed `BENCH_*.json` baselines.
//!
//! Everything the paper states is a count, and for a fixed seed this
//! simulator reproduces every count exactly — so the regression gate is
//! *equality*. `exp_scale`, `exp_byzantine`, `exp_faults` and
//! `exp_sessions` each write `{…, "cells": [ … ]}`; [`compare_cells`]
//! matches every fresh cell to its committed twin on the key fields of the
//! family's [`CellSpec`] ([`RUNTIME`], [`BYZANTINE`], [`FAULTS`],
//! [`SESSIONS`]) and demands that every other field be equal, apart from
//! the spec's declared timing fields. A fresh `--smoke` run covers a subset
//! of the committed full grid, so committed cells without a fresh twin are
//! ignored; a fresh cell without a committed twin is an error.
//!
//! Wall time is not gated here: one unpaired sample against a number
//! recorded on another machine says nothing. Speed is claimed through
//! alternating parent/change pairs of `benchmark/` (see its README). A
//! baseline is refreshed by re-running its `exp_*` bin.
//!
//! The parser is dependency-free (the workspace is offline — no serde).

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
            Json::Obj(fields) => field(fields, key),
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

/// The value of an object's field `key`, if it has one.
fn field<'a>(fields: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
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

impl fmt::Display for Json {
    /// Compact JSON, for naming cells and values in gate messages.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(x) => write!(f, "{x}"),
            Json::Str(s) => write!(f, "{s:?}"),
            Json::Arr(items) => {
                let items: Vec<String> = items.iter().map(Json::to_string).collect();
                write!(f, "[{}]", items.join(", "))
            }
            Json::Obj(fields) => {
                let fields: Vec<String> =
                    fields.iter().map(|(k, v)| format!("{k:?}: {v}")).collect();
                write!(f, "{{{}}}", fields.join(", "))
            }
        }
    }
}

/// How one family of grid artifacts is compared: which fields identify a
/// cell and which are wall-clock readings. Every other field is a pure
/// function of the seeds and must be equal.
#[derive(Debug)]
pub struct CellSpec {
    /// The family's name: `bench_check`'s flag without the dashes, and the
    /// `BENCH_<family>.json` it gates.
    pub family: &'static str,
    /// The fields a cell is matched on, compared as JSON values.
    pub key: &'static [&'static str],
    /// Timing fields: recorded and printed, never compared.
    pub timing: &'static [&'static str],
}

/// `BENCH_runtime.json` (`exp_scale`): cells match on `(protocol, n)` —
/// a fresh `--smoke` run has only the `n = 1024` column of the committed
/// full grid. The only family that records wall time.
pub const RUNTIME: CellSpec = CellSpec {
    family: "runtime",
    key: &["protocol", "n"],
    timing: &["wall_ms", "ns_per_round", "ns_per_event"],
};

/// `BENCH_byzantine.json` (`exp_byzantine`): cells match on
/// `(protocol, fraction_pct, kind)`.
pub const BYZANTINE: CellSpec = CellSpec {
    family: "byzantine",
    key: &["protocol", "fraction_pct", "kind"],
    timing: &[],
};

/// `BENCH_faults.json` (`exp_faults`): cells match on
/// `(protocol, crash_pct, episodes)`. The recovery delay is not part of
/// the key — the swept grid never reuses a `(crash %, episodes)` pair
/// with two delays — so it is compared like any other column.
pub const FAULTS: CellSpec = CellSpec {
    family: "faults",
    key: &["protocol", "crash_pct", "episodes"],
    timing: &[],
};

/// `BENCH_sessions.json` (`exp_sessions`): cells match on
/// `(sessions, k, spacing)`.
pub const SESSIONS: CellSpec = CellSpec {
    family: "sessions",
    key: &["sessions", "k", "spacing"],
    timing: &[],
};

/// What one family's comparison covered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Compared {
    /// Fresh cells, each matched to its committed twin.
    pub cells: usize,
    /// Fields compared over those cells (none of them a key or timing
    /// field).
    pub values: usize,
}

/// Compares the `cells` of a fresh artifact against the committed one of
/// the same family: every fresh cell must have a committed cell with equal
/// key fields, and the two must agree on every field that is neither a key
/// nor a timing field of `spec`. Committed cells the fresh run lacks are
/// ignored.
///
/// # Errors
///
/// One line per defect, each naming the family and the cell: an artifact
/// without a `cells` array, a cell that lacks a key field or repeats
/// another's key, a fresh cell with no committed twin, and every column
/// whose committed and fresh values differ (or that only one side has).
pub fn compare_cells(spec: &CellSpec, committed: &Json, fresh: &Json) -> Result<Compared, String> {
    let committed = keyed_cells(spec, "committed", committed)?;
    let fresh = keyed_cells(spec, "fresh", fresh)?;
    let family = spec.family;
    let mut values = 0usize;
    let mut defects = Vec::new();
    for (key, cell) in &fresh {
        let label = render_key(spec, key);
        let Some((_, twin)) = committed.iter().find(|(k, _)| k == key) else {
            defects.push(format!(
                "{family} [{label}]: fresh cell has no committed twin"
            ));
            continue;
        };
        // The committed cell's columns in file order, then any column only
        // the fresh cell has.
        let only_fresh = cell.iter().filter(|(name, _)| field(twin, name).is_none());
        for (name, _) in twin.iter().chain(only_fresh) {
            if spec.key.contains(&name.as_str()) || spec.timing.contains(&name.as_str()) {
                continue;
            }
            values += 1;
            let (was, is) = (field(twin, name), field(cell, name));
            if was != is {
                let show = |v: Option<&Json>| v.map_or("absent".to_string(), Json::to_string);
                defects.push(format!(
                    "{family} [{label}] {name}: committed {}, fresh {}",
                    show(was),
                    show(is)
                ));
            }
        }
    }
    if defects.is_empty() {
        Ok(Compared {
            cells: fresh.len(),
            values,
        })
    } else {
        Err(defects.join("\n"))
    }
}

/// A cell's key-field values under its spec, and its fields.
type KeyedCell<'a> = (Vec<&'a Json>, &'a [(String, Json)]);

/// The artifact's cells with their keys under `spec`; `side` says which
/// artifact it is in error messages.
fn keyed_cells<'a>(
    spec: &CellSpec,
    side: &str,
    doc: &'a Json,
) -> Result<Vec<KeyedCell<'a>>, String> {
    let family = spec.family;
    let cells = doc
        .get("cells")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{family}: {side} artifact has no \"cells\" array"))?;
    let mut keyed: Vec<KeyedCell<'a>> = Vec::with_capacity(cells.len());
    for cell in cells {
        let Json::Obj(fields) = cell else {
            return Err(format!("{family}: {side} cell {cell} is not an object"));
        };
        let key = spec
            .key
            .iter()
            .map(|field| {
                cell.get(field).ok_or_else(|| {
                    format!("{family}: {side} cell {cell} lacks key field {field:?}")
                })
            })
            .collect::<Result<Vec<&Json>, String>>()?;
        if keyed.iter().any(|(k, _)| *k == key) {
            return Err(format!(
                "{family} [{}]: {side} artifact has this cell twice",
                render_key(spec, &key)
            ));
        }
        keyed.push((key, fields));
    }
    Ok(keyed)
}

/// `protocol="flooding" n=1024`: the cell's name in gate messages.
fn render_key(spec: &CellSpec, key: &[&Json]) -> String {
    let parts: Vec<String> = spec
        .key
        .iter()
        .zip(key)
        .map(|(field, value)| format!("{field}={value}"))
        .collect();
    parts.join(" ")
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

    /// An artifact with the given cells, each the inside of a JSON object.
    fn grid(cells: &[&str]) -> Json {
        let cells: Vec<String> = cells.iter().map(|c| format!("{{{c}}}")).collect();
        Json::parse(&format!(r#"{{"cells": [{}]}}"#, cells.join(", "))).expect("parses")
    }

    const OBLIVIOUS: &str = r#""protocol": "async-oblivious", "crash_pct": 20, "episodes": 1, "completed": true, "events": 5048"#;
    const SINGLE: &str = r#""protocol": "async-single-source", "crash_pct": 20, "episodes": 1, "completed": true, "events": 900"#;

    #[test]
    fn a_smoke_subset_equal_on_every_column_passes() {
        let full_only =
            r#""protocol": "async-oblivious", "crash_pct": 10, "episodes": 1, "events": 4000"#;
        let committed = grid(&[OBLIVIOUS, full_only, SINGLE]);
        let compared = compare_cells(&FAULTS, &committed, &grid(&[SINGLE, OBLIVIOUS]));
        // completed + events on each of the two fresh cells
        assert_eq!(
            compared,
            Ok(Compared {
                cells: 2,
                values: 4
            })
        );
    }

    #[test]
    fn an_off_by_one_names_family_cell_column_and_both_values() {
        let fresh = grid(&[&OBLIVIOUS.replace("5048", "5049"), SINGLE]);
        let err = compare_cells(&FAULTS, &grid(&[OBLIVIOUS, SINGLE]), &fresh).unwrap_err();
        assert_eq!(
            err,
            "faults [protocol=\"async-oblivious\" crash_pct=20 episodes=1] events: \
             committed 5048, fresh 5049"
        );
    }

    #[test]
    fn a_column_only_one_side_has_is_a_mismatch() {
        let (without, with) = (
            grid(&[OBLIVIOUS]),
            grid(&[&format!(r#"{OBLIVIOUS}, "wall_ms": 3.5"#)]),
        );
        let err = compare_cells(&FAULTS, &without, &with).unwrap_err();
        assert!(
            err.ends_with("wall_ms: committed absent, fresh 3.5"),
            "{err}"
        );
        let err = compare_cells(&FAULTS, &with, &without).unwrap_err();
        assert!(
            err.ends_with("wall_ms: committed 3.5, fresh absent"),
            "{err}"
        );
    }

    #[test]
    fn a_fresh_cell_without_a_committed_twin_is_an_error() {
        let fresh = grid(&[OBLIVIOUS, &OBLIVIOUS.replace("20", "25")]);
        let err = compare_cells(&FAULTS, &grid(&[OBLIVIOUS]), &fresh).unwrap_err();
        assert_eq!(
            err,
            "faults [protocol=\"async-oblivious\" crash_pct=25 episodes=1]: \
             fresh cell has no committed twin"
        );
    }

    #[test]
    fn a_cell_without_a_key_field_is_an_error() {
        let committed = grid(&[OBLIVIOUS]);
        let renamed = grid(&[&OBLIVIOUS.replace("crash_pct", "crash_percent")]);
        let err = compare_cells(&FAULTS, &committed, &renamed).unwrap_err();
        assert!(err.starts_with("faults: fresh cell {"), "{err}");
        assert!(err.ends_with("lacks key field \"crash_pct\""), "{err}");
        let err = compare_cells(&FAULTS, &renamed, &committed).unwrap_err();
        assert!(err.starts_with("faults: committed cell {"), "{err}");
        assert!(compare_cells(&FAULTS, &Json::Null, &committed).is_err());
    }

    #[test]
    fn keys_match_as_values_so_12_and_12_5_are_different_cells() {
        let (twelve, and_a_half) = (
            OBLIVIOUS.replace("20", "12"),
            OBLIVIOUS.replace("20", "12.5").replace("5048", "7"),
        );
        let committed = grid(&[&twelve, &and_a_half]);
        assert!(compare_cells(&FAULTS, &committed, &grid(&[&and_a_half])).is_ok());
        let twice = grid(&[&and_a_half, &and_a_half]);
        let err = compare_cells(&FAULTS, &committed, &twice).unwrap_err();
        assert!(err.ends_with("fresh artifact has this cell twice"), "{err}");
    }

    #[test]
    fn timing_fields_may_differ() {
        let cell = r#""protocol": "flooding", "n": 1024, "rounds": 3084, "wall_ms": 340.7, "ns_per_round": 110473, "ns_per_event": 109"#;
        let faster = cell.replace("340.7", "12").replace("110473", "9");
        let compared = compare_cells(&RUNTIME, &grid(&[cell]), &grid(&[&faster]));
        assert_eq!(
            compared,
            Ok(Compared {
                cells: 1,
                values: 1
            })
        );
        let err = compare_cells(
            &RUNTIME,
            &grid(&[cell]),
            &grid(&[&faster.replace("3084", "3085")]),
        )
        .unwrap_err();
        assert_eq!(
            err,
            "runtime [protocol=\"flooding\" n=1024] rounds: committed 3084, fresh 3085"
        );
    }
}
