//! A grid cell written once: an ordered [`Row`] of `(JSON name, table
//! label, value)` columns, built where the run finishes.
//!
//! Every experiment bin prints its tables through [`render_table`], the one
//! table renderer: a column is its label next to its value, on one line of
//! its bin. The gate bins (`exp_{scale,profile,faults,byzantine,sessions}`)
//! also write a `BENCH_*.json` from the same cells — [`gate_json`] renders
//! the named columns, and is the one place that knows the
//! `{"…": …, "cells": [ … ]}` format. The other sixteen bins only tabulate
//! ([`Row::table`]). `tests/committed_baselines.rs` compares a fresh run
//! with the committed bytes: a gate bin's file, one cell per line — so what
//! reads the wall clock is [`Row::table`]d, never recorded — and every
//! other bin's whole stdout.

use dynspread_analysis::table::fmt_f64;
use std::fmt::Display;

/// One cell of a grid: its columns in output order.
#[derive(Clone, Debug, Default)]
pub struct Row {
    columns: Vec<Column>,
}

/// A column as both outputs render it; one that is only tabulated has no
/// JSON name, one that is only recorded no table label.
#[derive(Clone, Debug)]
struct Column {
    name: Option<&'static str>,
    label: Option<&'static str>,
    shown: String,
    json: String,
}

impl Row {
    fn push(
        mut self,
        name: Option<&'static str>,
        label: Option<&'static str>,
        shown: String,
        json: String,
    ) -> Self {
        self.columns.push(Column {
            name,
            label,
            shown,
            json,
        });
        self
    }

    /// Appends a count or a flag: the same text in the table and the JSON.
    pub fn col(self, name: &'static str, label: &'static str, value: impl Display) -> Self {
        let text = value.to_string();
        self.push(Some(name), Some(label), text.clone(), text)
    }

    /// Appends a string: bare in the table, quoted in the JSON.
    pub fn text(self, name: &'static str, label: &'static str, value: &str) -> Self {
        self.push(
            Some(name),
            Some(label),
            value.to_string(),
            format!("{value:?}"),
        )
    }

    /// Appends a float: compact ([`fmt_f64`]) in the table, fixed-point with
    /// `decimals` places in the JSON, so a file re-renders byte for byte.
    pub fn fixed(self, name: &'static str, label: &'static str, x: f64, decimals: usize) -> Self {
        self.push(
            Some(name),
            Some(label),
            fmt_f64(x),
            format!("{x:.decimals$}"),
        )
    }

    /// Appends a column that is recorded but not tabulated; `value` renders
    /// as JSON (a number, a flag, a nested array).
    pub fn json(self, name: &'static str, value: impl Display) -> Self {
        self.push(Some(name), None, String::new(), value.to_string())
    }

    /// Appends a column that is tabulated but not recorded.
    pub fn table(self, label: &'static str, value: impl Display) -> Self {
        self.push(None, Some(label), value.to_string(), String::new())
    }

    /// The recorded columns as one `{"name": value, …}` object.
    fn json_cell(&self) -> String {
        let fields: Vec<String> = self
            .columns
            .iter()
            .filter_map(|c| Some(format!("\"{}\": {}", c.name?, c.json)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// Renders the rows' tabulated columns as an aligned ASCII table, headed by
/// the first row's labels and a dash rule: cells right-aligned, two spaces
/// apart. A column is as wide as its longest cell in *bytes* (`str::len`),
/// so a `β` or `²` label widens its column by a space — the committed
/// tables are laid out that way. No rows render as nothing.
///
/// # Panics
///
/// Panics if a row tabulates a different number of columns than the first.
pub fn render_table(rows: &[Row]) -> String {
    let Some(first) = rows.first() else {
        return String::new();
    };
    let labels: Vec<&str> = first.columns.iter().filter_map(|c| c.label).collect();
    let mut widths: Vec<usize> = labels.iter().map(|l| l.len()).collect();
    let cells: Vec<Vec<&str>> = rows
        .iter()
        .map(|row| {
            let tabulated = row.columns.iter().filter(|c| c.label.is_some());
            tabulated.map(|c| c.shown.as_str()).collect()
        })
        .collect();
    for row in &cells {
        assert_eq!(row.len(), widths.len(), "row width mismatch");
        for (width, cell) in widths.iter_mut().zip(row) {
            *width = (*width).max(cell.len());
        }
    }
    let line = |cells: &[&str]| -> String {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(cell, width)| format!("{cell:>width$}"))
            .collect();
        padded.join("  ") + "\n"
    };
    let rule = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
    let mut out = line(&labels) + &"-".repeat(rule) + "\n";
    for row in &cells {
        out += &line(row);
    }
    out
}

/// Renders a gate bin's baseline file —
/// `{"<name>": <value>, …, "cells": [ … ]}` with one pre-rendered JSON
/// value per header entry and one object, on one line, per row.
pub fn gate_json(header: &[(&str, String)], rows: &[Row]) -> String {
    let header: String = header
        .iter()
        .map(|(name, value)| format!("  \"{name}\": {value},\n"))
        .collect();
    let cells: Vec<String> = rows
        .iter()
        .map(|row| format!("    {}", row.json_cell()))
        .collect();
    format!(
        "{{\n{header}  \"cells\": [\n{}\n  ]\n}}\n",
        cells.join(",\n")
    )
}

/// Writes [`gate_json`]'s rendering to `out_path` and reports the path on
/// stderr.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_gate_json(out_path: &str, header: &[(&str, String)], rows: &[Row]) {
    let json = gate_json(header, rows);
    std::fs::write(out_path, json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    eprintln!("wrote {out_path}");
}
