//! A grid cell written once: an ordered [`Row`] of `(JSON name, table
//! label, value)` columns, built where the run finishes.
//!
//! The gate bins (`exp_{scale,profile,faults,byzantine,sessions}`) print an
//! ASCII table and write a `BENCH_*.json` from the same cells. Both come
//! from the rows — [`render_table`] lays out the labelled columns,
//! [`gate_json`] the named ones, and is the one place that knows the
//! `{"…": …, "cells": [ … ]}` format — so a column is added, renamed or
//! dropped on one line of its bin. The file is compared with a fresh run's
//! byte for byte (`tests/committed_baselines.rs`), one cell per line, so
//! what reads the wall clock is [`Row::table`]d, never recorded.

use dynspread_analysis::table::{fmt_f64, Table};
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
/// the first row's labels.
///
/// # Panics
///
/// Panics if a row tabulates a different number of columns than the first.
pub fn render_table(rows: &[Row]) -> String {
    let labels = |row: &Row| -> Vec<&str> { row.columns.iter().filter_map(|c| c.label).collect() };
    let mut table = Table::new(&rows.first().map(labels).unwrap_or_default());
    for row in rows {
        let tabulated = row.columns.iter().filter(|c| c.label.is_some());
        table.row_owned(tabulated.map(|c| c.shown.clone()).collect());
    }
    table.render()
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
