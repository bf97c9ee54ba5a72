//! The gate bins' writer against the gate's reader: a [`Row`] renders as the
//! table line and the JSON cell the committed `BENCH_*.json` files hold,
//! what [`gate_json`] writes is what [`Json::parse`] and [`compare_cells`]
//! accept, and a row that lacks a column its family's spec declares is
//! refused by the writer, by name.

use dynspread_bench::arms::arm_seed;
use dynspread_bench::check::{compare_cells, Compared, Json, FAULTS, RUNTIME};
use dynspread_bench::derive_seed;
use dynspread_bench::row::{gate_json, render_table, Row};

fn fault_row(crash_pct: u32) -> Row {
    Row::default()
        .text("protocol", "protocol", "async-oblivious")
        .col("crash_pct", "crash %", crash_pct)
        .col("episodes", "part", 1)
        .col("completed", "done", true)
        .fixed("coverage", "coverage", 0.95, 4)
        .json("events", 5048)
}

#[test]
fn a_row_renders_as_one_table_line_and_one_json_cell() {
    let row = Row::default()
        .text("protocol", "protocol", "flooding")
        .col("n", "n", 1024)
        .json("k", 4)
        .col("completed", "done", true)
        .fixed("coverage", "coverage", 2.0 / 3.0, 4)
        .fixed("wall_ms", "wall ms", 340.6789, 1)
        .table("share", "58.8%")
        .json("hist", "[[3, 1]]");
    assert_eq!(
        render_table(std::slice::from_ref(&row)),
        "protocol     n  done  coverage  wall ms  share\n\
         ----------------------------------------------\n\
         flooding  1024  true      0.67   340.68  58.8%\n"
    );
    assert_eq!(
        gate_json(None, &[("k", "4".into())], true, &[row]).expect("ungated"),
        "{\n  \"k\": 4,\n  \"smoke\": true,\n  \"cells\": [\n    \
         {\"protocol\": \"flooding\", \"n\": 1024, \"k\": 4, \"completed\": true, \
         \"coverage\": 0.6667, \"wall_ms\": 340.7, \"hist\": [[3, 1]]}\n  ]\n}\n"
    );
}

#[test]
fn rows_round_trip_through_the_gate_format_and_equal_themselves() {
    let rows = [fault_row(10), fault_row(20)];
    let text = gate_json(Some(&FAULTS), &[("n", "24".into())], false, &rows).expect("keyed");
    let doc = Json::parse(&text).expect("the writer emits what the gate parses");
    assert_eq!(doc.get("n").and_then(Json::as_f64), Some(24.0));
    assert_eq!(doc.get("smoke"), Some(&Json::Bool(false)));
    // completed, coverage and events on each of the two cells
    let (cells, values) = (2, 6);
    assert_eq!(
        compare_cells(&FAULTS, &doc, &doc),
        Ok(Compared { cells, values })
    );
}

#[test]
fn the_writer_names_the_declared_column_a_row_lacks() {
    let renamed = Row::default()
        .text("protocol", "protocol", "async-oblivious")
        .col("crash_percent", "crash %", 20)
        .col("episodes", "part", 1);
    let err = gate_json(Some(&FAULTS), &[], true, &[fault_row(20), renamed]).unwrap_err();
    assert_eq!(
        err,
        "faults: cell {\"protocol\": \"async-oblivious\", \"crash_percent\": 20, \
         \"episodes\": 1} lacks key column \"crash_pct\""
    );
    let untimed = Row::default()
        .text("protocol", "protocol", "flooding")
        .col("n", "n", 8);
    let err = gate_json(Some(&RUNTIME), &[], true, &[untimed]).unwrap_err();
    assert!(err.ends_with("lacks timing column \"wall_ms\""), "{err}");
}

#[test]
fn an_arm_appended_to_a_grid_reseeds_no_recorded_cell() {
    // exp_scale: stride 5, all of its arms.
    assert_eq!(arm_seed(5, 1, 2), derive_seed(20_260_729, 7));
    // exp_profile: stride 4, six arms — the fifth takes the next size's first.
    assert_eq!(arm_seed(4, 0, 4), arm_seed(4, 1, 0));
    assert_ne!(arm_seed(4, 0, 3), arm_seed(4, 0, 4));
}
