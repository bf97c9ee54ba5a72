//! The gate bins' writer, pinned: a [`Row`] renders as the table line and
//! the JSON cell the committed `BENCH_*.json` files hold, one cell per line
//! (the unit `committed_baselines.rs` reports a difference in), and the one
//! seed rule of the scale/profile grids.

use dynspread_bench::arms::arm_seed;
use dynspread_bench::derive_seed;
use dynspread_bench::row::{gate_json, render_table, Row};

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
        gate_json(&[("k", "4".into())], &[row]),
        "{\n  \"k\": 4,\n  \"cells\": [\n    \
         {\"protocol\": \"flooding\", \"n\": 1024, \"k\": 4, \"completed\": true, \
         \"coverage\": 0.6667, \"wall_ms\": 340.7, \"hist\": [[3, 1]]}\n  ]\n}\n"
    );
}

#[test]
fn an_arm_appended_to_a_grid_reseeds_no_recorded_cell() {
    // exp_scale: stride 5, all of its arms.
    assert_eq!(arm_seed(5, 1, 2), derive_seed(20_260_729, 7));
    // exp_profile: stride 4, six arms — the fifth takes the next size's first.
    assert_eq!(arm_seed(4, 0, 4), arm_seed(4, 1, 0));
    assert_ne!(arm_seed(4, 0, 3), arm_seed(4, 0, 4));
}
