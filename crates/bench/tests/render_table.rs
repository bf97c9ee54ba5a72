//! The one table renderer's layout rules, which every bin's committed
//! stdout depends on: widths in bytes, no table for no rows, and one column
//! count per table.

use dynspread_bench::row::{render_table, Row};

#[test]
fn no_rows_render_as_nothing() {
    assert_eq!(render_table(&[]), "");
}

#[test]
fn widths_count_bytes() {
    // `β` is two bytes, one char: its column is two wide, and the
    // one-char label is padded to two chars.
    let rows = [Row::default().table("β", 1).table("n", 16)];
    assert_eq!(render_table(&rows), " β   n\n------\n 1  16\n");
}

#[test]
#[should_panic(expected = "width mismatch")]
fn row_width_checked() {
    let rows = [
        Row::default().table("a", 1).table("b", 2),
        Row::default().table("a", "only-one"),
    ];
    render_table(&rows);
}
