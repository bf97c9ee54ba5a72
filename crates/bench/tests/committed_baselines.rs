//! The committed `BENCH_*.json` baselines are well-formed for the gate that
//! reads them: a stale or hand-edited file fails `cargo test --workspace`,
//! not only the release job's last step.

use dynspread_bench::check::{compare_cells, Json, BYZANTINE, FAULTS, RUNTIME, SESSIONS};

#[test]
fn cells_are_keyed_uniquely_and_only_runtime_carries_timing_fields() {
    for spec in [&RUNTIME, &BYZANTINE, &FAULTS, &SESSIONS] {
        let root = env!("CARGO_MANIFEST_DIR");
        let path = format!("{root}/../../BENCH_{}.json", spec.family);
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
        let doc = Json::parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"));
        let cells = doc.get("cells").and_then(Json::as_array).expect("cells");
        // Keying is the gate's own: a file compared with itself passes iff
        // every cell has the family's key fields and no key repeats.
        let compared = compare_cells(spec, &doc, &doc).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(compared.cells, cells.len(), "{path}");
        assert!(compared.values >= compared.cells, "{path}");
        for cell in cells {
            for field in RUNTIME.timing {
                let (has, may) = (cell.get(field).is_some(), spec.timing.contains(field));
                assert_eq!(has, may, "{path} cell {cell}: {field}");
            }
        }
    }
}
