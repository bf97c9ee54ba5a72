//! The gate binaries' command line is `[OUT.json]` and rejects anything
//! else before running anything: a flag — `--smoke`, which selected a
//! reduced grid until the gate ran the whole one, included — must not run
//! the grid and write a file named after it.

use std::process::Command;

#[test]
fn a_flag_or_a_second_path_exits_2_and_writes_nothing() {
    let dir = std::env::temp_dir().join(format!("dynspread-gate-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for args in [&["--smoke"][..], &["--somke"], &["a.json", "b.json"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_exp_faults"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("spawn exp_faults");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(
            stderr.ends_with("exp_faults [OUT.json]\n"),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: ran the grid");
    }
    let left: Vec<_> = std::fs::read_dir(&dir).expect("list").collect();
    assert!(left.is_empty(), "wrote {left:?}");
    std::fs::remove_dir_all(&dir).expect("clean up");
}
