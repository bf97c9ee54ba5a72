//! The gate binaries' command line is `[OUT.json]` and rejects anything
//! else before running anything: a flag — `--smoke`, which selected a
//! reduced grid until the gate ran the whole one, included — must not run
//! the grid and write a file named after it. `table1` and
//! `fig1_free_edges` take `[N]`, and reject a size they would not run to
//! completion instead of falling back to the default.

use std::process::Command;

#[test]
fn a_bad_size_exits_2_and_the_smallest_size_runs() {
    for (bin, min, default) in [
        (env!("CARGO_BIN_EXE_table1"), 2, 48),
        (env!("CARGO_BIN_EXE_fig1_free_edges"), 4, 96),
    ] {
        let below = (min - 1).to_string();
        for args in [&["abc"][..], &["--n"], &["-3"], &[&below], &["8", "9"]] {
            let out = Command::new(bin).args(args).output().expect("spawn");
            assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.starts_with("error: "), "{bin} {args:?}: {stderr}");
            assert!(
                stderr.ends_with(&format!(" [N]  (N ≥ {min}, default {default})\n")),
                "{bin} {args:?}: {stderr}"
            );
            assert!(out.stdout.is_empty(), "{bin} {args:?}: ran");
        }
        let out = Command::new(bin)
            .arg(min.to_string())
            .output()
            .expect("spawn");
        assert!(out.status.success(), "{bin} {min}: {out:?}");
    }
}

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
