#!/usr/bin/env bash
# The benchmark's one command. Builds the benchmark package offline, then
# runs it:
#
#   benchmark/run.sh [--seed S] [--seconds T] [--repeat R] [--only w1,w2]
#       every workload in its own child process, then one traced pass,
#       the cross-checks, and benchmark/out/results.json
#   benchmark/run.sh --workload NAME --seed S --seconds T --trace 0|1
#       one workload, one process; the last line of stdout is the result
#       object BENCHMARK.json's contract describes
#   benchmark/run.sh --manifest
#       prints what BENCHMARK.json must contain
#
# A failed build exits non-zero before anything is printed to stdout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# cargo resolves a relative CARGO_TARGET_DIR against the current
# directory, and so does the exec below: no cd in between.
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/dynspread-benchmark" --out "$here/out" "$@"
