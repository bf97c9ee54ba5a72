//! The seven workloads: which cells each runs and at what size.
//!
//! Every cell evolves its topology with `PeriodicRewiring(RandomTree, 3)`
//! unless its [`Kind`] says otherwise. Cell sizes are part of a
//! workload's definition: changing one changes what the numbers mean, so
//! treat it like changing the benchmark (its own change, fresh baseline).
//! The `Tiny` size exists for `cargo test`: the same cells and code path
//! at `n = 16`.

use crate::cells::{Cell, Kind};

/// Which size of a workload to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's sizes.
    Full,
    /// `n = 16` versions for the test suite.
    Tiny,
}

/// One workload: cells run back to back, closed loop, one at a time.
#[derive(Clone, Debug, PartialEq)]
pub struct Workload {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// The cells one instance runs, in order.
    pub cells: Vec<Cell>,
    /// What one instance (every cell once) costs on the box the baseline
    /// was taken on, in seconds. Only used to turn `--seconds` into an
    /// instance count, so that the count — and with it every simulated
    /// metric — is a function of the arguments, not of how fast the
    /// machine happens to be.
    pub nominal_instance_s: f64,
    /// Steps of the machine-speed probe taken around every cell (see
    /// `measure::speed_probe`): long enough to span the sandbox's
    /// throttling period at full size, token at test size.
    pub probe_steps: u32,
}

impl Workload {
    /// Instances a run of `seconds` measures: as many as fit nominally,
    /// never fewer than three.
    pub fn instances(&self, seconds: f64) -> usize {
        ((seconds / self.nominal_instance_s).floor() as usize).max(3)
    }
}

const fn cell(name: &'static str, kind: Kind, reference_units: u64) -> Cell {
    Cell {
        name,
        kind,
        reference_units,
    }
}

/// Builds workload `name` at `size`, or `None` for an unknown name.
pub fn workload(name: &str, size: Size) -> Option<Workload> {
    let full = size == Size::Full;
    // (n, k) pairs shrink to n = 16 with a k that keeps the cell's
    // character (k << n stays small, k >= n stays equal to n).
    let pick = |big: usize, tiny: usize| if full { big } else { tiny };
    let (name, cells, nominal_instance_s) = match name {
        "flood_dense" => (
            "flood_dense",
            vec![
                cell(
                    "flood_wide",
                    Kind::Flood {
                        n: pick(2048, 16),
                        k: pick(4, 2),
                        meter_sampling: 64,
                    },
                    6_157,
                ),
                cell(
                    "flood_manytokens",
                    Kind::Flood {
                        n: pick(256, 16),
                        k: pick(256, 16),
                        meter_sampling: 1,
                    },
                    65_290,
                ),
            ],
            1.95,
        ),
        "unicast_sparse" => (
            "unicast_sparse",
            vec![
                cell(
                    "single_source",
                    Kind::UnicastSingle {
                        n: pick(4096, 16),
                        k: pick(4, 2),
                    },
                    1_150,
                ),
                cell(
                    "multi_source",
                    Kind::UnicastMulti {
                        n: pick(4096, 16),
                        k: pick(4, 2),
                        s: pick(4, 2),
                    },
                    550,
                ),
                cell(
                    "synchronizer_lossy",
                    Kind::SyncLossy {
                        n: pick(2048, 16),
                        k: pick(4, 2),
                    },
                    2_260,
                ),
            ],
            2.2,
        ),
        "unicast_manytokens" => (
            "unicast_manytokens",
            vec![
                cell(
                    "single_source",
                    Kind::UnicastSingle {
                        n: pick(192, 16),
                        k: pick(192, 16),
                    },
                    21_800,
                ),
                cell(
                    "multi_source",
                    Kind::UnicastMulti {
                        n: pick(256, 16),
                        k: pick(256, 16),
                        s: pick(16, 4),
                    },
                    17_900,
                ),
            ],
            3.3,
        ),
        "async_perfect" => (
            "async_perfect",
            vec![
                cell(
                    "engine_single_source",
                    Kind::EngineSingle {
                        n: pick(4096, 16),
                        k: pick(4, 2),
                    },
                    1_165_000,
                ),
                cell(
                    "scenario_multi_source",
                    Kind::AsyncMulti {
                        n: pick(4096, 16),
                        k: pick(8, 4),
                        s: pick(4, 2),
                        lossy: false,
                    },
                    1_100_000,
                ),
            ],
            0.9,
        ),
        "async_lossy" => (
            "async_lossy",
            vec![
                cell(
                    "scenario_single_source_churn",
                    Kind::AsyncSingleChurn {
                        n: pick(4096, 16),
                        k: pick(4, 2),
                    },
                    357_000,
                ),
                cell(
                    "scenario_multi_source",
                    Kind::AsyncMulti {
                        n: pick(4096, 16),
                        k: pick(8, 4),
                        s: pick(4, 2),
                        lossy: true,
                    },
                    1_490_000,
                ),
            ],
            1.3,
        ),
        "oblivious_pipeline" => (
            "oblivious_pipeline",
            vec![cell(
                "run_oblivious",
                Kind::Oblivious {
                    n: pick(4096, 16),
                    k: pick(16, 4),
                },
                6_000_000,
            )],
            2.75,
        ),
        "service_mix" => (
            "service_mix",
            vec![
                cell(
                    "sessions",
                    Kind::Sessions {
                        n: pick(128, 16),
                        sessions: pick(128, 6),
                        k: pick(8, 2),
                        spacing: 20,
                        jsonl: false,
                    },
                    3_000_000,
                ),
                cell(
                    "faulted_byzantine_multi_source",
                    Kind::FaultedByz {
                        n: pick(2048, 16),
                        k: pick(16, 4),
                        s: pick(4, 2),
                    },
                    1_250_000,
                ),
                cell(
                    "sessions_traced",
                    Kind::Sessions {
                        n: pick(128, 16),
                        sessions: pick(16, 3),
                        k: pick(8, 2),
                        spacing: 20,
                        jsonl: true,
                    },
                    390_000,
                ),
            ],
            2.7,
        ),
        _ => return None,
    };
    Some(Workload {
        name,
        cells,
        nominal_instance_s,
        probe_steps: pick(25_000_000, 25_000) as u32,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::WORKLOADS;

    #[test]
    fn every_declared_workload_builds_at_both_sizes() {
        for (name, _) in WORKLOADS {
            for size in [Size::Full, Size::Tiny] {
                let w = workload(name, size).expect("declared workload builds");
                assert_eq!(w.name, name);
                assert!(!w.cells.is_empty());
                assert!(w.instances(0.0) >= 3, "never fewer than three instances");
                assert!(w.instances(60.0) >= w.instances(10.0));
            }
        }
        assert!(workload("nope", Size::Full).is_none());
    }
}
