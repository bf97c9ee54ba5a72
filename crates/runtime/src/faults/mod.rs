//! Benign-fault injection: crash-stop, crash-recovery, and network
//! partitions — the runtime's third fault axis, next to lossy links and
//! Byzantine misbehavior.
//!
//! Three layers, mirroring the [`byzantine`](crate::byzantine) module:
//!
//! 1. **The plan** ([`plan`]): a seeded, pure-data [`FaultPlan`] deciding
//!    — entirely at construction — which nodes crash and when, whether
//!    they recover and with what surviving state ([`RecoveryMode`]), and
//!    which [`PartitionEpisode`]s cut the network. Plus
//!    [`PartitionLink`], the [`LinkModel`](crate::link::LinkModel)
//!    combinator that enforces the cut without consuming engine
//!    randomness.
//! 2. **Engine semantics** ([`engine`](crate::engine)): a crashed node
//!    consumes no deliveries, fires no timers, and sends nothing; its
//!    pre-crash timers are invalidated by an incarnation counter, so a
//!    recovered node only ever hears from its own new timers. Recovery
//!    dispatches [`EventProtocol::on_recover`](crate::engine::EventProtocol::on_recover)
//!    and a heal dispatches
//!    [`EventProtocol::on_heal`](crate::engine::EventProtocol::on_heal)
//!    to every live node. All of it is replay-identical from the seeds,
//!    and an empty plan is *byte-identical* to running with no plan.
//! 3. **Driving it**: [`Scenario::faults`](crate::scenario::Scenario::faults)
//!    injects a plan into any async port (and
//!    [`Scenario::run_oblivious`](crate::scenario::Scenario::run_oblivious)
//!    takes a second plan for its phase 2) — the engine gets the plan
//!    via [`EventSim::set_fault_plan`](crate::engine::EventSim::set_fault_plan)
//!    and the link is wrapped in [`PartitionLink`] over the same plan, so
//!    any degradation measured is attributable to the injected faults
//!    alone. Degradation is reported as **live coverage**
//!    ([`coverage_over`] the nodes up at the end of the run), and the
//!    crash/recovery/partition counters are stamped into the
//!    [`RunReport`](dynspread_sim::RunReport).

pub mod plan;

pub use plan::{FaultPlan, NodeFault, PartitionEpisode, PartitionLink, RecoveryMode};

use dynspread_graph::NodeId;
use dynspread_sim::token::TokenSet;

/// Mean coverage of the `k`-token universe over the nodes selected by
/// `include` (their index order matching the knowledge iterator); `1.0`
/// when no node is selected.
pub fn coverage_over<'a>(
    k: usize,
    knowledge: impl Iterator<Item = &'a TokenSet>,
    mut include: impl FnMut(NodeId) -> bool,
) -> f64 {
    let mut sum = 0.0;
    let mut picked = 0usize;
    for (i, know) in knowledge.enumerate() {
        if include(NodeId::new(i as u32)) {
            sum += know.count() as f64 / k.max(1) as f64;
            picked += 1;
        }
    }
    if picked == 0 {
        1.0
    } else {
        sum / picked as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynspread_sim::token::TokenId;

    #[test]
    fn coverage_over_excludes_and_degenerates() {
        let mut full = TokenSet::new(4);
        for i in 0..4 {
            full.insert(TokenId::new(i));
        }
        let empty = TokenSet::new(4);
        let sets = [full, empty];
        let all = coverage_over(4, sets.iter(), |_| true);
        assert!((all - 0.5).abs() < 1e-12);
        let first = coverage_over(4, sets.iter(), |v| v.index() == 0);
        assert!((first - 1.0).abs() < 1e-12);
        assert_eq!(coverage_over(4, sets.iter(), |_| false), 1.0);
    }
}
