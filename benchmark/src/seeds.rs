//! Seed derivation: every seed the program sees (adversary, link, fault
//! plan, misbehavior plan, session trace, walk randomness) is a pure
//! function of `--seed`, the workload, the instance index, and the cell.

/// SplitMix64 finalizer: a bijective mix with good avalanche.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A node of the seed tree; [`Seed::child`] descends one labelled edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Seed(pub u64);

impl Seed {
    /// The seed below `self` along edge `label`.
    pub fn child(self, label: u64) -> Seed {
        Seed(mix(self.0 ^ mix(label)))
    }

    /// The seed below `self` along a named edge.
    pub fn named(self, label: &str) -> Seed {
        // FNV-1a over the label keeps names and small integers apart.
        let h = label.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        self.child(h)
    }
}

/// The roles a cell draws seeds for.
pub const ADVERSARY: u64 = 1;
/// Link / engine RNG stream.
pub const LINK: u64 = 2;
/// Second adversary (oblivious phase 2).
pub const ADVERSARY2: u64 = 3;
/// Walk randomness and center election.
pub const WALK: u64 = 4;
/// Session arrival trace.
pub const SESSIONS: u64 = 5;
/// Crash / partition plan.
pub const FAULTS: u64 = 6;
/// Misbehavior plan.
pub const BYZANTINE: u64 = 7;
/// Source placement.
pub const SOURCE: u64 = 8;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_are_distinct_and_repeatable() {
        let root = Seed(20_260_930);
        assert_eq!(root.child(1), root.child(1));
        assert_ne!(root.child(1), root.child(2));
        assert_ne!(root.named("flood_dense"), root.named("unicast_sparse"));
        assert_ne!(Seed(1).child(1), Seed(2).child(1));
    }
}
