//! Node identifiers.
//!
//! The paper assumes each node has a unique `O(log n)`-bit identifier
//! (Section 1.3). We model identifiers as dense `u32` indices `0..n`, which
//! keeps every per-node table an array. The ordering of [`NodeId`]s is the
//! ID ordering used by the multi-source algorithm ("minimum known source
//! node", Section 3.2.1).

use std::fmt;

/// A node identifier in a dynamic network with a fixed vertex set `V`.
///
/// `NodeId`s are dense indices in `0..n`, so they double as array indices via
/// [`NodeId::index`].
///
/// # Examples
///
/// ```
/// use dynspread_graph::NodeId;
///
/// let v = NodeId::new(3);
/// assert_eq!(v.index(), 3);
/// assert!(NodeId::new(2) < v);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node identifier from a dense index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// Returns the identifier as a dense `usize` index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value.
    #[inline]
    pub const fn value(self) -> u32 {
        self.0
    }

    /// Iterates over all node identifiers of an `n`-node network, in
    /// increasing ID order.
    ///
    /// # Examples
    ///
    /// ```
    /// use dynspread_graph::NodeId;
    /// let ids: Vec<_> = NodeId::all(3).collect();
    /// assert_eq!(ids, vec![NodeId::new(0), NodeId::new(1), NodeId::new(2)]);
    /// ```
    pub fn all(n: usize) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator {
        (0..n as u32).map(NodeId)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(value: u32) -> Self {
        NodeId(value)
    }
}

impl From<NodeId> for u32 {
    fn from(value: NodeId) -> Self {
        value.0
    }
}

/// A fixed hasher for keys made of node IDs (a [`NodeId`], an
/// [`Edge`](crate::edge::Edge), a `(NodeId, u32)` pair): one multiply–rotate
/// step per `u32` written (the FxHash step) in place of SipHash.
///
/// For keys the program produces itself, so nothing can craft collisions.
/// It is a fixed function of the key (no per-process seed); a set or map
/// over it must still only be probed, never iterated, wherever output has
/// to be deterministic.
#[derive(Default)]
pub struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(b as u32);
        }
    }

    fn write_u32(&mut self, x: u32) {
        self.0 = (self.0.rotate_left(5) ^ x as u64).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

/// A round number. Rounds are 1-based as in the paper: "round `r` starts at
/// time `r - 1` and ends at time `r`"; round 0 denotes the initial empty
/// graph `G_0 = (V, ∅)`.
pub type Round = u64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let v = NodeId::new(17);
        assert_eq!(v.index(), 17);
        assert_eq!(v.value(), 17);
        assert_eq!(u32::from(v), 17);
        assert_eq!(NodeId::from(17u32), v);
    }

    #[test]
    fn node_id_ordering_is_index_ordering() {
        assert!(NodeId::new(0) < NodeId::new(1));
        assert!(NodeId::new(5) > NodeId::new(4));
        let mut ids = vec![NodeId::new(2), NodeId::new(0), NodeId::new(1)];
        ids.sort();
        assert_eq!(ids, NodeId::all(3).collect::<Vec<_>>());
    }

    #[test]
    fn all_yields_exactly_n_ids() {
        assert_eq!(NodeId::all(0).count(), 0);
        assert_eq!(NodeId::all(7).count(), 7);
        assert_eq!(NodeId::all(7).last(), Some(NodeId::new(6)));
    }

    #[test]
    fn debug_and_display_are_nonempty() {
        let v = NodeId::new(3);
        assert_eq!(format!("{v:?}"), "v3");
        assert_eq!(format!("{v}"), "v3");
    }
}
