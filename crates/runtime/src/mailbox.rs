//! Per-node mailboxes: the arrival side of the runtime.
//!
//! Under the synchronizers a delivery copy that survives its
//! [`crate::link::LinkModel`] lands in the destination node's [`Mailbox`] at
//! its scheduled round; arrivals accumulate there until that round's
//! delivery phase drains the mailbox and hands each envelope to the node's
//! protocol. The event engine has no such phase — the event that delivers a
//! copy also dispatches it — so it keeps no mailboxes.

use crate::event::VirtualTime;
use dynspread_graph::NodeId;
use std::collections::VecDeque;

/// One delivered message copy waiting to be consumed.
#[derive(Clone, Debug)]
pub struct Envelope<M> {
    /// Arrival virtual time.
    pub at: VirtualTime,
    /// Sender.
    pub from: NodeId,
    /// Payload.
    pub msg: M,
}

/// A FIFO of delivered-but-unconsumed messages for one node.
///
/// # Examples
///
/// ```
/// use dynspread_graph::NodeId;
/// use dynspread_runtime::mailbox::Mailbox;
///
/// let mut mb = Mailbox::new();
/// mb.deliver(3, NodeId::new(1), "hi");
/// assert_eq!(mb.len(), 1);
/// let env = mb.pop().unwrap();
/// assert_eq!((env.at, env.from, env.msg), (3, NodeId::new(1), "hi"));
/// assert!(mb.pop().is_none());
/// ```
#[derive(Clone, Debug)]
pub struct Mailbox<M> {
    queue: VecDeque<Envelope<M>>,
    delivered_total: u64,
    high_water: usize,
}

impl<M> Mailbox<M> {
    /// Creates an empty mailbox.
    pub fn new() -> Self {
        Mailbox {
            queue: VecDeque::new(),
            delivered_total: 0,
            high_water: 0,
        }
    }

    /// Creates an empty mailbox with pre-allocated envelope storage.
    ///
    /// The ring buffer is the envelope pool: popped envelopes hand their
    /// slot straight back, and the buffer only ever grows to the node's
    /// high-water backlog — engines that create thousands of mailboxes
    /// seed each with a small capacity so steady-state delivery never
    /// allocates.
    pub fn with_capacity(cap: usize) -> Self {
        Mailbox {
            queue: VecDeque::with_capacity(cap),
            delivered_total: 0,
            high_water: 0,
        }
    }

    /// Records the arrival of one message copy.
    pub fn deliver(&mut self, at: VirtualTime, from: NodeId, msg: M) {
        self.queue.push_back(Envelope { at, from, msg });
        self.delivered_total += 1;
        self.high_water = self.high_water.max(self.queue.len());
    }

    /// Consumes the oldest waiting envelope.
    pub fn pop(&mut self) -> Option<Envelope<M>> {
        self.queue.pop_front()
    }

    /// Number of waiting envelopes.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no envelopes are waiting.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Total copies ever delivered to this mailbox.
    pub fn delivered_total(&self) -> u64 {
        self.delivered_total
    }

    /// Maximum queue depth ever observed (backlog high-water mark).
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

impl<M> Default for Mailbox<M> {
    fn default() -> Self {
        Mailbox::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_stats() {
        let mut mb = Mailbox::new();
        mb.deliver(1, NodeId::new(0), 'a');
        mb.deliver(1, NodeId::new(2), 'b');
        mb.deliver(2, NodeId::new(0), 'c');
        assert_eq!(mb.high_water(), 3);
        assert_eq!(mb.delivered_total(), 3);
        assert_eq!(mb.pop().unwrap().msg, 'a');
        assert_eq!(mb.pop().unwrap().msg, 'b');
        mb.deliver(3, NodeId::new(1), 'd');
        assert_eq!(mb.high_water(), 3, "high water is a max, not current");
        assert_eq!(mb.pop().unwrap().msg, 'c');
        assert_eq!(mb.pop().unwrap().msg, 'd');
        assert!(mb.is_empty());
        assert_eq!(mb.delivered_total(), 4);
    }
}
