//! Message-complexity metering (Definition 1.1).
//!
//! "The message complexity of a distributed algorithm is the total number of
//! messages sent in a worst-case execution. If communication is by local
//! broadcast, each local broadcast by some node counts as one message. If
//! communication is by unicast, messages to different neighbors are counted
//! separately."
//!
//! The meter counts at *send time* and classifies by [`MessageClass`].

use crate::message::MessageClass;
use dynspread_graph::Round;

/// Totals and per-class breakdown of message complexity.
///
/// # Examples
///
/// ```
/// use dynspread_sim::meter::MessageMeter;
/// use dynspread_sim::message::MessageClass;
///
/// let mut m = MessageMeter::new();
/// m.begin_round(1);
/// m.record_unicast(MessageClass::Request);
/// m.record_unicast(MessageClass::Token);
/// m.record_broadcast(MessageClass::Token);
/// assert_eq!(m.total(), 3);
/// assert_eq!(m.by_class(MessageClass::Token), 2);
/// ```
#[derive(Clone, Debug)]
pub struct MessageMeter {
    unicast_total: u64,
    broadcast_total: u64,
    by_class: [u64; MessageClass::ALL.len()],
    /// The open round (1-based); 0 before the first `begin_round`.
    current_round: Round,
    /// Deterministic per-class attribution sampling factor (1 = exact);
    /// see [`MessageMeter::record_broadcast_batch`].
    sampling: u64,
}

impl Default for MessageMeter {
    fn default() -> Self {
        MessageMeter::new()
    }
}

impl MessageMeter {
    /// Creates a zeroed, exact (`sampling = 1`) meter.
    pub fn new() -> Self {
        MessageMeter {
            unicast_total: 0,
            broadcast_total: 0,
            by_class: [0; MessageClass::ALL.len()],
            current_round: 0,
            sampling: 1,
        }
    }

    /// Creates a meter whose per-class attribution is sampled at factor
    /// `sampling` (clamped to ≥ 1); totals remain exact. Engines that
    /// batch their metering inspect only every `sampling`-th message's
    /// class and hand the tallies to
    /// [`MessageMeter::record_broadcast_batch`], which scales them back.
    pub fn with_sampling(sampling: u64) -> Self {
        MessageMeter {
            sampling: sampling.max(1),
            ..MessageMeter::new()
        }
    }

    /// The deterministic attribution sampling factor (1 = exact).
    pub fn sampling(&self) -> u64 {
        self.sampling
    }

    /// Opens accounting for the given round (1-based, strictly increasing).
    ///
    /// # Panics
    ///
    /// Panics if rounds are opened out of order.
    pub fn begin_round(&mut self, round: Round) {
        let expected = self.current_round + 1;
        assert_eq!(round, expected, "rounds must be opened in order");
        self.current_round = round;
    }

    /// Records one unicast message of the given class.
    ///
    /// # Panics
    ///
    /// Panics if no round is open.
    pub fn record_unicast(&mut self, class: MessageClass) {
        self.record_unicasts(class, 1);
    }

    /// Records `count` unicast messages of one class at once — the KT0
    /// hello exchange charges two per inserted edge, thousands on a rewire
    /// round.
    ///
    /// # Panics
    ///
    /// Panics if no round is open.
    pub fn record_unicasts(&mut self, class: MessageClass, count: u64) {
        self.assert_round_open();
        self.unicast_total += count;
        self.by_class[class.index()] += count;
    }

    /// Records one local broadcast of the given class (counts 1 message
    /// regardless of how many neighbors receive it).
    ///
    /// # Panics
    ///
    /// Panics if no round is open.
    pub fn record_broadcast(&mut self, class: MessageClass) {
        self.assert_round_open();
        self.broadcast_total += 1;
        self.by_class[class.index()] += 1;
    }

    /// Records one round's local broadcasts in bulk: `total` messages,
    /// with the (possibly sampled) per-class tallies in `class_counts`.
    ///
    /// This is the flooding arm's hot-path replacement for `total` calls
    /// to [`MessageMeter::record_broadcast`] — at `n = 8192` the grid's
    /// flooding cell otherwise spends its time on ~200 M per-message
    /// meter updates. The **total is always exact** (Definition 1.1 is a
    /// count of sends, known without inspecting payloads). Per-class
    /// attribution depends on the meter's sampling factor `s`:
    ///
    /// * `s = 1` (the default): `class_counts` are exact tallies and must
    ///   sum to `total`.
    /// * `s > 1`: the engine inspected only every `s`-th message
    ///   (deterministically — message index within the round, so runs
    ///   are reproducible), and each sampled tally is scaled by `s` with
    ///   the rounding remainder assigned to the round's most-sampled
    ///   class. For class-homogeneous traffic (the flooding protocols)
    ///   the attribution is still exact after the adjustment; mixed
    ///   traffic gets a ±`s` estimate per class. The factor is recorded
    ///   in `RunReport::meter_sampling` so downstream consumers know.
    ///
    /// # Panics
    ///
    /// Panics if no round is open, or (debug) if exact tallies do not sum
    /// to `total` when `s = 1`.
    pub fn record_broadcast_batch(
        &mut self,
        class_counts: &[u64; MessageClass::ALL.len()],
        total: u64,
    ) {
        self.assert_round_open();
        self.broadcast_total += total;
        if total == 0 {
            return;
        }
        if self.sampling <= 1 {
            debug_assert_eq!(
                class_counts.iter().sum::<u64>(),
                total,
                "exact tallies must sum to the total"
            );
            for (slot, &c) in self.by_class.iter_mut().zip(class_counts) {
                *slot += c;
            }
        } else {
            // Scale the sampled tallies back to the exact total: every
            // class gets count × s, except the most-sampled class, which
            // absorbs the rounding remainder (non-negative because the
            // most-sampled class has at least one sample).
            let arg = class_counts
                .iter()
                .enumerate()
                .max_by_key(|&(_, &c)| c)
                .map(|(i, _)| i)
                .expect("classes are nonempty");
            let others: u64 = class_counts
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != arg)
                .map(|(_, &c)| c * self.sampling)
                .sum();
            debug_assert!(others <= total, "sampled attribution exceeds the total");
            for (i, (slot, &c)) in self.by_class.iter_mut().zip(class_counts).enumerate() {
                *slot += if i == arg {
                    total - others
                } else {
                    c * self.sampling
                };
            }
        }
    }

    fn assert_round_open(&self) {
        assert!(self.current_round > 0, "no round open");
    }

    /// Total message complexity (Definition 1.1).
    pub fn total(&self) -> u64 {
        self.unicast_total + self.broadcast_total
    }

    /// Total unicast messages.
    pub fn unicast_total(&self) -> u64 {
        self.unicast_total
    }

    /// Total local-broadcast messages.
    pub fn broadcast_total(&self) -> u64 {
        self.broadcast_total
    }

    /// Total messages of a class.
    pub fn by_class(&self, class: MessageClass) -> u64 {
        self.by_class[class.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counted_record_equals_that_many_single_records() {
        let (mut one_by_one, mut counted) = (MessageMeter::new(), MessageMeter::new());
        for m in [&mut one_by_one, &mut counted] {
            m.begin_round(1);
            m.record_unicast(MessageClass::Token);
            m.begin_round(2);
        }
        for _ in 0..6 {
            one_by_one.record_unicast(MessageClass::Control);
        }
        counted.record_unicasts(MessageClass::Control, 6);
        counted.record_unicasts(MessageClass::Control, 0);
        assert_eq!(counted.total(), 7);
        assert_eq!(counted.by_class(MessageClass::Control), 6);
        assert_eq!(counted.unicast_total(), one_by_one.unicast_total());
    }

    #[test]
    fn totals_and_classes_accumulate() {
        let mut m = MessageMeter::new();
        m.begin_round(1);
        m.record_unicast(MessageClass::Token);
        m.record_unicast(MessageClass::Token);
        m.record_unicast(MessageClass::Request);
        m.begin_round(2);
        m.record_broadcast(MessageClass::Completeness);
        assert_eq!(m.total(), 4);
        assert_eq!(m.unicast_total(), 3);
        assert_eq!(m.broadcast_total(), 1);
        assert_eq!(m.by_class(MessageClass::Token), 2);
        assert_eq!(m.by_class(MessageClass::Request), 1);
        assert_eq!(m.by_class(MessageClass::Completeness), 1);
        assert_eq!(m.by_class(MessageClass::Walk), 0);
    }

    #[test]
    #[should_panic(expected = "in order")]
    fn out_of_order_round_panics() {
        let mut m = MessageMeter::new();
        m.begin_round(2);
    }

    #[test]
    #[should_panic(expected = "no round open")]
    fn recording_before_round_panics() {
        let mut m = MessageMeter::new();
        m.record_unicast(MessageClass::Token);
    }

    #[test]
    fn exact_batch_matches_per_message_recording() {
        let mut a = MessageMeter::new();
        let mut b = MessageMeter::new();
        a.begin_round(1);
        b.begin_round(1);
        for _ in 0..5 {
            a.record_broadcast(MessageClass::Token);
        }
        a.record_broadcast(MessageClass::Completeness);
        let mut counts = [0u64; MessageClass::ALL.len()];
        counts[MessageClass::Token.index()] = 5;
        counts[MessageClass::Completeness.index()] = 1;
        b.record_broadcast_batch(&counts, 6);
        assert_eq!(a.total(), b.total());
        assert_eq!(a.broadcast_total(), b.broadcast_total());
        for c in MessageClass::ALL {
            assert_eq!(a.by_class(c), b.by_class(c));
        }
    }

    #[test]
    fn sampled_batch_keeps_exact_totals_and_homogeneous_attribution() {
        // 10 messages, factor 4: the engine samples indices 0, 4, 8 → 3
        // tallies, all Token. Scaling 3 × 4 = 12 overshoots; the
        // remainder adjustment lands the class back on the exact 10.
        let mut m = MessageMeter::with_sampling(4);
        assert_eq!(m.sampling(), 4);
        m.begin_round(1);
        let mut counts = [0u64; MessageClass::ALL.len()];
        counts[MessageClass::Token.index()] = 3;
        m.record_broadcast_batch(&counts, 10);
        assert_eq!(m.total(), 10, "totals are always exact");
        assert_eq!(m.by_class(MessageClass::Token), 10);
        assert_eq!(m.broadcast_total(), 10);
    }

    #[test]
    fn sampled_batch_mixed_classes_preserves_the_total() {
        let mut m = MessageMeter::with_sampling(4);
        m.begin_round(1);
        // 9 messages, samples at 0, 4, 8: one Token, two Completeness.
        let mut counts = [0u64; MessageClass::ALL.len()];
        counts[MessageClass::Token.index()] = 1;
        counts[MessageClass::Completeness.index()] = 2;
        m.record_broadcast_batch(&counts, 9);
        assert_eq!(m.total(), 9);
        let sum: u64 = MessageClass::ALL.iter().map(|&c| m.by_class(c)).sum();
        assert_eq!(sum, 9, "per-class attribution sums to the exact total");
        assert_eq!(m.by_class(MessageClass::Token), 4);
        assert_eq!(m.by_class(MessageClass::Completeness), 5);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut m = MessageMeter::with_sampling(8);
        m.begin_round(1);
        m.record_broadcast_batch(&[0u64; MessageClass::ALL.len()], 0);
        assert_eq!(m.total(), 0);
    }

    #[test]
    #[should_panic(expected = "no round open")]
    fn batch_before_round_panics() {
        let mut m = MessageMeter::new();
        m.record_broadcast_batch(&[0u64; MessageClass::ALL.len()], 0);
    }
}
