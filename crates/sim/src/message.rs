//! Message payloads and bandwidth accounting.
//!
//! Section 1.3: "in each round, each node can send messages containing a
//! constant number of tokens and O(log n) additional bits to its neighbors."
//! We fix the constant at **one token per message** (the strictest reading,
//! and the one used by all the paper's algorithms), plus O(log n) control
//! bits.
//!
//! Protocols define their own payload enums and implement [`MessagePayload`]
//! so the simulator can (a) enforce the bandwidth constraint and (b) classify
//! messages for the meter, mirroring the paper's proofs which bound the three
//! message types — token, completeness announcement, token request —
//! separately (Theorem 3.1).

/// Classification of a message for metering purposes.
///
/// The classes mirror the message types distinguished in the proofs of
/// Theorems 3.1 and 3.5, plus the classes used by Algorithm 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MessageClass {
    /// A token transfer (type 1 in Theorem 3.1).
    Token,
    /// A completeness announcement (type 2).
    Completeness,
    /// A token request (type 3).
    Request,
    /// A random-walk token step (Algorithm 2, phase 1).
    Walk,
    /// A center self-announcement (Algorithm 2; see the reproduction notes
    /// in `dynspread_core::oblivious` — bounded by `TC(E)`).
    CenterAnnounce,
    /// Any other control traffic.
    Control,
}

impl MessageClass {
    /// All classes, for iteration in reports.
    pub const ALL: [MessageClass; 6] = [
        MessageClass::Token,
        MessageClass::Completeness,
        MessageClass::Request,
        MessageClass::Walk,
        MessageClass::CenterAnnounce,
        MessageClass::Control,
    ];

    /// A dense index for array-backed counters.
    #[inline]
    pub const fn index(self) -> usize {
        match self {
            MessageClass::Token => 0,
            MessageClass::Completeness => 1,
            MessageClass::Request => 2,
            MessageClass::Walk => 3,
            MessageClass::CenterAnnounce => 4,
            MessageClass::Control => 5,
        }
    }

    /// Short label for tables.
    pub const fn label(self) -> &'static str {
        match self {
            MessageClass::Token => "token",
            MessageClass::Completeness => "completeness",
            MessageClass::Request => "request",
            MessageClass::Walk => "walk",
            MessageClass::CenterAnnounce => "center-announce",
            MessageClass::Control => "control",
        }
    }
}

impl std::fmt::Display for MessageClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A protocol message payload.
///
/// Implementations must report how many tokens they carry (for the
/// bandwidth check: at most [`MAX_TOKENS_PER_MESSAGE`]) and their
/// [`MessageClass`] for metering.
pub trait MessagePayload: Clone {
    /// Number of tokens carried (0 for pure control messages).
    fn token_count(&self) -> usize;

    /// Meter classification.
    fn class(&self) -> MessageClass;
}

/// The bandwidth constraint: tokens per message.
pub const MAX_TOKENS_PER_MESSAGE: usize = 1;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_indices_are_dense_and_distinct() {
        let mut seen = [false; MessageClass::ALL.len()];
        for c in MessageClass::ALL {
            assert!(!seen[c.index()], "duplicate index for {c}");
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn labels_are_nonempty_and_displayed() {
        for c in MessageClass::ALL {
            assert!(!c.label().is_empty());
            assert_eq!(format!("{c}"), c.label());
        }
    }
}
