//! Progress (token-learning) curve analysis.
//!
//! The Section 2 lower bound is a statement about *progress per round*:
//! the adversary caps token learnings at `O(log n)` per round. These
//! helpers turn the tracker's per-round learning counts into the
//! quantities the experiments report.

/// Cumulative learning curve: entry `r` is the total learnings in rounds
/// `1..=r+1`.
pub fn cumulative(learnings_per_round: &[u64]) -> Vec<u64> {
    let mut total = 0u64;
    learnings_per_round
        .iter()
        .map(|&x| {
            total += x;
            total
        })
        .collect()
}

/// Fraction of rounds with zero learnings (the adversary's "stall rate").
pub fn stall_fraction(learnings_per_round: &[u64]) -> f64 {
    if learnings_per_round.is_empty() {
        return 0.0;
    }
    learnings_per_round.iter().filter(|&&x| x == 0).count() as f64
        / learnings_per_round.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cumulative_sums() {
        assert_eq!(cumulative(&[1, 0, 2, 3]), vec![1, 1, 3, 6]);
        assert!(cumulative(&[]).is_empty());
    }

    #[test]
    fn stall_fraction_counts_zero_rounds() {
        assert_eq!(stall_fraction(&[0, 1, 0, 0]), 0.75);
        assert_eq!(stall_fraction(&[]), 0.0);
        assert_eq!(stall_fraction(&[1, 1]), 0.0);
    }
}
