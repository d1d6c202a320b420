//! Ballot numbers.

use std::fmt;

use ratc_types::ProcessId;

/// A Paxos ballot: a round number paired with the proposer's identifier, so
/// that ballots of different proposers never collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ballot {
    /// The round number (most significant component).
    pub round: u64,
    /// The proposer that owns this ballot.
    pub proposer: ProcessId,
}

impl Ballot {
    /// Creates a ballot.
    pub const fn new(round: u64, proposer: ProcessId) -> Self {
        Ballot { round, proposer }
    }

    /// The smallest possible ballot, below every real ballot.
    pub const fn bottom() -> Self {
        Ballot {
            round: 0,
            proposer: ProcessId::new(0),
        }
    }

    /// The next ballot owned by `proposer` that is strictly greater than
    /// `self`.
    pub fn successor(self, proposer: ProcessId) -> Ballot {
        Ballot {
            round: self.round + 1,
            proposer,
        }
    }
}

impl fmt::Display for Ballot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}.{}", self.round, self.proposer.as_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_round_then_proposer() {
        let p1 = ProcessId::new(1);
        let p2 = ProcessId::new(2);
        assert!(Ballot::new(1, p2) < Ballot::new(2, p1));
        assert!(Ballot::new(1, p1) < Ballot::new(1, p2));
        assert!(Ballot::bottom() <= Ballot::new(0, p1));
    }

    #[test]
    fn successor_is_strictly_greater() {
        let b = Ballot::new(3, ProcessId::new(7));
        let next = b.successor(ProcessId::new(1));
        assert!(next > b);
        assert_eq!(next.round, 4);
        assert_eq!(next.proposer, ProcessId::new(1));
    }

    #[test]
    fn display() {
        assert_eq!(Ballot::new(2, ProcessId::new(5)).to_string(), "b2.5");
    }
}
