//! The Multi-Paxos message vocabulary.

use ratc_types::ProcessId;

use super::ballot::Ballot;

/// A slot (position) in the replicated log.
pub type Slot = u64;

/// Messages exchanged by the Multi-Paxos state machines.
///
/// The command type `C` is chosen by the embedding protocol (the baseline TCS
/// uses its certification-log entries; a Paxos-backed configuration service
/// would use configuration records).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PaxosMsg<C> {
    /// Phase 1a: a proposer asks acceptors to join `ballot`.
    Prepare {
        /// The ballot being prepared.
        ballot: Ballot,
    },
    /// Phase 1b: an acceptor promises not to accept lower ballots and reports
    /// everything it has accepted so far.
    Promise {
        /// The ballot being promised.
        ballot: Ballot,
        /// The acceptor making the promise. Carried explicitly so the
        /// proposer counts *distinct* acceptors — a duplicated or re-sent
        /// promise must not count towards the quorum twice.
        acceptor: ProcessId,
        /// Previously accepted `(slot, ballot, command)` triples.
        accepted: Vec<(Slot, Ballot, C)>,
    },
    /// Phase 2a: the proposer asks acceptors to accept `command` at `slot`.
    Accept {
        /// The proposer's ballot.
        ballot: Ballot,
        /// The log slot.
        slot: Slot,
        /// The proposed command.
        command: C,
    },
    /// Phase 2b: an acceptor acknowledges having accepted `slot` at `ballot`.
    Accepted {
        /// The ballot at which the command was accepted.
        ballot: Ballot,
        /// The log slot.
        slot: Slot,
        /// The acceptor that accepted.
        acceptor: ProcessId,
    },
    /// The proposer announces that `slot` has been chosen (learner
    /// notification).
    Chosen {
        /// The log slot.
        slot: Slot,
        /// The chosen command.
        command: C,
    },
    /// An acceptor refuses a message because it has promised a higher ballot.
    Nack {
        /// The ballot that was refused.
        rejected: Ballot,
        /// The higher ballot the acceptor has promised.
        promised: Ballot,
    },
}

impl<C> PaxosMsg<C> {
    /// A short name for metrics and traces.
    pub fn kind(&self) -> &'static str {
        match self {
            PaxosMsg::Prepare { .. } => "prepare",
            PaxosMsg::Promise { .. } => "promise",
            PaxosMsg::Accept { .. } => "accept",
            PaxosMsg::Accepted { .. } => "accepted",
            PaxosMsg::Chosen { .. } => "chosen",
            PaxosMsg::Nack { .. } => "nack",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds() {
        let b = Ballot::default();
        assert_eq!(PaxosMsg::<u8>::Prepare { ballot: b }.kind(), "prepare");
        assert_eq!(
            PaxosMsg::<u8>::Promise {
                ballot: b,
                acceptor: ProcessId::new(1),
                accepted: vec![]
            }
            .kind(),
            "promise"
        );
        assert_eq!(
            PaxosMsg::Accept {
                ballot: b,
                slot: 0,
                command: 1u8
            }
            .kind(),
            "accept"
        );
        assert_eq!(
            PaxosMsg::<u8>::Accepted {
                ballot: b,
                slot: 0,
                acceptor: ProcessId::new(1)
            }
            .kind(),
            "accepted"
        );
        assert_eq!(
            PaxosMsg::Chosen {
                slot: 0,
                command: 1u8
            }
            .kind(),
            "chosen"
        );
        assert_eq!(
            PaxosMsg::<u8>::Nack {
                rejected: b,
                promised: b
            }
            .kind(),
            "nack"
        );
    }
}
