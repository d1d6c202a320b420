//! The Paxos acceptor state machine.

use std::collections::BTreeMap;

use ratc_types::ProcessId;

use crate::ballot::Ballot;
use crate::messages::{PaxosMsg, Slot};

/// An acceptor: promises ballots and accepts commands per slot.
///
/// The acceptor is a pure state machine: [`Acceptor::handle`] consumes one
/// message and returns the messages to send in response (each paired with its
/// destination).
#[derive(Debug, Clone)]
pub struct Acceptor<C> {
    id: ProcessId,
    promised: Ballot,
    accepted: BTreeMap<Slot, (Ballot, C)>,
}

impl<C: Clone> Acceptor<C> {
    /// Creates an acceptor with identifier `id`.
    pub fn new(id: ProcessId) -> Self {
        Acceptor {
            id,
            promised: Ballot::bottom(),
            accepted: BTreeMap::new(),
        }
    }

    /// The acceptor's identifier.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The highest ballot promised so far.
    pub fn promised(&self) -> Ballot {
        self.promised
    }

    /// The command accepted at `slot`, if any.
    pub fn accepted_at(&self, slot: Slot) -> Option<&(Ballot, C)> {
        self.accepted.get(&slot)
    }

    /// Number of slots with an accepted command.
    pub fn accepted_count(&self) -> usize {
        self.accepted.len()
    }

    /// Handles one message from `from`, returning the responses to send.
    pub fn handle(&mut self, from: ProcessId, msg: PaxosMsg<C>) -> Vec<(ProcessId, PaxosMsg<C>)> {
        match msg {
            PaxosMsg::Prepare { ballot } => {
                if ballot >= self.promised {
                    self.promised = ballot;
                    let accepted = self
                        .accepted
                        .iter()
                        .map(|(slot, (b, c))| (*slot, *b, c.clone()))
                        .collect();
                    vec![(
                        from,
                        PaxosMsg::Promise {
                            ballot,
                            acceptor: self.id,
                            accepted,
                        },
                    )]
                } else {
                    vec![(
                        from,
                        PaxosMsg::Nack {
                            rejected: ballot,
                            promised: self.promised,
                        },
                    )]
                }
            }
            PaxosMsg::Accept {
                ballot,
                slot,
                command,
            } => {
                if ballot >= self.promised {
                    self.promised = ballot;
                    self.accepted.insert(slot, (ballot, command));
                    vec![(
                        from,
                        PaxosMsg::Accepted {
                            ballot,
                            slot,
                            acceptor: self.id,
                        },
                    )]
                } else {
                    vec![(
                        from,
                        PaxosMsg::Nack {
                            rejected: ballot,
                            promised: self.promised,
                        },
                    )]
                }
            }
            // Acceptors ignore learner traffic and proposer-side messages.
            PaxosMsg::Promise { .. }
            | PaxosMsg::Accepted { .. }
            | PaxosMsg::Chosen { .. }
            | PaxosMsg::Nack { .. } => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(raw: u64) -> ProcessId {
        ProcessId::new(raw)
    }

    #[test]
    fn promises_monotonically() {
        let mut a: Acceptor<u32> = Acceptor::new(pid(1));
        assert_eq!(a.id(), pid(1));
        let b1 = Ballot::new(1, pid(9));
        let b2 = Ballot::new(2, pid(9));
        let out = a.handle(pid(9), PaxosMsg::Prepare { ballot: b2 });
        assert!(matches!(out[0].1, PaxosMsg::Promise { ballot, .. } if ballot == b2));
        // A lower prepare is nacked.
        let out = a.handle(pid(9), PaxosMsg::Prepare { ballot: b1 });
        assert!(matches!(out[0].1, PaxosMsg::Nack { promised, .. } if promised == b2));
        assert_eq!(a.promised(), b2);
    }

    #[test]
    fn accepts_at_or_above_promise() {
        let mut a: Acceptor<u32> = Acceptor::new(pid(1));
        let b1 = Ballot::new(1, pid(9));
        let out = a.handle(
            pid(9),
            PaxosMsg::Accept {
                ballot: b1,
                slot: 0,
                command: 7,
            },
        );
        assert!(matches!(
            out[0].1,
            PaxosMsg::Accepted { slot: 0, acceptor, .. } if acceptor == pid(1)
        ));
        assert_eq!(a.accepted_at(0), Some(&(b1, 7)));
        assert_eq!(a.accepted_count(), 1);

        // A stale accept at a lower ballot is nacked and does not overwrite.
        let b0 = Ballot::new(0, pid(8));
        let out = a.handle(
            pid(8),
            PaxosMsg::Accept {
                ballot: b0,
                slot: 0,
                command: 9,
            },
        );
        assert!(matches!(out[0].1, PaxosMsg::Nack { .. }));
        assert_eq!(a.accepted_at(0), Some(&(b1, 7)));
    }

    #[test]
    fn promise_reports_previously_accepted_commands() {
        let mut a: Acceptor<u32> = Acceptor::new(pid(1));
        let b1 = Ballot::new(1, pid(9));
        a.handle(
            pid(9),
            PaxosMsg::Accept {
                ballot: b1,
                slot: 3,
                command: 42,
            },
        );
        let b2 = Ballot::new(2, pid(8));
        let out = a.handle(pid(8), PaxosMsg::Prepare { ballot: b2 });
        match &out[0].1 {
            PaxosMsg::Promise { accepted, .. } => {
                assert_eq!(accepted, &vec![(3, b1, 42)]);
            }
            other => panic!("expected promise, got {other:?}"),
        }
    }

    #[test]
    fn ignores_learner_traffic() {
        let mut a: Acceptor<u32> = Acceptor::new(pid(1));
        assert!(a
            .handle(
                pid(2),
                PaxosMsg::Chosen {
                    slot: 0,
                    command: 1
                }
            )
            .is_empty());
        assert!(a
            .handle(
                pid(2),
                PaxosMsg::Nack {
                    rejected: Ballot::bottom(),
                    promised: Ballot::bottom()
                }
            )
            .is_empty());
    }
}
