//! The Multi-Paxos proposer (stable leader) state machine.

use std::collections::{BTreeMap, BTreeSet};

use ratc_types::ProcessId;

use super::ballot::Ballot;
use super::messages::{PaxosMsg, Slot};
use super::quorum;

/// Phase of the proposer's ballot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Phase 1 has not completed; commands are queued.
    Preparing,
    /// Phase 1 completed; commands go straight to phase 2.
    Leading,
}

/// Messages produced by a proposer step, addressed to their recipients.
pub type Outgoing<C> = Vec<(ProcessId, PaxosMsg<C>)>;

/// A Multi-Paxos proposer: runs phase 1 once for its ballot, then assigns
/// commands to consecutive slots using phase 2 only (the standard stable
/// leader optimisation).
///
/// Like [`Acceptor`](super::acceptor::Acceptor), the proposer is a pure state
/// machine: every input returns the messages to send, plus (from
/// [`Proposer::handle`]) the commands that became chosen as a result.
#[derive(Debug, Clone)]
pub struct Proposer<C> {
    id: ProcessId,
    acceptors: Vec<ProcessId>,
    ballot: Ballot,
    phase: Phase,
    promises: BTreeSet<ProcessId>,
    /// Highest-ballot accepted command reported per slot during phase 1.
    phase1_accepted: BTreeMap<Slot, (Ballot, C)>,
    next_slot: Slot,
    /// Acks per in-flight slot.
    pending: BTreeMap<Slot, (C, BTreeSet<ProcessId>)>,
    /// Commands queued while phase 1 is still running.
    queued: Vec<C>,
}

impl<C: Clone> Proposer<C> {
    /// Creates a proposer with identifier `id` for the given acceptor group,
    /// using ballot round `round`.
    pub fn new(id: ProcessId, acceptors: Vec<ProcessId>, round: u64) -> Self {
        Proposer {
            id,
            acceptors,
            ballot: Ballot::new(round, id),
            phase: Phase::Preparing,
            promises: BTreeSet::new(),
            phase1_accepted: BTreeMap::new(),
            next_slot: 0,
            pending: BTreeMap::new(),
            queued: Vec::new(),
        }
    }

    /// The proposer's identifier.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The proposer's current ballot.
    pub fn ballot(&self) -> Ballot {
        self.ballot
    }

    /// Returns `true` once phase 1 has completed and the proposer is the
    /// stable leader for its ballot.
    pub fn is_leading(&self) -> bool {
        self.phase == Phase::Leading
    }

    /// This ballot's `Prepare` for every acceptor.
    fn prepares(&self) -> impl Iterator<Item = (ProcessId, PaxosMsg<C>)> + '_ {
        let ballot = self.ballot;
        self.acceptors
            .iter()
            .map(move |a| (*a, PaxosMsg::Prepare { ballot }))
    }

    /// This ballot's `Accept` of `command` at `slot` for every acceptor.
    fn accepts<'a>(
        &'a self,
        slot: Slot,
        command: &'a C,
    ) -> impl Iterator<Item = (ProcessId, PaxosMsg<C>)> + 'a {
        let ballot = self.ballot;
        self.acceptors.iter().map(move |a| {
            let command = command.clone();
            (
                *a,
                PaxosMsg::Accept {
                    ballot,
                    slot,
                    command,
                },
            )
        })
    }

    /// Starts phase 1: returns `Prepare` messages for every acceptor.
    pub fn start_phase1(&mut self) -> Outgoing<C> {
        self.phase = Phase::Preparing;
        self.promises.clear();
        self.prepares().collect()
    }

    /// Abandons the current ballot and starts phase 1 again with a higher one
    /// (used after receiving a nack).
    pub fn advance_ballot(&mut self) -> Outgoing<C> {
        self.ballot = self.ballot.successor(self.id);
        self.start_phase1()
    }

    /// Submits a command for replication. If phase 1 has not completed yet the
    /// command is queued and will be proposed as soon as it does.
    pub fn propose(&mut self, command: C) -> Outgoing<C> {
        match self.phase {
            Phase::Preparing => {
                self.queued.push(command);
                Vec::new()
            }
            Phase::Leading => self.send_accepts(command),
        }
    }

    fn send_accepts(&mut self, command: C) -> Outgoing<C> {
        let slot = self.next_slot;
        self.next_slot += 1;
        let out = self.accepts(slot, &command).collect();
        self.pending.insert(slot, (command, BTreeSet::new()));
        out
    }

    /// Returns `true` while the proposer is waiting for something: phase 1
    /// completion, or acceptances of in-flight slots. Embedding protocols use
    /// this to decide whether to arm a retransmission timer, and to tell when
    /// post-restart log recovery (phase 1 plus re-choosing every recovered
    /// slot) has finished.
    pub fn has_pending(&self) -> bool {
        self.phase == Phase::Preparing || !self.pending.is_empty()
    }

    /// Re-sends every message whose reply is still outstanding: the phase-1
    /// `Prepare` while preparing, and a phase-2 `Accept` for every in-flight
    /// slot. Safe under message loss, duplication and reordering — acceptors
    /// treat repeats of the same ballot idempotently — and required for
    /// liveness on lossy links, where a single dropped `Accept` would
    /// otherwise strand its slot forever.
    pub fn retransmit(&self) -> Outgoing<C> {
        match self.phase {
            Phase::Preparing => self.prepares().collect(),
            Phase::Leading => self
                .pending
                .iter()
                .flat_map(|(slot, (command, _))| self.accepts(*slot, command))
                .collect(),
        }
    }

    /// Handles one message addressed to the proposer. Returns the messages to
    /// send and the `(slot, command)` pairs newly learned to be chosen.
    pub fn handle(&mut self, msg: PaxosMsg<C>) -> (Outgoing<C>, Vec<(Slot, C)>) {
        match msg {
            PaxosMsg::Promise {
                ballot,
                acceptor,
                accepted,
            } => {
                if ballot != self.ballot || self.phase == Phase::Leading {
                    return (Vec::new(), Vec::new());
                }
                // Track the highest-ballot accepted value per slot.
                for (slot, b, c) in accepted {
                    let replace = match self.phase1_accepted.get(&slot) {
                        Some((existing, _)) => b > *existing,
                        None => true,
                    };
                    if replace {
                        self.phase1_accepted.insert(slot, (b, c));
                    }
                }
                // Count *distinct* acceptors: a duplicated or re-transmitted
                // promise must not reach quorum with fewer than a majority of
                // real acceptors (lossy/duplicating networks deliver both).
                self.promises.insert(acceptor);
                if self.promises.len() >= quorum(self.acceptors.len()) {
                    self.phase = Phase::Leading;
                    let mut out = Vec::new();
                    // Re-propose values reported in phase 1 at their slots.
                    let recovered: Vec<(Slot, C)> = self
                        .phase1_accepted
                        .iter()
                        .map(|(slot, (_, c))| (*slot, c.clone()))
                        .collect();
                    for (slot, command) in recovered {
                        self.next_slot = self.next_slot.max(slot + 1);
                        out.extend(self.accepts(slot, &command));
                        self.pending.insert(slot, (command, BTreeSet::new()));
                    }
                    // Flush commands queued while preparing.
                    let queued = std::mem::take(&mut self.queued);
                    for command in queued {
                        out.extend(self.send_accepts(command));
                    }
                    (out, Vec::new())
                } else {
                    (Vec::new(), Vec::new())
                }
            }
            PaxosMsg::Accepted {
                ballot,
                slot,
                acceptor,
            } => {
                if ballot != self.ballot {
                    return (Vec::new(), Vec::new());
                }
                let quorum_size = quorum(self.acceptors.len());
                let mut newly_chosen = Vec::new();
                let mut reached = false;
                if let Some((_, acks)) = self.pending.get_mut(&slot) {
                    acks.insert(acceptor);
                    reached = acks.len() >= quorum_size;
                }
                if reached {
                    if let Some((command, _)) = self.pending.remove(&slot) {
                        newly_chosen.push((slot, command));
                    }
                }
                let mut out = Vec::new();
                for (slot, command) in &newly_chosen {
                    for a in &self.acceptors {
                        if *a != self.id {
                            out.push((
                                *a,
                                PaxosMsg::Chosen {
                                    slot: *slot,
                                    command: command.clone(),
                                },
                            ));
                        }
                    }
                }
                (out, newly_chosen)
            }
            PaxosMsg::Nack { promised, .. } => {
                // Someone holds a higher ballot; our ballot is dead. The
                // embedding protocol decides whether to retry via
                // `advance_ballot`. Record the higher ballot so the retry
                // overtakes it.
                if promised > self.ballot {
                    self.ballot = Ballot::new(promised.round, self.id);
                }
                (Vec::new(), Vec::new())
            }
            PaxosMsg::Prepare { .. } | PaxosMsg::Accept { .. } | PaxosMsg::Chosen { .. } => {
                (Vec::new(), Vec::new())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paxos::acceptor::Acceptor;

    fn pid(raw: u64) -> ProcessId {
        ProcessId::new(raw)
    }

    /// Runs a fully connected proposer + acceptors loop until no messages
    /// remain, returning chosen (slot, command) pairs in choose order.
    fn run_to_quiescence(
        proposer: &mut Proposer<u32>,
        acceptors: &mut [Acceptor<u32>],
        mut outbox: Vec<(ProcessId, PaxosMsg<u32>)>,
    ) -> Vec<(Slot, u32)> {
        let mut chosen = Vec::new();
        while let Some((to, msg)) = outbox.pop() {
            if to == proposer.id() {
                let (more, newly) = proposer.handle(msg);
                outbox.extend(more);
                chosen.extend(newly);
            } else {
                for acceptor in acceptors.iter_mut() {
                    if acceptor.id() == to {
                        let more = acceptor.handle(proposer.id(), msg.clone());
                        outbox.extend(more);
                    }
                }
            }
        }
        chosen
    }

    fn setup() -> (Proposer<u32>, Vec<Acceptor<u32>>) {
        let ids = vec![pid(0), pid(1), pid(2)];
        let proposer = Proposer::new(pid(0), ids.clone(), 0);
        let acceptors = ids.into_iter().map(Acceptor::new).collect();
        (proposer, acceptors)
    }

    #[test]
    fn phase1_then_commands_are_chosen_in_order() {
        let (mut proposer, mut acceptors) = setup();
        let mut outbox = proposer.start_phase1();
        outbox.extend(proposer.propose(10));
        outbox.extend(proposer.propose(20));
        let mut chosen = run_to_quiescence(&mut proposer, &mut acceptors, outbox);
        chosen.sort_unstable();
        assert_eq!(chosen, vec![(0, 10), (1, 20)]);
        assert!(proposer.is_leading());
        assert_eq!(proposer.ballot(), Ballot::new(0, pid(0)));
    }

    #[test]
    fn commands_queued_before_phase1_are_not_lost() {
        let (mut proposer, mut acceptors) = setup();
        // Propose before starting phase 1: the command must be queued.
        assert!(proposer.propose(77).is_empty());
        let outbox = proposer.start_phase1();
        let chosen = run_to_quiescence(&mut proposer, &mut acceptors, outbox);
        assert_eq!(chosen, vec![(0, 77)]);
    }

    #[test]
    fn phase1_recovers_previously_accepted_values() {
        let ids = vec![pid(0), pid(1), pid(2)];
        let mut acceptors: Vec<Acceptor<u32>> = ids.iter().copied().map(Acceptor::new).collect();
        // A previous leader (pid 9) got command 5 accepted at slot 0 on one acceptor.
        acceptors[1].handle(
            pid(9),
            PaxosMsg::Accept {
                ballot: Ballot::new(1, pid(9)),
                slot: 0,
                command: 5,
            },
        );
        let mut proposer = Proposer::new(pid(0), ids, 2);
        let outbox = proposer.start_phase1();
        let chosen = run_to_quiescence(&mut proposer, &mut acceptors, outbox);
        assert!(
            chosen.contains(&(0, 5)),
            "recovered value must be re-chosen"
        );
    }

    #[test]
    fn nack_advances_ballot() {
        let (mut proposer, _) = setup();
        let _ = proposer.start_phase1();
        let (out, chosen) = proposer.handle(PaxosMsg::Nack {
            rejected: Ballot::new(0, pid(0)),
            promised: Ballot::new(5, pid(2)),
        });
        assert!(out.is_empty());
        assert!(chosen.is_empty());
        let retry = proposer.advance_ballot();
        assert_eq!(retry.len(), 3);
        assert!(proposer.ballot() > Ballot::new(5, pid(2)));
    }

    /// Pinned regression (chaos nemesis finding): a *duplicated* promise from
    /// one acceptor must not count towards the phase-1 quorum twice. The old
    /// implementation counted promises with a synthetic counter, so one
    /// duplicated promise let a proposer lead with a single real acceptor.
    #[test]
    fn duplicated_promise_does_not_reach_quorum() {
        let ids = vec![pid(0), pid(1), pid(2)];
        let mut proposer: Proposer<u32> = Proposer::new(pid(0), ids, 0);
        let _ = proposer.start_phase1();
        let promise = PaxosMsg::Promise {
            ballot: proposer.ballot(),
            acceptor: pid(1),
            accepted: vec![],
        };
        let _ = proposer.handle(promise.clone());
        let _ = proposer.handle(promise);
        assert!(
            !proposer.is_leading(),
            "one acceptor promising twice is not a majority of three"
        );
        // A second, distinct acceptor completes the quorum.
        let _ = proposer.handle(PaxosMsg::Promise {
            ballot: proposer.ballot(),
            acceptor: pid(2),
            accepted: vec![],
        });
        assert!(proposer.is_leading());
    }

    #[test]
    fn retransmit_repeats_outstanding_work_and_recovers_lost_accepts() {
        let (mut proposer, mut acceptors) = setup();
        // Phase 1 never delivered: retransmit re-sends Prepare to everyone.
        let _ = proposer.start_phase1();
        assert!(proposer.has_pending() || proposer.retransmit().len() == 3);
        let outbox = proposer.retransmit();
        assert_eq!(outbox.len(), 3);
        assert!(outbox
            .iter()
            .all(|(_, m)| matches!(m, PaxosMsg::Prepare { .. })));
        let chosen = run_to_quiescence(&mut proposer, &mut acceptors, outbox);
        assert!(chosen.is_empty());
        assert!(proposer.is_leading());

        // An Accept is "lost" (never delivered): the slot stays pending, and
        // retransmission alone drives it to chosen.
        let lost = proposer.propose(9);
        drop(lost);
        assert!(proposer.has_pending());
        let retry = proposer.retransmit();
        assert!(retry
            .iter()
            .all(|(_, m)| matches!(m, PaxosMsg::Accept { slot: 0, .. })));
        let chosen = run_to_quiescence(&mut proposer, &mut acceptors, retry);
        assert_eq!(chosen, vec![(0, 9)]);
        assert!(!proposer.has_pending());
    }

    #[test]
    fn stale_ballot_messages_are_ignored() {
        let (mut proposer, mut acceptors) = setup();
        let outbox = proposer.start_phase1();
        let _ = run_to_quiescence(&mut proposer, &mut acceptors, outbox);
        // An Accepted for a different ballot is ignored.
        let (out, chosen) = proposer.handle(PaxosMsg::Accepted {
            ballot: Ballot::new(9, pid(3)),
            slot: 0,
            acceptor: pid(1),
        });
        assert!(out.is_empty());
        assert!(chosen.is_empty());
        // So are stray Prepare/Accept/Chosen messages.
        assert!(proposer
            .handle(PaxosMsg::Prepare {
                ballot: Ballot::bottom()
            })
            .0
            .is_empty());
    }
}
