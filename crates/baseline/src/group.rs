//! One process's membership in a Paxos group. As in Gray and Lamport's Paxos
//! Commit, every participant runs the same instance: each shard replica and
//! each transaction-manager member holds one [`PaxosMember`]. Its steps are
//! pure; the host wraps the returned messages for its group, decides what a
//! chosen command does, and owns the timers. Only the recovery gate touches
//! the host's context, to stamp `Recovered`.

use ratc_sim::{BackoffPolicy, BackoffState, Context, CtrlMilestone};
use ratc_types::{ProcessId, ShardId};

use crate::paxos::messages::Slot;
use crate::paxos::{Acceptor, Outgoing, PaxosMsg, Proposer, ReplicatedLog};

/// What one [`PaxosMember::handle`] step learned chosen: the command of a
/// `Chosen` notification, or those the leader's proposer saw reach a quorum.
pub type Chosen<C> =
    std::iter::Chain<std::option::IntoIter<(Slot, C)>, std::vec::IntoIter<(Slot, C)>>;

/// The acceptor, the learner's log and, at the leader, the proposer. The
/// acceptor and the log are durable; the rest is lost in a crash.
#[derive(Debug)]
pub struct PaxosMember<C> {
    id: ProcessId,
    group: Vec<ProcessId>,
    leads: bool,
    acceptor: Acceptor<C>,
    log: ReplicatedLog<C>,
    proposer: Option<Proposer<C>>,
    /// Bumped on restart, so a restarted leader takes a fresh ballot.
    ballot_round: u64,
    phase1_started: bool,
    /// Set from a leader restart until every slot accepted before the
    /// crash is re-chosen: the host starts no fresh work meanwhile
    /// (see [`PaxosMember::recovery_gate`]).
    recovering: bool,
    /// Gates retransmissions; reset when a slot is chosen or proposed.
    backoff: BackoffState,
}

impl<C: Clone> PaxosMember<C> {
    /// Process `id`'s membership in `group`, as its leader if `leads`.
    pub fn new(id: ProcessId, group: Vec<ProcessId>, leads: bool) -> Self {
        let mut member = PaxosMember {
            id,
            group,
            leads,
            acceptor: Acceptor::new(id),
            log: ReplicatedLog::new(),
            proposer: None,
            ballot_round: 0,
            phase1_started: false,
            recovering: false,
            backoff: BackoffState::default(),
        };
        member.proposer = member.incarnation();
        member
    }

    fn incarnation(&self) -> Option<Proposer<C>> {
        let round = self.ballot_round;
        self.leads
            .then(|| Proposer::new(self.id, self.group.clone(), round))
    }

    /// This member's process.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Every member of the group, this one included.
    pub fn group(&self) -> &[ProcessId] {
        &self.group
    }

    /// Whether this member leads the group.
    pub fn leads(&self) -> bool {
        self.leads
    }

    /// The chosen commands this member has learned.
    pub fn log(&self) -> &ReplicatedLog<C> {
        &self.log
    }

    /// Whether the leader waits for phase 1 or for a slot to be chosen.
    pub fn has_pending(&self) -> bool {
        self.proposer.as_ref().is_some_and(Proposer::has_pending)
    }

    fn reset_backoff(&mut self, now_micros: u64) {
        let salt = self.id.as_u64();
        self.backoff
            .reset(&BackoffPolicy::exponential(), salt, now_micros);
    }

    /// Starts phase 1 unless this incarnation already has.
    fn ensure_phase1(&mut self) -> Outgoing<C> {
        if self.phase1_started {
            return Vec::new();
        }
        self.phase1_started = true;
        self.proposer
            .as_mut()
            .map_or_else(Vec::new, Proposer::start_phase1)
    }

    /// Proposes `command` for the next slot, after starting phase 1 if this
    /// incarnation has not yet.
    pub fn propose(&mut self, command: C, now_micros: u64) -> Outgoing<C> {
        let mut out = self.ensure_phase1();
        let proposer = self.proposer.as_mut().expect("only the leader proposes");
        append(&mut out, proposer.propose(command));
        self.reset_backoff(now_micros);
        out
    }

    /// Handles `msg` as acceptor, then learner, then proposer. Returns the
    /// messages to send and what was learned chosen, already in the log.
    pub fn handle(
        &mut self,
        from: ProcessId,
        msg: PaxosMsg<C>,
        now_micros: u64,
    ) -> (Outgoing<C>, Chosen<C>) {
        let mut out = self.acceptor.handle(from, msg.clone());
        let mut learned = None;
        let mut chosen = Vec::new();
        if let PaxosMsg::Chosen { slot, command } = msg {
            self.log.record_chosen(slot, command.clone());
            learned = Some((slot, command));
        } else if let Some(proposer) = self.proposer.as_mut() {
            let (more, newly) = proposer.handle(msg);
            append(&mut out, more);
            for (slot, command) in &newly {
                self.log.record_chosen(*slot, command.clone());
            }
            if !newly.is_empty() {
                self.reset_backoff(now_micros);
            }
            chosen = newly;
        }
        (out, learned.into_iter().chain(chosen))
    }

    /// Re-sends the leader's outstanding `Prepare`/`Accept`s once its
    /// backoff is due: a lost one would strand its ballot or slot forever.
    pub fn retransmit_if_due(&mut self, now_micros: u64) -> Outgoing<C> {
        let Some(proposer) = self.proposer.as_mut() else {
            return Vec::new();
        };
        if !proposer.has_pending() || !self.backoff.due(now_micros) {
            return Vec::new();
        }
        let salt = self.id.as_u64();
        self.backoff
            .fired(&BackoffPolicy::exponential(), salt, now_micros);
        proposer.retransmit()
    }

    /// Crash-restart. A leader starts a new incarnation under a higher
    /// ballot and begins log recovery at once: phase 1 re-discovers what a
    /// majority accepted before the crash, and re-chooses it.
    pub fn restart(&mut self, now_micros: u64) -> Outgoing<C> {
        self.reset_backoff(now_micros);
        self.ballot_round += 1;
        self.phase1_started = false;
        self.proposer = self.incarnation();
        self.recovering = self.leads;
        self.ensure_phase1()
    }

    /// The post-restart gate, recovered once the proposer has nothing
    /// pending: `None` while recovery runs and fresh work must wait, else
    /// whether this call ended it (`recovery_gate` then stamps `Recovered`).
    fn recovered(&mut self) -> Option<bool> {
        if !self.recovering {
            Some(false)
        } else if self.has_pending() {
            None
        } else {
            self.recovering = false;
            Some(true)
        }
    }

    /// The gate as a host checks it, after every Paxos step and before
    /// fresh work: whether recovery has ended (always, unless this leader
    /// restarted). The call that ends it stamps `Recovered`, attributed to
    /// `shard` when the group replicates one.
    pub fn recovery_gate<M>(&mut self, shard: Option<ShardId>, ctx: &mut Context<'_, M>) -> bool {
        let recovered = self.recovered();
        if recovered == Some(true) {
            ctx.ctrl_milestone(CtrlMilestone::Recovered, shard, self.id.as_u64());
        }
        recovered.is_some()
    }
}

/// Appends `more` to `out` without allocating when `out` is empty, as it is
/// whenever one role alone answers a message.
fn append<C>(out: &mut Outgoing<C>, more: Outgoing<C>) {
    if out.is_empty() {
        *out = more;
    } else {
        out.extend(more);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Member = PaxosMember<&'static str>;

    fn group() -> Vec<Member> {
        let ids: Vec<ProcessId> = (0..3).map(ProcessId::new).collect();
        ids.iter()
            .map(|id| PaxosMember::new(*id, ids.clone(), *id == ids[0]))
            .collect()
    }

    /// Delivers `out`, sent by `from`, and everything it causes, except the
    /// messages `lost` picks. Returns what each step learned chosen, by
    /// member.
    fn deliver(
        members: &mut [Member],
        from: ProcessId,
        out: Outgoing<&'static str>,
        lost: impl Fn(&PaxosMsg<&'static str>) -> bool,
    ) -> Vec<(ProcessId, Slot, &'static str)> {
        let mut queue: Vec<_> = out.into_iter().map(|(to, msg)| (from, to, msg)).collect();
        let mut learned = Vec::new();
        while !queue.is_empty() {
            let (from, to, msg) = queue.remove(0);
            if lost(&msg) {
                continue;
            }
            let member = &mut members[to.as_u64() as usize];
            let (out, chosen) = member.handle(from, msg, 0);
            learned.extend(chosen.map(|(slot, command)| (to, slot, command)));
            queue.extend(out.into_iter().map(|(next, msg)| (to, next, msg)));
        }
        learned
    }

    #[test]
    fn a_proposal_is_chosen_at_the_leader_and_learned_by_every_follower() {
        let mut members = group();
        let leader = members[0].id();
        let out = members[0].propose("a", 0);
        assert!(members[0].has_pending());
        let learned = deliver(&mut members, leader, out, |_| false);
        let at = |pid: u64| (ProcessId::new(pid), 0, "a");
        assert_eq!(learned, vec![at(0), at(1), at(2)]);
        assert!(!members[0].has_pending());
        assert!(members.iter().all(|m| m.log().get(0) == Some(&"a")));
        assert!(members[0].retransmit_if_due(u64::MAX).is_empty());
    }

    #[test]
    fn a_restarted_leader_re_chooses_what_a_majority_accepted_before_it_recovers() {
        let mut members = group();
        let leader = members[0].id();
        assert_eq!(members[0].recovered(), Some(false));
        // Every acceptor accepts "a", but no acknowledgement reaches the
        // leader's proposer.
        let out = members[0].propose("a", 0);
        let accepted = |msg: &PaxosMsg<_>| matches!(msg, PaxosMsg::Accepted { .. });
        assert!(deliver(&mut members, leader, out, accepted).is_empty());
        assert!(members[0].has_pending());

        let out = members[0].restart(0);
        assert_eq!(members[0].recovered(), None, "phase 1 not yet done");
        let learned = deliver(&mut members, leader, out, |_| false);
        assert!(learned.contains(&(leader, 0, "a")));
        assert_eq!(members[0].recovered(), Some(true));
        assert_eq!(members[0].recovered(), Some(false), "reported once");
    }
}
