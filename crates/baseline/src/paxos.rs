//! Multi-Paxos replicated log over `2f + 1` replicas.
//!
//! The paper's baseline ("vanilla") TCS layers two-phase commit over shards
//! that are each replicated with a black-box Paxos-style protocol (§1, §6):
//! every 2PC action is committed to a per-shard replicated log before it takes
//! effect, which costs 7 message delays to learn a decision and places a heavy
//! load on the shard leaders. This module provides that substrate:
//!
//! * [`Ballot`] — totally ordered ballot numbers (round, proposer);
//! * [`PaxosMsg`] — the message vocabulary (phase-1 prepare/promise, phase-2
//!   accept/accepted, chosen notifications and nacks);
//! * [`Acceptor`] — the acceptor state machine;
//! * [`Proposer`] — a Multi-Paxos proposer/leader that owns a ballot, runs
//!   phase 1 once and then assigns commands to consecutive slots with
//!   phase 2 only;
//! * [`ReplicatedLog`] — a learner that assembles chosen commands into a log
//!   indexed by slot.
//!
//! The state machines are *pure*: each input returns the set of messages to
//! send, so they can be embedded into any transport.
//! [`PaxosMember`](crate::PaxosMember) wraps them for the baseline's shard
//! and transaction-manager groups.
//!
//! # Example
//!
//! ```
//! use ratc_baseline::paxos::{Acceptor, PaxosMsg, Proposer, ReplicatedLog};
//! use ratc_types::ProcessId;
//!
//! let leader_id = ProcessId::new(0);
//! let acceptor_ids = vec![ProcessId::new(0), ProcessId::new(1), ProcessId::new(2)];
//! let mut proposer: Proposer<&'static str> = Proposer::new(leader_id, acceptor_ids.clone(), 0);
//! let mut acceptors: Vec<Acceptor<&'static str>> =
//!     acceptor_ids.iter().map(|id| Acceptor::new(*id)).collect();
//! let mut log: ReplicatedLog<&'static str> = ReplicatedLog::new();
//!
//! // Run phase 1, then propose a command and deliver messages by hand.
//! let mut outbox: Vec<(ProcessId, PaxosMsg<&'static str>)> = proposer.start_phase1();
//! outbox.extend(proposer.propose("deposit"));
//! while let Some((to, msg)) = outbox.pop() {
//!     for (i, acceptor) in acceptors.iter_mut().enumerate() {
//!         if acceptor_ids[i] == to {
//!             outbox.extend(acceptor.handle(leader_id, msg.clone()));
//!         }
//!     }
//!     if to == leader_id {
//!         let (more, chosen) = proposer.handle(msg.clone());
//!         outbox.extend(more);
//!         for (slot, cmd) in chosen {
//!             log.record_chosen(slot, cmd);
//!         }
//!     }
//! }
//! assert_eq!(log.get(0), Some(&"deposit"));
//! assert_eq!(log.len(), 1);
//! ```

pub mod acceptor;
pub mod ballot;
pub mod log;
pub mod messages;
pub mod proposer;

pub use acceptor::Acceptor;
pub use ballot::Ballot;
pub use log::ReplicatedLog;
pub use messages::PaxosMsg;
pub use proposer::{Outgoing, Proposer};

/// Majority quorum size among `n` replicas.
pub const fn quorum(n: usize) -> usize {
    n / 2 + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratc_core::harness::StackKind;

    #[test]
    fn replica_arithmetic() {
        for f in [1, 2] {
            let group = StackKind::Baseline.group_size(f);
            assert_eq!(group, 2 * f + 1);
            assert_eq!(quorum(group), f + 1);
        }
        assert_eq!(quorum(4), 3);
    }
}
