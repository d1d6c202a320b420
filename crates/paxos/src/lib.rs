//! Multi-Paxos replicated log over `2f + 1` replicas.
//!
//! The paper's baseline ("vanilla") TCS layers two-phase commit over shards
//! that are each replicated with a black-box Paxos-style protocol (§1, §6):
//! every 2PC action is committed to a per-shard replicated log before it takes
//! effect, which costs 7 message delays to learn a decision and places a heavy
//! load on the shard leaders. This crate provides that substrate:
//!
//! * [`Ballot`] — totally ordered ballot numbers (round, proposer);
//! * [`PaxosMsg`] — the message vocabulary (phase-1 prepare/promise, phase-2
//!   accept/accepted, chosen notifications and nacks);
//! * [`Acceptor`] — the acceptor state machine;
//! * [`Proposer`] — a Multi-Paxos proposer/leader that owns a ballot, runs
//!   phase 1 once and then assigns commands to consecutive slots with
//!   phase 2 only;
//! * [`ReplicatedLog`] — a learner that assembles chosen commands into a log
//!   and hands out the contiguous prefix for execution.
//!
//! The state machines are *pure*: each input returns the set of messages to
//! send, so they can be embedded into any transport — the deterministic
//! simulator (`ratc-sim`), threads, or a real network. The baseline TCS
//! (`ratc-baseline`) wraps them into simulation actors; the same machinery can
//! also back a Paxos-replicated configuration service, which is how the paper
//! suggests realising its reliable CS.
//!
//! # Example
//!
//! ```
//! use ratc_paxos::{Acceptor, PaxosMsg, Proposer, ReplicatedLog};
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
//! assert_eq!(log.executable_prefix(), vec![&"deposit"]);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![cfg_attr(
    not(test),
    warn(
        clippy::disallowed_types,
        clippy::float_arithmetic,
        clippy::iter_over_hash_type,
        clippy::unwrap_used,
        clippy::wildcard_enum_match_arm
    )
)]

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

/// Number of replicas needed to tolerate `f` crash failures with Paxos.
pub const fn replicas_for(f: usize) -> usize {
    2 * f + 1
}

/// Majority quorum size among `n` replicas.
pub const fn quorum(n: usize) -> usize {
    n / 2 + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_arithmetic() {
        assert_eq!(replicas_for(1), 3);
        assert_eq!(replicas_for(2), 5);
        assert_eq!(quorum(3), 2);
        assert_eq!(quorum(5), 3);
        assert_eq!(quorum(4), 3);
    }
}
