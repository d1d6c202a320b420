//! Messages of the baseline 2PC-over-Paxos TCS.

use std::sync::Arc;

use ratc_core::batch::Items;
use ratc_types::{Decision, Payload, ProcessId, ShardId, TxId};

use crate::paxos::PaxosMsg;

/// One certified vote inside a [`ShardCommand`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardVote {
    /// The transaction.
    pub tx: TxId,
    /// The shard-restricted payload.
    pub payload: Payload,
    /// The leader's vote.
    pub vote: Decision,
}

/// Command replicated in a shard's Multi-Paxos log: a *batch* of prepared
/// votes occupying one log slot (batched log appends — the batching pipeline
/// of `ratc_core::batch` applied to the baseline). At `max_batch = 1` every
/// command carries exactly one vote, which is the seed behaviour.
///
/// A command is one shared value: the acceptors, the proposer, the learned
/// log and every message copy hold a reference count on the same votes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardCommand {
    /// The batched votes, in certification order.
    pub items: Arc<[ShardVote]>,
}

/// One final decision inside a [`TmCommand`]. Its shard list is shared, as
/// a [`ShardCommand`]'s votes are.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TmDecision {
    /// The transaction.
    pub tx: TxId,
    /// The final decision.
    pub decision: Decision,
    /// The client to notify.
    pub client: ProcessId,
    /// The shards that participated.
    pub shards: Arc<[ShardId]>,
}

/// Command replicated in the transaction manager's Multi-Paxos log: a
/// *batch* of final decisions occupying one log slot, coalesced like a
/// [`ShardCommand`]'s votes. At `max_batch = 1` every command carries
/// exactly one decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TmCommand {
    /// The batched decisions, in the order they were computed.
    pub decisions: Arc<[TmDecision]>,
}

/// Messages of the baseline TCS.
#[derive(Debug, Clone)]
pub enum BaselineMsg {
    /// `certify(t, l)` submitted to the transaction manager.
    Certify {
        /// Transaction identifier.
        tx: TxId,
        /// Full payload.
        payload: Payload,
        /// Issuing client.
        client: ProcessId,
    },
    /// 2PC `PREPARE` from the transaction manager to a shard leader.
    Prepare {
        /// Transaction identifier.
        tx: TxId,
        /// Shard-restricted payload.
        payload: Payload,
    },
    /// All votes of one chosen [`ShardCommand`] batch, reported to the
    /// transaction manager in a single message once the command is *chosen*
    /// in the shard's Paxos log (a batch of one at `max_batch = 1`).
    VoteBatch {
        /// The voting shard.
        shard: ShardId,
        /// The replicated `(transaction, vote)` pairs.
        votes: Vec<(TxId, Decision)>,
    },
    /// The final decisions of one chosen [`TmCommand`] that concern one
    /// shard, sent to its leader in a single message once the command is
    /// chosen in the transaction manager's Paxos log, and relayed by the
    /// leader to its followers (a batch of one at `max_batch = 1`).
    Decision {
        /// The `(transaction, decision)` pairs, in command order.
        decisions: Items<(TxId, Decision)>,
    },
    /// Final decision reported to the client.
    DecisionClient {
        /// Transaction identifier.
        tx: TxId,
        /// The decision.
        decision: Decision,
    },
    /// Paxos traffic of a shard's replication group.
    ShardPaxos {
        /// The shard whose group this message belongs to.
        shard: ShardId,
        /// The Paxos message.
        msg: PaxosMsg<ShardCommand>,
    },
    /// Paxos traffic of the transaction manager's replication group.
    TmPaxos {
        /// The Paxos message.
        msg: PaxosMsg<TmCommand>,
    },
}

impl BaselineMsg {
    /// A short name for metrics and traces.
    pub fn kind(&self) -> &'static str {
        match self {
            BaselineMsg::Certify { .. } => "certify",
            BaselineMsg::Prepare { .. } => "prepare",
            BaselineMsg::VoteBatch { .. } => "vote_batch",
            BaselineMsg::Decision { .. } => "decision",
            BaselineMsg::DecisionClient { .. } => "decision_client",
            BaselineMsg::ShardPaxos { .. } => "shard_paxos",
            BaselineMsg::TmPaxos { .. } => "tm_paxos",
        }
    }
}

impl ratc_core::client::ClientMsg for BaselineMsg {
    fn certify(tx: TxId, payload: Payload, client: ProcessId) -> Self {
        BaselineMsg::Certify {
            tx,
            payload,
            client,
        }
    }

    fn as_decision(&self) -> Option<(TxId, Decision)> {
        if let BaselineMsg::DecisionClient { tx, decision } = self {
            Some((*tx, *decision))
        } else {
            None
        }
    }
}
