//! Protocol messages (the message vocabulary of Figure 1).
//!
//! The commit path is the paper's `PREPARE → PREPARE_ACK → ACCEPT →
//! ACCEPT_ACK → DECISION` exchange, carried by the five `*Batch` variants:
//! each holds a list of per-transaction items ([`crate::batch::Items`]), and
//! a list of one *is* the paper's single-transaction message — there are no
//! separate singleton variants. Batches larger than one amortise the exchange
//! over many transactions (see [`crate::batch`]).
//!
//! Compared with the paper's pseudocode, items additionally carry two pieces
//! of routing metadata that the paper keeps implicit in global functions: the
//! set `shards(t)` (the paper's `shards : T → 2^S`) and the submitting client
//! (`client : T → P`). Carrying them in `PREPARE`, `PREPARE_ACK` and `ACCEPT`
//! lets any replica act as a recovery coordinator without a shared directory,
//! and does not change the protocol's behaviour.
//!
//! Checkpointed log truncation (§6's garbage collection) adds nothing to the
//! vocabulary: each replica folds its own decided prefix when it records a
//! `DECISION` (see [`crate::log`]), and a truncated transaction's decision
//! stays answerable through `TxDecided`.

use ratc_types::{Decision, Epoch, Payload, ProcessId, ShardId, TxId};

use crate::batch::{AcceptAckItem, DecisionItem, Items, PrepareBatch, PreparedItem};
use crate::config::ShardConfiguration;
use crate::log::CertificationLog;

/// Messages of the message-passing atomic commit protocol.
#[derive(Debug, Clone)]
pub enum Msg {
    // ------------------------------------------------------------------
    // Transaction processing (failure-free path, Figure 2a)
    // ------------------------------------------------------------------
    /// `certify(t, l)` submitted to the replica chosen as coordinator
    /// (line 1). `client` is the process to which the final decision must be
    /// reported.
    Certify {
        /// Transaction identifier.
        tx: TxId,
        /// Full (unrestricted) transaction payload.
        payload: Payload,
        /// The client that issued the transaction.
        client: ProcessId,
    },
    /// `DECISION(t, d)` from the coordinator to the client (line 27).
    DecisionClient {
        /// Transaction identifier.
        tx: TxId,
        /// The final decision.
        decision: Decision,
    },
    /// External trigger for `retry(k)` (line 70): the receiving replica
    /// becomes a new coordinator for `tx` if it has the transaction prepared.
    Retry {
        /// Transaction to re-coordinate.
        tx: TxId,
    },
    /// Decision-map compaction, leg 1 (opt-in, see
    /// [`crate::replica::TruncationConfig::compaction`]): the client
    /// acknowledges a received `DECISION(t, d)` back to the coordinator that
    /// sent it. Not part of the paper's vocabulary; absent unless compaction
    /// is enabled, so default schedules are untouched.
    DecisionAck {
        /// The acknowledged transaction.
        tx: TxId,
    },
    /// Decision-map compaction, leg 2: the coordinator, having seen the
    /// client's [`Msg::DecisionAck`], tells every member of every shard of
    /// `tx` that the decision is fully acknowledged — its checkpoint record
    /// can never be asked for again and may be dropped
    /// ([`crate::log::CertificationLog::ack_decided`]).
    AckDecided {
        /// The fully acknowledged transaction.
        tx: TxId,
    },
    /// Reply to `PREPARE` for a transaction already folded into the leader's
    /// checkpoint: it is decided and its slot was truncated, so the final
    /// decision is returned directly (nothing remains to re-ack). Gray &
    /// Lamport's requirement that truncation never lose a decision recovery
    /// still needs is met by the checkpoint's per-transaction decision map.
    TxDecided {
        /// The truncated transaction.
        tx: TxId,
        /// Its final decision.
        decision: Decision,
        /// `client(t)`, so the coordinator can forward the decision.
        client: ProcessId,
    },

    // ------------------------------------------------------------------
    // The PREPARE/ACCEPT exchange (see `crate::batch`; one item per message
    // is the paper's exchange, more amortise it)
    // ------------------------------------------------------------------
    /// `PREPARE(t, l)` from a coordinator to a shard leader (line 3 / 73),
    /// one item per transaction the coordinator's `VoteBatcher` coalesced.
    /// An item's payload is `None` for the `⊥` payload used in coordinator
    /// recovery. The leader certifies the items in order, assigning fresh
    /// entries a contiguous position range.
    PrepareBatch {
        /// The items, in submission order.
        batch: PrepareBatch,
    },
    /// `PREPARE_ACK(e, s, k, t, l, d)` from a shard leader back to the
    /// coordinator (lines 7, 17): the leader's votes for a whole
    /// `PREPARE_BATCH`. Items carry individual positions, stored payloads and
    /// votes (and echo `shards(t)` and `client(t)` for recovery
    /// coordinators); `TxDecided` replies for truncated transactions are sent
    /// separately so that fast path stays per-transaction.
    PrepareAckBatch {
        /// The leader's epoch for its shard.
        epoch: Epoch,
        /// The leader's shard.
        shard: ShardId,
        /// Per-slot positions, payloads and votes.
        items: Items<PreparedItem>,
    },
    /// `ACCEPT(e, k, t, l, d)` from the coordinator to the followers of a
    /// shard (line 20): one message per follower persisting every vote of a
    /// `PREPARE_ACK_BATCH`.
    AcceptBatch {
        /// Epoch of the shard the followers must be in.
        epoch: Epoch,
        /// The shard being addressed.
        shard: ShardId,
        /// Per-slot positions, payloads and votes.
        items: Items<PreparedItem>,
    },
    /// `ACCEPT_ACK(s, e, k, t, d)` from a follower back to the coordinator
    /// (line 25), acknowledging every item of an `ACCEPT_BATCH`.
    AcceptAckBatch {
        /// The follower's shard.
        shard: ShardId,
        /// The follower's epoch.
        epoch: Epoch,
        /// Per-slot acknowledgements.
        items: Items<AcceptAckItem>,
    },
    /// `DECISION(e, k, d)` from the coordinator to the members of a shard
    /// (line 29): the final decisions of every transaction that completed
    /// together, one message per shard member.
    DecisionBatch {
        /// The shard's epoch as known to the coordinator.
        epoch: Epoch,
        /// Per-slot decisions.
        items: Items<DecisionItem>,
    },

    // ------------------------------------------------------------------
    // Reconfiguration (Figure 2b)
    // ------------------------------------------------------------------
    /// External trigger for `reconfigure(s)` (line 33).
    StartReconfigure {
        /// The shard to reconfigure.
        shard: ShardId,
        /// Fresh processes that may be added to the new configuration.
        spares: Vec<ProcessId>,
        /// Target configuration size (`f + 1`).
        target_size: usize,
        /// Processes that must not be reused (e.g. suspected of failure).
        exclude: Vec<ProcessId>,
    },
    /// `PROBE(e)` from the reconfiguring process (line 39 / 55).
    Probe {
        /// The new epoch the receiver is asked to join.
        epoch: Epoch,
    },
    /// `PROBE_ACK(initialized, e, s)` (line 44).
    ProbeAck {
        /// Whether the responder has ever been initialised.
        initialized: bool,
        /// The epoch it was asked to join.
        epoch: Epoch,
        /// The responder's shard.
        shard: ShardId,
    },
    /// `NEW_CONFIG(e, M)` from the reconfiguring process to the new leader
    /// (line 50).
    NewConfig {
        /// The new epoch.
        epoch: Epoch,
        /// The new membership.
        members: Vec<ProcessId>,
    },
    /// `NEW_STATE(e, M, txn, payload, vote, dec, phase)` from the new leader
    /// to its followers (line 60).
    NewState {
        /// The new epoch.
        epoch: Epoch,
        /// The new membership.
        members: Vec<ProcessId>,
        /// The new leader.
        leader: ProcessId,
        /// The leader's full certification log, boxed: it is by far the
        /// largest field of any variant, and every message is moved at the
        /// size of its largest variant.
        log: Box<CertificationLog>,
    },
    /// `CONFIG_CHANGE(s, e, M, pl)` sent by the leader that installed the
    /// configuration to the members of other shards (line 67).
    ConfigChange {
        /// The reconfigured shard.
        shard: ShardId,
        /// Its new epoch.
        epoch: Epoch,
        /// Its new membership.
        members: Vec<ProcessId>,
        /// Its new leader.
        leader: ProcessId,
    },

    // ------------------------------------------------------------------
    // Configuration-service RPCs (get_last / get / compare_and_swap of §3)
    // ------------------------------------------------------------------
    /// `get_last(s)` request.
    CsGetLast {
        /// The shard queried.
        shard: ShardId,
    },
    /// Reply to [`Msg::CsGetLast`].
    CsGetLastReply {
        /// The shard queried.
        shard: ShardId,
        /// Its latest stored configuration.
        config: ShardConfiguration,
    },
    /// `get(s, e)` request.
    CsGet {
        /// The shard queried.
        shard: ShardId,
        /// The epoch queried.
        epoch: Epoch,
    },
    /// Reply to [`Msg::CsGet`].
    CsGetReply {
        /// The shard queried.
        shard: ShardId,
        /// The epoch queried.
        epoch: Epoch,
        /// The configuration stored at that epoch, if any.
        config: Option<ShardConfiguration>,
    },
    /// `compare_and_swap(s, e, c)` request.
    CsCas {
        /// The shard being reconfigured.
        shard: ShardId,
        /// The epoch the caller believes to be current.
        expected: Epoch,
        /// The new configuration to store.
        config: ShardConfiguration,
    },
    /// Reply to [`Msg::CsCas`].
    CsCasReply {
        /// The shard being reconfigured.
        shard: ShardId,
        /// Whether the compare-and-swap succeeded.
        ok: bool,
        /// The configuration that was proposed.
        config: ShardConfiguration,
    },
}

impl Msg {
    /// A short name for metrics and traces.
    pub fn kind(&self) -> &'static str {
        match self {
            Msg::Certify { .. } => "certify",
            Msg::DecisionClient { .. } => "decision_client",
            Msg::Retry { .. } => "retry",
            Msg::DecisionAck { .. } => "decision_ack",
            Msg::AckDecided { .. } => "ack_decided",
            Msg::TxDecided { .. } => "tx_decided",
            Msg::PrepareBatch { .. } => "prepare_batch",
            Msg::PrepareAckBatch { .. } => "prepare_ack_batch",
            Msg::AcceptBatch { .. } => "accept_batch",
            Msg::AcceptAckBatch { .. } => "accept_ack_batch",
            Msg::DecisionBatch { .. } => "decision_batch",
            Msg::StartReconfigure { .. } => "start_reconfigure",
            Msg::Probe { .. } => "probe",
            Msg::ProbeAck { .. } => "probe_ack",
            Msg::NewConfig { .. } => "new_config",
            Msg::NewState { .. } => "new_state",
            Msg::ConfigChange { .. } => "config_change",
            Msg::CsGetLast { .. } => "cs_get_last",
            Msg::CsGetLastReply { .. } => "cs_get_last_reply",
            Msg::CsGet { .. } => "cs_get",
            Msg::CsGetReply { .. } => "cs_get_reply",
            Msg::CsCas { .. } => "cs_cas",
            Msg::CsCasReply { .. } => "cs_cas_reply",
        }
    }
}

crate::impl_commit_msg!(Msg);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct_for_commit_path() {
        let kinds = [
            Msg::Certify {
                tx: TxId::new(1),
                payload: Payload::empty(),
                client: ProcessId::new(0),
            }
            .kind(),
            Msg::Retry { tx: TxId::new(1) }.kind(),
            Msg::Probe { epoch: Epoch::ZERO }.kind(),
            Msg::DecisionClient {
                tx: TxId::new(1),
                decision: Decision::Commit,
            }
            .kind(),
        ];
        let mut unique = kinds.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), kinds.len());
    }
}
