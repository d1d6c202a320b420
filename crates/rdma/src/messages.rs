//! Messages of the RDMA-based protocol (Figures 7–8).
//!
//! As in `ratc-core`, the commit path is carried by the `*Batch` variants: a
//! message holds a list of per-transaction items (`ratc_core::batch::Items`),
//! and a list of one *is* the paper's single-transaction message. The RDMA
//! protocol is the message-passing one with the `ACCEPT` leg swapped for a
//! write: `AcceptBatch` and `DecisionBatch` are transported by RDMA writes
//! (`Context::rdma_send`) and there is no `ACCEPT_ACK` — the NIC-level
//! acknowledgement plays that role; everything else uses ordinary messages.
//! Items carry `shards(t)` and `client(t)` so that any replica can act as a
//! recovery coordinator.

use std::collections::BTreeMap;

use ratc_core::batch::{DecisionItem, Items, PrepareBatch, PreparedItem};
use ratc_core::config::GlobalConfiguration;
use ratc_types::{Decision, Epoch, Payload, ProcessId, ShardId, TxId};

use crate::replica::RdmaLog;

/// Messages of the RDMA-based atomic commit protocol.
#[derive(Debug, Clone)]
pub enum RdmaMsg {
    /// `certify(t, l)` submitted to the coordinating replica (line 74).
    Certify {
        /// Transaction identifier.
        tx: TxId,
        /// Full payload.
        payload: Payload,
        /// Issuing client.
        client: ProcessId,
    },
    /// `DECISION(t, d)` to the client (line 98).
    DecisionClient {
        /// Transaction identifier.
        tx: TxId,
        /// Final decision.
        decision: Decision,
    },
    /// External trigger for `retry(k)` (line 167).
    Retry {
        /// Transaction to re-coordinate.
        tx: TxId,
    },
    /// Reply to `PREPARE` for a transaction already folded into the leader's
    /// checkpoint: its final decision, answered directly (see `ratc-core`).
    TxDecided {
        /// The truncated transaction.
        tx: TxId,
        /// Its final decision.
        decision: Decision,
        /// `client(t)`, so the coordinator can forward the decision.
        client: ProcessId,
    },

    // ------------------------------------------------------------------
    // The PREPARE/ACCEPT exchange (see `ratc_core::batch`; one item per
    // message is the paper's exchange, more amortise it)
    // ------------------------------------------------------------------
    /// `PREPARE(t, l)` to a shard leader (line 76), one item per transaction
    /// the coordinator coalesced; an item's `None` payload encodes `⊥`
    /// (ordinary message).
    PrepareBatch {
        /// The items, in submission order.
        batch: PrepareBatch,
    },
    /// `PREPARE_ACK(e, s, k, t, l, d)` back to the coordinator (lines 80,
    /// 90): the leader's votes for a whole `PREPARE_BATCH` (ordinary
    /// message).
    PrepareAckBatch {
        /// The leader's (global) epoch.
        epoch: Epoch,
        /// The leader's shard.
        shard: ShardId,
        /// Per-slot positions, payloads and votes.
        items: Items<PreparedItem>,
    },
    /// `ACCEPT(k, t, l, d)` written into a follower's memory by **one RDMA
    /// write** per follower (line 93). Note: no epoch and no acknowledgement
    /// message — the NIC-level `ack-rdma` plays that role and acknowledges
    /// every item at once. Each item carries its own position, transaction,
    /// payload and vote, so per-slot votes remain individually recoverable
    /// from the memory region the write landed in (a `flush` that drains it
    /// replays each slot).
    AcceptBatch {
        /// The target shard (metadata for the log).
        shard: ShardId,
        /// Per-slot positions, payloads and votes.
        items: Items<PreparedItem>,
    },
    /// `DECISION(k, d)` written into a member's memory by RDMA (line 100):
    /// the decisions of every transaction that completed together, one write
    /// per shard member.
    DecisionBatch {
        /// Per-slot decisions.
        items: Items<DecisionItem>,
    },

    /// External trigger for `reconfigure()` (line 103). In the correct mode
    /// the whole system is reconfigured; `suspected_shard` tells the
    /// reconfigurer which shard triggered the suspicion (and, in the naive
    /// mode, the only shard that will be probed).
    StartReconfigure {
        /// The shard whose failure triggered reconfiguration.
        suspected_shard: ShardId,
        /// Fresh processes per shard available as replacements.
        spares: BTreeMap<ShardId, Vec<ProcessId>>,
        /// Target replicas per shard.
        target_size: usize,
        /// Processes that must not be reused.
        exclude: Vec<ProcessId>,
    },
    /// `PROBE(e)` (line 110).
    Probe {
        /// The epoch the receiver is asked to join.
        epoch: Epoch,
    },
    /// `PROBE_ACK(initialized, e, s)` (line 116).
    ProbeAck {
        /// Whether the responder has ever been initialised.
        initialized: bool,
        /// The epoch it was asked to join.
        epoch: Epoch,
        /// The responder's shard.
        shard: ShardId,
    },
    /// `CONFIG_PREPARE(e, M, leaders)` (line 124).
    ConfigPrepare {
        /// The new global configuration.
        config: GlobalConfiguration,
    },
    /// `CONFIG_PREPARE_ACK(e)` (line 136).
    ConfigPrepareAck {
        /// The epoch being acknowledged.
        epoch: Epoch,
    },
    /// `NEW_CONFIG(e)` to the new leaders (line 139).
    NewConfig {
        /// The new global configuration.
        config: GlobalConfiguration,
    },
    /// `NEW_STATE(e, …)` from a new leader to its shard's followers (line 146).
    NewState {
        /// The new global configuration.
        config: GlobalConfiguration,
        /// The sending leader.
        leader: ProcessId,
        /// The leader's certification log, boxed so that every other
        /// message is not moved at its size.
        log: Box<RdmaLog>,
    },
    /// `CONNECT(epoch)` (line 147/153).
    Connect {
        /// The sender's epoch.
        epoch: Epoch,
    },
    /// `CONNECT_ACK(epoch)` (line 158).
    ConnectAck {
        /// The responder's epoch.
        epoch: Epoch,
    },

    /// `get_last()` request to the global configuration service.
    CsGetLast,
    /// Reply to [`RdmaMsg::CsGetLast`].
    CsGetLastReply {
        /// The latest stored configuration.
        config: GlobalConfiguration,
    },
    /// `get(e)` request.
    CsGet {
        /// The epoch queried.
        epoch: Epoch,
    },
    /// Reply to [`RdmaMsg::CsGet`].
    CsGetReply {
        /// The epoch queried.
        epoch: Epoch,
        /// The configuration at that epoch, if any.
        config: Option<GlobalConfiguration>,
    },
    /// `compare_and_swap(e, c)` request.
    CsCas {
        /// The expected current epoch.
        expected: Epoch,
        /// The proposed configuration.
        config: GlobalConfiguration,
    },
    /// Reply to [`RdmaMsg::CsCas`].
    CsCasReply {
        /// Whether the compare-and-swap succeeded.
        ok: bool,
        /// The proposed configuration (echoed).
        config: GlobalConfiguration,
    },
    /// `CONFIG_CHANGE`-style notification used only by the naive per-shard
    /// mode, mirroring §3 (the correct protocol uses `CONFIG_PREPARE`).
    NaiveConfigChange {
        /// The new global configuration.
        config: GlobalConfiguration,
    },
}

impl RdmaMsg {
    /// A short name for metrics and traces.
    pub fn kind(&self) -> &'static str {
        match self {
            RdmaMsg::Certify { .. } => "certify",
            RdmaMsg::DecisionClient { .. } => "decision_client",
            RdmaMsg::Retry { .. } => "retry",
            RdmaMsg::TxDecided { .. } => "tx_decided",
            RdmaMsg::PrepareBatch { .. } => "prepare_batch",
            RdmaMsg::PrepareAckBatch { .. } => "prepare_ack_batch",
            RdmaMsg::AcceptBatch { .. } => "accept_batch",
            RdmaMsg::DecisionBatch { .. } => "decision_batch",
            RdmaMsg::StartReconfigure { .. } => "start_reconfigure",
            RdmaMsg::Probe { .. } => "probe",
            RdmaMsg::ProbeAck { .. } => "probe_ack",
            RdmaMsg::ConfigPrepare { .. } => "config_prepare",
            RdmaMsg::ConfigPrepareAck { .. } => "config_prepare_ack",
            RdmaMsg::NewConfig { .. } => "new_config",
            RdmaMsg::NewState { .. } => "new_state",
            RdmaMsg::Connect { .. } => "connect",
            RdmaMsg::ConnectAck { .. } => "connect_ack",
            RdmaMsg::CsGetLast => "cs_get_last",
            RdmaMsg::CsGetLastReply { .. } => "cs_get_last_reply",
            RdmaMsg::CsGet { .. } => "cs_get",
            RdmaMsg::CsGetReply { .. } => "cs_get_reply",
            RdmaMsg::CsCas { .. } => "cs_cas",
            RdmaMsg::CsCasReply { .. } => "cs_cas_reply",
            RdmaMsg::NaiveConfigChange { .. } => "naive_config_change",
        }
    }
}

ratc_core::impl_commit_msg!(RdmaMsg);

impl ratc_core::client::ClientMsg for RdmaMsg {
    fn certify(tx: TxId, payload: Payload, client: ProcessId) -> Self {
        RdmaMsg::Certify {
            tx,
            payload,
            client,
        }
    }

    fn as_decision(&self) -> Option<(TxId, Decision)> {
        if let RdmaMsg::DecisionClient { tx, decision } = self {
            Some((*tx, *decision))
        } else {
            None
        }
    }

    fn decision_ack(_tx: TxId) -> Option<Self> {
        // Decision-map compaction is a `ratc-core` extension.
        None
    }
}
