//! The RDMA replica state machine (Figures 7–8, line by line).
//!
//! The RDMA protocol is the message-passing one with the way votes reach the
//! followers swapped and reconfiguration widened to the whole system, so
//! this replica hosts the same [`Coordinator`] and the same [`Reconfigurer`]
//! as `ratc-core`'s and shares the shard leader's `PREPARE` step with it.
//! What this file adds over `ratc_core::replica`:
//!
//! * the [`Replication`] of Figures 7–8 — votes and decisions are one-sided
//!   RDMA writes, a follower's acknowledgement is the NIC's `ack-rdma` (which
//!   carries no payload), and a coordinator that is itself a follower stores
//!   into its own memory. Truncation needs nothing of it: as in `ratc-core`,
//!   each member folds its own decided prefix when it records decisions;
//! * the [`ReconHost`] of Figure 8 — one epoch and one configuration for the
//!   whole system, so every shard is probed, and a chosen configuration is
//!   disseminated with a `CONFIG_PREPARE` round before any leader activates
//!   it ([`ReconfigMode::NaivePerShard`] probes one shard and skips the
//!   round);
//! * RDMA connections: opened by the `Connect` handshake, closed on probing
//!   so a stale coordinator's writes can no longer land (§5);
//! * the hand-off of stalled transactions by a coordinator that finds itself
//!   excluded.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use ratc_config::GlobalConfiguration;
use ratc_core::batch::{BatchingConfig, DecisionItem, Items, PrepareItem, PreparedItem};
use ratc_core::coord::{Coordinator, Replication, ShardView, BATCH_TICK, RETRY_TICK};
use ratc_core::flow::FlowControlConfig;
use ratc_core::recon::{ReconHost, Reconfigurer, PROBE_GRACE_TICK, RECON_RETRY_TICK};
use ratc_core::replica::TruncationConfig;
use ratc_sim::rdma::RdmaToken;
use ratc_sim::{Actor, Context, CtrlMilestone, SimDuration, TimerTag};
use ratc_types::{CertificationPolicy, Epoch, ProcessId, ShardId, ShardMap, TxId};

use crate::messages::RdmaMsg;

/// The certification log of the RDMA protocol. Identical in structure to the
/// message-passing protocol's log, so the type is shared with `ratc-core`.
pub type RdmaLog = ratc_core::log::CertificationLog;

/// Timer tag re-driving the post-restart `Connect` handshake until every
/// peer has answered (the handshake itself travels over faultable links).
const CONNECT_RETRY_TICK: TimerTag = 5;

/// Interval between `Connect` handshake retries.
const CONNECT_RETRY: SimDuration = SimDuration::from_millis(25);

/// Handshake retries after which unanswered peers are given up on: 10 s of
/// the engine's clock, virtual on Sim and real on Threads. Bounds the event
/// queue when a peer is gone for good; a later restart or reconfiguration
/// starts a fresh round. A peer in another epoch, or one reconfiguring to a
/// newer one, answers at once without opening anything (see
/// `handle_connect`), so only a crashed or cut-off peer runs to the cap.
const CONNECT_RETRY_CAP: u32 = 400;

/// How reconfiguration is performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigMode {
    /// The correct protocol of §5: global reconfiguration with connection
    /// closing, `CONFIG_PREPARE` dissemination and `flush` on promotion.
    GlobalCorrect,
    /// The **incorrect** variant that keeps §3's per-shard reconfiguration
    /// while using RDMA on the data path. Reproduces the Figure 4a safety
    /// violation; never use outside experiments.
    NaivePerShard,
}

/// Replica status (the paper's `status`): the same three states as in the
/// message-passing protocol, so the type is shared with `ratc-core`.
pub use ratc_core::replica::Status as RdmaStatus;

/// An outstanding `ACCEPT` write (see `ratc_core::batch`): the hardware
/// acknowledgement acknowledges every slot of it at once.
#[derive(Debug, Clone)]
struct AcceptWrite {
    txs: Items<TxId>,
    shard: ShardId,
    follower: ProcessId,
    epoch: Epoch,
}

/// The `CONFIG_PREPARE` round of a chosen configuration (lines 124 and
/// 131–140).
#[derive(Debug, Clone)]
struct ConfigRound {
    config: GlobalConfiguration,
    acks: BTreeSet<ProcessId>,
}

/// A replica of the RDMA-based protocol.
pub struct RdmaReplica {
    coord: Coordinator,
    recon: Reconfigurer,
    member: Member,
}

/// The shard-member role of an [`RdmaReplica`]: the [`Replication`] its
/// coordinator and the [`ReconHost`] its reconfigurer work through.
struct Member {
    id: ProcessId,
    shard: ShardId,
    mode: ReconfigMode,
    status: RdmaStatus,
    initialized: bool,
    epoch: Epoch,
    new_epoch: Epoch,
    config: Option<GlobalConfiguration>,
    connections: BTreeSet<ProcessId>,
    log: RdmaLog,
    cs: ProcessId,
    /// `ACCEPT` writes whose hardware acknowledgement is outstanding.
    pending_writes: BTreeMap<RdmaToken, AcceptWrite>,
    /// The chosen configuration whose `CONFIG_PREPARE` round is unfinished.
    installing: Option<ConfigRound>,
    truncation: TruncationConfig,
    /// Peers whose `Connect`/`ConnectAck` is still outstanding after a
    /// restart; the handshake is retried until this empties (or the retry
    /// cap gives up on permanently unreachable peers).
    pending_connects: BTreeSet<ProcessId>,
    connect_retry_armed: bool,
    connect_attempts: u32,
}

impl RdmaReplica {
    /// Creates a replica of `shard` in the given reconfiguration mode.
    pub fn new<P>(
        shard: ShardId,
        policy: &P,
        sharding: Arc<dyn ShardMap + Send + Sync>,
        mode: ReconfigMode,
    ) -> Self
    where
        P: CertificationPolicy + ?Sized,
    {
        RdmaReplica {
            coord: Coordinator::new(sharding),
            recon: Reconfigurer::default(),
            member: Member {
                id: ProcessId::new(u64::MAX),
                shard,
                mode,
                status: RdmaStatus::Follower,
                initialized: false,
                epoch: Epoch::ZERO,
                new_epoch: Epoch::ZERO,
                config: None,
                connections: BTreeSet::new(),
                log: RdmaLog::with_certifier(policy.indexed_certifier(shard)),
                cs: ProcessId::new(u64::MAX),
                pending_writes: BTreeMap::new(),
                installing: None,
                truncation: TruncationConfig::default(),
                pending_connects: BTreeSet::new(),
                connect_retry_armed: false,
                connect_attempts: 0,
            },
        }
    }

    /// Sets the checkpointed-truncation policy (default: enabled, batch 32).
    pub fn set_truncation(&mut self, truncation: TruncationConfig) {
        self.member.truncation = truncation;
    }

    /// Sets the batching-pipeline knobs (default: batches of one).
    pub fn set_batching(&mut self, batching: BatchingConfig) {
        self.coord.set_batching(batching);
    }

    /// Sets the flow-control knobs (default: window 64).
    pub fn set_flow(&mut self, flow: FlowControlConfig) {
        self.coord.set_flow(flow);
    }

    /// The flow-control configuration in force at this replica.
    pub fn flow(&self) -> FlowControlConfig {
        self.coord.flow()
    }

    /// Installs the initial configuration, own identifier and configuration
    /// service at this replica. `in_initial_config` is false for spares.
    pub fn install_initial_config(
        &mut self,
        id: ProcessId,
        cs: ProcessId,
        config: &GlobalConfiguration,
        in_initial_config: bool,
    ) {
        let member = &mut self.member;
        member.id = id;
        member.cs = cs;
        member.epoch = config.epoch;
        member.config = Some(config.clone());
        if in_initial_config {
            member.initialized = true;
            member.status = if config.leader_of(member.shard) == Some(id) {
                RdmaStatus::Leader
            } else {
                RdmaStatus::Follower
            };
            member.connections = config
                .all_processes()
                .into_iter()
                .filter(|p| *p != id)
                .collect();
        }
    }

    // -- accessors -----------------------------------------------------------

    /// This replica's shard.
    pub fn shard(&self) -> ShardId {
        self.member.shard
    }

    /// Current status.
    pub fn status(&self) -> RdmaStatus {
        self.member.status
    }

    /// Current global epoch.
    pub fn epoch(&self) -> Epoch {
        self.member.epoch
    }

    /// Whether the replica has ever been initialised.
    pub fn is_initialized(&self) -> bool {
        self.member.initialized
    }

    /// The replica's certification log.
    pub fn log(&self) -> &RdmaLog {
        &self.member.log
    }

    /// The replica's current view of the global configuration.
    pub fn config(&self) -> Option<&GlobalConfiguration> {
        self.member.config.as_ref()
    }

    /// Number of transactions this replica is currently coordinating without
    /// a final decision.
    pub fn undecided_coordinated(&self) -> usize {
        self.coord.undecided_coordinated()
    }

    /// Whether this replica is currently driving a reconfiguration.
    pub fn reconfiguration_in_flight(&self) -> bool {
        self.recon.in_flight()
    }

    /// The transactions this replica coordinates that have no final decision.
    pub fn undecided_transactions(&self) -> Vec<TxId> {
        self.coord.undecided_transactions()
    }
}

impl Replication for Member {
    type Msg = RdmaMsg;

    fn view(&self, shard: ShardId) -> ShardView<'_> {
        let leader = self.config.as_ref().and_then(|c| c.leaders.get(&shard));
        ShardView {
            epoch: self.epoch,
            leader: leader.copied(),
            members: self.members_of(shard),
        }
    }

    /// Lines 91–93: persist the leader's votes with **one RDMA write per
    /// follower**; the hardware acknowledgement of that write acknowledges
    /// every slot it carries at once.
    fn persist_votes(
        &mut self,
        shard: ShardId,
        items: Items<PreparedItem>,
        ctx: &mut Context<'_, RdmaMsg>,
    ) -> Option<ProcessId> {
        let txs: Items<TxId> = items.iter().map(|item| item.tx).collect();
        let followers: Vec<ProcessId> = self.view(shard).followers().collect();
        let mut self_is_follower = false;
        for follower in followers {
            if follower == self.id {
                self_is_follower = true;
                continue;
            }
            let token = ctx.rdma_send(
                follower,
                RdmaMsg::AcceptBatch {
                    shard,
                    items: items.clone(),
                },
            );
            self.pending_writes.insert(
                token,
                AcceptWrite {
                    txs: txs.clone(),
                    shard,
                    follower,
                    epoch: self.epoch,
                },
            );
        }
        // Writing into our own memory trivially succeeds: apply the entries
        // locally and report the acknowledgement immediately.
        self_is_follower.then(|| {
            self.apply_rdma_payload(RdmaMsg::AcceptBatch { shard, items }, ctx);
            self.id
        })
    }

    /// Line 100: one `DECISION` write per shard member; this process's own
    /// log is decided in place.
    fn distribute_decisions(
        &mut self,
        shard: ShardId,
        items: Items<DecisionItem>,
        ctx: &mut Context<'_, RdmaMsg>,
    ) {
        for member in self.members_of(shard).to_vec() {
            let write = RdmaMsg::DecisionBatch {
                items: items.clone(),
            };
            if member == self.id {
                self.apply_rdma_payload(write, ctx);
            } else {
                ctx.rdma_send(member, write);
            }
        }
    }

    /// A global reconfiguration that excluded this process sends
    /// CONFIG_PREPARE and NEW_STATE only to members of the new configuration,
    /// so an excluded coordinator would retry into closed connections
    /// forever. One poll covers every shard (the lazy CONFIG_CHANGE of
    /// Figure 1, lines 67–69, lifted to the global protocol); the reply is
    /// handled by `handle_stale_view_refresh`.
    fn refresh_views(&mut self, _shards: &BTreeSet<ShardId>, ctx: &mut Context<'_, RdmaMsg>) {
        ctx.send(self.cs, RdmaMsg::CsGetLast);
    }
}

/// Figure 8's reconfiguration is global: the configuration service keeps one
/// sequence of system-wide configurations, and a chosen one is activated only
/// after every member has persisted it.
impl ReconHost for Member {
    type Msg = RdmaMsg;
    type Config = GlobalConfiguration;

    /// Line 106.
    fn fetch_latest(&mut self, _shard: ShardId, ctx: &mut Context<'_, RdmaMsg>) {
        ctx.send(self.cs, RdmaMsg::CsGetLast);
    }

    /// Line 129.
    fn fetch(&mut self, _shard: ShardId, epoch: Epoch, ctx: &mut Context<'_, RdmaMsg>) {
        ctx.send(self.cs, RdmaMsg::CsGet { epoch });
    }

    /// Lines 110 and 130.
    fn probe(&mut self, targets: Vec<ProcessId>, epoch: Epoch, ctx: &mut Context<'_, RdmaMsg>) {
        ctx.send_to_many(targets, RdmaMsg::Probe { epoch });
    }

    /// Lines 121–123. Shards that were not probed (naive mode) keep the
    /// configuration of this process's view.
    fn propose(
        &mut self,
        epoch: Epoch,
        mut leaders: BTreeMap<ShardId, ProcessId>,
        mut members: BTreeMap<ShardId, Vec<ProcessId>>,
        ctx: &mut Context<'_, RdmaMsg>,
    ) {
        if let Some(base) = &self.config {
            for (shard, m) in &base.members {
                members.entry(*shard).or_insert_with(|| m.clone());
            }
            for (shard, leader) in &base.leaders {
                leaders.entry(*shard).or_insert(*leader);
            }
        }
        let cas = RdmaMsg::CsCas {
            expected: epoch.prev().expect("a proposed epoch is a successor"),
            config: GlobalConfiguration::new(epoch, members, leaders),
        };
        ctx.send(self.cs, cas);
    }

    /// Line 124: disseminate the chosen configuration to every member and
    /// wait for all acknowledgements before activating it
    /// (`handle_config_prepare_ack`); a re-drive re-sends `CONFIG_PREPARE` to
    /// the members that have not acknowledged yet.
    fn install(
        &mut self,
        suspected: ShardId,
        chosen: Option<GlobalConfiguration>,
        ctx: &mut Context<'_, RdmaMsg>,
    ) -> bool {
        if let Some(config) = chosen {
            if self.mode == ReconfigMode::NaivePerShard {
                // Skip CONFIG_PREPARE entirely; notify the new leader of the
                // suspected shard only, and let other shards learn lazily
                // from the CS's `NaiveConfigChange` (§3's CONFIG_CHANGE, sent
                // at compare-and-swap time).
                if let Some(leader) = config.leader_of(suspected) {
                    ctx.send(leader, RdmaMsg::NewConfig { config });
                }
                return true;
            }
            let acks = BTreeSet::new();
            self.installing = Some(ConfigRound { config, acks });
        }
        let Some(ConfigRound { config, acks }) = &self.installing else {
            return true;
        };
        let mut missing = config.all_processes();
        missing.retain(|p| !acks.contains(p));
        let config = config.clone();
        ctx.send_to_many(missing, RdmaMsg::ConfigPrepare { config });
        false
    }
}

impl Member {
    fn members_of(&self, shard: ShardId) -> &[ProcessId] {
        self.config
            .as_ref()
            .map(|c| c.members_of(shard))
            .unwrap_or(&[])
    }

    /// Lines 107–110: what a reconfiguration started on suspicion of
    /// `suspected` probes in the latest configuration — every shard, or in
    /// the naive mode the suspected one alone — as `(shard, members, leader)`.
    fn shards_to_probe(
        &self,
        suspected: ShardId,
        latest: &GlobalConfiguration,
    ) -> Vec<(ShardId, Vec<ProcessId>, Option<ProcessId>)> {
        let naive = self.mode == ReconfigMode::NaivePerShard;
        let shards = latest.members.iter();
        shards
            .filter(|(shard, _)| !naive || **shard == suspected)
            .map(|(shard, members)| (*shard, members.clone(), latest.leader_of(*shard)))
            .collect()
    }

    /// Applies a message that was found in local memory (either polled by the
    /// simulator's `deliver-rdma` or drained by `flush`).
    fn apply_rdma_payload(&mut self, msg: RdmaMsg, ctx: &mut Context<'_, RdmaMsg>) {
        match msg {
            // Line 94–95: store unconditionally; followers cannot reject.
            // Per-slot votes are recoverable individually, so each item is
            // replayed on its own; a duplicate write replaying an occupied
            // slot is idempotent.
            RdmaMsg::AcceptBatch { shard: _, items } => {
                for item in items {
                    self.log.accept(item);
                }
            }
            // Line 101–102, then fold the own decided prefix if a fold batch
            // is due.
            RdmaMsg::DecisionBatch { items } => {
                for item in items.iter() {
                    self.log.decide(item.pos, item.decision);
                }
                self.log.truncate_if_due(self.truncation, ctx);
            }
            // Explicit no-ops: only `ACCEPT` and `DECISION` are one-sided
            // writes into follower memory; everything else in the vocabulary
            // travels as a routed message and never reaches
            // `apply_rdma_payload`.
            RdmaMsg::Certify { .. }
            | RdmaMsg::DecisionClient { .. }
            | RdmaMsg::Retry { .. }
            | RdmaMsg::TxDecided { .. }
            | RdmaMsg::PrepareBatch { .. }
            | RdmaMsg::PrepareAckBatch { .. }
            | RdmaMsg::StartReconfigure { .. }
            | RdmaMsg::Probe { .. }
            | RdmaMsg::ProbeAck { .. }
            | RdmaMsg::ConfigPrepare { .. }
            | RdmaMsg::ConfigPrepareAck { .. }
            | RdmaMsg::NewConfig { .. }
            | RdmaMsg::NewState { .. }
            | RdmaMsg::Connect { .. }
            | RdmaMsg::ConnectAck { .. }
            | RdmaMsg::CsGetLast
            | RdmaMsg::CsGetLastReply { .. }
            | RdmaMsg::CsGet { .. }
            | RdmaMsg::CsGetReply { .. }
            | RdmaMsg::CsCas { .. }
            | RdmaMsg::CsCasReply { .. }
            | RdmaMsg::NaiveConfigChange { .. } => {}
        }
    }

    /// Lines 77–90: the leader certifies the items of a `PREPARE` in order.
    /// Identical to the message-passing protocol's leader logic, so the step
    /// is shared with it (`CertificationLog::serve_prepare`).
    fn handle_prepare_batch(
        &mut self,
        from: ProcessId,
        items: Items<PrepareItem>,
        ctx: &mut Context<'_, RdmaMsg>,
    ) {
        if self.status != RdmaStatus::Leader {
            return;
        }
        self.log
            .serve_prepare(from, items, self.shard, self.epoch, ctx);
    }

    /// Handles a `get_last` reply the reconfigurer was not waiting for: a
    /// coordinator checking whether it has been left
    /// behind by a newer global configuration. Returns whether this process
    /// is excluded from `config`, having adopted it as its coordinator view.
    ///
    /// A process that is *not* a member of the newer configuration will
    /// never receive `CONFIG_PREPARE`/`NEW_STATE`, and — by design — its RDMA
    /// writes are rejected by every member, so transactions it coordinates
    /// can never complete: the caller has its coordinator hand every stalled
    /// transaction to the new leaders ([`Coordinator::hand_off`]).
    fn handle_stale_view_refresh(&mut self, config: GlobalConfiguration) -> bool {
        // Members of the current configuration complete their transactions
        // through the normal path; only an *excluded* process must hand off.
        // The check is on membership, not on seeing a newer epoch: a process
        // that already adopted the configuration it was dropped from would
        // otherwise retry new transactions into closed connections forever
        // (its RDMA writes are rejected by every member).
        if config.epoch < self.epoch || config.all_processes().contains(&self.id) {
            return false;
        }
        if config.epoch > self.epoch {
            self.epoch = config.epoch;
            if self.new_epoch < config.epoch {
                self.new_epoch = config.epoch;
            }
            self.config = Some(config);
        }
        true
    }

    // -- reconfiguration, probed side (the reconfigurer is `ratc_core::recon`) --

    /// Lines 111–116: join the new epoch; in the correct mode, also close all
    /// incoming RDMA connections so stale coordinators can no longer land
    /// writes.
    fn handle_probe(&mut self, from: ProcessId, epoch: Epoch, ctx: &mut Context<'_, RdmaMsg>) {
        if epoch < self.new_epoch {
            return;
        }
        self.status = RdmaStatus::Reconfiguring;
        if self.mode == ReconfigMode::GlobalCorrect {
            // multiclose(connections): revoke every peer's access, including
            // coordinators outside this replica's bookkeeping.
            ctx.rdma_close_all();
            self.connections.clear();
        }
        self.new_epoch = epoch;
        ctx.send(
            from,
            RdmaMsg::ProbeAck {
                initialized: self.initialized,
                epoch,
                shard: self.shard,
            },
        );
    }

    /// Lines 131–136. `CONFIG_PREPARE` only *persists* the configuration and
    /// raises `new_epoch`; it must not replace the replica's active view.
    /// In-flight coordinations of the current epoch keep evaluating their
    /// completion condition against the membership they were started in —
    /// mixing the old epoch's progress with the new epoch's membership lets
    /// a coordinator whose follower set shrank declare a transaction
    /// persisted at processes the new configuration never transfers state
    /// from (a safety violation the chaos nemesis found unscripted). The
    /// active view switches at `NEW_CONFIG`/`NEW_STATE`, which carry the
    /// configuration again.
    fn handle_config_prepare(
        &mut self,
        from: ProcessId,
        config: GlobalConfiguration,
        ctx: &mut Context<'_, RdmaMsg>,
    ) {
        if config.epoch < self.new_epoch {
            return;
        }
        self.new_epoch = config.epoch;
        ctx.send(
            from,
            RdmaMsg::ConfigPrepareAck {
                epoch: config.epoch,
            },
        );
    }

    /// Lines 137–140: once every member holds the chosen configuration, its
    /// leaders may activate it. Returns whether this acknowledgement
    /// finished the round.
    fn handle_config_prepare_ack(
        &mut self,
        from: ProcessId,
        epoch: Epoch,
        ctx: &mut Context<'_, RdmaMsg>,
    ) -> bool {
        let Some(round) = self.installing.as_mut() else {
            return false;
        };
        if epoch != round.config.epoch {
            return false;
        }
        round.acks.insert(from);
        let complete =
            |r: &mut ConfigRound| r.config.all_processes().iter().all(|p| r.acks.contains(p));
        let Some(ConfigRound { config, .. }) = self.installing.take_if(complete) else {
            return false;
        };
        ctx.send_to_many(config.all_leaders(), RdmaMsg::NewConfig { config });
        true
    }

    /// Lines 141–147: become a leader of the new configuration. `flush`
    /// guarantees every acknowledged write is reflected in the transferred
    /// state. Returns whether the view moved to a newer epoch.
    fn handle_new_config(
        &mut self,
        config: GlobalConfiguration,
        ctx: &mut Context<'_, RdmaMsg>,
    ) -> bool {
        if config.epoch < self.new_epoch {
            return false;
        }
        let advanced = self.epoch < config.epoch;
        let flushed = ctx.rdma_flush();
        for (_, msg) in flushed {
            self.apply_rdma_payload(msg, ctx);
        }
        let previous_leader = self.config.as_ref().and_then(|c| c.leader_of(self.shard));
        self.status = RdmaStatus::Leader;
        self.new_epoch = config.epoch;
        self.epoch = config.epoch;
        self.config = Some(config.clone());
        if previous_leader != Some(self.id) {
            ctx.ctrl_milestone(
                CtrlMilestone::LeaderHandoff,
                Some(self.shard),
                config.epoch.as_u64(),
            );
        }
        ctx.ctrl_milestone(
            CtrlMilestone::ShardOperational,
            Some(self.shard),
            config.epoch.as_u64(),
        );
        let followers = config.followers_of(self.shard);
        for follower in followers {
            ctx.send(
                follower,
                RdmaMsg::NewState {
                    config: config.clone(),
                    leader: self.id,
                    log: Box::new(self.log.clone()),
                },
            );
        }
        // Line 147: open connections to every other member of the new epoch,
        // retrying the handshake until everyone has answered.
        self.begin_connect_round(config.all_processes(), ctx);
        ctx.add_counter("became_leader", 1);
        advanced
    }

    /// Lines 148–153. Returns whether the view moved to a newer epoch.
    fn handle_new_state(
        &mut self,
        config: GlobalConfiguration,
        leader: ProcessId,
        log: RdmaLog,
        ctx: &mut Context<'_, RdmaMsg>,
    ) -> bool {
        if config.epoch < self.new_epoch {
            return false;
        }
        let advanced = self.epoch < config.epoch;
        let _ = leader;
        self.status = RdmaStatus::Follower;
        self.new_epoch = config.epoch;
        self.epoch = config.epoch;
        self.initialized = true;
        self.log = log;
        self.config = Some(config.clone());
        ctx.ctrl_milestone(
            CtrlMilestone::StateTransferred,
            Some(self.shard),
            config.epoch.as_u64(),
        );
        // Line 153: connect to the other processes of the new epoch (the
        // leader initiates in-shard connections too; the handshake is
        // idempotent and retried until everyone has answered).
        self.begin_connect_round(config.all_processes(), ctx);
        advanced
    }

    /// The view moved to a newer epoch, and with it every shard's: re-drive
    /// what stalled on each ([`Coordinator::on_view_change`]). The connect
    /// round to every peer has just been sent, ahead of these `PREPARE`s,
    /// and the first `ACCEPT` write leaves only after a `PREPARE_ACK` round
    /// trip, so it reaches a follower after this process's `Connect`. A
    /// write that lands first anyway is rejected, and the retry tick
    /// re-drives.
    fn redrive(&mut self, coord: &mut Coordinator, ctx: &mut Context<'_, RdmaMsg>) {
        let shards: Vec<ShardId> = self
            .config
            .iter()
            .flat_map(|c| c.members.keys())
            .copied()
            .collect();
        for shard in shards {
            coord.on_view_change(shard, self, ctx);
        }
    }

    /// Lines 154–162. A connection request for an epoch at least as high as
    /// the one we have been asked to join is also accepted while still
    /// reconfiguring: it belongs to the new configuration, which is exactly
    /// what the paper's `open` calls establish.
    fn handle_connect(
        &mut self,
        from: ProcessId,
        epoch: Epoch,
        ctx: &mut Context<'_, RdmaMsg>,
        is_ack: bool,
    ) {
        // Never admit a peer from an epoch older than ours, or, while
        // reconfiguring, older than the one we have been asked to join:
        // reconfiguration deliberately closed its connections to fence its
        // stale writes (the crux of §5's correctness), and a crash-restarted
        // process still in an old epoch must first catch up — via its
        // configuration-service poll, a probe, or `NEW_STATE` — before its
        // handshake (sent with its then-current epoch) is accepted.
        let floor = match self.status {
            RdmaStatus::Reconfiguring => self.new_epoch,
            RdmaStatus::Leader | RdmaStatus::Follower => self.epoch,
        };
        if epoch < floor {
            if is_ack {
                // The peer admitted our `Connect` but is behind: our side
                // stays closed, and it connects to us itself once it joins
                // our epoch (`NEW_STATE` and `NEW_CONFIG` start a round), so
                // retrying cannot help.
                self.pending_connects.remove(&from);
            } else {
                // A refusal: an ack carrying the newer epoch, which opens
                // nothing on either side and ends the peer's retries to us
                // instead of letting them run to the cap.
                ctx.send(from, RdmaMsg::ConnectAck { epoch: floor });
            }
            return;
        }
        // An ack from a newer epoch than ours is such a refusal: an admitted
        // `Connect` is acked with the acker's epoch, never above the
        // connector's. The refuser stays pending no more, and stays closed.
        if is_ack && epoch > self.epoch {
            self.pending_connects.remove(&from);
            return;
        }
        // Re-open even if the peer was already believed connected: the peer
        // may have crashed and restarted, in which case its NIC lost every
        // permission and the old connection state is meaningless. `open` is
        // idempotent, and a `ConnectAck` never triggers a further reply, so
        // repeats cannot loop.
        ctx.rdma_open(from);
        self.connections.insert(from);
        // Either direction of the handshake completes a pending post-restart
        // reconnect to `from`.
        self.pending_connects.remove(&from);
        if !is_ack {
            ctx.send(from, RdmaMsg::ConnectAck { epoch: self.epoch });
        }
    }

    /// Starts (or restarts) a `Connect` handshake round with `peers`,
    /// retried until every peer has answered with `Connect`/`ConnectAck`.
    /// Used after a crash-restart and when joining a new configuration: the
    /// handshake travels over faultable links, and a permanently missing
    /// connection means every future write to that peer is silently
    /// rejected.
    fn begin_connect_round(&mut self, peers: Vec<ProcessId>, ctx: &mut Context<'_, RdmaMsg>) {
        self.connect_attempts = 0;
        self.pending_connects = peers.into_iter().filter(|p| *p != self.id).collect();
        for peer in self.pending_connects.clone() {
            ctx.send(peer, RdmaMsg::Connect { epoch: self.epoch });
        }
        if !self.pending_connects.is_empty() && !self.connect_retry_armed {
            ctx.set_timer(CONNECT_RETRY, CONNECT_RETRY_TICK);
            self.connect_retry_armed = true;
        }
    }

    /// Re-sends `Connect` to every peer that has not answered since the last
    /// restart. The handshake travels over faultable links, so a single
    /// attempt can be lost — and a permanently missing connection means every
    /// future write to that peer is silently rejected.
    fn handle_connect_retry_tick(&mut self, ctx: &mut Context<'_, RdmaMsg>) {
        self.connect_retry_armed = false;
        if self.pending_connects.is_empty() {
            return;
        }
        self.connect_attempts += 1;
        if self.connect_attempts > CONNECT_RETRY_CAP {
            // The remaining peers look permanently gone; stop keeping the
            // event queue alive. A restart or reconfiguration starts a
            // fresh round.
            self.pending_connects.clear();
            ctx.add_counter("connect_rounds_abandoned", 1);
            return;
        }
        for peer in self.pending_connects.clone() {
            ctx.send(peer, RdmaMsg::Connect { epoch: self.epoch });
        }
        ctx.set_timer(CONNECT_RETRY, CONNECT_RETRY_TICK);
        self.connect_retry_armed = true;
    }

    /// Naive mode only: lazily learn about a new configuration (mirrors §3's
    /// CONFIG_CHANGE).
    fn handle_naive_config_change(&mut self, config: GlobalConfiguration) {
        if config.epoch <= self.epoch {
            return;
        }
        // Members of the reconfigured shard learn through NEW_CONFIG/NEW_STATE;
        // everyone else just updates its view.
        if (Some(self.id) == config.leader_of(self.shard)
            || config.members_of(self.shard).contains(&self.id))
            && self.status == RdmaStatus::Reconfiguring
        {
            return;
        }
        self.config = Some(config.clone());
        self.epoch = config.epoch;
        if self.new_epoch < config.epoch {
            self.new_epoch = config.epoch;
        }
        if self.status != RdmaStatus::Reconfiguring {
            self.status = if config.leader_of(self.shard) == Some(self.id) {
                RdmaStatus::Leader
            } else {
                RdmaStatus::Follower
            };
        }
    }
}

impl Actor<RdmaMsg> for RdmaReplica {
    fn on_message(&mut self, from: ProcessId, msg: RdmaMsg, ctx: &mut Context<'_, RdmaMsg>) {
        let RdmaReplica {
            coord,
            recon,
            member,
        } = self;
        match msg {
            RdmaMsg::Certify {
                tx,
                payload,
                client,
            } => coord.certify(tx, payload, client, member, ctx),
            RdmaMsg::PrepareBatch { batch } => member.handle_prepare_batch(from, batch.items, ctx),
            RdmaMsg::PrepareAckBatch {
                epoch,
                shard,
                items,
            } => coord.on_prepare_ack(epoch, shard, items, member, ctx),
            RdmaMsg::DecisionClient { .. } => {}
            RdmaMsg::Retry { tx } => {
                coord.take_over(tx, member.log.prepared_tx(tx), member.shard, member, ctx)
            }
            RdmaMsg::TxDecided {
                tx,
                decision,
                client,
            } => coord.on_tx_decided(tx, decision, client, member, ctx),
            RdmaMsg::StartReconfigure {
                suspected_shard,
                spares,
                target_size,
                exclude,
            } => {
                let (shard, current) = (suspected_shard, member.epoch);
                recon.start(shard, current, spares, target_size, exclude, member, ctx)
            }
            RdmaMsg::Probe { epoch } => member.handle_probe(from, epoch, ctx),
            RdmaMsg::ProbeAck {
                initialized,
                epoch,
                shard,
            } => recon.on_probe_ack(from, initialized, epoch, shard, member, ctx),
            RdmaMsg::ConfigPrepare { config } => member.handle_config_prepare(from, config, ctx),
            RdmaMsg::ConfigPrepareAck { epoch } => {
                if member.handle_config_prepare_ack(from, epoch, ctx) {
                    recon.installed();
                }
            }
            RdmaMsg::NewConfig { config } => {
                if member.handle_new_config(config, ctx) {
                    member.redrive(coord, ctx);
                }
            }
            RdmaMsg::NewState {
                config,
                leader,
                log,
            } => {
                if member.handle_new_state(config, leader, *log, ctx) {
                    member.redrive(coord, ctx);
                }
            }
            RdmaMsg::Connect { epoch } => member.handle_connect(from, epoch, ctx, false),
            RdmaMsg::ConnectAck { epoch } => member.handle_connect(from, epoch, ctx, true),
            RdmaMsg::CsGetLastReply { config } => {
                if let Some(suspected) = recon.awaiting_latest() {
                    let probed = member.shards_to_probe(suspected, &config);
                    recon.on_latest(config.epoch, probed, member, ctx);
                } else if member.handle_stale_view_refresh(config) {
                    // Not the reconfigurer's `get_last`: a stalled
                    // coordinator's view-refresh poll
                    // (`Replication::refresh_views`) found it excluded.
                    coord.hand_off(member, ctx);
                }
            }
            // `get(e)` names no shard: the reply is for every shard whose
            // probe descended to `e`.
            RdmaMsg::CsGetReply { epoch, config } => {
                for shard in recon.awaiting_older(epoch) {
                    let members = config.as_ref().map(|c| c.members_of(shard).to_vec());
                    recon.on_older(shard, epoch, members, member, ctx);
                }
            }
            RdmaMsg::CsCasReply { ok, config } => {
                recon.on_cas_reply(ok, config.epoch, config, member, ctx)
            }
            RdmaMsg::NaiveConfigChange { config } => member.handle_naive_config_change(config),
            // `ACCEPT` and `DECISION` only ever arrive through RDMA; requests
            // to the configuration service are ignored by replicas.
            RdmaMsg::AcceptBatch { .. }
            | RdmaMsg::DecisionBatch { .. }
            | RdmaMsg::CsGetLast
            | RdmaMsg::CsGet { .. }
            | RdmaMsg::CsCas { .. } => {}
        }
    }

    fn on_rdma_deliver(&mut self, _from: ProcessId, msg: RdmaMsg, ctx: &mut Context<'_, RdmaMsg>) {
        self.member.apply_rdma_payload(msg, ctx);
    }

    /// Lines 96–100 bookkeeping: the NIC acknowledged an `ACCEPT` write, and
    /// with it every slot the write carried.
    fn on_rdma_ack(&mut self, token: RdmaToken, _to: ProcessId, ctx: &mut Context<'_, RdmaMsg>) {
        let RdmaReplica { coord, member, .. } = self;
        let Some(write) = member.pending_writes.remove(&token) else {
            return; // a `DECISION` write: nothing waits on it
        };
        let acks = write.txs.iter().map(|tx| (*tx, None));
        coord.record_acks(write.follower, write.shard, write.epoch, acks, member, ctx);
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<'_, RdmaMsg>) {
        let RdmaReplica {
            coord,
            recon,
            member,
        } = self;
        if tag == RETRY_TICK {
            coord.retry_tick(member, ctx);
        } else if tag == BATCH_TICK {
            coord.batch_tick(member, ctx);
        } else if tag == PROBE_GRACE_TICK {
            recon.on_grace_tick(member, ctx);
        } else if tag == RECON_RETRY_TICK {
            recon.on_retry_tick(member, ctx);
        } else if tag == CONNECT_RETRY_TICK {
            member.handle_connect_retry_tick(ctx);
        }
    }

    /// Crash-restart recovery. Stable storage is the certification log (its
    /// checkpoint, its retained suffix and its index's `L1` summary of
    /// committed writers) and the configuration view. Volatile: the index's
    /// `L2` lock table, rebuilt from the retained prepared slots
    /// (`CertificationLog::restart`), the coordinator, the reconfigurer,
    /// outstanding writes and the RDMA connections. The connections are lost
    /// with the NIC and re-established by re-running the `Connect` handshake
    /// with every process of the current view.
    fn on_restart(&mut self, ctx: &mut Context<'_, RdmaMsg>) {
        self.coord.reset();
        self.recon.reset();
        let member = &mut self.member;
        member.pending_writes.clear();
        member.installing = None;
        // Writes that reached the persistent region were acknowledged to
        // their senders — they count as persisted here, even across the
        // crash. Recover them before rebuilding the lock table (the `flush`
        // of §5, the same call leader promotion uses).
        let flushed = ctx.rdma_flush();
        for (_, msg) in flushed {
            member.apply_rdma_payload(msg, ctx);
        }
        member.log.restart();
        member.connections.clear();
        member.connect_retry_armed = false;
        if let Some(config) = member.config.clone() {
            member.begin_connect_round(config.all_processes(), ctx);
        } else {
            member.pending_connects.clear();
        }
        ctx.add_counter("replica_restarts", 1);
    }
}
