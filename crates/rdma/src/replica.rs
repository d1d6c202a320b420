//! The RDMA replica state machine (Figures 7–8, line by line).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use ratc_config::{GlobalConfiguration, MembershipPlanner};
use ratc_core::batch::{
    sorted_entry, BatchingConfig, DecisionItem, Items, PrepareBatch, PrepareItem, PreparedItem,
    ShardDecisions, VoteBatcher,
};
use ratc_core::flow::{AdmissionQueue, FlowControlConfig};
use ratc_core::log::TxPhase;
use ratc_core::replica::TruncationConfig;
use ratc_sim::rdma::RdmaToken;
use ratc_sim::{Actor, BackoffState, Context, CtrlMilestone, SimDuration, TimerTag, TxMilestone};
use ratc_types::{
    CertificationPolicy, Decision, Epoch, IndexedCertifier, Payload, Position, ProcessId,
    ShardCertifier, ShardId, ShardMap, TxId,
};

use crate::messages::RdmaMsg;

/// The certification log of the RDMA protocol. Identical in structure to the
/// message-passing protocol's log, so the type is shared with `ratc-core`.
pub type RdmaLog = ratc_core::log::CertificationLog;

/// Timer tag used for the coordinator's re-transmission tick.
const RETRY_TICK: TimerTag = 1;

/// Timer tag used to flush a partially filled prepare batch.
const BATCH_TICK: TimerTag = 2;

/// Timer tag ending the probe grace period (see `handle_probe_ack`).
const PROBE_GRACE_TICK: TimerTag = 3;

/// Timer tag re-driving a reconfiguration whose probes were lost.
const RECON_RETRY_TICK: TimerTag = 4;

/// Timer tag re-driving the post-restart `Connect` handshake until every
/// peer has answered (the handshake itself travels over faultable links).
const CONNECT_RETRY_TICK: TimerTag = 5;

/// Interval between `Connect` handshake retries.
const CONNECT_RETRY: SimDuration = SimDuration::from_millis(25);

/// Handshake retries after which unanswered peers are given up on (10
/// simulated seconds): bounds the event queue when a peer is gone for good;
/// a later restart or reconfiguration starts a fresh round.
const CONNECT_RETRY_CAP: u32 = 400;

/// Probe restarts after which a reconfiguration is abandoned (10 simulated
/// seconds), so an unrecoverable cluster does not keep the event queue
/// alive forever. A later `StartReconfigure` can always try again.
const RECON_RETRY_CAP: u32 = 200;

/// How long the reconfigurer waits for further in-flight probe replies after
/// every probed shard has an initialised responder.
const PROBE_GRACE: SimDuration = SimDuration::from_micros(500);

/// Interval after which a still-unfinished reconfiguration restarts probing.
const RECON_RETRY: SimDuration = SimDuration::from_millis(50);

/// The data needed to distribute a completed transaction's decision: the
/// client, the decision, and per-shard `(position, truncation floor)` targets.
type Completion = (ProcessId, Decision, Vec<(ShardId, Position, Position)>);

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

/// Replica status (the paper's `status`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RdmaStatus {
    /// Shard leader in the current epoch.
    Leader,
    /// Shard follower in the current epoch.
    Follower,
    /// Probed for a higher epoch; transaction processing stopped.
    Reconfiguring,
}

#[derive(Debug, Clone, Default)]
struct ShardProgress {
    pos: Option<Position>,
    vote: Option<Decision>,
    /// Followers whose RDMA acknowledgement has been received.
    acked: BTreeSet<ProcessId>,
    /// The shard leader's decided frontier, gossiped on `PREPARE_ACK` (RDMA
    /// hardware acks carry no payload, so followers cannot gossip theirs).
    leader_frontier: Option<Position>,
}

#[derive(Debug, Clone)]
struct CoordState {
    client: ProcessId,
    payload: Option<Payload>,
    shards: Vec<ShardId>,
    /// Progress per shard per (global) epoch.
    progress: BTreeMap<ShardId, BTreeMap<Epoch, ShardProgress>>,
    decided: bool,
    /// The final decision this coordinator computed or learned, kept so a
    /// re-submitted `certify` of an already-decided transaction is answered
    /// directly (the original `DECISION` may have been lost to a fault).
    decision: Option<Decision>,
    /// A decision learned out-of-band from a `TxDecided` reply (the
    /// transaction was truncated at some shard); propagated to shards that
    /// still hold the transaction as prepared (see `flush_known_decision`).
    known_decision: Option<Decision>,
}

/// What an outstanding RDMA write was for.
#[derive(Debug, Clone)]
enum PendingWrite {
    /// The votes of one `ACCEPT` write (see `ratc_core::batch`): the
    /// hardware acknowledgement acknowledges every slot of it at once.
    AcceptBatch {
        txs: Items<TxId>,
        shard: ShardId,
        follower: ProcessId,
        epoch: Epoch,
    },
    Other,
}

#[derive(Debug, Clone)]
enum ReconPhase {
    AwaitingGetLast,
    Probing,
    AwaitingCas,
    Installing { config: GlobalConfiguration },
}

#[derive(Debug, Clone)]
struct ReconState {
    phase: ReconPhase,
    recon_epoch: Epoch,
    suspected_shard: ShardId,
    /// Per shard: the epoch currently being probed and its members.
    probed_epoch: BTreeMap<ShardId, Epoch>,
    probed_members: BTreeMap<ShardId, Vec<ProcessId>>,
    /// Per shard: responders, in arrival order.
    responders: BTreeMap<ShardId, Vec<ProcessId>>,
    /// Per shard: responders that reported themselves initialised.
    initialized: BTreeMap<ShardId, Vec<ProcessId>>,
    /// Per shard: the leader of the configuration returned by `get_last`,
    /// preferred as the shard's new leader if it responds initialised.
    prev_leaders: BTreeMap<ShardId, ProcessId>,
    /// The armed probe grace timer (see `handle_probe_ack`); cancelled when
    /// probing restarts so a stale tick cannot finish the new round early.
    grace_timer: Option<ratc_sim::actor::TimerId>,
    /// Probe restarts so far; abandoned past [`RECON_RETRY_CAP`].
    retries: u32,
    config_prepare_acks: BTreeSet<ProcessId>,
    spares: BTreeMap<ShardId, Vec<ProcessId>>,
    target_size: usize,
    exclude: Vec<ProcessId>,
}

/// A replica of the RDMA-based protocol.
pub struct RdmaReplica {
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
    certifier: Arc<dyn ShardCertifier>,
    /// Pristine (empty) incremental certifier, cloned whenever an installed
    /// log needs an index rebuilt (see `handle_new_state`).
    index_factory: Box<dyn IndexedCertifier>,
    sharding: Arc<dyn ShardMap + Send + Sync>,
    cs: ProcessId,
    coordinating: BTreeMap<TxId, CoordState>,
    pending_writes: BTreeMap<RdmaToken, PendingWrite>,
    recon: Option<ReconState>,
    retry_interval: SimDuration,
    retry_timer_armed: bool,
    truncation: TruncationConfig,
    batching: BatchingConfig,
    batcher: VoteBatcher<TxId>,
    batch_timer_armed: bool,
    /// Flow-control knobs: coordinator admission window and retry backoff.
    flow: FlowControlConfig,
    /// Submissions waiting for an admission-window slot (FIFO, deduplicated).
    admission: AdmissionQueue<(Payload, ProcessId)>,
    /// Running count of undecided coordinated transactions — kept in O(1)
    /// lockstep with `coordinating` so the admission check does not rescan
    /// the map (which retains decided entries) on every certify and drain.
    in_flight: usize,
    /// Per-transaction retry-backoff schedules.
    retry_backoff: BTreeMap<TxId, BackoffState>,
    /// Peers whose `Connect`/`ConnectAck` is still outstanding after a
    /// restart; the handshake is retried until this empties (or the retry
    /// cap gives up on permanently unreachable peers).
    pending_connects: BTreeSet<ProcessId>,
    connect_retry_armed: bool,
    connect_attempts: u32,
    /// Decided frontiers gossiped by the other members of this replica's
    /// shard via `FrontierExchange` (RDMA hardware acks carry no payload, so
    /// the data path cannot carry them).
    peer_frontiers: BTreeMap<ProcessId, Position>,
    /// The frontier this replica last broadcast to its peers; a new exchange
    /// is sent once the frontier advances by a full truncation batch.
    last_gossiped_frontier: Position,
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
            certifier: policy.shard_certifier(shard),
            index_factory: policy.indexed_certifier(shard),
            sharding,
            cs: ProcessId::new(u64::MAX),
            coordinating: BTreeMap::new(),
            pending_writes: BTreeMap::new(),
            recon: None,
            retry_interval: SimDuration::from_millis(20),
            retry_timer_armed: false,
            truncation: TruncationConfig::default(),
            batching: BatchingConfig::default(),
            batcher: VoteBatcher::new(BatchingConfig::default()),
            batch_timer_armed: false,
            flow: FlowControlConfig::default(),
            admission: AdmissionQueue::new(),
            in_flight: 0,
            retry_backoff: BTreeMap::new(),
            pending_connects: BTreeSet::new(),
            connect_retry_armed: false,
            connect_attempts: 0,
            peer_frontiers: BTreeMap::new(),
            last_gossiped_frontier: Position::ZERO,
        }
    }

    /// Sets the checkpointed-truncation policy (default: enabled, batch 32).
    pub fn set_truncation(&mut self, truncation: TruncationConfig) {
        self.truncation = truncation;
    }

    /// Sets the batching-pipeline knobs (default: batches of one).
    pub fn set_batching(&mut self, batching: BatchingConfig) {
        self.batching = batching;
        self.batcher.set_config(batching);
    }

    /// Sets the flow-control knobs (default: enabled, window 64,
    /// exponential backoff).
    pub fn set_flow(&mut self, flow: FlowControlConfig) {
        self.flow = flow;
    }

    /// The flow-control configuration in force at this replica.
    pub fn flow(&self) -> FlowControlConfig {
        self.flow
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
        self.id = id;
        self.cs = cs;
        self.epoch = config.epoch;
        self.config = Some(config.clone());
        if in_initial_config {
            self.initialized = true;
            self.status = if config.leader_of(self.shard) == Some(id) {
                RdmaStatus::Leader
            } else {
                RdmaStatus::Follower
            };
            self.connections = config
                .all_processes()
                .into_iter()
                .filter(|p| *p != id)
                .collect();
        }
    }

    // -- accessors -----------------------------------------------------------

    /// This replica's shard.
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// Current status.
    pub fn status(&self) -> RdmaStatus {
        self.status
    }

    /// Current global epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Whether the replica has ever been initialised.
    pub fn is_initialized(&self) -> bool {
        self.initialized
    }

    /// The replica's certification log.
    pub fn log(&self) -> &RdmaLog {
        &self.log
    }

    /// The replica's current view of the global configuration.
    pub fn config(&self) -> Option<&GlobalConfiguration> {
        self.config.as_ref()
    }

    /// Number of transactions this replica is currently coordinating without
    /// a final decision.
    pub fn undecided_coordinated(&self) -> usize {
        debug_assert_eq!(
            self.in_flight,
            self.coordinating.values().filter(|c| !c.decided).count(),
            "in-flight counter out of lockstep with coordinating map"
        );
        self.in_flight
    }

    /// Whether this replica is currently driving a reconfiguration.
    pub fn reconfiguration_in_flight(&self) -> bool {
        self.recon.is_some()
    }

    /// The transactions this replica coordinates that have no final decision.
    pub fn undecided_transactions(&self) -> Vec<TxId> {
        self.coordinating
            .iter()
            .filter(|(_, c)| !c.decided)
            .map(|(tx, _)| *tx)
            .collect()
    }

    // -- helpers -------------------------------------------------------------

    fn leader_of(&self, shard: ShardId) -> Option<ProcessId> {
        self.config.as_ref().and_then(|c| c.leader_of(shard))
    }

    fn followers_of(&self, shard: ShardId) -> Vec<ProcessId> {
        self.config
            .as_ref()
            .map(|c| c.followers_of(shard))
            .unwrap_or_default()
    }

    fn arm_retry_timer(&mut self, ctx: &mut Context<'_, RdmaMsg>) {
        if !self.retry_timer_armed
            && (self.undecided_coordinated() > 0 || !self.admission.is_empty())
        {
            ctx.set_timer(self.retry_interval, RETRY_TICK);
            self.retry_timer_armed = true;
        }
    }

    /// Per-transaction jitter salt: decorrelates this coordinator's retry
    /// schedule for `tx` from every other transaction's without consuming
    /// shared RNG state.
    fn backoff_salt(&self, tx: TxId) -> u64 {
        tx.as_u64() ^ self.id.as_u64().rotate_left(17)
    }

    /// Records that a retry for `tx` fired at `now` and schedules the next.
    fn backoff_fired(&mut self, tx: TxId, now: u64) {
        let (policy, salt) = (self.flow.backoff, self.backoff_salt(tx));
        self.retry_backoff
            .entry(tx)
            .or_insert_with(|| BackoffState::armed(&policy, salt, now))
            .fired(&policy, salt, now);
    }

    /// Whether `tx`'s next retry is due at `now` (always true without flow
    /// control, or before the first deadline is armed).
    fn backoff_due(&self, tx: TxId, now: u64) -> bool {
        !self.flow.enabled
            || self
                .retry_backoff
                .get(&tx)
                .map(|b| b.due(now))
                .unwrap_or(true)
    }

    /// Admits queued submissions into freed window slots (oldest first).
    fn drain_admission(&mut self, ctx: &mut Context<'_, RdmaMsg>) {
        while self.flow.admits(self.undecided_coordinated()) {
            let Some((tx, (payload, client))) = self.admission.pop() else {
                break;
            };
            self.handle_certify(tx, payload, client, ctx);
        }
    }

    /// Sends `PREPARE` for `txs` (line 76): one `PREPARE_BATCH` per involved
    /// shard leader — in leader order, items in `txs` order — with each
    /// payload restricted to the leader's shard, or `⊥` when this
    /// coordinator has no payload (a recovery coordinator). Returns the
    /// number of messages sent.
    fn send_prepares(&self, ctx: &mut Context<'_, RdmaMsg>, txs: &[TxId]) -> u64 {
        let mut per_leader: Vec<(ProcessId, Items<PrepareItem>)> = Vec::new();
        for &tx in txs {
            let Some(coord) = self.coordinating.get(&tx) else {
                continue;
            };
            for shard in &coord.shards {
                let Some(leader) = self.leader_of(*shard) else {
                    continue;
                };
                let restricted = coord
                    .payload
                    .as_ref()
                    .map(|p| p.restrict(*shard, self.sharding.as_ref()));
                sorted_entry(&mut per_leader, leader).push(PrepareItem {
                    tx,
                    payload: restricted,
                    shards: coord.shards.clone(),
                    client: coord.client,
                });
            }
        }
        let sent = per_leader.len() as u64;
        for (leader, items) in per_leader {
            ctx.send(
                leader,
                RdmaMsg::PrepareBatch {
                    batch: PrepareBatch { items },
                },
            );
        }
        sent
    }

    /// Re-sends `PREPARE` for one transaction outside the batcher — a retry,
    /// or a recovery coordinator's `PREPARE(t, ⊥)` — as one-item batches.
    fn resend_prepares(&self, ctx: &mut Context<'_, RdmaMsg>, tx: TxId) {
        ctx.obs_milestone(tx, TxMilestone::CertifySent, 0);
        self.send_prepares(ctx, &[tx]);
    }

    /// The coordinator state of `tx`, created (and counted in flight) if this
    /// replica is not coordinating it yet — a recovery coordinator, which has
    /// no payload.
    fn coord_entry(&mut self, tx: TxId, client: ProcessId, shards: &[ShardId]) -> &mut CoordState {
        if !self.coordinating.contains_key(&tx) {
            self.in_flight += 1;
        }
        self.coordinating.entry(tx).or_insert_with(|| CoordState {
            client,
            payload: None,
            shards: shards.to_vec(),
            progress: BTreeMap::new(),
            decided: false,
            decision: None,
            known_decision: None,
        })
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
            // Line 101–102, plus checkpointed truncation at the hinted floor.
            RdmaMsg::DecisionBatch { items, truncate_to } => {
                for item in items.iter() {
                    self.log.decide(item.pos, item.decision);
                }
                self.maybe_truncate(truncate_to, ctx);
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
            | RdmaMsg::FrontierExchange { .. }
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

    // -- member-to-member frontier exchange (see `RdmaMsg::FrontierExchange`) --

    /// Broadcasts this member's decided frontier to its shard peers once it
    /// has advanced by a full truncation batch since the last broadcast.
    /// Event-driven rather than wall-clock-periodic so a quiescent cluster
    /// stays quiescent; "periodic" in position space.
    fn maybe_gossip_frontier(&mut self, ctx: &mut Context<'_, RdmaMsg>) {
        if !self.truncation.enabled || !self.initialized || self.status == RdmaStatus::Reconfiguring
        {
            return;
        }
        let frontier = self.log.decided_frontier();
        if frontier.as_u64() < self.last_gossiped_frontier.as_u64() + self.truncation.batch {
            return;
        }
        self.last_gossiped_frontier = frontier;
        let peers: Vec<ProcessId> = self
            .config
            .as_ref()
            .map(|c| {
                c.members_of(self.shard)
                    .iter()
                    .copied()
                    .filter(|p| *p != self.id)
                    .collect()
            })
            .unwrap_or_default();
        ctx.add_counter("frontier_exchanges", peers.len() as u64);
        ctx.send_to_many(
            peers,
            RdmaMsg::FrontierExchange {
                shard: self.shard,
                frontier,
            },
        );
    }

    /// The cluster-wide minimum decided frontier of this replica's shard:
    /// its own frontier met with every peer's last gossiped one (a member
    /// never heard from pins the floor at zero — safe, it just delays
    /// truncation until everyone has gossiped).
    fn cluster_frontier_floor(&self) -> Position {
        let members = self
            .config
            .as_ref()
            .map(|c| c.members_of(self.shard).to_vec())
            .unwrap_or_default();
        members
            .iter()
            .map(|m| {
                if *m == self.id {
                    self.log.decided_frontier()
                } else {
                    self.peer_frontiers
                        .get(m)
                        .copied()
                        .unwrap_or(Position::ZERO)
                }
            })
            .min()
            .unwrap_or(Position::ZERO)
    }

    /// A shard peer gossiped its decided frontier: record it and truncate at
    /// the true cluster minimum (instead of waiting for a clamped leader
    /// hint on the next `DECISION` write).
    fn handle_frontier_exchange(
        &mut self,
        from: ProcessId,
        shard: ShardId,
        frontier: Position,
        ctx: &mut Context<'_, RdmaMsg>,
    ) {
        if shard != self.shard {
            return;
        }
        self.peer_frontiers.insert(from, frontier);
        let floor = self.cluster_frontier_floor();
        self.maybe_truncate(floor, ctx);
    }

    /// Writes `DECISION` for a transaction with an out-of-band decision
    /// (learned via `TxDecided`) into the members of `shard`, if this
    /// coordinator knows the transaction's position there in the current
    /// epoch. Without this, shards that missed the original decision would
    /// hold the transaction prepared (and its keys locked) forever.
    fn flush_known_decision(&mut self, tx: TxId, shard: ShardId, ctx: &mut Context<'_, RdmaMsg>) {
        let Some(coord) = self.coordinating.get(&tx) else {
            return;
        };
        let Some(decision) = coord.known_decision else {
            return;
        };
        let Some(pos) = coord
            .progress
            .get(&shard)
            .and_then(|m| m.get(&self.epoch))
            .and_then(|p| p.pos)
        else {
            return;
        };
        let members = self
            .config
            .as_ref()
            .map(|c| c.members_of(shard).to_vec())
            .unwrap_or_default();
        for member in members {
            if member == self.id {
                self.log.decide(pos, decision);
                self.maybe_gossip_frontier(ctx);
                continue;
            }
            let token = ctx.rdma_send(
                member,
                RdmaMsg::DecisionBatch {
                    items: Items::one(DecisionItem { pos, decision }),
                    truncate_to: Position::ZERO,
                },
            );
            self.pending_writes.insert(token, PendingWrite::Other);
        }
    }

    /// Truncates the log at `floor` (clamped to the own decided frontier by
    /// the log itself) once at least a batch of slots can be freed.
    fn maybe_truncate(&mut self, floor: Position, ctx: &mut Context<'_, RdmaMsg>) {
        if !self.truncation.enabled {
            return;
        }
        let target = floor.min(self.log.decided_frontier());
        if target.as_u64() >= self.log.base().as_u64() + self.truncation.batch {
            let freed = self.log.truncate_to(target);
            ctx.add_counter("log_slots_truncated", freed as u64);
        }
    }

    /// Lines 96–100 precondition, evaluated without side effects: the
    /// client, decision and per-shard `(position, truncation floor)` targets
    /// of `tx`, once every shard has a vote and full RDMA acknowledgements.
    fn completion_of(&self, tx: TxId) -> Option<Completion> {
        let coord = self.coordinating.get(&tx)?;
        if coord.decided {
            return None;
        }
        let epoch = self.epoch;
        let mut votes = Vec::new();
        let mut positions = Vec::new();
        for shard in &coord.shards {
            let progress = coord.progress.get(shard).and_then(|m| m.get(&epoch))?;
            let (vote, pos) = (progress.vote?, progress.pos?);
            let required: BTreeSet<ProcessId> = self.followers_of(*shard).into_iter().collect();
            if !required.is_subset(&progress.acked) {
                return None;
            }
            votes.push(vote);
            positions.push((
                *shard,
                pos,
                progress.leader_frontier.unwrap_or(Position::ZERO),
            ));
        }
        Some((coord.client, Decision::meet_all(votes), positions))
    }

    /// Lines 96–100: completion driven by RDMA acknowledgements. Decides
    /// every transaction of `txs` that is complete, reports it to the client
    /// and packs the decisions into one `DECISION` write per shard member.
    fn complete_batch(
        &mut self,
        txs: impl IntoIterator<Item = TxId>,
        ctx: &mut Context<'_, RdmaMsg>,
    ) {
        let mut per_shard: Vec<(ShardId, ShardDecisions)> = Vec::new();
        for tx in txs {
            // A transaction listed twice is complete only once: deciding it
            // makes its second `completion_of` come back empty.
            let Some((client, decision, targets)) = self.completion_of(tx) else {
                continue;
            };
            if let Some(coord) = self.coordinating.get_mut(&tx) {
                if !coord.decided {
                    self.in_flight -= 1;
                    // On this stack the accept quorum (the RDMA
                    // acknowledgement quorum on every shard) and the
                    // decision coincide.
                    ctx.obs_milestone(tx, TxMilestone::AcceptQuorum, 0);
                    ctx.obs_milestone(tx, TxMilestone::Decided, 0);
                    ctx.obs_gauge("obs_inflight_window", self.in_flight as f64);
                }
                coord.decided = true;
                coord.decision = Some(decision);
            }
            self.retry_backoff.remove(&tx);
            self.admission.remove(tx);
            ctx.add_counter("coordinator_decisions", 1);
            ctx.send(client, RdmaMsg::DecisionClient { tx, decision });
            for (shard, pos, floor) in targets {
                sorted_entry(&mut per_shard, shard).push(pos, decision, floor);
            }
        }
        for (shard, decisions) in per_shard {
            let members = self
                .config
                .as_ref()
                .map(|c| c.members_of(shard).to_vec())
                .unwrap_or_default();
            for member in members {
                if member == self.id {
                    for item in decisions.items.iter() {
                        self.log.decide(item.pos, item.decision);
                    }
                    self.maybe_truncate(decisions.truncate_to, ctx);
                    self.maybe_gossip_frontier(ctx);
                    continue;
                }
                let token = ctx.rdma_send(
                    member,
                    RdmaMsg::DecisionBatch {
                        items: decisions.items.clone(),
                        truncate_to: decisions.truncate_to,
                    },
                );
                self.pending_writes.insert(token, PendingWrite::Other);
            }
        }
        // The decisions free admission-window slots.
        self.drain_admission(ctx);
    }

    // -- transaction path -----------------------------------------------------

    fn handle_certify(
        &mut self,
        tx: TxId,
        payload: Payload,
        client: ProcessId,
        ctx: &mut Context<'_, RdmaMsg>,
    ) {
        let shards = payload.shards(self.sharding.as_ref());
        if shards.is_empty() {
            ctx.send(
                client,
                RdmaMsg::DecisionClient {
                    tx,
                    decision: Decision::Commit,
                },
            );
            return;
        }
        if self.flow.enabled {
            match self.coordinating.get_mut(&tx) {
                Some(coord) if coord.decision.is_some() => {
                    // Decided re-submission: answer with the recorded
                    // decision instead of silently swallowing the request.
                    let decision = coord.decision.expect("checked above");
                    ctx.send(client, RdmaMsg::DecisionClient { tx, decision });
                    return;
                }
                Some(coord) => {
                    // A retry supersedes the in-flight attempt: refresh the
                    // reply address and payload and let the scheduled
                    // backoff decide when to re-drive, instead of stacking
                    // another PREPARE volley on top of the previous one.
                    // `decided` without a decision marks a coordination
                    // handed off to a newer configuration
                    // (`handle_stale_view_refresh`); a client re-drive means
                    // the handoff `RETRY` was lost — coordinate it afresh.
                    if coord.decided {
                        coord.decided = false;
                        self.in_flight += 1;
                    }
                    coord.payload = Some(payload);
                    coord.client = client;
                    let now = ctx.now().as_micros();
                    if self.backoff_due(tx, now) {
                        let attempt = self.retry_backoff.get(&tx).map(|b| b.attempt).unwrap_or(0);
                        ctx.obs_milestone(tx, TxMilestone::Retry, u64::from(attempt));
                        ctx.obs_gauge("obs_backoff_attempt", f64::from(attempt));
                        self.resend_prepares(ctx, tx);
                        self.backoff_fired(tx, now);
                    }
                    self.arm_retry_timer(ctx);
                    return;
                }
                None => {
                    if !self.flow.admits(self.undecided_coordinated()) {
                        // Admission window full: park the submission at the
                        // edge; it is admitted when an in-flight transaction
                        // decides.
                        self.admission.enqueue(tx, (payload, client));
                        ctx.add_counter("admission_queued", 1);
                        ctx.obs_gauge("obs_admission_depth", self.admission.len() as f64);
                        self.arm_retry_timer(ctx);
                        return;
                    }
                    let (policy, salt) = (self.flow.backoff, self.backoff_salt(tx));
                    self.retry_backoff.insert(
                        tx,
                        BackoffState::armed(&policy, salt, ctx.now().as_micros()),
                    );
                }
            }
        }
        let inserted = !self.coordinating.contains_key(&tx);
        let coord = self.coordinating.entry(tx).or_insert_with(|| CoordState {
            client,
            payload: Some(payload.clone()),
            shards: shards.clone(),
            progress: BTreeMap::new(),
            decided: false,
            decision: None,
            known_decision: None,
        });
        if inserted {
            self.in_flight += 1;
            ctx.obs_milestone(tx, TxMilestone::Admitted, 0);
            ctx.obs_gauge("obs_inflight_window", self.in_flight as f64);
        }
        // A re-submitted `certify` of an already-decided transaction (the
        // client's `DECISION` was lost to a fault): answer with the recorded
        // decision instead of silently swallowing the request.
        if let Some(decision) = coord.decision {
            ctx.send(client, RdmaMsg::DecisionClient { tx, decision });
            return;
        }
        // `decided` without a decision marks a coordination handed off to the
        // members of a newer configuration (`handle_stale_view_refresh`). If
        // the client is re-driving the transaction, the handoff `RETRY` was
        // lost: coordinate it afresh.
        if coord.decided {
            coord.decided = false;
            self.in_flight += 1;
        }
        coord.payload = Some(payload);
        coord.client = client;
        // Into the pending batch, which flushes when it reaches its target
        // (at `max_batch = 1`: now) or when the batch timer expires.
        if self.batcher.push(tx) {
            let txs = self.batcher.drain_full();
            self.flush_prepare_batch(txs, ctx);
        } else {
            self.arm_batch_timer(ctx);
        }
        self.arm_retry_timer(ctx);
    }

    // -- the PREPARE/ACCEPT exchange (see `ratc_core::batch`) ----------------

    fn arm_batch_timer(&mut self, ctx: &mut Context<'_, RdmaMsg>) {
        if !self.batch_timer_armed && !self.batcher.is_empty() {
            ctx.set_timer(self.batching.max_delay, BATCH_TICK);
            self.batch_timer_armed = true;
        }
    }

    /// Sends the `PREPARE`s of a drained batch (a flush of one is a flush).
    fn flush_prepare_batch(&mut self, mut txs: Vec<TxId>, ctx: &mut Context<'_, RdmaMsg>) {
        if txs.is_empty() {
            return;
        }
        ctx.obs_gauge("obs_batch_occupancy", txs.len() as f64);
        if ctx.obs_enabled() {
            for &tx in &txs {
                ctx.obs_milestone(tx, TxMilestone::CertifySent, 0);
                ctx.obs_milestone(tx, TxMilestone::BatchFlush, txs.len() as u64);
            }
        }
        // Decided (or handed off) while it waited in the batch.
        txs.retain(|tx| self.coordinating.get(tx).is_some_and(|c| !c.decided));
        let sent = self.send_prepares(ctx, &txs);
        ctx.add_counter("prepare_batches_sent", sent);
    }

    /// Lines 77–90: the leader certifies the items of a `PREPARE` in order.
    /// Identical to the message-passing protocol's leader logic, so the
    /// per-item step is shared with it (`CertificationLog::prepare`).
    fn handle_prepare_batch(
        &mut self,
        from: ProcessId,
        items: Items<PrepareItem>,
        ctx: &mut Context<'_, RdmaMsg>,
    ) {
        if self.status != RdmaStatus::Leader {
            return;
        }
        let mut acks: Items<PreparedItem> = Items::new();
        for item in items {
            let (tx, client) = (item.tx, item.client);
            match self.log.prepare(item, self.certifier.as_ref()) {
                Ok(ack) => acks.push(ack),
                Err(decision) => ctx.send(
                    from,
                    RdmaMsg::TxDecided {
                        tx,
                        decision,
                        client,
                    },
                ),
            }
        }
        if !acks.is_empty() {
            ctx.send(
                from,
                RdmaMsg::PrepareAckBatch {
                    epoch: self.epoch,
                    shard: self.shard,
                    items: acks,
                    frontier: self.log.decided_frontier(),
                },
            );
        }
    }

    /// Lines 91–93: persist the leader's votes with **one RDMA write per
    /// follower**; the hardware acknowledgement of that write acknowledges
    /// every slot it carries at once.
    fn handle_prepare_ack_batch(
        &mut self,
        epoch: Epoch,
        shard: ShardId,
        items: Items<PreparedItem>,
        frontier: Position,
        ctx: &mut Context<'_, RdmaMsg>,
    ) {
        // Line 92 precondition: the coordinator is in the same (global) epoch
        // the leader prepared the transactions in.
        if epoch != self.epoch {
            return;
        }
        for item in items.iter() {
            let coord = self.coord_entry(item.tx, item.client, &item.shards);
            let progress = coord
                .progress
                .entry(shard)
                .or_default()
                .entry(epoch)
                .or_default();
            progress.pos = Some(item.pos);
            progress.vote = Some(item.vote);
            progress.leader_frontier = Some(frontier);
            ctx.obs_milestone(item.tx, TxMilestone::ShardVoted, u64::from(shard.as_u32()));
        }
        let txs: Items<TxId> = items.iter().map(|item| item.tx).collect();
        let followers = self.followers_of(shard);
        let mut self_is_follower = false;
        for follower in followers {
            if follower == self.id {
                // Writing into our own memory trivially succeeds: apply the
                // entries locally and count the acknowledgement immediately.
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
                PendingWrite::AcceptBatch {
                    txs: txs.clone(),
                    shard,
                    follower,
                    epoch,
                },
            );
        }
        if self_is_follower {
            self.apply_rdma_payload(RdmaMsg::AcceptBatch { shard, items }, ctx);
            self.record_acks(&txs, shard, epoch, self.id);
        }
        // A late re-ack for a transaction whose decision was already learned
        // out-of-band (`TxDecided`): tell this shard the decision now that
        // its position is known.
        for &tx in txs.iter() {
            self.flush_known_decision(tx, shard, ctx);
        }
        self.complete_batch(txs, ctx);
    }

    /// Records `follower`'s acknowledgement of every transaction of `txs`.
    fn record_acks(
        &mut self,
        txs: &Items<TxId>,
        shard: ShardId,
        epoch: Epoch,
        follower: ProcessId,
    ) {
        for tx in txs.iter() {
            if let Some(coord) = self.coordinating.get_mut(tx) {
                coord
                    .progress
                    .entry(shard)
                    .or_default()
                    .entry(epoch)
                    .or_default()
                    .acked
                    .insert(follower);
            }
        }
    }

    fn handle_retry(&mut self, tx: TxId, ctx: &mut Context<'_, RdmaMsg>) {
        let Some(pos) = self.log.position_of(tx) else {
            return;
        };
        // A truncated slot is decided; nothing to recover.
        let Some(entry) = self.log.get(pos) else {
            return;
        };
        if entry.phase != TxPhase::Prepared {
            return;
        }
        let shards = entry.shards.clone();
        let client = entry.client;
        self.coord_entry(tx, client, &shards);
        self.resend_prepares(ctx, tx);
        self.arm_retry_timer(ctx);
    }

    fn handle_retry_tick(&mut self, ctx: &mut Context<'_, RdmaMsg>) {
        self.retry_timer_armed = false;
        // Safety net: admit parked submissions even if a decision path was
        // missed (e.g. a handoff freed slots without deciding anything).
        self.drain_admission(ctx);
        let now = ctx.now().as_micros();
        let pending: Vec<TxId> = self
            .coordinating
            .iter()
            .filter(|(tx, c)| !c.decided && self.backoff_due(**tx, now))
            .map(|(tx, _)| *tx)
            .collect();
        if pending.is_empty() {
            self.arm_retry_timer(ctx);
            return;
        }
        // A stalled coordinator may be working from a stale view: a global
        // reconfiguration that excluded this process sends CONFIG_PREPARE and
        // NEW_STATE only to members of the new configuration, so an excluded
        // coordinator would retry into closed connections forever. Refresh
        // the view from the configuration service (the lazy CONFIG_CHANGE of
        // Figure 1, lines 67–69, lifted to the global protocol); the reply is
        // handled by `handle_stale_view_refresh`.
        ctx.send(self.cs, RdmaMsg::CsGetLast);
        for tx in pending {
            if self.flow.enabled {
                let attempt = self.retry_backoff.get(&tx).map(|b| b.attempt).unwrap_or(0);
                ctx.obs_milestone(tx, TxMilestone::Retry, u64::from(attempt));
                ctx.obs_gauge("obs_backoff_attempt", f64::from(attempt));
                self.backoff_fired(tx, now);
            }
            self.resend_prepares(ctx, tx);
        }
        self.arm_retry_timer(ctx);
    }

    /// Handles a `get_last` reply that arrives outside an active
    /// reconfiguration: a coordinator checking whether it has been left
    /// behind by a newer global configuration.
    ///
    /// If this process is *not* a member of the newer configuration it will
    /// never receive `CONFIG_PREPARE`/`NEW_STATE`, and — by design — its RDMA
    /// writes are rejected by every member, so transactions it coordinates
    /// can never complete. It therefore adopts the configuration as its
    /// coordinator view and hands every stalled transaction to the new
    /// leaders of the transaction's shards: any leader whose certification
    /// log contains the transaction takes over as recovery coordinator
    /// (line 70), and leaders that never saw it ignore the request.
    fn handle_stale_view_refresh(
        &mut self,
        config: GlobalConfiguration,
        ctx: &mut Context<'_, RdmaMsg>,
    ) {
        // Members of the current configuration complete their transactions
        // through the normal path; only an *excluded* process must hand off.
        // The check is on membership, not on seeing a newer epoch: a process
        // that already adopted the configuration it was dropped from would
        // otherwise retry new transactions into closed connections forever
        // (its RDMA writes are rejected by every member).
        if config.epoch < self.epoch || config.all_processes().contains(&self.id) {
            return;
        }
        if config.epoch > self.epoch {
            self.epoch = config.epoch;
            if self.new_epoch < config.epoch {
                self.new_epoch = config.epoch;
            }
            self.config = Some(config.clone());
        }
        let stalled: Vec<(TxId, Vec<ShardId>)> = self
            .coordinating
            .iter()
            .filter(|(_, c)| !c.decided)
            .map(|(tx, c)| (*tx, c.shards.clone()))
            .collect();
        for (tx, shards) in stalled {
            for shard in shards {
                if let Some(leader) = config.leader_of(shard) {
                    ctx.send(leader, RdmaMsg::Retry { tx });
                }
            }
            // Stop retrying locally; the client's decision now comes from the
            // member that takes the transaction over.
            if let Some(coord) = self.coordinating.get_mut(&tx) {
                if !coord.decided {
                    self.in_flight -= 1;
                }
                coord.decided = true;
            }
            self.retry_backoff.remove(&tx);
            ctx.ctrl_milestone(CtrlMilestone::CoordinatorHandoff, None, tx.as_u64());
            ctx.add_counter("retries_handed_off", 1);
        }
        // Handed-off transactions free admission-window slots.
        self.drain_admission(ctx);
    }

    // -- reconfiguration ------------------------------------------------------

    fn handle_start_reconfigure(
        &mut self,
        suspected_shard: ShardId,
        spares: BTreeMap<ShardId, Vec<ProcessId>>,
        target_size: usize,
        exclude: Vec<ProcessId>,
        ctx: &mut Context<'_, RdmaMsg>,
    ) {
        if self.recon.is_some() {
            return; // rec_status must be ready
        }
        self.recon = Some(ReconState {
            phase: ReconPhase::AwaitingGetLast,
            recon_epoch: Epoch::ZERO,
            suspected_shard,
            probed_epoch: BTreeMap::new(),
            probed_members: BTreeMap::new(),
            responders: BTreeMap::new(),
            initialized: BTreeMap::new(),
            prev_leaders: BTreeMap::new(),
            grace_timer: None,
            retries: 0,
            config_prepare_acks: BTreeSet::new(),
            spares,
            target_size,
            exclude,
        });
        ctx.ctrl_milestone(
            CtrlMilestone::ReconfigInitiated,
            Some(suspected_shard),
            self.epoch.as_u64(),
        );
        ctx.send(self.cs, RdmaMsg::CsGetLast);
        // Probes travel over faultable links; restart probing if they are
        // lost (the configuration service itself is reliable).
        ctx.set_timer(RECON_RETRY, RECON_RETRY_TICK);
    }

    fn handle_cs_get_last_reply(
        &mut self,
        config: GlobalConfiguration,
        ctx: &mut Context<'_, RdmaMsg>,
    ) {
        let naive = self.mode == ReconfigMode::NaivePerShard;
        let Some(recon) = self.recon.as_mut() else {
            // Not reconfiguring: this is a stalled coordinator's view-refresh
            // poll (see `handle_retry_tick`).
            self.handle_stale_view_refresh(config, ctx);
            return;
        };
        if !matches!(recon.phase, ReconPhase::AwaitingGetLast) {
            return;
        }
        recon.recon_epoch = config.epoch.next();
        recon.phase = ReconPhase::Probing;
        let shards: Vec<ShardId> = if naive {
            vec![recon.suspected_shard]
        } else {
            config.members.keys().copied().collect()
        };
        let mut targets: Vec<ProcessId> = Vec::new();
        for shard in &shards {
            recon.probed_epoch.insert(*shard, config.epoch);
            recon
                .probed_members
                .insert(*shard, config.members_of(*shard).to_vec());
            if let Some(leader) = config.leader_of(*shard) {
                recon.prev_leaders.insert(*shard, leader);
            }
            targets.extend(config.members_of(*shard).iter().copied());
        }
        targets.sort_unstable();
        targets.dedup();
        let epoch = recon.recon_epoch;
        let suspected = recon.suspected_shard;
        ctx.ctrl_milestone(CtrlMilestone::ProbeStarted, Some(suspected), epoch.as_u64());
        ctx.send_to_many(targets, RdmaMsg::Probe { epoch });
    }

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

    /// Lines 117–130: collect probe replies; when every probed shard has an
    /// initialised responder, compute the new configuration and CAS it.
    fn handle_probe_ack(
        &mut self,
        from: ProcessId,
        initialized: bool,
        epoch: Epoch,
        shard: ShardId,
        ctx: &mut Context<'_, RdmaMsg>,
    ) {
        let Some(recon) = self.recon.as_mut() else {
            return;
        };
        if !matches!(recon.phase, ReconPhase::Probing) || epoch != recon.recon_epoch {
            return;
        }
        if !recon.probed_epoch.contains_key(&shard) {
            return;
        }
        let responders = recon.responders.entry(shard).or_default();
        if !responders.contains(&from) {
            responders.push(from);
        }
        if initialized {
            let inits = recon.initialized.entry(shard).or_default();
            if !inits.contains(&from) {
                inits.push(from);
            }
        } else if !recon.initialized.contains_key(&shard) {
            // Descend to the previous epoch of this shard (simplified: ask the
            // CS for the previous configuration and probe its members).
            let current = recon.probed_epoch[&shard];
            if let Some(prev) = current.prev() {
                recon.probed_epoch.insert(shard, prev);
                ctx.send(self.cs, RdmaMsg::CsGet { epoch: prev });
            }
        }
        // Have we found an initialised responder for every probed shard?
        let all_found = recon
            .probed_epoch
            .keys()
            .all(|s| recon.initialized.contains_key(s));
        if !all_found {
            return;
        }
        // The new epoch is viable. Finish at once only when every probed
        // member of every shard has answered; otherwise briefly wait for
        // replies still in flight, so warm replicas are not discarded in
        // favour of spares that would need a full state transfer.
        let all_answered = recon.probed_members.iter().all(|(s, probed)| {
            let answered = recon.responders.get(s);
            probed
                .iter()
                .all(|p| answered.map(|a| a.contains(p)).unwrap_or(false))
        });
        if all_answered {
            self.finish_probe(ctx);
        } else if recon.grace_timer.is_none() {
            let suspected = recon.suspected_shard;
            ctx.ctrl_milestone(CtrlMilestone::ProbeGrace, Some(suspected), epoch.as_u64());
            recon.grace_timer = Some(ctx.set_timer(PROBE_GRACE, PROBE_GRACE_TICK));
        }
    }

    /// Lines 117–130 continued: compute the new configuration and CAS it.
    /// Per shard, the previous leader is preferred if it responded
    /// initialised; members prefer initialised responders over other
    /// responders over spares.
    fn finish_probe(&mut self, ctx: &mut Context<'_, RdmaMsg>) {
        let Some(recon) = self.recon.as_mut() else {
            return;
        };
        if !matches!(recon.phase, ReconPhase::Probing) {
            return;
        }
        let all_found = recon
            .probed_epoch
            .keys()
            .all(|s| recon.initialized.contains_key(s));
        if !all_found {
            return;
        }
        let excluded: BTreeSet<ProcessId> = recon.exclude.iter().copied().collect();
        let mut members = BTreeMap::new();
        let mut leaders = BTreeMap::new();
        let base = self.config.clone();
        for (s, inits) in recon.initialized.clone() {
            let leader = recon
                .prev_leaders
                .get(&s)
                .copied()
                .filter(|p| inits.contains(p) && !excluded.contains(p))
                .unwrap_or(inits[0]);
            let mut planner = MembershipPlanner::new(
                recon.target_size,
                recon.spares.get(&s).cloned().unwrap_or_default(),
            );
            let preferred: Vec<ProcessId> = inits
                .iter()
                .chain(recon.responders.get(&s).map(Vec::as_slice).unwrap_or(&[]))
                .copied()
                .filter(|p| *p != leader)
                .collect();
            members.insert(s, planner.plan(leader, &preferred, &recon.exclude));
            leaders.insert(s, leader);
        }
        // Shards that were not probed (naive mode) keep their configuration.
        if let Some(base) = base {
            for (s, m) in &base.members {
                members.entry(*s).or_insert_with(|| m.clone());
                if let Some(l) = base.leader_of(*s) {
                    leaders.entry(*s).or_insert(l);
                }
            }
        }
        let new_config = GlobalConfiguration::new(recon.recon_epoch, members, leaders);
        let expected = recon.recon_epoch.prev().expect("successor epoch");
        recon.phase = ReconPhase::AwaitingCas;
        ctx.send(
            self.cs,
            RdmaMsg::CsCas {
                expected,
                config: new_config,
            },
        );
    }

    /// The probe grace period elapsed: finish with the replies received.
    fn handle_probe_grace_tick(&mut self, ctx: &mut Context<'_, RdmaMsg>) {
        if let Some(recon) = self.recon.as_mut() {
            recon.grace_timer = None;
        }
        self.finish_probe(ctx);
    }

    /// The reconfiguration retry timer fired: restart probing from scratch if
    /// it is still unfinished (probes or replies may have been lost). The
    /// `AwaitingCas`/`Installing` phases talk to the reliable configuration
    /// service or wait for `CONFIG_PREPARE` acks, which are re-driven by this
    /// same tick re-sending `CONFIG_PREPARE`.
    fn handle_recon_retry_tick(&mut self, ctx: &mut Context<'_, RdmaMsg>) {
        let Some(recon) = self.recon.as_mut() else {
            return;
        };
        recon.retries += 1;
        if recon.retries > RECON_RETRY_CAP {
            if let Some(id) = recon.grace_timer.take() {
                ctx.cancel_timer(id);
            }
            self.recon = None;
            ctx.add_counter("reconfiguration_abandoned", 1);
            return;
        }
        match recon.phase.clone() {
            ReconPhase::AwaitingCas => {}
            ReconPhase::Installing { config } => {
                // Re-send CONFIG_PREPARE to members that have not acked yet.
                let missing: Vec<ProcessId> = config
                    .all_processes()
                    .into_iter()
                    .filter(|p| !recon.config_prepare_acks.contains(p))
                    .collect();
                ctx.send_to_many(missing, RdmaMsg::ConfigPrepare { config });
            }
            _ => {
                recon.phase = ReconPhase::AwaitingGetLast;
                recon.probed_epoch.clear();
                recon.probed_members.clear();
                recon.responders.clear();
                recon.initialized.clear();
                recon.prev_leaders.clear();
                // A grace timer armed by the abandoned round must not fire
                // into the new one and finish it with a partial responder
                // set.
                if let Some(id) = recon.grace_timer.take() {
                    ctx.cancel_timer(id);
                }
                ctx.add_counter("reconfiguration_reprobes", 1);
                ctx.send(self.cs, RdmaMsg::CsGetLast);
            }
        }
        ctx.set_timer(RECON_RETRY, RECON_RETRY_TICK);
    }

    fn handle_cs_get_reply(
        &mut self,
        _epoch: Epoch,
        config: Option<GlobalConfiguration>,
        ctx: &mut Context<'_, RdmaMsg>,
    ) {
        let Some(recon) = self.recon.as_mut() else {
            return;
        };
        if !matches!(recon.phase, ReconPhase::Probing) {
            return;
        }
        let Some(config) = config else {
            return;
        };
        // Probe the members of every shard we are still looking for, in the
        // returned (older) configuration.
        let mut targets = Vec::new();
        for (shard, probed) in recon.probed_epoch.clone() {
            if recon.initialized.contains_key(&shard) {
                continue;
            }
            if probed == config.epoch {
                let members = config.members_of(shard).to_vec();
                recon.probed_members.insert(shard, members.clone());
                targets.extend(members);
            }
        }
        targets.sort_unstable();
        targets.dedup();
        let epoch = recon.recon_epoch;
        ctx.send_to_many(targets, RdmaMsg::Probe { epoch });
    }

    /// Lines 121–124 / naive shortcut.
    fn handle_cs_cas_reply(
        &mut self,
        ok: bool,
        config: GlobalConfiguration,
        ctx: &mut Context<'_, RdmaMsg>,
    ) {
        let naive = self.mode == ReconfigMode::NaivePerShard;
        let Some(recon) = self.recon.as_mut() else {
            return;
        };
        if !matches!(recon.phase, ReconPhase::AwaitingCas) {
            return;
        }
        if !ok {
            self.recon = None;
            ctx.add_counter("reconfiguration_cas_lost", 1);
            return;
        }
        let suspected = recon.suspected_shard;
        ctx.ctrl_milestone(
            CtrlMilestone::ConfigChosen,
            Some(suspected),
            config.epoch.as_u64(),
        );
        if naive {
            // Naive per-shard mode: skip CONFIG_PREPARE entirely; notify the
            // new leader of the suspected shard only, and let other shards
            // learn lazily (as in §3's CONFIG_CHANGE, sent by the CS).
            let suspected = recon.suspected_shard;
            self.recon = None;
            if let Some(leader) = config.leader_of(suspected) {
                ctx.send(leader, RdmaMsg::NewConfig { config });
            }
        } else {
            // Correct mode: disseminate the configuration to every member and
            // wait for all acknowledgements before activating it.
            recon.phase = ReconPhase::Installing {
                config: config.clone(),
            };
            recon.config_prepare_acks.clear();
            ctx.send_to_many(config.all_processes(), RdmaMsg::ConfigPrepare { config });
        }
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

    /// Lines 137–140.
    fn handle_config_prepare_ack(
        &mut self,
        from: ProcessId,
        epoch: Epoch,
        ctx: &mut Context<'_, RdmaMsg>,
    ) {
        let Some(recon) = self.recon.as_mut() else {
            return;
        };
        let ReconPhase::Installing { config } = recon.phase.clone() else {
            return;
        };
        if epoch != config.epoch {
            return;
        }
        recon.config_prepare_acks.insert(from);
        let everyone: BTreeSet<ProcessId> = config.all_processes().into_iter().collect();
        if recon.config_prepare_acks.is_superset(&everyone) {
            self.recon = None;
            ctx.send_to_many(config.all_leaders(), RdmaMsg::NewConfig { config });
        }
    }

    /// Lines 141–147: become a leader of the new configuration. `flush`
    /// guarantees every acknowledged write is reflected in the transferred
    /// state.
    fn handle_new_config(&mut self, config: GlobalConfiguration, ctx: &mut Context<'_, RdmaMsg>) {
        if config.epoch < self.new_epoch {
            return;
        }
        let flushed = ctx.rdma_flush();
        for (_, msg) in flushed {
            self.apply_rdma_payload(msg, ctx);
        }
        // A new epoch: stale peer frontiers must not unlock truncation for a
        // membership they no longer describe.
        self.peer_frontiers.clear();
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
                    log: self.log.clone(),
                },
            );
        }
        // Line 147: open connections to every other member of the new epoch,
        // retrying the handshake until everyone has answered.
        self.begin_connect_round(config.all_processes(), ctx);
        ctx.add_counter("became_leader", 1);
    }

    /// Lines 148–153.
    fn handle_new_state(
        &mut self,
        config: GlobalConfiguration,
        leader: ProcessId,
        log: RdmaLog,
        ctx: &mut Context<'_, RdmaMsg>,
    ) {
        if config.epoch < self.new_epoch {
            return;
        }
        let _ = leader;
        self.status = RdmaStatus::Follower;
        self.new_epoch = config.epoch;
        self.epoch = config.epoch;
        self.initialized = true;
        self.peer_frontiers.clear();
        self.log = log;
        if !self.log.has_index() {
            self.log.set_certifier(self.index_factory.clone_box());
        }
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
        if self.status == RdmaStatus::Reconfiguring && epoch < self.new_epoch {
            return;
        }
        // Never re-admit a peer from an *older* epoch: reconfiguration
        // deliberately closed its connections to fence its stale writes (the
        // crux of §5's correctness), and a crash-restarted process still in
        // an old epoch must first catch up — via its configuration-service
        // poll, a probe, or `NEW_STATE` — before its handshake (sent with
        // its then-current epoch) is accepted.
        if epoch < self.epoch {
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
        match msg {
            RdmaMsg::Certify {
                tx,
                payload,
                client,
            } => self.handle_certify(tx, payload, client, ctx),
            RdmaMsg::PrepareBatch { batch } => self.handle_prepare_batch(from, batch.items, ctx),
            RdmaMsg::PrepareAckBatch {
                epoch,
                shard,
                items,
                frontier,
            } => self.handle_prepare_ack_batch(epoch, shard, items, frontier, ctx),
            RdmaMsg::FrontierExchange { shard, frontier } => {
                self.handle_frontier_exchange(from, shard, frontier, ctx)
            }
            RdmaMsg::DecisionClient { .. } => {}
            RdmaMsg::Retry { tx } => self.handle_retry(tx, ctx),
            RdmaMsg::TxDecided {
                tx,
                decision,
                client,
            } => {
                let mut notify_client = true;
                if let Some(coord) = self.coordinating.get_mut(&tx) {
                    if coord.known_decision.is_some() {
                        return;
                    }
                    coord.known_decision = Some(decision);
                    notify_client = !coord.decided;
                    if !coord.decided {
                        self.in_flight -= 1;
                        // Decision learned out-of-band from a recovery
                        // coordinator's `TxDecided`.
                        ctx.obs_milestone(tx, TxMilestone::Decided, 0);
                        ctx.obs_gauge("obs_inflight_window", self.in_flight as f64);
                    }
                    coord.decided = true;
                    coord.decision.get_or_insert(decision);
                    let shards = coord.shards.clone();
                    for shard in shards {
                        self.flush_known_decision(tx, shard, ctx);
                    }
                }
                if notify_client {
                    ctx.send(client, RdmaMsg::DecisionClient { tx, decision });
                }
                // An out-of-band decision also frees an admission slot.
                self.retry_backoff.remove(&tx);
                self.admission.remove(tx);
                self.drain_admission(ctx);
            }
            RdmaMsg::StartReconfigure {
                suspected_shard,
                spares,
                target_size,
                exclude,
            } => self.handle_start_reconfigure(suspected_shard, spares, target_size, exclude, ctx),
            RdmaMsg::Probe { epoch } => self.handle_probe(from, epoch, ctx),
            RdmaMsg::ProbeAck {
                initialized,
                epoch,
                shard,
            } => self.handle_probe_ack(from, initialized, epoch, shard, ctx),
            RdmaMsg::ConfigPrepare { config } => self.handle_config_prepare(from, config, ctx),
            RdmaMsg::ConfigPrepareAck { epoch } => self.handle_config_prepare_ack(from, epoch, ctx),
            RdmaMsg::NewConfig { config } => self.handle_new_config(config, ctx),
            RdmaMsg::NewState {
                config,
                leader,
                log,
            } => self.handle_new_state(config, leader, log, ctx),
            RdmaMsg::Connect { epoch } => self.handle_connect(from, epoch, ctx, false),
            RdmaMsg::ConnectAck { epoch } => self.handle_connect(from, epoch, ctx, true),
            RdmaMsg::CsGetLastReply { config } => self.handle_cs_get_last_reply(config, ctx),
            RdmaMsg::CsGetReply { epoch, config } => self.handle_cs_get_reply(epoch, config, ctx),
            RdmaMsg::CsCasReply { ok, config } => self.handle_cs_cas_reply(ok, config, ctx),
            RdmaMsg::NaiveConfigChange { config } => self.handle_naive_config_change(config),
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
        self.apply_rdma_payload(msg, ctx);
        // Decisions may have advanced the decided frontier: gossip it to the
        // shard peers once it has moved by a full truncation batch.
        self.maybe_gossip_frontier(ctx);
    }

    fn on_rdma_ack(&mut self, token: RdmaToken, _to: ProcessId, ctx: &mut Context<'_, RdmaMsg>) {
        let Some(pending) = self.pending_writes.remove(&token) else {
            return;
        };
        match pending {
            PendingWrite::AcceptBatch {
                txs,
                shard,
                follower,
                epoch,
            } => {
                self.record_acks(&txs, shard, epoch, follower);
                self.complete_batch(txs, ctx);
            }
            PendingWrite::Other => {}
        }
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<'_, RdmaMsg>) {
        if tag == RETRY_TICK {
            self.handle_retry_tick(ctx);
        } else if tag == BATCH_TICK {
            self.batch_timer_armed = false;
            let txs = self.batcher.drain_idle();
            self.flush_prepare_batch(txs, ctx);
        } else if tag == PROBE_GRACE_TICK {
            self.handle_probe_grace_tick(ctx);
        } else if tag == RECON_RETRY_TICK {
            self.handle_recon_retry_tick(ctx);
        } else if tag == CONNECT_RETRY_TICK {
            self.handle_connect_retry_tick(ctx);
        }
    }

    /// Crash-restart recovery: the certification log (checkpoint + suffix)
    /// and the configuration view are stable storage; coordinator state,
    /// outstanding writes and the in-memory certification index are volatile.
    /// The index is rebuilt exactly as a `NEW_STATE` transfer would, and RDMA
    /// connections — lost with the NIC — are re-established by re-running the
    /// `Connect` handshake with every process of the current view.
    fn on_restart(&mut self, ctx: &mut Context<'_, RdmaMsg>) {
        self.coordinating.clear();
        self.in_flight = 0;
        self.pending_writes.clear();
        self.recon = None;
        self.retry_timer_armed = false;
        self.batcher = VoteBatcher::new(self.batching);
        self.batch_timer_armed = false;
        self.admission.clear();
        self.retry_backoff.clear();
        self.peer_frontiers.clear();
        // Writes that reached the persistent region were acknowledged to
        // their senders — they count as persisted here, even across the
        // crash. Recover them before rebuilding the index (the `flush` of
        // §5, the same call leader promotion uses).
        let flushed = ctx.rdma_flush();
        for (_, msg) in flushed {
            self.apply_rdma_payload(msg, ctx);
        }
        self.last_gossiped_frontier = self.log.decided_frontier();
        self.log.set_certifier(self.index_factory.clone_box());
        self.connections.clear();
        self.connect_retry_armed = false;
        if let Some(config) = self.config.clone() {
            self.begin_connect_round(config.all_processes(), ctx);
        } else {
            self.pending_connects.clear();
        }
        ctx.add_counter("replica_restarts", 1);
    }
}
