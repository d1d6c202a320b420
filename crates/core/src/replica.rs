//! The replica state machine: Figure 1 of the paper, line by line.
//!
//! Every replica of every shard runs this actor. A replica simultaneously
//! plays three roles:
//!
//! * *shard member* (leader or follower): maintains the certification log of
//!   its shard and participates in preparing/accepting transactions;
//! * *transaction coordinator*: any replica that receives a `certify` request
//!   (or decides to retry a stalled transaction) drives the 2PC-style exchange
//!   for it and computes the final decision;
//! * *reconfigurer*: any replica can probe a shard's configurations and
//!   install a new one through the configuration service.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use ratc_config::{MembershipPlanner, ShardConfiguration};
use ratc_sim::{Actor, BackoffState, Context, CtrlMilestone, SimDuration, TimerTag, TxMilestone};
use ratc_types::{
    CertificationPolicy, Decision, Epoch, IndexedCertifier, Payload, Position, ProcessId,
    ShardCertifier, ShardId, ShardMap, TxId,
};

use crate::batch::{
    sorted_entry, AcceptAckItem, BatchingConfig, DecisionItem, Items, PrepareBatch, PrepareItem,
    PreparedItem, ShardDecisions, VoteBatcher,
};
use crate::flow::{AdmissionQueue, FlowControlConfig};
use crate::log::{CertificationLog, TxPhase};
use crate::messages::Msg;

/// Timer tag used for the coordinator's re-transmission tick.
const RETRY_TICK: TimerTag = 1;

/// Timer tag used to flush a partially filled prepare batch.
const BATCH_TICK: TimerTag = 2;

/// Timer tag ending the probe grace period: once an initialised responder is
/// known, the reconfigurer briefly waits for further in-flight probe replies
/// before drafting spares (see `handle_probe_ack`).
const PROBE_GRACE_TICK: TimerTag = 3;

/// Timer tag re-driving a reconfiguration whose probes were lost (probe
/// messages travel over faultable links; the configuration service does not).
const RECON_RETRY_TICK: TimerTag = 4;

/// How long a reconfigurer waits for more probe replies after the first
/// initialised responder. A couple of network round trips: long enough for
/// replies already in flight, short enough not to hurt recovery time.
const PROBE_GRACE: SimDuration = SimDuration::from_micros(500);

/// Interval after which a still-unfinished reconfiguration restarts its
/// probing from scratch.
const RECON_RETRY: SimDuration = SimDuration::from_millis(50);

/// Probe restarts after which a reconfiguration is abandoned (10 simulated
/// seconds): far beyond any recoverable outage in the test workloads, but
/// bounds the event queue when a shard is unrecoverable, so
/// `World::run`/`run_to_quiescence` still terminate.
const RECON_RETRY_CAP: u32 = 200;

/// The data needed to distribute a completed transaction's decision: the
/// client, the decision, and per-shard `(position, truncation floor)` targets.
type Completion = (ProcessId, Decision, Vec<(ShardId, Position, Position)>);

/// Policy for checkpointed log truncation (§6's garbage collection).
///
/// Members truncate their certification log at the cluster-wide minimum
/// decided frontier gossiped on the existing message exchanges (see
/// `crate::messages`), clamped to their own decided frontier. `batch`
/// amortises the fold: a replica truncates only once at least that many
/// decided slots can be freed at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TruncationConfig {
    /// Whether replicas truncate at all.
    pub enabled: bool,
    /// Minimum number of slots to fold per truncation.
    pub batch: u64,
    /// Checkpoint decision-map compaction (**opt-in, default off**). When
    /// enabled, clients acknowledge each received `DECISION` back to its
    /// sender (`DECISION_ACK`), and the coordinator relays the full
    /// acknowledgement to every member of every shard of the transaction
    /// (`ACK_DECIDED`), which then drops the transaction's
    /// `(tx, position, decision)` checkpoint record — the decision can never
    /// be asked for again once the client has it, so the record is dead
    /// weight (see [`crate::log::CertificationLog::ack_decided`]). The
    /// coordinator also drops its own per-transaction state, bounding
    /// coordinator memory the same way.
    ///
    /// Off by default because the two extra message legs are not part of the
    /// paper's vocabulary: enabling them perturbs the simulated schedule, and
    /// same-seed runs must stay bit-identical to the paper's protocol unless
    /// a deployment explicitly asks for compaction. Only the message-passing
    /// stack implements the ack exchange; the flag is inert elsewhere.
    pub compaction: bool,
}

impl Default for TruncationConfig {
    fn default() -> Self {
        TruncationConfig {
            enabled: true,
            batch: 32,
            compaction: false,
        }
    }
}

impl TruncationConfig {
    /// Truncation switched off: the log grows without bound (the seed
    /// behaviour; useful for A/B benchmarks and the differential suites).
    pub fn disabled() -> Self {
        TruncationConfig {
            enabled: false,
            batch: u64::MAX,
            compaction: false,
        }
    }

    /// Truncation with the given fold batch.
    pub fn with_batch(batch: u64) -> Self {
        TruncationConfig {
            enabled: true,
            batch: batch.max(1),
            compaction: false,
        }
    }

    /// Returns a copy with decision-map compaction switched on.
    pub fn with_compaction(mut self) -> Self {
        self.compaction = true;
        self
    }
}

/// The status of a replica within its shard (the paper's `status` variable).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The replica is the leader of its shard in its current epoch.
    Leader,
    /// The replica is a follower of its shard in its current epoch.
    Follower,
    /// The replica has been probed for a higher epoch and has stopped
    /// processing transactions until it joins a new configuration.
    Reconfiguring,
}

/// Progress of a coordinated transaction at one shard in one epoch.
#[derive(Debug, Clone, Default)]
struct ShardProgress {
    pos: Option<Position>,
    vote: Option<Decision>,
    acks: BTreeSet<ProcessId>,
    /// Decided frontiers gossiped by the shard's members (leader via
    /// `PREPARE_ACK`, followers via `ACCEPT_ACK`); the minimum over the full
    /// membership is the shard's safe truncation point.
    frontiers: BTreeMap<ProcessId, Position>,
}

/// Coordinator-side state for one transaction.
#[derive(Debug, Clone)]
struct CoordState {
    client: ProcessId,
    /// The full payload if this coordinator received the original `certify`;
    /// `None` for recovery coordinators (which only ever send `⊥`).
    payload: Option<Payload>,
    shards: Vec<ShardId>,
    /// Progress per shard per epoch.
    progress: BTreeMap<ShardId, BTreeMap<Epoch, ShardProgress>>,
    decided: bool,
    /// The final decision this coordinator computed or learned, kept so a
    /// re-submitted `certify` of an already-decided transaction (e.g. the
    /// client's `DECISION` was lost to a network fault) is answered directly
    /// instead of silently swallowed.
    decision: Option<Decision>,
    /// A decision learned out-of-band from a `TxDecided` reply (the
    /// transaction was truncated at some shard). Shards that still hold the
    /// transaction as prepared must be told it, or their slots (and lock
    /// tables) stay stranded forever.
    known_decision: Option<Decision>,
}

/// Phase of an in-flight reconfiguration driven by this replica.
#[derive(Debug, Clone)]
enum ReconPhase {
    /// Waiting for `get_last(s)` from the configuration service.
    AwaitingGetLast,
    /// Probing the members of `probed_epoch`.
    Probing,
    /// Waiting for `get(s, e)` of the next epoch to probe.
    AwaitingGet,
    /// Waiting for the configuration service's compare-and-swap reply.
    AwaitingCas {
        /// The process selected as the new leader.
        new_leader: ProcessId,
    },
}

/// Reconfiguration state at the reconfiguring process (`reconfigure(s)` of
/// Figure 1).
#[derive(Debug, Clone)]
struct ReconState {
    shard: ShardId,
    phase: ReconPhase,
    recon_epoch: Epoch,
    probed_epoch: Epoch,
    probed_members: Vec<ProcessId>,
    responders: Vec<ProcessId>,
    /// Responders that reported themselves initialised, in arrival order.
    initialized: Vec<ProcessId>,
    /// The leader of the latest configuration returned by `get_last`:
    /// preferred as the new leader if it responds initialised, so a warm
    /// leader (and its certification log) is not discarded for a spare.
    prev_leader: Option<ProcessId>,
    /// The armed probe grace timer (see `handle_probe_ack`); cancelled when
    /// probing restarts so a stale tick cannot finish the new round early.
    grace_timer: Option<ratc_sim::actor::TimerId>,
    /// How many times this reconfiguration has restarted probing; abandoned
    /// after [`RECON_RETRY_CAP`] attempts so an unrecoverable shard does not
    /// keep the event queue alive forever.
    retries: u32,
    descended_for_current: bool,
    spares: Vec<ProcessId>,
    target_size: usize,
    exclude: Vec<ProcessId>,
}

/// A replica of one shard (the process `p_i` in shard `s_0` of Figure 1).
pub struct Replica {
    id: ProcessId,
    shard: ShardId,
    status: Status,
    initialized: bool,
    new_epoch: Epoch,
    epoch: BTreeMap<ShardId, Epoch>,
    members: BTreeMap<ShardId, Vec<ProcessId>>,
    leader: BTreeMap<ShardId, ProcessId>,
    log: CertificationLog,
    certifier: Arc<dyn ShardCertifier>,
    /// Pristine (empty) incremental certifier, cloned whenever an installed
    /// log needs an index rebuilt (see `handle_new_state`).
    index_factory: Box<dyn IndexedCertifier>,
    sharding: Arc<dyn ShardMap + Send + Sync>,
    cs: ProcessId,
    coordinating: BTreeMap<TxId, CoordState>,
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
    /// Per-coordinated-transaction retry deadlines (flow control only).
    retry_backoff: BTreeMap<TxId, BackoffState>,
}

impl Replica {
    /// Creates a replica of `shard` using the given certification policy and
    /// shard map. The replica is inert until
    /// [`Replica::install_initial_config`] is called by the deployment
    /// harness.
    pub fn new<P>(shard: ShardId, policy: &P, sharding: Arc<dyn ShardMap + Send + Sync>) -> Self
    where
        P: CertificationPolicy + ?Sized,
    {
        Replica {
            id: ProcessId::new(u64::MAX),
            shard,
            status: Status::Follower,
            initialized: false,
            new_epoch: Epoch::ZERO,
            epoch: BTreeMap::new(),
            members: BTreeMap::new(),
            leader: BTreeMap::new(),
            log: CertificationLog::with_certifier(policy.indexed_certifier(shard)),
            certifier: policy.shard_certifier(shard),
            index_factory: policy.indexed_certifier(shard),
            sharding,
            cs: ProcessId::new(u64::MAX),
            coordinating: BTreeMap::new(),
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
        }
    }

    /// Sets the checkpointed-truncation policy (default: enabled, batch 32).
    pub fn set_truncation(&mut self, truncation: TruncationConfig) {
        self.truncation = truncation;
    }

    /// The replica's checkpointed-truncation policy.
    pub fn truncation(&self) -> TruncationConfig {
        self.truncation
    }

    /// Sets the batching-pipeline knobs (default: batches of one).
    pub fn set_batching(&mut self, batching: BatchingConfig) {
        self.batching = batching;
        self.batcher.set_config(batching);
    }

    /// The replica's batching-pipeline knobs.
    pub fn batching(&self) -> BatchingConfig {
        self.batching
    }

    /// Sets the flow-control knobs (default: enabled, window 64, exponential
    /// backoff).
    pub fn set_flow(&mut self, flow: FlowControlConfig) {
        self.flow = flow;
    }

    /// The replica's flow-control knobs.
    pub fn flow(&self) -> FlowControlConfig {
        self.flow
    }

    /// Installs the initial configuration view at this replica: its own
    /// identifier, the configuration-service process, and the initial epoch,
    /// members and leader of every shard. `in_initial_config` marks whether
    /// this replica is part of its shard's initial configuration (spares are
    /// not, and start uninitialised).
    pub fn install_initial_config(
        &mut self,
        id: ProcessId,
        cs: ProcessId,
        configs: &BTreeMap<ShardId, ShardConfiguration>,
        in_initial_config: bool,
    ) {
        self.id = id;
        self.cs = cs;
        for (shard, config) in configs {
            self.epoch.insert(*shard, config.epoch);
            self.members.insert(*shard, config.members.clone());
            self.leader.insert(*shard, config.leader);
        }
        if in_initial_config {
            self.initialized = true;
            let own = &configs[&self.shard];
            self.status = if own.leader == id {
                Status::Leader
            } else {
                Status::Follower
            };
        } else {
            self.initialized = false;
            self.status = Status::Follower;
        }
    }

    // -- accessors used by tests, invariant checkers and experiments --------

    /// This replica's shard.
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// This replica's current status.
    pub fn status(&self) -> Status {
        self.status
    }

    /// Whether this replica has ever been initialised with shard state.
    pub fn is_initialized(&self) -> bool {
        self.initialized
    }

    /// The replica's current epoch for `shard`.
    pub fn epoch_of(&self, shard: ShardId) -> Epoch {
        self.epoch.get(&shard).copied().unwrap_or(Epoch::ZERO)
    }

    /// The replica's current view of `shard`'s members.
    pub fn members_of(&self, shard: ShardId) -> &[ProcessId] {
        self.members.get(&shard).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The replica's current view of `shard`'s leader.
    pub fn leader_of(&self, shard: ShardId) -> Option<ProcessId> {
        self.leader.get(&shard).copied()
    }

    /// The replica's certification log.
    pub fn log(&self) -> &CertificationLog {
        &self.log
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

    /// The transactions this replica coordinates that have no final decision.
    pub fn undecided_transactions(&self) -> Vec<TxId> {
        self.coordinating
            .iter()
            .filter(|(_, c)| !c.decided)
            .map(|(tx, _)| *tx)
            .collect()
    }

    /// Whether this replica is currently driving a reconfiguration.
    pub fn reconfiguration_in_flight(&self) -> bool {
        self.recon.is_some()
    }

    // -- helpers -------------------------------------------------------------

    fn arm_retry_timer(&mut self, ctx: &mut Context<'_, Msg>) {
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
    fn drain_admission(&mut self, ctx: &mut Context<'_, Msg>) {
        while self.flow.admits(self.undecided_coordinated()) {
            let Some((tx, (payload, client))) = self.admission.pop() else {
                break;
            };
            self.handle_certify(tx, payload, client, ctx);
        }
    }

    /// Sends `PREPARE` for `txs` (line 3 / 73): one `PREPARE_BATCH` per
    /// involved shard leader — in leader order, items in `txs` order — with
    /// each payload restricted to the leader's shard, or `⊥` when this
    /// coordinator has no payload (a recovery coordinator). `only` limits the
    /// prepares to those shards. Returns the number of messages sent.
    fn send_prepares(
        &self,
        ctx: &mut Context<'_, Msg>,
        txs: &[TxId],
        only: Option<&[ShardId]>,
    ) -> u64 {
        let mut per_leader: Vec<(ProcessId, Items<PrepareItem>)> = Vec::new();
        for &tx in txs {
            let Some(coord) = self.coordinating.get(&tx) else {
                continue;
            };
            for shard in &coord.shards {
                if only.is_some_and(|filter| !filter.contains(shard)) {
                    continue;
                }
                let Some(leader) = self.leader.get(shard).copied() else {
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
                Msg::PrepareBatch {
                    batch: PrepareBatch { items },
                },
            );
        }
        sent
    }

    /// Line 26 precondition, evaluated without side effects: once, for every
    /// shard of `tx`, the coordinator has the shard's vote and an
    /// `ACCEPT_ACK` from every follower of the shard's current configuration,
    /// returns the client, the final decision and the per-shard
    /// `(position, truncation floor)` targets.
    fn completion_of(&self, tx: TxId) -> Option<Completion> {
        let coord = self.coordinating.get(&tx)?;
        if coord.decided {
            return None;
        }
        let mut votes = Vec::new();
        let mut positions = Vec::new();
        for shard in &coord.shards {
            let epoch = self.epoch.get(shard).copied().unwrap_or(Epoch::ZERO);
            let progress = coord.progress.get(shard).and_then(|m| m.get(&epoch))?;
            let (vote, pos) = (progress.vote?, progress.pos?);
            let leader = self.leader.get(shard).copied();
            let required: BTreeSet<ProcessId> = self
                .members_of(*shard)
                .iter()
                .copied()
                .filter(|p| Some(*p) != leader)
                .collect();
            if !required.is_subset(&progress.acks) {
                return None;
            }
            // Cluster-wide minimum decided frontier of the shard: defined
            // only once every current member has gossiped one (a member the
            // coordinator has not heard from pins the floor at zero).
            let floor = self
                .members_of(*shard)
                .iter()
                .map(|m| progress.frontiers.get(m).copied().unwrap_or(Position::ZERO))
                .min()
                .unwrap_or(Position::ZERO);
            votes.push(vote);
            positions.push((*shard, pos, floor));
        }
        Some((coord.client, Decision::meet_all(votes), positions))
    }

    /// Marks `tx` decided and records the coordinator-side decision metrics.
    /// A decision frees an admission-window slot, so queued submissions are
    /// admitted here.
    fn mark_decided(&mut self, tx: TxId, decision: Decision, ctx: &mut Context<'_, Msg>) {
        if let Some(coord) = self.coordinating.get_mut(&tx) {
            if !coord.decided {
                self.in_flight -= 1;
            }
            coord.decided = true;
            coord.decision = Some(decision);
        }
        self.retry_backoff.remove(&tx);
        self.admission.remove(tx);
        ctx.add_counter("coordinator_decisions", 1);
        ctx.record_sample("coordinator_decision_hops", f64::from(ctx.hops()));
        // The accept quorum and the decision coincide on this stack: the last
        // required ACCEPT_ACK both completes the quorum and fixes the outcome.
        ctx.obs_milestone(tx, TxMilestone::AcceptQuorum, 0);
        ctx.obs_milestone(tx, TxMilestone::Decided, 0);
        ctx.obs_gauge("obs_inflight_window", self.in_flight as f64);
        self.drain_admission(ctx);
    }

    /// Line 26: computes the final decision of every transaction of `txs`
    /// that is complete, reports it to the client and distributes it with one
    /// `DECISION_BATCH` per shard member (over several transactions the
    /// per-shard truncation floor is the minimum of theirs, which is always
    /// safe — receivers clamp to their own decided frontier anyway).
    fn complete_batch(&mut self, txs: impl IntoIterator<Item = TxId>, ctx: &mut Context<'_, Msg>) {
        let mut per_shard: Vec<(ShardId, ShardDecisions)> = Vec::new();
        for tx in txs {
            // A transaction listed twice is complete only once: deciding it
            // makes its second `completion_of` come back empty.
            let Some((client, decision, targets)) = self.completion_of(tx) else {
                continue;
            };
            self.mark_decided(tx, decision, ctx);
            ctx.send(client, Msg::DecisionClient { tx, decision });
            for (shard, pos, floor) in targets {
                sorted_entry(&mut per_shard, shard).push(pos, decision, floor);
            }
        }
        for (shard, decisions) in per_shard {
            let epoch = self.epoch.get(&shard).copied().unwrap_or(Epoch::ZERO);
            let members = self.members_of(shard).to_vec();
            ctx.send_to_many(
                members,
                Msg::DecisionBatch {
                    epoch,
                    items: decisions.items,
                    truncate_to: decisions.truncate_to,
                },
            );
        }
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

    // -- message handlers ----------------------------------------------------

    /// Lines 1–3: the replica acts as the transaction's coordinator.
    fn handle_certify(
        &mut self,
        tx: TxId,
        payload: Payload,
        client: ProcessId,
        ctx: &mut Context<'_, Msg>,
    ) {
        let shards = payload.shards(self.sharding.as_ref());
        if shards.is_empty() {
            // A transaction touching no objects commits vacuously.
            ctx.send(
                client,
                Msg::DecisionClient {
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
                    ctx.send(client, Msg::DecisionClient { tx, decision });
                    return;
                }
                Some(coord) => {
                    // A retry supersedes the in-flight attempt: refresh the
                    // reply address and payload and let the scheduled
                    // backoff decide when to re-drive, instead of stacking
                    // another PREPARE volley on top of the previous one.
                    coord.payload = Some(payload);
                    coord.client = client;
                    let now = ctx.now().as_micros();
                    if self.backoff_due(tx, now) {
                        let attempt = self.retry_backoff.get(&tx).map(|b| b.attempt).unwrap_or(0);
                        ctx.obs_milestone(tx, TxMilestone::Retry, u64::from(attempt));
                        self.resend_prepares(ctx, tx, None);
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
        // A re-submitted `certify` of a transaction this coordinator already
        // decided (the client's `DECISION` was lost to a fault, or the client
        // retried against the same coordinator): answer with the recorded
        // decision instead of silently swallowing the request.
        if let Some(decision) = coord.decision {
            ctx.send(client, Msg::DecisionClient { tx, decision });
            return;
        }
        coord.payload = Some(payload);
        coord.client = client;
        // Into the pending batch, which flushes when it reaches its target
        // (at `max_batch = 1`: now) or when the batch timer expires. A
        // flush-on-full is queue pressure, so an adaptive batcher grows its
        // target batch. The retry timer is the safety net either way.
        if self.batcher.push(tx) {
            let txs = self.batcher.drain_full();
            self.flush_prepare_batch(txs, ctx);
        } else {
            self.arm_batch_timer(ctx);
        }
        self.arm_retry_timer(ctx);
    }

    // -- the PREPARE/ACCEPT exchange (see `crate::batch`) --------------------

    fn arm_batch_timer(&mut self, ctx: &mut Context<'_, Msg>) {
        if !self.batch_timer_armed && !self.batcher.is_empty() {
            ctx.set_timer(self.batching.max_delay, BATCH_TICK);
            self.batch_timer_armed = true;
        }
    }

    /// Sends the `PREPARE`s of a drained batch (a flush of one is a flush).
    fn flush_prepare_batch(&mut self, mut txs: Vec<TxId>, ctx: &mut Context<'_, Msg>) {
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
        // Decided while it waited in the batch (an out-of-band `TxDecided`).
        txs.retain(|tx| self.coordinating.get(tx).is_some_and(|c| !c.decided));
        let sent = self.send_prepares(ctx, &txs, None);
        ctx.add_counter("prepare_batches_sent", sent);
    }

    /// Re-sends `PREPARE` for one transaction outside the batcher — a retry,
    /// or a recovery coordinator's `PREPARE(t, ⊥)` — as one-item batches.
    fn resend_prepares(&self, ctx: &mut Context<'_, Msg>, tx: TxId, only: Option<&[ShardId]>) {
        ctx.obs_milestone(tx, TxMilestone::CertifySent, 0);
        self.send_prepares(ctx, &[tx], only);
    }

    /// Lines 4–17: the shard leader certifies the items of a `PREPARE` in
    /// order ([`CertificationLog::prepare`] per item). Fresh transactions are
    /// appended at a contiguous position range; already-certified ones are
    /// re-acked inside the same reply, and truncated ones get the
    /// per-transaction `TxDecided` fast path.
    fn handle_prepare_batch(
        &mut self,
        from: ProcessId,
        items: Items<PrepareItem>,
        ctx: &mut Context<'_, Msg>,
    ) {
        if self.status != Status::Leader {
            return; // line 5 precondition
        }
        let epoch = self.epoch_of(self.shard);
        let first_fresh = self.log.next();
        let mut acks: Items<PreparedItem> = Items::new();
        for item in items {
            let (tx, client) = (item.tx, item.client);
            match self.log.prepare(item, self.certifier.as_ref()) {
                Ok(ack) => acks.push(ack),
                Err(decision) => ctx.send(
                    from,
                    Msg::TxDecided {
                        tx,
                        decision,
                        client,
                    },
                ),
            }
        }
        let appended = self.log.next().as_u64() - first_fresh.as_u64();
        if appended > 0 {
            ctx.add_counter("leader_prepared", appended);
        }
        if !acks.is_empty() {
            ctx.send(
                from,
                Msg::PrepareAckBatch {
                    epoch,
                    shard: self.shard,
                    items: acks,
                    frontier: self.log.decided_frontier(),
                },
            );
        }
    }

    /// Lines 18–20: the coordinator records the leader's votes and persists
    /// them at every follower of the shard with one `ACCEPT` each.
    fn handle_prepare_ack_batch(
        &mut self,
        from: ProcessId,
        epoch: Epoch,
        shard: ShardId,
        items: Items<PreparedItem>,
        frontier: Position,
        ctx: &mut Context<'_, Msg>,
    ) {
        // Line 19 precondition, once for the whole message (every item was
        // certified by the same leader in the same epoch): the coordinator's
        // view of the shard's epoch matches the leader's.
        if self.epoch_of(shard) != epoch {
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
            progress.frontiers.insert(from, frontier);
            ctx.obs_milestone(item.tx, TxMilestone::ShardVoted, u64::from(shard.as_u32()));
        }
        let txs: Items<TxId> = items.iter().map(|item| item.tx).collect();
        // Line 20: persist the votes at the followers.
        let leader = self.leader.get(&shard).copied();
        let followers: Vec<ProcessId> = self
            .members_of(shard)
            .iter()
            .copied()
            .filter(|p| Some(*p) != leader)
            .collect();
        ctx.send_to_many(
            followers,
            Msg::AcceptBatch {
                epoch,
                shard,
                items,
            },
        );
        // A late re-ack for a transaction whose decision was already learned
        // out-of-band (`TxDecided`): tell this shard the decision now that
        // its position is known.
        for &tx in txs.iter() {
            self.flush_known_decision(tx, shard, ctx);
        }
        // With f = 0 (no followers) the transactions may already be complete.
        self.complete_batch(txs, ctx);
    }

    /// Lines 21–25: a follower stores the votes of an `ACCEPT`
    /// ([`CertificationLog::accept`] per item) and acknowledges them with
    /// one message.
    fn handle_accept_batch(
        &mut self,
        from: ProcessId,
        epoch: Epoch,
        shard: ShardId,
        items: Items<PreparedItem>,
        ctx: &mut Context<'_, Msg>,
    ) {
        // Line 22 precondition, once for the whole message.
        if self.status != Status::Follower
            || shard != self.shard
            || self.epoch_of(self.shard) != epoch
        {
            return;
        }
        let mut acks: Items<AcceptAckItem> = Items::new();
        for item in items {
            acks.push(AcceptAckItem {
                pos: item.pos,
                tx: item.tx,
                vote: item.vote,
            });
            self.log.accept(item);
        }
        // Line 25.
        ctx.send(
            from,
            Msg::AcceptAckBatch {
                shard: self.shard,
                epoch,
                items: acks,
                frontier: self.log.decided_frontier(),
            },
        );
    }

    /// Line 26 bookkeeping: record a follower's acknowledgements, then
    /// complete every transaction that is done.
    fn handle_accept_ack_batch(
        &mut self,
        from: ProcessId,
        shard: ShardId,
        epoch: Epoch,
        items: Items<AcceptAckItem>,
        frontier: Position,
        ctx: &mut Context<'_, Msg>,
    ) {
        for item in items.iter() {
            let Some(coord) = self.coordinating.get_mut(&item.tx) else {
                continue;
            };
            let progress = coord
                .progress
                .entry(shard)
                .or_default()
                .entry(epoch)
                .or_default();
            progress.acks.insert(from);
            progress.frontiers.insert(from, frontier);
            if progress.pos.is_none() {
                progress.pos = Some(item.pos);
            }
            if progress.vote.is_none() {
                progress.vote = Some(item.vote);
            }
        }
        self.complete_batch(items.iter().map(|item| item.tx), ctx);
    }

    /// Lines 30–32: record the final decisions of a `DECISION`, then fold the
    /// decided prefix below the gossiped cluster-wide floor into the
    /// checkpoint, once.
    fn handle_decision_batch(
        &mut self,
        epoch: Epoch,
        items: Items<DecisionItem>,
        truncate_to: Position,
        ctx: &mut Context<'_, Msg>,
    ) {
        if self.status == Status::Reconfiguring {
            return; // line 31 precondition: status ∈ {leader, follower}
        }
        if self.epoch_of(self.shard) < epoch {
            return; // line 31 precondition: epoch[s0] ≥ e
        }
        for item in items.iter() {
            self.log.decide(item.pos, item.decision);
        }
        self.maybe_truncate(truncate_to, ctx);
    }

    /// Truncates the log at `floor` (clamped to the own decided frontier by
    /// the log itself) once at least a batch of slots can be freed.
    fn maybe_truncate(&mut self, floor: Position, ctx: &mut Context<'_, Msg>) {
        if !self.truncation.enabled {
            return;
        }
        let target = floor.min(self.log.decided_frontier());
        if target.as_u64() >= self.log.base().as_u64() + self.truncation.batch {
            let freed = self.log.truncate_to(target);
            ctx.add_counter("log_slots_truncated", freed as u64);
        }
    }

    /// Compaction leg 1 received: the client acknowledged the decision of
    /// `tx`. Relay the full acknowledgement to every member of every shard of
    /// the transaction, then drop the coordinator state — neither the client
    /// (it has the decision) nor a recovery coordinator (no member still
    /// holds the transaction prepared once it is decided everywhere) will
    /// ever ask this coordinator about `tx` again.
    fn handle_decision_ack(&mut self, tx: TxId, ctx: &mut Context<'_, Msg>) {
        let Some(coord) = self.coordinating.get(&tx) else {
            return;
        };
        if !coord.decided {
            return; // stray ack for a transaction still in flight
        }
        let shards = coord.shards.clone();
        for shard in shards {
            let members = self.members_of(shard).to_vec();
            ctx.send_to_many(members, Msg::AckDecided { tx });
        }
        self.coordinating.remove(&tx);
        ctx.add_counter("decisions_acked", 1);
    }

    /// Compaction leg 2 received: drop the transaction's checkpoint decision
    /// record (or mark it to be folded without one).
    fn handle_ack_decided(&mut self, tx: TxId, ctx: &mut Context<'_, Msg>) {
        if self.log.ack_decided(tx) {
            ctx.add_counter("checkpoint_records_pruned", 1);
        }
    }

    /// A shard leader answered a `PREPARE` for a transaction it has already
    /// decided and truncated: adopt the decision, report it to the client
    /// (duplicate identical decisions are benign there), and propagate it to
    /// every shard whose certification position this coordinator knows —
    /// shards that missed the original `DECISION` still hold the transaction
    /// as prepared, and without this their slots and `L2` locks would stay
    /// stranded forever. Shards whose `PREPARE_ACK` has not arrived yet are
    /// flushed from `handle_prepare_ack_batch` via `known_decision`.
    fn handle_tx_decided(
        &mut self,
        tx: TxId,
        decision: Decision,
        client: ProcessId,
        ctx: &mut Context<'_, Msg>,
    ) {
        if let Some(coord) = self.coordinating.get_mut(&tx) {
            if coord.known_decision.is_some() {
                return;
            }
            coord.known_decision = Some(decision);
            let was_decided = coord.decided;
            if !was_decided {
                self.in_flight -= 1;
                // Decided out-of-band (the shard already truncated the
                // transaction): no quorum was observed this incarnation.
                ctx.obs_milestone(tx, TxMilestone::Decided, 0);
            }
            coord.decided = true;
            coord.decision.get_or_insert(decision);
            let shards = coord.shards.clone();
            for shard in shards {
                self.flush_known_decision(tx, shard, ctx);
            }
            self.retry_backoff.remove(&tx);
            if !was_decided {
                // An out-of-band decision also frees an admission slot.
                self.drain_admission(ctx);
            }
            if was_decided {
                return;
            }
        }
        ctx.send(client, Msg::DecisionClient { tx, decision });
    }

    /// Re-sends `DECISION` for a transaction with an out-of-band decision to
    /// the members of `shard`, if this coordinator knows the transaction's
    /// position there in the shard's current epoch.
    fn flush_known_decision(&mut self, tx: TxId, shard: ShardId, ctx: &mut Context<'_, Msg>) {
        let Some(coord) = self.coordinating.get(&tx) else {
            return;
        };
        let Some(decision) = coord.known_decision else {
            return;
        };
        let epoch = self.epoch_of(shard);
        let Some(pos) = coord
            .progress
            .get(&shard)
            .and_then(|m| m.get(&epoch))
            .and_then(|p| p.pos)
        else {
            return;
        };
        let members = self.members_of(shard).to_vec();
        ctx.send_to_many(
            members,
            Msg::DecisionBatch {
                epoch,
                items: Items::one(DecisionItem { pos, decision }),
                truncate_to: Position::ZERO,
            },
        );
    }

    /// Lines 70–73: become a recovery coordinator for a prepared transaction.
    fn handle_retry(&mut self, tx: TxId, ctx: &mut Context<'_, Msg>) {
        let Some(pos) = self.log.position_of(tx) else {
            return;
        };
        // A truncated slot is decided (line 71 precondition fails), so
        // `get` returning `None` below the checkpoint is also a no-op.
        let Some(entry) = self.log.get(pos) else {
            return;
        };
        if entry.phase != TxPhase::Prepared {
            return; // line 71 precondition
        }
        let shards = entry.shards.clone();
        let client = entry.client;
        self.coord_entry(tx, client, &shards);
        // Line 73: send PREPARE(t, ⊥) to the leaders of all shards of t.
        // (`send_prepares` sends ⊥ because a recovery coordinator has no full
        // payload.)
        self.resend_prepares(ctx, tx, None);
        self.arm_retry_timer(ctx);
        ctx.add_counter("retries_started", 1);
        ctx.ctrl_milestone(
            CtrlMilestone::CoordinatorHandoff,
            Some(self.shard),
            tx.as_u64(),
        );
    }

    // -- reconfiguration ------------------------------------------------------

    /// Lines 33–39: start reconfiguring a shard.
    fn handle_start_reconfigure(
        &mut self,
        shard: ShardId,
        spares: Vec<ProcessId>,
        target_size: usize,
        exclude: Vec<ProcessId>,
        ctx: &mut Context<'_, Msg>,
    ) {
        if self.recon.is_some() {
            return; // line 34 precondition: probing = false
        }
        self.recon = Some(ReconState {
            shard,
            phase: ReconPhase::AwaitingGetLast,
            recon_epoch: Epoch::ZERO,
            probed_epoch: Epoch::ZERO,
            probed_members: Vec::new(),
            responders: Vec::new(),
            initialized: Vec::new(),
            prev_leader: None,
            grace_timer: None,
            retries: 0,
            descended_for_current: false,
            spares,
            target_size,
            exclude,
        });
        ctx.ctrl_milestone(
            CtrlMilestone::ReconfigInitiated,
            Some(shard),
            self.epoch_of(shard).as_u64(),
        );
        ctx.send(self.cs, Msg::CsGetLast { shard });
        // Probes travel over faultable links; if they (or their replies) are
        // lost, restart the whole probe from scratch after a while.
        ctx.set_timer(RECON_RETRY, RECON_RETRY_TICK);
    }

    /// Line 36 continued: the configuration service returned the latest
    /// configuration; begin probing its members.
    fn handle_cs_get_last_reply(
        &mut self,
        shard: ShardId,
        config: ShardConfiguration,
        ctx: &mut Context<'_, Msg>,
    ) {
        let recon_matches = self
            .recon
            .as_ref()
            .map(|r| r.shard == shard && matches!(r.phase, ReconPhase::AwaitingGetLast))
            .unwrap_or(false);
        if !recon_matches {
            // Not (this) reconfiguration's reply: a stalled coordinator's
            // view-refresh poll (see `handle_retry_tick`). The lazy
            // CONFIG_CHANGE of lines 67–69 may have been lost to a fault, so
            // adopt the fresher view here.
            self.handle_stale_view_refresh(shard, config);
            return;
        }
        let Some(recon) = self.recon.as_mut() else {
            return;
        };
        recon.probed_epoch = config.epoch;
        recon.probed_members = config.members.clone();
        recon.recon_epoch = config.epoch.next();
        recon.prev_leader = Some(config.leader);
        recon.phase = ReconPhase::Probing;
        recon.descended_for_current = false;
        let epoch = recon.recon_epoch;
        let targets = recon.probed_members.clone();
        ctx.ctrl_milestone(CtrlMilestone::ProbeStarted, Some(shard), epoch.as_u64());
        ctx.send_to_many(targets, Msg::Probe { epoch });
    }

    /// Lines 40–44: a probed process joins the new epoch and stops processing.
    fn handle_probe(&mut self, from: ProcessId, epoch: Epoch, ctx: &mut Context<'_, Msg>) {
        if epoch < self.new_epoch {
            return; // line 41 precondition
        }
        self.status = Status::Reconfiguring;
        self.new_epoch = epoch;
        ctx.send(
            from,
            Msg::ProbeAck {
                initialized: self.initialized,
                epoch,
                shard: self.shard,
            },
        );
    }

    /// Lines 45–55: handle probe replies — either finish probing (an
    /// initialised process was found and becomes the new leader) or descend to
    /// the previous epoch.
    fn handle_probe_ack(
        &mut self,
        from: ProcessId,
        initialized: bool,
        epoch: Epoch,
        shard: ShardId,
        ctx: &mut Context<'_, Msg>,
    ) {
        let Some(recon) = self.recon.as_mut() else {
            return;
        };
        if !matches!(recon.phase, ReconPhase::Probing)
            || recon.shard != shard
            || recon.recon_epoch != epoch
        {
            return;
        }
        if !recon.responders.contains(&from) {
            recon.responders.push(from);
        }
        if initialized {
            if !recon.initialized.contains(&from) {
                recon.initialized.push(from);
            }
            // Lines 45–50, refined: an initialised responder makes the new
            // epoch viable, but finishing immediately would draft spares in
            // place of warm replicas whose probe replies are still in flight.
            // Finish at once only when every probed member has answered;
            // otherwise wait out a short grace period for the stragglers.
            let all_answered = recon
                .probed_members
                .iter()
                .all(|p| recon.responders.contains(p));
            if all_answered {
                self.finish_probe(ctx);
            } else if recon.grace_timer.is_none() {
                ctx.ctrl_milestone(CtrlMilestone::ProbeGrace, Some(shard), epoch.as_u64());
                recon.grace_timer = Some(ctx.set_timer(PROBE_GRACE, PROBE_GRACE_TICK));
            }
        } else if recon.initialized.is_empty()
            && !recon.descended_for_current
            && recon.probed_members.contains(&from)
        {
            // Lines 51–55: the probed epoch is not operational; probe the
            // preceding epoch.
            recon.descended_for_current = true;
            match recon.probed_epoch.prev() {
                Some(prev) => {
                    recon.probed_epoch = prev;
                    recon.phase = ReconPhase::AwaitingGet;
                    let shard = recon.shard;
                    ctx.send(self.cs, Msg::CsGet { shard, epoch: prev });
                }
                None => {
                    // No earlier epoch exists: all shard data is lost. The
                    // paper's liveness assumption (Assumption 1) excludes this.
                    ctx.add_counter("reconfiguration_stuck", 1);
                    self.recon = None;
                }
            }
        }
    }

    /// Lines 45–50: end probing, compute the new membership and CAS it.
    ///
    /// The new leader is the previous epoch's leader when it responded
    /// initialised, otherwise the first initialised responder. The membership
    /// prefers initialised responders over other responders over spares, so
    /// warm replicas (which already hold the shard's certification log) are
    /// never discarded in favour of fresh processes that would need a full
    /// state transfer.
    fn finish_probe(&mut self, ctx: &mut Context<'_, Msg>) {
        let Some(recon) = self.recon.as_mut() else {
            return;
        };
        if !matches!(recon.phase, ReconPhase::Probing) || recon.initialized.is_empty() {
            return;
        }
        let excluded: BTreeSet<ProcessId> = recon.exclude.iter().copied().collect();
        let leader = recon
            .prev_leader
            .filter(|p| recon.initialized.contains(p) && !excluded.contains(p))
            .unwrap_or(recon.initialized[0]);
        // Initialised responders first, then the rest; `plan` skips the
        // duplicates this chaining produces.
        let preferred: Vec<ProcessId> = recon
            .initialized
            .iter()
            .chain(recon.responders.iter())
            .copied()
            .filter(|p| *p != leader)
            .collect();
        let mut planner = MembershipPlanner::new(recon.target_size, recon.spares.iter().copied());
        let members = planner.plan(leader, &preferred, &recon.exclude);
        let config = ShardConfiguration::new(recon.recon_epoch, members, leader);
        let expected = recon
            .recon_epoch
            .prev()
            .expect("recon_epoch is always a successor");
        recon.phase = ReconPhase::AwaitingCas { new_leader: leader };
        let shard = recon.shard;
        ctx.send(
            self.cs,
            Msg::CsCas {
                shard,
                expected,
                config,
            },
        );
    }

    /// The probe grace period elapsed: finish with the replies received.
    fn handle_probe_grace_tick(&mut self, ctx: &mut Context<'_, Msg>) {
        if let Some(recon) = self.recon.as_mut() {
            recon.grace_timer = None;
        }
        self.finish_probe(ctx);
    }

    /// The reconfiguration retry timer fired with the reconfiguration still
    /// unfinished: some message of the probe exchange (a probe, a reply, the
    /// CAS request or its reply) was lost to a link fault or a crash.
    /// Restart the whole attempt from `get_last`. This is safe in every
    /// phase: probes are idempotent, and if a CAS actually succeeded while
    /// its reply was lost, `get_last` now returns the installed epoch and
    /// the fresh probe targets its members with the next one.
    fn handle_recon_retry_tick(&mut self, ctx: &mut Context<'_, Msg>) {
        let Some(recon) = self.recon.as_mut() else {
            return;
        };
        recon.retries += 1;
        if recon.retries > RECON_RETRY_CAP {
            // The shard looks unrecoverable; stop keeping the event queue
            // alive. A later `StartReconfigure` can always try again.
            if let Some(id) = recon.grace_timer.take() {
                ctx.cancel_timer(id);
            }
            self.recon = None;
            ctx.add_counter("reconfiguration_abandoned", 1);
            return;
        }
        let shard = recon.shard;
        recon.phase = ReconPhase::AwaitingGetLast;
        recon.responders.clear();
        recon.initialized.clear();
        // A grace timer armed by the abandoned round must not fire into the
        // new one and finish it early with a partial responder set.
        if let Some(id) = recon.grace_timer.take() {
            ctx.cancel_timer(id);
        }
        recon.descended_for_current = false;
        ctx.add_counter("reconfiguration_reprobes", 1);
        ctx.send(self.cs, Msg::CsGetLast { shard });
        ctx.set_timer(RECON_RETRY, RECON_RETRY_TICK);
    }

    /// Line 54 continued: the configuration service returned the membership of
    /// the next epoch to probe.
    fn handle_cs_get_reply(
        &mut self,
        shard: ShardId,
        epoch: Epoch,
        config: Option<ShardConfiguration>,
        ctx: &mut Context<'_, Msg>,
    ) {
        let Some(recon) = self.recon.as_mut() else {
            return;
        };
        if recon.shard != shard
            || !matches!(recon.phase, ReconPhase::AwaitingGet)
            || recon.probed_epoch != epoch
        {
            return;
        }
        match config {
            Some(config) => {
                recon.probed_members = config.members.clone();
                recon.phase = ReconPhase::Probing;
                recon.descended_for_current = false;
                let e = recon.recon_epoch;
                let targets = recon.probed_members.clone();
                ctx.send_to_many(targets, Msg::Probe { epoch: e });
            }
            None => match recon.probed_epoch.prev() {
                Some(prev) => {
                    recon.probed_epoch = prev;
                    let s = recon.shard;
                    ctx.send(
                        self.cs,
                        Msg::CsGet {
                            shard: s,
                            epoch: prev,
                        },
                    );
                }
                None => {
                    ctx.add_counter("reconfiguration_stuck", 1);
                    self.recon = None;
                }
            },
        }
    }

    /// Lines 49–50: the compare-and-swap outcome — on success, notify the new
    /// leader.
    fn handle_cs_cas_reply(
        &mut self,
        shard: ShardId,
        ok: bool,
        config: ShardConfiguration,
        ctx: &mut Context<'_, Msg>,
    ) {
        let Some(recon) = self.recon.as_ref() else {
            return;
        };
        let ReconPhase::AwaitingCas { new_leader } = recon.phase else {
            return;
        };
        if recon.shard != shard {
            return;
        }
        self.recon = None; // probing ← false
        if ok {
            ctx.ctrl_milestone(
                CtrlMilestone::ConfigChosen,
                Some(shard),
                config.epoch.as_u64(),
            );
            ctx.send(
                new_leader,
                Msg::NewConfig {
                    epoch: config.epoch,
                    members: config.members,
                },
            );
        } else {
            ctx.add_counter("reconfiguration_cas_lost", 1);
        }
    }

    /// Lines 56–60: this replica becomes the new leader of its shard.
    fn handle_new_config(
        &mut self,
        epoch: Epoch,
        members: Vec<ProcessId>,
        ctx: &mut Context<'_, Msg>,
    ) {
        if epoch < self.new_epoch {
            return;
        }
        let previous_leader = self.leader.get(&self.shard).copied();
        self.status = Status::Leader;
        self.new_epoch = epoch;
        self.epoch.insert(self.shard, epoch);
        self.members.insert(self.shard, members.clone());
        self.leader.insert(self.shard, self.id);
        if previous_leader != Some(self.id) {
            ctx.ctrl_milestone(
                CtrlMilestone::LeaderHandoff,
                Some(self.shard),
                epoch.as_u64(),
            );
        }
        ctx.ctrl_milestone(
            CtrlMilestone::ShardOperational,
            Some(self.shard),
            epoch.as_u64(),
        );
        // Line 59: `next` is implicitly the length of the certification log.
        // Line 60: transfer state to the new followers.
        let followers: Vec<ProcessId> = members.iter().copied().filter(|p| *p != self.id).collect();
        let log = self.log.clone();
        for follower in followers {
            ctx.send(
                follower,
                Msg::NewState {
                    epoch,
                    members: members.clone(),
                    leader: self.id,
                    log: log.clone(),
                },
            );
        }
        ctx.add_counter("became_leader", 1);
    }

    /// Lines 61–66: a new follower installs the leader's state.
    fn handle_new_state(
        &mut self,
        epoch: Epoch,
        members: Vec<ProcessId>,
        leader: ProcessId,
        log: CertificationLog,
        ctx: &mut Context<'_, Msg>,
    ) {
        if epoch < self.new_epoch {
            return; // line 62 precondition
        }
        self.initialized = true;
        self.status = Status::Follower;
        self.new_epoch = epoch;
        self.epoch.insert(self.shard, epoch);
        self.members.insert(self.shard, members);
        self.leader.insert(self.shard, leader);
        self.log = log;
        ctx.ctrl_milestone(
            CtrlMilestone::StateTransferred,
            Some(self.shard),
            epoch.as_u64(),
        );
        // State transfers normally carry the sender's index; rebuild one if
        // the log arrived without it so votes stay O(|payload|) after a
        // promotion of this replica.
        if !self.log.has_index() {
            self.log.set_certifier(self.index_factory.clone_box());
        }
    }

    /// A `get_last` reply that did not belong to an active reconfiguration:
    /// adopt the configuration if it is newer than the local view (the pushed
    /// `CONFIG_CHANGE` of lines 67–69 travels over faultable links and may
    /// have been lost).
    ///
    /// For the replica's *own* shard, adopting the view matters when this
    /// process has been excluded from the membership (it crashed and was
    /// replaced): it must stop acting as a leader or follower of a stale
    /// epoch — answering `PREPARE`s with a new-epoch tag from outside the
    /// membership would be unsafe — so it retires into `Reconfiguring` until
    /// some future configuration re-drafts it. Its coordinated transactions
    /// keep completing through the (now refreshed) view of the new members.
    fn handle_stale_view_refresh(&mut self, shard: ShardId, config: ShardConfiguration) {
        if config.epoch <= self.epoch_of(shard) {
            return;
        }
        if shard == self.shard {
            if config.members.contains(&self.id) {
                // We are a member of the newer epoch: NEW_STATE/NEW_CONFIG is
                // in flight (or was lost and a re-reconfiguration will supply
                // it); the epoch switch happens there, not here.
                return;
            }
            self.status = Status::Reconfiguring;
            if self.new_epoch < config.epoch {
                self.new_epoch = config.epoch;
            }
        }
        self.epoch.insert(shard, config.epoch);
        self.members.insert(shard, config.members.clone());
        self.leader.insert(shard, config.leader);
    }

    /// Lines 67–69: learn about another shard's new configuration.
    fn handle_config_change(
        &mut self,
        shard: ShardId,
        epoch: Epoch,
        members: Vec<ProcessId>,
        leader: ProcessId,
    ) {
        if shard == self.shard || self.epoch_of(shard) >= epoch {
            return; // line 68 precondition
        }
        self.epoch.insert(shard, epoch);
        self.members.insert(shard, members);
        self.leader.insert(shard, leader);
    }

    /// Coordinator re-transmission: re-sends `PREPARE` for coordinated
    /// transactions that have not completed (e.g. because a shard
    /// reconfigured mid-flight or a message raced with an epoch change).
    fn handle_retry_tick(&mut self, ctx: &mut Context<'_, Msg>) {
        self.retry_timer_armed = false;
        let now = ctx.now().as_micros();
        // Flow control: only transactions whose backoff deadline has passed
        // re-drive this tick — the fix for the per-tick full-pending volley
        // of the congestive collapse. Without flow control every undecided
        // transaction re-drives every tick (legacy).
        let pending: Vec<TxId> = self
            .coordinating
            .iter()
            .filter(|(tx, c)| !c.decided && self.backoff_due(**tx, now))
            .map(|(tx, _)| *tx)
            .collect();
        // A stalled coordinator may be working from a stale view: the pushed
        // CONFIG_CHANGE travels over faultable links. Refresh the view of
        // every shard a *due* pending transaction touches from the
        // configuration service (replies are handled by
        // `handle_stale_view_refresh`); backoff gates these polls too, so a
        // backlogged coordinator does not flood the configuration service.
        if !pending.is_empty() {
            let mut stale_shards: BTreeSet<ShardId> = BTreeSet::new();
            for tx in &pending {
                if let Some(coord) = self.coordinating.get(tx) {
                    stale_shards.extend(coord.shards.iter().copied());
                }
            }
            for shard in stale_shards {
                ctx.send(self.cs, Msg::CsGetLast { shard });
            }
        }
        for tx in pending {
            if self.flow.enabled {
                let attempt = self.retry_backoff.get(&tx).map(|b| b.attempt).unwrap_or(0);
                ctx.obs_milestone(tx, TxMilestone::Retry, u64::from(attempt));
                ctx.obs_gauge("obs_backoff_attempt", f64::from(attempt));
                self.backoff_fired(tx, now);
            }
            let coord = self.coordinating.get(&tx).expect("pending");
            // Resend only to shards that are not yet complete in the current epoch.
            let mut stale_shards = Vec::new();
            for shard in &coord.shards {
                let epoch = self.epoch_of(*shard);
                let complete = coord
                    .progress
                    .get(shard)
                    .and_then(|m| m.get(&epoch))
                    .map(|p| {
                        let leader = self.leader.get(shard).copied();
                        let required: BTreeSet<ProcessId> = self
                            .members_of(*shard)
                            .iter()
                            .copied()
                            .filter(|q| Some(*q) != leader)
                            .collect();
                        p.vote.is_some() && required.is_subset(&p.acks)
                    })
                    .unwrap_or(false);
                if !complete {
                    stale_shards.push(*shard);
                }
            }
            if !stale_shards.is_empty() {
                self.resend_prepares(ctx, tx, Some(&stale_shards));
            }
        }
        self.arm_retry_timer(ctx);
    }
}

impl Actor<Msg> for Replica {
    fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        match msg {
            Msg::Certify {
                tx,
                payload,
                client,
            } => self.handle_certify(tx, payload, client, ctx),
            Msg::DecisionClient { .. } => {}
            Msg::Retry { tx } => self.handle_retry(tx, ctx),
            Msg::DecisionAck { tx } => self.handle_decision_ack(tx, ctx),
            Msg::AckDecided { tx } => self.handle_ack_decided(tx, ctx),
            Msg::TxDecided {
                tx,
                decision,
                client,
            } => self.handle_tx_decided(tx, decision, client, ctx),
            Msg::PrepareBatch { batch } => self.handle_prepare_batch(from, batch.items, ctx),
            Msg::PrepareAckBatch {
                epoch,
                shard,
                items,
                frontier,
            } => self.handle_prepare_ack_batch(from, epoch, shard, items, frontier, ctx),
            Msg::AcceptBatch {
                epoch,
                shard,
                items,
            } => self.handle_accept_batch(from, epoch, shard, items, ctx),
            Msg::AcceptAckBatch {
                shard,
                epoch,
                items,
                frontier,
            } => self.handle_accept_ack_batch(from, shard, epoch, items, frontier, ctx),
            Msg::DecisionBatch {
                epoch,
                items,
                truncate_to,
            } => self.handle_decision_batch(epoch, items, truncate_to, ctx),
            Msg::StartReconfigure {
                shard,
                spares,
                target_size,
                exclude,
            } => self.handle_start_reconfigure(shard, spares, target_size, exclude, ctx),
            Msg::Probe { epoch } => self.handle_probe(from, epoch, ctx),
            Msg::ProbeAck {
                initialized,
                epoch,
                shard,
            } => self.handle_probe_ack(from, initialized, epoch, shard, ctx),
            Msg::NewConfig { epoch, members } => self.handle_new_config(epoch, members, ctx),
            Msg::NewState {
                epoch,
                members,
                leader,
                log,
            } => self.handle_new_state(epoch, members, leader, log, ctx),
            Msg::ConfigChange {
                shard,
                epoch,
                members,
                leader,
            } => self.handle_config_change(shard, epoch, members, leader),
            Msg::CsGetLastReply { shard, config } => {
                self.handle_cs_get_last_reply(shard, config, ctx)
            }
            Msg::CsGetReply {
                shard,
                epoch,
                config,
            } => self.handle_cs_get_reply(shard, epoch, config, ctx),
            Msg::CsCasReply { shard, ok, config } => {
                self.handle_cs_cas_reply(shard, ok, config, ctx)
            }
            // Requests addressed to the configuration service are ignored by
            // replicas.
            Msg::CsGetLast { .. } | Msg::CsGet { .. } | Msg::CsCas { .. } => {}
        }
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<'_, Msg>) {
        if tag == RETRY_TICK {
            self.handle_retry_tick(ctx);
        } else if tag == BATCH_TICK {
            self.batch_timer_armed = false;
            // A timer flush of a partial batch = idle pipeline: an adaptive
            // batcher shrinks back toward batches of one.
            let txs = self.batcher.drain_idle();
            self.flush_prepare_batch(txs, ctx);
        } else if tag == PROBE_GRACE_TICK {
            self.handle_probe_grace_tick(ctx);
        } else if tag == RECON_RETRY_TICK {
            self.handle_recon_retry_tick(ctx);
        }
    }

    /// Crash-restart recovery (the PR 2 recovery path, now exercised by the
    /// chaos nemesis): the certification log — checkpoint plus retained
    /// suffix — is the replica's stable storage; everything else is volatile.
    /// The in-memory certification index is rebuilt from the checkpoint's
    /// committed residue and the suffix, exactly as a `NEW_STATE` transfer
    /// would. Coordinator state is lost: clients (or recovery coordinators)
    /// re-drive undecided transactions.
    fn on_restart(&mut self, ctx: &mut Context<'_, Msg>) {
        self.coordinating.clear();
        self.in_flight = 0;
        self.admission.clear();
        self.retry_backoff.clear();
        self.recon = None;
        self.retry_timer_armed = false;
        self.batcher = VoteBatcher::new(self.batching);
        self.batch_timer_armed = false;
        self.log.set_certifier(self.index_factory.clone_box());
        ctx.add_counter("replica_restarts", 1);
    }
}
