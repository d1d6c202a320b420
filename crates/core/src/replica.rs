//! The replica state machine: Figure 1 of the paper, line by line.
//!
//! Every replica of every shard runs this actor. A replica simultaneously
//! plays three roles:
//!
//! * *shard member* (leader or follower): maintains the certification log of
//!   its shard and participates in preparing/accepting transactions;
//! * *transaction coordinator*: any replica that receives a `certify` request
//!   (or decides to retry a stalled transaction) drives the 2PC-style exchange
//!   for it and computes the final decision. The replica only *hosts* a
//!   [`Coordinator`] — the one the RDMA stack hosts too, see [`crate::coord`]
//!   — and tells it, through its [`Replication`] implementation, how this
//!   stack reaches a shard's replicas: per-shard epochs, `ACCEPT` /
//!   `ACCEPT_ACK` and `DECISION` messages;
//! * *reconfigurer*: any replica can probe a shard's configurations and
//!   install a new one through the configuration service.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use ratc_config::{MembershipPlanner, ShardConfiguration};
use ratc_sim::{Actor, Context, CtrlMilestone, SimDuration, TimerTag};
use ratc_types::{
    CertificationPolicy, Epoch, IndexedCertifier, Position, ProcessId, ShardCertifier, ShardId,
    ShardMap, TxId,
};

use crate::batch::{
    AcceptAckItem, BatchingConfig, DecisionItem, Items, PrepareItem, PreparedItem, ShardDecisions,
};
use crate::coord::{Coordinator, Replication, ShardView, BATCH_TICK, RETRY_TICK};
use crate::flow::FlowControlConfig;
use crate::log::CertificationLog;
use crate::messages::Msg;

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
    coord: Coordinator,
    member: Member,
}

/// The shard-member and reconfigurer roles of a [`Replica`], and the
/// [`Replication`] its coordinator works through.
struct Member {
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
    cs: ProcessId,
    recon: Option<ReconState>,
    truncation: TruncationConfig,
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
            coord: Coordinator::new(sharding),
            member: Member {
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
                cs: ProcessId::new(u64::MAX),
                recon: None,
                truncation: TruncationConfig::default(),
            },
        }
    }

    /// Sets the checkpointed-truncation policy (default: enabled, batch 32).
    pub fn set_truncation(&mut self, truncation: TruncationConfig) {
        self.member.truncation = truncation;
    }

    /// The replica's checkpointed-truncation policy.
    pub fn truncation(&self) -> TruncationConfig {
        self.member.truncation
    }

    /// Sets the batching-pipeline knobs (default: batches of one).
    pub fn set_batching(&mut self, batching: BatchingConfig) {
        self.coord.set_batching(batching);
    }

    /// Sets the flow-control knobs (default: enabled, window 64, exponential
    /// backoff).
    pub fn set_flow(&mut self, flow: FlowControlConfig) {
        self.coord.set_flow(flow);
    }

    /// The replica's flow-control knobs.
    pub fn flow(&self) -> FlowControlConfig {
        self.coord.flow()
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
        let member = &mut self.member;
        member.id = id;
        member.cs = cs;
        for (shard, config) in configs {
            member.epoch.insert(*shard, config.epoch);
            member.members.insert(*shard, config.members.clone());
            member.leader.insert(*shard, config.leader);
        }
        if in_initial_config {
            member.initialized = true;
            let own = &configs[&member.shard];
            member.status = if own.leader == id {
                Status::Leader
            } else {
                Status::Follower
            };
        } else {
            member.initialized = false;
            member.status = Status::Follower;
        }
    }

    // -- accessors used by tests, invariant checkers and experiments --------

    /// This replica's shard.
    pub fn shard(&self) -> ShardId {
        self.member.shard
    }

    /// This replica's current status.
    pub fn status(&self) -> Status {
        self.member.status
    }

    /// Whether this replica has ever been initialised with shard state.
    pub fn is_initialized(&self) -> bool {
        self.member.initialized
    }

    /// The replica's current epoch for `shard`.
    pub fn epoch_of(&self, shard: ShardId) -> Epoch {
        self.member.epoch_of(shard)
    }

    /// The replica's current view of `shard`'s members.
    pub fn members_of(&self, shard: ShardId) -> &[ProcessId] {
        self.member.members_of(shard)
    }

    /// The replica's current view of `shard`'s leader.
    pub fn leader_of(&self, shard: ShardId) -> Option<ProcessId> {
        self.member.leader.get(&shard).copied()
    }

    /// The replica's certification log.
    pub fn log(&self) -> &CertificationLog {
        &self.member.log
    }

    /// Number of transactions this replica is currently coordinating without
    /// a final decision.
    pub fn undecided_coordinated(&self) -> usize {
        self.coord.undecided_coordinated()
    }

    /// The transactions this replica coordinates that have no final decision.
    pub fn undecided_transactions(&self) -> Vec<TxId> {
        self.coord.undecided_transactions()
    }

    /// Whether this replica is currently driving a reconfiguration.
    pub fn reconfiguration_in_flight(&self) -> bool {
        self.member.recon.is_some()
    }
}

impl Replication for Member {
    type Msg = Msg;

    fn view(&self, shard: ShardId) -> ShardView<'_> {
        ShardView {
            epoch: self.epoch_of(shard),
            leader: self.leader.get(&shard).copied(),
            members: self.members_of(shard),
            // The leader gossips its decided frontier on `PREPARE_ACK` and
            // every follower on `ACCEPT_ACK`: the floor is the cluster-wide
            // minimum.
            gossipers: self.members_of(shard),
        }
    }

    /// Line 20: one `ACCEPT` per follower.
    fn persist_votes(
        &mut self,
        shard: ShardId,
        items: Items<PreparedItem>,
        ctx: &mut Context<'_, Msg>,
    ) -> Option<ProcessId> {
        let view = self.view(shard);
        let accept = Msg::AcceptBatch {
            epoch: view.epoch,
            shard,
            items,
        };
        ctx.send_to_many(view.followers(), accept);
        None
    }

    /// Line 29: one `DECISION` per shard member.
    fn distribute_decisions(
        &mut self,
        shard: ShardId,
        decisions: ShardDecisions,
        ctx: &mut Context<'_, Msg>,
    ) {
        ctx.send_to_many(
            self.members_of(shard).to_vec(),
            Msg::DecisionBatch {
                epoch: self.epoch_of(shard),
                items: decisions.items,
                truncate_to: decisions.truncate_to,
            },
        );
    }

    /// The pushed `CONFIG_CHANGE` of lines 67–69 travels over faultable
    /// links; replies to these polls are handled by
    /// `handle_stale_view_refresh`.
    fn refresh_views(&mut self, shards: &BTreeSet<ShardId>, ctx: &mut Context<'_, Msg>) {
        for &shard in shards {
            ctx.send(self.cs, Msg::CsGetLast { shard });
        }
    }
}

impl Member {
    fn epoch_of(&self, shard: ShardId) -> Epoch {
        self.epoch.get(&shard).copied().unwrap_or(Epoch::ZERO)
    }

    fn members_of(&self, shard: ShardId) -> &[ProcessId] {
        self.members.get(&shard).map(Vec::as_slice).unwrap_or(&[])
    }

    // -- the PREPARE/ACCEPT exchange, member side (see `crate::batch`) -------

    /// Lines 4–17: the shard leader certifies the items of a `PREPARE` in
    /// order ([`CertificationLog::serve_prepare`]).
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
        self.log
            .serve_prepare(from, items, self.shard, epoch, self.certifier.as_ref(), ctx);
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
        self.log.truncate_if_due(truncate_to, self.truncation, ctx);
    }

    /// Compaction leg 2 received: drop the transaction's checkpoint decision
    /// record (or mark it to be folded without one).
    fn handle_ack_decided(&mut self, tx: TxId, ctx: &mut Context<'_, Msg>) {
        if self.log.ack_decided(tx) {
            ctx.add_counter("checkpoint_records_pruned", 1);
        }
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
}

impl Actor<Msg> for Replica {
    fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        let Replica { coord, member } = self;
        match msg {
            Msg::Certify {
                tx,
                payload,
                client,
            } => coord.certify(tx, payload, client, member, ctx),
            Msg::DecisionClient { .. } => {}
            Msg::Retry { tx } => {
                coord.take_over(tx, member.log.prepared_tx(tx), member.shard, member, ctx)
            }
            // Compaction leg 1 received: the client acknowledged the decision
            // of `tx`. Relay the full acknowledgement to every member of
            // every shard of the transaction; the coordinator drops its state.
            Msg::DecisionAck { tx } => {
                if let Some(shards) = coord.forget_decided(tx) {
                    for shard in shards {
                        ctx.send_to_many(member.members_of(shard).to_vec(), Msg::AckDecided { tx });
                    }
                    ctx.add_counter("decisions_acked", 1);
                }
            }
            Msg::AckDecided { tx } => member.handle_ack_decided(tx, ctx),
            Msg::TxDecided {
                tx,
                decision,
                client,
            } => coord.on_tx_decided(tx, decision, client, member, ctx),
            Msg::PrepareBatch { batch } => member.handle_prepare_batch(from, batch.items, ctx),
            Msg::PrepareAckBatch {
                epoch,
                shard,
                items,
                frontier,
            } => coord.on_prepare_ack(from, epoch, shard, items, frontier, member, ctx),
            Msg::AcceptBatch {
                epoch,
                shard,
                items,
            } => member.handle_accept_batch(from, epoch, shard, items, ctx),
            // Line 26 bookkeeping: an `ACCEPT_ACK` carries the stored slots
            // and the follower's decided frontier.
            Msg::AcceptAckBatch {
                shard,
                epoch,
                items,
                frontier,
            } => {
                let acks = items.iter().map(|i| (i.tx, Some((i.pos, i.vote))));
                coord.record_acks(from, shard, epoch, acks, Some(frontier), member, ctx)
            }
            Msg::DecisionBatch {
                epoch,
                items,
                truncate_to,
            } => member.handle_decision_batch(epoch, items, truncate_to, ctx),
            Msg::StartReconfigure {
                shard,
                spares,
                target_size,
                exclude,
            } => member.handle_start_reconfigure(shard, spares, target_size, exclude, ctx),
            Msg::Probe { epoch } => member.handle_probe(from, epoch, ctx),
            Msg::ProbeAck {
                initialized,
                epoch,
                shard,
            } => member.handle_probe_ack(from, initialized, epoch, shard, ctx),
            Msg::NewConfig { epoch, members } => member.handle_new_config(epoch, members, ctx),
            Msg::NewState {
                epoch,
                members,
                leader,
                log,
            } => member.handle_new_state(epoch, members, leader, log, ctx),
            Msg::ConfigChange {
                shard,
                epoch,
                members,
                leader,
            } => member.handle_config_change(shard, epoch, members, leader),
            Msg::CsGetLastReply { shard, config } => {
                member.handle_cs_get_last_reply(shard, config, ctx)
            }
            Msg::CsGetReply {
                shard,
                epoch,
                config,
            } => member.handle_cs_get_reply(shard, epoch, config, ctx),
            Msg::CsCasReply { shard, ok, config } => {
                member.handle_cs_cas_reply(shard, ok, config, ctx)
            }
            // Requests addressed to the configuration service are ignored by
            // replicas.
            Msg::CsGetLast { .. } | Msg::CsGet { .. } | Msg::CsCas { .. } => {}
        }
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<'_, Msg>) {
        let Replica { coord, member } = self;
        if tag == RETRY_TICK {
            coord.retry_tick(member, ctx);
        } else if tag == BATCH_TICK {
            coord.batch_tick(member, ctx);
        } else if tag == PROBE_GRACE_TICK {
            member.handle_probe_grace_tick(ctx);
        } else if tag == RECON_RETRY_TICK {
            member.handle_recon_retry_tick(ctx);
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
        self.coord.reset();
        let member = &mut self.member;
        member.recon = None;
        member.log.set_certifier(member.index_factory.clone_box());
        ctx.add_counter("replica_restarts", 1);
    }
}
