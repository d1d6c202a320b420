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
//!   install a new one through the configuration service. This role is
//!   hosted too: the [`Reconfigurer`] is the one of [`crate::recon`], and the
//!   replica's [`ReconHost`] implementation tells it how Figure 1 spells the
//!   configuration service's operations, `PROBE` and `NEW_CONFIG`. The
//!   probed side of a reconfiguration (`PROBE`, `NEW_CONFIG`, `NEW_STATE`,
//!   `CONFIG_CHANGE`) is the shard member's.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use ratc_sim::{Actor, Context, CtrlMilestone, TimerTag};
use ratc_types::{CertificationPolicy, Epoch, ProcessId, ShardId, ShardMap, TxId};

use crate::batch::{AcceptAckItem, BatchingConfig, DecisionItem, Items, PrepareItem, PreparedItem};
use crate::config::ShardConfiguration;
use crate::coord::{Coordinator, Replication, ShardView, BATCH_TICK, RETRY_TICK};
use crate::log::CertificationLog;
use crate::messages::Msg;
use crate::recon::{ReconHost, Reconfigurer, PROBE_GRACE_TICK, RECON_RETRY_TICK};

/// Policy for checkpointed log truncation (§6's garbage collection).
///
/// Each member truncates its own certification log at its own decided
/// frontier whenever it records decisions; no member waits for another.
/// `batch` amortises the fold: a replica truncates only once at least that
/// many decided slots can be freed at once. [`TruncationConfig::disabled`]
/// is the batch `u64::MAX`, which no log ever reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TruncationConfig {
    /// Minimum number of slots to fold per truncation.
    pub batch: u64,
}

impl Default for TruncationConfig {
    fn default() -> Self {
        TruncationConfig { batch: 32 }
    }
}

impl TruncationConfig {
    /// Truncation switched off: the log grows without bound (the seed
    /// behaviour; useful for the differential suites).
    pub fn disabled() -> Self {
        TruncationConfig { batch: u64::MAX }
    }

    /// Truncation with the given fold batch.
    pub fn with_batch(batch: u64) -> Self {
        TruncationConfig {
            batch: batch.max(1),
        }
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

/// A replica of one shard (the process `p_i` in shard `s_0` of Figure 1).
pub struct Replica {
    coord: Coordinator,
    recon: Reconfigurer,
    member: Member,
}

/// The shard-member role of a [`Replica`]: the [`Replication`] its
/// coordinator and the [`ReconHost`] its reconfigurer work through.
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
    cs: ProcessId,
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
            recon: Reconfigurer::default(),
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
                cs: ProcessId::new(u64::MAX),
                truncation: TruncationConfig::default(),
            },
        }
    }

    /// Sets the checkpointed-truncation policy (default: fold batch 32).
    pub fn set_truncation(&mut self, truncation: TruncationConfig) {
        self.member.truncation = truncation;
    }

    /// Sets the batching-pipeline knobs (default: batches of one).
    pub fn set_batching(&mut self, batching: BatchingConfig) {
        self.coord.set_batching(batching);
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
        self.recon.in_flight()
    }
}

impl Replication for Member {
    type Msg = Msg;

    fn view(&self, shard: ShardId) -> ShardView<'_> {
        ShardView {
            epoch: self.epoch_of(shard),
            leader: self.leader.get(&shard).copied(),
            members: self.members_of(shard),
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
        items: Items<DecisionItem>,
        ctx: &mut Context<'_, Msg>,
    ) {
        ctx.send_to_many(
            self.members_of(shard).iter().copied(),
            Msg::DecisionBatch {
                epoch: self.epoch_of(shard),
                items,
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

/// Figure 1's reconfiguration is per shard: the configuration service keeps
/// one sequence of configurations per shard, and a chosen configuration is
/// installed by telling its leader.
impl ReconHost for Member {
    type Msg = Msg;
    type Config = ShardConfiguration;

    /// Line 36.
    fn fetch_latest(&mut self, shard: ShardId, ctx: &mut Context<'_, Msg>) {
        ctx.send(self.cs, Msg::CsGetLast { shard });
    }

    /// Line 54.
    fn fetch(&mut self, shard: ShardId, epoch: Epoch, ctx: &mut Context<'_, Msg>) {
        ctx.send(self.cs, Msg::CsGet { shard, epoch });
    }

    /// Lines 39 and 55.
    fn probe(&mut self, targets: Vec<ProcessId>, epoch: Epoch, ctx: &mut Context<'_, Msg>) {
        ctx.send_to_many(targets, Msg::Probe { epoch });
    }

    /// Line 49, for the one shard that was probed.
    fn propose(
        &mut self,
        epoch: Epoch,
        leaders: BTreeMap<ShardId, ProcessId>,
        members: BTreeMap<ShardId, Vec<ProcessId>>,
        ctx: &mut Context<'_, Msg>,
    ) {
        let expected = epoch.prev().expect("a proposed epoch is a successor");
        for (shard, members) in members {
            let config = ShardConfiguration::new(epoch, members, leaders[&shard]);
            let cas = Msg::CsCas {
                shard,
                expected,
                config,
            };
            ctx.send(self.cs, cas);
        }
    }

    /// Line 50: notify the new leader; nothing is left to re-drive.
    fn install(
        &mut self,
        _shard: ShardId,
        chosen: Option<ShardConfiguration>,
        ctx: &mut Context<'_, Msg>,
    ) -> bool {
        if let Some(config) = chosen {
            let (epoch, members) = (config.epoch, config.members);
            ctx.send(config.leader, Msg::NewConfig { epoch, members });
        }
        true
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
        self.log.serve_prepare(from, items, self.shard, epoch, ctx);
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
            },
        );
    }

    /// Lines 30–32: record the final decisions of a `DECISION`, then fold the
    /// own decided prefix into the checkpoint if a fold batch is due.
    fn handle_decision_batch(
        &mut self,
        epoch: Epoch,
        items: Items<DecisionItem>,
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
        self.log.truncate_if_due(self.truncation, ctx);
    }

    // -- reconfiguration, probed side (the reconfigurer is `crate::recon`) ----

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

    /// Lines 56–60: this replica becomes the new leader of its shard, then
    /// announces the configuration to the other shards (line 67). Returns
    /// whether its view of its shard moved to a newer epoch.
    fn handle_new_config(
        &mut self,
        epoch: Epoch,
        members: Vec<ProcessId>,
        ctx: &mut Context<'_, Msg>,
    ) -> bool {
        if epoch < self.new_epoch {
            return false;
        }
        let advanced = self.epoch_of(self.shard) < epoch;
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
        for follower in followers {
            ctx.send(
                follower,
                Msg::NewState {
                    epoch,
                    members: members.clone(),
                    leader: self.id,
                    log: Box::new(self.log.clone()),
                },
            );
        }
        ctx.add_counter("became_leader", 1);
        // Line 67: notify the members of the other shards, in process order.
        // The installed leader sends it, not the configuration service at
        // CAS time, so a coordinator that re-drives on learning the
        // configuration (`Coordinator::on_view_change`) finds a leader that
        // already serves it.
        let mut others: Vec<ProcessId> = self
            .members
            .iter()
            .filter(|(shard, _)| **shard != self.shard)
            .flat_map(|(_, members)| members.iter().copied())
            .collect();
        others.sort_unstable();
        others.dedup();
        let change = Msg::ConfigChange {
            shard: self.shard,
            epoch,
            members,
            leader: self.id,
        };
        ctx.send_to_many(others, change);
        advanced
    }

    /// Lines 61–66: a new follower installs the leader's state. Returns
    /// whether its view of its shard moved to a newer epoch.
    fn handle_new_state(
        &mut self,
        epoch: Epoch,
        members: Vec<ProcessId>,
        leader: ProcessId,
        log: CertificationLog,
        ctx: &mut Context<'_, Msg>,
    ) -> bool {
        if epoch < self.new_epoch {
            return false; // line 62 precondition
        }
        let advanced = self.epoch_of(self.shard) < epoch;
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
        advanced
    }

    /// A `get_last` reply the reconfigurer was not waiting for: adopt the
    /// configuration if it is newer than the local view (the pushed
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
    /// Returns whether the view of `shard` moved to a newer epoch.
    fn handle_stale_view_refresh(&mut self, shard: ShardId, config: ShardConfiguration) -> bool {
        if config.epoch <= self.epoch_of(shard) {
            return false;
        }
        if shard == self.shard {
            if config.members.contains(&self.id) {
                // We are a member of the newer epoch: NEW_STATE/NEW_CONFIG is
                // in flight (or was lost and a re-reconfiguration will supply
                // it); the epoch switch happens there, not here.
                return false;
            }
            self.status = Status::Reconfiguring;
            if self.new_epoch < config.epoch {
                self.new_epoch = config.epoch;
            }
        }
        self.epoch.insert(shard, config.epoch);
        self.members.insert(shard, config.members.clone());
        self.leader.insert(shard, config.leader);
        true
    }

    /// Lines 67–69: learn about another shard's new configuration from its
    /// installed leader. Returns whether the view of `shard` moved to a
    /// newer epoch.
    fn handle_config_change(
        &mut self,
        shard: ShardId,
        epoch: Epoch,
        members: Vec<ProcessId>,
        leader: ProcessId,
    ) -> bool {
        if shard == self.shard || self.epoch_of(shard) >= epoch {
            return false; // line 68 precondition
        }
        self.epoch.insert(shard, epoch);
        self.members.insert(shard, members);
        self.leader.insert(shard, leader);
        true
    }
}

impl Actor<Msg> for Replica {
    fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        let Replica {
            coord,
            recon,
            member,
        } = self;
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
            } => coord.on_prepare_ack(epoch, shard, items, member, ctx),
            Msg::AcceptBatch {
                epoch,
                shard,
                items,
            } => member.handle_accept_batch(from, epoch, shard, items, ctx),
            // Line 26 bookkeeping: an `ACCEPT_ACK` carries the stored slots.
            Msg::AcceptAckBatch {
                shard,
                epoch,
                items,
            } => {
                let acks = items.iter().map(|i| (i.tx, Some((i.pos, i.vote))));
                coord.record_acks(from, shard, epoch, acks, member, ctx)
            }
            Msg::DecisionBatch { epoch, items } => member.handle_decision_batch(epoch, items, ctx),
            Msg::StartReconfigure {
                shard,
                spares,
                target_size,
                exclude,
            } => {
                let (current, spares) = (member.epoch_of(shard), [(shard, spares)].into());
                recon.start(shard, current, spares, target_size, exclude, member, ctx)
            }
            Msg::Probe { epoch } => member.handle_probe(from, epoch, ctx),
            Msg::ProbeAck {
                initialized,
                epoch,
                shard,
            } => recon.on_probe_ack(from, initialized, epoch, shard, member, ctx),
            // Each view change re-drives what stalled on the shard.
            Msg::NewConfig { epoch, members } => {
                if member.handle_new_config(epoch, members, ctx) {
                    coord.on_view_change(member.shard, member, ctx);
                }
            }
            Msg::NewState {
                epoch,
                members,
                leader,
                log,
            } => {
                if member.handle_new_state(epoch, members, leader, *log, ctx) {
                    coord.on_view_change(member.shard, member, ctx);
                }
            }
            Msg::ConfigChange {
                shard,
                epoch,
                members,
                leader,
            } => {
                if member.handle_config_change(shard, epoch, members, leader) {
                    coord.on_view_change(shard, member, ctx);
                }
            }
            // Line 36 continued, if this is the reconfigurer's `get_last`;
            // otherwise a stalled coordinator's `Replication::refresh_views`.
            Msg::CsGetLastReply { shard, config } => {
                if recon.awaiting_latest() == Some(shard) {
                    let probed = [(shard, config.members, Some(config.leader))];
                    recon.on_latest(config.epoch, probed, member, ctx)
                } else if member.handle_stale_view_refresh(shard, config) {
                    coord.on_view_change(shard, member, ctx);
                }
            }
            Msg::CsGetReply {
                shard,
                epoch,
                config,
            } => recon.on_older(shard, epoch, config.map(|c| c.members), member, ctx),
            Msg::CsCasReply {
                shard: _,
                ok,
                config,
            } => recon.on_cas_reply(ok, config.epoch, config, member, ctx),
            // Requests addressed to the configuration service are ignored by
            // replicas.
            Msg::CsGetLast { .. } | Msg::CsGet { .. } | Msg::CsCas { .. } => {}
        }
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<'_, Msg>) {
        let Replica {
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
        }
    }

    /// Crash-restart recovery (exercised by the chaos nemesis). Stable
    /// storage is the certification log: its checkpoint, its retained suffix
    /// and its index's `L1` summary of committed writers. Volatile: the
    /// index's `L2` lock table, rebuilt from the retained prepared slots
    /// ([`CertificationLog::restart`]), the coordinator and the reconfigurer.
    /// Clients (or recovery coordinators) re-drive undecided transactions.
    fn on_restart(&mut self, ctx: &mut Context<'_, Msg>) {
        self.coord.reset();
        self.recon.reset();
        let member = &mut self.member;
        member.log.restart();
        ctx.add_counter("replica_restarts", 1);
    }
}

#[cfg(test)]
mod tests {
    use ratc_sim::{SimConfig, World};
    use ratc_types::{HashSharding, Serializability};

    use super::*;

    /// Records every message it receives.
    #[derive(Default)]
    struct Sink(Vec<Msg>);

    impl Actor<Msg> for Sink {
        fn on_message(&mut self, _from: ProcessId, msg: Msg, _ctx: &mut Context<'_, Msg>) {
            self.0.push(msg);
        }
    }

    /// Line 67 is the installed leader's: on `NEW_CONFIG` the new leader of
    /// shard 0 sends `NEW_STATE` to its follower, then `CONFIG_CHANGE` with
    /// the configuration it serves to every member of the other shards in
    /// its view, and to nobody else.
    #[test]
    fn the_installed_leader_announces_its_configuration_to_the_other_shards() {
        let mut world: World<Msg> = World::new(SimConfig::default());
        let mut sink = || world.add_actor(Sink::default());
        let (old_leader, follower, cs, reconfigurer) = (sink(), sink(), sink(), sink());
        let other = [sink(), sink()];
        let (s0, s1) = (ShardId::new(0), ShardId::new(1));
        let sharding = Arc::new(HashSharding::new(2));
        let leader = world.add_actor(Replica::new(s0, &Serializability::new(), sharding));
        let configs = BTreeMap::from([
            (
                s0,
                ShardConfiguration::new(Epoch::ZERO, vec![old_leader, leader], old_leader),
            ),
            (
                s1,
                ShardConfiguration::new(Epoch::ZERO, other.to_vec(), other[0]),
            ),
        ]);
        let replica = world.actor_mut::<Replica>(leader).expect("replica");
        replica.install_initial_config(leader, cs, &configs, true);

        let (epoch, members) = (Epoch::new(1), vec![leader, follower]);
        let new_config = Msg::NewConfig {
            epoch,
            members: members.clone(),
        };
        world.send_from(reconfigurer, leader, new_config);
        world.run();

        let replica = world.actor::<Replica>(leader).expect("replica");
        assert_eq!(replica.status(), Status::Leader);
        assert_eq!(replica.epoch_of(s0), epoch);
        let received = |pid: ProcessId| &world.actor::<Sink>(pid).expect("sink").0;
        for pid in other {
            match &received(pid)[..] {
                [Msg::ConfigChange {
                    shard,
                    epoch: announced,
                    members: announced_members,
                    leader: announced_leader,
                }] => {
                    assert_eq!(
                        (*shard, *announced, announced_members, *announced_leader),
                        (s0, epoch, &members, leader)
                    );
                }
                got => panic!("{pid} got {got:?}"),
            }
        }
        assert!(matches!(&received(follower)[..], [Msg::NewState { .. }]));
        for pid in [old_leader, cs, reconfigurer] {
            assert!(received(pid).is_empty(), "{pid} got {:?}", received(pid));
        }
    }
}
