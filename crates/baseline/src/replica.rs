//! Baseline shard replicas: certification + a Multi-Paxos log per shard.

use std::collections::BTreeMap;

use ratc_core::batch::{BatchingConfig, VoteBatcher, FLUSH_DELAY};
use ratc_paxos::{Outgoing, PaxosMsg};
use ratc_sim::{Actor, Context, CtrlMilestone, TimerTag, TxMilestone};
use ratc_types::{
    CertificationPolicy, Decision, IndexedCertifier, Payload, Position, ProcessId, ShardId, TxId,
};

use crate::group::PaxosMember;
use crate::messages::{BaselineMsg, ShardCommand, ShardVote};

/// Timer tag used to flush a partially filled proposal batch.
const BATCH_TICK: TimerTag = 11;

/// Timer tag re-sending outstanding Paxos messages (lost `Accept`s would
/// otherwise strand their slots forever on lossy links).
const RETRANSMIT_TICK: TimerTag = 12;

/// Retransmission interval for outstanding Paxos work.
const RETRANSMIT: ratc_sim::SimDuration = ratc_sim::SimDuration::from_millis(20);

/// Consecutive retransmission ticks after which the leader stops re-arming
/// (20 simulated seconds — the Paxos majority looks permanently gone); any
/// new proposal re-arms the timer.
const RETRANSMIT_CAP: u32 = 1000;

/// The position under which a transaction's index transitions are keyed:
/// transaction ids are globally unique, so they stand in for log slots.
fn pos(tx: TxId) -> Position {
    Position::new(tx.as_u64())
}

/// A replica of one shard in the baseline design.
///
/// Every replica is a Paxos acceptor of its shard's group; the distinguished
/// leader additionally certifies transactions and proposes the resulting votes
/// to the group. A vote is reported to the transaction manager only once it is
/// chosen, i.e. durable at a majority of the `2f + 1` replicas.
///
/// # Bounded memory
///
/// Mirroring the checkpointed truncation of the RATC stacks, a decided
/// transaction's *payload* is dropped as soon as its decision arrives: the
/// incremental certifier already folded a committed payload into its per-key
/// summary, so only the compact `decisions` map (the 2PC outcome log recovery
/// still needs) is retained. `prepared`/`in_flight` therefore hold payloads
/// only for the undecided window, not the whole history.
pub struct BaselineShardReplica {
    shard: ShardId,
    tm: ProcessId,
    /// Incremental certifier answering votes in O(|payload|). Transitions are
    /// keyed by transaction id (transaction ids are globally unique, so they
    /// serve as positions). Its committed summary `L1` is stable state; its
    /// lock table `L2` is volatile and rebuilt on restart.
    index: Box<dyn IndexedCertifier>,
    /// This replica's membership in the shard's Paxos group. While a
    /// restarted leader recovers, fresh certifications are deferred:
    /// commands accepted before the crash carry votes whose certifier locks
    /// are only re-established when the recovered slots are chosen, so
    /// certifying against the not-yet-caught-up index could approve
    /// conflicting transactions.
    paxos: PaxosMember<ShardCommand>,
    /// Chosen votes of *undecided* transactions: tx -> (payload, vote).
    prepared: BTreeMap<TxId, (Payload, Decision)>,
    /// Transactions proposed but whose vote is not chosen yet.
    in_flight: BTreeMap<TxId, (Payload, Decision)>,
    /// Final decisions (payload-free): the only per-transaction state kept
    /// for the whole history.
    decisions: BTreeMap<TxId, Decision>,
    /// Batched log appends (see `ratc_core::batch`): certified votes are
    /// coalesced here and proposed as one Multi-Paxos command per batch.
    /// At `max_batch = 1` the batcher flushes on every push, i.e. one
    /// command per transaction — the seed behaviour.
    batcher: VoteBatcher<ShardVote>,
    batch_timer_armed: bool,
    retransmit_armed: bool,
    /// Consecutive retransmission ticks; capped by [`RETRANSMIT_CAP`].
    retransmit_ticks: u32,
}

impl BaselineShardReplica {
    /// Creates a replica. The harness later installs identifiers and group
    /// membership with [`BaselineShardReplica::install`].
    pub fn new<P>(shard: ShardId, policy: &P) -> Self
    where
        P: CertificationPolicy + ?Sized,
    {
        BaselineShardReplica {
            shard,
            tm: ProcessId::new(u64::MAX),
            index: policy.indexed_certifier(shard),
            paxos: PaxosMember::new(ProcessId::new(u64::MAX), Vec::new(), false),
            prepared: BTreeMap::new(),
            in_flight: BTreeMap::new(),
            decisions: BTreeMap::new(),
            batcher: VoteBatcher::new(BatchingConfig::default()),
            batch_timer_armed: false,
            retransmit_armed: false,
            retransmit_ticks: 0,
        }
    }

    /// Sets the batching-pipeline knobs (default: disabled).
    pub fn set_batching(&mut self, batching: BatchingConfig) {
        self.batcher.set_config(batching);
    }

    /// Installs the replica's identity, the shard's Paxos group, whether this
    /// replica is the group's leader, and the transaction manager's address.
    pub fn install(&mut self, id: ProcessId, group: Vec<ProcessId>, leader: bool, tm: ProcessId) {
        self.paxos = PaxosMember::new(id, group, leader);
        self.tm = tm;
    }

    /// Whether this replica is its shard's leader.
    pub fn is_leader(&self) -> bool {
        self.paxos.leads()
    }

    /// Number of Multi-Paxos log slots chosen (replicated) at this replica's
    /// log view. With batched log appends each slot carries up to
    /// `max_batch` votes, so this counts commands, not transactions.
    pub fn chosen_slots(&self) -> usize {
        self.paxos.log().len()
    }

    /// Number of payload-bearing entries currently retained (undecided
    /// window). Bounded regardless of history length; decided transactions
    /// keep only their entry in the compact decision map.
    pub fn retained_payloads(&self) -> usize {
        self.prepared.len() + self.in_flight.len()
    }

    /// Number of decided transactions recorded (payload-free).
    pub fn decided_count(&self) -> usize {
        self.decisions.len()
    }

    fn route(&self, ctx: &mut Context<'_, BaselineMsg>, out: Outgoing<ShardCommand>) {
        let shard = self.shard;
        // Messages to ourselves go through the network like everyone else's,
        // keeping message accounting uniform.
        for (to, msg) in out {
            ctx.send(to, BaselineMsg::ShardPaxos { shard, msg });
        }
    }

    fn certify_and_propose(
        &mut self,
        tx: TxId,
        payload: Payload,
        ctx: &mut Context<'_, BaselineMsg>,
    ) {
        if !self.paxos.leads() {
            return;
        }
        // Duplicate or re-transmitted PREPARE (lossy links, TM retries): the
        // vote must be *re-reported*, not swallowed — the original VOTE
        // message to the TM may have been the thing that was lost.
        if let Some((_, vote)) = self.prepared.get(&tx) {
            ctx.send(
                self.tm,
                BaselineMsg::VoteBatch {
                    shard: self.shard,
                    votes: vec![(tx, *vote)],
                },
            );
            return;
        }
        if self.in_flight.contains_key(&tx) || self.decisions.contains_key(&tx) {
            // Still replicating (the vote is reported once chosen), or
            // already decided (the TM re-externalises decisions itself).
            return;
        }
        // A restarted leader must finish Paxos log recovery before certifying
        // anything new; the TM's retry tick re-delivers this PREPARE later.
        let Some(recovered_now) = self.paxos.recovered() else {
            self.arm_retransmit_timer(ctx);
            return;
        };
        if recovered_now {
            let id = self.paxos.id().as_u64();
            ctx.ctrl_milestone(CtrlMilestone::Recovered, Some(self.shard), id);
        }
        let vote = self.index.vote(&payload);
        if vote == Decision::Commit {
            self.index.prepare(pos(tx), &payload);
        }
        self.in_flight.insert(tx, (payload.clone(), vote));
        // Batched log appends: coalesce certified votes into one Multi-Paxos
        // command. At `max_batch = 1` every push flushes (one command per
        // transaction); a partially filled batch is flushed by the timer.
        if self.batcher.push(ShardVote { tx, payload, vote }) {
            let items = self.batcher.drain_full();
            self.flush_proposals(items, ctx);
        } else {
            self.arm_batch_timer(ctx);
        }
    }

    fn arm_batch_timer(&mut self, ctx: &mut Context<'_, BaselineMsg>) {
        if !self.batch_timer_armed && !self.batcher.is_empty() {
            ctx.set_timer(FLUSH_DELAY, BATCH_TICK);
            self.batch_timer_armed = true;
        }
    }

    /// Proposes a drained batch as a single command occupying one Paxos
    /// log slot.
    fn flush_proposals(&mut self, items: Vec<ShardVote>, ctx: &mut Context<'_, BaselineMsg>) {
        if items.is_empty() {
            return;
        }
        // Same flush telemetry as the other stacks' batchers (a flush of one
        // is a flush, so the milestone set does not depend on the knobs).
        ctx.obs_gauge("obs_batch_occupancy", items.len() as u64);
        if ctx.obs_enabled() {
            for item in &items {
                ctx.obs_milestone(item.tx, TxMilestone::BatchFlush, items.len() as u64);
            }
        }
        let command = ShardCommand {
            items: items.into(),
        };
        let out = self.paxos.propose(command, ctx.now().as_micros());
        self.route(ctx, out);
        self.arm_retransmit_timer(ctx);
    }

    fn arm_retransmit_timer(&mut self, ctx: &mut Context<'_, BaselineMsg>) {
        // Called whenever new work arrives, which also resets the
        // fruitless-tick budget.
        self.retransmit_ticks = 0;
        if !self.retransmit_armed && self.paxos.has_pending() {
            ctx.set_timer(RETRANSMIT, RETRANSMIT_TICK);
            self.retransmit_armed = true;
        }
    }

    /// Re-sends outstanding Paxos messages once their backoff is due.
    fn handle_retransmit_tick(&mut self, ctx: &mut Context<'_, BaselineMsg>) {
        self.retransmit_armed = false;
        self.retransmit_ticks += 1;
        if self.retransmit_ticks > RETRANSMIT_CAP {
            ctx.add_counter("retransmits_abandoned", 1);
            return;
        }
        if !self.paxos.has_pending() {
            return;
        }
        let out = self.paxos.retransmit_if_due(ctx.now().as_micros());
        self.route(ctx, out);
        // Keep ticking while work is outstanding: the backoff deadline, not
        // the tick, decides when the next retransmit actually goes out.
        ctx.set_timer(RETRANSMIT, RETRANSMIT_TICK);
        self.retransmit_armed = true;
    }

    /// Folds a chosen command (a batch of votes) into the replica state:
    /// acquires the prepared-set lock for each commit-voted undecided item —
    /// idempotently (the leader already holds it from `certify_and_propose`;
    /// learners acquire it here so a future leader handover starts from a
    /// warm index). `Chosen` can be re-delivered after a ballot change
    /// (phase-1 recovery re-broadcasts accepted slots); an already-decided
    /// transaction must not be re-locked (its payload is pruned and its locks
    /// released), so for those the item only (idempotently) refreshes the
    /// committed summary.
    fn apply_chosen(&mut self, command: &ShardCommand) {
        for item in command.items.iter() {
            if let Some(decision) = self.decisions.get(&item.tx).copied() {
                if decision == Decision::Commit {
                    self.index.apply_committed(pos(item.tx), &item.payload);
                }
                continue;
            }
            if item.vote == Decision::Commit {
                self.index.prepare(pos(item.tx), &item.payload);
            }
            self.prepared
                .entry(item.tx)
                .or_insert((item.payload.clone(), item.vote));
        }
    }

    fn handle_paxos(
        &mut self,
        from: ProcessId,
        msg: PaxosMsg<ShardCommand>,
        ctx: &mut Context<'_, BaselineMsg>,
    ) {
        let (out, chosen) = self.paxos.handle(from, msg, ctx.now().as_micros());
        self.route(ctx, out);
        for (_, command) in chosen {
            self.apply_chosen(&command);
            if !self.paxos.leads() {
                continue;
            }
            // The whole batch is now durable at a majority: report every
            // vote to the TM in one message.
            let votes = command
                .items
                .iter()
                .map(|item| {
                    self.in_flight.remove(&item.tx);
                    (item.tx, item.vote)
                })
                .collect();
            let shard = self.shard;
            ctx.send(self.tm, BaselineMsg::VoteBatch { shard, votes });
        }
    }
}

impl Actor<BaselineMsg> for BaselineShardReplica {
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: BaselineMsg,
        ctx: &mut Context<'_, BaselineMsg>,
    ) {
        match msg {
            BaselineMsg::Prepare { tx, payload } => self.certify_and_propose(tx, payload, ctx),
            BaselineMsg::ShardPaxos { shard, msg } if shard == self.shard => {
                self.handle_paxos(from, msg, ctx)
            }
            BaselineMsg::Decision { tx, decision } => {
                // The TM addresses decisions to the shard leader; relay them
                // to the followers so they prune the decided payload from
                // their prepared sets too — otherwise learner memory grows
                // with the whole history instead of the undecided window.
                // Relayed on every receipt (not just the first), so a TM
                // re-externalisation doubles as the retry for a relay lost
                // to a faulty link; followers never relay, so there is no
                // amplification loop.
                if self.paxos.leads() {
                    let id = self.paxos.id();
                    let followers = self.paxos.group().iter().filter(|p| **p != id);
                    ctx.send_to_many(followers.copied(), BaselineMsg::Decision { tx, decision });
                }
                // First decision wins; duplicates from a retrying TM are
                // otherwise no-ops (the payload is already pruned).
                if self.decisions.contains_key(&tx) {
                    return;
                }
                if let Some((payload, _vote)) = self.prepared.remove(&tx) {
                    // The transaction leaves the prepared set; a commit enters
                    // the committed summary. Its payload is dropped — the
                    // index keeps the per-key residue, the decision map keeps
                    // the outcome.
                    self.index.release(pos(tx));
                    if decision == Decision::Commit {
                        self.index.apply_committed(pos(tx), &payload);
                    }
                }
                // Recorded even if the vote is not chosen here yet: a later
                // `Chosen` for a decided transaction must not re-lock it.
                self.decisions.insert(tx, decision);
            }
            // Explicit no-ops. `Certify`/`VoteBatch`/`TmPaxos` are TM
            // traffic, `DecisionClient` is client traffic, and a
            // `ShardPaxos` for another shard (the guard above rejected it)
            // is misrouted and must not touch this group's log.
            BaselineMsg::Certify { .. }
            | BaselineMsg::VoteBatch { .. }
            | BaselineMsg::DecisionClient { .. }
            | BaselineMsg::TmPaxos { .. }
            | BaselineMsg::ShardPaxos { .. } => {}
        }
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<'_, BaselineMsg>) {
        if tag == BATCH_TICK {
            self.batch_timer_armed = false;
            let items = self.batcher.drain();
            self.flush_proposals(items, ctx);
        } else if tag == RETRANSMIT_TICK {
            self.handle_retransmit_tick(ctx);
        }
    }

    /// Crash-restart recovery: the Paxos acceptor state, the chosen-command
    /// log, the decision map and the index's committed summary `L1` are
    /// durable; the index's lock table, the prepared set and all proposer
    /// state are volatile. The lock table is emptied, and replaying the
    /// durable log against the decision map re-prepares every undecided
    /// commit vote: the rule `CertificationLog::restart` applies on the RATC
    /// stacks. A restarted leader re-establishes leadership under a fresh,
    /// higher ballot, which re-chooses any value a majority had accepted
    /// (phase-1 recovery).
    fn on_restart(&mut self, ctx: &mut Context<'_, BaselineMsg>) {
        self.in_flight.clear();
        self.prepared.clear();
        self.batcher = VoteBatcher::new(self.batcher.config());
        self.batch_timer_armed = false;
        self.retransmit_armed = false;
        // A leader starts log recovery at once: re-chosen commands
        // re-establish their certifier locks through `apply_chosen`, and
        // `certify_and_propose` defers fresh certifications until it ends.
        let out = self.paxos.restart(ctx.now().as_micros());
        self.route(ctx, out);
        self.arm_retransmit_timer(ctx);
        self.index.clear_prepared();
        let log = self.paxos.log();
        let commands: Vec<ShardCommand> = log.iter().map(|(_, c)| c.clone()).collect();
        for command in &commands {
            self.apply_chosen(command);
        }
        // Re-report every still-undecided chosen vote to the TM: the original
        // VOTE may have died with us.
        let votes: Vec<(ratc_types::TxId, Decision)> = self
            .prepared
            .iter()
            .map(|(tx, (_, vote))| (*tx, *vote))
            .collect();
        if self.paxos.leads() && !votes.is_empty() {
            ctx.send(
                self.tm,
                BaselineMsg::VoteBatch {
                    shard: self.shard,
                    votes,
                },
            );
        }
        ctx.add_counter("replica_restarts", 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{BaselineCluster, BaselineStack};
    use ratc_core::harness::{ClusterConfig, TcsCluster};
    use ratc_sim::{FaultScope, LinkFault, SimDuration};
    use ratc_types::{Key, ShardMap, Value, Version};

    /// A payload reading `keys` at version 0 and writing them at version 1.
    fn rw(keys: &[&Key]) -> Payload {
        let mut payload = Payload::builder();
        for key in keys {
            payload = payload
                .read((*key).clone(), Version::ZERO)
                .write((*key).clone(), Value::from("v"));
        }
        payload
            .commit_version(Version::new(1))
            .build()
            .expect("well-formed")
    }

    fn replica(cluster: &BaselineCluster, pid: ProcessId) -> &BaselineShardReplica {
        cluster.world.actor(pid).expect("shard replica")
    }

    /// Runs until `tx` is decided, for at most ten simulated seconds.
    fn decide(cluster: &mut BaselineCluster, tx: TxId) -> Option<Decision> {
        for _ in 0..1_000 {
            if cluster.history().decision(tx).is_some() {
                break;
            }
            cluster.run_for(SimDuration::from_millis(10));
        }
        cluster.history().decision(tx)
    }

    /// A restarted shard leader keeps its committed summary `L1`, rebuilds
    /// its locks from the chosen log alone, and re-reports its chosen votes
    /// before Paxos recovery completes:
    ///
    /// * a vote chosen before the crash, whose report to the transaction
    ///   manager was lost, decides while the followers are still down;
    /// * a vote certified but never accepted anywhere leaves no lock behind,
    ///   so the transaction commits when the manager retries it;
    /// * a stale read of a write committed before the crash aborts, and so
    ///   does a transaction conflicting with a commit vote chosen but still
    ///   undecided.
    #[test]
    fn a_restarted_leader_keeps_its_commits_and_relocks_only_chosen_votes() {
        let mut cluster = BaselineCluster::new(
            BaselineStack,
            ClusterConfig::default()
                .with_seed(13)
                .with_replicas_per_shard(3),
        );
        let (a, b) = (ShardId::new(0), ShardId::new(1));
        let keys: Vec<Key> = (0..)
            .map(|i| Key::new(format!("k{i}")))
            .filter(|key| cluster.sharding().shard_of(key) == a)
            .take(4)
            .collect();
        let [x, y, v, w] = [&keys[0], &keys[1], &keys[2], &keys[3]];
        let u = (0..)
            .map(|i| Key::new(format!("k{i}")))
            .find(|key| cluster.sharding().shard_of(key) == b)
            .expect("a key on shard 1");
        let group = cluster.shard_view(a).roster;
        let (leader, followers) = (group[0], &group[1..]);
        let tm = cluster.coordinator_pool()[0];
        let b_leader = cluster.shard_view(b).leader.expect("leader");
        let cut = LinkFault::cut(FaultScope::All);
        let [t1, t2, t3, t4, t5, t6] = [1, 2, 3, 4, 5, 6].map(TxId::new);

        // t1 commits a write of x.
        cluster.submit(t1, rw(&[x]));
        cluster.run_to_quiescence();
        assert_eq!(cluster.history().decision(t1), Some(Decision::Commit));
        // t4 writes v and u: shard 0's commit vote is chosen, but shard 1's
        // never reaches the manager, so t4 stays undecided throughout.
        cluster.set_link_fault(b_leader, tm, cut);
        cluster.submit(t4, rw(&[v, &u]));
        // t2 writes y: its vote is chosen, and its report is lost.
        cluster.set_link_fault(leader, tm, cut);
        cluster.submit(t2, rw(&[y]));
        cluster.run_for(SimDuration::from_millis(50));
        assert!(replica(&cluster, leader).prepared.contains_key(&t2));
        assert!(replica(&cluster, leader).prepared.contains_key(&t4));
        // t3 writes w: the leader certifies it, but its accepts reach no
        // acceptor, its own included.
        for pid in &group {
            cluster.set_link_fault(leader, *pid, cut);
        }
        cluster.submit(t3, rw(&[w]));
        cluster.run_for(SimDuration::from_millis(5));
        assert!(replica(&cluster, leader).in_flight.contains_key(&t3));
        assert_eq!(cluster.history().decide_count(), 1);

        // The whole group crashes; the leader restarts alone, so Paxos
        // recovery cannot complete yet.
        for pid in &group {
            cluster.crash(*pid);
            cluster.set_link_fault(leader, *pid, LinkFault::none());
        }
        cluster.set_link_fault(leader, tm, LinkFault::none());
        assert!(cluster.restart(leader));
        cluster.run_for(SimDuration::from_millis(100));
        assert_eq!(
            cluster.history().decision(t2),
            Some(Decision::Commit),
            "the restarted leader re-reports its chosen votes"
        );
        for pid in followers {
            assert!(cluster.restart(*pid));
        }
        assert_eq!(
            decide(&mut cluster, t3),
            Some(Decision::Commit),
            "a vote lost with the crash leaves no lock"
        );

        cluster.submit(t5, rw(&[x]));
        cluster.submit(t6, rw(&[v]));
        assert_eq!(
            decide(&mut cluster, t5),
            Some(Decision::Abort),
            "stale read"
        );
        assert_eq!(decide(&mut cluster, t6), Some(Decision::Abort), "locked");
        assert_eq!(cluster.history().decision(t4), None);
        assert!(cluster.client_violations().is_empty());
    }
}
