//! The baseline transaction manager (2PC coordinator) and its Paxos group.

use std::collections::BTreeMap;
use std::sync::Arc;

use ratc_core::batch::{BatchingConfig, Items, VoteBatcher, FLUSH_DELAY};
use ratc_core::flow::{self, AdmissionQueue};
use ratc_sim::{Actor, BackoffPolicy, BackoffState, Context, SimDuration, TimerTag, TxMilestone};
use ratc_types::{Decision, Payload, Placement, ProcessId, ShardId, ShardMap, TxId};

use crate::group::PaxosMember;
use crate::messages::{BaselineMsg, TmCommand, TmDecision};
use crate::paxos::{Outgoing, PaxosMsg};

/// Timer tag re-driving in-flight transactions (re-sending `PREPARE` to
/// shards whose vote is missing and re-transmitting outstanding Paxos work).
const TM_RETRY_TICK: TimerTag = 21;

/// Timer tag flushing a partially filled batch of decisions.
const TM_FLUSH_TICK: TimerTag = 22;

/// Retry interval of the transaction manager.
const TM_RETRY: SimDuration = SimDuration::from_millis(20);

/// Consecutive fruitless retry ticks after which the TM stops re-arming (20
/// simulated seconds), so `World::run` terminates even when a shard is
/// permanently unrecoverable; any new `certify` re-arms the timer.
const TM_RETRY_CAP: u32 = 1000;

/// State of one in-flight transaction at the transaction manager.
#[derive(Debug, Clone)]
struct PendingTx {
    client: ProcessId,
    /// `shards(t)` with the payload's restriction to each, placed once.
    placement: Placement,
    votes: BTreeMap<ShardId, Decision>,
    proposed: bool,
    /// When this transaction's next certify-retry is due.
    backoff: BackoffState,
}

/// The transaction manager of the baseline TCS (and, with `is_leader = false`,
/// a passive member of its replication group).
///
/// The leader drives 2PC: it sends `PREPARE` to the leader of every involved
/// shard, collects votes (each vote is already durable in its shard's Paxos
/// log), computes the decision with `⊓`, commits the decision to its own Paxos
/// log, and only then externalises it to the client and the shards. This is
/// the 7-message-delay critical path the paper attributes to the vanilla
/// approach.
///
/// Decisions are batched as the shards' votes are (`ratc_core::batch`): the
/// leader coalesces computed decisions into one Paxos command per batch and,
/// once it is chosen, sends each involved shard leader one `Decision`
/// carrying the batch's decisions for that shard. At `max_batch = 1` every
/// decision is proposed as it is computed, in a command of its own.
pub struct TransactionManager {
    /// The leader of the transaction-manager group; non-leader members
    /// forward `CERTIFY` requests here, so a client (or the unified harness)
    /// may submit through any group member.
    leader: ProcessId,
    shard_leaders: BTreeMap<ShardId, ProcessId>,
    sharding: Arc<dyn ShardMap + Send + Sync>,
    /// This member's place in the TM group's Paxos log. Until a restarted
    /// leader has re-chosen every decision accepted before the crash,
    /// starting 2PC for a re-submitted transaction could commit a *second*,
    /// possibly different decision for it.
    paxos: PaxosMember<TmCommand>,
    pending: BTreeMap<TxId, PendingTx>,
    /// The first decision chosen for each decided transaction, with the
    /// shards a re-submitted `certify` is answered with.
    decided: BTreeMap<TxId, TmDecision>,
    /// Computed decisions waiting to be proposed as one command. Volatile:
    /// a restart drops it with `pending`, and clients re-drive.
    batcher: VoteBatcher<TmDecision>,
    flush_armed: bool,
    retry_armed: bool,
    /// Consecutive retry ticks without new work; capped by [`TM_RETRY_CAP`].
    retry_ticks: u32,
    /// Submissions waiting for an admission-window slot (FIFO, deduplicated).
    admission: AdmissionQueue<(Payload, ProcessId)>,
}

impl TransactionManager {
    /// Creates a transaction-manager group member.
    pub fn new(sharding: Arc<dyn ShardMap + Send + Sync>) -> Self {
        TransactionManager {
            leader: ProcessId::new(u64::MAX),
            shard_leaders: BTreeMap::new(),
            sharding,
            paxos: PaxosMember::new(ProcessId::new(u64::MAX), Vec::new(), false),
            pending: BTreeMap::new(),
            decided: BTreeMap::new(),
            batcher: VoteBatcher::new(BatchingConfig::default()),
            flush_armed: false,
            retry_armed: false,
            retry_ticks: 0,
            admission: AdmissionQueue::new(),
        }
    }

    /// Sets the batching-pipeline knobs (default: disabled).
    pub fn set_batching(&mut self, batching: BatchingConfig) {
        self.batcher.set_config(batching);
    }

    /// Number of Multi-Paxos log slots chosen at this member's log view.
    /// With batched decisions each slot carries up to `max_batch` of them,
    /// so this counts commands, not transactions.
    pub fn chosen_slots(&self) -> usize {
        self.paxos.log().len()
    }

    /// Per-transaction jitter salt: decorrelates this TM's retry schedule for
    /// `tx` from every other transaction's without consuming shared RNG state.
    fn salt(&self, tx: TxId) -> u64 {
        tx.as_u64() ^ self.paxos.id().as_u64().rotate_left(17)
    }

    /// Installs identity, group membership, the group leader and the
    /// shard-leader directory.
    pub fn install(
        &mut self,
        id: ProcessId,
        group: Vec<ProcessId>,
        leader: ProcessId,
        shard_leaders: BTreeMap<ShardId, ProcessId>,
    ) {
        self.paxos = PaxosMember::new(id, group, id == leader);
        self.leader = leader;
        self.shard_leaders = shard_leaders;
    }

    /// Whether this member leads the transaction-manager group.
    pub fn is_leader(&self) -> bool {
        self.paxos.leads()
    }

    fn route(ctx: &mut Context<'_, BaselineMsg>, out: Outgoing<TmCommand>) {
        for (to, msg) in out {
            ctx.send(to, BaselineMsg::TmPaxos { msg });
        }
    }

    fn handle_certify(
        &mut self,
        tx: TxId,
        payload: Payload,
        client: ProcessId,
        ctx: &mut Context<'_, BaselineMsg>,
    ) {
        if !self.paxos.leads() {
            // Any group member accepts `CERTIFY` and forwards it to the
            // leader, mirroring the RATC stacks where every replica can be
            // handed a submission.
            if self.leader != ProcessId::new(u64::MAX) {
                ctx.send(
                    self.leader,
                    BaselineMsg::Certify {
                        tx,
                        payload,
                        client,
                    },
                );
            }
            return;
        }
        // A re-submitted `certify` of a decided transaction (the client's
        // DECISION was lost, or the TM restarted and the client retried):
        // re-externalise the durable decision instead of swallowing it.
        if self.reexternalize(tx, client, ctx) {
            return;
        }
        // A restarted TM leader must finish Paxos log recovery first: a
        // decision accepted before the crash may exist for this transaction,
        // and starting fresh 2PC now could commit a second, different one.
        // The client's recovery retry re-delivers the request later.
        if !self.paxos.recovery_gate(None, ctx) {
            self.arm_retry_timer(ctx);
            return;
        }
        if let Some(pending) = self.pending.get_mut(&tx) {
            // A retry supersedes the in-flight attempt: refresh the reply
            // address and let the scheduled backoff decide when to re-drive,
            // instead of stacking another PREPARE volley on top of it.
            pending.client = client;
            let now = ctx.now().as_micros();
            if !pending.proposed && pending.backoff.due(now) {
                self.retry(tx, now, ctx);
            }
            return;
        }
        if !flow::admits(self.pending.len()) {
            // Admission window full: park the submission at the edge. A
            // queued transaction costs memory, not certification work; it is
            // admitted the moment an in-flight transaction decides.
            self.admission.enqueue(tx, (payload, client));
            ctx.add_counter("tm_admission_queued", 1);
            ctx.obs_gauge("obs_admission_depth", self.admission.len() as u64);
            // New work arrived: reset the fruitless-tick budget and keep the
            // retry timer alive so the queued work is eventually driven.
            self.arm_retry_timer(ctx);
            return;
        }
        self.start_tx(tx, payload, client, ctx);
    }

    /// Starts 2PC for an admitted transaction: records it in flight and sends
    /// `PREPARE` to the leader of every involved shard.
    fn start_tx(
        &mut self,
        tx: TxId,
        payload: Payload,
        client: ProcessId,
        ctx: &mut Context<'_, BaselineMsg>,
    ) {
        let placement = payload.place(self.sharding.as_ref());
        if placement.is_empty() {
            ctx.send(
                client,
                BaselineMsg::DecisionClient {
                    tx,
                    decision: Decision::Commit,
                },
            );
            return;
        }
        let backoff = BackoffState::armed(
            &BackoffPolicy::exponential(),
            self.salt(tx),
            ctx.now().as_micros(),
        );
        self.pending.insert(
            tx,
            PendingTx {
                client,
                placement,
                votes: BTreeMap::new(),
                proposed: false,
                backoff,
            },
        );
        // Admission and the PREPARE volley coincide on this stack: the TM
        // starts 2PC the moment a submission enters the window.
        ctx.obs_milestone(tx, TxMilestone::Admitted, 0);
        ctx.obs_gauge("obs_inflight_window", self.pending.len() as u64);
        ctx.obs_milestone(tx, TxMilestone::CertifySent, 0);
        self.redrive(tx, ctx);
        self.arm_retry_timer(ctx);
    }

    /// Admits queued submissions into freed window slots (oldest first).
    fn drain_admission(&mut self, ctx: &mut Context<'_, BaselineMsg>) {
        while flow::admits(self.pending.len()) {
            let Some((tx, (payload, client))) = self.admission.pop() else {
                break;
            };
            if !self.reexternalize(tx, client, ctx) {
                self.start_tx(tx, payload, client, ctx);
            }
        }
    }

    /// Sends `PREPARE`, with its restriction of the payload, to every shard
    /// of `tx` whose vote is missing (every shard when `tx` starts), until
    /// the decision is proposed.
    fn redrive(&mut self, tx: TxId, ctx: &mut Context<'_, BaselineMsg>) {
        let Some(pending) = self.pending.get(&tx) else {
            return;
        };
        if pending.proposed {
            return;
        }
        for (shard, part) in pending.placement.parts() {
            if pending.votes.contains_key(&shard) {
                continue;
            }
            let Some(leader) = self.shard_leaders.get(&shard) else {
                continue;
            };
            let payload = part
                .cloned()
                .expect("the TM places every payload it certifies");
            ctx.send(*leader, BaselineMsg::Prepare { tx, payload });
        }
    }

    /// Re-drives the missing votes of `tx`, whose backoff is due at `now`,
    /// and schedules its next retry.
    fn retry(&mut self, tx: TxId, now: u64, ctx: &mut Context<'_, BaselineMsg>) {
        let attempt = self.pending.get(&tx).map_or(0, |p| p.backoff.attempt);
        ctx.obs_milestone(tx, TxMilestone::Retry, u64::from(attempt));
        ctx.obs_gauge("obs_backoff_attempt", u64::from(attempt));
        self.redrive(tx, ctx);
        let salt = self.salt(tx);
        if let Some(pending) = self.pending.get_mut(&tx) {
            pending
                .backoff
                .fired(&BackoffPolicy::exponential(), salt, now);
        }
    }

    fn arm_retry_timer(&mut self, ctx: &mut Context<'_, BaselineMsg>) {
        // Called whenever new work arrives, which also resets the
        // fruitless-tick budget.
        self.retry_ticks = 0;
        self.rearm_retry_timer(ctx);
    }

    /// Keeps the retry tick alive while anything is in flight or queued.
    fn rearm_retry_timer(&mut self, ctx: &mut Context<'_, BaselineMsg>) {
        let busy =
            !self.pending.is_empty() || self.paxos.has_pending() || !self.admission.is_empty();
        if !self.retry_armed && busy {
            ctx.set_timer(TM_RETRY, TM_RETRY_TICK);
            self.retry_armed = true;
        }
    }

    /// Retry tick: re-drive PREPAREs for votes still missing and re-transmit
    /// outstanding Paxos messages. Everything re-sent is idempotent at the
    /// receivers (shard leaders re-report chosen votes, acceptors tolerate
    /// ballot repeats).
    fn handle_retry_tick(&mut self, ctx: &mut Context<'_, BaselineMsg>) {
        self.retry_armed = false;
        self.retry_ticks += 1;
        if self.retry_ticks > TM_RETRY_CAP {
            // Nothing has budged for a long time: the missing participants
            // look permanently gone. Stop keeping the event queue alive; a
            // later certify (e.g. a client retry after repair) re-arms.
            ctx.add_counter("tm_retries_abandoned", 1);
            return;
        }
        // Backoff: only transactions whose deadline has passed re-drive
        // this tick; the rest keep waiting, so a backlog does not turn every
        // tick into a volley of the whole pending set.
        let now = ctx.now().as_micros();
        let txs: Vec<TxId> = self
            .pending
            .iter()
            .filter(|(_, p)| !p.proposed && p.backoff.due(now))
            .map(|(tx, _)| *tx)
            .collect();
        for tx in txs {
            self.retry(tx, now, ctx);
        }
        let out = self.paxos.retransmit_if_due(now);
        Self::route(ctx, out);
        // Safety net: admit queued submissions if the window has room (the
        // normal admission point is the decision path in `handle_paxos`).
        self.drain_admission(ctx);
        // Not via `arm_retry_timer`, which would reset the fruitless-tick
        // budget this tick just spent.
        self.rearm_retry_timer(ctx);
    }

    /// Re-externalises the durable decision on `tx`, if there is one, to
    /// `client` and the shards, as a batch of one. Returns whether `tx` was
    /// decided.
    fn reexternalize(
        &self,
        tx: TxId,
        client: ProcessId,
        ctx: &mut Context<'_, BaselineMsg>,
    ) -> bool {
        let Some(first) = self.decided.get(&tx) else {
            return false;
        };
        let again = TmDecision {
            client,
            ..first.clone()
        };
        self.externalize(std::slice::from_ref(&again), ctx);
        true
    }

    /// Sends each decision of `batch` to its client, and to the leader of
    /// every shard one message with the batch's decisions on that shard.
    /// What is sent for a transaction is the first decision chosen for it.
    fn externalize(&self, batch: &[TmDecision], ctx: &mut Context<'_, BaselineMsg>) {
        let first = |item: &TmDecision| {
            let first = self.decided.get(&item.tx).unwrap_or(item);
            (item.tx, first.decision)
        };
        for item in batch {
            let (tx, decision) = first(item);
            ctx.send(item.client, BaselineMsg::DecisionClient { tx, decision });
        }
        for (shard, leader) in &self.shard_leaders {
            let decisions: Items<(TxId, Decision)> = batch
                .iter()
                .filter(|item| item.shards.contains(shard))
                .map(first)
                .collect();
            if !decisions.is_empty() {
                ctx.send(*leader, BaselineMsg::Decision { decisions });
            }
        }
    }

    /// Proposes the pending decisions as one command occupying one Paxos
    /// log slot.
    fn flush(&mut self, ctx: &mut Context<'_, BaselineMsg>) {
        if self.batcher.is_empty() {
            return;
        }
        let command = TmCommand {
            decisions: self.batcher.drain_shared(),
        };
        let out = self.paxos.propose(command, ctx.now().as_micros());
        Self::route(ctx, out);
        self.arm_retry_timer(ctx);
    }

    fn handle_vote(
        &mut self,
        shard: ShardId,
        tx: TxId,
        vote: Decision,
        ctx: &mut Context<'_, BaselineMsg>,
    ) {
        if !self.paxos.leads() {
            return;
        }
        let Some(pending) = self.pending.get_mut(&tx) else {
            return;
        };
        pending.votes.insert(shard, vote);
        ctx.obs_milestone(tx, TxMilestone::ShardVoted, u64::from(shard.as_u32()));
        if pending.proposed || pending.votes.len() < pending.placement.len() {
            return;
        }
        pending.proposed = true;
        let decision = TmDecision {
            tx,
            decision: Decision::meet_all(pending.votes.values().copied()),
            client: pending.client,
            shards: pending.placement.shards().collect(),
        };
        // At `max_batch = 1` every push flushes: one command per decision.
        if self.batcher.push(decision) {
            self.flush(ctx);
        } else if !self.flush_armed {
            ctx.set_timer(FLUSH_DELAY, TM_FLUSH_TICK);
            self.flush_armed = true;
        }
    }

    fn handle_paxos(
        &mut self,
        from: ProcessId,
        msg: PaxosMsg<TmCommand>,
        ctx: &mut Context<'_, BaselineMsg>,
    ) {
        let (out, chosen) = self.paxos.handle(from, msg, ctx.now().as_micros());
        Self::route(ctx, out);
        for (_, command) in chosen {
            for item in command.decisions.iter() {
                // First decision wins: retries around a TM restart can
                // choose a second decision for the same transaction; only
                // the first recorded one is ever externalised.
                self.decided.entry(item.tx).or_insert_with(|| item.clone());
            }
            if !self.paxos.leads() {
                continue;
            }
            for item in command.decisions.iter() {
                if self.pending.remove(&item.tx).is_some() {
                    // The Paxos accept quorum is what makes the decision
                    // durable: quorum and decision coincide on this stack.
                    ctx.obs_milestone(item.tx, TxMilestone::AcceptQuorum, 0);
                    ctx.obs_milestone(item.tx, TxMilestone::Decided, 0);
                    ctx.obs_gauge("obs_inflight_window", self.pending.len() as u64);
                }
                self.admission.remove(item.tx);
            }
            // The decisions are durable: externalise them.
            self.externalize(&command.decisions, ctx);
        }
        // Recovery ends at the step whose quorum re-chose the last decision
        // accepted before the crash: that is when `Recovered` is stamped.
        self.paxos.recovery_gate(None, ctx);
        // Decisions freed admission-window slots: admit waiting submissions.
        self.drain_admission(ctx);
    }
}

impl Actor<BaselineMsg> for TransactionManager {
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: BaselineMsg,
        ctx: &mut Context<'_, BaselineMsg>,
    ) {
        match msg {
            BaselineMsg::Certify {
                tx,
                payload,
                client,
            } => self.handle_certify(tx, payload, client, ctx),
            BaselineMsg::VoteBatch { shard, votes } => {
                for (tx, vote) in votes {
                    self.handle_vote(shard, tx, vote, ctx);
                }
            }
            BaselineMsg::TmPaxos { msg } => self.handle_paxos(from, msg, ctx),
            // Explicit no-ops: shard-group and client traffic never acts on
            // the transaction manager.
            BaselineMsg::Prepare { .. }
            | BaselineMsg::Decision { .. }
            | BaselineMsg::DecisionClient { .. }
            | BaselineMsg::ShardPaxos { .. } => {}
        }
    }

    fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<'_, BaselineMsg>) {
        if tag == TM_RETRY_TICK {
            self.handle_retry_tick(ctx);
        } else if tag == TM_FLUSH_TICK {
            self.flush_armed = false;
            self.flush(ctx);
        }
    }

    /// Crash-restart recovery: the Paxos acceptor, the chosen-command log and
    /// the decision map (rebuilt from the log) are durable; in-flight 2PC
    /// state, decisions not yet proposed included, is volatile and lost —
    /// clients re-drive undecided transactions by re-submitting, which either
    /// restarts 2PC (undecided) or re-externalises the durable outcome
    /// (decided).
    fn on_restart(&mut self, ctx: &mut Context<'_, BaselineMsg>) {
        self.pending.clear();
        self.batcher = VoteBatcher::new(self.batcher.config());
        self.flush_armed = false;
        self.admission.clear();
        self.retry_armed = false;
        // A leader starts log recovery at once; `handle_certify` defers
        // fresh 2PC until it completes.
        let out = self.paxos.restart(ctx.now().as_micros());
        Self::route(ctx, out);
        self.arm_retry_timer(ctx);
        ctx.add_counter("tm_restarts", 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{BaselineCluster, BaselineStack};
    use crate::replica::BaselineShardReplica;
    use ratc_core::harness::{ClusterConfig, TcsCluster};
    use ratc_sim::{CtrlMilestone, FaultScope, LinkFault};
    use ratc_types::{Key, Value, Version};

    fn rw(key: &str) -> Payload {
        rw_all(&[key])
    }

    /// A payload reading `keys` at version 0 and writing them at version 1.
    fn rw_all(keys: &[&str]) -> Payload {
        let mut payload = Payload::builder();
        for key in keys {
            payload = payload
                .read(Key::new(*key), Version::ZERO)
                .write(Key::new(*key), Value::from("v"));
        }
        payload
            .commit_version(Version::new(1))
            .build()
            .expect("well-formed")
    }

    fn prepares_sent(cluster: &BaselineCluster) -> u64 {
        cluster.metrics().msg_type("Prepare").sent
    }

    /// A restarted TM leader starts no 2PC until Paxos recovery ends: a
    /// decision a majority accepted before the crash, though the leader never
    /// saw it chosen, is re-chosen and externalised instead, and no shard is
    /// asked to vote on the transaction again.
    #[test]
    fn a_restarted_tm_leader_recovers_an_accepted_decision_before_fresh_2pc() {
        let config = ClusterConfig::default().with_seed(13).with_observability();
        let mut cluster = BaselineCluster::new(BaselineStack, config);
        let tm = cluster.coordinator_pool();
        let (leader, followers) = (tm[0], &tm[1..]);
        let [t1, t2, t3] = [1, 2, 3].map(TxId::new);

        // t1 commits, so the leader's phase 1 is behind it.
        cluster.submit(t1, rw("x"));
        cluster.run_to_quiescence();
        assert_eq!(cluster.history().decision(t1), Some(Decision::Commit));
        // t2's decision reaches every acceptor, but the followers' replies
        // are cut: the leader never learns it chosen.
        for follower in followers {
            cluster.set_link_fault(*follower, leader, LinkFault::cut(FaultScope::All));
        }
        cluster.submit(t2, rw("y"));
        cluster.run_for(SimDuration::from_millis(50));
        assert_eq!(cluster.history().decision(t2), None);

        // The leader restarts; with the replies still cut, its recovery
        // cannot finish, and a re-submitted t2 waits instead of starting 2PC.
        cluster.crash(leader);
        assert!(cluster.restart(leader));
        let prepares = prepares_sent(&cluster);
        cluster.resubmit(t2, rw("y"));
        cluster.run_for(SimDuration::from_millis(200));
        assert_eq!(
            prepares_sent(&cluster),
            prepares,
            "no PREPARE while recovering"
        );
        assert_eq!(cluster.history().decision(t2), None);

        // Healed, recovery re-chooses the accepted decision and externalises
        // it, still without a PREPARE. The step that ends recovery stamps
        // `Recovered`: no later than t2's decision reaches the client.
        for follower in followers {
            cluster.set_link_fault(*follower, leader, LinkFault::none());
        }
        while cluster.history().decision(t2).is_none() {
            cluster.run_for(SimDuration::from_micros(1));
        }
        let decided_at = cluster.now().as_micros();
        let recovered_at = |cluster: &BaselineCluster| -> Vec<u64> {
            let events = cluster.metrics().ctrl_events().iter();
            events
                .filter(|event| event.milestone == CtrlMilestone::Recovered && event.by == leader)
                .map(|event| event.at_micros)
                .collect()
        };
        let stamped = recovered_at(&cluster);
        assert!(
            stamped.len() == 1 && stamped[0] <= decided_at,
            "Recovered {stamped:?}, t2 decided at {decided_at}"
        );
        cluster.run_to_quiescence();
        assert_eq!(cluster.history().decision(t2), Some(Decision::Commit));
        assert_eq!(prepares_sent(&cluster), prepares);
        // The next fresh transaction passes the gate and starts 2PC; the
        // stamp is not repeated.
        cluster.submit(t3, rw("z"));
        cluster.run_to_quiescence();
        assert_eq!(cluster.history().decision(t3), Some(Decision::Commit));
        assert!(prepares_sent(&cluster) > prepares);
        assert_eq!(recovered_at(&cluster), stamped);
        assert!(cluster.client_violations().is_empty());
    }

    /// A TM leader that crashes while its batcher holds decisions it has not
    /// proposed, and while a chosen batch's `Decision` is still on its way to
    /// a shard leader, loses neither kind: once the clients re-submit, every
    /// transaction decides, each exactly once in the TM's log, and every
    /// decision is the meet of the votes its shards chose.
    #[test]
    fn a_tm_leader_crash_with_batched_decisions_in_flight_decides_each_once() {
        let config = ClusterConfig::default()
            .with_seed(19)
            .with_batching(BatchingConfig::with_batch(4));
        let mut cluster = BaselineCluster::new(BaselineStack, config);
        let leader = cluster.coordinator_pool()[0];
        // Single-key and two-key transactions over a few hot keys, so some
        // shards vote abort and a decision is a meet of several votes.
        let keys = ["a", "b", "c", "d", "e", "f"];
        let txs: Vec<(TxId, Payload)> = (0..24u64)
            .map(|i| {
                let first = keys[i as usize % keys.len()];
                let payload = if i % 3 == 0 {
                    rw_all(&[first, keys[(i as usize * 7 + 1) % keys.len()]])
                } else {
                    rw(first)
                };
                (TxId::new(i + 1), payload)
            })
            .collect();
        fn tm_of(cluster: &BaselineCluster, pid: ProcessId) -> &TransactionManager {
            cluster.world.actor(pid).expect("tm member")
        }
        fn leader_of(cluster: &BaselineCluster, shard: ShardId) -> &BaselineShardReplica {
            let pid = cluster.shard_view(shard).leader.expect("leader");
            cluster.world.actor(pid).expect("replica")
        }
        // A decision chosen at the TM, but not yet recorded by one of its
        // shards' leaders: its `Decision` batch is on the wire.
        let on_the_wire = |cluster: &BaselineCluster| {
            tm_of(cluster, leader).decided.values().any(|first| {
                let mut shards = first.shards.iter();
                shards.any(|shard| leader_of(cluster, *shard).decision(first.tx).is_none())
            })
        };
        // Decisions to shard 0's leader take 3 ms longer, and submissions
        // trickle in faster than a batch fills, so a flush waits for its
        // timer while an earlier batch is still on the wire.
        let slow = cluster.shard_view(ShardId::new(0)).leader.expect("leader");
        cluster.set_link_fault(leader, slow, LinkFault::delay_all(3_000, FaultScope::All));
        let mut held = 0;
        'trickle: for (tx, payload) in &txs {
            cluster.submit(*tx, payload.clone());
            for _ in 0..250 {
                cluster.run_for(SimDuration::from_micros(1));
                let tm = tm_of(&cluster, leader);
                if !tm.batcher.is_empty() && on_the_wire(&cluster) {
                    held = tm.batcher.len();
                    break 'trickle;
                }
            }
        }
        assert!(
            held > 0,
            "no instant with both a held batch and one in flight"
        );
        cluster.crash(leader);
        assert!(cluster.restart(leader));

        // The clients re-submit whatever is undecided until it decides.
        // Those the trickle had not reached yet are submitted now, while the
        // restarted leader recovers.
        let history = cluster.history();
        for (tx, payload) in &txs {
            if !history.certified().any(|(certified, _)| certified == *tx) {
                cluster.submit(*tx, payload.clone());
            }
        }
        for _ in 0..100 {
            let history = cluster.history();
            let undecided: Vec<_> = txs
                .iter()
                .filter(|(tx, _)| history.decision(*tx).is_none())
                .collect();
            if undecided.is_empty() {
                break;
            }
            for (tx, payload) in undecided {
                cluster.resubmit(*tx, payload.clone());
            }
            cluster.run_for(SimDuration::from_millis(20));
        }
        cluster.run_to_quiescence();
        assert!(cluster.client_violations().is_empty());
        let history = cluster.history();
        assert!(history.is_complete(), "every transaction decides");

        let in_log = |tx: TxId| {
            let commands = tm_of(&cluster, leader).paxos.log().iter().map(|(_, c)| c);
            let decisions = commands.flat_map(|c| c.decisions.iter());
            decisions.filter(|item| item.tx == tx).count()
        };
        for (tx, payload) in &txs {
            assert_eq!(in_log(*tx), 1, "{tx} decided once");
            let placement = payload.place(cluster.sharding());
            let votes: Vec<Decision> = placement
                .shards()
                .flat_map(|shard| leader_of(&cluster, shard).chosen_votes())
                .filter(|(voted, _)| voted == tx)
                .map(|(_, vote)| vote)
                .collect();
            assert_eq!(votes.len(), placement.len(), "{tx}: one vote per shard");
            assert_eq!(
                history.decision(*tx),
                Some(Decision::meet_all(votes.iter().copied())),
                "{tx}: the meet of its chosen votes {votes:?}"
            );
        }
        let committed = history.committed().count();
        assert!(
            0 < committed && committed < txs.len(),
            "{committed} commits"
        );
    }
}
