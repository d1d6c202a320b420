//! The baseline transaction manager (2PC coordinator) and its Paxos group.

use std::collections::BTreeMap;
use std::sync::Arc;

use ratc_core::flow::{AdmissionQueue, FlowControlConfig};
use ratc_paxos::{Outgoing, PaxosMsg};
use ratc_sim::{
    Actor, BackoffPolicy, BackoffState, Context, CtrlMilestone, SimDuration, TimerTag, TxMilestone,
};
use ratc_types::{Decision, Payload, Placement, ProcessId, ShardId, ShardMap, TxId};

use crate::group::PaxosMember;
use crate::messages::{BaselineMsg, TmCommand};

/// Timer tag re-driving in-flight transactions (re-sending `PREPARE` to
/// shards whose vote is missing and re-transmitting outstanding Paxos work).
const TM_RETRY_TICK: TimerTag = 21;

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
    /// The first command chosen for each decided transaction: its decision,
    /// and the client and shards a re-submitted `certify` is answered with.
    decided: BTreeMap<TxId, TmCommand>,
    retry_armed: bool,
    /// Consecutive retry ticks without new work; capped by [`TM_RETRY_CAP`].
    retry_ticks: u32,
    /// Flow-control knobs: the admission window.
    flow: FlowControlConfig,
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
            retry_armed: false,
            retry_ticks: 0,
            flow: FlowControlConfig::default(),
            admission: AdmissionQueue::new(),
        }
    }

    /// Installs the flow-control configuration (the admission window).
    pub fn set_flow(&mut self, flow: FlowControlConfig) {
        self.flow = flow;
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
        if let Some(first) = self.decided.get(&tx) {
            self.externalize(tx, first.decision, client, &first.shards, ctx);
            return;
        }
        // A restarted TM leader must finish Paxos log recovery first: a
        // decision accepted before the crash may exist for this transaction,
        // and starting fresh 2PC now could commit a second, different one.
        // The client's recovery retry re-delivers the request later.
        let Some(recovered_now) = self.paxos.recovered() else {
            self.arm_retry_timer(ctx);
            return;
        };
        if recovered_now {
            let id = self.paxos.id().as_u64();
            ctx.ctrl_milestone(CtrlMilestone::Recovered, None, id);
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
        if !self.flow.admits(self.pending.len()) {
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
        while self.flow.admits(self.pending.len()) {
            let Some((tx, (payload, client))) = self.admission.pop() else {
                break;
            };
            if let Some(first) = self.decided.get(&tx) {
                self.externalize(tx, first.decision, client, &first.shards, ctx);
                continue;
            }
            self.start_tx(tx, payload, client, ctx);
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

    /// Sends the durable decision of `tx` to `client` and the leaders of
    /// its `shards`.
    fn externalize(
        &self,
        tx: TxId,
        decision: Decision,
        client: ProcessId,
        shards: &[ShardId],
        ctx: &mut Context<'_, BaselineMsg>,
    ) {
        ctx.send(client, BaselineMsg::DecisionClient { tx, decision });
        for shard in shards {
            if let Some(leader) = self.shard_leaders.get(shard) {
                ctx.send(*leader, BaselineMsg::Decision { tx, decision });
            }
        }
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
        let decision = Decision::meet_all(pending.votes.values().copied());
        let command = TmCommand {
            tx,
            decision,
            client: pending.client,
            shards: pending.placement.shards().collect(),
        };
        let out = self.paxos.propose(command, ctx.now().as_micros());
        Self::route(ctx, out);
        self.arm_retry_timer(ctx);
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
            // First decision wins: retries around a TM restart can choose
            // a second command for the same transaction; only the first
            // recorded decision is ever externalised.
            let first = self.decided.entry(command.tx);
            let decision = first.or_insert_with(|| command.clone()).decision;
            if !self.paxos.leads() {
                continue;
            }
            if self.pending.remove(&command.tx).is_some() {
                // The Paxos accept quorum is what makes the decision
                // durable: quorum and decision coincide on this stack.
                ctx.obs_milestone(command.tx, TxMilestone::AcceptQuorum, 0);
                ctx.obs_milestone(command.tx, TxMilestone::Decided, 0);
                ctx.obs_gauge("obs_inflight_window", self.pending.len() as u64);
            }
            self.admission.remove(command.tx);
            // The decision is durable: externalise it.
            let TmCommand {
                tx, client, shards, ..
            } = command;
            self.externalize(tx, decision, client, &shards, ctx);
        }
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
        }
    }

    /// Crash-restart recovery: the Paxos acceptor, the chosen-command log and
    /// the decision map (rebuilt from the log) are durable; in-flight 2PC
    /// state is volatile and lost — clients re-drive undecided transactions
    /// by re-submitting, which either restarts 2PC (undecided) or
    /// re-externalises the durable outcome (decided).
    fn on_restart(&mut self, ctx: &mut Context<'_, BaselineMsg>) {
        self.pending.clear();
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
    use ratc_core::harness::{ClusterConfig, TcsCluster};
    use ratc_sim::{FaultScope, LinkFault};
    use ratc_types::{Key, Value, Version};

    fn rw(key: &str) -> Payload {
        Payload::builder()
            .read(Key::new(key), Version::ZERO)
            .write(Key::new(key), Value::from("v"))
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
        let mut config = ClusterConfig::default()
            .with_seed(13)
            .with_replicas_per_shard(3);
        config.sim = config.sim.with_observability();
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
        // it, still without a PREPARE.
        for follower in followers {
            cluster.set_link_fault(*follower, leader, LinkFault::none());
        }
        cluster.run_to_quiescence();
        assert_eq!(cluster.history().decision(t2), Some(Decision::Commit));
        assert_eq!(prepares_sent(&cluster), prepares);
        // The next fresh transaction passes the gate, which stamps
        // `Recovered`, and starts 2PC.
        cluster.submit(t3, rw("z"));
        cluster.run_to_quiescence();
        assert_eq!(cluster.history().decision(t3), Some(Decision::Commit));
        assert!(prepares_sent(&cluster) > prepares);
        let recovered = cluster
            .metrics()
            .ctrl_events()
            .iter()
            .filter(|event| event.milestone == CtrlMilestone::Recovered && event.by == leader);
        assert_eq!(recovered.count(), 1);
        assert!(cluster.client_violations().is_empty());
    }
}
