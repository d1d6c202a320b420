//! The baseline transaction manager (2PC coordinator) and its Paxos group.

use std::collections::BTreeMap;
use std::sync::Arc;

use ratc_core::flow::{AdmissionQueue, FlowControlConfig};
use ratc_paxos::{Acceptor, PaxosMsg, Proposer, ReplicatedLog};
use ratc_sim::{Actor, BackoffState, Context, CtrlMilestone, SimDuration, TimerTag, TxMilestone};
use ratc_types::{Decision, Payload, ProcessId, ShardId, ShardMap, TxId};

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
    payload: Payload,
    shards: Vec<ShardId>,
    votes: BTreeMap<ShardId, Decision>,
    proposed: bool,
    /// When this transaction's next certify-retry is due (flow control only).
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
    id: ProcessId,
    is_leader: bool,
    /// The leader of the transaction-manager group; non-leader members
    /// forward `CERTIFY` requests here, so a client (or the unified harness)
    /// may submit through any group member.
    leader: ProcessId,
    group: Vec<ProcessId>,
    shard_leaders: BTreeMap<ShardId, ProcessId>,
    sharding: Arc<dyn ShardMap + Send + Sync>,
    acceptor: Acceptor<TmCommand>,
    proposer: Option<Proposer<TmCommand>>,
    log: ReplicatedLog<TmCommand>,
    pending: BTreeMap<TxId, PendingTx>,
    decided: BTreeMap<TxId, Decision>,
    /// Clients of decided transactions, kept so a re-submitted `certify` of a
    /// decided transaction can be answered directly.
    decided_clients: BTreeMap<TxId, (ProcessId, Vec<ShardId>)>,
    phase1_started: bool,
    ballot_round: u64,
    retry_armed: bool,
    /// Consecutive retry ticks without new work; capped by [`TM_RETRY_CAP`].
    retry_ticks: u32,
    /// `true` between a TM-leader restart and the completion of Paxos log
    /// recovery: until every decision accepted before the crash has been
    /// re-chosen, starting 2PC for a re-submitted transaction could commit a
    /// *second*, possibly different decision for it.
    recovering: bool,
    /// Flow-control knobs: admission window and retry backoff.
    flow: FlowControlConfig,
    /// Submissions waiting for an admission-window slot (FIFO, deduplicated).
    admission: AdmissionQueue<(Payload, ProcessId)>,
    /// Backoff gating Paxos retransmissions (per proposer, reset on progress).
    paxos_backoff: BackoffState,
}

impl TransactionManager {
    /// Creates a transaction-manager group member.
    pub fn new(sharding: Arc<dyn ShardMap + Send + Sync>) -> Self {
        TransactionManager {
            id: ProcessId::new(u64::MAX),
            is_leader: false,
            leader: ProcessId::new(u64::MAX),
            group: Vec::new(),
            shard_leaders: BTreeMap::new(),
            sharding,
            acceptor: Acceptor::new(ProcessId::new(u64::MAX)),
            proposer: None,
            log: ReplicatedLog::new(),
            pending: BTreeMap::new(),
            decided: BTreeMap::new(),
            decided_clients: BTreeMap::new(),
            phase1_started: false,
            ballot_round: 0,
            retry_armed: false,
            retry_ticks: 0,
            recovering: false,
            flow: FlowControlConfig::default(),
            admission: AdmissionQueue::new(),
            paxos_backoff: BackoffState::default(),
        }
    }

    /// Installs the flow-control configuration (admission window, backoff).
    pub fn set_flow(&mut self, flow: FlowControlConfig) {
        self.flow = flow;
    }

    /// Per-transaction jitter salt: decorrelates this TM's retry schedule for
    /// `tx` from every other transaction's without consuming shared RNG state.
    fn salt(&self, tx: TxId) -> u64 {
        tx.as_u64() ^ self.id.as_u64().rotate_left(17)
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
        self.id = id;
        self.acceptor = Acceptor::new(id);
        self.group = group.clone();
        self.leader = leader;
        self.is_leader = id == leader;
        self.shard_leaders = shard_leaders;
        if self.is_leader {
            self.proposer = Some(Proposer::new(id, group, 0));
        }
    }

    /// Whether this member leads the transaction-manager group.
    pub fn is_leader(&self) -> bool {
        self.is_leader
    }

    /// Number of decisions replicated in this member's view of the log.
    pub fn decided_count(&self) -> usize {
        self.decided.len()
    }

    fn route(
        &self,
        ctx: &mut Context<'_, BaselineMsg>,
        out: Vec<(ProcessId, PaxosMsg<TmCommand>)>,
    ) {
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
        if !self.is_leader {
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
        if let Some(decision) = self.decided.get(&tx).copied() {
            self.externalize(tx, decision, Some(client), ctx);
            return;
        }
        // A restarted TM leader must finish Paxos log recovery first: a
        // decision accepted before the crash may exist for this transaction,
        // and starting fresh 2PC now could commit a second, different one.
        // The client's recovery retry re-delivers the request later.
        if self.recovering {
            let recovered = self.proposer.as_ref().map(|p| !p.has_pending()) == Some(true);
            if !recovered {
                self.arm_retry_timer(ctx);
                return;
            }
            self.recovering = false;
            ctx.ctrl_milestone(CtrlMilestone::Recovered, None, self.id.as_u64());
        }
        if self.pending.contains_key(&tx) {
            if !self.flow.enabled {
                // Legacy: re-drive the missing votes now instead of waiting
                // for the retry tick. Under a flood of client retries this is
                // exactly the duplicate-PREPARE amplification of the
                // collapse, which is why flow control supersedes instead.
                self.redrive(tx, ctx);
                return;
            }
            // A retry supersedes the in-flight attempt: refresh the reply
            // address and let the scheduled backoff decide when to re-drive,
            // instead of stacking another PREPARE volley on top of it.
            let now = ctx.now().as_micros();
            let due = {
                let pending = self.pending.get_mut(&tx).expect("checked above");
                pending.client = client;
                !pending.proposed && pending.backoff.due(now)
            };
            if due {
                let attempt = self
                    .pending
                    .get(&tx)
                    .map(|p| p.backoff.attempt)
                    .unwrap_or(0);
                ctx.obs_milestone(tx, TxMilestone::Retry, u64::from(attempt));
                ctx.obs_gauge("obs_backoff_attempt", f64::from(attempt));
                self.redrive(tx, ctx);
                let (backoff, salt) = (self.flow.backoff(), self.salt(tx));
                if let Some(pending) = self.pending.get_mut(&tx) {
                    pending.backoff.fired(&backoff, salt, now);
                }
            }
            return;
        }
        if !self.flow.admits(self.pending.len()) {
            // Admission window full: park the submission at the edge. A
            // queued transaction costs memory, not certification work; it is
            // admitted the moment an in-flight transaction decides.
            self.admission.enqueue(tx, (payload, client));
            ctx.add_counter("tm_admission_queued", 1);
            ctx.obs_gauge("obs_admission_depth", self.admission.len() as f64);
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
        let shards = payload.shards(self.sharding.as_ref());
        if shards.is_empty() {
            ctx.send(
                client,
                BaselineMsg::DecisionClient {
                    tx,
                    decision: Decision::Commit,
                },
            );
            return;
        }
        let backoff =
            BackoffState::armed(&self.flow.backoff(), self.salt(tx), ctx.now().as_micros());
        self.pending.insert(
            tx,
            PendingTx {
                client,
                payload: payload.clone(),
                shards: shards.clone(),
                votes: BTreeMap::new(),
                proposed: false,
                backoff,
            },
        );
        // Admission and the PREPARE volley coincide on this stack: the TM
        // starts 2PC the moment a submission enters the window.
        ctx.obs_milestone(tx, TxMilestone::Admitted, 0);
        ctx.obs_gauge("obs_inflight_window", self.pending.len() as f64);
        ctx.obs_milestone(tx, TxMilestone::CertifySent, 0);
        for shard in shards {
            let Some(leader) = self.shard_leaders.get(&shard) else {
                continue;
            };
            ctx.send(
                *leader,
                BaselineMsg::Prepare {
                    tx,
                    payload: payload.restrict(shard, self.sharding.as_ref()),
                },
            );
        }
        self.arm_retry_timer(ctx);
    }

    /// Admits queued submissions into freed window slots (oldest first).
    fn drain_admission(&mut self, ctx: &mut Context<'_, BaselineMsg>) {
        while self.flow.admits(self.pending.len()) {
            let Some((tx, (payload, client))) = self.admission.pop() else {
                break;
            };
            if let Some(decision) = self.decided.get(&tx).copied() {
                self.externalize(tx, decision, Some(client), ctx);
                continue;
            }
            self.start_tx(tx, payload, client, ctx);
        }
    }

    /// Re-sends `PREPARE` to every shard of `tx` whose vote is missing.
    fn redrive(&mut self, tx: TxId, ctx: &mut Context<'_, BaselineMsg>) {
        let Some(pending) = self.pending.get(&tx) else {
            return;
        };
        if pending.proposed {
            return;
        }
        let missing: Vec<ShardId> = pending
            .shards
            .iter()
            .copied()
            .filter(|s| !pending.votes.contains_key(s))
            .collect();
        let payload = pending.payload.clone();
        for shard in missing {
            if let Some(leader) = self.shard_leaders.get(&shard) {
                ctx.send(
                    *leader,
                    BaselineMsg::Prepare {
                        tx,
                        payload: payload.restrict(shard, self.sharding.as_ref()),
                    },
                );
            }
        }
    }

    fn arm_retry_timer(&mut self, ctx: &mut Context<'_, BaselineMsg>) {
        // Called whenever new work arrives, which also resets the
        // fruitless-tick budget.
        self.retry_ticks = 0;
        let proposer_pending = self.proposer.as_ref().map(Proposer::has_pending) == Some(true);
        if !self.retry_armed
            && (!self.pending.is_empty() || proposer_pending || !self.admission.is_empty())
        {
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
        let now = ctx.now().as_micros();
        let txs: Vec<TxId> = if self.flow.enabled {
            // Backoff: only transactions whose deadline has passed re-drive
            // this tick; the rest keep waiting. This is the fix for the
            // per-tick full-pending volley that caused the collapse.
            self.pending
                .iter()
                .filter(|(_, p)| !p.proposed && p.backoff.due(now))
                .map(|(tx, _)| *tx)
                .collect()
        } else {
            self.pending.keys().copied().collect()
        };
        for tx in txs {
            if self.flow.enabled {
                let attempt = self
                    .pending
                    .get(&tx)
                    .map(|p| p.backoff.attempt)
                    .unwrap_or(0);
                ctx.obs_milestone(tx, TxMilestone::Retry, u64::from(attempt));
                ctx.obs_gauge("obs_backoff_attempt", f64::from(attempt));
            }
            self.redrive(tx, ctx);
            if self.flow.enabled {
                let (backoff, salt) = (self.flow.backoff(), self.salt(tx));
                if let Some(pending) = self.pending.get_mut(&tx) {
                    pending.backoff.fired(&backoff, salt, now);
                }
            }
        }
        let paxos_due = !self.flow.enabled || self.paxos_backoff.due(now);
        if paxos_due {
            if let Some(proposer) = self.proposer.as_mut() {
                if proposer.has_pending() {
                    let out = proposer.retransmit();
                    self.route(ctx, out);
                    if self.flow.enabled {
                        let salt = self.id.as_u64();
                        self.paxos_backoff.fired(&self.flow.backoff(), salt, now);
                    }
                }
            }
        }
        // Safety net: admit queued submissions if the window has room (the
        // normal admission point is the decision path in `handle_paxos`).
        self.drain_admission(ctx);
        // Re-arm directly (not via `arm_retry_timer`, which would reset the
        // fruitless-tick budget this tick just spent).
        let proposer_pending = self.proposer.as_ref().map(Proposer::has_pending) == Some(true);
        if !self.retry_armed
            && (!self.pending.is_empty() || proposer_pending || !self.admission.is_empty())
        {
            ctx.set_timer(TM_RETRY, TM_RETRY_TICK);
            self.retry_armed = true;
        }
    }

    /// Sends the durable decision of `tx` to the shards and (optionally) a
    /// client.
    fn externalize(
        &mut self,
        tx: TxId,
        decision: Decision,
        client: Option<ProcessId>,
        ctx: &mut Context<'_, BaselineMsg>,
    ) {
        let (stored_client, shards) = self
            .decided_clients
            .get(&tx)
            .cloned()
            .unwrap_or((ProcessId::new(u64::MAX), Vec::new()));
        let client = client.unwrap_or(stored_client);
        if client != ProcessId::new(u64::MAX) {
            ctx.send(client, BaselineMsg::DecisionClient { tx, decision });
        }
        for shard in shards {
            if let Some(leader) = self.shard_leaders.get(&shard) {
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
        if !self.is_leader {
            return;
        }
        let Some(pending) = self.pending.get_mut(&tx) else {
            return;
        };
        pending.votes.insert(shard, vote);
        ctx.obs_milestone(tx, TxMilestone::ShardVoted, u64::from(shard.as_u32()));
        if pending.proposed || pending.votes.len() < pending.shards.len() {
            return;
        }
        pending.proposed = true;
        let decision = Decision::meet_all(pending.votes.values().copied());
        let command = TmCommand {
            tx,
            decision,
            client: pending.client,
            shards: pending.shards.clone(),
        };
        if !self.phase1_started {
            self.phase1_started = true;
            let out = self
                .proposer
                .as_mut()
                .expect("leader has a proposer")
                .start_phase1();
            self.route(ctx, out);
        }
        let out = self
            .proposer
            .as_mut()
            .expect("leader has a proposer")
            .propose(command);
        self.route(ctx, out);
        // A fresh proposal is progress: return retransmits to the fast
        // schedule.
        let (backoff, salt) = (self.flow.backoff(), self.id.as_u64());
        self.paxos_backoff
            .reset(&backoff, salt, ctx.now().as_micros());
        self.arm_retry_timer(ctx);
    }

    fn handle_paxos(
        &mut self,
        from: ProcessId,
        msg: PaxosMsg<TmCommand>,
        ctx: &mut Context<'_, BaselineMsg>,
    ) {
        let out = self.acceptor.handle(from, msg.clone());
        self.route(ctx, out);
        if let PaxosMsg::Chosen { slot, command } = &msg {
            self.log.record_chosen(*slot, command.clone());
            self.decided.entry(command.tx).or_insert(command.decision);
            self.decided_clients
                .entry(command.tx)
                .or_insert_with(|| (command.client, command.shards.clone()));
        }
        if let Some(proposer) = self.proposer.as_mut() {
            let (out, chosen) = proposer.handle(msg);
            self.route(ctx, out);
            for (slot, command) in chosen {
                self.log.record_chosen(slot, command.clone());
                // First decision wins: retries around a TM restart can choose
                // a second command for the same transaction; only the first
                // recorded decision is ever externalised.
                let decision = *self.decided.entry(command.tx).or_insert(command.decision);
                self.decided_clients
                    .entry(command.tx)
                    .or_insert_with(|| (command.client, command.shards.clone()));
                if self.pending.remove(&command.tx).is_some() {
                    // The Paxos accept quorum is what makes the decision
                    // durable: quorum and decision coincide on this stack.
                    ctx.obs_milestone(command.tx, TxMilestone::AcceptQuorum, 0);
                    ctx.obs_milestone(command.tx, TxMilestone::Decided, 0);
                    ctx.obs_gauge("obs_inflight_window", self.pending.len() as f64);
                }
                self.admission.remove(command.tx);
                // A slot was chosen: the proposer is making headway, so its
                // retransmit backoff returns to the fast schedule.
                let (backoff, salt) = (self.flow.backoff(), self.id.as_u64());
                self.paxos_backoff
                    .reset(&backoff, salt, ctx.now().as_micros());
                // The decision is durable: externalise it.
                ctx.send(
                    command.client,
                    BaselineMsg::DecisionClient {
                        tx: command.tx,
                        decision,
                    },
                );
                for shard in &command.shards {
                    if let Some(leader) = self.shard_leaders.get(shard) {
                        ctx.send(
                            *leader,
                            BaselineMsg::Decision {
                                tx: command.tx,
                                decision,
                            },
                        );
                    }
                }
            }
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
        let (backoff, salt) = (self.flow.backoff(), self.id.as_u64());
        self.paxos_backoff
            .reset(&backoff, salt, ctx.now().as_micros());
        self.retry_armed = false;
        self.phase1_started = false;
        self.ballot_round += 1;
        if self.is_leader {
            let mut proposer = Proposer::new(self.id, self.group.clone(), self.ballot_round);
            // Start log recovery immediately; `handle_certify` defers fresh
            // 2PC until it completes.
            let out = proposer.start_phase1();
            self.phase1_started = true;
            self.recovering = true;
            self.proposer = Some(proposer);
            self.route(ctx, out);
            self.arm_retry_timer(ctx);
        }
        ctx.add_counter("tm_restarts", 1);
    }
}
