//! Baseline shard replicas: certification + a Multi-Paxos log per shard.

use std::collections::BTreeMap;

use ratc_core::batch::{BatchingConfig, VoteBatcher, FLUSH_DELAY};
use ratc_core::flow::FlowControlConfig;
use ratc_paxos::{Acceptor, PaxosMsg, Proposer, ReplicatedLog};
use ratc_sim::{Actor, BackoffState, Context, CtrlMilestone, TimerTag, TxMilestone};
#[cfg(debug_assertions)]
use ratc_types::MirrorCertifier;
use ratc_types::{
    CertificationPolicy, Decision, IndexedCertifier, Payload, Position, ProcessId, ShardId, TxId,
};

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
    id: ProcessId,
    shard: ShardId,
    is_leader: bool,
    tm: ProcessId,
    group: Vec<ProcessId>,
    /// Incremental certifier answering votes in O(|payload|). Transitions are
    /// keyed by transaction id (transaction ids are globally unique, so they
    /// serve as positions).
    index: Box<dyn IndexedCertifier>,
    /// Pristine (empty) clone of the certifier, used by crash-restart
    /// recovery to rebuild the in-memory index from the durable Paxos log.
    index_factory: Box<dyn IndexedCertifier>,
    /// Debug builds keep a full set-based [`MirrorCertifier`] in lockstep and
    /// cross-check every vote against it; release builds drop it so decided
    /// payload memory is actually freed.
    #[cfg(debug_assertions)]
    mirror: MirrorCertifier,
    /// Pristine clone of the mirror for crash-restart recovery.
    #[cfg(debug_assertions)]
    mirror_factory: MirrorCertifier,
    acceptor: Acceptor<ShardCommand>,
    proposer: Option<Proposer<ShardCommand>>,
    log: ReplicatedLog<ShardCommand>,
    /// Chosen votes of *undecided* transactions: tx -> (payload, vote).
    prepared: BTreeMap<TxId, (Payload, Decision)>,
    /// Transactions proposed but whose vote is not chosen yet.
    in_flight: BTreeMap<TxId, (Payload, Decision)>,
    /// Final decisions (payload-free): the only per-transaction state kept
    /// for the whole history.
    decisions: BTreeMap<TxId, Decision>,
    phase1_started: bool,
    /// Ballot round of the current proposer incarnation; bumped on restart so
    /// a restarted leader re-establishes leadership with a fresh ballot.
    ballot_round: u64,
    /// `true` between a leader restart and the completion of Paxos log
    /// recovery (phase 1 plus re-choosing every recovered slot). While set,
    /// fresh certifications are deferred: commands accepted before the crash
    /// carry votes whose certifier locks are only re-established when the
    /// recovered slots are chosen, so certifying against the not-yet-caught-up
    /// index could approve conflicting transactions.
    recovering: bool,
    /// Batched log appends (see `ratc_core::batch`): certified votes are
    /// coalesced here and proposed as one Multi-Paxos command per batch.
    /// At `max_batch = 1` the batcher flushes on every push, i.e. one
    /// command per transaction — the seed behaviour.
    batcher: VoteBatcher<ShardVote>,
    batch_timer_armed: bool,
    retransmit_armed: bool,
    /// Consecutive retransmission ticks; capped by [`RETRANSMIT_CAP`].
    retransmit_ticks: u32,
    /// Flow-control knobs (here: the Paxos retransmit backoff schedule).
    flow: FlowControlConfig,
    /// Backoff gating retransmissions; reset whenever a slot is chosen or a
    /// fresh command is proposed.
    retransmit_backoff: BackoffState,
}

impl BaselineShardReplica {
    /// Creates a replica. The harness later installs identifiers and group
    /// membership with [`BaselineShardReplica::install`].
    pub fn new<P>(shard: ShardId, policy: &P) -> Self
    where
        P: CertificationPolicy + ?Sized,
    {
        BaselineShardReplica {
            id: ProcessId::new(u64::MAX),
            shard,
            is_leader: false,
            tm: ProcessId::new(u64::MAX),
            group: Vec::new(),
            index: policy.indexed_certifier(shard),
            index_factory: policy.indexed_certifier(shard),
            #[cfg(debug_assertions)]
            mirror: MirrorCertifier::new(policy.shard_certifier(shard)),
            #[cfg(debug_assertions)]
            mirror_factory: MirrorCertifier::new(policy.shard_certifier(shard)),
            acceptor: Acceptor::new(ProcessId::new(u64::MAX)),
            proposer: None,
            log: ReplicatedLog::new(),
            prepared: BTreeMap::new(),
            in_flight: BTreeMap::new(),
            decisions: BTreeMap::new(),
            phase1_started: false,
            ballot_round: 0,
            recovering: false,
            batcher: VoteBatcher::new(BatchingConfig::default()),
            batch_timer_armed: false,
            retransmit_armed: false,
            retransmit_ticks: 0,
            flow: FlowControlConfig::default(),
            retransmit_backoff: BackoffState::default(),
        }
    }

    /// Sets the batching-pipeline knobs (default: disabled).
    pub fn set_batching(&mut self, batching: BatchingConfig) {
        self.batcher.set_config(batching);
    }

    /// Installs the flow-control configuration (retransmit backoff).
    pub fn set_flow(&mut self, flow: FlowControlConfig) {
        self.flow = flow;
    }

    /// Installs the replica's identity, the shard's Paxos group, whether this
    /// replica is the group's leader, and the transaction manager's address.
    pub fn install(&mut self, id: ProcessId, group: Vec<ProcessId>, leader: bool, tm: ProcessId) {
        self.id = id;
        self.acceptor = Acceptor::new(id);
        self.group = group.clone();
        self.is_leader = leader;
        self.tm = tm;
        if leader {
            self.proposer = Some(Proposer::new(id, group, 0));
        }
    }

    /// This replica's shard.
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// Whether this replica is its shard's leader.
    pub fn is_leader(&self) -> bool {
        self.is_leader
    }

    /// Number of Multi-Paxos log slots chosen (replicated) at this replica's
    /// log view. With batched log appends each slot carries up to
    /// `max_batch` votes, so this counts commands, not transactions.
    pub fn chosen_slots(&self) -> usize {
        self.log.len()
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

    fn route(
        &self,
        ctx: &mut Context<'_, BaselineMsg>,
        out: Vec<(ProcessId, PaxosMsg<ShardCommand>)>,
    ) {
        let shard = self.shard;
        // Messages to ourselves go through the network like everyone else's,
        // keeping message accounting uniform.
        for (to, msg) in out {
            ctx.send(to, BaselineMsg::ShardPaxos { shard, msg });
        }
    }

    /// The position under which a transaction's index transitions are keyed:
    /// transaction ids are globally unique, so they stand in for log slots.
    fn index_pos(tx: TxId) -> Position {
        Position::new(tx.as_u64())
    }

    // -- certifier transitions, applied to the index and (in debug builds)
    //    the set-based mirror in lockstep -----------------------------------

    fn certifier_prepare(&mut self, tx: TxId, payload: &Payload) {
        self.index.prepare(Self::index_pos(tx), payload);
        #[cfg(debug_assertions)]
        self.mirror.prepare(Self::index_pos(tx), payload);
    }

    fn certifier_release(&mut self, tx: TxId) {
        self.index.release(Self::index_pos(tx));
        #[cfg(debug_assertions)]
        self.mirror.release(Self::index_pos(tx));
    }

    fn certifier_commit(&mut self, tx: TxId, payload: &Payload) {
        self.index.apply_committed(Self::index_pos(tx), payload);
        #[cfg(debug_assertions)]
        self.mirror.apply_committed(Self::index_pos(tx), payload);
    }

    fn certify_and_propose(
        &mut self,
        tx: TxId,
        payload: Payload,
        ctx: &mut Context<'_, BaselineMsg>,
    ) {
        if !self.is_leader {
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
        if self.recovering {
            let recovered = self.proposer.as_ref().map(|p| !p.has_pending()) == Some(true);
            if !recovered {
                self.arm_retransmit_timer(ctx);
                return;
            }
            self.recovering = false;
            ctx.ctrl_milestone(CtrlMilestone::Recovered, Some(self.shard), self.id.as_u64());
        }
        let vote = self.index.vote(&payload);
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            vote,
            self.mirror.vote(&payload),
            "indexed vote diverged from the set-based mirror for {tx}"
        );
        if vote == Decision::Commit {
            self.certifier_prepare(tx, &payload);
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
        if !self.phase1_started {
            self.phase1_started = true;
            let out = self
                .proposer
                .as_mut()
                .expect("leader has a proposer")
                .start_phase1();
            self.route(ctx, out);
        }
        let proposer = self.proposer.as_mut().expect("leader has a proposer");
        let out = proposer.propose(ShardCommand {
            items: items.into(),
        });
        self.route(ctx, out);
        // A fresh proposal is progress: retransmits return to the fast
        // schedule.
        let (backoff, salt) = (self.flow.backoff(), self.id.as_u64());
        self.retransmit_backoff
            .reset(&backoff, salt, ctx.now().as_micros());
        self.arm_retransmit_timer(ctx);
    }

    fn arm_retransmit_timer(&mut self, ctx: &mut Context<'_, BaselineMsg>) {
        // Called whenever new work arrives, which also resets the
        // fruitless-tick budget.
        self.retransmit_ticks = 0;
        let pending = self.proposer.as_ref().map(Proposer::has_pending) == Some(true);
        if !self.retransmit_armed && pending {
            ctx.set_timer(RETRANSMIT, RETRANSMIT_TICK);
            self.retransmit_armed = true;
        }
    }

    /// Re-sends outstanding Paxos messages: a dropped `Prepare`/`Accept`
    /// would otherwise strand its ballot or slot forever. Repeats are
    /// idempotent at the acceptors.
    fn handle_retransmit_tick(&mut self, ctx: &mut Context<'_, BaselineMsg>) {
        self.retransmit_armed = false;
        self.retransmit_ticks += 1;
        if self.retransmit_ticks > RETRANSMIT_CAP {
            ctx.add_counter("retransmits_abandoned", 1);
            return;
        }
        let now = ctx.now().as_micros();
        let due = !self.flow.enabled || self.retransmit_backoff.due(now);
        let pending = self.proposer.as_ref().map(Proposer::has_pending) == Some(true);
        if !pending {
            return;
        }
        if due {
            let proposer = self.proposer.as_mut().expect("checked above");
            let out = proposer.retransmit();
            self.route(ctx, out);
            if self.flow.enabled {
                let (backoff, salt) = (self.flow.backoff(), self.id.as_u64());
                self.retransmit_backoff.fired(&backoff, salt, now);
            }
        }
        // Keep ticking while work is outstanding: the backoff deadline, not
        // the tick, decides when the next retransmit actually goes out.
        if !self.retransmit_armed {
            ctx.set_timer(RETRANSMIT, RETRANSMIT_TICK);
            self.retransmit_armed = true;
        }
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
                    self.certifier_commit(item.tx, &item.payload);
                }
                continue;
            }
            if item.vote == Decision::Commit {
                self.certifier_prepare(item.tx, &item.payload);
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
        // Acceptor role.
        let out = self.acceptor.handle(from, msg.clone());
        self.route(ctx, out);
        // Learner role.
        if let PaxosMsg::Chosen { slot, command } = &msg {
            self.log.record_chosen(*slot, command.clone());
            self.apply_chosen(command);
        }
        // Proposer role (leader only).
        if let Some(proposer) = self.proposer.as_mut() {
            let (out, chosen) = proposer.handle(msg);
            let mut to_send = Vec::new();
            for (slot, command) in chosen {
                self.log.record_chosen(slot, command.clone());
                let mut votes = Vec::with_capacity(command.items.len());
                for item in command.items.iter() {
                    self.in_flight.remove(&item.tx);
                    votes.push((item.tx, item.vote));
                }
                self.apply_chosen(&command);
                // The whole batch is now durable at a majority: report every
                // vote to the TM in one message.
                to_send.push(BaselineMsg::VoteBatch {
                    shard: self.shard,
                    votes,
                });
            }
            self.route(ctx, out);
            let made_progress = !to_send.is_empty();
            for msg in to_send {
                ctx.send(self.tm, msg);
            }
            if made_progress {
                // Slots were chosen: retransmits return to the fast schedule.
                let (backoff, salt) = (self.flow.backoff(), self.id.as_u64());
                self.retransmit_backoff
                    .reset(&backoff, salt, ctx.now().as_micros());
            }
        }
    }
}

impl Actor<BaselineMsg> for BaselineShardReplica {
    fn on_start(&mut self, _ctx: &mut Context<'_, BaselineMsg>) {}

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
                if self.is_leader {
                    for peer in self.group.clone() {
                        if peer != self.id {
                            ctx.send(peer, BaselineMsg::Decision { tx, decision });
                        }
                    }
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
                    self.certifier_release(tx);
                    if decision == Decision::Commit {
                        self.certifier_commit(tx, &payload);
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
    /// log and the decision map are durable; the certification index, the
    /// prepared set and all proposer state are volatile and rebuilt by
    /// replaying the durable log against the decision map. A restarted leader
    /// re-establishes leadership under a fresh, higher ballot, which re-chooses
    /// any value a majority had accepted (phase-1 recovery).
    fn on_restart(&mut self, ctx: &mut Context<'_, BaselineMsg>) {
        self.in_flight.clear();
        self.prepared.clear();
        self.batcher = VoteBatcher::new(self.batcher.config());
        self.batch_timer_armed = false;
        self.retransmit_armed = false;
        let (backoff, salt) = (self.flow.backoff(), self.id.as_u64());
        self.retransmit_backoff
            .reset(&backoff, salt, ctx.now().as_micros());
        self.phase1_started = false;
        self.ballot_round += 1;
        if self.is_leader {
            let mut proposer = Proposer::new(self.id, self.group.clone(), self.ballot_round);
            // Start log recovery immediately: phase 1 re-discovers commands
            // accepted before the crash and re-chooses them, re-establishing
            // their certifier locks through `apply_chosen`. Until that
            // finishes, `certify_and_propose` defers fresh certifications.
            let out = proposer.start_phase1();
            self.phase1_started = true;
            self.recovering = true;
            self.proposer = Some(proposer);
            self.route(ctx, out);
            self.arm_retransmit_timer(ctx);
        }
        self.index = self.index_factory.clone_box();
        #[cfg(debug_assertions)]
        {
            self.mirror = self.mirror_factory.clone();
        }
        let commands: Vec<ShardCommand> = self.log.iter().map(|(_, c)| c.clone()).collect();
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
        if self.is_leader && !votes.is_empty() {
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
