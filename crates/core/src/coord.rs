//! The transaction coordinator: the one commit exchange both RATC stacks run.
//!
//! The paper has a single coordinator — `certify` → `PREPARE` to the shard
//! leaders → collect their votes → persist the votes at the followers →
//! decide and fan the decision out — and derives the RDMA protocol (§5) from
//! the message-passing one (§3) by changing only *how* the votes reach the
//! followers. [`Coordinator`] is that coordinator, written once. A replica of
//! either stack hosts one and forwards the coordinator's messages, timers and
//! acknowledgements to it; everything that differs between Figure 1 and
//! Figures 7–8 sits behind the [`Replication`] trait the hosting replica
//! implements.
//!
//! | method | Figure 1 (message passing) | Figures 7–8 (RDMA) |
//! |---|---|---|
//! | [`Coordinator::certify`] + batch flush | lines 1–3 | lines 74–76 |
//! | [`Coordinator::on_prepare_ack`] | lines 18–20 (`ACCEPT` via [`Replication::persist_votes`]) | lines 91–93 (one write per follower) |
//! | [`Coordinator::record_acks`] + completion | lines 26–29 (`ACCEPT_ACK` received) | lines 96–100 (`ack-rdma` received) |
//! | [`Coordinator::take_over`] | lines 70–73 (`retry`) | lines 167–170 |
//! | [`Coordinator::on_view_change`] | `retry` of what stalled on a shard, on `NEW_CONFIG`, `NEW_STATE` or `CONFIG_CHANGE` (lines 56–69) | the same, on `NEW_CONFIG` or `NEW_STATE` (lines 141–153) |
//!
//! Beyond the paper's pseudocode the coordinator also owns the policies every
//! deployment needs and the two stacks used to spell separately: the
//! admission window and its FIFO queue ([`crate::flow`]), per-transaction
//! retry backoff, the batching pipeline ([`crate::batch`]), adoption of a
//! decision a leader already truncated (`TxDecided`), the re-transmission
//! tick, and the hand-off of stalled transactions by a coordinator that was
//! excluded from the configuration. A view change re-drives: when a process
//! learns a shard's newer configuration, its coordinator re-sends `PREPARE`
//! at once to the leader it names for every transaction still incomplete on
//! that shard, instead of waiting for the tick; a vote from a newer epoch
//! than the view makes it ask the configuration service first.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use ratc_sim::{
    BackoffPolicy, BackoffState, Context, CtrlMilestone, SimDuration, TimerTag, TxMilestone,
};
use ratc_types::{
    Decision, Epoch, Payload, Placement, Position, ProcessId, ShardId, ShardMap, TxId,
};

use crate::batch::{
    sorted_entry, BatchingConfig, DecisionItem, Items, PrepareBatch, PrepareItem, PreparedItem,
    VoteBatcher, FLUSH_DELAY,
};
use crate::flow::{self, AdmissionQueue};

/// Timer tag of the coordinator's re-transmission tick
/// ([`Coordinator::retry_tick`]).
pub const RETRY_TICK: TimerTag = 1;

/// Timer tag flushing a partially filled prepare batch
/// ([`Coordinator::batch_tick`]).
pub const BATCH_TICK: TimerTag = 2;

/// Interval of the re-transmission tick.
const RETRY_INTERVAL: SimDuration = SimDuration::from_millis(20);

/// Constructors for the messages the coordinator and the shard leader's
/// `PREPARE` step send. `Msg` and `RdmaMsg` spell these variants identically;
/// the trait lets the shared code build them without knowing the enum.
pub trait CommitMsg: Sized {
    /// `DECISION(t, d)` to the client.
    fn decision_client(tx: TxId, decision: Decision) -> Self;
    /// The `retry(k)` trigger: asks the receiver to take `tx` over.
    fn retry(tx: TxId) -> Self;
    /// A leader's answer to `PREPARE` for a transaction it already truncated.
    fn tx_decided(tx: TxId, decision: Decision, client: ProcessId) -> Self;
    /// `PREPARE` to a shard leader.
    fn prepare_batch(batch: PrepareBatch) -> Self;
    /// `PREPARE_ACK` from a shard leader: its votes.
    fn prepare_ack_batch(epoch: Epoch, shard: ShardId, items: Items<PreparedItem>) -> Self;
}

/// Implements [`CommitMsg`] for a message enum that spells the five variants
/// the way [`crate::Msg`] does, field for field (`ratc-rdma`'s `RdmaMsg` is
/// the other one); the field types must be in scope where it is invoked.
#[macro_export]
macro_rules! impl_commit_msg {
    ($msg:ident) => {
        impl $crate::coord::CommitMsg for $msg {
            fn decision_client(tx: TxId, decision: Decision) -> Self {
                $msg::DecisionClient { tx, decision }
            }

            fn retry(tx: TxId) -> Self {
                $msg::Retry { tx }
            }

            fn tx_decided(tx: TxId, decision: Decision, client: ProcessId) -> Self {
                $msg::TxDecided {
                    tx,
                    decision,
                    client,
                }
            }

            fn prepare_batch(batch: PrepareBatch) -> Self {
                $msg::PrepareBatch { batch }
            }

            fn prepare_ack_batch(epoch: Epoch, shard: ShardId, items: Items<PreparedItem>) -> Self {
                $msg::PrepareAckBatch {
                    epoch,
                    shard,
                    items,
                }
            }
        }
    };
}

/// A process's current view of one shard's configuration.
#[derive(Debug, Clone, Copy)]
pub struct ShardView<'a> {
    /// The shard's epoch as this process knows it.
    pub epoch: Epoch,
    /// The shard's leader, if the process knows the shard at all.
    pub leader: Option<ProcessId>,
    /// The shard's members (leader included).
    pub members: &'a [ProcessId],
}

impl ShardView<'_> {
    /// The members other than the leader.
    pub fn followers(&self) -> impl Iterator<Item = ProcessId> + '_ {
        let leader = self.leader;
        self.members
            .iter()
            .copied()
            .filter(move |p| Some(*p) != leader)
    }
}

/// What differs between the two RATC stacks, as seen by the coordinator: how
/// a process learns and refreshes shard configurations, and how votes and
/// decisions reach a shard's replicas.
pub trait Replication {
    /// The stack's message vocabulary.
    type Msg: CommitMsg;

    /// This process's view of `shard`.
    fn view(&self, shard: ShardId) -> ShardView<'_>;

    /// Persists the leader's votes `items` at the followers of `shard` in its
    /// current epoch. Each follower's acknowledgement reaches the coordinator
    /// later through [`Coordinator::record_acks`]; a follower that has
    /// acknowledged by the time this returns (the process itself, storing
    /// into its own memory) is returned instead.
    fn persist_votes(
        &mut self,
        shard: ShardId,
        items: Items<PreparedItem>,
        ctx: &mut Context<'_, Self::Msg>,
    ) -> Option<ProcessId>;

    /// Distributes the final decisions of slots of `shard` to every member
    /// of it (one `DECISION` per member).
    fn distribute_decisions(
        &mut self,
        shard: ShardId,
        decisions: Items<DecisionItem>,
        ctx: &mut Context<'_, Self::Msg>,
    );

    /// Asks the configuration service for the latest configuration of
    /// `shards`: a stalled coordinator may be working from a stale view.
    fn refresh_views(&mut self, shards: &BTreeSet<ShardId>, ctx: &mut Context<'_, Self::Msg>);
}

/// The data needed to distribute a completed transaction's decision: the
/// client, the decision, and per-shard `(shard, position)` targets (inline
/// for a single-shard transaction).
type Completion = (ProcessId, Decision, Items<(ShardId, Position)>);

/// Progress of a coordinated transaction at one shard in one epoch.
#[derive(Debug, Clone, Default)]
struct ShardProgress {
    pos: Option<Position>,
    vote: Option<Decision>,
    /// Followers that acknowledged storing the vote: at most one entry per
    /// follower, so an [`Items`] list (the first inline, no tree node per
    /// transaction).
    acks: Items<ProcessId>,
}

impl ShardProgress {
    fn acked(&mut self, follower: ProcessId) {
        if !self.acks.contains(&follower) {
            self.acks.push(follower);
        }
    }

    /// Whether the shard needs nothing more in the epoch of `view`: its
    /// vote is in and every follower acknowledged it.
    fn complete(&self, view: &ShardView<'_>) -> bool {
        self.vote.is_some() && view.followers().all(|f| self.acks.contains(&f))
    }
}

/// Coordinator-side state for one transaction this process is driving.
#[derive(Debug, Clone)]
struct CoordState {
    client: ProcessId,
    /// `shards(t)`, each with the restriction of the payload its `PREPARE`
    /// carries: placed once ([`Payload::place`]) if this coordinator
    /// received the original `certify`, unknown for recovery coordinators
    /// (which only ever send `⊥`).
    placement: Placement,
    /// Progress per shard per epoch, as an [`Items::entry`] list: one entry
    /// per shard unless a shard reconfigured while the transaction was in
    /// flight.
    progress: Items<((ShardId, Epoch), ShardProgress)>,
    /// When the next re-drive is due (flow control only; `None`: at once).
    backoff: Option<BackoffState>,
}

impl CoordState {
    fn new(client: ProcessId, placement: Placement) -> Self {
        CoordState {
            client,
            placement,
            progress: Items::new(),
            backoff: None,
        }
    }

    fn progress(&self, shard: ShardId, epoch: Epoch) -> Option<&ShardProgress> {
        let found = self.progress.iter().find(|(at, _)| *at == (shard, epoch));
        found.map(|(_, progress)| progress)
    }

    fn progress_mut(&mut self, shard: ShardId, epoch: Epoch) -> &mut ShardProgress {
        self.progress.entry((shard, epoch))
    }

    /// Whether `shard` needs nothing more in the epoch of `view`.
    fn shard_complete(&self, shard: ShardId, view: &ShardView<'_>) -> bool {
        self.progress(shard, view.epoch)
            .is_some_and(|progress| progress.complete(view))
    }
}

/// How a transaction stopped being driven by this coordinator.
#[derive(Debug, Clone, Copy)]
enum Outcome {
    /// Lines 26–29 / 96–100: decided here from the shards' votes, and the
    /// decision sent to every shard.
    Decided(Decision),
    /// Learned from a `TxDecided` reply: some shard already truncated the
    /// transaction. A shard that re-acks it still holds it prepared and must
    /// be told, or its slot and `L2` locks stay stranded forever.
    Adopted(Decision),
    /// Handed to the members of a newer configuration
    /// ([`Coordinator::hand_off`]); no decision is known here.
    HandedOff,
}

impl Outcome {
    fn decision(self) -> Option<Decision> {
        match self {
            Outcome::Decided(decision) | Outcome::Adopted(decision) => Some(decision),
            Outcome::HandedOff => None,
        }
    }
}

/// Everything a process needs to coordinate transactions (see the module
/// documentation).
pub struct Coordinator {
    sharding: Arc<dyn ShardMap + Send + Sync>,
    /// Exactly the transactions this process is driving: the admission
    /// window counts them and the re-transmission tick walks them.
    coordinating: BTreeMap<TxId, CoordState>,
    /// The transactions it stopped driving, each with its outcome, so a
    /// re-submitted `certify` (the client's `DECISION` was lost to a fault)
    /// is answered instead of swallowed.
    settled: BTreeMap<TxId, Outcome>,
    /// Submissions waiting for an admission-window slot (FIFO, deduplicated),
    /// each placed on arrival.
    admission: AdmissionQueue<(Placement, ProcessId)>,
    batcher: VoteBatcher<TxId>,
    retry_timer_armed: bool,
    batch_timer_armed: bool,
}

impl Coordinator {
    /// A coordinator with default flow control and batches of one.
    pub fn new(sharding: Arc<dyn ShardMap + Send + Sync>) -> Self {
        Coordinator {
            sharding,
            coordinating: BTreeMap::new(),
            settled: BTreeMap::new(),
            admission: AdmissionQueue::new(),
            batcher: VoteBatcher::new(BatchingConfig::default()),
            retry_timer_armed: false,
            batch_timer_armed: false,
        }
    }

    /// Sets the batching-pipeline knobs (default: batches of one).
    pub fn set_batching(&mut self, batching: BatchingConfig) {
        self.batcher.set_config(batching);
    }

    /// Number of transactions currently coordinated without a final decision.
    pub fn undecided_coordinated(&self) -> usize {
        self.coordinating.len()
    }

    /// The coordinated transactions that have no final decision.
    pub fn undecided_transactions(&self) -> Vec<TxId> {
        self.coordinating.keys().copied().collect()
    }

    /// Crash-restart: coordinator state is volatile, so all of it is lost;
    /// clients (or recovery coordinators) re-drive undecided transactions.
    /// Timers set before the crash never fire in the new incarnation.
    pub fn reset(&mut self) {
        self.coordinating.clear();
        self.settled.clear();
        self.admission.clear();
        self.batcher = VoteBatcher::new(self.batcher.config());
        self.retry_timer_armed = false;
        self.batch_timer_armed = false;
    }

    // -- helpers -------------------------------------------------------------

    fn arm_retry_timer<M>(&mut self, ctx: &mut Context<'_, M>) {
        if !self.retry_timer_armed && self.undecided_coordinated() > 0 {
            ctx.set_timer(RETRY_INTERVAL, RETRY_TICK);
            self.retry_timer_armed = true;
        }
    }

    /// Per-transaction jitter salt: decorrelates this coordinator's retry
    /// schedule for `tx` from every other transaction's without consuming
    /// shared RNG state.
    fn backoff_salt(tx: TxId, coordinator: ProcessId) -> u64 {
        tx.as_u64() ^ coordinator.as_u64().rotate_left(17)
    }

    /// Whether the next retry of `coord` is due at `now` (always true before
    /// the first deadline is armed).
    fn backoff_due(coord: &CoordState, now: u64) -> bool {
        coord.backoff.is_none_or(|b| b.due(now))
    }

    /// Stamps a flow-controlled re-drive of `tx` (the `Retry` milestone and
    /// the attempt gauge) and schedules the next one.
    fn backoff_fired<M>(&mut self, tx: TxId, ctx: &mut Context<'_, M>) {
        let Some(coord) = self.coordinating.get_mut(&tx) else {
            return;
        };
        let now = ctx.now().as_micros();
        let (policy, salt) = (
            BackoffPolicy::exponential(),
            Self::backoff_salt(tx, ctx.self_id()),
        );
        let backoff = coord
            .backoff
            .get_or_insert_with(|| BackoffState::armed(&policy, salt, now));
        ctx.obs_milestone(tx, TxMilestone::Retry, u64::from(backoff.attempt));
        ctx.obs_gauge("obs_backoff_attempt", u64::from(backoff.attempt));
        backoff.fired(&policy, salt, now);
    }

    /// Admits queued submissions into freed window slots (oldest first).
    /// Every path that stops driving a transaction ends with this drain, so
    /// a submission is parked only while the window is full.
    fn drain_admission<R: Replication>(&mut self, repl: &mut R, ctx: &mut Context<'_, R::Msg>) {
        while flow::admits(self.undecided_coordinated()) {
            let Some((tx, (placement, client))) = self.admission.pop() else {
                break;
            };
            self.certify_placed(tx, placement, client, repl, ctx);
        }
    }

    /// The driven state of `tx`, opened if this process is not driving it
    /// yet — a recovery coordinator, which has no payload.
    fn coord_entry(&mut self, tx: TxId, client: ProcessId, shards: &[ShardId]) -> &mut CoordState {
        let open = || CoordState::new(client, Placement::unknown(shards));
        self.coordinating.entry(tx).or_insert_with(open)
    }

    /// Sends `PREPARE` for `txs` (line 3 / 73 / 76): one `PREPARE_BATCH` per
    /// involved shard leader — in leader order, items in `txs` order — with
    /// the payload's restriction to the leader's shard from the placement,
    /// or `⊥` when this coordinator has no payload (a recovery coordinator).
    /// `only` limits the prepares to those shards. Returns the number of
    /// messages sent.
    fn send_prepares<R: Replication>(
        &self,
        txs: &[TxId],
        only: Option<&[ShardId]>,
        repl: &R,
        ctx: &mut Context<'_, R::Msg>,
    ) -> u64 {
        let mut per_leader: Vec<(ProcessId, Items<PrepareItem>)> = Vec::new();
        for &tx in txs {
            let Some(coord) = self.coordinating.get(&tx) else {
                continue;
            };
            for (shard, part) in coord.placement.parts() {
                if only.is_some_and(|filter| !filter.contains(&shard)) {
                    continue;
                }
                let Some(leader) = repl.view(shard).leader else {
                    continue;
                };
                sorted_entry(&mut per_leader, leader).push(PrepareItem {
                    tx,
                    payload: part.cloned(),
                    shards: coord.placement.shards().collect(),
                    client: coord.client,
                });
            }
        }
        let sent = per_leader.len() as u64;
        for (leader, items) in per_leader {
            ctx.send(leader, R::Msg::prepare_batch(PrepareBatch { items }));
        }
        sent
    }

    /// Re-sends `PREPARE` for one transaction outside the batcher — a retry,
    /// or a recovery coordinator's `PREPARE(t, ⊥)` — as one-item batches.
    fn resend_prepares<R: Replication>(
        &self,
        tx: TxId,
        only: Option<&[ShardId]>,
        repl: &R,
        ctx: &mut Context<'_, R::Msg>,
    ) {
        ctx.obs_milestone(tx, TxMilestone::CertifySent, 0);
        self.send_prepares(&[tx], only, repl, ctx);
    }

    /// Sends the `PREPARE`s of a drained batch (a flush of one is a flush).
    fn flush_prepare_batch<R: Replication>(
        &mut self,
        mut txs: Vec<TxId>,
        repl: &R,
        ctx: &mut Context<'_, R::Msg>,
    ) {
        if txs.is_empty() {
            return;
        }
        ctx.obs_gauge("obs_batch_occupancy", txs.len() as u64);
        if ctx.obs_enabled() {
            for &tx in &txs {
                ctx.obs_milestone(tx, TxMilestone::CertifySent, 0);
                ctx.obs_milestone(tx, TxMilestone::BatchFlush, txs.len() as u64);
            }
        }
        // Decided (an out-of-band `TxDecided`) or handed off while it waited
        // in the batch.
        txs.retain(|tx| self.coordinating.contains_key(tx));
        let sent = self.send_prepares(&txs, None, repl, ctx);
        ctx.add_counter("prepare_batches_sent", sent);
    }

    /// Line 26 / 96 precondition, evaluated without side effects: once, for
    /// every shard of `tx`, the coordinator has the shard's vote and an
    /// acknowledgement from every follower of the shard's current
    /// configuration, returns the client, the final decision and the
    /// per-shard `(shard, position)` targets.
    fn completion_of<R: Replication>(&self, tx: TxId, repl: &R) -> Option<Completion> {
        let coord = self.coordinating.get(&tx)?;
        let mut decision = Decision::Commit;
        let mut targets = Items::new();
        for shard in coord.placement.shards() {
            let view = repl.view(shard);
            let progress = coord.progress(shard, view.epoch)?;
            let (vote, pos) = (progress.vote?, progress.pos?);
            if !progress.complete(&view) {
                return None;
            }
            decision = decision.meet(vote);
            targets.push((shard, pos));
        }
        Some((coord.client, decision, targets))
    }

    /// Lines 26–29 / 96–100: computes the final decision of every
    /// transaction of `txs` that is complete, reports it to the client and
    /// distributes it to the members of its shards, one
    /// [`Replication::distribute_decisions`] per shard. The decisions free
    /// admission-window slots, so queued submissions are admitted once they
    /// are all out.
    fn complete<R: Replication>(
        &mut self,
        txs: impl IntoIterator<Item = TxId>,
        repl: &mut R,
        ctx: &mut Context<'_, R::Msg>,
    ) {
        let mut per_shard: Vec<(ShardId, Items<DecisionItem>)> = Vec::new();
        for tx in txs {
            // A transaction listed twice is complete only once: it is no
            // longer driven when its second `completion_of` looks for it.
            let Some((client, decision, targets)) = self.completion_of(tx, repl) else {
                continue;
            };
            if self.coordinating.remove(&tx).is_some() {
                self.settled.insert(tx, Outcome::Decided(decision));
            }
            self.admission.remove(tx);
            ctx.add_counter("coordinator_decisions", 1);
            ctx.record_sample("coordinator_decision_hops", u64::from(ctx.hops()));
            // The accept quorum and the decision coincide: the last required
            // acknowledgement both completes the quorum and fixes the outcome.
            ctx.obs_milestone(tx, TxMilestone::AcceptQuorum, 0);
            ctx.obs_milestone(tx, TxMilestone::Decided, 0);
            ctx.obs_gauge("obs_inflight_window", self.coordinating.len() as u64);
            ctx.send(client, R::Msg::decision_client(tx, decision));
            for (shard, pos) in targets {
                sorted_entry(&mut per_shard, shard).push(DecisionItem { pos, decision });
            }
        }
        for (shard, decisions) in per_shard {
            repl.distribute_decisions(shard, decisions, ctx);
        }
        self.drain_admission(repl, ctx);
    }

    // -- the exchange ----------------------------------------------------------

    /// Lines 1–3 / 74–76: this process becomes the coordinator of `tx`.
    pub fn certify<R: Replication>(
        &mut self,
        tx: TxId,
        payload: Payload,
        client: ProcessId,
        repl: &mut R,
        ctx: &mut Context<'_, R::Msg>,
    ) {
        let placement = payload.place(self.sharding.as_ref());
        self.certify_placed(tx, placement, client, repl, ctx);
    }

    /// [`Coordinator::certify`] of a payload placed as `placement`.
    fn certify_placed<R: Replication>(
        &mut self,
        tx: TxId,
        placement: Placement,
        client: ProcessId,
        repl: &mut R,
        ctx: &mut Context<'_, R::Msg>,
    ) {
        if placement.is_empty() {
            // A transaction touching no objects commits vacuously.
            ctx.send(client, R::Msg::decision_client(tx, Decision::Commit));
            return;
        }
        if let Some(outcome) = self.settled.get(&tx) {
            // A re-submitted `certify` of a transaction this coordinator
            // already decided (the client's `DECISION` was lost to a fault,
            // or the client retried against the same coordinator): answer
            // with the recorded decision instead of silently swallowing the
            // request.
            if let Some(decision) = outcome.decision() {
                ctx.send(client, R::Msg::decision_client(tx, decision));
                return;
            }
            // Handed off to the members of a newer configuration. If the
            // client is re-driving the transaction, the hand-off `RETRY` was
            // lost: coordinate it afresh, as a retry of what was in flight
            // (placed just below).
            self.settled.remove(&tx);
            self.coord_entry(tx, client, &[]);
        }
        match self.coordinating.get_mut(&tx) {
            Some(coord) => {
                coord.placement = placement;
                coord.client = client;
                // A retry supersedes the in-flight attempt: the reply address
                // and payload are refreshed and the scheduled backoff decides
                // when to re-drive, instead of stacking another PREPARE volley
                // on top of the previous one.
                if Self::backoff_due(coord, ctx.now().as_micros()) {
                    self.backoff_fired(tx, ctx);
                    self.resend_prepares(tx, None, repl, ctx);
                }
                self.arm_retry_timer(ctx);
                return;
            }
            None => {
                if !flow::admits(self.undecided_coordinated()) {
                    // Admission window full: park the submission at the edge;
                    // it is admitted when an in-flight transaction decides.
                    self.admission.enqueue(tx, (placement, client));
                    ctx.add_counter("admission_queued", 1);
                    ctx.obs_gauge("obs_admission_depth", self.admission.len() as u64);
                    self.arm_retry_timer(ctx);
                    return;
                }
                let salt = Self::backoff_salt(tx, ctx.self_id());
                let now = ctx.now().as_micros();
                let mut coord = CoordState::new(client, placement);
                coord.backoff = Some(BackoffState::armed(
                    &BackoffPolicy::exponential(),
                    salt,
                    now,
                ));
                self.coordinating.insert(tx, coord);
                ctx.obs_milestone(tx, TxMilestone::Admitted, 0);
                ctx.obs_gauge("obs_inflight_window", self.coordinating.len() as u64);
            }
        }
        // Into the pending batch, which flushes when it reaches `max_batch`
        // (at `max_batch = 1`: now) or when the batch timer expires. The
        // retry timer is the safety net either way.
        if self.batcher.push(tx) {
            let txs = self.batcher.drain_full();
            self.flush_prepare_batch(txs, repl, ctx);
        } else if !self.batch_timer_armed {
            ctx.set_timer(FLUSH_DELAY, BATCH_TICK);
            self.batch_timer_armed = true;
        }
        self.arm_retry_timer(ctx);
    }

    /// The batch timer fired: flush the partial batch.
    pub fn batch_tick<R: Replication>(&mut self, repl: &mut R, ctx: &mut Context<'_, R::Msg>) {
        self.batch_timer_armed = false;
        let txs = self.batcher.drain();
        self.flush_prepare_batch(txs, repl, ctx);
    }

    /// Lines 18–20 / 91–93: records the votes of the leader of `shard` and
    /// persists them at the shard's followers.
    pub fn on_prepare_ack<R: Replication>(
        &mut self,
        epoch: Epoch,
        shard: ShardId,
        items: Items<PreparedItem>,
        repl: &mut R,
        ctx: &mut Context<'_, R::Msg>,
    ) {
        // Line 19 / 92 precondition, once for the whole message (every item
        // was certified by the same leader in the same epoch): the
        // coordinator's view of the shard's epoch matches the leader's.
        let known = repl.view(shard).epoch;
        if known != epoch {
            // A vote from a newer epoch proves the view stale: the leader
            // serves a configuration this process has not learned. Ask for
            // it; the reply re-drives through `on_view_change`.
            if known < epoch {
                repl.refresh_views(&BTreeSet::from([shard]), ctx);
            }
            return;
        }
        // A late re-ack for a transaction whose decision was learned
        // out-of-band (`TxDecided`): this shard still holds it prepared, and
        // the ack says where, so tell it the decision.
        let mut adopted = Items::new();
        for item in items.iter() {
            match self.settled.get(&item.tx).copied() {
                Some(Outcome::Adopted(decision)) => adopted.push(DecisionItem {
                    pos: item.pos,
                    decision,
                }),
                // A late vote must not revive what is no longer driven.
                Some(_) => {}
                None => {
                    let progress = self
                        .coord_entry(item.tx, item.client, &item.shards)
                        .progress_mut(shard, epoch);
                    progress.pos = Some(item.pos);
                    progress.vote = Some(item.vote);
                }
            }
            ctx.obs_milestone(item.tx, TxMilestone::ShardVoted, u64::from(shard.as_u32()));
        }
        let txs: Items<TxId> = items.iter().map(|item| item.tx).collect();
        if let Some(follower) = repl.persist_votes(shard, items, ctx) {
            for tx in txs.iter() {
                if let Some(coord) = self.coordinating.get_mut(tx) {
                    coord.progress_mut(shard, epoch).acked(follower);
                }
            }
        }
        if !adopted.is_empty() {
            repl.distribute_decisions(shard, adopted, ctx);
        }
        // With f = 0 (no followers) the transactions may already be complete.
        self.complete(txs, repl, ctx);
    }

    /// Line 26 / 96 bookkeeping: `follower` of `shard` acknowledged storing
    /// the votes of `acks` in `epoch`; every transaction that is now done is
    /// completed. An acknowledgement that carries the stored `(position,
    /// vote)` (an `ACCEPT_ACK` message does, a hardware acknowledgement does
    /// not) fills them in if the leader's own reply has not been recorded.
    pub fn record_acks<R, I>(
        &mut self,
        follower: ProcessId,
        shard: ShardId,
        epoch: Epoch,
        acks: I,
        repl: &mut R,
        ctx: &mut Context<'_, R::Msg>,
    ) where
        R: Replication,
        I: Iterator<Item = (TxId, Option<(Position, Decision)>)> + Clone,
    {
        for (tx, stored) in acks.clone() {
            let Some(coord) = self.coordinating.get_mut(&tx) else {
                continue;
            };
            let progress = coord.progress_mut(shard, epoch);
            progress.acked(follower);
            if let Some((pos, vote)) = stored {
                progress.pos.get_or_insert(pos);
                progress.vote.get_or_insert(vote);
            }
        }
        self.complete(acks.map(|(tx, _)| tx), repl, ctx);
    }

    /// A shard leader answered a `PREPARE` for a transaction it has already
    /// decided and truncated: adopt the decision, report it to the client
    /// (duplicate identical decisions are benign there), and propagate it to
    /// every shard whose certification position this coordinator knows —
    /// shards that missed the original `DECISION` still hold the transaction
    /// as prepared, and without this their slots and `L2` locks would stay
    /// stranded forever. Shards whose `PREPARE_ACK` has not arrived yet are
    /// told from [`Coordinator::on_prepare_ack`], at the position the ack names.
    pub fn on_tx_decided<R: Replication>(
        &mut self,
        tx: TxId,
        decision: Decision,
        client: ProcessId,
        repl: &mut R,
        ctx: &mut Context<'_, R::Msg>,
    ) {
        if let Some(outcome) = self.settled.get_mut(&tx) {
            // No longer driven here, so whoever drives it answers the
            // client; only remember that some shard truncated it.
            if matches!(outcome, Outcome::Adopted(_)) {
                return;
            }
            *outcome = Outcome::Adopted(outcome.decision().unwrap_or(decision));
        } else {
            if let Some(coord) = self.coordinating.remove(&tx) {
                // Decided out-of-band (the shard already truncated the
                // transaction): no quorum was observed this incarnation.
                ctx.obs_milestone(tx, TxMilestone::Decided, 0);
                ctx.obs_gauge("obs_inflight_window", self.coordinating.len() as u64);
                for shard in coord.placement.shards() {
                    let voted = coord.progress(shard, repl.view(shard).epoch);
                    if let Some(pos) = voted.and_then(|progress| progress.pos) {
                        let decided = Items::one(DecisionItem { pos, decision });
                        repl.distribute_decisions(shard, decided, ctx);
                    }
                }
                self.settled.insert(tx, Outcome::Adopted(decision));
            }
            ctx.send(client, R::Msg::decision_client(tx, decision));
        }
        self.admission.remove(tx);
        // An out-of-band decision also frees an admission slot.
        self.drain_admission(repl, ctx);
    }

    /// Lines 70–73 / 167–170: become a recovery coordinator for `tx` if the
    /// hosting member of `own_shard` holds it prepared (the line 71
    /// precondition): `prepared` is what its log answers for `tx`, see
    /// [`crate::log::CertificationLog::prepared_tx`].
    pub fn take_over<R: Replication>(
        &mut self,
        tx: TxId,
        prepared: Option<(Position, ProcessId, Vec<ShardId>)>,
        own_shard: ShardId,
        repl: &mut R,
        ctx: &mut Context<'_, R::Msg>,
    ) {
        let Some((pos, client, shards)) = prepared else {
            return;
        };
        // The host holds `tx` prepared, so however it was settled here never
        // reached the host's own log: drive it again. Its own slot is known
        // already, so a `TxDecided` answer reaches the host's shard too.
        self.settled.remove(&tx);
        let epoch = repl.view(own_shard).epoch;
        let coord = self.coord_entry(tx, client, &shards);
        coord.progress_mut(own_shard, epoch).pos = Some(pos);
        // Line 73: send PREPARE(t, ⊥) to the leaders of all shards of t
        // (`⊥` because a recovery coordinator has no full payload).
        self.resend_prepares(tx, None, repl, ctx);
        self.arm_retry_timer(ctx);
        ctx.add_counter("retries_started", 1);
        ctx.ctrl_milestone(
            CtrlMilestone::CoordinatorHandoff,
            Some(own_shard),
            tx.as_u64(),
        );
    }

    /// This process's view of `shard` moved to a newer epoch: re-sends
    /// `PREPARE` to the shard's leader in that view for every coordinated
    /// transaction that is incomplete on `shard` in it, as one
    /// `PREPARE_BATCH` restricted to `shard` (the extended version's `retry`,
    /// which any process may run at any time). Without it a stalled
    /// transaction waits for its backoff deadline and the next
    /// re-transmission tick; its backoff is left as it is, and the tick stays
    /// the fallback for anything this re-drive loses.
    pub fn on_view_change<R: Replication>(
        &mut self,
        shard: ShardId,
        repl: &mut R,
        ctx: &mut Context<'_, R::Msg>,
    ) {
        let view = repl.view(shard);
        let stalled: Vec<TxId> = self
            .coordinating
            .iter()
            .filter(|(_, coord)| {
                coord.placement.shards().any(|s| s == shard) && !coord.shard_complete(shard, &view)
            })
            .map(|(tx, _)| *tx)
            .collect();
        if stalled.is_empty() {
            return;
        }
        ctx.add_counter("prepares_redriven_on_view_change", stalled.len() as u64);
        self.send_prepares(&stalled, Some(&[shard]), repl, ctx);
    }

    /// Coordinator re-transmission: re-sends `PREPARE` for coordinated
    /// transactions that have not completed (e.g. because a shard
    /// reconfigured mid-flight or a message raced with an epoch change).
    pub fn retry_tick<R: Replication>(&mut self, repl: &mut R, ctx: &mut Context<'_, R::Msg>) {
        self.retry_timer_armed = false;
        let now = ctx.now().as_micros();
        // Flow control: only transactions whose backoff deadline has passed
        // re-drive this tick, not the whole pending set every tick.
        let pending: Vec<TxId> = self
            .coordinating
            .iter()
            .filter(|(_, c)| Self::backoff_due(c, now))
            .map(|(tx, _)| *tx)
            .collect();
        // A stalled coordinator may be working from a stale view: pushed
        // configuration changes travel over faultable links, and a
        // reconfiguration that excluded this process never tells it. Refresh
        // the view of every shard a *due* pending transaction touches;
        // backoff gates these polls too, so a backlogged coordinator does not
        // flood the configuration service.
        if !pending.is_empty() {
            let stale: BTreeSet<ShardId> = pending
                .iter()
                .filter_map(|tx| self.coordinating.get(tx))
                .flat_map(|coord| coord.placement.shards())
                .collect();
            repl.refresh_views(&stale, ctx);
        }
        for tx in pending {
            self.backoff_fired(tx, ctx);
            // Resend only to shards that are not yet complete in the current
            // epoch.
            let coord = &self.coordinating[&tx];
            let incomplete: Vec<ShardId> = coord
                .placement
                .shards()
                .filter(|shard| !coord.shard_complete(*shard, &repl.view(*shard)))
                .collect();
            if !incomplete.is_empty() {
                self.resend_prepares(tx, Some(&incomplete), repl, ctx);
            }
        }
        self.arm_retry_timer(ctx);
    }

    /// Hands every undecided transaction to the leaders of its shards in the
    /// current view and stops driving it here. For a process that learns it
    /// is no longer part of the configuration and whose votes the members
    /// therefore refuse: any leader whose certification log contains the
    /// transaction takes over as recovery coordinator (line 70), and leaders
    /// that never saw it ignore the request.
    pub fn hand_off<R: Replication>(&mut self, repl: &mut R, ctx: &mut Context<'_, R::Msg>) {
        for (tx, coord) in std::mem::take(&mut self.coordinating) {
            for shard in coord.placement.shards() {
                if let Some(leader) = repl.view(shard).leader {
                    ctx.send(leader, R::Msg::retry(tx));
                }
            }
            // Stop retrying locally; the client's decision now comes from the
            // member that takes the transaction over.
            self.settled.insert(tx, Outcome::HandedOff);
            ctx.ctrl_milestone(CtrlMilestone::CoordinatorHandoff, None, tx.as_u64());
            ctx.add_counter("retries_handed_off", 1);
        }
        // Handed-off transactions free admission-window slots.
        self.drain_admission(repl, ctx);
    }
}

#[cfg(test)]
mod tests {
    use ratc_sim::{Actor, SimConfig, SimTime, World};
    use ratc_types::{ExplicitSharding, Key, Version};

    use super::*;

    /// The test vocabulary: the five shared variants plus the upcalls a
    /// hosting replica would translate from its own messages.
    #[derive(Debug, Clone)]
    enum TestMsg {
        Certify {
            tx: TxId,
            payload: Payload,
            client: ProcessId,
        },
        DecisionClient {
            tx: TxId,
            decision: Decision,
        },
        Retry {
            tx: TxId,
        },
        TxDecided {
            tx: TxId,
            decision: Decision,
            client: ProcessId,
        },
        PrepareBatch {
            batch: PrepareBatch,
        },
        PrepareAckBatch {
            epoch: Epoch,
            shard: ShardId,
            items: Items<PreparedItem>,
        },
        /// The sender, a follower of `shard`, acknowledged the votes of `txs`.
        Acks {
            shard: ShardId,
            txs: Vec<TxId>,
        },
        /// The host learned it is excluded from the configuration.
        Excluded,
        /// The host learned a newer configuration of `shard`, led by
        /// `leader` with the shard's old follower.
        NewView {
            shard: ShardId,
            leader: ProcessId,
        },
    }

    crate::impl_commit_msg!(TestMsg);

    /// Records what the coordinator asks of the replication layer and
    /// persists nothing: acknowledgements are the test's to inject.
    #[derive(Default)]
    struct Recorder {
        views: BTreeMap<ShardId, (ProcessId, Vec<ProcessId>)>,
        /// Shards whose view moved past [`EPOCH`].
        epochs: BTreeMap<ShardId, Epoch>,
        persisted: Vec<(ShardId, Vec<TxId>)>,
        distributed: Vec<(ShardId, Vec<Decision>)>,
        refreshed: Vec<BTreeSet<ShardId>>,
    }

    const EPOCH: Epoch = Epoch::ZERO;

    impl Replication for Recorder {
        type Msg = TestMsg;

        fn view(&self, shard: ShardId) -> ShardView<'_> {
            let (leader, members) = &self.views[&shard];
            ShardView {
                epoch: self.epochs.get(&shard).copied().unwrap_or(EPOCH),
                leader: Some(*leader),
                members,
            }
        }

        fn persist_votes(
            &mut self,
            shard: ShardId,
            items: Items<PreparedItem>,
            _ctx: &mut Context<'_, TestMsg>,
        ) -> Option<ProcessId> {
            self.persisted
                .push((shard, items.iter().map(|i| i.tx).collect()));
            None
        }

        fn distribute_decisions(
            &mut self,
            shard: ShardId,
            decisions: Items<DecisionItem>,
            _ctx: &mut Context<'_, TestMsg>,
        ) {
            let decided = decisions.iter().map(|i| i.decision).collect();
            self.distributed.push((shard, decided));
        }

        fn refresh_views(&mut self, shards: &BTreeSet<ShardId>, _ctx: &mut Context<'_, TestMsg>) {
            self.refreshed.push(shards.clone());
        }
    }

    /// A replica reduced to its coordinator.
    struct Host {
        coord: Coordinator,
        repl: Recorder,
    }

    impl Actor<TestMsg> for Host {
        fn on_message(&mut self, from: ProcessId, msg: TestMsg, ctx: &mut Context<'_, TestMsg>) {
            let Host { coord, repl } = self;
            match msg {
                TestMsg::Certify {
                    tx,
                    payload,
                    client,
                } => coord.certify(tx, payload, client, repl, ctx),
                TestMsg::PrepareAckBatch {
                    epoch,
                    shard,
                    items,
                } => coord.on_prepare_ack(epoch, shard, items, repl, ctx),
                TestMsg::Acks { shard, txs } => {
                    let acks = txs.iter().map(|tx| (*tx, None));
                    coord.record_acks(from, shard, EPOCH, acks, repl, ctx)
                }
                TestMsg::TxDecided {
                    tx,
                    decision,
                    client,
                } => coord.on_tx_decided(tx, decision, client, repl, ctx),
                TestMsg::Excluded => coord.hand_off(repl, ctx),
                TestMsg::NewView { shard, leader } => {
                    let epoch = repl.view(shard).epoch.next();
                    repl.epochs.insert(shard, epoch);
                    let (old_leader, members) = repl.views.get_mut(&shard).expect("known shard");
                    members.retain(|p| p != old_leader);
                    members.insert(0, leader);
                    *old_leader = leader;
                    coord.on_view_change(shard, repl, ctx);
                }
                TestMsg::DecisionClient { .. }
                | TestMsg::Retry { .. }
                | TestMsg::PrepareBatch { .. } => {}
            }
        }

        fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<'_, TestMsg>) {
            assert_eq!(tag, RETRY_TICK, "batches of one never arm the batch timer");
            self.coord.retry_tick(&mut self.repl, ctx);
        }

        fn on_restart(&mut self, _ctx: &mut Context<'_, TestMsg>) {
            self.coord.reset();
        }
    }

    /// Plays every leader, follower and the client: records, never answers.
    #[derive(Default)]
    struct Sink(Vec<TestMsg>);

    impl Actor<TestMsg> for Sink {
        fn on_message(&mut self, _from: ProcessId, msg: TestMsg, _ctx: &mut Context<'_, TestMsg>) {
            self.0.push(msg);
        }
    }

    /// Two shards of a leader and a follower each, a client, and the host.
    struct Rig {
        world: World<TestMsg>,
        leaders: [ProcessId; 2],
        followers: [ProcessId; 2],
        client: ProcessId,
        host: ProcessId,
    }

    fn shard(i: usize) -> ShardId {
        ShardId::new(i as u32)
    }

    impl Rig {
        fn new() -> Rig {
            let mut world = World::new(SimConfig::default());
            let mut sink = || world.add_actor(Sink::default());
            let (leaders, followers, client) = ([sink(), sink()], [sink(), sink()], sink());
            let sharding = ExplicitSharding::new(2, shard(0)).with(Key::new("b"), shard(1));
            let coord = Coordinator::new(Arc::new(sharding));
            let views = (0..2)
                .map(|s| (shard(s), (leaders[s], vec![leaders[s], followers[s]])))
                .collect();
            let repl = Recorder {
                views,
                ..Recorder::default()
            };
            let host = world.add_actor(Host { coord, repl });
            Rig {
                world,
                leaders,
                followers,
                client,
                host,
            }
        }

        /// Delivers everything in flight (well short of the 20 ms retry tick).
        fn settle(&mut self) {
            let until = self.world.now().as_micros() + 500;
            self.world.run_until(SimTime::from_micros(until));
        }

        /// `certify(tx)` of a transaction reading `keys` ("a": shard 0,
        /// "b": shard 1).
        fn certify(&mut self, tx: u64, keys: &[&str]) {
            let payload = keys
                .iter()
                .fold(Payload::builder(), |b, k| {
                    b.read(Key::new(*k), Version::ZERO)
                })
                .build()
                .expect("well-formed");
            self.certify_payload(tx, payload);
        }

        fn certify_payload(&mut self, tx: u64, payload: Payload) {
            let certify = TestMsg::Certify {
                tx: TxId::new(tx),
                payload,
                client: self.client,
            };
            self.world.send_from(self.client, self.host, certify);
            self.settle();
        }

        /// The leader of shard `s` votes commit on `tx`.
        fn vote(&mut self, s: usize, tx: u64) {
            self.vote_in(EPOCH, s, tx);
        }

        /// The leader of shard `s` votes commit on `tx` in `epoch`.
        fn vote_in(&mut self, epoch: Epoch, s: usize, tx: u64) {
            let item = PreparedItem {
                pos: Position::new(tx),
                tx: TxId::new(tx),
                payload: Payload::empty(),
                vote: Decision::Commit,
                shards: vec![shard(s)],
                client: self.client,
            };
            let ack = TestMsg::PrepareAckBatch {
                epoch,
                shard: shard(s),
                items: Items::one(item),
            };
            self.world.send_from(self.leaders[s], self.host, ack);
            self.settle();
        }

        /// The follower of shard `s` acknowledges the vote on `tx`.
        fn ack(&mut self, s: usize, tx: u64) {
            let acks = TestMsg::Acks {
                shard: shard(s),
                txs: vec![TxId::new(tx)],
            };
            self.world.send_from(self.followers[s], self.host, acks);
            self.settle();
        }

        /// `certify` of transactions `1..=count`, each reading "a", sent all
        /// at once: one by one, the first would reach its retry tick.
        fn flood(&mut self, count: u64) {
            let payload = Payload::builder().read(Key::new("a"), Version::ZERO);
            for tx in 1..=count {
                let certify = TestMsg::Certify {
                    tx: TxId::new(tx),
                    payload: payload.clone().build().expect("well-formed"),
                    client: self.client,
                };
                self.world.send_from(self.client, self.host, certify);
            }
            self.settle();
        }

        fn send(&mut self, msg: TestMsg) {
            self.world.send_from(self.leaders[0], self.host, msg);
            self.settle();
        }

        fn host(&self) -> &Host {
            self.world.actor::<Host>(self.host).expect("host")
        }

        /// The transactions `pid` was sent a `PREPARE` for, in order.
        fn prepares_at(&self, pid: ProcessId) -> Vec<u64> {
            let batches = self.prepare_batches_at(pid).into_iter().flatten();
            batches.map(|item| item.tx.as_u64()).collect()
        }

        /// The `PREPARE_BATCH`es `pid` was sent, in order.
        fn prepare_batches_at(&self, pid: ProcessId) -> Vec<Vec<PrepareItem>> {
            let sink = self.world.actor::<Sink>(pid).expect("sink");
            let batches = sink.0.iter().filter_map(|msg| match msg {
                TestMsg::PrepareBatch { batch } => Some(batch.items.iter().cloned().collect()),
                _ => None,
            });
            batches.collect()
        }
    }

    /// Every way a transaction stops (or resumes) being driven here, and
    /// every late message about one that has: `coordinating`, which the
    /// admission window counts, holds exactly the driven ones, and what is
    /// kept of the others still answers the client and the shards. The
    /// columns are cumulative.
    #[test]
    fn exactly_the_driven_transactions_are_coordinated_after_every_exit() {
        use Decision::{Abort, Commit};
        let mut rig = Rig::new();
        for tx in 1..=3 {
            rig.certify(tx, &["a"]);
        }
        let decided_elsewhere = TestMsg::TxDecided {
            tx: TxId::new(2),
            decision: Abort,
            client: rig.client,
        };
        let duplicate = decided_elsewhere.clone();
        type Step = Box<dyn Fn(&mut Rig)>;
        // (exit, step, driven, decisions sent to shard 0, decisions sent to
        // the client)
        type Row = (&'static str, Step, Vec<u64>, Vec<Decision>, usize);
        let exits: Vec<Row> = vec![
            (
                "vote without quorum",
                Box::new(|r| r.vote(0, 1)),
                vec![1, 2, 3],
                vec![],
                0,
            ),
            (
                "quorum decision",
                Box::new(|r| r.ack(0, 1)),
                vec![2, 3],
                vec![Commit],
                1,
            ),
            (
                "adopted TxDecided (no position known yet: nothing to tell shard 0)",
                Box::new(move |r| r.send(decided_elsewhere.clone())),
                vec![3],
                vec![Commit],
                2,
            ),
            (
                "duplicate ack",
                Box::new(|r| r.ack(0, 1)),
                vec![3],
                vec![Commit],
                2,
            ),
            (
                "late vote for the transaction decided here",
                Box::new(|r| r.vote(0, 1)),
                vec![3],
                vec![Commit],
                2,
            ),
            (
                "late vote for the adopted one: the shard is told, at the ack's position",
                Box::new(|r| r.vote(0, 2)),
                vec![3],
                vec![Commit, Abort],
                2,
            ),
            (
                "duplicate TxDecided",
                Box::new(move |r| r.send(duplicate.clone())),
                vec![3],
                vec![Commit, Abort],
                2,
            ),
            (
                "re-submitted certify of a decided transaction: answered from the record",
                Box::new(|r| r.certify(1, &["a"])),
                vec![3],
                vec![Commit, Abort],
                3,
            ),
            (
                "hand-off",
                Box::new(|r| r.send(TestMsg::Excluded)),
                vec![],
                vec![Commit, Abort],
                3,
            ),
            (
                "late vote for the handed-off transaction",
                Box::new(|r| r.vote(0, 3)),
                vec![],
                vec![Commit, Abort],
                3,
            ),
            (
                "client re-drive of the handed-off transaction, with a new payload",
                Box::new(|r| r.certify(3, &["a", "b"])),
                vec![3],
                vec![Commit, Abort],
                3,
            ),
            (
                "reset",
                Box::new(|r| {
                    r.world.crash(r.host);
                    assert!(r.world.restart(r.host));
                    r.settle();
                }),
                vec![],
                vec![Commit, Abort],
                3,
            ),
        ];
        for (exit, step, driven, told_shard, told_client) in exits {
            step(&mut rig);
            let coord = &rig.host().coord;
            let expected: Vec<TxId> = driven.into_iter().map(TxId::new).collect();
            assert_eq!(coord.undecided_transactions(), expected, "after {exit}");
            assert_eq!(
                coord.undecided_coordinated(),
                expected.len(),
                "after {exit}"
            );
            let distributed = rig.host().repl.distributed.iter();
            let to_shard: Vec<Decision> = distributed.flat_map(|(_, d)| d.clone()).collect();
            assert_eq!(to_shard, told_shard, "after {exit}");
            let client = rig.world.actor::<Sink>(rig.client).expect("client");
            assert_eq!(client.0.len(), told_client, "after {exit}");
        }
        // The hand-off asked the shard's leader to take transaction 3 over,
        // and the re-drive prepared the shards of the *new* payload.
        let leader = rig.world.actor::<Sink>(rig.leaders[0]).expect("leader");
        let retried = |m: &TestMsg| matches!(m, TestMsg::Retry { tx } if tx.as_u64() == 3);
        assert_eq!(leader.0.iter().filter(|m| retried(m)).count(), 1);
        assert_eq!(rig.prepares_at(rig.leaders[0]), vec![1, 2, 3, 3]);
        assert_eq!(rig.prepares_at(rig.leaders[1]), vec![3]);
    }

    #[test]
    fn a_decided_coordination_releases_its_payload() {
        let mut rig = Rig::new();
        let key = Key::new("a");
        let payload = Payload::builder().read(key.clone(), Version::ZERO);
        rig.certify_payload(1, payload.build().expect("well-formed"));
        // A payload is stored once however many handles share it, so the
        // key counts payloads, not copies: `key` itself and the one
        // submitted, which the coordinator holds and — every key living on
        // shard 0 — the `PREPARE` shares instead of a restricted copy.
        assert_eq!(key.ref_count(), 2);
        let leader = rig.world.actor_mut::<Sink>(rig.leaders[0]).expect("leader");
        leader.0.clear();
        assert_eq!(key.ref_count(), 2, "held while the transaction is driven");
        rig.vote(0, 1);
        rig.ack(0, 1);
        assert!(rig.host().coord.undecided_transactions().is_empty());
        assert_eq!(key.ref_count(), 1, "the settled record kept the payload");
    }

    #[test]
    fn the_window_admits_parked_submissions_fifo_when_a_slot_frees() {
        let mut rig = Rig::new();
        let window = flow::WINDOW as u64;
        rig.flood(window + 2);
        let mut admitted: Vec<u64> = (1..=window).collect();
        assert_eq!(
            rig.prepares_at(rig.leaders[0]),
            admitted,
            "the last two are parked"
        );
        assert_eq!(rig.world.metrics().counter("admission_queued"), 2);
        admitted.push(window + 1);
        // The second, late round of replies frees no second slot.
        for _ in 0..2 {
            rig.vote(0, 1);
            rig.ack(0, 1);
            assert_eq!(rig.prepares_at(rig.leaders[0]), admitted);
            assert_eq!(rig.host().coord.undecided_coordinated(), flow::WINDOW);
        }
        let client = rig.world.actor::<Sink>(rig.client).expect("client");
        let decided = client.0.iter().map(|msg| match msg {
            TestMsg::DecisionClient { tx, decision } => (tx.as_u64(), *decision),
            other => panic!("the client only hears decisions, got {other:?}"),
        });
        assert_eq!(decided.collect::<Vec<_>>(), vec![(1, Decision::Commit)]);
    }

    /// A hand-off empties the window, so the submissions parked behind it
    /// are prepared at once, not at the next retry tick.
    #[test]
    fn a_hand_off_admits_the_parked_submissions_at_once() {
        let mut rig = Rig::new();
        let window = flow::WINDOW as u64;
        rig.flood(window + 2);
        let admitted: Vec<u64> = (1..=window).collect();
        assert_eq!(rig.prepares_at(rig.leaders[0]), admitted, "two parked");
        rig.send(TestMsg::Excluded);
        let all: Vec<u64> = (1..=window + 2).collect();
        assert_eq!(rig.prepares_at(rig.leaders[0]), all);
        let parked = [window + 1, window + 2].map(TxId::new);
        assert_eq!(rig.host().coord.undecided_transactions(), parked);
        assert!(rig.world.now().as_micros() < RETRY_INTERVAL.as_micros());
    }

    #[test]
    fn a_superseding_certify_before_its_backoff_deadline_sends_no_second_volley() {
        let mut rig = Rig::new();
        rig.certify(1, &["a", "b"]);
        rig.certify(1, &["a", "b"]);
        assert_eq!(rig.prepares_at(rig.leaders[0]), vec![1]);
        assert_eq!(rig.prepares_at(rig.leaders[1]), vec![1]);
        assert_eq!(rig.host().coord.undecided_coordinated(), 1);
    }

    #[test]
    fn the_retry_tick_re_prepares_only_shards_lacking_a_vote_or_an_ack() {
        let mut rig = Rig::new();
        // Shard 0 is complete; shard 1 of transaction 1 has a vote but no
        // acknowledgement, shard 1 of transaction 2 has neither.
        for tx in [1, 2] {
            rig.certify(tx, &["a", "b"]);
            rig.vote(0, tx);
            rig.ack(0, tx);
        }
        rig.vote(1, 1);
        // Past the first backoff deadline (20 ms ± 25 %) and the tick after.
        rig.world.run_until(SimTime::from_micros(60_000));
        assert_eq!(rig.prepares_at(rig.leaders[0]), vec![1, 2], "not re-driven");
        assert_eq!(rig.prepares_at(rig.leaders[1]), vec![1, 2, 1, 2]);
        let both: BTreeSet<ShardId> = [shard(0), shard(1)].into();
        assert_eq!(rig.host().repl.refreshed.first(), Some(&both));
        assert!(rig.host().repl.distributed.is_empty(), "nothing decided");
        assert_eq!(rig.host().repl.persisted.len(), 3, "one per vote");
    }

    /// A view change re-drives at once what stalled on the shard, and only
    /// that: one `PREPARE_BATCH` to the shard's new leader, restricted to
    /// the shard, with exactly the driven transactions incomplete on it in
    /// the new view. A decided transaction and one on the other shard are
    /// not sent, and the old leaders hear nothing more.
    #[test]
    fn a_view_change_re_prepares_at_the_new_leader_what_is_incomplete_on_the_shard() {
        let mut rig = Rig::new();
        // 1: both shards, shard 1 complete; 2: shard 0, decided; 3: shard 1
        // only; 4: shard 0, voted but not acknowledged.
        for (tx, keys) in [(1, &["a", "b"][..]), (2, &["a"]), (3, &["b"]), (4, &["a"])] {
            rig.certify(tx, keys);
        }
        rig.vote(1, 1);
        rig.ack(1, 1);
        rig.vote(0, 2);
        rig.ack(0, 2);
        rig.vote(0, 4);
        let before = [0, 1].map(|s| rig.prepares_at(rig.leaders[s]));
        let leader = rig.world.add_actor(Sink::default());
        rig.send(TestMsg::NewView {
            shard: shard(0),
            leader,
        });
        let batches = rig.prepare_batches_at(leader);
        assert_eq!(batches.len(), 1, "one batch per new leader");
        let txs: Vec<u64> = batches[0].iter().map(|item| item.tx.as_u64()).collect();
        assert_eq!(txs, vec![1, 4]);
        let only_a = Payload::builder().read(Key::new("a"), Version::ZERO);
        let only_a = only_a.build().expect("well-formed");
        for item in &batches[0] {
            assert_eq!(
                item.payload.as_ref(),
                Some(&only_a),
                "restricted to shard 0"
            );
        }
        let after = [0, 1].map(|s| rig.prepares_at(rig.leaders[s]));
        assert_eq!(after, before, "nothing to the old leaders");
        let redriven = rig
            .world
            .metrics()
            .counter("prepares_redriven_on_view_change");
        assert_eq!(redriven, 2);
        // The tick would have re-driven nothing yet: its backoff is untouched.
        assert!(rig.world.now().as_micros() < 15_000);
        // Shard 1 moves too: a vote of its old epoch no longer counts, so
        // transaction 1 is incomplete there again, beside transaction 3.
        let other = rig.world.add_actor(Sink::default());
        rig.send(TestMsg::NewView {
            shard: shard(1),
            leader: other,
        });
        assert_eq!(rig.prepares_at(other), vec![1, 3]);
        assert_eq!(rig.prepares_at(leader), vec![1, 4], "shard 0 is not sent");
    }

    /// A vote from a newer epoch than the view is dropped (line 19), and
    /// asks for the shard's configuration once, so the reply re-drives.
    #[test]
    fn a_vote_from_a_newer_epoch_is_dropped_and_refreshes_the_view() {
        let mut rig = Rig::new();
        rig.certify(1, &["a"]);
        rig.vote_in(EPOCH.next(), 0, 1);
        let expected: Vec<BTreeSet<ShardId>> = vec![[shard(0)].into()];
        assert_eq!(rig.host().repl.refreshed, expected);
        assert!(rig.host().repl.persisted.is_empty(), "the vote is dropped");
        // An older epoch's vote is dropped without a poll.
        rig.send(TestMsg::NewView {
            shard: shard(0),
            leader: rig.leaders[0],
        });
        rig.vote_in(EPOCH, 0, 1);
        assert_eq!(rig.host().repl.refreshed, expected);
        assert!(rig.host().repl.persisted.is_empty());
    }
}
