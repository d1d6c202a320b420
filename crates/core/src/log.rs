//! The per-shard certification log.
//!
//! Figure 1 keeps five parallel arrays at every replica: `txn`, `payload`,
//! `vote`, `dec` and `phase`, indexed by certification-order position, plus a
//! `next` counter pointing past the last filled slot. [`CertificationLog`]
//! bundles them into one indexed structure. Followers may have *holes* (slots
//! still in the `start` phase) because votes are persisted by coordinators
//! out of order; leaders never do.
//!
//! # Incremental certification index
//!
//! The leader's vote (line 12) needs the sets `L1` (payloads decided to
//! commit) and `L2` (payloads prepared with a commit vote, undecided). The
//! set-based accessors [`CertificationLog::committed_payloads_before`] and
//! [`CertificationLog::prepared_payloads_before`] compute them by scanning
//! every slot — O(|log|) per call, O(n²) over a run; they remain as the
//! reference the differential suites compare against. Every log instead owns
//! an [`IndexedCertifier`] (given to [`CertificationLog::with_certifier`])
//! and keeps it in lockstep with the slot phases:
//!
//! * *append / store-at* of a prepared entry with a commit vote →
//!   [`IndexedCertifier::prepare`] (entry enters `L2`);
//! * *decide* → [`IndexedCertifier::release`] (entry leaves `L2`), plus
//!   [`IndexedCertifier::apply_committed`] when the decision is commit
//!   (entry enters `L1`);
//! * a restart → [`CertificationLog::restart`]: the `L1` summary is stable
//!   state, like the slots; the `L2` lock table is volatile, so it is
//!   cleared ([`IndexedCertifier::clear_prepared`]) and rebuilt from the
//!   retained slots prepared with a commit vote.
//!
//! Decides may arrive out of order and slots may be holes; both are fine
//! because the index transitions are per-position, idempotent, and
//! order-insensitive (certification functions are set-based). With the index
//! in place, [`CertificationLog::vote_at`] answers the vote in O(|payload|).
//!
//! # Checkpointed truncation
//!
//! The paper (§6) assumes decided log prefixes are garbage-collected; without
//! that, long-running histories are memory-bound rather than protocol-bound.
//! [`CertificationLog::truncate_to`] folds a *fully-decided, hole-free*
//! prefix into a [`Checkpoint`] and frees the physical slots. Truncation is
//! each replica's own business: whenever it records decisions, a replica
//! folds its own decided prefix once a fold batch is due
//! ([`CertificationLog::truncate_if_due`]); nothing about its peers' logs is
//! needed, because a truncated decision stays answerable from the checkpoint
//! (see below) and recovery asks for it there. Folding a slot keeps exactly
//! what recovery needs of it:
//!
//! * **per-position decisions** — `(txn, dec)` of every truncated slot, in a
//!   vector indexed by position, so no decision recovery might still need is
//!   ever lost (recovery coordinators that re-PREPARE a truncated
//!   transaction are answered with its final decision instead of a re-ack);
//! * **no per-key state** — `f_s` reads `L1` only through the index, which
//!   summarised every folded commit while its slot was live. That summary
//!   is part of the log's stable state: a restart keeps it and `NEW_STATE`
//!   ships it whole, so folding touches none of a slot's keys;
//! * **no lock state** — `g_s`'s read/write locks belong to *undecided*
//!   transactions, and undecided slots are never truncated (the truncation
//!   point is clamped to [`CertificationLog::decided_frontier`]), so the
//!   entire `L2` summary lives in the retained suffix.
//!
//! Invariants maintained by truncation:
//!
//! 1. `base ≤ decided_frontier ≤ next`: every position below `base` is folded
//!    into the checkpoint; every position below `decided_frontier` is either
//!    folded or a retained, decided slot.
//! 2. [`CertificationLog::vote_at`] is unaffected: the incremental index
//!    already summarised the truncated entries when they were live.
//! 3. [`CertificationLog::get`] returns `None` below `base`;
//!    [`CertificationLog::phase`] reports [`TxPhase::Decided`] there, and
//!    [`CertificationLog::decide`]/[`CertificationLog::store_at`] below
//!    `base` are no-ops (stale messages for truncated slots are harmless).
//! 4. [`CertificationLog::position_of`] answers over checkpoint + suffix in
//!    O(1) via one tx→position map that covers retained and folded
//!    transactions alike, so folding a slot moves nothing.
//! 5. State transfer (`NEW_STATE`) clones checkpoint, suffix and index; a
//!    restart keeps all three and rebuilds only the volatile `L2` lock table
//!    ([`CertificationLog::restart`]). No index is ever rebuilt from a
//!    summary of the folded prefix, so truncation is exact for every
//!    certification policy, whatever its `f_s` reads of committed payloads.
//!
//! The set-based accessor [`CertificationLog::committed_payloads_before`]
//! *under-approximates* `L1` after truncation (the payloads are gone); it
//! remains exact for untruncated logs, which is where the differential
//! suites use it. `L2` ([`CertificationLog::prepared_payloads_before`])
//! stays exact always, per the no-lock-state invariant above.

use ratc_sim::Context;
use ratc_types::{
    Decision, Epoch, FxHashMap, IndexedCertifier, Payload, Position, ProcessId, ShardId, TxId,
};

use crate::batch::{Items, PrepareItem, PreparedItem};
use crate::coord::CommitMsg;
use crate::replica::TruncationConfig;

/// The phase of a certification-order slot (the paper's `phase` array).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TxPhase {
    /// Nothing stored yet (a hole).
    #[default]
    Start,
    /// The transaction and its vote are stored.
    Prepared,
    /// The final decision is known.
    Decided,
}

/// One slot of the certification log.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    /// The transaction occupying this slot.
    pub tx: TxId,
    /// The shard-restricted payload stored for it (possibly `ε`).
    pub payload: Payload,
    /// The shard's vote on the transaction.
    pub vote: Decision,
    /// The final decision, once known.
    pub dec: Option<Decision>,
    /// The slot's phase.
    pub phase: TxPhase,
    /// The full set of shards certifying the transaction (`shards(t)`).
    pub shards: Vec<ShardId>,
    /// The client that issued the transaction (`client(t)`).
    pub client: ProcessId,
}

/// Summary of a truncated, fully-decided, hole-free log prefix (see the
/// module docs for the invariants).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checkpoint {
    /// The transaction and final decision of every truncated slot, indexed
    /// by position: slots in `[0, base)` are folded into this checkpoint,
    /// where `base` is the vector's length.
    decided: Vec<(TxId, Decision)>,
}

impl Checkpoint {
    /// One past the last truncated position (the log's low-water mark):
    /// physical storage starts here.
    pub fn base(&self) -> Position {
        Position::new(self.decided.len() as u64)
    }

    /// Whether `pos` has been folded into this checkpoint.
    pub fn covers(&self, pos: Position) -> bool {
        pos < self.base()
    }

    /// The transaction and final decision folded at `pos`, if covered.
    pub fn decision_at(&self, pos: Position) -> Option<(TxId, Decision)> {
        self.decided.get(pos.as_usize()).copied()
    }

    /// Iterates over the folded `(position, transaction, decision)` triples.
    pub fn decisions(&self) -> impl Iterator<Item = (Position, TxId, Decision)> + '_ {
        self.decided
            .iter()
            .enumerate()
            .map(|(i, &(tx, dec))| (Position::new(i as u64), tx, dec))
    }

    /// Number of decision records in this checkpoint (folded transactions).
    pub fn decided_count(&self) -> usize {
        self.decided.len()
    }
}

/// The certification log of one replica.
///
/// Equality compares the paper-visible state (the checkpoint and the retained
/// slots); the hole counter, the tx→position map and the certification index
/// are derived caches and do not participate.
#[derive(Debug, Clone)]
pub struct CertificationLog {
    /// Folded summary of the truncated prefix `[0, base)`.
    checkpoint: Checkpoint,
    /// Physical slots for positions `base..next`.
    slots: Vec<Option<LogEntry>>,
    /// Number of `None` slots, maintained incrementally (O(1) `hole_count`).
    holes: usize,
    /// The decided frontier: every position below it is folded or decided.
    frontier: Position,
    /// Position of every transaction in the log, retained or folded (O(1)
    /// `position_of`). Folding moves nothing.
    by_tx: FxHashMap<TxId, Position>,
    /// Incremental certifier kept in lockstep with the slot phases.
    index: Box<dyn IndexedCertifier>,
}

impl PartialEq for CertificationLog {
    fn eq(&self, other: &Self) -> bool {
        self.checkpoint == other.checkpoint && self.slots == other.slots
    }
}

impl CertificationLog {
    /// Creates an empty log that maintains `index` incrementally, enabling
    /// O(|payload|) [`CertificationLog::vote_at`].
    pub fn with_certifier(index: Box<dyn IndexedCertifier>) -> Self {
        CertificationLog {
            checkpoint: Checkpoint::default(),
            slots: Vec::new(),
            holes: 0,
            frontier: Position::ZERO,
            by_tx: FxHashMap::default(),
            index,
        }
    }

    /// Crash-restart of the replica that owns this log. The checkpoint, the
    /// retained slots and the index's `L1` summary are stable state and
    /// survive; the `L2` lock table is volatile, so it is cleared and
    /// rebuilt from the retained slots prepared with a commit vote.
    pub fn restart(&mut self) {
        self.index.clear_prepared();
        let base = self.checkpoint.base().as_u64();
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some(entry) = slot {
                if entry.phase == TxPhase::Prepared && entry.vote == Decision::Commit {
                    self.index
                        .prepare(Position::new(base + i as u64), &entry.payload);
                }
            }
        }
    }

    /// Index transition for a slot that just became filled: a commit-voted
    /// prepared entry enters `L2`; an already-decided commit entry enters
    /// `L1` directly.
    fn index_fill(index: &mut Box<dyn IndexedCertifier>, pos: Position, entry: &LogEntry) {
        match entry.phase {
            TxPhase::Prepared if entry.vote == Decision::Commit => {
                index.prepare(pos, &entry.payload);
            }
            TxPhase::Decided if entry.dec == Some(Decision::Commit) => {
                index.apply_committed(pos, &entry.payload);
            }
            TxPhase::Start | TxPhase::Prepared | TxPhase::Decided => {}
        }
    }

    /// The physical slot index of `pos`, if it is not below the checkpoint.
    fn physical(&self, pos: Position) -> Option<usize> {
        pos.as_usize()
            .checked_sub(self.checkpoint.base().as_usize())
    }

    /// The paper's `next`: the index one past the last filled slot.
    pub fn next(&self) -> Position {
        Position::new(self.checkpoint.base().as_u64() + self.slots.len() as u64)
    }

    /// Number of *retained* slots (filled or holes) — the physical suffix
    /// above the checkpoint. Bounded by the undecided window once truncation
    /// runs, regardless of history length.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` if the log retains no slots (it may still cover a
    /// truncated prefix; see [`CertificationLog::checkpoint`]).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The checkpoint summarising the truncated prefix.
    pub fn checkpoint(&self) -> &Checkpoint {
        &self.checkpoint
    }

    /// One past the last truncated position (`checkpoint().base()`).
    pub fn base(&self) -> Position {
        self.checkpoint.base()
    }

    /// The decided frontier: the largest position such that every slot below
    /// it is decided (or already folded into the checkpoint), with no holes.
    /// This is the replica's own safe truncation point.
    pub fn decided_frontier(&self) -> Position {
        self.frontier
    }

    /// The entry at `pos`, if that slot is retained and filled.
    pub fn get(&self, pos: Position) -> Option<&LogEntry> {
        self.physical(pos)
            .and_then(|idx| self.slots.get(idx))
            .and_then(Option::as_ref)
    }

    /// The phase of the slot at `pos`: `Start` for holes and out-of-range
    /// positions, `Decided` for positions folded into the checkpoint.
    pub fn phase(&self, pos: Position) -> TxPhase {
        if self.checkpoint.covers(pos) {
            return TxPhase::Decided;
        }
        self.get(pos).map(|e| e.phase).unwrap_or(TxPhase::Start)
    }

    /// The position of transaction `tx`, if it appears in the log — retained
    /// or folded into the checkpoint (the `∃k. t = txn[k]` test of line 6).
    /// O(1) via the tx→position map.
    pub fn position_of(&self, tx: TxId) -> Option<Position> {
        self.by_tx.get(&tx).copied()
    }

    /// The final decision of `tx` if its slot has been folded into the
    /// checkpoint. Leaders answer re-PREPAREs of truncated transactions with
    /// this instead of a re-ack.
    pub fn truncated_decision(&self, tx: TxId) -> Option<Decision> {
        let (_, decision) = self.checkpoint.decision_at(self.position_of(tx)?)?;
        Some(decision)
    }

    /// The transaction and (optional) decision visible at `pos`, whether the
    /// slot is retained or folded into the checkpoint. Used by the invariant
    /// checkers to compare replicas across different truncation frontiers.
    pub fn slot_identity(&self, pos: Position) -> Option<(TxId, Option<Decision>)> {
        if let Some((tx, dec)) = self.checkpoint.decision_at(pos) {
            return Some((tx, Some(dec)));
        }
        self.get(pos).map(|e| (e.tx, e.dec))
    }

    /// The leader's vote of line 12 for a payload about to occupy `pos`:
    /// `f_s(L1, l) ⊓ g_s(L2, l)` against the slots strictly before `pos`,
    /// answered in O(|payload|) by the certification index.
    ///
    /// `pos` must be [`CertificationLog::next`]: the index summarises every
    /// filled slot, which is exactly the prefix before `next` — votes at
    /// interior positions would need a historical snapshot. Truncation does
    /// not affect this method: the index summarised the truncated entries
    /// while they were live.
    pub fn vote_at(&self, pos: Position, payload: &Payload) -> Decision {
        debug_assert_eq!(
            pos,
            self.next(),
            "vote_at only answers votes at the append position"
        );
        self.index.vote(payload)
    }

    /// Appends a new entry at the leader (lines 9–13): the slot index is the
    /// current `next`.
    pub fn append(&mut self, entry: LogEntry) -> Position {
        let pos = self.next();
        Self::index_fill(&mut self.index, pos, &entry);
        self.by_tx.insert(entry.tx, pos);
        self.slots.push(Some(entry));
        self.advance_frontier();
        pos
    }

    /// Stores an entry at an arbitrary position (line 24 at a follower),
    /// growing the log with holes as needed. Returns `false` if the slot was
    /// already filled (the `phase[k] = start` precondition failed) or has
    /// been folded into the checkpoint (stale message for a decided slot).
    pub fn store_at(&mut self, pos: Position, entry: LogEntry) -> bool {
        let Some(idx) = self.physical(pos) else {
            return false;
        };
        if idx >= self.slots.len() {
            self.holes += idx - self.slots.len();
            self.slots.resize(idx + 1, None);
        } else if self.slots[idx].is_some() {
            return false;
        } else {
            self.holes -= 1;
        }
        Self::index_fill(&mut self.index, pos, &entry);
        self.by_tx.insert(entry.tx, pos);
        self.slots[idx] = Some(entry);
        self.advance_frontier();
        true
    }

    /// The shard leader's step for one `PREPARE` item (lines 4–17; the RDMA
    /// protocol's lines 77–90 are the same logic):
    ///
    /// * a transaction whose slot was folded into the checkpoint is decided —
    ///   `Err` carries its final decision, which the leader answers directly
    ///   (there is no slot left to re-ack, and re-certifying it as new would
    ///   contradict the recorded decision);
    /// * a transaction already in the certification order is re-acked from
    ///   its stored slot (line 6; this serves recovery coordinators);
    /// * otherwise the vote `f_s(L1, l) ⊓ g_s(L2, l)` is computed by the
    ///   certification index in O(|payload|) and the transaction is appended
    ///   at `next` (lines 8–16). The `⊥` payload of a recovery coordinator
    ///   votes abort.
    pub fn prepare(&mut self, item: PrepareItem) -> Result<PreparedItem, Decision> {
        // One probe answers for folded and retained transactions alike; a
        // fresh transaction (nearly every item) misses it.
        if let Some(&pos) = self.by_tx.get(&item.tx) {
            if let Some((_, decision)) = self.checkpoint.decision_at(pos) {
                return Err(decision);
            }
            let entry = self
                .get(pos)
                .expect("`by_tx` names folded or retained slots");
            return Ok(PreparedItem {
                pos,
                tx: item.tx,
                payload: entry.payload.clone(),
                vote: entry.vote,
                shards: entry.shards.clone(),
                client: entry.client,
            });
        }
        let (vote, payload) = match item.payload {
            Some(l) => (self.vote_at(self.next(), &l), l),
            None => (Decision::Abort, Payload::empty()),
        };
        let pos = self.append(LogEntry {
            tx: item.tx,
            payload: payload.clone(),
            vote,
            dec: None,
            phase: TxPhase::Prepared,
            shards: item.shards.clone(),
            client: item.client,
        });
        Ok(PreparedItem {
            pos,
            tx: item.tx,
            payload,
            vote,
            shards: item.shards,
            client: item.client,
        })
    }

    /// The shard leader's step for a whole `PREPARE` (lines 4–17 / 77–90; the
    /// caller has checked the line 5 precondition, `status = leader`): the
    /// items are certified in order ([`CertificationLog::prepare`] per item).
    /// Fresh transactions are appended at a contiguous position range;
    /// already-certified ones are re-acked inside the same `PREPARE_ACK`, and
    /// truncated ones get the per-transaction `TxDecided` fast path.
    pub fn serve_prepare<M: CommitMsg>(
        &mut self,
        from: ProcessId,
        items: Items<PrepareItem>,
        shard: ShardId,
        epoch: Epoch,
        ctx: &mut Context<'_, M>,
    ) {
        let first_fresh = self.next();
        let mut acks: Items<PreparedItem> = Items::new();
        for item in items {
            let (tx, client) = (item.tx, item.client);
            match self.prepare(item) {
                Ok(ack) => acks.push(ack),
                Err(decision) => ctx.send(from, M::tx_decided(tx, decision, client)),
            }
        }
        let appended = self.next().as_u64() - first_fresh.as_u64();
        if appended > 0 {
            ctx.add_counter("leader_prepared", appended);
        }
        if !acks.is_empty() {
            ctx.send(from, M::prepare_ack_batch(epoch, shard, acks));
        }
    }

    /// The slot of `tx` if this log holds it prepared and undecided (the
    /// line 71 / 168 precondition of `retry`): its position, `client(t)` and
    /// `shards(t)`, what a recovery coordinator needs to take the transaction
    /// over. A truncated slot is decided, so it answers `None` too.
    pub fn prepared_tx(&self, tx: TxId) -> Option<(Position, ProcessId, Vec<ShardId>)> {
        let pos = self.position_of(tx)?;
        let entry = self.get(pos)?;
        (entry.phase == TxPhase::Prepared).then(|| (pos, entry.client, entry.shards.clone()))
    }

    /// A follower's step for one `ACCEPT` item (lines 23–24; line 94–95 of
    /// the RDMA protocol): store the vote if the slot is still a hole in the
    /// `start` phase. Returns `false` for an occupied or truncated slot (a
    /// duplicate or stale item — idempotent, nothing to store).
    pub fn accept(&mut self, item: PreparedItem) -> bool {
        self.store_at(
            item.pos,
            LogEntry {
                tx: item.tx,
                payload: item.payload,
                vote: item.vote,
                dec: None,
                phase: TxPhase::Prepared,
                shards: item.shards,
                client: item.client,
            },
        )
    }

    /// Records the final decision for the slot at `pos` (line 32). Deciding a
    /// hole is ignored (the replica has not yet stored the transaction; a
    /// later `NEW_STATE` will supply it), and so is re-deciding an already
    /// decided or truncated slot: decisions are unique per transaction (TCS
    /// specification), so the first decision wins and duplicates from
    /// retrying coordinators are no-ops.
    pub fn decide(&mut self, pos: Position, decision: Decision) {
        let Some(entry) = self
            .physical(pos)
            .and_then(|idx| self.slots.get_mut(idx))
            .and_then(Option::as_mut)
        else {
            return;
        };
        if entry.phase == TxPhase::Decided {
            return;
        }
        entry.dec = Some(decision);
        entry.phase = TxPhase::Decided;
        self.index.release(pos);
        if decision == Decision::Commit {
            self.index.apply_committed(pos, &entry.payload);
        }
        self.advance_frontier();
    }

    /// Advances the decided frontier over retained, decided slots.
    fn advance_frontier(&mut self) {
        let base = self.checkpoint.base().as_usize();
        loop {
            let idx = self.frontier.as_usize() - base;
            match self.slots.get(idx) {
                Some(Some(entry)) if entry.phase == TxPhase::Decided => {
                    self.frontier = self.frontier.next();
                }
                _ => break,
            }
        }
    }

    /// Folds the fully-decided, hole-free prefix below `pos` into the
    /// checkpoint and frees the physical slots. The truncation point is
    /// clamped to the [`CertificationLog::decided_frontier`], so the call is
    /// always safe: undecided slots and holes are never lost, whatever `pos`
    /// is asked for. Returns the number of slots freed.
    pub fn truncate_to(&mut self, pos: Position) -> usize {
        let target = pos.min(self.frontier);
        if target <= self.checkpoint.base() {
            return 0;
        }
        let n = (target.as_u64() - self.checkpoint.base().as_u64()) as usize;
        for slot in self.slots.drain(..n) {
            let entry = slot.expect("the decided frontier never crosses a hole");
            let decision = entry
                .dec
                .expect("only decided slots are folded into a checkpoint");
            self.checkpoint.decided.push((entry.tx, decision));
        }
        n
    }

    /// Folds the decided, hole-free prefix into the checkpoint once at least
    /// a batch of slots can be freed, per `policy`. Replicas call it whenever
    /// they record decisions. [`TruncationConfig::disabled`]'s batch of
    /// `u64::MAX` is never due.
    pub fn truncate_if_due<M>(&mut self, policy: TruncationConfig, ctx: &mut Context<'_, M>) {
        if self.frontier.as_u64().saturating_sub(self.base().as_u64()) >= policy.batch {
            let freed = self.truncate_to(self.frontier);
            ctx.add_counter("log_slots_truncated", freed as u64);
        }
    }

    /// Iterates over the retained filled slots with their positions.
    pub fn entries(&self) -> impl Iterator<Item = (Position, &LogEntry)> + '_ {
        let base = self.checkpoint.base().as_u64();
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, slot)| slot.as_ref().map(|e| (Position::new(base + i as u64), e)))
    }

    /// The transactions of the retained slots that are prepared but not yet
    /// decided, in position order.
    pub fn prepared_txs(&self) -> Vec<TxId> {
        self.entries()
            .filter(|(_, e)| e.phase == TxPhase::Prepared)
            .map(|(_, e)| e.tx)
            .collect()
    }

    /// The payloads used as `L1` at line 12: payloads of transactions decided
    /// to commit in *retained* slots strictly before `before`.
    ///
    /// This is the set-based reference path — O(|log|) per call. The vote
    /// path uses [`CertificationLog::vote_at`] instead; this accessor
    /// remains as the differential tests' reference.
    /// After truncation it under-approximates `L1` (truncated payloads are
    /// gone — their residue lives in the checkpoint); it is exact only for
    /// untruncated logs.
    pub fn committed_payloads_before(&self, before: Position) -> Vec<&Payload> {
        self.entries()
            .filter(|(pos, e)| {
                *pos < before && e.phase == TxPhase::Decided && e.dec == Some(Decision::Commit)
            })
            .map(|(_, e)| &e.payload)
            .collect()
    }

    /// The payloads used as `L2` at line 12: payloads of transactions prepared
    /// with a commit vote (and not yet decided) in slots strictly before
    /// `before`.
    ///
    /// Set-based reference path; see [`CertificationLog::committed_payloads_before`].
    /// Unlike `L1` this stays exact after truncation: undecided slots are
    /// never truncated.
    pub fn prepared_payloads_before(&self, before: Position) -> Vec<&Payload> {
        self.entries()
            .filter(|(pos, e)| {
                *pos < before && e.phase == TxPhase::Prepared && e.vote == Decision::Commit
            })
            .map(|(_, e)| &e.payload)
            .collect()
    }

    /// Number of holes (retained slots still in the `Start` phase below
    /// `next`), maintained incrementally — O(1).
    pub fn hole_count(&self) -> usize {
        debug_assert_eq!(
            self.holes,
            self.slots.iter().filter(|slot| slot.is_none()).count()
        );
        self.holes
    }

    /// Checks the `≺` relation of Figure 3 against another log: this log's
    /// prefix of length `len` must agree with `other` on every slot where
    /// this log has information (holes are allowed). Checkpoint-aware: a slot
    /// either side has folded is compared by transaction identity and final
    /// decision (payload and vote were validated before folding).
    pub fn is_prefix_with_holes_of(&self, other: &CertificationLog, len: Position) -> bool {
        for (pos, entry) in self.entries() {
            if pos >= len {
                continue;
            }
            match other.get(pos) {
                Some(other_entry) => {
                    if other_entry.tx != entry.tx
                        || other_entry.vote != entry.vote
                        || other_entry.payload != entry.payload
                    {
                        return false;
                    }
                }
                None => match other.checkpoint.decision_at(pos) {
                    Some((tx, dec)) => {
                        if tx != entry.tx || entry.dec.is_some_and(|d| d != dec) {
                            return false;
                        }
                    }
                    None => return false,
                },
            }
        }
        for (pos, tx, dec) in self.checkpoint.decisions() {
            if pos >= len {
                continue;
            }
            match other.slot_identity(pos) {
                Some((other_tx, other_dec)) => {
                    if other_tx != tx || other_dec.is_some_and(|d| d != dec) {
                        return false;
                    }
                }
                None => return false,
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use ratc_types::{CertificationPolicy, Key, Serializability, Value, Version, WriteConflict};

    fn entry(tx: u64) -> LogEntry {
        LogEntry {
            tx: TxId::new(tx),
            payload: Payload::builder()
                .read(Key::new(format!("k{tx}")), Version::new(0))
                .build()
                .expect("well-formed"),
            vote: Decision::Commit,
            dec: None,
            phase: TxPhase::Prepared,
            shards: vec![ShardId::new(0)],
            client: ProcessId::new(99),
        }
    }

    fn indexed_log() -> CertificationLog {
        CertificationLog::with_certifier(Serializability::new().indexed_certifier(ShardId::new(0)))
    }

    #[test]
    fn append_assigns_consecutive_positions() {
        let mut log = indexed_log();
        assert!(log.is_empty());
        assert_eq!(log.append(entry(1)), Position::new(0));
        assert_eq!(log.append(entry(2)), Position::new(1));
        assert_eq!(log.next(), Position::new(2));
        assert_eq!(log.len(), 2);
        assert_eq!(log.position_of(TxId::new(2)), Some(Position::new(1)));
        assert_eq!(log.position_of(TxId::new(9)), None);
        assert_eq!(log.hole_count(), 0);
    }

    #[test]
    fn store_at_creates_holes_and_rejects_overwrites() {
        let mut log = indexed_log();
        assert!(log.store_at(Position::new(2), entry(3)));
        assert_eq!(log.len(), 3);
        assert_eq!(log.hole_count(), 2);
        assert_eq!(log.phase(Position::new(0)), TxPhase::Start);
        assert_eq!(log.phase(Position::new(2)), TxPhase::Prepared);
        // A second store at the same position is rejected (phase != start).
        assert!(!log.store_at(Position::new(2), entry(4)));
        assert_eq!(log.get(Position::new(2)).unwrap().tx, TxId::new(3));
        // Filling an interior hole shrinks the count.
        assert!(log.store_at(Position::new(0), entry(1)));
        assert_eq!(log.hole_count(), 1);
    }

    #[test]
    fn decide_updates_phase_and_ignores_holes() {
        let mut log = indexed_log();
        log.append(entry(1));
        log.decide(Position::new(0), Decision::Abort);
        assert_eq!(log.phase(Position::new(0)), TxPhase::Decided);
        assert_eq!(
            log.get(Position::new(0)).unwrap().dec,
            Some(Decision::Abort)
        );
        // Deciding a hole is a no-op.
        log.decide(Position::new(7), Decision::Commit);
        assert_eq!(log.phase(Position::new(7)), TxPhase::Start);
        // Re-deciding an already decided slot is a no-op (first decision wins).
        log.decide(Position::new(0), Decision::Commit);
        assert_eq!(
            log.get(Position::new(0)).unwrap().dec,
            Some(Decision::Abort)
        );
    }

    #[test]
    fn l1_and_l2_selection() {
        let mut log = indexed_log();
        let committed = log.append(entry(1));
        log.decide(committed, Decision::Commit);
        let aborted = log.append(entry(2));
        log.decide(aborted, Decision::Abort);
        log.append(entry(3)); // prepared with commit vote
        let mut pending_abort = entry(4);
        pending_abort.vote = Decision::Abort;
        log.append(pending_abort);
        let cutoff = log.next();

        assert_eq!(log.committed_payloads_before(cutoff).len(), 1);
        assert_eq!(log.prepared_payloads_before(cutoff).len(), 1);
        // Positions at or after the cutoff are excluded.
        assert!(log.committed_payloads_before(Position::new(0)).is_empty());
    }

    #[test]
    fn prefix_with_holes_relation() {
        let mut leader = indexed_log();
        leader.append(entry(1));
        leader.append(entry(2));
        leader.append(entry(3));

        let mut follower = indexed_log();
        follower.store_at(Position::new(1), entry(2));
        assert!(follower.is_prefix_with_holes_of(&leader, leader.next()));

        // A mismatching entry violates the relation.
        let mut bad = indexed_log();
        bad.store_at(Position::new(1), entry(9));
        assert!(!bad.is_prefix_with_holes_of(&leader, leader.next()));

        // An entry beyond the leader's log violates it too.
        let mut beyond = indexed_log();
        beyond.store_at(Position::new(5), entry(5));
        assert!(!beyond.is_prefix_with_holes_of(&leader, Position::new(10)));
        // ... unless the comparison length excludes it.
        assert!(beyond.is_prefix_with_holes_of(&leader, Position::new(3)));
    }

    /// The indexed vote must match the set-based scans after any mix of
    /// appends, out-of-order decides and hole-filling stores.
    fn assert_vote_matches_scans(log: &CertificationLog, candidate: &Payload) {
        let next = log.next();
        let committed = log.committed_payloads_before(next);
        let prepared = log.prepared_payloads_before(next);
        let reference = Serializability::new()
            .shard_certifier(ShardId::new(0))
            .vote(&committed, &prepared, candidate);
        assert_eq!(log.vote_at(next, candidate), reference);
    }

    fn rw_entry(tx: u64, key: &str, read_version: u64, commit_version: u64) -> LogEntry {
        LogEntry {
            tx: TxId::new(tx),
            payload: Payload::builder()
                .read(Key::new(key), Version::new(read_version))
                .write(Key::new(key), ratc_types::Value::from("v"))
                .commit_version(Version::new(commit_version))
                .build()
                .expect("well-formed"),
            vote: Decision::Commit,
            dec: None,
            phase: TxPhase::Prepared,
            shards: vec![ShardId::new(0)],
            client: ProcessId::new(99),
        }
    }

    #[test]
    fn indexed_vote_tracks_phase_transitions() {
        let mut log = indexed_log();
        let candidate = Payload::builder()
            .read(Key::new("a"), Version::new(0))
            .build()
            .expect("well-formed");

        // Empty log: commit.
        assert_eq!(log.vote_at(log.next(), &candidate), Decision::Commit);

        // Prepared writer of "a" write-locks it.
        let pos_a = log.append(rw_entry(1, "a", 0, 5));
        assert_eq!(log.vote_at(log.next(), &candidate), Decision::Abort);
        assert_vote_matches_scans(&log, &candidate);

        // Decided commit: lock released, but the read version 0 is now stale.
        log.decide(pos_a, Decision::Commit);
        assert_eq!(log.vote_at(log.next(), &candidate), Decision::Abort);
        assert_vote_matches_scans(&log, &candidate);

        // A fresh reader of the committed version passes.
        let fresh = Payload::builder()
            .read(Key::new("a"), Version::new(5))
            .build()
            .expect("well-formed");
        assert_eq!(log.vote_at(log.next(), &fresh), Decision::Commit);
        assert_vote_matches_scans(&log, &fresh);
    }

    #[test]
    fn indexed_vote_handles_abort_decides_and_holes() {
        let mut log = indexed_log();
        let candidate = Payload::builder()
            .read(Key::new("b"), Version::new(0))
            .build()
            .expect("well-formed");

        // Store out of order, leaving a hole at 0.
        assert!(log.store_at(Position::new(1), rw_entry(2, "b", 0, 3)));
        assert_eq!(log.vote_at(log.next(), &candidate), Decision::Abort);
        assert_vote_matches_scans(&log, &candidate);

        // An abort decision releases the lock without committing anything.
        log.decide(Position::new(1), Decision::Abort);
        assert_eq!(log.vote_at(log.next(), &candidate), Decision::Commit);
        assert_vote_matches_scans(&log, &candidate);

        // Deciding the hole at 0 stays a no-op for the index too.
        log.decide(Position::new(0), Decision::Commit);
        assert_eq!(log.vote_at(log.next(), &candidate), Decision::Commit);
        assert_vote_matches_scans(&log, &candidate);
    }

    #[test]
    fn restart_rebuilds_the_lock_table_from_slots() {
        let mut log = indexed_log();
        let p0 = log.append(rw_entry(1, "x", 0, 4));
        log.decide(p0, Decision::Commit);
        log.append(rw_entry(2, "y", 0, 6));
        log.restart();
        for key in ["x", "y", "z"] {
            let candidate = Payload::builder()
                .read(Key::new(key), Version::new(0))
                .build()
                .expect("well-formed");
            assert_vote_matches_scans(&log, &candidate);
        }
    }

    #[test]
    fn clone_preserves_index_state() {
        let mut log = indexed_log();
        log.append(rw_entry(1, "x", 0, 4));
        let cloned = log.clone();
        let candidate = Payload::builder()
            .read(Key::new("x"), Version::new(0))
            .build()
            .expect("well-formed");
        assert_eq!(cloned.vote_at(cloned.next(), &candidate), Decision::Abort);
        // Logs compare by checkpoint + slots; derived caches do not participate.
        assert_eq!(log, cloned);
        assert_eq!(log, {
            let mut rebuilt = indexed_log();
            rebuilt.append(rw_entry(1, "x", 0, 4));
            rebuilt.restart();
            rebuilt
        });
    }

    // -- checkpointed truncation ---------------------------------------------

    #[test]
    fn decided_frontier_tracks_holes_and_decides() {
        let mut log = indexed_log();
        assert_eq!(log.decided_frontier(), Position::ZERO);
        let p0 = log.append(entry(1));
        let p1 = log.append(entry(2));
        assert_eq!(log.decided_frontier(), Position::ZERO);
        // Deciding out of order does not advance past the undecided slot.
        log.decide(p1, Decision::Commit);
        assert_eq!(log.decided_frontier(), Position::ZERO);
        log.decide(p0, Decision::Abort);
        assert_eq!(log.decided_frontier(), Position::new(2));
        // A hole blocks the frontier even after later slots are decided.
        log.store_at(Position::new(3), entry(4));
        log.decide(Position::new(3), Decision::Commit);
        assert_eq!(log.decided_frontier(), Position::new(2));
        log.store_at(Position::new(2), entry(3));
        assert_eq!(log.decided_frontier(), Position::new(2));
        log.decide(Position::new(2), Decision::Commit);
        assert_eq!(log.decided_frontier(), Position::new(4));
    }

    #[test]
    fn truncate_folds_decided_prefix_and_frees_slots() {
        let mut log = indexed_log();
        let p0 = log.append(rw_entry(1, "x", 0, 4));
        let p1 = log.append(rw_entry(2, "y", 0, 6));
        let p2 = log.append(rw_entry(3, "z", 0, 8));
        log.decide(p0, Decision::Commit);
        log.decide(p1, Decision::Abort);

        // Only the decided prefix [0, 2) can be folded, whatever is asked.
        assert_eq!(log.truncate_to(Position::new(99)), 2);
        assert_eq!(log.base(), Position::new(2));
        assert_eq!(log.len(), 1);
        assert_eq!(log.next(), Position::new(3));

        // Physical slots are gone; phases and identities survive.
        assert_eq!(log.get(p0), None);
        assert_eq!(log.phase(p0), TxPhase::Decided);
        assert_eq!(log.phase(p1), TxPhase::Decided);
        assert_eq!(log.get(p2).unwrap().tx, TxId::new(3));
        assert_eq!(
            log.slot_identity(p0),
            Some((TxId::new(1), Some(Decision::Commit)))
        );
        assert_eq!(
            log.slot_identity(p1),
            Some((TxId::new(2), Some(Decision::Abort)))
        );

        // position_of and the truncated decision are answered from the
        // checkpoint (satellite regression: O(1) map survives truncation).
        assert_eq!(log.position_of(TxId::new(1)), Some(p0));
        assert_eq!(log.position_of(TxId::new(2)), Some(p1));
        assert_eq!(log.position_of(TxId::new(3)), Some(p2));
        assert_eq!(log.truncated_decision(TxId::new(1)), Some(Decision::Commit));
        assert_eq!(log.truncated_decision(TxId::new(2)), Some(Decision::Abort));
        assert_eq!(log.truncated_decision(TxId::new(3)), None);

        // Stale messages for the truncated prefix are no-ops.
        assert!(!log.store_at(p0, rw_entry(9, "q", 0, 1)));
        log.decide(p1, Decision::Commit); // first decision (abort) wins
        assert_eq!(
            log.slot_identity(p1),
            Some((TxId::new(2), Some(Decision::Abort)))
        );

        // Votes are unaffected: the committed writer of "x" is still seen.
        let stale = Payload::builder()
            .read(Key::new("x"), Version::new(0))
            .build()
            .expect("well-formed");
        assert_eq!(log.vote_at(log.next(), &stale), Decision::Abort);
        // "y" was aborted: reading version 0 of it is fine, but "z" is still
        // write-locked by the prepared transaction at p2.
        let fine = Payload::builder()
            .read(Key::new("y"), Version::new(0))
            .build()
            .expect("well-formed");
        assert_eq!(log.vote_at(log.next(), &fine), Decision::Commit);

        // A second truncation with nothing new decided is a no-op.
        assert_eq!(log.truncate_to(Position::new(99)), 0);
    }

    #[test]
    fn truncate_never_crosses_holes_or_undecided_slots() {
        let mut log = indexed_log();
        let p0 = log.append(rw_entry(1, "a", 0, 2));
        log.decide(p0, Decision::Commit);
        log.store_at(Position::new(2), rw_entry(3, "c", 0, 3));
        log.decide(Position::new(2), Decision::Commit);
        // Hole at 1: only [0, 1) is truncatable.
        assert_eq!(log.truncate_to(Position::new(3)), 1);
        assert_eq!(log.base(), Position::new(1));
        assert_eq!(log.hole_count(), 1);
        // Fill and decide the hole; now the rest can go.
        assert!(log.store_at(Position::new(1), rw_entry(2, "b", 0, 4)));
        log.decide(Position::new(1), Decision::Abort);
        assert_eq!(log.truncate_to(Position::new(3)), 2);
        assert_eq!(log.base(), Position::new(3));
        assert_eq!(log.len(), 0);
        assert_eq!(log.next(), Position::new(3));
        assert_eq!(log.checkpoint().decided_count(), 3);
    }

    /// The policies of the restart tests: both built-in indexes. A policy
    /// whose `f_s` reads committed values, over `ratc-spec`'s mirror, is
    /// walked through truncations and restarts by `ratc-spec::truncation`.
    const POLICIES: [&str; 2] = ["serializability", "write-conflict"];

    fn policy_log(policy: &str) -> CertificationLog {
        match policy {
            "serializability" => indexed_log(),
            _ => CertificationLog::with_certifier(
                WriteConflict::new().indexed_certifier(ShardId::new(0)),
            ),
        }
    }

    const SLOTS: u64 = 200;

    /// Plays one history of [`SLOTS`] transactions over 40 keys, each key
    /// written by five of them: every seventh aborts, and the last five stay
    /// prepared. With `batch`, the log
    /// folds its decided prefix after every `batch` transactions.
    fn play(log: &mut CertificationLog, batch: Option<u64>) {
        for i in 0..SLOTS {
            let key = Key::new(format!("k{}", i % 40));
            let payload = Payload::builder()
                .read(key.clone(), Version::new(i))
                .write(key, Value::from("v"))
                .commit_version(Version::new(i + 1))
                .build()
                .expect("well-formed");
            let pos = log.append(LogEntry {
                payload,
                ..entry(i)
            });
            if i < SLOTS - 5 {
                let decision = [Decision::Abort, Decision::Commit][usize::from(i % 7 != 0)];
                log.decide(pos, decision);
            }
            if batch.is_some_and(|batch| (i + 1) % batch == 0) {
                log.truncate_to(log.decided_frontier());
            }
        }
        if batch.is_some() {
            log.truncate_to(log.decided_frontier());
        }
    }

    /// The log's votes on reading and writing each key (and one never
    /// written) at versions around the history's.
    fn votes(log: &CertificationLog) -> Vec<Decision> {
        let probes = (0..41).flat_map(|key| [0, 150, 199, 200, 201].map(|v| (key, v)));
        probes
            .map(|(key, version)| {
                let key = Key::new(format!("k{key}"));
                let payload = Payload::builder()
                    .read(key.clone(), Version::new(version))
                    .write(key, Value::from("w"))
                    .commit_version(Version::new(version + 1))
                    .build()
                    .expect("well-formed");
                log.vote_at(log.next(), &payload)
            })
            .collect()
    }

    /// A log truncated at batch 1 or 32 and then restarted votes exactly
    /// like one that never truncated and never restarted.
    #[test]
    fn restart_after_truncation_votes_like_a_log_that_never_truncated() {
        for policy in POLICIES {
            let mut untouched = policy_log(policy);
            play(&mut untouched, None);
            let live = votes(&untouched);
            assert!(
                live.contains(&Decision::Abort) && live.contains(&Decision::Commit),
                "{policy}: the probes decide nothing"
            );
            for batch in [1, 32] {
                let mut log = policy_log(policy);
                play(&mut log, Some(batch));
                assert_eq!((log.base(), log.len()), (Position::new(SLOTS - 5), 5));
                log.restart();
                assert_eq!(votes(&log), live, "{policy} at batch {batch}");
            }
        }
    }

    /// What the checkpoint holds does not depend on the batching in which
    /// slots were folded: one `(tx, decision)` per folded slot, as the
    /// untruncated log recorded it.
    #[test]
    fn the_checkpoint_does_not_depend_on_the_truncation_batching() {
        let [mut untouched, mut one, mut many] = [(); 3].map(|()| indexed_log());
        play(&mut untouched, None);
        play(&mut one, Some(1));
        play(&mut many, Some(32));
        assert_eq!(one, many, "same history, same checkpoint and suffix");
        let checkpoint = one.checkpoint();
        assert_eq!(checkpoint.decided_count() as u64, SLOTS - 5);
        for (pos, tx, dec) in checkpoint.decisions() {
            assert_eq!(untouched.slot_identity(pos), Some((tx, Some(dec))));
        }
    }

    #[test]
    fn prepare_answers_truncated_retained_and_fresh_transactions() {
        let mut log = indexed_log();
        let item = |tx: u64, payload: Option<Payload>| PrepareItem {
            tx: TxId::new(tx),
            payload,
            shards: vec![ShardId::new(0)],
            client: ProcessId::new(99),
        };
        let truncated = log.append(rw_entry(1, "x", 0, 4));
        log.decide(truncated, Decision::Commit);
        log.truncate_to(Position::new(1));
        let retained = log.append(rw_entry(2, "y", 0, 6));

        // Truncated: the recorded decision, and nothing is appended.
        assert_eq!(log.prepare(item(1, None)), Err(Decision::Commit));
        // Retained: re-acked from its slot, whatever the re-PREPARE carries.
        let reack = log.prepare(item(2, None)).expect("re-ack");
        assert_eq!((reack.pos, reack.vote), (retained, Decision::Commit));
        assert_eq!(reack.payload, log.get(retained).expect("retained").payload);
        assert_eq!(log.next(), Position::new(2), "neither appended a slot");
        // Fresh: certified against the residue ("x" was overwritten at
        // version 4) and the prepared set, and appended at `next`.
        let stale = rw_entry(3, "x", 0, 9).payload;
        let ack = log.prepare(item(3, Some(stale))).expect("ack");
        assert_eq!((ack.pos, ack.vote), (Position::new(2), Decision::Abort));
        let ack = log.prepare(item(4, None)).expect("ack");
        assert_eq!((ack.pos, ack.vote), (Position::new(3), Decision::Abort));
        assert!(ack.payload.is_empty(), "⊥ is stored as ε and votes abort");
        assert_eq!(log.position_of(TxId::new(4)), Some(Position::new(3)));
    }

    #[test]
    fn prefix_with_holes_is_checkpoint_aware() {
        // Leader decides and truncates; a follower that still retains the
        // prefix must remain a prefix-with-holes of it, and vice versa.
        let mut leader = indexed_log();
        let mut follower = indexed_log();
        for i in 1..=3u64 {
            let e = entry(i);
            let pos = leader.append(e.clone());
            follower.store_at(pos, e);
        }
        for i in 0..3u64 {
            leader.decide(Position::new(i), Decision::Commit);
        }
        leader.truncate_to(Position::new(2));
        assert!(follower.is_prefix_with_holes_of(&leader, leader.next()));

        // Follower learns the decisions and truncates further than nothing —
        // both directions hold across different frontiers.
        for i in 0..3u64 {
            follower.decide(Position::new(i), Decision::Commit);
        }
        follower.truncate_to(Position::new(3));
        assert!(follower.is_prefix_with_holes_of(&leader, leader.next()));
        assert!(leader.is_prefix_with_holes_of(&follower, leader.next()));

        // A diverging retained entry under the leader's checkpoint is caught.
        let mut bad = indexed_log();
        bad.store_at(Position::new(0), entry(9));
        assert!(!bad.is_prefix_with_holes_of(&leader, leader.next()));
    }

    /// A log that folds per `policy` whenever it is poked.
    struct Folder {
        log: CertificationLog,
        policy: TruncationConfig,
    }

    impl ratc_sim::Actor<()> for Folder {
        fn on_message(&mut self, _from: ProcessId, _msg: (), ctx: &mut Context<'_, ()>) {
            self.log.truncate_if_due(self.policy, ctx);
        }
    }

    #[test]
    fn a_disabled_policy_never_folds_even_far_above_position_zero() {
        use ratc_sim::{SimConfig, World};
        const BASE: u64 = 1_000;
        let mut log = indexed_log();
        for i in 0..BASE + 5 {
            let pos = log.append(entry(i + 1));
            log.decide(pos, Decision::Commit);
        }
        log.truncate_to(Position::new(BASE));
        let mut world = World::new(SimConfig::default());
        let policy = TruncationConfig::disabled();
        let folder = world.add_actor(Folder { log, policy });
        let base = |world: &World<()>| world.actor::<Folder>(folder).expect("folder").log.base();
        // `base + batch` would overflow here; the due test must not.
        world.send_external(folder, ());
        world.run();
        assert_eq!(base(&world), Position::new(BASE));
        assert_eq!(world.metrics().counter("log_slots_truncated"), 0);

        // A batch of 0 is clamped to 1, which folds the five decided slots.
        assert_eq!(
            TruncationConfig::with_batch(0),
            TruncationConfig::with_batch(1)
        );
        world.actor_mut::<Folder>(folder).expect("folder").policy = TruncationConfig::with_batch(0);
        world.send_external(folder, ());
        world.run();
        assert_eq!(base(&world), Position::new(BASE + 5));
        assert_eq!(world.metrics().counter("log_slots_truncated"), 5);
    }

    #[test]
    fn equality_distinguishes_checkpoints() {
        let mut a = indexed_log();
        let mut b = indexed_log();
        for i in 1..=2u64 {
            let e = entry(i);
            a.append(e.clone());
            b.append(e);
        }
        a.decide(Position::new(0), Decision::Commit);
        b.decide(Position::new(0), Decision::Commit);
        assert_eq!(a, b);
        a.truncate_to(Position::new(1));
        // Same logical history, different physical state: not equal (the
        // checkpoint is paper-visible state after truncation).
        assert_ne!(a, b);
        b.truncate_to(Position::new(1));
        assert_eq!(a, b);
    }
}
