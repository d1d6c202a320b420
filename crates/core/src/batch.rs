//! The certification pipeline's transport: one PREPARE/ACCEPT exchange per
//! batch of transactions, and a batch may hold one.
//!
//! The paper's protocol certifies one payload per PREPARE/ACCEPT exchange
//! (Figure 1). That exchange is what this module's messages carry when the
//! batch size is 1 — `PREPARE_BATCH → PREPARE_ACK_BATCH → ACCEPT_BATCH →
//! ACCEPT_ACK_BATCH → DECISION_BATCH` with one item each is the paper's
//! `PREPARE → PREPARE_ACK → ACCEPT → ACCEPT_ACK → DECISION`, message for
//! message and hop for hop — and there is no other commit path: a recovery
//! coordinator's `PREPARE(t, ⊥)`, a retry and an out-of-band decision all
//! travel as one-item batches. Larger batches amortise the rounds across many
//! transactions, in the style of Chockler & Gotsman's multi-shot commit
//! (certification decisions pipelined across contiguous slots), so the
//! message count at the shard leader — the metric the E2/E4 experiments
//! measure — stops scaling linearly with the transaction rate:
//!
//! * [`BatchingConfig`] — the batch size, surfaced by all three deployment
//!   harnesses (`ratc-core`, `ratc-rdma`, `ratc-baseline`);
//! * [`VoteBatcher`] — the coalescing buffer. A replica acting as transaction
//!   coordinator pushes each `certify` request into it; when the batch fills
//!   (at `max_batch = 1`: on every push) or [`FLUSH_DELAY`] expires, the drained
//!   batch becomes one [`PrepareBatch`] per involved shard leader.
//!   The leader certifies the whole batch in one pass, *assigning a
//!   contiguous position range* to the fresh entries, and answers with a
//!   single `PREPARE_ACK_BATCH`; the coordinator persists the batch at each
//!   follower with a single `ACCEPT_BATCH` (one RDMA write per follower in
//!   the RDMA stack), and distributes a single `DECISION_BATCH` per shard
//!   once the batch completes. The baseline stack reuses the same batcher to
//!   coalesce certified votes into one Multi-Paxos command per batch
//!   (batched log appends);
//! * [`Items`] — the item list of a batch message, which stores a batch of
//!   one inline so the degenerate case allocates nothing.
//!
//! Per-transaction semantics are untouched by the batch size: every item
//! carries its own transaction, payload, vote, position and decision, so
//! recovery coordinators, the `TxDecided` fast path and checkpointed
//! truncation all operate on individual transactions. A batch is
//! pure transport-level coalescing — the certification order it produces is
//! exactly the order the items were submitted in, which is what the
//! `ratc-spec::batching` differential suite checks end to end (size 1 is its
//! reference run).

use ratc_sim::SimDuration;
use ratc_types::{Decision, Payload, Position, ProcessId, ShardId, TxId};

/// How long a partially filled batch waits for more transactions before the
/// batch timer flushes it. Only a `max_batch` above 1 ever leaves a batch
/// partial.
pub const FLUSH_DELAY: SimDuration = SimDuration::from_millis(1);

/// Knobs of the batching pipeline (surfaced on all three harnesses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchingConfig {
    /// Maximum transactions coalesced into one batch; reaching it flushes
    /// immediately, and a partial batch is flushed after [`FLUSH_DELAY`].
    /// At 1 every transaction is flushed as it is submitted: the paper's
    /// one-PREPARE-per-payload exchange.
    pub max_batch: usize,
}

impl Default for BatchingConfig {
    /// Batches of one by default: that is the paper's protocol, and the
    /// latency-sensitive tests (5 message delays to a decision) measure it.
    /// Experiments opt into larger batches per run.
    fn default() -> Self {
        BatchingConfig::disabled()
    }
}

impl BatchingConfig {
    /// No coalescing: every batch holds one transaction and is flushed as
    /// soon as it is submitted (the seed behaviour).
    pub fn disabled() -> Self {
        BatchingConfig { max_batch: 1 }
    }

    /// Batching with the given maximum batch size. A `max_batch` of 1 (or 0)
    /// is [`BatchingConfig::disabled`].
    pub fn with_batch(max_batch: usize) -> Self {
        BatchingConfig {
            max_batch: max_batch.max(1),
        }
    }
}

/// The coalescing buffer of the batching pipeline.
///
/// Generic in the item type: the RATC stacks buffer transaction identifiers
/// (the payloads live in the coordinator state), the baseline buffers whole
/// certified votes destined for one Multi-Paxos command.
#[derive(Debug, Clone)]
pub struct VoteBatcher<T> {
    config: BatchingConfig,
    pending: Vec<T>,
}

impl<T> VoteBatcher<T> {
    /// Creates an empty batcher with the given knobs.
    pub fn new(config: BatchingConfig) -> Self {
        VoteBatcher {
            config,
            pending: Vec::new(),
        }
    }

    /// The batcher's knobs.
    pub fn config(&self) -> BatchingConfig {
        self.config
    }

    /// Replaces the batcher's knobs (pending items are kept).
    pub fn set_config(&mut self, config: BatchingConfig) {
        self.config = config;
    }

    /// Adds an item to the pending batch. Returns `true` if the batch is now
    /// full (reached `max_batch`) and must be flushed.
    pub fn push(&mut self, item: T) -> bool {
        self.pending.push(item);
        self.pending.len() >= self.config.max_batch
    }

    /// Drains and returns the pending batch (in push order).
    pub fn drain(&mut self) -> Vec<T> {
        std::mem::take(&mut self.pending)
    }

    /// Drains a batch that filled to `max_batch`: the same as
    /// [`VoteBatcher::drain`].
    pub fn drain_full(&mut self) -> Vec<T> {
        self.drain()
    }

    /// Number of pending items.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no items are pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

/// The items of one batch message, in order.
///
/// A batch of one — every transaction submitted at `max_batch = 1`, every
/// retry and every recovery `PREPARE(t, ⊥)` — is stored inline, so the
/// paper's single-transaction exchange allocates nothing for its item list;
/// only the second item spills to the heap. The representation is private:
/// senders build a list with [`Items::one`], [`Items::push`] or `collect`,
/// handlers iterate. The coordinator keeps its short per-transaction lists
/// in the same shape, for the same reason.
#[derive(Debug, Clone, PartialEq)]
pub struct Items<T> {
    first: Option<T>,
    rest: Vec<T>,
}

impl<T> Items<T> {
    /// An empty list (allocates nothing).
    pub fn new() -> Self {
        Items {
            first: None,
            rest: Vec::new(),
        }
    }

    /// A list of exactly one item, stored inline.
    pub fn one(item: T) -> Self {
        Items {
            first: Some(item),
            rest: Vec::new(),
        }
    }

    /// Appends an item.
    pub fn push(&mut self, item: T) {
        if self.first.is_none() {
            self.first = Some(item);
        } else {
            self.rest.push(item);
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        usize::from(self.first.is_some()) + self.rest.len()
    }

    /// Whether the list holds no item.
    pub fn is_empty(&self) -> bool {
        self.first.is_none()
    }

    /// Iterates over the items in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + Clone {
        self.first.iter().chain(&self.rest)
    }

    /// Whether `item` is in the list.
    pub fn contains(&self, item: &T) -> bool
    where
        T: PartialEq,
    {
        self.iter().any(|held| held == item)
    }
}

impl<K: PartialEq, V: Default> Items<(K, V)> {
    /// The value for `key` in a short association list, appended as
    /// `V::default()` if absent. Coordinators keep a transaction's per-shard
    /// progress in one: a single-shard transaction allocates nothing for it.
    pub fn entry(&mut self, key: K) -> &mut V {
        let found = self.iter().position(|(held, _)| *held == key);
        let index = found.unwrap_or_else(|| {
            self.push((key, V::default()));
            self.len() - 1
        });
        let entry = match index.checked_sub(1) {
            None => self.first.as_mut(),
            Some(rest) => self.rest.get_mut(rest),
        };
        &mut entry.expect("found or pushed").1
    }
}

impl<T> Default for Items<T> {
    fn default() -> Self {
        Items::new()
    }
}

impl<T> IntoIterator for Items<T> {
    type Item = T;
    type IntoIter = std::iter::Chain<std::option::IntoIter<T>, std::vec::IntoIter<T>>;

    fn into_iter(self) -> Self::IntoIter {
        self.first.into_iter().chain(self.rest)
    }
}

impl<T> FromIterator<T> for Items<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        Items {
            first: iter.next(),
            rest: iter.collect(),
        }
    }
}

/// One transaction of a `PREPARE_BATCH`: the fields of an individual
/// `PREPARE`, so the leader can serve each item exactly as it would a
/// single-transaction prepare (including the `TxDecided` fast path for
/// truncated transactions and re-acks for already-certified ones).
#[derive(Debug, Clone, PartialEq)]
pub struct PrepareItem {
    /// Transaction identifier.
    pub tx: TxId,
    /// Shard-restricted payload, or `None` for the `⊥` payload.
    pub payload: Option<Payload>,
    /// `shards(t)`.
    pub shards: Vec<ShardId>,
    /// `client(t)`.
    pub client: ProcessId,
}

/// A coalesced prepare request: the [`VoteBatcher`]'s output for one shard
/// leader. The leader certifies the items in order and assigns fresh entries
/// a contiguous position range.
#[derive(Debug, Clone, PartialEq)]
pub struct PrepareBatch {
    /// The batched transactions, in submission order.
    pub items: Items<PrepareItem>,
}

/// One prepared slot of a `PREPARE_ACK_BATCH` / `ACCEPT_BATCH`: position,
/// transaction, stored payload and vote — everything a follower needs to
/// persist the slot and a recovery coordinator needs to take the transaction
/// over. Per-slot votes remain individually recoverable from a batch (in the
/// RDMA stack: from the memory region a batch write landed in).
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedItem {
    /// Position assigned in the certification order.
    pub pos: Position,
    /// Transaction identifier.
    pub tx: TxId,
    /// The payload stored by the leader (shard-restricted, possibly `ε`).
    pub payload: Payload,
    /// The leader's vote.
    pub vote: Decision,
    /// `shards(t)`.
    pub shards: Vec<ShardId>,
    /// `client(t)`.
    pub client: ProcessId,
}

/// One acknowledged slot of an `ACCEPT_ACK_BATCH`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceptAckItem {
    /// Position acknowledged.
    pub pos: Position,
    /// Transaction identifier.
    pub tx: TxId,
    /// The vote acknowledged.
    pub vote: Decision,
}

/// One decided slot of a `DECISION_BATCH`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionItem {
    /// Position in the certification order.
    pub pos: Position,
    /// The final decision.
    pub decision: Decision,
}

/// The value for `key` in a short association list kept sorted by key,
/// inserted as `V::default()` if absent. Coordinators group a flush by shard
/// leader and a completion by shard with it: iteration is in key order, as
/// with the `BTreeMap` it stands in for, without a node allocation per key.
pub fn sorted_entry<K: Ord, V: Default>(list: &mut Vec<(K, V)>, key: K) -> &mut V {
    let idx = match list.binary_search_by(|(k, _)| k.cmp(&key)) {
        Ok(idx) => idx,
        Err(idx) => {
            list.insert(idx, (key, V::default()));
            idx
        }
    };
    &mut list[idx].1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_degenerates_to_single_item_batches() {
        let config = BatchingConfig::disabled();
        assert_eq!(config.max_batch, 1);
        let mut batcher: VoteBatcher<u64> = VoteBatcher::new(config);
        assert!(batcher.is_empty());
        assert!(batcher.push(1), "a batcher of size 1 flushes on every push");
        assert_eq!(batcher.drain(), vec![1]);
        assert!(batcher.is_empty());
    }

    #[test]
    fn with_batch_flushes_at_capacity() {
        let mut batcher: VoteBatcher<u64> = VoteBatcher::new(BatchingConfig::with_batch(3));
        assert!(!batcher.push(1));
        assert!(!batcher.push(2));
        assert_eq!(batcher.len(), 2);
        assert!(batcher.push(3), "third push reaches max_batch");
        assert_eq!(batcher.drain_full(), vec![1, 2, 3]);
    }

    #[test]
    fn tiny_batch_sizes_disable_batching() {
        assert_eq!(BatchingConfig::with_batch(0), BatchingConfig::disabled());
        assert_eq!(BatchingConfig::with_batch(1), BatchingConfig::disabled());
        assert_eq!(BatchingConfig::with_batch(16).max_batch, 16);
    }

    #[test]
    fn items_keep_order_across_the_inline_slot_and_the_spill() {
        let mut items: Items<u64> = Items::new();
        assert!(items.is_empty());
        assert_eq!(items.len(), 0);
        items.push(1);
        assert_eq!(items, Items::one(1));
        items.push(2);
        items.push(3);
        assert_eq!(items.len(), 3);
        assert_eq!(items.iter().copied().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(items.clone().into_iter().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!((1..=3).collect::<Items<u64>>(), items);
        assert!(Items::<u64>::default().is_empty());
        assert!(items.contains(&3) && !items.contains(&4));
    }

    #[test]
    fn items_entry_finds_or_appends_on_both_sides_of_the_spill() {
        let mut list: Items<(char, u64)> = Items::new();
        *list.entry('b') = 1;
        *list.entry('a') += 2;
        *list.entry('b') += 10;
        *list.entry('a') += 20;
        *list.entry('c') = 3;
        let entries: Vec<_> = list.iter().copied().collect();
        assert_eq!(
            entries,
            vec![('b', 11), ('a', 22), ('c', 3)],
            "insertion order"
        );
    }

    #[test]
    fn sorted_entry_groups_decisions_in_key_order() {
        let mut per_shard: Vec<(u32, Items<DecisionItem>)> = Vec::new();
        let pos = Position::new;
        let decided = |pos, decision| DecisionItem { pos, decision };
        sorted_entry(&mut per_shard, 2).push(decided(pos(5), Decision::Commit));
        sorted_entry(&mut per_shard, 0).push(decided(pos(9), Decision::Abort));
        sorted_entry(&mut per_shard, 2).push(decided(pos(6), Decision::Abort));
        let keys: Vec<u32> = per_shard.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![0, 2]);
        let slots = |at: usize| -> Vec<_> {
            let items = per_shard[at].1.iter();
            items.map(|item| (item.pos, item.decision)).collect()
        };
        assert_eq!(slots(0), vec![(pos(9), Decision::Abort)]);
        let second = vec![(pos(5), Decision::Commit), (pos(6), Decision::Abort)];
        assert_eq!(slots(1), second, "completion order within a shard");
    }
}
