//! Cluster-wide flow control: admission windows and retry backoff.
//!
//! Without it, a deep open-loop flood collapses a coordinator: a
//! fixed-interval retry tick that re-drives *every* pending transaction,
//! shard leaders that re-report a vote per duplicate PREPARE and Paxos
//! proposers that re-send Accepts for every pending slot add, once handling
//! the backlog takes longer than one tick, more work per tick than the
//! cluster can absorb (the threaded backend once left 1424 of a 2000-deep
//! flood undecided on the unbatched baseline). Every stack applies the same
//! two measures:
//!
//! * **Admission control** — a bounded in-flight window per coordinator/TM
//!   with a FIFO [`AdmissionQueue`]: open-loop floods queue at the edge (a
//!   queued transaction costs nothing but memory) instead of melting the
//!   certification pipeline. Admission happens the moment an in-flight
//!   transaction decides, so a window-sized pipeline stays full.
//! * **Retry backoff** — retries and Paxos retransmissions follow a seeded,
//!   deterministic exponential schedule with jitter
//!   ([`ratc_sim::backoff::BackoffPolicy::exponential`]) behind a
//!   fixed-interval tick, and a retry *supersedes* the previous attempt
//!   instead of stacking on top of it. Fruitless-tick caps bound the ticks,
//!   so `run_to_quiescence` still terminates when a shard is permanently
//!   down.
//!
//! Both are constants: the window is [`WINDOW`], and the schedule is fixed.

use std::collections::{BTreeSet, VecDeque};

use ratc_types::TxId;

/// Maximum transactions a coordinator/TM keeps in flight; further
/// submissions wait in its FIFO admission queue.
pub const WINDOW: usize = 64;

/// `true` if a coordinator already holding `in_flight` undecided
/// transactions may start another one.
pub fn admits(in_flight: usize) -> bool {
    in_flight < WINDOW
}

/// The admission window as a value, for reports that read it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowControlConfig {
    /// [`WINDOW`].
    pub window: usize,
}

impl Default for FlowControlConfig {
    fn default() -> Self {
        FlowControlConfig { window: WINDOW }
    }
}

/// FIFO queue of transactions waiting for an admission-window slot.
///
/// Holds whatever the stack needs to start the transaction later (payload and
/// client, typically). Deduplicated by transaction: re-submitting a queued
/// transaction replaces its queued entry instead of queueing a second copy —
/// the queue-side half of "a retry supersedes, it does not stack".
/// A side index of queued transaction ids keeps the hot-path operations off
/// the queue scan: the common cases — `enqueue` of a new transaction,
/// `remove` of a transaction that is *not* queued (called once per decision)
/// and `contains` — are O(log n); only superseding or removing a transaction
/// that really is queued (a client retry racing admission) pays the linear
/// walk. Without the index the per-decision `remove` made a deep open-loop
/// run quadratic in the flood depth.
#[derive(Debug, Clone, Default)]
pub struct AdmissionQueue<T> {
    queue: VecDeque<(TxId, T)>,
    queued: BTreeSet<TxId>,
}

impl<T> AdmissionQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        AdmissionQueue {
            queue: VecDeque::new(),
            queued: BTreeSet::new(),
        }
    }

    /// Enqueues `tx`, replacing any queued entry for the same transaction.
    pub fn enqueue(&mut self, tx: TxId, item: T) {
        if self.queued.insert(tx) {
            self.queue.push_back((tx, item));
        } else {
            let slot = self
                .queue
                .iter_mut()
                .find(|(t, _)| *t == tx)
                .expect("queued index out of sync");
            slot.1 = item;
        }
    }

    /// Dequeues the oldest waiting transaction.
    pub fn pop(&mut self) -> Option<(TxId, T)> {
        let entry = self.queue.pop_front();
        if let Some((tx, _)) = &entry {
            self.queued.remove(tx);
        }
        entry
    }

    /// Whether `tx` is waiting in the queue.
    pub fn contains(&self, tx: TxId) -> bool {
        self.queued.contains(&tx)
    }

    /// Removes a queued entry for `tx` (e.g. the transaction was decided by
    /// another path while it waited).
    pub fn remove(&mut self, tx: TxId) {
        if self.queued.remove(&tx) {
            self.queue.retain(|(t, _)| *t != tx);
        }
    }

    /// Transactions currently waiting.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Drops every queued entry (coordinator crash: volatile state is lost,
    /// clients re-drive).
    pub fn clear(&mut self) {
        self.queue.clear();
        self.queued.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_window_admits_up_to_its_size() {
        assert_eq!(FlowControlConfig::default().window, WINDOW);
        assert!(admits(WINDOW - 1));
        assert!(!admits(WINDOW));
    }

    #[test]
    fn admission_queue_is_fifo_and_supersedes_duplicates() {
        let mut q: AdmissionQueue<&'static str> = AdmissionQueue::new();
        assert!(q.is_empty());
        q.enqueue(TxId::new(1), "a");
        q.enqueue(TxId::new(2), "b");
        q.enqueue(TxId::new(1), "a2");
        assert_eq!(q.len(), 2, "re-submission superseded, not stacked");
        assert!(q.contains(TxId::new(1)));
        assert_eq!(q.pop(), Some((TxId::new(1), "a2")));
        q.remove(TxId::new(2));
        assert!(q.pop().is_none());
        q.enqueue(TxId::new(3), "c");
        q.clear();
        assert!(q.is_empty());
    }
}
