//! Cluster-wide flow control: admission windows and retry backoff.
//!
//! PR 6's threaded backend surfaced a congestive collapse the simulator's
//! free-in-virtual-time retries had been masking: under a 2000-deep open-loop
//! flood, the unbatched 2PC-over-Paxos baseline's fixed-interval retry tick
//! re-drove *every* pending transaction every 20 ms, the shard leaders
//! re-reported a vote per duplicate PREPARE, and the Paxos proposers re-sent
//! Accepts for every pending slot — so once handling the backlog took longer
//! than one tick, each tick added more work than the cluster could absorb and
//! goodput collapsed (`BENCH_6.json`, `undecided` column). This module is the
//! fix, applied uniformly across the three stacks:
//!
//! * **Admission control** — a bounded in-flight window per coordinator/TM
//!   with a FIFO [`AdmissionQueue`]: open-loop floods queue at the edge (a
//!   queued transaction costs nothing but memory) instead of melting the
//!   certification pipeline. Admission happens the moment an in-flight
//!   transaction decides, so a window-sized pipeline stays full.
//! * **Retry backoff** — retries and Paxos retransmissions follow a seeded,
//!   deterministic exponential schedule with jitter
//!   ([`ratc_sim::backoff::BackoffPolicy`]) instead of the fixed interval,
//!   and a retry *supersedes* the previous attempt instead of stacking on
//!   top of it. Existing fruitless-tick caps are preserved, so
//!   `run_to_quiescence` still terminates when a shard is permanently down.
//!
//! Flow control is **on by default** — it is a bugfix, and the collapse
//! configuration must complete — with [`FlowControlConfig::legacy`] keeping
//! the pre-fix behaviour reachable for the regression tests that pin the
//! collapse itself.

use std::collections::{BTreeSet, VecDeque};

use ratc_sim::backoff::BackoffPolicy;
use ratc_types::TxId;

/// Flow-control knobs, surfaced on every harness via `ClusterSpec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowControlConfig {
    /// Whether the layer is active. Disabled reproduces the pre-fix
    /// behaviour: unbounded admission and fixed-interval full-pending
    /// retries (kept for the collapse regression tests).
    pub enabled: bool,
    /// Maximum transactions a coordinator/TM keeps in flight while the layer
    /// is enabled; further submissions wait in its FIFO admission queue.
    pub window: usize,
}

impl Default for FlowControlConfig {
    /// Flow control on: window 64, 20 ms → 320 ms exponential backoff with
    /// ±25% jitter.
    fn default() -> Self {
        FlowControlConfig {
            enabled: true,
            window: 64,
        }
    }
}

impl FlowControlConfig {
    /// The pre-fix behaviour: no admission window, fixed-interval retries.
    /// Exists so the collapse stays reproducible (regression tests, E10's
    /// "before" curve); never the default.
    pub fn legacy() -> Self {
        FlowControlConfig {
            enabled: false,
            ..FlowControlConfig::default()
        }
    }

    /// The schedule of certify-retries and Paxos retransmissions: capped
    /// exponential with jitter when the layer is enabled, the legacy fixed
    /// 20 ms interval when it is not.
    pub fn backoff(&self) -> BackoffPolicy {
        if self.enabled {
            BackoffPolicy::exponential()
        } else {
            BackoffPolicy::fixed(ratc_sim::SimDuration::from_millis(20))
        }
    }

    /// `true` if a coordinator already holding `in_flight` undecided
    /// transactions may start another one.
    pub fn admits(&self, in_flight: usize) -> bool {
        !self.enabled || in_flight < self.window
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
    fn default_is_enabled_and_legacy_is_not() {
        let flow = FlowControlConfig::default();
        assert!(flow.enabled);
        assert!(flow.window > 0);
        assert!(flow.admits(flow.window - 1));
        assert!(!flow.admits(flow.window));
        let legacy = FlowControlConfig::legacy();
        assert!(!legacy.enabled);
        assert!(legacy.admits(usize::MAX - 1), "legacy never queues");
        assert_eq!(legacy.backoff().multiplier, 1, "legacy retries are fixed");
        assert_eq!(flow.backoff(), BackoffPolicy::exponential());
    }

    #[test]
    fn a_disabled_layer_admits_past_any_window() {
        let flow = FlowControlConfig {
            enabled: false,
            window: 0,
        };
        assert!(flow.admits(1_000_000));
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
