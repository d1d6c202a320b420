//! Simulated RDMA primitive (§5 of the paper).
//!
//! The paper's RDMA-based protocol relies on a point-to-point communication
//! primitive with the following operations and guarantees:
//!
//! * `send-rdma(m, p)` — writes `m` into a memory region of `p` without
//!   involving `p`'s CPU;
//! * `ack-rdma(m, p)` — delivered to the *sender* by `p`'s NIC once `m` is in
//!   `p`'s memory; from this point `m` will eventually be delivered at `p`
//!   even if the sender crashes;
//! * `deliver-rdma(m, q)` — delivered to `p` when it polls its buffers;
//! * `open(q)` / `close(q)` — grant/revoke `q`'s right to write into the
//!   caller's memory; after `close(q)` completes, `q` cannot land any further
//!   writes;
//! * `flush()` — blocks the caller until every acknowledged message addressed
//!   to it has been delivered.
//!
//! This module holds the *state* of the simulated RDMA fabric: per-process
//! permission sets and per-process inboxes of messages that have reached
//! memory. The event scheduling lives in [`crate::world`].

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use ratc_types::ProcessId;

/// Token identifying an individual RDMA write, echoed back in the
/// acknowledgement upcall.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RdmaToken(u64);

impl RdmaToken {
    /// Creates a token from a raw number.
    pub const fn new(raw: u64) -> Self {
        RdmaToken(raw)
    }

    /// Returns the raw number.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

/// Outcome of an RDMA write arriving at the target NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RdmaSendOutcome {
    /// The write landed in the target's memory; an acknowledgement is on its
    /// way back to the sender and the message will eventually be delivered.
    Accepted,
    /// The target had closed (or never opened) the connection; the write was
    /// dropped and no acknowledgement will be produced.
    Rejected,
}

/// A message sitting in a process's memory, written there by RDMA; `msg` is
/// `None` once the message has been delivered.
#[derive(Debug)]
struct RdmaEntry<M> {
    from: ProcessId,
    msg: Option<M>,
}

/// The RDMA inbox of a single process: messages that have reached its memory
/// (and have therefore been acknowledged to their senders), in arrival order.
///
/// An entry keeps the index it was given on arrival for the whole life of
/// the inbox: delivered entries at the front are dropped and `base` counts
/// them, so the inbox holds only the suffix that starts at the oldest
/// undelivered write.
#[derive(Debug)]
pub struct RdmaInbox<M> {
    entries: VecDeque<RdmaEntry<M>>,
    /// Index of `entries[0]`: the number of entries dropped so far.
    base: usize,
}

impl<M> Default for RdmaInbox<M> {
    fn default() -> Self {
        RdmaInbox {
            entries: VecDeque::new(),
            base: 0,
        }
    }
}

impl<M> RdmaInbox<M> {
    /// Appends a newly arrived message and returns its index for later
    /// delivery scheduling.
    pub(crate) fn push(&mut self, from: ProcessId, msg: M) -> usize {
        self.entries.push_back(RdmaEntry {
            from,
            msg: Some(msg),
        });
        self.base + self.entries.len() - 1
    }

    /// Number of entries held: every undelivered message, plus the delivered
    /// ones that arrived after the oldest undelivered one.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the inbox holds no messages at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of messages not yet delivered to the owning actor.
    pub fn undelivered_count(&self) -> usize {
        self.entries.iter().filter(|e| e.msg.is_some()).count()
    }

    /// Moves the message at `index` out for delivery, or returns `None` if it
    /// was already delivered (e.g. by a `flush`).
    pub(crate) fn take_for_delivery(&mut self, index: usize) -> Option<(ProcessId, M)> {
        let entry = self.entries.get_mut(index.checked_sub(self.base)?)?;
        let taken = (entry.from, entry.msg.take()?);
        while self.entries.front().is_some_and(|e| e.msg.is_none()) {
            self.entries.pop_front();
            self.base += 1;
        }
        Some(taken)
    }

    /// Moves every undelivered message out, in arrival order
    /// (the `flush` operation).
    pub fn drain_undelivered(&mut self) -> Vec<(ProcessId, M)> {
        self.base += self.entries.len();
        self.entries
            .drain(..)
            .filter_map(|e| Some((e.from, e.msg?)))
            .collect()
    }

    /// Moves every held entry out into a detached inbox that keeps their
    /// indices; this one carries on at the next index, empty. The owner's
    /// handler works on the detached part while writers keep landing here.
    pub(crate) fn detach(&mut self) -> RdmaInbox<M> {
        let detached = RdmaInbox {
            entries: std::mem::take(&mut self.entries),
            base: self.base,
        };
        self.base += detached.entries.len();
        detached
    }

    /// Puts a part taken by [`RdmaInbox::detach`] back in front of whatever
    /// landed meanwhile. The detached part only ever loses entries at its
    /// front (delivery, flush), so it still ends where this one begins, and
    /// its front is undelivered or it is empty.
    pub(crate) fn reattach(&mut self, mut front: RdmaInbox<M>) {
        debug_assert_eq!(front.base + front.entries.len(), self.base);
        front.entries.append(&mut self.entries);
        *self = front;
    }
}

/// Which peers may write into which process's memory: the `open` /
/// `close` state of §5, shared by both execution engines.
#[derive(Debug, Default)]
pub(crate) struct RdmaPermissions {
    /// `allowed[p]` is the set of peers currently permitted to write into
    /// `p`'s memory.
    allowed: BTreeMap<ProcessId, BTreeSet<ProcessId>>,
}

impl RdmaPermissions {
    /// Grants `peer` the right to write into `owner`'s memory.
    pub(crate) fn open(&mut self, owner: ProcessId, peer: ProcessId) {
        self.allowed.entry(owner).or_default().insert(peer);
    }

    /// Revokes `peer`'s right to write into `owner`'s memory.
    pub(crate) fn close(&mut self, owner: ProcessId, peer: ProcessId) {
        if let Some(set) = self.allowed.get_mut(&owner) {
            set.remove(&peer);
        }
    }

    /// Revokes every peer's right to write into `owner`'s memory.
    pub(crate) fn close_all(&mut self, owner: ProcessId) {
        self.allowed.remove(&owner);
    }

    /// Returns `true` if `peer` may currently write into `owner`'s memory.
    pub(crate) fn is_open(&self, owner: ProcessId, peer: ProcessId) -> bool {
        self.allowed
            .get(&owner)
            .is_some_and(|set| set.contains(&peer))
    }
}

/// The state of the whole simulated RDMA fabric.
#[derive(Debug)]
pub(crate) struct RdmaFabric<M> {
    pub(crate) perms: RdmaPermissions,
    /// Per-process inboxes.
    inboxes: BTreeMap<ProcessId, RdmaInbox<M>>,
    /// Writes rejected because the connection was closed, for metrics and the
    /// counter-example experiment.
    rejected: u64,
}

impl<M> Default for RdmaFabric<M> {
    fn default() -> Self {
        RdmaFabric {
            perms: RdmaPermissions::default(),
            inboxes: BTreeMap::new(),
            rejected: 0,
        }
    }
}

impl<M> RdmaFabric<M> {
    /// Records the arrival of a write at `owner`'s NIC. Returns the inbox
    /// index if accepted.
    pub(crate) fn arrive(
        &mut self,
        owner: ProcessId,
        from: ProcessId,
        msg: M,
    ) -> Result<usize, RdmaSendOutcome> {
        if !self.perms.is_open(owner, from) {
            self.rejected += 1;
            return Err(RdmaSendOutcome::Rejected);
        }
        Ok(self.inboxes.entry(owner).or_default().push(from, msg))
    }

    /// Temporarily removes `owner`'s inbox so a handler can be given mutable
    /// access to it.
    pub(crate) fn take_inbox(&mut self, owner: ProcessId) -> RdmaInbox<M> {
        self.inboxes.remove(&owner).unwrap_or_default()
    }

    /// Restores `owner`'s inbox after a handler invocation.
    pub(crate) fn put_inbox(&mut self, owner: ProcessId, inbox: RdmaInbox<M>) {
        self.inboxes.insert(owner, inbox);
    }

    /// Total number of rejected writes so far.
    pub(crate) fn rejected_count(&self) -> u64 {
        self.rejected
    }

    /// Decomposes the fabric into its parts so the threaded backend
    /// ([`crate::rt`]) can share them across threads for the duration of a
    /// run: `(permissions, inboxes, rejected-count)`.
    pub(crate) fn into_parts(self) -> (RdmaPermissions, BTreeMap<ProcessId, RdmaInbox<M>>, u64) {
        (self.perms, self.inboxes, self.rejected)
    }

    /// Reassembles a fabric from parts returned by
    /// [`RdmaFabric::into_parts`].
    pub(crate) fn from_parts(
        perms: RdmaPermissions,
        inboxes: BTreeMap<ProcessId, RdmaInbox<M>>,
        rejected: u64,
    ) -> Self {
        RdmaFabric {
            perms,
            inboxes,
            rejected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_close_permissioning() {
        let mut perms = RdmaPermissions::default();
        let owner = ProcessId::new(1);
        let peer = ProcessId::new(2);
        assert!(!perms.is_open(owner, peer));
        perms.open(owner, peer);
        assert!(perms.is_open(owner, peer));
        perms.close(owner, peer);
        assert!(!perms.is_open(owner, peer));
        perms.open(owner, peer);
        perms.close_all(owner);
        assert!(!perms.is_open(owner, peer));
    }

    #[test]
    fn arrive_respects_permissions() {
        let mut fabric: RdmaFabric<u32> = RdmaFabric::default();
        let owner = ProcessId::new(1);
        let peer = ProcessId::new(2);
        assert_eq!(
            fabric.arrive(owner, peer, 7).unwrap_err(),
            RdmaSendOutcome::Rejected
        );
        assert_eq!(fabric.rejected_count(), 1);
        fabric.perms.open(owner, peer);
        let idx = fabric.arrive(owner, peer, 8).expect("accepted");
        assert_eq!(idx, 0);
        let mut inbox = fabric.take_inbox(owner);
        assert_eq!(inbox.len(), 1);
        assert_eq!(inbox.take_for_delivery(0), Some((peer, 8)));
        assert_eq!(inbox.take_for_delivery(0), None);
        fabric.put_inbox(owner, inbox);
    }

    #[test]
    fn flush_semantics() {
        let mut inbox: RdmaInbox<u32> = RdmaInbox::default();
        inbox.push(ProcessId::new(5), 1);
        inbox.push(ProcessId::new(5), 2);
        assert_eq!(inbox.undelivered_count(), 2);
        assert!(!inbox.is_empty());
        let drained = inbox.drain_undelivered();
        assert_eq!(drained.len(), 2);
        assert_eq!(inbox.undelivered_count(), 0);
        assert!(inbox.is_empty(), "flushed entries are dropped");
        // Delivery events scheduled for drained entries become no-ops.
        assert_eq!(inbox.take_for_delivery(0), None);
        assert_eq!(inbox.take_for_delivery(1), None);
        // Indices keep counting after the flush.
        assert_eq!(inbox.push(ProcessId::new(5), 3), 2);
        assert_eq!(inbox.take_for_delivery(2), Some((ProcessId::new(5), 3)));
    }

    #[test]
    fn delivery_drops_the_delivered_prefix_and_keeps_indices() {
        let from = ProcessId::new(5);
        let mut inbox: RdmaInbox<u32> = RdmaInbox::default();
        for msg in 0..3 {
            assert_eq!(inbox.push(from, msg), msg as usize);
        }
        // Out of order: the delivered entry 1 stays behind undelivered 0.
        assert_eq!(inbox.take_for_delivery(1), Some((from, 1)));
        assert_eq!((inbox.len(), inbox.undelivered_count()), (3, 2));
        assert_eq!(inbox.take_for_delivery(0), Some((from, 0)));
        assert_eq!((inbox.len(), inbox.undelivered_count()), (1, 1));
        assert_eq!(inbox.push(from, 3), 3, "indices stay absolute");
        assert_eq!(inbox.take_for_delivery(3), Some((from, 3)));
        assert_eq!(inbox.take_for_delivery(2), Some((from, 2)));
        assert!(inbox.is_empty(), "every write delivered, nothing held");
        for index in 0..5 {
            assert_eq!(inbox.take_for_delivery(index), None, "index {index}");
        }
    }

    #[test]
    fn detach_and_reattach_keep_indices_and_arrival_order() {
        let (early, late) = (ProcessId::new(5), ProcessId::new(6));
        let mut inbox: RdmaInbox<u32> = RdmaInbox::default();
        for msg in 0..3 {
            inbox.push(early, msg);
        }
        // Out of order: the delivered entry 1 stays behind undelivered 0.
        assert_eq!(inbox.take_for_delivery(1), Some((early, 1)));
        let detached = inbox.detach();
        assert!(inbox.is_empty());
        assert_eq!((detached.len(), detached.undelivered_count()), (3, 2));
        // Writes that land while the part is detached count on from it.
        assert_eq!(inbox.push(late, 3), 3);
        assert_eq!(inbox.push(late, 4), 4);
        inbox.reattach(detached);
        assert_eq!((inbox.len(), inbox.undelivered_count()), (5, 4));
        // Delivering 0 drops the delivered prefix, 1 included.
        assert_eq!(inbox.take_for_delivery(0), Some((early, 0)));
        assert_eq!((inbox.len(), inbox.undelivered_count()), (3, 3));
        assert_eq!(inbox.push(late, 5), 5, "indices stay absolute");
        let rest: Vec<_> = (2..6).filter_map(|i| inbox.take_for_delivery(i)).collect();
        assert_eq!(rest, vec![(early, 2), (late, 3), (late, 4), (late, 5)]);
        assert!(inbox.is_empty());
    }

    #[test]
    fn flushing_the_detached_part_drops_it_and_spares_later_writes() {
        let (early, late) = (ProcessId::new(5), ProcessId::new(6));
        let mut inbox: RdmaInbox<u32> = RdmaInbox::default();
        inbox.push(early, 0);
        inbox.push(early, 1);
        let mut detached = inbox.detach();
        assert_eq!(inbox.push(late, 2), 2, "landed during the handler");
        assert_eq!(detached.drain_undelivered(), vec![(early, 0), (early, 1)]);
        assert!(detached.is_empty());
        inbox.reattach(detached);
        assert_eq!((inbox.len(), inbox.undelivered_count()), (1, 1));
        assert_eq!(inbox.take_for_delivery(0), None, "flushed");
        assert_eq!(inbox.take_for_delivery(1), None, "flushed");
        assert_eq!(inbox.take_for_delivery(2), Some((late, 2)));
        assert!(inbox.is_empty());
        assert_eq!(inbox.push(late, 3), 3);
    }

    #[test]
    fn delivery_and_flush_move_the_message_without_cloning() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        #[derive(Debug)]
        struct Counted(Arc<AtomicUsize>);
        impl Clone for Counted {
            fn clone(&self) -> Self {
                self.0.fetch_add(1, Ordering::Relaxed);
                Counted(Arc::clone(&self.0))
            }
        }

        let clones = Arc::new(AtomicUsize::new(0));
        let from = ProcessId::new(5);
        let mut inbox = RdmaInbox::default();
        for _ in 0..3 {
            inbox.push(from, Counted(Arc::clone(&clones)));
        }
        assert!(inbox.take_for_delivery(0).is_some());
        assert_eq!(inbox.drain_undelivered().len(), 2);
        assert!(inbox.is_empty());
        assert_eq!(clones.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn token_round_trip() {
        let t = RdmaToken::new(42);
        assert_eq!(t.as_u64(), 42);
    }
}
