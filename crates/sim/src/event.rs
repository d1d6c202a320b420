//! Internal event queue types.
//!
//! Events are ordered by `(time, sequence number)`; the sequence number is a
//! monotonically increasing tie-breaker that makes the execution order fully
//! deterministic.

use ratc_types::ProcessId;

use crate::actor::{TimerId, TimerTag};
use crate::rdma::RdmaToken;
use crate::time::SimTime;

/// The kind of a queued event.
#[derive(Debug)]
pub(crate) enum EventKind<M> {
    /// Deliver a network message. `reserved` marks a delivery the
    /// simulator's service-time model deferred to the start of the service
    /// slot it already reserved; such a delivery runs when next popped.
    Deliver {
        from: ProcessId,
        to: ProcessId,
        msg: M,
        hops: u32,
        reserved: bool,
    },
    /// Fire a timer. `incarnation` is the crash-restart incarnation of the
    /// process at the time the timer was set; a timer set before a crash never
    /// fires in a later incarnation.
    Timer {
        at: ProcessId,
        id: TimerId,
        tag: TimerTag,
        incarnation: u64,
    },
    /// An RDMA write reaches the target NIC.
    RdmaArrive {
        from: ProcessId,
        to: ProcessId,
        msg: M,
        hops: u32,
        token: RdmaToken,
    },
    /// An RDMA acknowledgement reaches the original sender.
    RdmaAck {
        sender: ProcessId,
        target: ProcessId,
        token: RdmaToken,
        hops: u32,
    },
    /// The target actor polls an RDMA message out of its memory.
    RdmaDeliver {
        at: ProcessId,
        index: usize,
        hops: u32,
    },
}

impl<M> EventKind<M> {
    /// The process the event happens at.
    pub(crate) fn process(&self) -> ProcessId {
        match self {
            EventKind::Deliver { to, .. } | EventKind::RdmaArrive { to, .. } => *to,
            EventKind::RdmaAck { sender, .. } => *sender,
            EventKind::Timer { at, .. } | EventKind::RdmaDeliver { at, .. } => *at,
        }
    }
}

/// An event queued for execution at `time`.
#[derive(Debug)]
pub(crate) struct QueuedEvent<M> {
    pub(crate) time: SimTime,
    pub(crate) seq: u64,
    pub(crate) kind: EventKind<M>,
}

impl<M> PartialEq for QueuedEvent<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<M> Eq for QueuedEvent<M> {}

impl<M> PartialOrd for QueuedEvent<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for QueuedEvent<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: u64, seq: u64) -> QueuedEvent<u32> {
        QueuedEvent {
            time: SimTime::from_micros(time),
            seq,
            kind: EventKind::RdmaDeliver {
                at: ProcessId::new(0),
                index: 0,
                hops: 0,
            },
        }
    }

    #[test]
    fn ordering_is_by_time_then_seq() {
        assert!(ev(1, 5) < ev(2, 0));
        assert!(ev(1, 0) < ev(1, 1));
        assert_eq!(ev(3, 3), ev(3, 3));
        assert!(ev(2, 1) > ev(2, 0));
    }

    #[test]
    fn heap_pops_in_order() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut heap = BinaryHeap::new();
        heap.push(Reverse(ev(5, 0)));
        heap.push(Reverse(ev(1, 1)));
        heap.push(Reverse(ev(1, 0)));
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| heap.pop())
            .map(|Reverse(e)| (e.time.as_micros(), e.seq))
            .collect();
        assert_eq!(order, vec![(1, 0), (1, 1), (5, 0)]);
    }
}
