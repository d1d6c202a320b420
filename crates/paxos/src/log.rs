//! The learner-side replicated log.

use std::collections::BTreeMap;

use crate::messages::Slot;

/// A learner's view of the replicated log: chosen commands indexed by slot,
/// with a cursor over the contiguous executable prefix.
#[derive(Debug, Clone)]
pub struct ReplicatedLog<C> {
    chosen: BTreeMap<Slot, C>,
    executed_up_to: Slot,
}

impl<C> Default for ReplicatedLog<C> {
    fn default() -> Self {
        ReplicatedLog {
            chosen: BTreeMap::new(),
            executed_up_to: 0,
        }
    }
}

impl<C> ReplicatedLog<C> {
    /// Creates an empty log.
    pub fn new() -> Self {
        ReplicatedLog::default()
    }

    /// Records that `command` was chosen at `slot`. Duplicate notifications
    /// for the same slot are ignored (Paxos guarantees they carry the same
    /// command).
    pub fn record_chosen(&mut self, slot: Slot, command: C) {
        self.chosen.entry(slot).or_insert(command);
    }

    /// The command chosen at `slot`, if known.
    pub fn get(&self, slot: Slot) -> Option<&C> {
        self.chosen.get(&slot)
    }

    /// Iterates over every chosen `(slot, command)` pair in slot order
    /// (including slots beyond the first gap). Used by crash-restart recovery
    /// to replay the durable log into fresh in-memory state.
    pub fn iter(&self) -> impl Iterator<Item = (Slot, &C)> + '_ {
        self.chosen.iter().map(|(slot, c)| (*slot, c))
    }

    /// Number of slots known to be chosen.
    pub fn len(&self) -> usize {
        self.chosen.len()
    }

    /// Returns `true` if no slot is known to be chosen.
    pub fn is_empty(&self) -> bool {
        self.chosen.is_empty()
    }

    /// The contiguous prefix of chosen commands starting at slot 0, in slot
    /// order. Commands beyond the first gap are not included.
    pub fn executable_prefix(&self) -> Vec<&C> {
        let mut prefix = Vec::new();
        let mut next = 0;
        while let Some(c) = self.chosen.get(&next) {
            prefix.push(c);
            next += 1;
        }
        prefix
    }

    /// Pops the next commands that are chosen, contiguous and not yet handed
    /// out by a previous call (an execution cursor over
    /// [`ReplicatedLog::executable_prefix`]).
    pub fn take_newly_executable(&mut self) -> Vec<(Slot, &C)> {
        let mut newly = Vec::new();
        let mut next = self.executed_up_to;
        while self.chosen.contains_key(&next) {
            next += 1;
        }
        for slot in self.executed_up_to..next {
            newly.push((slot, self.chosen.get(&slot).expect("checked contiguous")));
        }
        self.executed_up_to = next;
        newly
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_stops_at_gaps() {
        let mut log = ReplicatedLog::new();
        log.record_chosen(0, "a");
        log.record_chosen(2, "c");
        assert_eq!(log.executable_prefix(), vec![&"a"]);
        log.record_chosen(1, "b");
        assert_eq!(log.executable_prefix(), vec![&"a", &"b", &"c"]);
        assert_eq!(log.len(), 3);
        assert!(!log.is_empty());
        assert_eq!(log.get(2), Some(&"c"));
        assert_eq!(log.get(5), None);
    }

    #[test]
    fn duplicate_chosen_is_ignored() {
        let mut log = ReplicatedLog::new();
        log.record_chosen(0, 1);
        log.record_chosen(0, 2);
        assert_eq!(log.get(0), Some(&1));
    }

    #[test]
    fn execution_cursor_hands_out_each_slot_once() {
        let mut log = ReplicatedLog::new();
        log.record_chosen(0, "a");
        log.record_chosen(1, "b");
        let first: Vec<(Slot, &&str)> = log.take_newly_executable();
        assert_eq!(first.len(), 2);
        assert!(log.take_newly_executable().is_empty());
        log.record_chosen(3, "d");
        assert!(log.take_newly_executable().is_empty(), "gap at slot 2");
        log.record_chosen(2, "c");
        let next = log.take_newly_executable();
        assert_eq!(next.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn empty_log() {
        let log: ReplicatedLog<u8> = ReplicatedLog::new();
        assert!(log.is_empty());
        assert!(log.executable_prefix().is_empty());
    }
}
