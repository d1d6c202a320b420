//! The learner-side replicated log.

use std::collections::BTreeMap;

use super::messages::Slot;

/// A learner's view of the replicated log: chosen commands indexed by slot.
#[derive(Debug, Clone)]
pub struct ReplicatedLog<C> {
    chosen: BTreeMap<Slot, C>,
}

impl<C> Default for ReplicatedLog<C> {
    fn default() -> Self {
        ReplicatedLog {
            chosen: BTreeMap::new(),
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_held_across_gaps_and_iterated_in_order() {
        let mut log = ReplicatedLog::new();
        log.record_chosen(2, "c");
        log.record_chosen(0, "a");
        assert_eq!(log.get(1), None, "a gap");
        log.record_chosen(1, "b");
        let slots: Vec<(Slot, &&str)> = log.iter().collect();
        assert_eq!(slots, vec![(0, &"a"), (1, &"b"), (2, &"c")]);
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
    fn empty_log() {
        let log: ReplicatedLog<u8> = ReplicatedLog::new();
        assert!(log.is_empty());
        assert_eq!(log.iter().count(), 0);
    }
}
