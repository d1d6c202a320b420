//! The global configuration sequence used by the RDMA protocol (§5).
//!
//! With RDMA, reconfiguration must involve the whole system: processes
//! maintain a single epoch instead of a per-shard vector, and the
//! configuration service "keeps a single data structure with the system's
//! sequence of configurations parameterized by shard" (Appendix C). The three
//! operations no longer take a shard identifier.

use std::collections::BTreeMap;
use std::fmt;

use ratc_types::{Epoch, ProcessId, ShardId};

use crate::shard::CasError;

/// A system-wide configuration: for each shard, its members and leader, all
/// tagged by one global epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalConfiguration {
    /// The global epoch identifying this configuration.
    pub epoch: Epoch,
    /// Members of every shard.
    pub members: BTreeMap<ShardId, Vec<ProcessId>>,
    /// Leader of every shard (each must be a member of its shard).
    pub leaders: BTreeMap<ShardId, ProcessId>,
}

impl GlobalConfiguration {
    /// Creates a global configuration, normalising member lists.
    ///
    /// # Panics
    ///
    /// Panics if a shard has no members, a leader is missing or a leader is
    /// not a member of its shard.
    pub fn new(
        epoch: Epoch,
        members: BTreeMap<ShardId, Vec<ProcessId>>,
        leaders: BTreeMap<ShardId, ProcessId>,
    ) -> Self {
        let mut normalised = BTreeMap::new();
        for (shard, mut shard_members) in members {
            shard_members.sort_unstable();
            shard_members.dedup();
            assert!(!shard_members.is_empty(), "shard {shard} must have members");
            let leader = leaders
                .get(&shard)
                .unwrap_or_else(|| panic!("shard {shard} must have a leader"));
            assert!(
                shard_members.contains(leader),
                "leader of {shard} must be a member"
            );
            normalised.insert(shard, shard_members);
        }
        GlobalConfiguration {
            epoch,
            members: normalised,
            leaders,
        }
    }

    /// The members of `shard` in this configuration.
    pub fn members_of(&self, shard: ShardId) -> &[ProcessId] {
        self.members.get(&shard).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The leader of `shard` in this configuration.
    pub fn leader_of(&self, shard: ShardId) -> Option<ProcessId> {
        self.leaders.get(&shard).copied()
    }

    /// The followers of `shard` in this configuration.
    pub fn followers_of(&self, shard: ShardId) -> Vec<ProcessId> {
        let leader = self.leader_of(shard);
        self.members_of(shard)
            .iter()
            .copied()
            .filter(|p| Some(*p) != leader)
            .collect()
    }

    /// Every process appearing in the configuration, across all shards.
    pub fn all_processes(&self) -> Vec<ProcessId> {
        let mut all: Vec<ProcessId> = self
            .members
            .values()
            .flat_map(|m| m.iter().copied())
            .collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    /// All leaders, across all shards.
    pub fn all_leaders(&self) -> Vec<ProcessId> {
        let mut all: Vec<ProcessId> = self.leaders.values().copied().collect();
        all.sort_unstable();
        all.dedup();
        all
    }

    /// The shard `p` belongs to in this configuration, if any.
    pub fn shard_of_process(&self, p: ProcessId) -> Option<ShardId> {
        self.members
            .iter()
            .find(|(_, members)| members.contains(&p))
            .map(|(shard, _)| *shard)
    }
}

impl fmt::Display for GlobalConfiguration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} shards", self.epoch, self.members.len())
    }
}

/// The configuration service state for the RDMA protocol: a single sequence
/// of global configurations.
#[derive(Debug, Clone, Default)]
pub struct GlobalConfigRegistry {
    history: Vec<GlobalConfiguration>,
}

impl GlobalConfigRegistry {
    /// Creates a registry holding the initial configuration.
    pub fn new(initial: GlobalConfiguration) -> Self {
        GlobalConfigRegistry {
            history: vec![initial],
        }
    }

    /// `get_last()`: the most recently stored configuration.
    pub fn get_last(&self) -> &GlobalConfiguration {
        self.history.last().expect("history is never empty")
    }

    /// `get(e)`: the configuration with epoch `epoch`, if any.
    pub fn get(&self, epoch: Epoch) -> Option<&GlobalConfiguration> {
        self.history.iter().find(|c| c.epoch == epoch)
    }

    /// The configuration with the highest epoch not exceeding `epoch`.
    pub fn get_at_or_below(&self, epoch: Epoch) -> Option<&GlobalConfiguration> {
        self.history.iter().rev().find(|c| c.epoch <= epoch)
    }

    /// The full configuration history, oldest first.
    pub fn history(&self) -> &[GlobalConfiguration] {
        &self.history
    }

    /// `compare_and_swap(e, c)`: stores `config` provided the stored epoch is
    /// exactly `expected`.
    ///
    /// # Errors
    ///
    /// Same conditions as
    /// [`ShardConfigRegistry::compare_and_swap`](crate::shard::ShardConfigRegistry::compare_and_swap),
    /// minus the unknown-shard case.
    pub fn compare_and_swap(
        &mut self,
        expected: Epoch,
        config: GlobalConfiguration,
    ) -> Result<(), CasError> {
        let current = self.get_last();
        if current.epoch != expected {
            return Err(CasError::EpochMismatch {
                expected,
                actual: current.epoch,
            });
        }
        if config.epoch <= current.epoch {
            return Err(CasError::NonMonotonicEpoch {
                proposed: config.epoch,
                actual: current.epoch,
            });
        }
        self.history.push(config);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(raw: u64) -> ProcessId {
        ProcessId::new(raw)
    }

    fn config(epoch: u64) -> GlobalConfiguration {
        let mut members = BTreeMap::new();
        members.insert(ShardId::new(0), vec![pid(1), pid(2)]);
        members.insert(ShardId::new(1), vec![pid(3), pid(4)]);
        let mut leaders = BTreeMap::new();
        leaders.insert(ShardId::new(0), pid(1));
        leaders.insert(ShardId::new(1), pid(3));
        GlobalConfiguration::new(Epoch::new(epoch), members, leaders)
    }

    #[test]
    fn accessors() {
        let c = config(0);
        assert_eq!(c.members_of(ShardId::new(0)), &[pid(1), pid(2)]);
        assert_eq!(c.leader_of(ShardId::new(1)), Some(pid(3)));
        assert_eq!(c.followers_of(ShardId::new(1)), vec![pid(4)]);
        assert_eq!(c.all_processes(), vec![pid(1), pid(2), pid(3), pid(4)]);
        assert_eq!(c.all_leaders(), vec![pid(1), pid(3)]);
        assert_eq!(c.shard_of_process(pid(4)), Some(ShardId::new(1)));
        assert_eq!(c.shard_of_process(pid(9)), None);
        assert!(c.members_of(ShardId::new(7)).is_empty());
        assert_eq!(c.leader_of(ShardId::new(7)), None);
        assert!(c.to_string().contains("2 shards"));
    }

    #[test]
    #[should_panic(expected = "must have a leader")]
    fn missing_leader_panics() {
        let mut members = BTreeMap::new();
        members.insert(ShardId::new(0), vec![pid(1)]);
        let _ = GlobalConfiguration::new(Epoch::ZERO, members, BTreeMap::new());
    }

    #[test]
    fn cas_sequence() {
        let mut cs = GlobalConfigRegistry::new(config(0));
        assert_eq!(cs.get_last().epoch, Epoch::ZERO);
        cs.compare_and_swap(Epoch::ZERO, config(1)).unwrap();
        assert_eq!(cs.get_last().epoch, Epoch::new(1));
        assert_eq!(cs.history().len(), 2);
        assert_eq!(cs.get(Epoch::ZERO).unwrap().epoch, Epoch::ZERO);
        assert!(cs.get(Epoch::new(9)).is_none());
        assert_eq!(
            cs.get_at_or_below(Epoch::new(9)).unwrap().epoch,
            Epoch::new(1)
        );

        let err = cs.compare_and_swap(Epoch::ZERO, config(2)).unwrap_err();
        assert!(matches!(err, CasError::EpochMismatch { .. }));
        let err = cs.compare_and_swap(Epoch::new(1), config(1)).unwrap_err();
        assert!(matches!(err, CasError::NonMonotonicEpoch { .. }));
    }
}
