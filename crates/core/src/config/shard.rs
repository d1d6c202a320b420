//! Per-shard configuration sequences (the CS of the message-passing protocol).

use std::collections::BTreeMap;
use std::fmt;

use ratc_types::{Epoch, ProcessId, ShardId};

/// A configuration of a shard: the tuple `⟨e, M, pl⟩` of §3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardConfiguration {
    /// The epoch identifying this configuration.
    pub epoch: Epoch,
    /// The set of processes managing the shard in this epoch.
    pub members: Vec<ProcessId>,
    /// The leader of the shard in this epoch (must be a member).
    pub leader: ProcessId,
}

impl ShardConfiguration {
    /// Creates a configuration, normalising the member list (sorted, no
    /// duplicates).
    ///
    /// # Panics
    ///
    /// Panics if `leader` is not contained in `members` or `members` is empty.
    pub fn new(epoch: Epoch, mut members: Vec<ProcessId>, leader: ProcessId) -> Self {
        members.sort_unstable();
        members.dedup();
        assert!(!members.is_empty(), "a configuration must have members");
        assert!(
            members.contains(&leader),
            "the leader must be a member of the configuration"
        );
        ShardConfiguration {
            epoch,
            members,
            leader,
        }
    }

    /// The followers of this configuration: all members except the leader.
    pub fn followers(&self) -> impl Iterator<Item = ProcessId> + '_ {
        let leader = self.leader;
        self.members.iter().copied().filter(move |p| *p != leader)
    }

    /// Returns `true` if `p` is a member of this configuration.
    pub fn contains(&self, p: ProcessId) -> bool {
        self.members.contains(&p)
    }

    /// Number of replicas in this configuration.
    pub fn replica_count(&self) -> usize {
        self.members.len()
    }
}

impl fmt::Display for ShardConfiguration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: leader {}, members {:?}",
            self.epoch,
            self.leader,
            self.members.iter().map(|p| p.as_u64()).collect::<Vec<_>>()
        )
    }
}

/// Errors returned by [`ShardConfigRegistry::compare_and_swap`] (and its
/// global counterpart).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CasError {
    /// The expected epoch did not match the stored epoch: a concurrent
    /// reconfiguration won the race.
    EpochMismatch {
        /// The epoch the caller expected to be current.
        expected: Epoch,
        /// The epoch actually stored.
        actual: Epoch,
    },
    /// The proposed configuration's epoch is not higher than the stored one.
    NonMonotonicEpoch {
        /// The epoch of the proposed configuration.
        proposed: Epoch,
        /// The epoch actually stored.
        actual: Epoch,
    },
    /// The shard is not known to the configuration service.
    UnknownShard(ShardId),
}

impl fmt::Display for CasError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CasError::EpochMismatch { expected, actual } => {
                write!(f, "expected epoch {expected} but found {actual}")
            }
            CasError::NonMonotonicEpoch { proposed, actual } => {
                write!(
                    f,
                    "proposed epoch {proposed} is not above stored epoch {actual}"
                )
            }
            CasError::UnknownShard(s) => write!(f, "unknown shard {s}"),
        }
    }
}

impl std::error::Error for CasError {}

/// The configuration service state for the per-shard protocol (§3): for each
/// shard, the full sequence of configurations ever stored.
///
/// # Example
///
/// ```
/// use ratc_core::config::{ShardConfigRegistry, ShardConfiguration};
/// use ratc_types::{Epoch, ProcessId, ShardId};
///
/// let s0 = ShardId::new(0);
/// let initial = ShardConfiguration::new(
///     Epoch::ZERO,
///     vec![ProcessId::new(1), ProcessId::new(2)],
///     ProcessId::new(1),
/// );
/// let mut cs = ShardConfigRegistry::new([(s0, initial)]);
/// assert_eq!(cs.get_last(s0).unwrap().epoch, Epoch::ZERO);
///
/// let next = ShardConfiguration::new(
///     Epoch::new(1),
///     vec![ProcessId::new(2), ProcessId::new(3)],
///     ProcessId::new(2),
/// );
/// cs.compare_and_swap(s0, Epoch::ZERO, next).unwrap();
/// assert_eq!(cs.get_last(s0).unwrap().epoch, Epoch::new(1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ShardConfigRegistry {
    shards: BTreeMap<ShardId, Vec<ShardConfiguration>>,
}

impl ShardConfigRegistry {
    /// Creates a registry from the initial configuration of every shard.
    pub fn new<I>(initial: I) -> Self
    where
        I: IntoIterator<Item = (ShardId, ShardConfiguration)>,
    {
        let mut shards = BTreeMap::new();
        for (shard, config) in initial {
            shards.insert(shard, vec![config]);
        }
        ShardConfigRegistry { shards }
    }

    /// The shards known to the registry.
    pub fn shards(&self) -> impl Iterator<Item = ShardId> + '_ {
        self.shards.keys().copied()
    }

    /// `get_last(s)`: the most recently stored configuration of `shard`.
    pub fn get_last(&self, shard: ShardId) -> Option<&ShardConfiguration> {
        self.shards.get(&shard).and_then(|v| v.last())
    }

    /// `get(s, e)`: the configuration of `shard` with epoch `epoch`, if any.
    pub fn get(&self, shard: ShardId, epoch: Epoch) -> Option<&ShardConfiguration> {
        self.shards.get(&shard)?.iter().find(|c| c.epoch == epoch)
    }

    /// The configuration of `shard` with the highest epoch not exceeding
    /// `epoch` — used when probing skips epochs that were never introduced.
    pub fn get_at_or_below(&self, shard: ShardId, epoch: Epoch) -> Option<&ShardConfiguration> {
        self.shards
            .get(&shard)?
            .iter()
            .rev()
            .find(|c| c.epoch <= epoch)
    }

    /// The full configuration history of `shard`, oldest first.
    pub fn history(&self, shard: ShardId) -> &[ShardConfiguration] {
        self.shards.get(&shard).map(Vec::as_slice).unwrap_or(&[])
    }

    /// `compare_and_swap(s, e, c)`: stores `config` as the new configuration
    /// of `shard` provided the currently stored epoch is exactly `expected`.
    ///
    /// # Errors
    ///
    /// * [`CasError::UnknownShard`] if the shard was never initialised;
    /// * [`CasError::EpochMismatch`] if a concurrent reconfiguration already
    ///   stored a different epoch;
    /// * [`CasError::NonMonotonicEpoch`] if `config.epoch` is not strictly
    ///   higher than the stored epoch.
    pub fn compare_and_swap(
        &mut self,
        shard: ShardId,
        expected: Epoch,
        config: ShardConfiguration,
    ) -> Result<(), CasError> {
        let history = self
            .shards
            .get_mut(&shard)
            .ok_or(CasError::UnknownShard(shard))?;
        let current = history.last().expect("shard history is never empty");
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
        history.push(config);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(raw: u64) -> ProcessId {
        ProcessId::new(raw)
    }

    fn initial() -> ShardConfigRegistry {
        ShardConfigRegistry::new([
            (
                ShardId::new(0),
                ShardConfiguration::new(Epoch::ZERO, vec![pid(1), pid(2)], pid(1)),
            ),
            (
                ShardId::new(1),
                ShardConfiguration::new(Epoch::ZERO, vec![pid(3), pid(4)], pid(3)),
            ),
        ])
    }

    #[test]
    fn configuration_accessors() {
        let c = ShardConfiguration::new(Epoch::new(2), vec![pid(5), pid(3), pid(5)], pid(3));
        assert_eq!(c.members, vec![pid(3), pid(5)]);
        assert_eq!(c.followers().collect::<Vec<_>>(), vec![pid(5)]);
        assert!(c.contains(pid(5)));
        assert!(!c.contains(pid(7)));
        assert_eq!(c.replica_count(), 2);
        assert!(c.to_string().contains("e2"));
    }

    #[test]
    #[should_panic(expected = "leader must be a member")]
    fn leader_must_be_member() {
        let _ = ShardConfiguration::new(Epoch::ZERO, vec![pid(1)], pid(2));
    }

    #[test]
    #[should_panic(expected = "must have members")]
    fn members_must_not_be_empty() {
        let _ = ShardConfiguration::new(Epoch::ZERO, vec![], pid(2));
    }

    #[test]
    fn get_last_and_get() {
        let cs = initial();
        assert_eq!(cs.shards().count(), 2);
        assert_eq!(cs.get_last(ShardId::new(0)).unwrap().leader, pid(1));
        assert_eq!(
            cs.get(ShardId::new(1), Epoch::ZERO).unwrap().members,
            vec![pid(3), pid(4)]
        );
        assert!(cs.get(ShardId::new(1), Epoch::new(5)).is_none());
        assert!(cs.get_last(ShardId::new(9)).is_none());
        assert_eq!(cs.history(ShardId::new(0)).len(), 1);
        assert!(cs.history(ShardId::new(9)).is_empty());
    }

    #[test]
    fn cas_success_and_history() {
        let mut cs = initial();
        let s0 = ShardId::new(0);
        let next = ShardConfiguration::new(Epoch::new(1), vec![pid(2), pid(9)], pid(2));
        cs.compare_and_swap(s0, Epoch::ZERO, next.clone()).unwrap();
        assert_eq!(cs.get_last(s0), Some(&next));
        assert_eq!(cs.history(s0).len(), 2);
        assert_eq!(cs.get_at_or_below(s0, Epoch::new(7)), Some(&next));
        assert_eq!(
            cs.get_at_or_below(s0, Epoch::ZERO).unwrap().epoch,
            Epoch::ZERO
        );
    }

    #[test]
    fn cas_detects_concurrent_reconfiguration() {
        let mut cs = initial();
        let s0 = ShardId::new(0);
        cs.compare_and_swap(
            s0,
            Epoch::ZERO,
            ShardConfiguration::new(Epoch::new(1), vec![pid(2)], pid(2)),
        )
        .unwrap();
        // A second CAS that still expects epoch 0 fails.
        let err = cs
            .compare_and_swap(
                s0,
                Epoch::ZERO,
                ShardConfiguration::new(Epoch::new(2), vec![pid(9)], pid(9)),
            )
            .unwrap_err();
        assert_eq!(
            err,
            CasError::EpochMismatch {
                expected: Epoch::ZERO,
                actual: Epoch::new(1)
            }
        );
    }

    #[test]
    fn cas_rejects_non_monotonic_epochs_and_unknown_shards() {
        let mut cs = initial();
        let s0 = ShardId::new(0);
        let err = cs
            .compare_and_swap(
                s0,
                Epoch::ZERO,
                ShardConfiguration::new(Epoch::ZERO, vec![pid(2)], pid(2)),
            )
            .unwrap_err();
        assert!(matches!(err, CasError::NonMonotonicEpoch { .. }));
        let err = cs
            .compare_and_swap(
                ShardId::new(9),
                Epoch::ZERO,
                ShardConfiguration::new(Epoch::new(1), vec![pid(2)], pid(2)),
            )
            .unwrap_err();
        assert_eq!(err, CasError::UnknownShard(ShardId::new(9)));
        assert!(err.to_string().contains("unknown shard"));
    }
}
