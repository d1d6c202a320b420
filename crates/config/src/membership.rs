//! Computing new memberships during reconfiguration.
//!
//! The paper leaves `compute_membership` unspecified, requiring only that the
//! new membership contains the new leader and otherwise consists of processes
//! that replied to probing or of fresh processes, added "to reach the desired
//! level of fault tolerance" (§3). [`MembershipPlanner`] implements that
//! contract: it keeps a pool of spare (fresh) processes and builds new
//! configurations of a target size around a chosen leader.

use std::collections::{BTreeSet, VecDeque};

use ratc_types::ProcessId;

/// Plans new shard memberships from probe responders and a pool of fresh
/// replicas.
#[derive(Debug, Clone, Default)]
pub struct MembershipPlanner {
    spares: VecDeque<ProcessId>,
    target_size: usize,
}

impl MembershipPlanner {
    /// Creates a planner targeting configurations of `target_size` replicas
    /// (`f + 1` for tolerating `f` failures between reconfigurations), drawing
    /// replacements from `spares` in order.
    pub fn new<I>(target_size: usize, spares: I) -> Self
    where
        I: IntoIterator<Item = ProcessId>,
    {
        MembershipPlanner {
            spares: spares.into_iter().collect(),
            target_size: target_size.max(1),
        }
    }

    /// The configured target configuration size.
    pub fn target_size(&self) -> usize {
        self.target_size
    }

    /// Number of fresh processes still available.
    pub fn spare_count(&self) -> usize {
        self.spares.len()
    }

    /// Computes a new membership around `new_leader`.
    ///
    /// The membership always contains `new_leader`, then the surviving probe
    /// responders (in the given order), topped up with fresh processes until
    /// the target size is reached or the spare pool runs dry. Processes listed
    /// in `exclude` (e.g. replicas suspected of having crashed) are never
    /// used.
    pub fn plan(
        &mut self,
        new_leader: ProcessId,
        responders: &[ProcessId],
        exclude: &[ProcessId],
    ) -> Vec<ProcessId> {
        let excluded: BTreeSet<ProcessId> = exclude.iter().copied().collect();
        let mut members = vec![new_leader];
        for p in responders {
            if members.len() >= self.target_size {
                break;
            }
            if *p != new_leader && !excluded.contains(p) && !members.contains(p) {
                members.push(*p);
            }
        }
        while members.len() < self.target_size {
            let Some(fresh) = self.spares.pop_front() else {
                break;
            };
            if !excluded.contains(&fresh) && !members.contains(&fresh) {
                members.push(fresh);
            }
        }
        members.sort_unstable();
        members
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(raw: u64) -> ProcessId {
        ProcessId::new(raw)
    }

    #[test]
    fn plan_prefers_responders_then_spares() {
        let mut planner = MembershipPlanner::new(3, [pid(10), pid(11)]);
        assert_eq!(planner.target_size(), 3);
        assert_eq!(planner.spare_count(), 2);
        let members = planner.plan(pid(2), &[pid(3)], &[]);
        assert_eq!(members, vec![pid(2), pid(3), pid(10)]);
        assert_eq!(planner.spare_count(), 1);
    }

    #[test]
    fn plan_excludes_suspected_processes() {
        let mut planner = MembershipPlanner::new(2, [pid(10)]);
        let members = planner.plan(pid(2), &[pid(3), pid(4)], &[pid(3)]);
        assert_eq!(members, vec![pid(2), pid(4)]);
        // The spare pool was not touched because responders sufficed.
        assert_eq!(planner.spare_count(), 1);
    }

    #[test]
    fn plan_handles_exhausted_spares() {
        let mut planner = MembershipPlanner::new(4, []);
        let members = planner.plan(pid(1), &[pid(2)], &[]);
        // Cannot reach the target size, but the leader and responders are kept.
        assert_eq!(members, vec![pid(1), pid(2)]);
    }

    #[test]
    fn plan_never_duplicates_the_leader() {
        let mut planner = MembershipPlanner::new(3, [pid(5)]);
        let members = planner.plan(pid(2), &[pid(2), pid(2), pid(3)], &[]);
        assert_eq!(members, vec![pid(2), pid(3), pid(5)]);
    }

    #[test]
    fn target_size_is_at_least_one() {
        let planner = MembershipPlanner::new(0, []);
        assert_eq!(planner.target_size(), 1);
    }
}
