//! White-box invariant checkers (Figure 3 of the paper).
//!
//! These functions evaluate the paper's key invariants over live replica
//! state. They are necessarily *snapshot* checks — they compare the current
//! states of replicas rather than full message histories — but they cover the
//! properties the correctness proof actually relies on:
//!
//! * **Invariant 1 (follower prefix)** — a follower's certification log is a
//!   prefix-with-holes of its leader's log for the same epoch;
//! * **Invariant 4a (per-slot agreement)** — all replicas of a shard that have
//!   a decision for the same certification-order position agree on it;
//! * **Invariant 4b (per-transaction agreement)** — checked at the history
//!   level by `ratc-spec` (contradictory client decisions);
//! * **vote/payload agreement** — replicas of a shard that store the same
//!   position agree on the transaction, payload and vote;
//! * **single leader per epoch** — at most one replica of a shard considers
//!   itself leader of any given epoch.
//!
//! The experiment drivers call [`check_cluster`] between simulation steps and
//! at the end of every run; any violation is reported with enough context to
//! reproduce it (the checks are deterministic given the simulation seed).

use std::collections::BTreeMap;

use ratc_types::{Epoch, Position, ProcessId, ShardId};

use crate::harness::{Cluster, TcsCluster};
use crate::replica::{Replica, Status};

/// A violation of one of the checked invariants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// Which invariant was violated.
    pub invariant: &'static str,
    /// Human-readable details.
    pub details: String,
}

impl std::fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.invariant, self.details)
    }
}

/// Checks all supported invariants over every shard of the cluster, returning
/// every violation found (empty = all invariants hold).
pub fn check_cluster(cluster: &Cluster) -> Vec<InvariantViolation> {
    let mut violations = Vec::new();
    for shard in cluster.shards() {
        // Collect the live replicas of this shard (initial members and spares:
        // spares may have joined a later configuration).
        let mut replicas: Vec<(ProcessId, &Replica)> = Vec::new();
        let view = cluster.shard_view(shard);
        for pid in view.roster.into_iter().chain(view.spares) {
            if cluster.is_crashed(pid) {
                continue;
            }
            let replica = cluster.world.actor::<Replica>(pid).expect("replica");
            replicas.push((pid, replica));
        }
        violations.extend(check_shard(shard, &replicas));
    }
    violations
}

/// Checks the invariants over the replicas of one shard.
pub fn check_shard(shard: ShardId, replicas: &[(ProcessId, &Replica)]) -> Vec<InvariantViolation> {
    let mut violations = Vec::new();
    violations.extend(check_single_leader_per_epoch(shard, replicas));
    violations.extend(check_follower_prefix(shard, replicas));
    violations.extend(check_slot_agreement(shard, replicas));
    violations
}

/// At most one live replica of a shard believes it is the leader of any given
/// epoch.
fn check_single_leader_per_epoch(
    shard: ShardId,
    replicas: &[(ProcessId, &Replica)],
) -> Vec<InvariantViolation> {
    let mut leaders_per_epoch: BTreeMap<Epoch, Vec<ProcessId>> = BTreeMap::new();
    for (pid, replica) in replicas {
        if replica.status() == Status::Leader {
            leaders_per_epoch
                .entry(replica.epoch_of(shard))
                .or_default()
                .push(*pid);
        }
    }
    leaders_per_epoch
        .into_iter()
        .filter(|(_, leaders)| leaders.len() > 1)
        .map(|(epoch, leaders)| InvariantViolation {
            invariant: "single-leader-per-epoch",
            details: format!("shard {shard} epoch {epoch} has multiple leaders: {leaders:?}"),
        })
        .collect()
}

/// Invariant 1: every follower's log is a prefix-with-holes of its current
/// leader's log (compared at the follower's epoch, only when both replicas are
/// currently in the same epoch).
fn check_follower_prefix(
    shard: ShardId,
    replicas: &[(ProcessId, &Replica)],
) -> Vec<InvariantViolation> {
    let mut violations = Vec::new();
    for (leader_pid, leader) in replicas {
        if leader.status() != Status::Leader {
            continue;
        }
        let leader_epoch = leader.epoch_of(shard);
        for (follower_pid, follower) in replicas {
            if follower_pid == leader_pid || follower.status() != Status::Follower {
                continue;
            }
            if follower.epoch_of(shard) != leader_epoch {
                continue;
            }
            let len = leader.log().next();
            if !follower.log().is_prefix_with_holes_of(leader.log(), len) {
                violations.push(InvariantViolation {
                    invariant: "follower-prefix (Invariant 1)",
                    details: format!(
                        "shard {shard} epoch {leader_epoch}: follower {follower_pid} log is not a prefix-with-holes of leader {leader_pid}"
                    ),
                });
            }
        }
    }
    violations
}

/// Invariant 4a + vote agreement: replicas of the same shard that have filled
/// the same certification-order slot agree on the transaction, vote, payload
/// and (if present) decision at that slot. Checkpoint-aware: a replica that
/// truncated a slot still exposes its transaction identity and final decision
/// through the checkpoint, and those must agree with every peer's view of the
/// slot (retained or truncated).
fn check_slot_agreement(
    shard: ShardId,
    replicas: &[(ProcessId, &Replica)],
) -> Vec<InvariantViolation> {
    let mut violations = Vec::new();
    // Only compare replicas in the *same epoch*: across epochs, slots of
    // not-fully-accepted transactions may legitimately differ (the paper's
    // "losing undecided transactions" behaviour).
    let mut by_epoch: BTreeMap<Epoch, Vec<(ProcessId, &Replica)>> = BTreeMap::new();
    for (pid, replica) in replicas {
        by_epoch
            .entry(replica.epoch_of(shard))
            .or_default()
            .push((*pid, replica));
    }
    for (epoch, group) in by_epoch {
        let max_len = group
            .iter()
            .map(|(_, r)| r.log().next().as_u64())
            .max()
            .unwrap_or(0);
        for slot in 0..max_len {
            let pos = Position::new(slot);
            // Full comparison between retained entries (payload and vote).
            let mut seen: Option<(ProcessId, &crate::log::LogEntry)> = None;
            // Identity comparison across retained and truncated views.
            let mut seen_id: Option<(ProcessId, ratc_types::TxId)> = None;
            let mut seen_dec: Option<(ProcessId, ratc_types::Decision)> = None;
            for (pid, replica) in &group {
                if let Some(entry) = replica.log().get(pos) {
                    match seen {
                        None => seen = Some((*pid, entry)),
                        Some((first_pid, first)) => {
                            if first.tx != entry.tx
                                || first.vote != entry.vote
                                || first.payload != entry.payload
                            {
                                violations.push(InvariantViolation {
                                    invariant: "slot-agreement (Invariants 1/2/6)",
                                    details: format!(
                                        "shard {shard} epoch {epoch} slot {pos}: {first_pid} and {pid} disagree ({:?}/{:?} vs {:?}/{:?})",
                                        first.tx, first.vote, entry.tx, entry.vote
                                    ),
                                });
                            }
                        }
                    }
                }
                let Some((tx, dec)) = replica.log().slot_identity(pos) else {
                    continue;
                };
                match seen_id {
                    None => seen_id = Some((*pid, tx)),
                    Some((first_pid, first_tx)) => {
                        if first_tx != tx {
                            violations.push(InvariantViolation {
                                invariant: "slot-agreement (Invariants 1/2/6)",
                                details: format!(
                                    "shard {shard} epoch {epoch} slot {pos}: {first_pid} stored {first_tx} but {pid} stored {tx} (checkpoint-aware)"
                                ),
                            });
                        }
                    }
                }
                if let Some(dec) = dec {
                    match seen_dec {
                        None => seen_dec = Some((*pid, dec)),
                        Some((first_pid, first_dec)) => {
                            if first_dec != dec {
                                violations.push(InvariantViolation {
                                    invariant: "decision-agreement (Invariant 4a)",
                                    details: format!(
                                        "shard {shard} epoch {epoch} slot {pos}: {first_pid} decided {first_dec} but {pid} decided {dec}"
                                    ),
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{ClusterConfig, CoreStack};
    use ratc_types::{Key, Payload, TxId, Value, Version};

    fn rw_payload(key: &str) -> Payload {
        Payload::builder()
            .read(Key::new(key), Version::new(0))
            .write(Key::new(key), Value::from("v"))
            .commit_version(Version::new(1))
            .build()
            .expect("well-formed")
    }

    #[test]
    fn invariants_hold_on_a_failure_free_run() {
        let mut cluster = Cluster::new(
            CoreStack,
            ClusterConfig::default().with_shards(3).with_seed(1),
        );
        for i in 0..30 {
            cluster.submit(TxId::new(i), rw_payload(&format!("k{i}")));
        }
        cluster.run_to_quiescence();
        let violations = check_cluster(&cluster);
        assert!(violations.is_empty(), "violations: {violations:?}");
    }

    #[test]
    fn invariants_hold_across_a_reconfiguration() {
        let mut cluster = Cluster::new(CoreStack, ClusterConfig::default().with_seed(2));
        for i in 0..10 {
            cluster.submit(TxId::new(i), rw_payload(&format!("k{i}")));
        }
        cluster.run_to_quiescence();

        let shard = ShardId::new(0);
        let view = cluster.shard_view(shard);
        let leader = view.leader.expect("leader");
        let follower = *view
            .roster
            .iter()
            .find(|p| **p != leader)
            .expect("follower");
        cluster.crash(follower);
        cluster.start_reconfiguration(shard, leader, vec![follower]);
        cluster.run_to_quiescence();

        for i in 10..20 {
            cluster.submit(TxId::new(i), rw_payload(&format!("k{i}")));
        }
        cluster.run_to_quiescence();

        let violations = check_cluster(&cluster);
        assert!(violations.is_empty(), "violations: {violations:?}");
    }

    #[test]
    fn violation_display_is_informative() {
        let v = InvariantViolation {
            invariant: "single-leader-per-epoch",
            details: "example".to_owned(),
        };
        assert!(v.to_string().contains("single-leader-per-epoch"));
    }
}
