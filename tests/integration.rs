//! Cross-crate integration tests: every TCS implementation is driven through
//! the unified facade and checked against the black-box specification.

use ratc::core::harness::{Cluster, ClusterConfig, CoreStack};
use ratc::core::invariants::check_cluster;
use ratc::core::replica::{Replica, TruncationConfig};
use ratc::harness::{ClusterSpec, StackKind, TcsCluster};
use ratc::rdma::{RdmaCluster, RdmaReplica, RdmaStack, ReconfigMode};
use ratc::spec::{check_conflict_serializable, check_history};
use ratc::types::prelude::*;

fn core_replica(cluster: &Cluster, pid: ProcessId) -> &Replica {
    cluster.world.actor::<Replica>(pid).expect("replica")
}

#[test]
fn all_three_protocols_agree_on_a_contended_workload() {
    // The same deterministic workload of 30 transactions over 5 hot keys is
    // run against every TCS implementation — through the unified facade, so
    // the driver is written exactly once. Exact decisions may differ (they
    // depend on message timing), but every history must satisfy the TCS
    // specification and conflicting transactions must never both commit.
    let payloads: Vec<(TxId, Payload)> = (0..30u64)
        .map(|i| {
            let key = format!("hot-{}", i % 5);
            (
                TxId::new(i + 1),
                Payload::builder()
                    .read(Key::new(&key), Version::ZERO)
                    .write(Key::new(&key), Value::from("x"))
                    .commit_version(Version::new(i + 1))
                    .build()
                    .expect("well-formed"),
            )
        })
        .collect();

    for stack in [StackKind::Core, StackKind::Rdma, StackKind::Baseline] {
        let mut cluster = ClusterSpec::new(stack).with_shards(2).with_seed(5).build();
        for (tx, p) in &payloads {
            cluster.submit(*tx, p.clone());
        }
        cluster.run_to_quiescence();
        let history = cluster.history();
        assert!(
            check_history(&history, &Serializability::new()).is_empty(),
            "{stack}: specification violated"
        );
        assert_eq!(history.decide_count(), 30, "{stack}: lost decisions");
        assert!(cluster.client_violations().is_empty(), "{stack}");

        // At most one transaction per hot key can commit under
        // serializability when all of them read version 0.
        for hot in 0..5u64 {
            let committed_on_key = history
                .committed()
                .filter(|tx| (tx.as_u64() - 1) % 5 == hot)
                .count();
            assert!(
                committed_on_key <= 1,
                "{stack} key hot-{hot}: {committed_on_key} commits"
            );
        }
    }
}

#[test]
fn write_conflict_policy_commits_more_than_serializability() {
    use std::sync::Arc;
    // Read-only transactions against a written key abort under
    // serializability (stale reads) but commit under the write-conflict
    // policy, demonstrating the protocols' parametricity in the isolation
    // level.
    let payloads: Vec<(TxId, Payload)> = (0..20u64)
        .map(|i| {
            let mut b = Payload::builder().read(Key::new("shared"), Version::ZERO);
            if i % 2 == 0 {
                b = b
                    .write(Key::new("shared"), Value::from("w"))
                    .commit_version(Version::new(i + 1));
            }
            (TxId::new(i + 1), b.build().expect("well-formed"))
        })
        .collect();

    let run = |policy: Arc<dyn CertificationPolicy>| {
        let mut cluster = Cluster::new(
            CoreStack,
            ClusterConfig::default()
                .with_shards(2)
                .with_seed(9)
                .with_policy(policy),
        );
        for (tx, p) in &payloads {
            cluster.submit(*tx, p.clone());
        }
        cluster.run_to_quiescence();
        cluster.history().committed().count()
    };

    let serializable_commits = run(Arc::new(Serializability::new()));
    let write_conflict_commits = run(Arc::new(WriteConflict::new()));
    assert!(
        write_conflict_commits > serializable_commits,
        "write-conflict ({write_conflict_commits}) must admit more commits than serializability ({serializable_commits})"
    );
}

/// A mildly contended payload stream: distinct keys repeat every 8
/// transactions, with read versions chosen so that repeats conflict and
/// abort, exercising both outcomes in the truncated prefix.
fn contended_payload(i: u64) -> Payload {
    Payload::builder()
        .read(Key::new(format!("hot-{}", i % 8)), Version::ZERO)
        .write(Key::new(format!("hot-{}", i % 8)), Value::from("v"))
        .commit_version(Version::new(i + 1))
        .build()
        .expect("well-formed")
}

#[test]
fn crash_recovery_from_checkpoint_and_suffix_loses_no_decisions() {
    // Aggressive truncation so the prefix is folded well before the crash.
    let mut cluster = Cluster::new(
        CoreStack,
        ClusterConfig::default()
            .with_shards(2)
            .with_seed(41)
            .with_truncation(TruncationConfig::with_batch(4)),
    );
    for i in 0..40u64 {
        cluster.submit(TxId::new(i + 1), contended_payload(i));
        cluster.run_to_quiescence();
    }
    let shard = ShardId::new(0);
    let leader = cluster.shard_view(shard).leader.expect("leader");
    assert!(
        core_replica(&cluster, leader).log().base().as_u64() > 0,
        "the leader must have truncated before the crash"
    );

    // Kill a follower mid-history and recover through reconfiguration: the
    // spare is initialised from NEW_STATE carrying Checkpoint + suffix.
    let follower = *cluster
        .shard_view(shard)
        .roster
        .iter()
        .find(|p| **p != leader)
        .expect("follower");
    cluster.crash(follower);
    cluster.start_reconfiguration(shard, leader, vec![follower]);
    cluster.run_to_quiescence();

    let view = cluster.shard_view(shard);
    assert!(!view.members.contains(&follower));
    let recovered = *view
        .members
        .iter()
        .find(|p| !view.roster.contains(p))
        .expect("a spare joined the configuration");
    let recovered_log = core_replica(&cluster, recovered).log();
    assert!(
        recovered_log.base().as_u64() > 0,
        "state transfer must carry the checkpoint, not the whole log"
    );
    // Decisions folded before the crash are still answerable at the spare.
    let (tx, dec) = recovered_log
        .checkpoint()
        .decisions()
        .map(|(_, tx, dec)| (tx, dec))
        .next()
        .expect("checkpoint has folded decisions");
    assert_eq!(recovered_log.truncated_decision(tx), Some(dec));

    // Keep certifying after recovery.
    for i in 40..60u64 {
        cluster.submit(TxId::new(i + 1), contended_payload(i));
        cluster.run_to_quiescence();
    }

    // The merged history (before + after the crash) must satisfy the TCS
    // specification and stay conflict-serializable: no decision and no
    // conflict edge was lost to truncation.
    let history = cluster.history();
    assert_eq!(history.decide_count(), 60);
    assert!(check_history(&history, &Serializability::new()).is_empty());
    assert!(check_conflict_serializable(&history).is_ok());
    assert!(check_cluster(&cluster).is_empty());
    assert!(cluster.client_violations().is_empty());
}

#[test]
fn rdma_crash_recovery_with_truncation_preserves_the_specification() {
    let mut cluster = RdmaCluster::new(
        RdmaStack::new(ReconfigMode::GlobalCorrect),
        ClusterConfig::default()
            .with_shards(2)
            .with_seed(23)
            .with_truncation(TruncationConfig::with_batch(4)),
    );
    for i in 0..30u64 {
        cluster.submit(TxId::new(i + 1), contended_payload(i));
        cluster.run_to_quiescence();
    }
    let shard = ShardId::new(0);
    let leader = cluster.shard_view(shard).leader.expect("leader");
    let leader_replica = cluster.world.actor::<RdmaReplica>(leader).expect("replica");
    assert!(
        leader_replica.log().base().as_u64() > 0,
        "the RDMA leader must have truncated before the crash"
    );
    let follower = *cluster
        .shard_view(shard)
        .members
        .iter()
        .find(|p| **p != leader)
        .expect("follower");
    cluster.crash(follower);
    cluster.start_reconfiguration(shard, leader, vec![follower]);
    cluster.run_to_quiescence();

    for i in 30..45u64 {
        cluster.submit(TxId::new(i + 1), contended_payload(i));
        cluster.run_to_quiescence();
    }
    let history = cluster.history();
    assert_eq!(history.decide_count(), 45);
    assert!(check_history(&history, &Serializability::new()).is_empty());
    assert!(check_conflict_serializable(&history).is_ok());
    assert!(cluster.client_violations().is_empty());
}

#[test]
fn reconfiguration_mid_stream_preserves_the_specification() {
    let mut cluster = Cluster::new(
        CoreStack,
        ClusterConfig::default().with_shards(2).with_seed(33),
    );
    for i in 0..15u64 {
        cluster.submit(
            TxId::new(i + 1),
            Payload::builder()
                .read(Key::new(format!("k{}", i % 4)), Version::ZERO)
                .write(Key::new(format!("k{}", i % 4)), Value::from("v"))
                .commit_version(Version::new(i + 1))
                .build()
                .expect("well-formed"),
        );
    }
    // Crash a follower while the stream is in flight.
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

    for i in 15..25u64 {
        cluster.submit(
            TxId::new(i + 1),
            Payload::builder()
                .read(Key::new(format!("fresh-{i}")), Version::ZERO)
                .write(Key::new(format!("fresh-{i}")), Value::from("v"))
                .commit_version(Version::new(1))
                .build()
                .expect("well-formed"),
        );
    }
    cluster.run_to_quiescence();

    let history = cluster.history();
    assert!(check_history(&history, &Serializability::new()).is_empty());
    assert!(check_cluster(&cluster).is_empty());
    assert!(cluster.client_violations().is_empty());
    // Transactions submitted after recovery must all be decided.
    for i in 15..25u64 {
        assert!(
            history.decision(TxId::new(i + 1)).is_some(),
            "t{} undecided",
            i + 1
        );
    }
}
