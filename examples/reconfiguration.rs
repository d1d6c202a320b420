//! Reconfiguration walk-through: crash a follower and then the leader of a
//! shard, reconfigure through the configuration service each time, and keep
//! certifying transactions — with only `f + 1 = 2` replicas per shard.
//!
//! The cluster is deployed from the unified `ClusterSpec` and driven through
//! the stack-agnostic `TcsCluster` introspection (`epoch_of` / `leader_of` /
//! `members_of`); only the final white-box invariant check needs the
//! concrete core cluster, which the same spec also builds.
//!
//! Run with: `cargo run --example reconfiguration`

use ratc::core::invariants::check_cluster;
use ratc::harness::{ClusterSpec, StackKind, TcsCluster};
use ratc::types::prelude::*;

fn payload(i: u64) -> Payload {
    Payload::builder()
        .read(Key::new(format!("k{i}")), Version::ZERO)
        .write(Key::new(format!("k{i}")), Value::from("v"))
        .commit_version(Version::new(1))
        .build()
        .expect("well-formed payload")
}

fn main() {
    let mut cluster = ClusterSpec::new(StackKind::Core)
        .with_shards(2)
        .with_seed(3)
        .build_core();
    let shard = ShardId::new(0);

    let view = cluster.shard_view(shard);
    println!(
        "initial configuration of {shard}: epoch {}, leader {}, members {:?}",
        view.epoch,
        view.leader.expect("leader"),
        view.members
    );

    for i in 0..10 {
        cluster.submit(TxId::new(i + 1), payload(i));
    }
    cluster.run_to_quiescence();
    println!(
        "committed before any failure: {}",
        cluster.history().committed().count()
    );

    // 1. Crash the follower; the leader initiates reconfiguration and a spare
    //    replica is brought in.
    let view = cluster.shard_view(shard);
    let leader = view.leader.expect("leader");
    let follower = view
        .members
        .into_iter()
        .find(|p| *p != leader)
        .expect("follower");
    println!("\ncrashing follower {follower} of {shard}");
    cluster.crash(follower);
    cluster.start_reconfiguration(shard, leader, vec![follower]);
    cluster.run_to_quiescence();
    let view = cluster.shard_view(shard);
    println!(
        "after reconfiguration 1: epoch {}, leader {}, members {:?}",
        view.epoch,
        view.leader.expect("leader"),
        view.members
    );

    for i in 10..20 {
        cluster.submit(TxId::new(i + 1), payload(i));
    }
    cluster.run_to_quiescence();

    // 2. Crash the leader; the surviving follower probes, becomes the new
    //    leader and brings in another spare.
    let view = cluster.shard_view(shard);
    let leader = view.leader.expect("leader");
    let survivor = view
        .members
        .into_iter()
        .find(|p| *p != leader)
        .expect("survivor");
    println!("\ncrashing leader {leader} of {shard}");
    cluster.crash(leader);
    cluster.start_reconfiguration(shard, survivor, vec![leader]);
    cluster.run_to_quiescence();
    let view = cluster.shard_view(shard);
    println!(
        "after reconfiguration 2: epoch {}, leader {}, members {:?}",
        view.epoch,
        view.leader.expect("leader"),
        view.members
    );

    for i in 20..30 {
        cluster.submit(TxId::new(i + 1), payload(i));
    }
    cluster.run_to_quiescence();

    let history = cluster.history();
    println!("\ntotal committed: {}", history.committed().count());
    println!("total aborted: {}", history.aborted().count());
    println!("client violations: {}", cluster.client_violations().len());
    let violations = check_cluster(&cluster);
    println!("invariant violations: {}", violations.len());
    assert!(violations.is_empty());
    assert!(cluster.client_violations().is_empty());
}
