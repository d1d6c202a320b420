//! Crash–restart recovery under load, per stack.
//!
//! A process crashed mid-traffic and later restarted recovers from what it
//! models as stable storage (checkpoint + suffix of the certification log,
//! or the durable Paxos state), re-establishes its connections, and the
//! cluster finishes every transaction without a reconfiguration being
//! strictly necessary. All four suites drive the same stack-agnostic
//! [`ChaosHarness`](ratc_chaos::ChaosHarness); only the stack selector and
//! the assertions differ.

use ratc_chaos::{build_harness, run_soak, FaultEvent, FaultPlan, SoakConfig, TimedFault};
use ratc_harness::StackKind;
use ratc_types::ShardId;

fn restart_plan(events: &[(u64, FaultEvent)]) -> FaultPlan {
    FaultPlan {
        noise: None,
        events: events
            .iter()
            .map(|(at_micros, event)| TimedFault {
                at_micros: *at_micros,
                event: event.clone(),
            })
            .collect(),
    }
}

fn leader_and_follower_restart_plan() -> FaultPlan {
    let s0 = ShardId::new(0);
    let s1 = ShardId::new(1);
    restart_plan(&[
        (5_000, FaultEvent::CrashLeader { shard: s0 }),
        (
            8_000,
            FaultEvent::CrashFollower {
                shard: s1,
                index: 0,
            },
        ),
        (14_000, FaultEvent::RestartCrashed),
        (20_000, FaultEvent::CrashCoordinator),
        (26_000, FaultEvent::RestartCrashed),
    ])
}

fn config() -> SoakConfig {
    SoakConfig {
        seed: 11,
        txs: 40,
        ..SoakConfig::default()
    }
}

#[test]
fn core_replicas_recover_from_checkpoint_and_suffix_under_load() {
    let mut harness = build_harness(StackKind::Core, 2, 11, None);
    let report = run_soak(&mut harness, &config(), &leader_and_follower_restart_plan());
    assert!(
        report.ok(),
        "violations={:?} undecided={:?}",
        report.safety_violations,
        report.undecided
    );
    // Restarts actually exercised the recovery path (the counter is bumped
    // by `Replica::on_restart`, which rebuilds the certification index from
    // checkpoint + suffix).
    assert!(
        harness.cluster().metrics().counter("replica_restarts") >= 3,
        "expected at least three replica restarts"
    );
}

#[test]
fn rdma_replicas_reconnect_and_recover_under_load() {
    let mut harness = build_harness(StackKind::Rdma, 2, 11, None);
    let report = run_soak(&mut harness, &config(), &leader_and_follower_restart_plan());
    assert!(
        report.ok(),
        "violations={:?} undecided={:?}",
        report.safety_violations,
        report.undecided
    );
    assert!(harness.cluster().metrics().counter("replica_restarts") >= 3);
}

#[test]
fn baseline_masks_a_follower_crash_and_recovers_leaders_by_restart() {
    let s0 = ShardId::new(0);
    // The minority follower crash is masked by Paxos without any repair; the
    // shard leader and the TM leader recover by restarting from their
    // durable Paxos state.
    let plan = restart_plan(&[
        (
            4_000,
            FaultEvent::CrashFollower {
                shard: s0,
                index: 0,
            },
        ),
        (9_000, FaultEvent::CrashLeader { shard: s0 }),
        (15_000, FaultEvent::RestartCrashed),
        (20_000, FaultEvent::CrashCoordinator), // the TM leader
        (26_000, FaultEvent::RestartCrashed),
    ]);
    let mut harness = build_harness(StackKind::Baseline, 2, 11, None);
    let report = run_soak(&mut harness, &config(), &plan);
    assert!(
        report.ok(),
        "violations={:?} undecided={:?}",
        report.safety_violations,
        report.undecided
    );
    let cluster = harness.cluster();
    assert!(
        cluster.metrics().counter("replica_restarts") + cluster.metrics().counter("tm_restarts")
            >= 3
    );
}

/// A leader that crashes and restarts resumes leadership from its persisted
/// log — no reconfiguration required (the registry epoch never moves).
#[test]
fn core_leader_restart_resumes_without_reconfiguration() {
    let s0 = ShardId::new(0);
    let plan = restart_plan(&[
        (6_000, FaultEvent::CrashLeader { shard: s0 }),
        (12_000, FaultEvent::RestartCrashed),
    ]);
    let mut harness = build_harness(StackKind::Core, 2, 23, None);
    let report = run_soak(&mut harness, &config(), &plan);
    assert!(
        report.ok(),
        "violations={:?} undecided={:?}",
        report.safety_violations,
        report.undecided
    );
    assert_eq!(
        harness.cluster().shard_view(s0).epoch.as_u64(),
        0,
        "no reconfiguration should have been needed"
    );
}

/// A coordinator that restarts with a `PREPARE` in flight loses its
/// coordinator state, and the `PREPARE_ACK` that then arrives makes it a
/// *recovery* coordinator of those transactions. That entry must be counted
/// in flight like any other, or completing it underflows the admission
/// window (a panic in debug builds, a window wedged for ever in release: the
/// next transaction through the coordinator stays undecided).
macro_rules! coordinator_restart_with_a_prepare_in_flight {
    ($stack:expr, $build:ident, $replica:ty, $batch:expr) => {{
        use ratc_core::batch::BatchingConfig;
        use ratc_harness::{ClusterSpec, TcsCluster};
        use ratc_sim::SimDuration;
        use ratc_types::{Decision, Key, Payload, ShardMap, TxId, Value, Version};

        let s0 = ShardId::new(0);
        let mut cluster = ClusterSpec::new($stack)
            .with_shards(2)
            .with_seed(17)
            .with_batching(BatchingConfig::with_batch($batch))
            .$build();
        let mut payloads: Vec<Payload> = (0u64..)
            .map(|i| Key::new(format!("k{i}")))
            .filter(|k| cluster.sharding().shard_of(k) == s0)
            .take(3)
            .map(|key| {
                Payload::builder()
                    .read(key.clone(), Version::ZERO)
                    .write(key, Value::from("v"))
                    .commit_version(Version::new(1))
                    .build()
                    .expect("well-formed")
            })
            .collect();
        let mut shard0_payload = || payloads.pop().expect("three payloads");
        let coordinator = cluster.shard_view(s0).roster[1];
        cluster.submit_via(TxId::new(1), shard0_payload(), coordinator);
        cluster.submit_via(TxId::new(2), shard0_payload(), coordinator);
        cluster.run_for(SimDuration::from_micros(50));
        cluster.crash(coordinator);
        assert!(cluster.restart(coordinator));
        cluster.run_to_quiescence();

        cluster.submit_via(TxId::new(3), shard0_payload(), coordinator);
        cluster.run_to_quiescence();
        assert_eq!(
            cluster.history().decision(TxId::new(3)),
            Some(Decision::Commit),
            "{:?} batch {}: the admission window wedged",
            $stack,
            $batch
        );
        // Also checks (debug builds) that the in-flight counter is in
        // lockstep with the coordinator map.
        let replica = cluster.world.actor::<$replica>(coordinator);
        assert_eq!(replica.expect("replica").undecided_coordinated(), 0);
        assert!(cluster.client_violations().is_empty());
    }};
}

#[test]
fn coordinator_restart_with_a_prepare_in_flight_keeps_the_window_accounted() {
    for batch in [1usize, 2] {
        coordinator_restart_with_a_prepare_in_flight!(
            StackKind::Core,
            build_core,
            ratc_core::Replica,
            batch
        );
        coordinator_restart_with_a_prepare_in_flight!(
            StackKind::Rdma,
            build_rdma,
            ratc_rdma::RdmaReplica,
            batch
        );
    }
}
