//! Acceptance tests for the control-plane observability stream.
//!
//! The contract under test:
//!
//! 1. **Schedule-invisible** — enabling control-plane observability must not
//!    perturb a seeded run, even one that crashes a replica, reconfigures a
//!    shard and restarts the crashed process: same seed, same step count,
//!    same histories and latencies, bit for bit. Off, the ctrl stream is
//!    empty; on, it carries the full reconfiguration lifecycle.
//! 2. **Engine-agnostic stamps** — the same protocol code records the same
//!    control-plane milestones under `ExecutionMode::Sim` and
//!    `ExecutionMode::Threads`; only the clock differs.
//! 3. **Bracketed windows** — every closed per-shard blackout opens exactly
//!    at a degrading control-plane event and closes at a transaction decided
//!    on that shard strictly after the last degrading event: the window
//!    nests inside its enclosing fault→heal span.
//! 4. **Milestone parity** — over three scenarios, each stack stamps exactly
//!    the `TxMilestone` and `CtrlMilestone` variants it claims, and a new
//!    variant does not compile until it is classified.

use std::collections::BTreeSet;

use ratc_harness::{ClusterSpec, StackKind, TcsCluster};
use ratc_sim::{decided_times_per_shard, CtrlMilestone, ExecutionMode, SimDuration, TxMilestone};
use ratc_types::{Key, Payload, ShardId, ShardMap, TxId, Value, Version};

const STACKS: [StackKind; 3] = [StackKind::Core, StackKind::Rdma, StackKind::Baseline];

fn payload(i: u64) -> Payload {
    let key = Key::new(format!("k{i}"));
    Payload::builder()
        .read(key.clone(), Version::ZERO)
        .write(key, Value::from("v"))
        .commit_version(Version::new(1))
        .build()
        .expect("well-formed")
}

/// Drives one faulty run: traffic, crash a follower, reconfigure around it
/// (where the stack supports reconfiguration), restart it, more traffic.
/// Every decision the driver makes depends only on cluster state, so two
/// clusters built from the same seed see the identical call sequence.
fn run_faulty(
    stack: StackKind,
    seed: u64,
    mode: ExecutionMode,
    observability: bool,
) -> Box<dyn TcsCluster> {
    let mut spec = ClusterSpec::new(stack)
        .with_shards(2)
        .with_seed(seed)
        .with_execution(mode);
    if observability {
        spec = spec.with_observability();
    }
    let mut cluster = spec.build();
    for i in 1..=12u64 {
        cluster.submit(TxId::new(i), payload(i));
    }
    cluster.run_to_quiescence();

    let shard = ShardId::new(0);
    let view = cluster.shard_view(shard);
    let leader = view.leader.expect("shard has a leader");
    let follower = view
        .members
        .into_iter()
        .find(|p| *p != leader)
        .expect("shard has a follower");
    cluster.crash(follower);
    if cluster.stack().supports_reconfiguration() {
        cluster.start_reconfiguration(shard, leader, vec![follower]);
        cluster.run_to_quiescence();
    }
    for i in 13..=20u64 {
        cluster.submit(TxId::new(i), payload(i));
    }
    cluster.run_to_quiescence();

    assert!(cluster.restart(follower), "restart of crashed follower");
    cluster.run_to_quiescence();
    for i in 21..=24u64 {
        cluster.submit(TxId::new(i), payload(i));
    }
    cluster.run_to_quiescence();
    cluster
}

fn milestones_of(cluster: &dyn TcsCluster) -> BTreeSet<CtrlMilestone> {
    cluster.ctrl_events().iter().map(|e| e.milestone).collect()
}

/// Contract 1: the ctrl stream never perturbs a seeded schedule, even across
/// a crash → reconfigure → restart sequence, and it is strictly opt-in.
#[test]
fn enabling_ctrl_observability_keeps_faulty_seeded_runs_bit_identical() {
    for stack in STACKS {
        for seed in [7u64, 42] {
            let off = run_faulty(stack, seed, ExecutionMode::Sim, false);
            let on = run_faulty(stack, seed, ExecutionMode::Sim, true);
            assert_eq!(
                off.steps(),
                on.steps(),
                "{stack} seed={seed}: ctrl observability changed the schedule"
            );
            assert_eq!(off.now(), on.now(), "{stack} seed={seed}: clocks differ");
            assert_eq!(
                off.history(),
                on.history(),
                "{stack} seed={seed}: histories differ"
            );
            let off_latencies: Vec<(TxId, u64)> = off
                .latencies()
                .iter()
                .map(|(t, l)| (*t, l.micros))
                .collect();
            let on_latencies: Vec<(TxId, u64)> =
                on.latencies().iter().map(|(t, l)| (*t, l.micros)).collect();
            assert_eq!(
                off_latencies, on_latencies,
                "{stack} seed={seed}: latencies differ"
            );

            // Off records nothing; on records the crash, the restart, and —
            // on reconfiguring stacks — the reconfiguration lifecycle.
            assert!(
                off.ctrl_events().is_empty(),
                "{stack} seed={seed}: ctrl events while off"
            );
            let milestones = milestones_of(on.as_ref());
            assert!(
                milestones.contains(&CtrlMilestone::Crash),
                "{stack} seed={seed}: crash not stamped ({milestones:?})"
            );
            assert!(
                milestones.contains(&CtrlMilestone::Restart),
                "{stack} seed={seed}: restart not stamped ({milestones:?})"
            );
            if on.stack().supports_reconfiguration() {
                for required in [
                    CtrlMilestone::ReconfigInitiated,
                    CtrlMilestone::ConfigChosen,
                    CtrlMilestone::ShardOperational,
                ] {
                    assert!(
                        milestones.contains(&required),
                        "{stack} seed={seed}: {required} not stamped ({milestones:?})"
                    );
                }
            }
            // Sim-engine recording order is virtual-time order.
            let events = on.ctrl_events();
            for pair in events.windows(2) {
                assert!(
                    pair[0].at_micros <= pair[1].at_micros,
                    "{stack} seed={seed}: ctrl stream out of order"
                );
            }
        }
    }
}

/// Contract 2: the threaded backend stamps the same control-plane lifecycle
/// the simulator does for the same scenario — the stream is a property of
/// the protocol, not of the engine.
#[test]
fn sim_and_threads_stamp_the_same_ctrl_lifecycle() {
    for stack in STACKS {
        let sim = run_faulty(stack, 11, ExecutionMode::Sim, true);
        let threaded = run_faulty(stack, 11, ExecutionMode::Threads, true);
        let sim_milestones = milestones_of(sim.as_ref());
        let threaded_milestones = milestones_of(threaded.as_ref());
        // Both engines walk the same crash → reconfigure → restart path; the
        // core lifecycle stamps must agree (timing-dependent annotations
        // like coordinator handoff may differ under real concurrency).
        let mut required: Vec<CtrlMilestone> = vec![CtrlMilestone::Crash, CtrlMilestone::Restart];
        if sim.stack().supports_reconfiguration() {
            required.extend([
                CtrlMilestone::ReconfigInitiated,
                CtrlMilestone::ConfigChosen,
                CtrlMilestone::ShardOperational,
            ]);
        }
        for milestone in required {
            assert!(
                sim_milestones.contains(&milestone),
                "{stack} sim: {milestone} missing ({sim_milestones:?})"
            );
            assert!(
                threaded_milestones.contains(&milestone),
                "{stack} threads: {milestone} missing ({threaded_milestones:?})"
            );
        }
        // Same decisions on both engines (the recorded orders differ — one
        // clock is virtual, the other is the wall): the stream observed,
        // never steered.
        let sim_history = sim.history();
        let threaded_history = threaded.history();
        for i in 1..=24u64 {
            let tx = TxId::new(i);
            assert_eq!(
                sim_history.decision(tx),
                threaded_history.decision(tx),
                "{stack} {tx}: decisions differ across engines"
            );
        }
    }
}

/// Contract 3 (property): across stacks and seeds, every closed blackout is
/// bracketed by control-plane events — it opens exactly at a degrading
/// milestone and closes at a decision on the same shard strictly after the
/// last degrading event, so the window nests inside its fault→heal span.
#[test]
fn blackout_windows_are_bracketed_by_ctrl_events() {
    for stack in STACKS {
        for seed in [1u64, 5, 13] {
            let cluster = run_faulty(stack, seed, ExecutionMode::Sim, true);
            let ctrl = cluster.ctrl_events();
            let decided = decided_times_per_shard(&cluster.obs_events());
            let first_degrade = ctrl
                .iter()
                .filter(|e| e.milestone.degrades())
                .map(|e| e.at_micros)
                .min();
            for blackout in cluster.blackouts() {
                // Opens at a degrading ctrl event whose milestone is the
                // recorded cause.
                assert!(
                    ctrl.iter().any(|e| e.at_micros == blackout.start_micros
                        && e.milestone == blackout.cause
                        && e.milestone.degrades()),
                    "{stack} seed={seed}: window start {} not anchored to a \
                     degrading ctrl event",
                    blackout.start_micros
                );
                assert!(
                    Some(blackout.start_micros) >= first_degrade,
                    "{stack} seed={seed}: window precedes the first fault"
                );
                assert!(
                    blackout.start_micros <= blackout.last_degrade_micros,
                    "{stack} seed={seed}: degrade extent precedes the window"
                );
                let Some(end) = blackout.end_micros else {
                    continue;
                };
                // Closes at a real decision on the same shard, strictly
                // after the last degrading event inside the window.
                assert!(
                    end > blackout.last_degrade_micros,
                    "{stack} seed={seed}: window closed before it stopped degrading"
                );
                assert!(
                    decided
                        .get(&blackout.shard)
                        .is_some_and(|times| times.contains(&end)),
                    "{stack} seed={seed}: window end {end} is not a decision \
                     on shard {}",
                    blackout.shard
                );
                assert!(
                    end <= cluster.now().as_micros(),
                    "{stack} seed={seed}: window closes in the future"
                );
            }
        }
    }
}

/// A lone transaction on shard 0, coordinated by a follower of shard 1 that
/// crashes once the transaction is prepared; `retry` then makes shard 0's
/// leader its recovery coordinator (Figure 1 line 70). Shard 0 can decide
/// without reconfiguring. Returns the cluster, the transaction and shard 0.
fn run_takeover(stack: StackKind) -> (Box<dyn TcsCluster>, TxId, ShardId) {
    let mut cluster = ClusterSpec::new(stack)
        .with_shards(2)
        .with_seed(3)
        .with_observability()
        .build();
    let (shard, other) = (ShardId::new(0), ShardId::new(1));
    let leader = cluster
        .shard_view(shard)
        .leader
        .expect("shard 0 has a leader");
    let view = cluster.shard_view(other);
    let coordinator = view
        .members
        .into_iter()
        .find(|p| Some(*p) != view.leader)
        .expect("shard 1 has a follower");
    let on_shard = (1..)
        .find(|i| cluster.sharding().shard_of(&Key::new(format!("k{i}"))) == shard)
        .expect("some key hashes to shard 0");
    let tx = TxId::new(1);
    cluster.submit_via(tx, payload(on_shard), coordinator);
    while !cluster.shard_view(shard).prepared.contains(&tx) {
        cluster.run_for(SimDuration::from_micros(5));
    }
    assert_eq!(cluster.history().decision(tx), None, "{stack}: too late");
    cluster.crash(coordinator);
    cluster.retry(leader, tx);
    cluster.run_to_quiescence();
    (cluster, tx, shard)
}

/// A recovery coordinator's takeover (`retry`, Figure 1 line 70) is visible
/// the same way on both RATC stacks: counted in `retries_started` and stamped
/// as a `CoordinatorHandoff` carrying the shard of the member that took over.
#[test]
fn a_recovery_coordinator_takeover_is_counted_and_stamped_on_both_ratc_stacks() {
    for stack in [StackKind::Core, StackKind::Rdma] {
        let (cluster, tx, shard) = run_takeover(stack);
        assert!(
            cluster.history().decision(tx).is_some(),
            "{stack}: the recovery coordinator must decide {tx}"
        );
        assert!(
            cluster.metrics().counter("retries_started") >= 1,
            "{stack}: takeover not counted"
        );
        assert!(
            cluster.ctrl_events().iter().any(|e| {
                e.milestone == CtrlMilestone::CoordinatorHandoff && e.shard == Some(shard)
            }),
            "{stack}: takeover not stamped ({:?})",
            cluster.ctrl_events()
        );
    }
}

/// Crashes shard 0's leader under load, lets the coordinators back off and
/// re-drive for 50 ms, reconfigures around it (where the stack supports
/// reconfiguration, from the surviving follower, so leadership moves) and
/// restarts it (on the baseline, its Paxos recovery then completes).
fn run_leader_crash(stack: StackKind, seed: u64) -> Box<dyn TcsCluster> {
    let mut cluster = ClusterSpec::new(stack)
        .with_shards(2)
        .with_seed(seed)
        .with_observability()
        .build();
    for i in 1..=8u64 {
        cluster.submit(TxId::new(i), payload(i));
    }
    cluster.run_to_quiescence();
    let shard = ShardId::new(0);
    let view = cluster.shard_view(shard);
    let leader = view.leader.expect("shard has a leader");
    let survivor = view
        .members
        .into_iter()
        .find(|p| *p != leader)
        .expect("shard has a follower");
    cluster.crash(leader);
    for i in 9..=16u64 {
        cluster.submit(TxId::new(i), payload(i));
    }
    // A bounded run: with the baseline's static leader down, its TM keeps
    // re-driving and the cluster never quiesces.
    cluster.run_for(SimDuration::from_millis(50));
    if cluster.stack().supports_reconfiguration() {
        cluster.start_reconfiguration(shard, survivor, vec![leader]);
        cluster.run_to_quiescence();
    }
    assert!(cluster.restart(leader), "restart of crashed leader");
    cluster.run_to_quiescence();
    cluster
}

/// Every `TxMilestone`, in declaration order.
const TX_MILESTONES: [TxMilestone; 9] = [
    TxMilestone::Submitted,
    TxMilestone::Admitted,
    TxMilestone::CertifySent,
    TxMilestone::ShardVoted,
    TxMilestone::AcceptQuorum,
    TxMilestone::Decided,
    TxMilestone::ClientLearned,
    TxMilestone::Retry,
    TxMilestone::BatchFlush,
];

/// Every `CtrlMilestone`, in declaration order.
const CTRL_MILESTONES: [CtrlMilestone; 13] = [
    CtrlMilestone::ReconfigInitiated,
    CtrlMilestone::ProbeStarted,
    CtrlMilestone::ProbeGrace,
    CtrlMilestone::ConfigChosen,
    CtrlMilestone::StateTransferred,
    CtrlMilestone::ShardOperational,
    CtrlMilestone::LeaderHandoff,
    CtrlMilestone::Crash,
    CtrlMilestone::Restart,
    CtrlMilestone::Recovered,
    CtrlMilestone::FaultInjected,
    CtrlMilestone::FaultHealed,
    CtrlMilestone::CoordinatorHandoff,
];

/// Whether a stack stamps `milestone` itself. Every stack claims every
/// commit-path milestone. No wildcard arm: a new variant does not compile
/// until it is classified here.
fn every_stack_claims(milestone: TxMilestone) -> bool {
    match milestone {
        // The one client and the one deployment serve every stack.
        TxMilestone::Submitted | TxMilestone::ClientLearned => true,
        // The shared coordinator (`ratc_core::coord`) on the RATC stacks,
        // the transaction manager and the shard leaders on the baseline.
        TxMilestone::Admitted
        | TxMilestone::CertifySent
        | TxMilestone::ShardVoted
        | TxMilestone::AcceptQuorum
        | TxMilestone::Decided
        | TxMilestone::Retry
        | TxMilestone::BatchFlush => true,
    }
}

/// Whether `stack` stamps `milestone` itself. No wildcard arm: a new variant
/// does not compile until it is classified here.
fn stack_claims(stack: StackKind, milestone: CtrlMilestone) -> bool {
    match milestone {
        // The reconfiguration lifecycle (§3, §5). The baseline is the
        // paper's static-membership strawman (§2): it has no reconfiguration
        // protocol, no probe phase, no configuration service, no state
        // transfer and no epoch activation, and its leadership is fixed at
        // deployment, so it never moves.
        CtrlMilestone::ReconfigInitiated
        | CtrlMilestone::ProbeStarted
        | CtrlMilestone::ProbeGrace
        | CtrlMilestone::ConfigChosen
        | CtrlMilestone::StateTransferred
        | CtrlMilestone::ShardOperational
        | CtrlMilestone::LeaderHandoff => stack.supports_reconfiguration(),
        // §4's per-transaction handoff to a recovery coordinator. In the
        // baseline the TM group *is* the coordinator and fails over through
        // Paxos leadership, so there is nothing to hand off.
        CtrlMilestone::CoordinatorHandoff => stack.replicas_coordinate(),
        // Stamped by the simulated world, whatever runs on it.
        CtrlMilestone::Crash | CtrlMilestone::Restart => true,
        // A restarted baseline replica or TM finishes its Paxos recovery.
        // The RATC stacks recover by reconfiguring (`ShardOperational`);
        // only the chaos harness stamps `Recovered` for them.
        CtrlMilestone::Recovered => !stack.supports_reconfiguration(),
        // Stamped by the chaos nemesis through `record_ctrl`, never by a
        // stack.
        CtrlMilestone::FaultInjected | CtrlMilestone::FaultHealed => false,
    }
}

/// Milestone parity, checked on behaviour: over the suite's runs, each stack
/// stamps exactly the milestones it claims — every claimed one on a real run,
/// and none it disclaims.
#[test]
fn each_stack_stamps_exactly_the_milestones_it_claims() {
    for stack in STACKS {
        let mut runs = vec![
            run_faulty(stack, 7, ExecutionMode::Sim, true),
            run_leader_crash(stack, 7),
        ];
        if stack.replicas_coordinate() {
            runs.push(run_takeover(stack).0);
        }
        let mut tx = BTreeSet::new();
        let mut ctrl = BTreeSet::new();
        for cluster in &runs {
            tx.extend(cluster.obs_events().iter().map(|e| e.milestone));
            ctrl.extend(milestones_of(cluster.as_ref()));
        }
        let claimed_tx: BTreeSet<TxMilestone> = TX_MILESTONES
            .into_iter()
            .filter(|m| every_stack_claims(*m))
            .collect();
        let claimed_ctrl: BTreeSet<CtrlMilestone> = CTRL_MILESTONES
            .into_iter()
            .filter(|m| stack_claims(stack, *m))
            .collect();
        assert_eq!(tx, claimed_tx, "{stack}: commit-path milestones");
        assert_eq!(ctrl, claimed_ctrl, "{stack}: control-plane milestones");
    }
}
