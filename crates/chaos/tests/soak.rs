//! The chaos soak suite: randomized fault schedules against all three
//! stacks, judged by the `ratc-spec::chaos` safety and liveness checkers.
//!
//! This is the acceptance suite of the chaos subsystem: ten fixed seeds per
//! stack, each soak mixing crashes, restarts, partitions, reconfigurations
//! and background drop/duplicate/delay noise with paced cross-shard traffic,
//! must finish with zero safety violations and full liveness once faults
//! lift.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use ratc_chaos::{
    build_harness, run_soak, ChaosHarness, FaultEvent, FaultPlan, LinkNoise, Nemesis,
    NemesisConfig, Profile, SoakConfig, SoakReport, TimedFault,
};
use ratc_core::batch::BatchingConfig;
use ratc_core::replica::TruncationConfig;
use ratc_core::Msg;
use ratc_harness::{ClusterSpec, StackKind};
use ratc_sim::CtrlMilestone;

fn soak(stack: StackKind, seed: u64, intensity: u8) -> SoakReport {
    let nemesis = NemesisConfig {
        seed,
        intensity,
        events: 10,
        ..NemesisConfig::default()
    };
    let plan = Nemesis::generate(&nemesis);
    let mut harness = build_harness(stack, 2, seed, None);
    run_soak(
        &mut harness,
        &SoakConfig {
            seed,
            ..SoakConfig::default()
        },
        &plan,
    )
}

/// The headline acceptance criterion: ≥ 10 seeds × all three stacks, with
/// crashes, restarts, partitions and reconfigurations (plus noise), all safe
/// and fully live after recovery.
#[test]
fn fixed_seed_soaks_are_safe_and_live_on_all_stacks() {
    let mut failures = Vec::new();
    for stack in [StackKind::Core, StackKind::Rdma, StackKind::Baseline] {
        for seed in 0..10u64 {
            let report = soak(stack, seed, 40);
            assert_eq!(report.submitted, 40, "{stack} seed={seed} lost submissions");
            if !report.ok() {
                failures.push(format!(
                    "{stack} seed={seed}: violations={:?} undecided={:?}\n  forensics:\n    {}",
                    report.safety_violations,
                    report.undecided,
                    report.forensics.join("\n    ")
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "failing soaks:\n{}",
        failures.join("\n")
    );
}

/// Deterministic replay: the same seed produces the identical report —
/// including the step count, which fingerprints the whole event order.
#[test]
fn same_seed_reproduces_the_identical_soak() {
    for stack in [StackKind::Core, StackKind::Rdma, StackKind::Baseline] {
        let a = soak(stack, 3, 40);
        let b = soak(stack, 3, 40);
        assert_eq!(a, b, "{stack}: same seed must replay identically");
        let c = soak(stack, 4, 40);
        assert_ne!(
            a.steps, c.steps,
            "{stack}: different seeds should execute different schedules"
        );
    }
}

/// Satellite regression: duplicate- and reorder-tolerance of every handler.
/// Duplicating *every* message (and, separately, heavily delaying a random
/// half, which reorders them past the FIFO floor) must leave all three
/// stacks safe and live. Before this PR the Paxos proposer counted a
/// duplicated `Promise` twice (see `ratc-paxos::proposer` for the pinned
/// unit test) and re-submitted transactions were silently swallowed by
/// coordinators and the baseline TM.
#[test]
fn duplicate_and_reorder_storms_are_harmless() {
    let storms = [
        (
            "duplicate-all",
            LinkNoise {
                drop: 0.0,
                duplicate: 1.0,
                delay: 0.0,
                max_delay_micros: 0,
            },
        ),
        (
            "reorder",
            LinkNoise {
                drop: 0.0,
                duplicate: 0.3,
                delay: 0.5,
                max_delay_micros: 3_000,
            },
        ),
        (
            "lossy",
            LinkNoise {
                drop: 0.3,
                duplicate: 0.3,
                delay: 0.3,
                max_delay_micros: 2_000,
            },
        ),
    ];
    for stack in [StackKind::Core, StackKind::Rdma, StackKind::Baseline] {
        for (name, noise) in storms {
            let plan = FaultPlan {
                noise: Some(noise),
                events: vec![],
            };
            let mut harness = build_harness(stack, 2, 7, None);
            let report = run_soak(
                &mut harness,
                &SoakConfig {
                    seed: 7,
                    ..SoakConfig::default()
                },
                &plan,
            );
            assert!(
                report.ok(),
                "{stack} under {name} noise: violations={:?} undecided={:?}",
                report.safety_violations,
                report.undecided
            );
        }
    }
}

/// The batching × chaos soak matrix (ROADMAP item): the batched
/// certification pipeline under the nemesis, on every stack. Batched
/// re-delivery (duplicated `*_BATCH` messages), batch-timer races with
/// crashes and the truncation interplay must stay safe and fully live.
/// Submissions go through a fixed coordinator on the RATC stacks so
/// certifies actually coalesce into batches.
#[test]
fn batched_soaks_are_safe_and_live_on_all_stacks() {
    for stack in [StackKind::Core, StackKind::Rdma, StackKind::Baseline] {
        for seed in 0..3u64 {
            let nemesis = NemesisConfig {
                seed,
                intensity: 40,
                events: 8,
                ..NemesisConfig::default()
            };
            let plan = Nemesis::generate(&nemesis);
            let spec = ClusterSpec::new(stack)
                .with_shards(2)
                .with_seed(seed)
                .with_truncation(TruncationConfig::with_batch(8))
                .with_batching(BatchingConfig::with_batch(8));
            let coordinator = if stack == StackKind::Baseline {
                None
            } else {
                Some((ratc_types::ShardId::new(1), 1))
            };
            let mut harness = ChaosHarness::new(&spec, coordinator);
            let report = run_soak(
                &mut harness,
                &SoakConfig {
                    seed,
                    ..SoakConfig::default()
                },
                &plan,
            );
            assert!(
                report.ok(),
                "{stack} seed={seed} batched: violations={:?} undecided={:?}",
                report.safety_violations,
                report.undecided
            );
        }
    }
}

/// Line 67's `CONFIG_CHANGE` comes from the leader that installed the
/// configuration it names: on ratc-mp soaks, no `CONFIG_CHANGE` for a
/// `(shard, epoch)` is delivered before that epoch's `ShardOperational`, so a
/// coordinator that re-drives on learning it finds a leader that serves.
#[test]
fn no_config_change_is_delivered_before_its_configuration_serves() {
    let mut delivered = 0;
    for seed in 0..10u64 {
        let cluster_spec = ClusterSpec::new(StackKind::Core)
            .with_shards(2)
            .with_seed(seed)
            .with_truncation(TruncationConfig::with_batch(8))
            .with_observability();
        let mut cluster = cluster_spec.build_core();
        let changes = Arc::new(Mutex::new(Vec::new()));
        let seen = changes.clone();
        cluster.world.observe_deliveries(move |at, _, _, msg| {
            if let Msg::ConfigChange { shard, epoch, .. } = msg {
                let change = (at.as_micros(), *shard, epoch.as_u64());
                seen.lock().expect("observer").push(change);
            }
        });
        let mut harness = ChaosHarness::from_cluster(Box::new(cluster), None);
        let plan = Nemesis::generate(&NemesisConfig {
            seed,
            intensity: 40,
            events: 10,
            ..NemesisConfig::default()
        });
        let config = SoakConfig {
            seed,
            ..SoakConfig::default()
        };
        let report = run_soak(&mut harness, &config, &plan);
        assert!(report.ok(), "seed={seed}: {report:?}");
        let mut operational = BTreeMap::new();
        for event in harness.ctrl_events() {
            if event.milestone == CtrlMilestone::ShardOperational {
                let at = (event.shard.expect("a shard's milestone"), event.detail);
                operational.entry(at).or_insert(event.at_micros);
            }
        }
        let changes = changes.lock().expect("observer");
        for &(at, shard, epoch) in changes.iter() {
            let serving = operational.get(&(shard, epoch));
            assert!(
                serving.is_some_and(|since| *since < at),
                "seed={seed}: CONFIG_CHANGE of {shard} epoch {epoch} delivered at {at} µs, \
                 operational at {serving:?}"
            );
        }
        delivered += changes.len();
    }
    assert!(delivered > 0, "the soaks reconfigure");
}

/// A short smoke variant for CI: three seeds per stack at high intensity.
#[test]
fn high_intensity_smoke() {
    for stack in [StackKind::Core, StackKind::Rdma, StackKind::Baseline] {
        for seed in 20..23u64 {
            let report = soak(stack, seed, 80);
            assert!(
                report.ok(),
                "{stack} seed={seed}: violations={:?} undecided={:?}",
                report.safety_violations,
                report.undecided
            );
        }
    }
}

/// Overload as a first-class fault (hand-written plan): two open-loop bursts
/// land while a follower is down, on every stack. The flow-control layer —
/// admission windows and retry backoff — must absorb the
/// bursts without a single safety violation, and every burst transaction
/// must decide once the crash heals: the soak's liveness check covers the
/// burst range like any other submission.
#[test]
fn overload_bursts_under_crashes_stay_safe_and_live() {
    let plan = FaultPlan {
        noise: None,
        events: vec![
            TimedFault {
                at_micros: 5_000,
                event: FaultEvent::OverloadBurst { depth: 300 },
            },
            TimedFault {
                at_micros: 10_000,
                event: FaultEvent::CrashFollower {
                    shard: ratc_types::ShardId::new(0),
                    index: 0,
                },
            },
            TimedFault {
                at_micros: 20_000,
                event: FaultEvent::OverloadBurst { depth: 200 },
            },
            TimedFault {
                at_micros: 30_000,
                event: FaultEvent::RestartCrashed,
            },
        ],
    };
    for stack in [StackKind::Core, StackKind::Rdma, StackKind::Baseline] {
        let mut harness = build_harness(stack, 2, 11, None);
        let report = run_soak(
            &mut harness,
            &SoakConfig {
                seed: 11,
                ..SoakConfig::default()
            },
            &plan,
        );
        assert!(
            report.submitted > 500,
            "{stack}: bursts not recorded ({} submissions)",
            report.submitted
        );
        assert!(
            report.ok(),
            "{stack} overload: violations={:?} undecided={:?}",
            report.safety_violations,
            report.undecided
        );
    }
}

/// The randomized overload soak: `Profile::Overload` plans (bursts mixed
/// with crashes, restarts and partitions) across seeds and stacks.
#[test]
fn overload_profile_soaks_are_safe_and_live() {
    for stack in [StackKind::Core, StackKind::Rdma, StackKind::Baseline] {
        for seed in 0..3u64 {
            let nemesis = NemesisConfig {
                seed,
                events: 5,
                profile: Profile::Overload,
                ..NemesisConfig::default()
            };
            let plan = Nemesis::generate(&nemesis);
            let mut harness = build_harness(stack, 2, seed, None);
            let report = run_soak(
                &mut harness,
                &SoakConfig {
                    seed,
                    ..SoakConfig::default()
                },
                &plan,
            );
            assert!(
                report.ok(),
                "{stack} seed={seed} overload-profile: violations={:?} undecided={:?}",
                report.safety_violations,
                report.undecided
            );
        }
    }
}
