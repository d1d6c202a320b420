//! Same-seed fingerprints of chaos soaks: a seeded soak is a function of the
//! source, so its step count and its whole report can be pinned to
//! constants. Unlike the fault-free fingerprints of `ratc-harness`, these
//! runs resolve fault targets against the live cluster (current leaders and
//! members), pick reconfiguration initiators among ready replicas, wait for
//! shards to turn operational and re-drive prepared transactions — so a
//! refactor of the facade's introspection that changes any answer moves a
//! constant here.
//!
//! The hash is FNV-1a over the report's `Debug` text — a fixed function,
//! unlike `std`'s randomly seeded `RandomState`.

use ratc_chaos::{
    build_harness, run_soak, ChaosHarness, FaultEvent, FaultPlan, Nemesis, NemesisConfig,
    SoakConfig, SoakReport, Stack, TimedFault,
};
use ratc_types::ShardId;

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The nemesis plan `soak.rs` draws for `seed` at intensity 40.
fn nemesis_plan(seed: u64) -> FaultPlan {
    Nemesis::generate(&NemesisConfig {
        seed,
        intensity: 40,
        events: 10,
        ..NemesisConfig::default()
    })
}

/// The default nemesis never draws `RetryPrepared`: this plan does, while a
/// follower is down so the leader holds prepared transactions it cannot
/// decide, then crashes a leader and repairs both shards by reconfiguration.
fn retry_plan() -> FaultPlan {
    let s0 = ShardId::new(0);
    let s1 = ShardId::new(1);
    let at = |at_micros, event| TimedFault { at_micros, event };
    FaultPlan {
        noise: None,
        events: vec![
            at(
                4_000,
                FaultEvent::CrashFollower {
                    shard: s0,
                    index: 0,
                },
            ),
            at(9_000, FaultEvent::RetryPrepared { shard: s0 }),
            at(12_000, FaultEvent::Reconfigure { shard: s0 }),
            at(18_000, FaultEvent::CrashLeader { shard: s1 }),
            at(22_000, FaultEvent::RetryPrepared { shard: s1 }),
            at(26_000, FaultEvent::Reconfigure { shard: s1 }),
            at(30_000, FaultEvent::RetryPrepared { shard: s0 }),
            at(34_000, FaultEvent::RestartCrashed),
        ],
    }
}

/// Runs `plan` on `stack` the way `soak.rs` does for `seed`.
fn soak(stack: Stack, seed: u64, plan: &FaultPlan) -> (SoakReport, ChaosHarness) {
    let mut harness = build_harness(stack, 2, seed, None);
    let config = SoakConfig {
        seed,
        ..SoakConfig::default()
    };
    (run_soak(&mut harness, &config, plan), harness)
}

/// `(steps, hash of the report's Debug text)`.
fn fingerprint(stack: Stack, seed: u64, plan: &FaultPlan) -> (u64, u64) {
    let (report, _) = soak(stack, seed, plan);
    assert!(report.ok(), "{stack} seed={seed}: {report:?}");
    (report.steps, fnv1a(&format!("{report:?}")))
}

/// Nemesis seeds whose plans, with [`retry_plan`], hold every event kind the
/// harness resolves against live cluster state.
const SEEDS: [u64; 2] = [5, 8];

#[test]
fn pinned_plans_reach_every_role_resolving_event() {
    let plans: Vec<FaultPlan> = SEEDS
        .iter()
        .map(|seed| nemesis_plan(*seed))
        .chain([retry_plan()])
        .collect();
    let has =
        |f: fn(&FaultEvent) -> bool| plans.iter().flat_map(|p| &p.events).any(|e| f(&e.event));
    assert!(has(|e| matches!(e, FaultEvent::CrashLeader { .. })));
    assert!(has(|e| matches!(e, FaultEvent::CrashFollower { .. })));
    assert!(has(|e| matches!(e, FaultEvent::Reconfigure { .. })));
    assert!(has(|e| matches!(e, FaultEvent::RetryPrepared { .. })));
    assert!(has(|e| matches!(e, FaultEvent::RestartCrashed)));
}

#[test]
fn chaos_soaks_keep_their_recorded_fingerprints() {
    // Recorded at 9d645d6, before the facade's shard queries became one
    // snapshot; the ratc-mp retry plan and the ratc-rdma rows re-recorded
    // when each member began truncating its own log (no frontier messages,
    // so fewer steps and a shifted latency stream on ratc-rdma). ratc-rdma
    // seed 5 and the ratc-rdma retry plan re-recorded when peers in a newer
    // epoch began refusing a restarted member's handshake at once: one of
    // seed 5's two handshake rounds, and both of the retry plan's, no longer
    // retry until the cap (3619 → 2026 and 4372 → 1178 steps). Both
    // ratc-rdma nemesis seeds re-recorded when a member began answering
    // every handshake at once: an ack from an older epoch, or a `Connect`
    // older than the epoch a reconfiguring member was asked to join, ends
    // the connector's retries (2026 → 819 and 5509 → 3124 steps). Every
    // ratc-mp and ratc-rdma row re-recorded when a coordinator began
    // re-driving its stalled transactions on learning a shard's newer
    // configuration, and ratc-mp's `CONFIG_CHANGE` moved from the
    // configuration service to the installed leader: stalled transactions
    // decide before the next retry tick, so the soaks settle sooner (ratc-mp
    // 3376 → 3134, 3280 → 500 and 789 → 553 steps; ratc-rdma 819 → 795,
    // 3124 → 2919 and 1178 → 905).
    let recorded = [
        (
            Stack::Core,
            [(3134, 11893253034178117348), (500, 2735204903290835965)],
            (553, 12117762329292491481),
        ),
        (
            Stack::Rdma,
            [(795, 4791233407904472628), (2919, 9042728992135844753)],
            (905, 13395675265583782835),
        ),
        (
            Stack::Baseline,
            [(1357, 1126185302426777958), (1487, 14577961479422179092)],
            (1339, 4061232007668273076),
        ),
    ];
    for (stack, nemesis, retry) in recorded {
        for (seed, expected) in SEEDS.into_iter().zip(nemesis) {
            assert_eq!(
                fingerprint(stack, seed, &nemesis_plan(seed)),
                expected,
                "{stack} seed={seed}"
            );
        }
        assert_eq!(
            fingerprint(stack, 11, &retry_plan()),
            retry,
            "{stack} retry plan"
        );
    }
}

/// Every `Connect` handshake round of the ratc-rdma soak at nemesis seed 5
/// is answered. A restarted member that a reconfiguration excluded, while
/// reconfiguring, dropped the older-epoch ack of an excluded peer that had
/// admitted it, and retried to the cap: 10 s of virtual time.
#[test]
fn the_rdma_seed_5_soak_abandons_no_handshake_round() {
    let (report, harness) = soak(Stack::Rdma, 5, &nemesis_plan(5));
    assert!(report.ok(), "{report:?}");
    let abandoned = harness
        .cluster()
        .metrics()
        .counter("connect_rounds_abandoned");
    assert_eq!(abandoned, 0);
    assert!(harness.now_micros() < 1_000_000, "{}", harness.now_micros());
}
