//! Same-seed fingerprints: a seeded simulated run is a function of the
//! source, so its schedule and everything the client observed can be pinned
//! to constants. A behaviour-preserving change (a data-structure swap, a
//! refactor) must leave them alone; a change that moves one moved the
//! protocol's schedule and says so by updating the constant.
//!
//! The hash is FNV-1a over `Debug` text — a fixed function, unlike `std`'s
//! randomly seeded `RandomState`.

use ratc_harness::{ClusterSpec, StackKind};
use ratc_types::{Key, Payload, TxId, Value, Version};

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `(steps, now in µs, hash of history + latencies)` after the conformance
/// suite's twelve disjoint transactions at seed 7.
fn fingerprint(stack: StackKind, observability: bool) -> (u64, u64, u64) {
    let mut spec = ClusterSpec::default().with_stack(stack).with_seed(7);
    if observability {
        spec = spec.with_observability();
    }
    let mut cluster = spec.build();
    for i in 0..12u64 {
        let key = Key::new(format!("agree-{i}"));
        let payload = Payload::builder()
            .read(key.clone(), Version::ZERO)
            .write(key, Value::from("v"))
            .commit_version(Version::new(1))
            .build()
            .expect("well-formed");
        cluster.submit(TxId::new(i + 1), payload);
    }
    cluster.run_to_quiescence();
    assert!(cluster.client_violations().is_empty(), "{stack}");
    let observed = format!("{:?}{:?}", cluster.history(), cluster.latencies());
    (cluster.steps(), cluster.now().as_micros(), fnv1a(&observed))
}

#[test]
fn same_seed_runs_keep_their_recorded_fingerprints() {
    // Recorded at f937a7c (the parent of PR 24).
    let recorded = [
        (StackKind::Core, (100, 20_000, 5023821308493108769)),
        (StackKind::Rdma, (139, 20_000, 512557842155486650)),
        (StackKind::Baseline, (297, 20_059, 1452338864729241809)),
    ];
    for (stack, expected) in recorded {
        for observability in [false, true] {
            assert_eq!(
                fingerprint(stack, observability),
                expected,
                "{stack}, observability {observability}"
            );
        }
    }
}
