//! Property-based tests over the whole stack.
//!
//! Deterministic generators (seeded with the workspace's `ChaCha12Rng`
//! stand-in) produce random workloads — payloads, contention levels, seeds —
//! and random fault schedules; properties assert the paper's correctness
//! conditions: certification-function laws (§2), the TCS specification over
//! client histories, the protocol invariants of Figure 3, and vote-for-vote
//! agreement of the incremental certification index with the set-based
//! reference functions.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use ratc::core::harness::{Cluster, ClusterConfig, CoreStack, TcsCluster};
use ratc::core::invariants::check_cluster;
use ratc::spec::check_history;
use ratc::types::certify::properties as certify_props;
use ratc::types::prelude::*;

/// Random payload over a small key universe so that conflicts actually
/// happen: 1–3 reads, 0–2 writes (each written key is also read).
fn arb_payload(rng: &mut ChaCha12Rng) -> Payload {
    let mut builder = Payload::builder();
    let reads = rng.gen_range(1..4usize);
    let mut read_keys = Vec::new();
    for _ in 0..reads {
        let key = Key::new(format!("k{}", rng.gen_range(0..8u32)));
        builder = builder.read(key.clone(), Version::new(rng.gen_range(0..4u64)));
        read_keys.push(key);
    }
    let writes = rng.gen_range(0..3usize).min(read_keys.len());
    for key in read_keys.into_iter().take(writes) {
        // Written keys must also be read; re-read at version zero like the
        // original proptest strategy did.
        builder = builder.read(key.clone(), Version::ZERO);
        builder = builder.write(key, Value::from("w"));
    }
    builder
        .commit_version(Version::new(rng.gen_range(4..20u64)))
        .build_unchecked()
}

fn arb_payload_vec(rng: &mut ChaCha12Rng, min: usize, max: usize) -> Vec<Payload> {
    let len = rng.gen_range(min..max);
    (0..len).map(|_| arb_payload(rng)).collect()
}

/// Distributivity (1) of the global certification function and both
/// shard-local functions, for both provided policies.
#[test]
fn certification_functions_are_distributive() {
    let mut rng = ChaCha12Rng::seed_from_u64(0xD15);
    for _ in 0..64 {
        let left = arb_payload_vec(&mut rng, 0, 4);
        let right = arb_payload_vec(&mut rng, 0, 4);
        let candidate = arb_payload(&mut rng);
        let left_refs: Vec<&Payload> = left.iter().collect();
        let right_refs: Vec<&Payload> = right.iter().collect();
        for policy in [
            &Serializability::new() as &dyn CertificationPolicy,
            &WriteConflict::new(),
        ] {
            assert!(certify_props::distributive_global(
                policy,
                &left_refs,
                &right_refs,
                &candidate
            ));
            let certifier = policy.shard_certifier(ShardId::new(0));
            assert!(certify_props::distributive_shard_committed(
                &*certifier,
                &left_refs,
                &right_refs,
                &candidate
            ));
            assert!(certify_props::distributive_shard_prepared(
                &*certifier,
                &left_refs,
                &right_refs,
                &candidate
            ));
        }
    }
}

/// Matching (3) between the global function and the shard-local functions,
/// plus properties (4) and (5), for both policies.
#[test]
fn shard_local_functions_match_the_global_function() {
    let mut rng = ChaCha12Rng::seed_from_u64(0x3A7C);
    for _ in 0..64 {
        let committed = arb_payload_vec(&mut rng, 0, 5);
        let pending = arb_payload(&mut rng);
        let candidate = arb_payload(&mut rng);
        let committed_refs: Vec<&Payload> = committed.iter().collect();
        let sharding = HashSharding::new(3);
        for policy in [
            &Serializability::new() as &dyn CertificationPolicy,
            &WriteConflict::new(),
        ] {
            assert!(certify_props::matching(
                policy,
                &sharding,
                &committed_refs,
                &candidate
            ));
            let certifier = policy.shard_certifier(ShardId::new(0));
            assert!(certify_props::prepared_no_weaker(
                &*certifier,
                &committed_refs,
                &candidate
            ));
            assert!(certify_props::commutation(
                &*certifier,
                &pending,
                &candidate
            ));
            assert!(certify_props::empty_payload_commits(
                &*certifier,
                &committed_refs
            ));
        }
    }
}

/// The empty payload always certifies to commit.
#[test]
fn empty_payload_always_commits() {
    let mut rng = ChaCha12Rng::seed_from_u64(0xE9);
    for _ in 0..64 {
        let committed = arb_payload_vec(&mut rng, 0, 6);
        let refs: Vec<&Payload> = committed.iter().collect();
        assert_eq!(
            Serializability::new().certify(&refs, &Payload::empty()),
            Decision::Commit
        );
        assert_eq!(
            WriteConflict::new().certify(&refs, &Payload::empty()),
            Decision::Commit
        );
    }
}

/// Randomized failure-free runs of the message-passing protocol satisfy the
/// TCS specification and the protocol invariants, and decide every
/// transaction.
#[test]
fn random_workloads_satisfy_the_specification() {
    let mut rng = ChaCha12Rng::seed_from_u64(0x5EED);
    for _ in 0..12 {
        let seed = rng.gen_range(0..1_000u64);
        let payloads = arb_payload_vec(&mut rng, 1, 25);
        let shards = rng.gen_range(1..4u32);
        let mut cluster = Cluster::new(
            CoreStack,
            ClusterConfig::default().with_shards(shards).with_seed(seed),
        );
        for (i, payload) in payloads.iter().enumerate() {
            cluster.submit(TxId::new(i as u64 + 1), payload.clone());
        }
        cluster.run_to_quiescence();
        let history = cluster.history();
        assert_eq!(history.decide_count(), payloads.len());
        assert!(cluster.client_violations().is_empty());
        assert!(check_history(&history, &Serializability::new()).is_empty());
        assert!(check_cluster(&cluster).is_empty());
    }
}

/// Randomized runs with a crash and reconfiguration at a random point still
/// satisfy the specification and the invariants, and transactions submitted
/// after recovery are all decided.
#[test]
fn random_crash_and_reconfiguration_preserve_safety() {
    let mut rng = ChaCha12Rng::seed_from_u64(0xC4A5);
    for _ in 0..12 {
        let seed = rng.gen_range(0..1_000u64);
        let payloads = arb_payload_vec(&mut rng, 2, 15);
        let crash_leader = rng.gen_bool(0.5);
        let mut cluster = Cluster::new(
            CoreStack,
            ClusterConfig::default().with_shards(2).with_seed(seed),
        );
        let half = payloads.len() / 2;
        for (i, payload) in payloads[..half].iter().enumerate() {
            cluster.submit(TxId::new(i as u64 + 1), payload.clone());
        }
        cluster.run_to_quiescence();

        let shard = ShardId::new((seed % 2) as u32);
        let view = cluster.shard_view(shard);
        let leader = view.leader.expect("leader");
        let follower = *view
            .members
            .iter()
            .find(|p| **p != leader)
            .expect("follower");
        let (victim, initiator) = if crash_leader {
            (leader, follower)
        } else {
            (follower, leader)
        };
        cluster.crash(victim);
        cluster.start_reconfiguration(shard, initiator, vec![victim]);
        cluster.run_to_quiescence();

        for (i, payload) in payloads[half..].iter().enumerate() {
            cluster.submit(TxId::new((half + i) as u64 + 1), payload.clone());
        }
        cluster.run_to_quiescence();

        let history = cluster.history();
        assert!(cluster.client_violations().is_empty());
        assert!(check_history(&history, &Serializability::new()).is_empty());
        assert!(check_cluster(&cluster).is_empty());
        // Everything submitted after the reconfiguration completed is decided.
        for i in half..payloads.len() {
            assert!(history.decision(TxId::new(i as u64 + 1)).is_some());
        }
    }
}

/// The incremental certification index agrees vote-for-vote with the
/// set-based reference functions on randomized certification schedules with
/// out-of-order decides and holes, for both policies.
#[test]
fn indexed_votes_agree_with_reference_on_random_schedules() {
    for policy in [
        &Serializability::new() as &dyn CertificationPolicy,
        &WriteConflict::new(),
    ] {
        for seed in 0..16 {
            let report = ratc::spec::differential_vote_check(policy, seed, 100)
                .unwrap_or_else(|e| panic!("{e}"));
            assert!(report.votes_checked > 0);
        }
    }
}
