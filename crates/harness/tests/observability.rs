//! Acceptance tests for the commit-path observability layer.
//!
//! The contract under test:
//!
//! 1. **Zero-cost when disabled, invisible when enabled** — enabling
//!    observability must not perturb a seeded simulation: same seed, same
//!    schedule, same step count, same histories and latencies, bit for bit.
//! 2. **Engine-agnostic timelines** — the same protocol code stamps the same
//!    lifecycle milestones under `ExecutionMode::Sim` and
//!    `ExecutionMode::Threads`; only the clock differs.
//! 3. **Exact attribution** — for every complete timeline the six phase
//!    latencies sum *exactly* to the end-to-end latency, on every stack,
//!    under randomized workloads.

use std::collections::BTreeMap;

use ratc_harness::{ClusterSpec, StackKind, TcsCluster};
use ratc_sim::{ExecutionMode, LatencyUnit, PhaseBreakdown, TxMilestone};
use ratc_types::{Key, Payload, ShardId, ShardMap, TxId, Value, Version};

const STACKS: [StackKind; 3] = [StackKind::Core, StackKind::Rdma, StackKind::Baseline];

fn payload(i: u64, keys: u64) -> Payload {
    let key = Key::new(format!("k{}", i % keys));
    Payload::builder()
        .read(key.clone(), Version::ZERO)
        .write(key, Value::from("v"))
        .commit_version(Version::new(1))
        .build()
        .expect("well-formed")
}

fn run_sim(stack: StackKind, seed: u64, txs: u64, observability: bool) -> Box<dyn TcsCluster> {
    let mut spec = ClusterSpec::new(stack).with_shards(2).with_seed(seed);
    if observability {
        spec = spec.with_observability();
    }
    let mut cluster = spec.build();
    for i in 1..=txs {
        // Disjoint key space: every transaction commits, so complete
        // timelines exist for the whole workload.
        cluster.submit(TxId::new(i), payload(i + 1000 * i, u64::MAX));
    }
    cluster.run_to_quiescence();
    cluster
}

/// Contract 1: observability never perturbs a seeded schedule. The step
/// count fingerprints the entire event order, so equality there plus
/// identical histories and latencies means the runs were bit-identical.
#[test]
fn enabling_observability_keeps_seeded_runs_bit_identical() {
    for stack in STACKS {
        for seed in [7u64, 42] {
            let off = run_sim(stack, seed, 24, false);
            let on = run_sim(stack, seed, 24, true);
            assert_eq!(
                off.steps(),
                on.steps(),
                "{stack} seed={seed}: observability changed the schedule"
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
            // And the switch actually does something: off records nothing,
            // on records a complete timeline per transaction.
            assert!(off.obs_events().is_empty(), "{stack}: events while off");
            assert_eq!(on.timelines().len(), 24, "{stack}: missing timelines");
        }
    }
}

/// The ordered lifecycle milestones of one timeline (annotations like
/// `Retry`/`BatchFlush` excluded).
fn lifecycle_of(timeline: &ratc_sim::TxTimeline) -> Vec<TxMilestone> {
    let mut seen = Vec::new();
    for event in timeline.events() {
        if matches!(
            event.milestone,
            TxMilestone::Retry | TxMilestone::BatchFlush
        ) {
            continue;
        }
        if !seen.contains(&event.milestone) {
            seen.push(event.milestone);
        }
    }
    seen
}

/// Contract 2: the threaded backend stamps the same milestone sets the
/// simulator does, with monotone lifecycle timestamps — only the clock (and
/// the reported [`LatencyUnit`]) differs.
#[test]
fn sim_and_threads_agree_on_timeline_milestones() {
    for stack in STACKS {
        let sim = run_sim(stack, 11, 16, true);
        assert_eq!(sim.latency_unit(), LatencyUnit::VirtualMicros);

        let mut threaded = ClusterSpec::new(stack)
            .with_shards(2)
            .with_seed(11)
            .with_execution(ExecutionMode::Threads)
            .with_observability()
            .build();
        for i in 1..=16u64 {
            threaded.submit(TxId::new(i), payload(i + 1000 * i, u64::MAX));
        }
        threaded.run_to_quiescence();
        assert_eq!(threaded.latency_unit(), LatencyUnit::WallMicros);

        let sim_timelines = sim.timelines();
        let threaded_timelines = threaded.timelines();
        assert_eq!(
            sim_timelines.len(),
            threaded_timelines.len(),
            "{stack}: timeline counts differ across engines"
        );
        for (tx, sim_timeline) in &sim_timelines {
            let threaded_timeline = threaded_timelines
                .get(tx)
                .unwrap_or_else(|| panic!("{stack}: tx {tx:?} missing on threads"));
            let sim_milestones = lifecycle_of(sim_timeline);
            let threaded_milestones = lifecycle_of(threaded_timeline);
            // Uncontended disjoint workload, no faults: both engines walk
            // the same protocol path, so the milestone sets match exactly.
            assert_eq!(
                sim_milestones, threaded_milestones,
                "{stack} tx {tx:?}: milestone sets differ across engines"
            );
            assert_eq!(
                sim_milestones.first(),
                Some(&TxMilestone::Submitted),
                "{stack} tx {tx:?}"
            );
            assert_eq!(
                sim_milestones.last(),
                Some(&TxMilestone::ClientLearned),
                "{stack} tx {tx:?}"
            );
            // Lifecycle timestamps are monotone in lifecycle order on both
            // engines (first occurrence per milestone).
            for timeline in [sim_timeline, threaded_timeline] {
                let mut last = 0u64;
                for milestone in &sim_milestones {
                    let at = timeline
                        .events()
                        .iter()
                        .find(|e| e.milestone == *milestone)
                        .expect("milestone present")
                        .at_micros;
                    assert!(
                        at >= last,
                        "{stack} tx {tx:?}: {milestone} out of order ({at} < {last})"
                    );
                    last = at;
                }
            }
        }
    }
}

/// Contract 3 (property): phases sum exactly to the end-to-end latency on
/// every complete timeline, across stacks, seeds and load levels — including
/// overload, where retries and admission queueing stretch the timeline.
#[test]
fn phase_breakdowns_sum_exactly_to_end_to_end_latency() {
    for stack in STACKS {
        for (seed, txs, keys) in [(1u64, 8u64, u64::MAX), (2, 48, u64::MAX), (3, 96, 16)] {
            let mut cluster = ClusterSpec::new(stack)
                .with_shards(2)
                .with_seed(seed)
                .with_observability()
                .build();
            for i in 1..=txs {
                cluster.submit(TxId::new(i), payload(i, keys));
            }
            cluster.run_to_quiescence();
            let timelines = cluster.timelines();
            let breakdowns: BTreeMap<TxId, PhaseBreakdown> = cluster.phase_breakdown();
            assert!(
                !breakdowns.is_empty(),
                "{stack} seed={seed}: no complete timelines"
            );
            for (tx, breakdown) in &breakdowns {
                assert_eq!(
                    breakdown.phases().iter().sum::<u64>(),
                    breakdown.total_micros(),
                    "{stack} seed={seed} tx {tx:?}: phases do not sum to total"
                );
                let timeline = &timelines[tx];
                let submitted = timeline.first(TxMilestone::Submitted).expect("complete");
                let learned = timeline.last(TxMilestone::ClientLearned).expect("complete");
                assert_eq!(
                    breakdown.total_micros(),
                    learned - submitted,
                    "{stack} seed={seed} tx {tx:?}: total is not end-to-end"
                );
            }
        }
    }
}

/// One commit path: at the default `max_batch = 1` a single-shard
/// transaction at f = 1 is the paper's exchange message for message — one
/// `PREPARE`, `PREPARE_ACK`, `ACCEPT` (a write, on RDMA), `ACCEPT_ACK` (the
/// NIC's, on RDMA) and one `DECISION` per shard member, decided after 5
/// message delays — and it is stamped as a flush of one on every stack, so
/// the milestone set does not depend on the batching knobs.
#[test]
fn a_lone_transaction_is_one_message_of_each_commit_path_type_per_receiver() {
    // Hops to the decision and deliveries per message type (`certify` is
    // injected by the client, so only deliveries are comparable).
    let exchange = |stack: StackKind| -> (u32, Vec<(String, u64)>) {
        let mut cluster = ClusterSpec::new(stack)
            .with_shards(2)
            .with_seed(5)
            .with_observability()
            .build();
        let s0 = ShardId::new(0);
        let key = (0u64..)
            .map(|i| Key::new(format!("k{i}")))
            .find(|k| cluster.sharding().shard_of(k) == s0)
            .expect("hash sharding covers shard 0");
        let payload = Payload::builder()
            .read(key.clone(), Version::ZERO)
            .write(key, Value::from("v"))
            .commit_version(Version::new(1))
            .build()
            .expect("well-formed");
        // Coordinated from outside the shard (a shard-1 follower; the TM on
        // the baseline), so no leg of the exchange is a local shortcut.
        let coordinator = if cluster.stack().replicas_coordinate() {
            cluster.shard_view(ShardId::new(1)).roster[1]
        } else {
            cluster.coordinator_pool()[0]
        };
        let tx = TxId::new(1);
        cluster.submit_via(tx, payload, coordinator);
        cluster.run_to_quiescence();
        let timeline = &cluster.timelines()[&tx];
        let flushes: Vec<u64> = timeline
            .events()
            .iter()
            .filter(|e| e.milestone == TxMilestone::BatchFlush)
            .map(|e| e.detail)
            .collect();
        assert_eq!(flushes, vec![1], "{stack}: one flush, of one");
        let counters = cluster
            .metrics()
            .msg_type_counters()
            .map(|(label, c)| (label.to_owned(), c.delivered))
            .collect();
        (cluster.latencies()[&tx].hops, counters)
    };
    let delivered = |labels: &[(&str, u64)]| -> Vec<(String, u64)> {
        let mut expected: Vec<(String, u64)> = labels
            .iter()
            .map(|(label, n)| ((*label).to_owned(), *n))
            .collect();
        expected.sort();
        expected
    };

    let (hops, counters) = exchange(StackKind::Core);
    assert_eq!(hops, 5);
    assert_eq!(
        counters,
        delivered(&[
            ("Certify", 1),
            ("PrepareBatch", 1),
            ("PrepareAckBatch", 1),
            ("AcceptBatch", 1),
            ("AcceptAckBatch", 1),
            ("DecisionBatch", 2),
            ("DecisionClient", 1),
        ])
    );

    let (hops, counters) = exchange(StackKind::Rdma);
    assert_eq!(hops, 5);
    assert_eq!(
        counters,
        delivered(&[
            ("Certify", 1),
            ("PrepareBatch", 1),
            ("PrepareAckBatch", 1),
            ("AcceptBatch", 1),
            ("DecisionBatch", 2),
            ("DecisionClient", 1),
        ])
    );

    // The baseline's exchange is 2PC over Paxos (its hop count from a cold
    // start includes the proposers' phase 1); its 2PC legs are one each too.
    let (_, counters) = exchange(StackKind::Baseline);
    for leg in [("Prepare", 1), ("VoteBatch", 1), ("DecisionClient", 1)] {
        assert!(
            counters.contains(&(leg.0.to_owned(), leg.1)),
            "{leg:?} not in {counters:?}"
        );
    }
}
