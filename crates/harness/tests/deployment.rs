//! Tests of the pieces every stack shares: the one `submit` of
//! `ratc_core::harness::Deployment` and the one `ClientActor<M>`, each run
//! over every stack (or every stack's message enum).

use ratc_baseline::BaselineMsg;
use ratc_core::client::{ClientActor, ClientMsg};
use ratc_core::replica::TruncationConfig;
use ratc_core::Msg;
use ratc_harness::{ClusterSpec, StackKind};
use ratc_rdma::RdmaMsg;
use ratc_sim::{
    Actor, Context, CtrlMilestone, FaultScope, LinkFault, SimConfig, SimDuration, World,
};
use ratc_types::{Decision, Key, Payload, ProcessId, ShardId, ShardMap, TxId, Value, Version};

fn rw(key: &str) -> Payload {
    Payload::builder()
        .read(Key::new(key), Version::new(0))
        .write(Key::new(key), Value::from("v"))
        .commit_version(Version::new(1))
        .build()
        .expect("well-formed")
}

/// With every process crashed, `submit` has nobody live to round-robin over.
/// It must do what `ChaosHarness::submit` documents — hand the transaction to
/// a crashed process, so it is recorded and stays undecided until recovery
/// re-drives it — not divide by the number of live coordinators.
#[test]
fn submit_with_everything_crashed_records_the_transaction_and_recovery_decides_it() {
    for stack in [
        StackKind::Core,
        StackKind::Rdma,
        StackKind::RdmaNaive,
        StackKind::Baseline,
    ] {
        let mut cluster = ClusterSpec::new(stack).with_seed(11).build();
        for pid in cluster.all_processes() {
            cluster.crash(pid);
        }
        let tx = TxId::new(1);
        let coordinator = cluster.submit(tx, rw("x"));
        assert!(cluster.is_crashed(coordinator), "{stack}");
        cluster.run_to_quiescence();
        assert_eq!(cluster.history().certify_count(), 1, "{stack}");
        assert_eq!(cluster.history().decision(tx), None, "{stack}");
        assert!(cluster.client_violations().is_empty(), "{stack}");

        for pid in cluster.all_processes() {
            assert!(cluster.restart(pid), "{stack}");
        }
        cluster.run_to_quiescence();
        cluster.resubmit(tx, rw("x"));
        cluster.run_to_quiescence();
        assert_eq!(
            cluster.history().decision(tx),
            Some(Decision::Commit),
            "{stack}: the re-driven transaction must decide"
        );
        assert!(cluster.client_violations().is_empty(), "{stack}");
    }
}

/// Truncation is each member's own: on both RATC stacks every member of a
/// shard folds its decided prefix, followers included, so a sequential
/// history leaves less than one fold batch retained anywhere.
#[test]
fn every_member_truncates_its_own_decided_prefix() {
    let batch = 8;
    for stack in [StackKind::Core, StackKind::Rdma] {
        let mut cluster = ClusterSpec::new(stack)
            .with_shards(1)
            .with_seed(19)
            .with_truncation(TruncationConfig::with_batch(batch))
            .build();
        let total = 96u64;
        for i in 0..total {
            cluster.submit(TxId::new(i + 1), rw(&format!("k{i}")));
            cluster.run_to_quiescence();
        }
        assert_eq!(cluster.history().decide_count(), total as usize, "{stack}");
        for pid in cluster.shard_view(ShardId::new(0)).members {
            let retained = cluster.retained_log_slots(pid).expect("a replica");
            assert!(
                retained < batch as usize,
                "{stack}: member {pid} retains {retained} slots"
            );
        }
        assert!(cluster.client_violations().is_empty(), "{stack}");
    }
}

/// A follower that missed one `DECISION` holds that transaction prepared,
/// but pins nobody else's log: its leader keeps folding. When the follower
/// later re-coordinates the transaction (`retry`), the leader has truncated
/// it and answers `TxDecided`, and the recovery coordinator must tell its
/// own shard — here, itself — or the slot stays prepared forever.
#[test]
fn a_lost_decision_pins_no_log_and_a_retry_releases_the_follower() {
    for stack in [StackKind::Core, StackKind::Rdma] {
        let mut cluster = ClusterSpec::new(stack)
            .with_shards(2)
            .with_seed(3)
            .with_truncation(TruncationConfig::with_batch(1))
            .build();
        let (s0, s1) = (ShardId::new(0), ShardId::new(1));
        let shard0_keys: Vec<String> = (0..1_000)
            .map(|i| format!("k{i}"))
            .filter(|k| cluster.sharding().shard_of(&Key::new(k.as_str())) == s0)
            .take(4)
            .collect();
        let view = cluster.shard_view(s0);
        let leader = view.leader.expect("leader");
        let follower = *view
            .members
            .iter()
            .find(|p| **p != leader)
            .expect("follower");
        let coordinator = cluster.shard_view(s1).leader.expect("leader");

        let t1 = TxId::new(1);
        cluster.submit_via(t1, rw(&shard0_keys[0]), coordinator);
        let mut steps = 0;
        while cluster.logical_log_len(follower) != Some(1) {
            cluster.run_for(SimDuration::from_micros(1));
            steps += 1;
            assert!(steps < 100_000, "{stack}: t1 never reached the follower");
        }
        cluster.set_link_fault(coordinator, follower, LinkFault::cut(FaultScope::All));
        cluster.run_to_quiescence();
        cluster.heal_all_faults();
        for (i, key) in shard0_keys.iter().enumerate().skip(1) {
            cluster.submit_via(TxId::new(i as u64 + 1), rw(key), coordinator);
            cluster.run_to_quiescence();
        }
        assert_eq!(cluster.history().decide_count(), 4, "{stack}");
        assert_eq!(cluster.retained_log_slots(leader), Some(0), "{stack}");
        assert_eq!(cluster.retained_log_slots(follower), Some(4), "{stack}");

        cluster.retry(follower, t1);
        cluster.run_to_quiescence();
        assert_eq!(cluster.retained_log_slots(follower), Some(0), "{stack}");
        assert!(cluster.client_violations().is_empty(), "{stack}");
    }
}

/// A ratc-rdma member restarted after a reconfiguration excluded it is in an
/// older epoch than every peer. Its peers refuse its `Connect` handshake, and
/// say so, so the restart quiesces at once: it does not resend its handshake
/// every 25 ms until the retry cap gives up 10 s later.
#[test]
fn an_excluded_rdma_member_restarts_without_retrying_its_handshake() {
    let mut cluster = ClusterSpec::new(StackKind::Rdma)
        .with_shards(2)
        .with_seed(1)
        .build();
    for i in 1..=12u64 {
        cluster.submit(TxId::new(i), rw(&format!("k{i}")));
    }
    cluster.run_to_quiescence();
    let shard = ShardId::new(0);
    let view = cluster.shard_view(shard);
    let leader = view.leader.expect("leader");
    let follower = *view
        .members
        .iter()
        .find(|p| **p != leader)
        .expect("follower");
    cluster.crash(follower);
    cluster.start_reconfiguration(shard, leader, vec![follower]);
    cluster.run_to_quiescence();
    assert!(!cluster.shard_view(shard).members.contains(&follower));

    let before = cluster.now();
    assert!(cluster.restart(follower));
    cluster.run_to_quiescence();
    let took = cluster.now().as_micros() - before.as_micros();
    assert!(
        took <= 100_000,
        "the restart kept the world busy for {took} µs"
    );
    assert_eq!(cluster.metrics().counter("connect_rounds_abandoned"), 0);
    assert!(cluster.client_violations().is_empty());
}

/// A coordinator re-drives what stalled on a shard when it learns the
/// shard's newer configuration, not at its next retry tick. Shard 1's
/// members coordinate transactions on shard 0 whose `PREPARE`s are in flight
/// to shard 0's leader when it crashes; shard 0 is reconfigured at once and
/// nobody re-submits. Each transaction decides within 2 ms of shard 0's
/// `ShardOperational`: the retry tick's 20 ms interval (the backoff's first
/// deadline is at least 15 ms after admission) cannot have done it.
#[test]
fn transactions_stalled_on_a_reconfigured_shard_decide_once_its_new_leader_serves() {
    for stack in [StackKind::Core, StackKind::Rdma] {
        let mut cluster = ClusterSpec::new(stack)
            .with_shards(2)
            .with_spares_per_shard(1)
            .with_seed(3)
            .with_observability()
            .build();
        let (s0, s1) = (ShardId::new(0), ShardId::new(1));
        for i in 1..=4u64 {
            cluster.submit(TxId::new(i), rw(&format!("warm-{i}")));
        }
        cluster.run_to_quiescence();
        let view = cluster.shard_view(s0);
        let leader = view.leader.expect("leader");
        let survivor = *view
            .members
            .iter()
            .find(|p| **p != leader)
            .expect("follower");
        let coordinators = cluster.shard_view(s1).members;
        let sharding = *cluster.sharding();
        let on_shard_0 = (0..)
            .map(|i| format!("stalled-{i}"))
            .filter(|key| sharding.shard_of(&Key::new(key.as_str())) == s0);
        let stalled: Vec<TxId> = (100..108).map(TxId::new).collect();
        let coordinated = on_shard_0.zip(coordinators.iter().cycle());
        let submitted = cluster.now().as_micros();
        for (tx, (key, coordinator)) in stalled.iter().zip(coordinated) {
            cluster.submit_via(*tx, rw(&key), *coordinator);
        }
        // The submissions reach their coordinators after one hop, and their
        // `PREPARE`s reach shard 0's leader one hop later: it is gone by then.
        cluster.crash(leader);
        cluster.start_reconfiguration(s0, survivor, vec![leader]);
        cluster.run_to_quiescence();

        let operational = cluster
            .ctrl_events()
            .into_iter()
            .find(|e| e.milestone == CtrlMilestone::ShardOperational && e.shard == Some(s0))
            .expect("shard 0 turns operational")
            .at_micros;
        assert!(operational < submitted + 5_000, "{stack}: at {operational}");
        let latencies = cluster.latencies();
        for tx in &stalled {
            let decided = submitted + latencies[tx].micros;
            assert!(
                decided <= operational + 2_000,
                "{stack}: {tx} decided at {decided} µs, shard 0 operational at {operational} µs"
            );
        }
        assert!(
            cluster
                .metrics()
                .counter("prepares_redriven_on_view_change")
                > 0
        );
        assert!(cluster.client_violations().is_empty(), "{stack}");
    }
}

/// Records what it is sent; plays the coordinator a client answers to.
struct Recorder<M>(Vec<M>);

impl<M: Send + 'static> Actor<M> for Recorder<M> {
    fn on_message(&mut self, _from: ProcessId, msg: M, _ctx: &mut Context<'_, M>) {
        self.0.push(msg);
    }
}

/// The client's contract, over any stack's messages. `decision` builds the
/// stack's `DECISION(t, d)`.
fn client_contract<M>(decision: fn(TxId, Decision) -> M)
where
    M: ClientMsg + Clone + std::fmt::Debug + Send + 'static,
{
    let world_with_client = || {
        let mut world: World<M> = World::new(SimConfig::default());
        let coordinator = world.add_actor(Recorder(Vec::new()));
        let client = world.add_actor(ClientActor::<M>::default());
        (world, coordinator, client)
    };
    let certify = |world: &mut World<M>, client: ProcessId, tx: TxId| {
        let now = world.now();
        world
            .actor_mut::<ClientActor<M>>(client)
            .expect("client")
            .record_certify(tx, rw("x"), now);
    };
    let (t1, t2) = (TxId::new(1), TxId::new(2));

    // Records history and latency.
    let (mut world, coordinator, client) = world_with_client();
    certify(&mut world, client, t1);
    world.send_from(coordinator, client, decision(t1, Decision::Commit));
    world.run();
    let actor = world.actor::<ClientActor<M>>(client).expect("client");
    assert_eq!(actor.history().committed().count(), 1);
    assert_eq!(actor.history().aborted().count(), 0);
    assert!(actor.violations().is_empty());
    assert_eq!(actor.history().decision(t1), Some(Decision::Commit));
    assert_eq!(actor.latencies()[&t1].decision, Decision::Commit);
    assert_eq!(world.metrics().counter("client_commits"), 1);
    // The client answers no decision: the paper's protocol has no
    // acknowledgement.
    let sent = &world.actor::<Recorder<M>>(coordinator).expect("peer").0;
    assert!(sent.is_empty(), "{sent:?}");

    // Contradictory decisions are reported as violations.
    let (mut world, coordinator, client) = world_with_client();
    certify(&mut world, client, t1);
    world.send_from(coordinator, client, decision(t1, Decision::Commit));
    world.send_from(coordinator, client, decision(t1, Decision::Abort));
    world.run();
    let actor = world.actor::<ClientActor<M>>(client).expect("client");
    assert_eq!(actor.violations().len(), 1);

    // Duplicate identical decisions are benign.
    let (mut world, coordinator, client) = world_with_client();
    certify(&mut world, client, t2);
    for _ in 0..3 {
        world.send_from(coordinator, client, decision(t2, Decision::Abort));
    }
    world.run();
    let actor = world.actor::<ClientActor<M>>(client).expect("client");
    assert!(actor.violations().is_empty());
    assert_eq!(actor.history().aborted().count(), 1);
    assert_eq!(world.metrics().counter("client_aborts"), 3);
}

#[test]
fn the_client_keeps_its_contract_on_every_stacks_messages() {
    client_contract::<Msg>(|tx, decision| Msg::DecisionClient { tx, decision });
    client_contract::<RdmaMsg>(|tx, decision| RdmaMsg::DecisionClient { tx, decision });
    client_contract::<BaselineMsg>(|tx, decision| BaselineMsg::DecisionClient { tx, decision });
}
