//! The Figure 4a counter-example, scripted (experiment E7).
//!
//! The schedule: a transaction `t` spanning shards `s1` and `s2` is prepared
//! to commit at both leaders. Its coordinator `p_c` persists the commit vote
//! at `s1`'s follower, then stalls. `s2` is reconfigured (its follower becomes
//! the new leader and a fresh replica joins); afterwards `s1`'s leader retries
//! `t`, the new leader of `s2` does not know it and the retry coordinator
//! externalises **abort**. Finally the stalled `p_c` wakes up, persists the
//! *old* commit vote of `s2` at the new leader by RDMA and externalises
//! **commit** — a safety violation.
//!
//! With the naive per-shard reconfiguration ([`ReconfigMode::NaivePerShard`])
//! the late RDMA write lands (followers cannot reject it) and the
//! contradiction is observable at the client. With the correct protocol
//! ([`ReconfigMode::GlobalCorrect`]) probing closes the RDMA connections, the
//! write is rejected, `p_c` never gathers its acknowledgements and only the
//! abort is externalised.

use ratc_core::batch::{Items, PrepareBatch, PrepareItem};
use ratc_core::client::ClientActor;
use ratc_core::harness::{ClusterConfig, TcsCluster};
use ratc_rdma::{RdmaCluster, RdmaMsg, RdmaStack, ReconfigMode, ScriptedPeer};
use ratc_sim::SimDuration;
use ratc_types::{Decision, Key, Payload, ShardId, ShardMap, TxId, Value, Version};

/// Outcome of one run of the Figure 4a schedule.
#[derive(Debug, Clone)]
pub struct CounterexampleOutcome {
    /// The reconfiguration mode that was exercised.
    pub mode: ReconfigMode,
    /// Whether the stalled coordinator received an RDMA acknowledgement for
    /// its late write (and therefore externalised commit).
    pub stale_commit_externalized: bool,
    /// Contradictory-decision violations observed by the client.
    pub client_violations: usize,
    /// RDMA writes rejected because the connection had been closed.
    pub rdma_writes_rejected: u64,
    /// The decision the retry coordinator externalised.
    pub retry_decision: Option<Decision>,
}

impl std::fmt::Display for CounterexampleOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:<16} stale_commit={:<5} violations={:<2} rdma_rejected={:<3} retry_decision={:?}",
            format!("{:?}", self.mode),
            self.stale_commit_externalized,
            self.client_violations,
            self.rdma_writes_rejected,
            self.retry_decision
        )
    }
}

/// Finds a key managed by `shard` under the cluster's hash sharding.
fn key_on_shard(cluster: &RdmaCluster, shard: ShardId) -> Key {
    for i in 0..10_000 {
        let key = Key::new(format!("cx-{i}"));
        if cluster.sharding().shard_of(&key) == shard {
            return key;
        }
    }
    unreachable!("hash sharding covers every shard within 10k probes")
}

/// Runs the Figure 4a schedule under the given reconfiguration mode.
pub fn run_counterexample(mode: ReconfigMode, seed: u64) -> CounterexampleOutcome {
    let mut cluster = RdmaCluster::new(
        RdmaStack::new(mode),
        ClusterConfig::default().with_shards(2).with_seed(seed),
    );
    let s1 = ShardId::new(0);
    let s2 = ShardId::new(1);
    // The first replica of each shard's roster leads it, the second follows.
    let (r1, r2) = (cluster.shard_view(s1).roster, cluster.shard_view(s2).roster);
    let (p1, p2, p3, p4) = (r1[0], r1[1], r2[0], r2[1]);
    let client = cluster.client_id();

    // The stalled coordinator p_c, played by a scripted peer. In a real
    // deployment it would be a replica of a third shard with open RDMA
    // connections to every other replica.
    let pc = cluster.world.add_actor(ScriptedPeer::default());
    for target in [p1, p2, p3, p4] {
        cluster.world.rdma_open(target, pc);
    }

    // The transaction spans both shards.
    let tx = TxId::new(1);
    let key1 = key_on_shard(&cluster, s1);
    let key2 = key_on_shard(&cluster, s2);
    let payload = Payload::builder()
        .read(key1.clone(), Version::ZERO)
        .read(key2.clone(), Version::ZERO)
        .write(key1, Value::from("1"))
        .write(key2, Value::from("2"))
        .commit_version(Version::new(1))
        .build()
        .expect("well-formed");
    {
        let now = cluster.world.now();
        cluster
            .world
            .actor_mut::<ClientActor<RdmaMsg>>(client)
            .expect("client")
            .record_certify(tx, payload.clone(), now);
    }

    // Step 1 (Figure 4a): p_c prepares t at both leaders (one-item
    // `PREPARE`s: the paper's single-transaction exchange).
    let shards = vec![s1, s2];
    for (leader, shard) in [(p1, s1), (p3, s2)] {
        let restricted = payload.restrict(shard, cluster.sharding());
        cluster.world.send_from(
            pc,
            leader,
            RdmaMsg::PrepareBatch {
                batch: PrepareBatch {
                    items: Items::one(PrepareItem {
                        tx,
                        payload: Some(restricted),
                        shards: shards.clone(),
                        client,
                    }),
                },
            },
        );
    }
    cluster.run_for(SimDuration::from_millis(2));
    let acks: Vec<RdmaMsg> = cluster
        .world
        .actor::<ScriptedPeer>(pc)
        .expect("scripted peer")
        .received
        .iter()
        .map(|(_, m)| m.clone())
        .collect();
    // The prepared slot a leader acknowledged: exactly what `ACCEPT` persists
    // at the followers.
    let prepare_ack = |shard: ShardId| {
        acks.iter().find_map(|m| match m {
            RdmaMsg::PrepareAckBatch {
                shard: s, items, ..
            } if *s == shard => items.iter().find(|item| item.tx == tx).cloned(),
            // analyze:allow(wildcard-dispatch): extraction filter over a
            // scripted peer's inbox, not a dispatch — non-PREPARE_ACK
            // traffic is deliberately skipped while reconstructing Fig. 4a.
            _ => None,
        })
    };
    let prepared1 = prepare_ack(s1).expect("PREPARE_ACK from s1's leader");
    let prepared2 = prepare_ack(s2).expect("PREPARE_ACK from s2's leader");
    assert_eq!(prepared1.vote, Decision::Commit);
    assert_eq!(prepared2.vote, Decision::Commit);

    // Step 2: p_c persists s1's commit vote at p2 by RDMA.
    cluster.world.rdma_send_from(
        pc,
        p2,
        RdmaMsg::AcceptBatch {
            shard: s1,
            items: Items::one(prepared1),
        },
    );
    cluster.run_for(SimDuration::from_millis(2));

    // s2's leader is suspected; the shard (or, in the correct protocol, the
    // whole system) is reconfigured: p4 becomes the new leader and the spare
    // joins as its follower.
    cluster.crash(p3);
    cluster.start_reconfiguration(s2, p1, vec![p3]);
    cluster.run_to_quiescence();

    // Step 3–5: p1 retries t. The new leader of s2 does not know t, prepares
    // it as aborted, and the retry coordinator externalises abort.
    cluster.retry(p1, tx);
    cluster.run_to_quiescence();
    let retry_decision = cluster.history().decision(tx);

    // Steps 6–7: the stalled p_c finally persists the *old* commit vote of s2
    // at p4 (now s2's leader) and, if the write is acknowledged, externalises
    // commit.
    let acks_before = cluster
        .world
        .actor::<ScriptedPeer>(pc)
        .expect("scripted peer")
        .acks
        .len();
    cluster.world.rdma_send_from(
        pc,
        p4,
        RdmaMsg::AcceptBatch {
            shard: s2,
            items: Items::one(prepared2),
        },
    );
    cluster.run_for(SimDuration::from_millis(2));
    let acks_after = cluster
        .world
        .actor::<ScriptedPeer>(pc)
        .expect("scripted peer")
        .acks
        .len();
    let stale_commit_externalized = acks_after > acks_before;
    if stale_commit_externalized {
        cluster.world.send_from(
            pc,
            client,
            RdmaMsg::DecisionClient {
                tx,
                decision: Decision::Commit,
            },
        );
    }
    cluster.run_to_quiescence();

    CounterexampleOutcome {
        mode,
        stale_commit_externalized,
        client_violations: cluster.client_violations().len(),
        rdma_writes_rejected: cluster.world.rdma_rejected(),
        retry_decision,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_per_shard_reconfiguration_violates_safety() {
        let outcome = run_counterexample(ReconfigMode::NaivePerShard, 1);
        assert_eq!(outcome.retry_decision, Some(Decision::Abort));
        assert!(
            outcome.stale_commit_externalized,
            "the stale coordinator's write must land under the naive protocol"
        );
        assert!(
            outcome.client_violations > 0,
            "contradictory decisions must be observable at the client"
        );
    }

    #[test]
    fn correct_global_reconfiguration_excludes_the_violation() {
        let outcome = run_counterexample(ReconfigMode::GlobalCorrect, 1);
        assert_eq!(outcome.retry_decision, Some(Decision::Abort));
        assert!(
            !outcome.stale_commit_externalized,
            "the stale coordinator must not receive an acknowledgement"
        );
        assert_eq!(outcome.client_violations, 0);
        assert!(
            outcome.rdma_writes_rejected > 0,
            "the late write must be rejected"
        );
    }
}
