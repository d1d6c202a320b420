//! Trait-conformance suite for the unified
//! [`TcsCluster`](ratc_harness::TcsCluster) facade.
//!
//! One generic driver, instantiated for every stack, asserts that the three
//! TCS implementations expose **identical observable semantics** through the
//! facade on a fixed seeded workload:
//!
//! * **submit/decide** — a disjoint workload commits in full on every stack,
//!   with a latency record (hops and simulated time) for every decision, and
//!   a conflicting pair is fully decided with at most one commit;
//! * **coordinator handoff** — `submit_via` decides through *every* member
//!   of the stack's coordinator pool (any replica on the RATC stacks, any
//!   transaction-manager group member on the baseline, where non-leader
//!   members forward to the leader);
//! * **crash/restart** — a crashed follower is survivable (after a
//!   reconfiguration on the `f + 1` RATC stacks; masked outright on the
//!   `2f + 1` baseline), the epoch introspection reflects exactly the
//!   reconfigurations that happened, and a restart succeeds;
//! * **specification** — every history passes the black-box TCS checker and
//!   the client observes no structural violations, on every stack.
//!
//! Differences the suite *allows* are exactly the ones the paper describes:
//! which transaction of a conflicting pair wins (message timing), decision
//! latency (5 vs 7 delays), and whether recovery needs a reconfiguration.

use ratc_harness::{ClusterSpec, ExecutionMode, StackKind};
use ratc_types::{Decision, Epoch, Key, Payload, Serializability, ShardId, TxId, Value, Version};

use crate::correctness::check_history;

/// Statistics of one conformance run (useful for debugging a failure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConformanceReport {
    /// The stack checked.
    pub stack: StackKind,
    /// Transactions decided across all scenarios.
    pub decided: usize,
    /// Transactions committed across all scenarios.
    pub committed: usize,
    /// Whether the crash scenario reconfigured (RATC) or masked (baseline).
    pub reconfigured: bool,
}

fn rw(key: &str, commit_version: u64) -> Payload {
    Payload::builder()
        .read(Key::new(key), Version::ZERO)
        .write(Key::new(key), Value::from("v"))
        .commit_version(Version::new(commit_version))
        .build()
        .expect("well-formed")
}

fn err(stack: StackKind, scenario: &str, detail: String) -> String {
    format!("{stack} / {scenario}: {detail}")
}

/// Runs the full conformance scenario sequence against `stack` with `seed`
/// on the deterministic simulator.
///
/// # Errors
///
/// Returns a description of the first observable divergence from the shared
/// TCS semantics.
pub fn check_conformance(stack: StackKind, seed: u64) -> Result<ConformanceReport, String> {
    check_conformance_with(stack, seed, ExecutionMode::Sim)
}

/// Runs the full conformance scenario sequence against `stack` with `seed`
/// on the given execution backend. The scenarios, assertions and allowed
/// divergences are identical on both backends: the suite checks the
/// protocol-level contract, which must not depend on the engine driving the
/// actors.
///
/// # Errors
///
/// Returns a description of the first observable divergence from the shared
/// TCS semantics.
pub fn check_conformance_with(
    stack: StackKind,
    seed: u64,
    execution: ExecutionMode,
) -> Result<ConformanceReport, String> {
    let mut cluster = ClusterSpec::new(stack)
        .with_shards(2)
        .with_seed(seed)
        .with_execution(execution)
        .build();
    if cluster.stack() != stack {
        return Err(err(stack, "build", format!("built {}", cluster.stack())));
    }
    let mut next_tx = 0u64;
    let mut fresh_tx = || {
        next_tx += 1;
        TxId::new(next_tx)
    };

    // --- submit/decide: a disjoint workload commits in full ---------------
    let disjoint: Vec<TxId> = (0..8)
        .map(|i| {
            let tx = fresh_tx();
            cluster.submit(tx, rw(&format!("disjoint-{i}"), 1));
            tx
        })
        .collect();
    cluster.run_to_quiescence();
    let history = cluster.history();
    for tx in &disjoint {
        if history.decision(*tx) != Some(Decision::Commit) {
            return Err(err(
                stack,
                "submit/decide",
                format!("{tx} not committed: {:?}", history.decision(*tx)),
            ));
        }
    }
    let latencies = cluster.latencies();
    for tx in &disjoint {
        let Some(latency) = latencies.get(tx) else {
            return Err(err(stack, "submit/decide", format!("no latency for {tx}")));
        };
        if latency.hops == 0 || latency.micros == 0 {
            return Err(err(
                stack,
                "submit/decide",
                format!("degenerate latency for {tx}: {latency:?}"),
            ));
        }
    }

    // --- submit/decide: a conflicting pair decides with <= 1 commit -------
    let (a, b) = (fresh_tx(), fresh_tx());
    cluster.submit(a, rw("conflict", 1));
    cluster.submit(b, rw("conflict", 2));
    cluster.run_to_quiescence();
    let history = cluster.history();
    let conflict_commits = [a, b]
        .iter()
        .filter(|tx| history.decision(**tx) == Some(Decision::Commit))
        .count();
    if history.decision(a).is_none() || history.decision(b).is_none() {
        return Err(err(stack, "conflict", "conflicting pair undecided".into()));
    }
    if conflict_commits > 1 {
        return Err(err(
            stack,
            "conflict",
            "both conflicting txs committed".into(),
        ));
    }

    // --- coordinator handoff: submit_via through every pool member --------
    for (i, coordinator) in cluster.coordinator_pool().into_iter().enumerate() {
        let tx = fresh_tx();
        cluster.submit_via(tx, rw(&format!("via-{i}"), 1), coordinator);
        cluster.run_to_quiescence();
        if cluster.history().decision(tx).is_none() {
            return Err(err(
                stack,
                "submit_via",
                format!("{tx} undecided through coordinator {coordinator}"),
            ));
        }
    }

    // --- crash/restart (+ reconfiguration where the stack needs it) -------
    let shard = ShardId::new(0);
    let view = cluster.shard_view(shard);
    if view.epoch != Epoch::ZERO {
        return Err(err(stack, "crash", "epoch moved before any crash".into()));
    }
    let leader = view
        .leader
        .ok_or_else(|| err(stack, "crash", "no leader".into()))?;
    let follower = view
        .members
        .into_iter()
        .find(|p| *p != leader)
        .ok_or_else(|| err(stack, "crash", "no follower".into()))?;
    cluster.crash(follower);
    let reconfigured = cluster.stack().supports_reconfiguration();
    if reconfigured {
        cluster.start_reconfiguration(shard, leader, vec![follower]);
        cluster.run_to_quiescence();
        let view = cluster.shard_view(shard);
        if view.epoch != Epoch::new(1) {
            return Err(err(
                stack,
                "reconfiguration",
                format!("epoch is {} after one reconfiguration", view.epoch),
            ));
        }
        if view.members.contains(&follower) {
            return Err(err(
                stack,
                "reconfiguration",
                "crashed follower still a member".into(),
            ));
        }
    }
    let survivors: Vec<TxId> = (0..4)
        .map(|i| {
            let tx = fresh_tx();
            cluster.submit(tx, rw(&format!("post-crash-{i}"), 1));
            tx
        })
        .collect();
    cluster.run_to_quiescence();
    let history = cluster.history();
    for tx in &survivors {
        if history.decision(*tx) != Some(Decision::Commit) {
            return Err(err(
                stack,
                "crash",
                format!("{tx} not committed after the crash was handled"),
            ));
        }
    }
    if !cluster.restart(follower) {
        return Err(err(
            stack,
            "restart",
            "restart of crashed follower failed".into(),
        ));
    }
    cluster.run_to_quiescence();
    let tx = fresh_tx();
    cluster.submit(tx, rw("post-restart", 1));
    cluster.run_to_quiescence();
    let history = cluster.history();
    if history.decision(tx) != Some(Decision::Commit) {
        return Err(err(
            stack,
            "restart",
            format!("{tx} not committed after restart"),
        ));
    }
    if !reconfigured && cluster.shard_view(shard).epoch != Epoch::ZERO {
        return Err(err(
            stack,
            "restart",
            "masking stack moved its epoch".into(),
        ));
    }

    // --- specification: the whole run is clean ----------------------------
    let violations = cluster.client_violations();
    if !violations.is_empty() {
        return Err(err(
            stack,
            "spec",
            format!("client violations: {violations:?}"),
        ));
    }
    let spec_violations = check_history(&history, &Serializability::new());
    if !spec_violations.is_empty() {
        return Err(err(
            stack,
            "spec",
            format!("history violations: {spec_violations:?}"),
        ));
    }
    Ok(ConformanceReport {
        stack,
        decided: history.decide_count(),
        committed: history.committed().count(),
        reconfigured,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conforms(stack: StackKind) {
        for seed in [1u64, 17] {
            let report = check_conformance(stack, seed).unwrap_or_else(|e| panic!("{e}"));
            assert!(report.decided > 0 && report.committed > 0);
            assert_eq!(
                report.reconfigured,
                stack != StackKind::Baseline,
                "only the f+1 stacks reconfigure"
            );
        }
    }

    #[test]
    fn core_conforms_to_the_tcs_cluster_contract() {
        conforms(StackKind::Core);
    }

    #[test]
    fn rdma_conforms_to_the_tcs_cluster_contract() {
        conforms(StackKind::Rdma);
    }

    #[test]
    fn baseline_conforms_to_the_tcs_cluster_contract() {
        conforms(StackKind::Baseline);
    }

    fn conforms_threaded(stack: StackKind) {
        let report = check_conformance_with(stack, 1, ExecutionMode::Threads)
            .unwrap_or_else(|e| panic!("{e}"));
        assert!(report.decided > 0 && report.committed > 0);
        assert_eq!(report.reconfigured, stack != StackKind::Baseline);
    }

    #[test]
    fn core_conforms_on_the_threaded_backend() {
        conforms_threaded(StackKind::Core);
    }

    #[test]
    fn rdma_conforms_on_the_threaded_backend() {
        conforms_threaded(StackKind::Rdma);
    }

    #[test]
    fn baseline_conforms_on_the_threaded_backend() {
        conforms_threaded(StackKind::Baseline);
    }

    /// Runs a workload whose per-transaction outcomes are *forced* (disjoint
    /// transactions must commit; a read of an already-overwritten version
    /// must abort) and returns the decision of every transaction.
    fn forced_workload(stack: StackKind, execution: ExecutionMode) -> Vec<(TxId, Decision)> {
        let mut cluster = ClusterSpec::new(stack)
            .with_shards(2)
            .with_seed(5)
            .with_execution(execution)
            .build();
        let mut txs = Vec::new();
        // Ten disjoint transactions: every stack must commit all of them.
        for i in 0..10u64 {
            let tx = TxId::new(i + 1);
            cluster.submit(tx, rw(&format!("agree-{i}"), 1));
            txs.push(tx);
        }
        cluster.run_to_quiescence();
        // Sequential conflicts: the second read of version 0 happens after
        // version 1 committed, so it must abort — on every backend.
        for i in 0..3u64 {
            let winner = TxId::new(100 + i);
            cluster.submit(winner, rw(&format!("stale-{i}"), 1));
            cluster.run_to_quiescence();
            let loser = TxId::new(200 + i);
            cluster.submit(loser, rw(&format!("stale-{i}"), 2));
            cluster.run_to_quiescence();
            txs.push(winner);
            txs.push(loser);
        }
        assert!(
            cluster.client_violations().is_empty(),
            "{stack}/{execution}"
        );
        let history = cluster.history();
        let violations = check_history(&history, &Serializability::new());
        assert!(violations.is_empty(), "{stack}/{execution}: {violations:?}");
        txs.into_iter()
            .map(|tx| {
                let decision = history
                    .decision(tx)
                    .unwrap_or_else(|| panic!("{stack}/{execution}: {tx} undecided"));
                (tx, decision)
            })
            .collect()
    }

    /// The same seeded workload, run once on the simulator and once on the
    /// threaded backend, reaches the identical per-transaction commit/abort
    /// decisions on every stack — the execution engine is not observable at
    /// the TCS level.
    #[test]
    fn sim_and_threaded_backends_agree_on_forced_decisions() {
        for stack in [StackKind::Core, StackKind::Rdma, StackKind::Baseline] {
            let sim = forced_workload(stack, ExecutionMode::Sim);
            let threaded = forced_workload(stack, ExecutionMode::Threads);
            assert_eq!(sim, threaded, "{stack}: backends diverged");
            // The forced outcomes themselves: disjoint all commit, every
            // sequential stale read aborts.
            for (tx, decision) in &sim {
                let expected = if tx.as_u64() >= 200 {
                    Decision::Abort
                } else {
                    Decision::Commit
                };
                assert_eq!(decision, &expected, "{stack}: {tx}");
            }
        }
    }

    /// The same disjoint seeded workload produces the identical committed
    /// set on every stack: the observable semantics of `submit`/decide do
    /// not depend on the implementation.
    #[test]
    fn all_stacks_agree_on_a_disjoint_seeded_workload() {
        let mut outcomes = Vec::new();
        for stack in [StackKind::Core, StackKind::Rdma, StackKind::Baseline] {
            let mut cluster = ClusterSpec::new(stack).with_shards(2).with_seed(5).build();
            for i in 0..12u64 {
                cluster.submit(TxId::new(i + 1), rw(&format!("agree-{i}"), 1));
            }
            cluster.run_to_quiescence();
            let history = cluster.history();
            let committed: Vec<TxId> = history.committed().collect();
            assert!(cluster.client_violations().is_empty(), "{stack}");
            outcomes.push((stack, committed));
        }
        let reference = outcomes[0].1.clone();
        for (stack, committed) in &outcomes {
            assert_eq!(
                committed, &reference,
                "{stack}: committed set diverged from {}",
                outcomes[0].0
            );
        }
    }
}
