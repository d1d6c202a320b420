//! The correctness gate: no number is printed for a workload unless every
//! round that produced it passed these checks.
//!
//! Every round: the accounting identity, no client-observed violation, no
//! generator lateness, every transaction of a conflict-free stream
//! committed, and `check_conflict_serializable` on the first
//! [`SERIALIZABLE_PREFIX`] committed transactions. `check_history` is
//! super-quadratic, so it runs in full on a separate verification round of at
//! most [`VERIFICATION_TXS`] transactions of the same workload and seed.

use std::collections::BTreeSet;

use ratc_spec::{check_conflict_serializable, check_history};
use ratc_types::{HistoryAction, Serializability, TcsHistory, TxId};

use crate::trace::Tracer;
use crate::workloads::{Round, Workload};

/// Committed transactions the per-round serializability check covers.
pub const SERIALIZABLE_PREFIX: usize = 10_000;

/// Size of the verification round that gets the full `check_history`.
pub const VERIFICATION_TXS: usize = 300;

/// The sub-history of the first `limit` committed transactions, in the
/// original action order. The conflict graph only has edges between
/// committed transactions, so a cycle in a prefix is a cycle in the whole.
fn committed_prefix(history: &TcsHistory, limit: usize) -> TcsHistory {
    let keep: BTreeSet<TxId> = history
        .actions()
        .iter()
        .filter_map(|action| match action {
            HistoryAction::Decide { tx, decision } if decision.is_commit() => Some(*tx),
            _ => None,
        })
        .take(limit)
        .collect();
    let mut prefix = TcsHistory::new();
    for action in history.actions() {
        if !keep.contains(&action.tx()) {
            continue;
        }
        match action {
            HistoryAction::Certify { tx, payload } => prefix.record_certify(*tx, payload.clone()),
            HistoryAction::Decide { tx, decision } => prefix.record_decide(*tx, *decision),
        }
        .expect("a sub-history of a recorded history is well-formed");
    }
    prefix
}

/// Checks one round that submitted `expected` transactions.
pub fn check_round(
    workload: &Workload,
    round: &Round,
    expected: usize,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let name = workload.name;
    if round.submitted != expected as u64 {
        return Err(format!(
            "{name}: the history records {} submissions of {expected}",
            round.submitted
        ));
    }
    if round.submitted != round.committed + round.aborted + round.undecided {
        return Err(format!(
            "{name}: submitted {} != committed {} + aborted {} + undecided {}",
            round.submitted, round.committed, round.aborted, round.undecided
        ));
    }
    if round.latencies_us.len() as u64 != round.decided() {
        return Err(format!(
            "{name}: {} latencies for {} decisions",
            round.latencies_us.len(),
            round.decided()
        ));
    }
    if let Some(violation) = round.client_violations.first() {
        return Err(format!("{name}: client violation: {violation}"));
    }
    if round.lateness_us != 0 {
        return Err(format!(
            "{name}: the open-loop generator ran {} us late",
            round.lateness_us
        ));
    }
    if workload.conflict_free() && round.aborted != 0 {
        return Err(format!(
            "{name}: {} transactions of a conflict-free stream aborted",
            round.aborted
        ));
    }
    let verdict = tracer.time("spec.check_conflict_serializable", "spec", || {
        check_conflict_serializable(&committed_prefix(&round.history, SERIALIZABLE_PREFIX))
    });
    if let Err(cycle) = verdict {
        return Err(format!(
            "{name}: committed transactions are not conflict-serializable (cycle through {cycle:?})"
        ));
    }
    Ok(())
}

/// Checks the verification round: everything [`check_round`] checks, then
/// the full `check_history` against the serializability policy.
pub fn check_verification_round(
    workload: &Workload,
    round: &Round,
    expected: usize,
    tracer: &mut Tracer,
) -> Result<(), String> {
    check_round(workload, round, expected, tracer)?;
    let violations = tracer.time("spec.check_history", "spec", || {
        check_history(&round.history, &Serializability::new())
    });
    match violations.first() {
        None => Ok(()),
        Some(violation) => Err(format!(
            "{}: verification round violates the TCS specification: {violation}",
            workload.name
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratc_types::{Decision, Key, Payload, Value, Version};

    fn write(key: &str, read: u64, commit: u64) -> Payload {
        Payload::builder()
            .read(Key::new(key), Version::new(read))
            .write(Key::new(key), Value::from("v"))
            .commit_version(Version::new(commit))
            .build()
            .expect("well-formed")
    }

    #[test]
    fn prefix_keeps_the_first_committed_transactions_in_order() {
        let mut history = TcsHistory::new();
        for i in 1..=6u64 {
            let key = format!("k{i}");
            history
                .record_certify(TxId::new(i), write(&key, 0, 1))
                .expect("certify");
        }
        for (i, decision) in [
            (2, Decision::Commit),
            (1, Decision::Abort),
            (4, Decision::Commit),
            (3, Decision::Commit),
        ] {
            history
                .record_decide(TxId::new(i), decision)
                .expect("decide");
        }
        let prefix = committed_prefix(&history, 2);
        let committed: Vec<TxId> = prefix.committed().collect();
        assert_eq!(committed, vec![TxId::new(2), TxId::new(4)]);
        assert_eq!(prefix.certify_count(), 2);
        assert!(prefix.is_complete());
    }

    #[test]
    fn a_lost_update_is_caught_by_the_prefix_check() {
        // Both read x at 0 and both commit a write to it: a cycle.
        let mut history = TcsHistory::new();
        for (i, commit) in [(1u64, 1u64), (2, 2)] {
            history
                .record_certify(TxId::new(i), write("x", 0, commit))
                .expect("certify");
            history
                .record_decide(TxId::new(i), Decision::Commit)
                .expect("decide");
        }
        assert!(check_conflict_serializable(&committed_prefix(&history, 10)).is_err());
    }
}
