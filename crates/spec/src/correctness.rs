//! Black-box history correctness with respect to a certification function.
//!
//! A complete history is correct w.r.t. `f` if its committed projection has a
//! legal linearization (§2). Searching over all linearizations is exponential;
//! this checker performs a greedy witness search: it repeatedly places any
//! committed transaction whose real-time predecessors are already placed and
//! whose payload is accepted by `f` against the already-placed payloads. If it
//! finds a witness, the history is certainly correct; because certification
//! functions are distributive (adding payloads can only flip decisions from
//! commit to abort), transactions the search cannot place are reported as
//! violations.

use std::fmt;

use ratc_types::{CertificationPolicy, Decision, HistoryAction, Payload, TcsHistory, TxId};

/// A violation of the TCS specification detected over a history.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecViolation {
    /// A committed transaction's payload conflicts with the payloads of
    /// transactions committed before it under every linearization attempted.
    IllegalCommit {
        /// The offending transaction.
        tx: TxId,
        /// Explanation of the failed check.
        details: String,
    },
    /// A transaction was decided but never certified, or certified twice
    /// (structural violations are normally caught at recording time).
    Structural {
        /// Explanation.
        details: String,
    },
}

impl fmt::Display for SpecViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecViolation::IllegalCommit { tx, details } => {
                write!(f, "illegal commit of {tx}: {details}")
            }
            SpecViolation::Structural { details } => write!(f, "structural violation: {details}"),
        }
    }
}

impl std::error::Error for SpecViolation {}

/// Checks that `history` is correct with respect to the certification policy's
/// global function `f`.
///
/// Committed transactions are linearized in decision order; every committed
/// transaction must be accepted by `f` against the set of transactions
/// committed before it. Aborted and undecided transactions are unconstrained
/// by the specification (the projection `h | committed(h)` removes them).
///
/// # Errors
///
/// Returns all violations found (empty vector = correct).
pub fn check_history<P>(history: &TcsHistory, policy: &P) -> Vec<SpecViolation>
where
    P: CertificationPolicy + ?Sized,
{
    let mut violations = Vec::new();

    // Committed transactions in decision order (used as the deterministic
    // iteration order of the greedy witness search).
    let mut committed_order: Vec<TxId> = Vec::new();
    for action in history.actions() {
        if let HistoryAction::Decide { tx, decision } = action {
            if decision.is_commit() {
                committed_order.push(*tx);
            }
        }
    }
    for tx in &committed_order {
        if history.payload(*tx).is_none() {
            violations.push(SpecViolation::Structural {
                details: format!("{tx} committed without a recorded payload"),
            });
        }
    }

    // Greedy witness search: repeatedly place any not-yet-placed committed
    // transaction whose real-time predecessors are all placed and whose
    // payload is accepted by `f` against the already-placed payloads. By
    // distributivity of `f`, postponing a transaction can only make its check
    // harder, so if the greedy search gets stuck the stuck transactions are
    // genuinely unplaceable after the already-placed prefix.
    let mut remaining: Vec<TxId> = committed_order.clone();
    let mut placed_payloads: Vec<&Payload> = Vec::new();
    let mut placed: Vec<TxId> = Vec::new();
    loop {
        let mut progressed = false;
        let mut index = 0;
        while index < remaining.len() {
            let tx = remaining[index];
            let predecessors_placed = committed_order.iter().all(|other| {
                *other == tx
                    || !decided_before_certify(history, *other, tx)
                    || placed.contains(other)
            });
            let Some(payload) = history.payload(tx) else {
                remaining.remove(index);
                continue;
            };
            if predecessors_placed && policy.certify(&placed_payloads, payload) == Decision::Commit
            {
                placed.push(tx);
                placed_payloads.push(payload);
                remaining.remove(index);
                progressed = true;
            } else {
                index += 1;
            }
        }
        if !progressed {
            break;
        }
    }
    for tx in remaining {
        if let Some(payload) = history.payload(tx) {
            violations.push(SpecViolation::IllegalCommit {
                tx,
                details: format!(
                    "payload {payload} cannot be placed in any legal linearization under {} ({} transactions placed before it)",
                    policy.name(),
                    placed.len()
                ),
            });
        }
    }

    violations
}

/// Returns `true` if `earlier`'s decision appears in the history before
/// `later`'s certify action (the real-time order `≺rt` of the paper).
fn decided_before_certify(history: &TcsHistory, earlier: TxId, later: TxId) -> bool {
    let mut decided = false;
    for action in history.actions() {
        match action {
            HistoryAction::Decide { tx, .. } if *tx == earlier => decided = true,
            HistoryAction::Certify { tx, .. } if *tx == later => return decided,
            HistoryAction::Decide { .. } | HistoryAction::Certify { .. } => {}
        }
    }
    decided
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratc_types::{Key, Serializability, Value, Version};

    fn rw(key: &str, read_v: u64, commit_v: u64) -> Payload {
        Payload::builder()
            .read(Key::new(key), Version::new(read_v))
            .write(Key::new(key), Value::from("v"))
            .commit_version(Version::new(commit_v))
            .build()
            .expect("well-formed")
    }

    #[test]
    fn disjoint_commits_are_correct() {
        let mut h = TcsHistory::new();
        h.record_certify(TxId::new(1), rw("a", 0, 1)).unwrap();
        h.record_certify(TxId::new(2), rw("b", 0, 1)).unwrap();
        h.record_decide(TxId::new(1), Decision::Commit).unwrap();
        h.record_decide(TxId::new(2), Decision::Commit).unwrap();
        assert!(check_history(&h, &Serializability::new()).is_empty());
    }

    #[test]
    fn conflicting_double_commit_is_flagged() {
        let mut h = TcsHistory::new();
        // Both read version 0 of the same key and write it; committing both is
        // not serializable.
        h.record_certify(TxId::new(1), rw("x", 0, 1)).unwrap();
        h.record_certify(TxId::new(2), rw("x", 0, 2)).unwrap();
        h.record_decide(TxId::new(1), Decision::Commit).unwrap();
        h.record_decide(TxId::new(2), Decision::Commit).unwrap();
        let violations = check_history(&h, &Serializability::new());
        assert_eq!(violations.len(), 1);
        assert!(matches!(
            violations[0],
            SpecViolation::IllegalCommit { tx, .. } if tx == TxId::new(2)
        ));
        assert!(violations[0].to_string().contains("illegal commit"));
    }

    #[test]
    fn conflicting_transactions_where_one_aborts_are_correct() {
        let mut h = TcsHistory::new();
        h.record_certify(TxId::new(1), rw("x", 0, 1)).unwrap();
        h.record_certify(TxId::new(2), rw("x", 0, 2)).unwrap();
        h.record_decide(TxId::new(1), Decision::Commit).unwrap();
        h.record_decide(TxId::new(2), Decision::Abort).unwrap();
        assert!(check_history(&h, &Serializability::new()).is_empty());
    }

    #[test]
    fn sequential_dependent_commits_are_correct() {
        let mut h = TcsHistory::new();
        h.record_certify(TxId::new(1), rw("x", 0, 1)).unwrap();
        h.record_decide(TxId::new(1), Decision::Commit).unwrap();
        // The second transaction read the version written by the first.
        h.record_certify(TxId::new(2), rw("x", 1, 2)).unwrap();
        h.record_decide(TxId::new(2), Decision::Commit).unwrap();
        assert!(check_history(&h, &Serializability::new()).is_empty());
    }

    #[test]
    fn incomplete_histories_are_checked_on_their_committed_part() {
        let mut h = TcsHistory::new();
        h.record_certify(TxId::new(1), rw("x", 0, 1)).unwrap();
        h.record_certify(TxId::new(2), rw("y", 0, 1)).unwrap();
        h.record_decide(TxId::new(1), Decision::Commit).unwrap();
        // t2 undecided.
        assert!(check_history(&h, &Serializability::new()).is_empty());
    }
}
