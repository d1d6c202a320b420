//! TCS histories: sequences of `certify` and `decide` actions.
//!
//! The TCS specification (§2) is stated in terms of *histories* — sequences of
//! `certify(t, l)` and `decide(t, d)` actions in which every transaction is
//! certified at most once and every decision responds to exactly one preceding
//! certification. This module provides the history record type shared by all
//! TCS implementations in the workspace; the correctness *checkers* over
//! histories live in the `ratc-spec` crate.

use std::collections::BTreeMap;
use std::fmt;

use crate::decision::Decision;
use crate::ids::TxId;
use crate::payload::Payload;

/// A single action of a TCS history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HistoryAction {
    /// A client submitted transaction `tx` with `payload` for certification.
    Certify {
        /// The transaction identifier.
        tx: TxId,
        /// The payload submitted for certification.
        payload: Payload,
    },
    /// The service responded with `decision` for transaction `tx`.
    Decide {
        /// The transaction identifier.
        tx: TxId,
        /// The decision returned to the client.
        decision: Decision,
    },
}

impl HistoryAction {
    /// The transaction this action concerns.
    pub fn tx(&self) -> TxId {
        match self {
            HistoryAction::Certify { tx, .. } | HistoryAction::Decide { tx, .. } => *tx,
        }
    }

    /// Returns `true` if this is a `certify` action.
    pub fn is_certify(&self) -> bool {
        matches!(self, HistoryAction::Certify { .. })
    }

    /// Returns `true` if this is a `decide` action.
    pub fn is_decide(&self) -> bool {
        matches!(self, HistoryAction::Decide { .. })
    }
}

impl fmt::Display for HistoryAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistoryAction::Certify { tx, payload } => write!(f, "certify({tx}, {payload})"),
            HistoryAction::Decide { tx, decision } => write!(f, "decide({tx}, {decision})"),
        }
    }
}

/// Errors detected while *recording* a history (structural violations of the
/// history well-formedness conditions of §2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HistoryError {
    /// The same transaction was submitted for certification twice.
    DuplicateCertify(TxId),
    /// A decision was recorded for a transaction that was never certified.
    DecideWithoutCertify(TxId),
    /// Two *different* decisions were recorded for the same transaction.
    ///
    /// Recording the same decision twice is tolerated (the protocols may
    /// deliver duplicate `DECISION` messages); contradictory decisions are a
    /// safety violation (Invariant 4b).
    ContradictoryDecisions {
        /// The transaction with contradictory decisions.
        tx: TxId,
        /// The decision recorded first.
        first: Decision,
        /// The conflicting decision recorded later.
        second: Decision,
    },
}

impl fmt::Display for HistoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistoryError::DuplicateCertify(tx) => {
                write!(f, "transaction {tx} certified more than once")
            }
            HistoryError::DecideWithoutCertify(tx) => {
                write!(f, "decision for {tx} without a preceding certify")
            }
            HistoryError::ContradictoryDecisions { tx, first, second } => write!(
                f,
                "contradictory decisions for {tx}: {first} and then {second}"
            ),
        }
    }
}

impl std::error::Error for HistoryError {}

/// A recorded TCS history.
///
/// Histories are recorded by the client side of every TCS implementation in
/// the workspace and consumed by the checkers in `ratc-spec` and by the
/// experiment harnesses (which derive latency and abort-rate metrics from
/// them).
///
/// # Example
///
/// ```
/// use ratc_types::prelude::*;
///
/// let mut h = TcsHistory::new();
/// let p = Payload::builder().read(Key::new("x"), Version::new(0)).build()?;
/// h.record_certify(TxId::new(1), p)?;
/// h.record_decide(TxId::new(1), Decision::Commit)?;
/// assert!(h.is_complete());
/// assert_eq!(h.committed().count(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TcsHistory {
    actions: Vec<HistoryAction>,
    payloads: BTreeMap<TxId, Payload>,
    decisions: BTreeMap<TxId, Decision>,
}

impl TcsHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        TcsHistory::default()
    }

    /// Records a `certify(tx, payload)` action.
    ///
    /// # Errors
    ///
    /// Returns [`HistoryError::DuplicateCertify`] if `tx` was already certified.
    pub fn record_certify(&mut self, tx: TxId, payload: Payload) -> Result<(), HistoryError> {
        if self.payloads.contains_key(&tx) {
            return Err(HistoryError::DuplicateCertify(tx));
        }
        self.payloads.insert(tx, payload.clone());
        self.actions.push(HistoryAction::Certify { tx, payload });
        Ok(())
    }

    /// Records a `decide(tx, decision)` action.
    ///
    /// Duplicate identical decisions are ignored (the protocols may deliver the
    /// decision to the client more than once).
    ///
    /// # Errors
    ///
    /// Returns an error if `tx` was never certified or if a *different*
    /// decision was already recorded for it.
    pub fn record_decide(&mut self, tx: TxId, decision: Decision) -> Result<(), HistoryError> {
        if !self.payloads.contains_key(&tx) {
            return Err(HistoryError::DecideWithoutCertify(tx));
        }
        if let Some(existing) = self.decisions.get(&tx) {
            if *existing != decision {
                return Err(HistoryError::ContradictoryDecisions {
                    tx,
                    first: *existing,
                    second: decision,
                });
            }
            return Ok(());
        }
        self.decisions.insert(tx, decision);
        self.actions.push(HistoryAction::Decide { tx, decision });
        Ok(())
    }

    /// The recorded actions, in order.
    pub fn actions(&self) -> &[HistoryAction] {
        &self.actions
    }

    /// The payload submitted for `tx`, if it was certified.
    pub fn payload(&self, tx: TxId) -> Option<&Payload> {
        self.payloads.get(&tx)
    }

    /// The decision recorded for `tx`, if any.
    pub fn decision(&self, tx: TxId) -> Option<Decision> {
        self.decisions.get(&tx).copied()
    }

    /// Iterates over all certified transactions with their payloads.
    pub fn certified(&self) -> impl Iterator<Item = (TxId, &Payload)> + '_ {
        self.payloads.iter().map(|(tx, p)| (*tx, p))
    }

    /// Iterates over the transactions that committed in this history.
    pub fn committed(&self) -> impl Iterator<Item = TxId> + '_ {
        self.decisions
            .iter()
            .filter(|(_, d)| d.is_commit())
            .map(|(tx, _)| *tx)
    }

    /// Iterates over the transactions that aborted in this history.
    pub fn aborted(&self) -> impl Iterator<Item = TxId> + '_ {
        self.decisions
            .iter()
            .filter(|(_, d)| d.is_abort())
            .map(|(tx, _)| *tx)
    }

    /// Iterates over certified transactions that have no decision yet.
    pub fn undecided(&self) -> impl Iterator<Item = TxId> + '_ {
        self.payloads
            .keys()
            .filter(|tx| !self.decisions.contains_key(tx))
            .copied()
    }

    /// Number of certified transactions.
    pub fn certify_count(&self) -> usize {
        self.payloads.len()
    }

    /// Number of decided transactions.
    pub fn decide_count(&self) -> usize {
        self.decisions.len()
    }

    /// Returns `true` if every certified transaction has a decision.
    pub fn is_complete(&self) -> bool {
        self.payloads.len() == self.decisions.len()
    }

    /// Merges another history into this one, preserving the relative order of
    /// `other`'s actions after this history's actions.
    ///
    /// Used by experiment drivers that collect one history per client.
    ///
    /// # Errors
    ///
    /// Propagates the same structural errors as the `record_*` methods.
    pub fn merge(&mut self, other: &TcsHistory) -> Result<(), HistoryError> {
        for action in other.actions() {
            match action {
                HistoryAction::Certify { tx, payload } => {
                    self.record_certify(*tx, payload.clone())?;
                }
                HistoryAction::Decide { tx, decision } => {
                    self.record_decide(*tx, *decision)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Key, Version};

    fn payload(key: &str) -> Payload {
        Payload::builder()
            .read(Key::new(key), Version::new(0))
            .build()
            .expect("well-formed")
    }

    #[test]
    fn record_and_query() {
        let mut h = TcsHistory::new();
        h.record_certify(TxId::new(1), payload("x")).unwrap();
        h.record_certify(TxId::new(2), payload("y")).unwrap();
        h.record_decide(TxId::new(1), Decision::Commit).unwrap();
        assert_eq!(h.certify_count(), 2);
        assert_eq!(h.decide_count(), 1);
        assert!(!h.is_complete());
        assert_eq!(h.decision(TxId::new(1)), Some(Decision::Commit));
        assert_eq!(h.decision(TxId::new(2)), None);
        assert_eq!(h.undecided().collect::<Vec<_>>(), vec![TxId::new(2)]);
        assert_eq!(h.committed().count(), 1);
        assert_eq!(h.aborted().count(), 0);
        assert!(h.payload(TxId::new(1)).is_some());
    }

    #[test]
    fn duplicate_certify_is_rejected() {
        let mut h = TcsHistory::new();
        h.record_certify(TxId::new(1), payload("x")).unwrap();
        assert_eq!(
            h.record_certify(TxId::new(1), payload("x")),
            Err(HistoryError::DuplicateCertify(TxId::new(1)))
        );
    }

    #[test]
    fn decide_without_certify_is_rejected() {
        let mut h = TcsHistory::new();
        assert_eq!(
            h.record_decide(TxId::new(7), Decision::Abort),
            Err(HistoryError::DecideWithoutCertify(TxId::new(7)))
        );
    }

    #[test]
    fn duplicate_identical_decisions_are_tolerated() {
        let mut h = TcsHistory::new();
        h.record_certify(TxId::new(1), payload("x")).unwrap();
        h.record_decide(TxId::new(1), Decision::Commit).unwrap();
        h.record_decide(TxId::new(1), Decision::Commit).unwrap();
        assert_eq!(h.decide_count(), 1);
        assert_eq!(h.actions().len(), 2);
    }

    #[test]
    fn contradictory_decisions_are_a_safety_violation() {
        let mut h = TcsHistory::new();
        h.record_certify(TxId::new(1), payload("x")).unwrap();
        h.record_decide(TxId::new(1), Decision::Commit).unwrap();
        let err = h.record_decide(TxId::new(1), Decision::Abort).unwrap_err();
        assert!(matches!(err, HistoryError::ContradictoryDecisions { .. }));
    }

    #[test]
    fn merge_combines_histories() {
        let mut a = TcsHistory::new();
        a.record_certify(TxId::new(1), payload("x")).unwrap();
        a.record_decide(TxId::new(1), Decision::Commit).unwrap();
        let mut b = TcsHistory::new();
        b.record_certify(TxId::new(2), payload("y")).unwrap();
        b.record_decide(TxId::new(2), Decision::Abort).unwrap();
        a.merge(&b).unwrap();
        assert_eq!(a.certify_count(), 2);
        assert!(a.is_complete());
        assert_eq!(a.aborted().collect::<Vec<_>>(), vec![TxId::new(2)]);
    }

    #[test]
    fn display_of_actions() {
        let action = HistoryAction::Certify {
            tx: TxId::new(3),
            payload: Payload::empty(),
        };
        assert_eq!(action.to_string(), "certify(t3, ε)");
        assert_eq!(action.tx(), TxId::new(3));
        assert!(action.is_certify());
        let d = HistoryAction::Decide {
            tx: TxId::new(3),
            decision: Decision::Abort,
        };
        assert!(d.is_decide());
        assert_eq!(d.to_string(), "decide(t3, abort)");
    }
}
