//! Commit/abort decisions and votes, together with the `⊓` (meet) operator.
//!
//! The paper's decision domain is `D = {abort, commit}` with the meet operator
//! `⊓` defined by `commit ⊓ commit = commit` and `d ⊓ abort = abort`. The same
//! operator combines shard votes into a final decision in two-phase commit and
//! combines the results of the shard-local certification functions `f_s` and
//! `g_s` when a leader votes on a transaction.

use std::fmt;
use std::ops::BitAnd;

/// A decision (or vote) on a transaction: `commit` or `abort`.
///
/// The meet operator `⊓` of the paper is exposed both as [`Decision::meet`] and
/// as the `&` operator, since `⊓` behaves exactly like logical conjunction with
/// `commit` playing the role of `true`.
///
/// # Example
///
/// ```
/// use ratc_types::Decision;
/// assert_eq!(Decision::Commit & Decision::Commit, Decision::Commit);
/// assert_eq!(Decision::Commit & Decision::Abort, Decision::Abort);
/// assert_eq!(Decision::meet_all([Decision::Commit, Decision::Commit]), Decision::Commit);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Decision {
    /// The transaction must abort.
    Abort,
    /// The transaction may commit.
    Commit,
}

impl Decision {
    /// The meet operator `⊓`: the result is `Commit` only if both operands are.
    pub fn meet(self, other: Decision) -> Decision {
        if self == Decision::Commit && other == Decision::Commit {
            Decision::Commit
        } else {
            Decision::Abort
        }
    }

    /// Folds `⊓` over an iterator of decisions.
    ///
    /// The meet of the empty set is `Commit` (the neutral element of `⊓`),
    /// mirroring the convention that a transaction touching no shards commits
    /// vacuously.
    pub fn meet_all<I>(decisions: I) -> Decision
    where
        I: IntoIterator<Item = Decision>,
    {
        decisions.into_iter().fold(Decision::Commit, Decision::meet)
    }

    /// Returns `true` if this decision is `Commit`.
    pub fn is_commit(self) -> bool {
        self == Decision::Commit
    }

    /// Returns `true` if this decision is `Abort`.
    pub fn is_abort(self) -> bool {
        self == Decision::Abort
    }

    /// The `⊑` order used by the TCS-LL specification (Figure 6):
    /// `abort ⊑ commit` and every decision is below itself.
    ///
    /// `x ⊑ y` means the protocol is allowed to output `x` where the
    /// certification functions would allow `y`: spuriously aborting is always
    /// safe, spuriously committing never is.
    pub fn le(self, other: Decision) -> bool {
        self == other || (self == Decision::Abort && other == Decision::Commit)
    }
}

impl BitAnd for Decision {
    type Output = Decision;

    fn bitand(self, rhs: Decision) -> Decision {
        self.meet(rhs)
    }
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Decision::Commit => f.write_str("commit"),
            Decision::Abort => f.write_str("abort"),
        }
    }
}

/// A shard's vote on a transaction, as recorded in the certification order.
///
/// A vote is structurally the same as a [`Decision`]; the separate alias keeps
/// protocol code readable: leaders produce *votes*, coordinators combine votes
/// into *decisions*.
pub type Vote = Decision;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meet_matches_truth_table() {
        use Decision::*;
        assert_eq!(Commit.meet(Commit), Commit);
        assert_eq!(Commit.meet(Abort), Abort);
        assert_eq!(Abort.meet(Commit), Abort);
        assert_eq!(Abort.meet(Abort), Abort);
    }

    #[test]
    fn meet_all_of_empty_is_commit() {
        assert_eq!(Decision::meet_all(std::iter::empty()), Decision::Commit);
    }

    #[test]
    fn meet_all_aborts_if_any_aborts() {
        let votes = [Decision::Commit, Decision::Abort, Decision::Commit];
        assert_eq!(Decision::meet_all(votes), Decision::Abort);
    }

    #[test]
    fn bitand_is_meet() {
        assert_eq!(Decision::Commit & Decision::Abort, Decision::Abort);
        assert_eq!(Decision::Commit & Decision::Commit, Decision::Commit);
    }

    #[test]
    fn le_order() {
        assert!(Decision::Abort.le(Decision::Commit));
        assert!(Decision::Abort.le(Decision::Abort));
        assert!(Decision::Commit.le(Decision::Commit));
        assert!(!Decision::Commit.le(Decision::Abort));
    }

    #[test]
    fn predicates() {
        assert!(Decision::Commit.is_commit());
        assert!(!Decision::Commit.is_abort());
        assert!(Decision::Abort.is_abort());
    }

    #[test]
    fn display() {
        assert_eq!(Decision::Commit.to_string(), "commit");
        assert_eq!(Decision::Abort.to_string(), "abort");
    }
}
