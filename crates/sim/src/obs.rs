//! Commit-path observability: per-transaction lifecycle spans and
//! phase-latency attribution.
//!
//! Outcomes (committed tx/s, undecided counts) cannot *explain* a latency
//! number: how much of it was admission-queue wait, certification, or
//! waiting for the accept quorum, on which stack and engine? The paper's
//! argument is about commit-path message delays (5 for RATC vs 7 for
//! 2PC-over-Paxos, §6), so this module attributes an observed end-to-end
//! latency to the protocol steps that produced it:
//!
//! * [`TxMilestone`] — the protocol milestones every stack passes through on
//!   its commit path, plus annotations (retries, batch flushes).
//! * [`TxObsEvent`] — one timestamped milestone observation. The metrics
//!   sink appends these to a vector; this module records nothing itself.
//! * [`TxTimeline`] — all observations of one transaction, folded from a flat
//!   event stream by [`fold_timelines`].
//! * [`Phase`] / [`PhaseBreakdown`] — the attribution: consecutive milestone
//!   pairs become six telescoping phases whose durations sum *exactly* to the
//!   end-to-end latency (see [`PhaseBreakdown::from_timeline`]).
//! * [`LatencyUnit`] — whether the timestamps are virtual simulated or
//!   wall-clock microseconds, so reports can label their numbers.
//!
//! Timestamps are plain `u64` microseconds since the recorder's time origin;
//! this module only subtracts them, so it works identically under the
//! simulator (virtual time) and the threaded runtime (wall time). Its
//! control-plane mirror is [`ctrl`](crate::ctrl).

use std::collections::BTreeMap;
use std::fmt;

use ratc_types::{ProcessId, TxId};

/// The clock a latency or timestamp was measured on.
///
/// Every latency the workspace reports is in microseconds, but *whose*
/// microseconds depends on the execution engine: the deterministic simulator
/// advances a virtual clock (identical across runs with the same seed), while
/// the threaded runtime reads the monotonic wall clock. Mixing the two in one
/// table is meaningless, so experiment outputs carry this label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LatencyUnit {
    /// Virtual simulated microseconds (deterministic, seed-reproducible).
    VirtualMicros,
    /// Wall-clock microseconds from the monotonic clock (real elapsed time).
    WallMicros,
}

impl LatencyUnit {
    /// The stable string used in JSON keys and report rows.
    pub fn as_str(self) -> &'static str {
        match self {
            LatencyUnit::VirtualMicros => "virtual_micros",
            LatencyUnit::WallMicros => "wall_micros",
        }
    }
}

impl fmt::Display for LatencyUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A protocol milestone on the commit path of one transaction.
///
/// The first seven variants are the lifecycle proper, in commit-path order;
/// all three stacks pass through all of them. [`TxMilestone::Retry`] and
/// [`TxMilestone::BatchFlush`] are annotations: they explain *why* a phase
/// took as long as it did but do not bound any phase themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TxMilestone {
    /// The client handed the transaction to a coordinator (CERTIFY sent).
    Submitted,
    /// The coordinator's flow control released the transaction into the
    /// in-flight window (immediately on arrival when the window has room,
    /// later when it was queued).
    Admitted,
    /// The coordinator sent the certification requests (PREPARE) to the
    /// shards — directly, or as part of a batch flush.
    CertifySent,
    /// One shard's vote reached the coordinator
    /// ([`TxObsEvent::detail`] = the shard id).
    ShardVoted,
    /// The last required vote arrived: the accept quorum is complete and the
    /// outcome is determined.
    AcceptQuorum,
    /// The coordinator durably fixed the decision and began externalising it.
    Decided,
    /// The decision reached the client (end of the client-visible latency).
    ClientLearned,
    /// A retry/backoff re-drive fired for this transaction
    /// ([`TxObsEvent::detail`] = the 0-based backoff attempt).
    Retry,
    /// The transaction was flushed as part of a certification batch
    /// ([`TxObsEvent::detail`] = the batch occupancy at flush).
    BatchFlush,
}

impl TxMilestone {
    /// The lifecycle milestones in commit-path order (annotations excluded).
    pub const LIFECYCLE: [TxMilestone; 7] = [
        TxMilestone::Submitted,
        TxMilestone::Admitted,
        TxMilestone::CertifySent,
        TxMilestone::ShardVoted,
        TxMilestone::AcceptQuorum,
        TxMilestone::Decided,
        TxMilestone::ClientLearned,
    ];
}

impl fmt::Display for TxMilestone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            TxMilestone::Submitted => "submitted",
            TxMilestone::Admitted => "admitted",
            TxMilestone::CertifySent => "certify-sent",
            TxMilestone::ShardVoted => "shard-voted",
            TxMilestone::AcceptQuorum => "accept-quorum",
            TxMilestone::Decided => "decided",
            TxMilestone::ClientLearned => "client-learned",
            TxMilestone::Retry => "retry",
            TxMilestone::BatchFlush => "batch-flush",
        };
        f.write_str(name)
    }
}

/// One timestamped milestone observation, as appended by a recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxObsEvent {
    /// The transaction this observation belongs to.
    pub tx: TxId,
    /// Microseconds since the recorder's time origin (see [`LatencyUnit`]).
    pub at_micros: u64,
    /// The process that observed the milestone.
    pub by: ProcessId,
    /// Which milestone was observed.
    pub milestone: TxMilestone,
    /// Milestone-specific detail: the shard id for
    /// [`TxMilestone::ShardVoted`], the batch occupancy for
    /// [`TxMilestone::BatchFlush`], the backoff attempt for
    /// [`TxMilestone::Retry`], `0` otherwise.
    pub detail: u64,
}

/// Every observation of one transaction, in recording order.
///
/// A timeline holds the raw events; the lookup helpers implement the
/// milestone-time conventions the phase attribution relies on (first
/// occurrence for most milestones, *last* occurrence for
/// [`TxMilestone::ShardVoted`], since certification ends when the final shard
/// has voted).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TxTimeline {
    events: Vec<TxObsEvent>,
}

impl TxTimeline {
    /// Appends one observation (events are kept in recording order).
    pub fn push(&mut self, event: TxObsEvent) {
        self.events.push(event);
    }

    /// The raw observations, in recording order.
    pub fn events(&self) -> &[TxObsEvent] {
        &self.events
    }

    /// The timestamp of the first occurrence of `milestone`, if observed.
    pub fn first(&self, milestone: TxMilestone) -> Option<u64> {
        self.events
            .iter()
            .filter(|e| e.milestone == milestone)
            .map(|e| e.at_micros)
            .min()
    }

    /// The timestamp of the last occurrence of `milestone`, if observed.
    pub fn last(&self, milestone: TxMilestone) -> Option<u64> {
        self.events
            .iter()
            .filter(|e| e.milestone == milestone)
            .map(|e| e.at_micros)
            .max()
    }

    /// Number of retry/backoff re-drives recorded for this transaction.
    pub fn retries(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.milestone == TxMilestone::Retry)
            .count()
    }

    /// `true` once both endpoints of the client-visible latency are present
    /// (so a [`PhaseBreakdown`] can be attributed).
    pub fn is_complete(&self) -> bool {
        self.first(TxMilestone::Submitted).is_some()
            && self.first(TxMilestone::ClientLearned).is_some()
    }
}

impl fmt::Display for TxTimeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let origin = self
            .events
            .iter()
            .map(|e| e.at_micros)
            .min()
            .unwrap_or_default();
        let mut first = true;
        for event in &self.events {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            write!(
                f,
                "+{}us {}@{}",
                event.at_micros - origin,
                event.milestone,
                event.by
            )?;
            match event.milestone {
                TxMilestone::ShardVoted => write!(f, "(s{})", event.detail)?,
                TxMilestone::Retry => write!(f, "(attempt {})", event.detail)?,
                TxMilestone::BatchFlush => write!(f, "(batch {})", event.detail)?,
                TxMilestone::Submitted
                | TxMilestone::Admitted
                | TxMilestone::CertifySent
                | TxMilestone::AcceptQuorum
                | TxMilestone::Decided
                | TxMilestone::ClientLearned => {}
            }
        }
        if first {
            write!(f, "(no observations)")?;
        }
        Ok(())
    }
}

/// Folds a flat recorder event stream into per-transaction timelines.
pub fn fold_timelines(events: &[TxObsEvent]) -> BTreeMap<TxId, TxTimeline> {
    let mut timelines: BTreeMap<TxId, TxTimeline> = BTreeMap::new();
    for event in events {
        timelines.entry(event.tx).or_default().push(*event);
    }
    timelines
}

/// One of the six telescoping commit-path phases.
///
/// Each phase is the interval between two consecutive lifecycle milestones,
/// so the six durations always sum to the end-to-end latency (submitted →
/// client-learned). The paper counts commit-path *message delays* (§6:
/// 5 for RATC, 7 for the 2PC-over-Paxos baseline); the mapping is:
///
/// | Phase | Interval | RATC (§3/§5) | Baseline (2PC/Paxos) |
/// |---|---|---|---|
/// | [`Phase::Admission`] | submitted → admitted | delay 1 (CERTIFY) + any flow-control queue wait | delay 1 + queue wait |
/// | [`Phase::Dispatch`] | admitted → certify-sent | coordinator-local (0 unless batched) | TM-local |
/// | [`Phase::Certification`] | certify-sent → last shard vote | delays 2–3 (PREPARE + vote) | delays 2–4 (votes made durable in the shard's Paxos log before they count) |
/// | [`Phase::Quorum`] | last vote → accept-quorum | 0 (the last vote *is* the quorum) | delays 5–6 (decision chosen in the TM's Paxos log) |
/// | [`Phase::Decide`] | accept-quorum → decided | coordinator-local | TM-local |
/// | [`Phase::Relay`] | decided → client-learned | delay 5 (DECISION to client; delay 4 runs in parallel) | delay 7 |
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Submitted → admitted: client-to-coordinator delay plus flow-control
    /// queue wait. Grows without bound under overload — the signature of
    /// admission-queue backpressure.
    Admission,
    /// Admitted → certify-sent: coordinator-local dispatch, nonzero mainly
    /// when the batching pipeline holds transactions for a flush.
    Dispatch,
    /// Certify-sent → last shard vote: the certification round trip(s).
    Certification,
    /// Last shard vote → accept quorum complete. Zero on the RATC stacks
    /// (the last vote completes the quorum); on the baseline this is where
    /// the TM's own Paxos round would surface if votes were counted earlier.
    Quorum,
    /// Accept quorum → decision fixed: local bookkeeping, ≈ 0 everywhere.
    Decide,
    /// Decided → client learned: the decision relay.
    Relay,
}

impl Phase {
    /// All six phases, in commit-path order.
    pub const ALL: [Phase; 6] = [
        Phase::Admission,
        Phase::Dispatch,
        Phase::Certification,
        Phase::Quorum,
        Phase::Decide,
        Phase::Relay,
    ];

    /// The stable string used in JSON keys and report rows.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Admission => "admission",
            Phase::Dispatch => "dispatch",
            Phase::Certification => "certification",
            Phase::Quorum => "quorum",
            Phase::Decide => "decide",
            Phase::Relay => "relay",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The per-phase attribution of one transaction's end-to-end latency.
///
/// Built by [`PhaseBreakdown::from_timeline`]; the six phase durations sum to
/// [`PhaseBreakdown::total_micros`] *exactly* (not just within rounding), by
/// construction. See [`Phase`] for what each phase means and which paper
/// message delays it contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Duration of each phase in microseconds, indexed like [`Phase::ALL`].
    phases: [u64; 6],
    /// End-to-end latency (submitted → client-learned) in microseconds.
    total_micros: u64,
    /// Retry/backoff re-drives observed for this transaction.
    retries: usize,
}

impl PhaseBreakdown {
    /// Attributes a completed timeline to phases. Returns `None` unless both
    /// endpoints (submitted, client-learned) were observed.
    ///
    /// Interior milestones may be missing (e.g. a decision re-sent from the
    /// log after a crash skips the vote milestones of the new incarnation) or
    /// — under the threaded engine — observed marginally out of order across
    /// worker clock reads. Both are repaired conservatively: a missing
    /// milestone time is back-filled from the next later one (its phase
    /// becomes 0) and every time is clamped into the envelope of its
    /// predecessor and the end of the timeline. The telescoping sum
    /// `Σ phases = client_learned − submitted` therefore holds exactly.
    pub fn from_timeline(timeline: &TxTimeline) -> Option<PhaseBreakdown> {
        let submitted = timeline.first(TxMilestone::Submitted)?;
        let learned = timeline.first(TxMilestone::ClientLearned)?;
        let learned = learned.max(submitted);
        let mut times = [
            Some(submitted),
            timeline.first(TxMilestone::Admitted),
            timeline.first(TxMilestone::CertifySent),
            // Certification ends when the *final* shard has voted.
            timeline.last(TxMilestone::ShardVoted),
            timeline.first(TxMilestone::AcceptQuorum),
            timeline.first(TxMilestone::Decided),
            Some(learned),
        ];
        // Back-fill right-to-left: an unobserved milestone collapses its
        // phase to zero instead of poisoning the sum.
        for i in (0..times.len() - 1).rev() {
            if times[i].is_none() {
                times[i] = times[i + 1];
            }
        }
        let mut bounds = [0u64; 7];
        let mut prev = submitted;
        for (slot, time) in bounds.iter_mut().zip(times) {
            let t = time.expect("back-filled").clamp(prev, learned);
            *slot = t;
            prev = t;
        }
        let mut phases = [0u64; 6];
        for (i, phase) in phases.iter_mut().enumerate() {
            *phase = bounds[i + 1] - bounds[i];
        }
        Some(PhaseBreakdown {
            phases,
            total_micros: learned - submitted,
            retries: timeline.retries(),
        })
    }

    /// The duration of `phase` in microseconds.
    pub fn phase_micros(&self, phase: Phase) -> u64 {
        let index = Phase::ALL.iter().position(|p| *p == phase).expect("phase");
        self.phases[index]
    }

    /// The six phase durations, indexed like [`Phase::ALL`].
    pub fn phases(&self) -> [u64; 6] {
        self.phases
    }

    /// End-to-end latency (submitted → client-learned) in microseconds;
    /// always equal to the sum of the six phases.
    pub fn total_micros(&self) -> u64 {
        self.total_micros
    }

    /// Retry/backoff re-drives observed for this transaction.
    pub fn retries(&self) -> usize {
        self.retries
    }
}

impl fmt::Display for PhaseBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "total={}us [", self.total_micros)?;
        for (i, phase) in Phase::ALL.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}={}", phase, self.phases[i])?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(tx: u64, at: u64, milestone: TxMilestone, detail: u64) -> TxObsEvent {
        TxObsEvent {
            tx: TxId::new(tx),
            at_micros: at,
            by: ProcessId::new(9),
            milestone,
            detail,
        }
    }

    fn full_timeline() -> TxTimeline {
        let mut t = TxTimeline::default();
        t.push(ev(1, 100, TxMilestone::Submitted, 0));
        t.push(ev(1, 130, TxMilestone::Admitted, 0));
        t.push(ev(1, 135, TxMilestone::CertifySent, 0));
        t.push(ev(1, 160, TxMilestone::ShardVoted, 0));
        t.push(ev(1, 180, TxMilestone::ShardVoted, 1));
        t.push(ev(1, 180, TxMilestone::AcceptQuorum, 0));
        t.push(ev(1, 181, TxMilestone::Decided, 0));
        t.push(ev(1, 210, TxMilestone::ClientLearned, 0));
        t
    }

    #[test]
    fn breakdown_phases_sum_exactly_to_end_to_end() {
        let b = PhaseBreakdown::from_timeline(&full_timeline()).expect("complete");
        assert_eq!(b.total_micros(), 110);
        assert_eq!(b.phases().iter().sum::<u64>(), b.total_micros());
        assert_eq!(b.phase_micros(Phase::Admission), 30);
        assert_eq!(b.phase_micros(Phase::Dispatch), 5);
        assert_eq!(b.phase_micros(Phase::Certification), 45);
        assert_eq!(b.phase_micros(Phase::Quorum), 0);
        assert_eq!(b.phase_micros(Phase::Decide), 1);
        assert_eq!(b.phase_micros(Phase::Relay), 29);
    }

    #[test]
    fn certification_ends_at_the_last_shard_vote() {
        let t = full_timeline();
        assert_eq!(t.first(TxMilestone::ShardVoted), Some(160));
        assert_eq!(t.last(TxMilestone::ShardVoted), Some(180));
    }

    #[test]
    fn missing_interior_milestones_collapse_their_phase_to_zero() {
        let mut t = TxTimeline::default();
        t.push(ev(2, 50, TxMilestone::Submitted, 0));
        t.push(ev(2, 90, TxMilestone::Decided, 0));
        t.push(ev(2, 120, TxMilestone::ClientLearned, 0));
        let b = PhaseBreakdown::from_timeline(&t).expect("complete");
        assert_eq!(b.total_micros(), 70);
        assert_eq!(b.phases().iter().sum::<u64>(), 70);
        // Everything before `Decided` back-fills onto its time: the missing
        // phases are 0 and Admission absorbs the submitted→decided interval.
        assert_eq!(b.phase_micros(Phase::Admission), 40);
        assert_eq!(b.phase_micros(Phase::Certification), 0);
        assert_eq!(b.phase_micros(Phase::Relay), 30);
    }

    #[test]
    fn out_of_order_times_are_clamped_and_still_sum() {
        let mut t = TxTimeline::default();
        t.push(ev(3, 100, TxMilestone::Submitted, 0));
        t.push(ev(3, 95, TxMilestone::Admitted, 0)); // clock skew artefact
        t.push(ev(3, 400, TxMilestone::Decided, 0)); // after client-learned
        t.push(ev(3, 300, TxMilestone::ClientLearned, 0));
        let b = PhaseBreakdown::from_timeline(&t).expect("complete");
        assert_eq!(b.total_micros(), 200);
        assert_eq!(b.phases().iter().sum::<u64>(), 200);
    }

    #[test]
    fn incomplete_timelines_yield_no_breakdown() {
        let mut t = TxTimeline::default();
        t.push(ev(4, 10, TxMilestone::Submitted, 0));
        t.push(ev(4, 20, TxMilestone::Admitted, 0));
        assert!(!t.is_complete());
        assert!(PhaseBreakdown::from_timeline(&t).is_none());
    }

    #[test]
    fn fold_groups_by_transaction_and_counts_retries() {
        let events = vec![
            ev(1, 10, TxMilestone::Submitted, 0),
            ev(2, 11, TxMilestone::Submitted, 0),
            ev(1, 40, TxMilestone::Retry, 0),
            ev(1, 90, TxMilestone::Retry, 1),
            ev(1, 120, TxMilestone::ClientLearned, 0),
        ];
        let timelines = fold_timelines(&events);
        assert_eq!(timelines.len(), 2);
        let t1 = &timelines[&TxId::new(1)];
        assert_eq!(t1.retries(), 2);
        assert!(t1.is_complete());
        let b = PhaseBreakdown::from_timeline(t1).expect("complete");
        assert_eq!(b.retries(), 2);
        assert!(!timelines[&TxId::new(2)].is_complete());
    }

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(LatencyUnit::VirtualMicros.to_string(), "virtual_micros");
        assert_eq!(LatencyUnit::WallMicros.to_string(), "wall_micros");
        assert_eq!(Phase::Certification.to_string(), "certification");
        assert_eq!(TxMilestone::AcceptQuorum.to_string(), "accept-quorum");
        let mut t = TxTimeline::default();
        t.push(ev(1, 100, TxMilestone::Submitted, 0));
        t.push(ev(1, 140, TxMilestone::ShardVoted, 3));
        let text = t.to_string();
        assert!(text.contains("+0us submitted@p9"), "{text}");
        assert!(text.contains("+40us shard-voted@p9(s3)"), "{text}");
    }
}
