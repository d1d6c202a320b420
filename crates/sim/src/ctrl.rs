//! Control-plane observability: cluster-scope milestones, fault correlation
//! and per-shard availability windows.
//!
//! The commit-path layer ([`crate::TxMilestone`]) explains where one
//! transaction's latency went; this module explains what the *cluster* was
//! doing around it. A [`CtrlEvent`] stamps one control-plane milestone — a
//! reconfiguration step, a crash, a restart, an injected fault — and the
//! stream of them, merged with the per-transaction stream, answers the
//! question the paper's reconfiguration protocol exists for: *how long is a
//! shard dark when the environment misbehaves?*
//!
//! [`blackouts`] computes that number: a per-shard **availability window**
//! opens at the first event that degrades the shard and closes at the first
//! transaction decided on the shard afterwards.
//!
//! # Mapping to the paper's reconfiguration phases
//!
//! The milestones stamp the phases of Bravo & Gotsman 2019's reconfiguration
//! protocol (§3 for the message-passing TCS, §5 for the RDMA one). Both
//! protocol stacks stamp the *same* milestones at the equivalent step, so a
//! single forensic pipeline reads either:
//!
//! | Milestone | Paper phase |
//! |---|---|
//! | [`CtrlMilestone::ReconfigInitiated`] | `reconfigure()` entered: the initiator asks the configuration service for the last epoch (`CS.getLast`) |
//! | [`CtrlMilestone::ProbeStarted`] | probe phase: `PROBE` sent to the members of every shard being reconfigured (§5 lines 111–116) |
//! | [`CtrlMilestone::ProbeGrace`] | the new epoch is viable but some probed members have not answered; a grace timer briefly waits for warm replicas before falling back to spares |
//! | [`CtrlMilestone::ConfigChosen`] | the initiator computed the new configuration and won the `CS.CAS` on the configuration service (§5 lines 121–124) |
//! | [`CtrlMilestone::StateTransferred`] | a follower installed the new leader's log via `NEW_STATE` (§5 lines 148–153) |
//! | [`CtrlMilestone::ShardOperational`] | the new leader activated the configuration on receiving `NEW_CONFIG` (§5 lines 141–147): the shard serves again |
//! | [`CtrlMilestone::LeaderHandoff`] | the `NEW_CONFIG` recipient differs from the previous leader of the shard |
//!
//! Crash/restart/recovery spans ([`CtrlMilestone::Crash`] →
//! [`CtrlMilestone::Restart`] → [`CtrlMilestone::Recovered`]) and the chaos
//! harness's injected faults ([`CtrlMilestone::FaultInjected`] /
//! [`CtrlMilestone::FaultHealed`]) share the stream, so one time-ordered log
//! correlates every latency spike with its cause.

use std::collections::BTreeMap;
use std::fmt;

use ratc_types::{ProcessId, ShardId, TxId};

use crate::obs::{TxMilestone, TxObsEvent};

/// A cluster-scope (control-plane) milestone.
///
/// See the [module docs](self) for the mapping of the reconfiguration
/// milestones onto the paper's protocol phases. The variants are ordered
/// roughly by lifecycle: reconfiguration, crash/recovery, fault injection.
/// Which stack stamps which variant is pinned, on real runs, by
/// `crates/harness/tests/ctrl_observability.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CtrlMilestone {
    /// A reconfiguration was initiated (`reconfigure()` entered; the
    /// initiator asked the configuration service for the latest epoch).
    /// [`CtrlEvent::detail`] = the epoch the initiator currently holds.
    ReconfigInitiated,
    /// The probe phase started: `PROBE` messages were sent to the members of
    /// every shard being reconfigured. [`CtrlEvent::detail`] = the candidate
    /// new epoch.
    ProbeStarted,
    /// The probe grace timer was armed: the new epoch is viable, but the
    /// initiator briefly waits for stragglers so warm replicas are preferred
    /// over spares. [`CtrlEvent::detail`] = the candidate new epoch.
    ProbeGrace,
    /// The new configuration was chosen: the initiator won the configuration
    /// service CAS. [`CtrlEvent::detail`] = the new epoch.
    ConfigChosen,
    /// A follower installed the transferred state (`NEW_STATE`) of the new
    /// configuration. [`CtrlEvent::detail`] = the new epoch.
    StateTransferred,
    /// A leader activated the new configuration (`NEW_CONFIG`): the shard is
    /// operational in the new epoch. [`CtrlEvent::detail`] = the new epoch.
    ShardOperational,
    /// The process activating `NEW_CONFIG` was not the shard's previous
    /// leader: leadership moved. [`CtrlEvent::detail`] = the new epoch.
    LeaderHandoff,
    /// The process crashed (lost its volatile state; RDMA permissions
    /// revoked). [`CtrlEvent::detail`] = the incarnation that crashed.
    Crash,
    /// The process restarted with empty volatile state.
    /// [`CtrlEvent::detail`] = the new incarnation.
    Restart,
    /// A restarted process finished catching up (e.g. re-established its
    /// connections or reinstalled state) and serves again.
    Recovered,
    /// The chaos harness injected a fault; [`CtrlEvent::note`] carries the
    /// fault's display form (e.g. `crash-leader(s1)`).
    FaultInjected,
    /// The chaos harness healed its standing faults (partitions, delays).
    FaultHealed,
    /// A coordinator handoff: a stalled transaction was handed to a member
    /// of the current configuration. [`CtrlEvent::detail`] = the raw
    /// transaction id.
    CoordinatorHandoff,
}

impl CtrlMilestone {
    /// `true` for the milestones that *degrade* a shard — the events that can
    /// open an availability window (see [`blackouts`]): a crash of one of its
    /// members, a reconfiguration touching it, or an injected fault.
    pub fn degrades(self) -> bool {
        matches!(
            self,
            CtrlMilestone::ReconfigInitiated | CtrlMilestone::Crash | CtrlMilestone::FaultInjected
        )
    }

    /// The stable string used in JSON keys and report rows.
    pub fn as_str(self) -> &'static str {
        match self {
            CtrlMilestone::ReconfigInitiated => "reconfig-initiated",
            CtrlMilestone::ProbeStarted => "probe-started",
            CtrlMilestone::ProbeGrace => "probe-grace",
            CtrlMilestone::ConfigChosen => "config-chosen",
            CtrlMilestone::StateTransferred => "state-transferred",
            CtrlMilestone::ShardOperational => "shard-operational",
            CtrlMilestone::LeaderHandoff => "leader-handoff",
            CtrlMilestone::Crash => "crash",
            CtrlMilestone::Restart => "restart",
            CtrlMilestone::Recovered => "recovered",
            CtrlMilestone::FaultInjected => "fault-injected",
            CtrlMilestone::FaultHealed => "fault-healed",
            CtrlMilestone::CoordinatorHandoff => "coordinator-handoff",
        }
    }
}

impl fmt::Display for CtrlMilestone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One timestamped control-plane observation, as appended by a recorder.
///
/// Unlike [`TxObsEvent`] this is not `Copy`: the optional [`CtrlEvent::note`]
/// carries free-form context (the chaos harness stores the injected fault's
/// display form there). Protocol-stamped events leave it empty, which does
/// not allocate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtrlEvent {
    /// Microseconds since the recorder's time origin (see
    /// [`crate::LatencyUnit`]).
    pub at_micros: u64,
    /// The process that observed the milestone (the harness itself stamps
    /// with the process it acted on).
    pub by: ProcessId,
    /// Which milestone was observed.
    pub milestone: CtrlMilestone,
    /// The shard the milestone concerns, when the observer knows it. Events
    /// stamped by the substrate (crash/restart) leave this `None`; the
    /// harness layer re-attributes them from the roster.
    pub shard: Option<ShardId>,
    /// Milestone-specific detail (see each [`CtrlMilestone`] variant).
    pub detail: u64,
    /// Free-form context; empty for protocol-stamped events.
    pub note: String,
}

impl fmt::Display for CtrlEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "+{}us {}@{}", self.at_micros, self.milestone, self.by)?;
        if let Some(shard) = self.shard {
            write!(f, "({shard})")?;
        }
        if !self.note.is_empty() {
            write!(f, " [{}]", self.note)?;
        }
        Ok(())
    }
}

/// One per-shard availability window, computed by [`blackouts`].
///
/// The window opens at the first [degrading](CtrlMilestone::degrades) event
/// touching the shard and closes at the first transaction *decided* on the
/// shard strictly after the last degrading event inside the window. A window
/// that never closes (`end_micros == None`) means the shard never decided
/// another transaction in the observed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Blackout {
    /// The shard that went dark.
    pub shard: ShardId,
    /// When the first degrading event hit the shard.
    pub start_micros: u64,
    /// When the last degrading event inside this window hit the shard
    /// (equal to `start_micros` for a single-event window).
    pub last_degrade_micros: u64,
    /// When the first post-event transaction was decided on the shard, if
    /// any.
    pub end_micros: Option<u64>,
    /// The milestone that opened the window.
    pub cause: CtrlMilestone,
}

impl Blackout {
    /// The blackout duration (`end − start`), if the window closed.
    pub fn duration_micros(&self) -> Option<u64> {
        self.end_micros.map(|end| end - self.start_micros)
    }

    /// Time from the *last* degrading event to recovery — how long the
    /// protocol took to recover once the environment stopped misbehaving.
    pub fn time_to_recover_micros(&self) -> Option<u64> {
        self.end_micros.map(|end| end - self.last_degrade_micros)
    }
}

impl fmt::Display for Blackout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.end_micros {
            Some(end) => write!(
                f,
                "{}: [{}us, {}us] ({}us, cause {})",
                self.shard,
                self.start_micros,
                end,
                end - self.start_micros,
                self.cause
            ),
            None => write!(
                f,
                "{}: [{}us, …] (unrecovered, cause {})",
                self.shard, self.start_micros, self.cause
            ),
        }
    }
}

/// Extracts, from a commit-path event stream, the times at which
/// transactions were *decided on each shard*: a transaction counts for every
/// shard that voted on it ([`TxMilestone::ShardVoted`] detail), at its first
/// [`TxMilestone::Decided`] timestamp. Returned per-shard lists are sorted.
pub fn decided_times_per_shard(events: &[TxObsEvent]) -> BTreeMap<ShardId, Vec<u64>> {
    let mut shards_of: BTreeMap<TxId, Vec<ShardId>> = BTreeMap::new();
    let mut decided_at: BTreeMap<TxId, u64> = BTreeMap::new();
    for event in events {
        #[expect(
            clippy::wildcard_enum_match_arm,
            reason = "per-shard decision times read only the votes and the decisions"
        )]
        match event.milestone {
            TxMilestone::ShardVoted => {
                let shard = ShardId::new(event.detail as u32);
                let shards = shards_of.entry(event.tx).or_default();
                if !shards.contains(&shard) {
                    shards.push(shard);
                }
            }
            TxMilestone::Decided => {
                let at = decided_at.entry(event.tx).or_insert(event.at_micros);
                *at = (*at).min(event.at_micros);
            }
            _ => {}
        }
    }
    let mut per_shard: BTreeMap<ShardId, Vec<u64>> = BTreeMap::new();
    for (tx, at) in decided_at {
        for shard in shards_of.get(&tx).map(Vec::as_slice).unwrap_or(&[]) {
            per_shard.entry(*shard).or_default().push(at);
        }
    }
    for times in per_shard.values_mut() {
        times.sort_unstable();
    }
    per_shard
}

/// Computes per-shard availability windows from a control-plane stream and
/// the per-shard decided-transaction times (see [`decided_times_per_shard`]).
///
/// Only events with a known [`CtrlEvent::shard`] participate; the harness
/// layer attributes shard-less substrate events (crashes) from its roster
/// before calling this. A degrading event while a window is already open
/// *extends* it (recovery is measured from the last degradation); a decided
/// transaction strictly after the last degradation closes the window.
/// Windows are returned sorted by (shard, start).
pub fn blackouts(ctrl: &[CtrlEvent], decided: &BTreeMap<ShardId, Vec<u64>>) -> Vec<Blackout> {
    // Group degrading events per shard, in time order.
    let mut degrades: BTreeMap<ShardId, Vec<&CtrlEvent>> = BTreeMap::new();
    for event in ctrl {
        if let Some(shard) = event.shard {
            if event.milestone.degrades() {
                degrades.entry(shard).or_default().push(event);
            }
        }
    }
    let empty: Vec<u64> = Vec::new();
    let mut out = Vec::new();
    for (shard, mut events) in degrades {
        events.sort_by_key(|e| e.at_micros);
        let decided = decided.get(&shard).unwrap_or(&empty);
        // First decided time strictly after `t`, if any.
        let close_after = |t: u64| -> Option<u64> {
            let i = decided.partition_point(|&d| d <= t);
            decided.get(i).copied()
        };
        let mut open: Option<Blackout> = None;
        for event in events {
            match open.as_mut() {
                None => {
                    open = Some(Blackout {
                        shard,
                        start_micros: event.at_micros,
                        last_degrade_micros: event.at_micros,
                        end_micros: None,
                        cause: event.milestone,
                    });
                }
                Some(window) => {
                    match close_after(window.last_degrade_micros) {
                        // The shard recovered before this event: close the
                        // window and open a fresh one.
                        Some(end) if end <= event.at_micros => {
                            window.end_micros = Some(end);
                            out.push(open.take().expect("open window"));
                            open = Some(Blackout {
                                shard,
                                start_micros: event.at_micros,
                                last_degrade_micros: event.at_micros,
                                end_micros: None,
                                cause: event.milestone,
                            });
                        }
                        // Still dark: the new degradation extends the window.
                        _ => window.last_degrade_micros = event.at_micros,
                    }
                }
            }
        }
        if let Some(mut window) = open {
            window.end_micros = close_after(window.last_degrade_micros);
            out.push(window);
        }
    }
    out.sort_by_key(|b| (b.shard, b.start_micros));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctrl(at: u64, milestone: CtrlMilestone, shard: Option<u32>) -> CtrlEvent {
        CtrlEvent {
            at_micros: at,
            by: ProcessId::new(7),
            milestone,
            shard: shard.map(ShardId::new),
            detail: 0,
            note: String::new(),
        }
    }

    fn tx_ev(tx: u64, at: u64, milestone: TxMilestone, detail: u64) -> TxObsEvent {
        TxObsEvent {
            tx: TxId::new(tx),
            at_micros: at,
            by: ProcessId::new(7),
            milestone,
            detail,
        }
    }

    #[test]
    fn degrading_milestones_are_exactly_the_window_openers() {
        for m in [
            CtrlMilestone::ReconfigInitiated,
            CtrlMilestone::Crash,
            CtrlMilestone::FaultInjected,
        ] {
            assert!(m.degrades(), "{m}");
        }
        for m in [
            CtrlMilestone::ProbeStarted,
            CtrlMilestone::ProbeGrace,
            CtrlMilestone::ConfigChosen,
            CtrlMilestone::StateTransferred,
            CtrlMilestone::ShardOperational,
            CtrlMilestone::LeaderHandoff,
            CtrlMilestone::Restart,
            CtrlMilestone::Recovered,
            CtrlMilestone::FaultHealed,
            CtrlMilestone::CoordinatorHandoff,
        ] {
            assert!(!m.degrades(), "{m}");
        }
    }

    #[test]
    fn decided_times_attribute_a_tx_to_every_voting_shard() {
        let events = vec![
            tx_ev(1, 10, TxMilestone::ShardVoted, 0),
            tx_ev(1, 12, TxMilestone::ShardVoted, 1),
            tx_ev(1, 20, TxMilestone::Decided, 0),
            tx_ev(2, 30, TxMilestone::ShardVoted, 1),
            tx_ev(2, 40, TxMilestone::Decided, 0),
            // Duplicate decide (e.g. log-replayed): first one counts.
            tx_ev(2, 55, TxMilestone::Decided, 0),
        ];
        let per_shard = decided_times_per_shard(&events);
        assert_eq!(per_shard[&ShardId::new(0)], vec![20]);
        assert_eq!(per_shard[&ShardId::new(1)], vec![20, 40]);
    }

    #[test]
    fn blackout_opens_at_degrade_and_closes_at_first_later_decide() {
        let ctrl_events = vec![ctrl(100, CtrlMilestone::Crash, Some(0))];
        let mut decided = BTreeMap::new();
        decided.insert(ShardId::new(0), vec![50, 90, 340]);
        let windows = blackouts(&ctrl_events, &decided);
        assert_eq!(windows.len(), 1);
        let w = &windows[0];
        assert_eq!(w.start_micros, 100);
        assert_eq!(w.end_micros, Some(340));
        assert_eq!(w.duration_micros(), Some(240));
        assert_eq!(w.cause, CtrlMilestone::Crash);
    }

    #[test]
    fn consecutive_degrades_extend_one_window() {
        let ctrl_events = vec![
            ctrl(100, CtrlMilestone::Crash, Some(2)),
            ctrl(150, CtrlMilestone::ReconfigInitiated, Some(2)),
        ];
        let mut decided = BTreeMap::new();
        // No decide between the two degrades: a single window.
        decided.insert(ShardId::new(2), vec![80, 400]);
        let windows = blackouts(&ctrl_events, &decided);
        assert_eq!(windows.len(), 1);
        let w = &windows[0];
        assert_eq!(w.start_micros, 100);
        assert_eq!(w.last_degrade_micros, 150);
        assert_eq!(w.end_micros, Some(400));
        assert_eq!(w.duration_micros(), Some(300));
        assert_eq!(w.time_to_recover_micros(), Some(250));
        assert_eq!(w.cause, CtrlMilestone::Crash);
    }

    #[test]
    fn a_decide_between_degrades_splits_the_windows() {
        let ctrl_events = vec![
            ctrl(100, CtrlMilestone::Crash, Some(1)),
            ctrl(300, CtrlMilestone::FaultInjected, Some(1)),
        ];
        let mut decided = BTreeMap::new();
        decided.insert(ShardId::new(1), vec![200, 500]);
        let windows = blackouts(&ctrl_events, &decided);
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].start_micros, 100);
        assert_eq!(windows[0].end_micros, Some(200));
        assert_eq!(windows[1].start_micros, 300);
        assert_eq!(windows[1].end_micros, Some(500));
        assert_eq!(windows[1].cause, CtrlMilestone::FaultInjected);
    }

    #[test]
    fn unrecovered_shard_yields_an_open_window() {
        let ctrl_events = vec![ctrl(100, CtrlMilestone::Crash, Some(3))];
        let windows = blackouts(&ctrl_events, &BTreeMap::new());
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].end_micros, None);
        assert_eq!(windows[0].duration_micros(), None);
        assert!(windows[0].to_string().contains("unrecovered"));
    }

    #[test]
    fn shardless_and_nondegrading_events_open_nothing() {
        let ctrl_events = vec![
            ctrl(10, CtrlMilestone::Crash, None),
            ctrl(20, CtrlMilestone::ProbeStarted, Some(0)),
            ctrl(30, CtrlMilestone::Restart, Some(0)),
        ];
        let mut decided = BTreeMap::new();
        decided.insert(ShardId::new(0), vec![100]);
        assert!(blackouts(&ctrl_events, &decided).is_empty());
    }

    #[test]
    fn a_decide_at_the_same_instant_does_not_close_the_window() {
        let ctrl_events = vec![ctrl(100, CtrlMilestone::Crash, Some(0))];
        let mut decided = BTreeMap::new();
        decided.insert(ShardId::new(0), vec![100, 180]);
        let windows = blackouts(&ctrl_events, &decided);
        assert_eq!(windows[0].end_micros, Some(180));
    }

    #[test]
    fn display_formats_are_stable() {
        assert_eq!(CtrlMilestone::ConfigChosen.to_string(), "config-chosen");
        assert_eq!(CtrlMilestone::FaultInjected.to_string(), "fault-injected");
        let mut event = ctrl(40, CtrlMilestone::Crash, Some(1));
        event.note = "crash-leader(s1)".to_owned();
        let text = event.to_string();
        assert!(text.contains("+40us crash@p7(s1)"), "{text}");
        assert!(text.contains("[crash-leader(s1)]"), "{text}");
    }
}
