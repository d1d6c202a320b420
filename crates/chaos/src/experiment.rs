//! E9: availability under fault injection — throughput and recovery time vs.
//! fault intensity, for all three stacks. E12: the time-to-recover matrix —
//! per-shard availability windows (blackouts) under four canonical
//! degradations, derived from the control-plane event stream.

use std::fmt;

use ratc_sim::{Blackout, CtrlEvent};
use ratc_types::ShardId;

use crate::driver::{run_soak, SoakConfig, SoakReport};
use crate::harness::{build_harness, Stack};
use crate::nemesis::{Nemesis, NemesisConfig, Profile};
use crate::plan::{FaultEvent, FaultPlan, TimedFault};

/// Result of one E9 cell: one stack at one fault intensity.
#[derive(Debug, Clone)]
pub struct AvailabilityResult {
    /// The stack measured.
    pub stack: Stack,
    /// Fault intensity in `[0, 100]` (scales noise and event count).
    pub intensity: u8,
    /// Transactions submitted.
    pub submitted: usize,
    /// Transactions committed.
    pub committed: usize,
    /// Commit throughput during the fault window, in commits per simulated
    /// millisecond.
    pub commits_per_milli: f64,
    /// Simulated recovery time after faults lift, in microseconds.
    pub recovery_micros: u64,
    /// Total simulated time shards spent dark, in microseconds: the sum of
    /// every closed per-shard availability window (first degrading
    /// control-plane event → first decision after the last one).
    pub blackout_micros: u64,
    /// Worst-case time-to-recover across closed availability windows, in
    /// microseconds: from a window's last degrading event to the first
    /// decision that closed it. `0` when no window closed.
    pub time_to_recover_micros: u64,
    /// Messages delivered per decided transaction, per message type
    /// (`(label, msgs/tx)`, sorted by label). Empty when nothing decided.
    pub msgs_per_tx: Vec<(String, f64)>,
    /// Whether the run was safe and live.
    pub ok: bool,
}

impl fmt::Display for AvailabilityResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<12} intensity={:<3} committed={:>3}/{:<3} throughput={:>6.2}/ms \
             recovery={:>7}us blackout={:>7}us ttr={:>7}us ok={}",
            self.stack.to_string(),
            self.intensity,
            self.committed,
            self.submitted,
            self.commits_per_milli,
            self.recovery_micros,
            self.blackout_micros,
            self.time_to_recover_micros,
            self.ok
        )
    }
}

/// Runs one E9 cell: a fixed-seed soak of `stack` at `intensity`.
pub fn availability_experiment(stack: Stack, intensity: u8, seed: u64) -> AvailabilityResult {
    let soak = SoakConfig {
        seed,
        txs: 60,
        keys: 96,
        keys_per_tx: 2,
        interval_micros: 700,
        recovery_rounds: 12,
    };
    let nemesis = NemesisConfig {
        seed,
        shards: 2,
        members_per_shard: 2,
        window_micros: soak.txs as u64 * soak.interval_micros,
        events: 2 + (usize::from(intensity) / 12),
        intensity,
        profile: Profile::Default,
    };
    let plan = Nemesis::generate(&nemesis);
    let mut harness = build_harness(stack, 2, seed, None);
    let report: SoakReport = run_soak(&mut harness, &soak, &plan);
    let window_millis = (nemesis.window_micros as f64 / 1_000.0).max(f64::EPSILON);
    // Availability windows come from the control-plane event stream the soak
    // recorded (observability is on for every chaos harness).
    let blackouts = harness.blackouts();
    let blackout_micros = blackouts.iter().filter_map(|b| b.duration_micros()).sum();
    let time_to_recover_micros = blackouts
        .iter()
        .filter_map(|b| b.time_to_recover_micros())
        .max()
        .unwrap_or(0);
    let decided = report.decided;
    let msgs_per_tx = if decided == 0 {
        Vec::new()
    } else {
        harness
            .cluster()
            .metrics()
            .msg_type_counters()
            .map(|(label, counters)| (label.to_owned(), counters.delivered as f64 / decided as f64))
            .collect()
    };
    AvailabilityResult {
        stack,
        intensity,
        submitted: report.submitted,
        committed: report.committed,
        commits_per_milli: report.committed as f64 / window_millis,
        recovery_micros: report.recovery_micros,
        blackout_micros,
        time_to_recover_micros,
        msgs_per_tx,
        ok: report.ok(),
    }
}

// ---------------------------------------------------------------------------
// E12 (blackout): time-to-recover matrix from the control-plane stream
// ---------------------------------------------------------------------------

/// One canonical degradation of the E12 blackout matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlackoutScenario {
    /// Crash the leader of shard 0 mid-stream (restarted when faults lift).
    LeaderCrash,
    /// Initiate a per-shard reconfiguration of shard 0 mid-stream (a no-op
    /// on stacks without reconfiguration).
    ShardReconfig,
    /// Initiate a global reconfiguration mid-stream (per-shard stacks
    /// reconfigure every shard).
    GlobalReconfig,
    /// Partition the leader of shard 0 away from everyone, then heal the
    /// partition 10 simulated milliseconds later.
    PartitionHeal,
}

impl BlackoutScenario {
    /// Every scenario of the matrix, in reporting order.
    pub const ALL: [BlackoutScenario; 4] = [
        BlackoutScenario::LeaderCrash,
        BlackoutScenario::ShardReconfig,
        BlackoutScenario::GlobalReconfig,
        BlackoutScenario::PartitionHeal,
    ];

    /// Stable kebab-case label (used in tables and JSON rows).
    pub fn as_str(&self) -> &'static str {
        match self {
            BlackoutScenario::LeaderCrash => "leader-crash",
            BlackoutScenario::ShardReconfig => "shard-reconfig",
            BlackoutScenario::GlobalReconfig => "global-reconfig",
            BlackoutScenario::PartitionHeal => "partition-heal",
        }
    }
}

impl fmt::Display for BlackoutScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Result of one E12 cell: one stack under one scenario.
#[derive(Debug, Clone)]
pub struct BlackoutResult {
    /// The stack measured.
    pub stack: Stack,
    /// The degradation injected.
    pub scenario: BlackoutScenario,
    /// Transactions submitted.
    pub submitted: usize,
    /// Transactions committed.
    pub committed: usize,
    /// Total simulated time shards spent dark (sum of closed availability
    /// windows), in microseconds.
    pub blackout_micros: u64,
    /// Worst-case time-to-recover across closed windows (last degrading
    /// event → first decision after it), in microseconds.
    pub time_to_recover_micros: u64,
    /// Availability windows observed (closed + unclosed).
    pub windows: usize,
    /// Windows never closed by a post-degradation decision. `0` in a
    /// recovered run with per-shard traffic after the fault.
    pub unclosed_windows: usize,
    /// Control-plane events recorded (faults + protocol milestones).
    pub ctrl_events: usize,
    /// Messages delivered per decided transaction, per message type
    /// (`(label, msgs/tx)`, sorted by label).
    pub msgs_per_tx: Vec<(String, f64)>,
    /// Whether the run was safe and live.
    pub ok: bool,
}

impl fmt::Display for BlackoutResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<12} {:<16} committed={:>3}/{:<3} blackout={:>7}us ttr={:>7}us \
             windows={:<2} ctrl_events={:<3} ok={}",
            self.stack.to_string(),
            self.scenario.to_string(),
            self.committed,
            self.submitted,
            self.blackout_micros,
            self.time_to_recover_micros,
            self.windows,
            self.ctrl_events,
            self.ok
        )
    }
}

/// The fault plan of one E12 scenario: a single degradation injected at
/// `at_micros` (plus its paired heal, for [`BlackoutScenario::PartitionHeal`]).
fn blackout_plan(scenario: BlackoutScenario, at_micros: u64) -> FaultPlan {
    let shard = ShardId::new(0);
    let events = match scenario {
        BlackoutScenario::LeaderCrash => vec![TimedFault {
            at_micros,
            event: FaultEvent::CrashLeader { shard },
        }],
        BlackoutScenario::ShardReconfig => vec![TimedFault {
            at_micros,
            event: FaultEvent::Reconfigure { shard },
        }],
        BlackoutScenario::GlobalReconfig => vec![TimedFault {
            at_micros,
            event: FaultEvent::GlobalReconfigure,
        }],
        BlackoutScenario::PartitionHeal => vec![
            TimedFault {
                at_micros,
                event: FaultEvent::PartitionLeader { shard },
            },
            TimedFault {
                at_micros: at_micros + 10_000,
                event: FaultEvent::HealFaults,
            },
        ],
    };
    FaultPlan {
        noise: None,
        events,
    }
}

/// Runs one E12 cell: a fixed-seed paced workload on `stack` with a single
/// `scenario` degradation injected a third of the way through, healed and
/// recovered by the soak driver. Availability windows, time-to-recover and
/// the control-plane event count all come from the cluster's control-plane
/// observability stream; the raw stream and windows are returned alongside
/// the summary for exporters and span-bracketing checks.
pub fn blackout_experiment(
    stack: Stack,
    scenario: BlackoutScenario,
    seed: u64,
) -> (BlackoutResult, Vec<CtrlEvent>, Vec<Blackout>) {
    let soak = SoakConfig {
        seed,
        txs: 60,
        keys: 96,
        keys_per_tx: 2,
        interval_micros: 700,
        recovery_rounds: 12,
    };
    let window_micros = soak.txs as u64 * soak.interval_micros;
    let plan = blackout_plan(scenario, window_micros / 3);
    let mut harness = build_harness(stack, 2, seed, None);
    let report: SoakReport = run_soak(&mut harness, &soak, &plan);
    let ctrl = harness.ctrl_events();
    let blackouts = harness.blackouts();
    let blackout_micros = blackouts.iter().filter_map(|b| b.duration_micros()).sum();
    let time_to_recover_micros = blackouts
        .iter()
        .filter_map(|b| b.time_to_recover_micros())
        .max()
        .unwrap_or(0);
    let unclosed_windows = blackouts.iter().filter(|b| b.end_micros.is_none()).count();
    let decided = report.decided;
    let msgs_per_tx = if decided == 0 {
        Vec::new()
    } else {
        harness
            .cluster()
            .metrics()
            .msg_type_counters()
            .map(|(label, counters)| (label.to_owned(), counters.delivered as f64 / decided as f64))
            .collect()
    };
    let result = BlackoutResult {
        stack,
        scenario,
        submitted: report.submitted,
        committed: report.committed,
        blackout_micros,
        time_to_recover_micros,
        windows: blackouts.len(),
        unclosed_windows,
        ctrl_events: ctrl.len(),
        msgs_per_tx,
        ok: report.ok(),
    };
    (result, ctrl, blackouts)
}
