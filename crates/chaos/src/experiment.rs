//! E9: availability under fault injection — commits and recovery time vs.
//! fault intensity, for all three stacks. E12: the time-to-recover matrix —
//! per-shard availability windows (blackouts) under four canonical
//! degradations, derived from the control-plane event stream. Both run one
//! soak of the same paced workload (seed 42) and differ only in the fault
//! plan; `tests/blackout.rs` pins every cell.

use ratc_harness::StackKind;
use ratc_sim::{Blackout, CtrlEvent};
use ratc_types::ShardId;

use crate::driver::{run_soak, SoakConfig};
use crate::harness::build_harness;
use crate::nemesis::{Nemesis, NemesisConfig, Profile};
use crate::plan::{FaultEvent, FaultPlan, TimedFault};

const SEED: u64 = 42;

/// The paced workload of every cell: 60 two-key transactions over 96 keys,
/// one per 700 µs.
const SOAK: SoakConfig = SoakConfig {
    seed: SEED,
    txs: 60,
    keys: 96,
    keys_per_tx: 2,
    interval_micros: 700,
    recovery_rounds: 12,
};

/// Result of one E9 or E12 cell: one stack under one fault plan.
#[derive(Debug, Clone, PartialEq)]
pub struct AvailabilityResult {
    /// Transactions submitted.
    pub submitted: usize,
    /// Transactions decided by the end of recovery (committed or aborted).
    pub decided: usize,
    /// Transactions committed.
    pub committed: usize,
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
    /// Availability windows observed (closed + unclosed).
    pub windows: usize,
    /// Windows never closed by a post-degradation decision. `0` in a
    /// recovered run with per-shard traffic after the fault.
    pub unclosed_windows: usize,
    /// Control-plane events recorded (faults + protocol milestones).
    pub ctrl_events: usize,
    /// Whether the run was safe and live.
    pub ok: bool,
}

/// Soaks `stack` under `plan` and summarises the run; the raw control-plane
/// stream and its windows are returned alongside for span-bracketing checks.
fn soak_cell(
    stack: StackKind,
    plan: &FaultPlan,
) -> (AvailabilityResult, Vec<CtrlEvent>, Vec<Blackout>) {
    let mut harness = build_harness(stack, 2, SEED, None);
    let report = run_soak(&mut harness, &SOAK, plan);
    // Availability windows come from the control-plane event stream the soak
    // recorded (observability is on for every chaos harness).
    let ctrl = harness.ctrl_events();
    let blackouts = harness.blackouts();
    let result = AvailabilityResult {
        submitted: report.submitted,
        decided: report.decided,
        committed: report.committed,
        recovery_micros: report.recovery_micros,
        blackout_micros: blackouts.iter().filter_map(|b| b.duration_micros()).sum(),
        time_to_recover_micros: blackouts
            .iter()
            .filter_map(|b| b.time_to_recover_micros())
            .max()
            .unwrap_or(0),
        windows: blackouts.len(),
        unclosed_windows: blackouts.iter().filter(|b| b.end_micros.is_none()).count(),
        ctrl_events: ctrl.len(),
        ok: report.ok(),
    };
    (result, ctrl, blackouts)
}

/// Runs one E9 cell: `stack` under the seed-driven nemesis at `intensity`
/// (in `[0, 100]`, scaling noise and event count).
pub fn availability_experiment(stack: StackKind, intensity: u8) -> AvailabilityResult {
    let plan = Nemesis::generate(&NemesisConfig {
        seed: SEED,
        shards: 2,
        members_per_shard: 2,
        window_micros: SOAK.txs as u64 * SOAK.interval_micros,
        events: 2 + (usize::from(intensity) / 12),
        intensity,
        profile: Profile::Default,
    });
    soak_cell(stack, &plan).0
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
}

/// Runs one E12 cell: `stack` with a single `scenario` degradation injected
/// a third of the way through the workload, healed and recovered by the
/// soak driver. Returns the summary with the raw control-plane stream and
/// availability windows it was derived from.
pub fn blackout_experiment(
    stack: StackKind,
    scenario: BlackoutScenario,
) -> (AvailabilityResult, Vec<CtrlEvent>, Vec<Blackout>) {
    let shard = ShardId::new(0);
    let at_micros = SOAK.txs as u64 * SOAK.interval_micros / 3;
    let fault = |event| TimedFault { at_micros, event };
    let events = match scenario {
        BlackoutScenario::LeaderCrash => vec![fault(FaultEvent::CrashLeader { shard })],
        BlackoutScenario::ShardReconfig => vec![fault(FaultEvent::Reconfigure { shard })],
        BlackoutScenario::GlobalReconfig => vec![fault(FaultEvent::GlobalReconfigure)],
        BlackoutScenario::PartitionHeal => vec![
            fault(FaultEvent::PartitionLeader { shard }),
            TimedFault {
                at_micros: at_micros + 10_000,
                event: FaultEvent::HealFaults,
            },
        ],
    };
    soak_cell(
        stack,
        &FaultPlan {
            noise: None,
            events,
        },
    )
}
