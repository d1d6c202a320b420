//! E9 and E12, cell by cell: every soak decides all 60 of its transactions
//! (those not committed aborted, none was lost), and each cell's commits,
//! recovery time, availability windows and control-plane event count are
//! pinned exactly. Every E12 window also nests inside its enclosing
//! fault→heal span of the merged control-plane event log.

use ratc_chaos::{
    availability_experiment, blackout_experiment, AvailabilityResult, BlackoutScenario, Stack,
};
use ratc_sim::CtrlMilestone;

/// A recovered cell: all 60 transactions decided, every window closed, the
/// run safe and live. `pinned` is (committed, recovery µs, blackout µs,
/// time-to-recover µs, windows, control-plane events).
fn recovered(pinned: (usize, u64, u64, u64, usize, usize)) -> AvailabilityResult {
    let (committed, recovery_micros, blackout_micros, time_to_recover_micros, windows, ctrl_events) =
        pinned;
    AvailabilityResult {
        submitted: 60,
        decided: 60,
        committed,
        recovery_micros,
        blackout_micros,
        time_to_recover_micros,
        windows,
        unclosed_windows: 0,
        ctrl_events,
        ok: true,
    }
}

/// Throughput degrades gracefully with fault intensity, every run stays
/// safe, and every submitted transaction is decided once faults lift.
#[test]
fn e9_availability_under_the_nemesis() {
    let expected = [
        (
            Stack::Core,
            [
                (29, 100_000, 30_696, 30_696, 1, 7),
                (29, 225_000, 26_443, 14_658, 2, 10),
                (27, 200_000, 25_358, 13_577, 3, 14),
                (28, 5_175_000, 5_040_358, 13_900, 3, 24),
                (25, 225_000, 49_992, 13_589, 5, 24),
            ],
        ),
        (
            Stack::Rdma,
            [
                (28, 100_000, 30_018, 30_018, 1, 80),
                (27, 200_000, 28_030, 16_307, 2, 85),
                (27, 175_000, 39_928, 13_659, 2, 80),
                (28, 5_175_000, 10_041_019, 1_327, 3, 69),
                (28, 5_175_000, 10_075_318, 628, 2, 75),
            ],
        ),
        (
            Stack::Baseline,
            [
                (29, 75_000, 1_264, 1_264, 1, 7),
                (28, 175_000, 16_384, 11_152, 2, 11),
                (27, 150_000, 173_405, 88_139, 2, 16),
                (28, 150_000, 176_163, 88_122, 2, 19),
                (25, 200_000, 303_514, 138_137, 2, 23),
            ],
        ),
    ];
    for (stack, cells) in expected {
        for (intensity, pinned) in [0, 20, 40, 60, 80].into_iter().zip(cells) {
            assert_eq!(
                availability_experiment(stack, intensity),
                recovered(pinned),
                "{stack:?} at intensity {intensity}"
            );
        }
    }
}

/// Every E12 cell recovers with its pinned matrix row, and each closed
/// window is bracketed by the merged control-plane stream: it opens at a
/// degrading milestone no earlier than the injected fault, stops degrading
/// before it closes, and closes before the soak's final `recovered` marker —
/// i.e. the window nests inside the fault→heal span. The baseline masks a
/// leader crash in 77 µs; the RATC stacks reconfigure for ≈ 28–30 ms, but a
/// planned reconfiguration darkens a shard for under a millisecond.
#[test]
fn blackout_windows_nest_inside_their_fault_heal_span() {
    // Per stack, one row per `BlackoutScenario::ALL` entry: leader crash,
    // shard reconfiguration, global reconfiguration, partition + heal.
    let expected = [
        (
            Stack::Core,
            [
                (28, 150_000, 27_886, 27_886, 1, 5),
                (29, 75_000, 895, 895, 1, 8),
                (29, 75_000, 1_684, 902, 2, 14),
                (29, 100_000, 10_255, 10_255, 1, 4),
            ],
        ),
        (
            Stack::Rdma,
            [
                (26, 225_000, 29_532, 29_532, 1, 70),
                (28, 75_000, 826, 826, 1, 83),
                (28, 75_000, 826, 826, 1, 83),
                (28, 200_000, 11_141, 11_141, 1, 66),
            ],
        ),
        (
            Stack::Baseline,
            [
                (28, 150_000, 77, 77, 1, 6),
                (29, 75_000, 0, 0, 0, 2),
                (29, 75_000, 0, 0, 0, 2),
                (28, 100_000, 77, 77, 1, 4),
            ],
        ),
    ];
    for (stack, cells) in expected {
        for (scenario, pinned) in BlackoutScenario::ALL.into_iter().zip(cells) {
            let (result, ctrl, blackouts) = blackout_experiment(stack, scenario);
            assert_eq!(result, recovered(pinned), "{stack:?} {scenario:?}");

            let first_fault = ctrl
                .iter()
                .filter(|e| e.milestone.degrades())
                .map(|e| e.at_micros)
                .min();
            let healed = ctrl
                .iter()
                .filter(|e| e.milestone == CtrlMilestone::Recovered)
                .map(|e| e.at_micros)
                .max();
            assert!(
                healed.is_some(),
                "{stack:?} {scenario:?}: soak never stamped recovery"
            );

            for blackout in &blackouts {
                assert!(
                    ctrl.iter().any(|e| e.at_micros == blackout.start_micros
                        && e.milestone == blackout.cause
                        && e.milestone.degrades()),
                    "{stack:?} {scenario:?}: window start {} not anchored to a \
                     degrading ctrl event",
                    blackout.start_micros
                );
                assert!(
                    Some(blackout.start_micros) >= first_fault,
                    "{stack:?} {scenario:?}: window precedes the injected fault"
                );
                let end = blackout
                    .end_micros
                    .expect("all windows closed (asserted above)");
                assert!(
                    end > blackout.last_degrade_micros,
                    "{stack:?} {scenario:?}: window closed while still degrading"
                );
                assert!(
                    Some(end) <= healed,
                    "{stack:?} {scenario:?}: window outlives the heal marker \
                     (end={end}, healed={healed:?})"
                );
            }
        }
    }
}
