//! Per-link fault injection: drops, duplicates, delays, cuts and partitions.
//!
//! The paper's model assumes reliable FIFO channels between correct processes
//! (§3); real networks deliver weaker guarantees, and the protocols recover
//! through retries, re-acks and reconfiguration. This module lets a test or a
//! chaos nemesis weaken individual links (or the whole fabric) in a seeded,
//! deterministic way:
//!
//! * **probabilistic faults** ([`LinkFault`]) — per-send probabilities of
//!   dropping, duplicating or delaying a message, configurable per directed
//!   link or as a fabric-wide default, and scoped to the message network, the
//!   RDMA fabric, or both;
// analyze:allow-file(float-state): fault probabilities are f64 by contract;
// every draw compares one sample from the seeded ChaCha stream against a
// constant, which is bit-identical across platforms (no accumulation, no
// platform-dependent rounding feeding back into protocol state).
//! * **asymmetric cuts** — a [`LinkFault`] with `drop = 1.0` on one direction
//!   only (see [`LinkFault::cut`]);
//! * **named partitions** — groups of processes such that traffic between
//!   different groups of the same partition is dropped until the partition is
//!   healed;
//! * **exempt processes** — the measurement apparatus (the history-recording
//!   client) is not a protocol participant; harnesses mark it exempt so the
//!   observed history is complete and violations cannot hide behind dropped
//!   deliveries.
//!
//! Faults are applied when a message is *scheduled* (sent), not when it is
//! delivered: traffic already in flight when a partition is installed still
//! arrives, exactly like packets already on the wire. Delayed messages do not
//! advance the per-channel FIFO floor, so later sends may overtake them —
//! delay doubles as reordering. A world with no faults configured consumes no
//! randomness for fault decisions, so fault-free runs are bit-identical to
//! runs of a simulator without this module.

use std::collections::{BTreeMap, BTreeSet};

use rand::Rng;
use rand_chacha::ChaCha12Rng;
use ratc_types::ProcessId;

use crate::time::SimDuration;

/// Which transport a [`LinkFault`] applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultScope {
    /// Both the message network and the RDMA fabric.
    #[default]
    All,
    /// Only ordinary messages; RDMA writes pass unharmed.
    MessagesOnly,
    /// Only RDMA writes; ordinary messages pass unharmed.
    RdmaOnly,
}

impl FaultScope {
    fn applies(self, is_rdma: bool) -> bool {
        match self {
            FaultScope::All => true,
            FaultScope::MessagesOnly => !is_rdma,
            FaultScope::RdmaOnly => is_rdma,
        }
    }
}

/// Probabilistic fault behaviour of one directed link (or of the whole
/// fabric, when installed as the default).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// Probability in `[0, 1]` that a send is dropped.
    pub drop: f64,
    /// Probability in `[0, 1]` that a send is delivered twice.
    pub duplicate: f64,
    /// Probability in `[0, 1]` that a send is delayed by an extra duration
    /// drawn uniformly from `delay_micros` (delayed sends may be overtaken by
    /// later ones, i.e. delay implies reordering).
    pub delay: f64,
    /// Inclusive range of the extra delay, in microseconds.
    pub delay_micros: (u64, u64),
    /// Which transport the fault applies to.
    pub scope: FaultScope,
}

impl LinkFault {
    /// A fault configuration that never fires.
    pub const fn none() -> Self {
        LinkFault {
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.0,
            delay_micros: (0, 0),
            scope: FaultScope::All,
        }
    }

    /// A full cut of the link in the given scope (every send dropped) — the
    /// building block for asymmetric link failures.
    pub const fn cut(scope: FaultScope) -> Self {
        LinkFault {
            drop: 1.0,
            duplicate: 0.0,
            delay: 0.0,
            delay_micros: (0, 0),
            scope,
        }
    }

    /// A deterministic extra delay of exactly `micros` on every send in the
    /// given scope.
    pub const fn delay_all(micros: u64, scope: FaultScope) -> Self {
        LinkFault {
            drop: 0.0,
            duplicate: 0.0,
            delay: 1.0,
            delay_micros: (micros, micros),
            scope,
        }
    }

    /// Uniform background noise: each probability applied independently, with
    /// extra delays up to `max_delay_micros`.
    pub const fn noise(drop: f64, duplicate: f64, delay: f64, max_delay_micros: u64) -> Self {
        LinkFault {
            drop,
            duplicate,
            delay,
            delay_micros: (0, max_delay_micros),
            scope: FaultScope::All,
        }
    }

    fn is_none(&self) -> bool {
        self.drop <= 0.0 && self.duplicate <= 0.0 && self.delay <= 0.0
    }
}

/// What the fault plane decided about one send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FaultDecision {
    /// The send is dropped entirely.
    pub drop: bool,
    /// The send is delivered a second time (with an independent latency).
    pub duplicate: bool,
    /// Extra delay added after normal latency/FIFO computation, without
    /// advancing the FIFO floor.
    pub extra_delay: Option<SimDuration>,
}

impl FaultDecision {
    pub(crate) const CLEAN: FaultDecision = FaultDecision {
        drop: false,
        duplicate: false,
        extra_delay: None,
    };
}

/// The mutable fault state of a [`World`](crate::world::World).
#[derive(Debug, Default)]
pub(crate) struct FaultPlane {
    default_fault: Option<LinkFault>,
    link_faults: BTreeMap<(ProcessId, ProcessId), LinkFault>,
    partitions: BTreeMap<String, Vec<BTreeSet<ProcessId>>>,
    exempt: BTreeSet<ProcessId>,
}

impl FaultPlane {
    pub(crate) fn set_default(&mut self, fault: Option<LinkFault>) {
        self.default_fault = fault.filter(|f| !f.is_none());
    }

    pub(crate) fn set_link(&mut self, from: ProcessId, to: ProcessId, fault: LinkFault) {
        if fault.is_none() {
            self.link_faults.remove(&(from, to));
        } else {
            self.link_faults.insert((from, to), fault);
        }
    }

    pub(crate) fn install_partition(&mut self, name: &str, groups: Vec<Vec<ProcessId>>) {
        self.partitions.insert(
            name.to_owned(),
            groups
                .into_iter()
                .map(|g| g.into_iter().collect())
                .collect(),
        );
    }

    /// Clears link faults and partitions but keeps the fabric-wide default
    /// (background noise is controlled separately via
    /// [`FaultPlane::set_default`]).
    pub(crate) fn heal_all(&mut self) {
        self.link_faults.clear();
        self.partitions.clear();
    }

    pub(crate) fn mark_exempt(&mut self, pid: ProcessId) {
        self.exempt.insert(pid);
    }

    pub(crate) fn is_active(&self) -> bool {
        self.default_fault.is_some() || !self.link_faults.is_empty() || !self.partitions.is_empty()
    }

    fn partitioned(&self, from: ProcessId, to: ProcessId) -> bool {
        for groups in self.partitions.values() {
            let g_from = groups.iter().position(|g| g.contains(&from));
            let g_to = groups.iter().position(|g| g.contains(&to));
            if let (Some(a), Some(b)) = (g_from, g_to) {
                if a != b {
                    return true;
                }
            }
        }
        false
    }

    /// Decides the fate of one send. Consumes randomness only when a
    /// probabilistic fault is configured for the link.
    pub(crate) fn decide(
        &self,
        from: ProcessId,
        to: ProcessId,
        is_rdma: bool,
        rng: &mut ChaCha12Rng,
    ) -> FaultDecision {
        if !self.is_active() || self.exempt.contains(&from) || self.exempt.contains(&to) {
            return FaultDecision::CLEAN;
        }
        if self.partitioned(from, to) {
            return FaultDecision {
                drop: true,
                duplicate: false,
                extra_delay: None,
            };
        }
        let fault = self
            .link_faults
            .get(&(from, to))
            .or(self.default_fault.as_ref());
        let Some(fault) = fault else {
            return FaultDecision::CLEAN;
        };
        if !fault.scope.applies(is_rdma) {
            return FaultDecision::CLEAN;
        }
        let roll = |rng: &mut ChaCha12Rng, p: f64| -> bool {
            if p >= 1.0 {
                true
            } else if p <= 0.0 {
                false
            } else {
                rng.gen_range(0.0..1.0) < p
            }
        };
        if roll(rng, fault.drop) {
            return FaultDecision {
                drop: true,
                duplicate: false,
                extra_delay: None,
            };
        }
        let duplicate = roll(rng, fault.duplicate);
        let extra_delay = if roll(rng, fault.delay) {
            let (lo, hi) = fault.delay_micros;
            let micros = if hi > lo { rng.gen_range(lo..=hi) } else { lo };
            Some(SimDuration::from_micros(micros))
        } else {
            None
        };
        FaultDecision {
            drop: false,
            duplicate,
            extra_delay,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn pid(raw: u64) -> ProcessId {
        ProcessId::new(raw)
    }

    #[test]
    fn inactive_plane_is_clean_and_consumes_no_randomness() {
        let plane = FaultPlane::default();
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let before: u64 = rng.gen_range(0..u64::MAX);
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        assert_eq!(
            plane.decide(pid(0), pid(1), false, &mut rng),
            FaultDecision::CLEAN
        );
        let after: u64 = rng.gen_range(0..u64::MAX);
        assert_eq!(before, after, "clean decisions must not consume the rng");
    }

    #[test]
    fn full_cut_drops_one_direction_only() {
        let mut plane = FaultPlane::default();
        plane.set_link(pid(0), pid(1), LinkFault::cut(FaultScope::All));
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        assert!(plane.decide(pid(0), pid(1), false, &mut rng).drop);
        assert!(!plane.decide(pid(1), pid(0), false, &mut rng).drop);
    }

    #[test]
    fn scope_restricts_the_transport() {
        let mut plane = FaultPlane::default();
        plane.set_link(pid(0), pid(1), LinkFault::cut(FaultScope::MessagesOnly));
        plane.set_link(
            pid(2),
            pid(3),
            LinkFault::delay_all(500, FaultScope::RdmaOnly),
        );
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        assert!(plane.decide(pid(0), pid(1), false, &mut rng).drop);
        assert!(!plane.decide(pid(0), pid(1), true, &mut rng).drop);
        assert_eq!(
            plane.decide(pid(2), pid(3), false, &mut rng).extra_delay,
            None
        );
        assert_eq!(
            plane.decide(pid(2), pid(3), true, &mut rng).extra_delay,
            Some(SimDuration::from_micros(500))
        );
    }

    #[test]
    fn partitions_block_cross_group_traffic_until_healed() {
        let mut plane = FaultPlane::default();
        plane.install_partition("split", vec![vec![pid(0), pid(1)], vec![pid(2)]]);
        let mut rng = ChaCha12Rng::seed_from_u64(4);
        assert!(plane.decide(pid(0), pid(2), false, &mut rng).drop);
        assert!(plane.decide(pid(2), pid(1), true, &mut rng).drop);
        assert!(!plane.decide(pid(0), pid(1), false, &mut rng).drop);
        // A process outside every group is unaffected.
        assert!(!plane.decide(pid(0), pid(9), false, &mut rng).drop);
        plane.heal_all();
        assert!(!plane.decide(pid(0), pid(2), false, &mut rng).drop);
    }

    #[test]
    fn exempt_processes_never_see_faults() {
        let mut plane = FaultPlane::default();
        plane.set_default(Some(LinkFault::cut(FaultScope::All)));
        plane.install_partition("p", vec![vec![pid(0)], vec![pid(7)]]);
        plane.mark_exempt(pid(7));
        let mut rng = ChaCha12Rng::seed_from_u64(5);
        assert!(!plane.decide(pid(0), pid(7), false, &mut rng).drop);
        assert!(!plane.decide(pid(7), pid(0), false, &mut rng).drop);
        assert!(plane.decide(pid(0), pid(1), false, &mut rng).drop);
    }

    #[test]
    fn heal_all_keeps_the_default_noise() {
        let mut plane = FaultPlane::default();
        plane.set_default(Some(LinkFault::noise(1.0, 0.0, 0.0, 0)));
        plane.set_link(pid(0), pid(1), LinkFault::delay_all(9, FaultScope::All));
        plane.install_partition("p", vec![vec![pid(0)], vec![pid(1)]]);
        plane.heal_all();
        assert!(plane.is_active(), "default noise survives heal_all");
        let mut rng = ChaCha12Rng::seed_from_u64(6);
        assert!(plane.decide(pid(0), pid(1), false, &mut rng).drop);
        plane.set_default(None);
        assert!(!plane.is_active());
    }

    #[test]
    fn probabilities_are_seed_deterministic() {
        let mut plane = FaultPlane::default();
        plane.set_default(Some(LinkFault::noise(0.3, 0.3, 0.3, 100)));
        let run = |seed: u64| {
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            (0..64)
                .map(|i| plane.decide(pid(i % 4), pid((i + 1) % 4), i % 2 == 0, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
        let decisions = run(7);
        assert!(decisions.iter().any(|d| d.drop));
        assert!(decisions.iter().any(|d| d.duplicate));
        assert!(decisions.iter().any(|d| d.extra_delay.is_some()));
    }
}
