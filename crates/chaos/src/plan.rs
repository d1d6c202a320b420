//! Fault plans: the deterministic, serializable schedules a nemesis executes.
//!
//! A [`FaultPlan`] is the unit of chaos testing: optional fabric-wide
//! background noise plus a time-ordered list of discrete [`FaultEvent`]s.
//! Events name their targets by *role* (the current leader of a shard, the
//! `index`-th replica of a shard's initial roster), so the same plan replays
//! deterministically against a freshly built cluster and remains readable
//! after shrinking.

use ratc_types::ShardId;
use std::fmt;

/// Fabric-wide probabilistic background noise, applied to every
/// replica-to-replica link for the duration of the fault window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkNoise {
    /// Per-send drop probability.
    pub drop: f64,
    /// Per-send duplication probability.
    pub duplicate: f64,
    /// Per-send extra-delay probability.
    pub delay: f64,
    /// Maximum extra delay in microseconds (uniform in `[0, max]`).
    pub max_delay_micros: u64,
}

impl LinkNoise {
    /// Noise scaled by `intensity` in `[0, 100]`: at 100, 20% drops, 20%
    /// duplicates and 20% delays of up to 2 ms.
    pub fn scaled(intensity: u8) -> LinkNoise {
        let f = f64::from(intensity.min(100)) / 100.0;
        LinkNoise {
            drop: 0.2 * f,
            duplicate: 0.2 * f,
            delay: 0.2 * f,
            max_delay_micros: 2_000,
        }
    }
}

/// One discrete fault (or repair) action, applied at a point in simulated
/// time. Targets are resolved against the cluster at execution time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// Crash the current leader of `shard`.
    CrashLeader {
        /// The targeted shard.
        shard: ShardId,
    },
    /// Crash a non-leader member of `shard` (the `index`-th live one,
    /// wrapping).
    CrashFollower {
        /// The targeted shard.
        shard: ShardId,
        /// Index into the shard's current non-leader members.
        index: usize,
    },
    /// Crash the process acting as the workload's coordinator (stacks without
    /// a distinguished coordinator crash their transaction-manager leader).
    CrashCoordinator,
    /// Restart every crashed process (crash-restart recovery under load).
    RestartCrashed,
    /// Asymmetrically cut every *message* link into the `index`-th replica of
    /// `shard`'s initial roster: it can still send (and its RDMA writes still
    /// land), but hears nothing — the classic stale-coordinator scenario of
    /// Figure 4a.
    IsolateInbound {
        /// The targeted shard.
        shard: ShardId,
        /// Index into the shard's initial roster.
        index: usize,
    },
    /// Delay every RDMA write issued by the `index`-th replica of `shard`'s
    /// initial roster by exactly `delay_micros` (a slow NIC / congested
    /// fabric whose writes land late).
    DelayRdmaOutbound {
        /// The targeted shard.
        shard: ShardId,
        /// Index into the shard's initial roster.
        index: usize,
        /// The extra delay in microseconds.
        delay_micros: u64,
    },
    /// Partition the current leader of `shard` away from every other replica.
    PartitionLeader {
        /// The targeted shard.
        shard: ShardId,
    },
    /// Heal every cut, per-link fault and partition (background noise stays).
    HealFaults,
    /// Initiate a reconfiguration of `shard`, excluding currently crashed
    /// members (a no-op on stacks without reconfiguration).
    Reconfigure {
        /// The targeted shard.
        shard: ShardId,
    },
    /// Initiate a global reconfiguration (the §5 protocol probes every
    /// shard; per-shard stacks reconfigure shard 0).
    GlobalReconfigure,
    /// Ask the current leader of `shard` to act as recovery coordinator for
    /// every transaction it holds prepared but undecided (the `retry` of
    /// Figure 1, driven by the environment).
    RetryPrepared {
        /// The targeted shard.
        shard: ShardId,
    },
    /// Flood the cluster with `depth` disjoint transactions submitted in one
    /// burst (open loop): overload as a first-class fault. The flow-control
    /// layer must absorb the burst — every burst transaction still decides
    /// and the soak's safety/liveness checks apply to it like any other.
    OverloadBurst {
        /// Number of transactions in the burst.
        depth: u32,
    },
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultEvent::CrashLeader { shard } => write!(f, "crash-leader({shard})"),
            FaultEvent::CrashFollower { shard, index } => {
                write!(f, "crash-follower({shard}, #{index})")
            }
            FaultEvent::CrashCoordinator => write!(f, "crash-coordinator"),
            FaultEvent::RestartCrashed => write!(f, "restart-crashed"),
            FaultEvent::IsolateInbound { shard, index } => {
                write!(f, "isolate-inbound({shard}, #{index})")
            }
            FaultEvent::DelayRdmaOutbound {
                shard,
                index,
                delay_micros,
            } => write!(f, "delay-rdma-out({shard}, #{index}, {delay_micros}us)"),
            FaultEvent::PartitionLeader { shard } => write!(f, "partition-leader({shard})"),
            FaultEvent::HealFaults => write!(f, "heal-faults"),
            FaultEvent::Reconfigure { shard } => write!(f, "reconfigure({shard})"),
            FaultEvent::GlobalReconfigure => write!(f, "global-reconfigure"),
            FaultEvent::RetryPrepared { shard } => write!(f, "retry-prepared({shard})"),
            FaultEvent::OverloadBurst { depth } => write!(f, "overload-burst({depth})"),
        }
    }
}

/// A fault event scheduled at an absolute simulated-time offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedFault {
    /// Offset from the start of the soak, in microseconds.
    pub at_micros: u64,
    /// The fault to apply.
    pub event: FaultEvent,
}

/// A complete, deterministic fault schedule.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Fabric-wide background noise active for the whole fault window.
    pub noise: Option<LinkNoise>,
    /// Discrete events, sorted by `at_micros`.
    pub events: Vec<TimedFault>,
}

impl FaultPlan {
    /// Number of discrete fault events in the plan.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if the plan has no discrete events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// A copy of the plan with the `index`-th event removed (used by the
    /// shrinker).
    pub fn without_event(&self, index: usize) -> FaultPlan {
        let mut shrunk = self.clone();
        shrunk.events.remove(index);
        shrunk
    }

    /// A copy of the plan without background noise.
    pub fn without_noise(&self) -> FaultPlan {
        FaultPlan {
            noise: None,
            events: self.events.clone(),
        }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.noise {
            Some(n) => writeln!(
                f,
                "noise: drop={:.2} dup={:.2} delay={:.2} (≤{}us)",
                n.drop, n.duplicate, n.delay, n.max_delay_micros
            )?,
            None => writeln!(f, "noise: none")?,
        }
        for fault in &self.events {
            writeln!(f, "  t={:>7}us  {}", fault.at_micros, fault.event)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_render_human_readably_and_shrink_structurally() {
        let plan = FaultPlan {
            noise: Some(LinkNoise::scaled(50)),
            events: vec![
                TimedFault {
                    at_micros: 1_000,
                    event: FaultEvent::CrashLeader {
                        shard: ShardId::new(1),
                    },
                },
                TimedFault {
                    at_micros: 5_000,
                    event: FaultEvent::RestartCrashed,
                },
            ],
        };
        let text = plan.to_string();
        assert!(text.contains("crash-leader(s1)"), "text: {text}");
        assert!(text.contains("restart-crashed"));
        assert_eq!(plan.len(), 2);
        assert!(!plan.is_empty());
        let shrunk = plan.without_event(0);
        assert_eq!(shrunk.len(), 1);
        assert_eq!(shrunk.events[0].event, FaultEvent::RestartCrashed);
        assert!(plan.without_noise().noise.is_none());
    }

    #[test]
    fn noise_scales_with_intensity() {
        let none = LinkNoise::scaled(0);
        assert_eq!(none.drop, 0.0);
        let full = LinkNoise::scaled(100);
        assert!(full.drop > 0.0 && full.drop <= 0.5);
        let over = LinkNoise::scaled(200);
        assert_eq!(over, full);
    }
}
