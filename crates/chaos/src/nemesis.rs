//! The seed-driven nemesis: deterministic randomized [`FaultPlan`]s.
//!
//! Given a seed and a cluster shape, [`Nemesis::generate`] emits a fault
//! schedule drawn from the event vocabulary of [`FaultEvent`]: crash/restart
//! of leaders, followers and coordinators, leader partitions, asymmetric
//! inbound cuts, slow RDMA fabrics, mid-flight reconfigurations and
//! environment-driven retries, optionally on top of fabric-wide
//! drop/duplicate/delay noise. The same seed always yields the same plan.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use ratc_types::ShardId;

use crate::plan::{FaultEvent, FaultPlan, LinkNoise, TimedFault};

/// What mix of faults a nemesis draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// Crashes, restarts, partitions and reconfigurations under background
    /// noise — the general availability soak.
    Default,
    /// The hunting mix for the naive-reconfiguration violation class: slow
    /// RDMA fabrics, asymmetric inbound isolation, leader crashes,
    /// reconfigurations and environment-driven retries, with no background
    /// noise (so the violation is observable, not masked by dropped
    /// decisions). One of each core ingredient is always drawn, at
    /// independent random times — the *schedule* is entirely seed-driven.
    NaiveHunt,
    /// The overload soak: open-loop [`FaultEvent::OverloadBurst`]s — always
    /// at least one — interleaved with crashes, restarts and partitions, so
    /// the flow-control layer absorbs bursts *while* the cluster is also
    /// failing over. No background noise: every burst transaction must
    /// decide, so drops would turn the liveness check into noise-chasing.
    Overload,
}

/// Configuration of a nemesis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NemesisConfig {
    /// Seed of the plan generator.
    pub seed: u64,
    /// Number of shards in the target cluster.
    pub shards: u32,
    /// Replicas per shard in the initial roster.
    pub members_per_shard: usize,
    /// Length of the fault window in microseconds; events land within it.
    pub window_micros: u64,
    /// Number of discrete events to draw.
    pub events: usize,
    /// Fault intensity in `[0, 100]`, controlling the background noise.
    pub intensity: u8,
    /// The event mix.
    pub profile: Profile,
}

impl Default for NemesisConfig {
    fn default() -> Self {
        NemesisConfig {
            seed: 0,
            shards: 2,
            members_per_shard: 2,
            window_micros: 40_000,
            events: 8,
            intensity: 30,
            profile: Profile::Default,
        }
    }
}

/// Deterministic fault-plan generator.
#[derive(Debug)]
pub struct Nemesis;

impl Nemesis {
    /// Generates the fault plan for `config`. Deterministic per seed.
    pub fn generate(config: &NemesisConfig) -> FaultPlan {
        let mut rng = ChaCha12Rng::seed_from_u64(config.seed);
        let mut events: Vec<TimedFault> = Vec::new();
        let shard = |rng: &mut ChaCha12Rng, config: &NemesisConfig| {
            ShardId::new(rng.gen_range(0..config.shards.max(1)))
        };
        let index = |rng: &mut ChaCha12Rng, config: &NemesisConfig| {
            rng.gen_range(0..config.members_per_shard.max(1))
        };
        match config.profile {
            Profile::Default => {
                for _ in 0..config.events {
                    let at_micros = rng.gen_range(0..config.window_micros.max(1));
                    let event = match rng.gen_range(0..10u32) {
                        0 | 1 => FaultEvent::CrashLeader {
                            shard: shard(&mut rng, config),
                        },
                        2 | 3 => FaultEvent::CrashFollower {
                            shard: shard(&mut rng, config),
                            index: index(&mut rng, config),
                        },
                        4 => FaultEvent::CrashCoordinator,
                        5 | 6 => FaultEvent::RestartCrashed,
                        7 => FaultEvent::PartitionLeader {
                            shard: shard(&mut rng, config),
                        },
                        8 => FaultEvent::HealFaults,
                        _ => FaultEvent::Reconfigure {
                            shard: shard(&mut rng, config),
                        },
                    };
                    events.push(TimedFault { at_micros, event });
                }
                // Crashed processes must get a chance to recover *under
                // traffic* (the driver restarts everything after the window
                // anyway, but mid-soak restarts exercise recovery under
                // load). Reconfigurations likewise repair crashed shards.
                let tail = config.window_micros;
                events.push(TimedFault {
                    at_micros: tail,
                    event: FaultEvent::RestartCrashed,
                });
            }
            Profile::NaiveHunt => {
                // One of each core ingredient at an independent random time;
                // whether the schedule lines up into the violation is up to
                // the seed.
                let window = config.window_micros.max(10);
                let victim_shard = shard(&mut rng, config);
                let victim_index = index(&mut rng, config);
                let other_shard = ShardId::new(
                    (victim_shard.as_u32() + 1 + rng.gen_range(0..config.shards.max(2) - 1))
                        % config.shards.max(1),
                );
                let delay_micros = rng.gen_range(30_000..60_000);
                let mut core_events = vec![
                    FaultEvent::DelayRdmaOutbound {
                        shard: victim_shard,
                        index: victim_index,
                        delay_micros,
                    },
                    FaultEvent::IsolateInbound {
                        shard: victim_shard,
                        index: victim_index,
                    },
                    FaultEvent::CrashLeader { shard: other_shard },
                    FaultEvent::Reconfigure { shard: other_shard },
                    FaultEvent::RetryPrepared {
                        shard: victim_shard,
                    },
                ];
                let extras = config.events.saturating_sub(core_events.len());
                for _ in 0..extras {
                    let event = match rng.gen_range(0..4u32) {
                        0 => FaultEvent::CrashFollower {
                            shard: shard(&mut rng, config),
                            index: index(&mut rng, config),
                        },
                        1 => FaultEvent::RestartCrashed,
                        2 => FaultEvent::RetryPrepared {
                            shard: shard(&mut rng, config),
                        },
                        _ => FaultEvent::HealFaults,
                    };
                    core_events.push(event);
                }
                for event in core_events {
                    events.push(TimedFault {
                        at_micros: rng.gen_range(0..window),
                        event,
                    });
                }
            }
            Profile::Overload => {
                let window = config.window_micros.max(10);
                events.push(TimedFault {
                    at_micros: rng.gen_range(0..window),
                    event: FaultEvent::OverloadBurst {
                        depth: rng.gen_range(100..=300),
                    },
                });
                let extras = config.events.saturating_sub(1);
                for _ in 0..extras {
                    let event = match rng.gen_range(0..6u32) {
                        0 => FaultEvent::OverloadBurst {
                            depth: rng.gen_range(50..=200),
                        },
                        1 => FaultEvent::CrashFollower {
                            shard: shard(&mut rng, config),
                            index: index(&mut rng, config),
                        },
                        2 => FaultEvent::CrashLeader {
                            shard: shard(&mut rng, config),
                        },
                        3 | 4 => FaultEvent::RestartCrashed,
                        _ => FaultEvent::HealFaults,
                    };
                    events.push(TimedFault {
                        at_micros: rng.gen_range(0..window),
                        event,
                    });
                }
                events.push(TimedFault {
                    at_micros: window,
                    event: FaultEvent::RestartCrashed,
                });
            }
        }
        events.sort_by_key(|f| f.at_micros);
        let noise = match config.profile {
            Profile::Default if config.intensity > 0 => Some(LinkNoise::scaled(config.intensity)),
            Profile::Default | Profile::NaiveHunt | Profile::Overload => None,
        };
        FaultPlan { noise, events }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let config = NemesisConfig {
            seed: 42,
            ..NemesisConfig::default()
        };
        assert_eq!(Nemesis::generate(&config), Nemesis::generate(&config));
        let other = NemesisConfig { seed: 43, ..config };
        assert_ne!(Nemesis::generate(&config), Nemesis::generate(&other));
    }

    #[test]
    fn default_profile_schedules_requested_events_sorted() {
        let config = NemesisConfig {
            seed: 7,
            events: 12,
            ..NemesisConfig::default()
        };
        let plan = Nemesis::generate(&config);
        // Requested events plus the trailing restart.
        assert_eq!(plan.len(), 13);
        assert!(plan.noise.is_some());
        for pair in plan.events.windows(2) {
            assert!(pair[0].at_micros <= pair[1].at_micros);
        }
        assert!(plan
            .events
            .iter()
            .any(|f| f.event == FaultEvent::RestartCrashed));
    }

    #[test]
    fn naive_hunt_draws_every_core_ingredient() {
        let config = NemesisConfig {
            seed: 3,
            events: 7,
            profile: Profile::NaiveHunt,
            ..NemesisConfig::default()
        };
        let plan = Nemesis::generate(&config);
        assert!(plan.noise.is_none(), "the hunt runs without masking noise");
        let has = |f: fn(&FaultEvent) -> bool| plan.events.iter().any(|e| f(&e.event));
        assert!(has(|e| matches!(e, FaultEvent::DelayRdmaOutbound { .. })));
        assert!(has(|e| matches!(e, FaultEvent::IsolateInbound { .. })));
        assert!(has(|e| matches!(e, FaultEvent::CrashLeader { .. })));
        assert!(has(|e| matches!(e, FaultEvent::Reconfigure { .. })));
        assert!(has(|e| matches!(e, FaultEvent::RetryPrepared { .. })));
    }

    #[test]
    fn overload_profile_always_draws_a_burst() {
        for seed in 0..8u64 {
            let config = NemesisConfig {
                seed,
                events: 6,
                profile: Profile::Overload,
                ..NemesisConfig::default()
            };
            let plan = Nemesis::generate(&config);
            assert!(
                plan.noise.is_none(),
                "bursts must not race dropped decisions"
            );
            assert!(
                plan.events
                    .iter()
                    .any(|e| matches!(e.event, FaultEvent::OverloadBurst { .. })),
                "seed {seed}: no burst drawn"
            );
            assert!(plan
                .events
                .iter()
                .any(|f| f.event == FaultEvent::RestartCrashed));
        }
    }
}
