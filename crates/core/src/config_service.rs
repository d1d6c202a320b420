//! The configuration-service actor.
//!
//! The paper models the configuration service (CS) as a reliable process
//! storing every shard's sequence of configurations and answering
//! `get_last`, `get` and `compare_and_swap` (§3). It only answers: line 67's
//! `CONFIG_CHANGE` to the other shards is sent by the leader that installs
//! the chosen configuration (see `crate::replica`).
//! This actor wraps the pure [`ShardConfigRegistry`] of [`crate::config`]
//! behind the protocol's message vocabulary.

use ratc_sim::{Actor, Context};
use ratc_types::{ProcessId, ShardId};

use crate::config::{ShardConfigRegistry, ShardConfiguration};
use crate::messages::Msg;

/// The configuration-service actor of the message-passing protocol.
pub struct ConfigServiceActor {
    registry: ShardConfigRegistry,
}

impl ConfigServiceActor {
    /// Creates a configuration service initialised with each shard's first
    /// configuration.
    pub fn new<I>(initial: I) -> Self
    where
        I: IntoIterator<Item = (ShardId, ShardConfiguration)>,
    {
        ConfigServiceActor {
            registry: ShardConfigRegistry::new(initial),
        }
    }

    /// Read access to the stored registry (used by tests and harnesses to look
    /// up current leaders).
    pub fn registry(&self) -> &ShardConfigRegistry {
        &self.registry
    }
}

impl Actor<Msg> for ConfigServiceActor {
    fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Context<'_, Msg>) {
        match msg {
            Msg::CsGetLast { shard } => {
                if let Some(config) = self.registry.get_last(shard) {
                    ctx.send(
                        from,
                        Msg::CsGetLastReply {
                            shard,
                            config: config.clone(),
                        },
                    );
                }
            }
            Msg::CsGet { shard, epoch } => {
                let config = self.registry.get(shard, epoch).cloned();
                ctx.send(
                    from,
                    Msg::CsGetReply {
                        shard,
                        epoch,
                        config,
                    },
                );
            }
            Msg::CsCas {
                shard,
                expected,
                config,
            } => {
                let ok = self
                    .registry
                    .compare_and_swap(shard, expected, config.clone())
                    .is_ok();
                ctx.send(from, Msg::CsCasReply { shard, ok, config });
            }
            // Explicit no-ops: the CS answers only its own vocabulary
            // (`CsGetLast`/`CsGet`/`CsCas`); commit-protocol and
            // reconfiguration traffic is never addressed to it, and the
            // reply variants below are messages *it* sends.
            Msg::Certify { .. }
            | Msg::DecisionClient { .. }
            | Msg::Retry { .. }
            | Msg::TxDecided { .. }
            | Msg::PrepareBatch { .. }
            | Msg::PrepareAckBatch { .. }
            | Msg::AcceptBatch { .. }
            | Msg::AcceptAckBatch { .. }
            | Msg::DecisionBatch { .. }
            | Msg::StartReconfigure { .. }
            | Msg::Probe { .. }
            | Msg::ProbeAck { .. }
            | Msg::NewConfig { .. }
            | Msg::NewState { .. }
            | Msg::ConfigChange { .. }
            | Msg::CsGetLastReply { .. }
            | Msg::CsGetReply { .. }
            | Msg::CsCasReply { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratc_sim::{SimConfig, World};
    use ratc_types::Epoch;

    /// A probe actor that records every message it receives.
    #[derive(Default)]
    struct Probe {
        received: Vec<Msg>,
    }

    impl Actor<Msg> for Probe {
        fn on_message(&mut self, _from: ProcessId, msg: Msg, _ctx: &mut Context<'_, Msg>) {
            self.received.push(msg);
        }
    }

    fn pid(raw: u64) -> ProcessId {
        ProcessId::new(raw)
    }

    /// The service answers its three operations and pushes nothing: line
    /// 67's `CONFIG_CHANGE` is the installed leader's to send (see
    /// `replica::tests`).
    #[test]
    fn get_last_get_and_cas_round_trip() {
        let mut world: World<Msg> = World::new(SimConfig::default());
        // Actor 0 and 1 are probes standing in for replicas of shard 1, to
        // observe that a CAS of shard 0 tells them nothing; actor 2 is the
        // requester.
        let other_a = world.add_actor(Probe::default());
        let other_b = world.add_actor(Probe::default());
        let requester = world.add_actor(Probe::default());
        let cs = world.add_actor(ConfigServiceActor::new([
            (
                ShardId::new(0),
                ShardConfiguration::new(Epoch::ZERO, vec![pid(10), pid(11)], pid(10)),
            ),
            (
                ShardId::new(1),
                ShardConfiguration::new(Epoch::ZERO, vec![other_a, other_b], other_a),
            ),
        ]));

        world.send_from(
            requester,
            cs,
            Msg::CsGetLast {
                shard: ShardId::new(0),
            },
        );
        world.send_from(
            requester,
            cs,
            Msg::CsGet {
                shard: ShardId::new(0),
                epoch: Epoch::new(7),
            },
        );
        world.send_from(
            requester,
            cs,
            Msg::CsCas {
                shard: ShardId::new(0),
                expected: Epoch::ZERO,
                config: ShardConfiguration::new(Epoch::new(1), vec![pid(11), pid(12)], pid(11)),
            },
        );
        world.run();

        let requester_actor = world.actor::<Probe>(requester).expect("probe");
        assert!(requester_actor
            .received
            .iter()
            .any(|m| matches!(m, Msg::CsGetLastReply { .. })));
        assert!(requester_actor
            .received
            .iter()
            .any(|m| matches!(m, Msg::CsGetReply { config: None, .. })));
        assert!(requester_actor
            .received
            .iter()
            .any(|m| matches!(m, Msg::CsCasReply { ok: true, .. })));

        // Members of the *other* shard heard nothing from the service.
        for probe in [other_a, other_b] {
            let received = &world.actor::<Probe>(probe).expect("probe").received;
            assert!(received.is_empty(), "probe {probe} got {received:?}");
        }

        // A losing CAS is reported as such.
        world.send_from(
            requester,
            cs,
            Msg::CsCas {
                shard: ShardId::new(0),
                expected: Epoch::ZERO,
                config: ShardConfiguration::new(Epoch::new(2), vec![pid(12)], pid(12)),
            },
        );
        world.run();
        let requester_actor = world.actor::<Probe>(requester).expect("probe");
        assert!(requester_actor
            .received
            .iter()
            .any(|m| matches!(m, Msg::CsCasReply { ok: false, .. })));
    }
}
