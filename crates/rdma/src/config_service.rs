//! The global configuration-service actor of the RDMA protocol.
//!
//! Appendix C adjusts the configuration service of §3 to keep "a single data
//! structure with the system's sequence of configurations parameterized by
//! shard"; none of its operations take a shard identifier. This actor wraps
//! [`GlobalConfigRegistry`] behind the RDMA protocol's message vocabulary.

use ratc_core::config::{GlobalConfigRegistry, GlobalConfiguration};
use ratc_sim::{Actor, Context};
use ratc_types::ProcessId;

use crate::messages::RdmaMsg;

/// The configuration-service actor for the RDMA protocol.
pub struct GlobalConfigServiceActor {
    registry: GlobalConfigRegistry,
    /// When `true` (naive per-shard deployments), a successful compare-and-swap
    /// additionally pushes a `NaiveConfigChange` notification to the members of
    /// the shards whose configuration did *not* change, mirroring §3's
    /// `CONFIG_CHANGE`. The correct protocol does not need this: it uses the
    /// `CONFIG_PREPARE` phase instead.
    notify_unchanged_shards: bool,
}

impl GlobalConfigServiceActor {
    /// Creates the service with an initial configuration.
    pub fn new(initial: GlobalConfiguration, notify_unchanged_shards: bool) -> Self {
        GlobalConfigServiceActor {
            registry: GlobalConfigRegistry::new(initial),
            notify_unchanged_shards,
        }
    }

    /// Read access to the stored registry.
    pub fn registry(&self) -> &GlobalConfigRegistry {
        &self.registry
    }
}

impl Actor<RdmaMsg> for GlobalConfigServiceActor {
    fn on_message(&mut self, from: ProcessId, msg: RdmaMsg, ctx: &mut Context<'_, RdmaMsg>) {
        match msg {
            RdmaMsg::CsGetLast => {
                let config = self.registry.get_last().clone();
                ctx.send(from, RdmaMsg::CsGetLastReply { config });
            }
            RdmaMsg::CsGet { epoch } => {
                let config = self.registry.get(epoch).cloned();
                ctx.send(from, RdmaMsg::CsGetReply { epoch, config });
            }
            RdmaMsg::CsCas { expected, config } => {
                let previous = self.registry.get_last().clone();
                let ok = self
                    .registry
                    .compare_and_swap(expected, config.clone())
                    .is_ok();
                ctx.send(
                    from,
                    RdmaMsg::CsCasReply {
                        ok,
                        config: config.clone(),
                    },
                );
                if ok && self.notify_unchanged_shards {
                    // Notify the members of shards whose membership did not
                    // change (the reconfigured shard learns via NEW_CONFIG /
                    // NEW_STATE).
                    let mut targets = Vec::new();
                    for (shard, members) in &config.members {
                        if previous.members_of(*shard) == members.as_slice()
                            && previous.leader_of(*shard) == config.leader_of(*shard)
                        {
                            targets.extend(members.iter().copied());
                        }
                    }
                    targets.sort_unstable();
                    targets.dedup();
                    ctx.send_to_many(targets, RdmaMsg::NaiveConfigChange { config });
                }
            }
            // Explicit no-ops: the CS answers only its own vocabulary
            // (`CsGetLast`/`CsGet`/`CsCas`); commit, reconfiguration and
            // fabric traffic is never addressed to it, and the reply /
            // notification variants below are messages *it* sends.
            RdmaMsg::Certify { .. }
            | RdmaMsg::DecisionClient { .. }
            | RdmaMsg::Retry { .. }
            | RdmaMsg::TxDecided { .. }
            | RdmaMsg::PrepareBatch { .. }
            | RdmaMsg::PrepareAckBatch { .. }
            | RdmaMsg::AcceptBatch { .. }
            | RdmaMsg::DecisionBatch { .. }
            | RdmaMsg::StartReconfigure { .. }
            | RdmaMsg::Probe { .. }
            | RdmaMsg::ProbeAck { .. }
            | RdmaMsg::ConfigPrepare { .. }
            | RdmaMsg::ConfigPrepareAck { .. }
            | RdmaMsg::NewConfig { .. }
            | RdmaMsg::NewState { .. }
            | RdmaMsg::Connect { .. }
            | RdmaMsg::ConnectAck { .. }
            | RdmaMsg::CsGetLastReply { .. }
            | RdmaMsg::CsGetReply { .. }
            | RdmaMsg::CsCasReply { .. }
            | RdmaMsg::NaiveConfigChange { .. } => {}
        }
    }
}
