//! The descent of Figure 8, lines 125–130, driven through a real
//! [`RdmaReplica`] and a real [`GlobalConfigServiceActor`]: the reconfigurer
//! leaves an epoch for the one before it once, on the word of one of that
//! epoch's members, and asks every epoch on the way down. Skipping one could
//! rebuild a shard from survivors of an older epoch while a later one, which
//! may hold later decisions, was never asked.

use std::collections::BTreeMap;
use std::sync::Arc;

use ratc_core::config::GlobalConfiguration;
use ratc_rdma::{GlobalConfigServiceActor, RdmaMsg, RdmaReplica, ReconfigMode, ScriptedPeer};
use ratc_sim::{SimConfig, SimDuration, World};
use ratc_types::{Epoch, HashSharding, ProcessId, Serializability, ShardId};

const SHARD: ShardId = ShardId::new(0);

fn config(epoch: u64, members: &[ProcessId]) -> GlobalConfiguration {
    let leaders = BTreeMap::from([(SHARD, members[0])]);
    let members = BTreeMap::from([(SHARD, members.to_vec())]);
    GlobalConfiguration::new(Epoch::new(epoch), members, leaders)
}

struct Rig {
    world: World<RdmaMsg>,
    reconfigurer: ProcessId,
}

impl Rig {
    fn run_millis(&mut self, millis: u64) {
        let until = self.world.now() + SimDuration::from_millis(millis);
        self.world.run_until(until);
    }

    /// Whether `peer` was sent a `PROBE`.
    fn probed(&self, peer: ProcessId) -> bool {
        let peer = self.world.actor::<ScriptedPeer>(peer).expect("peer");
        let mut received = peer.received.iter();
        received.any(|(_, msg)| matches!(msg, RdmaMsg::Probe { .. }))
    }

    /// `peer` answers the probe for epoch 3: it was never initialised.
    fn answers_uninitialised(&mut self, peer: ProcessId) {
        let ack = RdmaMsg::ProbeAck {
            initialized: false,
            epoch: Epoch::new(3),
            shard: SHARD,
        };
        self.world.send_from(peer, self.reconfigurer, ack);
        self.run_millis(2);
    }
}

#[test]
fn the_descent_probes_every_epoch_on_the_way_down() {
    let mut world: World<RdmaMsg> = World::new(SimConfig::default());
    let peers: Vec<ProcessId> = (0..7)
        .map(|_| world.add_actor(ScriptedPeer::default()))
        .collect();
    let [a, b, c, d, e, f, g] = peers[..] else {
        unreachable!("seven peers were added")
    };
    // The configuration service holds epochs 0 {a, b}, 1 {c, d}, 2 {e, f, g}.
    let cs = world.add_actor(GlobalConfigServiceActor::new(config(0, &[a, b]), false));
    for (epoch, members) in [(1, &[c, d][..]), (2, &[e, f, g][..])] {
        let expected = Epoch::new(epoch - 1);
        let config = config(epoch, members);
        world.send_from(a, cs, RdmaMsg::CsCas { expected, config });
    }
    let sharding = Arc::new(HashSharding::new(1));
    let reconfigurer = world.add_actor(RdmaReplica::new(
        SHARD,
        &Serializability::new(),
        sharding,
        ReconfigMode::GlobalCorrect,
    ));
    world
        .actor_mut::<RdmaReplica>(reconfigurer)
        .expect("reconfigurer")
        .install_initial_config(reconfigurer, cs, &config(0, &[a, b]), false);
    let mut rig = Rig {
        world,
        reconfigurer,
    };
    rig.run_millis(1);

    rig.world.send_external(
        reconfigurer,
        RdmaMsg::StartReconfigure {
            suspected_shard: SHARD,
            spares: BTreeMap::new(),
            target_size: 2,
            exclude: Vec::new(),
        },
    );
    rig.run_millis(1);
    assert!(
        [e, f, g].iter().all(|p| rig.probed(*p)),
        "epoch 2 is probed"
    );

    // Two members of epoch 2 say it never became operational (g is silent):
    // one descent, to epoch 1 — not one per reply, past it to epoch 0.
    rig.answers_uninitialised(e);
    rig.answers_uninitialised(f);
    let probed: Vec<bool> = [c, d, a, b].iter().map(|p| rig.probed(*p)).collect();
    assert_eq!(probed, [true, true, false, false], "c d probed, a b not");

    rig.answers_uninitialised(c);
    rig.answers_uninitialised(d);
    assert!(rig.probed(a) && rig.probed(b), "then epoch 0");

    // Below epoch 0 there is nothing to ask: the attempt ends, counted.
    rig.answers_uninitialised(a);
    let replica = rig.world.actor::<RdmaReplica>(reconfigurer).expect("it");
    assert_eq!(rig.world.metrics().counter("reconfiguration_stuck"), 1);
    assert!(!replica.reconfiguration_in_flight());
}
