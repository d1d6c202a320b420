//! The reconfigurer: the one probe → descend → plan → CAS procedure both
//! RATC stacks run.
//!
//! §5 of the paper introduces RDMA reconfiguration as "similar to that in §3,
//! but reconfigures the whole system": `get_last`, probe the members,
//! descend to the previous epoch while no initialised process answers,
//! compute a membership, compare-and-swap it — over one shard (Figure 1) or
//! over all of them (Figure 8). "Per shard or global" is the *set of shards
//! probed*, which is data: [`Reconfigurer`] keys its probe state by shard and
//! is written once. A replica of either stack hosts one and forwards the
//! reconfigurer's messages and timers to it; what differs between the
//! figures — the configuration service's vocabulary, the configuration type,
//! how a chosen configuration is installed — sits behind the [`ReconHost`]
//! trait the hosting replica implements.
//!
//! | method | Figure 1 (message passing) | Figure 8 (RDMA) |
//! |---|---|---|
//! | [`Reconfigurer::start`] + [`Reconfigurer::on_latest`] | lines 33–39 | lines 103–110 |
//! | [`Reconfigurer::on_probe_ack`] + [`Reconfigurer::on_older`] | lines 45–55 | lines 117–130 |
//! | the plan + [`ReconHost::propose`] | lines 47–49 | lines 121–124 |
//! | [`Reconfigurer::on_cas_reply`] + [`ReconHost::install`] | line 50 | lines 124 and 131–140 |
//!
//! The descent order is what keeps recovery from losing a decision: the
//! epochs are the only record of where the decisions live, so an epoch is
//! left for the one before it only on the word of one of *its* members, once,
//! and every epoch on the way down is asked.
//!
//! Not in the paper, and owned here because every deployment needs them: the
//! *grace period* (see [`Reconfigurer::on_probe_ack`]), the *retry tick and
//! its cap* (see [`Reconfigurer::on_retry_tick`]), the *previous-leader
//! preference* and *exclusions* (processes the caller does not want in the
//! new membership; both in the plan).

use std::collections::BTreeMap;

use ratc_config::MembershipPlanner;
use ratc_sim::actor::TimerId;
use ratc_sim::{Context, CtrlMilestone, SimDuration, TimerTag};
use ratc_types::{Epoch, ProcessId, ShardId};

/// Timer tag ending the probe grace period
/// ([`Reconfigurer::on_grace_tick`]).
pub const PROBE_GRACE_TICK: TimerTag = 3;

/// Timer tag re-driving an unfinished reconfiguration
/// ([`Reconfigurer::on_retry_tick`]).
pub const RECON_RETRY_TICK: TimerTag = 4;

/// How long the reconfigurer waits for more probe replies once every probed
/// shard has an initialised responder. A couple of network round trips: long
/// enough for replies already in flight, short enough not to hurt recovery
/// time.
const PROBE_GRACE: SimDuration = SimDuration::from_micros(500);

/// Interval after which a still-unfinished reconfiguration is re-driven.
const RECON_RETRY: SimDuration = SimDuration::from_millis(50);

/// Re-drives after which a reconfiguration is abandoned (10 simulated
/// seconds): far beyond any recoverable outage in the test workloads, but
/// bounds the event queue when a shard is unrecoverable, so
/// `World::run`/`run_to_quiescence` still terminate.
const RECON_RETRY_CAP: u32 = 200;

/// What differs between the two RATC stacks, as seen by the reconfigurer:
/// how the configuration service is asked, what a configuration is, and how
/// a chosen one is installed.
pub trait ReconHost {
    /// The stack's message vocabulary.
    type Msg;

    /// What the stack's configuration service stores: [`ReconHost::propose`]
    /// builds one and the service's compare-and-swap reply echoes it.
    type Config;

    /// `get_last`: asks for the latest configuration covering `shard`; the
    /// reply goes to [`Reconfigurer::on_latest`].
    fn fetch_latest(&mut self, shard: ShardId, ctx: &mut Context<'_, Self::Msg>);

    /// `get`: asks for `shard`'s configuration at `epoch`; the reply goes to
    /// [`Reconfigurer::on_older`].
    fn fetch(&mut self, shard: ShardId, epoch: Epoch, ctx: &mut Context<'_, Self::Msg>);

    /// Sends `PROBE(epoch)` to `targets`.
    fn probe(&mut self, targets: Vec<ProcessId>, epoch: Epoch, ctx: &mut Context<'_, Self::Msg>);

    /// `compare_and_swap`: proposes the configuration of `epoch` — for each
    /// probed shard its new leader and members; a shard that was not probed
    /// keeps what the host knows of it — to replace the one of the epoch
    /// before. The reply goes to [`Reconfigurer::on_cas_reply`].
    fn propose(
        &mut self,
        epoch: Epoch,
        leaders: BTreeMap<ShardId, ProcessId>,
        members: BTreeMap<ShardId, Vec<ProcessId>>,
        ctx: &mut Context<'_, Self::Msg>,
    );

    /// Installs the configuration the service chose for an attempt started
    /// on `shard`: `chosen` when its compare-and-swap reply has just arrived,
    /// `None` when the retry tick re-drives an installation that an earlier
    /// call left unfinished. Returns whether the installation is finished; a
    /// host that returned `false` reports the end with
    /// [`Reconfigurer::installed`].
    fn install(
        &mut self,
        shard: ShardId,
        chosen: Option<Self::Config>,
        ctx: &mut Context<'_, Self::Msg>,
    ) -> bool;
}

/// Where an attempt stands. A shard's wait for a `get` reply is part of
/// `Probing` ([`ShardProbe::fetching`]): the other shards go on meanwhile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    AwaitingLatest,
    Probing,
    AwaitingCas,
    Installing,
}

/// The probe of one shard.
#[derive(Debug, Default)]
struct ShardProbe {
    /// The epoch whose members are being probed.
    epoch: Epoch,
    members: Vec<ProcessId>,
    /// A `get` for `epoch` is outstanding and `members` are still those of
    /// the epoch above it — which a second uninitialised reply from them
    /// must not leave again, skipping `epoch`.
    fetching: bool,
    /// Everyone that answered, in arrival order.
    responders: Vec<ProcessId>,
    /// The responders that reported themselves initialised, in arrival order.
    initialized: Vec<ProcessId>,
    /// The leader of the latest configuration.
    prev_leader: Option<ProcessId>,
}

impl ShardProbe {
    fn answered(&self) -> bool {
        self.members.iter().all(|p| self.responders.contains(p))
    }

    /// Lines 47–48 / 121–123: the new leader and members. The leader is the
    /// previous leader when it answered initialised — a warm leader and its
    /// certification log are not discarded for another responder —
    /// otherwise the first initialised responder; in both cases unless
    /// excluded: an excluded process leads only when it alone holds the
    /// shard's state (safety over the exclusion). The membership prefers
    /// initialised responders over other responders over spares, so warm
    /// replicas are never discarded in favour of fresh processes that would
    /// need a full state transfer.
    fn plan(
        &self,
        spares: &[ProcessId],
        target_size: usize,
        exclude: &[ProcessId],
    ) -> (ProcessId, Vec<ProcessId>) {
        let wanted = |p: &ProcessId| !exclude.contains(p);
        let leader = self
            .prev_leader
            .filter(|p| self.initialized.contains(p) && wanted(p))
            .or_else(|| self.initialized.iter().copied().find(wanted))
            .unwrap_or(self.initialized[0]);
        // `MembershipPlanner::plan` skips the leader and the duplicates this
        // chaining produces.
        let preferred = [&self.initialized[..], &self.responders].concat();
        let mut planner = MembershipPlanner::new(target_size, spares.iter().copied());
        (leader, planner.plan(leader, &preferred, exclude))
    }
}

/// One `reconfigure` in flight.
#[derive(Debug)]
struct Attempt {
    /// The shard the attempt was started for: the argument of `get_last`
    /// and of `install`, and the shard its milestones are stamped with.
    shard: ShardId,
    phase: Phase,
    /// The epoch being created.
    recon_epoch: Epoch,
    /// The shards being probed (none until `get_last` answers).
    probes: BTreeMap<ShardId, ShardProbe>,
    /// The armed probe grace timer; cancelled when the attempt restarts or
    /// fails, so a stale tick cannot finish a later round early.
    grace_timer: Option<TimerId>,
    /// How many times the retry tick re-drove the attempt.
    retries: u32,
    spares: BTreeMap<ShardId, Vec<ProcessId>>,
    target_size: usize,
    exclude: Vec<ProcessId>,
}

impl Attempt {
    /// Every probed shard has an initialised responder: the new epoch can be
    /// created without losing a shard's state.
    fn viable(&self) -> bool {
        !self.probes.is_empty() && self.probes.values().all(|p| !p.initialized.is_empty())
    }

    fn stamp<M>(&self, milestone: CtrlMilestone, epoch: Epoch, ctx: &mut Context<'_, M>) {
        ctx.ctrl_milestone(milestone, Some(self.shard), epoch.as_u64());
    }
}

/// Everything a process needs to reconfigure shards (see the module
/// documentation).
#[derive(Debug, Default)]
pub struct Reconfigurer {
    attempt: Option<Attempt>,
}

impl Reconfigurer {
    /// The attempt in flight, if it stands at `phase`.
    fn in_phase(&mut self, phase: Phase) -> Option<&mut Attempt> {
        self.attempt.as_mut().filter(|a| a.phase == phase)
    }

    /// Whether a reconfiguration is in flight (the paper's `probing`, held
    /// until the chosen configuration is installed).
    pub fn in_flight(&self) -> bool {
        self.attempt.is_some()
    }

    /// The shard of the attempt in flight, while it waits for the `get_last`
    /// reply: the host hands that reply to [`Reconfigurer::on_latest`], and
    /// any other one to its own stale-view refresh.
    pub fn awaiting_latest(&self) -> Option<ShardId> {
        let attempt = self.attempt.as_ref();
        attempt
            .filter(|a| a.phase == Phase::AwaitingLatest)
            .map(|a| a.shard)
    }

    /// The shards waiting for their configuration at `epoch`: a `get` reply
    /// that does not name the shard it answers is for each of these.
    pub fn awaiting_older(&self, epoch: Epoch) -> Vec<ShardId> {
        let probes = self.attempt.iter().flat_map(|a| &a.probes);
        probes
            .filter(|(_, p)| p.fetching && p.epoch == epoch)
            .map(|(shard, _)| *shard)
            .collect()
    }

    /// Crash-restart: the attempt is volatile. Timers set before the crash
    /// never fire in the new incarnation.
    pub fn reset(&mut self) {
        self.attempt = None;
    }

    /// Lines 33–36 / 103–106: start reconfiguring on suspicion of `shard`.
    /// `current` is the epoch the host holds for it, `spares` the fresh
    /// processes available per shard, `target_size` the replicas per shard
    /// and `exclude` the processes not to reuse.
    #[allow(clippy::too_many_arguments)] // `StartReconfigure`'s fields, the host's epoch, the two handles
    pub fn start<H: ReconHost>(
        &mut self,
        shard: ShardId,
        current: Epoch,
        spares: BTreeMap<ShardId, Vec<ProcessId>>,
        target_size: usize,
        exclude: Vec<ProcessId>,
        host: &mut H,
        ctx: &mut Context<'_, H::Msg>,
    ) {
        if self.attempt.is_some() {
            return; // line 34 precondition: probing = false
        }
        let attempt = self.attempt.insert(Attempt {
            shard,
            phase: Phase::AwaitingLatest,
            recon_epoch: Epoch::ZERO,
            probes: BTreeMap::new(),
            grace_timer: None,
            retries: 0,
            spares,
            target_size,
            exclude,
        });
        attempt.stamp(CtrlMilestone::ReconfigInitiated, current, ctx);
        host.fetch_latest(shard, ctx);
        // Probes travel over faultable links; if they (or their replies) are
        // lost, restart the whole attempt after a while.
        ctx.set_timer(RECON_RETRY, RECON_RETRY_TICK);
    }

    /// Lines 36–39 / 106–110: `get_last` returned the configuration of
    /// `epoch`; probe the `(shard, members, leader)` the host picked from it
    /// — the shards this attempt reconfigures — for the epoch after it.
    pub fn on_latest<H: ReconHost>(
        &mut self,
        epoch: Epoch,
        shards: impl IntoIterator<Item = (ShardId, Vec<ProcessId>, Option<ProcessId>)>,
        host: &mut H,
        ctx: &mut Context<'_, H::Msg>,
    ) {
        let Some(attempt) = self.in_phase(Phase::AwaitingLatest) else {
            return;
        };
        attempt.phase = Phase::Probing;
        attempt.recon_epoch = epoch.next();
        let mut targets = Vec::new();
        for (shard, members, prev_leader) in shards {
            targets.extend(&members);
            let probe = ShardProbe {
                epoch,
                members,
                prev_leader,
                ..ShardProbe::default()
            };
            attempt.probes.insert(shard, probe);
        }
        // One `PROBE` per process, whichever shards it is a member of.
        targets.sort_unstable();
        targets.dedup();
        attempt.stamp(CtrlMilestone::ProbeStarted, attempt.recon_epoch, ctx);
        host.probe(targets, attempt.recon_epoch, ctx);
    }

    /// Lines 45–55 / 117–130: a probe reply. An initialised responder makes
    /// its shard recoverable; an uninitialised member of the probed epoch
    /// says that epoch never became operational, so the one before it is
    /// probed. A reply that arrives while its shard waits for a `get` is
    /// recorded like any other.
    pub fn on_probe_ack<H: ReconHost>(
        &mut self,
        from: ProcessId,
        initialized: bool,
        epoch: Epoch,
        shard: ShardId,
        host: &mut H,
        ctx: &mut Context<'_, H::Msg>,
    ) {
        let Some(attempt) = self.in_phase(Phase::Probing) else {
            return;
        };
        let Some(probe) = attempt.probes.get_mut(&shard) else {
            return;
        };
        if attempt.recon_epoch != epoch {
            return;
        }
        if !probe.responders.contains(&from) {
            probe.responders.push(from);
        }
        if initialized {
            if !probe.initialized.contains(&from) {
                probe.initialized.push(from);
            }
            if !attempt.viable() {
                return;
            }
            // Lines 45–50, refined: the new epoch is viable, but finishing
            // immediately would draft spares in place of warm replicas whose
            // probe replies are still in flight. Finish at once only when
            // every probed member has answered; otherwise wait out a short
            // grace period for the stragglers.
            if attempt.probes.values().all(ShardProbe::answered) {
                self.propose(host, ctx);
            } else if attempt.grace_timer.is_none() {
                attempt.stamp(CtrlMilestone::ProbeGrace, epoch, ctx);
                attempt.grace_timer = Some(ctx.set_timer(PROBE_GRACE, PROBE_GRACE_TICK));
            }
        } else if probe.initialized.is_empty() && !probe.fetching && probe.members.contains(&from) {
            // Lines 51–55: the probed epoch is not operational.
            self.descend(shard, host, ctx);
        }
    }

    /// Lines 54–55 / 128–130: the `get` reply for `shard` at `epoch`. Probe
    /// that epoch's members; an epoch the service holds nothing for
    /// (`None`) is stepped over.
    pub fn on_older<H: ReconHost>(
        &mut self,
        shard: ShardId,
        epoch: Epoch,
        members: Option<Vec<ProcessId>>,
        host: &mut H,
        ctx: &mut Context<'_, H::Msg>,
    ) {
        let Some(attempt) = self.in_phase(Phase::Probing) else {
            return;
        };
        let Some(probe) = attempt.probes.get_mut(&shard) else {
            return;
        };
        if !probe.fetching || probe.epoch != epoch {
            return;
        }
        match members {
            Some(members) => {
                probe.fetching = false;
                probe.members = members.clone();
                host.probe(members, attempt.recon_epoch, ctx);
            }
            None => self.descend(shard, host, ctx),
        }
    }

    /// Lines 53–54: ask for the epoch before the one `shard` is probed at.
    fn descend<H: ReconHost>(
        &mut self,
        shard: ShardId,
        host: &mut H,
        ctx: &mut Context<'_, H::Msg>,
    ) {
        let probes = self.attempt.as_mut().map(|a| &mut a.probes);
        let probe = probes.and_then(|p| p.get_mut(&shard)).expect("probed");
        match probe.epoch.prev() {
            Some(prev) => {
                probe.epoch = prev;
                probe.fetching = true;
                host.fetch(shard, prev, ctx);
            }
            // No earlier epoch exists: all the shard's data is lost. The
            // paper's liveness assumption (Assumption 1) excludes this.
            None => self.fail("reconfiguration_stuck", ctx),
        }
    }

    /// Lines 45–49 / 117–124: end probing, plan every probed shard and
    /// propose the result.
    fn propose<H: ReconHost>(&mut self, host: &mut H, ctx: &mut Context<'_, H::Msg>) {
        let Some(attempt) = self.in_phase(Phase::Probing).filter(|a| a.viable()) else {
            return;
        };
        attempt.phase = Phase::AwaitingCas;
        let (mut leaders, mut members) = (BTreeMap::new(), BTreeMap::new());
        for (shard, probe) in &attempt.probes {
            let spares = attempt.spares.get(shard).map_or(&[][..], Vec::as_slice);
            let (leader, planned) = probe.plan(spares, attempt.target_size, &attempt.exclude);
            leaders.insert(*shard, leader);
            members.insert(*shard, planned);
        }
        host.propose(attempt.recon_epoch, leaders, members, ctx);
    }

    /// Lines 49–50 / 124: the compare-and-swap outcome for the configuration
    /// of `epoch`. Won: install `chosen`. Lost: another reconfigurer created
    /// the epoch, and this attempt ends.
    pub fn on_cas_reply<H: ReconHost>(
        &mut self,
        ok: bool,
        epoch: Epoch,
        chosen: H::Config,
        host: &mut H,
        ctx: &mut Context<'_, H::Msg>,
    ) {
        let Some(attempt) = self.in_phase(Phase::AwaitingCas) else {
            return;
        };
        if attempt.recon_epoch != epoch {
            return;
        }
        if !ok {
            self.fail("reconfiguration_cas_lost", ctx);
            return;
        }
        attempt.phase = Phase::Installing;
        attempt.stamp(CtrlMilestone::ConfigChosen, epoch, ctx);
        if host.install(attempt.shard, Some(chosen), ctx) {
            self.attempt = None; // probing ← false
        }
    }

    /// The host finished an installation that [`ReconHost::install`] had
    /// left unfinished.
    pub fn installed(&mut self) {
        if self.in_phase(Phase::Installing).is_some() {
            self.attempt = None;
        }
    }

    /// The probe grace period elapsed: finish with the replies received.
    pub fn on_grace_tick<H: ReconHost>(&mut self, host: &mut H, ctx: &mut Context<'_, H::Msg>) {
        if let Some(attempt) = self.attempt.as_mut() {
            attempt.grace_timer = None;
        }
        self.propose(host, ctx);
    }

    /// The retry timer fired with the reconfiguration still unfinished: some
    /// message of the exchange (a probe, a reply, the compare-and-swap or its
    /// reply) was lost to a link fault or a crash. Before a configuration is
    /// chosen, restart the whole attempt from `get_last`. This is safe in
    /// every phase: probes are idempotent, and if a compare-and-swap actually
    /// succeeded while its reply was lost, `get_last` now returns the
    /// installed epoch and the fresh probe targets its members with the next
    /// one. Once a configuration is chosen, re-drive its installation.
    pub fn on_retry_tick<H: ReconHost>(&mut self, host: &mut H, ctx: &mut Context<'_, H::Msg>) {
        let Some(attempt) = self.attempt.as_mut() else {
            return;
        };
        attempt.retries += 1;
        if attempt.retries > RECON_RETRY_CAP {
            // The shards look unrecoverable; stop keeping the event queue
            // alive. A later `start` can always try again.
            self.fail("reconfiguration_abandoned", ctx);
            return;
        }
        if attempt.phase == Phase::Installing {
            if host.install(attempt.shard, None, ctx) {
                self.attempt = None;
                return;
            }
        } else {
            attempt.phase = Phase::AwaitingLatest;
            attempt.probes.clear();
            // A grace timer armed by the abandoned round must not fire into
            // the new one and finish it early with a partial responder set.
            if let Some(id) = attempt.grace_timer.take() {
                ctx.cancel_timer(id);
            }
            ctx.add_counter("reconfiguration_reprobes", 1);
            host.fetch_latest(attempt.shard, ctx);
        }
        ctx.set_timer(RECON_RETRY, RECON_RETRY_TICK);
    }

    /// Ends the attempt without a configuration, counting why.
    fn fail<M>(&mut self, counter: &'static str, ctx: &mut Context<'_, M>) {
        if let Some(id) = self.attempt.take().and_then(|a| a.grace_timer) {
            ctx.cancel_timer(id);
        }
        ctx.add_counter(counter, 1);
    }
}

#[cfg(test)]
mod tests {
    use ratc_sim::{Actor, SimConfig, SimTime, World};

    use super::*;

    /// The upcalls a hosting replica would translate from its own messages;
    /// a reply's sender is a field, so the test can inject it at an exact
    /// time.
    #[derive(Debug, Clone)]
    enum TestMsg {
        Start {
            shard: ShardId,
            exclude: Vec<ProcessId>,
        },
        Latest {
            epoch: Epoch,
            shards: Vec<(ShardId, Vec<ProcessId>, Option<ProcessId>)>,
        },
        Ack {
            from: ProcessId,
            initialized: bool,
            epoch: Epoch,
            shard: ShardId,
        },
        Older {
            shard: ShardId,
            epoch: Epoch,
            members: Option<Vec<ProcessId>>,
        },
        Cas {
            ok: bool,
            epoch: Epoch,
        },
        Installed,
    }

    /// Per probed shard, its proposed leader and members.
    type Plan = BTreeMap<ShardId, (ProcessId, Vec<ProcessId>)>;

    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Call {
        FetchLatest(ShardId),
        Fetch(ShardId, Epoch),
        Probe(Vec<ProcessId>, Epoch),
        Propose(Epoch, Plan),
        /// The epoch of the chosen configuration; `None` on a re-drive.
        Install(Option<Epoch>),
    }

    /// Sends nothing and logs every call; a configuration is its epoch.
    struct Recorder {
        calls: Vec<Call>,
        install_finishes: bool,
    }

    impl ReconHost for Recorder {
        type Msg = TestMsg;
        type Config = Epoch;

        fn fetch_latest(&mut self, shard: ShardId, _ctx: &mut Context<'_, TestMsg>) {
            self.calls.push(Call::FetchLatest(shard));
        }

        fn fetch(&mut self, shard: ShardId, epoch: Epoch, _ctx: &mut Context<'_, TestMsg>) {
            self.calls.push(Call::Fetch(shard, epoch));
        }

        fn probe(
            &mut self,
            targets: Vec<ProcessId>,
            epoch: Epoch,
            _ctx: &mut Context<'_, TestMsg>,
        ) {
            self.calls.push(Call::Probe(targets, epoch));
        }

        fn propose(
            &mut self,
            epoch: Epoch,
            leaders: BTreeMap<ShardId, ProcessId>,
            members: BTreeMap<ShardId, Vec<ProcessId>>,
            _ctx: &mut Context<'_, TestMsg>,
        ) {
            let shards = members.into_iter();
            let plan = shards.map(|(shard, members)| (shard, (leaders[&shard], members)));
            self.calls.push(Call::Propose(epoch, plan.collect()));
        }

        fn install(
            &mut self,
            _shard: ShardId,
            chosen: Option<Epoch>,
            _ctx: &mut Context<'_, TestMsg>,
        ) -> bool {
            self.calls.push(Call::Install(chosen));
            self.install_finishes
        }
    }

    /// A replica reduced to its reconfigurer.
    struct Host {
        recon: Reconfigurer,
        host: Recorder,
        ticks: u32,
    }

    impl Actor<TestMsg> for Host {
        fn on_message(&mut self, _from: ProcessId, msg: TestMsg, ctx: &mut Context<'_, TestMsg>) {
            let Host { recon, host, .. } = self;
            match msg {
                TestMsg::Start { shard, exclude } => {
                    recon.start(shard, Epoch::ZERO, spares(), 2, exclude, host, ctx)
                }
                TestMsg::Latest { epoch, shards } => recon.on_latest(epoch, shards, host, ctx),
                TestMsg::Ack {
                    from,
                    initialized,
                    epoch,
                    shard,
                } => recon.on_probe_ack(from, initialized, epoch, shard, host, ctx),
                TestMsg::Older {
                    shard,
                    epoch,
                    members,
                } => recon.on_older(shard, epoch, members, host, ctx),
                TestMsg::Cas { ok, epoch } => recon.on_cas_reply(ok, epoch, epoch, host, ctx),
                TestMsg::Installed => recon.installed(),
            }
        }

        fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<'_, TestMsg>) {
            self.ticks += 1;
            if tag == PROBE_GRACE_TICK {
                self.recon.on_grace_tick(&mut self.host, ctx);
            } else {
                assert_eq!(tag, RECON_RETRY_TICK);
                self.recon.on_retry_tick(&mut self.host, ctx);
            }
        }
    }

    fn p(raw: u64) -> ProcessId {
        ProcessId::new(raw)
    }

    fn shard(i: u32) -> ShardId {
        ShardId::new(i)
    }

    fn e(raw: u64) -> Epoch {
        Epoch::new(raw)
    }

    /// Two fresh processes for shard 0, one for shard 1.
    fn spares() -> BTreeMap<ShardId, Vec<ProcessId>> {
        BTreeMap::from([(shard(0), vec![p(90), p(91)]), (shard(1), vec![p(95)])])
    }

    fn plan(shards: &[(u32, u64, &[u64])]) -> Plan {
        let plan = |(s, leader, members): &(u32, u64, &[u64])| {
            let members = members.iter().copied().map(p).collect();
            (shard(*s), (p(*leader), members))
        };
        shards.iter().map(plan).collect()
    }

    /// The host alone in a world that supplies its timers. Every injected
    /// upcall is delivered at once and takes one virtual microsecond.
    struct Rig {
        world: World<TestMsg>,
        host: ProcessId,
    }

    impl Rig {
        fn new(install_finishes: bool) -> Rig {
            let mut world = World::new(SimConfig::default().with_observability());
            let calls = Vec::new();
            let host = world.add_actor(Host {
                recon: Reconfigurer::default(),
                host: Recorder {
                    calls,
                    install_finishes,
                },
                ticks: 0,
            });
            Rig { world, host }
        }

        /// A rig whose attempt on shard 0 has just probed `shards` of the
        /// configuration of `epoch`; the calls so far are dropped.
        fn probing(epoch: u64, shards: &[(u32, &[u64], u64)], exclude: &[u64]) -> Rig {
            let mut rig = Rig::new(true);
            rig.start(exclude);
            rig.latest(epoch, shards);
            rig.calls();
            rig
        }

        fn send(&mut self, msg: TestMsg) {
            self.world.send_external(self.host, msg);
            self.advance(1);
        }

        fn advance(&mut self, micros: u64) {
            let until = self.world.now().as_micros() + micros;
            self.world.run_until(SimTime::from_micros(until));
        }

        fn advance_to(&mut self, micros: u64) {
            self.world.run_until(SimTime::from_micros(micros));
        }

        fn start(&mut self, exclude: &[u64]) {
            let exclude = exclude.iter().copied().map(p).collect();
            let shard = shard(0);
            self.send(TestMsg::Start { shard, exclude });
        }

        /// `get_last` answers `epoch`, with `(shard, members, leader)` to probe.
        fn latest(&mut self, epoch: u64, shards: &[(u32, &[u64], u64)]) {
            let probed = |(s, members, leader): &(u32, &[u64], u64)| {
                let members = members.iter().copied().map(p).collect();
                (shard(*s), members, Some(p(*leader)))
            };
            let shards = shards.iter().map(probed).collect();
            let epoch = e(epoch);
            self.send(TestMsg::Latest { epoch, shards });
        }

        /// `PROBE_ACK(initialized, epoch, s)` from `from`.
        fn ack(&mut self, from: u64, initialized: bool, epoch: u64, s: u32) {
            self.send(TestMsg::Ack {
                from: p(from),
                initialized,
                epoch: e(epoch),
                shard: shard(s),
            });
        }

        fn older(&mut self, s: u32, epoch: u64, members: Option<&[u64]>) {
            self.send(TestMsg::Older {
                shard: shard(s),
                epoch: e(epoch),
                members: members.map(|m| m.iter().copied().map(p).collect()),
            });
        }

        fn cas(&mut self, ok: bool, epoch: u64) {
            let epoch = e(epoch);
            self.send(TestMsg::Cas { ok, epoch });
        }

        fn host(&self) -> &Host {
            self.world.actor::<Host>(self.host).expect("host")
        }

        /// The calls made since the last look.
        fn calls(&mut self) -> Vec<Call> {
            let host = self.world.actor_mut::<Host>(self.host).expect("host");
            std::mem::take(&mut host.host.calls)
        }

        fn in_flight(&self) -> bool {
            self.host().recon.in_flight()
        }

        fn counter(&self, name: &str) -> u64 {
            self.world.metrics().counter(name)
        }

        fn stamps(&self, milestone: CtrlMilestone) -> usize {
            let events = self.world.metrics().ctrl_events().iter();
            events.filter(|ev| ev.milestone == milestone).count()
        }
    }

    enum Step {
        /// `PROBE_ACK(initialized)` for epoch 1 from a process of a shard.
        Ack(u64, bool, u32),
        /// Let the probe grace period pass.
        Grace,
    }

    /// When probing ends and what is proposed. A case is: the shards probed,
    /// the exclusions, the steps, how often the grace period is entered, and
    /// the proposal that must follow the last step (none may come earlier).
    /// Every case probes the configuration of epoch 0 and wants two replicas
    /// per shard.
    #[test]
    fn probing_ends_when_every_shard_is_recoverable_and_nobody_is_left_to_wait_for() {
        use Step::{Ack, Grace};
        const S0: (u32, &[u64], u64) = (0, &[1, 2, 3], 1);
        const S1: (u32, &[u64], u64) = (1, &[5, 6], 5);
        const LONE: (u32, &[u64], u64) = (1, &[5], 5);
        type Case<'a> = (
            &'a str,
            &'a [(u32, &'a [u64], u64)],
            &'a [u64],
            Vec<Step>,
            usize,
            Option<&'a [(u32, u64, &'a [u64])]>,
        );
        let cases: Vec<Case<'_>> = vec![
            (
                "the only member answers initialised: at once, nobody to wait for",
                &[LONE],
                &[],
                vec![Ack(5, true, 1)],
                0,
                Some(&[(1, 5, &[5, 95])]),
            ),
            (
                "every member answers initialised: with the last reply, the leader stays",
                &[S0],
                &[],
                vec![Ack(2, true, 0), Ack(1, true, 0), Ack(3, true, 0)],
                1,
                Some(&[(0, 1, &[1, 2])]),
            ),
            (
                "the leader is silent: on the grace tick, warm responders before any spare",
                &[S0],
                &[],
                vec![Ack(2, true, 0), Ack(3, true, 0), Grace],
                1,
                Some(&[(0, 2, &[2, 3])]),
            ),
            (
                "an uninitialised responder is still preferred over a spare",
                &[S0],
                &[],
                vec![Ack(1, true, 0), Ack(3, false, 0), Grace],
                1,
                Some(&[(0, 1, &[1, 3])]),
            ),
            (
                "two shards: not before the second has an initialised responder",
                &[S0, S1],
                &[],
                vec![
                    Ack(1, true, 0),
                    Ack(2, true, 0),
                    Ack(3, true, 0),
                    Ack(6, true, 1),
                    Ack(5, true, 1),
                ],
                1,
                Some(&[(0, 1, &[1, 2]), (1, 5, &[5, 6])]),
            ),
            (
                "two shards: one without an initialised responder holds the other back",
                &[S0, S1],
                &[],
                vec![Ack(1, true, 0), Ack(2, true, 0), Ack(3, true, 0), Grace],
                0,
                None,
            ),
            (
                "an excluded leader that answers first is not re-elected",
                &[S1],
                &[5],
                vec![Ack(5, true, 1), Ack(6, true, 1)],
                1,
                Some(&[(1, 6, &[6, 95])]),
            ),
            (
                "an excluded leader that alone holds the shard's state keeps it",
                &[S1],
                &[5],
                vec![Ack(5, true, 1), Grace],
                1,
                Some(&[(1, 5, &[5, 95])]),
            ),
        ];
        for (name, shards, exclude, steps, graces, proposal) in cases {
            let mut rig = Rig::probing(0, shards, exclude);
            let last = steps.len() - 1;
            for (i, step) in steps.into_iter().enumerate() {
                match step {
                    Ack(from, initialized, s) => rig.ack(from, initialized, 1, s),
                    Grace => rig.advance(600),
                }
                let due = proposal.filter(|_| i == last);
                let expected: Vec<Call> = due
                    .map(|shards| Call::Propose(e(1), plan(shards)))
                    .into_iter()
                    .collect();
                assert_eq!(rig.calls(), expected, "{name}: after step {i}");
            }
            assert_eq!(rig.stamps(CtrlMilestone::ProbeGrace), graces, "{name}");
            assert!(rig.in_flight(), "{name}: the attempt is not over");
        }
    }

    #[test]
    fn the_descent_asks_every_epoch_once_and_only_on_a_members_word() {
        let mut rig = Rig::probing(3, &[(0, &[1, 2], 1)], &[]);
        let fetch = |epoch| vec![Call::Fetch(shard(0), e(epoch))];
        // A process outside the probed epoch cannot condemn it.
        rig.ack(7, false, 4, 0);
        assert_eq!(rig.calls(), vec![]);
        rig.ack(1, false, 4, 0);
        assert_eq!(rig.calls(), fetch(2), "one descent from epoch 3");
        // Epoch 3's other member says the same, before and after the reply.
        rig.ack(2, false, 4, 0);
        assert_eq!(rig.calls(), vec![], "epoch 2 must not be skipped");
        rig.older(0, 1, Some(&[8, 9]));
        assert_eq!(rig.calls(), vec![], "not the epoch asked for");
        rig.older(0, 2, None);
        assert_eq!(rig.calls(), fetch(1), "nothing stored at 2: step over it");
        rig.older(0, 1, Some(&[3, 4]));
        assert_eq!(rig.calls(), vec![Call::Probe(vec![p(3), p(4)], e(4))]);
        rig.older(0, 1, Some(&[3, 4]));
        assert_eq!(rig.calls(), vec![], "a duplicate reply re-probes nothing");
        rig.ack(2, false, 4, 0);
        assert_eq!(rig.calls(), vec![], "2 is not a member of epoch 1");
        rig.ack(3, false, 4, 0);
        assert_eq!(rig.calls(), fetch(0));
        rig.ack(4, false, 4, 0);
        assert_eq!(rig.calls(), vec![]);
        rig.older(0, 0, Some(&[5]));
        rig.calls();
        // Below epoch 0 there is nothing: the shard's state is lost.
        rig.ack(5, false, 4, 0);
        assert_eq!(rig.calls(), vec![]);
        assert_eq!(rig.counter("reconfiguration_stuck"), 1);
        assert!(!rig.in_flight());
    }

    #[test]
    fn a_descended_shard_recovers_from_the_epoch_below() {
        let mut rig = Rig::probing(1, &[(0, &[1, 2], 1)], &[]);
        rig.ack(2, false, 2, 0);
        rig.older(0, 0, Some(&[3, 4]));
        rig.calls();
        rig.ack(4, true, 2, 0);
        rig.ack(3, true, 2, 0);
        // Epoch 1's leader never answered: the first initialised responder
        // of epoch 0 leads.
        let expected = plan(&[(0, 4, &[3, 4])]);
        assert_eq!(rig.calls(), vec![Call::Propose(e(2), expected)]);
    }

    #[test]
    fn the_retry_tick_starts_a_round_the_old_rounds_grace_tick_cannot_finish() {
        let mut rig = Rig::probing(0, &[(0, &[1, 2], 1)], &[]);
        // 2 answers just before the retry tick (due at 50 ms): the grace
        // timer it arms is due at 50.3 ms.
        rig.advance_to(49_800);
        rig.ack(2, true, 1, 0);
        assert_eq!(rig.stamps(CtrlMilestone::ProbeGrace), 1);
        rig.advance_to(50_001);
        assert_eq!(rig.calls(), vec![Call::FetchLatest(shard(0))]);
        assert_eq!(rig.counter("reconfiguration_reprobes"), 1);
        // The new round hears from 1 only; 2's reply to the old round is
        // forgotten, so 2 is waited for: a new grace timer, due at 50.5 ms.
        rig.latest(0, &[(0, &[1, 2], 1)]);
        rig.ack(1, true, 1, 0);
        assert_eq!(rig.calls(), vec![Call::Probe(vec![p(1), p(2)], e(1))]);
        assert_eq!(rig.stamps(CtrlMilestone::ProbeGrace), 2);
        rig.advance_to(50_400);
        assert_eq!(rig.calls(), vec![], "the old round's tick was cancelled");
        rig.advance_to(50_600);
        let expected = plan(&[(0, 1, &[1, 90])]);
        assert_eq!(rig.calls(), vec![Call::Propose(e(1), expected)]);
    }

    #[test]
    fn past_the_retry_cap_the_attempt_is_abandoned_with_nothing_left_armed() {
        let mut rig = Rig::probing(0, &[(0, &[1, 2], 1)], &[]);
        let last_tick = u64::from(RECON_RETRY_CAP + 1) * RECON_RETRY.as_micros();
        // A grace timer is armed when the last tick fires.
        rig.advance_to(last_tick - 200);
        rig.latest(0, &[(0, &[1, 2], 1)]);
        rig.ack(2, true, 1, 0);
        rig.advance_to(last_tick + 1);
        assert_eq!(rig.counter("reconfiguration_abandoned"), 1);
        assert_eq!(rig.counter("reconfiguration_reprobes"), 200);
        assert!(!rig.in_flight());
        let ticks = rig.host().ticks;
        assert_eq!(ticks, RECON_RETRY_CAP + 1, "retry ticks only");
        rig.calls();
        rig.advance(1_000_000);
        assert_eq!(rig.host().ticks, ticks, "neither timer is left armed");
        assert_eq!(rig.calls(), vec![]);
        // A later `start` is accepted.
        rig.start(&[]);
        assert_eq!(rig.calls(), vec![Call::FetchLatest(shard(0))]);
        assert!(rig.in_flight());
    }

    #[test]
    fn a_lost_compare_and_swap_ends_the_attempt() {
        let mut rig = Rig::probing(0, &[(0, &[1, 2], 1)], &[]);
        rig.ack(1, true, 1, 0);
        rig.ack(2, true, 1, 0);
        rig.calls();
        rig.cas(true, 7);
        assert!(rig.calls().is_empty() && rig.in_flight(), "not this epoch");
        rig.cas(false, 1);
        assert_eq!(rig.calls(), vec![]);
        assert_eq!(rig.counter("reconfiguration_cas_lost"), 1);
        assert_eq!(rig.stamps(CtrlMilestone::ConfigChosen), 0);
        assert!(!rig.in_flight());
        // A second `start` while one is in flight is refused (line 34).
        rig.start(&[]);
        rig.start(&[]);
        assert_eq!(rig.calls(), vec![Call::FetchLatest(shard(0))]);
    }

    #[test]
    fn an_unfinished_installation_is_re_driven_until_the_host_reports_its_end() {
        for finishes in [true, false] {
            let mut rig = Rig::new(finishes);
            rig.start(&[]);
            rig.latest(0, &[(0, &[1, 2], 1)]);
            rig.ack(1, true, 1, 0);
            rig.ack(2, true, 1, 0);
            rig.calls();
            rig.cas(true, 1);
            assert_eq!(rig.calls(), vec![Call::Install(Some(e(1)))]);
            assert_eq!(rig.stamps(CtrlMilestone::ConfigChosen), 1);
            assert_eq!(rig.in_flight(), !finishes);
            rig.advance_to(100_001);
            let redrives = if finishes {
                vec![]
            } else {
                vec![Call::Install(None), Call::Install(None)]
            };
            assert_eq!(rig.calls(), redrives, "one per retry tick");
            assert_eq!(rig.counter("reconfiguration_reprobes"), 0);
            rig.send(TestMsg::Installed);
            assert!(!rig.in_flight());
            rig.advance(100_000);
            assert_eq!(rig.calls(), vec![], "nothing is re-driven once it ended");
        }
    }
}
