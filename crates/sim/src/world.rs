//! The simulation world: event loop, actors, channels, crashes and RDMA fabric.

use std::any::Any;
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::fmt;

use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use ratc_types::{ProcessId, ShardId, TxId};

use crate::actor::{dispatch, Actor, Clock, Context, Effect, TimerId, Upcall};
use crate::ctrl::{CtrlEvent, CtrlMilestone};
use crate::event::{EventKind, QueuedEvent};
use crate::faults::{FaultDecision, FaultPlane, LinkFault};
use crate::latency::LatencyModel;
use crate::metrics::Metrics;
use crate::obs::{TxMilestone, TxObsEvent};
use crate::rdma::{RdmaFabric, RdmaToken};
use crate::time::{SimDuration, SimTime};

/// Message latency: uniform 40–60 µs, the local-area network the paper
/// targets ("particularly suitable for deployment in local-area networks",
/// §1).
const MESSAGE_LATENCY: LatencyModel = LatencyModel::uniform(40, 60);

/// An RDMA write, and the NIC's acknowledgement of it, take a third of a
/// message's latency: one-sided operations complete considerably faster than
/// request/response messaging. This only affects simulated time, never
/// message-delay counts.
const RDMA_LATENCY: LatencyModel = LatencyModel::uniform(40 / 3, 60 / 3);

/// From an RDMA write reaching memory to the receiver's poller delivering it.
const RDMA_POLL_DELAY: LatencyModel = LatencyModel::Constant(5);

/// Cap on the events one [`World::run`] or [`World::run_until`] executes, as
/// a safeguard against protocol bugs that generate unbounded message storms.
const MAX_STEPS: u64 = 50_000_000;

/// What differs between the two transports when a send is scheduled.
struct Transport {
    latency: LatencyModel,
    is_rdma: bool,
    /// The fault counters: dropped, duplicated, delayed.
    counters: [&'static str; 3],
}

const MESSAGES: Transport = Transport {
    latency: MESSAGE_LATENCY,
    is_rdma: false,
    counters: [
        "faults_msg_dropped",
        "faults_msg_duplicated",
        "faults_msg_delayed",
    ],
};

const RDMA_WRITES: Transport = Transport {
    latency: RDMA_LATENCY,
    is_rdma: true,
    counters: [
        "faults_rdma_dropped",
        "faults_rdma_duplicated",
        "faults_rdma_delayed",
    ],
};

/// Configuration of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Seed of the deterministic random-number generator.
    pub seed: u64,
    /// Whether to record commit-path observability (transaction lifecycle
    /// milestones and flow-control gauges). Off by default; recording only
    /// appends to metrics buffers, so enabling it never changes the event
    /// schedule of a seeded run.
    pub obs: bool,
    /// Virtual CPU cost of handling one delivered message (simulator only;
    /// zero by default). With the default of zero, handler execution is free
    /// in virtual time — which is exactly why the simulator historically
    /// could not reproduce the baseline's congestive collapse: retry storms
    /// cost nothing, so the backlog never grows. A nonzero service time gives
    /// each process a single-server queue (a message delivered while the
    /// process is still busy waits until it frees up), which makes overload
    /// — offered work per tick exceeding `1/service` — reproducible
    /// deterministically in virtual time.
    pub service: SimDuration,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 42,
            obs: false,
            service: SimDuration::ZERO,
        }
    }
}

impl SimConfig {
    /// Returns a copy of this configuration with the given seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy of this configuration with commit-path observability
    /// enabled (see [`SimConfig::obs`]).
    pub fn with_observability(mut self) -> Self {
        self.obs = true;
        self
    }

    /// Returns a copy of this configuration with a per-delivery service time
    /// of `micros` microseconds (see [`SimConfig::service`]).
    pub fn with_service_micros(mut self, micros: u64) -> Self {
        self.service = SimDuration::from_micros(micros);
        self
    }
}

/// A test's view of each delivery: the time, the sender, the receiver and
/// the message (see [`World::observe_deliveries`]).
type DeliveryObserver<M> = Box<dyn FnMut(SimTime, ProcessId, ProcessId, &M) + Send>;

/// The deterministic discrete-event simulation world.
///
/// See the [crate-level documentation](crate) for an overview and an example.
pub struct World<M> {
    /// [`SimConfig::service`].
    service: SimDuration,
    pub(crate) now: SimTime,
    seq: u64,
    pub(crate) steps: u64,
    pub(crate) queue: BinaryHeap<Reverse<QueuedEvent<M>>>,
    pub(crate) actors: BTreeMap<ProcessId, Option<Box<dyn Actor<M>>>>,
    next_pid: u64,
    pub(crate) crashed: BTreeSet<ProcessId>,
    fifo_last: BTreeMap<(ProcessId, ProcessId), SimTime>,
    rng: ChaCha12Rng,
    pub(crate) metrics: Metrics,
    pub(crate) rdma: RdmaFabric<M>,
    pub(crate) next_timer_id: u64,
    pub(crate) next_rdma_token: u64,
    pub(crate) cancelled_timers: BTreeSet<TimerId>,
    faults: FaultPlane,
    /// Crash-restart incarnation per process; timers never survive into a
    /// later incarnation.
    pub(crate) incarnations: BTreeMap<ProcessId, u64>,
    /// Single-server queueing under a nonzero [`SimConfig::service`]: the
    /// virtual time before which each process cannot accept its next message
    /// delivery, indexed by raw process id (`add_actor` numbers processes
    /// densely). Unused when the service time is zero.
    busy_until: Vec<SimTime>,
    /// Called with every delivery, see [`World::observe_deliveries`].
    delivery_observer: Option<DeliveryObserver<M>>,
    /// The effect buffer the next handler's [`Context`] borrows: drained
    /// after each handler and kept, so a handler that sends allocates
    /// nothing for its effects.
    spare_effects: Vec<Effect<M>>,
}

impl<M> fmt::Debug for World<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("World")
            .field("now", &self.now)
            .field("actors", &self.actors.len())
            .field("queued_events", &self.queue.len())
            .field("steps", &self.steps)
            .field("crashed", &self.crashed)
            .finish()
    }
}

/// The reserved process identifier used as the sender of externally injected
/// messages (e.g. transaction submissions from the experiment driver).
pub const EXTERNAL: ProcessId = ProcessId::new(u64::MAX);

impl<M: Clone + fmt::Debug + 'static> World<M> {
    /// Creates an empty world.
    pub fn new(config: SimConfig) -> Self {
        let rng = ChaCha12Rng::seed_from_u64(config.seed);
        let metrics = Metrics::with_obs(config.obs);
        World {
            service: config.service,
            now: SimTime::ZERO,
            seq: 0,
            steps: 0,
            queue: BinaryHeap::new(),
            actors: BTreeMap::new(),
            next_pid: 0,
            crashed: BTreeSet::new(),
            fifo_last: BTreeMap::new(),
            rng,
            metrics,
            rdma: RdmaFabric::default(),
            next_timer_id: 0,
            next_rdma_token: 0,
            cancelled_timers: BTreeSet::new(),
            faults: FaultPlane::default(),
            incarnations: BTreeMap::new(),
            busy_until: Vec::new(),
            delivery_observer: None,
            spare_effects: Vec::new(),
        }
    }

    /// Adds an actor to the world, assigning it the next free process
    /// identifier, and invokes its [`Actor::on_start`] handler.
    pub fn add_actor<A: Actor<M>>(&mut self, actor: A) -> ProcessId {
        let pid = ProcessId::new(self.next_pid);
        self.next_pid += 1;
        self.actors.insert(pid, Some(Box::new(actor)));
        self.busy_until.push(SimTime::ZERO);
        self.with_actor(pid, 0, Upcall::Start);
        pid
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The number of events executed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Returns `true` if `pid` has crashed.
    pub fn is_crashed(&self, pid: ProcessId) -> bool {
        self.crashed.contains(&pid)
    }

    /// The metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Stamps a transaction lifecycle milestone at the current time on
    /// behalf of `by`, if observability is enabled.
    ///
    /// This is the harness-side twin of
    /// [`Context::obs_milestone`](crate::actor::Context::obs_milestone) for
    /// milestones that happen *outside* any actor handler — e.g. the client
    /// submission a harness injects with [`World::send_external`].
    pub fn obs_milestone(&mut self, tx: TxId, milestone: TxMilestone, by: ProcessId) {
        if self.metrics.obs_enabled() {
            let at_micros = self.now.as_micros();
            self.metrics.obs_record(TxObsEvent {
                tx,
                at_micros,
                by,
                milestone,
                detail: 0,
            });
        }
    }

    /// Stamps a control-plane milestone at the current time on behalf of
    /// `by`, if observability is enabled.
    ///
    /// This is the harness-side twin of
    /// [`Context::ctrl_milestone`](crate::actor::Context::ctrl_milestone)
    /// for cluster-scope events that happen *outside* any actor handler —
    /// e.g. a fault the chaos harness injects. `note` carries free-form
    /// context (the fault's display form); pass `""` for none.
    pub fn ctrl_milestone(
        &mut self,
        by: ProcessId,
        milestone: CtrlMilestone,
        shard: Option<ShardId>,
        note: &str,
    ) {
        if self.metrics.obs_enabled() {
            let at_micros = self.now.as_micros();
            self.metrics.ctrl_record(CtrlEvent {
                at_micros,
                by,
                milestone,
                shard,
                detail: 0,
                note: note.to_owned(),
            });
        }
    }

    /// Stamps a substrate-level control-plane milestone (crash/restart) with
    /// a milestone-specific detail and no shard attribution (the harness
    /// layer re-attributes from its roster).
    fn ctrl_stamp(&mut self, by: ProcessId, milestone: CtrlMilestone, detail: u64) {
        if self.metrics.obs_enabled() {
            let at_micros = self.now.as_micros();
            self.metrics.ctrl_record(CtrlEvent {
                at_micros,
                by,
                milestone,
                shard: None,
                detail,
                note: String::new(),
            });
        }
    }

    /// Calls `observe` with the time, the sender, the receiver and the
    /// message of every message delivered from now on, just before its
    /// receiver handles it; a message to a crashed process is not delivered.
    /// For tests that check in which order protocol steps reach their
    /// receivers. It sees the simulator's deliveries only (not the Threads
    /// engine's, nor RDMA writes), and changes nothing in the run.
    pub fn observe_deliveries(
        &mut self,
        observe: impl FnMut(SimTime, ProcessId, ProcessId, &M) + Send + 'static,
    ) {
        self.delivery_observer = Some(Box::new(observe));
    }

    /// Total RDMA writes rejected because the target had closed the connection.
    pub fn rdma_rejected(&self) -> u64 {
        self.rdma.rejected_count()
    }

    /// Downcasts the actor at `pid` to its concrete type.
    pub fn actor<T: 'static>(&self, pid: ProcessId) -> Option<&T> {
        let actor = self.actors.get(&pid)?.as_ref()?;
        let any: &dyn Any = actor.as_ref();
        any.downcast_ref::<T>()
    }

    /// Downcasts the actor at `pid` to its concrete type, mutably.
    ///
    /// Mutating actor state from outside the simulation is intended for test
    /// setup only.
    pub fn actor_mut<T: 'static>(&mut self, pid: ProcessId) -> Option<&mut T> {
        let actor = self.actors.get_mut(&pid)?.as_mut()?;
        let any: &mut dyn Any = actor.as_mut();
        any.downcast_mut::<T>()
    }

    /// Injects `msg` to `to` from the external environment (hop count 0),
    /// delivered at the current simulated time.
    pub fn send_external(&mut self, to: ProcessId, msg: M) {
        self.push_event(
            self.now,
            EventKind::Deliver {
                from: EXTERNAL,
                to,
                msg,
                hops: 0,
                reserved: false,
            },
        );
    }

    /// Injects `msg` to `to`, apparently from `from`, with hop count 0,
    /// subject to normal network latency and FIFO ordering.
    pub fn send_from(&mut self, from: ProcessId, to: ProcessId, msg: M) {
        self.schedule_send(from, to, msg, &MESSAGES, |msg| EventKind::Deliver {
            from,
            to,
            msg,
            hops: 0,
            reserved: false,
        });
    }

    /// Injects an RDMA write of `msg` into `to`'s memory, apparently from
    /// `from`, with hop count 0. Used by scripted tests (e.g. the Figure 4a
    /// counter-example) that need to play a protocol role by hand; actors
    /// normally use [`Context::rdma_send`].
    pub fn rdma_send_from(&mut self, from: ProcessId, to: ProcessId, msg: M) {
        let token = RdmaToken::new(self.next_rdma_token);
        self.next_rdma_token += 1;
        self.schedule_rdma_write(from, to, msg, 0, token);
    }

    /// Crashes `pid` immediately: it receives no further events.
    pub fn crash(&mut self, pid: ProcessId) {
        if self.crashed.insert(pid) {
            if let Some(busy) = self.busy_slot(pid) {
                *busy = SimTime::ZERO;
            }
            let incarnation = self.incarnations.get(&pid).copied().unwrap_or(0);
            self.ctrl_stamp(pid, CtrlMilestone::Crash, incarnation);
            // The NIC dies with the process: every permission it had granted
            // is revoked, and a later restart must re-open connections.
            self.rdma.perms.close_all(pid);
            if let Some(Some(actor)) = self.actors.get_mut(&pid) {
                actor.on_crash();
            }
        }
    }

    /// Restarts a crashed process: it keeps its actor state (whatever the
    /// actor models as stable storage) but loses everything volatile —
    /// pending timers never fire in the new incarnation, and the RDMA
    /// permissions it had granted are gone (the crash closed them, like QPs
    /// dying with the NIC). The RDMA memory region itself *persists*: §5's
    /// correctness argument counts an acknowledged write as persisted at the
    /// target, so the region models non-volatile memory, and a restarting
    /// actor recovers its content with [`Context::rdma_flush`].
    /// [`Actor::on_restart`] runs with a fresh context so the actor can
    /// recover (e.g. rebuild its certification index from checkpoint +
    /// suffix) and re-establish connections. Returns `false` if `pid` was
    /// not crashed.
    pub fn restart(&mut self, pid: ProcessId) -> bool {
        if !self.crashed.remove(&pid) {
            return false;
        }
        *self.incarnations.entry(pid).or_insert(0) += 1;
        let incarnation = self.incarnations[&pid];
        self.ctrl_stamp(pid, CtrlMilestone::Restart, incarnation);
        self.with_actor(pid, 0, Upcall::Restart);
        true
    }

    // -- fault injection (see [`crate::faults`]) -----------------------------

    /// Installs (or clears, with `None`) fabric-wide background noise applied
    /// to every non-exempt link that has no per-link override.
    pub fn set_default_link_fault(&mut self, fault: Option<LinkFault>) {
        self.faults.set_default(fault);
    }

    /// Installs a probabilistic fault on the directed link `from -> to`
    /// ([`LinkFault::cut`] cuts it; [`LinkFault::none`] clears it, and the
    /// default, if any, then applies again).
    pub fn set_link_fault(&mut self, from: ProcessId, to: ProcessId, fault: LinkFault) {
        self.faults.set_link(from, to, fault);
    }

    /// Installs a named partition: traffic between different groups is
    /// dropped until [`World::heal_all_faults`]. Processes not listed in any
    /// group are unaffected by this partition.
    pub fn install_partition(&mut self, name: &str, groups: Vec<Vec<ProcessId>>) {
        self.faults.install_partition(name, groups);
    }

    /// Heals every per-link fault, cut and partition. Fabric-wide background
    /// noise installed with [`World::set_default_link_fault`] stays in place
    /// until cleared explicitly.
    pub fn heal_all_faults(&mut self) {
        self.faults.heal_all();
    }

    /// Marks `pid` as fault-exempt: links to and from it are never faulted.
    /// The deployment harness exempts its history-recording client: the
    /// measurement apparatus, not a protocol participant.
    pub fn mark_fault_exempt(&mut self, pid: ProcessId) {
        self.faults.mark_exempt(pid);
    }

    /// Grants `peer` the right to RDMA-write into `owner`'s memory, as part of
    /// test or experiment setup (actors normally use
    /// [`Context::rdma_open`]).
    pub fn rdma_open(&mut self, owner: ProcessId, peer: ProcessId) {
        self.rdma.perms.open(owner, peer);
    }

    /// Runs until the event queue is empty or the step cap is reached.
    /// Returns the number of events executed by this call.
    pub fn run(&mut self) -> u64 {
        let start = self.steps;
        while self.steps - start < MAX_STEPS && self.step() {}
        self.steps - start
    }

    /// Runs until simulated time reaches `until` (exclusive), the queue is
    /// empty, or the step cap is reached. Afterwards the clock is advanced to
    /// `until` if it has not passed it already.
    pub fn run_until(&mut self, until: SimTime) -> u64 {
        let start = self.steps;
        loop {
            if self.steps - start >= MAX_STEPS {
                break;
            }
            match self.queue.peek() {
                Some(Reverse(ev)) if ev.time < until => {
                    self.step();
                }
                _ => break,
            }
        }
        if self.now < until {
            self.now = until;
        }
        self.steps - start
    }

    /// Executes a single event. Returns `false` if the queue was empty.
    fn step(&mut self) -> bool {
        let Some(Reverse(mut event)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(event.time >= self.now, "time must not go backwards");
        // Service-time model (simulator only; see [`SimConfig::service`]): a
        // message arriving while its target is still handling an earlier one
        // waits in the target's queue. The service slot is reserved at
        // deferral time and the delivery requeued exactly once, to the start
        // of its slot, marked `reserved` — amortised O(1) per message even
        // under a deep backlog. Slots are granted in pop order (= arrival
        // order: later arrivals get later sequence numbers), preserving
        // per-link FIFO; deferrals count as steps so `MAX_STEPS` still
        // bounds storms. A delivery to a pid that is no actor takes no slot:
        // nothing handles it.
        let service = self.service;
        if let EventKind::Deliver { to, reserved, .. } = &mut event.kind {
            if service != SimDuration::ZERO && !*reserved {
                if let Some(busy) = self.busy_slot(*to) {
                    let free = *busy;
                    *busy = free.max(event.time) + service;
                    if free > event.time {
                        *reserved = true;
                        self.now = event.time;
                        self.steps += 1;
                        self.push_event(free, event.kind);
                        return true;
                    }
                }
            }
        }
        self.now = event.time;
        self.steps += 1;
        self.execute(event.kind);
        true
    }

    /// `pid`'s entry of `busy_until`, if `pid` was added as an actor.
    fn busy_slot(&mut self, pid: ProcessId) -> Option<&mut SimTime> {
        self.busy_until.get_mut(usize::try_from(pid.as_u64()).ok()?)
    }

    // -- internals ---------------------------------------------------------

    pub(crate) fn push_event(&mut self, time: SimTime, kind: EventKind<M>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Reverse(QueuedEvent { time, seq, kind }));
    }

    /// Schedules a send on either transport: the fault decision, the
    /// latency draw, the per-link FIFO floor (RDMA writes into a ring buffer
    /// are FIFO per sender/receiver pair too), then a duplicate and a delay.
    /// `event` builds the queued event for a copy of `msg`.
    fn schedule_send(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        msg: M,
        transport: &Transport,
        event: impl Fn(M) -> EventKind<M>,
    ) {
        let [dropped, duplicated, delayed] = transport.counters;
        // A faulted (dropped) send still counts as sent: the counter
        // measures offered protocol traffic, not delivery success.
        self.metrics.on_msg_sent(&msg);
        let fault = self.fault_decision(from, to, transport.is_rdma);
        if fault.drop {
            // Lost on the wire: no arrival (and for a write, no acknowledgement).
            self.metrics.add_counter(dropped, 1);
            return;
        }
        let earliest = self.now + transport.latency.sample(&mut self.rng);
        let fifo_floor = self
            .fifo_last
            .get(&(from, to))
            .map(|t| *t + SimDuration::from_micros(1))
            .unwrap_or(SimTime::ZERO);
        let at = earliest.max(fifo_floor);
        if fault.duplicate {
            // A spurious extra copy with an independent latency that does
            // not advance the FIFO floor. A duplicated write lands twice and
            // is acknowledged twice; the sender ignores the second ack.
            self.metrics.add_counter(duplicated, 1);
            let dup_at = at + transport.latency.sample(&mut self.rng);
            self.push_event(dup_at, event(msg.clone()));
        }
        if let Some(extra) = fault.extra_delay {
            // Late without advancing the FIFO floor, so later sends on the
            // same link may overtake it (delay implies reordering).
            self.metrics.add_counter(delayed, 1);
            self.push_event(at + extra, event(msg));
            return;
        }
        self.fifo_last.insert((from, to), at);
        self.push_event(at, event(msg));
    }

    /// An RDMA write of `msg` from a handler at hop count `hops`; it lands
    /// one hop later.
    fn schedule_rdma_write(
        &mut self,
        from: ProcessId,
        to: ProcessId,
        msg: M,
        hops: u32,
        token: RdmaToken,
    ) {
        self.schedule_send(from, to, msg, &RDMA_WRITES, |msg| EventKind::RdmaArrive {
            from,
            to,
            msg,
            hops: hops + 1,
            token,
        });
    }

    fn fault_decision(&mut self, from: ProcessId, to: ProcessId, is_rdma: bool) -> FaultDecision {
        if from == EXTERNAL {
            // Externally injected traffic models the test driver, not a
            // network link.
            return FaultDecision::CLEAN;
        }
        self.faults.decide(from, to, is_rdma, &mut self.rng)
    }

    /// Applies and drains `effects`, leaving its capacity for the next
    /// handler.
    fn apply_effects(&mut self, pid: ProcessId, hops: u32, effects: &mut Vec<Effect<M>>) {
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => {
                    self.schedule_send(pid, to, msg, &MESSAGES, |msg| EventKind::Deliver {
                        from: pid,
                        to,
                        msg,
                        hops: hops + 1,
                        reserved: false,
                    })
                }
                Effect::RdmaSend { to, msg, token } => {
                    self.schedule_rdma_write(pid, to, msg, hops, token)
                }
                Effect::RdmaOpen { peer } => self.rdma.perms.open(pid, peer),
                Effect::RdmaClose { peer } => self.rdma.perms.close(pid, peer),
                Effect::RdmaCloseAll => self.rdma.perms.close_all(pid),
                Effect::SetTimer { delay, tag, id } => {
                    let at = self.now + delay;
                    let incarnation = self.incarnations.get(&pid).copied().unwrap_or(0);
                    self.push_event(
                        at,
                        EventKind::Timer {
                            at: pid,
                            id,
                            tag,
                            incarnation,
                        },
                    );
                }
                Effect::CancelTimer { id } => {
                    self.cancelled_timers.insert(id);
                }
            }
        }
    }

    /// Drives the actor `pid` through the shared [`dispatch`] seam with a
    /// fresh context on the spare effect buffer, then applies the effects it
    /// produced and keeps the buffer. Returns `false` if the actor does not
    /// exist or has crashed.
    fn with_actor(&mut self, pid: ProcessId, hops: u32, upcall: Upcall<M>) -> bool {
        if self.crashed.contains(&pid) {
            return false;
        }
        let Some(slot) = self.actors.get_mut(&pid) else {
            return false;
        };
        let Some(mut actor) = slot.take() else {
            return false;
        };
        let mut inbox = self.rdma.take_inbox(pid);
        let mut effects;
        {
            let mut ctx = Context {
                self_id: pid,
                clock: Cell::new(Clock::At(self.now)),
                hops,
                effects: std::mem::take(&mut self.spare_effects),
                metrics: &mut self.metrics,
                inbox: &mut inbox,
                next_timer_id: &mut self.next_timer_id,
                next_rdma_token: &mut self.next_rdma_token,
            };
            dispatch(actor.as_mut(), upcall, &mut ctx);
            effects = ctx.effects;
        }
        self.rdma.put_inbox(pid, inbox);
        if let Some(slot) = self.actors.get_mut(&pid) {
            *slot = Some(actor);
        }
        self.apply_effects(pid, hops, &mut effects);
        self.spare_effects = effects;
        true
    }

    fn execute(&mut self, kind: EventKind<M>) {
        match kind {
            EventKind::Deliver {
                from,
                to,
                msg,
                hops,
                ..
            } => {
                if self.crashed.contains(&to) || !self.actors.contains_key(&to) {
                    return;
                }
                self.metrics.on_receive(to);
                self.metrics.on_msg_delivered(&msg);
                if let Some(observe) = &mut self.delivery_observer {
                    observe(self.now, from, to, &msg);
                }
                self.with_actor(to, hops, Upcall::Message { from, msg });
            }
            EventKind::Timer {
                at,
                id,
                tag,
                incarnation,
            } => {
                if self.cancelled_timers.remove(&id) || self.crashed.contains(&at) {
                    return;
                }
                if self.incarnations.get(&at).copied().unwrap_or(0) != incarnation {
                    // The timer was set by an earlier incarnation of a
                    // crashed-and-restarted process; it died with the crash.
                    return;
                }
                self.with_actor(at, 0, Upcall::Timer { tag });
            }
            EventKind::RdmaArrive {
                from,
                to,
                msg,
                hops,
                token,
            } => {
                if self.crashed.contains(&to) {
                    return;
                }
                match self.rdma.arrive(to, from, msg) {
                    Ok(index) => {
                        let ack_latency = RDMA_LATENCY.sample(&mut self.rng);
                        let ack_at = self.now + ack_latency;
                        self.push_event(
                            ack_at,
                            EventKind::RdmaAck {
                                sender: from,
                                target: to,
                                token,
                                hops: hops + 1,
                            },
                        );
                        let poll_delay = RDMA_POLL_DELAY.sample(&mut self.rng);
                        let deliver_at = self.now + poll_delay;
                        self.push_event(
                            deliver_at,
                            EventKind::RdmaDeliver {
                                at: to,
                                index,
                                hops,
                            },
                        );
                    }
                    Err(_) => self.metrics.rdma_rejected += 1,
                }
            }
            EventKind::RdmaAck {
                sender,
                target,
                token,
                hops,
            } => {
                if self.crashed.contains(&sender) {
                    return;
                }
                self.metrics.on_rdma_ack(sender);
                self.with_actor(sender, hops, Upcall::RdmaAck { token, to: target });
            }
            EventKind::RdmaDeliver { at, index, hops } => {
                if self.crashed.contains(&at) {
                    return;
                }
                // Pull the entry out of the inbox first; it may have been
                // consumed already by a flush.
                let mut inbox = self.rdma.take_inbox(at);
                let entry = inbox.take_for_delivery(index);
                self.rdma.put_inbox(at, inbox);
                if let Some((from, msg)) = entry {
                    self.metrics.on_rdma_deliver(at);
                    self.metrics.on_msg_delivered(&msg);
                    self.with_actor(at, hops, Upcall::RdmaDeliver { from, msg });
                }
            }
        }
    }
}

impl<M: Clone + fmt::Debug + Send + 'static> World<M> {
    /// Runs the world on the threaded backend ([`crate::rt`]) until every
    /// in-flight message and armed timer has drained, bounded by
    /// [`crate::rt::QUIESCENCE_TIMEOUT`]. A pool of one worker thread per
    /// core (at most one per live process) runs the processes off their
    /// mailboxes in real time, with wall-clock timers; see the [`crate::rt`]
    /// module docs for the exact semantics and how they differ from
    /// [`World::run`]. Returns the number of events executed by this call.
    ///
    /// # Panics
    ///
    /// If an actor's handler panics: the run stops at once and, after the
    /// world is restored, this panics naming the process and the handler.
    pub fn run_threaded(&mut self) -> u64 {
        crate::rt::run_threaded(self, None)
    }

    /// Runs the world on the threaded backend until it quiesces or until
    /// virtual time reaches `until`, whichever comes first (the threaded
    /// counterpart of [`World::run_until`]). Afterwards the clock is at
    /// least `until`. Returns the number of events executed by this call.
    pub fn run_threaded_until(&mut self, until: SimTime) -> u64 {
        crate::rt::run_threaded(self, Some(until))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actor::TimerTag;
    use crate::faults::FaultScope;

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Ping,
        Pong,
        Note(u64),
    }

    /// An actor that replies to pings and records everything it sees.
    #[derive(Default)]
    struct Recorder {
        messages: Vec<(ProcessId, Msg)>,
        /// `(ctx.now(), ctx.hops())` of each entry of `messages`.
        deliveries: Vec<(SimTime, u32)>,
        rdma_messages: Vec<(ProcessId, Msg)>,
        acks: Vec<RdmaToken>,
        timers: Vec<TimerTag>,
        crashed: bool,
    }

    impl Actor<Msg> for Recorder {
        fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Context<'_, Msg>) {
            if msg == Msg::Ping {
                ctx.send(from, Msg::Pong);
            }
            self.messages.push((from, msg));
            self.deliveries.push((ctx.now(), ctx.hops()));
        }

        fn on_timer(&mut self, tag: TimerTag, _ctx: &mut Context<'_, Msg>) {
            self.timers.push(tag);
        }

        fn on_rdma_ack(&mut self, token: RdmaToken, _to: ProcessId, _ctx: &mut Context<'_, Msg>) {
            self.acks.push(token);
        }

        fn on_rdma_deliver(&mut self, from: ProcessId, msg: Msg, _ctx: &mut Context<'_, Msg>) {
            self.rdma_messages.push((from, msg));
        }

        fn on_crash(&mut self) {
            self.crashed = true;
        }
    }

    /// An actor that performs a scripted action on start.
    struct Starter {
        target: ProcessId,
    }

    impl Actor<Msg> for Starter {
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.send(self.target, Msg::Ping);
            ctx.set_timer(SimDuration::from_micros(100), 7);
        }

        fn on_message(&mut self, _from: ProcessId, _msg: Msg, _ctx: &mut Context<'_, Msg>) {}
    }

    fn world() -> World<Msg> {
        World::new(SimConfig::default())
    }

    /// One message a [`Recorder`] saw, with its delivery time and hop count.
    type Seen = (ProcessId, Msg, SimTime, u32);

    fn seen(w: &World<Msg>, pid: ProcessId) -> Vec<Seen> {
        let recorder = w.actor::<Recorder>(pid).expect("recorder");
        recorder
            .messages
            .iter()
            .zip(&recorder.deliveries)
            .map(|((from, msg), (at, hops))| (*from, msg.clone(), *at, *hops))
            .collect()
    }

    fn times(seen: &[Vec<Seen>]) -> Vec<SimTime> {
        seen.iter().flatten().map(|(_, _, at, _)| *at).collect()
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut w = world();
        let a = w.add_actor(Recorder::default());
        let b = w.add_actor(Recorder::default());
        w.send_from(a, b, Msg::Ping);
        w.run();
        let b_actor = w.actor::<Recorder>(b).expect("actor b");
        assert_eq!(b_actor.messages, vec![(a, Msg::Ping)]);
        let a_actor = w.actor::<Recorder>(a).expect("actor a");
        assert_eq!(a_actor.messages, vec![(b, Msg::Pong)]);
        // Hop accounting: Ping delivered with 0 hops, Pong with 1.
        assert_eq!(b_actor.deliveries[0].1, 0);
        assert_eq!(a_actor.deliveries[0].1, 1);
        assert_eq!(w.metrics().received(b), 1);
        assert_eq!(w.metrics().sent(b), 1);
    }

    #[test]
    fn service_time_makes_each_process_a_single_server_queue() {
        // 5 messages arrive within the 40–60us latency window but each costs
        // 100us to handle: the receiver drains them back-to-back, so the last
        // one executes no earlier than 4 full service times after the first.
        let mut w: World<Msg> = World::new(SimConfig::default().with_service_micros(100));
        let a = w.add_actor(Recorder::default());
        let b = w.add_actor(Recorder::default());
        for i in 0..5 {
            w.send_from(a, b, Msg::Note(i));
        }
        w.run();
        let notes: Vec<u64> = w
            .actor::<Recorder>(b)
            .expect("b")
            .messages
            .iter()
            .filter_map(|(_, m)| match m {
                Msg::Note(i) => Some(*i),
                _ => None,
            })
            .collect();
        assert_eq!(notes, vec![0, 1, 2, 3, 4], "FIFO preserved under queueing");
        assert!(
            w.now().as_micros() >= 10 + 4 * 100,
            "clock reflects queueing delay, now = {:?}",
            w.now()
        );
    }

    #[test]
    fn on_start_runs_and_timers_fire() {
        let mut w = world();
        let target = w.add_actor(Recorder::default());
        let starter = w.add_actor(Starter { target });
        w.run();
        assert_eq!(
            w.actor::<Recorder>(target).expect("recorder").messages,
            vec![(starter, Msg::Ping)]
        );
        // Starter's timer fired but Starter ignores timers; Recorder saw none.
        assert!(w
            .actor::<Recorder>(target)
            .expect("recorder")
            .timers
            .is_empty());
        assert!(w.now() >= SimTime::from_micros(100));
    }

    #[test]
    fn fifo_order_is_preserved_per_channel() {
        let mut w = world();
        let a = w.add_actor(Recorder::default());
        let b = w.add_actor(Recorder::default());
        for i in 0..50 {
            w.send_from(a, b, Msg::Note(i));
        }
        w.run();
        let notes: Vec<u64> = w
            .actor::<Recorder>(b)
            .expect("b")
            .messages
            .iter()
            .filter_map(|(_, m)| match m {
                Msg::Note(i) => Some(*i),
                _ => None,
            })
            .collect();
        assert_eq!(notes, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn crashed_actor_receives_nothing() {
        let mut w = world();
        let a = w.add_actor(Recorder::default());
        let b = w.add_actor(Recorder::default());
        w.crash(b);
        assert!(w.is_crashed(b));
        w.send_from(a, b, Msg::Ping);
        w.run();
        assert!(w.actor::<Recorder>(b).expect("b").messages.is_empty());
        assert!(w.actor::<Recorder>(b).expect("b").crashed);
        // The send was scheduled and its delivery executed, but dropped.
        assert_eq!(w.steps(), 1);
        assert_eq!(w.metrics().total_delivered, 0);
    }

    /// The observer sees each delivery as its receiver does, in order, and
    /// not a message dropped at a crashed receiver.
    #[test]
    fn the_delivery_observer_sees_what_receivers_handle() {
        let mut w = world();
        let a = w.add_actor(Recorder::default());
        let b = w.add_actor(Recorder::default());
        let c = w.add_actor(Recorder::default());
        let observed = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = observed.clone();
        w.observe_deliveries(move |at, from, to, msg: &Msg| {
            sink.lock()
                .expect("observer")
                .push((from, msg.clone(), at, to));
        });
        w.crash(c);
        w.send_from(a, b, Msg::Ping);
        w.send_from(a, c, Msg::Note(1));
        w.run();
        let observed = observed.lock().expect("observer").clone();
        let handled: Vec<_> = [b, a]
            .into_iter()
            .flat_map(|pid| seen(&w, pid).into_iter().map(move |s| (s, pid)))
            .map(|((from, msg, at, _), to)| (from, msg, at, to))
            .collect();
        assert_eq!(observed, handled);
        assert_eq!(observed.len(), 2, "the ping and its pong, not the note");
    }

    #[test]
    fn determinism_same_seed_same_deliveries() {
        let run = |seed: u64| {
            let mut w = World::<Msg>::new(SimConfig::default().with_seed(seed));
            let a = w.add_actor(Recorder::default());
            let b = w.add_actor(Recorder::default());
            for i in 0..20 {
                w.send_from(a, b, Msg::Note(i));
                w.send_from(b, a, Msg::Note(i));
            }
            w.run();
            vec![seen(&w, a), seen(&w, b)]
        };
        assert_eq!(run(7), run(7));
        // Different seeds give different delivery times (almost surely).
        assert_ne!(times(&run(7)), times(&run(8)));
    }

    #[test]
    fn rdma_write_ack_and_delivery() {
        let mut w = world();
        let receiver_pid = w.add_actor(Recorder::default());

        // Drive the sender from a message handler so the write goes through a context.
        struct RdmaSender {
            to: ProcessId,
        }
        impl Actor<Msg> for RdmaSender {
            fn on_message(&mut self, _from: ProcessId, _msg: Msg, ctx: &mut Context<'_, Msg>) {
                ctx.rdma_send(self.to, Msg::Note(99));
            }
        }
        let driver = w.add_actor(RdmaSender { to: receiver_pid });
        w.rdma_open(receiver_pid, driver);
        w.send_external(driver, Msg::Ping);
        w.run();

        let receiver = w.actor::<Recorder>(receiver_pid).expect("receiver");
        assert_eq!(receiver.rdma_messages, vec![(driver, Msg::Note(99))]);
        assert_eq!(w.metrics().process(driver).rdma_acks, 1);
        assert_eq!(w.rdma_rejected(), 0);
    }

    #[test]
    fn rdma_write_to_closed_connection_is_rejected_without_ack() {
        let mut w = world();
        let receiver_pid = w.add_actor(Recorder::default());
        struct RdmaSender {
            to: ProcessId,
        }
        impl Actor<Msg> for RdmaSender {
            fn on_message(&mut self, _from: ProcessId, _msg: Msg, ctx: &mut Context<'_, Msg>) {
                ctx.rdma_send(self.to, Msg::Note(1));
            }
        }
        let driver = w.add_actor(RdmaSender { to: receiver_pid });
        // No rdma_open: the connection is closed.
        w.send_external(driver, Msg::Ping);
        w.run();
        assert_eq!(w.rdma_rejected(), 1);
        assert_eq!(w.metrics().rdma_rejected, 1);
        assert!(w
            .actor::<Recorder>(receiver_pid)
            .expect("receiver")
            .rdma_messages
            .is_empty());
        assert_eq!(w.metrics().process(driver).rdma_acks, 0);
    }

    #[test]
    fn run_until_stops_at_time() {
        let mut w = world();
        let a = w.add_actor(Recorder::default());
        let b = w.add_actor(Recorder::default());
        w.send_from(a, b, Msg::Ping);
        // Default latency is at least 40us, so nothing is delivered by 10us.
        w.run_until(SimTime::from_micros(10));
        assert!(w.actor::<Recorder>(b).expect("b").messages.is_empty());
        assert_eq!(w.now(), SimTime::from_micros(10));
        w.run();
        assert_eq!(w.actor::<Recorder>(b).expect("b").messages.len(), 1);
    }

    #[test]
    fn downcast_to_wrong_type_returns_none() {
        let mut w = world();
        let a = w.add_actor(Recorder::default());
        assert!(w.actor::<Starter>(a).is_none());
        assert!(w.actor::<Recorder>(a).is_some());
        assert!(w.actor_mut::<Recorder>(a).is_some());
        assert!(w.actor::<Recorder>(ProcessId::new(999)).is_none());
    }

    #[test]
    fn cut_link_drops_messages_one_way() {
        let mut w = world();
        let a = w.add_actor(Recorder::default());
        let b = w.add_actor(Recorder::default());
        w.set_link_fault(a, b, LinkFault::cut(FaultScope::All));
        w.send_from(a, b, Msg::Note(1));
        w.send_from(b, a, Msg::Note(2));
        w.run();
        assert!(w.actor::<Recorder>(b).expect("b").messages.is_empty());
        assert_eq!(
            w.actor::<Recorder>(a).expect("a").messages,
            vec![(b, Msg::Note(2))]
        );
        assert_eq!(w.metrics().counter("faults_msg_dropped"), 1);
        w.heal_all_faults();
        w.send_from(a, b, Msg::Note(3));
        w.run();
        assert_eq!(
            w.actor::<Recorder>(b).expect("b").messages,
            vec![(a, Msg::Note(3))]
        );
    }

    #[test]
    fn partition_blocks_cross_group_traffic_until_healed() {
        let mut w = world();
        let a = w.add_actor(Recorder::default());
        let b = w.add_actor(Recorder::default());
        let c = w.add_actor(Recorder::default());
        w.install_partition("split", vec![vec![a], vec![b]]);
        w.send_from(a, b, Msg::Note(1));
        w.send_from(a, c, Msg::Note(2));
        w.run();
        assert!(w.actor::<Recorder>(b).expect("b").messages.is_empty());
        assert_eq!(w.actor::<Recorder>(c).expect("c").messages.len(), 1);
        w.heal_all_faults();
        w.send_from(a, b, Msg::Note(3));
        w.run();
        assert_eq!(w.actor::<Recorder>(b).expect("b").messages.len(), 1);
    }

    #[test]
    fn heal_all_faults_heals_links_and_partitions_but_keeps_the_default_noise() {
        let mut w = world();
        let a = w.add_actor(Recorder::default());
        let b = w.add_actor(Recorder::default());
        let c = w.add_actor(Recorder::default());
        w.set_link_fault(a, b, LinkFault::cut(FaultScope::All));
        w.set_link_fault(b, a, LinkFault::delay_all(10_000, FaultScope::All));
        w.install_partition("split", vec![vec![a], vec![c]]);
        w.heal_all_faults();
        w.send_from(a, b, Msg::Note(1));
        w.send_from(b, a, Msg::Note(2));
        w.send_from(a, c, Msg::Note(3));
        w.run();
        assert!(
            w.now() < SimTime::from_micros(10_000),
            "the delay healed too"
        );
        for pid in [a, b, c] {
            assert_eq!(w.actor::<Recorder>(pid).expect("pid").messages.len(), 1);
        }
        // Fabric-wide noise (here: drop everything) survives the heal ...
        w.set_default_link_fault(Some(LinkFault::noise(1.0, 0.0, 0.0, 0)));
        w.heal_all_faults();
        w.send_from(a, b, Msg::Note(4));
        w.run();
        assert_eq!(w.metrics().counter("faults_msg_dropped"), 1);
        // ... until it is cleared explicitly.
        w.set_default_link_fault(None);
        w.send_from(a, b, Msg::Note(5));
        w.run();
        assert_eq!(
            w.actor::<Recorder>(b).expect("b").messages,
            vec![(a, Msg::Note(1)), (a, Msg::Note(5))]
        );
    }

    #[test]
    fn latencies_are_a_lan_and_rdma_takes_a_third() {
        assert_eq!(MESSAGE_LATENCY, LatencyModel::uniform(40, 60));
        assert_eq!(RDMA_LATENCY, LatencyModel::uniform(13, 20));
        assert_eq!(RDMA_POLL_DELAY, LatencyModel::Constant(5));
    }

    #[test]
    fn duplicate_fault_delivers_twice() {
        let mut w = world();
        let a = w.add_actor(Recorder::default());
        let b = w.add_actor(Recorder::default());
        w.set_link_fault(
            a,
            b,
            crate::faults::LinkFault {
                drop: 0.0,
                duplicate: 1.0,
                delay: 0.0,
                delay_micros: (0, 0),
                scope: crate::faults::FaultScope::All,
            },
        );
        w.send_from(a, b, Msg::Note(7));
        w.run();
        assert_eq!(
            w.actor::<Recorder>(b).expect("b").messages,
            vec![(a, Msg::Note(7)), (a, Msg::Note(7))]
        );
        assert_eq!(w.metrics().counter("faults_msg_duplicated"), 1);
    }

    #[test]
    fn delay_fault_reorders_later_sends_past_the_delayed_one() {
        let mut w = world();
        let a = w.add_actor(Recorder::default());
        let b = w.add_actor(Recorder::default());
        w.set_link_fault(
            a,
            b,
            crate::faults::LinkFault::delay_all(10_000, crate::faults::FaultScope::All),
        );
        w.send_from(a, b, Msg::Note(1));
        w.heal_all_faults();
        w.send_from(a, b, Msg::Note(2));
        w.run();
        let notes: Vec<u64> = w
            .actor::<Recorder>(b)
            .expect("b")
            .messages
            .iter()
            .filter_map(|(_, m)| match m {
                Msg::Note(i) => Some(*i),
                _ => None,
            })
            .collect();
        assert_eq!(notes, vec![2, 1], "the delayed first send arrives last");
        assert_eq!(w.metrics().counter("faults_msg_delayed"), 1);
    }

    #[test]
    fn restart_revives_a_crashed_actor_and_kills_stale_timers() {
        struct Restartable {
            restarts: u64,
            timers: Vec<TimerTag>,
        }
        impl Actor<Msg> for Restartable {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.set_timer(SimDuration::from_micros(50), 1);
            }
            fn on_message(&mut self, _f: ProcessId, _m: Msg, _c: &mut Context<'_, Msg>) {}
            fn on_timer(&mut self, tag: TimerTag, _ctx: &mut Context<'_, Msg>) {
                self.timers.push(tag);
            }
            fn on_restart(&mut self, ctx: &mut Context<'_, Msg>) {
                self.restarts += 1;
                ctx.set_timer(SimDuration::from_micros(50), 2);
            }
        }
        let mut w = world();
        let a = w.add_actor(Restartable {
            restarts: 0,
            timers: Vec::new(),
        });
        w.crash(a);
        assert!(w.is_crashed(a));
        assert!(w.restart(a));
        assert!(!w.is_crashed(a));
        assert!(!w.restart(a), "restarting a live process is a no-op");
        w.run();
        let actor = w.actor::<Restartable>(a).expect("actor");
        assert_eq!(actor.restarts, 1);
        // The pre-crash timer (tag 1) died with the old incarnation; only the
        // re-armed tag-2 timer fired.
        assert_eq!(actor.timers, vec![2]);
    }

    #[test]
    fn crash_revokes_rdma_permissions_but_memory_persists_across_restart() {
        let mut w = world();
        let receiver = w.add_actor(Recorder::default());
        struct RdmaSender {
            to: ProcessId,
        }
        impl Actor<Msg> for RdmaSender {
            fn on_message(&mut self, _f: ProcessId, _m: Msg, ctx: &mut Context<'_, Msg>) {
                ctx.rdma_send(self.to, Msg::Note(5));
            }
        }
        let driver = w.add_actor(RdmaSender { to: receiver });
        w.rdma_open(receiver, driver);
        // A write lands (and is acknowledged) before the crash, but its
        // delivery poll happens while the receiver is down.
        w.send_external(driver, Msg::Ping);
        let arrival = w.run_until(SimTime::from_micros(25));
        assert!(arrival > 0);
        w.crash(receiver);
        w.run();
        assert_eq!(w.metrics().process(driver).rdma_acks, 1, "write was acked");
        assert!(w
            .actor::<Recorder>(receiver)
            .expect("r")
            .rdma_messages
            .is_empty());
        w.restart(receiver);
        // The region is persistent: the acknowledged write is recoverable by
        // a flush after restart (here triggered via an actor context).
        let mut inbox = w.rdma.take_inbox(receiver);
        let recovered = inbox.drain_undelivered();
        w.rdma.put_inbox(receiver, inbox);
        assert_eq!(recovered, vec![(driver, Msg::Note(5))]);
        // The crash revoked the permission the receiver had granted: new
        // writes are rejected until a fresh open.
        w.send_external(driver, Msg::Ping);
        w.run();
        assert_eq!(w.rdma_rejected(), 1);
        w.rdma_open(receiver, driver);
        w.send_external(driver, Msg::Ping);
        w.run();
        assert_eq!(
            w.actor::<Recorder>(receiver).expect("r").rdma_messages,
            vec![(driver, Msg::Note(5))]
        );
    }

    #[test]
    fn faulty_runs_are_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut w = World::<Msg>::new(SimConfig::default().with_seed(seed));
            let a = w.add_actor(Recorder::default());
            let b = w.add_actor(Recorder::default());
            w.set_default_link_fault(Some(crate::faults::LinkFault::noise(0.2, 0.2, 0.2, 500)));
            for i in 0..40 {
                w.send_from(a, b, Msg::Note(i));
                w.send_from(b, a, Msg::Note(100 + i));
            }
            w.run();
            vec![seen(&w, a), seen(&w, b)]
        };
        assert_eq!(run(11), run(11));
        assert_ne!(times(&run(11)), times(&run(12)));
    }

    #[test]
    fn external_send_has_zero_hops() {
        let mut w = world();
        let a = w.add_actor(Recorder::default());
        w.send_external(a, Msg::Ping);
        w.run();
        let recorder = w.actor::<Recorder>(a).expect("a");
        assert_eq!(recorder.deliveries, vec![(SimTime::ZERO, 0)]);
        assert!(w.steps() > 0);
    }
}
