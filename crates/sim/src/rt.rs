//! Threaded execution backend: one OS thread per process, channels as links.
//!
//! The deterministic simulator ([`World::run`](crate::world::World::run))
//! executes every actor on one thread under a virtual clock. This module
//! provides the second execution engine for the *same* world: each live
//! process becomes a real OS thread, each link becomes a bounded MPSC
//! channel, timers fire on the monotonic wall clock (`recv_timeout` against
//! [`std::time::Instant`] deadlines), and `ctx.now()` advances with real
//! elapsed time. Because a [`Context`] only *buffers*
//! effects (they are applied after the handler returns), a thread never holds
//! more than its own RDMA-inbox lock while actor code runs, which keeps the
//! backend deadlock-free by construction.
//!
//! A threaded run is a bracketed excursion: [`World::run_threaded`] moves the
//! actors, the pending event queue and the RDMA fabric out of the world,
//! executes in real time, then moves everything back — surviving timers and
//! undrained messages are re-queued, per-thread metrics are merged, and the
//! virtual clock is advanced by the real elapsed microseconds. Everything a
//! harness does *between* runs (submit, crash, restart, introspection)
//! therefore works identically on both backends, and a single cluster can
//! even alternate engines between runs.
//!
//! Fidelity notes, in decreasing order of importance:
//!
//! * **Decisions, not schedules.** A threaded run preserves the protocol
//!   contract (reliable per-link FIFO delivery, timer/incarnation semantics,
//!   RDMA open/close/ack/flush) but not the simulator's deterministic event
//!   order. Same-seed reproducibility is a simulator feature; the threaded
//!   backend exists to measure wall-clock behaviour and to let real
//!   concurrency attack ordering assumptions the simulator cannot.
//! * **Links are bounded channels.** Each process owns one bounded channel
//!   (`CHANNEL_CAPACITY` events); per-producer FIFO order of
//!   [`std::sync::mpsc`] gives per-link FIFO. A full channel never blocks a
//!   worker (which would risk distributed deadlock at shutdown): the sender
//!   buffers the event locally and retries, which preserves the reliable-link
//!   abstraction the protocols assume.
//! * **Every blocking receive is time-bounded.** Workers wait in
//!   `recv_timeout` with a capped poll interval, and the driver bounds whole
//!   runs with [`QUIESCENCE_TIMEOUT`], so a deadlocked or livelocked run
//!   fails fast (the run returns with work still pending and the suite's
//!   assertions fail) instead of hanging a test job.
//! * **Sim-only features.** Fault injection, latency models and
//!   `max_steps` apply only to the simulator; the threaded backend models a
//!   reliable LAN where real scheduling provides the nondeterminism. A
//!   `schedule_crash` still pending when a threaded run starts is applied
//!   at the start of the run rather than mid-run.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ratc_types::ProcessId;

use crate::actor::Effect;
use crate::actor::{dispatch, Actor, Context, TimerId, TimerTag, Upcall};
use crate::event::{EventKind, QueuedEvent};
use crate::metrics::Metrics;
use crate::rdma::{RdmaFabric, RdmaInbox, RdmaToken};
use crate::time::{SimDuration, SimTime};
use crate::world::World;

/// Which engine executes the actors of a world (or of a cluster built on
/// one).
///
/// * [`ExecutionMode::Sim`] — the deterministic discrete-event simulator:
///   single-threaded, virtual time, seeded randomness and fault injection.
///   Identical seeds give bit-identical runs, which is what every chaos
///   soak, shrunk schedule and Figure 4a hunt relies on.
/// * [`ExecutionMode::Threads`] — the threaded runtime in this module: one
///   OS thread per process, bounded channels as links, timers and latencies
///   on the monotonic wall clock. Runs are *not* reproducible event-by-event
///   (real scheduling decides interleavings) but externalise the same
///   protocol-level semantics, and are the only way to measure real
///   committed-tx/s (`exp_wallclock`).
///
/// The trade-off in one line: `Sim` answers "is it correct on this exact
/// schedule, again and again", `Threads` answers "how fast is it, and does
/// it survive schedules nobody picked".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecutionMode {
    /// Deterministic single-threaded simulation under a virtual clock.
    #[default]
    Sim,
    /// One OS thread per process, real time, bounded channels.
    Threads,
}

impl fmt::Display for ExecutionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutionMode::Sim => write!(f, "sim"),
            ExecutionMode::Threads => write!(f, "threads"),
        }
    }
}

/// Hard wall-clock bound on a single threaded run. A run that has not
/// drained its in-flight work by then is stopped and returns with events
/// still queued, so a deadlocked protocol fails a suite quickly instead of
/// hanging it.
pub const QUIESCENCE_TIMEOUT: Duration = Duration::from_secs(30);

/// Capacity of each process's event channel. Senders never block on a full
/// channel (see the module docs); the bound exists to keep memory use
/// proportional to genuine in-flight traffic.
const CHANNEL_CAPACITY: usize = 8192;

/// Upper bound on how long a worker sleeps in `recv_timeout` when it has
/// nothing to do: the resolution at which it notices the stop flag.
const IDLE_POLL: Duration = Duration::from_millis(5);

/// Retry interval for events buffered because the target channel was full.
const OVERFLOW_RETRY: Duration = Duration::from_millis(1);

/// Wall-clock bound on the shutdown drain phase.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);

/// Size of the timer-id / RDMA-token space carved out per worker per run, so
/// threads can allocate identifiers without synchronising.
const ID_STRIPE: u64 = 1 << 24;

/// An event travelling through a process's channel.
enum RtEvent<M> {
    /// A network message (the channel itself is the link; per-producer FIFO
    /// order of `mpsc` gives per-link FIFO).
    Deliver { from: ProcessId, msg: M, hops: u32 },
    /// An RDMA write by *this* process landed in `target`'s memory.
    RdmaAck {
        target: ProcessId,
        token: RdmaToken,
        hops: u32,
    },
    /// This process's poller should deliver inbox entry `index`.
    RdmaDeliver { index: usize, hops: u32 },
    /// Shutdown sentinel: wake up and enter the drain phase.
    Stop,
}

/// A pending timer on a worker's local heap, ordered by deadline.
struct RtTimer {
    deadline: Instant,
    id: TimerId,
    tag: TimerTag,
}

impl PartialEq for RtTimer {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.id == other.id
    }
}
impl Eq for RtTimer {}
impl PartialOrd for RtTimer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for RtTimer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.deadline, self.id).cmp(&(other.deadline, other.id))
    }
}

/// State shared by the driver and every worker for the duration of a run.
///
/// Memory-ordering protocol (one happens-before edge per atomic):
///
/// * [`Shared::pending`] — `AcqRel` RMWs; the increment (Release half)
///   happens-before the driver's `Acquire` load in the quiescence loop, so
///   when the driver reads 0 every enqueue that preceded the matching
///   decrement is visible and the run really is quiescent. The increment
///   is issued *before* the `try_send`/timer-arm it covers so the counter
///   over-approximates in-flight work, never under-approximates it.
/// * [`Shared::stopping`] — driver `Release` store, worker `Acquire` loads:
///   everything the driver did before requesting the stop (including the
///   quiescence decision) happens-before a worker observing `true`.
/// * [`Shared::retired`] — `AcqRel` `fetch_add` pledge / `Acquire` load:
///   a worker's pledge (and every send it issued before pledging)
///   happens-before another worker observing the full retirement count,
///   so the drain phase cannot terminate while a pledged send is invisible.
/// * [`Shared::rejected`] — `Relaxed` `fetch_add` is sufficient: the
///   counter guards no other memory, atomic RMWs never lose increments,
///   and the final read happens after `std::thread::scope` joins every
///   worker, which already orders all their increments before it.
struct Shared<M> {
    /// Processes that have a thread (i.e. were not crashed at run start).
    live: BTreeSet<ProcessId>,
    /// In-flight work: queued channel events plus armed timers plus the
    /// event currently being handled. Zero means quiescent.
    /// Increment-before-send / decrement-after-handle, `AcqRel`.
    pending: AtomicI64,
    /// Set by the driver to end the run. Store `Release`, load `Acquire`.
    stopping: AtomicBool,
    /// Workers that have finished their main loop and pledged to send no
    /// further events; the drain phase completes when all have. `AcqRel`
    /// pledge, `Acquire` poll.
    retired: AtomicUsize,
    /// RDMA permission sets (`allowed[owner]` = peers that may write).
    perms: Mutex<BTreeMap<ProcessId, BTreeSet<ProcessId>>>,
    /// RDMA inboxes, one lock per owner. A worker locks its own inbox only
    /// while a handler runs; writers lock `perms` then the target inbox
    /// (a single global lock order, so no deadlock).
    inboxes: BTreeMap<ProcessId, Mutex<RdmaInbox<M>>>,
    /// RDMA writes rejected because the connection was closed. `Relaxed`
    /// increments; completeness comes from the scope join (see above), not
    /// from this atomic's ordering.
    rejected: AtomicU64,
    /// Wall-clock origin of the run; `now()` is `start_now` + elapsed.
    epoch: Instant,
    /// Virtual time at which the run started.
    start_now: SimTime,
}

impl<M> Shared<M> {
    /// The current virtual time: run start plus real elapsed microseconds
    /// (monotonic, from [`Instant`]), so `DecisionLatency::micros` measured
    /// on this backend is genuine wall-clock latency.
    fn now(&self) -> SimTime {
        self.start_now + SimDuration::from_micros(self.epoch.elapsed().as_micros() as u64)
    }

    /// Lands an RDMA write in `to`'s memory if `from` may write there.
    /// Returns the inbox index, or `None` if the write was rejected (the
    /// rejection counter is bumped here; the caller records metrics).
    fn rdma_arrive(&self, from: ProcessId, to: ProcessId, msg: M) -> Option<usize> {
        let perms = self.perms.lock().expect("perms lock");
        if !perms.get(&to).is_some_and(|set| set.contains(&from)) {
            drop(perms);
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut inbox = self
            .inboxes
            .get(&to)
            .expect("inbox")
            .lock()
            .expect("inbox lock");
        Some(inbox.push(from, msg))
    }
}

/// What a worker hands back when its thread joins.
struct WorkerDone<M> {
    pid: ProcessId,
    actor: Box<dyn Actor<M>>,
    metrics: Metrics,
    /// Events drained from this process's channel after the stop.
    leftovers: Vec<RtEvent<M>>,
    /// Events this worker could not send (target channel full at stop).
    unsent: Vec<(ProcessId, RtEvent<M>)>,
    /// Timers still armed at stop, with their original incarnation.
    timers: Vec<(Instant, TimerId, TimerTag)>,
    /// Cancellations that found no local timer (already fired elsewhere).
    cancels: Vec<TimerId>,
    incarnation: u64,
    events_processed: u64,
}

/// One process-thread: an actor, its channel, its timer heap.
struct Worker<'s, M> {
    pid: ProcessId,
    actor: Box<dyn Actor<M>>,
    shared: &'s Shared<M>,
    senders: BTreeMap<ProcessId, SyncSender<RtEvent<M>>>,
    rx: Receiver<RtEvent<M>>,
    timers: BinaryHeap<Reverse<RtTimer>>,
    overflow: Vec<(ProcessId, RtEvent<M>)>,
    metrics: Metrics,
    next_timer_id: u64,
    next_rdma_token: u64,
    incarnation: u64,
    events_processed: u64,
    cancels: Vec<TimerId>,
}

impl<'s, M: Clone + fmt::Debug + Send + 'static> Worker<'s, M> {
    fn run(mut self) -> WorkerDone<M> {
        loop {
            if self.shared.stopping.load(Ordering::Acquire) {
                break;
            }
            self.flush_overflow();
            self.fire_due_timers();
            let mut timeout = IDLE_POLL;
            if let Some(Reverse(timer)) = self.timers.peek() {
                timeout = timeout.min(timer.deadline.saturating_duration_since(Instant::now()));
            }
            if !self.overflow.is_empty() {
                timeout = timeout.min(OVERFLOW_RETRY);
            }
            match self.rx.recv_timeout(timeout) {
                Ok(RtEvent::Stop) => break,
                Ok(event) => self.handle(event),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        self.drain()
    }

    /// Processes one channel event: upcall, effects, accounting.
    fn handle(&mut self, event: RtEvent<M>) {
        match event {
            RtEvent::Deliver { from, msg, hops } => {
                self.metrics.on_receive(self.pid);
                self.metrics.on_msg_delivered(&msg);
                self.invoke(Upcall::Message { from, msg }, hops);
            }
            RtEvent::RdmaAck {
                target,
                token,
                hops,
            } => {
                self.metrics.on_rdma_ack(self.pid);
                self.invoke(Upcall::RdmaAck { token, to: target }, hops);
            }
            RtEvent::RdmaDeliver { index, hops } => {
                let entry = {
                    let mut inbox = self
                        .shared
                        .inboxes
                        .get(&self.pid)
                        .expect("own inbox")
                        .lock()
                        .expect("inbox lock");
                    inbox.take_for_delivery(index)
                };
                if let Some((from, msg)) = entry {
                    self.metrics.on_rdma_deliver(self.pid);
                    self.metrics.on_msg_delivered(&msg);
                    self.invoke(Upcall::RdmaDeliver { from, msg }, hops);
                }
            }
            RtEvent::Stop => unreachable!("Stop is consumed by the main loop"),
        }
        self.shared.pending.fetch_sub(1, Ordering::AcqRel);
        self.events_processed += 1;
    }

    fn fire_due_timers(&mut self) {
        loop {
            let due = matches!(
                self.timers.peek(),
                Some(Reverse(timer)) if timer.deadline <= Instant::now()
            );
            if !due || self.shared.stopping.load(Ordering::Acquire) {
                break;
            }
            let Reverse(timer) = self.timers.pop().expect("peeked");
            self.invoke(Upcall::Timer { tag: timer.tag }, 0);
            self.shared.pending.fetch_sub(1, Ordering::AcqRel);
            self.events_processed += 1;
        }
    }

    /// Drives the actor through the shared [`dispatch`] seam, holding only
    /// the worker's own inbox lock for the duration of the handler, then
    /// applies the buffered effects.
    fn invoke(&mut self, upcall: Upcall<M>, hops: u32) {
        let now = self.shared.now();
        let effects = {
            let mut inbox = self
                .shared
                .inboxes
                .get(&self.pid)
                .expect("own inbox")
                .lock()
                .expect("inbox lock");
            let mut ctx = Context {
                self_id: self.pid,
                now,
                hops,
                effects: Vec::new(),
                metrics: &mut self.metrics,
                inbox: &mut inbox,
                next_timer_id: &mut self.next_timer_id,
                next_rdma_token: &mut self.next_rdma_token,
            };
            dispatch(self.actor.as_mut(), upcall, &mut ctx);
            std::mem::take(&mut ctx.effects)
        };
        self.apply_effects(effects, hops);
    }

    fn apply_effects(&mut self, effects: Vec<Effect<M>>, hops: u32) {
        for effect in effects {
            match effect {
                Effect::Send { to, msg } => {
                    self.metrics.on_msg_sent(&msg);
                    self.enqueue(
                        to,
                        RtEvent::Deliver {
                            from: self.pid,
                            msg,
                            hops: hops + 1,
                        },
                    )
                }
                Effect::RdmaSend { to, msg, token } => {
                    self.metrics.on_msg_sent(&msg);
                    // Mirrors the simulator's hop accounting: the write
                    // arrives with `hops + 1`; the delivery keeps the
                    // arrival count and the acknowledgement adds one more.
                    if !self.shared.live.contains(&to) {
                        continue; // crashed target: write lost, no ack
                    }
                    match self.shared.rdma_arrive(self.pid, to, msg) {
                        Some(index) => {
                            self.enqueue(
                                to,
                                RtEvent::RdmaDeliver {
                                    index,
                                    hops: hops + 1,
                                },
                            );
                            self.enqueue(
                                self.pid,
                                RtEvent::RdmaAck {
                                    target: to,
                                    token,
                                    hops: hops + 2,
                                },
                            );
                        }
                        None => self.metrics.rdma_rejected += 1,
                    }
                }
                Effect::RdmaOpen { peer } => {
                    self.shared
                        .perms
                        .lock()
                        .expect("perms lock")
                        .entry(self.pid)
                        .or_default()
                        .insert(peer);
                }
                Effect::RdmaClose { peer } => {
                    if let Some(set) = self
                        .shared
                        .perms
                        .lock()
                        .expect("perms lock")
                        .get_mut(&self.pid)
                    {
                        set.remove(&peer);
                    }
                }
                Effect::RdmaCloseAll => {
                    self.shared
                        .perms
                        .lock()
                        .expect("perms lock")
                        .remove(&self.pid);
                }
                Effect::SetTimer { delay, tag, id } => {
                    self.timers.push(Reverse(RtTimer {
                        deadline: Instant::now() + Duration::from_micros(delay.as_micros()),
                        id,
                        tag,
                    }));
                    self.shared.pending.fetch_add(1, Ordering::AcqRel);
                }
                Effect::CancelTimer { id } => self.cancel_timer(id),
            }
        }
    }

    /// Counts the event as pending, then hands it to the target channel.
    /// A full channel buffers the event locally instead of blocking (see
    /// the module docs for why blocking could deadlock the shutdown drain).
    fn enqueue(&mut self, to: ProcessId, event: RtEvent<M>) {
        if !self.shared.live.contains(&to) {
            return; // crashed or unknown target: dropped, like the simulator
        }
        self.shared.pending.fetch_add(1, Ordering::AcqRel);
        match self.senders.get(&to).expect("live sender").try_send(event) {
            Ok(()) => {}
            Err(TrySendError::Full(event)) => self.overflow.push((to, event)),
            Err(TrySendError::Disconnected(_)) => {
                self.shared.pending.fetch_sub(1, Ordering::AcqRel);
            }
        }
    }

    fn flush_overflow(&mut self) {
        if self.overflow.is_empty() {
            return;
        }
        let buffered = std::mem::take(&mut self.overflow);
        for (to, event) in buffered {
            match self.senders.get(&to).expect("live sender").try_send(event) {
                Ok(()) => {}
                Err(TrySendError::Full(event)) => self.overflow.push((to, event)),
                Err(TrySendError::Disconnected(_)) => {
                    self.shared.pending.fetch_sub(1, Ordering::AcqRel);
                }
            }
        }
    }

    /// Cancels a timer on the local heap; a miss (already fired, or armed
    /// by a previous run) is recorded for the world's cancellation set.
    fn cancel_timer(&mut self, id: TimerId) {
        let before = self.timers.len();
        let kept: BinaryHeap<Reverse<RtTimer>> = self
            .timers
            .drain()
            .filter(|Reverse(timer)| timer.id != id)
            .collect();
        self.timers = kept;
        if self.timers.len() < before {
            self.shared.pending.fetch_sub(1, Ordering::AcqRel);
        } else {
            self.cancels.push(id);
        }
    }

    /// Shutdown: pledge to send nothing further, then drain the channel
    /// until every worker has made the same pledge and the channel is empty.
    /// Bounded by [`DRAIN_TIMEOUT`] so one stuck thread cannot hang the run.
    fn drain(self) -> WorkerDone<M> {
        self.shared.retired.fetch_add(1, Ordering::AcqRel);
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        let mut leftovers = Vec::new();
        loop {
            while let Ok(event) = self.rx.try_recv() {
                if !matches!(event, RtEvent::Stop) {
                    leftovers.push(event);
                }
            }
            let all_retired = self.shared.retired.load(Ordering::Acquire) >= self.shared.live.len();
            if all_retired || Instant::now() >= deadline {
                while let Ok(event) = self.rx.try_recv() {
                    if !matches!(event, RtEvent::Stop) {
                        leftovers.push(event);
                    }
                }
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        WorkerDone {
            pid: self.pid,
            actor: self.actor,
            metrics: self.metrics,
            leftovers,
            unsent: self.overflow,
            timers: self
                .timers
                .into_sorted_vec()
                .into_iter()
                .map(|Reverse(timer)| (timer.deadline, timer.id, timer.tag))
                .collect(),
            cancels: self.cancels,
            incarnation: self.incarnation,
            events_processed: self.events_processed,
        }
    }
}

/// Converts a channel event addressed to `pid` back into a world-queue
/// event, so undrained work survives into the next run (on either backend).
fn requeue<M>(pid: ProcessId, event: RtEvent<M>) -> Option<EventKind<M>> {
    match event {
        RtEvent::Deliver { from, msg, hops } => Some(EventKind::Deliver {
            from,
            to: pid,
            msg,
            hops,
        }),
        RtEvent::RdmaAck {
            target,
            token,
            hops,
        } => Some(EventKind::RdmaAck {
            sender: pid,
            target,
            token,
            hops,
        }),
        RtEvent::RdmaDeliver { index, hops } => Some(EventKind::RdmaDeliver {
            at: pid,
            index,
            hops,
        }),
        RtEvent::Stop => None,
    }
}

/// Runs `world` on the threaded backend until it quiesces (`until = None`)
/// or until virtual time reaches `until`, whichever comes first, bounded by
/// [`QUIESCENCE_TIMEOUT`]. Returns the number of events processed.
pub(crate) fn run_threaded<M>(world: &mut World<M>, until: Option<SimTime>) -> u64
where
    M: Clone + fmt::Debug + Send + 'static,
{
    let start_now = world.now;

    // -- extract: pull the pending queue out and split it ------------------
    let mut seeded: Vec<QueuedEvent<M>> = std::mem::take(&mut world.queue)
        .into_sorted_vec()
        .into_iter()
        .map(|Reverse(event)| event)
        .collect();
    seeded.reverse(); // `Reverse` sorts descending; restore (time, seq) order

    let mut channel_seeds: Vec<EventKind<M>> = Vec::new();
    let mut timer_seeds: BTreeMap<ProcessId, Vec<(SimDuration, TimerId, TimerTag)>> =
        BTreeMap::new();
    for QueuedEvent { time, kind, .. } in seeded {
        match kind {
            EventKind::Crash { at } => {
                // Mid-run crash schedules are a simulator feature; a crash
                // still pending when a threaded run starts takes effect at
                // the start of the run.
                world.crash(at);
            }
            EventKind::Timer {
                at,
                id,
                tag,
                incarnation,
            } => {
                if world.cancelled_timers.remove(&id)
                    || world.crashed.contains(&at)
                    || world.incarnations.get(&at).copied().unwrap_or(0) != incarnation
                {
                    continue;
                }
                let remaining = SimDuration::from_micros(
                    time.as_micros().saturating_sub(start_now.as_micros()),
                );
                timer_seeds
                    .entry(at)
                    .or_default()
                    .push((remaining, id, tag));
            }
            other => channel_seeds.push(other),
        }
    }

    let live: BTreeSet<ProcessId> = world
        .actors
        .keys()
        .filter(|pid| !world.crashed.contains(pid))
        .copied()
        .collect();
    if live.is_empty() {
        // Nothing can execute; put non-timer events back and advance time.
        for kind in channel_seeds {
            world.push_event(start_now, kind);
        }
        if let Some(until) = until {
            if world.now < until {
                world.now = until;
            }
        }
        return 0;
    }

    let obs_enabled = world.metrics.obs_enabled();
    let (perms, mut inboxes, rejected_base) = std::mem::take(&mut world.rdma).into_parts();
    let base_timer_id = world.next_timer_id;
    let base_rdma_token = world.next_rdma_token;

    let mut senders: BTreeMap<ProcessId, SyncSender<RtEvent<M>>> = BTreeMap::new();
    let mut receivers: BTreeMap<ProcessId, Receiver<RtEvent<M>>> = BTreeMap::new();
    for pid in &live {
        let (tx, rx) = sync_channel(CHANNEL_CAPACITY);
        senders.insert(*pid, tx);
        receivers.insert(*pid, rx);
    }

    let shared = Shared {
        live: live.clone(),
        pending: AtomicI64::new(0),
        stopping: AtomicBool::new(false),
        retired: AtomicUsize::new(0),
        perms: Mutex::new(perms),
        inboxes: world
            .actors
            .keys()
            .map(|pid| (*pid, Mutex::new(inboxes.remove(pid).unwrap_or_default())))
            .collect(),
        rejected: AtomicU64::new(0),
        epoch: Instant::now(),
        start_now,
    };

    let mut dones: Vec<WorkerDone<M>> = Vec::with_capacity(live.len());
    let mut seed_rejected = 0u64;

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(live.len());
        for (index, pid) in live.iter().copied().enumerate() {
            let actor = world
                .actors
                .get_mut(&pid)
                .and_then(Option::take)
                .expect("live actor present");
            let timers: BinaryHeap<Reverse<RtTimer>> = timer_seeds
                .remove(&pid)
                .unwrap_or_default()
                .into_iter()
                .map(|(remaining, id, tag)| {
                    shared.pending.fetch_add(1, Ordering::AcqRel);
                    Reverse(RtTimer {
                        deadline: shared.epoch + Duration::from_micros(remaining.as_micros()),
                        id,
                        tag,
                    })
                })
                .collect();
            let worker = Worker {
                pid,
                actor,
                shared: &shared,
                senders: senders.clone(),
                rx: receivers.remove(&pid).expect("receiver"),
                timers,
                overflow: Vec::new(),
                // Per-worker collectors inherit the observability switch so
                // milestone stamps recorded on worker threads survive the
                // post-run `absorb` into the world's collector.
                metrics: Metrics::with_obs(obs_enabled),
                next_timer_id: base_timer_id + (index as u64) * ID_STRIPE,
                next_rdma_token: base_rdma_token + (index as u64) * ID_STRIPE,
                incarnation: world.incarnations.get(&pid).copied().unwrap_or(0),
                events_processed: 0,
                cancels: Vec::new(),
            };
            handles.push(scope.spawn(move || worker.run()));
        }

        // -- seed: inject the pending events; threads are already draining --
        let seed = |to: ProcessId, event: RtEvent<M>| {
            if !shared.live.contains(&to) {
                return;
            }
            shared.pending.fetch_add(1, Ordering::AcqRel);
            if senders.get(&to).expect("live sender").send(event).is_err() {
                shared.pending.fetch_sub(1, Ordering::AcqRel);
            }
        };
        for kind in channel_seeds {
            match kind {
                EventKind::Deliver {
                    from,
                    to,
                    msg,
                    hops,
                } => seed(to, RtEvent::Deliver { from, msg, hops }),
                EventKind::RdmaArrive {
                    from,
                    to,
                    msg,
                    hops,
                    token,
                } => {
                    if !shared.live.contains(&to) {
                        continue;
                    }
                    match shared.rdma_arrive(from, to, msg) {
                        Some(index) => {
                            seed(to, RtEvent::RdmaDeliver { index, hops });
                            seed(
                                from,
                                RtEvent::RdmaAck {
                                    target: to,
                                    token,
                                    hops: hops + 1,
                                },
                            );
                        }
                        None => seed_rejected += 1,
                    }
                }
                EventKind::RdmaAck {
                    sender,
                    target,
                    token,
                    hops,
                } => seed(
                    sender,
                    RtEvent::RdmaAck {
                        target,
                        token,
                        hops,
                    },
                ),
                EventKind::RdmaDeliver { at, index, hops } => {
                    seed(at, RtEvent::RdmaDeliver { index, hops })
                }
                EventKind::Timer { .. } | EventKind::Crash { .. } => {
                    unreachable!("partitioned out above")
                }
            }
        }

        // -- wait: quiescence, the virtual deadline, or the hard timeout ----
        let until_deadline = until.map(|until| {
            shared.epoch
                + Duration::from_micros(until.as_micros().saturating_sub(start_now.as_micros()))
        });
        let hard_deadline = shared.epoch + QUIESCENCE_TIMEOUT;
        loop {
            if shared.pending.load(Ordering::Acquire) <= 0 {
                break;
            }
            let now = Instant::now();
            if until_deadline.is_some_and(|deadline| now >= deadline) || now >= hard_deadline {
                break;
            }
            std::thread::sleep(Duration::from_micros(500));
        }

        // -- stop: flag + sentinel (never blocks), then join ----------------
        shared.stopping.store(true, Ordering::Release);
        for pid in &live {
            let _ = senders.get(pid).expect("sender").try_send(RtEvent::Stop);
        }
        for handle in handles {
            dones.push(handle.join().expect("worker thread panicked"));
        }
    });

    // -- restore: clock, actors, metrics, fabric, surviving work ------------
    let elapsed = SimDuration::from_micros(shared.epoch.elapsed().as_micros() as u64);
    world.now = start_now + elapsed;
    if let Some(until) = until {
        if world.now < until {
            world.now = until;
        }
    }
    let end = Instant::now();
    let mut total_events = 0u64;
    for done in dones {
        total_events += done.events_processed;
        world.metrics.absorb(done.metrics);
        for event in done.leftovers {
            if let Some(kind) = requeue(done.pid, event) {
                world.push_event(world.now, kind);
            }
        }
        for (to, event) in done.unsent {
            if let Some(kind) = requeue(to, event) {
                world.push_event(world.now, kind);
            }
        }
        for (deadline, id, tag) in done.timers {
            let remaining = SimDuration::from_micros(
                deadline.saturating_duration_since(end).as_micros() as u64,
            );
            world.push_event(
                world.now + remaining,
                EventKind::Timer {
                    at: done.pid,
                    id,
                    tag,
                    incarnation: done.incarnation,
                },
            );
        }
        world.cancelled_timers.extend(done.cancels);
        if let Some(slot) = world.actors.get_mut(&done.pid) {
            *slot = Some(done.actor);
        }
    }
    world.steps += total_events;
    world.metrics.rdma_rejected += seed_rejected;

    let perms = shared.perms.into_inner().expect("perms lock");
    let inboxes: BTreeMap<ProcessId, RdmaInbox<M>> = shared
        .inboxes
        .into_iter()
        .map(|(pid, inbox)| (pid, inbox.into_inner().expect("inbox lock")))
        .collect();
    // `shared.rejected` already includes the seed-path rejections
    // (`rdma_arrive` bumps it before `seed_rejected` is incremented), so
    // only the pre-run base is added here. `seed_rejected` feeds
    // `world.metrics` above instead: seed rejections happen on the driver
    // thread and are in no worker's absorbed metrics.
    let rejected = rejected_base + shared.rejected.load(Ordering::Acquire);
    world.rdma = RdmaFabric::from_parts(perms, inboxes, rejected);
    world.next_timer_id = base_timer_id + (live.len() as u64) * ID_STRIPE;
    world.next_rdma_token = base_rdma_token + (live.len() as u64) * ID_STRIPE;
    total_events
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::world::SimConfig;

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Ping,
        Pong,
        Note(u64),
    }

    #[derive(Default)]
    struct Recorder {
        messages: Vec<(ProcessId, Msg)>,
        rdma_messages: Vec<(ProcessId, Msg)>,
        acks: Vec<RdmaToken>,
        timers: Vec<TimerTag>,
    }

    impl Actor<Msg> for Recorder {
        fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Context<'_, Msg>) {
            if msg == Msg::Ping {
                ctx.send(from, Msg::Pong);
            }
            self.messages.push((from, msg));
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
    }

    /// How often [`Probe`]'s `Debug` was entered, and how often it got as far
    /// as its field.
    #[derive(Default)]
    struct DebugCalls {
        entered: AtomicU64,
        fields: AtomicU64,
    }

    /// A ping-pong message that counts what is formatted of it.
    #[derive(Clone)]
    enum Probe {
        Ping(Arc<DebugCalls>),
        Pong(Arc<DebugCalls>),
    }

    impl fmt::Debug for Probe {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let (name, calls) = match self {
                Probe::Ping(calls) => ("Ping", calls),
                Probe::Pong(calls) => ("Pong", calls),
            };
            calls.entered.fetch_add(1, Ordering::Relaxed);
            f.write_str(name)?;
            f.write_str("(")?;
            calls.fields.fetch_add(1, Ordering::Relaxed);
            f.write_str("calls)")
        }
    }

    struct ProbeReturner;

    impl Actor<Probe> for ProbeReturner {
        fn on_message(&mut self, from: ProcessId, msg: Probe, ctx: &mut Context<'_, Probe>) {
            if let Probe::Ping(calls) = msg {
                ctx.send(from, Probe::Pong(calls));
            }
        }
    }

    /// One ping and its pong on the chosen engine: `(entered, fields)` of
    /// the message's `Debug`, and the world for its metrics.
    fn probe_ping_pong(obs: bool, threaded: bool) -> (u64, u64, World<Probe>) {
        let calls = Arc::new(DebugCalls::default());
        let mut w = World::new(SimConfig {
            obs,
            ..SimConfig::default()
        });
        let a = w.add_actor(ProbeReturner);
        let b = w.add_actor(ProbeReturner);
        w.send_from(a, b, Probe::Ping(calls.clone()));
        if threaded {
            w.run_threaded();
        } else {
            w.run();
        }
        assert_eq!(w.metrics().total_delivered, 2, "ping and pong delivered");
        (
            calls.entered.load(Ordering::Relaxed),
            calls.fields.load(Ordering::Relaxed),
            w,
        )
    }

    #[test]
    fn nothing_is_formatted_with_observability_off() {
        for threaded in [false, true] {
            let (entered, _, w) = probe_ping_pong(false, threaded);
            assert_eq!(entered, 0, "threaded={threaded}: Debug ran unasked");
            assert_eq!(w.metrics().msg_type_counters().count(), 0);
        }
    }

    #[test]
    fn observability_formats_the_label_and_no_field() {
        for threaded in [false, true] {
            let (entered, fields, w) = probe_ping_pong(true, threaded);
            // Ping sent and delivered, Pong sent and delivered.
            assert_eq!(entered, 4, "threaded={threaded}");
            assert_eq!(fields, 0, "threaded={threaded}: a field was formatted");
            for label in ["Ping", "Pong"] {
                let counts = w.metrics().msg_type(label);
                assert_eq!((counts.sent, counts.delivered), (1, 1), "{label}");
            }
        }
    }

    #[test]
    fn execution_mode_default_and_display() {
        assert_eq!(ExecutionMode::default(), ExecutionMode::Sim);
        assert_eq!(ExecutionMode::Sim.to_string(), "sim");
        assert_eq!(ExecutionMode::Threads.to_string(), "threads");
    }

    #[test]
    fn threaded_ping_pong_round_trip() {
        let mut w = World::new(SimConfig::default());
        let a = w.add_actor(Recorder::default());
        let b = w.add_actor(Recorder::default());
        w.send_from(a, b, Msg::Ping);
        let events = w.run_threaded();
        assert!(events >= 2, "ping and pong both executed, got {events}");
        assert_eq!(
            w.actor::<Recorder>(b).expect("b").messages,
            vec![(a, Msg::Ping)]
        );
        assert_eq!(
            w.actor::<Recorder>(a).expect("a").messages,
            vec![(b, Msg::Pong)]
        );
        assert_eq!(w.metrics().received(b), 1);
        assert_eq!(w.metrics().sent(b), 1);
        assert_eq!(w.metrics().total_delivered, 2);
    }

    #[test]
    fn threaded_fifo_order_is_preserved_per_link() {
        let mut w = World::new(SimConfig::default());
        let a = w.add_actor(Recorder::default());
        let b = w.add_actor(Recorder::default());
        for i in 0..200 {
            w.send_from(a, b, Msg::Note(i));
        }
        w.run_threaded();
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
        assert_eq!(notes, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn threaded_timers_fire_and_clock_advances() {
        struct TimerOnStart;
        impl Actor<Msg> for TimerOnStart {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.set_timer(SimDuration::from_micros(500), 7);
            }
            fn on_message(&mut self, _f: ProcessId, _m: Msg, _c: &mut Context<'_, Msg>) {}
            fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<'_, Msg>) {
                ctx.add_counter("fired", tag);
            }
        }
        let mut w = World::new(SimConfig::default());
        let before = w.now();
        w.add_actor(TimerOnStart);
        w.run_threaded();
        assert_eq!(w.metrics().counter("fired"), 7);
        assert!(w.now() > before, "wall-clock time advanced the sim clock");
    }

    #[test]
    fn threaded_timer_cancel_prevents_fire() {
        struct CancelOnStart;
        impl Actor<Msg> for CancelOnStart {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                let id = ctx.set_timer(SimDuration::from_millis(200), 1);
                ctx.set_timer(SimDuration::from_micros(10), 2);
                ctx.cancel_timer(id);
            }
            fn on_message(&mut self, _f: ProcessId, _m: Msg, _c: &mut Context<'_, Msg>) {}
            fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<'_, Msg>) {
                ctx.add_counter(if tag == 1 { "fired1" } else { "fired2" }, 1);
            }
        }
        let mut w = World::new(SimConfig::default());
        w.add_actor(CancelOnStart);
        let start = Instant::now();
        w.run_threaded();
        assert_eq!(w.metrics().counter("fired1"), 0, "cancelled timer");
        assert_eq!(w.metrics().counter("fired2"), 1);
        assert!(
            start.elapsed() < Duration::from_millis(150),
            "cancelling released the pending count; the run did not wait 200ms"
        );
    }

    #[test]
    fn threaded_rdma_write_ack_and_delivery() {
        struct RdmaSender {
            to: ProcessId,
        }
        impl Actor<Msg> for RdmaSender {
            fn on_message(&mut self, _f: ProcessId, _m: Msg, ctx: &mut Context<'_, Msg>) {
                ctx.rdma_send(self.to, Msg::Note(99));
            }
        }
        let mut w = World::new(SimConfig::default());
        let receiver = w.add_actor(Recorder::default());
        let driver = w.add_actor(RdmaSender { to: receiver });
        w.rdma_open(receiver, driver);
        w.send_external(driver, Msg::Ping);
        w.run_threaded();
        assert_eq!(
            w.actor::<Recorder>(receiver).expect("r").rdma_messages,
            vec![(driver, Msg::Note(99))]
        );
        assert_eq!(w.metrics().process(driver).rdma_acks, 1);
        assert_eq!(w.rdma_rejected(), 0);
    }

    #[test]
    fn threaded_rdma_write_without_permission_is_rejected() {
        struct RdmaSender {
            to: ProcessId,
        }
        impl Actor<Msg> for RdmaSender {
            fn on_message(&mut self, _f: ProcessId, _m: Msg, ctx: &mut Context<'_, Msg>) {
                ctx.rdma_send(self.to, Msg::Note(1));
            }
        }
        let mut w = World::new(SimConfig::default());
        let receiver = w.add_actor(Recorder::default());
        let driver = w.add_actor(RdmaSender { to: receiver });
        // No rdma_open: the write must be rejected and never acknowledged.
        w.send_external(driver, Msg::Ping);
        w.run_threaded();
        assert_eq!(w.rdma_rejected(), 1);
        assert_eq!(w.metrics().rdma_rejected, 1);
        assert!(w
            .actor::<Recorder>(receiver)
            .expect("r")
            .rdma_messages
            .is_empty());
        assert_eq!(w.metrics().process(driver).rdma_acks, 0);
    }

    /// A write rejected on the *seed* path (queued in the world before the
    /// threaded run starts) must count exactly once in the fabric counter
    /// and once in metrics — the driver bumps `Shared::rejected` inside
    /// `rdma_arrive` and separately tallies `seed_rejected`, and these were
    /// once summed together, double-counting every seed rejection.
    #[test]
    fn threaded_seed_path_rejection_counts_once() {
        let mut w = World::new(SimConfig::default());
        let receiver = w.add_actor(Recorder::default());
        let sender = w.add_actor(Recorder::default());
        // No rdma_open: the queued write must be rejected during seeding.
        w.rdma_send_from(sender, receiver, Msg::Note(7));
        w.run_threaded();
        assert_eq!(w.rdma_rejected(), 1, "fabric counts the rejection once");
        assert_eq!(w.metrics().rdma_rejected, 1, "metrics count it once");
        assert!(w
            .actor::<Recorder>(receiver)
            .expect("r")
            .rdma_messages
            .is_empty());
    }

    #[test]
    fn threaded_run_skips_crashed_processes() {
        let mut w = World::new(SimConfig::default());
        let a = w.add_actor(Recorder::default());
        let b = w.add_actor(Recorder::default());
        w.crash(b);
        w.send_from(a, b, Msg::Ping);
        w.run_threaded();
        assert!(w.actor::<Recorder>(b).expect("b").messages.is_empty());
        // A later sim run on the same world still works (backends alternate).
        w.restart(b);
        w.send_from(a, b, Msg::Ping);
        w.run();
        assert_eq!(w.actor::<Recorder>(b).expect("b").messages.len(), 1);
    }

    #[test]
    fn threaded_then_sim_interleaving_preserves_pending_events() {
        let mut w = World::new(SimConfig::default());
        let a = w.add_actor(Recorder::default());
        let b = w.add_actor(Recorder::default());
        // First run on threads, then inject more and run the simulator.
        w.send_from(a, b, Msg::Note(1));
        w.run_threaded();
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
        assert_eq!(notes, vec![1, 2]);
    }

    #[test]
    fn threaded_run_until_returns_by_deadline_with_idle_timer() {
        struct SlowTimer;
        impl Actor<Msg> for SlowTimer {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                // Far beyond the run deadline; must survive into the queue.
                ctx.set_timer(SimDuration::from_millis(10_000), 1);
            }
            fn on_message(&mut self, _f: ProcessId, _m: Msg, _c: &mut Context<'_, Msg>) {}
        }
        let mut w = World::new(SimConfig::default());
        w.add_actor(SlowTimer);
        let start = Instant::now();
        let until = w.now() + SimDuration::from_millis(20);
        w.run_threaded_until(until);
        assert!(start.elapsed() < Duration::from_secs(5), "returned early");
        assert!(w.now() >= until);
    }
}
