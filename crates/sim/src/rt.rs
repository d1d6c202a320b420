//! Threaded execution backend: a pool of worker threads over per-process
//! mailboxes.
//!
//! The deterministic simulator ([`World::run`](crate::world::World::run))
//! executes every actor on one thread under a virtual clock. This module is
//! the second engine for the *same* world: every live process gets a
//! mailbox, and W worker threads (the host's available parallelism, at most
//! one per live process) run the processes whose mailboxes hold events. A
//! send to an idle process puts it on the run queue of its *home* worker; a
//! worker takes its own ready processes first and steals only when it has
//! none. One activation handles at most `ACTIVATION_BUDGET` events of one
//! process, so an actor never runs on two threads at once, per-link FIFO
//! holds, and a process that keeps messaging itself cannot starve the
//! others. Timers sit in one deadline heap on the monotonic wall clock, and
//! `ctx.now()` advances with real elapsed time: a handler reads the clock
//! when it first asks for the time and keeps that reading until it returns,
//! and one that never asks never reads it (see [`Context::now`]). A
//! [`Context`] only *buffers* effects, and a handler works on a part of its
//! process's RDMA inbox detached under a short lock, so a worker holds no
//! lock while actor code runs: deadlock-free by construction, and an RDMA
//! write lands in a peer's memory without waiting for the peer's handler
//! (§5's "without involving the latter's CPU").
//!
//! A threaded run is a bracketed excursion: [`World::run_threaded`] moves the
//! actors, the pending event queue and the RDMA fabric out of the world,
//! executes in real time, then moves everything back — unhandled events and
//! armed timers are re-queued, per-process metrics merged, and the virtual
//! clock advanced by the real elapsed microseconds. Everything a harness
//! does *between* runs (submit, crash, restart, introspection) therefore
//! works identically on both backends, and a single cluster can even
//! alternate engines between runs.
//!
//! Fidelity notes, in decreasing order of importance:
//!
//! * **Decisions, not schedules.** A threaded run preserves the protocol
//!   contract (reliable per-link FIFO delivery, timer/incarnation semantics,
//!   RDMA open/close/ack/flush) but not the simulator's deterministic event
//!   order. Same-seed reproducibility is a simulator feature; the threaded
//!   backend exists to measure wall-clock behaviour and to let real
//!   concurrency attack ordering assumptions the simulator cannot.
//! * **Mailboxes are unbounded**, so a send never blocks a worker; memory
//!   stays proportional to the traffic actually in flight.
//! * **Quiescence is counted, not polled.** One counter covers every queued
//!   event, armed timer and running activation; the worker whose release
//!   takes it to zero wakes the caller. [`QUIESCENCE_TIMEOUT`] bounds whole
//!   runs, so a deadlocked or livelocked run returns with work still pending
//!   (and the suite's assertions fail) instead of hanging a test job.
//! * **A panicking actor fails the run by name**: the run stops at once and,
//!   once the world is restored, `run_threaded` panics naming the process and
//!   the handler.
//! * **Sim-only features.** Fault injection, the latency models (constants
//!   of the simulator) and its step cap apply only to the simulator; the
//!   threaded backend models a reliable LAN where real scheduling provides
//!   the nondeterminism. Every send, RDMA delivery and acknowledgement passes
//!   one seam (`Worker::enqueue`), where fault injection would hook in.
//!   Crashes and restarts happen between runs, so a threaded run has no
//!   pending crash to apply.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use ratc_types::ProcessId;

use crate::actor::{dispatch, Actor, Clock, Context, Effect, TimerId, TimerTag, Upcall};
use crate::event::{EventKind, QueuedEvent};
use crate::metrics::Metrics;
use crate::rdma::{RdmaFabric, RdmaInbox, RdmaPermissions, RdmaToken};
use crate::time::{SimDuration, SimTime};
use crate::world::World;

/// Which engine executes the actors of a world (or of a cluster built on
/// one).
///
/// * [`ExecutionMode::Sim`] — the deterministic discrete-event simulator:
///   single-threaded, virtual time, seeded randomness and fault injection.
///   Identical seeds give bit-identical runs, which is what every chaos
///   soak, shrunk schedule and Figure 4a hunt relies on.
/// * [`ExecutionMode::Threads`] — the threaded runtime in this module: a
///   pool of worker threads, one per core, over per-process mailboxes;
///   timers and latencies on the monotonic wall clock. Runs are *not*
///   reproducible event-by-event (real scheduling decides interleavings)
///   but externalise the same protocol-level semantics; the benchmark's
///   `*-threads` workloads measure real committed tx/s on it.
///
/// The trade-off in one line: `Sim` answers "is it correct on this exact
/// schedule, again and again", `Threads` answers "how fast is it, and does
/// it survive schedules nobody picked".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecutionMode {
    /// Deterministic single-threaded simulation under a virtual clock.
    #[default]
    Sim,
    /// A worker pool over per-process mailboxes, real time.
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

/// Most events one activation handles before its process goes back on the
/// run queue behind the others.
const ACTIVATION_BUDGET: usize = 32;

/// Size of the timer-id / RDMA-token space carved out per process per run,
/// so workers can allocate identifiers without synchronising.
const ID_STRIPE: u64 = 1 << 24;

/// Worker threads the host can run at once, worked out once and cached.
fn host_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

/// An entry of the run's deadline heap: earliest deadline first.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct RtTimer {
    deadline: Instant,
    id: TimerId,
    pid: ProcessId,
    tag: TimerTag,
}

/// A process's queued events: deliveries, RDMA acknowledgements and
/// deliveries, and timers that fell due (which fire only if still armed when
/// handled). `scheduled` is set from the push that finds the process idle
/// until an activation leaves its mailbox empty: while it is set the process
/// is on exactly one run queue or in exactly one activation, which keeps a
/// sender's pushes in order at the receiver (per-link FIFO).
struct Mailbox<M> {
    events: VecDeque<EventKind<M>>,
    scheduled: bool,
}

/// What only the worker activating a process touches.
struct Slot<M> {
    actor: Box<dyn Actor<M>>,
    /// Inherits the world's observability switch; merged into the world's
    /// collector in process order after the run, as if the process had
    /// recorded alone.
    metrics: Metrics,
    /// Timers set and neither fired nor cancelled.
    armed: BTreeSet<TimerId>,
    /// Cancellations that found no armed timer (fired already, or armed by
    /// a previous run).
    cancels: Vec<TimerId>,
    next_timer_id: u64,
    next_rdma_token: u64,
}

/// A live process.
struct Proc<M> {
    pid: ProcessId,
    incarnation: u64,
    /// Its place among the live processes. Its home worker, whose run queue
    /// it joins when it becomes ready, is `rank % workers`.
    rank: usize,
    mailbox: Mutex<Mailbox<M>>,
    /// Its RDMA memory, locked by writers landing a write, by the delivery
    /// of one, and around each handler to detach the part the handler may
    /// `rdma_flush` and to reattach it; never across actor code.
    inbox: Mutex<RdmaInbox<M>>,
    /// Uncontended (the `scheduled` flag admits one activation at a time);
    /// its unlock → lock edge hands the actor from one worker to the next.
    slot: Mutex<Slot<M>>,
}

/// Scheduler state, behind [`Shared::sched`].
struct Sched {
    /// Per worker, the ready processes whose home it is.
    ready: Vec<VecDeque<ProcessId>>,
    /// Workers waiting on their [`Shared::wake`] condvar.
    idle: Vec<bool>,
    /// Every timer armed during the run, plus cancelled ones not yet due.
    timers: BinaryHeap<Reverse<RtTimer>>,
    /// The first actor panic, re-raised by the caller after the join.
    failure: Option<String>,
}

/// State shared by the calling thread and every worker for the duration of a run.
///
/// Happens-before edges, one per synchronising object:
///
/// * A `mailbox` lock orders a push before the pop that hands the event to
///   an activation, and an activation's last access to its process before
///   the next activation's first (both lock the mailbox in between).
/// * An `inbox` lock orders a write's landing before the detach or delivery
///   that hands it to the owner, and a handler's reattach before the next
///   detach.
/// * [`Shared::sched`] orders run-queue pushes before pops, arming a timer
///   before the worker that moves it into a mailbox, and the idle flags and
///   `failure`. Every condvar is notified with `sched` held and every waiter
///   re-checks its condition under it, so no wake-up is lost between a
///   check and a wait.
/// * [`Shared::pending`] — `AcqRel` RMWs, `Acquire` load. A unit is added
///   *before* the event or timer it covers is published (the push's mailbox
///   unlock, the arm's `sched` unlock), so the consumer's matching release
///   follows it in the counter's modification order and the counter never
///   under-approximates the work left. An activation keeps the units of the
///   events it handled until it ends (one release per activation) and lends
///   them to the sends it makes while it keeps one, so the counter cannot
///   reach zero while any handler runs. The release that reaches zero
///   happens-before the caller's `Acquire` load of zero: the caller then
///   sees a quiescent run.
/// * [`Shared::stopping`] — stored `Release` under `sched` by the caller or
///   by a worker reporting a panic, loaded `Acquire` by workers before each
///   event. It publishes nothing of its own: the join orders every worker's
///   writes before the caller restores the world.
/// * [`Shared::rejected`] — `Relaxed` `fetch_add` is sufficient: the
///   counter guards no other memory, atomic RMWs never lose increments,
///   and the final read happens after `std::thread::scope` joins every
///   worker, which already orders all their increments before it.
struct Shared<M> {
    /// Live processes, indexed by raw process id (`None`: crashed).
    procs: Vec<Option<Proc<M>>>,
    /// Units of in-flight work: queued events, armed timers, and the units
    /// running activations hold. Zero means quiescent.
    pending: AtomicI64,
    /// Set to end the run.
    stopping: AtomicBool,
    sched: Mutex<Sched>,
    /// One per worker: work landed on its queue, an earlier timer was armed,
    /// or the run is stopping.
    wake: Vec<Condvar>,
    /// The caller's: `pending` reached zero, or an actor panicked.
    quiet: Condvar,
    /// Writers lock `perms` then the target inbox (one global lock order),
    /// both briefly: no handler holds an inbox while it runs. An `open` or
    /// `close` is applied here after its handler returns and before that
    /// process's next handler starts, so a write can never land between a
    /// close and a later handler's flush (Figure 8).
    perms: Mutex<RdmaPermissions>,
    /// RDMA writes rejected because the connection was closed. `Relaxed`
    /// increments; completeness comes from the scope join (see above), not
    /// from this atomic's ordering.
    rejected: AtomicU64,
    /// Wall-clock origin of the run; a handler's `ctx.now()` is
    /// `start_now` + elapsed.
    epoch: Instant,
    /// Virtual time at which the run started.
    start_now: SimTime,
}

impl<M> Shared<M> {
    /// The live process `pid`, if there is one.
    fn proc(&self, pid: ProcessId) -> Option<&Proc<M>> {
        self.procs
            .get(usize::try_from(pid.as_u64()).ok()?)?
            .as_ref()
    }

    fn lock_sched(&self) -> MutexGuard<'_, Sched> {
        self.sched.lock().expect("sched lock")
    }

    fn perms(&self) -> MutexGuard<'_, RdmaPermissions> {
        self.perms.lock().expect("perms lock")
    }

    /// Lands an RDMA write from `from`, arriving with `hops`, in `to`'s
    /// memory if `from` may write there: returns the delivery at `to` and
    /// the acknowledgement to `from`, or `None` if the write was rejected
    /// (counted here; the caller records metrics).
    fn rdma_arrive(
        &self,
        from: ProcessId,
        to: &Proc<M>,
        msg: M,
        token: RdmaToken,
        hops: u32,
    ) -> Option<[EventKind<M>; 2]> {
        let perms = self.perms();
        if !perms.is_open(to.pid, from) {
            drop(perms);
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let index = to.inbox.lock().expect("inbox lock").push(from, msg);
        let at = to.pid;
        Some([
            EventKind::RdmaDeliver { at, index, hops },
            EventKind::RdmaAck {
                sender: from,
                target: at,
                token,
                hops: hops + 1,
            },
        ])
    }

    /// Appends `event` to `to`'s mailbox, which the caller has counted in
    /// `pending`; `true` if `to` was idle and must now be made ready.
    fn post(to: &Proc<M>, event: EventKind<M>) -> bool {
        let mut mailbox = to.mailbox.lock().expect("mailbox lock");
        mailbox.events.push_back(event);
        !std::mem::replace(&mut mailbox.scheduled, true)
    }

    /// [`Shared::post`], then the run queue if `to` was idle.
    fn push(&self, to: &Proc<M>, event: EventKind<M>) {
        if Self::post(to, event) {
            self.make_ready(&mut self.lock_sched(), to);
        }
    }

    /// Queues `proc` on its home worker, waking it if it waits.
    fn make_ready(&self, sched: &mut Sched, proc: &Proc<M>) {
        let home = proc.rank % sched.ready.len();
        sched.ready[home].push_back(proc.pid);
        self.wake_home(sched, home);
    }

    /// Wakes worker `home` if it waits. Another worker finds the process
    /// only when it next looks for work: stealing never wakes anyone.
    fn wake_home(&self, sched: &mut Sched, home: usize) {
        if std::mem::take(&mut sched.idle[home]) {
            self.wake[home].notify_one();
        }
    }

    /// Arms `proc`'s timer `id` (its `armed` set is passed in) for
    /// `deadline`; if it is now the earliest, `proc`'s home worker, if it
    /// waits, wakes to shorten its wait.
    fn arm(
        &self,
        proc: &Proc<M>,
        armed: &mut BTreeSet<TimerId>,
        id: TimerId,
        tag: TimerTag,
        deadline: Instant,
    ) {
        armed.insert(id);
        let pid = proc.pid;
        let timer = RtTimer {
            deadline,
            id,
            pid,
            tag,
        };
        let mut sched = self.lock_sched();
        let earliest = sched.timers.peek().is_none_or(|Reverse(top)| timer < *top);
        sched.timers.push(Reverse(timer));
        if earliest {
            let home = proc.rank % sched.ready.len();
            self.wake_home(&mut sched, home);
        }
    }

    /// Moves every due timer into its process's mailbox. Returns the
    /// deadline of the earliest timer not yet due.
    fn fire_due(&self, sched: &mut Sched) -> Option<Instant> {
        let now = (!sched.timers.is_empty()).then(Instant::now)?;
        while let Some(Reverse(top)) = sched.timers.peek() {
            if top.deadline > now {
                return Some(top.deadline);
            }
            let Reverse(timer) = sched.timers.pop().expect("peeked");
            let proc = self
                .proc(timer.pid)
                .expect("timers belong to live processes");
            let event = EventKind::Timer {
                at: timer.pid,
                id: timer.id,
                tag: timer.tag,
                incarnation: proc.incarnation,
            };
            if Self::post(proc, event) {
                self.make_ready(sched, proc);
            }
        }
        None
    }

    /// Gives back `units` of `pending`; the release that reaches zero wakes
    /// the caller.
    fn release(&self, units: i64) {
        if units > 0 && self.pending.fetch_sub(units, Ordering::AcqRel) == units {
            let _sched = self.lock_sched();
            self.quiet.notify_one();
        }
    }

    /// Ends the run, recording `failure` if it is the first: workers finish
    /// the event in hand and exit, and a waiting caller wakes.
    fn stop(&self, failure: Option<String>) {
        let mut sched = self.lock_sched();
        sched.failure = sched.failure.take().or(failure);
        self.stopping.store(true, Ordering::Release);
        for wake in &self.wake {
            wake.notify_one();
        }
        self.quiet.notify_one();
    }

    /// Blocks the caller until nothing is pending, an actor panicked, or
    /// `deadline` passes.
    fn await_quiescence(&self, deadline: Instant) {
        let busy = |_: &mut Sched| {
            self.pending.load(Ordering::Acquire) > 0 && !self.stopping.load(Ordering::Acquire)
        };
        let left = deadline.saturating_duration_since(Instant::now());
        let waited = self.quiet.wait_timeout_while(self.lock_sched(), left, busy);
        drop(waited.expect("sched lock"));
    }
}

/// One worker thread of the pool.
struct Worker<'s, M> {
    shared: &'s Shared<M>,
    index: usize,
    events_processed: u64,
    /// `pending` units the current activation holds: one per event it
    /// handled and per armed timer it cancelled, less those lent to sends.
    held: i64,
    /// The effect buffer the next handler's [`Context`] borrows, drained and
    /// kept after each handler.
    spare_effects: Vec<Effect<M>>,
}

impl<M: Clone + fmt::Debug + Send + 'static> Worker<'_, M> {
    fn run(mut self) -> u64 {
        let shared = self.shared;
        while let Some(pid) = self.next_ready() {
            self.activate(shared.proc(pid).expect("ready processes are live"));
        }
        self.events_processed
    }

    /// The next process to activate — own queue first, then any other —
    /// moving due timers into mailboxes on the way; waits while there is
    /// none. `None` once the run stops.
    fn next_ready(&self) -> Option<ProcessId> {
        let shared = self.shared;
        let mut sched = shared.lock_sched();
        loop {
            if shared.stopping.load(Ordering::Acquire) {
                return None;
            }
            let next_deadline = shared.fire_due(&mut sched);
            let own = sched.ready[self.index].pop_front();
            if let Some(pid) = own.or_else(|| sched.ready.iter_mut().find_map(VecDeque::pop_front))
            {
                return Some(pid);
            }
            sched.idle[self.index] = true;
            let wait = next_deadline.map_or(Duration::MAX, |deadline| {
                deadline.saturating_duration_since(Instant::now())
            });
            let wake = &shared.wake[self.index];
            sched = wake.wait_timeout(sched, wait).expect("sched lock").0;
            sched.idle[self.index] = false;
        }
    }

    /// Handles up to [`ACTIVATION_BUDGET`] of `proc`'s events, puts it back
    /// on the run queue if its mailbox is not empty, and releases the
    /// activation's units.
    fn activate(&mut self, proc: &Proc<M>) {
        let shared = self.shared;
        let mut batch: VecDeque<EventKind<M>> = {
            let mut mailbox = proc.mailbox.lock().expect("mailbox lock");
            let take = mailbox.events.len().min(ACTIVATION_BUDGET);
            mailbox.events.drain(..take).collect()
        };
        {
            let mut slot = proc.slot.lock().expect("slot lock");
            while let Some(event) = batch.pop_front() {
                if shared.stopping.load(Ordering::Acquire) {
                    batch.push_front(event);
                    break;
                }
                self.handle(proc, &mut slot, event);
            }
        }
        let requeue = {
            let mut mailbox = proc.mailbox.lock().expect("mailbox lock");
            // Events a stop left unhandled go back in front, in order.
            while let Some(event) = batch.pop_back() {
                mailbox.events.push_front(event);
            }
            mailbox.scheduled = !mailbox.events.is_empty();
            mailbox.scheduled
        };
        if requeue {
            shared.make_ready(&mut shared.lock_sched(), proc);
        }
        shared.release(std::mem::take(&mut self.held));
    }

    /// Processes one mailbox event: upcall, effects, accounting.
    fn handle(&mut self, proc: &Proc<M>, slot: &mut Slot<M>, event: EventKind<M>) {
        if let EventKind::Timer { id, .. } = &event {
            if !slot.armed.remove(id) {
                return; // cancelled after it fell due: its unit is gone
            }
        }
        self.held += 1;
        self.events_processed += 1;
        let metrics = &mut slot.metrics;
        let (upcall, hops) = match event {
            EventKind::Deliver {
                from, msg, hops, ..
            } => {
                metrics.on_receive(proc.pid);
                metrics.on_msg_delivered(&msg);
                (Upcall::Message { from, msg }, hops)
            }
            EventKind::RdmaAck {
                target,
                token,
                hops,
                ..
            } => {
                metrics.on_rdma_ack(proc.pid);
                (Upcall::RdmaAck { token, to: target }, hops)
            }
            EventKind::RdmaDeliver { index, hops, .. } => {
                let entry = proc
                    .inbox
                    .lock()
                    .expect("inbox lock")
                    .take_for_delivery(index);
                let Some((from, msg)) = entry else {
                    return; // already delivered by a flush
                };
                metrics.on_rdma_deliver(proc.pid);
                metrics.on_msg_delivered(&msg);
                (Upcall::RdmaDeliver { from, msg }, hops)
            }
            EventKind::Timer { tag, .. } => (Upcall::Timer { tag }, 0),
            EventKind::RdmaArrive { .. } => unreachable!("writes land before they are posted"),
        };
        self.invoke(proc, slot, upcall, hops);
    }

    /// Drives the actor through the shared [`dispatch`] seam, then applies
    /// the buffered effects. A panic stops the run instead.
    ///
    /// The handler gets the writes that landed before it began, detached
    /// from the process's inbox under a short lock, so writers keep landing
    /// while it runs; its part goes back in front of theirs afterwards. A
    /// flush is thus linearized at the handler's start, and a write that
    /// lands during the handler is delivered by its own `RdmaDeliver`.
    ///
    /// The handler's clock is read only if it asks for the time (see
    /// [`Context::now`]).
    fn invoke(&mut self, proc: &Proc<M>, slot: &mut Slot<M>, upcall: Upcall<M>, hops: u32) {
        let handler = upcall.handler();
        let mut inbox = proc.inbox.lock().expect("inbox lock").detach();
        let clock = Clock::Unread {
            epoch: self.shared.epoch,
            start: self.shared.start_now,
        };
        let mut ctx = Context {
            self_id: proc.pid,
            clock: Cell::new(clock),
            hops,
            effects: std::mem::take(&mut self.spare_effects),
            metrics: &mut slot.metrics,
            inbox: &mut inbox,
            next_timer_id: &mut slot.next_timer_id,
            next_rdma_token: &mut slot.next_rdma_token,
        };
        let actor = slot.actor.as_mut();
        let outcome = catch_unwind(AssertUnwindSafe(|| dispatch(actor, upcall, &mut ctx)));
        let (mut effects, panic) = (ctx.effects, outcome.err());
        proc.inbox.lock().expect("inbox lock").reattach(inbox);
        if let Some(payload) = panic {
            let cause = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string payload");
            let report = format!("actor {} panicked in {handler}: {cause}", proc.pid);
            self.shared.stop(Some(report));
            return;
        }
        self.apply_effects(proc, slot, &mut effects, hops);
        self.spare_effects = effects;
    }

    /// Applies and drains `effects`, leaving its capacity for the next
    /// handler.
    fn apply_effects(
        &mut self,
        proc: &Proc<M>,
        slot: &mut Slot<M>,
        effects: &mut Vec<Effect<M>>,
        hops: u32,
    ) {
        let pid = proc.pid;
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => {
                    slot.metrics.on_msg_sent(&msg);
                    self.enqueue(EventKind::Deliver {
                        from: pid,
                        to,
                        msg,
                        hops: hops + 1,
                        reserved: false,
                    })
                }
                Effect::RdmaSend { to, msg, token } => {
                    slot.metrics.on_msg_sent(&msg);
                    let Some(target) = self.shared.proc(to) else {
                        continue; // crashed target: write lost, no ack
                    };
                    // The write arrives with `hops + 1`, like the
                    // simulator's; the acknowledgement adds one more.
                    match self.shared.rdma_arrive(pid, target, msg, token, hops + 1) {
                        Some(events) => events.into_iter().for_each(|e| self.enqueue(e)),
                        None => slot.metrics.rdma_rejected += 1,
                    }
                }
                Effect::RdmaOpen { peer } => self.shared.perms().open(pid, peer),
                Effect::RdmaClose { peer } => self.shared.perms().close(pid, peer),
                Effect::RdmaCloseAll => self.shared.perms().close_all(pid),
                Effect::SetTimer { delay, tag, id } => {
                    self.take_unit();
                    let deadline = Instant::now() + Duration::from_micros(delay.as_micros());
                    self.shared.arm(proc, &mut slot.armed, id, tag, deadline);
                }
                Effect::CancelTimer { id } => {
                    if slot.armed.remove(&id) {
                        // Its unit joins the activation's; the heap entry
                        // stays and is dropped when it falls due.
                        self.held += 1;
                    } else {
                        slot.cancels.push(id);
                    }
                }
            }
        }
    }

    /// The one send seam: counts `event` in `pending`, then posts it to its
    /// process's mailbox. A crashed or unknown target drops it, like the
    /// simulator.
    fn enqueue(&mut self, event: EventKind<M>) {
        let Some(target) = self.shared.proc(event.process()) else {
            return;
        };
        self.take_unit();
        self.shared.push(target, event);
    }

    /// Covers one new event or timer in `pending`: with a unit the
    /// activation holds while it keeps one for itself, else a fresh one.
    fn take_unit(&mut self) {
        if self.held > 1 {
            self.held -= 1;
        } else {
            self.shared.pending.fetch_add(1, Ordering::AcqRel);
        }
    }
}

/// Runs `world` on the threaded backend until it quiesces (`until = None`)
/// or until virtual time reaches `until`, whichever comes first, bounded by
/// [`QUIESCENCE_TIMEOUT`]. Returns the number of events processed.
///
/// # Panics
///
/// If an actor's handler panics, after the world has been restored, with a
/// message naming the process and the handler.
pub(crate) fn run_threaded<M>(world: &mut World<M>, until: Option<SimTime>) -> u64
where
    M: Clone + fmt::Debug + Send + 'static,
{
    let start_now = world.now;
    // The pending queue, sorted before the run's clock starts: a wave of
    // queued events takes milliseconds to sort, which must not be charged
    // to the latencies the run measures.
    let queue = std::mem::take(&mut world.queue).into_sorted_vec();

    let obs_enabled = world.metrics.obs_enabled();
    let (perms, mut inboxes, rejected_base) = std::mem::take(&mut world.rdma).into_parts();
    let base_timer_id = world.next_timer_id;
    let base_rdma_token = world.next_rdma_token;

    // Indexed by raw process id: `add_actor` numbers processes densely.
    let mut rank = 0;
    let mut procs: Vec<Option<Proc<M>>> = Vec::with_capacity(world.actors.len());
    for (&pid, actor) in &mut world.actors {
        assert_eq!(pid.as_u64(), procs.len() as u64, "process ids are dense");
        if world.crashed.contains(&pid) {
            procs.push(None);
            continue;
        }
        let stripe = rank * ID_STRIPE;
        procs.push(Some(Proc {
            pid,
            incarnation: world.incarnations.get(&pid).copied().unwrap_or(0),
            rank: rank as usize,
            mailbox: Mutex::new(Mailbox {
                events: VecDeque::new(),
                scheduled: false,
            }),
            inbox: Mutex::new(inboxes.remove(&pid).unwrap_or_default()),
            slot: Mutex::new(Slot {
                actor: actor.take().expect("live actor present"),
                metrics: Metrics::with_obs(obs_enabled),
                armed: BTreeSet::new(),
                cancels: Vec::new(),
                next_timer_id: base_timer_id + stripe,
                next_rdma_token: base_rdma_token + stripe,
            }),
        }));
        rank += 1;
    }
    let workers = host_parallelism().min(rank as usize);

    let mut shared = Shared {
        procs,
        pending: AtomicI64::new(0),
        stopping: AtomicBool::new(false),
        sched: Mutex::new(Sched {
            ready: vec![VecDeque::new(); workers],
            idle: vec![false; workers],
            timers: BinaryHeap::new(),
            failure: None,
        }),
        wake: (0..workers).map(|_| Condvar::new()).collect(),
        quiet: Condvar::new(),
        perms: Mutex::new(perms),
        rejected: AtomicU64::new(0),
        epoch: Instant::now(),
        start_now,
    };

    // -- seed: fill the mailboxes and the heap before any worker starts -----
    let seed = |event: EventKind<M>| {
        if let Some(target) = shared.proc(event.process()) {
            shared.pending.fetch_add(1, Ordering::AcqRel);
            shared.push(target, event);
        }
    };
    // `Reverse` sorts descending: walk backwards for (time, seq) order.
    for Reverse(QueuedEvent { time, kind, .. }) in queue.into_iter().rev() {
        match kind {
            EventKind::Timer {
                at,
                id,
                tag,
                incarnation,
            } => {
                let cancelled = world.cancelled_timers.remove(&id);
                let Some(proc) = shared
                    .proc(at)
                    .filter(|proc| !cancelled && proc.incarnation == incarnation)
                else {
                    continue; // cancelled, crashed, or from an earlier incarnation
                };
                shared.pending.fetch_add(1, Ordering::AcqRel);
                let remaining = time.as_micros().saturating_sub(start_now.as_micros());
                let deadline = shared.epoch + Duration::from_micros(remaining);
                let armed = &mut proc.slot.lock().expect("slot lock").armed;
                shared.arm(proc, armed, id, tag, deadline);
            }
            EventKind::RdmaArrive {
                from,
                to,
                msg,
                hops,
                token,
            } => {
                let Some(target) = shared.proc(to) else {
                    continue;
                };
                match shared.rdma_arrive(from, target, msg, token, hops) {
                    Some(events) => events.into_iter().for_each(seed),
                    None => target.slot.lock().expect("slot lock").metrics.rdma_rejected += 1,
                }
            }
            other => seed(other),
        }
    }

    // -- run: quiescence, the virtual deadline, the hard timeout or a panic --
    let hard_deadline = shared.epoch + QUIESCENCE_TIMEOUT;
    let deadline = until.map_or(hard_deadline, |until| {
        let left = until.as_micros().saturating_sub(start_now.as_micros());
        hard_deadline.min(shared.epoch + Duration::from_micros(left))
    });
    let mut total_events = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|index| {
                let worker = Worker {
                    shared: &shared,
                    index,
                    events_processed: 0,
                    held: 0,
                    spare_effects: Vec::new(),
                };
                scope.spawn(move || worker.run())
            })
            .collect();
        shared.await_quiescence(deadline);
        shared.stop(None);
        for handle in handles {
            total_events += handle.join().expect("worker thread panicked");
        }
    });

    // -- restore: clock, actors, fabric, surviving work ---------------------
    let elapsed = SimDuration::from_micros(shared.epoch.elapsed().as_micros() as u64);
    world.now = (start_now + elapsed).max(until.unwrap_or(SimTime::ZERO));
    let end = Instant::now();
    let Sched {
        timers, failure, ..
    } = shared.sched.into_inner().expect("sched lock");
    // Unhandled mailbox events first, in order, then the timers; a timer
    // survives only if still armed.
    for proc in shared.procs.iter_mut().flatten() {
        let armed = &mut proc.slot.get_mut().expect("slot lock").armed;
        let mailbox = proc.mailbox.get_mut().expect("mailbox lock");
        for event in std::mem::take(&mut mailbox.events) {
            if !matches!(&event, EventKind::Timer { id, .. } if !armed.remove(id)) {
                world.push_event(world.now, event);
            }
        }
    }
    for Reverse(timer) in timers.into_sorted_vec().into_iter().rev() {
        let proc = shared.procs[timer.pid.as_u64() as usize]
            .as_mut()
            .expect("timers belong to live processes");
        let slot = proc.slot.get_mut().expect("slot lock");
        if slot.armed.remove(&timer.id) {
            let remaining = timer.deadline.saturating_duration_since(end).as_micros();
            let at = world.now + SimDuration::from_micros(remaining as u64);
            let event = EventKind::Timer {
                at: timer.pid,
                id: timer.id,
                tag: timer.tag,
                incarnation: proc.incarnation,
            };
            world.push_event(at, event);
        }
    }
    for proc in shared.procs.into_iter().flatten() {
        let slot = proc.slot.into_inner().expect("slot lock");
        world.metrics.absorb(slot.metrics);
        world.cancelled_timers.extend(slot.cancels);
        if let Some(entry) = world.actors.get_mut(&proc.pid) {
            *entry = Some(slot.actor);
        }
        inboxes.insert(proc.pid, proc.inbox.into_inner().expect("inbox lock"));
    }
    world.steps += total_events;
    let rejected = rejected_base + shared.rejected.into_inner();
    let perms = shared.perms.into_inner().expect("perms lock");
    world.rdma = RdmaFabric::from_parts(perms, inboxes, rejected);
    world.next_timer_id = base_timer_id + rank * ID_STRIPE;
    world.next_rdma_token = base_rdma_token + rank * ID_STRIPE;
    if let Some(failure) = failure {
        panic!("{failure}");
    }
    total_events
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
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
    fn threaded_clock_is_read_once_per_handler_and_never_goes_back() {
        /// Two processes pass a note back and forth. A handler for note `n`
        /// asks for the time when `n % 4 < 2`, twice, 100 µs of wall time
        /// apart; the others never ask. Both kinds send the next note.
        #[derive(Default)]
        struct Clocked {
            readings: Vec<(SimTime, SimTime)>,
            silent: u64,
        }
        impl Actor<Msg> for Clocked {
            fn on_message(&mut self, from: ProcessId, msg: Msg, ctx: &mut Context<'_, Msg>) {
                let Msg::Note(n) = msg else { return };
                if n % 4 < 2 {
                    let first = ctx.now();
                    let spin = Instant::now();
                    while spin.elapsed() < Duration::from_micros(100) {}
                    self.readings.push((first, ctx.now()));
                } else {
                    self.silent += 1;
                }
                if n < 40 {
                    ctx.send(from, Msg::Note(n + 1));
                }
            }
        }
        let mut w = World::new(SimConfig::default());
        let a = w.add_actor(Clocked::default());
        let b = w.add_actor(Clocked::default());
        w.send_from(a, b, Msg::Note(0));
        w.run_threaded();
        // `b` handles the even notes 0..=40, `a` the odd ones 1..=39.
        for (pid, asked, silent) in [(a, 10, 10), (b, 11, 10)] {
            let clocked = w.actor::<Clocked>(pid).expect("clocked");
            assert_eq!(clocked.readings.len(), asked, "{pid}: asking handlers ran");
            assert_eq!(clocked.silent, silent, "{pid}: silent handlers ran");
            for (first, second) in &clocked.readings {
                assert_eq!(first, second, "{pid}: one reading per handler");
            }
            let times: Vec<SimTime> = clocked.readings.iter().map(|(t, _)| *t).collect();
            assert!(
                times.windows(2).all(|pair| pair[0] <= pair[1]),
                "{pid}: the clock went back: {times:?}"
            );
            assert!(
                w.now() >= *times.last().expect("read"),
                "{pid}: run ends later"
            );
        }
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

    /// The pool's contract under contention: four senders flood one
    /// receiver, each over several activations. An in-handler flag shows the
    /// receiver never ran on two workers at once, and every sender's
    /// sequence arrives in order.
    #[test]
    fn flooded_receiver_runs_on_one_worker_at_a_time_in_link_order() {
        const NOTES: u64 = 2_000;
        struct Flooder {
            to: ProcessId,
            next: u64,
        }
        impl Actor<Msg> for Flooder {
            fn on_message(&mut self, _f: ProcessId, _m: Msg, ctx: &mut Context<'_, Msg>) {
                for _ in 0..10 {
                    ctx.send(self.to, Msg::Note(self.next));
                    self.next += 1;
                }
                if self.next < NOTES {
                    ctx.send(ctx.self_id(), Msg::Ping);
                }
            }
        }
        struct Exclusive {
            busy: Arc<AtomicBool>,
            overlaps: Arc<AtomicU64>,
            seen: BTreeMap<ProcessId, Vec<u64>>,
        }
        impl Actor<Msg> for Exclusive {
            fn on_message(&mut self, from: ProcessId, msg: Msg, _c: &mut Context<'_, Msg>) {
                if self.busy.swap(true, Ordering::SeqCst) {
                    self.overlaps.fetch_add(1, Ordering::SeqCst);
                }
                std::hint::spin_loop();
                if let Msg::Note(i) = msg {
                    self.seen.entry(from).or_default().push(i);
                }
                self.busy.store(false, Ordering::SeqCst);
            }
        }
        let overlaps = Arc::new(AtomicU64::new(0));
        let mut w = World::new(SimConfig::default());
        let receiver = w.add_actor(Exclusive {
            busy: Arc::new(AtomicBool::new(false)),
            overlaps: Arc::clone(&overlaps),
            seen: BTreeMap::new(),
        });
        let senders: Vec<ProcessId> = (0..4)
            .map(|_| {
                w.add_actor(Flooder {
                    to: receiver,
                    next: 0,
                })
            })
            .collect();
        for &sender in &senders {
            w.send_external(sender, Msg::Ping);
        }
        w.run_threaded();
        assert_eq!(overlaps.load(Ordering::SeqCst), 0, "ran on two workers");
        let seen = &w.actor::<Exclusive>(receiver).expect("receiver").seen;
        for sender in senders {
            assert_eq!(seen[&sender], (0..NOTES).collect::<Vec<_>>(), "{sender}");
        }
    }

    /// A timer that fell due while its process was busy, and was cancelled
    /// before the process got to it, never fires.
    #[test]
    fn a_timer_cancelled_after_it_fell_due_does_not_fire() {
        #[derive(Default)]
        struct LateCancel {
            timer: Option<TimerId>,
        }
        impl Actor<Msg> for LateCancel {
            fn on_message(&mut self, _f: ProcessId, msg: Msg, ctx: &mut Context<'_, Msg>) {
                if msg == Msg::Ping {
                    self.timer = Some(ctx.set_timer(SimDuration::from_micros(100), 1));
                    ctx.send(ctx.self_id(), Msg::Pong);
                } else {
                    // Armed before this handler began, so due 100 µs into it.
                    std::thread::sleep(Duration::from_millis(5));
                    ctx.cancel_timer(self.timer.take().expect("armed"));
                }
            }
            fn on_timer(&mut self, _tag: TimerTag, ctx: &mut Context<'_, Msg>) {
                ctx.add_counter("fired", 1);
            }
        }
        let mut w = World::new(SimConfig::default());
        let p = w.add_actor(LateCancel::default());
        w.add_actor(Recorder::default()); // a second worker, where there are cores
        w.send_external(p, Msg::Ping);
        let start = Instant::now();
        assert_eq!(
            w.run_threaded(),
            2,
            "Ping and Pong; the dead timer is no step"
        );
        assert_eq!(w.metrics().counter("fired"), 0);
        assert!(start.elapsed() < Duration::from_secs(5), "the run quiesced");
    }

    /// More processes that keep messaging themselves than there are workers
    /// cannot starve a ping-pong pair: an activation yields after its budget.
    #[test]
    fn self_messaging_processes_do_not_starve_a_ping_pong_pair() {
        struct Spinner(Arc<AtomicBool>);
        impl Actor<Msg> for Spinner {
            fn on_message(&mut self, _f: ProcessId, _m: Msg, ctx: &mut Context<'_, Msg>) {
                if !self.0.load(Ordering::SeqCst) {
                    ctx.send(ctx.self_id(), Msg::Ping);
                }
            }
        }
        struct Rally {
            left: u64,
            done: Arc<AtomicBool>,
        }
        impl Actor<Msg> for Rally {
            fn on_message(&mut self, from: ProcessId, _m: Msg, ctx: &mut Context<'_, Msg>) {
                if self.left == 0 {
                    self.done.store(true, Ordering::SeqCst);
                } else {
                    self.left -= 1;
                    ctx.send(from, Msg::Ping);
                }
            }
        }
        let done = Arc::new(AtomicBool::new(false));
        let mut w = World::new(SimConfig::default());
        for _ in 0..host_parallelism() + 1 {
            let spinner = w.add_actor(Spinner(Arc::clone(&done)));
            w.send_external(spinner, Msg::Ping);
        }
        let rally = || Rally {
            left: 500,
            done: Arc::clone(&done),
        };
        let a = w.add_actor(rally());
        let b = w.add_actor(rally());
        w.send_from(a, b, Msg::Ping);
        let start = Instant::now();
        w.run_threaded();
        assert!(done.load(Ordering::SeqCst), "the rally finished");
        assert!(start.elapsed() < Duration::from_secs(10), "and promptly");
    }

    /// RDMA writes land while their target's handler runs: the writer's
    /// acknowledgements all arrive before that handler returns, every write
    /// is delivered exactly once and in order, and a flush inside the handler
    /// returns only the writes that landed before it began.
    #[test]
    fn rdma_writes_land_while_the_target_handler_runs() {
        const EARLY: u64 = 3;
        const WRITES: u64 = 100;
        if host_parallelism() < 2 {
            return; // the writer needs a worker of its own
        }
        struct Writer {
            to: ProcessId,
            started: Arc<AtomicBool>,
            acks: Arc<AtomicU64>,
        }
        impl Actor<Msg> for Writer {
            fn on_message(&mut self, _f: ProcessId, _m: Msg, ctx: &mut Context<'_, Msg>) {
                let give_up = Instant::now() + Duration::from_secs(5);
                while !self.started.load(Ordering::SeqCst) && Instant::now() < give_up {
                    std::thread::yield_now();
                }
                for i in EARLY..EARLY + WRITES {
                    ctx.rdma_send(self.to, Msg::Note(i));
                }
            }
            fn on_rdma_ack(&mut self, _t: RdmaToken, _to: ProcessId, _c: &mut Context<'_, Msg>) {
                self.acks.fetch_add(1, Ordering::SeqCst);
            }
        }
        struct Target {
            started: Arc<AtomicBool>,
            acks: Arc<AtomicU64>,
            acks_at_return: u64,
            flushed: Vec<(ProcessId, Msg)>,
            delivered: Vec<(ProcessId, Msg)>,
        }
        impl Actor<Msg> for Target {
            fn on_message(&mut self, _f: ProcessId, _m: Msg, ctx: &mut Context<'_, Msg>) {
                self.started.store(true, Ordering::SeqCst);
                // Wait, at most a second, for every acknowledgement: none
                // can arrive while a writer waits for this handler to end.
                let give_up = Instant::now() + Duration::from_secs(1);
                while self.acks.load(Ordering::SeqCst) < WRITES && Instant::now() < give_up {
                    std::thread::sleep(Duration::from_millis(1));
                }
                self.flushed = ctx.rdma_flush();
                self.acks_at_return = self.acks.load(Ordering::SeqCst);
            }
            fn on_rdma_deliver(&mut self, from: ProcessId, msg: Msg, _c: &mut Context<'_, Msg>) {
                self.delivered.push((from, msg));
            }
        }
        let (started, acks) = (
            Arc::new(AtomicBool::new(false)),
            Arc::new(AtomicU64::new(0)),
        );
        let mut w = World::new(SimConfig::default());
        let target = w.add_actor(Target {
            started: Arc::clone(&started),
            acks: Arc::clone(&acks),
            acks_at_return: 0,
            flushed: Vec::new(),
            delivered: Vec::new(),
        });
        let writer = w.add_actor(Writer {
            to: target,
            started,
            acks,
        });
        let early = w.add_actor(Recorder::default());
        w.rdma_open(target, writer);
        w.rdma_open(target, early);
        w.send_external(target, Msg::Ping);
        w.send_external(writer, Msg::Ping);
        for i in 0..EARLY {
            w.rdma_send_from(early, target, Msg::Note(i));
        }
        w.run_threaded();
        let target = w.actor::<Target>(target).expect("target");
        assert_eq!(
            target.acks_at_return, WRITES,
            "acknowledged during the handler"
        );
        let notes = |writes: &[(ProcessId, Msg)], sender: ProcessId| -> Vec<u64> {
            let note = |(from, msg): &(ProcessId, Msg)| match msg {
                Msg::Note(i) if *from == sender => *i,
                other => panic!("{other:?} from {from}"),
            };
            writes.iter().map(note).collect()
        };
        assert_eq!(
            notes(&target.flushed, early),
            (0..EARLY).collect::<Vec<_>>(),
            "the flush returns the writes landed before the handler began"
        );
        assert_eq!(
            notes(&target.delivered, writer),
            (EARLY..EARLY + WRITES).collect::<Vec<_>>(),
            "the others are delivered once each, in order"
        );
    }

    /// A world of one process and one of more processes than workers both
    /// run every event and quiesce.
    #[test]
    fn one_process_and_more_processes_than_workers_both_quiesce() {
        struct Ring {
            next: ProcessId,
        }
        impl Actor<Msg> for Ring {
            fn on_message(&mut self, _f: ProcessId, msg: Msg, ctx: &mut Context<'_, Msg>) {
                if let Msg::Note(left @ 1..) = msg {
                    ctx.send(self.next, Msg::Note(left - 1));
                }
            }
        }
        for size in [1, 3 * host_parallelism() + 1] {
            let mut w = World::new(SimConfig::default());
            for i in 0..size {
                w.add_actor(Ring {
                    next: ProcessId::new(((i + 1) % size) as u64),
                });
            }
            w.send_external(ProcessId::new(0), Msg::Note(5_000));
            assert_eq!(w.run_threaded(), 5_001, "{size} processes");
            assert_eq!(w.metrics().total_delivered, 5_001);
        }
    }

    /// An actor panic stops the run at once and is re-raised by name, not
    /// reported by [`QUIESCENCE_TIMEOUT`].
    #[test]
    fn an_actor_panic_fails_the_run_promptly_naming_the_process() {
        struct Echo {
            handled: u64,
            panic_at: Option<u64>,
        }
        impl Actor<Msg> for Echo {
            fn on_message(&mut self, from: ProcessId, _m: Msg, ctx: &mut Context<'_, Msg>) {
                self.handled += 1;
                if Some(self.handled) == self.panic_at {
                    panic!("gave up on message {}", self.handled);
                }
                ctx.send(from, Msg::Ping);
            }
        }
        let mut w = World::new(SimConfig::default());
        let a = w.add_actor(Echo {
            handled: 0,
            panic_at: None,
        });
        let b = w.add_actor(Echo {
            handled: 0,
            panic_at: Some(50),
        });
        w.send_from(a, b, Msg::Ping);
        let start = Instant::now();
        let failure = std::panic::catch_unwind(AssertUnwindSafe(|| w.run_threaded()))
            .expect_err("the panic is re-raised");
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "{:?}",
            start.elapsed()
        );
        let message = failure
            .downcast_ref::<String>()
            .expect("a formatted report");
        assert_eq!(
            message,
            &format!("actor {b} panicked in on_message: gave up on message 50")
        );
    }
}
