//! The actor programming model: protocol processes and their execution context.
//!
//! A protocol process (a shard replica, a client, the configuration service,
//! a Paxos acceptor, …) is an [`Actor`]: a state machine with handlers for
//! message delivery, timer expiry and RDMA events. Handlers receive a
//! [`Context`] through which they send messages, set timers, manipulate RDMA
//! connections and record metrics. All effects requested through the context
//! are applied by the [`World`](crate::world::World) after the handler
//! returns, which keeps event ordering deterministic.

use std::any::Any;
use std::cell::Cell;
use std::time::Instant;

use ratc_obs::{CtrlEvent, CtrlMilestone, TxMilestone, TxObsEvent};
use ratc_types::{ProcessId, ShardId, TxId};

use crate::metrics::Metrics;
use crate::rdma::{RdmaInbox, RdmaToken};
use crate::time::{SimDuration, SimTime};

/// Application-chosen tag distinguishing timers set by the same actor.
pub type TimerTag = u64;

/// Identifier of a pending timer, used to cancel it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub(crate) u64);

/// A simulated process.
///
/// The message type `M` is chosen by the protocol crate (each protocol defines
/// its own message enum). All handlers have default no-op implementations
/// except [`Actor::on_message`].
///
/// Actors must be `'static` (they are owned by the world) and implement
/// [`Any`] so that tests and experiment harnesses can downcast them back to
/// their concrete type via [`World::actor`](crate::world::World::actor).
/// They must also be [`Send`]: the threaded execution backend
/// ([`crate::rt`]) runs each actor on whichever of its worker threads
/// activates it, one worker at a time.
pub trait Actor<M>: Any + Send {
    /// Called once when the actor is added to the world.
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        let _ = ctx;
    }

    /// Called when a message sent with [`Context::send`] (or injected
    /// externally) is delivered to this actor.
    fn on_message(&mut self, from: ProcessId, msg: M, ctx: &mut Context<'_, M>);

    /// Called when a timer set with [`Context::set_timer`] fires.
    fn on_timer(&mut self, tag: TimerTag, ctx: &mut Context<'_, M>) {
        let _ = (tag, ctx);
    }

    /// Called when an RDMA write issued by this actor reaches the remote
    /// memory (the `ack-rdma` upcall of §5). `token` is the value returned by
    /// the corresponding [`Context::rdma_send`].
    fn on_rdma_ack(&mut self, token: RdmaToken, to: ProcessId, ctx: &mut Context<'_, M>) {
        let _ = (token, to, ctx);
    }

    /// Called when this actor's poller picks an RDMA message out of its local
    /// memory (the `deliver-rdma` upcall of §5).
    fn on_rdma_deliver(&mut self, from: ProcessId, msg: M, ctx: &mut Context<'_, M>) {
        let _ = (from, msg, ctx);
    }

    /// Called when the process crashes (for bookkeeping in tests; a crashed
    /// actor receives no further events).
    fn on_crash(&mut self) {}

    /// Called when the process is restarted after a crash (see
    /// [`World::restart`](crate::world::World::restart)). Implementations
    /// must discard volatile state and recover from whatever they model as
    /// stable storage (e.g. a checkpointed certification log); timers set
    /// before the crash never fire in the new incarnation, so long-lived
    /// timers must be re-armed here.
    fn on_restart(&mut self, ctx: &mut Context<'_, M>) {
        let _ = ctx;
    }
}

/// A single upcall into an actor, in transport-neutral form.
///
/// Both execution backends — the deterministic simulator
/// ([`World`](crate::world::World)) and the threaded runtime
/// ([`crate::rt`]) — reduce their events to an `Upcall` and drive the actor
/// through [`dispatch`], so the actor-facing semantics cannot drift between
/// backends.
#[derive(Debug)]
pub(crate) enum Upcall<M> {
    /// The actor was just added to its world.
    Start,
    /// A network message arrived.
    Message { from: ProcessId, msg: M },
    /// A timer fired.
    Timer { tag: TimerTag },
    /// An RDMA write issued by this actor reached the remote memory.
    RdmaAck { token: RdmaToken, to: ProcessId },
    /// The local poller picked an RDMA message out of this actor's memory.
    RdmaDeliver { from: ProcessId, msg: M },
    /// The process was restarted after a crash.
    Restart,
}

impl<M> Upcall<M> {
    /// The [`Actor`] method this upcall runs, for failure reports.
    pub(crate) fn handler(&self) -> &'static str {
        match self {
            Upcall::Start => "on_start",
            Upcall::Message { .. } => "on_message",
            Upcall::Timer { .. } => "on_timer",
            Upcall::RdmaAck { .. } => "on_rdma_ack",
            Upcall::RdmaDeliver { .. } => "on_rdma_deliver",
            Upcall::Restart => "on_restart",
        }
    }
}

/// Invokes the handler matching `upcall` on `actor`. The single dispatch
/// point shared by both execution backends.
pub(crate) fn dispatch<M: 'static>(
    actor: &mut dyn Actor<M>,
    upcall: Upcall<M>,
    ctx: &mut Context<'_, M>,
) {
    match upcall {
        Upcall::Start => actor.on_start(ctx),
        Upcall::Message { from, msg } => actor.on_message(from, msg, ctx),
        Upcall::Timer { tag } => actor.on_timer(tag, ctx),
        Upcall::RdmaAck { token, to } => actor.on_rdma_ack(token, to, ctx),
        Upcall::RdmaDeliver { from, msg } => actor.on_rdma_deliver(from, msg, ctx),
        Upcall::Restart => actor.on_restart(ctx),
    }
}

/// An effect requested by an actor during a handler invocation.
#[derive(Debug)]
pub(crate) enum Effect<M> {
    /// Send `msg` to `to` over the message-passing network.
    Send {
        /// Destination process.
        to: ProcessId,
        /// Message to deliver.
        msg: M,
    },
    /// Issue an RDMA write of `msg` into the memory of `to`.
    RdmaSend {
        /// Destination process.
        to: ProcessId,
        /// Message to write.
        msg: M,
        /// Token identifying the write in the later `ack-rdma`.
        token: RdmaToken,
    },
    /// Grant `peer` access to this actor's memory region.
    RdmaOpen {
        /// The peer being granted access.
        peer: ProcessId,
    },
    /// Revoke `peer`'s access to this actor's memory region.
    RdmaClose {
        /// The peer whose access is revoked.
        peer: ProcessId,
    },
    /// Revoke every peer's access to this actor's memory region.
    RdmaCloseAll,
    /// Set a timer firing after `delay` with tag `tag`.
    SetTimer {
        /// Delay until the timer fires.
        delay: SimDuration,
        /// Application tag.
        tag: TimerTag,
        /// Identifier assigned to the timer.
        id: TimerId,
    },
    /// Cancel a previously set timer.
    CancelTimer {
        /// The timer to cancel.
        id: TimerId,
    },
}

/// What [`Context::now`] returns.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Clock {
    /// A time already known: the event's virtual time on the simulator, or
    /// the first reading of the wall clock in this handler on the threaded
    /// engine.
    At(SimTime),
    /// Not read yet (threaded engine): the run started at virtual time
    /// `start` when the wall clock read `epoch`.
    Unread { epoch: Instant, start: SimTime },
}

/// Execution context handed to actor handlers.
///
/// All mutating operations are buffered and applied by the world after the
/// handler returns, except [`Context::rdma_flush`], which synchronously drains
/// the actor's own RDMA inbox (mirroring the blocking `flush` of §5).
pub struct Context<'a, M> {
    pub(crate) self_id: ProcessId,
    pub(crate) clock: Cell<Clock>,
    pub(crate) hops: u32,
    pub(crate) effects: Vec<Effect<M>>,
    pub(crate) metrics: &'a mut Metrics,
    pub(crate) inbox: &'a mut RdmaInbox<M>,
    pub(crate) next_timer_id: &'a mut u64,
    pub(crate) next_rdma_token: &'a mut u64,
}

impl<'a, M> Context<'a, M> {
    /// The identifier of the actor currently executing.
    pub fn self_id(&self) -> ProcessId {
        self.self_id
    }

    /// The current simulated time.
    ///
    /// On the simulator this is the time of the event being handled. On the
    /// threaded engine the wall clock is read when a handler first asks for
    /// the time, here or by stamping a milestone, and every later call in
    /// the same handler returns that reading; a handler that never asks
    /// never reads the clock.
    pub fn now(&self) -> SimTime {
        match self.clock.get() {
            Clock::At(now) => now,
            Clock::Unread { epoch, start } => {
                let now = start + SimDuration::from_micros(epoch.elapsed().as_micros() as u64);
                self.clock.set(Clock::At(now));
                now
            }
        }
    }

    /// The number of message delays (hops) accumulated by the causal chain
    /// that led to the current handler invocation.
    ///
    /// Externally injected events start at 0; every network or RDMA hop adds
    /// one. Protocols use this to report client-visible latency in message
    /// delays, the unit the paper uses for its latency claims.
    pub fn hops(&self) -> u32 {
        self.hops
    }

    /// Sends `msg` to `to` over the reliable FIFO network.
    pub fn send(&mut self, to: ProcessId, msg: M) {
        self.metrics.on_send(self.self_id);
        self.effects.push(Effect::Send { to, msg });
    }

    /// Sends `msg` to every process in `targets`, in order: a clone to each
    /// but the last, which receives `msg` itself.
    pub fn send_to_many<I>(&mut self, targets: I, msg: M)
    where
        M: Clone,
        I: IntoIterator<Item = ProcessId>,
    {
        let mut targets = targets.into_iter();
        let Some(mut to) = targets.next() else {
            return;
        };
        for next in targets {
            self.send(to, msg.clone());
            to = next;
        }
        self.send(to, msg);
    }

    /// Issues an RDMA write of `msg` into the memory of `to`
    /// (the `send-rdma` operation of §5).
    ///
    /// Returns a token identifying the write; if and when the write reaches
    /// the remote memory, [`Actor::on_rdma_ack`] is invoked with the same
    /// token. If the remote end has closed the connection, no acknowledgement
    /// will ever arrive.
    pub fn rdma_send(&mut self, to: ProcessId, msg: M) -> RdmaToken {
        let token = RdmaToken::new(*self.next_rdma_token);
        *self.next_rdma_token += 1;
        self.metrics.on_rdma_write(self.self_id);
        self.effects.push(Effect::RdmaSend { to, msg, token });
        token
    }

    /// Grants `peer` access to this actor's memory region
    /// (the `open` operation of §5).
    pub fn rdma_open(&mut self, peer: ProcessId) {
        self.effects.push(Effect::RdmaOpen { peer });
    }

    /// Revokes `peer`'s access to this actor's memory region
    /// (the `close` operation of §5). Writes from `peer` arriving after the
    /// close are rejected and never acknowledged.
    pub fn rdma_close(&mut self, peer: ProcessId) {
        self.effects.push(Effect::RdmaClose { peer });
    }

    /// Revokes every peer's access to this actor's memory region
    /// (the `multiclose(connections)` call of Figure 8).
    pub fn rdma_close_all(&mut self) {
        self.effects.push(Effect::RdmaCloseAll);
    }

    /// Synchronously drains all RDMA messages that have reached this actor's
    /// memory (i.e. have been acknowledged to their senders) but have not yet
    /// been delivered, returning them in arrival order (the `flush` operation
    /// of §5).
    ///
    /// After `rdma_flush` returns, every acknowledged write is either in the
    /// returned vector or was already delivered through
    /// [`Actor::on_rdma_deliver`]. On the threaded engine "acknowledged"
    /// means acknowledged before this handler began: writes keep landing
    /// while a handler runs, and one that lands during it is delivered
    /// later through [`Actor::on_rdma_deliver`].
    pub fn rdma_flush(&mut self) -> Vec<(ProcessId, M)> {
        self.inbox.drain_undelivered()
    }

    /// Sets a timer that fires after `delay` with application tag `tag`.
    pub fn set_timer(&mut self, delay: SimDuration, tag: TimerTag) -> TimerId {
        let id = TimerId(*self.next_timer_id);
        *self.next_timer_id += 1;
        self.effects.push(Effect::SetTimer { delay, tag, id });
        id
    }

    /// Cancels a previously set timer. Cancelling an already-fired timer is a
    /// no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.effects.push(Effect::CancelTimer { id });
    }

    /// Adds `delta` to the named experiment counter.
    pub fn add_counter(&mut self, name: &'static str, delta: u64) {
        self.metrics.add_counter(name, delta);
    }

    /// Records a sample of the named experiment statistic (e.g. a latency).
    pub fn record_sample(&mut self, name: &'static str, value: f64) {
        self.metrics.record_sample(name, value);
    }

    /// `true` if commit-path observability is recording (see
    /// [`SimConfig::with_observability`](crate::world::SimConfig::with_observability)).
    pub fn obs_enabled(&self) -> bool {
        self.metrics.obs_enabled()
    }

    /// Stamps a transaction lifecycle milestone at the current time, if
    /// observability is enabled.
    ///
    /// `detail` is milestone-specific (see [`TxObsEvent::detail`]); pass 0
    /// when the milestone carries none. Disabled observability makes this a
    /// single branch on a bool, and recording only appends to a metrics
    /// buffer — it never sends, schedules or consults randomness — so
    /// same-seed simulated runs are bit-identical whether observability is
    /// on or off.
    pub fn obs_milestone(&mut self, tx: TxId, milestone: TxMilestone, detail: u64) {
        if self.metrics.obs_enabled() {
            self.metrics.obs_record(TxObsEvent {
                tx,
                at_micros: self.now().as_micros(),
                by: self.self_id,
                milestone,
                detail,
            });
        }
    }

    /// Records a sample of a flow-control/batching gauge (queue depth,
    /// window occupancy, …), only when observability is enabled — gauges
    /// ride the observability switch so the default path records nothing.
    pub fn obs_gauge(&mut self, name: &'static str, value: f64) {
        if self.metrics.obs_enabled() {
            self.metrics.record_sample(name, value);
        }
    }

    /// Stamps a control-plane (cluster-scope) milestone at the current time,
    /// if observability is enabled — the reconfiguration/recovery twin of
    /// [`Context::obs_milestone`], with the same schedule-invisibility
    /// guarantee.
    ///
    /// `shard` is the shard the milestone concerns, when the actor knows it
    /// (`None` otherwise; the harness layer re-attributes from its roster).
    /// `detail` is milestone-specific (see [`CtrlMilestone`]); pass 0 when
    /// the milestone carries none.
    pub fn ctrl_milestone(
        &mut self,
        milestone: CtrlMilestone,
        shard: Option<ShardId>,
        detail: u64,
    ) {
        if self.metrics.obs_enabled() {
            self.metrics.ctrl_record(CtrlEvent {
                at_micros: self.now().as_micros(),
                by: self.self_id,
                milestone,
                shard,
                detail,
                note: String::new(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Hello,
    }

    #[test]
    fn context_buffers_effects() {
        let mut metrics = Metrics::default();
        let mut inbox = RdmaInbox::default();
        let mut next_timer = 0;
        let mut next_token = 0;
        let mut ctx: Context<'_, Msg> = Context {
            self_id: ProcessId::new(1),
            clock: Cell::new(Clock::At(SimTime::from_micros(5))),
            hops: 2,
            effects: Vec::new(),
            metrics: &mut metrics,
            inbox: &mut inbox,
            next_timer_id: &mut next_timer,
            next_rdma_token: &mut next_token,
        };
        assert_eq!(ctx.self_id(), ProcessId::new(1));
        assert_eq!(ctx.now().as_micros(), 5);
        assert_eq!(ctx.hops(), 2);

        ctx.send(ProcessId::new(2), Msg::Hello);
        ctx.send_to_many([ProcessId::new(3), ProcessId::new(4)], Msg::Hello);
        let token = ctx.rdma_send(ProcessId::new(5), Msg::Hello);
        assert_eq!(token, RdmaToken::new(0));
        ctx.rdma_open(ProcessId::new(6));
        ctx.rdma_close(ProcessId::new(6));
        let timer = ctx.set_timer(SimDuration::from_micros(10), 7);
        ctx.cancel_timer(timer);
        ctx.add_counter("commits", 1);
        ctx.record_sample("latency", 1.5);

        assert_eq!(ctx.effects.len(), 8);
        assert_eq!(metrics.sent(ProcessId::new(1)), 3);
        assert_eq!(metrics.counter("commits"), 1);
    }

    #[test]
    fn send_to_many_moves_the_message_into_its_last_target() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        #[derive(Debug)]
        struct Counted(Arc<AtomicUsize>);
        impl Clone for Counted {
            fn clone(&self) -> Self {
                self.0.fetch_add(1, Ordering::Relaxed);
                Counted(Arc::clone(&self.0))
            }
        }

        for n in 0..4u64 {
            let clones = Arc::new(AtomicUsize::new(0));
            let mut metrics = Metrics::default();
            let mut inbox = RdmaInbox::default();
            let (mut next_timer, mut next_token) = (0, 0);
            let mut ctx: Context<'_, Counted> = Context {
                self_id: ProcessId::new(1),
                clock: Cell::new(Clock::At(SimTime::ZERO)),
                hops: 0,
                effects: Vec::new(),
                metrics: &mut metrics,
                inbox: &mut inbox,
                next_timer_id: &mut next_timer,
                next_rdma_token: &mut next_token,
            };
            ctx.send_to_many((0..n).map(ProcessId::new), Counted(Arc::clone(&clones)));
            let sent_to: Vec<u64> = ctx
                .effects
                .iter()
                .map(|effect| match effect {
                    Effect::Send { to, .. } => to.as_u64(),
                    other => panic!("only sends, got {other:?}"),
                })
                .collect();
            assert_eq!(sent_to, (0..n).collect::<Vec<_>>(), "{n} targets, in order");
            assert_eq!(
                clones.load(Ordering::Relaxed) as u64,
                n.saturating_sub(1),
                "{n} targets"
            );
            assert_eq!(metrics.sent(ProcessId::new(1)), n);
        }
    }

    #[test]
    fn flush_drains_inbox() {
        let mut metrics = Metrics::default();
        let mut inbox: RdmaInbox<Msg> = RdmaInbox::default();
        inbox.push(ProcessId::new(9), Msg::Hello);
        let mut next_timer = 0;
        let mut next_token = 0;
        let mut ctx: Context<'_, Msg> = Context {
            self_id: ProcessId::new(1),
            clock: Cell::new(Clock::At(SimTime::ZERO)),
            hops: 0,
            effects: Vec::new(),
            metrics: &mut metrics,
            inbox: &mut inbox,
            next_timer_id: &mut next_timer,
            next_rdma_token: &mut next_token,
        };
        let drained = ctx.rdma_flush();
        assert_eq!(drained, vec![(ProcessId::new(9), Msg::Hello)]);
        assert!(ctx.rdma_flush().is_empty());
    }
}
