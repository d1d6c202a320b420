//! Deterministic discrete-event simulation substrate for the RATC protocols.
//!
//! The paper's protocols are defined in an asynchronous message-passing model
//! with reliable FIFO channels and crash-stop failures (§3), extended in §5
//! with an RDMA-style communication primitive. This crate implements that
//! model as a deterministic, single-threaded discrete-event simulator:
//!
//! * [`World`] — the event loop: a priority queue of timestamped events, a set
//!   of [`Actor`]s addressed by `ProcessId`, per-channel FIFO delivery,
//!   crash injection and deterministic seeded randomness.
//! * [`Actor`] / [`Context`] — the programming model for protocol processes:
//!   handlers for message delivery, timers, RDMA delivery and RDMA
//!   acknowledgements, and a context for sending messages, setting timers and
//!   manipulating RDMA connections.
//! * latency — the message and RDMA latency models: constants of the world,
//!   a LAN (uniform 40–60 µs per message, RDMA writes a third of that).
//! * [`faults`] — per-link fault injection: seeded message drops, duplicates
//!   and delays (which double as reordering), asymmetric cuts and named
//!   partitions, plus crash–restart support in the world (`World::restart`).
//! * [`rdma`] — the simulated RDMA primitive of §5: `send-rdma`, `ack-rdma`,
//!   `deliver-rdma`, `open`, `close` and `flush`, with the exact semantics the
//!   correctness argument relies on (an acknowledgement means the message is
//!   in the receiver's memory and will be delivered even if the sender
//!   crashes; after `close` no further writes from that peer can land).
//! * [`metrics`] — measurement, the one observation channel of both
//!   execution engines: per-process message counts, named counters and
//!   streaming statistics, and (with observability on) per-message-type
//!   counts and the milestone streams below.
//! * Commit-path observability — [`Context`] exposes
//!   [`obs_milestone`](actor::Context::obs_milestone) /
//!   [`obs_gauge`](actor::Context::obs_gauge) hooks (backed by the
//!   [`ratc_obs`] timeline model, re-exported here) that stamp transaction
//!   lifecycle milestones identically under both execution engines. Off by
//!   default; enabling it never changes a seeded schedule.
//!
//! Determinism: given the same seed and the same sequence of API calls, a
//! simulation produces exactly the same event order, which makes every
//! experiment and every property-based test reproducible.
//!
//! # Example
//!
//! ```
//! use ratc_sim::prelude::*;
//! use ratc_types::ProcessId;
//!
//! #[derive(Clone, Debug)]
//! enum Ping { Ping, Pong }
//!
//! struct Node { got_pong: bool }
//!
//! impl Actor<Ping> for Node {
//!     fn on_message(&mut self, from: ProcessId, msg: Ping, ctx: &mut Context<'_, Ping>) {
//!         match msg {
//!             Ping::Ping => ctx.send(from, Ping::Pong),
//!             Ping::Pong => self.got_pong = true,
//!         }
//!     }
//! }
//!
//! let mut world = World::new(SimConfig::default());
//! let a = world.add_actor(Node { got_pong: false });
//! let b = world.add_actor(Node { got_pong: false });
//! world.send_from(a, b, Ping::Ping);  // a pings b; b answers with Pong.
//! world.run();
//! assert!(world.actor::<Node>(a).expect("actor a").got_pong);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod actor;
pub mod backoff;
pub mod event;
pub mod faults;
mod latency;
pub mod metrics;
pub mod rdma;
pub mod rt;
pub mod time;
pub mod world;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::actor::{Actor, Context, TimerTag};
    pub use crate::faults::{FaultScope, LinkFault};
    pub use crate::metrics::Metrics;
    pub use crate::rdma::RdmaSendOutcome;
    pub use crate::rt::ExecutionMode;
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::world::{SimConfig, World};
}

pub use actor::{Actor, Context, TimerTag};
pub use backoff::{BackoffPolicy, BackoffState};
// Re-exported so protocol crates can stamp milestones through their existing
// `ratc-sim` dependency without depending on `ratc-obs` themselves.
pub use faults::{FaultScope, LinkFault};
pub use metrics::Metrics;
pub use ratc_obs::{
    blackouts, decided_times_per_shard, fold_timelines, Blackout, CtrlEvent, CtrlMilestone,
    LatencyUnit, Phase, PhaseBreakdown, TxMilestone, TxObsEvent, TxTimeline,
};
pub use rdma::RdmaSendOutcome;
pub use rt::ExecutionMode;
pub use time::{SimDuration, SimTime};
pub use world::{SimConfig, World};
