//! The client actor: records the TCS history and client-visible latency.
//!
//! Clients are outside the protocol proper: they submit `certify` requests to
//! a replica acting as coordinator (the deployment harness injects the
//! request) and receive `DECISION(t, d)` messages. The client actor records a
//! [`TcsHistory`] — the object over which the specification checkers in
//! `ratc-spec` operate — plus, for every decision, the number of message
//! delays and the simulated time since submission.
//!
//! There is one client, [`ClientActor<M>`], for every stack: it is generic
//! over the stack's message enum through [`ClientMsg`], the two places
//! where a client touches the message vocabulary.

use std::collections::BTreeMap;
use std::marker::PhantomData;

use ratc_sim::{Actor, Context, SimTime, TxMilestone};
use ratc_types::{Decision, Payload, ProcessId, TcsHistory, TxId};

use crate::messages::Msg;

/// Latency observed by the client for one decided transaction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionLatency {
    /// Message delays between submission and the decision arriving at the
    /// client (the unit of the paper's latency claims).
    pub hops: u32,
    /// Microseconds between submission and the decision, on the cluster's
    /// clock: *simulated* microseconds under
    /// [`ExecutionMode::Sim`](ratc_sim::ExecutionMode) (a function of the
    /// simulator's latency model, not of the host), *wall-clock* (monotonic
    /// [`std::time::Instant`]) microseconds under
    /// [`ExecutionMode::Threads`](ratc_sim::ExecutionMode). Same field, same
    /// unit — but only the threaded numbers measure real hardware.
    pub micros: u64,
    /// The decision itself.
    pub decision: Decision,
}

/// What a client needs of a stack's message enum: how to ask for a
/// certification and how to recognise the answer.
pub trait ClientMsg: Sized {
    /// `certify(t, l)`, to be answered to `client`.
    fn certify(tx: TxId, payload: Payload, client: ProcessId) -> Self;
    /// `Some` if this message is `DECISION(t, d)` to the client.
    fn as_decision(&self) -> Option<(TxId, Decision)>;
}

impl ClientMsg for Msg {
    fn certify(tx: TxId, payload: Payload, client: ProcessId) -> Self {
        Msg::Certify {
            tx,
            payload,
            client,
        }
    }

    fn as_decision(&self) -> Option<(TxId, Decision)> {
        if let Msg::DecisionClient { tx, decision } = self {
            Some((*tx, *decision))
        } else {
            None
        }
    }
}

/// A client process recording a TCS history and latency samples.
#[derive(Debug)]
pub struct ClientActor<M> {
    history: TcsHistory,
    submit_times: BTreeMap<TxId, SimTime>,
    latencies: BTreeMap<TxId, DecisionLatency>,
    violations: Vec<String>,
    _msg: PhantomData<fn(M)>,
}

impl<M> Default for ClientActor<M> {
    /// A client with an empty history.
    fn default() -> Self {
        ClientActor {
            history: TcsHistory::default(),
            submit_times: BTreeMap::new(),
            latencies: BTreeMap::new(),
            violations: Vec::new(),
            _msg: PhantomData,
        }
    }
}

impl<M> ClientActor<M> {
    /// Records the `certify(t, l)` action. Called by the deployment harness at
    /// the moment it injects the request into the coordinator.
    pub fn record_certify(&mut self, tx: TxId, payload: Payload, now: SimTime) {
        if let Err(err) = self.history.record_certify(tx, payload) {
            self.violations.push(err.to_string());
        }
        self.submit_times.insert(tx, now);
    }

    /// The recorded history.
    pub fn history(&self) -> &TcsHistory {
        &self.history
    }

    /// Latency of each decided transaction.
    pub fn latencies(&self) -> &BTreeMap<TxId, DecisionLatency> {
        &self.latencies
    }

    /// Structural specification violations observed while recording
    /// (duplicate certifies, contradictory decisions). Always empty in a
    /// correct run.
    pub fn violations(&self) -> &[String] {
        &self.violations
    }
}

impl<M: ClientMsg + 'static> Actor<M> for ClientActor<M> {
    fn on_message(&mut self, _from: ProcessId, msg: M, ctx: &mut Context<'_, M>) {
        let Some((tx, decision)) = msg.as_decision() else {
            return;
        };
        if let Err(err) = self.history.record_decide(tx, decision) {
            self.violations.push(err.to_string());
            return;
        }
        let micros = self
            .submit_times
            .get(&tx)
            .map(|t| ctx.now().since(*t).as_micros())
            .unwrap_or(0);
        // Record only the first decision's latency (duplicates from
        // concurrent recovery coordinators, or re-externalisations after a
        // transaction-manager restart, carry the same decision).
        if !self.latencies.contains_key(&tx) {
            ctx.obs_milestone(tx, TxMilestone::ClientLearned, 0);
        }
        self.latencies.entry(tx).or_insert(DecisionLatency {
            hops: ctx.hops(),
            micros,
            decision,
        });
        ctx.record_sample("client_decision_hops", u64::from(ctx.hops()));
        ctx.record_sample("client_decision_micros", micros);
        match decision {
            Decision::Commit => ctx.add_counter("client_commits", 1),
            Decision::Abort => ctx.add_counter("client_aborts", 1),
        }
    }
}
