//! Measurement: per-process message counts, named counters and statistics.
//!
//! The experiment harnesses derive every reported number either from these
//! metrics or from recorded TCS histories. Protocol actors record
//! protocol-level numbers (commits, aborts, client-visible message delays)
//! through [`Context::add_counter`](crate::actor::Context::add_counter) and
//! [`Context::record_sample`](crate::actor::Context::record_sample); the world
//! records transport-level numbers (messages sent and received per process,
//! RDMA writes, rejected RDMA writes) automatically.
#![expect(
    clippy::disallowed_types,
    clippy::float_arithmetic,
    reason = "the measurement sink: metrics are derived from runs and never feed back into scheduling or protocol decisions"
)]

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use ratc_types::ProcessId;

use crate::ctrl::CtrlEvent;
use crate::obs::TxObsEvent;

/// Per-process transport counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessCounters {
    /// Messages sent over the message-passing network.
    pub sent: u64,
    /// Messages received over the message-passing network.
    pub received: u64,
    /// RDMA writes issued.
    pub rdma_writes: u64,
    /// RDMA acknowledgements received.
    pub rdma_acks: u64,
    /// RDMA messages delivered out of local memory.
    pub rdma_delivered: u64,
}

impl ProcessCounters {
    /// Total messages handled (sent + received + RDMA deliveries), a proxy for
    /// the load placed on the process.
    pub fn handled(&self) -> u64 {
        self.sent + self.received + self.rdma_delivered
    }
}

/// Send/deliver counts for one message type (the head of the message's
/// `Debug` form: its variant or struct name), recorded only while
/// observability is enabled.
///
/// `sent ≥ delivered` in any run: messages to crashed or partitioned
/// processes are sent but never delivered. Divided by the number of
/// submitted transactions this is the paper's *messages per transaction*
/// broken down by protocol step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MsgTypeCounters {
    /// Messages of this type handed to the transport.
    pub sent: u64,
    /// Messages of this type delivered to their destination actor.
    pub delivered: u64,
}

/// A streaming summary of a named statistic: count, sum, minimum and
/// maximum. No raw sample is retained.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Summary {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of the samples.
    pub sum: f64,
    /// Minimum sample (0 if no samples).
    pub min: f64,
    /// Maximum sample (0 if no samples).
    pub max: f64,
}

impl Summary {
    fn record(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            if value < self.min {
                self.min = value;
            }
            if value > self.max {
                self.max = value;
            }
        }
        self.count += 1;
        self.sum += value;
    }

    /// The mean of the recorded samples, or 0 if none were recorded.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Writes the label of `msg` into `buf`: the head of its `Debug` form, up to
/// the first `(`, `{` or whitespace. The adaptor fails the write at that
/// delimiter, which makes `Debug` return before it formats any field, so a
/// label costs the same for a unit variant and for a 32-item batch.
fn label_of<M: fmt::Debug>(msg: &M, buf: &mut String) {
    struct Head<'a>(&'a mut String);

    impl fmt::Write for Head<'_> {
        fn write_str(&mut self, s: &str) -> fmt::Result {
            match s.find(|c: char| c == '(' || c == '{' || c.is_whitespace()) {
                Some(end) => {
                    self.0.push_str(&s[..end]);
                    Err(fmt::Error)
                }
                None => {
                    self.0.push_str(s);
                    Ok(())
                }
            }
        }
    }

    buf.clear();
    // The only error is the adaptor's own stop at the delimiter.
    let _ = write!(Head(buf), "{msg:?}");
}

/// All metrics collected during a simulation run.
///
/// Counters and statistics are keyed by `&'static str`: every recording site
/// names its metric with a literal, so recording allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    per_process: BTreeMap<ProcessId, ProcessCounters>,
    counters: BTreeMap<&'static str, u64>,
    samples: BTreeMap<&'static str, Summary>,
    /// Total messages delivered over the message-passing network.
    pub total_delivered: u64,
    /// Total RDMA writes rejected because the connection was closed.
    pub rdma_rejected: u64,
    /// Whether commit-path observability is recording (off by default).
    obs_enabled: bool,
    /// Recorded transaction lifecycle observations, in recording order.
    /// Always empty while `obs_enabled` is false.
    obs: Vec<TxObsEvent>,
    /// Recorded control-plane observations, in recording order. Always empty
    /// while `obs_enabled` is false.
    ctrl: Vec<CtrlEvent>,
    /// Per-message-type send/deliver counts, recorded only while
    /// `obs_enabled` is true (keeps the default path free of per-send
    /// string work).
    msg_counters: BTreeMap<String, MsgTypeCounters>,
    /// Scratch buffer `label_of` writes into, reused across messages.
    label: String,
}

impl Metrics {
    /// Creates an empty metrics collector.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Creates an empty collector with commit-path observability switched on
    /// or off.
    pub fn with_obs(obs_enabled: bool) -> Self {
        Metrics {
            obs_enabled,
            ..Metrics::default()
        }
    }

    /// `true` if commit-path observability is recording.
    pub fn obs_enabled(&self) -> bool {
        self.obs_enabled
    }

    /// Appends one lifecycle observation. Callers gate on
    /// [`Metrics::obs_enabled`] so the disabled path stays a branch on a
    /// bool; recording never consults randomness or schedules events, which
    /// is what keeps same-seed runs bit-identical with observability on.
    pub fn obs_record(&mut self, event: TxObsEvent) {
        if self.obs_enabled {
            self.obs.push(event);
        }
    }

    /// The recorded lifecycle observations, in recording order (empty unless
    /// observability was enabled).
    pub fn obs_events(&self) -> &[TxObsEvent] {
        &self.obs
    }

    /// Appends one control-plane observation. Gated and schedule-invisible
    /// exactly like [`Metrics::obs_record`].
    pub fn ctrl_record(&mut self, event: CtrlEvent) {
        if self.obs_enabled {
            self.ctrl.push(event);
        }
    }

    /// The recorded control-plane observations, in recording order (empty
    /// unless observability was enabled).
    pub fn ctrl_events(&self) -> &[CtrlEvent] {
        &self.ctrl
    }

    /// Counts one sent message under its type's label (see
    /// [`MsgTypeCounters`]). Tests [`Metrics::obs_enabled`] itself, so with
    /// observability off the message is not looked at.
    pub(crate) fn on_msg_sent<M: fmt::Debug>(&mut self, msg: &M) {
        if self.obs_enabled {
            self.count_msg(msg).sent += 1;
        }
    }

    /// Counts one delivered message under its type's label.
    pub(crate) fn on_msg_delivered<M: fmt::Debug>(&mut self, msg: &M) {
        if self.obs_enabled {
            self.count_msg(msg).delivered += 1;
        }
    }

    fn count_msg<M: fmt::Debug>(&mut self, msg: &M) -> &mut MsgTypeCounters {
        label_of(msg, &mut self.label);
        if !self.msg_counters.contains_key(self.label.as_str()) {
            // Once per message type per collector.
            self.msg_counters
                .insert(self.label.clone(), MsgTypeCounters::default());
        }
        self.msg_counters
            .get_mut(self.label.as_str())
            .expect("just inserted")
    }

    /// Per-message-type send/deliver counts, keyed by the message type's
    /// label (empty unless observability was enabled).
    pub fn msg_type_counters(&self) -> impl Iterator<Item = (&str, MsgTypeCounters)> + '_ {
        self.msg_counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// The send/deliver counts for one message type (zero if never seen).
    pub fn msg_type(&self, label: &str) -> MsgTypeCounters {
        self.msg_counters.get(label).copied().unwrap_or_default()
    }

    pub(crate) fn on_send(&mut self, from: ProcessId) {
        self.per_process.entry(from).or_default().sent += 1;
    }

    pub(crate) fn on_receive(&mut self, to: ProcessId) {
        self.per_process.entry(to).or_default().received += 1;
        self.total_delivered += 1;
    }

    pub(crate) fn on_rdma_write(&mut self, from: ProcessId) {
        self.per_process.entry(from).or_default().rdma_writes += 1;
    }

    pub(crate) fn on_rdma_ack(&mut self, to: ProcessId) {
        self.per_process.entry(to).or_default().rdma_acks += 1;
    }

    pub(crate) fn on_rdma_deliver(&mut self, to: ProcessId) {
        self.per_process.entry(to).or_default().rdma_delivered += 1;
    }

    /// Adds `delta` to the named counter.
    pub fn add_counter(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_default() += delta;
    }

    /// Records a sample of the named statistic.
    pub fn record_sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().record(value);
    }

    /// Records an integral sample (a count, a hop number, microseconds): the
    /// one place a protocol actor's number becomes a float.
    pub(crate) fn record_count(&mut self, name: &'static str, value: u64) {
        self.record_sample(name, value as f64);
    }

    /// The value of the named counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The summary of the named statistic, if any samples were recorded.
    pub fn summary(&self, name: &str) -> Option<&Summary> {
        self.samples.get(name)
    }

    /// Transport counters for `process`.
    pub fn process(&self, process: ProcessId) -> ProcessCounters {
        self.per_process.get(&process).copied().unwrap_or_default()
    }

    /// Messages sent by `process`.
    pub fn sent(&self, process: ProcessId) -> u64 {
        self.process(process).sent
    }

    /// Messages received by `process`.
    pub fn received(&self, process: ProcessId) -> u64 {
        self.process(process).received
    }

    /// Iterates over all per-process counters.
    pub fn processes(&self) -> impl Iterator<Item = (ProcessId, &ProcessCounters)> + '_ {
        self.per_process.iter().map(|(p, c)| (*p, c))
    }

    /// Iterates over all named counters.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// Folds another collector into this one: counters and summaries add up,
    /// observation streams are appended. Used by the threaded backend
    /// ([`crate::rt`]) to merge the per-thread collectors back into the
    /// world's collector after a run.
    pub fn absorb(&mut self, other: Metrics) {
        for (pid, counters) in other.per_process {
            let mine = self.per_process.entry(pid).or_default();
            mine.sent += counters.sent;
            mine.received += counters.received;
            mine.rdma_writes += counters.rdma_writes;
            mine.rdma_acks += counters.rdma_acks;
            mine.rdma_delivered += counters.rdma_delivered;
        }
        for (name, value) in other.counters {
            *self.counters.entry(name).or_default() += value;
        }
        for (name, summary) in other.samples {
            let mine = self.samples.entry(name).or_default();
            if mine.count == 0 {
                *mine = summary;
            } else if summary.count > 0 {
                mine.min = mine.min.min(summary.min);
                mine.max = mine.max.max(summary.max);
                mine.count += summary.count;
                mine.sum += summary.sum;
            }
        }
        self.total_delivered += other.total_delivered;
        self.rdma_rejected += other.rdma_rejected;
        self.obs.extend(other.obs);
        self.ctrl.extend(other.ctrl);
        for (label, counts) in other.msg_counters {
            let mine = self.msg_counters.entry(label).or_default();
            mine.sent += counts.sent;
            mine.delivered += counts.delivered;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_samples() {
        let mut m = Metrics::new();
        m.add_counter("commits", 2);
        m.add_counter("commits", 3);
        assert_eq!(m.counter("commits"), 5);
        assert_eq!(m.counter("unknown"), 0);

        m.record_sample("lat", 1.0);
        m.record_sample("lat", 3.0);
        m.record_sample("lat", 2.0);
        let s = m.summary("lat").expect("samples recorded");
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!((s.mean() - 2.0).abs() < f64::EPSILON);
        assert!(m.summary("none").is_none());

        // Summaries merge under `absorb`: counts and sums add, extremes widen.
        let mut other = Metrics::new();
        other.record_sample("lat", 0.5);
        other.record_sample("lat", 9.5);
        m.absorb(other);
        let s = m.summary("lat").expect("samples recorded");
        assert_eq!((s.count, s.sum, s.min, s.max), (5, 16.0, 0.5, 9.5));
    }

    #[test]
    fn per_process_counters() {
        let mut m = Metrics::new();
        let p = ProcessId::new(1);
        m.on_send(p);
        m.on_send(p);
        m.on_receive(p);
        m.on_rdma_write(p);
        m.on_rdma_ack(p);
        m.on_rdma_deliver(p);
        let c = m.process(p);
        assert_eq!(c.sent, 2);
        assert_eq!(c.received, 1);
        assert_eq!(c.rdma_writes, 1);
        assert_eq!(c.rdma_acks, 1);
        assert_eq!(c.rdma_delivered, 1);
        assert_eq!(c.handled(), 4);
        assert_eq!(m.sent(p), 2);
        assert_eq!(m.received(p), 1);
        assert_eq!(m.total_delivered, 1);
        assert_eq!(m.processes().count(), 1);
        assert_eq!(m.counters().count(), 0);
    }

    #[test]
    fn empty_summary_mean_is_zero() {
        assert_eq!(Summary::default().mean(), 0.0);
    }

    #[test]
    fn obs_recording_is_gated_and_absorbed() {
        use crate::obs::{TxMilestone, TxObsEvent};
        use ratc_types::TxId;
        let event = TxObsEvent {
            tx: TxId::new(1),
            at_micros: 10,
            by: ProcessId::new(2),
            milestone: TxMilestone::Submitted,
            detail: 0,
        };
        let mut off = Metrics::new();
        assert!(!off.obs_enabled());
        off.obs_record(event);
        assert!(off.obs_events().is_empty(), "disabled recorder stays empty");

        let mut on = Metrics::with_obs(true);
        on.obs_record(event);
        assert_eq!(on.obs_events().len(), 1);

        let mut other = Metrics::with_obs(true);
        other.obs_record(TxObsEvent {
            at_micros: 20,
            ..event
        });
        on.absorb(other);
        assert_eq!(on.obs_events().len(), 2);
    }

    fn ctrl_event(at: u64) -> crate::ctrl::CtrlEvent {
        crate::ctrl::CtrlEvent {
            at_micros: at,
            by: ProcessId::new(1),
            milestone: crate::ctrl::CtrlMilestone::Crash,
            shard: None,
            detail: 0,
            note: String::new(),
        }
    }

    #[test]
    fn ctrl_recording_is_gated_and_absorbed() {
        let mut off = Metrics::new();
        off.ctrl_record(ctrl_event(10));
        assert!(
            off.ctrl_events().is_empty(),
            "disabled recorder stays empty"
        );

        let mut on = Metrics::with_obs(true);
        on.ctrl_record(ctrl_event(10));
        assert_eq!(on.ctrl_events().len(), 1);

        let mut other = Metrics::with_obs(true);
        other.ctrl_record(ctrl_event(20));
        on.absorb(other);
        assert_eq!(on.ctrl_events().len(), 2);
        assert_eq!(on.ctrl_events()[1].at_micros, 20);
    }

    /// One message of each shape `Debug` can take: a struct variant, a tuple
    /// variant, a unit variant and (below) a newtype struct.
    #[derive(Debug)]
    #[expect(dead_code, reason = "the fields are read only through `Debug`")]
    enum Msg {
        Prepare { tx: u64 },
        Vote(u64),
        Flush,
    }

    #[derive(Debug)]
    #[expect(dead_code, reason = "the field is read only through `Debug`")]
    struct Wrapped(Vec<u64>);

    #[test]
    fn labels_are_the_debug_head_without_the_payload() {
        let mut buf = String::from("stale");
        label_of(&Msg::Prepare { tx: 1 }, &mut buf);
        assert_eq!(buf, "Prepare");
        label_of(&Msg::Vote(2), &mut buf);
        assert_eq!(buf, "Vote");
        label_of(&Msg::Flush, &mut buf);
        assert_eq!(buf, "Flush");
        label_of(&Wrapped(vec![1, 2, 3]), &mut buf);
        assert_eq!(buf, "Wrapped");
    }

    #[test]
    fn msg_type_counters_are_gated_and_absorbed() {
        let mut off = Metrics::new();
        off.on_msg_sent(&Msg::Prepare { tx: 1 });
        assert_eq!(
            off.msg_type("Prepare").sent,
            0,
            "disabled path counts nothing"
        );

        let mut on = Metrics::with_obs(true);
        on.on_msg_sent(&Msg::Prepare { tx: 1 });
        on.on_msg_sent(&Msg::Prepare { tx: 2 });
        on.on_msg_delivered(&Msg::Prepare { tx: 1 });
        on.on_msg_sent(&Msg::Vote(1));
        assert_eq!(on.msg_type("Prepare").sent, 2);
        assert_eq!(on.msg_type("Prepare").delivered, 1);
        assert_eq!(on.msg_type("Vote").delivered, 0);
        assert_eq!(on.msg_type("Unknown"), MsgTypeCounters::default());

        let mut other = Metrics::with_obs(true);
        other.on_msg_sent(&Msg::Vote(2));
        other.on_msg_delivered(&Msg::Vote(2));
        on.absorb(other);
        assert_eq!(on.msg_type("Vote").sent, 2);
        assert_eq!(on.msg_type("Vote").delivered, 1);
        assert_eq!(on.msg_type_counters().count(), 2);
    }
}
