//! Measurement: per-process message counts, named counters and statistics.
//!
//! The experiment harnesses derive every reported number either from these
//! metrics or from recorded TCS histories. Protocol actors record
//! protocol-level numbers (commits, aborts, client-visible message delays)
//! through [`Context::add_counter`](crate::actor::Context::add_counter) and
//! [`Context::record_sample`](crate::actor::Context::record_sample); the world
//! records transport-level numbers (messages sent and received per process,
//! RDMA writes, rejected RDMA writes) automatically.
// analyze:allow-file(float-state): this is the measurement sink itself —
// metrics are derived FROM runs and never feed back into scheduling or
// protocol decisions (pinned by the PR 8 obs-invisibility differential
// tests), so float statistics here cannot perturb replay.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

use ratc_obs::{CtrlEvent, TxObsEvent};
use ratc_types::ProcessId;

/// Log-spaced histogram resolution: sub-buckets per octave (power of two).
/// Eight per octave bounds the relative error of a streaming percentile by
/// `2^(1/8) − 1 ≈ 9%`.
const HIST_SUBDIV: f64 = 8.0;

/// Number of histogram buckets: bucket 0 holds values `< 1`, the rest cover
/// `[1, 2^32)` microseconds-scale values in `2^(1/8)` steps — wider than any
/// latency this workspace produces.
const HIST_BUCKETS: usize = 258;

/// The log-spaced bucket index for `value`.
fn hist_index(value: f64) -> usize {
    if value.is_nan() || value < 1.0 {
        // Negative, NaN and sub-unit values all land in bucket 0.
        return 0;
    }
    let index = (value.log2() * HIST_SUBDIV).floor() as usize + 1;
    index.min(HIST_BUCKETS - 1)
}

/// A representative value (the geometric midpoint) of bucket `index`.
fn hist_value(index: usize) -> f64 {
    if index == 0 {
        0.0
    } else {
        ((index as f64 - 0.5) / HIST_SUBDIV).exp2()
    }
}

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

/// A streaming summary of a named statistic.
///
/// Besides count/sum/min/max, the summary maintains a small fixed log-spaced
/// histogram so tail percentiles ([`Summary::percentile`]) are available in
/// O(1) memory per statistic — min/mean/max hides exactly the tail latency
/// that matters at overload. No raw sample is retained.
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
    /// Log-spaced sample histogram (empty until the first sample; bucket
    /// boundaries grow by `2^(1/8)` per bucket).
    pub buckets: Vec<u64>,
}

impl Summary {
    fn record(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
            self.buckets = vec![0; HIST_BUCKETS];
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
        self.buckets[hist_index(value)] += 1;
    }

    /// The mean of the recorded samples, or 0 if none were recorded.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// A streaming estimate of the `pct` percentile (0–100) of the recorded
    /// samples, or 0 if none were recorded.
    ///
    /// The estimate is the geometric midpoint of the log-spaced histogram
    /// bucket containing the requested rank, clamped into `[min, max]`:
    /// relative error is bounded by the bucket width (`2^(1/8) − 1 ≈ 9%`).
    pub fn percentile(&self, pct: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((pct.clamp(0.0, 100.0) / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.max(1);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return hist_value(index).clamp(self.min, self.max);
            }
        }
        self.max
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
                for (mine, theirs) in mine.buckets.iter_mut().zip(summary.buckets) {
                    *mine += theirs;
                }
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
        assert_eq!(Summary::default().percentile(99.0), 0.0);
    }

    #[test]
    fn streaming_percentiles_track_the_exact_ones_within_bucket_width() {
        let mut m = Metrics::new();
        let input: Vec<f64> = (1..=1000).map(f64::from).collect();
        for &value in &input {
            m.record_sample("lat", value);
        }
        let s = m.summary("lat").expect("recorded");
        for pct in [50.0, 95.0, 99.0] {
            // Nearest-rank order statistic of the (already sorted) input.
            let rank = (pct / 100.0 * input.len() as f64).ceil() as usize;
            let exact = input[rank - 1];
            let estimate = s.percentile(pct);
            let err = (estimate - exact).abs() / exact;
            assert!(
                err < 0.10,
                "p{pct}: streaming {estimate} vs exact {exact} ({err:.3} rel err)"
            );
        }
        assert!(s.percentile(0.0) >= s.min && s.percentile(0.0) <= s.min * 1.10);
        assert!(s.percentile(100.0) <= s.max);
    }

    #[test]
    fn streaming_percentiles_survive_absorb() {
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        for i in 1..=500 {
            a.record_sample("lat", i as f64);
            b.record_sample("lat", (500 + i) as f64);
        }
        a.absorb(b);
        let s = a.summary("lat").expect("recorded");
        assert_eq!(s.count, 1000);
        let p50 = s.percentile(50.0);
        assert!(
            (p50 - 500.0).abs() / 500.0 < 0.10,
            "merged p50 {p50} not near 500"
        );
    }

    #[test]
    fn obs_recording_is_gated_and_absorbed() {
        use ratc_obs::{TxMilestone, TxObsEvent};
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

    fn ctrl_event(at: u64) -> ratc_obs::CtrlEvent {
        ratc_obs::CtrlEvent {
            at_micros: at,
            by: ProcessId::new(1),
            milestone: ratc_obs::CtrlMilestone::Crash,
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
    #[allow(dead_code)]
    enum Msg {
        Prepare { tx: u64 },
        Vote(u64),
        Flush,
    }

    #[derive(Debug)]
    #[allow(dead_code)]
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
