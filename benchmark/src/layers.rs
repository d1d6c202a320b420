//! Per-layer costs measured in isolation (the traced run only).
//!
//! *Replay* feeds the workload's own payload stream through a layer's public
//! type and times the calls: batches of items (see [`ReplaySizes`]),
//! timed in chunks of 256 calls so one clock read is shared by many
//! calls, reported as the median ns per call over the batches. The ping-pong
//! pair prices one event of each engine with handlers that do nothing.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

use ratc_core::batch::VoteBatcher;
use ratc_core::flow::AdmissionQueue;
use ratc_core::log::{CertificationLog, LogEntry, TxPhase};
use ratc_sim::{Actor, Context, Metrics, SimConfig, World};
use ratc_types::{
    Decision, IndexedCertifier, IndexedSerializability, Payload, Position, ProcessId, ShardId, TxId,
};

use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::Workload;

const CHUNK: usize = 256;

/// How much work the isolated measurements do.
#[derive(Debug, Clone, Copy)]
pub struct ReplaySizes {
    pub batches: usize,
    /// A multiple of the timing chunk (256 calls).
    pub batch_items: usize,
    /// Events of the simulator ping-pong.
    pub sim_pingpong_events: u64,
    /// Hops of the threaded ping-pong (each is a cross-thread wake-up, two
    /// orders of magnitude dearer than a simulator event).
    pub rt_pingpong_hops: u64,
    /// Repetitions of the empty threaded run behind `rt.bracket_us`.
    pub bracket_reps: usize,
}

impl ReplaySizes {
    /// Payloads one replay consumes.
    pub fn stream_len(&self) -> usize {
        self.batches * self.batch_items
    }

    pub const FULL: ReplaySizes = ReplaySizes {
        batches: 7,
        batch_items: 8_192,
        sim_pingpong_events: 1_000_000,
        rt_pingpong_hops: 50_000,
        bracket_reps: 7,
    };
    pub const SMOKE: ReplaySizes = ReplaySizes {
        batches: 2,
        batch_items: 512,
        sim_pingpong_events: 20_000,
        rt_pingpong_hops: 1_000,
        bracket_reps: 2,
    };
}

/// Named per-layer measurements.
pub type Measurements = Vec<(&'static str, f64)>;

fn ns_per(duration: Duration, ops: usize) -> f64 {
    duration.as_secs_f64() * 1e9 / ops.max(1) as f64
}

/// `types::certify`: the stream through `IndexedSerializability` with the
/// prepared set held at `in_flight` entries.
fn replay_certify(payloads: &[Payload], in_flight: usize, sizes: ReplaySizes) -> Measurements {
    // The abort share needs the exact sliding window: a vote must see the
    // prepares of the transactions just before it.
    let mut index = IndexedSerializability::new();
    let mut prepared: VecDeque<usize> = VecDeque::new();
    let mut aborts = 0usize;
    for (i, payload) in payloads.iter().enumerate() {
        if index.vote(payload) == Decision::Abort {
            aborts += 1;
        } else {
            index.prepare(Position::new(i as u64), payload);
            prepared.push_back(i);
        }
        while prepared.len() > in_flight {
            let oldest = prepared.pop_front().expect("non-empty");
            index.release(Position::new(oldest as u64));
            index.apply_committed(Position::new(oldest as u64), &payloads[oldest]);
        }
    }

    // Timed pass, chunked: vote a chunk, prepare its commit votes (each
    // pushing the oldest prepared entry out once the set is full), apply the
    // released ones as committed.
    let mut index = IndexedSerializability::new();
    let mut prepared: VecDeque<usize> = VecDeque::new();
    let (mut vote_ns, mut prepare_release_ns, mut apply_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut next = 0usize;
    for _ in 0..sizes.batches {
        let (mut vote, mut lock, mut apply) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        let (mut votes, mut locks, mut applies) = (0, 0, 0);
        for _ in 0..sizes.batch_items / CHUNK {
            let chunk = next..next + CHUNK;
            next += CHUNK;
            let mut commits = Vec::with_capacity(CHUNK);
            let t = Instant::now();
            for i in chunk {
                if black_box(index.vote(black_box(&payloads[i]))) == Decision::Commit {
                    commits.push(i);
                }
            }
            vote += t.elapsed();
            votes += CHUNK;

            let mut released = Vec::with_capacity(CHUNK);
            locks += commits.len();
            let t = Instant::now();
            for i in commits {
                index.prepare(Position::new(i as u64), &payloads[i]);
                prepared.push_back(i);
                if prepared.len() > in_flight {
                    let oldest = prepared.pop_front().expect("non-empty");
                    index.release(Position::new(oldest as u64));
                    released.push(oldest);
                }
            }
            lock += t.elapsed();

            let t = Instant::now();
            for oldest in &released {
                index.apply_committed(Position::new(*oldest as u64), &payloads[*oldest]);
            }
            apply += t.elapsed();
            applies += released.len();
        }
        vote_ns.push(ns_per(vote, votes));
        prepare_release_ns.push(ns_per(lock, locks));
        apply_ns.push(ns_per(apply, applies));
    }
    vec![
        ("certify.vote_ns", median(&vote_ns)),
        ("certify.prepare_release_ns", median(&prepare_release_ns)),
        ("certify.apply_committed_ns", median(&apply_ns)),
        (
            "certify.abort_vote_share",
            aborts as f64 / payloads.len() as f64,
        ),
    ]
}

/// `core::log`: append, decide and truncate through `CertificationLog` with
/// its incremental certifier attached.
fn replay_log(payloads: &[Payload], sizes: ReplaySizes) -> Measurements {
    let mut log = CertificationLog::with_certifier(Box::new(IndexedSerializability::new()));
    let (mut append_ns, mut decide_ns, mut truncate_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut next = 0usize;
    for _ in 0..sizes.batches {
        let (mut append, mut decide, mut truncate) =
            (Duration::ZERO, Duration::ZERO, Duration::ZERO);
        let mut freed = 0;
        for _ in 0..sizes.batch_items / CHUNK {
            let entries: Vec<LogEntry> = (next..next + CHUNK)
                .map(|i| LogEntry {
                    tx: TxId::new(i as u64 + 1),
                    payload: payloads[i].clone(),
                    vote: Decision::Commit,
                    dec: None,
                    phase: TxPhase::Prepared,
                    shards: vec![ShardId::new(0)],
                    client: ProcessId::new(0),
                })
                .collect();
            next += CHUNK;
            let first = log.next();
            let t = Instant::now();
            for entry in entries {
                black_box(log.append(entry));
            }
            append += t.elapsed();
            let t = Instant::now();
            for offset in 0..CHUNK as u64 {
                log.decide(Position::new(first.as_u64() + offset), Decision::Commit);
            }
            decide += t.elapsed();
            let t = Instant::now();
            freed += log.truncate_to(log.decided_frontier());
            truncate += t.elapsed();
        }
        append_ns.push(ns_per(append, sizes.batch_items));
        decide_ns.push(ns_per(decide, sizes.batch_items));
        truncate_ns.push(ns_per(truncate, freed));
    }
    vec![
        ("log.append_ns", median(&append_ns)),
        ("log.decide_ns", median(&decide_ns)),
        ("log.truncate_ns_per_slot", median(&truncate_ns)),
    ]
}

/// `core::batch`: push every item through a `VoteBatcher` with the
/// workload's knobs, draining whenever it reports full.
fn replay_batcher(workload: &Workload, sizes: ReplaySizes) -> Measurements {
    let mut batcher: VoteBatcher<TxId> = VoteBatcher::new(workload.batching);
    let per_item: Vec<f64> = (0..sizes.batches)
        .map(|batch| {
            let t = Instant::now();
            for i in 0..sizes.batch_items {
                if batcher.push(TxId::new((batch * sizes.batch_items + i) as u64)) {
                    black_box(batcher.drain_full());
                }
            }
            ns_per(t.elapsed(), sizes.batch_items)
        })
        .collect();
    vec![("batch.push_drain_ns_per_item", median(&per_item))]
}

/// `core::flow`: one enqueue and one pop per item through an
/// `AdmissionQueue` holding `depth` waiting transactions.
fn replay_admission(depth: usize, sizes: ReplaySizes) -> Measurements {
    let mut queue: AdmissionQueue<usize> = AdmissionQueue::new();
    for i in 0..depth {
        queue.enqueue(TxId::new(i as u64), i);
    }
    let per_pair: Vec<f64> = (0..sizes.batches)
        .map(|batch| {
            let t = Instant::now();
            for i in 0..sizes.batch_items {
                let n = depth + batch * sizes.batch_items + i;
                queue.enqueue(TxId::new(n as u64), n);
                black_box(queue.pop());
            }
            ns_per(t.elapsed(), sizes.batch_items)
        })
        .collect();
    vec![("flow.enqueue_pop_ns", median(&per_pair))]
}

/// `sim::metrics`: direct calls with the key names the replicas use.
fn replay_metrics(sizes: ReplaySizes) -> Measurements {
    const COUNTERS: [&str; 5] = [
        "coordinator_decisions",
        "leader_prepared",
        "prepare_batches_sent",
        "log_slots_truncated",
        "client_commits",
    ];
    const SAMPLES: [&str; 3] = [
        "coordinator_decision_hops",
        "client_decision_hops",
        "client_decision_micros",
    ];
    let mut metrics = Metrics::new();
    let (mut counter_ns, mut sample_ns) = (Vec::new(), Vec::new());
    for _ in 0..sizes.batches {
        let t = Instant::now();
        for i in 0..sizes.batch_items {
            metrics.add_counter(black_box(COUNTERS[i % COUNTERS.len()]), 1);
        }
        counter_ns.push(ns_per(t.elapsed(), sizes.batch_items));
        let t = Instant::now();
        for i in 0..sizes.batch_items {
            metrics.record_sample(black_box(SAMPLES[i % SAMPLES.len()]), i as f64);
        }
        sample_ns.push(ns_per(t.elapsed(), sizes.batch_items));
    }
    black_box(metrics.counter("client_commits"));
    vec![
        ("metrics.add_counter_ns", median(&counter_ns)),
        ("metrics.record_sample_ns", median(&sample_ns)),
    ]
}

/// The ping-pong message.
#[derive(Debug, Clone)]
struct Ball;

/// Returns the ball until its budget of returns is spent.
struct Paddle {
    returns_left: u64,
}

impl Actor<Ball> for Paddle {
    fn on_message(&mut self, from: ProcessId, _ball: Ball, ctx: &mut Context<'_, Ball>) {
        if self.returns_left > 0 {
            self.returns_left -= 1;
            ctx.send(from, Ball);
        }
    }
}

/// A two-paddle world that will execute `events` deliveries.
fn pingpong_world(events: u64) -> World<Ball> {
    let mut world = World::new(SimConfig::default());
    // `b` receives first; whoever receives the last delivery keeps the ball.
    let a = world.add_actor(Paddle {
        returns_left: events - events / 2 - 1,
    });
    let b = world.add_actor(Paddle {
        returns_left: events / 2,
    });
    world.send_from(a, b, Ball);
    world
}

/// `sim::world` and `sim::rt`: ns per event with handlers that do nothing.
fn pingpong(sizes: ReplaySizes) -> Measurements {
    let mut world = pingpong_world(sizes.sim_pingpong_events);
    let t = Instant::now();
    let steps = world.run();
    let sim_ns = ns_per(t.elapsed(), steps as usize);
    assert_eq!(
        steps, sizes.sim_pingpong_events,
        "the simulator ping-pong ran short"
    );

    let mut world = pingpong_world(sizes.rt_pingpong_hops);
    let t = Instant::now();
    let steps = world.run_threaded();
    // The clock stops at quiescence detection, so the run's closing bracket
    // is part of it; `rt.bracket_us` prices that bracket on its own.
    let rt_ns = ns_per(t.elapsed(), steps as usize);
    assert_eq!(
        steps, sizes.rt_pingpong_hops,
        "the threaded ping-pong ran short"
    );
    vec![
        ("world.pingpong_ns_per_event", sim_ns),
        ("rt.pingpong_ns_per_hop", rt_ns),
    ]
}

/// `sim::rt`: what one `run_to_quiescence` costs on an idle threaded cluster
/// of the workload's deployment — the fixed bracket every wave pays.
fn bracket(workload: &Workload, seed: u64, sizes: ReplaySizes) -> Measurements {
    let mut cluster = workload.idle_threaded_cluster(seed);
    let micros: Vec<f64> = (0..sizes.bracket_reps)
        .map(|_| {
            let t = Instant::now();
            cluster.run_to_quiescence();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    vec![("rt.bracket_us", median(&micros))]
}

/// Runs every isolated measurement, one span each.
pub fn measure(
    workload: &Workload,
    payloads: &[Payload],
    in_flight: usize,
    seed: u64,
    sizes: ReplaySizes,
    tracer: &mut Tracer,
) -> Measurements {
    let in_flight = in_flight.max(1);
    [
        tracer.time("certify.replay", "types::certify", || {
            replay_certify(payloads, in_flight, sizes)
        }),
        tracer.time("log.replay", "core::log", || replay_log(payloads, sizes)),
        tracer.time("batch.replay", "core::batch", || {
            replay_batcher(workload, sizes)
        }),
        tracer.time("flow.replay", "core::flow", || {
            replay_admission(in_flight, sizes)
        }),
        tracer.time("metrics.replay", "sim::metrics", || replay_metrics(sizes)),
        tracer.time("pingpong", "sim::world", || pingpong(sizes)),
        tracer.time("rt.bracket", "sim::rt", || bracket(workload, seed, sizes)),
    ]
    .concat()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn pingpong_world_executes_exactly_the_requested_events() {
        for events in [1, 2, 7, 1_000] {
            assert_eq!(pingpong_world(events).run(), events);
        }
    }

    #[test]
    fn disjoint_stream_never_votes_abort_and_hot_stream_does() {
        let share = |payloads: &[Payload]| {
            replay_certify(payloads, 16, ReplaySizes::SMOKE)
                .into_iter()
                .find(|(name, _)| *name == "certify.abort_vote_share")
                .expect("reported")
                .1
        };
        assert_eq!(share(&gen::disjoint(1, 2_000)), 0.0);
        let hot = gen::versioned(
            1,
            2_000,
            gen::VersionedShape {
                keys: 50,
                theta: 0.9,
                keys_per_tx: 4,
                writes_per_tx: 2,
            },
        );
        assert!(share(&hot) > 0.1);
    }
}
