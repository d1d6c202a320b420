//! The six workloads and the drivers that run one round of each.
//!
//! A *round* deploys a fresh cluster through `ClusterSpec`, drives one
//! payload stream through it and observes the outcome through the
//! `TcsCluster` facade only. Three drivers exist: closed waves on the
//! threaded engine, open-loop arrivals on the simulator, and open-loop
//! arrivals through `ChaosHarness` with a leader crash and a planned
//! reconfiguration on the way.

use std::collections::BTreeMap;
use std::time::Instant;

use ratc_chaos::{ChaosHarness, FaultEvent};
use ratc_core::batch::BatchingConfig;
use ratc_harness::{ClusterSpec, DecisionLatency, ExecutionMode, StackKind, TcsCluster};
use ratc_sim::{CtrlEvent, CtrlMilestone, SimConfig, SimDuration, SimTime, TxMilestone};
use ratc_types::{Payload, ShardId, TcsHistory, TxId};

use crate::gen::{self, VersionedShape};
use crate::trace::Tracer;

/// Which engine a round runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// One OS thread per process, wall clock.
    Threads,
    /// The deterministic simulator, virtual clock.
    Sim,
}

/// What a workload submits and how.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// Closed loop: `waves` times, submit `wave_size` conflict-free
    /// transactions, then run to quiescence. Threads engine.
    Waves { waves: usize, wave_size: usize },
    /// Open loop on the simulator: one arrival every `interval_us` virtual µs.
    OpenLoop {
        count: usize,
        interval_us: u64,
        keys: VersionedShape,
    },
    /// Open loop through `ChaosHarness`: the leader of shard 0 crashes a third
    /// of the way through the arrivals, a failure detector (this driver)
    /// asks for its reconfiguration [`DETECT_AFTER_US`] later, and shard 1 is
    /// reconfigured as planned maintenance two thirds of the way through.
    Failover {
        count: usize,
        interval_us: u64,
        keys: VersionedShape,
    },
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub stack: StackKind,
    pub engine: Engine,
    pub shards: u32,
    pub spares: usize,
    pub batching: BatchingConfig,
    pub shape: Shape,
}

/// Key popularity of the two contended workloads. The exponent is the one
/// that puts `mp-contended-sim`'s abort share inside 0.05–0.20 on this key
/// space (θ = 0.99 aborted 0.29–0.47 of the stream: too hot to measure
/// anything but the certifier saying no).
pub const CONTENDED_KEYS: VersionedShape = VersionedShape {
    keys: 100_000,
    theta: 0.75,
    keys_per_tx: 4,
    writes_per_tx: 2,
};

/// Low-contention two-key transactions of the failover workload.
const FAILOVER_KEYS: VersionedShape = VersionedShape {
    keys: 100_000,
    theta: 0.0,
    keys_per_tx: 2,
    writes_per_tx: 1,
};

/// Arrival interval of the contended workloads, and of the simulated cost
/// round that gives the Threads workloads their virtual-time metrics.
pub const OPEN_LOOP_INTERVAL_US: u64 = 20;

/// Virtual CPU cost of one delivery on the simulator, so a busy process
/// queues its messages and leader load shows up in the latency tail.
const SERVICE_US: u64 = 5;

/// How long after the crash the modelled failure detector asks for the
/// crashed shard's reconfiguration.
pub const DETECT_AFTER_US: u64 = 10_000;

/// How long after a transaction was due the failover workload's client
/// re-drives it if it is still undecided (checked every such interval).
const CLIENT_RETRY_US: u64 = 20_000;

/// How often (in arrivals) an open-loop round samples `retained_log_slots`.
const RETAINED_SAMPLE_EVERY: usize = 1_024;

/// The shard whose leader the failover workload crashes.
pub const CRASHED_SHARD: u32 = 0;
/// The shard the failover workload reconfigures as planned maintenance.
pub const PLANNED_SHARD: u32 = 1;

impl Workload {
    /// The six workloads, at full size.
    pub fn all() -> [Workload; 6] {
        let waves = Shape::Waves {
            waves: 10,
            wave_size: 10_000,
        };
        let contended = Shape::OpenLoop {
            count: 50_000,
            interval_us: OPEN_LOOP_INTERVAL_US,
            keys: CONTENDED_KEYS,
        };
        [
            Workload {
                name: "mp-disjoint-threads",
                stack: StackKind::Core,
                engine: Engine::Threads,
                shards: 2,
                spares: 0,
                batching: BatchingConfig::with_batch(32),
                shape: waves,
            },
            Workload {
                name: "mp-unbatched-threads",
                stack: StackKind::Core,
                engine: Engine::Threads,
                shards: 2,
                spares: 0,
                batching: BatchingConfig::disabled(),
                shape: waves,
            },
            Workload {
                name: "rdma-disjoint-threads",
                stack: StackKind::Rdma,
                engine: Engine::Threads,
                shards: 2,
                spares: 0,
                batching: BatchingConfig::with_batch(32),
                shape: waves,
            },
            Workload {
                name: "mp-contended-sim",
                stack: StackKind::Core,
                engine: Engine::Sim,
                shards: 4,
                spares: 0,
                batching: BatchingConfig::with_batch(32),
                shape: contended,
            },
            Workload {
                name: "baseline-contended-sim",
                stack: StackKind::Baseline,
                engine: Engine::Sim,
                shards: 4,
                spares: 0,
                batching: BatchingConfig::with_batch(32),
                shape: contended,
            },
            Workload {
                name: "mp-failover-sim",
                stack: StackKind::Core,
                engine: Engine::Sim,
                shards: 2,
                spares: 1,
                batching: BatchingConfig::with_batch(32),
                shape: Shape::Failover {
                    count: 3_000,
                    interval_us: 200,
                    keys: FAILOVER_KEYS,
                },
            },
        ]
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::all().into_iter().find(|w| w.name == name)
    }

    /// The same workload with every size divided by `divisor` (`--smoke`).
    pub fn scaled(mut self, divisor: usize) -> Workload {
        match &mut self.shape {
            Shape::Waves { wave_size, .. } => *wave_size /= divisor,
            Shape::OpenLoop { count, .. } | Shape::Failover { count, .. } => *count /= divisor,
        }
        self
    }

    /// Transactions of one measured round.
    pub fn round_size(&self) -> usize {
        match self.shape {
            Shape::Waves { waves, wave_size } => waves * wave_size,
            Shape::OpenLoop { count, .. } | Shape::Failover { count, .. } => count,
        }
    }

    /// Generates `count` payloads of this workload's stream from `seed`.
    pub fn generate(&self, seed: u64, count: usize) -> Vec<Payload> {
        match self.shape {
            Shape::Waves { .. } => gen::disjoint(seed, count),
            Shape::OpenLoop { keys, .. } | Shape::Failover { keys, .. } => {
                gen::versioned(seed, count, keys)
            }
        }
    }

    /// Transactions of the discarded warm-up round: a tenth of a measured one
    /// (one wave of a Waves workload).
    pub fn warm_up_size(&self) -> usize {
        (self.round_size() / 10).max(1)
    }

    /// Arrival interval of this workload's stream on the simulator.
    pub fn sim_interval_us(&self) -> u64 {
        match self.shape {
            Shape::Waves { .. } => OPEN_LOOP_INTERVAL_US,
            Shape::OpenLoop { interval_us, .. } | Shape::Failover { interval_us, .. } => {
                interval_us
            }
        }
    }

    /// Whether nothing in this workload's stream can conflict, so that every
    /// transaction must commit.
    pub fn conflict_free(&self) -> bool {
        matches!(self.shape, Shape::Waves { .. })
    }

    /// The deployment: f = 1, default flow control and truncation, default
    /// latency model (uniform 40–60 µs per message, RDMA a third of that).
    fn cluster_spec(&self, engine: Engine, seed: u64, obs: bool) -> ClusterSpec {
        let mut sim = SimConfig::default()
            .with_seed(seed)
            .with_service_micros(SERVICE_US);
        sim.obs = obs;
        ClusterSpec::new(self.stack)
            .with_shards(self.shards)
            .with_failures(1)
            .with_spares_per_shard(self.spares)
            .with_batching(self.batching)
            .with_sim(sim)
            .with_execution(match engine {
                Engine::Threads => ExecutionMode::Threads,
                Engine::Sim => ExecutionMode::Sim,
            })
    }

    /// An idle cluster of this workload's deployment on the threaded engine
    /// (for `rt.bracket_us`).
    pub fn idle_threaded_cluster(&self, seed: u64) -> Box<dyn TcsCluster> {
        self.cluster_spec(Engine::Threads, seed, false).build()
    }
}

/// What the facade shows only with observability on.
#[derive(Debug, Clone, Default)]
pub struct ObsFacade {
    /// Mean of each `phase_breakdown()` phase, µs on the cluster clock,
    /// indexed like `Phase::ALL`.
    pub phase_mean_us: [f64; 6],
    /// Retry milestones per submitted transaction.
    pub retries_per_tx: f64,
    /// Lifecycle events recorded per decided transaction.
    pub events_per_tx: f64,
    /// Transactions per flushed batch (1 when nothing was batched).
    pub batch_occupancy: f64,
    /// Control-plane events recorded.
    pub ctrl_events: u64,
}

/// The outage of the failover workload, from the control-plane stream.
#[derive(Debug, Clone, Default)]
pub struct Outage {
    /// Crash → first decision on the crashed shard once it is operational
    /// again.
    pub unavailable_us: u64,
    /// Reconfiguration asked for → that first decision: the four gaps below
    /// sum to it.
    pub recover_us: u64,
    /// Reconfiguration asked for → `ProbeStarted`.
    pub detect_us: u64,
    /// `ProbeStarted` → `ConfigChosen`.
    pub probe_us: u64,
    /// `ConfigChosen` → `ShardOperational`.
    pub transfer_us: u64,
    /// `ShardOperational` → first decision on the shard.
    pub first_decision_us: u64,
    /// The planned reconfiguration, asked for → first decision on its shard
    /// once operational again.
    pub planned_unavailable_us: u64,
}

/// Everything observed about one round.
#[derive(Debug, Clone)]
pub struct Round {
    pub submitted: u64,
    pub committed: u64,
    pub aborted: u64,
    pub undecided: u64,
    /// The measured window. Threads: Σ over waves of the latest client
    /// decision in the wave, on the cluster clock. Sim: wall time from the
    /// first `submit` to quiescence.
    pub window_s: f64,
    /// Σ wall time inside `run_*` calls.
    pub run_wall_s: f64,
    /// Σ wall time inside `submit` calls.
    pub submit_wall_s: f64,
    /// Events the engine executed.
    pub steps: u64,
    /// Client-visible latency of every decided transaction, ascending, µs on
    /// the cluster clock, from the instant the transaction was due.
    pub latencies_us: Vec<u64>,
    /// Message delays of every decided transaction, ascending.
    pub hops: Vec<u32>,
    /// Σ `process_handled` over every process (client and configuration
    /// service included).
    pub handled_total: u64,
    /// Σ `process_handled` over the protocol processes only.
    pub replica_handled: u64,
    /// `process_handled` of the busiest protocol process.
    pub busiest_handled: u64,
    /// Largest `retained_log_slots` seen at any process.
    pub max_retained_slots: u64,
    /// Processes that coordinate transactions (`coordinator_pool()`).
    pub coordinators: usize,
    /// Worst lateness of the open-loop generator (0 by construction).
    pub lateness_us: u64,
    pub client_violations: Vec<String>,
    pub history: TcsHistory,
    pub obs: Option<ObsFacade>,
    pub outage: Option<Outage>,
}

impl Round {
    pub fn decided(&self) -> u64 {
        self.committed + self.aborted
    }

    pub fn committed_per_s(&self) -> f64 {
        self.committed as f64 / self.window_s
    }
}

/// Runs one round of `workload` over `payloads` on `engine`. A Threads
/// workload asked to run on the simulator (its cost round) is driven open
/// loop at [`OPEN_LOOP_INTERVAL_US`].
pub fn run_round(
    workload: &Workload,
    payloads: &[Payload],
    engine: Engine,
    seed: u64,
    obs: bool,
    tracer: &mut Tracer,
) -> Round {
    let spec = workload.cluster_spec(engine, seed, obs);
    match (workload.shape, engine) {
        (Shape::Failover { interval_us, .. }, _) => {
            run_failover(&spec, payloads, interval_us, obs, tracer)
        }
        (Shape::Waves { wave_size, .. }, Engine::Threads) => {
            run_waves(&spec, payloads, wave_size, obs, tracer)
        }
        (Shape::OpenLoop { .. } | Shape::Waves { .. }, Engine::Sim) => {
            run_open_loop(&spec, payloads, workload.sim_interval_us(), obs, tracer)
        }
        (Shape::OpenLoop { .. }, Engine::Threads) => {
            unreachable!("open-loop workloads run on the simulator")
        }
    }
}

fn build(spec: &ClusterSpec, tracer: &mut Tracer) -> Box<dyn TcsCluster> {
    tracer.time("harness.build", "harness", || spec.build())
}

fn tx_id(index: usize) -> TxId {
    TxId::new(index as u64 + 1)
}

fn max_retained(cluster: &dyn TcsCluster) -> u64 {
    cluster
        .all_processes()
        .into_iter()
        .filter_map(|pid| cluster.retained_log_slots(pid))
        .max()
        .unwrap_or(0) as u64
}

/// Closed waves on the threaded engine. The single driver thread is the load
/// generator; the engine's thread per process is the program.
fn run_waves(
    spec: &ClusterSpec,
    payloads: &[Payload],
    wave_size: usize,
    obs: bool,
    tracer: &mut Tracer,
) -> Round {
    let mut cluster = build(spec, tracer);
    let mut driven = Driven::default();
    for (wave, chunk) in payloads.chunks(wave_size).enumerate() {
        let span = tracer.begin("harness.submit", "harness");
        let started = Instant::now();
        for (i, payload) in chunk.iter().enumerate() {
            cluster.submit(tx_id(wave * wave_size + i), payload.clone());
        }
        driven.submit_wall_s += started.elapsed().as_secs_f64();
        tracer.end(span);
        let span = tracer.begin("rt.run_to_quiescence", "sim::rt");
        let started = Instant::now();
        cluster.run_to_quiescence();
        driven.run_wall_s += started.elapsed().as_secs_f64();
        tracer.end(span);
        driven.max_retained_slots = driven
            .max_retained_slots
            .max(max_retained(cluster.as_ref()));
    }
    let Observed { mut round, by_tx } = observe(cluster.as_ref(), driven, obs, tracer);
    // The cluster clock stands still between runs, so every transaction of a
    // wave was submitted at the same instant and the wave's largest latency
    // is exactly the time from its start to its last decision at the client.
    let mut wave_window_us: BTreeMap<usize, u64> = BTreeMap::new();
    for (tx, latency) in &by_tx {
        let wave = (tx.as_u64() as usize - 1) / wave_size;
        let window = wave_window_us.entry(wave).or_default();
        *window = (*window).max(latency.micros);
    }
    round.window_s = wave_window_us.values().sum::<u64>() as f64 / 1e6;
    round
}

/// Open loop on the simulator: `run_until(due)` then `submit`, so a
/// transaction enters exactly when it is due and its latency counts from
/// then.
fn run_open_loop(
    spec: &ClusterSpec,
    payloads: &[Payload],
    interval_us: u64,
    obs: bool,
    tracer: &mut Tracer,
) -> Round {
    let mut cluster = build(spec, tracer);
    let origin_us = cluster.now().as_micros();
    let mut driven = Driven::default();
    let window = tracer.begin("round.window", "benchmark");
    let window_started_us = tracer.now_us();
    let started = Instant::now();
    for (i, payload) in payloads.iter().enumerate() {
        let due = origin_us + i as u64 * interval_us;
        let t = Instant::now();
        cluster.run_until(SimTime::from_micros(due));
        driven.run_wall_s += t.elapsed().as_secs_f64();
        driven.lateness_us = driven.lateness_us.max(cluster.now().as_micros() - due);
        let t = Instant::now();
        cluster.submit(tx_id(i), payload.clone());
        driven.submit_wall_s += t.elapsed().as_secs_f64();
        if i % RETAINED_SAMPLE_EVERY == 0 {
            driven.max_retained_slots = driven
                .max_retained_slots
                .max(max_retained(cluster.as_ref()));
        }
    }
    let t = Instant::now();
    cluster.run_to_quiescence();
    driven.run_wall_s += t.elapsed().as_secs_f64();
    driven.window_s = started.elapsed().as_secs_f64();
    record_interleaved(tracer, window_started_us, &driven);
    tracer.end(window);
    observe(cluster.as_ref(), driven, obs, tracer).round
}

/// An open-loop window interleaves thousands of `submit` and `run_until`
/// calls; the trace carries their sums, laid end to end from the window's
/// start, rather than one span per call.
fn record_interleaved(tracer: &mut Tracer, window_start_us: f64, driven: &Driven) {
    let submit_us = driven.submit_wall_s * 1e6;
    tracer.record("harness.submit", "harness", window_start_us, submit_us);
    tracer.record(
        "world.run",
        "sim::world",
        window_start_us + submit_us,
        driven.run_wall_s * 1e6,
    );
}

/// Advances in bounded slices until a whole slice executes nothing, which
/// terminates even while repair timers are still looping.
fn settle(harness: &mut ChaosHarness) {
    for _ in 0..200 {
        let before = harness.steps();
        harness.run_for(SimDuration::from_millis(25));
        if harness.steps() == before {
            return;
        }
    }
}

/// One step of the failover timeline.
enum Step {
    Submit(usize),
    Fault(FaultEvent),
    /// The client re-drives what is still undecided [`CLIENT_RETRY_US`] after
    /// it was due.
    ClientRetry,
}

/// Open loop through the chaos harness with the failover fault schedule.
/// Arrivals keep their schedule through the outage and are timed from when
/// they were due.
fn run_failover(
    spec: &ClusterSpec,
    payloads: &[Payload],
    interval_us: u64,
    obs: bool,
    tracer: &mut Tracer,
) -> Round {
    let mut harness = tracer.time("harness.build", "harness", || ChaosHarness::new(spec, None));

    let span_us = payloads.len() as u64 * interval_us;
    let crashed = ShardId::new(CRASHED_SHARD);
    let crash_at = span_us / 3;
    let mut timeline: Vec<(u64, Step)> = vec![
        (
            crash_at,
            Step::Fault(FaultEvent::CrashLeader { shard: crashed }),
        ),
        (
            crash_at + DETECT_AFTER_US,
            Step::Fault(FaultEvent::Reconfigure { shard: crashed }),
        ),
        (
            (2 * span_us / 3).max(crash_at + 2 * DETECT_AFTER_US),
            Step::Fault(FaultEvent::Reconfigure {
                shard: ShardId::new(PLANNED_SHARD),
            }),
        ),
    ];
    timeline
        .extend((1..=span_us / CLIENT_RETRY_US).map(|n| (n * CLIENT_RETRY_US, Step::ClientRetry)));
    timeline.extend((0..payloads.len()).map(|i| (i as u64 * interval_us, Step::Submit(i))));
    timeline.sort_by_key(|(at, _)| *at);

    let origin_us = harness.now_micros();
    let mut driven = Driven::default();
    let window = tracer.begin("round.window", "benchmark");
    let window_started_us = tracer.now_us();
    let started = Instant::now();
    for (at, step) in &timeline {
        let due = origin_us + at;
        let now = harness.now_micros();
        if due > now {
            let t = Instant::now();
            harness.run_for(SimDuration::from_micros(due - now));
            driven.run_wall_s += t.elapsed().as_secs_f64();
        }
        match step {
            Step::Submit(i) => {
                driven.lateness_us = driven.lateness_us.max(harness.now_micros() - due);
                let t = Instant::now();
                harness.submit(tx_id(*i), payloads[*i].clone());
                driven.submit_wall_s += t.elapsed().as_secs_f64();
            }
            Step::Fault(event) => harness.apply(event),
            Step::ClientRetry => {
                let overdue = (at.saturating_sub(CLIENT_RETRY_US) / interval_us) as usize;
                let stuck: Vec<TxId> = harness
                    .history()
                    .undecided()
                    .filter(|tx| tx.as_u64() as usize <= overdue)
                    .collect();
                for tx in stuck {
                    harness.resubmit(tx);
                }
            }
        }
    }

    // The fault window is over: restart what crashed and drive recovery the
    // way the soak driver does, until every shard is operational and nothing
    // is left undecided.
    let t = Instant::now();
    harness.heal();
    for _ in 0..12 {
        settle(&mut harness);
        let stable = harness.stabilize();
        settle(&mut harness);
        let undecided: Vec<TxId> = harness.history().undecided().collect();
        if stable && undecided.is_empty() {
            break;
        }
        for tx in undecided {
            harness.resubmit(tx);
        }
    }
    settle(&mut harness);
    driven.run_wall_s += t.elapsed().as_secs_f64();
    driven.window_s = started.elapsed().as_secs_f64();
    record_interleaved(tracer, window_started_us, &driven);
    tracer.end(window);

    let cluster = harness.cluster();
    driven.max_retained_slots = max_retained(cluster);
    let mut round = observe(cluster, driven, obs, tracer).round;
    if obs {
        round.outage = Some(outage(cluster));
    }
    round
}

/// What a driver clocked while it drove a round.
#[derive(Default)]
struct Driven {
    window_s: f64,
    run_wall_s: f64,
    submit_wall_s: f64,
    lateness_us: u64,
    max_retained_slots: u64,
}

struct Observed {
    round: Round,
    by_tx: BTreeMap<TxId, DecisionLatency>,
}

/// Reads the outcome of a finished round through the facade.
fn observe(cluster: &dyn TcsCluster, driven: Driven, obs: bool, tracer: &mut Tracer) -> Observed {
    let (history, by_tx) = tracer.time("harness.collect", "harness", || {
        (cluster.history(), cluster.latencies())
    });

    let mut latencies_us: Vec<u64> = by_tx.values().map(|l| l.micros).collect();
    latencies_us.sort_unstable();
    let mut hops: Vec<u32> = by_tx.values().map(|l| l.hops).collect();
    hops.sort_unstable();

    let handled: Vec<u64> = cluster
        .all_processes()
        .into_iter()
        .map(|pid| cluster.process_handled(pid))
        .collect();
    let replica_handled: u64 = handled.iter().sum();
    let apparatus_handled: u64 = std::iter::once(cluster.client_id())
        .chain(cluster.config_service_id())
        .map(|pid| cluster.process_handled(pid))
        .sum();

    let submitted = history.certify_count() as u64;
    let committed = history.committed().count() as u64;
    let aborted = history.aborted().count() as u64;
    let undecided = history.undecided().count() as u64;

    let facade = obs.then(|| {
        let (events, breakdowns) = tracer.time("obs.fold", "obs", || {
            (cluster.obs_events(), cluster.phase_breakdown())
        });
        let mut phase_mean_us = [0.0; 6];
        for breakdown in breakdowns.values() {
            for (mean, phase) in phase_mean_us.iter_mut().zip(breakdown.phases()) {
                *mean += phase as f64;
            }
        }
        for mean in &mut phase_mean_us {
            *mean /= breakdowns.len().max(1) as f64;
        }
        let count = |milestone| events.iter().filter(|e| e.milestone == milestone).count();
        // Every transaction of a flushed batch stamps the batch's size, so
        // Σ 1/size over the stamps counts the batches.
        let flushed = count(TxMilestone::BatchFlush);
        let batches: f64 = events
            .iter()
            .filter(|e| e.milestone == TxMilestone::BatchFlush)
            .map(|e| 1.0 / e.detail.max(1) as f64)
            .sum();
        ObsFacade {
            phase_mean_us,
            retries_per_tx: count(TxMilestone::Retry) as f64 / submitted.max(1) as f64,
            events_per_tx: events.len() as f64 / (committed + aborted).max(1) as f64,
            batch_occupancy: if flushed == 0 {
                1.0
            } else {
                flushed as f64 / batches
            },
            ctrl_events: cluster.ctrl_events().len() as u64,
        }
    });

    Observed {
        round: Round {
            submitted,
            committed,
            aborted,
            undecided,
            window_s: driven.window_s,
            run_wall_s: driven.run_wall_s,
            submit_wall_s: driven.submit_wall_s,
            steps: cluster.steps(),
            latencies_us,
            hops,
            handled_total: replica_handled + apparatus_handled,
            replica_handled,
            busiest_handled: handled.iter().copied().max().unwrap_or(0),
            max_retained_slots: driven.max_retained_slots,
            coordinators: cluster.coordinator_pool().len(),
            lateness_us: driven.lateness_us,
            client_violations: cluster.client_violations(),
            history,
            obs: facade,
            outage: None,
        },
        by_tx,
    }
}

/// First event at or after `from_us` matching `milestone` on `shard`.
fn first_after(ctrl: &[CtrlEvent], shard: ShardId, milestone: CtrlMilestone, from_us: u64) -> u64 {
    ctrl.iter()
        .filter(|e| e.shard == Some(shard) && e.milestone == milestone && e.at_micros >= from_us)
        .map(|e| e.at_micros)
        .min()
        .unwrap_or_else(|| panic!("no {milestone} on {shard} at or after {from_us}us"))
}

/// The instants of one reconfiguration of `shard`: asked for, probe started,
/// configuration chosen, shard operational, first decision on the shard
/// after that.
fn reconfiguration(
    ctrl: &[CtrlEvent],
    decided: &BTreeMap<ShardId, Vec<u64>>,
    shard: ShardId,
) -> [u64; 5] {
    let asked = first_after(ctrl, shard, CtrlMilestone::ReconfigInitiated, 0);
    let probe = first_after(ctrl, shard, CtrlMilestone::ProbeStarted, asked);
    let chosen = first_after(ctrl, shard, CtrlMilestone::ConfigChosen, probe);
    let operational = first_after(ctrl, shard, CtrlMilestone::ShardOperational, chosen);
    let times = decided.get(&shard).map(Vec::as_slice).unwrap_or(&[]);
    let first_decision = *times
        .get(times.partition_point(|at| *at <= operational))
        .unwrap_or_else(|| panic!("{shard} never decided again after its reconfiguration"));
    [asked, probe, chosen, operational, first_decision]
}

/// The outage of the crashed shard, and the planned one, from the
/// control-plane stream and the per-shard decision times.
///
/// `blackouts()` closes a window at the first decision after the last
/// degrading event, and a transaction the old leader voted on just before it
/// crashed decides just after: depending on the seed that closed the crash
/// window 10 ms early or not at all. The windows here therefore end at the
/// first decision *after the shard is operational again*; `blackouts()` is
/// still required to leave no window open.
fn outage(cluster: &dyn TcsCluster) -> Outage {
    for window in cluster.blackouts() {
        assert!(
            window.end_micros.is_some(),
            "availability window never closed: {window}"
        );
    }
    let crashed = ShardId::new(CRASHED_SHARD);
    let planned = ShardId::new(PLANNED_SHARD);
    let ctrl = cluster.ctrl_events();
    let decided = ratc_sim::decided_times_per_shard(&cluster.obs_events());
    let crash = first_after(&ctrl, crashed, CtrlMilestone::FaultInjected, 0);
    let [asked, probe, chosen, operational, first_decision] =
        reconfiguration(&ctrl, &decided, crashed);
    let [planned_asked, .., planned_first_decision] = reconfiguration(&ctrl, &decided, planned);
    Outage {
        unavailable_us: first_decision - crash,
        recover_us: first_decision - asked,
        detect_us: probe - asked,
        probe_us: chosen - probe,
        transfer_us: operational - chosen,
        first_decision_us: first_decision - operational,
        planned_unavailable_us: planned_first_decision - planned_asked,
    }
}
