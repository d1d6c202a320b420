//! One run of one workload: set-up, the correctness gate, the measured
//! rounds, and the metrics they add up to.
//!
//! The untraced run (observability off, tracer off) yields every end-to-end
//! metric. The traced run alternates observability-off and -on rounds under
//! the span recorder, replays the payload stream through each layer in
//! isolation, and yields every per-layer metric; the ratio of the two kinds
//! of round is the observer's overhead.

use std::path::PathBuf;
use std::time::Instant;

use ratc_core::flow::FlowControlConfig;
use ratc_types::{Payload, TcsHistory};

use crate::gate;
use crate::host;
use crate::json::Value;
use crate::layers::{self, ReplaySizes};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::{iqr_share, median, percentile, upper_quartile, TooFewSamples};
use crate::trace::Tracer;
use crate::workloads::{run_round, Engine, Round, Workload};

/// Divisor `--smoke` applies to every size.
pub const SMOKE_DIVISOR: usize = 50;

/// Set-up is repeated at least this often, and on until [`SETUP_MIN_S`] have
/// gone into it (a 20 ms set-up needs more repetitions than a 500 ms one to
/// give a steady median) or [`SETUP_MAX_REPS`] are done.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_S: f64 = 1.0;
const SETUP_MAX_REPS: usize = 15;

/// Share of `--seconds` the traced run spends on measured rounds.
const TRACED_ROUNDS_SHARE: f64 = 0.7;

/// Measured rounds a run makes even when one round outlasts `--seconds`.
const MIN_ROUNDS: usize = 2;

pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub trace_file: PathBuf,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// What a run reports once its gate has passed.
pub struct Outcome {
    /// Transactions submitted over the measured rounds.
    pub attempted: u64,
    /// Of those, still undecided after the final quiescence.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Round counts, per-round wall-clock values and their spread, sample
    /// counts and the accounting of the round the exact metrics come from.
    pub detail: Value,
}

/// Gates `round` and drops what only the gate needed.
fn gated(
    workload: &Workload,
    mut round: Round,
    expected: usize,
    tracer: &mut Tracer,
) -> Result<Round, String> {
    gate::check_round(workload, &round, expected, tracer)?;
    round.history = TcsHistory::new();
    Ok(round)
}

/// Everything a run has measured before it is turned into metrics.
struct Run<'a> {
    options: &'a Options,
    workload: Workload,
    payloads: Vec<Payload>,
    setup_s: Vec<f64>,
    /// The measured rounds; observability was on in those with a facade.
    rounds: Vec<Round>,
    /// The round the exact metrics come from: the first measured round of a
    /// Sim workload, the simulated cost round of a Threads workload.
    exact: Round,
    tracer: Tracer,
}

pub fn run(options: &Options, process_start: Instant) -> Result<Outcome, String> {
    let workload = if options.smoke {
        options.workload.scaled(SMOKE_DIVISOR)
    } else {
        options.workload
    };
    let seed = options.seed;
    let size = workload.round_size();
    let mut tracer = Tracer::new(options.trace);

    // Set-up, as a user of the benchmark pays it: generate the payloads,
    // deploy, and run one discarded warm-up round.
    let mut setup_s = Vec::new();
    let setup_started = Instant::now();
    let payloads = loop {
        let started = if setup_s.is_empty() {
            process_start
        } else {
            Instant::now()
        };
        let payloads = tracer.time("workload.generate", "workload", || {
            workload.generate(seed, size)
        });
        let span = tracer.begin("round.warm_up", "benchmark");
        let warm_up = &payloads[..workload.warm_up_size()];
        let round = run_round(
            &workload,
            warm_up,
            workload.engine,
            seed,
            false,
            &mut tracer,
        );
        gate::check_round(&workload, &round, warm_up.len(), &mut tracer)?;
        tracer.end(span);
        setup_s.push(started.elapsed().as_secs_f64());
        let steady =
            setup_s.len() >= SETUP_MIN_REPS && setup_started.elapsed().as_secs_f64() >= SETUP_MIN_S;
        if options.trace || steady || setup_s.len() == SETUP_MAX_REPS {
            break payloads;
        }
    };

    // The verification round: small enough for the full `check_history`.
    let span = tracer.begin("round.verification", "benchmark");
    let verification = &payloads[..gate::VERIFICATION_TXS.min(size)];
    let round = run_round(
        &workload,
        verification,
        workload.engine,
        seed,
        false,
        &mut tracer,
    );
    gate::check_verification_round(&workload, &round, verification.len(), &mut tracer)?;
    tracer.end(span);

    // Measured rounds, each on a fresh cluster, for `--seconds` (the traced
    // run leaves part of it to the layer replays).
    let budget_s = if options.trace {
        options.seconds * TRACED_ROUNDS_SHARE
    } else {
        options.seconds
    };
    let started = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut last_s = 0.0;
    while rounds.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() + last_s <= budget_s {
        let t = Instant::now();
        // The traced run alternates observability off and on.
        let obs = options.trace && rounds.len() % 2 == 1;
        tracer.set_round(rounds.len() as u32 + 1);
        let span = tracer.begin(
            if obs { "round.obs_on" } else { "round.obs_off" },
            "benchmark",
        );
        let round = run_round(
            &workload,
            &payloads,
            workload.engine,
            seed,
            obs,
            &mut tracer,
        );
        rounds.push(gated(&workload, round, size, &mut tracer)?);
        tracer.end(span);
        last_s = t.elapsed().as_secs_f64();
    }
    tracer.set_round(0);

    // The simulator repeats a seeded round bit for bit; anything else is a
    // determinism bug and voids the exact metrics.
    if workload.engine == Engine::Sim {
        let first = &rounds[0];
        for other in &rounds[1..] {
            let same = (
                first.committed,
                first.aborted,
                first.steps,
                first.handled_total,
            ) == (
                other.committed,
                other.aborted,
                other.steps,
                other.handled_total,
            ) && first.latencies_us == other.latencies_us
                && first.hops == other.hops;
            if !same {
                return Err(format!(
                    "{}: two simulated rounds on identical inputs differ",
                    workload.name
                ));
            }
        }
    }
    let exact = match workload.engine {
        Engine::Sim => rounds[0].clone(),
        Engine::Threads => {
            let span = tracer.begin("round.sim_cost", "benchmark");
            let stream = &payloads[..workload.warm_up_size()];
            let round = run_round(&workload, stream, Engine::Sim, seed, false, &mut tracer);
            let round = gated(&workload, round, stream.len(), &mut tracer)?;
            tracer.end(span);
            round
        }
    };
    // Only the exact round's distributions are read from here on.
    for round in &mut rounds {
        round.latencies_us = Vec::new();
        round.hops = Vec::new();
    }

    let run = Run {
        options,
        workload,
        payloads,
        setup_s,
        rounds,
        exact,
        tracer,
    };
    if options.trace {
        run.per_layer()
    } else {
        run.end_to_end()
    }
}

/// The rate of every round measured with observability `obs`.
fn committed_per_s(rounds: &[Round], obs: bool) -> Vec<f64> {
    rounds
        .iter()
        .filter(|round| round.obs.is_some() == obs)
        .map(Round::committed_per_s)
        .collect()
}

/// Prints and returns the accounting of the round the exact metrics come
/// from.
fn accounting(exact: &Round) -> Value {
    assert_eq!(
        exact.submitted,
        exact.committed + exact.aborted + exact.undecided
    );
    println!(
        "  submitted {} = committed {} + aborted {} + undecided {}; generator lateness {} us; {} latency samples",
        exact.submitted,
        exact.committed,
        exact.aborted,
        exact.undecided,
        exact.lateness_us,
        exact.latencies_us.len()
    );
    Value::obj([
        ("submitted", Value::from(exact.submitted)),
        ("committed", Value::from(exact.committed)),
        ("aborted", Value::from(exact.aborted)),
        ("undecided", Value::from(exact.undecided)),
        (
            "latency_samples",
            Value::from(exact.latencies_us.len() as u64),
        ),
        ("generator_lateness_us", Value::from(exact.lateness_us)),
    ])
}

/// Median (ms) of the spans called `name` inside measured rounds.
fn span_ms(tracer: &Tracer, name: &str) -> f64 {
    let durations = tracer.measured_durations_us(name);
    if durations.is_empty() {
        0.0
    } else {
        median(&durations) / 1e3
    }
}

impl Run<'_> {
    /// A percentile of the exact round, unless too few samples support it:
    /// a `--smoke` round can be too small for a tail, and then the metric is
    /// left out (and said so); at full size that is an error.
    fn supported(&self, value: Result<f64, TooFewSamples>) -> Result<Option<f64>, String> {
        match value {
            Ok(value) => Ok(Some(value)),
            Err(refused) if self.options.smoke => {
                println!("  {refused}");
                Ok(None)
            }
            Err(refused) => Err(format!("{}: {refused}", self.workload.name)),
        }
    }

    fn end_to_end(self) -> Result<Outcome, String> {
        let exact = &self.exact;
        let committed_per_s = committed_per_s(&self.rounds, false);
        let rounds = committed_per_s.len();
        println!(
            "{}: {} measured rounds of {} transactions (seed {})",
            self.workload.name,
            rounds,
            self.workload.round_size(),
            self.options.seed
        );
        let accounting = accounting(exact);
        let latency = |pct| percentile(&exact.latencies_us, pct).map(|us| us as f64);
        let values = [
            Some(median(&self.setup_s)),
            Some(upper_quartile(&committed_per_s)),
            Some(host::peak_rss_mb()?),
            Some(exact.committed as f64 / exact.submitted as f64),
            self.supported(latency(50))?,
            self.supported(latency(99))?,
            exact.latencies_us.last().map(|us| *us as f64),
            self.supported(percentile(&exact.hops, 50).map(f64::from))?,
            Some(exact.handled_total as f64 / exact.committed.max(1) as f64),
        ];
        let metrics: Vec<Metric> = END_TO_END
            .iter()
            .zip(values)
            .filter_map(|(def, value)| {
                value.map(|value| Metric {
                    name: def.name,
                    unit: def.unit,
                    value,
                })
            })
            .collect();
        let spread = |values: &[f64]| {
            Value::obj([
                ("samples", Value::from(values.len() as u64)),
                ("iqr_share", Value::from(iqr_share(values))),
                (
                    "values",
                    Value::Arr(values.iter().map(|v| Value::from(*v)).collect()),
                ),
            ])
        };
        println!(
            "  committed_per_s over {rounds} rounds: median {:.0}, IQR {:.2} % of it; setup_s over {} set-ups: IQR {:.2} %",
            median(&committed_per_s),
            100.0 * iqr_share(&committed_per_s),
            self.setup_s.len(),
            100.0 * iqr_share(&self.setup_s),
        );
        Ok(Outcome {
            attempted: self.rounds.iter().map(|r| r.submitted).sum(),
            failed: self.rounds.iter().map(|r| r.undecided).sum(),
            metrics,
            detail: Value::obj([
                ("rounds", Value::from(rounds as u64)),
                ("accounting", accounting),
                (
                    "spread",
                    Value::obj([
                        ("committed_per_s", spread(&committed_per_s)),
                        ("setup_s", spread(&self.setup_s)),
                    ]),
                ),
            ]),
        })
    }

    fn per_layer(self) -> Result<Outcome, String> {
        let Run {
            options,
            workload,
            payloads,
            rounds,
            exact,
            mut tracer,
            ..
        } = self;
        println!(
            "{}: traced run, {} measured rounds alternating observability off/on (seed {})",
            workload.name,
            rounds.len(),
            options.seed
        );
        let accounting = accounting(&exact);
        let (on, facade) = rounds
            .iter()
            .find_map(|round| Some((round, round.obs.as_ref()?)))
            .expect("an observability-on round");
        let decided = on.decided().max(1) as f64;

        // Little's law on the cluster clock of the exact round gives the mean
        // number in flight; no more than the admission windows let through can
        // be prepared at once.
        let arrival_span_us = exact.submitted * workload.sim_interval_us();
        let admitted = FlowControlConfig::default().window * exact.coordinators;
        let in_flight = (exact.latencies_us.iter().sum::<u64>() as f64 / arrival_span_us as f64)
            .round()
            .min(admitted as f64);
        let sizes = if options.smoke {
            ReplaySizes::SMOKE
        } else {
            ReplaySizes::FULL
        };
        // The replays need a stream long enough not to wrap (a second pass
        // over the same payloads would find its own writes committed and vote
        // abort); a longer stream from the same seed extends the shorter.
        let span = tracer.begin("workload.generate_replay_stream", "workload");
        let stream = if payloads.len() >= sizes.stream_len() {
            payloads
        } else {
            workload.generate(options.seed, sizes.stream_len())
        };
        tracer.end(span);
        let mut measured = layers::measure(
            &workload,
            &stream[..sizes.stream_len()],
            in_flight as usize,
            options.seed,
            sizes,
            &mut tracer,
        );
        println!(
            "  layer replays: {} batches of {} items, prepared set held at {in_flight} (mean in flight, at most what the admission windows let through)",
            sizes.batches, sizes.batch_items
        );

        let ns_per_step = |round: &Round| round.run_wall_s * 1e9 / round.steps.max(1) as f64;
        let off: Vec<&Round> = rounds.iter().filter(|r| r.obs.is_none()).collect();
        let run_ns_per_step = median(&off.iter().map(|r| ns_per_step(r)).collect::<Vec<_>>());
        let (world_run_ns, rt_run_ns, drain_share) = match workload.engine {
            Engine::Sim => (run_ns_per_step, 0.0, 0.0),
            Engine::Threads => {
                let window: f64 = off.iter().map(|r| r.window_s).sum();
                let run: f64 = off.iter().map(|r| r.run_wall_s).sum();
                (ns_per_step(&exact), run_ns_per_step, 1.0 - window / run)
            }
        };
        let pingpong_ns = measured
            .iter()
            .find(|(name, _)| *name == "world.pingpong_ns_per_event")
            .expect("measured")
            .1;
        let rate = |obs| upper_quartile(&committed_per_s(&rounds, obs));
        let outage = on.outage.clone().unwrap_or_default();
        let submit_ns: Vec<f64> = off
            .iter()
            .map(|r| r.submit_wall_s * 1e9 / r.submitted as f64)
            .collect();
        let generate_us = tracer.durations_us("workload.generate");

        measured.extend([
            (
                "log.max_retained_slots",
                rounds
                    .iter()
                    .map(|r| r.max_retained_slots)
                    .max()
                    .unwrap_or(0) as f64,
            ),
            ("batch.mean_occupancy", facade.batch_occupancy),
            ("flow.retries_per_tx", facade.retries_per_tx),
            ("replica.msgs_per_tx", on.replica_handled as f64 / decided),
            (
                "replica.busiest_handled_per_tx",
                on.busiest_handled as f64 / decided,
            ),
            ("replica.steps_per_tx", on.steps as f64 / decided),
            ("phase.admission_us", facade.phase_mean_us[0]),
            ("phase.dispatch_us", facade.phase_mean_us[1]),
            ("phase.certification_us", facade.phase_mean_us[2]),
            ("phase.quorum_us", facade.phase_mean_us[3]),
            ("phase.decide_us", facade.phase_mean_us[4]),
            ("phase.relay_us", facade.phase_mean_us[5]),
            ("world.run_ns_per_step", world_run_ns),
            ("world.handler_ns_per_step", world_run_ns - pingpong_ns),
            ("rt.drain_share", drain_share),
            ("rt.run_ns_per_step", rt_run_ns),
            ("obs.overhead_ratio", rate(false) / rate(true)),
            ("obs.events_per_tx", facade.events_per_tx),
            ("recon.detect_us", outage.detect_us as f64),
            ("recon.probe_us", outage.probe_us as f64),
            ("recon.transfer_us", outage.transfer_us as f64),
            ("recon.first_decision_us", outage.first_decision_us as f64),
            (
                "recon.planned_unavailable_us",
                outage.planned_unavailable_us as f64,
            ),
            ("recon.ctrl_events", facade.ctrl_events as f64),
            ("unavailable_us", outage.unavailable_us as f64),
            ("recover_us", outage.recover_us as f64),
            ("harness.build_ms", span_ms(&tracer, "harness.build")),
            ("harness.submit_ns", median(&submit_ns)),
            ("harness.collect_ms", span_ms(&tracer, "harness.collect")),
            (
                "workload.generate_ns_per_tx",
                median(&generate_us) * 1e3 / workload.round_size() as f64,
            ),
            (
                "spec.check_ms",
                span_ms(&tracer, "spec.check_conflict_serializable"),
            ),
        ]);

        let metrics = PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let value = measured
                    .iter()
                    .find(|(measured_name, _)| measured_name == name)
                    .unwrap_or_else(|| panic!("{name} was not measured"))
                    .1;
                Metric { name, unit, value }
            })
            .collect();

        tracer
            .write(workload.name, &options.trace_file)
            .map_err(|e| format!("cannot write {}: {e}", options.trace_file.display()))?;
        println!("  Chrome trace written to {}", options.trace_file.display());
        Ok(Outcome {
            attempted: rounds.iter().map(|r| r.submitted).sum(),
            failed: rounds.iter().map(|r| r.undecided).sum(),
            metrics,
            detail: Value::obj([
                ("rounds", Value::from(rounds.len() as u64)),
                ("accounting", accounting),
                ("mean_in_flight", Value::from(in_flight)),
                (
                    "trace_file",
                    Value::from(options.trace_file.to_string_lossy().as_ref()),
                ),
            ]),
        })
    }
}
