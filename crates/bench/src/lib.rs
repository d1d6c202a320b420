//! Benchmark harness for the RATC reproduction.
//!
//! This crate contains no library logic of its own; it hosts one binary per
//! experiment of EXPERIMENTS.md (`exp_e1_latency` … `exp_e8_invariants`, plus
//! `exp_e8_batching` for the batched certification pipeline), each of which
//! runs the corresponding driver from `ratc-workload` and prints the table
//! recorded in EXPERIMENTS.md. The wall-clock cost of the certification
//! functions, the log and the batcher is measured by the repository benchmark
//! (`benchmark/`, per-layer metrics).
//!
//! Run all experiment binaries with
//! `for b in e1_latency e2_leader_load e3_replication_cost e4_scaling e5_aborts e6_reconfig e7_counterexample e8_invariants e8_batching; do cargo run --release -p ratc-bench --bin exp_$b; done`.

#![deny(missing_docs)]

/// Prints a section header used by every experiment binary.
pub fn header(id: &str, title: &str, paper_claim: &str) {
    println!("=== {id}: {title} ===");
    println!("paper: {paper_claim}");
    println!();
}

/// Hand-rolled JSON rendering of experiment results for the `--json` flags
/// of `exp_matrix` and `exp_wallclock` (and the committed `BENCH_*.json`
/// trajectory). The workspace deliberately carries no JSON dependency, and
/// the result structs are flat records of numbers and short known strings,
/// so `format!` is all the serialisation needed.
pub mod json {
    use ratc_chaos::{AvailabilityResult, BlackoutResult};
    use ratc_sim::{Blackout, CtrlEvent, Phase};
    use ratc_workload::{
        BatchingResult, LatencyResult, OverloadResult, PhaseResult, TruncationResult,
        WallclockResult,
    };

    /// Joins already-rendered JSON values into an array.
    pub fn array(items: &[String]) -> String {
        format!("[{}]", items.join(","))
    }

    /// Escapes a string for embedding in a JSON string literal (quotes,
    /// backslashes and control characters — all the labels and notes here
    /// are ASCII identifiers or rendered fault events, so this is rarely
    /// more than a pass-through).
    fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }

    /// Renders per-message-type `(label, msgs/tx)` pairs as a JSON object.
    fn msgs_per_tx(rows: &[(String, f64)]) -> String {
        let fields: Vec<String> = rows
            .iter()
            .map(|(label, per_tx)| format!(r#""{}":{}"#, escape(label), per_tx))
            .collect();
        format!("{{{}}}", fields.join(","))
    }

    /// One E1 latency row.
    pub fn latency(r: &LatencyResult) -> String {
        format!(
            r#"{{"stack":"{}","shards":{},"transactions":{},"median_hops":{},"median_coordinator_hops":{},"mean_micros":{}}}"#,
            r.stack,
            r.shards,
            r.transactions,
            r.median_hops,
            r.median_coordinator_hops,
            r.mean_micros
        )
    }

    /// One E7 log-retention row.
    pub fn truncation(r: &TruncationResult) -> String {
        format!(
            r#"{{"stack":"{}","tx_count":{},"decided":{},"truncation_enabled":{},"max_retained_slots":{},"max_log_next":{},"slots_truncated":{}}}"#,
            r.stack,
            r.tx_count,
            r.decided,
            r.truncation_enabled,
            r.max_retained_slots,
            r.max_log_next,
            r.slots_truncated
        )
    }

    /// One E8 batching row.
    pub fn batching(r: &BatchingResult) -> String {
        format!(
            r#"{{"stack":"{}","batch_size":{},"tx_count":{},"committed":{},"leader_msgs_per_txn":{},"commits_per_step":{},"prepare_batches":{}}}"#,
            r.stack,
            r.batch_size,
            r.tx_count,
            r.committed,
            r.leader_msgs_per_txn,
            r.commits_per_step,
            r.prepare_batches
        )
    }

    /// One E9 wall-clock throughput row. `latency_unit` labels the unit of
    /// every latency in the row (`"wall_micros"` or `"virtual_micros"`).
    pub fn wallclock(r: &WallclockResult) -> String {
        format!(
            r#"{{"stack":"{}","shards":{},"batch":{},"closed_loop":{},"transactions":{},"committed":{},"aborted":{},"undecided":{},"wall_secs":{},"committed_per_sec":{},"mean_latency_micros":{},"p99_latency_micros":{},"latency_unit":"{}"}}"#,
            r.stack,
            r.shards,
            r.batch,
            r.closed_loop,
            r.transactions,
            r.committed,
            r.aborted,
            r.undecided,
            r.wall_secs,
            r.committed_per_sec,
            r.mean_latency_micros,
            r.p99_latency_micros,
            r.latency_unit.as_str()
        )
    }

    /// One E10 overload-sweep row. `latency_unit` labels the unit of every
    /// latency in the row; `msgs_per_tx` maps each message type to the mean
    /// number delivered per decided transaction.
    pub fn overload(r: &OverloadResult) -> String {
        format!(
            r#"{{"stack":"{}","shards":{},"flow_enabled":{},"depth":{},"committed":{},"aborted":{},"undecided":{},"wall_secs":{},"goodput_per_sec":{},"p99_latency_micros":{},"msgs_per_tx":{},"latency_unit":"{}"}}"#,
            r.stack,
            r.shards,
            r.flow_enabled,
            r.depth,
            r.committed,
            r.aborted,
            r.undecided,
            r.wall_secs,
            r.goodput_per_sec,
            r.p99_latency_micros,
            msgs_per_tx(&r.msgs_per_tx),
            r.latency_unit.as_str()
        )
    }

    /// One E9 chaos-availability row: throughput and recovery under the
    /// seed-driven nemesis, with the blackout fields derived from the
    /// control-plane observability stream.
    pub fn availability(r: &AvailabilityResult) -> String {
        format!(
            r#"{{"stack":"{}","intensity":{},"submitted":{},"committed":{},"commits_per_milli":{},"recovery_micros":{},"blackout_micros":{},"time_to_recover_micros":{},"msgs_per_tx":{},"ok":{}}}"#,
            r.stack,
            r.intensity,
            r.submitted,
            r.committed,
            r.commits_per_milli,
            r.recovery_micros,
            r.blackout_micros,
            r.time_to_recover_micros,
            msgs_per_tx(&r.msgs_per_tx),
            r.ok
        )
    }

    /// One E12 blackout-matrix row: per-shard availability windows and
    /// time-to-recover for one (stack, scenario) cell.
    pub fn blackout(r: &BlackoutResult) -> String {
        format!(
            r#"{{"stack":"{}","scenario":"{}","submitted":{},"committed":{},"blackout_micros":{},"time_to_recover_micros":{},"windows":{},"unclosed_windows":{},"ctrl_events":{},"msgs_per_tx":{},"ok":{}}}"#,
            r.stack,
            r.scenario,
            r.submitted,
            r.committed,
            r.blackout_micros,
            r.time_to_recover_micros,
            r.windows,
            r.unclosed_windows,
            r.ctrl_events,
            msgs_per_tx(&r.msgs_per_tx),
            r.ok
        )
    }

    /// Renders a control-plane event stream plus its availability windows as
    /// a Chrome trace-event JSON document (the `traceEvents` array format),
    /// loadable in `chrome://tracing` and Perfetto.
    ///
    /// * Each [`CtrlEvent`] becomes an instant event (`"ph":"i"`) on the
    ///   track of the process that recorded it (`tid` = process id), with
    ///   the shard, detail and note in `args`.
    /// * Each closed [`Blackout`] becomes a complete event (`"ph":"X"`) with
    ///   a duration on its shard's track (`tid` = shard id); an unclosed
    ///   window becomes an instant event at its start.
    ///
    /// Timestamps are microseconds (the native `ts` unit of the format), in
    /// whatever clock the cluster ran on (virtual or wall).
    pub fn chrome_trace(ctrl: &[CtrlEvent], blackouts: &[Blackout]) -> String {
        let mut events: Vec<String> = Vec::with_capacity(ctrl.len() + blackouts.len());
        for event in ctrl {
            let shard = match event.shard {
                Some(shard) => format!(r#""{shard}""#),
                None => String::from("null"),
            };
            events.push(format!(
                r#"{{"name":"{}","cat":"ctrl","ph":"i","s":"p","ts":{},"pid":0,"tid":{},"args":{{"shard":{},"detail":{},"note":"{}"}}}}"#,
                event.milestone,
                event.at_micros,
                event.by.as_u64(),
                shard,
                event.detail,
                escape(&event.note)
            ));
        }
        for blackout in blackouts {
            match blackout.end_micros {
                Some(end) => events.push(format!(
                    r#"{{"name":"blackout {}","cat":"blackout","ph":"X","ts":{},"dur":{},"pid":1,"tid":{},"args":{{"cause":"{}","last_degrade_micros":{}}}}}"#,
                    blackout.shard,
                    blackout.start_micros,
                    end - blackout.start_micros,
                    blackout.shard.as_u32(),
                    blackout.cause,
                    blackout.last_degrade_micros
                )),
                None => events.push(format!(
                    r#"{{"name":"blackout {} (unrecovered)","cat":"blackout","ph":"i","s":"p","ts":{},"pid":1,"tid":{},"args":{{"cause":"{}"}}}}"#,
                    blackout.shard,
                    blackout.start_micros,
                    blackout.shard.as_u32(),
                    blackout.cause
                )),
            }
        }
        format!(
            r#"{{"traceEvents":{},"displayTimeUnit":"ms"}}"#,
            array(&events)
        )
    }

    /// One E11 phase-attribution row: mean per-phase latencies keyed by
    /// phase name, plus the mean end-to-end total they sum to (up to
    /// floating-point rounding) and the unit of every latency in the row.
    pub fn phases(r: &PhaseResult) -> String {
        let phase_fields: Vec<String> = Phase::ALL
            .iter()
            .zip(r.mean_phase_micros.iter())
            .map(|(phase, mean)| format!(r#""mean_{}_micros":{}"#, phase.as_str(), mean))
            .collect();
        format!(
            r#"{{"stack":"{}","execution":"{}","shards":{},"depth":{},"committed":{},"measured":{},{},"mean_total_micros":{},"mean_retries":{},"latency_unit":"{}"}}"#,
            r.stack,
            match r.execution {
                ratc_sim::ExecutionMode::Sim => "sim",
                ratc_sim::ExecutionMode::Threads => "threads",
            },
            r.shards,
            r.depth,
            r.committed,
            r.measured,
            phase_fields.join(","),
            r.mean_total_micros,
            r.mean_retries,
            r.latency_unit.as_str()
        )
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use ratc_workload::StackKind;

        #[test]
        fn wallclock_rows_render_flat_json_objects() {
            let row = wallclock(&WallclockResult {
                stack: StackKind::Core,
                shards: 4,
                batch: 32,
                closed_loop: true,
                transactions: 100,
                committed: 100,
                aborted: 0,
                undecided: 0,
                wall_secs: 0.5,
                committed_per_sec: 200.0,
                mean_latency_micros: 1234.5,
                p99_latency_micros: 2500.0,
                latency_unit: ratc_sim::LatencyUnit::WallMicros,
            });
            assert!(row.starts_with('{') && row.ends_with('}'), "{row}");
            assert!(row.contains(r#""stack":"ratc-mp""#), "{row}");
            assert!(row.contains(r#""closed_loop":true"#), "{row}");
            assert!(row.contains(r#""committed_per_sec":200"#), "{row}");
            assert!(row.contains(r#""latency_unit":"wall_micros""#), "{row}");
            assert_eq!(array(&[String::from("1"), String::from("2")]), "[1,2]");
        }

        #[test]
        fn chrome_trace_renders_instants_and_spans_with_monotone_ts() {
            use ratc_sim::{Blackout, CtrlEvent, CtrlMilestone};
            use ratc_types::{ProcessId, ShardId};
            let ctrl = vec![
                CtrlEvent {
                    at_micros: 10,
                    by: ProcessId::new(7),
                    milestone: CtrlMilestone::Crash,
                    shard: Some(ShardId::new(1)),
                    detail: 0,
                    note: String::from("crash-leader(s1) \"quoted\""),
                },
                CtrlEvent {
                    at_micros: 50,
                    by: ProcessId::new(3),
                    milestone: CtrlMilestone::ShardOperational,
                    shard: None,
                    detail: 2,
                    note: String::new(),
                },
            ];
            let blackouts = vec![
                Blackout {
                    shard: ShardId::new(1),
                    start_micros: 10,
                    last_degrade_micros: 10,
                    end_micros: Some(60),
                    cause: CtrlMilestone::Crash,
                },
                Blackout {
                    shard: ShardId::new(0),
                    start_micros: 20,
                    last_degrade_micros: 20,
                    end_micros: None,
                    cause: CtrlMilestone::FaultInjected,
                },
            ];
            let trace = chrome_trace(&ctrl, &blackouts);
            assert!(trace.starts_with(r#"{"traceEvents":["#), "{trace}");
            assert!(trace.ends_with('}'), "{trace}");
            // The note's quote must be escaped, or the document is invalid.
            assert!(trace.contains(r#"\"quoted\""#), "{trace}");
            assert!(trace.contains(r#""ph":"i""#), "{trace}");
            assert!(trace.contains(r#""ph":"X""#), "{trace}");
            assert!(trace.contains(r#""dur":50"#), "{trace}");
            assert!(trace.contains(r#""name":"crash""#), "{trace}");
            // Balanced quotes and braces — the no-dependency stand-in for a
            // full parse (CI additionally round-trips the real exporter
            // output through a JSON parser).
            assert_eq!(trace.matches('{').count(), trace.matches('}').count());
            assert_eq!(trace.replace("\\\"", "").matches('"').count() % 2, 0);
            // `ts` values appear in recording order: the ctrl stream is
            // time-ordered, so the rendered timestamps are monotone.
            let ts: Vec<u64> = trace
                .match_indices(r#""ts":"#)
                .map(|(i, _)| {
                    let rest = &trace[i + 5..];
                    let end = rest.find([',', '}']).expect("delimited");
                    rest[..end].parse().expect("integer ts")
                })
                .collect();
            assert_eq!(ts.len(), 4, "{trace}");
            assert!(ts[0] <= ts[1], "{trace}");
        }

        #[test]
        fn availability_and_blackout_rows_carry_msgs_per_tx() {
            use ratc_chaos::{BlackoutScenario, Stack};
            let per_tx = vec![
                (String::from("Certify"), 1.0),
                (String::from("Prepare"), 1.5),
            ];
            let row = blackout(&BlackoutResult {
                stack: Stack::Core,
                scenario: BlackoutScenario::LeaderCrash,
                submitted: 60,
                committed: 28,
                blackout_micros: 27_886,
                time_to_recover_micros: 27_886,
                windows: 1,
                unclosed_windows: 0,
                ctrl_events: 5,
                msgs_per_tx: per_tx.clone(),
                ok: true,
            });
            assert!(row.contains(r#""scenario":"leader-crash""#), "{row}");
            assert!(
                row.contains(r#""msgs_per_tx":{"Certify":1,"Prepare":1.5}"#),
                "{row}"
            );
            let row = availability(&AvailabilityResult {
                stack: Stack::Baseline,
                intensity: 40,
                submitted: 60,
                committed: 30,
                commits_per_milli: 0.7,
                recovery_micros: 1_000,
                blackout_micros: 500,
                time_to_recover_micros: 400,
                msgs_per_tx: per_tx,
                ok: true,
            });
            assert!(row.contains(r#""blackout_micros":500"#), "{row}");
            assert!(row.contains(r#""time_to_recover_micros":400"#), "{row}");
        }

        #[test]
        fn phase_rows_name_every_phase_and_the_unit() {
            let row = phases(&ratc_workload::PhaseResult {
                stack: StackKind::Baseline,
                execution: ratc_sim::ExecutionMode::Sim,
                shards: 2,
                depth: 64,
                committed: 64,
                measured: 64,
                mean_phase_micros: [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                mean_total_micros: 21.0,
                mean_retries: 0.5,
                latency_unit: ratc_sim::LatencyUnit::VirtualMicros,
            });
            for phase in ratc_sim::Phase::ALL {
                assert!(
                    row.contains(&format!(r#""mean_{}_micros":"#, phase.as_str())),
                    "{row}"
                );
            }
            assert!(row.contains(r#""execution":"sim""#), "{row}");
            assert!(row.contains(r#""latency_unit":"virtual_micros""#), "{row}");
        }
    }
}
