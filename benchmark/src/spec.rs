//! The metric names this benchmark defines, with their units.
//!
//! `BENCHMARK.json` at the repository root carries the same names together
//! with each end-to-end metric's direction and regression bound (a unit test
//! holds the two in step). *Exact* metrics are produced under the simulator
//! from seeded inputs: for one seed they repeat bit for bit, and `compare`
//! requires them equal.

/// One end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub exact: bool,
}

const fn wall(name: &'static str, unit: &'static str) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        exact: true,
    }
}

/// Every end-to-end metric, reported on every workload by the untraced run.
pub const END_TO_END: [EndToEnd; 9] = [
    wall("setup_s", "s"),
    wall("committed_per_s", "tx/s"),
    wall("peak_rss_mb", "MB"),
    exact("commit_share", "ratio"),
    exact("commit_p50_us", "virtual_us"),
    exact("commit_p99_us", "virtual_us"),
    exact("commit_max_us", "virtual_us"),
    exact("commit_hops_p50", "hops"),
    exact("msgs_per_committed_tx", "count"),
];

/// Every per-layer metric `(name, unit)`, reported on every workload by the
/// traced run. A layer a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("certify.vote_ns", "ns"),
    ("certify.prepare_release_ns", "ns"),
    ("certify.apply_committed_ns", "ns"),
    ("certify.abort_vote_share", "ratio"),
    ("log.append_ns", "ns"),
    ("log.decide_ns", "ns"),
    ("log.truncate_ns_per_slot", "ns"),
    ("log.max_retained_slots", "count"),
    ("batch.push_drain_ns_per_item", "ns"),
    ("batch.mean_occupancy", "count"),
    ("flow.enqueue_pop_ns", "ns"),
    ("flow.retries_per_tx", "count"),
    ("replica.msgs_per_tx", "count"),
    ("replica.busiest_handled_per_tx", "count"),
    ("replica.steps_per_tx", "count"),
    ("phase.admission_us", "us"),
    ("phase.dispatch_us", "us"),
    ("phase.certification_us", "us"),
    ("phase.quorum_us", "us"),
    ("phase.decide_us", "us"),
    ("phase.relay_us", "us"),
    ("world.pingpong_ns_per_event", "ns"),
    ("world.run_ns_per_step", "ns"),
    ("world.handler_ns_per_step", "ns"),
    ("rt.pingpong_ns_per_hop", "ns"),
    ("rt.bracket_us", "us"),
    ("rt.drain_share", "ratio"),
    ("rt.run_ns_per_step", "ns"),
    ("metrics.add_counter_ns", "ns"),
    ("metrics.record_sample_ns", "ns"),
    ("obs.overhead_ratio", "ratio"),
    ("obs.events_per_tx", "count"),
    ("recon.detect_us", "virtual_us"),
    ("recon.probe_us", "virtual_us"),
    ("recon.transfer_us", "virtual_us"),
    ("recon.first_decision_us", "virtual_us"),
    ("recon.planned_unavailable_us", "virtual_us"),
    ("recon.ctrl_events", "count"),
    ("unavailable_us", "virtual_us"),
    ("recover_us", "virtual_us"),
    ("harness.build_ms", "ms"),
    ("harness.submit_ns", "ns"),
    ("harness.collect_ms", "ms"),
    ("workload.generate_ns_per_tx", "ns"),
    ("spec.check_ms", "ms"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use crate::workloads::Workload;

    fn names_and_units(spec: &Value, section: &str) -> Vec<(String, String)> {
        spec.get(section)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"))
            .iter()
            .map(|metric| {
                let field = |key| {
                    metric
                        .get(key)
                        .and_then(Value::as_str)
                        .unwrap_or_else(|| panic!("a {section} metric has no {key}"))
                        .to_owned()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_exactly_what_the_code_reports() {
        let spec = Value::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        let owned = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
            pairs
                .iter()
                .map(|(name, unit)| (name.to_string(), unit.to_string()))
                .collect()
        };
        let end_to_end: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(names_and_units(&spec, "end_to_end"), owned(&end_to_end));
        assert_eq!(names_and_units(&spec, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
            .collect();
        let defined: Vec<&str> = Workload::all().iter().map(|w| w.name).collect();
        assert_eq!(workloads, defined);
    }

    #[test]
    fn exact_metrics_are_bounded_like_the_others_in_benchmark_json() {
        // The driver compares runs on different seeds, where an exact metric
        // still moves a little; its bound covers that cross-seed spread.
        let spec = Value::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        for metric in spec
            .get("end_to_end")
            .and_then(Value::as_arr)
            .expect("list")
        {
            let bound = metric.get("bound").and_then(Value::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "{metric}");
        }
    }
}
