//! `ratc-benchmark compare A.json B.json`: is B no worse than A?
//!
//! For every workload and end-to-end metric of the two result files:
//!
//! * an *exact* metric must be equal (the files must come from the same
//!   seed and sizes, or the comparison is refused);
//! * a wall-clock metric whose spread inside either run exceeds its bound is
//!   `unresolved` — the runs cannot tell a regression from noise (`setup_s`
//!   is exempt, as it is from the benchmark driver's spread check: its first
//!   repetition starts a cold process, so three repetitions always spread);
//! * otherwise B may be worse than A by at most the metric's bound in
//!   `BENCHMARK.json`.

use std::fmt;

use crate::json::Value;
use crate::spec::END_TO_END;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Unresolved,
    Regressed,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "REGRESSED",
        })
    }
}

/// One compared (workload, metric) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    pub b: f64,
    /// Share of A by which B is worse (negative: better).
    pub worse_by: f64,
    pub verdict: Verdict,
}

/// `higher`/`lower` and the bound of each end-to-end metric, from
/// `BENCHMARK.json`.
fn direction_and_bound(spec: &Value, metric: &str) -> Result<(bool, f64), String> {
    let entry = spec
        .get("end_to_end")
        .and_then(Value::as_arr)
        .and_then(|list| {
            list.iter()
                .find(|m| m.get("name").and_then(Value::as_str) == Some(metric))
        })
        .ok_or_else(|| format!("BENCHMARK.json does not define {metric}"))?;
    let higher_is_better = match entry.get("better").and_then(Value::as_str) {
        Some("higher") => true,
        Some("lower") => false,
        _ => return Err(format!("{metric}: \"better\" must be higher or lower")),
    };
    let bound = entry
        .get("bound")
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{metric}: no bound"))?;
    Ok((higher_is_better, bound))
}

fn metric_value(workload: &Value, metric: &str) -> Option<f64> {
    workload
        .get("end_to_end")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Spread of a wall-clock metric inside one run (0 when the run recorded
/// none, as for `peak_rss_mb`, which is read once).
fn spread(workload: &Value, metric: &str) -> f64 {
    workload
        .get("detail")
        .and_then(|d| d.get("spread"))
        .and_then(|s| s.get(metric))
        .and_then(|m| m.get("iqr_share"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// Compares two result files under the bounds of `spec`.
pub fn compare(a: &Value, b: &Value, spec: &Value) -> Result<Vec<Row>, String> {
    for key in ["seed", "smoke"] {
        let of = |file: &Value| file.get("fingerprint").and_then(|f| f.get(key)).cloned();
        if of(a) != of(b) {
            return Err(format!(
                "the files differ in {key}: exact metrics are only comparable on identical inputs"
            ));
        }
    }
    let workloads = |file: &Value| -> Result<Vec<(String, Value)>, String> {
        file.get("workloads")
            .and_then(Value::as_obj)
            .map(<[_]>::to_vec)
            .ok_or_else(|| "a result file has no \"workloads\" object".to_owned())
    };
    let (in_a, in_b) = (workloads(a)?, workloads(b)?);
    let mut rows = Vec::new();
    for (name, workload_a) in &in_a {
        let workload_b = in_b
            .iter()
            .find(|(other, _)| other == name)
            .map(|(_, w)| w)
            .ok_or_else(|| format!("{name} is missing from the second file"))?;
        for def in END_TO_END {
            let (higher_is_better, bound) = direction_and_bound(spec, def.name)?;
            let (va, vb) = match (
                metric_value(workload_a, def.name),
                metric_value(workload_b, def.name),
            ) {
                (Some(va), Some(vb)) => (va, vb),
                // A `--smoke` run leaves out a percentile its few samples
                // cannot support; absent on both sides, there is nothing to
                // compare.
                (None, None) => continue,
                _ => return Err(format!("{name}: {} is in one file only", def.name)),
            };
            let worse_by = if va == vb {
                0.0
            } else if higher_is_better {
                (va - vb) / va.abs()
            } else {
                (vb - va) / va.abs()
            };
            let verdict = if def.exact {
                if va == vb {
                    Verdict::Ok
                } else {
                    Verdict::Regressed
                }
            } else if def.name != "setup_s"
                && spread(workload_a, def.name).max(spread(workload_b, def.name)) > bound
            {
                Verdict::Unresolved
            } else if worse_by > bound {
                Verdict::Regressed
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: name.clone(),
                metric: def.name,
                a: va,
                b: vb,
                worse_by,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// Prints the table and returns the exit code: 0 all ok, 1 something
/// regressed (or an exact metric differs), 2 nothing regressed but something
/// is unresolved.
pub fn report(rows: &[Row]) -> i32 {
    println!(
        "{:<24} {:<22} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "A", "B", "worse by"
    );
    for row in rows {
        println!(
            "{:<24} {:<22} {:>16.4} {:>16.4} {:>8.2}%  {}",
            row.workload,
            row.metric,
            row.a,
            row.b,
            100.0 * row.worse_by,
            row.verdict
        );
    }
    let count = |verdict| rows.iter().filter(|r| r.verdict == verdict).count();
    let (regressed, unresolved) = (count(Verdict::Regressed), count(Verdict::Unresolved));
    println!(
        "{} compared: {} ok, {unresolved} unresolved, {regressed} regressed",
        rows.len(),
        count(Verdict::Ok)
    );
    if regressed > 0 {
        1
    } else if unresolved > 0 {
        2
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Value {
        Value::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json")
    }

    /// A result file with one workload whose metrics are all 100 except the
    /// overrides.
    fn file(overrides: &[(&str, f64)], committed_iqr: f64) -> Value {
        let metrics = END_TO_END.iter().map(|def| {
            let value = overrides
                .iter()
                .find(|(name, _)| *name == def.name)
                .map_or(100.0, |(_, v)| *v);
            (def.name, Value::obj([("value", Value::from(value))]))
        });
        Value::obj([
            (
                "fingerprint",
                Value::obj([("seed", Value::from(42u64)), ("smoke", Value::from(false))]),
            ),
            (
                "workloads",
                Value::obj([(
                    "w",
                    Value::obj([
                        ("end_to_end", Value::obj(metrics)),
                        (
                            "detail",
                            Value::obj([(
                                "spread",
                                Value::obj([(
                                    "committed_per_s",
                                    Value::obj([("iqr_share", Value::from(committed_iqr))]),
                                )]),
                            )]),
                        ),
                    ]),
                )]),
            ),
        ])
    }

    fn verdict_of(rows: &[Row], metric: &str) -> Verdict {
        rows.iter()
            .find(|r| r.metric == metric)
            .expect("compared")
            .verdict
    }

    #[test]
    fn identical_files_pass() {
        let rows = compare(&file(&[], 0.01), &file(&[], 0.01), &spec()).expect("comparable");
        assert_eq!(rows.len(), END_TO_END.len());
        assert_eq!(report(&rows), 0);
    }

    #[test]
    fn an_exact_metric_must_be_equal_even_when_it_improves() {
        let b = file(&[("commit_p50_us", 99.0)], 0.01);
        let rows = compare(&file(&[], 0.01), &b, &spec()).expect("comparable");
        assert_eq!(verdict_of(&rows, "commit_p50_us"), Verdict::Regressed);
        assert_eq!(report(&rows), 1);
    }

    #[test]
    fn wall_clock_regresses_only_beyond_its_bound_and_in_its_direction() {
        let (_, bound) = direction_and_bound(&spec(), "committed_per_s").expect("defined");
        let slower = file(&[("committed_per_s", 100.0 * (1.0 - bound) - 1.0)], 0.01);
        let rows = compare(&file(&[], 0.01), &slower, &spec()).expect("comparable");
        assert_eq!(verdict_of(&rows, "committed_per_s"), Verdict::Regressed);
        let slightly = file(&[("committed_per_s", 100.0 * (1.0 - bound) + 1.0)], 0.01);
        let rows = compare(&file(&[], 0.01), &slightly, &spec()).expect("comparable");
        assert_eq!(verdict_of(&rows, "committed_per_s"), Verdict::Ok);
        let faster = file(&[("committed_per_s", 300.0)], 0.01);
        let rows = compare(&file(&[], 0.01), &faster, &spec()).expect("comparable");
        assert_eq!(verdict_of(&rows, "committed_per_s"), Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let rows = compare(&file(&[], 0.01), &file(&[], 0.9), &spec()).expect("comparable");
        assert_eq!(verdict_of(&rows, "committed_per_s"), Verdict::Unresolved);
        assert_eq!(report(&rows), 2);
    }

    #[test]
    fn a_metric_absent_from_both_files_is_skipped_and_from_one_is_an_error() {
        let without = |mut file: Value| {
            let Value::Obj(top) = &mut file else {
                unreachable!()
            };
            let Value::Obj(workloads) = &mut top[1].1 else {
                unreachable!()
            };
            let Value::Obj(workload) = &mut workloads[0].1 else {
                unreachable!()
            };
            let Value::Obj(metrics) = &mut workload[0].1 else {
                unreachable!()
            };
            metrics.retain(|(name, _)| name != "commit_p99_us");
            file
        };
        let rows = compare(
            &without(file(&[], 0.01)),
            &without(file(&[], 0.01)),
            &spec(),
        )
        .expect("comparable");
        assert_eq!(rows.len(), END_TO_END.len() - 1);
        assert!(compare(&file(&[], 0.01), &without(file(&[], 0.01)), &spec()).is_err());
    }

    #[test]
    fn files_from_different_seeds_are_refused() {
        let mut other = file(&[], 0.01);
        if let Value::Obj(members) = &mut other {
            members[0].1 = Value::obj([("seed", Value::from(7u64)), ("smoke", Value::from(false))]);
        }
        assert!(compare(&file(&[], 0.01), &other, &spec()).is_err());
    }
}
