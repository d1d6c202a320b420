//! `ratc-benchmark`: the repository's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! ratc-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--trace-file PATH]
//! ratc-benchmark all --out FILE [--seed N] [--seconds S] [--smoke]
//! ratc-benchmark compare A.json B.json [--spec BENCHMARK.json]
//! ratc-benchmark list
//! ```

mod compare;
mod gate;
mod gen;
mod host;
mod json;
mod layers;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::Value;
use run::{Options, Outcome};
use workloads::Workload;

/// Marks the stdout line that carries a run's detail object, for `all`.
const DETAIL_PREFIX: &str = "# detail ";

const USAGE: &str = "usage:
  ratc-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--trace-file PATH]
  ratc-benchmark all --out FILE [--seed N] [--seconds S] [--smoke]
  ratc-benchmark compare A.json B.json [--spec BENCHMARK.json]
  ratc-benchmark list";

/// Command-line flags after the subcommand, as `(flag, value)` pairs and
/// positional arguments.
struct Args {
    flags: Vec<(String, String)>,
    smoke: bool,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        const VALUED: [&str; 7] = [
            "--workload",
            "--seed",
            "--seconds",
            "--trace",
            "--trace-file",
            "--out",
            "--spec",
        ];
        let mut args = Args {
            flags: Vec::new(),
            smoke: false,
            positional: Vec::new(),
        };
        let mut raw = raw.peekable();
        while let Some(arg) = raw.next() {
            if VALUED.contains(&arg.as_str()) {
                let value = raw.next().ok_or(format!("{arg} needs a value"))?;
                args.flags.push((arg, value));
            } else if arg == "--smoke" {
                args.smoke = true;
            } else if arg.starts_with("--") {
                return Err(format!("unknown flag {arg}"));
            } else {
                args.positional.push(arg);
            }
        }
        Ok(args)
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(flag, _)| flag == name)
            .map(|(_, value)| value.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("{name}: cannot read {text:?}")),
        }
    }

    fn seconds(&self) -> Result<f64, String> {
        let seconds: f64 = self.parsed("--seconds", 10.0)?;
        if seconds.is_finite() && (0.0..=600.0).contains(&seconds) {
            Ok(seconds)
        } else {
            Err(format!("--seconds {seconds} is outside 0..=600"))
        }
    }
}

fn metrics_object(outcome: &Outcome) -> Value {
    Value::obj(outcome.metrics.iter().map(|metric| {
        (
            metric.name,
            Value::obj([
                ("value", Value::from(metric.value)),
                ("unit", Value::from(metric.unit)),
            ]),
        )
    }))
}

/// Runs one workload and prints its metrics; the last line is the result
/// object.
fn run_one(args: &Args, process_start: Instant) -> Result<(), String> {
    let name = args.flag("--workload").ok_or("--workload is required")?;
    let workload = Workload::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = Workload::all().iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; the workloads are {known:?}")
    })?;
    let trace = match args.flag("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let options = Options {
        workload,
        seed: args.parsed("--seed", 42)?,
        seconds: args.seconds()?,
        trace,
        smoke: args.smoke,
        trace_file: args.flag("--trace-file").map_or_else(
            || PathBuf::from(format!("benchmark/out/trace-{name}.json")),
            PathBuf::from,
        ),
    };
    let outcome = run::run(&options, process_start)?;
    for metric in &outcome.metrics {
        println!(
            "  {:<32} {:>18.4} {}",
            metric.name, metric.value, metric.unit
        );
    }
    println!("{DETAIL_PREFIX}{}", outcome.detail);
    println!(
        "{}",
        Value::obj([
            ("correct", Value::from(true)),
            ("attempted", Value::from(outcome.attempted)),
            ("failed", Value::from(outcome.failed)),
            ("metrics", metrics_object(&outcome)),
        ])
    );
    Ok(())
}

/// Runs `--workload name` in a child process (so `peak_rss_mb` is that
/// workload's alone) and returns its metrics and detail objects.
fn run_child(name: &str, args: &Args, trace: bool) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", name, "--trace", if trace { "1" } else { "0" }])
        .args(["--seed", args.flag("--seed").unwrap_or("42")])
        .args(["--seconds", args.flag("--seconds").unwrap_or("10")])
        .stdout(Stdio::piped());
    if args.smoke {
        command.arg("--smoke");
    }
    // `output` waits for the child to end.
    let output = command
        .output()
        .map_err(|e| format!("cannot start the {name} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!("the {name} run failed ({})", output.status));
    }
    let mut lines = stdout.lines().rev();
    let result = lines
        .next()
        .and_then(|line| Value::parse(line).ok())
        .ok_or_else(|| format!("the {name} run printed no result"))?;
    let detail = lines
        .find_map(|line| line.strip_prefix(DETAIL_PREFIX))
        .and_then(|text| Value::parse(text).ok())
        .ok_or_else(|| format!("the {name} run printed no detail"))?;
    let metrics = result
        .get("metrics")
        .cloned()
        .ok_or_else(|| format!("the {name} result has no metrics"))?;
    let failed = result.get("failed").and_then(Value::as_f64);
    if failed != Some(0.0) {
        return Err(format!(
            "{name}: {failed:?} transactions were left undecided"
        ));
    }
    Ok((metrics, detail))
}

/// Runs every workload, untraced then traced, and writes one result file.
fn run_all(args: &Args) -> Result<(), String> {
    let out = args.flag("--out").ok_or("all needs --out FILE")?;
    let mut workloads = Vec::new();
    for workload in Workload::all() {
        let (end_to_end, detail) = run_child(workload.name, args, false)?;
        let (per_layer, traced_detail) = run_child(workload.name, args, true)?;
        workloads.push((
            workload.name,
            Value::obj([
                ("end_to_end", end_to_end),
                ("detail", detail),
                ("per_layer", per_layer),
                ("traced_detail", traced_detail),
            ]),
        ));
    }
    let file = Value::obj([
        (
            "fingerprint",
            host::fingerprint(args.parsed("--seed", 42)?, args.seconds()?, args.smoke),
        ),
        ("workloads", Value::obj(workloads)),
    ]);
    std::fs::write(out, format!("{file}\n")).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Value::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run_compare(args: &Args) -> Result<i32, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("compare takes two result files".to_owned());
    };
    let spec = read_json(args.flag("--spec").unwrap_or("BENCHMARK.json"))?;
    let rows = compare::compare(&read_json(a)?, &read_json(b)?, &spec)?;
    Ok(compare::report(&rows))
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let mut raw = std::env::args().skip(1).peekable();
    let subcommand = match raw.peek().map(String::as_str) {
        Some("all" | "compare" | "list") => raw.next(),
        _ => None,
    };
    let result = Args::parse(raw).and_then(|args| match subcommand.as_deref() {
        Some("all") => run_all(&args).map(|()| 0),
        Some("compare") => run_compare(&args),
        Some("list") => {
            for workload in Workload::all() {
                println!("{}", workload.name);
            }
            Ok(0)
        }
        _ => run_one(&args, process_start).map(|()| 0),
    });
    match result {
        Ok(0) => ExitCode::SUCCESS,
        Ok(code) => ExitCode::from(code as u8),
        Err(message) => {
            // No result line is printed: a failed gate voids every number.
            eprintln!("ratc-benchmark: {message}\n{USAGE}");
            ExitCode::from(3)
        }
    }
}
