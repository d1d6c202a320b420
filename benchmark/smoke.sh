#!/usr/bin/env bash
# Smoke test of the benchmark, ready for CI: the unit tests, then every
# workload at 1/50 size, untraced and traced, with every correctness check on.
# Run from anywhere; takes well under a minute once built (the runs
# themselves take under 15 s).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

target="${CARGO_TARGET_DIR:-benchmark/target}"
out="benchmark/out/smoke.json"
mkdir -p benchmark/out
"$target/release/ratc-benchmark" all --smoke --seconds 0 --out "$out"
# A result file compared with itself must pass: exercises `compare` end to end.
# (exit 2 = "unresolved": the spread of a 1/50-size run can exceed a bound.)
"$target/release/ratc-benchmark" compare "$out" "$out" >/dev/null || [ $? -eq 2 ]
echo "benchmark smoke: ok"
