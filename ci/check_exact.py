#!/usr/bin/env python3
"""The exact rows as a gate: `check_exact.py RESULT.json [ci/exact.json]`.

RESULT.json is what `ratc-benchmark all --seed 42 --seconds 0 --out` writes.
The six virtual-time end-to-end metrics come from the simulator on seeded
inputs, so for one seed they are the same on every host: any difference from
the committed file is a change of the protocol's schedule. A PR that moves a
row on purpose regenerates ci/exact.json and names the row in CHANGES.md.

Each moved row is printed with the direction it moved in, `better` or
`worse`, read from the metric's `better` field in BENCHMARK.json, so a
deliberate re-recording shows at a glance which rows improved. Any
difference still fails the check, whichever way it went.
"""
import json
import sys
from pathlib import Path

result_path = sys.argv[1]
expected_path = sys.argv[2] if len(sys.argv) > 2 else Path(__file__).with_name("exact.json")
result = json.load(open(result_path))
expected = json.load(open(expected_path))
if result["fingerprint"]["seed"] != expected["seed"]:
    sys.exit(f"{result_path} was run at seed {result['fingerprint']['seed']}, not {expected['seed']}")

benchmark_path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
better = {m["name"]: m["better"] for m in json.load(open(benchmark_path))["end_to_end"]}


def direction(metric, expected, got):
    """`better` or `worse` for a moved row, by the metric's declared sense."""
    if not isinstance(got, (int, float)) or metric not in better:
        return "unknown direction"
    lower_is_better = better[metric] == "lower"
    return "better" if (got < expected) == lower_is_better else "worse"


differences = []
for workload, metrics in expected["workloads"].items():
    measured = result["workloads"].get(workload, {}).get("end_to_end", {})
    for metric, value in metrics.items():
        got = measured.get(metric, {}).get("value")
        if got != value:
            moved = direction(metric, value, got)
            differences.append(f"{workload}.{metric}: expected {value}, got {got} ({moved})")
for line in differences:
    print(line, file=sys.stderr)
rows = sum(len(metrics) for metrics in expected["workloads"].values())
print(f"exact rows: {rows - len(differences)} of {rows} equal to {expected_path}")
sys.exit(1 if differences else 0)
