#!/usr/bin/env python3
"""Lists the test binaries of a `cargo test` log, slowest first.

Reads the log of `cargo test --workspace -- --quiet` (cargo's `Running` and
`Doc-tests` lines go to stderr, so capture both streams) and prints a
Markdown table: each binary, the source it was built from, its test count
and its "finished in" time, then the sum. The table is for reading; no time
in it gates anything.

    cargo test --workspace -- --quiet 2>&1 | tee test.log
    python3 ci/test_times.py test.log
"""

import re
import sys

RUNNING = re.compile(r"^\s*Running (.+?) \((?:.*/)?([^/)]+)\)\s*$")
DOC_TESTS = re.compile(r"^\s*Doc-tests (\S+)\s*$")
RESULT = re.compile(r"^test result: \w+\. (\d+) passed; .*finished in ([0-9.]+)s")


def binaries(lines):
    """Yields `(binary, source, passed, seconds)` per test result."""
    current = None
    for line in lines:
        if m := RUNNING.match(line):
            stem = re.sub(r"-[0-9a-f]{16}$", "", m.group(2))
            current = (stem, m.group(1))
        elif m := DOC_TESTS.match(line):
            current = (m.group(1), "doc-tests")
        elif (m := RESULT.match(line)) and current is not None:
            yield current + (int(m.group(1)), float(m.group(2)))
            current = None


def main(path):
    with open(path, encoding="utf-8", errors="replace") as log:
        rows = sorted(binaries(log), key=lambda row: -row[3])
    print("| test binary | source | passed | finished in |")
    print("| --- | --- | --- | --- |")
    for binary, source, passed, seconds in rows:
        print(f"| `{binary}` | {source} | {passed} | {seconds:.2f} s |")
    total = sum(row[3] for row in rows)
    passed = sum(row[2] for row in rows)
    print(f"| **{len(rows)} binaries** | | {passed} | {total:.2f} s |")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
