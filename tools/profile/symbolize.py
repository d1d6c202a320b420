#!/usr/bin/env python3
"""Report of a sampler.c or heap.c profile:
`symbolize.py SAMPLES [TOP] [--thread-filter NAME] [--bytes]`.

SAMPLES is the file sampler.so wrote ($SAMPLER_OUT); SAMPLES.maps beside it
is the address map of the profiled process. Every address is resolved to
the function containing it with `nm` over the object it was mapped from, and
the report lists the TOP functions (default 40) by self share (the sample's
leaf) and by inclusive share (anywhere on the stack, counted once per
sample). With --thread-filter, only samples with NAME somewhere on the stack
count, so `--thread-filter Worker` restricts the report to a thread pool's
workers.

With --bytes, SAMPLES is the file heap.so wrote ($HEAP_OUT): each stack is
weighed by the bytes it held live at the heap's peak, and the "site" table
takes the innermost frame naming a `ratc_` function in place of the leaf
(which is always the allocator's).
"""
import bisect
import subprocess
import sys
from collections import Counter

args = sys.argv[1:]
weighed = "--bytes" in args
if weighed:
    args.remove("--bytes")
only = None
if "--thread-filter" in args:
    at = args.index("--thread-filter")
    only = args[at + 1]
    del args[at : at + 2]
samples_path = args[0]
top = int(args[1]) if len(args) > 1 else 40

# (start, end, offset, path) of every file-backed mapping.
mappings = []
for line in open(samples_path + ".maps"):
    fields = line.split()
    if len(fields) < 6 or not fields[5].startswith("/"):
        continue
    start, end = (int(x, 16) for x in fields[0].split("-"))
    mappings.append((start, end, int(fields[2], 16), fields[5]))
mappings.sort()
# An object's load base is the start of its mapping at file offset 0.
bases = {path: start for start, _, offset, path in mappings if offset == 0}

symbol_tables = {}


def symbols(path):
    """Sorted addresses and names of the text symbols of `path`. An object
    stripped to its dynamic symbols (libc) names an internal function after
    the exported one below it, so such names are marked."""
    if path not in symbol_tables:
        table = []
        for flags, mark in ((["-C"], ""), (["-C", "-D"], " [nearest export]")):
            out = subprocess.run(["nm", "-n", "--defined-only", *flags, path],
                                 capture_output=True, text=True).stdout
            for line in out.splitlines():
                parts = line.split(" ", 2)
                if len(parts) == 3 and parts[1] in "tTwW":
                    table.append((int(parts[0], 16), parts[2] + mark))
            if table:
                break
        table.sort()
        symbol_tables[path] = ([address for address, _ in table], [name for _, name in table])
    return symbol_tables[path]


names = {}


def name_of(pc):
    if pc not in names:
        at = bisect.bisect_right(mappings, (pc, float("inf"))) - 1
        name = f"?? {pc:#x}"
        if at >= 0 and mappings[at][0] <= pc < mappings[at][1]:
            path = mappings[at][3]
            addresses, labels = symbols(path)
            found = bisect.bisect_right(addresses, pc - bases.get(path, 0)) - 1
            name = labels[found] if found >= 0 else f"?? in {path}"
        names[pc] = name
    return names[pc]


self_counts, inclusive_counts, total = Counter(), Counter(), 0
for line in open(samples_path):
    if line.startswith("#"):
        print(line[1:].strip())
        continue
    words = line.split()
    weight = int(words.pop(0)) if weighed else 1
    pcs = [int(word, 16) for word in words]
    if not pcs and not weighed:
        continue
    # Return addresses point after the call; step back into it. A sample's
    # leaf is the interrupted instruction itself.
    stack = [name_of(pc if at == 0 and not weighed else pc - 1) for at, pc in enumerate(pcs)]
    if only and not any(only in frame for frame in stack):
        continue
    total += weight
    if weighed:
        site = next((frame for frame in stack if "ratc_" in frame), "(no ratc_ frame)")
    else:
        site = stack[0]
    self_counts[site] += weight
    for frame in set(stack):
        inclusive_counts[frame] += weight

unit = "bytes live at the peak" if weighed else "samples"
print(f"{total} {unit}" + (f" with {only!r} on the stack" if only else ""))
for title, counts in (("site" if weighed else "self", self_counts), ("inclusive", inclusive_counts)):
    print(f"\n-- {title} --")
    for name, count in counts.most_common(top):
        size = f"{count / 1e6:9.2f} MB  " if weighed else ""
        print(f"{size}{100 * count / max(total, 1):6.2f} %  {name[:150]}")
