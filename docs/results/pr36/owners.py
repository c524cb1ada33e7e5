#!/usr/bin/env python3
"""Splits a heap profile's in-use bytes by owner. Each sample goes to the
first owner whose rule its stack matches; the rest go to "other", listed by
the innermost gridrm frame on their stacks.

  python3 owners.py BINARY HEAP_PROFILE [--others N]
"""
import collections, subprocess, sys

def has(*needles):
    return lambda frames, stack: all(n in stack for n in needles)

def line_buffer(frames, stack):
    # The reader's scanner buffer: made in read itself (a presized start)
    # or by the scanner as it grows.
    return frames[0] == "gridrm/internal/web.(*ClientSubscription).read" or (
        "web.(*ClientSubscription).read" in stack and frames[0].startswith("bufio.(*Scanner)"))

# (owner, the test a sample's stack must pass), in order of precedence.
RULES = [
    ("benchmark request array", has("main.(*testbed).stream")),
    ("intern", has("gridrm/internal/intern.")),
    ("SSE line buffers", line_buffer),
    ("plan caches", has("gridrm/internal/sqlparse.", "PlanCache")),
    ("trace store", has("gridrm/internal/trace.")),
    ("history series", has("gridrm/internal/history.")),
    ("router queues", has("gridrm/internal/router.")),
    ("connection buffers", has("net/http.", "bufio.New")),
]

def samples(binary, profile):
    out = subprocess.run(["go", "tool", "pprof", "-sample_index=inuse_space", "-traces", binary, profile],
                         capture_output=True, text=True, check=True).stdout
    for block in out.split("-----------+-------------------------------------------------------")[1:]:
        # A sample is "bytes: <object size>" label lines, then its value
        # beside the innermost frame, then one frame a line.
        lines = [l.split() for l in block.splitlines() if l.strip() and not l.strip().startswith("bytes:")]
        if not lines or len(lines[0]) < 2 or not lines[0][0][0].isdigit():
            continue
        yield parse_size(lines[0][0]), [lines[0][1]] + [l[0] for l in lines[1:]]

def parse_size(s):
    for unit, mult in (("GB", 1 << 30), ("MB", 1 << 20), ("kB", 1 << 10), ("B", 1)):
        if s.endswith(unit):
            return float(s[: -len(unit)]) * mult
    return float(s)

def main():
    binary, profile = sys.argv[1], sys.argv[2]
    show = int(sys.argv[sys.argv.index("--others") + 1]) if "--others" in sys.argv else 8
    owners, others = collections.Counter(), collections.Counter()
    for size, frames in samples(binary, profile):
        stack = " ".join(frames)
        owner = next((o for o, test in RULES if test(frames, stack)), "other")
        owners[owner] += size
        if owner == "other":
            others[next((f for f in frames if f.startswith("gridrm/")), frames[0])] += size
    total = sum(owners.values())
    print(f"| owner | MB |\n|---|---|")
    for owner, _ in RULES + [("other", None)]:
        print(f"| {owner} | {owners[owner] / (1 << 20):.2f} |")
    print(f"| total in use | {total / (1 << 20):.2f} |")
    print()
    for frame, size in others.most_common(show):
        print(f"  other: {size / (1 << 20):6.2f} MB  {frame}")

main()
