#!/usr/bin/env python3
"""Prints the trace package's share of a heap profile's alloc_space: the
bytes allocated at a frame of gridrm/internal/trace (pprof's flat column,
inlined frames such as ContextWithSpan counted as their own), and of those
the recorders and chunks, the package's objects of 1 KB or more.

  python3 traceshare.py BINARY HEAP_PROFILE
"""
import re, subprocess, sys

UNITS = {"B": 1, "kB": 1 << 10, "MB": 1 << 20, "GB": 1 << 30}


def flat(binary, profile, *extra):
    out = subprocess.run(["go", "tool", "pprof", "-sample_index=alloc_space", "-top", "-nodefraction=0",
                          "-nodecount=1000000", *extra, binary, profile],
                         capture_output=True, text=True, check=True).stdout
    total, trace = None, 0.0
    for line in out.splitlines():
        m = re.search(r"of ([\d.]+)([kMG]?B) total", line)
        if m and total is None:
            total = float(m.group(1)) * UNITS[m.group(2)]
        m = re.match(r"\s*([\d.]+)([kMG]?B)\s+[\d.]+%\s+[\d.]+%\s+\S+\s+[\d.]+%\s+(\S+)", line)
        if m and m.group(3).startswith("gridrm/internal/trace."):
            trace += float(m.group(1)) * UNITS[m.group(2)]
    return total, trace


binary, profile = sys.argv[1:3]
total, trace = flat(binary, profile)
_, big = flat(binary, profile, "-tagfocus=1kb:")
mb = 1 << 20
print(f"total {total / mb:,.0f} MB; trace package {trace / mb:,.1f} MB ({100 * trace / total:.1f} %); "
      f"recorders and chunks {big / mb:,.1f} MB ({100 * big / total:.1f} %)")
