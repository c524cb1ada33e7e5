#!/usr/bin/env python3
"""Prints a results table of README.md from the *.jsonl files in the set
directory named on the command line (set1, set2 or set3):
per workload and seed, parent median -> change median of each gated metric,
the pairs (in run order) in which the change read lower, and the distance
between the parent's quartiles."""
import json, statistics, pathlib, sys

here = pathlib.Path(__file__).parent / sys.argv[1]
metrics = ["setup_s", "alloc_kb_per_query", "allocs_per_query", "heap_live_mb"]

def load(w, seed, side):
    path = here / f"{w}.{seed}.{side}.jsonl"
    return [json.loads(l) for l in path.read_text().splitlines() if l.strip()] if path.exists() else []

def iqr(xs):
    if len(xs) < 4:
        return max(xs) - min(xs)
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[2] - q[0]

print("| workload | seed | pairs | " + " | ".join(f"`{m}`" for m in metrics) + " | requests (parent / change), failed |")
print("|---|---|---|" + "---|" * (len(metrics) + 1))
for w, seed in [(w, seed) for w in ["federated_tree", "cached_dashboard", "harvest_history", "subscribe_push"]
                for seed in ["1", "20030901"]]:
    p, c = load(w, seed, "parent"), load(w, seed, "change")
    n = min(len(p), len(c))
    if n == 0:
        continue
    cells = []
    for m in metrics:
        pv = [r["metrics"][m]["value"] for r in p[:n]]
        cv = [r["metrics"][m]["value"] for r in c[:n]]
        pm, cm = statistics.median(pv), statistics.median(cv)
        won = sum(1 for a, b in zip(pv, cv) if b < a)
        cells.append(f"{pm:.4g} → {cm:.4g} ({(cm - pm) / pm * 100:+.1f} %, {won}/{n}; parent IQR {iqr(pv):.3g})")
    req = f"{sum(r['attempted'] for r in p[:n]):,} / {sum(r['attempted'] for r in c[:n]):,}, {sum(r['failed'] for r in p[:n] + c[:n])}"
    ok = all(r["correct"] for r in p[:n] + c[:n])
    print(f"| `{w}` | {seed} | {n} | " + " | ".join(cells) + f" | {req}{'' if ok else ' (ORACLE SPOKE)'} |")
