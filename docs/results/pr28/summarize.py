#!/usr/bin/env python3
"""Prints the results table of README.md from the *.jsonl files beside it:
per workload, parent median -> change median of each gated metric, the
pairs (in run order) in which the change read lower, the distance between
the parent's quartiles, and the bound BENCHMARK.json fixes for the metric."""
import json, statistics, pathlib

here = pathlib.Path(__file__).parent
bounds = {m["name"]: m["bound"] for m in json.loads((here / "../../../BENCHMARK.json").read_text())["end_to_end"]}
metrics = ["alloc_kb_per_query", "allocs_per_query", "heap_live_mb", "setup_s"]

def load(w, side):
    return [json.loads(l) for l in (here / f"{w}.1.{side}.jsonl").read_text().splitlines() if l.strip()]

def iqr(xs):
    if len(xs) < 4:
        return max(xs) - min(xs)
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[2] - q[0]

print("| workload | pairs | " + " | ".join(f"`{m}` (bound {bounds[m]:.0%})" for m in metrics) + " | requests (parent / change), failed |")
print("|---|---|" + "---|" * (len(metrics) + 1))
for w in ["cached_dashboard", "harvest_history", "federated_tree", "subscribe_push"]:
    p, c = load(w, "parent"), load(w, "change")
    n = min(len(p), len(c))
    cells = []
    for m in metrics:
        pv = [r["metrics"][m]["value"] for r in p[:n]]
        cv = [r["metrics"][m]["value"] for r in c[:n]]
        pm, cm = statistics.median(pv), statistics.median(cv)
        won = sum(1 for a, b in zip(pv, cv) if b < a)
        cells.append(f"{pm:.4g} → {cm:.4g} ({(cm - pm) / pm * 100:+.1f} %, {won}/{n}; parent IQR {iqr(pv):.3g})")
    req = f"{sum(r['attempted'] for r in p):,} / {sum(r['attempted'] for r in c):,}, {sum(r['failed'] for r in p + c)}"
    ok = all(r["correct"] for r in p + c)
    print(f"| `{w}` | {n} | " + " | ".join(cells) + f" | {req}{'' if ok else ' (ORACLE SPOKE)'} |")
