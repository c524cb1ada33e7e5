#!/usr/bin/env python3
"""Prints the results table of README.md from the *.jsonl files beside it:
per workload and seed, parent median -> change median of each gated metric,
the pairs (in run order) in which the change read lower, and the distance
between the parent's quartiles."""
import json, statistics, sys, pathlib

here = pathlib.Path(__file__).parent
metrics = ["alloc_kb_per_query", "allocs_per_query", "heap_live_mb", "setup_s"]

def load(w, seed, side):
    return [json.loads(l) for l in (here / f"{w}.{seed}.{side}.jsonl").read_text().splitlines() if l.strip()]

def iqr(xs):
    if len(xs) < 4:
        return max(xs) - min(xs)
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[2] - q[0]

print("| workload | seed | pairs | " + " | ".join(f"`{m}`" for m in metrics) + " | requests (parent / change), failed |")
print("|---|---|---|" + "---|" * (len(metrics) + 1))
for w in ["harvest_history", "federated_tree", "cached_dashboard", "subscribe_push"]:
    for seed in ["1", "20030901"]:
        p, c = load(w, seed, "parent"), load(w, seed, "change")
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
        print(f"| `{w}` | {seed} | {n} | " + " | ".join(cells) + f" | {req}{'' if ok else ' (ORACLE SPOKE)'} |")

# Per-layer numbers of the traced runs (reported, not gated, none claimed).
layers = {
    "harvest_history": ["core.stage_harvest_us", "pool.get_us", "driver.harvest_us", "qcache.put_us", "core.query_allocs", "sqlparse.plan_hit_ratio", "restart_recovery_s"],
}
print()
print("| workload (traced, seed 1) | metric | parent runs | change runs | parent median → change median |")
print("|---|---|---|---|---|")
for w, names in layers.items():
    p = [json.loads(l) for l in (here / f"{w}.1.parent.traced.jsonl").read_text().splitlines() if l.strip()]
    c = [json.loads(l) for l in (here / f"{w}.1.change.traced.jsonl").read_text().splitlines() if l.strip()]
    for m in names:
        pv = [r["metrics"][m]["value"] for r in p if m in r["metrics"]]
        cv = [r["metrics"][m]["value"] for r in c if m in r["metrics"]]
        if not pv or not cv:
            continue
        fmt = lambda xs: ", ".join(f"{x:.4g}" for x in xs)
        print(f"| `{w}` | `{m}` | {fmt(pv)} | {fmt(cv)} | {statistics.median(pv):.4g} → {statistics.median(cv):.4g} |")
