#!/usr/bin/env python3
"""Prints the results table of README.md from the *.jsonl files beside it,
or in the directory given as the first argument (docs/results/pr47 keeps
its runs there): per workload and seed, parent median -> change median of
each gated metric, the pairs (in run order) in which the change read lower,
and the distance between the parent's quartiles."""
import json, statistics, pathlib, sys

here = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path(__file__).parent
metrics = ["heap_live_mb", "alloc_kb_per_query", "allocs_per_query", "setup_s"]

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
for w, seed in [(w, seed) for w in ["harvest_history", "cached_dashboard", "federated_tree", "subscribe_push"]
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
