#!/usr/bin/env python3
"""Republisher counters of gridrm-sim reports, one table row a scenario.

    python3 counters.py REPORT.json...

Each REPORT is `gridrm-sim run S -seed N -o REPORT`. Reports of one scenario
(the report's "scenario" name) share a row; each cell lists the counter
over them in the order given. A counter the report does not carry reads "-".
"""
import json, sys

COUNTERS = ["repub_subscriptions", "repub_subscribe_fallbacks", "repub_scrapes",
            "repub_resumes", "repub_gapped_resumes"]


def main():
    rows = {}
    for path in sys.argv[1:]:
        with open(path) as f:
            rep = json.load(f)
        cells = rows.setdefault(rep["scenario"], {c: [] for c in COUNTERS + ["passed"]})
        for c in COUNTERS:
            cells[c].append(str(rep["counters"].get(c, "-")))
        cells["passed"].append("yes" if rep["passed"] else "NO")
    print("| scenario | " + " | ".join("`%s`" % c for c in COUNTERS) + " | passed |")
    print("|---" * (len(COUNTERS) + 2) + "|")
    for name, cells in rows.items():
        print("| `%s` | " % name + " | ".join("/".join(cells[c]) for c in COUNTERS + ["passed"]) + " |")


if __name__ == "__main__":
    main()
