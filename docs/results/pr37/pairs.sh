#!/usr/bin/env bash
# Runs parent/change pairs of one workload, each run through the benchmark's
# own entry point in its checkout, and appends each run's JSON line to
# <workload>.<seed>.<side>.jsonl in OUT. Odd pairs run the parent first and
# even pairs the change (set2); set1 ran the parent first in every pair.
#   bash pairs.sh PARENT_CHECKOUT CHANGE_CHECKOUT federated_tree 1 10 docs/results/pr37/set2
set -euo pipefail
parent=$1 change=$2 workload=$3 seed=$4 pairs=$5 out=$(realpath "$6")
run() { (cd "$1" && bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds 15 --trace 0) | grep '^{' >>"$out/$workload.$seed.$2.jsonl"; }
for i in $(seq 1 "$pairs"); do
	if ((i % 2)); then
		run "$parent" parent
		run "$change" change
	else
		run "$change" change
		run "$parent" parent
	fi
done
