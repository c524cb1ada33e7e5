#!/usr/bin/env bash
# Runs alternating parent/change pairs of one workload and appends each run's
# JSON line to <workload>.<seed>.<side>.jsonl in OUT. Odd pairs run the
# parent first, even pairs the change. Run it from a checkout of the parent:
#   go build -o PARENT ./benchmark     # in the parent's checkout
#   go build -o CHANGE ./benchmark     # in the change's checkout
#   bash pairs.sh PARENT CHANGE federated_tree 1 10 docs/results/pr39
set -euo pipefail
parent=$1 change=$2 workload=$3 seed=$4 pairs=$5 out=$6
run() { "$1" --workload "$workload" --seed "$seed" --seconds 15 --trace 0 | grep '^{' >>"$out/$workload.$seed.$2.jsonl"; }
for i in $(seq 1 "$pairs"); do
	if ((i % 2)); then
		run "$parent" parent
		run "$change" change
	else
		run "$change" change
		run "$parent" parent
	fi
done
