#!/usr/bin/env bash
# Runs every workload once per seed, keeps each run's output under
# .bench_build/steady/<set>/<workload>/, and reports each end-to-end metric's
# median, quartiles and spread against its bound in BENCHMARK.json. Then it
# runs the gate self-test on the same result data. Run from the repository
# root:
#
#   bash perfbench/steady.sh set1 1 2 3 4 5 6 7 8 9 10
#
# WORKLOADS="chain-3hop" limits the run to the named workloads. A second set
# (e.g. set2 with the same seeds) can be compared to the first
# with: .bench_build/perfbench --steady .bench_build/steady/set1,.bench_build/steady/set2
set -euo pipefail
set_name="${1:?usage: steady.sh <set-name> [seed...]}"
shift
seeds=("$@")
if [ ${#seeds[@]} -eq 0 ]; then seeds=(1 2 3 4 5 6 7 8 9 10); fi
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
bash perfbench/run.sh --list >/dev/null
bin=.bench_build/perfbench
out=".bench_build/steady/$set_name"
for w in ${WORKLOADS:-$("$bin" --list)}; do
	mkdir -p "$out/$w"
	for s in "${seeds[@]}"; do
		"$bin" --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 >"$out/$w/seed$s.txt" 2>"$out/$w/seed$s.err"
		tail -n 1 "$out/$w/seed$s.txt"
	done
done
"$bin" --steady "$out" || status=$?
"$bin" --selftest "$out"
exit "${status:-0}"
