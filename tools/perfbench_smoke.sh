#!/usr/bin/env bash
# CI smoke step for the repository benchmark (`perfbench`, declared in
# BENCHMARK.json). perfbench is a package of its own, outside the
# workspace, so no other step builds it: a simulator API change that breaks
# it must fail here, not first in a benchmark pipeline.
#
# Runs every BENCHMARK.json workload for 3 s with the BENCHMARK.json
# command, once untraced (--trace 0) and once traced (--trace 1), and fails
# unless the last line of each run reports "correct": true. perfbench
# exits 0 either way; "correct" carries its own checks: every repetition
# reproduces the reference repetition's counters, compile_observed equals
# compile exactly, and traced spans cover the wall time. There is no
# throughput floor: speed is compared between two commits on one host by
# the benchmark itself, never against a committed number.
set -euo pipefail
cd "$(dirname "$0")/.."

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
fail=0

mapfile -t command < <(python3 -c \
    'import json; print("\n".join(json.load(open("BENCHMARK.json"))["command"]))')
mapfile -t workloads < <(python3 -c \
    'import json; print("\n".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

for workload in "${workloads[@]}"; do
    for trace in 0 1; do
        log="$out/$workload-trace$trace.txt"
        "${command[@]}" --workload "$workload" --seed 1 --seconds 3 \
            --trace "$trace" > "$log"
        if ! tail -n 1 "$log" | grep -q '"correct": true'; then
            echo "FAIL: perfbench $workload --trace $trace did not report correct" >&2
            cat "$log" >&2
            fail=1
        fi
    done
done

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "perfbench smoke OK: ${workloads[*]} correct untraced and traced"
