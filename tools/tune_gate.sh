#!/usr/bin/env bash
# CI gate for the PMU-guided tuning loop (`mmtune` + `repro tune`):
#
# 1. `repro tune` determinism: a serial run and a `--jobs 4` run of the
#    descent emit byte-identical mmu-tricks-tune-v1 artifacts (the whole
#    loop — kernel, controller, descent — is deterministic, and the
#    parallel path must not reorder or perturb it).
# 2. Artifact shape: schema header, all four machine rows, a full config
#    object per row.
# 3. E-TUNE signs, re-checked from the artifact with shell arithmetic: the
#    tuned config strictly beats static opt on at least 2 of 4 machines for
#    the fault storm, and never loses by more than the 2% hysteresis bound
#    anywhere (the descent keeps the baseline in its candidate set, so a
#    loss means descent logic broke).
# 4. `repro etune` renders all gates as "pass".
# 5. Tune artifacts ride the shared diff semantics: self-diff is clean and
#    a tune-vs-bench diff is refused on the schema axis.
. "$(dirname "$0")/gate_lib.sh"

# --- 1. determinism ---------------------------------------------------------
repro tune --depth quick --json "$out/tune-a.json" >/dev/null
repro tune --depth quick --jobs 4 --json "$out/tune-b.json" >/dev/null
require_byte_identical "$out/tune-a.json" "$out/tune-b.json" \
    "serial and --jobs 4 repro tune runs are not byte-identical"

# --- 2. artifact shape ------------------------------------------------------
require_keys "$out/tune-a.json" '"schema": "mmu-tricks-tune-v1"' \
    '"machine": "603-swload"' '"machine": "603-nohtab"' \
    '"machine": "604-133"' '"machine": "604-200"' \
    '"mmtune": "' '"bats": "' '"scatter": "' '"handler": "' '"flush": "' \
    '"idle_reclaim": "' '"page_clearing": "'

# --- 3. E-TUNE signs from the artifact --------------------------------------
wins=0
rows=0
while read -r machine static tuned; do
    rows=$((rows + 1))
    if [ "$((tuned))" -lt "$((static))" ]; then
        wins=$((wins + 1))
    fi
    if [ "$((tuned * 100))" -gt "$((static * 102))" ]; then
        gate_fail "tuned config loses past the 2% hysteresis bound on $machine (${static} -> ${tuned})"
    fi
done < <(grep -o '"machine": "[^"]*", "static_cycles": [0-9]*, "tuned_cycles": [0-9]*' "$out/tune-a.json" \
    | sed 's/"machine": "\([^"]*\)", "static_cycles": \([0-9]*\), "tuned_cycles": \([0-9]*\)/\1 \2 \3/')
if [ "$rows" -ne 4 ]; then
    gate_fail "expected 4 tune rows, parsed $rows"
fi
if [ "$wins" -lt 2 ]; then
    gate_fail "tuned config beats static opt on only $wins of $rows machines (need >= 2)"
else
    echo "tune gate: tuned beats static opt on $wins of $rows machines"
fi

# --- 4. the E-TUNE experiment agrees ----------------------------------------
repro etune --depth quick > "$out/etune.txt"
require_absent "$out/etune.txt" 'FAIL' "repro etune reports a failing gate"
require_contains "$out/etune.txt" 'pass' "repro etune rendered no passing gates"

# --- 5. shared diff semantics -----------------------------------------------
repro diff "$out/tune-a.json" "$out/tune-b.json" --json "$out/tune-diff.json" >/dev/null
require_contains "$out/tune-diff.json" '"changed": 0' \
    "tune self-diff reported nonzero changes"
repro bench --depth quick --json "$out/bench.json" >/dev/null
if repro diff "$out/tune-a.json" "$out/bench.json" >/dev/null 2>"$out/refusal.txt"; then
    gate_fail "diff accepted a tune artifact against a bench artifact"
else
    require_contains "$out/refusal.txt" 'schema mismatch' \
        "tune/bench refusal lacks a clear error message"
fi

gate_ok "tune gate OK: deterministic artifact, $wins/$rows wins, hysteresis bound held, diff semantics shared"
