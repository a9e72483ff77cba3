#!/usr/bin/env bash
# CI gate for the adversarial checking subsystem (`check` + `repro chaos`):
#
# 1. Fixed-seed fleet: N seeds of checked chaos (oracle + invariants +
#    full-spectrum injection) all run clean, and report nonzero oracle
#    observations and injected faults (an idle checker gates nothing).
# 2. Determinism: the same seed emits a byte-identical artifact twice, so
#    any red run is a one-command repro.
# 3. Zero-cost: the same seed with `--check off` reports the identical
#    cycle count (observation must not perturb the measurement).
# 4. Sensitivity: with the planted stale-TLB bug armed
#    (MMU_TRICKS_BUG_STALE_TLB skips the VSID bump in flush_context), the
#    oracle catches it within one run, names the staleness, and prints the
#    seed/step/config repro block.
# 5. CLI contract: `repro --help` exits 0 and prints the usage on stdout,
#    listing every registered subcommand; no arguments, an unknown
#    subcommand, and a typo'd --flag all print usage to stderr and exit
#    nonzero (the silent-exit-0 fix); the chaos artifact carries the
#    "check" header the diff refusal keys on.
. "$(dirname "$0")/gate_lib.sh"

SEEDS=20
STEPS=300

# --- 1. the fixed-seed fleet -------------------------------------------------
if ! repro chaos --seed 1 --runs "$SEEDS" --steps "$STEPS" \
        --json "$out/chaos-a.json" > "$out/fleet.txt"; then
    gate_fail "checked chaos fleet had a violation" "$out/fleet.txt"
fi
clean=$(grep -c ': clean' "$out/fleet.txt" || true)
if [ "$clean" -ne "$SEEDS" ]; then
    gate_fail "expected $SEEDS clean chaos runs, got $clean"
fi
require_absent "$out/fleet.txt" 'oracle_obs=0 ' \
    "a chaos run saw zero oracle observations (checker idle)"
require_absent "$out/fleet.txt" 'injected=0 ' \
    "a chaos run injected zero faults (injector idle)"

# --- 2. same-seed determinism ------------------------------------------------
repro chaos --seed 1 --runs "$SEEDS" --steps "$STEPS" \
    --json "$out/chaos-b.json" > /dev/null
require_byte_identical "$out/chaos-a.json" "$out/chaos-b.json" \
    "two same-seed chaos fleets are not byte-identical"
require_contains "$out/chaos-a.json" '"check": "on"' \
    "chaos artifact is missing the check header"

# --- 3. check-off cycle identity ---------------------------------------------
repro chaos --seed 1 --steps "$STEPS" > "$out/on.txt"
repro chaos --seed 1 --steps "$STEPS" --check off > "$out/off.txt"
cycles_on=$(sed -n 's/.*cycles=\([0-9]*\).*/\1/p' "$out/on.txt")
cycles_off=$(sed -n 's/.*cycles=\([0-9]*\).*/\1/p' "$out/off.txt")
if [ -z "$cycles_on" ] || [ "$cycles_on" != "$cycles_off" ]; then
    gate_fail "checker is not zero-cost (on=$cycles_on off=$cycles_off)"
fi

# --- 4. the planted bug is caught --------------------------------------------
if MMU_TRICKS_BUG_STALE_TLB=1 repro chaos --seed 1 --steps "$STEPS" \
        > "$out/bug.txt" 2>&1; then
    gate_fail "the planted stale-TLB bug escaped the oracle"
else
    require_contains "$out/bug.txt" 'MM check violation' \
        "planted-bug run failed without an oracle violation"
    require_contains "$out/bug.txt" 'stale' \
        "planted-bug violation does not name the staleness"
    require_contains "$out/bug.txt" 'repro: repro chaos --seed' \
        "planted-bug violation has no one-command repro line"
fi

# --- 5. CLI exit-code contract -----------------------------------------------
if ! repro --help > "$out/help.out"; then
    gate_fail "repro --help exited nonzero"
fi
require_contains "$out/help.out" 'usage:' "repro --help must print usage on stdout"
for sub in bench matrix tune report diff chaos perf tail causal; do
    require_contains "$out/help.out" "^  $sub " \
        "repro --help does not list the '$sub' subcommand"
done
if repro > "$out/noargs.out" 2> "$out/noargs.err"; then
    gate_fail "repro with no arguments exited 0"
fi
if [ -s "$out/noargs.out" ]; then
    gate_fail "repro with no arguments must print nothing on stdout" "$out/noargs.out"
fi
require_contains "$out/noargs.err" 'usage:' \
    "repro with no arguments must print usage to stderr"
if repro no-such-subcommand > /dev/null 2> "$out/unknown.err"; then
    gate_fail "repro with an unknown subcommand exited 0"
fi
require_contains "$out/unknown.err" 'unknown experiment' \
    "unknown subcommand error is not diagnostic"
if repro bench --dpeth full > /dev/null 2> "$out/badflag.err"; then
    gate_fail "repro with a typo'd flag exited 0"
fi
require_contains "$out/badflag.err" '--dpeth' \
    "typo'd-flag error does not name the flag"

gate_ok "chaos gate OK: $clean/$SEEDS seeds clean, deterministic artifact, check-off cycle-identical, planted bug caught, CLI contract honest"
