#!/usr/bin/env bash
# CI gate for the observability layer: run the traced reference workload,
# check the metrics artifact is complete, and fail if tracing ever charges
# cycles (tracer-on and tracer-off runs must be cycle-identical).
. "$(dirname "$0")/gate_lib.sh"

repro trace pmu --depth quick \
    --json "$out/metrics.json" --trace-out "$out/trace.json" >/dev/null

require_keys "$out/metrics.json" \
    '"schema"' '"total_cycles"' '"attribution"' '"attribution_total"' \
    '"tlb_reload"' '"page_fault"' '"signal_delivery"' '"stats"' \
    '"pteg"' '"ring"' '"experiments"' '"machine"' '"config"' \
    '"telemetry"' '"epoch_cycles"' '"htab_valid"' '"zombie_ptes"' \
    '"tlb_kernel"' '"htab_hit_ppm"'

# The zero-overhead guarantee: the harness ran the same workload with the
# tracer off and on and recorded the cycle difference. Any nonzero value
# means tracing perturbed the simulation. The traced run also carries the
# epoch-telemetry sampler, so this single check gates the whole
# observability stack: trace + telemetry together must be cycle-identical
# to the bare run.
require_contains "$out/metrics.json" '"overhead_cycles": 0,' \
    "traced+sampled and bare cycle totals diverge"

# The sampler must actually have sampled (a zero-length series would make
# the identity check vacuous).
samples="$(json_number "$out/metrics.json" samples)"
if [ -z "$samples" ] || [ "$samples" -lt 1 ]; then
    gate_fail "telemetry recorded no epoch samples (got '${samples:-none}')"
fi

require_contains "$out/trace.json" '"traceEvents":\[' \
    "trace.json is not a Chrome trace_event document"

# The E-PMU agreement table must ship inside the gated JSON artifact, and
# its counting-only row must prove the PMU never perturbed the run.
require_contains "$out/metrics.json" '"E-PMU: sampled vs exact attribution' \
    "metrics.json is missing the E-PMU agreement table"
require_contains "$out/metrics.json" '"counting-only".*"identical"' \
    "counting-only PMU run was not cycle-identical"

# The PMU-off identity: the bench baseline's trace_ref workload is the same
# reference run with tracing AND the PMU both off. Its cycle total must match
# the traced run's total_cycles exactly — if it doesn't, either the tracer or
# an idle (counting-only) PMU started charging cycles.
repro bench --depth quick --json "$out/bench.json" >/dev/null
traced="$(json_number "$out/metrics.json" total_cycles)"
untraced="$(grep -o '"trace_ref": {"cycles": [0-9]*' "$out/bench.json" | grep -o '[0-9]*$')"
if [ -z "$traced" ] || [ -z "$untraced" ] || [ "$traced" != "$untraced" ]; then
    gate_fail "PMU-off/trace-off run diverges: traced=$traced untraced=$untraced"
fi

# The perf surface: record a sampled profile and check the report carries
# every headline metric key.
repro perf record --depth quick --workload compile --period 16384 \
    --out "$out/perf.data" >/dev/null
repro perf report --in "$out/perf.data" --folded "$out/perf.folded" > "$out/report.txt"
require_keys "$out/report.txt" 'total_cycles ' 'baseline_cycles ' \
    'sampling_overhead_cycles ' 'interrupts ' 'weighted_samples ' \
    'sampled_share_ppm' 'exact_share_ppm'
require_contains "$out/perf.folded" '^pid[0-9]*;' \
    "folded flamegraph export is empty or malformed"

# perf.data must identify its machine and kernel config (the headers
# `repro perf diff` keys its compatibility refusal on).
require_contains "$out/perf.data" '^machine 604-133$' \
    "perf.data is missing its machine header"
require_contains "$out/perf.data" '^config bats=1 ' \
    "perf.data is missing its config header"

gate_ok "trace gate OK: artifacts complete, trace+telemetry overhead = 0, PMU-off identical, perf report complete"
