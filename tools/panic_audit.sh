#!/bin/sh
# Gate against undocumented panics creeping into the simulated path: the
# kernel and the hardware crates beneath it (MMU, caches, machine).
#
# Policy (DESIGN.md §7): host panics in crates/kernel-sim/src and the
# ppc-mmu, ppc-cache and ppc-machine sources are reserved for
# simulator-internal invariants, and each must be documented — either a
# `# Panics` rustdoc section on the function or an `expect("...")` message
# naming the invariant. Bare `panic!` / `.unwrap()` in non-test code is a
# bug: user-reachable failures must flow through `KResult`.
#
# To add a legitimate invariant panic, document it in the code and add its
# message to the allowlist below.
set -eu

cd "$(dirname "$0")/.."

# Messages of documented invariant panics (extended regex, one per line).
allow='translation for .* did not converge|MM check violation|MM incremental check diverged|MM invariant violated at mmtune epoch boundary|htab live-entry count diverged'

offenders=$(
    for f in crates/kernel-sim/src/*.rs crates/ppc-mmu/src/*.rs \
        crates/ppc-cache/src/*.rs crates/ppc-machine/src/*.rs; do
        case "$f" in
        */tests*.rs) continue ;; # test-only modules may unwrap freely
        esac
        # Strip in-file test modules (last item in every file here) and
        # comment lines, then flag bare panic!/unwrap() sites.
        sed '/#\[cfg(test)\]/,$d' "$f" |
            grep -n 'panic!(\|\.unwrap()' |
            grep -v '^[0-9]*:[[:space:]]*//' |
            grep -vE "$allow" |
            sed "s|^|$f:|" || true
    done
)

if [ -n "$offenders" ]; then
    echo "panic_audit: undocumented panic!/unwrap() on the simulated path:" >&2
    printf '%s\n' "$offenders" >&2
    echo "Use KResult for user-reachable failures, or a documented" >&2
    echo 'expect("<invariant>") for true invariants (see DESIGN.md §7).' >&2
    exit 1
fi

echo "panic_audit: clean"
