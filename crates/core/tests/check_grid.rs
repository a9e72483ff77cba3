//! Integration gate: the shadow-MM oracle and runtime invariants hold over
//! the entire benchmark grid, and no observer is seen in the results. Each
//! cell runs as configured and again with every observational observer
//! armed: trace, counting PMU, telemetry, the oracle and invariants (on the
//! audited fused path), tail capture and an identity causal config. Any
//! oracle or invariant violation panics the cell (DESIGN.md §12), and in
//! debug builds so does any disagreement between the incremental checker
//! and the full one; any observer that charges a cycle or moves a counter
//! breaks the identity.

mod grid;

use kernel_sim::check::CheckConfig;
use kernel_sim::{CausalConfig, KernelConfig, PmuConfig, TailConfig, TelemetryConfig};
use ppc_machine::pmu::PmcEvent;

#[test]
fn oracle_and_invariants_green_across_the_full_grid() {
    grid::for_each_cell(|cfg, run, at| {
        let (tlb, cache) = (PmcEvent::TlbMissBoth, PmcEvent::CacheMissBoth);
        let observed = KernelConfig {
            pmu: Some(PmuConfig::counting(tlb, cache)),
            telemetry: Some(TelemetryConfig::default_epochs()),
            check: Some(CheckConfig::full()),
            tail: Some(TailConfig::auto()),
            causal: Some(CausalConfig::identity()),
            ..cfg
        };
        assert_eq!(run(observed), run(cfg), "the observers perturbed {at}");
    });
}
