//! Integration gate: the fused fast path (DESIGN.md §16) is a pure
//! *host-side encoding choice* — a fused run and a layered run of the same
//! cell produce the same cell (cycles, counters, self-time attribution,
//! latency percentiles) across the entire benchmark grid. The observers stay
//! out of the picture here (`check_grid.rs` arms them); the only thing
//! varied is the `fused` flag itself.

mod grid;

use kernel_sim::KernelConfig;

#[test]
fn fused_and_layered_paths_are_identical_across_the_full_grid() {
    grid::for_each_cell(|cfg, run, at| {
        let fused = run(KernelConfig { fused: true, ..cfg });
        let layered = run(KernelConfig {
            fused: false,
            ..cfg
        });
        assert_eq!(layered, fused, "the layered path diverged at {at}");
    });
}
