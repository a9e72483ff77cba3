//! The *entire* benchmark grid the integration gates walk — every machine
//! row, every kernel variant, every workload — so a gate covers exactly the
//! interactions this repository exists to measure (603 without a hash
//! table, eager flushes, uncached page tables, ...), not just the
//! configurations the unit tests happen to exercise.

use kernel_sim::KernelConfig;
use mmu_tricks::matrix::{paper_machines, paper_variants, run_cell, MatrixCell, WORKLOADS};
use mmu_tricks::Depth;

/// Calls `check(cfg, run, at)` once per grid cell: `cfg` is the cell's
/// kernel variant, `run` runs the cell's machine and workload under any
/// config, and `at` names the cell. Fails unless the walk covered all 96
/// cells.
pub fn for_each_cell(
    mut check: impl FnMut(KernelConfig, &dyn Fn(KernelConfig) -> MatrixCell, &str),
) {
    let machines = paper_machines();
    let variants = paper_variants();
    let mut cells = 0;
    for m in &machines {
        for (name, cfg) in &variants {
            for &wl in WORKLOADS {
                let run = |cfg| run_cell(m, name, cfg, wl, Depth::Quick);
                check(*cfg, &run, &format!("{} / {name} / {wl}", m.id));
                cells += 1;
            }
        }
    }
    assert_eq!(
        cells,
        machines.len() * variants.len() * WORKLOADS.len(),
        "grid shrank: the gate no longer covers every coordinate"
    );
    assert_eq!(cells, 96, "expected 4 machines x 8 configs x 3 workloads");
}
