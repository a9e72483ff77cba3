//! The *entire* benchmark grid the integration gates walk — every machine
//! row, every kernel variant, every workload — so a gate covers exactly the
//! interactions this repository exists to measure (603 without a hash
//! table, eager flushes, uncached page tables, ...), not just the
//! configurations the unit tests happen to exercise.

use kernel_sim::KernelConfig;
use mmu_tricks::matrix::{paper_machines, paper_variants, run_cell, MatrixCell, WORKLOADS};
use mmu_tricks::{par_map, workers, Depth};

/// Calls `check(cfg, run, at)` once per grid cell, on every available core:
/// `cfg` is the cell's kernel variant, `run` runs the cell's machine and
/// workload under any config, and `at` names the cell. Fails unless the
/// walk covers all 96 cells.
pub fn for_each_cell(
    check: impl Fn(KernelConfig, &dyn Fn(KernelConfig) -> MatrixCell, &str) + Sync,
) {
    let machines = paper_machines();
    let variants = paper_variants();
    let mut cells = Vec::new();
    for m in &machines {
        for (name, cfg) in &variants {
            for &wl in WORKLOADS {
                cells.push((m, *name, *cfg, wl));
            }
        }
    }
    assert_eq!(
        cells.len(),
        96,
        "expected 4 machines x 8 configs x 3 workloads"
    );
    par_map(workers(), &cells, |&(m, name, cfg, wl)| {
        let run = |cfg| run_cell(m, name, cfg, wl, Depth::Quick);
        check(cfg, &run, &format!("{} / {name} / {wl}", m.id));
    });
}
