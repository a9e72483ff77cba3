//! Robustness under pressure: LmBench-shaped work driven into every failure
//! mode at once — wild pointers (SIGSEGV), mappings past EOF (SIGBUS),
//! memory exhaustion (page-cache eviction, then the OOM killer), hash-table
//! overflow, and the seeded fault injector on top. A real kernel survives
//! all of this with bookkeeping, not a crash; so must the simulated one.
//!
//! The run is fully deterministic: the same injector seed reproduces the
//! same statistics bit for bit, which is what makes injected-fault bugs
//! debuggable.

use kernel_sim::sched::USER_BASE;
use kernel_sim::{FaultInjection, Kernel, KernelConfig, KernelStats};
use ppc_machine::MachineConfig;
use ppc_mmu::addr::PAGE_SIZE;

use crate::tables::Table;
use crate::Depth;

/// Pages each memory hog tries to dirty. A handful of hogs together want
/// more frames than the machine has, forcing reclaim and then OOM kills.
const HOG_PAGES: u32 = 1024;

/// Results of one pressure run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PressureRun {
    /// Kernel counter deltas for the run.
    pub stats: KernelStats,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Tasks still alive (and runnable) when the storm ended.
    pub survivors: usize,
}

/// Drives the storm on a freshly booted kernel with injector seed `seed`
/// (boot excluded from the window).
pub fn run_pressure(seed: u64, hogs: u32) -> PressureRun {
    let cfg = KernelConfig {
        fault_injection: Some(FaultInjection::light(seed)),
        ..KernelConfig::optimized()
    };
    let mut k = Kernel::boot(MachineConfig::ppc604_133(), cfg);
    let k0 = k.stats;
    let c0 = k.machine.cycles;
    let survivors = fault_storm(&mut k, hogs);
    PressureRun {
        stats: k.stats.diff(&k0),
        cycles: k.machine.cycles - c0,
        survivors,
    }
}

/// The storm itself, on any booted kernel: a victim pool of faulting
/// tasks, `hogs` memory hogs that outgrow RAM, and a page-cache working set
/// for the reclaimer to feed on. Returns the tasks alive when the storm
/// ended; every one of them has exited by the time this returns. The
/// bench matrix's `fault_storm` workload is this on every machine row.
pub fn fault_storm(k: &mut Kernel, hogs: u32) -> usize {
    // Page-cache fodder: a file the reclaimer can evict from (reads fill
    // the cache; nothing maps it, so every page is fair game).
    let cache_file = k
        .create_file(256 * PAGE_SIZE)
        .expect("page cache fits before the storm");
    if let Ok(pid) = k.spawn_process(8) {
        k.switch_to(pid);
        let _ = k.sys_read(cache_file, 0, USER_BASE, 8 * PAGE_SIZE);
    }

    // SIGSEGV: wild pointers between heap and stack.
    for i in 0..4u32 {
        if let Ok(pid) = k.spawn_process(4) {
            k.switch_to(pid);
            let _ = k.user_write(0x5000_0000 + i * 64 * PAGE_SIZE, 4);
        }
    }

    // SIGBUS: map four pages of a one-page file and run off the end.
    if let Ok(short_file) = k.create_file(PAGE_SIZE) {
        if let Ok(pid) = k.spawn_process(4) {
            k.switch_to(pid);
            let addr = k.sys_mmap(Some(short_file), 4 * PAGE_SIZE);
            let _ = k.user_read(addr + PAGE_SIZE, 4);
        }
    }

    // Memory hogs: each wants HOG_PAGES dirty anonymous pages; together
    // they exceed physical memory, so the allocator must evict the page
    // cache and then start killing. Dead hogs donate their frames to the
    // next one — exactly the OOM churn a thrashing box lives through.
    for _ in 0..hogs {
        match k.spawn_process(HOG_PAGES) {
            Ok(pid) => {
                k.switch_to(pid);
                // The hog dirties its set a chunk at a time; any chunk may
                // end the hog (injected failure or its own OOM kill).
                for chunk in 0..HOG_PAGES / 64 {
                    let base = USER_BASE + chunk * 64 * PAGE_SIZE;
                    if k.user_write(base, 64 * PAGE_SIZE).is_err() {
                        break;
                    }
                }
            }
            Err(_) => break,
        }
    }

    // Idle sweep: zombie PTEs from all the teardown get reclaimed.
    k.run_idle(1_000_000);

    let survivors = k.tasks.iter().filter(|t| t.is_alive()).count();
    // Wind down: every survivor exits; its frames must come back.
    let alive: Vec<_> = k
        .tasks
        .iter()
        .filter(|t| t.is_alive())
        .map(|t| t.pid)
        .collect();
    for pid in alive {
        if k.task_idx(pid).is_some() {
            k.switch_to(pid);
            k.exit_current();
        }
    }

    survivors
}

/// Runs the pressure storm and renders its fault ledger.
pub fn exp_pressure(depth: Depth) -> (PressureRun, Table) {
    let run = run_pressure(42, depth.storm_hogs());
    let mut t = Table::new(
        "Fault storm (604 133MHz, seeded injector): the kernel survives",
        vec!["counter".into(), "count".into()],
    );
    // The full ledger comes straight from the generated counter enumeration
    // (KernelStats::as_named_pairs), so a counter added to the kernel shows
    // up here without touching this table. Zero rows are elided.
    for (name, n) in run.stats.as_named_pairs() {
        if n > 0 {
            t.push_row(vec![name.into(), format!("{n}")]);
        }
    }
    t.push_row(vec![
        "tasks_alive_at_end".into(),
        format!("{}", run.survivors),
    ]);
    (run, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_hits_every_failure_mode_and_no_one_panics() {
        let (run, _) = exp_pressure(Depth::Quick);
        let s = &run.stats;
        assert!(
            s.sigsegvs >= 4,
            "wild pointers must SIGSEGV ({})",
            s.sigsegvs
        );
        assert!(s.sigbus >= 1, "mapping past EOF must SIGBUS ({})", s.sigbus);
        assert!(s.oom_kills > 0, "hogs must trigger the OOM killer");
        assert!(s.reclaimed_pages > 0, "pressure must evict page cache");
        assert!(s.injected_faults > 0, "the injector must have fired");
    }

    #[test]
    fn same_seed_reproduces_the_storm_bit_for_bit() {
        assert_eq!(run_pressure(7, 8), run_pressure(7, 8));
        assert_eq!(run_pressure(1234, 8), run_pressure(1234, 8));
    }

    #[test]
    fn different_seeds_inject_differently() {
        let a = run_pressure(1, 8);
        let b = run_pressure(2, 8);
        // The workloads are identical; only the injector stream differs.
        assert_ne!(
            (a.stats.injected_faults, a.cycles),
            (b.stats.injected_faults, b.cycles)
        );
    }
}
