//! The kernel-compile workload — "the informal Linux benchmark of compiling
//! the kernel" (paper §4): "The mix of process creation, file I/O, and
//! computation in the kernel compile is a good guess at a typical user load."
//!
//! Structure: each compilation unit spawns a compiler process that reads its
//! source, then alternates compute bursts over a cache-warm arena with short
//! I/O stalls (during which the idle task runs — this interleaving is what
//! makes the §9 idle-task experiments visible: anything the idle task does
//! to the cache is paid for by the next burst).

use kernel_sim::sched::USER_BASE;
use kernel_sim::Kernel;
use ppc_machine::MonitorSnapshot;
use ppc_mmu::addr::PAGE_SIZE;

use crate::access::WorkingSet;

/// Parameters of the synthetic compile.
#[derive(Debug, Clone, Copy)]
pub struct CompileConfig {
    /// Number of compilation units ("files").
    pub units: u32,
    /// Pages of the compiler's hot compute arena (sized near the L1 D-cache
    /// so cache warmth matters).
    pub hot_pages: u32,
    /// Fresh pages allocated (demand-zero faulted) per unit — the
    /// `get_free_page()` consumers.
    pub alloc_pages: u32,
    /// Pages of the wide, sparsely-referenced data set (symbol tables,
    /// ASTs): file-backed, larger than TLB reach, the source of the
    /// compile's steady TLB-miss rate (cc1 working sets dwarf a 128/256
    /// entry TLB — this is why the paper's compile takes 219M TLB misses).
    pub wide_pages: u32,
    /// Fraction of compute references that go to the wide set.
    pub wide_frac: f64,
    /// Total data references in the compute phase of each unit.
    pub refs_per_unit: u32,
    /// Compute bursts per unit; an I/O stall (idle time) separates bursts.
    pub slices: u32,
    /// Source bytes read per unit.
    pub source_bytes: u32,
    /// Idle (I/O-stall) cycles between bursts.
    pub idle_slice: u64,
    /// RNG seed.
    pub seed: u64,
}

impl CompileConfig {
    /// A small compile for tests (a few million cycles).
    pub fn small() -> Self {
        Self {
            units: 6,
            hot_pages: 4,
            alloc_pages: 6,
            wide_pages: 192,
            wide_frac: 0.15,
            refs_per_unit: 30_000,
            slices: 10,
            source_bytes: 16 * 1024,
            idle_slice: 60_000,
            seed: 1,
        }
    }

    /// The full benchmark compile (tens of millions of cycles — a scaled
    /// stand-in for the paper's 8–10 minute compiles).
    pub fn full() -> Self {
        Self {
            units: 24,
            hot_pages: 4,
            alloc_pages: 6,
            wide_pages: 192,
            wide_frac: 0.15,
            refs_per_unit: 80_000,
            slices: 12,
            source_bytes: 48 * 1024,
            idle_slice: 60_000,
            seed: 1,
        }
    }
}

/// Results of one compile run.
#[derive(Debug, Clone, Copy)]
pub struct CompileResult {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Wall-clock milliseconds at the machine's clock.
    pub wall_ms: f64,
    /// Hardware counter deltas for the run.
    pub monitor: MonitorSnapshot,
    /// Kernel counter deltas for the run.
    pub kernel: kernel_sim::KernelStats,
    /// Hash-table searches during the run.
    pub htab_searches: u64,
    /// Hash-table search misses during the run (the §5.1 "hash table
    /// misses").
    pub htab_search_misses: u64,
    /// High-water mark of TLB entries holding kernel translations, sampled
    /// at the busiest point of each unit (the §5.1 "33%" / "four entries"
    /// measurement).
    pub kernel_tlb_highwater: u32,
    /// That high-water mark as a fraction of total TLB entries.
    pub kernel_tlb_frac: f64,
}

/// Runs the compile workload on a booted kernel.
pub fn kernel_compile(k: &mut Kernel, cfg: CompileConfig) -> CompileResult {
    let sources = k
        .create_file(cfg.source_bytes.max(PAGE_SIZE))
        .expect("benchmark workload is well-formed");
    // The shared wide data set (like mapped libraries / the front end's
    // tables): file-backed so faults do not clear pages.
    let wide_file = (cfg.wide_pages > 0).then(|| {
        k.create_file(cfg.wide_pages * PAGE_SIZE)
            .expect("benchmark workload is well-formed")
    });
    let m0 = k.machine.snapshot();
    let k0 = k.stats;
    let h0 = *k.htab.stats();
    let c0 = k.machine.cycles;
    let mut kernel_tlb_hwm = 0u32;
    let alloc_base = USER_BASE + cfg.hot_pages * PAGE_SIZE;
    for unit in 0..cfg.units {
        // "cc1" for this unit.
        let pid = k
            .spawn_process(cfg.hot_pages + cfg.alloc_pages + 16)
            .expect("spawn cc1");
        k.switch_to(pid);
        // Read the source file.
        k.sys_read(sources, 0, USER_BASE, cfg.source_bytes.min(64 * 1024))
            .expect("benchmark workload is well-formed");
        // Allocation phase: fresh demand-zero pages (symbol tables, AST...).
        k.prefault(alloc_base, cfg.alloc_pages)
            .expect("benchmark workload is well-formed");
        // Map and fault the wide data set.
        let wide_base = wide_file.map(|f| {
            let base = k.sys_mmap(Some(f), cfg.wide_pages * PAGE_SIZE);
            k.prefault(base, cfg.wide_pages)
                .expect("benchmark workload is well-formed");
            base
        });
        // Compute phase: bursts over the hot arena plus sparse references
        // into the wide set (the TLB-miss generator), separated by I/O
        // stalls during which the idle task runs.
        let mut ws = WorkingSet::new(USER_BASE, cfg.hot_pages, cfg.seed + unit as u64);
        ws.locality = 0.95;
        let mut wide = wide_base.map(|base| {
            let mut w = WorkingSet::new(base, cfg.wide_pages, cfg.seed + 1000 + unit as u64);
            w.locality = 0.0;
            w
        });
        let per_slice = cfg.refs_per_unit / cfg.slices.max(1);
        let wide_refs = (per_slice as f64 * cfg.wide_frac) as u32;
        for _ in 0..cfg.slices {
            ws.run(k, per_slice - wide_refs, 0.35, 1);
            if let Some(w) = wide.as_mut() {
                w.run(k, wide_refs, 0.0, 1);
            }
            k.run_idle(cfg.idle_slice);
        }
        // Write the object file: stream a result buffer.
        k.user_write(alloc_base, (cfg.alloc_pages * PAGE_SIZE).min(32 * 1024))
            .expect("benchmark workload is well-formed");
        // Sample the kernel's TLB footprint at the busiest point.
        let kernel_entries = k
            .machine
            .mmu
            .tlb_entries_matching(kernel_sim::vsid::is_kernel_vsid);
        kernel_tlb_hwm = kernel_tlb_hwm.max(kernel_entries);
        k.exit_current();
    }
    let cycles = k.machine.cycles - c0;
    let h1 = *k.htab.stats();
    CompileResult {
        cycles,
        wall_ms: k.machine.time_of(cycles).as_ms(),
        monitor: k.machine.snapshot().delta(&m0),
        kernel: k.stats.diff(&k0),
        htab_searches: h1.searches - h0.searches,
        htab_search_misses: h1.misses - h0.misses,
        kernel_tlb_highwater: kernel_tlb_hwm,
        kernel_tlb_frac: kernel_tlb_hwm as f64
            / (k.machine.cfg.mmu.itlb.entries + k.machine.cfg.mmu.dtlb.entries) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernel_sim::KernelConfig;
    use ppc_machine::MachineConfig;

    #[test]
    fn compile_exercises_everything() {
        let mut k = Kernel::boot(MachineConfig::ppc604_133(), KernelConfig::optimized());
        let r = kernel_compile(&mut k, CompileConfig::small());
        assert!(r.cycles > 100_000);
        assert_eq!(r.kernel.processes_spawned, 6);
        assert!(r.kernel.page_faults > 0);
        assert!(r.monitor.tlb_misses() > 0 || r.monitor.dbat_hits > 0);
        assert!(r.kernel.idle_cycles > 0);
    }

    #[test]
    fn compile_is_deterministic() {
        let run = || {
            let mut k = Kernel::boot(MachineConfig::ppc604_133(), KernelConfig::optimized());
            kernel_compile(&mut k, CompileConfig::small()).cycles
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn bats_reduce_compile_tlb_misses() {
        // The §5.1 headline: BAT-mapping the kernel cut TLB misses ~10% and
        // hash-table misses ~20% on the compile.
        let run = |use_bats: bool| {
            let kcfg = KernelConfig {
                use_bats,
                ..KernelConfig::unoptimized()
            };
            let mut k = Kernel::boot(MachineConfig::ppc604_133(), kcfg);
            let r = kernel_compile(&mut k, CompileConfig::small());
            (r.monitor.tlb_misses(), r.cycles)
        };
        let (misses_no_bats, cycles_no_bats) = run(false);
        let (misses_bats, cycles_bats) = run(true);
        assert!(
            misses_bats < misses_no_bats,
            "BATs must reduce TLB misses: {misses_bats} vs {misses_no_bats}"
        );
        assert!(
            cycles_bats < cycles_no_bats,
            "BATs must reduce compile time: {cycles_bats} vs {cycles_no_bats}"
        );
    }
}
