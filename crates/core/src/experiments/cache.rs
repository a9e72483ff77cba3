//! Cache-interaction experiments: §8 page-table cache pollution, §9 idle
//! page clearing, and the §10 future-work extensions.

use kernel_sim::sched::USER_BASE;
use kernel_sim::{Kernel, KernelConfig, PageClearing};
use lmbench::compile::{kernel_compile, CompileConfig};
use lmbench::lat;
use ppc_machine::MachineConfig;

use crate::tables::Table;
use crate::Depth;

/// Result of E-CACHE (§8).
#[derive(Debug, Clone, Copy)]
pub struct CachePollutionResult {
    /// Data-cache accesses performed by one worst-case hash-table fill
    /// (TLB miss → htab search miss → Linux PT walk → htab insert).
    /// Paper's analysis: 16 + 2 + 16 = 34 memory accesses.
    pub fill_memory_accesses: u64,
    /// New cache lines created by that fill (paper: up to 18).
    pub fill_new_lines: u64,
    /// Compile data-cache misses with cached page tables.
    pub compile_misses_cached_pt: u64,
    /// Compile data-cache misses with uncached page tables (§8's proposal).
    pub compile_misses_uncached_pt: u64,
    /// Compile wall clock (ms) with cached page tables.
    pub compile_ms_cached_pt: f64,
    /// Compile wall clock (ms) with uncached page tables.
    pub compile_ms_uncached_pt: f64,
}

/// E-CACHE (§8): cache misuse on page tables.
///
/// First instruments a single worst-case hash-table fill and counts its
/// memory accesses and the cache lines it creates (the paper's 34-access /
/// 18-line analysis); then measures a compile with page-table accesses
/// cached vs uncached.
pub fn exp_cache_pollution(depth: Depth) -> (CachePollutionResult, Table) {
    // --- single-fill instrumentation ---
    let mut k = Kernel::boot(MachineConfig::ppc604_133(), KernelConfig::optimized());
    let pid = k.spawn_process(8).expect("spawn");
    k.switch_to(pid);
    k.prefault(USER_BASE, 8)
        .expect("experiment workload is well-formed");
    // Force the worst case the paper analyses: the translation lives only
    // in the Linux page tables, and both candidate PTEGs are full so the
    // insert must probe all sixteen slots before displacing one.
    k.machine.mmu.flush_tlbs();
    let target = ppc_mmu::addr::EffectiveAddress(USER_BASE);
    let vsid = k.user_vsid(k.current.unwrap(), target);
    k.write_htab(|htab| {
        htab.invalidate(vsid, target.page_index());
        for j in 1..=16u32 {
            // Same PTEG (the group index depends only on the low hash
            // bits), different pages: these fill the primary then the
            // secondary group.
            let filler = ppc_mmu::pte::Pte {
                valid: true,
                vsid,
                secondary: false,
                page_index: target.page_index() ^ (j << 11),
                rpn: 0x100 + j,
                referenced: false,
                changed: false,
                cache_inhibited: false,
                pp: 2,
            };
            htab.insert(filler);
        }
    });
    k.machine.mem.dcache.invalidate_all();
    let s0 = *k.machine.mem.dcache.stats();
    let lines0 = k.machine.mem.dcache.resident_lines();
    k.data_ref(ppc_mmu::addr::EffectiveAddress(USER_BASE), false)
        .expect("experiment workload is well-formed");
    let s1 = *k.machine.mem.dcache.stats();
    let lines1 = k.machine.mem.dcache.resident_lines();
    let fill_accesses = s1.accesses - s0.accesses;
    let fill_lines = lines1 - lines0;

    // --- workload-level cached vs uncached page tables ---
    let compile = |cached: bool| {
        let kcfg = KernelConfig {
            htab_cached: cached,
            linux_pt_cached: cached,
            ..KernelConfig::optimized()
        };
        let mut k = Kernel::boot(MachineConfig::ppc604_133(), kcfg);
        let r = kernel_compile(&mut k, depth.compile());
        (r.monitor.dcache.misses, r.wall_ms)
    };
    let (miss_cached, ms_cached) = compile(true);
    let (miss_uncached, ms_uncached) = compile(false);
    let r = CachePollutionResult {
        fill_memory_accesses: fill_accesses,
        fill_new_lines: fill_lines,
        compile_misses_cached_pt: miss_cached,
        compile_misses_uncached_pt: miss_uncached,
        compile_ms_cached_pt: ms_cached,
        compile_ms_uncached_pt: ms_uncached,
    };
    let mut t = Table::new(
        "E-CACHE (8): cache misuse on page tables (604 133MHz)",
        vec!["metric".into(), "paper".into(), "measured".into()],
    );
    t.push_row(vec![
        "memory accesses per worst-case htab fill".into(),
        "34".into(),
        format!("{}", r.fill_memory_accesses),
    ]);
    t.push_row(vec![
        "new cache lines per fill".into(),
        "up to 18".into(),
        format!("{}", r.fill_new_lines),
    ]);
    t.push_row(vec![
        "compile D-cache misses (cached vs uncached PTs)".into(),
        "fewer expected uncached".into(),
        format!(
            "{} vs {}",
            r.compile_misses_cached_pt, r.compile_misses_uncached_pt
        ),
    ]);
    t.push_row(vec![
        "compile wall clock".into(),
        "-".into(),
        format!(
            "{:.1}ms vs {:.1}ms",
            r.compile_ms_cached_pt, r.compile_ms_uncached_pt
        ),
    ]);
    (r, t)
}

/// One row of E-CLEAR (§9).
#[derive(Debug, Clone)]
pub struct PageClearRow {
    /// Clearing policy.
    pub policy: PageClearing,
    /// Compile wall clock (ms).
    pub wall_ms: f64,
    /// Compile data-cache misses.
    pub dcache_misses: u64,
    /// Demand-path clears that were skipped thanks to the list.
    pub precleared_hits: u64,
}

/// E-CLEAR (§9): idle-task page clearing.
///
/// Paper: clearing through the cache made the compile "nearly twice as
/// long"; uncached clearing without the list changed nothing; uncached
/// clearing + the pre-cleared list "became much faster".
pub fn exp_page_clear(depth: Depth) -> (Vec<PageClearRow>, Table) {
    // §9's effect lives in the L1: run on the L2-less PReP 603. Each I/O
    // stall is long enough for roughly three page clears — enough to evict
    // both ways of every L1 set — and the compute bursts re-traverse an
    // arena that exactly fits the L1.
    let cfg = CompileConfig {
        units: match depth {
            Depth::Quick => 3,
            Depth::Full => 10,
        },
        hot_pages: 2,
        alloc_pages: 12,
        wide_pages: 0,
        wide_frac: 0.0,
        refs_per_unit: 300_000,
        slices: 20,
        source_bytes: 16 * 1024,
        idle_slice: 30_000,
        seed: 1,
    };
    let run = |policy: PageClearing| {
        let kcfg = KernelConfig {
            page_clearing: policy,
            ..KernelConfig::optimized()
        };
        let mut k = Kernel::boot(MachineConfig::ppc603_133_no_l2(), kcfg);
        let r = kernel_compile(&mut k, cfg);
        PageClearRow {
            policy,
            wall_ms: r.wall_ms,
            dcache_misses: r.monitor.dcache.misses,
            precleared_hits: k.frames.stats.precleared_hits,
        }
    };
    let rows = vec![
        run(PageClearing::OnDemand),
        run(PageClearing::IdleCached),
        run(PageClearing::IdleUncachedNoList),
        run(PageClearing::IdleUncached),
    ];
    let mut t = Table::new(
        "E-CLEAR (9): idle-task page clearing on the kernel compile (603 133MHz, no L2)",
        vec![
            "policy".into(),
            "paper".into(),
            "wall clock".into(),
            "dcache misses".into(),
            "precleared hits".into(),
        ],
    );
    let paper = ["baseline", "~2x slower", "no change", "much faster"];
    for (row, p) in rows.iter().zip(paper) {
        t.push_row(vec![
            format!("{:?}", row.policy),
            p.into(),
            format!("{:.1}ms", row.wall_ms),
            format!("{}", row.dcache_misses),
            format!("{}", row.precleared_hits),
        ]);
    }
    (rows, t)
}

/// Result of the §10 future-work extensions.
#[derive(Debug, Clone, Copy)]
pub struct ExtensionsResult {
    /// Compile wall clock, published-optimized kernel (ms).
    pub wall_ms_optimized: f64,
    /// Compile wall clock with idle cache locking (§10.1) (ms).
    pub wall_ms_idle_lock: f64,
    /// Context switch without cache preloads (µs).
    pub ctxsw_no_preload_us: f64,
    /// Context switch with cache preloads (§10.2) (µs).
    pub ctxsw_preload_us: f64,
}

/// §10 extensions: idle cache locking and context-switch cache preloads.
///
/// The paper proposes these as future work; we implement and measure them.
pub fn exp_extensions(depth: Depth) -> (ExtensionsResult, Table) {
    let compile = |idle_cache_lock: bool| {
        let kcfg = KernelConfig {
            idle_cache_lock,
            ..KernelConfig::optimized()
        };
        let mut k = Kernel::boot(MachineConfig::ppc604_133(), kcfg);
        kernel_compile(&mut k, depth.compile()).wall_ms
    };
    let rounds = match depth {
        Depth::Quick => 10,
        Depth::Full => 40,
    };
    let ctxsw = |cache_preloads: bool| {
        let kcfg = KernelConfig {
            cache_preloads,
            ..KernelConfig::optimized()
        };
        let mut k = Kernel::boot(MachineConfig::ppc604_133(), kcfg);
        // Eight processes with 32-page sets: enough combined footprint that
        // the incoming task struct has been evicted by the time it is
        // switched to — the case preloading targets.
        lat::ctx_switch(&mut k, 8, 32, rounds)
    };
    let r = ExtensionsResult {
        wall_ms_optimized: compile(false),
        wall_ms_idle_lock: compile(true),
        ctxsw_no_preload_us: ctxsw(false),
        ctxsw_preload_us: ctxsw(true),
    };
    let mut t = Table::new(
        "Extensions (10): idle cache locking and cache preloads",
        vec!["metric".into(), "without".into(), "with".into()],
    );
    t.push_row(vec![
        "compile wall clock (idle cache lock)".into(),
        format!("{:.1}ms", r.wall_ms_optimized),
        format!("{:.1}ms", r.wall_ms_idle_lock),
    ]);
    t.push_row(vec![
        "ctx switch (cache preloads)".into(),
        format!("{:.2}us", r.ctxsw_no_preload_us),
        format!("{:.2}us", r.ctxsw_preload_us),
    ]);
    (r, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_fill_matches_paper_analysis() {
        let (r, _) = exp_cache_pollution(Depth::Quick);
        // 16 (search both PTEGs) + ~3 (Linux PT walk) + up to 17 (insert
        // probes + slot write) ≈ the paper's 34; allow the model's exact
        // count to vary a little around it.
        assert!(
            (28..=40).contains(&r.fill_memory_accesses),
            "fill accesses {} should be near the paper's 34",
            r.fill_memory_accesses
        );
        assert!(
            r.fill_new_lines >= 4,
            "a fill must create several new cache lines (got {})",
            r.fill_new_lines
        );
    }

    #[test]
    fn cached_clearing_slows_the_compile() {
        let (rows, _) = exp_page_clear(Depth::Quick);
        let on_demand = rows[0].wall_ms;
        let idle_cached = rows[1].wall_ms;
        let idle_uncached = rows[3].wall_ms;
        assert!(
            idle_cached > on_demand,
            "cached idle clearing ({idle_cached:.1}ms) must slow the compile vs baseline ({on_demand:.1}ms)"
        );
        assert!(
            idle_uncached < on_demand,
            "uncached idle clearing + list ({idle_uncached:.1}ms) must beat baseline ({on_demand:.1}ms)"
        );
    }
}
