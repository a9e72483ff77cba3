//! Ablations of design choices the paper discusses but does not table:
//!
//! * the hash-table size ↔ RAM tradeoff (§7: "we could have decreased the
//!   size of the hash table and free RAM for use by the system"),
//! * the VSID scatter-constant sweep behind §5.2's histogram tuning,
//! * the §7-rejected *on-scarcity* zombie reclamation, quantifying the
//!   latency inconsistency the paper predicted ("Performance would also be
//!   inconsistent if we had to occasionally scan the hash table ... when we
//!   needed more space"),
//! * TLB reach (§2: "the current trend in chip design to keep TLB size
//!   small").

use kernel_sim::sched::USER_BASE;
use kernel_sim::{Kernel, KernelConfig, VsidPolicy};
use lmbench::compile::kernel_compile;
use ppc_machine::MachineConfig;
use ppc_mmu::addr::{EffectiveAddress, PAGE_SIZE};
use ppc_mmu::tlb::TlbConfig;

use crate::tables::{sparkline, Table};
use crate::Depth;

/// One point of the hash-table-size ablation.
#[derive(Debug, Clone, Copy)]
pub struct HtabSizePoint {
    /// PTEG groups (capacity = groups × 8).
    pub groups: u32,
    /// Table footprint in KiB (RAM not available to the system).
    pub footprint_kb: u32,
    /// Compile wall clock (ms).
    pub wall_ms: f64,
    /// Hash-table hit rate on TLB misses.
    pub htab_hit_rate: f64,
    /// Evictions of valid entries during the run.
    pub evictions: u64,
}

/// Hash-table size ablation (§7's size/RAM tradeoff), on the 604 compile.
pub fn ablate_htab_size(depth: Depth) -> (Vec<HtabSizePoint>, Table) {
    let points: Vec<HtabSizePoint> = [256u32, 512, 1024, 2048]
        .into_iter()
        .map(|groups| {
            let mut k = Kernel::boot_with_htab_groups(
                MachineConfig::ppc604_133(),
                KernelConfig::optimized(),
                groups,
            );
            let r = kernel_compile(&mut k, depth.compile());
            HtabSizePoint {
                groups,
                footprint_kb: groups * 8 * 8 / 1024,
                wall_ms: r.wall_ms,
                htab_hit_rate: r.kernel.htab_hit_rate(),
                evictions: k.htab.stats().evictions,
            }
        })
        .collect();
    let mut t = Table::new(
        "Ablation: hash-table size vs compile performance (7's size/RAM tradeoff)",
        vec![
            "PTEGs".into(),
            "footprint".into(),
            "compile wall".into(),
            "htab hit rate".into(),
            "evictions".into(),
        ],
    );
    for p in &points {
        t.push_row(vec![
            format!("{}", p.groups),
            format!("{} KiB", p.footprint_kb),
            format!("{:.1}ms", p.wall_ms),
            format!("{:.1}%", p.htab_hit_rate * 100.0),
            format!("{}", p.evictions),
        ]);
    }
    (points, t)
}

/// One point of the scatter-constant sweep.
#[derive(Debug, Clone, Copy)]
pub struct ScatterPoint {
    /// The VSID scatter constant.
    pub constant: u32,
    /// Completely full PTEGs at steady state.
    pub full_groups: u32,
    /// Completely empty PTEGs.
    pub empty_groups: u32,
    /// Valid-entry evictions while loading.
    pub evictions: u64,
}

/// The §5.2 tuning loop, automated: sweep the scatter constant and report
/// the hot-spot measures the authors watched on their histogram.
pub fn ablate_scatter(_depth: Depth) -> (Vec<ScatterPoint>, Table) {
    let constants = [1u32, 2, 8, 16, 64, 256, 113, 257, 897, 2731];
    let points: Vec<ScatterPoint> = constants
        .into_iter()
        .map(|constant| {
            let kcfg = KernelConfig {
                vsid_policy: VsidPolicy::ContextCounter { constant },
                ..KernelConfig::optimized()
            };
            let mut k = Kernel::boot(MachineConfig::ppc604_133(), kcfg);
            for _ in 0..8 {
                let pid = k.spawn_process(900).expect("spawn");
                k.switch_to(pid);
                k.prefault(USER_BASE, 900)
                    .expect("experiment workload is well-formed");
            }
            let hist = k.htab.group_histogram();
            ScatterPoint {
                constant,
                full_groups: hist.iter().filter(|&&c| c == 8).count() as u32,
                empty_groups: hist.iter().filter(|&&c| c == 0).count() as u32,
                evictions: k.htab.stats().evictions,
            }
        })
        .collect();
    let mut t = Table::new(
        "Ablation: VSID scatter-constant sweep (the 5.2 histogram-tuning loop)",
        vec![
            "constant".into(),
            "full PTEGs".into(),
            "empty PTEGs".into(),
            "evictions".into(),
            "balance".into(),
        ],
    );
    for p in &points {
        t.push_row(vec![
            format!("{}", p.constant),
            format!("{}", p.full_groups),
            format!("{}", p.empty_groups),
            format!("{}", p.evictions),
            if p.full_groups == 0 && p.empty_groups == 0 {
                "even"
            } else {
                "hot-spots"
            }
            .into(),
        ]);
    }
    (points, t)
}

/// Result of the reclaim-policy ablation.
#[derive(Debug, Clone)]
pub struct ReclaimPolicyResult {
    /// Policy label.
    pub label: String,
    /// Mean cost of a measured fault+touch operation (cycles).
    pub mean_cycles: f64,
    /// 99th-percentile cost.
    pub p99_cycles: u64,
    /// Worst-case cost.
    pub max_cycles: u64,
    /// Final evict ratio.
    pub evict_ratio: f64,
}

/// Reclaim-policy ablation: no reclaim vs the idle-task scan (the paper's
/// choice) vs the §7-rejected on-scarcity synchronous scan. The paper
/// predicted the rejected design would make "performance … inconsistent";
/// the p99/max columns quantify exactly that.
pub fn ablate_reclaim_policy(depth: Depth) -> (Vec<ReclaimPolicyResult>, Table) {
    let rounds = match depth {
        Depth::Quick => 24,
        Depth::Full => 48,
    };
    let run = |label: &str, idle: bool, scarcity: bool| {
        let kcfg = KernelConfig {
            idle_reclaim: idle,
            scarcity_reclaim: scarcity,
            ..KernelConfig::optimized()
        };
        let mut k = Kernel::boot_with_htab_groups(MachineConfig::ppc604_133(), kcfg, 256);
        let pid = k.spawn_process(128).unwrap();
        k.switch_to(pid);
        k.prefault(USER_BASE, 128)
            .expect("experiment workload is well-formed");
        let mut samples: Vec<u64> = Vec::new();
        for _ in 0..rounds {
            // Produce zombies...
            let addr = k.sys_mmap(None, 96 * PAGE_SIZE);
            k.prefault(addr, 96)
                .expect("experiment workload is well-formed");
            k.sys_munmap(addr, 96 * PAGE_SIZE);
            k.run_idle(100_000);
            // ...then sample individual TLB-reload latencies: each re-touch
            // reloads through the hash table, and an insert that finds the
            // table scarce triggers the synchronous scan under the rejected
            // policy — the spike lands in exactly one of these samples.
            k.machine.mmu.flush_tlbs();
            for i in 0..128 {
                let c0 = k.machine.cycles;
                k.data_ref(EffectiveAddress(USER_BASE + i * PAGE_SIZE), false)
                    .expect("experiment workload is well-formed");
                samples.push(k.machine.cycles - c0);
            }
        }
        samples.sort_unstable();
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        ReclaimPolicyResult {
            label: label.into(),
            mean_cycles: mean,
            p99_cycles: samples[samples.len() * 99 / 100],
            max_cycles: *samples.last().unwrap(),
            evict_ratio: k.htab.stats().evict_ratio(),
        }
    };
    let rows = vec![
        run("no reclaim", false, false),
        run("idle-task scan (the paper's choice)", true, false),
        run("on-scarcity scan (the rejected design)", false, true),
    ];
    let mut t = Table::new(
        "Ablation: zombie-reclaim policy — fault-latency consistency (256-PTEG table)",
        vec![
            "policy".into(),
            "mean fault".into(),
            "p99".into(),
            "max".into(),
            "evict ratio".into(),
        ],
    );
    for r in &rows {
        t.push_row(vec![
            r.label.clone(),
            format!("{:.0} cy", r.mean_cycles),
            format!("{} cy", r.p99_cycles),
            format!("{} cy", r.max_cycles),
            format!("{:.0}%", r.evict_ratio * 100.0),
        ]);
    }
    (rows, t)
}

/// One row of the replacement-policy ablation.
#[derive(Debug, Clone)]
pub struct ReplacementRow {
    /// Policy label.
    pub label: String,
    /// Hash-table hit rate on reloads during the measurement window.
    pub hit_rate: f64,
    /// Evictions of live entries.
    pub evict_live: u64,
}

/// Replacement-policy ablation: the paper's reload code "chose an arbitrary
/// PTE to replace" — here round-robin (Linux/PPC), random, and a fixed-slot
/// choice, on a saturated table. The outcome is workload-dependent: under
/// steady re-use the fixed slot sacrifices one way per group and protects
/// the rest (highest hit rate), while under insert-heavy churn it thrashes
/// its own freshly inserted entries — evidence for the paper's implicit
/// position that the choice is second-order next to reclaiming zombies.
pub fn ablate_replacement(depth: Depth) -> (Vec<ReplacementRow>, Table) {
    use ppc_mmu::htab::Replacement;
    let rounds = match depth {
        Depth::Quick => 16,
        Depth::Full => 40,
    };
    let run = |label: &str, policy: Replacement| {
        let kcfg = KernelConfig {
            idle_reclaim: false,
            ..KernelConfig::optimized()
        };
        let mut k = Kernel::boot_with_htab_groups(MachineConfig::ppc604_133(), kcfg, 128);
        k.htab.set_replacement(policy);
        // Producers make zombies under churning contexts; readers keep
        // stable working sets whose hash-table residency the policy decides.
        let producers: Vec<_> = (0..2).map(|_| k.spawn_process(8).unwrap()).collect();
        let readers: Vec<_> = (0..4).map(|_| k.spawn_process(96).unwrap()).collect();
        for &pid in &readers {
            k.switch_to(pid);
            k.prefault(USER_BASE, 96)
                .expect("experiment workload is well-formed");
        }
        for round in 0..rounds {
            for &pid in &producers {
                k.switch_to(pid);
                let addr = k.sys_mmap(None, 64 * PAGE_SIZE);
                k.prefault(addr, 64)
                    .expect("experiment workload is well-formed");
                k.sys_munmap(addr, 64 * PAGE_SIZE);
            }
            for &pid in &readers {
                k.switch_to(pid);
                k.machine.mmu.flush_tlbs();
                k.user_read(USER_BASE, 96 * PAGE_SIZE)
                    .expect("experiment workload is well-formed");
            }
            if round == rounds / 2 {
                k.htab.reset_stats();
                k.stats = kernel_sim::KernelStats::default();
            }
        }
        ReplacementRow {
            label: label.into(),
            hit_rate: k.stats.htab_hit_rate(),
            evict_live: k.stats.evict_live,
        }
    };
    let rows = vec![
        run("round-robin (Linux/PPC)", Replacement::RoundRobin),
        run("random", Replacement::Random),
        run("fixed slot 0", Replacement::FirstSlot),
    ];
    let mut t = Table::new(
        "Ablation: full-PTEG replacement choice on a saturated 128-PTEG table",
        vec![
            "policy".into(),
            "htab hit rate".into(),
            "live evictions".into(),
        ],
    );
    for r in &rows {
        t.push_row(vec![
            r.label.clone(),
            format!("{:.1}%", r.hit_rate * 100.0),
            format!("{}", r.evict_live),
        ]);
    }
    (rows, t)
}

/// One point of the TLB-reach ablation.
#[derive(Debug, Clone, Copy)]
pub struct TlbReachPoint {
    /// Entries per TLB side.
    pub entries_per_side: u32,
    /// Compile TLB misses.
    pub tlb_misses: u64,
    /// Compile wall clock (ms).
    pub wall_ms: f64,
}

/// TLB-reach ablation (§2's "trend … to keep TLB size small"): the compile
/// on a 604 with shrunken or grown TLBs.
pub fn ablate_tlb_reach(depth: Depth) -> (Vec<TlbReachPoint>, Table) {
    let points: Vec<TlbReachPoint> = [32u32, 64, 128, 256]
        .into_iter()
        .map(|entries| {
            let mut mcfg = MachineConfig::ppc604_133();
            mcfg.mmu.itlb = TlbConfig { entries, ways: 2 };
            mcfg.mmu.dtlb = TlbConfig { entries, ways: 2 };
            let mut k = Kernel::boot(mcfg, KernelConfig::optimized());
            let r = kernel_compile(&mut k, depth.compile());
            TlbReachPoint {
                entries_per_side: entries,
                tlb_misses: r.monitor.tlb_misses(),
                wall_ms: r.wall_ms,
            }
        })
        .collect();
    let misses: Vec<f64> = points.iter().map(|p| p.tlb_misses as f64).collect();
    let mut t = Table::new(
        format!(
            "Ablation: TLB reach vs compile performance (misses: {})",
            sparkline(&misses)
        ),
        vec![
            "entries/side".into(),
            "TLB misses".into(),
            "compile wall".into(),
        ],
    );
    for p in &points {
        t.push_row(vec![
            format!("{}", p.entries_per_side),
            format!("{}", p.tlb_misses),
            format!("{:.1}ms", p.wall_ms),
        ]);
    }
    (points, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replacement_policies_all_function() {
        let (rows, t) = ablate_replacement(Depth::Quick);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(
                r.hit_rate > 0.2 && r.hit_rate < 1.0,
                "{}: {:.2}",
                r.label,
                r.hit_rate
            );
            assert!(r.evict_live > 0);
        }
        assert!(t.render().contains("round-robin"));
    }

    #[test]
    fn smaller_tlbs_miss_more() {
        let (points, _) = ablate_tlb_reach(Depth::Quick);
        assert!(points[0].tlb_misses > points[3].tlb_misses);
        assert!(points[0].wall_ms > points[3].wall_ms);
    }

    #[test]
    fn scarcity_reclaim_is_inconsistent() {
        let (rows, _) = ablate_reclaim_policy(Depth::Quick);
        let idle = &rows[1];
        let scarcity = &rows[2];
        // Both reclaim policies keep the evict ratio down vs none...
        assert!(idle.evict_ratio < rows[0].evict_ratio);
        assert!(scarcity.evict_ratio < rows[0].evict_ratio);
        // ...but the on-scarcity scan pays for it in tail latency, exactly
        // as §7 predicted.
        assert!(
            scarcity.max_cycles > idle.max_cycles,
            "rejected design must have worse worst-case ({} vs {})",
            scarcity.max_cycles,
            idle.max_cycles
        );
    }
}
