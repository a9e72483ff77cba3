//! Property-based tests for the kernel simulator's core invariants.

use proptest::prelude::*;

use kernel_sim::kconfig::VsidPolicy;
use kernel_sim::linuxpt::{LinuxPageTables, LinuxPte, PTE_RW};
use kernel_sim::physmem::{FrameAllocator, PhysMem};
use kernel_sim::sched::USER_BASE;
use kernel_sim::vsid::VsidAllocator;
use kernel_sim::{Kernel, KernelConfig};
use ppc_cache::stats::CacheStats;
use ppc_machine::monitor::MonitorSnapshot;
use ppc_machine::pmu::{Mmcr0, PmcEvent, Pmu};
use ppc_machine::MachineConfig;
use ppc_mmu::addr::{EffectiveAddress, PAGE_SIZE};
use ppc_mmu::tlb::TlbStats;

/// Counter fields in a [`MonitorSnapshot`]: cycles + 2 TLBs (6 each) +
/// 2 caches (9 each) + 2 BAT-hit counters.
const SNAP_FIELDS: usize = 33;

/// Builds a [`MonitorSnapshot`] from [`SNAP_FIELDS`] arbitrary values.
fn snapshot_from(v: &[u64]) -> MonitorSnapshot {
    let tlb = |v: &[u64]| TlbStats {
        lookups: v[0],
        hits: v[1],
        misses: v[2],
        reloads: v[3],
        tlbie: v[4],
        flush_all: v[5],
    };
    let cache = |v: &[u64]| CacheStats {
        accesses: v[0],
        hits: v[1],
        misses: v[2],
        evictions: v[3],
        writebacks: v[4],
        inhibited: v[5],
        zero_fills: v[6],
        prefetch_fills: v[7],
        prefetch_redundant: v[8],
    };
    MonitorSnapshot {
        cycles: v[0],
        itlb: tlb(&v[1..7]),
        dtlb: tlb(&v[7..13]),
        icache: cache(&v[13..22]),
        dcache: cache(&v[22..31]),
        ibat_hits: v[31],
        dbat_hits: v[32],
    }
}

/// Flattens a snapshot back into the same [`SNAP_FIELDS`]-value order.
fn snapshot_fields(s: &MonitorSnapshot) -> [u64; SNAP_FIELDS] {
    [
        s.cycles,
        s.itlb.lookups,
        s.itlb.hits,
        s.itlb.misses,
        s.itlb.reloads,
        s.itlb.tlbie,
        s.itlb.flush_all,
        s.dtlb.lookups,
        s.dtlb.hits,
        s.dtlb.misses,
        s.dtlb.reloads,
        s.dtlb.tlbie,
        s.dtlb.flush_all,
        s.icache.accesses,
        s.icache.hits,
        s.icache.misses,
        s.icache.evictions,
        s.icache.writebacks,
        s.icache.inhibited,
        s.icache.zero_fills,
        s.icache.prefetch_fills,
        s.icache.prefetch_redundant,
        s.dcache.accesses,
        s.dcache.hits,
        s.dcache.misses,
        s.dcache.evictions,
        s.dcache.writebacks,
        s.dcache.inhibited,
        s.dcache.zero_fills,
        s.dcache.prefetch_fills,
        s.dcache.prefetch_redundant,
        s.ibat_hits,
        s.dbat_hits,
    ]
}

proptest! {
    /// Frame-allocator conservation: frames handed out are unique, frees
    /// restore them, and the free count is exact.
    #[test]
    fn allocator_conserves_frames(ops in proptest::collection::vec(any::<bool>(), 1..500)) {
        let mut a = FrameAllocator::new();
        let total = a.free_frames();
        let mut held: Vec<u32> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for &alloc in &ops {
            if alloc {
                if let Some((pa, _)) = a.get_free_page() {
                    prop_assert!(seen.insert(pa), "frame {pa:#x} double-allocated");
                    held.push(pa);
                }
            } else if let Some(pa) = held.pop() {
                a.free_page(pa);
                seen.remove(&pa);
            }
            prop_assert_eq!(a.free_frames() + held.len(), total);
        }
    }

    /// Lazily zeroed RAM reads exactly like eager RAM: over random
    /// sequences of `zero_page`, `copy_page`, `write_u32` and `read_u32` on
    /// four frames, every read, and every word of every frame at the end,
    /// equals an array that clears and copies eagerly.
    #[test]
    fn lazily_zeroed_ram_reads_like_eager_ram(ops in proptest::collection::vec(
        ((0u32..4, 0u32..4), (0u32..4, 0u32..(PAGE_SIZE / 4)), 1u32..u32::MAX), 1..120)) {
        const BASE: u32 = 0x30_0000;
        let words = (PAGE_SIZE / 4) as usize;
        let pa = |frame: u32, word: u32| BASE + frame * PAGE_SIZE + word * 4;
        let mut mem = PhysMem::new();
        let mut eager = vec![0u32; 4 * words];
        for &((op, frame), (other, word), value) in &ops {
            let (f, o, w) = (frame as usize, other as usize, word as usize);
            match op {
                0 => {
                    mem.zero_page(pa(frame, 0));
                    eager[f * words..(f + 1) * words].fill(0);
                }
                1 => {
                    mem.copy_page(pa(frame, 0), pa(other, 0));
                    eager.copy_within(f * words..(f + 1) * words, o * words);
                }
                2 => {
                    mem.write_u32(pa(frame, word), value);
                    eager[f * words + w] = value;
                }
                _ => prop_assert_eq!(mem.read_u32(pa(frame, word)), eager[f * words + w]),
            }
        }
        for (i, &want) in eager.iter().enumerate() {
            let i = i as u32;
            prop_assert_eq!(mem.read_u32(pa(i / (PAGE_SIZE / 4), i % (PAGE_SIZE / 4))), want);
        }
    }

    /// Page tables: map → walk returns the mapped frame; unmap removes it;
    /// distinct addresses never interfere.
    #[test]
    fn page_tables_round_trip(pages in proptest::collection::btree_set(0u32..0x8_0000, 1..60)) {
        let mut mem = PhysMem::new();
        let pt = LinuxPageTables::new(0x22_0000);
        let mut next_pt_page = 0x22_1000u32;
        let pages: Vec<u32> = pages.into_iter().collect();
        for (i, &vpn) in pages.iter().enumerate() {
            let ea = EffectiveAddress(vpn << 12);
            let pte = LinuxPte::present(0x300 + i as u32, PTE_RW);
            pt.map(&mut mem, ea, pte, || {
                let p = next_pt_page;
                next_pt_page += 0x1000;
                Some(p)
            }).expect("pool big enough");
        }
        for (i, &vpn) in pages.iter().enumerate() {
            let ea = EffectiveAddress(vpn << 12);
            let w = pt.walk(&mem, ea);
            prop_assert_eq!(w.pte.expect("mapped page present").pfn(), 0x300 + i as u32);
        }
        // Unmap every other page; the rest must survive.
        for &vpn in pages.iter().step_by(2) {
            pt.unmap(&mut mem, EffectiveAddress(vpn << 12));
        }
        for (i, &vpn) in pages.iter().enumerate() {
            let present = pt.walk(&mem, EffectiveAddress(vpn << 12)).pte.is_some();
            prop_assert_eq!(present, i % 2 == 1);
        }
    }

    /// VSID liveness: after any alloc/retire interleaving, exactly the
    /// non-retired contexts are live, and the context counter never hands
    /// out the same VSIDs twice.
    #[test]
    fn vsid_liveness_model(ops in proptest::collection::vec(any::<bool>(), 1..200)) {
        let mut a = VsidAllocator::new(VsidPolicy::ContextCounter { constant: 897 });
        let htab = ppc_mmu::HashTable::new(64, 0);
        let mut live: Vec<[ppc_mmu::addr::Vsid; 12]> = Vec::new();
        let mut ever = std::collections::HashSet::new();
        for (i, &alloc) in ops.iter().enumerate() {
            if alloc || live.is_empty() {
                let v = a.alloc_context(i as u32, &htab);
                for x in v {
                    prop_assert!(ever.insert(x.raw()), "VSID {:#x} reused", x.raw());
                }
                live.push(v);
            } else {
                let v = live.swap_remove(0);
                a.retire(&v);
                prop_assert!(!a.is_live(v[0]));
            }
            for set in &live {
                for &x in set.iter() {
                    prop_assert!(a.is_live(x));
                }
            }
        }
    }

    /// End-to-end translation stability: after faulting a page in, repeated
    /// references translate to the same physical frame (the one the D-TLB
    /// holds after each reference), whatever mix of reads and writes
    /// follows.
    #[test]
    fn translation_is_stable(offsets in proptest::collection::vec(
        (0u32..16, 0u32..(PAGE_SIZE / 4), any::<bool>()), 1..60)) {
        let mut k = Kernel::boot(MachineConfig::ppc604_185(), KernelConfig::optimized());
        let pid = k.spawn_process(16).unwrap();
        k.switch_to(pid);
        k.prefault(USER_BASE, 16).unwrap();
        let mut frame_of = std::collections::HashMap::new();
        for &(page, word, write) in &offsets {
            let ea = EffectiveAddress(USER_BASE + page * PAGE_SIZE + word * 4);
            k.data_ref(ea, write).unwrap();
            let va = k.machine.mmu.segments.translate(ea);
            let (_, e) = k.machine.mmu.dtlb.peek(va.vsid, va.page_index)
                .expect("a completed reference leaves its translation resident");
            prop_assert!(e.cached);
            if let Some(&prev) = frame_of.get(&page) {
                prop_assert_eq!(prev, e.rpn, "page {} moved frames", page);
            }
            frame_of.insert(page, e.rpn);
        }
    }

    /// Cycle monotonicity: no kernel operation ever rewinds the clock, and
    /// every user reference costs at least one cycle.
    #[test]
    fn cycles_monotone(ops in proptest::collection::vec((0u32..8, any::<bool>()), 1..80)) {
        let mut k = Kernel::boot(MachineConfig::ppc603_133(), KernelConfig::optimized());
        let pid = k.spawn_process(8).unwrap();
        k.switch_to(pid);
        k.prefault(USER_BASE, 8).unwrap();
        let mut last = k.machine.cycles;
        for &(page, write) in &ops {
            k.data_ref(EffectiveAddress(USER_BASE + page * PAGE_SIZE), write).unwrap();
            prop_assert!(k.machine.cycles > last);
            last = k.machine.cycles;
        }
    }

    /// The zombie-reclaim safety property on a live kernel: reclaim never
    /// invalidates a translation the process still uses.
    #[test]
    fn reclaim_never_breaks_live_mappings(churns in 1u32..6) {
        let mut k = Kernel::boot(MachineConfig::ppc604_133(), KernelConfig::optimized());
        let pid = k.spawn_process(32).unwrap();
        k.switch_to(pid);
        k.prefault(USER_BASE, 32).unwrap();
        for _ in 0..churns {
            let addr = k.sys_mmap(None, 64 * PAGE_SIZE);
            k.prefault(addr, 8).unwrap();
            k.sys_munmap(addr, 64 * PAGE_SIZE);
            k.run_idle(2_000_000); // full reclaim sweep
            // The working set must still be readable (and re-faultable).
            k.user_read(USER_BASE, 32 * PAGE_SIZE).unwrap();
        }
        prop_assert_eq!(k.stats.segfaults, 0);
    }

    /// Robustness under fire: random mixes of syscalls, in-VMA accesses and
    /// wild pointers, driven under a heavy fault injector, never panic the
    /// host — every failure surfaces as a `KernelError` — and after tearing
    /// every task down the allocator has all its user frames back.
    #[test]
    fn fault_injection_never_panics_host(
        seed in any::<u64>(),
        ops in proptest::collection::vec((0u8..8, 0u32..64), 1..50),
    ) {
        let mut cfg = KernelConfig::optimized();
        cfg.fault_injection = Some(kernel_sim::FaultInjection::heavy(seed));
        let mut k = Kernel::boot(MachineConfig::ppc604_185(), cfg);
        let free0 = k.frames.free_frames();
        for &(op, arg) in &ops {
            if k.current.is_none() {
                match k.spawn_process(4) {
                    Ok(pid) => k.switch_to(pid),
                    Err(_) => break,
                }
            }
            match op {
                0 => { let _ = k.user_write(USER_BASE + (arg % 4) * PAGE_SIZE, 4); }
                // May run past the 4-page working set: SIGSEGV territory.
                1 => { let _ = k.user_read(USER_BASE + arg * PAGE_SIZE, 4); }
                2 => { let _ = k.sys_brk(1 + arg % 16); }
                3 => { let _ = k.sys_fork(); }
                4 => k.sys_null(),
                // Wild pointer between heap and stack: no VMA can be there.
                5 => { let _ = k.user_write(0x5000_0000 + arg * PAGE_SIZE, 4); }
                6 => { let _ = k.signal_roundtrip(USER_BASE); }
                _ => {
                    if let Ok(pid) = k.spawn_process(2) {
                        k.switch_to(pid);
                    }
                }
            }
        }
        // Tear everything down; the allocator must get every frame back.
        while let Some(pid) = k.tasks.iter().find(|t| t.is_alive()).map(|t| t.pid) {
            k.switch_to(pid);
            k.exit_current();
        }
        prop_assert_eq!(k.frames.free_frames(), free0);
    }

    /// Counter-window safety: [`MonitorSnapshot::delta`] saturates on every
    /// field, for *any* pair of snapshots — even "windows" whose earlier
    /// edge postdates the later one (a reset, an out-of-order read). No
    /// underflow into a bogus astronomically-large count, ever.
    #[test]
    fn monitor_delta_never_underflows(
        a in proptest::collection::vec(any::<u64>(), SNAP_FIELDS..SNAP_FIELDS + 1),
        b in proptest::collection::vec(any::<u64>(), SNAP_FIELDS..SNAP_FIELDS + 1),
    ) {
        let (sa, sb) = (snapshot_from(&a), snapshot_from(&b));
        let fwd = snapshot_fields(&sa.delta(&sb));
        let rev = snapshot_fields(&sb.delta(&sa));
        for i in 0..SNAP_FIELDS {
            prop_assert_eq!(fwd[i], a[i].saturating_sub(b[i]));
            prop_assert_eq!(rev[i], b[i].saturating_sub(a[i]));
        }
        // A self-window is empty.
        prop_assert_eq!(sa.delta(&sa), MonitorSnapshot::default());
    }

    /// PMU robustness: arbitrary interleavings of out-of-order snapshot
    /// syncs, freeze/unfreeze flips, counter resets and counter writes never
    /// produce an underflowed (near-wraparound) count, freezes really stop
    /// the counters, and resets really zero them.
    #[test]
    fn pmu_counters_never_underflow(
        ops in proptest::collection::vec(
            (0u8..6, 0u64..10_000, any::<bool>()), 1..80),
    ) {
        let mut p = Pmu::new(Mmcr0 {
            pmc1: PmcEvent::Cycles,
            pmc2: PmcEvent::TlbMissBoth,
            ..Mmcr0::default()
        });
        // Upper bound on legitimate counting: every sync delta is capped by
        // the snapshot's own field values, so the counters can never exceed
        // the sum of everything ever presented. An underflow bug would blow
        // straight past this (u32::MAX-ish jumps).
        let mut budget = [0u64; 2];
        for &(op, v, sup) in &ops {
            match op {
                0 | 1 => {
                    // Out-of-order windows on purpose: v is not monotonic.
                    let mut s = MonitorSnapshot { cycles: v, ..Default::default() };
                    s.itlb.misses = v / 2;
                    s.dtlb.misses = v / 3;
                    let before = [p.read_pmc(0), p.read_pmc(1)];
                    let frozen = p.mmcr0.frozen(sup);
                    p.sync(&s, sup);
                    if frozen {
                        prop_assert_eq!(before[0], p.read_pmc(0), "frozen PMC1 moved");
                        prop_assert_eq!(before[1], p.read_pmc(1), "frozen PMC2 moved");
                    }
                    budget[0] += v;
                    budget[1] += v / 2 + v / 3;
                }
                2 => p.mmcr0.freeze = !p.mmcr0.freeze,
                3 => p.mmcr0.freeze_supervisor = !p.mmcr0.freeze_supervisor,
                4 => {
                    p.reset_counters();
                    prop_assert_eq!(p.read_pmc(0), 0);
                    prop_assert_eq!(p.read_pmc(1), 0);
                    budget = [0, 0];
                }
                _ => {
                    let x = (v % 1024) as u32;
                    p.write_pmc(0, x);
                    prop_assert_eq!(p.read_pmc(0), x);
                    budget[0] = u64::from(x);
                }
            }
            for (i, &cap) in budget.iter().enumerate() {
                prop_assert!(
                    u64::from(p.read_pmc(i)) <= cap,
                    "PMC{} = {} exceeds every event ever presented ({})",
                    i + 1, p.read_pmc(i), cap
                );
            }
        }
    }

    /// Determinism: the same injector seed produces bit-identical statistics
    /// and cycle counts across two runs of the same workload.
    #[test]
    fn same_seed_is_bit_identical(seed in any::<u64>()) {
        let run = |seed: u64| {
            let mut cfg = KernelConfig::optimized();
            cfg.fault_injection = Some(kernel_sim::FaultInjection::heavy(seed));
            let mut k = Kernel::boot(MachineConfig::ppc604_133(), cfg);
            let pid = k.spawn_process(8).unwrap();
            k.switch_to(pid);
            for i in 0..24u32 {
                let _ = k.user_write(USER_BASE + (i % 12) * PAGE_SIZE, 8);
                if i % 5 == 0 && k.current.is_some() {
                    let _ = k.sys_fork();
                }
                if k.current.is_none() {
                    break;
                }
            }
            (k.stats, k.machine.cycles)
        };
        prop_assert_eq!(run(seed), run(seed));
    }
}

proptest! {
    /// The tail-exemplar reservoir is deterministic under tied latencies:
    /// replaying the same offer sequence reproduces it exactly, and the
    /// retained set matches the specification — top-N by latency
    /// descending, completion cycle then capture sequence breaking ties,
    /// so the earliest captures survive.
    #[test]
    fn tail_reservoir_is_deterministic_under_ties(
        offers in proptest::collection::vec((0u64..6, 0usize..3), 1..80),
        top_n in 1usize..6,
    ) {
        use kernel_sim::tail::{TailConfig, TailState};
        use kernel_sim::telemetry::MmuReadings;
        use kernel_sim::trace::LatencyPath;
        use kernel_sim::KernelStats;
        use ppc_mmu::HtabStats;

        let cfg = TailConfig { threshold: Some(1), top_n, window: 4 };
        let run = || {
            let mut tl = TailState::new(cfg);
            for (i, (lat, p)) in offers.iter().enumerate() {
                tl.offer(
                    LatencyPath::ALL[*p],
                    *lat,
                    // Repeat each cycle stamp twice so cycle ties happen
                    // and the sequence number must break them.
                    100 + (i as u64 / 2),
                    1,
                    Vec::new(),
                    Vec::new(),
                    MmuReadings::default(),
                    &KernelStats::default(),
                    &HtabStats::default(),
                );
            }
            tl
        };
        let a = run();
        let b = run();
        for (pi, path) in LatencyPath::ALL.iter().enumerate() {
            prop_assert_eq!(a.exemplars(*path), b.exemplars(*path));
            // Brute-force the specification ordering over every offer.
            let mut expect: Vec<(u64, u64, u64)> = offers
                .iter()
                .enumerate()
                .filter(|(_, (_, p))| *p == pi)
                .map(|(i, (lat, _))| (*lat, 100 + (i as u64 / 2), i as u64))
                .collect();
            expect.sort_by(|x, y| {
                y.0.cmp(&x.0).then(x.1.cmp(&y.1)).then(x.2.cmp(&y.2))
            });
            expect.truncate(top_n);
            let got: Vec<(u64, u64, u64)> = a
                .exemplars(*path)
                .iter()
                .map(|e| (e.latency, e.cycle, e.seq))
                .collect();
            prop_assert_eq!(got, expect, "path {:?}", path);
        }
    }
}

proptest! {
    /// The causal-profiling identity guarantee, fuzzed: *any* all-1/1
    /// [`CausalConfig`] — every ratio num == den, values arbitrary — must
    /// be cycle- and counter-identical to a plain `causal: None` run, on
    /// every sampled kernel configuration. The workload is kept small
    /// (each case boots two kernels); the fixed-ratio identity matrix over
    /// full workloads lives in the kernel-sim unit tests.
    #[test]
    fn random_all_one_causal_is_cycle_identical(
        subs in proptest::collection::vec(
            1u32..1001,
            kernel_sim::prof::NUM_SUBSYSTEMS..kernel_sim::prof::NUM_SUBSYSTEMS + 1,
        ),
        paths in proptest::collection::vec(
            1u32..1001,
            kernel_sim::causal::NUM_PATHS..kernel_sim::causal::NUM_PATHS + 1,
        ),
        optimized in any::<bool>(),
    ) {
        use kernel_sim::causal::{CausalConfig, Ratio};

        let mut causal = CausalConfig::identity();
        for (i, &d) in subs.iter().enumerate() {
            causal.subsystem[i] = Ratio { num: d, den: d };
        }
        for (i, &d) in paths.iter().enumerate() {
            causal.path[i] = Ratio { num: d, den: d };
        }
        let run = |causal: Option<CausalConfig>| {
            let mut cfg = if optimized {
                KernelConfig::optimized()
            } else {
                KernelConfig::unoptimized()
            };
            cfg.causal = causal;
            let mut k = Kernel::boot(MachineConfig::ppc604_185(), cfg);
            let pid = k.spawn_process(8).expect("spawn");
            k.switch_to(pid);
            let base = k.sys_mmap(None, 8 * PAGE_SIZE);
            for i in 0..8 {
                k.user_write(base + i * PAGE_SIZE, 64).expect("mapped");
            }
            k.run_idle(10_000);
            k.sys_munmap(base, 8 * PAGE_SIZE);
            k.sys_null();
            (k.machine.cycles, k.stats)
        };
        let plain = run(None);
        let ident = run(Some(causal));
        prop_assert_eq!(plain, ident, "all-1/1 must be invisible");
    }
}
