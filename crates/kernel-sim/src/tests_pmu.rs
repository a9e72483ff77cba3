//! Integration tests for the PMU sampling layer: counting agrees with the
//! hardware monitor, sampling charges its cost, sampled attribution tracks
//! the exact profiler, and the configurable trace ring keeps newest-N.

use ppc_machine::pmu::PmcEvent;
use ppc_machine::MachineConfig;
use ppc_mmu::addr::PAGE_SIZE;

use crate::kconfig::{KernelConfig, PmuConfig};
use crate::kernel::Kernel;
use crate::prof::Subsystem;
use crate::sched::USER_BASE;
use crate::trace::TraceEvent;
use crate::tune::MmtuneConfig;

/// A workload exercising faults, reloads, signals, fork/COW, mmap and idle.
fn workload(k: &mut Kernel) {
    let a = k.spawn_process(16).unwrap();
    let b = k.spawn_process(8).unwrap();
    k.switch_to(a);
    k.user_write(USER_BASE, 8 * PAGE_SIZE).unwrap();
    k.sys_signal_install();
    k.signal_roundtrip(USER_BASE).unwrap();
    let child = k.sys_fork().unwrap();
    k.switch_to(child);
    k.user_write(USER_BASE, 2 * PAGE_SIZE).unwrap();
    k.exit_current();
    k.switch_to(b);
    k.user_read(USER_BASE, 4 * PAGE_SIZE).unwrap();
    let m = k.sys_mmap(None, 32 * PAGE_SIZE);
    k.prefault(m, 32).unwrap();
    k.sys_munmap(m, 32 * PAGE_SIZE);
    k.run_idle(40_000);
    k.sys_null();
}

fn run(cfg: KernelConfig) -> Kernel {
    let mut k = Kernel::boot(MachineConfig::ppc604_185(), cfg);
    workload(&mut k);
    k.pmu_finish();
    k
}

#[test]
fn no_pmu_and_counting_pmu_are_cycle_identical() {
    let off = run(KernelConfig::optimized());
    let mut cfg = KernelConfig::optimized();
    cfg.pmu = Some(PmuConfig::counting(
        PmcEvent::TlbMissBoth,
        PmcEvent::CacheMissBoth,
    ));
    let on = run(cfg);
    assert_eq!(
        on.machine.cycles, off.machine.cycles,
        "counting never perturbs the run"
    );
    let mut stats_off = off.stats;
    let mut stats_on = on.stats;
    stats_off.pmu_interrupts = 0;
    stats_on.pmu_interrupts = 0;
    assert_eq!(stats_on, stats_off);
    assert_eq!(on.stats.pmu_interrupts, 0, "no interrupts without sampling");
}

#[test]
fn counting_pmcs_agree_with_the_hardware_monitor() {
    let mut cfg = KernelConfig::optimized();
    cfg.pmu = Some(PmuConfig::counting(
        PmcEvent::TlbMissBoth,
        PmcEvent::DcacheMiss,
    ));
    let k = run(cfg);
    let snap = k.machine.snapshot();
    let hw = k.machine.pmu.as_ref().unwrap();
    assert_eq!(u64::from(hw.read_pmc(0)), snap.tlb_misses());
    assert_eq!(u64::from(hw.read_pmc(1)), snap.dcache.misses);
    assert!(snap.tlb_misses() > 0, "workload must miss the TLB");
}

#[test]
fn sampling_charges_interrupt_cost_and_collects_samples() {
    let base = run(KernelConfig::optimized());
    let mut cfg = KernelConfig::optimized();
    cfg.pmu = Some(PmuConfig::sampling(4096));
    let sampled = run(cfg);
    assert!(
        sampled.machine.cycles > base.machine.cycles,
        "sampling interrupts must cost cycles"
    );
    assert!(sampled.stats.pmu_interrupts > 0);
    let st = sampled.pmu.as_ref().unwrap();
    assert_eq!(st.interrupts, sampled.stats.pmu_interrupts);
    assert!(!st.samples.is_empty());
    assert!(st.total_weight() >= st.interrupts, "weights are >= 1 each");
    // The weighted sample total approximates elapsed cycles / period.
    let approx_cycles = st.total_weight() * 4096;
    assert!(
        approx_cycles <= sampled.machine.cycles,
        "cannot observe more periods than elapsed"
    );
    assert!(
        approx_cycles * 2 > sampled.machine.cycles,
        "should observe at least half the elapsed periods"
    );
    // Folded stacks and per-pid views carry the same weight total.
    assert_eq!(st.folded.values().sum::<u64>(), st.total_weight());
    assert_eq!(st.by_pid.values().sum::<u64>(), st.total_weight());
    assert_eq!(st.supervisor_weight + st.user_weight, st.total_weight());
}

#[test]
fn sampled_attribution_tracks_the_exact_profiler() {
    // Second case: a hair-trigger mmtune controller, so retunes (and their
    // hash-table rehashes) run inside the sampled window.
    let eager = MmtuneConfig {
        epoch_cycles: 1 << 12,
        min_tlb_misses: 1,
        ..MmtuneConfig::default()
    };
    for mmtune in [None, Some(eager)] {
        let mut cfg = KernelConfig::optimized();
        cfg.trace = true;
        cfg.pmu = Some(PmuConfig::sampling(512));
        cfg.mmtune = mmtune;
        let mut k = run(cfg);
        let now = k.machine.cycles;
        let t = k.tracer.as_mut().unwrap();
        t.prof.finish(now);
        // Exact shares excluding the Pmu bucket (the sampler never samples
        // its own frozen handler windows).
        let exact_total: u64 = Subsystem::ALL
            .iter()
            .filter(|s| **s != Subsystem::Pmu)
            .map(|s| t.prof.self_cycles(*s))
            .sum();
        let st = k.pmu.as_ref().unwrap();
        let sampled_total = st.total_weight();
        assert!(sampled_total > 0 && exact_total > 0);
        for s in Subsystem::ALL {
            if s == Subsystem::Pmu {
                assert_eq!(st.by_subsystem[s as usize], 0, "handler never sampled");
                continue;
            }
            let exact_ppm = t.prof.self_cycles(s) * 1_000_000 / exact_total;
            let sampled_ppm = st.by_subsystem[s as usize] * 1_000_000 / sampled_total;
            let err = exact_ppm.abs_diff(sampled_ppm);
            // 5% absolute-share tolerance at a 512-cycle period (E-PMU
            // tightens this into a convergence curve).
            assert!(
                err < 50_000,
                "{} (mmtune {}): exact {exact_ppm} ppm vs sampled {sampled_ppm} ppm",
                s.name(),
                mmtune.is_some()
            );
        }
        if mmtune.is_some() {
            assert!(k.stats.mmtune_htab_resizes > 0, "no rehash fired");
            assert!(t.prof.self_cycles(Subsystem::Mmtune) > 0);
            assert!(
                st.by_subsystem[Subsystem::Mmtune as usize] > 0,
                "retune cycles were never sampled as mmtune"
            );
        }
    }
}

#[test]
fn sampling_emits_ring_events_when_traced() {
    let mut cfg = KernelConfig::optimized();
    cfg.trace = true;
    cfg.pmu = Some(PmuConfig::sampling(8192));
    let k = run(cfg);
    let t = k.tracer.as_ref().unwrap();
    assert!(t
        .ring
        .iter()
        .any(|r| matches!(r.event, TraceEvent::PmuSample { .. })));
    // The Pmu bucket carries exactly the handler cost of each interrupt.
    assert!(t.prof.self_cycles(Subsystem::Pmu) > 0);
}

#[test]
fn tiny_ring_keeps_correct_newest_n() {
    let mut cfg = KernelConfig::optimized();
    cfg.trace = true;
    cfg.trace_ring_capacity = 4;
    let k = run(cfg);
    let t = k.tracer.as_ref().unwrap();
    assert_eq!(t.ring.len(), 4, "ring clamps to the configured capacity");
    assert!(t.ring.dropped() > 0, "this workload overflows 4 slots");
    assert_eq!(
        t.ring.total_pushed(),
        t.ring.dropped() + 4,
        "push/drop accounting balances"
    );
    let stamps: Vec<u64> = t.ring.iter().map(|r| r.cycle).collect();
    assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "oldest -> newest");
    // Newest-N: everything kept postdates (or ties) everything dropped, so
    // the oldest kept record must stamp no earlier than the same workload's
    // 5th-from-last event in a big ring.
    let mut big = KernelConfig::optimized();
    big.trace = true;
    let kb = run(big);
    let all: Vec<u64> = kb
        .tracer
        .as_ref()
        .unwrap()
        .ring
        .iter()
        .map(|r| r.cycle)
        .collect();
    assert_eq!(&all[all.len() - 4..], &stamps[..], "exactly the newest 4");
}

#[test]
fn threshold_counter_sees_slow_paths_only() {
    let mut cfg = KernelConfig::optimized();
    let mut pc = PmuConfig::counting(PmcEvent::ThresholdExceeded, PmcEvent::None);
    pc.threshold = 200;
    cfg.pmu = Some(pc);
    let k = run(cfg);
    let over_200 = u64::from(k.machine.pmu.as_ref().unwrap().read_pmc(0));

    let mut pc_hi = PmuConfig::counting(PmcEvent::ThresholdExceeded, PmcEvent::None);
    pc_hi.threshold = 100_000;
    let mut cfg_hi = KernelConfig::optimized();
    cfg_hi.pmu = Some(pc_hi);
    let k_hi = run(cfg_hi);
    let over_100k = u64::from(k_hi.machine.pmu.as_ref().unwrap().read_pmc(0));

    assert!(over_200 > 0, "some instrumented paths exceed 200 cycles");
    assert!(
        over_100k < over_200,
        "raising the threshold must filter events ({over_100k} !< {over_200})"
    );
}
