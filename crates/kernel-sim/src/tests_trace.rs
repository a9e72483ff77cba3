//! Integration tests for the observability layer: zero-overhead guarantee,
//! attribution accounting, span balance, and event capture on a real
//! workload.

use ppc_machine::MachineConfig;
use ppc_mmu::addr::PAGE_SIZE;

use crate::kconfig::KernelConfig;
use crate::kernel::Kernel;
use crate::prof::{Path, Subsystem};
use crate::sched::USER_BASE;
use crate::tests_observers::{assert_invisible, workload, TELEMETRY, TRACE};
use crate::trace::TraceEvent;

/// A traced run of the shared observer workload.
fn run() -> Kernel {
    let mut cfg = KernelConfig::optimized();
    cfg.trace = true;
    let mut k = Kernel::boot(MachineConfig::ppc604_185(), cfg);
    workload(&mut k);
    k
}

#[test]
fn tracing_is_cycle_identical_to_disabled() {
    let cfg = KernelConfig::optimized();
    assert_invisible(MachineConfig::ppc604_185(), cfg, TRACE);
}

#[test]
fn attribution_sums_to_total_cycles() {
    let mut k = run();
    assert!(k.spans().is_empty(), "all spans must be balanced at rest");
    let now = k.machine.cycles;
    let t = k.tracer.as_mut().unwrap();
    t.prof.finish(now);
    assert_eq!(
        t.prof.total(),
        now - t.prof.window_start(),
        "every charged cycle lands in exactly one bucket"
    );
    // The workload ran real kernel work in the major subsystems.
    for s in [
        Subsystem::Translate,
        Subsystem::HtabInsert,
        Subsystem::PageFault,
        Subsystem::Flush,
        Subsystem::Sched,
        Subsystem::Syscall,
        Subsystem::Signal,
        Subsystem::Idle,
        Subsystem::Exec,
    ] {
        assert!(t.prof.self_cycles(s) > 0, "no cycles attributed to {s:?}");
    }
}

#[test]
fn ring_captures_the_workloads_events() {
    let k = run();
    let t = k.tracer.as_ref().unwrap();
    assert!(!t.ring.is_empty());
    let has = |pred: &dyn Fn(&TraceEvent) -> bool| t.ring.iter().any(|r| pred(&r.event));
    assert!(has(&|e| matches!(e, TraceEvent::TlbMiss { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::HtabInsert { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::PageFault { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::CowFault { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::CtxSwitch { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::Signal { .. })));
    assert!(has(&|e| matches!(e, TraceEvent::Syscall)));
    assert!(has(&|e| matches!(e, TraceEvent::Idle { .. })));
    // Cycle stamps are monotone oldest -> newest.
    let stamps: Vec<u64> = t.ring.iter().map(|r| r.cycle).collect();
    assert!(stamps.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn latency_histograms_cover_all_three_paths() {
    let k = run();
    let t = k.tracer.as_ref().unwrap();
    // The workload runs flush spans, yet only the sampled paths record.
    assert!(t.prof.self_cycles(Subsystem::Flush) > 0);
    for path in Path::ALL {
        let h = t.latency(path);
        if !Path::SAMPLED.contains(&path) {
            assert_eq!(h.count(), 0, "{path:?} is not sampled");
            continue;
        }
        assert!(h.count() > 0, "no samples for {path:?}");
        let (p50, p90, p99) = h.percentiles();
        assert!(
            p50 > 0 && p50 <= p90 && p90 <= p99,
            "{path:?}: {p50}/{p90}/{p99}"
        );
        assert!(p99 <= h.max());
    }
}

#[test]
fn pteg_heatmap_matches_ring_inserts() {
    let k = run();
    let t = k.tracer.as_ref().unwrap();
    let total: u32 = t.pteg_inserts.iter().sum();
    let collisions: u32 = t.pteg_collisions.iter().sum();
    assert!(total > 0, "workload must insert PTEs");
    assert!(collisions <= total);
    // The heatmap counts every insert, including those whose ring records
    // were overwritten.
    let ring_inserts = t
        .ring
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::HtabInsert { .. }))
        .count() as u64;
    assert!(u64::from(total) >= ring_inserts);
    assert_eq!(t.pteg_inserts.len(), crate::layout::HTAB_GROUPS as usize);
}

#[test]
fn fatal_signal_paths_keep_the_span_stack_balanced() {
    let mut cfg = KernelConfig::optimized();
    cfg.trace = true;
    let mut k = Kernel::boot(MachineConfig::ppc604_185(), cfg);
    let pid = k.spawn_process(4).unwrap();
    k.switch_to(pid);
    k.user_write(USER_BASE, PAGE_SIZE).unwrap();
    let count = |k: &Kernel, p| k.tracer.as_ref().unwrap().latency(p).count();
    let before = [Path::PageFault, Path::SignalDelivery].map(|p| count(&k, p));
    // SIGSEGV: the page-fault span unwinds through the error return.
    k.user_write(0x6000_0000, 4).unwrap_err();
    assert_eq!(k.stats.sigsegvs, 1);
    assert!(k.spans().is_empty(), "spans must unwind on fatal signals");
    // Both spans closed through the error and each took its sample.
    let after = [Path::PageFault, Path::SignalDelivery].map(|p| count(&k, p));
    assert_eq!(after, before.map(|n| n + 1));
    let now = k.machine.cycles;
    let t = k.tracer.as_mut().unwrap();
    t.prof.finish(now);
    assert_eq!(t.prof.total(), now - t.prof.window_start());
    assert!(t
        .ring
        .iter()
        .any(|r| matches!(r.event, TraceEvent::Signal { fatal: true })));
}

#[test]
fn a_span_samples_only_the_sampled_path_it_roots() {
    let mut cfg = KernelConfig::optimized();
    cfg.trace = true;
    let mut k = Kernel::boot(MachineConfig::ppc604_185(), cfg);
    let counts = |k: &Kernel| Path::ALL.map(|p| k.tracer.as_ref().unwrap().latency(p).count());
    for s in Subsystem::ALL {
        let mut expect = counts(&k);
        // Flush roots Path::Flush, which is not sampled.
        let sampled = match s {
            Subsystem::Translate => Some(Path::TlbReload),
            Subsystem::PageFault => Some(Path::PageFault),
            Subsystem::Signal => Some(Path::SignalDelivery),
            _ => None,
        };
        if let Some(p) = sampled {
            expect[p as usize] += 1;
        }
        k.span(s, |_| ());
        assert_eq!(counts(&k), expect, "{s:?}");
    }
    assert_eq!(Path::of_span_root(Subsystem::Flush), Some(Path::Flush));
    assert!(k.spans().is_empty());
}

#[test]
fn telemetry_is_cycle_identical_to_disabled() {
    let cfg = KernelConfig::optimized();
    let k = assert_invisible(MachineConfig::ppc604_185(), cfg, TELEMETRY);
    let t = k.telemetry.as_ref().unwrap();
    assert!(t.epochs.len() >= 4, "tight epochs must yield a real series");
}

#[test]
fn telemetry_never_evicts_trace_events() {
    // The sampler stores samples in its own buffer, so the ring sees the
    // trace-only run's exact event stream: same pushes, drops and records.
    let cfg = KernelConfig::optimized();
    assert_invisible(MachineConfig::ppc604_185(), cfg, TRACE | TELEMETRY);
}

#[test]
fn telemetry_series_track_mmu_state() {
    // Tight epochs, so the workload crosses many boundaries.
    let mut cfg = KernelConfig::optimized();
    cfg.telemetry = Some(crate::telemetry::TelemetryConfig::with_epoch(10_000));
    let mut k = Kernel::boot(MachineConfig::ppc604_185(), cfg);
    workload(&mut k);
    k.telemetry_finish();
    let t = k.telemetry.as_ref().unwrap();
    // Sample cycles strictly increase; epoch indices never go backwards
    // (the final tail sample may share the last boundary's epoch).
    for w in t.epochs.windows(2) {
        assert!(w[1].epoch >= w[0].epoch);
        assert!(w[1].cycle > w[0].cycle);
    }
    for e in &t.epochs {
        assert_eq!(e.zombie_ptes, e.htab_valid - e.htab_live);
        assert!(e.htab_hit_ppm <= 1_000_000);
    }
    // The workload faults real pages: occupancy and reloads must show up.
    assert!(t.epochs.iter().any(|e| e.htab_valid > 0));
    assert!(t.epochs.iter().any(|e| e.tlb_reloads > 0));
    // The kernel runs with BATs on: kernel text never competes for TLB
    // entries, so kernel-side residency stays at zero while user pages fill.
    assert!(t.epochs.iter().any(|e| e.tlb_user > 0));
    // Window deltas must sum to the run totals (the final sample closes the
    // tail of the series).
    let reloads: u64 = t.epochs.iter().map(|e| e.tlb_reloads).sum();
    assert_eq!(reloads, k.stats.tlb_reloads);
    let hits: u64 = t.epochs.iter().map(|e| e.htab_hits).sum();
    assert_eq!(hits, k.stats.htab_hits);
}
