//! Integration tests for causal what-if profiling (DESIGN.md §15): the
//! identity guarantee (`causal = None` ≡ all-1/1) over a sample of kernel
//! configurations, and the scaling semantics on a real workload.

use ppc_machine::MachineConfig;

use crate::causal::{CausalConfig, Ratio};
use crate::kconfig::{KernelConfig, PmuConfig};
use crate::kernel::Kernel;
use crate::prof::{Path, Subsystem};
use crate::tests_observers::{assert_invisible, workload, CAUSAL};
use crate::tune::MmtuneConfig;

fn run(machine: MachineConfig, mut cfg: KernelConfig, causal: Option<CausalConfig>) -> Kernel {
    cfg.causal = causal;
    let mut k = Kernel::boot(machine, cfg);
    workload(&mut k);
    k
}

#[test]
fn all_one_causal_is_cycle_and_counter_identical_across_matrix_sample() {
    // Both presets, both processor families, plus the observability stack
    // (tracing + sampling PMU + mmtune), whose own identity guarantees a
    // buggy causal layer would break.
    let mut instrumented = KernelConfig::optimized();
    instrumented.trace = true;
    instrumented.pmu = Some(PmuConfig::sampling(4096));
    instrumented.mmtune = Some(MmtuneConfig::default());
    for (machine, cfg) in [
        (MachineConfig::ppc604_185(), KernelConfig::unoptimized()),
        (MachineConfig::ppc604_185(), KernelConfig::optimized()),
        (MachineConfig::ppc603_133(), KernelConfig::optimized()),
        (MachineConfig::ppc604_185(), instrumented),
    ] {
        assert_invisible(machine, cfg, CAUSAL);
    }
}

#[test]
fn zeroing_everything_freezes_the_clock_but_not_the_state() {
    let zero = CausalConfig {
        subsystem: [Ratio::ZERO; crate::prof::NUM_SUBSYSTEMS],
        path: [Ratio::ZERO; crate::prof::NUM_PATHS],
    };
    let cfg = KernelConfig::optimized();
    let k = run(MachineConfig::ppc604_185(), cfg, Some(zero));
    // Every *charge* scales to zero, but the workload's run_idle(40_000)
    // models an I/O stall, and Machine::wait bypasses the causal scale — a
    // virtual speedup cannot make a device answer sooner. With all work
    // free, exactly the stall remains on the clock.
    assert_eq!(
        k.machine.cycles, 40_000,
        "all work free; only the I/O wait remains"
    );
    let plain = run(MachineConfig::ppc604_185(), cfg, None);
    // The run still *happened*: same faults, reloads, switches — causal
    // scaling touches the clock, never the state evolution.
    assert_eq!(k.stats.page_faults, plain.stats.page_faults);
    assert_eq!(k.stats.tlb_reloads, plain.stats.tlb_reloads);
    assert_eq!(k.stats.ctx_switches, plain.stats.ctx_switches);
}

#[test]
fn scaled_run_is_deterministic() {
    let causal = CausalConfig::identity()
        .scale_path(Path::TlbReload, Ratio { num: 1, den: 2 })
        .scale_subsystem(Subsystem::Sched, Ratio { num: 3, den: 4 });
    let cfg = KernelConfig::optimized();
    let a = run(MachineConfig::ppc604_185(), cfg, Some(causal));
    let b = run(MachineConfig::ppc604_185(), cfg, Some(causal));
    assert_eq!(a.machine.cycles, b.machine.cycles);
    assert_eq!(a.stats, b.stats);
}

#[test]
fn speeding_up_a_hot_path_speeds_up_the_run_monotonically() {
    let cfg = KernelConfig::unoptimized();
    let cycles_at = |f: u32| {
        let causal = CausalConfig::identity().scale_path(Path::TlbReload, Ratio::speedup_pct(f));
        run(MachineConfig::ppc604_185(), cfg, Some(causal))
            .machine
            .cycles
    };
    let c0 = cycles_at(0);
    let c25 = cycles_at(25);
    let c75 = cycles_at(75);
    let c100 = cycles_at(100);
    assert_eq!(
        c0,
        run(MachineConfig::ppc604_185(), cfg, None).machine.cycles,
        "0% speedup is the identity"
    );
    assert!(c25 < c0, "25% faster reloads must shorten the run");
    assert!(c75 < c25);
    assert!(c100 < c75, "free reloads are the lower bound");
    assert!(c100 > 0, "but only the reload extent got cheaper");
}

#[test]
fn subsystem_self_time_scaling_affects_only_that_bucket() {
    // Zero the Flush subsystem's self-time; the profiler (running in the
    // same kernel) must observe a Flush bucket of ~0 self cycles while
    // other buckets keep charging.
    let mut cfg = KernelConfig::optimized();
    cfg.trace = true;
    let causal = CausalConfig::identity().scale_subsystem(Subsystem::Flush, Ratio::ZERO);
    let mut k = run(MachineConfig::ppc604_185(), cfg, Some(causal));
    let now = k.machine.cycles;
    let t = k.tracer.as_mut().unwrap();
    t.prof.finish(now);
    assert_eq!(
        t.prof.self_cycles(Subsystem::Flush),
        0,
        "flush self-time was virtually zeroed"
    );
    assert!(t.prof.self_cycles(Subsystem::Translate) > 0);
    assert!(t.prof.self_cycles(Subsystem::Sched) > 0);
}

#[test]
fn causal_state_is_exposed_and_balanced_at_rest() {
    let causal = CausalConfig::identity();
    let k = run(
        MachineConfig::ppc604_185(),
        KernelConfig::optimized(),
        Some(causal),
    );
    let st = k.causal.as_ref().expect("causal state installed");
    assert!(k.spans().is_empty());
    assert_eq!(st.scale(Subsystem::User), (1, 1), "identity folds to 1/1");
    assert_eq!(k.machine.scale(), (1, 1));
}
