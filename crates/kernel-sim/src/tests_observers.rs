//! The observer identity check and the one workload every observer test
//! drives: any subset of the purely observational observers is invisible —
//! same cycles, same hardware monitors, same kernel counters, same trace
//! events — on any base configuration. The property test here draws random
//! subsets; each observer's test module pins its own fixed cases.

use ppc_machine::MachineConfig;
use ppc_mmu::addr::PAGE_SIZE;
use proptest::prelude::*;

use crate::causal::{CausalConfig, Ratio};
use crate::check::CheckConfig;
use crate::kconfig::{KernelConfig, PmuConfig};
use crate::kernel::Kernel;
use crate::prof::{NUM_PATHS, NUM_SUBSYSTEMS};
use crate::sched::USER_BASE;
use crate::tail::TailConfig;
use crate::telemetry::TelemetryConfig;
use crate::tune::MmtuneConfig;
use ppc_machine::pmu::PmcEvent;

/// Every instrumented path and every MM mutation the observers watch: demand
/// and copy-on-write faults, TLB reloads and hash-table inserts, exec, brk,
/// mmap/munmap flushes, caught signals, context switches and enough yields
/// to cross epoch boundaries, task exit, the idle task's reclaim and page
/// clearing, and syscalls.
pub(crate) fn workload(k: &mut Kernel) {
    let bin = k.create_file(4 * PAGE_SIZE).unwrap();
    let a = k.spawn_process(16).unwrap();
    let b = k.spawn_process(16).unwrap();
    k.switch_to(a);
    k.user_write(USER_BASE, 16 * PAGE_SIZE).unwrap();
    k.sys_signal_install();
    k.signal_roundtrip(USER_BASE).unwrap();
    let child = k.sys_fork().unwrap();
    // COW break in the parent, then in the child.
    k.user_write(USER_BASE, 8 * PAGE_SIZE).unwrap();
    k.switch_to(child);
    k.user_read(USER_BASE, 4 * PAGE_SIZE).unwrap();
    k.user_write(USER_BASE, 2 * PAGE_SIZE).unwrap();
    k.sys_exec(bin, 4, 8).unwrap();
    // Text is read-only after exec; the heap starts above it.
    k.user_read(USER_BASE, 4 * PAGE_SIZE).unwrap();
    k.user_write(USER_BASE + 4 * PAGE_SIZE, 4 * PAGE_SIZE)
        .unwrap();
    k.sys_brk(24).unwrap();
    k.user_write(USER_BASE + 16 * PAGE_SIZE, 8 * PAGE_SIZE)
        .unwrap();
    k.switch_to(b);
    k.user_read(USER_BASE, 4 * PAGE_SIZE).unwrap();
    k.user_write(USER_BASE, 16 * PAGE_SIZE).unwrap();
    let m = k.sys_mmap(None, 32 * PAGE_SIZE);
    k.user_write(m, 8 * PAGE_SIZE).unwrap();
    k.prefault(m, 32).unwrap();
    k.sys_munmap(m, 32 * PAGE_SIZE);
    k.signal_roundtrip(USER_BASE).unwrap();
    for _ in 0..64 {
        k.yield_next();
        k.sys_null();
        k.user_read(USER_BASE, PAGE_SIZE).unwrap();
    }
    k.switch_to(child);
    k.exit_current();
    k.run_idle(40_000);
    k.sys_null();
}

/// Boots `cfg` on `machine`, runs [`workload`] and closes every observer's
/// window. Every span must be closed at rest, armed observers or not.
fn run(machine: MachineConfig, cfg: KernelConfig) -> Kernel {
    let mut k = Kernel::boot(machine, cfg);
    workload(&mut k);
    k.pmu_finish();
    k.telemetry_finish();
    k.check_finish();
    assert!(
        k.spans().is_empty(),
        "unbalanced spans at rest: {:?}",
        k.spans()
    );
    k
}

/// One `n/n` ratio per subsystem and per causal path.
const RATIOS: usize = NUM_SUBSYSTEMS + NUM_PATHS;

/// The purely observational observers, one bit each of the `mask` that
/// [`check_invisible`] arms.
pub(crate) const TRACE: u32 = 1 << 0;
pub(crate) const COUNTING_PMU: u32 = 1 << 1;
pub(crate) const TELEMETRY: u32 = 1 << 2;
pub(crate) const CHECK: u32 = 1 << 3;
/// Tail capture reads the trace, so it arms [`TRACE`] too.
pub(crate) const TAIL: u32 = 1 << 4;
pub(crate) const CAUSAL: u32 = 1 << 5;
pub(crate) const DORMANT_MMTUNE: u32 = 1 << 6;

/// An mmtune controller that evaluates every epoch but can never fire on
/// `cfg`: thresholds no run reaches, and the scatter target already in
/// force.
fn dormant_mmtune(cfg: &KernelConfig) -> MmtuneConfig {
    MmtuneConfig {
        bat_reload_threshold: u64::MAX,
        min_tlb_misses: u64::MAX,
        scatter_target: cfg.vsid_policy.constant(),
        ..MmtuneConfig::default()
    }
}

/// Arms the observers in `mask` on top of `cfg` — telemetry at `epoch`
/// cycles, causal at `n/n` for each `n` of `ratios` (`1/1` past its end) —
/// and checks the armed run against `cfg` alone: the same cycles,
/// `MonitorSnapshot` and `KernelStats`, except `mmtune_epochs`, which a
/// dormant controller counts by design. A traced run records exactly the
/// trace-only run's events, and every armed observer did work. The counting
/// PMU and the dormant controller share their config slot with `cfg`; a
/// `cfg` that fills the slot drops the observer. Returns the armed kernel.
pub(crate) fn check_invisible(
    machine: MachineConfig,
    cfg: KernelConfig,
    mask: u32,
    epoch: u64,
    ratios: &[u32],
) -> Result<Kernel, TestCaseError> {
    let counting = mask & COUNTING_PMU != 0 && cfg.pmu.is_none();
    let dormant = mask & DORMANT_MMTUNE != 0 && cfg.mmtune.is_none();

    let mut armed = cfg;
    armed.trace |= mask & (TRACE | TAIL) != 0;
    if counting {
        let (tlb, cache) = (PmcEvent::TlbMissBoth, PmcEvent::CacheMissBoth);
        armed.pmu = Some(PmuConfig::counting(tlb, cache));
    }
    if mask & TELEMETRY != 0 {
        armed.telemetry = Some(TelemetryConfig::with_epoch(epoch));
    }
    if mask & CHECK != 0 {
        armed.check = Some(CheckConfig::full());
    }
    if mask & TAIL != 0 {
        armed.tail = Some(TailConfig::auto());
    }
    if mask & CAUSAL != 0 {
        let mut causal = CausalConfig::identity();
        let all = causal.subsystem.iter_mut().chain(causal.path.iter_mut());
        for (r, &n) in all.zip(ratios) {
            *r = Ratio { num: n, den: n };
        }
        armed.causal = Some(causal);
    }
    if dormant {
        armed.mmtune = Some(dormant_mmtune(&cfg));
    }

    let plain = run(machine, cfg);
    let k = run(machine, armed);
    prop_assert_eq!(k.machine.cycles, plain.machine.cycles, "cycles moved");
    prop_assert_eq!(
        k.machine.snapshot(),
        plain.machine.snapshot(),
        "monitors moved"
    );
    let mut stats = k.stats;
    if dormant {
        prop_assert!(stats.mmtune_epochs > 0, "dormant mmtune never evaluated");
        let fired = k.mmtune.as_ref().is_some_and(|m| !m.decisions.is_empty());
        prop_assert!(!fired, "dormant mmtune fired");
        stats.mmtune_epochs = plain.stats.mmtune_epochs;
    }
    prop_assert_eq!(stats, plain.stats, "kernel counters moved");

    if armed.trace {
        let trace_only;
        let reference = if cfg.trace {
            &plain
        } else {
            trace_only = run(machine, KernelConfig { trace: true, ..cfg });
            &trace_only
        };
        let (ring, want) = (
            &k.tracer.as_ref().expect("traced").ring,
            &reference.tracer.as_ref().expect("traced").ring,
        );
        prop_assert!(ring.total_pushed() > 0, "trace recorded nothing");
        prop_assert_eq!(
            ring.total_pushed(),
            want.total_pushed(),
            "event streams diverge"
        );
        prop_assert_eq!(ring.dropped(), want.dropped());
        prop_assert!(ring.iter().eq(want.iter()), "trace records differ");
    }
    if counting {
        let hw = k.machine.pmu.as_ref().expect("counting PMU");
        prop_assert!(hw.read_pmc(0) > 0, "counting PMU counted nothing");
    }
    if let Some(t) = k.telemetry.as_ref() {
        prop_assert!(!t.epochs.is_empty(), "telemetry sampled nothing");
    }
    if let Some(c) = k.check.as_ref() {
        let work = [c.checked_observations, c.invariant_passes, c.heavy_sweeps];
        prop_assert!(work.iter().all(|&n| n > 0), "checker idle: {:?}", work);
    }
    if let Some(tl) = k.tail.as_ref() {
        prop_assert!(tl.captured() > 0, "tail captured nothing");
    }
    if k.causal.is_some() {
        prop_assert_eq!(k.machine.scale(), (1, 1), "n/n causal must fold to 1/1");
    }
    Ok(k)
}

/// [`check_invisible`] with 10 000-cycle telemetry epochs and the identity
/// causal config, panicking on a failure.
pub(crate) fn assert_invisible(machine: MachineConfig, cfg: KernelConfig, mask: u32) -> Kernel {
    check_invisible(machine, cfg, mask, 10_000, &[]).unwrap_or_else(|e| panic!("{e}"))
}

proptest! {
    /// [`check_invisible`] for a random subset of {trace, counting PMU,
    /// telemetry at a random epoch, checker, tail (with trace), an
    /// all-`n/n` causal config, a dormant mmtune} on a random base {bare,
    /// sampling PMU, active mmtune} × machine {603-133, 604-185} × preset
    /// {unoptimized, optimized, extended}.
    #[test]
    fn observers_are_invisible(
        mask in 0u32..128,
        base in 0u8..3,
        machine in 0u8..2,
        preset in 0u8..3,
        epoch_shift in 10u32..17,
        ratios in proptest::collection::vec(1u32..1001, RATIOS..RATIOS + 1),
    ) {
        let machines = [MachineConfig::ppc603_133(), MachineConfig::ppc604_185()];
        let mut cfg = [
            KernelConfig::unoptimized(),
            KernelConfig::optimized(),
            KernelConfig::extended(),
        ][preset as usize];
        match base {
            0 => {}
            1 => cfg.pmu = Some(PmuConfig::sampling(4096)),
            _ => {
                cfg.mmtune = Some(MmtuneConfig {
                    epoch_cycles: 1 << 12,
                    min_tlb_misses: 1,
                    ..MmtuneConfig::default()
                })
            }
        }
        let epoch = 1u64 << epoch_shift;
        check_invisible(machines[machine as usize], cfg, mask, epoch, &ratios)?;
    }
}
