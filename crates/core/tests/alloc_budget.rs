//! Allocation budgets: the simulator's per-reference hot paths allocate
//! nothing, and whole workloads allocate exactly their pinned count.
//!
//! Host speed is measured by the repository benchmark (`perfbench`, see
//! `BENCHMARK.json`); this test guards the one thing a wall-clock figure
//! cannot pin: heap traffic. Allocation counts are deterministic (the
//! simulator is, and every removal-bearing sim-state map uses
//! `kernel_sim::fixed_hash`), so every budget is an exact `==`. A count that
//! rises is a new allocation on a simulated path; a count that falls is an
//! improvement — update the pin in the same change.
//!
//! The counting allocator below is this test binary's own
//! `#[global_allocator]`. It bumps a const-initialised thread-local, so a
//! test sees exactly the allocations of its own thread: tests running in
//! parallel cannot disturb each other, and no lock or arm/disarm step is
//! needed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use kernel_sim::check::CheckConfig;
use kernel_sim::sched::USER_BASE;
use kernel_sim::{PmuConfig, TailConfig, TelemetryConfig};
use mmu_tricks::chaos::{chaos_report, ChaosConfig};
use mmu_tricks::experiments::pressure::run_pressure;
use mmu_tricks::matrix::{paper_machines, paper_variants, run_matrix_on, WORKLOADS};
use mmu_tricks::{Depth, Kernel, KernelConfig, MachineConfig};
use ppc_machine::pmu::PmcEvent;
use ppc_mmu::addr::{EffectiveAddress, PAGE_SIZE};

thread_local! {
    // `const` init: reading it never allocates, so the allocator can use it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts every allocation, zeroed allocation and reallocation of the
/// calling thread, then delegates to [`System`].
struct CountingAlloc;

fn bump() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: pure delegation to `System`; the bookkeeping touches only a
// const-initialised, never-allocating thread-local.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// A booted kernel with one process whose 8-page working set is resident
/// and warm in the TLBs and both caches.
fn warmed() -> Kernel {
    let mut k = Kernel::boot(MachineConfig::ppc604_133(), KernelConfig::optimized());
    let pid = k.spawn_process(8).expect("room for one process");
    k.switch_to(pid);
    k.prefault(USER_BASE, 8).expect("prefault the working set");
    for line in 0..8 * PAGE_SIZE / 32 {
        let ea = EffectiveAddress(USER_BASE + line * 32);
        k.data_ref(ea, false).expect("resident load");
        k.exec_code(ea, 8).expect("resident fetch");
    }
    k
}

/// 10 000 loads, stores and straight-line fetches over the resident working
/// set. Three in four go to 64 hot lines (the all-hit fast path); the rest
/// stride the whole 32 KiB, which overflows the 604's 16 KiB L1s, so the
/// cache miss, fill and writeback tails run too.
fn reference_loop(k: &mut Kernel) -> u64 {
    let lines = 8 * PAGE_SIZE / 32;
    let mut cycles = 0;
    for i in 0..10_000u32 {
        let line = if i % 4 == 0 { i * 7 % lines } else { i % 64 };
        let ea = EffectiveAddress(USER_BASE + line * 32);
        cycles += k.data_ref(ea, i % 3 == 0).expect("resident reference");
        cycles += k.exec_code(ea, 8).expect("resident fetch");
    }
    cycles
}

#[test]
fn warmed_reference_paths_allocate_nothing() {
    let mut k = warmed();
    let before = k.machine.snapshot();
    let (cycles, allocs) = allocs_during(|| reference_loop(&mut k));
    let d = k.machine.snapshot().delta(&before);
    assert!(cycles > 0);
    assert!(d.dcache.misses > 0, "the loop must reach the miss tails");
    assert_eq!(allocs, 0, "data_ref/exec_code allocated on the host");
}

/// The paper's §4 kernel compile at quick depth on the optimized kernel.
fn compile() {
    let mut k = Kernel::boot(MachineConfig::ppc604_133(), KernelConfig::optimized());
    lmbench::compile::kernel_compile(&mut k, Depth::Quick.compile());
}

/// [`compile`] under the observer set of the benchmark's `compile_observed`
/// workload: trace, counting PMU, telemetry, checker and tail.
fn compile_observed() {
    let cfg = KernelConfig {
        trace: true,
        pmu: Some(PmuConfig::counting(
            PmcEvent::TlbMissBoth,
            PmcEvent::CacheMissBoth,
        )),
        telemetry: Some(TelemetryConfig::default_epochs()),
        check: Some(CheckConfig::full()),
        tail: Some(TailConfig::auto()),
        ..KernelConfig::optimized()
    };
    let mut k = Kernel::boot(MachineConfig::ppc604_133(), cfg);
    lmbench::compile::kernel_compile(&mut k, Depth::Quick.compile());
}

/// The E-PRESSURE fault storm (seed 42, ten RAM-outgrowing hogs).
fn fault_storm() {
    run_pressure(42, 10);
}

/// One matrix row: the 604/133 under all eight kernel configurations and
/// every matrix workload, at quick depth.
fn matrix_row() {
    let row: Vec<_> = paper_machines()
        .into_iter()
        .filter(|m| m.id == "604-133")
        .collect();
    run_matrix_on(&row, &paper_variants(), WORKLOADS, Depth::Quick);
}

/// One checked chaos run (oracle, invariants and fault injection armed).
fn chaos(seed: u64) {
    chaos_report(&ChaosConfig::checked(seed, 300)).expect("checked chaos runs clean");
}

/// Exact allocation counts, boot included, of four representative
/// workloads at quick depth (the checked chaos fleet one seed at a time).
/// Identical in debug and release builds.
#[test]
fn workload_allocation_budgets() {
    let budgets: [(&str, u64, &dyn Fn()); 8] = [
        ("compile", 89, &compile),
        ("observed", 172, &compile_observed),
        ("fault_storm", 152, &fault_storm),
        ("matrix_row", 2_861, &matrix_row),
        ("chaos seed 1", 1_300, &|| chaos(1)),
        ("chaos seed 2", 939, &|| chaos(2)),
        ("chaos seed 3", 1_164, &|| chaos(3)),
        ("chaos seed 4", 1_014, &|| chaos(4)),
    ];
    for (name, budget, run) in budgets {
        let ((), allocs) = allocs_during(run);
        assert_eq!(
            allocs, budget,
            "{name}: host allocation count moved (update the pin if it fell)"
        );
    }
}
