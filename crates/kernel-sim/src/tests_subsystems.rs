//! Direct unit tests for the kernel subsystems (scheduler, syscalls, pipes,
//! files, idle duties, flush policies).

use ppc_machine::MachineConfig;
use ppc_mmu::addr::{EffectiveAddress, PAGE_SIZE};

use crate::inject::FaultInjection;
use crate::kconfig::{KernelConfig, PageClearing};
use crate::kernel::Kernel;
use crate::sched::USER_BASE;
use crate::task::TaskState;
use crate::tune::MmtuneConfig;

fn kernel() -> Kernel {
    Kernel::boot(MachineConfig::ppc604_185(), KernelConfig::optimized())
}

fn kernel_with_proc(ws: u32) -> Kernel {
    let mut k = kernel();
    let pid = k.spawn_process(ws).unwrap();
    k.switch_to(pid);
    k
}

// --- scheduler ---

#[test]
fn yield_rotates_round_robin() {
    let mut k = kernel();
    let a = k.spawn_process(4).unwrap();
    let b = k.spawn_process(4).unwrap();
    let c = k.spawn_process(4).unwrap();
    k.switch_to(a);
    // a yielded: b runs, then c, then a again.
    k.yield_next();
    assert_eq!(k.cur().pid, b);
    k.yield_next();
    assert_eq!(k.cur().pid, c);
    k.yield_next();
    assert_eq!(k.cur().pid, a);
}

#[test]
fn block_and_wake_cycle() {
    let mut k = kernel();
    let a = k.spawn_process(4).unwrap();
    let b = k.spawn_process(4).unwrap();
    k.switch_to(a);
    let a_idx = k.task_idx(a).unwrap();
    k.block_current();
    assert_eq!(k.cur().pid, b);
    assert_eq!(k.tasks[a_idx].state, TaskState::Blocked);
    k.wake(a_idx);
    assert_eq!(k.tasks[a_idx].state, TaskState::Runnable);
    k.yield_next();
    assert_eq!(k.cur().pid, a);
}

#[test]
fn switch_to_self_is_free() {
    let mut k = kernel_with_proc(4);
    let pid = k.cur().pid;
    let switches = k.stats.ctx_switches;
    let cycles = k.machine.cycles;
    k.switch_to(pid);
    assert_eq!(k.stats.ctx_switches, switches);
    assert_eq!(k.machine.cycles, cycles);
}

#[test]
fn exit_returns_page_table_pages() {
    let mut k = kernel();
    // Exhaust-and-recycle: many process generations must not run the
    // page-table pool dry.
    for _ in 0..120 {
        let pid = k.spawn_process(8).unwrap();
        k.switch_to(pid);
        k.prefault(USER_BASE, 8).unwrap();
        k.exit_current();
    }
    assert_eq!(k.stats.processes_spawned, 120);
}

#[test]
fn dead_tasks_are_not_scheduled() {
    let mut k = kernel();
    let a = k.spawn_process(4).unwrap();
    let b = k.spawn_process(4).unwrap();
    k.switch_to(a);
    k.exit_current();
    assert_eq!(
        k.cur().pid,
        b,
        "exit falls through to the next runnable task"
    );
    assert!(k.task_idx(a).is_none(), "dead pid no longer resolvable");
}

// --- syscalls ---

#[test]
fn null_syscall_counts_and_charges() {
    let mut k = kernel_with_proc(4);
    let c0 = k.machine.cycles;
    k.sys_null();
    assert_eq!(k.stats.syscalls, 1);
    assert!(k.machine.cycles > c0);
}

#[test]
fn mmap_places_nonoverlapping_regions() {
    let mut k = kernel_with_proc(4);
    let a = k.sys_mmap(None, 16 * PAGE_SIZE);
    let b = k.sys_mmap(None, 16 * PAGE_SIZE);
    assert!(b >= a + 16 * PAGE_SIZE, "regions must not overlap");
    // Both are usable.
    k.data_ref(EffectiveAddress(a), true).unwrap();
    k.data_ref(EffectiveAddress(b + 15 * PAGE_SIZE), true)
        .unwrap();
}

#[test]
fn munmap_frees_anonymous_frames() {
    let mut k = kernel_with_proc(4);
    let free0 = k.frames.free_frames();
    let a = k.sys_mmap(None, 32 * PAGE_SIZE);
    k.prefault(a, 32).unwrap();
    assert!(k.frames.free_frames() <= free0 - 32);
    k.sys_munmap(a, 32 * PAGE_SIZE);
    assert!(
        k.frames.free_frames() >= free0 - 2,
        "anonymous frames must be returned on munmap"
    );
}

#[test]
#[should_panic(expected = "page-aligned")]
fn mmap_rejects_unaligned_length() {
    let mut k = kernel_with_proc(4);
    k.sys_mmap(None, 100);
}

// --- pipes ---

#[test]
fn pipe_preserves_byte_accounting_through_wraparound() {
    let mut k = kernel_with_proc(8);
    k.prefault(USER_BASE, 8).unwrap();
    let p = k.pipe_create().unwrap();
    // Transfers that wrap the ring several times.
    for len in [100u32, 4096, 5000, 1, 8000] {
        k.pipe_write(p, USER_BASE, len.min(PAGE_SIZE)).unwrap();
        k.pipe_read(p, USER_BASE, len.min(PAGE_SIZE)).unwrap();
        assert_eq!(k.pipes[p].len, 0, "ring drained after symmetric read");
    }
}

#[test]
fn pipe_transfer_moves_everything() {
    let mut k = kernel();
    let w = k.spawn_process(32).unwrap();
    let r = k.spawn_process(32).unwrap();
    for &pid in &[w, r] {
        k.switch_to(pid);
        k.prefault(USER_BASE, 16).unwrap();
    }
    let p = k.pipe_create().unwrap();
    k.pipe_transfer(p, w, r, USER_BASE, USER_BASE, 64 * 1024)
        .unwrap();
    assert_eq!(k.pipes[p].total_bytes, 64 * 1024);
    assert!(k.stats.ctx_switches > 16, "one switch per ring fill/drain");
}

#[test]
fn microkernel_double_copy_costs_more() {
    let mut paths = crate::kernel::PathLengths::tuned();
    let run = |paths: crate::kernel::PathLengths| {
        let mut k = Kernel::boot_with_paths(
            MachineConfig::ppc604_185(),
            KernelConfig::optimized(),
            paths,
        );
        let pid = k.spawn_process(8).unwrap();
        k.switch_to(pid);
        k.prefault(USER_BASE, 4).unwrap();
        let p = k.pipe_create().unwrap();
        let c0 = k.machine.cycles;
        k.pipe_write(p, USER_BASE, PAGE_SIZE).unwrap();
        k.machine.cycles - c0
    };
    let single = run(paths);
    paths.pipe_copies = 2;
    let double = run(paths);
    assert!(
        double > single,
        "double copy ({double}) must cost more ({single})"
    );
}

// --- files ---

#[test]
fn file_pages_are_stable_across_reads() {
    let mut k = kernel_with_proc(32);
    k.prefault(USER_BASE, 16).unwrap();
    let f = k.create_file(128 * 1024).unwrap();
    let pages: Vec<_> = k.files[f].pages.clone();
    k.sys_read(f, 0, USER_BASE, 64 * 1024).unwrap();
    k.sys_read(f, 64 * 1024, USER_BASE, 64 * 1024).unwrap();
    assert_eq!(
        k.files[f].pages, pages,
        "page cache must not churn on reads"
    );
}

#[test]
fn file_mmap_shares_page_cache_frames() {
    let mut k = kernel_with_proc(8);
    let f = k.create_file(16 * PAGE_SIZE).unwrap();
    let addr = k.sys_mmap(Some(f), 16 * PAGE_SIZE);
    k.prefault(addr, 16).unwrap();
    // No anonymous frames were consumed for the file pages.
    let pte = k.cur().pt.walk(&k.phys, EffectiveAddress(addr)).pte;
    assert_eq!(
        pte.expect("mapped page").pfn() << 12,
        k.files[f].pages[0].expect("resident cache page"),
        "mapping points at the cache page"
    );
}

#[test]
fn file_read_truncates_at_eof() {
    let mut k = kernel_with_proc(8);
    k.prefault(USER_BASE, 4).unwrap();
    let f = k.create_file(PAGE_SIZE).unwrap();
    let n = k.sys_read(f, 0, USER_BASE, 3 * PAGE_SIZE).unwrap();
    assert_eq!(n, PAGE_SIZE, "read() returns the bytes before EOF");
}

#[test]
fn file_mapping_past_eof_delivers_sigbus() {
    use crate::errors::{KernelError, Signal};
    let mut k = kernel_with_proc(8);
    let f = k.create_file(PAGE_SIZE).unwrap();
    let addr = k.sys_mmap(Some(f), 4 * PAGE_SIZE);
    k.user_read(addr, PAGE_SIZE).unwrap(); // in-bounds page is fine
    let err = k.user_read(addr + PAGE_SIZE, 4).unwrap_err();
    assert_eq!(
        err,
        KernelError::Fatal {
            signal: Signal::Bus,
            ea: addr + PAGE_SIZE
        }
    );
    assert_eq!(k.stats.sigbus, 1);
    assert!(k.current.is_none(), "the faulting task died");
}

// --- idle duties ---

#[test]
fn idle_consumes_at_least_the_budget() {
    let mut k = kernel_with_proc(4);
    let c0 = k.machine.cycles;
    k.run_idle(50_000);
    let spent = k.machine.cycles - c0;
    assert!(spent >= 50_000);
    assert!(spent < 70_000, "bounded overshoot (got {spent})");
    assert_eq!(k.stats.idle_cycles, spent);
}

#[test]
fn idle_clearing_stops_when_nothing_to_clear() {
    let kcfg = KernelConfig {
        page_clearing: PageClearing::IdleUncached,
        ..KernelConfig::optimized()
    };
    let mut k = Kernel::boot(MachineConfig::ppc604_185(), kcfg);
    let pid = k.spawn_process(4).unwrap();
    k.switch_to(pid);
    // Clear the entire free pool.
    while k.frames.free_frames() > k.frames.precleared_frames() {
        k.run_idle(200_000);
    }
    let cleared = k.stats.idle_pages_cleared;
    k.run_idle(100_000);
    assert_eq!(
        k.stats.idle_pages_cleared, cleared,
        "no frames left to clear"
    );
}

#[test]
fn reclaim_scan_sleeps_without_retirements() {
    let mut k = kernel_with_proc(16);
    k.prefault(USER_BASE, 16).unwrap();
    k.run_idle(200_000);
    let scanned0 = k.stats.idle_groups_scanned;
    assert_eq!(scanned0, 0, "no context retired yet: nothing to scan");
    // Retire a context; the scan gets exactly one sweep of credit.
    let addr = k.sys_mmap(None, 64 * PAGE_SIZE);
    k.sys_munmap(addr, 64 * PAGE_SIZE);
    k.run_idle(8_000_000);
    let scanned1 = k.stats.idle_groups_scanned;
    assert!(scanned1 > 0);
    assert!(scanned1 <= crate::layout::HTAB_GROUPS as u64 + 8);
    k.run_idle(2_000_000);
    assert_eq!(k.stats.idle_groups_scanned, scanned1, "credit exhausted");
}

// --- flush policies ---

#[test]
fn flush_context_eager_scans_whole_table() {
    let kcfg = KernelConfig::unoptimized();
    let mut k = Kernel::boot(MachineConfig::ppc604_133(), kcfg);
    let pid = k.spawn_process(16).unwrap();
    k.switch_to(pid);
    k.prefault(USER_BASE, 16).unwrap();
    assert!(k.htab.valid_entries() >= 16);
    let idx = k.task_idx(pid).unwrap();
    k.flush_context(idx);
    assert_eq!(
        k.htab
            .live_entries(|v| k.vsids.is_live(v) && !crate::vsid::is_kernel_vsid(v)),
        0,
        "eager context flush physically invalidates the task's entries"
    );
    assert_eq!(
        k.machine.mmu.tlb_valid_entries(),
        0,
        "eager flush empties the TLBs"
    );
}

#[test]
fn lazy_context_flush_leaves_zombies_resident() {
    let mut k = kernel_with_proc(16);
    k.prefault(USER_BASE, 16).unwrap();
    let valid_before = k.htab.valid_entries();
    let idx = k.current.unwrap();
    k.flush_context(idx);
    assert_eq!(
        k.htab.valid_entries(),
        valid_before,
        "lazy flush touches nothing"
    );
    assert!(k.htab.live_entries(|v| k.vsids.is_live(v)) < valid_before);
}

#[test]
fn user_vsid_matches_segment_registers() {
    let k = kernel_with_proc(4);
    let idx = k.current.unwrap();
    for sr in 0..12 {
        let ea = EffectiveAddress((sr as u32) << 28);
        assert_eq!(k.user_vsid(idx, ea), k.machine.mmu.segments.get(sr));
    }
}

// --- hash-table live-entry count ---

/// The live-entry count the VSID allocator keeps, against a walk of the
/// table.
fn assert_live_count(k: &Kernel, step: &str) {
    let walked = k.htab.live_entries(|v| k.vsids.is_live(v));
    assert_eq!(k.vsids.live_entries(), walked, "after {step}");
}

#[test]
fn live_entry_count_equals_the_table_walk_after_every_step() {
    // Context-counter VSIDs, lazy flushes, a 16-PTEG table: 128 slots, so
    // one working set overflows it.
    let cfg = KernelConfig::optimized();
    let mut k = Kernel::boot_with_htab_groups(MachineConfig::ppc604_185(), cfg, 16);
    let a = k.spawn_process(256).unwrap();
    k.switch_to(a);
    let a_idx = k.task_idx(a).unwrap();
    k.user_write(USER_BASE, PAGE_SIZE).unwrap();
    assert_eq!(k.htab.stats().inserts, 1);
    assert_live_count(&k, "an insert");
    k.user_write(USER_BASE, 256 * PAGE_SIZE).unwrap();
    assert!(k.stats.evict_live > 0);
    assert_live_count(&k, "displacing live entries");
    k.flush_one_page(a_idx, EffectiveAddress(USER_BASE + 255 * PAGE_SIZE));
    assert_live_count(&k, "a per-page flush");
    // Context 1 retires; its entries are zombies now.
    let ctx1 = k.tasks[a_idx].vsids;
    let sr = EffectiveAddress(USER_BASE).sr_index();
    k.flush_context(a_idx);
    assert!(!k.vsids.is_live(ctx1[sr]));
    assert_live_count(&k, "a retire under the context counter");
    // Scatter constant 299 gives context 3 context 1's VSIDs, and with them
    // the zombies it left in the table.
    k.vsids.set_scatter_constant(299);
    let b = k.spawn_process(256).unwrap();
    let b_idx = k.task_idx(b).unwrap();
    assert_eq!(k.tasks[b_idx].vsids, ctx1);
    assert!(k.htab.entries().any(|(_, _, p)| p.vsid == ctx1[sr]));
    assert_live_count(&k, "a scatter retune that reuses a retired VSID");
    // Task a fills the table under context 2 and retires it; its next
    // context writes over the zombies.
    k.user_write(USER_BASE, 256 * PAGE_SIZE).unwrap();
    k.flush_context(a_idx);
    k.user_write(USER_BASE, 256 * PAGE_SIZE).unwrap();
    assert!(k.stats.evict_zombie > 0);
    assert_live_count(&k, "displacing zombies");
    k.flush_context(a_idx);
    k.run_idle(400_000);
    assert!(k.htab.stats().zombies_reclaimed > 0);
    assert_live_count(&k, "idle reclaim");

    // PID-derived VSIDs and eager flushes (kernel entries in the table
    // too: no BATs), with a hair-trigger mmtune that grows the table.
    let cfg = KernelConfig {
        mmtune: Some(MmtuneConfig {
            epoch_cycles: 1 << 12,
            min_groups: 16,
            max_groups: 64,
            min_tlb_misses: 1,
            bat_reload_threshold: u64::MAX,
            scatter_target: 16,
            ..MmtuneConfig::default()
        }),
        ..KernelConfig::unoptimized()
    };
    let mut k = Kernel::boot_with_htab_groups(MachineConfig::ppc604_185(), cfg, 16);
    let a = k.spawn_process(256).unwrap();
    k.switch_to(a);
    let a_idx = k.task_idx(a).unwrap();
    k.user_write(USER_BASE, 64 * PAGE_SIZE).unwrap();
    let vsid = k.user_vsid(a_idx, EffectiveAddress(USER_BASE));
    let vsids = k.tasks[a_idx].vsids;
    assert!(k.htab.entries().any(|(_, _, p)| p.vsid == vsid));
    k.flush_context(a_idx);
    assert_eq!(k.tasks[a_idx].vsids, vsids, "the same VSIDs come back");
    assert!(!k.htab.entries().any(|(_, _, p)| p.vsid == vsid));
    assert_live_count(&k, "an eager context flush under PID-derived VSIDs");
    for _ in 0..64 {
        if k.stats.mmtune_htab_resizes > 0 {
            break;
        }
        k.user_write(USER_BASE, 256 * PAGE_SIZE).unwrap();
    }
    assert!(k.stats.mmtune_htab_resizes > 0, "no resize fired");
    assert_live_count(&k, "a resize");

    // Injected reload faults invalidate the entries they are about to
    // reload: 512 pages cycle through the 604's 256 TLB entries, so every
    // page touch reloads from the table, and one lookup in eight faults.
    let cfg = KernelConfig {
        fault_injection: Some(FaultInjection {
            alloc_fail_per_64k: 0,
            htab_overflow_per_64k: 0,
            tlb_fault_per_64k: 8192,
            ..FaultInjection::light(7)
        }),
        ..KernelConfig::optimized()
    };
    let mut k = Kernel::boot(MachineConfig::ppc604_185(), cfg);
    let a = k.spawn_process(512).unwrap();
    k.switch_to(a);
    k.prefault(USER_BASE, 512).unwrap();
    let misses = k.stats.htab_misses;
    k.user_read(USER_BASE, 512 * PAGE_SIZE).unwrap();
    assert!(k.stats.htab_misses > misses, "no reload was faulted");
    assert_live_count(&k, "injected reload faults");
}
