//! Edge-case tests: boundary values of the paper's tunables, policy
//! interactions, and failure injection.

use ppc_machine::MachineConfig;
use ppc_mmu::addr::{EffectiveAddress, PAGE_SIZE};

use crate::kconfig::{KernelConfig, PageClearing, VsidPolicy};
use crate::kernel::Kernel;
use crate::sched::USER_BASE;

fn boot(kcfg: KernelConfig) -> Kernel {
    let mut k = Kernel::boot(MachineConfig::ppc604_185(), kcfg);
    let pid = k.spawn_process(64).unwrap();
    k.switch_to(pid);
    k
}

/// The frame the current task's page tables map the page at `ea` to.
fn frame_of(k: &Kernel, ea: u32) -> u32 {
    let pte = k.cur().pt.walk(&k.phys, EffectiveAddress(ea)).pte;
    pte.expect("mapped page").pfn() << 12
}

#[test]
fn flush_cutoff_boundary_is_strict() {
    // `pages > cutoff` bumps; `pages == cutoff` flushes per page.
    let mut k = boot(KernelConfig {
        flush_cutoff_pages: Some(20),
        ..KernelConfig::optimized()
    });
    let addr = k.sys_mmap(None, 20 * PAGE_SIZE);
    k.prefault(addr, 20).unwrap();
    let bumps = k.stats.context_bumps;
    k.sys_munmap(addr, 20 * PAGE_SIZE);
    assert_eq!(
        k.stats.context_bumps, bumps,
        "exactly-at-cutoff flushes per page"
    );
    assert_eq!(k.stats.flushed_pages, 20);
    let addr = k.sys_mmap(None, 21 * PAGE_SIZE);
    k.prefault(addr, 21).unwrap();
    k.sys_munmap(addr, 21 * PAGE_SIZE);
    assert_eq!(
        k.stats.context_bumps,
        bumps + 1,
        "one past the cutoff bumps"
    );
}

#[test]
fn cutoff_of_one_bumps_for_everything_bigger() {
    let mut k = boot(KernelConfig {
        flush_cutoff_pages: Some(1),
        ..KernelConfig::optimized()
    });
    let addr = k.sys_mmap(None, 2 * PAGE_SIZE);
    k.sys_munmap(addr, 2 * PAGE_SIZE);
    assert_eq!(k.stats.context_bumps, 1);
    assert_eq!(k.stats.flushed_pages, 0);
}

#[test]
fn zero_length_user_access_is_free() {
    let mut k = boot(KernelConfig::optimized());
    let c0 = k.machine.cycles;
    let cost = k.user_read(USER_BASE, 0).unwrap();
    assert_eq!(cost, 0);
    assert_eq!(k.machine.cycles, c0);
}

#[test]
fn one_byte_pipe_write_costs_a_full_line_copy() {
    let mut k = boot(KernelConfig::optimized());
    k.prefault(USER_BASE, 1).unwrap();
    let p = k.pipe_create().unwrap();
    k.pipe_write(p, USER_BASE, 1).unwrap();
    assert_eq!(k.pipes[p].len, 1);
    k.pipe_read(p, USER_BASE, 1).unwrap();
    assert_eq!(k.pipes[p].len, 0);
}

#[test]
fn pipe_exact_capacity_fits_without_blocking() {
    let mut k = boot(KernelConfig::optimized());
    k.prefault(USER_BASE, 1).unwrap();
    let p = k.pipe_create().unwrap();
    k.pipe_write(p, USER_BASE, PAGE_SIZE).unwrap();
    assert_eq!(k.pipes[p].len, PAGE_SIZE);
    k.pipe_read(p, USER_BASE, PAGE_SIZE).unwrap();
}

#[test]
fn vsid_wraparound_keeps_contexts_distinct() {
    // Drive the context counter through many allocations; translations must
    // stay consistent (VSIDs are 24-bit and wrap via masking).
    let kcfg = KernelConfig {
        vsid_policy: VsidPolicy::ContextCounter {
            constant: 0x3f_ffff,
        },
        ..KernelConfig::optimized()
    };
    let mut k = Kernel::boot(MachineConfig::ppc604_185(), kcfg);
    for _ in 0..32 {
        let pid = k.spawn_process(2).unwrap();
        k.switch_to(pid);
        k.user_write(USER_BASE, PAGE_SIZE).unwrap();
        k.exit_current();
    }
    assert_eq!(k.stats.segfaults, 0);
}

#[test]
fn stack_grows_from_its_own_vma() {
    let mut k = boot(KernelConfig::optimized());
    // Stack pages are demand-zero from the stack VMA.
    k.data_ref(EffectiveAddress(crate::sched::STACK_BASE), true).unwrap();
    k.data_ref(
        EffectiveAddress(crate::sched::STACK_BASE + (crate::sched::STACK_PAGES - 1) * PAGE_SIZE),
        true,
    )
    .unwrap();
    assert_eq!(k.stats.page_faults, 2);
}

#[test]
fn mmap_between_existing_regions_never_overlaps_stack() {
    let mut k = boot(KernelConfig::optimized());
    // Map until close to the stack; allocations must stay below it.
    for _ in 0..6 {
        let addr = k.sys_mmap(None, 1024 * PAGE_SIZE);
        assert!(addr + 1024 * PAGE_SIZE <= crate::sched::STACK_BASE);
    }
}

#[test]
fn idle_zero_budget_is_a_noop() {
    let mut k = boot(KernelConfig::optimized());
    let c0 = k.machine.cycles;
    k.run_idle(0);
    assert_eq!(k.machine.cycles, c0);
}

#[test]
fn page_clearing_policies_preserve_zeroing_semantics() {
    // Whatever the policy, a fresh demand-zero page must read as zero.
    for policy in [
        PageClearing::OnDemand,
        PageClearing::IdleCached,
        PageClearing::IdleUncachedNoList,
        PageClearing::IdleUncached,
    ] {
        let kcfg = KernelConfig {
            page_clearing: policy,
            ..KernelConfig::optimized()
        };
        let mut k = Kernel::boot(MachineConfig::ppc604_185(), kcfg);
        let pid = k.spawn_process(4).unwrap();
        k.switch_to(pid);
        k.run_idle(100_000);
        // Dirty a frame, free it, reallocate it.
        let addr = k.sys_mmap(None, PAGE_SIZE);
        k.data_ref(EffectiveAddress(addr), true).unwrap();
        let pa = frame_of(&k, addr);
        k.phys.write_u32(pa, 0xdead_beef);
        k.sys_munmap(addr, PAGE_SIZE);
        k.run_idle(200_000);
        let addr2 = k.sys_mmap(None, PAGE_SIZE);
        k.data_ref(EffectiveAddress(addr2), false).unwrap();
        let pa2 = frame_of(&k, addr2);
        assert_eq!(
            k.phys.read_u32(pa2),
            0,
            "{policy:?}: demand-zero page must actually be zero"
        );
    }
}

#[test]
fn kernel_survives_heavy_fragmentation() {
    // Interleave many map/unmap cycles of varied sizes; the allocator and
    // page tables must stay consistent throughout.
    let mut k = boot(KernelConfig::optimized());
    let mut live: Vec<(u32, u32)> = Vec::new();
    for i in 0..60u32 {
        let pages = 1 + (i * 7) % 40;
        let addr = k.sys_mmap(None, pages * PAGE_SIZE);
        k.prefault(addr, pages.min(8)).unwrap();
        live.push((addr, pages));
        if i % 3 == 2 {
            let (a, p) = live.remove((i as usize * 5) % live.len());
            k.sys_munmap(a, p * PAGE_SIZE);
        }
    }
    for (a, p) in live {
        k.sys_munmap(a, p * PAGE_SIZE);
    }
    assert_eq!(k.stats.segfaults, 0);
}

#[test]
fn sixteen_generations_of_fork_chain() {
    let mut k = boot(KernelConfig::optimized());
    k.prefault(USER_BASE, 8).unwrap();
    // Each child forks the next, then everyone exits in reverse.
    let mut chain = vec![k.cur().pid];
    for _ in 0..16 {
        let child = k.sys_fork().expect("fork chain");
        k.switch_to(child);
        chain.push(child);
    }
    // The deepest child writes everything (COW storm through 16 sharers).
    k.user_write(USER_BASE, 8 * PAGE_SIZE).unwrap();
    while chain.len() > 1 {
        let pid = chain.pop().unwrap();
        k.switch_to(pid);
        k.exit_current();
    }
    assert_eq!(k.stats.segfaults, 0);
    assert!(k.stats.cow_faults >= 8);
}

#[test]
fn unoptimized_and_optimized_agree_on_semantics() {
    // The policies change costs, never results: the same workload leaves
    // the same architectural state.
    let run = |kcfg: KernelConfig| {
        let mut k = Kernel::boot(MachineConfig::ppc604_133(), kcfg);
        let pid = k.spawn_process(16).unwrap();
        k.switch_to(pid);
        k.prefault(USER_BASE, 16).unwrap();
        let addr = k.sys_mmap(None, 8 * PAGE_SIZE);
        k.user_write(addr, 8 * PAGE_SIZE).unwrap();
        k.sys_munmap(addr, 8 * PAGE_SIZE);
        let f = k.create_file(8 * PAGE_SIZE).unwrap();
        k.sys_read(f, 0, USER_BASE, 4 * PAGE_SIZE).unwrap();
        (
            k.stats.page_faults,
            k.stats.segfaults,
            k.frames.free_frames(),
        )
    };
    let a = run(KernelConfig::unoptimized());
    let b = run(KernelConfig::optimized());
    assert_eq!(a.0, b.0, "same faults");
    assert_eq!(a.1, 0);
    assert_eq!(b.1, 0);
    assert_eq!(a.2, b.2, "same frames free at the end");
}
