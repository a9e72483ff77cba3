//! Process lifecycle beyond spawn: `fork()` with copy-on-write, `exec()`,
//! `brk()`, and the protection-fault path that breaks COW sharing.
//!
//! The paper's process-start costs (Table 1's `pstart`, §7's dynamic-linker
//! remapping) rest on these paths: fork write-protects every anonymous page
//! in both parent and child (a flush-heavy operation — exactly the kind the
//! lazy VSID scheme accelerates), and the first store to a shared page takes
//! a protection fault, copies the frame, and remaps.

use ppc_mmu::addr::{EffectiveAddress, PhysAddr, PAGE_SIZE};

use crate::errors::{KResult, KernelError, Signal};
use crate::inject::InjectSite;
use crate::kernel::Kernel;
use crate::layout::KernelPath;
use crate::linuxpt::{LinuxPageTables, LinuxPte, PTE_COW, PTE_RW};
use crate::prof::Subsystem;
use crate::task::{Pid, Task, VmaKind};
use crate::trace::TraceEvent;

impl Kernel {
    /// `fork()`: clones the current task. Anonymous pages are shared
    /// copy-on-write: both parent and child PTEs are downgraded to
    /// read-only+COW and the parent's stale writable translations are
    /// flushed (policy-dependent cost). Returns the child PID, or `ENOMEM`
    /// if out of page-table pages (the half-built child is rolled back; the
    /// parent keeps running).
    pub fn sys_fork(&mut self) -> KResult<Pid> {
        self.span(Subsystem::Exec, |k| {
            k.syscall_entry();
            let insns = k.paths.spawn / 2;
            k.run_kernel_path(KernelPath::Exec, insns);
            let parent_idx = k.current.expect("fork with no current task");
            let child_pid = k.alloc_pid();
            let child_pgd = match k.frames.get_pt_page() {
                Some(pgd) => pgd,
                None => {
                    k.syscall_exit();
                    return Err(KernelError::OutOfMemory);
                }
            };
            k.phys.zero_page(child_pgd);
            k.machine.zero_page_pa(child_pgd, true);
            let vsids = k.vsids.alloc_context(child_pid, &k.htab);
            k.check_note_sched_change();
            let mut child = Task::new(child_pid, vsids, LinuxPageTables::new(child_pgd));
            child.vmas = k.tasks[parent_idx].vmas.clone();
            // Share every anonymous frame copy-on-write.
            let parent_frames: Vec<(u32, PhysAddr)> = k.tasks[parent_idx].frames.clone();
            let parent_pt = k.tasks[parent_idx].pt;
            let cached = k.cfg.linux_pt_cached;
            let mut failed = false;
            for &(ea_raw, pa) in &parent_frames {
                let ea = EffectiveAddress(ea_raw);
                // Downgrade the parent PTE: read-only, COW.
                parent_pt.update_flags(&mut k.phys, ea, PTE_COW, PTE_RW);
                let c = k.machine.mem.data_write(
                    parent_pt
                        .walk(&k.phys, ea)
                        .pte_entry_pa
                        .expect("parent page mapped"),
                    cached,
                );
                k.machine.charge(c);
                // Map the same frame read-only in the child.
                let pte = LinuxPte::present(pa >> 12, PTE_COW);
                let frames = &mut k.frames;
                let walk = match child.pt.map(&mut k.phys, ea, pte, || frames.get_pt_page()) {
                    Some(w) => w,
                    None => {
                        failed = true;
                        break;
                    }
                };
                let c = k
                    .machine
                    .mem
                    .data_write(walk.pte_entry_pa.expect("map writes a PTE"), cached);
                k.machine.charge(c);
                child.frames.push((ea_raw, pa));
                *k.shared_frames.entry(pa).or_insert(1) += 1;
            }
            if failed {
                // Roll back: drop the child's share counts and page tables. The
                // leftover COW downgrades on the parent are harmless — its next
                // store upgrades the sole-owner page in place.
                for &(_, pa) in &child.frames {
                    k.release_user_frame(pa, false);
                }
                let mut freed = std::collections::HashSet::new();
                for vma in &child.vmas {
                    let mut ea = vma.start;
                    while ea < vma.end {
                        let entry = k.phys.read_u32(child.pt.pgd_entry_pa(EffectiveAddress(ea)));
                        if entry & crate::linuxpt::PTE_PRESENT != 0 && freed.insert(entry & !0xfff)
                        {
                            k.frames.free_pt_page(entry & !0xfff);
                        }
                        ea = ea.saturating_add(4 << 20);
                        if ea == 0 {
                            break;
                        }
                    }
                }
                k.frames.free_pt_page(child_pgd);
                k.flush_context(parent_idx);
                k.syscall_exit();
                return Err(KernelError::OutOfMemory);
            }
            // The parent's cached translations still say "writable": flush them.
            k.flush_context(parent_idx);
            let idx = k.tasks.len();
            k.tasks.push(child);
            k.run_queue.push_back(idx);
            k.check_note_sched_change();
            k.stats.processes_spawned += 1;
            k.syscall_exit();
            Ok(child_pid)
        })
    }

    /// `exec(binary, text_pages, heap_pages)`: replaces the current address
    /// space with a fresh image backed by `binary`'s page cache, plus an
    /// anonymous heap and stack. The old space is torn down with the
    /// configured flush policy — the §7 narrative's "doing an exec()" flush.
    pub fn sys_exec(&mut self, binary: usize, text_pages: u32, heap_pages: u32) -> KResult<()> {
        self.span(Subsystem::Exec, |k| {
            k.syscall_entry();
            let insns = k.paths.spawn;
            k.run_kernel_path(KernelPath::Exec, insns);
            let cur = k.current.expect("exec with no current task");
            // Tear down the old image.
            let vmas: Vec<(u32, u32)> =
                k.tasks[cur].vmas.iter().map(|v| (v.start, v.end)).collect();
            for (start, end) in &vmas {
                k.unmap_range(cur, *start, *end);
                k.flush_range(cur, *start, *end);
            }
            k.tasks[cur].vmas.clear();
            // Build the new one: file-backed text, anonymous heap, stack.
            let task = &mut k.tasks[cur];
            task.insert_vma(crate::task::Vma {
                start: crate::sched::USER_BASE,
                end: crate::sched::USER_BASE + text_pages * PAGE_SIZE,
                kind: VmaKind::File {
                    file: binary,
                    offset: 0,
                },
            });
            let heap_base = crate::sched::USER_BASE + text_pages * PAGE_SIZE;
            task.insert_vma(crate::task::Vma {
                start: heap_base,
                end: heap_base + heap_pages.max(1) * PAGE_SIZE,
                kind: VmaKind::Anon,
            });
            task.insert_vma(crate::task::Vma {
                start: crate::sched::STACK_BASE,
                end: crate::sched::STACK_BASE + crate::sched::STACK_PAGES * PAGE_SIZE,
                kind: VmaKind::Anon,
            });
            k.syscall_exit();
            Ok(())
        })
    }

    /// `brk()`: grows (or shrinks) the heap VMA — the second VMA of an
    /// exec'd image — to `new_pages`. Shrinking unmaps and flushes the
    /// abandoned tail. Growth past what physical memory could ever satisfy
    /// (no overcommit) fails with `ENOMEM` after a reclaim attempt, as does
    /// an injected allocation failure. Returns the new break address.
    ///
    /// # Panics
    ///
    /// Panics if the task has no heap VMA (never exec'd or spawned with one).
    pub fn sys_brk(&mut self, new_pages: u32) -> KResult<u32> {
        self.syscall_entry();
        let insns = self.paths.mm_op / 2;
        self.run_kernel_path(KernelPath::Mm, insns);
        let cur = self.current.expect("brk with no current task");
        let heap_idx = self.tasks[cur]
            .vmas
            .iter()
            .position(|v| matches!(v.kind, VmaKind::Anon) && v.start < crate::sched::STACK_BASE)
            .expect("no heap VMA");
        let heap = self.tasks[cur].vmas[heap_idx];
        let new_end = heap.start + new_pages.max(1) * PAGE_SIZE;
        if new_end > heap.end {
            // No overcommit: growth must be coverable by free frames, after
            // giving reclaim a chance to produce some.
            let growth = ((new_end - heap.end) / PAGE_SIZE) as usize;
            let mut denied = self.injected(InjectSite::AllocFail);
            while !denied && self.frames.free_frames() < growth {
                if self.memory_pressure_reclaim() == 0 {
                    denied = true;
                }
            }
            if denied {
                self.syscall_exit();
                return Err(KernelError::OutOfMemory);
            }
        }
        if new_end < heap.end {
            self.unmap_range(cur, new_end, heap.end);
            self.flush_range(cur, new_end, heap.end);
        }
        self.tasks[cur].vmas[heap_idx].end = new_end;
        self.syscall_exit();
        Ok(new_end)
    }

    /// Handles a store through a read-only translation. For a COW page this
    /// copies (or upgrades) the frame and remaps it writable; anything else
    /// — a store to file-backed text, say — is a genuine write-protection
    /// violation: SIGSEGV is delivered and the task dies.
    pub(crate) fn protection_fault(&mut self, ea: EffectiveAddress) -> KResult<()> {
        self.span(Subsystem::PageFault, |k| {
            let costs = k.machine.cfg.costs;
            k.machine.charge(costs.exception_entry);
            let insns = k.paths.fault_c;
            k.run_kernel_path(KernelPath::FaultHandler, insns);
            let cur = k.current.expect("protection fault with no current task");
            let page_ea = ea.page_base();
            let pt = k.tasks[cur].pt;
            let walk = pt.walk(&k.phys, page_ea);
            let pte = match walk.pte {
                Some(p) if p.is_cow() => p,
                _ => {
                    k.stats.segfaults += 1;
                    return Err(k.deliver_fatal_signal(Signal::Segv, ea.0));
                }
            };
            k.stats.cow_faults += 1;
            k.t_event(|| TraceEvent::CowFault { ea: ea.0 });
            let old_pa = pte.pfn() << 12;
            let shared = k.shared_frames.get(&old_pa).copied().unwrap_or(1);
            if shared > 1 {
                // Copy the frame for this task; the others keep the original.
                let new_pa = k.get_free_page_charged(false)?;
                k.machine.copy_pa(old_pa, new_pa, PAGE_SIZE);
                k.phys.copy_page(old_pa, new_pa);
                k.release_user_frame(old_pa, false);
                let task = &mut k.tasks[cur];
                if let Some(slot) = task.frames.iter_mut().find(|(a, _)| *a == page_ea.0) {
                    slot.1 = new_pa;
                } else {
                    task.frames.push((page_ea.0, new_pa));
                    k.check_note_sched_change();
                }
                k.map_user_page(cur, page_ea, new_pa)?;
            } else {
                // Sole owner left: upgrade in place.
                k.shared_frames.remove(&old_pa);
                pt.update_flags(&mut k.phys, page_ea, PTE_RW, PTE_COW);
                let c = k.machine.mem.data_write(
                    walk.pte_entry_pa.expect("COW page is mapped"),
                    k.cfg.linux_pt_cached,
                );
                k.machine.charge(c);
            }
            // The stale read-only translation must go.
            k.flush_one_page(cur, page_ea);
            k.machine.charge(costs.exception_exit);
            Ok(())
        })
    }

    /// Drops one reference to a user frame, freeing it when this was the
    /// last. `charge` selects whether allocator costs are billed (false
    /// inside paths that already charged).
    pub(crate) fn release_user_frame(&mut self, pa: PhysAddr, charge: bool) {
        match self.shared_frames.get_mut(&pa) {
            Some(count) if *count > 1 => {
                *count -= 1;
                if *count == 1 {
                    self.shared_frames.remove(&pa);
                }
                if charge {
                    self.machine.charge(4);
                }
            }
            _ => {
                self.shared_frames.remove(&pa);
                if charge {
                    self.free_page_charged(pa);
                } else {
                    self.frames.free_page(pa);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kconfig::KernelConfig;
    use crate::sched::USER_BASE;
    use ppc_machine::MachineConfig;

    fn kernel_with_proc() -> Kernel {
        let mut k = Kernel::boot(MachineConfig::ppc604_185(), KernelConfig::optimized());
        let pid = k.spawn_process(16).unwrap();
        k.switch_to(pid);
        k
    }

    #[test]
    fn fork_shares_frames_cow() {
        let mut k = kernel_with_proc();
        k.prefault(USER_BASE, 8).unwrap();
        let free_before = k.frames.free_frames();
        let child = k.sys_fork().unwrap();
        // No user frames copied at fork time (only page-table pages moved).
        assert_eq!(k.frames.free_frames(), free_before);
        let parent_idx = k.current.unwrap();
        let child_idx = k.task_idx(child).unwrap();
        assert_eq!(
            k.tasks[parent_idx].frames.len(),
            k.tasks[child_idx].frames.len()
        );
        for (p, c) in k.tasks[parent_idx]
            .frames
            .iter()
            .zip(&k.tasks[child_idx].frames)
        {
            assert_eq!(p, c, "parent and child share frames after fork");
        }
    }

    #[test]
    fn cow_write_copies_exactly_one_frame() {
        let mut k = kernel_with_proc();
        k.prefault(USER_BASE, 4).unwrap();
        let child = k.sys_fork().unwrap();
        let parent_pid = k.cur().pid;
        // Child writes one page: one new frame, parent's data untouched.
        k.switch_to(child);
        let free_before = k.frames.free_frames();
        k.data_ref(EffectiveAddress(USER_BASE), true).unwrap();
        assert_eq!(k.frames.free_frames(), free_before - 1);
        assert_eq!(k.stats.cow_faults, 1);
        let child_idx = k.task_idx(child).unwrap();
        let parent_idx = k.task_idx(parent_pid).unwrap();
        let child_pa = k.tasks[child_idx]
            .frames
            .iter()
            .find(|(a, _)| *a == USER_BASE)
            .unwrap()
            .1;
        let parent_pa = k.tasks[parent_idx]
            .frames
            .iter()
            .find(|(a, _)| *a == USER_BASE)
            .unwrap()
            .1;
        assert_ne!(child_pa, parent_pa, "child got a private copy");
        // The untouched pages are still shared.
        let child_pa2 = k.tasks[child_idx]
            .frames
            .iter()
            .find(|(a, _)| *a == USER_BASE + PAGE_SIZE)
            .unwrap()
            .1;
        let parent_pa2 = k.tasks[parent_idx]
            .frames
            .iter()
            .find(|(a, _)| *a == USER_BASE + PAGE_SIZE)
            .unwrap()
            .1;
        assert_eq!(child_pa2, parent_pa2);
    }

    #[test]
    fn parent_write_after_fork_also_breaks_cow() {
        let mut k = kernel_with_proc();
        k.prefault(USER_BASE, 2).unwrap();
        let _child = k.sys_fork().unwrap();
        let faults = k.stats.cow_faults;
        k.data_ref(EffectiveAddress(USER_BASE), true).unwrap();
        assert_eq!(
            k.stats.cow_faults,
            faults + 1,
            "parent store takes the COW fault"
        );
    }

    #[test]
    fn sole_owner_upgrade_allocates_nothing() {
        let mut k = kernel_with_proc();
        k.prefault(USER_BASE, 2).unwrap();
        let child = k.sys_fork().unwrap();
        // Child exits: parent is sole owner, pages still marked COW.
        k.switch_to(child);
        k.exit_current();
        let free_before = k.frames.free_frames();
        k.data_ref(EffectiveAddress(USER_BASE), true).unwrap();
        assert_eq!(
            k.frames.free_frames(),
            free_before,
            "upgrade in place, no copy"
        );
    }

    #[test]
    fn fork_exit_conserves_frames() {
        let mut k = kernel_with_proc();
        k.prefault(USER_BASE, 8).unwrap();
        let free0 = k.frames.free_frames();
        for _ in 0..5 {
            let child = k.sys_fork().unwrap();
            k.switch_to(child);
            // Child dirties half its pages, then dies.
            k.user_write(USER_BASE, 4 * PAGE_SIZE).unwrap();
            k.exit_current();
        }
        assert_eq!(k.frames.free_frames(), free0, "all child frames recycled");
        assert!(k.shared_frames.is_empty(), "no stale share counts");
    }

    #[test]
    fn exec_replaces_address_space() {
        let mut k = kernel_with_proc();
        k.prefault(USER_BASE, 8).unwrap();
        let bin = k.create_file(16 * PAGE_SIZE).unwrap();
        let free_mid = k.frames.free_frames();
        k.sys_exec(bin, 16, 4).unwrap();
        assert!(
            k.frames.free_frames() >= free_mid + 8,
            "old anon frames freed"
        );
        // New image is usable: text reads, heap writes.
        k.user_read(USER_BASE, 4 * PAGE_SIZE).unwrap();
        k.user_write(USER_BASE + 16 * PAGE_SIZE, PAGE_SIZE).unwrap();
        assert_eq!(k.stats.segfaults, 0);
    }

    #[test]
    fn brk_grows_and_shrinks_heap() {
        let mut k = kernel_with_proc();
        let bin = k.create_file(4 * PAGE_SIZE).unwrap();
        k.sys_exec(bin, 4, 2).unwrap();
        let heap_base = USER_BASE + 4 * PAGE_SIZE;
        let end = k.sys_brk(16).unwrap();
        assert_eq!(end, heap_base + 16 * PAGE_SIZE);
        k.user_write(heap_base, 16 * PAGE_SIZE).unwrap();
        let free_before = k.frames.free_frames();
        k.sys_brk(2).unwrap();
        assert!(
            k.frames.free_frames() >= free_before + 14,
            "shrink frees tail frames"
        );
    }

    #[test]
    fn write_to_file_text_delivers_sigsegv() {
        let mut k = kernel_with_proc();
        let bin = k.create_file(4 * PAGE_SIZE).unwrap();
        k.sys_exec(bin, 4, 1).unwrap();
        k.user_read(USER_BASE, PAGE_SIZE).unwrap(); // fault the text in, read-only
        let pid = k.cur().pid;
        // Stores to text trap: SIGSEGV, and the task is gone.
        let err = k.data_ref(EffectiveAddress(USER_BASE), true).unwrap_err();
        assert_eq!(
            err,
            crate::errors::KernelError::Fatal {
                signal: crate::errors::Signal::Segv,
                ea: USER_BASE,
            }
        );
        assert_eq!(k.stats.sigsegvs, 1);
        assert!(k.task_idx(pid).is_none(), "task torn down");
    }
}
