//! The page-fault path: demand-zero and file-backed population, plus the
//! memory-pressure path (page-cache eviction, zombie reclaim, OOM killer).

use ppc_mmu::addr::{EffectiveAddress, PhysAddr, PAGE_SIZE};

use crate::errors::{KResult, KernelError, Signal};
use crate::fs::PageCacheLookup;
use crate::inject::InjectSite;
use crate::kernel::Kernel;
use crate::layout::KernelPath;
use crate::linuxpt::{LinuxPte, PTE_RW};
use crate::prof::Subsystem;
use crate::task::VmaKind;
use crate::trace::TraceEvent;

/// PTEG groups swept per direct-reclaim round (four idle steps' worth —
/// direct reclaim is in a hurry).
const PRESSURE_RECLAIM_GROUPS: u32 = 32;

/// Clean page-cache pages evicted per direct-reclaim round.
const PRESSURE_EVICT_BATCH: usize = 8;

/// Modelled instruction counts for the reclaim machinery itself (LRU-list
/// walks and bookkeeping; the memory traffic is charged separately).
const RECLAIM_PASS_INSNS: u32 = 120;
const EVICT_PER_PAGE_INSNS: u32 = 40;

impl Kernel {
    /// Services a real page fault at `ea` (no translation anywhere).
    ///
    /// An access outside every VMA delivers SIGSEGV to the current task and
    /// an access through a file mapping past end of file delivers SIGBUS;
    /// both kill the task (see [`Kernel::deliver_fatal_signal`]) and return
    /// the corresponding [`KernelError::Fatal`]. Out of memory after
    /// reclaim either OOM-kills a victim or fails the fault.
    pub(crate) fn page_fault(&mut self, ea: EffectiveAddress) -> KResult<()> {
        self.t_event(|| TraceEvent::PageFault { ea: ea.0 });
        self.span(Subsystem::PageFault, |k| {
            k.stats.page_faults += 1;
            let costs = k.machine.cfg.costs;
            k.machine.charge(costs.exception_entry);
            // Page faults always run the C handler.
            let insns = k.paths.fault_c;
            k.run_kernel_path(KernelPath::FaultHandler, insns);
            // VMA lookup in the task struct.
            let cur = k.current.expect("page fault with no current task");
            let ts = k.tasks[cur].task_struct_pa();
            for i in 0..4 {
                k.kdata_ref(ts + 0x80 + i * 4, false);
            }
            // The VMA structure itself is slab-resident.
            let pid = k.tasks[cur].pid;
            k.kmeta_ref(0x4000 + pid * 17 + (ea.0 >> 24), false);
            let vma = match k.tasks[cur].find_vma(ea) {
                Some(v) => *v,
                None => {
                    k.stats.segfaults += 1;
                    return Err(k.deliver_fatal_signal(Signal::Segv, ea.0));
                }
            };
            let page_ea = ea.page_base();
            let (pa, writable) = match vma.kind {
                VmaKind::Anon => {
                    let pa = k.get_free_page_charged(true)?;
                    k.tasks[cur].frames.push((page_ea.0, pa));
                    k.check_note_sched_change();
                    (pa, true)
                }
                VmaKind::File { file, offset } => {
                    // Page-cache pages are mapped read-only (text and shared
                    // mappings); a store through one is a protection violation.
                    let file_off = offset + (page_ea.0 - vma.start);
                    let pa = match k.files[file].page_at(file_off) {
                        PageCacheLookup::Present(pa) => pa,
                        PageCacheLookup::Evicted => k.page_cache_fill(file, file_off)?,
                        PageCacheLookup::PastEof => {
                            return Err(k.deliver_fatal_signal(Signal::Bus, ea.0));
                        }
                    };
                    k.mem_map_ref(pa, false);
                    // Pin the frame: a mapped page-cache page is not evictable.
                    *k.file_map_refs.entry(pa).or_insert(0) += 1;
                    (pa, false)
                }
            };
            k.map_user_page_prot(cur, page_ea, pa, writable)?;
            k.machine.charge(costs.exception_exit);
            Ok(())
        })
    }

    /// Installs `pa` writable at `page_ea` in task `idx`'s page tables.
    pub(crate) fn map_user_page(
        &mut self,
        idx: usize,
        page_ea: EffectiveAddress,
        pa: PhysAddr,
    ) -> KResult<()> {
        self.map_user_page_prot(idx, page_ea, pa, true)
    }

    /// Installs `pa` at `page_ea` in task `idx`'s page tables, charging the
    /// page-table writes. Fails with `ENOMEM` when the page-table pool is
    /// exhausted and reclaim cannot refill it.
    pub(crate) fn map_user_page_prot(
        &mut self,
        idx: usize,
        page_ea: EffectiveAddress,
        pa: PhysAddr,
        writable: bool,
    ) -> KResult<()> {
        let pte = LinuxPte::present(pa >> 12, if writable { PTE_RW } else { 0 });
        let pt = self.tasks[idx].pt;
        let frames = &mut self.frames;
        let walk = pt
            .map(&mut self.phys, page_ea, pte, || frames.get_pt_page())
            .ok_or(KernelError::OutOfMemory)?;
        let cached = self.cfg.linux_pt_cached;
        let c1 = self.machine.mem.data_write(walk.pgd_entry_pa, cached);
        let c2 = self.machine.mem.data_write(
            walk.pte_entry_pa.expect("map always has a PTE slot"),
            cached,
        );
        self.machine.charge(c1 + c2);
        Ok(())
    }

    /// `get_free_page()`: takes a frame, consulting the pre-cleared list
    /// first (paper §9); clears on demand when needed. Charges all costs.
    ///
    /// When the free list is empty (or an injected allocation failure
    /// pretends it is), the memory-pressure path runs: sweep zombie PTEs,
    /// evict clean unmapped page-cache pages, and — when reclaim frees
    /// nothing — OOM-kill the task holding the most frames. Fails with
    /// [`KernelError::Fatal`] (SIGKILL) if the victim is the current task,
    /// or [`KernelError::OutOfMemory`] when there is nothing left to kill.
    pub fn get_free_page_charged(&mut self, need_zero: bool) -> KResult<PhysAddr> {
        // "the only overhead is a check to see if there are any pre-cleared
        // pages available" (§9).
        self.machine.charge(4);
        let mut forced_fail = self.injected(InjectSite::AllocFail);
        let (pa, precleared) = loop {
            if !forced_fail {
                if let Some(got) = self.frames.get_free_page() {
                    break got;
                }
            }
            forced_fail = false;
            if self.memory_pressure_reclaim() > 0 {
                continue;
            }
            match self.oom_kill()? {
                true => continue,
                false => return Err(KernelError::OutOfMemory),
            }
        };
        self.mem_map_ref(pa, true);
        if need_zero && !precleared {
            // Demand clear with ordinary cached stores — the paper's kernel
            // avoided `dcbz` (§9), so every line pays a write-allocate fill
            // on the demand path. This is exactly the time the pre-cleared
            // list saves.
            self.machine.zero_page_stores_pa(pa);
            self.phys.zero_page(pa);
        }
        Ok(pa)
    }

    /// One round of direct reclaim, cheapest first: a zombie-PTE sweep of
    /// the hash table (frees translation slots, like the idle task's §7
    /// reclaim but synchronous), then eviction of clean, unmapped
    /// page-cache pages. Returns the number of page frames freed.
    pub(crate) fn memory_pressure_reclaim(&mut self) -> usize {
        self.span(Subsystem::Reclaim, |k| {
            k.run_kernel_path(KernelPath::Mm, RECLAIM_PASS_INSNS);
            let cached = k.cfg.htab_cached;
            k.reclaim_chunk(PRESSURE_RECLAIM_GROUPS, cached);
            // Evict clean page-cache pages that no task has mapped. Everything
            // in the cache is clean (the simulation never dirties file pages),
            // so eviction is just unhooking the frame.
            let mut evicted = 0;
            'files: for fi in 0..k.files.len() {
                for pi in 0..k.files[fi].pages.len() {
                    let Some(pa) = k.files[fi].pages[pi] else {
                        continue;
                    };
                    if k.file_map_refs.contains_key(&pa) {
                        continue;
                    }
                    k.run_kernel_path(KernelPath::Mm, EVICT_PER_PAGE_INSNS);
                    k.mem_map_ref(pa, true);
                    k.files[fi].pages[pi] = None;
                    k.frames.free_page(pa);
                    k.stats.reclaimed_pages += 1;
                    evicted += 1;
                    if evicted >= PRESSURE_EVICT_BATCH {
                        break 'files;
                    }
                }
            }
            evicted
        })
    }

    /// The OOM killer: picks the *alive, non-current* task holding the most
    /// frames and reaps it, returning `Ok(true)`. When the current task is
    /// the only candidate, it is killed with SIGKILL (`Err(Fatal)`); when no
    /// task holds frames at all, returns `Ok(false)` — genuinely out of
    /// memory.
    pub(crate) fn oom_kill(&mut self) -> KResult<bool> {
        self.span(Subsystem::Reclaim, |k| {
            k.run_kernel_path(KernelPath::Mm, RECLAIM_PASS_INSNS);
            // Badness scan: one task-struct read per task considered.
            let mut victim: Option<(usize, usize)> = None;
            for idx in 0..k.tasks.len() {
                if !k.tasks[idx].is_alive() {
                    continue;
                }
                let ts = k.tasks[idx].task_struct_pa();
                k.kdata_ref(ts + 0x40, false);
                let frames = k.tasks[idx].frames.len();
                if frames == 0 || Some(idx) == k.current {
                    continue;
                }
                if victim.is_none_or(|(_, best)| frames > best) {
                    victim = Some((idx, frames));
                }
            }
            match victim {
                Some((idx, _)) => {
                    k.stats.oom_kills += 1;
                    let victim_pid = k.tasks[idx].pid;
                    k.t_event(|| TraceEvent::OomKill { victim: victim_pid });
                    k.teardown_task(idx);
                    Ok(true)
                }
                None => {
                    let cur = k.current;
                    match cur {
                        Some(idx) if !k.tasks[idx].frames.is_empty() => {
                            k.stats.oom_kills += 1;
                            let victim_pid = k.tasks[idx].pid;
                            k.t_event(|| TraceEvent::OomKill { victim: victim_pid });
                            Err(k.deliver_fatal_signal(Signal::Kill, 0))
                        }
                        _ => Ok(false),
                    }
                }
            }
        })
    }

    /// Frees one page frame back to the allocator (a few cycles of list
    /// manipulation).
    pub fn free_page_charged(&mut self, pa: PhysAddr) {
        self.machine.charge(6);
        self.mem_map_ref(pa, true);
        self.frames.free_page(pa);
    }

    /// Pre-faults every page of `[start, start + pages*4K)` in the current
    /// task by reading one word per page (workload setup helper; reads so
    /// that read-only file mappings can be pre-faulted too).
    pub fn prefault(&mut self, start: u32, pages: u32) -> KResult<()> {
        for i in 0..pages {
            self.data_ref(EffectiveAddress(start + i * PAGE_SIZE), false)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kconfig::KernelConfig;
    use crate::sched::USER_BASE;
    use crate::task::Pid;
    use ppc_machine::MachineConfig;

    /// Spawns a process with `pages` faulted-in anonymous pages.
    fn hog(k: &mut Kernel, pages: u32) -> Pid {
        let pid = k.spawn_process(pages).unwrap();
        k.switch_to(pid);
        for i in 0..pages {
            k.user_write(USER_BASE + i * PAGE_SIZE, 4).unwrap();
        }
        pid
    }

    #[test]
    fn oom_killer_reaps_the_task_holding_the_most_frames() {
        let mut k = Kernel::boot(MachineConfig::ppc604_133(), KernelConfig::optimized());
        let small = hog(&mut k, 4);
        let big = hog(&mut k, 64);
        let mid = hog(&mut k, 16);
        k.switch_to(small);
        let free0 = k.frames.free_frames();
        let big_frames = k.tasks[k.task_idx(big).unwrap()].frames.len();

        assert!(k.oom_kill().unwrap());

        assert_eq!(k.stats.oom_kills, 1);
        assert!(k.task_idx(big).is_none(), "the biggest hog must die");
        assert!(k.task_idx(small).is_some());
        assert!(k.task_idx(mid).is_some());
        // Every frame the victim held (plus its page-table pages) comes back.
        assert!(
            k.frames.free_frames() >= free0 + big_frames,
            "freed {} of at least {big_frames}",
            k.frames.free_frames() - free0
        );
    }

    #[test]
    fn oom_survivors_keep_running_after_the_kill() {
        let mut k = Kernel::boot(MachineConfig::ppc604_133(), KernelConfig::optimized());
        let survivor = hog(&mut k, 8);
        let victim = hog(&mut k, 32);
        k.switch_to(survivor);
        assert!(k.oom_kill().unwrap());
        assert!(k.task_idx(victim).is_none());
        // The survivor's working set is intact and re-faultable.
        k.user_read(USER_BASE, 8 * PAGE_SIZE).unwrap();
        assert_eq!(k.stats.segfaults, 0);
        // And it can still grow: the victim's frames are allocatable.
        let grown = k.sys_mmap(None, 16 * PAGE_SIZE);
        k.prefault(grown, 16).unwrap();
    }

    #[test]
    fn oom_kills_the_current_task_when_it_is_the_only_candidate() {
        let mut k = Kernel::boot(MachineConfig::ppc604_133(), KernelConfig::optimized());
        let only = hog(&mut k, 8);
        k.switch_to(only);
        let err = k.oom_kill().unwrap_err();
        assert_eq!(
            err,
            KernelError::Fatal {
                signal: Signal::Kill,
                ea: 0
            }
        );
        assert_eq!(k.stats.oom_kills, 1);
        assert!(k.current.is_none());
    }

    #[test]
    fn oom_with_no_frames_held_anywhere_is_a_real_oom() {
        let mut k = Kernel::boot(MachineConfig::ppc604_133(), KernelConfig::optimized());
        assert!(!k.oom_kill().unwrap());
        assert_eq!(k.stats.oom_kills, 0);
    }
}
