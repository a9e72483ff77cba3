//! TLB and hash-table flush strategies (paper §7).

use ppc_cache::AccessKind;
use ppc_machine::Cycles;
use ppc_mmu::addr::{EffectiveAddress, Vsid, PAGE_SIZE};
use ppc_mmu::htab::PTE_BYTES;

use crate::kernel::Kernel;
use crate::layout::is_user;
use crate::prof::Subsystem;
use crate::trace::TraceEvent;

impl Kernel {
    /// The VSID a user effective address translates under for task `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `ea` is not a user address.
    pub fn user_vsid(&self, idx: usize, ea: EffectiveAddress) -> Vsid {
        assert!(is_user(ea), "user_vsid on kernel address {:#x}", ea.0);
        self.tasks[idx].vsids[ea.sr_index()]
    }

    /// Flushes the translations for `[start, end)` of task `idx`.
    ///
    /// Policy (paper §7):
    /// * lazy flushing on and the range exceeds the cutoff → retire the
    ///   whole context ("a simple resetting of the VSIDs will do");
    /// * otherwise → per-page hash-table search-and-invalidate (up to 16
    ///   memory references each) plus a `tlbie`.
    pub fn flush_range(&mut self, idx: usize, start: u32, end: u32) {
        let pages = (end - start) / PAGE_SIZE;
        let over_cutoff = match self.cfg.flush_cutoff_pages {
            Some(c) => pages > c,
            None => false,
        };
        if self.cfg.lazy_flush && over_cutoff {
            self.flush_context(idx);
            return;
        }
        let mut ea = start;
        while ea < end {
            self.flush_one_page(idx, EffectiveAddress(ea));
            ea += PAGE_SIZE;
        }
    }

    /// Flushes a single page's translation: hash-table search-and-invalidate
    /// plus `tlbie`. This is the expensive primitive the lazy scheme avoids.
    pub fn flush_one_page(&mut self, idx: usize, ea: EffectiveAddress) {
        self.stats.flushed_pages += 1;
        self.t_event(|| TraceEvent::Flush { pages: 1 });
        self.t_enter(Subsystem::Flush);
        // The per-page flush C path (`flush_hash_page` and friends).
        let insns = self.paths.flush_per_page;
        self.run_kernel_path(crate::layout::KernelPath::Mm, insns);
        let page_index = ea.page_index();
        // Legality ends here, whether or not a hash table is in use.
        if self.check.is_some() {
            let vsid = self.user_vsid(idx, ea);
            self.check_note_flush_page(vsid, page_index);
        }
        if self.uses_htab() {
            let vsid = self.user_vsid(idx, ea);
            let cached = self.cfg.htab_cached;
            let mut cost: Cycles = 0;
            let machine = &mut self.machine;
            let (_, cleared) = self.htab.invalidate_with(vsid, page_index, |pa, slots| {
                cost += machine
                    .mem
                    .data_run(pa, slots, PTE_BYTES, AccessKind::Read, cached);
            });
            if cleared {
                self.vsids.note_removed(vsid);
                // Write the cleared valid bit back.
                cost += 2;
            }
            self.machine.charge(cost);
        }
        // tlbie + sync.
        self.machine.mmu.tlbie(page_index);
        self.machine.charge(4);
        self.t_exit();
    }

    /// Retires task `idx`'s whole translation context.
    ///
    /// * Lazy (optimized): bump to fresh VSIDs; the old entries become
    ///   zombies for the idle task to reclaim. O(1).
    /// * Eager (original): scan the entire hash table invalidating the
    ///   task's entries and flush both TLBs. O(size of hash table).
    pub fn flush_context(&mut self, idx: usize) {
        self.stats.context_bumps += 1;
        self.t_event(|| TraceEvent::ContextBump);
        self.t_enter(Subsystem::Flush);
        // The oracle retires the context's legality up front, covering both
        // branches — and, crucially, *before* the deliberate-bug guard below:
        // when the bug is armed the kernel skips the VSID bump but the oracle
        // still retires, so the very next access through a stale entry trips
        // the checker.
        {
            let old = self.tasks[idx].vsids;
            self.check_note_retire(&old);
        }
        if self.cfg.lazy_flush {
            // Fresh zombies exist: allow the idle reclaim one full sweep.
            self.reclaim_scan_credit = self.htab.hash().num_groups();
            if !self.buggy_skip_vsid_flush {
                let old = self.tasks[idx].vsids;
                self.vsids.retire(&old);
                let pid = self.tasks[idx].pid;
                self.tasks[idx].vsids = self.vsids.alloc_context(pid, &self.htab);
                // Reload the segment registers if this is the running task.
                if self.current == Some(idx) {
                    let vsids = self.tasks[idx].vsids;
                    for (sr, v) in vsids.iter().enumerate() {
                        self.machine.mmu.segments.set(sr, *v);
                    }
                    self.machine.charge(16 + 3);
                }
                self.check_note_sched_change();
            }
            // The increment of the context counter itself.
            self.machine.charge(8);
        } else {
            let old = self.tasks[idx].vsids;
            // The scan runs before the old VSIDs retire. Under PID-derived
            // VSIDs, "retiring" leaves liveness unchanged (the same VSIDs
            // come right back), so they must come back with no entries left
            // in the table; the cost is the scan.
            if self.uses_htab() {
                let vsids = &mut self.vsids;
                let (scanned, _cleared) = self.htab.invalidate_matching(|v| {
                    let hit = old.contains(&v);
                    if hit {
                        vsids.note_removed(v);
                    }
                    hit
                });
                // The scan reads every slot, one read per PTE; charge it as a
                // sequential sweep through the data cache.
                let cached = self.cfg.htab_cached;
                let cost = self.machine.mem.data_run(
                    self.htab.slot_pa(0, 0),
                    scanned,
                    PTE_BYTES,
                    AccessKind::Read,
                    cached,
                );
                self.machine.charge(cost);
            }
            self.vsids.retire(&old);
            let pid = self.tasks[idx].pid;
            self.tasks[idx].vsids = self.vsids.alloc_context(pid, &self.htab);
            self.check_note_sched_change();
            self.machine.mmu.flush_tlbs();
            self.machine.charge(32);
        }
        self.t_exit();
    }
}
