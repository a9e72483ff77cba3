//! Process lifecycle and the scheduler.

use ppc_mmu::addr::PAGE_SIZE;

use crate::errors::{KResult, KernelError};
use crate::kernel::Kernel;
use crate::layout::KernelPath;
use crate::linuxpt::LinuxPageTables;
use crate::prof::Subsystem;
use crate::task::{Pid, Task, TaskState, Vma, VmaKind};
use crate::trace::TraceEvent;

/// Default user text/data/heap base.
pub const USER_BASE: u32 = 0x1000_0000;

/// Default user stack top region.
pub const STACK_BASE: u32 = 0x7ff0_0000;

/// Pages of stack given to each process.
pub const STACK_PAGES: u32 = 16;

impl Kernel {
    /// Creates a process with a `ws_pages`-page anonymous working-set region
    /// at [`USER_BASE`] and a stack. Returns its PID, or `ENOMEM` when the
    /// page-table pool is exhausted.
    pub fn spawn_process(&mut self, ws_pages: u32) -> KResult<Pid> {
        self.t_enter(Subsystem::Exec);
        let r = self.spawn_process_inner(ws_pages);
        self.t_exit();
        r
    }

    fn spawn_process_inner(&mut self, ws_pages: u32) -> KResult<Pid> {
        let insns = self.paths.spawn;
        self.run_kernel_path(KernelPath::Exec, insns);
        let pid = self.alloc_pid();
        let pgd = self.frames.get_pt_page().ok_or(KernelError::OutOfMemory)?;
        self.phys.zero_page(pgd);
        self.machine.zero_page_pa(pgd, true);
        let vsids = self.vsids.alloc_context(pid, &self.htab);
        let mut task = Task::new(pid, vsids, LinuxPageTables::new(pgd));
        if ws_pages > 0 {
            task.insert_vma(Vma {
                start: USER_BASE,
                end: USER_BASE + ws_pages * PAGE_SIZE,
                kind: VmaKind::Anon,
            });
        }
        task.insert_vma(Vma {
            start: STACK_BASE,
            end: STACK_BASE + STACK_PAGES * PAGE_SIZE,
            kind: VmaKind::Anon,
        });
        let idx = self.tasks.len();
        self.tasks.push(task);
        self.run_queue.push_back(idx);
        // One bump covers the VSID allocation too: no span transition
        // separates the two.
        self.check_note_sched_change();
        self.stats.processes_spawned += 1;
        Ok(pid)
    }

    /// Finds the task slot for `pid`.
    pub fn task_idx(&self, pid: Pid) -> Option<usize> {
        self.tasks
            .iter()
            .position(|t| t.pid == pid && t.state != TaskState::Dead)
    }

    /// Switches directly to `pid` (harness-level control).
    ///
    /// # Panics
    ///
    /// Panics if `pid` does not exist.
    pub fn switch_to(&mut self, pid: Pid) {
        let idx = self.task_idx(pid).expect("switch_to: no such pid");
        self.context_switch(idx);
    }

    /// The context-switch path: scheduler body, task-struct save/restore
    /// traffic, and the segment-register reload that changes address space.
    pub fn context_switch(&mut self, to: usize) {
        if self.current == Some(to) {
            return;
        }
        let to_pid = self.tasks[to].pid;
        self.t_event(|| TraceEvent::CtxSwitch { to: to_pid });
        self.t_enter(Subsystem::Sched);
        // The switch body transiently violates SchedInv (the outgoing task
        // is pushed onto the queue while still `current`); bracket it so the
        // checker treats it as one atomic step, as the TLA model does. The
        // bracket's version bumps also cover the switch's run-queue,
        // segment-register and current-task changes: no span transition
        // separates those from the bracket.
        self.check_sched_enter();
        // The chosen task leaves the ready queue while it runs; the
        // displaced task goes back on it if still runnable.
        self.run_queue.retain(|&i| i != to);
        if let Some(old) = self.current {
            if self.tasks[old].state == TaskState::Runnable && !self.run_queue.contains(&old) {
                self.run_queue.push_back(old);
            }
        }
        let insns = self.paths.sched;
        self.run_kernel_path(KernelPath::Schedule, insns);
        // Save the outgoing task's register state to its task struct.
        if let Some(old) = self.current {
            let ts = self.tasks[old].task_struct_pa();
            for i in 0..32 {
                self.kdata_ref(ts + i * 4, true);
            }
        }
        // Load the incoming task's state.
        let ts = self.tasks[to].task_struct_pa();
        if self.cfg.cache_preloads {
            // §10.2: software prefetch of the new task struct before use.
            for i in 0..4 {
                let c = self.machine.mem.prefetch(ts + i * 32);
                self.machine.charge(c);
            }
        }
        for i in 0..32 {
            self.kdata_ref(ts + i * 4, false);
        }
        // Reload the user segment registers with the new task's VSIDs: this
        // is the entire address-space switch (no TLB flush — VSIDs
        // disambiguate, which is what makes PPC context switches cheap).
        let vsids = self.tasks[to].vsids;
        for (sr, v) in vsids.iter().enumerate() {
            self.machine.mmu.segments.set(sr, *v);
        }
        self.machine.charge(16 + 3); // 12 mtsr + isync, rounded as the paper's code does
        self.current = Some(to);
        self.stats.ctx_switches += 1;
        self.check_sched_exit();
        self.t_exit();
    }

    /// Voluntarily yields to the next runnable task (round robin).
    pub fn yield_next(&mut self) {
        if let Some(next) = self.pick_next() {
            self.context_switch(next);
        }
    }

    /// Blocks the current task and switches away.
    ///
    /// # Panics
    ///
    /// Panics if no other runnable task exists (simulated deadlock).
    pub fn block_current(&mut self) {
        let cur = self.current.expect("block with no current task");
        self.tasks[cur].state = TaskState::Blocked;
        self.check_note_sched_change();
        let next = self.pick_next().expect("deadlock: all tasks blocked");
        self.context_switch(next);
    }

    /// Wakes a blocked task.
    pub fn wake(&mut self, idx: usize) {
        if self.tasks[idx].state == TaskState::Blocked {
            self.tasks[idx].state = TaskState::Runnable;
            self.run_queue.push_back(idx);
            self.check_note_sched_change();
        }
    }

    fn pick_next(&mut self) -> Option<usize> {
        while let Some(idx) = self.run_queue.pop_front() {
            self.check_note_sched_change();
            if self.tasks[idx].state == TaskState::Runnable {
                return Some(idx);
            }
        }
        None
    }

    /// Terminates the current task: frees its frames and page tables,
    /// flushes its translations (policy-dependent cost!), and switches to
    /// the next runnable task if any.
    pub fn exit_current(&mut self) {
        let cur = self.current.expect("exit with no current task");
        self.teardown_task(cur);
    }

    /// Tears down task `idx` — the shared back half of `exit()`, fatal
    /// signal delivery, and the OOM killer. Flushes its translations
    /// (policy-dependent cost), returns its frames and page tables, drops
    /// its page-cache mapping pins, and — when it was the current task —
    /// switches to the next runnable one.
    pub(crate) fn teardown_task(&mut self, idx: usize) {
        // Teardown marks the task Dead before pulling it off the run queue
        // and releases frames across span transitions; suspend the scheduler
        // invariants until the whole step completes.
        self.check_sched_enter();
        // Address-space teardown flush: the lazy kernel retires the context
        // in O(1); the eager kernel walks every VMA flushing page by page
        // (`tlbie` collateral included).
        if self.cfg.lazy_flush {
            self.flush_context(idx);
        } else {
            let ranges: Vec<(u32, u32)> = self.tasks[idx]
                .vmas
                .iter()
                .map(|v| (v.start, v.end))
                .collect();
            for (start, end) in ranges {
                self.flush_range(idx, start, end);
            }
        }
        // Unpin mapped page-cache frames so pressure can evict them again
        // (bookkeeping on structures the teardown already touched).
        let pt = self.tasks[idx].pt;
        let file_vmas: Vec<(u32, u32)> = self.tasks[idx]
            .vmas
            .iter()
            .filter(|v| matches!(v.kind, VmaKind::File { .. }))
            .map(|v| (v.start, v.end))
            .collect();
        for (start, end) in file_vmas {
            let mut ea = start;
            while ea < end {
                let walk = pt.walk(&self.phys, ppc_mmu::addr::EffectiveAddress(ea));
                if let Some(pte) = walk.pte {
                    self.file_map_unref(pte.pfn() << 12);
                }
                ea += PAGE_SIZE;
            }
        }
        let task = &mut self.tasks[idx];
        task.state = TaskState::Dead;
        let frames: Vec<_> = task.frames.drain(..).collect();
        let pgd = task.pt.pgd_pa;
        let vmas: Vec<_> = task.vmas.drain(..).collect();
        self.check_note_sched_change();
        for (_, pa) in frames {
            self.release_user_frame(pa, true);
        }
        // Free second-level page-table pages.
        let mut freed = std::collections::HashSet::new();
        for vma in &vmas {
            let mut ea = vma.start;
            while ea < vma.end {
                let pgd_entry = self
                    .phys
                    .read_u32(pt.pgd_entry_pa(ppc_mmu::addr::EffectiveAddress(ea)));
                if pgd_entry & crate::linuxpt::PTE_PRESENT != 0 {
                    let page = pgd_entry & !0xfff;
                    if freed.insert(page) {
                        self.frames.free_pt_page(page);
                    }
                }
                ea = ea.saturating_add(4 << 20); // next PGD slot
                if ea == 0 {
                    break;
                }
            }
        }
        self.frames.free_pt_page(pgd);
        // The bracket exit (or the switch below) bumps the version for the
        // run-queue and current-task changes.
        self.run_queue.retain(|&i| i != idx);
        if self.current == Some(idx) {
            self.current = None;
            if let Some(next) = self.pick_next() {
                self.context_switch(next);
            }
        }
        self.check_sched_exit();
    }
}
