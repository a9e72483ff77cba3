//! The idle task — the paper's title optimization.
//!
//! When the CPU has nothing to run, the idle task (paper §7, §9):
//!
//! 1. scans a few hash-table groups and physically invalidates zombie PTEs
//!    (valid bit set, VSID retired), so the reload code finds empty slots
//!    instead of evicting live entries, and
//! 2. clears free pages so `get_free_page()` can skip the clear on the
//!    demand path — through the cache (the §9 pessimization) or with the
//!    cache inhibited (the win).

use ppc_cache::AccessKind;
use ppc_machine::Cycles;
use ppc_mmu::htab::PTE_BYTES;

use crate::kernel::Kernel;
use crate::layout::KernelPath;
use crate::prof::Subsystem;
use crate::trace::TraceEvent;

/// PTEG groups scanned per idle-loop iteration.
pub const RECLAIM_GROUPS_PER_STEP: u32 = 8;

impl Kernel {
    /// Runs the idle task for (at least) `budget` cycles — called by
    /// workloads whenever the simulated system would be waiting for I/O or
    /// has an empty run queue.
    pub fn run_idle(&mut self, budget: Cycles) {
        self.t_event(|| TraceEvent::Idle { budget });
        self.span(Subsystem::Idle, |k| {
            let start = k.machine.cycles;
            let end = start + budget;
            // Upper bounds on one step of each duty, so a step is only started
            // if it fits in the remaining stall (the real idle task is simply
            // preempted; the budget models the end of the I/O wait).
            const RECLAIM_STEP_BOUND: Cycles = 4_000;
            const CLEAR_STEP_BOUND: Cycles = 12_000;
            while k.machine.cycles < end {
                let before = k.machine.cycles;
                // The idle loop body itself. With the §10.1 cache lock the loop
                // runs out of locked lines and costs pure pipeline cycles.
                if k.cfg.idle_cache_lock {
                    k.machine.charge(8);
                } else {
                    k.run_kernel_path(KernelPath::Idle, 8);
                }
                if k.cfg.idle_reclaim {
                    let remaining = end.saturating_sub(k.machine.cycles);
                    if remaining > RECLAIM_STEP_BOUND {
                        k.idle_reclaim_step();
                    }
                }
                if k.cfg.page_clearing.idle_clears() {
                    let remaining = end.saturating_sub(k.machine.cycles);
                    if remaining > CLEAR_STEP_BOUND {
                        k.idle_clear_step();
                    }
                }
                // Guarantee forward progress even if every duty was a no-op.
                // This is a *wait*, not work: the stall models an I/O delay
                // whose duration the CPU cannot shorten, so it bypasses any
                // causal charge scale — virtually zeroing the idle task makes
                // its duties free (more of them fit in the same stall) without
                // making the device answer sooner, which is exactly the §9
                // "optimizing the idle task buys nothing" counterfactual
                // E-CAUSAL quantifies. (Unscaled runs never notice: the loop
                // body above always charges, so this arm is dormant.)
                if k.machine.cycles == before {
                    k.machine.wait(16);
                }
            }
            k.stats.idle_cycles += k.machine.cycles - start;
        });
    }

    /// One reclaim step: scan [`RECLAIM_GROUPS_PER_STEP`] PTEGs, clearing
    /// the valid bit of every zombie. "All data structures used to keep
    /// track … are lock free and interrupts are left enabled" (§9) — the
    /// step is small so the idle task can be preempted between steps.
    pub fn idle_reclaim_step(&mut self) {
        // Nothing retired since the last full sweep: no zombies to find.
        if self.reclaim_scan_credit == 0 {
            return;
        }
        self.reclaim_scan_credit = self
            .reclaim_scan_credit
            .saturating_sub(RECLAIM_GROUPS_PER_STEP);
        // The scan is cache-inhibited when the idle task is locked out of
        // the cache (§10.1), else it goes through the D-cache.
        let cached = self.cfg.htab_cached && !self.cfg.idle_cache_lock;
        self.reclaim_chunk(RECLAIM_GROUPS_PER_STEP, cached);
    }

    /// Scans `groups` PTEGs from the reclaim cursor, invalidating zombies
    /// and charging the slot reads. Shared by the idle-task scan and the
    /// §7-rejected on-scarcity reclaim. Returns `(scanned, cleared)` slots.
    pub(crate) fn reclaim_chunk(&mut self, groups: u32, cached: bool) -> (u32, u32) {
        self.span(Subsystem::Reclaim, |k| {
            let vsids = &k.vsids;
            let mem = &mut k.machine.mem;
            // Charge the slot reads at the addresses the table scanned, plus
            // the valid-bit writes for cleared zombies.
            let mut cost: Cycles = 0;
            let (scanned, cleared) = k.htab.reclaim_zombies(
                groups,
                |vsid| vsids.is_live(vsid),
                |pa, slots| cost += mem.data_run(pa, slots, PTE_BYTES, AccessKind::Read, cached),
            );
            k.stats.idle_groups_scanned += (scanned / 8) as u64;
            cost += cleared as Cycles * 2;
            k.machine.charge(cost);
            k.t_event(|| TraceEvent::Reclaim { scanned, cleared });
            (scanned, cleared)
        })
    }

    /// One page-clearing step: take a dirty free frame, clear it per policy,
    /// and (policy permitting) remember it on the pre-cleared list.
    pub fn idle_clear_step(&mut self) {
        let Some(pa) = self.frames.take_frame_for_idle_clear() else {
            return;
        };
        if self.cfg.page_clearing.through_cache() {
            // Cached stores: every line fills, dirties, and displaces a
            // line of whatever the workload had cached — §9's pessimization.
            self.machine.zero_page_stores_pa(pa);
        } else {
            self.machine.zero_page_pa(pa, false);
        }
        self.phys.zero_page(pa);
        self.stats.idle_pages_cleared += 1;
        if self.cfg.page_clearing.uses_list() {
            self.frames.deposit_precleared(pa);
        } else {
            self.frames.return_uncleared(pa);
        }
    }
}
