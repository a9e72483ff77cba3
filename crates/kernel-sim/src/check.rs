//! Runtime MM consistency checking: the shadow oracle plus ported
//! invariants, evaluated at span transitions.
//!
//! Three cooperating layers (DESIGN.md §12):
//!
//! * the **shadow MM oracle** ([`crate::oracle::ShadowMm`]) — updated at
//!   every translation install and flush, consulted at every positive
//!   hardware observation (TLB hit, hash-table hit, BAT match);
//! * **runtime invariants** ported from the kernel-tla `ctxsw` module —
//!   SchedInv (no run-queue task is running, queued tasks are runnable and
//!   distinct), the MMInv analogue (the active address space is the current
//!   task's: segment registers match its VSIDs; dead tasks hold no frames),
//!   VSID liveness and generation monotonicity, and hash-table placement /
//!   occupancy self-consistency — cheap ones at every span transition,
//!   heavy sweeps at the checker's own epoch boundaries;
//! * violation reporting that panics with the exact [`KernelConfig`]
//!   summary and injector seed, so the adversarial driver (`repro chaos`)
//!   can turn any red run into a one-command repro.
//!
//! Like the tracer, PMU sampler and telemetry, the checker is an observer
//! behind `Option<Box<_>>`: disabled, the kernel carries one pointer and
//! every hook is a single branch, and a checked run charges **exactly** the
//! same cycles as an unchecked one (the checker never calls
//! `Machine::charge`, never touches TLB/cache replacement state, and reads
//! MMU structures only through the read-only sweep accessors).

use ppc_machine::Cycles;
use ppc_mmu::addr::{EffectiveAddress, PhysAddr, VirtualAddress};
use ppc_mmu::pte::Pte;
use ppc_mmu::translate::AccessType;

use crate::kernel::Kernel;
use crate::layout::{is_io, is_kernel_linear, kva_to_pa};
use crate::oracle::{ShadowEntry, ShadowMm};
use crate::task::TaskState;
use crate::telemetry::EpochClock;

/// Default cycles between heavy consistency sweeps (the same epoch grain as
/// telemetry and mmtune).
pub const DEFAULT_CHECK_EPOCH_CYCLES: Cycles = 65_536;

/// Checker configuration. Lives in [`crate::KernelConfig::check`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckConfig {
    /// Maintain the shadow oracle and cross-check every TLB hit, hash-table
    /// hit and BAT match against it.
    pub oracle: bool,
    /// Evaluate the ported SchedInv/MMInv invariants at every span
    /// transition and run the heavy structural sweeps at epoch boundaries.
    pub invariants: bool,
    /// Cycles between heavy sweeps (TLB/htab containment, placement,
    /// occupancy cross-checks).
    pub epoch_cycles: Cycles,
}

impl CheckConfig {
    /// Everything on, at the default epoch grain.
    pub fn full() -> Self {
        Self {
            oracle: true,
            invariants: true,
            epoch_cycles: DEFAULT_CHECK_EPOCH_CYCLES,
        }
    }
}

/// The runtime checker state.
#[derive(Debug, Clone)]
pub struct CheckState {
    /// Configuration.
    pub cfg: CheckConfig,
    /// The shadow model of every currently-legal translation.
    pub oracle: ShadowMm,
    /// Positive hardware observations cross-checked against the oracle.
    pub checked_observations: u64,
    /// Cheap invariant evaluations performed (one per span transition).
    pub invariant_passes: u64,
    /// Heavy epoch sweeps performed.
    pub heavy_sweeps: u64,
    /// The next heavy-sweep boundary.
    clock: EpochClock,
    /// Highest VSID-allocator generation seen (must never decrease).
    last_generation: u32,
    /// Scratch for the heavy sweep's occupancy histogram, reused across
    /// epochs so the sweep only allocates when the hash table grows.
    hist_scratch: Vec<u8>,
}

impl CheckState {
    /// Fresh state for `cfg`.
    pub fn new(cfg: CheckConfig) -> Self {
        Self {
            cfg,
            oracle: ShadowMm::new(),
            checked_observations: 0,
            invariant_passes: 0,
            heavy_sweeps: 0,
            clock: EpochClock::new(cfg.epoch_cycles.max(1)),
            last_generation: 0,
            hist_scratch: Vec::new(),
        }
    }
}

impl Kernel {
    /// One-line context for violation messages: the exact config summary and
    /// injector seed, so any panic is a one-command repro
    /// (`repro chaos --seed N`).
    fn check_context(&self) -> String {
        let seed = match self.cfg.fault_injection {
            Some(fi) => fi.seed.to_string(),
            None => "none".to_string(),
        };
        format!(
            "seed={seed} cycle={} config: {}",
            self.machine.cycles,
            self.cfg.summary()
        )
    }

    /// Reports a checker violation.
    ///
    /// # Panics
    ///
    /// Always — panicking is the reporting mechanism. A violation means the
    /// simulated MM state diverged from the oracle, so no `KResult` can be
    /// trusted past this point; the adversarial driver catches the unwind
    /// and prints the minimized repro.
    fn check_fail(&self, msg: &str) -> ! {
        panic!("MM check violation: {msg}\n  [{}]", self.check_context());
    }

    /// The span-transition hook: a single branch when checking is off.
    /// Cheap invariants every call; the heavy sweep when the epoch boundary
    /// has been crossed.
    #[inline]
    pub(crate) fn check_poll(&mut self) {
        if self.check.is_none() {
            return;
        }
        self.check_transition();
    }

    /// The cold half of [`Kernel::check_poll`]. Takes the checker out while
    /// working (same discipline as `tune_epoch`): the checks only read
    /// kernel state, and a taken-out checker makes re-entry impossible.
    fn check_transition(&mut self) {
        let Some(mut c) = self.check.take() else {
            return;
        };
        if c.cfg.invariants {
            if let Some(v) = self.invariant_violation(&mut c.last_generation) {
                self.check = Some(c);
                self.check_fail(&v);
            }
            c.invariant_passes += 1;
        }
        let now = self.machine.cycles;
        if c.clock.due(now) {
            c.clock.advance(now);
            c.heavy_sweeps += 1;
            if let Some(v) = self.heavy_sweep_violation(&mut c) {
                self.check = Some(c);
                self.check_fail(&v);
            }
        }
        self.check = Some(c);
    }

    /// Runs the heavy structural sweep once over the final state (call at
    /// the end of a checked run; no-op when checking is off).
    pub fn check_finish(&mut self) {
        let Some(mut c) = self.check.take() else {
            return;
        };
        c.heavy_sweeps += 1;
        if let Some(v) = self.heavy_sweep_violation(&mut c) {
            self.check = Some(c);
            self.check_fail(&v);
        }
        if c.cfg.invariants {
            if let Some(v) = self.invariant_violation(&mut c.last_generation) {
                self.check = Some(c);
                self.check_fail(&v);
            }
            c.invariant_passes += 1;
        }
        self.check = Some(c);
    }

    /// The cheap invariant set, evaluated at every span transition.
    ///
    /// Scheduler-state clauses are skipped while a scheduler mutation
    /// (context switch, task teardown) is in flight: those functions are the
    /// atomic "steps" of the ported TLA model, and the invariants are
    /// guaranteed only at step boundaries.
    pub(crate) fn invariant_violation(&self, last_generation: &mut u32) -> Option<String> {
        // Run-queue entries are distinct — holds even mid-mutation.
        let q = &self.run_queue;
        for (i, &a) in q.iter().enumerate() {
            if q.iter().skip(i + 1).any(|&b| b == a) {
                return Some(format!("SchedInv: task {a} queued twice"));
            }
        }
        if self.sched_mutation_depth == 0 {
            // SchedInv: no run-queue task is running, and every queued task
            // is runnable.
            if let Some(cur) = self.current {
                if q.contains(&cur) {
                    return Some(format!("SchedInv: running task {cur} is on the run queue"));
                }
            }
            for &i in q {
                if self.tasks[i].state != TaskState::Runnable {
                    return Some(format!(
                        "SchedInv: queued task {i} is {:?}, not Runnable",
                        self.tasks[i].state
                    ));
                }
            }
            // MMInv analogue: the active address space is the current
            // task's — user segment registers hold exactly its VSIDs.
            if let Some(cur) = self.current {
                for (sr, v) in self.tasks[cur].vsids.iter().enumerate() {
                    let hw = self
                        .machine
                        .mmu
                        .segments
                        .translate(EffectiveAddress((sr as u32) << 28));
                    if hw.vsid != *v {
                        return Some(format!(
                            "MMInv: segment register {sr} holds vsid {:#x} but \
                             current task {cur} owns {:#x}",
                            hw.vsid.raw(),
                            v.raw()
                        ));
                    }
                }
            }
            // MMInv analogue: a dead task's address space is gone — it
            // holds no frames and is never current; live tasks translate
            // only under live VSIDs. Teardown transiently violates all
            // three (Dead is set before the frames drain and before the
            // final reschedule), so this block sits inside the step gate.
            for (i, t) in self.tasks.iter().enumerate() {
                match t.state {
                    TaskState::Dead => {
                        if !t.frames.is_empty() {
                            return Some(format!("MMInv: dead task {i} still holds frames"));
                        }
                        if self.current == Some(i) {
                            return Some(format!("MMInv: dead task {i} is current"));
                        }
                    }
                    _ => {
                        for v in &t.vsids {
                            if !self.vsids.is_live(*v) {
                                return Some(format!(
                                    "MMInv: live task {i} owns retired vsid {:#x}",
                                    v.raw()
                                ));
                            }
                        }
                    }
                }
            }
        }
        // Lazy-flush invariant: the context generation never moves backward
        // (VSIDs are never reused).
        let generation = self.vsids.generation();
        if generation < *last_generation {
            return Some(format!(
                "VSID generation moved backward: {} -> {generation}",
                *last_generation
            ));
        }
        *last_generation = generation;
        None
    }

    /// The heavy epoch sweep: containment of resident translations in the
    /// oracle, and hash-table structural self-consistency.
    fn heavy_sweep_violation(&self, c: &mut CheckState) -> Option<String> {
        if c.cfg.oracle {
            // Every resident TLB entry under a live VSID must still be
            // legal. (Zombie entries — retired VSIDs — are exactly what
            // lazy flushing leaves behind; they can never match and are
            // exempt.)
            let live = |v| self.vsids.is_live(v);
            let tlbs = [
                ("itlb", &self.machine.mmu.itlb),
                ("dtlb", &self.machine.mmu.dtlb),
            ];
            for (name, tlb) in tlbs {
                for e in tlb.entries().filter(|e| live(e.vsid)) {
                    if let Some(v) = c.oracle.check_observation(
                        format_args!("{name} residency sweep"),
                        e.vsid,
                        e.page_index,
                        e.rpn,
                        e.writable,
                        e.cached,
                    ) {
                        return Some(v);
                    }
                }
            }
            // Same containment for live hash-table entries.
            for (_, _, pte) in self.htab.entries().filter(|(_, _, p)| live(p.vsid)) {
                if let Some(v) = c.oracle.check_observation(
                    "htab residency sweep",
                    pte.vsid,
                    pte.page_index,
                    pte.rpn,
                    pte.pp == 2,
                    !pte.cache_inhibited,
                ) {
                    return Some(v);
                }
            }
        }
        if c.cfg.invariants {
            // PTEG placement: every valid entry sits in the group its hash
            // (primary or secondary, per its H bit) selects — the invariant
            // a botched mid-run rehash would break.
            let hash = self.htab.hash();
            for (g, s, pte) in self.htab.entries() {
                let expect = hash.pteg_index(pte.vsid, pte.page_index, pte.secondary);
                if expect != g {
                    return Some(format!(
                        "htab placement: vsid={:#x} page={:#x} (secondary={}) \
                         found in group {g} slot {s}, hash says group {expect}",
                        pte.vsid.raw(),
                        pte.page_index,
                        pte.secondary
                    ));
                }
            }
            // Occupancy summaries agree with the group contents.
            self.htab.group_histogram_into(&mut c.hist_scratch);
            let hist = &c.hist_scratch;
            if hist.len() != self.htab.hash().num_groups() as usize {
                return Some(format!(
                    "htab occupancy: histogram covers {} groups, hash says {}",
                    hist.len(),
                    self.htab.hash().num_groups()
                ));
            }
            let sum: u32 = hist.iter().map(|&c| u32::from(c)).sum();
            if sum != self.htab.valid_entries() {
                return Some(format!(
                    "htab occupancy: histogram sums to {sum}, valid_entries says {}",
                    self.htab.valid_entries()
                ));
            }
            let full = hist.iter().filter(|&&c| c as usize == 8).count() as u32;
            if full != self.htab.full_groups() {
                return Some(format!(
                    "htab occupancy: histogram counts {full} full groups, \
                     full_groups says {}",
                    self.htab.full_groups()
                ));
            }
        }
        None
    }

    // ---- oracle mutation mirrors (called at the kernel's mutation sites) --

    /// Mirrors a translation install into the oracle.
    #[inline]
    pub(crate) fn check_note_install(
        &mut self,
        va: VirtualAddress,
        pfn: u32,
        cached: bool,
        writable: bool,
    ) {
        if let Some(c) = self.check.as_mut() {
            if c.cfg.oracle {
                c.oracle.install(
                    va.vsid,
                    va.page_index,
                    ShadowEntry {
                        rpn: pfn,
                        writable,
                        cached,
                    },
                );
            }
        }
    }

    /// Mirrors a single-page flush into the oracle.
    #[inline]
    pub(crate) fn check_note_flush_page(&mut self, vsid: ppc_mmu::addr::Vsid, page_index: u32) {
        if let Some(c) = self.check.as_mut() {
            if c.cfg.oracle {
                c.oracle.flush_page(vsid, page_index);
            }
        }
    }

    /// Mirrors a whole-context retirement into the oracle. Called *before*
    /// the kernel bumps the VSIDs, so a kernel that forgets the bump (the
    /// deliberate `MMU_TRICKS_BUG_STALE_TLB` bug) leaves resident
    /// translations the oracle now holds illegal — caught at the next hit.
    #[inline]
    pub(crate) fn check_note_retire(&mut self, vsids: &[ppc_mmu::addr::Vsid]) {
        if let Some(c) = self.check.as_mut() {
            if c.cfg.oracle {
                c.oracle.retire_vsids(vsids);
            }
        }
    }

    // ---- positive-observation cross-checks --------------------------------

    /// Cross-checks a TLB hit for `ea` against the oracle.
    #[inline]
    pub(crate) fn check_on_tlb_hit(
        &mut self,
        ea: EffectiveAddress,
        at: AccessType,
        pa: PhysAddr,
        cached: bool,
        writable: bool,
    ) {
        let Some(c) = self.check.take() else { return };
        if c.cfg.oracle {
            let va = self.machine.mmu.segments.translate(ea);
            let side = if at.is_data() { "dtlb" } else { "itlb" };
            if let Some(v) = c.oracle.check_observation(
                format_args!("{side} hit for ea={:#x}", ea.0),
                va.vsid,
                va.page_index,
                pa >> 12,
                writable,
                cached,
            ) {
                self.check = Some(c);
                self.check_fail(&v);
            }
        }
        self.check = Some(c);
        if let Some(c) = self.check.as_mut() {
            c.checked_observations += 1;
        }
    }

    /// Cross-checks a hash-table hit against the oracle.
    #[inline]
    pub(crate) fn check_on_htab_hit(&mut self, va: VirtualAddress, pte: &Pte) {
        let Some(c) = self.check.take() else { return };
        if c.cfg.oracle {
            if let Some(v) = c.oracle.check_observation(
                "htab hit",
                va.vsid,
                va.page_index,
                pte.rpn,
                pte.pp == 2,
                !pte.cache_inhibited,
            ) {
                self.check = Some(c);
                self.check_fail(&v);
            }
        }
        self.check = Some(c);
        if let Some(c) = self.check.as_mut() {
            c.checked_observations += 1;
        }
    }

    /// Cross-checks a BAT match: BATs cover exactly the kernel linear map
    /// (identity minus the virtual base, cacheable) and the I/O aperture
    /// (identity, cache-inhibited).
    #[inline]
    pub(crate) fn check_on_bat_hit(&mut self, ea: EffectiveAddress, pa: PhysAddr, cached: bool) {
        if self.check.is_none() {
            return;
        }
        let ok = if is_kernel_linear(ea) {
            pa == kva_to_pa(ea) && cached
        } else if is_io(ea) {
            pa == ea.0 && !cached
        } else {
            false
        };
        if !ok {
            self.check_fail(&format!(
                "BAT match for ea={:#x} -> pa={pa:#x} cached={cached} is outside \
                 the linear-map and I/O apertures (or mistranslated)",
                ea.0
            ));
        }
        if let Some(c) = self.check.as_mut() {
            c.checked_observations += 1;
        }
    }

    // ---- scheduler-mutation bracketing ------------------------------------

    /// Marks entry into a scheduler mutation (context switch / teardown):
    /// SchedInv clauses are suspended until the matching exit.
    #[inline]
    pub(crate) fn check_sched_enter(&mut self) {
        self.sched_mutation_depth += 1;
    }

    /// Marks exit from a scheduler mutation.
    #[inline]
    pub(crate) fn check_sched_exit(&mut self) {
        debug_assert!(self.sched_mutation_depth > 0);
        self.sched_mutation_depth -= 1;
    }
}
