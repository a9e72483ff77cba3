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
//!   occupancy self-consistency — cheap ones at span transitions, heavy
//!   sweeps at the checker's own epoch boundaries;
//! * violation reporting that panics with the exact [`crate::KernelConfig`]
//!   summary and injector seed, so the adversarial driver (`repro chaos`)
//!   can turn any red run into a one-command repro.
//!
//! Every check runs again only when its inputs change, with the verdicts of
//! checking everything every time:
//!
//! * a translation is audited once, not at every hit: a TLB slot or BAT
//!   register that passed its audit carries a mark, and the audited instance
//!   of a reference (`Machine::data_ref::<true>`) serves marked translations
//!   without a new audit; an unmarked one is a miss the kernel audits. A
//!   refill or BAT reprogram clears the marks it touches; any oracle
//!   removal or change of a legal translation clears them all;
//! * a heavy sweep visits only the hash-table PTEGs written since the last
//!   sweep, the PTEGs where an entry for a key the oracle removed or changed
//!   may sit, and the unaudited TLB slots; the table threads those PTEGs on
//!   a list, and the occupancy totals move by each listed PTEG's change;
//! * the cheap invariants are evaluated again only after the kernel bumped
//!   its scheduler/MM version (`Kernel::check_note_sched_change`), and at
//!   every heavy sweep.
//!
//! The checker runs only at the span transitions where the kernel's one
//! poll deadline (`Kernel::next_poll`) has come: its epoch boundary, or the
//! transition after a scheduler/MM version bump.
//!
//! Debug builds also make every skipped sweep and invariant evaluation in
//! full and panic with their own message on any disagreement.
//!
//! Like the tracer, PMU sampler and telemetry, the checker is an observer
//! behind `Option<Box<_>>`: disabled, the kernel carries one pointer and
//! every hook is a single branch, and a checked run charges **exactly** the
//! same cycles as an unchecked one (the checker never calls
//! `Machine::charge`, never touches TLB/cache replacement state or any
//! counter; the audit and PTEG marks are the only state it writes).

use ppc_machine::Cycles;
use ppc_mmu::addr::{EffectiveAddress, PhysAddr, VirtualAddress, Vsid};
use ppc_mmu::bat::BatEntry;
use ppc_mmu::pte::Pte;
use ppc_mmu::translate::AccessType;

use crate::kernel::Kernel;
use crate::layout::{
    is_io, is_kernel_linear, kva_to_pa, IO_BYTES, IO_VIRT_BASE, KERNEL_VIRT_BASE, RAM_BYTES,
};
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
    /// Evaluate the ported SchedInv/MMInv invariants at span transitions
    /// and run the heavy structural sweeps at epoch boundaries.
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
    /// Positive hardware observations cross-checked against the oracle:
    /// every TLB hit, BAT match and hash-table hit while armed. A hit on an
    /// audited TLB slot or BAT register is covered by that translation's
    /// audit; those are counted from the machine's TLB and BAT hit total
    /// ([`ppc_machine::Machine::translation_hits`], which no counter reset
    /// moves backward), folded in whenever the checker runs and by
    /// [`Kernel::check_finish`].
    pub checked_observations: u64,
    /// Cheap invariant evaluations actually made: one after each step that
    /// changed what the invariants read, one per heavy sweep.
    pub invariant_passes: u64,
    /// Heavy epoch sweeps performed.
    pub heavy_sweeps: u64,
    /// The next heavy-sweep boundary.
    clock: EpochClock,
    /// Highest VSID-allocator generation seen (must never decrease).
    last_generation: u32,
    /// TLB and BAT hits already folded into `checked_observations`.
    hits_folded: u64,
    /// The kernel's scheduler/MM version at the last invariant evaluation.
    invariants_seen: Option<u64>,
    /// PTEG count of the hash table at the last heavy sweep (0 before the
    /// first and after a resize: the next sweep is full).
    swept_groups: u32,
    /// The table's valid entries and full PTEGs at the last heavy sweep: a
    /// partial sweep moves them by each written PTEG's change.
    swept_valid: u32,
    swept_full: u32,
    /// The VSID scatter constant has been retuned: a later context may
    /// reuse a retired VSID whose zombies a partial sweep would not revisit,
    /// so every sweep from then on is full.
    rescattered: bool,
    /// Fingerprint of the invariants' inputs at the last evaluation, which
    /// a skipped evaluation must still match.
    #[cfg(debug_assertions)]
    inputs_fingerprint: u64,
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
            hits_folded: 0,
            invariants_seen: None,
            swept_groups: 0,
            swept_valid: 0,
            swept_full: 0,
            rescattered: false,
            #[cfg(debug_assertions)]
            inputs_fingerprint: 0,
        }
    }

    /// The first cycle at which the checker has work: at once when the
    /// invariants' inputs changed since their last evaluation, else the
    /// heavy-sweep boundary.
    pub(crate) fn next_poll(&self, sched_mm_version: u64) -> Cycles {
        if self.cfg.invariants && self.invariants_seen != Some(sched_mm_version) {
            0
        } else {
            self.clock.next()
        }
    }
}

/// Whether every address of BAT block `b` passes [`Kernel::check_on_bat_hit`]:
/// the block lies in the kernel linear map, maps it to its physical image
/// and is cacheable, or lies in the I/O aperture, maps it identity and is
/// cache-inhibited.
fn bat_block_is_legal(b: &BatEntry) -> bool {
    let (start, end) = (b.ea_base, u64::from(b.ea_base) + u64::from(b.len_bytes));
    let within = |base: u32, len: u32| base <= start && end <= u64::from(base) + u64::from(len);
    if within(KERNEL_VIRT_BASE, RAM_BYTES) {
        b.cached && b.pa_base == b.ea_base - KERNEL_VIRT_BASE
    } else if within(IO_VIRT_BASE, IO_BYTES) {
        !b.cached && b.pa_base == b.ea_base
    } else {
        false
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

    /// Reports a disagreement between a skipped (incremental) check and the
    /// same check made in full — a checker bug, or a kernel mutation that
    /// forgot its mark or version bump. Debug builds only.
    ///
    /// # Panics
    ///
    /// Always.
    #[cfg(debug_assertions)]
    fn check_diverged(&self, msg: &str) -> ! {
        let context = self.check_context();
        panic!("MM incremental check diverged from the full check: {msg}\n  [{context}]");
    }

    /// The checker's part of a poll: the cheap invariants when their inputs
    /// changed or a heavy sweep is due, then the heavy sweep when the epoch
    /// boundary has been crossed. Takes the checker out while working (same
    /// discipline as `tune_epoch`): a taken-out checker makes re-entry
    /// impossible.
    pub(crate) fn check_transition(&mut self) {
        let Some(mut c) = self.check.take() else {
            return;
        };
        let now = self.machine.cycles;
        let due = c.clock.due(now);
        if c.cfg.invariants {
            if due || c.invariants_seen != Some(self.sched_mm_version) {
                self.check_invariants(&mut c);
            } else {
                #[cfg(debug_assertions)]
                self.cross_check_skipped_invariants(&mut c);
            }
        }
        if due {
            c.clock.advance(now);
            c.heavy_sweeps += 1;
            self.heavy_sweep(&mut c, false);
        }
        self.fold_hits(&mut c);
        self.check = Some(c);
    }

    /// Debug builds: the checker part of a skipped poll. No heavy sweep was
    /// due, the invariants' inputs had not changed, and the skipped
    /// invariant evaluation agrees with a full one.
    ///
    /// # Panics
    ///
    /// With `poll skipped with work due` when a heavy sweep or an invariant
    /// evaluation was due (a simulator-internal invariant, see
    /// `Kernel::cross_check_skipped_poll`), and as
    /// [`Kernel::check_diverged`] does.
    #[cfg(debug_assertions)]
    pub(crate) fn check_cross_check_skipped_poll(&mut self) {
        let Some(mut c) = self.check.take() else {
            return;
        };
        let now = self.machine.cycles;
        assert!(
            c.next_poll(self.sched_mm_version) > now,
            "poll skipped with work due: the checker at cycle {now}"
        );
        if c.cfg.invariants {
            self.cross_check_skipped_invariants(&mut c);
        }
        self.check = Some(c);
    }

    /// Runs the heavy structural sweep in full and the invariants once over
    /// the final state, and brings `checked_observations` up to date (call
    /// at the end of a checked run; no-op when checking is off).
    pub fn check_finish(&mut self) {
        let Some(mut c) = self.check.take() else {
            return;
        };
        c.heavy_sweeps += 1;
        self.heavy_sweep(&mut c, true);
        if c.cfg.invariants {
            self.check_invariants(&mut c);
        }
        self.fold_hits(&mut c);
        self.check = Some(c);
        self.schedule_poll();
    }

    /// Folds the TLB and BAT hits since the last fold into
    /// `checked_observations`: every such hit was audited when the kernel
    /// served its miss, or covered by its translation's audit mark. The
    /// machine's total survives counter resets, so folding late loses
    /// nothing.
    fn fold_hits(&self, c: &mut CheckState) {
        let hits = self.machine.translation_hits();
        c.checked_observations += hits - c.hits_folded;
        c.hits_folded = hits;
    }

    /// Evaluates the cheap invariants, reporting any violation, and records
    /// the scheduler/MM version they were evaluated at.
    fn check_invariants(&self, c: &mut CheckState) {
        if let Some(v) = self.invariant_violation(&mut c.last_generation) {
            self.check_fail(&v);
        }
        c.invariant_passes += 1;
        c.invariants_seen = Some(self.sched_mm_version);
        #[cfg(debug_assertions)]
        {
            c.inputs_fingerprint = self.invariant_inputs_fingerprint();
        }
    }

    /// Debug builds: a skipped evaluation is made in full anyway, and the
    /// invariants' inputs must be exactly those of the last evaluation.
    #[cfg(debug_assertions)]
    fn cross_check_skipped_invariants(&self, c: &mut CheckState) {
        if self.invariant_inputs_fingerprint() != c.inputs_fingerprint {
            self.check_diverged(
                "the invariants' inputs changed without a scheduler/MM version bump",
            );
        }
        if let Some(v) = self.invariant_violation(&mut c.last_generation) {
            self.check_diverged(&format!("a skipped invariant evaluation fails: {v}"));
        }
    }

    /// A digest of everything [`Kernel::invariant_violation`] reads.
    #[cfg(debug_assertions)]
    fn invariant_inputs_fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.run_queue.hash(&mut h);
        self.sched_mutation_depth.hash(&mut h);
        self.current.hash(&mut h);
        for t in &self.tasks {
            std::mem::discriminant(&t.state).hash(&mut h);
            t.frames.len().hash(&mut h);
            for v in &t.vsids {
                (v.raw(), self.vsids.is_live(*v)).hash(&mut h);
            }
        }
        for v in self.machine.mmu.segments.snapshot() {
            v.raw().hash(&mut h);
        }
        self.vsids.generation().hash(&mut h);
        h.finish()
    }

    /// The cheap invariant set.
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

    /// One heavy sweep, `full` or over what changed since the last sweep,
    /// reporting any violation. A passing sweep clears the PTEG marks. Debug
    /// builds make a partial sweep in full as well and require the same
    /// verdict.
    fn heavy_sweep(&mut self, c: &mut CheckState, full: bool) {
        let groups = self.htab.hash().num_groups();
        let full = full || c.rescattered || groups != c.swept_groups;
        let verdict = self.heavy_sweep_violation(c, full);
        #[cfg(debug_assertions)]
        if !full {
            if let Some(whole) = self.heavy_sweep_violation(c, true) {
                if verdict.is_none() {
                    self.check_diverged(&format!("a partial sweep missed: {whole}"));
                }
            } else if let Some(v) = &verdict {
                self.check_diverged(&format!("only the partial sweep reports: {v}"));
            }
        }
        if let Some(v) = verdict {
            self.check_fail(&v);
        }
        self.htab.clear_written_marks();
        c.swept_groups = groups;
        (c.swept_valid, c.swept_full) = (self.htab.valid_entries(), self.htab.full_groups());
    }

    /// The heavy sweep: containment of resident translations in the oracle,
    /// and hash-table structural self-consistency. A partial sweep visits
    /// the unaudited TLB slots and the PTEGs on the table's written list;
    /// everything else passed an earlier sweep or audit and has not changed
    /// since.
    fn heavy_sweep_violation(&self, c: &CheckState, full: bool) -> Option<String> {
        let htab = &self.htab;
        // The visited PTEGs, each with its valid count at the last sweep as
        // far as the occupancy sum needs it: every PTEG (counted from 0) on
        // a full sweep, the written ones (with their counts when marked) on
        // a partial one.
        let groups = || {
            let every = 0..if full { htab.hash().num_groups() } else { 0 };
            let written = htab.written_groups().filter(move |_| !full);
            every.map(|g| (g, 0)).chain(written)
        };
        let visited = || {
            groups()
                .flat_map(move |(g, _)| {
                    let group = htab.group(g);
                    (0..group.len()).map(move |s| (g, s, group[s]))
                })
                .filter(|(_, _, pte)| pte.valid)
        };
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
                let entries: &mut dyn Iterator<Item = _> = if full {
                    &mut tlb.entries()
                } else {
                    &mut tlb.unaudited_entries()
                };
                for e in entries.filter(|e| live(e.vsid)) {
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
            for (_, _, pte) in visited().filter(|(_, _, p)| live(p.vsid)) {
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
            let hash = htab.hash();
            for (g, s, pte) in visited() {
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
            // Occupancy: the table's per-group counts agree with the group
            // contents, and its totals with the per-group counts — summed
            // over every PTEG, or the last sweep's totals moved by each
            // written PTEG's change since it was marked.
            let is_full = |n: u32| i64::from(n as usize == ppc_mmu::htab::PTES_PER_GROUP);
            let (mut sum, mut full_groups) = if full {
                (0, 0)
            } else {
                (i64::from(c.swept_valid), i64::from(c.swept_full))
            };
            for (g, base) in groups() {
                let count = htab.group_valid(g);
                let actual = htab.group(g).iter().filter(|p| p.valid).count() as u32;
                if actual != count {
                    return Some(format!(
                        "htab occupancy: group {g} holds {actual} valid entries, \
                         its count says {count}"
                    ));
                }
                sum += i64::from(count) - i64::from(base);
                full_groups += is_full(count) - is_full(base);
            }
            if sum != i64::from(htab.valid_entries()) {
                return Some(format!(
                    "htab occupancy: group counts sum to {sum}, valid_entries says {}",
                    htab.valid_entries()
                ));
            }
            if full_groups != i64::from(htab.full_groups()) {
                return Some(format!(
                    "htab occupancy: group counts show {full_groups} full groups, \
                     full_groups says {}",
                    htab.full_groups()
                ));
            }
        }
        None
    }

    // ---- scheduler/MM version -------------------------------------------

    /// Records a change to something the cheap invariants read: the run
    /// queue, the current task, a task's state, frames or VSIDs, the segment
    /// registers, the VSID allocator or the scheduler-mutation depth.
    /// Integer bookkeeping, maintained whether or not a checker is armed;
    /// an armed checker is then due at the next span transition.
    #[inline]
    pub(crate) fn check_note_sched_change(&mut self) {
        self.sched_mm_version = self.sched_mm_version.wrapping_add(1);
        if self.check.is_some() {
            self.next_poll = 0;
        }
    }

    /// Records a hash-table resize: the written list and the last sweep's
    /// totals describe the old geometry, so the next sweep is full.
    pub(crate) fn check_note_resize(&mut self) {
        if let Some(c) = self.check.as_mut() {
            c.swept_groups = 0;
        }
    }

    /// Records a VSID scatter retune (see [`CheckState`]'s `rescattered`).
    pub(crate) fn check_note_rescatter(&mut self) {
        self.check_note_sched_change();
        if let Some(c) = self.check.as_mut() {
            c.rescattered = true;
        }
    }

    // ---- oracle mutation mirrors (called at the kernel's mutation sites) --

    /// Mirrors a translation install into the oracle. Reinstalling a key
    /// with a different translation changes legality: every audit mark goes
    /// and the key's PTEGs are swept again.
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
                let entry = ShadowEntry {
                    rpn: pfn,
                    writable,
                    cached,
                };
                let old = c.oracle.install(va.vsid, va.page_index, entry);
                if old.is_some_and(|old| old != entry) {
                    self.machine.mmu.clear_audit_marks();
                    self.htab.mark_key_written(va.vsid, va.page_index);
                }
            }
        }
    }

    /// Mirrors a single-page flush into the oracle (see
    /// [`Kernel::check_note_install`] for the marks).
    #[inline]
    pub(crate) fn check_note_flush_page(&mut self, vsid: Vsid, page_index: u32) {
        if let Some(c) = self.check.as_mut() {
            if c.cfg.oracle && c.oracle.flush_page(vsid, page_index) {
                self.machine.mmu.clear_audit_marks();
                self.htab.mark_key_written(vsid, page_index);
            }
        }
    }

    /// Mirrors a whole-context retirement into the oracle. Called *before*
    /// the kernel bumps the VSIDs, so a kernel that forgets the bump (the
    /// deliberate `MMU_TRICKS_BUG_STALE_TLB` bug) leaves resident
    /// translations the oracle now holds illegal — caught at the next hit,
    /// since the retirement also clears every audit mark.
    #[inline]
    pub(crate) fn check_note_retire(&mut self, vsids: &[Vsid]) {
        if let Some(c) = self.check.as_mut() {
            if c.cfg.oracle {
                let htab = &mut self.htab;
                let removed = c
                    .oracle
                    .retire_vsids(vsids, |vsid, page| htab.mark_key_written(vsid, page));
                if removed > 0 {
                    self.machine.mmu.clear_audit_marks();
                }
            }
        }
    }

    // ---- positive-observation cross-checks --------------------------------

    /// Audits a TLB hit for `ea` against the oracle, then marks the slot so
    /// the audited instance serves its later hits.
    #[inline]
    pub(crate) fn check_on_tlb_hit(
        &mut self,
        ea: EffectiveAddress,
        at: AccessType,
        pa: PhysAddr,
        cached: bool,
        writable: bool,
    ) {
        let Some(c) = self.check.as_ref() else { return };
        let va = self.machine.mmu.segments.translate(ea);
        let side = if at.is_data() { "dtlb" } else { "itlb" };
        if c.cfg.oracle {
            if let Some(v) = c.oracle.check_observation(
                format_args!("{side} hit for ea={:#x}", ea.0),
                va.vsid,
                va.page_index,
                pa >> 12,
                writable,
                cached,
            ) {
                self.check_fail(&v);
            }
        }
        let mmu = &mut self.machine.mmu;
        let tlb = if at.is_data() {
            &mut mmu.dtlb
        } else {
            &mut mmu.itlb
        };
        tlb.mark_audited(va.vsid, va.page_index);
    }

    /// Audits a hash-table hit against the oracle.
    #[inline]
    pub(crate) fn check_on_htab_hit(&mut self, va: VirtualAddress, pte: &Pte) {
        let Some(c) = self.check.as_ref() else { return };
        if c.cfg.oracle {
            if let Some(v) = c.oracle.check_observation(
                "htab hit",
                va.vsid,
                va.page_index,
                pte.rpn,
                pte.pp == 2,
                !pte.cache_inhibited,
            ) {
                self.check_fail(&v);
            }
        }
        if let Some(c) = self.check.as_mut() {
            c.checked_observations += 1;
        }
    }

    /// Audits a BAT match: BATs cover exactly the kernel linear map
    /// (identity minus the virtual base, cacheable) and the I/O aperture
    /// (identity, cache-inhibited). A register whose whole block passes is
    /// marked, so the audited instance serves its later matches.
    #[inline]
    pub(crate) fn check_on_bat_hit(
        &mut self,
        ea: EffectiveAddress,
        at: AccessType,
        pa: PhysAddr,
        cached: bool,
    ) {
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
        self.machine
            .mmu
            .bats
            .mark_audited(at.is_data(), ea, bat_block_is_legal);
    }

    // ---- scheduler-mutation bracketing ------------------------------------

    /// Marks entry into a scheduler mutation (context switch / teardown):
    /// SchedInv clauses are suspended until the matching exit.
    #[inline]
    pub(crate) fn check_sched_enter(&mut self) {
        self.sched_mutation_depth += 1;
        self.check_note_sched_change();
    }

    /// Marks exit from a scheduler mutation.
    #[inline]
    pub(crate) fn check_sched_exit(&mut self) {
        debug_assert!(self.sched_mutation_depth > 0);
        self.sched_mutation_depth -= 1;
        self.check_note_sched_change();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bat_blocks_are_legal_only_inside_one_aperture() {
        let linear = BatEntry::new(KERNEL_VIRT_BASE, 0, RAM_BYTES, true);
        assert!(bat_block_is_legal(&linear));
        let uncached = BatEntry {
            cached: false,
            ..linear
        };
        assert!(!bat_block_is_legal(&uncached));
        let shifted = BatEntry::new(KERNEL_VIRT_BASE, RAM_BYTES, RAM_BYTES, true);
        assert!(!bat_block_is_legal(&shifted), "mistranslated block");
        let past_ram = BatEntry::new(KERNEL_VIRT_BASE, 0, 2 * RAM_BYTES, true);
        assert!(
            !bat_block_is_legal(&past_ram),
            "block overhangs the linear map"
        );
        let io = BatEntry::new(IO_VIRT_BASE, IO_VIRT_BASE, IO_BYTES, false);
        assert!(bat_block_is_legal(&io));
        assert!(!bat_block_is_legal(&BatEntry { cached: true, ..io }));
        let user = BatEntry::new(0x1000_0000, 0, RAM_BYTES, true);
        assert!(!bat_block_is_legal(&user));
    }
}
