//! The machine: MMU + memory system + cycle accumulator.

use ppc_cache::hierarchy::MemSystem;
use ppc_mmu::addr::{phys, EffectiveAddress, PhysAddr, VirtualAddress, PAGE_SIZE};
use ppc_mmu::translate::Mmu;

use crate::config::MachineConfig;
use crate::monitor::MonitorSnapshot;
use crate::pmu::Pmu;
use crate::time::SimTime;
use crate::Cycles;

/// Outcome of a memory reference at the machine level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemRefOutcome {
    /// Translated and performed.
    Done {
        /// Physical address accessed.
        pa: PhysAddr,
    },
    /// The TLB missed and no reload source resolved it: a page fault the OS
    /// must service.
    Fault {
        /// The faulting virtual address.
        va: VirtualAddress,
    },
}

/// What a TLB-miss reload found, reported by the OS layer back to the
/// experiment harness for counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReloadOutcome {
    /// Found in the hash table (a hash-table hit on a TLB miss).
    HtabHit,
    /// Hash table missed; the Linux page-table tree supplied the PTE.
    LinuxPtHit,
    /// Neither held the mapping: a real page fault.
    PageFault,
}

/// One simulated machine: configuration, MMU state, cache state, and the
/// cycle clock.
///
/// The machine prices accesses but contains no OS policy; the kernel
/// simulator (`kernel-sim`) drives it and implements reload/fault paths.
///
/// # Examples
///
/// ```
/// use ppc_machine::{Machine, MachineConfig};
///
/// let mut m = Machine::new(MachineConfig::ppc604_185());
/// let before = m.cycles;
/// m.data_read_pa(0x4000, true);
/// assert!(m.cycles > before);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    /// The machine's static configuration.
    pub cfg: MachineConfig,
    /// MMU front end (segments, BATs, TLBs).
    pub mmu: Mmu,
    /// Memory hierarchy (L1 caches + bus).
    pub mem: MemSystem,
    /// The cycle clock.
    pub cycles: Cycles,
    /// The performance-monitor unit (paper §4's 604 hardware monitor).
    /// `None` on machines not being monitored — the PMU is pure bookkeeping
    /// and never changes timing, so absence and presence are cycle-identical.
    pub pmu: Option<Pmu>,
    /// Causal-profiling charge scale numerator. Every cycle charge is
    /// multiplied by `scale_num/scale_den` (floored) before it reaches the
    /// clock. At the default 1/1 `advance` short-circuits, so an unscaled
    /// machine is bit-for-bit identical to one that never heard of scaling.
    scale_num: u64,
    /// Causal-profiling charge scale denominator (never zero).
    scale_den: u64,
    /// TLB and BAT hits cleared by [`Machine::reset_stats`] so far (see
    /// [`Machine::translation_hits`]).
    hits_reset: u64,
}

impl Machine {
    /// Builds a cold machine (empty TLBs and caches, cycle clock at zero).
    pub fn new(cfg: MachineConfig) -> Self {
        Self {
            cfg,
            mmu: Mmu::new(cfg.mmu),
            mem: MemSystem::new(cfg.mem),
            cycles: 0,
            pmu: None,
            scale_num: 1,
            scale_den: 1,
            hits_reset: 0,
        }
    }

    /// Sets the causal charge scale: subsequent charges advance the clock by
    /// `floor(c * num / den)` instead of `c`. Only the clock is scaled —
    /// cache and TLB state evolve exactly as in an unscaled run, which is
    /// what makes a scaled run an exact what-if rather than a model fit.
    pub fn set_scale(&mut self, num: u64, den: u64) {
        assert!(den != 0, "charge scale denominator must be nonzero");
        self.scale_num = num;
        self.scale_den = den;
    }

    /// The current causal charge scale as `(num, den)`.
    pub fn scale(&self) -> (u64, u64) {
        (self.scale_num, self.scale_den)
    }

    /// Advances the clock by `c` through the causal multiplier and returns
    /// the cycles actually charged, so callers' returned costs always match
    /// observed clock deltas. Each charge floors independently (no remainder
    /// carry) — memoryless, hence deterministic, and exact at 1/1 and at
    /// num = 0, the two cases the identity and zeroing gates rely on.
    #[inline]
    fn advance(&mut self, c: Cycles) -> Cycles {
        let c = if self.scale_num == self.scale_den {
            c
        } else {
            ((c as u128 * self.scale_num as u128) / self.scale_den as u128) as Cycles
        };
        self.cycles += c;
        c
    }

    /// Synchronises the PMU (if installed) with the machine counters: the
    /// window since the last sync is counted into the PMCs under the given
    /// privilege state. A no-op without a PMU.
    pub fn pmu_sync(&mut self, supervisor: bool) {
        if self.pmu.is_some() {
            let now = self.snapshot();
            if let Some(pmu) = self.pmu.as_mut() {
                pmu.sync(&now, supervisor);
            }
        }
    }

    /// Adds raw cycles (pipeline work not tied to a memory reference).
    pub fn charge(&mut self, cycles: Cycles) {
        self.advance(cycles);
    }

    /// Advances the clock by `cycles` of pure *elapsed time* — waiting on
    /// something external (an I/O stall), not work the CPU performs.
    /// Deliberately bypasses the causal charge scale: a virtual speedup can
    /// make work cheaper, but it cannot make a device answer sooner. With
    /// the scale at its 1/1 default this is exactly [`Machine::charge`].
    pub fn wait(&mut self, cycles: Cycles) {
        self.cycles += cycles;
    }

    /// Executes `n` straight-line instructions whose fetch traffic is already
    /// accounted (or negligible): 1 cycle each.
    pub fn exec_insns(&mut self, n: u64) {
        self.advance(n);
    }

    /// Performs a data read at a known physical address.
    pub fn data_read_pa(&mut self, pa: PhysAddr, cached: bool) -> Cycles {
        let c = self.mem.data_read(pa, cached);
        self.advance(c)
    }

    /// Performs a data write at a known physical address.
    pub fn data_write_pa(&mut self, pa: PhysAddr, cached: bool) -> Cycles {
        let c = self.mem.data_write(pa, cached);
        self.advance(c)
    }

    /// The fused fast path for one data reference (DESIGN.md §16): BAT or
    /// TLB hit, cacheable, protection-clean, charge scale 1/1 — one flat
    /// function instead of the layered
    /// `Mmu::translate` → `Machine::charge` → `data_read_pa`/`data_write_pa`
    /// chain, committing *identical* state transitions (clock, TLB/BAT/cache
    /// counters, LRU, dirty bits) in the same order.
    ///
    /// Returns `None` — with **no** state mutated — whenever any fast-path
    /// condition fails (charge scale engaged, BAT/TLB translation missing or
    /// uncached, store through a read-only entry), so the caller's layered
    /// path re-runs the access and counts it exactly once. Once translation
    /// has committed, the cache access is the real [`MemSystem::data_read`]
    /// / [`MemSystem::data_write`]: a hit commits inline, and a miss takes
    /// the memory system's one miss tail (fills, evictions, writebacks).
    pub fn fused_data_ref(&mut self, ea: EffectiveAddress, write: bool) -> Option<Cycles> {
        self.fused_data_ref_as::<false>(ea, write)
    }

    /// [`Machine::fused_data_ref`] for a kernel whose consistency checker
    /// audits every translation: it also bails when the BAT register or TLB
    /// slot carries no audit mark, so the layered path can audit and mark
    /// it.
    pub fn fused_data_ref_audited(&mut self, ea: EffectiveAddress, write: bool) -> Option<Cycles> {
        self.fused_data_ref_as::<true>(ea, write)
    }

    /// The body of [`Machine::fused_data_ref`] and
    /// [`Machine::fused_data_ref_audited`], generic over auditing. Both
    /// instances are compiled in this crate, where the charge and
    /// memory-system calls they make inline.
    #[inline(always)]
    fn fused_data_ref_as<const AUDITED: bool>(
        &mut self,
        ea: EffectiveAddress,
        write: bool,
    ) -> Option<Cycles> {
        if self.scale_num != self.scale_den {
            return None;
        }
        let pa = match self.mmu.bats.probe_data(ea) {
            Some(hit) => {
                if !hit.cached || (AUDITED && !hit.audited) {
                    return None;
                }
                self.mmu.bats.dbat_hits += 1;
                hit.pa
            }
            None => {
                let va = self.mmu.segments.translate(ea);
                let (idx, e) = self.mmu.dtlb.peek(va.vsid, va.page_index)?;
                if !e.cached || (write && !e.writable) || (AUDITED && !self.mmu.dtlb.audited(idx)) {
                    return None;
                }
                self.mmu.dtlb.commit_hit(idx);
                phys(e.rpn, va.offset)
            }
        };
        // Translation is committed; the cache access is the layered one
        // (a hit inline, a miss through the memory system's miss tail), and
        // at charge scale 1/1 its cost and the reference's own cycle reach
        // the clock unscaled.
        let cost = 1 + if write {
            self.mem.data_write(pa, true)
        } else {
            self.mem.data_read(pa, true)
        };
        self.cycles += cost;
        Some(cost)
    }

    /// The fused fast path for a straight-line instruction fetch within one
    /// page: the I-side twin of [`Machine::fused_data_ref`]. Same bail-out
    /// contract (`None` mutates nothing); after the translation commits,
    /// each line is one real [`MemSystem::insn_fetch`].
    ///
    /// # Panics
    ///
    /// Panics if the fetch crosses a page boundary (callers split at pages,
    /// exactly like the layered `exec_code` loop).
    pub fn fused_exec_code(&mut self, ea: EffectiveAddress, n_insns: u32) -> Option<Cycles> {
        self.fused_exec_code_as::<false>(ea, n_insns)
    }

    /// [`Machine::fused_exec_code`] serving only audited translations, like
    /// [`Machine::fused_data_ref_audited`].
    ///
    /// # Panics
    ///
    /// As [`Machine::fused_exec_code`].
    pub fn fused_exec_code_audited(
        &mut self,
        ea: EffectiveAddress,
        n_insns: u32,
    ) -> Option<Cycles> {
        self.fused_exec_code_as::<true>(ea, n_insns)
    }

    /// The body of [`Machine::fused_exec_code`] and
    /// [`Machine::fused_exec_code_audited`] (see
    /// [`Machine::fused_data_ref_as`]).
    #[inline(always)]
    fn fused_exec_code_as<const AUDITED: bool>(
        &mut self,
        ea: EffectiveAddress,
        n_insns: u32,
    ) -> Option<Cycles> {
        if self.scale_num != self.scale_den {
            return None;
        }
        let pa = match self.mmu.bats.probe_insn(ea) {
            Some(hit) => {
                if !hit.cached || (AUDITED && !hit.audited) {
                    return None;
                }
                self.mmu.bats.ibat_hits += 1;
                hit.pa
            }
            None => {
                let va = self.mmu.segments.translate(ea);
                let (idx, e) = self.mmu.itlb.peek(va.vsid, va.page_index)?;
                if !e.cached || (AUDITED && !self.mmu.itlb.audited(idx)) {
                    return None;
                }
                self.mmu.itlb.commit_hit(idx);
                phys(e.rpn, va.offset)
            }
        };
        let bytes = n_insns * 4;
        assert!(
            (pa & (PAGE_SIZE - 1)) + bytes <= PAGE_SIZE,
            "fused fetch must not cross a page"
        );
        let line = self.mem.icache.config().line_bytes;
        let mut fetched: Cycles = 0;
        let mut a = pa & !(line - 1);
        while a < pa + bytes {
            fetched += self.mem.insn_fetch(a, true);
            a += line;
        }
        let total = fetched + n_insns as Cycles;
        self.cycles += total;
        Some(total)
    }

    /// Fetches instructions from a known physical address, one access per
    /// cache line covered by `n_insns` 4-byte instructions, plus 1 cycle per
    /// instruction of pipeline work.
    pub fn exec_code_pa(&mut self, pa: PhysAddr, n_insns: u32, cached: bool) -> Cycles {
        let line = self.mem.icache.config().line_bytes;
        let bytes = n_insns * 4;
        let mut fetched = 0;
        let mut a = pa & !(line - 1);
        while a < pa + bytes {
            fetched += self.mem.insn_fetch(a, cached);
            a += line;
        }
        let total = fetched + n_insns as Cycles;
        self.advance(total)
    }

    /// Zeroes one page at `page_pa`, through or around the cache (paper §9).
    pub fn zero_page_pa(&mut self, page_pa: PhysAddr, through_cache: bool) -> Cycles {
        let c = self.mem.zero_page(page_pa, PAGE_SIZE, through_cache);
        self.advance(c)
    }

    /// Zeroes one page with ordinary cached stores (the non-`dcbz`
    /// `clear_page()` the paper's kernel used, §9).
    pub fn zero_page_stores_pa(&mut self, page_pa: PhysAddr) -> Cycles {
        let c = self.mem.zero_page_stores(page_pa, PAGE_SIZE);
        self.advance(c)
    }

    /// Copies `bytes` between two physical regions through the data cache
    /// (read each source line, write each destination line), modelling
    /// kernel `copy_to/from_user` and pipe buffer copies. Costs loop cycles
    /// plus the cache traffic.
    pub fn copy_pa(&mut self, src: PhysAddr, dst: PhysAddr, bytes: u32, cached: bool) -> Cycles {
        if cached {
            let c = self.mem.copy_range(src, dst, bytes);
            return self.advance(c);
        }
        let line = self.mem.dcache.config().line_bytes;
        let mut c: Cycles = 0;
        let mut off = 0;
        while off < bytes {
            c += self.mem.data_read(src + off, cached);
            c += self.mem.data_write(dst + off, cached);
            // Two loop iterations of address arithmetic per line.
            c += 2;
            off += line;
        }
        self.advance(c)
    }

    /// The current simulated time.
    pub fn time(&self) -> SimTime {
        SimTime::new(self.cycles, self.cfg.clock_mhz)
    }

    /// Converts a cycle delta to time on this machine's clock.
    pub fn time_of(&self, cycles: Cycles) -> SimTime {
        SimTime::new(cycles, self.cfg.clock_mhz)
    }

    /// Snapshot of every hardware counter (the 604 performance monitor /
    /// 603 software counters, paper §4).
    pub fn snapshot(&self) -> MonitorSnapshot {
        MonitorSnapshot {
            cycles: self.cycles,
            itlb: *self.mmu.itlb.stats(),
            dtlb: *self.mmu.dtlb.stats(),
            icache: *self.mem.icache.stats(),
            dcache: *self.mem.dcache.stats(),
            ibat_hits: self.mmu.bats.ibat_hits,
            dbat_hits: self.mmu.bats.dbat_hits,
        }
    }

    /// TLB and BAT hits since boot, [`Machine::reset_stats`] or not: an
    /// observer that folds them in lazily never sees the total move
    /// backward.
    pub fn translation_hits(&self) -> u64 {
        let mmu = &self.mmu;
        self.hits_reset
            + mmu.itlb.stats().hits
            + mmu.dtlb.stats().hits
            + mmu.bats.ibat_hits
            + mmu.bats.dbat_hits
    }

    /// Clears all statistics counters (but not TLB/cache *state*), so an
    /// experiment can measure a steady-state window. An armed PMU's open
    /// window is carried across the clearing ([`Pmu::rebase`]), so its
    /// deferred sync still counts every event of it.
    pub fn reset_stats(&mut self) {
        let before = self.snapshot();
        self.hits_reset = self.translation_hits();
        self.mmu.itlb.reset_stats();
        self.mmu.dtlb.reset_stats();
        self.mem.reset_stats();
        self.mmu.bats.ibat_hits = 0;
        self.mmu.bats.dbat_hits = 0;
        let after = self.snapshot();
        if let Some(pmu) = self.pmu.as_mut() {
            pmu.rebase(&before, &after);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    #[test]
    fn exec_code_charges_fetch_plus_pipeline() {
        let mut m = Machine::new(MachineConfig::ppc603_133());
        // 16 instructions = 64 bytes = 2 cache lines, cold.
        let c = m.exec_code_pa(0x1000, 16, true);
        let fill = m.mem.bus.line_fill;
        assert_eq!(c, 2 * fill + 16);
        // Second run hits the icache.
        let c2 = m.exec_code_pa(0x1000, 16, true);
        assert_eq!(c2, 2 * m.mem.icache.config().hit_cycles + 16);
    }

    #[test]
    fn exec_code_unaligned_start_spans_extra_line() {
        let mut m = Machine::new(MachineConfig::ppc603_133());
        // 8 instructions starting 16 bytes into a line cover 2 lines.
        m.exec_code_pa(0x1010, 8, true);
        assert_eq!(m.mem.icache.stats().misses, 2);
    }

    #[test]
    fn copy_reads_source_and_writes_destination() {
        let mut m = Machine::new(MachineConfig::ppc604_185());
        m.copy_pa(0x10000, 0x20000, 4096, true);
        let d = m.mem.dcache.stats();
        assert_eq!(d.accesses, 2 * 4096 / 32);
        assert!(m.mem.dcache.contains(0x10000));
        assert!(m.mem.dcache.contains(0x20000));
    }

    #[test]
    fn zero_page_cached_vs_uncached() {
        let mut a = Machine::new(MachineConfig::ppc603_133());
        let mut b = Machine::new(MachineConfig::ppc603_133());
        a.zero_page_pa(0x4000, true);
        b.zero_page_pa(0x4000, false);
        assert!(a.mem.dcache.resident_lines() > 0);
        assert_eq!(b.mem.dcache.resident_lines(), 0);
    }

    #[test]
    fn snapshot_delta_counts_window() {
        let mut m = Machine::new(MachineConfig::ppc604_185());
        m.data_read_pa(0, true);
        let s1 = m.snapshot();
        m.data_read_pa(0x10000, true);
        let s2 = m.snapshot();
        let d = s2.delta(&s1);
        assert_eq!(d.dcache.accesses, 1);
        assert!(d.cycles > 0);
    }

    #[test]
    fn scale_halves_charges_and_returns_charged_amount() {
        let mut m = Machine::new(MachineConfig::ppc604_185());
        m.set_scale(1, 2);
        let before = m.cycles;
        m.charge(100);
        assert_eq!(m.cycles - before, 50);
        // Returned cost equals the clock delta, not the unscaled cost.
        let c0 = m.cycles;
        let c = m.data_read_pa(0x4000, true);
        assert_eq!(c, m.cycles - c0);
    }

    /// A machine with one resident, writable, cached data+insn translation
    /// for page 3 (rpn 0x40), ready for fast-path probes.
    fn resident(cfg: MachineConfig) -> Machine {
        use ppc_mmu::tlb::TlbEntry;
        use ppc_mmu::translate::AccessType;
        let mut m = Machine::new(cfg);
        let e = TlbEntry {
            vsid: ppc_mmu::addr::Vsid::new(0),
            page_index: 3,
            rpn: 0x40,
            cached: true,
            writable: true,
        };
        m.mmu.reload(AccessType::DataRead, e);
        m.mmu.reload(AccessType::InsnFetch, e);
        m
    }

    #[test]
    fn fused_data_ref_matches_layered_on_hits_and_misses() {
        use ppc_mmu::translate::{AccessType, Translation};
        for write in [false, true] {
            let mut f = resident(MachineConfig::ppc604_133());
            let mut l = resident(MachineConfig::ppc604_133());
            let ea = EffectiveAddress(3 << 12 | 0x40);
            // First access: translation hits, cache misses (fused tail
            // delegates); second: everything hits (flat fused path).
            for _ in 0..2 {
                let cf = f.fused_data_ref(ea, write).expect("resident page must fuse");
                let (pa, cached) = match l.mmu.translate(ea, AccessType::DataRead) {
                    Translation::TlbHit { pa, cached, .. } => (pa, cached),
                    t => panic!("layered reference must TLB-hit, got {t:?}"),
                };
                l.charge(1);
                let cl = 1 + if write {
                    l.data_write_pa(pa, cached)
                } else {
                    l.data_read_pa(pa, cached)
                };
                assert_eq!(cf, cl, "fused cost diverged (write={write})");
                assert_eq!(f.snapshot(), l.snapshot(), "counters diverged (write={write})");
            }
        }
    }

    #[test]
    fn fused_exec_code_matches_layered() {
        use ppc_mmu::translate::{AccessType, Translation};
        let mut f = resident(MachineConfig::ppc603_133());
        let mut l = resident(MachineConfig::ppc603_133());
        // 16 insns starting 16 bytes into a line: spans 3 lines, cold then
        // warm, exactly like the layered exec_code_pa tests above.
        let ea = EffectiveAddress(3 << 12 | 0x10);
        for _ in 0..2 {
            let cf = f.fused_exec_code(ea, 16).expect("resident page must fuse");
            let (pa, cached) = match l.mmu.translate(ea, AccessType::InsnFetch) {
                Translation::TlbHit { pa, cached, .. } => (pa, cached),
                t => panic!("layered reference must TLB-hit, got {t:?}"),
            };
            let cl = l.exec_code_pa(pa, 16, cached);
            assert_eq!(cf, cl, "fused fetch cost diverged");
            assert_eq!(f.snapshot(), l.snapshot(), "counters diverged");
        }
    }

    #[test]
    fn fused_bails_are_stat_neutral() {
        // TLB miss: nothing resident at page 9.
        let mut m = resident(MachineConfig::ppc604_133());
        let before = m.snapshot();
        assert!(m.fused_data_ref(EffectiveAddress(9 << 12), false).is_none());
        assert!(m.fused_exec_code(EffectiveAddress(9 << 12), 4).is_none());
        assert_eq!(m.snapshot(), before, "a bail must not move any counter");

        // Store through a read-only entry (copy-on-write territory).
        let mut m = Machine::new(MachineConfig::ppc604_133());
        m.mmu.reload(
            ppc_mmu::translate::AccessType::DataRead,
            ppc_mmu::tlb::TlbEntry {
                vsid: ppc_mmu::addr::Vsid::new(0),
                page_index: 3,
                rpn: 0x40,
                cached: true,
                writable: false,
            },
        );
        let before = m.snapshot();
        assert!(m.fused_data_ref(EffectiveAddress(3 << 12), true).is_none());
        assert_eq!(m.snapshot(), before);

        // An engaged causal charge scale forces the layered path entirely.
        let mut m = resident(MachineConfig::ppc604_133());
        m.set_scale(1, 2);
        let before = m.snapshot();
        assert!(m.fused_data_ref(EffectiveAddress(3 << 12), false).is_none());
        assert!(m.fused_exec_code(EffectiveAddress(3 << 12), 4).is_none());
        assert_eq!(m.snapshot(), before);
    }

    #[test]
    fn audited_fused_path_serves_only_marked_translations() {
        use ppc_mmu::addr::Vsid;
        use ppc_mmu::bat::BatEntry;
        let mut m = resident(MachineConfig::ppc604_133());
        let ea = EffectiveAddress(3 << 12);
        let before = m.snapshot();
        assert!(m.fused_data_ref_audited(ea, false).is_none());
        assert!(m.fused_exec_code_audited(ea, 4).is_none());
        assert_eq!(
            m.snapshot(),
            before,
            "an unmarked slot bails stat-neutrally"
        );
        m.mmu.dtlb.mark_audited(Vsid::new(0), 3);
        m.mmu.itlb.mark_audited(Vsid::new(0), 3);
        assert!(m.fused_data_ref_audited(ea, false).is_some());
        assert!(m.fused_exec_code_audited(ea, 4).is_some());
        m.mmu.clear_audit_marks();
        assert!(m.fused_data_ref_audited(ea, false).is_none());

        // A BAT register serves the audited path once its block is marked.
        let kea = EffectiveAddress(0xc000_0040);
        m.mmu
            .bats
            .set_dbat(0, Some(BatEntry::new(0xc000_0000, 0, 8 << 20, true)));
        assert!(m.fused_data_ref_audited(kea, false).is_none());
        m.mmu.bats.mark_audited(true, kea, |_| true);
        assert!(m.fused_data_ref_audited(kea, false).is_some());
    }

    #[test]
    fn scale_floors_each_charge_independently() {
        let mut m = Machine::new(MachineConfig::ppc604_185());
        m.set_scale(1, 4);
        // floor(3/4) + floor(3/4) = 0, not floor(6/4) = 1: no remainder carry.
        m.charge(3);
        m.charge(3);
        assert_eq!(m.cycles, 0);
    }

    #[test]
    fn scale_one_to_one_is_identity_and_zero_num_freezes_clock() {
        let mut a = Machine::new(MachineConfig::ppc603_133());
        let mut b = Machine::new(MachineConfig::ppc603_133());
        b.set_scale(7, 7);
        a.exec_code_pa(0x1000, 16, true);
        b.exec_code_pa(0x1000, 16, true);
        assert_eq!(a.cycles, b.cycles);

        let mut z = Machine::new(MachineConfig::ppc603_133());
        z.set_scale(0, 1);
        let c = z.exec_code_pa(0x1000, 16, true);
        assert_eq!((c, z.cycles), (0, 0));
        // Cache state still evolved: only the clock was scaled.
        assert_eq!(z.mem.icache.stats().misses, 2);
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn scale_rejects_zero_denominator() {
        let mut m = Machine::new(MachineConfig::ppc604_185());
        m.set_scale(1, 0);
    }

    #[test]
    fn time_uses_machine_clock() {
        let mut m = Machine::new(MachineConfig::ppc604_200());
        m.charge(200);
        assert!((m.time().as_us() - 1.0).abs() < 1e-12);
    }
}
