//! The machine: MMU + memory system + cycle accumulator.

use ppc_cache::hierarchy::MemSystem;
use ppc_mmu::addr::{EffectiveAddress, PhysAddr, PAGE_SIZE};
use ppc_mmu::translate::{AccessType, Miss, Mmu};

use crate::config::MachineConfig;
use crate::monitor::MonitorSnapshot;
use crate::pmu::Pmu;
use crate::time::SimTime;
use crate::Cycles;

/// One simulated machine: configuration, MMU state, cache state, and the
/// cycle clock.
///
/// The machine prices accesses but contains no OS policy: a reference
/// either completes or returns the [`Miss`] it takes, and the kernel
/// simulator (`kernel-sim`) services the miss and executes it again.
///
/// # Examples
///
/// ```
/// use ppc_machine::{Machine, MachineConfig};
/// use ppc_mmu::{AccessType, EffectiveAddress, Miss};
/// use ppc_mmu::tlb::TlbEntry;
///
/// let mut m = Machine::new(MachineConfig::ppc604_185());
/// let ea = EffectiveAddress(0x3040);
/// let Err(Miss::Tlb { va }) = m.data_ref::<false>(ea, false) else {
///     panic!("a cold TLB misses");
/// };
/// assert_eq!(m.cycles, 0, "a miss charges nothing");
/// m.mmu.reload(AccessType::DataRead, TlbEntry {
///     vsid: va.vsid, page_index: va.page_index, rpn: 0x40, cached: true, writable: true,
/// });
/// let cost = m.data_ref::<false>(ea, false).unwrap();
/// assert_eq!(cost, m.cycles);
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

    /// One data reference (a load or, with `write`, a store of one word):
    /// translates `ea` ([`Mmu::translate`], audited with `AUDITED`), then
    /// performs the access through the memory system and charges it.
    /// Returns the cycles charged, which are exactly the clock's advance, or
    /// the [`Miss`] the reference takes, having charged nothing
    /// (DESIGN.md §16). A cache-inhibited mapping is no miss: the access
    /// bypasses the cache.
    ///
    /// The issue cycle and the access are two charges, so under a causal
    /// scale each floors on its own. Always inlined, translation and cache
    /// hit arm included, so the caller's first attempt is one flat body.
    #[inline(always)]
    pub fn data_ref<const AUDITED: bool>(
        &mut self,
        ea: EffectiveAddress,
        write: bool,
    ) -> Result<Cycles, Miss> {
        let at = if write {
            AccessType::DataWrite
        } else {
            AccessType::DataRead
        };
        let (pa, cached) = self.mmu.translate::<AUDITED>(ea, at)?;
        let access = if write {
            self.mem.data_write(pa, cached)
        } else {
            self.mem.data_read(pa, cached)
        };
        Ok(self.advance(1) + self.advance(access))
    }

    /// A straight-line fetch of `n_insns` instructions within one page: the
    /// fetch twin of [`Machine::data_ref`], charged once for the whole fetch
    /// as [`Machine::exec_code_pa`] charges it.
    ///
    /// # Panics
    ///
    /// Panics if the fetch crosses a page boundary (callers split at pages).
    #[inline(always)]
    pub fn exec_code<const AUDITED: bool>(
        &mut self,
        ea: EffectiveAddress,
        n_insns: u32,
    ) -> Result<Cycles, Miss> {
        let (pa, cached) = self.mmu.translate::<AUDITED>(ea, AccessType::InsnFetch)?;
        assert!(
            (pa & (PAGE_SIZE - 1)) + n_insns * 4 <= PAGE_SIZE,
            "a fetch must not cross a page"
        );
        let c = self.fetch(pa, n_insns, cached);
        Ok(self.advance(c))
    }

    /// Fetches instructions from a known physical address, one access per
    /// cache line covered by `n_insns` 4-byte instructions, plus 1 cycle per
    /// instruction of pipeline work.
    pub fn exec_code_pa(&mut self, pa: PhysAddr, n_insns: u32, cached: bool) -> Cycles {
        let c = self.fetch(pa, n_insns, cached);
        self.advance(c)
    }

    /// The unscaled cost of a fetch: [`Machine::exec_code_pa`] before its
    /// one charge.
    #[inline(always)]
    fn fetch(&mut self, pa: PhysAddr, n_insns: u32, cached: bool) -> Cycles {
        let line = self.mem.icache.config().line_bytes;
        let bytes = n_insns * 4;
        let mut fetched = 0;
        let mut a = pa & !(line - 1);
        while a < pa + bytes {
            fetched += self.mem.insn_fetch(a, cached);
            a += line;
        }
        fetched + n_insns as Cycles
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
    use ppc_mmu::addr::Vsid;
    use ppc_mmu::bat::BatEntry;
    use ppc_mmu::tlb::TlbEntry;

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

    /// A TLB entry for page `page_index` of VSID 0.
    fn entry(page_index: u32, rpn: u32, cached: bool, writable: bool) -> TlbEntry {
        TlbEntry {
            vsid: Vsid::new(0),
            page_index,
            rpn,
            cached,
            writable,
        }
    }

    /// A machine with one resident, writable, cached data+insn translation
    /// for page 3 (rpn 0x40).
    fn resident(cfg: MachineConfig) -> Machine {
        let mut m = Machine::new(cfg);
        m.mmu
            .reload(AccessType::DataRead, entry(3, 0x40, true, true));
        m.mmu
            .reload(AccessType::InsnFetch, entry(3, 0x40, true, true));
        m
    }

    #[test]
    fn snapshot_delta_counts_window() {
        let mut m = resident(MachineConfig::ppc604_185());
        m.data_ref::<false>(EffectiveAddress(3 << 12), false)
            .unwrap();
        let s1 = m.snapshot();
        m.data_ref::<false>(EffectiveAddress(3 << 12 | 0x800), false)
            .unwrap();
        let s2 = m.snapshot();
        let d = s2.delta(&s1);
        assert_eq!((d.dcache.accesses, d.dtlb.hits), (1, 1));
        assert!(d.cycles > 0);
    }

    #[test]
    fn scale_halves_charges_and_returns_charged_amount() {
        let mut m = resident(MachineConfig::ppc604_185());
        m.set_scale(1, 2);
        let before = m.cycles;
        m.charge(100);
        assert_eq!(m.cycles - before, 50);
        // Returned costs equal the clock delta, not the unscaled cost.
        let c0 = m.cycles;
        let c = m
            .data_ref::<false>(EffectiveAddress(3 << 12), false)
            .unwrap();
        assert_eq!(c, m.cycles - c0);
        let c0 = m.cycles;
        let c = m.exec_code::<false>(EffectiveAddress(3 << 12), 16).unwrap();
        assert_eq!(c, m.cycles - c0);
    }

    #[test]
    fn data_ref_charges_issue_cycle_plus_access() {
        // A completed reference costs one issue cycle plus the memory
        // system's price for its access, cold (the miss tail) and then warm,
        // and leaves the data cache as a bare memory system driven alike.
        let cfg = MachineConfig::ppc604_133();
        for write in [false, true] {
            let mut m = resident(cfg);
            let mut mem = MemSystem::new(cfg.mem);
            let (ea, pa) = (EffectiveAddress(3 << 12 | 0x40), 0x40 << 12 | 0x40);
            for _ in 0..2 {
                let access = if write {
                    mem.data_write(pa, true)
                } else {
                    mem.data_read(pa, true)
                };
                let c0 = m.cycles;
                assert_eq!(m.data_ref::<false>(ea, write), Ok(1 + access));
                assert_eq!(m.cycles - c0, 1 + access);
                assert_eq!(m.mem.dcache.stats(), mem.dcache.stats());
            }
            assert_eq!(m.mmu.dtlb.stats().hits, 2);
        }
    }

    #[test]
    fn exec_code_charges_like_exec_code_pa() {
        let mut m = resident(MachineConfig::ppc603_133());
        let mut pa_side = Machine::new(MachineConfig::ppc603_133());
        // 16 instructions starting 16 bytes into a line span 3 lines; cold,
        // then warm.
        let ea = EffectiveAddress(3 << 12 | 0x10);
        for _ in 0..2 {
            let c = pa_side.exec_code_pa(0x40 << 12 | 0x10, 16, true);
            assert_eq!(m.exec_code::<false>(ea, 16), Ok(c));
            assert_eq!(m.cycles, pa_side.cycles);
            assert_eq!(m.mem.icache.stats(), pa_side.mem.icache.stats());
        }
        assert_eq!(m.mmu.itlb.stats().hits, 2);
    }

    #[test]
    fn tlb_miss_counts_one_lookup_and_one_miss_and_charges_nothing() {
        let mut m = resident(MachineConfig::ppc604_133());
        let before = m.snapshot();
        let ea = EffectiveAddress(9 << 12 | 0x24);
        let miss = m.data_ref::<false>(ea, true);
        let Err(Miss::Tlb { va }) = miss else {
            panic!("expected a TLB miss, got {miss:?}");
        };
        assert_eq!((va.page_index, va.offset), (9, 0x24));
        assert!(matches!(m.exec_code::<true>(ea, 4), Err(Miss::Tlb { .. })));
        let d = m.snapshot().delta(&before);
        assert_eq!((d.dtlb.lookups, d.dtlb.misses, d.dtlb.hits), (1, 1, 0));
        assert_eq!((d.itlb.lookups, d.itlb.misses, d.itlb.hits), (1, 1, 0));
        assert_eq!(d.cycles, 0, "a miss charges nothing");
        assert_eq!((d.dcache.accesses, d.icache.accesses), (0, 0));
    }

    #[test]
    fn protection_miss_counts_the_hit_and_charges_nothing() {
        let mut m = Machine::new(MachineConfig::ppc604_133());
        // Two entries in one TLB set, the read-only one least recently used.
        m.mmu
            .reload(AccessType::DataRead, entry(3, 0x40, true, false));
        m.mmu
            .reload(AccessType::DataRead, entry(3 + 64, 0x41, true, true));
        let before = m.snapshot();
        let ea = EffectiveAddress(3 << 12 | 0x8);
        let fault = Err(Miss::Protection {
            pa: 0x40 << 12 | 0x8,
            cached: true,
        });
        assert_eq!(m.data_ref::<false>(ea, true), fault);
        let d = m.snapshot().delta(&before);
        assert_eq!((d.dtlb.lookups, d.dtlb.hits, d.dtlb.misses), (1, 1, 0));
        assert_eq!((d.cycles, d.dcache.accesses), (0, 0));
        // The hit stamped the entry most recently used: a refill of the set
        // evicts the other way.
        m.mmu
            .reload(AccessType::DataRead, entry(3 + 128, 0x42, true, true));
        assert!(m.mmu.dtlb.peek(Vsid::new(0), 3).is_some());
        assert!(m.mmu.dtlb.peek(Vsid::new(0), 3 + 64).is_none());
        // Protection comes before the audit mark, and a load completes.
        assert_eq!(m.data_ref::<true>(ea, true), fault);
        assert!(m.data_ref::<false>(ea, false).is_ok());
    }

    #[test]
    fn unaudited_miss_changes_nothing_and_an_audited_hit_commits() {
        let mut m = resident(MachineConfig::ppc604_133());
        let ea = EffectiveAddress(3 << 12);
        let before = m.snapshot();
        let unaudited = Err(Miss::Unaudited {
            bat: false,
            pa: 0x40 << 12,
            cached: true,
            writable: true,
        });
        assert_eq!(m.data_ref::<true>(ea, false), unaudited);
        assert!(matches!(
            m.exec_code::<true>(ea, 4),
            Err(Miss::Unaudited { bat: false, .. })
        ));
        assert_eq!(m.snapshot(), before, "an unaudited miss commits nothing");
        m.mmu.dtlb.mark_audited(Vsid::new(0), 3);
        m.mmu.itlb.mark_audited(Vsid::new(0), 3);
        assert!(m.data_ref::<true>(ea, false).is_ok());
        assert!(m.exec_code::<true>(ea, 4).is_ok());
        let d = m.snapshot().delta(&before);
        assert_eq!((d.dtlb.hits, d.itlb.hits), (1, 1));
        m.mmu.clear_audit_marks();
        assert_eq!(m.data_ref::<true>(ea, false), unaudited);
        assert!(m.data_ref::<false>(ea, false).is_ok(), "no mark needed");

        // A BAT register serves the audited instance once it is marked.
        let kea = EffectiveAddress(0xc000_0040);
        m.mmu
            .bats
            .set_dbat(0, Some(BatEntry::new(0xc000_0000, 0, 8 << 20, true)));
        let before = m.snapshot();
        assert_eq!(
            m.data_ref::<true>(kea, false),
            Err(Miss::Unaudited {
                bat: true,
                pa: 0x40,
                cached: true,
                writable: true,
            })
        );
        assert_eq!(m.snapshot(), before);
        m.mmu.bats.mark_audited(true, kea, |_| true);
        assert!(m.data_ref::<true>(kea, false).is_ok());
        assert_eq!(m.snapshot().delta(&before).dbat_hits, 1);
    }

    #[test]
    fn uncached_bat_and_tlb_mappings_complete_cache_inhibited() {
        let mut m = Machine::new(MachineConfig::ppc604_133());
        let io = BatEntry::new(0xf000_0000, 0xf000_0000, 16 << 20, false);
        m.mmu.bats.set_dbat(3, Some(io));
        m.mmu.bats.set_ibat(3, Some(io));
        m.mmu
            .reload(AccessType::DataRead, entry(3, 0x40, false, true));
        m.mmu
            .reload(AccessType::InsnFetch, entry(3, 0x40, false, true));
        let bus = m.mem.bus;
        for (ea, bat) in [(0xf00b_0000, true), (3 << 12, false)] {
            let ea = EffectiveAddress(ea);
            let before = m.snapshot();
            assert_eq!(m.data_ref::<false>(ea, false), Ok(1 + bus.read_beat));
            assert_eq!(m.data_ref::<false>(ea, true), Ok(1 + bus.write_beat));
            // Four instructions: one inhibited fetch.
            assert_eq!(m.exec_code::<false>(ea, 4), Ok(bus.read_beat + 4));
            let d = m.snapshot().delta(&before);
            assert_eq!((d.dcache.inhibited, d.dcache.accesses), (2, 0));
            assert_eq!((d.icache.inhibited, d.icache.accesses), (1, 0));
            let hits = if bat {
                d.dbat_hits + d.ibat_hits
            } else {
                d.dtlb.hits + d.itlb.hits
            };
            assert_eq!(hits, 3);
        }
    }

    #[test]
    fn scale_floors_issue_cycle_and_access_apart_and_a_fetch_once() {
        // L1 hits cost 1 cycle. At 1/2 a data hit charges
        // floor(1/2) + floor(1/2) = 0, not floor(2/2) = 1; a warm
        // 16-instruction fetch over two lines charges floor((2 + 16)/2) = 9
        // once, not 8 line by line.
        let mut m = resident(MachineConfig::ppc604_133());
        let ea = EffectiveAddress(3 << 12);
        m.data_ref::<false>(ea, false).unwrap();
        m.exec_code::<false>(ea, 16).unwrap();
        m.set_scale(1, 2);
        let c0 = m.cycles;
        assert_eq!(m.data_ref::<false>(ea, false), Ok(0));
        assert_eq!(m.exec_code::<false>(ea, 16), Ok(9));
        assert_eq!(m.cycles, c0 + 9);
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
