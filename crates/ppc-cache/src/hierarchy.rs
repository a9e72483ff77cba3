//! The combined L1 + bus memory system driven by the machine model.

use crate::bus::Bus;
use crate::cache::{AccessKind, Cache, Probe};
use crate::config::CacheConfig;
use crate::stats::CacheStats;
use crate::{Cycles, PhysAddr};

/// The L1 associativity compiled as an instance of the cache code: the
/// 604's 4-way L1s, which the benchmark runs. Every other L1 (the 603's
/// 2 ways) runs the runtime-width instance.
const L1_INSTANCE: usize = 4;

/// The L2 associativity compiled as an instance: the 1-way board L2.
const L2_INSTANCE: usize = 1;

/// Evaluates `$body` with the constant `$w` bound to `$n` when the
/// associativity `$ways` is `$n`, through the instance compiled for that
/// width, else to 0: the runtime-width instance of the same code. With the
/// width a constant the way scans unroll; DESIGN.md §16 measures what each
/// compiled instance buys.
macro_rules! by_ways {
    ($ways:expr, $n:expr, |$w:ident| $body:expr) => {
        if $ways == $n {
            const $w: usize = $n;
            $body
        } else {
            const $w: usize = 0;
            $body
        }
    };
}

/// Configuration for a complete memory system.
#[derive(Debug, Clone, Copy)]
pub struct MemSystemConfig {
    /// Instruction-cache geometry.
    pub icache: CacheConfig,
    /// Data-cache geometry.
    pub dcache: CacheConfig,
    /// Unified board-level L2 geometry (`None` = no L2).
    pub l2: Option<CacheConfig>,
    /// Cycles for an L1 miss that hits in the L2.
    pub l2_hit: Cycles,
    /// Bus timings.
    pub bus: Bus,
}

impl MemSystemConfig {
    /// PowerPC 603 memory system (8 KiB + 8 KiB, 2-way; 256 KiB board L2)
    /// on a commodity board.
    pub fn ppc603() -> Self {
        Self {
            icache: CacheConfig::ppc603_insn(),
            dcache: CacheConfig::ppc603_data(),
            l2: Some(CacheConfig::board_l2(256 * 1024)),
            l2_hit: 18,
            bus: Bus::commodity(),
        }
    }

    /// PowerPC 603 memory system on a board without L2 (many PReP 603
    /// machines shipped without lookaside cache).
    pub fn ppc603_no_l2() -> Self {
        Self {
            l2: None,
            ..Self::ppc603()
        }
    }

    /// PowerPC 604 memory system (16 KiB + 16 KiB, 4-way; 512 KiB board L2)
    /// on a commodity board.
    pub fn ppc604() -> Self {
        Self {
            icache: CacheConfig::ppc604_insn(),
            dcache: CacheConfig::ppc604_data(),
            l2: Some(CacheConfig::board_l2(512 * 1024)),
            l2_hit: 18,
            bus: Bus::commodity(),
        }
    }
}

/// Split L1 caches plus the memory bus.
///
/// Every method returns the cycle cost of the access, so callers simply sum
/// the returned values into their cycle accumulator.
///
/// # Examples
///
/// ```
/// use ppc_cache::hierarchy::{MemSystem, MemSystemConfig};
///
/// let mut mem = MemSystem::new(MemSystemConfig::ppc604());
/// let miss = mem.data_write(0x2000, true);
/// let hit = mem.data_write(0x2004, true);
/// assert!(miss > hit);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemSystem {
    /// L1 instruction cache.
    pub icache: Cache,
    /// L1 data cache.
    pub dcache: Cache,
    /// Unified board-level L2, if fitted.
    pub l2: Option<Cache>,
    /// Cycles for an L1 miss satisfied by the L2.
    pub l2_hit: Cycles,
    /// The memory bus.
    pub bus: Bus,
}

impl MemSystem {
    /// Builds an empty memory system.
    pub fn new(cfg: MemSystemConfig) -> Self {
        Self {
            icache: Cache::new(cfg.icache),
            dcache: Cache::new(cfg.dcache),
            l2: cfg.l2.map(Cache::new),
            l2_hit: cfg.l2_hit,
            bus: cfg.bus,
        }
    }

    /// Commits up to `n` accesses of `kind`, all on the L1 line holding
    /// `pa`, through instance `W` of the instruction (`INSN`) or data
    /// cache: the cost of exactly `n` single-word accesses, and how many
    /// were committed — `n`, or 1 when a fully locked set bypassed the
    /// cache (the next access then probes again). A hit commits all `n`
    /// here at the hit cost; a miss goes straight into [`MemSystem::miss`].
    #[inline(always)]
    fn line<const W: usize, const INSN: bool>(
        &mut self,
        pa: PhysAddr,
        kind: AccessKind,
        n: u32,
    ) -> (Cycles, u32) {
        let l1 = if INSN {
            &mut self.icache
        } else {
            &mut self.dcache
        };
        match l1.lookup::<W>(pa) {
            Ok(idx) => {
                l1.hits_at(idx, kind, u64::from(n));
                let beat = if l1.writes_through(kind) {
                    self.bus.write_beat
                } else {
                    0
                };
                (u64::from(n) * (l1.config().hit_cycles + beat), n)
            }
            Err(set_tag) => self.miss::<W, INSN>(pa, set_tag, kind, n),
        }
    }

    /// The L1 miss tail of [`MemSystem::line`], one function per L1
    /// instance with every level below inlined in it: fills the victim way
    /// (the `n - 1` accesses after the miss commit as hits), fills the line
    /// from below and lands the dirty victim below ([`MemSystem::below`]).
    #[inline(never)]
    fn miss<const W: usize, const INSN: bool>(
        &mut self,
        pa: PhysAddr,
        set_tag: (usize, u32),
        kind: AccessKind,
        n: u32,
    ) -> (Cycles, u32) {
        let l1 = if INSN {
            &mut self.icache
        } else {
            &mut self.dcache
        };
        let hit = l1.config().hit_cycles;
        let n64 = u64::from(n);
        let beat = if l1.writes_through(kind) {
            self.bus.write_beat
        } else {
            0
        };
        let probe = l1.fill::<W>(set_tag, kind, n64);
        if probe == Probe::Bypassed {
            // A bypassed store goes to memory whatever the policy.
            let store = if kind == AccessKind::Write {
                self.bus.write_beat
            } else {
                0
            };
            return (self.below(Some(pa), None) + store, 1);
        }
        let below = self.below(Some(pa), probe.victim());
        (below + (n64 - 1) * hit + n64 * beat, n)
    }

    /// The miss tail below the L1s: fills the line at `fill` from the L2
    /// (or memory), then lands the dirty L1 `victim` line there, in that
    /// order, and returns the cost. The L2 instance is picked once for
    /// both; on the 1-way board L2 each step is one index, one tag compare
    /// and at most one writeback of the L2's own dirty victim.
    #[inline(always)]
    fn below(&mut self, fill: Option<PhysAddr>, victim: Option<PhysAddr>) -> Cycles {
        let (bus, l2_hit) = (self.bus, self.l2_hit);
        let Some(l2) = &mut self.l2 else {
            return fill.map_or(0, |_| bus.line_fill) + victim.map_or(0, |_| bus.line_writeback);
        };
        by_ways!(l2.ways(), L2_INSTANCE, |V| l2_steps::<V>(
            l2, bus, l2_hit, fill, victim
        ))
    }

    /// Fetches an instruction from `pa`. `cached = false` models
    /// cache-inhibited (e.g. I/O space or an uncached idle loop).
    #[inline]
    pub fn insn_fetch(&mut self, pa: PhysAddr, cached: bool) -> Cycles {
        if !cached {
            self.icache.access_inhibited();
            return self.bus.read_beat;
        }
        by_ways!(self.icache.ways(), L1_INSTANCE, |W| self
            .line::<W, true>(pa, AccessKind::Read, 1)
            .0)
    }

    /// Loads a word from `pa` through the data cache.
    #[inline]
    pub fn data_read(&mut self, pa: PhysAddr, cached: bool) -> Cycles {
        if !cached {
            self.dcache.access_inhibited();
            return self.bus.read_beat;
        }
        by_ways!(self.dcache.ways(), L1_INSTANCE, |W| self
            .line::<W, false>(pa, AccessKind::Read, 1)
            .0)
    }

    /// Stores a word to `pa` through the data cache.
    #[inline]
    pub fn data_write(&mut self, pa: PhysAddr, cached: bool) -> Cycles {
        if !cached {
            self.dcache.access_inhibited();
            return self.bus.write_beat;
        }
        by_ways!(self.dcache.ways(), L1_INSTANCE, |W| self
            .line::<W, false>(pa, AccessKind::Write, 1)
            .0)
    }

    /// A run of word accesses: defined as exactly `count`
    /// [`MemSystem::data_read`] (or [`MemSystem::data_write`]) calls at
    /// `pa + i * stride`, with their costs summed. Every cycle and counter
    /// is the same as the word loop's. Each L1 line the run touches is
    /// committed once: its first access and the ones that follow on it
    /// update the tick, the counters, the LRU stamp and the dirty bit in
    /// one step. Only a fully locked set, which allocates nothing, takes
    /// one probe per word.
    pub fn data_run(
        &mut self,
        pa: PhysAddr,
        count: u32,
        stride: u32,
        kind: AccessKind,
        cached: bool,
    ) -> Cycles {
        if !cached {
            self.dcache.access_inhibited_n(u64::from(count));
            let beat = match kind {
                AccessKind::Read => self.bus.read_beat,
                AccessKind::Write => self.bus.write_beat,
            };
            return Cycles::from(count) * beat;
        }
        by_ways!(self.dcache.ways(), L1_INSTANCE, |W| self
            .run::<W>(pa, count, stride, kind))
    }

    /// The body of [`MemSystem::data_run`] for L1 instance `W`.
    #[inline(always)]
    fn run<const W: usize>(
        &mut self,
        pa: PhysAddr,
        count: u32,
        stride: u32,
        kind: AccessKind,
    ) -> Cycles {
        let line = self.dcache.config().line_bytes;
        // How many further accesses fit in the `room` bytes left on a line;
        // a shift for the power-of-two strides the kernel's runs use.
        let fit = |room: u32| match stride {
            0 => u32::MAX,
            s if s.is_power_of_two() => room >> s.trailing_zeros(),
            s => room / s,
        };
        let mut cost = 0;
        let mut i = 0;
        while i < count {
            let addr = pa + i * stride;
            let n = 1 + fit((addr | (line - 1)) - addr).min(count - i - 1);
            let (c, done) = self.line::<W, false>(addr, kind, n);
            cost += c;
            i += done;
        }
        cost
    }

    /// `dcbz`: zeroes the cache line at `pa` without reading memory.
    /// The paper (§9) avoided this instruction for `bzero()` because of its
    /// cache pollution; the model lets experiments measure that choice.
    pub fn dcbz(&mut self, pa: PhysAddr) -> Cycles {
        let hit = self.dcache.config().hit_cycles;
        let probe = by_ways!(self.dcache.ways(), L1_INSTANCE, |W| self
            .dcache
            .establish::<W>(pa));
        match probe.victim() {
            Some(v) => hit + self.below(None, Some(v)),
            None => hit,
        }
    }

    /// `dcbt`-style software prefetch (paper §10.2). Costs one issue cycle;
    /// the fill itself is overlapped (that is the point of prefetching), so
    /// no fill latency is charged. The dirty line the fill displaces lands
    /// in the L2 (or memory) through the miss tail and is charged like
    /// [`MemSystem::dcbz`]'s: the writeback is not overlapped.
    pub fn prefetch(&mut self, pa: PhysAddr) -> Cycles {
        match self.dcache.touch(pa).victim() {
            Some(v) => 1 + self.below(None, Some(v)),
            None => 1,
        }
    }

    /// Zeroes a whole page with ordinary cached stores (write-allocate: each
    /// line is filled from memory, dirtied, and left resident). This is how
    /// Linux/PPC cleared pages — the paper (§9) deliberately avoided `dcbz`
    /// "for the same reason" (its effect on the data cache). One word store
    /// per word, as a [`MemSystem::data_run`]. Returns the total cycle cost.
    pub fn zero_page_stores(&mut self, page_pa: PhysAddr, page_bytes: u32) -> Cycles {
        self.data_run(page_pa, page_bytes / 4, 4, AccessKind::Write, true)
    }

    /// Copies `bytes` between two physical regions through the data cache:
    /// one read of each source line, one write of each destination line,
    /// plus two loop cycles of address arithmetic per line — the memory
    /// half of kernel `copy_to/from_user` and pipe buffer copies.
    pub fn copy_range(&mut self, src: PhysAddr, dst: PhysAddr, bytes: u32) -> Cycles {
        let line = self.dcache.config().line_bytes;
        let mut c: Cycles = 0;
        let mut off = 0;
        while off < bytes {
            c += self.data_read(src + off, true);
            c += self.data_write(dst + off, true);
            c += 2;
            off += line;
        }
        c
    }

    /// Zeroes a whole page. `through_cache` selects between `dcbz` line
    /// zeroing (polluting but fill-free) and cache-inhibited stores (§9's
    /// second and third experiments). Returns the total cycle cost.
    pub fn zero_page(&mut self, page_pa: PhysAddr, page_bytes: u32, through_cache: bool) -> Cycles {
        let line = self.dcache.config().line_bytes;
        let lines = page_bytes.div_ceil(line);
        if !through_cache {
            // Word stores straight to memory; the bus pipelines consecutive
            // beats within a line, so charge one burst write per line.
            self.dcache.access_inhibited_n(u64::from(lines));
            return Cycles::from(lines) * self.bus.line_writeback;
        }
        (0..lines).map(|i| self.dcbz(page_pa + i * line)).sum()
    }

    /// Combined I+D statistics.
    pub fn total_stats(&self) -> CacheStats {
        let mut s = *self.icache.stats();
        s.merge(self.dcache.stats());
        s
    }

    /// Resets both caches' statistics counters.
    pub fn reset_stats(&mut self) {
        self.icache.reset_stats();
        self.dcache.reset_stats();
    }
}

/// The two steps of [`MemSystem::below`] on the L2, through its instance
/// `V`: a demand fill of the line at `fill`, then an establish of the dirty
/// L1 `victim` line (a writeback delivers a whole line, so the L2 takes it
/// without a memory read). Returns the cost of both.
#[inline(always)]
fn l2_steps<const V: usize>(
    l2: &mut Cache,
    bus: Bus,
    l2_hit: Cycles,
    fill: Option<PhysAddr>,
    victim: Option<PhysAddr>,
) -> Cycles {
    let mut cost = 0;
    if let Some(pa) = fill {
        let probe = l2.demand::<V>(pa, AccessKind::Read, 1);
        cost += if probe == Probe::Hit {
            l2_hit
        } else {
            bus.line_fill + probe.victim().map_or(0, |_| bus.line_writeback)
        };
    }
    if let Some(pa) = victim {
        cost += 2 + l2
            .establish::<V>(pa)
            .victim()
            .map_or(0, |_| bus.line_writeback);
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inhibited_read_never_fills() {
        let mut m = MemSystem::new(MemSystemConfig::ppc603());
        m.data_read(0x9000, false);
        assert!(!m.dcache.contains(0x9000));
        assert_eq!(m.dcache.stats().inhibited, 1);
    }

    #[test]
    fn cached_zero_page_pollutes_uncached_does_not() {
        let mut cached = MemSystem::new(MemSystemConfig::ppc603());
        let mut uncached = MemSystem::new(MemSystemConfig::ppc603());
        cached.zero_page(0x4000, 4096, true);
        uncached.zero_page(0x4000, 4096, false);
        assert_eq!(
            cached.dcache.resident_lines(),
            128,
            "4 KiB of 32B lines resident"
        );
        assert_eq!(uncached.dcache.resident_lines(), 0);
    }

    #[test]
    fn cached_zero_page_is_cheaper_in_isolation() {
        // dcbz establishes lines without bus reads, so with an empty cache
        // clearing through the cache is fast; the *pollution* is what costs
        // later. This asymmetry is the crux of the paper's §9.
        let mut cached = MemSystem::new(MemSystemConfig::ppc603());
        let mut uncached = MemSystem::new(MemSystemConfig::ppc603());
        let c = cached.zero_page(0x4000, 4096, true);
        let u = uncached.zero_page(0x4000, 4096, false);
        assert!(
            c < u,
            "dcbz clearing ({c}) beats uncached stores ({u}) in isolation"
        );
    }

    #[test]
    fn pollution_costs_show_up_later() {
        // Fill the D-cache with a live working set, then clear a page through
        // the cache; re-touching the working set must now be slower than if
        // the page had been cleared uncached.
        let run = |through_cache: bool| {
            let mut m = MemSystem::new(MemSystemConfig::ppc603());
            for i in 0..256 {
                m.data_read(i * 32, true); // live working set = whole cache
            }
            m.zero_page(0x10_0000, 4096, through_cache);
            let mut cost = 0;
            for i in 0..256 {
                cost += m.data_read(i * 32, true);
            }
            cost
        };
        assert!(run(true) > run(false));
    }

    #[test]
    fn ifetch_uses_icache() {
        let mut m = MemSystem::new(MemSystemConfig::ppc604());
        let a = m.insn_fetch(0x100, true);
        let b = m.insn_fetch(0x100, true);
        assert!(a > b);
        assert_eq!(m.icache.stats().misses, 1);
        assert_eq!(m.dcache.stats().accesses, 0);
    }

    #[test]
    fn writeback_cost_charged_on_dirty_eviction() {
        let mut m = MemSystem::new(MemSystemConfig::ppc603());
        // 128 sets: addresses 4 KiB apart share a set.
        let stride = 4096;
        m.data_write(0, true);
        m.data_write(stride, true);
        let clean_evict = m.data_read(2 * stride, true); // evicts a dirty line
        let plain_miss = m.data_read(0x40, true);
        assert!(clean_evict > plain_miss);
    }

    #[test]
    fn total_stats_merges_both_caches() {
        let mut m = MemSystem::new(MemSystemConfig::ppc603());
        m.insn_fetch(0, true);
        m.data_read(0, true);
        assert_eq!(m.total_stats().accesses, 2);
        m.reset_stats();
        assert_eq!(m.total_stats().accesses, 0);
    }

    #[test]
    fn prefetch_lands_its_dirty_victim_in_the_l2() {
        let mut m = MemSystem::new(MemSystemConfig::ppc603());
        // 128 two-way sets: addresses 4 KiB apart share a set.
        let stride = 4096;
        m.data_write(0, true);
        m.data_write(stride, true);
        let l2 = m.l2.as_mut().expect("the 603 board has an L2");
        l2.invalidate_all();
        let l2_before = *l2.stats();
        // The fill evicts the least recently used dirty line, line 0.
        let cost = m.prefetch(2 * stride);
        assert_eq!(m.dcache.stats().writebacks, 1);
        assert!(!m.dcache.contains(0) && m.dcache.contains(2 * stride));
        let l2 = m.l2.as_ref().expect("the 603 board has an L2");
        assert!(l2.contains(0), "the victim reached the L2");
        assert_eq!(l2.stats().zero_fills, l2_before.zero_fills + 1);
        // The prefetch's own cycle plus the L2 establish (2 cycles; the
        // empty L2 displaces nothing it must write back).
        assert_eq!(cost, 1 + 2);
    }

    #[test]
    fn prefetch_is_one_cycle_and_fills() {
        let mut m = MemSystem::new(MemSystemConfig::ppc604());
        assert_eq!(m.prefetch(0x3000), 1);
        let hit = m.data_read(0x3000, true);
        assert_eq!(hit, m.dcache.config().hit_cycles);
    }
}
