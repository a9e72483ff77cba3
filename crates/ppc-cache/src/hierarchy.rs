//! The combined L1 + bus memory system driven by the machine model.

use crate::bus::Bus;
use crate::cache::{AccessKind, Cache};
use crate::config::CacheConfig;
use crate::stats::CacheStats;
use crate::{Cycles, PhysAddr};

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
#[derive(Debug, Clone)]
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

    /// Cost of filling an L1 line from the L2 (or memory).
    fn fill_from_below(&mut self, pa: PhysAddr) -> Cycles {
        match &mut self.l2 {
            None => self.bus.line_fill,
            Some(l2) => {
                let out = l2.access(pa, AccessKind::Read);
                if out.hit {
                    self.l2_hit
                } else {
                    let mut c = self.bus.line_fill;
                    if out.writeback {
                        c += self.bus.line_writeback;
                    }
                    c
                }
            }
        }
    }

    /// Cost of an L1 dirty-line writeback landing in the L2 (or memory).
    /// A full line arrives, so the L2 allocates without a memory read.
    fn writeback_below(&mut self, victim_pa: Option<PhysAddr>) -> Cycles {
        match (&mut self.l2, victim_pa) {
            (None, _) | (_, None) => self.bus.line_writeback,
            (Some(l2), Some(pa)) => {
                let out = l2.zero_line(pa); // allocate-without-read, dirty
                let mut c = 2;
                if out.writeback {
                    c += self.bus.line_writeback;
                }
                c
            }
        }
    }

    /// Fetches an instruction from `pa`. `cached = false` models
    /// cache-inhibited (e.g. I/O space or an uncached idle loop).
    pub fn insn_fetch(&mut self, pa: PhysAddr, cached: bool) -> Cycles {
        if !cached {
            self.icache.access_inhibited();
            return self.bus.read_beat;
        }
        let out = self.icache.access(pa, AccessKind::Read);
        if out.hit {
            self.icache.config().hit_cycles
        } else {
            self.fill_from_below(pa)
        }
    }

    /// Loads a word from `pa` through the data cache.
    pub fn data_read(&mut self, pa: PhysAddr, cached: bool) -> Cycles {
        if !cached {
            self.dcache.access_inhibited();
            return self.bus.read_beat;
        }
        let out = self.dcache.access(pa, AccessKind::Read);
        let mut cost = if out.hit {
            self.dcache.config().hit_cycles
        } else {
            self.fill_from_below(pa)
        };
        if out.writeback {
            cost += self.writeback_below(out.victim_pa);
        }
        cost
    }

    /// Stores a word to `pa` through the data cache.
    pub fn data_write(&mut self, pa: PhysAddr, cached: bool) -> Cycles {
        if !cached {
            self.dcache.access_inhibited();
            return self.bus.write_beat;
        }
        let out = self.dcache.access(pa, AccessKind::Write);
        let mut cost = if out.hit {
            self.dcache.config().hit_cycles
        } else {
            self.fill_from_below(pa)
        };
        if out.writeback {
            cost += self.writeback_below(out.victim_pa);
        }
        if out.wrote_through {
            cost += self.bus.write_beat;
        }
        cost
    }

    /// `dcbz`: zeroes the cache line at `pa` without reading memory.
    /// The paper (§9) avoided this instruction for `bzero()` because of its
    /// cache pollution; the model lets experiments measure that choice.
    pub fn dcbz(&mut self, pa: PhysAddr) -> Cycles {
        let out = self.dcache.zero_line(pa);
        let mut cost = self.dcache.config().hit_cycles;
        if out.writeback {
            cost += self.writeback_below(out.victim_pa);
        }
        cost
    }

    /// `dcbt`-style software prefetch (paper §10.2). Costs one issue cycle;
    /// the fill itself is overlapped (that is the point of prefetching), so
    /// only a fraction of the fill latency is charged.
    pub fn prefetch(&mut self, pa: PhysAddr) -> Cycles {
        self.dcache.prefetch(pa);
        1
    }

    /// Zeroes a whole page with ordinary cached stores (write-allocate: each
    /// line is filled from memory, dirtied, and left resident). This is how
    /// Linux/PPC cleared pages — the paper (§9) deliberately avoided `dcbz`
    /// "for the same reason" (its effect on the data cache). Returns the
    /// total cycle cost.
    pub fn zero_page_stores(&mut self, page_pa: PhysAddr, page_bytes: u32) -> Cycles {
        let line = self.dcache.config().line_bytes;
        let hit_cycles = self.dcache.config().hit_cycles;
        let write_beat = self.bus.write_beat;
        let words = line / 4;
        let mut cost = 0;
        let mut addr = page_pa;
        while addr < page_pa + page_bytes {
            // One store per word; the first store of a line pays the fill,
            // and the remaining words hit the now-resident line, so their
            // bookkeeping commits in one burst probe. A locked set (the
            // first store allocated nothing) falls back to per-word stores.
            cost += match self.dcache.fast_hit(addr, AccessKind::Write) {
                Some(true) => hit_cycles + write_beat,
                Some(false) => hit_cycles,
                None => self.data_write(addr, true),
            };
            let rest = u64::from(words - 1);
            cost += match self.dcache.fast_hit_n(addr + 4, AccessKind::Write, rest) {
                Some(true) => rest * (hit_cycles + write_beat),
                Some(false) => rest * hit_cycles,
                None => {
                    let mut c = 0;
                    for w in 1..words {
                        c += match self.dcache.fast_hit(addr + w * 4, AccessKind::Write) {
                            Some(true) => hit_cycles + write_beat,
                            Some(false) => hit_cycles,
                            None => self.data_write(addr + w * 4, true),
                        };
                    }
                    c
                }
            };
            addr += line;
        }
        cost
    }

    /// Copies `bytes` between two physical regions through the data cache:
    /// one read of each source line, one write of each destination line,
    /// plus two loop cycles of address arithmetic per line — the memory
    /// half of kernel `copy_to/from_user` and pipe buffer copies. The
    /// resident-line common case takes the flat probe; misses take the full
    /// fill/writeback paths.
    pub fn copy_range(&mut self, src: PhysAddr, dst: PhysAddr, bytes: u32) -> Cycles {
        let line = self.dcache.config().line_bytes;
        let hit_cycles = self.dcache.config().hit_cycles;
        let write_beat = self.bus.write_beat;
        let mut c: Cycles = 0;
        let mut off = 0;
        while off < bytes {
            c += match self.dcache.fast_hit(src + off, AccessKind::Read) {
                Some(_) => hit_cycles,
                None => self.data_read(src + off, true),
            };
            c += match self.dcache.fast_hit(dst + off, AccessKind::Write) {
                Some(true) => hit_cycles + write_beat,
                Some(false) => hit_cycles,
                None => self.data_write(dst + off, true),
            };
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
        let mut cost = 0;
        if through_cache {
            let mut addr = page_pa;
            while addr < page_pa + page_bytes {
                cost += self.dcbz(addr);
                addr += line;
            }
        } else {
            // Word stores straight to memory; the bus pipelines consecutive
            // beats within a line, so charge one burst write per line.
            let mut addr = page_pa;
            while addr < page_pa + page_bytes {
                self.dcache.access_inhibited();
                cost += self.bus.line_writeback;
                addr += line;
            }
        }
        cost
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
    fn prefetch_is_one_cycle_and_fills() {
        let mut m = MemSystem::new(MemSystemConfig::ppc604());
        assert_eq!(m.prefetch(0x3000), 1);
        let hit = m.data_read(0x3000, true);
        assert_eq!(hit, m.dcache.config().hit_cycles);
    }
}
