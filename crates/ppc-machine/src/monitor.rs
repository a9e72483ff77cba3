//! Performance-monitor snapshots.
//!
//! The paper (§4) gathered "low-level statistics with the PPC 604 hardware
//! monitor … counting every TLB and cache miss, whether data or instruction"
//! and used software counters on the 603. [`MonitorSnapshot`] is the
//! simulator's equivalent: a copy of every hardware counter at an instant,
//! with [`MonitorSnapshot::delta`] producing the counts for a measurement
//! window.

use ppc_cache::stats::CacheStats;
use ppc_mmu::tlb::TlbStats;

use crate::Cycles;

/// All hardware counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonitorSnapshot {
    /// Cycle clock.
    pub cycles: Cycles,
    /// Instruction-TLB counters.
    pub itlb: TlbStats,
    /// Data-TLB counters.
    pub dtlb: TlbStats,
    /// Instruction-cache counters.
    pub icache: CacheStats,
    /// Data-cache counters.
    pub dcache: CacheStats,
    /// Instruction accesses satisfied by a BAT.
    pub ibat_hits: u64,
    /// Data accesses satisfied by a BAT.
    pub dbat_hits: u64,
}

impl MonitorSnapshot {
    /// Counter deltas `self - earlier` for a measurement window.
    ///
    /// Every field saturates at zero: consumers such as the PMU feed windows
    /// whose earlier edge may postdate a [`reset_stats`] or arrive out of
    /// order, and a counter window must never underflow into a huge bogus
    /// count.
    ///
    /// [`reset_stats`]: crate::Machine::reset_stats
    pub fn delta(&self, earlier: &MonitorSnapshot) -> MonitorSnapshot {
        fn tlb(a: &TlbStats, b: &TlbStats) -> TlbStats {
            TlbStats {
                lookups: a.lookups.saturating_sub(b.lookups),
                hits: a.hits.saturating_sub(b.hits),
                misses: a.misses.saturating_sub(b.misses),
                reloads: a.reloads.saturating_sub(b.reloads),
                tlbie: a.tlbie.saturating_sub(b.tlbie),
                flush_all: a.flush_all.saturating_sub(b.flush_all),
            }
        }
        MonitorSnapshot {
            cycles: self.cycles.saturating_sub(earlier.cycles),
            itlb: tlb(&self.itlb, &earlier.itlb),
            dtlb: tlb(&self.dtlb, &earlier.dtlb),
            icache: self.icache.delta(&earlier.icache),
            dcache: self.dcache.delta(&earlier.dcache),
            ibat_hits: self.ibat_hits.saturating_sub(earlier.ibat_hits),
            dbat_hits: self.dbat_hits.saturating_sub(earlier.dbat_hits),
        }
    }

    /// Total TLB misses, both sides.
    pub fn tlb_misses(&self) -> u64 {
        self.itlb.misses + self.dtlb.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_subtracts_every_counter() {
        let a = MonitorSnapshot {
            cycles: 100,
            dtlb: TlbStats {
                lookups: 10,
                hits: 8,
                misses: 2,
                ..Default::default()
            },
            dbat_hits: 5,
            ..Default::default()
        };
        let b = MonitorSnapshot {
            cycles: 250,
            dtlb: TlbStats {
                lookups: 30,
                hits: 25,
                misses: 5,
                ..Default::default()
            },
            dbat_hits: 9,
            ..Default::default()
        };
        let d = b.delta(&a);
        assert_eq!(d.cycles, 150);
        assert_eq!(d.dtlb.lookups, 20);
        assert_eq!(d.dtlb.misses, 3);
        assert_eq!(d.dbat_hits, 4);
        assert_eq!(d.tlb_misses(), 3);
    }

    #[test]
    fn delta_saturates_instead_of_underflowing() {
        let newer = MonitorSnapshot {
            cycles: 10,
            ibat_hits: 3,
            ..Default::default()
        };
        let older = MonitorSnapshot {
            cycles: 500,
            ibat_hits: 9,
            dtlb: TlbStats {
                misses: 4,
                ..Default::default()
            },
            ..Default::default()
        };
        // Reversed window: every counter clamps to zero.
        let d = newer.delta(&older);
        assert_eq!(d.cycles, 0);
        assert_eq!(d.ibat_hits, 0);
        assert_eq!(d.dtlb.misses, 0);
    }
}
