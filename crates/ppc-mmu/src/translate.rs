//! The composed MMU front end: segments + BATs + split TLBs.

use crate::addr::{phys, EffectiveAddress, PhysAddr, VirtualAddress, Vsid};
use crate::bat::BatSet;
use crate::segment::SegmentRegisters;
use crate::tlb::{Tlb, TlbConfig, TlbEntry};

/// The kind of access being translated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessType {
    /// Instruction fetch (uses IBATs and the ITLB).
    InsnFetch,
    /// Data load (uses DBATs and the DTLB).
    DataRead,
    /// Data store (uses DBATs and the DTLB).
    DataWrite,
}

impl AccessType {
    /// Whether this is a data-side access.
    pub fn is_data(self) -> bool {
        !matches!(self, AccessType::InsnFetch)
    }
}

/// Result of the hardware's first-level translation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Translation {
    /// A BAT matched; translation bypassed the TLB and page tables entirely.
    Bat {
        /// Resulting physical address.
        pa: PhysAddr,
        /// Whether the access is cacheable.
        cached: bool,
    },
    /// The TLB held the translation.
    TlbHit {
        /// Resulting physical address.
        pa: PhysAddr,
        /// Whether the access is cacheable.
        cached: bool,
        /// Whether stores are permitted; a store through a read-only entry
        /// is a protection fault (the copy-on-write mechanism).
        writable: bool,
    },
    /// The TLB missed; the machine model must run the reload path (hardware
    /// hash-table walk on the 604, software handler on the 603) for the
    /// returned virtual address.
    TlbMiss {
        /// The virtual address needing a reload.
        va: VirtualAddress,
    },
}

/// MMU geometry.
#[derive(Debug, Clone, Copy)]
pub struct MmuConfig {
    /// Instruction TLB geometry.
    pub itlb: TlbConfig,
    /// Data TLB geometry.
    pub dtlb: TlbConfig,
}

impl MmuConfig {
    /// 603 geometry (2 × 64-entry, 2-way TLBs).
    pub fn ppc603() -> Self {
        Self {
            itlb: TlbConfig::ppc603_side(),
            dtlb: TlbConfig::ppc603_side(),
        }
    }

    /// 604 geometry (2 × 128-entry, 2-way TLBs).
    pub fn ppc604() -> Self {
        Self {
            itlb: TlbConfig::ppc604_side(),
            dtlb: TlbConfig::ppc604_side(),
        }
    }
}

/// The MMU front end: segment registers, BAT registers and the two TLBs.
///
/// The hash-table / Linux-page-table reload machinery deliberately lives a
/// layer up (in `ppc-machine` and `kernel-sim`): on a [`Translation::TlbMiss`]
/// the hardware (or the OS, on the 603) runs a reload and then calls
/// [`Mmu::reload`].
///
/// # Examples
///
/// ```
/// use ppc_mmu::{AccessType, Mmu, MmuConfig, Translation};
/// use ppc_mmu::addr::{EffectiveAddress, Vsid};
/// use ppc_mmu::tlb::TlbEntry;
///
/// let mut mmu = Mmu::new(MmuConfig::ppc603());
/// mmu.segments.set(0, Vsid::new(0x42));
/// let ea = EffectiveAddress(0x0000_3123);
/// let Translation::TlbMiss { va } = mmu.translate(ea, AccessType::DataRead) else {
///     panic!("cold TLB must miss");
/// };
/// mmu.reload(AccessType::DataRead, TlbEntry {
///     vsid: va.vsid, page_index: va.page_index, rpn: 0x777, cached: true,
///     writable: true,
/// });
/// assert!(matches!(
///     mmu.translate(ea, AccessType::DataRead),
///     Translation::TlbHit { pa: 0x0077_7123, cached: true, writable: true }
/// ));
/// ```
#[derive(Debug, Clone)]
pub struct Mmu {
    /// The sixteen segment registers.
    pub segments: SegmentRegisters,
    /// The BAT registers.
    pub bats: BatSet,
    /// Instruction TLB.
    pub itlb: Tlb,
    /// Data TLB.
    pub dtlb: Tlb,
}

impl Mmu {
    /// Creates an MMU with empty TLBs, no BATs, and zeroed segments.
    pub fn new(cfg: MmuConfig) -> Self {
        Self {
            segments: SegmentRegisters::new(),
            bats: BatSet::new(),
            itlb: Tlb::new(cfg.itlb),
            dtlb: Tlb::new(cfg.dtlb),
        }
    }

    /// Runs the hardware translation attempt for `ea`: BATs first (they win
    /// in parallel with the page lookup, paper §3), then the TLB.
    pub fn translate(&mut self, ea: EffectiveAddress, at: AccessType) -> Translation {
        let bat = if at.is_data() {
            self.bats.translate_data(ea)
        } else {
            self.bats.translate_insn(ea)
        };
        if let Some((pa, cached)) = bat {
            return Translation::Bat { pa, cached };
        }
        let va = self.segments.translate(ea);
        let tlb = if at.is_data() {
            &mut self.dtlb
        } else {
            &mut self.itlb
        };
        match tlb.lookup(va.vsid, va.page_index) {
            Some(e) => Translation::TlbHit {
                pa: phys(e.rpn, va.offset),
                cached: e.cached,
                writable: e.writable,
            },
            None => Translation::TlbMiss { va },
        }
    }

    /// Installs a reloaded translation into the appropriate TLB.
    pub fn reload(&mut self, at: AccessType, entry: TlbEntry) {
        let tlb = if at.is_data() {
            &mut self.dtlb
        } else {
            &mut self.itlb
        };
        tlb.insert(entry);
    }

    /// `tlbie`: invalidates the congruence class of `page_index` in *both*
    /// TLBs, as the architected instruction does. Returns total entries
    /// dropped.
    pub fn tlbie(&mut self, page_index: u32) -> u32 {
        self.itlb.tlbie(page_index) + self.dtlb.tlbie(page_index)
    }

    /// Invalidates both TLBs completely.
    pub fn flush_tlbs(&mut self) {
        self.itlb.flush_all();
        self.dtlb.flush_all();
    }

    /// Total valid entries across both TLBs.
    pub fn tlb_valid_entries(&self) -> u32 {
        self.itlb.valid_entries() + self.dtlb.valid_entries()
    }

    /// Valid entries (both TLBs) whose VSID satisfies `pred`.
    pub fn tlb_entries_matching(&self, mut pred: impl FnMut(Vsid) -> bool) -> u32 {
        self.itlb.entries_matching(&mut pred) + self.dtlb.entries_matching(&mut pred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bat::BatEntry;

    fn mmu() -> Mmu {
        let mut m = Mmu::new(MmuConfig::ppc603());
        m.segments.set(0, Vsid::new(0x100));
        m.segments.set(0xc, Vsid::new(0xfff00));
        m
    }

    #[test]
    fn bat_wins_over_tlb() {
        let mut m = mmu();
        // Install a TLB entry for the same page, then a BAT covering it; the
        // BAT must win (hardware abandons the page translation on BAT hit).
        let va = m.segments.translate(EffectiveAddress(0xc000_0000));
        m.reload(
            AccessType::DataRead,
            TlbEntry {
                vsid: va.vsid,
                page_index: va.page_index,
                rpn: 0x111,
                cached: true,
                writable: true,
            },
        );
        m.bats
            .set_dbat(0, Some(BatEntry::new(0xc000_0000, 0, 8 << 20, true)));
        match m.translate(EffectiveAddress(0xc000_0abc), AccessType::DataRead) {
            Translation::Bat { pa, cached } => {
                assert_eq!(pa, 0xabc);
                assert!(cached);
            }
            other => panic!("expected BAT hit, got {other:?}"),
        }
    }

    #[test]
    fn bat_does_not_touch_tlb_stats() {
        let mut m = mmu();
        m.bats
            .set_dbat(0, Some(BatEntry::new(0xc000_0000, 0, 8 << 20, true)));
        m.translate(EffectiveAddress(0xc000_0000), AccessType::DataRead);
        assert_eq!(m.dtlb.stats().lookups, 0, "BAT hits never consult the TLB");
    }

    #[test]
    fn miss_reload_hit_round_trip() {
        let mut m = mmu();
        let ea = EffectiveAddress(0x0000_5678);
        let Translation::TlbMiss { va } = m.translate(ea, AccessType::DataRead) else {
            panic!("cold miss expected");
        };
        assert_eq!(va.vsid, Vsid::new(0x100));
        m.reload(
            AccessType::DataRead,
            TlbEntry {
                vsid: va.vsid,
                page_index: va.page_index,
                rpn: 0x2a,
                cached: true,
                writable: true,
            },
        );
        match m.translate(ea, AccessType::DataRead) {
            Translation::TlbHit { pa, .. } => assert_eq!(pa, 0x0002_a678),
            other => panic!("expected TLB hit, got {other:?}"),
        }
    }

    #[test]
    fn itlb_and_dtlb_are_split() {
        let mut m = mmu();
        let ea = EffectiveAddress(0x0000_1000);
        let Translation::TlbMiss { va } = m.translate(ea, AccessType::DataRead) else {
            panic!();
        };
        m.reload(
            AccessType::DataRead,
            TlbEntry {
                vsid: va.vsid,
                page_index: va.page_index,
                rpn: 1,
                cached: true,
                writable: true,
            },
        );
        assert!(matches!(
            m.translate(ea, AccessType::InsnFetch),
            Translation::TlbMiss { .. }
        ));
        assert!(matches!(
            m.translate(ea, AccessType::DataRead),
            Translation::TlbHit { .. }
        ));
    }

    #[test]
    fn tlbie_hits_both_tlbs() {
        let mut m = mmu();
        let e = TlbEntry {
            vsid: Vsid::new(0x100),
            page_index: 4,
            rpn: 9,
            cached: true,
            writable: true,
        };
        m.reload(AccessType::DataRead, e);
        m.reload(AccessType::InsnFetch, e);
        assert_eq!(m.tlb_valid_entries(), 2);
        assert_eq!(m.tlbie(4), 2);
        assert_eq!(m.tlb_valid_entries(), 0);
    }

    #[test]
    fn vsid_switch_orphans_old_entries() {
        // The essence of lazy flushing: after changing the segment register's
        // VSID, old TLB entries stop matching without being invalidated.
        let mut m = mmu();
        let ea = EffectiveAddress(0x0000_2000);
        let Translation::TlbMiss { va } = m.translate(ea, AccessType::DataRead) else {
            panic!();
        };
        m.reload(
            AccessType::DataRead,
            TlbEntry {
                vsid: va.vsid,
                page_index: va.page_index,
                rpn: 3,
                cached: true,
                writable: true,
            },
        );
        assert!(matches!(
            m.translate(ea, AccessType::DataRead),
            Translation::TlbHit { .. }
        ));
        m.segments.set(0, Vsid::new(0x200)); // new address-space generation
        assert!(matches!(
            m.translate(ea, AccessType::DataRead),
            Translation::TlbMiss { .. }
        ));
        assert_eq!(
            m.dtlb.valid_entries(),
            1,
            "stale entry still resident (zombie)"
        );
    }

    #[test]
    fn write_accesses_use_dtlb() {
        let mut m = mmu();
        let ea = EffectiveAddress(0x0000_3000);
        assert!(matches!(
            m.translate(ea, AccessType::DataWrite),
            Translation::TlbMiss { .. }
        ));
        assert_eq!(m.dtlb.stats().misses, 1);
        assert_eq!(m.itlb.stats().lookups, 0);
    }
}
