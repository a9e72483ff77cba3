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

/// Why a reference did not complete: the trap it takes before it executes
/// again (DESIGN.md §16). The machine charges nothing for a miss; the OS
/// services it and retries the reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Miss {
    /// No BAT matched and the TLB missed: one lookup and one miss are
    /// counted, and the OS reloads the translation of `va` (hardware
    /// hash-table walk on the 604, software handler on the 603) or takes a
    /// page fault.
    Tlb {
        /// The virtual address needing a reload.
        va: VirtualAddress,
    },
    /// A store through a read-only TLB entry: the protection fault that
    /// drives copy-on-write. The hit is counted.
    Protection {
        /// The physical address the entry translates to.
        pa: PhysAddr,
        /// Whether the entry is cacheable.
        cached: bool,
    },
    /// Only on the audited instance of [`Mmu::translate`]: the BAT register
    /// (`bat`) or TLB slot holding the translation carries no audit mark.
    /// Nothing is counted; the OS audits the hit and retries without
    /// requiring the mark.
    Unaudited {
        /// Whether a BAT register, not a TLB slot, holds the translation.
        bat: bool,
        /// The translated physical address.
        pa: PhysAddr,
        /// Whether the access is cacheable.
        cached: bool,
        /// Whether stores are permitted (always, through a BAT).
        writable: bool,
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
/// layer up (in `kernel-sim`): on a [`Miss::Tlb`] the hardware (or the OS,
/// on the 603) runs a reload and then calls [`Mmu::reload`].
///
/// # Examples
///
/// ```
/// use ppc_mmu::{AccessType, Miss, Mmu, MmuConfig};
/// use ppc_mmu::addr::{EffectiveAddress, Vsid};
/// use ppc_mmu::tlb::TlbEntry;
///
/// let mut mmu = Mmu::new(MmuConfig::ppc603());
/// mmu.segments.set(0, Vsid::new(0x42));
/// let ea = EffectiveAddress(0x0000_3123);
/// let Err(Miss::Tlb { va }) = mmu.translate::<false>(ea, AccessType::DataRead) else {
///     panic!("cold TLB must miss");
/// };
/// mmu.reload(AccessType::DataRead, TlbEntry {
///     vsid: va.vsid, page_index: va.page_index, rpn: 0x777, cached: true,
///     writable: false,
/// });
/// assert_eq!(mmu.translate::<false>(ea, AccessType::DataRead), Ok((0x0077_7123, true)));
/// assert_eq!(
///     mmu.translate::<false>(ea, AccessType::DataWrite),
///     Err(Miss::Protection { pa: 0x0077_7123, cached: true })
/// );
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
    /// in parallel with the page lookup, paper §3), then the TLB. Returns
    /// the physical address and whether it is cacheable, having counted
    /// the BAT or TLB hit, or the [`Miss`] the access takes.
    ///
    /// The one BAT and TLB probe of every reference: it peeks, then commits
    /// a hit (hit counters, the TLB's LRU stamp) or counts a TLB miss. With
    /// `AUDITED` it also refuses, committing nothing, a translation whose
    /// BAT register or TLB slot carries no audit mark (DESIGN.md §12).
    #[inline(always)]
    pub fn translate<const AUDITED: bool>(
        &mut self,
        ea: EffectiveAddress,
        at: AccessType,
    ) -> Result<(PhysAddr, bool), Miss> {
        let data = at.is_data();
        let bat = if data {
            self.bats.probe_data(ea)
        } else {
            self.bats.probe_insn(ea)
        };
        if let Some(hit) = bat {
            if AUDITED && !hit.audited {
                return Err(Miss::Unaudited {
                    bat: true,
                    pa: hit.pa,
                    cached: hit.cached,
                    writable: true,
                });
            }
            if data {
                self.bats.dbat_hits += 1;
            } else {
                self.bats.ibat_hits += 1;
            }
            return Ok((hit.pa, hit.cached));
        }
        let va = self.segments.translate(ea);
        let tlb = if data { &mut self.dtlb } else { &mut self.itlb };
        let Some((idx, e)) = tlb.peek(va.vsid, va.page_index) else {
            tlb.count_miss();
            return Err(Miss::Tlb { va });
        };
        let pa = phys(e.rpn, va.offset);
        if at == AccessType::DataWrite && !e.writable {
            tlb.commit_hit(idx);
            return Err(Miss::Protection {
                pa,
                cached: e.cached,
            });
        }
        if AUDITED && !tlb.audited(idx) {
            return Err(Miss::Unaudited {
                bat: false,
                pa,
                cached: e.cached,
                writable: e.writable,
            });
        }
        tlb.commit_hit(idx);
        Ok((pa, e.cached))
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

    /// Clears every audit mark in both TLBs and the BAT set (DESIGN.md §12).
    pub fn clear_audit_marks(&mut self) {
        self.itlb.clear_audit_marks();
        self.dtlb.clear_audit_marks();
        self.bats.clear_audit_marks();
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

    fn entry(va: VirtualAddress, rpn: u32) -> TlbEntry {
        TlbEntry {
            vsid: va.vsid,
            page_index: va.page_index,
            rpn,
            cached: true,
            writable: true,
        }
    }

    /// The unaudited instance, as a kernel without a checker runs it.
    fn translate(
        m: &mut Mmu,
        ea: EffectiveAddress,
        at: AccessType,
    ) -> Result<(PhysAddr, bool), Miss> {
        m.translate::<false>(ea, at)
    }

    #[test]
    fn bat_wins_over_tlb() {
        let mut m = mmu();
        // Install a TLB entry for the same page, then a BAT covering it; the
        // BAT must win (hardware abandons the page translation on BAT hit).
        let va = m.segments.translate(EffectiveAddress(0xc000_0000));
        m.reload(AccessType::DataRead, entry(va, 0x111));
        m.bats
            .set_dbat(0, Some(BatEntry::new(0xc000_0000, 0, 8 << 20, true)));
        assert_eq!(
            translate(&mut m, EffectiveAddress(0xc000_0abc), AccessType::DataRead),
            Ok((0xabc, true))
        );
    }

    #[test]
    fn bat_does_not_touch_tlb_stats() {
        let mut m = mmu();
        m.bats
            .set_dbat(0, Some(BatEntry::new(0xc000_0000, 0, 8 << 20, true)));
        translate(&mut m, EffectiveAddress(0xc000_0000), AccessType::DataRead).unwrap();
        assert_eq!(m.dtlb.stats().lookups, 0, "BAT hits never consult the TLB");
        assert_eq!((m.bats.dbat_hits, m.bats.ibat_hits), (1, 0));
    }

    #[test]
    fn miss_reload_hit_round_trip() {
        let mut m = mmu();
        let ea = EffectiveAddress(0x0000_5678);
        let Err(Miss::Tlb { va }) = translate(&mut m, ea, AccessType::DataRead) else {
            panic!("cold miss expected");
        };
        assert_eq!(va.vsid, Vsid::new(0x100));
        m.reload(AccessType::DataRead, entry(va, 0x2a));
        assert_eq!(
            translate(&mut m, ea, AccessType::DataRead),
            Ok((0x0002_a678, true))
        );
    }

    #[test]
    fn itlb_and_dtlb_are_split() {
        let mut m = mmu();
        let ea = EffectiveAddress(0x0000_1000);
        let Err(Miss::Tlb { va }) = translate(&mut m, ea, AccessType::DataRead) else {
            panic!();
        };
        m.reload(AccessType::DataRead, entry(va, 1));
        assert!(matches!(
            translate(&mut m, ea, AccessType::InsnFetch),
            Err(Miss::Tlb { .. })
        ));
        assert!(translate(&mut m, ea, AccessType::DataRead).is_ok());
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
        let Err(Miss::Tlb { va }) = translate(&mut m, ea, AccessType::DataRead) else {
            panic!();
        };
        m.reload(AccessType::DataRead, entry(va, 3));
        assert!(translate(&mut m, ea, AccessType::DataRead).is_ok());
        m.segments.set(0, Vsid::new(0x200)); // new address-space generation
        assert!(matches!(
            translate(&mut m, ea, AccessType::DataRead),
            Err(Miss::Tlb { .. })
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
            translate(&mut m, ea, AccessType::DataWrite),
            Err(Miss::Tlb { .. })
        ));
        assert_eq!(m.dtlb.stats().misses, 1);
        assert_eq!(m.itlb.stats().lookups, 0);
    }
}
