//! Block address translation (BAT) registers.

use crate::addr::{EffectiveAddress, PhysAddr};

/// One BAT register pair (upper/lower), modelled at the level the paper uses
/// them: a naturally aligned power-of-two block of effective addresses mapped
/// to an equally aligned physical block.
///
/// Block sizes range from 128 KiB to 256 MiB. A BAT hit bypasses the
/// segment/TLB/hash-table path entirely — this is what lets the paper (§5.1)
/// map kernel text and data "for free", taking zero TLB and htab entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatEntry {
    /// Effective base address of the block. Must be aligned to `len_bytes`.
    pub ea_base: u32,
    /// Physical base address of the block. Must be aligned to `len_bytes`.
    pub pa_base: u32,
    /// Block length in bytes: a power of two between 128 KiB and 256 MiB.
    pub len_bytes: u32,
    /// Whether accesses through this BAT are cacheable (I/O BATs are not).
    pub cached: bool,
}

/// Minimum architected BAT block size (128 KiB).
pub const BAT_MIN_LEN: u32 = 128 * 1024;

/// Maximum architected BAT block size (256 MiB).
pub const BAT_MAX_LEN: u32 = 256 * 1024 * 1024;

impl BatEntry {
    /// Creates a BAT entry.
    ///
    /// # Panics
    ///
    /// Panics if `len_bytes` is not a power of two in `[128 KiB, 256 MiB]`,
    /// or if either base is not aligned to the block length.
    pub fn new(ea_base: u32, pa_base: u32, len_bytes: u32, cached: bool) -> Self {
        assert!(
            len_bytes.is_power_of_two(),
            "BAT length must be a power of two"
        );
        assert!(
            (BAT_MIN_LEN..=BAT_MAX_LEN).contains(&len_bytes),
            "BAT length must be between 128 KiB and 256 MiB"
        );
        assert!(
            ea_base.is_multiple_of(len_bytes),
            "BAT effective base must be block-aligned"
        );
        assert!(
            pa_base.is_multiple_of(len_bytes),
            "BAT physical base must be block-aligned"
        );
        Self {
            ea_base,
            pa_base,
            len_bytes,
            cached,
        }
    }

    /// Returns the translation if `ea` falls inside this block.
    pub fn translate(&self, ea: EffectiveAddress) -> Option<(PhysAddr, bool)> {
        let mask = self.len_bytes - 1;
        if ea.0 & !mask == self.ea_base {
            Some((self.pa_base | (ea.0 & mask), self.cached))
        } else {
            None
        }
    }
}

/// A BAT match: the translation and whether its register carries an audit
/// mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatHit {
    /// The translated physical address.
    pub pa: PhysAddr,
    /// Whether the block is cacheable.
    pub cached: bool,
    /// Whether the matching register's block has been audited.
    pub audited: bool,
}

/// The first valid register of one side whose block holds `ea`.
#[inline]
fn probe(bats: &[Option<BatEntry>; 4], marks: &[bool; 4], ea: EffectiveAddress) -> Option<BatHit> {
    bats.iter().zip(marks).find_map(|(b, &audited)| {
        let (pa, cached) = b.as_ref()?.translate(ea)?;
        Some(BatHit {
            pa,
            cached,
            audited,
        })
    })
}

/// The four instruction and four data BAT register pairs.
///
/// # Examples
///
/// ```
/// use ppc_mmu::bat::{BatEntry, BatSet};
/// use ppc_mmu::addr::EffectiveAddress;
///
/// let mut bats = BatSet::new();
/// // Map 8 MiB of kernel at 0xC0000000 -> physical 0.
/// bats.set_dbat(0, Some(BatEntry::new(0xc000_0000, 0, 8 << 20, true)));
/// let hit = bats.probe_data(EffectiveAddress(0xc012_3456)).unwrap();
/// assert_eq!(hit.pa, 0x0012_3456);
/// assert!(hit.cached);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BatSet {
    ibat: [Option<BatEntry>; 4],
    dbat: [Option<BatEntry>; 4],
    /// Per-register audit marks, set by a consistency checker once it has
    /// audited a register's whole block (DESIGN.md §12) and cleared when
    /// the register is reprogrammed.
    ibat_audited: [bool; 4],
    dbat_audited: [bool; 4],
    /// Number of data accesses satisfied by a BAT.
    pub dbat_hits: u64,
    /// Number of instruction fetches satisfied by a BAT.
    pub ibat_hits: u64,
}

impl BatSet {
    /// Creates an empty BAT set (all entries invalid).
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs (or clears) instruction BAT `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 4`.
    pub fn set_ibat(&mut self, index: usize, entry: Option<BatEntry>) {
        self.ibat[index] = entry;
        self.ibat_audited[index] = false;
    }

    /// Installs (or clears) data BAT `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 4`.
    pub fn set_dbat(&mut self, index: usize, entry: Option<BatEntry>) {
        self.dbat[index] = entry;
        self.dbat_audited[index] = false;
    }

    /// The data-side register whose block holds `ea`: its translation and
    /// audit mark. Counts nothing; [`crate::Mmu::translate`] counts the hit
    /// it commits in `dbat_hits`.
    #[inline]
    pub fn probe_data(&self, ea: EffectiveAddress) -> Option<BatHit> {
        probe(&self.dbat, &self.dbat_audited, ea)
    }

    /// The instruction-side twin of [`BatSet::probe_data`] (hits are
    /// counted in `ibat_hits`).
    #[inline]
    pub fn probe_insn(&self, ea: EffectiveAddress) -> Option<BatHit> {
        probe(&self.ibat, &self.ibat_audited, ea)
    }

    /// Marks the register that translates `ea` (data side when `data`) as
    /// audited when `legal` accepts its whole block. Touches no counter.
    pub fn mark_audited(
        &mut self,
        data: bool,
        ea: EffectiveAddress,
        legal: impl FnOnce(&BatEntry) -> bool,
    ) {
        let (bats, marks) = if data {
            (&self.dbat, &mut self.dbat_audited)
        } else {
            (&self.ibat, &mut self.ibat_audited)
        };
        let hit = bats
            .iter()
            .enumerate()
            .find_map(|(i, b)| b.filter(|b| b.translate(ea).is_some()).map(|b| (i, b)));
        if let Some((i, b)) = hit {
            marks[i] = legal(&b);
        }
    }

    /// Clears every register's audit mark.
    pub fn clear_audit_marks(&mut self) {
        self.ibat_audited = [false; 4];
        self.dbat_audited = [false; 4];
    }

    /// Number of valid data BATs.
    pub fn dbat_in_use(&self) -> usize {
        self.dbat.iter().flatten().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translate_inside_and_outside() {
        let b = BatEntry::new(0xc000_0000, 0x0100_0000, BAT_MIN_LEN, true);
        assert_eq!(
            b.translate(EffectiveAddress(0xc000_0000)),
            Some((0x0100_0000, true))
        );
        assert_eq!(
            b.translate(EffectiveAddress(0xc001_ffff)),
            Some((0x0101_ffff, true))
        );
        assert_eq!(b.translate(EffectiveAddress(0xc002_0000)), None);
        assert_eq!(b.translate(EffectiveAddress(0xbfff_ffff)), None);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_pow2_len() {
        BatEntry::new(0, 0, 128 * 1024 + 4096, true);
    }

    #[test]
    #[should_panic(expected = "between 128 KiB")]
    fn rejects_tiny_block() {
        BatEntry::new(0, 0, 64 * 1024, true);
    }

    #[test]
    #[should_panic(expected = "block-aligned")]
    fn rejects_misaligned_base() {
        BatEntry::new(0x0002_0000, 0, 256 * 1024, true);
    }

    #[test]
    fn data_and_insn_sides_are_separate() {
        let mut bats = BatSet::new();
        bats.set_ibat(0, Some(BatEntry::new(0xc000_0000, 0, BAT_MIN_LEN, true)));
        assert!(bats.probe_insn(EffectiveAddress(0xc000_1000)).is_some());
        assert!(bats.probe_data(EffectiveAddress(0xc000_1000)).is_none());
    }

    #[test]
    fn first_matching_bat_wins() {
        let mut bats = BatSet::new();
        bats.set_dbat(
            0,
            Some(BatEntry::new(0xc000_0000, 0x0100_0000, BAT_MIN_LEN, true)),
        );
        bats.set_dbat(
            1,
            Some(BatEntry::new(0xc000_0000, 0x0200_0000, BAT_MIN_LEN, false)),
        );
        let hit = bats.probe_data(EffectiveAddress(0xc000_0abc)).unwrap();
        assert_eq!(hit.pa, 0x0100_0abc);
    }

    #[test]
    fn uncached_io_bat() {
        let mut bats = BatSet::new();
        bats.set_dbat(
            3,
            Some(BatEntry::new(0xf000_0000, 0xf000_0000, 16 << 20, false)),
        );
        let hit = bats.probe_data(EffectiveAddress(0xf00b_0000)).unwrap();
        assert!(!hit.cached);
    }

    #[test]
    fn in_use_counters() {
        let mut bats = BatSet::new();
        assert_eq!(bats.dbat_in_use(), 0);
        bats.set_dbat(0, Some(BatEntry::new(0, 0, BAT_MIN_LEN, true)));
        bats.set_dbat(2, Some(BatEntry::new(0x1000_0000, 0, BAT_MIN_LEN, true)));
        assert_eq!(bats.dbat_in_use(), 2);
        bats.set_dbat(0, None);
        assert_eq!(bats.dbat_in_use(), 1);
    }

    #[test]
    fn audit_marks_follow_their_register() {
        let mut bats = BatSet::new();
        let block = BatEntry::new(0xc000_0000, 0, BAT_MIN_LEN, true);
        bats.set_dbat(1, Some(block));
        let ea = EffectiveAddress(0xc000_1000);
        assert!(!bats.probe_data(ea).unwrap().audited);
        bats.mark_audited(true, ea, |_| false);
        assert!(
            !bats.probe_data(ea).unwrap().audited,
            "an illegal block stays unmarked"
        );
        bats.mark_audited(false, ea, |_| true);
        assert!(!bats.probe_data(ea).unwrap().audited, "sides are separate");
        bats.mark_audited(true, ea, |b| *b == block);
        assert!(bats.probe_data(ea).unwrap().audited);
        assert_eq!(bats.dbat_hits, 0, "marking is stat-neutral");
        bats.set_dbat(1, Some(block));
        assert!(
            !bats.probe_data(ea).unwrap().audited,
            "reprogramming clears"
        );
        bats.mark_audited(true, ea, |_| true);
        bats.clear_audit_marks();
        assert!(!bats.probe_data(ea).unwrap().audited);
    }

    #[test]
    fn max_size_bat() {
        let b = BatEntry::new(0xc000_0000, 0, BAT_MAX_LEN, true);
        assert!(b.translate(EffectiveAddress(0xcfff_ffff)).is_some());
        assert!(b.translate(EffectiveAddress(0xd000_0000)).is_none());
    }
}
