//! Simulated physical memory and the page-frame allocator.

use ppc_mmu::addr::{PhysAddr, PAGE_SHIFT, PAGE_SIZE};

use crate::layout::{pfn, pfn_to_pa, FRAME_POOL_PA, PT_POOL_PA, RAM_BYTES, TOTAL_FRAMES};

/// Words per page frame.
const FRAME_WORDS: usize = (PAGE_SIZE / 4) as usize;

/// Word-addressable simulated RAM.
///
/// Page tables and other kernel structures genuinely live here, so the
/// simulator's page-table walks read the same words the fault handlers
/// wrote — semantics, not just costs.
///
/// Clearing a frame is lazy: [`PhysMem::zero_page`] sets the frame's zero
/// mark instead of writing its words, a marked frame reads as zero, and the
/// first write to it clears the words and the mark. Most cleared frames are
/// user pages whose words nobody reads or writes, so the host never touches
/// them: `words` is one zero-allocated block whose untouched pages the host
/// never maps.
#[derive(Clone)]
pub struct PhysMem {
    words: Vec<u32>,
    /// One zero mark per frame, held inline (no allocation of its own).
    zeroed: [u64; TOTAL_FRAMES as usize / 64],
}

impl std::fmt::Debug for PhysMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhysMem")
            .field("bytes", &(self.words.len() * 4))
            .finish()
    }
}

impl PhysMem {
    /// Allocates zeroed RAM.
    pub fn new() -> Self {
        Self {
            words: vec![0; (RAM_BYTES / 4) as usize],
            zeroed: [0; TOTAL_FRAMES as usize / 64],
        }
    }

    /// The zero-mark word and bit of the frame holding `pa` (the word
    /// index is out of bounds when `pa` is outside RAM).
    fn mark(pa: PhysAddr) -> (usize, u64) {
        let frame = (pa >> PAGE_SHIFT) as usize;
        (frame / 64, 1 << (frame % 64))
    }

    /// Whether the frame holding `pa` carries its zero mark.
    fn is_marked(&self, pa: PhysAddr) -> bool {
        let (i, bit) = Self::mark(pa);
        self.zeroed[i] & bit != 0
    }

    /// Sets (`true`) or clears the zero mark of the frame holding `pa`.
    fn set_mark(&mut self, pa: PhysAddr, zero: bool) {
        let (i, bit) = Self::mark(pa);
        if zero {
            self.zeroed[i] |= bit;
        } else {
            self.zeroed[i] &= !bit;
        }
    }

    /// Reads the aligned word containing `pa`: zero in a marked frame.
    ///
    /// # Panics
    ///
    /// Panics if `pa` is outside RAM.
    pub fn read_u32(&self, pa: PhysAddr) -> u32 {
        if self.is_marked(pa) {
            0
        } else {
            self.words[(pa / 4) as usize]
        }
    }

    /// Writes the aligned word containing `pa`. The first write to a marked
    /// frame clears the frame's words and its mark.
    ///
    /// # Panics
    ///
    /// Panics if `pa` is outside RAM.
    pub fn write_u32(&mut self, pa: PhysAddr, value: u32) {
        if self.is_marked(pa) {
            self.set_mark(pa, false);
            let start = ((pa & !(PAGE_SIZE - 1)) / 4) as usize;
            self.words[start..start + FRAME_WORDS].fill(0);
        }
        self.words[(pa / 4) as usize] = value;
    }

    /// Copies one page's contents (the semantic side of a COW break). A
    /// copy of a marked frame marks the destination instead.
    pub fn copy_page(&mut self, src_pa: PhysAddr, dst_pa: PhysAddr) {
        debug_assert_eq!(src_pa % PAGE_SIZE, 0);
        debug_assert_eq!(dst_pa % PAGE_SIZE, 0);
        let zero = self.is_marked(src_pa);
        self.set_mark(dst_pa, zero);
        if !zero {
            let src = (src_pa / 4) as usize;
            self.words
                .copy_within(src..src + FRAME_WORDS, (dst_pa / 4) as usize);
        }
    }

    /// Zero-fills one page: sets its zero mark.
    pub fn zero_page(&mut self, page_pa: PhysAddr) {
        debug_assert_eq!(page_pa % PAGE_SIZE, 0);
        self.set_mark(page_pa, true);
    }
}

impl Default for PhysMem {
    fn default() -> Self {
        Self::new()
    }
}

/// Why a frame is being requested (for accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameUse {
    /// A user page (anonymous memory, stack, text).
    User,
    /// A page-table page.
    PageTable,
    /// Kernel dynamic memory (pipe buffers, page cache).
    Kernel,
}

/// Allocation statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameStats {
    /// `get_free_page()` calls.
    pub allocs: u64,
    /// Frees.
    pub frees: u64,
    /// Allocations satisfied from the pre-cleared list (paper §9), skipping
    /// the clear entirely.
    pub precleared_hits: u64,
    /// Allocations that had to clear the page on demand.
    pub demand_clears: u64,
    /// Pages cleared by the idle task.
    pub idle_clears: u64,
}

/// The physical page-frame allocator: a free list plus the paper's §9
/// pre-cleared page list.
///
/// The allocator hands out *frames*; clearing costs are charged by the
/// caller (the kernel), because whether and how a page is cleared is exactly
/// the policy §9 varies.
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    free: Vec<u32>,
    precleared: Vec<u32>,
    pt_free: Vec<u32>,
    /// Statistics.
    pub stats: FrameStats,
}

impl FrameAllocator {
    /// Builds the allocator over the general and page-table pools.
    pub fn new() -> Self {
        let first_frame = pfn(FRAME_POOL_PA);
        // LIFO order: low frames allocated first.
        let free: Vec<u32> = (first_frame..TOTAL_FRAMES).rev().collect();
        let pt_first = pfn(PT_POOL_PA);
        let pt_free: Vec<u32> = (pt_first..pfn(crate::layout::FRAME_POOL_PA).min(pt_first + 224))
            .rev()
            .collect();
        Self {
            free,
            precleared: Vec::new(),
            pt_free,
            stats: FrameStats::default(),
        }
    }

    /// Takes a frame. Returns `(pa, was_precleared)`; the caller must clear
    /// the page (and charge for it) when `was_precleared` is false and it
    /// needs a zeroed page. Returns `None` when out of memory.
    pub fn get_free_page(&mut self) -> Option<(PhysAddr, bool)> {
        self.stats.allocs += 1;
        if let Some(f) = self.precleared.pop() {
            self.stats.precleared_hits += 1;
            return Some((pfn_to_pa(f), true));
        }
        self.stats.demand_clears += 1;
        self.free.pop().map(|f| (pfn_to_pa(f), false))
    }

    /// Takes a page-table page (from the BAT-covered low pool, so that page
    /// tables are "mapped for free" when BATs are on — paper §5.1).
    pub fn get_pt_page(&mut self) -> Option<PhysAddr> {
        self.pt_free.pop().map(pfn_to_pa)
    }

    /// Returns a frame to the free list.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if the frame is below the pool base — freeing
    /// kernel image or htab frames is a bug.
    pub fn free_page(&mut self, pa: PhysAddr) {
        debug_assert!(pa >= FRAME_POOL_PA, "freeing a reserved frame: {pa:#x}");
        debug_assert_eq!(pa % PAGE_SIZE, 0);
        self.stats.frees += 1;
        self.free.push(pfn(pa));
    }

    /// Returns a page-table page to its pool.
    pub fn free_pt_page(&mut self, pa: PhysAddr) {
        self.pt_free.push(pfn(pa));
    }

    /// Pops a dirty frame for the idle task to clear, if any are waiting.
    pub fn take_frame_for_idle_clear(&mut self) -> Option<PhysAddr> {
        self.free.pop().map(pfn_to_pa)
    }

    /// Deposits an idle-cleared frame on the pre-cleared list.
    pub fn deposit_precleared(&mut self, pa: PhysAddr) {
        self.stats.idle_clears += 1;
        self.precleared.push(pfn(pa));
    }

    /// Returns an idle-cleared frame to the ordinary free list (the §9
    /// variant that clears but does *not* remember — used to isolate the
    /// cost of clearing from the benefit of the list).
    pub fn return_uncleared(&mut self, pa: PhysAddr) {
        self.free.push(pfn(pa));
    }

    /// Frames currently free (ordinary + pre-cleared).
    pub fn free_frames(&self) -> usize {
        self.free.len() + self.precleared.len()
    }

    /// Frames on the pre-cleared list.
    pub fn precleared_frames(&self) -> usize {
        self.precleared.len()
    }

    /// Page-table pages currently free (the chaos driver's leak gate checks
    /// this returns to its boot value once every task is torn down).
    pub fn pt_free_pages(&self) -> usize {
        self.pt_free.len()
    }
}

impl Default for FrameAllocator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut m = PhysMem::new();
        m.write_u32(0x1234, 0xdead_beef);
        assert_eq!(m.read_u32(0x1234), 0xdead_beef);
        assert_eq!(m.read_u32(0x1236), 0xdead_beef, "word-aligned access");
        assert_eq!(m.read_u32(0x1238), 0);
    }

    #[test]
    fn zero_page_clears_exactly_one_page() {
        let mut m = PhysMem::new();
        m.write_u32(0x3ffc, 7);
        m.write_u32(0x4000, 8);
        m.write_u32(0x4ffc, 9);
        m.write_u32(0x5000, 10);
        m.zero_page(0x4000);
        assert_eq!(m.read_u32(0x3ffc), 7);
        assert_eq!(m.read_u32(0x4000), 0);
        assert_eq!(m.read_u32(0x4ffc), 0);
        assert_eq!(m.read_u32(0x5000), 10);
    }

    #[test]
    fn alloc_free_round_trip() {
        let mut a = FrameAllocator::new();
        let n = a.free_frames();
        let (pa, pre) = a.get_free_page().unwrap();
        assert!(!pre, "nothing pre-cleared initially");
        assert!(pa >= FRAME_POOL_PA);
        assert_eq!(a.free_frames(), n - 1);
        a.free_page(pa);
        assert_eq!(a.free_frames(), n);
    }

    #[test]
    fn precleared_list_is_preferred() {
        let mut a = FrameAllocator::new();
        let f = a.take_frame_for_idle_clear().unwrap();
        a.deposit_precleared(f);
        assert_eq!(a.precleared_frames(), 1);
        let (pa, pre) = a.get_free_page().unwrap();
        assert!(pre);
        assert_eq!(pa, f);
        assert_eq!(a.stats.precleared_hits, 1);
        assert_eq!(a.stats.idle_clears, 1);
    }

    #[test]
    fn pt_pool_is_separate_and_low() {
        let mut a = FrameAllocator::new();
        let pt = a.get_pt_page().unwrap();
        assert!((PT_POOL_PA..FRAME_POOL_PA).contains(&pt));
        let (user, _) = a.get_free_page().unwrap();
        assert!(user >= FRAME_POOL_PA);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut a = FrameAllocator::new();
        while a.get_free_page().is_some() {}
        assert!(a.get_free_page().is_none());
        assert_eq!(a.free_frames(), 0);
    }

    #[test]
    fn frames_are_unique_until_freed() {
        let mut a = FrameAllocator::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let (pa, _) = a.get_free_page().unwrap();
            assert!(seen.insert(pa), "duplicate frame {pa:#x}");
        }
    }
}
