//! VSID allocation and liveness tracking.

use ppc_mmu::addr::Vsid;
use ppc_mmu::HashTable;

use crate::fixed_hash::DetHashMap;

use crate::kconfig::VsidPolicy;
use crate::layout::USER_SEGMENTS;

/// Base of the reserved kernel VSID range: kernel segments 0xC–0xF get
/// `KERNEL_VSID_BASE + sr`. "We reserved segments for the dynamically mapped
/// parts of the kernel … and put a fixed VSID in these segments" (paper §7).
pub const KERNEL_VSID_BASE: u32 = 0x00ff_f000;

/// Returns the fixed VSID for kernel segment register `sr` (12–15).
///
/// # Panics
///
/// Panics if `sr` is not a kernel segment.
pub fn kernel_vsid(sr: usize) -> Vsid {
    assert!((12..16).contains(&sr), "kernel segments are 0xC-0xF");
    Vsid::new(KERNEL_VSID_BASE + sr as u32)
}

/// Whether a VSID belongs to the kernel's reserved range.
pub fn is_kernel_vsid(v: Vsid) -> bool {
    v.raw() >= KERNEL_VSID_BASE
}

/// Statistics for the VSID allocator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VsidStats {
    /// Contexts allocated.
    pub contexts_allocated: u64,
    /// Contexts retired (their VSIDs became zombies).
    pub contexts_retired: u64,
}

/// Allocates per-address-space VSIDs and tracks which are live.
///
/// Liveness is the information the hardware does not have: a hash-table or
/// TLB entry under a retired VSID is a *zombie* — still marked valid, never
/// matchable. The idle-task reclaim (paper §7) queries [`VsidAllocator::is_live`]
/// to physically invalidate zombies.
///
/// The allocator also counts the valid hash-table entries under live VSIDs,
/// so [`VsidAllocator::live_entries`] costs O(1) instead of a table walk.
/// The kernel keeps the count in step at each of its table writes;
/// retiring and allocating contexts move it here.
#[derive(Debug, Clone)]
pub struct VsidAllocator {
    policy: VsidPolicy,
    next_ctx: u32,
    /// Each live user VSID with the valid hash-table entries under it.
    live: DetHashMap<u32, u32>,
    /// Valid hash-table entries under the always-live kernel VSIDs.
    kernel_entries: u32,
    /// Valid hash-table entries under any live VSID: the sum of the above.
    live_entries: u32,
    /// A new context may get a VSID handed out before, whose zombies may
    /// still sit in the hash table: set by a scatter retune, a scatter
    /// constant below [`USER_SEGMENTS`] (contexts overlap) or a context
    /// whose VSIDs reach the kernel range (they wrap). Until then every
    /// context's VSIDs are new.
    may_reuse: bool,
    /// Statistics.
    pub stats: VsidStats,
}

impl VsidAllocator {
    /// Creates an allocator under `policy`.
    pub fn new(policy: VsidPolicy) -> Self {
        Self {
            policy,
            next_ctx: 1,
            live: DetHashMap::default(),
            kernel_entries: 0,
            live_entries: 0,
            may_reuse: false,
            stats: VsidStats::default(),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> VsidPolicy {
        self.policy
    }

    /// Allocates the VSIDs for a (new or re-keyed) address space. A VSID
    /// that becomes live starts with the count of its entries in `htab`:
    /// none, unless the allocator may hand out a VSID again.
    ///
    /// * Under [`VsidPolicy::PidScatter`], the VSIDs are a pure function of
    ///   the PID — reallocating for the same PID returns the same VSIDs.
    /// * Under [`VsidPolicy::ContextCounter`], every call takes a fresh
    ///   context number, so reallocation implicitly retires nothing but
    ///   never reuses old VSIDs (the lazy-flush invariant).
    pub fn alloc_context(&mut self, pid: u32, htab: &HashTable) -> [Vsid; USER_SEGMENTS] {
        self.stats.contexts_allocated += 1;
        let constant = self.policy.constant();
        let n = match self.policy {
            VsidPolicy::PidScatter { .. } => pid,
            VsidPolicy::ContextCounter { .. } => {
                self.next_ctx += 1;
                self.next_ctx - 1
            }
        };
        let top = u64::from(n) * u64::from(constant) + USER_SEGMENTS as u64;
        self.may_reuse |= constant < USER_SEGMENTS as u32 || top > u64::from(KERNEL_VSID_BASE);
        let base = n.wrapping_mul(constant);
        let mut fresh = false;
        let mut vsids = [Vsid::new(0); USER_SEGMENTS];
        for (sr, slot) in vsids.iter_mut().enumerate() {
            // Keep user VSIDs out of the reserved kernel range.
            let raw = (base.wrapping_add(sr as u32)) & Vsid::MASK;
            let raw = if raw >= KERNEL_VSID_BASE {
                raw - KERNEL_VSID_BASE
            } else {
                raw
            };
            *slot = Vsid::new(raw);
            // `insert`, as the set this map replaced did: the same
            // allocations. A VSID already live keeps its count.
            let count = self.live.get(&raw).copied();
            self.live.insert(raw, count.unwrap_or(0));
            fresh |= count.is_none();
        }
        if fresh && self.may_reuse {
            self.recount(htab);
        }
        vsids
    }

    /// Retunes the scatter constant in place, keeping the policy kind.
    ///
    /// Only *future* contexts are affected: under [`VsidPolicy::ContextCounter`]
    /// the context number never resets, so VSIDs handed out before the retune
    /// stay unique and simply age out as zombies — the lazy-flush invariant
    /// survives a mid-run retune. (Under [`VsidPolicy::PidScatter`] the
    /// pid→VSID function changes, so a re-keyed PID gets new VSIDs; the old
    /// ones are retired by the caller like any context switch.)
    ///
    /// # Panics
    ///
    /// Panics if `constant` is zero (every context would share VSIDs).
    pub fn set_scatter_constant(&mut self, constant: u32) {
        assert!(constant != 0, "scatter constant must be nonzero");
        self.may_reuse = true;
        match &mut self.policy {
            VsidPolicy::PidScatter { constant: c } | VsidPolicy::ContextCounter { constant: c } => {
                *c = constant
            }
        }
    }

    /// Retires a context's VSIDs: they become zombies, and their entries
    /// leave the live count.
    pub fn retire(&mut self, vsids: &[Vsid; USER_SEGMENTS]) {
        self.stats.contexts_retired += 1;
        for v in vsids {
            if let Some(n) = self.live.remove(&v.raw()) {
                self.live_entries -= n;
            }
        }
    }

    /// Whether `v` can still match a live address space (kernel VSIDs are
    /// always live).
    pub fn is_live(&self, v: Vsid) -> bool {
        is_kernel_vsid(v) || self.live.contains_key(&v.raw())
    }

    /// The live-entry count of `v`, if it is live.
    fn entries_mut(&mut self, v: Vsid) -> Option<&mut u32> {
        if is_kernel_vsid(v) {
            Some(&mut self.kernel_entries)
        } else {
            self.live.get_mut(&v.raw())
        }
    }

    /// Counts a valid hash-table entry written under `v` (nothing when `v`
    /// is retired: the entry is a zombie).
    pub(crate) fn note_added(&mut self, v: Vsid) {
        if let Some(n) = self.entries_mut(v) {
            *n += 1;
            self.live_entries += 1;
        }
    }

    /// Uncounts a valid hash-table entry under `v` that was invalidated or
    /// displaced. Returns whether `v` is live, i.e. whether the entry was a
    /// live one rather than a zombie.
    pub(crate) fn note_removed(&mut self, v: Vsid) -> bool {
        let Some(n) = self.entries_mut(v) else {
            return false;
        };
        *n -= 1;
        self.live_entries -= 1;
        true
    }

    /// Valid hash-table entries under live VSIDs. O(1).
    pub fn live_entries(&self) -> u32 {
        self.live_entries
    }

    /// Sets every live VSID's count from a walk of `htab`: after a table
    /// change too wide to track entry by entry (a resize), or when a VSID
    /// handed out again may find zombies of its own in the table.
    pub(crate) fn recount(&mut self, htab: &HashTable) {
        self.live.values_mut().for_each(|n| *n = 0);
        (self.kernel_entries, self.live_entries) = (0, 0);
        for (_, _, pte) in htab.entries() {
            self.note_added(pte.vsid);
        }
    }

    /// Number of live user VSIDs.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// The next context number the allocator will hand out. Strictly
    /// monotonic under [`VsidPolicy::ContextCounter`] — never reset, never
    /// reused — which is the lazy-flush invariant the runtime checker
    /// re-verifies whenever its invariants' inputs change.
    pub fn generation(&self) -> u32 {
        self.next_ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_table() -> HashTable {
        HashTable::new(64, 0)
    }

    #[test]
    fn kernel_vsids_are_fixed_and_live() {
        let a = VsidAllocator::new(VsidPolicy::ContextCounter { constant: 897 });
        for sr in 12..16 {
            let v = kernel_vsid(sr);
            assert!(is_kernel_vsid(v));
            assert!(a.is_live(v));
        }
    }

    #[test]
    #[should_panic(expected = "kernel segments")]
    fn kernel_vsid_rejects_user_segment() {
        kernel_vsid(3);
    }

    #[test]
    fn pid_scatter_is_deterministic() {
        let htab = empty_table();
        let mut a = VsidAllocator::new(VsidPolicy::PidScatter { constant: 897 });
        let x = a.alloc_context(7, &htab);
        let y = a.alloc_context(7, &htab);
        assert_eq!(x, y);
        let z = a.alloc_context(8, &htab);
        assert_ne!(x, z);
    }

    #[test]
    fn context_counter_never_reuses() {
        let htab = empty_table();
        let mut a = VsidAllocator::new(VsidPolicy::ContextCounter { constant: 897 });
        let x = a.alloc_context(7, &htab);
        let y = a.alloc_context(7, &htab);
        assert_ne!(x, y, "same PID gets fresh VSIDs after a context bump");
    }

    #[test]
    fn retire_makes_zombies() {
        let htab = empty_table();
        let mut a = VsidAllocator::new(VsidPolicy::ContextCounter { constant: 897 });
        let v = a.alloc_context(1, &htab);
        assert!(a.is_live(v[0]));
        a.retire(&v);
        assert!(!a.is_live(v[0]));
        assert_eq!(a.stats.contexts_retired, 1);
        assert_eq!(a.live_count(), 0);
    }

    #[test]
    fn live_entries_follow_writes_retires_and_reuse() {
        let mut htab = empty_table();
        let mut a = VsidAllocator::new(VsidPolicy::ContextCounter { constant: 897 });
        let old = a.alloc_context(1, &htab);
        let mut entry = |v: Vsid, pi| {
            let mut pte = ppc_mmu::Pte::invalid();
            (pte.valid, pte.vsid, pte.page_index) = (true, v, pi);
            htab.insert(pte);
        };
        for pi in 0..3 {
            entry(old[0], pi);
            a.note_added(old[0]);
        }
        entry(kernel_vsid(12), 0);
        a.note_added(kernel_vsid(12));
        assert_eq!(a.live_entries(), 4);
        assert!(a.note_removed(old[0]));
        a.note_added(old[0]);
        a.retire(&old);
        assert_eq!(
            a.live_entries(),
            1,
            "the retired context's entries are zombies"
        );
        assert!(!a.note_removed(old[0]), "a zombie is not counted");
        a.note_added(old[0]);
        // Context 3 under the constant 299 gets context 1's VSIDs back, and
        // with them its three zombies.
        a.set_scatter_constant(299);
        a.alloc_context(2, &htab);
        let again = a.alloc_context(3, &htab);
        assert_eq!(again, old);
        assert_eq!(a.live_entries(), 1 + 3);
        assert_eq!(a.live_entries(), htab.live_entries(|v| a.is_live(v)));
    }

    #[test]
    fn segments_within_context_are_distinct() {
        let htab = empty_table();
        let mut a = VsidAllocator::new(VsidPolicy::ContextCounter { constant: 897 });
        let v = a.alloc_context(1, &htab);
        let set: std::collections::HashSet<_> = v.iter().map(|x| x.raw()).collect();
        assert_eq!(set.len(), USER_SEGMENTS);
    }

    #[test]
    fn scatter_retune_affects_future_contexts_only() {
        let htab = empty_table();
        let mut a = VsidAllocator::new(VsidPolicy::ContextCounter { constant: 16 });
        let before = a.alloc_context(1, &htab);
        a.set_scatter_constant(897);
        assert_eq!(a.policy().constant(), 897);
        // Old VSIDs stay live until retired; new contexts use the new spread.
        assert!(a.is_live(before[0]));
        let after = a.alloc_context(2, &htab);
        assert_ne!(before, after);
        // Context counter did not reset: VSIDs remain unique.
        assert_eq!(a.live_count(), 2 * USER_SEGMENTS);
    }

    #[test]
    #[should_panic(expected = "scatter constant")]
    fn scatter_retune_rejects_zero() {
        let mut a = VsidAllocator::new(VsidPolicy::ContextCounter { constant: 897 });
        a.set_scatter_constant(0);
    }

    #[test]
    fn user_vsids_avoid_kernel_range() {
        let htab = empty_table();
        let mut a = VsidAllocator::new(VsidPolicy::ContextCounter {
            constant: 0xff_ffff,
        });
        for pid in 0..64 {
            for v in a.alloc_context(pid, &htab) {
                assert!(
                    !is_kernel_vsid(v),
                    "user vsid {:#x} in kernel range",
                    v.raw()
                );
            }
        }
    }
}
