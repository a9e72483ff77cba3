//! The in-memory hashed page table (htab).

use crate::addr::{PhysAddr, Vsid};
use crate::hash::HashFunction;
use crate::pte::Pte;

/// Number of PTEs per PTE group (PTEG).
pub const PTES_PER_GROUP: usize = 8;

/// Which slot the reload code displaces when both candidate PTEGs are full.
///
/// The paper (§7) says the reload code "chose an arbitrary PTE to replace";
/// Linux/PPC used a rotating cursor. The alternatives quantify how much the
/// choice matters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Replacement {
    /// A per-group rotating cursor (Linux/PPC's choice).
    #[default]
    RoundRobin,
    /// A pseudo-random slot (deterministic xorshift).
    Random,
    /// Always slot 0 — the pathological baseline.
    FirstSlot,
}

/// Bytes per architected PTE.
pub const PTE_BYTES: u32 = 8;

/// Statistics for the hash table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HtabStats {
    /// Lookups performed.
    pub searches: u64,
    /// Lookups satisfied from the primary PTEG.
    pub found_primary: u64,
    /// Lookups satisfied from the secondary PTEG.
    pub found_secondary: u64,
    /// Lookups that missed both PTEGs.
    pub misses: u64,
    /// Individual PTE slots probed (each is one memory reference).
    pub probes: u64,
    /// PTEs inserted.
    pub inserts: u64,
    /// Inserts that found an empty (invalid) slot.
    pub inserts_into_empty: u64,
    /// Inserts that displaced a slot whose valid bit was set.
    pub evictions: u64,
    /// Inserts that found *both* candidate PTEGs completely full (the
    /// overflow condition: sixteen probes, then a forced displacement).
    pub overflows: u64,
    /// Explicit invalidations of single entries.
    pub invalidates: u64,
    /// Zombie entries physically invalidated by the idle-task reclaim scan.
    pub zombies_reclaimed: u64,
}

impl HtabStats {
    /// Hit rate of searches, in `[0, 1]`; `1.0` with no searches.
    pub fn hit_rate(&self) -> f64 {
        if self.searches == 0 {
            1.0
        } else {
            (self.found_primary + self.found_secondary) as f64 / self.searches as f64
        }
    }

    /// The paper's §7 "ratio of hash table reloads to evicts": fraction of
    /// inserts that had to displace a valid entry.
    pub fn evict_ratio(&self) -> f64 {
        if self.inserts == 0 {
            0.0
        } else {
            self.evictions as f64 / self.inserts as f64
        }
    }
}

/// Result of a hash-table search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchOutcome {
    /// The matching entry, if found.
    pub pte: Option<Pte>,
    /// Location `(group, slot)` of the match.
    pub location: Option<(u32, usize)>,
    /// Number of PTE slots read while searching (memory references).
    pub probes: u32,
}

/// Result of a hash-table insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Where the entry landed `(group, slot)`.
    pub location: (u32, usize),
    /// The entry that was displaced, if its valid bit was set. The caller
    /// (which knows which VSIDs are live) classifies it as a real eviction or
    /// a zombie replacement.
    pub displaced: Option<Pte>,
    /// Whether the new entry went in via the secondary hash.
    pub secondary: bool,
    /// Number of PTE slots read while looking for a free slot.
    pub probes: u32,
    /// Whether both candidate PTEGs were completely full, forcing a
    /// displacement (the hash-table overflow condition). When set,
    /// `displaced` is always `Some`.
    pub overflow: bool,
}

/// Result of a [`HashTable::resize_with`] rehash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResizeOutcome {
    /// Group count before the rehash.
    pub old_groups: u32,
    /// Group count after the rehash.
    pub new_groups: u32,
    /// Old-table slots read while scanning (each is one memory reference).
    pub slots_scanned: u32,
    /// Valid entries reinserted under the new hash function.
    pub moved: u32,
    /// Valid entries dropped because both candidate PTEGs in the new table
    /// were already full. Safe: the table is a cache of the Linux page
    /// tables, so a dropped translation simply reloads on its next touch.
    pub dropped: u32,
    /// New-table slots probed or written while reinserting.
    pub reinsert_probes: u32,
}

/// The architected hashed page table: `num_groups` PTEGs of eight entries,
/// resident at `base_pa` in simulated physical memory.
///
/// The table does not know which VSIDs are live — exactly like the hardware.
/// Zombie entries (valid bit set, VSID retired by the lazy-flush scheme of
/// paper §7) look identical to live ones until the idle task's
/// [`HashTable::reclaim_zombies`] scan clears them.
///
/// # Examples
///
/// ```
/// use ppc_mmu::{HashTable, Pte, addr::Vsid};
///
/// let mut htab = HashTable::new(2048, 0x10_0000);
/// let mut pte = Pte::invalid();
/// pte.valid = true;
/// pte.vsid = Vsid::new(42);
/// pte.page_index = 7;
/// pte.rpn = 0x123;
/// htab.insert(pte);
/// let found = htab.search(Vsid::new(42), 7);
/// assert_eq!(found.pte.unwrap().rpn, 0x123);
/// ```
#[derive(Debug, Clone)]
pub struct HashTable {
    hash: HashFunction,
    groups: Vec<[Pte; PTES_PER_GROUP]>,
    base_pa: PhysAddr,
    /// Per-group bookkeeping, one entry per PTEG.
    meta: Vec<GroupMeta>,
    /// The most recently marked group of the written list threaded through
    /// `meta` ([`NO_GROUP`] when no group is marked).
    written_head: u32,
    /// Slots whose valid bit is set (the sum of the per-group counts).
    valid: u32,
    /// Groups whose eight slots are all valid.
    full: u32,
    stats: HtabStats,
    /// Cursor for the incremental idle-task reclaim scan.
    reclaim_cursor: u32,
    /// Replacement policy for full-group inserts.
    replacement: Replacement,
    /// Xorshift state for [`Replacement::Random`].
    rng_state: u32,
}

/// What the table keeps per PTEG besides its eight slots.
#[derive(Debug, Clone, Copy, Default)]
struct GroupMeta {
    /// Round-robin eviction cursor (like Linux/PPC's next-slot).
    rr: u8,
    /// Valid slots in the group.
    valid: u8,
    /// Written since the mark was last cleared: a consistency checker
    /// re-sweeps only marked groups (DESIGN.md §12). A marked group is on
    /// the table's written list.
    written: bool,
    /// `valid` when the group was marked.
    marked_valid: u8,
    /// The next group on the written list ([`NO_GROUP`] ends it).
    next_written: u32,
}

/// The end of the written list.
const NO_GROUP: u32 = u32::MAX;

impl HashTable {
    /// Creates an empty table of `num_groups` PTEGs based at `base_pa`.
    ///
    /// The paper's machines use 16384 PTEs = 2048 groups (§7: "600–700 out
    /// of 16384").
    ///
    /// # Panics
    ///
    /// Panics if `num_groups` is not a power of two.
    pub fn new(num_groups: u32, base_pa: PhysAddr) -> Self {
        Self {
            hash: HashFunction::new(num_groups),
            groups: vec![[Pte::invalid(); PTES_PER_GROUP]; num_groups as usize],
            base_pa,
            meta: vec![GroupMeta::default(); num_groups as usize],
            written_head: NO_GROUP,
            valid: 0,
            full: 0,
            stats: HtabStats::default(),
            reclaim_cursor: 0,
            replacement: Replacement::RoundRobin,
            rng_state: 0x2545_f491,
        }
    }

    /// Selects the replacement policy for full-group inserts.
    pub fn set_replacement(&mut self, policy: Replacement) {
        self.replacement = policy;
    }

    /// The hash function in use.
    pub fn hash(&self) -> HashFunction {
        self.hash
    }

    /// Total PTE capacity.
    pub fn capacity(&self) -> u32 {
        self.hash.num_groups() * PTES_PER_GROUP as u32
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &HtabStats {
        &self.stats
    }

    /// Resets the statistics counters.
    pub fn reset_stats(&mut self) {
        self.stats = HtabStats::default();
    }

    /// Physical address of slot `(group, slot)`, for cache-traffic modelling.
    pub fn slot_pa(&self, group: u32, slot: usize) -> PhysAddr {
        self.base_pa + (group * PTES_PER_GROUP as u32 + slot as u32) * PTE_BYTES
    }

    /// Marks group `g` written: links it onto the written list with its
    /// valid count at this moment, unless it is already marked.
    #[inline]
    fn mark(&mut self, g: usize) {
        let m = &mut self.meta[g];
        if !m.written {
            m.written = true;
            m.marked_valid = m.valid;
            m.next_written = std::mem::replace(&mut self.written_head, g as u32);
        }
    }

    /// Writes `pte` into slot `(g, s)`, keeping the occupancy counts and the
    /// group's written mark in step. Every slot write goes through here.
    #[inline]
    fn write_slot(&mut self, g: usize, s: usize, pte: Pte) {
        self.mark(g);
        let was = std::mem::replace(&mut self.groups[g][s], pte).valid;
        let m = &mut self.meta[g];
        let full_before = u32::from(usize::from(m.valid) == PTES_PER_GROUP);
        match (was, pte.valid) {
            (false, true) => (m.valid, self.valid) = (m.valid + 1, self.valid + 1),
            (true, false) => (m.valid, self.valid) = (m.valid - 1, self.valid - 1),
            _ => return,
        }
        self.full = self.full + u32::from(usize::from(m.valid) == PTES_PER_GROUP) - full_before;
    }

    /// Clears the valid bit of slot `(g, s)` (see [`HashTable::write_slot`]).
    #[inline]
    fn clear_slot(&mut self, g: usize, s: usize) {
        let mut pte = self.groups[g][s];
        pte.valid = false;
        self.write_slot(g, s, pte);
    }

    /// Searches for `(vsid, page_index)`: primary PTEG first, then secondary,
    /// probing slots in order exactly as the 604's hardware walker does.
    /// `visit` is called once per PTEG probed with `(first_slot_pa, slots)`:
    /// the run of consecutive slots read, `PTE_BYTES` apart, so the caller
    /// can charge cache/bus traffic.
    pub fn search_with(
        &mut self,
        vsid: Vsid,
        page_index: u32,
        mut visit: impl FnMut(PhysAddr, u32),
    ) -> SearchOutcome {
        self.stats.searches += 1;
        let mut probes = 0u32;
        for secondary in [false, true] {
            let g = self.hash.pteg_index(vsid, page_index, secondary);
            let group = &self.groups[g as usize];
            let hit = group
                .iter()
                .position(|pte| pte.matches(vsid, page_index, secondary));
            let slots = hit.map_or(PTES_PER_GROUP, |s| s + 1) as u32;
            probes += slots;
            visit(self.slot_pa(g, 0), slots);
            if let Some(slot) = hit {
                self.stats.probes += probes as u64;
                if secondary {
                    self.stats.found_secondary += 1;
                } else {
                    self.stats.found_primary += 1;
                }
                return SearchOutcome {
                    pte: Some(group[slot]),
                    location: Some((g, slot)),
                    probes,
                };
            }
        }
        self.stats.probes += probes as u64;
        self.stats.misses += 1;
        SearchOutcome {
            pte: None,
            location: None,
            probes,
        }
    }

    /// [`HashTable::search_with`] without the probe callback.
    pub fn search(&mut self, vsid: Vsid, page_index: u32) -> SearchOutcome {
        self.search_with(vsid, page_index, |_, _| {})
    }

    /// Inserts `pte`, preferring an empty slot in the primary PTEG, then the
    /// secondary PTEG, then round-robin displacement in the primary group
    /// (the paper's §7 policy: the reload code "replace\[s\] an entry when
    /// needed, not checking if it has a currently valid VSID or not").
    /// `visit` receives each run of slots examined as
    /// `(first_slot_pa, slots)`, as in [`HashTable::search_with`], plus the
    /// slot written as a run of one.
    pub fn insert_with(
        &mut self,
        mut pte: Pte,
        mut visit: impl FnMut(PhysAddr, u32),
    ) -> InsertOutcome {
        self.stats.inserts += 1;
        pte.valid = true;
        let mut probes = 0u32;
        for secondary in [false, true] {
            let g = self.hash.pteg_index(pte.vsid, pte.page_index, secondary);
            let free = self.groups[g as usize].iter().position(|p| !p.valid);
            let slots = free.map_or(PTES_PER_GROUP, |s| s + 1) as u32;
            probes += slots;
            visit(self.slot_pa(g, 0), slots);
            if let Some(slot) = free {
                pte.secondary = secondary;
                self.write_slot(g as usize, slot, pte);
                visit(self.slot_pa(g, slot), 1);
                self.stats.inserts_into_empty += 1;
                return InsertOutcome {
                    location: (g, slot),
                    displaced: None,
                    secondary,
                    probes,
                    overflow: false,
                };
            }
        }
        // Both groups full: displace per the configured policy in the
        // primary group.
        let g = self.hash.pteg_index(pte.vsid, pte.page_index, false);
        let slot = match self.replacement {
            Replacement::RoundRobin => {
                let m = &mut self.meta[g as usize];
                let s = m.rr as usize % PTES_PER_GROUP;
                m.rr = m.rr.wrapping_add(1);
                s
            }
            Replacement::Random => {
                // Xorshift32: deterministic, well-spread.
                let mut x = self.rng_state;
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                self.rng_state = x;
                (x as usize) % PTES_PER_GROUP
            }
            Replacement::FirstSlot => 0,
        };
        let displaced = self.groups[g as usize][slot];
        pte.secondary = false;
        self.write_slot(g as usize, slot, pte);
        visit(self.slot_pa(g, slot), 1);
        self.stats.evictions += 1;
        self.stats.overflows += 1;
        InsertOutcome {
            location: (g, slot),
            displaced: Some(displaced),
            secondary: false,
            probes,
            overflow: true,
        }
    }

    /// [`HashTable::insert_with`] without the probe callback.
    pub fn insert(&mut self, pte: Pte) -> InsertOutcome {
        self.insert_with(pte, |_, _| {})
    }

    /// Invalidates the entry for `(vsid, page_index)` if present, searching
    /// both PTEGs (up to 16 memory references — the §7 flush cost; `visit`
    /// sees the runs of [`HashTable::search_with`]). Returns the probe count
    /// and whether an entry was cleared.
    pub fn invalidate_with(
        &mut self,
        vsid: Vsid,
        page_index: u32,
        visit: impl FnMut(PhysAddr, u32),
    ) -> (u32, bool) {
        let found = self.search_with(vsid, page_index, visit);
        if let Some((g, slot)) = found.location {
            self.clear_slot(g as usize, slot);
            self.stats.invalidates += 1;
            (found.probes, true)
        } else {
            (found.probes, false)
        }
    }

    /// [`HashTable::invalidate_with`] without the probe callback.
    pub fn invalidate(&mut self, vsid: Vsid, page_index: u32) -> (u32, bool) {
        self.invalidate_with(vsid, page_index, |_, _| {})
    }

    /// Scans up to `max_groups` PTEGs from the rotating reclaim cursor and
    /// clears the valid bit of every entry whose VSID `is_live` rejects.
    /// This is the paper's headline trick (§7): "setting the idle task to
    /// reclaim zombie hash table entries by scanning the hash table when the
    /// cpu is idle". `visit` receives the slots scanned as runs of
    /// consecutive slots, as in [`HashTable::search_with`]: one run, or two
    /// when the cursor wraps past the last PTEG. Returns
    /// `(slots_scanned, zombies_cleared)`.
    pub fn reclaim_zombies(
        &mut self,
        max_groups: u32,
        mut is_live: impl FnMut(Vsid) -> bool,
        mut visit: impl FnMut(PhysAddr, u32),
    ) -> (u32, u32) {
        let n = self.hash.num_groups();
        let groups = max_groups.min(n);
        let start = self.reclaim_cursor;
        let mut cleared = 0;
        for i in 0..groups {
            let g = ((start + i) % n) as usize;
            for s in 0..PTES_PER_GROUP {
                let pte = self.groups[g][s];
                if pte.valid && !is_live(pte.vsid) {
                    self.clear_slot(g, s);
                    cleared += 1;
                }
            }
        }
        self.reclaim_cursor = (start + groups) % n;
        let per_group = PTES_PER_GROUP as u32;
        let before_wrap = groups.min(n - start);
        visit(self.slot_pa(start, 0), before_wrap * per_group);
        if groups > before_wrap {
            visit(self.slot_pa(0, 0), (groups - before_wrap) * per_group);
        }
        self.stats.zombies_reclaimed += cleared as u64;
        (groups * per_group, cleared)
    }

    /// Scans the whole table and invalidates every valid entry whose VSID
    /// satisfies `pred` — the *eager* context flush the lazy scheme replaces.
    /// `visit` receives the scan as one run of every slot, as in
    /// [`HashTable::reclaim_zombies`]. Returns
    /// `(slots_scanned, entries_cleared)`.
    pub fn invalidate_matching(
        &mut self,
        mut pred: impl FnMut(Vsid) -> bool,
        mut visit: impl FnMut(PhysAddr, u32),
    ) -> (u32, u32) {
        let mut scanned = 0;
        let mut cleared = 0;
        for g in 0..self.groups.len() {
            for s in 0..PTES_PER_GROUP {
                scanned += 1;
                let pte = self.groups[g][s];
                if pte.valid && pred(pte.vsid) {
                    self.clear_slot(g, s);
                    cleared += 1;
                    self.stats.invalidates += 1;
                }
            }
        }
        visit(self.slot_pa(0, 0), scanned);
        (scanned, cleared)
    }

    /// Number of slots whose valid bit is set (live + zombie alike). O(1):
    /// the table keeps the count as it writes.
    pub fn valid_entries(&self) -> u32 {
        self.valid
    }

    /// Number of valid slots whose VSID `is_live` accepts: a walk of the
    /// whole table. A kernel that keeps the count as it writes (the
    /// simulated one does) uses this only to cross-check it.
    pub fn live_entries(&self, mut is_live: impl FnMut(Vsid) -> bool) -> u32 {
        self.groups
            .iter()
            .flatten()
            .filter(|p| p.valid && is_live(p.vsid))
            .count() as u32
    }

    /// Fraction of slots with the valid bit set, in `[0, 1]` — the paper's
    /// "hash table use".
    pub fn occupancy(&self) -> f64 {
        self.valid_entries() as f64 / self.capacity() as f64
    }

    /// Per-PTEG count of valid entries — the §5.2 "hash table miss
    /// histogram" used to spot hot-spots while tuning the VSID scatter
    /// constant.
    pub fn group_histogram(&self) -> Vec<u8> {
        self.groups
            .iter()
            .map(|g| g.iter().filter(|p| p.valid).count() as u8)
            .collect()
    }

    /// Every valid entry with its `(group, slot)` location, in table order.
    /// Read-only: does not touch statistics, cursors or replacement state,
    /// so a sweep over the entries is invisible to the table (the
    /// consistency checker depends on this).
    pub fn entries(&self) -> impl Iterator<Item = (u32, usize, Pte)> + '_ {
        self.groups.iter().enumerate().flat_map(|(g, group)| {
            group
                .iter()
                .enumerate()
                .filter(|(_, p)| p.valid)
                .map(move |(s, p)| (g as u32, s, *p))
        })
    }

    /// Number of completely full PTEGs (inserts there must evict). O(1),
    /// like [`HashTable::valid_entries`].
    pub fn full_groups(&self) -> u32 {
        self.full
    }

    /// The eight slots of PTEG `g`. Read-only like [`HashTable::entries`].
    pub fn group(&self, g: u32) -> &[Pte; PTES_PER_GROUP] {
        &self.groups[g as usize]
    }

    /// The table's own count of valid slots in PTEG `g` (what
    /// [`HashTable::valid_entries`] sums).
    pub fn group_valid(&self, g: u32) -> u32 {
        u32::from(self.meta[g as usize].valid)
    }

    /// Whether PTEG `g` has been written (or marked by
    /// [`HashTable::mark_key_written`]) since its mark was last cleared.
    pub fn written(&self, g: u32) -> bool {
        self.meta[g as usize].written
    }

    /// Marks the primary and secondary PTEGs of `(vsid, page_index)` as
    /// written: where an entry for that key may sit.
    pub fn mark_key_written(&mut self, vsid: Vsid, page_index: u32) {
        for secondary in [false, true] {
            let g = self.hash.pteg_index(vsid, page_index, secondary);
            self.mark(g as usize);
        }
    }

    /// The PTEGs marked written since the marks were last cleared, most
    /// recently marked first, each with its valid count when it was marked
    /// (so a reader can tell how the table's totals moved since then). The
    /// list is threaded through the per-group metadata: reading and keeping
    /// it allocate nothing.
    pub fn written_groups(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let head = (self.written_head != NO_GROUP).then_some(self.written_head);
        std::iter::successors(head, |&g| {
            let next = self.meta[g as usize].next_written;
            (next != NO_GROUP).then_some(next)
        })
        .map(|g| (g, u32::from(self.meta[g as usize].marked_valid)))
    }

    /// Clears every PTEG's written mark: a walk of the written list.
    pub fn clear_written_marks(&mut self) {
        let mut g = std::mem::replace(&mut self.written_head, NO_GROUP);
        while g != NO_GROUP {
            let m = &mut self.meta[g as usize];
            m.written = false;
            g = m.next_written;
        }
    }

    /// Rehashes the table into `new_groups` PTEGs at the same base address,
    /// carrying every valid entry (live and zombie alike — the table cannot
    /// tell them apart) across to its slot under the new hash function.
    ///
    /// `visit` receives the physical address of every old slot scanned and
    /// every new slot probed or written, so the caller can charge the rehash
    /// honestly — exactly like [`HashTable::insert_with`]. The [`HtabStats`]
    /// counters are deliberately **not** touched: they keep meaning
    /// "workload-induced traffic", and the retune cost is the caller's to
    /// account. The reclaim cursor resets (old group indices are
    /// meaningless); the replacement policy and RNG state carry over.
    ///
    /// # Panics
    ///
    /// Panics if `new_groups` is not a power of two.
    pub fn resize_with(
        &mut self,
        new_groups: u32,
        mut visit: impl FnMut(PhysAddr),
    ) -> ResizeOutcome {
        let old_groups = self.hash.num_groups();
        let old = std::mem::replace(
            &mut self.groups,
            vec![[Pte::invalid(); PTES_PER_GROUP]; new_groups as usize],
        );
        self.hash = HashFunction::new(new_groups);
        self.meta = vec![GroupMeta::default(); new_groups as usize];
        self.written_head = NO_GROUP;
        (self.valid, self.full) = (0, 0);
        self.reclaim_cursor = 0;
        let mut out = ResizeOutcome {
            old_groups,
            new_groups,
            slots_scanned: 0,
            moved: 0,
            dropped: 0,
            reinsert_probes: 0,
        };
        // Old slot addresses still follow the slot_pa formula: the table
        // stays at base_pa, the old image just spanned more (or fewer) bytes.
        for (g, group) in old.iter().enumerate() {
            for (s, pte) in group.iter().enumerate() {
                out.slots_scanned += 1;
                visit(self.base_pa + (g as u32 * PTES_PER_GROUP as u32 + s as u32) * PTE_BYTES);
                if !pte.valid {
                    continue;
                }
                // Raw reinsert: empty primary slot, then empty secondary
                // slot, else drop. No displacement — a rehash must not evict
                // entries it has already placed.
                let mut pte = *pte;
                let mut placed = false;
                'probe: for secondary in [false, true] {
                    let ng = self.hash.pteg_index(pte.vsid, pte.page_index, secondary);
                    for slot in 0..PTES_PER_GROUP {
                        out.reinsert_probes += 1;
                        visit(self.slot_pa(ng, slot));
                        if !self.groups[ng as usize][slot].valid {
                            pte.secondary = secondary;
                            self.write_slot(ng as usize, slot, pte);
                            visit(self.slot_pa(ng, slot));
                            placed = true;
                            break 'probe;
                        }
                    }
                }
                if placed {
                    out.moved += 1;
                } else {
                    out.dropped += 1;
                }
            }
        }
        out
    }

    /// [`HashTable::resize_with`] without the probe callback.
    pub fn resize(&mut self, new_groups: u32) -> ResizeOutcome {
        self.resize_with(new_groups, |_| {})
    }

    /// Clears the whole table (used by tests), marking every group written.
    pub fn clear(&mut self) {
        for g in 0..self.groups.len() {
            self.mark(g);
            self.groups[g] = [Pte::invalid(); PTES_PER_GROUP];
            self.meta[g].valid = 0;
        }
        (self.valid, self.full) = (0, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pte(vsid: u32, pi: u32) -> Pte {
        Pte {
            valid: true,
            vsid: Vsid::new(vsid),
            secondary: false,
            page_index: pi,
            rpn: 0x100 + pi,
            referenced: false,
            changed: false,
            cache_inhibited: false,
            pp: 2,
        }
    }

    #[test]
    fn insert_then_search_finds_it() {
        let mut h = HashTable::new(256, 0);
        h.insert(pte(5, 0x123));
        let out = h.search(Vsid::new(5), 0x123);
        assert_eq!(out.pte.unwrap().rpn, 0x100 + 0x123);
        assert_eq!(h.stats().found_primary, 1);
    }

    #[test]
    fn miss_probes_both_groups() {
        let mut h = HashTable::new(256, 0);
        let out = h.search(Vsid::new(1), 1);
        assert!(out.pte.is_none());
        assert_eq!(
            out.probes, 16,
            "full search is 16 memory references (paper §7)"
        );
    }

    #[test]
    fn overflow_to_secondary_group() {
        let mut h = HashTable::new(256, 0);
        // Nine pages that share a primary PTEG: same vsid, page indexes that
        // hash identically. hash = vsid_low ^ pi, so pick pi values equal
        // modulo the group mask (256 groups -> low 8 bits).
        let vsid = 3;
        for k in 0..9 {
            h.insert(pte(vsid, 0x42 + (k << 8)));
        }
        // All nine must still be findable; at least one via secondary hash.
        let mut secondary_found = 0;
        for k in 0..9 {
            let out = h.search(Vsid::new(vsid), 0x42 + (k << 8));
            let found = out.pte.expect("entry must be resident");
            if found.secondary {
                secondary_found += 1;
            }
        }
        assert_eq!(secondary_found, 1);
        assert_eq!(h.stats().found_secondary, 1);
        assert_eq!(h.stats().evictions, 0);
    }

    #[test]
    fn eviction_when_both_groups_full() {
        let mut h = HashTable::new(256, 0);
        let vsid = 3;
        // Fill primary (8) + secondary (8), then one more forces eviction.
        for k in 0..17 {
            h.insert(pte(vsid, 0x42 + (k << 8)));
        }
        assert_eq!(h.stats().evictions, 1);
        let last = h.search(Vsid::new(vsid), 0x42 + (16 << 8));
        assert!(
            last.pte.is_some(),
            "newest entry must be resident after eviction"
        );
    }

    #[test]
    fn round_robin_eviction_cycles_slots() {
        let mut h = HashTable::new(256, 0);
        let vsid = 3;
        for k in 0..16 {
            h.insert(pte(vsid, 0x42 + (k << 8)));
        }
        let mut displaced = std::collections::HashSet::new();
        for k in 16..24 {
            let out = h.insert(pte(vsid, 0x42 + (k << 8)));
            displaced.insert(out.location.1);
        }
        assert_eq!(displaced.len(), 8, "RR eviction must touch every slot once");
    }

    #[test]
    fn invalidate_clears_and_costs_probes() {
        let mut h = HashTable::new(256, 0);
        h.insert(pte(9, 0x55));
        let (_, cleared) = h.invalidate(Vsid::new(9), 0x55);
        assert!(cleared);
        assert!(h.search(Vsid::new(9), 0x55).pte.is_none());
        let (probes, cleared) = h.invalidate(Vsid::new(9), 0x55);
        assert!(!cleared);
        assert_eq!(probes, 16);
    }

    #[test]
    fn zombie_reclaim_clears_only_dead_vsids() {
        let mut h = HashTable::new(256, 0);
        for pi in 0..50 {
            h.insert(pte(1, pi)); // live
            h.insert(pte(2, pi)); // zombie-to-be
        }
        let before = h.valid_entries();
        assert_eq!(before, 100);
        let (_, cleared) = h.reclaim_zombies(256, |v| v == Vsid::new(1), |_, _| {});
        assert_eq!(cleared, 50);
        assert_eq!(h.valid_entries(), 50);
        assert_eq!(h.live_entries(|v| v == Vsid::new(1)), 50);
        // Every surviving entry is VSID 1.
        for pi in 0..50 {
            assert!(h.search(Vsid::new(1), pi).pte.is_some());
            assert!(h.search(Vsid::new(2), pi).pte.is_none());
        }
    }

    #[test]
    fn reclaim_cursor_is_incremental() {
        let mut h = HashTable::new(256, 0);
        for pi in 0..2048 {
            h.insert(pte(2, pi * 7));
        }
        let total_zombies = h.valid_entries();
        let (scanned, c1) = h.reclaim_zombies(128, |_| false, |_, _| {});
        assert_eq!(scanned, 128 * 8);
        let (_, c2) = h.reclaim_zombies(128, |_| false, |_, _| {});
        assert_eq!(
            c1 + c2,
            total_zombies,
            "two half-scans cover the whole table"
        );
    }

    #[test]
    fn scans_report_their_slot_runs_split_at_the_wrap() {
        let mut h = HashTable::new(16, 0x8_0000);
        let scan = |h: &mut HashTable, groups| {
            let mut runs = Vec::new();
            h.reclaim_zombies(groups, |_| false, |pa, n| runs.push((pa, n)));
            runs
        };
        assert_eq!(scan(&mut h, 14), [(h.slot_pa(0, 0), 14 * 8)]);
        // Groups 14, 15, then 0 and 1: two runs, none past the table.
        assert_eq!(
            scan(&mut h, 4),
            [(h.slot_pa(14, 0), 16), (h.slot_pa(0, 0), 16)]
        );
        // A whole-table sweep from the cursor (now group 2) wraps too.
        assert_eq!(
            scan(&mut h, 99),
            [(h.slot_pa(2, 0), 14 * 8), (h.slot_pa(0, 0), 16)]
        );
        let mut runs = Vec::new();
        h.invalidate_matching(|_| true, |pa, n| runs.push((pa, n)));
        assert_eq!(runs, [(h.slot_pa(0, 0), 16 * 8)]);
    }

    #[test]
    fn occupancy_and_histogram() {
        let mut h = HashTable::new(256, 0);
        assert_eq!(h.occupancy(), 0.0);
        for pi in 0..256 {
            h.insert(pte(1, pi));
        }
        let hist = h.group_histogram();
        assert_eq!(hist.len(), 256);
        assert_eq!(
            hist.iter().map(|&c| c as u32).sum::<u32>(),
            h.valid_entries()
        );
        assert!((h.occupancy() - 256.0 / 2048.0).abs() < 1e-9);
    }

    #[test]
    fn slot_pa_is_contiguous() {
        let h = HashTable::new(256, 0x8_0000);
        assert_eq!(h.slot_pa(0, 0), 0x8_0000);
        assert_eq!(h.slot_pa(0, 1), 0x8_0008);
        assert_eq!(h.slot_pa(1, 0), 0x8_0040);
    }

    #[test]
    fn hit_rate_and_evict_ratio() {
        let mut h = HashTable::new(256, 0);
        h.insert(pte(1, 1));
        h.search(Vsid::new(1), 1);
        h.search(Vsid::new(1), 2);
        assert!((h.stats().hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(h.stats().evict_ratio(), 0.0);
    }

    #[test]
    fn written_list_holds_each_marked_group_once_with_its_count_when_marked() {
        let mut h = HashTable::new(256, 0);
        let group = |h: &HashTable, vsid, pi, secondary| {
            h.hash().pteg_index(Vsid::new(vsid), pi, secondary)
        };
        // Pages 5 + k * 256 share a primary group.
        let g1 = group(&h, 1, 5, false);
        h.insert(pte(1, 5));
        h.insert(pte(1, 5 + 256));
        assert_eq!(h.written_groups().collect::<Vec<_>>(), [(g1, 0)]);
        h.clear_written_marks();
        assert_eq!(h.written_groups().count(), 0);
        assert!(!h.written(g1));
        h.insert(pte(1, 5 + 512));
        h.insert(pte(1, 5 + 768));
        // A mark without a write: where an entry for the key may sit.
        let (p2, s2) = (group(&h, 2, 9, false), group(&h, 2, 9, true));
        assert!(p2 != s2 && ![p2, s2].contains(&g1));
        h.mark_key_written(Vsid::new(2), 9);
        assert_eq!(
            h.written_groups().collect::<Vec<_>>(),
            [(s2, 0), (p2, 0), (g1, 2)],
            "most recently marked first, each once, with its count when marked"
        );
        assert_eq!(h.group_valid(g1), 4);
        h.clear_written_marks();
        h.clear();
        assert_eq!(h.written_groups().count(), 256);
        assert!(h.written_groups().any(|m| m == (g1, 4)));
    }

    #[test]
    fn clear_empties_table() {
        let mut h = HashTable::new(256, 0);
        for pi in 0..32 {
            h.insert(pte(1, pi));
        }
        h.clear();
        assert_eq!(h.valid_entries(), 0);
    }

    #[test]
    fn resize_grow_keeps_every_entry_findable() {
        let mut h = HashTable::new(64, 0x10_0000);
        for pi in 0..200 {
            h.insert(pte(1, pi * 3));
        }
        let valid_before = h.valid_entries();
        let stats_before = *h.stats();
        let out = h.resize(256);
        assert_eq!(out.old_groups, 64);
        assert_eq!(out.new_groups, 256);
        assert_eq!(out.slots_scanned, 64 * 8);
        assert_eq!(out.moved, valid_before);
        assert_eq!(out.dropped, 0, "growing must never drop entries");
        assert_eq!(h.valid_entries(), valid_before);
        assert_eq!(
            *h.stats(),
            stats_before,
            "resize must not pollute workload stats"
        );
        assert_eq!(h.reclaim_cursor, 0);
        for pi in 0..200 {
            assert!(
                h.search(Vsid::new(1), pi * 3).pte.is_some(),
                "entry {pi} lost in rehash"
            );
        }
    }

    #[test]
    fn resize_shrink_drops_only_on_double_full() {
        let mut h = HashTable::new(256, 0);
        for pi in 0..600 {
            h.insert(pte(1, pi));
        }
        let valid_before = h.valid_entries();
        // 16 groups = 128 slots < 600 entries: drops are forced and counted.
        let out = h.resize(16);
        assert_eq!(out.moved + out.dropped, valid_before);
        assert!(out.dropped > 0);
        assert_eq!(h.valid_entries(), out.moved);
        assert!(h.valid_entries() <= 16 * 8);
    }

    #[test]
    fn resize_visit_covers_scan_and_reinsert_traffic() {
        let mut h = HashTable::new(64, 0x10_0000);
        for pi in 0..40 {
            h.insert(pte(1, pi));
        }
        let mut reads = 0u32;
        let out = h.resize_with(128, |_| reads += 1);
        // Every scanned slot, every reinsert probe, and one write per move.
        assert_eq!(reads, out.slots_scanned + out.reinsert_probes + out.moved);
    }

    #[test]
    fn resize_is_deterministic() {
        let build = || {
            let mut h = HashTable::new(128, 0);
            for pi in 0..300 {
                h.insert(pte(2, pi * 5));
            }
            h.resize(32);
            h.resize(64);
            h
        };
        let a = build();
        let b = build();
        assert_eq!(a.group_histogram(), b.group_histogram());
        assert_eq!(a.valid_entries(), b.valid_entries());
    }

    #[test]
    #[should_panic]
    fn resize_rejects_non_power_of_two() {
        let mut h = HashTable::new(64, 0);
        h.resize(96);
    }

    /// Expands `(first_slot_pa, slots)` runs into one address per slot.
    fn expand(runs: &[(PhysAddr, u32)]) -> Vec<PhysAddr> {
        runs.iter()
            .flat_map(|&(pa, n)| (0..n).map(move |i| pa + i * PTE_BYTES))
            .collect()
    }

    /// The slots a one-slot-at-a-time search reads: each candidate PTEG in
    /// order, up to and including the match.
    fn slotwise_search(h: &HashTable, vsid: Vsid, pi: u32) -> Vec<PhysAddr> {
        let mut out = Vec::new();
        for secondary in [false, true] {
            let g = h.hash.pteg_index(vsid, pi, secondary);
            for (slot, pte) in h.groups[g as usize].iter().enumerate() {
                out.push(h.slot_pa(g, slot));
                if pte.matches(vsid, pi, secondary) {
                    return out;
                }
            }
        }
        out
    }

    /// The slots a one-slot-at-a-time insert visits: each candidate PTEG in
    /// order up to the first empty slot, then that slot again (the write);
    /// with both groups full, the round-robin victim in the primary group.
    fn slotwise_insert(h: &HashTable, p: Pte) -> Vec<PhysAddr> {
        let mut out = Vec::new();
        for secondary in [false, true] {
            let g = h.hash.pteg_index(p.vsid, p.page_index, secondary);
            for slot in 0..PTES_PER_GROUP {
                out.push(h.slot_pa(g, slot));
                if !h.groups[g as usize][slot].valid {
                    out.push(h.slot_pa(g, slot));
                    return out;
                }
            }
        }
        let g = h.hash.pteg_index(p.vsid, p.page_index, false);
        out.push(h.slot_pa(g, h.meta[g as usize].rr as usize % PTES_PER_GROUP));
        out
    }

    #[test]
    fn search_visit_reports_slot_addresses() {
        let mut h = HashTable::new(256, 0x10_0000);
        let mut runs = Vec::new();
        h.search_with(Vsid::new(7), 0x31, |pa, n| runs.push((pa, n)));
        let addrs = expand(&runs);
        assert_eq!(addrs.len(), 16);
        // The first eight probes are consecutive slots of one PTEG.
        for w in addrs[..8].windows(2) {
            assert_eq!(w[1] - w[0], PTE_BYTES);
        }
        assert!(addrs.iter().all(|&a| a >= 0x10_0000));

        // Twenty keys that share a primary PTEG: the inserts fill it, spill
        // into the secondary, then overflow and displace.
        let keys: Vec<u32> = (0..20).map(|k| 0x42 + (k << 8)).collect();
        for &pi in &keys {
            let want = slotwise_insert(&h, pte(3, pi));
            let mut runs = Vec::new();
            h.insert_with(pte(3, pi), |pa, n| runs.push((pa, n)));
            assert_eq!(expand(&runs), want, "insert of {pi:#x}");
        }
        assert_eq!(h.stats().overflows, 4);
        // Hits in either group, misses on displaced and absent keys.
        for &pi in keys.iter().chain(&[0x43, 0x1042]) {
            let want = slotwise_search(&h, Vsid::new(3), pi);
            let mut runs = Vec::new();
            h.search_with(Vsid::new(3), pi, |pa, n| runs.push((pa, n)));
            assert_eq!(expand(&runs), want, "search for {pi:#x}");
        }
        for &pi in &keys[5..12] {
            let want = slotwise_search(&h, Vsid::new(3), pi);
            let mut runs = Vec::new();
            h.invalidate_with(Vsid::new(3), pi, |pa, n| runs.push((pa, n)));
            assert_eq!(expand(&runs), want, "invalidate of {pi:#x}");
        }
    }
}
