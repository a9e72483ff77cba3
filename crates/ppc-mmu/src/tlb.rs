//! The translation look-aside buffer.

use crate::addr::Vsid;

/// One TLB entry: a cached virtual → physical translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// Segment identifier of the mapping.
    pub vsid: Vsid,
    /// 16-bit page index within the segment.
    pub page_index: u32,
    /// 20-bit physical page number.
    pub rpn: u32,
    /// Whether accesses through this translation are cacheable.
    pub cached: bool,
    /// Whether stores are permitted (the PP bits); a store through a
    /// read-only entry takes a protection fault — the mechanism behind
    /// copy-on-write.
    pub writable: bool,
}

/// TLB geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbConfig {
    /// Total entries in this TLB.
    pub entries: u32,
    /// Associativity.
    pub ways: u32,
}

impl TlbConfig {
    /// One side (I or D) of the 603's TLB: 64 entries, 2-way.
    /// Both sides together give the paper's "128 entries" (§5.1).
    pub fn ppc603_side() -> Self {
        Self {
            entries: 64,
            ways: 2,
        }
    }

    /// One side (I or D) of the 604's TLB: 128 entries, 2-way.
    /// Both sides together give the paper's "256 entries" (§5.1).
    pub fn ppc604_side() -> Self {
        Self {
            entries: 128,
            ways: 2,
        }
    }

    /// Number of congruence classes (sets).
    pub fn sets(&self) -> u32 {
        self.entries / self.ways
    }

    /// Validates the geometry.
    ///
    /// # Panics
    ///
    /// Panics on zero sizes or a non-power-of-two set count.
    pub fn validate(&self) {
        assert!(self.ways > 0 && self.entries > 0, "TLB cannot be empty");
        assert!(
            self.entries.is_multiple_of(self.ways),
            "entries must divide into ways"
        );
        assert!(
            self.sets().is_power_of_two(),
            "set count must be a power of two"
        );
    }
}

/// Statistics for one TLB.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups performed.
    pub lookups: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Reloads (entries inserted after a miss).
    pub reloads: u64,
    /// `tlbie` congruence-class invalidations executed.
    pub tlbie: u64,
    /// Whole-TLB invalidations.
    pub flush_all: u64,
}

impl TlbStats {
    /// Hit rate in `[0, 1]`; `1.0` with no lookups.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            1.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    /// [`match_key`] of the entry, or [`EMPTY_KEY`] when the slot is
    /// empty: the probe compares this one word per way, and the entry's
    /// VSID and page index are read back from it.
    key: u64,
    lru: u64,
    rpn: u32,
    cached: bool,
    writable: bool,
    /// Set by a consistency checker once it has audited this translation
    /// (DESIGN.md §12); cleared whenever the slot is rewritten.
    audited: bool,
}

// The audit mark rides in padding: a slot stays within 32 bytes.
const _: () = assert!(std::mem::size_of::<Slot>() <= 32);

impl Slot {
    const EMPTY: Slot = Slot {
        key: EMPTY_KEY,
        lru: 0,
        rpn: 0,
        cached: false,
        writable: false,
        audited: false,
    };

    fn is_valid(&self) -> bool {
        self.key != EMPTY_KEY
    }

    /// The entry the slot holds, if any.
    fn entry(&self) -> Option<TlbEntry> {
        self.is_valid().then(|| TlbEntry {
            vsid: Vsid::new((self.key >> 32) as u32),
            page_index: self.key as u32,
            rpn: self.rpn,
            cached: self.cached,
            writable: self.writable,
        })
    }

    /// Invalidates the slot, returning whether it held an entry.
    fn clear(&mut self) -> bool {
        std::mem::replace(self, Slot::EMPTY).is_valid()
    }
}

/// Key of an empty slot. VSIDs are 24 bits wide, so no real key reaches it.
const EMPTY_KEY: u64 = u64::MAX;

/// The `(VSID, page index)` tag of a translation as one word.
#[inline]
fn match_key(vsid: Vsid, page_index: u32) -> u64 {
    u64::from(vsid.raw()) << 32 | u64::from(page_index)
}

/// A set-associative TLB indexed by the low bits of the page index (i.e. by
/// effective-address bits, as the 603/604 are) and tagged by
/// `(VSID, page index)`.
///
/// The architected `tlbie` instruction invalidates an entire congruence
/// class — all ways, regardless of VSID — which is what makes per-page
/// flushing blunt and motivates the paper's lazy VSID-switch flushes (§7).
///
/// # Examples
///
/// ```
/// use ppc_mmu::{Tlb, TlbConfig, addr::Vsid};
/// use ppc_mmu::tlb::TlbEntry;
///
/// let mut tlb = Tlb::new(TlbConfig::ppc603_side());
/// tlb.insert(TlbEntry {
///     vsid: Vsid::new(1), page_index: 5, rpn: 0x99, cached: true, writable: true,
/// });
/// assert_eq!(tlb.peek(Vsid::new(1), 5).map(|(_, e)| e.rpn), Some(0x99));
/// assert!(tlb.peek(Vsid::new(2), 5).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    cfg: TlbConfig,
    /// Every slot in one contiguous allocation, indexed `set * ways + way` —
    /// the whole congruence class sits on one host cache line for the hot
    /// probe.
    slots: Box<[Slot]>,
    ways: usize,
    /// `sets - 1`: the set of a page index is `page_index & set_mask`.
    set_mask: u32,
    stats: TlbStats,
    tick: u64,
    /// Whether any slot may carry an audit mark, so clearing them all is
    /// free while none is set.
    any_audited: bool,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid.
    pub fn new(cfg: TlbConfig) -> Self {
        cfg.validate();
        let ways = cfg.ways as usize;
        let slots = vec![Slot::EMPTY; ways * cfg.sets() as usize].into_boxed_slice();
        Self {
            cfg,
            slots,
            ways,
            set_mask: cfg.sets() - 1,
            stats: TlbStats::default(),
            tick: 0,
            any_audited: false,
        }
    }

    /// The TLB geometry.
    pub fn config(&self) -> &TlbConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    /// Resets the statistics counters.
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    #[inline]
    fn set_of(&self, page_index: u32) -> usize {
        (page_index & self.set_mask) as usize
    }

    /// Finds the slot matching `(vsid, page_index)` (as a flat index into
    /// `self.slots`) *without* touching the tick, the LRU stamp or any
    /// counter. A lookup is one peek followed by [`Tlb::commit_hit`] or
    /// [`Tlb::count_miss`] ([`crate::Mmu::translate`]); an abandoned peek
    /// leaves the TLB exactly as it was.
    #[inline]
    pub fn peek(&self, vsid: Vsid, page_index: u32) -> Option<(usize, TlbEntry)> {
        let key = match_key(vsid, page_index);
        let base = self.set_of(page_index) * self.ways;
        self.slots[base..base + self.ways]
            .iter()
            .enumerate()
            .find(|(_, slot)| slot.key == key)
            .map(|(w, slot)| {
                // The key matched, so the tag fields equal the arguments;
                // taking them from there leaves only the payload to copy.
                let e = TlbEntry {
                    vsid,
                    page_index,
                    rpn: slot.rpn,
                    cached: slot.cached,
                    writable: slot.writable,
                };
                (base + w, e)
            })
    }

    /// Whether the slot [`Tlb::peek`] found at `idx` carries an audit mark.
    #[inline]
    pub fn audited(&self, idx: usize) -> bool {
        self.slots[idx].audited
    }

    /// Sets the audit mark on the slot holding `(vsid, page_index)`, if
    /// resident. Touches no tick, LRU stamp or counter.
    pub fn mark_audited(&mut self, vsid: Vsid, page_index: u32) {
        if let Some((idx, _)) = self.peek(vsid, page_index) {
            self.slots[idx].audited = true;
            self.any_audited = true;
        }
    }

    /// Clears every audit mark (a no-op when none is set).
    pub fn clear_audit_marks(&mut self) {
        if std::mem::take(&mut self.any_audited) {
            for slot in &mut self.slots {
                slot.audited = false;
            }
        }
    }

    /// Commits the hit found by [`Tlb::peek`]: tick, lookup and hit
    /// counters, LRU stamp.
    #[inline]
    pub fn commit_hit(&mut self, idx: usize) {
        self.tick += 1;
        self.stats.lookups += 1;
        self.stats.hits += 1;
        self.slots[idx].lru = self.tick;
    }

    /// Counts a lookup that [`Tlb::peek`] found no slot for: tick, lookup
    /// and miss counters.
    #[inline]
    pub fn count_miss(&mut self) {
        self.tick += 1;
        self.stats.lookups += 1;
        self.stats.misses += 1;
    }

    /// Inserts (reloads) a translation, evicting the LRU way of its set.
    pub fn insert(&mut self, entry: TlbEntry) {
        self.tick += 1;
        self.stats.reloads += 1;
        let base = self.set_of(entry.page_index) * self.ways;
        let tick = self.tick;
        // Reuse an invalid way, else the LRU way.
        let set_slots = &self.slots[base..base + self.ways];
        let way = set_slots
            .iter()
            .position(|s| !s.is_valid())
            .unwrap_or_else(|| {
                set_slots
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| s.lru)
                    .map(|(i, _)| i)
                    .expect("TLB set cannot be empty")
            });
        self.slots[base + way] = Slot {
            key: match_key(entry.vsid, entry.page_index),
            lru: tick,
            rpn: entry.rpn,
            cached: entry.cached,
            writable: entry.writable,
            audited: false,
        };
    }

    /// `tlbie`: invalidates the whole congruence class selected by
    /// `page_index` — every way, every VSID. Returns how many valid entries
    /// were dropped (including innocent bystanders).
    pub fn tlbie(&mut self, page_index: u32) -> u32 {
        self.stats.tlbie += 1;
        let base = self.set_of(page_index) * self.ways;
        let mut dropped = 0;
        for slot in &mut self.slots[base..base + self.ways] {
            if slot.clear() {
                dropped += 1;
            }
        }
        dropped
    }

    /// Invalidates every entry.
    pub fn flush_all(&mut self) {
        self.stats.flush_all += 1;
        for slot in &mut self.slots {
            slot.clear();
        }
    }

    /// Number of valid entries.
    pub fn valid_entries(&self) -> u32 {
        self.slots.iter().filter(|s| s.is_valid()).count() as u32
    }

    /// Number of valid entries whose VSID satisfies `pred` — used to measure
    /// the kernel's TLB footprint (§5.1: "33% of the TLB entries under
    /// Linux/PPC were for kernel text, data and I/O pages").
    pub fn entries_matching(&self, mut pred: impl FnMut(Vsid) -> bool) -> u32 {
        self.slots
            .iter()
            .filter(|s| s.entry().is_some_and(|e| pred(e.vsid)))
            .count() as u32
    }

    /// Every valid entry, in set/way order. Read-only: does not touch LRU
    /// state or statistics, so a sweep over the entries is invisible to the
    /// replacement policy (the consistency checker depends on this).
    pub fn entries(&self) -> impl Iterator<Item = TlbEntry> + '_ {
        self.slots.iter().filter_map(Slot::entry)
    }

    /// Every valid entry without an audit mark, in set/way order. Read-only
    /// like [`Tlb::entries`].
    pub fn unaudited_entries(&self) -> impl Iterator<Item = TlbEntry> + '_ {
        self.slots
            .iter()
            .filter(|s| !s.audited)
            .filter_map(Slot::entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One counted lookup, as `Mmu::translate` makes it.
    fn lookup(t: &mut Tlb, vsid: Vsid, page_index: u32) -> Option<TlbEntry> {
        match t.peek(vsid, page_index) {
            Some((idx, e)) => {
                t.commit_hit(idx);
                Some(e)
            }
            None => {
                t.count_miss();
                None
            }
        }
    }

    fn entry(vsid: u32, pi: u32) -> TlbEntry {
        TlbEntry {
            vsid: Vsid::new(vsid),
            page_index: pi,
            rpn: 0x1000 + pi,
            cached: true,
            writable: true,
        }
    }

    #[test]
    fn geometry() {
        assert_eq!(TlbConfig::ppc603_side().sets(), 32);
        assert_eq!(TlbConfig::ppc604_side().sets(), 64);
        TlbConfig::ppc603_side().validate();
        TlbConfig::ppc604_side().validate();
    }

    #[test]
    fn paper_total_entry_counts() {
        // Paper §5.1: "The PowerPC 603 TLB has 128 entries and the 604 has
        // 256 entries" (I + D sides combined).
        assert_eq!(2 * TlbConfig::ppc603_side().entries, 128);
        assert_eq!(2 * TlbConfig::ppc604_side().entries, 256);
    }

    #[test]
    fn miss_then_reload_then_hit() {
        let mut t = Tlb::new(TlbConfig::ppc603_side());
        assert!(lookup(&mut t, Vsid::new(1), 7).is_none());
        t.insert(entry(1, 7));
        let e = lookup(&mut t, Vsid::new(1), 7).unwrap();
        assert_eq!(e.rpn, 0x1007);
        assert_eq!(t.stats().misses, 1);
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().reloads, 1);
    }

    #[test]
    fn same_page_different_vsid_misses() {
        // Distinct VSIDs are distinct address spaces (the lazy-flush
        // cornerstone): a stale entry under an old VSID can never match.
        let mut t = Tlb::new(TlbConfig::ppc603_side());
        t.insert(entry(1, 7));
        assert!(lookup(&mut t, Vsid::new(2), 7).is_none());
    }

    #[test]
    fn lru_within_set() {
        let mut t = Tlb::new(TlbConfig {
            entries: 4,
            ways: 2,
        });
        // Set = pi & 1. Three entries in set 0.
        t.insert(entry(1, 0));
        t.insert(entry(1, 2));
        lookup(&mut t, Vsid::new(1), 0); // make pi=0 MRU
        t.insert(entry(1, 4)); // evicts pi=2
        assert!(lookup(&mut t, Vsid::new(1), 0).is_some());
        assert!(lookup(&mut t, Vsid::new(1), 2).is_none());
        assert!(lookup(&mut t, Vsid::new(1), 4).is_some());
    }

    #[test]
    fn tlbie_kills_whole_congruence_class() {
        let mut t = Tlb::new(TlbConfig {
            entries: 4,
            ways: 2,
        });
        t.insert(entry(1, 0));
        t.insert(entry(2, 2)); // same set (pi even), different VSID
        t.insert(entry(1, 1)); // other set
        let dropped = t.tlbie(4); // set 0
        assert_eq!(dropped, 2, "tlbie drops bystanders in the class too");
        assert!(lookup(&mut t, Vsid::new(1), 1).is_some());
        assert_eq!(t.stats().tlbie, 1);
    }

    #[test]
    fn flush_all_empties() {
        let mut t = Tlb::new(TlbConfig::ppc604_side());
        for pi in 0..50 {
            t.insert(entry(1, pi));
        }
        assert_eq!(t.valid_entries(), 50);
        t.flush_all();
        assert_eq!(t.valid_entries(), 0);
        assert_eq!(t.stats().flush_all, 1);
    }

    #[test]
    fn entries_matching_counts_kernel_footprint() {
        let mut t = Tlb::new(TlbConfig::ppc604_side());
        let kernel = Vsid::new(0xfffff);
        for pi in 0..30 {
            t.insert(entry(1, pi));
        }
        for pi in 30..40 {
            t.insert(TlbEntry {
                vsid: kernel,
                page_index: pi,
                rpn: 0,
                cached: true,
                writable: true,
            });
        }
        assert_eq!(t.entries_matching(|v| v == kernel), 10);
        assert_eq!(t.entries_matching(|v| v != kernel), 30);
    }

    #[test]
    fn hit_rate() {
        let mut t = Tlb::new(TlbConfig::ppc603_side());
        t.insert(entry(1, 1));
        lookup(&mut t, Vsid::new(1), 1);
        lookup(&mut t, Vsid::new(1), 2);
        assert!((t.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn audit_marks_survive_hits_and_die_with_their_slot() {
        let mut t = Tlb::new(TlbConfig {
            entries: 4,
            ways: 2,
        });
        t.insert(entry(1, 0));
        t.insert(entry(1, 1));
        let (idx, _) = t.peek(Vsid::new(1), 0).unwrap();
        assert!(!t.audited(idx), "a refill starts unaudited");
        let before = (*t.stats(), t.tick);
        t.mark_audited(Vsid::new(1), 0);
        t.mark_audited(Vsid::new(9), 0); // not resident: no-op
        assert_eq!((*t.stats(), t.tick), before, "marking is stat-neutral");
        assert!(t.audited(idx));
        assert!(lookup(&mut t, Vsid::new(1), 0).is_some());
        assert!(t.audited(idx), "a hit keeps the mark");
        let unaudited: Vec<u32> = t.unaudited_entries().map(|e| e.page_index).collect();
        assert_eq!(unaudited, vec![1]);
        // Refilling the slot clears its mark.
        t.insert(entry(1, 2));
        t.insert(entry(1, 4));
        assert_eq!(t.unaudited_entries().count() as u32, t.valid_entries());
        // So do clear_audit_marks, tlbie and flush_all.
        for wipe in 0..3 {
            t.mark_audited(Vsid::new(1), 1);
            match wipe {
                0 => t.clear_audit_marks(),
                1 => {
                    t.tlbie(1);
                    t.insert(entry(1, 1));
                }
                _ => {
                    t.flush_all();
                    t.insert(entry(1, 1));
                }
            }
            let (idx, _) = t.peek(Vsid::new(1), 1).unwrap();
            assert!(!t.audited(idx), "wipe {wipe} left a mark");
        }
    }

    #[test]
    fn fills_invalid_ways_before_evicting() {
        let mut t = Tlb::new(TlbConfig {
            entries: 4,
            ways: 2,
        });
        t.insert(entry(1, 0));
        t.insert(entry(1, 2));
        assert_eq!(
            t.valid_entries(),
            2,
            "both ways of set 0 in use, no eviction"
        );
        assert!(lookup(&mut t, Vsid::new(1), 0).is_some());
        assert!(lookup(&mut t, Vsid::new(1), 2).is_some());
    }
}
