//! Set-associative, write-back tag cache with LRU replacement.

use crate::config::{CacheConfig, WritePolicy};
use crate::stats::CacheStats;
use crate::PhysAddr;

/// Whether an access is a read or a write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load (or instruction fetch).
    Read,
    /// A store.
    Write,
}

/// Outcome of one cacheable access, from which the memory system derives the
/// cycle cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheOutcome {
    /// The access hit in the cache.
    pub hit: bool,
    /// A valid line was evicted to service a fill.
    pub evicted: bool,
    /// The evicted line was dirty and had to be written back.
    pub writeback: bool,
    /// A store went straight to memory (write-through policy).
    pub wrote_through: bool,
    /// Base address of the evicted line, when one was written back (lets
    /// the memory system route the writeback into the next cache level).
    pub victim_pa: Option<PhysAddr>,
}

impl CacheOutcome {
    const HIT: CacheOutcome = CacheOutcome {
        hit: true,
        evicted: false,
        writeback: false,
        wrote_through: false,
        victim_pa: None,
    };
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Line {
    valid: bool,
    dirty: bool,
    locked: bool,
    tag: u32,
    /// Larger = more recently used.
    lru: u64,
}

/// A single set-associative cache (tags only).
///
/// Replacement is true LRU within a set. Lines can be *locked* (paper §10.1,
/// "Locking the Cache"): a locked line is never chosen as a replacement
/// victim, modelling the proposed idle-task cache lock.
///
/// # Examples
///
/// ```
/// use ppc_cache::{AccessKind, Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::ppc603_data());
/// assert!(!c.access(0x100, AccessKind::Read).hit);
/// assert!(c.access(0x104, AccessKind::Read).hit); // same 32-byte line
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cache {
    cfg: CacheConfig,
    /// Every line in one contiguous allocation, indexed `set * ways + way`.
    /// One slab instead of a `Vec<Vec<_>>` keeps a whole set on one or two
    /// host cache lines — the hot probe touches no pointer indirection.
    lines: Box<[Line]>,
    /// The tag of each *valid* line, same indexing as `lines`, with invalid
    /// ways parked at [`INVALID_TAG`]. The way scan in [`Cache::find`] — the
    /// single hottest loop in the simulator, under every probe, fill and
    /// burst — compares `ways` contiguous `u32`s and nothing else; the
    /// sentinel folds the validity check into the tag compare (real tags
    /// are `addr >> (set_shift + set_bits)` with `set_shift >= 2`, so they
    /// can never reach `u32::MAX`).
    tags: Box<[u32]>,
    ways: usize,
    stats: CacheStats,
    tick: u64,
    set_shift: u32,
    set_mask: u32,
    /// `set_shift + log2(sets)`: a line's tag is `addr >> tag_shift`.
    tag_shift: u32,
}

/// Tag sentinel for an invalid way (see [`Cache::tags`]).
const INVALID_TAG: u32 = u32::MAX;

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`CacheConfig::validate`]).
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate();
        let ways = cfg.ways as usize;
        let lines = vec![Line::default(); ways * cfg.num_sets() as usize].into_boxed_slice();
        let tags = vec![INVALID_TAG; lines.len()].into_boxed_slice();
        let set_shift = cfg.line_bytes.trailing_zeros();
        let set_mask = cfg.num_sets() - 1;
        Self {
            cfg,
            lines,
            tags,
            ways,
            stats: CacheStats::default(),
            tick: 0,
            set_shift,
            set_mask,
            tag_shift: set_shift + set_mask.count_ones(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Event counters accumulated since creation (or the last reset).
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Zeroes the statistics counters without touching cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    #[inline]
    fn index(&self, addr: PhysAddr) -> (usize, u32) {
        let set = (addr >> self.set_shift) & self.set_mask;
        (set as usize, addr >> self.tag_shift)
    }

    /// Finds the resident line for `(set, tag)`, as a flat index into
    /// `self.lines`. Tags are unique within a set (a line is only filled
    /// after this scan missed), so the scan visits every way without an
    /// early exit and selects the match branch-free.
    #[inline]
    fn find(&self, set: usize, tag: u32) -> Option<usize> {
        let base = set * self.ways;
        let mut found = usize::MAX;
        for (w, &t) in self.tags[base..base + self.ways].iter().enumerate() {
            found = if t == tag { base + w } else { found };
        }
        (found != usize::MAX).then_some(found)
    }

    /// Picks the replacement victim in `set`: an invalid way if one exists,
    /// otherwise the least recently used unlocked way. Returns `None` if every
    /// way is locked (the access then bypasses the cache). Flat index.
    fn victim(&self, set: usize) -> Option<usize> {
        let base = set * self.ways;
        let set_lines = &self.lines[base..base + self.ways];
        if let Some(i) = set_lines.iter().position(|l| !l.valid) {
            return Some(base + i);
        }
        set_lines
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.locked)
            .min_by_key(|(_, l)| l.lru)
            .map(|(i, _)| base + i)
    }

    /// The fused fast path's hit probe: commits exactly the bookkeeping
    /// [`Cache::access`] performs on a hit (tick, demand counters, LRU,
    /// dirty/write-through) and returns the write-through flag — or returns
    /// `None` on a miss *without touching any state*, so the caller can fall
    /// back to the full [`Cache::access`], which then counts the miss (and
    /// the tick) exactly once.
    #[inline]
    pub fn fast_hit(&mut self, addr: PhysAddr, kind: AccessKind) -> Option<bool> {
        let (set, tag) = self.index(addr);
        let idx = self.find(set, tag)?;
        Some(self.hits_at(idx, kind, 1))
    }

    /// Commits `n` hits of `kind` on the resident line at flat index `idx`:
    /// exactly the bookkeeping of `n` consecutive [`Cache::access`] hits on
    /// that line. The tick and the demand and hit counters advance by `n`,
    /// the LRU stamp lands on the last tick, and the dirty/write-through
    /// resolution, the same for every access, is applied once and returned.
    #[inline]
    pub(crate) fn hits_at(&mut self, idx: usize, kind: AccessKind, n: u64) -> bool {
        self.tick += n;
        self.stats.accesses += n;
        self.stats.hits += n;
        let line = &mut self.lines[idx];
        line.lru = self.tick;
        let mut wrote_through = false;
        if kind == AccessKind::Write {
            match self.cfg.write_policy {
                WritePolicy::WriteBack => line.dirty = true,
                WritePolicy::WriteThrough => wrote_through = true,
            }
        }
        wrote_through
    }

    /// Performs a cacheable access and returns what happened.
    pub fn access(&mut self, addr: PhysAddr, kind: AccessKind) -> CacheOutcome {
        self.access_at(addr, kind).0
    }

    /// [`Cache::access`], also returning the flat index of the line the
    /// access left resident (the line it hit or the way it filled), so a
    /// caller can commit further hits on it with [`Cache::hits_at`]. The
    /// index is `None` when every way of the set is locked and the access
    /// bypassed the cache.
    #[inline]
    pub(crate) fn access_at(
        &mut self,
        addr: PhysAddr,
        kind: AccessKind,
    ) -> (CacheOutcome, Option<usize>) {
        let (set, tag) = self.index(addr);
        if let Some(idx) = self.find(set, tag) {
            let wrote_through = self.hits_at(idx, kind, 1);
            let out = CacheOutcome {
                wrote_through,
                ..CacheOutcome::HIT
            };
            return (out, Some(idx));
        }
        self.tick += 1;
        self.stats.accesses += 1;
        self.stats.misses += 1;
        let Some(idx) = self.victim(set) else {
            // Every way locked: treat as an uncached access.
            self.stats.inhibited += 1;
            let out = CacheOutcome {
                hit: false,
                evicted: false,
                writeback: false,
                wrote_through: kind == AccessKind::Write,
                victim_pa: None,
            };
            return (out, None);
        };
        let line = &mut self.lines[idx];
        let evicted = line.valid;
        let writeback = line.valid && line.dirty;
        let victim_pa =
            writeback.then(|| (line.tag << self.tag_shift) | ((set as u32) << self.set_shift));
        if evicted {
            self.stats.evictions += 1;
        }
        if writeback {
            self.stats.writebacks += 1;
        }
        let mut wrote_through = false;
        let dirty = match (kind, self.cfg.write_policy) {
            (AccessKind::Write, WritePolicy::WriteBack) => true,
            (AccessKind::Write, WritePolicy::WriteThrough) => {
                wrote_through = true;
                false
            }
            (AccessKind::Read, _) => false,
        };
        *line = Line {
            valid: true,
            dirty,
            locked: false,
            tag,
            lru: self.tick,
        };
        self.tags[idx] = tag;
        let out = CacheOutcome {
            hit: false,
            evicted,
            writeback,
            wrote_through,
            victim_pa,
        };
        (out, Some(idx))
    }

    /// Records a cache-inhibited access: the cache state is untouched.
    pub fn access_inhibited(&mut self) {
        self.access_inhibited_n(1);
    }

    /// Records `n` cache-inhibited accesses at once.
    pub(crate) fn access_inhibited_n(&mut self, n: u64) {
        self.stats.inhibited += n;
    }

    /// `dcbz`-style line zeroing: establishes the line in the cache, dirty,
    /// without reading memory. Returns the outcome of the establish (a "hit"
    /// means the line was already present).
    pub fn zero_line(&mut self, addr: PhysAddr) -> CacheOutcome {
        let out = self.access(addr, AccessKind::Write);
        if !out.hit {
            self.stats.zero_fills += 1;
            // The miss fill for dcbz does not read memory; the caller charges
            // no bus read for it. Account it as a zero-fill, not a demand miss.
            self.stats.misses -= 1;
            self.stats.hits += 1;
        }
        out
    }

    /// Software prefetch (`dcbt`, paper §10.2): brings the line in as a read
    /// without counting as a demand access. Returns `true` if a fill happened.
    pub fn prefetch(&mut self, addr: PhysAddr) -> bool {
        let (set, tag) = self.index(addr);
        if self.find(set, tag).is_some() {
            self.stats.prefetch_redundant += 1;
            return false;
        }
        let before = self.stats;
        let out = self.access(addr, AccessKind::Read);
        // Prefetches are not demand accesses; rewind the demand counters and
        // record the fill explicitly.
        self.stats.accesses = before.accesses;
        self.stats.hits = before.hits;
        self.stats.misses = before.misses;
        self.stats.prefetch_fills += 1;
        !out.hit
    }

    /// Locks or unlocks the line containing `addr`, if present. Returns
    /// whether the line was found.
    pub fn set_locked(&mut self, addr: PhysAddr, locked: bool) -> bool {
        let (set, tag) = self.index(addr);
        match self.find(set, tag) {
            Some(idx) => {
                self.lines[idx].locked = locked;
                true
            }
            None => false,
        }
    }

    /// Unlocks every line.
    pub fn unlock_all(&mut self) {
        for line in &mut self.lines {
            line.locked = false;
        }
    }

    /// Returns whether the line containing `addr` is currently resident.
    pub fn contains(&self, addr: PhysAddr) -> bool {
        let (set, tag) = self.index(addr);
        self.find(set, tag).is_some()
    }

    /// Invalidates every line, discarding dirty data (like `hid0` flash
    /// invalidate). Dirty lines are *not* written back.
    pub fn invalidate_all(&mut self) {
        for line in &mut self.lines {
            *line = Line::default();
        }
        self.tags.fill(INVALID_TAG);
    }

    /// Writes back and invalidates every line, returning the number of dirty
    /// lines flushed (each costs a bus write in the memory system).
    pub fn flush_all(&mut self) -> u64 {
        let mut flushed = 0;
        for line in &mut self.lines {
            if line.valid && line.dirty {
                flushed += 1;
                self.stats.writebacks += 1;
            }
            *line = Line::default();
        }
        self.tags.fill(INVALID_TAG);
        flushed
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> u64 {
        self.lines.iter().filter(|l| l.valid).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 32B lines = 256B, easy to reason about.
        Cache::new(CacheConfig {
            size_bytes: 256,
            line_bytes: 32,
            ways: 2,
            write_policy: WritePolicy::WriteBack,
            hit_cycles: 1,
        })
    }

    /// Address that maps to `set` with tag `tag` in the `small()` cache.
    fn addr(set: u32, tag: u32) -> PhysAddr {
        (tag << 7) | (set << 5)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0x40, AccessKind::Read).hit);
        assert!(c.access(0x40, AccessKind::Read).hit);
        assert!(
            c.access(0x5c, AccessKind::Read).hit,
            "same line, different offset"
        );
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        c.access(addr(1, 1), AccessKind::Read);
        c.access(addr(1, 2), AccessKind::Read);
        // Touch tag 1 so tag 2 is LRU.
        c.access(addr(1, 1), AccessKind::Read);
        let out = c.access(addr(1, 3), AccessKind::Read);
        assert!(out.evicted);
        assert!(c.contains(addr(1, 1)));
        assert!(!c.contains(addr(1, 2)));
        assert!(c.contains(addr(1, 3)));
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut c = small();
        c.access(addr(0, 1), AccessKind::Write);
        c.access(addr(0, 2), AccessKind::Read);
        let out = c.access(addr(0, 3), AccessKind::Read); // evicts dirty tag 1
        assert!(out.evicted && out.writeback);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_no_writeback() {
        let mut c = small();
        c.access(addr(0, 1), AccessKind::Read);
        c.access(addr(0, 2), AccessKind::Read);
        let out = c.access(addr(0, 3), AccessKind::Read);
        assert!(out.evicted && !out.writeback);
    }

    #[test]
    fn write_through_never_dirties() {
        let mut c = Cache::new(CacheConfig {
            write_policy: WritePolicy::WriteThrough,
            ..*small().config()
        });
        let out = c.access(addr(0, 1), AccessKind::Write);
        assert!(out.wrote_through);
        c.access(addr(0, 2), AccessKind::Read);
        let out = c.access(addr(0, 3), AccessKind::Read);
        assert!(out.evicted && !out.writeback);
        assert_eq!(c.stats().writebacks, 0);
    }

    #[test]
    fn zero_line_fills_without_demand_miss() {
        let mut c = small();
        let out = c.zero_line(addr(2, 5));
        assert!(!out.hit);
        assert_eq!(c.stats().zero_fills, 1);
        assert_eq!(c.stats().misses, 0, "dcbz fill is not a demand miss");
        assert!(c.contains(addr(2, 5)));
        // The established line is dirty: evicting it costs a writeback.
        c.access(addr(2, 6), AccessKind::Read);
        let out = c.access(addr(2, 7), AccessKind::Read);
        assert!(out.writeback);
    }

    #[test]
    fn prefetch_fills_without_demand_counters() {
        let mut c = small();
        assert!(c.prefetch(addr(1, 9)));
        assert_eq!(c.stats().accesses, 0);
        assert_eq!(c.stats().prefetch_fills, 1);
        assert!(c.access(addr(1, 9), AccessKind::Read).hit);
        assert!(!c.prefetch(addr(1, 9)));
        assert_eq!(c.stats().prefetch_redundant, 1);
    }

    #[test]
    fn locked_lines_survive_pressure() {
        let mut c = small();
        c.access(addr(3, 1), AccessKind::Read);
        assert!(c.set_locked(addr(3, 1), true));
        for tag in 2..10 {
            c.access(addr(3, tag), AccessKind::Read);
        }
        assert!(c.contains(addr(3, 1)), "locked line must not be evicted");
        c.unlock_all();
        for tag in 10..14 {
            c.access(addr(3, tag), AccessKind::Read);
        }
        assert!(!c.contains(addr(3, 1)), "unlocked line is evictable again");
    }

    #[test]
    fn fully_locked_set_bypasses() {
        let mut c = small();
        c.access(addr(0, 1), AccessKind::Read);
        c.access(addr(0, 2), AccessKind::Read);
        c.set_locked(addr(0, 1), true);
        c.set_locked(addr(0, 2), true);
        let out = c.access(addr(0, 3), AccessKind::Read);
        assert!(!out.hit && !out.evicted);
        assert!(!c.contains(addr(0, 3)));
        assert_eq!(c.stats().inhibited, 1);
    }

    #[test]
    fn flush_all_counts_dirty_lines() {
        let mut c = small();
        c.access(addr(0, 1), AccessKind::Write);
        c.access(addr(1, 1), AccessKind::Write);
        c.access(addr(2, 1), AccessKind::Read);
        assert_eq!(c.flush_all(), 2);
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn invalidate_all_discards() {
        let mut c = small();
        c.access(addr(0, 1), AccessKind::Write);
        c.invalidate_all();
        assert_eq!(c.resident_lines(), 0);
        assert!(!c.contains(addr(0, 1)));
    }

    #[test]
    fn resident_lines_tracks_fills() {
        let mut c = small();
        for i in 0..5 {
            c.access(addr(i % 4, 1), AccessKind::Read);
        }
        assert_eq!(c.resident_lines(), 4);
    }

    #[test]
    fn set_locked_missing_line_is_false() {
        let mut c = small();
        assert!(!c.set_locked(addr(0, 1), true));
    }
}
