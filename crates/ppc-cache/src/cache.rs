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

/// How one probe left its line: what the memory system's miss tail reads
/// from [`Cache::demand`], [`Cache::fill`], [`Cache::establish`] and
/// [`Cache::touch`]. The eviction it may have caused is counted in the
/// cache's [`CacheStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Probe {
    /// The line was resident.
    Hit,
    /// The line was filled into a victim way. `victim`: the base address
    /// of the line the fill displaced, when it was dirty and must be
    /// written back.
    Filled { victim: Option<PhysAddr> },
    /// Every way of the set is locked: nothing became resident.
    Bypassed,
}

impl Probe {
    /// The dirty line a fill displaced, which must be written back.
    #[inline(always)]
    pub(crate) fn victim(self) -> Option<PhysAddr> {
        match self {
            Probe::Filled { victim } => victim,
            Probe::Hit | Probe::Bypassed => None,
        }
    }
}

/// The per-way state beside the tag. A way is valid exactly when its tag
/// (in [`Cache::tags`]) is not [`INVALID_TAG`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Line {
    dirty: bool,
    locked: bool,
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
/// assert!(!c.access(0x100, AccessKind::Read)); // cold miss
/// assert!(c.access(0x104, AccessKind::Read)); // same 32-byte line: a hit
/// assert_eq!(c.stats().misses, 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cache {
    cfg: CacheConfig,
    /// Every way's dirty, lock and LRU state in one contiguous allocation,
    /// indexed `set * ways + way`. One slab instead of a `Vec<Vec<_>>`
    /// keeps a whole set on one or two host cache lines.
    lines: Box<[Line]>,
    /// The tag of each *valid* way, same indexing as `lines`, with invalid
    /// ways parked at [`INVALID_TAG`]; the only record of validity. The way
    /// scan in [`Cache::find`] — the single hottest loop in the simulator,
    /// under every probe, fill and run — compares `ways` contiguous `u32`s
    /// and nothing else; the sentinel folds the validity check into the tag
    /// compare (real tags are `addr >> (set_shift + set_bits)` with
    /// `set_shift >= 2`, so they can never reach `u32::MAX`).
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

    /// The associativity, which picks the instance the memory system runs
    /// this cache through.
    #[inline]
    pub(crate) fn ways(&self) -> usize {
        self.ways
    }

    /// The width of instance `W` of the probe, victim and fill code: `W`
    /// itself for a compiled instance, or the runtime associativity for the
    /// runtime-width instance `W = 0`.
    #[inline(always)]
    fn width<const W: usize>(&self) -> usize {
        if W == 0 {
            self.ways
        } else {
            W
        }
    }

    #[inline(always)]
    fn index(&self, addr: PhysAddr) -> (usize, u32) {
        let set = (addr >> self.set_shift) & self.set_mask;
        (set as usize, addr >> self.tag_shift)
    }

    /// Finds the resident line for `(set, tag)`, as a flat index into
    /// `self.lines`. Tags are unique within a set (a line is only filled
    /// after this scan missed), so the scan visits every way without an
    /// early exit and selects the match branch-free.
    #[inline(always)]
    fn find<const W: usize>(&self, set: usize, tag: u32) -> Option<usize> {
        let ways = self.width::<W>();
        let base = set * ways;
        let mut found = usize::MAX;
        for (w, &t) in self.tags[base..base + ways].iter().enumerate() {
            found = if t == tag { base + w } else { found };
        }
        (found != usize::MAX).then_some(found)
    }

    /// Picks the replacement victim in `set`: the first invalid way, else
    /// the least recently used unlocked way; `None` if every way is locked
    /// (the access then bypasses the cache). Flat index.
    ///
    /// Each way gets a score — invalid 0, unlocked its stamp + 1 (stamps of
    /// valid lines are unique), locked `u64::MAX` — and the lowest score
    /// wins, the earliest way on a tie. The scan selects rather than
    /// branches, so no branch depends on the LRU stamps.
    #[inline(always)]
    fn victim<const W: usize>(&self, set: usize) -> Option<usize> {
        let ways = self.width::<W>();
        let base = set * ways;
        let tags = &self.tags[base..base + ways];
        let lines = &self.lines[base..base + ways];
        let mut best = usize::MAX;
        let mut best_score = u64::MAX;
        for (w, (&tag, line)) in tags.iter().zip(lines).enumerate() {
            let valid = 0u64.wrapping_sub(u64::from(tag != INVALID_TAG));
            let locked = 0u64.wrapping_sub(u64::from(line.locked));
            let score = valid & (line.lru.wrapping_add(1) | locked);
            let older = score < best_score;
            best = std::hint::select_unpredictable(older, base + w, best);
            best_score = std::hint::select_unpredictable(older, score, best_score);
        }
        (best_score != u64::MAX).then_some(best)
    }

    /// Fills `tag` into way `idx` of `set`, stamped with the current tick:
    /// counts the eviction (and writeback) of the valid (dirty) line it
    /// displaces and reports that line.
    #[inline(always)]
    fn fill_at(&mut self, idx: usize, set: usize, tag: u32, dirty: bool) -> Probe {
        let old = self.tags[idx];
        let line = &mut self.lines[idx];
        let evicted = old != INVALID_TAG;
        let writeback = evicted && line.dirty;
        self.stats.evictions += u64::from(evicted);
        self.stats.writebacks += u64::from(writeback);
        *line = Line {
            dirty,
            locked: false,
            lru: self.tick,
        };
        self.tags[idx] = tag;
        let victim = writeback.then(|| (old << self.tag_shift) | ((set as u32) << self.set_shift));
        Probe::Filled { victim }
    }

    /// Whether a store of `kind` dirties its line (write-back policy).
    #[inline(always)]
    fn dirties(&self, kind: AccessKind) -> bool {
        kind == AccessKind::Write && self.cfg.write_policy == WritePolicy::WriteBack
    }

    /// Whether an access of `kind` that allocates or hits also goes
    /// straight to memory (a store under the write-through policy).
    #[inline(always)]
    pub(crate) fn writes_through(&self, kind: AccessKind) -> bool {
        kind == AccessKind::Write && self.cfg.write_policy == WritePolicy::WriteThrough
    }

    /// Probes for the line holding `addr` through instance `W`, touching
    /// nothing: `Ok` with its flat index when resident, else `Err` with
    /// the `(set, tag)` a [`Cache::fill`] takes.
    #[inline(always)]
    pub(crate) fn lookup<const W: usize>(&self, addr: PhysAddr) -> Result<usize, (usize, u32)> {
        let (set, tag) = self.index(addr);
        self.find::<W>(set, tag).ok_or((set, tag))
    }

    /// Commits `n` hits of `kind` on the resident line at flat index `idx`:
    /// the tick and the demand and hit counters advance by `n`, the LRU
    /// stamp lands on the last tick, and a write-back store dirties the line.
    #[inline(always)]
    pub(crate) fn hits_at(&mut self, idx: usize, kind: AccessKind, n: u64) {
        self.tick += n;
        self.stats.accesses += n;
        self.stats.hits += n;
        let dirty = self.dirties(kind);
        let line = &mut self.lines[idx];
        line.lru = self.tick;
        line.dirty |= dirty;
    }

    /// The miss half of [`Cache::demand`], for the `(set, tag)` a
    /// [`Cache::lookup`] missed: fills the victim way and commits the
    /// `n - 1` accesses that follow the miss as hits, in the same step. A
    /// fully locked set commits only the first access, counted as a miss
    /// and an inhibited access.
    #[inline(always)]
    pub(crate) fn fill<const W: usize>(
        &mut self,
        (set, tag): (usize, u32),
        kind: AccessKind,
        n: u64,
    ) -> Probe {
        let Some(idx) = self.victim::<W>(set) else {
            self.tick += 1;
            self.stats.accesses += 1;
            self.stats.misses += 1;
            self.stats.inhibited += 1;
            return Probe::Bypassed;
        };
        self.tick += n;
        self.stats.accesses += n;
        self.stats.misses += 1;
        self.stats.hits += n - 1;
        self.fill_at(idx, set, tag, self.dirties(kind))
    }

    /// The one probe-and-fill of a demand access, instance `W`: commits
    /// `n` accesses of `kind` to the line holding `addr`, all of which lie
    /// on that line — exactly the bookkeeping of `n` consecutive
    /// single-word accesses. A hit commits `n` hits; a miss is a
    /// [`Cache::fill`].
    #[inline(always)]
    pub(crate) fn demand<const W: usize>(
        &mut self,
        addr: PhysAddr,
        kind: AccessKind,
        n: u64,
    ) -> Probe {
        match self.lookup::<W>(addr) {
            Ok(idx) => {
                self.hits_at(idx, kind, n);
                Probe::Hit
            }
            Err(miss) => self.fill::<W>(miss, kind, n),
        }
    }

    /// The one probe-and-fill of a line establish (`dcbz`, or a whole-line
    /// writeback arriving from above), instance `W`: a store that allocates
    /// without reading memory, so a miss counts as a hit and a zero fill,
    /// not as a demand miss. A fully locked set establishes nothing and
    /// counts one inhibited access.
    #[inline(always)]
    pub(crate) fn establish<const W: usize>(&mut self, addr: PhysAddr) -> Probe {
        let (set, tag) = self.index(addr);
        if let Some(idx) = self.find::<W>(set, tag) {
            self.hits_at(idx, AccessKind::Write, 1);
            return Probe::Hit;
        }
        let Some(idx) = self.victim::<W>(set) else {
            self.stats.inhibited += 1;
            return Probe::Bypassed;
        };
        self.tick += 1;
        self.stats.accesses += 1;
        self.stats.hits += 1;
        self.stats.zero_fills += 1;
        self.fill_at(idx, set, tag, self.dirties(AccessKind::Write))
    }

    /// Performs a cacheable access; returns whether it hit. Evictions and
    /// writebacks show in [`Cache::stats`], residency in [`Cache::contains`].
    ///
    /// A driver for the standalone cache, which its tests use: the memory
    /// system probes through [`MemSystem`](crate::hierarchy::MemSystem)'s
    /// miss tail.
    pub fn access(&mut self, addr: PhysAddr, kind: AccessKind) -> bool {
        self.demand::<0>(addr, kind, 1) == Probe::Hit
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
    /// without reading memory. Returns whether the line was already
    /// present. In a fully locked set nothing is established and one
    /// inhibited access is counted.
    ///
    /// A driver for the standalone cache, like [`Cache::access`]: the
    /// memory system's `dcbz` establishes the line itself and lands the
    /// victim through its miss tail.
    pub fn zero_line(&mut self, addr: PhysAddr) -> bool {
        self.establish::<0>(addr) == Probe::Hit
    }

    /// Software prefetch (`dcbt`, paper §10.2): brings the line in as a read
    /// without counting as a demand access. Returns `true` if a fill
    /// happened; a fully locked set fills nothing and counts nothing.
    pub fn prefetch(&mut self, addr: PhysAddr) -> bool {
        matches!(self.touch(addr), Probe::Filled { .. })
    }

    /// The probe of a [`Cache::prefetch`]: a hit when the line was already
    /// resident (a redundant prefetch), else the fill or a bypass.
    pub(crate) fn touch(&mut self, addr: PhysAddr) -> Probe {
        let (set, tag) = self.index(addr);
        if self.find::<0>(set, tag).is_some() {
            self.stats.prefetch_redundant += 1;
            return Probe::Hit;
        }
        let Some(idx) = self.victim::<0>(set) else {
            return Probe::Bypassed;
        };
        self.tick += 1;
        self.stats.prefetch_fills += 1;
        self.fill_at(idx, set, tag, false)
    }

    /// Locks or unlocks the line containing `addr`, if present. Returns
    /// whether the line was found.
    pub fn set_locked(&mut self, addr: PhysAddr, locked: bool) -> bool {
        let (set, tag) = self.index(addr);
        match self.find::<0>(set, tag) {
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
        self.find::<0>(set, tag).is_some()
    }

    /// Invalidates every line, discarding dirty data (like `hid0` flash
    /// invalidate). Dirty lines are *not* written back.
    pub fn invalidate_all(&mut self) {
        self.lines.fill(Line::default());
        self.tags.fill(INVALID_TAG);
    }

    /// Writes back and invalidates every line, returning the number of dirty
    /// lines flushed (each costs a bus write in the memory system).
    pub fn flush_all(&mut self) -> u64 {
        let flushed = self
            .tags
            .iter()
            .zip(self.lines.iter())
            .filter(|(&tag, line)| tag != INVALID_TAG && line.dirty)
            .count() as u64;
        self.stats.writebacks += flushed;
        self.invalidate_all();
        flushed
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> u64 {
        self.tags.iter().filter(|&&t| t != INVALID_TAG).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::CacheStats;

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
        assert!(!c.access(0x40, AccessKind::Read));
        assert!(c.access(0x40, AccessKind::Read));
        assert!(
            c.access(0x5c, AccessKind::Read),
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
        c.access(addr(1, 3), AccessKind::Read);
        assert_eq!(c.stats().evictions, 1);
        assert!(c.contains(addr(1, 1)));
        assert!(!c.contains(addr(1, 2)));
        assert!(c.contains(addr(1, 3)));
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut c = small();
        c.access(addr(0, 1), AccessKind::Write);
        c.access(addr(0, 2), AccessKind::Read);
        c.access(addr(0, 3), AccessKind::Read); // evicts dirty tag 1
        assert_eq!((c.stats().evictions, c.stats().writebacks), (1, 1));
    }

    #[test]
    fn clean_eviction_no_writeback() {
        let mut c = small();
        c.access(addr(0, 1), AccessKind::Read);
        c.access(addr(0, 2), AccessKind::Read);
        c.access(addr(0, 3), AccessKind::Read);
        assert_eq!((c.stats().evictions, c.stats().writebacks), (1, 0));
    }

    #[test]
    fn write_through_never_dirties() {
        let mut c = Cache::new(CacheConfig {
            write_policy: WritePolicy::WriteThrough,
            ..*small().config()
        });
        c.access(addr(0, 1), AccessKind::Write);
        assert!(
            c.writes_through(AccessKind::Write),
            "the store went to memory"
        );
        c.access(addr(0, 2), AccessKind::Read);
        c.access(addr(0, 3), AccessKind::Read);
        assert_eq!((c.stats().evictions, c.stats().writebacks), (1, 0));
    }

    #[test]
    fn zero_line_fills_without_demand_miss() {
        let mut c = small();
        assert!(!c.zero_line(addr(2, 5)));
        assert_eq!(c.stats().zero_fills, 1);
        assert_eq!(c.stats().misses, 0, "dcbz fill is not a demand miss");
        assert!(c.contains(addr(2, 5)));
        // The established line is dirty: evicting it costs a writeback.
        c.access(addr(2, 6), AccessKind::Read);
        c.access(addr(2, 7), AccessKind::Read);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn prefetch_fills_without_demand_counters() {
        let mut c = small();
        assert!(c.prefetch(addr(1, 9)));
        assert_eq!(c.stats().accesses, 0);
        assert_eq!(c.stats().prefetch_fills, 1);
        assert!(c.access(addr(1, 9), AccessKind::Read));
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
        assert!(!c.access(addr(0, 3), AccessKind::Read));
        assert_eq!(c.stats().evictions, 0);
        assert!(!c.contains(addr(0, 3)));
        assert_eq!(c.stats().inhibited, 1);
    }

    /// Locks both ways of set 0 in the `small()` cache.
    fn lock_set_0(c: &mut Cache) {
        for tag in [1, 2] {
            c.access(addr(0, tag), AccessKind::Read);
            assert!(c.set_locked(addr(0, tag), true));
        }
    }

    #[test]
    fn prefetch_into_a_fully_locked_set_fills_and_counts_nothing() {
        let mut c = small();
        lock_set_0(&mut c);
        let before = *c.stats();
        assert!(!c.prefetch(addr(0, 3)), "nothing was filled");
        assert!(!c.contains(addr(0, 3)));
        assert_eq!(*c.stats(), before);
    }

    #[test]
    fn zero_line_in_a_fully_locked_set_counts_one_inhibited_access() {
        let mut c = small();
        lock_set_0(&mut c);
        let before = *c.stats();
        assert!(!c.zero_line(addr(0, 3)));
        assert!(!c.contains(addr(0, 3)));
        assert_eq!(
            *c.stats(),
            CacheStats {
                inhibited: before.inhibited + 1,
                ..before
            }
        );
    }

    /// Drives one stream of demand runs and establishes, with a locked
    /// line (so a fully locked set on a 1-way cache), through instance `W`
    /// of a `W`-way cache and through the runtime-width instance (`W = 0`)
    /// of the same code: equal probes, equal caches.
    fn instance_matches_the_runtime_width_one<const W: usize>() {
        let cfg = CacheConfig {
            size_bytes: 1024,
            ways: W as u32,
            ..*small().config()
        };
        let mut fixed = Cache::new(cfg);
        let mut runtime = Cache::new(cfg);
        let mut x = 0x2545_f491_u32;
        for step in 0..2_000u32 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let a = x & 0x3ffc;
            let kind = if x & 0x4000 == 0 {
                AccessKind::Read
            } else {
                AccessKind::Write
            };
            let n = u64::from(x >> 28) % 8 + 1;
            let (got, want) = if x & 0x8000 == 0 {
                (
                    fixed.demand::<W>(a, kind, n),
                    runtime.demand::<0>(a, kind, n),
                )
            } else {
                (fixed.establish::<W>(a), runtime.establish::<0>(a))
            };
            assert_eq!(got, want, "{W} ways, step {step}");
            if step == 100 {
                assert_eq!(fixed.set_locked(a, true), runtime.set_locked(a, true));
            }
        }
        assert_eq!(fixed, runtime, "{W} ways");
    }

    #[test]
    fn compiled_instances_match_the_runtime_width_instance() {
        instance_matches_the_runtime_width_one::<1>();
        instance_matches_the_runtime_width_one::<4>();
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
