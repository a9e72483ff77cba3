//! Property-based tests for the cache model.

use proptest::prelude::*;

use ppc_cache::cache::{AccessKind, Cache};
use ppc_cache::config::{CacheConfig, WritePolicy};
use ppc_cache::hierarchy::{MemSystem, MemSystemConfig};

/// One of the memory systems a run can meet: 603, 604 or 750 geometry
/// (2-, 4- and 8-way L1s over a 1-way board L2), with or without the L2,
/// with a write-back or a write-through L1. The 604's L1s and the L2 run
/// compiled instances of the cache code, the 603's and the 750's L1s its
/// runtime-width instance.
fn run_config(pick: u32) -> MemSystemConfig {
    let base = match pick % 3 {
        0 => MemSystemConfig::ppc603(),
        1 => MemSystemConfig::ppc604(),
        // The 750: 32 KiB 8-way L1s and a 1 MiB L2.
        _ => {
            let l1 = CacheConfig {
                size_bytes: 32 * 1024,
                ways: 8,
                ..CacheConfig::ppc604_data()
            };
            MemSystemConfig {
                icache: l1,
                dcache: l1,
                l2: Some(CacheConfig::board_l2(1024 * 1024)),
                l2_hit: 12,
                ..MemSystemConfig::ppc604()
            }
        }
    };
    let shape = pick / 3;
    let write_policy = if shape & 2 == 0 {
        WritePolicy::WriteBack
    } else {
        WritePolicy::WriteThrough
    };
    MemSystemConfig {
        l2: if shape & 1 == 0 { base.l2 } else { None },
        dcache: CacheConfig {
            write_policy,
            ..base.dcache
        },
        ..base
    }
}

/// One word access, the unit a [`MemSystem::data_run`] is defined by.
fn word(m: &mut MemSystem, pa: u32, write: bool, cached: bool) -> u64 {
    if write {
        m.data_write(pa, cached)
    } else {
        m.data_read(pa, cached)
    }
}

fn small_cfg(ways: u32) -> CacheConfig {
    CacheConfig {
        size_bytes: 1024,
        line_bytes: 32,
        ways,
        write_policy: WritePolicy::WriteBack,
        hit_cycles: 1,
    }
}

proptest! {
    /// Immediately after any access, the line is resident (no locked ways in
    /// this test), and an immediate re-access hits.
    #[test]
    fn access_makes_resident(addrs in proptest::collection::vec(0u32..0x10_0000, 1..200),
                             ways in prop::sample::select(vec![1u32, 2, 4])) {
        let mut c = Cache::new(small_cfg(ways));
        for &a in &addrs {
            c.access(a, AccessKind::Read);
            prop_assert!(c.contains(a), "line {a:#x} must be resident after access");
            let hit = c.access(a, AccessKind::Read);
            prop_assert!(hit, "immediate re-access of {a:#x} must hit");
        }
    }

    /// Accounting invariant: hits + misses == accesses, and residency never
    /// exceeds capacity.
    #[test]
    fn stats_add_up(ops in proptest::collection::vec((0u32..0x4000, any::<bool>()), 1..300),
                    ways in prop::sample::select(vec![1u32, 2, 4])) {
        let mut c = Cache::new(small_cfg(ways));
        for &(a, w) in &ops {
            c.access(a, if w { AccessKind::Write } else { AccessKind::Read });
        }
        let s = c.stats();
        prop_assert_eq!(s.hits + s.misses, s.accesses);
        prop_assert!(c.resident_lines() <= (c.config().num_lines()) as u64);
        prop_assert!(s.writebacks <= s.evictions);
    }

    /// Write-back: a dirty line leaves the cache only via a writeback;
    /// clean lines never write back. Total writebacks never exceed stores.
    #[test]
    fn writebacks_bounded_by_stores(ops in proptest::collection::vec(
        (0u32..0x2000, any::<bool>()), 1..300)) {
        let mut c = Cache::new(small_cfg(2));
        let mut stores = 0u64;
        for &(a, w) in &ops {
            c.access(a, if w { AccessKind::Write } else { AccessKind::Read });
            if w {
                stores += 1;
            }
        }
        let flushed = c.flush_all();
        prop_assert!(c.stats().writebacks <= stores,
            "writebacks {} cannot exceed stores {stores}", c.stats().writebacks);
        prop_assert!(flushed <= stores);
    }

    /// Locked lines survive arbitrary pressure; after unlock they can go.
    #[test]
    fn locking_pins_lines(pressure in proptest::collection::vec(0u32..0x8000, 1..200)) {
        let mut c = Cache::new(small_cfg(2));
        let pinned = 0x1_0000u32;
        c.access(pinned, AccessKind::Read);
        prop_assert!(c.set_locked(pinned, true));
        for &a in &pressure {
            c.access(a, AccessKind::Read);
            prop_assert!(c.contains(pinned));
        }
    }

    /// The memory system charges at least the hit cost for every cacheable
    /// access, and cache-inhibited accesses never allocate.
    #[test]
    fn memsystem_costs_and_inhibition(ops in proptest::collection::vec(
        (0u32..0x100_0000, any::<bool>(), any::<bool>()), 1..200)) {
        let mut m = MemSystem::new(MemSystemConfig::ppc603());
        for &(a, w, cached) in &ops {
            let resident_before = m.dcache.contains(a);
            let c = if w { m.data_write(a, cached) } else { m.data_read(a, cached) };
            prop_assert!(c >= 1);
            if !cached {
                // An inhibited access never changes the line's residency
                // (in particular it never allocates a missing line).
                prop_assert_eq!(m.dcache.contains(a), resident_before);
            }
        }
    }

    /// A run is exactly its word loop: over random runs (start, length,
    /// stride, read or write, cached or not, and page-aligned 4 KiB
    /// `zero_page_stores` clears) on every memory-system shape — so through
    /// every instance of the cache code — into a warmed,
    /// dirty cache with some sets partly or fully locked, `data_run` and
    /// per-word `data_read`/`data_write` calls leave equal costs, equal L1
    /// and L2 counters and an equal memory system (LRU stamps and dirty
    /// bits included), and a follow-up stream of conflicting accesses then
    /// costs the same on both.
    #[test]
    fn data_run_equals_word_loop(
        pick in 0u32..12,
        warm in proptest::collection::vec((0u32..0x8_0000, any::<bool>()), 0..400),
        lock in (0u32..128, 0u32..9),
        runs in proptest::collection::vec(
            ((0u32..0x1_0000, 1u32..300),
             (prop::sample::select(vec![4u32, 8, 32, 64]), any::<bool>(), any::<bool>()),
             prop::sample::select(vec![false, false, false, true])),
            1..12),
        follow in proptest::collection::vec((0u32..0x8_0000, any::<bool>()), 1..300),
    ) {
        let mut run = MemSystem::new(run_config(pick));
        for &(pa, write) in &warm {
            word(&mut run, pa, write, true);
        }
        // Lock `ways` lines of one set (all of them when `ways` covers the
        // associativity, so runs through it bypass the cache).
        let (set, ways) = lock;
        let span = run.dcache.config().num_sets() * run.dcache.config().line_bytes;
        for k in 0..ways.min(run.dcache.config().ways) {
            let pa = set * 32 + k * span;
            word(&mut run, pa, false, true);
            prop_assert!(run.dcache.set_locked(pa, true));
        }
        let mut words = run.clone();
        for &((pa, count), (stride, write, cached), clear) in &runs {
            let (got, want) = if clear {
                let page = pa & !0xfff;
                let got = run.zero_page_stores(page, 4096);
                let want: u64 = (0..1024).map(|i| word(&mut words, page + i * 4, true, true)).sum();
                (got, want)
            } else {
                let kind = if write { AccessKind::Write } else { AccessKind::Read };
                let got = run.data_run(pa, count, stride, kind, cached);
                let want: u64 = (0..count)
                    .map(|i| word(&mut words, pa + i * stride, write, cached))
                    .sum();
                (got, want)
            };
            prop_assert_eq!(got, want);
            prop_assert_eq!(run.dcache.stats(), words.dcache.stats());
            prop_assert_eq!(
                run.l2.as_ref().map(|c| *c.stats()),
                words.l2.as_ref().map(|c| *c.stats())
            );
            prop_assert!(run == words, "memory systems diverged after a run");
        }
        for &(pa, write) in &follow {
            prop_assert_eq!(word(&mut run, pa, write, true), word(&mut words, pa, write, true));
        }
        prop_assert_eq!(run.dcache.stats(), words.dcache.stats());
    }

    /// dcbz never reads memory: zeroing N cold lines in an empty cache
    /// costs less than reading them would.
    #[test]
    fn dcbz_cheaper_than_fills(n in 1u32..64) {
        let mut za = MemSystem::new(MemSystemConfig::ppc604());
        let mut rd = MemSystem::new(MemSystemConfig::ppc604());
        let mut zc = 0;
        let mut rc = 0;
        for i in 0..n {
            zc += za.dcbz(i * 32);
            rc += rd.data_read(i * 32, true);
        }
        prop_assert!(zc < rc, "dcbz {zc} must beat demand fills {rc}");
    }
}
