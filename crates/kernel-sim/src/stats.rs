//! Kernel-level event counters.
//!
//! The counter fields are declared once, in `kernel_stats!`, which
//! generates the struct, the window-difference [`KernelStats::diff`], and the
//! name/value iterator [`KernelStats::as_named_pairs`] — so a counter added
//! to the struct automatically appears in every diff, table, and
//! machine-readable artifact, and none of them can drift out of sync.

/// Declares the [`KernelStats`] counters exactly once and derives everything
/// that must enumerate them.
macro_rules! kernel_stats {
    ($($(#[$doc:meta])* $name:ident,)+) => {
        /// Counters the kernel maintains about its own MMU activity (the
        /// software side of the paper's §4 measurement infrastructure).
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct KernelStats {
            $($(#[$doc])* pub $name: u64,)+
        }

        impl KernelStats {
            /// Every counter name, in declaration order — the single source
            /// of truth for exporters and tables.
            pub const NAMES: &'static [&'static str] = &[$(stringify!($name),)+];

            /// Difference `self - earlier` for a measurement window.
            ///
            /// # Panics
            ///
            /// Panics (in debug builds) if any counter of `earlier` exceeds
            /// `self` — windows must be taken from the same monotonically
            /// counting kernel.
            pub fn diff(&self, earlier: &KernelStats) -> KernelStats {
                KernelStats {
                    $($name: self.$name - earlier.$name,)+
                }
            }

            /// Iterates `(name, value)` over every counter, in declaration
            /// order.
            pub fn as_named_pairs(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($name), self.$name),)+].into_iter()
            }
        }
    };
}

kernel_stats! {
    /// TLB reloads performed (software handler or hardware walk completion).
    tlb_reloads,
    /// Reloads satisfied by the hash table.
    htab_hits,
    /// Reloads that missed the hash table and walked the Linux page tables.
    htab_misses,
    /// Reloads of kernel-space translations (the OS TLB footprint, §5.1).
    kernel_reloads,
    /// Real page faults (demand-zero or file-backed population).
    page_faults,
    /// Protection faults that broke copy-on-write sharing.
    cow_faults,
    /// Hash-table inserts that displaced a *live* entry (a real eviction).
    evict_live,
    /// Hash-table inserts that displaced a *zombie* entry.
    evict_zombie,
    /// Context switches.
    ctx_switches,
    /// Syscalls serviced.
    syscalls,
    /// Pages flushed one at a time (hash-table search + `tlbie` each).
    flushed_pages,
    /// Whole-context (VSID-bump) lazy flushes.
    context_bumps,
    /// Cycles donated to the idle task.
    idle_cycles,
    /// Pages cleared by the idle task.
    idle_pages_cleared,
    /// PTEG groups scanned by the idle reclaim.
    idle_groups_scanned,
    /// Processes created.
    processes_spawned,
    /// Segfaults (accesses outside any VMA).
    segfaults,
    /// Fatal SIGSEGVs delivered (task killed).
    sigsegvs,
    /// Fatal SIGBUSes delivered (file mapping past EOF).
    sigbus,
    /// Tasks reaped by the OOM killer.
    oom_kills,
    /// Page-cache pages evicted by the memory-pressure path.
    reclaimed_pages,
    /// Faults injected by the seeded [`crate::inject::FaultInjector`].
    injected_faults,
    /// Hash-table inserts that found both candidate PTEGs full (includes
    /// injected overflows).
    htab_overflows,
    /// Performance-monitor (sampling) interrupts delivered.
    pmu_interrupts,
    /// Tuning epochs the mmtune controller evaluated.
    mmtune_epochs,
    /// Retune decisions applied (any knob).
    mmtune_retunes,
    /// Hash-table resize/rehash retunes (a subset of `mmtune_retunes`).
    mmtune_htab_resizes,
}

impl KernelStats {
    /// Hash-table hit rate on TLB misses that consulted it, in `[0, 1]`.
    pub fn htab_hit_rate(&self) -> f64 {
        let total = self.htab_hits + self.htab_misses;
        if total == 0 {
            1.0
        } else {
            self.htab_hits as f64 / total as f64
        }
    }

    /// Fraction of hash-table inserts that displaced a live entry — the
    /// paper's §7 evict ratio (">90%" before idle reclaim, "30%" after).
    pub fn evict_ratio(&self, total_inserts: u64) -> f64 {
        if total_inserts == 0 {
            0.0
        } else {
            self.evict_live as f64 / total_inserts as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate() {
        let s = KernelStats {
            htab_hits: 9,
            htab_misses: 1,
            ..Default::default()
        };
        assert!((s.htab_hit_rate() - 0.9).abs() < 1e-12);
        assert_eq!(KernelStats::default().htab_hit_rate(), 1.0);
    }

    #[test]
    fn evict_ratio() {
        let s = KernelStats {
            evict_live: 3,
            ..Default::default()
        };
        assert!((s.evict_ratio(10) - 0.3).abs() < 1e-12);
        assert_eq!(s.evict_ratio(0), 0.0);
    }

    #[test]
    fn delta_subtracts() {
        let a = KernelStats {
            syscalls: 5,
            tlb_reloads: 7,
            ..Default::default()
        };
        let b = KernelStats {
            syscalls: 9,
            tlb_reloads: 20,
            ..Default::default()
        };
        let d = b.diff(&a);
        assert_eq!(d.syscalls, 4);
        assert_eq!(d.tlb_reloads, 13);
    }

    #[test]
    fn named_pairs_cover_every_field_exactly_once() {
        let s = KernelStats {
            tlb_reloads: 1,
            mmtune_htab_resizes: 99,
            ..Default::default()
        };
        let pairs: Vec<(&str, u64)> = s.as_named_pairs().collect();
        assert_eq!(pairs.len(), KernelStats::NAMES.len());
        assert_eq!(pairs[0], ("tlb_reloads", 1));
        assert_eq!(*pairs.last().unwrap(), ("mmtune_htab_resizes", 99));
        let mut names: Vec<&str> = pairs.iter().map(|p| p.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), pairs.len(), "names must be unique");
    }

    #[test]
    fn diff_matches_named_pairs() {
        let a = KernelStats {
            page_faults: 3,
            ..Default::default()
        };
        let b = KernelStats {
            page_faults: 10,
            syscalls: 7,
            ..Default::default()
        };
        let d = b.diff(&a);
        for ((name, dv), ((_, bv), (_, av))) in d
            .as_named_pairs()
            .zip(b.as_named_pairs().zip(a.as_named_pairs()))
        {
            assert_eq!(dv, bv - av, "{name}");
        }
    }
}
