//! Deterministic, seeded fault injection.
//!
//! Real kernels are hardened by running under adversity; the simulator
//! gains the same leverage by *injecting* the three fault families the
//! paper's mechanisms exist to absorb:
//!
//! * **allocation failures** — `get_free_page()` behaves as if the free
//!   list were empty, forcing the memory-pressure path (pre-cleared-list
//!   drain, zombie reclaim, page-cache eviction, OOM killer),
//! * **hash-table insertion overflow** — a reload skips the hash-table
//!   insert as if both PTEGs were full, so the next miss re-walks the
//!   Linux page tables (the overflow cost, §7),
//! * **TLB-reload faults** — a hash-table lookup is forced to miss,
//!   charging the full Linux page-table walk.
//!
//! Injection is a pure function of the seed and the sequence of decision
//! points, so two runs with the same seed and workload produce
//! *bit-identical* statistics — a property the test suite asserts.

/// Injection configuration: per-decision fault probabilities, expressed as
/// numerators over 2^16 (0 = never, 65535 ≈ always). Lives in
/// [`crate::KernelConfig::fault_injection`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultInjection {
    /// RNG seed. Same seed + same workload = bit-identical stats.
    pub seed: u64,
    /// Probability (over 2^16) that an allocation must take the pressure
    /// path even though the free list has frames.
    pub alloc_fail_per_64k: u16,
    /// Probability (over 2^16) that a hash-table insert is treated as an
    /// overflow (entry goes to the TLB only).
    pub htab_overflow_per_64k: u16,
    /// Probability (over 2^16) that a hash-table lookup during TLB reload
    /// is forced to miss.
    pub tlb_fault_per_64k: u16,
    /// Probability (over 2^16) that a hash-table rehash is chased by an
    /// extra full TLB flush mid-operation (adversarial timing inside
    /// `apply_retune`'s resize).
    pub rehash_flush_per_64k: u16,
    /// Probability (over 2^16) that an mmtune retune is followed by a
    /// forced zombie-reclaim sweep (stressing retune/reclaim interleaving).
    pub retune_sweep_per_64k: u16,
    /// Probability (over 2^16) that a fatal-signal unwind flushes the dying
    /// context *early*, before teardown flushes it again (double-retire
    /// adversity).
    pub unwind_flush_per_64k: u16,
}

impl FaultInjection {
    /// Mild background adversity: roughly 1 in 64 allocations, inserts and
    /// lookups fault. The chaos-only families stay off so pre-existing
    /// baselines keep their exact decision stream.
    pub fn light(seed: u64) -> Self {
        Self {
            seed,
            alloc_fail_per_64k: 1024,
            htab_overflow_per_64k: 1024,
            tlb_fault_per_64k: 1024,
            rehash_flush_per_64k: 0,
            retune_sweep_per_64k: 0,
            unwind_flush_per_64k: 0,
        }
    }

    /// Heavy adversity: roughly 1 in 8 decisions fault (chaos-only families
    /// off, as in [`FaultInjection::light`]).
    pub fn heavy(seed: u64) -> Self {
        Self {
            seed,
            alloc_fail_per_64k: 8192,
            htab_overflow_per_64k: 8192,
            tlb_fault_per_64k: 8192,
            rehash_flush_per_64k: 0,
            retune_sweep_per_64k: 0,
            unwind_flush_per_64k: 0,
        }
    }

    /// Full-spectrum adversity for `repro chaos`: every family armed,
    /// including the mutation-site families inside rehash, retune, and
    /// fatal-signal unwind.
    pub fn chaotic(seed: u64) -> Self {
        Self {
            seed,
            alloc_fail_per_64k: 4096,
            htab_overflow_per_64k: 4096,
            tlb_fault_per_64k: 4096,
            rehash_flush_per_64k: 16384,
            retune_sweep_per_64k: 16384,
            unwind_flush_per_64k: 8192,
        }
    }
}

/// A decision point where the injector may plant a fault, one per
/// [`FaultInjection`] rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectSite {
    /// An allocation is forced onto the pressure path.
    AllocFail,
    /// A hash-table insert is treated as an overflow.
    HtabOverflow,
    /// A hash-table lookup during TLB reload is forced to miss.
    TlbFault,
    /// A hash-table rehash is chased by an extra TLB flush (chaos only).
    RehashFlush,
    /// A retune is followed by a forced reclaim sweep (chaos only).
    RetuneSweep,
    /// A fatal-signal unwind flushes the dying context early (chaos only).
    UnwindFlush,
}

/// The runtime injector state (xorshift64*, seeded via SplitMix64).
#[derive(Debug, Clone)]
pub struct FaultInjector {
    cfg: FaultInjection,
    state: u64,
}

impl FaultInjector {
    /// Builds the injector for a configuration.
    pub fn new(cfg: FaultInjection) -> Self {
        let mut z = cfg.seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Self {
            cfg,
            state: (z ^ (z >> 31)) | 1,
        }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Should the fault at `site` happen? Every site advances the stream,
    /// so the decision *sequence* (not just the outcomes) is identical
    /// across configs with different rates — except a chaos-only site at
    /// rate 0, which must not: the light and heavy presets never rolled
    /// there, and consuming randomness would shift every later decision
    /// and shatter bit-identity with recorded artifacts.
    pub fn roll(&mut self, site: InjectSite) -> bool {
        let c = &self.cfg;
        let (rate, chaos_only) = match site {
            InjectSite::AllocFail => (c.alloc_fail_per_64k, false),
            InjectSite::HtabOverflow => (c.htab_overflow_per_64k, false),
            InjectSite::TlbFault => (c.tlb_fault_per_64k, false),
            InjectSite::RehashFlush => (c.rehash_flush_per_64k, true),
            InjectSite::RetuneSweep => (c.retune_sweep_per_64k, true),
            InjectSite::UnwindFlush => (c.unwind_flush_per_64k, true),
        };
        if chaos_only && rate == 0 {
            return false;
        }
        let r = self.next_u64() & 0xffff;
        rate != 0 && r < u64::from(rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use InjectSite::*;

    #[test]
    fn same_seed_same_decisions() {
        let mut a = FaultInjector::new(FaultInjection::light(42));
        let mut b = FaultInjector::new(FaultInjection::light(42));
        for _ in 0..10_000 {
            assert_eq!(a.roll(AllocFail), b.roll(AllocFail));
            assert_eq!(a.roll(HtabOverflow), b.roll(HtabOverflow));
            assert_eq!(a.roll(TlbFault), b.roll(TlbFault));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultInjector::new(FaultInjection::heavy(1));
        let mut b = FaultInjector::new(FaultInjection::heavy(2));
        let fa: Vec<bool> = (0..512).map(|_| a.roll(AllocFail)).collect();
        let fb: Vec<bool> = (0..512).map(|_| b.roll(AllocFail)).collect();
        assert_ne!(fa, fb);
    }

    #[test]
    fn rates_roughly_respected() {
        let mut i = FaultInjector::new(FaultInjection {
            seed: 7,
            alloc_fail_per_64k: 16384, // 1 in 4
            htab_overflow_per_64k: 0,
            tlb_fault_per_64k: 65535,
            rehash_flush_per_64k: 0,
            retune_sweep_per_64k: 0,
            unwind_flush_per_64k: 0,
        });
        let n = 100_000;
        let hits = (0..n).filter(|_| i.roll(AllocFail)).count();
        assert!((n / 5..n / 3).contains(&hits), "got {hits}/{n}");
        assert!(
            !(0..1000).any(|_| i.roll(HtabOverflow)),
            "rate 0 never fires"
        );
        assert!(
            (0..1000).all(|_| i.roll(TlbFault)),
            "rate 65535 ~always fires"
        );
    }

    #[test]
    fn chaos_families_at_zero_rate_are_stream_neutral() {
        // A light-preset injector interleaved with disarmed chaos rolls must
        // produce the same decision stream as one that never rolls them —
        // otherwise adding the new sites would shift old baselines.
        let mut a = FaultInjector::new(FaultInjection::light(42));
        let mut b = FaultInjector::new(FaultInjection::light(42));
        for _ in 0..10_000 {
            assert!(!a.roll(RehashFlush));
            assert!(!a.roll(RetuneSweep));
            assert!(!a.roll(UnwindFlush));
            assert_eq!(a.roll(AllocFail), b.roll(AllocFail));
            assert_eq!(a.roll(TlbFault), b.roll(TlbFault));
        }
    }

    #[test]
    fn chaotic_preset_arms_every_family() {
        let mut i = FaultInjector::new(FaultInjection::chaotic(3));
        let n = 10_000;
        assert!((0..n).filter(|_| i.roll(RehashFlush)).count() > 0);
        assert!((0..n).filter(|_| i.roll(RetuneSweep)).count() > 0);
        assert!((0..n).filter(|_| i.roll(UnwindFlush)).count() > 0);
    }
}
