//! Synthetic user address-stream generators.
//!
//! Benchmarks and the compile workload need realistic reference streams:
//! mostly-local accesses over a working set with occasional far jumps, plus
//! sequential runs. The generators are deterministic (seeded) so every
//! experiment is reproducible.

use kernel_sim::Kernel;
use ppc_mmu::addr::PAGE_SIZE;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A deterministic reference stream over a working set.
#[derive(Debug, Clone)]
pub struct WorkingSet {
    /// Base effective address (page-aligned).
    pub base: u32,
    /// Working-set size in pages.
    pub pages: u32,
    /// Fraction of references that stay in the hot sixth of the set
    /// (temporal locality), in `[0, 1]`.
    pub locality: f64,
    rng: SmallRng,
}

impl WorkingSet {
    /// Creates a stream over `pages` pages at `base`, with default locality
    /// of 0.85.
    pub fn new(base: u32, pages: u32, seed: u64) -> Self {
        assert!(pages > 0, "working set cannot be empty");
        Self {
            base,
            pages,
            locality: 0.85,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Next effective address in the stream.
    pub fn next_ea(&mut self) -> u32 {
        let hot_pages = (self.pages / 6).max(1);
        let page = if self.rng.gen_bool(self.locality) {
            self.rng.gen_range(0..hot_pages)
        } else {
            self.rng.gen_range(0..self.pages)
        };
        let offset = (self.rng.gen_range(0..PAGE_SIZE / 4) * 4) & !3;
        self.base + page * PAGE_SIZE + offset
    }

    /// Issues `n` references on `k` (current task), `write_frac` of them
    /// stores, with `compute` pipeline cycles between references. Returns
    /// the cycles consumed.
    pub fn run(&mut self, k: &mut Kernel, n: u32, write_frac: f64, compute: u32) -> u64 {
        let start = k.machine.cycles;
        for _ in 0..n {
            let ea = self.next_ea();
            let write = self.rng.gen_bool(write_frac);
            k.data_ref(ppc_mmu::addr::EffectiveAddress(ea), write)
                .expect("benchmark workload is well-formed");
            k.machine.charge(compute as u64);
        }
        k.machine.cycles - start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_stay_in_bounds() {
        let mut ws = WorkingSet::new(0x1000_0000, 10, 42);
        for _ in 0..1000 {
            let ea = ws.next_ea();
            assert!(ea >= 0x1000_0000);
            assert!(ea < 0x1000_0000 + 10 * PAGE_SIZE);
            assert_eq!(ea % 4, 0, "word-aligned");
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = WorkingSet::new(0x1000_0000, 64, 7);
        let mut b = WorkingSet::new(0x1000_0000, 64, 7);
        for _ in 0..100 {
            assert_eq!(a.next_ea(), b.next_ea());
        }
    }

    #[test]
    fn locality_concentrates_references() {
        let mut ws = WorkingSet::new(0, 60, 1);
        ws.locality = 0.9;
        let hot_limit = 10 * PAGE_SIZE; // hot sixth of 60 pages
        let hot = (0..10_000).filter(|_| ws.next_ea() < hot_limit).count();
        assert!(hot > 8500, "≈90% of refs should be hot, got {hot}/10000");
    }

    #[test]
    fn single_page_working_set() {
        let mut ws = WorkingSet::new(0x2000_0000, 1, 3);
        for _ in 0..10 {
            assert!(ws.next_ea() < 0x2000_0000 + PAGE_SIZE);
        }
    }
}
