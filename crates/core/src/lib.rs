//! `mmu-tricks` — public API of the reproduction of *Optimizing the Idle
//! Task and Other MMU Tricks* (Dougan, Mackerras, Yodaiken; OSDI 1999).
//!
//! The paper optimizes the memory management of Linux on 32-bit PowerPC:
//! BAT-mapping the kernel (§5.1), tuning the hashed page table's VSID
//! scatter (§5.2), hand-written TLB reload handlers (§6.1), eliminating the
//! hash table on the 603 (§6.2), lazy VSID-based TLB flushes with a tunable
//! range cutoff (§7), idle-task reclamation of zombie hash-table entries
//! (§7), and idle-task page clearing with the cache inhibited (§9).
//!
//! This crate stitches the substrates together and exposes:
//!
//! * [`experiments`] — one runner per table/figure/quoted result of the
//!   paper, each returning a structured result with the paper's expected
//!   values alongside the simulator's measurements;
//! * [`tables`] — plain-text table rendering for the `repro` harness;
//! * [`artifact`] — the one JSON format every `repro` artifact is written
//!   in, and [`par_map`], the one work pool the grids run on;
//! * re-exports of the main substrate types.
//!
//! # Quickstart
//!
//! ```
//! use mmu_tricks::{Kernel, KernelConfig, MachineConfig};
//!
//! // Boot the optimized kernel of the paper on a 185 MHz 604.
//! let mut k = Kernel::boot(MachineConfig::ppc604_185(), KernelConfig::optimized());
//! let pid = k.spawn_process(16).unwrap();
//! k.switch_to(pid);
//! k.sys_null();
//! println!("null syscall era: {} cycles so far", k.machine.cycles);
//! ```

pub mod artifact;
pub mod causal;
pub mod chaos;
pub mod diff;
pub mod experiments;
pub mod matrix;
pub mod perf;
pub mod tables;
pub mod tune;

pub use kernel_sim::{
    HandlerStyle, Kernel, KernelConfig, KernelStats, OsModel, PageClearing, VsidPolicy,
};
pub use lmbench::{run_suite, CompileConfig, LmbenchResults, SuiteConfig};
pub use ppc_machine::{CpuModel, Machine, MachineConfig, SimTime};
pub use ppc_mmu::{HashTable, Mmu, Tlb};

/// Depth of the reproduction: quick (CI-sized) or full (paper-sized).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Depth {
    /// Small iteration counts; minutes of simulated time.
    Quick,
    /// Full iteration counts for the recorded EXPERIMENTS.md numbers.
    Full,
}

impl Depth {
    /// The LmBench suite settings for this depth.
    pub fn suite(self) -> SuiteConfig {
        match self {
            Depth::Quick => SuiteConfig::quick(),
            Depth::Full => SuiteConfig::full(),
        }
    }

    /// The compile settings for this depth.
    pub fn compile(self) -> CompileConfig {
        match self {
            Depth::Quick => CompileConfig::small(),
            Depth::Full => CompileConfig::full(),
        }
    }

    /// Memory hogs in the E-PRESSURE fault storm at this depth.
    pub fn storm_hogs(self) -> u32 {
        match self {
            Depth::Quick => 10,
            Depth::Full => 24,
        }
    }

    /// The artifact name of this depth (`quick` or `full`).
    pub fn name(self) -> &'static str {
        match self {
            Depth::Quick => "quick",
            Depth::Full => "full",
        }
    }
}

/// The worker count the grids run with: the host's available parallelism.
/// Any count gives byte-identical output, so none is configurable.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Maps `f` over `items` on up to `jobs` scoped threads and returns the
/// results in input order.
///
/// Workers claim items from a shared counter, so a slow item does not hold
/// up the rest. The simulations this runs are independent and
/// deterministic, so the result is the same for every `jobs`; `jobs <= 1`
/// maps serially on the calling thread with no thread machinery at all.
/// A panic in `f` is re-raised on the calling thread with its payload.
pub fn par_map<T: Sync, R: Send>(jobs: usize, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|s| {
        let claim = || {
            let mut out = Vec::new();
            loop {
                // Relaxed: the counter only hands out indices; the results
                // reach the caller through `join`, which synchronizes.
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(item) = items.get(i) else {
                    return out;
                };
                out.push((i, f(item)));
            }
        };
        let workers: Vec<_> = (0..jobs.min(items.len())).map(|_| s.spawn(claim)).collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    done.sort_unstable_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_output_is_byte_identical_at_1_and_4_workers() {
        let variants: Vec<_> = matrix::paper_variants()
            .into_iter()
            .filter(|(id, _)| matches!(*id, "unopt" | "opt"))
            .collect();
        let machines = matrix::paper_machines();
        let grid = |jobs| {
            matrix::run_matrix_on_jobs(&machines, &variants, &["compile"], Depth::Quick, jobs)
                .to_json()
                .write()
        };
        assert_eq!(grid(4), grid(1), "the matrix moved with the worker count");
        let descent = |jobs| {
            tune::tune_workload_jobs("compile", Depth::Quick, jobs)
                .to_json()
                .write()
        };
        assert_eq!(
            descent(4),
            descent(1),
            "the tune descent moved with the worker count"
        );
        // Results come back in input order whatever finishes first.
        let squares = par_map(4, &[5u64, 1, 4, 2, 3], |&n| n * n);
        assert_eq!(squares, vec![25, 1, 16, 4, 9]);
    }

    #[test]
    #[should_panic(expected = "item 3")]
    fn par_map_reraises_a_worker_panic() {
        par_map(2, &[1, 2, 3, 4], |&n| assert_ne!(n, 3, "item {n}"));
    }
}
