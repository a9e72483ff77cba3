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

pub mod bench;
pub mod causal;
pub mod chaos;
pub mod diff;
pub mod experiments;
pub mod matrix;
pub mod perf;
pub mod tables;
pub mod tail;
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
}
