//! A simulated Linux/PPC kernel — the artifact of "Optimizing the Idle Task
//! and Other MMU Tricks" (OSDI 1999).
//!
//! This crate reimplements, as a discrete-cost simulation, the memory
//! management of the Linux PowerPC port that the paper optimizes:
//!
//! * the Linux two-level page tables as the master source of translations
//!   ([`linuxpt`]),
//! * the architected hash table as a second-level TLB cache (`ppc-mmu`'s
//!   [`ppc_mmu::HashTable`], owned by the kernel),
//! * VSID allocation policies (§5.2, §7) in [`vsid`],
//! * the TLB-miss / hash-table-miss / page-fault handler paths (§5, §6),
//! * TLB and hash-table flush strategies, including lazy VSID flushes and
//!   the tunable range-flush cutoff (§7),
//! * the idle task with zombie-PTE reclaim and page pre-clearing (§7, §9),
//! * `get_free_page()` with a pre-cleared page list (§9),
//! * copy-on-write `fork()`, `exec()` and `brk()` over real protection
//!   faults ([`process`]), and signal delivery ([`signal`]),
//! * a round-robin scheduler, syscalls, pipes and a page-cache file layer —
//!   enough kernel to run LmBench-shaped workloads.
//!
//! Every optimization is a [`KernelConfig`] toggle, so experiments can run
//! the *same* workload on the unoptimized and optimized kernels and diff the
//! hardware counters, exactly as the paper does.
//!
//! The kernel also survives faults the way a real kernel does: accesses
//! outside every VMA deliver SIGSEGV through the signal machinery and kill
//! the task ([`errors`]), memory pressure runs page-cache eviction, zombie
//! reclaim and finally a simulated OOM killer, and a seeded
//! [`FaultInjector`] can drive all of those paths deterministically.
//!
//! # Examples
//!
//! ```
//! use kernel_sim::{Kernel, KernelConfig};
//! use ppc_machine::MachineConfig;
//!
//! let mut k = Kernel::boot(MachineConfig::ppc604_185(), KernelConfig::optimized());
//! let pid = k.spawn_process(8).unwrap();
//! k.switch_to(pid);
//! // Touch some user memory: faults, reloads and cache traffic all happen.
//! k.user_write(0x1000_0000, 4096).unwrap();
//! assert!(k.machine.cycles > 0);
//! ```

pub mod causal;
pub mod check;
pub mod errors;
pub mod fault;
pub mod fixed_hash;
pub mod flush;
pub mod fs;
pub mod idle;
pub mod inject;
pub mod kconfig;
pub mod kernel;
pub mod layout;
pub mod linuxpt;
pub mod oracle;
pub mod os_model;
pub mod physmem;
pub mod pipe;
pub mod pmu;
pub mod process;
pub mod prof;
pub mod sched;
pub mod signal;
pub mod stats;
pub mod syscall;
pub mod tail;
pub mod task;
pub mod telemetry;
#[cfg(test)]
mod tests;
#[cfg(test)]
mod tests_causal;
#[cfg(test)]
mod tests_check;
#[cfg(test)]
mod tests_edge;
#[cfg(test)]
mod tests_observers;
#[cfg(test)]
mod tests_pmu;
#[cfg(test)]
mod tests_subsystems;
#[cfg(test)]
mod tests_tail;
#[cfg(test)]
mod tests_trace;
pub mod trace;
pub mod tune;
pub mod vsid;

pub use causal::{CausalConfig, CausalState, Ratio};
pub use check::{CheckConfig, CheckState};
pub use errors::{KResult, KernelError, Signal};
pub use inject::{FaultInjection, FaultInjector, InjectSite};
pub use kconfig::{HandlerStyle, KernelConfig, PageClearing, PmuConfig, VsidPolicy};
pub use kernel::Kernel;
pub use oracle::{ShadowEntry, ShadowMm};
pub use os_model::OsModel;
pub use pmu::{PmuSample, PmuState};
pub use prof::{Path, Profiler, Subsystem};
pub use stats::KernelStats;
pub use tail::{TailCause, TailConfig, TailExemplar, TailState};
pub use task::{Pid, Task};
pub use telemetry::{EpochSample, MmuReadings, Telemetry, TelemetryConfig};
pub use trace::{Histogram, TraceEvent, TraceRecord, TraceRing, Tracer};
pub use tune::{Mmtune, MmtuneConfig, RetuneDecision, TuneAction, TuneKnob};
