//! Machine model for the MMU Tricks (OSDI 1999) reproduction.
//!
//! A [`Machine`] combines the `ppc-mmu` front end (segments, BATs, TLBs)
//! with the `ppc-cache` memory system and a cycle accumulator, under a named
//! [`MachineConfig`] corresponding to the boards the paper measured on:
//!
//! | config | CPU | clock | TLB | L1 | reload |
//! |---|---|---|---|---|---|
//! | `ppc603_133` | 603 | 133 MHz | 128 | 8K+8K | software |
//! | `ppc603_180` | 603 | 180 MHz | 128 | 8K+8K | software |
//! | `ppc604_133` | 604 | 133 MHz | 256 | 16K+16K | hardware |
//! | `ppc604_185` | 604 | 185 MHz | 256 | 16K+16K | hardware |
//! | `ppc604_200` | 604 | 200 MHz | 256 | 16K+16K | hardware, fast board |
//!
//! The machine executes *abstract references*: [`Machine::data_ref`] and
//! [`Machine::exec_code`] translate each one through the BAT → TLB pipeline
//! and price it through the cache hierarchy. A reference either completes
//! or returns the [`ppc_mmu::Miss`] it takes, charging nothing: the TLB
//! miss, the protection fault or the unaudited translation is serviced by
//! the OS layer (`kernel-sim`), which then executes the reference again,
//! because the miss handling is precisely the part the paper varies.

pub mod config;
pub mod cpu;
pub mod exceptions;
pub mod monitor;
pub mod pmu;
pub mod time;

pub use config::{CpuModel, MachineConfig};
pub use cpu::Machine;
pub use exceptions::ExceptionCosts;
pub use monitor::MonitorSnapshot;
pub use pmu::{Mmcr0, PmcEvent, Pmu, PMC_NEGATIVE};
pub use time::SimTime;

/// Simulated time, in processor clock cycles.
pub type Cycles = u64;
