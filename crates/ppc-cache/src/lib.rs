//! Cache and memory-system model for the MMU Tricks (OSDI 1999) reproduction.
//!
//! This crate models the parts of the PowerPC 603/604 memory hierarchy that
//! the paper's experiments depend on:
//!
//! * split, set-associative, write-back L1 instruction and data caches with
//!   LRU replacement ([`Cache`]),
//! * cache-inhibited (uncached) accesses, used by the idle-task page-clearing
//!   experiment (paper §9),
//! * `dcbz`-style cache-line zeroing, which establishes a line without a
//!   memory read,
//! * a fixed-latency memory bus ([`bus::Bus`]),
//! * the combined [`hierarchy::MemSystem`] that the machine model drives, and
//! * the paper's *future work* extensions (§10): cache locking and software
//!   cache preloads (`dcbt`-style touches).
//!
//! Addresses are raw `u32` physical addresses; time is counted in [`Cycles`].
//! The cache contents are tags only — this is a performance model, not a
//! functional memory. All statistics the paper reports (miss counts, eviction
//! counts, pollution from page-table walks) are emergent from the tag state.
//!
//! # Examples
//!
//! ```
//! use ppc_cache::hierarchy::{MemSystem, MemSystemConfig};
//!
//! let mut mem = MemSystem::new(MemSystemConfig::ppc603());
//! let first = mem.data_read(0x1000, true);   // cold miss: bus latency
//! let again = mem.data_read(0x1000, true);   // hit: 1 cycle
//! assert!(first > again);
//! assert_eq!(mem.dcache.stats().misses, 1);
//! ```

pub mod bus;
pub mod cache;
pub mod config;
pub mod hierarchy;
pub mod stats;

pub use bus::Bus;
pub use cache::{AccessKind, Cache};
pub use config::{CacheConfig, WritePolicy};
pub use hierarchy::{MemSystem, MemSystemConfig};
pub use stats::CacheStats;

/// Simulated time, in processor clock cycles.
pub type Cycles = u64;

/// A raw 32-bit physical address.
pub type PhysAddr = u32;
