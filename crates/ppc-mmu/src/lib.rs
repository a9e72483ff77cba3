//! PowerPC 603/604 MMU hardware model for the MMU Tricks (OSDI 1999)
//! reproduction.
//!
//! The 32-bit PowerPC MMU translates addresses in two stages (paper §3,
//! Figure 1):
//!
//! 1. A 32-bit *effective address* (EA) selects one of sixteen segment
//!    registers by its top 4 bits; the register supplies a 24-bit *virtual
//!    segment identifier* (VSID) which replaces those bits, yielding a 52-bit
//!    *virtual address*.
//! 2. The virtual address is looked up in a TLB and, on a miss, in an
//!    architected in-memory hashed page table (the *htab*), organized as
//!    groups ("PTEGs") of eight page-table entries, addressed by a primary
//!    hash and — on overflow — a secondary (complemented) hash.
//!
//! In parallel, *block address translation* (BAT) registers can map large
//! contiguous blocks (128 KiB and up) without consuming TLB or htab entries;
//! the paper's §5.1 uses them for kernel text and data.
//!
//! This crate models all of those mechanisms *structurally*: real tags, real
//! sets, real PTEG contents, real replacement decisions. Cycle costs are
//! deliberately left to `ppc-machine`; this crate reports *what happened*
//! (hits, misses, evictions, memory accesses performed) and the machine model
//! prices it.
//!
//! # Examples
//!
//! ```
//! use ppc_mmu::{addr::{EffectiveAddress, Vsid}, segment::SegmentRegisters};
//!
//! let mut srs = SegmentRegisters::new();
//! srs.set(3, Vsid::new(0x123456));
//! let ea = EffectiveAddress(0x3000_1abc);
//! let va = srs.translate(ea);
//! assert_eq!(va.vsid, Vsid::new(0x123456));
//! assert_eq!(va.page_index, 0x0001);
//! assert_eq!(va.offset, 0xabc);
//! ```

pub mod addr;
pub mod bat;
pub mod hash;
pub mod htab;
pub mod pte;
pub mod segment;
pub mod tlb;
pub mod translate;

pub use addr::{EffectiveAddress, PhysAddr, VirtualAddress, Vsid, PAGE_SHIFT, PAGE_SIZE};
pub use bat::{BatEntry, BatSet};
pub use hash::HashFunction;
pub use htab::{HashTable, HtabStats, InsertOutcome, ResizeOutcome, SearchOutcome};
pub use pte::Pte;
pub use segment::SegmentRegisters;
pub use tlb::{Tlb, TlbConfig, TlbStats};
pub use translate::{AccessType, Miss, Mmu, MmuConfig};
