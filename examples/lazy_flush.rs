//! Lazy VSID flushing and the tunable range-flush cutoff (paper §7).
//!
//! Compares munmap cost under three policies — eager per-page hash-table
//! searches, lazy context bumps, and the 20-page cutoff between them — and
//! shows the mmap-latency cliff the cutoff creates.
//!
//! ```text
//! cargo run --release --example lazy_flush
//! ```

use kernel_sim::{Kernel, KernelConfig};
use lmbench::lat;
use ppc_machine::MachineConfig;
use ppc_mmu::addr::PAGE_SIZE;

fn munmap_cost(kcfg: KernelConfig, pages: u32) -> f64 {
    let mut k = Kernel::boot(MachineConfig::ppc603_133(), kcfg);
    let pid = k.spawn_process(8).unwrap();
    k.switch_to(pid);
    let addr = k.sys_mmap(None, pages * PAGE_SIZE);
    k.prefault(addr, pages)
        .expect("mapped region fits in memory");
    let start = k.machine.cycles;
    k.sys_munmap(addr, pages * PAGE_SIZE);
    k.time_us(k.machine.cycles - start)
}

fn main() {
    let eager = KernelConfig {
        htab_on_603: true,
        lazy_flush: false,
        flush_cutoff_pages: None,
        ..KernelConfig::optimized()
    };
    let lazy = KernelConfig {
        htab_on_603: true,
        ..KernelConfig::optimized()
    };

    println!("munmap cost by policy (603 133MHz, populated mappings)\n");
    println!("pages   eager (per-page search)   lazy (cutoff 20)");
    for pages in [4u32, 16, 20, 24, 64, 256] {
        println!(
            "{:>5}   {:>20.1}us   {:>14.1}us",
            pages,
            munmap_cost(eager, pages),
            munmap_cost(lazy, pages),
        );
    }
    println!("\nBelow the 20-page cutoff both kernels search per page; above it");
    println!("the lazy kernel retires the whole context for a constant price.");

    // The lat_mmap headline: paper 3240us -> 41us (80x) on this machine.
    let mut k = Kernel::boot(MachineConfig::ppc603_133(), eager);
    let e = lat::mmap_latency(&mut k, 3);
    let mut k = Kernel::boot(MachineConfig::ppc603_133(), lazy);
    let l = lat::mmap_latency(&mut k, 3);
    println!("\nlat_mmap (16 MiB file mapping):");
    println!("  eager  {e:>8.0} us     (paper: 3240 us)");
    println!("  lazy   {l:>8.0} us     (paper:   41 us)");
    println!("  ratio  {:>8.0} x      (paper:   80 x)", e / l);
}
