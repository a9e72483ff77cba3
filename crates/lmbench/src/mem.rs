//! LmBench's memory-hierarchy microbenchmarks: `lat_mem_rd` and `bw_mem`.
//!
//! These don't appear in the paper's tables, but they were part of the
//! LmBench toolchain the authors ran, and here they double as a validation
//! of the simulated memory hierarchy: the latency sweep must show the
//! L1 → L2 → DRAM staircase at the configured cache sizes.

use kernel_sim::sched::USER_BASE;
use kernel_sim::Kernel;
use ppc_machine::time::mb_per_sec;
use ppc_mmu::addr::{EffectiveAddress, PAGE_SIZE};

/// A `bw_mem` operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOp {
    /// Streaming reads (`bw_mem rd`).
    Read,
    /// Streaming writes (`bw_mem wr`).
    Write,
    /// Copy (`bw_mem cp`): read one region, write another.
    Copy,
}

fn setup(k: &mut Kernel, pages: u32) -> u32 {
    let pid = k.spawn_process(pages + 4).expect("spawn");
    k.switch_to(pid);
    k.prefault(USER_BASE, pages)
        .expect("benchmark workload is well-formed");
    USER_BASE
}

/// `lat_mem_rd`: average load latency in nanoseconds over a `kb`-KiB region
/// touched at cache-line stride (32 B), measured warm. Sweeping `kb` draws
/// the cache-hierarchy staircase.
pub fn read_latency_ns(k: &mut Kernel, kb: u32) -> f64 {
    let bytes = kb * 1024;
    let pages = bytes.div_ceil(PAGE_SIZE).max(1);
    let base = setup(k, pages);
    let line = 32;
    let pass = |k: &mut Kernel| {
        let mut off = 0;
        while off < bytes {
            k.data_ref(EffectiveAddress(base + off), false)
                .expect("benchmark workload is well-formed");
            off += line;
        }
    };
    // Warm pass (faults + cache fill where it fits).
    pass(k);
    let accesses = (bytes / line) as u64;
    let c0 = k.machine.cycles;
    pass(k);
    pass(k);
    let cycles = (k.machine.cycles - c0) as f64 / 2.0;
    // data_ref charges one pipeline cycle per reference; lat_mem_rd's
    // pointer chase exposes the raw load-to-use latency, so keep it in.
    cycles / accesses as f64 / k.machine.cfg.clock_mhz as f64 * 1000.0
}

/// `bw_mem`: streaming bandwidth in MB/s for `op` over a `kb`-KiB region.
pub fn bandwidth_mbs(k: &mut Kernel, op: MemOp, kb: u32) -> f64 {
    let bytes = kb * 1024;
    let pages = bytes.div_ceil(PAGE_SIZE).max(1);
    // Copy needs a second region.
    let total_pages = if op == MemOp::Copy { pages * 2 } else { pages };
    let base = setup(k, total_pages);
    let dst = base + pages * PAGE_SIZE;
    let line = 32;
    let pass = |k: &mut Kernel| {
        let mut off = 0;
        while off < bytes {
            match op {
                MemOp::Read => {
                    k.data_ref(EffectiveAddress(base + off), false)
                        .expect("benchmark workload is well-formed");
                }
                MemOp::Write => {
                    k.data_ref(EffectiveAddress(base + off), true)
                        .expect("benchmark workload is well-formed");
                }
                MemOp::Copy => {
                    k.data_ref(EffectiveAddress(base + off), false)
                        .expect("benchmark workload is well-formed");
                    k.data_ref(EffectiveAddress(dst + off), true)
                        .expect("benchmark workload is well-formed");
                }
            }
            // The unrolled word loop for the rest of the line.
            k.machine.charge(8);
            off += line;
        }
    };
    pass(k);
    let c0 = k.machine.cycles;
    pass(k);
    pass(k);
    let t = k.machine.time_of((k.machine.cycles - c0) / 2);
    mb_per_sec(bytes as u64, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernel_sim::KernelConfig;
    use ppc_machine::MachineConfig;

    fn kernel() -> Kernel {
        Kernel::boot(MachineConfig::ppc604_185(), KernelConfig::optimized())
    }

    #[test]
    fn latency_staircase_l1_l2_dram() {
        // 604: 16 KiB L1, 512 KiB L2. 8 KiB sits in L1, 128 KiB in L2,
        // 4 MiB in DRAM.
        let l1 = read_latency_ns(&mut kernel(), 8);
        let l2 = read_latency_ns(&mut kernel(), 128);
        let dram = read_latency_ns(&mut kernel(), 4096);
        assert!(l1 < l2, "L1 ({l1:.0}ns) must beat L2 ({l2:.0}ns)");
        assert!(l2 < dram, "L2 ({l2:.0}ns) must beat DRAM ({dram:.0}ns)");
        assert!(dram / l1 > 5.0, "hierarchy spread must be pronounced");
    }

    #[test]
    fn no_l2_machine_has_two_plateaus() {
        let mk = || Kernel::boot(MachineConfig::ppc603_133_no_l2(), KernelConfig::optimized());
        let l1 = read_latency_ns(&mut mk(), 4);
        let mid = read_latency_ns(&mut mk(), 128);
        let dram = read_latency_ns(&mut mk(), 2048);
        assert!(l1 < mid);
        // Without an L2, 128 KiB already pays full DRAM latency.
        assert!(
            (mid - dram).abs() / dram < 0.15,
            "no mid plateau without L2: {mid:.0} vs {dram:.0}"
        );
    }

    #[test]
    fn bandwidth_read_beats_copy() {
        let rd = bandwidth_mbs(&mut kernel(), MemOp::Read, 1024);
        let cp = bandwidth_mbs(&mut kernel(), MemOp::Copy, 1024);
        assert!(rd > cp, "read bw ({rd:.0}) must beat copy bw ({cp:.0})");
    }

    #[test]
    fn small_regions_are_faster_than_big() {
        let small = bandwidth_mbs(&mut kernel(), MemOp::Read, 8);
        let big = bandwidth_mbs(&mut kernel(), MemOp::Read, 4096);
        assert!(small > 2.0 * big);
    }
}
