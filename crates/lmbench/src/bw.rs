//! Bandwidth benchmarks: pipe bandwidth and file reread.

use kernel_sim::sched::USER_BASE;
use kernel_sim::Kernel;
use ppc_machine::time::mb_per_sec;
use ppc_mmu::addr::PAGE_SIZE;

/// Total bytes moved by the pipe-bandwidth benchmark.
pub const PIPE_BW_BYTES: u32 = 512 * 1024;

/// Measured: LmBench `bw_pipe` — bytes/second through a pipe between two
/// processes, in MB/s. The writer fills the one-page ring, the reader
/// drains it, alternating exactly as the blocking processes would.
pub fn pipe_bandwidth(k: &mut Kernel) -> f64 {
    let w = k.spawn_process(64).expect("spawn");
    let r = k.spawn_process(64).expect("spawn");
    let p = k.pipe_create().expect("benchmark workload is well-formed");
    // 64 KiB user buffers on both sides, pre-faulted.
    let buf_pages = 16;
    for &pid in &[w, r] {
        k.switch_to(pid);
        k.prefault(USER_BASE, buf_pages)
            .expect("benchmark workload is well-formed");
    }
    // Warm one buffer-sized transfer through.
    let buf_bytes = buf_pages * PAGE_SIZE;
    k.pipe_transfer(p, w, r, USER_BASE, USER_BASE, buf_bytes)
        .expect("benchmark workload is well-formed");
    let start = k.machine.cycles;
    let mut moved = 0u64;
    // lmbench moves the data in 64 KiB write()/read() pairs.
    for _ in 0..PIPE_BW_BYTES / buf_bytes {
        k.pipe_transfer(p, w, r, USER_BASE, USER_BASE, buf_bytes)
            .expect("benchmark workload is well-formed");
        moved += buf_bytes as u64;
    }
    let t = k.machine.time_of(k.machine.cycles - start);
    mb_per_sec(moved, t)
}

/// Total bytes of the file-reread benchmark's file. Much larger than the
/// board L2, so page-cache pages stream from DRAM — this is what puts file
/// reread below pipe bandwidth in the paper's tables.
pub const FILE_RR_BYTES: u32 = 4 * 1024 * 1024;

/// Measured: LmBench `bw_file_rd` (reread) — bytes/second reading a fully
/// cached file through `read()` in 64 KiB chunks, in MB/s.
pub fn file_reread(k: &mut Kernel) -> f64 {
    let pid = k.spawn_process(32).expect("spawn");
    k.switch_to(pid);
    let chunk: u32 = 64 * 1024;
    k.prefault(USER_BASE, chunk / PAGE_SIZE)
        .expect("benchmark workload is well-formed");
    let f = k
        .create_file(FILE_RR_BYTES)
        .expect("benchmark workload is well-formed");
    // Warm pass (the "re" in reread).
    let mut off = 0;
    while off < FILE_RR_BYTES {
        k.sys_read(f, off, USER_BASE, chunk)
            .expect("benchmark workload is well-formed");
        off += chunk;
    }
    let start = k.machine.cycles;
    let mut off = 0;
    while off < FILE_RR_BYTES {
        k.sys_read(f, off, USER_BASE, chunk)
            .expect("benchmark workload is well-formed");
        off += chunk;
    }
    let t = k.machine.time_of(k.machine.cycles - start);
    mb_per_sec(FILE_RR_BYTES as u64, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernel_sim::KernelConfig;
    use ppc_machine::MachineConfig;

    #[test]
    fn pipe_bandwidth_in_plausible_range() {
        let mut k = Kernel::boot(MachineConfig::ppc604_185(), KernelConfig::optimized());
        let bw = pipe_bandwidth(&mut k);
        assert!(bw > 5.0 && bw < 500.0, "pipe bw {bw} MB/s out of range");
    }

    #[test]
    fn file_reread_in_plausible_range() {
        let mut k = Kernel::boot(MachineConfig::ppc604_185(), KernelConfig::optimized());
        let bw = file_reread(&mut k);
        assert!(bw > 5.0 && bw < 500.0, "file reread {bw} MB/s out of range");
    }

    #[test]
    fn faster_machine_moves_more_bytes_per_second() {
        let mut slow = Kernel::boot(MachineConfig::ppc603_133(), KernelConfig::optimized());
        let mut fast = Kernel::boot(MachineConfig::ppc604_200(), KernelConfig::optimized());
        assert!(pipe_bandwidth(&mut fast) > pipe_bandwidth(&mut slow));
    }
}
