//! Latency benchmarks: null syscall, context switch, pipe latency, mmap
//! latency, process start.

use kernel_sim::sched::USER_BASE;
use kernel_sim::Kernel;
use ppc_mmu::addr::PAGE_SIZE;

use crate::access::WorkingSet;

/// Measured: one null syscall (`getpid()`), in microseconds.
pub fn null_syscall(k: &mut Kernel, iters: u32) -> f64 {
    let pid = k.spawn_process(4).expect("spawn");
    k.switch_to(pid);
    k.prefault(USER_BASE, 4)
        .expect("benchmark workload is well-formed");
    // Warm up the syscall path (I-cache, kernel TLB entries).
    for _ in 0..16 {
        k.sys_null();
    }
    let start = k.machine.cycles;
    for _ in 0..iters {
        k.sys_null();
    }
    k.time_us(k.machine.cycles - start) / iters as f64
}

/// Measured: one hop of LmBench's `lat_ctx` token ring — a context switch
/// plus the token pass — in microseconds. `nprocs` processes each touch
/// `ws_pages` pages of private data between passes (0 = pure switch).
pub fn ctx_switch(k: &mut Kernel, nprocs: u32, ws_pages: u32, rounds: u32) -> f64 {
    assert!(nprocs >= 2, "lat_ctx needs at least two processes");
    let pids: Vec<_> = (0..nprocs)
        .map(|_| k.spawn_process(ws_pages.max(1) + 4).expect("spawn"))
        .collect();
    let pipes: Vec<_> = (0..nprocs as usize)
        .map(|_| k.pipe_create().expect("benchmark workload is well-formed"))
        .collect();
    let mut sets: Vec<WorkingSet> = (0..nprocs)
        .map(|i| WorkingSet::new(USER_BASE, ws_pages.max(1), 100 + i as u64))
        .collect();
    // Fault everything in and warm one full ring round.
    for (i, &pid) in pids.iter().enumerate() {
        k.switch_to(pid);
        k.prefault(USER_BASE, ws_pages.max(1))
            .expect("benchmark workload is well-formed");
        let _ = i;
    }
    // Baseline: the same token-passing work in one process, no switching.
    // lmbench subtracts this overhead so `lat_ctx` reports the switch alone.
    let base_pipe = k.pipe_create().expect("benchmark workload is well-formed");
    k.switch_to(pids[0]);
    let mut base_ws = WorkingSet::new(USER_BASE, ws_pages.max(1), 99);
    let warm = 2;
    let mut baseline = 0u64;
    for round in 0..rounds + warm {
        let start = k.machine.cycles;
        for _ in 0..nprocs {
            k.pipe_write(base_pipe, USER_BASE, 1)
                .expect("benchmark workload is well-formed");
            if ws_pages > 0 {
                base_ws.run(k, ws_pages * 2, 0.0, 1);
            }
            k.pipe_read(base_pipe, USER_BASE, 1)
                .expect("benchmark workload is well-formed");
        }
        if round >= warm {
            baseline += k.machine.cycles - start;
        }
    }
    // Prime the token.
    k.switch_to(pids[0]);
    k.pipe_write(pipes[0], USER_BASE, 1)
        .expect("benchmark workload is well-formed");
    let mut measured = 0u64;
    let mut hops = 0u64;
    for round in 0..rounds + warm {
        let start = k.machine.cycles;
        for i in 0..nprocs as usize {
            k.switch_to(pids[i]);
            k.pipe_read(pipes[i], USER_BASE, 1)
                .expect("benchmark workload is well-formed");
            if ws_pages > 0 {
                // Touch the private working set (2 refs per page, as
                // lmbench's summing loop does).
                sets[i].run(k, ws_pages * 2, 0.0, 1);
            }
            k.pipe_write(pipes[(i + 1) % nprocs as usize], USER_BASE, 1)
                .expect("benchmark workload is well-formed");
        }
        if round >= warm {
            measured += k.machine.cycles - start;
            hops += nprocs as u64;
        }
    }
    let per_hop = measured.saturating_sub(baseline).max(hops) / hops;
    k.time_us(per_hop * hops) / hops as f64
}

/// Measured: LmBench `lat_pipe` — half a byte-sized round trip between two
/// processes, in microseconds.
pub fn pipe_latency(k: &mut Kernel, rounds: u32) -> f64 {
    let a = k.spawn_process(4).expect("spawn");
    let b = k.spawn_process(4).expect("spawn");
    let p_ab = k.pipe_create().expect("benchmark workload is well-formed");
    let p_ba = k.pipe_create().expect("benchmark workload is well-formed");
    for &pid in &[a, b] {
        k.switch_to(pid);
        k.prefault(USER_BASE, 4)
            .expect("benchmark workload is well-formed");
    }
    let warm = 4;
    let mut measured = 0u64;
    for round in 0..rounds + warm {
        let start = k.machine.cycles;
        k.switch_to(a);
        k.pipe_write(p_ab, USER_BASE, 1)
            .expect("benchmark workload is well-formed");
        k.switch_to(b);
        k.pipe_read(p_ab, USER_BASE, 1)
            .expect("benchmark workload is well-formed");
        k.pipe_write(p_ba, USER_BASE, 1)
            .expect("benchmark workload is well-formed");
        k.switch_to(a);
        k.pipe_read(p_ba, USER_BASE, 1)
            .expect("benchmark workload is well-formed");
        if round >= warm {
            measured += k.machine.cycles - start;
        }
    }
    // Half the round trip, as lmbench reports.
    k.time_us(measured) / rounds as f64 / 2.0
}

/// Size of the region `lat_mmap` maps and unmaps (16 MiB, the upper end of
/// LmBench's sweep — large enough that the §7 range-flush policy dominates).
pub const MMAP_BYTES: u32 = 16 * 1024 * 1024;

/// Measured: LmBench `lat_mmap` — one mmap+munmap of an [`MMAP_BYTES`]
/// file-backed region, in microseconds.
pub fn mmap_latency(k: &mut Kernel, iters: u32) -> f64 {
    mmap_latency_sized(k, iters, MMAP_BYTES)
}

/// [`mmap_latency`] at an explicit mapping size (for the §7 cutoff sweep).
pub fn mmap_latency_sized(k: &mut Kernel, iters: u32, bytes: u32) -> f64 {
    let pid = k.spawn_process(4).expect("spawn");
    k.switch_to(pid);
    k.prefault(USER_BASE, 4)
        .expect("benchmark workload is well-formed");
    let file = k
        .create_file(bytes)
        .expect("benchmark workload is well-formed");
    // Warm-up iteration.
    let addr = k.sys_mmap(Some(file), bytes);
    k.sys_munmap(addr, bytes);
    let start = k.machine.cycles;
    for _ in 0..iters {
        let addr = k.sys_mmap(Some(file), bytes);
        k.sys_munmap(addr, bytes);
    }
    k.time_us(k.machine.cycles - start) / iters as f64
}

/// Pages of "binary" a started process reads in (`lat_proc`-style exec).
pub const PSTART_TEXT_PAGES: u32 = 48;

/// Measured: process start — fork+exec-lite: create a process, load its
/// text from the page cache, touch its initial working set, exit — in
/// milliseconds.
pub fn process_start(k: &mut Kernel, iters: u32) -> f64 {
    let binary = k
        .create_file(PSTART_TEXT_PAGES * PAGE_SIZE)
        .expect("benchmark workload is well-formed");
    let start = k.machine.cycles;
    for _ in 0..iters {
        let pid = k.spawn_process(PSTART_TEXT_PAGES + 8).expect("spawn");
        k.switch_to(pid);
        // exec: read the binary.
        k.sys_read(binary, 0, USER_BASE, PSTART_TEXT_PAGES * PAGE_SIZE)
            .expect("benchmark workload is well-formed");
        // Dynamic linking: remap the address space (the §7 "when a
        // dynamically linked Linux process is started, the process must
        // remap its address space to incorporate shared libraries").
        let lib = k.sys_mmap(Some(binary), 24 * PAGE_SIZE);
        k.prefault(lib, 8)
            .expect("benchmark workload is well-formed");
        k.sys_munmap(lib, 24 * PAGE_SIZE);
        // First instructions and stack.
        k.prefault(USER_BASE, 8)
            .expect("benchmark workload is well-formed");
        k.exit_current();
    }
    k.time_us(k.machine.cycles - start) / iters as f64 / 1000.0
}

/// Measured: `lat_proc fork` — fork + child exit, in microseconds.
pub fn fork_latency(k: &mut Kernel, iters: u32) -> f64 {
    let pid = k.spawn_process(32).expect("spawn");
    k.switch_to(pid);
    k.prefault(USER_BASE, 32)
        .expect("benchmark workload is well-formed");
    let parent = pid;
    // Warm one cycle.
    let child = k.sys_fork().expect("fork");
    k.switch_to(child);
    k.exit_current();
    k.switch_to(parent);
    let start = k.machine.cycles;
    for _ in 0..iters {
        let child = k.sys_fork().expect("fork");
        k.switch_to(child);
        k.exit_current();
        k.switch_to(parent);
    }
    k.time_us(k.machine.cycles - start) / iters as f64
}

/// Measured: `lat_proc exec` — fork + exec + first touches + exit, in
/// microseconds.
pub fn exec_latency(k: &mut Kernel, iters: u32) -> f64 {
    let pid = k.spawn_process(16).expect("spawn");
    k.switch_to(pid);
    k.prefault(USER_BASE, 16)
        .expect("benchmark workload is well-formed");
    let parent = pid;
    let binary = k
        .create_file(24 * PAGE_SIZE)
        .expect("benchmark workload is well-formed");
    let once = |k: &mut Kernel| {
        let child = k.sys_fork().expect("fork");
        k.switch_to(child);
        k.sys_exec(binary, 24, 8)
            .expect("benchmark workload is well-formed");
        // First instructions, data, and stack of the new image.
        k.prefault(USER_BASE, 8)
            .expect("benchmark workload is well-formed");
        k.user_write(USER_BASE + 24 * PAGE_SIZE, PAGE_SIZE)
            .expect("benchmark workload is well-formed");
        k.exit_current();
        k.switch_to(parent);
    };
    once(k);
    let start = k.machine.cycles;
    for _ in 0..iters {
        once(k);
    }
    k.time_us(k.machine.cycles - start) / iters as f64
}

/// Measured: `lat_sig catch` — one signal delivery round trip, in
/// microseconds.
pub fn sig_catch(k: &mut Kernel, iters: u32) -> f64 {
    let pid = k.spawn_process(8).expect("spawn");
    k.switch_to(pid);
    k.prefault(USER_BASE, 4)
        .expect("benchmark workload is well-formed");
    k.sys_signal_install();
    k.signal_roundtrip(USER_BASE)
        .expect("benchmark workload is well-formed");
    let start = k.machine.cycles;
    for _ in 0..iters {
        k.signal_roundtrip(USER_BASE)
            .expect("benchmark workload is well-formed");
    }
    k.time_us(k.machine.cycles - start) / iters as f64
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
    fn fork_cheaper_than_exec() {
        let f = fork_latency(&mut kernel(), 5);
        let e = exec_latency(&mut kernel(), 5);
        assert!(f > 10.0, "fork {f:.0} µs should be substantial");
        assert!(
            e > f,
            "fork+exec ({e:.0} µs) must exceed fork alone ({f:.0} µs)"
        );
    }

    #[test]
    fn sig_catch_in_range() {
        let s = sig_catch(&mut kernel(), 20);
        assert!(s > 1.0 && s < 200.0, "lat_sig {s:.1} µs out of range");
    }

    #[test]
    fn optimized_fork_beats_unoptimized() {
        let mut opt = Kernel::boot(MachineConfig::ppc604_133(), KernelConfig::optimized());
        let mut unopt = Kernel::boot(MachineConfig::ppc604_133(), KernelConfig::unoptimized());
        assert!(fork_latency(&mut opt, 5) < fork_latency(&mut unopt, 5));
    }

    #[test]
    fn null_syscall_is_microseconds() {
        let us = null_syscall(&mut kernel(), 50);
        assert!(us > 0.1 && us < 50.0, "null syscall {us} µs out of range");
    }

    #[test]
    fn ctx_switch_grows_with_working_set() {
        let small = ctx_switch(&mut kernel(), 2, 0, 20);
        let large = ctx_switch(&mut kernel(), 2, 32, 20);
        assert!(
            large > small,
            "ws=32p ({large} µs) must cost more than ws=0 ({small} µs)"
        );
    }

    #[test]
    fn pipe_latency_exceeds_half_ctx_switch() {
        let mut k = kernel();
        let lat = pipe_latency(&mut k, 20);
        assert!(
            lat > 0.5 && lat < 500.0,
            "pipe latency {lat} µs out of range"
        );
    }

    #[test]
    fn mmap_latency_positive() {
        let us = mmap_latency(&mut kernel(), 3);
        assert!(us > 1.0 && us < 100_000.0);
    }

    #[test]
    fn process_start_is_milliseconds() {
        let ms = process_start(&mut kernel(), 3);
        assert!(ms > 0.05 && ms < 100.0, "pstart {ms} ms out of range");
    }
}
