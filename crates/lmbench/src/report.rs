//! Suite runner: all LmBench rows for one (machine, kernel) pair.

use kernel_sim::{Kernel, KernelConfig};
use ppc_machine::MachineConfig;

use crate::{bw, lat};

/// Iteration counts for a suite run.
#[derive(Debug, Clone, Copy)]
pub struct SuiteConfig {
    /// Null-syscall iterations.
    pub syscall_iters: u32,
    /// Context-switch rounds.
    pub ctx_rounds: u32,
    /// Pipe-latency rounds.
    pub pipe_rounds: u32,
    /// mmap iterations.
    pub mmap_iters: u32,
    /// Process-start iterations.
    pub pstart_iters: u32,
}

impl SuiteConfig {
    /// Quick settings for tests.
    pub fn quick() -> Self {
        Self {
            syscall_iters: 50,
            ctx_rounds: 10,
            pipe_rounds: 10,
            mmap_iters: 3,
            pstart_iters: 3,
        }
    }

    /// Full settings for the table harness.
    pub fn full() -> Self {
        Self {
            syscall_iters: 400,
            ctx_rounds: 60,
            pipe_rounds: 60,
            mmap_iters: 10,
            pstart_iters: 10,
        }
    }
}

/// One row of LmBench numbers.
#[derive(Debug, Clone, Copy)]
pub struct LmbenchResults {
    /// Null syscall, µs.
    pub null_syscall_us: f64,
    /// 2-process, 0 KiB context switch, µs.
    pub ctxsw2_us: f64,
    /// 8-process context switch (the §7 "8-process context switch"), µs.
    pub ctxsw8_us: f64,
    /// Pipe latency, µs.
    pub pipe_lat_us: f64,
    /// Pipe bandwidth, MB/s.
    pub pipe_bw_mbs: f64,
    /// File reread bandwidth, MB/s.
    pub file_reread_mbs: f64,
    /// mmap+munmap latency, µs.
    pub mmap_lat_us: f64,
    /// Process start, ms.
    pub pstart_ms: f64,
}

/// Runs the full suite, booting a fresh kernel per benchmark via `boot`.
pub fn run_suite_with(boot: impl Fn() -> Kernel, cfg: SuiteConfig) -> LmbenchResults {
    LmbenchResults {
        null_syscall_us: lat::null_syscall(&mut boot(), cfg.syscall_iters),
        ctxsw2_us: lat::ctx_switch(&mut boot(), 2, 0, cfg.ctx_rounds),
        ctxsw8_us: lat::ctx_switch(&mut boot(), 8, 4, cfg.ctx_rounds / 2 + 1),
        pipe_lat_us: lat::pipe_latency(&mut boot(), cfg.pipe_rounds),
        pipe_bw_mbs: bw::pipe_bandwidth(&mut boot()),
        file_reread_mbs: bw::file_reread(&mut boot()),
        mmap_lat_us: lat::mmap_latency(&mut boot(), cfg.mmap_iters),
        pstart_ms: lat::process_start(&mut boot(), cfg.pstart_iters),
    }
}

/// Runs the suite for a machine + kernel-config pair.
pub fn run_suite(machine: MachineConfig, kcfg: KernelConfig, cfg: SuiteConfig) -> LmbenchResults {
    run_suite_with(|| Kernel::boot(machine, kcfg), cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_suite_completes_with_sane_values() {
        let r = run_suite(
            MachineConfig::ppc604_185(),
            KernelConfig::optimized(),
            SuiteConfig::quick(),
        );
        assert!(r.null_syscall_us > 0.0);
        assert!(r.ctxsw2_us > 0.0);
        assert!(r.ctxsw8_us > r.ctxsw2_us * 0.5);
        assert!(
            r.pipe_lat_us > r.null_syscall_us,
            "pipe latency includes switches"
        );
        assert!(r.pipe_bw_mbs > 0.0);
        assert!(r.file_reread_mbs > 0.0);
        assert!(r.mmap_lat_us > 0.0);
        assert!(r.pstart_ms > 0.0);
    }

    #[test]
    fn optimized_beats_unoptimized_across_the_board() {
        let opt = run_suite(
            MachineConfig::ppc604_133(),
            KernelConfig::optimized(),
            SuiteConfig::quick(),
        );
        let unopt = run_suite(
            MachineConfig::ppc604_133(),
            KernelConfig::unoptimized(),
            SuiteConfig::quick(),
        );
        assert!(opt.null_syscall_us < unopt.null_syscall_us);
        assert!(opt.ctxsw2_us < unopt.ctxsw2_us);
        assert!(opt.pipe_lat_us < unopt.pipe_lat_us);
        assert!(opt.pipe_bw_mbs > unopt.pipe_bw_mbs);
        assert!(opt.mmap_lat_us < unopt.mmap_lat_us);
    }
}
