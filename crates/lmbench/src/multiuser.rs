//! A multiuser mixed load — the paper's closing workload sketch: "a system
//! heavily loaded with users compiling, editing, reading mail so a lot of
//! I/O happens that must be waited for" (§9).
//!
//! Each simulated user runs a script of steps (compute bursts, file reads,
//! pipe chatter, I/O waits, process churn). A round-robin driver interleaves
//! the scripts in time slices; whenever every runnable user is waiting on
//! I/O, the idle task gets the CPU — which is exactly when the paper's
//! idle-task tricks earn their keep.

use kernel_sim::sched::USER_BASE;
use kernel_sim::{Kernel, KernelStats, Pid};
use ppc_machine::MonitorSnapshot;
use ppc_mmu::addr::PAGE_SIZE;

use crate::access::WorkingSet;

/// One step of a user's script.
#[derive(Debug, Clone, Copy)]
pub enum Step {
    /// A compute burst over the user's working set.
    Compute {
        /// Data references to issue.
        refs: u32,
    },
    /// Read `bytes` from the user's file (page cache).
    FileRead {
        /// Bytes to read.
        bytes: u32,
    },
    /// Block on I/O for `cycles` (disk seek, network, keystroke): the
    /// driver lets other users — or the idle task — run.
    IoWait {
        /// Stall length in cycles.
        cycles: u64,
    },
    /// Fork + exec a short-lived helper (grep, ls, cc1...) that touches
    /// `pages` and exits.
    SpawnHelper {
        /// Working-set pages of the helper.
        pages: u32,
    },
    /// mmap + touch + munmap a scratch region (an editor's buffer, a
    /// linker's mapping).
    MapScratch {
        /// Region size in pages.
        pages: u32,
    },
}

/// A user: a looping script plus their standing state.
#[derive(Debug, Clone)]
pub struct User {
    /// Display name.
    pub name: &'static str,
    /// Working-set pages.
    pub ws_pages: u32,
    /// The script, executed round-robin one step per turn.
    pub script: Vec<Step>,
}

/// The three users of the paper's sketch.
pub fn classic_mix() -> Vec<User> {
    vec![
        User {
            name: "compiler",
            ws_pages: 48,
            script: vec![
                Step::FileRead { bytes: 24 * 1024 },
                Step::Compute { refs: 6_000 },
                Step::IoWait { cycles: 40_000 },
                Step::Compute { refs: 6_000 },
                Step::SpawnHelper { pages: 24 },
                Step::IoWait { cycles: 40_000 },
            ],
        },
        User {
            name: "editor",
            ws_pages: 24,
            script: vec![
                Step::Compute { refs: 1_500 },
                Step::IoWait { cycles: 80_000 }, // thinking / keystrokes
                Step::MapScratch { pages: 32 },
                Step::FileRead { bytes: 8 * 1024 },
                Step::IoWait { cycles: 80_000 },
            ],
        },
        User {
            name: "mail",
            ws_pages: 16,
            script: vec![
                Step::IoWait { cycles: 100_000 }, // waiting on the spool
                Step::FileRead { bytes: 16 * 1024 },
                Step::Compute { refs: 1_000 },
                Step::SpawnHelper { pages: 12 },
            ],
        },
    ]
}

/// Results of a multiuser run.
#[derive(Debug, Clone, Copy)]
pub struct MultiuserResult {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Wall-clock milliseconds.
    pub wall_ms: f64,
    /// Fraction of time in the idle task.
    pub idle_frac: f64,
    /// Hardware counter deltas.
    pub monitor: MonitorSnapshot,
    /// Kernel counter deltas.
    pub kernel: KernelStats,
}

struct UserState {
    pid: Pid,
    ws: WorkingSet,
    file: usize,
    file_off: u32,
    step: usize,
    script: Vec<Step>,
    ws_pages: u32,
}

/// Runs `rounds` full script cycles of the user mix on `k`.
pub fn run_multiuser(k: &mut Kernel, users: &[User], rounds: u32) -> MultiuserResult {
    let mut states: Vec<UserState> = users
        .iter()
        .enumerate()
        .map(|(i, u)| {
            let pid = k.spawn_process(u.ws_pages + 8).expect("spawn user");
            k.switch_to(pid);
            k.prefault(USER_BASE, u.ws_pages).expect("benchmark workload is well-formed");
            let file = k.create_file(64 * 1024).expect("benchmark workload is well-formed");
            UserState {
                pid,
                ws: WorkingSet::new(USER_BASE, u.ws_pages, 42 + i as u64),
                file,
                file_off: 0,
                step: 0,
                script: u.script.clone(),
                ws_pages: u.ws_pages,
            }
        })
        .collect();
    let m0 = k.machine.snapshot();
    let k0 = k.stats;
    let c0 = k.machine.cycles;
    let idle0 = k.stats.idle_cycles;
    let total_steps: u64 =
        rounds as u64 * states.iter().map(|s| s.script.len() as u64).sum::<u64>();
    let mut done = 0u64;
    // Round-robin: one step per user per turn; IoWait donates to the idle
    // task (as the real system would when the run queue empties).
    while done < total_steps {
        for s in &mut states {
            if done >= total_steps {
                break;
            }
            let step = s.script[s.step % s.script.len()];
            s.step += 1;
            done += 1;
            k.switch_to(s.pid);
            match step {
                Step::Compute { refs } => {
                    s.ws.run(k, refs, 0.3, 1);
                }
                Step::FileRead { bytes } => {
                    let bytes = bytes.min(64 * 1024);
                    if s.file_off + bytes > 64 * 1024 {
                        s.file_off = 0;
                    }
                    k.sys_read(s.file, s.file_off, USER_BASE, bytes).expect("benchmark workload is well-formed");
                    s.file_off += bytes;
                }
                Step::IoWait { cycles } => {
                    // The user blocks; with every other user also between
                    // steps, the CPU falls to the idle task.
                    k.run_idle(cycles);
                }
                Step::SpawnHelper { pages } => {
                    if let Ok(child) = k.sys_fork() {
                        k.switch_to(child);
                        let addr = k.sys_mmap(None, pages * PAGE_SIZE);
                        k.prefault(addr, pages).expect("benchmark workload is well-formed");
                        k.exit_current();
                        k.switch_to(s.pid);
                    }
                }
                Step::MapScratch { pages } => {
                    let addr = k.sys_mmap(None, pages * PAGE_SIZE);
                    k.prefault(addr, pages.min(8)).expect("benchmark workload is well-formed");
                    k.sys_munmap(addr, pages * PAGE_SIZE);
                }
            }
            let _ = s.ws_pages;
        }
    }
    let cycles = k.machine.cycles - c0;
    MultiuserResult {
        cycles,
        wall_ms: k.machine.time_of(cycles).as_ms(),
        idle_frac: (k.stats.idle_cycles - idle0) as f64 / cycles as f64,
        monitor: k.machine.snapshot().delta(&m0),
        kernel: k.stats.diff(&k0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kernel_sim::KernelConfig;
    use ppc_machine::MachineConfig;

    #[test]
    fn mix_runs_and_idles() {
        let mut k = Kernel::boot(MachineConfig::ppc604_133(), KernelConfig::optimized());
        let r = run_multiuser(&mut k, &classic_mix(), 4);
        assert!(r.cycles > 500_000);
        assert!(r.idle_frac > 0.1, "the mix must leave real idle time");
        assert!(r.kernel.processes_spawned > 3, "helpers fork and exit");
        assert!(r.kernel.syscalls > 10);
        assert_eq!(r.kernel.segfaults, 0);
    }

    #[test]
    fn optimized_kernel_wins_the_multiuser_mix() {
        let run = |kcfg: KernelConfig| {
            let mut k = Kernel::boot(MachineConfig::ppc604_133(), kcfg);
            run_multiuser(&mut k, &classic_mix(), 4).wall_ms
        };
        let unopt = run(KernelConfig::unoptimized());
        let opt = run(KernelConfig::optimized());
        assert!(
            opt < unopt,
            "optimized mix ({opt:.1} ms) must beat unoptimized ({unopt:.1} ms)"
        );
    }

    #[test]
    fn deterministic() {
        let run = || {
            let mut k = Kernel::boot(MachineConfig::ppc604_133(), KernelConfig::optimized());
            run_multiuser(&mut k, &classic_mix(), 3).cycles
        };
        assert_eq!(run(), run());
    }
}
