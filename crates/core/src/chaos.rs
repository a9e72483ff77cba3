//! The adversarial kernel driver behind `repro chaos`.
//!
//! A seeded fuzzer generates random syscall-shaped programs — mmap/munmap,
//! fork, exec, brk, pipes, signals, wild accesses that SIGSEGV on purpose —
//! and runs them on a fully-checked kernel ([`kernel_sim::CheckConfig`])
//! under full-spectrum fault injection ([`FaultInjection::chaotic`]),
//! including the mutation-site families inside hash-table rehash, mmtune
//! retune, and fatal-signal unwind. The properties asserted per run:
//!
//! * **never panic** — every generated program either completes or kills
//!   tasks through the fatal-signal machinery; any Rust panic is a bug (or
//!   a checker violation, which is the point);
//! * **never leak** — after the final task teardown, the general frame pool
//!   and the page-table pool hold exactly what they held at boot (page-cache
//!   residency accounted);
//! * **oracle- and invariant-clean** — the shadow MM model and the ported
//!   SchedInv/MMInv invariants stay green throughout;
//! * **deterministic** — the same seed produces a bit-identical
//!   [`ChaosOutcome`], cycles and counters included.
//!
//! On a violation, [`chaos_report`] converts the unwind into a
//! [`ChaosFailure`] carrying the seed, the exact step index, and the kernel
//! config summary — a one-command repro
//! (`repro chaos --seed N --steps K --verbose-from K`).

use std::panic::{catch_unwind, AssertUnwindSafe};

use kernel_sim::fixed_hash::DetHashMap;

use crate::artifact::Json;

use kernel_sim::task::TaskState;
use kernel_sim::{CheckConfig, FaultInjection, Kernel, KernelConfig, KernelError, KernelStats};
use ppc_machine::MachineConfig;

/// User base address mirrored from the kernel's process layout.
const USER_BASE: u32 = 0x1000_0000;
/// Stack top region mirrored from the kernel's process layout.
const STACK_BASE: u32 = 0x7ff0_0000;
const PAGE: u32 = 4096;

/// One chaos run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Fuzzer + injector seed.
    pub seed: u64,
    /// Number of fuzzed operations.
    pub steps: u32,
    /// Run with the full checker on ([`CheckConfig::full`]).
    pub check: bool,
    /// Arm the full-spectrum fault injector.
    pub inject: bool,
    /// Print every op from this step on (repro aid).
    pub verbose_from: Option<u32>,
}

impl ChaosConfig {
    /// The standard checked run for `seed`.
    pub fn checked(seed: u64, steps: u32) -> Self {
        Self {
            seed,
            steps,
            check: true,
            inject: true,
            verbose_from: None,
        }
    }

    /// The same program with the checker off (cycle-identity baseline).
    pub fn unchecked(seed: u64, steps: u32) -> Self {
        Self {
            check: false,
            ..Self::checked(seed, steps)
        }
    }
}

/// What a completed chaos run measured. `PartialEq` is the determinism
/// gate: two same-seed runs must compare equal, field for field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosOutcome {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Full kernel counter set.
    pub stats: KernelStats,
    /// Steps actually executed.
    pub steps: u32,
    /// Tasks killed by fatal signals along the way.
    pub fatals: u32,
    /// Oracle cross-checks performed (0 when the checker was off).
    pub checked_observations: u64,
    /// Cheap invariant evaluations (0 when the checker was off).
    pub invariant_passes: u64,
    /// Heavy sweeps (0 when the checker was off).
    pub heavy_sweeps: u64,
}

/// A violation caught during a chaos run: everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct ChaosFailure {
    /// The seed that found it.
    pub seed: u64,
    /// The step the panic surfaced at (minimal failing prefix: re-running
    /// with `steps = step` reproduces it).
    pub step: u32,
    /// The panic payload.
    pub message: String,
    /// The kernel configuration summary in force.
    pub config: String,
}

impl std::fmt::Display for ChaosFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "chaos violation: seed={} step={}\n  {}\n  config: {}\n  \
             repro: repro chaos --seed {} --steps {} --verbose-from {}",
            self.seed,
            self.step,
            self.message,
            self.config,
            self.seed,
            self.step + 1,
            self.step.saturating_sub(4),
        )
    }
}

/// xorshift64* over a SplitMix64-scrambled seed — the same generator family
/// as the kernel's fault injector, deliberately seeded differently so the
/// op stream and the injection stream are independent.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        let mut z = seed.wrapping_add(0x2545_f491_4f6c_dd1d);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Self((z ^ (z >> 31)) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..n` (n > 0).
    fn below(&mut self, n: u32) -> u32 {
        (self.next() % u64::from(n)) as u32
    }
}

/// Per-task fuzzer knowledge: where this task can legally write, and which
/// mmap regions it still holds.
#[derive(Debug, Clone)]
struct TaskShape {
    /// Writable heap/working-set base.
    wbase: u32,
    /// Writable pages at `wbase`.
    wpages: u32,
    /// Live `sys_mmap` regions `(start, len)`.
    mmaps: Vec<(u32, u32)>,
}

impl TaskShape {
    fn spawned(ws_pages: u32) -> Self {
        Self {
            wbase: USER_BASE,
            wpages: ws_pages,
            mmaps: Vec::new(),
        }
    }
}

struct Driver {
    rng: Rng,
    shapes: DetHashMap<u32, TaskShape>,
    bin: usize,
    pipe: Option<usize>,
    fatals: u32,
}

impl Driver {
    /// Live PIDs, from the kernel's own task table (tasks can die behind
    /// the fuzzer's back — OOM kills, injected unwinds).
    fn alive(&self, k: &Kernel) -> Vec<u32> {
        k.tasks
            .iter()
            .filter(|t| t.state != TaskState::Dead)
            .map(|t| t.pid)
            .collect()
    }

    /// Drops shapes for tasks that died behind the fuzzer's back.
    fn prune(&mut self, k: &Kernel) {
        let alive = self.alive(k);
        self.shapes.retain(|pid, _| alive.contains(pid));
    }

    /// Guarantees a current task, spawning one when the population died out.
    fn ensure_current(&mut self, k: &mut Kernel) {
        if k.current.is_some() {
            return;
        }
        if let Some(&pid) = self.alive(k).first() {
            k.switch_to(pid);
            return;
        }
        let ws = 4 + self.rng.below(12);
        let pid = k.spawn_process(ws).expect("respawn after extinction");
        self.shapes.insert(pid, TaskShape::spawned(ws));
        k.switch_to(pid);
    }

    /// Notes a syscall result: fatal signals kill the task (expected —
    /// count it and move on), resource errors are tolerated adversity.
    fn note(&mut self, r: Result<(), KernelError>) {
        if let Err(KernelError::Fatal { .. }) = r {
            self.fatals += 1;
        }
    }

    fn cur_pid(&self, k: &Kernel) -> u32 {
        k.cur().pid
    }

    /// A writable (address, max_len) window for the current task, stack as
    /// the fallback when the heap shape is unknown.
    fn writable(&mut self, k: &Kernel) -> (u32, u32) {
        let pid = self.cur_pid(k);
        match self.shapes.get(&pid) {
            Some(s) if s.wpages > 0 => (s.wbase, s.wpages * PAGE),
            _ => (STACK_BASE, 8 * PAGE),
        }
    }

    fn step(&mut self, k: &mut Kernel, i: u32, verbose: bool) {
        self.prune(k);
        self.ensure_current(k);
        let op = self.rng.below(100);
        macro_rules! trace_op {
            ($($arg:tt)*) => {
                if verbose {
                    eprintln!("  step {i}: {}", format!($($arg)*));
                }
            };
        }
        match op {
            // Population control.
            0..=7 => {
                if self.alive(k).len() < 8 {
                    let ws = 4 + self.rng.below(12);
                    trace_op!("spawn ws={ws}");
                    if let Ok(pid) = k.spawn_process(ws) {
                        self.shapes.insert(pid, TaskShape::spawned(ws));
                    }
                }
            }
            8..=17 => {
                let alive = self.alive(k);
                let pid = alive[self.rng.below(alive.len() as u32) as usize];
                trace_op!("switch_to {pid}");
                k.switch_to(pid);
            }
            18..=21 => {
                trace_op!("yield");
                k.yield_next();
            }
            // Plain memory traffic over the writable window.
            22..=39 => {
                let (base, len) = self.writable(k);
                let off = self.rng.below(len / PAGE) * PAGE;
                let n = (PAGE * (1 + self.rng.below(4))).min(len - off);
                let write = self.rng.below(2) == 0;
                trace_op!(
                    "user_{} {:#x}+{n:#x}",
                    if write { "write" } else { "read" },
                    base + off
                );
                let r = if write {
                    k.user_write(base + off, n).map(|_| ())
                } else {
                    k.user_read(base + off, n).map(|_| ())
                };
                self.note(r);
            }
            // Address-space surgery.
            40..=46 => {
                trace_op!("fork");
                let parent = self.cur_pid(k);
                if let Ok(child) = k.sys_fork() {
                    let shape = self
                        .shapes
                        .get(&parent)
                        .cloned()
                        .unwrap_or_else(|| TaskShape::spawned(0));
                    self.shapes.insert(child, shape);
                }
            }
            47..=52 => {
                let text = 2 + self.rng.below(4);
                let heap = 2 + self.rng.below(6);
                trace_op!("exec text={text} heap={heap}");
                let pid = self.cur_pid(k);
                if k.sys_exec(self.bin, text, heap).is_ok() {
                    self.shapes.insert(
                        pid,
                        TaskShape {
                            wbase: USER_BASE + text * PAGE,
                            wpages: heap,
                            mmaps: Vec::new(),
                        },
                    );
                }
            }
            53..=57 => {
                let pages = 1 + self.rng.below(32);
                trace_op!("brk {pages}");
                let pid = self.cur_pid(k);
                if k.sys_brk(pages).is_ok() {
                    if let Some(s) = self.shapes.get_mut(&pid) {
                        s.wpages = pages;
                    }
                }
            }
            58..=64 => {
                let pages = 1 + self.rng.below(16);
                trace_op!("mmap {pages} pages");
                let pid = self.cur_pid(k);
                let addr = k.sys_mmap(None, pages * PAGE);
                if let Some(s) = self.shapes.get_mut(&pid) {
                    s.mmaps.push((addr, pages * PAGE));
                }
            }
            65..=70 => {
                let pid = self.cur_pid(k);
                let region = self
                    .shapes
                    .get_mut(&pid)
                    .filter(|s| !s.mmaps.is_empty())
                    .map(|s| s.mmaps.swap_remove(0));
                if let Some((start, len)) = region {
                    trace_op!("munmap {start:#x}+{len:#x}");
                    k.sys_munmap(start, len);
                }
            }
            // Pipes: write-then-read the same count never blocks.
            71..=76 => {
                let pipe = match self.pipe {
                    Some(p) => p,
                    None => match k.pipe_create() {
                        Ok(p) => {
                            self.pipe = Some(p);
                            p
                        }
                        Err(_) => return,
                    },
                };
                let (base, _) = self.writable(k);
                let n = 64 + self.rng.below(PAGE - 64);
                trace_op!("pipe roundtrip {n} bytes");
                let r = k
                    .pipe_write(pipe, base, n)
                    .and_then(|_| k.pipe_read(pipe, base, n));
                self.note(r);
            }
            // Signals: a full install + deliver + sigreturn roundtrip.
            77..=81 => {
                let (base, _) = self.writable(k);
                trace_op!("signal roundtrip handler={base:#x}");
                let r = k.signal_roundtrip(base);
                self.note(r);
            }
            // File reads through the page cache into user memory.
            82..=86 => {
                let (base, len) = self.writable(k);
                let n = PAGE.min(len);
                let off = self.rng.below(4) * PAGE;
                trace_op!("sys_read off={off:#x} len={n:#x}");
                let r = k.sys_read(self.bin, off, base, n).map(|_| ());
                self.note(r);
            }
            87..=90 => {
                trace_op!("sys_null");
                k.sys_null();
            }
            // Wild accesses: most SIGSEGV and kill the task — on purpose.
            91..=95 => {
                let ea = 0x0800_0000 + self.rng.below(0x7000_0000 / PAGE) * PAGE;
                trace_op!("wild read {ea:#x}");
                let r = k.user_read(ea, PAGE).map(|_| ());
                self.note(r);
            }
            // Exits (the respawn in `ensure_current` keeps the run going).
            _ => {
                if self.alive(k).len() > 1 || self.rng.below(4) == 0 {
                    trace_op!("exit");
                    k.exit_current();
                }
            }
        }
    }
}

/// The kernel configuration a chaos run boots: the extended kernel (mmtune
/// on, so retune/rehash injection sites are live) plus the checker and the
/// chaotic injector as requested.
pub fn chaos_kernel_config(cfg: &ChaosConfig) -> KernelConfig {
    KernelConfig {
        check: cfg.check.then(CheckConfig::full),
        fault_injection: cfg.inject.then(|| FaultInjection::chaotic(cfg.seed)),
        ..KernelConfig::extended()
    }
}

/// Runs one chaos program to completion, asserting the never-leak gate and
/// (when checking) sweeping the final state. Panics on any violation;
/// callers wanting a structured failure use [`chaos_report`].
pub fn run_chaos(cfg: &ChaosConfig) -> ChaosOutcome {
    let mut step_out = 0u32;
    run_chaos_tracked(cfg, &mut step_out)
}

fn run_chaos_tracked(cfg: &ChaosConfig, at_step: &mut u32) -> ChaosOutcome {
    let mut k = Kernel::boot(MachineConfig::ppc604_185(), chaos_kernel_config(cfg));
    let bin = k.create_file(8 * PAGE).expect("binary page cache");
    // Conservation baseline: general-pool frames free after the page cache
    // is populated, and page-table pages free after boot. Pipe ring buffers
    // hold one frame each for the kernel's lifetime (there is no
    // pipe-destroy path), so they count as accounted, not leaked.
    let free0 = k.frames.free_frames() + resident_cache(&k) + k.pipes.len();
    let pt0 = k.frames.pt_free_pages();
    let mut d = Driver {
        rng: Rng::new(cfg.seed),
        shapes: DetHashMap::default(),
        bin,
        pipe: None,
        fatals: 0,
    };
    for i in 0..cfg.steps {
        *at_step = i;
        let verbose = cfg.verbose_from.is_some_and(|v| i >= v);
        d.step(&mut k, i, verbose);
    }
    *at_step = cfg.steps;
    // Wind down: every surviving task exits through the real teardown path.
    loop {
        let alive = d.alive(&k);
        let Some(&pid) = alive.first() else { break };
        k.switch_to(pid);
        k.exit_current();
    }
    // Never-leak: both pools return exactly to their baselines (page-cache
    // frames accounted — pressure may have evicted or refilled them).
    let free_end = k.frames.free_frames() + resident_cache(&k) + k.pipes.len();
    assert_eq!(
        free_end, free0,
        "frame leak: {free0} frames accounted at boot, {free_end} at exit"
    );
    assert_eq!(
        k.frames.pt_free_pages(),
        pt0,
        "page-table page leak after full teardown"
    );
    k.check_finish();
    let (obs, inv, sweeps) = match k.check.as_ref() {
        Some(c) => (c.checked_observations, c.invariant_passes, c.heavy_sweeps),
        None => (0, 0, 0),
    };
    ChaosOutcome {
        cycles: k.machine.cycles,
        stats: k.stats,
        steps: cfg.steps,
        fatals: d.fatals,
        checked_observations: obs,
        invariant_passes: inv,
        heavy_sweeps: sweeps,
    }
}

fn resident_cache(k: &Kernel) -> usize {
    k.files.iter().map(|f| f.resident_pages()).sum()
}

/// The `mmu-tricks-chaos-v1` artifact of a fleet: the `check` axis, the
/// step budget, and one line per clean seed.
pub fn fleet_json(check: bool, steps: u32, runs: &[(u64, ChaosOutcome)]) -> Json {
    let seed = |(seed, o): &(u64, ChaosOutcome)| {
        Json::object()
            .field("seed", *seed)
            .field("cycles", o.cycles)
            .field("injected", o.stats.injected_faults)
            .field("fatals", o.fatals)
            .field("oracle_obs", o.checked_observations)
            .field("sweeps", o.heavy_sweeps)
    };
    Json::object()
        .field("schema", "mmu-tricks-chaos-v1")
        .field("check", if check { "on" } else { "off" })
        .field("steps", steps)
        .field("seeds", Json::arr(runs.iter().map(seed)))
}

/// Runs a chaos program, converting any panic into a [`ChaosFailure`] with
/// the minimal failing prefix (the step the violation surfaced at).
pub fn chaos_report(cfg: &ChaosConfig) -> Result<ChaosOutcome, Box<ChaosFailure>> {
    let mut at_step = 0u32;
    let result = catch_unwind(AssertUnwindSafe(|| run_chaos_tracked(cfg, &mut at_step)));
    result.map_err(|e| {
        let message = e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic payload".into());
        Box::new(ChaosFailure {
            seed: cfg.seed,
            step: at_step,
            message,
            config: chaos_kernel_config(cfg).summary(),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_chaos_run_is_clean_and_deterministic() {
        let cfg = ChaosConfig::checked(42, 300);
        let a = run_chaos(&cfg);
        let b = run_chaos(&cfg);
        assert_eq!(a, b, "same seed must be bit-identical");
        assert!(a.checked_observations > 0, "oracle never consulted");
        assert!(a.invariant_passes > 0);
        assert!(a.cycles > 0);
    }

    #[test]
    fn different_seeds_explore_different_programs() {
        let a = run_chaos(&ChaosConfig::checked(1, 200));
        let b = run_chaos(&ChaosConfig::checked(2, 200));
        assert_ne!(a.cycles, b.cycles);
    }

    #[test]
    fn check_off_is_cycle_identical() {
        let on = run_chaos(&ChaosConfig::checked(7, 250));
        let off = run_chaos(&ChaosConfig::unchecked(7, 250));
        assert_eq!(on.cycles, off.cycles, "checker charged cycles");
        assert_eq!(on.stats, off.stats, "checker perturbed counters");
        assert_eq!(off.checked_observations, 0);
    }

    #[test]
    fn failure_report_carries_seed_step_and_config() {
        // A fabricated failing run: the planted stale-VSID bug, armed
        // programmatically inside a tiny chaos-like closure.
        let cfg = ChaosConfig {
            inject: false, // keep the planted-bug repro free of injected ENOMEMs
            ..ChaosConfig::checked(3, 40)
        };
        let mut at = 0u32;
        let r = catch_unwind(AssertUnwindSafe(|| {
            let mut k = Kernel::boot(MachineConfig::ppc604_185(), chaos_kernel_config(&cfg));
            let pid = k.spawn_process(8).unwrap();
            k.switch_to(pid);
            k.user_write(USER_BASE, 8 * PAGE).unwrap();
            k.set_buggy_skip_vsid_flush(true);
            at = 17;
            let idx = k.task_idx(pid).unwrap();
            k.flush_context(idx);
            for _ in 0..8 {
                k.user_read(USER_BASE, 8 * PAGE).unwrap();
            }
            k.check_finish();
        }));
        assert!(r.is_err(), "planted bug escaped");
        assert_eq!(at, 17);
        let f = ChaosFailure {
            seed: cfg.seed,
            step: at,
            message: "MM check violation: ...".into(),
            config: chaos_kernel_config(&cfg).summary(),
        };
        let s = f.to_string();
        assert!(s.contains("seed=3"), "{s}");
        assert!(s.contains("step=17"), "{s}");
        assert!(s.contains("repro chaos --seed 3"), "{s}");
    }
}
