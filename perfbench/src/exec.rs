//! Runs a stream against a freshly booted kernel, one call after the
//! previous one returns, and reads the exact counters around it.

use std::time::Instant;

use kernel_sim::{Kernel, KernelConfig, KernelError, KernelStats, Pid};
use ppc_machine::{MachineConfig, MonitorSnapshot};
use ppc_mmu::{EffectiveAddress, HtabStats};

use crate::ops::{self, decode, Addr, Op, Shape, Stream, FETCH_INSNS, REGION_TEXT};
use crate::spans::{Deltas, Layer, SpanLog};

/// Every exact counter the simulator keeps, at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    /// Kernel event counters.
    pub stats: KernelStats,
    /// Hardware counters, including the cycle clock.
    pub mon: MonitorSnapshot,
    /// Hash-table counters.
    pub htab: HtabStats,
}

impl Counters {
    /// Reads `k`'s counters.
    pub fn of(k: &Kernel) -> Self {
        Counters {
            stats: k.stats,
            mon: k.machine.snapshot(),
            htab: *k.htab.stats(),
        }
    }
}

/// Calls attempted and how they ended.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Generated calls made.
    pub attempted: u64,
    /// Calls that failed: an error other than a simulated kill, a panic, a
    /// checker violation, or a counter mismatch.
    pub failed: u64,
    /// Calls that ended in a simulated kill (SIGSEGV, OOM): kernel counts,
    /// not failures.
    pub killed: u64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Records one failed call.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(why);
    }

    /// Adds another tally into this one.
    pub fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.killed += o.killed;
        if let Some(f) = &o.first_failure {
            self.first_failure.get_or_insert_with(|| f.clone());
        }
    }

    fn note(&mut self, op: &Op, r: Result<(), Fail>) {
        self.attempted += 1;
        match r {
            Ok(()) => {}
            Err(Fail::Killed) => self.killed += 1,
            Err(Fail::Error(e)) => self.fail(format!("{op:?}: {e}")),
        }
    }
}

enum Fail {
    Killed,
    Error(String),
}

impl From<KernelError> for Fail {
    fn from(e: KernelError) -> Self {
        match e {
            KernelError::Fatal { .. } => Fail::Killed,
            other => Fail::Error(format!("{other:?}")),
        }
    }
}

/// Run-time names: PIDs by slot, mapping addresses by register, files and
/// pipes by creation order.
#[derive(Debug, Default)]
struct Regs {
    pids: [Pid; 16],
    addrs: [u32; 4],
    files: Vec<usize>,
    pipes: Vec<usize>,
}

impl Regs {
    fn addr(&self, a: Addr) -> u32 {
        match a {
            Addr::Fixed(ea) => ea,
            Addr::Mapped(reg) => self.addrs[reg as usize],
        }
    }
}

/// Cycles a reference costs when it takes no TLB miss, no L1 miss and no
/// fault: the clock advance of the fused fast path.
#[derive(Debug, Clone, Copy)]
struct FastCost {
    data: u64,
    fetch: u64,
}

impl FastCost {
    fn of(k: &Kernel) -> Self {
        let mem = k.machine.cfg.mem;
        FastCost {
            data: 1 + mem.dcache.hit_cycles,
            fetch: u64::from(FETCH_INSNS) + mem.icache.hit_cycles,
        }
    }
}

/// Makes one call. With `COUNT_FAST`, burst references whose cost shows
/// they took the fast path are added to `fast`.
#[inline]
fn call_op<const COUNT_FAST: bool>(
    k: &mut Kernel,
    regs: &mut Regs,
    op: &Op,
    patterns: &[Vec<u32>],
    cost: FastCost,
    fast: &mut u64,
) -> Result<(), Fail> {
    match *op {
        Op::CreateFile { bytes } => {
            let f = k.create_file(bytes)?;
            regs.files.push(f);
        }
        Op::PipeCreate => {
            let p = k.pipe_create()?;
            regs.pipes.push(p);
        }
        Op::Spawn { slot, ws_pages } => regs.pids[slot as usize] = k.spawn_process(ws_pages)?,
        Op::Switch { slot } => k.switch_to(regs.pids[slot as usize]),
        Op::Fork { slot } => regs.pids[slot as usize] = k.sys_fork()?,
        Op::Exec {
            file,
            text_pages,
            heap_pages,
        } => k.sys_exec(regs.files[file as usize], text_pages, heap_pages)?,
        Op::Exit => k.exit_current(),
        Op::Read {
            file,
            offset,
            at,
            len,
        } => {
            let got = k.sys_read(regs.files[file as usize], offset, regs.addr(at), len)?;
            if got != len {
                return Err(Fail::Error(format!("short read: {got} of {len} bytes")));
            }
        }
        Op::Prefault { at, pages } => k.prefault(regs.addr(at), pages)?,
        Op::Mmap { reg, file, pages } => {
            let file = file.map(|f| regs.files[f as usize]);
            regs.addrs[reg as usize] = k.sys_mmap(file, pages * ops::PAGE);
        }
        Op::Munmap { reg, pages } => k.sys_munmap(regs.addrs[reg as usize], pages * ops::PAGE),
        Op::Burst {
            pattern,
            hot,
            wide,
            text,
        } => {
            let bases = [regs.addr(hot), regs.addr(wide), regs.addr(text), 0];
            for &c in &patterns[pattern as usize] {
                let (region, off, write) = decode(c);
                let ea = EffectiveAddress(bases[region as usize] + off);
                if region == REGION_TEXT {
                    let c = k.exec_code(ea, FETCH_INSNS)?;
                    if COUNT_FAST && c == cost.fetch {
                        *fast += 1;
                    }
                } else {
                    let c = k.data_ref(ea, write)?;
                    if COUNT_FAST && c == cost.data {
                        *fast += 1;
                    }
                }
            }
        }
        Op::Write { at, len } => {
            k.user_write(regs.addr(at), len)?;
        }
        Op::Idle { cycles } => k.run_idle(u64::from(cycles)),
        Op::PipeWrite { pipe, at, len } => {
            k.pipe_write(regs.pipes[pipe as usize], regs.addr(at), len)?
        }
        Op::PipeRead { pipe, at, len } => {
            k.pipe_read(regs.pipes[pipe as usize], regs.addr(at), len)?
        }
        Op::SignalInstall => k.sys_signal_install(),
        Op::Signal { handler } => k.signal_roundtrip(regs.addr(handler))?,
        Op::Segv { at } => {
            k.data_ref(EffectiveAddress(regs.addr(at)), true)?;
            return Err(Fail::Error(
                "store outside every mapping did not fault".into(),
            ));
        }
    }
    Ok(())
}

/// The layer a call belongs to. Files and pipes are only created in set-up,
/// which is never traced; they fall in the layers that use them.
fn layer_of(op: &Op) -> Layer {
    match op {
        Op::CreateFile { .. } => Layer::Read,
        Op::PipeCreate => Layer::Pipe,
        Op::Spawn { .. } => Layer::Spawn,
        Op::Switch { .. } => Layer::Switch,
        Op::Fork { .. } => Layer::Fork,
        Op::Exec { .. } => Layer::Exec,
        Op::Exit => Layer::Exit,
        Op::Read { .. } => Layer::Read,
        Op::Prefault { .. } => Layer::Fault,
        Op::Mmap { .. } => Layer::Mmap,
        Op::Munmap { .. } => Layer::Munmap,
        Op::Burst { .. } => Layer::Burst,
        Op::Write { .. } => Layer::Write,
        Op::Idle { .. } => Layer::Idle,
        Op::PipeWrite { .. } | Op::PipeRead { .. } => Layer::Pipe,
        Op::SignalInstall | Op::Signal { .. } => Layer::Signal,
        Op::Segv { .. } => Layer::Segv,
    }
}

fn run_plain(
    k: &mut Kernel,
    regs: &mut Regs,
    list: &[Op],
    patterns: &[Vec<u32>],
    tally: &mut Tally,
) {
    let cost = FastCost::of(k);
    let mut unused = 0;
    for op in list {
        let r = call_op::<false>(k, regs, op, patterns, cost, &mut unused);
        tally.note(op, r);
    }
}

/// Runs `list` with one span per call. Counters are read outside each
/// span's timed interval, so they cost the benchmark loop, not the layer.
fn run_traced(
    k: &mut Kernel,
    regs: &mut Regs,
    list: &[Op],
    patterns: &[Vec<u32>],
    tally: &mut Tally,
) -> SpanLog {
    let cost = FastCost::of(k);
    let mut log = SpanLog::start();
    for op in list {
        let (m0, flushed0) = (k.machine.snapshot(), k.stats.flushed_pages);
        let mut fast = 0;
        let t0 = log.now();
        let r = call_op::<true>(k, regs, op, patterns, cost, &mut fast);
        let t1 = log.now();
        let m = k.machine.snapshot().delta(&m0);
        let work = match *op {
            Op::Burst { pattern, .. } => patterns[pattern as usize].len() as u64,
            Op::Prefault { pages, .. } => u64::from(pages),
            Op::Idle { .. } => m.cycles,
            Op::Munmap { .. } => k.stats.flushed_pages - flushed0,
            _ => 1,
        };
        let deltas = Deltas {
            work,
            fast,
            tlb_misses: m.tlb_misses(),
            dmisses: m.dcache.misses,
            imisses: m.icache.misses,
        };
        log.push(layer_of(op), t0, t1, deltas);
        tally.note(op, r);
    }
    log.finish();
    log
}

/// How a repetition is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No spans: the end-to-end measurement.
    Plain,
    /// One span per measured call.
    Spans,
    /// No spans, with the simulator's own cycle profiler armed.
    Prof,
}

/// One repetition: boot, set-up, the measured calls, and counters.
#[derive(Debug)]
pub struct Rep {
    /// Host ns of set-up: boot, generating the stream, set-up calls.
    pub setup_ns: u64,
    /// Host ns of the measured calls.
    pub run_ns: u64,
    /// Counters when the measured calls start.
    pub start: Counters,
    /// Counters when they end.
    pub end: Counters,
    /// Outcomes of every call, set-up included.
    pub tally: Tally,
    /// Spans, in [`Mode::Spans`].
    pub spans: Option<SpanLog>,
    /// Simulated self cycles per profiler subsystem over the measured calls,
    /// in [`Mode::Prof`] or when the workload arms the tracer.
    pub prof: Option<Vec<(&'static str, u64)>>,
    /// Checker observations and heavy sweeps, when the checker is armed.
    pub check: (u64, u64),
    /// References the measured bursts replayed.
    pub burst_refs: u64,
}

fn prof_snapshot(k: &mut Kernel) -> Option<Vec<(&'static str, u64)>> {
    let now = k.machine.cycles;
    let t = k.tracer.as_mut()?;
    t.prof.finish(now);
    Some(
        kernel_sim::Subsystem::ALL
            .iter()
            .map(|&s| (s.name(), t.prof.self_cycles(s)))
            .collect(),
    )
}

/// Host ns of one boot under `cfg`; the kernel is dropped untimed.
pub fn boot_ns(cfg: KernelConfig) -> u64 {
    let t = Instant::now();
    let k = Kernel::boot(MachineConfig::ppc604_133(), cfg);
    let ns = t.elapsed().as_nanos() as u64;
    drop(k);
    ns
}

/// Runs one repetition of `shape`'s stream for `seed` under `cfg`.
pub fn rep(shape: Shape, seed: u64, mut cfg: KernelConfig, mode: Mode) -> Rep {
    if mode == Mode::Prof {
        cfg.trace = true;
    }
    let t0 = Instant::now();
    let mut k = Kernel::boot(MachineConfig::ppc604_133(), cfg);
    let stream: Stream = ops::generate(shape, seed);
    let mut regs = Regs::default();
    let mut tally = Tally::default();
    run_plain(
        &mut k,
        &mut regs,
        &stream.setup,
        &stream.patterns,
        &mut tally,
    );
    let setup_ns = t0.elapsed().as_nanos() as u64;

    let start = Counters::of(&k);
    let prof0 = prof_snapshot(&mut k);
    let t1 = Instant::now();
    let spans = if mode == Mode::Spans {
        Some(run_traced(
            &mut k,
            &mut regs,
            &stream.ops,
            &stream.patterns,
            &mut tally,
        ))
    } else {
        run_plain(&mut k, &mut regs, &stream.ops, &stream.patterns, &mut tally);
        None
    };
    let run_ns = t1.elapsed().as_nanos() as u64;
    let end = Counters::of(&k);
    let prof = prof_snapshot(&mut k).zip(prof0).map(|(b, a)| {
        b.iter()
            .zip(a)
            .map(|(&(name, c1), (_, c0))| (name, c1 - c0))
            .collect()
    });
    k.check_finish();
    let check = k
        .check
        .as_ref()
        .map_or((0, 0), |c| (c.checked_observations, c.heavy_sweeps));
    Rep {
        setup_ns,
        run_ns,
        start,
        end,
        tally,
        spans,
        prof,
        check,
        burst_refs: stream.burst_refs(),
    }
}
