//! The kernel proper: state, boot, and the translate-and-access engine.

use ppc_cache::AccessKind;
use ppc_machine::{Cycles, Machine, MachineConfig};
use ppc_mmu::addr::{EffectiveAddress, PhysAddr, VirtualAddress, PAGE_SIZE};
use ppc_mmu::bat::BatEntry;
use ppc_mmu::htab::{HashTable, PTE_BYTES};
use ppc_mmu::translate::{AccessType, Miss};

use crate::errors::KResult;
use crate::fs::File;
use crate::inject::{FaultInjector, InjectSite};
use crate::kconfig::{HandlerStyle, KernelConfig};
use crate::layout::{
    self, is_io, is_kernel_linear, is_user, pa_to_kva, HTAB_GROUPS, HTAB_PA, IO_BYTES,
    IO_VIRT_BASE, RAM_BYTES,
};
use crate::linuxpt::LinuxPageTables;
use crate::physmem::{FrameAllocator, PhysMem};
use crate::pipe::Pipe;
use crate::pmu::PmuState;
use crate::prof::{Path, SpanStack, Subsystem};
use crate::stats::KernelStats;
use crate::task::{Pid, Task};
use crate::telemetry::{MmuReadings, Telemetry};
use crate::trace::{TraceEvent, TraceRecord, Tracer};
use crate::tune::{Mmtune, RetuneDecision, TuneAction, TuneKnob};
use crate::vsid::{is_kernel_vsid, kernel_vsid, VsidAllocator};

/// Per-path instruction counts: how long each kernel code path is.
///
/// Two presets correspond to the paper's "original" and hand-tuned kernels;
/// the comparison-OS models (Table 3) install their own, heavier values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathLengths {
    /// Syscall entry + dispatch + exit.
    pub syscall: u32,
    /// Scheduler pick + context-switch body.
    pub sched: u32,
    /// Hand-written assembly TLB-reload handler body.
    pub fault_asm: u32,
    /// C reload / page-fault handler body (MMU on).
    pub fault_c: u32,
    /// One pipe read or write.
    pub pipe_op: u32,
    /// File-read path per page (page-cache lookup etc.).
    pub file_per_page: u32,
    /// mmap/munmap fixed part.
    pub mm_op: u32,
    /// mmap/munmap per-page part (PTE setup / teardown).
    pub mm_per_page: u32,
    /// Per-page TLB/hash-table flush path (the C `flush_hash_page` walk).
    pub flush_per_page: u32,
    /// Process creation (fork+exec-lite).
    pub spawn: u32,
    /// Extra kernel entries/exits per IPC operation (microkernel message
    /// hops; 0 for a monolithic kernel).
    pub ipc_hops: u32,
    /// Data copies each pipe byte suffers per side (1 = direct kernel
    /// buffer; 2 models a user-level server double copy).
    pub pipe_copies: u32,
    /// Extra path run per ring-buffer fill/drain during bulk transfers
    /// (wakeup/select bookkeeping; for the Mach systems, the per-buffer
    /// VM/IPC machinery that dominates their pipe bandwidth).
    pub pipe_chunk_insns: u32,
    /// Signal delivery path (queueing, frame setup, sigreturn).
    pub signal: u32,
}

impl PathLengths {
    /// The hand-tuned optimized kernel's path lengths.
    pub fn tuned() -> Self {
        Self {
            syscall: 180,
            sched: 550,
            fault_asm: 14,
            fault_c: 300,
            pipe_op: 1100,
            file_per_page: 800,
            mm_op: 1500,
            mm_per_page: 12,
            flush_per_page: 40,
            spawn: 2500,
            ipc_hops: 0,
            pipe_copies: 1,
            pipe_chunk_insns: 400,
            signal: 300,
        }
    }

    /// The original (pre-optimization) kernel's path lengths: generic
    /// save-everything exception code and untuned C paths.
    pub fn original() -> Self {
        Self {
            syscall: 2000,
            sched: 2500,
            fault_asm: 40,
            fault_c: 520,
            pipe_op: 2200,
            file_per_page: 1400,
            mm_op: 2500,
            mm_per_page: 30,
            flush_per_page: 150,
            spawn: 4200,
            ipc_hops: 0,
            pipe_copies: 1,
            pipe_chunk_insns: 1200,
            signal: 1100,
        }
    }

    /// Path lengths implied by a kernel configuration.
    pub fn for_config(cfg: &KernelConfig) -> Self {
        match cfg.handler {
            HandlerStyle::FastAsm => Self::tuned(),
            HandlerStyle::SlowC => Self::original(),
        }
    }
}

/// Physical address of the assembly exception stubs (the first page of
/// kernel text holds the vectors, as on real hardware).
pub const HANDLER_STUB_PA: PhysAddr = 0x3000;

/// Instructions of performance-monitor interrupt handler body: read the
/// SIAR-equivalent state, store the sample record, re-arm PMC1. Charged (on
/// top of exception entry/exit) for every delivered sampling interrupt —
/// sampling is the one observability feature that is *not* free.
pub const PM_HANDLER_INSNS: u32 = 120;

/// The simulated kernel.
///
/// Owns the machine, all physical memory, the hash table, the VSID
/// allocator, and every task. All paper experiments drive a `Kernel`.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// The hardware.
    pub machine: Machine,
    /// Policy configuration.
    pub cfg: KernelConfig,
    /// Kernel path lengths (instruction counts).
    pub paths: PathLengths,
    /// Simulated RAM contents.
    pub phys: PhysMem,
    /// The frame allocator.
    pub frames: FrameAllocator,
    /// The architected hash table.
    pub htab: HashTable,
    /// VSID allocation and liveness.
    pub vsids: VsidAllocator,
    /// All tasks, indexed by slot.
    pub tasks: Vec<Task>,
    /// The currently running task (slot), if any.
    pub current: Option<usize>,
    /// Round-robin run queue of task slots.
    pub run_queue: std::collections::VecDeque<usize>,
    /// Open pipes.
    pub pipes: Vec<Pipe>,
    /// Files (with their page caches).
    pub files: Vec<File>,
    /// Kernel event counters.
    pub stats: KernelStats,
    /// The kernel's own page tables (covering the linear map when BATs are
    /// off).
    pub kernel_pt: LinuxPageTables,
    next_pid: Pid,
    /// Recursion guard for nested TLB misses taken inside a reload handler.
    in_reload: bool,
    /// PTEG groups the idle reclaim may still scan before going back to
    /// sleep: topped up to a full sweep whenever a context is retired, so
    /// the idle task does not pointlessly re-stream the hash table through
    /// the cache when no zombies can exist.
    pub(crate) reclaim_scan_credit: u32,
    /// Reference counts for frames shared copy-on-write between address
    /// spaces (absent = exclusively owned).
    pub(crate) shared_frames: crate::fixed_hash::DetHashMap<PhysAddr, u32>,
    /// Mapping counts for page-cache frames currently mapped into some
    /// address space (absent = unmapped, hence evictable under pressure).
    pub(crate) file_map_refs: crate::fixed_hash::DetHashMap<PhysAddr, u32>,
    /// The seeded fault injector, when [`KernelConfig::fault_injection`] is
    /// set.
    pub(crate) injector: Option<FaultInjector>,
    /// The event tracer + cycle profiler, when [`KernelConfig::trace`] is
    /// set. Boxed so an untraced kernel carries one pointer of overhead.
    pub tracer: Option<Box<Tracer>>,
    /// The sampling-profiler state, when [`KernelConfig::pmu`] is set
    /// (the OS half of the PMU; the counters themselves live on
    /// [`Machine::pmu`]).
    pub pmu: Option<Box<PmuState>>,
    /// The epoch telemetry sampler, when [`KernelConfig::telemetry`] is
    /// set. Observational like the tracer: polls at span transitions,
    /// reads MMU state, charges nothing.
    pub telemetry: Option<Box<Telemetry>>,
    /// The adaptive MMU tuning controller, when [`KernelConfig::mmtune`]
    /// is set. Unlike the observers above it *changes* the run: retune
    /// decisions reprogram BATs, rehash the hash table, or retune the VSID
    /// scatter constant, and every cycle of that work is charged to
    /// [`Subsystem::Mmtune`].
    pub mmtune: Option<Box<Mmtune>>,
    /// The runtime MM consistency checker, when [`KernelConfig::check`] is
    /// set: shadow translation oracle + ported SchedInv/MMInv invariants
    /// ([`crate::check`]). Observational like the tracer — charges nothing,
    /// counts nothing in [`KernelStats`] — but *panics* with a repro line on
    /// any violation.
    pub check: Option<Box<crate::check::CheckState>>,
    /// The tail-latency forensics state, when [`KernelConfig::tail`] is
    /// set: slow instrumented-path samples are captured as
    /// [`crate::tail::TailExemplar`]s with their causal context.
    /// Observational like the tracer — charges nothing, counts nothing in
    /// [`KernelStats`], never writes the trace ring.
    pub tail: Option<Box<crate::tail::TailState>>,
    /// Causal what-if profiling state, when [`KernelConfig::causal`] is
    /// set: per-path extent depths, folded with the top of the span stack
    /// into one `(num, den)` machine charge scale at every span transition.
    /// With `None` the machine scale is never touched and stays at its
    /// bit-identical 1/1 default.
    pub causal: Option<Box<crate::causal::CausalState>>,
    /// The one span stack ([`Kernel::spans`]), kept whether or not an
    /// observer is armed.
    spans: SpanStack,
    /// Depth of in-flight scheduler mutations (context switch / teardown):
    /// the checker suspends its SchedInv clauses while nonzero. Maintained
    /// unconditionally (integer bookkeeping, no cycles).
    pub(crate) sched_mutation_depth: u32,
    /// Bumped by [`Kernel::check_note_sched_change`] at every change to what
    /// the checker's cheap invariants read; the checker re-evaluates them
    /// only when it moved. Maintained unconditionally, like the depth above.
    pub(crate) sched_mm_version: u64,
    /// The one poll deadline: the first cycle at which an armed observer
    /// has work due at a span transition (see [`Kernel::poll_due`]).
    /// `Cycles::MAX` with no observer armed.
    pub(crate) next_poll: Cycles,
    /// Deliberately skip the VSID bump in lazy context flushes — the seeded
    /// stale-TLB bug the shadow oracle exists to catch. Latched at boot from
    /// the `MMU_TRICKS_BUG_STALE_TLB` environment variable (or
    /// [`Kernel::set_buggy_skip_vsid_flush`]); never set in production
    /// configurations.
    pub(crate) buggy_skip_vsid_flush: bool,
}

impl Kernel {
    /// Boots a kernel on `machine_cfg` under policy `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent
    /// (see [`KernelConfig::validate`]).
    pub fn boot(machine_cfg: MachineConfig, cfg: KernelConfig) -> Self {
        let paths = PathLengths::for_config(&cfg);
        Self::boot_with_paths(machine_cfg, cfg, paths)
    }

    /// Boots with explicit path lengths (used by the comparison-OS models).
    pub fn boot_with_paths(
        machine_cfg: MachineConfig,
        cfg: KernelConfig,
        paths: PathLengths,
    ) -> Self {
        cfg.validate();
        let mut machine = Machine::new(machine_cfg);
        if let Some(pc) = cfg.pmu {
            let mut pmu = ppc_machine::Pmu::new(pc.mmcr0());
            if pc.sample_period > 0 {
                // Preload the sampling counter to go negative one period in.
                pmu.write_pmc(0, ppc_machine::PMC_NEGATIVE - pc.sample_period);
            }
            machine.pmu = Some(pmu);
        }
        // Kernel segment registers hold their fixed VSIDs forever.
        for sr in 12..16 {
            machine.mmu.segments.set(sr, kernel_vsid(sr));
        }
        if cfg.use_bats {
            // One BAT pair covers the whole 32 MiB linear map: kernel text,
            // data, htab and page tables all translate "for free" (§5.1).
            let bat = BatEntry::new(layout::KERNEL_VIRT_BASE, 0, RAM_BYTES, true);
            machine.mmu.bats.set_dbat(0, Some(bat));
            machine.mmu.bats.set_ibat(0, Some(bat));
        }
        if cfg.io_bat {
            // Dedicated uncached BAT for the frame-buffer aperture.
            let io = BatEntry::new(IO_VIRT_BASE, IO_VIRT_BASE, IO_BYTES, false);
            machine.mmu.bats.set_dbat(3, Some(io));
        }
        let mut frames = FrameAllocator::new();
        let kernel_pgd = frames
            .get_pt_page()
            .expect("page-table pool cannot be empty at boot");
        let mut phys = PhysMem::new();
        phys.zero_page(kernel_pgd);
        let mut kernel = Self {
            machine,
            cfg,
            paths,
            phys,
            frames,
            htab: HashTable::new(HTAB_GROUPS, HTAB_PA),
            vsids: VsidAllocator::new(cfg.vsid_policy),
            tasks: Vec::new(),
            current: None,
            run_queue: std::collections::VecDeque::new(),
            pipes: Vec::new(),
            files: Vec::new(),
            stats: KernelStats::default(),
            kernel_pt: LinuxPageTables::new(kernel_pgd),
            next_pid: 1,
            in_reload: false,
            reclaim_scan_credit: 0,
            shared_frames: Default::default(),
            file_map_refs: Default::default(),
            injector: cfg.fault_injection.map(FaultInjector::new),
            tracer: cfg.trace.then(|| Box::new(Tracer::new(HTAB_GROUPS, 0))),
            pmu: cfg.pmu.map(|pc| Box::new(PmuState::new(pc))),
            telemetry: cfg.telemetry.map(|tc| Box::new(Telemetry::new(tc))),
            mmtune: cfg.mmtune.map(|mc| Box::new(Mmtune::new(mc, cfg.use_bats))),
            check: cfg
                .check
                .map(|cc| Box::new(crate::check::CheckState::new(cc))),
            tail: cfg.tail.map(|tc| Box::new(crate::tail::TailState::new(tc))),
            causal: cfg
                .causal
                .map(|cc| Box::new(crate::causal::CausalState::new(cc))),
            spans: SpanStack::default(),
            sched_mutation_depth: 0,
            sched_mm_version: 0,
            next_poll: 0,
            buggy_skip_vsid_flush: std::env::var_os("MMU_TRICKS_BUG_STALE_TLB").is_some(),
        };
        // With an empty span stack the causal scale is the User ratio; an
        // identity config folds to (1, 1) and never perturbs the machine.
        kernel.causal_rescale();
        kernel.schedule_poll();
        kernel
    }

    /// Enables (or disables) the deliberate stale-TLB bug — the lazy
    /// context flush stops bumping VSIDs, leaving stale translations
    /// matchable. Exists so tests can prove the shadow oracle catches it
    /// (`tests_check::oracle_catches_deliberate_stale_vsid_bug`); the
    /// environment-variable latch (`MMU_TRICKS_BUG_STALE_TLB`) does the
    /// same for whole processes, which `crates/bench/tests/artifacts.rs`
    /// drives through `repro chaos`.
    pub fn set_buggy_skip_vsid_flush(&mut self, on: bool) {
        self.buggy_skip_vsid_flush = on;
    }

    /// Boots with a non-standard hash-table size (in PTEGs). The paper keeps
    /// the table fixed at 2048 groups; tests use smaller tables to reach
    /// full-table dynamics quickly.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is not a power of two.
    pub fn boot_with_htab_groups(
        machine_cfg: MachineConfig,
        cfg: KernelConfig,
        groups: u32,
    ) -> Self {
        let mut k = Self::boot(machine_cfg, cfg);
        k.write_htab(|h| *h = HashTable::new(groups, HTAB_PA));
        if let Some(t) = k.tracer.as_mut() {
            t.resize_groups(groups);
        }
        k
    }

    /// PID of the current task, or 0 when the kernel itself is running.
    pub fn current_pid(&self) -> Pid {
        self.current.map_or(0, |i| self.tasks[i].pid)
    }

    /// Records `event` in the trace ring when tracing is enabled; the
    /// closure never runs otherwise (zero-cost-when-disabled).
    #[inline]
    pub(crate) fn t_event(&mut self, event: impl FnOnce() -> TraceEvent) {
        if self.tracer.is_some() {
            let rec = TraceRecord {
                cycle: self.machine.cycles,
                pid: self.current_pid(),
                event: event(),
            };
            if let Some(t) = self.tracer.as_mut() {
                t.ring.push(rec);
            }
        }
    }

    /// The open subsystem spans, outermost first (empty = user time): the
    /// one stack every observer reads.
    pub fn spans(&self) -> &[Subsystem] {
        self.spans.as_slice()
    }

    /// Runs `body` inside a profiler span for `s`: the one way a kernel
    /// path opens, measures and closes a span. The span closes on every way
    /// out of `body`, `?` and `return Err` included, so the stack balances
    /// by construction.
    ///
    /// Tune and check run *before* the span opens and *after* it closes,
    /// so retune cost is bracketed by its own [`Subsystem::Mmtune`] span
    /// and never lands in this one. The PMU and telemetry sync before the
    /// close, so a PM interrupt delivered there is charged inside the span.
    /// When `s` roots one of [`Path::SAMPLED`], the span's latency is
    /// sampled next, before the pop: a tail exemplar records the stack with
    /// the exiting span still on it.
    #[inline]
    pub(crate) fn span<R>(&mut self, s: Subsystem, body: impl FnOnce(&mut Kernel) -> R) -> R {
        if self.poll_due() {
            self.poll_before_span_change();
            self.poll_after_span_change();
        }
        self.span_push(s);
        let r = body(self);
        let due = self.poll_due();
        if due {
            self.poll_before_span_change();
        }
        if let Some(path) = Path::of_span_root(s).filter(|p| Path::SAMPLED.contains(p)) {
            let lat = self.machine.cycles.saturating_sub(self.spans.entry());
            self.note_latency(path, lat);
        }
        self.span_pop();
        if due {
            self.poll_after_span_change();
        }
        r
    }

    /// The one poll point of every span transition: whether the clock has
    /// reached [`Kernel::next_poll`], the first cycle at which an armed
    /// observer has work due. Only then do the observers run, each doing
    /// the work that is due. Between two polls nothing is: the deadline is
    /// the minimum of the PMU's [`Pmu::sync_deadline`] and the telemetry,
    /// mmtune and checker epoch boundaries, and a scheduler/MM change pulls
    /// it to 0 while a checker is armed. Debug builds check every skipped
    /// poll (see [`Kernel::cross_check_skipped_poll`]).
    ///
    /// [`Pmu::sync_deadline`]: ppc_machine::Pmu::sync_deadline
    #[inline]
    fn poll_due(&mut self) -> bool {
        let due = self.machine.cycles >= self.next_poll;
        #[cfg(debug_assertions)]
        if !due {
            self.cross_check_skipped_poll();
        }
        due
    }

    /// The observers that read a window ending at this transition: the PMU
    /// and the telemetry sampler. They run **before** the span stack
    /// changes, so between two consecutive polls the stack is constant and
    /// a counter found negative at a poll is attributed to the subsystem
    /// that actually ran the elapsed window — the invariant that makes
    /// sampled attribution converge to the exact profiler.
    #[cold]
    #[inline(never)]
    fn poll_before_span_change(&mut self) {
        self.pmu_sync_when_due();
        let now = self.machine.cycles;
        if self.telemetry.as_ref().is_some_and(|t| t.clock.due(now)) {
            self.telemetry_record(now);
        }
    }

    /// The observers that run outside any span they might charge into:
    /// mmtune (whose retunes bracket their own [`Subsystem::Mmtune`] span),
    /// then the checker, so invariants are evaluated over post-retune state.
    /// Ends the poll by scheduling the next one.
    #[cold]
    #[inline(never)]
    fn poll_after_span_change(&mut self) {
        let now = self.machine.cycles;
        if self.mmtune.as_ref().is_some_and(|m| m.clock.due(now)) {
            self.tune_epoch(now);
        }
        if self.check.is_some() {
            self.check_transition();
        }
        self.schedule_poll();
    }

    /// Recomputes [`Kernel::next_poll`] from every armed observer's
    /// deadline. Runs after anything that moves one: an epoch advance, a
    /// PMC write or re-arm, a retune, a checker evaluation.
    pub(crate) fn schedule_poll(&mut self) {
        let mut next = Cycles::MAX;
        if let (Some(_), Some(hw)) = (&self.pmu, &self.machine.pmu) {
            next = next.min(hw.sync_deadline());
        }
        if let Some(t) = &self.telemetry {
            next = next.min(t.clock.next());
        }
        if let Some(m) = &self.mmtune {
            next = next.min(m.clock.next());
        }
        if let Some(c) = &self.check {
            next = next.min(c.next_poll(self.sched_mm_version));
        }
        self.next_poll = next;
    }

    /// Debug builds: a skipped poll had nothing due. A PMU sync made now
    /// would latch nothing, no epoch boundary has been crossed, and the
    /// checker's skipped work agrees with the same work done in full.
    ///
    /// # Panics
    ///
    /// With `poll skipped with work due` when [`Kernel::next_poll`] lies
    /// past an observer's deadline — a deadline move that did not
    /// reschedule the poll, a simulator-internal invariant.
    #[cfg(debug_assertions)]
    fn cross_check_skipped_poll(&mut self) {
        let now = self.machine.cycles;
        if let (Some(_), Some(mut hw)) = (&self.pmu, self.machine.pmu) {
            hw.sync(&self.machine.snapshot(), self.supervisor());
            assert!(
                !hw.interrupt_pending(),
                "poll skipped with work due: a PMU sync at cycle {now} latches an interrupt"
            );
        }
        let telemetry = self.telemetry.as_ref().is_some_and(|t| t.clock.due(now));
        let mmtune = self.mmtune.as_ref().is_some_and(|m| m.clock.due(now));
        assert!(
            !telemetry && !mmtune,
            "poll skipped with work due: an epoch boundary at cycle {now} \
             (telemetry {telemetry}, mmtune {mmtune})"
        );
        self.check_cross_check_skipped_poll();
    }

    /// Feeds one sampled-path latency, before its span pops, to tail
    /// capture (judged against the *pre-sample* histogram), the tracer's
    /// histogram, the machine PMU's threshold comparator and mmtune's
    /// slow-path counter. Host-side only: the simulated run is untouched.
    #[inline]
    fn note_latency(&mut self, path: Path, lat: Cycles) {
        if self.tail.is_some() {
            self.tail_sample(path, lat);
        }
        if let Some(t) = self.tracer.as_mut() {
            t.record_latency(path, lat);
        }
        // Instrumented-path latencies are the model's duration events
        // (paper: "loads lasting longer than threshold"; here:
        // reloads/faults/deliveries). One that latches an interrupt makes
        // the PMU due at the next transition.
        if let Some(hw) = self.machine.pmu.as_mut() {
            hw.note_duration(lat, true);
            if hw.interrupt_pending() {
                self.next_poll = 0;
            }
        }
        if let Some(m) = self.mmtune.as_mut() {
            m.note_latency(lat);
        }
    }

    /// Pushes `s` onto the span stack, entered now. Returns the entry
    /// cycle. Polls nothing: [`Kernel::span`] polls around it, and the two
    /// spans that open inside a poll (the PM handler and a retune) call it
    /// directly, since polling again there would recurse.
    #[inline]
    fn span_push(&mut self, s: Subsystem) -> Cycles {
        self.spans.push(s, self.machine.cycles);
        if let Some(c) = self.causal.as_mut() {
            c.enter(s);
        }
        self.span_changed()
    }

    /// Pops the innermost span (see [`Kernel::span_push`]).
    #[inline]
    fn span_pop(&mut self) {
        if let Some(c) = self.causal.as_mut() {
            c.exit(self.spans.top());
        }
        self.spans.pop();
        self.span_changed();
    }

    /// Hands the new top of the span stack to the exact profiler and the
    /// causal charge scale. Returns the transition cycle.
    #[inline]
    fn span_changed(&mut self) -> Cycles {
        let now = self.machine.cycles;
        if let Some(t) = self.tracer.as_mut() {
            t.prof.switch(self.spans.top(), now);
        }
        self.causal_rescale();
        now
    }

    /// Re-derives the machine charge scale from the causal state and the
    /// top of the span stack; a no-op when causal profiling is off (the
    /// machine keeps its 1/1 default and `advance` short-circuits — plain
    /// runs never pay for this feature existing).
    #[inline]
    fn causal_rescale(&mut self) {
        if let Some(c) = self.causal.as_ref() {
            let (num, den) = c.scale(self.spans.top());
            self.machine.set_scale(num, den);
        }
    }

    /// Enters (`true`) or leaves (`false`) an explicitly marked path
    /// extent — paths like the hash-table rehash that no subsystem span
    /// roots.
    #[inline]
    pub(crate) fn causal_path_mark(&mut self, p: Path, enter: bool) {
        if let Some(c) = self.causal.as_mut() {
            c.path_mark(p, enter);
            self.causal_rescale();
        }
    }

    /// The tail-forensics half of [`Kernel::note_latency`]: advance the
    /// delta window on every sample, and capture an exemplar when the
    /// sample arms and its reservoir would keep it (a capture the reservoir
    /// would drop is only counted). Read-only on kernel, MMU and tracer
    /// state — never charges cycles, never touches [`KernelStats`], never
    /// writes the trace ring.
    fn tail_sample(&mut self, path: Path, lat: Cycles) {
        let Some(tl) = self.tail.as_ref() else { return };
        let now = self.machine.cycles;
        let capture = self
            .tracer
            .as_ref()
            .is_some_and(|t| tl.armed(lat, t.latency(path)));
        let retain = capture && tl.would_retain(path, lat, now);
        let stats = self.stats;
        let htab_stats = *self.htab.stats();
        if !retain {
            if let Some(tl) = self.tail.as_mut() {
                if capture {
                    tl.discard(&stats, &htab_stats);
                } else {
                    tl.note(&stats, &htab_stats);
                }
            }
            return;
        }
        let window: Vec<TraceRecord> = self.tracer.as_ref().map_or_else(Vec::new, |t| {
            let n = t.ring.len();
            t.ring
                .iter()
                .skip(n.saturating_sub(crate::tail::WINDOW))
                .copied()
                .collect()
        });
        let mmu = self.mmu_readings();
        let pid = self.current_pid();
        let stack = self.spans().to_vec();
        if let Some(tl) = self.tail.as_mut() {
            tl.offer(path, lat, now, pid, stack, window, mmu, &stats, &htab_stats);
        }
    }

    /// Supervisor state: inside any kernel span, or no task is current
    /// (boot, idle, kernel-driven workload phases).
    fn supervisor(&self) -> bool {
        !self.spans().is_empty() || self.current.is_none()
    }

    /// Synchronises the PMU once its [`Pmu::sync_deadline`] has come.
    /// Before it a sync would latch nothing, and what it would count a later
    /// sync counts as well.
    ///
    /// [`Pmu::sync_deadline`]: ppc_machine::Pmu::sync_deadline
    fn pmu_sync_when_due(&mut self) {
        let now = self.machine.cycles;
        if self.machine.pmu.is_some_and(|hw| now >= hw.sync_deadline()) {
            self.pmu_sync();
        }
    }

    /// Synchronises the PMU with the machine counters and services a
    /// pending counter-negative exception. A single `None` test when the
    /// PMU is off.
    fn pmu_sync(&mut self) {
        if self.pmu.is_none() {
            return;
        }
        let supervisor = self.supervisor();
        self.machine.pmu_sync(supervisor);
        let pending = self
            .machine
            .pmu
            .as_mut()
            .is_some_and(|hw| hw.take_interrupt());
        if pending {
            self.pmu_deliver_sample(supervisor);
        }
    }

    /// The performance-monitor exception handler: capture the sample,
    /// charge the handler cost, re-arm the sampling counter.
    fn pmu_deliver_sample(&mut self, supervisor: bool) {
        let period = self.pmu.as_ref().map_or(0, |p| p.cfg.sample_period);
        // Weight = whole periods since arming; re-arm preserving the
        // fractional overshoot so no cycles are silently dropped between
        // windows.
        let mut weight = 1;
        if let Some(hw) = self.machine.pmu.as_mut() {
            if period > 0 {
                weight = hw.periods_pending(0, period).max(1);
                let over = hw.read_pmc(0).wrapping_sub(ppc_machine::PMC_NEGATIVE);
                let resid = over % period;
                hw.write_pmc(0, ppc_machine::PMC_NEGATIVE - period + resid);
            } else {
                // Counter-negative without sampling (an event counter
                // wrapped): nothing to record periodically, just re-latch.
                return;
            }
        }
        let cycle = self.machine.cycles;
        let pid = self.current_pid();
        if let Some(p) = self.pmu.as_mut() {
            p.record(cycle, pid, supervisor, weight, self.spans.as_slice());
        }
        self.stats.pmu_interrupts += 1;
        let sub = self.spans.top();
        self.t_event(|| TraceEvent::PmuSample {
            sub,
            weight: weight.min(u64::from(u32::MAX)) as u32,
        });
        // Charge the exception: entry, handler body, exit. Attributed to
        // the Pmu span (pushed directly, not through `span`, which would
        // re-poll and recurse).
        self.span_push(Subsystem::Pmu);
        let costs = self.machine.cfg.costs;
        self.machine
            .charge(costs.exception_entry + costs.exception_exit);
        self.machine
            .exec_code_pa(HANDLER_STUB_PA + 0x200, PM_HANDLER_INSNS, true);
        self.span_pop();
        // The handler froze counting while it ran (a real PM handler sets
        // MMCR0[FC] first thing): skip its own cycles out of the next
        // counting window so sampling does not sample itself.
        let snap = self.machine.snapshot();
        if let Some(hw) = self.machine.pmu.as_mut() {
            hw.skip_to(&snap);
        }
    }

    /// Final PMU synchronisation for a measurement window (call before
    /// reading [`Kernel::pmu`] results or the PMCs; idempotent). Always
    /// syncs: between deadlines the PMCs lag the machine counters.
    pub fn pmu_finish(&mut self) {
        self.pmu_sync();
        self.schedule_poll();
    }

    /// Records one telemetry sample at `now`: read-only on the MMU — never
    /// charges cycles, never touches cache/TLB replacement state, never
    /// writes the trace ring.
    fn telemetry_record(&mut self, now: Cycles) {
        let readings = self.mmu_readings();
        let stats = self.stats;
        if let Some(t) = self.telemetry.as_mut() {
            t.record(now, readings, &stats);
        }
    }

    /// One read-only snapshot of MMU state for the observers that read it:
    /// telemetry, mmtune and tail capture.
    fn mmu_readings(&self) -> MmuReadings {
        let mmu = &self.machine.mmu;
        let kernel =
            mmu.itlb.entries_matching(is_kernel_vsid) + mmu.dtlb.entries_matching(is_kernel_vsid);
        let total = mmu.itlb.valid_entries() + mmu.dtlb.valid_entries();
        MmuReadings {
            htab_groups: self.htab.hash().num_groups(),
            htab_capacity: self.htab.capacity(),
            htab_valid: self.htab.valid_entries(),
            htab_live: self.htab_live(),
            htab_full_groups: self.htab.full_groups(),
            uses_htab: self.uses_htab(),
            scatter: self.vsids.policy().constant(),
            tlb_kernel: kernel,
            tlb_user: total - kernel,
            free_frames: self.frames.free_frames(),
        }
    }

    /// Valid hash-table entries under live VSIDs: the count the VSID
    /// allocator keeps in step with every table write, O(1).
    ///
    /// # Panics
    ///
    /// In debug builds, with `htab live-entry count diverged` when the count
    /// differs from a walk of the table — a table write that did not keep
    /// it in step, a simulator-internal invariant.
    fn htab_live(&self) -> u32 {
        let live = self.vsids.live_entries();
        #[cfg(debug_assertions)]
        {
            let walk = self.htab.live_entries(|v| self.vsids.is_live(v));
            if walk != live {
                let cfg = self.cfg.summary();
                panic!("htab live-entry count diverged: kept {live}, walk {walk}\n  {cfg}");
            }
        }
        live
    }

    /// Writes the hash table outside the kernel's own paths (experiments
    /// and tests that stage a table state), then recounts its live entries.
    /// Charges nothing, like the writes themselves.
    pub fn write_htab<R>(&mut self, f: impl FnOnce(&mut HashTable) -> R) -> R {
        let r = f(&mut self.htab);
        self.vsids.recount(&self.htab);
        r
    }

    /// Takes a final telemetry sample covering the tail of the run — the
    /// partial epoch since the last boundary crossing (call before reading
    /// [`Kernel::telemetry`]; no-op when telemetry is off or the tail is
    /// empty).
    pub fn telemetry_finish(&mut self) {
        let now = self.machine.cycles;
        let tail = |t: &Telemetry| t.epochs.last().map_or(now > 0, |e| e.cycle < now);
        if self.telemetry.as_deref().is_some_and(tail) {
            self.telemetry_record(now);
            self.schedule_poll();
        }
    }

    /// One mmtune epoch, once the ledger has crossed the tuning boundary:
    /// snapshot the inputs, ask the controller, and apply (and charge) at
    /// most one knob move.
    ///
    /// # Panics
    ///
    /// In debug builds, panics with `MM invariant violated at mmtune epoch
    /// boundary` if a retune corrupted scheduler or VSID state — a
    /// simulator-internal invariant, never reachable from workload input.
    fn tune_epoch(&mut self, now: Cycles) {
        // Take the controller out while working: retune work re-enters the
        // span hooks (reclaim sweeps, charged reads), and a taken-out
        // controller makes nested epoch evaluation structurally impossible.
        let Some(mut m) = self.mmtune.take() else {
            return;
        };
        let inputs = self.mmu_readings();
        let snap = self.machine.snapshot();
        let stats = self.stats;
        self.stats.mmtune_epochs += 1;
        if let Some(action) = m.observe(now, &snap, &stats, inputs) {
            self.apply_retune(&mut m, action);
        }
        self.mmtune = Some(m);
        // Epoch boundaries re-verify the ported invariants *always* — even
        // with [`KernelConfig::check`] off — in debug builds (free in
        // release). A retune that corrupts scheduler or VSID state is
        // caught here by every tier-1 test run, not only under `repro
        // chaos`.
        #[cfg(debug_assertions)]
        {
            let mut generation = 0;
            if let Some(v) = self.invariant_violation(&mut generation) {
                let cfg = self.cfg.summary();
                panic!("MM invariant violated at mmtune epoch boundary: {v}\n  config: {cfg}");
            }
        }
    }

    /// Applies one retune decision, charging its cost to
    /// [`Subsystem::Mmtune`] (bracketed with [`Kernel::span_push`], like the
    /// PM handler — not through [`Kernel::span`], which would re-poll).
    fn apply_retune(&mut self, m: &mut Mmtune, action: TuneAction) {
        let epoch = self.span_push(Subsystem::Mmtune) / m.cfg.epoch_cycles;
        let (knob, from, to) = match action {
            TuneAction::EnableBats => {
                // The §5.1 layout, exactly as boot would have programmed it.
                let bat = BatEntry::new(layout::KERNEL_VIRT_BASE, 0, RAM_BYTES, true);
                self.machine.mmu.bats.set_dbat(0, Some(bat));
                self.machine.mmu.bats.set_ibat(0, Some(bat));
                // Four upper/lower mtspr pairs across the I/D sides.
                self.machine.charge(16);
                (TuneKnob::Bat, 0, 1)
            }
            TuneAction::SetScatter { from, to } => {
                self.vsids.set_scatter_constant(to);
                self.check_note_rescatter();
                self.machine.charge(4);
                (TuneKnob::Scatter, from, to)
            }
            TuneAction::ResizeHtab { from, to } => {
                // The rehash is an explicitly marked causal path: no
                // subsystem span roots it (it runs inside the Mmtune
                // span), but "what if rehashes were free?" is exactly the
                // question the grow/shrink cost-benefit analysis needs.
                self.causal_path_mark(Path::HtabRehash, true);
                let cached = self.cfg.htab_cached;
                // Sweep zombies out first (charged like any reclaim sweep)
                // so the rehash only moves entries worth keeping.
                self.reclaim_chunk(from, cached);
                let mem = &mut self.machine.mem;
                let mut cost: Cycles = 0;
                let out = self.htab.resize_with(to, |pa| {
                    cost += mem.data_read(pa, cached);
                });
                // The rehash may drop entries: one recount.
                self.vsids.recount(&self.htab);
                self.check_note_resize();
                // Store commit for every re-inserted PTE.
                cost += Cycles::from(out.moved) * 2;
                self.machine.charge(cost);
                if let Some(t) = self.tracer.as_mut() {
                    t.resize_groups(to);
                }
                // A pending idle sweep can never usefully exceed one pass
                // over the (new) table.
                self.reclaim_scan_credit = self.reclaim_scan_credit.min(to);
                self.stats.mmtune_htab_resizes += 1;
                // Chaos site: an adversarial full TLB flush chasing the
                // rehash — every resident translation must be reloadable
                // from the post-resize table.
                if self.injected(InjectSite::RehashFlush) {
                    self.machine.mmu.flush_tlbs();
                    self.machine.charge(32);
                }
                self.causal_path_mark(Path::HtabRehash, false);
                (TuneKnob::HtabSize, from, to)
            }
        };
        self.stats.mmtune_retunes += 1;
        // Chaos site: a forced zombie-reclaim sweep racing the retune —
        // liveness checks must agree with whatever the retune just changed.
        if self.injected(InjectSite::RetuneSweep) {
            let cached = self.cfg.htab_cached;
            self.reclaim_chunk(32, cached);
        }
        let now = self.machine.cycles;
        // Sync the PMU while Mmtune is still on its stack, as `span` does
        // before every pop: the retune's own cycles are sampled as Mmtune,
        // not as whichever span happens to be open at the next poll.
        self.pmu_sync_when_due();
        self.span_pop();
        m.log(RetuneDecision {
            cycle: now,
            epoch,
            knob,
            from,
            to,
        });
        self.t_event(|| TraceEvent::Retune { knob, from, to });
    }

    /// The currently running task.
    ///
    /// # Panics
    ///
    /// Panics if no task is current.
    pub fn cur(&self) -> &Task {
        &self.tasks[self.current.expect("no current task")]
    }

    /// Allocates the next PID.
    pub fn alloc_pid(&mut self) -> Pid {
        let p = self.next_pid;
        self.next_pid += 1;
        p
    }

    /// One user/kernel data reference (a load or store of one word). Returns
    /// the cycles the clock moved, a reload or fault it took included.
    ///
    /// The reference is [`Machine::data_ref`]; a miss it returns is serviced
    /// out of line (`Kernel::serve_miss`). With the checker armed the
    /// audited instance runs, so the first hit on a translation is audited.
    pub fn data_ref(&mut self, ea: EffectiveAddress, write: bool) -> KResult<Cycles> {
        let done = if self.check.is_some() {
            self.machine.data_ref::<true>(ea, write)
        } else {
            self.machine.data_ref::<false>(ea, write)
        };
        match done {
            Ok(c) => Ok(c),
            Err(miss) => {
                let at = if write {
                    AccessType::DataWrite
                } else {
                    AccessType::DataRead
                };
                self.serve_miss(ea, at, 0, miss)
            }
        }
    }

    /// Executes `n_insns` straight-line instructions starting at `ea`,
    /// translating page by page and fetching line by line.
    pub fn exec_code(&mut self, ea: EffectiveAddress, n_insns: u32) -> KResult<Cycles> {
        let start = self.machine.cycles;
        let mut remaining = n_insns;
        let mut addr = ea.0;
        while remaining > 0 {
            let page_end = (addr & !(PAGE_SIZE - 1)) + PAGE_SIZE;
            let insns_here = remaining.min((page_end - addr) / 4);
            let ea = EffectiveAddress(addr);
            let done = if self.check.is_some() {
                self.machine.exec_code::<true>(ea, insns_here)
            } else {
                self.machine.exec_code::<false>(ea, insns_here)
            };
            if let Err(miss) = done {
                self.serve_miss(ea, AccessType::InsnFetch, insns_here, miss)?;
            }
            addr = page_end;
            remaining -= insns_here;
        }
        Ok(self.machine.cycles - start)
    }

    /// Services `miss`, the trap a reference at `ea` took, and executes the
    /// reference again until it completes (DESIGN.md §16): a TLB miss
    /// reloads the translation or takes a page fault, a store through a
    /// read-only entry breaks copy-on-write, and an unaudited hit is audited
    /// and then served without its audit mark. `n_insns` is the fetch
    /// length of an instruction fetch. Returns the cycles since the
    /// reference began (a miss charges nothing). Fails when the fault path
    /// killed the task (SIGSEGV, SIGBUS, the OOM killer) or could not get
    /// memory.
    ///
    /// Out of line, so the first attempt inlined into its caller stays
    /// small.
    ///
    /// # Panics
    ///
    /// Panics if translation does not converge — a successfully serviced
    /// fault or reload must make the retry hit (simulator invariant).
    #[inline(never)]
    fn serve_miss(
        &mut self,
        ea: EffectiveAddress,
        at: AccessType,
        n_insns: u32,
        mut miss: Miss,
    ) -> KResult<Cycles> {
        let start = self.machine.cycles;
        let write = at == AccessType::DataWrite;
        // Each serviced miss is one attempt; an audit adds one to a
        // translation, so the bound is twice the translations allowed.
        for _ in 0..16 {
            let mut audited = self.check.is_some();
            match miss {
                Miss::Tlb { va } => {
                    if !self.tlb_reload(ea, va, at) {
                        self.page_fault(ea)?;
                    }
                }
                Miss::Protection { pa, cached } => {
                    // The hit itself is the observation the oracle audits —
                    // checked even though it protection-faults.
                    self.check_on_tlb_hit(ea, at, pa, cached, false);
                    self.protection_fault(ea)?;
                }
                Miss::Unaudited {
                    bat,
                    pa,
                    cached,
                    writable,
                } => {
                    if bat {
                        self.check_on_bat_hit(ea, at, pa, cached);
                    } else {
                        self.check_on_tlb_hit(ea, at, pa, cached, writable);
                    }
                    // The audit may leave no mark (a BAT whose whole block
                    // is not legal): the audited hit is served without one.
                    audited = false;
                }
            }
            let done = match (at, audited) {
                (AccessType::InsnFetch, true) => self.machine.exec_code::<true>(ea, n_insns),
                (AccessType::InsnFetch, false) => self.machine.exec_code::<false>(ea, n_insns),
                (_, true) => self.machine.data_ref::<true>(ea, write),
                (_, false) => self.machine.data_ref::<false>(ea, write),
            };
            match done {
                Ok(_) => return Ok(self.machine.cycles - start),
                Err(m) => miss = m,
            }
        }
        panic!("translation for {:#x} did not converge", ea.0)
    }

    /// A kernel data reference through the linear map. Infallible: the
    /// linear map is definitionally valid, kernel structures are never
    /// paged, and the injector never fails kernel-side reloads into a fault.
    pub fn kdata_ref(&mut self, pa: PhysAddr, write: bool) -> Cycles {
        self.data_ref(pa_to_kva(pa), write)
            .expect("kernel linear-map access cannot fault")
    }

    /// Touches the `mem_map` entry (`struct page`) for the frame holding
    /// `pa` — every allocator and page-cache operation does this.
    pub fn mem_map_ref(&mut self, pa: PhysAddr, write: bool) -> Cycles {
        let pfn = pa >> 12;
        self.kdata_ref(
            layout::MEM_MAP_PA + pfn * layout::MEM_MAP_ENTRY_BYTES,
            write,
        )
    }

    /// Touches a kernel metadata structure (inode, buffer head, vma, pipe
    /// inode...) identified by `tag`. Metadata is spread across the kernel
    /// data region, exactly like slab-allocated structures — this spread is
    /// what gives the kernel its TLB footprint ("33% of the TLB entries
    /// under Linux/PPC were for kernel text, data and I/O pages", §5.1)
    /// when the kernel is not BAT-mapped.
    pub fn kmeta_ref(&mut self, tag: u32, write: bool) -> Cycles {
        let region_pages = layout::KERNEL_DATA_BYTES / PAGE_SIZE;
        let page = tag.wrapping_mul(2654435761) % region_pages;
        let off = (tag.wrapping_mul(40503) % (PAGE_SIZE / 64)) * 64;
        self.kdata_ref(layout::KERNEL_DATA_PA + page * PAGE_SIZE + off, write)
    }

    /// Runs a named kernel code path for `insns` instructions: I-side
    /// traffic through the kernel mapping (BATs or PTEs — this is where the
    /// kernel's TLB footprint comes from, §5.1).
    ///
    /// Real kernel code is loops and calls into helpers, not `insns * 4`
    /// bytes of straight-line text: each path executes 128-instruction
    /// chunks spread over a text span that grows with the path length
    /// (roughly one page of text per 250 instructions of path, capped at
    /// 12 pages). Long tuned paths therefore stay I-cache- and I-TLB-small
    /// while the original kernel's fat paths have the large text footprint
    /// the paper complains about ("careful design to minimize the OS caching
    /// footprint").
    pub fn run_kernel_path(&mut self, path: layout::KernelPath, insns: u32) {
        let span_pages = (1 + insns / 250).min(12);
        let base = path.text_ea().0;
        let mut remaining = insns;
        let mut chunk_idx = 0;
        while remaining > 0 {
            let chunk = remaining.min(128);
            let page = chunk_idx % span_pages;
            let ea = EffectiveAddress(base + page * PAGE_SIZE + (chunk_idx % 4) * 1024);
            // Three quarters of each chunk are loop iterations over lines
            // just fetched; only a quarter advances through fresh text. The
            // I-cache (not this model) decides whether the fresh lines hit.
            let fresh = (chunk / 4).max(chunk.min(16));
            self.exec_code(ea, fresh)
                .expect("kernel text access cannot fault");
            self.machine.charge((chunk - fresh) as Cycles);
            remaining -= chunk;
            chunk_idx += 1;
        }
    }

    /// User data accesses: `len` bytes starting at `ea` (read or write), one
    /// reference per 32-byte line, as a user-mode copy loop would generate.
    /// An access outside the task's VMAs kills it (SIGSEGV) and fails.
    pub fn user_access(&mut self, ea: u32, len: u32, write: bool) -> KResult<Cycles> {
        let start = self.machine.cycles;
        let line = 32;
        let mut off = 0;
        while off < len {
            self.data_ref(EffectiveAddress(ea + off), write)?;
            off += line;
        }
        Ok(self.machine.cycles - start)
    }

    /// Convenience: write `len` bytes of user memory at `ea`.
    pub fn user_write(&mut self, ea: u32, len: u32) -> KResult<Cycles> {
        self.user_access(ea, len, true)
    }

    /// Convenience: read `len` bytes of user memory at `ea`.
    pub fn user_read(&mut self, ea: u32, len: u32) -> KResult<Cycles> {
        self.user_access(ea, len, false)
    }

    /// The TLB-miss reload path. Returns `false` when neither the hash table
    /// nor the Linux page tables hold a translation (a real page fault).
    fn tlb_reload(&mut self, ea: EffectiveAddress, va: VirtualAddress, at: AccessType) -> bool {
        use ppc_machine::CpuModel;
        let kernel_side = !is_user(ea);
        if kernel_side {
            self.stats.kernel_reloads += 1;
        }
        self.t_event(|| TraceEvent::TlbMiss {
            ea: ea.0,
            kernel: kernel_side,
        });
        // A nested miss while already reloading (SlowC handler touching
        // kernel text/data) takes the minimal assembly path and resolves
        // from the linear map directly. (Any open Translate span from the
        // outer reload already attributes these cycles.)
        if self.in_reload {
            assert!(kernel_side, "user access inside a reload handler");
            self.machine
                .charge(self.machine.cfg.costs.tlb_miss_invoke_return.max(32));
            return self.install_kernel_linear(ea, va, at);
        }
        self.span(Subsystem::Translate, |k| {
            k.in_reload = true;
            let ok = match k.machine.cfg.model {
                CpuModel::Ppc604 => k.reload_604(ea, va, at),
                CpuModel::Ppc603 => k.reload_603(ea, va, at),
            };
            k.in_reload = false;
            ok
        })
    }

    /// 604: hardware hash-table walk, then (on miss) the software handler.
    fn reload_604(&mut self, ea: EffectiveAddress, va: VirtualAddress, at: AccessType) -> bool {
        let costs = self.machine.cfg.costs;
        self.machine.charge(costs.hw_walk_overhead);
        if self.htab_lookup_reload(va, at) {
            return true;
        }
        // Hash-table miss interrupt: "at least 91 more cycles to just invoke
        // the handler" (§5).
        self.machine.charge(costs.htab_miss_interrupt);
        self.run_handler_body();
        self.reload_from_linux_pt(ea, va, at, true)
    }

    /// 603: software TLB-miss handler.
    ///
    /// * [`HandlerStyle::SlowC`] is the original kernel: *every* miss turns
    ///   the MMU on, saves state and runs the C handler ("Originally, we
    ///   turned the MMU on, saved state and jumped to fault handlers written
    ///   in C", §6.1).
    /// * [`HandlerStyle::FastAsm`] resolves the common case entirely in the
    ///   hand-scheduled stub using only the four swapped registers, reaching
    ///   C only when the mapping is not where the stub can find it.
    fn reload_603(&mut self, ea: EffectiveAddress, va: VirtualAddress, at: AccessType) -> bool {
        let costs = self.machine.cfg.costs;
        // "32 cycles simply to invoke and return from the handler" (§5).
        self.machine.charge(costs.tlb_miss_invoke_return);
        // The handler stub itself (physical fetch, tiny).
        let stub = self.paths.fault_asm;
        self.machine.exec_code_pa(HANDLER_STUB_PA, stub, true);
        if self.cfg.handler == HandlerStyle::SlowC {
            // The original path pays the full save + C handler on every miss.
            self.run_handler_body();
        }
        if self.cfg.htab_on_603 {
            // Emulate the 604: search the hash table in software.
            if self.htab_lookup_reload(va, at) {
                return true;
            }
            // Emulated hash-table miss: the fast kernel only reaches C here.
            if self.cfg.handler == HandlerStyle::FastAsm {
                self.run_handler_body_fast_fallback();
            }
            self.reload_from_linux_pt(ea, va, at, true)
        } else {
            // §6.2 "Improving hash tables away": go straight to the Linux
            // PTE tree — three loads in the worst case.
            self.reload_from_linux_pt(ea, va, at, false)
        }
    }

    /// The fast kernel's C fallback when the assembly path cannot resolve a
    /// miss: shorter than the original handler (state already minimal).
    fn run_handler_body_fast_fallback(&mut self) {
        let insns = self.paths.fault_c / 2;
        self.run_kernel_path(layout::KernelPath::FaultHandler, insns);
    }

    /// Searches the hash table and reloads the TLB on a hit. Probe traffic
    /// is charged through the data cache (or uncached, per §8's experiment).
    fn htab_lookup_reload(&mut self, va: VirtualAddress, at: AccessType) -> bool {
        if self.injected(InjectSite::TlbFault) {
            // Injected reload fault: the entry is *lost* — physically
            // invalidated, not merely overlooked — so the Linux-PT reinstall
            // that follows cannot create a duplicate hash-table entry for
            // the same (vsid, page). (A duplicate would outlive the next
            // per-page flush, which clears only the copy it finds: exactly
            // the stale-translation hazard the shadow oracle exists to
            // catch, and how it was first caught.) No cycles are charged:
            // uninjected runs are untouched, and within injected runs the
            // fault is the adversity, not a cost model.
            if self.htab.invalidate(va.vsid, va.page_index).1 {
                self.vsids.note_removed(va.vsid);
            }
            self.stats.htab_misses += 1;
            return false;
        }
        let cached = self.cfg.htab_cached;
        let mut probe_cycles: Cycles = 0;
        let machine = &mut self.machine;
        let out = self.htab.search_with(va.vsid, va.page_index, |pa, slots| {
            probe_cycles += machine
                .mem
                .data_run(pa, slots, PTE_BYTES, AccessKind::Read, cached);
        });
        machine.charge(probe_cycles);
        match out.pte {
            Some(pte) => {
                self.check_on_htab_hit(va, &pte);
                self.machine.mmu.reload(
                    at,
                    ppc_mmu::tlb::TlbEntry {
                        vsid: va.vsid,
                        page_index: va.page_index,
                        rpn: pte.rpn,
                        cached: !pte.cache_inhibited,
                        writable: pte.pp == 2,
                    },
                );
                self.stats.tlb_reloads += 1;
                self.stats.htab_hits += 1;
                true
            }
            None => {
                self.stats.htab_misses += 1;
                false
            }
        }
    }

    /// The C/asm handler body that runs after a hash-table miss.
    fn run_handler_body(&mut self) {
        match self.cfg.handler {
            HandlerStyle::FastAsm => {
                // Short asm path, still MMU-off; no state save beyond the
                // four swapped registers.
                self.machine
                    .exec_code_pa(HANDLER_STUB_PA + 0x100, self.paths.fault_asm, true);
            }
            HandlerStyle::SlowC => {
                // "we turned the MMU on, saved state and jumped to fault
                // handlers written in C" (§6.1).
                let stack = self.kernel_stack_pa();
                let save = self
                    .machine
                    .mem
                    .data_run(stack, 24, 4, AccessKind::Write, true);
                self.machine.charge(save);
                let insns = self.paths.fault_c;
                self.run_kernel_path(layout::KernelPath::FaultHandler, insns);
                let restore = self
                    .machine
                    .mem
                    .data_run(stack, 24, 4, AccessKind::Read, true);
                self.machine.charge(restore);
            }
        }
    }

    /// Physical address of the current kernel stack (per task).
    fn kernel_stack_pa(&self) -> PhysAddr {
        match self.current {
            Some(i) => self.tasks[i].task_struct_pa() + 0x200,
            None => layout::KERNEL_DATA_PA + 0x8_0000,
        }
    }

    /// Reloads from the Linux page tables (and optionally installs the PTE
    /// in the hash table). Returns `false` if no mapping exists.
    fn reload_from_linux_pt(
        &mut self,
        ea: EffectiveAddress,
        va: VirtualAddress,
        at: AccessType,
        insert_htab: bool,
    ) -> bool {
        if is_io(ea) {
            // I/O aperture: identity, uncached, not in the page tables.
            return self.install_translation(va, ea.0 >> 12, false, true, at, insert_htab);
        }
        let pt = if is_kernel_linear(ea) {
            self.kernel_pt
        } else {
            match self.current {
                Some(i) => self.tasks[i].pt,
                None => return false,
            }
        };
        let pt_cached = self.cfg.linux_pt_cached;
        // Load 1: current->mm->pgd (in the task struct / kernel data).
        let ts = self.kernel_stack_pa() & !0x3ff;
        let mut c = self.machine.mem.data_read(ts + 0x40, true);
        let walk = pt.walk(&self.phys, ea);
        // Load 2: the PGD entry.
        c += self.machine.mem.data_read(walk.pgd_entry_pa, pt_cached);
        if let Some(pte_pa) = walk.pte_entry_pa {
            // Load 3: the PTE itself.
            c += self.machine.mem.data_read(pte_pa, pt_cached);
        }
        self.machine.charge(c);
        match walk.pte {
            Some(pte) => self.install_translation(
                va,
                pte.pfn(),
                pte.cached(),
                pte.writable(),
                at,
                insert_htab,
            ),
            None if is_kernel_linear(ea) => {
                // The kernel linear map is definitionally valid: build the
                // missing kernel PTE on first touch (boot-time population,
                // charged once).
                self.install_kernel_linear(ea, va, at)
            }
            None => false,
        }
    }

    /// Creates the kernel linear-map PTE for `ea` and installs it.
    fn install_kernel_linear(
        &mut self,
        ea: EffectiveAddress,
        va: VirtualAddress,
        at: AccessType,
    ) -> bool {
        let pfn = layout::kva_to_pa(ea) >> 12;
        let pte = crate::linuxpt::LinuxPte::present(pfn, crate::linuxpt::PTE_RW);
        let pt = self.kernel_pt;
        let frames = &mut self.frames;
        pt.map(&mut self.phys, ea, pte, || frames.get_pt_page())
            .expect("page-table pool exhausted for kernel map");
        let insert = self.uses_htab();
        self.install_translation(va, pfn, true, true, at, insert)
    }

    /// Whether this kernel keeps PTEs in the hash table at all.
    pub fn uses_htab(&self) -> bool {
        match self.machine.cfg.model {
            ppc_machine::CpuModel::Ppc604 => true,
            ppc_machine::CpuModel::Ppc603 => self.cfg.htab_on_603,
        }
    }

    /// Installs a translation into the TLB (and the hash table when asked),
    /// charging the insert traffic and classifying any displaced entry.
    fn install_translation(
        &mut self,
        va: VirtualAddress,
        pfn: u32,
        cached: bool,
        writable: bool,
        at: AccessType,
        insert_htab: bool,
    ) -> bool {
        // Legality begins now, before the physical insert: the hash-table
        // span below ends with a span transition, and a heavy sweep landing
        // on it must already find the new entry legal.
        self.check_note_install(va, pfn, cached, writable);
        // An injected overflow behaves as if both candidate PTEGs were full:
        // the translation reaches the TLB but not the hash table, so the
        // next miss on it re-walks the Linux page tables.
        let insert_htab = if insert_htab && self.injected(InjectSite::HtabOverflow) {
            self.stats.htab_overflows += 1;
            false
        } else {
            insert_htab
        };
        if insert_htab {
            self.span(Subsystem::HtabInsert, |k| {
                let hw_pte = ppc_mmu::pte::Pte {
                    valid: true,
                    vsid: va.vsid,
                    secondary: false,
                    page_index: va.page_index,
                    rpn: pfn,
                    referenced: true,
                    changed: at == AccessType::DataWrite,
                    cache_inhibited: !cached,
                    pp: if writable { 2 } else { 1 },
                };
                let htab_cached = k.cfg.htab_cached;
                let mut cost: Cycles = 0;
                let machine = &mut k.machine;
                let out = k.htab.insert_with(hw_pte, |pa, slots| {
                    cost +=
                        machine
                            .mem
                            .data_run(pa, slots, PTE_BYTES, AccessKind::Read, htab_cached);
                });
                // The final slot write.
                let (g, s) = out.location;
                let pa = k.htab.slot_pa(g, s);
                cost += k.machine.mem.data_write(pa, htab_cached);
                k.machine.charge(cost);
                if out.overflow {
                    k.stats.htab_overflows += 1;
                }
                k.vsids.note_added(va.vsid);
                let evicted = out.displaced.is_some_and(|d| d.valid);
                k.t_event(|| TraceEvent::HtabInsert { pteg: g, evicted });
                if let Some(t) = k.tracer.as_mut() {
                    t.count_htab_insert(g, evicted);
                }
                if let Some(d) = out.displaced {
                    if d.valid {
                        if k.vsids.note_removed(d.vsid) {
                            k.stats.evict_live += 1;
                        } else {
                            k.stats.evict_zombie += 1;
                        }
                        if k.cfg.scarcity_reclaim {
                            // The §7-rejected design: the table just proved
                            // scarce, so scan a batch for zombies *now*, on the
                            // faulting task's time.
                            let cached = k.cfg.htab_cached;
                            k.reclaim_chunk(32, cached);
                        }
                    }
                }
            });
        }
        self.machine.mmu.reload(
            at,
            ppc_mmu::tlb::TlbEntry {
                vsid: va.vsid,
                page_index: va.page_index,
                rpn: pfn,
                cached,
                writable,
            },
        );
        self.stats.tlb_reloads += 1;
        true
    }

    /// Rolls the injector at `site`; counts a hit.
    #[inline]
    pub(crate) fn injected(&mut self, site: InjectSite) -> bool {
        let hit = self.injector.as_mut().is_some_and(|i| i.roll(site));
        if hit {
            self.stats.injected_faults += 1;
        }
        hit
    }

    /// Converts a cycle count to microseconds on this machine's clock.
    pub fn time_us(&self, cycles: Cycles) -> f64 {
        self.machine.time_of(cycles).as_us()
    }

    /// Number of frames currently shared copy-on-write between address
    /// spaces.
    pub fn shared_frames_len(&self) -> usize {
        self.shared_frames.len()
    }
}
