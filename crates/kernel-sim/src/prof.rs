//! Scoped cycle attribution — the profiler half of the observability layer.
//!
//! The paper's method (§4) is "watch the counters, find the hot spot". The
//! end-of-run aggregates say *how many* events happened; this module says
//! *where the cycles went*: every cycle the machine charges while a
//! subsystem span is open is attributed to that subsystem's self-time, so a
//! run can print "34% hash insert, 21% flush" instead of a raw event count.
//!
//! The kernel owns the one span stack every observer reads; it runs each
//! code path inside one span call (`Kernel::span`), which pushes and pops a
//! frame and hands the [`Profiler`] the new top of stack at every
//! transition ([`Profiler::switch`]). The cycles the machine clock advanced
//! since the previous transition are credited to the subsystem that was on
//! top until then ([`Subsystem::User`] when no span is open). Because the
//! profiler only ever *reads* the clock, the attribution sums to the total
//! cycles of the window exactly, and a traced run is cycle-identical to an
//! untraced one.

use ppc_machine::Cycles;

/// The 13-way subsystem taxonomy every charged cycle is bucketed into.
///
/// The discriminants index [`Profiler`]'s bucket array; [`Subsystem::ALL`]
/// and [`Subsystem::name`] are the single source of truth for iteration and
/// rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(usize)]
pub enum Subsystem {
    /// TLB-miss reload machinery: hash-table search, Linux page-table walk,
    /// handler invocation.
    Translate = 0,
    /// Hash-table insertion (the PTEG probe-and-displace path).
    HtabInsert = 1,
    /// TLB / hash-table flushes, per-page and whole-context.
    Flush = 2,
    /// Real page faults: demand-zero, file-backed, and COW population.
    PageFault = 3,
    /// Reclaim machinery: idle zombie sweeps, direct reclaim, the OOM scan.
    Reclaim = 4,
    /// Scheduler body and context-switch state save/restore.
    Sched = 5,
    /// Syscall entry/dispatch/exit overhead (not the bodies, which are
    /// attributed to their own subsystems).
    Syscall = 6,
    /// Signal queueing, frame setup, delivery and sigreturn.
    Signal = 7,
    /// The idle loop itself plus idle page clearing.
    Idle = 8,
    /// Process creation and exec image setup.
    Exec = 9,
    /// The performance-monitor interrupt handler (sampling overhead — the
    /// one observability path that *does* cost cycles).
    Pmu = 10,
    /// Adaptive MMU retune work ([`crate::tune`]): BAT programming, hash
    /// table rehashes, scatter updates — the control loop's charged cost.
    Mmtune = 11,
    /// Everything else: user-mode compute, pipe/file bodies, unbracketed
    /// kernel work.
    #[default]
    User = 12,
}

/// Number of subsystems (size of the bucket array).
pub const NUM_SUBSYSTEMS: usize = 13;

impl Subsystem {
    /// Every subsystem, in bucket order.
    pub const ALL: [Subsystem; NUM_SUBSYSTEMS] = [
        Subsystem::Translate,
        Subsystem::HtabInsert,
        Subsystem::Flush,
        Subsystem::PageFault,
        Subsystem::Reclaim,
        Subsystem::Sched,
        Subsystem::Syscall,
        Subsystem::Signal,
        Subsystem::Idle,
        Subsystem::Exec,
        Subsystem::Pmu,
        Subsystem::Mmtune,
        Subsystem::User,
    ];

    /// Stable machine-readable name (used in metrics.json and tables).
    pub fn name(self) -> &'static str {
        match self {
            Subsystem::Translate => "translate",
            Subsystem::HtabInsert => "htab_insert",
            Subsystem::Flush => "flush",
            Subsystem::PageFault => "page_fault",
            Subsystem::Reclaim => "reclaim",
            Subsystem::Sched => "sched",
            Subsystem::Syscall => "syscall",
            Subsystem::Signal => "signal",
            Subsystem::Idle => "idle",
            Subsystem::Exec => "exec",
            Subsystem::Pmu => "pmu",
            Subsystem::Mmtune => "mmtune",
            Subsystem::User => "user",
        }
    }
}

/// Number of instrumented paths (size of every per-path array).
pub const NUM_PATHS: usize = 5;

/// The instrumented kernel paths: the hot paths the paper's §4 method
/// watches. A causal multiplier can scale any path's *entire dynamic
/// extent* (nested spans included); the [`Path::SAMPLED`] ones also record
/// one latency sample each time the span that roots them closes. This is
/// the one place that declares which paths exist and which are sampled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Path {
    /// A hardware TLB miss serviced in software: hash-table search and (on
    /// miss) Linux page-table walk, including the nested hash-table insert.
    TlbReload = 0,
    /// A page fault from entry to return, including the reload it nests in.
    PageFault = 1,
    /// An mmtune hash-table resize: reclaim, re-insert traffic, and the
    /// charged rehash cost.
    HtabRehash = 2,
    /// A TLB/hash-table flush (context switch or munmap).
    Flush = 3,
    /// Signal delivery: frame push through sigreturn, or a fatal teardown.
    SignalDelivery = 4,
}

impl Path {
    /// Every path, in `repr` order.
    pub const ALL: [Path; NUM_PATHS] = [
        Path::TlbReload,
        Path::PageFault,
        Path::HtabRehash,
        Path::Flush,
        Path::SignalDelivery,
    ];

    /// The paths whose spans record a latency sample, in export order: the
    /// tracer's histograms, the tail reservoirs, the matrix cells and the
    /// metrics artifact list these. A sample also reaches the PMU's
    /// threshold comparator and mmtune's slow-path counter, so adding a
    /// path here moves retunes.
    pub const SAMPLED: [Path; 3] = [Path::TlbReload, Path::PageFault, Path::SignalDelivery];

    /// Stable lower-case name, used in artifacts and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            Path::TlbReload => "tlb_reload",
            Path::PageFault => "page_fault",
            Path::HtabRehash => "htab_rehash",
            Path::Flush => "flush",
            Path::SignalDelivery => "signal_delivery",
        }
    }

    /// The path a span of subsystem `s` roots, if any: pushing a Translate
    /// span enters the TLB-reload extent, and so on. Rehash has no root
    /// subsystem — the kernel marks it explicitly around the resize action.
    pub fn of_span_root(s: Subsystem) -> Option<Path> {
        match s {
            Subsystem::Translate => Some(Path::TlbReload),
            Subsystem::PageFault => Some(Path::PageFault),
            Subsystem::Flush => Some(Path::Flush),
            Subsystem::Signal => Some(Path::SignalDelivery),
            _ => None,
        }
    }
}

/// Deepest span nesting the kernel supports. The deepest chain measured in
/// the tests, a chaos fleet and the benchmark is five
/// (`PageFault › Signal › Flush › Translate › HtabInsert`).
pub(crate) const MAX_SPAN_DEPTH: usize = 16;

/// The kernel's span stack: fixed-capacity inline arrays of each open
/// span's subsystem and entry cycle, so pushing and popping never touches
/// the heap.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SpanStack {
    spans: [Subsystem; MAX_SPAN_DEPTH],
    entries: [Cycles; MAX_SPAN_DEPTH],
    len: usize,
}

impl SpanStack {
    /// Opens a span for `s`, entered at cycle `now`. Nesting deeper than
    /// [`MAX_SPAN_DEPTH`] is a simulator-internal invariant panic.
    pub(crate) fn push(&mut self, s: Subsystem, now: Cycles) {
        let slot = self.spans.get_mut(self.len);
        *slot.expect("span stack overflow: kernel paths nest at most MAX_SPAN_DEPTH deep") = s;
        self.entries[self.len] = now;
        self.len += 1;
    }

    /// The cycle the innermost open span was entered at (0 when none is).
    pub(crate) fn entry(&self) -> Cycles {
        self.len.checked_sub(1).map_or(0, |i| self.entries[i])
    }

    /// Closes the innermost span. Popping an empty stack is an unbalanced
    /// exit: a debug assertion, and a no-op in release builds.
    pub(crate) fn pop(&mut self) {
        debug_assert!(self.len > 0, "span stack underflow: exit without enter");
        self.len = self.len.saturating_sub(1);
    }

    /// The open spans, outermost first (empty = user time).
    pub(crate) fn as_slice(&self) -> &[Subsystem] {
        &self.spans[..self.len]
    }

    /// The innermost open span, or [`Subsystem::User`] when none is open.
    pub(crate) fn top(&self) -> Subsystem {
        self.as_slice().last().copied().unwrap_or(Subsystem::User)
    }
}

/// Self-time cycle attribution: one bucket per subsystem, credited at every
/// span transition.
///
/// # Examples
///
/// ```
/// use kernel_sim::prof::{Profiler, Subsystem};
///
/// let mut p = Profiler::new(0);
/// p.switch(Subsystem::Flush, 10);  // cycles 0..10 were user time
/// p.switch(Subsystem::User, 30);   // cycles 10..30 belong to the flush
/// p.finish(35);                    // trailing 5 are user time again
/// assert_eq!(p.self_cycles(Subsystem::Flush), 20);
/// assert_eq!(p.self_cycles(Subsystem::User), 15);
/// assert_eq!(p.total(), 35);
/// ```
#[derive(Debug, Clone)]
pub struct Profiler {
    buckets: [Cycles; NUM_SUBSYSTEMS],
    top: Subsystem,
    last: Cycles,
    start: Cycles,
}

impl Profiler {
    /// A profiler whose window starts at cycle `now`, in user time.
    pub fn new(now: Cycles) -> Self {
        Self {
            buckets: [0; NUM_SUBSYSTEMS],
            top: Subsystem::User,
            last: now,
            start: now,
        }
    }

    /// Credits the cycles since the last transition to the subsystem that
    /// was running, then makes `top` the running subsystem from `now` on.
    pub fn switch(&mut self, top: Subsystem, now: Cycles) {
        self.buckets[self.top as usize] += now.saturating_sub(self.last);
        self.last = now;
        self.top = top;
    }

    /// Flushes the tail of the window up to cycle `now` (call before
    /// reading the buckets; idempotent).
    pub fn finish(&mut self, now: Cycles) {
        self.switch(self.top, now);
    }

    /// Self-time cycles attributed to `s` so far.
    pub fn self_cycles(&self, s: Subsystem) -> Cycles {
        self.buckets[s as usize]
    }

    /// Sum of every bucket — equals the cycles elapsed in the window after
    /// [`Profiler::finish`].
    pub fn total(&self) -> Cycles {
        self.buckets.iter().sum()
    }

    /// The cycle the window started at.
    pub fn window_start(&self) -> Cycles {
        self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribution_sums_to_window() {
        let mut p = Profiler::new(100);
        p.switch(Subsystem::Translate, 110);
        p.switch(Subsystem::HtabInsert, 120); // nested
        p.switch(Subsystem::Translate, 150);
        p.switch(Subsystem::User, 160);
        p.finish(200);
        assert_eq!(p.self_cycles(Subsystem::User), 10 + 40);
        assert_eq!(p.self_cycles(Subsystem::Translate), 10 + 10);
        assert_eq!(p.self_cycles(Subsystem::HtabInsert), 30);
        assert_eq!(p.total(), 100);
    }

    #[test]
    fn nested_spans_credit_self_time_only() {
        let mut p = Profiler::new(0);
        p.switch(Subsystem::PageFault, 0);
        p.switch(Subsystem::Translate, 50);
        p.switch(Subsystem::PageFault, 70);
        p.switch(Subsystem::User, 100);
        p.finish(100);
        assert_eq!(p.self_cycles(Subsystem::PageFault), 80);
        assert_eq!(p.self_cycles(Subsystem::Translate), 20);
    }

    #[test]
    fn finish_is_idempotent() {
        let mut p = Profiler::new(0);
        p.switch(Subsystem::Idle, 0);
        p.switch(Subsystem::User, 40);
        p.finish(60);
        p.finish(60);
        assert_eq!(p.total(), 60);
    }

    #[test]
    #[should_panic(expected = "span stack overflow")]
    fn span_stack_overflow_is_an_invariant_panic() {
        let mut st = SpanStack::default();
        st.push(Subsystem::Flush, 7);
        assert_eq!(st.entry(), 7);
        st.pop();
        assert_eq!(st.top(), Subsystem::User);
        for _ in 0..=MAX_SPAN_DEPTH {
            st.push(Subsystem::Flush, 0);
        }
    }

    #[test]
    fn names_and_all_agree() {
        assert_eq!(Subsystem::ALL.len(), NUM_SUBSYSTEMS);
        let mut names: Vec<&str> = Subsystem::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NUM_SUBSYSTEMS, "names must be unique");
        for (i, s) in Subsystem::ALL.iter().enumerate() {
            assert_eq!(*s as usize, i, "ALL must be in bucket order");
        }
    }

    #[test]
    fn path_names_and_all_agree() {
        let mut names: Vec<&str> = Path::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NUM_PATHS, "names must be unique");
        for (i, p) in Path::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i, "ALL must be in repr order");
        }
    }
}
