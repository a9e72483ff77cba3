//! Kernel configuration: every optimization in the paper as a toggle.

use ppc_machine::pmu::{Mmcr0, PmcEvent};

/// How the kernel programs the 604 performance-monitor unit
/// ([`ppc_machine::pmu`]) at boot.
///
/// Two shapes matter:
/// * **counting** — select an event per PMC and read the totals at the end
///   of the window (the paper's §4 methodology);
/// * **sampling** — PMC1 counts cycles preloaded to go negative every
///   `sample_period` cycles, and the performance-monitor interrupt captures
///   task/privilege/span, which is what `repro perf record` builds on.
///
/// Like all PMU work, this is observational *except* for the sampling
/// interrupts themselves, whose handler cost is charged to the run — a
/// sampled kernel is measurably (and deliberately) slower than an
/// unsampled one, and E-PMU quantifies by how much.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmuConfig {
    /// Cycles between sampling interrupts; 0 disables sampling (PMC1 then
    /// counts `pmc1` like a plain event counter).
    pub sample_period: u32,
    /// PMC1 event select when not sampling (sampling forces cycles).
    pub pmc1: PmcEvent,
    /// PMC2 event select (free for any event even while sampling).
    pub pmc2: PmcEvent,
    /// `MMCR0[FCS]`: don't count in supervisor state.
    pub freeze_supervisor: bool,
    /// `MMCR0[FCP]`: don't count in problem (user) state.
    pub freeze_problem: bool,
    /// `MMCR0[THRESHOLD]` for [`PmcEvent::ThresholdExceeded`], in cycles.
    pub threshold: u32,
}

impl PmuConfig {
    /// Cycle sampling every `period` cycles (PMC2 left free).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn sampling(period: u32) -> Self {
        assert!(period > 0, "sample period must be positive");
        Self {
            sample_period: period,
            pmc1: PmcEvent::Cycles,
            pmc2: PmcEvent::None,
            freeze_supervisor: false,
            freeze_problem: false,
            threshold: 0,
        }
    }

    /// Plain event counting, no interrupts.
    pub fn counting(pmc1: PmcEvent, pmc2: PmcEvent) -> Self {
        Self {
            sample_period: 0,
            pmc1,
            pmc2,
            freeze_supervisor: false,
            freeze_problem: false,
            threshold: 0,
        }
    }

    /// The MMCR0 image this configuration programs at boot.
    pub fn mmcr0(&self) -> Mmcr0 {
        let sampling = self.sample_period > 0;
        Mmcr0 {
            freeze: false,
            freeze_supervisor: self.freeze_supervisor,
            freeze_problem: self.freeze_problem,
            enint: sampling,
            threshold: self.threshold,
            pmc1: if sampling {
                PmcEvent::Cycles
            } else {
                self.pmc1
            },
            pmc2: self.pmc2,
        }
    }
}

/// How VSIDs are assigned to address spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VsidPolicy {
    /// Derive VSIDs from the process identifier: `vsid = pid * constant + sr`
    /// (paper §5.2). The scatter `constant` is the tuning knob — a small
    /// non-power-of-two spreads PTEs across the hash table; a power of two
    /// creates hot-spots.
    PidScatter {
        /// The multiplier applied to the PID.
        constant: u32,
    },
    /// A monotonically increasing memory-management context counter
    /// (paper §7): each (re)assignment takes fresh VSIDs, which is what makes
    /// lazy flushing possible — old VSIDs become zombies instead of being
    /// searched out of the hash table.
    ContextCounter {
        /// The scatter multiplier applied to the context number.
        constant: u32,
    },
}

impl VsidPolicy {
    /// The scatter constant in use.
    pub fn constant(self) -> u32 {
        match self {
            VsidPolicy::PidScatter { constant } | VsidPolicy::ContextCounter { constant } => {
                constant
            }
        }
    }
}

/// The TLB-miss / hash-table-miss handler implementation (paper §6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandlerStyle {
    /// The original approach: "we turned the MMU on, saved state and jumped
    /// to fault handlers written in C".
    SlowC,
    /// The rewritten handlers: hand-scheduled assembly using only the four
    /// swapped registers, MMU off, shortest possible path.
    FastAsm,
}

/// Page-clearing policy (paper §9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageClearing {
    /// No idle clearing: `get_free_page()` clears on demand (baseline).
    OnDemand,
    /// Idle task clears pages *through the cache* and lists them — the §9
    /// "optimization" that made the kernel compile nearly twice as slow.
    IdleCached,
    /// Idle task clears pages with the cache inhibited but does **not** put
    /// them on the pre-cleared list (§9's control experiment: no gain, no
    /// loss).
    IdleUncachedNoList,
    /// Idle task clears pages cache-inhibited and lists them for
    /// `get_free_page()` — the configuration that "became much faster".
    IdleUncached,
}

impl PageClearing {
    /// Whether the idle task clears pages at all under this policy.
    pub fn idle_clears(self) -> bool {
        !matches!(self, PageClearing::OnDemand)
    }

    /// Whether cleared pages are remembered on the pre-cleared list.
    pub fn uses_list(self) -> bool {
        matches!(self, PageClearing::IdleCached | PageClearing::IdleUncached)
    }

    /// Whether clearing goes through the data cache.
    pub fn through_cache(self) -> bool {
        matches!(self, PageClearing::IdleCached)
    }
}

/// The complete kernel policy configuration.
///
/// [`KernelConfig::unoptimized`] is the paper's baseline kernel;
/// [`KernelConfig::optimized`] is the end state with every published
/// optimization enabled. Individual experiments flip one field at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelConfig {
    /// Map kernel text/data (and the linear map, covering htab and page
    /// tables) with BAT registers instead of PTEs (paper §5.1).
    pub use_bats: bool,
    /// Dedicate a data BAT to the I/O / frame-buffer aperture (§5.1 — the
    /// paper found this did not help much).
    pub io_bat: bool,
    /// VSID allocation policy.
    pub vsid_policy: VsidPolicy,
    /// TLB-miss handler implementation (§6.1).
    pub handler: HandlerStyle,
    /// On the 603, keep emulating the 604's hash-table search in the
    /// software TLB-miss handler (`true`) or reload straight from the Linux
    /// page tables, "improving hash tables away" (`false`, §6.2). Ignored on
    /// the 604, whose hardware forces the hash table.
    pub htab_on_603: bool,
    /// Lazy TLB flushes: retire the whole context by bumping VSIDs instead
    /// of searching the hash table (§7). Requires
    /// [`VsidPolicy::ContextCounter`].
    pub lazy_flush: bool,
    /// Range-flush cutoff in pages (§7): ranges larger than this flush the
    /// whole context (when lazy flushing is on) instead of per-page
    /// searches. `None` means always flush per page. The paper settled on
    /// 20 pages.
    pub flush_cutoff_pages: Option<u32>,
    /// Idle-task zombie-PTE reclaim (§7).
    pub idle_reclaim: bool,
    /// The design §7 describes and rejects: reclaim zombies *synchronously*
    /// when an insert finds the table scarce ("clear them when hash table
    /// space became scarce") — the cost lands on whoever faulted, making
    /// "performance ... inconsistent". Implemented for the ablation that
    /// quantifies that inconsistency.
    pub scarcity_reclaim: bool,
    /// Page-clearing policy (§9).
    pub page_clearing: PageClearing,
    /// Whether hash-table accesses go through the data cache (§8 analyses
    /// the pollution this causes; `false` models the proposed uncached page
    /// tables).
    pub htab_cached: bool,
    /// Whether Linux page-table walks go through the data cache (§8).
    pub linux_pt_cached: bool,
    /// Lock the idle task's cache lines / run the idle loop effectively
    /// uncached (§10.1 future work).
    pub idle_cache_lock: bool,
    /// Software cache preloads in context-switch and interrupt entry code
    /// (§10.2 future work).
    pub cache_preloads: bool,
    /// Seeded fault injection (allocation failures, hash-table overflow,
    /// forced TLB-reload misses). `None` disables injection entirely.
    pub fault_injection: Option<crate::inject::FaultInjection>,
    /// Event tracing and cycle-attribution profiling ([`crate::trace`],
    /// [`crate::prof`]). Purely observational: a traced run charges exactly
    /// the same cycles as an untraced one; disabled, the kernel carries no
    /// tracer and every hook is a single branch.
    pub trace: bool,
    /// Trace-ring capacity (newest-N events kept) when `trace` is on.
    pub trace_ring_capacity: usize,
    /// Performance-monitor unit programming. `None` boots the machine with
    /// no PMU at all — such runs are cycle-identical to pre-PMU kernels.
    pub pmu: Option<PmuConfig>,
    /// Time-series MMU telemetry ([`crate::telemetry`]): a periodic epoch
    /// sampler at span transitions. Purely observational like the tracer —
    /// a sampled run is cycle-identical to an unsampled one; `None` carries
    /// no sampler and the hook is a single branch.
    pub telemetry: Option<crate::telemetry::TelemetryConfig>,
    /// PMU-guided adaptive MMU tuning ([`crate::tune`]): an epoch controller
    /// that retunes BAT coverage, hash-table size, and the VSID scatter
    /// constant online from PMU event deltas and PTEG collision pressure.
    /// Unlike the observability features above this one *changes* the run —
    /// retune work is charged honestly — but `None` carries no controller
    /// and the hook is a single branch, cycle-identical to pre-mmtune
    /// kernels. Deliberately excluded from [`KernelConfig::summary`]: a
    /// tuned run and its static baseline measure the same workload axes.
    pub mmtune: Option<crate::tune::MmtuneConfig>,
    /// Runtime MM consistency checking ([`crate::check`]): the shadow
    /// translation oracle plus ported SchedInv/MMInv invariants, evaluated
    /// at span transitions. Purely observational and host-side: a checked
    /// run charges exactly the same cycles and counts exactly the same
    /// [`crate::KernelStats`] as an unchecked one; `None` carries no checker
    /// and the hook is a single branch. Excluded from
    /// [`KernelConfig::summary`] for the same reason as `mmtune`: artifacts
    /// produced under checking carry their own `check` header instead, and
    /// the differ refuses to compare across it.
    pub check: Option<crate::check::CheckConfig>,
    /// Tail-latency forensics ([`crate::tail`]): capture slow
    /// instrumented-path samples as exemplars with causal context. Purely
    /// observational like the tracer and checker — a tail-armed traced run
    /// charges exactly the same cycles and counts exactly the same
    /// [`crate::KernelStats`] as a plain traced one. Requires `trace` (the
    /// capture reads the histograms, span stack and trace ring). Excluded
    /// from [`KernelConfig::summary`]: an observer, not a kernel toggle.
    pub tail: Option<crate::tail::TailConfig>,

    /// Causal what-if profiling (DESIGN.md §15): integer fixed-point
    /// multipliers applied to cycle charges by profiler subsystem and by
    /// instrumented path, so a run can measure the *exact* end-to-end
    /// effect of a hypothetical speedup. `None` and an all-1/1 config are
    /// cycle- and counter-identical to a plain run (gated in CI). Excluded
    /// from [`KernelConfig::summary`]; the `mmu-tricks-causal-v1` artifact
    /// carries its own `causal` header instead.
    pub causal: Option<crate::causal::CausalConfig>,
}

impl KernelConfig {
    /// The paper's baseline: the original Linux/PPC kernel before the
    /// optimization campaign.
    pub fn unoptimized() -> Self {
        Self {
            use_bats: false,
            io_bat: false,
            // The original strategy was already PID-derived with a scatter
            // multiplier (§5.2 "The obvious strategy"), just untuned.
            vsid_policy: VsidPolicy::PidScatter { constant: 16 },
            handler: HandlerStyle::SlowC,
            htab_on_603: true,
            lazy_flush: false,
            flush_cutoff_pages: None,
            idle_reclaim: false,
            scarcity_reclaim: false,
            page_clearing: PageClearing::OnDemand,
            htab_cached: true,
            linux_pt_cached: true,
            idle_cache_lock: false,
            cache_preloads: false,
            fault_injection: None,
            trace: false,
            trace_ring_capacity: crate::trace::DEFAULT_RING_CAPACITY,
            pmu: None,
            telemetry: None,
            mmtune: None,
            check: None,
            tail: None,
            causal: None,
        }
    }

    /// Every published optimization enabled (the kernel of Tables 1–3's
    /// "Linux/PPC" rows).
    pub fn optimized() -> Self {
        Self {
            use_bats: true,
            io_bat: false,
            vsid_policy: VsidPolicy::ContextCounter { constant: 897 },
            handler: HandlerStyle::FastAsm,
            htab_on_603: false,
            lazy_flush: true,
            flush_cutoff_pages: Some(20),
            idle_reclaim: true,
            scarcity_reclaim: false,
            page_clearing: PageClearing::IdleUncached,
            htab_cached: true,
            linux_pt_cached: true,
            idle_cache_lock: false,
            cache_preloads: false,
            fault_injection: None,
            trace: false,
            trace_ring_capacity: crate::trace::DEFAULT_RING_CAPACITY,
            pmu: None,
            telemetry: None,
            mmtune: None,
            check: None,
            tail: None,
            causal: None,
        }
    }

    /// The optimized kernel plus the paper's §10 future-work extensions
    /// (uncached page tables, idle cache locking, cache preloads).
    pub fn extended() -> Self {
        Self {
            htab_cached: false,
            linux_pt_cached: false,
            idle_cache_lock: true,
            cache_preloads: true,
            ..Self::optimized()
        }
    }

    /// A deterministic one-line summary of every paper-relevant toggle, for
    /// artifact headers (the perf profile, the metrics, the matrix).
    /// Two runs are comparable cell-for-cell only when their summaries'
    /// *shapes* match; the differ uses this string to refuse cross-machine
    /// or cross-schema comparisons with a clear error instead of emitting
    /// nonsense deltas.
    pub fn summary(&self) -> String {
        let vsid = match self.vsid_policy {
            VsidPolicy::PidScatter { constant } => format!("pid*{constant}"),
            VsidPolicy::ContextCounter { constant } => format!("ctx*{constant}"),
        };
        let handler = match self.handler {
            HandlerStyle::SlowC => "slow_c",
            HandlerStyle::FastAsm => "fast_asm",
        };
        let clearing = match self.page_clearing {
            PageClearing::OnDemand => "on_demand",
            PageClearing::IdleCached => "idle_cached",
            PageClearing::IdleUncachedNoList => "idle_uncached_nolist",
            PageClearing::IdleUncached => "idle_uncached",
        };
        let cutoff = match self.flush_cutoff_pages {
            Some(c) => c.to_string(),
            None => "none".to_string(),
        };
        format!(
            "bats={} io_bat={} vsid={} handler={} htab_on_603={} lazy_flush={} \
             cutoff={} idle_reclaim={} scarcity_reclaim={} clearing={} \
             htab_cached={} pt_cached={} idle_cache_lock={} cache_preloads={}",
            u8::from(self.use_bats),
            u8::from(self.io_bat),
            vsid,
            handler,
            u8::from(self.htab_on_603),
            u8::from(self.lazy_flush),
            cutoff,
            u8::from(self.idle_reclaim),
            u8::from(self.scarcity_reclaim),
            clearing,
            u8::from(self.htab_cached),
            u8::from(self.linux_pt_cached),
            u8::from(self.idle_cache_lock),
            u8::from(self.cache_preloads),
        )
    }

    /// Checks internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if lazy flushing is requested without the context-counter VSID
    /// policy (the mechanism it depends on), or if a zero scatter constant
    /// is configured.
    pub fn validate(&self) {
        if self.lazy_flush {
            assert!(
                matches!(self.vsid_policy, VsidPolicy::ContextCounter { .. }),
                "lazy flushes require the context-counter VSID policy"
            );
        }
        assert!(
            self.vsid_policy.constant() > 0,
            "scatter constant must be nonzero"
        );
        if let Some(c) = self.flush_cutoff_pages {
            assert!(c > 0, "flush cutoff must be positive");
        }
        assert!(
            self.trace_ring_capacity > 0,
            "trace ring capacity must be positive"
        );
        if let Some(tc) = self.tail {
            assert!(
                self.trace,
                "tail forensics requires tracing (it reads the histograms, \
                 span stack and trace ring)"
            );
            tc.validate();
        }
        if let Some(cc) = self.causal {
            cc.validate();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        KernelConfig::unoptimized().validate();
        KernelConfig::optimized().validate();
        KernelConfig::extended().validate();
    }

    #[test]
    fn optimized_uses_paper_settings() {
        let c = KernelConfig::optimized();
        assert!(c.use_bats && c.lazy_flush && c.idle_reclaim);
        assert_eq!(c.flush_cutoff_pages, Some(20), "paper §7: 20-page cutoff");
        assert_eq!(c.handler, HandlerStyle::FastAsm);
        assert!(!c.htab_on_603, "§6.2: hash table improved away on the 603");
        assert_eq!(c.page_clearing, PageClearing::IdleUncached);
    }

    #[test]
    fn summary_is_deterministic_and_distinguishes_presets() {
        let u = KernelConfig::unoptimized().summary();
        let o = KernelConfig::optimized().summary();
        assert_eq!(u, KernelConfig::unoptimized().summary());
        assert_ne!(u, o);
        assert!(
            u.contains("handler=slow_c") && u.contains("vsid=pid*16"),
            "{u}"
        );
        assert!(o.contains("cutoff=20") && o.contains("vsid=ctx*897"), "{o}");
        // Every toggle appears exactly once, space-separated key=value.
        for part in o.split(' ') {
            assert_eq!(part.matches('=').count(), 1, "{part}");
        }
    }

    #[test]
    #[should_panic(expected = "tail forensics requires tracing")]
    fn tail_requires_trace() {
        let mut c = KernelConfig::optimized();
        c.tail = Some(crate::tail::TailConfig::auto());
        c.validate();
    }

    #[test]
    fn tail_with_trace_validates() {
        let mut c = KernelConfig::optimized();
        c.trace = true;
        c.tail = Some(crate::tail::TailConfig::auto());
        c.validate();
    }

    #[test]
    fn presets_leave_causal_off_and_identity_validates() {
        assert!(KernelConfig::unoptimized().causal.is_none());
        assert!(KernelConfig::optimized().causal.is_none());
        assert!(KernelConfig::extended().causal.is_none());
        let mut c = KernelConfig::optimized();
        c.causal = Some(crate::causal::CausalConfig::identity());
        c.validate();
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn causal_zero_denominator_is_rejected() {
        let mut c = KernelConfig::optimized();
        let bad = crate::causal::Ratio { num: 1, den: 0 };
        c.causal = Some(
            crate::causal::CausalConfig::identity()
                .scale_path(crate::causal::CausalPath::Flush, bad),
        );
        c.validate();
    }

    #[test]
    fn summary_excludes_causal() {
        let mut c = KernelConfig::optimized();
        let plain = c.summary();
        c.causal = Some(crate::causal::CausalConfig::identity());
        assert_eq!(c.summary(), plain, "causal is observational scaffolding");
    }

    #[test]
    #[should_panic(expected = "lazy flushes require")]
    fn lazy_flush_requires_context_counter() {
        let mut c = KernelConfig::optimized();
        c.vsid_policy = VsidPolicy::PidScatter { constant: 897 };
        c.validate();
    }

    #[test]
    fn page_clearing_predicates() {
        assert!(!PageClearing::OnDemand.idle_clears());
        assert!(PageClearing::IdleCached.through_cache());
        assert!(!PageClearing::IdleUncached.through_cache());
        assert!(PageClearing::IdleUncached.uses_list());
        assert!(!PageClearing::IdleUncachedNoList.uses_list());
    }

    #[test]
    fn scatter_constant_accessor() {
        assert_eq!(VsidPolicy::PidScatter { constant: 7 }.constant(), 7);
        assert_eq!(VsidPolicy::ContextCounter { constant: 897 }.constant(), 897);
    }
}
