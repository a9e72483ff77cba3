//! Tail-latency forensics: p99 exemplar capture and causal attribution.
//!
//! The latency histograms ([`crate::trace::Histogram`]) can say *that* a
//! reload or fault was slow, never *why*: log2 buckets keep counts, not
//! context. This module is the attribution layer. When an instrumented-path
//! latency sample lands at or above an armed threshold, the kernel captures
//! a [`TailExemplar`] — the exact latency, the kernel span stack, the
//! last-K trace-ring events as a causal window, a read-only MMU-context
//! snapshot, and the [`crate::KernelStats`] / [`ppc_mmu::HtabStats`] deltas
//! since the previous instrumented-path completion — and files it in a
//! deterministic top-N reservoir per [`LatencyPath`].
//!
//! A closed cause taxonomy ([`TailCause`]) classifies each exemplar from its
//! span stack and stats deltas, and cycles-above-median are attributed per
//! cause, so `repro trace` can print "the p99 is secondary-hash probing"
//! instead of a bucket bound.
//!
//! Like the tracer, telemetry sampler and checker before it, capture is
//! **purely observational**: a tail-armed traced run charges exactly the
//! same cycles, counts exactly the same [`crate::KernelStats`] and records
//! exactly the same trace events as a plain traced run (the observer
//! property test in `tests_observers` proves it). The state
//! ([`TailState`]) hangs off the kernel as `Option<Box<_>>`, so a kernel
//! without tail forensics carries one pointer and a single `None` branch.

use crate::prof::Subsystem;
use crate::stats::KernelStats;
use crate::task::Pid;
use crate::telemetry::MmuReadings;
use crate::trace::{Histogram, LatencyPath, TraceRecord};
use ppc_machine::Cycles;
use ppc_mmu::HtabStats;

/// Default reservoir depth (exemplars retained per latency path).
pub const DEFAULT_TOP_N: usize = 8;
/// Default causal-window length (trailing trace-ring events captured).
pub const DEFAULT_WINDOW: usize = 16;

/// Tail-forensics configuration ([`crate::KernelConfig::tail`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TailConfig {
    /// Fixed arming threshold in cycles: capture every sample with
    /// `latency >= threshold`. `None` auto-tracks the running top bucket —
    /// a sample arms capture when it lands in (or above) the highest
    /// occupied histogram bucket seen so far on its path.
    pub threshold: Option<u64>,
    /// Exemplars retained per latency path (a deterministic top-N
    /// reservoir: slowest first, earliest capture wins ties).
    pub top_n: usize,
    /// Trailing trace-ring events captured per exemplar as the causal
    /// window.
    pub window: usize,
}

impl TailConfig {
    /// Auto-armed capture: track the running top bucket per path.
    pub fn auto() -> Self {
        Self {
            threshold: None,
            top_n: DEFAULT_TOP_N,
            window: DEFAULT_WINDOW,
        }
    }

    /// Fixed-threshold capture: every sample at or above `threshold` cycles.
    ///
    /// # Panics
    ///
    /// Panics if `threshold` is zero (every sample would qualify; use
    /// [`TailConfig::auto`] to mean "the slow ones").
    pub fn fixed(threshold: u64) -> Self {
        assert!(threshold > 0, "tail threshold must be positive");
        Self {
            threshold: Some(threshold),
            ..Self::auto()
        }
    }

    /// Checks internal consistency.
    ///
    /// # Panics
    ///
    /// Panics if the reservoir depth or causal window is zero.
    pub fn validate(&self) {
        assert!(self.top_n > 0, "tail reservoir depth must be positive");
        assert!(self.window > 0, "tail causal window must be positive");
        if let Some(t) = self.threshold {
            assert!(t > 0, "tail threshold must be positive");
        }
    }
}

/// Field-by-field saturating difference of two [`HtabStats`] readings.
///
/// Saturating, not panicking: an mmtune hash-table resize swaps in a fresh
/// table whose counters restart from zero, so a later reading can be
/// smaller than an earlier one.
fn htab_delta(now: &HtabStats, then: &HtabStats) -> HtabStats {
    HtabStats {
        searches: now.searches.saturating_sub(then.searches),
        found_primary: now.found_primary.saturating_sub(then.found_primary),
        found_secondary: now.found_secondary.saturating_sub(then.found_secondary),
        misses: now.misses.saturating_sub(then.misses),
        probes: now.probes.saturating_sub(then.probes),
        inserts: now.inserts.saturating_sub(then.inserts),
        inserts_into_empty: now.inserts_into_empty.saturating_sub(then.inserts_into_empty),
        evictions: now.evictions.saturating_sub(then.evictions),
        overflows: now.overflows.saturating_sub(then.overflows),
        invalidates: now.invalidates.saturating_sub(then.invalidates),
        zombies_reclaimed: now.zombies_reclaimed.saturating_sub(then.zombies_reclaimed),
    }
}

/// The closed cause taxonomy a [`TailExemplar`] is classified into.
///
/// Classification is first-match-wins down [`TailCause::ALL`]'s order: the
/// rarer, more structural causes (a rehash in flight, a retune collision)
/// outrank the everyday ones (a Linux-PT walk), so an exemplar that shows
/// both is attributed to the one that made *this* sample an outlier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailCause {
    /// An mmtune hash-table resize/rehash landed inside the window: the
    /// sample paid for rehash traffic.
    HtabRehash,
    /// Some other mmtune retune (BAT reprogram, scatter change) landed
    /// inside the window.
    RetuneCollision,
    /// The memory-pressure path ran: page-cache eviction or the OOM killer.
    PressurePath,
    /// Zombie PTEs were displaced or reclaimed — the lazy-flush debt being
    /// paid off inside the sample.
    ZombieSweep,
    /// Secondary-hash probing: a search hit (or exhausted) the secondary
    /// PTEG, the §5.2 probe-storm signature of a saturated primary group.
    SecondaryProbeStorm,
    /// A hash-table insert displaced a *live* entry (working set exceeds
    /// PTEG capacity).
    PtegDisplacement,
    /// The hash table missed and the translation was reinstalled from the
    /// Linux page tables (the §6.2 slow path).
    LinuxPtReinstall,
    /// Signal machinery was on the span stack: frame setup/unwind cost.
    SignalUnwind,
    /// None of the signatures matched.
    Unattributed,
}

/// Number of causes in the taxonomy.
pub const NUM_CAUSES: usize = 9;

impl TailCause {
    /// Every cause, in classification-priority (and ranking tie-break)
    /// order.
    pub const ALL: [TailCause; NUM_CAUSES] = [
        TailCause::HtabRehash,
        TailCause::RetuneCollision,
        TailCause::PressurePath,
        TailCause::ZombieSweep,
        TailCause::SecondaryProbeStorm,
        TailCause::PtegDisplacement,
        TailCause::LinuxPtReinstall,
        TailCause::SignalUnwind,
        TailCause::Unattributed,
    ];

    /// Stable machine-readable name (used in the metrics artifact's
    /// `causes` object and in tables).
    pub fn name(self) -> &'static str {
        match self {
            TailCause::HtabRehash => "htab_rehash",
            TailCause::RetuneCollision => "retune_collision",
            TailCause::PressurePath => "pressure_oom",
            TailCause::ZombieSweep => "zombie_sweep",
            TailCause::SecondaryProbeStorm => "secondary_probe_storm",
            TailCause::PtegDisplacement => "pteg_displacement",
            TailCause::LinuxPtReinstall => "linux_pt_reinstall",
            TailCause::SignalUnwind => "signal_unwind",
            TailCause::Unattributed => "unattributed",
        }
    }

    /// Position in [`TailCause::ALL`] (classification priority).
    fn rank(self) -> usize {
        TailCause::ALL
            .iter()
            .position(|c| *c == self)
            .expect("every cause is in ALL")
    }

    /// Classifies one exemplar from its span stack and the stats deltas
    /// since the previous instrumented-path completion. First match wins.
    ///
    /// The secondary-hash rule needs care: a hash-table *search* probes all
    /// sixteen slots of both PTEGs on any miss — even in an empty table —
    /// so raw probe counts cannot distinguish a storm from a cold miss.
    /// What can: `found_secondary` only counts hits in the secondary PTEG
    /// (primary group saturated by displacement), and a miss whose *insert*
    /// then overflowed both groups is the same saturation seen from the
    /// other side.
    pub fn classify(stack: &[Subsystem], d_stats: &KernelStats, d_htab: &HtabStats) -> TailCause {
        if d_stats.mmtune_htab_resizes > 0 {
            TailCause::HtabRehash
        } else if d_stats.mmtune_retunes > 0 {
            TailCause::RetuneCollision
        } else if d_stats.oom_kills > 0 || d_stats.reclaimed_pages > 0 {
            TailCause::PressurePath
        } else if d_stats.evict_zombie > 0 || d_htab.zombies_reclaimed > 0 {
            TailCause::ZombieSweep
        } else if d_htab.found_secondary > 0 || (d_htab.misses > 0 && d_htab.overflows > 0) {
            TailCause::SecondaryProbeStorm
        } else if d_stats.evict_live > 0 {
            TailCause::PtegDisplacement
        } else if d_htab.misses > 0 {
            TailCause::LinuxPtReinstall
        } else if stack.contains(&Subsystem::Signal) {
            TailCause::SignalUnwind
        } else {
            TailCause::Unattributed
        }
    }
}

/// One captured slow sample: everything needed to say *why* it was slow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailExemplar {
    /// Capture sequence number (global across paths; the deterministic
    /// tie-break of last resort).
    pub seq: u64,
    /// Cycle the sample completed at.
    pub cycle: Cycles,
    /// Task that was current (0 = the kernel itself).
    pub pid: Pid,
    /// The instrumented path the sample belongs to.
    pub path: LatencyPath,
    /// Exact latency in cycles.
    pub latency: u64,
    /// The kernel span stack at completion, outermost first — still
    /// including the exiting span itself.
    pub stack: Vec<Subsystem>,
    /// The last-K trace-ring events before completion (causal window),
    /// oldest first.
    pub window: Vec<TraceRecord>,
    /// Read-only MMU-context snapshot at capture time.
    pub mmu: MmuReadings,
    /// Kernel-counter delta since the previous instrumented-path
    /// completion.
    pub d_stats: KernelStats,
    /// Hash-table-counter delta since the previous instrumented-path
    /// completion.
    pub d_htab: HtabStats,
    /// Classified cause.
    pub cause: TailCause,
}

/// The tail-forensics state a tail-armed kernel carries
/// ([`crate::Kernel::tail`]).
#[derive(Debug, Clone)]
pub struct TailState {
    /// The configuration the state was armed with.
    pub cfg: TailConfig,
    /// One reservoir per [`LatencyPath`], sorted slowest-first.
    reservoirs: [Vec<TailExemplar>; 3],
    /// Kernel counters at the previous instrumented-path completion.
    last_stats: KernelStats,
    /// Hash-table counters at the previous instrumented-path completion.
    last_htab: HtabStats,
    /// Captures so far (also the next exemplar's sequence number).
    captured: u64,
}

impl TailState {
    /// Fresh state for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent
    /// (see [`TailConfig::validate`]).
    pub fn new(cfg: TailConfig) -> Self {
        cfg.validate();
        Self {
            cfg,
            reservoirs: [Vec::new(), Vec::new(), Vec::new()],
            last_stats: KernelStats::default(),
            last_htab: HtabStats::default(),
            captured: 0,
        }
    }

    /// Whether a sample of `lat` cycles arms capture, judged against the
    /// *pre-sample* histogram of its path. Fixed mode compares against the
    /// configured threshold; auto mode captures any sample landing in (or
    /// above) the running top bucket — including the very first sample,
    /// which *defines* the top bucket.
    pub fn armed(&self, lat: u64, hist: &Histogram) -> bool {
        match self.cfg.threshold {
            Some(t) => lat >= t,
            None => {
                hist.count() == 0 || Histogram::bucket_of(lat) >= Histogram::bucket_of(hist.max())
            }
        }
    }

    /// Advances the delta window without capturing: every
    /// instrumented-path completion calls either this or
    /// [`TailState::offer`], so each exemplar's deltas span exactly the
    /// interval since the previous completion.
    pub fn note(&mut self, stats: &KernelStats, htab: &HtabStats) {
        self.last_stats = *stats;
        self.last_htab = *htab;
    }

    /// Captures one exemplar and files it in its path's reservoir.
    ///
    /// The reservoir keeps the top-N by latency, deterministically: sorted
    /// by latency descending, then completion cycle ascending, then capture
    /// sequence ascending — so under tied latencies the *earliest* captures
    /// survive, regardless of arrival interleaving.
    #[allow(clippy::too_many_arguments)]
    pub fn offer(
        &mut self,
        path: LatencyPath,
        lat: u64,
        cycle: Cycles,
        pid: Pid,
        stack: Vec<Subsystem>,
        window: Vec<TraceRecord>,
        mmu: MmuReadings,
        stats: &KernelStats,
        htab: &HtabStats,
    ) {
        let d_stats = stats.diff(&self.last_stats);
        let d_htab = htab_delta(htab, &self.last_htab);
        self.note(stats, htab);
        let seq = self.captured;
        self.captured += 1;
        let cause = TailCause::classify(&stack, &d_stats, &d_htab);
        let ex = TailExemplar {
            seq,
            cycle,
            pid,
            path,
            latency: lat,
            stack,
            window,
            mmu,
            d_stats,
            d_htab,
            cause,
        };
        let res = &mut self.reservoirs[path.index()];
        let pos = res.partition_point(|e| {
            e.latency > ex.latency
                || (e.latency == ex.latency
                    && (e.cycle < ex.cycle || (e.cycle == ex.cycle && e.seq < ex.seq)))
        });
        res.insert(pos, ex);
        res.truncate(self.cfg.top_n);
    }

    /// The retained exemplars for `path`, slowest first.
    pub fn exemplars(&self, path: LatencyPath) -> &[TailExemplar] {
        &self.reservoirs[path.index()]
    }

    /// Drains the reservoirs and the capture counter, keeping the arming
    /// configuration and the delta window. A forensics harness calls this
    /// after a warmup phase so the retained tail describes steady state
    /// instead of compulsory cold misses (E-TAIL does exactly that).
    /// Host-side only: resetting never charges cycles or touches counters.
    pub fn reset(&mut self) {
        self.reservoirs = [Vec::new(), Vec::new(), Vec::new()];
        self.captured = 0;
    }

    /// Total captures offered so far (not all were retained).
    pub fn captured(&self) -> u64 {
        self.captured
    }

    /// Cycles-above-median attribution: for every retained exemplar, the
    /// cycles its latency exceeds its path's median (`p50`, indexed like
    /// [`LatencyPath::ALL`]) are charged to its cause. Returns
    /// `(cause, cycles_above_median, exemplars)` ranked by cycles
    /// descending, taxonomy order breaking ties; causes with no exemplars
    /// are omitted.
    pub fn attribution(&self, p50: [u64; 3]) -> Vec<(TailCause, u64, u64)> {
        let mut cycles = [0u64; NUM_CAUSES];
        let mut counts = [0u64; NUM_CAUSES];
        for path in LatencyPath::ALL {
            let i = path.index();
            for e in self.exemplars(path) {
                let r = e.cause.rank();
                cycles[r] += e.latency.saturating_sub(p50[i]);
                counts[r] += 1;
            }
        }
        let mut out: Vec<(TailCause, u64, u64)> = TailCause::ALL
            .iter()
            .map(|c| (*c, cycles[c.rank()], counts[c.rank()]))
            .filter(|(_, _, n)| *n > 0)
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.rank().cmp(&b.0.rank())));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn offer_simple(tl: &mut TailState, path: LatencyPath, lat: u64, cycle: Cycles) {
        let stats = tl.last_stats;
        let htab = tl.last_htab;
        tl.offer(
            path,
            lat,
            cycle,
            1,
            vec![Subsystem::Translate],
            Vec::new(),
            MmuReadings::default(),
            &stats,
            &htab,
        );
    }

    #[test]
    fn cause_names_and_all_agree() {
        assert_eq!(TailCause::ALL.len(), NUM_CAUSES);
        let mut names: Vec<&str> = TailCause::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NUM_CAUSES, "names must be unique");
        for (i, c) in TailCause::ALL.iter().enumerate() {
            assert_eq!(c.rank(), i);
        }
    }

    #[test]
    fn classifier_priority_order() {
        let none = KernelStats::default();
        let h0 = HtabStats::default();
        // Rehash outranks everything.
        let mut s = none;
        s.mmtune_htab_resizes = 1;
        s.mmtune_retunes = 1;
        s.oom_kills = 1;
        assert_eq!(TailCause::classify(&[], &s, &h0), TailCause::HtabRehash);
        // Retune outranks pressure.
        let mut s = none;
        s.mmtune_retunes = 1;
        s.reclaimed_pages = 3;
        assert_eq!(TailCause::classify(&[], &s, &h0), TailCause::RetuneCollision);
        // Pressure outranks zombies.
        let mut s = none;
        s.reclaimed_pages = 1;
        s.evict_zombie = 1;
        assert_eq!(TailCause::classify(&[], &s, &h0), TailCause::PressurePath);
        // Zombie displacement.
        let mut s = none;
        s.evict_zombie = 1;
        assert_eq!(TailCause::classify(&[], &s, &h0), TailCause::ZombieSweep);
        // Secondary-hash storm: a secondary hit...
        let mut h = h0;
        h.found_secondary = 1;
        assert_eq!(
            TailCause::classify(&[], &none, &h),
            TailCause::SecondaryProbeStorm
        );
        // ...or a miss whose insert overflowed both PTEGs.
        let mut h = h0;
        h.misses = 1;
        h.overflows = 1;
        assert_eq!(
            TailCause::classify(&[], &none, &h),
            TailCause::SecondaryProbeStorm
        );
        // A storm outranks live displacement.
        let mut s = none;
        s.evict_live = 2;
        assert_eq!(
            TailCause::classify(&[], &s, &h),
            TailCause::SecondaryProbeStorm
        );
        // Live displacement without the storm signature.
        assert_eq!(TailCause::classify(&[], &s, &h0), TailCause::PtegDisplacement);
        // A plain miss is a Linux-PT reinstall.
        let mut h = h0;
        h.misses = 2;
        assert_eq!(
            TailCause::classify(&[], &none, &h),
            TailCause::LinuxPtReinstall
        );
        // Signal machinery on the stack, nothing else.
        assert_eq!(
            TailCause::classify(&[Subsystem::Signal], &none, &h0),
            TailCause::SignalUnwind
        );
        assert_eq!(TailCause::classify(&[], &none, &h0), TailCause::Unattributed);
    }

    #[test]
    fn auto_arming_tracks_the_top_bucket() {
        let tl = TailState::new(TailConfig::auto());
        let mut h = Histogram::default();
        assert!(tl.armed(5, &h), "first sample defines the top bucket");
        h.record(100); // bucket 6
        assert!(tl.armed(100, &h), "same bucket still arms");
        assert!(tl.armed(4000, &h), "higher bucket arms");
        assert!(!tl.armed(63, &h), "lower bucket stays dormant");
    }

    #[test]
    fn fixed_arming_compares_the_threshold() {
        let tl = TailState::new(TailConfig::fixed(500));
        let h = Histogram::default();
        assert!(tl.armed(500, &h));
        assert!(tl.armed(501, &h));
        assert!(!tl.armed(499, &h));
    }

    #[test]
    fn reservoir_keeps_top_n_slowest_first() {
        let mut tl = TailState::new(TailConfig {
            top_n: 3,
            ..TailConfig::fixed(1)
        });
        for (lat, cyc) in [(10, 100), (50, 200), (20, 300), (40, 400), (60, 500)] {
            offer_simple(&mut tl, LatencyPath::TlbReload, lat, cyc);
        }
        let lats: Vec<u64> = tl
            .exemplars(LatencyPath::TlbReload)
            .iter()
            .map(|e| e.latency)
            .collect();
        assert_eq!(lats, vec![60, 50, 40]);
        assert!(tl.exemplars(LatencyPath::PageFault).is_empty());
        assert_eq!(tl.captured(), 5);
    }

    #[test]
    fn tied_latencies_keep_the_earliest_captures() {
        let mut tl = TailState::new(TailConfig {
            top_n: 2,
            ..TailConfig::fixed(1)
        });
        for cyc in [100, 200, 300, 400] {
            offer_simple(&mut tl, LatencyPath::PageFault, 7, cyc);
        }
        let cycles: Vec<Cycles> = tl
            .exemplars(LatencyPath::PageFault)
            .iter()
            .map(|e| e.cycle)
            .collect();
        assert_eq!(cycles, vec![100, 200], "earliest ties survive");
    }

    #[test]
    fn deltas_span_since_the_previous_completion() {
        let mut tl = TailState::new(TailConfig::fixed(1));
        let mut stats = KernelStats {
            evict_live: 4,
            ..Default::default()
        };
        let htab = HtabStats::default();
        tl.note(&stats, &htab);
        stats.evict_live = 9;
        tl.offer(
            LatencyPath::TlbReload,
            10,
            1000,
            1,
            vec![Subsystem::Translate],
            Vec::new(),
            MmuReadings::default(),
            &stats,
            &htab,
        );
        let e = &tl.exemplars(LatencyPath::TlbReload)[0];
        assert_eq!(e.d_stats.evict_live, 5, "delta, not the running total");
        assert_eq!(e.cause, TailCause::PtegDisplacement);
    }

    #[test]
    fn attribution_ranks_by_cycles_above_median() {
        let mut tl = TailState::new(TailConfig::fixed(1));
        // Two displacement exemplars and one unattributed one.
        let mut stats = KernelStats {
            evict_live: 1,
            ..Default::default()
        };
        let htab = HtabStats::default();
        tl.offer(
            LatencyPath::TlbReload,
            100,
            10,
            1,
            Vec::new(),
            Vec::new(),
            MmuReadings::default(),
            &stats,
            &htab,
        );
        stats.evict_live = 2;
        tl.offer(
            LatencyPath::TlbReload,
            80,
            20,
            1,
            Vec::new(),
            Vec::new(),
            MmuReadings::default(),
            &stats,
            &htab,
        );
        tl.offer(
            LatencyPath::TlbReload,
            90,
            30,
            1,
            Vec::new(),
            Vec::new(),
            MmuReadings::default(),
            &stats,
            &htab,
        );
        let ranked = tl.attribution([50, 0, 0]);
        assert_eq!(ranked.len(), 2);
        assert_eq!(ranked[0].0, TailCause::PtegDisplacement);
        assert_eq!(ranked[0].1, (100 - 50) + (80 - 50));
        assert_eq!(ranked[0].2, 2);
        assert_eq!(ranked[1].0, TailCause::Unattributed);
        assert_eq!(ranked[1].1, 90 - 50);
    }

    #[test]
    fn reset_drains_reservoirs_but_keeps_the_delta_window() {
        let mut tl = TailState::new(TailConfig::fixed(1));
        let stats = KernelStats {
            evict_live: 7,
            ..Default::default()
        };
        let htab = HtabStats::default();
        offer_simple(&mut tl, LatencyPath::TlbReload, 10, 100);
        tl.note(&stats, &htab);
        tl.reset();
        assert!(tl.exemplars(LatencyPath::TlbReload).is_empty());
        assert_eq!(tl.captured(), 0);
        // The delta window survives: the next offer diffs against the
        // last noted counters, not against zero.
        let mut later = stats;
        later.evict_live = 9;
        tl.offer(
            LatencyPath::TlbReload,
            20,
            200,
            1,
            Vec::new(),
            Vec::new(),
            MmuReadings::default(),
            &later,
            &htab,
        );
        assert_eq!(tl.exemplars(LatencyPath::TlbReload)[0].d_stats.evict_live, 2);
    }

    #[test]
    fn htab_delta_saturates_across_resizes() {
        let then = HtabStats {
            searches: 100,
            ..Default::default()
        };
        let now = HtabStats {
            searches: 3, // fresh table after a rehash
            probes: 48,
            ..Default::default()
        };
        let d = htab_delta(&now, &then);
        assert_eq!(d.searches, 0, "resets clamp to zero, never panic");
        assert_eq!(d.probes, 48);
    }

    #[test]
    fn snapshot_zombies() {
        let m = MmuReadings {
            htab_valid: 10,
            htab_live: 7,
            ..Default::default()
        };
        assert_eq!(m.zombies(), 3);
    }

    #[test]
    #[should_panic(expected = "reservoir depth")]
    fn zero_top_n_is_rejected() {
        TailState::new(TailConfig {
            top_n: 0,
            ..TailConfig::auto()
        });
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn zero_threshold_is_rejected() {
        TailConfig::fixed(0);
    }
}
