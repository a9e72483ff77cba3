//! A functional model of the PowerPC 604 performance-monitor unit.
//!
//! The paper's whole evaluation (§4) was driven by this block: "low-level
//! statistics with the PPC 604 hardware monitor … counting every TLB and
//! cache miss, whether data or instruction". The real unit is two 32-bit
//! counters (PMC1/PMC2) whose event inputs are selected by fields of the
//! MMCR0 register, with freeze bits gated on privilege state, a threshold
//! comparator for duration events, and a *counter-negative* condition
//! (bit 0, i.e. `pmc >= 0x8000_0000`) that raises the performance-monitor
//! exception — the mechanism every sampling profiler since has been built
//! on: preload a counter with `0x8000_0000 - period`, take the interrupt
//! when it goes negative, record where you were, re-arm.
//!
//! This model keeps the same architecture but sources its events from the
//! counters the simulated machine already maintains ([`MonitorSnapshot`]):
//! the PMU holds the snapshot of its last synchronisation point and advances
//! the PMCs by the selected-event deltas on every [`Pmu::sync`]. The OS side
//! (`kernel-sim`) decides *when* to sync — at every span transition, which
//! is this simulator's notion of an instruction boundary — and delivers the
//! exception when [`Pmu::take_interrupt`] reports one pending.
//!
//! The PMU is pure bookkeeping: nothing here charges cycles or touches
//! MMU/cache state. The *cost* of taking the performance-monitor exception
//! is modeled by the kernel, exactly as the real handler's cost was borne by
//! the kernel being measured.

use crate::monitor::MonitorSnapshot;

/// The counter-negative boundary: a PMC with bit 0 (IBM numbering) set,
/// i.e. value `>= 0x8000_0000`, is "negative" and can raise the
/// performance-monitor exception.
pub const PMC_NEGATIVE: u32 = 0x8000_0000;

/// Event selections for a performance-monitor counter.
///
/// The real 604 encodes these as 6/7-bit select fields in MMCR0; the model
/// names them. Every event is derived from counters the machine already
/// observes, so PMU readings agree with [`MonitorSnapshot`] deltas by
/// construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PmcEvent {
    /// Count nothing (the select value 0 of the real unit).
    #[default]
    None,
    /// Processor cycles.
    Cycles,
    /// Instructions-completed proxy: the machine does not retire discrete
    /// instructions, so the closest observable is total memory references
    /// (I-side + D-side cache accesses plus cache-inhibited accesses).
    InsnsProxy,
    /// Instruction-TLB misses.
    ItlbMiss,
    /// Data-TLB misses.
    DtlbMiss,
    /// TLB misses, both sides (the paper's headline §4 count).
    TlbMissBoth,
    /// Instruction-cache misses.
    IcacheMiss,
    /// Data-cache misses.
    DcacheMiss,
    /// Cache misses, both sides.
    CacheMissBoth,
    /// Instruction accesses satisfied by a BAT (§5.1's "for free" hits).
    IbatHit,
    /// Data accesses satisfied by a BAT.
    DbatHit,
    /// BAT hits, both sides.
    BatHitBoth,
    /// Duration events exceeding `MMCR0.threshold` cycles (the 604 counts
    /// loads lasting longer than threshold; the model counts instrumented
    /// kernel paths — TLB reloads, page faults, signal deliveries — whose
    /// latency exceeds it, fed by [`Pmu::note_duration`]).
    ThresholdExceeded,
}

impl PmcEvent {
    /// Every selectable event, in a stable order.
    pub const ALL: [PmcEvent; 13] = [
        PmcEvent::None,
        PmcEvent::Cycles,
        PmcEvent::InsnsProxy,
        PmcEvent::ItlbMiss,
        PmcEvent::DtlbMiss,
        PmcEvent::TlbMissBoth,
        PmcEvent::IcacheMiss,
        PmcEvent::DcacheMiss,
        PmcEvent::CacheMissBoth,
        PmcEvent::IbatHit,
        PmcEvent::DbatHit,
        PmcEvent::BatHitBoth,
        PmcEvent::ThresholdExceeded,
    ];

    /// Stable machine-readable name (artifact keys).
    pub fn name(self) -> &'static str {
        match self {
            PmcEvent::None => "none",
            PmcEvent::Cycles => "cycles",
            PmcEvent::InsnsProxy => "insns_proxy",
            PmcEvent::ItlbMiss => "itlb_miss",
            PmcEvent::DtlbMiss => "dtlb_miss",
            PmcEvent::TlbMissBoth => "tlb_miss",
            PmcEvent::IcacheMiss => "icache_miss",
            PmcEvent::DcacheMiss => "dcache_miss",
            PmcEvent::CacheMissBoth => "cache_miss",
            PmcEvent::IbatHit => "ibat_hit",
            PmcEvent::DbatHit => "dbat_hit",
            PmcEvent::BatHitBoth => "bat_hit",
            PmcEvent::ThresholdExceeded => "threshold_exceeded",
        }
    }

    /// Parses a [`PmcEvent::name`] back to the event.
    pub fn from_name(name: &str) -> Option<PmcEvent> {
        PmcEvent::ALL.iter().copied().find(|e| e.name() == name)
    }

    /// How many of this event a counter window contains.
    /// [`PmcEvent::ThresholdExceeded`] occurrences arrive discretely through
    /// [`Pmu::note_duration`], not through snapshots, so they count 0 here.
    pub fn count_in(self, d: &MonitorSnapshot) -> u64 {
        match self {
            PmcEvent::None | PmcEvent::ThresholdExceeded => 0,
            PmcEvent::Cycles => d.cycles,
            PmcEvent::InsnsProxy => {
                d.icache.accesses + d.dcache.accesses + d.icache.inhibited + d.dcache.inhibited
            }
            PmcEvent::ItlbMiss => d.itlb.misses,
            PmcEvent::DtlbMiss => d.dtlb.misses,
            PmcEvent::TlbMissBoth => d.itlb.misses + d.dtlb.misses,
            PmcEvent::IcacheMiss => d.icache.misses,
            PmcEvent::DcacheMiss => d.dcache.misses,
            PmcEvent::CacheMissBoth => d.icache.misses + d.dcache.misses,
            PmcEvent::IbatHit => d.ibat_hits,
            PmcEvent::DbatHit => d.dbat_hits,
            PmcEvent::BatHitBoth => d.ibat_hits + d.dbat_hits,
        }
    }
}

/// The monitor-mode control register: event selects and gating bits.
///
/// Field names follow the 604 user's manual: FC freezes both counters
/// unconditionally, FCS freezes them in supervisor state, FCP in problem
/// (user) state, ENINT enables the counter-negative exception, THRESHOLD
/// feeds the duration comparator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mmcr0 {
    /// FC: freeze both counters.
    pub freeze: bool,
    /// FCS: freeze counting while the processor is in supervisor state.
    pub freeze_supervisor: bool,
    /// FCP: freeze counting while the processor is in problem (user) state.
    pub freeze_problem: bool,
    /// ENINT: a counter going negative raises the performance-monitor
    /// exception.
    pub enint: bool,
    /// THRESHOLD: duration events shorter than this many cycles don't count.
    pub threshold: u32,
    /// PMC1SELECT.
    pub pmc1: PmcEvent,
    /// PMC2SELECT.
    pub pmc2: PmcEvent,
}

impl Default for Mmcr0 {
    fn default() -> Self {
        Self {
            freeze: false,
            freeze_supervisor: false,
            freeze_problem: false,
            enint: false,
            threshold: 0,
            pmc1: PmcEvent::None,
            pmc2: PmcEvent::None,
        }
    }
}

impl Mmcr0 {
    /// Whether counting is frozen for the given privilege state.
    pub fn frozen(&self, supervisor: bool) -> bool {
        self.freeze
            || (supervisor && self.freeze_supervisor)
            || (!supervisor && self.freeze_problem)
    }

    /// The event select for counter `i` (0 = PMC1, 1 = PMC2).
    pub fn select(&self, i: usize) -> PmcEvent {
        match i {
            0 => self.pmc1,
            _ => self.pmc2,
        }
    }
}

/// The performance-monitor unit: MMCR0, PMC1/PMC2, and the pending
/// exception latch.
///
/// # Examples
///
/// ```
/// use ppc_machine::pmu::{Mmcr0, PmcEvent, Pmu, PMC_NEGATIVE};
/// use ppc_machine::MonitorSnapshot;
///
/// let mut pmu = Pmu::new(Mmcr0 {
///     pmc1: PmcEvent::Cycles,
///     enint: true,
///     ..Mmcr0::default()
/// });
/// pmu.write_pmc(0, PMC_NEGATIVE - 100); // sample after 100 cycles
/// let window = MonitorSnapshot { cycles: 250, ..MonitorSnapshot::default() };
/// pmu.sync(&window, true);
/// assert!(pmu.take_interrupt());
/// assert_eq!(pmu.read_pmc(0), PMC_NEGATIVE - 100 + 250);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pmu {
    /// The control register.
    pub mmcr0: Mmcr0,
    /// PMC1 and PMC2.
    pmc: [u32; 2],
    /// Machine counters at the last [`Pmu::sync`] (the closed edge of the
    /// next counting window).
    base: MonitorSnapshot,
    /// A counter went negative with ENINT set; cleared by
    /// [`Pmu::take_interrupt`].
    pending: bool,
}

impl Pmu {
    /// A PMU with both counters at zero and no base snapshot (counting
    /// windows start from an all-zero machine).
    pub fn new(mmcr0: Mmcr0) -> Self {
        Self {
            mmcr0,
            pmc: [0; 2],
            base: MonitorSnapshot::default(),
            pending: false,
        }
    }

    /// Reads counter `i` (0 = PMC1, 1 = PMC2) — `mfspr`.
    pub fn read_pmc(&self, i: usize) -> u32 {
        self.pmc[i.min(1)]
    }

    /// Writes counter `i` — `mtspr`. Used to preload the sampling counter
    /// with `PMC_NEGATIVE - period`.
    pub fn write_pmc(&mut self, i: usize, v: u32) {
        self.pmc[i.min(1)] = v;
    }

    /// Whether a performance-monitor exception is pending.
    pub fn interrupt_pending(&self) -> bool {
        self.pending
    }

    /// Takes the pending exception (clears the latch). Returns whether one
    /// was pending.
    pub fn take_interrupt(&mut self) -> bool {
        std::mem::take(&mut self.pending)
    }

    /// Clears both counters and the pending latch; the base snapshot and
    /// MMCR0 survive (the real unit's counters are cleared by `mtspr`,
    /// not by reset lines).
    pub fn reset_counters(&mut self) {
        self.pmc = [0; 2];
        self.pending = false;
    }

    /// Synchronises the PMU with the machine's counters: the window
    /// `now - base` is counted into each PMC according to its event select
    /// (unless frozen for `supervisor`), and `base` advances to `now`.
    ///
    /// The privilege state applies to the whole window, so the OS must sync
    /// at privilege transitions for exact gating; the simulator syncs at
    /// every span transition, which bounds the attribution error to one
    /// unbracketed stretch.
    ///
    /// Events are never lost to freezing skew: a frozen window advances
    /// `base` without counting, exactly like the real unit's gated clock.
    pub fn sync(&mut self, now: &MonitorSnapshot, supervisor: bool) {
        let delta = now.delta(&self.base);
        self.base = *now;
        if self.mmcr0.frozen(supervisor) {
            return;
        }
        for i in 0..2 {
            let n = self.mmcr0.select(i).count_in(&delta);
            self.advance(i, n);
        }
    }

    /// Advances the base snapshot to `now` without counting anything — the
    /// handler-frozen window of a real PMU, whose exception handler sets FC
    /// before doing its work so the profiler does not profile itself.
    pub fn skip_to(&mut self, now: &MonitorSnapshot) {
        self.base = *now;
    }

    /// Feeds one duration event (an instrumented path that took `cycles`):
    /// counts into any PMC selecting [`PmcEvent::ThresholdExceeded`] when
    /// the duration exceeds `MMCR0.threshold`.
    pub fn note_duration(&mut self, cycles: u64, supervisor: bool) {
        if self.mmcr0.frozen(supervisor) || cycles <= u64::from(self.mmcr0.threshold) {
            return;
        }
        for i in 0..2 {
            if self.mmcr0.select(i) == PmcEvent::ThresholdExceeded {
                self.advance(i, 1);
            }
        }
    }

    /// How many sampling periods the negative counter `i` has accumulated:
    /// `1 + (pmc - PMC_NEGATIVE) / period` when negative, else 0. The
    /// sample handler uses this to credit the full backlog when exceptions
    /// were held pending through an unbracketed stretch.
    pub fn periods_pending(&self, i: usize, period: u32) -> u64 {
        let v = self.pmc[i.min(1)];
        if v < PMC_NEGATIVE || period == 0 {
            0
        } else {
            1 + u64::from(v - PMC_NEGATIVE) / u64::from(period)
        }
    }

    fn advance(&mut self, i: usize, n: u64) {
        if n == 0 {
            return;
        }
        let old = self.pmc[i];
        let new_wide = u64::from(old) + n;
        self.pmc[i] = (new_wide & 0xffff_ffff) as u32;
        // Counter-negative condition: the counter reached or passed the
        // negative boundary inside this window.
        let crossed = old < PMC_NEGATIVE && new_wide >= u64::from(PMC_NEGATIVE);
        if crossed && self.mmcr0.enint {
            self.pending = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppc_mmu::tlb::TlbStats;

    fn snap(cycles: u64, dtlb_misses: u64) -> MonitorSnapshot {
        MonitorSnapshot {
            cycles,
            dtlb: TlbStats {
                lookups: dtlb_misses * 3,
                hits: dtlb_misses * 2,
                misses: dtlb_misses,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn counts_selected_events_only() {
        let mut p = Pmu::new(Mmcr0 {
            pmc1: PmcEvent::Cycles,
            pmc2: PmcEvent::DtlbMiss,
            ..Mmcr0::default()
        });
        p.sync(&snap(100, 7), true);
        p.sync(&snap(250, 10), false);
        assert_eq!(p.read_pmc(0), 250);
        assert_eq!(p.read_pmc(1), 10);
        assert!(!p.interrupt_pending(), "ENINT off: no exception");
    }

    #[test]
    fn counter_negative_raises_pending_once() {
        let mut p = Pmu::new(Mmcr0 {
            pmc1: PmcEvent::Cycles,
            enint: true,
            ..Mmcr0::default()
        });
        p.write_pmc(0, PMC_NEGATIVE - 10);
        p.sync(&snap(9, 0), true);
        assert!(!p.interrupt_pending(), "still positive");
        p.sync(&snap(25, 0), true);
        assert!(p.take_interrupt());
        assert!(!p.take_interrupt(), "latch cleared");
        // Re-arm and cross again.
        p.write_pmc(0, PMC_NEGATIVE - 5);
        p.sync(&snap(30, 0), true);
        assert!(p.interrupt_pending());
    }

    #[test]
    fn periods_pending_counts_backlog() {
        let mut p = Pmu::new(Mmcr0 {
            pmc1: PmcEvent::Cycles,
            enint: true,
            ..Mmcr0::default()
        });
        p.write_pmc(0, PMC_NEGATIVE - 100);
        // 100 cycles to the boundary + 250 past it = 2 whole extra periods.
        p.sync(&snap(350, 0), true);
        assert_eq!(p.periods_pending(0, 100), 3);
        assert_eq!(p.periods_pending(1, 100), 0);
    }

    #[test]
    fn privilege_freeze_gates_windows() {
        let mut p = Pmu::new(Mmcr0 {
            pmc1: PmcEvent::Cycles,
            freeze_supervisor: true,
            ..Mmcr0::default()
        });
        p.sync(&snap(100, 0), true); // supervisor window: frozen
        assert_eq!(p.read_pmc(0), 0);
        p.sync(&snap(160, 0), false); // user window: counts
        assert_eq!(p.read_pmc(0), 60);
        // The frozen window advanced the base — its cycles are gone, not
        // deferred.
        p.sync(&snap(200, 0), true);
        assert_eq!(p.read_pmc(0), 60);
    }

    #[test]
    fn threshold_filters_duration_events() {
        let mut p = Pmu::new(Mmcr0 {
            pmc2: PmcEvent::ThresholdExceeded,
            threshold: 50,
            ..Mmcr0::default()
        });
        p.note_duration(50, true); // not strictly greater
        p.note_duration(51, true);
        p.note_duration(400, false);
        assert_eq!(p.read_pmc(1), 2);
    }

    #[test]
    fn full_freeze_stops_everything() {
        let mut p = Pmu::new(Mmcr0 {
            freeze: true,
            pmc1: PmcEvent::Cycles,
            pmc2: PmcEvent::ThresholdExceeded,
            enint: true,
            ..Mmcr0::default()
        });
        p.write_pmc(0, PMC_NEGATIVE - 1);
        p.sync(&snap(1000, 50), true);
        p.note_duration(1000, true);
        assert_eq!(p.read_pmc(0), PMC_NEGATIVE - 1);
        assert_eq!(p.read_pmc(1), 0);
        assert!(!p.interrupt_pending());
    }

    #[test]
    fn wrap_around_is_defined() {
        let mut p = Pmu::new(Mmcr0 {
            pmc1: PmcEvent::Cycles,
            ..Mmcr0::default()
        });
        p.write_pmc(0, u32::MAX);
        p.sync(&snap(2, 0), true);
        assert_eq!(p.read_pmc(0), 1, "wraps like the 32-bit register it is");
    }

    #[test]
    fn event_names_round_trip() {
        for e in PmcEvent::ALL {
            assert_eq!(PmcEvent::from_name(e.name()), Some(e));
        }
        assert_eq!(PmcEvent::from_name("bogus"), None);
    }

    #[test]
    fn insns_proxy_counts_all_references() {
        let mut s = MonitorSnapshot::default();
        s.icache.accesses = 10;
        s.dcache.accesses = 20;
        s.dcache.inhibited = 5;
        assert_eq!(PmcEvent::InsnsProxy.count_in(&s), 35);
    }
}
