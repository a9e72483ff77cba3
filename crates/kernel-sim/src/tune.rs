//! PMU-guided adaptive MMU tuning (`mmtune`) — the §7 "looks inefficient"
//! observation closed into a control loop.
//!
//! The paper left the BAT layout, the hash-table size, and the VSID scatter
//! constant statically chosen and measured them with the 604's performance
//! monitor by hand. This module puts the monitor in the loop: an epoch
//! controller on the same span-transition boundary the telemetry sampler
//! uses ([`crate::telemetry`]) reads the monitor's event deltas
//! through the PMU event selects — BAT hits vs TLB misses
//! ([`PmcEvent::BatHitBoth`] / [`PmcEvent::TlbMissBoth`]) — and counts
//! slow instrumented paths the way a [`PmcEvent::ThresholdExceeded`]
//! counter would, plus
//! the PTEG collision pressure the heatmap renders (full groups, live
//! occupancy, overflow counts read straight from the kernel's structures, so
//! decisions never depend on whether tracing is enabled), and online adjusts
//! three knobs:
//!
//! * **BAT coverage** — program the §5.1 kernel BAT pair when the PMU sees
//!   kernel-side reload traffic with zero BAT hits;
//! * **hash-table size** — grow or shrink (with a full rehash whose memory
//!   traffic is charged honestly, like every other kernel path) when
//!   collision pressure or cache-footprint waste crosses a bound;
//! * **VSID scatter constant** — retune toward the §5.2 constant when
//!   overflow pressure shows the current spread is hot-spotting.
//!
//! # Hysteresis: why the controller cannot oscillate
//!
//! Every knob moves through a **one-way door**, at most one knob moves per
//! epoch, and every move starts a cooldown of [`MmtuneConfig::cooldown_epochs`]
//! epochs:
//!
//! * BAT coverage only ever turns *on* (off→on once);
//! * the scatter constant retunes *at most once* per run;
//! * the hash table may shrink repeatedly and grow repeatedly, but never
//!   shrinks again after its first grow — the shrink phase is over the
//!   moment collision pressure pushes back.
//!
//! The total number of retune decisions in any run is therefore bounded by
//! `2 + 2·log2(max_groups / min_groups)` regardless of workload length, and
//! a shrink→grow→shrink cycle is structurally impossible. The *cost* bound
//! that follows (each decision charges a bounded rehash or a few register
//! writes) is what the E-TUNE gate's "never loses by more than the
//! hysteresis bound" clause pins.
//!
//! When [`crate::kconfig::KernelConfig::mmtune`] is `None` the kernel
//! carries no controller and the poll is a single branch — mmtune-off runs
//! are cycle-identical to pre-mmtune kernels, and the observer property
//! test holds a dormant controller to the same bar.

use ppc_machine::pmu::PmcEvent;
use ppc_machine::{Cycles, MonitorSnapshot};

use crate::stats::KernelStats;
use crate::telemetry::{EpochClock, MmuReadings};

/// Default tuning epoch width in cycles (matches the telemetry default).
pub const DEFAULT_EPOCH_CYCLES: u64 = 65_536;

/// Controller configuration. All thresholds are integers (ppm where a
/// ratio is meant) so decisions — and therefore whole runs — stay exactly
/// deterministic and artifact-diffable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MmtuneConfig {
    /// Epoch width in cycles; the controller evaluates once per crossed
    /// boundary, at the first span transition past it.
    pub epoch_cycles: u64,
    /// Smallest hash table the shrink knob may reach, in PTEGs.
    pub min_groups: u32,
    /// Largest hash table the grow knob may reach, in PTEGs. Must not
    /// exceed the layout reservation ([`crate::layout::HTAB_GROUPS`]).
    pub max_groups: u32,
    /// Shrink the table when *live* occupancy (live entries / capacity,
    /// ppm) falls below this — the probe working set is wasting cache.
    pub shrink_live_ppm: u32,
    /// Grow the table when the full-group fraction (full PTEGs / PTEGs,
    /// ppm) exceeds this — inserts are displacing live entries.
    pub grow_full_ppm: u32,
    /// Minimum TLB-miss deltas per epoch ([`PmcEvent::TlbMissBoth`]) before
    /// any htab move: a quiet MMU is not worth retuning.
    pub min_tlb_misses: u64,
    /// Enable the kernel BAT pair when an epoch sees at least this many
    /// kernel-side reloads while [`PmcEvent::BatHitBoth`] reads zero.
    pub bat_reload_threshold: u64,
    /// The scatter constant the one-shot scatter retune moves to (the
    /// paper's §5.2 tuned value).
    pub scatter_target: u32,
    /// Epochs every retune decision freezes the controller for.
    pub cooldown_epochs: u32,
    /// Threshold (cycles) of the slow-path counter — the rule
    /// [`PmcEvent::ThresholdExceeded`] applies to MMCR0's threshold:
    /// instrumented paths longer than this count as slow.
    pub slow_reload_cycles: u32,
}

impl Default for MmtuneConfig {
    fn default() -> Self {
        Self {
            epoch_cycles: DEFAULT_EPOCH_CYCLES,
            min_groups: 256,
            max_groups: crate::layout::HTAB_GROUPS,
            shrink_live_ppm: 120_000,
            grow_full_ppm: 40_000,
            min_tlb_misses: 32,
            bat_reload_threshold: 16,
            scatter_target: 897,
            cooldown_epochs: 2,
            slow_reload_cycles: 120,
        }
    }
}

impl MmtuneConfig {
    /// Checks internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on a zero epoch, a non-power-of-two or inverted group range,
    /// a group range exceeding the layout reservation, or a zero scatter
    /// target.
    pub fn validate(&self) {
        assert!(self.epoch_cycles > 0, "mmtune epoch width must be positive");
        assert!(
            self.min_groups.is_power_of_two() && self.max_groups.is_power_of_two(),
            "mmtune group bounds must be powers of two"
        );
        assert!(
            self.min_groups <= self.max_groups,
            "mmtune min_groups must not exceed max_groups"
        );
        assert!(
            self.max_groups <= crate::layout::HTAB_GROUPS,
            "mmtune max_groups exceeds the hash-table reservation \
             (growth past it would overlap the page-table pool)"
        );
        assert!(self.scatter_target > 0, "scatter target must be nonzero");
    }
}

/// Which knob a retune decision moved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TuneKnob {
    /// The §5.1 kernel BAT pair was programmed.
    Bat,
    /// The hash table was rehashed to a new group count.
    HtabSize,
    /// The VSID scatter constant was retuned.
    Scatter,
}

impl TuneKnob {
    /// Stable machine-readable name (trace args, tune artifacts).
    pub fn name(self) -> &'static str {
        match self {
            TuneKnob::Bat => "bat",
            TuneKnob::HtabSize => "htab_size",
            TuneKnob::Scatter => "scatter",
        }
    }
}

/// One applied retune, as logged for traces, artifacts, and the
/// determinism proptest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetuneDecision {
    /// Cycle the decision was applied at.
    pub cycle: Cycles,
    /// Tuning epoch index (`cycle / epoch_cycles`).
    pub epoch: u64,
    /// The knob that moved.
    pub knob: TuneKnob,
    /// Value before (group count, scatter constant, or 0/1 for BATs).
    pub from: u32,
    /// Value after.
    pub to: u32,
}

/// A pending knob move the controller asks the kernel to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TuneAction {
    /// Program the kernel BAT pair (§5.1 layout).
    EnableBats,
    /// Retune the VSID scatter constant.
    SetScatter {
        /// Constant before.
        from: u32,
        /// Constant after.
        to: u32,
    },
    /// Rehash the hash table to a new group count.
    ResizeHtab {
        /// Groups before.
        from: u32,
        /// Groups after.
        to: u32,
    },
}

/// The controller state an mmtune-enabled kernel carries.
#[derive(Debug, Clone)]
pub struct Mmtune {
    /// Configuration.
    pub cfg: MmtuneConfig,
    /// Every applied retune, oldest first.
    pub decisions: Vec<RetuneDecision>,
    /// The next evaluation boundary.
    pub(crate) clock: EpochClock,
    /// Instrumented paths slower than [`MmtuneConfig::slow_reload_cycles`]
    /// since the previous evaluation.
    slow_paths: u64,
    /// Machine counters at the previous evaluation (for event deltas).
    last_snap: MonitorSnapshot,
    /// Kernel counters at the previous evaluation (for reload deltas).
    last_stats: KernelStats,
    /// One-way door: the BAT knob has fired (or BATs were on at boot).
    bats_on: bool,
    /// One-way door: the scatter knob has fired.
    scatter_done: bool,
    /// One-way door: the htab knob has grown — no more shrinks.
    grew: bool,
    /// Epochs left before the next decision may fire.
    cooldown: u32,
}

impl Mmtune {
    /// A fresh controller. `bats_on` is the boot-time BAT state (under the
    /// optimized §5.1 config the BAT knob starts satisfied and idles).
    pub fn new(cfg: MmtuneConfig, bats_on: bool) -> Self {
        cfg.validate();
        Self {
            cfg,
            decisions: Vec::new(),
            clock: EpochClock::new(cfg.epoch_cycles),
            slow_paths: 0,
            last_snap: MonitorSnapshot::default(),
            last_stats: KernelStats::default(),
            bats_on,
            scatter_done: false,
            grew: false,
            cooldown: 0,
        }
    }

    /// Feeds one instrumented-path latency: counts it as slow when it
    /// exceeds [`MmtuneConfig::slow_reload_cycles`], exactly as an
    /// unfrozen [`PmcEvent::ThresholdExceeded`] counter would.
    #[inline]
    pub fn note_latency(&mut self, lat: Cycles) {
        if lat > u64::from(self.cfg.slow_reload_cycles) {
            self.slow_paths += 1;
        }
    }

    /// Evaluates one tuning epoch from the monitor window since the last
    /// one and returns at most one knob move. Pure bookkeeping — the kernel
    /// applies (and charges) the returned action.
    pub fn observe(
        &mut self,
        now: Cycles,
        snap: &MonitorSnapshot,
        stats: &KernelStats,
        inp: MmuReadings,
    ) -> Option<TuneAction> {
        self.clock.advance(now);
        // The window since the last epoch, read through the PMU's event
        // selects, plus the slow paths counted since then.
        let window = snap.delta(&self.last_snap);
        self.last_snap = *snap;
        let tlb_misses = PmcEvent::TlbMissBoth.count_in(&window);
        let bat_hits = PmcEvent::BatHitBoth.count_in(&window);
        let slow_reloads = std::mem::take(&mut self.slow_paths);
        let d = stats.diff(&self.last_stats);
        self.last_stats = *stats;
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return None;
        }
        // Knob 1 — BAT coverage (one-way: off→on). The §5.1 observation as
        // a rule: kernel-side reload traffic with zero BAT hits means the
        // kernel's footprint is churning the TLB for translations BATs
        // would serve for free.
        if !self.bats_on && bat_hits == 0 && d.kernel_reloads >= self.cfg.bat_reload_threshold {
            self.bats_on = true;
            self.cooldown = self.cfg.cooldown_epochs;
            return Some(TuneAction::EnableBats);
        }
        // Knob 2 — scatter constant (at most once). Overflow pressure with
        // an untuned constant means the hash is hot-spotting (§5.2).
        if inp.uses_htab
            && !self.scatter_done
            && inp.scatter != self.cfg.scatter_target
            && d.htab_overflows > 0
        {
            self.scatter_done = true;
            self.cooldown = self.cfg.cooldown_epochs;
            return Some(TuneAction::SetScatter {
                from: inp.scatter,
                to: self.cfg.scatter_target,
            });
        }
        // Knob 3 — hash-table size (shrink phase, then grow phase).
        if inp.uses_htab && tlb_misses >= self.cfg.min_tlb_misses {
            let live_ppm = u64::from(inp.htab_live) * 1_000_000 / u64::from(inp.htab_capacity);
            let full_ppm = u64::from(inp.htab_full_groups) * 1_000_000 / u64::from(inp.htab_groups);
            // Grow when full groups (or slow reloads — overflowing probe
            // chains are exactly what the threshold counter sees) say the
            // table is displacing live entries.
            if inp.htab_groups < self.cfg.max_groups
                && (full_ppm > u64::from(self.cfg.grow_full_ppm) && slow_reloads > 0)
            {
                self.grew = true;
                self.cooldown = self.cfg.cooldown_epochs;
                return Some(TuneAction::ResizeHtab {
                    from: inp.htab_groups,
                    to: inp.htab_groups * 2,
                });
            }
            // Shrink while the live working set rattles around a table
            // whose probe footprint is polluting the data cache (§8) —
            // but never after a grow (the one-way door).
            if !self.grew
                && inp.htab_groups > self.cfg.min_groups
                && live_ppm < u64::from(self.cfg.shrink_live_ppm)
            {
                self.cooldown = self.cfg.cooldown_epochs;
                return Some(TuneAction::ResizeHtab {
                    from: inp.htab_groups,
                    to: inp.htab_groups / 2,
                });
            }
        }
        None
    }

    /// Logs an applied decision (the kernel calls this after charging it).
    pub fn log(&mut self, d: RetuneDecision) {
        self.decisions.push(d);
    }

    /// The final knob values as `(knob, value)` pairs for artifacts: the
    /// last decision per knob, if any moved.
    pub fn final_values(&self) -> Vec<(TuneKnob, u32)> {
        let mut out = Vec::new();
        for knob in [TuneKnob::Bat, TuneKnob::HtabSize, TuneKnob::Scatter] {
            if let Some(d) = self.decisions.iter().rev().find(|d| d.knob == knob) {
                out.push((knob, d.to));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(live: u32, capacity: u32, full: u32, groups: u32) -> MmuReadings {
        MmuReadings {
            htab_live: live,
            htab_capacity: capacity,
            htab_full_groups: full,
            htab_groups: groups,
            uses_htab: true,
            scatter: 897,
            ..MmuReadings::default()
        }
    }

    fn snap(cycles: u64, dtlb_misses: u64) -> MonitorSnapshot {
        let mut s = MonitorSnapshot {
            cycles,
            ..MonitorSnapshot::default()
        };
        s.dtlb.misses = dtlb_misses;
        s
    }

    #[test]
    fn default_config_validates() {
        MmtuneConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "reservation")]
    fn group_bound_cannot_exceed_layout() {
        MmtuneConfig {
            max_groups: crate::layout::HTAB_GROUPS * 2,
            ..MmtuneConfig::default()
        }
        .validate();
    }

    #[test]
    fn shrink_fires_on_low_live_occupancy_then_cools_down() {
        let cfg = MmtuneConfig {
            cooldown_epochs: 1,
            ..MmtuneConfig::default()
        };
        let mut m = Mmtune::new(cfg, true);
        assert!(m.clock.due(cfg.epoch_cycles));
        // Plenty of misses, table nearly empty: shrink.
        let a = m.observe(
            cfg.epoch_cycles,
            &snap(cfg.epoch_cycles, 100),
            &KernelStats::default(),
            inputs(100, 2048 * 8, 0, 2048),
        );
        assert_eq!(
            a,
            Some(TuneAction::ResizeHtab {
                from: 2048,
                to: 1024
            })
        );
        // Cooldown epoch: same conditions, no decision.
        let a = m.observe(
            cfg.epoch_cycles * 2,
            &snap(cfg.epoch_cycles * 2, 200),
            &KernelStats::default(),
            inputs(100, 1024 * 8, 0, 1024),
        );
        assert_eq!(a, None);
        // Cooldown over: shrinks again, still monotone.
        let a = m.observe(
            cfg.epoch_cycles * 3,
            &snap(cfg.epoch_cycles * 3, 300),
            &KernelStats::default(),
            inputs(100, 1024 * 8, 0, 1024),
        );
        assert_eq!(
            a,
            Some(TuneAction::ResizeHtab {
                from: 1024,
                to: 512
            })
        );
    }

    #[test]
    fn grow_closes_the_shrink_door() {
        let cfg = MmtuneConfig {
            cooldown_epochs: 0,
            ..MmtuneConfig::default()
        };
        let mut m = Mmtune::new(cfg, true);
        // Full-group pressure with slow reloads: grow. (The duration
        // counter needs a >threshold event fed first.)
        m.note_latency(u64::from(cfg.slow_reload_cycles) + 1);
        let a = m.observe(
            cfg.epoch_cycles,
            &snap(cfg.epoch_cycles, 100),
            &KernelStats::default(),
            inputs(4000, 512 * 8, 100, 512),
        );
        assert_eq!(
            a,
            Some(TuneAction::ResizeHtab {
                from: 512,
                to: 1024
            })
        );
        // Now a shrink-favourable epoch: the door is shut, no oscillation.
        let a = m.observe(
            cfg.epoch_cycles * 2,
            &snap(cfg.epoch_cycles * 2, 200),
            &KernelStats::default(),
            inputs(10, 1024 * 8, 0, 1024),
        );
        assert_eq!(a, None, "shrink after grow must be impossible");
    }

    #[test]
    fn bat_knob_fires_once_on_kernel_reloads_without_bat_hits() {
        let cfg = MmtuneConfig {
            cooldown_epochs: 0,
            ..MmtuneConfig::default()
        };
        let mut m = Mmtune::new(cfg, false);
        let stats = KernelStats {
            kernel_reloads: 50,
            ..Default::default()
        };
        let a = m.observe(
            cfg.epoch_cycles,
            &snap(cfg.epoch_cycles, 10),
            &stats,
            inputs(100, 2048 * 8, 0, 2048),
        );
        assert_eq!(a, Some(TuneAction::EnableBats));
        // Never again, even under identical pressure.
        let stats = KernelStats {
            kernel_reloads: 100,
            ..Default::default()
        };
        let a = m.observe(
            cfg.epoch_cycles * 2,
            &snap(cfg.epoch_cycles * 2, 20),
            &stats,
            inputs(100, 2048 * 8, 0, 2048),
        );
        assert_ne!(a, Some(TuneAction::EnableBats));
    }

    #[test]
    fn bat_knob_idles_when_bats_already_hit() {
        let cfg = MmtuneConfig::default();
        let mut m = Mmtune::new(cfg, true);
        let stats = KernelStats {
            kernel_reloads: 500,
            ..Default::default()
        };
        let a = m.observe(
            cfg.epoch_cycles,
            &snap(cfg.epoch_cycles, 0),
            &stats,
            inputs(5000, 2048 * 8, 0, 2048),
        );
        assert_eq!(a, None);
    }

    #[test]
    fn scatter_retunes_once_on_overflow_pressure() {
        let cfg = MmtuneConfig {
            cooldown_epochs: 0,
            ..MmtuneConfig::default()
        };
        let mut m = Mmtune::new(cfg, true);
        let mut inp = inputs(3000, 2048 * 8, 0, 2048);
        inp.scatter = 16;
        let stats = KernelStats {
            htab_overflows: 5,
            ..Default::default()
        };
        let a = m.observe(cfg.epoch_cycles, &snap(cfg.epoch_cycles, 0), &stats, inp);
        assert_eq!(a, Some(TuneAction::SetScatter { from: 16, to: 897 }));
        // One-way: further overflows never retune again.
        let stats = KernelStats {
            htab_overflows: 50,
            ..Default::default()
        };
        let a = m.observe(
            cfg.epoch_cycles * 2,
            &snap(cfg.epoch_cycles * 2, 0),
            &stats,
            inp,
        );
        assert_eq!(a, None);
    }

    #[test]
    fn quiet_epochs_never_resize() {
        let cfg = MmtuneConfig::default();
        let mut m = Mmtune::new(cfg, true);
        // Almost no TLB misses: even an empty table is left alone.
        let a = m.observe(
            cfg.epoch_cycles,
            &snap(cfg.epoch_cycles, 1),
            &KernelStats::default(),
            inputs(0, 2048 * 8, 0, 2048),
        );
        assert_eq!(a, None);
    }

    #[test]
    fn decision_count_is_structurally_bounded() {
        // Hammer the controller with maximally retune-favourable epochs and
        // count decisions: the one-way doors must bound them.
        let cfg = MmtuneConfig {
            cooldown_epochs: 0,
            min_groups: 256,
            max_groups: 2048,
            ..MmtuneConfig::default()
        };
        let mut m = Mmtune::new(cfg, false);
        let mut groups = 2048u32;
        let mut decisions = 0;
        for e in 1..1000u64 {
            m.note_latency(u64::from(cfg.slow_reload_cycles) + 1);
            let stats = KernelStats {
                kernel_reloads: e * 100,
                htab_overflows: e,
                ..Default::default()
            };
            // Alternate shrink-favourable and grow-favourable pressure.
            let inp = if e % 2 == 0 {
                inputs(10, groups * 8, 0, groups)
            } else {
                inputs(groups * 8, groups * 8, groups, groups)
            };
            let mut inp = inp;
            inp.scatter = 16;
            if let Some(a) = m.observe(
                e * cfg.epoch_cycles,
                &snap(e * cfg.epoch_cycles, e * 100),
                &stats,
                inp,
            ) {
                decisions += 1;
                if let TuneAction::ResizeHtab { to, .. } = a {
                    groups = to;
                }
            }
        }
        let bound = 2 + 2 * (cfg.max_groups / cfg.min_groups).ilog2();
        assert!(
            decisions <= bound,
            "decisions {decisions} exceed the structural bound {bound}"
        );
    }

    #[test]
    fn final_values_reports_last_move_per_knob() {
        let cfg = MmtuneConfig::default();
        let mut m = Mmtune::new(cfg, false);
        m.log(RetuneDecision {
            cycle: 1,
            epoch: 0,
            knob: TuneKnob::HtabSize,
            from: 2048,
            to: 1024,
        });
        m.log(RetuneDecision {
            cycle: 2,
            epoch: 1,
            knob: TuneKnob::HtabSize,
            from: 1024,
            to: 512,
        });
        m.log(RetuneDecision {
            cycle: 3,
            epoch: 2,
            knob: TuneKnob::Bat,
            from: 0,
            to: 1,
        });
        let f = m.final_values();
        assert_eq!(f, vec![(TuneKnob::Bat, 1), (TuneKnob::HtabSize, 512)]);
    }
}
