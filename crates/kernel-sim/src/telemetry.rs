//! Time-series MMU telemetry: fixed-width epoch buckets sampled at span
//! transitions.
//!
//! The tracer (PR 2) and the PMU (PR 3) answer "where did the cycles go"
//! for a whole run; this module answers "how did the MMU state *evolve*"
//! over that run: hash-table occupancy and zombie build-up, TLB residency
//! split kernel-vs-user, hit rates and collision pressure — each as one
//! value per fixed-width cycle epoch, the shape a dashboard (or an ASCII
//! sparkline) wants.
//!
//! Sampling piggybacks on the existing span-transition hook
//! (`Kernel::span`): whenever the cycle ledger crosses an epoch
//! boundary, the sampler reads the kernel's own structures — the hash
//! table, the TLBs, the VSID liveness set, the counter deltas since the
//! previous sample — and appends one [`EpochSample`]. Like the tracer, it
//! is **purely observational**: it never charges cycles, never touches
//! cache or TLB state, and never writes into the trace ring (so it cannot
//! evict trace events). A telemetry-on run is cycle-identical to a
//! telemetry-off run (the observer property test in `tests_observers`
//! proves it).

use ppc_machine::Cycles;

use crate::stats::KernelStats;

/// Default epoch width in cycles.
pub const DEFAULT_EPOCH_CYCLES: u64 = 65_536;

/// Epoch-sampler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Fixed epoch width in cycles; every sample is stamped with
    /// `cycle / epoch_cycles`.
    pub epoch_cycles: u64,
}

impl TelemetryConfig {
    /// The default epoch width ([`DEFAULT_EPOCH_CYCLES`]).
    pub fn default_epochs() -> Self {
        Self {
            epoch_cycles: DEFAULT_EPOCH_CYCLES,
        }
    }

    /// An explicit epoch width.
    ///
    /// # Panics
    ///
    /// Panics if `epoch_cycles` is zero.
    pub fn with_epoch(epoch_cycles: u64) -> Self {
        assert!(epoch_cycles > 0, "epoch width must be positive");
        Self { epoch_cycles }
    }
}

/// One sampled epoch: MMU state at the first span transition past the
/// epoch boundary, plus counter deltas accumulated since the previous
/// sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochSample {
    /// Epoch index (`cycle / epoch_cycles`).
    pub epoch: u64,
    /// Cycle the sample was actually taken at (the first span transition
    /// at or past the boundary).
    pub cycle: Cycles,
    /// Valid hash-table entries (occupancy numerator).
    pub htab_valid: u32,
    /// Valid entries whose VSID is still live.
    pub htab_live: u32,
    /// Zombie PTEs: valid entries whose context has been retired
    /// (`htab_valid - htab_live`).
    pub zombie_ptes: u32,
    /// PTEGs with all eight slots valid (collision pressure).
    pub full_groups: u32,
    /// TLB entries (both sides) holding kernel translations.
    pub tlb_kernel: u32,
    /// TLB entries (both sides) holding user translations.
    pub tlb_user: u32,
    /// Hash-table hits since the previous sample.
    pub htab_hits: u64,
    /// Hash-table misses since the previous sample.
    pub htab_misses: u64,
    /// Hash-table hit rate over the window, in ppm (1_000_000 when the
    /// window had no lookups).
    pub htab_hit_ppm: u64,
    /// TLB reloads since the previous sample.
    pub tlb_reloads: u64,
    /// Live-entry evictions since the previous sample.
    pub evict_live: u64,
    /// Zombie-entry evictions since the previous sample.
    pub evict_zombie: u64,
}

/// The names of the per-epoch series, in export order — the single source
/// of truth for the JSON exporter and the sparkline renderer.
pub const SERIES_NAMES: &[&str] = &[
    "htab_valid",
    "htab_live",
    "zombie_ptes",
    "full_groups",
    "tlb_kernel",
    "tlb_user",
    "htab_hit_ppm",
    "tlb_reloads",
    "evict_live",
    "evict_zombie",
];

impl EpochSample {
    /// The sample's series values, in [`SERIES_NAMES`] order.
    pub fn values(&self) -> [u64; SERIES_NAMES.len()] {
        [
            u64::from(self.htab_valid),
            u64::from(self.htab_live),
            u64::from(self.zombie_ptes),
            u64::from(self.full_groups),
            u64::from(self.tlb_kernel),
            u64::from(self.tlb_user),
            self.htab_hit_ppm,
            self.tlb_reloads,
            self.evict_live,
            self.evict_zombie,
        ]
    }
}

/// The MMU state telemetry, mmtune and tail capture read, filled by one
/// function (`Kernel::mmu_readings`) with plain reads — no cache or TLB
/// replacement state is touched, no cycles are charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MmuReadings {
    /// Hash-table size in PTEGs.
    pub htab_groups: u32,
    /// Total PTE capacity of the hash table.
    pub htab_capacity: u32,
    /// Valid hash-table entries (live + zombie).
    pub htab_valid: u32,
    /// Valid entries whose VSID is still live.
    pub htab_live: u32,
    /// PTEGs with all eight slots valid — the displacement pressure gauge.
    pub htab_full_groups: u32,
    /// [`crate::kernel::Kernel::uses_htab`].
    pub uses_htab: bool,
    /// The VSID scatter constant in force.
    pub scatter: u32,
    /// Kernel-side TLB entries (both sides).
    pub tlb_kernel: u32,
    /// User-side TLB entries (both sides).
    pub tlb_user: u32,
    /// Free page frames (the memory-pressure gauge).
    pub free_frames: usize,
}

impl MmuReadings {
    /// Zombie PTEs: valid entries whose context has been retired.
    pub fn zombies(&self) -> u32 {
        self.htab_valid.saturating_sub(self.htab_live)
    }
}

/// The boundary of the fixed-width epochs telemetry, mmtune and the
/// checker's heavy sweeps fire at (the first span transition past it).
#[derive(Debug, Clone, Copy)]
pub(crate) struct EpochClock {
    width: Cycles,
    next: Cycles,
}

impl EpochClock {
    /// A clock of `width`-cycle epochs; the first boundary is `width`.
    pub(crate) fn new(width: Cycles) -> Self {
        Self { width, next: width }
    }

    /// Whether the ledger at `now` has crossed the next boundary.
    #[inline]
    pub(crate) fn due(&self, now: Cycles) -> bool {
        now >= self.next
    }

    /// The next boundary.
    pub(crate) fn next(&self) -> Cycles {
        self.next
    }

    /// Moves the next boundary past `now` (skipped epochs fire once) and
    /// returns the index of the epoch `now` lies in.
    pub(crate) fn advance(&mut self, now: Cycles) -> u64 {
        let epoch = now / self.width;
        self.next = (epoch + 1) * self.width;
        epoch
    }
}

/// The epoch sampler state a telemetry-enabled kernel carries.
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// Configuration.
    pub cfg: TelemetryConfig,
    /// Samples, oldest first, one per crossed epoch boundary.
    pub epochs: Vec<EpochSample>,
    /// The next sample boundary.
    pub(crate) clock: EpochClock,
    /// Counter snapshot at the previous sample (for window deltas).
    last_stats: KernelStats,
}

impl Telemetry {
    /// A fresh sampler; the first sample fires at the first span
    /// transition past `epoch_cycles`.
    pub fn new(cfg: TelemetryConfig) -> Self {
        Self {
            cfg,
            epochs: Vec::new(),
            clock: EpochClock::new(cfg.epoch_cycles),
            last_stats: KernelStats::default(),
        }
    }

    /// Records one sample from `readings` and the counter deltas since the
    /// previous sample, then advances the boundary past `now`.
    pub fn record(&mut self, now: Cycles, readings: MmuReadings, stats: &KernelStats) {
        let d = stats.diff(&self.last_stats);
        self.last_stats = *stats;
        let lookups = d.htab_hits + d.htab_misses;
        let epoch = self.clock.advance(now);
        self.epochs.push(EpochSample {
            epoch,
            cycle: now,
            htab_valid: readings.htab_valid,
            htab_live: readings.htab_live,
            zombie_ptes: readings.zombies(),
            full_groups: readings.htab_full_groups,
            tlb_kernel: readings.tlb_kernel,
            tlb_user: readings.tlb_user,
            htab_hits: d.htab_hits,
            htab_misses: d.htab_misses,
            htab_hit_ppm: (d.htab_hits * 1_000_000)
                .checked_div(lookups)
                .unwrap_or(1_000_000),
            tlb_reloads: d.tlb_reloads,
            evict_live: d.evict_live,
            evict_zombie: d.evict_zombie,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn readings(valid: u32, live: u32) -> MmuReadings {
        MmuReadings {
            htab_valid: valid,
            htab_live: live,
            htab_full_groups: 1,
            tlb_kernel: 10,
            tlb_user: 20,
            ..MmuReadings::default()
        }
    }

    #[test]
    fn samples_fire_at_boundaries_and_bucket_deltas() {
        let mut t = Telemetry::new(TelemetryConfig::with_epoch(1000));
        assert!(!t.clock.due(999));
        assert!(t.clock.due(1000));
        let mut s = KernelStats {
            htab_hits: 9,
            htab_misses: 1,
            tlb_reloads: 10,
            ..Default::default()
        };
        t.record(1100, readings(50, 30), &s);
        assert_eq!(t.epochs.len(), 1);
        let e = &t.epochs[0];
        assert_eq!(e.epoch, 1);
        assert_eq!(e.zombie_ptes, 20);
        assert_eq!(e.htab_hit_ppm, 900_000);
        assert_eq!(e.tlb_reloads, 10);
        // Boundary advanced past the sample cycle.
        assert!(!t.clock.due(1999));
        assert!(t.clock.due(2000));

        // Second window: only the delta since the first sample counts.
        s.htab_hits += 1;
        s.htab_misses += 3;
        t.record(2048, readings(60, 60), &s);
        let e = &t.epochs[1];
        assert_eq!(e.epoch, 2);
        assert_eq!(e.htab_hits, 1);
        assert_eq!(e.htab_misses, 3);
        assert_eq!(e.htab_hit_ppm, 250_000);
        assert_eq!(e.zombie_ptes, 0);
    }

    #[test]
    fn skipped_epochs_jump_the_boundary() {
        let mut t = Telemetry::new(TelemetryConfig::with_epoch(100));
        let s = KernelStats::default();
        // The ledger leapt 10 epochs between transitions: one sample,
        // stamped with the epoch it landed in, and the boundary follows it.
        t.record(1050, readings(0, 0), &s);
        assert_eq!(t.epochs[0].epoch, 10);
        assert!(!t.clock.due(1099));
        assert!(t.clock.due(1100));
        // An empty window reads as a perfect hit rate, not a 0/0 panic.
        assert_eq!(t.epochs[0].htab_hit_ppm, 1_000_000);
    }

    #[test]
    fn series_names_cover_every_exported_series() {
        let mut t = Telemetry::new(TelemetryConfig::default_epochs());
        t.record(
            DEFAULT_EPOCH_CYCLES,
            readings(8, 6),
            &KernelStats::default(),
        );
        let named: Vec<(&str, u64)> = SERIES_NAMES
            .iter()
            .copied()
            .zip(t.epochs[0].values())
            .collect();
        assert_eq!(
            named,
            [
                ("htab_valid", 8),
                ("htab_live", 6),
                ("zombie_ptes", 2),
                ("full_groups", 1),
                ("tlb_kernel", 10),
                ("tlb_user", 20),
                ("htab_hit_ppm", 1_000_000),
                ("tlb_reloads", 0),
                ("evict_live", 0),
                ("evict_zombie", 0),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "epoch width")]
    fn zero_epoch_width_rejected() {
        TelemetryConfig::with_epoch(0);
    }
}
