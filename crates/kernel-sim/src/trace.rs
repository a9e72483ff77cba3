//! The ftrace-style event tracer: a fixed-capacity ring of cycle-stamped
//! kernel events, log2-bucket latency histograms and per-PTEG heatmaps.
//! The harness exports the ring as a Chrome `trace_event` timeline.
//!
//! Tracing is **purely observational**: no code in this module (or in the
//! instrumentation hooks that feed it) ever calls `Machine::charge` or
//! touches the cache/TLB state, so a traced run is bit-identical — same
//! cycle totals, same [`crate::stats::KernelStats`] — to an untraced one.
//! When [`crate::kconfig::KernelConfig::trace`] is off the kernel carries no
//! tracer at all and every hook is a single `Option` test.

use ppc_machine::Cycles;

use crate::prof::{Path, Profiler, NUM_PATHS};
use crate::task::Pid;

/// Ring capacity (events kept) of the tracer a traced kernel boots with.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// One kernel event, in the taxonomy the exporters understand.
///
/// Each variant corresponds to a hot path of the simulated kernel; the
/// payload is what the paper's §4 measurement loop would want to know about
/// that event (which PTEG, how many pages, which task).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A TLB miss entered the reload machinery.
    TlbMiss {
        /// Faulting effective address.
        ea: u32,
        /// Whether the address is kernel-side (the §5.1 footprint).
        kernel: bool,
    },
    /// A PTE was inserted into the hash table.
    HtabInsert {
        /// Primary-or-secondary PTEG the entry landed in.
        pteg: u32,
        /// Whether a valid entry was displaced (collision).
        evicted: bool,
    },
    /// A per-page TLB/hash-table flush ran.
    Flush {
        /// Pages flushed (1 for the per-page primitive).
        pages: u32,
    },
    /// A whole context was retired (VSID bump or eager scan).
    ContextBump,
    /// A real page fault was serviced.
    PageFault {
        /// Faulting effective address.
        ea: u32,
    },
    /// A protection fault broke copy-on-write sharing.
    CowFault {
        /// Faulting effective address.
        ea: u32,
    },
    /// The scheduler switched address spaces.
    CtxSwitch {
        /// PID of the incoming task.
        to: Pid,
    },
    /// A signal was delivered (caught roundtrip or fatal).
    Signal {
        /// Whether delivery killed the task.
        fatal: bool,
    },
    /// A syscall entered the kernel.
    Syscall,
    /// A reclaim sweep scanned PTEGs for zombies.
    Reclaim {
        /// Slots scanned.
        scanned: u32,
        /// Zombie entries invalidated.
        cleared: u32,
    },
    /// The OOM killer reaped a task.
    OomKill {
        /// PID of the victim.
        victim: Pid,
    },
    /// The idle task ran a stall window.
    Idle {
        /// Cycle budget of the stall.
        budget: u64,
    },
    /// A performance-monitor sampling interrupt fired.
    PmuSample {
        /// Subsystem on top of the span stack when the counter went
        /// negative.
        sub: crate::prof::Subsystem,
        /// Whole sampling periods this sample stands for (>1 when the
        /// counter ran several periods past negative before the next
        /// serviceable boundary).
        weight: u32,
    },
    /// The mmtune controller applied a retune decision.
    Retune {
        /// The knob that moved.
        knob: crate::tune::TuneKnob,
        /// Knob value before (groups, scatter constant, or 0/1 for BATs).
        from: u32,
        /// Knob value after.
        to: u32,
    },
}

impl TraceEvent {
    /// Stable event name (Chrome trace `name` field).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::TlbMiss { .. } => "tlb_miss",
            TraceEvent::HtabInsert { .. } => "htab_insert",
            TraceEvent::Flush { .. } => "flush",
            TraceEvent::ContextBump => "context_bump",
            TraceEvent::PageFault { .. } => "page_fault",
            TraceEvent::CowFault { .. } => "cow_fault",
            TraceEvent::CtxSwitch { .. } => "ctx_switch",
            TraceEvent::Signal { .. } => "signal",
            TraceEvent::Syscall => "syscall",
            TraceEvent::Reclaim { .. } => "reclaim",
            TraceEvent::OomKill { .. } => "oom_kill",
            TraceEvent::Idle { .. } => "idle",
            TraceEvent::PmuSample { .. } => "pmu_sample",
            TraceEvent::Retune { .. } => "retune",
        }
    }
}

/// A ring record: the event plus its cycle stamp and the task it happened
/// under (0 = no current task / the kernel itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Cycle-ledger stamp at the time of the event.
    pub cycle: Cycles,
    /// PID of the current task, or 0.
    pub pid: Pid,
    /// The event.
    pub event: TraceEvent,
}

/// Fixed-capacity ring buffer keeping the newest `capacity` records —
/// exactly ftrace's overwrite-oldest policy.
#[derive(Debug, Clone)]
pub struct TraceRing {
    buf: Vec<TraceRecord>,
    capacity: usize,
    /// Next write position (wraps).
    head: usize,
    /// Total records ever pushed (so `dropped = pushed - len`).
    pushed: u64,
}

impl TraceRing {
    /// An empty ring keeping at most `capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace ring capacity must be positive");
        Self {
            buf: Vec::with_capacity(capacity.min(4096)),
            capacity,
            head: 0,
            pushed: 0,
        }
    }

    /// Appends a record, overwriting the oldest when full.
    pub fn push(&mut self, rec: TraceRecord) {
        if self.buf.len() < self.capacity {
            self.buf.push(rec);
        } else {
            self.buf[self.head] = rec;
        }
        self.head = (self.head + 1) % self.capacity;
        self.pushed += 1;
    }

    /// Records currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring holds no records.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total records ever pushed, including overwritten ones.
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Records overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.pushed - self.buf.len() as u64
    }

    /// Iterates records oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        let split = if self.buf.len() < self.capacity {
            0
        } else {
            self.head
        };
        self.buf[split..].iter().chain(self.buf[..split].iter())
    }
}

/// Number of log2 buckets: bucket `i` holds values in `[2^i, 2^(i+1))`
/// (value 0 shares bucket 0 with value 1).
pub const HIST_BUCKETS: usize = 32;

/// A log2-bucket latency histogram with percentile readout.
///
/// Percentiles are resolved to the **upper bound** of the bucket containing
/// the requested rank (`2^(i+1) - 1`), i.e. a conservative "no more than"
/// figure — the right direction to be wrong in for a latency budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The log2 bucket `v` lands in.
    pub(crate) fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (63 - v.leading_zeros() as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-th percentile (`0 < p <= 100`), as the upper bound of the
    /// bucket holding that rank; 0 when empty.
    pub fn percentile(&self, p: u32) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (self.count * p as u64).div_ceil(100).max(1);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                // Upper bound of bucket i, clamped to the observed max.
                let hi = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return hi.min(self.max);
            }
        }
        self.max
    }

    /// `(p50, p90, p99)` shorthand.
    pub fn percentiles(&self) -> (u64, u64, u64) {
        (
            self.percentile(50),
            self.percentile(90),
            self.percentile(99),
        )
    }

    /// The raw bucket counts (bucket `i` covers `[2^i, 2^(i+1))`).
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }
}

/// The complete tracing state a traced kernel carries: event ring, cycle
/// profiler, latency histograms and per-PTEG heat counters.
#[derive(Debug, Clone)]
pub struct Tracer {
    /// The event ring.
    pub ring: TraceRing,
    /// Subsystem cycle attribution.
    pub prof: Profiler,
    /// One histogram per [`Path`], indexed by `repr`; only the
    /// [`Path::SAMPLED`] ones ever record.
    lat: [Histogram; NUM_PATHS],
    /// Hash-table inserts per PTEG (heatmap numerator).
    pub pteg_inserts: Vec<u32>,
    /// Inserts per PTEG that displaced a valid entry (collision heat).
    pub pteg_collisions: Vec<u32>,
}

impl Tracer {
    /// A fresh tracer for a hash table of `groups` PTEGs, with the default
    /// ring capacity, starting its attribution window at cycle `now`.
    pub fn new(groups: u32, now: Cycles) -> Self {
        Self::with_capacity(groups, now, DEFAULT_RING_CAPACITY)
    }

    /// As [`Tracer::new`] with an explicit ring capacity.
    pub fn with_capacity(groups: u32, now: Cycles, capacity: usize) -> Self {
        Self {
            ring: TraceRing::new(capacity),
            prof: Profiler::new(now),
            lat: [Histogram::new(); NUM_PATHS],
            pteg_inserts: vec![0; groups as usize],
            pteg_collisions: vec![0; groups as usize],
        }
    }

    /// Re-sizes the PTEG heat counters (used when a test swaps in a
    /// different hash table after boot).
    pub fn resize_groups(&mut self, groups: u32) {
        self.pteg_inserts = vec![0; groups as usize];
        self.pteg_collisions = vec![0; groups as usize];
    }

    /// Records a latency sample for `path`.
    pub fn record_latency(&mut self, path: Path, cycles: Cycles) {
        self.lat[path as usize].record(cycles);
    }

    /// The histogram for `path`.
    pub fn latency(&self, path: Path) -> &Histogram {
        &self.lat[path as usize]
    }

    /// Counts a hash-table insert into `pteg` (and a collision when
    /// `evicted`).
    pub fn count_htab_insert(&mut self, pteg: u32, evicted: bool) {
        if let Some(n) = self.pteg_inserts.get_mut(pteg as usize) {
            *n += 1;
        }
        if evicted {
            if let Some(n) = self.pteg_collisions.get_mut(pteg as usize) {
                *n += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(cycle: u64) -> TraceRecord {
        TraceRecord {
            cycle,
            pid: 1,
            event: TraceEvent::Syscall,
        }
    }

    #[test]
    fn ring_keeps_newest_n() {
        let mut r = TraceRing::new(4);
        for c in 0..11u64 {
            r.push(rec(c));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.total_pushed(), 11);
        assert_eq!(r.dropped(), 7);
        let cycles: Vec<u64> = r.iter().map(|x| x.cycle).collect();
        assert_eq!(cycles, vec![7, 8, 9, 10], "newest 4, oldest first");
    }

    #[test]
    fn ring_partial_fill_iterates_in_order() {
        let mut r = TraceRing::new(8);
        for c in 0..3u64 {
            r.push(rec(c));
        }
        let cycles: Vec<u64> = r.iter().map(|x| x.cycle).collect();
        assert_eq!(cycles, vec![0, 1, 2]);
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn histogram_percentiles_on_known_inputs() {
        // 100 samples of value 10: every percentile lands in bucket [8, 15].
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(10);
        }
        assert_eq!(h.percentile(50), 10, "clamped to the observed max");
        assert_eq!(h.percentile(99), 10);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 10);

        // 1..=1000: rank 500 is value 500, in bucket [256, 511] -> 511.
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(50), 511);
        // rank 900 -> value 900, bucket [512, 1023], clamped to max 1000.
        assert_eq!(h.percentile(90), 1000);
        assert_eq!(h.percentile(99), 1000);
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_empty_and_zero() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50), 0);
        assert_eq!(h.min(), 0);
        let mut h = Histogram::new();
        h.record(0);
        assert_eq!(h.percentile(99), 0, "single zero sample");
    }

    #[test]
    fn pteg_counters_track_inserts_and_collisions() {
        let mut t = Tracer::new(8, 0);
        t.count_htab_insert(3, false);
        t.count_htab_insert(3, true);
        t.count_htab_insert(7, true);
        assert_eq!(t.pteg_inserts[3], 2);
        assert_eq!(t.pteg_collisions[3], 1);
        assert_eq!(t.pteg_collisions[7], 1);
        assert_eq!(t.pteg_inserts.iter().sum::<u32>(), 3);
    }
}
