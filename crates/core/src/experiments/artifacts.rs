//! Machine-readable run artifacts: the §4 measurement loop as files.
//!
//! [`trace_artifacts`] runs the reference workload once on the optimized
//! 604/133 — the matrix's `604-133/opt/trace_ref` cell, through the same
//! runner — with the tracer, the epoch telemetry sampler and a
//! capture-all tail armed (`observed_config`), and packages what they
//! read into two artifacts that can be diffed across commits:
//!
//! * `metrics.json` (`mmu-tricks-metrics-v1`) — total cycles,
//!   per-subsystem cycle attribution, latency per hot path (histogram
//!   percentiles next to the exact p99 read off the retained tail), the
//!   ranked tail causes and the slowest exemplars per path, every
//!   [`KernelStats`] counter, the per-PTEG insert/collision heatmap, and
//!   the telemetry series;
//! * the trace ring as a Chrome `trace_event` timeline
//!   (`mmu-tricks-timeline-v1`; load it in `about:tracing` or Perfetto)
//!   with cycle stamps as timestamps.
//!
//! Both are byte-for-byte reproducible: no wall-clock timestamps, no
//! paths, no floating-point formatting that varies run to run. The armed
//! observers are invisible: the run counts exactly what the unobserved
//! cell counts (tested below, and over the whole grid by `check_grid`).

use kernel_sim::sched::USER_BASE;
use kernel_sim::telemetry::SERIES_NAMES;
use kernel_sim::{
    EpochSample, Kernel, KernelConfig, KernelStats, Path, Subsystem, TailCause, TailConfig,
    TailExemplar, TelemetryConfig, TraceEvent, TraceRecord,
};
use ppc_mmu::addr::PAGE_SIZE;

use crate::artifact::Json;
use crate::matrix::{machine_row, run_workload};
use crate::tables::{sparkline, Table};
use crate::Depth;

/// Exemplars kept per path in the artifact and the dump table — bounded
/// so a capture-all run does not swamp the report.
pub const DUMP_N: usize = 8;

/// One instrumented path of the observed run: the histogram's count,
/// range and percentiles, and what the capture-all tail retained of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    /// Path name (`tlb_reload`, `page_fault`, `signal_delivery`).
    pub path: &'static str,
    /// Samples recorded.
    pub count: u64,
    /// Smallest sample (cycles).
    pub min: u64,
    /// Largest sample (cycles).
    pub max: u64,
    /// Mean in milli-cycles (×1000, kept integral for determinism).
    pub mean_millicycles: u64,
    /// 50th percentile (cycles).
    pub p50: u64,
    /// 90th percentile (cycles).
    pub p90: u64,
    /// 99th percentile (cycles). A log2-bucket **upper bound** — can
    /// overstate the true p99 by up to 2×.
    pub p99: u64,
    /// Exact 99th percentile (cycles): the retained sample at the p99
    /// rank (`exact_p99`); `None` when the reservoir does not reach down
    /// to that rank.
    pub p99_exact: Option<u64>,
    /// Exemplars the tail reservoir retained for the path.
    pub retained: u64,
}

/// The exact p99 of `count` samples, read off their slowest-first
/// reservoir: the sample at rank `ceil(0.99 * count)` from the bottom.
/// `None` when the reservoir holds fewer samples than that rank needs.
fn exact_p99(count: u64, slowest_first: impl IntoIterator<Item = u64>) -> Option<u64> {
    let from_top = count - (count * 99).div_ceil(100);
    slowest_first.into_iter().nth(from_top as usize)
}

/// The observed reference run's kernel: the optimized kernel with the
/// tracer, the epoch telemetry sampler and a capture-all tail armed. A
/// threshold of one cycle arms every sample, and the reservoir holds the
/// whole 1 % tail of the busiest path (`tlb_reload`: 11 855 samples at
/// quick depth, 108 112 at full), so the exact p99 is a retained sample.
fn observed_config(depth: Depth) -> KernelConfig {
    let top_n = match depth {
        Depth::Quick => 512,
        Depth::Full => 2048,
    };
    KernelConfig {
        trace: true,
        telemetry: Some(TelemetryConfig::default_epochs()),
        tail: Some(TailConfig {
            threshold: Some(1),
            top_n,
        }),
        ..KernelConfig::optimized()
    }
}

/// Everything the observed reference run produced, ready for export.
#[derive(Debug, Clone)]
pub struct TraceArtifacts {
    /// Depth the workload ran at (`quick` or `full`).
    pub depth: &'static str,
    /// Machine slug (e.g. `604-133`) the run was measured on — recorded so
    /// the differ can refuse cross-machine comparisons.
    pub machine: String,
    /// The kernel's full optimization-toggle summary
    /// ([`KernelConfig::summary`]).
    pub config: String,
    /// Total cycles of the run.
    pub total_cycles: u64,
    /// `(subsystem, self cycles)` in [`Subsystem::ALL`] order; sums to
    /// [`TraceArtifacts::total_cycles`] exactly.
    pub attribution: Vec<(&'static str, u64)>,
    /// One summary per sampled [`Path`].
    pub latency: Vec<LatencySummary>,
    /// Samples offered to the tail over the run (every latency sample;
    /// the reservoirs retained [`LatencySummary::retained`] of them).
    pub captured: u64,
    /// `(cause, cycles above the path median, exemplars)` over every
    /// retained exemplar, ranked by cycles descending — why the p99 is
    /// what it is.
    pub causes: Vec<(TailCause, u64, u64)>,
    /// The slowest retained exemplars, one vec per path in
    /// [`Path::SAMPLED`] order, slowest first, trimmed to [`DUMP_N`].
    pub exemplars: Vec<Vec<TailExemplar>>,
    /// Kernel counters for the run.
    pub stats: KernelStats,
    /// Hash-table inserts per PTEG (index = group).
    pub pteg_inserts: Vec<u32>,
    /// Inserts per PTEG that displaced a live entry.
    pub pteg_collisions: Vec<u32>,
    /// Ring capacity.
    pub ring_capacity: usize,
    /// Records still in the ring.
    pub ring_recorded: usize,
    /// Records pushed over the run (≥ recorded).
    pub ring_pushed: u64,
    /// Records overwritten by wrap-around.
    pub ring_dropped: u64,
    /// The ring's records, oldest first.
    pub events: Vec<TraceRecord>,
    /// Epoch width of the telemetry sampler (cycles).
    pub telemetry_epoch_cycles: u64,
    /// The MMU time series, one sample per crossed epoch (plus the final
    /// tail sample).
    pub telemetry: Vec<EpochSample>,
}

impl TraceArtifacts {
    /// Sum of the attribution buckets (equals `total_cycles`).
    pub fn attribution_total(&self) -> u64 {
        self.attribution.iter().map(|(_, c)| c).sum()
    }

    /// The `mmu-tricks-metrics-v1` artifact: the run's counters,
    /// attribution, latency, tail causes and exemplars, PTEG heatmap and
    /// telemetry. The `repro --json` run report is this object with its
    /// tables appended. `causes` keeps the whole taxonomy in fixed order,
    /// zeros included, so two recordings always compare the same keys.
    pub fn metrics_json(&self) -> Json {
        let latency = self.latency.iter().map(|l| {
            let summary = Json::object()
                .field("count", l.count)
                .field("min", l.min)
                .field("max", l.max)
                .field("mean_millicycles", l.mean_millicycles)
                .field("p50", l.p50)
                .field("p90", l.p90)
                .field("p99", l.p99);
            let summary = match l.p99_exact {
                Some(p) => summary.field("p99_exact", p),
                None => summary,
            };
            (l.path, summary.field("retained", l.retained))
        });
        let causes = TailCause::ALL.iter().map(|cause| {
            let (cycles, n) = self
                .causes
                .iter()
                .find(|(c, _, _)| c == cause)
                .map_or((0, 0), |(_, cy, n)| (*cy, *n));
            let row = Json::object()
                .field("above_median_cycles", cycles)
                .field("exemplars", n);
            (cause.name(), row)
        });
        let exemplars = self.latency.iter().zip(&self.exemplars).map(|(l, dump)| {
            let dump = dump.iter().map(|e| {
                Json::object()
                    .field("seq", e.seq)
                    .field("cycle", e.cycle)
                    .field("pid", e.pid)
                    .field("latency", e.latency)
                    .field("above_median", e.latency.saturating_sub(l.p50))
                    .field("cause", e.cause.name())
                    .field("stack_depth", e.stack.len())
                    .field("window_events", e.window.len())
                    .field("htab_full_groups", e.mmu.htab_full_groups)
                    .field("zombies", e.mmu.zombies())
                    .field("free_frames", e.mmu.free_frames)
            });
            (l.path, Json::arr(dump))
        });
        let total = |v: &[u32]| v.iter().map(|&n| u64::from(n)).sum::<u64>();
        let pteg = Json::object()
            .field("groups", self.pteg_inserts.len())
            .field("inserts_total", total(&self.pteg_inserts))
            .field("collisions_total", total(&self.pteg_collisions))
            .field("inserts", Json::arr(self.pteg_inserts.iter().copied()))
            .field(
                "collisions",
                Json::arr(self.pteg_collisions.iter().copied()),
            );
        let ring = Json::object()
            .field("capacity", self.ring_capacity)
            .field("recorded", self.ring_recorded)
            .field("pushed", self.ring_pushed)
            .field("dropped", self.ring_dropped);
        let series = SERIES_NAMES.iter().enumerate().map(|(i, name)| {
            let values = self.telemetry.iter().map(|e| e.values()[i]);
            (*name, Json::arr(values))
        });
        let telemetry = Json::object()
            .field("epoch_cycles", self.telemetry_epoch_cycles)
            .field("samples", self.telemetry.len())
            .field("series", Json::obj(series));
        Json::object()
            .field("schema", "mmu-tricks-metrics-v1")
            .field("workload", "trace_ref")
            .field("depth", self.depth)
            .field("machine", &self.machine)
            .field("config", &self.config)
            .field("total_cycles", self.total_cycles)
            .field("attribution", Json::obj(self.attribution.iter().copied()))
            .field("attribution_total", self.attribution_total())
            .field("latency", Json::obj(latency))
            .field("captured", self.captured)
            .field("causes", Json::obj(causes))
            .field("exemplars", Json::obj(exemplars))
            .field("stats", Json::obj(self.stats.as_named_pairs()))
            .field("pteg", pteg)
            .field("ring", ring)
            .field("telemetry", telemetry)
    }

    /// The `mmu-tricks-timeline-v1` artifact: the trace ring as a Chrome
    /// `trace_event` document (the object form: a `traceEvents` array of
    /// instant events after one process-name record). Timestamps are the
    /// cycle stamps themselves, so the time axis in `about:tracing` or
    /// Perfetto reads in simulated cycles; booleans in `args` are 0 or 1.
    pub fn timeline_json(&self) -> Json {
        let process = Json::object()
            .field("name", "process_name")
            .field("ph", "M")
            .field("pid", 0u32)
            .field("tid", 0u32)
            .field("args", Json::obj([("name", "kernel-sim")]));
        let events = self.events.iter().map(|r| {
            Json::object()
                .field("name", r.event.name())
                .field("ph", "i")
                .field("s", "t")
                .field("ts", r.cycle)
                .field("pid", r.pid)
                .field("tid", 0u32)
                .field("args", event_args(&r.event))
        });
        Json::object()
            .field("schema", "mmu-tricks-timeline-v1")
            .field("depth", self.depth)
            .field("machine", &self.machine)
            .field("config", &self.config)
            .field("displayTimeUnit", "ns")
            .field(
                "traceEvents",
                Json::Arr(std::iter::once(process).chain(events).collect()),
            )
    }

    /// The rendered views: subsystem self-time, latency per path, the
    /// telemetry sparklines, the ranked tail causes and the exemplar dump.
    pub fn tables(&self) -> Vec<Table> {
        let mut self_time = Table::new(
            "Self-time by subsystem (604 133MHz, optimized kernel, traced run)",
            vec!["subsystem".into(), "cycles".into(), "share".into()],
        );
        let share =
            |cycles: u64| format!("{:.1}%", 100.0 * cycles as f64 / self.total_cycles as f64);
        let mut rows: Vec<(&'static str, u64)> = self.attribution.clone();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        for (name, cycles) in rows {
            self_time.push_row(vec![name.into(), format!("{cycles}"), share(cycles)]);
        }
        let total = self.attribution_total();
        self_time.push_row(vec!["total".into(), format!("{total}"), share(total)]);

        let mut lat = Table::new(
            "Latency percentiles (cycles) per instrumented path \
             (p99 is the bucket bound, p99_exact the captured sample, \
             retained the exemplars the tail kept)",
            vec![
                "path".into(),
                "count".into(),
                "min".into(),
                "p50".into(),
                "p90".into(),
                "p99".into(),
                "p99_exact".into(),
                "max".into(),
                "retained".into(),
            ],
        );
        for l in &self.latency {
            lat.push_row(vec![
                l.path.into(),
                format!("{}", l.count),
                format!("{}", l.min),
                format!("{}", l.p50),
                format!("{}", l.p90),
                format!("{}", l.p99),
                l.p99_exact.map_or("-".into(), |p| p.to_string()),
                format!("{}", l.max),
                format!("{}", l.retained),
            ]);
        }

        let mut telem = Table::new(
            format!(
                "MMU telemetry over {} epochs of {} cycles ({}, {})",
                self.telemetry.len(),
                self.telemetry_epoch_cycles,
                self.machine,
                self.depth
            ),
            vec![
                "series".into(),
                "min".into(),
                "max".into(),
                "last".into(),
                "trend".into(),
            ],
        );
        for (i, name) in SERIES_NAMES.iter().enumerate() {
            let vals: Vec<u64> = self.telemetry.iter().map(|e| e.values()[i]).collect();
            let min = vals.iter().min().copied().unwrap_or(0);
            let max = vals.iter().max().copied().unwrap_or(0);
            let last = vals.last().copied().unwrap_or(0);
            telem.push_row(vec![
                (*name).into(),
                format!("{min}"),
                format!("{max}"),
                format!("{last}"),
                sparkline(&downsample(&vals, 48)),
            ]);
        }

        let above_total: u64 = self.causes.iter().map(|(_, c, _)| c).sum();
        let mut causes = Table::new(
            format!(
                "Ranked tail causes ({} exemplars retained, {} captures; \
                 cycles above the path median)",
                self.latency.iter().map(|l| l.retained).sum::<u64>(),
                self.captured
            ),
            vec![
                "cause".into(),
                "exemplars".into(),
                "cycles_above_median".into(),
                "share".into(),
            ],
        );
        for (cause, cycles, n) in &self.causes {
            let share = if above_total == 0 {
                "-".to_string()
            } else {
                format!("{:.1}%", 100.0 * *cycles as f64 / above_total as f64)
            };
            causes.push_row(vec![
                cause.name().into(),
                format!("{n}"),
                format!("{cycles}"),
                share,
            ]);
        }

        let mut dump = Table::new(
            format!("Top tail exemplars (up to {DUMP_N} per path, slowest first)"),
            vec![
                "path".into(),
                "latency".into(),
                "cycle".into(),
                "pid".into(),
                "cause".into(),
                "span stack".into(),
                "window".into(),
            ],
        );
        for (l, exemplars) in self.latency.iter().zip(&self.exemplars) {
            for e in exemplars {
                let stack = e
                    .stack
                    .iter()
                    .map(|s| s.name())
                    .collect::<Vec<_>>()
                    .join(">");
                let window = match e.window.last() {
                    Some(r) => format!("{} events, last={}", e.window.len(), r.event.name()),
                    None => "empty".to_string(),
                };
                dump.push_row(vec![
                    l.path.into(),
                    format!("{}", e.latency),
                    format!("{}", e.cycle),
                    format!("{}", e.pid),
                    e.cause.name().into(),
                    stack,
                    window,
                ]);
            }
        }
        vec![self_time, lat, telem, causes, dump]
    }
}

/// A trace event's payload: the Chrome `args` object.
fn event_args(e: &TraceEvent) -> Json {
    let flag = u32::from;
    let args = Json::object();
    match *e {
        TraceEvent::TlbMiss { ea, kernel } => args.field("ea", ea).field("kernel", flag(kernel)),
        TraceEvent::HtabInsert { pteg, evicted } => {
            args.field("pteg", pteg).field("evicted", flag(evicted))
        }
        TraceEvent::Flush { pages } => args.field("pages", pages),
        TraceEvent::ContextBump | TraceEvent::Syscall => args,
        TraceEvent::PageFault { ea } | TraceEvent::CowFault { ea } => args.field("ea", ea),
        TraceEvent::CtxSwitch { to } => args.field("to", to),
        TraceEvent::Signal { fatal } => args.field("fatal", flag(fatal)),
        TraceEvent::Reclaim { scanned, cleared } => {
            args.field("scanned", scanned).field("cleared", cleared)
        }
        TraceEvent::OomKill { victim } => args.field("victim", victim),
        TraceEvent::Idle { budget } => args.field("budget", budget),
        TraceEvent::PmuSample { sub, weight } => {
            args.field("sub", sub.name()).field("weight", weight)
        }
        TraceEvent::Retune { knob, from, to } => args
            .field("knob", knob.name())
            .field("from", from)
            .field("to", to),
    }
}

/// Reduces a series to at most `width` points by taking the max of each
/// chunk (peaks are what a trend plot must not lose).
fn downsample(vals: &[u64], width: usize) -> Vec<f64> {
    if vals.is_empty() {
        return Vec::new();
    }
    let chunk = vals.len().div_ceil(width);
    vals.chunks(chunk)
        .map(|c| *c.iter().max().expect("chunks are non-empty") as f64)
        .collect()
}

/// The reference workload: the paper's compile, then a signal-heavy coda so
/// all three latency paths (TLB reload, page fault, signal delivery) carry
/// samples, then an idle sweep. Fully deterministic. It is the matrix's
/// `trace_ref` workload, and [`run_workload`] is its one caller: the
/// metrics artifact, E-PMU and the perf recorder all run it through that
/// runner, so their cycle totals are comparable.
pub fn reference_workload(k: &mut Kernel, depth: Depth) {
    lmbench::compile::kernel_compile(k, depth.compile());
    let pid = k.spawn_process(8).expect("room for the signal task");
    k.switch_to(pid);
    k.user_write(USER_BASE, PAGE_SIZE)
        .expect("prefault handler page");
    k.sys_signal_install();
    let rounds = match depth {
        Depth::Quick => 32,
        Depth::Full => 256,
    };
    for _ in 0..rounds {
        k.signal_roundtrip(USER_BASE).expect("handler installed");
    }
    k.run_idle(100_000);
    k.exit_current();
}

/// Runs the reference workload once as the observed `604-133/opt/trace_ref`
/// cell (`observed_config`, through the matrix's [`run_workload`]) and
/// returns its artifacts plus their rendered tables
/// ([`TraceArtifacts::tables`]).
pub fn trace_artifacts(depth: Depth) -> (TraceArtifacts, Vec<Table>) {
    let m = machine_row("604-133");
    let run = run_workload(&m, observed_config(depth), "trace_ref", depth);
    let mut k = run.kernel;
    k.telemetry_finish();
    let telemetry = k
        .telemetry
        .as_ref()
        .map(|t| t.epochs.clone())
        .unwrap_or_default();
    let now = k.machine.cycles;
    let t = k.tracer.as_mut().expect("tracer enabled");
    t.prof.finish(now);
    let tl = k.tail.as_ref().expect("tail armed");

    let attribution: Vec<(&'static str, u64)> = Subsystem::ALL
        .iter()
        .map(|&s| (s.name(), t.prof.self_cycles(s)))
        .collect();
    let latency: Vec<LatencySummary> = Path::SAMPLED
        .iter()
        .map(|&p| {
            let h = t.latency(p);
            let (p50, p90, p99) = h.percentiles();
            let retained = tl.exemplars(p);
            LatencySummary {
                path: p.name(),
                count: h.count(),
                min: h.min(),
                max: h.max(),
                mean_millicycles: (h.mean() * 1000.0).round() as u64,
                p50,
                p90,
                p99,
                p99_exact: exact_p99(h.count(), retained.iter().map(|e| e.latency)),
                retained: retained.len() as u64,
            }
        })
        .collect();

    let art = TraceArtifacts {
        depth: depth.name(),
        machine: m.machine.id(),
        config: KernelConfig::optimized().summary(),
        total_cycles: run.cycles,
        attribution,
        latency,
        captured: tl.captured(),
        causes: tl.attribution(t),
        exemplars: Path::SAMPLED
            .iter()
            .map(|&p| tl.exemplars(p).iter().take(DUMP_N).cloned().collect())
            .collect(),
        stats: run.stats,
        pteg_inserts: t.pteg_inserts.clone(),
        pteg_collisions: t.pteg_collisions.clone(),
        ring_capacity: kernel_sim::trace::DEFAULT_RING_CAPACITY,
        ring_recorded: t.ring.len(),
        ring_pushed: t.ring.total_pushed(),
        ring_dropped: t.ring.dropped(),
        events: t.ring.iter().copied().collect(),
        telemetry_epoch_cycles: kernel_sim::telemetry::DEFAULT_EPOCH_CYCLES,
        telemetry,
    };
    let tables = art.tables();
    (art, tables)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::parse;
    use std::sync::OnceLock;

    /// One quick observed run shared by the tests that only read it.
    fn quick() -> &'static (TraceArtifacts, Vec<Table>) {
        static QUICK: OnceLock<(TraceArtifacts, Vec<Table>)> = OnceLock::new();
        QUICK.get_or_init(|| trace_artifacts(Depth::Quick))
    }

    /// The timeline written and read back through the one artifact parser,
    /// and its `traceEvents` array.
    fn timeline(a: &TraceArtifacts) -> (Json, Vec<Json>) {
        let doc = parse(&a.timeline_json().write()).expect("the timeline parses");
        let Some(Json::Arr(events)) = doc.get("traceEvents") else {
            panic!("the timeline has no traceEvents array");
        };
        let events = events.clone();
        (doc, events)
    }

    #[test]
    fn observed_run_counts_what_an_unobserved_run_counts() {
        // The capture-all tail (fixed threshold, 512-deep reservoir) is an
        // arming no other identity test uses; with trace and telemetry it
        // must leave the cell's cycles, counters and hardware monitor alone.
        let m = machine_row("604-133");
        let observed = run_workload(&m, observed_config(Depth::Quick), "trace_ref", Depth::Quick);
        let plain = run_workload(&m, KernelConfig::optimized(), "trace_ref", Depth::Quick);
        assert_eq!(observed.cycles, plain.cycles);
        assert_eq!(observed.stats, plain.stats);
        assert_eq!(observed.monitor, plain.monitor);
        let (a, _) = quick();
        assert_eq!((a.total_cycles, a.stats), (observed.cycles, observed.stats));
    }

    #[test]
    fn chrome_json_shape() {
        let mut a = quick().0.clone();
        a.events = vec![TraceRecord {
            cycle: 42,
            pid: 7,
            event: TraceEvent::HtabInsert {
                pteg: 3,
                evicted: true,
            },
        }];
        let (doc, events) = timeline(&a);
        let schema = Json::from("mmu-tricks-timeline-v1");
        assert_eq!(doc.get("schema"), Some(&schema));
        assert_eq!(doc.get("displayTimeUnit"), Some(&Json::from("ns")));
        assert_eq!(events.len(), 2, "the process-name record, then the event");
        assert_eq!(events[0].get("ph"), Some(&Json::from("M")));
        let insert = Json::object()
            .field("name", "htab_insert")
            .field("ph", "i")
            .field("s", "t")
            .field("ts", 42u32)
            .field("pid", 7u32)
            .field("tid", 0u32)
            .field("args", Json::obj([("pteg", 3u32), ("evicted", 1)]));
        assert_eq!(events[1], insert, "booleans are written as 0/1");
    }

    #[test]
    fn chrome_export_of_a_real_run_is_balanced() {
        let (a, _) = quick();
        let (_, events) = timeline(a);
        assert_eq!(events.len(), a.ring_recorded + 1);
        let names: Vec<&Json> = events.iter().filter_map(|e| e.get("name")).collect();
        assert_eq!(names.len(), events.len(), "every event is named");
        assert!(names.contains(&&Json::from("tlb_miss")));
        // Events carry their cycle stamps, oldest first.
        let stamps: Vec<&Json> = events[1..].iter().filter_map(|e| e.get("ts")).collect();
        assert_eq!(stamps.len(), a.ring_recorded);
        assert!(stamps.windows(2).all(|w| match (w[0], w[1]) {
            (Json::Num(x), Json::Num(y)) => x <= y,
            _ => false,
        }));
    }

    #[test]
    fn attribution_sums_and_latency_paths_populate() {
        let (a, tables) = quick();
        assert_eq!(a.attribution_total(), a.total_cycles);
        assert_eq!(a.latency.len(), 3);
        for l in &a.latency {
            assert!(l.count > 0, "{} has no samples", l.path);
            assert!(l.p50 <= l.p90 && l.p90 <= l.p99, "{}", l.path);
        }
        assert!(a.pteg_inserts.iter().any(|&n| n > 0));
        assert_eq!(tables.len(), 5);
        // The telemetry series covers the run and plots non-trivially.
        assert!(a.telemetry.len() >= 4, "quick run spans many epochs");
        let telem = tables[2].render();
        assert!(
            telem.contains("htab_valid") && telem.contains('▁'),
            "{telem}"
        );
    }

    #[test]
    fn exact_p99_sits_inside_the_bucket_bound() {
        let (a, _) = quick();
        for l in &a.latency {
            assert!(l.retained > 0, "{} retained nothing", l.path);
            let exact = l.p99_exact.unwrap_or_else(|| {
                panic!("{}: the quick reservoir holds the whole 1% tail", l.path)
            });
            assert!(
                l.min <= exact && exact <= l.p99 && exact <= l.max,
                "{}: exact p99 {exact} must be a real sample under the bucket bound {}",
                l.path,
                l.p99
            );
        }
    }

    #[test]
    fn exact_p99_reads_the_retained_rank_or_nothing() {
        // 100 samples: the p99 is the 99th from the bottom, the second
        // slowest.
        assert_eq!(exact_p99(100, [90, 80, 70]), Some(80));
        // 32 samples: rank 32 of 32, the slowest.
        assert_eq!(exact_p99(32, [2554, 959]), Some(2554));
        // 108 112 samples put 1 082 in the 1% tail; a 512-deep reservoir
        // stops short, and the answer is "not retained", not a bound.
        let reservoir = (0..512).rev();
        assert_eq!(exact_p99(108_112, reservoir), None);
        assert_eq!(exact_p99(0, []), None);
    }

    #[test]
    fn causes_rank_and_exemplars_dump() {
        let (a, tables) = quick();
        assert!(!a.causes.is_empty());
        // Ranked by cycles-above-median, descending.
        let cycles: Vec<u64> = a.causes.iter().map(|(_, c, _)| *c).collect();
        let mut sorted = cycles.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(cycles, sorted);
        // The dump is bounded and slowest-first per path.
        assert_eq!(a.exemplars.len(), 3);
        for per_path in &a.exemplars {
            assert!(!per_path.is_empty() && per_path.len() <= DUMP_N);
            assert!(per_path.windows(2).all(|w| w[0].latency >= w[1].latency));
        }
        let causes = tables[3].render();
        assert!(causes.contains(a.causes[0].0.name()), "{causes}");
        assert_eq!(
            tables[4].rows.len(),
            a.exemplars.iter().map(Vec::len).sum::<usize>()
        );
    }

    #[test]
    fn the_cause_table_title_counts_what_its_rows_count() {
        let (a, tables) = quick();
        let causes = &tables[3];
        let rows: u64 = causes
            .rows
            .iter()
            .map(|r| r[1].parse::<u64>().expect("an exemplar count"))
            .sum();
        let retained: u64 = a.latency.iter().map(|l| l.retained).sum();
        assert_eq!(rows, retained, "every retained exemplar has one cause");
        let title = format!("Ranked tail causes ({rows} exemplars retained, ");
        assert!(causes.title.starts_with(&title), "{}", causes.title);
    }

    #[test]
    fn metrics_json_has_the_required_keys_and_balances() {
        let (a, _) = quick();
        let j = a.metrics_json().write();
        for key in [
            "\"schema\"",
            "\"total_cycles\"",
            "\"attribution\"",
            "\"attribution_total\"",
            "\"tlb_reload\"",
            "\"page_fault\"",
            "\"signal_delivery\"",
            "\"p99_exact\"",
            "\"retained\"",
            "\"captured\"",
            "\"causes\"",
            "\"exemplars\"",
            "\"above_median\"",
            "\"stats\"",
            "\"pteg\"",
            "\"ring\"",
            "\"machine\": \"604-133\"",
            "\"config\": \"bats=1",
            "\"telemetry\"",
            "\"epoch_cycles\"",
            "\"htab_valid\"",
            "\"zombie_ptes\"",
            "\"tlb_kernel\"",
            "\"htab_hit_ppm\"",
        ] {
            assert!(j.contains(key), "metrics.json missing {key}");
        }
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        // Every kernel counter and every tail cause appears by name.
        for name in KernelStats::NAMES {
            assert!(j.contains(&format!("\"{name}\"")), "missing {name}");
        }
        for cause in TailCause::ALL {
            assert!(
                j.contains(&format!("\"{}\": {{", cause.name())),
                "missing {cause:?}"
            );
        }
    }
}
