//! Machine-readable run artifacts: the §4 measurement loop as files.
//!
//! [`trace_artifacts`] runs one deterministic workload twice — tracer off,
//! then tracer on — and packages everything the observability layer
//! captured into two artifacts that can be diffed across commits:
//!
//! * `metrics.json` (`mmu-tricks-metrics-v1`) — flat counters: total
//!   cycles, the measured tracer overhead (zero by construction, and
//!   *checked* here), per-subsystem cycle attribution, latency percentiles
//!   for the three hot paths, every [`KernelStats`] counter, and the
//!   per-PTEG insert/collision heatmap;
//! * the trace ring as a Chrome `trace_event` timeline
//!   (`mmu-tricks-timeline-v1`; load it in `about:tracing` or Perfetto)
//!   with cycle stamps as timestamps.
//!
//! Both are byte-for-byte reproducible: no wall-clock timestamps, no
//! paths, no floating-point formatting that varies run to run.

use kernel_sim::sched::USER_BASE;
use kernel_sim::telemetry::SERIES_NAMES;
use kernel_sim::{
    EpochSample, Kernel, KernelConfig, KernelStats, LatencyPath, Subsystem, TelemetryConfig,
    TraceEvent, TraceRecord,
};
use ppc_machine::MachineConfig;
use ppc_mmu::addr::PAGE_SIZE;

use crate::artifact::Json;
use crate::tables::{sparkline, Table};
use crate::Depth;

/// Summary of one latency histogram: count, range, and the percentiles the
/// paper's tables quote.
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
    /// Exact 99th percentile (cycles), read from the tail-forensics
    /// exemplar reservoir ([`kernel_sim::tail`]) when the 1% tail fits in
    /// the retained samples; falls back to the bucket bound `p99` when it
    /// does not (so `p99_exact <= p99` always).
    pub p99_exact: u64,
}

/// The exact p99 from a slowest-first exemplar reservoir: the sample at
/// rank `ceil(0.99 * count)` from the bottom, when the reservoir reaches
/// down that far; `bucket_bound` otherwise.
fn exact_p99(count: u64, bucket_bound: u64, exemplars: &[kernel_sim::TailExemplar]) -> u64 {
    if count == 0 {
        return 0;
    }
    let idx = (count - (count * 99).div_ceil(100)) as usize;
    exemplars.get(idx).map_or(bucket_bound, |e| e.latency)
}

/// Everything the traced reference run produced, ready for export.
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
    /// Total cycles of the traced run.
    pub total_cycles: u64,
    /// `|traced - untraced|` cycles for the same workload. The tracer is
    /// purely observational, so this is zero; `ARTIFACTS.lock` pins it.
    pub overhead_cycles: u64,
    /// `(subsystem, self cycles)` in [`Subsystem::ALL`] order; sums to
    /// [`TraceArtifacts::total_cycles`] exactly.
    pub attribution: Vec<(&'static str, u64)>,
    /// One summary per [`LatencyPath`].
    pub latency: Vec<LatencySummary>,
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

    /// The `mmu-tricks-metrics-v1` artifact: the traced run's counters,
    /// attribution, latency, PTEG heatmap and telemetry. The `repro --json`
    /// run report is this object with its tables appended.
    pub fn metrics_json(&self) -> Json {
        let latency = self.latency.iter().map(|l| {
            let summary = Json::object()
                .field("count", l.count)
                .field("min", l.min)
                .field("max", l.max)
                .field("mean_millicycles", l.mean_millicycles)
                .field("p50", l.p50)
                .field("p90", l.p90)
                .field("p99", l.p99)
                .field("p99_exact", l.p99_exact);
            (l.path, summary)
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
        let series = SERIES_NAMES.iter().map(|name| {
            let values = self.telemetry.iter().map(|e| e.series(name));
            (*name, Json::arr(values))
        });
        let telemetry = Json::object()
            .field("epoch_cycles", self.telemetry_epoch_cycles)
            .field("samples", self.telemetry.len())
            .field("series", Json::obj(series));
        Json::object()
            .field("schema", "mmu-tricks-metrics-v1")
            .field("workload", "compile+signals")
            .field("depth", self.depth)
            .field("machine", &self.machine)
            .field("config", &self.config)
            .field("total_cycles", self.total_cycles)
            .field("overhead_cycles", self.overhead_cycles)
            .field("attribution", Json::obj(self.attribution.iter().copied()))
            .field("attribution_total", self.attribution_total())
            .field("latency", Json::obj(latency))
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

    /// The telemetry time series as a sparkline table (the `repro report`
    /// view): one row per series with its range and an ASCII plot over the
    /// run's epochs.
    pub fn telemetry_table(&self) -> Table {
        let mut t = Table::new(
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
        for name in SERIES_NAMES {
            let vals: Vec<u64> = self.telemetry.iter().map(|e| e.series(name)).collect();
            let min = vals.iter().min().copied().unwrap_or(0);
            let max = vals.iter().max().copied().unwrap_or(0);
            let last = vals.last().copied().unwrap_or(0);
            t.push_row(vec![
                (*name).into(),
                format!("{min}"),
                format!("{max}"),
                format!("{last}"),
                sparkline(&downsample(&vals, 48)),
            ]);
        }
        t
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
/// samples, then an idle sweep. Fully deterministic — the matrix's
/// `trace_ref` workload (which the perf recorder also samples) and the
/// E-PMU experiment run exactly this, so their cycle totals are comparable.
pub fn reference_workload(k: &mut Kernel, depth: Depth) {
    lmbench::compile::kernel_compile(k, depth.compile());
    let pid = k.spawn_process(8).expect("room for the signal task");
    k.switch_to(pid);
    k.user_write(USER_BASE, PAGE_SIZE).expect("prefault handler page");
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

/// Runs the reference workload untraced and traced on the optimized kernel
/// (604/133), measures the tracer's cycle overhead (zero), and returns the
/// artifacts plus rendered tables: subsystem self-time and latency
/// percentiles.
///
/// The traced run also carries the epoch telemetry sampler *and* the
/// tail-forensics capture, so the `overhead_cycles == 0` gate covers the
/// whole observability stack: a run with tracing, telemetry and tail
/// capture must cost exactly what a bare run costs.
pub fn trace_artifacts(depth: Depth) -> (TraceArtifacts, Vec<Table>) {
    let run = |observe: bool| -> Kernel {
        let mut cfg = KernelConfig::optimized();
        cfg.trace = observe;
        if observe {
            cfg.telemetry = Some(TelemetryConfig::default_epochs());
            // Capture-all with a deep reservoir so the exact p99 is read
            // off the retained tail instead of a bucket bound.
            cfg.tail = Some(crate::tail::percentile_tail());
        }
        let mut k = Kernel::boot(MachineConfig::ppc604_133(), cfg);
        reference_workload(&mut k, depth);
        k.telemetry_finish();
        k
    };
    let off = run(false);
    let mut on = run(true);
    let total_cycles = on.machine.cycles;
    let overhead_cycles = total_cycles.abs_diff(off.machine.cycles);
    let stats = on.stats;
    let telemetry = on
        .telemetry
        .as_ref()
        .map(|t| t.epochs.clone())
        .unwrap_or_default();
    let now = on.machine.cycles;
    let t = on.tracer.as_mut().expect("tracer enabled");
    t.prof.finish(now);

    let attribution: Vec<(&'static str, u64)> = Subsystem::ALL
        .iter()
        .map(|&s| (s.name(), t.prof.self_cycles(s)))
        .collect();
    let tail_state = on.tail.as_ref().expect("tail capture enabled");
    let latency: Vec<LatencySummary> = LatencyPath::ALL
        .iter()
        .map(|&p| {
            let h = t.latency(p);
            let (p50, p90, p99) = h.percentiles();
            LatencySummary {
                path: p.name(),
                count: h.count(),
                min: h.min(),
                max: h.max(),
                mean_millicycles: (h.mean() * 1000.0).round() as u64,
                p50,
                p90,
                p99,
                p99_exact: exact_p99(h.count(), p99, tail_state.exemplars(p)),
            }
        })
        .collect();

    let art = TraceArtifacts {
        depth: depth.name(),
        machine: MachineConfig::ppc604_133().id(),
        config: KernelConfig::optimized().summary(),
        total_cycles,
        overhead_cycles,
        attribution,
        latency,
        stats,
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

    let mut self_time = Table::new(
        "Self-time by subsystem (604 133MHz, optimized kernel, traced run)",
        vec!["subsystem".into(), "cycles".into(), "share".into()],
    );
    let mut rows: Vec<(&'static str, u64)> = art.attribution.clone();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    for (name, cycles) in rows {
        self_time.push_row(vec![
            name.into(),
            format!("{cycles}"),
            format!("{:.1}%", 100.0 * cycles as f64 / art.total_cycles as f64),
        ]);
    }
    self_time.push_row(vec![
        "total".into(),
        format!("{}", art.attribution_total()),
        format!(
            "tracer overhead: {} cycles",
            art.overhead_cycles
        ),
    ]);

    let mut lat = Table::new(
        "Latency percentiles (cycles) per instrumented path \
         (p99 is the bucket bound, p99_exact the captured sample)",
        vec![
            "path".into(),
            "count".into(),
            "min".into(),
            "p50".into(),
            "p90".into(),
            "p99".into(),
            "p99_exact".into(),
            "max".into(),
        ],
    );
    for l in &art.latency {
        lat.push_row(vec![
            l.path.into(),
            format!("{}", l.count),
            format!("{}", l.min),
            format!("{}", l.p50),
            format!("{}", l.p90),
            format!("{}", l.p99),
            format!("{}", l.p99_exact),
            format!("{}", l.max),
        ]);
    }

    let telem = art.telemetry_table();
    (art, vec![self_time, lat, telem])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::parse;
    use std::sync::OnceLock;

    /// One quick traced run shared by the tests that only read it.
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
    fn artifacts_are_deterministic_and_overhead_free() {
        let (a, _) = quick();
        let (b, _) = trace_artifacts(Depth::Quick);
        assert_eq!(a.overhead_cycles, 0, "tracing must not charge cycles");
        assert_eq!(a.metrics_json().write(), b.metrics_json().write());
        assert_eq!(a.timeline_json().write(), b.timeline_json().write());
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
            assert!(
                l.p99_exact > 0 && l.p99_exact <= l.p99,
                "{}: exact p99 {} must be a real sample under the bucket \
                 bound {}",
                l.path,
                l.p99_exact,
                l.p99
            );
            assert!(l.p99_exact <= l.max, "{}", l.path);
        }
        assert!(a.pteg_inserts.iter().any(|&n| n > 0));
        assert_eq!(tables.len(), 3);
        // The telemetry series covers the run and plots non-trivially.
        assert!(a.telemetry.len() >= 4, "quick run spans many epochs");
        let telem = tables[2].render();
        assert!(telem.contains("htab_valid") && telem.contains('▁'), "{telem}");
    }

    #[test]
    fn metrics_json_has_the_required_keys_and_balances() {
        let (a, _) = quick();
        let j = a.metrics_json().write();
        for key in [
            "\"schema\"",
            "\"total_cycles\"",
            "\"overhead_cycles\": 0",
            "\"attribution\"",
            "\"attribution_total\"",
            "\"tlb_reload\"",
            "\"page_fault\"",
            "\"signal_delivery\"",
            "\"p99_exact\"",
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
        // Every kernel counter appears by name.
        for name in KernelStats::NAMES {
            assert!(j.contains(&format!("\"{name}\"")), "missing {name}");
        }
    }
}
