//! `repro tail`: tail-latency forensics as a report and an artifact.
//!
//! The tracer's histograms put a *bound* on the p99; the tail-forensics
//! capture ([`kernel_sim::tail`]) retains the actual slowest samples with
//! their causal context. This module runs the reference workload with a
//! capture-all reservoir, reads the exact percentiles off the retained
//! tail, ranks the [`kernel_sim::TailCause`] taxonomy by cycles above the
//! median, and packages all of it as:
//!
//! * rendered tables — per-path percentiles, the ranked causes, and a dump
//!   of the top exemplars with their span stacks;
//! * the `mmu-tricks-tail-v1` artifact, with
//!   `schema`/`depth`/`machine`/`workload`/`config`/`tail` identity axes
//!   so `repro diff` refuses cross-mode comparisons.
//!
//! The report runs the workload twice, tail dormant and tail armed, and
//! records `overhead_cycles` — zero by construction (capture is purely
//! observational), and pinned in `ARTIFACTS.lock` like the tracer's own
//! overhead.

use kernel_sim::{
    Kernel, KernelConfig, LatencyPath, TailCause, TailConfig, TailExemplar, TailState,
};
use ppc_machine::MachineConfig;

use crate::artifact::Json;
use crate::experiments::reference_workload;
use crate::tables::Table;
use crate::Depth;

/// Exemplars dumped per path in the artifact and the dump table — bounded
/// so a capture-all run does not swamp the report.
pub const DUMP_N: usize = 8;

/// The capture-all configuration the percentile reader uses: a threshold of
/// one cycle arms every sample, and a deep reservoir retains the whole 1%
/// tail of a quick reference run, so the exact p99 is read off retained
/// samples instead of a log2-bucket bound.
pub fn percentile_tail() -> TailConfig {
    TailConfig {
        threshold: Some(1),
        top_n: 512,
        window: 16,
    }
}

/// Stable identity string for an arming mode — the artifact's `tail` axis
/// (so differently-armed recordings refuse to diff).
pub fn tail_mode(cfg: &TailConfig) -> String {
    match cfg.threshold {
        None => format!("auto-top{}-win{}", cfg.top_n, cfg.window),
        Some(t) => format!("fixed{}-top{}-win{}", t, cfg.top_n, cfg.window),
    }
}

/// Per-path tail summary: the histogram percentiles plus the exact p99 read
/// from the exemplar reservoir.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathTail {
    /// Path name (`tlb_reload`, `page_fault`, `signal_delivery`).
    pub path: &'static str,
    /// Samples recorded on the path.
    pub count: u64,
    /// Smallest sample (cycles).
    pub min: u64,
    /// Median (bucket bound, cycles).
    pub p50: u64,
    /// 90th percentile (bucket bound, cycles).
    pub p90: u64,
    /// 99th percentile bucket bound (cycles).
    pub p99: u64,
    /// Exact 99th percentile from the reservoir (cycles).
    pub p99_exact: u64,
    /// Largest sample (cycles).
    pub max: u64,
    /// Exemplars retained for the path.
    pub retained: u64,
}

/// The complete `repro tail` result.
#[derive(Debug, Clone)]
pub struct TailReport {
    /// Depth the workload ran at (`quick` or `full`).
    pub depth: &'static str,
    /// Machine slug the run was measured on.
    pub machine: String,
    /// Kernel optimization-toggle summary.
    pub config: String,
    /// Arming-mode identity string ([`tail_mode`]).
    pub tail: String,
    /// Total cycles of the tail-armed traced run.
    pub total_cycles: u64,
    /// `|armed - dormant|` cycles for the same workload — zero by
    /// construction; CI fails if it ever is not.
    pub overhead_cycles: u64,
    /// Captures offered over the run (not all were retained).
    pub captured: u64,
    /// One summary per [`LatencyPath`].
    pub paths: Vec<PathTail>,
    /// `(cause, cycles above the path median, exemplars)` ranked by cycles
    /// descending — the causal answer to "why is the p99 what it is".
    pub ranked_causes: Vec<(TailCause, u64, u64)>,
    /// The retained exemplars, one vec per path in [`LatencyPath::ALL`]
    /// order, slowest first, trimmed to [`DUMP_N`].
    pub exemplars: Vec<Vec<TailExemplar>>,
}

/// The exact p99 off a slowest-first reservoir: the sample at rank
/// `ceil(0.99 * count)` from the bottom when the reservoir reaches down
/// that far, the bucket bound otherwise.
fn exact_p99(count: u64, bucket_bound: u64, exemplars: &[TailExemplar]) -> u64 {
    if count == 0 {
        return 0;
    }
    let idx = (count - (count * 99).div_ceil(100)) as usize;
    exemplars.get(idx).map_or(bucket_bound, |e| e.latency)
}

/// Runs the reference workload with the tail dormant and then armed with
/// `tcfg`, and assembles the report plus rendered tables: per-path
/// percentiles, ranked causes, and the exemplar dump.
pub fn tail_report_with(depth: Depth, tcfg: TailConfig) -> (TailReport, Vec<Table>) {
    let run = |tail: Option<TailConfig>| -> Kernel {
        let mut cfg = KernelConfig::optimized();
        cfg.trace = true;
        cfg.tail = tail;
        let mut k = Kernel::boot(MachineConfig::ppc604_133(), cfg);
        reference_workload(&mut k, depth);
        k
    };
    let dormant = run(None);
    let armed = run(Some(tcfg));
    let overhead_cycles = armed.machine.cycles.abs_diff(dormant.machine.cycles);

    let t = armed.tracer.as_ref().expect("tracer enabled");
    let tl: &TailState = armed.tail.as_ref().expect("tail armed");
    let mut p50 = [0u64; 3];
    let paths: Vec<PathTail> = LatencyPath::ALL
        .iter()
        .enumerate()
        .map(|(i, &p)| {
            let h = t.latency(p);
            let (m, n90, n99) = h.percentiles();
            p50[i] = m;
            PathTail {
                path: p.name(),
                count: h.count(),
                min: h.min(),
                p50: m,
                p90: n90,
                p99: n99,
                p99_exact: exact_p99(h.count(), n99, tl.exemplars(p)),
                max: h.max(),
                retained: tl.exemplars(p).len() as u64,
            }
        })
        .collect();
    let ranked_causes = tl.attribution(p50);
    let exemplars: Vec<Vec<TailExemplar>> = LatencyPath::ALL
        .iter()
        .map(|&p| tl.exemplars(p).iter().take(DUMP_N).cloned().collect())
        .collect();

    let report = TailReport {
        depth: depth.name(),
        machine: MachineConfig::ppc604_133().id(),
        config: KernelConfig::optimized().summary(),
        tail: tail_mode(&tcfg),
        total_cycles: armed.machine.cycles,
        overhead_cycles,
        captured: tl.captured(),
        paths,
        ranked_causes,
        exemplars,
    };
    let tables = report.tables();
    (report, tables)
}

/// [`tail_report_with`] under the default capture-all configuration
/// ([`percentile_tail`]) — what `repro tail` runs.
pub fn tail_report(depth: Depth) -> (TailReport, Vec<Table>) {
    tail_report_with(depth, percentile_tail())
}

impl TailReport {
    /// The top-ranked cause's stable name (`unattributed` when nothing was
    /// captured) — what the planted-regression gate checks.
    pub fn top_cause(&self) -> &'static str {
        self.ranked_causes
            .first()
            .map_or(TailCause::Unattributed.name(), |(c, _, _)| c.name())
    }

    /// The median of `path` (indexed like [`LatencyPath::ALL`]).
    fn p50_of(&self, i: usize) -> u64 {
        self.paths.get(i).map_or(0, |p| p.p50)
    }

    /// The rendered views: percentiles, ranked causes, exemplar dump.
    pub fn tables(&self) -> Vec<Table> {
        let mut pct = Table::new(
            format!(
                "Tail percentiles per path ({}, {}, tail={}; p99 is the bucket \
                 bound, p99_exact the captured sample)",
                self.machine, self.depth, self.tail
            ),
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
        for p in &self.paths {
            pct.push_row(vec![
                p.path.into(),
                format!("{}", p.count),
                format!("{}", p.min),
                format!("{}", p.p50),
                format!("{}", p.p90),
                format!("{}", p.p99),
                format!("{}", p.p99_exact),
                format!("{}", p.max),
                format!("{}", p.retained),
            ]);
        }

        let above_total: u64 = self.ranked_causes.iter().map(|(_, c, _)| c).sum();
        let mut causes = Table::new(
            format!(
                "Ranked tail causes ({} exemplars retained, {} captures; \
                 cycles above the path median)",
                self.exemplars.iter().map(Vec::len).sum::<usize>(),
                self.captured
            ),
            vec![
                "cause".into(),
                "exemplars".into(),
                "cycles_above_median".into(),
                "share".into(),
            ],
        );
        for (cause, cycles, n) in &self.ranked_causes {
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
        for (i, path) in LatencyPath::ALL.iter().enumerate() {
            for e in &self.exemplars[i] {
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
                    path.name().into(),
                    format!("{}", e.latency),
                    format!("{}", e.cycle),
                    format!("{}", e.pid),
                    e.cause.name().into(),
                    stack,
                    window,
                ]);
            }
        }
        vec![pct, causes, dump]
    }

    /// The `mmu-tricks-tail-v1` artifact. The `causes` object keeps the
    /// full taxonomy in fixed order (zeros included) so diffs between
    /// recordings always compare the same keys; the top cause is the one
    /// with the most cycles above the median.
    pub fn to_json(&self) -> Json {
        let paths = self.paths.iter().map(|p| {
            let tail = Json::object()
                .field("count", p.count)
                .field("min", p.min)
                .field("p50", p.p50)
                .field("p90", p.p90)
                .field("p99", p.p99)
                .field("p99_exact", p.p99_exact)
                .field("max", p.max)
                .field("retained", p.retained);
            (p.path, tail)
        });
        let causes = TailCause::ALL.iter().map(|cause| {
            let (cycles, n) = self
                .ranked_causes
                .iter()
                .find(|(c, _, _)| c == cause)
                .map_or((0, 0), |(_, cy, n)| (*cy, *n));
            let row = Json::object()
                .field("above_median_cycles", cycles)
                .field("exemplars", n);
            (cause.name(), row)
        });
        let exemplars = LatencyPath::ALL.iter().enumerate().map(|(i, path)| {
            let dump = self.exemplars[i].iter().map(|e| {
                Json::object()
                    .field("seq", e.seq)
                    .field("cycle", e.cycle)
                    .field("pid", e.pid)
                    .field("latency", e.latency)
                    .field("above_median", e.latency.saturating_sub(self.p50_of(i)))
                    .field("cause", e.cause.name())
                    .field("stack_depth", e.stack.len())
                    .field("window_events", e.window.len())
                    .field("htab_full_groups", e.mmu.htab_full_groups)
                    .field("zombies", e.mmu.zombies())
                    .field("free_frames", e.mmu.free_frames)
            });
            (path.name(), Json::arr(dump))
        });
        Json::object()
            .field("schema", "mmu-tricks-tail-v1")
            .field("workload", "compile+signals")
            .field("depth", self.depth)
            .field("machine", &self.machine)
            .field("config", &self.config)
            .field("tail", &self.tail)
            .field("total_cycles", self.total_cycles)
            .field("overhead_cycles", self.overhead_cycles)
            .field("captured", self.captured)
            .field("paths", Json::obj(paths))
            .field("causes", Json::obj(causes))
            .field("exemplars", Json::obj(exemplars))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{diff_reports, parse_report};

    #[test]
    fn report_is_overhead_free_and_byte_identical_across_runs() {
        let (a, tables) = tail_report(Depth::Quick);
        let (b, _) = tail_report(Depth::Quick);
        assert_eq!(a.overhead_cycles, 0, "tail capture must not charge cycles");
        assert_eq!(a.to_json().write(), b.to_json().write(), "artifact must be byte-identical");
        assert!(a.captured > 0);
        assert_eq!(tables.len(), 3);
    }

    #[test]
    fn exact_p99_sits_inside_the_bucket_bound() {
        let (r, _) = tail_report(Depth::Quick);
        assert_eq!(r.paths.len(), 3);
        for p in &r.paths {
            assert!(p.count > 0, "{} has no samples", p.path);
            assert!(p.retained > 0, "{} retained nothing", p.path);
            assert!(
                p.p99_exact > 0 && p.p99_exact <= p.p99,
                "{}: exact {} vs bound {}",
                p.path,
                p.p99_exact,
                p.p99
            );
            assert!(p.p99_exact <= p.max && p.p99_exact >= p.min, "{}", p.path);
        }
    }

    #[test]
    fn causes_rank_and_exemplars_dump() {
        let (r, tables) = tail_report(Depth::Quick);
        assert!(!r.ranked_causes.is_empty());
        // Ranked by cycles-above-median, descending.
        let cycles: Vec<u64> = r.ranked_causes.iter().map(|(_, c, _)| *c).collect();
        let mut sorted = cycles.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(cycles, sorted);
        assert_ne!(r.top_cause(), "", "top cause always names something");
        // The dump is bounded and slowest-first per path.
        for per_path in &r.exemplars {
            assert!(per_path.len() <= DUMP_N);
            assert!(per_path.windows(2).all(|w| w[0].latency >= w[1].latency));
        }
        let causes = tables[1].render();
        assert!(causes.contains(r.top_cause()), "{causes}");
    }

    #[test]
    fn artifact_parses_and_diffs_against_itself() {
        let (r, _) = tail_report(Depth::Quick);
        let j = r.to_json().write();
        for key in [
            "\"schema\": \"mmu-tricks-tail-v1\"",
            "\"workload\": \"compile+signals\"",
            "\"machine\": \"604-133\"",
            "\"tail\": \"fixed1-top512-win16\"",
            "\"overhead_cycles\": 0",
            "\"p99_exact\"",
            "\"causes\"",
            "\"secondary_probe_storm\"",
            "\"unattributed\"",
            "\"exemplars\"",
        ] {
            assert!(j.contains(key), "artifact missing {key}");
        }
        let flat = parse_report(&j).expect("artifact must satisfy the differ");
        assert_eq!(flat.axis("schema"), "mmu-tricks-tail-v1");
        assert_eq!(flat.axis("tail"), "fixed1-top512-win16");
        // The derived top cause is not an identity axis: two recordings
        // whose ranking differs must still diff.
        assert_eq!(flat.axis("top_cause"), "");
        assert_eq!(
            flat.numbers["paths.tlb_reload.p99_exact"] as u64,
            r.paths[0].p99_exact
        );
        let d = diff_reports(&flat, &flat.clone()).expect("self-diff");
        assert!(d.entries.iter().all(|e| e.delta == 0));
        // A dormant recording (no tail axis) must refuse against this one.
        let mut dormant = flat.clone();
        dormant.axes.remove("tail");
        let err = diff_reports(&flat, &dormant).unwrap_err();
        assert!(err.contains("tail mismatch"), "{err}");
    }

    #[test]
    fn tail_mode_strings_are_stable() {
        assert_eq!(tail_mode(&percentile_tail()), "fixed1-top512-win16");
        assert_eq!(tail_mode(&TailConfig::auto()), "auto-top8-win16");
        assert_eq!(tail_mode(&TailConfig::fixed(200)), "fixed200-top8-win16");
    }
}
