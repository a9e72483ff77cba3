//! The multi-machine bench matrix: every CPU model × optimization
//! configuration the paper measures, on the headline workloads.
//!
//! The paper's whole argument is differential — each §5–§9 trick is shown
//! as a before/after across machines (603 software-reload vs 603 with the
//! hash table "improved away" vs the 604s, whose hardware forces the
//! table). `repro matrix` mechanizes that grid: it runs the compile,
//! fault-storm and trace-reference workloads on every
//! [machine](paper_machines) × [variant](paper_variants) cell, capturing
//! per-cell cycles, the full kernel counter set, profiler self-time and
//! latency percentiles, and emits a deterministic `mmu-tricks-matrix-v1`
//! artifact, one line per cell (grep a cell and its cycles in one pass).
//! The E-MATRIX experiment gates that the grid reproduces the paper's
//! ordering.

use kernel_sim::{FaultInjection, Kernel, KernelConfig, KernelStats, LatencyPath, Subsystem};
use ppc_cache::stats::CacheStats;
use ppc_machine::{MachineConfig, MonitorSnapshot};
use ppc_mmu::tlb::TlbStats;

use crate::artifact::Json;
use crate::experiments::artifacts::reference_workload;
use crate::experiments::pressure::fault_storm;
use crate::tables::Table;
use crate::{par_map, workers, Depth};

/// One machine row of the matrix: a board plus the 603 reload strategy
/// forced on it (the paper treats "603 with hash table" and "603 without"
/// as different machines even though the board is the same).
#[derive(Debug, Clone, Copy)]
pub struct MatrixMachine {
    /// Stable row id (`603-swload`, `603-nohtab`, `604-133`, `604-200`).
    pub id: &'static str,
    /// Human-readable description.
    pub label: &'static str,
    /// The board.
    pub machine: MachineConfig,
    /// Forced value of [`KernelConfig::htab_on_603`] for every variant on
    /// this row; `None` leaves the variant's own setting (604 rows, where
    /// hardware makes it irrelevant).
    pub htab_on_603: Option<bool>,
}

impl MatrixMachine {
    /// The variant configuration as it actually boots on this row.
    pub fn apply(&self, mut cfg: KernelConfig) -> KernelConfig {
        if let Some(h) = self.htab_on_603 {
            cfg.htab_on_603 = h;
        }
        cfg
    }
}

/// The four machine rows the paper's ordering claims are stated over.
pub fn paper_machines() -> Vec<MatrixMachine> {
    vec![
        MatrixMachine {
            id: "603-swload",
            label: "603 133MHz, software reload via hash table",
            machine: MachineConfig::ppc603_133(),
            htab_on_603: Some(true),
        },
        MatrixMachine {
            id: "603-nohtab",
            label: "603 133MHz, hash table improved away (6.2)",
            machine: MachineConfig::ppc603_133(),
            htab_on_603: Some(false),
        },
        MatrixMachine {
            id: "604-133",
            label: "604 133MHz, hardware hash-table walk",
            machine: MachineConfig::ppc604_133(),
            htab_on_603: None,
        },
        MatrixMachine {
            id: "604-200",
            label: "604 200MHz, fast board",
            machine: MachineConfig::ppc604_200(),
            htab_on_603: None,
        },
    ]
}

/// The paper machine row named `id`.
///
/// # Panics
///
/// Panics if `id` is not a [`paper_machines`] row.
pub fn machine_row(id: &str) -> MatrixMachine {
    paper_machines()
        .into_iter()
        .find(|m| m.id == id)
        .unwrap_or_else(|| panic!("unknown matrix machine {id:?}"))
}

/// The optimization columns: the two endpoint kernels plus one ablation
/// per paper optimization (each flips a single [`KernelConfig`] field off
/// the optimized kernel, so `opt` vs `opt-no-X` isolates X's contribution).
pub fn paper_variants() -> Vec<(&'static str, KernelConfig)> {
    let opt = KernelConfig::optimized;
    vec![
        ("unopt", KernelConfig::unoptimized()),
        ("opt", opt()),
        // §5.1: kernel mapped by PTEs instead of BATs.
        ("opt-no-bats", KernelConfig { use_bats: false, ..opt() }),
        // §5.2: untuned power-of-two scatter constant (hash hot-spots).
        (
            "opt-untuned-scatter",
            KernelConfig {
                vsid_policy: kernel_sim::VsidPolicy::ContextCounter { constant: 16 },
                ..opt()
            },
        ),
        // §6.1: the original C handlers with the MMU turned back on.
        (
            "opt-slow-handlers",
            KernelConfig { handler: kernel_sim::HandlerStyle::SlowC, ..opt() },
        ),
        // §7: eager per-page flushes instead of lazy VSID retirement.
        (
            "opt-eager-flush",
            KernelConfig { lazy_flush: false, flush_cutoff_pages: None, ..opt() },
        ),
        // §7: no idle-task zombie reclaim.
        ("opt-no-idle-reclaim", KernelConfig { idle_reclaim: false, ..opt() }),
        // §9: no idle page clearing, get_free_page clears on demand.
        (
            "opt-clear-on-demand",
            KernelConfig { page_clearing: kernel_sim::PageClearing::OnDemand, ..opt() },
        ),
    ]
}

/// The headline workload names, in matrix order.
pub const WORKLOADS: &[&str] = &["compile", "fault_storm", "trace_ref"];

/// Latency percentiles of one instrumented path in one cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellLatency {
    /// Path name (`tlb_reload`, `page_fault`, `signal_delivery`).
    pub path: &'static str,
    /// Samples recorded.
    pub count: u64,
    /// 50th percentile (cycles).
    pub p50: u64,
    /// 90th percentile (cycles).
    pub p90: u64,
    /// 99th percentile (cycles).
    pub p99: u64,
}

/// One cell: machine × config × workload, with everything a reviewer
/// diffs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixCell {
    /// Machine row id.
    pub machine: &'static str,
    /// Config column id.
    pub config: &'static str,
    /// Workload name.
    pub workload: &'static str,
    /// Headline cycles (measurement window of the workload; bench-baseline
    /// semantics per workload).
    pub cycles: u64,
    /// Wall-clock microseconds (`cycles / clock_mhz`). Cycle counts are not
    /// comparable across clock speeds — a 200MHz part pays *more cycles*
    /// for the same DRAM latency — so cross-machine ordering claims (the
    /// paper's tables are in seconds) are stated over this field.
    pub wall_us: u64,
    /// Kernel counter deltas over the measurement window.
    pub stats: KernelStats,
    /// Hardware-monitor deltas over the measurement window.
    pub monitor: MonitorSnapshot,
    /// Profiler self-cycles per subsystem ([`Subsystem::ALL`] order) for
    /// the whole traced run.
    pub self_cycles: Vec<(&'static str, u64)>,
    /// Latency percentiles per instrumented path.
    pub latency: Vec<CellLatency>,
}

impl MatrixCell {
    /// The composite `machine/config/workload` key used in JSON and gates.
    pub fn key(&self) -> String {
        format!("{}/{}/{}", self.machine, self.config, self.workload)
    }
}

/// The whole grid plus its axes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchMatrix {
    /// `quick` or `full`.
    pub depth: &'static str,
    /// `(row id, label)` per machine row.
    pub machines: Vec<(&'static str, String)>,
    /// `(column id, full toggle summary)` per config column.
    pub configs: Vec<(&'static str, String)>,
    /// Workload names.
    pub workloads: Vec<&'static str>,
    /// All cells, machine-major, then config, then workload.
    pub cells: Vec<MatrixCell>,
}

/// What one headline workload measured over its window.
pub struct HeadlineRun {
    /// Cycles in the window.
    pub cycles: u64,
    /// Kernel counter deltas over the window.
    pub stats: KernelStats,
    /// Hardware-monitor deltas over the window.
    pub monitor: MonitorSnapshot,
    /// The kernel after the run, for its tracer and PMU.
    pub kernel: Kernel,
}

/// Runs headline `workload` on machine row `m` under `cfg`, whose
/// observers (tracing, PMU, causal scaling) are the caller's choice.
///
/// The window is the workload proper: `compile` and `fault_storm` (seed
/// 42, [`Depth::storm_hogs`] hogs) exclude boot; `trace_ref`, the
/// reference workload, is the whole run from power-on. Any PMU sample
/// still pending when the workload ends is taken inside the window.
///
/// # Panics
///
/// Panics if `workload` is not one of [`WORKLOADS`].
pub fn run_workload(
    m: &MatrixMachine,
    cfg: KernelConfig,
    workload: &str,
    depth: Depth,
) -> HeadlineRun {
    let mut cfg = m.apply(cfg);
    if workload == "fault_storm" {
        cfg.fault_injection = Some(FaultInjection::light(42));
    }
    let mut k = Kernel::boot(m.machine, cfg);
    let (c0, s0, m0) = if workload == "trace_ref" {
        Default::default()
    } else {
        (k.machine.cycles, k.stats, k.machine.snapshot())
    };
    match workload {
        "compile" => {
            lmbench::compile::kernel_compile(&mut k, depth.compile());
        }
        "fault_storm" => {
            fault_storm(&mut k, depth.storm_hogs());
        }
        "trace_ref" => reference_workload(&mut k, depth),
        other => panic!("unknown matrix workload {other:?}"),
    }
    k.pmu_finish();
    HeadlineRun {
        cycles: k.machine.cycles - c0,
        stats: k.stats.diff(&s0),
        monitor: k.machine.snapshot().delta(&m0),
        kernel: k,
    }
}

/// Runs one cell: [`run_workload`] with tracing on (it is proven free), so
/// every cell carries attribution and latency percentiles.
pub fn run_cell(
    m: &MatrixMachine,
    config: &'static str,
    mut cfg: KernelConfig,
    workload: &'static str,
    depth: Depth,
) -> MatrixCell {
    cfg.trace = true;
    let mut run = run_workload(m, cfg, workload, depth);
    let now = run.kernel.machine.cycles;
    let t = run.kernel.tracer.as_mut().expect("cells always trace");
    t.prof.finish(now);
    let self_cycles = Subsystem::ALL
        .iter()
        .map(|&s| (s.name(), t.prof.self_cycles(s)))
        .collect();
    let latency = LatencyPath::ALL
        .iter()
        .map(|&p| {
            let h = t.latency(p);
            let (p50, p90, p99) = h.percentiles();
            CellLatency { path: p.name(), count: h.count(), p50, p90, p99 }
        })
        .collect();
    MatrixCell {
        machine: m.id,
        config,
        workload,
        cycles: run.cycles,
        wall_us: run.cycles / u64::from(m.machine.clock_mhz),
        stats: run.stats,
        monitor: run.monitor,
        self_cycles,
        latency,
    }
}

/// Runs an arbitrary sub-grid serially on the calling thread (tests trim
/// the axes; the allocation budgets count this thread's allocations).
/// `repro matrix` runs the full grid on every core ([`run_matrix`]).
pub fn run_matrix_on(
    machines: &[MatrixMachine],
    variants: &[(&'static str, KernelConfig)],
    workloads: &[&'static str],
    depth: Depth,
) -> BenchMatrix {
    run_matrix_on_jobs(machines, variants, workloads, depth, 1)
}

/// [`run_matrix_on`] on up to `jobs` workers ([`par_map`]).
///
/// Cells are independent simulations (each boots its own kernel and
/// machine; nothing is shared), and [`par_map`] returns them in serial
/// cell order, so the grid — and its artifact — is byte-identical for
/// every `jobs`.
pub fn run_matrix_on_jobs(
    machines: &[MatrixMachine],
    variants: &[(&'static str, KernelConfig)],
    workloads: &[&'static str],
    depth: Depth,
    jobs: usize,
) -> BenchMatrix {
    let mut work = Vec::new();
    for m in machines {
        for (config, cfg) in variants {
            for &w in workloads {
                work.push((*m, *config, *cfg, w));
            }
        }
    }
    let cells = par_map(jobs, &work, |(m, config, cfg, w)| {
        run_cell(m, config, *cfg, w, depth)
    });
    BenchMatrix {
        depth: depth.name(),
        machines: machines.iter().map(|m| (m.id, m.label.to_string())).collect(),
        configs: variants
            .iter()
            .map(|(id, cfg)| (*id, cfg.summary()))
            .collect(),
        workloads: workloads.to_vec(),
        cells,
    }
}

/// The full paper grid: 4 machines × 8 configs × 3 workloads, on every
/// available core.
pub fn run_matrix(depth: Depth) -> BenchMatrix {
    run_matrix_on_jobs(&paper_machines(), &paper_variants(), WORKLOADS, depth, workers())
}

/// A window's TLB and cache counts, one object per unit.
fn monitor_json(m: &MonitorSnapshot) -> Json {
    let tlb = |t: &TlbStats| {
        Json::object()
            .field("lookups", t.lookups)
            .field("hits", t.hits)
            .field("misses", t.misses)
            .field("reloads", t.reloads)
            .field("tlbie", t.tlbie)
            .field("flush_all", t.flush_all)
    };
    let cache = |c: &CacheStats| {
        Json::object()
            .field("accesses", c.accesses)
            .field("hits", c.hits)
            .field("misses", c.misses)
            .field("evictions", c.evictions)
            .field("writebacks", c.writebacks)
            .field("inhibited", c.inhibited)
            .field("zero_fills", c.zero_fills)
            .field("prefetch_fills", c.prefetch_fills)
            .field("prefetch_redundant", c.prefetch_redundant)
    };
    Json::object()
        .field("itlb", tlb(&m.itlb))
        .field("dtlb", tlb(&m.dtlb))
        .field("icache", cache(&m.icache))
        .field("dcache", cache(&m.dcache))
}

impl BenchMatrix {
    /// Looks a cell up by its axes.
    pub fn cell(&self, machine: &str, config: &str, workload: &str) -> Option<&MatrixCell> {
        self.cells
            .iter()
            .find(|c| c.machine == machine && c.config == config && c.workload == workload)
    }

    /// The `mmu-tricks-matrix-v1` artifact: one object per axis, then one
    /// line per cell.
    pub fn to_json(&self) -> Json {
        let cell = |c: &MatrixCell| {
            Json::object()
                .field("cell", c.key())
                .field("machine", c.machine)
                .field("config", c.config)
                .field("workload", c.workload)
                .field("cycles", c.cycles)
                .field("wall_us", c.wall_us)
                .field("stats", Json::obj(c.stats.as_named_pairs()))
                .field("monitor", monitor_json(&c.monitor))
                .field("self", Json::obj(c.self_cycles.iter().copied()))
                .field(
                    "latency",
                    Json::obj(c.latency.iter().map(|l| {
                        let pcts = Json::object()
                            .field("count", l.count)
                            .field("p50", l.p50)
                            .field("p90", l.p90)
                            .field("p99", l.p99);
                        (l.path, pcts)
                    })),
                )
        };
        Json::object()
            .field("schema", "mmu-tricks-matrix-v1")
            .field("depth", self.depth)
            .field("machines", Json::obj(self.machines.iter().cloned()))
            .field("configs", Json::obj(self.configs.iter().cloned()))
            .field("workloads", Json::arr(self.workloads.iter().copied()))
            .field("cells", Json::arr(self.cells.iter().map(cell)))
    }

    /// One cycles table per workload: machine rows × config columns.
    pub fn tables(&self) -> Vec<Table> {
        self.workloads
            .iter()
            .map(|&w| {
                let mut cols = vec!["machine".to_string()];
                cols.extend(self.configs.iter().map(|(id, _)| id.to_string()));
                let mut t = Table::new(
                    format!("Bench matrix: {w} cycles ({} depth)", self.depth),
                    cols,
                );
                for (mid, _) in &self.machines {
                    let mut row = vec![mid.to_string()];
                    for (cid, _) in &self.configs {
                        row.push(
                            self.cell(mid, cid, w)
                                .map_or("-".into(), |c| c.cycles.to_string()),
                        );
                    }
                    t.push_row(row);
                }
                t
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// One trimmed grid shared by every test in this module (matrix cells
    /// are compile-sized; running them once keeps the suite fast).
    fn grid() -> &'static BenchMatrix {
        static GRID: OnceLock<BenchMatrix> = OnceLock::new();
        GRID.get_or_init(|| {
            let machines = paper_machines();
            let variants = paper_variants();
            let trimmed: Vec<_> = variants
                .into_iter()
                .filter(|(id, _)| matches!(*id, "unopt" | "opt"))
                .collect();
            run_matrix_on(&machines[..], &trimmed, WORKLOADS, Depth::Quick)
        })
    }

    #[test]
    fn grid_covers_every_cell_with_live_data() {
        let g = grid();
        assert_eq!(g.cells.len(), 4 * 2 * 3);
        for c in &g.cells {
            assert!(c.cycles > 0, "{} is empty", c.key());
            let total: u64 = c.self_cycles.iter().map(|(_, v)| v).sum();
            assert!(total > 0, "{} has no attribution", c.key());
            assert!(
                c.latency.iter().any(|l| l.count > 0),
                "{} has no latency samples",
                c.key()
            );
        }
        // The optimized 604/133 headline counters. (Its ITLB misses are
        // legitimately zero: instruction fetches hit the IBATs, §5.1.)
        let cell = |w| g.cell("604-133", "opt", w).unwrap();
        let compile = cell("compile");
        let dtlb = compile.monitor.dtlb;
        assert!(dtlb.misses > 0 && dtlb.misses < dtlb.lookups);
        let s = compile.stats;
        assert!(s.htab_hits > s.htab_misses, "optimized htab mostly hits");
        assert!(cell("fault_storm").stats.oom_kills > 0);
        let trace_ref = cell("trace_ref");
        assert!(trace_ref.cycles > compile.cycles, "ref includes boot+coda");
        // Tracing is free: the traced cell counts what an untraced run does.
        let untraced = run_workload(
            &machine_row("604-133"),
            KernelConfig::optimized(),
            "trace_ref",
            Depth::Quick,
        );
        assert_eq!(untraced.cycles, trace_ref.cycles);
        assert_eq!(untraced.monitor, trace_ref.monitor);
    }

    #[test]
    fn matrix_is_deterministic() {
        let g = grid();
        let machines = paper_machines();
        let variants: Vec<_> = paper_variants()
            .into_iter()
            .filter(|(id, _)| *id == "opt")
            .collect();
        let again = run_matrix_on(&machines[..1], &variants, &["compile"], Depth::Quick);
        assert_eq!(
            again.cells[0],
            *g.cell("603-swload", "opt", "compile").unwrap()
        );
    }

    #[test]
    fn json_shape_is_grepable_and_balanced() {
        let g = grid();
        let j = g.to_json().write();
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(j.contains("\"schema\": \"mmu-tricks-matrix-v1\""));
        for c in &g.cells {
            // Cell key and cycles grep-able from the same line.
            let line = j
                .lines()
                .find(|l| l.contains(&format!("\"cell\": \"{}\"", c.key())))
                .unwrap_or_else(|| panic!("missing {}", c.key()));
            assert!(line.contains(&format!("\"cycles\": {}", c.cycles)));
            assert!(line.contains("\"tlb_reloads\""));
            let dtlb = format!("\"dtlb\": {{\"lookups\": {}", c.monitor.dtlb.lookups);
            assert!(line.contains(&dtlb));
            assert!(line.contains("\"p99\""));
        }
        // Config summaries ride in the header for diff refusal.
        assert!(j.contains("\"configs\": {\"unopt\": \"bats=0"));
    }

    #[test]
    fn paper_orderings_hold_on_the_trimmed_grid() {
        let g = grid();
        let cycles =
            |m: &str, c: &str, w: &str| g.cell(m, c, w).map(|x| x.cycles).unwrap();
        // Optimization helps on every machine row for the compile.
        for (m, _) in &g.machines {
            assert!(
                cycles(m, "opt", "compile") < cycles(m, "unopt", "compile"),
                "optimized kernel must beat the baseline on {m}"
            );
        }
        // §6.2: improving the hash table away wins on the 603.
        assert!(
            cycles("603-nohtab", "opt", "compile") < cycles("603-swload", "opt", "compile")
        );
        // The fast board beats the slow 604 on identical work — in wall
        // time: its DRAM costs more *cycles*, so raw cycles would invert.
        let wall =
            |m: &str, c: &str, w: &str| g.cell(m, c, w).map(|x| x.wall_us).unwrap();
        assert!(
            wall("604-200", "opt", "compile") < wall("604-133", "opt", "compile")
        );
        assert!(
            cycles("604-200", "opt", "compile") != cycles("604-133", "opt", "compile")
        );
    }

    #[test]
    fn variant_axis_is_complete_and_valid() {
        let vs = paper_variants();
        assert_eq!(vs.len(), 8);
        for (id, cfg) in &vs {
            cfg.validate();
            for m in paper_machines() {
                m.apply(*cfg).validate();
            }
            assert!(!id.is_empty());
        }
        // Each ablation differs from opt in exactly the intended way.
        let opt = KernelConfig::optimized();
        let by_id = |want: &str| vs.iter().find(|(id, _)| *id == want).unwrap().1;
        assert!(!by_id("opt-no-bats").use_bats && opt.use_bats);
        assert_eq!(by_id("opt-slow-handlers").handler, kernel_sim::HandlerStyle::SlowC);
        assert!(!by_id("opt-eager-flush").lazy_flush);
        assert!(!by_id("opt-no-idle-reclaim").idle_reclaim);
    }
}
