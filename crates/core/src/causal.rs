//! `repro causal`: exact virtual-speedup payoff curves (DESIGN.md §15).
//!
//! Every other observability layer explains cycles the kernel *did* spend;
//! this one prices optimizations that do not exist yet. For each target —
//! an instrumented path ([`kernel_sim::Path`]) or a profiler
//! subsystem's self-time — the harness re-runs the identical deterministic
//! workload with that target's cycle charges scaled to a virtual speedup
//! factor and records the exact end-to-end cycle count, downstream
//! interactions included. The result per machine × workload cell is a
//! payoff curve (factors 0%/25%/50%/75%), a marginal payoff ("1% faster X
//! buys Y ppm end-to-end"), and a ranking of targets by marginal payoff —
//! the measured headroom the ROADMAP's prospective optimizations are
//! bounded by.
//!
//! Everything is integers: payoffs are parts-per-million
//! (`(baseline - scaled) * 1_000_000 / baseline`), so the
//! `mmu-tricks-causal-v1` artifact stays byte-reproducible and parseable
//! by the float-rejecting [`crate::diff`] parser. The factor-0 cell of
//! every curve runs a real all-1/1 [`CausalConfig`] and the artifact's
//! `identity_ok` field asserts it matched the plain (causal-off) baseline
//! — every recording carries its own live proof of the identity guarantee.

use kernel_sim::causal::{CausalConfig, Ratio};
use kernel_sim::Path;
use kernel_sim::{KernelConfig, Subsystem};

use crate::artifact::Json;
use crate::matrix::{paper_machines, run_workload, MatrixMachine};
use crate::tables::Table;
use crate::{par_map, workers, Depth};

/// Virtual speedup factors (percent) of every payoff curve, in order.
/// Factor 0 is a real all-1/1 causal run, doubling as the identity proof.
pub const FACTORS: [u32; 4] = [0, 25, 50, 75];

/// A virtual-speedup target: an instrumented path's whole dynamic extent,
/// or one subsystem's self-time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CausalTarget {
    /// Scale the entire extent of an instrumented path.
    Path(Path),
    /// Scale one profiler subsystem's self-time.
    Sub(Subsystem),
}

impl CausalTarget {
    /// Stable artifact/CLI identifier (`path:tlb_reload`, `sub:idle`).
    pub fn id(&self) -> String {
        match self {
            CausalTarget::Path(p) => format!("path:{}", p.name()),
            CausalTarget::Sub(s) => format!("sub:{}", s.name()),
        }
    }

    /// The causal configuration that speeds this target up by `factor`
    /// percent and leaves everything else untouched.
    pub fn config(&self, factor: u32) -> CausalConfig {
        let r = Ratio::speedup_pct(factor);
        match self {
            CausalTarget::Path(p) => CausalConfig::identity().scale_path(*p, r),
            CausalTarget::Sub(s) => CausalConfig::identity().scale_subsystem(*s, r),
        }
    }
}

/// The default target list: every instrumented path, plus the subsystems
/// whose self-time the ROADMAP's open items speculate about (scheduling,
/// the idle task — the paper's §9 cautionary tale — and syscall entry).
pub fn default_targets() -> Vec<CausalTarget> {
    let mut t: Vec<CausalTarget> = Path::ALL.into_iter().map(CausalTarget::Path).collect();
    t.extend([
        CausalTarget::Sub(Subsystem::Sched),
        CausalTarget::Sub(Subsystem::Idle),
        CausalTarget::Sub(Subsystem::Syscall),
    ]);
    t
}

/// The machine rows `repro causal` measures: the hardware-walk flagship and
/// the software-reload 603, where reload scaling has the most to say.
pub fn default_machines() -> Vec<MatrixMachine> {
    paper_machines()
        .into_iter()
        .filter(|m| m.id == "604-133" || m.id == "603-swload")
        .collect()
}

/// The workloads `repro causal` measures.
pub const CAUSAL_WORKLOADS: &[&str] = &["compile", "fault_storm"];

/// The kernel the grid runs: the optimized paper kernel with the mmtune
/// epoch controller on, so the hash-table-rehash path has real work to
/// scale. No tracing — the grid only needs end-to-end cycles.
pub fn cell_config() -> KernelConfig {
    let mut cfg = KernelConfig::optimized();
    cfg.mmtune = Some(kernel_sim::MmtuneConfig::default());
    cfg
}

/// One target's payoff curve in one cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetCurve {
    /// Target identifier ([`CausalTarget::id`]).
    pub target: String,
    /// End-to-end cycles at each [`FACTORS`] entry.
    pub cycles: [u64; 4],
    /// Payoff in parts-per-million of the baseline at each factor
    /// (signed: a virtual speedup that perturbs downstream policy can in
    /// principle cost cycles, and the artifact would say so).
    pub payoff_ppm: [i64; 4],
    /// ppm of end-to-end time bought per 1% of target speedup: the
    /// curve's least-squares slope through the origin
    /// ([`marginal_ppm_per_pct`]).
    pub marginal_ppm_per_pct: i64,
}

/// One machine × workload cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalCell {
    /// Machine row id.
    pub machine: &'static str,
    /// Workload name.
    pub workload: &'static str,
    /// Plain run, `causal = None`.
    pub baseline_cycles: u64,
    /// All-1/1 causal run — must equal `baseline_cycles`.
    pub identity_cycles: u64,
    /// One curve per target.
    pub targets: Vec<TargetCurve>,
}

impl CausalCell {
    /// The composite `machine/workload` key used in JSON and gates.
    pub fn key(&self) -> String {
        format!("{}/{}", self.machine, self.workload)
    }
}

/// The complete `repro causal` result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalReport {
    /// `quick` or `full`.
    pub depth: &'static str,
    /// Kernel toggle summary of [`cell_config`].
    pub config: String,
    /// The `causal` identity header: the factor grid this recording ran
    /// (so [`crate::diff`] refuses causal-vs-plain comparisons).
    pub causal: String,
    /// All cells, machine-major then workload.
    pub cells: Vec<CausalCell>,
    /// `(target id, sum of marginal payoffs over cells)`, descending —
    /// the "what should we optimize next" answer.
    pub ranking: Vec<(String, i64)>,
}

/// The `causal` header value for the default factor grid.
pub fn causal_mode() -> String {
    let f: Vec<String> = FACTORS.iter().map(u32::to_string).collect();
    format!("grid-f{}", f.join("-"))
}

/// The least-squares slope through the origin of a payoff curve over the
/// nonzero [`FACTORS`], in ppm per 1% of speedup: `Σ f·p / Σ f²`,
/// truncated toward zero. On a linear curve it is the 25% point over 25;
/// a curve that bends or wobbles reads as its trend, not as its first
/// point.
pub fn marginal_ppm_per_pct(payoff_ppm: &[i64; 4]) -> i64 {
    let (fp, ff) = FACTORS[1..]
        .iter()
        .zip(&payoff_ppm[1..])
        .fold((0, 0), |(fp, ff), (&f, &p)| {
            let f = i64::from(f);
            (fp + f * p, ff + f * f)
        });
    fp / ff
}

fn payoff_ppm(baseline: u64, scaled: u64) -> i64 {
    let b = baseline as i128;
    let s = scaled as i128;
    ((b - s) * 1_000_000 / b.max(1)) as i64
}

/// Runs an arbitrary sub-grid (tests and E-CAUSAL trim the axes;
/// `repro causal` runs the default grid). Every simulator run of the grid
/// is independent, so they all go through one [`par_map`] on every core.
pub fn causal_report_on(
    machines: &[MatrixMachine],
    workloads: &[&'static str],
    targets: &[CausalTarget],
    depth: Depth,
) -> CausalReport {
    // Per cell: the plain baseline, the all-1/1 identity run (factor 0 of
    // every curve, shared across targets: one config, same effect), then
    // each target at each nonzero factor.
    let mut runs: Vec<(&MatrixMachine, &'static str, Option<CausalConfig>)> = Vec::new();
    for m in machines {
        for &w in workloads {
            runs.push((m, w, None));
            runs.push((m, w, Some(CausalConfig::identity())));
            for t in targets {
                for &f in &FACTORS[1..] {
                    runs.push((m, w, Some(t.config(f))));
                }
            }
        }
    }
    let mut results = par_map(workers(), &runs, |&(m, w, causal)| {
        let mut cfg = cell_config();
        cfg.causal = causal;
        run_workload(m, cfg, w, depth).cycles
    })
    .into_iter();
    let mut next = move || results.next().expect("one result per run");
    let mut cells = Vec::new();
    for m in machines {
        for &w in workloads {
            let baseline = next();
            let identity = next();
            let curves = targets
                .iter()
                .map(|t| {
                    let mut cycles = [identity; 4];
                    for c in &mut cycles[1..] {
                        *c = next();
                    }
                    let ppm = cycles.map(|c| payoff_ppm(baseline, c));
                    TargetCurve {
                        target: t.id(),
                        cycles,
                        payoff_ppm: ppm,
                        marginal_ppm_per_pct: marginal_ppm_per_pct(&ppm),
                    }
                })
                .collect();
            cells.push(CausalCell {
                machine: m.id,
                workload: w,
                baseline_cycles: baseline,
                identity_cycles: identity,
                targets: curves,
            });
        }
    }
    // Rank by summed marginal payoff, descending; target id breaks ties so
    // the ranking (and the artifact) is byte-reproducible.
    let mut ranking: Vec<(String, i64)> = targets
        .iter()
        .map(|t| {
            let id = t.id();
            let sum = cells
                .iter()
                .flat_map(|c| &c.targets)
                .filter(|tc| tc.target == id)
                .map(|tc| tc.marginal_ppm_per_pct)
                .sum();
            (id, sum)
        })
        .collect();
    ranking.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    CausalReport {
        depth: depth.name(),
        config: KernelConfig::optimized().summary(),
        causal: causal_mode(),
        cells,
        ranking,
    }
}

/// The default grid — what `repro causal` runs.
pub fn causal_report(depth: Depth) -> (CausalReport, Vec<Table>) {
    let report = causal_report_on(
        &default_machines(),
        CAUSAL_WORKLOADS,
        &default_targets(),
        depth,
    );
    let tables = report.tables();
    (report, tables)
}

impl CausalReport {
    /// Whether every cell's all-1/1 run matched its plain baseline — the
    /// identity guarantee, live in every recording (`identity_ok` 1 in the
    /// artifact, pinned by `ARTIFACTS.lock`).
    pub fn identity_ok(&self) -> bool {
        self.cells
            .iter()
            .all(|c| c.identity_cycles == c.baseline_cycles)
    }

    /// The rendered views: one payoff-curve table per cell plus the
    /// marginal ranking.
    pub fn tables(&self) -> Vec<Table> {
        let mut out = Vec::new();
        for cell in &self.cells {
            let mut t = Table::new(
                format!(
                    "Causal payoff curves — {} ({}, baseline {} cycles, identity {})",
                    cell.key(),
                    self.depth,
                    cell.baseline_cycles,
                    if cell.identity_cycles == cell.baseline_cycles {
                        "ok"
                    } else {
                        "VIOLATED"
                    }
                ),
                vec![
                    "target".into(),
                    "payoff@25% (ppm)".into(),
                    "payoff@50% (ppm)".into(),
                    "payoff@75% (ppm)".into(),
                    "marginal ppm/1%".into(),
                ],
            );
            for c in &cell.targets {
                t.push_row(vec![
                    c.target.clone(),
                    format!("{}", c.payoff_ppm[1]),
                    format!("{}", c.payoff_ppm[2]),
                    format!("{}", c.payoff_ppm[3]),
                    format!("{}", c.marginal_ppm_per_pct),
                ]);
            }
            out.push(t);
        }
        let mut rank = Table::new(
            format!(
                "Marginal payoff ranking ({} cells; \"1% faster X buys Y ppm \
                 end-to-end\", summed over cells)",
                self.cells.len()
            ),
            vec!["rank".into(), "target".into(), "sum marginal ppm/1%".into()],
        );
        for (i, (id, m)) in self.ranking.iter().enumerate() {
            rank.push_row(vec![format!("{}", i + 1), id.clone(), format!("{m}")]);
        }
        out.push(rank);
        out
    }

    /// The `mmu-tricks-causal-v1` artifact. Carries the `causal` identity
    /// axis so `repro diff` refuses causal-vs-plain diffs.
    pub fn to_json(&self) -> Json {
        let cell = |cell: &CausalCell| {
            let targets = cell.targets.iter().map(|c| {
                let curve = Json::object()
                    .field("cycles", Json::arr(c.cycles))
                    .field("payoff_ppm", Json::arr(c.payoff_ppm))
                    .field("marginal_ppm_per_pct", c.marginal_ppm_per_pct);
                (c.target.as_str(), curve)
            });
            let row = Json::object()
                .field("baseline_cycles", cell.baseline_cycles)
                .field("identity_cycles", cell.identity_cycles)
                .field("targets", Json::obj(targets));
            (cell.key(), row)
        };
        let ranking = self.ranking.iter().enumerate().map(|(i, (id, m))| {
            let row = Json::object()
                .field("rank", i + 1)
                .field("sum_marginal_ppm_per_pct", *m);
            (id.as_str(), row)
        });
        Json::object()
            .field("schema", "mmu-tricks-causal-v1")
            .field("depth", self.depth)
            .field("config", &self.config)
            .field("causal", &self.causal)
            .field("identity_ok", u32::from(self.identity_ok()))
            .field("cells", Json::obj(self.cells.iter().map(cell)))
            .field("ranking", Json::obj(ranking))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{diff_reports, parse_report};

    /// The trimmed grid the tests run: one machine, one workload, one path
    /// and one subsystem target — 8 simulator runs, not the full default
    /// grid (`ARTIFACTS.lock` pins that).
    fn trimmed() -> CausalReport {
        let machines: Vec<MatrixMachine> = paper_machines()
            .into_iter()
            .filter(|m| m.id == "604-133")
            .collect();
        let targets = [
            CausalTarget::Path(Path::TlbReload),
            CausalTarget::Sub(Subsystem::Sched),
        ];
        causal_report_on(&machines, &["compile"], &targets, Depth::Quick)
    }

    #[test]
    fn trimmed_grid_is_identity_clean_and_byte_reproducible() {
        let a = trimmed();
        let b = trimmed();
        assert!(a.identity_ok(), "all-1/1 must match the plain baseline");
        assert_eq!(
            a.to_json().write(),
            b.to_json().write(),
            "artifact must be byte-identical"
        );
        // Payoff at factor 0 is exactly zero by the identity guarantee.
        for c in a.cells.iter().flat_map(|c| &c.targets) {
            assert_eq!(c.payoff_ppm[0], 0, "{}", c.target);
        }
    }

    #[test]
    fn payoff_curves_are_monotone_for_real_work() {
        let r = trimmed();
        let cell = &r.cells[0];
        let reload = cell
            .targets
            .iter()
            .find(|t| t.target == "path:tlb_reload")
            .unwrap();
        assert!(
            reload.payoff_ppm[1] > 0,
            "25% faster reloads must buy something on compile: {:?}",
            reload.payoff_ppm
        );
        assert!(reload.payoff_ppm[2] >= reload.payoff_ppm[1]);
        assert!(reload.payoff_ppm[3] >= reload.payoff_ppm[2]);
        assert!(reload.marginal_ppm_per_pct > 0);
    }

    #[test]
    fn payoff_is_linear_in_the_factor_where_no_policy_reacts() {
        // Signal delivery and the scheduler's self-time on fault_storm steer
        // no policy, so 75% off one of them buys three times what 25% buys,
        // up to the floor of each stretch of one ratio.
        let targets = [
            CausalTarget::Path(Path::SignalDelivery),
            CausalTarget::Sub(Subsystem::Sched),
        ];
        let r = causal_report_on(
            &default_machines(),
            &["fault_storm"],
            &targets,
            Depth::Quick,
        );
        for cell in &r.cells {
            for t in &cell.targets {
                let [_, p25, _, p75] = t.payoff_ppm;
                assert!(
                    (p75 - 3 * p25).abs() * 100 <= p75,
                    "{} {}: {:?}",
                    cell.key(),
                    t.target,
                    t.payoff_ppm
                );
            }
        }
    }

    #[test]
    fn marginal_is_the_curves_slope_through_the_origin() {
        // A linear curve reads as its 25% point over 25.
        assert_eq!(marginal_ppm_per_pct(&[0, 1075, 2150, 3225]), 43);
        // A curve that wobbles around zero (604-133/compile's idle
        // self-time) reads as its trend, 0, not as its first point, -86.
        assert_eq!(marginal_ppm_per_pct(&[0, -2170, 4581, -2282]), 0);
        // Truncated toward zero on either side.
        assert_eq!(marginal_ppm_per_pct(&[0, 30, 60, 90]), 1);
        assert_eq!(marginal_ppm_per_pct(&[0, -30, -60, -90]), -1);
    }

    #[test]
    fn artifact_parses_carries_causal_header_and_refuses_plain() {
        let r = trimmed();
        let j = r.to_json().write();
        let flat = parse_report(&j).expect("artifact must satisfy the differ");
        assert_eq!(flat.axis("schema"), "mmu-tricks-causal-v1");
        assert_eq!(flat.axis("causal"), causal_mode());
        assert_eq!(flat.numbers["identity_ok"], 1);
        assert_eq!(
            flat.numbers["cells.604-133/compile.baseline_cycles"] as u64,
            r.cells[0].baseline_cycles
        );
        let d = diff_reports(&flat, &flat.clone()).expect("self-diff");
        assert!(d.entries.iter().all(|e| e.delta == 0));
        // A plain artifact (empty causal header) must refuse.
        let mut plain = flat.clone();
        plain.axes.remove("causal");
        let err = diff_reports(&flat, &plain).unwrap_err();
        assert!(err.contains("causal mismatch"), "{err}");
    }

    #[test]
    fn ranking_is_sorted_and_covers_every_target() {
        let r = trimmed();
        assert_eq!(r.ranking.len(), 2);
        assert!(r.ranking.windows(2).all(|w| w[0].1 >= w[1].1));
        let ids: Vec<&str> = r.ranking.iter().map(|(id, _)| id.as_str()).collect();
        assert!(ids.contains(&"path:tlb_reload") && ids.contains(&"sub:sched"));
    }

    #[test]
    fn target_ids_and_mode_are_stable() {
        assert_eq!(
            CausalTarget::Path(Path::HtabRehash).id(),
            "path:htab_rehash"
        );
        assert_eq!(CausalTarget::Sub(Subsystem::Idle).id(), "sub:idle");
        assert_eq!(causal_mode(), "grid-f0-25-50-75");
        assert_eq!(default_targets().len(), 8);
        assert_eq!(default_machines().len(), 2);
    }
}
