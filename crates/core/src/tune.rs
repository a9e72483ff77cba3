//! `repro tune`: deterministic offline autotuning over the matrix axes.
//!
//! The in-kernel mmtune controller ([`kernel_sim::tune`]) adjusts knobs
//! *online*, mid-run, from PMU feedback. This module is the offline half of
//! the loop: a greedy coordinate descent over the mmtune controller plus
//! the optimizations the bench matrix ablates
//! ([`OPTIMIZATIONS`]), per machine and workload, measured by actually
//! running the cell. The §5.1 static `opt` kernel is both the starting
//! point and the baseline, so the tuned configuration can never be worse
//! than static `opt` on the cell it was tuned on — the candidate set
//! contains the baseline — and every improvement it reports is a real,
//! reproducible cycle delta (all cells are deterministic).
//!
//! The matrix itself motivates this: the §8 grid shows several axes
//! *invert* per machine and workload (idle-time page clearing loses on the
//! 604s' cache; the §5.2 scatter constant tuned for compile hot-spots is
//! not the best constant under a fault storm). A single static config
//! cannot win every cell; a per-cell descent can. `repro tune` emits the
//! deterministic `mmu-tricks-tune-v1` artifact naming each machine's
//! winning configuration and its delta, and the E-TUNE experiment
//! ([`crate::experiments::etune`]) gates the signs.

use kernel_sim::{KernelConfig, MmtuneConfig};

use crate::artifact::Json;
use crate::matrix::{paper_machines, run_cell, MatrixMachine, OPTIMIZATIONS, WORKLOADS};
use crate::tables::Table;
use crate::{par_map, workers, Depth};

/// One tuning axis: its name, its two choices (static `opt`'s first) and
/// what taking the second does to the optimized kernel.
type Axis = (&'static str, [&'static str; 2], fn(&mut KernelConfig));

/// The tuning axes, in descent order: the mmtune controller, then every
/// paper optimization the matrix ablates ([`OPTIMIZATIONS`]).
fn axes() -> Vec<Axis> {
    let mmtune: Axis = ("mmtune", ["off", "on"], |c| {
        c.mmtune = Some(MmtuneConfig::default())
    });
    let ablations = OPTIMIZATIONS.iter().map(|o| (o.axis, o.choices, o.ablate));
    std::iter::once(mmtune).chain(ablations).collect()
}

/// The descent outcome on one machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineTune {
    /// Matrix machine row id.
    pub machine: &'static str,
    /// Cycles of the static §5.1 `opt` kernel on this cell (the baseline).
    pub static_cycles: u64,
    /// Cycles of the winning configuration (`<= static_cycles` by
    /// construction).
    pub tuned_cycles: u64,
    /// The winning choice per axis, in descent order.
    pub choices: Vec<(&'static str, &'static str)>,
    /// Online retunes the mmtune controller applied in the winning run
    /// (0 whenever the descent left mmtune off).
    pub mmtune_retunes: u64,
}

impl MachineTune {
    /// `tuned - static`: zero or negative.
    pub fn delta(&self) -> i64 {
        self.tuned_cycles as i64 - self.static_cycles as i64
    }

    /// Whether the descent found a strict improvement.
    pub fn wins(&self) -> bool {
        self.tuned_cycles < self.static_cycles
    }
}

/// The tuned configurations for one workload across the matrix machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TuneResult {
    /// `quick` or `full`.
    pub depth: &'static str,
    /// The workload tuned for.
    pub workload: &'static str,
    /// One outcome per machine row, in [`paper_machines`] order.
    pub outcomes: Vec<MachineTune>,
}

/// Tunes one machine × workload cell by greedy coordinate descent: start
/// at static `opt` (every axis's first choice), walk the axes in order,
/// try each one's second choice on the best kernel so far, keep a move
/// only on strict cycle improvement. Everything is deterministic — same
/// depth and workload, same result, byte for byte.
pub fn tune_cell(m: &MatrixMachine, workload: &'static str, depth: Depth) -> MachineTune {
    let axes = axes();
    let mut cfg = KernelConfig::optimized();
    let mut taken = vec![false; axes.len()];
    let baseline = run_cell(m, "opt", cfg, workload, depth);
    let static_cycles = baseline.cycles;
    let mut best = baseline;
    for (ai, (_, _, apply)) in axes.iter().enumerate() {
        let mut trial = cfg;
        apply(&mut trial);
        let cell = run_cell(m, "tuned", trial, workload, depth);
        if cell.cycles < best.cycles {
            best = cell;
            cfg = trial;
            taken[ai] = true;
        }
    }
    MachineTune {
        machine: m.id,
        static_cycles,
        tuned_cycles: best.cycles,
        choices: axes
            .iter()
            .zip(taken)
            .map(|((name, choices, _), t)| (*name, choices[usize::from(t)]))
            .collect(),
        mmtune_retunes: best.stats.mmtune_retunes,
    }
}

/// Runs the descent on every matrix machine for `workload`, one machine
/// per available core.
///
/// # Panics
///
/// Panics if `workload` is not one of [`WORKLOADS`].
pub fn tune_workload(workload: &'static str, depth: Depth) -> TuneResult {
    tune_workload_jobs(workload, depth, workers())
}

/// [`tune_workload`] on up to `jobs` workers ([`par_map`]). Each machine's
/// descent is an independent deterministic computation and the outcomes
/// come back in [`paper_machines`] order, so the result — and the
/// `mmu-tricks-tune-v1` artifact — is byte-identical for every `jobs`.
///
/// # Panics
///
/// Panics if `workload` is not one of [`WORKLOADS`].
pub fn tune_workload_jobs(workload: &'static str, depth: Depth, jobs: usize) -> TuneResult {
    assert!(
        WORKLOADS.contains(&workload),
        "unknown tune workload {workload:?} (expected one of {WORKLOADS:?})"
    );
    TuneResult {
        depth: depth.name(),
        workload,
        outcomes: par_map(jobs, &paper_machines(), |m| tune_cell(m, workload, depth)),
    }
}

impl TuneResult {
    /// Machines where the tuned configuration strictly beats static `opt`.
    pub fn wins(&self) -> usize {
        self.outcomes.iter().filter(|o| o.wins()).count()
    }

    /// Whether no machine regressed past the mmtune hysteresis bound
    /// (tuned ≤ static + 2%). The descent's candidate set contains the
    /// baseline, so this can only fail if the descent logic itself breaks —
    /// which is exactly why the E-TUNE gate keeps checking it.
    pub fn never_loses(&self) -> bool {
        self.outcomes
            .iter()
            .all(|o| o.tuned_cycles * 100 <= o.static_cycles * 102)
    }

    /// The `mmu-tricks-tune-v1` artifact: identity axes, then one line
    /// per machine naming the winning configuration and its delta vs
    /// static `opt`.
    pub fn to_json(&self) -> Json {
        let machine = |o: &MachineTune| {
            Json::object()
                .field("machine", o.machine)
                .field("static_cycles", o.static_cycles)
                .field("tuned_cycles", o.tuned_cycles)
                .field("delta", o.delta())
                .field("retunes", o.mmtune_retunes)
                .field("config", Json::obj(o.choices.iter().copied()))
        };
        Json::object()
            .field("schema", "mmu-tricks-tune-v1")
            .field("depth", self.depth)
            .field("workload", self.workload)
            .field("wins", self.wins())
            .field("machines", Json::arr(self.outcomes.iter().map(machine)))
    }

    /// Rendered per-machine summary.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "repro tune: {} ({} depth) — coordinate descent vs static opt",
                self.workload, self.depth
            ),
            vec![
                "machine".into(),
                "static".into(),
                "tuned".into(),
                "delta".into(),
                "winning non-default axes".into(),
            ],
        );
        for o in &self.outcomes {
            let moved: Vec<String> = o
                .choices
                .iter()
                .zip(axes())
                .filter(|((_, choice), (_, choices, _))| *choice != choices[0])
                .map(|((axis, choice), _)| format!("{axis}={choice}"))
                .collect();
            t.push_row(vec![
                o.machine.into(),
                format!("{}", o.static_cycles),
                format!("{}", o.tuned_cycles),
                format!("{:+}", o.delta()),
                if moved.is_empty() {
                    "(static opt already optimal)".into()
                } else {
                    moved.join(" ")
                },
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{diff_reports, parse_report};

    #[test]
    fn axes_cover_optimized_as_first_candidates() {
        // Axis names and choice strings are artifact bytes: mmtune, then
        // the matrix's ablations in column order. The descent starts at
        // static opt, whose controller is off.
        let names: Vec<_> = axes().iter().map(|(n, c, _)| (*n, *c)).collect();
        assert_eq!(
            names,
            [
                ("mmtune", ["off", "on"]),
                ("bats", ["on", "off"]),
                ("scatter", ["897", "16"]),
                ("handler", ["fast_asm", "slow_c"]),
                ("flush", ["lazy_cutoff20", "eager"]),
                ("idle_reclaim", ["on", "off"]),
                ("page_clearing", ["idle_uncached", "on_demand"]),
            ]
        );
        assert!(KernelConfig::optimized().mmtune.is_none());
    }

    #[test]
    fn every_axis_choice_applies_and_validates() {
        let opt = KernelConfig::optimized();
        let mut all = opt;
        for (name, _, apply) in axes() {
            let mut cfg = opt;
            apply(&mut cfg);
            cfg.validate();
            assert_ne!(cfg, opt, "{name}");
            apply(&mut all);
        }
        all.validate();
    }

    #[test]
    fn tune_artifact_diffs_and_refuses_like_every_other_artifact() {
        let r = TuneResult {
            depth: "quick",
            workload: "fault_storm",
            outcomes: vec![MachineTune {
                machine: "604-133",
                static_cycles: 1000,
                tuned_cycles: 950,
                choices: axes().iter().map(|(n, c, _)| (*n, c[0])).collect(),
                mmtune_retunes: 0,
            }],
        };
        let j = r.to_json().write();
        assert!(j.contains("\"schema\": \"mmu-tricks-tune-v1\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        let flat = parse_report(&j).unwrap();
        assert_eq!(flat.numbers["machines[0].delta"], -50);
        // Same axes diff fine; a different workload axis is refused — the
        // shared identity rule, for free.
        assert!(diff_reports(&flat, &flat).is_ok());
        let mut other = flat.clone();
        other.axes.insert("workload".into(), "compile".into());
        let err = diff_reports(&flat, &other).unwrap_err();
        assert!(err.contains("workload mismatch"), "{err}");
    }
}
