//! E-MATRIX: does the bench matrix reproduce the paper's §8 ordering?
//!
//! §8 sums the paper up as a stack of before/afters: every optimization is
//! worth its section, and on the 603 the best hash table is no hash table
//! at all (§6.2). This experiment runs exactly the matrix cells those
//! claims are stated over and gates each one:
//!
//! 1. **Endpoints** — the optimized kernel beats the unoptimized one on
//!    the compile, on every machine row.
//! 2. **§6.2** — `603-nohtab` beats `603-swload` with both running the
//!    otherwise-optimized kernel.
//! 3. **Per-optimization signs** — each single-toggle ablation
//!    (`opt-no-X`, one per [`OPTIMIZATIONS`] entry) is slower than `opt`
//!    on the entry's gate machine, the one the paper measured the trick
//!    on. The gate machine matters: the matrix itself shows the scatter
//!    constant only hurts the hardware-walk 604s, and idle-time page
//!    clearing *inverts* on the 604s' cache — exactly the
//!    machine-dependence the paper's per-machine tables exist to show.
//! 4. **Clocks** — the 200MHz 604 beats the 133MHz 604 in wall time
//!    (its slower-in-cycles DRAM means raw cycles would invert).

use kernel_sim::KernelConfig;

use crate::matrix::{machine_row, paper_machines, run_cell, OPTIMIZATIONS};
use crate::tables::Table;
use crate::Depth;

/// One optimization's before/after on its gate machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizationRow {
    /// Ablation variant id (`opt-no-bats`, …).
    pub config: &'static str,
    /// Paper section making the claim.
    pub section: &'static str,
    /// Machine row the claim is gated on.
    pub machine: &'static str,
    /// Compile cycles with the full optimized kernel.
    pub opt_cycles: u64,
    /// Compile cycles with this one optimization removed.
    pub ablated_cycles: u64,
    /// `ablated - opt`: positive means the optimization earns its keep.
    pub delta: i64,
    /// Whether the sign matches the paper (delta strictly positive).
    pub sign_matches_paper: bool,
}

/// The complete E-MATRIX result.
#[derive(Debug, Clone)]
pub struct MatrixResult {
    /// `quick` or `full`.
    pub depth: &'static str,
    /// `(machine, unopt cycles, opt cycles)` for the compile, every row.
    pub endpoints: Vec<(&'static str, u64, u64)>,
    /// One before/after per paper optimization.
    pub rows: Vec<OptimizationRow>,
    /// Gate 1: opt < unopt on every machine.
    pub opt_beats_unopt_everywhere: bool,
    /// Gate 2 (§6.2): no-htab 603 beats hashed 603 on the compile.
    pub nohtab_beats_swload: bool,
    /// Gate 4: 604-200 beats 604-133 in wall microseconds.
    pub fast_board_wins_wall: bool,
}

impl MatrixResult {
    /// Gate 3: every per-optimization sign matches §8.
    pub fn all_signs_match(&self) -> bool {
        self.rows.iter().all(|r| r.sign_matches_paper)
    }

    /// All four gates at once (what CI checks).
    pub fn ordering_holds(&self) -> bool {
        self.opt_beats_unopt_everywhere
            && self.nohtab_beats_swload
            && self.fast_board_wins_wall
            && self.all_signs_match()
    }
}

/// Runs the ordering cells and renders the before/after table.
pub fn exp_matrix(depth: Depth) -> (MatrixResult, Table) {
    // Endpoints on every machine row (also yields the §6.2 and wall-time
    // cells).
    let mut endpoints = Vec::new();
    let mut opt_cells = Vec::new();
    for m in &paper_machines() {
        let unopt = run_cell(m, "unopt", KernelConfig::unoptimized(), "compile", depth);
        let opt = run_cell(m, "opt", KernelConfig::optimized(), "compile", depth);
        endpoints.push((m.id, unopt.cycles, opt.cycles));
        opt_cells.push(opt);
    }
    let opt_cell = |id: &str| opt_cells.iter().find(|c| c.machine == id).unwrap();
    let opt_beats_unopt_everywhere = endpoints.iter().all(|&(_, u, o)| o < u);
    let nohtab_beats_swload = opt_cell("603-nohtab").cycles < opt_cell("603-swload").cycles;
    let fast_board_wins_wall = opt_cell("604-200").wall_us < opt_cell("604-133").wall_us;

    // One ablated cell per optimization, on its gate machine.
    let rows = OPTIMIZATIONS
        .iter()
        .map(|o| {
            let m = machine_row(o.gate);
            let ablated = run_cell(&m, "ablated", o.ablated(), "compile", depth);
            let opt_cycles = opt_cell(o.gate).cycles;
            let delta = ablated.cycles as i64 - opt_cycles as i64;
            OptimizationRow {
                config: o.variant,
                section: o.section,
                machine: o.gate,
                opt_cycles,
                ablated_cycles: ablated.cycles,
                delta,
                sign_matches_paper: delta > 0,
            }
        })
        .collect();

    let result = MatrixResult {
        depth: depth.name(),
        endpoints,
        rows,
        opt_beats_unopt_everywhere,
        nohtab_beats_swload,
        fast_board_wins_wall,
    };

    let mut t = Table::new(
        "E-MATRIX: each paper optimization, before/after on its gate machine (compile cycles)",
        vec![
            "optimization removed".into(),
            "section".into(),
            "machine".into(),
            "opt".into(),
            "ablated".into(),
            "delta".into(),
            "sign".into(),
        ],
    );
    for r in &result.rows {
        t.push_row(vec![
            r.config.into(),
            format!("§{}", r.section),
            r.machine.into(),
            format!("{}", r.opt_cycles),
            format!("{}", r.ablated_cycles),
            format!("{:+}", r.delta),
            if r.sign_matches_paper {
                "matches paper"
            } else {
                "INVERTED"
            }
            .into(),
        ]);
    }
    for (id, u, o) in &result.endpoints {
        t.push_row(vec![
            "(endpoints)".into(),
            "§8".into(),
            (*id).into(),
            format!("{o}"),
            format!("{u}"),
            format!("{:+}", *u as i64 - *o as i64),
            if o < u { "matches paper" } else { "INVERTED" }.into(),
        ]);
    }
    t.push_row(vec![
        "(no htab at all)".into(),
        "§6.2".into(),
        "603-nohtab".into(),
        format!("{}", opt_cell("603-nohtab").cycles),
        format!("{}", opt_cell("603-swload").cycles),
        String::new(),
        if result.nohtab_beats_swload {
            "matches paper"
        } else {
            "INVERTED"
        }
        .into(),
    ]);
    t.push_row(vec![
        "(fast board, wall µs)".into(),
        "§8".into(),
        "604-200".into(),
        format!("{}", opt_cell("604-200").wall_us),
        format!("{}", opt_cell("604-133").wall_us),
        String::new(),
        if result.fast_board_wins_wall {
            "matches paper"
        } else {
            "INVERTED"
        }
        .into(),
    ]);
    (result, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ordering_reproduces_and_is_gated() {
        let (r, t) = exp_matrix(Depth::Quick);
        assert!(r.opt_beats_unopt_everywhere, "endpoints: {:?}", r.endpoints);
        assert!(r.nohtab_beats_swload, "§6.2 inverted");
        assert!(r.fast_board_wins_wall, "wall-time ordering inverted");
        for row in &r.rows {
            assert!(
                row.sign_matches_paper,
                "§{} sign inverted on {}: {:+}",
                row.section, row.machine, row.delta
            );
            assert!(row.delta.unsigned_abs() > 0);
        }
        assert!(r.ordering_holds());
        assert_eq!(r.rows.len(), OPTIMIZATIONS.len());
        assert_eq!(r.endpoints.len(), 4);
        let s = t.render();
        assert!(s.contains("matches paper") && !s.contains("INVERTED"));
    }
}
