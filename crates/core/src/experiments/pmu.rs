//! E-PMU: does sampled attribution converge to the exact span profiler?
//!
//! The paper's measurement methodology (§4) is the 604 hardware monitor;
//! PR 2 gave the simulator an *exact* profiler (every charged cycle
//! attributed at span boundaries) that no real machine can have. This
//! experiment validates the PMU model against that ground truth two ways:
//!
//! 1. **Convergence** — cycle-sampled subsystem shares approach the exact
//!    shares as the sampling period shrinks; the acceptance bar is
//!    agreement within 5 % (50 000 ppm of absolute share) at the finest
//!    period.
//! 2. **Honest overhead** — sampling charges its modeled interrupt cost
//!    (exception entry/exit + handler body), visible as extra cycles over
//!    the unsampled baseline and attributed to the `pmu` bucket.
//!
//! The sampled and exact profiles are read from the *same* run, so the
//! comparison measures sampling error, not run-to-run divergence. Each
//! period's run is a `repro perf` profile (`perf_sample`), compared by
//! the share rule `perf report` prints ([`crate::perf::PerfData::shares`]).
//! That a PMU which only counts leaves the run cycle-identical is a
//! kernel-sim test (`tests_pmu::no_pmu_and_counting_pmu_are_cycle_identical`),
//! and `check_grid` holds it on this very cell.

use kernel_sim::KernelConfig;

use crate::perf::{perf_baseline, perf_sample};
use crate::tables::Table;
use crate::Depth;

/// One sampling period's agreement with the exact profiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmuConvergenceRow {
    /// Sampling period (cycles between interrupts).
    pub period: u32,
    /// Sampling interrupts delivered.
    pub interrupts: u64,
    /// Weighted samples collected (whole periods observed).
    pub weight: u64,
    /// Largest absolute share disagreement across subsystems, in ppm
    /// ([`crate::perf::PerfData::max_share_err_ppm`]; 50 000 ppm = 5
    /// percentage points).
    pub max_share_err_ppm: u64,
    /// Extra cycles over the unsampled baseline (the sampling cost).
    pub overhead_cycles: u64,
    /// The same, in ppm of the baseline.
    pub overhead_ppm: u64,
}

/// The complete E-PMU result.
#[derive(Debug, Clone)]
pub struct PmuResult {
    /// `quick` or `full`.
    pub depth: &'static str,
    /// Cycles of the traced, PMU-less reference run.
    pub baseline_cycles: u64,
    /// One row per sampling period, coarsest first.
    pub rows: Vec<PmuConvergenceRow>,
}

impl PmuResult {
    /// Share error at the finest period (the acceptance-criterion number).
    pub fn finest_err_ppm(&self) -> u64 {
        self.rows.last().map_or(0, |r| r.max_share_err_ppm)
    }
}

/// Runs the convergence study on the matrix's `604-133` `trace_ref` cell
/// and renders the agreement table.
pub fn exp_pmu(depth: Depth) -> (PmuResult, Table) {
    let kcfg = KernelConfig::optimized();
    let baseline_cycles = perf_baseline(depth, "trace_ref", kcfg);
    let periods: &[u32] = match depth {
        Depth::Quick => &[65_536, 8_192, 1_024],
        Depth::Full => &[262_144, 65_536, 16_384, 4_096, 1_024],
    };
    let rows = periods
        .iter()
        .map(|&period| {
            let d = perf_sample(depth, "trace_ref", period, kcfg, baseline_cycles);
            PmuConvergenceRow {
                period,
                interrupts: d.interrupts,
                weight: d.total_weight(),
                max_share_err_ppm: d.max_share_err_ppm(),
                overhead_cycles: d.overhead_cycles(),
                overhead_ppm: d.overhead_cycles() * 1_000_000 / baseline_cycles.max(1),
            }
        })
        .collect();

    let result = PmuResult {
        depth: depth.name(),
        baseline_cycles,
        rows,
    };

    let mut t = Table::new(
        "E-PMU: sampled vs exact attribution (604 133MHz, reference workload)",
        vec![
            "sample_period".into(),
            "interrupts".into(),
            "weighted_samples".into(),
            "max_share_err_ppm".into(),
            "overhead_cycles".into(),
            "overhead_ppm".into(),
        ],
    );
    for r in &result.rows {
        t.push_row(vec![
            format!("{}", r.period),
            format!("{}", r.interrupts),
            format!("{}", r.weight),
            format!("{}", r.max_share_err_ppm),
            format!("{}", r.overhead_cycles),
            format!("{}", r.overhead_ppm),
        ]);
    }
    (result, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_converges_within_5_percent_at_the_finest_period() {
        let (r, t) = exp_pmu(Depth::Quick);
        assert_eq!(r.rows.len(), 3);
        assert!(
            r.finest_err_ppm() <= 50_000,
            "finest-period share error {} ppm exceeds 5%",
            r.finest_err_ppm()
        );
        // Finer sampling can only cost more interrupts.
        assert!(r.rows[0].interrupts < r.rows[2].interrupts);
        // Every sampled run pays a real, positive interrupt cost.
        for row in &r.rows {
            assert!(row.overhead_cycles > 0, "period {} was free", row.period);
            assert!(row.interrupts > 0);
        }
        assert_eq!(t.rows.len(), 3, "one row per period");
    }
}
