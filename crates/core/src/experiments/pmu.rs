//! E-PMU: does sampled attribution converge to the exact span profiler?
//!
//! The paper's measurement methodology (§4) is the 604 hardware monitor;
//! PR 2 gave the simulator an *exact* profiler (every charged cycle
//! attributed at span boundaries) that no real machine can have. This
//! experiment validates the PMU model against that ground truth three ways:
//!
//! 1. **Non-perturbation** — a PMU that only counts (no sampling
//!    interrupts) leaves the run cycle-identical to a PMU-less kernel.
//! 2. **Convergence** — cycle-sampled subsystem shares approach the exact
//!    shares as the sampling period shrinks; the acceptance bar is
//!    agreement within 5 % (50 000 ppm of absolute share) at the finest
//!    period.
//! 3. **Honest overhead** — sampling charges its modeled interrupt cost
//!    (exception entry/exit + handler body), visible as extra cycles over
//!    the unsampled baseline and attributed to the `pmu` bucket.
//!
//! The sampled and exact profiles are read from the *same* run, so the
//! comparison measures sampling error, not run-to-run divergence.

use kernel_sim::{Kernel, KernelConfig, PmuConfig, Subsystem};
use ppc_machine::pmu::PmcEvent;
use ppc_machine::MachineConfig;

use super::artifacts::reference_workload;
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
    /// Largest absolute share disagreement across subsystems, in ppm of
    /// total self-time (50 000 ppm = 5 percentage points).
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
    /// Cycles of the same run with a counting-only PMU installed.
    pub counting_cycles: u64,
    /// Whether the counting run was cycle-identical to the baseline (the
    /// non-perturbation guarantee; CI fails when false).
    pub counting_identical: bool,
    /// One row per sampling period, coarsest first.
    pub rows: Vec<PmuConvergenceRow>,
}

impl PmuResult {
    /// Share error at the finest period (the acceptance-criterion number).
    pub fn finest_err_ppm(&self) -> u64 {
        self.rows.last().map_or(0, |r| r.max_share_err_ppm)
    }
}

fn boot_run(cfg: KernelConfig, depth: Depth) -> Kernel {
    let mut k = Kernel::boot(MachineConfig::ppc604_133(), cfg);
    reference_workload(&mut k, depth);
    k.pmu_finish();
    k
}

/// Runs the convergence study and renders the agreement table.
pub fn exp_pmu(depth: Depth) -> (PmuResult, Table) {
    let mut base_cfg = KernelConfig::optimized();
    base_cfg.trace = true;
    let base = boot_run(base_cfg, depth);
    let baseline_cycles = base.machine.cycles;

    let mut counting_cfg = base_cfg;
    counting_cfg.pmu = Some(PmuConfig::counting(
        PmcEvent::TlbMissBoth,
        PmcEvent::CacheMissBoth,
    ));
    let counting_cycles = boot_run(counting_cfg, depth).machine.cycles;

    let periods: &[u32] = match depth {
        Depth::Quick => &[65_536, 8_192, 1_024],
        Depth::Full => &[262_144, 65_536, 16_384, 4_096, 1_024],
    };
    let mut rows = Vec::new();
    for &period in periods {
        let mut cfg = base_cfg;
        cfg.pmu = Some(PmuConfig::sampling(period));
        let mut k = boot_run(cfg, depth);
        let now = k.machine.cycles;
        let t = k.tracer.as_mut().expect("trace enabled");
        t.prof.finish(now);
        // Exact shares exclude the Pmu bucket: the handler freezes counting
        // while it runs, so the sampler never observes itself.
        let exact_total: u64 = Subsystem::ALL
            .iter()
            .filter(|s| **s != Subsystem::Pmu)
            .map(|s| t.prof.self_cycles(*s))
            .sum::<u64>()
            .max(1);
        let st = k.pmu.as_ref().expect("pmu enabled");
        let sampled_total = st.total_weight().max(1);
        let mut max_err = 0u64;
        for s in Subsystem::ALL {
            if s == Subsystem::Pmu {
                continue;
            }
            let exact_ppm = t.prof.self_cycles(s) * 1_000_000 / exact_total;
            let sampled_ppm = st.by_subsystem[s as usize] * 1_000_000 / sampled_total;
            max_err = max_err.max(exact_ppm.abs_diff(sampled_ppm));
        }
        let overhead = now.saturating_sub(baseline_cycles);
        rows.push(PmuConvergenceRow {
            period,
            interrupts: k.stats.pmu_interrupts,
            weight: st.total_weight(),
            max_share_err_ppm: max_err,
            overhead_cycles: overhead,
            overhead_ppm: overhead * 1_000_000 / baseline_cycles.max(1),
        });
    }

    let result = PmuResult {
        depth: depth.name(),
        baseline_cycles,
        counting_cycles,
        counting_identical: counting_cycles == baseline_cycles,
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
    t.push_row(vec![
        "counting-only".into(),
        "0".into(),
        "0".into(),
        "0".into(),
        format!(
            "{}",
            result.counting_cycles.abs_diff(result.baseline_cycles)
        ),
        if result.counting_identical {
            "identical".into()
        } else {
            "PERTURBED".into()
        },
    ]);
    (result, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_pmu_never_perturbs_the_run() {
        let (r, _) = exp_pmu(Depth::Quick);
        assert!(
            r.counting_identical,
            "counting run diverged: {} vs {}",
            r.counting_cycles, r.baseline_cycles
        );
    }

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
        assert_eq!(t.rows.len(), 4, "three periods + the counting row");
    }

    #[test]
    fn results_are_deterministic() {
        let (a, ta) = exp_pmu(Depth::Quick);
        let (b, tb) = exp_pmu(Depth::Quick);
        assert_eq!(a.rows, b.rows);
        assert_eq!(ta.to_json(), tb.to_json());
    }
}
