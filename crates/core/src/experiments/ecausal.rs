//! E-CAUSAL: do exact virtual speedups predict *measured* deltas?
//!
//! A what-if profiler that mispredicts is worse than none — it prices
//! optimizations nobody should buy. This experiment checks the causal
//! engine against ground truth the harness can measure independently:
//!
//! 1. **Delta explained** — the matrix already measures how much slower the
//!    software-reload 603 row is than the same 603 with the hash table off:
//!    the gap is (almost entirely) hash-table reload work. Virtually
//!    zeroing the `tlb_reload` path on *both* rows prices that work
//!    exactly, so the difference of the two causal payoffs must reproduce
//!    the measured row delta within a small epsilon. The residual is real:
//!    reload code also pollutes the cache, and causal scaling honestly
//!    preserves that state evolution while discounting only the charges.
//! 2. **Idle buys nothing** — the paper's §9 cautionary tale, quantified:
//!    on the latency-bound fault-storm workload the idle task runs inside
//!    fixed I/O stalls, so a virtual idle-task speedup just fits more
//!    housekeeping into the same wait — end-to-end payoff must be ~0 ppm,
//!    and the marginal ranking must price it below the reload path. (On
//!    the *compile* workload the same speedup honestly buys ~2%: a faster
//!    idle task pre-clears more pages, which takes clears off the demand
//!    path — a capacity effect, not a latency one. The payoff tables keep
//!    it; the §9 claim is specifically about waits.)
//! 3. **Identity** — the trimmed `repro causal` grid's factor-0 runs
//!    match the plain baselines (`identity_ok`).
//!
//! That a causal grid records byte-identically twice is the job of
//! `causal::tests::trimmed_grid_is_identity_clean_and_byte_reproducible`
//! and the causal row of `ARTIFACTS.lock`, not of a second grid here.

use kernel_sim::causal::{CausalConfig, Ratio};
use kernel_sim::Path;
use kernel_sim::{KernelConfig, Subsystem};

use crate::causal::{causal_report_on, CausalTarget};
use crate::matrix::{machine_row, run_workload};
use crate::tables::Table;
use crate::Depth;

/// Gate 1 tolerance: the causal explanation must land within 1% of the
/// measured row delta (ppm of the software-reload row's end-to-end
/// cycles; measured residual is ~0.4%). The residual is the reload code's
/// cache pollution, which scaling preserves by design.
pub const DELTA_EPSILON_PPM: i64 = 10_000;

/// Gate 2 bound: zeroing the idle task's self-time may move end-to-end
/// fault-storm cycles by at most 0.2% — "optimizing the idle task" buys
/// nothing when the idle task runs inside I/O waits (§9). The measured
/// value is a few cycles in tens of millions (0 ppm).
pub const IDLE_PAYOFF_BOUND_PPM: i64 = 2_000;

/// The complete E-CAUSAL result.
#[derive(Debug, Clone)]
pub struct CausalGateResult {
    /// Measured end-to-end delta: 603-swload minus 603-nohtab (cycles).
    pub measured_delta: i64,
    /// Causal explanation: difference of the two rows' zeroed-reload
    /// payoffs (cycles).
    pub explained_delta: i64,
    /// `|measured - explained|` in ppm of the swload row's cycles.
    pub residual_ppm: i64,
    /// Gate 1: residual within [`DELTA_EPSILON_PPM`].
    pub delta_explained: bool,
    /// End-to-end payoff of a 100% idle-task speedup on fault_storm (ppm).
    pub idle_payoff_ppm: i64,
    /// Gate 2: `|idle_payoff_ppm|` within [`IDLE_PAYOFF_BOUND_PPM`], and
    /// the marginal ranking prices the idle task below the reload path.
    pub idle_buys_nothing: bool,
    /// Gate 3: the trimmed grid's factor-0 runs match their baselines.
    pub identity_ok: bool,
}

impl CausalGateResult {
    /// All three gates at once.
    pub fn holds(&self) -> bool {
        self.delta_explained && self.idle_buys_nothing && self.identity_ok
    }
}

fn ppm_of(delta: i64, baseline: u64) -> i64 {
    (delta as i128 * 1_000_000 / (baseline as i128).max(1)) as i64
}

/// Runs all three gates and renders the verdict table.
pub fn exp_causal(depth: Depth) -> (CausalGateResult, Table) {
    // Gate 1: plain optimized kernel (no mmtune — the rows must differ in
    // reload mechanism only), compile workload, both 603 rows, each run
    // plain and with the reload path virtually zeroed.
    let zero_reload = CausalConfig::identity().scale_path(Path::TlbReload, Ratio::ZERO);
    let plain = KernelConfig::optimized;
    let with_zero = || {
        let mut cfg = plain();
        cfg.causal = Some(zero_reload);
        cfg
    };
    let sw = machine_row("603-swload");
    let no = machine_row("603-nohtab");
    let c_sw = run_workload(&sw, plain(), "compile", depth).cycles;
    let c_no = run_workload(&no, plain(), "compile", depth).cycles;
    let c_sw_z = run_workload(&sw, with_zero(), "compile", depth).cycles;
    let c_no_z = run_workload(&no, with_zero(), "compile", depth).cycles;
    let measured_delta = c_sw as i64 - c_no as i64;
    let explained_delta = (c_sw as i64 - c_sw_z as i64) - (c_no as i64 - c_no_z as i64);
    let residual_ppm = ppm_of((measured_delta - explained_delta).abs(), c_sw);
    let delta_explained = residual_ppm <= DELTA_EPSILON_PPM;

    // Gates 2 + 3: a trimmed grid (flagship machine, the latency-bound
    // fault storm, reload path vs idle self-time).
    let m604 = [machine_row("604-133")];
    let targets = [
        CausalTarget::Path(Path::TlbReload),
        CausalTarget::Sub(Subsystem::Idle),
    ];
    let report = causal_report_on(&m604, &["fault_storm"], &targets, depth);

    let cell = &report.cells[0];
    let mut cfg_idle_zero = crate::causal::cell_config();
    cfg_idle_zero.causal =
        Some(CausalConfig::identity().scale_subsystem(Subsystem::Idle, Ratio::ZERO));
    let c_idle_zero = run_workload(&m604[0], cfg_idle_zero, "fault_storm", depth).cycles;
    let idle_payoff_ppm = ppm_of(
        cell.baseline_cycles as i64 - c_idle_zero as i64,
        cell.baseline_cycles,
    );
    let rank_of = |id: &str| report.ranking.iter().position(|(t, _)| t == id);
    let idle_ranked_below_reload = rank_of("sub:idle") > rank_of("path:tlb_reload");
    let idle_buys_nothing =
        idle_payoff_ppm.abs() <= IDLE_PAYOFF_BOUND_PPM && idle_ranked_below_reload;

    let gates = CausalGateResult {
        measured_delta,
        explained_delta,
        residual_ppm,
        delta_explained,
        idle_payoff_ppm,
        idle_buys_nothing,
        identity_ok: report.identity_ok(),
    };

    let mut table = Table::new(
        format!(
            "E-CAUSAL: virtual speedups vs ground truth (delta on compile, \
             idle on fault_storm; {}; eps {DELTA_EPSILON_PPM} ppm, idle \
             bound {IDLE_PAYOFF_BOUND_PPM} ppm)",
            depth.name()
        ),
        vec![
            "gate".into(),
            "measured".into(),
            "predicted".into(),
            "verdict".into(),
        ],
    );
    table.push_row(vec![
        "htab-reload delta explained".into(),
        format!("{measured_delta} cycles"),
        format!("{explained_delta} cycles ({residual_ppm} ppm residual)"),
        if gates.delta_explained {
            "delta explained: pass"
        } else {
            "delta explained: FAIL"
        }
        .into(),
    ]);
    table.push_row(vec![
        "idle speedup buys ~0 (§9)".into(),
        format!("{idle_payoff_ppm} ppm end-to-end"),
        format!(
            "ranked {} reload path",
            if idle_ranked_below_reload {
                "below"
            } else {
                "ABOVE"
            }
        ),
        if gates.idle_buys_nothing {
            "idle buys nothing: pass"
        } else {
            "idle buys nothing: FAIL"
        }
        .into(),
    ]);
    table.push_row(vec![
        "factor-0 identity".into(),
        format!("identity_ok={}", i32::from(gates.identity_ok)),
        "factor-0 runs equal their baselines".into(),
        if gates.identity_ok {
            "identity: pass"
        } else {
            "identity: FAIL"
        }
        .into(),
    ]);
    (gates, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn causal_predictions_match_ground_truth() {
        let (r, t) = exp_causal(Depth::Quick);
        assert!(
            r.delta_explained,
            "zeroed reload must explain the row delta: measured {} vs explained {} ({} ppm)",
            r.measured_delta, r.explained_delta, r.residual_ppm
        );
        assert!(
            r.idle_buys_nothing,
            "idle speedup must buy ~0: {} ppm",
            r.idle_payoff_ppm
        );
        assert!(r.identity_ok);
        assert!(r.holds());
        let s = t.render();
        assert!(s.contains("pass") && !s.contains("FAIL"), "{s}");
    }
}
