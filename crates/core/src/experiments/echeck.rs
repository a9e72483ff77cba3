//! E-CHECK: does the kernel survive adversarial checking under chaos?
//!
//! The paper's optimizations are exactly the kind that rot silently: a lazy
//! VSID flush that forgets one segment register, a hash-table displacement
//! that leaves a stale PTE, an idle-task reclaim that frees a live frame —
//! none of them crash, they just translate *wrong*. This experiment gates
//! the checking subsystem (shadow-MM oracle + runtime invariants, DESIGN.md
//! §12) against a seeded syscall fuzzer with the full-spectrum fault
//! injector armed: every seed's chaos run must complete with no oracle
//! violation, no invariant failure, no panic, and both frame pools
//! returning exactly to their boot baselines (never-leak).
//!
//! The checker's other guarantees are tests, not re-runs here: check-off
//! cycle identity (`chaos::tests::check_off_is_cycle_identical`), same-seed
//! determinism (`checked_chaos_run_is_clean_and_deterministic` and the
//! chaos row of `ARTIFACTS.lock`), and that the planted stale-TLB bug is
//! caught (`tests_check::oracle_catches_deliberate_stale_vsid_bug`).

use crate::chaos::{chaos_report, ChaosConfig, ChaosOutcome};
use crate::tables::Table;
use crate::Depth;

/// The complete E-CHECK result.
#[derive(Debug, Clone)]
pub struct CheckGateResult {
    /// Per-seed outcomes of the checked chaos runs.
    pub outcomes: Vec<(u64, ChaosOutcome)>,
    /// The gate: every seed ran clean (any violation is reported here).
    pub first_failure: Option<String>,
}

/// Seed set per depth: enough quick seeds to cross every injection family,
/// a broader sweep at full depth.
fn seeds(depth: Depth) -> (Vec<u64>, u32) {
    match depth {
        Depth::Quick => ((1..=6).collect(), 200),
        Depth::Full => ((1..=24).collect(), 500),
    }
}

/// Runs the checked chaos fleet and gates that every seed runs clean.
pub fn exp_check(depth: Depth) -> (CheckGateResult, Table) {
    let (seed_set, steps) = seeds(depth);
    let mut outcomes = Vec::new();
    let mut first_failure = None;
    for &seed in &seed_set {
        match chaos_report(&ChaosConfig::checked(seed, steps)) {
            Ok(o) => outcomes.push((seed, o)),
            Err(f) => {
                first_failure.get_or_insert_with(|| f.to_string());
            }
        }
    }

    let gates = CheckGateResult {
        outcomes,
        first_failure,
    };

    let mut t = Table::new(
        "E-CHECK: chaos fuzzing under the shadow-MM oracle",
        vec![
            "seed".into(),
            "cycles".into(),
            "injected".into(),
            "fatals".into(),
            "oracle obs".into(),
            "sweeps".into(),
            "verdict".into(),
        ],
    );
    for (seed, o) in &gates.outcomes {
        t.push_row(vec![
            format!("{seed}"),
            format!("{}", o.cycles),
            format!("{}", o.stats.injected_faults),
            format!("{}", o.fatals),
            format!("{}", o.checked_observations),
            format!("{}", o.heavy_sweeps),
            "clean".into(),
        ]);
    }
    if let Some(f) = &gates.first_failure {
        t.push_row(vec![
            "(violation)".into(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            String::new(),
            f.lines().next().unwrap_or("violation").to_string(),
        ]);
    }
    t.push_row(vec![
        "(gate)".into(),
        format!("{}/{} clean", gates.outcomes.len(), seed_set.len()),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        if gates.first_failure.is_none() {
            "clean: pass"
        } else {
            "clean: FAIL"
        }
        .into(),
    ]);
    (gates, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_fleet_runs_clean_and_exercises_checker_and_injector() {
        let (r, t) = exp_check(Depth::Quick);
        assert!(
            r.first_failure.is_none(),
            "chaos violation: {}",
            r.first_failure.as_deref().unwrap_or("")
        );
        assert_eq!(r.outcomes.len(), 6);
        // Every seed must actually exercise the checker and the injector.
        for (seed, o) in &r.outcomes {
            assert!(o.checked_observations > 0, "seed {seed}: oracle idle");
            assert!(o.stats.injected_faults > 0, "seed {seed}: injector idle");
        }
        let s = t.render();
        assert!(s.contains("pass") && !s.contains("FAIL"));
    }
}
