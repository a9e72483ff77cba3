//! E-TUNE: does closing the PMU feedback loop beat the static §5.1 config?
//!
//! The paper tunes its MMU knobs by hand, once, with the 604's performance
//! monitor on a compile workload — and §7 leaves "looks inefficient"
//! observations on the table. This experiment gates the closed loop built
//! in this repository (the offline coordinate descent of [`crate::tune`],
//! with the in-kernel mmtune controller as one of its axes) against that
//! static configuration, on the fault-storm workload the static config was
//! *not* hand-tuned for:
//!
//! 1. **Wins** — the tuned configuration strictly beats static `opt` on at
//!    least 2 of the 4 matrix machines. (Empirically it is the §5.2
//!    scatter constant that flips under a fault storm: a constant tuned
//!    for compile-shaped hot-spots is not the best spread for an
//!    injection-driven fault pattern, and the 604s' hardware table walk
//!    pays for every collision.)
//! 2. **Hysteresis bound** — no machine loses by more than 2%. The
//!    descent's candidate set contains the baseline, so a regression means
//!    the tuner itself is broken, not just unlucky.
//!
//! Determinism is not re-run here: the tune row of `ARTIFACTS.lock` pins
//! the descent's output byte for byte, and the `mmtune_is_deterministic`
//! property test the online controller it tunes.

use crate::tables::Table;
use crate::tune::{tune_workload, TuneResult};
use crate::Depth;

/// The complete E-TUNE result.
#[derive(Debug, Clone)]
pub struct TuneGateResult {
    /// The per-machine descent outcomes.
    pub result: TuneResult,
    /// Gate 1: tuned strictly beats static on ≥ 2 of 4 machines.
    pub enough_wins: bool,
    /// Gate 2: no machine regresses past the 2% hysteresis bound.
    pub never_loses: bool,
}

impl TuneGateResult {
    /// Both gates at once.
    pub fn holds(&self) -> bool {
        self.enough_wins && self.never_loses
    }
}

/// Runs the fault-storm descent on every machine and gates the signs.
pub fn exp_tune(depth: Depth) -> (TuneGateResult, Table) {
    let result = tune_workload("fault_storm", depth);
    let gates = TuneGateResult {
        enough_wins: result.wins() >= 2,
        never_loses: result.never_loses(),
        result,
    };

    let mut t = gates.result.table();
    t.push_row(vec![
        "(gates)".into(),
        format!("wins {}/4", gates.result.wins()),
        if gates.enough_wins { "≥2: pass" } else { "≥2: FAIL" }.into(),
        if gates.never_loses {
            "bound: pass"
        } else {
            "bound: FAIL"
        }
        .into(),
        String::new(),
        String::new(),
    ]);
    (gates, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuned_config_beats_static_opt_where_it_matters() {
        let (r, t) = exp_tune(Depth::Quick);
        assert!(
            r.enough_wins,
            "tuned must beat static opt on ≥2 machines: {:?}",
            r.result
                .outcomes
                .iter()
                .map(|o| (o.machine, o.delta()))
                .collect::<Vec<_>>()
        );
        assert!(r.never_loses, "a tuned cell regressed past the 2% bound");
        assert!(r.holds());
        assert_eq!(r.result.outcomes.len(), 4);
        let s = t.render();
        assert!(s.contains("pass") && !s.contains("FAIL"));
    }
}
