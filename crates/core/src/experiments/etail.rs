//! E-TAIL: does tail forensics *explain* a planted tail regression?
//!
//! A forensics layer that captures exemplars but misattributes them is
//! worse than a histogram — it prints a confident wrong answer. This
//! experiment plants a regression whose cause is known by construction and
//! gates that the attribution ranking finds it: booting with a 16-PTEG
//! hash table (128 PTE slots) and cyclically sweeping a 192-page working
//! set saturates every PTEG. Once the table is full, each reload miss
//! forces an overflow insert that displaces a live entry, which turns the
//! *next* touch of the displaced page into another miss — the §5.2
//! secondary-hash probe storm, self-sustaining by round two. One warmup
//! sweep takes the compulsory page faults and cold misses, then the
//! reservoir is drained ([`kernel_sim::TailState::reset`]) so the
//! retained tail describes steady state; the oracle-visible cause
//! (`secondary_probe_storm`) must then *win* the cycles-above-median
//! ranking, not merely appear in it.
//!
//! The arming threshold is not a magic number: it is read off a dormant
//! run's reload median, so the experiment scales with machine timings.
//! That arming the capture leaves a run cycle- and counter-identical, and
//! that same-seed runs retain identical exemplars, are kernel-sim tests
//! (`tests_tail`, the observer property test, and the reservoir
//! determinism proptest), not re-runs here.

use kernel_sim::{Kernel, KernelConfig, Path, TailCause, TailConfig};
use ppc_machine::MachineConfig;
use ppc_mmu::addr::PAGE_SIZE;

use crate::tables::Table;
use crate::Depth;

/// Working-set pages: 1.5× the 128-slot table, so a cyclic sweep has
/// displaced each page again by the time it comes back around.
const STORM_PAGES: u32 = 192;

/// The complete E-TAIL result.
#[derive(Debug, Clone)]
pub struct TailGateResult {
    /// The ranked steady-state attribution of the storm run:
    /// `(cause, cycles above the path median, exemplars)`.
    pub ranked: Vec<(TailCause, u64, u64)>,
    /// Captures offered after the warmup reset.
    pub captured: u64,
    /// The arming threshold derived from the dormant run (cycles).
    pub threshold: u64,
    /// The gate: the planted secondary-hash storm tops the ranking.
    pub storm_attributed: bool,
}

/// The planted regression: a 16-PTEG hash table under a cyclic sweep of
/// [`STORM_PAGES`] pages. One warmup sweep maps everything and takes the
/// compulsory misses; if capture is armed, the reservoir is drained after
/// it so only steady-state rounds are retained.
fn storm_run(depth: Depth, tail: Option<TailConfig>) -> Kernel {
    let mut cfg = KernelConfig::optimized();
    cfg.trace = true;
    cfg.tail = tail;
    let mut k = Kernel::boot_with_htab_groups(MachineConfig::ppc604_133(), cfg, 16);
    let pid = k.spawn_process(8).expect("storm task");
    k.switch_to(pid);
    let base = k.sys_mmap(None, STORM_PAGES * PAGE_SIZE);
    let sweep = |k: &mut Kernel| {
        for i in 0..STORM_PAGES {
            k.user_read(base + i * PAGE_SIZE, 64).expect("mapped page");
        }
    };
    sweep(&mut k);
    if let Some(tl) = k.tail.as_mut() {
        tl.reset();
    }
    let rounds = match depth {
        Depth::Quick => 3,
        Depth::Full => 12,
    };
    for _ in 0..rounds {
        sweep(&mut k);
    }
    k
}

/// Runs the planted storm and gates its attribution.
pub fn exp_tail(depth: Depth) -> (TailGateResult, Table) {
    // Dormant probe: supplies the arming threshold (the reload median —
    // capture the slow half of the path).
    let dormant = storm_run(depth, None);
    let threshold = dormant
        .tracer
        .as_ref()
        .expect("tracer enabled")
        .latency(Path::TlbReload)
        .percentiles()
        .0
        .max(1);
    let tcfg = TailConfig::fixed(threshold);
    let armed = storm_run(depth, Some(tcfg));

    let tl = armed.tail.as_ref().expect("tail armed");
    let t = armed.tracer.as_ref().expect("tracer enabled");
    let ranked = tl.attribution(t);

    let storm_attributed = ranked
        .first()
        .is_some_and(|(c, _, _)| *c == TailCause::SecondaryProbeStorm);

    let gates = TailGateResult {
        ranked,
        captured: tl.captured(),
        threshold,
        storm_attributed,
    };

    let mut table = Table::new(
        format!(
            "E-TAIL: planted PTEG-saturation regression under tail forensics \
             (16-PTEG table, {STORM_PAGES}-page cyclic sweep, threshold {threshold})"
        ),
        vec![
            "cause".into(),
            "exemplars".into(),
            "cycles_above_median".into(),
            "verdict".into(),
        ],
    );
    for (i, (cause, cycles, n)) in gates.ranked.iter().enumerate() {
        table.push_row(vec![
            cause.name().into(),
            format!("{n}"),
            format!("{cycles}"),
            if i == 0 { "top-ranked" } else { "" }.into(),
        ]);
    }
    table.push_row(vec![
        "(gate)".into(),
        format!("{} captures", gates.captured),
        String::new(),
        if gates.storm_attributed {
            "storm attributed: pass"
        } else {
            "storm attributed: FAIL"
        }
        .into(),
    ]);
    (gates, table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planted_storm_tops_the_cause_ranking() {
        let (r, t) = exp_tail(Depth::Quick);
        assert!(
            r.storm_attributed,
            "secondary-hash storm must top the ranking, got {:?}",
            r.ranked
        );
        assert!(r.captured > 0);
        assert!(r.threshold > 0);
        let s = t.render();
        assert!(s.contains("secondary_probe_storm"), "{s}");
        assert!(s.contains("pass") && !s.contains("FAIL"), "{s}");
    }
}
