//! The OS half of the performance-monitor unit: sample collection.
//!
//! The hardware half ([`ppc_machine::pmu`]) counts events and latches the
//! counter-negative exception; this module is the kernel's sampling
//! interrupt handler state — what Linux's `perf_event` subsystem is to the
//! bare PMU. Each delivered interrupt captures the running task, the
//! privilege state, and the kernel span stack at that instant, and
//! aggregates them into the breakdowns `repro perf report` renders:
//! per-subsystem weighted self-time, per-task totals, and collapsed call
//! stacks for flamegraphs.
//!
//! ## Why weighted samples converge to the exact profiler
//!
//! The kernel syncs the PMU before the span stack changes, at the first span
//! transition at or past the cycle the sampling counter goes negative (its
//! [`ppc_machine::Pmu::sync_deadline`]): exactly the transition at which a
//! sync at every transition would first find it negative. Between two
//! consecutive transitions the stack is constant, so every cycle of the
//! window before that poll belongs to the subsystem on top of the stack —
//! the same attribution rule the exact profiler ([`crate::prof`]) applies.
//! When the sampling counter is found negative at a poll, the sample is recorded with
//! a *weight* of however many whole periods elapsed since the counter was
//! armed, all of which lie inside windows topped by... possibly different
//! subsystems — and that is the entire statistical error: a multi-span
//! period charges all its periods to the subsystem current at the poll that
//! observed the crossing. As the period shrinks below the typical span
//! length, that error vanishes, which is exactly what the E-PMU experiment
//! demonstrates.

use std::collections::BTreeMap;

use ppc_machine::Cycles;

use crate::kconfig::PmuConfig;
use crate::prof::{Subsystem, NUM_SUBSYSTEMS};
use crate::task::Pid;

/// Raw samples kept verbatim before the recorder switches to
/// aggregates-only (the aggregates are always complete).
pub const SAMPLE_CAP: usize = 65_536;

/// One sampling-interrupt capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PmuSample {
    /// Cycle the interrupt was serviced at.
    pub cycle: Cycles,
    /// PID of the running task (0 = the kernel itself / idle).
    pub pid: Pid,
    /// Whether the sample hit supervisor state (an open kernel span or no
    /// current task) rather than user compute.
    pub supervisor: bool,
    /// Subsystem on top of the span stack ([`Subsystem::User`] when none).
    pub subsystem: Subsystem,
    /// Kernel span stack at the interrupt, outermost first (empty = user).
    pub stack: Vec<Subsystem>,
    /// Whole sampling periods this sample stands for.
    pub weight: u64,
}

/// The kernel's sampling state: configuration and every aggregate the
/// `perf` surface reports. Samples read the kernel's own span stack
/// (`Kernel::spans`), so sampling works with the event tracer off.
#[derive(Debug, Clone)]
pub struct PmuState {
    /// The boot-time programming.
    pub cfg: PmuConfig,
    /// Raw samples, newest last, capped at [`SAMPLE_CAP`].
    pub samples: Vec<PmuSample>,
    /// Weighted sample counts per subsystem (the sampled self-time profile,
    /// in units of sampling periods).
    pub by_subsystem: [u64; NUM_SUBSYSTEMS],
    /// Weighted sample counts per task.
    pub by_pid: BTreeMap<Pid, u64>,
    /// Weighted sample counts per collapsed stack
    /// (`pid;span;span;...` — the flamegraph input format).
    pub folded: BTreeMap<String, u64>,
    /// Weighted samples that hit supervisor state.
    pub supervisor_weight: u64,
    /// Weighted samples that hit user state.
    pub user_weight: u64,
    /// Sampling interrupts delivered (unweighted).
    pub interrupts: u64,
}

impl PmuState {
    /// Fresh sampling state for a booted kernel.
    pub fn new(cfg: PmuConfig) -> Self {
        Self {
            cfg,
            samples: Vec::new(),
            by_subsystem: [0; NUM_SUBSYSTEMS],
            by_pid: BTreeMap::new(),
            folded: BTreeMap::new(),
            supervisor_weight: 0,
            user_weight: 0,
            interrupts: 0,
        }
    }

    /// Records one delivered sampling interrupt taken with the kernel span
    /// stack `stack` (outermost first).
    pub fn record(
        &mut self,
        cycle: Cycles,
        pid: Pid,
        supervisor: bool,
        weight: u64,
        stack: &[Subsystem],
    ) {
        let subsystem = stack.last().copied().unwrap_or(Subsystem::User);
        self.interrupts += 1;
        self.by_subsystem[subsystem as usize] += weight;
        *self.by_pid.entry(pid).or_insert(0) += weight;
        if supervisor {
            self.supervisor_weight += weight;
        } else {
            self.user_weight += weight;
        }
        *self.folded.entry(Self::fold(pid, stack)).or_insert(0) += weight;
        if self.samples.len() < SAMPLE_CAP {
            self.samples.push(PmuSample {
                cycle,
                pid,
                supervisor,
                subsystem,
                stack: stack.to_vec(),
                weight,
            });
        }
    }

    /// The collapsed-stack key for a sample: `pid<N>;outermost;...;innermost`
    /// (`pid<N>;user` for an empty stack) — one line of Brendan Gregg's
    /// folded format once the weight is appended.
    fn fold(pid: Pid, stack: &[Subsystem]) -> String {
        let mut s = format!("pid{pid}");
        if stack.is_empty() {
            s.push_str(";user");
        } else {
            for sub in stack {
                s.push(';');
                s.push_str(sub.name());
            }
        }
        s
    }

    /// Total weighted samples (periods observed).
    pub fn total_weight(&self) -> u64 {
        self.by_subsystem.iter().sum()
    }

    /// Sampled share of `s` in parts-per-million of all weighted samples.
    pub fn share_ppm(&self, s: Subsystem) -> u64 {
        (self.by_subsystem[s as usize] * 1_000_000)
            .checked_div(self.total_weight())
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_aggregates_by_every_axis() {
        let mut st = PmuState::new(PmuConfig::sampling(1000));
        let (translate, insert) = (Subsystem::Translate, Subsystem::HtabInsert);
        st.record(100, 3, true, 2, &[translate]);
        st.record(200, 3, true, 1, &[translate, insert]);
        st.record(300, 4, false, 5, &[]);

        assert_eq!(st.interrupts, 3);
        assert_eq!(st.total_weight(), 8);
        assert_eq!(st.by_subsystem[Subsystem::Translate as usize], 2);
        assert_eq!(st.by_subsystem[Subsystem::HtabInsert as usize], 1);
        assert_eq!(st.by_subsystem[Subsystem::User as usize], 5);
        assert_eq!(st.by_pid[&3], 3);
        assert_eq!(st.by_pid[&4], 5);
        assert_eq!(st.supervisor_weight, 3);
        assert_eq!(st.user_weight, 5);
        assert_eq!(st.folded["pid3;translate"], 2);
        assert_eq!(st.folded["pid3;translate;htab_insert"], 1);
        assert_eq!(st.folded["pid4;user"], 5);
        assert_eq!(st.share_ppm(Subsystem::User), 625_000);
    }

    #[test]
    fn sample_cap_keeps_aggregates_complete() {
        let mut st = PmuState::new(PmuConfig::sampling(10));
        for i in 0..(SAMPLE_CAP as u64 + 10) {
            st.record(i, 1, false, 1, &[]);
        }
        assert_eq!(st.samples.len(), SAMPLE_CAP);
        assert_eq!(
            st.total_weight(),
            SAMPLE_CAP as u64 + 10,
            "aggregates uncapped"
        );
    }

    #[test]
    fn empty_state_shares_are_zero() {
        let st = PmuState::new(PmuConfig::sampling(10));
        assert_eq!(st.share_ppm(Subsystem::Idle), 0);
    }
}
