//! Tests for the adversarial checking subsystem: the shadow-MM oracle,
//! runtime invariants, and the zero-cost-when-off obligation.

use ppc_machine::MachineConfig;

use crate::check::CheckConfig;
use crate::inject::FaultInjection;
use crate::kconfig::KernelConfig;
use crate::kernel::Kernel;
use crate::sched::USER_BASE;
use crate::tests_observers::{assert_invisible, workload, CHECK};

fn cfg_with(check: Option<CheckConfig>, inject: Option<FaultInjection>) -> KernelConfig {
    KernelConfig {
        check,
        fault_injection: inject,
        ..KernelConfig::extended()
    }
}

#[test]
fn check_mode_is_cycle_and_counter_identical_when_off() {
    // The check also requires oracle observations, invariant passes and a
    // heavy sweep.
    assert_invisible(MachineConfig::ppc604_185(), cfg_with(None, None), CHECK);
}

#[test]
fn check_survives_chaotic_injection() {
    let mut k = Kernel::boot(
        MachineConfig::ppc604_185(),
        cfg_with(
            Some(CheckConfig::full()),
            Some(FaultInjection::chaotic(0xC0FFEE)),
        ),
    );
    workload(&mut k);
    k.check_finish();
    let c = k.check.as_ref().unwrap();
    assert!(c.checked_observations > 0);
}

#[test]
fn oracle_catches_deliberate_stale_vsid_bug() {
    let result = std::panic::catch_unwind(|| {
        let mut k = Kernel::boot(
            MachineConfig::ppc604_185(),
            cfg_with(Some(CheckConfig::full()), None),
        );
        let a = k.spawn_process(8).unwrap();
        k.switch_to(a);
        k.user_write(USER_BASE, 8 * 4096).unwrap();
        // Arm the planted bug: flush_context retires legality in the oracle
        // but skips the VSID bump, leaving stale SRs and TLB entries live.
        k.set_buggy_skip_vsid_flush(true);
        let idx = k.task_idx(a).unwrap();
        k.flush_context(idx);
        // The very next access through a previously-translated page must
        // trip the oracle (stale TLB or hash-table hit).
        for _ in 0..8 {
            k.user_read(USER_BASE, 8 * 4096).unwrap();
        }
        k.check_finish();
    });
    let err = result.expect_err("stale-TLB bug escaped the oracle");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()).unwrap());
    assert!(msg.contains("MM check violation"), "wrong panic: {msg}");
    assert!(
        msg.contains("stale"),
        "violation is not a staleness report: {msg}"
    );
}

#[test]
fn bug_without_checker_goes_unnoticed() {
    // The same planted bug with check mode off runs to completion — which
    // is exactly why the oracle has to exist.
    let mut k = Kernel::boot(MachineConfig::ppc604_185(), cfg_with(None, None));
    let a = k.spawn_process(8).unwrap();
    k.switch_to(a);
    k.user_write(USER_BASE, 8 * 4096).unwrap();
    k.set_buggy_skip_vsid_flush(true);
    let idx = k.task_idx(a).unwrap();
    k.flush_context(idx);
    k.user_read(USER_BASE, 8 * 4096).unwrap();
}

#[test]
fn unoptimized_kernel_is_oracle_clean() {
    // Eager flushes, no BATs, slow handlers: the other end of the config
    // space must satisfy the same oracle.
    let cfg = KernelConfig {
        check: Some(CheckConfig::full()),
        ..KernelConfig::unoptimized()
    };
    let mut k = Kernel::boot(MachineConfig::ppc603_133(), cfg);
    workload(&mut k);
    k.check_finish();
    let c = k.check.as_ref().unwrap();
    assert!(c.checked_observations > 0);
    assert!(c.heavy_sweeps > 0);
}
