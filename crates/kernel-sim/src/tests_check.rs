//! Tests for the adversarial checking subsystem: the shadow-MM oracle,
//! runtime invariants, and the zero-cost-when-off obligation.

use ppc_machine::MachineConfig;
use ppc_mmu::addr::EffectiveAddress;
use ppc_mmu::bat::BatEntry;
use ppc_mmu::pte::Pte;

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
    let msg = panic_message(result);
    assert!(msg.contains("MM check violation"), "wrong panic: {msg}");
    assert!(
        msg.contains("stale"),
        "violation is not a staleness report: {msg}"
    );
    // The TLB-hit audit catches it, not a later hash-table sweep.
    assert!(msg.contains("dtlb hit"), "not caught at a TLB hit: {msg}");
}

/// The message of the panic `result` carries.
fn panic_message(result: std::thread::Result<()>) -> String {
    let err = result.expect_err("the checker stayed silent");
    err.downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()).unwrap())
}

#[test]
fn checked_references_through_an_unmarkable_bat_block_complete() {
    // A 64 MiB data BAT over the 32 MiB linear map: every address in it
    // passes the BAT audit, but its whole block is not legal, so the
    // register is never marked and each reference is audited again. Each
    // must still complete, with the cycles and BAT hits of an unchecked run.
    let run = |check: Option<CheckConfig>| {
        let mut k = Kernel::boot(
            MachineConfig::ppc604_185(),
            KernelConfig {
                check,
                ..KernelConfig::optimized()
            },
        );
        let block = BatEntry::new(0xc000_0000, 0, 64 << 20, true);
        k.machine.mmu.bats.set_dbat(0, Some(block));
        let (c0, hits0) = (k.machine.cycles, k.machine.mmu.bats.dbat_hits);
        for i in 0..1_000u32 {
            k.kdata_ref((i * 4_160) % (16 << 20), i % 3 == 0);
        }
        (k.machine.cycles - c0, k.machine.mmu.bats.dbat_hits - hits0)
    };
    let unchecked = run(None);
    assert_eq!(unchecked.1, 1_000);
    assert_eq!(run(Some(CheckConfig::full())), unchecked);
}

#[test]
fn stale_audited_slot_is_caught_at_its_next_hit() {
    // The stale slot has been audited and served by the audited instance
    // without a new audit before the buggy flush. The retirement must clear
    // its audit mark, so the very next hit is audited again — naming the
    // D-TLB — instead of being served unaudited until a sweep.
    let result = std::panic::catch_unwind(|| {
        let mut k = Kernel::boot(
            MachineConfig::ppc604_185(),
            cfg_with(Some(CheckConfig::full()), None),
        );
        let a = k.spawn_process(8).unwrap();
        k.switch_to(a);
        k.user_write(USER_BASE, 8 * 4096).unwrap();
        k.user_read(USER_BASE, 8 * 4096).unwrap();
        let ea = EffectiveAddress(USER_BASE);
        let va = k.machine.mmu.segments.translate(ea);
        let (slot, _) = k.machine.mmu.dtlb.peek(va.vsid, va.page_index).unwrap();
        assert!(k.machine.mmu.dtlb.audited(slot), "warm slot left unaudited");
        assert!(
            k.machine.data_ref::<true>(ea, false).is_ok(),
            "the audited instance refused an audited slot"
        );
        k.user_read(USER_BASE, 8 * 4096).unwrap();
        k.set_buggy_skip_vsid_flush(true);
        let idx = k.task_idx(a).unwrap();
        k.flush_context(idx);
        k.user_read(USER_BASE, 4).unwrap();
    });
    let msg = panic_message(result);
    assert!(msg.contains("MM check violation"), "wrong panic: {msg}");
    assert!(
        msg.contains("dtlb hit") && msg.contains("stale"),
        "the stale hit was not audited: {msg}"
    );
}

#[test]
fn pte_written_after_a_sweep_is_reported_by_the_next_epoch() {
    // A live-VSID entry the oracle never installed, written straight into
    // the table just after a heavy sweep cleared every PTEG mark: only the
    // write's own mark brings its group into the next (partial) sweep.
    let result = std::panic::catch_unwind(|| {
        let check = CheckConfig { epoch_cycles: 4096 };
        let mut k = Kernel::boot(MachineConfig::ppc604_185(), cfg_with(Some(check), None));
        let a = k.spawn_process(8).unwrap();
        k.switch_to(a);
        k.user_write(USER_BASE, 8 * 4096).unwrap();
        let sweeps = |k: &Kernel| k.check.as_ref().map_or(0, |c| c.heavy_sweeps);
        let last = sweeps(&k);
        while sweeps(&k) == last {
            k.sys_null();
        }
        let vsid = k.cur().vsids[1];
        assert!(k.vsids.is_live(vsid));
        k.htab.insert(Pte {
            valid: true,
            vsid,
            secondary: false,
            page_index: 0xabc,
            rpn: 0x123,
            referenced: false,
            changed: false,
            cache_inhibited: false,
            pp: 2,
        });
        let last = sweeps(&k);
        while sweeps(&k) == last {
            k.sys_null();
        }
    });
    let msg = panic_message(result);
    assert!(msg.contains("MM check violation"), "wrong panic: {msg}");
    assert!(
        msg.contains("htab residency sweep") && msg.contains("stale"),
        "the planted entry was not swept: {msg}"
    );
}

#[test]
fn stale_pte_in_a_group_marked_only_by_its_key_is_reported_by_the_next_sweep() {
    // A page flush that forgets the hash table: the oracle drops the key
    // and marks where its entry may sit through `mark_key_written`, but no
    // slot is written, so only that mark brings the stale entry's PTEG into
    // the next (partial) sweep.
    let result = std::panic::catch_unwind(|| {
        let check = CheckConfig { epoch_cycles: 4096 };
        let mut k = Kernel::boot(MachineConfig::ppc604_185(), cfg_with(Some(check), None));
        let a = k.spawn_process(8).unwrap();
        k.switch_to(a);
        k.user_write(USER_BASE, 8 * 4096).unwrap();
        let sweeps = |k: &Kernel| k.check.as_ref().map_or(0, |c| c.heavy_sweeps);
        let last = sweeps(&k);
        while sweeps(&k) == last {
            k.sys_null();
        }
        let ea = EffectiveAddress(USER_BASE);
        let vsid = k.user_vsid(k.task_idx(a).unwrap(), ea);
        let (g, _, _) = k
            .htab
            .entries()
            .find(|(_, _, p)| (p.vsid, p.page_index) == (vsid, ea.page_index()))
            .expect("the page's entry is in the table");
        assert!(!k.htab.written(g));
        k.check_note_flush_page(vsid, ea.page_index());
        k.machine.mmu.tlbie(ea.page_index());
        assert!(k.htab.written(g));
        let last = sweeps(&k);
        while sweeps(&k) == last {
            k.sys_null();
        }
    });
    let msg = panic_message(result);
    assert!(msg.contains("MM check violation"), "wrong panic: {msg}");
    assert!(
        msg.contains("htab residency sweep") && msg.contains("stale"),
        "the stale entry was not swept: {msg}"
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
