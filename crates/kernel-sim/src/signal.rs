//! Signal delivery — `lat_sig`'s substrate.
//!
//! The LmBench suite the paper ran includes `lat_sig` (signal install and
//! catch latency). Delivery is a miniature context switch: the kernel builds
//! a signal frame on the user stack, redirects control to the handler, and
//! the handler returns through a `sigreturn` syscall that restores the
//! interrupted state — all of it through the same exception-entry and
//! memory-system machinery the rest of the kernel uses.

use ppc_mmu::addr::EffectiveAddress;

use crate::errors::{KResult, KernelError, Signal};
use crate::inject::InjectSite;
use crate::kernel::Kernel;
use crate::layout::KernelPath;
use crate::prof::Subsystem;
use crate::sched::STACK_BASE;
use crate::trace::TraceEvent;

/// Words in a signal frame (saved context + siginfo).
const SIGFRAME_WORDS: u32 = 40;

impl Kernel {
    /// `signal()` / `sigaction()`: installs a handler (bookkeeping only).
    pub fn sys_signal_install(&mut self) {
        self.syscall_entry();
        let ts = self.cur().task_struct_pa();
        self.kdata_ref(ts + 0x100, true);
        self.syscall_exit();
    }

    /// One `kill(getpid(), SIG)` + catch + `sigreturn` round trip — the
    /// operation `lat_sig catch` times.
    ///
    /// # Panics
    ///
    /// Panics if no task is current.
    pub fn signal_roundtrip(&mut self, handler_ea: u32) -> KResult<()> {
        self.t_event(|| TraceEvent::Signal { fatal: false });
        self.span(Subsystem::Signal, |k| {
            // kill(): queue the signal against the task.
            k.syscall_entry();
            let insns = k.paths.signal / 2;
            k.run_kernel_path(KernelPath::SyscallEntry, insns);
            let ts = k.cur().task_struct_pa();
            k.kdata_ref(ts + 0x104, true);
            k.syscall_exit();
            // Delivery on the return to user space: build the signal frame on
            // the user stack...
            let insns = k.paths.signal / 2;
            k.run_kernel_path(KernelPath::SyscallEntry, insns);
            let frame_base = STACK_BASE + 8 * 4096 - SIGFRAME_WORDS * 4;
            for w in 0..SIGFRAME_WORDS {
                k.data_ref(EffectiveAddress(frame_base + w * 4), true)?;
            }
            // ...run the user handler...
            k.exec_code(EffectiveAddress(handler_ea), 24)?;
            k.data_ref(EffectiveAddress(frame_base), false)?;
            // ...and sigreturn restores the interrupted context.
            k.syscall_entry();
            for w in 0..SIGFRAME_WORDS {
                k.data_ref(EffectiveAddress(frame_base + w * 4), false)?;
            }
            k.syscall_exit();
            Ok(())
        })
    }

    /// Delivers an *uncaught* fatal signal to the current task: the same
    /// queue + frame machinery as [`Kernel::signal_roundtrip`]'s delivery
    /// half, except the frame is built on the **kernel** stack (the user
    /// stack cannot be trusted mid-fault — it may itself be the faulting
    /// address), and instead of running a handler the kernel tears the task
    /// down and schedules the next runnable one. Returns the
    /// [`KernelError::Fatal`] the interrupted operation propagates.
    pub(crate) fn deliver_fatal_signal(&mut self, signal: Signal, ea: u32) -> KernelError {
        self.t_event(|| TraceEvent::Signal { fatal: true });
        self.span(Subsystem::Signal, |k| {
            let cur = k.current.expect("fatal signal with no current task");
            match signal {
                Signal::Segv => k.stats.sigsegvs += 1,
                Signal::Bus => k.stats.sigbus += 1,
                Signal::Kill => {} // counted by the OOM killer
            }
            let insns = k.paths.signal;
            k.run_kernel_path(KernelPath::SyscallEntry, insns);
            let stack = k.tasks[cur].task_struct_pa() + 0x200;
            for w in 0..SIGFRAME_WORDS {
                k.kdata_ref(stack + w * 4, true);
            }
            // Chaos site: an injected early context flush during the unwind,
            // before teardown re-flushes. Double-retiring a context must be
            // safe — the oracle and invariants verify it actually is.
            if k.injected(InjectSite::UnwindFlush) {
                k.flush_context(cur);
            }
            k.teardown_task(cur);
            k.machine.charge(k.machine.cfg.costs.exception_exit);
            KernelError::Fatal { signal, ea }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kconfig::KernelConfig;
    use crate::sched::USER_BASE;
    use ppc_machine::MachineConfig;

    fn kernel_with_proc() -> Kernel {
        let mut k = Kernel::boot(MachineConfig::ppc604_185(), KernelConfig::optimized());
        let pid = k.spawn_process(8).unwrap();
        k.switch_to(pid);
        k.prefault(USER_BASE, 4).unwrap();
        k
    }

    #[test]
    fn roundtrip_costs_three_kernel_crossings() {
        let mut k = kernel_with_proc();
        k.sys_signal_install();
        let syscalls = k.stats.syscalls;
        k.signal_roundtrip(USER_BASE).unwrap();
        // kill + sigreturn are syscalls; delivery itself is a kernel exit.
        assert_eq!(k.stats.syscalls, syscalls + 2);
    }

    #[test]
    fn roundtrip_is_dearer_than_null_syscall() {
        let mut k = kernel_with_proc();
        k.sys_signal_install();
        k.signal_roundtrip(USER_BASE).unwrap(); // warm
        let c0 = k.machine.cycles;
        k.signal_roundtrip(USER_BASE).unwrap();
        let sig = k.machine.cycles - c0;
        let c0 = k.machine.cycles;
        k.sys_null();
        let null = k.machine.cycles - c0;
        assert!(
            sig > 2 * null,
            "signal ({sig}) must cost several syscalls ({null})"
        );
    }

    #[test]
    fn fatal_delivery_charges_like_a_real_signal() {
        let mut k = kernel_with_proc();
        k.sys_signal_install();
        k.signal_roundtrip(USER_BASE).unwrap(); // warm
        let c0 = k.machine.cycles;
        k.signal_roundtrip(USER_BASE).unwrap();
        let roundtrip = k.machine.cycles - c0;
        let c0 = k.machine.cycles;
        let err = k.user_write(0x5000_0000, 4).unwrap_err();
        let fatal = k.machine.cycles - c0;
        assert_eq!(
            err,
            KernelError::Fatal {
                signal: Signal::Segv,
                ea: 0x5000_0000
            }
        );
        assert!(k.current.is_none(), "the faulting task must be gone");
        // Delivery runs the full signal path, builds the frame, and tears
        // the task down — it cannot be cheaper than the delivery half of a
        // caught-signal round trip (which also runs a handler + sigreturn).
        assert!(
            fatal > roundtrip / 2,
            "fatal delivery ({fatal}) vs caught roundtrip ({roundtrip})"
        );
    }

    #[test]
    fn slow_kernel_signals_are_slower() {
        let run = |kcfg: KernelConfig| {
            let mut k = Kernel::boot(MachineConfig::ppc604_133(), kcfg);
            let pid = k.spawn_process(8).unwrap();
            k.switch_to(pid);
            k.prefault(USER_BASE, 4).unwrap();
            k.signal_roundtrip(USER_BASE).unwrap();
            let c0 = k.machine.cycles;
            for _ in 0..10 {
                k.signal_roundtrip(USER_BASE).unwrap();
            }
            k.machine.cycles - c0
        };
        assert!(run(KernelConfig::unoptimized()) > 2 * run(KernelConfig::optimized()));
    }
}
