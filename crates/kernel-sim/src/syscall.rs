//! Syscall entry/exit and the memory-management syscalls.

use ppc_mmu::addr::{EffectiveAddress, PAGE_SIZE};

use crate::kernel::Kernel;
use crate::layout::KernelPath;
use crate::prof::Subsystem;
use crate::task::{Vma, VmaKind};
use crate::trace::TraceEvent;

impl Kernel {
    /// Syscall entry: exception entry, state save (style-dependent), and the
    /// dispatch half of the syscall path. Microkernel models add IPC hops.
    pub fn syscall_entry(&mut self) {
        self.stats.syscalls += 1;
        // The span covers only the entry half (and `syscall_exit` the exit
        // half), not the syscall body: bodies are attributed to their own
        // subsystems. A body-wide span would balance too, but it would move
        // the body's unbracketed cycles into `syscall` self-time.
        self.t_event(|| TraceEvent::Syscall);
        self.span(Subsystem::Syscall, |k| {
            let costs = k.machine.cfg.costs;
            k.machine.charge(costs.exception_entry);
            let insns = k.paths.syscall / 2;
            k.run_kernel_path(KernelPath::SyscallEntry, insns);
            // File-descriptor table / credentials live in slab memory.
            if let Some(cur) = k.current {
                let pid = k.tasks[cur].pid;
                k.kmeta_ref(0x8000 + pid * 7, false);
            }
            // Each IPC hop is another kernel crossing: entry + exit + a short
            // message-dispatch path (the Mach syscall-emulation round trip).
            for _ in 0..k.paths.ipc_hops {
                k.machine
                    .charge(costs.exception_entry + costs.exception_exit);
                let insns = k.paths.syscall / 2;
                k.run_kernel_path(KernelPath::SyscallEntry, insns);
            }
        });
    }

    /// Syscall exit: the return half of the path plus exception exit.
    pub fn syscall_exit(&mut self) {
        self.span(Subsystem::Syscall, |k| {
            let insns = k.paths.syscall / 2;
            k.run_kernel_path(KernelPath::SyscallEntry, insns);
            k.machine.charge(k.machine.cfg.costs.exception_exit);
        });
    }

    /// The null syscall (`getpid()`), LmBench's "Null syscall" row.
    pub fn sys_null(&mut self) {
        self.syscall_entry();
        // Read current->pid.
        let ts = self.cur().task_struct_pa();
        self.kdata_ref(ts, false);
        self.syscall_exit();
    }

    /// `mmap()`: maps `len` bytes (anonymous if `file` is `None`) into the
    /// current task at a fresh address. Returns the chosen address.
    pub fn sys_mmap(&mut self, file: Option<usize>, len: u32) -> u32 {
        assert!(
            len.is_multiple_of(PAGE_SIZE),
            "mmap length must be page-aligned"
        );
        self.syscall_entry();
        let insns = self.paths.mm_op;
        self.run_kernel_path(KernelPath::Mm, insns);
        let cur = self.current.expect("mmap with no current task");
        // Pick the address after the highest existing VMA below the stack.
        let addr = self.tasks[cur]
            .vmas
            .iter()
            .map(|v| v.end)
            .filter(|&e| e < crate::sched::STACK_BASE)
            .max()
            .unwrap_or(0x2000_0000)
            .max(0x2000_0000);
        let kind = match file {
            Some(f) => VmaKind::File { file: f, offset: 0 },
            None => VmaKind::Anon,
        };
        self.tasks[cur].insert_vma(Vma {
            start: addr,
            end: addr + len,
            kind,
        });
        // mmap itself is O(1) in pages: it only creates the VMA. Pages are
        // populated lazily by faults.
        self.syscall_exit();
        addr
    }

    /// `munmap()`: removes the mapping, tears down PTEs, and flushes the
    /// range — the operation whose latency the paper's §7 drives from
    /// 3240 µs down to 41 µs.
    pub fn sys_munmap(&mut self, start: u32, len: u32) {
        assert!(len.is_multiple_of(PAGE_SIZE) && start.is_multiple_of(PAGE_SIZE));
        self.syscall_entry();
        let insns = self.paths.mm_op;
        self.run_kernel_path(KernelPath::Mm, insns);
        let cur = self.current.expect("munmap with no current task");
        self.tasks[cur].remove_vmas_in(start, start + len);
        self.unmap_range(cur, start, start + len);
        // The TLB/hash-table flush — the §7 battleground.
        self.flush_range(cur, start, start + len);
        self.syscall_exit();
    }

    /// Tears down the populated PTEs of `[start, end)` in task `idx`,
    /// releasing anonymous frames (copy-on-write aware). Like Linux's
    /// `zap_page_range`, the walk skips a whole second-level table with a
    /// single PGD-entry read when nothing was ever mapped there.
    pub(crate) fn unmap_range(&mut self, idx: usize, start: u32, end: u32) {
        let pt = self.tasks[idx].pt;
        let cached = self.cfg.linux_pt_cached;
        let mut freed = Vec::new();
        let mut ea = start;
        while ea < end {
            let chunk_end = ((ea | 0x3f_ffff) + 1).min(end); // next 4 MiB boundary
            let pgd_entry_pa = pt.pgd_entry_pa(EffectiveAddress(ea));
            let c = self.machine.mem.data_read(pgd_entry_pa, cached);
            self.machine.charge(c + 2);
            let pgd_entry = self.phys.read_u32(pgd_entry_pa);
            if pgd_entry & crate::linuxpt::PTE_PRESENT == 0 {
                ea = chunk_end;
                continue;
            }
            while ea < chunk_end {
                let (walk, old) = pt.unmap(&mut self.phys, EffectiveAddress(ea));
                if let Some(pte_pa) = walk.pte_entry_pa {
                    let c = self.machine.mem.data_write(pte_pa, cached);
                    self.machine.charge(c);
                }
                if let Some(old_pte) = old {
                    // Anonymous frames (owned, listed in task.frames) go
                    // back to the allocator; page-cache frames stay in the
                    // cache but lose their mapping pin.
                    let task = &mut self.tasks[idx];
                    if let Some(pos) = task.frames.iter().position(|&(a, _)| a == ea) {
                        let (_, pa) = task.frames.swap_remove(pos);
                        freed.push(pa);
                        self.check_note_sched_change();
                    } else {
                        self.file_map_unref(old_pte.pfn() << 12);
                    }
                    self.machine.charge(self.paths.mm_per_page as u64);
                }
                ea += PAGE_SIZE;
            }
        }
        for pa in freed {
            self.release_user_frame(pa, true);
        }
    }

    /// Drops one mapping pin on a page-cache frame; when the count reaches
    /// zero the frame becomes evictable under memory pressure again.
    pub(crate) fn file_map_unref(&mut self, pa: u32) {
        if let Some(count) = self.file_map_refs.get_mut(&pa) {
            *count -= 1;
            if *count == 0 {
                self.file_map_refs.remove(&pa);
            }
        }
    }
}
