//! The title optimization: watch the idle task reclaim zombie hash-table
//! entries (paper §7).
//!
//! Two identical kernels run the same mmap-churn workload; one lets the idle
//! task scan the hash table for zombie PTEs. The printout shows the table
//! filling with zombies, the evict ratio exploding without reclaim, and the
//! reclaim keeping the table healthy.
//!
//! ```text
//! cargo run --release --example idle_reclaim
//! ```

use kernel_sim::{Kernel, KernelConfig};
use ppc_machine::MachineConfig;
use ppc_mmu::addr::PAGE_SIZE;

fn run(idle_reclaim: bool) {
    println!(
        "--- idle reclaim {} ---",
        if idle_reclaim { "ON " } else { "OFF" }
    );
    let kcfg = KernelConfig {
        idle_reclaim,
        ..KernelConfig::optimized()
    };
    let mut k = Kernel::boot(MachineConfig::ppc604_133(), kcfg);
    let pids: Vec<_> = (0..4).map(|_| k.spawn_process(64).unwrap()).collect();
    for &pid in &pids {
        k.switch_to(pid);
        k.prefault(kernel_sim::sched::USER_BASE, 64)
            .expect("working set fits in memory");
    }
    println!("round  valid  zombies  evict-ratio  reclaimed");
    for round in 0..12 {
        for &pid in &pids {
            k.switch_to(pid);
            // Map, touch and unmap a large region: the lazy flush retires
            // the whole context, turning its hash-table entries into
            // zombies.
            let addr = k.sys_mmap(None, 320 * PAGE_SIZE);
            k.prefault(addr, 320)
                .expect("scratch region fits in memory");
            k.sys_munmap(addr, 320 * PAGE_SIZE);
            // Re-touch the live working set so its entries keep mattering.
            k.user_read(kernel_sim::sched::USER_BASE, 64 * PAGE_SIZE)
                .expect("in-VMA read");
            // The I/O wait in which the idle task runs.
            k.run_idle(200_000);
        }
        let valid = k.htab.valid_entries();
        let live = k.htab.live_entries(|v| k.vsids.is_live(v));
        println!(
            "{:>5}  {:>5}  {:>7}  {:>10.0}%  {:>9}",
            round,
            valid,
            valid - live,
            k.htab.stats().evict_ratio() * 100.0,
            k.htab.stats().zombies_reclaimed,
        );
    }
    println!(
        "final hash-table occupancy {:.0}% of {} slots\n",
        k.htab.occupancy() * 100.0,
        k.htab.capacity()
    );
}

fn main() {
    println!("Idle-task zombie reclamation (paper 7)\n");
    run(false);
    run(true);
    println!("Without reclaim the valid bits never clear: the table silts up");
    println!("with zombies and every reload must evict. With the idle task");
    println!("scanning, reloads find empty slots (paper: evict ratio >90% -> 30%).");
}
