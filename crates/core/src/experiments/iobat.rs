//! The §5.1 frame-buffer BAT idea, implemented and measured.
//!
//! "We have considered having the kernel dedicate a BAT mapping to the frame
//! buffer itself so programs such as X do not compete constantly with other
//! applications or the kernel for TLB space." The paper also reports that
//! BAT-mapping I/O space did *not* help their benchmarks, because "the
//! applications we examined rarely accessed a large number of I/O addresses
//! in a short time".
//!
//! Both halves are reproducible: an X-server-like blitter that sprays the
//! 4 MiB frame buffer steals TLB entries from a compute process unless the
//! aperture is BAT-mapped; a light I/O workload shows no effect.

use kernel_sim::layout::IO_VIRT_BASE;
use kernel_sim::sched::USER_BASE;
use kernel_sim::{Kernel, KernelConfig};
use lmbench::access::WorkingSet;
use ppc_machine::MachineConfig;
use ppc_mmu::addr::{EffectiveAddress, PAGE_SIZE};

use crate::tables::Table;
use crate::Depth;

/// Result of the frame-buffer BAT experiment.
#[derive(Debug, Clone, Copy)]
pub struct IoBatResult {
    /// Compute process TLB misses, heavy blitter, PTE-mapped I/O.
    pub heavy_misses_pte: u64,
    /// Compute process TLB misses, heavy blitter, BAT-mapped I/O.
    pub heavy_misses_bat: u64,
    /// Compute wall (µs), heavy blitter, PTE-mapped I/O.
    pub heavy_us_pte: f64,
    /// Compute wall (µs), heavy blitter, BAT-mapped I/O.
    pub heavy_us_bat: f64,
    /// Compute TLB misses, light I/O, PTE-mapped.
    pub light_misses_pte: u64,
    /// Compute TLB misses, light I/O, BAT-mapped.
    pub light_misses_bat: u64,
}

fn run(io_bat: bool, blit_pages: u32, rounds: u32) -> (u64, f64) {
    let kcfg = KernelConfig {
        io_bat,
        ..KernelConfig::optimized()
    };
    let mut k = Kernel::boot(MachineConfig::ppc604_133(), kcfg);
    // The X server: blits across the frame buffer every round.
    let x = k.spawn_process(16).unwrap();
    // The compute process whose TLB suffers.
    let c = k.spawn_process(64).unwrap();
    k.switch_to(c);
    k.prefault(USER_BASE, 64)
        .expect("experiment workload is well-formed");
    let mut ws = WorkingSet::new(USER_BASE, 64, 11);
    // Warm round.
    k.switch_to(x);
    for p in 0..blit_pages {
        k.data_ref(EffectiveAddress(IO_VIRT_BASE + p * PAGE_SIZE), true)
            .expect("experiment workload is well-formed");
    }
    let mut compute_cycles = 0u64;
    let m0 = k.machine.snapshot();
    let mut miss0 = 0;
    for _ in 0..rounds {
        // X draws a frame: one store per frame-buffer page touched.
        k.switch_to(x);
        for p in 0..blit_pages {
            k.data_ref(EffectiveAddress(IO_VIRT_BASE + p * PAGE_SIZE), true)
                .expect("experiment workload is well-formed");
        }
        // The compute process runs its working set.
        k.switch_to(c);
        let snap = k.machine.snapshot();
        let c0 = k.machine.cycles;
        ws.run(&mut k, 2_000, 0.3, 1);
        compute_cycles += k.machine.cycles - c0;
        miss0 += k.machine.snapshot().delta(&snap).tlb_misses();
    }
    let _ = m0;
    (miss0, k.time_us(compute_cycles))
}

/// Runs the §5.1 frame-buffer experiment: heavy (X-like) and light I/O
/// interleavings, with the aperture PTE-mapped vs BAT-mapped.
pub fn exp_io_bat(depth: Depth) -> (IoBatResult, Table) {
    let rounds = match depth {
        Depth::Quick => 12,
        Depth::Full => 40,
    };
    let (heavy_misses_pte, heavy_us_pte) = run(false, 512, rounds);
    let (heavy_misses_bat, heavy_us_bat) = run(true, 512, rounds);
    let (light_misses_pte, _) = run(false, 4, rounds);
    let (light_misses_bat, _) = run(true, 4, rounds);
    let r = IoBatResult {
        heavy_misses_pte,
        heavy_misses_bat,
        heavy_us_pte,
        heavy_us_bat,
        light_misses_pte,
        light_misses_bat,
    };
    let mut t = Table::new(
        "Frame-buffer BAT (5.1's unevaluated idea): X-like blitter vs compute TLB",
        vec![
            "I/O load".into(),
            "metric".into(),
            "PTE-mapped I/O".into(),
            "BAT-mapped I/O".into(),
        ],
    );
    t.push_row(vec![
        "heavy (2 MiB blits)".into(),
        "compute TLB misses".into(),
        format!("{}", r.heavy_misses_pte),
        format!("{}", r.heavy_misses_bat),
    ]);
    t.push_row(vec![
        "heavy (2 MiB blits)".into(),
        "compute time".into(),
        format!("{:.0}us", r.heavy_us_pte),
        format!("{:.0}us", r.heavy_us_bat),
    ]);
    t.push_row(vec![
        "light (16 KiB)".into(),
        "compute TLB misses".into(),
        format!("{}", r.light_misses_pte),
        format!("{}", r.light_misses_bat),
    ]);
    (r, t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heavy_blitting_competes_for_tlb_without_the_bat() {
        let (r, _) = exp_io_bat(Depth::Quick);
        assert!(
            r.heavy_misses_pte > r.heavy_misses_bat,
            "PTE-mapped fb must cost the compute process TLB misses ({} vs {})",
            r.heavy_misses_pte,
            r.heavy_misses_bat
        );
        // The paper's negative result: with light I/O the BAT buys ~nothing.
        let diff = r.light_misses_pte.abs_diff(r.light_misses_bat);
        assert!(
            diff * 20 <= r.light_misses_pte.max(1),
            "light I/O should show no meaningful difference ({} vs {})",
            r.light_misses_pte,
            r.light_misses_bat
        );
    }
}
