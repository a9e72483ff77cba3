//! Criterion micro-benchmarks for each MMU mechanism: regression guards for
//! the simulator's own hot paths (these measure *host* time, not simulated
//! time — simulated cycle counts are the `repro` binary's job).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use kernel_sim::sched::USER_BASE;
use kernel_sim::{Kernel, KernelConfig};
use ppc_machine::MachineConfig;
use ppc_mmu::addr::{EffectiveAddress, Vsid, PAGE_SIZE};
use ppc_mmu::htab::HashTable;
use ppc_mmu::pte::Pte;
use ppc_mmu::tlb::{Tlb, TlbConfig, TlbEntry};

fn pte(vsid: u32, pi: u32) -> Pte {
    Pte {
        valid: true,
        vsid: Vsid::new(vsid),
        secondary: false,
        page_index: pi,
        rpn: pi + 0x300,
        referenced: false,
        changed: false,
        cache_inhibited: false,
        pp: 2,
    }
}

fn bench_htab(c: &mut Criterion) {
    let mut g = c.benchmark_group("htab");
    g.bench_function("search_hit", |b| {
        let mut h = HashTable::new(2048, 0);
        for pi in 0..1024 {
            h.insert(pte(7, pi));
        }
        let mut pi = 0u32;
        b.iter(|| {
            pi = (pi + 1) % 1024;
            black_box(h.search(Vsid::new(7), pi))
        });
    });
    g.bench_function("search_miss", |b| {
        let mut h = HashTable::new(2048, 0);
        b.iter(|| black_box(h.search(Vsid::new(9), 0x123)));
    });
    g.bench_function("insert_evict", |b| {
        let mut h = HashTable::new(64, 0);
        let mut pi = 0u32;
        b.iter(|| {
            pi = pi.wrapping_add(1) & 0xffff;
            black_box(h.insert(pte(3, pi)))
        });
    });
    g.bench_function("reclaim_sweep", |b| {
        let mut h = HashTable::new(2048, 0);
        for pi in 0..8192 {
            h.insert(pte(5, pi % 0x10000));
        }
        b.iter(|| black_box(h.reclaim_zombies(64, |_| true)));
    });
    g.finish();
}

fn bench_tlb(c: &mut Criterion) {
    let mut g = c.benchmark_group("tlb");
    g.bench_function("lookup_hit", |b| {
        let mut t = Tlb::new(TlbConfig::ppc604_side());
        for pi in 0..128 {
            t.insert(TlbEntry {
                vsid: Vsid::new(1),
                page_index: pi,
                rpn: pi,
                cached: true,
                writable: true,
            });
        }
        let mut pi = 0u32;
        b.iter(|| {
            pi = (pi + 1) % 128;
            let hit = t.peek(Vsid::new(1), pi);
            if let Some((idx, _)) = hit {
                t.commit_hit(idx);
            }
            black_box(hit)
        });
    });
    g.bench_function("miss_and_reload", |b| {
        let mut t = Tlb::new(TlbConfig::ppc603_side());
        let mut pi = 0u32;
        b.iter(|| {
            pi = pi.wrapping_add(1) & 0xffff;
            if let Some((idx, _)) = t.peek(Vsid::new(1), pi) {
                t.commit_hit(idx);
            } else {
                t.count_miss();
                t.insert(TlbEntry {
                    vsid: Vsid::new(1),
                    page_index: pi,
                    rpn: pi,
                    cached: true,
                    writable: true,
                });
            }
        });
    });
    g.finish();
}

fn bench_kernel_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("kernel");
    g.sample_size(20);
    g.bench_function("null_syscall", |b| {
        let mut k = Kernel::boot(MachineConfig::ppc604_185(), KernelConfig::optimized());
        let pid = k.spawn_process(4).unwrap();
        k.switch_to(pid);
        k.prefault(USER_BASE, 4).unwrap();
        b.iter(|| k.sys_null());
    });
    g.bench_function("warm_data_ref", |b| {
        let mut k = Kernel::boot(MachineConfig::ppc604_185(), KernelConfig::optimized());
        let pid = k.spawn_process(4).unwrap();
        k.switch_to(pid);
        k.prefault(USER_BASE, 4).unwrap();
        b.iter(|| k.data_ref(EffectiveAddress(USER_BASE), false).unwrap());
    });
    g.bench_function("fault_and_unmap_page", |b| {
        let mut k = Kernel::boot(MachineConfig::ppc604_185(), KernelConfig::optimized());
        let pid = k.spawn_process(4).unwrap();
        k.switch_to(pid);
        b.iter(|| {
            let addr = k.sys_mmap(None, PAGE_SIZE);
            k.data_ref(EffectiveAddress(addr), true).unwrap();
            k.sys_munmap(addr, PAGE_SIZE);
        });
    });
    g.bench_function("context_switch_pair", |b| {
        let mut k = Kernel::boot(MachineConfig::ppc604_185(), KernelConfig::optimized());
        let a = k.spawn_process(4).unwrap();
        let z = k.spawn_process(4).unwrap();
        k.switch_to(a);
        b.iter(|| {
            k.switch_to(z);
            k.switch_to(a);
        });
    });
    g.bench_function("pipe_4k_round_trip", |b| {
        let mut k = Kernel::boot(MachineConfig::ppc604_185(), KernelConfig::optimized());
        let pid = k.spawn_process(8).unwrap();
        k.switch_to(pid);
        k.prefault(USER_BASE, 4).unwrap();
        let p = k.pipe_create().unwrap();
        b.iter(|| {
            k.pipe_write(p, USER_BASE, PAGE_SIZE).unwrap();
            k.pipe_read(p, USER_BASE, PAGE_SIZE).unwrap();
        });
    });
    g.bench_function("idle_quantum", |b| {
        let mut k = Kernel::boot(MachineConfig::ppc604_185(), KernelConfig::optimized());
        let pid = k.spawn_process(4).unwrap();
        k.switch_to(pid);
        b.iter(|| k.run_idle(10_000));
    });
    g.finish();
}

fn bench_process_and_signals(c: &mut Criterion) {
    let mut g = c.benchmark_group("process");
    g.sample_size(20);
    g.bench_function("fork_exit", |b| {
        let mut k = Kernel::boot(MachineConfig::ppc604_185(), KernelConfig::optimized());
        let parent = k.spawn_process(16).unwrap();
        k.switch_to(parent);
        k.prefault(USER_BASE, 16).unwrap();
        b.iter(|| {
            let child = k.sys_fork().expect("fork");
            k.switch_to(child);
            k.exit_current();
            k.switch_to(parent);
        });
    });
    g.bench_function("cow_break", |b| {
        let mut k = Kernel::boot(MachineConfig::ppc604_185(), KernelConfig::optimized());
        let parent = k.spawn_process(16).unwrap();
        k.switch_to(parent);
        k.prefault(USER_BASE, 16).unwrap();
        let mut page = 0u32;
        b.iter(|| {
            // Re-fork periodically so there is always a COW page to break.
            if page.is_multiple_of(16) {
                let child = k.sys_fork().expect("fork");
                k.switch_to(child);
                k.exit_current();
                k.switch_to(parent);
            }
            k.data_ref(EffectiveAddress(USER_BASE + (page % 16) * PAGE_SIZE), true)
                .unwrap();
            page += 1;
        });
    });
    g.bench_function("signal_roundtrip", |b| {
        let mut k = Kernel::boot(MachineConfig::ppc604_185(), KernelConfig::optimized());
        let pid = k.spawn_process(8).unwrap();
        k.switch_to(pid);
        k.prefault(USER_BASE, 4).unwrap();
        k.sys_signal_install();
        b.iter(|| k.signal_roundtrip(USER_BASE).unwrap());
    });
    g.bench_function("multiuser_round", |b| {
        use lmbench::multiuser::{classic_mix, run_multiuser};
        b.iter(|| {
            let mut k = Kernel::boot(MachineConfig::ppc604_133(), KernelConfig::optimized());
            run_multiuser(&mut k, &classic_mix(), 1)
        });
    });
    g.finish();
}

fn bench_memory_hierarchy(c: &mut Criterion) {
    let mut g = c.benchmark_group("memhier");
    g.sample_size(10);
    for kb in [8u32, 128, 2048] {
        g.bench_function(format!("lat_mem_rd/{kb}K"), |b| {
            b.iter(|| {
                let mut k = Kernel::boot(MachineConfig::ppc604_185(), KernelConfig::optimized());
                lmbench::mem::read_latency_ns(&mut k, kb)
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_htab,
    bench_tlb,
    bench_kernel_paths,
    bench_process_and_signals,
    bench_memory_hierarchy
);
criterion_main!(benches);
