//! Criterion micro-benchmarks for the simulator's host hot paths, one group
//! per layer (translate, cache, charge, trace_write) plus the fused versus
//! layered reference paths — the per-call companions to the whole-workload
//! figures of the repository benchmark (`perfbench`, see `BENCHMARK.json`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use kernel_sim::sched::USER_BASE;
use kernel_sim::trace::{TraceEvent, TraceRecord, TraceRing};
use kernel_sim::{Kernel, KernelConfig};
use ppc_cache::hierarchy::{MemSystem, MemSystemConfig};
use ppc_machine::{Machine, MachineConfig};
use ppc_mmu::addr::{EffectiveAddress, Vsid};
use ppc_mmu::htab::HashTable;
use ppc_mmu::pte::Pte;
use ppc_mmu::tlb::TlbEntry;
use ppc_mmu::translate::AccessType;

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

/// translate: the full `Mmu::translate` path (segments → BAT → TLB), the
/// htab insert, and the htab rehash — the paths behind every memory
/// reference and every reload.
fn bench_translate(c: &mut Criterion) {
    let mut g = c.benchmark_group("translate");
    g.bench_function("mmu_tlb_hit", |b| {
        let mut m = Machine::new(MachineConfig::ppc604_133());
        for pi in 0..64 {
            m.mmu.reload(
                AccessType::DataRead,
                TlbEntry {
                    vsid: Vsid::new(0),
                    page_index: pi,
                    rpn: pi,
                    cached: true,
                    writable: true,
                },
            );
        }
        let mut pi = 0u32;
        b.iter(|| {
            pi = (pi + 1) % 64;
            black_box(
                m.mmu
                    .translate(EffectiveAddress(pi << 12), AccessType::DataRead),
            )
        });
    });
    g.bench_function("mmu_tlb_miss", |b| {
        let mut m = Machine::new(MachineConfig::ppc604_133());
        let mut pi = 0u32;
        b.iter(|| {
            pi = pi.wrapping_add(1) & 0xffff;
            black_box(
                m.mmu
                    .translate(EffectiveAddress(pi << 12), AccessType::DataRead),
            )
        });
    });
    g.bench_function("htab_insert", |b| {
        let mut h = HashTable::new(2048, 0);
        let mut pi = 0u32;
        b.iter(|| {
            pi = pi.wrapping_add(1) & 0xffff;
            black_box(h.insert(pte(3, pi)))
        });
    });
    g.sample_size(20);
    g.bench_function("htab_rehash_2048_4096", |b| {
        let mut h = HashTable::new(2048, 0);
        for pi in 0..4096 {
            h.insert(pte(5, pi));
        }
        let mut up = true;
        b.iter(|| {
            let target = if up { 4096 } else { 2048 };
            up = !up;
            black_box(h.resize(target))
        });
    });
    g.finish();
}

/// cache: the `MemSystem` read path, hit and miss — under every simulated
/// data reference that misses the fused path.
fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache");
    g.bench_function("data_read_hit", |b| {
        let mut mem = MemSystem::new(MemSystemConfig::ppc604());
        mem.data_read(0x4000, true);
        b.iter(|| black_box(mem.data_read(0x4000, true)));
    });
    g.bench_function("data_read_streaming_miss", |b| {
        let mut mem = MemSystem::new(MemSystemConfig::ppc604());
        let mut pa = 0u32;
        b.iter(|| {
            // Stride past the line size so most accesses miss and evict.
            pa = pa.wrapping_add(4096);
            black_box(mem.data_read(pa, true))
        });
    });
    g.finish();
}

/// charge: the cycle-ledger add — trivial work, but called once per priced
/// event, so any per-call overhead shows up here first.
fn bench_charge(c: &mut Criterion) {
    let mut g = c.benchmark_group("charge");
    g.bench_function("charge_1", |b| {
        let mut m = Machine::new(MachineConfig::ppc604_133());
        b.iter(|| {
            m.charge(1);
            black_box(m.cycles)
        });
    });
    g.finish();
}

/// trace_write: one ring push, steady state (ring full, overwriting).
fn bench_trace_write(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace_write");
    g.bench_function("ring_push", |b| {
        let mut ring = TraceRing::new(4096);
        let mut cycle = 0u64;
        b.iter(|| {
            cycle += 1;
            ring.push(TraceRecord {
                cycle,
                pid: 1,
                event: TraceEvent::TlbMiss {
                    ea: cycle as u32,
                    kernel: false,
                },
            });
            black_box(ring.len())
        });
    });
    g.finish();
}

/// fused_hot_paths: the common-case memory reference — a resident load and
/// a resident straight-line fetch — served by the fused single-function
/// fast path versus the layered translate→charge→cache path (DESIGN.md
/// §16). Both variants simulate identical cycles and counters; the host-ns
/// ratio between the `_fused` and `_layered` rows is what the fused path
/// buys per reference.
fn bench_fused_hot_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("fused_hot_paths");
    let boot = |fused: bool| {
        let mut cfg = KernelConfig::optimized();
        cfg.fused = fused;
        let mut k = Kernel::boot(MachineConfig::ppc604_133(), cfg);
        let pid = k.spawn_process(8).unwrap();
        k.switch_to(pid);
        k.prefault(USER_BASE, 8).unwrap();
        // Warm the TLB and both caches so the loop measures pure hits.
        for i in 0..64 {
            let ea = EffectiveAddress(USER_BASE + i * 32);
            k.data_ref(ea, false).unwrap();
            k.exec_code(ea, 8).unwrap();
        }
        k
    };
    // Stride cache lines *within* one page: page-stride addresses all land
    // in cache set 0 and would measure the miss path instead of the hit.
    for (name, fused) in [("data_ref_fused", true), ("data_ref_layered", false)] {
        g.bench_function(name, |b| {
            let mut k = boot(fused);
            let mut i = 0u32;
            b.iter(|| {
                i = (i + 1) % 64;
                black_box(k.data_ref(EffectiveAddress(USER_BASE + i * 32), false).unwrap())
            });
        });
    }
    for (name, fused) in [("exec_code_fused", true), ("exec_code_layered", false)] {
        g.bench_function(name, |b| {
            let mut k = boot(fused);
            let mut i = 0u32;
            b.iter(|| {
                i = (i + 1) % 64;
                black_box(k.exec_code(EffectiveAddress(USER_BASE + i * 32), 8).unwrap())
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_translate,
    bench_cache,
    bench_charge,
    bench_fused_hot_paths,
    bench_trace_write
);
criterion_main!(benches);
