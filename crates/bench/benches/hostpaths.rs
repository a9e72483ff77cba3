//! Criterion micro-benchmarks for the simulator's host hot paths, one group
//! per layer (translate, cache, charge, trace_write) plus the kernel's
//! reference paths and what armed observers add to a TLB reload —
//! the per-call companions to the whole-workload figures of the repository
//! benchmark (`perfbench`, see `BENCHMARK.json`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use kernel_sim::check::CheckConfig;
use kernel_sim::kconfig::PmuConfig;
use kernel_sim::sched::USER_BASE;
use kernel_sim::tail::TailConfig;
use kernel_sim::telemetry::TelemetryConfig;
use kernel_sim::trace::{TraceEvent, TraceRecord, TraceRing};
use kernel_sim::{Kernel, KernelConfig};
use ppc_cache::hierarchy::{MemSystem, MemSystemConfig};
use ppc_cache::AccessKind;
use ppc_machine::pmu::PmcEvent;
use ppc_machine::{Machine, MachineConfig};
use ppc_mmu::addr::{EffectiveAddress, Vsid, PAGE_SIZE};
use ppc_mmu::htab::{HashTable, PTE_BYTES};
use ppc_mmu::pte::Pte;
use ppc_mmu::tlb::TlbEntry;
use ppc_mmu::translate::AccessType;
use ppc_mmu::{Tlb, TlbConfig};

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
/// bare TLB probe, the htab insert, and the htab rehash — the paths behind
/// every memory reference and every reload.
fn bench_translate(c: &mut Criterion) {
    let mut g = c.benchmark_group("translate");
    g.bench_function("tlb_peek", |b| {
        // Every way of every set valid; the probes alternate ways.
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
            // Read the fields a reference reads, rather than spill the
            // whole entry.
            black_box(t.peek(Vsid::new(1), pi).map(|(i, e)| (i, e.rpn, e.cached)))
        });
    });
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
                    .translate::<false>(EffectiveAddress(pi << 12), AccessType::DataRead),
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
                    .translate::<false>(EffectiveAddress(pi << 12), AccessType::DataRead),
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
/// data reference — and the two word runs the
/// kernel charges most: a page clear (L2-resident on a 603, and spread over
/// RAM on a 604) and a hash-table probe.
fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache");
    g.bench_function("zero_page_stores_4k", |b| {
        // Eight pages cleared in turn: each clear evicts the dirty lines
        // the clear before it left, so every line fills and writes back
        // through the L2.
        let mut mem = MemSystem::new(MemSystemConfig::ppc603());
        for pa in (0..0x4000).step_by(32) {
            mem.data_write(pa, true);
        }
        let mut page = 0u32;
        b.iter(|| {
            page = (page + 1) % 8;
            black_box(mem.zero_page_stores(0x10_0000 + page * 4096, 4096))
        });
    });
    g.bench_function("zero_page_stores_spread", |b| {
        // `churn`'s hog case: frames spread over all 32 MiB of RAM, cleared
        // in turn on a 604 with its 512 KiB L2, so every line misses both
        // levels, the L1 writes back a dirty victim and the L2 fill writes
        // back its own. One lap warms the L2 with dirty lines first.
        let mut mem = MemSystem::new(MemSystemConfig::ppc604());
        let frames = 32 * 1024 * 1024 / 4096;
        for frame in 0..frames {
            mem.zero_page_stores(frame * 4096, 4096);
        }
        let mut frame = 0u32;
        b.iter(|| {
            frame = (frame + 1) % frames;
            black_box(mem.zero_page_stores(frame * 4096, 4096))
        });
    });
    g.bench_function("pteg_probe_miss", |b| {
        // Both PTEGs of an empty table: sixteen slot reads, charged through
        // the data cache as the kernel's reload does.
        let mut mem = MemSystem::new(MemSystemConfig::ppc604());
        let mut h = HashTable::new(2048, 0x20_0000);
        let mut pi = 0u32;
        b.iter(|| {
            pi = (pi + 1) & 0xffff;
            let mut cost = 0;
            h.search_with(Vsid::new(9), pi, |pa, slots| {
                cost += mem.data_run(pa, slots, PTE_BYTES, AccessKind::Read, true);
            });
            black_box(cost)
        });
    });
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

/// reference_paths: the common-case memory reference — a resident load and
/// a resident straight-line fetch through `Kernel::data_ref` and
/// `Kernel::exec_code`, whose first attempt completes without a miss
/// (DESIGN.md §16). `data_ref_audited` is the load with the consistency
/// checker armed, once the warm-up has audited and marked the translation
/// (DESIGN.md §12): what an audited hit costs over a plain one.
fn bench_reference_paths(c: &mut Criterion) {
    let mut g = c.benchmark_group("reference_paths");
    let boot = |check: bool| {
        let cfg = KernelConfig {
            check: check.then(CheckConfig::full),
            ..KernelConfig::optimized()
        };
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
    for (name, check) in [("data_ref", false), ("data_ref_audited", true)] {
        g.bench_function(name, |b| {
            let mut k = boot(check);
            let mut i = 0u32;
            b.iter(|| {
                i = (i + 1) % 64;
                black_box(
                    k.data_ref(EffectiveAddress(USER_BASE + i * 32), false)
                        .unwrap(),
                )
            });
        });
    }
    g.bench_function("exec_code", |b| {
        let mut k = boot(false);
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) % 64;
            black_box(
                k.exec_code(EffectiveAddress(USER_BASE + i * 32), 8)
                    .unwrap(),
            )
        });
    });
    g.finish();
}

/// observers: one `data_ref` that reloads its translation from the hash
/// table on every iteration (256 pages cycle through the 604's 128-entry
/// DTLB), on the optimized kernel bare and under the benchmark's
/// `compile_observed` observer set: trace, counting PMU, telemetry,
/// checker and tail. The reload opens and closes a Translate span and
/// audits its hash-table hit, so the row difference is what the armed
/// observers cost one reload.
fn bench_observers(c: &mut Criterion) {
    const PAGES: u32 = 256;
    let mut g = c.benchmark_group("observers");
    let observed = KernelConfig {
        trace: true,
        pmu: Some(PmuConfig::counting(
            PmcEvent::TlbMissBoth,
            PmcEvent::CacheMissBoth,
        )),
        telemetry: Some(TelemetryConfig::default_epochs()),
        check: Some(CheckConfig::full()),
        tail: Some(TailConfig::auto()),
        ..KernelConfig::optimized()
    };
    let rows = [
        ("tlb_reload_bare", KernelConfig::optimized()),
        ("tlb_reload_observed", observed),
    ];
    for (name, cfg) in rows {
        g.bench_function(name, |b| {
            let mut k = Kernel::boot(MachineConfig::ppc604_133(), cfg);
            let pid = k.spawn_process(PAGES).unwrap();
            k.switch_to(pid);
            k.prefault(USER_BASE, PAGES).unwrap();
            let mut i = 0u32;
            b.iter(|| {
                i = (i + 1) % PAGES;
                // A different line per page, so the data access itself
                // spreads over the cache sets.
                let ea = USER_BASE + i * PAGE_SIZE + (i % 128) * 32;
                black_box(k.data_ref(EffectiveAddress(ea), false).unwrap())
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
    bench_reference_paths,
    bench_observers,
    bench_trace_write
);
criterion_main!(benches);
