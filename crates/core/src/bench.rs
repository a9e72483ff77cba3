//! The benchmark-regression baseline behind `repro bench --json`.
//!
//! Three deterministic headline workloads, each reduced to the counters a
//! reviewer would watch for a performance regression:
//!
//! * `compile` — the paper's kernel-compile benchmark on the optimized
//!   604/133 kernel: total cycles plus TLB/cache miss counts and rates;
//! * `fault_storm` — the E-PRESSURE run (seed 42): cycles, survivors, and
//!   the fault ledger;
//! * `trace_ref` — the reference workload with tracing and the PMU both
//!   off. Its cycle count must equal the traced run's
//!   ([`trace_artifacts`]) *and* any counting-PMU run's — this is the
//!   PMU-off/trace-off identity the gates pin.
//!
//! The emitted JSON (`mmu-tricks-bench-v1`) is integer-only and
//! byte-reproducible; `ARTIFACTS.lock` pins its digest, like every other
//! artifact's.
//!
//! [`trace_artifacts`]: crate::experiments::trace_artifacts

use kernel_sim::{Kernel, KernelConfig, KernelStats};
use ppc_machine::MachineConfig;

use crate::artifact::Json;
use crate::experiments::artifacts::reference_workload;
use crate::experiments::pressure::{run_pressure, PressureRun};
use crate::Depth;

/// Headline counters for the compile workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileHeadline {
    /// Cycles spent in the compile (workload window, boot excluded).
    pub cycles: u64,
    /// Instruction-TLB misses.
    pub itlb_misses: u64,
    /// Data-TLB misses.
    pub dtlb_misses: u64,
    /// Instruction-cache misses.
    pub icache_misses: u64,
    /// Data-cache misses.
    pub dcache_misses: u64,
    /// TLB reloads the kernel serviced.
    pub tlb_reloads: u64,
    /// Real page faults.
    pub page_faults: u64,
    /// Hash-table hit rate on reloads, in ppm.
    pub htab_hit_ppm: u64,
    /// ITLB miss rate (misses/lookups), in ppm.
    pub itlb_miss_ppm: u64,
    /// DTLB miss rate, in ppm.
    pub dtlb_miss_ppm: u64,
    /// I-cache miss rate (misses/accesses), in ppm.
    pub icache_miss_ppm: u64,
    /// D-cache miss rate, in ppm.
    pub dcache_miss_ppm: u64,
}

/// The whole baseline: one struct per workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchBaseline {
    /// `quick` or `full`.
    pub depth: &'static str,
    /// Machine slug the baseline was recorded on ([`MachineConfig::id`]);
    /// `repro diff` refuses baselines from different machines.
    pub machine: String,
    /// Optimization-toggle summary ([`KernelConfig::summary`]) of the
    /// measured kernel — the axis a diff is allowed to cross.
    pub config: String,
    /// Compile headline.
    pub compile: CompileHeadline,
    /// Fault-storm result (seed 42).
    pub storm: PressureRun,
    /// Reference-workload total cycles with tracing and PMU off (must match
    /// the traced total exactly).
    pub trace_ref_cycles: u64,
    /// TLB reloads of the reference run.
    pub trace_ref_reloads: u64,
    /// Page faults of the reference run.
    pub trace_ref_faults: u64,
}

fn ppm(part: u64, whole: u64) -> u64 {
    (part * 1_000_000).checked_div(whole).unwrap_or(0)
}

fn run_compile(depth: Depth) -> CompileHeadline {
    let mut k = Kernel::boot(MachineConfig::ppc604_133(), KernelConfig::optimized());
    let snap0 = k.machine.snapshot();
    let stats0 = k.stats;
    lmbench::compile::kernel_compile(&mut k, depth.compile());
    let d = k.machine.snapshot().delta(&snap0);
    let s: KernelStats = k.stats.delta(&stats0);
    CompileHeadline {
        cycles: d.cycles,
        itlb_misses: d.itlb.misses,
        dtlb_misses: d.dtlb.misses,
        icache_misses: d.icache.misses,
        dcache_misses: d.dcache.misses,
        tlb_reloads: s.tlb_reloads,
        page_faults: s.page_faults,
        htab_hit_ppm: ppm(s.htab_hits, s.htab_hits + s.htab_misses),
        itlb_miss_ppm: ppm(d.itlb.misses, d.itlb.lookups),
        dtlb_miss_ppm: ppm(d.dtlb.misses, d.dtlb.lookups),
        icache_miss_ppm: ppm(d.icache.misses, d.icache.accesses),
        dcache_miss_ppm: ppm(d.dcache.misses, d.dcache.accesses),
    }
}

/// Runs all three workloads and packages the baseline.
pub fn bench_baseline(depth: Depth) -> BenchBaseline {
    let compile = run_compile(depth);
    let hogs = match depth {
        Depth::Quick => 10,
        Depth::Full => 24,
    };
    let storm = run_pressure(42, hogs);
    let mut k = Kernel::boot(MachineConfig::ppc604_133(), KernelConfig::optimized());
    reference_workload(&mut k, depth);
    BenchBaseline {
        depth: depth.name(),
        machine: MachineConfig::ppc604_133().id(),
        config: KernelConfig::optimized().summary(),
        compile,
        storm,
        trace_ref_cycles: k.machine.cycles,
        trace_ref_reloads: k.stats.tlb_reloads,
        trace_ref_faults: k.stats.page_faults,
    }
}

impl BenchBaseline {
    /// The `mmu-tricks-bench-v1` artifact.
    pub fn to_json(&self) -> Json {
        let c = &self.compile;
        let s = &self.storm.stats;
        let compile = Json::object()
            .field("cycles", c.cycles)
            .field("itlb_misses", c.itlb_misses)
            .field("dtlb_misses", c.dtlb_misses)
            .field("icache_misses", c.icache_misses)
            .field("dcache_misses", c.dcache_misses)
            .field("tlb_reloads", c.tlb_reloads)
            .field("page_faults", c.page_faults)
            .field("htab_hit_ppm", c.htab_hit_ppm)
            .field("itlb_miss_ppm", c.itlb_miss_ppm)
            .field("dtlb_miss_ppm", c.dtlb_miss_ppm)
            .field("icache_miss_ppm", c.icache_miss_ppm)
            .field("dcache_miss_ppm", c.dcache_miss_ppm);
        let storm = Json::object()
            .field("cycles", self.storm.cycles)
            .field("survivors", self.storm.survivors)
            .field("sigsegvs", s.sigsegvs)
            .field("sigbus", s.sigbus)
            .field("oom_kills", s.oom_kills)
            .field("reclaimed_pages", s.reclaimed_pages)
            .field("injected_faults", s.injected_faults)
            .field("tlb_reloads", s.tlb_reloads);
        let trace_ref = Json::object()
            .field("cycles", self.trace_ref_cycles)
            .field("tlb_reloads", self.trace_ref_reloads)
            .field("page_faults", self.trace_ref_faults);
        Json::object()
            .field("schema", "mmu-tricks-bench-v1")
            .field("depth", self.depth)
            .field("machine", &self.machine)
            .field("config", &self.config)
            .field(
                "workloads",
                Json::object()
                    .field("compile", compile)
                    .field("fault_storm", storm)
                    .field("trace_ref", trace_ref),
            )
    }
}

/// `repro bench --json` body: runs the baseline and writes the artifact.
pub fn bench_report(depth: Depth) -> String {
    bench_baseline(depth).to_json().write()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::trace_artifacts;

    #[test]
    fn baseline_is_deterministic() {
        let a = bench_baseline(Depth::Quick);
        let b = bench_baseline(Depth::Quick);
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn headline_counters_are_live() {
        let b = bench_baseline(Depth::Quick);
        assert!(b.compile.cycles > 0);
        // ITLB misses are legitimately zero here: the optimized kernel's
        // instruction fetches hit the IBATs (§5.1).
        assert!(b.compile.dtlb_misses > 0);
        assert!(b.compile.htab_hit_ppm > 500_000, "optimized htab mostly hits");
        assert!(b.compile.dtlb_miss_ppm < 1_000_000);
        assert!(b.storm.stats.oom_kills > 0);
        assert!(b.trace_ref_cycles > b.compile.cycles, "ref includes boot+coda");
    }

    #[test]
    fn json_shape_is_valid_and_complete() {
        let j = bench_report(Depth::Quick);
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        for key in [
            "\"schema\": \"mmu-tricks-bench-v1\"",
            "\"machine\": \"604-133\"",
            "\"config\": \"bats=1",
            "\"compile\"",
            "\"fault_storm\"",
            "\"trace_ref\"",
            "\"cycles\"",
            "\"htab_hit_ppm\"",
            "\"oom_kills\"",
        ] {
            assert!(j.contains(key), "bench json missing {key}");
        }
    }

    #[test]
    fn trace_ref_matches_the_traced_run_exactly() {
        // The PMU-off/trace-off identity: the untraced bench reference and
        // the traced artifacts run count identical cycles.
        let b = bench_baseline(Depth::Quick);
        let (art, _) = trace_artifacts(Depth::Quick);
        assert_eq!(b.trace_ref_cycles, art.total_cycles);
    }
}
