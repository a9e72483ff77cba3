//! The `repro perf` engine: record / report / annotate over PMU samples.
//!
//! This is the §4 measurement methodology turned into a tool: `record` runs
//! a workload with the 604 PMU sampling on cycles, captures the weighted
//! sample aggregates next to the exact profiler's ground truth from the
//! *same run*, and serializes everything into a `perf.data`-style text file.
//! `report` renders self-time tables from such a file, `annotate` draws
//! ASCII share bars, and the folded view exports Brendan Gregg's
//! collapsed-stack format for flamegraph tooling.
//!
//! The file format is line-based, deterministic and diff-friendly:
//!
//! ```text
//! # perf.data mmu-tricks-perf-v1
//! workload compile
//! depth quick
//! machine 604-133
//! config bats=1 io_bat=0 vsid=ctx*897 ...
//! period 4096
//! total_cycles 8123456
//! baseline_cycles 8000000
//! interrupts 1940
//! supervisor_weight 1102
//! user_weight 860
//! sub translate 410 3291002
//! pid 1 1204
//! fold pid1;translate;htab_insert 88
//! ```
//!
//! No timestamps, no floats, no hash-order iteration — recording the same
//! workload twice produces byte-identical files.

use kernel_sim::{FaultInjection, Kernel, KernelConfig, PmuConfig, Subsystem};
use ppc_machine::MachineConfig;

use crate::experiments::artifacts::reference_workload;
use crate::experiments::pressure::run_pressure_on;
use crate::tables::Table;
use crate::Depth;

/// File-format magic line.
pub const PERF_MAGIC: &str = "# perf.data mmu-tricks-perf-v1";

/// Workloads the recorder knows how to drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerfWorkload {
    /// The reference workload: kernel compile + signal coda + idle sweep
    /// (identical to the trace-artifacts and bench-baseline runs).
    Compile,
    /// The E-PRESSURE fault storm (seeded injector, OOM churn).
    Storm,
}

impl PerfWorkload {
    /// Stable name used in files and on the CLI.
    pub fn name(self) -> &'static str {
        match self {
            PerfWorkload::Compile => "compile",
            PerfWorkload::Storm => "storm",
        }
    }

    /// Parses a CLI/file name.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "compile" => Some(PerfWorkload::Compile),
            "storm" => Some(PerfWorkload::Storm),
            _ => None,
        }
    }
}

/// One recorded profile: the PMU sample aggregates plus the exact profiler's
/// per-subsystem cycles from the same run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfData {
    /// Workload name (`compile` or `storm`).
    pub workload: String,
    /// `quick` or `full`.
    pub depth: String,
    /// Machine slug the profile was recorded on (e.g. `604-133`).
    pub machine: String,
    /// Kernel optimization-toggle summary ([`KernelConfig::summary`]) of
    /// the recorded kernel.
    pub config: String,
    /// Sampling period in cycles.
    pub period: u32,
    /// Total cycles of the sampled run.
    pub total_cycles: u64,
    /// Total cycles of the same workload with the PMU off (so
    /// `total_cycles - baseline_cycles` is the sampling cost).
    pub baseline_cycles: u64,
    /// Sampling interrupts delivered.
    pub interrupts: u64,
    /// Weighted samples that hit supervisor state.
    pub supervisor_weight: u64,
    /// Weighted samples that hit user state.
    pub user_weight: u64,
    /// `(subsystem, sampled weight, exact self-cycles)` in
    /// [`Subsystem::ALL`] order — every subsystem, including zero rows.
    pub subsystems: Vec<(String, u64, u64)>,
    /// `(pid, sampled weight)`, ascending pid.
    pub pids: Vec<(u32, u64)>,
    /// `(collapsed stack, weight)`, sorted by key — flamegraph input.
    pub folded: Vec<(String, u64)>,
}

impl PerfData {
    /// Total weighted samples.
    pub fn total_weight(&self) -> u64 {
        self.subsystems.iter().map(|(_, w, _)| w).sum()
    }

    /// Cycles the sampling interrupts cost over the unsampled baseline.
    pub fn overhead_cycles(&self) -> u64 {
        self.total_cycles.saturating_sub(self.baseline_cycles)
    }

    /// Serializes to the deterministic `perf.data` text format.
    pub fn serialize(&self) -> String {
        let mut s = String::new();
        s.push_str(PERF_MAGIC);
        s.push('\n');
        s.push_str(&format!("workload {}\n", self.workload));
        s.push_str(&format!("depth {}\n", self.depth));
        s.push_str(&format!("machine {}\n", self.machine));
        s.push_str(&format!("config {}\n", self.config));
        s.push_str(&format!("period {}\n", self.period));
        s.push_str(&format!("total_cycles {}\n", self.total_cycles));
        s.push_str(&format!("baseline_cycles {}\n", self.baseline_cycles));
        s.push_str(&format!("interrupts {}\n", self.interrupts));
        s.push_str(&format!("supervisor_weight {}\n", self.supervisor_weight));
        s.push_str(&format!("user_weight {}\n", self.user_weight));
        for (name, weight, exact) in &self.subsystems {
            s.push_str(&format!("sub {name} {weight} {exact}\n"));
        }
        for (pid, weight) in &self.pids {
            s.push_str(&format!("pid {pid} {weight}\n"));
        }
        for (key, weight) in &self.folded {
            s.push_str(&format!("fold {key} {weight}\n"));
        }
        s
    }

    /// Parses a file produced by [`PerfData::serialize`].
    pub fn parse(text: &str) -> Result<PerfData, String> {
        let mut lines = text.lines();
        if lines.next().map(str::trim) != Some(PERF_MAGIC) {
            return Err(format!("not a perf.data file (expected `{PERF_MAGIC}`)"));
        }
        let mut d = PerfData {
            workload: String::new(),
            depth: String::new(),
            machine: String::new(),
            config: String::new(),
            period: 0,
            total_cycles: 0,
            baseline_cycles: 0,
            interrupts: 0,
            supervisor_weight: 0,
            user_weight: 0,
            subsystems: Vec::new(),
            pids: Vec::new(),
            folded: Vec::new(),
        };
        let num = |v: &str, line: &str| -> Result<u64, String> {
            v.parse::<u64>().map_err(|_| format!("bad number in `{line}`"))
        };
        for line in lines {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut f = line.split_whitespace();
            let key = f.next().unwrap_or("");
            let rest: Vec<&str> = f.collect();
            let one = || -> Result<&str, String> {
                rest.first()
                    .copied()
                    .ok_or_else(|| format!("missing value in `{line}`"))
            };
            match key {
                "workload" => d.workload = one()?.to_string(),
                "depth" => d.depth = one()?.to_string(),
                "machine" => d.machine = one()?.to_string(),
                // The config summary is a whole space-separated toggle list.
                "config" => d.config = rest.join(" "),
                "period" => d.period = num(one()?, line)? as u32,
                "total_cycles" => d.total_cycles = num(one()?, line)?,
                "baseline_cycles" => d.baseline_cycles = num(one()?, line)?,
                "interrupts" => d.interrupts = num(one()?, line)?,
                "supervisor_weight" => d.supervisor_weight = num(one()?, line)?,
                "user_weight" => d.user_weight = num(one()?, line)?,
                "sub" => {
                    if rest.len() != 3 {
                        return Err(format!("expected `sub name weight exact`: `{line}`"));
                    }
                    d.subsystems.push((
                        rest[0].to_string(),
                        num(rest[1], line)?,
                        num(rest[2], line)?,
                    ));
                }
                "pid" => {
                    if rest.len() != 2 {
                        return Err(format!("expected `pid n weight`: `{line}`"));
                    }
                    d.pids
                        .push((num(rest[0], line)? as u32, num(rest[1], line)?));
                }
                "fold" => {
                    if rest.len() != 2 {
                        return Err(format!("expected `fold key weight`: `{line}`"));
                    }
                    d.folded.push((rest[0].to_string(), num(rest[1], line)?));
                }
                other => return Err(format!("unknown record `{other}` in `{line}`")),
            }
        }
        if d.workload.is_empty() || d.period == 0 {
            return Err("perf.data missing workload/period header".into());
        }
        Ok(d)
    }

    /// The flamegraph export: `stack weight` lines in Brendan Gregg's
    /// collapsed format (feed to `flamegraph.pl` or speedscope).
    pub fn folded_lines(&self) -> String {
        let mut s = String::new();
        for (key, weight) in &self.folded {
            s.push_str(&format!("{key} {weight}\n"));
        }
        s
    }

    /// The `perf report` header: flat `key value` summary lines.
    pub fn summary(&self) -> String {
        format!(
            "workload {}\ndepth {}\nmachine {}\nconfig {}\nsample_period {}\ntotal_cycles {}\n\
             baseline_cycles {}\nsampling_overhead_cycles {}\ninterrupts {}\n\
             weighted_samples {}\nsupervisor_weight {}\nuser_weight {}\n",
            self.workload,
            self.depth,
            self.machine,
            self.config,
            self.period,
            self.total_cycles,
            self.baseline_cycles,
            self.overhead_cycles(),
            self.interrupts,
            self.total_weight(),
            self.supervisor_weight,
            self.user_weight,
        )
    }

    /// `perf report`: sampled-vs-exact self-time by subsystem, per-task
    /// weights, and the privilege split.
    pub fn report(&self) -> Vec<Table> {
        let weight_total = self.total_weight().max(1);
        let exact_total: u64 = self.subsystems.iter().map(|(_, _, e)| e).sum::<u64>().max(1);

        let mut by_sub = Table::new(
            format!(
                "perf report: self-time by subsystem ({}, period {})",
                self.workload, self.period
            ),
            vec![
                "subsystem".into(),
                "weight".into(),
                "sampled_share_ppm".into(),
                "exact_cycles".into(),
                "exact_share_ppm".into(),
            ],
        );
        let mut rows = self.subsystems.clone();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        for (name, weight, exact) in rows {
            by_sub.push_row(vec![
                name,
                format!("{weight}"),
                format!("{}", weight * 1_000_000 / weight_total),
                format!("{exact}"),
                format!("{}", exact * 1_000_000 / exact_total),
            ]);
        }

        let mut by_task = Table::new(
            "perf report: weighted samples by task",
            vec!["pid".into(), "weight".into(), "share_ppm".into()],
        );
        let mut pids = self.pids.clone();
        pids.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        for (pid, weight) in pids {
            by_task.push_row(vec![
                format!("{pid}"),
                format!("{weight}"),
                format!("{}", weight * 1_000_000 / weight_total),
            ]);
        }

        let mut privilege = Table::new(
            "perf report: privilege split",
            vec!["state".into(), "weight".into(), "share_ppm".into()],
        );
        for (state, weight) in [
            ("supervisor", self.supervisor_weight),
            ("user", self.user_weight),
        ] {
            privilege.push_row(vec![
                state.into(),
                format!("{weight}"),
                format!("{}", weight * 1_000_000 / weight_total),
            ]);
        }
        vec![by_sub, by_task, privilege]
    }

    /// `perf annotate`: ASCII share bars per subsystem, sampled next to
    /// exact, heaviest first.
    pub fn annotate(&self) -> String {
        const BAR: usize = 40;
        let weight_total = self.total_weight().max(1);
        let exact_total: u64 = self.subsystems.iter().map(|(_, _, e)| e).sum::<u64>().max(1);
        let mut rows = self.subsystems.clone();
        rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let pct = |ppm: u64| format!("{}.{:02}%", ppm / 10_000, (ppm % 10_000) / 100);
        let mut s = format!(
            "perf annotate: {} (period {}, {} weighted samples)\n",
            self.workload,
            self.period,
            self.total_weight()
        );
        for (name, weight, exact) in rows {
            if weight == 0 && exact == 0 {
                continue;
            }
            let sampled_ppm = weight * 1_000_000 / weight_total;
            let exact_ppm = exact * 1_000_000 / exact_total;
            let filled = (sampled_ppm as usize * BAR) / 1_000_000;
            let mut bar = "#".repeat(filled);
            bar.push_str(&".".repeat(BAR - filled));
            s.push_str(&format!(
                "  {name:<14} |{bar}| sampled {:>7} exact {:>7}\n",
                pct(sampled_ppm),
                pct(exact_ppm),
            ));
        }
        s
    }
}

/// Records a profile on the optimized kernel (see [`perf_record_on`]).
pub fn perf_record(depth: Depth, workload: PerfWorkload, period: u32) -> PerfData {
    perf_record_on(depth, workload, period, KernelConfig::optimized())
}

/// Records a profile: runs `workload` once with the PMU off (baseline) and
/// once with cycle sampling at `period`, reading sampled aggregates and the
/// exact profile from the same sampled run — on an arbitrary kernel
/// configuration, so `repro perf diff` can compare profiles across
/// optimization levels (the machine and config land in the file header).
pub fn perf_record_on(
    depth: Depth,
    workload: PerfWorkload,
    period: u32,
    kcfg: KernelConfig,
) -> PerfData {
    let run = |pmu: Option<PmuConfig>| -> Kernel {
        let mut cfg = kcfg;
        cfg.trace = true;
        cfg.pmu = pmu;
        match workload {
            PerfWorkload::Compile => {
                let mut k = Kernel::boot(MachineConfig::ppc604_133(), cfg);
                reference_workload(&mut k, depth);
                k.pmu_finish();
                k
            }
            PerfWorkload::Storm => {
                cfg.fault_injection = Some(FaultInjection::light(42));
                let hogs = match depth {
                    Depth::Quick => 10,
                    Depth::Full => 24,
                };
                run_pressure_on(cfg, hogs).1
            }
        }
    };
    let baseline_cycles = run(None).machine.cycles;
    let mut k = run(Some(PmuConfig::sampling(period)));
    let now = k.machine.cycles;
    let t = k.tracer.as_mut().expect("perf record always traces");
    t.prof.finish(now);
    let st = k.pmu.as_ref().expect("perf record always samples");

    PerfData {
        workload: workload.name().to_string(),
        depth: depth.name()
        .to_string(),
        machine: MachineConfig::ppc604_133().id(),
        config: kcfg.summary(),
        period,
        total_cycles: now,
        baseline_cycles,
        interrupts: st.interrupts,
        supervisor_weight: st.supervisor_weight,
        user_weight: st.user_weight,
        subsystems: Subsystem::ALL
            .iter()
            .map(|&s| {
                (
                    s.name().to_string(),
                    st.by_subsystem[s as usize],
                    t.prof.self_cycles(s),
                )
            })
            .collect(),
        pids: st.by_pid.iter().map(|(&p, &w)| (p, w)).collect(),
        folded: st.folded.iter().map(|(k, &w)| (k.clone(), w)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PerfData {
        perf_record(Depth::Quick, PerfWorkload::Compile, 8192)
    }

    #[test]
    fn record_serialize_parse_roundtrips_exactly() {
        let d = sample();
        let text = d.serialize();
        let back = PerfData::parse(&text).expect("own output parses");
        assert_eq!(back, d);
        // And recording again is byte-identical.
        assert_eq!(sample().serialize(), text);
    }

    #[test]
    fn recorded_profile_is_internally_consistent() {
        let d = sample();
        assert!(d.interrupts > 0);
        assert!(d.total_cycles > d.baseline_cycles, "sampling costs cycles");
        assert_eq!(
            d.pids.iter().map(|(_, w)| w).sum::<u64>(),
            d.total_weight()
        );
        assert_eq!(
            d.folded.iter().map(|(_, w)| w).sum::<u64>(),
            d.total_weight()
        );
        assert_eq!(d.supervisor_weight + d.user_weight, d.total_weight());
        // Exact attribution covers the whole run.
        assert_eq!(
            d.subsystems.iter().map(|(_, _, e)| e).sum::<u64>(),
            d.total_cycles
        );
        // The pmu bucket has exact cycles (the handler) but never samples.
        let pmu = d.subsystems.iter().find(|(n, _, _)| n == "pmu").unwrap();
        assert_eq!(pmu.1, 0);
        assert!(pmu.2 > 0);
    }

    #[test]
    fn report_annotate_and_folded_render() {
        let d = sample();
        let tables = d.report();
        assert_eq!(tables.len(), 3);
        assert!(!tables[0].rows.is_empty());
        for column in ["sampled_share_ppm", "exact_share_ppm"] {
            assert!(tables[0].columns.iter().any(|c| c == column), "{column}");
        }
        let s = d.summary();
        for key in [
            "total_cycles ",
            "baseline_cycles ",
            "sampling_overhead_cycles ",
            "interrupts ",
            "weighted_samples ",
        ] {
            assert!(s.contains(key), "summary missing {key}");
        }
        let a = d.annotate();
        assert!(a.contains('#'), "bars render");
        let folded = d.folded_lines();
        assert!(folded.lines().count() >= 2);
        for line in folded.lines() {
            let mut f = line.split(' ');
            assert!(f.next().unwrap().contains("pid"));
            f.next().unwrap().parse::<u64>().expect("weight is a number");
        }
    }

    #[test]
    fn storm_workload_records_too() {
        let d = perf_record(Depth::Quick, PerfWorkload::Storm, 65_536);
        assert_eq!(d.workload, "storm");
        assert!(d.interrupts > 0);
        assert_eq!(PerfData::parse(&d.serialize()).unwrap(), d);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(PerfData::parse("not a perf file").is_err());
        assert!(PerfData::parse(PERF_MAGIC).is_err(), "headers required");
        let bad = format!("{PERF_MAGIC}\nworkload compile\nperiod 4096\nsub onlytwo 1\n");
        assert!(PerfData::parse(&bad).is_err());
    }
}
