//! The `repro perf` engine: record / report / annotate over PMU samples.
//!
//! This is the §4 measurement methodology turned into a tool: `record` runs
//! a headline workload ([`run_workload`]) with the 604 PMU sampling on
//! cycles and captures the weighted sample aggregates next to the exact
//! profiler's ground truth from the *same run*. `report` renders self-time
//! tables from a recording, `annotate` draws ASCII share bars, and the
//! folded view exports Brendan Gregg's collapsed-stack format for
//! flamegraph tooling.
//!
//! A recording is the `mmu-tricks-perf-v1` artifact ([`PerfData::to_json`]),
//! written in the one [`crate::artifact`] format. `subsystems`, `pids` and
//! `folded` are objects keyed by subsystem, pid and collapsed stack, so
//! `repro diff` of two recordings aligns them by key: it gives the
//! per-subsystem weight and exact-cycle deltas and the signed per-stack
//! (flamegraph) deltas, which sum to the `weighted_samples` delta. The
//! sampling period is a top-level string, so it is an identity axis: a
//! diff of profiles sampled at different periods is refused.

use kernel_sim::{KernelConfig, PmuConfig, Subsystem};

use crate::artifact::Json;
use crate::matrix::{machine_row, run_workload};
use crate::tables::Table;
use crate::Depth;

const SCHEMA: &str = "mmu-tricks-perf-v1";

/// One recorded profile: the PMU sample aggregates plus the exact profiler's
/// per-subsystem cycles from the same run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfData {
    /// Headline workload name ([`crate::matrix::WORKLOADS`]).
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
    /// Total cycles of the sampled run, boot included (the span the exact
    /// profile covers).
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

/// A subsystem's share of what the sampler can see, in ppm
/// ([`PerfData::shares`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Share {
    /// Of the weighted samples.
    pub sampled_ppm: u64,
    /// Of the exact self-cycles outside the `pmu` bucket.
    pub exact_ppm: u64,
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

    /// Each subsystem's sampled and exact share in ppm, in `subsystems`
    /// order, by the one rule `report`, `annotate` and E-PMU use: both are
    /// shares of what the sampler can see. The PM handler freezes counting
    /// while it runs, so the `pmu` bucket never samples; its exact cycles
    /// stay out of the exact total and it has no shares (`None`).
    pub fn shares(&self) -> Vec<Option<Share>> {
        let seen = |name: &str| name != Subsystem::Pmu.name();
        let weight_total = self.total_weight().max(1);
        let exact_total: u64 = self
            .subsystems
            .iter()
            .filter(|(name, _, _)| seen(name))
            .map(|(_, _, exact)| exact)
            .sum::<u64>()
            .max(1);
        self.subsystems
            .iter()
            .map(|(name, weight, exact)| {
                seen(name).then_some(Share {
                    sampled_ppm: weight * 1_000_000 / weight_total,
                    exact_ppm: exact * 1_000_000 / exact_total,
                })
            })
            .collect()
    }

    /// The largest gap between a subsystem's sampled and exact
    /// [`shares`](PerfData::shares), in ppm: E-PMU's convergence measure.
    pub fn max_share_err_ppm(&self) -> u64 {
        let shares = self.shares().into_iter().flatten();
        let gaps = shares.map(|s| s.sampled_ppm.abs_diff(s.exact_ppm));
        gaps.max().unwrap_or(0)
    }

    /// The `mmu-tricks-perf-v1` artifact.
    pub fn to_json(&self) -> Json {
        let subsystems = self.subsystems.iter().map(|(name, weight, exact)| {
            let row = Json::object()
                .field("weight", *weight)
                .field("exact", *exact);
            (name.as_str(), row)
        });
        Json::object()
            .field("schema", SCHEMA)
            .field("workload", &self.workload)
            .field("depth", &self.depth)
            .field("machine", &self.machine)
            .field("config", &self.config)
            .field("period", self.period.to_string())
            .field("total_cycles", self.total_cycles)
            .field("baseline_cycles", self.baseline_cycles)
            .field("interrupts", self.interrupts)
            .field("weighted_samples", self.total_weight())
            .field("supervisor_weight", self.supervisor_weight)
            .field("user_weight", self.user_weight)
            .field("subsystems", Json::obj(subsystems))
            .field(
                "pids",
                Json::obj(self.pids.iter().map(|(pid, w)| (pid.to_string(), *w))),
            )
            .field(
                "folded",
                Json::obj(self.folded.iter().map(|(stack, w)| (stack.as_str(), *w))),
            )
    }

    /// Loads a recording written by [`PerfData::to_json`].
    pub fn from_json(doc: &Json) -> Result<PerfData, String> {
        let bad = |what: String| format!("not a {SCHEMA} recording: {what}");
        let get = |key: &str| doc.get(key).ok_or_else(|| bad(format!("no `{key}`")));
        let string = |key: &str| match get(key)? {
            Json::Str(s) => Ok(s.clone()),
            _ => Err(bad(format!("`{key}` is not a string"))),
        };
        let count = |v: Option<&Json>, key: &str| match v {
            Some(&Json::Num(n)) => u64::try_from(n).map_err(|_| bad(format!("`{key}` < 0"))),
            _ => Err(bad(format!("`{key}` is not a count"))),
        };
        let number = |key: &str| count(doc.get(key), key);
        let entries = |key: &str| match get(key)? {
            Json::Obj(fields) => Ok(fields),
            _ => Err(bad(format!("`{key}` is not an object"))),
        };
        let schema = string("schema")?;
        if schema != SCHEMA {
            return Err(bad(format!("schema {schema:?}")));
        }
        let period = string("period")?;
        let period = period
            .parse()
            .ok()
            .filter(|&p: &u32| p > 0)
            .ok_or_else(|| bad(format!("period {period:?}")))?;
        Ok(PerfData {
            workload: string("workload")?,
            depth: string("depth")?,
            machine: string("machine")?,
            config: string("config")?,
            period,
            total_cycles: number("total_cycles")?,
            baseline_cycles: number("baseline_cycles")?,
            interrupts: number("interrupts")?,
            supervisor_weight: number("supervisor_weight")?,
            user_weight: number("user_weight")?,
            subsystems: entries("subsystems")?
                .iter()
                .map(|(name, v)| {
                    Ok((
                        name.clone(),
                        count(v.get("weight"), name)?,
                        count(v.get("exact"), name)?,
                    ))
                })
                .collect::<Result<_, String>>()?,
            pids: entries("pids")?
                .iter()
                .map(|(pid, w)| {
                    let n = pid.parse().map_err(|_| bad(format!("pid {pid:?}")))?;
                    Ok((n, count(Some(w), pid)?))
                })
                .collect::<Result<_, String>>()?,
            folded: entries("folded")?
                .iter()
                .map(|(stack, w)| Ok((stack.clone(), count(Some(w), stack)?)))
                .collect::<Result<_, String>>()?,
        })
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
    /// weights, and the privilege split. Subsystem shares are
    /// [`PerfData::shares`]: the `pmu` row keeps its exact cycles and
    /// shows no share.
    pub fn report(&self) -> Vec<Table> {
        let weight_total = self.total_weight().max(1);
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
        let mut rows: Vec<_> = self.subsystems.iter().zip(self.shares()).collect();
        rows.sort_by(|(a, _), (b, _)| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        for ((name, weight, exact), share) in rows {
            let [sampled, exact_share] = share.map_or(["-".into(), "-".into()], |s| {
                [s.sampled_ppm.to_string(), s.exact_ppm.to_string()]
            });
            by_sub.push_row(vec![
                name.clone(),
                format!("{weight}"),
                sampled,
                format!("{exact}"),
                exact_share,
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

    /// `perf annotate`: ASCII bars of each subsystem's
    /// [`shares`](PerfData::shares), sampled next to exact, heaviest first.
    pub fn annotate(&self) -> String {
        const BAR: usize = 40;
        let pct = |ppm: u64| format!("{}.{:02}%", ppm / 10_000, (ppm % 10_000) / 100);
        let mut s = format!(
            "perf annotate: {} (period {}, {} weighted samples)\n",
            self.workload,
            self.period,
            self.total_weight()
        );
        let mut rows: Vec<_> = self.subsystems.iter().zip(self.shares()).collect();
        rows.sort_by(|(a, _), (b, _)| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        for ((name, weight, exact), share) in rows {
            if *weight == 0 && *exact == 0 {
                continue;
            }
            let filled = share.map_or(0, |s| s.sampled_ppm as usize * BAR / 1_000_000);
            let [sampled, exact] = share.map_or(["-".into(), "-".into()], |s| {
                [pct(s.sampled_ppm), pct(s.exact_ppm)]
            });
            let bar = "#".repeat(filled) + &".".repeat(BAR - filled);
            s.push_str(&format!(
                "  {name:<14} |{bar}| sampled {sampled:>7} exact {exact:>7}\n"
            ));
        }
        s
    }
}

/// Records a profile of headline `workload` ([`run_workload`]) on the
/// 604/133 row under `kcfg`: runs it once with the PMU off
/// (`perf_baseline`) and once with cycle sampling at `period`
/// (`perf_sample`). The config lands in the artifact's `config` axis,
/// the one a diff may cross.
pub fn perf_record(depth: Depth, workload: &str, period: u32, kcfg: KernelConfig) -> PerfData {
    let baseline_cycles = perf_baseline(depth, workload, kcfg);
    perf_sample(depth, workload, period, kcfg, baseline_cycles)
}

/// Cycles of headline `workload` on the 604/133 row under `kcfg`, traced
/// with the PMU off, boot included: what a profile's sampling cost is
/// measured against.
pub(crate) fn perf_baseline(depth: Depth, workload: &str, kcfg: KernelConfig) -> u64 {
    let cfg = KernelConfig {
        trace: true,
        pmu: None,
        ..kcfg
    };
    let run = run_workload(&machine_row("604-133"), cfg, workload, depth);
    run.kernel.machine.cycles
}

/// Samples headline `workload` on the 604/133 row under `kcfg` with
/// cycles at `period`, reading the sampled aggregates and the exact
/// profile from the same run; `baseline_cycles` is its [`perf_baseline`].
pub(crate) fn perf_sample(
    depth: Depth,
    workload: &str,
    period: u32,
    kcfg: KernelConfig,
    baseline_cycles: u64,
) -> PerfData {
    let m = machine_row("604-133");
    let cfg = KernelConfig {
        trace: true,
        pmu: Some(PmuConfig::sampling(period)),
        ..kcfg
    };
    let mut k = run_workload(&m, cfg, workload, depth).kernel;
    let now = k.machine.cycles;
    let t = k.tracer.as_mut().expect("perf record always traces");
    t.prof.finish(now);
    let st = k.pmu.as_ref().expect("perf record always samples");

    PerfData {
        workload: workload.to_string(),
        depth: depth.name().to_string(),
        machine: m.machine.id(),
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
    use crate::artifact;
    use std::sync::OnceLock;

    fn record() -> PerfData {
        perf_record(Depth::Quick, "trace_ref", 8192, KernelConfig::optimized())
    }

    /// One recording shared by the tests that only read it.
    fn sample() -> &'static PerfData {
        static SAMPLE: OnceLock<PerfData> = OnceLock::new();
        SAMPLE.get_or_init(record)
    }

    /// A small hand-made profile on fixed axes.
    fn tiny() -> PerfData {
        PerfData {
            workload: "compile".into(),
            depth: "quick".into(),
            machine: "604-133".into(),
            config: "opt".into(),
            period: 4096,
            total_cycles: 9000,
            baseline_cycles: 8000,
            interrupts: 2,
            supervisor_weight: 1,
            user_weight: 1,
            subsystems: vec![("translate".into(), 1, 5000), ("user".into(), 1, 4000)],
            pids: vec![(0, 1), (7, 1)],
            folded: vec![("pid0;translate".into(), 1), ("pid7;user".into(), 1)],
        }
    }

    fn load(text: &str) -> Result<PerfData, String> {
        PerfData::from_json(&artifact::parse(text)?)
    }

    #[test]
    fn record_serialize_parse_roundtrips_exactly() {
        let d = sample();
        let text = d.to_json().write();
        assert_eq!(&load(&text).expect("own artifact loads"), d);
        // And recording again is byte-identical.
        assert_eq!(record().to_json().write(), text);
    }

    #[test]
    fn recorded_profile_is_internally_consistent() {
        let d = sample();
        assert!(d.interrupts > 0);
        assert!(d.total_cycles > d.baseline_cycles, "sampling costs cycles");
        assert_eq!(d.pids.iter().map(|(_, w)| w).sum::<u64>(), d.total_weight());
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
            f.next()
                .unwrap()
                .parse::<u64>()
                .expect("weight is a number");
        }
    }

    #[test]
    fn shares_leave_out_the_pmu_bucket_the_sampler_never_sees() {
        let d = perf_record(Depth::Quick, "trace_ref", 1024, KernelConfig::optimized());
        let shares = d.shares();
        for ((name, _, _), share) in d.subsystems.iter().zip(&shares) {
            assert_eq!(share.is_none(), name == "pmu", "{name}");
        }
        // Each share rounds down, so each total falls short by under 1 ppm
        // per subsystem.
        let seen = || shares.iter().flatten();
        for total in [
            seen().map(|s| s.sampled_ppm).sum::<u64>(),
            seen().map(|s| s.exact_ppm).sum(),
        ] {
            assert!((1_000_000 - 12..=1_000_000).contains(&total), "{total}");
        }
        // E-PMU's finest quick row reads this run by this rule.
        assert_eq!(d.max_share_err_ppm(), 4_404);
    }

    #[test]
    fn storm_workload_records_too() {
        let opt = KernelConfig::optimized();
        let d = perf_record(Depth::Quick, "fault_storm", 65_536, opt);
        assert_eq!(d.workload, "fault_storm");
        assert!(d.interrupts > 0);
        assert_eq!(load(&d.to_json().write()).unwrap(), d);
    }

    #[test]
    fn parse_rejects_garbage() {
        let good = tiny().to_json();
        assert_eq!(PerfData::from_json(&good), Ok(tiny()));
        let edit = |key: &str, value: Json| {
            let mut doc = good.clone();
            if let Json::Obj(fields) = &mut doc {
                fields.retain(|(k, _)| k != key);
                fields.push((key.into(), value));
            }
            PerfData::from_json(&doc)
        };
        assert!(edit("schema", "mmu-tricks-matrix-v1".into()).is_err());
        assert!(edit("period", "0".into()).is_err());
        assert!(edit("period", Json::Num(4096)).is_err(), "a string");
        assert!(edit("total_cycles", Json::Num(-1)).is_err());
        assert!(edit("pids", Json::obj([("one", 1u64)])).is_err());
        let no_exact = Json::obj([("translate", Json::obj([("weight", 1u64)]))]);
        assert!(edit("subsystems", no_exact).is_err());
        assert!(PerfData::from_json(&Json::arr([1u64])).is_err());
        assert!(load("not a perf file").is_err());
    }
}
