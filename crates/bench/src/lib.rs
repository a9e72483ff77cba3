//! Benchmark harness for the MMU Tricks (OSDI 1999) reproduction.
//!
//! Two entry points:
//!
//! * the `repro` binary — regenerates every table and figure of the paper
//!   (`cargo run -p bench --release --bin repro -- all`). This crate holds
//!   its registry: [`EXPERIMENTS`], each experiment declared once with its
//!   runner, and the usage lines ([`EXPERIMENT_USAGE`], [`SUBCOMMANDS`]),
//!   the only declaration of the flags each command takes. [`Args::parse`]
//!   reads them and refuses the rest;
//! * Criterion micro-benchmarks under `benches/`: `mechanisms` (groups
//!   `htab`, `tlb`, `kernel`, `process`, `memhier`), `paper_tables`
//!   (`table1`, `table2`, `table3`, `compile`) and `hostpaths` (`translate`,
//!   `cache`, `charge`, `trace_write`, `reference_paths`, `observers`).

use mmu_tricks::experiments::{self as ex, TraceArtifacts};
use mmu_tricks::tables::Table;
use mmu_tricks::{Depth, KernelConfig};

/// What an experiment hands `repro`.
pub enum Output {
    /// A table: printed in the chosen style and appended to the `--json`
    /// run report.
    Table(Table),
    /// Text printed as is (`fig1`'s walkthrough); no artifact carries it.
    Text(String),
    /// The observed reference run, which `--json` and `--trace-out` reuse,
    /// so it runs at most once per process.
    Observed(Box<TraceArtifacts>),
}

/// One experiment `repro` runs.
pub struct Experiment {
    /// Its id on the command line.
    pub id: &'static str,
    /// One line for `--help`.
    pub summary: &'static str,
    /// Runs it at a depth.
    pub run: fn(Depth) -> Vec<Output>,
}

/// The table of a runner's `(result, table)` pair.
fn table<T>((_, t): (T, Table)) -> Vec<Output> {
    vec![Output::Table(t)]
}

/// Every experiment, the one list `repro` runs. `repro all` runs them in
/// this order, which is the order of the metrics artifact's `experiments`
/// array.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "fig1",
        summary: "Figure 1: hash-table translation walkthrough",
        run: |_| {
            let walk = ex::translation_walkthrough(0x3012_3abc, 0x123456, 0x54321);
            vec![Output::Text(walk)]
        },
    },
    Experiment {
        id: "bat",
        summary: "E-BAT (5.1): BAT-mapping the kernel on the compile",
        run: |d| table(ex::exp_bat(d)),
    },
    Experiment {
        id: "hash-util",
        summary: "E-HASH (5.2): hash-table utilization vs VSID scatter",
        run: |d| table(ex::exp_hash_util(d)),
    },
    Experiment {
        id: "fast-reload",
        summary: "E-FAST (6.1): C vs hand-tuned reload handlers",
        run: |d| table(ex::exp_fast_reload(d)),
    },
    Experiment {
        id: "table1",
        summary: "Table 1: direct TLB reloads (603 htab/no-htab vs 604s)",
        run: |d| table(ex::table1(d)),
    },
    Experiment {
        id: "lazy",
        summary: "E-LAZY (7): lazy VSID flushes",
        run: |d| table(ex::exp_lazy(d)),
    },
    Experiment {
        id: "idle-reclaim",
        summary: "E-IDLE (7): idle-task zombie reclamation",
        run: |d| table(ex::exp_idle_reclaim(d)),
    },
    Experiment {
        id: "mmap-cutoff",
        summary: "E-MMAP (7): range-flush cutoff sweep",
        run: |d| table(ex::exp_mmap_cutoff(d)),
    },
    Experiment {
        id: "table2",
        summary: "Table 2: tunable TLB range flushing",
        run: |d| table(ex::table2(d)),
    },
    Experiment {
        id: "cache-pollution",
        summary: "E-CACHE (8): page-table cache pollution",
        run: |d| table(ex::exp_cache_pollution(d)),
    },
    Experiment {
        id: "page-clear",
        summary: "E-CLEAR (9): idle-task page clearing",
        run: |d| table(ex::exp_page_clear(d)),
    },
    Experiment {
        id: "table3",
        summary: "Table 3: Linux/PPC vs other operating systems",
        run: |d| table(ex::table3(d)),
    },
    Experiment {
        id: "extensions",
        summary: "Extensions (10): idle cache lock + cache preloads",
        run: |d| table(ex::exp_extensions(d)),
    },
    Experiment {
        id: "trace",
        summary: "Observability: counter trace, self-time, latency, tail causes (4)",
        run: |d| {
            let compiles = [KernelConfig::unoptimized(), KernelConfig::optimized()]
                .map(|kcfg| ex::trace_compile(d, kcfg).1);
            let (observed, tables) = ex::trace_artifacts(d);
            compiles
                .into_iter()
                .chain(tables)
                .map(Output::Table)
                .chain([Output::Observed(Box::new(observed))])
                .collect()
        },
    },
    Experiment {
        id: "memhier",
        summary: "lat_mem_rd staircase: L1/L2/DRAM plateaus per machine",
        run: |d| table(ex::memory_hierarchy(d)),
    },
    Experiment {
        id: "ablate-htab-size",
        summary: "Ablation: hash-table size vs RAM tradeoff (7)",
        run: |d| table(ex::ablate_htab_size(d)),
    },
    Experiment {
        id: "ablate-scatter",
        summary: "Ablation: VSID scatter-constant sweep (5.2)",
        run: |d| table(ex::ablate_scatter(d)),
    },
    Experiment {
        id: "ablate-reclaim",
        summary: "Ablation: idle-scan vs rejected on-scarcity reclaim (7)",
        run: |d| table(ex::ablate_reclaim_policy(d)),
    },
    Experiment {
        id: "ablate-tlb",
        summary: "Ablation: TLB reach vs compile performance (2)",
        run: |d| table(ex::ablate_tlb_reach(d)),
    },
    Experiment {
        id: "io-bat",
        summary: "Frame-buffer BAT: X-like blitter vs compute TLB (5.1)",
        run: |d| table(ex::exp_io_bat(d)),
    },
    Experiment {
        id: "ablate-replacement",
        summary: "Ablation: full-PTEG replacement policy (7)",
        run: |d| table(ex::ablate_replacement(d)),
    },
    Experiment {
        id: "lmbench-extended",
        summary: "Extended LmBench rows (sig, fork, exec, mem) per machine",
        run: |d| table(ex::extended_suite(d)),
    },
    Experiment {
        id: "multiuser",
        summary: "Multiuser mix (compile+edit+mail): the cumulative build-up",
        run: |d| table(ex::exp_multiuser(d)),
    },
    Experiment {
        id: "pressure",
        summary: "E-PRESSURE: fault storm (SIGSEGV/SIGBUS/OOM/injection) survival",
        run: |d| table(ex::exp_pressure(d)),
    },
    Experiment {
        id: "pmu",
        summary: "E-PMU: 604 sampled profiling converges to the exact profiler (4)",
        run: |d| table(ex::exp_pmu(d)),
    },
    Experiment {
        id: "ematrix",
        summary: "E-MATRIX (8): every optimization's before/after sign across machines",
        run: |d| table(ex::exp_matrix(d)),
    },
    Experiment {
        id: "etune",
        summary: "E-TUNE: PMU-guided tuned config beats static opt on the fault storm",
        run: |d| table(ex::exp_tune(d)),
    },
    Experiment {
        id: "echeck",
        summary: "E-CHECK: chaos fuzzing survives the shadow-MM oracle and invariants",
        run: |d| table(ex::exp_check(d)),
    },
    Experiment {
        id: "etail",
        summary: "E-TAIL: planted PTEG-saturation regression wins tail attribution",
        run: |d| table(ex::exp_tail(d)),
    },
    Experiment {
        id: "ecausal",
        summary: "E-CAUSAL: virtual speedups reproduce measured deltas; idle buys ~0",
        run: |d| table(ex::exp_causal(d)),
    },
];

/// The usage line of every experiment and of `all`. In a usage line,
/// `[--flag]` stands alone, `[--flag VALUE]` takes a value, and
/// `[--a|--b]` declares both flags; [`Args::parse`] reads nothing else.
pub const EXPERIMENT_USAGE: &str = "repro <experiment...|all> [--depth quick|full] [--full] \
                                    [--markdown|--csv] [--json <path>] [--trace-out <path>]";

/// A `repro` subcommand: a dispatch name that is not an experiment id.
pub struct Subcommand {
    /// Its name on the command line.
    pub name: &'static str,
    /// Its usage line, which declares the flags it takes (see
    /// [`EXPERIMENT_USAGE`]).
    pub usage: &'static str,
    /// One line for `--help`.
    pub summary: &'static str,
}

/// Every `repro` subcommand. `tests/artifacts.rs` asserts `repro --help`
/// mentions every entry.
pub const SUBCOMMANDS: &[Subcommand] = &[
    Subcommand {
        name: "matrix",
        usage: "repro matrix [--depth quick|full] [--full] [--json <path>]",
        summary: "machine × config × workload grid (mmu-tricks-matrix-v1)",
    },
    Subcommand {
        name: "tune",
        usage: "repro tune [--depth quick|full] [--full] \
                [--workload compile|fault_storm|trace_ref] [--json <path>]",
        summary: "offline per-machine coordinate descent (mmu-tricks-tune-v1)",
    },
    Subcommand {
        name: "diff",
        usage: "repro diff <a.json> <b.json> [--json <path>] [--limit N]",
        summary: "structured comparison of two artifacts of one schema",
    },
    Subcommand {
        name: "chaos",
        usage: "repro chaos [--seed N] [--runs N] [--steps N] [--check on|off] \
                [--verbose-from N] [--json <path>]",
        summary: "adversarial fuzzing under the shadow-MM checker",
    },
    Subcommand {
        name: "perf",
        usage: "repro perf <record|report|annotate> [--depth quick|full] [--full] \
                [--workload compile|fault_storm|trace_ref] [--period N] [--config unopt|opt] \
                [--json <path>] [--in <path>] [--folded <path>]",
        summary: "sampled profiling: record/report/annotate (mmu-tricks-perf-v1)",
    },
    Subcommand {
        name: "causal",
        usage: "repro causal [--depth quick|full] [--full] [--json <path>]",
        summary: "exact virtual speedups: payoff curves + ranking (mmu-tricks-causal-v1)",
    },
];

/// Every usage line: the experiments' first, then each subcommand's.
pub fn usages() -> impl Iterator<Item = &'static str> {
    std::iter::once(EXPERIMENT_USAGE).chain(SUBCOMMANDS.iter().map(|s| s.usage))
}

/// The flags `usage` declares, each with whether it takes a value.
fn declared(usage: &str) -> impl Iterator<Item = (&str, bool)> {
    usage.split('[').skip(1).flat_map(|group| {
        let group = group.split(']').next().unwrap_or_default();
        let mut words = group.split_whitespace();
        let names = words.next().unwrap_or_default();
        let takes_value = words.next().is_some();
        names
            .split('|')
            .filter(|n| n.starts_with("--"))
            .map(move |n| (n, takes_value))
    })
}

/// A `repro` command line, checked against the usage lines.
#[derive(Debug)]
pub struct Args {
    /// The positional arguments in order: the subcommand or the experiment
    /// ids first.
    pub positional: Vec<String>,
    /// `--depth quick|full`, or `--full` when no `--depth` is given; quick
    /// by default.
    pub depth: Depth,
    /// Each flag given, with its value if it takes one.
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses the arguments after `repro`. The error names what it
    /// refuses: no positional argument, a flag no usage line declares, a
    /// value flag that comes last or is followed by another flag, a flag
    /// the named command's usage line does not declare, or a `--depth`
    /// other than quick or full.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut argv = argv.iter();
        while let Some(a) = argv.next() {
            if !a.starts_with("--") {
                positional.push(a.clone());
                continue;
            }
            let (_, takes_value) = usages()
                .flat_map(declared)
                .find(|&(f, _)| f == a)
                .ok_or_else(|| format!("unknown flag {a}"))?;
            let value = if takes_value {
                match argv.next() {
                    Some(v) if !v.starts_with("--") => Some(v.clone()),
                    _ => return Err(format!("{a} needs a value")),
                }
            } else {
                None
            };
            flags.push((a.clone(), value));
        }
        let command = positional
            .first()
            .ok_or("missing experiment or subcommand")?;
        let usage = SUBCOMMANDS
            .iter()
            .find(|s| s.name == command)
            .map_or(EXPERIMENT_USAGE, |s| s.usage);
        if let Some((f, _)) = flags
            .iter()
            .find(|(f, _)| !declared(usage).any(|(d, _)| d == f))
        {
            return Err(format!("repro {command} does not take {f}"));
        }
        let mut args = Args {
            positional,
            depth: Depth::Quick,
            flags,
        };
        args.depth = match args.value("--depth") {
            Some("full") => Depth::Full,
            Some("quick") => Depth::Quick,
            Some(other) => return Err(format!("bad --depth {other:?} (expected quick|full)")),
            None if args.has("--full") => Depth::Full,
            None => Depth::Quick,
        };
        Ok(args)
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| f == flag)
    }

    /// The value of the first `flag` given, if any.
    pub fn value(&self, flag: &str) -> Option<&str> {
        let (_, v) = self.flags.iter().find(|(f, _)| f == flag)?;
        v.as_deref()
    }
}

/// Every artifact schema the harness can emit, with the producer and a
/// one-line contents summary. `repro --help` renders this table, and
/// `tests/artifacts.rs` scans the workspace sources for `mmu-tricks-*-v*`
/// literals and asserts each one is registered here and pinned by exactly
/// one `ARTIFACTS.lock` row — an artifact added without both fails a
/// test, not code review.
pub const ARTIFACTS: &[(&str, &str, &str)] = &[
    (
        "mmu-tricks-matrix-v1",
        "repro matrix",
        "machine × config × workload grid cells",
    ),
    (
        "mmu-tricks-tune-v1",
        "repro tune",
        "per-machine coordinate-descent winners",
    ),
    (
        "mmu-tricks-metrics-v1",
        "repro <experiment> --json",
        "run report: tables + the observed reference run",
    ),
    (
        "mmu-tricks-timeline-v1",
        "repro <experiment> --trace-out",
        "trace ring as a Chrome trace_event timeline",
    ),
    (
        "mmu-tricks-diff-v1",
        "repro diff --json",
        "structured report comparison",
    ),
    (
        "mmu-tricks-chaos-v1",
        "repro chaos --json",
        "fuzzing outcomes under the shadow-MM oracle",
    ),
    (
        "mmu-tricks-perf-v1",
        "repro perf record --json",
        "sampled profile next to the exact self-time",
    ),
    (
        "mmu-tricks-causal-v1",
        "repro causal",
        "virtual-speedup payoff curves + marginal ranking",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn depth_parsing() {
        let depth = |args: &[&str]| parse(args).map(|a| a.depth);
        assert_eq!(depth(&["all"]), Ok(Depth::Quick));
        assert_eq!(depth(&["all", "--full"]), Ok(Depth::Full));
        assert_eq!(depth(&["--full", "all"]), Ok(Depth::Full));
        assert_eq!(depth(&["all", "--depth", "full"]), Ok(Depth::Full));
        assert_eq!(
            depth(&["all", "--depth", "quick", "--full"]),
            Ok(Depth::Quick),
            "--depth wins over --full"
        );
        let err = depth(&["all", "--depth", "ful"]).unwrap_err();
        assert!(err.contains("\"ful\""), "{err}");
    }

    #[test]
    fn positional_args_skip_flag_values() {
        let args = parse(&[
            "trace",
            "--json",
            "metrics.json",
            "--trace-out",
            "trace.json",
            "--depth",
            "quick",
            "pressure",
            "--markdown",
        ])
        .expect("a valid command line");
        assert_eq!(args.positional, ["trace", "pressure"]);
        assert_eq!(args.value("--json"), Some("metrics.json"));
        assert_eq!(args.value("--trace-out"), Some("trace.json"));
        assert_eq!(args.value("--csv"), None);
        assert!(args.has("--markdown") && !args.has("--csv"));
    }

    #[test]
    fn unknown_flags_are_reported_not_swallowed() {
        let refused = |args: &[&str], flag: &str| {
            let err = parse(args).expect_err("refused");
            assert!(err.contains(flag), "{args:?}: {err}");
        };
        refused(&["trace", "--json", "m.json", "--dpeth", "full"], "--dpeth");
        // A value flag that comes last, or is followed by another flag.
        refused(&["fig1", "--json"], "--json");
        refused(&["fig1", "--json", "--depth", "full"], "--json");
        // A flag the named command's usage line does not declare.
        refused(&["matrix", "--workload", "compile"], "--workload");
        refused(&["fig1", "--seed", "3"], "--seed");
        refused(&["--json", "m.json"], "missing experiment");
        assert!(parse(&["matrix", "--json", "m.json", "--full"]).is_ok());
    }

    #[test]
    fn a_flag_takes_a_value_in_every_usage_line_or_in_none() {
        let all: Vec<(&str, bool)> = usages().flat_map(declared).collect();
        for (flag, takes_value) in &all {
            assert!(
                all.iter().all(|(f, v)| f != flag || v == takes_value),
                "{flag} takes a value in one usage line and not in another"
            );
        }
        for flag in [("--depth", true), ("--full", false), ("--csv", false)] {
            assert!(all.contains(&flag), "{flag:?}");
        }
        for s in SUBCOMMANDS {
            let head = format!("repro {} ", s.name);
            assert!(s.usage.starts_with(&head), "{} heads {}", s.usage, s.name);
        }
    }

    #[test]
    fn experiment_ids_unique() {
        let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), EXPERIMENTS.len());
    }

    #[test]
    fn subcommands_unique_and_disjoint_from_experiments() {
        let mut names: Vec<&str> = SUBCOMMANDS.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SUBCOMMANDS.len());
        for s in SUBCOMMANDS {
            assert!(
                !EXPERIMENTS.iter().any(|e| e.id == s.name),
                "subcommand {} shadows an experiment id",
                s.name
            );
        }
    }

    #[test]
    fn artifact_registry_is_unique_and_versioned() {
        let mut schemas: Vec<&str> = ARTIFACTS.iter().map(|(s, _, _)| *s).collect();
        schemas.sort_unstable();
        schemas.dedup();
        assert_eq!(schemas.len(), ARTIFACTS.len());
        for (schema, producer, _) in ARTIFACTS {
            assert!(
                schema.starts_with("mmu-tricks-") && schema.contains("-v"),
                "schema {schema} must be named mmu-tricks-<kind>-v<n>"
            );
            assert!(
                producer.starts_with("repro"),
                "producer {producer} must be a repro invocation"
            );
        }
    }

    #[test]
    fn every_schema_named_in_a_subcommand_summary_is_registered() {
        for s in SUBCOMMANDS {
            if let Some(i) = s.summary.find("mmu-tricks-") {
                let schema: String = s.summary[i..]
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                    .collect();
                assert!(
                    ARTIFACTS.iter().any(|(s, _, _)| *s == schema),
                    "subcommand {} mentions unregistered schema {schema}",
                    s.name
                );
            }
        }
    }
}
