//! Benchmark harness for the MMU Tricks (OSDI 1999) reproduction.
//!
//! Two entry points:
//!
//! * the `repro` binary — regenerates every table and figure of the paper
//!   (`cargo run -p bench --release --bin repro -- all`);
//! * Criterion micro-benchmarks under `benches/` — per-mechanism
//!   regressions (translation, hash table, reload paths, flushes, pipes,
//!   context switches).

use mmu_tricks::Depth;

/// Parses the depth flags: `--depth quick|full`, or the `--full` shorthand.
/// Any other `--depth` value is an error naming it, like a typo'd flag.
pub fn depth_from_args(args: &[String]) -> Result<Depth, String> {
    match flag_value(args, "--depth").as_deref() {
        Some("full") => Ok(Depth::Full),
        Some("quick") => Ok(Depth::Quick),
        Some(other) => Err(format!("bad --depth {other:?} (expected quick|full)")),
        None if args.iter().any(|a| a == "--full") => Ok(Depth::Full),
        None => Ok(Depth::Quick),
    }
}

/// Returns the value following a `--flag value` pair, if present.
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Command-line flags that consume the next argument (so experiment-id
/// parsing can skip their values).
pub const VALUE_FLAGS: &[&str] = &[
    "--depth",
    "--json",
    "--trace-out",
    "--workload",
    "--period",
    "--in",
    "--folded",
    "--config",
    "--limit",
    "--seed",
    "--runs",
    "--steps",
    "--verbose-from",
    "--check",
];

/// Flags that stand alone (no value argument).
pub const BARE_FLAGS: &[&str] = &["--full", "--markdown", "--csv", "--help"];

/// Every `repro` subcommand (dispatch names that are not experiment ids),
/// with a one-line summary. The binary's usage text renders this list, and
/// `tests/artifacts.rs` asserts `repro --help` mentions every entry — so a
/// new subcommand that forgets to register here fails a test, not code
/// review.
pub const SUBCOMMANDS: &[(&str, &str)] = &[
    ("matrix", "machine × config × workload grid (mmu-tricks-matrix-v1)"),
    ("tune", "offline per-machine coordinate descent (mmu-tricks-tune-v1)"),
    ("diff", "structured comparison of two artifacts of one schema"),
    ("chaos", "adversarial fuzzing under the shadow-MM checker"),
    ("perf", "sampled profiling: record/report/annotate (mmu-tricks-perf-v1)"),
    (
        "causal",
        "exact virtual speedups: payoff curves + ranking (mmu-tricks-causal-v1)",
    ),
];

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

/// Any `--flag` the harness does not know about. A typo'd flag must be an
/// error, not a silently ignored no-op — `--dpeth full` running the quick
/// depth cost real debugging time once.
pub fn unknown_flags(args: &[String]) -> Vec<&str> {
    let mut skip = false;
    let mut out = Vec::new();
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if VALUE_FLAGS.contains(&a.as_str()) {
            skip = true;
            continue;
        }
        if a.starts_with("--") && !BARE_FLAGS.contains(&a.as_str()) {
            out.push(a.as_str());
        }
    }
    out
}

/// The positional (non-flag) arguments, with value-flag payloads removed.
pub fn positional_args(args: &[String]) -> Vec<&str> {
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if VALUE_FLAGS.contains(&a.as_str()) {
            skip = true;
            continue;
        }
        if !a.starts_with("--") {
            out.push(a.as_str());
        }
    }
    out
}

/// All experiment ids the `repro` binary accepts, with one-line summaries.
pub const EXPERIMENTS: &[(&str, &str)] = &[
    ("fig1", "Figure 1: hash-table translation walkthrough"),
    ("bat", "E-BAT (5.1): BAT-mapping the kernel on the compile"),
    (
        "hash-util",
        "E-HASH (5.2): hash-table utilization vs VSID scatter",
    ),
    (
        "fast-reload",
        "E-FAST (6.1): C vs hand-tuned reload handlers",
    ),
    (
        "table1",
        "Table 1: direct TLB reloads (603 htab/no-htab vs 604s)",
    ),
    ("lazy", "E-LAZY (7): lazy VSID flushes"),
    ("idle-reclaim", "E-IDLE (7): idle-task zombie reclamation"),
    ("mmap-cutoff", "E-MMAP (7): range-flush cutoff sweep"),
    ("table2", "Table 2: tunable TLB range flushing"),
    ("cache-pollution", "E-CACHE (8): page-table cache pollution"),
    ("page-clear", "E-CLEAR (9): idle-task page clearing"),
    ("table3", "Table 3: Linux/PPC vs other operating systems"),
    (
        "extensions",
        "Extensions (10): idle cache lock + cache preloads",
    ),
    (
        "trace",
        "Observability: counter trace, self-time, latency, tail causes (4)",
    ),
    (
        "memhier",
        "lat_mem_rd staircase: L1/L2/DRAM plateaus per machine",
    ),
    (
        "ablate-htab-size",
        "Ablation: hash-table size vs RAM tradeoff (7)",
    ),
    (
        "ablate-scatter",
        "Ablation: VSID scatter-constant sweep (5.2)",
    ),
    (
        "ablate-reclaim",
        "Ablation: idle-scan vs rejected on-scarcity reclaim (7)",
    ),
    (
        "ablate-tlb",
        "Ablation: TLB reach vs compile performance (2)",
    ),
    (
        "io-bat",
        "Frame-buffer BAT: X-like blitter vs compute TLB (5.1)",
    ),
    (
        "ablate-replacement",
        "Ablation: full-PTEG replacement policy (7)",
    ),
    (
        "lmbench-extended",
        "Extended LmBench rows (sig, fork, exec, mem) per machine",
    ),
    (
        "multiuser",
        "Multiuser mix (compile+edit+mail): the cumulative build-up",
    ),
    (
        "pressure",
        "E-PRESSURE: fault storm (SIGSEGV/SIGBUS/OOM/injection) survival",
    ),
    (
        "pmu",
        "E-PMU: 604 sampled profiling converges to the exact profiler (4)",
    ),
    (
        "ematrix",
        "E-MATRIX (8): every optimization's before/after sign across machines",
    ),
    (
        "etune",
        "E-TUNE: PMU-guided tuned config beats static opt on the fault storm",
    ),
    (
        "echeck",
        "E-CHECK: chaos fuzzing survives the shadow-MM oracle and invariants",
    ),
    (
        "etail",
        "E-TAIL: planted PTEG-saturation regression wins tail attribution",
    ),
    (
        "ecausal",
        "E-CAUSAL: virtual speedups reproduce measured deltas; idle buys ~0",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_parsing() {
        let parse = |args: &[&str]| {
            depth_from_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
        };
        assert_eq!(parse(&[]), Ok(Depth::Quick));
        assert_eq!(parse(&["--full"]), Ok(Depth::Full));
        assert_eq!(parse(&["all", "--full"]), Ok(Depth::Full));
        assert_eq!(parse(&["--depth", "full"]), Ok(Depth::Full));
        assert_eq!(
            parse(&["--depth", "quick", "--full"]),
            Ok(Depth::Quick),
            "--depth wins over --full"
        );
        let err = parse(&["--depth", "ful"]).unwrap_err();
        assert!(err.contains("\"ful\""), "{err}");
    }

    #[test]
    fn positional_args_skip_flag_values() {
        let args: Vec<String> = [
            "trace",
            "--json",
            "metrics.json",
            "--trace-out",
            "trace.json",
            "--depth",
            "quick",
            "pressure",
            "--markdown",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert_eq!(positional_args(&args), vec!["trace", "pressure"]);
        assert_eq!(flag_value(&args, "--json").as_deref(), Some("metrics.json"));
        assert_eq!(
            flag_value(&args, "--trace-out").as_deref(),
            Some("trace.json")
        );
        assert_eq!(flag_value(&args, "--missing"), None);
    }

    #[test]
    fn unknown_flags_are_reported_not_swallowed() {
        let args: Vec<String> = ["trace", "--json", "m.json", "--dpeth", "full", "--markdown"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(unknown_flags(&args), vec!["--dpeth"]);
        // "full" after the unknown flag is NOT skipped: it stays positional,
        // which is also wrong — hence the hard error in the binary.
        let clean: Vec<String> = ["matrix", "--json", "m.json", "--full"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(unknown_flags(&clean).is_empty());
    }

    #[test]
    fn experiment_ids_unique() {
        let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), EXPERIMENTS.len());
    }

    #[test]
    fn subcommands_unique_and_disjoint_from_experiments() {
        let mut names: Vec<&str> = SUBCOMMANDS.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SUBCOMMANDS.len());
        for (n, _) in SUBCOMMANDS {
            assert!(
                !EXPERIMENTS.iter().any(|(id, _)| id == n),
                "subcommand {n} shadows an experiment id"
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
        for (name, desc) in SUBCOMMANDS {
            if let Some(i) = desc.find("mmu-tricks-") {
                let schema: String = desc[i..]
                    .chars()
                    .take_while(|c| c.is_ascii_alphanumeric() || *c == '-')
                    .collect();
                assert!(
                    ARTIFACTS.iter().any(|(s, _, _)| *s == schema),
                    "subcommand {name} mentions unregistered schema {schema}"
                );
            }
        }
    }
}
