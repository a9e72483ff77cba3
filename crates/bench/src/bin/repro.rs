//! `repro` — regenerate every table and figure of *Optimizing the Idle Task
//! and Other MMU Tricks* (OSDI 1999).
//!
//! ```text
//! cargo run -p bench --release --bin repro -- <experiment...|all> [flags]
//! cargo run -p bench --release --bin repro -- --help
//! ```
//!
//! The `bench` crate declares what `repro` runs and accepts:
//! `bench::EXPERIMENTS` lists every experiment with its runner, and the
//! usage lines (`bench::EXPERIMENT_USAGE`, `bench::SUBCOMMANDS`) declare
//! the flags each command takes. `--help` prints them.
//!
//! `--json` writes a machine-readable run report: every rendered table plus
//! the `metrics.json` payload of the observed reference run (cycle
//! attribution, latency percentiles with the exact p99, the ranked tail
//! causes and exemplars, PTEG heatmap, telemetry). `repro trace` prints
//! that run's tables. `--trace-out` writes the trace ring as a Chrome
//! `trace_event` timeline. Both artifacts are deterministic, so they diff
//! across commits.
//!
//! `perf record` samples a matrix workload with the modeled 604 PMU and
//! writes the `mmu-tricks-perf-v1` artifact; `report`/`annotate` render
//! one (or record in memory when no `--in` is given); `--folded` exports
//! collapsed stacks for flamegraph tooling. `repro diff` compares any two
//! artifacts of one schema, two profiles included, and refuses when their
//! identity axes disagree — only the kernel-config axis may differ between
//! the two sides.
//!
//! A flag the command does not take, a value flag with no value, or a
//! typo'd flag value exits 2 and names it; a positional argument that is
//! not an experiment id exits 1. `matrix`, `tune` and `causal` run on
//! every available core; their output is byte-identical for any worker
//! count. `ARTIFACTS.lock` pins every artifact's digest at quick depth.

use bench::{usages, Args, Output, ARTIFACTS, EXPERIMENTS, SUBCOMMANDS};
use mmu_tricks::artifact::{self, Json};
use mmu_tricks::chaos::{chaos_report, fleet_json, ChaosConfig};
use mmu_tricks::diff::{diff_reports, parse_report};
use mmu_tricks::experiments::trace_artifacts;
use mmu_tricks::matrix::{run_matrix, WORKLOADS};
use mmu_tricks::perf::{perf_record, PerfData};
use mmu_tricks::tables::Table;
use mmu_tricks::tune::tune_workload;
use mmu_tricks::KernelConfig;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "help") {
        println!("{}", usage_text());
        return;
    }
    let args = Args::parse(&argv).unwrap_or_else(|e| {
        eprintln!("{e}\n");
        usage();
        std::process::exit(2);
    });
    match args.positional[0].as_str() {
        "chaos" => chaos_main(&args),
        "perf" => perf_main(&args),
        "matrix" => matrix_main(&args),
        "tune" => tune_main(&args),
        "diff" => diff_main(&args),
        "causal" => causal_main(&args),
        _ => experiments_main(&args),
    }
}

/// `repro <experiment...|all>`: runs the named experiments in
/// [`EXPERIMENTS`] order and prints what each hands back.
fn experiments_main(args: &Args) {
    let wanted = &args.positional;
    let unknown: Vec<&String> = wanted
        .iter()
        .filter(|w| *w != "all" && !EXPERIMENTS.iter().any(|e| e.id == *w))
        .collect();
    if !unknown.is_empty() {
        eprintln!("unknown experiment(s): {unknown:?}\n");
        usage();
        std::process::exit(1);
    }
    let run_all = wanted.iter().any(|w| w == "all");
    let mut tables = Vec::new();
    let mut observed = None;
    for e in EXPERIMENTS {
        if !run_all && !wanted.iter().any(|w| w == e.id) {
            continue;
        }
        for out in (e.run)(args.depth) {
            match out {
                Output::Table(t) => {
                    if args.has("--csv") {
                        println!("{}", t.render_csv());
                    } else if args.has("--markdown") {
                        println!("{}", t.render_markdown());
                    } else {
                        println!("{}", t.render());
                    }
                    tables.push(t);
                }
                Output::Text(text) => println!("{text}"),
                Output::Observed(run) => observed = Some(*run),
            }
        }
    }
    // The `--json` run report is the metrics artifact with one object per
    // printed table appended. Deterministic: no timestamps, no paths.
    if let Some(path) = args.value("--json") {
        let run = observed.get_or_insert_with(|| trace_artifacts(args.depth).0);
        let tables = Json::arr(tables.iter().map(Table::to_json));
        write_artifact(
            path,
            &run.metrics_json().field("experiments", tables).write(),
        );
    }
    if let Some(path) = args.value("--trace-out") {
        let run = observed.get_or_insert_with(|| trace_artifacts(args.depth).0);
        write_artifact(path, &run.timeline_json().write());
    }
}

/// Writes `artifact` to the `--json` path if one was given, else prints
/// `tables`.
fn json_or_tables(args: &Args, artifact: Json, tables: &[Table]) {
    match args.value("--json") {
        Some(path) => write_artifact(path, &artifact.write()),
        None => {
            for t in tables {
                println!("{}", t.render());
            }
        }
    }
}

/// `repro matrix`: the full machine × config × workload grid.
fn matrix_main(args: &Args) {
    let grid = run_matrix(args.depth);
    json_or_tables(args, grid.to_json(), &grid.tables());
}

/// `repro tune`: offline coordinate descent per machine, emitting the
/// `mmu-tricks-tune-v1` artifact naming each winning configuration.
fn tune_main(args: &Args) {
    let result = tune_workload(workload_flag(args, "fault_storm"), args.depth);
    json_or_tables(args, result.to_json(), &[result.table()]);
}

/// `repro causal`: exact what-if profiling — re-runs the deterministic
/// grid under virtual speedups of each instrumented path and subsystem,
/// printing payoff curves and the marginal ranking ("1% faster X buys Y
/// ppm end-to-end"). `--json` writes the `mmu-tricks-causal-v1` artifact.
fn causal_main(args: &Args) {
    let (report, tables) = mmu_tricks::causal::causal_report(args.depth);
    json_or_tables(args, report.to_json(), &tables);
}

/// Exits 2 naming a flag's bad value: a typo'd value is an error, like a
/// typo'd flag.
fn bad_value(flag: &str, value: &str, expected: &str) -> ! {
    eprintln!("bad {flag} {value:?} (expected {expected})");
    std::process::exit(2);
}

/// The matrix workload named by `--workload` (`default` without one),
/// exiting 2 on any other name.
fn workload_flag(args: &Args, default: &'static str) -> &'static str {
    let wl = args.value("--workload").unwrap_or(default);
    WORKLOADS
        .iter()
        .copied()
        .find(|w| *w == wl)
        .unwrap_or_else(|| bad_value("--workload", wl, &WORKLOADS.join("|")))
}

/// Parses a numeric `--flag N`, exiting 2 on garbage.
fn numeric_flag<T: std::str::FromStr>(args: &Args, flag: &str, default: T) -> T {
    match args.value(flag) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| bad_value(flag, v, "a number")),
    }
}

/// `repro chaos`: seeded adversarial fuzzing with the shadow-MM oracle,
/// runtime invariants, and the full-spectrum fault injector. Exits nonzero
/// on the first violation, printing the seed, step, config, and a
/// one-command repro line.
fn chaos_main(args: &Args) {
    let seed0: u64 = numeric_flag(args, "--seed", 1);
    let runs: u64 = numeric_flag(args, "--runs", 1);
    let steps: u32 = numeric_flag(args, "--steps", 400);
    let verbose_from = args.value("--verbose-from").map(|v| {
        v.parse::<u32>()
            .unwrap_or_else(|_| bad_value("--verbose-from", v, "a step number"))
    });
    let check = match args.value("--check") {
        None | Some("on") => true,
        Some("off") => false,
        Some(other) => bad_value("--check", other, "on|off"),
    };
    let mut lines = Vec::new();
    let mut failures = 0u64;
    for seed in seed0..seed0 + runs.max(1) {
        let mut cfg = if check {
            ChaosConfig::checked(seed, steps)
        } else {
            ChaosConfig::unchecked(seed, steps)
        };
        cfg.verbose_from = verbose_from;
        match chaos_report(&cfg) {
            Ok(o) => {
                let line = format!(
                    "seed {seed}: clean  cycles={} injected={} fatals={} oracle_obs={} invariant_passes={} sweeps={}",
                    o.cycles,
                    o.stats.injected_faults,
                    o.fatals,
                    o.checked_observations,
                    o.invariant_passes,
                    o.heavy_sweeps
                );
                println!("{line}");
                lines.push((seed, o));
            }
            Err(f) => {
                eprintln!("{f}");
                failures += 1;
            }
        }
    }
    if let Some(path) = args.value("--json") {
        write_artifact(path, &fleet_json(check, steps, &lines).write());
    }
    if failures > 0 {
        eprintln!("{failures} chaos run(s) FAILED");
        std::process::exit(1);
    }
}

/// `repro diff A.json B.json`: structured report comparison.
fn diff_main(args: &Args) {
    let (Some(a_path), Some(b_path)) = (args.positional.get(1), args.positional.get(2)) else {
        eprintln!("repro diff needs two artifact paths\n");
        usage();
        std::process::exit(1);
    };
    let read = |path: &str| {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        });
        parse_report(&text).unwrap_or_else(|e| {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(1);
        })
    };
    let d = diff_reports(&read(a_path), &read(b_path)).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    let limit: usize = numeric_flag(args, "--limit", 25);
    println!("config A: {}", d.config_a);
    println!("config B: {}\n", d.config_b);
    println!("{}", d.table(limit).render());
    if let Some(path) = args.value("--json") {
        write_artifact(path, &d.to_json().write());
    }
}

/// Maps `--config unopt|opt` to a kernel configuration for `perf record`.
fn config_preset(args: &Args) -> KernelConfig {
    match args.value("--config") {
        None | Some("opt") => KernelConfig::optimized(),
        Some("unopt") => KernelConfig::unoptimized(),
        Some(other) => bad_value("--config", other, "unopt|opt"),
    }
}

/// `repro perf <record|report|annotate>`: the sampled-profiling surface.
fn perf_main(args: &Args) {
    let sub = args.positional.get(1).map_or("report", String::as_str);
    if !["record", "report", "annotate"].contains(&sub) {
        eprintln!("unknown perf subcommand {sub:?} (expected record|report|annotate)\n");
        usage();
        std::process::exit(1);
    }
    let data = match args.value("--in") {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            });
            artifact::parse(&text)
                .and_then(|doc| PerfData::from_json(&doc))
                .unwrap_or_else(|e| {
                    eprintln!("cannot load {path}: {e}");
                    std::process::exit(1);
                })
        }
        None => {
            let workload = workload_flag(args, "trace_ref");
            let period = args
                .value("--period")
                .map(|p| match p.parse::<u32>() {
                    Ok(n) if n > 0 => n,
                    _ => bad_value("--period", p, "a positive cycle count"),
                })
                .unwrap_or(4096);
            perf_record(args.depth, workload, period, config_preset(args))
        }
    };
    match sub {
        "record" => match args.value("--json") {
            Some(path) => write_artifact(path, &data.to_json().write()),
            None => print!("{}", data.to_json().write()),
        },
        "report" => {
            print!("{}", data.summary());
            println!();
            for t in data.report() {
                println!("{}", t.render());
            }
        }
        _ => print!("{}", data.annotate()),
    }
    if let Some(path) = args.value("--folded") {
        write_artifact(path, &data.folded_lines());
    }
}

fn write_artifact(path: &str, contents: &str) {
    match std::fs::write(path, contents) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn usage() {
    eprintln!("{}", usage_text());
}

/// What each flag does and its default. The parser never reads this: the
/// usage lines declare the flags.
const FLAG_HELP: &str = "\
--depth     quick (CI-sized, default) or full (paper-sized)
--full      shorthand for --depth full
--markdown  render tables as markdown
--csv       render tables as CSV
--json      write the artifact (experiments: the metrics.json run report)
--trace-out write the Chrome trace_event timeline JSON
--workload  perf, tune: matrix workload (compile, fault_storm, trace_ref; \
default trace_ref for perf, fault_storm for tune)
--period    perf: sampling period in cycles (default 4096)
--config    perf record: kernel preset to sample (unopt, opt; default opt)
--in        perf report/annotate: read a profile
--folded    perf: write collapsed stacks (flamegraph input)
--limit     diff: ranked rows to render (default 25)
--seed      chaos: first fuzzer seed (default 1)
--runs      chaos: number of consecutive seeds to run (default 1)
--steps     chaos: fuzzed operations per run (default 400)
--check     chaos: shadow-MM oracle + invariants on|off (default on)
--verbose-from  chaos: print every op from this step on (repro aid)";

/// The full help text. `repro --help` / `repro help` print it to stdout
/// (exit 0); errors print it to stderr. The usage lines, subcommands and
/// experiments are rendered from the registries in the `bench` crate, so
/// the listing cannot drift from what the parser accepts.
fn usage_text() -> String {
    use std::fmt::Write;
    let mut s = String::from("repro — regenerate the paper's tables and figures\n\n");
    for (i, line) in usages().enumerate() {
        let head = if i == 0 { "usage:" } else { "" };
        let _ = writeln!(s, "{head:<6} {line}");
    }
    let _ = writeln!(s, "       repro help | --help\n\nsubcommands:");
    for sub in SUBCOMMANDS {
        let _ = writeln!(s, "  {:<16} {}", sub.name, sub.summary);
    }
    let _ = writeln!(s, "\nexperiments:");
    for e in EXPERIMENTS {
        let _ = writeln!(s, "  {:<16} {}", e.id, e.summary);
    }
    let _ = writeln!(s, "\nartifact schemas:");
    for (schema, producer, desc) in ARTIFACTS {
        let _ = writeln!(s, "  {schema:<26} {producer:<30} {desc}");
    }
    let _ = write!(s, "\n{FLAG_HELP}");
    s
}
