//! `repro` — regenerate every table and figure of *Optimizing the Idle Task
//! and Other MMU Tricks* (OSDI 1999).
//!
//! ```text
//! cargo run -p bench --release --bin repro -- <experiment|all> \
//!     [--depth quick|full] [--full] [--markdown|--csv] \
//!     [--json <path>] [--trace-out <path>]
//! ```
//!
//! `--json` writes a machine-readable run report: every rendered table plus
//! the `metrics.json` payload of the observed reference run (cycle
//! attribution, latency percentiles with the exact p99, the ranked tail
//! causes and exemplars, PTEG heatmap, telemetry). `repro trace` prints
//! that run's tables. `--trace-out` writes the trace ring as a Chrome
//! `trace_event` timeline. Both artifacts are deterministic, so they diff
//! across commits.
//!
//! Subcommands sit next to the experiments:
//!
//! ```text
//! repro matrix [--json <path>]                    # machine × config × workload grid
//! repro diff A.json B.json [--json <path>]        # structured artifact comparison
//! repro chaos [--seed N] [--runs N] [--steps N]   # adversarial fuzzing under the checker
//!             [--check on|off] [--verbose-from N] [--json <path>]
//! repro perf record [--workload compile|fault_storm|trace_ref] [--period N]
//!                   [--config unopt|opt] [--json <path>]
//! repro perf report [--in <path>] [--folded <path>]
//! repro perf annotate [--in <path>]
//! repro causal [--json <path>]                    # exact virtual-speedup payoff curves
//! ```
//!
//! `perf record` samples a matrix workload with the modeled 604 PMU and
//! writes the `mmu-tricks-perf-v1` artifact; `report`/`annotate` render
//! one (or record in memory when no `--in` is given); `--folded` exports
//! collapsed stacks for flamegraph tooling. `repro diff` compares any two
//! artifacts of one schema, two profiles included, and refuses when their
//! identity axes disagree — only the kernel-config axis may differ between
//! the two sides.
//!
//! A typo'd flag or flag value exits 2 and names it. `matrix`, `tune` and
//! `causal` run on every available core; their output is byte-identical
//! for any worker count. `ARTIFACTS.lock` pins every artifact's digest at
//! quick depth.

use bench::{
    depth_from_args, flag_value, positional_args, unknown_flags, ARTIFACTS, EXPERIMENTS,
    SUBCOMMANDS,
};
use mmu_tricks::artifact::{self, Json};
use mmu_tricks::chaos::{chaos_report, fleet_json, ChaosConfig};
use mmu_tricks::diff::{diff_reports, parse_report};
use mmu_tricks::experiments as ex;
use mmu_tricks::experiments::TraceArtifacts;
use mmu_tricks::matrix::{run_matrix, WORKLOADS};
use mmu_tricks::perf::{perf_record, PerfData};
use mmu_tricks::tables::Table;
use mmu_tricks::tune::tune_workload;
use mmu_tricks::{Depth, KernelConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let markdown = args.iter().any(|a| a == "--markdown");
    let csv = args.iter().any(|a| a == "--csv");
    let json_path = flag_value(&args, "--json");
    let trace_out = flag_value(&args, "--trace-out");
    let wanted = positional_args(&args);
    if args.iter().any(|a| a == "--help") || wanted.first() == Some(&"help") {
        println!("{}", usage_text());
        return;
    }
    let bad = unknown_flags(&args);
    if !bad.is_empty() {
        eprintln!("unknown flag(s): {}\n", bad.join(" "));
        usage();
        std::process::exit(2);
    }
    if wanted.is_empty() {
        eprintln!("missing experiment or subcommand\n");
        usage();
        std::process::exit(2);
    }
    let depth = depth_from_args(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    match wanted[0] {
        "chaos" => return chaos_main(&args),
        "perf" => return perf_main(&args, depth),
        "matrix" => return matrix_main(&args, depth),
        "tune" => return tune_main(&args, depth),
        "diff" => return diff_main(&args, &wanted),
        "causal" => return causal_main(&args, depth),
        _ => {}
    }
    let run_all = wanted.contains(&"all");
    let mut ran = 0;
    let style = if csv {
        Style::Csv
    } else if markdown {
        Style::Markdown
    } else {
        Style::Plain
    };
    let mut out = RunOutput::default();
    for (id, _) in EXPERIMENTS {
        if run_all || wanted.contains(id) {
            run(id, depth, style, &mut out);
            ran += 1;
        }
    }
    if ran == 0 {
        eprintln!("unknown experiment(s): {wanted:?}\n");
        usage();
        std::process::exit(1);
    }
    if let Some(path) = json_path {
        let report = out.run_report(depth);
        write_artifact(&path, &report.write());
    }
    if let Some(path) = trace_out {
        let timeline = out.ensure_artifacts(depth).timeline_json();
        write_artifact(&path, &timeline.write());
    }
}

/// `repro matrix`: the full machine × config × workload grid.
fn matrix_main(args: &[String], depth: Depth) {
    let grid = run_matrix(depth);
    match flag_value(args, "--json") {
        Some(path) => write_artifact(&path, &grid.to_json().write()),
        None => {
            for t in grid.tables() {
                println!("{}", t.render());
            }
        }
    }
}

/// `repro tune`: offline coordinate descent per machine, emitting the
/// `mmu-tricks-tune-v1` artifact naming each winning configuration.
fn tune_main(args: &[String], depth: Depth) {
    let result = tune_workload(workload_flag(args, "fault_storm"), depth);
    match flag_value(args, "--json") {
        Some(path) => write_artifact(&path, &result.to_json().write()),
        None => println!("{}", result.table().render()),
    }
}

/// Exits 2 naming a flag's bad value: a typo'd value is an error, like a
/// typo'd flag.
fn bad_value(flag: &str, value: &str, expected: &str) -> ! {
    eprintln!("bad {flag} {value:?} (expected {expected})");
    std::process::exit(2);
}

/// The matrix workload named by `--workload` (`default` without one),
/// exiting 2 on any other name.
fn workload_flag(args: &[String], default: &'static str) -> &'static str {
    let wl = flag_value(args, "--workload").unwrap_or_else(|| default.into());
    WORKLOADS
        .iter()
        .copied()
        .find(|w| *w == wl)
        .unwrap_or_else(|| bad_value("--workload", &wl, &WORKLOADS.join("|")))
}

/// Parses a numeric `--flag N`, exiting 2 on garbage.
fn numeric_flag<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    match flag_value(args, flag) {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| bad_value(flag, &v, "a number")),
    }
}

/// `repro chaos`: seeded adversarial fuzzing with the shadow-MM oracle,
/// runtime invariants, and the full-spectrum fault injector. Exits nonzero
/// on the first violation, printing the seed, step, config, and a
/// one-command repro line.
fn chaos_main(args: &[String]) {
    let seed0: u64 = numeric_flag(args, "--seed", 1);
    let runs: u64 = numeric_flag(args, "--runs", 1);
    let steps: u32 = numeric_flag(args, "--steps", 400);
    let verbose_from = flag_value(args, "--verbose-from").map(|v| {
        v.parse::<u32>()
            .unwrap_or_else(|_| bad_value("--verbose-from", &v, "a step number"))
    });
    let check = match flag_value(args, "--check").as_deref() {
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
    if let Some(path) = flag_value(args, "--json") {
        write_artifact(&path, &fleet_json(check, steps, &lines).write());
    }
    if failures > 0 {
        eprintln!("{failures} chaos run(s) FAILED");
        std::process::exit(1);
    }
}

/// `repro diff A.json B.json`: structured report comparison.
fn diff_main(args: &[String], wanted: &[&str]) {
    let (Some(a_path), Some(b_path)) = (wanted.get(1), wanted.get(2)) else {
        eprintln!("usage: repro diff <a.json> <b.json> [--json <path>] [--limit N]\n");
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
    if let Some(path) = flag_value(args, "--json") {
        write_artifact(&path, &d.to_json().write());
    }
}

/// Maps `--config unopt|opt` to a kernel configuration for `perf record`.
fn config_preset(args: &[String]) -> KernelConfig {
    match flag_value(args, "--config").as_deref() {
        None | Some("opt") => KernelConfig::optimized(),
        Some("unopt") => KernelConfig::unoptimized(),
        Some(other) => bad_value("--config", other, "unopt|opt"),
    }
}

/// `repro perf <record|report|annotate>`: the sampled-profiling surface.
fn perf_main(args: &[String], depth: Depth) {
    let sub = positional_args(args).get(1).copied().unwrap_or("report");
    if !["record", "report", "annotate"].contains(&sub) {
        eprintln!("unknown perf subcommand {sub:?} (expected record|report|annotate)\n");
        usage();
        std::process::exit(1);
    }
    let data = match flag_value(args, "--in") {
        Some(path) => {
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
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
            let period = flag_value(args, "--period")
                .map(|p| match p.parse::<u32>() {
                    Ok(n) if n > 0 => n,
                    _ => bad_value("--period", &p, "a positive cycle count"),
                })
                .unwrap_or(4096);
            perf_record(depth, workload, period, config_preset(args))
        }
    };
    match sub {
        "record" => match flag_value(args, "--json") {
            Some(path) => write_artifact(&path, &data.to_json().write()),
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
    if let Some(path) = flag_value(args, "--folded") {
        write_artifact(&path, &data.folded_lines());
    }
}

/// `repro causal`: exact what-if profiling — re-runs the deterministic
/// grid under virtual speedups of each instrumented path and subsystem,
/// printing payoff curves and the marginal ranking ("1% faster X buys Y
/// ppm end-to-end"). `--json` writes the `mmu-tricks-causal-v1` artifact.
fn causal_main(args: &[String], depth: Depth) {
    let (report, tables) = mmu_tricks::causal::causal_report(depth);
    match flag_value(args, "--json") {
        Some(path) => write_artifact(&path, &report.to_json().write()),
        None => {
            for t in &tables {
                println!("{}", t.render());
            }
        }
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

/// The full help text. `repro --help` / `repro help` print it to stdout
/// (exit 0); errors print it to stderr. Subcommands and experiments are
/// rendered from the registries in the `bench` crate so the listing cannot
/// drift from the dispatcher.
fn usage_text() -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(s, "repro — regenerate the paper's tables and figures\n");
    let _ = writeln!(
        s,
        "usage: repro <experiment...|all> [--depth quick|full] [--full] \
         [--markdown|--csv] [--json <path>] [--trace-out <path>]"
    );
    let _ = writeln!(s, "       repro <subcommand> [flags]   (see below)");
    let _ = writeln!(s, "       repro help | --help\n");
    let _ = writeln!(s, "subcommands:");
    for (name, desc) in SUBCOMMANDS {
        let _ = writeln!(s, "  {name:<16} {desc}");
    }
    let _ = writeln!(s, "\nsubcommand usage:");
    let _ = writeln!(s, "  repro matrix [--depth quick|full] [--json <path>]");
    let _ = writeln!(
        s,
        "  repro tune [--workload compile|fault_storm|trace_ref] [--json <path>]"
    );
    let _ = writeln!(s, "  repro diff <a.json> <b.json> [--json <path>] [--limit N]");
    let _ = writeln!(
        s,
        "  repro chaos [--seed N] [--runs N] [--steps N] [--check on|off] \
         [--verbose-from N] [--json <path>]"
    );
    let _ = writeln!(
        s,
        "  repro perf <record|report|annotate> [--workload compile|fault_storm|trace_ref] \
         [--period N] [--config unopt|opt] [--json <path>] [--in <path>] [--folded <path>]"
    );
    let _ = writeln!(s, "  repro causal [--depth quick|full] [--json <path>]\n");
    let _ = writeln!(s, "experiments:");
    for (id, desc) in EXPERIMENTS {
        let _ = writeln!(s, "  {id:<16} {desc}");
    }
    let _ = writeln!(s, "\nartifact schemas:");
    for (schema, producer, desc) in ARTIFACTS {
        let _ = writeln!(s, "  {schema:<26} {producer:<30} {desc}");
    }
    let _ = writeln!(s, "\n--depth     quick (CI-sized, default) or full (paper-sized)");
    let _ = writeln!(s, "--full      shorthand for --depth full");
    let _ = writeln!(s, "--markdown  render tables as markdown");
    let _ = writeln!(s, "--csv       render tables as CSV");
    let _ = writeln!(
        s,
        "--json      write the artifact (experiments: the metrics.json run report)"
    );
    let _ = writeln!(s, "--trace-out write the Chrome trace_event timeline JSON");
    let _ = writeln!(
        s,
        "--workload  perf, tune: matrix workload (compile, fault_storm, trace_ref; \
         default trace_ref for perf, fault_storm for tune)"
    );
    let _ = writeln!(s, "--period    perf: sampling period in cycles (default 4096)");
    let _ = writeln!(
        s,
        "--config    perf record: kernel preset to sample (unopt, opt; default opt)"
    );
    let _ = writeln!(s, "--in        perf report/annotate: read a profile");
    let _ = writeln!(
        s,
        "--folded    perf: write collapsed stacks (flamegraph input)"
    );
    let _ = writeln!(s, "--limit     diff: ranked rows to render (default 25)");
    let _ = writeln!(s, "--seed      chaos: first fuzzer seed (default 1)");
    let _ = writeln!(s, "--runs      chaos: number of consecutive seeds to run (default 1)");
    let _ = writeln!(s, "--steps     chaos: fuzzed operations per run (default 400)");
    let _ = writeln!(
        s,
        "--check     chaos: shadow-MM oracle + invariants on|off (default on)"
    );
    let _ = write!(
        s,
        "--verbose-from  chaos: print every op from this step on (repro aid)"
    );
    s
}

/// Everything a run accumulates for the `--json` / `--trace-out` artifacts.
#[derive(Default)]
struct RunOutput {
    tables: Vec<Table>,
    artifacts: Option<TraceArtifacts>,
}

impl RunOutput {
    /// The traced reference run, computed at most once.
    fn ensure_artifacts(&mut self, depth: Depth) -> &TraceArtifacts {
        if self.artifacts.is_none() {
            self.artifacts = Some(ex::trace_artifacts(depth).0);
        }
        self.artifacts.as_ref().unwrap()
    }

    /// The `--json` run report: the metrics artifact with one object per
    /// rendered table appended. Deterministic — no timestamps, no paths.
    fn run_report(&mut self, depth: Depth) -> Json {
        let tables = Json::arr(self.tables.iter().map(Table::to_json));
        self.ensure_artifacts(depth)
            .metrics_json()
            .field("experiments", tables)
    }
}

/// Output rendering selected on the command line.
#[derive(Clone, Copy)]
enum Style {
    Plain,
    Markdown,
    Csv,
}

fn emit(t: &Table, style: Style, out: &mut RunOutput) {
    match style {
        Style::Markdown => println!("{}", t.render_markdown()),
        Style::Csv => println!("{}", t.render_csv()),
        Style::Plain => println!("{}", t.render()),
    }
    out.tables.push(t.clone());
}

fn run(id: &str, depth: Depth, style: Style, out: &mut RunOutput) {
    match id {
        "fig1" => {
            println!(
                "{}",
                ex::translation_walkthrough(0x3012_3abc, 0x123456, 0x54321)
            );
        }
        "bat" => emit(&ex::exp_bat(depth).1, style, out),
        "hash-util" => emit(&ex::exp_hash_util(depth).1, style, out),
        "fast-reload" => emit(&ex::exp_fast_reload(depth).1, style, out),
        "table1" => emit(&ex::table1(depth).1, style, out),
        "lazy" => emit(&ex::exp_lazy(depth).1, style, out),
        "idle-reclaim" => emit(&ex::exp_idle_reclaim(depth).1, style, out),
        "mmap-cutoff" => emit(&ex::exp_mmap_cutoff(depth).1, style, out),
        "table2" => emit(&ex::table2(depth).1, style, out),
        "cache-pollution" => emit(&ex::exp_cache_pollution(depth).1, style, out),
        "page-clear" => emit(&ex::exp_page_clear(depth).1, style, out),
        "table3" => emit(&ex::table3(depth).1, style, out),
        "extensions" => emit(&ex::exp_extensions(depth).1, style, out),
        "trace" => {
            emit(
                &ex::trace_compile(depth, mmu_tricks::KernelConfig::unoptimized()).1,
                style,
                out,
            );
            emit(
                &ex::trace_compile(depth, mmu_tricks::KernelConfig::optimized()).1,
                style,
                out,
            );
            let (art, tables) = ex::trace_artifacts(depth);
            for t in &tables {
                emit(t, style, out);
            }
            out.artifacts = Some(art);
        }
        "memhier" => emit(&ex::memory_hierarchy(depth).1, style, out),
        "ablate-htab-size" => emit(&ex::ablate_htab_size(depth).1, style, out),
        "ablate-scatter" => emit(&ex::ablate_scatter(depth).1, style, out),
        "ablate-reclaim" => emit(&ex::ablate_reclaim_policy(depth).1, style, out),
        "ablate-tlb" => emit(&ex::ablate_tlb_reach(depth).1, style, out),
        "io-bat" => emit(&ex::exp_io_bat(depth).1, style, out),
        "ablate-replacement" => emit(&ex::ablate_replacement(depth).1, style, out),
        "lmbench-extended" => emit(&ex::extended_suite(depth).1, style, out),
        "multiuser" => emit(&ex::exp_multiuser(depth).1, style, out),
        "pressure" => emit(&ex::exp_pressure(depth).1, style, out),
        "pmu" => emit(&ex::exp_pmu(depth).1, style, out),
        "ematrix" => emit(&ex::exp_matrix(depth).1, style, out),
        "etune" => emit(&ex::exp_tune(depth).1, style, out),
        "echeck" => emit(&ex::exp_check(depth).1, style, out),
        "etail" => emit(&ex::exp_tail(depth).1, style, out),
        "ecausal" => emit(&ex::exp_causal(depth).1, style, out),
        other => unreachable!("unknown experiment {other}"),
    }
}
