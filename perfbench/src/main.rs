//! The repository benchmark: drives the simulated kernel through its public
//! calls with seeded workloads and reports end-to-end and per-layer metrics.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload compile --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, measured with no spans;
//! `--trace 1` is a separate run that reports the per-layer metrics. The last
//! line of standard output is one JSON object; see `perfbench/README.md`.

mod exec;
mod ops;
mod spans;
mod stats;

use std::panic::{self, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use kernel_sim::check::CheckConfig;
use kernel_sim::{KernelConfig, PmuConfig, TailConfig, TelemetryConfig};
use ppc_machine::{MachineConfig, PmcEvent, SimTime};

use exec::{Mode, Rep, Tally};
use ops::Shape;
use spans::{Layer, Span, SpanLog};
use stats::{best_tenth_mean, median, percentile, quartiles, tail_percentile};

/// Repetitions each run makes at least, however long they take.
const MIN_REPS: usize = 5;

/// Traced repetitions whose spans give the per-layer samples: a fixed
/// count, so each metric's sample count, and with it the tail percentile,
/// is the same on every run of a workload.
const TRACE_REPS: usize = 5;

/// Timed boots behind `kernel.boot.host_ms`.
const BOOT_SAMPLES: usize = 200;

/// The most of a traced repetition's wall time that may fall outside its
/// calls' spans before the run counts as failed (runs leave about 0.001).
const UNATTRIBUTED_LIMIT: f64 = 0.02;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Compile,
    Churn,
    CompileObserved,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "compile" => Some(Workload::Compile),
            "churn" => Some(Workload::Churn),
            "compile_observed" => Some(Workload::CompileObserved),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Compile => "compile",
            Workload::Churn => "churn",
            Workload::CompileObserved => "compile_observed",
        }
    }

    fn shape(self) -> Shape {
        match self {
            Workload::Churn => Shape::Churn,
            Workload::Compile | Workload::CompileObserved => Shape::Compile,
        }
    }

    fn config(self) -> KernelConfig {
        match self {
            Workload::Compile => KernelConfig::optimized(),
            Workload::Churn => KernelConfig::unoptimized(),
            // Every purely observational observer armed: none of them may
            // change a simulated cycle or counter.
            Workload::CompileObserved => KernelConfig {
                trace: true,
                pmu: Some(PmuConfig::counting(
                    PmcEvent::TlbMissBoth,
                    PmcEvent::CacheMissBoth,
                )),
                telemetry: Some(TelemetryConfig::default_epochs()),
                check: Some(CheckConfig::full()),
                tail: Some(TailConfig::auto()),
                ..KernelConfig::optimized()
            },
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let workload = Workload::parse(&workload).ok_or(format!("unknown workload {workload:?}"))?;
    let num = |flag: &str, v: String| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
    let seed = num("--seed", get("--seed")?)?;
    let seconds = num("--seconds", get("--seconds")?)?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Runs one repetition, turning a panic (a kernel invariant or checker
/// violation) into a failed call.
fn try_rep(
    w: Workload,
    seed: u64,
    cfg: KernelConfig,
    mode: Mode,
    tally: &mut Tally,
) -> Option<Rep> {
    match panic::catch_unwind(AssertUnwindSafe(|| exec::rep(w.shape(), seed, cfg, mode))) {
        Ok(r) => {
            tally.add(&r.tally);
            Some(r)
        }
        Err(p) => {
            let msg = p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            tally.attempted += 1;
            tally.fail(format!("panic: {msg}"));
            None
        }
    }
}

/// Checks that `r` reproduced the reference repetition's counters exactly.
fn same_counters(reference: &Rep, r: &Rep, what: &str, tally: &mut Tally) {
    if (reference.start, reference.end) != (r.start, r.end) {
        tally.fail(format!(
            "{what}: simulated counters differ from the first repetition"
        ));
    }
}

fn run_cycles(r: &Rep) -> u64 {
    r.end.mon.cycles - r.start.mon.cycles
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// Host memory high-water mark of this process, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Core count and CPU model, printed with every result.
fn host_fingerprint() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".into());
    format!("cores={cores} cpu={model:?}")
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn sim_ms(cycles: u64) -> f64 {
    SimTime::new(cycles, MachineConfig::ppc604_133().clock_mhz).as_ms()
}

/// `--trace 0`: repetitions until the time is up; the fastest tenth of them.
fn measure(a: &Args, tally: &mut Tally) -> Vec<Metric> {
    let cfg = a.workload.config();
    let Some(reference) = try_rep(a.workload, a.seed, cfg, Mode::Plain, tally) else {
        return Vec::new();
    };
    let deadline = Duration::from_secs(a.seconds);
    let t = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || t.elapsed() < deadline {
        let Some(r) = try_rep(a.workload, a.seed, cfg, Mode::Plain, tally) else {
            break;
        };
        same_counters(&reference, &r, "repetition", tally);
        reps.push(r);
    }
    if a.workload == Workload::CompileObserved {
        // The observers must be invisible: the plain compile of the same
        // stream has to match every counter.
        if let Some(plain) = try_rep(
            a.workload,
            a.seed,
            Workload::Compile.config(),
            Mode::Plain,
            tally,
        ) {
            same_counters(&reference, &plain, "compile_observed vs compile", tally);
        }
    }
    let cycles = run_cycles(&reference);
    let rate: Vec<f64> = reps
        .iter()
        .map(|r| cycles as f64 * 1e3 / r.run_ns as f64)
        .collect();
    let setup: Vec<f64> = reps.iter().map(|r| r.setup_ns as f64 / 1e9).collect();
    // This host's speed drifts between levels up to 2x apart, for seconds
    // to minutes at a time (co-tenants contending for the memory system), so
    // a run reports the mean of its fastest tenth of repetitions: the ones
    // the co-tenants slowed least. The median and quartiles are printed
    // alongside.
    let best_rate = best_tenth_mean(&rate, true);
    let best_setup = best_tenth_mean(&setup, false);
    let rss = peak_rss_mib();
    let (r1, r3) = quartiles(&rate);
    let (s1, s3) = quartiles(&setup);
    println!(
        "perfbench {} seed={} reps={} sim_mcycles_per_host_s best_tenth={best_rate:.2} median={:.2} q1={r1:.2} q3={r3:.2} \
         setup_s best_tenth={best_setup:.6} median={:.6} q1={s1:.6} q3={s3:.6} sim_cycles={cycles} burst_refs={} killed={} \
         stream_fnv={:016x}",
        a.workload.name(),
        a.seed,
        reps.len(),
        median(&rate),
        median(&setup),
        reference.burst_refs,
        tally.killed,
        ops::generate(a.workload.shape(), a.seed).digest()
    );
    vec![
        metric("sim_mcycles_per_host_s", best_rate, "Mcycles/s"),
        metric("setup_s", best_setup, "s"),
        metric("peak_rss_mib", rss, "MiB"),
        metric("sim_ms", sim_ms(cycles), "ms"),
    ]
}

/// Every non-root span of `layer` in `logs`.
fn spans_of<'a>(logs: &'a [&SpanLog], layer: Layer) -> impl Iterator<Item = &'a Span> + 'a {
    logs.iter()
        .flat_map(|l| l.spans[1..].iter())
        .filter(move |s| s.layer == layer)
}

/// One sample per span of `layer`: ns per unit of work, times `scale`.
fn layer_samples(logs: &[&SpanLog], layer: Layer, scale: f64) -> Vec<f64> {
    spans_of(logs, layer)
        .map(|s| s.ns() as f64 / s.deltas.work.max(1) as f64 * scale)
        .collect()
}

/// Pushes `name` (median) and `name.tail` (the tail percentile) for samples.
fn timing(
    out: &mut Vec<Metric>,
    notes: &mut Vec<String>,
    name: &str,
    unit: &'static str,
    xs: &[f64],
) {
    let p = tail_percentile(xs.len());
    out.push(metric(name, median(xs), unit));
    out.push(metric(format!("{name}.tail"), percentile(xs, p), unit));
    notes.push(format!("{name}: n={} tail=p{p}", xs.len()));
}

/// `--trace 1`: untraced and traced repetitions in alternation until the
/// time is up, then the per-layer metrics from the first [`TRACE_REPS`]
/// traced ones.
fn trace_run(a: &Args, tally: &mut Tally) -> Vec<Metric> {
    let cfg = a.workload.config();
    let observed = a.workload == Workload::CompileObserved;
    let Some(reference) = try_rep(a.workload, a.seed, cfg, Mode::Plain, tally) else {
        return Vec::new();
    };
    let deadline = Duration::from_secs(a.seconds);
    let t = Instant::now();
    let (mut plain, mut traced, mut base) = (Vec::new(), Vec::new(), Vec::new());
    while traced.len() < TRACE_REPS || t.elapsed() < deadline {
        let Some(p) = try_rep(a.workload, a.seed, cfg, Mode::Plain, tally) else {
            break;
        };
        same_counters(&reference, &p, "untraced repetition", tally);
        plain.push(p);
        let Some(s) = try_rep(a.workload, a.seed, cfg, Mode::Spans, tally) else {
            break;
        };
        same_counters(&reference, &s, "traced repetition", tally);
        traced.push(s);
        if observed {
            // The same stream with no observers, traced the same way: the
            // base the observers' per-reference overhead is measured from.
            let Some(b) = try_rep(
                a.workload,
                a.seed,
                Workload::Compile.config(),
                Mode::Spans,
                tally,
            ) else {
                break;
            };
            same_counters(&reference, &b, "compile vs compile_observed", tally);
            base.push(b);
        }
    }
    // Exact simulated self time per subsystem: the observed workload's
    // tracer already keeps it; the others get one profiler-armed repetition.
    let prof = if observed {
        reference.prof.clone()
    } else {
        try_rep(a.workload, a.seed, cfg, Mode::Prof, tally).and_then(|r| {
            same_counters(&reference, &r, "profiled repetition", tally);
            r.prof
        })
    };
    if traced.len() < TRACE_REPS || (observed && base.len() < TRACE_REPS) {
        return Vec::new();
    }
    let logs: Vec<&SpanLog> = traced[..TRACE_REPS]
        .iter()
        .filter_map(|r| r.spans.as_ref())
        .collect();

    // Reconciliation. The layers' self times and the root's own self time
    // add up to the root span by construction. What can fail is coverage:
    // the calls' spans must cover all but `UNATTRIBUTED_LIMIT` of the wall
    // time measured around the call list from outside the span log. The
    // rest (counter reads, span bookkeeping) is the unattributed part.
    let (mut wall_total, mut unattributed) = (0u64, 0u64);
    let mut by_layer = [0u64; Layer::ALL.len()];
    for r in &traced[..TRACE_REPS] {
        let log = r.spans.as_ref().expect("traced repetitions keep spans");
        let layers = log.self_by_layer();
        let attributed = layers.iter().sum::<u64>() - layers[Layer::Root as usize];
        let rest = r.run_ns.saturating_sub(attributed);
        if attributed > r.run_ns || rest as f64 > UNATTRIBUTED_LIMIT * r.run_ns as f64 {
            tally.fail(format!(
                "spans cover {attributed} ns of a {} ns traced repetition",
                r.run_ns
            ));
        }
        wall_total += r.run_ns;
        unattributed += rest;
        for (acc, v) in by_layer.iter_mut().zip(layers) {
            *acc += v;
        }
    }

    let mut out = Vec::new();
    let mut notes = Vec::new();
    let bursts: (u64, u64) = spans_of(&logs, Layer::Burst)
        .fold((0, 0), |(w, f), s| (w + s.deltas.work, f + s.deltas.fast));
    let ref_ns = layer_samples(&logs, Layer::Burst, 1.0);
    timing(&mut out, &mut notes, "machine.ref.host_ns", "ns", &ref_ns);
    out.push(metric(
        "machine.fast_ref_share",
        ratio(bursts.1 as f64, bursts.0 as f64),
        "share",
    ));

    let stats = reference.end.stats.diff(&reference.start.stats);
    let mon = reference.end.mon.delta(&reference.start.mon);
    let translations = mon.itlb.lookups + mon.dtlb.lookups + mon.ibat_hits + mon.dbat_hits;
    let inserts = reference.end.htab.inserts - reference.start.htab.inserts;
    out.extend([
        metric(
            "mmu.tlb_misses_per_kref",
            ratio(mon.tlb_misses() as f64 * 1e3, translations as f64),
            "1/kref",
        ),
        metric(
            "mmu.htab_hit_ratio",
            ratio(
                stats.htab_hits as f64,
                (stats.htab_hits + stats.htab_misses) as f64,
            ),
            "share",
        ),
        metric(
            "mmu.evict_live_ratio",
            ratio(stats.evict_live as f64, inserts as f64),
            "share",
        ),
        metric(
            "cache.dmiss_per_kref",
            ratio(mon.dcache.misses as f64 * 1e3, mon.dcache.accesses as f64),
            "1/kref",
        ),
        metric(
            "cache.imiss_per_kref",
            ratio(mon.icache.misses as f64 * 1e3, mon.icache.accesses as f64),
            "1/kref",
        ),
    ]);

    timing(
        &mut out,
        &mut notes,
        "kernel.fault.host_us_per_page",
        "us",
        &layer_samples(&logs, Layer::Fault, 1e-3),
    );
    for (name, layer) in [
        ("kernel.fork.host_us", Layer::Fork),
        ("kernel.exec.host_us", Layer::Exec),
        ("kernel.exit.host_us", Layer::Exit),
        ("kernel.mmap.host_us", Layer::Mmap),
        ("kernel.munmap.host_us", Layer::Munmap),
        ("kernel.switch.host_us", Layer::Switch),
        ("kernel.pipe.host_us", Layer::Pipe),
        ("kernel.signal.host_us", Layer::Signal),
        ("kernel.read.host_us", Layer::Read),
    ] {
        // One sample per whole call, however much work it did.
        let xs: Vec<f64> = spans_of(&logs, layer)
            .map(|s| s.ns() as f64 / 1e3)
            .collect();
        timing(&mut out, &mut notes, name, "us", &xs);
    }
    let munmaps: (u64, u64) =
        spans_of(&logs, Layer::Munmap).fold((0, 0), |(n, p), s| (n + 1, p + s.deltas.work));
    out.push(metric(
        "kernel.flush.pages_per_munmap",
        ratio(munmaps.1 as f64, munmaps.0 as f64),
        "pages",
    ));
    out.push(metric("kernel.oom_kills", stats.oom_kills as f64, "count"));
    out.push(metric(
        "kernel.reclaimed_pages",
        stats.reclaimed_pages as f64,
        "count",
    ));
    timing(
        &mut out,
        &mut notes,
        "kernel.idle.host_ns_per_kcycle",
        "ns",
        &layer_samples(&logs, Layer::Idle, 1e3),
    );
    out.push(metric(
        "kernel.idle.pages_cleared",
        stats.idle_pages_cleared as f64,
        "count",
    ));
    let boots: Vec<f64> = (0..BOOT_SAMPLES)
        .map(|_| exec::boot_ns(cfg) as f64 / 1e6)
        .collect();
    timing(&mut out, &mut notes, "kernel.boot.host_ms", "ms", &boots);

    let ref_overhead = if observed {
        let base_logs: Vec<&SpanLog> = base[..TRACE_REPS]
            .iter()
            .filter_map(|r| r.spans.as_ref())
            .collect();
        median(&ref_ns) - median(&layer_samples(&base_logs, Layer::Burst, 1.0))
    } else {
        0.0
    };
    out.push(metric("observers.ref_overhead_ns", ref_overhead, "ns"));
    out.push(metric(
        "observers.check_observations",
        reference.check.0 as f64,
        "count",
    ));
    out.push(metric(
        "observers.heavy_sweeps",
        reference.check.1 as f64,
        "count",
    ));

    let prof = prof.unwrap_or_default();
    let prof_total: u64 = prof.iter().map(|p| p.1).sum();
    if prof_total != run_cycles(&reference) {
        tally.fail(format!(
            "profiler total {prof_total} != run cycles {}",
            run_cycles(&reference)
        ));
    }
    for (name, c) in &prof {
        out.push(metric(
            format!("sim.self_share.{name}"),
            ratio(*c as f64, prof_total as f64),
            "share",
        ));
    }

    let wall = wall_total as f64;
    out.push(metric(
        "driver.unattributed_share",
        ratio(unattributed as f64, wall),
        "share",
    ));
    // The fastest tenth of each kind, for the reason `measure` gives.
    let fastest = |reps: &[Rep]| {
        let ns: Vec<f64> = reps.iter().map(|r| r.run_ns as f64).collect();
        best_tenth_mean(&ns, false)
    };
    let (plain_ns, traced_ns) = (fastest(&plain), fastest(&traced));
    out.push(metric(
        "trace.overhead_share",
        ratio(traced_ns - plain_ns, traced_ns),
        "share",
    ));
    for layer in Layer::ALL
        .into_iter()
        .filter(|&l| l != Layer::Root)
    {
        let share = ratio(by_layer[layer as usize] as f64, wall);
        out.push(metric(
            format!("self_share.{}", layer.name()),
            share,
            "share",
        ));
    }

    if let Some(log) = logs.last() {
        write_spans(a, log);
    }
    println!(
        "perfbench {} seed={} traced_reps={} untraced_reps={} wall_ns={wall_total} spans={} \
         no layer queues: one thread makes every call, so no span waits",
        a.workload.name(),
        a.seed,
        traced.len(),
        plain.len(),
        logs.iter().map(|l| l.spans.len()).sum::<usize>()
    );
    println!("perfbench tails: {}", notes.join("; "));
    out
}

/// Writes the last traced repetition's spans next to the benchmark.
fn write_spans(a: &Args, log: &SpanLog) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{}.tsv", a.workload.name(), a.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            log.write_tsv(&mut w)?;
            std::io::Write::flush(&mut w)
        });
    match written {
        Ok(()) => println!("perfbench spans: {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

fn json(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{:?}: {{\"value\": {}, \"unit\": {:?}}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload compile|churn|compile_observed --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    // Panics are counted as failed calls; their messages still go to stderr.
    let mut tally = Tally::default();
    let metrics = if args.trace {
        trace_run(&args, &mut tally)
    } else {
        measure(&args, &mut tally)
    };
    println!("perfbench host: {}", host_fingerprint());
    if let Some(f) = &tally.first_failure {
        println!("perfbench first failure: {f}");
    }
    let correct = tally.failed == 0 && !metrics.is_empty();
    println!("{}", json(correct, &tally, &metrics));
    ExitCode::SUCCESS
}
