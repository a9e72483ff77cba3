//! The determinism contract, pinned. Every registered artifact schema is
//! written by the real `repro` binary at quick depth and must match its
//! `ARTIFACTS.lock` digest byte for byte, parse, diff against itself to
//! zero, and refuse a diff across each identity axis except `config`.
//!
//! The checks that need a process boundary live here too: the CLI's exit
//! codes, a typo'd flag value, and the planted stale-TLB bug that the
//! checker must catch (`MMU_TRICKS_BUG_STALE_TLB`).

use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;

use bench::{ARTIFACTS, EXPERIMENTS, SUBCOMMANDS};
use kernel_sim::fixed_hash::FnvHasher;
use mmu_tricks::artifact::{self, Json};
use mmu_tricks::diff::parse_report;
use mmu_tricks::par_map;
use mmu_tricks::perf::PerfData;

const REPRO: &str = env!("CARGO_BIN_EXE_repro");

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root")
}

/// A fresh directory for this run's outputs, under the target directory.
fn scratch() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("artifacts");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the scratch directory");
        dir
    })
}

fn repro(args: &[&str]) -> Output {
    Command::new(REPRO)
        .args(args)
        .output()
        .expect("spawn the repro binary")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

fn fnv1a(bytes: &[u8]) -> String {
    let mut h = FnvHasher::default();
    h.write(bytes);
    format!("{:016x}", h.finish())
}

/// One `ARTIFACTS.lock` row.
struct Row {
    schema: String,
    digest: String,
    /// The command after `repro`, placeholders unresolved.
    args: Vec<String>,
}

fn lock_text() -> String {
    std::fs::read_to_string(root().join("ARTIFACTS.lock")).expect("ARTIFACTS.lock is committed")
}

fn lock_rows() -> Vec<Row> {
    lock_text()
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert!(
                f.len() > 3 && f[2] == "repro",
                "malformed ARTIFACTS.lock row: {l}"
            );
            Row {
                schema: f[0].to_string(),
                digest: f[1].to_string(),
                args: f[3..].iter().map(|s| s.to_string()).collect(),
            }
        })
        .collect()
}

fn output_path(schema: &str, attempt: u32) -> PathBuf {
    scratch().join(format!("{schema}.{attempt}"))
}

/// Runs a row's command, writing to `out`, and returns the artifact's
/// bytes. `{<schema>}` placeholders read the first recording of that row.
fn run_row(row: &Row, out: &Path) -> Vec<u8> {
    let args: Vec<String> = row
        .args
        .iter()
        .map(
            |a| match a.strip_prefix('{').and_then(|a| a.strip_suffix('}')) {
                Some("out") => out.display().to_string(),
                Some(schema) => output_path(schema, 0).display().to_string(),
                None => a.clone(),
            },
        )
        .collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let o = repro(&args);
    assert!(
        o.status.success(),
        "{}: `repro {}` failed ({}):\n{}",
        row.schema,
        args.join(" "),
        o.status,
        text(&o.stderr)
    );
    std::fs::read(out)
        .unwrap_or_else(|e| panic!("{}: no artifact at {}: {e}", row.schema, out.display()))
}

/// Every lock row recorded once, with its digest. Rows that read another
/// row's output run after the rest; everything else runs at once.
fn recorded() -> &'static [(Row, String)] {
    static RECORDED: OnceLock<Vec<(Row, String)>> = OnceLock::new();
    RECORDED.get_or_init(|| {
        let (dependent, independent): (Vec<Row>, Vec<Row>) = lock_rows()
            .into_iter()
            .partition(|r| r.args.iter().any(|a| a.starts_with("{mmu-tricks-")));
        let mut all = Vec::new();
        for rows in [independent, dependent] {
            let digests = par_map(rows.len(), &rows, |r| {
                fnv1a(&run_row(r, &output_path(&r.schema, 0)))
            });
            all.extend(rows.into_iter().zip(digests));
        }
        all
    })
}

#[test]
fn lock_rows_match_the_registry_and_every_schema_literal() {
    let rows = lock_rows();
    for (schema, _, _) in ARTIFACTS {
        let n = rows.iter().filter(|r| r.schema == *schema).count();
        assert_eq!(
            n, 1,
            "{schema} needs exactly one ARTIFACTS.lock row, has {n}"
        );
    }
    for r in &rows {
        assert!(
            ARTIFACTS.iter().any(|(s, _, _)| *s == r.schema),
            "ARTIFACTS.lock row {} has no registered schema",
            r.schema
        );
        assert_eq!(r.digest.len(), 16, "{}: digest is 16 hex digits", r.schema);
    }
    // Every schema literal in the sources and tests is registered, so an
    // artifact added without a registry row (and so without a lock row)
    // fails here, and so does a fixture naming a retired schema.
    let mut literals = Vec::new();
    for krate in std::fs::read_dir(root().join("crates")).expect("crates/") {
        let krate = krate.expect("crate dir").path();
        for dir in ["src", "tests"] {
            schema_literals(&krate.join(dir), &mut literals);
        }
    }
    assert!(
        !literals.is_empty(),
        "the source scan found no schema literal"
    );
    for (file, schema) in &literals {
        assert!(
            ARTIFACTS.iter().any(|(s, _, _)| s == schema),
            "{schema} (in {}) is not registered in bench::ARTIFACTS",
            file.display()
        );
    }
}

/// Collects every `mmu-tricks-<kind>-v<n>` literal under `dir`.
fn schema_literals(dir: &Path, out: &mut Vec<(PathBuf, String)>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            schema_literals(&path, out);
            continue;
        }
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("readable source");
        for (i, _) in src.match_indices("mmu-tricks-") {
            let rest = &src[i + "mmu-tricks-".len()..];
            let kind = rest.bytes().take_while(u8::is_ascii_lowercase).count();
            let Some(after) = rest[kind..].strip_prefix("-v") else {
                continue;
            };
            let version = after.bytes().take_while(u8::is_ascii_digit).count();
            if kind > 0 && version > 0 {
                let len = "mmu-tricks-".len() + kind + 2 + version;
                out.push((path.clone(), src[i..i + len].to_string()));
            }
        }
    }
}

#[test]
fn every_artifact_matches_its_lock_digest() {
    let mut fresh = lock_text();
    let mut problems = Vec::new();
    let mut reproducible = true;
    for (row, digest) in recorded() {
        if *digest == row.digest {
            continue;
        }
        // Re-run once: a second run that agrees with the first is a
        // deliberate change to adopt; one that does not is a bug.
        let again = fnv1a(&run_row(row, &output_path(&row.schema, 1)));
        if again == *digest {
            problems.push(format!(
                "{}: changed (lock {}, now {digest})",
                row.schema, row.digest
            ));
        } else {
            reproducible = false;
            problems.push(format!(
                "{}: not reproducible (lock {}, two runs gave {digest} and {again})",
                row.schema, row.digest
            ));
        }
        fresh = fresh.replacen(&row.digest, digest, 1);
    }
    if problems.is_empty() {
        return;
    }
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join("ARTIFACTS.lock");
    std::fs::write(&path, fresh).expect("write the fresh lock");
    let adopt = if reproducible {
        format!(
            "if the change is deliberate, adopt the fresh lock and say why in CHANGES.md:\n  \
             cp {} {}",
            path.display(),
            root().join("ARTIFACTS.lock").display()
        )
    } else {
        "a nondeterministic artifact cannot be pinned: fix it first".to_string()
    };
    panic!(
        "artifact digests differ from ARTIFACTS.lock:\n  {}\n{adopt}",
        problems.join("\n  ")
    );
}

/// `doc` with its top-level `axis` string replaced by `value`.
fn with_axis(doc: &Json, axis: &str, value: &str) -> Json {
    let mut doc = doc.clone();
    if let Json::Obj(fields) = &mut doc {
        for (_, v) in fields.iter_mut().filter(|(k, _)| k == axis) {
            *v = Json::from(value);
        }
    }
    doc
}

#[test]
fn artifacts_parse_self_diff_to_zero_and_refuse_every_axis_but_config() {
    for (row, _) in recorded() {
        let schema = row.schema.as_str();
        let path = output_path(schema, 0);
        let p = path.display().to_string();
        let body = std::fs::read_to_string(&path).expect("recorded artifact");
        let doc = artifact::parse(&body).unwrap_or_else(|e| panic!("{schema}: {e}"));
        assert_eq!(
            doc.write(),
            body,
            "{schema} is not in the one artifact layout"
        );
        assert!(
            doc.axes().contains(&("schema", schema)),
            "{schema}: schema axis"
        );

        let self_diff = scratch().join(format!("{schema}.self-diff"));
        let o = repro(&["diff", &p, &p, "--json", &self_diff.display().to_string()]);
        assert!(
            o.status.success(),
            "{schema}: self-diff failed: {}",
            text(&o.stderr)
        );
        let d = parse_report(&std::fs::read_to_string(&self_diff).expect("diff artifact"))
            .expect("diff artifact parses");
        assert_eq!(
            d.numbers.get("changed"),
            Some(&0),
            "{schema}: self-diff changed leaves"
        );

        for (axis, value) in doc.axes() {
            let other = scratch().join(format!("{schema}.{axis}"));
            let moved = format!("{value}-other");
            std::fs::write(&other, with_axis(&doc, axis, &moved).write()).expect("write");
            let o = repro(&["diff", &p, &other.display().to_string()]);
            if axis == "config" {
                assert!(
                    o.status.success(),
                    "{schema}: a config diff is the use case"
                );
                assert!(text(&o.stdout).contains(&format!("config B: {moved}")));
            } else {
                assert_eq!(
                    o.status.code(),
                    Some(1),
                    "{schema}: {axis} mismatch accepted"
                );
                let err = text(&o.stderr);
                assert!(err.contains(&format!("{axis} mismatch")), "{schema}: {err}");
            }
        }
    }
}

/// The `ARTIFACTS.lock` row that records the perf profile.
fn perf_row() -> &'static Row {
    let (row, _) = recorded()
        .iter()
        .find(|(r, _)| r.schema == "mmu-tricks-perf-v1")
        .expect("ARTIFACTS.lock has a perf row");
    row
}

fn read_json(path: &Path) -> Json {
    let body = std::fs::read_to_string(path).expect("recorded artifact");
    artifact::parse(&body).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn perf_data_parses_diffs_and_refuses_foreign_profiles() {
    // The lock row's profile is the optimized kernel; record the same
    // workload and period on the unoptimized one.
    let row = perf_row();
    let opt = output_path(&row.schema, 0);
    let unopt = scratch().join("perf-unopt.json");
    let mut args = row.args.clone();
    args.extend(["--config".to_string(), "unopt".to_string()]);
    let unopt_row = Row {
        schema: row.schema.clone(),
        digest: String::new(),
        args,
    };
    run_row(&unopt_row, &unopt);
    for path in [&opt, &unopt] {
        let doc = read_json(path);
        let profile = PerfData::from_json(&doc).expect("a recorded profile loads");
        assert_eq!(profile.to_json(), doc, "{} round-trips", path.display());
    }

    // Only the config axis differs, so `repro diff` accepts the pair.
    let (u, o) = (unopt.display().to_string(), opt.display().to_string());
    let diff = scratch().join("perf-unopt-opt.diff");
    let out = repro(&["diff", &u, &o, "--json", &diff.display().to_string()]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    let Some(Json::Arr(deltas)) = read_json(&diff).get("deltas").cloned() else {
        panic!("the diff artifact has no deltas");
    };
    let delta_of = |d: &Json| match (d.get("key"), d.get("delta")) {
        (Some(Json::Str(k)), Some(&Json::Num(n))) => (k.clone(), n),
        _ => panic!("malformed delta {d:?}"),
    };
    let deltas: Vec<(String, i64)> = deltas.iter().map(delta_of).collect();
    let delta = |key: &str| deltas.iter().find(|(k, _)| k == key).map_or(0, |d| d.1);
    assert!(delta("total_cycles") < 0, "opt must beat unopt: {deltas:?}");
    let folded: Vec<i64> = deltas
        .iter()
        .filter(|(k, _)| k.starts_with("folded."))
        .map(|d| d.1)
        .collect();
    assert!(
        folded.iter().any(|&d| d > 0) && folded.iter().any(|&d| d < 0),
        "the flamegraph diff has stacks of both signs: {folded:?}"
    );
    assert_eq!(
        folded.iter().sum::<i64>(),
        delta("weighted_samples"),
        "per-stack deltas account for every sample"
    );

    // A foreign artifact is refused, whatever its numbers.
    let matrix = output_path("mmu-tricks-matrix-v1", 0);
    let out = repro(&["diff", &o, &matrix.display().to_string()]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "a profile diffed against the matrix"
    );
    assert!(text(&out.stderr).contains("schema mismatch"));
}

#[test]
fn perf_report_in_prints_what_an_in_memory_recording_prints() {
    // `perf report` with the lock row's recording flags, once recording in
    // memory and once reading the row's artifact.
    let row = perf_row();
    let mut live = Vec::new();
    let mut args = row.args.iter().map(String::as_str);
    while let Some(a) = args.next() {
        match a {
            "record" => live.push("report"),
            "--json" => {
                args.next();
            }
            a => live.push(a),
        }
    }
    let path = output_path(&row.schema, 0).display().to_string();
    let from_file = repro(&["perf", "report", "--in", &path]);
    let in_memory = repro(&live);
    for o in [&from_file, &in_memory] {
        assert!(o.status.success(), "{}", text(&o.stderr));
    }
    assert_eq!(text(&from_file.stdout), text(&in_memory.stdout));
    assert!(text(&from_file.stdout).contains("weighted_samples "));
}

#[test]
fn help_usage_and_exit_codes_keep_their_contract() {
    let help = repro(&["--help"]);
    assert!(help.status.success(), "--help exits 0");
    let out = text(&help.stdout);
    assert!(out.contains("usage:"), "--help prints usage on stdout");
    for s in SUBCOMMANDS {
        assert!(
            out.contains(&format!("\n  {} ", s.name)),
            "--help lists {}",
            s.name
        );
        assert!(
            out.contains(s.usage),
            "--help prints {}'s usage line",
            s.name
        );
    }
    for e in EXPERIMENTS {
        assert!(
            out.contains(&format!("\n  {} ", e.id)),
            "--help lists {}",
            e.id
        );
    }
    for (schema, _, _) in ARTIFACTS {
        assert!(out.contains(schema), "--help lists {schema}");
    }
    let none = repro(&[]);
    assert_eq!(none.status.code(), Some(2));
    assert!(none.stdout.is_empty() && text(&none.stderr).contains("usage:"));
    // `tail` and `report` are gone: `repro trace` prints what they did.
    // Every positional argument must name an experiment, so a typo next
    // to a real id runs nothing.
    for args in [
        &["no-such-subcommand"][..],
        &["tail"],
        &["report"],
        &["fig1", "tabel2"],
    ] {
        let unknown = repro(args);
        let name = args[args.len() - 1];
        assert_eq!(unknown.status.code(), Some(1), "repro {}", args.join(" "));
        assert!(unknown.stdout.is_empty(), "repro {} ran", args.join(" "));
        let err = text(&unknown.stderr);
        assert!(
            err.contains("unknown experiment") && err.contains(name),
            "{err}"
        );
    }
    // An undeclared flag, a value flag with no value after it, and a flag
    // the command's usage line does not declare all exit 2 naming the
    // flag, before anything runs or is written.
    let cwd = scratch().join("refused");
    std::fs::create_dir_all(&cwd).expect("create the refusal directory");
    for (args, flag) in [
        (&["matrix", "--dpeth", "4"][..], "--dpeth"),
        (&["matrix", "--jobs", "4"], "--jobs"),
        (&["matrix", "--out", "4"], "--out"),
        (&["fig1", "--json"], "--json"),
        (&["tune", "--depth"], "--depth"),
        (&["fig1", "--json", "--depth", "full"], "--json"),
        (&["matrix", "--workload", "compile"], "--workload"),
        (&["causal", "--workload", "compile"], "--workload"),
        (&["matrix", "--seed", "3", "--runs", "2"], "--seed"),
    ] {
        let o = Command::new(REPRO)
            .args(args)
            .current_dir(&cwd)
            .output()
            .expect("spawn the repro binary");
        let shown = args.join(" ");
        assert_eq!(o.status.code(), Some(2), "repro {shown} must be refused");
        assert!(o.stdout.is_empty(), "repro {shown} ran");
        assert!(
            text(&o.stderr).contains(flag),
            "repro {shown}: the error names {flag}"
        );
    }
    let written: Vec<_> = std::fs::read_dir(&cwd).expect("read").collect();
    assert!(written.is_empty(), "a refused command wrote {written:?}");
}

#[test]
fn a_typo_in_a_flag_value_exits_2_and_names_it() {
    let doc = scratch().join("typo.json");
    let fixture = Json::object()
        .field("schema", "mmu-tricks-matrix-v1")
        .field("n", 1u32);
    std::fs::write(&doc, fixture.write()).expect("write");
    let d = doc.display().to_string();
    for (args, bad) in [
        (vec!["matrix", "--depth", "ful"], "\"ful\""),
        (vec!["perf", "record", "--workload", "storm"], "\"storm\""),
        (vec!["diff", &d, &d, "--limit", "abc"], "\"abc\""),
        (vec!["tune", "--workload", "compil"], "\"compil\""),
        (vec!["chaos", "--check", "maybe"], "\"maybe\""),
    ] {
        let o = repro(&args);
        assert_eq!(o.status.code(), Some(2), "repro {}", args.join(" "));
        assert!(
            text(&o.stderr).contains(bad),
            "repro {}: {}",
            args.join(" "),
            text(&o.stderr)
        );
    }
}

#[test]
fn the_planted_stale_tlb_bug_is_caught_by_the_checker() {
    let o = Command::new(REPRO)
        .args(["chaos", "--seed", "1", "--steps", "300"])
        .env("MMU_TRICKS_BUG_STALE_TLB", "1")
        .output()
        .expect("spawn the repro binary");
    let all = text(&o.stdout) + &text(&o.stderr);
    assert!(
        !o.status.success(),
        "the planted bug escaped the checker:\n{all}"
    );
    for needle in ["MM check violation", "stale", "repro: repro chaos --seed"] {
        assert!(
            all.contains(needle),
            "the violation report lacks {needle:?}:\n{all}"
        );
    }
}
