//! `repro diff`: structured comparison of two run artifacts.
//!
//! Every JSON artifact this repository emits is written in the one
//! [`crate::artifact`] format, integer-only, so a diff is exact: parse
//! both documents, flatten every numeric leaf to a dotted path
//! (`workloads.compile.cycles`, `latency.page_fault.p99`,
//! `pteg.inserts[17]`), and subtract. The differ *refuses* to compare
//! documents whose identity axes — their top-level strings: schema, depth,
//! machine, workload, check, tail, causal, ... — disagree: a cycles delta
//! between a 603 run and a 604 run is meaningless, and the tool says so
//! instead of printing it. The `config` axis is the one allowed to
//! differ: comparing the unoptimized kernel against the optimized one is
//! the entire point.
//!
//! `repro perf diff` is the folded-stack counterpart over two `perf.data`
//! profiles: per-subsystem weight/exact deltas plus a flamegraph diff in
//! collapsed format with signed weights (feed it to difffolded.pl-style
//! tooling or read the rendered ranking).

use std::collections::{BTreeMap, BTreeSet};

use crate::artifact::{self, Json};
use crate::perf::PerfData;
use crate::tables::Table;

/// A run artifact flattened for diffing: identity axes plus every numeric
/// leaf keyed by dotted path.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FlatReport {
    /// The identity axes: the document's top-level strings
    /// ([`Json::axes`]). Strings nested deeper are labels, not identity,
    /// and are dropped.
    pub axes: BTreeMap<String, String>,
    /// Every numeric leaf: dotted path → value.
    pub numbers: BTreeMap<String, i64>,
}

impl FlatReport {
    /// The value of an identity axis (`""` when the document lacks it, so
    /// an artifact that predates an axis still diffs against its peers).
    pub fn axis(&self, name: &str) -> &str {
        self.axes.get(name).map_or("", String::as_str)
    }
}

fn flatten(prefix: &str, v: &Json, out: &mut FlatReport) {
    match v {
        Json::Num(n) => {
            out.numbers.insert(prefix.to_string(), *n);
        }
        Json::Str(_) => {}
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                flatten(&format!("{prefix}[{i}]"), item, out);
            }
        }
        Json::Obj(fields) => {
            for (k, item) in fields {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten(&path, item, out);
            }
        }
    }
}

/// Parses an artifact into a [`FlatReport`].
pub fn parse_report(text: &str) -> Result<FlatReport, String> {
    let v = artifact::parse(text)?;
    let mut out = FlatReport {
        axes: v
            .axes()
            .into_iter()
            .map(|(k, s)| (k.to_string(), s.to_string()))
            .collect(),
        ..FlatReport::default()
    };
    flatten("", &v, &mut out);
    Ok(out)
}

/// One compared leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffEntry {
    /// Dotted path of the leaf.
    pub key: String,
    /// Value in A (0 when the key only exists in B).
    pub a: i64,
    /// Value in B (0 when the key only exists in A).
    pub b: i64,
    /// `b - a`.
    pub delta: i64,
}

/// A structured comparison of two flattened reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReportDiff {
    /// Shared schema of the two documents.
    pub schema: String,
    /// `config` header of A.
    pub config_a: String,
    /// `config` header of B.
    pub config_b: String,
    /// Every leaf of either document, sorted by key.
    pub entries: Vec<DiffEntry>,
}

/// Refuses to relate two artifacts whose identity axes differ.
///
/// Every comparison surface in this repository — `repro diff` and `repro
/// perf diff` — funnels its identity axes through this one function, so
/// every schema gets the same refusal wording. Each tuple is `(axis name,
/// value in A, value in B)`; the first mismatch is reported.
pub fn check_identity(axes: &[(&str, &str, &str)]) -> Result<(), String> {
    for (name, a, b) in axes {
        if a != b {
            return Err(format!(
                "refusing to diff: {name} mismatch (A is \"{a}\", B is \"{b}\") — \
                 these runs measure different things; re-record them on the same {name}"
            ));
        }
    }
    Ok(())
}

/// Diffs two reports, refusing incompatible ones.
///
/// Every identity axis of either document must match exactly, `schema`
/// first; `config` may differ — that is the before/after use case. An
/// axis one document lacks compares as `""`.
pub fn diff_reports(a: &FlatReport, b: &FlatReport) -> Result<ReportDiff, String> {
    let names: BTreeSet<&str> = a
        .axes
        .keys()
        .chain(b.axes.keys())
        .map(String::as_str)
        .filter(|n| !matches!(*n, "schema" | "config"))
        .collect();
    let axes: Vec<(&str, &str, &str)> = std::iter::once("schema")
        .chain(names)
        .map(|n| (n, a.axis(n), b.axis(n)))
        .collect();
    check_identity(&axes)?;
    let mut keys: Vec<&String> = a.numbers.keys().chain(b.numbers.keys()).collect();
    keys.sort();
    keys.dedup();
    let entries = keys
        .into_iter()
        .map(|k| {
            let av = a.numbers.get(k).copied().unwrap_or(0);
            let bv = b.numbers.get(k).copied().unwrap_or(0);
            DiffEntry {
                key: k.clone(),
                a: av,
                b: bv,
                delta: bv - av,
            }
        })
        .collect();
    Ok(ReportDiff {
        schema: a.axis("schema").to_string(),
        config_a: a.axis("config").to_string(),
        config_b: b.axis("config").to_string(),
        entries,
    })
}

impl ReportDiff {
    /// Entries with a nonzero delta, largest absolute delta first
    /// (regressions and improvements ranked together; ties by key).
    pub fn ranked(&self) -> Vec<&DiffEntry> {
        let mut v: Vec<&DiffEntry> = self.entries.iter().filter(|e| e.delta != 0).collect();
        v.sort_by(|x, y| {
            y.delta
                .unsigned_abs()
                .cmp(&x.delta.unsigned_abs())
                .then(x.key.cmp(&y.key))
        });
        v
    }

    /// The `mmu-tricks-diff-v1` artifact: identity header plus one entry
    /// per changed leaf (plus a summary count of unchanged ones).
    pub fn to_json(&self) -> Json {
        let changed = self.ranked();
        Json::object()
            .field("schema", "mmu-tricks-diff-v1")
            .field("compared_schema", &self.schema)
            .field("config_a", &self.config_a)
            .field("config_b", &self.config_b)
            .field("keys", self.entries.len())
            .field("changed", changed.len())
            .field(
                "deltas",
                Json::arr(changed.iter().map(|e| {
                    Json::object()
                        .field("key", &e.key)
                        .field("a", e.a)
                        .field("b", e.b)
                        .field("delta", e.delta)
                })),
            )
    }

    /// The rendered ranking: top `limit` deltas with percentages.
    pub fn table(&self, limit: usize) -> Table {
        let ranked = self.ranked();
        let mut t = Table::new(
            format!(
                "diff: {} changed of {} keys ({})",
                ranked.len(),
                self.entries.len(),
                self.schema
            ),
            vec![
                "key".into(),
                "a".into(),
                "b".into(),
                "delta".into(),
                "relative".into(),
            ],
        );
        for e in ranked.iter().take(limit) {
            let rel = if e.a != 0 {
                format!(
                    "{:+.1}%",
                    100.0 * e.delta as f64 / e.a.unsigned_abs() as f64
                )
            } else {
                "new".into()
            };
            t.push_row(vec![
                e.key.clone(),
                format!("{}", e.a),
                format!("{}", e.b),
                format!("{:+}", e.delta),
                rel,
            ]);
        }
        t
    }
}

/// A flamegraph/profile diff of two `perf.data` recordings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerfDiff {
    /// `config` header of A.
    pub config_a: String,
    /// `config` header of B.
    pub config_b: String,
    /// Exact-cycle totals of A and B.
    pub total_cycles: (u64, u64),
    /// Weighted-sample totals of A and B.
    pub total_weight: (u64, u64),
    /// `(subsystem, weight in A, weight in B, exact cycles in A, exact
    /// cycles in B)`, one row per subsystem appearing in either profile.
    pub subsystems: Vec<(String, u64, u64, u64, u64)>,
    /// `(collapsed stack, weight in A, weight in B)`, union of both folded
    /// profiles sorted by stack.
    pub folded: Vec<(String, u64, u64)>,
}

/// Diffs two profiles, refusing incompatible recordings: workload, depth,
/// machine and sampling period must all match (weights are only comparable
/// at equal periods); kernel config may differ.
pub fn diff_perf(a: &PerfData, b: &PerfData) -> Result<PerfDiff, String> {
    check_identity(&[
        ("workload", &a.workload, &b.workload),
        ("depth", &a.depth, &b.depth),
        ("machine", &a.machine, &b.machine),
        ("period", &a.period.to_string(), &b.period.to_string()),
    ])?;
    let mut subs: BTreeMap<String, (u64, u64, u64, u64)> = BTreeMap::new();
    for (name, w, e) in &a.subsystems {
        let s = subs.entry(name.clone()).or_default();
        s.0 = *w;
        s.2 = *e;
    }
    for (name, w, e) in &b.subsystems {
        let s = subs.entry(name.clone()).or_default();
        s.1 = *w;
        s.3 = *e;
    }
    let mut folded: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for (k, w) in &a.folded {
        folded.entry(k.clone()).or_default().0 = *w;
    }
    for (k, w) in &b.folded {
        folded.entry(k.clone()).or_default().1 = *w;
    }
    Ok(PerfDiff {
        config_a: a.config.clone(),
        config_b: b.config.clone(),
        total_cycles: (a.total_cycles, b.total_cycles),
        total_weight: (a.total_weight(), b.total_weight()),
        subsystems: subs
            .into_iter()
            .map(|(n, (wa, wb, ea, eb))| (n, wa, wb, ea, eb))
            .collect(),
        folded: folded
            .into_iter()
            .map(|(k, (wa, wb))| (k, wa, wb))
            .collect(),
    })
}

impl PerfDiff {
    /// Exact-cycle delta (B − A): negative means B is faster.
    pub fn cycles_delta(&self) -> i64 {
        self.total_cycles.1 as i64 - self.total_cycles.0 as i64
    }

    /// Weighted-sample delta (B − A).
    pub fn weight_delta(&self) -> i64 {
        self.total_weight.1 as i64 - self.total_weight.0 as i64
    }

    /// The folded flamegraph diff: one `stack signed-delta` line per stack
    /// whose weight changed, sorted by stack. The deltas sum exactly to
    /// [`PerfDiff::weight_delta`] (every sample is accounted for).
    pub fn folded_diff_lines(&self) -> String {
        let mut s = String::new();
        for (key, wa, wb) in &self.folded {
            let d = *wb as i64 - *wa as i64;
            if d != 0 {
                s.push_str(&format!("{key} {d:+}\n"));
            }
        }
        s
    }

    /// Rendered per-subsystem ranking, largest exact-cycle delta first.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "perf diff: {} -> {} exact cycles ({:+})",
                self.total_cycles.0,
                self.total_cycles.1,
                self.cycles_delta()
            ),
            vec![
                "subsystem".into(),
                "weight_a".into(),
                "weight_b".into(),
                "weight_delta".into(),
                "exact_a".into(),
                "exact_b".into(),
                "exact_delta".into(),
            ],
        );
        let mut rows = self.subsystems.clone();
        rows.sort_by(|x, y| {
            let dx = (x.4 as i64 - x.3 as i64).unsigned_abs();
            let dy = (y.4 as i64 - y.3 as i64).unsigned_abs();
            dy.cmp(&dx).then(x.0.cmp(&y.0))
        });
        for (name, wa, wb, ea, eb) in rows {
            if wa == 0 && wb == 0 && ea == 0 && eb == 0 {
                continue;
            }
            t.push_row(vec![
                name,
                format!("{wa}"),
                format!("{wb}"),
                format!("{:+}", wb as i64 - wa as i64),
                format!("{ea}"),
                format!("{eb}"),
                format!("{:+}", eb as i64 - ea as i64),
            ]);
        }
        t
    }

    /// Flat `key value` summary lines (`cycles_delta` is negative when B
    /// is faster).
    pub fn summary(&self) -> String {
        format!(
            "cycles_a {}\ncycles_b {}\ncycles_delta {:+}\nweight_a {}\nweight_b {}\n\
             weight_delta {:+}\nstacks_changed {}\n",
            self.total_cycles.0,
            self.total_cycles.1,
            self.cycles_delta(),
            self.total_weight.0,
            self.total_weight.1,
            self.weight_delta(),
            self.folded.iter().filter(|(_, wa, wb)| wa != wb).count(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(config: &str, cycles: u64, faults: u64) -> String {
        format!(
            "{{\"schema\": \"mmu-tricks-bench-v1\", \"depth\": \"quick\", \
             \"machine\": \"604-133\", \"config\": \"{config}\", \
             \"workloads\": {{\"compile\": {{\"cycles\": {cycles}, \
             \"page_faults\": {faults}, \"label\": \"not an axis\"}}, \
             \"list\": [1, 2, 3]}}}}"
        )
    }

    fn with_axis(r: &FlatReport, name: &str, value: &str) -> FlatReport {
        let mut out = r.clone();
        out.axes.insert(name.into(), value.into());
        out
    }

    /// `name` refuses in both directions, with the re-record hint, and
    /// equal values on both sides diff fine.
    fn assert_axis_refuses(name: &str, value: &str) {
        let a = parse_report(&doc("opt", 100, 5)).unwrap();
        let b = with_axis(&a, name, value);
        for (x, y) in [(&a, &b), (&b, &a)] {
            let err = diff_reports(x, y).unwrap_err();
            assert!(err.contains(&format!("{name} mismatch")), "{err}");
            assert!(err.contains("re-record"), "{err}");
        }
        assert!(diff_reports(&b, &b.clone()).is_ok());
        assert!(diff_reports(&a, &a.clone()).is_ok());
    }

    #[test]
    fn parser_handles_every_artifact_shape() {
        let r = parse_report(&doc("opt", 100, 5)).unwrap();
        assert_eq!(r.axis("schema"), "mmu-tricks-bench-v1");
        assert_eq!(r.axis("machine"), "604-133");
        assert_eq!(r.numbers["workloads.compile.cycles"], 100);
        assert_eq!(r.numbers["workloads.list[2]"], 3);
        // Only top-level strings are axes.
        assert_eq!(r.axes.len(), 4);
        assert!(parse_report("{\"x\": 1.5}").is_err(), "floats rejected");
        assert!(parse_report("{\"x\": 1} trailing").is_err());
        assert!(parse_report("").is_err());
        // Negative numbers parse (diff JSON itself contains them).
        assert_eq!(parse_report("{\"d\": -42}").unwrap().numbers["d"], -42);
    }

    #[test]
    fn diff_subtracts_and_ranks() {
        let a = parse_report(&doc("unopt", 1000, 50)).unwrap();
        let b = parse_report(&doc("opt", 900, 80)).unwrap();
        let d = diff_reports(&a, &b).unwrap();
        let cycles = d
            .entries
            .iter()
            .find(|e| e.key == "workloads.compile.cycles")
            .unwrap();
        assert_eq!(cycles.delta, -100);
        assert_eq!(d.ranked()[0].key, "workloads.compile.cycles");
        assert_eq!(d.config_a, "unopt");
        assert_eq!(d.config_b, "opt");
        let j = d.to_json().write();
        assert!(j.contains("\"schema\": \"mmu-tricks-diff-v1\""));
        assert!(j.contains("\"delta\": -100"));
        assert_eq!(parse_report(&j).unwrap().numbers["changed"], 2);
    }

    #[test]
    fn incompatible_cells_are_refused_with_a_clear_error() {
        let a = parse_report(&doc("opt", 100, 5)).unwrap();
        let b = with_axis(&a, "machine", "603-133");
        let err = diff_reports(&a, &b).unwrap_err();
        assert!(err.contains("machine mismatch"), "{err}");
        assert!(err.contains("604-133") && err.contains("603-133"), "{err}");
        let c = with_axis(&a, "depth", "full");
        assert!(diff_reports(&a, &c).unwrap_err().contains("depth mismatch"));
        // The schema axis is reported first, whatever else differs.
        let d = with_axis(&c, "schema", "mmu-tricks-matrix-v1");
        let err = diff_reports(&a, &d).unwrap_err();
        assert!(err.contains("schema mismatch"), "{err}");
        // Config difference is the use case, never an error.
        let e = with_axis(&a, "config", "other");
        assert!(diff_reports(&a, &e).is_ok());
    }

    #[test]
    fn check_header_mismatch_is_refused() {
        // An artifact recorded under the runtime checker declares it; a
        // checked run must not be diffed against an unchecked one.
        assert_axis_refuses("check", "on");
    }

    #[test]
    fn tail_header_mismatch_is_refused() {
        // An artifact recorded with tail forensics armed declares it; it
        // must not be diffed against a dormant recording.
        assert_axis_refuses("tail", "auto");
    }

    #[test]
    fn tail_header_parses_and_old_artifacts_default_to_empty() {
        let with = "{\"schema\": \"mmu-tricks-tail-v1\", \"tail\": \"auto\", \"n\": 1}";
        assert_eq!(parse_report(with).unwrap().axis("tail"), "auto");
        // An artifact without the header parses, reads "", and stays
        // diffable against its peers.
        let without = parse_report(&doc("opt", 1, 1)).unwrap();
        assert_eq!(without.axis("tail"), "");
        assert!(diff_reports(&without, &without.clone()).is_ok());
    }

    #[test]
    fn causal_header_mismatch_is_refused() {
        // A causal artifact's cycles are deliberately counterfactual:
        // diffing one against a plain recording would just print the
        // virtual speedups back as "regressions".
        assert_axis_refuses("causal", "grid-f0-25-50-75");
    }

    #[test]
    fn causal_header_parses_and_old_artifacts_default_to_empty() {
        let with = "{\"schema\": \"mmu-tricks-causal-v1\", \"causal\": \"grid\", \"n\": 1}";
        assert_eq!(parse_report(with).unwrap().axis("causal"), "grid");
        let without = parse_report(&doc("opt", 1, 1)).unwrap();
        assert_eq!(without.axis("causal"), "");
        assert!(diff_reports(&without, &without.clone()).is_ok());
    }

    #[test]
    fn check_header_parses_and_old_artifacts_default_to_empty() {
        let with = "{\"schema\": \"mmu-tricks-bench-v1\", \"check\": \"on\", \"n\": 1}";
        assert_eq!(parse_report(with).unwrap().axis("check"), "on");
        let without = parse_report(&doc("opt", 1, 1)).unwrap();
        assert_eq!(without.axis("check"), "");
        // An axis no schema had before refuses the same way: the rule is
        // generic over the top-level strings.
        assert_axis_refuses("observer", "new");
    }

    #[test]
    fn check_identity_reports_the_first_mismatched_axis() {
        assert!(check_identity(&[("depth", "quick", "quick")]).is_ok());
        assert!(check_identity(&[]).is_ok());
        let err = check_identity(&[
            ("depth", "quick", "quick"),
            ("machine", "604-133", "603-swload"),
            ("workload", "compile", "storm"),
        ])
        .unwrap_err();
        assert!(err.contains("machine mismatch"), "{err}");
    }

    #[test]
    fn self_diff_is_all_zero_and_diff_is_antisymmetric() {
        let a = parse_report(&doc("unopt", 1234, 9)).unwrap();
        let b = parse_report(&doc("opt", 777, 30)).unwrap();
        assert!(diff_reports(&a, &a)
            .unwrap()
            .entries
            .iter()
            .all(|e| e.delta == 0));
        let ab = diff_reports(&a, &b).unwrap();
        let ba = diff_reports(&b, &a).unwrap();
        for (x, y) in ab.entries.iter().zip(ba.entries.iter()) {
            assert_eq!(x.key, y.key);
            assert_eq!(x.delta, -y.delta);
        }
    }
}
