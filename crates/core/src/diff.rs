//! `repro diff`: structured comparison of two run artifacts.
//!
//! Every JSON artifact this repository emits is written in the one
//! [`crate::artifact`] format, integer-only, so a diff is exact: parse
//! both documents, flatten every numeric leaf to a dotted path
//! (`workloads.compile.cycles`, `latency.page_fault.p99`,
//! `pteg.inserts[17]`), and subtract. The differ *refuses* to compare
//! documents whose identity axes — their top-level strings: schema, depth,
//! machine, workload, check, causal, ... — disagree: a cycles delta
//! between a 603 run and a 604 run is meaningless, and the tool says so
//! instead of printing it. The `config` axis is the one allowed to
//! differ: comparing the unoptimized kernel against the optimized one is
//! the entire point.
//!
//! Two `repro perf record` profiles diff the same way: their subsystems,
//! pids and collapsed stacks are object keys, so the diff holds the
//! per-subsystem weight and exact-cycle deltas and a flamegraph diff with
//! signed per-stack weights ([`crate::perf`]).

use std::collections::{BTreeMap, BTreeSet};

use crate::artifact::{self, Json};
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

/// Diffs two reports, refusing incompatible ones.
///
/// Every identity axis of either document must match exactly; `config`
/// may differ — that is the before/after use case. An axis one document
/// lacks compares as `""`. The refusal names the first mismatched axis,
/// `schema` first and then the others in name order.
pub fn diff_reports(a: &FlatReport, b: &FlatReport) -> Result<ReportDiff, String> {
    let names: BTreeSet<&str> = a
        .axes
        .keys()
        .chain(b.axes.keys())
        .map(String::as_str)
        .filter(|n| !matches!(*n, "schema" | "config"))
        .collect();
    for name in std::iter::once("schema").chain(names) {
        let (va, vb) = (a.axis(name), b.axis(name));
        if va != vb {
            return Err(format!(
                "refusing to diff: {name} mismatch (A is \"{va}\", B is \"{vb}\") — \
                 these runs measure different things; re-record them on the same {name}"
            ));
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(config: &str, cycles: u64, faults: u64) -> String {
        let compile = Json::object()
            .field("cycles", cycles)
            .field("page_faults", faults)
            .field("label", "not an axis");
        Json::object()
            .field("schema", "mmu-tricks-matrix-v1")
            .field("depth", "quick")
            .field("machine", "604-133")
            .field("config", config)
            .field(
                "workloads",
                Json::object()
                    .field("compile", compile)
                    .field("list", Json::arr([1u32, 2, 3])),
            )
            .write()
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
        assert_eq!(r.axis("schema"), "mmu-tricks-matrix-v1");
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
        let d = with_axis(&c, "schema", "mmu-tricks-tune-v1");
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
        // A recording that declared a tail-arming mode must not be diffed
        // against one armed otherwise, nor against a dormant one.
        assert_axis_refuses("tail", "auto");
    }

    #[test]
    fn tail_header_parses_and_old_artifacts_default_to_empty() {
        let with = "{\"schema\": \"mmu-tricks-metrics-v1\", \"tail\": \"auto\", \"n\": 1}";
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
        let with = "{\"schema\": \"mmu-tricks-chaos-v1\", \"check\": \"on\", \"n\": 1}";
        assert_eq!(parse_report(with).unwrap().axis("check"), "on");
        let without = parse_report(&doc("opt", 1, 1)).unwrap();
        assert_eq!(without.axis("check"), "");
        // An axis no schema had before refuses the same way: the rule is
        // generic over the top-level strings.
        assert_axis_refuses("observer", "new");
    }

    #[test]
    fn check_identity_reports_the_first_mismatched_axis() {
        // The identity check inside `diff_reports` names one axis: the
        // first mismatch in name order after `schema`.
        let a = parse_report(&doc("opt", 1, 1)).unwrap();
        let b = with_axis(&with_axis(&a, "workload", "storm"), "machine", "603-swload");
        let err = diff_reports(&a, &b).unwrap_err();
        assert!(err.contains("machine mismatch"), "{err}");
        assert!(!err.contains("workload"), "{err}");
        let c = with_axis(&b, "depth", "full");
        assert!(diff_reports(&a, &c).unwrap_err().contains("depth mismatch"));
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
