//! Property-based tests for the artifact format (what is written reads back
//! unchanged), the differ (the algebra a diff tool must obey regardless of
//! what the two artifacts contain) and the mmtune controller
//! (deterministic, and free when absent or dormant).

use proptest::prelude::*;

use kernel_sim::sched::USER_BASE;
use kernel_sim::{Kernel, KernelConfig, MmtuneConfig, VsidPolicy};
use mmu_tricks::artifact::{parse, Json};
use mmu_tricks::diff::{diff_reports, parse_report, FlatReport};
use mmu_tricks::perf::PerfData;
use ppc_machine::MachineConfig;
use ppc_mmu::addr::PAGE_SIZE;

/// Leaf paths a generated report draws from (shape matches the real
/// artifacts: nested, mixed subsystems).
fn keys() -> Vec<&'static str> {
    vec![
        "workloads.compile.cycles",
        "workloads.compile.tlb_reloads",
        "workloads.fault_storm.cycles",
        "workloads.trace_ref.cycles",
        "latency.page_fault.p99",
        "telemetry.epoch_cycles",
        "pteg.inserts[7]",
        "self.translate",
        "self.idle",
    ]
}

/// The identity axes every generated report carries.
const AXES: [(&str, &str); 5] = [
    ("schema", "mmu-tricks-matrix-v1"),
    ("depth", "quick"),
    ("machine", "604-133"),
    ("workload", "compile"),
    ("config", "opt"),
];

/// A report with fixed identity axes and the given numeric leaves (values
/// stay in u32 so deltas never overflow i64).
fn report_from(pairs: &[(&'static str, u32)]) -> FlatReport {
    let mut r = FlatReport::default();
    for (axis, value) in AXES {
        r.axes.insert(axis.into(), value.into());
    }
    for (k, v) in pairs {
        r.numbers.insert((*k).to_string(), i64::from(*v));
    }
    r
}

/// Collapsed stacks a generated profile draws from.
fn stacks() -> Vec<&'static str> {
    vec![
        "pid1;translate",
        "pid1;translate;htab_insert",
        "pid2;page_fault",
        "pid2;page_fault;htab_insert",
        "pid3;sched",
        "idle;idle",
    ]
}

/// A folded profile from the given stack/weight pairs, on fixed recording
/// axes. The single subsystem row carries the folded total, as in a real
/// recording (every sample lands in exactly one stack and one subsystem).
fn perf_from(pairs: &[(&'static str, u32)]) -> PerfData {
    let mut folded: std::collections::BTreeMap<String, u64> = Default::default();
    for (k, w) in pairs {
        *folded.entry((*k).to_string()).or_default() += u64::from(*w);
    }
    let total: u64 = folded.values().sum();
    PerfData {
        workload: "compile".into(),
        depth: "quick".into(),
        machine: "604-133".into(),
        config: "opt".into(),
        period: 4096,
        total_cycles: total * 4096,
        baseline_cycles: total * 4096,
        interrupts: total,
        supervisor_weight: total,
        user_weight: 0,
        subsystems: vec![("translate".into(), total, total * 4096)],
        pids: vec![],
        folded: folded.into_iter().collect(),
    }
}

/// Arbitrary artifact values, up to four levels deep: any integer, and
/// strings (keys too) drawn from characters the writer must escape — `"`,
/// `\`, newlines, other controls — mixed with JSON punctuation and
/// multi-byte text.
struct AnyJson;

impl Strategy for AnyJson {
    type Value = Json;
    fn generate(&self, rng: &mut proptest::TestRng) -> Json {
        fn string(rng: &mut proptest::TestRng) -> String {
            const CHARS: &[char] = &[
                'a', 'Z', '0', ' ', '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', '/', '{', '}',
                '[', ']', ',', ':', 'é', '—', '▁', '😀',
            ];
            (0..rng.below(0, 12))
                .map(|_| CHARS[rng.below(0, CHARS.len())])
                .collect()
        }
        fn value(rng: &mut proptest::TestRng, depth: usize) -> Json {
            match rng.below(0, if depth < 4 { 4 } else { 2 }) {
                0 => Json::Num(rng.next_u64() as i64 >> rng.below(0, 64)),
                1 => Json::Str(string(rng)),
                2 => Json::Arr(
                    (0..rng.below(0, 5))
                        .map(|_| value(rng, depth + 1))
                        .collect(),
                ),
                _ => Json::Obj(
                    (0..rng.below(0, 5))
                        .map(|_| (string(rng), value(rng, depth + 1)))
                        .collect(),
                ),
            }
        }
        value(rng, 0)
    }
}

proptest! {
    /// The one writer and the one parser agree on every value:
    /// parse(write(v)) == v, escapes included.
    #[test]
    fn artifact_write_then_parse_is_identity(v in AnyJson) {
        let text = v.write();
        prop_assert_eq!(parse(&text), Ok(v));
    }

    /// diff(A, A) is identically zero on every leaf.
    #[test]
    fn self_diff_is_all_zero(
        pairs in prop::collection::vec((prop::sample::select(keys()), any::<u32>()), 0..16),
    ) {
        let a = report_from(&pairs);
        let d = diff_reports(&a, &a).unwrap();
        prop_assert_eq!(d.entries.len(), a.numbers.len());
        for e in &d.entries {
            prop_assert_eq!(e.delta, 0);
            prop_assert_eq!(e.a, e.b);
        }
        prop_assert!(d.ranked().is_empty());
        prop_assert!(d.to_json().write().contains("\"changed\": 0"));
    }

    /// diff(A, B) = -diff(B, A), leaf for leaf, even when the two reports
    /// have disjoint key sets.
    #[test]
    fn diff_is_antisymmetric(
        pa in prop::collection::vec((prop::sample::select(keys()), any::<u32>()), 0..16),
        pb in prop::collection::vec((prop::sample::select(keys()), any::<u32>()), 0..16),
    ) {
        let (a, b) = (report_from(&pa), report_from(&pb));
        let ab = diff_reports(&a, &b).unwrap();
        let ba = diff_reports(&b, &a).unwrap();
        prop_assert_eq!(ab.entries.len(), ba.entries.len());
        for (x, y) in ab.entries.iter().zip(ba.entries.iter()) {
            prop_assert_eq!(&x.key, &y.key);
            prop_assert_eq!(x.delta, -y.delta);
            prop_assert_eq!(x.a, y.b);
            prop_assert_eq!(x.b, y.a);
        }
    }

    /// Any identity-header mismatch is refused, whatever the payload.
    #[test]
    fn header_mismatch_is_always_refused(
        pairs in prop::collection::vec((prop::sample::select(keys()), any::<u32>()), 0..16),
        which in 0usize..4,
    ) {
        let a = report_from(&pairs);
        let mut b = a.clone();
        let (axis, value) = AXES[which];
        b.axes.insert(axis.into(), format!("{value}-other"));
        prop_assert!(diff_reports(&a, &b).is_err());
        // The config axis alone never refuses.
        let mut c = a.clone();
        c.axes.insert("config".into(), "unopt".into());
        prop_assert!(diff_reports(&a, &c).is_ok());
    }

    /// The diff of two profile artifacts conserves weight: the `folded.*`
    /// deltas sum exactly to the `weighted_samples` delta (no stack dropped
    /// or double counted, including stacks present on only one side).
    #[test]
    fn folded_diff_weights_sum_to_headline_delta(
        pa in prop::collection::vec((prop::sample::select(stacks()), 0u32..10_000), 0..8),
        pb in prop::collection::vec((prop::sample::select(stacks()), 0u32..10_000), 0..8),
    ) {
        let flat = |d: PerfData| parse_report(&d.to_json().write()).unwrap();
        let (a, b) = (flat(perf_from(&pa)), flat(perf_from(&pb)));
        let d = diff_reports(&a, &b).unwrap();
        let delta = |key: &str| d.entries.iter().find(|e| e.key == key).map_or(0, |e| e.delta);
        let folded_sum: i64 = d
            .entries
            .iter()
            .filter(|e| e.key.starts_with("folded."))
            .map(|e| e.delta)
            .sum();
        prop_assert_eq!(folded_sum, delta("weighted_samples"));
        // The exact-cycle and headline deltas move with the weights.
        prop_assert_eq!(delta("total_cycles"), 4096 * folded_sum);
    }
}

/// A small deterministic MMU-churning workload: `procs` processes each
/// touching a sliding window of pages and making syscalls for `rounds`
/// rounds, then an idle stint so idle-task work runs too.
fn churn(k: &mut Kernel, procs: u32, rounds: u32) {
    let pids: Vec<_> = (0..procs)
        .map(|_| k.spawn_process(64).expect("room for a churn process"))
        .collect();
    for r in 0..rounds {
        for &pid in &pids {
            k.switch_to(pid);
            for p in 0..8u32 {
                let page = (r * 8 + p) % 64;
                let _ = k.user_write(USER_BASE + page * PAGE_SIZE, 16);
            }
            k.sys_null();
        }
    }
    k.run_idle(20_000);
}

/// A controller with hair-trigger thresholds (the churn workload is small,
/// so the production defaults would never fire — determinism must be
/// tested over runs that actually retune).
fn eager_mmtune(epoch_shift: u32, cooldown_epochs: u32) -> MmtuneConfig {
    MmtuneConfig {
        epoch_cycles: 1u64 << epoch_shift,
        cooldown_epochs,
        bat_reload_threshold: 1,
        min_tlb_misses: 1,
        ..MmtuneConfig::default()
    }
}

/// A kernel whose knobs start off their tuned values, so the controller has
/// something to move: PTE-mapped kernel, power-of-two scatter.
fn untuned_config(mmtune: Option<MmtuneConfig>) -> KernelConfig {
    KernelConfig {
        use_bats: false,
        vsid_policy: VsidPolicy::ContextCounter { constant: 16 },
        mmtune,
        ..KernelConfig::optimized()
    }
}

/// Guards the determinism property against vacuity: the churn workload on
/// the untuned config must actually make the controller fire, so the
/// decision-log comparison below compares something.
#[test]
fn churn_on_untuned_config_provokes_retunes() {
    let mc = eager_mmtune(12, 2);
    let mut k = Kernel::boot(MachineConfig::ppc604_133(), untuned_config(Some(mc)));
    churn(&mut k, 3, 23);
    let m = k.mmtune.as_ref().expect("mmtune-enabled boot");
    assert!(
        !m.decisions.is_empty(),
        "no retunes fired; the determinism proptest would be vacuous"
    );
}

proptest! {
    /// Same seed inputs ⇒ bit-identical run: cycles, every retune decision
    /// (knob, epoch, cycle, from/to), and the final knob values. This is
    /// the property the `repro tune` artifact's reproducibility rests on.
    #[test]
    fn mmtune_is_deterministic(
        procs in 1u32..4,
        rounds in 1u32..24,
        epoch_shift in 12u32..17,
        cooldown_epochs in 0u32..3,
    ) {
        let mc = eager_mmtune(epoch_shift, cooldown_epochs);
        let run = || {
            let mut k = Kernel::boot(
                MachineConfig::ppc604_133(),
                untuned_config(Some(mc)),
            );
            churn(&mut k, procs, rounds);
            let m = k.mmtune.as_ref().expect("mmtune-enabled boot");
            (k.machine.cycles, m.decisions.clone(), m.final_values(), k.stats)
        };
        let (c1, d1, f1, s1) = run();
        let (c2, d2, f2, s2) = run();
        prop_assert_eq!(c1, c2);
        prop_assert_eq!(d1, d2);
        prop_assert_eq!(f1, f2);
        prop_assert_eq!(s1, s2);
    }

    /// A dormant controller (thresholds set so no knob can ever fire) is
    /// cycle-identical to `mmtune: None` — observation is free, only
    /// applied retunes may cost. With `None` the kernel carries no
    /// controller at all, which is why mmtune-off runs are also
    /// cycle-identical to pre-mmtune kernels (`ARTIFACTS.lock` pins the
    /// bench and matrix artifacts, whose kernels all run mmtune-off).
    #[test]
    fn dormant_mmtune_is_cycle_identical_to_none(
        procs in 1u32..4,
        rounds in 1u32..24,
    ) {
        // Optimized kernel: BATs already on (BAT knob satisfied), scatter
        // already at the target (scatter knob satisfied), and an impossible
        // TLB-miss floor keeps the htab knob quiet.
        let dormant = MmtuneConfig {
            min_tlb_misses: u64::MAX,
            ..MmtuneConfig::default()
        };
        let run = |mmtune: Option<MmtuneConfig>| {
            let mut k = Kernel::boot(
                MachineConfig::ppc604_133(),
                KernelConfig { mmtune, ..KernelConfig::optimized() },
            );
            churn(&mut k, procs, rounds);
            (k.machine.cycles, k.stats.tlb_reloads, k.stats.mmtune_retunes)
        };
        let (on_cycles, on_reloads, retunes) = run(Some(dormant));
        let (off_cycles, off_reloads, _) = run(None);
        prop_assert_eq!(retunes, 0, "dormant controller must not fire");
        prop_assert_eq!(on_cycles, off_cycles);
        prop_assert_eq!(on_reloads, off_reloads);
    }
}
