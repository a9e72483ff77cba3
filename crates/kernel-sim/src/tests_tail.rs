//! Integration tests for tail-latency forensics: the zero-overhead
//! guarantee (tail-armed vs. plain traced runs), capture contents,
//! determinism, and the exact-p99 relationship to the bucket bound.

use ppc_machine::MachineConfig;

use crate::kconfig::KernelConfig;
use crate::kernel::Kernel;
use crate::prof::Path;
use crate::tail::TailConfig;
use crate::tests_observers::{assert_invisible, workload, TAIL};

/// A traced run with tail forensics optionally armed.
fn run_traced(machine: MachineConfig, mut cfg: KernelConfig, tail: Option<TailConfig>) -> Kernel {
    cfg.trace = true;
    cfg.tail = tail;
    let mut k = Kernel::boot(machine, cfg);
    workload(&mut k);
    k
}

#[test]
fn tail_armed_run_is_cycle_identical_to_plain_traced() {
    // The check also compares the two runs' trace rings and requires that
    // something was captured.
    let traced = KernelConfig {
        trace: true,
        ..KernelConfig::optimized()
    };
    assert_invisible(MachineConfig::ppc604_185(), traced, TAIL);
}

#[test]
fn tail_identity_holds_over_a_matrix_sample() {
    // A sample of the benchmark matrix's axes: two machines (one 603, one
    // 604) under the unoptimized and optimized kernels.
    for machine in [MachineConfig::ppc603_133(), MachineConfig::ppc604_185()] {
        for cfg in [KernelConfig::unoptimized(), KernelConfig::optimized()] {
            assert_invisible(machine, KernelConfig { trace: true, ..cfg }, TAIL);
        }
    }
}

#[test]
fn same_seed_runs_capture_identical_exemplars() {
    let a = run_traced(
        MachineConfig::ppc604_185(),
        KernelConfig::optimized(),
        Some(TailConfig::auto()),
    );
    let b = run_traced(
        MachineConfig::ppc604_185(),
        KernelConfig::optimized(),
        Some(TailConfig::auto()),
    );
    let (ta, tb) = (a.tail.as_ref().unwrap(), b.tail.as_ref().unwrap());
    assert_eq!(ta.captured(), tb.captured());
    for path in Path::SAMPLED {
        assert_eq!(ta.exemplars(path), tb.exemplars(path), "{path:?}");
    }
}

#[test]
fn exemplars_carry_their_causal_context() {
    let k = run_traced(
        MachineConfig::ppc604_185(),
        KernelConfig::optimized(),
        Some(TailConfig::auto()),
    );
    let tl = k.tail.as_ref().unwrap();
    let t = k.tracer.as_ref().unwrap();
    let mut total = 0;
    for path in Path::SAMPLED {
        let ex = tl.exemplars(path);
        total += ex.len();
        // Slowest first; the overall maximum always arms in auto mode, so
        // the top exemplar is the histogram's exact max.
        if let Some(top) = ex.first() {
            assert_eq!(top.latency, t.latency(path).max(), "{path:?}");
        }
        for e in ex {
            assert_eq!(e.path, path);
            assert!(e.latency > 0);
            assert!(!e.stack.is_empty(), "stack still holds the exiting span");
            assert!(!e.window.is_empty(), "causal window must not be empty");
            assert!(e.window.len() <= crate::tail::WINDOW);
            assert!(e.window.windows(2).all(|w| w[0].cycle <= w[1].cycle));
            assert!(e.cycle >= e.latency, "completion cycle bounds the latency");
            assert!(e.mmu.htab_groups > 0);
        }
        let lats: Vec<u64> = ex.iter().map(|e| e.latency).collect();
        let mut sorted = lats.clone();
        sorted.sort_unstable_by(|x, y| y.cmp(x));
        assert_eq!(lats, sorted, "{path:?}: reservoir must be slowest-first");
    }
    assert!(total > 0, "the workload must produce tail exemplars");
}

#[test]
fn fixed_threshold_captures_only_at_or_above() {
    let k = run_traced(
        MachineConfig::ppc604_185(),
        KernelConfig::optimized(),
        Some(TailConfig::fixed(200)),
    );
    let tl = k.tail.as_ref().unwrap();
    for path in Path::SAMPLED {
        for e in tl.exemplars(path) {
            assert!(
                e.latency >= 200,
                "{path:?} captured {} < threshold",
                e.latency
            );
        }
    }
}

#[test]
fn exact_p99_is_bounded_by_the_bucket_p99() {
    // The histogram's p99 is a bucket upper bound; the exemplar reservoir
    // holds the exact slowest samples. With auto arming, every sample in
    // the top bucket is captured, so whenever the 1% tail fits in the
    // reservoir the exact p99 is among the exemplars — and it can never
    // exceed the bucket bound.
    let k = run_traced(
        MachineConfig::ppc604_185(),
        KernelConfig::optimized(),
        Some(TailConfig::auto()),
    );
    let tl = k.tail.as_ref().unwrap();
    let t = k.tracer.as_ref().unwrap();
    for path in Path::SAMPLED {
        let h = t.latency(path);
        let bound = h.percentile(99);
        for e in tl.exemplars(path) {
            assert!(e.latency <= h.max());
        }
        if let Some(top) = tl.exemplars(path).first() {
            assert!(top.latency <= bound.max(h.max()), "{path:?}");
        }
    }
}
