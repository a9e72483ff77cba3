//! Causal what-if profiling: exact virtual speedups (DESIGN.md §15).
//!
//! COZ-style causal profilers estimate "what if X were f% faster?" by
//! *slowing everything else down* around sampled occurrences of X, because
//! on real hardware you cannot un-spend cycles. This simulator can: every
//! cycle is charged explicitly at a known site under a known profiler span,
//! so a virtual speedup is just a multiplier applied at the charge point.
//! Re-running the identical deterministic workload with one subsystem's
//! charges scaled measures the *exact* end-to-end effect — including every
//! downstream scheduling, reclaim, and epoch-controller interaction — with
//! no sampling error and no perturbation of the rest of the run.
//!
//! Multipliers are integer fixed-point ratios `num/den`, keyed two ways:
//!
//! * **by subsystem** ([`crate::prof::Subsystem`]) — scales *self-time*:
//!   only charges made while that subsystem is the innermost open span;
//! * **by instrumented path** ([`Path`]) — scales the *entire dynamic
//!   extent* of the path (TLB reload including nested hash-table inserts,
//!   page fault, hash-table rehash, flush, signal delivery).
//!
//! The effective scale at any instant is the product of the innermost
//! span's subsystem ratio and every active path's ratio. Only the clock is
//! scaled: cache and TLB state, counters, and every policy decision that
//! reads them evolve from the (scaled) clock exactly as a real faster
//! handler would cause — that is the "exact causal" semantics. A config of
//! all 1/1 ratios is cycle- and counter-identical to `causal = None`,
//! proven by tests and by the causal artifact's `identity_ok`.

use crate::prof::{Path, Subsystem, NUM_PATHS, NUM_SUBSYSTEMS};

/// Largest permitted ratio component. Keeping components small bounds the
/// product of one subsystem ratio and all [`NUM_PATHS`] path ratios below
/// `1000^6 = 10^18 < u64::MAX`, so the effective scale never overflows.
pub const MAX_RATIO_COMPONENT: u32 = 1000;

/// An integer fixed-point charge multiplier. `num/den` of every cycle
/// charged survives; `Ratio::ONE` leaves charges untouched and
/// `Ratio::ZERO` makes the target free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ratio {
    /// Numerator (0 permitted: the target becomes free).
    pub num: u32,
    /// Denominator (never zero).
    pub den: u32,
}

impl Ratio {
    /// The identity multiplier.
    pub const ONE: Ratio = Ratio { num: 1, den: 1 };
    /// The zeroing multiplier: the target costs nothing.
    pub const ZERO: Ratio = Ratio { num: 0, den: 1 };

    /// The multiplier for an `f`-percent virtual *speedup*:
    /// `(100 - f) / 100` (25% faster → 3/4 of every charge survives).
    ///
    /// # Panics
    ///
    /// Panics if `f > 100`.
    pub fn speedup_pct(f: u32) -> Ratio {
        assert!(f <= 100, "speedup percentage must be at most 100");
        if f == 0 {
            Ratio::ONE
        } else if f == 100 {
            Ratio::ZERO
        } else {
            Ratio {
                num: 100 - f,
                den: 100,
            }
        }
    }

    /// Whether this is the identity multiplier (in lowest terms or not).
    pub fn is_one(self) -> bool {
        self.num == self.den
    }

    /// Panics unless the ratio is well-formed (nonzero denominator, both
    /// components within [`MAX_RATIO_COMPONENT`]).
    pub fn validate(self) {
        assert!(self.den != 0, "causal ratio denominator must be nonzero");
        assert!(
            self.num <= MAX_RATIO_COMPONENT && self.den <= MAX_RATIO_COMPONENT,
            "causal ratio components must be at most {MAX_RATIO_COMPONENT}"
        );
    }
}

impl Default for Ratio {
    fn default() -> Self {
        Ratio::ONE
    }
}

/// The full causal-profiling configuration: one multiplier per profiler
/// subsystem (self-time) and one per instrumented path (dynamic extent).
/// `Copy` so [`crate::KernelConfig`] stays `Copy`; the all-[`Ratio::ONE`]
/// default is cycle-identical to `causal = None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CausalConfig {
    /// Self-time multiplier per [`Subsystem`], indexed by `repr`.
    pub subsystem: [Ratio; NUM_SUBSYSTEMS],
    /// Extent multiplier per [`Path`], indexed by `repr`.
    pub path: [Ratio; NUM_PATHS],
}

impl CausalConfig {
    /// The identity configuration: every multiplier 1/1. Installing it must
    /// be cycle- and counter-identical to `causal = None` (gated in CI).
    pub fn identity() -> Self {
        Self {
            subsystem: [Ratio::ONE; NUM_SUBSYSTEMS],
            path: [Ratio::ONE; NUM_PATHS],
        }
    }

    /// Identity except subsystem `s` scaled by `r` (builder style).
    pub fn scale_subsystem(mut self, s: Subsystem, r: Ratio) -> Self {
        self.subsystem[s as usize] = r;
        self
    }

    /// Identity except path `p` scaled by `r` (builder style).
    pub fn scale_path(mut self, p: Path, r: Ratio) -> Self {
        self.path[p as usize] = r;
        self
    }

    /// Whether every multiplier is the identity.
    pub fn is_identity(&self) -> bool {
        self.subsystem.iter().all(|r| r.is_one()) && self.path.iter().all(|r| r.is_one())
    }

    /// Panics unless every ratio is well-formed (see [`Ratio::validate`]).
    pub fn validate(&self) {
        for r in self.subsystem.iter().chain(self.path.iter()) {
            r.validate();
        }
    }
}

impl Default for CausalConfig {
    fn default() -> Self {
        Self::identity()
    }
}

/// Runtime state: per-path extent depths, folded with the kernel's top of
/// span stack into a single `(num, den)` machine scale at every span
/// transition.
#[derive(Debug, Clone)]
pub struct CausalState {
    /// The configuration being applied.
    pub cfg: CausalConfig,
    path_depth: [u32; NUM_PATHS],
}

impl CausalState {
    /// Fresh state for `cfg`, with no path extent active.
    pub fn new(cfg: CausalConfig) -> Self {
        cfg.validate();
        Self {
            cfg,
            path_depth: [0; NUM_PATHS],
        }
    }

    /// A span of subsystem `s` opened: activates the path it roots, if any.
    pub fn enter(&mut self, s: Subsystem) {
        if let Some(p) = Path::of_span_root(s) {
            self.path_mark(p, true);
        }
    }

    /// A span of subsystem `s` closed: leaves the path it roots, if any.
    pub fn exit(&mut self, s: Subsystem) {
        if let Some(p) = Path::of_span_root(s) {
            self.path_mark(p, false);
        }
    }

    /// Explicitly enters/leaves a path extent that no subsystem roots
    /// (today: [`Path::HtabRehash`] around the mmtune resize action).
    pub fn path_mark(&mut self, p: Path, enter: bool) {
        let d = &mut self.path_depth[p as usize];
        if enter {
            *d += 1;
        } else {
            *d = d.saturating_sub(1);
        }
    }

    /// The effective machine scale with `top` the innermost open span
    /// ([`Subsystem::User`] when none is): its subsystem ratio times every
    /// active path's ratio, each path counted once regardless of nesting
    /// depth. Reduced to lowest terms so an all-identity product collapses
    /// to `(1, 1)` and the machine's fast path engages.
    pub fn scale(&self, top: Subsystem) -> (u64, u64) {
        let r = self.cfg.subsystem[top as usize];
        let mut num = r.num as u64;
        let mut den = r.den as u64;
        for (i, depth) in self.path_depth.iter().enumerate() {
            if *depth > 0 {
                let r = self.cfg.path[i];
                num *= r.num as u64;
                den *= r.den as u64;
            }
        }
        let g = gcd(num.max(1), den);
        (num / g, den / g)
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_pct_maps_to_expected_ratios() {
        assert_eq!(Ratio::speedup_pct(0), Ratio::ONE);
        assert_eq!(Ratio::speedup_pct(25), Ratio { num: 75, den: 100 });
        assert_eq!(Ratio::speedup_pct(50), Ratio { num: 50, den: 100 });
        assert_eq!(Ratio::speedup_pct(100), Ratio::ZERO);
    }

    #[test]
    fn identity_config_scales_to_one() {
        let st = CausalState::new(CausalConfig::identity());
        assert_eq!(st.scale(Subsystem::User), (1, 1));
        assert!(CausalConfig::identity().is_identity());
    }

    #[test]
    fn subsystem_ratio_applies_to_innermost_span_only() {
        let cfg = CausalConfig::identity()
            .scale_subsystem(Subsystem::Translate, Ratio { num: 1, den: 2 });
        let mut st = CausalState::new(cfg);
        // Translate ratio is a *self-time* multiplier, but pushing a
        // Translate span also enters the TlbReload path (identity here).
        st.enter(Subsystem::Translate);
        assert_eq!(st.scale(Subsystem::Translate), (1, 2));
        // A nested HtabInsert span masks the Translate self-time ratio.
        st.enter(Subsystem::HtabInsert);
        assert_eq!(st.scale(Subsystem::HtabInsert), (1, 1));
        st.exit(Subsystem::HtabInsert);
        assert_eq!(st.scale(Subsystem::Translate), (1, 2));
        st.exit(Subsystem::Translate);
        assert_eq!(st.scale(Subsystem::User), (1, 1));
    }

    #[test]
    fn path_ratio_covers_the_whole_extent() {
        let cfg = CausalConfig::identity().scale_path(Path::TlbReload, Ratio { num: 1, den: 4 });
        let mut st = CausalState::new(cfg);
        st.enter(Subsystem::Translate);
        assert_eq!(st.scale(Subsystem::Translate), (1, 4));
        // Nested spans stay inside the extent.
        st.enter(Subsystem::HtabInsert);
        assert_eq!(st.scale(Subsystem::HtabInsert), (1, 4));
        // Nested re-entry of the same path does not square the ratio.
        st.enter(Subsystem::Translate);
        assert_eq!(st.scale(Subsystem::Translate), (1, 4));
        st.exit(Subsystem::Translate);
        st.exit(Subsystem::HtabInsert);
        st.exit(Subsystem::Translate);
        assert_eq!(st.scale(Subsystem::User), (1, 1));
    }

    #[test]
    fn subsystem_and_path_ratios_compose_multiplicatively() {
        let cfg = CausalConfig::identity()
            .scale_path(Path::PageFault, Ratio { num: 1, den: 2 })
            .scale_subsystem(Subsystem::PageFault, Ratio { num: 3, den: 4 });
        let mut st = CausalState::new(cfg);
        st.enter(Subsystem::PageFault);
        assert_eq!(st.scale(Subsystem::PageFault), (3, 8));
    }

    #[test]
    fn zero_ratio_reduces_to_zero_over_one() {
        let cfg = CausalConfig::identity().scale_path(Path::Flush, Ratio::ZERO);
        let mut st = CausalState::new(cfg);
        st.enter(Subsystem::Flush);
        assert_eq!(st.scale(Subsystem::Flush), (0, 1));
    }

    #[test]
    fn explicit_path_mark_drives_rehash_extent() {
        let cfg = CausalConfig::identity().scale_path(Path::HtabRehash, Ratio { num: 1, den: 10 });
        let mut st = CausalState::new(cfg);
        st.enter(Subsystem::Mmtune);
        assert_eq!(st.scale(Subsystem::Mmtune), (1, 1));
        st.path_mark(Path::HtabRehash, true);
        assert_eq!(st.scale(Subsystem::Mmtune), (1, 10));
        st.path_mark(Path::HtabRehash, false);
        assert_eq!(st.scale(Subsystem::Mmtune), (1, 1));
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn zero_denominator_is_rejected() {
        CausalConfig::identity()
            .scale_path(Path::Flush, Ratio { num: 1, den: 0 })
            .validate();
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn oversized_component_is_rejected() {
        Ratio {
            num: 100_000,
            den: 1,
        }
        .validate();
    }
}
