//! One runner per table, figure, and quoted experimental result of the
//! paper. Each returns a structured result carrying the paper's published
//! values next to the simulator's measurements, plus a [`crate::tables::Table`]
//! rendering.
//!
//! Experiment index (see DESIGN.md §3):
//!
//! | id | runner |
//! |---|---|
//! | FIG1 | [`fig1::translation_walkthrough`] |
//! | E-BAT | [`narrative::exp_bat`] |
//! | E-HASH | [`narrative::exp_hash_util`] |
//! | E-FAST | [`narrative::exp_fast_reload`] |
//! | T1 | [`paper_tables::table1`] |
//! | E-LAZY | [`narrative::exp_lazy`] |
//! | E-IDLE | [`narrative::exp_idle_reclaim`] |
//! | E-MMAP | [`narrative::exp_mmap_cutoff`] |
//! | T2 | [`paper_tables::table2`] |
//! | E-CACHE | [`cache::exp_cache_pollution`] |
//! | E-CLEAR | [`cache::exp_page_clear`] |
//! | T3 | [`paper_tables::table3`] |
//! | §10 extensions | [`cache::exp_extensions`] |
//! | E-PRESSURE | [`pressure::exp_pressure`] |
//! | E-PMU | [`pmu::exp_pmu`] |
//! | E-MATRIX | [`ematrix::exp_matrix`] |
//! | E-TUNE | [`etune::exp_tune`] |
//! | E-CHECK | [`echeck::exp_check`] |
//! | E-TAIL | [`etail::exp_tail`] |
//! | E-CAUSAL | [`ecausal::exp_causal`] |

pub mod ablate;
pub mod artifacts;
pub mod cache;
pub mod ecausal;
pub mod echeck;
pub mod ematrix;
pub mod etail;
pub mod etune;
pub mod extended;
pub mod fig1;
pub mod iobat;
pub mod multiuser;
pub mod narrative;
pub mod paper_tables;
pub mod pmu;
pub mod pressure;
pub mod trace;

pub use ablate::{
    ablate_htab_size, ablate_reclaim_policy, ablate_replacement, ablate_scatter, ablate_tlb_reach,
};
pub use artifacts::{reference_workload, trace_artifacts, LatencySummary, TraceArtifacts};
pub use cache::{exp_cache_pollution, exp_extensions, exp_page_clear};
pub use ecausal::{exp_causal, CausalGateResult};
pub use echeck::{exp_check, CheckGateResult};
pub use ematrix::{exp_matrix, MatrixResult, OptimizationRow};
pub use etail::{exp_tail, TailGateResult};
pub use etune::{exp_tune, TuneGateResult};
pub use extended::extended_suite;
pub use fig1::translation_walkthrough;
pub use iobat::exp_io_bat;
pub use multiuser::exp_multiuser;
pub use narrative::{
    exp_bat, exp_fast_reload, exp_hash_util, exp_idle_reclaim, exp_lazy, exp_mmap_cutoff,
};
pub use paper_tables::{table1, table2, table3};
pub use pmu::{exp_pmu, PmuConvergenceRow, PmuResult};
pub use pressure::{exp_pressure, run_pressure};
pub use trace::{memory_hierarchy, trace_compile};
