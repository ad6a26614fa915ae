//! # bpred-sim — simulation engine and experiment harness
//!
//! Drives any [`bpred_core`] predictor over any [`bpred_trace`] workload
//! and regenerates every table and figure of the paper:
//!
//! * [`engine`] — the trace-driven predict/update loop and misprediction
//!   accounting (including the paper's exclusion of compulsory references
//!   for the unaliased predictor), plus a delayed-update mode.
//! * [`duel`] — lockstep two-predictor comparison with a McNemar paired
//!   significance test.
//! * [`experiments`] — the registry of reproducible experiments (`table1`,
//!   `table2`, `fig1` … `fig12`, ablations and extensions), each emitting
//!   renderable tables.
//! * [`report`] — aligned-text and CSV table rendering.
//! * [`kernel`] — monomorphized batch run loops over every predictor
//!   family (table kernels and tagged-table walks), bit-identical to
//!   driving the predictors through the `dyn` engine but walking
//!   structure-of-arrays trace columns.
//! * [`timing`] — process-wide records/sec counters for the kernel and
//!   `dyn` paths.
//! * [`runner`] — order-preserving parallel sweeps.
//! * [`resume`] — results-store integration: persist simulated cells and
//!   skip fingerprint-identical ones on reruns.
//! * [`campaign`] — named experiment sets and their portable artifacts.
//!
//! ```
//! use bpred_sim::engine;
//! use bpred_core::prelude::*;
//! use bpred_trace::prelude::*;
//!
//! let mut predictor = parse_spec("gskew:n=10,h=6")?;
//! let trace = IbsBenchmark::Verilog.spec().build().take_conditionals(10_000);
//! let result = engine::run(&mut predictor, trace);
//! assert!(result.mispredict_pct() < 50.0);
//! # Ok::<(), bpred_core::error::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod duel;
pub mod engine;
pub mod experiments;
pub mod kernel;
pub mod report;
pub mod resume;
pub mod runner;
pub mod timing;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::duel::{duel, DuelResult};
    pub use crate::engine::{run, run_many, run_with, NovelPolicy, RunResult};
    pub use crate::experiments::{ExperimentOpts, ExperimentOutput, ALL_IDS};
    pub use crate::kernel::{run_specs, PredictorKernel};
    pub use crate::report::Table;
    pub use crate::runner::parallel_map;
    pub use crate::timing::EngineTiming;
}
