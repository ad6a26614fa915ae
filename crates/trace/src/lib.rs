//! # bpred-trace — branch traces and synthetic IBS-like workloads
//!
//! The paper drives every experiment with the IBS-Ultrix traces (user +
//! kernel activity from a MIPS DECstation). This crate provides the
//! equivalent substrate:
//!
//! * [`record`] — the [`record::BranchRecord`] trace unit (conditional /
//!   unconditional / call / return, user / kernel).
//! * [`stream`] — [`stream::TraceSourceExt::take_conditionals`], which
//!   bounds a record stream by its conditional-branch count.
//! * [`behavior`] — stochastic branch-site behaviour models (bias, loops,
//!   patterns, history correlation, phases).
//! * [`soa`] — [`soa::TraceColumns`], the lossless conditional-major
//!   trace layout: every consumer walks its conditional records with
//!   the global history handed to them; records are rebuilt from it only
//!   for the trace file writer and the test oracles.
//! * [`cache`] — process-wide memoization of benchmark traces as
//!   `Arc<TraceColumns>` per `(benchmark, len, seed)`, so repeated sweeps
//!   generate each trace once.
//! * [`program`] — the synthetic CFG program model and its
//!   [`program::Walker`].
//! * [`gen`] — random program generation with Zipf routine frequencies.
//! * [`workload`] — the six IBS-like benchmark presets
//!   ([`workload::IbsBenchmark`]) with multi-process and kernel-burst
//!   interleaving.
//! * [`stats`] — Table 1-style trace statistics.
//! * [`io`] — the delta/varint-compressed `BPT2` trace file format, with a
//!   streaming reader.
//! * [`mix`] — multiprogrammed interleaving of whole workloads.
//!
//! ## Quick start
//!
//! ```
//! use bpred_trace::prelude::*;
//!
//! let mut workload = IbsBenchmark::Groff.spec().build();
//! let trace: TraceColumns = workload.fill(1_000);
//! let stats = TraceStats::collect([&trace]);
//! assert_eq!(stats.dynamic_conditional, 1_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod behavior;
pub mod cache;
pub mod gen;
pub mod io;
pub mod mix;
pub mod program;
pub mod record;
pub mod soa;
pub mod stats;
pub mod stream;
pub mod workload;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::behavior::Behavior;
    pub use crate::cache::CacheStats;
    pub use crate::gen::{BehaviorMix, ProgramParams};
    pub use crate::mix::MultiProgram;
    pub use crate::program::{Block, Program, Terminator, Walker};
    pub use crate::record::{BranchKind, BranchRecord, Privilege};
    pub use crate::soa::TraceColumns;
    pub use crate::stats::TraceStats;
    pub use crate::stream::TraceSourceExt;
    pub use crate::workload::{IbsBenchmark, Workload, WorkloadSpec};
}

pub use record::{BranchKind, BranchRecord, Privilege};
pub use stream::TraceSourceExt;
pub use workload::IbsBenchmark;
