//! # gskew — a reproduction of the ISCA'97 skewed branch predictor paper
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] ([`bpred_core`]) — the predictors: one table module for
//!   gskew, enhanced gskew, gshare, gselect, bimodal, the hybrids and the
//!   other tag-less families, and the tagged associative tables.
//! * [`trace`] ([`bpred_trace`]) — branch traces and the synthetic
//!   IBS-like workload generator.
//! * [`aliasing`] ([`bpred_aliasing`]) — the three-Cs aliasing
//!   classification machinery.
//! * [`model`] ([`bpred_model`]) — the paper's analytical model.
//! * [`sim`] ([`bpred_sim`]) — the simulation engine and the experiment
//!   harness reproducing every table and figure.
//! * [`results`] ([`bpred_results`]) — the persistent results store
//!   (fingerprinted cells, resume) and campaign artifacts/diffing.
//!
//! See the repository `README.md` for a tour, `DESIGN.md` for the system
//! inventory, `EXPERIMENTS.md` for paper-vs-measured results, and
//! `docs/paper-map.md` for a section-by-section paper → code index.
//!
//! ## A three-minute tour
//!
//! Build any predictor from a spec string:
//!
//! ```
//! use gskew::core::prelude::*;
//!
//! let gskew = parse_spec("gskew:n=12,h=8")?;             // 3x4K, h=8, partial
//! let egskew = parse_spec("egskew:n=12,h=11")?;          // enhanced variant
//! assert_eq!(gskew.storage_bits(), egskew.storage_bits());
//! # Ok::<(), gskew::core::error::ConfigError>(())
//! ```
//!
//! Drive it over a synthetic IBS-like workload:
//!
//! ```
//! use gskew::core::prelude::*;
//! use gskew::sim::engine;
//! use gskew::trace::prelude::*;
//!
//! let mut p = parse_spec("gskew:n=10,h=6")?;
//! let result = engine::run(
//!     &mut p,
//!     IbsBenchmark::Verilog.spec().build().take_conditionals(20_000),
//! );
//! assert!(result.mispredict_pct() < 25.0);
//! # Ok::<(), gskew::core::error::ConfigError>(())
//! ```
//!
//! Classify its aliasing into the paper's three Cs:
//!
//! ```
//! use gskew::aliasing::three_c::ThreeCClassifier;
//! use gskew::core::index::IndexFunction;
//! use gskew::trace::prelude::*;
//!
//! let breakdown = ThreeCClassifier::new(10, 4, IndexFunction::Gshare)
//!     .run(IbsBenchmark::Groff.spec().build().take_conditionals(20_000));
//! assert!(breakdown.total >= breakdown.fully_associative - 0.02);
//! ```
//!
//! And ask the analytical model where skewing pays:
//!
//! ```
//! use gskew::model::skew::crossover_distance;
//!
//! let n = 3 * 4096;
//! let d_star = crossover_distance(n as u64);
//! assert!((d_star as f64 / n as f64 - 0.105).abs() < 0.01); // ~ N/10
//! ```
//!
//! ```
//! use gskew::core::prelude::*;
//!
//! let mut p = parse_spec("gskew:n=12,h=8")?;
//! let _ = p.predict(0x4000_0000);
//! p.update(0x4000_0000, Outcome::Taken);
//! # Ok::<(), gskew::core::error::ConfigError>(())
//! ```

#![forbid(unsafe_code)]

pub use bpred_aliasing as aliasing;
pub use bpred_core as core;
pub use bpred_model as model;
pub use bpred_results as results;
pub use bpred_sim as sim;
pub use bpred_trace as trace;
