//! # bpred-core — conditional branch predictors, including the skewed branch predictor
//!
//! This crate implements the primary contribution of Michaud, Seznec and
//! Uhlig, *"Trading Conflict and Capacity Aliasing in Conditional Branch
//! Predictors"* (ISCA 1997): the **skewed branch predictor** (`gskew`) and
//! its **enhanced** variant (`e-gskew`), together with every reference
//! predictor the paper compares against and the building blocks they share.
//!
//! ## Layout
//!
//! * [`counter`] — 1-bit, 2-bit and n-bit saturating prediction counters and
//!   the flat [`counter::CounterTable`] used by all tag-less predictors.
//! * [`index`] — the classic tag-less index functions: bimodal bit
//!   truncation, *gshare* (XOR, with the paper's footnote-1 alignment rule)
//!   and *gselect* (concatenation).
//! * [`skew`] — the inter-bank dispersion functions `H`, `H⁻¹` and
//!   `f0`,`f1`,`f2` from the skewed-associative cache work, generalized to
//!   five banks.
//! * [`predictor`] — the [`predictor::BranchPredictor`] trait and shared
//!   plumbing.
//! * [`table`] — the global history register ([`table::History`]) and
//!   every tag-less table predictor, written once: the
//!   single-bank reference schemes (bimodal, gshare, gselect), the skewed
//!   branch predictor of section 4 and its enhanced variant of section 6
//!   (3 or 5 banks, total or partial update), and the section-7
//!   extensions — the McFarling and 2bc-gskew hybrids, the agree and
//!   bi-mode predictors (Sprangle et al., ISCA'97; Lee et al., MICRO'97),
//!   per-address two-level prediction and its skewed variant, the
//!   shared-hysteresis skewed predictor, and the static always-taken and
//!   always-not-taken baselines.
//! * [`gskew`] — the update policy of the skewed banks (section 4.1).
//! * [`lru`] — the tagged LRU tables, written once: the N-entry
//!   fully-associative LRU table (section 3.3's "costly" alternative,
//!   figure 8's capacity-aliasing yardstick) and the infinite, unaliased
//!   predictor of section 3.1, which is the same table with N = ∞; and
//!   [`lru::LastUseDistance`], the last-use distance both are decided by.
//! * [`assoc`] — the tagged set-associative predictor table.
//! * [`pair`] — [`pair::PairMap`], the hash map every tagged table and
//!   aliasing instrument keys on `(address, history)` pairs.
//! * [`spec`] — textual predictor specifications (`"gskew:n=12,h=8"`):
//!   every predictor is built from one.
//!
//! ## Quick start
//!
//! ```
//! use bpred_core::prelude::*;
//!
//! // A 3x1K-entry skewed predictor, 8 bits of global history,
//! // 2-bit counters, partial update.
//! let mut pred = parse_spec("gskew:n=10,h=8").expect("valid configuration");
//!
//! // Drive it: predict, then reveal the outcome.
//! let pc = 0x4000_1000;
//! let p = pred.predict(pc);
//! pred.update(pc, Outcome::Taken);
//! assert!(matches!(p.outcome, Outcome::Taken | Outcome::NotTaken));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assoc;
pub mod counter;
pub mod error;
pub mod gskew;
pub mod index;
pub mod lru;
pub mod pair;
pub mod predictor;
pub mod skew;
pub mod spec;
pub mod table;
pub mod vector;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::assoc::SetAssociative;
    pub use crate::counter::{CounterKind, CounterTable, SatCounter};
    pub use crate::error::ConfigError;
    pub use crate::gskew::UpdatePolicy;
    pub use crate::index::IndexFunction;
    pub use crate::lru::LruPredictor;
    pub use crate::predictor::{BranchPredictor, Outcome, Prediction};
    pub use crate::spec::{parse_spec, PredictorSpec};
    pub use crate::table::{History, TablePredictor};
    pub use crate::vector::InfoVector;
}

pub use predictor::{BranchPredictor, Outcome, Prediction};
