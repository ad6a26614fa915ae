//! # bpred-model — the paper's analytical model of skewed prediction
//!
//! Section 5.2 of the paper explains *why* skewing works: in a 1-bank
//! table the probability that aliasing corrupts a prediction grows
//! *linearly* with the per-bank aliasing probability `p`, while in an
//! M-bank skewed organization it grows as an *M-th degree polynomial* —
//! and `p ∈ [0, 1]`, so polynomial beats linear precisely where `p` is
//! small (short last-use distances, i.e. conflict aliasing).
//!
//! * [`prob`] — formulas (1) and (2): the aliasing probability as a
//!   function of last-use distance `D` and table size `N`.
//! * [`skew`] — formulas (3) and (4): the probability that the skewed /
//!   direct-mapped prediction differs from the unaliased prediction, plus
//!   the general M-bank polynomial and the `D ≈ N/10` crossover.
//! * [`curves`] — the data series of figures 9 and 10.
//! * [`extrapolate`] — the figure 11 pipeline: measure `D` per dynamic
//!   reference, apply the formulas, add the unaliased base rate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod curves;
pub mod extrapolate;
pub mod prob;
pub mod skew;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::curves::{destructive_aliasing_curve, CurvePoint};
    pub use crate::extrapolate::{extrapolate_sizes, Extrapolation, Extrapolator};
    pub use crate::prob::{aliasing_probability, aliasing_probability_approx};
    pub use crate::skew::{crossover_distance, p_dm, p_sk, p_sk_m};
}
