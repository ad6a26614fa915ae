//! The update policy of the skewed branch predictor (*gskew*) of
//! section 4 and its *enhanced* variant (*e-gskew*) of section 6.
//!
//! A skewed predictor holds an odd number of tag-less counter banks. Every
//! bank is read in parallel, each through a *different* hashing function of
//! the same `(address, history)` information vector, and the final
//! prediction is a **majority vote**. Two substreams that collide in one
//! bank are extremely unlikely to collide in the others, so a destructive
//! alias in a single bank is outvoted — conflict aliasing is traded for a
//! modest amount of capacity aliasing (the same prediction is stored up to
//! M times). The **enhanced** variant indexes bank 0 by address
//! truncation alone, whose much shorter last-use distance removes part of
//! the capacity aliasing at long history lengths.
//!
//! The predictor itself is one family of [`crate::table`]; this module
//! holds the [`UpdatePolicy`] it shares with `spas` and `shgskew`.

use std::fmt;

/// How the banks are trained after the outcome is known (section 4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum UpdatePolicy {
    /// Every bank is updated as if it were a sole, conventional predictor.
    Total,
    /// When the overall (majority) prediction is correct, banks that voted
    /// *against* it are left untouched — their counters are presumed to
    /// belong to a different substream, which effectively enlarges the
    /// predictor's capacity. When the overall prediction is wrong, all
    /// banks are trained. This is the policy the paper recommends.
    #[default]
    Partial,
}

impl fmt::Display for UpdatePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            UpdatePolicy::Total => "total",
            UpdatePolicy::Partial => "partial",
        })
    }
}

impl UpdatePolicy {
    /// Parse from the names used in predictor spec strings.
    pub fn from_name(name: &str) -> Option<UpdatePolicy> {
        match name {
            "total" => Some(UpdatePolicy::Total),
            "partial" => Some(UpdatePolicy::Partial),
            _ => None,
        }
    }
}
