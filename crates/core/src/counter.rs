//! Saturating prediction counters and flat counter tables.
//!
//! The paper studies both 1-bit automatons (last-outcome) and the classic
//! 2-bit saturating counter (Smith, 1981). [`SatCounter`] is the value-level
//! automaton; [`CounterTable`] is the dense array of such automatons that
//! backs every tag-less predictor bank in this crate.

use crate::predictor::Outcome;
use std::fmt;

/// The width of the per-entry prediction automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CounterKind {
    /// A 1-bit automaton: predict the last outcome.
    OneBit,
    /// The classic 2-bit saturating counter.
    TwoBit,
    /// A saturating counter of arbitrary width (3..=7 bits).
    ///
    /// Wider counters are hypothesized in the paper's "distributed predictor
    /// encodings" future-work question; they are provided so that the
    /// ablation harness can sweep counter width.
    Wide(u8),
}

impl CounterKind {
    /// Number of state bits per counter.
    #[inline]
    pub fn bits(self) -> u8 {
        match self {
            CounterKind::OneBit => 1,
            CounterKind::TwoBit => 2,
            CounterKind::Wide(b) => b,
        }
    }

    /// Largest representable counter value (`2^bits - 1`).
    #[inline]
    pub fn max_value(self) -> u8 {
        ((1u16 << self.bits()) - 1) as u8
    }

    /// The conventional weakly-not-taken initial value (`max/2`, i.e. the
    /// highest state that still predicts not-taken).
    #[inline]
    pub fn neutral(self) -> u8 {
        self.max_value() >> 1
    }

    /// The lowest value that predicts taken (weakly taken).
    #[inline]
    pub fn weakly_taken(self) -> u8 {
        self.neutral() + 1
    }

    /// Construct a kind from a bit width.
    ///
    /// # Errors
    ///
    /// Returns `None` when `bits` is 0 or larger than 7.
    pub fn from_bits(bits: u8) -> Option<CounterKind> {
        match bits {
            1 => Some(CounterKind::OneBit),
            2 => Some(CounterKind::TwoBit),
            3..=7 => Some(CounterKind::Wide(bits)),
            _ => None,
        }
    }
}

impl fmt::Display for CounterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-bit", self.bits())
    }
}

/// A single saturating up/down counter.
///
/// The counter predicts taken when its value is in the upper half of its
/// range (most-significant bit set). On a taken outcome it increments,
/// saturating at `2^bits - 1`; on a not-taken outcome it decrements,
/// saturating at 0.
///
/// ```
/// use bpred_core::counter::{CounterKind, SatCounter};
/// use bpred_core::predictor::Outcome;
///
/// let mut c = SatCounter::new(CounterKind::TwoBit);
/// assert_eq!(c.predict(), Outcome::NotTaken); // starts weakly not-taken
/// c.train(Outcome::Taken);
/// assert_eq!(c.predict(), Outcome::Taken);    // now weakly taken
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SatCounter {
    kind: CounterKind,
    value: u8,
}

impl SatCounter {
    /// A counter initialized to the weakly-not-taken neutral state.
    #[inline]
    pub fn new(kind: CounterKind) -> Self {
        SatCounter {
            kind,
            value: kind.neutral(),
        }
    }

    /// A counter whose initial state immediately predicts `outcome` weakly.
    ///
    /// Used by the tagged predictors when allocating an entry for a freshly
    /// seen substream.
    #[inline]
    pub fn seeded(kind: CounterKind, outcome: Outcome) -> Self {
        let value = match outcome {
            Outcome::Taken => kind.weakly_taken(),
            Outcome::NotTaken => kind.neutral(),
        };
        SatCounter { kind, value }
    }

    /// The automaton width.
    #[inline]
    pub fn kind(&self) -> CounterKind {
        self.kind
    }

    /// The raw counter value.
    #[inline]
    pub fn value(&self) -> u8 {
        self.value
    }

    /// The direction this counter currently predicts.
    #[inline]
    pub fn predict(&self) -> Outcome {
        Outcome::from(self.value > self.kind.neutral())
    }

    /// Train the counter with an observed outcome.
    #[inline]
    pub fn train(&mut self, outcome: Outcome) {
        self.value = step(self.value, self.kind.max_value(), outcome);
    }
}

impl Default for SatCounter {
    fn default() -> Self {
        SatCounter::new(CounterKind::TwoBit)
    }
}

#[inline]
fn step(value: u8, max: u8, outcome: Outcome) -> u8 {
    match outcome {
        Outcome::Taken => {
            if value < max {
                value + 1
            } else {
                value
            }
        }
        Outcome::NotTaken => value.saturating_sub(1),
    }
}

/// A dense, power-of-two-sized array of saturating counters.
///
/// This is the storage of one tag-less predictor bank. Counters are stored
/// as bytes for simulation speed; [`CounterTable::storage_bits`] reports the
/// hardware cost (`entries * kind.bits()`).
///
/// Fresh tables boot in the *weakly taken* state: a cold tag-less
/// predictor then behaves like the static always-taken predictor the
/// paper uses as its miss fallback, instead of pessimistically predicting
/// not-taken for every unseen branch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterTable {
    kind: CounterKind,
    mask: u64,
    cells: Vec<u8>,
}

impl CounterTable {
    /// Create a table of `2^entries_log2` counters, all weakly taken.
    ///
    /// # Panics
    ///
    /// Panics if `entries_log2 > 30` (a 1-Gi-entry table is assumed to be a
    /// configuration mistake).
    pub fn new(entries_log2: u32, kind: CounterKind) -> Self {
        assert!(
            entries_log2 <= 30,
            "counter table of 2^{entries_log2} entries is unreasonably large"
        );
        let len = 1usize << entries_log2;
        CounterTable {
            kind,
            mask: (len as u64) - 1,
            cells: vec![kind.weakly_taken(); len],
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Always `false`: tables have at least one entry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `log2` of the number of entries.
    #[inline]
    pub fn entries_log2(&self) -> u32 {
        self.cells.len().trailing_zeros()
    }

    /// The automaton width used by every entry.
    #[inline]
    pub fn kind(&self) -> CounterKind {
        self.kind
    }

    /// Predict from entry `index` (wrapped into range).
    #[inline]
    pub fn predict(&self, index: u64) -> Outcome {
        let v = self.cells[(index & self.mask) as usize];
        Outcome::from(v > self.kind.neutral())
    }

    /// Train entry `index` with `outcome`.
    #[inline]
    pub fn train(&mut self, index: u64, outcome: Outcome) {
        let cell = &mut self.cells[(index & self.mask) as usize];
        *cell = step(*cell, self.kind.max_value(), outcome);
    }

    /// Raw value of entry `index`, for tests and diagnostics.
    #[inline]
    pub fn value(&self, index: u64) -> u8 {
        self.cells[(index & self.mask) as usize]
    }

    /// Hardware storage cost in bits.
    #[inline]
    pub fn storage_bits(&self) -> u64 {
        self.cells.len() as u64 * u64::from(self.kind.bits())
    }

    /// Reset every entry to the boot (weakly taken) state.
    pub fn reset(&mut self) {
        self.cells.fill(self.kind.weakly_taken());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_bit_accounting() {
        assert_eq!(CounterKind::OneBit.bits(), 1);
        assert_eq!(CounterKind::TwoBit.bits(), 2);
        assert_eq!(CounterKind::Wide(5).bits(), 5);
        assert_eq!(CounterKind::OneBit.max_value(), 1);
        assert_eq!(CounterKind::TwoBit.max_value(), 3);
        assert_eq!(CounterKind::TwoBit.neutral(), 1);
        assert_eq!(CounterKind::TwoBit.weakly_taken(), 2);
    }

    #[test]
    fn kind_from_bits_bounds() {
        assert_eq!(CounterKind::from_bits(0), None);
        assert_eq!(CounterKind::from_bits(1), Some(CounterKind::OneBit));
        assert_eq!(CounterKind::from_bits(2), Some(CounterKind::TwoBit));
        assert_eq!(CounterKind::from_bits(3), Some(CounterKind::Wide(3)));
        assert_eq!(CounterKind::from_bits(8), None);
    }

    #[test]
    fn one_bit_counter_tracks_last_outcome() {
        let mut c = SatCounter::new(CounterKind::OneBit);
        for &o in &[
            Outcome::Taken,
            Outcome::NotTaken,
            Outcome::Taken,
            Outcome::Taken,
            Outcome::NotTaken,
        ] {
            c.train(o);
            assert_eq!(c.predict(), o, "1-bit predicts exactly the last outcome");
        }
    }

    #[test]
    fn two_bit_counter_hysteresis() {
        // A loop branch: taken many times, then one exit. The 2-bit counter
        // should still predict taken on the next loop entry; 1-bit flips.
        let mut two = SatCounter::new(CounterKind::TwoBit);
        let mut one = SatCounter::new(CounterKind::OneBit);
        for _ in 0..10 {
            two.train(Outcome::Taken);
            one.train(Outcome::Taken);
        }
        two.train(Outcome::NotTaken);
        one.train(Outcome::NotTaken);
        assert_eq!(two.predict(), Outcome::Taken, "hysteresis retained");
        assert_eq!(one.predict(), Outcome::NotTaken, "1-bit flipped");
    }

    #[test]
    fn counter_saturates_at_both_ends() {
        let mut c = SatCounter::new(CounterKind::TwoBit);
        for _ in 0..100 {
            c.train(Outcome::Taken);
        }
        assert_eq!(c.value(), 3);
        for _ in 0..100 {
            c.train(Outcome::NotTaken);
        }
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn seeded_counter_predicts_seed() {
        let t = SatCounter::seeded(CounterKind::TwoBit, Outcome::Taken);
        assert_eq!(t.predict(), Outcome::Taken);
        assert_eq!(t.value(), 2, "seed is weak");
        let n = SatCounter::seeded(CounterKind::TwoBit, Outcome::NotTaken);
        assert_eq!(n.predict(), Outcome::NotTaken);
    }

    #[test]
    fn table_indexing_wraps() {
        let mut t = CounterTable::new(4, CounterKind::TwoBit);
        assert_eq!(t.len(), 16);
        t.train(3, Outcome::Taken);
        t.train(3 + 16, Outcome::Taken); // same entry modulo table size
        assert_eq!(t.predict(3), Outcome::Taken);
        assert_eq!(t.value(3), 3.min(t.kind().max_value()));
    }

    #[test]
    fn table_storage_bits() {
        let t = CounterTable::new(12, CounterKind::TwoBit);
        assert_eq!(t.storage_bits(), 4096 * 2);
        let t = CounterTable::new(10, CounterKind::OneBit);
        assert_eq!(t.storage_bits(), 1024);
    }

    #[test]
    fn table_boots_and_resets_weakly_taken() {
        let mut t = CounterTable::new(4, CounterKind::TwoBit);
        for i in 0..16 {
            assert_eq!(t.predict(i), Outcome::Taken, "cold table predicts taken");
            t.train(i, Outcome::NotTaken);
            t.train(i, Outcome::NotTaken);
        }
        t.reset();
        for i in 0..16 {
            assert_eq!(t.value(i), CounterKind::TwoBit.weakly_taken());
        }
    }

    #[test]
    fn wide_counter_range() {
        let mut c = SatCounter::new(CounterKind::Wide(4));
        assert_eq!(c.value(), 7);
        for _ in 0..20 {
            c.train(Outcome::Taken);
        }
        assert_eq!(c.value(), 15);
        c.train(Outcome::NotTaken);
        assert_eq!(c.value(), 14);
        assert_eq!(c.predict(), Outcome::Taken);
    }
}
