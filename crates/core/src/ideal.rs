//! The ideal, unaliased predictor of section 3.1: a conceptually infinite
//! table with one automaton per `(address, history)` pair.
//!
//! Used to measure the intrinsic prediction accuracy of a history length
//! (Table 2) and as the base rate of the analytical extrapolation
//! (figure 11). Following the paper, the first encounter of a pair is
//! flagged [`Prediction::novel`] and is *not* charged as a misprediction by
//! the simulation engine.

use crate::counter::{CounterKind, SatCounter};
use crate::error::ConfigError;
use crate::history::GlobalHistory;
use crate::pair::PairMap;
use crate::predictor::{BranchPredictor, Outcome, Prediction};
use crate::vector::InfoVector;

/// An infinite-capacity, conflict-free predictor.
///
/// ```
/// use bpred_core::prelude::*;
///
/// let mut p = Ideal::new(4, CounterKind::TwoBit)?;
/// let pc = 0x1000;
/// assert!(p.predict(pc).novel, "first encounter of the substream");
/// p.update(pc, Outcome::Taken);
/// # Ok::<(), bpred_core::error::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Ideal {
    map: PairMap<SatCounter>,
    history: GlobalHistory,
    kind: CounterKind,
    /// Count of distinct `(address, history)` pairs ever seen.
    distinct_pairs: u64,
}

impl Ideal {
    /// An unaliased predictor using `history_bits` of global history.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `history_bits` exceeds 64.
    pub fn new(history_bits: u32, kind: CounterKind) -> Result<Self, ConfigError> {
        if history_bits > 64 {
            return Err(ConfigError::invalid(
                "history_bits",
                history_bits,
                "must be at most 64",
            ));
        }
        Ok(Ideal {
            map: PairMap::default(),
            history: GlobalHistory::new(history_bits),
            kind,
            distinct_pairs: 0,
        })
    }

    /// Number of distinct `(address, history)` pairs encountered so far —
    /// the numerator of the paper's compulsory-aliasing ratio.
    pub fn distinct_pairs(&self) -> u64 {
        self.distinct_pairs
    }

    /// History register length.
    pub fn history_bits(&self) -> u32 {
        self.history.len()
    }

    #[inline]
    fn key(&self, pc: u64) -> (u64, u64) {
        InfoVector::new(pc, self.history.value(), self.history.len()).pair()
    }
}

impl BranchPredictor for Ideal {
    fn predict(&mut self, pc: u64) -> Prediction {
        match self.map.get(&self.key(pc)) {
            Some(counter) => Prediction::of(counter.predict()),
            None => Prediction::novel(Outcome::NotTaken),
        }
    }

    fn update(&mut self, pc: u64, outcome: Outcome) {
        let key = self.key(pc);
        match self.map.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut e) => e.get_mut().train(outcome),
            std::collections::hash_map::Entry::Vacant(e) => {
                self.distinct_pairs += 1;
                e.insert(SatCounter::seeded(self.kind, outcome));
            }
        }
        self.history.push(outcome);
    }

    fn record_unconditional(&mut self, _pc: u64) {
        self.history.push(Outcome::Taken);
    }

    fn name(&self) -> String {
        format!("ideal h={} {}", self.history.len(), self.kind)
    }

    fn storage_bits(&self) -> u64 {
        // Conceptually infinite; report the bits actually allocated.
        self.map.len() as u64 * u64::from(self.kind.bits())
    }

    fn reset(&mut self) {
        self.map.clear();
        self.history.clear();
        self.distinct_pairs = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_aliases() {
        // Two branches that would collide in any small table get separate
        // automatons here.
        let mut p = Ideal::new(0, CounterKind::TwoBit).unwrap();
        for _ in 0..4 {
            p.update(0x1000, Outcome::Taken);
            p.update(0x1000 + (1 << 20), Outcome::NotTaken);
        }
        assert_eq!(p.predict(0x1000).outcome, Outcome::Taken);
        assert_eq!(p.predict(0x1000 + (1 << 20)).outcome, Outcome::NotTaken);
    }

    #[test]
    fn first_encounter_is_novel() {
        let mut p = Ideal::new(4, CounterKind::TwoBit).unwrap();
        assert!(p.predict(0x1000).novel);
        p.update(0x1000, Outcome::Taken);
        // Same pc but the history changed, so the pair is again novel.
        assert!(p.predict(0x1000).novel);
    }

    #[test]
    fn same_pair_is_not_novel() {
        let mut p = Ideal::new(0, CounterKind::TwoBit).unwrap();
        p.update(0x1000, Outcome::Taken);
        assert!(!p.predict(0x1000).novel, "h=0 keeps the pair stable");
    }

    #[test]
    fn seeding_predicts_first_outcome() {
        let mut p = Ideal::new(0, CounterKind::TwoBit).unwrap();
        p.update(0x1000, Outcome::Taken);
        assert_eq!(p.predict(0x1000).outcome, Outcome::Taken);
        p.reset();
        p.update(0x1000, Outcome::NotTaken);
        assert_eq!(p.predict(0x1000).outcome, Outcome::NotTaken);
    }

    #[test]
    fn distinct_pairs_counts_substreams() {
        let mut p = Ideal::new(2, CounterKind::TwoBit).unwrap();
        // Branch at fixed pc with alternating outcome: histories cycle
        // through 01,10 after warmup; plus the two initial states.
        let mut o = Outcome::Taken;
        for _ in 0..20 {
            p.update(0x1000, o);
            o = o.flipped();
        }
        assert!(p.distinct_pairs() >= 2);
        assert!(p.distinct_pairs() <= 4, "at most 4 histories of 2 bits");
    }

    #[test]
    fn substream_separation_by_history() {
        // The same static branch behaves differently under different
        // histories; the ideal predictor learns both perfectly.
        let mut p = Ideal::new(1, CounterKind::OneBit).unwrap();
        // Outcome = previous outcome flipped (alternating): under history
        // `1` the branch is not-taken, under history `0` it is taken.
        let mut o = Outcome::Taken;
        for _ in 0..8 {
            p.update(0x1000, o);
            o = o.flipped();
        }
        let mut correct = 0;
        for _ in 0..8 {
            if p.predict(0x1000).outcome == o {
                correct += 1;
            }
            p.update(0x1000, o);
            o = o.flipped();
        }
        assert_eq!(correct, 8);
    }

    #[test]
    fn reset_clears_everything() {
        let mut p = Ideal::new(4, CounterKind::TwoBit).unwrap();
        p.update(0x1000, Outcome::Taken);
        p.reset();
        assert_eq!(p.distinct_pairs(), 0);
        assert!(p.predict(0x1000).novel);
        assert_eq!(p.storage_bits(), 0);
    }
}
