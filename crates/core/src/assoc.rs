//! Tagged set-associative predictor tables.
//!
//! Section 3.3 of the paper points out that removing conflicts the way
//! caches do requires tags identifying `(address, history)` pairs — tags
//! that are disproportionately wide next to a 2-bit counter. Tagged
//! tables exist in this crate as *yardsticks*, not proposals. The
//! fully-associative LRU table of figure 8 and the unbounded table of
//! section 3.1 are [`crate::lru`]'s; this module holds
//! [`SetAssociative`], the intermediate design the paper alludes to but
//! does not evaluate: the `setassoc` family, and the table behind the
//! `ext-assoc` associativity sweep, whose misses are its novel
//! predictions. [`MissPolicy`] is the static prediction every tagged
//! table makes on a miss.

use crate::counter::CounterKind;
use crate::error::ConfigError;
use crate::index::IndexFunction;
use crate::predictor::{BranchPredictor, Outcome, Prediction};
use crate::table::{Counter, History, Width};
use crate::vector::InfoVector;

/// Modeled tag width in bits for storage accounting: a 30-bit partial
/// address tag, as a generous real-hardware estimate.
pub(crate) const ADDR_TAG_BITS: u64 = 30;

/// The static prediction returned when a tagged table misses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MissPolicy {
    /// Predict taken on a miss (the paper's figure 8 choice).
    #[default]
    AlwaysTaken,
    /// Predict not-taken on a miss.
    AlwaysNotTaken,
}

impl MissPolicy {
    #[inline]
    pub(crate) fn outcome(self) -> Outcome {
        match self {
            MissPolicy::AlwaysTaken => Outcome::Taken,
            MissPolicy::AlwaysNotTaken => Outcome::NotTaken,
        }
    }
}

/// The most entries (`ways << sets_log2`) a [`SetAssociative`] table may
/// hold: 2^24 entries of 32 bytes each, 512 MiB.
pub const MAX_SET_ENTRIES: usize = 1 << 24;

#[derive(Debug, Clone, Copy)]
struct Way {
    /// The `(address, history)` pair held.
    pair: (u64, u64),
    /// The access that last touched the way; 0 while it is empty.
    stamp: u64,
    counter: u8,
}

/// A way that holds no pair: no word address reaches `u64::MAX`.
const EMPTY_WAY: Way = Way {
    pair: (u64::MAX, u64::MAX),
    stamp: 0,
    counter: 0,
};

/// A set-associative, LRU-replaced predictor table tagged with complete
/// `(address, history)` pairs.
///
/// Sets are selected with a gshare-style hash of the pair so that set
/// conflicts mirror those of the equivalent direct-mapped table; within a
/// set, replacement is true LRU via the tick of each way's last access.
/// The sets lie one after another in one array of ways.
/// [`SetAssociative::access`] is the whole per-record transition: the
/// [`BranchPredictor`] impl and the batch walk of `bpred-sim` both call
/// it.
#[derive(Debug, Clone)]
pub struct SetAssociative {
    sets_log2: u32,
    ways: usize,
    table: Vec<Way>,
    history: History,
    kind: CounterKind,
    counter: Width,
    miss_policy: MissPolicy,
    tick: u64,
}

impl SetAssociative {
    /// Check a geometry without allocating it.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `sets_log2` is out of `1..=30`, `ways` is
    /// zero, the table would hold more than [`MAX_SET_ENTRIES`] entries, or
    /// `history_bits` exceeds 64.
    pub fn check(sets_log2: u32, ways: usize, history_bits: u32) -> Result<(), ConfigError> {
        if sets_log2 == 0 || sets_log2 > 30 {
            return Err(ConfigError::invalid(
                "sets_log2",
                sets_log2,
                "must be in 1..=30",
            ));
        }
        if ways == 0 {
            return Err(ConfigError::invalid("ways", ways, "must be nonzero"));
        }
        if ways > MAX_SET_ENTRIES >> sets_log2 {
            return Err(ConfigError::invalid(
                "ways",
                ways,
                "puts more than 2^24 entries (512 MiB) in the table",
            ));
        }
        if history_bits > 64 {
            return Err(ConfigError::invalid(
                "history_bits",
                history_bits,
                "must be at most 64",
            ));
        }
        Ok(())
    }

    /// A table of `2^sets_log2` sets of `ways` entries each.
    ///
    /// # Errors
    ///
    /// As [`SetAssociative::check`].
    pub fn new(
        sets_log2: u32,
        ways: usize,
        history_bits: u32,
        kind: CounterKind,
    ) -> Result<Self, ConfigError> {
        Self::check(sets_log2, ways, history_bits)?;
        Ok(SetAssociative {
            sets_log2,
            ways,
            table: vec![EMPTY_WAY; ways << sets_log2],
            history: History::new(history_bits),
            kind,
            counter: Width::of(kind),
            miss_policy: MissPolicy::AlwaysTaken,
            tick: 0,
        })
    }

    /// Change the static prediction used on a miss.
    pub fn with_miss_policy(mut self, policy: MissPolicy) -> Self {
        self.miss_policy = policy;
        self
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total capacity in entries.
    pub fn capacity(&self) -> usize {
        self.ways << self.sets_log2
    }

    /// The first way of the set of the branch at `pc` under the global
    /// history `hist`, and the branch's pair.
    #[inline]
    fn locate(&self, pc: u64, hist: u64) -> (usize, (u64, u64)) {
        let v = InfoVector::new(pc, hist, self.history.bits());
        let set = IndexFunction::Gshare.index(&v, self.sets_log2) as usize;
        (set * self.ways, v.pair())
    }

    /// Predict the branch at `pc` under the global history `hist` (of
    /// which the table keeps its low `history_bits` bits), then train with
    /// `outcome`. A hit predicts from the way's counter, trains it and
    /// marks the way most recently used. A miss predicts the miss policy's
    /// outcome, flagged novel, and refills the set's least recently used
    /// way (an empty one first) with a counter seeded toward `outcome`.
    #[inline]
    pub fn access(&mut self, pc: u64, hist: u64, outcome: Outcome) -> Prediction {
        let (first, pair) = self.locate(pc, hist);
        self.tick += 1;
        let (c, taken, tick) = (self.counter, outcome.is_taken(), self.tick);
        let set = &mut self.table[first..first + self.ways];
        if let Some(way) = set.iter_mut().find(|w| w.pair == pair) {
            let predicted = c.taken(way.counter);
            way.counter = c.step(way.counter, taken);
            way.stamp = tick;
            return Prediction::of(Outcome::from(predicted));
        }
        let victim = set.iter_mut().min_by_key(|w| w.stamp);
        *victim.expect("ways is nonzero") = Way {
            pair,
            stamp: tick,
            // SatCounter::seeded: weakly toward the outcome.
            counter: c.neutral() + u8::from(taken),
        };
        Prediction::novel(self.miss_policy.outcome())
    }
}

impl BranchPredictor for SetAssociative {
    fn predict(&mut self, pc: u64) -> Prediction {
        let (first, pair) = self.locate(pc, self.history.value());
        let set = &self.table[first..first + self.ways];
        match set.iter().find(|w| w.pair == pair) {
            Some(w) => Prediction::of(Outcome::from(self.counter.taken(w.counter))),
            None => Prediction::novel(self.miss_policy.outcome()),
        }
    }

    fn update(&mut self, pc: u64, outcome: Outcome) {
        self.access(pc, self.history.value(), outcome);
        self.history.push(outcome.is_taken(), self.history.mask());
    }

    fn record_unconditional(&mut self, _pc: u64) {
        self.history.push(true, self.history.mask());
    }

    fn name(&self) -> String {
        format!(
            "setassoc {}x{}w h={} {}",
            1u64 << self.sets_log2,
            self.ways,
            self.history.bits(),
            self.kind
        )
    }

    fn storage_bits(&self) -> u64 {
        let lru_bits = usize::BITS - (self.ways - 1).leading_zeros();
        self.capacity() as u64
            * (ADDR_TAG_BITS
                + u64::from(self.history.bits())
                + u64::from(self.kind.bits())
                + u64::from(lru_bits))
    }

    fn reset(&mut self) {
        self.table.fill(EMPTY_WAY);
        self.history = History::new(self.history.bits());
        self.tick = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sa_lru_within_set() {
        // Word addresses 0, 2 and 4 share the one set bit of a 2-way
        // table: the least recently used of the three is replaced.
        let mut p = SetAssociative::new(1, 2, 0, CounterKind::TwoBit).unwrap();
        let (a, b, c) = (0x0, 0x8, 0x10);
        assert!([b, c]
            .iter()
            .all(|&pc| p.locate(pc, 0).0 == p.locate(a, 0).0));
        for pc in [a, b, a, c] {
            p.update(pc, Outcome::Taken); // touching a leaves b to evict
        }
        assert!(!p.predict(a).novel && p.predict(b).novel && !p.predict(c).novel);
    }

    #[test]
    fn sa_access_predicts_then_trains() {
        let mut p = SetAssociative::new(4, 2, 4, CounterKind::TwoBit)
            .unwrap()
            .with_miss_policy(MissPolicy::AlwaysNotTaken);
        let miss = p.access(0x1000, 0b1011, Outcome::Taken);
        assert_eq!(miss, Prediction::novel(Outcome::NotTaken));
        // Only the low 4 history bits are the pair's.
        let hit = p.access(0x1000, 0xf0 | 0b1011, Outcome::NotTaken);
        assert_eq!(hit, Prediction::of(Outcome::Taken), "seeded weakly taken");
        assert_eq!(
            p.access(0x1000, 0b1011, Outcome::NotTaken),
            Prediction::of(Outcome::NotTaken),
            "trained down once"
        );
        assert!(p.access(0x1000, 0b0011, Outcome::Taken).novel);
    }

    #[test]
    fn sa_capacity() {
        let p = SetAssociative::new(4, 4, 0, CounterKind::TwoBit).unwrap();
        assert_eq!(p.capacity(), 64);
        assert_eq!(p.ways(), 4);
    }

    #[test]
    fn config_validation() {
        assert!(SetAssociative::new(0, 2, 0, CounterKind::TwoBit).is_err());
        assert!(SetAssociative::new(4, 0, 0, CounterKind::TwoBit).is_err());
        // The entry ceiling is checked before anything is allocated.
        let refused = "puts more than 2^24 entries (512 MiB) in the table";
        assert_eq!(SetAssociative::check(20, 16, 64), Ok(()));
        for (n, ways) in [(20, 17), (30, 1), (1, usize::MAX)] {
            let too_big = ConfigError::invalid("ways", ways, refused);
            assert_eq!(
                SetAssociative::check(n, ways, 0),
                Err(too_big),
                "{n} {ways}"
            );
        }
        assert!(SetAssociative::new(30, 1, 4, CounterKind::TwoBit).is_err());
        assert_eq!(MAX_SET_ENTRIES * std::mem::size_of::<Way>(), 512 << 20);
    }

    #[test]
    fn names() {
        let q = SetAssociative::new(6, 4, 8, CounterKind::OneBit).unwrap();
        assert_eq!(q.name(), "setassoc 64x4w h=8 1-bit");
    }
}
