//! Identity-tagged set-associative table: the bridge between the
//! direct-mapped and fully-associative miss curves.
//!
//! Section 3.3 dismisses tagged associativity as not cost-effective for
//! predictor tables, but never quantifies how much associativity would
//! buy. This instrument fills that gap: an `A`-way LRU table whose miss
//! ratio interpolates between [`TaggedDirectMapped`] (`A = 1`) and
//! [`TaggedFullyAssociative`] (`A = capacity`), so the `ext-assoc`
//! experiment can show how few ways recover most of the conflict
//! aliasing — the yardstick the skewed predictor must measure up to
//! without paying for tags.
//!
//! Each access scans its set linearly, so a one-set table (`sets_log2`
//! of 0) costs O(ways) per access. For fully-associative LRU misses use
//! [`crate::batch::fa_pass`] instead: one last-use-distance walk serves
//! every capacity, and `ext-assoc`'s full row runs on it.
//!
//! [`TaggedDirectMapped`]: crate::tagged::TaggedDirectMapped
//! [`TaggedFullyAssociative`]: crate::fully_assoc::TaggedFullyAssociative

use bpred_core::index::IndexFunction;
use bpred_core::vector::InfoVector;

#[derive(Debug, Clone, Copy)]
struct Way {
    pair: (u64, u64),
    stamp: u64,
}

/// An identity-storing, set-associative table with per-set LRU.
#[derive(Debug, Clone)]
pub struct TaggedSetAssociative {
    sets: Vec<Vec<Way>>,
    sets_log2: u32,
    ways: usize,
    func: IndexFunction,
    tick: u64,
    accesses: u64,
    misses: u64,
    cold_misses: u64,
    seen: std::collections::HashSet<(u64, u64)>,
}

impl TaggedSetAssociative {
    /// A table of `2^sets_log2` sets of `ways` entries, set-indexed by
    /// `func`.
    ///
    /// # Panics
    ///
    /// Panics if `sets_log2` exceeds 30 or `ways` is zero. `sets_log2` of
    /// 0 is allowed: a single set of `ways` entries is exactly a
    /// fully-associative LRU table.
    pub fn new(sets_log2: u32, ways: usize, func: IndexFunction) -> Self {
        assert!(sets_log2 <= 30, "sets_log2 {sets_log2} out of 0..=30");
        assert!(ways > 0, "ways must be nonzero");
        TaggedSetAssociative {
            sets: vec![Vec::with_capacity(ways); 1 << sets_log2],
            sets_log2,
            ways,
            func,
            tick: 0,
            accesses: 0,
            misses: 0,
            cold_misses: 0,
            seen: std::collections::HashSet::new(),
        }
    }

    /// Reference the table; returns `true` on a miss.
    pub fn access(&mut self, v: &InfoVector) -> bool {
        self.accesses += 1;
        self.tick += 1;
        let tick = self.tick;
        let pair = v.pair();
        let set_index = if self.sets_log2 == 0 {
            0
        } else {
            self.func.index(v, self.sets_log2) as usize
        };
        let ways = self.ways;
        let set = &mut self.sets[set_index];
        if let Some(way) = set.iter_mut().find(|w| w.pair == pair) {
            way.stamp = tick;
            return false;
        }
        self.misses += 1;
        if self.seen.insert(pair) {
            self.cold_misses += 1;
        }
        if set.len() < ways {
            set.push(Way { pair, stamp: tick });
        } else {
            let victim = set
                .iter_mut()
                .min_by_key(|w| w.stamp)
                .expect("ways is nonzero");
            victim.pair = pair;
            victim.stamp = tick;
        }
        true
    }

    /// Number of references so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// First-reference (compulsory) misses.
    pub fn cold_misses(&self) -> u64 {
        self.cold_misses
    }

    /// Miss ratio over all references.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total capacity in pairs.
    pub fn capacity(&self) -> usize {
        self.ways << self.sets_log2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::PairCursor;
    use crate::fully_assoc::TaggedFullyAssociative;
    use crate::tagged::TaggedDirectMapped;
    use bpred_trace::record::BranchKind;
    use bpred_trace::stream::TraceSourceExt;
    use bpred_trace::workload::IbsBenchmark;

    fn v(pc: u64, hist: u64) -> InfoVector {
        InfoVector::new(pc, hist, 4)
    }

    #[test]
    fn one_way_behaves_like_direct_mapped() {
        // Same capacity, same index function: identical miss counts.
        let mut sa = TaggedSetAssociative::new(6, 1, IndexFunction::Gshare);
        let mut dm = TaggedDirectMapped::new(6, IndexFunction::Gshare);
        let mut cursor = PairCursor::new(4);
        for r in IbsBenchmark::Verilog
            .spec()
            .build()
            .take_conditionals(20_000)
        {
            if r.kind == BranchKind::Conditional {
                let vec = cursor.vector(r.pc);
                sa.access(&vec);
                dm.access(&vec);
            }
            cursor.advance(&r);
        }
        assert_eq!(sa.misses(), dm.misses());
        // Note: cold semantics differ by design — the DM instrument
        // counts cold-ENTRY fills (bounded by the table size), this one
        // counts first-seen PAIRS (compulsory references), matching the
        // FA instrument.
        assert!(sa.cold_misses() >= dm.cold_misses());
    }

    #[test]
    fn associativity_monotonically_reduces_misses() {
        let capacity_log2 = 10u32;
        let mut last: Option<u64> = None;
        for ways_log2 in 0..=3u32 {
            let mut sa = TaggedSetAssociative::new(
                capacity_log2 - ways_log2,
                1 << ways_log2,
                IndexFunction::Gshare,
            );
            let mut cursor = PairCursor::new(4);
            for r in IbsBenchmark::Groff.spec().build().take_conditionals(60_000) {
                if r.kind == BranchKind::Conditional {
                    sa.access(&cursor.vector(r.pc));
                }
                cursor.advance(&r);
            }
            if let Some(prev) = last {
                // Monotone up to a small LRU-anomaly allowance.
                assert!(
                    sa.misses() <= prev + prev / 50,
                    "{} ways: {} misses vs previous {}",
                    1 << ways_log2,
                    sa.misses(),
                    prev
                );
            }
            last = Some(sa.misses());
        }
    }

    #[test]
    fn single_set_equals_fa_lru_exactly() {
        // A single set of `capacity` ways IS a fully-associative LRU
        // table; cross-validate the two implementations access by access.
        let capacity = 256usize;
        let mut sa = TaggedSetAssociative::new(0, capacity, IndexFunction::Gshare);
        let mut fa = TaggedFullyAssociative::new(capacity);
        let mut cursor = PairCursor::new(4);
        for r in IbsBenchmark::MpegPlay
            .spec()
            .build()
            .take_conditionals(30_000)
        {
            if r.kind == BranchKind::Conditional {
                let vec = cursor.vector(r.pc);
                let sa_miss = sa.access(&vec);
                let fa_miss = fa.access(vec.pair());
                assert_eq!(sa_miss, fa_miss, "divergence at access {}", sa.accesses());
            }
            cursor.advance(&r);
        }
        assert_eq!(sa.misses(), fa.misses());
        assert_eq!(sa.cold_misses(), fa.cold_misses());
    }

    #[test]
    fn basic_hit_miss_and_eviction() {
        let mut sa = TaggedSetAssociative::new(1, 2, IndexFunction::Bimodal);
        // pcs 0x0, 0x8, 0x10 all map to set 0 (even word addresses).
        assert!(sa.access(&v(0x0, 0)));
        assert!(sa.access(&v(0x8, 0)));
        assert!(!sa.access(&v(0x0, 0)), "resident hits");
        assert!(sa.access(&v(0x10, 0)), "third pair misses");
        // 0x8 was LRU, so it is gone:
        assert!(sa.access(&v(0x8, 0)));
        assert_eq!(sa.cold_misses(), 3);
        assert_eq!(sa.capacity(), 4);
        assert_eq!(sa.ways(), 2);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_ways_panics() {
        let _ = TaggedSetAssociative::new(4, 0, IndexFunction::Gshare);
    }
}
