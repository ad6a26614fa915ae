//! Reference-model tests for the fully-associative LRU machinery: a
//! naive O(n) list implementation is the ground truth, and both the
//! linked-list [`TaggedFullyAssociative`] and the shared last-use-distance
//! fast path (hit in an N-entry LRU ⟺ distance < N) must produce the
//! same per-access hit/miss stream, with [`CapacitySweep`] totals
//! matching for every capacity at once — including across the distance
//! tracker's timestamp renumbering.

use bpred_aliasing::distance::{CapacitySweep, LastUseDistance};
use bpred_aliasing::fully_assoc::TaggedFullyAssociative;
use proptest::prelude::*;

/// The textbook LRU: a vector ordered most- to least-recently used,
/// searched and reshuffled linearly, plus a seen-list for cold misses.
struct NaiveLru {
    capacity: usize,
    entries: Vec<(u64, u64)>,
    seen: Vec<(u64, u64)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Access {
    Hit,
    ColdMiss,
    CapacityMiss,
}

impl NaiveLru {
    fn new(capacity: usize) -> Self {
        NaiveLru {
            capacity,
            entries: Vec::new(),
            seen: Vec::new(),
        }
    }

    fn access(&mut self, pair: (u64, u64)) -> Access {
        if let Some(i) = self.entries.iter().position(|&p| p == pair) {
            let hit = self.entries.remove(i);
            self.entries.insert(0, hit);
            return Access::Hit;
        }
        let cold = !self.seen.contains(&pair);
        if cold {
            self.seen.push(pair);
        }
        self.entries.insert(0, pair);
        self.entries.truncate(self.capacity);
        if cold {
            Access::ColdMiss
        } else {
            Access::CapacityMiss
        }
    }
}

/// Streams over pools of 1 to 1,024 values in each of 3 histories, up
/// to 2,600 references long: past the distance tracker's initial 1,024
/// timestamps, so it renumbers its live pairs — and, for large pools,
/// also grows its tree — mid-stream.
fn arb_stream() -> impl Strategy<Value = Vec<(u64, u64)>> {
    (0u32..11, proptest::collection::vec(any::<u64>(), 0..2_600)).prop_map(|(pool_log2, raw)| {
        raw.iter()
            .map(|&r| ((r >> 8) % (1 << pool_log2), r % 3))
            .collect()
    })
}

proptest! {
    /// Per-access agreement on arbitrary streams: the naive list, the
    /// linked-list production LRU, and the distance predicate must call
    /// every access identically.
    #[test]
    fn all_three_models_agree_per_access(
        stream in arb_stream(),
        capacity in 1usize..=16,
    ) {
        let mut naive = NaiveLru::new(capacity);
        let mut fast = TaggedFullyAssociative::new(capacity);
        let mut distance = LastUseDistance::new();
        for (i, &pair) in stream.iter().enumerate() {
            let want = naive.access(pair);
            let fast_missed = fast.access(pair);
            prop_assert_eq!(fast_missed, want != Access::Hit, "access {}: {:?}", i, want);
            let d = distance.observe(pair);
            let predicate = match d {
                None => Access::ColdMiss,
                Some(d) if d >= capacity as u64 => Access::CapacityMiss,
                Some(_) => Access::Hit,
            };
            prop_assert_eq!(predicate, want, "distance predicate at access {}", i);
        }
        // The running totals agree too.
        let naive_misses = stream.len() as u64
            - {
                let mut again = NaiveLru::new(capacity);
                stream.iter().filter(|&&p| again.access(p) == Access::Hit).count() as u64
            };
        prop_assert_eq!(fast.misses(), naive_misses);
        prop_assert_eq!(fast.cold_misses(), naive.seen.len() as u64);
    }

    /// One distance stream feeds every capacity at once: the sweep's
    /// per-capacity miss totals equal a bank of naive LRUs run
    /// independently.
    #[test]
    fn capacity_sweep_matches_a_bank_of_naive_lrus(
        stream in arb_stream(),
        raw_capacities in proptest::collection::vec(1u64..=24, 1..5),
    ) {
        let mut capacities = raw_capacities;
        capacities.sort_unstable();
        capacities.dedup();
        let mut sweep = CapacitySweep::new(&capacities);
        let mut distance = LastUseDistance::new();
        for &pair in &stream {
            sweep.observe(distance.observe(pair));
        }
        let mut naive_misses = Vec::new();
        for &cap in &capacities {
            let mut lru = NaiveLru::new(cap as usize);
            naive_misses.push(
                stream.iter().filter(|&&p| lru.access(p) != Access::Hit).count() as u64,
            );
        }
        prop_assert_eq!(sweep.misses(), naive_misses);
        prop_assert_eq!(sweep.references(), stream.len() as u64);
    }

    /// LRU inclusion: growing the capacity never turns a hit into a miss,
    /// so the sweep's miss counts are monotone nonincreasing.
    #[test]
    fn sweep_misses_are_monotone_in_capacity(stream in arb_stream()) {
        let capacities: Vec<u64> = (1..=16).collect();
        let mut sweep = CapacitySweep::new(&capacities);
        let mut distance = LastUseDistance::new();
        for &pair in &stream {
            sweep.observe(distance.observe(pair));
        }
        let misses = sweep.misses();
        for pair in misses.windows(2) {
            prop_assert!(pair[0] >= pair[1], "misses not monotone: {:?}", misses);
        }
        // Cold misses are misses at every capacity, so even the largest
        // table misses at least `first_uses` times.
        prop_assert!(misses.last().copied().unwrap_or(0) >= sweep.first_uses());
    }
}
