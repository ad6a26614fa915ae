//! Consumers of the last-use distance `D` of the analytical model
//! (section 5.2): for a dynamic reference to pair `V`, the number of
//! distinct `(address, history)` pairs encountered since the last
//! occurrence of `V` — the LRU stack distance over pairs. A reference hits
//! an N-entry fully-associative LRU table iff `D < N`, which is exactly
//! how the paper separates conflict aliasing (short `D`) from capacity
//! aliasing (long `D`).
//!
//! The tracker itself, [`LastUseDistance`], lives in [`bpred_core::lru`]
//! beside the LRU tables it decides; this module turns its distance
//! stream into per-capacity miss counts ([`CapacitySweep`]) and a
//! locality histogram ([`DistanceHistogram`]).

#[cfg(doc)]
use bpred_core::lru::LastUseDistance;

/// Exact fully-associative LRU miss counts for *many* capacities from one
/// distance stream.
///
/// A reference with last-use distance `d` hits an `N`-entry
/// fully-associative LRU table iff `d < N` (the inclusion property of LRU
/// stacks), so one [`LastUseDistance`] pass can serve every capacity at
/// once: each observation lands in the smallest capacity that would hit,
/// and the per-capacity miss counts fall out of a suffix sum at the end.
/// Unlike [`DistanceHistogram::hit_ratio_at`] this is exact for
/// *arbitrary* capacities, and it returns integer counts — the batched
/// three-C engine needs bit-identical tallies, not estimates.
#[derive(Debug, Clone)]
pub struct CapacitySweep {
    /// Strictly increasing capacities under measurement.
    capacities: Vec<u64>,
    /// `hits_at[j]` counts re-references whose distance first fits
    /// `capacities[j]` (i.e. `capacities[j-1] <= d < capacities[j]`).
    hits_at: Vec<u64>,
    references: u64,
    first_uses: u64,
}

impl CapacitySweep {
    /// A sweep over `capacities`, which must be strictly increasing and
    /// nonzero.
    ///
    /// # Panics
    ///
    /// Panics on an empty, zero-containing or non-increasing capacity
    /// list.
    pub fn new(capacities: &[u64]) -> Self {
        assert!(!capacities.is_empty(), "no capacities to sweep");
        assert!(capacities[0] > 0, "capacity must be nonzero");
        assert!(
            capacities.windows(2).all(|w| w[0] < w[1]),
            "capacities must be strictly increasing"
        );
        CapacitySweep {
            capacities: capacities.to_vec(),
            hits_at: vec![0; capacities.len()],
            references: 0,
            first_uses: 0,
        }
    }

    /// Account one observation from [`LastUseDistance::observe`].
    #[inline]
    pub fn observe(&mut self, distance: Option<u64>) {
        self.references += 1;
        match distance {
            None => self.first_uses += 1,
            Some(d) => {
                // Smallest capacity with d < capacity; beyond the largest,
                // the reference misses every table under measurement.
                let j = self.capacities.partition_point(|&c| c <= d);
                if j < self.hits_at.len() {
                    self.hits_at[j] += 1;
                }
            }
        }
    }

    /// References observed so far.
    pub fn references(&self) -> u64 {
        self.references
    }

    /// First-use (compulsory) references — a miss at every capacity.
    pub fn first_uses(&self) -> u64 {
        self.first_uses
    }

    /// Total miss counts per capacity, parallel to the constructor's
    /// capacity list. Each entry includes the first-use misses.
    pub fn misses(&self) -> Vec<u64> {
        let mut hits = 0u64;
        self.hits_at
            .iter()
            .map(|&h| {
                hits += h;
                self.references - hits
            })
            .collect()
    }

    /// The capacity list under measurement.
    pub fn capacities(&self) -> &[u64] {
        &self.capacities
    }
}

/// A power-of-two histogram of last-use distances with a first-use bucket,
/// handy for inspecting workload locality.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DistanceHistogram {
    /// `buckets[i]` counts distances in `[2^(i-1), 2^i)` (bucket 0 counts
    /// distance 0).
    buckets: Vec<u64>,
    /// First-use references (infinite distance).
    first_uses: u64,
    total: u64,
}

impl DistanceHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        DistanceHistogram::default()
    }

    /// Account one observation from [`LastUseDistance::observe`].
    pub fn record(&mut self, distance: Option<u64>) {
        self.total += 1;
        match distance {
            None => self.first_uses += 1,
            Some(d) => {
                let bucket = if d == 0 {
                    0
                } else {
                    64 - d.leading_zeros() as usize
                };
                if self.buckets.len() <= bucket {
                    self.buckets.resize(bucket + 1, 0);
                }
                self.buckets[bucket] += 1;
            }
        }
    }

    /// First-use count.
    pub fn first_uses(&self) -> u64 {
        self.first_uses
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fraction of (re-)references with distance below `limit` — the hit
    /// ratio of a `limit`-entry fully-associative LRU table, counting
    /// first uses as misses. Exact when `limit` is a power of two (bucket
    /// boundaries align); otherwise a floor estimate.
    pub fn hit_ratio_at(&self, limit: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mut hits = 0u64;
        for (i, &count) in self.buckets.iter().enumerate() {
            let hi = if i == 0 { 1 } else { 1u64 << i }; // exclusive bound
            if hi <= limit {
                hits += count;
            }
        }
        hits as f64 / self.total as f64
    }

    /// The raw buckets: `(upper_bound_exclusive, count)` pairs.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, &c)| (if i == 0 { 1 } else { 1u64 << i }, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_core::lru::LastUseDistance;

    #[test]
    fn histogram_buckets_and_hit_ratio() {
        let mut h = DistanceHistogram::new();
        h.record(None); // first use -> miss everywhere
        h.record(Some(0)); // hits any table
        h.record(Some(3)); // bucket [2,4)
        h.record(Some(100)); // bucket [64,128)
        assert_eq!(h.total(), 4);
        assert_eq!(h.first_uses(), 1);
        // limit 1: only distance 0 hits.
        assert!((h.hit_ratio_at(1) - 0.25).abs() < 1e-12);
        // limit 128: distances 0, 3, 100 hit.
        assert!((h.hit_ratio_at(128) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn histogram_of_empty_is_zero() {
        let h = DistanceHistogram::new();
        assert_eq!(h.hit_ratio_at(1024), 0.0);
    }

    #[test]
    fn capacity_sweep_counts_misses_per_capacity() {
        let mut s = CapacitySweep::new(&[1, 2, 4]);
        s.observe(None); // misses everywhere
        s.observe(Some(0)); // hits every table
        s.observe(Some(1)); // hits capacity >= 2
        s.observe(Some(3)); // hits capacity >= 4
        s.observe(Some(4)); // misses everywhere under measurement
        assert_eq!(s.references(), 5);
        assert_eq!(s.first_uses(), 1);
        assert_eq!(s.misses(), vec![4, 3, 2]);
    }

    #[test]
    fn capacity_sweep_matches_per_capacity_scan() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(7);
        let refs: Vec<(u64, u64)> = (0..3_000)
            .map(|_| (rng.gen_range(0..60u64), rng.gen_range(0..4u64)))
            .collect();
        let capacities = [1u64, 2, 8, 16, 64];
        let mut lud = LastUseDistance::new();
        let mut sweep = CapacitySweep::new(&capacities);
        let mut expected = vec![0u64; capacities.len()];
        for &p in &refs {
            let d = lud.observe(p);
            sweep.observe(d);
            for (j, &cap) in capacities.iter().enumerate() {
                expected[j] += u64::from(d.is_none_or(|d| d >= cap));
            }
        }
        assert_eq!(sweep.misses(), expected);
        assert_eq!(sweep.references(), refs.len() as u64);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn capacity_sweep_rejects_unsorted_capacities() {
        let _ = CapacitySweep::new(&[4, 2]);
    }
}
