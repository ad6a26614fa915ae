//! Last-use distance: the `D` of the analytical model (section 5.2).
//!
//! For a dynamic reference to pair `V`, `D` is *the number of distinct
//! `(address, history)` pairs encountered since the last occurrence of
//! `V`* — the LRU stack distance over pairs. A reference hits an N-entry
//! fully-associative LRU table iff `D < N`, which is exactly how the paper
//! separates conflict aliasing (short `D`) from capacity aliasing (long
//! `D`).
//!
//! The tracker runs in O(log P) per reference (amortized), where P is the
//! number of distinct pairs, using a Fenwick tree over reference
//! timestamps holding a 1 at the *most recent* timestamp of each distinct
//! pair, and a [`PairMap`] from each pair to that timestamp. A reuse
//! costs one map lookup and one tree query: every live pair holds exactly
//! one mark, all of them before the current timestamp, so the marks after
//! the pair's previous timestamp number the live pairs minus the prefix
//! sum up to it. A first use costs one map insert and no query. When the
//! timestamps run out of room the live pairs are renumbered into `1..=P`,
//! so memory scales with distinct pairs rather than with trace length.

use bpred_core::pair::PairMap;

/// The smallest Fenwick tree a tracker keeps (4 KiB of counts).
const MIN_TREE_LEN: usize = 1024;

/// Sum of the Fenwick `tree`'s marks in `1..=i`.
fn prefix(tree: &[u32], mut i: usize) -> u64 {
    let mut sum = 0u64;
    while i > 0 {
        sum += u64::from(tree[i]);
        i -= i & i.wrapping_neg();
    }
    sum
}

/// Streaming last-use-distance tracker.
///
/// Each live pair may carry a payload `P`, fixed on its first use — the
/// predictor walk in `bpred-sim` stores a dense pair id there. The
/// default payload `()` is zero-sized, so a plain tracker spends no
/// memory on it.
///
/// ```
/// use bpred_aliasing::distance::LastUseDistance;
///
/// let mut d = LastUseDistance::new();
/// assert_eq!(d.observe((1, 0)), None);      // first use
/// assert_eq!(d.observe((2, 0)), None);
/// assert_eq!(d.observe((1, 0)), Some(1));   // one distinct pair between
/// assert_eq!(d.observe((1, 0)), Some(0));   // immediate reuse
/// ```
#[derive(Debug, Clone)]
pub struct LastUseDistance<P = ()> {
    /// Fenwick tree over timestamps (1-based): a 1 at the most recent
    /// timestamp of each live pair.
    tree: Vec<u32>,
    /// Most recent timestamp (1-based) and payload of each pair.
    last: PairMap<(usize, P)>,
    /// The last timestamp handed out.
    clock: usize,
    /// References observed.
    references: usize,
}

impl LastUseDistance {
    /// An empty tracker.
    pub fn new() -> Self {
        LastUseDistance::with_payload()
    }

    /// Record a reference to `pair`; returns its last-use distance, or
    /// `None` on first use.
    pub fn observe(&mut self, pair: (u64, u64)) -> Option<u64> {
        self.observe_with(pair, || ()).0
    }
}

impl Default for LastUseDistance {
    fn default() -> Self {
        LastUseDistance::new()
    }
}

impl<P: Copy> LastUseDistance<P> {
    /// An empty tracker whose pairs carry a `P` payload.
    pub fn with_payload() -> Self {
        LastUseDistance {
            tree: vec![0; MIN_TREE_LEN],
            last: PairMap::default(),
            clock: 0,
            references: 0,
        }
    }

    fn add(&mut self, i: usize, delta: i32) {
        let mut i = i;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add_signed(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// Renumber the live pairs' timestamps to `1..=P` in their existing
    /// order and rebuild the tree with at least as many free timestamps
    /// as live ones (doubling it only when the live pairs fill half).
    ///
    /// A distance is the number of live marks strictly between two
    /// timestamps, and an order-preserving renumbering keeps every such
    /// count, so distances are unchanged. A pair's new timestamp is its
    /// rank among the live marks.
    fn renumber(&mut self) {
        let live = self.last.len();
        // Unfold the Fenwick sums back into raw marks, then prefix-sum
        // them: entry `t` becomes the rank of timestamp `t`.
        let ranks = &mut self.tree;
        let len = ranks.len();
        for i in (1..len).rev() {
            let parent = i + (i & i.wrapping_neg());
            if parent < len {
                ranks[parent] -= ranks[i];
            }
        }
        for i in 1..len {
            ranks[i] += ranks[i - 1];
        }
        for (stamp, _) in self.last.values_mut() {
            *stamp = ranks[*stamp] as usize;
        }
        let mut len = len.max(MIN_TREE_LEN);
        while len < 2 * (live + 1) {
            len *= 2;
        }
        // Node `i` covers timestamps `(i - lowbit(i), i]`; the marks are
        // the ones at `1..=live`.
        self.tree.resize(len, 0);
        for (i, node) in self.tree.iter_mut().enumerate() {
            let low = i - (i & i.wrapping_neg());
            *node = i.min(live).saturating_sub(low) as u32;
        }
        self.clock = live;
    }

    /// Record a reference to `pair`; returns its last-use distance
    /// (`None` on first use) and its payload, which `fresh` supplies on
    /// first use.
    pub fn observe_with(
        &mut self,
        pair: (u64, u64),
        fresh: impl FnOnce() -> P,
    ) -> (Option<u64>, P) {
        self.references += 1;
        if self.clock + 1 >= self.tree.len() {
            self.renumber();
        }
        self.clock += 1;
        let now = self.clock;
        let (distance, payload) = match self.last.get_mut(&pair) {
            Some((stamp, payload)) => {
                let prev = std::mem::replace(stamp, now);
                let payload = *payload;
                // Distinct pairs strictly between prev and now. Every live
                // pair holds one mark at or before now - 1, so the marks
                // up to now - 1 number `last.len()`: one query suffices.
                let d = self.last.len() as u64 - prefix(&self.tree, prev);
                self.add(prev, -1);
                (Some(d), payload)
            }
            None => {
                let payload = fresh();
                self.last.insert(pair, (now, payload));
                (None, payload)
            }
        };
        self.add(now, 1);
        (distance, payload)
    }

    /// Number of distinct pairs seen so far.
    pub fn distinct_pairs(&self) -> usize {
        self.last.len()
    }

    /// Number of references observed.
    pub fn references(&self) -> usize {
        self.references
    }
}

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

    /// O(n^2) reference implementation: scan back for the previous
    /// occurrence and count distinct pairs in between.
    fn naive_distances(refs: &[(u64, u64)]) -> Vec<Option<u64>> {
        let mut out = Vec::with_capacity(refs.len());
        for (i, &p) in refs.iter().enumerate() {
            let prev = refs[..i].iter().rposition(|&q| q == p);
            out.push(prev.map(|j| {
                let mut distinct = std::collections::HashSet::new();
                for &q in &refs[j + 1..i] {
                    distinct.insert(q);
                }
                distinct.len() as u64
            }));
        }
        out
    }

    #[test]
    fn simple_sequence() {
        let mut d = LastUseDistance::new();
        assert_eq!(d.observe((1, 0)), None);
        assert_eq!(d.observe((2, 0)), None);
        assert_eq!(d.observe((3, 0)), None);
        assert_eq!(d.observe((1, 0)), Some(2));
        assert_eq!(d.observe((1, 0)), Some(0));
        assert_eq!(d.observe((2, 0)), Some(2));
        assert_eq!(d.distinct_pairs(), 3);
        assert_eq!(d.references(), 6);
    }

    #[test]
    fn repeated_pair_between_does_not_double_count() {
        let mut d = LastUseDistance::new();
        d.observe((1, 0));
        d.observe((2, 0));
        d.observe((2, 0));
        d.observe((2, 0));
        // Only ONE distinct pair (2) since the last use of 1.
        assert_eq!(d.observe((1, 0)), Some(1));
    }

    #[test]
    fn matches_naive_reference_on_random_stream() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(99);
        let refs: Vec<(u64, u64)> = (0..2_000)
            .map(|_| (rng.gen_range(0..40u64), rng.gen_range(0..4u64)))
            .collect();
        let naive = naive_distances(&refs);
        let mut fast = LastUseDistance::new();
        for (i, &p) in refs.iter().enumerate() {
            assert_eq!(fast.observe(p), naive[i], "mismatch at reference {i}");
        }
    }

    #[test]
    fn tree_grows_past_initial_capacity() {
        let mut d = LastUseDistance::new();
        for i in 0..5_000u64 {
            d.observe((i % 7, 0));
        }
        assert_eq!(d.references(), 5_000);
        assert_eq!(d.distinct_pairs(), 7);
        // The loop ends at i=4999 (pair 1); the last use of pair 2 was at
        // i=4993, with the 6 other pairs touched since.
        assert_eq!(d.observe((2, 0)), Some(6));
        // And the steady-state period: re-observing pair 2 immediately
        // gives distance 0.
        assert_eq!(d.observe((2, 0)), Some(0));
    }

    #[test]
    fn memory_tracks_distinct_pairs_not_references() {
        let mut d = LastUseDistance::new();
        for i in 0..1_000_000u64 {
            let expected = (i >= 7).then_some(6);
            assert_eq!(d.observe((i % 7, 0)), expected, "reference {i}");
        }
        let tree_bytes = d.tree.len() * std::mem::size_of::<u32>();
        assert!(tree_bytes <= 4 << 10, "tree holds {tree_bytes} bytes");
    }

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
