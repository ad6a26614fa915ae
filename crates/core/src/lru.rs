//! The tagged LRU families, written once: `falru`, an N-entry
//! fully-associative LRU table tagged with complete `(address, history)`
//! pairs (figure 8's capacity yardstick, section 5.1), and `ideal`, the
//! same table with N = ∞ — the unaliased predictor of section 3.1 and
//! Table 2, whose only aliasing is compulsory.
//!
//! An N-entry LRU table holds a pair exactly when the pair's *last-use
//! distance* — the number of distinct pairs referenced since its previous
//! use — is below N (LRU stack inclusion). So a table is a
//! [`PairTracker`], which hands each reference its pair's distance and a
//! dense pair id, plus one counter per pair and [`LruRow`] (capacity,
//! miss outcome, counter width). [`LruTable::step`] is the whole
//! per-reference transition: a row hits iff the distance is below its
//! capacity; a hit predicts from the pair's counter and trains it, a miss
//! predicts the row's miss outcome, flagged novel, and re-seeds the
//! counter toward the outcome — the entry the table would allocate.
//!
//! Two callers reach that one step:
//!
//! * the `LruWalk` of `bpred-sim` runs every row of one history length
//!   over a trace's conditional records in one walk;
//! * [`LruPredictor`] drives one row record by record as a
//!   [`BranchPredictor`], the predictor [`PredictorSpec::build`] returns
//!   for `falru` and `ideal` specs.
//!
//! [`LastUseDistance`] is the exact tracker, and also the `D` of the
//! analytical model (section 5.2). A walk whose rows are all unbounded
//! needs no distance (every reuse hits), so there a [`PairMap`] of first
//! uses is the tracker.
//!
//! [`LastUseDistance`] runs in O(log P) per reference (amortized), where
//! P is the number of distinct pairs, using a Fenwick tree over reference
//! timestamps holding a 1 at the *most recent* timestamp of each distinct
//! pair, and a [`PairMap`] from each pair to that timestamp. A reuse
//! costs one map lookup and one tree query: every live pair holds exactly
//! one mark, all of them before the current timestamp, so the marks after
//! the pair's previous timestamp number the live pairs minus the prefix
//! sum up to it. A first use costs one map insert and no query. When the
//! timestamps run out of room the live pairs are renumbered into `1..=P`,
//! so memory scales with distinct pairs rather than with trace length.

use crate::assoc::ADDR_TAG_BITS;
use crate::error::ConfigError;
use crate::pair::PairMap;
use crate::predictor::{BranchPredictor, Outcome, Prediction};
use crate::spec::PredictorSpec;
use crate::table::{Counter, History, Width};
use std::collections::hash_map::Entry;

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
/// Each live pair may carry a payload `P`, fixed on its first use — an
/// [`LruTable`] stores a dense pair id there. The default payload `()` is
/// zero-sized, so a plain tracker spends no memory on it.
///
/// ```
/// use bpred_core::lru::LastUseDistance;
///
/// let mut d = LastUseDistance::new();
/// assert_eq!(d.observe((1, 0)), None);      // first use
/// assert_eq!(d.observe((2, 0)), None);
/// assert_eq!(d.peek((1, 0)), Some((1, ()))); // read, not recorded
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

    /// The distinct pairs referenced since timestamp `stamp`, a live
    /// pair's last use. Every live pair holds one mark at or before the
    /// clock, so the marks up to the clock number `last.len()`: one query
    /// suffices.
    fn since(&self, stamp: usize) -> u64 {
        self.last.len() as u64 - prefix(&self.tree, stamp)
    }

    /// The last-use distance and payload a reference to `pair` would get
    /// now, recording nothing; `None` if `pair` was never referenced.
    /// The next [`observe_with`](Self::observe_with) of `pair` returns
    /// the same distance.
    pub fn peek(&self, pair: (u64, u64)) -> Option<(u64, P)> {
        let &(stamp, payload) = self.last.get(&pair)?;
        Some((self.since(stamp), payload))
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
                let d = self.since(prev);
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

/// How an [`LruTable`] learns each reference's `(address, history)`
/// pair: its dense id, and whether and how far back it was last used.
pub trait PairTracker {
    /// Record a reference to `pair`: its last-use distance (`None` on
    /// first use) and its dense id (`fresh` on first use).
    fn track(&mut self, pair: (u64, u64), fresh: u32) -> (Option<u64>, u32);
}

/// The exact last-use distance, for tables with a bounded (`falru`) row.
impl PairTracker for LastUseDistance<u32> {
    #[inline]
    fn track(&mut self, pair: (u64, u64), fresh: u32) -> (Option<u64>, u32) {
        self.observe_with(pair, || fresh)
    }
}

/// First use alone, for tables whose rows are all unbounded (`ideal`):
/// every reuse hits such a row whatever its distance, so a reuse reports
/// distance 0 and no stack distance is kept.
impl PairTracker for PairMap<u32> {
    #[inline]
    fn track(&mut self, pair: (u64, u64), fresh: u32) -> (Option<u64>, u32) {
        match self.entry(pair) {
            Entry::Occupied(e) => (Some(0), *e.get()),
            Entry::Vacant(e) => (None, *e.insert(fresh)),
        }
    }
}

/// One `falru` or `ideal` table: its capacity, miss outcome and counter.
#[derive(Debug, Clone, Copy)]
pub struct LruRow {
    /// Entries; `u64::MAX` stands for ∞.
    capacity: u64,
    /// The prediction on a miss: `falru`'s `miss` outcome, not-taken for
    /// `ideal`.
    miss: Outcome,
    counter: Width,
}

impl LruRow {
    /// The row and its history length for a `falru` or `ideal` spec;
    /// `None` for the other families.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for a `cap` of 0 or an `h` above 64.
    pub fn from_spec(spec: &PredictorSpec) -> Result<Option<(u32, LruRow)>, ConfigError> {
        let (h, capacity, miss, ctr) = match *spec {
            PredictorSpec::Falru { cap, h, ctr, miss } => {
                if cap == 0 {
                    return Err(ConfigError::invalid("capacity", cap, "must be nonzero"));
                }
                (h, cap as u64, miss.outcome(), ctr)
            }
            PredictorSpec::Ideal { h, ctr } => (h, u64::MAX, Outcome::NotTaken, ctr),
            _ => return Ok(None),
        };
        if h > 64 {
            return Err(ConfigError::invalid(
                "history_bits",
                h,
                "must be at most 64",
            ));
        }
        let row = LruRow {
            capacity,
            miss,
            counter: Width::of(ctr),
        };
        Ok(Some((h, row)))
    }

    /// Whether the row is an unbounded (`ideal`) table.
    pub fn is_unbounded(self) -> bool {
        self.capacity == u64::MAX
    }

    /// The row's prediction for a reference at last-use `distance` to a
    /// pair whose counter is `cell`.
    #[inline(always)]
    fn predict(self, cell: u8, distance: Option<u64>) -> Prediction {
        if distance.is_some_and(|d| d < self.capacity) {
            Prediction::of(Outcome::from(self.counter.taken(cell)))
        } else {
            Prediction::novel(self.miss)
        }
    }
}

/// Rows of `falru`/`ideal` tables that share one history length, over
/// one [`PairTracker`]: each pair's counters, one per row.
#[derive(Debug, Clone)]
pub struct LruTable<T> {
    rows: Vec<LruRow>,
    pairs: T,
    /// A pair's counters sit at `cells[id * rows.len()..][..rows.len()]`,
    /// where `id` is its dense id.
    cells: Vec<u8>,
}

impl<T: PairTracker> LruTable<T> {
    /// Empty tables for `rows`, tracking pairs in `pairs`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty.
    pub fn new(rows: Vec<LruRow>, pairs: T) -> LruTable<T> {
        assert!(!rows.is_empty(), "a table needs at least one row");
        LruTable {
            rows,
            pairs,
            cells: Vec::new(),
        }
    }

    /// One reference to `pair` with outcome `taken`, in every row: a hit
    /// trains the pair's counter, a miss re-seeds it weakly toward the
    /// outcome. `each` gets the row's index and the prediction made
    /// before training (flagged novel on a miss).
    #[inline(always)]
    pub fn step(&mut self, pair: (u64, u64), taken: bool, mut each: impl FnMut(usize, Prediction)) {
        let width = self.rows.len();
        let fresh = (self.cells.len() / width) as u32;
        let (distance, id) = self.pairs.track(pair, fresh);
        if distance.is_none() {
            self.cells.resize(self.cells.len() + width, 0);
        }
        let at = id as usize * width;
        let cells = self.cells[at..at + width].iter_mut();
        for (i, (cell, row)) in cells.zip(&self.rows).enumerate() {
            let p = row.predict(*cell, distance);
            let c = row.counter;
            *cell = if p.novel {
                // SatCounter::seeded: weakly toward the outcome.
                c.neutral() + u8::from(taken)
            } else {
                c.step(*cell, taken)
            };
            each(i, p);
        }
    }

    /// Distinct pairs referenced so far.
    pub fn distinct_pairs(&self) -> usize {
        self.cells.len() / self.rows.len()
    }
}

impl LruTable<LastUseDistance<u32>> {
    /// Row `row`'s prediction for a reference to `pair`, recording
    /// nothing: what the next [`LruTable::step`] of `pair` hands it.
    pub fn predict(&self, pair: (u64, u64), row: usize) -> Prediction {
        let r = self.rows[row];
        match self.pairs.peek(pair) {
            Some((d, id)) => r.predict(self.cells[id as usize * self.rows.len() + row], Some(d)),
            None => r.predict(0, None),
        }
    }
}

/// The predictor of a `falru` or `ideal` spec: one [`LruTable`] row and
/// a global history register.
///
/// `predict` reads the pair's last-use distance without recording a
/// reference; `update` runs [`LruTable::step`] and shifts the outcome
/// into the history; an unconditional branch shifts in a taken bit. Both
/// families track exact distances here (an `ideal` row hits on every
/// reuse whatever its distance).
///
/// ```
/// use bpred_core::prelude::*;
///
/// let spec = PredictorSpec::parse("falru:cap=1024,h=4")?;
/// let mut p = LruPredictor::new(&spec)?.expect("a tagged LRU family");
/// let pc = 0x1000;
/// assert!(p.predict(pc).novel, "cold table misses");
/// p.update(pc, Outcome::NotTaken);
/// assert_eq!(p.name(), "fa-lru 1024 h=4 2-bit");
/// # Ok::<(), bpred_core::error::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LruPredictor {
    /// A `falru` or `ideal` spec, checked by [`LruPredictor::new`].
    spec: PredictorSpec,
    hist: History,
    table: LruTable<LastUseDistance<u32>>,
}

impl LruPredictor {
    /// The predictor `spec` describes when its family is `falru` or
    /// `ideal`, `None` for the other families. Nothing is allocated
    /// until pairs are referenced, so a capacity far above the pairs a
    /// trace holds costs no more.
    ///
    /// # Errors
    ///
    /// As [`LruRow::from_spec`].
    pub fn new(spec: &PredictorSpec) -> Result<Option<LruPredictor>, ConfigError> {
        let Some((h, row)) = LruRow::from_spec(spec)? else {
            return Ok(None);
        };
        Ok(Some(LruPredictor {
            spec: spec.clone(),
            hist: History::new(h),
            table: LruTable::new(vec![row], LastUseDistance::with_payload()),
        }))
    }

    /// Number of distinct `(address, history)` pairs referenced so far —
    /// the numerator of the paper's compulsory-aliasing ratio.
    pub fn distinct_pairs(&self) -> u64 {
        self.table.distinct_pairs() as u64
    }

    #[inline]
    fn pair(&self, pc: u64) -> (u64, u64) {
        (pc >> 2, self.hist.value())
    }
}

impl BranchPredictor for LruPredictor {
    fn predict(&mut self, pc: u64) -> Prediction {
        self.table.predict(self.pair(pc), 0)
    }

    fn update(&mut self, pc: u64, outcome: Outcome) {
        let taken = outcome.is_taken();
        self.table.step(self.pair(pc), taken, |_, _| {});
        self.hist.push(taken, self.hist.mask());
    }

    fn record_unconditional(&mut self, _pc: u64) {
        self.hist.push(true, self.hist.mask());
    }

    fn name(&self) -> String {
        match self.spec {
            PredictorSpec::Falru { cap, h, ctr, .. } => format!("fa-lru {cap} h={h} {ctr}"),
            PredictorSpec::Ideal { h, ctr } => format!("ideal h={h} {ctr}"),
            _ => unreachable!("`new` admits falru and ideal only"),
        }
    }

    fn storage_bits(&self) -> u64 {
        match self.spec {
            PredictorSpec::Falru { cap, h, ctr, .. } => {
                // tag + counter per entry, plus log2(capacity) recency bits.
                let lru_bits = usize::BITS - (cap - 1).leading_zeros();
                cap as u64
                    * (ADDR_TAG_BITS + u64::from(h) + u64::from(ctr.bits()) + u64::from(lru_bits))
            }
            // Conceptually infinite; report the counters allocated.
            PredictorSpec::Ideal { ctr, .. } => self.distinct_pairs() * u64::from(ctr.bits()),
            _ => unreachable!("`new` admits falru and ideal only"),
        }
    }

    fn reset(&mut self) {
        *self = LruPredictor::new(&self.spec)
            .expect("checked at construction")
            .expect("a tagged LRU family");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::parse_spec;

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

    fn predictor(spec: &str) -> LruPredictor {
        let spec = PredictorSpec::parse(spec).unwrap();
        LruPredictor::new(&spec)
            .unwrap()
            .expect("a tagged LRU family")
    }

    #[test]
    fn a_hit_trains_the_seeded_counter() {
        for spec in ["falru:cap=4,h=0", "ideal:h=0"] {
            let mut p = predictor(spec);
            p.update(0x1000, Outcome::NotTaken);
            assert_eq!(
                p.predict(0x1000),
                Prediction::of(Outcome::NotTaken),
                "{spec}"
            );
            p.update(0x1000, Outcome::Taken);
            // Seeded weakly not-taken, trained up once: weakly taken.
            assert_eq!(p.predict(0x1000), Prediction::of(Outcome::Taken), "{spec}");
            p.update(0x1000, Outcome::NotTaken);
            assert_eq!(p.predict(0x1000).outcome, Outcome::NotTaken, "{spec}");
        }
    }

    #[test]
    fn a_miss_predicts_the_miss_outcome_flagged_novel() {
        // Figure 8's static fallback is always taken; `ideal` predicts
        // not-taken on a first encounter.
        for (spec, outcome) in [
            ("falru:cap=4,h=0", Outcome::Taken),
            ("falru:cap=4,h=0,miss=nottaken", Outcome::NotTaken),
            ("ideal:h=4", Outcome::NotTaken),
        ] {
            let mut p = predictor(spec);
            assert_eq!(p.predict(0x9999_0000), Prediction::novel(outcome), "{spec}");
        }
        // The same pc under a new history is a new pair.
        let mut p = predictor("ideal:h=4");
        p.update(0x1000, Outcome::Taken);
        assert!(p.predict(0x1000).novel, "history 0001 is a new pair");
        let mut q = predictor("ideal:h=0");
        q.update(0x1000, Outcome::Taken);
        assert!(!q.predict(0x1000).novel, "h=0 keeps the pair stable");
    }

    #[test]
    fn a_full_table_evicts_the_least_recently_used_pair() {
        let mut p = predictor("falru:cap=2,h=0");
        for pc in [0x1000, 0x2000, 0x1000, 0x3000] {
            p.update(pc, Outcome::Taken); // touching A leaves B to evict
        }
        assert!(!p.predict(0x1000).novel, "A still resident");
        assert!(p.predict(0x2000).novel, "B evicted");
        assert!(!p.predict(0x3000).novel, "C resident");
        // A refilled pair is re-seeded, not given back its old counter.
        let mut q = predictor("falru:cap=1,h=0");
        for _ in 0..3 {
            q.update(0x1000, Outcome::Taken); // A saturates
        }
        q.update(0x2000, Outcome::Taken); // B evicts A
        q.update(0x1000, Outcome::NotTaken); // A back, weakly not-taken
        assert_eq!(q.predict(0x1000), Prediction::of(Outcome::NotTaken));
        // The unbounded table never evicts.
        let mut r = predictor("ideal:h=0");
        for i in 0..100u64 {
            r.update(0x1000 + 4 * i, Outcome::Taken);
        }
        assert!(!r.predict(0x1000).novel);
    }

    #[test]
    fn the_unbounded_table_never_aliases() {
        // Two branches that would collide in any small table get separate
        // automatons, and each history its own substream.
        let mut p = predictor("ideal:h=0");
        for _ in 0..4 {
            p.update(0x1000, Outcome::Taken);
            p.update(0x1000 + (1 << 20), Outcome::NotTaken);
        }
        assert_eq!(p.predict(0x1000).outcome, Outcome::Taken);
        assert_eq!(p.predict(0x1000 + (1 << 20)).outcome, Outcome::NotTaken);
        // Alternating outcomes: under history 1 the branch is not-taken,
        // under 0 taken; a 1-bit automaton per pair learns both.
        let mut q = predictor("ideal:h=1,ctr=1");
        let mut o = Outcome::Taken;
        for _ in 0..8 {
            q.update(0x1000, o);
            o = o.flipped();
        }
        for _ in 0..8 {
            assert_eq!(q.predict(0x1000), Prediction::of(o));
            q.update(0x1000, o);
            o = o.flipped();
        }
        assert_eq!(q.distinct_pairs(), 2);
    }

    #[test]
    fn distinct_pairs_storage_and_reset() {
        let mut p = predictor("ideal:h=2");
        // A branch with alternating outcomes sees histories 00, 01 and
        // 10; two unconditional branches then make 11.
        let mut o = Outcome::Taken;
        for _ in 0..20 {
            p.update(0x1000, o);
            o = o.flipped();
        }
        p.record_unconditional(0x2000);
        p.record_unconditional(0x2000);
        p.update(0x1000, Outcome::Taken);
        assert_eq!(p.distinct_pairs(), 4);
        assert_eq!(p.storage_bits(), 4 * 2, "ideal reports its counters");
        p.reset();
        assert_eq!(p.distinct_pairs(), 0);
        assert_eq!(p.storage_bits(), 0);
        assert!(p.predict(0x1000).novel);
        let mut q = predictor("falru:cap=4,h=2");
        for i in 0..100u64 {
            q.update(4 * i, Outcome::Taken);
        }
        q.reset();
        assert!(q.predict(0).novel, "reset empties the table");
        q.update(0, Outcome::Taken);
        assert_eq!(q.predict(4), Prediction::novel(Outcome::Taken));
        assert_eq!(q.distinct_pairs(), 1);
    }

    #[test]
    fn names_storage_bits_and_range_errors() {
        for (spec, name, bits) in [
            ("falru:cap=4096,h=4", "fa-lru 4096 h=4 2-bit", 196_608),
            // Per entry: 30 tag + 4 hist + 2 counter + 10 LRU = 46 bits.
            ("falru:cap=1024,h=4", "fa-lru 1024 h=4 2-bit", 1024 * 46),
            ("falru:cap=256,h=4,ctr=1", "fa-lru 256 h=4 1-bit", 256 * 43),
            ("falru:cap=1,h=0", "fa-lru 1 h=0 2-bit", 32),
            ("ideal:h=12", "ideal h=12 2-bit", 0),
            ("ideal:h=4,ctr=3", "ideal h=4 3-bit", 0),
        ] {
            let p = parse_spec(spec).unwrap();
            assert_eq!((p.name(), p.storage_bits()), (name.to_string(), bits));
        }
        for (spec, error) in [
            (
                "falru:cap=0",
                ConfigError::invalid("capacity", 0, "must be nonzero"),
            ),
            (
                "falru:cap=0,h=65",
                ConfigError::invalid("capacity", 0, "must be nonzero"),
            ),
            (
                "falru:cap=4,h=65",
                ConfigError::invalid("history_bits", 65, "must be at most 64"),
            ),
            (
                "ideal:h=65",
                ConfigError::invalid("history_bits", 65, "must be at most 64"),
            ),
        ] {
            assert_eq!(parse_spec(spec).err(), Some(error), "{spec}");
        }
        assert!(LruPredictor::new(&PredictorSpec::parse("gshare").unwrap())
            .unwrap()
            .is_none());
    }
}
