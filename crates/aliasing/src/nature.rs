//! Destructive / harmless / constructive aliasing classification.
//!
//! Section 1 of the paper recalls Young, Gloy and Smith's taxonomy:
//! aliasing is *destructive* when sharing an entry causes a misprediction,
//! *harmless* when it does not change the prediction's correctness, and
//! *constructive* when the intruder's training accidentally fixes a
//! prediction that would have been wrong. The paper leans on this when
//! explaining why its analytical model overestimates gskew's misprediction
//! rate ("constructive aliasing … is not modeled").
//!
//! [`AliasingNature`] runs aliased predictors of several sizes and one
//! unaliased shadow (one automaton per `(address, history)` pair) side by
//! side, in one walk. For each dynamic branch where a size's tagged owner
//! table detects aliasing, the pair of (aliased, unaliased) correctness
//! classifies the event.

use crate::cursor::for_each_vector;
use bpred_core::counter::{CounterKind, CounterTable, SatCounter};
use bpred_core::index::IndexFunction;
use bpred_core::pair::PairMap;
use bpred_core::predictor::Outcome;
use bpred_trace::soa::TraceColumns;

/// Counts of aliasing events by their effect on the prediction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NatureCounts {
    /// Aliased references where the unaliased shadow was right and the
    /// aliased table was wrong.
    pub destructive: u64,
    /// Aliased references where both agreed (right or wrong together).
    pub harmless: u64,
    /// Aliased references where the aliased table was right and the
    /// shadow wrong.
    pub constructive: u64,
    /// References that were not aliased at all.
    pub unaliased: u64,
    /// First encounters (no shadow state yet); excluded from the three
    /// classes.
    pub compulsory: u64,
}

impl NatureCounts {
    /// Total aliased references that were classified.
    pub fn aliased(&self) -> u64 {
        self.destructive + self.harmless + self.constructive
    }

    /// Destructive events per aliased reference.
    pub fn destructive_ratio(&self) -> f64 {
        ratio(self.destructive, self.aliased())
    }

    /// Constructive events per aliased reference.
    pub fn constructive_ratio(&self) -> f64 {
        ratio(self.constructive, self.aliased())
    }

    /// Net misprediction overhead caused by aliasing, per dynamic branch:
    /// `(destructive - constructive) / total`.
    pub fn net_overhead(&self) -> f64 {
        let total = self.aliased() + self.unaliased + self.compulsory;
        if total == 0 {
            return 0.0;
        }
        (self.destructive as f64 - self.constructive as f64) / total as f64
    }
}

#[inline]
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Owner sentinel of an entry no pair has touched yet.
const COLD: u32 = u32::MAX;

/// One table size under study.
#[derive(Debug, Clone)]
struct Aliased {
    n: u32,
    /// The aliased structure.
    table: CounterTable,
    /// The dense id of the pair that touched each entry last, or
    /// [`COLD`] — detects aliasing occurrences.
    owners: Vec<u32>,
    counts: NatureCounts,
}

/// Classifies the nature of aliasing in direct-mapped, tag-less
/// predictor tables (gshare-style by default) of several sizes at once.
///
/// Every size sees the same pair stream and the same shadow, so one walk
/// serves them all: each reference costs one hash lookup (the pair's
/// dense id, which also indexes the shadow) plus one table access per
/// size. Each size's counts equal those of a one-size classifier.
#[derive(Debug, Clone)]
pub struct AliasingNature {
    history_bits: u32,
    func: IndexFunction,
    kind: CounterKind,
    /// Dense pair ids, in order of first reference.
    ids: PairMap<u32>,
    /// The unaliased shadow: one automaton per pair id.
    shadow: Vec<SatCounter>,
    sizes: Vec<Aliased>,
}

impl AliasingNature {
    /// A classifier over one `2^n`-entry table per `n` in
    /// `entries_log2`, with `history_bits` of global history, using
    /// `func` indexing and `kind` automatons.
    ///
    /// # Panics
    ///
    /// Panics if a size is 0 or above 30.
    pub fn new(
        entries_log2: &[u32],
        history_bits: u32,
        func: IndexFunction,
        kind: CounterKind,
    ) -> Self {
        let sizes = entries_log2
            .iter()
            .map(|&n| {
                assert!(n > 0 && n <= 30, "entries_log2 {n} out of 1..=30");
                Aliased {
                    n,
                    table: CounterTable::new(n, kind),
                    owners: vec![COLD; 1 << n],
                    counts: NatureCounts::default(),
                }
            })
            .collect();
        AliasingNature {
            history_bits,
            func,
            kind,
            ids: PairMap::default(),
            shadow: Vec::new(),
            sizes,
        }
    }

    /// Classify every conditional record of a whole trace and return the
    /// counts, one entry per size in the order given to
    /// [`AliasingNature::new`].
    pub fn run(mut self, cols: &TraceColumns) -> Vec<NatureCounts> {
        for_each_vector(cols, self.history_bits, |v, taken| {
            let outcome = Outcome::from(taken);
            let fresh = self.shadow.len() as u32;
            let id = *self.ids.entry(v.pair()).or_insert(fresh);
            // The shadow's verdict before it trains; `None` on a first
            // encounter, which seeds the shadow instead.
            let shadow_right = if id == fresh {
                self.shadow.push(SatCounter::seeded(self.kind, outcome));
                None
            } else {
                let counter = &mut self.shadow[id as usize];
                let right = counter.predict() == outcome;
                counter.train(outcome);
                Some(right)
            };
            for size in &mut self.sizes {
                let idx = self.func.index(&v, size.n);
                let owner = size.owners[idx as usize];
                // A cold entry is not an inter-substream event.
                let aliased = owner != COLD && owner != id;
                let aliased_right = size.table.predict(idx) == outcome;
                let counts = &mut size.counts;
                match shadow_right {
                    None => counts.compulsory += 1,
                    Some(_) if !aliased => counts.unaliased += 1,
                    Some(shadow_right) => match (aliased_right, shadow_right) {
                        (false, true) => counts.destructive += 1,
                        (true, false) => counts.constructive += 1,
                        _ => counts.harmless += 1,
                    },
                }
                size.table.train(idx, outcome);
                size.owners[idx as usize] = id;
            }
        });
        self.sizes.into_iter().map(|size| size.counts).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_trace::prelude::*;

    fn classify(entries_log2: u32, records: &[BranchRecord]) -> NatureCounts {
        AliasingNature::new(
            &[entries_log2],
            0,
            IndexFunction::Bimodal,
            CounterKind::TwoBit,
        )
        .run(&TraceColumns::from_records(records))[0]
    }

    /// Two opposite-biased branches forced into one entry: destructive.
    #[test]
    fn opposite_biases_are_destructive() {
        let a = 0x1000;
        let b = a + (1 << (1 + 2)); // collides in a 2-entry table
        let mut records = Vec::new();
        for _ in 0..50 {
            records.push(BranchRecord::conditional(a, true));
            records.push(BranchRecord::conditional(b, false));
        }
        let counts = classify(1, &records);
        assert!(counts.aliased() > 0);
        assert!(
            counts.destructive > counts.constructive,
            "opposite biases should be destructive: {counts:?}"
        );
        assert!(counts.net_overhead() > 0.1);
    }

    /// Two same-direction branches sharing an entry: harmless.
    #[test]
    fn agreeing_biases_are_harmless() {
        let a = 0x1000;
        let b = a + (1 << (1 + 2));
        let mut records = Vec::new();
        for _ in 0..50 {
            records.push(BranchRecord::conditional(a, true));
            records.push(BranchRecord::conditional(b, true));
        }
        let counts = classify(1, &records);
        assert!(counts.aliased() > 0);
        assert_eq!(counts.destructive, 0, "{counts:?}");
        assert!(counts.harmless > 0);
        assert!(counts.net_overhead().abs() < 1e-9);
    }

    /// A flip-flopping branch can be rescued by a steadier intruder — the
    /// constructive case exists but is rarer, as Young et al. report.
    #[test]
    fn constructive_aliasing_is_rarer_on_real_workloads() {
        let trace = IbsBenchmark::Groff.spec().build().fill(120_000);
        let counts = AliasingNature::new(&[10], 4, IndexFunction::Gshare, CounterKind::TwoBit)
            .run(&trace)[0];
        assert!(counts.aliased() > 0);
        assert!(counts.compulsory > 0);
        assert!(
            counts.destructive > counts.constructive,
            "destructive should dominate: {counts:?}"
        );
        assert!(
            counts.constructive > 0,
            "some constructive aliasing should occur: {counts:?}"
        );
    }

    #[test]
    fn empty_stream_is_zero() {
        let counts = classify(4, &[]);
        assert_eq!(counts, NatureCounts::default());
        assert_eq!(counts.net_overhead(), 0.0);
        assert_eq!(counts.destructive_ratio(), 0.0);
    }

    #[test]
    fn unaliased_references_counted() {
        // One lone branch: after the compulsory reference everything is
        // unaliased.
        let records = vec![BranchRecord::conditional(0x100, true); 10];
        let counts = classify(4, &records);
        assert_eq!(counts.compulsory, 1);
        assert_eq!(counts.unaliased, 9);
        assert_eq!(counts.aliased(), 0);
    }
}
