//! Interference attribution: *which* static branches collide.
//!
//! The three-Cs machinery says how much conflict aliasing exists; this
//! instrument says who causes it. For a direct-mapped tag-less table it
//! tracks, per unordered pair of static branch addresses, how many
//! aliasing occurrences they inflicted on each other — the "top offender"
//! list a hand-tuning engineer (or a code-layout tool in the spirit of
//! the paper's reference \[21\]) would start from.

use crate::cursor::PairCursor;
use bpred_core::index::IndexFunction;
use bpred_core::pair::PairMap;
use bpred_trace::record::{BranchKind, BranchRecord};

/// One entry of the offender report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffenderPair {
    /// The two static branch addresses (lower one first).
    pub branches: (u64, u64),
    /// Aliasing occurrences between them (in either direction).
    pub occurrences: u64,
}

/// Tracks pairwise interference in a direct-mapped tag-less table.
#[derive(Debug, Clone)]
pub struct OffenderAnalysis {
    cursor: PairCursor,
    /// Per table entry: the (pair identity, branch address) that last
    /// touched it.
    owners: Vec<Option<((u64, u64), u64)>>,
    counts: PairMap<u64>,
    func: IndexFunction,
    n: u32,
    total_aliasing: u64,
    self_aliasing: u64,
}

impl OffenderAnalysis {
    /// An analysis over a `2^entries_log2`-entry table with
    /// `history_bits` of global history, indexed by `func`.
    ///
    /// # Panics
    ///
    /// Panics if `entries_log2` is 0 or above 30.
    pub fn new(entries_log2: u32, history_bits: u32, func: IndexFunction) -> Self {
        assert!(
            entries_log2 > 0 && entries_log2 <= 30,
            "entries_log2 {entries_log2} out of 1..=30"
        );
        OffenderAnalysis {
            cursor: PairCursor::new(history_bits),
            owners: vec![None; 1 << entries_log2],
            counts: PairMap::default(),
            func,
            n: entries_log2,
            total_aliasing: 0,
            self_aliasing: 0,
        }
    }

    /// Account one trace record.
    pub fn observe(&mut self, record: &BranchRecord) {
        if record.kind == BranchKind::Conditional {
            let v = self.cursor.vector(record.pc);
            let pair = v.pair();
            let idx = self.func.index(&v, self.n) as usize;
            if let Some((owner_pair, owner_pc)) = self.owners[idx] {
                if owner_pair != pair {
                    self.total_aliasing += 1;
                    if owner_pc == record.pc {
                        // The same static branch under another history —
                        // self-aliasing, not an inter-branch conflict.
                        self.self_aliasing += 1;
                    } else {
                        let key = if owner_pc < record.pc {
                            (owner_pc, record.pc)
                        } else {
                            (record.pc, owner_pc)
                        };
                        *self.counts.entry(key).or_insert(0) += 1;
                    }
                }
            }
            self.owners[idx] = Some((pair, record.pc));
        }
        self.cursor.advance(record);
    }

    /// Consume a whole record stream.
    pub fn run(mut self, records: impl Iterator<Item = BranchRecord>) -> Self {
        for r in records {
            self.observe(&r);
        }
        self
    }

    /// The `k` worst interfering branch pairs, most occurrences first.
    pub fn top(&self, k: usize) -> Vec<OffenderPair> {
        let mut pairs: Vec<OffenderPair> = self
            .counts
            .iter()
            .map(|(&branches, &occurrences)| OffenderPair {
                branches,
                occurrences,
            })
            .collect();
        pairs.sort_unstable_by(|a, b| {
            b.occurrences
                .cmp(&a.occurrences)
                .then(a.branches.cmp(&b.branches))
        });
        pairs.truncate(k);
        pairs
    }

    /// Total aliasing occurrences observed (inter-branch + self).
    pub fn total_aliasing(&self) -> u64 {
        self.total_aliasing
    }

    /// Aliasing occurrences where a branch evicted its own other
    /// substream (same pc, different history).
    pub fn self_aliasing(&self) -> u64 {
        self.self_aliasing
    }

    /// Number of distinct interfering branch pairs.
    pub fn distinct_pairs(&self) -> usize {
        self.counts.len()
    }

    /// Fraction of all inter-branch aliasing carried by the top `k`
    /// pairs — how concentrated the conflicts are.
    pub fn concentration(&self, k: usize) -> f64 {
        let inter = self.total_aliasing - self.self_aliasing;
        if inter == 0 {
            return 0.0;
        }
        let top_sum: u64 = self.top(k).iter().map(|p| p.occurrences).sum();
        top_sum as f64 / inter as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_trace::prelude::*;

    #[test]
    fn attributes_a_forced_conflict() {
        // Two branches in a tiny bimodal-indexed table, same entry.
        let a = 0x1000;
        let b = a + (1 << (1 + 2));
        let mut analysis = OffenderAnalysis::new(1, 0, IndexFunction::Bimodal);
        for _ in 0..10 {
            analysis.observe(&BranchRecord::conditional(a, true));
            analysis.observe(&BranchRecord::conditional(b, false));
        }
        let top = analysis.top(5);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].branches, (a, b));
        assert_eq!(top[0].occurrences, 19);
        assert_eq!(analysis.self_aliasing(), 0);
        assert!((analysis.concentration(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn self_aliasing_is_separated() {
        // One branch whose history alternates between 01 and 10: with a
        // 2-entry table the XOR-folded gshare index is the same for both
        // patterns, so its two substreams evict each other — pure
        // self-aliasing.
        let mut analysis = OffenderAnalysis::new(1, 2, IndexFunction::Gshare);
        let mut taken = true;
        for _ in 0..20 {
            analysis.observe(&BranchRecord::conditional(0x1000, taken));
            taken = !taken;
        }
        assert!(analysis.total_aliasing() > 0);
        assert_eq!(
            analysis.total_aliasing(),
            analysis.self_aliasing(),
            "all events involve the same static branch"
        );
        assert_eq!(analysis.distinct_pairs(), 0);
    }

    #[test]
    fn workload_conflicts_are_concentrated() {
        let analysis = OffenderAnalysis::new(10, 4, IndexFunction::Gshare).run(
            IbsBenchmark::Groff
                .spec()
                .build()
                .take_conditionals(100_000),
        );
        assert!(analysis.total_aliasing() > 0);
        assert!(analysis.distinct_pairs() > 10);
        // Zipf-skewed workloads concentrate conflicts: the 20 worst pairs
        // should carry a visible share of all inter-branch aliasing.
        let share = analysis.concentration(20);
        assert!(share > 0.05, "top-20 share {share} suspiciously flat");
        // And the report is sorted.
        let top = analysis.top(20);
        for w in top.windows(2) {
            assert!(w[0].occurrences >= w[1].occurrences);
        }
    }

    #[test]
    fn empty_stream() {
        let analysis = OffenderAnalysis::new(4, 4, IndexFunction::Gshare).run(std::iter::empty());
        assert_eq!(analysis.total_aliasing(), 0);
        assert!(analysis.top(5).is_empty());
        assert_eq!(analysis.concentration(5), 0.0);
    }
}
