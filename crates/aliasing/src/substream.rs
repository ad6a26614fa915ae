//! Substream statistics: the *substream ratio* and *compulsory aliasing*
//! columns of Table 2.
//!
//! The substream ratio is "the average number of different history values
//! encountered for a given conditional branch address"; compulsory
//! aliasing is the number of distinct `(address, history)` pairs divided
//! by the dynamic conditional branch count.

use crate::cursor::PairCursor;
use bpred_core::pair::PairSet;
use bpred_trace::record::{BranchKind, BranchRecord};
use std::collections::HashSet;

/// Streaming substream statistics for one history length.
#[derive(Debug, Clone)]
pub struct SubstreamStats {
    cursor: PairCursor,
    pairs: PairSet,
    addresses: HashSet<u64>,
    dynamic: u64,
}

impl SubstreamStats {
    /// Statistics under `history_bits` of global history.
    pub fn new(history_bits: u32) -> Self {
        SubstreamStats {
            cursor: PairCursor::new(history_bits),
            pairs: PairSet::default(),
            addresses: HashSet::new(),
            dynamic: 0,
        }
    }

    /// Account one trace record.
    pub fn observe(&mut self, record: &BranchRecord) {
        if record.kind == BranchKind::Conditional {
            self.dynamic += 1;
            let pair = self.cursor.pair(record.pc);
            self.pairs.insert(pair);
            self.addresses.insert(pair.0);
        }
        self.cursor.advance(record);
    }

    /// Consume a whole stream.
    pub fn run(mut self, records: impl Iterator<Item = BranchRecord>) -> Self {
        for r in records {
            self.observe(&r);
        }
        self
    }

    /// Distinct `(address, history)` pairs seen.
    pub fn distinct_pairs(&self) -> u64 {
        self.pairs.len() as u64
    }

    /// Distinct conditional branch addresses seen.
    pub fn distinct_addresses(&self) -> u64 {
        self.addresses.len() as u64
    }

    /// Dynamic conditional branches seen.
    pub fn dynamic_branches(&self) -> u64 {
        self.dynamic
    }

    /// Table 2's *substream ratio*: distinct pairs per distinct address.
    pub fn substream_ratio(&self) -> f64 {
        if self.addresses.is_empty() {
            0.0
        } else {
            self.pairs.len() as f64 / self.addresses.len() as f64
        }
    }

    /// Table 2's *compulsory aliasing*: distinct pairs over dynamic
    /// branches.
    pub fn compulsory_ratio(&self) -> f64 {
        if self.dynamic == 0 {
            0.0
        } else {
            self.pairs.len() as f64 / self.dynamic as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_trace::prelude::*;

    #[test]
    fn zero_history_ratio_is_one() {
        let records = vec![
            BranchRecord::conditional(0x100, true),
            BranchRecord::conditional(0x200, false),
            BranchRecord::conditional(0x100, false),
        ];
        let s = SubstreamStats::new(0).run(records.into_iter());
        assert_eq!(s.distinct_pairs(), 2);
        assert_eq!(s.distinct_addresses(), 2);
        assert!((s.substream_ratio() - 1.0).abs() < 1e-12);
        assert!((s.compulsory_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn longer_history_multiplies_substreams() {
        let records: Vec<_> = IbsBenchmark::Groff.spec().build().take(100_000).collect();
        let h0 = SubstreamStats::new(0).run(records.iter().copied());
        let h4 = SubstreamStats::new(4).run(records.iter().copied());
        let h12 = SubstreamStats::new(12).run(records.iter().copied());
        assert!((h0.substream_ratio() - 1.0).abs() < 1e-12);
        assert!(h4.substream_ratio() > 1.2, "h4: {}", h4.substream_ratio());
        assert!(
            h12.substream_ratio() > h4.substream_ratio(),
            "h12 {} <= h4 {}",
            h12.substream_ratio(),
            h4.substream_ratio()
        );
        assert_eq!(h0.distinct_addresses(), h12.distinct_addresses());
    }

    #[test]
    fn empty_stream() {
        let s = SubstreamStats::new(4).run(std::iter::empty());
        assert_eq!(s.substream_ratio(), 0.0);
        assert_eq!(s.compulsory_ratio(), 0.0);
    }

    #[test]
    fn unconditionals_counted_in_history_not_pairs() {
        let records = vec![
            BranchRecord::conditional(0x100, false),
            BranchRecord::unconditional(0x104),
            BranchRecord::conditional(0x100, false),
        ];
        let s = SubstreamStats::new(2).run(records.into_iter());
        // Histories at the two executions of 0x100 are 00 and 10 (the
        // unconditional shifted a 1 in): two pairs, one address.
        assert_eq!(s.distinct_pairs(), 2);
        assert_eq!(s.distinct_addresses(), 1);
        assert_eq!(s.dynamic_branches(), 2);
    }
}
