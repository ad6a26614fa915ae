//! Bias measurement: the `b` parameter of the analytical model.
//!
//! Section 5.2 evaluates `b` "for the entire trace by measuring the
//! density of static (address, history) pairs with bias taken". This
//! module measures per-pair outcome tallies and reports that density,
//! along with the per-pair majority agreement.

use crate::cursor::for_each_vector;
use bpred_core::pair::PairMap;
use bpred_trace::soa::TraceColumns;

/// Per-substream outcome tallies and the derived bias statistics.
#[derive(Debug, Clone)]
pub struct BiasStats {
    history_bits: u32,
    tallies: PairMap<(u64, u64)>, // (taken, total)
    dynamic: u64,
}

impl BiasStats {
    /// Bias statistics under `history_bits` of global history.
    pub fn new(history_bits: u32) -> Self {
        BiasStats {
            history_bits,
            tallies: PairMap::default(),
            dynamic: 0,
        }
    }

    /// Account every conditional record of a whole trace.
    pub fn run(mut self, cols: &TraceColumns) -> Self {
        for_each_vector(cols, self.history_bits, |v, taken| {
            let entry = self.tallies.entry(v.pair()).or_insert((0, 0));
            entry.0 += u64::from(taken);
            entry.1 += 1;
        });
        self.dynamic += cols.conditional_count();
        self
    }

    /// The paper's `b`: fraction of static `(address, history)` pairs
    /// whose majority outcome is taken (ties count as taken, matching the
    /// "bias taken" phrasing).
    pub fn static_bias_taken(&self) -> f64 {
        if self.tallies.is_empty() {
            return 0.0;
        }
        let biased = self
            .tallies
            .values()
            .filter(|(taken, total)| 2 * taken >= *total)
            .count();
        biased as f64 / self.tallies.len() as f64
    }

    /// Average per-pair agreement with the pair's majority outcome — an
    /// upper bound on any per-substream predictor's accuracy, useful as a
    /// sanity reference for Table 2.
    pub fn majority_agreement(&self) -> f64 {
        if self.dynamic == 0 {
            return 0.0;
        }
        let agree: u64 = self
            .tallies
            .values()
            .map(|&(taken, total)| taken.max(total - taken))
            .sum();
        agree as f64 / self.dynamic as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_trace::record::BranchRecord;

    #[test]
    fn counts_majorities() {
        let records = [
            BranchRecord::conditional(0x100, true),
            BranchRecord::conditional(0x100, true),
            BranchRecord::conditional(0x100, false),
            BranchRecord::conditional(0x200, false),
            BranchRecord::conditional(0x200, false),
        ];
        let b = BiasStats::new(0).run(&TraceColumns::from_records(&records));
        assert!((b.static_bias_taken() - 0.5).abs() < 1e-12);
        // majority agreement: (2 + 2) / 5
        assert!((b.majority_agreement() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn tie_counts_as_taken() {
        let records = [
            BranchRecord::conditional(0x100, true),
            BranchRecord::conditional(0x100, false),
        ];
        let b = BiasStats::new(0).run(&TraceColumns::from_records(&records));
        assert_eq!(b.static_bias_taken(), 1.0);
    }

    #[test]
    fn empty_is_zero() {
        let b = BiasStats::new(4).run(&TraceColumns::default());
        assert_eq!(b.static_bias_taken(), 0.0);
        assert_eq!(b.majority_agreement(), 0.0);
    }
}
