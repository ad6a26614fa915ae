//! Trace statistics: the numbers behind Table 1 and the workload sanity
//! checks.

use crate::soa::TraceColumns;
use std::borrow::Borrow;
use std::collections::HashSet;

/// Aggregate statistics of a branch trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceStats {
    /// Dynamic conditional branch count (Table 1, "dynamic").
    pub dynamic_conditional: u64,
    /// Distinct conditional branch addresses (Table 1, "static").
    pub static_conditional: u64,
    /// Dynamic non-conditional control transfers.
    pub dynamic_unconditional: u64,
    /// Dynamic conditional branches that were taken.
    pub taken_conditional: u64,
    /// Dynamic records executed in kernel mode.
    pub kernel_records: u64,
    /// Total records.
    pub total_records: u64,
}

impl TraceStats {
    /// Compute statistics over a trace handed over as column chunks, in
    /// order (one chunk for a whole trace).
    pub fn collect<C: Borrow<TraceColumns>>(chunks: impl IntoIterator<Item = C>) -> TraceStats {
        let mut stats = TraceStats::default();
        let mut static_pcs: HashSet<u64> = HashSet::new();
        for chunk in chunks {
            let cols = chunk.borrow();
            stats.total_records += cols.len() as u64;
            stats.dynamic_conditional += cols.conditional_count();
            stats.kernel_records += cols.kernel_count();
            cols.conditionals(0).for_each_record(|pc, taken, _| {
                stats.taken_conditional += u64::from(taken);
                static_pcs.insert(pc);
            });
        }
        stats.dynamic_unconditional = stats.total_records - stats.dynamic_conditional;
        stats.static_conditional = static_pcs.len() as u64;
        stats
    }

    /// Fraction of dynamic conditional branches that were taken.
    pub fn taken_ratio(&self) -> f64 {
        ratio(self.taken_conditional, self.dynamic_conditional)
    }

    /// Fraction of all records executed in kernel mode.
    pub fn kernel_ratio(&self) -> f64 {
        ratio(self.kernel_records, self.total_records)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::BranchRecord;

    fn sample() -> TraceColumns {
        TraceColumns::from_records(&[
            BranchRecord::conditional(0x100, true),
            BranchRecord::conditional(0x100, false),
            BranchRecord::conditional(0x200, true),
            BranchRecord::unconditional(0x300),
            BranchRecord::conditional(0x400, true).in_kernel(),
        ])
    }

    #[test]
    fn counts() {
        let s = TraceStats::collect([sample()]);
        assert_eq!(s.dynamic_conditional, 4);
        assert_eq!(s.static_conditional, 3);
        assert_eq!(s.dynamic_unconditional, 1);
        assert_eq!(s.taken_conditional, 3);
        assert_eq!(s.kernel_records, 1);
        assert_eq!(s.total_records, 5);
    }

    #[test]
    fn ratios() {
        let s = TraceStats::collect([sample()]);
        assert!((s.taken_ratio() - 0.75).abs() < 1e-12);
        assert!((s.kernel_ratio() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_is_all_zero() {
        let s = TraceStats::collect([TraceColumns::default()]);
        assert_eq!(s, TraceStats::default());
        assert_eq!(s.taken_ratio(), 0.0);
        assert_eq!(s, TraceStats::collect(Vec::<TraceColumns>::new()));
    }
}
