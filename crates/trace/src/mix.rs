//! Multiprogrammed trace mixing: interleave several workloads with
//! OS-style time slicing.
//!
//! The paper's introduction motivates aliasing with "large workloads
//! consisting of multiple processes and operating-system code", and its
//! reference list leans on the context-switch studies of Evers et al. and
//! Gloy et al. [`MultiProgram`] reproduces that stress: it round-robins
//! whole workloads (each already containing its own kernel activity)
//! with a configurable time slice, multiplying the predictor-visible
//! working set the way a real multiprogrammed system does.

use crate::record::{BranchRecord, Sink};
use crate::soa::{ColumnBuilder, TraceColumns};
use crate::workload::{Workload, WorkloadSpec};

/// An interleaving of several workloads, scheduled round-robin with a
/// fixed time slice (in records).
///
/// ```
/// use bpred_trace::mix::MultiProgram;
/// use bpred_trace::workload::IbsBenchmark;
///
/// let mixed = MultiProgram::new(
///     vec![IbsBenchmark::Groff.spec(), IbsBenchmark::Gs.spec()],
///     50_000,
/// );
/// let _first_thousand: Vec<_> = mixed.take(1_000).collect();
/// ```
#[derive(Debug, Clone)]
pub struct MultiProgram {
    workloads: Vec<Workload>,
    active: usize,
    slice: u64,
    slice_left: u64,
}

impl MultiProgram {
    /// Interleave the given workload specs with `slice` records per turn.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty or `slice` is zero.
    pub fn new(specs: Vec<WorkloadSpec>, slice: u64) -> Self {
        assert!(!specs.is_empty(), "need at least one workload to mix");
        assert!(slice > 0, "time slice must be nonzero");
        MultiProgram {
            workloads: specs.iter().map(WorkloadSpec::build).collect(),
            active: 0,
            slice,
            slice_left: slice,
        }
    }

    /// The mix's next `conditionals` conditional branches, with every
    /// other record before the last of them, as columns: the next
    /// records [`TraceSourceExt::take_conditionals`] would yield, built
    /// with no record in between and from the same random numbers (see
    /// [`Workload::fill`]).
    ///
    /// [`TraceSourceExt::take_conditionals`]: crate::stream::TraceSourceExt::take_conditionals
    pub fn fill(&mut self, conditionals: u64) -> TraceColumns {
        ColumnBuilder::walk(conditionals, |columns| self.step(columns))
    }

    /// Take one step of the active workload, then count it against the
    /// slice. Returns whether it was a conditional branch.
    #[inline(always)]
    fn step(&mut self, sink: &mut impl Sink) -> bool {
        let conditional = self.workloads[self.active].step(sink);
        self.slice_left -= 1;
        if self.slice_left == 0 {
            self.active = (self.active + 1) % self.workloads.len();
            self.slice_left = self.slice;
        }
        conditional
    }
}

impl Iterator for MultiProgram {
    type Item = BranchRecord;

    fn next(&mut self) -> Option<BranchRecord> {
        let mut record = None;
        self.step(&mut record);
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;
    use crate::stream::TraceSourceExt;
    use crate::workload::IbsBenchmark;

    fn mixed() -> MultiProgram {
        MultiProgram::new(
            vec![IbsBenchmark::Groff.spec(), IbsBenchmark::Verilog.spec()],
            10_000,
        )
    }

    #[test]
    fn interleaves_both_address_spaces() {
        // The two workloads use the same user base address but different
        // programs; distinguish them by their static pc sets.
        let solo_groff: std::collections::HashSet<u64> = IbsBenchmark::Groff
            .spec()
            .build()
            .take(30_000)
            .map(|r| r.pc)
            .collect();
        let solo_verilog: std::collections::HashSet<u64> = IbsBenchmark::Verilog
            .spec()
            .build()
            .take(30_000)
            .map(|r| r.pc)
            .collect();
        let mixed_pcs: std::collections::HashSet<u64> =
            mixed().take(30_000).map(|r| r.pc).collect();
        assert!(mixed_pcs.intersection(&solo_groff).count() > 100);
        assert!(mixed_pcs.intersection(&solo_verilog).count() > 100);
    }

    #[test]
    fn slices_are_contiguous() {
        // Within one slice, the records match the solo workload stream.
        let solo: Vec<_> = IbsBenchmark::Groff.spec().build().take(10_000).collect();
        let mixed_records: Vec<_> = mixed().take(10_000).collect();
        assert_eq!(solo, mixed_records, "first slice replays workload 0");
    }

    #[test]
    fn mixing_grows_the_static_working_set() {
        let len = 60_000u64;
        let solo = TraceStats::collect([IbsBenchmark::Groff.spec().build().fill(len)]);
        let mix = TraceStats::collect([mixed().fill(len)]);
        assert!(
            mix.static_conditional > solo.static_conditional,
            "mixed {} <= solo {}",
            mix.static_conditional,
            solo.static_conditional
        );
    }

    #[test]
    fn fill_writes_the_records_in_chunks() {
        let len = 25_000;
        let records: Vec<BranchRecord> = mixed().take_conditionals(len).collect();
        let mut mix = mixed();
        let mut chunks = Vec::new();
        for n in [0, 1, 64, 9_935, 15_000] {
            chunks.extend(mix.fill(n).records());
        }
        assert_eq!(chunks, records);
    }

    #[test]
    fn deterministic() {
        let a: Vec<_> = mixed().take(5_000).collect();
        let b: Vec<_> = mixed().take(5_000).collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one workload")]
    fn empty_mix_panics() {
        let _ = MultiProgram::new(vec![], 100);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_slice_panics() {
        let _ = MultiProgram::new(vec![IbsBenchmark::Groff.spec()], 0);
    }
}
