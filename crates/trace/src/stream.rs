//! Trace sources: anything that yields a stream of [`BranchRecord`]s.

use crate::record::BranchRecord;

/// Extension helpers on record streams: generators, file readers and
/// in-memory vectors all qualify.
pub trait TraceSourceExt: Iterator<Item = BranchRecord> + Sized {
    /// Keep only the first `n` *conditional* branches (plus every
    /// unconditional record interleaved before the cut-off). This is how
    /// experiments bound workload length without distorting the
    /// conditional/unconditional mix.
    fn take_conditionals(self, n: u64) -> TakeConditionals<Self> {
        TakeConditionals {
            inner: self,
            remaining: n,
        }
    }
}

impl<I: Iterator<Item = BranchRecord>> TraceSourceExt for I {}

/// Iterator returned by [`TraceSourceExt::take_conditionals`].
#[derive(Debug, Clone)]
pub struct TakeConditionals<I> {
    inner: I,
    remaining: u64,
}

impl<I: Iterator<Item = BranchRecord>> Iterator for TakeConditionals<I> {
    type Item = BranchRecord;

    fn next(&mut self) -> Option<BranchRecord> {
        if self.remaining == 0 {
            return None;
        }
        let record = self.inner.next()?;
        if record.kind.is_conditional() {
            self.remaining -= 1;
        }
        Some(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::BranchKind;

    fn sample() -> Vec<BranchRecord> {
        vec![
            BranchRecord::conditional(0x100, true),
            BranchRecord::unconditional(0x104),
            BranchRecord::conditional(0x108, false),
            BranchRecord::conditional(0x10c, true),
            BranchRecord::unconditional(0x110),
        ]
    }

    #[test]
    fn take_conditionals_counts_only_conditionals() {
        let out: Vec<_> = sample().into_iter().take_conditionals(2).collect();
        // First conditional, the unconditional between, second conditional.
        assert_eq!(out.len(), 3);
        assert_eq!(out.iter().filter(|r| r.kind.is_conditional()).count(), 2);
        assert_eq!(out[1].kind, BranchKind::Unconditional);
    }

    #[test]
    fn take_conditionals_zero_is_empty() {
        let out: Vec<_> = sample().into_iter().take_conditionals(0).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn take_conditionals_larger_than_stream() {
        let out: Vec<_> = sample().into_iter().take_conditionals(100).collect();
        assert_eq!(out.len(), 5);
    }
}
