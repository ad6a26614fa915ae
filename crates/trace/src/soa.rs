//! Structure-of-arrays trace columns: the one in-memory trace layout.
//!
//! A trace is held as parallel columns instead of an array of
//! [`BranchRecord`] structs: one `u64` pc and one `u8` kind code per
//! record, plus three packed bitsets (taken, conditional, kernel mode) —
//! about 9.4 bytes a record against the 16 of a `BranchRecord`. The
//! columns are lossless: [`TraceColumns::records`] yields back exactly
//! the records they were built from, privilege included.
//!
//! The simulation kernels walk the pc column and two bit lookups per
//! record; every other consumer (the `dyn` engine, the aliasing
//! classifiers, trace statistics) iterates records. Columns are built
//! straight from a record stream by [`FromIterator`] (no intermediate
//! record vector) and memoized per `(benchmark, len, seed)` by
//! [`crate::cache`].

use crate::record::{BranchKind, BranchRecord, Privilege};
use std::ops::Deref;
use std::sync::Arc;

/// A trace decomposed into per-field columns.
///
/// Columns never reorder or filter: index `i` of every column describes
/// record `i` of the stream they were built from.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceColumns {
    pc: Vec<u64>,
    /// Bit `i` set when record `i` was taken.
    taken: Vec<u64>,
    /// Bit `i` set when record `i` is a conditional branch.
    conditional: Vec<u64>,
    /// Bit `i` set when record `i` executed in kernel mode.
    kernel: Vec<u64>,
    /// [`BranchKind`] codes (the binary trace-format encoding).
    kind: Vec<u8>,
    conditional_count: u64,
}

#[inline]
fn bit(words: &[u64], i: usize) -> bool {
    (words[i >> 6] >> (i & 63)) & 1 == 1
}

impl TraceColumns {
    /// Decompose `records` into columns.
    pub fn from_records(records: &[BranchRecord]) -> TraceColumns {
        records.iter().copied().collect()
    }

    fn with_capacity(records: usize) -> TraceColumns {
        let words = records.div_ceil(64);
        TraceColumns {
            pc: Vec::with_capacity(records),
            taken: Vec::with_capacity(words),
            conditional: Vec::with_capacity(words),
            kernel: Vec::with_capacity(words),
            kind: Vec::with_capacity(records),
            conditional_count: 0,
        }
    }

    /// Append one record.
    fn push(&mut self, r: BranchRecord) {
        let i = self.pc.len();
        if i & 63 == 0 {
            self.taken.push(0);
            self.conditional.push(0);
            self.kernel.push(0);
        }
        let (word, mask) = (i >> 6, 1u64 << (i & 63));
        if r.taken {
            self.taken[word] |= mask;
        }
        if r.kind == BranchKind::Conditional {
            self.conditional[word] |= mask;
            self.conditional_count += 1;
        }
        if r.privilege == Privilege::Kernel {
            self.kernel[word] |= mask;
        }
        self.pc.push(r.pc);
        self.kind.push(r.kind.code());
    }

    fn shrink_to_fit(&mut self) {
        self.pc.shrink_to_fit();
        self.taken.shrink_to_fit();
        self.conditional.shrink_to_fit();
        self.kernel.shrink_to_fit();
        self.kind.shrink_to_fit();
    }

    /// Number of records.
    #[inline]
    pub fn len(&self) -> usize {
        self.pc.len()
    }

    /// `true` when the trace holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pc.is_empty()
    }

    /// Number of conditional records.
    #[inline]
    pub fn conditional_count(&self) -> u64 {
        self.conditional_count
    }

    /// Whether record `i` was taken.
    #[inline]
    pub fn taken(&self, i: usize) -> bool {
        bit(&self.taken, i)
    }

    /// Whether record `i` is a conditional branch.
    #[inline]
    pub fn is_conditional(&self, i: usize) -> bool {
        bit(&self.conditional, i)
    }

    /// `(is_conditional, taken)` of record `i` in one call — the pair
    /// every history-tracking kernel needs per record.
    #[inline]
    pub fn cond_taken(&self, i: usize) -> (bool, bool) {
        (bit(&self.conditional, i), bit(&self.taken, i))
    }

    /// Reassemble record `i`.
    #[inline]
    pub fn record(&self, i: usize) -> BranchRecord {
        BranchRecord {
            pc: self.pc[i],
            kind: BranchKind::from_code(self.kind[i])
                .expect("column codes come from BranchKind::code"),
            taken: bit(&self.taken, i),
            privilege: if bit(&self.kernel, i) {
                Privilege::Kernel
            } else {
                Privilege::User
            },
        }
    }

    /// The pc column as a slice (for kernels that index it directly).
    #[inline]
    pub fn pcs(&self) -> &[u64] {
        &self.pc
    }

    /// Iterate the records in order, borrowing the columns.
    pub fn records(&self) -> Records<&TraceColumns> {
        Records {
            cols: self,
            next: 0,
        }
    }

    /// Iterate the records in order, keeping a shared trace alive — for
    /// consumers that take an `impl Iterator<Item = BranchRecord>` and
    /// outlive the caller's borrow.
    pub fn into_records(self: Arc<Self>) -> Records<Arc<TraceColumns>> {
        Records {
            cols: self,
            next: 0,
        }
    }

    /// Heap bytes held by the columns — what the trace cache charges
    /// against its byte budget.
    pub fn heap_bytes(&self) -> usize {
        let words = self.taken.capacity() + self.conditional.capacity() + self.kernel.capacity();
        (self.pc.capacity() + words) * std::mem::size_of::<u64>() + self.kind.capacity()
    }
}

/// Builds the columns straight from a record stream, then releases the
/// growth slack, so a generated trace is never held as records.
impl FromIterator<BranchRecord> for TraceColumns {
    fn from_iter<I: IntoIterator<Item = BranchRecord>>(iter: I) -> TraceColumns {
        let iter = iter.into_iter();
        let mut cols = TraceColumns::with_capacity(iter.size_hint().0);
        for r in iter {
            cols.push(r);
        }
        cols.shrink_to_fit();
        cols
    }
}

/// The records of a [`TraceColumns`], in order: borrowed
/// ([`TraceColumns::records`]) or owning a shared trace
/// ([`TraceColumns::into_records`]).
#[derive(Debug, Clone)]
pub struct Records<C> {
    cols: C,
    next: usize,
}

impl<C: Deref<Target = TraceColumns>> Iterator for Records<C> {
    type Item = BranchRecord;

    // Every record-consuming loop calls this once per record; with a
    // plain `#[inline]` the compiler left it out of line in some of them
    // (`table2`'s measure loop ran ~8% slower).
    #[inline(always)]
    fn next(&mut self) -> Option<BranchRecord> {
        if self.next == self.cols.len() {
            return None;
        }
        let record = self.cols.record(self.next);
        self.next += 1;
        Some(record)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.cols.len() - self.next;
        (remaining, Some(remaining))
    }
}

impl<C: Deref<Target = TraceColumns>> ExactSizeIterator for Records<C> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::TraceSourceExt;
    use crate::workload::IbsBenchmark;

    // Lossless round trips over arbitrary records and every cached
    // benchmark trace live in `tests/lossless_columns.rs`.

    #[test]
    fn collecting_a_stream_packs_nine_bytes_and_three_bits_a_record() {
        let stream = || IbsBenchmark::Nroff.spec().build().take_conditionals(3_000);
        let records: Vec<BranchRecord> = stream().collect();
        let collected: TraceColumns = stream().collect();
        assert_eq!(collected, TraceColumns::from_records(&records));
        assert_eq!(collected.conditional_count(), 3_000);
        let words = records.len().div_ceil(64);
        assert_eq!(collected.heap_bytes(), records.len() * 9 + 3 * 8 * words);
    }
}
