//! Structure-of-arrays trace columns: the one in-memory trace layout.
//!
//! A trace is held conditional-major, as dense columns instead of an
//! array of [`BranchRecord`] structs:
//!
//! - the conditional records' pcs in one `u64` column, with one meta byte
//!   each: the taken bit, plus the number of other records since the
//!   previous conditional one (saturated at 64, the most a 64-bit history
//!   can see);
//! - the other records' pcs in their own `u64` column, with one byte each
//!   for the kind code and the taken bit;
//! - two packed bitsets over all records: which ones are conditional (the
//!   order of the two pc columns) and which ran in kernel mode;
//! - the number of other records after the last conditional one, so the
//!   history stays exact across a trace built in chunks.
//!
//! That is about 9.25 bytes a record against the 16 of a `BranchRecord`.
//! The columns are lossless: [`TraceColumns::records`] merges the two pc
//! columns back into exactly the records they were built from, privilege
//! included.
//!
//! The paper predicts only conditional branches; every other record
//! matters only as a taken bit in the global history. So the simulation
//! kernels walk the conditional records alone through
//! [`TraceColumns::conditionals`], which hands each one the raw 64-bit
//! global history before it, and each kernel masks that to its own
//! length. Every other consumer (the `dyn` engine, the aliasing
//! classifiers, trace statistics) iterates records. Columns are built
//! straight from a record stream by [`FromIterator`] (no intermediate
//! record vector) and memoized per `(benchmark, len, seed)` by
//! [`crate::cache`].

use crate::record::{BranchKind, BranchRecord, Privilege};
use std::iter::Zip;
use std::ops::Deref;
use std::slice;
use std::sync::Arc;

/// The most non-conditional records a meta byte counts: a 64-bit history
/// is all ones after that many taken bits.
const GAP_MAX: u8 = 64;

/// The taken bit of an other record's meta byte, above its kind code.
const OTHER_TAKEN: u8 = 1 << 2;

/// A trace decomposed into conditional-major columns.
///
/// The columns never reorder or filter within a kind: entry `k` of the
/// conditional columns is the trace's `k`-th conditional record, entry
/// `k` of the other columns its `k`-th other record.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceColumns {
    /// The conditional records' pcs.
    cond_pc: Vec<u64>,
    /// Per conditional record: bit 0 the taken bit, bits 1.. the records
    /// since the previous conditional one, saturated at [`GAP_MAX`].
    cond_meta: Vec<u8>,
    /// The other records' pcs.
    other_pc: Vec<u64>,
    /// Per other record: the [`BranchKind`] code, and [`OTHER_TAKEN`].
    other_meta: Vec<u8>,
    /// Bit `i` set when record `i` is a conditional branch.
    conditional: Vec<u64>,
    /// Bit `i` set when record `i` executed in kernel mode.
    kernel: Vec<u64>,
    /// Records after the last conditional one, saturated at [`GAP_MAX`].
    trailing: u8,
    /// The largest conditional pc (0 when there is none).
    max_conditional_pc: u64,
}

/// `history` after `n` (at most 64) taken bits shift in.
#[inline(always)]
fn shift_taken(history: u64, n: u8) -> u64 {
    !(!history).checked_shl(u32::from(n)).unwrap_or(0)
}

impl TraceColumns {
    /// Decompose `records` into columns.
    pub fn from_records(records: &[BranchRecord]) -> TraceColumns {
        let conditionals = records.iter().filter(|r| r.kind.is_conditional()).count();
        let mut cols = TraceColumns::with_capacity(conditionals, records.len() - conditionals);
        for &r in records {
            cols.push(r);
        }
        cols
    }

    fn with_capacity(conditionals: usize, others: usize) -> TraceColumns {
        let words = (conditionals + others).div_ceil(64);
        TraceColumns {
            cond_pc: Vec::with_capacity(conditionals),
            cond_meta: Vec::with_capacity(conditionals),
            other_pc: Vec::with_capacity(others),
            other_meta: Vec::with_capacity(others),
            conditional: Vec::with_capacity(words),
            kernel: Vec::with_capacity(words),
            trailing: 0,
            max_conditional_pc: 0,
        }
    }

    /// Append one record.
    fn push(&mut self, r: BranchRecord) {
        let i = self.len();
        if i & 63 == 0 {
            self.conditional.push(0);
            self.kernel.push(0);
        }
        let (word, mask) = (i >> 6, 1u64 << (i & 63));
        if r.kind == BranchKind::Conditional {
            self.conditional[word] |= mask;
            self.cond_pc.push(r.pc);
            self.cond_meta.push(self.trailing << 1 | u8::from(r.taken));
            self.trailing = 0;
            self.max_conditional_pc = self.max_conditional_pc.max(r.pc);
        } else {
            self.other_pc.push(r.pc);
            self.other_meta
                .push(r.kind.code() | if r.taken { OTHER_TAKEN } else { 0 });
            self.trailing = (self.trailing + 1).min(GAP_MAX);
        }
        if r.privilege == Privilege::Kernel {
            self.kernel[word] |= mask;
        }
    }

    fn shrink_to_fit(&mut self) {
        self.cond_pc.shrink_to_fit();
        self.cond_meta.shrink_to_fit();
        self.other_pc.shrink_to_fit();
        self.other_meta.shrink_to_fit();
        self.conditional.shrink_to_fit();
        self.kernel.shrink_to_fit();
    }

    /// Number of records.
    #[inline]
    pub fn len(&self) -> usize {
        self.cond_pc.len() + self.other_pc.len()
    }

    /// `true` when the trace holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of conditional records.
    #[inline]
    pub fn conditional_count(&self) -> u64 {
        self.cond_pc.len() as u64
    }

    /// The largest conditional pc, or 0 when there is none.
    #[inline]
    pub fn max_conditional_pc(&self) -> u64 {
        self.max_conditional_pc
    }

    /// Walk the conditional records in order, each with the global
    /// history before it; every other record shifts a taken bit into that
    /// history. `history` is the history before the first record: 0 for a
    /// whole trace, or the previous chunk's [`Conditionals::finish`] for a
    /// trace built in chunks.
    ///
    /// The history is handed over raw, 64 bits wide: a consumer keeping
    /// `h` bits masks it to its low `h` bits.
    #[inline]
    pub fn conditionals(&self, history: u64) -> Conditionals<'_> {
        Conditionals {
            records: self.cond_pc.iter().zip(&self.cond_meta),
            history,
            trailing: self.trailing,
        }
    }

    /// Iterate the records in order, borrowing the columns.
    pub fn records(&self) -> Records<&TraceColumns> {
        Records::new(self)
    }

    /// Iterate the records in order, keeping a shared trace alive — for
    /// consumers that take an `impl Iterator<Item = BranchRecord>` and
    /// outlive the caller's borrow.
    pub fn into_records(self: Arc<Self>) -> Records<Arc<TraceColumns>> {
        Records::new(self)
    }

    /// Heap bytes held by the columns — what the trace cache charges
    /// against its byte budget.
    pub fn heap_bytes(&self) -> usize {
        let words = self.cond_pc.capacity()
            + self.other_pc.capacity()
            + self.conditional.capacity()
            + self.kernel.capacity();
        words * std::mem::size_of::<u64>() + self.cond_meta.capacity() + self.other_meta.capacity()
    }
}

/// Builds the columns straight from a record stream, then releases the
/// growth slack, so a generated trace is never held as records.
impl FromIterator<BranchRecord> for TraceColumns {
    fn from_iter<I: IntoIterator<Item = BranchRecord>>(iter: I) -> TraceColumns {
        let mut cols = TraceColumns::default();
        for r in iter {
            cols.push(r);
        }
        cols.shrink_to_fit();
        cols
    }
}

/// The conditional records of a [`TraceColumns`] as `(pc, taken,
/// history)`, where `history` is the raw 64-bit global history before
/// the record ([`TraceColumns::conditionals`]).
#[derive(Debug, Clone)]
pub struct Conditionals<'a> {
    records: Zip<slice::Iter<'a, u64>, slice::Iter<'a, u8>>,
    /// The history after the last record yielded.
    history: u64,
    trailing: u8,
}

impl Conditionals<'_> {
    /// The global history after the trace's last record, the records past
    /// the last conditional one included: the `history` to start the next
    /// chunk's walk from.
    pub fn finish(mut self) -> u64 {
        self.by_ref().for_each(drop);
        shift_taken(self.history, self.trailing)
    }
}

impl Iterator for Conditionals<'_> {
    type Item = (u64, bool, u64);

    #[inline(always)]
    fn next(&mut self) -> Option<(u64, bool, u64)> {
        let (&pc, &meta) = self.records.next()?;
        let taken = meta & 1 == 1;
        let history = shift_taken(self.history, meta >> 1);
        self.history = history << 1 | u64::from(taken);
        Some((pc, taken, history))
    }
}

/// The records of a [`TraceColumns`], in order: borrowed
/// ([`TraceColumns::records`]) or owning a shared trace
/// ([`TraceColumns::into_records`]). The two pc columns are merged by
/// one cursor each.
#[derive(Debug, Clone)]
pub struct Records<C> {
    cols: C,
    len: usize,
    next: usize,
    next_cond: usize,
    next_other: usize,
    /// The conditional and kernel-mode bits of record `next` onward in
    /// its bitset word, record `next` in bit 0.
    cond_bits: u64,
    kernel_bits: u64,
}

impl<C: Deref<Target = TraceColumns>> Records<C> {
    fn new(cols: C) -> Records<C> {
        Records {
            len: cols.len(),
            cols,
            next: 0,
            next_cond: 0,
            next_other: 0,
            cond_bits: 0,
            kernel_bits: 0,
        }
    }
}

impl<C: Deref<Target = TraceColumns>> Iterator for Records<C> {
    type Item = BranchRecord;

    // Every record-consuming loop calls this once per record; with a
    // plain `#[inline]` the compiler left it out of line in some of them
    // (`table2`'s measure loop ran ~8% slower).
    #[inline(always)]
    fn next(&mut self) -> Option<BranchRecord> {
        let i = self.next;
        if i == self.len {
            return None;
        }
        let cols = &*self.cols;
        self.next += 1;
        if i & 63 == 0 {
            self.cond_bits = cols.conditional[i >> 6];
            self.kernel_bits = cols.kernel[i >> 6];
        }
        let (conditional, kernel) = (self.cond_bits & 1 == 1, self.kernel_bits & 1 == 1);
        self.cond_bits >>= 1;
        self.kernel_bits >>= 1;
        let privilege = if kernel {
            Privilege::Kernel
        } else {
            Privilege::User
        };
        if conditional {
            let k = self.next_cond;
            self.next_cond += 1;
            return Some(BranchRecord {
                pc: cols.cond_pc[k],
                kind: BranchKind::Conditional,
                taken: cols.cond_meta[k] & 1 == 1,
                privilege,
            });
        }
        let k = self.next_other;
        self.next_other += 1;
        let meta = cols.other_meta[k];
        Some(BranchRecord {
            pc: cols.other_pc[k],
            // Masked to two bits, every code decodes.
            kind: BranchKind::from_code(meta & 3).expect("two-bit kind code"),
            taken: meta & OTHER_TAKEN != 0,
            privilege,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.len - self.next;
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
    // benchmark trace, and the conditional cursor against a naive history
    // walk, live in `tests/lossless_columns.rs`.

    #[test]
    fn collecting_a_stream_packs_nine_bytes_and_two_bits_a_record() {
        let stream = || IbsBenchmark::Nroff.spec().build().take_conditionals(3_000);
        let records: Vec<BranchRecord> = stream().collect();
        let collected: TraceColumns = stream().collect();
        assert_eq!(collected, TraceColumns::from_records(&records));
        assert_eq!(collected.conditional_count(), 3_000);
        let words = records.len().div_ceil(64);
        assert_eq!(collected.heap_bytes(), records.len() * 9 + 2 * 8 * words);
    }

    #[test]
    fn long_runs_saturate_to_an_all_ones_history() {
        let mut records = vec![BranchRecord::conditional(0x40, false)];
        records.extend((0..70).map(|i| BranchRecord::unconditional(0x100 + 4 * i)));
        records.push(BranchRecord::conditional(0x80, true));
        let cols = TraceColumns::from_records(&records);
        let walked: Vec<_> = cols.conditionals(0).collect();
        assert_eq!(walked, vec![(0x40, false, 0), (0x80, true, u64::MAX)]);
        assert_eq!(cols.max_conditional_pc(), 0x80);
        assert_eq!(cols.conditionals(0).finish(), u64::MAX);
        assert_eq!(shift_taken(0b10, 0), 0b10);
        assert_eq!(shift_taken(0b10, 3), 0b10111);
    }
}
