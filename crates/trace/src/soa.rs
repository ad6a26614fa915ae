//! Structure-of-arrays trace columns: the one in-memory trace layout.
//!
//! A trace is held conditional-major, as dense columns instead of an
//! array of [`BranchRecord`] structs:
//!
//! - the conditional records' pcs in one pc column, with one meta byte
//!   each: the taken bit, plus the number of other records since the
//!   previous conditional one (saturated at 64, the most a 64-bit history
//!   can see);
//! - the other records' pcs in a pc column of their own, with one byte
//!   each for the kind code and the taken bit;
//! - two packed bitsets over all records: which ones are conditional (the
//!   order of the two pc columns) and which ran in kernel mode;
//! - the number of other records after the last conditional one, so the
//!   history stays exact across a trace built in chunks.
//!
//! A pc column holds the low 32 bits of each pc in a `u32`, plus a list
//! of change points: `(first index, high word)` wherever the high 32
//! bits change, the high word 0 before the first. No synthetic trace has
//! a pc at or above 2^32, so their lists are empty and a record costs
//! 5.25 bytes (4 of pc, 1 of meta, 2 bits), against the 16 of a
//! `BranchRecord`. Each change point adds 16 bytes, so the worst case, a
//! trace whose high word changes at every record of both columns, costs
//! 21.25 bytes a record; [`TraceColumns::heap_bytes`] counts them all.
//! The columns are lossless for any `u64` pc: [`TraceColumns::records`]
//! merges the two pc columns back into exactly the records they were
//! built from, privilege included.
//!
//! The paper predicts only conditional branches; every other record
//! matters only as a taken bit in the global history. So every consumer
//! walks the conditional records alone through
//! [`TraceColumns::conditionals`], which hands each one the raw 64-bit
//! global history before it, and each consumer masks that to its own
//! length: the simulation kernels, the aliasing classifiers and the
//! trace statistics. [`Conditionals::for_each_record`] walks them as one
//! tight loop per high-word segment: the end of a segment is the end of
//! its slices, and stepping to the next segment is a cold call.
//! Retirement-time training needs each conditional record's position
//! among all records, which the saturated gaps cannot give, so
//! [`TraceColumns::positioned`] reads it from the `conditional` bitset.
//! Records are rebuilt ([`TraceColumns::records`]) only where a trace
//! meets the per-record world: the trace file writer and the test
//! oracles. Every column set is appended by one builder: the generator
//! writes into it directly ([`crate::workload::Workload::fill`], no
//! record in between), and a record stream feeds it through
//! [`FromIterator`]. The trace cache memoizes the columns per
//! `(benchmark, len, seed)` ([`crate::cache`]).

use crate::record::{BranchKind, BranchRecord, Privilege, Sink};
use std::iter::Zip;
use std::slice;

/// The most non-conditional records a meta byte counts: a 64-bit history
/// is all ones after that many taken bits.
const GAP_MAX: u8 = 64;

/// The taken bit of an other record's meta byte, above its kind code.
const OTHER_TAKEN: u8 = 1 << 2;

/// One column of pcs: the low words, and the high word's change points.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct PcColumn {
    /// The low 32 bits of every pc.
    low: Vec<u32>,
    /// `(first index, high word)` at every index whose pc's high 32 bits
    /// differ from the previous pc's (from 0 for the first pc), in index
    /// order.
    changes: Vec<(usize, u32)>,
}

impl PcColumn {
    fn with_capacity(len: usize) -> PcColumn {
        PcColumn {
            low: Vec::with_capacity(len),
            changes: Vec::new(),
        }
    }

    #[inline(always)]
    fn push(&mut self, pc: u64) {
        let high = (pc >> 32) as u32;
        if high != self.changes.last().map_or(0, |&(_, h)| h) {
            self.changes.push((self.low.len(), high));
        }
        self.low.push(pc as u32);
    }

    #[inline]
    fn len(&self) -> usize {
        self.low.len()
    }

    /// The first index of change point `c`, or `usize::MAX` past the
    /// last one.
    #[inline]
    fn change_at(&self, c: usize) -> usize {
        self.changes.get(c).map_or(usize::MAX, |&(at, _)| at)
    }

    /// The high word of change point `c`, in place, and the first index
    /// of the change point after it. Takes and returns values, so a
    /// cursor calling it can stay in registers.
    #[cold]
    #[inline(never)]
    fn segment(&self, c: usize) -> (u64, usize) {
        (u64::from(self.changes[c].1) << 32, self.change_at(c + 1))
    }

    fn shrink_to_fit(&mut self) {
        self.low.shrink_to_fit();
        self.changes.shrink_to_fit();
    }

    fn heap_bytes(&self) -> usize {
        self.low.capacity() * std::mem::size_of::<u32>()
            + self.changes.capacity() * std::mem::size_of::<(usize, u32)>()
    }
}

/// A trace decomposed into conditional-major columns.
///
/// The columns never reorder or filter within a kind: entry `k` of the
/// conditional columns is the trace's `k`-th conditional record, entry
/// `k` of the other columns its `k`-th other record.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceColumns {
    /// The conditional records' pcs.
    cond_pc: PcColumn,
    /// Per conditional record: bit 0 the taken bit, bits 1.. the records
    /// since the previous conditional one, saturated at [`GAP_MAX`].
    cond_meta: Vec<u8>,
    /// The other records' pcs.
    other_pc: PcColumn,
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
        let mut cols = ColumnBuilder::with_capacity(conditionals, records.len() - conditionals);
        records.iter().for_each(|&r| cols.record(r));
        cols.finish()
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
        let (pcs, metas) = (&self.cond_pc.low[..], &self.cond_meta[..]);
        let end = self.cond_pc.change_at(0).min(pcs.len());
        Conditionals {
            records: pcs[..end].iter().zip(&metas[..end]),
            high: 0,
            pcs,
            metas,
            changes: &self.cond_pc.changes,
            history,
            trailing: self.trailing,
        }
    }

    /// Walk the conditional records in order as `(position, pc, taken)`,
    /// where `position` is the record's index among all records.
    #[inline]
    pub fn positioned(&self) -> Positioned<'_> {
        Positioned {
            cols: self,
            word: 0,
            bits: self.conditional.first().copied().unwrap_or(0),
            cursor: PcCursor::new(&self.cond_pc),
        }
    }

    /// Number of records executed in kernel mode.
    pub fn kernel_count(&self) -> u64 {
        self.kernel.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Iterate the records in order.
    pub fn records(&self) -> Records<'_> {
        Records::new(self)
    }

    /// Heap bytes held by the columns, change points included — what the
    /// trace cache charges against its byte budget.
    pub fn heap_bytes(&self) -> usize {
        let words = self.conditional.capacity() + self.kernel.capacity();
        self.cond_pc.heap_bytes()
            + self.other_pc.heap_bytes()
            + words * std::mem::size_of::<u64>()
            + self.cond_meta.capacity()
            + self.other_meta.capacity()
    }
}

/// Builds the columns straight from a record stream, so a trace read
/// from a record iterator is never held as records.
impl FromIterator<BranchRecord> for TraceColumns {
    fn from_iter<I: IntoIterator<Item = BranchRecord>>(iter: I) -> TraceColumns {
        let mut cols = ColumnBuilder::with_capacity(0, 0);
        iter.into_iter().for_each(|r| cols.record(r));
        cols.finish()
    }
}

/// Appends records to a [`TraceColumns`]: the one way columns are built.
/// A generator walk hands it records as a [`Sink`], a record stream
/// through [`ColumnBuilder::record`].
///
/// The pc and meta columns are pre-sized, and the two bitset words being
/// filled are fields of the builder, not loads from the bitset columns:
/// a word is pushed once it holds 64 records.
#[derive(Debug)]
pub(crate) struct ColumnBuilder {
    cols: TraceColumns,
    /// The conditional and kernel-mode bits of the records after the last
    /// full word, the first of them in bit 0.
    cond_word: u64,
    kernel_word: u64,
    /// Records in those words.
    bits: u32,
}

impl ColumnBuilder {
    /// A builder with room for `conditionals` conditional and `others`
    /// other records before any column grows.
    pub(crate) fn with_capacity(conditionals: usize, others: usize) -> ColumnBuilder {
        let words = (conditionals + others).div_ceil(64);
        ColumnBuilder {
            cols: TraceColumns {
                cond_pc: PcColumn::with_capacity(conditionals),
                cond_meta: Vec::with_capacity(conditionals),
                other_pc: PcColumn::with_capacity(others),
                other_meta: Vec::with_capacity(others),
                conditional: Vec::with_capacity(words),
                kernel: Vec::with_capacity(words),
                trailing: 0,
                max_conditional_pc: 0,
            },
            cond_word: 0,
            kernel_word: 0,
            bits: 0,
        }
    }

    /// The columns of a walk's next `conditionals` conditional records,
    /// with every other record before the last of them: `step` takes one
    /// step of the walk into the builder and returns whether it was a
    /// conditional record.
    #[inline(always)]
    pub(crate) fn walk(
        conditionals: u64,
        mut step: impl FnMut(&mut ColumnBuilder) -> bool,
    ) -> TraceColumns {
        let n = usize::try_from(conditionals).expect("conditional count fits in memory");
        // The six presets emit 0.41-0.50 other records per conditional.
        let mut columns = ColumnBuilder::with_capacity(n, n / 2);
        let mut left = conditionals;
        while left > 0 {
            left -= u64::from(step(&mut columns));
        }
        columns.finish()
    }

    /// Append any record, kind and taken bit as they are.
    #[inline]
    fn record(&mut self, r: BranchRecord) {
        let kernel = r.privilege == Privilege::Kernel;
        if r.kind.is_conditional() {
            self.conditional(r.pc, r.taken, kernel);
        } else {
            let taken = if r.taken { OTHER_TAKEN } else { 0 };
            self.append_other(r.pc, r.kind.code() | taken, kernel);
        }
    }

    #[inline(always)]
    fn append_other(&mut self, pc: u64, meta: u8, kernel: bool) {
        let cols = &mut self.cols;
        cols.other_pc.push(pc);
        cols.other_meta.push(meta);
        cols.trailing = (cols.trailing + 1).min(GAP_MAX);
        self.mark(false, kernel);
    }

    /// Set the next record's bits, pushing the words once they are full.
    #[inline(always)]
    fn mark(&mut self, conditional: bool, kernel: bool) {
        self.cond_word |= u64::from(conditional) << self.bits;
        self.kernel_word |= u64::from(kernel) << self.bits;
        self.bits += 1;
        if self.bits == 64 {
            self.push_words();
        }
    }

    fn push_words(&mut self) {
        self.cols.conditional.push(self.cond_word);
        self.cols.kernel.push(self.kernel_word);
        (self.cond_word, self.kernel_word, self.bits) = (0, 0, 0);
    }

    /// The columns, with the last partial bitset words pushed and the
    /// growth slack released.
    pub(crate) fn finish(mut self) -> TraceColumns {
        if self.bits > 0 {
            self.push_words();
        }
        let cols = &mut self.cols;
        cols.cond_pc.shrink_to_fit();
        cols.cond_meta.shrink_to_fit();
        cols.other_pc.shrink_to_fit();
        cols.other_meta.shrink_to_fit();
        cols.conditional.shrink_to_fit();
        cols.kernel.shrink_to_fit();
        self.cols
    }
}

impl Sink for ColumnBuilder {
    #[inline(always)]
    fn conditional(&mut self, pc: u64, taken: bool, kernel: bool) {
        let cols = &mut self.cols;
        cols.cond_pc.push(pc);
        cols.cond_meta.push(cols.trailing << 1 | u8::from(taken));
        cols.trailing = 0;
        cols.max_conditional_pc = cols.max_conditional_pc.max(pc);
        self.mark(true, kernel);
    }

    #[inline(always)]
    fn other(&mut self, pc: u64, kind: BranchKind, kernel: bool) {
        self.append_other(pc, kind.code() | OTHER_TAKEN, kernel);
    }
}

/// A walk over the conditional records of a [`TraceColumns`] as `(pc,
/// taken, history)`, where `history` is the raw 64-bit global history
/// before the record ([`TraceColumns::conditionals`]).
///
/// The walk goes one high-word segment at a time: `records` runs to the
/// segment's end, and only then does a cold step load the next one.
#[derive(Debug, Clone)]
pub struct Conditionals<'a> {
    /// The current segment's records not yet walked.
    records: Zip<slice::Iter<'a, u32>, slice::Iter<'a, u8>>,
    /// The current segment's high word, in place above the low word.
    high: u64,
    /// The whole conditional pc and meta columns.
    pcs: &'a [u32],
    metas: &'a [u8],
    /// The change points after the current segment's.
    changes: &'a [(usize, u32)],
    /// The history after the last record walked.
    history: u64,
    trailing: u8,
}

impl Conditionals<'_> {
    /// Hand every record not yet walked to `f(pc, taken, history)`, as
    /// one tight loop per high-word segment. The walk is left at the
    /// end, for [`Conditionals::finish`].
    #[inline(always)]
    pub fn for_each_record(&mut self, mut f: impl FnMut(u64, bool, u64)) {
        loop {
            // The segment's loop state lives in locals, not in `self`,
            // which the cold step borrows.
            let (mut records, high, mut history) = (self.records.clone(), self.high, self.history);
            for (&low, &meta) in records.by_ref() {
                let taken = meta & 1 == 1;
                let before = shift_taken(history, meta >> 1);
                history = before << 1 | u64::from(taken);
                f(high | u64::from(low), taken, before);
            }
            (self.records, self.history) = (records, history);
            if !self.next_segment() {
                return;
            }
        }
    }

    /// The global history after the trace's last record, the records past
    /// the last conditional one included: the `history` to start the next
    /// chunk's walk from.
    pub fn finish(mut self) -> u64 {
        self.for_each_record(|_, _, _| {});
        shift_taken(self.history, self.trailing)
    }

    /// Move to the next segment; `false` when the current one is the
    /// last.
    #[cold]
    #[inline(never)]
    fn next_segment(&mut self) -> bool {
        let Some((&(start, high), rest)) = self.changes.split_first() else {
            return false;
        };
        let end = rest.first().map_or(self.pcs.len(), |&(at, _)| at);
        self.records = self.pcs[start..end].iter().zip(&self.metas[start..end]);
        self.high = u64::from(high) << 32;
        self.changes = rest;
        true
    }
}

/// A walk over the conditional records of a [`TraceColumns`] as
/// `(position, pc, taken)` ([`TraceColumns::positioned`]): each position
/// is the next set bit of the `conditional` bitset.
#[derive(Debug, Clone)]
pub struct Positioned<'a> {
    cols: &'a TraceColumns,
    /// The bitset word `bits` came from.
    word: usize,
    /// That word's conditional bits not yet walked.
    bits: u64,
    cursor: PcCursor,
}

impl Iterator for Positioned<'_> {
    type Item = (usize, u64, bool);

    #[inline(always)]
    fn next(&mut self) -> Option<(usize, u64, bool)> {
        while self.bits == 0 {
            self.word += 1;
            self.bits = *self.cols.conditional.get(self.word)?;
        }
        let position = self.word * 64 + self.bits.trailing_zeros() as usize;
        self.bits &= self.bits - 1;
        let (k, pc) = self.cursor.step(&self.cols.cond_pc);
        Some((position, pc, self.cols.cond_meta[k] & 1 == 1))
    }
}

/// One pc column's read position in [`Records`] and [`Positioned`]: the
/// next index, the high word in force there, and where the next change
/// point starts.
#[derive(Debug, Clone)]
struct PcCursor {
    next: usize,
    /// The high word of the current segment, in place.
    high: u64,
    /// The next change point, and its first index (`usize::MAX` past the
    /// last).
    change: usize,
    change_at: usize,
}

impl PcCursor {
    #[inline]
    fn new(column: &PcColumn) -> PcCursor {
        PcCursor {
            next: 0,
            high: 0,
            change: 0,
            change_at: column.change_at(0),
        }
    }

    /// The index of the next pc of `column`, and that pc.
    #[inline(always)]
    fn step(&mut self, column: &PcColumn) -> (usize, u64) {
        let k = self.next;
        self.next += 1;
        if k == self.change_at {
            (self.high, self.change_at) = column.segment(self.change);
            self.change += 1;
        }
        (k, self.high | u64::from(column.low[k]))
    }
}

/// The records of a [`TraceColumns`], in order
/// ([`TraceColumns::records`]). The two pc columns are merged by one
/// cursor each.
///
/// A step tests one index for both the end of the trace and the end of
/// a bitset word, and a pc cursor tests one for the end of its segment;
/// everything else a step needs stays in registers.
#[derive(Debug, Clone)]
pub struct Records<'a> {
    cols: &'a TraceColumns,
    len: usize,
    /// The next record that needs more than a step: the start of the
    /// next bitset word, or `len`.
    stop: usize,
    /// The two columns' read positions; record `cond.next + other.next`
    /// is next.
    cond: PcCursor,
    other: PcCursor,
    /// The conditional and kernel-mode bits of the next record onward in
    /// its bitset word, the next record's in bit 0.
    cond_bits: u64,
    kernel_bits: u64,
}

impl Records<'_> {
    fn new(cols: &TraceColumns) -> Records<'_> {
        Records {
            len: cols.len(),
            stop: 0,
            cond: PcCursor::new(&cols.cond_pc),
            other: PcCursor::new(&cols.other_pc),
            cols,
            cond_bits: 0,
            kernel_bits: 0,
        }
    }
}

impl Iterator for Records<'_> {
    type Item = BranchRecord;

    // Every record-consuming loop calls this once per record; with a
    // plain `#[inline]` the compiler left it out of line in some of them
    // (`table2`'s measure loop ran ~8% slower).
    #[inline(always)]
    fn next(&mut self) -> Option<BranchRecord> {
        let i = self.cond.next + self.other.next;
        let cols = self.cols;
        if i == self.stop {
            if i == self.len {
                return None;
            }
            self.cond_bits = cols.conditional[i >> 6];
            self.kernel_bits = cols.kernel[i >> 6];
            self.stop = self.len.min(i + 64);
        }
        let (conditional, kernel) = (self.cond_bits & 1 == 1, self.kernel_bits & 1 == 1);
        self.cond_bits >>= 1;
        self.kernel_bits >>= 1;
        let privilege = Privilege::of(kernel);
        if conditional {
            let (k, pc) = self.cond.step(&cols.cond_pc);
            return Some(BranchRecord {
                pc,
                kind: BranchKind::Conditional,
                taken: cols.cond_meta[k] & 1 == 1,
                privilege,
            });
        }
        let (k, pc) = self.other.step(&cols.other_pc);
        let meta = cols.other_meta[k];
        Some(BranchRecord {
            pc,
            // An other record's code is never the conditional one (0), so
            // decoding it as a non-conditional kind is exact and tells
            // the consumer's kind test its answer.
            kind: match meta & 3 {
                1 => BranchKind::Unconditional,
                2 => BranchKind::Call,
                _ => BranchKind::Return,
            },
            taken: meta & OTHER_TAKEN != 0,
            privilege,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.len - self.cond.next - self.other.next;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Records<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::TraceSourceExt;
    use crate::workload::IbsBenchmark;

    // Lossless round trips over arbitrary records and every cached
    // benchmark trace, and the conditional cursor against a naive history
    // walk, live in `tests/lossless_columns.rs`.

    #[test]
    fn collecting_a_stream_packs_five_bytes_and_two_bits_a_record() {
        let stream = || IbsBenchmark::Nroff.spec().build().take_conditionals(3_000);
        let records: Vec<BranchRecord> = stream().collect();
        let collected: TraceColumns = stream().collect();
        assert_eq!(collected, TraceColumns::from_records(&records));
        assert_eq!(collected.conditional_count(), 3_000);
        // A synthetic trace has no pc at or above 2^32, so no change
        // points: 4 bytes of pc and 1 of meta a record, plus two bitsets.
        assert!(records.iter().all(|r| r.pc >> 32 == 0));
        let words = records.len().div_ceil(64);
        assert_eq!(collected.heap_bytes(), records.len() * 5 + 2 * 8 * words);
    }

    #[test]
    fn long_runs_saturate_to_an_all_ones_history() {
        let mut records = vec![BranchRecord::conditional(0x40, false)];
        records.extend((0..70).map(|i| BranchRecord::unconditional(0x100 + 4 * i)));
        records.push(BranchRecord::conditional(0x80, true));
        let cols = TraceColumns::from_records(&records);
        let mut walked = Vec::new();
        let mut walk = cols.conditionals(0);
        walk.for_each_record(|pc, taken, history| walked.push((pc, taken, history)));
        assert_eq!(walked, vec![(0x40, false, 0), (0x80, true, u64::MAX)]);
        assert_eq!(walk.finish(), u64::MAX);
        assert_eq!(cols.max_conditional_pc(), 0x80);
        assert_eq!(cols.conditionals(0).finish(), u64::MAX);
        assert_eq!(shift_taken(0b10, 0), 0b10);
        assert_eq!(shift_taken(0b10, 3), 0b10111);
    }
}
