//! Converts a trace into the `(address, history)` pair references that
//! the aliasing instruments consume: from trace columns
//! ([`for_each_vector`]) or from a record stream ([`PairCursor`]).

use bpred_core::table::History;
use bpred_core::vector::InfoVector;
use bpred_trace::record::{BranchKind, BranchRecord};
use bpred_trace::soa::TraceColumns;

/// Hand every conditional record of `cols`, in order, to `f(vector,
/// taken)`: its information vector under `history_bits` of global
/// history, and its outcome. The vectors are the ones a [`PairCursor`]
/// forms over the same records, read from the history the columns'
/// cursor ([`TraceColumns::conditionals`]) hands over.
#[inline]
pub fn for_each_vector(
    cols: &TraceColumns,
    history_bits: u32,
    mut f: impl FnMut(InfoVector, bool),
) {
    let mut history = History::new(history_bits);
    let mask = history.mask();
    cols.conditionals(0).for_each_record(|pc, taken, global| {
        history.load(global, mask);
        f(history.vector(pc), taken);
    });
}

/// Tracks global history over a record stream and forms the
/// `(address, history)` pair for each conditional branch, exactly as a
/// global-history predictor would see it (unconditional branches shift in
/// as taken).
///
/// ```
/// use bpred_aliasing::cursor::PairCursor;
/// use bpred_trace::record::BranchRecord;
///
/// let mut cursor = PairCursor::new(4);
/// let r = BranchRecord::conditional(0x1000, true);
/// let pair = cursor.pair(r.pc);
/// cursor.advance(&r);
/// assert_eq!(pair, (0x1000 >> 2, 0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairCursor {
    history: History,
}

impl PairCursor {
    /// A cursor tracking `history_bits` of global history.
    pub fn new(history_bits: u32) -> Self {
        PairCursor {
            history: History::new(history_bits),
        }
    }

    /// The `(address, history)` pair a lookup at `pc` would reference
    /// right now.
    #[inline]
    pub fn pair(&self, pc: u64) -> (u64, u64) {
        self.history.vector(pc).pair()
    }

    /// The packed information vector for `pc` (for skew-indexed analyses).
    #[inline]
    pub fn vector(&self, pc: u64) -> InfoVector {
        self.history.vector(pc)
    }

    /// Account a record into the history register.
    #[inline]
    pub fn advance(&mut self, record: &BranchRecord) {
        let taken = record.kind != BranchKind::Conditional || record.taken;
        self.history.push(taken, self.history.mask());
    }

    /// History length in bits.
    pub fn history_bits(&self) -> u32 {
        self.history.bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_tracks_conditionals_and_unconditionals() {
        let mut c = PairCursor::new(3);
        c.advance(&BranchRecord::conditional(0x100, false));
        c.advance(&BranchRecord::unconditional(0x104)); // shifts taken
        c.advance(&BranchRecord::conditional(0x108, true));
        assert_eq!(c.pair(0x200).1, 0b011);
    }

    #[test]
    fn zero_history_pairs_are_address_only() {
        let mut c = PairCursor::new(0);
        c.advance(&BranchRecord::conditional(0x100, true));
        assert_eq!(c.pair(0x100), (0x100 >> 2, 0));
    }

    #[test]
    fn pair_truncates_history_to_length() {
        let mut c = PairCursor::new(2);
        for _ in 0..5 {
            c.advance(&BranchRecord::conditional(0x100, true));
        }
        assert_eq!(c.pair(0x100).1, 0b11);
    }
}
