//! Single-pass batched three-C classification over a column-view trace.
//!
//! The per-configuration path ([`crate::three_c::ThreeCClassifier`])
//! walks the whole trace once per `(size, index function)` cell — a
//! direct-mapped tagged table and a fully-associative LRU table in lock
//! step — which makes grid sweeps the most expensive measurement in the
//! repo. This module decomposes one cell into two independent passes
//! that batch across the grid:
//!
//! * [`dm_pass`] — the direct-mapped tagged table as a monomorphized
//!   kernel over [`TraceColumns`]: a flat tag array (cold entries encoded
//!   by a sentinel, so the hot loop compares one tag instead of
//!   unwrapping an `Option`; the `(address, history)` pair is packed into
//!   one `u64` whenever the trace's addresses leave room for it, which
//!   halves the table) and an inlined history register, with the index
//!   function pinned outside the loop exactly like the predictor kernels
//!   in `bpred-sim`.
//! * [`fa_pass`] — *every* fully-associative LRU capacity from one
//!   last-use-distance computation: a reference with stack distance `d`
//!   hits an `N`-entry LRU table iff `d < N`, so a single
//!   [`LastUseDistance`] walk plus a [`CapacitySweep`] yields the exact
//!   miss and cold-miss counts for all table sizes at once. The pass is
//!   keyed by history length only — cells that share a history share the
//!   FA reference regardless of index function, since the FA table never
//!   indexes.
//!
//! The contract is **bit identity**: assembled [`ThreeCCounts`] equal the
//! classifier's counts integer for integer, and both derive their ratio
//! breakdowns through the same [`ThreeCCounts::breakdown`] code, so every
//! downstream `f64` matches bit for bit. The equivalence is pinned by the
//! differential proptest suite (`tests/aliasing_equiv.rs`) and by the
//! naive-LRU reference model test.

use crate::distance::CapacitySweep;
use crate::three_c::ThreeCCounts;
use bpred_core::index::IndexFunction;
use bpred_core::lru::LastUseDistance;
use bpred_core::vector::InfoVector;
use bpred_trace::soa::TraceColumns;

/// One cell of a batched three-C grid: a `2^entries_log2`-entry table
/// indexed by `func` under `history_bits` of global history.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ThreeCCell {
    /// Table size as a power of two (1..=30, as for
    /// [`crate::tagged::TaggedDirectMapped`]).
    pub entries_log2: u32,
    /// Global history length in bits (at most 64).
    pub history_bits: u32,
    /// The direct-mapped table's index function.
    pub func: IndexFunction,
}

impl ThreeCCell {
    /// The table capacity in entries.
    pub fn capacity(&self) -> u64 {
        1u64 << self.entries_log2
    }
}

/// Tallies of one direct-mapped tagged pass ([`dm_pass`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DmCounts {
    /// Conditional references classified.
    pub references: u64,
    /// Aliasing occurrences (stored pair differed or entry was cold).
    pub misses: u64,
    /// Misses that filled a cold entry.
    pub cold_misses: u64,
}

/// Tallies of one shared-distance fully-associative pass ([`fa_pass`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaCounts {
    /// Conditional references classified.
    pub references: u64,
    /// First-ever pair references — the compulsory misses, identical for
    /// every capacity.
    pub cold_misses: u64,
    /// Total LRU misses per capacity, parallel to the capacity list the
    /// pass was given.
    pub misses: Vec<u64>,
}

/// Cold tag sentinel: real addresses are `pc >> 2`, so `u64::MAX` can
/// never collide with a stored pair.
const COLD: (u64, u64) = (u64::MAX, 0);

#[inline(always)]
fn hist_mask(bits: u32) -> u64 {
    if bits == 0 {
        0
    } else if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// Walk `cols` once through a direct-mapped tagged table.
///
/// Bit-identical to driving [`crate::tagged::TaggedDirectMapped`] behind
/// a [`crate::cursor::PairCursor`] over the same records: identical
/// index computation ([`IndexFunction::index`]), identical pair identity
/// check, identical history update (unconditional branches shift in as
/// taken).
///
/// # Panics
///
/// Panics if `entries_log2` is outside `1..=30` or `history_bits`
/// exceeds 64.
pub fn dm_pass(
    cols: &TraceColumns,
    entries_log2: u32,
    history_bits: u32,
    func: IndexFunction,
) -> DmCounts {
    assert!(
        entries_log2 > 0 && entries_log2 <= 30,
        "entries_log2 {entries_log2} out of 1..=30"
    );
    assert!(history_bits <= 64, "history_bits {history_bits} above 64");
    // Pin the index-function variant outside the loop so the match inside
    // `IndexFunction::index` const-folds per monomorphized copy.
    match func {
        IndexFunction::Bimodal => drive_dm(cols, entries_log2, history_bits, |v, n| {
            IndexFunction::Bimodal.index(v, n)
        }),
        IndexFunction::Gshare => drive_dm(cols, entries_log2, history_bits, |v, n| {
            IndexFunction::Gshare.index(v, n)
        }),
        IndexFunction::Gselect => drive_dm(cols, entries_log2, history_bits, |v, n| {
            IndexFunction::Gselect.index(v, n)
        }),
    }
}

/// A direct-mapped table entry: the identity of the `(address, history)`
/// pair that last filled it.
trait Tag: Copy + PartialEq {
    /// The entry no pair has filled yet; equal to no pair's tag.
    const COLD: Self;
    fn of(v: &InfoVector) -> Self;
}

impl Tag for (u64, u64) {
    const COLD: Self = COLD;
    #[inline(always)]
    fn of(v: &InfoVector) -> Self {
        v.pair()
    }
}

/// The pair packed as `address << history_bits | history`, which is
/// exact, and never [`u64::MAX`], while [`packs`] holds.
impl Tag for u64 {
    const COLD: Self = u64::MAX;
    #[inline(always)]
    fn of(v: &InfoVector) -> Self {
        (v.addr() << v.hist_bits()) | v.hist()
    }
}

/// Whether every pair of `cols` under `history_bits` packs into a `u64`
/// tag: each address must stay below `u64::MAX >> history_bits`.
fn packs(cols: &TraceColumns, history_bits: u32) -> bool {
    let max_addr = cols.max_conditional_pc() >> 2;
    history_bits < 64 && max_addr < u64::MAX >> history_bits
}

/// Run the pass over `u64` tags when the pairs pack (half the table's
/// bytes, so half the memory traffic and resident pages of a large
/// table), else over full pairs.
#[inline(always)]
fn drive_dm(
    cols: &TraceColumns,
    entries_log2: u32,
    history_bits: u32,
    index: impl Fn(&InfoVector, u32) -> u64,
) -> DmCounts {
    if packs(cols, history_bits) {
        drive_dm_tags::<u64>(cols, entries_log2, history_bits, index)
    } else {
        drive_dm_tags::<(u64, u64)>(cols, entries_log2, history_bits, index)
    }
}

#[inline(always)]
fn drive_dm_tags<T: Tag>(
    cols: &TraceColumns,
    entries_log2: u32,
    history_bits: u32,
    index: impl Fn(&InfoVector, u32) -> u64,
) -> DmCounts {
    let mut tags: Vec<T> = vec![T::COLD; 1usize << entries_log2];
    let tmask = tags.len() - 1;
    let mut counts = DmCounts {
        references: cols.conditional_count(),
        ..DmCounts::default()
    };
    cols.conditionals(0).for_each_record(|pc, _, hist| {
        // `InfoVector::new` masks the raw history to `history_bits`.
        let v = InfoVector::new(pc, hist, history_bits);
        // The extra mask is value-neutral (the index is already
        // `entries_log2` bits) but lets the compiler drop the bounds
        // check.
        let idx = index(&v, entries_log2) as usize & tmask;
        let tag = T::of(&v);
        let stored = tags[idx];
        if stored != tag {
            counts.misses += 1;
            counts.cold_misses += u64::from(stored == T::COLD);
            tags[idx] = tag;
        }
    });
    counts
}

/// Walk `cols` once and count fully-associative LRU misses for *every*
/// capacity in `capacities` (strictly increasing, nonzero), under
/// `history_bits` of global history.
///
/// Bit-identical to driving one [`crate::fully_assoc::TaggedFullyAssociative`]
/// per capacity over the same records: LRU stack inclusion makes
/// "distance < capacity" exactly the hit predicate, and first uses are
/// the cold misses.
///
/// # Panics
///
/// Panics if `history_bits` exceeds 64, or on an invalid capacity list
/// (see [`CapacitySweep::new`]).
pub fn fa_pass(cols: &TraceColumns, history_bits: u32, capacities: &[u64]) -> FaCounts {
    assert!(history_bits <= 64, "history_bits {history_bits} above 64");
    let mut lud = LastUseDistance::new();
    let mut sweep = CapacitySweep::new(capacities);
    let hmask = hist_mask(history_bits);
    cols.conditionals(0).for_each_record(|pc, _, hist| {
        sweep.observe(lud.observe((pc >> 2, hist & hmask)));
    });
    FaCounts {
        references: sweep.references(),
        cold_misses: sweep.first_uses(),
        misses: sweep.misses(),
    }
}

/// Classify every cell of a grid in one logical pass over `cols`,
/// sequentially: one [`dm_pass`] per cell plus one [`fa_pass`] per
/// distinct history length, assembled into per-cell [`ThreeCCounts`].
/// (The parallel fan-out lives in `bpred-sim`'s kernel layer; this
/// sequential form is the semantic reference and the convenient entry
/// point for tests.)
pub fn run_cells(cells: &[ThreeCCell], cols: &TraceColumns) -> Vec<ThreeCCounts> {
    let groups = fa_groups(cells);
    let fa: Vec<FaCounts> = groups
        .iter()
        .map(|(h, caps)| fa_pass(cols, *h, caps))
        .collect();
    let dm: Vec<DmCounts> = cells
        .iter()
        .map(|c| dm_pass(cols, c.entries_log2, c.history_bits, c.func))
        .collect();
    assemble(cells, &groups, &dm, &fa)
}

/// Group a cell grid's fully-associative work: one entry per distinct
/// history length, carrying the strictly increasing list of distinct
/// capacities requested under that history. Order follows first
/// appearance in `cells`.
pub fn fa_groups(cells: &[ThreeCCell]) -> Vec<(u32, Vec<u64>)> {
    let mut groups: Vec<(u32, Vec<u64>)> = Vec::new();
    for cell in cells {
        let cap = cell.capacity();
        match groups.iter_mut().find(|(h, _)| *h == cell.history_bits) {
            Some((_, caps)) => {
                if let Err(at) = caps.binary_search(&cap) {
                    caps.insert(at, cap);
                }
            }
            None => groups.push((cell.history_bits, vec![cap])),
        }
    }
    groups
}

/// Assemble per-cell counts from per-cell direct-mapped tallies (`dm`,
/// parallel to `cells`) and per-group fully-associative tallies (`fa`,
/// parallel to `groups` from [`fa_groups`]).
///
/// # Panics
///
/// Panics if a cell's history/capacity is missing from the groups, or if
/// the two passes disagree on the reference count — both would mean the
/// passes ran over different traces.
pub fn assemble(
    cells: &[ThreeCCell],
    groups: &[(u32, Vec<u64>)],
    dm: &[DmCounts],
    fa: &[FaCounts],
) -> Vec<ThreeCCounts> {
    cells
        .iter()
        .zip(dm)
        .map(|(cell, d)| {
            let g = groups
                .iter()
                .position(|(h, _)| *h == cell.history_bits)
                .expect("cell history missing from fa groups");
            let caps = &groups[g].1;
            let j = caps
                .binary_search(&cell.capacity())
                .expect("cell capacity missing from fa group");
            let f = &fa[g];
            assert_eq!(
                d.references, f.references,
                "dm and fa passes saw different traces"
            );
            ThreeCCounts {
                references: d.references,
                dm_misses: d.misses,
                fa_misses: f.misses[j],
                cold_misses: f.cold_misses,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::three_c::ThreeCClassifier;
    use bpred_trace::prelude::*;
    use bpred_trace::record::BranchRecord;

    fn grid() -> Vec<ThreeCCell> {
        let mut cells = Vec::new();
        for &func in &[IndexFunction::Gshare, IndexFunction::Gselect] {
            for n in [4u32, 6, 8] {
                for h in [0u32, 4, 12] {
                    cells.push(ThreeCCell {
                        entries_log2: n,
                        history_bits: h,
                        func,
                    });
                }
            }
        }
        cells
    }

    #[test]
    fn batched_counts_match_the_classifier() {
        let records: Vec<BranchRecord> = IbsBenchmark::Groff.spec().build().take(20_000).collect();
        let cols = TraceColumns::from_records(&records);
        let cells = grid();
        let batched = run_cells(&cells, &cols);
        for (cell, counts) in cells.iter().zip(&batched) {
            let reference = ThreeCClassifier::new(cell.entries_log2, cell.history_bits, cell.func)
                .run_counts(records.iter().copied());
            assert_eq!(*counts, reference, "{cell:?}");
        }
    }

    #[test]
    fn fa_pass_is_shared_across_index_functions() {
        // Two cells differing only in index function must read the same
        // FA tallies — the fa grouping keys on history alone.
        let cells = [
            ThreeCCell {
                entries_log2: 6,
                history_bits: 4,
                func: IndexFunction::Gshare,
            },
            ThreeCCell {
                entries_log2: 6,
                history_bits: 4,
                func: IndexFunction::Gselect,
            },
        ];
        let groups = fa_groups(&cells);
        assert_eq!(groups, vec![(4, vec![64])]);
        let records: Vec<BranchRecord> = IbsBenchmark::Gs.spec().build().take(5_000).collect();
        let cols = TraceColumns::from_records(&records);
        let counts = run_cells(&cells, &cols);
        assert_eq!(counts[0].fa_misses, counts[1].fa_misses);
        assert_eq!(counts[0].cold_misses, counts[1].cold_misses);
    }

    #[test]
    fn fa_groups_deduplicate_and_sort_capacities() {
        let cells = [
            ThreeCCell {
                entries_log2: 8,
                history_bits: 4,
                func: IndexFunction::Gshare,
            },
            ThreeCCell {
                entries_log2: 4,
                history_bits: 4,
                func: IndexFunction::Gselect,
            },
            ThreeCCell {
                entries_log2: 8,
                history_bits: 4,
                func: IndexFunction::Gselect,
            },
            ThreeCCell {
                entries_log2: 6,
                history_bits: 12,
                func: IndexFunction::Gshare,
            },
        ];
        assert_eq!(fa_groups(&cells), vec![(4, vec![16, 256]), (12, vec![64])]);
    }

    #[test]
    fn empty_trace_yields_zero_counts() {
        let cols = TraceColumns::from_records(&[]);
        let cells = [ThreeCCell {
            entries_log2: 6,
            history_bits: 4,
            func: IndexFunction::Gshare,
        }];
        let counts = run_cells(&cells, &cols);
        assert_eq!(counts[0], ThreeCCounts::default());
        assert_eq!(counts[0].breakdown().references, 0);
    }

    #[test]
    fn unconditional_branches_shift_history_as_taken() {
        // A trace where history correctness matters: identical pcs, but
        // the interleaved unconditional branch changes every subsequent
        // pair. Classifier and batch must agree record for record.
        let records = vec![
            BranchRecord::conditional(0x100, false),
            BranchRecord::unconditional(0x104),
            BranchRecord::conditional(0x100, true),
            BranchRecord::conditional(0x100, false),
            BranchRecord::conditional(0x100, true),
        ];
        let cols = TraceColumns::from_records(&records);
        for h in [0u32, 2, 4, 64] {
            let cell = ThreeCCell {
                entries_log2: 4,
                history_bits: h,
                func: IndexFunction::Gshare,
            };
            let batched = run_cells(&[cell], &cols);
            let reference = ThreeCClassifier::new(4, h, IndexFunction::Gshare)
                .run_counts(records.iter().copied());
            assert_eq!(batched[0], reference, "h={h}");
        }
    }

    #[test]
    fn packed_and_full_tags_count_alike() {
        let records: Vec<BranchRecord> = IbsBenchmark::Groff.spec().build().take(20_000).collect();
        let cols = TraceColumns::from_records(&records);
        for h in [0u32, 4, 12, 24] {
            assert!(packs(&cols, h), "h={h}");
            for n in [4u32, 10, 16] {
                let gshare = |v: &InfoVector, n| IndexFunction::Gshare.index(v, n);
                assert_eq!(
                    drive_dm_tags::<u64>(&cols, n, h, gshare),
                    drive_dm_tags::<(u64, u64)>(&cols, n, h, gshare),
                    "n={n} h={h}"
                );
            }
        }
    }

    #[test]
    fn addresses_at_the_packing_limit_match_the_classifier() {
        // With 4 history bits an address packs while it stays below
        // `u64::MAX >> 4`. Two branches whose addresses differ only in
        // their top bits share every index; the pass must still tell
        // them apart, at the limit (packed) and past it (full pairs).
        let limit = u64::MAX >> 4;
        for (top, packed) in [(limit - 1, true), (limit, false)] {
            let low = top & 0xff;
            let mut records = Vec::new();
            for i in 0..64u64 {
                records.push(BranchRecord::conditional(top << 2, i % 3 != 0));
                records.push(BranchRecord::conditional(low << 2, i % 5 != 0));
                records.push(BranchRecord::conditional(low << 2, true));
            }
            let cols = TraceColumns::from_records(&records);
            assert_eq!(packs(&cols, 4), packed, "top address {top:#x}");
            for func in [IndexFunction::Gshare, IndexFunction::Gselect] {
                let counts = dm_pass(&cols, 4, 4, func);
                let reference =
                    ThreeCClassifier::new(4, 4, func).run_counts(records.iter().copied());
                assert_eq!(counts.references, reference.references);
                assert_eq!(counts.misses, reference.dm_misses, "{func} {top:#x}");
                assert!(counts.misses > counts.cold_misses, "the branches conflict");
            }
        }
        assert!(!packs(&TraceColumns::from_records(&[]), 64));
    }
}
