//! Differential tests for the batched three-C engine: on arbitrary
//! workloads and arbitrary `(size, history, index-fn)` grids, the
//! single-pass batched classification must produce counts bit-identical
//! to the per-configuration `ThreeCClassifier` walking the same records —
//! including the signed-conflict edge where LRU loses to direct mapping.

use gskew::aliasing::batch::{self, ThreeCCell};
use gskew::aliasing::three_c::{ThreeCClassifier, ThreeCCounts};
use gskew::core::index::IndexFunction;
use gskew::sim::kernel;
use gskew::trace::record::{BranchKind, BranchRecord, Privilege};
use gskew::trace::soa::TraceColumns;
use proptest::prelude::*;

/// Branches drawn from a small pc pool so tiny tables actually alias,
/// with a sprinkle of unconditional branches (they advance history but
/// are never classified).
fn arb_record() -> impl Strategy<Value = BranchRecord> {
    (0u64..24, any::<bool>(), 0u8..8).prop_map(|(slot, taken, kind)| BranchRecord {
        pc: 0x1000 + slot * 4,
        kind: if kind == 0 {
            BranchKind::Unconditional
        } else {
            BranchKind::Conditional
        },
        taken: if kind == 0 { true } else { taken },
        privilege: Privilege::User,
    })
}

fn arb_cell() -> impl Strategy<Value = ThreeCCell> {
    (1u32..=8, 0u32..=16, any::<bool>()).prop_map(|(entries_log2, history_bits, gshare)| {
        ThreeCCell {
            entries_log2,
            history_bits,
            func: if gshare {
                IndexFunction::Gshare
            } else {
                IndexFunction::Gselect
            },
        }
    })
}

/// The batched engine: [`kernel::run_three_c_units`] over the grid's
/// direct-mapped cells and FA groups, assembled per cell.
fn run_three_c(cells: &[ThreeCCell], columns: &TraceColumns, threads: usize) -> Vec<ThreeCCounts> {
    let groups = batch::fa_groups(cells);
    let (dm, fa) = kernel::run_three_c_units(cells, &groups, columns, threads);
    let dm: Vec<_> = dm.into_iter().map(|(counts, _)| counts).collect();
    let fa: Vec<_> = fa.into_iter().map(|(counts, _)| counts).collect();
    batch::assemble(cells, &groups, &dm, &fa)
}

fn classify_per_config(cell: &ThreeCCell, records: &[BranchRecord]) -> ThreeCCounts {
    ThreeCClassifier::new(cell.entries_log2, cell.history_bits, cell.func)
        .run_counts(records.iter().copied())
}

proptest! {
    /// The tentpole contract: for any workload and any grid, every
    /// batched cell equals the per-config classifier — in raw integer
    /// counts and in every derived float, bit for bit — regardless of
    /// worker-thread count.
    #[test]
    fn batched_grid_matches_per_config_classifier(
        records in proptest::collection::vec(arb_record(), 0..300),
        cells in proptest::collection::vec(arb_cell(), 1..6),
        threads in 1usize..=4,
    ) {
        let columns = TraceColumns::from_records(&records);
        let batched = run_three_c(&cells, &columns, threads);
        prop_assert_eq!(batched.len(), cells.len());
        for (cell, got) in cells.iter().zip(&batched) {
            let want = classify_per_config(cell, &records);
            prop_assert_eq!(*got, want, "counts diverge for {:?}", cell);
            let (gb, wb) = (got.breakdown(), want.breakdown());
            prop_assert_eq!(gb.total.to_bits(), wb.total.to_bits(), "{:?}", cell);
            prop_assert_eq!(gb.compulsory.to_bits(), wb.compulsory.to_bits(), "{:?}", cell);
            prop_assert_eq!(gb.capacity.to_bits(), wb.capacity.to_bits(), "{:?}", cell);
            prop_assert_eq!(gb.conflict.to_bits(), wb.conflict.to_bits(), "{:?}", cell);
            prop_assert_eq!(
                gb.fully_associative.to_bits(),
                wb.fully_associative.to_bits(),
                "{:?}",
                cell
            );
        }
    }

    /// Duplicate cells in one grid are legal (the resume layer can ask
    /// twice) and must all come back with the same answer.
    #[test]
    fn duplicate_cells_agree(
        records in proptest::collection::vec(arb_record(), 0..200),
        cell in arb_cell(),
    ) {
        let columns = TraceColumns::from_records(&records);
        let cells = [cell, cell, cell];
        let batched = run_three_c(&cells, &columns, 2);
        prop_assert_eq!(batched[0], batched[1]);
        prop_assert_eq!(batched[1], batched[2]);
        prop_assert_eq!(batched[0], classify_per_config(&cell, &records));
    }
}

/// A crafted signed-conflict workload: five addresses cycled through a
/// four-entry table. Direct mapping pins three of them in private
/// entries and only thrashes the fourth, while four-entry LRU sees a
/// cyclic working set of five and misses every single access — so
/// conflict = total − FA is strongly negative, and both engines must
/// agree on it exactly.
#[test]
fn signed_conflict_edge_case_is_preserved() {
    let records: Vec<BranchRecord> = (0..200)
        .map(|i| BranchRecord {
            pc: (i % 5) * 4,
            kind: BranchKind::Conditional,
            taken: true,
            privilege: Privilege::User,
        })
        .collect();
    let cell = ThreeCCell {
        entries_log2: 2,
        history_bits: 0,
        func: IndexFunction::Gshare,
    };
    let columns = TraceColumns::from_records(&records);
    let batched = run_three_c(&[cell], &columns, 1)[0];
    let reference = classify_per_config(&cell, &records);
    assert_eq!(batched, reference);
    // LRU misses everything; DM only thrashes the entry shared by
    // addresses 0 and 4.
    assert_eq!(batched.references, 200);
    assert_eq!(batched.fa_misses, 200);
    assert!(batched.dm_misses < batched.fa_misses);
    let b = batched.breakdown();
    assert!(
        b.conflict < -0.2,
        "expected strongly negative conflict, got {}",
        b.conflict
    );
    // The components are constructed to telescope back to the total; a
    // signed conflict is exactly what keeps the identity intact here.
    let sum = b.compulsory + b.capacity + b.conflict;
    assert!((sum - b.total).abs() < 1e-12, "{sum} vs {}", b.total);
}
