//! The batched three-C decomposition sweep (extension of figures 1–4):
//! compulsory / capacity / conflict aliasing for every table size and
//! both indexed table flavors, produced by the single-pass batched
//! engine instead of one trace walk per configuration.
//!
//! One benchmark costs `sizes × 2` direct-mapped kernel passes plus a
//! *single* shared last-use-distance pass (the fully-associative LRU
//! reference for every capacity at once), all over one cached column
//! view. The conflict tables report the *signed* component — negative
//! slivers mean LRU lost to direct mapping — so each size's three
//! components sum to its total exactly.

use super::helpers::{size_labels, three_c_grid};
use super::{ExperimentOpts, ExperimentOutput};
use crate::report::{pct, Table};
use bpred_aliasing::batch::ThreeCCell;
use bpred_aliasing::three_c::AliasingBreakdown;
use bpred_core::index::IndexFunction;

const SIZES_LOG2: std::ops::RangeInclusive<u32> = 6..=18;
const HISTORY_BITS: u32 = 8;
const FUNCS: [IndexFunction; 2] = [IndexFunction::Gshare, IndexFunction::Gselect];

/// The grid in function-major order: `FUNCS × sizes`. A size's two
/// passes then sit apart in the job list, so the two largest tables are
/// rarely held at once.
fn grid() -> Vec<ThreeCCell> {
    FUNCS
        .into_iter()
        .flat_map(|func| {
            SIZES_LOG2.map(move |n| ThreeCCell {
                entries_log2: n,
                history_bits: HISTORY_BITS,
                func,
            })
        })
        .collect()
}

pub(super) fn run(opts: &ExperimentOpts) -> ExperimentOutput {
    let per_bench: Vec<Vec<AliasingBreakdown>> =
        three_c_grid(&opts.workloads(), &grid(), opts.threads)
            .iter()
            .map(|counts| counts.iter().map(|c| c.breakdown()).collect())
            .collect();
    let labels = size_labels(*SIZES_LOG2.start(), *SIZES_LOG2.end());
    // Function-major grid: gshare at `row`, gselect at `sizes + row`.
    // The compulsory and capacity components come from the shared FA
    // reference, identical for both index functions.
    let table = |title: String, func: usize, value: fn(&AliasingBreakdown) -> f64| {
        Table::per_bench(title, "entries", &labels, |row, b| {
            pct(100.0 * value(&per_bench[b][func * labels.len() + row]))
        })
    };
    let tables = vec![
        table(
            format!("Total aliasing % — gshare index ({HISTORY_BITS}-bit history)"),
            0,
            |b| b.total,
        ),
        table(
            format!("Total aliasing % — gselect index ({HISTORY_BITS}-bit history)"),
            1,
            |b| b.total,
        ),
        table(
            format!("Compulsory aliasing % ({HISTORY_BITS}-bit history)"),
            0,
            |b| b.compulsory,
        ),
        table(
            format!("Capacity aliasing % ({HISTORY_BITS}-bit history)"),
            0,
            |b| b.capacity,
        ),
        table(
            format!("Conflict aliasing %, signed — gshare ({HISTORY_BITS}-bit history)"),
            0,
            |b| b.conflict,
        ),
        table(
            format!("Conflict aliasing %, signed — gselect ({HISTORY_BITS}-bit history)"),
            1,
            |b| b.conflict,
        ),
    ];

    ExperimentOutput {
        id: "three-c",
        title: format!(
            "Three-C decomposition sweep — batched compulsory/capacity/conflict \
             for every table size, {HISTORY_BITS}-bit history"
        ),
        tables,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn components_in_every_rendered_row_sum_to_total() {
        let mut opts = ExperimentOpts::quick();
        opts.len_override = Some(6_000);
        let out = run(&opts);
        assert_eq!(out.tables.len(), 6);
        // Reparse the rendered cells: compulsory + capacity + conflict
        // must telescope back to the total within rendering precision.
        let parse =
            |t: &Table, row: usize, col: usize| -> f64 { t.rows()[row][col].parse().unwrap() };
        let [total_gshare, _, compulsory, capacity, conflict_gshare, _] = &out.tables[..] else {
            panic!("six tables")
        };
        for row in 0..total_gshare.rows().len() {
            for col in 1..total_gshare.columns().len() {
                let sum = parse(compulsory, row, col)
                    + parse(capacity, row, col)
                    + parse(conflict_gshare, row, col);
                let total = parse(total_gshare, row, col);
                assert!(
                    (sum - total).abs() <= 0.02,
                    "row {row} col {col}: {sum} vs {total}"
                );
            }
        }
    }
}
