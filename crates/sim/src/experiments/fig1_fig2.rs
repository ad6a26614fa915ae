//! Figures 1 and 2: miss percentages in tables tagged with
//! `(address, history)` pairs, for 4-bit (fig 1) and 12-bit (fig 2)
//! histories.
//!
//! Three structures are referenced per table size: direct-mapped with
//! the *gshare* index, direct-mapped with the *gselect* index, and
//! fully-associative LRU. The FA curve is compulsory + capacity
//! aliasing; DM minus FA is conflict aliasing. The measurement rides the
//! batched three-C engine: per benchmark, one direct-mapped kernel pass
//! per (size, index-fn) cell and a *single* shared last-use-distance
//! pass covering every FA capacity — bit-identical to the historical
//! per-configuration lockstep walk, at a fraction of the trace
//! traversals.

use super::helpers::{size_labels, three_c_grid};
use super::{ExperimentOpts, ExperimentOutput};
use crate::report::{pct, Table};
use bpred_aliasing::batch::ThreeCCell;
use bpred_aliasing::three_c::ThreeCCounts;
use bpred_core::index::IndexFunction;

const SIZES_LOG2: std::ops::RangeInclusive<u32> = 6..=18;

#[derive(Debug, Clone, Copy)]
struct Cell {
    gshare: f64,
    gselect: f64,
    fully_assoc: f64,
    /// Capacity aliasing alone: FA misses minus compulsory (first-use)
    /// misses.
    capacity: f64,
}

/// The per-benchmark grid in function-major order: `{gshare, gselect} ×
/// sizes`. A size's two passes then sit apart in the job list, so the
/// two largest tables are rarely held at once.
fn grid(history_bits: u32) -> Vec<ThreeCCell> {
    [IndexFunction::Gshare, IndexFunction::Gselect]
        .into_iter()
        .flat_map(|func| {
            SIZES_LOG2.map(move |n| ThreeCCell {
                entries_log2: n,
                history_bits,
                func,
            })
        })
        .collect()
}

/// Derive one size's rendered cell from its two grid counts. The float
/// expressions mirror the historical per-configuration measurement
/// (`miss_ratio()` guards and the `max(1)` capacity denominator
/// included) so the rendered tables are byte-identical across engines.
fn derive(gshare: &ThreeCCounts, gselect: &ThreeCCounts) -> Cell {
    let ratio = |misses: u64, refs: u64| {
        if refs == 0 {
            0.0
        } else {
            misses as f64 / refs as f64
        }
    };
    let n = gshare.references.max(1) as f64;
    Cell {
        gshare: 100.0 * ratio(gshare.dm_misses, gshare.references),
        gselect: 100.0 * ratio(gselect.dm_misses, gselect.references),
        fully_assoc: 100.0 * ratio(gshare.fa_misses, gshare.references),
        capacity: 100.0 * (gshare.fa_misses - gshare.cold_misses) as f64 / n,
    }
}

pub(super) fn run(opts: &ExperimentOpts, history_bits: u32, id: &'static str) -> ExperimentOutput {
    let per_bench: Vec<Vec<Cell>> =
        three_c_grid(&opts.workloads(), &grid(history_bits), opts.threads)
            .iter()
            .map(|counts| {
                let (gshare, gselect) = counts.split_at(counts.len() / 2);
                gshare
                    .iter()
                    .zip(gselect)
                    .map(|(g, s)| derive(g, s))
                    .collect()
            })
            .collect();
    let labels = size_labels(*SIZES_LOG2.start(), *SIZES_LOG2.end());
    let table = |title: String, value: fn(&Cell) -> f64| {
        Table::per_bench(title, "entries", &labels, |row, b| {
            pct(value(&per_bench[b][row]))
        })
    };
    let tables = vec![
        table(
            format!("Miss % — direct-mapped, gshare index ({history_bits}-bit history)"),
            |c| c.gshare,
        ),
        table(
            format!("Miss % — direct-mapped, gselect index ({history_bits}-bit history)"),
            |c| c.gselect,
        ),
        table(
            format!("Miss % — fully-associative LRU ({history_bits}-bit history)"),
            |c| c.fully_assoc,
        ),
        table(
            format!("Conflict aliasing % — gshare DM minus FA ({history_bits}-bit history)"),
            |c| (c.gshare - c.fully_assoc).max(0.0),
        ),
        table(
            format!("Capacity aliasing % — FA minus compulsory ({history_bits}-bit history)"),
            |c| c.capacity,
        ),
    ];

    ExperimentOutput {
        id,
        title: format!(
            "Figure {} — miss percentages in (address, history)-tagged tables, \
             {history_bits}-bit history",
            if history_bits == 4 { 1 } else { 2 }
        ),
        tables,
    }
}

#[cfg(test)]
mod tests {
    use super::super::helpers::records;
    use super::*;
    use bpred_aliasing::cursor::PairCursor;
    use bpred_aliasing::fully_assoc::TaggedFullyAssociative;
    use bpred_aliasing::tagged::TaggedDirectMapped;
    use bpred_trace::record::BranchKind;
    use bpred_trace::workload::IbsBenchmark;

    /// The historical per-configuration measurement: three structures in
    /// lock step over one stream. Kept as the test oracle for the batched
    /// path.
    fn measure_lockstep(
        bench: IbsBenchmark,
        entries_log2: u32,
        history_bits: u32,
        len: u64,
    ) -> Cell {
        let mut cursor = PairCursor::new(history_bits);
        let mut dm_gshare = TaggedDirectMapped::new(entries_log2, IndexFunction::Gshare);
        let mut dm_gselect = TaggedDirectMapped::new(entries_log2, IndexFunction::Gselect);
        let mut fa = TaggedFullyAssociative::new(1 << entries_log2);
        for record in records(bench, len) {
            if record.kind == BranchKind::Conditional {
                let v = cursor.vector(record.pc);
                dm_gshare.access(&v);
                dm_gselect.access(&v);
                fa.access(v.pair());
            }
            cursor.advance(&record);
        }
        let n = fa.accesses().max(1) as f64;
        Cell {
            gshare: 100.0 * dm_gshare.miss_ratio(),
            gselect: 100.0 * dm_gselect.miss_ratio(),
            fully_assoc: 100.0 * fa.miss_ratio(),
            capacity: 100.0 * fa.capacity_misses() as f64 / n,
        }
    }

    fn measure_batched(
        bench: IbsBenchmark,
        entries_log2: u32,
        history_bits: u32,
        len: u64,
    ) -> Cell {
        let cells: Vec<ThreeCCell> = [IndexFunction::Gshare, IndexFunction::Gselect]
            .iter()
            .map(|&func| ThreeCCell {
                entries_log2,
                history_bits,
                func,
            })
            .collect();
        let counts = &three_c_grid(&[(bench, len)], &cells, 1)[0];
        derive(&counts[0], &counts[1])
    }

    #[test]
    fn batched_cells_equal_the_lockstep_oracle_bit_for_bit() {
        for (n, h) in [(7u32, 4u32), (10, 4), (8, 12)] {
            let oracle = measure_lockstep(IbsBenchmark::Groff, n, h, 30_000);
            let batched = measure_batched(IbsBenchmark::Groff, n, h, 30_000);
            assert_eq!(
                oracle.gshare.to_bits(),
                batched.gshare.to_bits(),
                "n={n} h={h}"
            );
            assert_eq!(
                oracle.gselect.to_bits(),
                batched.gselect.to_bits(),
                "n={n} h={h}"
            );
            assert_eq!(
                oracle.fully_assoc.to_bits(),
                batched.fully_assoc.to_bits(),
                "n={n} h={h}"
            );
            assert_eq!(
                oracle.capacity.to_bits(),
                batched.capacity.to_bits(),
                "n={n} h={h}"
            );
        }
    }

    #[test]
    fn fa_not_worse_than_dm_and_shrinks_with_size() {
        let len = 60_000;
        let small = measure_batched(IbsBenchmark::Groff, 7, 4, len);
        let large = measure_batched(IbsBenchmark::Groff, 12, 4, len);
        assert!(small.fully_assoc <= small.gshare + 0.5);
        assert!(large.fully_assoc < small.fully_assoc);
        assert!(large.gshare < small.gshare);
    }

    #[test]
    fn conflict_dominates_capacity_at_large_sizes() {
        // The headline of figure 1: by 4K entries capacity aliasing nearly
        // vanishes (compulsory aside) and conflicts dominate what remains.
        let c = measure_batched(IbsBenchmark::Gs, 12, 4, 200_000);
        let conflict = (c.gshare - c.fully_assoc).max(0.0);
        assert!(
            conflict > c.capacity,
            "conflict {conflict} <= capacity {}",
            c.capacity
        );
    }
}
