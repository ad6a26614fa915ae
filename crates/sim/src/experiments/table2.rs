//! Table 2: the unaliased (infinite) predictor.
//!
//! For history lengths of 4 and 12 bits, per benchmark: the substream
//! ratio, the compulsory-aliasing percentage, and the misprediction ratio
//! of 1-bit and 2-bit automatons in an infinite table (first encounters
//! not charged).
//!
//! Every number comes from one batch of the cell pipeline over the six
//! benchmarks under [`NovelPolicy::Exclude`]: per benchmark five `ideal`
//! cells, 1- and 2-bit at each history length plus one at `h=0`, which
//! run as three shared first-use walks: an infinite table hits on every
//! reuse, so each walk only looks its pairs up in a `PairMap` and keeps
//! no stack distance. An infinite table flags
//! exactly the first reference of each `(address, history)` pair novel,
//! so a cell's novel count is its distinct-pair count, and at `h=0` the
//! distinct-address count.

use super::{ExperimentOpts, ExperimentOutput};
use crate::engine::{NovelPolicy, RunResult};
use crate::report::{pct, ratio, Table};
use crate::resume::{self, Unit, Workload};
use bpred_trace::workload::IbsBenchmark;

/// The history lengths of Table 2's two halves.
const HISTORIES: [u32; 2] = [4, 12];

/// One benchmark's Table 2 row for one history length.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Row {
    bench: IbsBenchmark,
    substream_ratio: f64,
    compulsory_pct: f64,
    one_bit_pct: f64,
    two_bit_pct: f64,
}

/// `num / den`, or 0 for an empty denominator.
fn ratio_of(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Each workload's rows, one per entry of [`HISTORIES`], from one batch
/// over every workload: for each history a 1-bit and a 2-bit cell, then
/// the `h=0` cell whose novel count is the distinct-address count.
fn measure(workloads: &[Workload], threads: usize) -> Vec<[Row; 2]> {
    let mut specs: Vec<String> = HISTORIES
        .iter()
        .flat_map(|h| [format!("ideal:h={h},ctr=1"), format!("ideal:h={h}")])
        .collect();
    specs.push("ideal:h=0".to_string());
    let units: Vec<Unit> = specs.into_iter().map(Unit::Spec).collect();
    let results = resume::run_cells(workloads, NovelPolicy::Exclude, &units, threads);
    workloads
        .iter()
        .zip(&results)
        .map(|(&(bench, _), results)| {
            let cell = |i: usize| -> RunResult { results[i][0] };
            let addresses = cell(2 * HISTORIES.len()).novel;
            std::array::from_fn(|k| {
                let (one, two) = (cell(2 * k), cell(2 * k + 1));
                let miss_pct =
                    |r: RunResult| 100.0 * r.mispredicted as f64 / r.conditional.max(1) as f64;
                Row {
                    bench,
                    substream_ratio: ratio_of(two.novel, addresses),
                    compulsory_pct: 100.0 * ratio_of(two.novel, two.conditional),
                    one_bit_pct: miss_pct(one),
                    two_bit_pct: miss_pct(two),
                }
            })
        })
        .collect()
}

pub(super) fn run(opts: &ExperimentOpts) -> ExperimentOutput {
    let per_bench = measure(&opts.workloads(), opts.threads);
    let tables = HISTORIES
        .iter()
        .enumerate()
        .map(|(k, history_bits)| {
            let mut table = Table::with_columns(
                format!("Unaliased predictor, {history_bits}-bit history"),
                &[
                    "benchmark",
                    "substream ratio",
                    "compulsory aliasing %",
                    "mispredict % (1-bit)",
                    "mispredict % (2-bit)",
                ],
            );
            for row in per_bench.iter().map(|rows| rows[k]) {
                table.push_row(vec![
                    row.bench.name().to_string(),
                    ratio(row.substream_ratio),
                    pct(row.compulsory_pct),
                    pct(row.one_bit_pct),
                    pct(row.two_bit_pct),
                ]);
            }
            table
        })
        .collect();
    ExperimentOutput {
        id: "table2",
        title: "Table 2 — unaliased predictor (substream ratio, compulsory aliasing, \
                1-/2-bit misprediction)"
            .into(),
        tables,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::helpers::columns;
    use crate::kernel::reference;
    use bpred_aliasing::substream::SubstreamStats;
    use bpred_core::predictor::Outcome;
    use bpred_trace::record::BranchKind;

    /// The historical measurement, kept as the oracle: one lockstep pass
    /// driving the naive reference models of a 1-bit and a 2-bit `ideal`
    /// table next to a [`SubstreamStats`].
    fn measure_lockstep(bench: IbsBenchmark, history_bits: u32, len: u64) -> Row {
        let mut substreams = SubstreamStats::new(history_bits);
        let mut one = reference::oracle(&format!("ideal:h={history_bits},ctr=1"));
        let mut two = reference::oracle(&format!("ideal:h={history_bits},ctr=2"));
        let mut conditional = 0u64;
        let mut miss1 = 0u64;
        let mut miss2 = 0u64;
        for record in columns(bench, len).records() {
            if record.kind == BranchKind::Conditional {
                conditional += 1;
                let outcome = Outcome::from(record.taken);
                let p1 = one.predict(record.pc);
                if !p1.novel && p1.outcome != outcome {
                    miss1 += 1;
                }
                one.update(record.pc, outcome);
                let p2 = two.predict(record.pc);
                if !p2.novel && p2.outcome != outcome {
                    miss2 += 1;
                }
                two.update(record.pc, outcome);
            } else {
                one.record_unconditional(record.pc);
                two.record_unconditional(record.pc);
            }
            substreams.observe(&record);
        }
        let denom = conditional.max(1) as f64;
        Row {
            bench,
            substream_ratio: substreams.substream_ratio(),
            compulsory_pct: 100.0 * substreams.compulsory_ratio(),
            one_bit_pct: 100.0 * miss1 as f64 / denom,
            two_bit_pct: 100.0 * miss2 as f64 / denom,
        }
    }

    #[test]
    fn cell_rows_equal_the_lockstep_oracle_bit_for_bit() {
        let workloads = [
            (IbsBenchmark::Groff, 40_000),
            (IbsBenchmark::Verilog, 25_000),
        ];
        for (&(bench, len), rows) in workloads.iter().zip(measure(&workloads, 2)) {
            for (row, &history_bits) in rows.iter().zip(&HISTORIES) {
                assert_eq!(
                    *row,
                    measure_lockstep(bench, history_bits, len),
                    "{bench:?} h={history_bits}"
                );
            }
        }
    }

    #[test]
    fn two_bit_beats_one_bit_unaliased() {
        // Table 2's consistent finding.
        let [r, _] = measure(&[(IbsBenchmark::Nroff, 60_000)], 1)[0];
        assert!(
            r.two_bit_pct < r.one_bit_pct,
            "2-bit {} >= 1-bit {}",
            r.two_bit_pct,
            r.one_bit_pct
        );
    }

    #[test]
    fn longer_history_improves_accuracy_and_multiplies_substreams() {
        let [short, long] = measure(&[(IbsBenchmark::Groff, 80_000)], 1)[0];
        assert!(long.two_bit_pct < short.two_bit_pct);
        assert!(long.substream_ratio > short.substream_ratio);
        assert!(long.compulsory_pct > short.compulsory_pct);
    }

    #[test]
    fn output_shape() {
        let out = run(&ExperimentOpts::quick());
        assert_eq!(out.tables.len(), 2);
        assert_eq!(out.tables[0].rows().len(), 6);
    }
}
