//! Table 2: the unaliased (infinite) predictor.
//!
//! For history lengths of 4 and 12 bits, per benchmark: the substream
//! ratio, the compulsory-aliasing percentage, and the misprediction ratio
//! of 1-bit and 2-bit automatons in an infinite table (first encounters
//! not charged).

use super::helpers::records;
use super::{ExperimentOpts, ExperimentOutput};
use crate::report::{pct, ratio, Table};
use crate::runner::parallel_map;
use bpred_aliasing::substream::SubstreamStats;
use bpred_core::counter::CounterKind;
use bpred_core::ideal::Ideal;
use bpred_core::predictor::{BranchPredictor, Outcome};
use bpred_trace::record::BranchKind;
use bpred_trace::workload::IbsBenchmark;

/// One benchmark's Table 2 row for one history length.
struct Row {
    bench: IbsBenchmark,
    substream_ratio: f64,
    compulsory_pct: f64,
    one_bit_pct: f64,
    two_bit_pct: f64,
}

/// Single pass computing all four quantities.
fn measure(bench: IbsBenchmark, history_bits: u32, len: u64) -> Row {
    let mut substreams = SubstreamStats::new(history_bits);
    let mut one = Ideal::new(history_bits, CounterKind::OneBit).expect("valid history");
    let mut two = Ideal::new(history_bits, CounterKind::TwoBit).expect("valid history");
    let mut conditional = 0u64;
    let mut miss1 = 0u64;
    let mut miss2 = 0u64;
    for record in records(bench, len) {
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

fn table_for(history_bits: u32, opts: &ExperimentOpts) -> Table {
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
    let rows = parallel_map(IbsBenchmark::all().to_vec(), opts.threads, |bench| {
        measure(bench, history_bits, opts.len_for(bench))
    });
    for row in rows {
        table.push_row(vec![
            row.bench.name().to_string(),
            ratio(row.substream_ratio),
            pct(row.compulsory_pct),
            pct(row.one_bit_pct),
            pct(row.two_bit_pct),
        ]);
    }
    table
}

pub(super) fn run(opts: &ExperimentOpts) -> ExperimentOutput {
    ExperimentOutput {
        id: "table2",
        title: "Table 2 — unaliased predictor (substream ratio, compulsory aliasing, \
                1-/2-bit misprediction)"
            .into(),
        tables: vec![table_for(4, opts), table_for(12, opts)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_bit_beats_one_bit_unaliased() {
        // Table 2's consistent finding.
        let r = measure(IbsBenchmark::Nroff, 4, 60_000);
        assert!(
            r.two_bit_pct < r.one_bit_pct,
            "2-bit {} >= 1-bit {}",
            r.two_bit_pct,
            r.one_bit_pct
        );
    }

    #[test]
    fn longer_history_improves_accuracy_and_multiplies_substreams() {
        let short = measure(IbsBenchmark::Groff, 4, 80_000);
        let long = measure(IbsBenchmark::Groff, 12, 80_000);
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
