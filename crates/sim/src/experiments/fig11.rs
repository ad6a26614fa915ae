//! Figure 11: extrapolated (analytical) vs measured misprediction of the
//! skewed predictor — 1-bit automatons, total update, 4-bit history —
//! across bank sizes.
//!
//! The model is expected to slightly *over*-estimate the measured rate
//! (constructive aliasing is not modeled).

use super::helpers::columns;
use super::{ExperimentOpts, ExperimentOutput};
use crate::engine::NovelPolicy;
use crate::report::{pct, Table};
use crate::resume::{self, Unit};
use crate::runner::parallel_map;
use bpred_model::extrapolate::extrapolate_sizes;
use bpred_trace::workload::IbsBenchmark;

const BANK_LOG2: std::ops::RangeInclusive<u32> = 6..=14;
const HISTORY: u32 = 4;

#[derive(Debug, Clone, Copy)]
struct Cell {
    extrapolated: f64,
    measured: f64,
}

/// Every bank size of one benchmark: one extrapolation walk serving all
/// sizes, then the simulated cells as one batch of the results-store
/// pipeline (keyed exactly as [`super::helpers::sim_pct`] keys them).
fn measure(bench: IbsBenchmark, len: u64, banks_log2: &[u32], threads: usize) -> Vec<Cell> {
    let trace = columns(bench, len);
    let sizes: Vec<u64> = banks_log2.iter().map(|&n| 1u64 << n).collect();
    let extrapolations = extrapolate_sizes(&sizes, HISTORY, trace.records(), trace.records());
    let units: Vec<Unit> = banks_log2
        .iter()
        .map(|n| Unit::Spec(format!("gskew:n={n},h={HISTORY},ctr=1,update=total")))
        .collect();
    let measured = resume::run_cells(bench, len, NovelPolicy::Count, &units, threads);
    extrapolations
        .iter()
        .zip(&measured)
        .map(|(extrapolation, results)| Cell {
            extrapolated: 100.0 * extrapolation.extrapolated_rate,
            measured: results[0].mispredict_pct(),
        })
        .collect()
}

pub(super) fn run(opts: &ExperimentOpts) -> ExperimentOutput {
    let banks: Vec<u32> = BANK_LOG2.collect();
    // One task per benchmark: its trace walk serves every bank size.
    let inner_threads = (opts.threads / IbsBenchmark::all().len()).max(1);
    let per_bench = parallel_map(IbsBenchmark::all().to_vec(), opts.threads, |bench| {
        measure(bench, opts.len_for(bench), &banks, inner_threads)
    });

    let mut columns = vec!["bank entries".to_string()];
    columns.extend(IbsBenchmark::all().iter().map(|b| b.name().to_string()));
    let mut extrapolated = Table::new(
        "Extrapolated mispredict % (model: 1-bit, total update, h=4)",
        columns.clone(),
    );
    let mut measured = Table::new(
        "Measured mispredict % (simulated 3-bank gskew: 1-bit, total update, h=4)",
        columns,
    );
    for (i, &n) in banks.iter().enumerate() {
        let label = format!("3x{}", 1u64 << n);
        extrapolated.push_row(
            std::iter::once(label.clone())
                .chain(per_bench.iter().map(|cells| pct(cells[i].extrapolated)))
                .collect(),
        );
        measured.push_row(
            std::iter::once(label)
                .chain(per_bench.iter().map(|cells| pct(cells[i].measured)))
                .collect(),
        );
    }
    ExperimentOutput {
        id: "fig11",
        title: "Figure 11 — extrapolated vs measured gskew misprediction".into(),
        tables: vec![extrapolated, measured],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_tracks_simulation() {
        let c = measure(IbsBenchmark::Verilog, 60_000, &[10], 1)[0];
        // Same ballpark...
        assert!(
            (c.extrapolated - c.measured).abs() < c.measured.max(2.0),
            "extrapolated {} vs measured {}",
            c.extrapolated,
            c.measured
        );
        // ...and the paper notes the model overestimates slightly; allow
        // a little slack for workload noise.
        assert!(
            c.extrapolated > c.measured - 1.0,
            "extrapolated {} unexpectedly far below measured {}",
            c.extrapolated,
            c.measured
        );
    }

    #[test]
    fn output_shape() {
        let mut opts = ExperimentOpts::quick();
        opts.len_override = Some(15_000);
        let out = run(&opts);
        assert_eq!(out.tables.len(), 2);
        assert_eq!(out.tables[0].rows().len(), 9);
    }
}
