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
use crate::resume::{self, Unit, Workload};
use crate::runner::parallel_map;
use bpred_model::extrapolate::extrapolate_sizes;

const BANK_LOG2: std::ops::RangeInclusive<u32> = 6..=14;
const HISTORY: u32 = 4;

#[derive(Debug, Clone, Copy)]
struct Cell {
    extrapolated: f64,
    measured: f64,
}

/// Every bank size of every workload: per workload, one extrapolation
/// walk serving all sizes (the walks run in parallel), then the simulated
/// cells as one batch of the cell pipeline over every workload (keyed
/// exactly as [`super::helpers::sim_pct`] keys them).
fn measure(workloads: &[Workload], banks_log2: &[u32], threads: usize) -> Vec<Vec<Cell>> {
    let sizes: Vec<u64> = banks_log2.iter().map(|&n| 1u64 << n).collect();
    let extrapolations = parallel_map(workloads.to_vec(), threads, |(bench, len)| {
        extrapolate_sizes(&sizes, HISTORY, &columns(bench, len))
    });
    let units: Vec<Unit> = banks_log2
        .iter()
        .map(|n| Unit::Spec(format!("gskew:n={n},h={HISTORY},ctr=1,update=total")))
        .collect();
    let measured = resume::run_cells(workloads, NovelPolicy::Count, &units, threads);
    extrapolations
        .iter()
        .zip(&measured)
        .map(|(extrapolations, measured)| {
            let cells = extrapolations.iter().zip(measured);
            cells
                .map(|(extrapolation, results)| Cell {
                    extrapolated: 100.0 * extrapolation.extrapolated_rate,
                    measured: results[0].mispredict_pct(),
                })
                .collect()
        })
        .collect()
}

pub(super) fn run(opts: &ExperimentOpts) -> ExperimentOutput {
    let banks: Vec<u32> = BANK_LOG2.collect();
    let per_bench = measure(&opts.workloads(), &banks, opts.threads);
    let labels: Vec<String> = banks.iter().map(|n| format!("3x{}", 1u64 << n)).collect();
    let table = |title: &str, value: fn(&Cell) -> f64| {
        Table::per_bench(title, "bank entries", &labels, |row, b| {
            pct(value(&per_bench[b][row]))
        })
    };
    let extrapolated = table(
        "Extrapolated mispredict % (model: 1-bit, total update, h=4)",
        |c| c.extrapolated,
    );
    let measured = table(
        "Measured mispredict % (simulated 3-bank gskew: 1-bit, total update, h=4)",
        |c| c.measured,
    );
    ExperimentOutput {
        id: "fig11",
        title: "Figure 11 — extrapolated vs measured gskew misprediction".into(),
        tables: vec![extrapolated, measured],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_trace::workload::IbsBenchmark;

    #[test]
    fn model_tracks_simulation() {
        let c = measure(&[(IbsBenchmark::Verilog, 60_000)], &[10], 1)[0][0];
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
